"""The oracle suites that ``gicee validate`` runs.

Each suite judges code the sweeps use against an independent path, kept
here with it: the closed-form bounds of :func:`gicee.region.bound_rows`
against the covariance-determinant oracle (:func:`mi_covariance_oracle`)
and against submodularity, and :func:`gicee.polytope.project_frontier`
against a brute-force feasibility grid (:func:`grid_feasibility_oracle`),
both on the system ``(A_UB, EQ_ROW)`` of :mod:`gicee.region` with the
right-hand side of :func:`gicee.region.build_system`.
Only ``validate`` loads this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import SolverFailure
from .frontier import Frontier
from .gaussmi import DECODABLE, RECEIVERS, SignalIndex
from .model import ChannelParams, PowerState
from .polytope import lp_solve, project_frontier
from .region import (
    _BOUNDS,
    A_UB,
    EQ_ROW,
    N_BOUNDS,
    R1_OBJECTIVE,
    R2_OBJECTIVE,
    bound_rows,
    build_system,
)

_LN2 = math.log(2.0)


def mi_covariance_oracle(
    channel: ChannelParams,
    state: PowerState,
    receiver: str,
    subset: Iterable[int],
) -> float:
    """Covariance-determinant evaluation of one conditional MI bound.

    Builds the scalar observation directly from the channel equations and
    computes 0.5*log2(var(Y | complement) / var(Y | complement, subset))
    through Schur complements of the joint covariance.  The variances are
    exact rationals of the float inputs, so the subtraction in each Schur
    complement cannot cancel; only the final logarithm rounds.
    """
    decodable = DECODABLE[receiver]
    subset = frozenset(int(i) for i in subset)
    extra = subset - decodable
    if extra:
        raise ValueError(
            f"subset {sorted(subset)} not decodable at {receiver}"
            f" (offending: {sorted(extra)})"
        )
    complement = decodable - subset
    # each user's amplitude at the receiver, carried by its three components
    gains = {"y1": (1.0, channel.c21), "y2": (channel.c12, 1.0), "ye": (channel.c1e, channel.c2e)}
    a1, a2 = (Fraction(math.sqrt(gain)) for gain in gains[receiver])
    amps = {i: a1 if i <= SignalIndex.O1 else a2 for i in range(1, 7)}
    fields = ("pc1", "ps1", "po1", "pc2", "ps2", "po2")   # by SignalIndex
    powers = {i: Fraction(getattr(state, name)) for i, name in enumerate(fields, start=1)}

    # Anything outside the decodable set stays unexplained, as does jamming.
    base_noise = 1 + a1 * a1 * Fraction(state.pj1) + a2 * a2 * Fraction(state.pj2)
    base_noise += sum(amps[i] ** 2 * powers[i] for i in range(1, 7) if i not in decodable)
    var_y = base_noise + sum(amps[i] ** 2 * powers[i] for i in decodable)

    def conditional_var(cond: frozenset[int]) -> Fraction:
        # Zero-power components are almost-surely zero; conditioning on them
        # is a no-op and would only make the covariance singular.
        cond = sorted(i for i in cond if powers[i] > 0)
        # The components are independent, so the covariance of the
        # conditioning set is diagonal and its solve is a division.
        cross = [amps[i] * powers[i] for i in cond]
        explained = sum(c * c / powers[i] for c, i in zip(cross, cond))
        return var_y - explained

    ratio = conditional_var(complement) / conditional_var(complement | subset)
    return 0.5 * math.log(ratio) / _LN2


def grid_feasibility_oracle(a_ub, a_eq, rhs, r1_row: Sequence[float],
                            r2_row: Sequence[float], pitch: float
                            ) -> frozenset[tuple[float, float]]:
    """LP-feasible points of a pitch-spaced grid over the projection's box.

    Brute-force target for :func:`gicee.polytope.project_frontier`, on the
    same system ``(a_ub, a_eq)`` and right-hand side ``rhs``: each grid
    point is pinned by stacking the two objective rows under ``a_eq`` and
    appending the point to ``rhs``, and tested for feasibility.
    """
    if not pitch > 0:
        raise ValueError("pitch must be positive")
    res1 = lp_solve(a_ub, a_eq, rhs, r1_row)
    if res1.status == "infeasible":
        return frozenset()
    res2 = lp_solve(a_ub, a_eq, rhs, r2_row)
    if res1.status != "optimal" or res2.status != "optimal":
        raise SolverFailure("projection box is unbounded")
    pinned = np.vstack([a_eq, r1_row, r2_row])
    zero = np.zeros(pinned.shape[1])
    feasible = set()
    for i in range(int(res1.value / pitch + 1e-9) + 1):
        for j in range(int(res2.value / pitch + 1e-9) + 1):
            target = (i * pitch, j * pitch)
            if lp_solve(a_ub, pinned, np.append(rhs, target), zero).status == "optimal":
                feasible.add(target)
    return frozenset(feasible)


def _random_state(rng: np.random.Generator, p1: float, p2: float) -> np.ndarray:
    """The 8 powers of a random state within the budgets."""
    shares = rng.uniform(0.0, 1.0, 8)
    u1 = shares[:4] / max(shares[:4].sum(), 1e-12) * p1 * rng.uniform(0.0, 1.0)
    u2 = shares[4:] / max(shares[4:].sum(), 1e-12) * p2 * rng.uniform(0.0, 1.0)
    return np.concatenate([u1, u2])


def _random_channel(rng: np.random.Generator) -> ChannelParams:
    return ChannelParams(
        c12=rng.uniform(0.0, 2.5), c21=rng.uniform(0.0, 2.5),
        c1e=rng.uniform(0.0, 1.2), c2e=rng.uniform(0.0, 1.2),
        p1=rng.uniform(1.0, 15.0), p2=rng.uniform(1.0, 15.0),
    )


def _subset_columns() -> dict[str, np.ndarray]:
    """Per receiver, the :func:`bound_rows` column of each subset of its
    decodable components, indexed by the subset's bit mask over the sorted
    components; the empty subset gets ``N_BOUNDS``, the index of a zero
    appended to a row."""
    tables = {r: np.full(2 ** len(DECODABLE[r]), N_BOUNDS) for r in RECEIVERS}
    for column, (receiver, subset) in enumerate(_BOUNDS):
        ground = sorted(DECODABLE[receiver])
        tables[receiver][sum(1 << ground.index(i) for i in subset)] = column
    return tables


def _subset_values(channel: ChannelParams, powers: np.ndarray) -> np.ndarray:
    """The bound row of one state with the given 8 powers, with a zero
    appended for the empty subset."""
    return np.append(bound_rows(channel, powers[np.newaxis])[0], 0.0)


def mi_oracle_suite(seed: int, samples: int) -> float:
    """Max deviation between :func:`bound_rows` and the covariance oracle."""
    rng = np.random.default_rng(seed)
    tables = _subset_columns()
    worst = 0.0
    for _ in range(samples):
        channel = _random_channel(rng)
        powers = rng.uniform(0.0, 8.0, 8)
        receiver = RECEIVERS[rng.integers(0, 3)]
        decodable = sorted(DECODABLE[receiver])
        mask = sum(1 << k for k in range(len(decodable)) if rng.uniform() < 0.5)
        subset = [i for k, i in enumerate(decodable) if mask >> k & 1]
        closed = _subset_values(channel, powers)[tables[receiver][mask]]
        oracle = mi_covariance_oracle(channel, PowerState(*powers), receiver, subset)
        worst = max(worst, abs(closed - oracle))
    return worst


def hausdorff_gap(frontier: Frontier,
                  feasible: frozenset[tuple[float, float]],
                  pitch: float) -> float:
    """Chessboard Hausdorff distance between the oracle's feasible grid set
    and the grid points under the projected frontier, in pitch units."""
    if frontier.is_empty:
        return math.inf if feasible else 0.0
    under = set()
    n1 = int(frontier.max_r1 / pitch + 1e-9)
    n2 = int(frontier.max_r2 / pitch + 1e-9)
    for i in range(n1 + 1):
        limit = frontier.r2_at(i * pitch) + 1e-9
        for j in range(n2 + 1):
            if j * pitch <= limit:
                under.add((i * pitch, j * pitch))
    if not feasible or not under:
        return math.inf if feasible != frozenset(under) else 0.0

    def one_sided(src, dst):
        return max(
            min(max(abs(a1 - b1), abs(a2 - b2)) for b1, b2 in dst)
            for a1, a2 in src
        )

    return max(one_sided(feasible, under), one_sided(under, feasible)) / pitch


def projection_suite(seed: int, systems: int) -> float:
    """Worst frontier-vs-grid-oracle gap (pitch units) over random systems.

    Runs until ``systems`` feasible instances have been compared; infeasible
    draws still assert that the oracle agrees the region is empty.  The
    eavesdropper gains are kept moderate so feasible systems are common.
    Each system goes through :func:`project_frontier`, the master LP of
    :func:`region_union` for `full` with that one column, so the oracle
    judges the engine the sweeps run.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    feasible_seen = 0
    for _ in range(50 * systems):
        if feasible_seen >= systems:
            break
        channel = ChannelParams(
            c12=rng.uniform(0.1, 2.2), c21=rng.uniform(0.1, 2.2),
            c1e=rng.uniform(0.0, 0.7), c2e=rng.uniform(0.0, 0.7),
            p1=rng.uniform(1.0, 15.0), p2=rng.uniform(1.0, 15.0),
        )
        powers = _random_state(rng, channel.p1, channel.p2)
        system = (A_UB, EQ_ROW[np.newaxis], build_system(channel, [1.0], [powers]))
        frontier = project_frontier(*system, R1_OBJECTIVE, R2_OBJECTIVE)
        if frontier.is_empty:
            if grid_feasibility_oracle(*system, R1_OBJECTIVE, R2_OBJECTIVE, 0.25):
                worst = max(worst, math.inf)
            continue
        feasible_seen += 1
        pitch = max(frontier.max_r1, frontier.max_r2, 1e-3) / 10.0
        feasible = grid_feasibility_oracle(*system, R1_OBJECTIVE, R2_OBJECTIVE, pitch)
        worst = max(worst, hausdorff_gap(frontier, feasible, pitch))
    if feasible_seen < systems:
        return math.inf
    return worst


def _submodular_triples(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (small, big, element) of a ground set of ``size`` as bit masks,
    with small a subset of big and the element outside big."""
    masks = np.arange(2 ** size)
    small, big, element = np.meshgrid(masks, masks, 1 << np.arange(size), indexing="ij")
    keep = (small & ~big == 0) & (big & element == 0)
    return small[keep], big[keep], element[keep]


def submodularity_suite(seed: int, trials: int = 40) -> float:
    """Worst submodularity margin of the subset-MI set function that
    :func:`bound_rows` gives (>= 0 ok)."""
    rng = np.random.default_rng(seed)
    tables = _subset_columns()
    triples = {r: _submodular_triples(len(DECODABLE[r])) for r in RECEIVERS}
    worst = 0.0
    for _ in range(trials):
        channel = _random_channel(rng)
        powers = rng.uniform(0.0, 8.0, 8)
        receiver = RECEIVERS[rng.integers(0, 3)]
        value = _subset_values(channel, powers)[tables[receiver]]
        small, big, element = triples[receiver]
        margin = (value[small | element] - value[small]) - (value[big | element] - value[big])
        worst = min(worst, margin.min())
    return -worst
