import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

import numpy as np
import pytest

from gicee import (
    DECODABLE,
    RECEIVERS,
    ChannelParams,
    Frontier,
    PowerState,
    SignalIndex,
    clamp_rate,
    gamma,
    pareto_merge,
    preset,
    read_allocation,
    validate_allocation,
)
from gicee.frontier import FEASIBILITY_TOL, _pareto_prune
from gicee.model import BUDGET_TOL
from gicee.region import (A_UB, EQ_ROW, R1_OBJECTIVE, R2_OBJECTIVE, VARIABLE_ORDER, bound_rows,
                          build_system)
from gicee.grid import _jam_grid, _uniform_grid


@pytest.fixture
def fig2() -> ChannelParams:
    return preset("fig2")


@pytest.fixture
def fig3() -> ChannelParams:
    return preset("fig3")


def random_channel(rng: np.random.Generator) -> ChannelParams:
    return ChannelParams(
        c12=rng.uniform(0.0, 2.5),
        c21=rng.uniform(0.0, 2.5),
        c1e=rng.uniform(0.0, 1.2),
        c2e=rng.uniform(0.0, 1.2),
        p1=rng.uniform(1.0, 15.0),
        p2=rng.uniform(1.0, 15.0),
    )


def random_state(rng: np.random.Generator, p1: float, p2: float) -> PowerState:
    """A state that always respects the per-user budgets."""
    shares = rng.uniform(0.0, 1.0, 8)
    u1 = shares[:4] / max(shares[:4].sum(), 1e-12) * p1 * rng.uniform(0.0, 1.0)
    u2 = shares[4:] / max(shares[4:].sum(), 1e-12) * p2 * rng.uniform(0.0, 1.0)
    return PowerState(*u1, *u2)


def allocation(*states: tuple[float, PowerState]) -> tuple[list[float], list[list[float]]]:
    """The ``(weights, powers)`` of ``(weight, PowerState)`` pairs, the
    weights normalized as an allocation file's are."""
    return read_allocation({"states": [dict(asdict(s), weight=w) for w, s in states]})


def single(state: PowerState) -> tuple[list[float], list[list[float]]]:
    return allocation((1.0, state))


def is_valid(channel, weights, powers) -> bool:
    try:
        validate_allocation(channel, weights, powers)
    except ValueError:
        return False
    return True


def sample_nonneg_bracket_params(rng, channel, count, max_tries=20000):
    """Time-division operating points whose rate brackets are nonnegative.

    Codeword powers are zeroed with some probability: on channels with a
    strong eavesdropper link one user may only ever contribute jamming.
    """
    out = []
    for _ in range(max_tries):
        if len(out) >= count:
            break
        alpha = rng.uniform(0.1, 0.9)
        u1, v1, w1 = rng.uniform(0, 1, 3)
        u2, v2, w2 = rng.uniform(0, 1, 3)
        p1b = u1 * channel.p1 / alpha * v1
        p1j1 = u1 * channel.p1 / alpha * (1 - v1)
        p1j2 = (1 - u1) * channel.p1 / (1 - alpha) * w1
        p2j1 = u2 * channel.p2 / alpha * w2
        p2b = (1 - u2) * channel.p2 / (1 - alpha) * v2
        p2j2 = (1 - u2) * channel.p2 / (1 - alpha) * (1 - v2)
        if rng.uniform() < 0.3:
            p1b = 0.0
        if rng.uniform() < 0.3:
            p2b = 0.0
        a1 = gamma(p1b / (1 + p1j1 + channel.c21 * p2j1))
        b1 = gamma(channel.c1e * p1b / (1 + channel.c1e * p1j1 + channel.c2e * p2j1))
        a2 = gamma(p2b / (1 + p2j2 + channel.c12 * p1j2))
        b2 = gamma(channel.c2e * p2b / (1 + channel.c2e * p2j2 + channel.c1e * p1j2))
        if a1 < b1 or a2 < b2:
            continue
        params = CtdmaParams(alpha, p1b, p1j1, p2j1, p2b, p2j2, p1j2)
        out.append((params, a1, b1, a2, b2))
    return out


# Scalar oracles the tests check the program against; the program itself
# has no use for them.

def support(frontier, theta):
    """Support value max(cos(theta) r1 + sin(theta) r2) of a frontier; -inf
    if it is empty."""
    if not frontier.points:
        return -math.inf
    ct, st = math.cos(theta), math.sin(theta)
    return max(ct * r1 + st * r2 for r1, r2 in frontier.points)


def move_into_hull(hull, point):
    """Length ``e1 + e2`` of the shortest move of ``point`` left by ``e1 >=
    0`` and down by ``e2 >= 0`` into the down-closed region under the
    frontier ``hull`` (a merged, convex one).

    The region's points at or below and left of ``point`` form a convex
    polygon, and the move maximizes ``r1 + r2`` over it, so it ends at one
    of its corners: straight below the point, straight left of it, or at
    a hull vertex clipped to the point.
    """
    # the hull with its axes swapped, whose r2_at reads r1 at a height
    mirror = Frontier(points=tuple((r2, r1) for r1, r2 in reversed(hull.points)))
    below, left = min(point[0], hull.max_r1), min(point[1], hull.max_r2)
    ends = [(below, hull.r2_at(below)), (mirror.r2_at(left), left), *hull.points]
    return min(sum(max(p - q, 0.0) for p, q in zip(point, end)) for end in ends)


def dominates(big, small, *, tol=1e-9):
    """True if the region of frontier ``big`` contains that of ``small``, up
    to ``tol``.

    Exact vertex test against the convex hull of ``big``: every point of
    ``small`` must move left by ``e1`` and down by ``e2`` into the hull with
    ``e1 + e2 <= tol`` (:func:`move_into_hull`), so its support value
    exceeds ``big``'s by at most ``tol`` in every direction.  A move
    measured one way only would not do: next to a near-vertical edge it
    multiplies a rounding of r1 by the edge's slope.
    """
    if small.is_empty:
        return True
    if big.is_empty:
        return False
    hull = pareto_merge([big])
    return all(move_into_hull(hull, point) <= tol for point in small.points)


def check_recipes(channel, grid, vertices):
    """Check the recipes of a region's frontier vertices (a region
    sidecar's ``vertices``) against the grid's states, ``(n, 8)`` powers:
    each time-shares grid states with positive weights that sum to one
    within 1e-12, its averaged powers are within the budgets plus
    ``BUDGET_TOL``, and its rates meet its point and the averaged bounds
    within ``FEASIBILITY_TOL``."""
    on_grid = set(map(tuple, grid.tolist()))
    for vertex in vertices:
        weights, states = np.array(vertex["weights"]), np.array(vertex["states"])
        assert len(weights) == len(states) >= 1
        assert np.all(weights > 0.0) and abs(weights.sum() - 1.0) <= 1e-12
        assert all(tuple(state) in on_grid for state in states.tolist())
        assert weights @ states[:, :4].sum(axis=1) <= channel.p1 + BUDGET_TOL
        assert weights @ states[:, 4:].sum(axis=1) <= channel.p2 + BUDGET_TOL
        bounds = weights @ bound_rows(channel, states)
        x = np.array([vertex["rates"][name] for name in VARIABLE_ORDER])
        assert np.all(x >= 0.0)
        assert np.all(A_UB @ x <= bounds[:-1] + FEASIBILITY_TOL)
        assert abs(EQ_ROW @ x - bounds[-1]) <= FEASIBILITY_TOL
        assert np.abs(np.array([R1_OBJECTIVE @ x, R2_OBJECTIVE @ x])
                      - vertex["point"]).max() <= FEASIBILITY_TOL


def lp_system(a_ub, b_ub, a_eq=None, b_eq=None):
    """The arrays ``(a_ub, a_eq, rhs)`` of ``a_ub x <= b_ub``, ``a_eq x =
    b_eq``, ``x >= 0``, as ``lp_solve`` and ``project_frontier`` take
    them: ``rhs`` holds ``b_ub``, then ``b_eq``; no equalities by default."""
    a_ub = np.asarray(a_ub, dtype=float)
    if a_eq is None:
        a_eq, b_eq = np.zeros((0, a_ub.shape[1])), np.zeros(0)
    return a_ub, np.asarray(a_eq, dtype=float), np.concatenate([b_ub, b_eq]).astype(float)


def allocation_system(channel, weights, powers):
    """The arrays ``(a_ub, a_eq, rhs)`` of one allocation's rate polytope."""
    return A_UB, EQ_ROW[np.newaxis], build_system(channel, weights, powers)


def pin(system, rows, values):
    """The system ``(a_ub, a_eq, rhs)`` with equality rows appended."""
    a_ub, a_eq, rhs = system
    return a_ub, np.vstack([a_eq, rows]), np.append(rhs, values)


def check_point(a_ub, a_eq, rhs, x):
    """Minimum slack of a point in the system ``(a_ub, a_eq, rhs)``:
    nonnegative iff the point is feasible.

    Inequalities contribute ``b - a.x``, equalities ``-|a.x - e|`` and the
    sign constraints ``min(x)``.
    """
    x = np.asarray(x, dtype=float)
    slack = float(np.min(rhs[:len(a_ub)] - a_ub @ x))
    if len(a_eq):
        slack = min(slack, float(-np.max(np.abs(a_eq @ x - rhs[len(a_ub):]))))
    return min(slack, float(np.min(x)))


@dataclass(frozen=True)
class ReceiverView:
    """One receiver's take on a power state.

    ``effective`` maps each decodable component to its received power;
    ``floor`` is the total undecodable received power plus the unit noise.
    """

    receiver: str
    effective: Mapping[int, float]
    floor: float

    def __post_init__(self) -> None:
        if self.receiver not in DECODABLE:
            raise ValueError(f"receiver must be one of {RECEIVERS}, got {self.receiver!r}")
        if not self.floor >= 1.0:
            raise ValueError(f"floor must be at least the unit noise, got {self.floor!r}")
        extra = set(self.effective) - DECODABLE[self.receiver]
        if extra:
            raise ValueError(f"effective powers outside the decodable set: {sorted(extra)}")
        if any(not v >= 0.0 for v in self.effective.values()):
            raise ValueError("effective powers must be nonnegative")

    def subset_power(self, subset: Iterable[int]) -> float:
        indices = frozenset(int(i) for i in subset)
        extra = indices - DECODABLE[self.receiver]
        if extra:
            raise ValueError(
                f"subset {sorted(indices)} not decodable at {self.receiver}"
                f" (offending: {sorted(extra)})"
            )
        return sum(self.effective[i] for i in indices)


def receiver_view(channel, state, receiver):
    """Received per-component powers and the noise floor at one receiver,
    written out from the channel equations (scalar oracle of the power maps
    of ``region.bound_rows``)."""
    if receiver == "y1":
        effective = {
            int(SignalIndex.C1): state.pc1,
            int(SignalIndex.S1): state.ps1,
            int(SignalIndex.C2): channel.c21 * state.pc2,
            int(SignalIndex.O2): channel.c21 * state.po2,
        }
        floor = 1.0 + state.po1 + state.pj1 + channel.c21 * (state.ps2 + state.pj2)
    elif receiver == "y2":
        effective = {
            int(SignalIndex.C1): channel.c12 * state.pc1,
            int(SignalIndex.O1): channel.c12 * state.po1,
            int(SignalIndex.C2): state.pc2,
            int(SignalIndex.S2): state.ps2,
        }
        floor = 1.0 + channel.c12 * (state.ps1 + state.pj1) + state.po2 + state.pj2
    elif receiver == "ye":
        effective = {
            int(SignalIndex.C1): channel.c1e * state.pc1,
            int(SignalIndex.S1): channel.c1e * state.ps1,
            int(SignalIndex.O1): channel.c1e * state.po1,
            int(SignalIndex.C2): channel.c2e * state.pc2,
            int(SignalIndex.S2): channel.c2e * state.ps2,
            int(SignalIndex.O2): channel.c2e * state.po2,
        }
        floor = 1.0 + channel.c1e * state.pj1 + channel.c2e * state.pj2
    else:
        raise ValueError(f"receiver must be one of {RECEIVERS}, got {receiver!r}")
    return ReceiverView(receiver=receiver, effective=effective, floor=floor)


def conditional_mi(view, subset):
    """MI between the subset's components and the observation, conditioned on
    the rest of the decodable set.

    With independent Gaussian components, conditioning on the complement
    removes its received power from the observation, so the value is
    ``gamma(subset power / floor)``.
    """
    return gamma(view.subset_power(subset) / view.floor)


def conditional_mi_timeshared(channel, weights, powers, receiver, subset):
    """Weighted average of the per-state conditional MI over the time
    shares (scalar oracle of ``region.bound_rows``)."""
    subset = frozenset(int(i) for i in subset)
    return sum(
        w * conditional_mi(receiver_view(channel, PowerState(*state), receiver), subset)
        for w, state in zip(weights, powers)
    )


@dataclass(frozen=True)
class CtdmaParams:
    """Two-slot time division: slot 1 belongs to user 1, slot 2 to user 2.

    ``p1b``/``p2b`` are codeword powers in the owner's slot, ``pkj1``/``pkj2``
    the jamming powers user k spends in slot 1 and slot 2.
    """

    alpha: float
    p1b: float = 0.0
    p1j1: float = 0.0
    p2j1: float = 0.0
    p2b: float = 0.0
    p2j2: float = 0.0
    p1j2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "p1b", "p1j1", "p2j1", "p2b", "p2j2", "p1j2"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.alpha > 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")

    def budget_violation(self, channel):
        a, ab = self.alpha, 1.0 - self.alpha
        used1 = a * (self.p1b + self.p1j1) + ab * self.p1j2
        if used1 > channel.p1 + BUDGET_TOL:
            return f"user 1 average power {used1} exceeds budget {channel.p1}"
        used2 = a * self.p2j1 + ab * (self.p2b + self.p2j2)
        if used2 > channel.p2 + BUDGET_TOL:
            return f"user 2 average power {used2} exceeds budget {channel.p2}"
        return None


def ctdma_rates(channel, params):
    """Closed-form secrecy rate pair of one time-division operating point
    (scalar oracle of ``schemes._slot``).

    Each slot is a wiretap channel whose receiver and eavesdropper noise
    floors include the slot's jamming; the rate difference is clamped at
    zero before scaling by the slot length.
    """
    violation = params.budget_violation(channel)
    if violation:
        raise ValueError(violation)
    a, ab = params.alpha, 1.0 - params.alpha
    r1 = a * clamp_rate(
        gamma(params.p1b / (1.0 + params.p1j1 + channel.c21 * params.p2j1))
        - gamma(
            channel.c1e * params.p1b
            / (1.0 + channel.c1e * params.p1j1 + channel.c2e * params.p2j1)
        )
    )
    r2 = ab * clamp_rate(
        gamma(params.p2b / (1.0 + params.p2j2 + channel.c12 * params.p1j2))
        - gamma(
            channel.c2e * params.p2b
            / (1.0 + channel.c2e * params.p2j2 + channel.c1e * params.p1j2)
        )
    )
    return r1, r2


def ctdma_allocation(params):
    """The two-state allocation realizing a time-division operating point.

    The slot owner's codeword rides its self signal (decoded only by its own
    receiver); everything else in the slot is jamming.
    """
    slot1 = PowerState(ps1=params.p1b, pj1=params.p1j1, pj2=params.p2j1)
    slot2 = PowerState(ps2=params.p2b, pj2=params.p2j2, pj1=params.p1j2)
    return allocation((params.alpha, slot1), (1.0 - params.alpha, slot2))


# Row-wise time-division pairing: every slot tuple is one row of an (n, 3)
# array and carries its own rates and uses, every split's points are
# concatenated, and one prune and merge follow.  ``schemes.ctdma_region``
# works on each slot's combos by its helper levels and cuts each split to
# its records; it must give these frontiers bit for bit.

def rowwise_slot_grid(tag, own_budget, other_budget, share, steps):
    """Power tuples of one slot as an (n, 3) array of rows (codeword, own
    jamming, helper jamming), helper jamming fastest."""
    if share <= 0:
        return np.zeros((1, 3))
    own_cap, other_cap = own_budget / share, other_budget / share
    sig = np.array(_uniform_grid(own_cap, steps))
    self_jam = np.array(_jam_grid(own_cap, steps) if tag == "ctdma" else (0.0,))
    other_jam = np.array(_jam_grid(other_cap, steps) if tag != "tdma" else (0.0,))
    ib, ij = np.nonzero(sig[:, None] + self_jam[None, :] <= own_cap + BUDGET_TOL)
    n = other_jam.size
    return np.column_stack(
        (np.repeat(sig[ib], n), np.repeat(self_jam[ij], n), np.tile(other_jam, ib.size))
    )


def rowwise_slot_arrays(channel, alpha, slot, grid):
    """Rates and per-user consumed average power of each row of one slot."""
    pb, self_jam, other_jam = grid[:, 0], grid[:, 1], grid[:, 2]
    share = alpha if slot == 1 else 1.0 - alpha
    if slot == 1:
        cross, own_eve, other_eve = channel.c21, channel.c1e, channel.c2e
    else:
        cross, own_eve, other_eve = channel.c12, channel.c2e, channel.c1e
    def gamma_vec(x):
        return 0.5 * np.log1p(x) / math.log(2.0)

    rate = share * np.maximum(
        0.0,
        gamma_vec(pb / (1.0 + self_jam + cross * other_jam))
        - gamma_vec(own_eve * pb / (1.0 + own_eve * self_jam + other_eve * other_jam)),
    )
    return rate, share * (pb + self_jam), share * other_jam


def rowwise_best_partners(r2, used1_b, used2_b, used1_a, used2_a, cap1, cap2):
    """Best jointly feasible slot-2 rate per slot-1 row, else -inf, by a
    prefix-max table over the ranks of the slot-2 rows' two uses."""
    def prefix_lengths(used, levels, cap):
        distinct, inverse = np.unique(used, return_inverse=True)
        return (distinct[:, None] + levels[None, :] <= cap).sum(axis=1)[inverse]

    lv1, rank1 = np.unique(used1_b, return_inverse=True)
    lv2, rank2 = np.unique(used2_b, return_inverse=True)
    table = np.full((lv1.size + 1, lv2.size + 1), -np.inf)
    np.maximum.at(table, (rank1 + 1, rank2 + 1), r2)
    np.maximum.accumulate(table, axis=0, out=table)
    np.maximum.accumulate(table, axis=1, out=table)
    return table[prefix_lengths(used1_a, lv1, cap1), prefix_lengths(used2_a, lv2, cap2)]


def rowwise_ctdma_region(channel, variant, steps):
    """Time-division region by the row-wise pairing, without ``timing``."""
    cap1, cap2 = channel.p1 + BUDGET_TOL, channel.p2 + BUDGET_TOL
    r1_parts, r2_parts = [], []
    for alpha in np.linspace(0.0, 1.0, steps):
        alpha = float(alpha)
        slot1 = rowwise_slot_grid(variant, channel.p1, channel.p2, alpha, steps)
        slot2 = rowwise_slot_grid(variant, channel.p2, channel.p1, 1.0 - alpha, steps)
        r1, used1_a, used2_a = rowwise_slot_arrays(channel, alpha, 1, slot1)
        r2, used2_b, used1_b = rowwise_slot_arrays(channel, alpha, 2, slot2)
        best = rowwise_best_partners(r2, used1_b, used2_b, used1_a, used2_a, cap1, cap2)
        feasible = best > -np.inf
        r1_parts.append(r1[feasible])
        r2_parts.append(best[feasible])
    points = np.column_stack([np.concatenate(r1_parts), np.concatenate(r2_parts)])
    meta = {"scheme": variant, "steps": steps}
    return pareto_merge([Frontier(points=_pareto_prune(points))], metadata=meta)
