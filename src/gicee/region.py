"""Assembly of the rate constraint systems and time-shared grid regions.

The region for one allocation is the projection of a 10-variable polytope:
for every receiver, each subset of its decodable components caps the summed
message-plus-randomization rates by a conditional MI; the eavesdropper's
subsets cap the randomization rates alone, with the full-set row promoted
to an equality so the dummy rates exactly saturate what the eavesdropper
observes.  The region of a power grid time-shares one codebook over any
number of grid states: every bound, and each user's power, is averaged
over the states, which is one master LP over the grid (see
:func:`gicee.polytope.time_share`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussmi import DECODABLE, SignalIndex
from .grid import VARIANTS, _user_grid_size, first_user_rows, on_user_grid, user_power_grid
from .model import ChannelParams, validate_allocation
from .frontier import Frontier, _pareto_prune, pareto_merge
from .polytope import project_frontier, time_share

# Variable order of the rate polytope's columns.  The two "other" message
# rates are pinned to zero by the construction and eliminated, leaving
# their randomization rates as pure dummy-randomness variables.
VARIABLE_ORDER = (
    "r_c1", "rx_c1", "r_s1", "rx_s1", "rx_o1",
    "r_c2", "rx_c2", "r_s2", "rx_s2", "rx_o2",
)
N_VARS = len(VARIABLE_ORDER)

_MSG_COL = {
    int(SignalIndex.C1): 0,
    int(SignalIndex.S1): 2,
    int(SignalIndex.C2): 5,
    int(SignalIndex.S2): 7,
}
_RX_COL = {
    int(SignalIndex.C1): 1,
    int(SignalIndex.S1): 3,
    int(SignalIndex.O1): 4,
    int(SignalIndex.C2): 6,
    int(SignalIndex.S2): 8,
    int(SignalIndex.O2): 9,
}

R1_OBJECTIVE = np.zeros(N_VARS)
R1_OBJECTIVE[[_MSG_COL[int(SignalIndex.C1)], _MSG_COL[int(SignalIndex.S1)]]] = 1.0
R1_OBJECTIVE.setflags(write=False)
R2_OBJECTIVE = np.zeros(N_VARS)
R2_OBJECTIVE[[_MSG_COL[int(SignalIndex.C2)], _MSG_COL[int(SignalIndex.S2)]]] = 1.0
R2_OBJECTIVE.setflags(write=False)

_LN2 = math.log(2.0)


def _nonempty_subsets(indices: frozenset[int], proper: bool = False):
    """All nonempty subsets in deterministic binary-counting order."""
    idx = sorted(indices)
    top = 2 ** len(idx)
    for mask in range(1, top):
        if proper and mask == top - 1:
            continue
        yield tuple(idx[k] for k in range(len(idx)) if mask >> k & 1)


# (receiver, subset) of every bound, in system order: each receiver's
# subsets, the eavesdropper's proper subsets, then its full set, which is
# the equality.
_BOUNDS = (
    [("y1", s) for s in _nonempty_subsets(DECODABLE["y1"])]
    + [("y2", s) for s in _nonempty_subsets(DECODABLE["y2"])]
    + [("ye", s) for s in _nonempty_subsets(DECODABLE["ye"], proper=True)]
    + [("ye", tuple(sorted(DECODABLE["ye"])))]
)
N_BOUNDS = len(_BOUNDS)


def _indicator_rows() -> np.ndarray:
    rows = np.zeros((N_BOUNDS, N_VARS))
    for k, (receiver, subset) in enumerate(_BOUNDS):
        for i in subset:
            if receiver != "ye" and i in _MSG_COL:
                rows[k, _MSG_COL[i]] = 1.0
            rows[k, _RX_COL[i]] = 1.0
    rows.setflags(write=False)
    return rows


# The fixed constraint matrix shared by every allocation: 92 inequality
# rows and the eavesdropper equality row.  Only the bounds change.
_ROWS = _indicator_rows()
A_UB, EQ_ROW = _ROWS[:-1], _ROWS[-1]

# The components each variant's grid gives power to, whatever the budgets.
# A bound whose subset holds another one equals, state by state, the bound
# of the same receiver on the subset without it, and the singleton rows of
# the others cap their rates at 0; so the master keeps only the rows over
# live components (:func:`_live_system`).
LIVE = {variant: frozenset(SignalIndex) if variant == "full"
        else frozenset((SignalIndex.C1, SignalIndex.C2)) for variant in VARIANTS}


@lru_cache(maxsize=None)
def _live_system(live: frozenset) -> tuple[np.ndarray, np.ndarray]:
    """The bound columns whose subsets hold only ``live`` components, the
    equality last, and the rate columns of their inequality rows.  The
    eavesdropper row over the whole live set repeats the equality and is
    left out."""
    kept = [k for k, (receiver, subset) in enumerate(_BOUNDS[:-1])
            if live.issuperset(subset) and not (receiver == "ye" and live == set(subset))]
    columns, rates = np.array(kept + [N_BOUNDS - 1]), np.flatnonzero(_ROWS[kept].any(axis=0))
    for array in (columns, rates):
        array.setflags(write=False)
    return columns, rates


# Position of each codeword component among a state's 8 powers (pc1, ps1,
# po1, pj1, pc2, ps2, po2, pj2); positions 3 and 7 are the users' jamming
# powers.
_POWER_AT = {
    int(SignalIndex.C1): 0, int(SignalIndex.S1): 1, int(SignalIndex.O1): 2,
    int(SignalIndex.C2): 4, int(SignalIndex.S2): 5, int(SignalIndex.O2): 6,
}
_JAM_AT = (3, 7)


def _membership() -> tuple[np.ndarray, np.ndarray]:
    """0/1 maps from the 8 state powers to each bound's subset power and to
    its receiver's noise floor (the powers the receiver cannot decode)."""
    subset_of = np.zeros((8, N_BOUNDS))
    floor_of = np.zeros((8, N_BOUNDS))
    for k, (receiver, subset) in enumerate(_BOUNDS):
        subset_of[[_POWER_AT[i] for i in subset], k] = 1.0
        hidden = [at for i, at in _POWER_AT.items() if i not in DECODABLE[receiver]]
        floor_of[hidden + list(_JAM_AT), k] = 1.0
    return subset_of, floor_of


_SUBSET_OF, _FLOOR_OF = _membership()
_USER1 = (np.arange(8) < 4)[:, np.newaxis]
_RECEIVER_OF = np.array([receiver for receiver, _ in _BOUNDS])


@lru_cache(maxsize=16)
def _power_maps(channel: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (8, 93) maps from state powers to each bound's SNR
    numerator and to the part of its noise floor above the unit noise,
    read-only and cached, since a sweep asks for them per block."""
    user_gains = {
        "y1": (1.0, channel.c21),
        "y2": (channel.c12, 1.0),
        "ye": (channel.c1e, channel.c2e),
    }
    g1, g2 = np.array([user_gains[r] for r in _RECEIVER_OF]).T
    gains = np.where(_USER1, g1, g2)
    maps = _SUBSET_OF * gains, _FLOOR_OF * gains
    for array in maps:
        array.setflags(write=False)
    return maps


def bound_rows(channel: ChannelParams, powers: np.ndarray,
               columns: np.ndarray | None = None) -> np.ndarray:
    """MI bounds of a block of power states, (n, 93).

    ``powers`` is (n, 8): per state (pc1, ps1, po1, pj1, pc2, ps2, po2,
    pj2).  Columns follow the system rows: the 92 inequality bounds, then
    the eavesdropper equality; ``columns`` picks some of them, in its
    order.  Each is ``gamma(subset power / floor)``.  Elementwise
    arithmetic only, so a value depends neither on the other states in
    the block nor on the other columns asked for.  A power so large that
    a received power overflows gives a non-finite bound, which
    :func:`time_share` and :func:`gicee.polytope.lp_solve` reject; the
    sweeps' grids stay below that.
    """
    numerator_map, floor_map = _power_maps(channel)
    if columns is not None:
        numerator_map, floor_map = numerator_map[:, columns], floor_map[:, columns]
    numerator = np.zeros((len(powers), numerator_map.shape[1]))
    floor = np.ones_like(numerator)
    # A power that is zero throughout the block adds 0 * gain = +0.0 to
    # every sum, which leaves it bit for bit unchanged, so it is skipped
    # (r3 grids never use the self and other powers).
    with np.errstate(over="ignore", invalid="ignore"):
        for p in np.flatnonzero(powers.any(axis=0)):
            column = powers[:, p, np.newaxis]
            numerator += column * numerator_map[p]
            floor += column * floor_map[p]
        return 0.5 * np.log1p(numerator / floor) / _LN2


def build_system(channel: ChannelParams, weights, powers) -> np.ndarray:
    """Right-hand side of the system ``(A_UB, EQ_ROW)`` for one
    allocation, (93,): the 92 inequality bounds, then the eavesdropper
    equality, each the ``weights``' average of the :func:`bound_rows` of
    ``powers``, per state its eight powers."""
    try:
        validate_allocation(channel, weights, powers)
    except ValueError as exc:
        raise ValueError(f"invalid allocation {exc}") from None
    rows = bound_rows(channel, np.array(powers, dtype=float))
    # a zero weight times an infinite bound is NaN, which the LP refuses
    with np.errstate(invalid="ignore"):
        return (np.array(weights, dtype=float)[:, np.newaxis] * rows).sum(axis=0)


def region_for_allocation(channel: ChannelParams, weights, powers) -> Frontier:
    """Achievable (r1, r2) frontier for a single allocation.

    An empty frontier means the allocation admits no rate point at all
    (the equality can outgrow the receiver bounds); that is an expected
    outcome, not an error.  Phase 1 decides feasibility.
    """
    return project_frontier(A_UB, EQ_ROW[np.newaxis], build_system(channel, weights, powers),
                            R1_OBJECTIVE, R2_OBJECTIVE)


@dataclass(frozen=True)
class RegionSpec:
    """A region computation: channel, power-grid family and grid sizes.

    The grid holds the per-state grids of spans 1 to ``states``, span k's
    powers reaching k times the budgets (see :func:`_family_allocations`).
    """

    channel: ChannelParams
    variant: str = "r3"
    steps: int = 11
    states: int = 1

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.steps < 2:
            raise ValueError("steps must be at least 2 per swept dimension")
        if not 1 <= self.states <= 4:
            raise ValueError("states must be between 1 and 4")
        # the widest span stretches the grid to ``states`` times the budgets
        self.channel.check_power_scale(self.states)
        size = grid_size(self)
        if size > MAX_ALLOCATIONS:
            shown = f"{size:,}" if size < 10**18 else "over 10^18"
            raise ValueError(
                f"the grid has {shown} states, more than the "
                f"{MAX_ALLOCATIONS:,} allowed; lower steps or states"
            )


# Largest grid a sweep may hold, in states, so that a run stays within
# about half a gigabyte.  A sweep keeps 64 bytes per state and 8 more per
# bound column that pricing reads, of at most 9 for r3, borcp and ncp and
# 93 for full.  Peak RSS on a 2-vCPU host, against 32 MB for a tiny grid:
# fig3 r3 at steps 31, 246 016 states, 72 MB in 0.28 s; at steps 44,
# 980 100 states, 190 MB in 0.83 s; with two states at steps 37, 988 418
# states before duplicates, 194 MB in 1.6 s; full at steps 66 with budgets
# (10, 0), 864 501 states, 224 MB in 1.2 s.
MAX_ALLOCATIONS = 1_000_000


def grid_size(spec: RegionSpec) -> int:
    """States of the spec's grid in closed form: the sizes of the grids of
    spans 1 to ``states`` added up, so a state two spans share counts
    twice."""
    return sum(
        math.prod(_user_grid_size(spec.variant, span * budget, spec.steps)
                  for budget in (spec.channel.p1, spec.channel.p2))
        for span in range(1, spec.states + 1)
    )


def _family_allocations(spec: RegionSpec) -> np.ndarray:
    """The spec's grid of states, (n, 8): per state the 8 powers (pc1, ps1,
    po1, pj1, pc2, ps2, po2, pj2).

    Span k's grid runs over user 1's rows of :func:`gicee.grid.user_power_grid`
    capped at k times the budget, then user 2's.  Spans follow in order,
    each state kept where it first appears, so the first is the zero-power
    one.  A state repeats one of span j exactly when both its user rows are
    on span j's user grids, so repeats are found per user, with no sort.
    """
    caps = [(span * spec.channel.p1, span * spec.channel.p2) for span in range(1, spec.states + 1)]
    users = [[user_power_grid(spec.variant, cap, spec.steps) for cap in pair] for pair in caps]
    grids = [np.concatenate([np.repeat(user1, len(user2), axis=0),
                             np.tile(user2, (len(user1), 1))], axis=1) for user1, user2 in users]
    if len(grids) == 1:
        return grids[0]
    for k, rows in enumerate(users):
        fresh = np.logical_and.outer(*map(first_user_rows, rows, caps[k], [spec.steps] * 2))
        for earlier in caps[:k]:
            fresh &= ~np.logical_and.outer(*map(on_user_grid, rows, earlier, [spec.steps] * 2))
        grids[k] = grids[k][fresh.ravel()]
    return np.concatenate(grids)


# States whose bounds one call of bound_rows computes, so that its
# temporaries stay within a few megabytes however large the grid.
_READ_STATES = 1 << 13


def region_union(spec: RegionSpec) -> Frontier:
    """Frontier of one codebook time-shared over the spec's grid states.

    Every achievable point averages the bounds and each user's power over
    the states with some weights: the master LP of :func:`time_share`,
    with one column per grid state and the two power budgets as resource
    rows, started from the zero-power state, on the rows and rates of the
    variant's live components.  Any per-state region, and any mixture of
    states within budget, is one choice of weights, so the frontier
    contains them all.  Pricing breaks ties by the states' powers, so the
    result, bit for bit, does not depend on the order of the grid.

    The metadata holds the grid size as ``allocations``, the master's
    pricing rounds, columns and pivots as ``lp``, per frontier point the
    states, weights and rates of its optimum as ``vertices``, and the
    seconds spent enumerating, computing bounds, solving the master and
    merging as ``timing``.  A solver failure ends the sweep.
    """
    clock = time.perf_counter
    timing = dict.fromkeys(("enumerate", "bounds", "solve", "merge"), 0.0)
    start = clock()
    grid = _family_allocations(spec)
    timing["enumerate"] = clock() - start

    live, rates = _live_system(LIVE[spec.variant])

    def bounds(at, columns):
        begin = clock()
        states = grid[at]
        columns = live if columns is None else live[columns]
        rows = np.empty((len(states), len(columns)))
        for first in range(0, len(states), _READ_STATES):
            block = slice(first, first + _READ_STATES)
            rows[block] = bound_rows(spec.channel, states[block], columns)
        timing["bounds"] += clock() - begin
        return rows

    usage = np.stack([((p[:, 0] + p[:, 1]) + p[:, 2]) + p[:, 3]
                      for p in (grid[:, :4], grid[:, 4:])], axis=1)
    matrix = _ROWS[np.ix_(live, rates)]
    start = clock()
    vertices, recipes, counts = time_share(
        matrix[:-1], matrix[-1:], bounds, R1_OBJECTIVE[rates], R2_OBJECTIVE[rates],
        usage, np.array([spec.channel.p1, spec.channel.p2]),
        first=int(np.flatnonzero(~grid.any(axis=1))[0]), keys=grid)
    timing["solve"] = clock() - start - timing["bounds"]
    start = clock()
    union = pareto_merge([Frontier(points=_pareto_prune(vertices))], metadata={
        "scheme": spec.variant,
        "steps": spec.steps,
        "states": spec.states,
        "allocations": len(grid),
        "lp": counts,
        "timing": timing,
    })
    union.metadata["vertices"] = [_recipe(point, recipes, grid, rates) for point in union.points]
    union.metadata["timing"]["merge"] = clock() - start
    return union


def _recipe(point: tuple[float, float], recipes: dict, powers: np.ndarray,
            rates: np.ndarray) -> dict:
    """The sidecar entry of a frontier point: the recipe of the optimum
    whose image is nearest to it (the frontier snaps coordinates near 0),
    its ``x`` over the master's ``rates`` put back in ``VARIABLE_ORDER``."""
    image = min(recipes, key=lambda p: max(abs(p[0] - point[0]), abs(p[1] - point[1])))
    at, weights, x = recipes[image]
    values = np.zeros(N_VARS)
    values[rates] = x
    return {
        "point": list(point),
        "states": powers[at].tolist(),
        "weights": weights.tolist(),
        "rates": dict(zip(VARIABLE_ORDER, values.tolist())),
    }
