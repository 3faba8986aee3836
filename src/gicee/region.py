"""Assembly of the rate constraint systems and allocation-family unions.

The region for one allocation is the projection of a 10-variable polytope:
for every receiver, each subset of its decodable components caps the summed
message-plus-randomization rates by a conditional MI; the eavesdropper's
subsets cap the randomization rates alone, with the full-set row promoted
to an equality so the dummy rates exactly saturate what the eavesdropper
observes.  Unions over power grids are merged by convex closure.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

from . import schemes
from .gaussmi import DECODABLE, SignalIndex
from .model import (
    BUDGET_TOL,
    ChannelParams,
    TimeSharedAllocation,
    validate_allocation,
)
from .frontier import FEASIBILITY_TOL, Frontier, _pareto_prune, pareto_merge
from .polytope import Projector, RateSystem, project_frontier

# Variable order of every RateSystem built here.  The two "other" message
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

VARIANTS = ("full", "r3", "borcp", "ncp")

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


def _set_partitions(items: list[int]):
    """Every partition of ``items`` into blocks, each block a bit set."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [1 << first] + partition
        for k, block in enumerate(partition):
            yield partition[:k] + [block | 1 << first] + partition[k + 1:]


def _screen_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the feasibility screen.

    Every inequality row caps the randomization rates of its subset (the
    message rates it also holds are nonnegative), so the rows with subset
    T give a cap on the summed rates over T.  Returned: the inequality
    rows in the order of their subset's bit set, the start of each of the
    62 proper nonempty subsets in that order, and one row per partition of
    the six components into two or more blocks, listing its blocks' subset
    positions padded with 62 (an always-zero cap).
    """
    # bit i - 1 stands for component SignalIndex i
    masks = np.array([sum(1 << (i - 1) for i in subset) for _, subset in _BOUNDS[:-1]])
    components = len(DECODABLE["ye"])
    full = (1 << components) - 1
    order = np.argsort(masks, kind="stable")
    starts = np.searchsorted(masks[order], np.arange(1, full))
    partitions = [p for p in _set_partitions(list(range(components))) if len(p) > 1]
    blocks = np.full((len(partitions), components), full - 1)
    for k, partition in enumerate(partitions):
        blocks[k, :len(partition)] = np.array(partition) - 1
    return order, starts, blocks


_CAP_ORDER, _CAP_STARTS, _PARTITION_BLOCKS = _screen_tables()
# An allocation whose equality bound passes its cover by more than this is
# certified infeasible without a tableau; the margin keeps the certificate
# clear of the tolerance phase 1 decides with.
SCREEN_MARGIN = 100 * FEASIBILITY_TOL


def randomization_cover(bounds: np.ndarray) -> np.ndarray:
    """Upper bound on the total randomization rate of each allocation, (n,).

    ``bounds`` is a block of bound rows, (n, 93).  The subsets of any
    partition of the eavesdropper's six components are disjoint, so their
    caps add up to a bound on the full sum, the left side of the equality;
    the cover is the least such bound over all 202 partitions with two or
    more blocks.  By weak duality an allocation whose equality bound
    exceeds its cover has no feasible rate point.
    """
    caps = np.minimum.reduceat(bounds[:, _CAP_ORDER], _CAP_STARTS, axis=1)
    caps = np.concatenate([caps, np.zeros((caps.shape[0], 1))], axis=1)
    return caps[:, _PARTITION_BLOCKS].sum(axis=2).min(axis=1)


def certified_infeasible(bounds: np.ndarray) -> np.ndarray:
    """Mask of the allocations in a block of bound rows that the cover
    proves infeasible; the rest are left to phase 1."""
    return bounds[:, -1] > randomization_cover(bounds) + SCREEN_MARGIN

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


def _allocation_arrays(alloc: TimeSharedAllocation) -> np.ndarray:
    """One allocation in the sweeps' array form, (1, k, 9): per state its
    weight, then its 8 powers."""
    return np.array([[(w,) + astuple(s) for w, s in alloc.states]], dtype=float)


def bound_rows(channel: ChannelParams, allocations: np.ndarray,
               columns: np.ndarray | None = None) -> np.ndarray:
    """Time-share-averaged MI bounds of a block of allocations, (n, 93).

    ``allocations`` is (n, k, 9): per state a weight, then the 8 powers.
    Columns follow the system rows: the 92 inequality bounds, then the
    eavesdropper equality; ``columns`` picks some of them, in its order.
    Each is ``gamma(subset power / floor)`` averaged over the states.
    Elementwise arithmetic only, so a value depends neither on the other
    allocations in the block nor on the other columns asked for.  A power
    so large that a received power overflows gives a non-finite bound,
    which :class:`RateSystem` and :meth:`Projector.search` reject; the
    sweeps' grids stay below that.
    """
    numerator_map, floor_map = _power_maps(channel)
    if columns is not None:
        numerator_map, floor_map = numerator_map[:, columns], floor_map[:, columns]
    numerator = np.zeros(allocations.shape[:2] + numerator_map.shape[1:])
    floor = np.ones_like(numerator)
    # A power that is zero throughout the block adds 0 * gain = +0.0 to
    # every sum, which leaves it bit for bit unchanged, so it is skipped
    # (r3 grids never use the self and other powers).
    used = np.flatnonzero(allocations[:, :, 1:].any(axis=(0, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        for p in used:
            column = allocations[:, :, p + 1, np.newaxis]
            numerator += column * numerator_map[p]
            floor += column * floor_map[p]
        rates = 0.5 * np.log1p(numerator / floor) / _LN2
        return (allocations[:, :, :1] * rates).sum(axis=1)


def build_system(channel: ChannelParams, alloc: TimeSharedAllocation) -> RateSystem:
    """Constraint system for one allocation: 92 inequalities plus the
    eavesdropper equality, with time-share-averaged MI bounds."""
    report = validate_allocation(channel, alloc)
    if not report.ok:
        raise ValueError(f"invalid allocation ({report.code}): {report.detail}")
    bounds = bound_rows(channel, _allocation_arrays(alloc))[0]
    return RateSystem(
        a_ub=A_UB, b_ub=bounds[:-1], a_eq=EQ_ROW[np.newaxis, :], b_eq=bounds[-1:]
    )


def region_for_allocation(
    channel: ChannelParams, alloc: TimeSharedAllocation
) -> Frontier:
    """Achievable (r1, r2) frontier for a single allocation.

    An empty frontier means the allocation admits no rate point at all
    (the equality can outgrow the receiver bounds); that is an expected
    outcome, not an error.  Phase 1 decides feasibility here; only the
    grid sweeps screen first.
    """
    return project_frontier(build_system(channel, alloc), R1_OBJECTIVE, R2_OBJECTIVE)


@dataclass(frozen=True)
class RegionSpec:
    """A region computation: channel, allocation family and grid sizes."""

    channel: ChannelParams
    variant: str = "r3"
    steps: int = 11
    states: int = 1
    weight_steps: int = 5

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.steps < 2:
            raise ValueError("steps must be at least 2 per swept dimension")
        if not 1 <= self.states <= 4:
            raise ValueError("states must be between 1 and 4")
        if self.states > 1 and self.weight_steps < 2:
            raise ValueError("weight_steps must be at least 2")
        # per-state grids stretch to ``states`` times the budgets
        self.channel.check_power_scale(self.states)
        size = grid_size(self)
        if size > MAX_ALLOCATIONS:
            shown = f"{size:,}" if size < 10**18 else "over 10^18"
            raise ValueError(
                f"the grid enumerates {shown} allocations, more than the "
                f"{MAX_ALLOCATIONS:,} allowed; lower steps, states or weight_steps"
            )


# Largest grid a sweep may enumerate.  A sweep holds about 0.23 kB per
# allocation (fig3 r3 at steps 31: 246 016 allocations, 87 MB peak RSS
# against 31 MB for a tiny grid, 0.7 s on a 2-vCPU host), and about 0.37
# kB when every allocation ties and all are examined (zero gains at steps
# 31: 121 MB), so this keeps a run within about half a gigabyte.
MAX_ALLOCATIONS = 1_000_000


def _tuples_within(k: int, size: int, total: int) -> int:
    """How many k-tuples of integers in [0, size) sum to at most ``total``:
    stars and bars, with inclusion-exclusion over the entries that reach
    ``size``."""
    return sum(
        (-1) ** j * math.comb(k, j) * math.comb(total - j * size + k, k)
        for j in range(k + 1)
        if total >= j * size
    )


def _user_grid_size(variant: str, cap: float, steps: int) -> int:
    """Per-user power tuples of a state grid whose powers sum to at most
    ``cap``, as :func:`schemes.user_power_grid` builds them."""
    if cap <= 0:
        return 1
    if variant == "ncp":
        return steps
    if variant == "borcp":
        return 2 * steps - 1
    k = 4 if variant == "full" else 2
    # Grid points sum within the cap plus BUDGET_TOL up to this many grid
    # pitches, and always up to steps - 1 (the cap itself).
    most = k * (steps - 1)
    pitch = cap / (steps - 1)
    reach = (cap + BUDGET_TOL) / pitch if pitch > 0 else math.inf
    return _tuples_within(k, steps, most if reach >= most else max(int(reach), steps - 1))


def grid_size(spec: RegionSpec) -> int:
    """Allocations the spec's grid enumerates, in closed form.

    With one state this is the allocation count.  With k states it counts
    every multiset of k grid states times every weight tuple, before the
    budget filter drops the mixtures that overspend.
    """
    k = spec.states
    base = math.prod(
        _user_grid_size(spec.variant, k * budget, spec.steps)
        for budget in (spec.channel.p1, spec.channel.p2)
    )
    if k == 1:
        return base
    return math.comb(base + k - 1, k) * math.comb(spec.weight_steps + k - 2, k - 1)


def _weight_grid(k: int, steps: int) -> list[tuple[float, ...]]:
    """Weight tuples of k states on the grid 0, 1/(steps - 1), ..., 1 that
    sum to one, in lexicographic order; the last weight takes what the
    others leave."""
    values = np.linspace(0.0, 1.0, steps)
    out = []
    for head in product(range(steps), repeat=k - 1):
        rest = steps - 1 - sum(head)
        if rest >= 0:
            out.append(tuple(float(values[i]) for i in head + (rest,)))
    return out


def _family_allocations(spec: RegionSpec) -> np.ndarray:
    """The spec's grid of allocations, (n, k, 9): per state a weight, then
    the 8 powers (pc1, ps1, po1, pj1, pc2, ps2, po2, pj2).

    Grid states run over user 1's power rows, then user 2's.  With k >= 2
    states every multiset of k grid states is combined with every weight
    tuple, weights normalized by their left-to-right sum; a mixture is
    kept when each user's weighted power, summed over the states left to
    right, stays within the budget plus ``BUDGET_TOL``.  That is the
    arithmetic of :class:`TimeSharedAllocation` and
    :func:`validate_allocation`, so every allocation is within budget.
    """
    k = spec.states
    user1, user2 = (
        schemes.user_power_grid(spec.variant, k * budget, spec.steps)
        for budget in (spec.channel.p1, spec.channel.p2)
    )
    states = np.concatenate(
        [np.repeat(user1, len(user2), axis=0), np.tile(user2, (len(user1), 1))], axis=1
    )
    if k == 1:
        return np.concatenate([np.ones((len(states), 1)), states], axis=1)[:, np.newaxis]
    weights = np.array(_weight_grid(k, spec.weight_steps))
    total = weights[:, 0]
    for j in range(1, k):
        total = total + weights[:, j]
    weights = weights / total[:, np.newaxis]
    combos = np.array(list(combinations_with_replacement(range(len(states)), k)))
    keep = np.ones((len(combos), len(weights)), dtype=bool)
    for user, budget in enumerate((spec.channel.p1, spec.channel.p2)):
        p = states[:, 4 * user:4 * user + 4]
        spent = (((p[:, 0] + p[:, 1]) + p[:, 2]) + p[:, 3])[combos]
        used = spent[:, :1] * weights[:, 0]
        for j in range(1, k):
            used = used + spent[:, j:j + 1] * weights[:, j]
        keep &= used <= budget + BUDGET_TOL
    at, weight_at = np.nonzero(keep)
    out = np.empty((len(at), k, 9))
    out[:, :, 0] = weights[weight_at]
    out[:, :, 1:] = states[combos[at]]
    return out


def region_union(spec: RegionSpec) -> Frontier:
    """Convex-closure union of the per-allocation regions of a family grid.

    One process runs one :meth:`Projector.search` over the grid array of
    :func:`_family_allocations`, all within budget: a single dichotomic
    search of the union, which examines only the allocations whose
    weak-duality bound reaches the best point found for an objective.
    Bounds come from :func:`bound_rows` on demand: for every allocation
    the few columns the bounds read, for the examined ones whole rows,
    which the screen sees first.  The projector lives for this call only,
    and its choices depend on values, not on the order of the grid, so the
    result depends on the spec alone.  Its LP counts go into the metadata
    as ``lp``, the allocations it examined, screened and found infeasible
    as counts, and the seconds spent enumerating, computing bounds,
    screening, projecting and merging as ``timing``.  A solver failure
    ends the sweep.
    """
    clock = time.perf_counter
    timing = dict.fromkeys(("enumerate", "bounds", "screen", "project", "merge"), 0.0)
    start = clock()
    allocations = _family_allocations(spec)
    timing["enumerate"] = clock() - start

    def bounds(at, columns):
        begin = clock()
        rows = bound_rows(spec.channel, allocations[at], columns)
        timing["bounds"] += clock() - begin
        return rows

    def screen(rows):
        begin = clock()
        certified = certified_infeasible(rows)
        timing["screen"] += clock() - begin
        return certified

    projector = Projector(A_UB, EQ_ROW[np.newaxis, :], R1_OBJECTIVE, R2_OBJECTIVE)
    start = clock()
    vertices, counts = projector.search(len(allocations), bounds, screen)
    timing["project"] = clock() - start - timing["bounds"] - timing["screen"]
    start = clock()
    union = pareto_merge([Frontier(points=_pareto_prune(vertices))], metadata={
        "scheme": spec.variant,
        "steps": spec.steps,
        "states": spec.states,
        "allocations": len(allocations),
        "examined_allocations": counts["examined"],
        "infeasible_allocations": counts["screened"] + counts["infeasible"],
        "screened_allocations": counts["screened"],
        "lp": projector.counts,
        "timing": timing,
    })
    union.metadata["timing"]["merge"] = clock() - start
    return union
