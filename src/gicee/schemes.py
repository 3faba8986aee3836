"""Closed-form cooperative TDMA region, and per-state lists of the variant grids.

The time-division scheme splits the block into two slots.  In its own slot
a user sends a wiretap codeword (optionally jamming as well); in the other
slot it can only jam to cover the active user.  Rates follow in closed form,
so regions are plain grid sweeps plus a convex merge, no LP involved.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .grid import VARIANTS, _jam_grid, _jam_grid_size, _uniform_grid, user_power_grid
from .model import BUDGET_TOL, ChannelParams, PowerState
from .frontier import Frontier, _pareto_prune, _records, pareto_merge

_LN2 = math.log(2.0)

R3_TAGS = tuple(v for v in VARIANTS if v != "full")
CTDMA_TAGS = ("ctdma", "ctdma_nscp", "tdma")


def single_power_states(
    tag: str, budgets: tuple[float, float], steps: int, span: int = 1
) -> list[PowerState]:
    """Per-state grid of the common/jamming power families.

    ``r3`` sweeps (pc1, pj1, pc2, pj2); ``borcp`` keeps only states where
    each user either bins or jams, never both; ``ncp`` pins jamming to zero.
    ``span`` stretches the grid beyond the budget for multi-state searches.
    User 1's powers run slowest; each user's follow :func:`user_power_grid`.
    """
    if tag not in R3_TAGS:
        raise ValueError(f"tag must be one of {R3_TAGS}, got {tag!r}")
    user1, user2 = (user_power_grid(tag, span * budget, steps).tolist() for budget in budgets)
    return [PowerState(*p1, *p2) for p1 in user1 for p2 in user2]


def _gamma_vec(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.log1p(x) / _LN2


def _slot(
    tag: str, channel: ChannelParams, alpha: float, slot: int, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One slot of a time split: its rates as an (m, n) array, combo by
    helper level, with the average power each of the m combos uses of its
    owner's budget and each of the n helper levels uses of the helper's.

    Slot 1 is user 1's: combos (p1b, p1j1), helper levels p2j1; slot 2 is
    user 2's: combos (p2b, p2j2), helper levels p1j2.  Combos run over the
    codeword level, then own jamming; helper levels ascend.  Per-slot
    powers may exceed the budgets when the slot is short; the caller
    enforces the joint average constraint.
    """
    if slot == 1:
        share, own_budget, other_budget = alpha, channel.p1, channel.p2
        cross, own_eve, other_eve = channel.c21, channel.c1e, channel.c2e
    else:
        share, own_budget, other_budget = 1.0 - alpha, channel.p2, channel.p1
        cross, own_eve, other_eve = channel.c12, channel.c2e, channel.c1e
    if share <= 0:
        codeword = own_jam = helper_jam = np.zeros(1)
    else:
        own_cap, other_cap = own_budget / share, other_budget / share
        sig = _uniform_grid(own_cap, steps)
        # ``ctdma`` may jam in its own slot; every tag but ``tdma`` may help
        # jam in the other user's slot.
        jam = _jam_grid(own_cap, steps) if tag == "ctdma" else np.zeros(1)
        helper_jam = _jam_grid(other_cap, steps) if tag != "tdma" else np.zeros(1)
        ib, ij = np.nonzero(sig[:, None] + jam[None, :] <= own_cap + BUDGET_TOL)
        codeword, own_jam = sig[ib], jam[ij]
    pb, self_jam = codeword[:, None], own_jam[:, None]
    rate = share * np.maximum(
        0.0,
        _gamma_vec(pb / (1.0 + self_jam + cross * helper_jam))
        - _gamma_vec(
            own_eve * pb / (1.0 + own_eve * self_jam + other_eve * helper_jam)
        ),
    )
    return rate, share * (codeword + own_jam), share * helper_jam


def _best_partners(
    r2: np.ndarray, used1_b: np.ndarray, used2_b: np.ndarray,
    used1_a: np.ndarray, used2_a: np.ndarray, cap1: float, cap2: float,
) -> np.ndarray:
    """Best slot-2 rate jointly feasible with each slot-1 tuple, else -inf.

    Both slots' tuples form grids.  ``r2[i, j]`` is the rate of the slot-2
    tuple that uses ``used2_b[i]`` of user 2's budget and ``used1_b[j]`` of
    user 1's; entry [i, j] of the result is for the slot-1 tuple that uses
    ``used1_a[i]`` and ``used2_a[j]``.  Two tuples pair up when
    ``used1_a + used1_b <= cap1`` and ``used2_a + used2_b <= cap2``.

    ``used1_b`` must ascend, as the helper levels of :func:`_slot` do:
    :func:`gicee.grid._jam_grid` returns them sorted, and a nonnegative
    share keeps that order.  The rows of ``r2``, sorted by their use, are
    prefix-maximized along both axes, so cell (k2, k1) holds the best rate
    among the k2 rows of least use and the k1 least helper levels.
    Rounded addition is monotone, so the rows and levels a slot-1 tuple can
    afford are a prefix of each; rows of equal use are all affordable or
    none, and the cell at the two counts is the maximum over exactly the
    feasible partners.
    """
    order = np.argsort(used2_b, kind="stable")
    table = np.full((r2.shape[0] + 1, r2.shape[1] + 1), -np.inf)
    table[1:, 1:] = r2[order]
    np.maximum.accumulate(table, axis=0, out=table)
    np.maximum.accumulate(table, axis=1, out=table)
    rows = (used2_a[:, None] + used2_b[order] <= cap2).sum(axis=1)
    levels = (used1_a[:, None] + used1_b <= cap1).sum(axis=1)
    return table[rows[np.newaxis, :], levels[:, np.newaxis]]


# Largest time-division grid, in slot-grid rows over all time splits as
# bounded by ``slot_rows_bound``; work grows about linearly in the rows.
# Memory grows only with one split's rows, since each split is cut to its
# records before the next.  Largest grids allowed, fig2, the whole
# ``ctdma`` command on a 2-vCPU host: ``ctdma`` steps 34 (4.3 M rows
# enumerated, 0.35 s, 35 MB peak RSS), ``ctdma_nscp`` steps 129 (6.3 M,
# 0.45 s, 31 MB) and ``tdma`` steps 1802 (6.5 M, 1.1 s, 31 MB, most of it
# the per-split work of 1802 splits); ``ctdma`` at steps 17 takes 0.17 s
# and 30 MB.
MAX_SLOT_ROWS = 6_500_000


def slot_rows_bound(variant: str, steps: int) -> int:
    """Upper bound on the slot-grid rows :func:`ctdma_region` enumerates,
    in closed form: per time split (``steps`` of them) and slot, every
    codeword level times every own and helper jamming level (see
    :func:`gicee.grid._jam_grid_size`)."""
    jam = _jam_grid_size(steps)
    own = jam if variant == "ctdma" else 1
    helper = 1 if variant == "tdma" else jam
    return 2 * steps * steps * own * helper


def ctdma_region(
    channel: ChannelParams,
    variant: str = "ctdma",
    steps: int = 11,
) -> Frontier:
    """Convex closure of the time-division operating points on a grid.

    Equivalent to merging the singleton frontiers of every grid-feasible
    operating point.  For each of ``steps`` time splits, evenly spaced
    over [0, 1], every slot-1 tuple is paired
    with its best jointly feasible slot-2 tuple (the other pairings lie
    below it and cannot change the hull), found by one lookup in a 2-D
    prefix-max table over the slot-2 rows sorted by their use and the
    helper levels; see :func:`_best_partners` for why the lookup equals
    the maximum over all feasible pairs.  Each slot grid is its combos by
    its helper-jamming levels, so a slot's rates are one (combos, levels)
    broadcast (:func:`_slot`).  Each split's points are cut to their
    strict records, which keeps the records of all splits together (see
    :func:`gicee.frontier._records`), before one prune and merge.

    The metadata's ``timing`` holds the seconds spent building the slot
    grids and their rates (``grid``), looking up partners (``pair``) and
    cutting, pruning and merging the points (``merge``).

    Raises ValueError for an unknown variant, a grid whose
    :func:`slot_rows_bound` passes ``MAX_SLOT_ROWS``, or a channel whose
    budgets, stretched by the shortest nonzero slot, would overflow the
    rates.
    """
    if variant not in CTDMA_TAGS:
        raise ValueError(f"variant must be one of {CTDMA_TAGS}, got {variant!r}")
    rows = slot_rows_bound(variant, steps)
    if rows > MAX_SLOT_ROWS:
        shown = f"{rows:,}" if rows < 10**18 else "over 10^18"
        raise ValueError(
            f"the time-division grid may enumerate {shown} slot rows, more than "
            f"the {MAX_SLOT_ROWS:,} allowed; lower steps"
        )
    # The shortest nonzero slot is 1 / (steps - 1) of the block.
    channel.check_power_scale(max(steps - 1, 1))
    cap1, cap2 = channel.p1 + BUDGET_TOL, channel.p2 + BUDGET_TOL
    clock = time.perf_counter
    timing = dict.fromkeys(("grid", "pair", "merge"), 0.0)
    parts = []
    for alpha in np.linspace(0.0, 1.0, steps):
        alpha = float(alpha)
        start = clock()
        r1, used1_a, used2_a = _slot(variant, channel, alpha, 1, steps)
        r2, used2_b, used1_b = _slot(variant, channel, alpha, 2, steps)
        paired = clock()
        best = _best_partners(r2, used1_b, used2_b, used1_a, used2_a, cap1, cap2)
        feasible = best > -np.inf
        pruned = clock()
        parts.append(_records(np.column_stack((r1[feasible], best[feasible]))))
        timing["grid"] += paired - start
        timing["pair"] += pruned - paired
        timing["merge"] += clock() - pruned
    start = clock()
    meta = {"scheme": variant, "steps": steps, "timing": timing}
    union = pareto_merge([Frontier(points=_pareto_prune(np.concatenate(parts)))], metadata=meta)
    timing["merge"] += clock() - start
    return union
