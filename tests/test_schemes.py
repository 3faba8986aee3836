import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gicee import (
    ChannelParams,
    Frontier,
    ctdma_region,
    pareto_merge,
    single_power_states,
    single_user_wiretap,
)
from gicee.model import BUDGET_TOL
from gicee.polytope import _pareto_prune
from gicee.grid import _jam_grid, _uniform_grid, user_power_grid
from gicee.schemes import CTDMA_TAGS, _best_partners, _slot
from conftest import (
    CtdmaParams,
    ctdma_allocation,
    ctdma_rates,
    dominates,
    is_valid,
    rowwise_ctdma_region,
    rowwise_slot_arrays,
    support,
)


# Enumeration oracles: literal loops over the scheme grids, against which
# the vectorized sweeps are checked.

def literal_slot_grids(tag, channel, alpha, steps):
    """Per-slot power tuples for one time split, as lists of tuples.

    Slot 1 tuples are (p1b, p1j1, p2j1), slot 2 tuples (p2b, p2j2, p1j2).
    """
    own_jam = tag == "ctdma"
    helper_jam = tag != "tdma"
    slots = []
    for share, own, other in ((alpha, channel.p1, channel.p2),
                              (1.0 - alpha, channel.p2, channel.p1)):
        if share <= 0:
            slots.append([(0.0, 0.0, 0.0)])
            continue
        cap_own, cap_other = own / share, other / share
        sig = _uniform_grid(cap_own, steps)
        self_jam = _jam_grid(cap_own, steps) if own_jam else (0.0,)
        other_jam = _jam_grid(cap_other, steps) if helper_jam else (0.0,)
        slots.append([
            (pb, sj, oj)
            for pb in sig
            for sj in self_jam
            if pb + sj <= cap_own + BUDGET_TOL
            for oj in other_jam
        ])
    return slots


def ctdma_family(tag, channel, steps):
    """Every grid-feasible time-division operating point, lazily."""
    if tag not in CTDMA_TAGS:
        raise ValueError(f"tag must be one of {CTDMA_TAGS}, got {tag!r}")
    for alpha in np.linspace(0.0, 1.0, steps):
        alpha = float(alpha)
        slot1, slot2 = literal_slot_grids(tag, channel, alpha, steps)
        ab = 1.0 - alpha
        for p1b, p1j1, p2j1 in slot1:
            used1_slot1 = alpha * (p1b + p1j1)
            used2_slot1 = alpha * p2j1
            for p2b, p2j2, p1j2 in slot2:
                if used1_slot1 + ab * p1j2 > channel.p1 + BUDGET_TOL:
                    continue
                if used2_slot1 + ab * (p2b + p2j2) > channel.p2 + BUDGET_TOL:
                    continue
                yield CtdmaParams(alpha, p1b, p1j1, p2j1, p2b, p2j2, p1j2)


def dense_best_partners(r2, used1_b, used2_b, used1_a, used2_a, cap1, cap2):
    """Best jointly feasible slot-2 rate per slot-1 tuple, else -inf, by a
    dense mask over every pair."""
    ok = (
        used1_a[:, None] + used1_b[None, :] <= cap1
    ) & (
        used2_a[:, None] + used2_b[None, :] <= cap2
    )
    return np.where(ok, r2[None, :], -np.inf).max(axis=1)


def dense_pairing_region(channel, variant, steps):
    """Time-division region with each slot-1 tuple checked against every
    slot-2 tuple by a dense joint-budget mask over the literal slot grids.

    On the way it checks each slot's rates and uses, and the pairing,
    against the row-wise ones of every tuple."""
    points = []
    caps = (channel.p1 + BUDGET_TOL, channel.p2 + BUDGET_TOL)
    for alpha in np.linspace(0.0, 1.0, steps):
        alpha = float(alpha)
        slot1, slot2 = (
            np.asarray(tuples, dtype=float).reshape(-1, 3)
            for tuples in literal_slot_grids(variant, channel, alpha, steps)
        )
        r1, used1_a, used2_a = rowwise_slot_arrays(channel, alpha, 1, slot1)
        r2, used2_b, used1_b = rowwise_slot_arrays(channel, alpha, 2, slot2)
        best = dense_best_partners(r2, used1_b, used2_b, used1_a, used2_a, *caps)
        f_r1, f_used1_a, f_used2_a = _slot(variant, channel, alpha, 1, steps)
        f_r2, f_used2_b, f_used1_b = _slot(variant, channel, alpha, 2, steps)
        # a slot grid's rows are its combos by its helper levels
        for rows, (rate, owner, helper) in (
            ((r1, used1_a, used2_a), (f_r1, f_used1_a, f_used2_a)),
            ((r2, used2_b, used1_b), (f_r2, f_used2_b, f_used1_b)),
        ):
            combos, levels = rate.shape
            assert np.array_equal(rate.ravel(), rows[0])
            assert np.array_equal(np.repeat(owner, levels), rows[1])
            assert np.array_equal(np.tile(helper, combos), rows[2])
        # the pairing itself must agree, not only the hull it yields
        paired = _best_partners(f_r2, f_used1_b, f_used2_b, f_used1_a, f_used2_a, *caps)
        assert np.array_equal(paired.ravel(), best)
        points += [(float(a), float(b)) for a, b in zip(r1, best) if b > -np.inf]
    meta = {"scheme": variant, "steps": steps}
    if not points:
        return Frontier(points=(), metadata=meta)
    return pareto_merge([Frontier(points=_pareto_prune(points))], metadata=meta)


# [gamma(10) - gamma(5)], the lone-user rate on the preset channels.
WIRETAP_10 = 0.4372345589580706
# rate of user 1 on the asymmetric preset with helper jamming at 0.88
JAMMED_R1_088 = 0.5192407813112971


def test_rates_full_power_no_jamming(fig2):
    r1, r2 = ctdma_rates(fig2, CtdmaParams(alpha=1.0, p1b=10.0))
    assert r1 == pytest.approx(WIRETAP_10, abs=1e-12)
    assert r2 == 0.0


def test_rates_with_helper_jamming(fig3):
    r1, _ = ctdma_rates(fig3, CtdmaParams(alpha=1.0, p1b=10.0, p2j1=0.88))
    assert r1 == pytest.approx(JAMMED_R1_088, abs=1e-12)
    assert abs(r1 - 0.5192) <= 5e-3


def test_rates_zero_time_share(fig2):
    r1, _ = ctdma_rates(fig2, CtdmaParams(alpha=0.0, p1b=99.0, p1j1=5.0))
    assert r1 == 0.0


def test_rates_reject_budget_violation(fig2):
    with pytest.raises(ValueError, match="budget"):
        ctdma_rates(fig2, CtdmaParams(alpha=1.0, p1b=11.0))


def test_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        CtdmaParams(alpha=1.5)
    with pytest.raises(ValueError, match="p1b"):
        CtdmaParams(alpha=0.5, p1b=-1.0)


def test_rates_match_lone_user_baseline(fig2, fig3):
    for channel in (fig2, fig3):
        for power in (0.0, 2.5, 10.0):
            r1, r2 = ctdma_rates(channel, CtdmaParams(alpha=1.0, p1b=power))
            assert r1 == single_user_wiretap(power, channel.c1e)
            assert r2 == 0.0


def test_single_user_wiretap_values():
    assert single_user_wiretap(10.0, 0.5) == pytest.approx(WIRETAP_10, abs=1e-12)
    assert single_user_wiretap(10.0, 1.6) == 0.0
    assert single_user_wiretap(0.0, 0.7) == 0.0
    with pytest.raises(ValueError):
        single_user_wiretap(-1.0, 0.5)


def test_region_contains_time_shared_mixtures(fig2):
    frontier = ctdma_region(fig2, "tdma", steps=5)
    assert frontier.max_r1 == pytest.approx(WIRETAP_10, abs=1e-9)
    assert frontier.max_r2 == pytest.approx(WIRETAP_10, abs=1e-9)
    # the equal-split mixture lies on or below the hull
    assert frontier.r2_at(WIRETAP_10 / 2) >= WIRETAP_10 / 2 - 1e-9


def test_region_asymmetric_user2_silent(fig3):
    frontier = ctdma_region(fig3, "ctdma", steps=7)
    assert frontier.max_r2 <= 1e-9


def test_region_zero_budgets():
    channel = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=0.0, p2=0.0)
    frontier = ctdma_region(channel, "ctdma", steps=4)
    assert frontier.points == ((0.0, 0.0),)


def test_region_unknown_variant(fig2):
    with pytest.raises(ValueError, match="variant"):
        ctdma_region(fig2, "bogus", steps=4)


def test_region_rejects_overflowing_budgets():
    # the shortest slot, 1/16 of the block, stretches p1 past the ceiling
    channel = ChannelParams(c12=1.9, c21=1.9, c1e=0.5, c2e=0.5, p1=1e149, p2=10.0)
    ctdma_region(channel, "ctdma", steps=2)
    with pytest.raises(ValueError, match="ceiling"):
        ctdma_region(channel, "ctdma", steps=17)


def test_region_matches_literal_enumeration(fig2, fig3):
    # the vectorized sweep must agree with merging every grid point
    for channel, variant in ((fig2, "ctdma"), (fig3, "ctdma_nscp")):
        fast = ctdma_region(channel, variant, steps=4)
        points = [ctdma_rates(channel, p) for p in ctdma_family(variant, channel, steps=4)]
        literal = pareto_merge([Frontier(points=_pareto_prune(points))])
        assert len(fast.points) == len(literal.points)
        for a, b in zip(fast.points, literal.points):
            assert a == pytest.approx(b, abs=1e-12)


gains = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
budgets = st.one_of(st.sampled_from([0.0, 1.0, 1e4]), st.floats(0.0, 20.0))
channels = st.builds(ChannelParams, gains, gains, gains, gains, budgets, budgets)


@settings(max_examples=150, deadline=None)
@given(channels, st.sampled_from(CTDMA_TAGS), st.integers(2, 7))
# many time splits, as in a fine ``tdma`` sweep
@example(ChannelParams(1.9, 1.9, 0.5, 0.5, 10.0, 10.0), "tdma", 40)
def test_region_matches_dense_pairing(channel, variant, steps):
    # the prefix-max lookup must pick exactly the pairs the dense mask picks
    fast = ctdma_region(channel, variant, steps=steps)
    dense = dense_pairing_region(channel, variant, steps)
    assert fast.points == dense.points
    # timing is the one metadata field the literal pairing does not have
    timing = fast.metadata.pop("timing")
    assert set(timing) == {"grid", "pair", "merge"}
    assert fast.metadata == dense.metadata


def test_best_partners_on_the_budget_boundary():
    # uses that meet a cap exactly pair up; any excess does not.  Slot-2
    # rates grow with both uses: row i uses used2_b[i], column j used1_b[j].
    # Rows 2 and 5 use the same and differ in rate; the table counts rows,
    # so the later, better one must be reached at the cap (last column).
    used2_b = np.array([0.5, 0.25, 0.625, 0.75, 0.0, 0.625])
    used1_b = np.array([0.25, 0.5, 0.75])
    bonus = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
    r2 = 40.0 * used2_b[:, None] + 4.0 * used1_b[None, :] + bonus[:, None]
    used1_a = np.array([0.5, 0.25, 0.75, 0.25 + 1e-9, 1.5])
    used2_a = np.array([0.5, 0.25, 0.0, 1.0 + 1e-9, 0.375])
    best = _best_partners(r2, used1_b, used2_b, used1_a, used2_a, 1.0, 1.0)
    assert best.tolist() == [
        [22.0, 32.0, 32.0, -np.inf, 29.0],
        [23.0, 33.0, 33.0, -np.inf, 30.0],
        [21.0, 31.0, 31.0, -np.inf, 28.0],
        [22.0, 32.0, 32.0, -np.inf, 29.0],
        [-np.inf, -np.inf, -np.inf, -np.inf, -np.inf],
    ]
    # the same pairs, tuple by tuple, as the dense mask over every pair
    dense = dense_best_partners(
        r2.ravel(), np.tile(used1_b, used2_b.size), np.repeat(used2_b, used1_b.size),
        np.repeat(used1_a, used2_a.size), np.tile(used2_a, used1_a.size), 1.0, 1.0,
    )
    assert np.array_equal(best.ravel(), dense)


def hex_points(frontier):
    return [(r1.hex(), r2.hex()) for r1, r2 in frontier.points]


@settings(max_examples=60, deadline=None)
@given(
    st.builds(ChannelParams, gains, gains, gains, gains,
              st.sampled_from([0.0, 1e-3, 10.0, 1e4]), st.sampled_from([0.0, 1e-3, 10.0, 1e4])),
    st.sampled_from(CTDMA_TAGS),
    st.integers(2, 17),
)
def test_region_matches_rowwise_pairing_bit_for_bit(channel, variant, steps):
    # the factored grids and the per-split record cut give the row-wise
    # pairing's frontier exactly
    fast = ctdma_region(channel, variant, steps=steps)
    rowwise = rowwise_ctdma_region(channel, variant, steps)
    assert hex_points(fast) == hex_points(rowwise)


def test_region_ties_between_splits_resolve_as_rowwise():
    # with no power every split reaches the one point (0, 0), so each
    # split's record cut keeps a copy of it, and the global prune must
    # resolve the tie as the row-wise pairing does
    silent = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=0.0, p2=0.0)
    for variant in CTDMA_TAGS:
        fast = ctdma_region(silent, variant, steps=5)
        assert fast.points == ((0.0, 0.0),)
        assert hex_points(fast) == hex_points(rowwise_ctdma_region(silent, variant, 5))


def test_region_matches_dense_pairing_on_presets(fig2, fig3):
    for channel in (fig2, fig3):
        for variant in CTDMA_TAGS:
            fast = ctdma_region(channel, variant, steps=9)
            assert fast.points == dense_pairing_region(channel, variant, 9).points


def test_variant_tdma_is_time_sharing_only(fig2):
    for params in ctdma_family("tdma", fig2, steps=4):
        assert params.p1j1 == params.p2j1 == params.p2j2 == params.p1j2 == 0.0


def test_variant_nscp_never_jams_own_slot(fig3):
    saw_helper_jam = False
    for params in ctdma_family("ctdma_nscp", fig3, steps=4):
        assert params.p1j1 == 0.0 and params.p2j2 == 0.0
        saw_helper_jam |= params.p2j1 > 0 or params.p1j2 > 0
    assert saw_helper_jam


def test_variant_parameter_nesting(fig2):
    tdma = set(ctdma_family("tdma", fig2, steps=3))
    nscp = set(ctdma_family("ctdma_nscp", fig2, steps=3))
    full = set(ctdma_family("ctdma", fig2, steps=3))
    assert tdma < nscp < full


def test_variant_family_binning_grids():
    states = single_power_states("ncp", (10.0, 10.0), 3)
    assert len(states) == 9
    seen = set()
    for state in states:
        assert state.pj1 == state.pj2 == 0.0
        seen.add((state.pc1, state.pc2))
    assert seen == {(a, b) for a in (0.0, 5.0, 10.0) for b in (0.0, 5.0, 10.0)}


def test_variant_family_exclusive_binning_or_jamming():
    states = single_power_states("borcp", (10.0, 10.0), 3)
    assert all(s.pc1 == 0 or s.pj1 == 0 for s in states)
    assert all(s.pc2 == 0 or s.pj2 == 0 for s in states)
    assert any(s.pc1 == 5.0 and s.pj1 == 0.0 for s in states)
    r3_states = single_power_states("r3", (10.0, 10.0), 3)
    assert any(s.pc1 == 5.0 and s.pj1 == 5.0 for s in r3_states)
    assert set(states) < set(r3_states)


def test_variant_family_unknown_tag():
    with pytest.raises(ValueError, match="tag"):
        single_power_states("nope", (10.0, 10.0), 3)


@pytest.mark.parametrize("tag, steps", [("full", 30), ("borcp", 1000), ("r3", 1000)])
def test_user_power_grid_builds_no_row_past_the_cap(tag, steps):
    # building a user's grid costs a few times the grid itself, not the
    # steps ** 4 (full) or steps ** 2 (the others) candidate rows
    tracemalloc.start()
    try:
        grid = user_power_grid(tag, 10.0, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * grid.nbytes + 2**20


def test_binning_grid_respects_budget_cap():
    for state in single_power_states("r3", (10.0, 4.0), 5):
        assert state.pc1 + state.pj1 <= 10.0 + 1e-9
        assert state.pc2 + state.pj2 <= 4.0 + 1e-9


def test_dominance_chain_at_equal_grids(fig2, fig3):
    for channel in (fig2, fig3):
        tdma = ctdma_region(channel, "tdma", steps=5)
        nscp = ctdma_region(channel, "ctdma_nscp", steps=5)
        full = ctdma_region(channel, "ctdma", steps=5)
        assert dominates(nscp, tdma, tol=1e-9)
        assert dominates(full, nscp, tol=1e-9)


def test_symmetric_channel_symmetric_region(fig2):
    frontier = ctdma_region(fig2, "ctdma", steps=6)
    for k in range(41):
        theta = 0.5 * math.pi * k / 40
        assert support(frontier, theta) == pytest.approx(
            support(frontier, 0.5 * math.pi - theta), abs=1e-9
        )


def test_helper_jamming_hurts_on_symmetric_channel(fig2):
    # cross gain toward the receiver (1.9) beats the eavesdropper gain (0.5),
    # so slot-1 jamming by user 2 only degrades user 1's rate
    levels = np.linspace(0.0, 10.0, 21)
    rates = [
        ctdma_rates(fig2, CtdmaParams(alpha=1.0, p1b=10.0, p2j1=t))[0]
        for t in levels
    ]
    assert all(b < a for a, b in zip(rates, rates[1:]) if a > 0)
    assert all(b <= a for a, b in zip(rates, rates[1:]))
    assert rates[0] == max(rates)


def test_helper_jamming_helps_on_asymmetric_channel(fig3):
    base = ctdma_rates(fig3, CtdmaParams(alpha=1.0, p1b=10.0))[0]
    jammed = ctdma_rates(fig3, CtdmaParams(alpha=1.0, p1b=10.0, p2j1=0.88))[0]
    assert jammed > base + 0.05


def test_ctdma_allocation_round_trip(fig2):
    params = CtdmaParams(alpha=0.4, p1b=20.0, p1j1=2.0, p2j1=1.0,
                         p2b=12.0, p2j2=0.5, p1j2=1.0)
    assert params.budget_violation(fig2) is None
    weights, (s1, s2) = alloc = ctdma_allocation(params)
    assert is_valid(fig2, *alloc)
    assert weights[0] == pytest.approx(0.4)
    assert s1[1] == 20.0 and s1[7] == 1.0
    assert s2[5] == 12.0 and s2[3] == 1.0
