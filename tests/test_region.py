import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gicee import (
    ChannelParams,
    PowerState,
    RateSystem,
    RegionSpec,
    TimeSharedAllocation,
    build_system,
    conditional_mi_timeshared,
    lp_solve,
    mi_covariance_oracle,
    preset,
    region_for_allocation,
    region_union,
    validate_allocation,
)
import gicee.region as region
from gicee.polytope import FEASIBILITY_TOL, _Tableau
from gicee.region import (
    A_UB,
    EQ_ROW,
    N_VARS,
    R1_OBJECTIVE,
    R2_OBJECTIVE,
    SCREEN_MARGIN,
    _BOUNDS,
    _CAP_ORDER,
    _CAP_STARTS,
    _PARTITION_BLOCKS,
    _RX_COL,
    _allocation_arrays,
    _family_allocations,
    bound_rows,
    certified_infeasible,
    randomization_cover,
)
from gicee.schemes import ctdma_allocation
from conftest import random_state, sample_nonneg_bracket_params, single

GAMMA_10 = 1.7297158093186487
GAMMA_20 = 2.1961587113893803
GAMMA_21 = 2.2297158093186487
# max r2 of the asymmetric preset under the (pc1=10, pc2=1) allocation,
# cross-checked against an independent LP solver.
R2MAX_ASYM = 0.3294815410824665


def test_system_shape_is_fixed(fig2):
    rng = np.random.default_rng(1)
    for _ in range(5):
        alloc = single(random_state(rng, fig2.p1, fig2.p2))
        system = build_system(fig2, alloc)
        assert system.n_inequalities == 92
        assert system.n_equalities == 1
        assert system.dim == N_VARS


def test_rows_are_subset_indicators(fig3):
    system = build_system(fig3, single(PowerState(pc1=3.0, pj2=1.0)))
    assert set(np.unique(system.a_ub)) <= {0.0, 1.0}
    assert np.all(system.b_ub >= 0.0)
    # eavesdropper rows touch only randomization-rate columns
    rx_cols = sorted(_RX_COL.values())
    eve_rows = system.a_ub[30:]
    msg_cols = [c for c in range(N_VARS) if c not in rx_cols]
    assert np.all(eve_rows[:, msg_cols] == 0.0)


def test_all_zero_powers_pin_origin(fig2):
    system = build_system(fig2, single(PowerState()))
    assert np.all(system.b_ub == 0.0)
    res = lp_solve(system, R1_OBJECTIVE + R2_OBJECTIVE)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_full_power_asymmetric_is_infeasible(fig3):
    alloc = single(PowerState(pc1=10.0, pc2=10.0))
    system = build_system(fig3, alloc)
    # the saturation equality demands more total randomization than the
    # receiver-side pair bound allows
    assert system.b_eq[0] == pytest.approx(GAMMA_21, abs=1e-12)
    pair_row = np.zeros(N_VARS)
    pair_row[[0, 1, 5, 6]] = 1.0
    idx = next(
        i for i, row in enumerate(system.a_ub) if np.array_equal(row, pair_row)
    )
    assert system.b_ub[idx] == pytest.approx(GAMMA_20, abs=1e-12)
    assert region_for_allocation(fig3, alloc).is_empty


def test_invalid_allocation_propagates(fig2):
    with pytest.raises(ValueError, match="budget"):
        build_system(fig2, single(PowerState(pc1=11.0)))


def test_asymmetric_cooperative_binning_point(fig3):
    frontier = region_for_allocation(fig3, single(PowerState(pc1=10.0, pc2=1.0)))
    best_r1, best_r2 = frontier.points[0]
    assert best_r2 == pytest.approx(R2MAX_ASYM, abs=1e-9)
    assert best_r1 <= 1e-9


def test_no_eavesdropper_recovers_plain_rate():
    channel = ChannelParams(c12=1.9, c21=1.9, c1e=0.0, c2e=0.0, p1=10.0, p2=10.0)
    frontier = region_for_allocation(channel, single(PowerState(pc1=10.0)))
    assert frontier.max_r1 == pytest.approx(GAMMA_10, abs=1e-9)


def test_zero_allocation_origin_frontier(fig2):
    frontier = region_for_allocation(fig2, single(PowerState()))
    assert frontier.points == ((0.0, 0.0),)


def test_region_spec_validation(fig2):
    with pytest.raises(ValueError, match="variant"):
        RegionSpec(channel=fig2, variant="bogus")
    with pytest.raises(ValueError, match="steps"):
        RegionSpec(channel=fig2, steps=1)
    with pytest.raises(ValueError, match="states"):
        RegionSpec(channel=fig2, states=0)


def test_union_of_zero_budget_channel():
    channel = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=0.0, p2=0.0)
    spec = RegionSpec(channel=channel, variant="r3", steps=3)
    frontier = region_union(spec)
    assert frontier.points == ((0.0, 0.0),)
    assert frontier.metadata["allocations"] == 1


def test_union_nesting_ncp_inside_r3(fig2):
    ncp = region_union(RegionSpec(channel=fig2, variant="ncp", steps=4))
    r3 = region_union(RegionSpec(channel=fig2, variant="r3", steps=4))
    assert r3.dominates(ncp, tol=1e-9)


def test_union_nesting_r3_inside_full(fig2):
    r3 = region_union(RegionSpec(channel=fig2, variant="r3", steps=3))
    full = region_union(RegionSpec(channel=fig2, variant="full", steps=3))
    assert full.metadata["allocations"] > r3.metadata["allocations"]
    assert full.dominates(r3, tol=1e-9)


def test_feasible_points_saturate_randomization_total(fig2, fig3):
    # the equality row keeps the summed dummy rates pinned to the
    # eavesdropper's full observation at every optimum
    rx_cols = sorted(_RX_COL.values())
    cases = [
        (fig2, PowerState(pc1=6.0, pj1=1.0, pc2=4.0)),
        (fig3, PowerState(pc1=10.0, pc2=1.0)),
    ]
    rng = np.random.default_rng(31)
    for channel, state in cases:
        system = build_system(channel, single(state))
        for _ in range(6):
            objective = rng.uniform(0.0, 1.0, N_VARS)
            res = lp_solve(system, objective)
            assert res.status == "optimal"
            assert sum(res.x[c] for c in rx_cols) == pytest.approx(
                system.b_eq[0], abs=1e-9
            )


def test_union_symmetric_channel_symmetric_frontier(fig2):
    frontier = region_union(
        RegionSpec(channel=fig2, variant="r3", steps=4)
    )
    for k in range(33):
        theta = 0.5 * math.pi * k / 32
        mirrored = 0.5 * math.pi - theta
        assert frontier.support(theta) == pytest.approx(
            frontier.support(mirrored), abs=1e-9
        )


def test_union_metadata_counts(fig3):
    spec = RegionSpec(channel=fig3, variant="ncp", steps=3)
    frontier = region_union(spec)
    assert frontier.metadata["allocations"] == 9
    assert 0 <= frontier.metadata["infeasible_allocations"] <= 9


def test_union_worker_count_invariance(fig2):
    spec = RegionSpec(channel=fig2, variant="ncp", steps=7)
    serial = region_union(spec, workers=1)
    parallel = region_union(spec, workers=2)
    assert serial.points == parallel.points


def test_multi_state_search_runs(fig2):
    spec = RegionSpec(
        channel=fig2, variant="ncp", steps=3, states=2, weight_steps=3,
    )
    frontier = region_union(spec)
    assert not frontier.is_empty
    assert frontier.max_r1 > 0.1


def test_time_division_points_feasible_in_general_system(fig2, fig3):
    # operating points of the closed-form scheme must embed into the
    # 10-variable system built from their two-state allocation
    rng = np.random.default_rng(17)
    for channel in (fig2, fig3):
        samples = sample_nonneg_bracket_params(rng, channel, 10)
        assert len(samples) == 10
        for params, a1, b1, a2, b2 in samples:
            alpha = params.alpha
            system = build_system(channel, ctdma_allocation(params))
            x = np.zeros(N_VARS)
            x[2] = alpha * (a1 - b1)          # self-message rate, user 1
            x[3] = alpha * b1                 # its randomization rate
            x[7] = (1 - alpha) * (a2 - b2)    # self-message rate, user 2
            x[8] = (1 - alpha) * b2
            assert system.check_point(x) >= -1e-9


def test_timeshared_union_bounds_match_manual_average(fig2):
    rng = np.random.default_rng(23)
    s1 = random_state(rng, fig2.p1, fig2.p2)
    s2 = random_state(rng, fig2.p1, fig2.p2)
    alloc = TimeSharedAllocation(states=((0.3, s1), (0.7, s2)))
    system = build_system(fig2, alloc)
    sys1 = build_system(fig2, single(s1))
    sys2 = build_system(fig2, single(s2))
    assert np.allclose(system.b_ub, 0.3 * sys1.b_ub + 0.7 * sys2.b_ub, atol=1e-12)
    assert np.allclose(system.b_eq, 0.3 * sys1.b_eq + 0.7 * sys2.b_eq, atol=1e-12)


gains = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
budgets = st.one_of(st.sampled_from([0.0, 1.0, 1e4]), st.floats(0.0, 20.0))


@st.composite
def channel_and_allocations(draw):
    """A channel and 1-5 allocations sharing a state count of 1-4; every
    state spends at most each user's budget, split by drawn shares."""
    channel = draw(st.builds(ChannelParams, gains, gains, gains, gains, budgets, budgets))
    k = draw(st.integers(1, 4))
    shares = st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)

    def state():
        s = np.array(draw(shares))
        u1 = s[:4] / max(s[:4].sum(), 1.0) * channel.p1
        u2 = s[4:] / max(s[4:].sum(), 1.0) * channel.p2
        return PowerState(*u1, *u2)

    allocations = [
        TimeSharedAllocation(tuple(
            (draw(st.floats(0.01, 1.0)), state()) for _ in range(k)
        ))
        for _ in range(draw(st.integers(1, 5)))
    ]
    return channel, allocations


# At SNR ~1e4 the covariance oracle once lost 1.3e-12 to cancellation in
# its Schur complement (receiver y2, subset {C1, S2}).
HIGH_SNR = (
    ChannelParams(2.0, 0.0, 0.0, 0.0, 1e4, 0.0),
    [single(PowerState(pc1=7500.0))],
)


@settings(max_examples=60, deadline=None)
@given(channel_and_allocations())
@example(HIGH_SNR)
def test_bound_rows_match_scalar_mi(case):
    channel, allocations = case
    block = bound_rows(channel, *_allocation_arrays(allocations))
    assert block.shape == (len(allocations), 93)
    for alloc, row in zip(allocations, block):
        # the row of an allocation does not depend on the rest of its block
        assert np.array_equal(bound_rows(channel, *_allocation_arrays([alloc]))[0], row)
        for value, (receiver, subset) in zip(row, _BOUNDS):
            scalar = conditional_mi_timeshared(channel, alloc, receiver, subset)
            assert abs(value - scalar) <= 1e-14
            if len(alloc.states) == 1:
                oracle = mi_covariance_oracle(channel, alloc.states[0][1], receiver, subset)
                assert abs(value - oracle) <= 1e-12
        if validate_allocation(channel, alloc).ok:
            system = build_system(channel, alloc)
            assert np.array_equal(system.a_ub, A_UB)
            assert np.array_equal(system.a_eq, EQ_ROW[np.newaxis, :])
            assert np.array_equal(np.append(system.b_ub, system.b_eq), row)


def test_screen_tables():
    # each proper nonempty subset of the six components owns a contiguous
    # run of inequality rows, all with exactly that subset
    masks = [sum(1 << (int(i) - 1) for i in subset) for _, subset in _BOUNDS[:-1]]
    runs = np.split(_CAP_ORDER, _CAP_STARTS[1:])
    assert len(runs) == 62
    for mask, rows in enumerate(runs, start=1):
        assert rows.size and all(masks[row] == mask for row in rows)
    # 203 set partitions of six items (Bell number), less the single block
    assert _PARTITION_BLOCKS.shape == (202, 6)
    seen = set()
    for blocks in _PARTITION_BLOCKS:
        bits = [int(b) + 1 for b in blocks if b < 62]
        assert len(bits) >= 2 and sum(bits) == 63
        assert all(a & b == 0 for k, a in enumerate(bits) for b in bits[k + 1:])
        seen.add(frozenset(bits))
    assert len(seen) == 202


def phase1_feasible(bounds):
    system = RateSystem(a_ub=A_UB, b_ub=bounds[:-1],
                        a_eq=EQ_ROW[np.newaxis, :], b_eq=bounds[-1:])
    return _Tableau(system).phase1(FEASIBILITY_TOL)


@settings(max_examples=80, deadline=None)
@given(channel_and_allocations())
def test_screen_is_sound(case):
    channel, allocations = case
    allocations = [a for a in allocations if validate_allocation(channel, a).ok]
    if not allocations:
        return
    block = bound_rows(channel, *_allocation_arrays(allocations))
    cover = randomization_cover(block)
    for alloc, bounds, value, screened in zip(
        allocations, block, cover, certified_infeasible(block)
    ):
        # weak duality: the cover bounds the total randomization rate the
        # inequalities allow
        most = lp_solve(RateSystem(a_ub=A_UB, b_ub=bounds[:-1]), EQ_ROW)
        assert most.status == "optimal"
        assert value >= most.value - 1e-9
        if screened:
            assert not phase1_feasible(bounds)
            assert region_for_allocation(channel, alloc).is_empty


@pytest.mark.parametrize("preset_name, variant, steps, states, certified", [
    ("fig3", "r3", 11, 1, 3054),
    ("fig2", "r3", 11, 1, 2914),
    ("fig3", "r3", 3, 2, 247),    # the two-state mixtures of the timeshare-fig3 grid
    ("fig2", "borcp", 11, 1, 180),
    ("fig3", "full", 3, 1, 158),
    ("fig3", "full", 2, 2, 40),
])
def test_screen_certifies_every_phase1_infeasible_grid_allocation(
    preset_name, variant, steps, states, certified
):
    channel = preset(preset_name)
    spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states)
    allocations = _family_allocations(spec)
    block = bound_rows(channel, *_allocation_arrays(allocations))
    screened = certified_infeasible(block)
    feasible = np.array([phase1_feasible(bounds) for bounds in block])
    assert np.array_equal(screened, ~feasible)
    assert screened.sum() == certified


@pytest.mark.parametrize("preset_name, variant, steps, states", [
    ("fig3", "r3", 6, 1),
    ("fig2", "borcp", 5, 1),
    ("fig3", "r3", 2, 2),
])
def test_screen_leaves_the_union_unchanged(monkeypatch, preset_name, variant, steps, states):
    spec = RegionSpec(channel=preset(preset_name), variant=variant, steps=steps,
                      states=states, weight_steps=3)
    screened = region_union(spec, workers=1)
    monkeypatch.setattr(region, "certified_infeasible",
                        lambda block: np.zeros(len(block), dtype=bool))
    unscreened = region_union(spec, workers=1)
    assert screened.points == unscreened.points
    meta = screened.metadata
    assert meta["infeasible_allocations"] == unscreened.metadata["infeasible_allocations"]
    assert 0 < meta["screened_allocations"] <= meta["infeasible_allocations"]
    assert unscreened.metadata["screened_allocations"] == 0


def test_screen_margin_keeps_borderline_allocations_for_phase1(fig3):
    alloc = single(PowerState(pc1=10.0, pc2=10.0))
    bounds = bound_rows(fig3, *_allocation_arrays([alloc]))
    assert certified_infeasible(bounds)[0]
    # lift the equality bound to just inside the margin over the cover:
    # not certified, so phase 1 decides
    cover = randomization_cover(bounds)[0]
    bounds[0, -1] = cover + 0.5 * SCREEN_MARGIN
    assert not certified_infeasible(bounds)[0]
