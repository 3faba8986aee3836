import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gicee import (
    ChannelParams,
    PowerState,
    RegionSpec,
    TimeSharedAllocation,
    build_system,
    conditional_mi_timeshared,
    lp_solve,
    mi_covariance_oracle,
    region_for_allocation,
    region_union,
    validate_allocation,
)
from gicee.region import (
    A_UB,
    EQ_ROW,
    N_VARS,
    R1_OBJECTIVE,
    R2_OBJECTIVE,
    _BOUNDS,
    _RX_COL,
    _allocation_arrays,
    bound_rows,
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
    assert region_for_allocation(fig3, alloc, 8).is_empty


def test_invalid_allocation_propagates(fig2):
    with pytest.raises(ValueError, match="budget"):
        build_system(fig2, single(PowerState(pc1=11.0)))


def test_asymmetric_cooperative_binning_point(fig3):
    frontier = region_for_allocation(fig3, single(PowerState(pc1=10.0, pc2=1.0)), 16)
    best_r1, best_r2 = frontier.points[0]
    assert best_r2 == pytest.approx(R2MAX_ASYM, abs=1e-9)
    assert best_r1 <= 1e-9


def test_no_eavesdropper_recovers_plain_rate():
    channel = ChannelParams(c12=1.9, c21=1.9, c1e=0.0, c2e=0.0, p1=10.0, p2=10.0)
    frontier = region_for_allocation(channel, single(PowerState(pc1=10.0)), 8)
    assert frontier.max_r1 == pytest.approx(GAMMA_10, abs=1e-9)


def test_zero_allocation_origin_frontier(fig2):
    frontier = region_for_allocation(fig2, single(PowerState()), 8)
    assert frontier.points == ((0.0, 0.0),)


def test_region_spec_validation(fig2):
    with pytest.raises(ValueError, match="variant"):
        RegionSpec(channel=fig2, variant="bogus")
    with pytest.raises(ValueError, match="steps"):
        RegionSpec(channel=fig2, steps=1)
    with pytest.raises(ValueError, match="directions"):
        RegionSpec(channel=fig2, directions=2)
    with pytest.raises(ValueError, match="states"):
        RegionSpec(channel=fig2, states=0)


def test_union_of_zero_budget_channel():
    channel = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=0.0, p2=0.0)
    spec = RegionSpec(channel=channel, variant="r3", steps=3, directions=8)
    frontier = region_union(spec)
    assert frontier.points == ((0.0, 0.0),)
    assert frontier.metadata["allocations"] == 1


def test_union_nesting_ncp_inside_r3(fig2):
    ncp = region_union(RegionSpec(channel=fig2, variant="ncp", steps=4, directions=8))
    r3 = region_union(RegionSpec(channel=fig2, variant="r3", steps=4, directions=8))
    assert r3.dominates(ncp, tol=1e-9)


def test_union_nesting_r3_inside_full(fig2):
    r3 = region_union(RegionSpec(channel=fig2, variant="r3", steps=3, directions=8))
    full = region_union(RegionSpec(channel=fig2, variant="full", steps=3, directions=8))
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
        RegionSpec(channel=fig2, variant="r3", steps=4, directions=8)
    )
    for k in range(33):
        theta = 0.5 * math.pi * k / 32
        mirrored = 0.5 * math.pi - theta
        assert frontier.support(theta) == pytest.approx(
            frontier.support(mirrored), abs=1e-9
        )


def test_union_metadata_counts(fig3):
    spec = RegionSpec(channel=fig3, variant="ncp", steps=3, directions=8)
    frontier = region_union(spec)
    assert frontier.metadata["allocations"] == 9
    assert 0 <= frontier.metadata["infeasible_allocations"] <= 9


def test_union_worker_count_invariance(fig2):
    spec = RegionSpec(channel=fig2, variant="ncp", steps=7, directions=8)
    serial = region_union(spec, workers=1)
    parallel = region_union(spec, workers=2)
    assert serial.points == parallel.points


def test_multi_state_search_runs(fig2):
    spec = RegionSpec(
        channel=fig2, variant="ncp", steps=3, directions=8,
        states=2, weight_steps=3,
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


@settings(max_examples=60, deadline=None)
@given(channel_and_allocations())
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
