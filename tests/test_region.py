import math
import sys
from dataclasses import astuple, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import gicee.model as model
from gicee import (
    ChannelParams,
    PowerState,
    RegionSpec,
    SolverFailure,
    build_system,
    lp_solve,
    mi_covariance_oracle,
    preset,
    region_for_allocation,
    region_union,
)
import gicee.polytope as polytope
import gicee.region as region
from gicee.model import BUDGET_TOL
from gicee.polytope import (
    FEASIBILITY_TOL,
    Frontier,
    _Tableau,
    pareto_merge,
    project_frontier,
    time_share,
)
from gicee.region import (
    A_UB,
    EQ_ROW,
    MAX_ALLOCATIONS,
    N_VARS,
    R1_OBJECTIVE,
    R2_OBJECTIVE,
    VARIANTS,
    _BOUNDS,
    _RX_COL,
    _family_allocations,
    bound_rows,
    grid_size,
)
from gicee.gaussmi import SignalIndex
from gicee.grid import _uniform_grid, user_power_grid
from conftest import (
    allocation,
    allocation_system,
    check_point,
    check_recipes,
    conditional_mi_timeshared,
    ctdma_allocation,
    dominates,
    is_valid,
    pin,
    random_state,
    sample_nonneg_bracket_params,
    single,
    support,
)

def without_timing(metadata):
    """Metadata or a sidecar minus its nondeterministic ``timing`` block."""
    return {key: value for key, value in metadata.items() if key != "timing"}


ODD_BUDGETS = ChannelParams(c12=1.3, c21=0.7, c1e=0.4, c2e=0.9, p1=7.3, p2=0.1)
ZERO_BUDGET = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=0.0, p2=3.0)
ZERO_GAINS = ChannelParams(c12=0.0, c21=0.0, c1e=0.0, c2e=0.0, p1=10.0, p2=10.0)
BIG_BUDGET = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=1e6, p2=7.3)
# drawn channels whose `full` steps-3 masters restart (_Tableau.restart):
# after a refactor fails as an optimum is confirmed, and after a refactor
# fails as columns enter
RESTART_OPTIMIZE = ChannelParams(c12=2.8061114280589416, c21=2.0890250901490424,
                                 c1e=2.914165490040352, c2e=0.2661643245688674,
                                 p1=1.0, p2=10000.0)
RESTART_APPEND = ChannelParams(c12=0.36667129852080127, c21=0.4622523321400944,
                               c1e=0.9039351375826399, c2e=0.4439283758182192, p1=1e4, p2=0.01)
# a drawn channel whose master restarted when the ends of the frontier were
# lexicographic solves, after a refactor failed on a corner's optimal face
RESTART_FACE = ChannelParams(c12=2.0289643211701187, c21=1.1699224840373468,
                             c1e=0.03855827510231513, c2e=2.5985785781846884, p1=0.01, p2=1.0)
# drawn channels whose masters never ended, confirming one optimum after
# another (`full` steps 3), and stalled under Harris's rule alone until
# Bland's rule took over (`full` steps 2, states 2)
CONFIRM_CYCLE = ChannelParams(c12=0.7606444280072819, c21=2.974496878582743,
                              c1e=1.8158768234664509, c2e=2.850203567286078,
                              p1=0.846996581137931, p2=1e6)
HARRIS_STALL = ChannelParams(c12=1.5857477975616279, c21=0.4954969467246435,
                             c1e=2.0409955333021474, c2e=0.6792107599673199,
                             p1=1e4, p2=10.09303607057203)
# a drawn 1e6-budget channel on which the master's rounding once led it
# astray on a corner's optimal face (`full` steps 3)
ASTRAY_FACE = ChannelParams(c12=0.6814205929522703, c21=2.229007133086246,
                            c1e=0.8580923816779529, c2e=0.0, p1=1e6, p2=1.0)
UNION_CHANNELS = {"fig2": preset("fig2"), "fig3": preset("fig3"),
                  "zero-gains": ZERO_GAINS, "odd-budgets": ODD_BUDGETS,
                  "zero-budget": ZERO_BUDGET, "big-budget": BIG_BUDGET,
                  "restart-optimize": RESTART_OPTIMIZE, "restart-face": RESTART_FACE,
                  "restart-append": RESTART_APPEND, "confirm-cycle": CONFIRM_CYCLE,
                  "harris-stall": HARRIS_STALL, "astray-face": ASTRAY_FACE}
# grids of the degenerate channels: every allocation of the zero-gains
# ones reaches the same point, so all of them tie
DEGENERATE_GRIDS = [(name, variant, steps, states) for name in ("zero-gains", "odd-budgets")
                    for variant, steps, states in (("r3", 11, 1), ("full", 3, 1), ("r3", 3, 2))]


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
        assert build_system(fig2, *alloc).shape == (93,)
    assert A_UB.shape == (92, N_VARS)
    assert EQ_ROW.shape == (N_VARS,)


def test_rows_are_subset_indicators(fig3):
    rhs = build_system(fig3, *single(PowerState(pc1=3.0, pj2=1.0)))
    assert set(np.unique(A_UB)) <= {0.0, 1.0}
    assert np.all(rhs[:-1] >= 0.0)
    # eavesdropper rows touch only randomization-rate columns
    rx_cols = sorted(_RX_COL.values())
    eve_rows = A_UB[30:]
    msg_cols = [c for c in range(N_VARS) if c not in rx_cols]
    assert np.all(eve_rows[:, msg_cols] == 0.0)


def test_all_zero_powers_pin_origin(fig2):
    system = allocation_system(fig2, *single(PowerState()))
    assert np.all(system[2][:-1] == 0.0)
    res = lp_solve(*system, R1_OBJECTIVE + R2_OBJECTIVE)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_full_power_asymmetric_is_infeasible(fig3):
    alloc = single(PowerState(pc1=10.0, pc2=10.0))
    rhs = build_system(fig3, *alloc)
    # the saturation equality demands more total randomization than the
    # receiver-side pair bound allows
    assert rhs[-1] == pytest.approx(GAMMA_21, abs=1e-12)
    pair_row = np.zeros(N_VARS)
    pair_row[[0, 1, 5, 6]] = 1.0
    idx = next(
        i for i, row in enumerate(A_UB) if np.array_equal(row, pair_row)
    )
    assert rhs[idx] == pytest.approx(GAMMA_20, abs=1e-12)
    assert region_for_allocation(fig3, *alloc).is_empty


def test_invalid_allocation_propagates(fig2):
    with pytest.raises(ValueError, match="budget"):
        build_system(fig2, *single(PowerState(pc1=11.0)))


def test_asymmetric_cooperative_binning_point(fig3):
    frontier = region_for_allocation(fig3, *single(PowerState(pc1=10.0, pc2=1.0)))
    best_r1, best_r2 = frontier.points[0]
    assert best_r2 == pytest.approx(R2MAX_ASYM, abs=1e-9)
    assert best_r1 <= 1e-9


def test_no_eavesdropper_recovers_plain_rate():
    channel = ChannelParams(c12=1.9, c21=1.9, c1e=0.0, c2e=0.0, p1=10.0, p2=10.0)
    frontier = region_for_allocation(channel, *single(PowerState(pc1=10.0)))
    assert frontier.max_r1 == pytest.approx(GAMMA_10, abs=1e-9)


def test_zero_allocation_origin_frontier(fig2):
    frontier = region_for_allocation(fig2, *single(PowerState()))
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
    assert dominates(r3, ncp, tol=1e-9)


def test_union_nesting_r3_inside_full(fig2):
    r3 = region_union(RegionSpec(channel=fig2, variant="r3", steps=3))
    full = region_union(RegionSpec(channel=fig2, variant="full", steps=3))
    assert full.metadata["allocations"] > r3.metadata["allocations"]
    assert dominates(full, r3, tol=1e-9)


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
        system = allocation_system(channel, *single(state))
        for _ in range(6):
            objective = rng.uniform(0.0, 1.0, N_VARS)
            res = lp_solve(*system, objective)
            assert res.status == "optimal"
            assert sum(res.x[c] for c in rx_cols) == pytest.approx(
                system[2][-1], abs=1e-9
            )


def test_union_symmetric_channel_symmetric_frontier(fig2):
    frontier = region_union(
        RegionSpec(channel=fig2, variant="r3", steps=4)
    )
    for k in range(33):
        theta = 0.5 * math.pi * k / 32
        mirrored = 0.5 * math.pi - theta
        assert support(frontier, theta) == pytest.approx(
            support(frontier, mirrored), abs=1e-9
        )


def test_union_metadata_counts(fig3):
    spec = RegionSpec(channel=fig3, variant="ncp", steps=3)
    frontier = region_union(spec)
    assert frontier.metadata["allocations"] == 9
    lp = frontier.metadata["lp"]
    assert set(lp) == {"rounds", "columns", "pivots"}
    assert 1 <= lp["columns"] <= 9 and lp["rounds"] >= 1 and lp["pivots"] >= 1


@pytest.mark.parametrize("channel_name, variant, steps, states", [
    ("fig2", "ncp", 7, 1),
    ("fig3", "r3", 11, 1),
    ("fig3", "r3", 3, 2),
] + DEGENERATE_GRIDS)
def test_union_is_deterministic(monkeypatch, channel_name, variant, steps, states):
    # a second call gives the same points and metadata, and so does a call
    # that meets the grid in reverse order: pricing breaks ties by the
    # states' powers, not their place in the grid
    spec = RegionSpec(channel=UNION_CHANNELS[channel_name], variant=variant, steps=steps,
                      states=states)
    first, second = region_union(spec), region_union(spec)
    assert first.points == second.points
    # timing is the one field that may differ between runs
    assert without_timing(first.metadata) == without_timing(second.metadata)
    forward = region._family_allocations
    monkeypatch.setattr(region, "_family_allocations", lambda spec: forward(spec)[::-1])
    backward = region_union(spec)
    assert backward.points == first.points
    assert without_timing(backward.metadata) == without_timing(first.metadata)


def test_multi_state_search_runs(fig2):
    spec = RegionSpec(channel=fig2, variant="ncp", steps=3, states=2)
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
            system = allocation_system(channel, *ctdma_allocation(params))
            x = np.zeros(N_VARS)
            x[2] = alpha * (a1 - b1)          # self-message rate, user 1
            x[3] = alpha * b1                 # its randomization rate
            x[7] = (1 - alpha) * (a2 - b2)    # self-message rate, user 2
            x[8] = (1 - alpha) * b2
            assert check_point(*system, x) >= -1e-9


def test_timeshared_union_bounds_match_manual_average(fig2):
    rng = np.random.default_rng(23)
    s1 = random_state(rng, fig2.p1, fig2.p2)
    s2 = random_state(rng, fig2.p1, fig2.p2)
    rhs = build_system(fig2, *allocation((0.3, s1), (0.7, s2)))
    rhs1 = build_system(fig2, *single(s1))
    rhs2 = build_system(fig2, *single(s2))
    assert np.allclose(rhs, 0.3 * rhs1 + 0.7 * rhs2, atol=1e-12)


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
        allocation(*((draw(st.floats(0.01, 1.0)), state()) for _ in range(k)))
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
    powers = np.array([state for _, states in allocations for state in states])
    block = bound_rows(channel, powers)
    assert block.shape == (len(powers), 93)
    for state, row in zip(powers, block):
        # the row of a state does not depend on the rest of its block
        assert np.array_equal(bound_rows(channel, state[np.newaxis])[0], row)
    for weights, states in allocations:
        # the time-shared bounds, as the sweeps once averaged them
        averaged = timeshared_bound_rows(channel, weights, states)
        for value, (receiver, subset) in zip(averaged, _BOUNDS):
            scalar = conditional_mi_timeshared(channel, weights, states, receiver, subset)
            assert abs(value - scalar) <= 1e-14
            if len(states) == 1:
                oracle = mi_covariance_oracle(channel, PowerState(*states[0]), receiver, subset)
                assert abs(value - oracle) <= 1e-12
        if len(states) == 1:
            row = bound_rows(channel, np.array(states))[0]
            assert np.array_equal(row.view(np.uint64), averaged.view(np.uint64))
        if is_valid(channel, weights, states):
            # build_system averages its states' rows in the same order,
            # bit for bit
            rhs = build_system(channel, weights, states)
            assert np.array_equal(rhs.view(np.uint64), averaged.view(np.uint64))


def phase1_feasible(bounds):
    return _Tableau(A_UB, EQ_ROW[np.newaxis, :], bounds).phase1(FEASIBILITY_TOL)


# Grids and the number of their states phase 1 finds infeasible alone.
PHASE1_GRIDS = [
    ("fig3", "r3", 11, 1, 3054),
    ("fig2", "r3", 11, 1, 2914),
    ("fig3", "r3", 3, 2, 27),     # the timeshare-fig3 grid
    ("fig2", "borcp", 11, 1, 180),
    ("fig3", "full", 3, 1, 158),
    ("fig3", "full", 2, 2, 28),
]


@pytest.mark.parametrize("preset_name, variant, steps, states, infeasible", PHASE1_GRIDS)
def test_shared_projector_decides_feasibility_like_phase1(
    preset_name, variant, steps, states, infeasible
):
    # every state of the grid, as a master of its one column, has no
    # vertex exactly when phase 1 finds it infeasible alone, and that
    # master neither prices nor grows
    channel = preset(preset_name)
    spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states)
    block = bound_rows(channel, _family_allocations(spec))
    empty = []
    for bounds in block:
        vertices, _, counts = one_column(bounds)
        empty.append(not vertices)
        assert counts["columns"] == 1 and counts["rounds"] == 0
    assert np.array_equal(empty, [not phase1_feasible(bounds) for bounds in block])
    assert sum(empty) == infeasible


@st.composite
def allocation_sequences(draw):
    """A channel and 2-8 allocations of 1-4 states, each the powers of one
    drawn set of states scaled down by its own factor, so that neighbours
    share optimal bases, or else drawn afresh."""
    channel, allocations = draw(channel_and_allocations())
    weights, states = allocations[0]
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            factor = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0))
            allocations.append((weights, [[factor * v for v in state] for state in states]))
    return channel, allocations


@settings(max_examples=80, deadline=None)
@given(allocation_sequences())
def test_shared_projector_matches_cold_projections(case):
    # each system's frontier, projected on its own, has as its support the
    # optimum a cold lp_solve finds, and is empty exactly when lp_solve
    # finds the system infeasible
    channel, allocations = case
    for alloc in allocations:
        if not is_valid(channel, *alloc):
            continue
        system = allocation_system(channel, *alloc)
        frontier = project_frontier(*system, R1_OBJECTIVE, R2_OBJECTIVE)
        for theta in np.linspace(0.0, 0.5 * math.pi, 5):
            res = lp_solve(*system, math.cos(theta) * R1_OBJECTIVE + math.sin(theta) * R2_OBJECTIVE)
            assert res.status == ("infeasible" if frontier.is_empty else "optimal")
            if not frontier.is_empty:
                assert support(frontier, theta) == pytest.approx(res.value, abs=1e-9)


def one_column(bounds, usage=np.zeros((1, 0)), caps=np.zeros(0), matrix=A_UB):
    """The master of :func:`time_share` over the one right-hand side
    ``bounds`` (93,) of the `full` rows, as :func:`project_frontier` runs
    it: its vertices, recipes and counts."""
    read = lambda at, columns: (bounds if columns is None else bounds[columns])[np.newaxis]
    return time_share(matrix, EQ_ROW[np.newaxis, :], read, R1_OBJECTIVE, R2_OBJECTIVE,
                      usage, caps, 0, bounds[np.newaxis])


def grid_steps(variant, steps, states):
    """A drawn step count cut down to a small grid of the variant."""
    return min(steps, 2 if variant == "full" and states > 1 else 3 if variant == "full" else 4)


@settings(max_examples=25, deadline=None)
@given(st.builds(ChannelParams, gains, gains, gains, gains, budgets, budgets),
       st.sampled_from(VARIANTS), st.integers(2, 4), st.integers(1, 2),
       st.randoms(use_true_random=False))
def test_union_search_does_not_depend_on_row_order(channel, variant, steps, states, random):
    # the master over the grid in a drawn order gives the same vertices,
    # bit for bit, and the same work and recipes: every choice of the
    # search depends on the states' values
    spec = RegionSpec(channel=channel, variant=variant, steps=grid_steps(variant, steps, states),
                      states=states)
    expected = region_union(spec)
    grid = _family_allocations(spec)
    order = list(range(len(grid)))
    random.shuffle(order)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(region, "_family_allocations", lambda spec: grid[order])
        shuffled = region_union(spec)
    assert shuffled.points == expected.points
    assert without_timing(shuffled.metadata) == without_timing(expected.metadata)


@settings(max_examples=40, deadline=None)
@given(st.builds(ChannelParams, gains, gains, gains, gains, budgets, budgets),
       st.sampled_from(VARIANTS), st.integers(2, 4), st.integers(1, 2))
# the frontier of this grid has an edge of slope about -1e11, next to which
# a vertical gap would multiply a rounding of r1 by the slope
@example(ChannelParams(0.0, 1.0, 0.5, 1e-15, 1.0, 10000.0), "full", 2, 2)
# the frontier of this grid has a vertical edge, whose lower end (0.5,
# 3.6e-9) the search must find beside the upper one
@example(ChannelParams(0.0, 1e-12, 0.0, 0.0, 1.0, 10000.0), "full", 2, 1)
def test_union_search_equals_per_row_oracle(channel, variant, steps, states):
    # the master over small grids on drawn channels holds the region of
    # every in-budget grid state, each projected alone and merged, and
    # equals unlimited time sharing over every state's bound row (HiGHS)
    spec = RegionSpec(channel=channel, variant=variant, steps=grid_steps(variant, steps, states),
                      states=states)
    union = region_union(spec)
    assert not union.is_empty   # the zero-power state is always feasible
    assert dominates(union, per_allocation_union(spec), tol=1e-9)
    thetas = check_angles(union)
    assert np.abs(supports(union, thetas) - highs_supports(spec, thetas)).max() <= 1e-9


@pytest.mark.parametrize("preset_name, variant, steps, states, infeasible", PHASE1_GRIDS)
def test_union_search_decides_feasibility_like_phase1(
    preset_name, variant, steps, states, infeasible
):
    # phase 1 agrees with every frontier point of the master: the system
    # its recipe averages, with the point pinned by two equality rows, is
    # feasible; recipes may use states that are infeasible alone
    channel = preset(preset_name)
    spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states)
    frontier = region_union(spec)
    vertices = frontier.metadata["vertices"]
    assert [tuple(v["point"]) for v in vertices] == list(frontier.points)
    check_recipes(channel, _family_allocations(spec), vertices)
    for vertex in vertices:
        system = pin(allocation_system(channel, vertex["weights"], vertex["states"]),
                     [R1_OBJECTIVE, R2_OBJECTIVE], vertex["point"])
        assert lp_solve(*system, np.zeros(N_VARS)).status == "optimal"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_projector_rejects_non_finite_bounds(monkeypatch, fig3, bad):
    # a non-finite bound never reaches a tableau, whether it is in the one
    # column of a projection or in a bound column that pricing reads
    good = bound_rows(fig3, np.array([astuple(PowerState(pc1=10.0, pc2=1.0))]))[0]
    assert one_column(good)[0]
    for at in (0, 45, len(good) - 1):
        bounds = good.copy()
        bounds[at] = bad
        with pytest.raises(ValueError, match="finite"):
            one_column(bounds)
    real = region.bound_rows

    def poisoned(channel, powers, columns=None):
        rows = real(channel, powers, columns)
        rows[(powers == (10.0, 0, 0, 0, 1.0, 0, 0, 0)).all(axis=1)] = bad
        return rows

    monkeypatch.setattr(region, "bound_rows", poisoned)
    with pytest.raises(ValueError, match="finite"):
        region_union(RegionSpec(channel=fig3, variant="ncp", steps=11))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_projector_rejects_non_finite_matrix_and_resources(fig3, bad):
    # the master's tableau is built from arrays, so the matrix and the
    # resource rows (caps less the first column's use) are checked there
    good = bound_rows(fig3, np.array([astuple(PowerState(pc1=10.0, pc2=1.0))]))[0]
    assert one_column(good, np.zeros((1, 2)), np.array([10.0, 10.0]))[0]
    for usage, caps in (([[bad, 0.0]], [10.0, 10.0]), ([[0.0, 0.0]], [10.0, bad])):
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            one_column(good, np.array(usage), np.array(caps))
    matrix = A_UB.copy()
    matrix[3, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        one_column(good, matrix=matrix)


def test_union_builds_no_objects_per_allocation(monkeypatch, fig3):
    # the sweep carries the grid as one array: no PowerState or validation
    # per state, and no Frontier per state: the vertices make one, the
    # merge another
    built = {"PowerState": 0, "Frontier": 0, "validate": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            built[key] += 1
            return fn(*args, **kwargs)
        return counted

    for cls in (PowerState, Frontier):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    for module in (model, region):
        monkeypatch.setattr(module, "validate_allocation",
                            counting("validate", module.validate_allocation))
    frontier = region_union(RegionSpec(channel=fig3, variant="r3", steps=11))
    assert frontier.metadata["allocations"] == 4356
    assert built == {"PowerState": 0, "Frontier": 2, "validate": 0}


def test_union_lp_counts(fig3):
    # fig3 r3 steps 11: the master takes 37 of the 4356 states in 10
    # pricing rounds, over the 8 live rows and 4 live rates
    frontier = region_union(RegionSpec(channel=fig3, variant="r3", steps=11))
    assert frontier.metadata["lp"] == {"rounds": 10, "columns": 37, "pivots": 28}


@pytest.mark.parametrize("steps, states, solves", [(11, 1, (10, 10)), (3, 2, (5, 4))])
def test_refactor_skips_an_unchanged_basis(monkeypatch, fig3, steps, states, solves):
    # with no pivot and no column since its last solve, refactor() keeps
    # that solve's rows, which are what solving again would give: no more
    # solves (fewer where an objective ends on the basis that the one
    # before it confirmed), the same vertices bit for bit and the same lp
    # counts
    real_solve, refactor, calls = np.linalg.solve, _Tableau.refactor, []

    def counted(*args):
        calls.append(None)
        return real_solve(*args)

    def always(tableau):
        tableau.solved = None
        return refactor(tableau)

    monkeypatch.setattr(np.linalg, "solve", counted)
    spec = RegionSpec(channel=fig3, variant="r3", steps=steps, states=states)
    runs = []
    for method in (always, refactor):
        monkeypatch.setattr(_Tableau, "refactor", method)
        calls.clear()
        union = region_union(spec)
        runs.append((len(calls), union.points, union.metadata["lp"],
                     union.metadata["vertices"]))
    (every, *before), (skipping, *after) = runs
    assert (every, skipping) == solves
    assert before == after


def in_budget(channel, grid):
    """Which states of a grid, (n, 8) powers, spend within both budgets."""
    return ((((grid[:, 0] + grid[:, 1]) + grid[:, 2]) + grid[:, 3] <= channel.p1 + BUDGET_TOL)
            & (((grid[:, 4] + grid[:, 5]) + grid[:, 6]) + grid[:, 7] <= channel.p2 + BUDGET_TOL))


def per_allocation_union(spec):
    """The region of every in-budget grid state, each projected alone,
    then ``pareto_merge`` of them all; the master must contain it."""
    grid = _family_allocations(spec)
    block = bound_rows(spec.channel, grid[in_budget(spec.channel, grid)])
    return pareto_merge([
        project_frontier(A_UB, EQ_ROW[np.newaxis, :], row, R1_OBJECTIVE, R2_OBJECTIVE)
        for row in block])


def highs_supports(spec, thetas):
    """Support at each angle of unlimited time sharing over the spec's
    grid, solved as one LP over every state by scipy HiGHS (oracle for
    ``region_union``): rates and one weight per state, the averaged bounds
    and powers, and weights that sum to one."""
    powers = _family_allocations(spec)
    rows, n = bound_rows(spec.channel, powers), len(powers)
    used = np.stack([((powers[:, 0] + powers[:, 1]) + powers[:, 2]) + powers[:, 3],
                     ((powers[:, 4] + powers[:, 5]) + powers[:, 6]) + powers[:, 7]])
    # power rows in units of the budget, and tolerances below HiGHS's 1e-7
    # defaults: unscaled, a budget of 1e4 moved its optimum by 9e-8
    budgets = np.array([spec.channel.p1, spec.channel.p2])
    unit = np.where(budgets > 0.0, budgets, 1.0)
    a_ub = np.block([[A_UB, -rows[:, :-1].T], [np.zeros((2, N_VARS)), used / unit[:, None]]])
    b_ub = np.concatenate([np.zeros(len(A_UB)), budgets / unit])
    a_eq = np.block([[EQ_ROW[np.newaxis], -rows[:, -1:].T],
                     [np.zeros((1, N_VARS)), np.ones((1, n))]])
    values = []
    for theta in thetas:
        c = np.append(math.cos(theta) * R1_OBJECTIVE + math.sin(theta) * R2_OBJECTIVE,
                      np.zeros(n))
        res = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[0.0, 1.0],
                      bounds=(0, None), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        assert res.status == 0
        values.append(-res.fun)
    return np.array(values)


def check_angles(frontier):
    """Angles that pin a convex frontier: both axes, the normal of every
    edge, and between each two of those one inside a vertex's normal
    cone.  A region with the same support at all of them is the same."""
    normals = [math.atan2(b[0] - a[0], a[1] - b[1])
               for a, b in zip(frontier.points, frontier.points[1:])]
    angles = sorted({0.0, 0.5 * math.pi, *normals})
    return angles + [0.5 * (a + b) for a, b in zip(angles, angles[1:])]


def supports(frontier, thetas):
    return np.array([support(frontier, theta) for theta in thetas])


UNION_GRIDS = (
    [grid[:4] for grid in PHASE1_GRIDS]
    + [("fig2", "full", 3, 1)]
    + [(name, variant, {1: 5, 2: 3, 3: 2}[states], states)
       for name in ("fig2", "fig3") for variant in ("r3", "borcp", "ncp")
       for states in (1, 2, 3)]
    + DEGENERATE_GRIDS
    + [("fig3", "full", 2, 3)]
    + [(name, variant, steps, states) for name in ("zero-budget", "big-budget")
       for variant, steps, states in (("r3", 5, 1), ("full", 2, 1), ("r3", 3, 2), ("ncp", 3, 3))]
    + [("restart-optimize", "full", 3, 1), ("restart-face", "full", 3, 1),
       ("restart-append", "full", 3, 1), ("confirm-cycle", "full", 3, 1),
       ("harris-stall", "full", 2, 2), ("astray-face", "full", 3, 1)]
)


@pytest.mark.parametrize("channel_name, variant, steps, states", UNION_GRIDS)
def test_pooled_union_equals_per_allocation_union(channel_name, variant, steps, states):
    # the master over the grid equals unlimited time sharing over every
    # allocation's bound row, one LP solved by scipy HiGHS: the same support
    # at every angle that pins the master's frontier.  Every state of the
    # grid that is within budget alone is one choice of weights, so the
    # master also holds each one's own region
    spec = RegionSpec(channel=UNION_CHANNELS[channel_name], variant=variant, steps=steps,
                      states=states)
    union = region_union(spec)
    thetas = check_angles(union)
    assert np.abs(supports(union, thetas) - highs_supports(spec, thetas)).max() <= 1e-9
    assert dominates(union, per_allocation_union(spec), tol=1e-9)


@pytest.mark.parametrize("channel_name, caller", [("restart-optimize", "_optimize"),
                                                  ("restart-append", "append")])
def test_restart_grids_restart(monkeypatch, channel_name, caller):
    # the restart grids of test_pooled_union_equals_per_allocation_union
    # take the recovery paths they are there for; under other pivot rules
    # they may not, and other grids must be drawn
    restart, callers = _Tableau.restart, []

    def counted(tableau):
        callers.append(sys._getframe(1).f_code.co_name)
        restart(tableau)

    monkeypatch.setattr(_Tableau, "restart", counted)
    region_union(RegionSpec(channel=UNION_CHANNELS[channel_name], variant="full", steps=3))
    assert callers == [caller]


def test_bland_rule_ends_a_stall_of_harris_rule(monkeypatch):
    # the harris-stall grid of test_pooled_union_equals_per_allocation_union
    # needs the fallback to Bland's rule: without it the simplex stalls
    spec = RegionSpec(channel=HARRIS_STALL, variant="full", steps=2, states=2)
    assert not region_union(spec).is_empty
    monkeypatch.setattr(polytope, "_STALL", 10**9)
    with pytest.raises(SolverFailure, match="stalled"):
        region_union(spec)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("states", [1, 2, 3])
def test_family_allocations_are_within_budget(fig2, fig3, variant, states):
    # span k's states spend at most k times each budget, so every grid
    # state spends at most ``states`` times it; the first spends nothing,
    # and none repeats
    for channel in (fig2, fig3, ODD_BUDGETS, ZERO_BUDGET):
        stretched = replace(channel, p1=states * channel.p1, p2=states * channel.p2)
        for steps in family_step_sizes(variant, states):
            spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states)
            grid = _family_allocations(spec)
            assert grid.shape[1:] == (8,) and len(grid) and not grid[0].any()
            assert len(np.unique(grid, axis=0)) == len(grid)
            assert all(is_valid(stretched, [1.0], [a]) for a in grid.tolist())


def unique_family_allocations(spec):
    """The grid as the sweep built it before: every span's states
    concatenated, each kept where it first appears by a sort of all of
    them."""
    grids = []
    for span in range(1, spec.states + 1):
        user1, user2 = (user_power_grid(spec.variant, span * budget, spec.steps)
                        for budget in (spec.channel.p1, spec.channel.p2))
        grids.append(np.concatenate(
            [np.repeat(user1, len(user2), axis=0), np.tile(user2, (len(user1), 1))], axis=1))
    if len(grids) == 1:
        return grids[0]
    states = np.concatenate(grids)
    _, first = np.unique(states, axis=0, return_index=True)
    return states[np.sort(first)]


# budgets so small that their grid pitch is subnormal: a span's grid then
# repeats a level, and so a row (the other budget is 0, so that `full`
# grids, where every level fits under the tolerance, stay small)
SUBNORMAL_BUDGETS = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=5e-324, p2=0.0)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("states", [1, 2, 3, 4])
def test_family_allocations_match_the_sorted_deduplication(fig2, fig3, variant, states):
    # the repeats found per user are the repeats a sort of every state finds:
    # same rows, same order, same bits
    for channel in (fig2, fig3, ODD_BUDGETS, ZERO_BUDGET, TINY_BUDGET, SUBNORMAL_BUDGETS):
        for steps in range(2, 7):
            spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states)
            expected = unique_family_allocations(spec)
            got = _family_allocations(spec)
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def object_user_grid(variant, cap, steps):
    """One user's (pc, ps, po, pj) grid tuples, as the sweep first built them."""
    if variant == "full":
        grid = tuple(np.linspace(0.0, cap, steps)) if cap > 0 else (0.0,)
        return [q for q in product(grid, repeat=4) if sum(q) <= cap + BUDGET_TOL]
    pj_grid = (0.0,) if variant == "ncp" else _uniform_grid(cap, steps)
    return [(pc, 0.0, 0.0, pj) for pc in _uniform_grid(cap, steps) for pj in pj_grid
            if not pc + pj > cap + BUDGET_TOL
            and not (variant == "borcp" and pc > 0 and pj > 0)]


def object_family_allocations(spec):
    """The grid one object per state: the PowerStates of every span's
    per-user grids, user 1's slowest, each kept where it first appears (as
    ``bench/make_refs.py`` builds the upper reference's grid); returned in
    the sweep's array form, (n, 8)."""
    grid = {}
    for span in range(1, spec.states + 1):
        user1, user2 = (object_user_grid(spec.variant, span * budget, spec.steps)
                        for budget in (spec.channel.p1, spec.channel.p2))
        for a in user1:
            for b in user2:
                grid.setdefault(PowerState(*a, *b), None)
    return np.array([astuple(s) for s in grid])


def family_step_sizes(variant, states):
    if variant == "full":
        return (2, 3) if states == 1 else (2,)
    return {1: (3, 11), 2: (2, 3), 3: (2,), 4: (2,)}[states]


TINY_BUDGET = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=1e-13, p2=0.0)
# fig3's gains with user 2 silent: one user's grid alone, so a finer
# ``full`` grid stays small
ONE_BUDGET = ChannelParams(c12=1.9, c21=1.0, c1e=0.5, c2e=1.6, p1=10.0, p2=0.0)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("states", [1, 2, 3, 4])
def test_family_allocations_match_object_enumeration(fig2, fig3, variant, states):
    # same states, same order, same bits as the object-based builder
    for channel in (fig2, fig3, ODD_BUDGETS, ZERO_BUDGET, TINY_BUDGET, ONE_BUDGET):
        finer = (8,) if channel is ONE_BUDGET and variant == "full" else ()
        for steps in family_step_sizes(variant, states) + finer:
            spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states)
            expected = object_family_allocations(spec)
            got = _family_allocations(spec)
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("variant", VARIANTS)
def test_user_power_grid_matches_object_grid(variant):
    # same rows, same order, same bits as the literal loop over every
    # candidate, from a zero cap to a huge one
    for cap in (0.0, 1e-13, 0.1, 7.3, 10.0, 1e6):
        for steps in range(2, 8 if variant == "full" else 41):
            expected = np.array(object_user_grid(variant, cap, steps)).reshape(-1, 4)
            got = user_power_grid(variant, cap, steps)
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def eight_column_bound_rows(channel, powers):
    """``bound_rows`` summing all 8 power columns, zero or not (oracle for
    its skipping of the powers that are zero throughout a block)."""
    numerator_map, floor_map = region._power_maps(channel)
    numerator = np.zeros((len(powers), len(_BOUNDS)))
    floor = np.ones_like(numerator)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(8):
            column = powers[:, p, np.newaxis]
            numerator += column * numerator_map[p]
            floor += column * floor_map[p]
        return 0.5 * np.log1p(numerator / floor) / region._LN2


def timeshared_bound_rows(channel, weights, powers):
    """The time-shared bounds of one allocation, (93,), as the sweeps once
    computed them for blocks of allocations: its states as a (1, k, 9)
    array of a weight and the 8 powers, every state's rates weighted and
    summed over the states' axis (oracle for ``build_system``)."""
    allocations = np.array([[(w, *p) for w, p in zip(weights, powers)]])
    numerator_map, floor_map = region._power_maps(channel)
    numerator = np.zeros(allocations.shape[:2] + (len(_BOUNDS),))
    floor = np.ones_like(numerator)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in np.flatnonzero(allocations[:, :, 1:].any(axis=(0, 1))):
            column = allocations[:, :, p + 1, np.newaxis]
            numerator += column * numerator_map[p]
            floor += column * floor_map[p]
        rates = 0.5 * np.log1p(numerator / floor) / region._LN2
        return (allocations[:, :, :1] * rates).sum(axis=1)[0]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("states", [1, 2])
def test_bound_rows_equal_the_eight_column_sum(fig2, fig3, variant, states):
    # r3, borcp and ncp grids never use the self and other powers, and a
    # zero budget silences a user: skipping those columns changes no bit
    for channel in (fig2, fig3, ODD_BUDGETS, ZERO_BUDGET):
        spec = RegionSpec(channel=channel, variant=variant, steps=3, states=states)
        allocations = _family_allocations(spec)
        for block in (allocations, allocations[:1], allocations[-7:]):
            expected = eight_column_bound_rows(channel, block)
            assert np.array_equal(bound_rows(channel, block).view(np.uint64),
                                  expected.view(np.uint64))
    # a power column that is -0.0 throughout is skipped as well
    signed = _family_allocations(RegionSpec(channel=fig3, variant="r3", steps=3))
    signed[:, 1] = -0.0
    assert np.array_equal(bound_rows(fig3, signed).view(np.uint64),
                          eight_column_bound_rows(fig3, signed).view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(st.builds(ChannelParams, gains, gains, gains, gains, budgets, budgets),
       st.sampled_from(VARIANTS), st.integers(2, 4), st.integers(1, 2))
@example(ZERO_GAINS, "r3", 4, 2)
@example(ZERO_BUDGET, "borcp", 4, 1)
@example(ZERO_BUDGET, "full", 2, 2)
def test_live_rows_hold_every_bound(channel, variant, steps, states):
    # the master's bound columns are the matching columns of all 93, bit
    # for bit; every row it leaves out has the bound of its live part (the
    # same receiver's row over the subset's live components, the equality
    # for the eavesdropper's whole live set, 0 where none is live), and
    # each rate it leaves out is in a row of bound 0
    spec = RegionSpec(channel=channel, variant=variant, steps=grid_steps(variant, steps, states),
                      states=states)
    powers = _family_allocations(spec)
    every = bound_rows(channel, powers)
    live = region.LIVE[variant]
    columns, rates = region._live_system(live)
    assert np.array_equal(bound_rows(channel, powers, columns).view(np.uint64),
                          every[:, columns].view(np.uint64))
    index = {bound: k for k, bound in enumerate(_BOUNDS)}
    silent = []
    for k, (receiver, subset) in enumerate(_BOUNDS):
        if k in columns:
            continue
        part = tuple(i for i in subset if i in live)
        if not part:
            expected = np.zeros(len(powers))
            silent.append(k)
        elif receiver == "ye" and set(part) == live:
            expected = every[:, -1]
        else:
            expected = every[:, index[(receiver, part)]]
        assert np.array_equal(every[:, k].view(np.uint64), expected.view(np.uint64))
    assert set(np.flatnonzero(A_UB[silent].any(axis=0))) >= set(range(N_VARS)) - set(rates)


@pytest.mark.parametrize("channel_name, variant, steps, states",
                         [grid for grid in UNION_GRIDS if grid[1] != "full"])
def test_live_master_equals_the_full_master(monkeypatch, channel_name, variant, steps, states):
    # the master over the live rows has the vertices of the master over
    # all 92 rows and 10 rates, which it is when every component is live
    spec = RegionSpec(channel=UNION_CHANNELS[channel_name], variant=variant, steps=steps,
                      states=states)
    live = region_union(spec)
    monkeypatch.setitem(region.LIVE, variant, frozenset(SignalIndex))
    every = region_union(spec)
    assert len(region._live_system(region.LIVE[variant])[0]) == len(_BOUNDS)
    assert len(live.points) == len(every.points)
    assert np.abs(np.subtract(live.points, every.points)).max() <= 1e-12


@pytest.mark.parametrize("channel", [
    preset("fig2"),
    preset("fig3"),
    ODD_BUDGETS,
    ZERO_BUDGET,
    ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=1e-13, p2=2e-13),
    ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=1e6, p2=7.3),
])
def test_grid_size_counts_the_enumerated_allocations(channel):
    for variant in VARIANTS:
        for steps in (2, 3) if variant == "full" else (2, 3, 5, 11, 17):
            spec = RegionSpec(channel=channel, variant=variant, steps=steps)
            assert grid_size(spec) == len(_family_allocations(spec))
        # with more states: the grids of every span added up, before the
        # states two spans share are dropped
        steps = 2 if variant == "full" else 3
        for states in (2, 3):
            spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states)
            spans = [len(_family_allocations(RegionSpec(
                channel=replace(channel, p1=k * channel.p1, p2=k * channel.p2),
                variant=variant, steps=steps))) for k in range(1, states + 1)]
            assert grid_size(spec) == sum(spans) >= len(_family_allocations(spec))


def test_region_spec_caps_the_grid(fig3):
    # r3 holds (steps (steps + 1) / 2) ** 2 states per span: 990 ** 2 at
    # steps 44 and 1035 ** 2 at steps 45; two spans count twice that,
    # 2 * 703 ** 2 at steps 37 and 2 * 741 ** 2 at steps 38
    assert grid_size(RegionSpec(channel=fig3, steps=44)) == 990 ** 2 <= MAX_ALLOCATIONS
    spec = RegionSpec(channel=fig3, steps=37, states=2)
    assert grid_size(spec) == 2 * 703 ** 2 <= MAX_ALLOCATIONS
    for steps, states in ((45, 1), (38, 2), (10**9, 1), (10**30, 1), (10**6, 4)):
        with pytest.raises(ValueError, match="states"):
            RegionSpec(channel=fig3, steps=steps, states=states)
    # zero budgets leave one state however fine the grid
    still = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=0.0, p2=0.0)
    spec = RegionSpec(channel=still, variant="full", steps=10**9)
    assert grid_size(spec) == len(_family_allocations(spec)) == 1
