import math
from dataclasses import astuple, replace
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gicee.model as model
from gicee import (
    ChannelParams,
    PowerState,
    RateSystem,
    RegionSpec,
    TimeSharedAllocation,
    build_system,
    lp_solve,
    mi_covariance_oracle,
    preset,
    region_for_allocation,
    region_union,
    validate_allocation,
)
import gicee.region as region
from gicee.model import BUDGET_TOL
import gicee.polytope as polytope
from gicee.polytope import (
    BASIS_TOL,
    FEASIBILITY_TOL,
    Frontier,
    Projector,
    _pareto_prune,
    _Tableau,
    pareto_merge,
    project_frontier,
)
from gicee.region import (
    A_UB,
    EQ_ROW,
    MAX_ALLOCATIONS,
    N_VARS,
    R1_OBJECTIVE,
    R2_OBJECTIVE,
    SCREEN_MARGIN,
    VARIANTS,
    _BOUNDS,
    _CAP_ORDER,
    _CAP_STARTS,
    _PARTITION_BLOCKS,
    _RX_COL,
    _allocation_arrays,
    _family_allocations,
    _weight_grid,
    bound_rows,
    certified_infeasible,
    grid_size,
    randomization_cover,
)
from gicee.schemes import _uniform_grid
from conftest import (
    check_point,
    conditional_mi_timeshared,
    ctdma_allocation,
    dominates,
    random_state,
    sample_nonneg_bracket_params,
    single,
    support,
)

def stack(allocations):
    """The sweeps' (n, k, 9) array form of allocations that all have k states."""
    return np.concatenate([_allocation_arrays(a) for a in allocations])


def to_allocation(row):
    """The allocation of one (k, 9) row of an allocation array."""
    return TimeSharedAllocation(tuple((w, PowerState(*p)) for w, *p in row.tolist()))


def without_timing(metadata):
    """Metadata or a sidecar minus its nondeterministic ``timing`` block."""
    return {key: value for key, value in metadata.items() if key != "timing"}


ODD_BUDGETS = ChannelParams(c12=1.3, c21=0.7, c1e=0.4, c2e=0.9, p1=7.3, p2=0.1)
ZERO_BUDGET = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=0.0, p2=3.0)
ZERO_GAINS = ChannelParams(c12=0.0, c21=0.0, c1e=0.0, c2e=0.0, p1=10.0, p2=10.0)
UNION_CHANNELS = {"fig2": preset("fig2"), "fig3": preset("fig3"),
                  "zero-gains": ZERO_GAINS, "odd-budgets": ODD_BUDGETS}
# grids of the degenerate channels: every allocation of the zero-gains
# ones reaches the same point, so all of them tie
DEGENERATE_GRIDS = [(name, variant, steps, states) for name in ("zero-gains", "odd-budgets")
                    for variant, steps, states in (("r3", 11, 1), ("full", 3, 1), ("r3", 3, 2))]


def csv_rows(points):
    """The lines the CLI writes for frontier points."""
    return [f"{r1:.9g},{r2:.9g}" for r1, r2 in points]


def assert_counts_are_nested(metadata):
    """screened <= infeasible <= examined <= allocations."""
    assert (0 <= metadata["screened_allocations"] <= metadata["infeasible_allocations"]
            <= metadata["examined_allocations"] <= metadata["allocations"])


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
        assert support(frontier, theta) == pytest.approx(
            support(frontier, mirrored), abs=1e-9
        )


def test_union_metadata_counts(fig3):
    spec = RegionSpec(channel=fig3, variant="ncp", steps=3)
    frontier = region_union(spec)
    assert frontier.metadata["allocations"] == 9
    assert 0 <= frontier.metadata["infeasible_allocations"] <= 9


@pytest.mark.parametrize("channel_name, variant, steps, states", [
    ("fig2", "ncp", 7, 1),
    ("fig3", "r3", 11, 1),
    ("fig3", "r3", 3, 2),
] + DEGENERATE_GRIDS)
def test_union_is_deterministic(monkeypatch, channel_name, variant, steps, states):
    # the basis cache lives for one call: a second call, and a call that
    # meets the allocations in reverse order, merge the same points
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
    # every choice of the search depends on values, so it does the same
    # work whatever the order
    assert without_timing(backward.metadata) == without_timing(first.metadata)
    assert_counts_are_nested(first.metadata)


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
            assert check_point(system, x) >= -1e-9


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
    block = bound_rows(channel, stack(allocations))
    assert block.shape == (len(allocations), 93)
    for alloc, row in zip(allocations, block):
        # the row of an allocation does not depend on the rest of its block
        assert np.array_equal(bound_rows(channel, _allocation_arrays(alloc))[0], row)
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


def phase1_system(bounds):
    return RateSystem(a_ub=A_UB, b_ub=bounds[:-1],
                      a_eq=EQ_ROW[np.newaxis, :], b_eq=bounds[-1:])


def phase1_feasible(bounds):
    return _Tableau(phase1_system(bounds)).phase1(FEASIBILITY_TOL)


@settings(max_examples=80, deadline=None)
@given(channel_and_allocations())
def test_screen_is_sound(case):
    channel, allocations = case
    allocations = [a for a in allocations if validate_allocation(channel, a).ok]
    if not allocations:
        return
    block = bound_rows(channel, stack(allocations))
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


# Grids and the number of their allocations phase 1 finds infeasible.
PHASE1_GRIDS = [
    ("fig3", "r3", 11, 1, 3054),
    ("fig2", "r3", 11, 1, 2914),
    ("fig3", "r3", 3, 2, 247),    # the two-state mixtures of the timeshare-fig3 grid
    ("fig2", "borcp", 11, 1, 180),
    ("fig3", "full", 3, 1, 158),
    ("fig3", "full", 2, 2, 40),
]


@pytest.mark.parametrize("preset_name, variant, steps, states, certified", PHASE1_GRIDS)
def test_screen_certifies_every_phase1_infeasible_grid_allocation(
    preset_name, variant, steps, states, certified
):
    channel = preset(preset_name)
    spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states)
    block = bound_rows(channel, _family_allocations(spec))
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
    screened = region_union(spec)
    monkeypatch.setattr(region, "certified_infeasible",
                        lambda block: np.zeros(len(block), dtype=bool))
    unscreened = region_union(spec)
    assert screened.points == unscreened.points
    for metadata in (screened.metadata, unscreened.metadata):
        assert_counts_are_nested(metadata)
    assert unscreened.metadata["screened_allocations"] == 0


def test_screen_margin_keeps_borderline_allocations_for_phase1(fig3):
    alloc = single(PowerState(pc1=10.0, pc2=10.0))
    bounds = bound_rows(fig3, _allocation_arrays(alloc))
    assert certified_infeasible(bounds)[0]
    # lift the equality bound to just inside the margin over the cover:
    # not certified, so phase 1 decides
    cover = randomization_cover(bounds)[0]
    bounds[0, -1] = cover + 0.5 * SCREEN_MARGIN
    assert not certified_infeasible(bounds)[0]


@pytest.mark.parametrize("preset_name, variant, steps, states, certified", PHASE1_GRIDS)
def test_shared_projector_decides_feasibility_like_phase1(
    preset_name, variant, steps, states, certified
):
    # Every allocation of the grid, the screened ones too, goes through one
    # shared projector in grid order.  Its empty frontiers are exactly the
    # allocations the screen certifies, which the test above shows are
    # exactly the phase-1-infeasible ones.
    channel = preset(preset_name)
    spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states)
    block = bound_rows(channel, _family_allocations(spec))
    projector = Projector(A_UB, EQ_ROW[np.newaxis, :], R1_OBJECTIVE, R2_OBJECTIVE)
    empty = np.array([projector.project(bounds).is_empty for bounds in block])
    assert np.array_equal(empty, certified_infeasible(block))
    assert empty.sum() == certified
    # one phase 1 per infeasible allocation; the feasible ones mostly reuse
    assert projector.phase1_runs < certified + (len(block) - certified) // 2


@st.composite
def allocation_sequences(draw):
    """A channel and 2-8 allocations of 1-4 states, each the powers of one
    drawn set of states scaled down by its own factor, so that neighbours
    share optimal bases, or else drawn afresh."""
    channel, allocations = draw(channel_and_allocations())
    base = allocations[0]
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            factor = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0))
            allocations.append(TimeSharedAllocation(tuple(
                (w, PowerState(*(factor * v for v in astuple(state))))
                for w, state in base.states
            )))
    return channel, allocations


@settings(max_examples=80, deadline=None)
@given(allocation_sequences())
def test_shared_projector_matches_cold_projections(case):
    channel, allocations = case
    projector = Projector(A_UB, EQ_ROW[np.newaxis, :], R1_OBJECTIVE, R2_OBJECTIVE)
    for alloc in allocations:
        if not validate_allocation(channel, alloc).ok:
            continue
        system = build_system(channel, alloc)
        cold = project_frontier(system, R1_OBJECTIVE, R2_OBJECTIVE)
        shared = projector.project(np.append(system.b_ub, system.b_eq))
        assert shared.is_empty == cold.is_empty
        assert len(shared.points) == len(cold.points)
        assert np.abs(np.subtract(shared.points, cold.points)).max(initial=0.0) <= 1e-12


def fresh_projector():
    return Projector(A_UB, EQ_ROW[np.newaxis, :], R1_OBJECTIVE, R2_OBJECTIVE)


def test_cached_basis_answers_only_within_an_absolute_floor():
    # At bounds near 6.1 bits the first allocation's basis is infeasible by
    # 2.9e-12 for the second; a floor relative to the largest bound let it
    # answer the r1 corner 2.9e-12 short of the tableau's.
    channel = ChannelParams(c12=1.0, c21=0.0, c1e=0.0, c2e=0.0, p1=1e4, p2=0.0)
    projector = fresh_projector()
    for state in (PowerState(ps1=5000.0, po1=5000.0),
                  PowerState(pc1=0.01, ps1=0.01, po1=5000.0)):
        system = build_system(channel, single(state))
        cold = project_frontier(system, R1_OBJECTIVE, R2_OBJECTIVE)
        shared = projector.project(np.append(system.b_ub, system.b_eq))
        assert len(shared.points) == len(cold.points)
        assert np.abs(np.subtract(shared.points, cold.points)).max(initial=0.0) <= 1e-12


def search_rows(rows, screen=None):
    """One union search over the rows of an array on a fresh projector:
    its vertices, its allocation counts and its projector, and the
    indices of every whole row it read (the examined ones, some more than
    once)."""
    projector = fresh_projector()
    read = []

    def bounds(at, columns):
        if columns is None:
            read.extend(np.arange(len(rows))[at].tolist())
            return rows[at]
        return rows[at][:, columns]

    vertices, counts = projector.search(len(rows), bounds, screen)
    return vertices, counts, projector, read


def exact(points):
    """Points as hex strings, so that -0.0 and 0.0 differ."""
    return [tuple(float(v).hex() for v in point) for point in points]


@settings(max_examples=60, deadline=None)
@given(allocation_sequences(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_union_search_does_not_depend_on_row_order(case, copies, random):
    # the same rows in drawn orders give the same vertices, bit for bit,
    # and the same work: every choice of the search depends on values.
    # Scaled copies (c * b is solved by the bases that solve b) make rows
    # that share bases and tie on bounds.
    channel, allocations = case
    allocations = [a for a in allocations if validate_allocation(channel, a).ok]
    if not allocations:
        return
    rows = bound_rows(channel, stack(allocations))
    rows = np.concatenate([rows] + [rows[::-1] * (1.0 + 0.3 * c) for c in range(copies)])
    order = list(range(len(rows)))
    random.shuffle(order)
    vertices, counts, projector, read = search_rows(rows)
    for permuted in (rows[::-1], rows[order]):
        again, again_counts, again_projector, again_read = search_rows(permuted)
        assert exact(again) == exact(vertices)
        assert again_counts == counts and again_projector.counts == projector.counts
        assert len(again_read) == len(read)


def row_reader(rows):
    """The ``bounds`` callback of a search over the rows of an array."""
    return lambda at, columns: rows[at] if columns is None else rows[at][:, columns]


@settings(max_examples=60, deadline=None)
@given(allocation_sequences(), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_cached_bases_bound_every_allocation(case, w1, w2):
    # weak duality: every cached basis that passes an objective's stopping
    # test bounds that objective's optimum for every allocation, with its
    # margin, and meets it where the basis is feasible
    channel, allocations = case
    allocations = [a for a in allocations if validate_allocation(channel, a).ok]
    if not allocations:
        return
    rows = bound_rows(channel, stack(allocations))
    projector = fresh_projector()
    for row in rows:
        projector.project(row)
    union = polytope._Union(projector, len(rows), row_reader(rows), None)
    norm = math.hypot(w1, w2)
    for objective in ((None, 0), (None, 1), ((w1 / norm, w2 / norm), 0)):
        weights, corner = objective
        if weights is None:
            c = (R1_OBJECTIVE, R2_OBJECTIVE)[corner]
        else:
            c = weights[0] * R1_OBJECTIVE + weights[1] * R2_OBJECTIVE
        optima = [lp_solve(phase1_system(row), c) for row in rows]
        passing = np.flatnonzero(projector._passing(objective)).tolist()
        duals = projector._duals(objective)
        # the passing bases, then the covering rows' dual
        assert len(duals) == len(passing) + 1
        for k, (y, delta) in zip(passing + [None], duals):
            for row, bound, optimum in zip(rows, union.dual_bound(y, delta), optima):
                if optimum.status != "optimal":
                    continue
                # lp_solve's point satisfies the rows up to a residual r
                # (phase 1 accepts up to its tolerance), and weak duality
                # bounds it by y . (b + r)
                x = optimum.x
                residual = np.append(np.maximum(A_UB @ x - row[:-1], 0.0), EQ_ROW @ x - row[-1])
                assert bound + np.abs(y) @ np.abs(residual) >= optimum.value
                if k is not None and (projector._inverses[k] @ row).min() >= -BASIS_TOL:
                    assert bound - optimum.value <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.builds(ChannelParams, gains, gains, gains, gains, budgets, budgets),
       st.sampled_from(VARIANTS), st.integers(2, 4), st.integers(1, 2))
def test_union_search_equals_per_row_oracle(channel, variant, steps, states):
    # the union of small grids on drawn channels, against every allocation
    # projected alone and merged.  A cached basis answers a system when it
    # is feasible up to BASIS_TOL, so either side may read a point about
    # that far from the exact one (as in the shared-projector tests); and
    # the search reports no point within its tolerance of a chord
    steps = min(steps, 2 if variant == "full" and states > 1 else 3 if variant == "full" else 4)
    spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states,
                      weight_steps=3)
    union, expected = region_union(spec), per_allocation_union(spec)
    assert union.is_empty == expected.is_empty
    if not union.is_empty:
        assert union.max_r1 == pytest.approx(expected.max_r1, rel=0.0, abs=1e-12)
        assert union.max_r2 == pytest.approx(expected.max_r2, rel=0.0, abs=1e-12)
        assert dominates(union, expected, tol=1e-9)
        assert dominates(expected, union, tol=1e-12)


@pytest.mark.parametrize("preset_name, variant, steps, states, certified", PHASE1_GRIDS)
def test_union_search_decides_feasibility_like_phase1(
    preset_name, variant, steps, states, certified
):
    # test_shared_projector_decides_feasibility_like_phase1 for the union
    # search: without the screen, the rows it finds infeasible are those
    # of its examined rows that phase 1 finds infeasible (the screen's
    # verdicts, shown equal above), and its union is the screened one's
    channel = preset(preset_name)
    spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=states)
    block = bound_rows(channel, _family_allocations(spec))
    vertices, counts, projector, read = search_rows(block)
    examined = sorted(set(read))
    assert counts["screened"] == 0 and counts["examined"] == len(examined)
    assert counts["infeasible"] == certified_infeasible(block[examined]).sum()
    assert projector.phase1_runs <= counts["examined"]
    screened, screened_counts, _, screened_read = search_rows(block, certified_infeasible)
    assert screened_counts["screened"] + screened_counts["infeasible"] == (
        certified_infeasible(block[sorted(set(screened_read))]).sum())
    assert csv_rows(pareto_merge([Frontier(points=_pareto_prune(vertices))]).points) == (
        csv_rows(pareto_merge([Frontier(points=_pareto_prune(screened))]).points))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_projector_rejects_non_finite_bounds(monkeypatch, fig3, bad):
    # a cached basis must never turn a non-finite bound into a point
    good = bound_rows(fig3, _allocation_arrays(single(PowerState(pc1=10.0, pc2=1.0))))[0]
    projector = Projector(A_UB, EQ_ROW[np.newaxis, :], R1_OBJECTIVE, R2_OBJECTIVE)
    assert not projector.project(good).is_empty
    counts = projector.counts
    feasible = polytope._Union._feasible

    def finite_lookup(self, slots, rows, k):
        assert np.all(np.isfinite(rows)), "a non-finite bound reached the cache"
        return feasible(self, slots, rows, k)

    monkeypatch.setattr(polytope._Union, "_feasible", finite_lookup)
    for at in (0, 45, len(good) - 1):
        bounds = good.copy()
        bounds[at] = bad
        with pytest.raises(ValueError, match="finite"):
            projector.project(bounds)
        assert projector.counts == counts
        # in a union search, the bad value fails the search whether a bound
        # column or a whole row reads it: here its row ties with the good
        # ones, so the search examines it
        block = np.tile(good, (40, 1))
        block[23] = bounds
        with pytest.raises(ValueError, match="finite"):
            search_rows(block)


def test_union_builds_no_objects_per_allocation(monkeypatch, fig3):
    # the sweep carries allocations as one array: no PowerState,
    # TimeSharedAllocation or validation per allocation, a RateSystem only
    # where a tableau runs phase 1, and no Frontier per allocation: the
    # pooled vertices make one, the merge another
    built = {"PowerState": 0, "TimeSharedAllocation": 0, "RateSystem": 0, "Frontier": 0,
             "validate": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            built[key] += 1
            return fn(*args, **kwargs)
        return counted

    for cls in (PowerState, TimeSharedAllocation, RateSystem, Frontier):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    for module in (model, region):
        monkeypatch.setattr(module, "validate_allocation",
                            counting("validate", module.validate_allocation))
    frontier = region_union(RegionSpec(channel=fig3, variant="r3", steps=11))
    assert frontier.metadata["allocations"] == 4356
    phase1_runs = frontier.metadata["lp"]["phase1_runs"]
    assert built == {"PowerState": 0, "TimeSharedAllocation": 0,
                     "RateSystem": phase1_runs, "Frontier": 2, "validate": 0}


def test_union_lp_counts(fig3):
    # fig3 r3 steps 11: the union search examines 64 of the 4356
    # allocations, and the screen certifies half of those
    frontier = region_union(RegionSpec(channel=fig3, variant="r3", steps=11))
    assert frontier.metadata["lp"] == {
        "phase1_runs": 3,
        "cached_solves": 36,
        "tableau_solves": 3,
        "bases_cached": 3,
    }
    assert frontier.metadata["examined_allocations"] == 64
    assert frontier.metadata["screened_allocations"] == 32


def per_allocation_union(spec):
    """The union as the sweep built it before it searched the union: the
    frontier of every allocation the screen leaves, each projected alone
    through one fresh projector, then ``pareto_merge`` of them all (oracle
    for ``region_union``'s points)."""
    block = bound_rows(spec.channel, _family_allocations(spec))
    projector = fresh_projector()
    return pareto_merge([projector.project(row) for row in block[~certified_infeasible(block)]])


UNION_GRIDS = (
    [grid[:4] for grid in PHASE1_GRIDS]
    + [("fig2", "full", 3, 1)]
    + [(name, variant, {1: 5, 2: 3, 3: 2}[states], states)
       for name in ("fig2", "fig3") for variant in ("r3", "borcp", "ncp")
       for states in (1, 2, 3)]
    + DEGENERATE_GRIDS
)


# On odd-budgets r3 steps 3 states 2, the merge of per-allocation frontiers
# keeps a point that lies on the segment between its neighbours up to the
# last bit (its cross product rounds positive in _hull_vertices); a
# dichotomic search never reports such a point, so on this grid alone the
# oracle's points are compared without it.
COLLINEAR_GRIDS = {("odd-budgets", "r3", 3, 2)}


def strict_vertices(points, tol=FEASIBILITY_TOL):
    """Frontier points less those that lie within the dichotomic search's
    tolerance of the segment between their neighbours."""
    points = list(points)
    at = 1
    while at < len(points) - 1:
        (a1, a2), (b1, b2), (c1, c2) = points[at - 1:at + 2]
        w1, w2 = a2 - c2, c1 - a1
        norm = math.hypot(w1, w2)
        w1, w2 = w1 / norm, w2 / norm
        value = w1 * b1 + w2 * b2
        if value > max(w1 * a1 + w2 * a2, w1 * c1 + w2 * c2) + tol * max(1.0, abs(value)):
            at += 1
        else:
            del points[at]
            at = max(at - 1, 1)
    return points


@pytest.mark.parametrize("channel_name, variant, steps, states", UNION_GRIDS)
def test_pooled_union_equals_per_allocation_union(channel_name, variant, steps, states):
    # one search over the union gives the points of a frontier per
    # allocation merged: equal CSV text, and every coordinate within 4 ulps
    # of the largest one, since the union search reads a vertex through
    # whichever cached basis answers the union's objective, which may round
    # apart from the projection of the allocation alone
    spec = RegionSpec(channel=UNION_CHANNELS[channel_name], variant=variant, steps=steps,
                      states=states)
    union = region_union(spec).points
    expected = per_allocation_union(spec).points
    if (channel_name, variant, steps, states) in COLLINEAR_GRIDS:
        assert len(strict_vertices(expected)) == len(expected) - 1
        expected = strict_vertices(expected)
    assert csv_rows(union) == csv_rows(expected)
    ulp = np.spacing(np.abs(expected).max(initial=0.0))
    assert np.abs(np.subtract(union, expected)).max(initial=0.0) <= 4 * ulp


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("states", [1, 2, 3])
def test_family_allocations_are_within_budget(fig2, fig3, variant, states):
    # the sweep does not validate the allocations it is given, so the
    # family must build every one of them within budget
    for channel in (fig2, fig3, ODD_BUDGETS, ZERO_BUDGET):
        for steps in family_step_sizes(variant, states):
            spec = RegionSpec(channel=channel, variant=variant, steps=steps,
                              states=states, weight_steps=3)
            allocations = _family_allocations(spec)
            assert len(allocations)
            assert all(validate_allocation(channel, to_allocation(a)).ok for a in allocations)


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
    """The grid as the sweep first enumerated it, one object per allocation:
    PowerStates, TimeSharedAllocations of every multiset of k states and
    every weight tuple, kept when validate_allocation passes; returned in
    the sweep's array form."""
    user1, user2 = (object_user_grid(spec.variant, spec.states * budget, spec.steps)
                    for budget in (spec.channel.p1, spec.channel.p2))
    base = [PowerState(*a, *b) for a in user1 for b in user2]
    if spec.states == 1:
        return stack([TimeSharedAllocation.single_state(s) for s in base])
    allocations = []
    weights = _weight_grid(spec.states, spec.weight_steps)
    for combo in combinations_with_replacement(base, spec.states):
        for w in weights:
            alloc = TimeSharedAllocation(tuple(zip(w, combo)))
            if validate_allocation(spec.channel, alloc).ok:
                allocations.append(alloc)
    return stack(allocations)


def family_step_sizes(variant, states):
    if variant == "full":
        return (2, 3) if states == 1 else (2,)
    return {1: (3, 11), 2: (2, 3), 3: (2,)}[states]


TINY_BUDGET = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=1e-13, p2=0.0)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("states", [1, 2, 3])
def test_family_allocations_match_object_enumeration(fig2, fig3, variant, states):
    # same allocations, same order, same bits as the object-based builder
    for channel in (fig2, fig3, ODD_BUDGETS, ZERO_BUDGET, TINY_BUDGET):
        for steps in family_step_sizes(variant, states):
            for weight_steps in (2, 3) if states > 1 else (5,):
                spec = RegionSpec(channel=channel, variant=variant, steps=steps,
                                  states=states, weight_steps=weight_steps)
                expected = object_family_allocations(spec)
                got = _family_allocations(spec)
                assert got.shape == expected.shape
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def eight_column_bound_rows(channel, allocations):
    """``bound_rows`` summing all 8 power columns, zero or not (oracle for
    its skipping of the powers that are zero throughout a block)."""
    numerator_map, floor_map = region._power_maps(channel)
    numerator = np.zeros(allocations.shape[:2] + (len(_BOUNDS),))
    floor = np.ones_like(numerator)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(8):
            column = allocations[:, :, p + 1, np.newaxis]
            numerator += column * numerator_map[p]
            floor += column * floor_map[p]
        rates = 0.5 * np.log1p(numerator / floor) / region._LN2
        return (allocations[:, :, :1] * rates).sum(axis=1)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("states", [1, 2])
def test_bound_rows_equal_the_eight_column_sum(fig2, fig3, variant, states):
    # r3, borcp and ncp grids never use the self and other powers, and a
    # zero budget silences a user: skipping those columns changes no bit
    for channel in (fig2, fig3, ODD_BUDGETS, ZERO_BUDGET):
        spec = RegionSpec(channel=channel, variant=variant, steps=3, states=states,
                          weight_steps=3)
        allocations = _family_allocations(spec)
        for block in (allocations, allocations[:1], allocations[-7:]):
            expected = eight_column_bound_rows(channel, block)
            assert np.array_equal(bound_rows(channel, block).view(np.uint64),
                                  expected.view(np.uint64))
    # a power column that is -0.0 throughout is skipped as well
    signed = _family_allocations(RegionSpec(channel=fig3, variant="r3", steps=3))
    signed[:, :, 2] = -0.0
    assert np.array_equal(bound_rows(fig3, signed).view(np.uint64),
                          eight_column_bound_rows(fig3, signed).view(np.uint64))


def product_filter_weights(k, steps):
    """The weight grid as it was first enumerated: every k-tuple of grid
    values, kept when it sums to one."""
    values = np.linspace(0.0, 1.0, steps)
    return [tuple(float(v) for v in combo) for combo in product(values, repeat=k)
            if abs(sum(combo) - 1.0) <= 1e-9]


def test_weight_grid_enumerates_sums_of_one():
    for k in range(2, 5):
        for steps in range(2, 12):
            assert _weight_grid(k, steps) == product_filter_weights(k, steps)


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
        # with two states: every pair of grid states times every weight pair
        steps = 2 if variant == "full" else 3
        spec = RegionSpec(channel=channel, variant=variant, steps=steps, states=2,
                          weight_steps=4)
        base = _family_allocations(RegionSpec(
            channel=replace(channel, p1=2 * channel.p1, p2=2 * channel.p2), variant=variant,
            steps=steps))
        assert grid_size(spec) == math.comb(len(base) + 1, 2) * len(_weight_grid(2, 4))


def test_region_spec_caps_the_grid(fig3):
    # r3 enumerates (steps (steps + 1) / 2) ** 2 allocations: 990 ** 2 at
    # steps 44 and 1035 ** 2 at steps 45
    assert grid_size(RegionSpec(channel=fig3, steps=44)) == 990 ** 2 <= MAX_ALLOCATIONS
    for steps in (45, 10**9, 10**30):
        with pytest.raises(ValueError, match="allocations"):
            RegionSpec(channel=fig3, steps=steps)
    with pytest.raises(ValueError, match="allocations"):
        RegionSpec(channel=fig3, steps=3, states=2, weight_steps=10**7)
    # zero budgets leave one allocation however fine the grid
    still = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=0.0, p2=0.0)
    spec = RegionSpec(channel=still, variant="full", steps=10**9)
    assert grid_size(spec) == len(_family_allocations(spec)) == 1
