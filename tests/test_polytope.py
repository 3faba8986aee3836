import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gicee import (
    ChannelParams,
    Frontier,
    PowerState,
    RegionSpec,
    SolverFailure,
    grid_feasibility_oracle,
    lp_solve,
    pareto_merge,
    preset,
    project_frontier,
    region_union,
)
import gicee.polytope as polytope
from gicee.frontier import PARETO_EPS, _cross, _pareto_prune, _records
from gicee.polytope import FEASIBILITY_TOL, _Tableau, time_share
from gicee.region import R1_OBJECTIVE, R2_OBJECTIVE
from conftest import (
    allocation_system, check_point, dominates, lp_system, move_into_hull, pin, single, support)


def box_system():
    return lp_system([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])


def polygon_system():
    return lp_system([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.5])


def contradiction_system():
    """``x1 <= 0`` and ``x1 = 1``: infeasible, its right-hand side >= 0."""
    return lp_system([[1.0, 0.0]], [0.0], [[1.0, 0.0]], [1.0])


def test_lp_box_corner():
    res = lp_solve(*box_system(), [1.0, 1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-9)


def test_lp_contradiction_infeasible():
    res = lp_solve(*contradiction_system(), [1.0, 0.0])
    assert res.status == "infeasible"


def test_lp_equality():
    res = lp_solve([[0.0, 0.0]], [[1.0, 1.0]], [0.0, 1.0], [1.0, 0.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.x == pytest.approx([1.0, 0.0], abs=1e-9)


def test_lp_unbounded():
    res = lp_solve(*lp_system([[0.0, 1.0]], [1.0]), [1.0, 0.0])
    assert res.status == "unbounded"


def test_lp_deterministic():
    system = polygon_system()
    first = lp_solve(*system, [0.3, 0.7])
    for _ in range(5):
        again = lp_solve(*system, [0.3, 0.7])
        assert again.value == first.value
        assert np.array_equal(again.x, first.x)


def test_lp_matches_scipy_on_random_systems():
    rng = np.random.default_rng(42)
    agreements = 0
    for _ in range(120):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 12))
        a = rng.uniform(-1.0, 2.0, (m, n))
        b = rng.uniform(0.0, 3.0, m)
        c = rng.uniform(-1.0, 1.0, n)
        has_eq = rng.uniform() < 0.4
        a_eq = rng.uniform(0.0, 1.0, (1, n)) if has_eq else None
        b_eq = rng.uniform(0.0, 2.0, 1) if has_eq else None
        mine = lp_solve(*lp_system(a, b, a_eq, b_eq), c)
        ref = linprog(-c, A_ub=a, b_ub=b, A_eq=a_eq, b_eq=b_eq, bounds=(0, None))
        if ref.status == 0:
            assert mine.status == "optimal"
            assert mine.value == pytest.approx(-ref.fun, abs=1e-7)
            agreements += 1
        elif ref.status == 2:
            assert mine.status == "infeasible"
        elif ref.status == 3:
            assert mine.status == "unbounded"
    assert agreements > 30  # the sweep must hit plenty of solvable instances


def test_bland_rule_takes_over_a_stall(monkeypatch):
    # with no stall allowed, Bland's rule makes every pivot: it ends on
    # Beale's example, which cycles under Dantzig's rule with the textbook
    # ratio test, and reaches the optimum the default rules reach
    rng = np.random.default_rng(42)
    systems = [(lp_system([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
                           [0.0, 0.0, 1.0, 0.0]], [0.0, 0.0, 1.0]),
                np.array([0.75, -20.0, 0.5, -6.0]))]
    for _ in range(60):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 12))
        systems.append((lp_system(rng.uniform(-1.0, 2.0, (m, n)), rng.uniform(0.0, 3.0, m)),
                        rng.uniform(-1.0, 1.0, n)))
    default = [lp_solve(*system, c) for system, c in systems]
    assert default[0].value == pytest.approx(1.25, abs=1e-12)
    monkeypatch.setattr(polytope, "_STALL", 0)
    for (system, c), expected in zip(systems, default):
        res = lp_solve(*system, c)
        assert res.status == expected.status
        if res.status == "optimal":
            assert res.value == pytest.approx(expected.value, abs=1e-9)


def test_master_confirms_an_optimum_that_rounding_moves(monkeypatch):
    # a confirming solve that pivots without gaining the objective stands,
    # as when two bases that only rounding tells apart take turns; one
    # that keeps gaining ends at the pivot cap, as a SolverFailure
    spec = RegionSpec(channel=preset("fig3"), variant="r3", steps=5)
    expected = region_union(spec).points
    maximize = _Tableau.maximize

    def pivoting(tableau, *args):
        status = maximize(tableau, *args)
        tableau.pivots += 1
        return status

    monkeypatch.setattr(_Tableau, "maximize", pivoting)
    assert region_union(spec).points == expected

    def gaining(tableau, *args):
        status = pivoting(tableau, *args)
        tableau.t[-1, -1] += tableau.pivots
        return status

    monkeypatch.setattr(_Tableau, "maximize", gaining)
    monkeypatch.setattr(polytope, "_MAX_PIVOTS", 200)
    with pytest.raises(SolverFailure, match="200 pivots"):
        region_union(spec)


def test_project_frontier_polygon():
    frontier = project_frontier(*polygon_system(), [1.0, 0.0], [0.0, 1.0])
    assert (0.5, 1.0) in set(
        (round(a, 9), round(b, 9)) for a, b in frontier.points
    )
    assert (1.0, 0.5) in set(
        (round(a, 9), round(b, 9)) for a, b in frontier.points
    )


def test_project_frontier_infeasible_empty():
    frontier = project_frontier(*contradiction_system(), [1.0, 0.0], [0.0, 1.0])
    assert frontier.is_empty
    assert frontier.metadata["infeasible"] is True


def test_project_frontier_dominating_corner():
    frontier = project_frontier(*box_system(), [1.0, 0.0], [0.0, 1.0])
    assert frontier.points == ((1.0, 1.0),)


def test_frontier_points_refeasible():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(0.0, 1.0, (12, 4))
        b = rng.uniform(0.5, 2.0, 12)
        system = lp_system(a, b)
        r1 = np.array([1.0, 1.0, 0.0, 0.0])
        r2 = np.array([0.0, 0.0, 1.0, 1.0])
        frontier = project_frontier(*system, r1, r2)
        for point in frontier.points:
            assert lp_solve(*pin(system, [r1, r2], point), np.zeros(4)).status == "optimal"


def test_grid_oracle_box():
    feasible = grid_feasibility_oracle(*box_system(), [1.0, 0.0], [0.0, 1.0], 0.5)
    expected = {(i * 0.5, j * 0.5) for i in range(3) for j in range(3)}
    assert feasible == expected


def test_grid_oracle_infeasible_empty():
    system = contradiction_system()
    assert grid_feasibility_oracle(*system, [1.0, 0.0], [0.0, 1.0], 0.5) == frozenset()


def test_grid_oracle_positive_pitch():
    with pytest.raises(ValueError):
        grid_feasibility_oracle(*box_system(), [1.0, 0.0], [0.0, 1.0], 0.0)


def test_grid_oracle_points_below_frontier():
    system = polygon_system()
    frontier = project_frontier(*system, [1.0, 0.0], [0.0, 1.0])
    feasible = grid_feasibility_oracle(*system, [1.0, 0.0], [0.0, 1.0], 0.1)
    for r1, r2 in feasible:
        assert r2 <= frontier.r2_at(r1) + 1e-9


def brute_hull_support(points, theta):
    return max(math.cos(theta) * x + math.sin(theta) * y for x, y in points)


def test_pareto_merge_convexification_segment():
    f1 = Frontier(points=((1.0, 0.0),))
    f2 = Frontier(points=((0.0, 1.0),))
    merged = pareto_merge([f1, f2])
    assert merged.r2_at(0.5) == pytest.approx(0.5, abs=1e-12)


def test_pareto_merge_idempotent():
    merged = pareto_merge([
        Frontier(points=((0.2, 0.9), (0.8, 0.3))),
        Frontier(points=((0.5, 0.7),)),
    ])
    again = pareto_merge([merged])
    assert again.points == merged.points


def test_pareto_merge_order_and_duplication_invariant():
    f1 = Frontier(points=((0.4, 0.6),))
    f2 = Frontier(points=((1.0, 0.5),))
    f3 = Frontier(points=((0.1, 0.95),))
    a = pareto_merge([f1, f2, f3])
    b = pareto_merge([f3, f1, f2, f1, f2])
    assert a.points == b.points


def test_pareto_merge_matches_brute_hull():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = [tuple(p) for p in rng.uniform(0.0, 2.0, (rng.integers(1, 9), 2))]
        frontiers = [Frontier(points=_pareto_prune([p])) for p in pts]
        merged = pareto_merge(frontiers)
        cloud = [(x, y) for x, y in pts]
        cloud += [(0.0, y) for _, y in pts] + [(x, 0.0) for x, _ in pts]
        for k in range(40):
            theta = 0.5 * math.pi * k / 39
            assert support(merged, theta) == pytest.approx(
                brute_hull_support(cloud, theta), abs=1e-9
            )
    # points one ulp above a chord, about 1e-17 from it, are no vertices:
    # the hull drops them and its support stays that of the two ends
    ends = [(0.02, 0.09), (0.09, 0.02)]
    middle = [(x, float(np.nextafter(0.11 - x, 1.0))) for x in (0.03, 0.055, 0.08)]
    assert all(_cross(ends[1], m, ends[0]) > 0 for m in middle)
    merged = pareto_merge([Frontier(points=_pareto_prune([p])) for p in ends + middle])
    assert merged.points == tuple(ends)
    cloud = ends + middle + [(0.0, y) for _, y in ends] + [(x, 0.0) for x, _ in ends]
    for k in range(40):
        theta = 0.5 * math.pi * k / 39
        assert support(merged, theta) == pytest.approx(
            brute_hull_support(cloud, theta), abs=1e-15
        )


def test_pareto_merge_empty():
    assert pareto_merge([Frontier(points=())]).is_empty


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.floats(0, 5), st.floats(0, 5)), min_size=1, max_size=8,
))
def test_pareto_merge_property_idempotent(points):
    frontiers = [Frontier(points=_pareto_prune([p])) for p in points]
    merged = pareto_merge(frontiers)
    assert pareto_merge([merged]).points == merged.points


def test_frontier_validation():
    with pytest.raises(ValueError):
        Frontier(points=((0.5, 0.5), (0.2, 0.9)))
    with pytest.raises(ValueError):
        Frontier(points=((-0.5, 0.5),))


def test_frontier_snaps_tiny_coordinates_to_zero():
    frontier = Frontier(points=(
        (2.220446049250313e-16, 0.5), (0.3, -FEASIBILITY_TOL), (0.4, FEASIBILITY_TOL),
    ))
    assert frontier.points == ((0.0, 0.5), (0.3, 0.0), (0.4, 0.0))
    above = 2 * FEASIBILITY_TOL
    assert Frontier(points=((above, above),)).points == ((above, above),)


def test_frontier_queries():
    frontier = Frontier(points=((0.0, 1.0), (1.0, 0.0)))
    assert frontier.max_r1 == 1.0
    assert frontier.max_r2 == 1.0
    assert frontier.r2_at(-0.2) == 1.0
    assert frontier.r2_at(2.0) == -math.inf
    assert support(frontier, 0.0) == pytest.approx(1.0)
    wider = Frontier(points=((0.0, 2.0), (2.0, 0.0)))
    assert dominates(wider, frontier)
    assert not dominates(frontier, wider)
    assert dominates(frontier, Frontier(points=()))


def test_pareto_prune_drops_dominated():
    pruned = _pareto_prune([(0.5, 0.5), (0.7, 0.5), (0.7, 0.2), (0.1, 0.9)])
    assert pruned == ((0.1, 0.9), (0.7, 0.5))


def set_sort_prune(points, eps=PARETO_EPS):
    """The Pareto prune before the record filter: every point through a
    set, a sort and the eps loops (oracle for ``_pareto_prune``)."""
    pts = sorted(set((float(a), float(b)) for a, b in points))
    kept = []
    best = -math.inf
    for r1, r2 in reversed(pts):
        if r2 > best + eps:
            kept.append((r1, r2))
            best = r2
    kept.reverse()
    out = []
    for pt in kept:
        if out and pt[0] - out[-1][0] <= eps:
            continue
        out.append(pt)
    return tuple(out)


def exact(points):
    """Points as hex strings, so that -0.0 and 0.0 differ."""
    return [tuple(float(v).hex() for v in point) for point in points]


# Few distinct values, so that ties, duplicates and signed zeros are
# common, plus neighbours closer than PARETO_EPS.
PRUNE_VALUES = st.sampled_from(
    [0.0, -0.0, 1e-13, 0.5, 0.5 + 1e-13, 0.5 + 2e-12, 1.0, 1.0 - 1e-13, 2.0]
) | st.floats(0.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(PRUNE_VALUES, PRUNE_VALUES), max_size=192),
       st.sampled_from([PARETO_EPS, 0.0, 1e-3]))
def test_pareto_prune_matches_set_sort_prune(points, eps):
    # lists short and long, as tuples, as an (n, 2) array and as the rows
    # of one
    expected = exact(set_sort_prune(points, eps))
    assert exact(_pareto_prune(points, eps)) == expected
    if points:
        array = np.array(points)
        assert exact(_pareto_prune(array, eps)) == expected
        assert exact(_pareto_prune(list(array), eps)) == expected


def test_pareto_prune_keeps_the_first_of_signed_zero_ties():
    # -0.0 == 0.0, so the set keeps the first occurrence; so does the
    # record filter, at any size
    for size in (1, 64, 128):
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            points = [(first, 1.0)] + [(0.0, 0.5)] * size + [(second, 1.0)]
            assert exact(_pareto_prune(points)) == exact([(first, 1.0)])
            assert exact(_pareto_prune(np.array(points))) == exact([(first, 1.0)])


def literal_records(points):
    """Strict records by a loop: points in decreasing (r1, r2) order, ties
    in input order, kept when their r2 beats every point before them
    (oracle for ``_records``)."""
    order = sorted(range(len(points)), key=lambda i: (-points[i][0], -points[i][1], i))
    kept, best = [], -math.inf
    for i in order:
        if points[i][1] > best:
            kept.append(points[i])
            best = points[i][1]
    return kept


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(PRUNE_VALUES, PRUNE_VALUES), min_size=1, max_size=40),
                min_size=1, max_size=4))
def test_records_of_parts_give_the_records_of_the_whole(parts):
    # the cheap pass ahead of the sort drops no record, and cutting each
    # part to its records first keeps the records of the concatenation,
    # signed zeros and ties included
    whole = [point for part in parts for point in part]
    expected = exact(literal_records(whole))
    assert exact(_records(np.array(whole))) == expected
    cut = np.concatenate([_records(np.array(part)) for part in parts])
    assert exact(_records(cut)) == expected


def test_system_validation():
    with pytest.raises(ValueError, match="constraint data must be finite"):
        lp_solve(*lp_system([[1.0, float("nan")]], [1.0]), [1.0, 0.0])
    with pytest.raises(ValueError, match="disagree in shape"):
        lp_solve(*lp_system([[1.0, 0.0]], [1.0, 2.0]), [1.0, 0.0])
    with pytest.raises(ValueError, match="disagree in shape"):
        project_frontier(*lp_system([[1.0, 0.0]], [1.0, 2.0]), [1.0, 0.0], [0.0, 1.0])


def share(a_ub, a_eq, rhs, spent=0.0):
    """:func:`time_share` over the one right-hand side ``rhs``, which uses
    ``spent`` of a resource capped at 1."""
    def read(at, columns):
        return (rhs if columns is None else rhs[columns])[np.newaxis]

    return time_share(a_ub, a_eq, read, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                      np.array([[spent]]), np.array([1.0]), first=0, keys=rhs[np.newaxis])


@pytest.mark.parametrize("solve", [
    lambda system: lp_solve(*system, [1.0, 0.0]),
    lambda system: project_frontier(*system, [1.0, 0.0], [0.0, 1.0]),
    lambda system: share(*system),
], ids=["lp_solve", "project_frontier", "time_share"])
@pytest.mark.parametrize("system, message", [
    (lp_system([[1.0, 0.0]], [-1.0]), "the right-hand side must be nonnegative"),
    (lp_system([[1.0, 0.0]], [1.0], [[1.0, 0.0]], [-0.5]), "must be nonnegative"),
    # finiteness is checked first, the sign after
    (lp_system([[math.inf, 0.0]], [-1.0]), "constraint data must be finite"),
    (lp_system([[1.0, 0.0]], [1.0], [[1.0, 0.0, 0.0]], [1.0]), "disagree in shape"),
], ids=["negative bound", "negative equality value", "not finite", "wide a_eq"])
def test_lp_data_are_refused(solve, system, message):
    with pytest.raises(ValueError, match=message):
        solve(system)


def test_time_share_refuses_a_first_column_that_overspends():
    assert share(*box_system(), spent=1.0)[0]
    with pytest.raises(ValueError, match="the right-hand side must be nonnegative"):
        share(*box_system(), spent=1.5)


def test_dependent_equality_rows_are_a_solver_failure():
    # phase 1 ends with an artificial basic at zero whose row has no real
    # column to pivot it out on
    system = lp_system(np.zeros((0, 2)), [], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
    with pytest.raises(SolverFailure, match="equality rows are linearly dependent"):
        lp_solve(*system, [1.0, 0.0])


def test_check_point_slack():
    system = polygon_system()
    assert check_point(*system, [0.5, 0.5]) >= 0.0
    assert check_point(*system, [1.2, 0.5]) < 0.0
    pinned = pin(system, [[1.0, 0.0]], [0.5])
    assert check_point(*pinned, [0.5, 0.2]) >= 0.0
    assert check_point(*pinned, [0.6, 0.2]) < 0.0


def lexicographic_corner(system, primary, secondary):
    """Cold reference for a frontier corner: maximize ``primary``, pin it
    with an equality row and maximize ``secondary``."""
    first = lp_solve(*system, primary)
    return lp_solve(*pin(system, [primary], [first.value]), secondary).x


def highs_corner(a_ub, a_eq, rhs, primary, secondary):
    """Independent corner values (primary, secondary) from scipy HiGHS."""
    b_ub, b_eq = rhs[:len(a_ub)], rhs[len(a_ub):]
    first = linprog(-primary, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq if len(a_eq) else None,
                    b_eq=b_eq if len(a_eq) else None, bounds=(0, None))
    assert first.status == 0
    rows = np.vstack([a_eq, primary])
    values = np.append(b_eq, -first.fun)
    second = linprog(-secondary, A_ub=a_ub, b_ub=b_ub,
                     A_eq=rows, b_eq=values, bounds=(0, None))
    assert second.status == 0
    return -first.fun, -second.fun


def warm_start_cases():
    """Random systems as in the tests above (mixed signs, equalities) and
    degenerate region allocations."""
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 12))
        has_eq = rng.uniform() < 0.4
        system = lp_system(
            rng.uniform(-1.0, 2.0, (m, n)), rng.uniform(0.0, 3.0, m),
            rng.uniform(0.0, 1.0, (1, n)) if has_eq else None,
            rng.uniform(0.0, 2.0, 1) if has_eq else None,
        )
        r1 = (np.arange(n) < n // 2).astype(float)
        yield system, r1, 1.0 - r1
    for _ in range(10):
        system = lp_system(rng.uniform(0.0, 1.0, (12, 4)), rng.uniform(0.5, 2.0, 12))
        yield system, np.array([1.0, 0.5, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.5])
    fig3 = preset("fig3")
    big = ChannelParams(c12=1.9, c21=1.0, c1e=0.5, c2e=1.6, p1=1e4, p2=1e4)
    deaf = ChannelParams(c12=0.0, c21=0.0, c1e=0.0, c2e=0.0, p1=10.0, p2=10.0)
    for channel, state in (
        (fig3, PowerState()),
        (fig3, PowerState(pc1=10.0, pc2=10.0)),   # criterion 6: infeasible
        (fig3, PowerState(pc1=10.0, pc2=1.0)),
        (deaf, PowerState(pc1=10.0, ps2=10.0)),
        (big, PowerState(pc1=1e4, pc2=1e3)),
        (big, PowerState(ps1=5e3, pj1=5e3, ps2=1e4)),
    ):
        system = allocation_system(channel, *single(state))
        yield system, R1_OBJECTIVE, R2_OBJECTIVE


def sweep_frontier(system, r1, r2, directions):
    """The former fixed-angle projection, kept as a reference: the two
    lexicographic corners, solved cold, plus ``directions`` support angles
    over [0, pi/2], each warm-started from the previous basis."""
    tol = FEASIBILITY_TOL
    tableau = _Tableau(*system)
    if not tableau.phase1(tol):
        return Frontier(points=())
    solutions = [lexicographic_corner(system, r1, r2), lexicographic_corner(system, r2, r1)]
    for k in reversed(range(directions)):
        theta = 0.5 * math.pi * k / (directions - 1)
        objective = math.cos(theta) * r1 + math.sin(theta) * r2
        assert tableau.maximize(objective, tol) == "optimal"
        solutions.append(tableau.solution(tol))
    points = [(max(float(r1 @ x), 0.0), max(float(r2 @ x), 0.0)) for x in solutions]
    return Frontier(points=_pareto_prune(points))


def bounded_cases():
    """The feasible, bounded projections among ``warm_start_cases``."""
    for system, r1, r2 in warm_start_cases():
        try:
            frontier = project_frontier(*system, r1, r2)
        except SolverFailure:
            continue
        if not frontier.is_empty:
            yield system, r1, r2, frontier


def test_warm_started_projection_matches_cold_solves():
    angles = [0.5 * math.pi * k / 180 for k in range(181)]
    checked = infeasible = 0
    for system, r1, r2 in warm_start_cases():
        statuses = set()
        cold = []
        for theta in angles:
            res = lp_solve(*system, math.cos(theta) * r1 + math.sin(theta) * r2)
            statuses.add(res.status)
            cold.append((theta, res.value))
        if "unbounded" in statuses:
            with pytest.raises(SolverFailure):
                project_frontier(*system, r1, r2)
            continue
        frontier = project_frontier(*system, r1, r2)
        assert statuses == ({"infeasible"} if frontier.is_empty else {"optimal"})
        if frontier.is_empty:
            infeasible += 1
            continue
        # exact: the frontier's support equals the cold optimum at every angle
        for theta, value in cold:
            assert support(frontier, theta) == pytest.approx(value, abs=1e-9)
        # the frontier's ends are the lexicographic corners, solved cold
        # and by HiGHS
        for corner, (primary, secondary) in (
            (frontier.points[-1], (r1, r2)),
            (frontier.points[0], (r2, r1)),
        ):
            x = lexicographic_corner(system, primary, secondary)
            old = (max(r1 @ x, 0.0), max(r2 @ x, 0.0))
            assert corner == pytest.approx(old, abs=1e-9)
            first, second = highs_corner(*system, primary, secondary)
            swap = primary is r2
            assert corner[swap] == pytest.approx(first, abs=1e-7)
            assert corner[not swap] == pytest.approx(second, abs=1e-7)
        checked += 1
    assert checked >= 20 and infeasible >= 2


@pytest.mark.parametrize("directions", [5, 16, 64])
def test_exact_frontier_dominates_fixed_angle_sweep(directions):
    checked = 0
    for system, r1, r2, frontier in bounded_cases():
        sweep = sweep_frontier(system, r1, r2, directions)
        assert dominates(frontier, sweep, tol=1e-9)
        # both run the same lexicographic corner solves
        assert frontier.max_r1 == pytest.approx(sweep.max_r1, abs=1e-9)
        assert frontier.max_r2 == pytest.approx(sweep.max_r2, abs=1e-9)
        checked += 1
    assert checked >= 20


def test_exact_frontier_vertices_are_extreme_and_feasible():
    for system, r1, r2, frontier in bounded_cases():
        points = frontier.points
        for point in points:
            pinned = pin(system, [r1, r2], point)
            assert lp_solve(*pinned, np.zeros(len(r1))).status == "optimal"
        # strictly convex chain: no vertex lies on the segment of its
        # neighbours, so the search never reports a collinear point
        for a, b, c in zip(points, points[1:], points[2:]):
            assert (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < 0


def sampled_dominates(big, small, directions=181, tol=1e-9):
    """The former sampled dominance test, kept as a reference."""
    if small.is_empty:
        return True
    if big.is_empty:
        return False
    return all(
        support(small, theta) <= support(big, theta) + tol
        for theta in (0.5 * math.pi * k / (directions - 1) for k in range(directions))
    )


def test_dominates_catches_a_point_between_sampled_angles():
    # the edge from (0, 1) to (1, 0.9) has its normal at about 84.29
    # degrees, between the sampled angles 84.0 and 84.5
    edge = Frontier(points=((0.0, 1.0), (1.0, 0.9)))
    normal = np.array([0.1, 1.0]) / math.hypot(0.1, 1.0)
    poke = np.array([0.5, 0.95]) + 1e-6 * normal
    other = Frontier(points=(tuple(poke),))
    assert sampled_dominates(edge, other)
    assert not dominates(edge, other)
    assert dominates(edge, Frontier(points=((0.5, 0.95),)))
    # within tol of the boundary still counts, beyond the right end too
    assert dominates(edge, Frontier(points=((0.5, 0.95 + 5e-10),)))
    assert dominates(edge, Frontier(points=((1.0 + 5e-10, 0.9),)))
    assert not dominates(edge, Frontier(points=((1.0 + 5e-10, 0.9 + 6e-10),)))


frontier_points = st.lists(
    st.tuples(st.floats(0, 2), st.floats(0, 2)), min_size=1, max_size=6,
).map(lambda pts: Frontier(points=_pareto_prune(pts)))


def vertical_gap(hull, point):
    """The former dominance measure: how far the point passes the hull's
    right end, plus how far it then sits above the boundary."""
    right = hull.max_r1
    beyond = max(point[0] - right, 0.0)
    return beyond + max(point[1] - hull.r2_at(min(point[0], right)), 0.0)


def hull_distance(hull, point):
    """Euclidean distance from a point to the down-closed region under a
    merged frontier: 0 inside, else to the nearest point of its boundary,
    the frontier with its drops to both axes."""
    chain = [(0.0, hull.max_r2), *hull.points, (hull.max_r1, 0.0)]
    if point[0] <= hull.max_r1 and point[1] <= hull.r2_at(point[0]):
        return 0.0
    p = np.array(point)
    best = math.inf
    for a, b in zip(chain, chain[1:]):
        a, b = np.array(a), np.array(b)
        d = b - a
        t = 0.0 if not d.any() else min(max((p - a) @ d / (d @ d), 0.0), 1.0)
        best = min(best, float(np.linalg.norm(p - a - t * d)))
    return best


def test_dominates_measures_the_shortest_move_into_the_hull():
    # next to an edge of slope -1e11, a point 3e-17 right of the vertex
    # sits 3e-6 above the edge but 3e-17 right of the hull
    steep = Frontier(points=((0.0, 3.6), (0.15, 3.6), (0.15 + 4e-12, 3.2)))
    assert dominates(steep, Frontier(points=((0.15 + 3e-17, 3.6),)))
    assert vertical_gap(pareto_merge([steep]), (0.15 + 3e-17, 3.6)) > 1e-6
    assert dominates(steep, Frontier(points=((0.15 + 2e-12 + 5e-10, 3.4),)))
    assert not dominates(steep, Frontier(points=((0.15 + 2e-12 + 2e-9, 3.4),)))
    # above the flat top, the move is down; past a vertex, it ends there
    assert dominates(steep, Frontier(points=((0.05, 3.6 + 5e-10),)))
    assert not dominates(steep, Frontier(points=((0.05, 3.6 + 2e-9),)))
    assert not dominates(steep, Frontier(points=((0.15 + 6e-10, 3.6 + 6e-10),)))


@settings(max_examples=200, deadline=None)
@given(frontier_points, st.tuples(st.floats(0, 2.5), st.floats(0, 2.5)))
def test_move_into_hull_lies_between_distance_and_vertical_gap(big, point):
    hull = pareto_merge([big])
    move = move_into_hull(hull, point)
    assert hull_distance(hull, point) <= move + 1e-12
    assert move <= vertical_gap(hull, point) + 1e-12


@settings(max_examples=200, deadline=None)
@given(frontier_points, frontier_points)
# (2 - 2.2e-16, 1.0) is a hull vertex: within PARETO_EPS of the line
# through its neighbours (2, 0.5) and (2 - 2.2e-16, 0.0), but above both
# ends of their chord
@example(Frontier(points=((2.0, 0.5),)), Frontier(points=((1.9999999999999998, 1.0),)))
def test_dominates_is_at_least_as_strict_as_sampled(big, small):
    if dominates(big, small):
        assert sampled_dominates(big, small)
    # and it is not stricter than containment: the hull of both frontiers
    # holds each of them, and a frontier holds itself
    merged = pareto_merge([big, small])
    assert dominates(merged, big) and dominates(merged, small)
    assert dominates(big, big)


def mixed_sign_systems(rng, count, a_ub, a_eq):
    """Feasible bounded systems on one mixed-sign matrix, their bounds
    nonnegative: each holds a drawn point in [0, 1]^n, and the last n
    inequality rows box every variable below 2."""
    n = a_ub.shape[1]
    for _ in range(count):
        x0 = rng.uniform(0.0, 1.0, n)
        b_ub = np.maximum(a_ub @ x0, 0.0) + rng.uniform(0.0, 0.3, a_ub.shape[0])
        b_ub[-n:] = 2.0
        yield lp_system(a_ub, b_ub, a_eq, a_eq @ x0)


def test_basis_inverse_and_shared_bases():
    # the initial unit columns hold the inverse of the basis matrix, which
    # maps the right-hand side and every structural column to their
    # tableau columns (the master reads its duals off the objective row at
    # those columns); and the master of one system projects systems that
    # share its matrix, each frontier's support the optimum lp_solve finds
    rng = np.random.default_rng(5)
    n = 4
    a_ub = np.vstack([rng.uniform(-1.0, 1.0, (6, n)), np.eye(n)])
    a_eq = rng.uniform(0.0, 1.0, (1, n))
    r1, r2 = np.array([1.0, 0.5, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.5])
    for system in mixed_sign_systems(rng, 30, a_ub, a_eq):
        tableau = _Tableau(*system)
        assert tableau.phase1(FEASIBILITY_TOL)
        assert tableau.maximize(rng.uniform(0.0, 1.0, n), FEASIBILITY_TOL) == "optimal"
        inverse = tableau.t[:-1, tableau.unit]
        assert np.allclose(inverse @ system[2], tableau.t[:-1, -1], atol=1e-9)
        a = np.vstack([a_ub, a_eq])
        assert np.allclose(inverse @ a, tableau.t[:-1, :n], atol=1e-9)
        frontier = project_frontier(*system, r1, r2)
        for theta in np.linspace(0.0, 0.5 * math.pi, 5):
            res = lp_solve(*system, math.cos(theta) * r1 + math.sin(theta) * r2)
            assert support(frontier, theta) == pytest.approx(res.value, abs=1e-9)


def test_appended_columns_continue_phase_2():
    # a column appended to a live tableau, at cost 0, is the column a fresh
    # tableau of the wider system has, so phase 2 goes on to that system's
    # optimum; a mixed-sign matrix makes the old optimum move
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(-1.0, 1.0, (6, 5))
        a[:, :3] = np.abs(a[:, :3])
        b = rng.uniform(0.5, 2.0, 6)
        c = np.append(rng.uniform(0.0, 1.0, 3), [0.0, 0.0])
        tableau = _Tableau(a[:, :3], np.zeros((0, 3)), b)
        assert tableau.phase1(FEASIBILITY_TOL)
        assert tableau.maximize(c[:3], FEASIBILITY_TOL) == "optimal"
        tableau.append(a[:, 3:])
        status = tableau.maximize(c[:3], FEASIBILITY_TOL)
        wide = lp_solve(*lp_system(a, b), c)
        assert status == wide.status
        assert tableau.refactor()
        if status != "optimal":
            continue
        # and so does a restart from the first basis, every column kept,
        # whose phase 1 tells the appended columns from the artificials
        for restart in (False, True):
            if restart:
                tableau.restart()
                assert tableau.maximize(c[:3], FEASIBILITY_TOL) == "optimal"
            values = np.zeros(tableau.t.shape[1] - 1)
            values[tableau.basis] = tableau.t[:-1, -1]
            x = np.append(values[:3], values[-3:-1])
            assert c @ x == pytest.approx(wide.value, abs=1e-12)
