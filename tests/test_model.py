import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gicee import ChannelParams, PowerState, TimeSharedAllocation, preset, validate_allocation
from gicee.cli import _resolve_channel
from gicee.model import BUDGET, MAX_POWER, NEGATIVE_POWER, NEGATIVE_WEIGHT, NON_FINITE


def test_presets_match_published_scenarios():
    fig2 = preset("fig2")
    assert (fig2.c12, fig2.c21, fig2.c1e, fig2.c2e) == (1.9, 1.9, 0.5, 0.5)
    assert (fig2.p1, fig2.p2) == (10.0, 10.0)
    fig3 = preset("fig3")
    assert (fig3.c12, fig3.c21, fig3.c1e, fig3.c2e) == (1.9, 1.0, 0.5, 1.6)
    assert (fig3.p1, fig3.p2) == (10.0, 10.0)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="fig4"):
        preset("fig4")


@pytest.mark.parametrize("field,value", [
    ("c12", -0.1), ("p1", -1.0), ("c1e", float("nan")), ("p2", float("inf")),
])
def test_channel_invariants(field, value):
    kwargs = dict(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=10.0, p2=10.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        ChannelParams(**kwargs)


def test_power_state_derived_totals():
    state = PowerState(pc1=1.0, ps1=2.0, po1=3.0, pj1=4.0, pc2=5.0)
    alloc = TimeSharedAllocation.single_state(state)
    assert alloc.average_power(1) == 10.0
    assert alloc.average_power(2) == 5.0


def test_full_power_single_state_validates(fig2):
    alloc = TimeSharedAllocation.single_state(PowerState(pc1=10.0))
    assert validate_allocation(fig2, alloc).ok


def test_negative_power_is_flagged(fig2):
    alloc = TimeSharedAllocation.single_state(PowerState(pj1=-1.0))
    report = validate_allocation(fig2, alloc)
    assert not report.ok
    assert report.code == NEGATIVE_POWER
    assert "pj1" in report.detail


def test_average_budget_violation(fig2):
    state = PowerState(pc1=30.0)
    alloc = TimeSharedAllocation(states=((0.5, state), (0.5, state)))
    report = validate_allocation(fig2, alloc)
    assert not report.ok
    assert report.code == BUDGET
    assert "user 1" in report.detail


def test_non_finite_distinct_from_budget(fig2):
    alloc = TimeSharedAllocation.single_state(PowerState(pc1=float("nan")))
    report = validate_allocation(fig2, alloc)
    assert report.code == NON_FINITE
    assert report.code != BUDGET


def test_negative_weight_flagged(fig2):
    states = ((-0.5, PowerState()), (1.5, PowerState()))
    report = validate_allocation(fig2, TimeSharedAllocation(states=states))
    assert not report.ok
    assert report.code == NEGATIVE_WEIGHT


def test_boundary_budget_validates(fig2):
    # grid points that sit exactly on the budget must pass
    alloc = TimeSharedAllocation.single_state(PowerState(pc1=7.0, pj1=3.0))
    assert validate_allocation(fig2, alloc).ok


def test_weights_normalized_at_construction():
    alloc = TimeSharedAllocation(
        states=((0.3, PowerState()), (0.3, PowerState(pc1=1.0)))
    )
    assert [w for w, _ in alloc.states] == [0.5, 0.5]


def test_state_count_cap():
    # no cap: five states construct
    states = tuple((0.2, PowerState()) for _ in range(5))
    assert len(TimeSharedAllocation(states=states).states) == 5


def test_empty_states_rejected():
    with pytest.raises(ValueError):
        TimeSharedAllocation(states=())


def test_state_order_immaterial(fig2):
    a = PowerState(pc1=8.0)
    b = PowerState(pj2=4.0)
    fwd = TimeSharedAllocation(states=((0.25, a), (0.75, b)))
    rev = TimeSharedAllocation(states=((0.75, b), (0.25, a)))
    assert validate_allocation(fig2, fwd).ok == validate_allocation(fig2, rev).ok


@settings(max_examples=60, deadline=None)
@given(
    pc=st.floats(0, 12), pj=st.floats(0, 12),
    bump1=st.floats(0, 20), bump2=st.floats(0, 20),
)
def test_validation_monotone_in_budgets(pc, pj, bump1, bump2):
    base = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=10.0, p2=10.0)
    alloc = TimeSharedAllocation.single_state(PowerState(pc1=pc, pj1=pj))
    if validate_allocation(base, alloc).ok:
        richer = ChannelParams(
            c12=1.0, c21=1.0, c1e=0.5, c2e=0.5,
            p1=base.p1 + bump1, p2=base.p2 + bump2,
        )
        assert validate_allocation(richer, alloc).ok


def test_channel_json_round_trip(fig3):
    # the channel a sidecar writes reads back, as a config file's inline
    # values, as the same channel
    data = json.loads(json.dumps(fig3.to_dict()))
    assert set(data) == {"c12", "c21", "c1e", "c2e", "p1", "p2"}
    assert _resolve_channel(data) == fig3


def test_allocation_json_round_trip():
    alloc = TimeSharedAllocation(
        states=(
            (0.25, PowerState(pc1=4.0, pj2=1.0)),
            (0.75, PowerState(ps2=2.0, po1=0.5)),
        )
    )
    # every key given, or the powers left out read as 0
    data = json.loads("""{"states": [
        {"weight": 0.25, "pc1": 4.0, "ps1": 0.0, "po1": 0.0, "pj1": 0.0,
         "pc2": 0.0, "ps2": 0.0, "po2": 0.0, "pj2": 1.0},
        {"weight": 0.75, "po1": 0.5, "ps2": 2.0}]}""")
    back = TimeSharedAllocation.from_dict(data)
    for (w1, s1), (w2, s2) in zip(alloc.states, back.states):
        assert math.isclose(w1, w2)
        assert s1 == s2


def test_allocation_json_requires_states():
    with pytest.raises(ValueError, match="states"):
        TimeSharedAllocation.from_dict({"states": []})


def test_power_scale_ceiling():
    at_ceiling = ChannelParams(c12=2.0, c21=1.0, c1e=0.5, c2e=0.5,
                               p1=MAX_POWER / 8, p2=1.0)
    at_ceiling.check_power_scale(4)
    with pytest.raises(ValueError, match="ceiling"):
        at_ceiling.check_power_scale(5)
    # the gain only counts above 1; a huge stretch is compared exactly
    weak = ChannelParams(c12=0.0, c21=0.0, c1e=0.0, c2e=0.0, p1=MAX_POWER, p2=0.0)
    weak.check_power_scale(1)
    with pytest.raises(ValueError, match="ceiling"):
        weak.check_power_scale(10**400)
    silent = ChannelParams(c12=1e300, c21=1.0, c1e=1.0, c2e=1.0, p1=0.0, p2=0.0)
    silent.check_power_scale(10**400)
    overflowing = ChannelParams(c12=1.9, c21=1.9, c1e=0.5, c2e=0.5, p1=1.7e308, p2=10.0)
    with pytest.raises(ValueError, match="ceiling"):
        overflowing.check_power_scale(1)
