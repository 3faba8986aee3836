import json
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gicee import ChannelParams, PowerState, preset, read_allocation, validate_allocation
from gicee.cli import _resolve_channel
from gicee.model import MAX_POWER
from conftest import allocation, is_valid, single


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
    # the budget check sums each user's four powers: 10 for user 1, 5 for
    # user 2
    state = PowerState(pc1=1.0, ps1=2.0, po1=3.0, pj1=4.0, pc2=5.0)
    channel = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=10.0, p2=5.0)
    validate_allocation(channel, *single(state))
    with pytest.raises(ValueError, match=r"^\(budget\): user 1: average power 10.0 > budget 9.0$"):
        validate_allocation(replace(channel, p1=9.0), *single(state))
    with pytest.raises(ValueError, match=r"^\(budget\): user 2: average power 5.0 > budget 4.0$"):
        validate_allocation(replace(channel, p2=4.0), *single(state))


def test_full_power_single_state_validates(fig2):
    validate_allocation(fig2, *single(PowerState(pc1=10.0)))


def test_negative_power_is_flagged(fig2):
    with pytest.raises(ValueError, match=r"^\(negative_power\): state 0: pj1=-1.0$"):
        validate_allocation(fig2, *single(PowerState(pj1=-1.0)))


def test_average_budget_violation(fig2):
    state = PowerState(pc1=30.0)
    with pytest.raises(ValueError, match=r"^\(budget\): user 1: "):
        validate_allocation(fig2, *allocation((0.5, state), (0.5, state)))


def test_non_finite_distinct_from_budget(fig2):
    with pytest.raises(ValueError, match=r"^\(non_finite\): state 0: pc1=nan$"):
        validate_allocation(fig2, *single(PowerState(pc1=float("nan"))))


def test_negative_weight_flagged(fig2):
    # negative weights are kept as read, not normalized, and reported
    weights, powers = allocation((-0.5, PowerState()), (1.5, PowerState()))
    assert weights == [-0.5, 1.5]
    with pytest.raises(ValueError, match=r"^\(negative_weight\): state 0: weight=-0.5$"):
        validate_allocation(fig2, weights, powers)


def test_boundary_budget_validates(fig2):
    # grid points that sit exactly on the budget must pass
    validate_allocation(fig2, *single(PowerState(pc1=7.0, pj1=3.0)))


def test_weights_normalized_at_construction():
    data = {"states": [{"weight": 0.3}, {"weight": 0.3, "pc1": 1.0}]}
    assert read_allocation(data)[0] == [0.5, 0.5]


def test_state_count_cap():
    # no cap: five states read
    weights, powers = read_allocation({"states": [{"weight": 0.2}] * 5})
    assert len(weights) == len(powers) == 5


def test_empty_states_rejected():
    with pytest.raises(ValueError, match="nonempty 'states' list"):
        read_allocation({"states": []})


def test_state_order_immaterial(fig2):
    a = PowerState(pc1=8.0)
    b = PowerState(pj2=4.0)
    fwd = allocation((0.25, a), (0.75, b))
    rev = allocation((0.75, b), (0.25, a))
    assert is_valid(fig2, *fwd) == is_valid(fig2, *rev)


@settings(max_examples=60, deadline=None)
@given(
    pc=st.floats(0, 12), pj=st.floats(0, 12),
    bump1=st.floats(0, 20), bump2=st.floats(0, 20),
)
def test_validation_monotone_in_budgets(pc, pj, bump1, bump2):
    base = ChannelParams(c12=1.0, c21=1.0, c1e=0.5, c2e=0.5, p1=10.0, p2=10.0)
    alloc = single(PowerState(pc1=pc, pj1=pj))
    if is_valid(base, *alloc):
        richer = ChannelParams(
            c12=1.0, c21=1.0, c1e=0.5, c2e=0.5,
            p1=base.p1 + bump1, p2=base.p2 + bump2,
        )
        assert is_valid(richer, *alloc)


def test_channel_json_round_trip(fig3):
    # the channel a sidecar writes reads back, as a config file's inline
    # values, as the same channel
    data = json.loads(json.dumps(fig3.to_dict()))
    assert set(data) == {"c12", "c21", "c1e", "c2e", "p1", "p2"}
    assert _resolve_channel(data) == fig3


def test_allocation_json_round_trip():
    # every key given, or the powers left out read as 0; the powers come
    # back in the order of PowerState's fields
    data = json.loads("""{"states": [
        {"weight": 0.25, "pc1": 4.0, "ps1": 0.0, "po1": 0.0, "pj1": 0.0,
         "pc2": 0.0, "ps2": 0.0, "po2": 0.0, "pj2": 1.0},
        {"weight": 0.75, "po1": 0.5, "ps2": 2.0}]}""")
    assert read_allocation(data) == (
        [0.25, 0.75],
        [list(astuple(PowerState(pc1=4.0, pj2=1.0))),
         list(astuple(PowerState(ps2=2.0, po1=0.5)))],
    )


def test_allocation_json_requires_states():
    for data in ({}, [], {"states": "x"}, {"states": {}}):
        with pytest.raises(ValueError, match="nonempty 'states' list"):
            read_allocation(data)


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
