from dataclasses import astuple

import numpy as np
import pytest

from gicee import (
    DECODABLE,
    RECEIVERS,
    PowerState,
    SignalIndex,
    gamma,
    mi_covariance_oracle,
)
from gicee.region import _BOUNDS, bound_rows
from conftest import (
    ReceiverView,
    allocation,
    conditional_mi,
    conditional_mi_timeshared,
    random_channel,
    receiver_view,
    single,
)

# bound_rows column of each (receiver, nonempty subset)
COLUMN = {(receiver, frozenset(subset)): k for k, (receiver, subset) in enumerate(_BOUNDS)}

# Closed-form reference values, frozen from 0.5*log2(1+x).
GAMMA_10 = 1.7297158093186487
GAMMA_20 = 2.1961587113893803
HALF_GAMMA_10 = 0.8648579046593243


def test_gamma_spot_values_exact():
    assert gamma(0) == 0.0
    assert gamma(1) == 0.5
    assert gamma(3) == 1.0


def test_gamma_rejects_bad_input():
    for bad in (-1e-9, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            gamma(bad)


def test_gamma_strictly_increasing():
    xs = np.linspace(0.0, 50.0, 200)
    values = [gamma(x) for x in xs]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_receiver_view_direct_signal(fig2):
    view = receiver_view(fig2, PowerState(pc1=10.0), "y1")
    assert view.effective[int(SignalIndex.C1)] == 10.0
    assert view.floor == 1.0
    assert all(view.effective[i] == 0.0 for i in view.effective if i != 1)


def test_receiver_view_jamming_floor(fig2):
    view = receiver_view(fig2, PowerState(pj2=10.0), "y1")
    assert all(v == 0.0 for v in view.effective.values())
    assert view.floor == pytest.approx(1.0 + 1.9 * 10.0, abs=1e-15)


def test_receiver_view_eavesdropper(fig3):
    view = receiver_view(fig3, PowerState(pc1=10.0), "ye")
    assert view.effective[int(SignalIndex.C1)] == pytest.approx(5.0)
    assert view.floor == 1.0


def test_receiver_view_keys_stay_decodable(fig3):
    rng = np.random.default_rng(7)
    for receiver in RECEIVERS:
        state = PowerState(*rng.uniform(0, 5, 8))
        view = receiver_view(fig3, state, receiver)
        assert set(view.effective) == set(DECODABLE[receiver])
        assert view.floor >= 1.0


def test_unknown_receiver_rejected(fig2):
    with pytest.raises(ValueError, match="receiver"):
        receiver_view(fig2, PowerState(), "y3")


def test_conditional_mi_single_signal(fig2):
    view = receiver_view(fig2, PowerState(pc1=10.0), "y1")
    assert conditional_mi(view, {1}) == pytest.approx(GAMMA_10, abs=1e-12)


def test_conditional_mi_empty_subset(fig2):
    view = receiver_view(fig2, PowerState(pc1=10.0), "y1")
    assert conditional_mi(view, set()) == 0.0


def test_conditional_mi_pair(fig3):
    view = receiver_view(fig3, PowerState(pc1=10.0, pc2=10.0), "y1")
    assert conditional_mi(view, {1, 4}) == pytest.approx(GAMMA_20, abs=1e-12)


def test_conditional_mi_rejects_undecodable(fig2):
    view = receiver_view(fig2, PowerState(), "y1")
    with pytest.raises(ValueError, match="not decodable"):
        conditional_mi(view, {3})


def test_timeshared_degenerate_equals_single(fig2):
    state = PowerState(pc1=4.0, pj2=2.0)
    direct = conditional_mi(receiver_view(fig2, state, "y1"), {1})
    averaged = conditional_mi_timeshared(fig2, *single(state), "y1", {1})
    assert averaged == pytest.approx(direct, abs=1e-15)


def test_timeshared_is_convex_combination(fig2):
    alloc = allocation((0.5, PowerState(pc1=10.0)), (0.5, PowerState()))
    value = conditional_mi_timeshared(fig2, *alloc, "y1", {1})
    assert value == pytest.approx(HALF_GAMMA_10, abs=1e-12)


def test_oracle_matches_closed_form_on_examples(fig2, fig3):
    cases = [
        (fig2, PowerState(pc1=10.0), "y1", {1}),
        (fig3, PowerState(pc1=10.0, pc2=10.0), "y1", {1, 4}),
        (fig3, PowerState(pc1=10.0), "ye", {1}),
    ]
    for channel, state, receiver, subset in cases:
        closed = conditional_mi(receiver_view(channel, state, receiver), subset)
        oracle = mi_covariance_oracle(channel, state, receiver, subset)
        assert abs(closed - oracle) <= 1e-12


def test_oracle_zero_power_exact(fig2):
    assert mi_covariance_oracle(fig2, PowerState(), "y1", {1, 2}) == 0.0


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(1000):
        channel = random_channel(rng)
        state = PowerState(*rng.uniform(0.0, 8.0, 8))
        receiver = RECEIVERS[rng.integers(0, 3)]
        subset = [i for i in sorted(DECODABLE[receiver]) if rng.uniform() < 0.5]
        closed = conditional_mi(receiver_view(channel, state, receiver), subset)
        oracle = mi_covariance_oracle(channel, state, receiver, subset)
        worst = max(worst, abs(closed - oracle))
    assert worst <= 1e-12


def state_row(channel, state):
    """``bound_rows`` of one state, (93,)."""
    return bound_rows(channel, np.array([astuple(state)]))[0]


def test_bound_rows_oracle_equivalence_randomized():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(1000):
        channel = random_channel(rng)
        state = PowerState(*rng.uniform(0.0, 8.0, 8))
        receiver = RECEIVERS[rng.integers(0, 3)]
        subset = [i for i in sorted(DECODABLE[receiver]) if rng.uniform() < 0.5]
        row = state_row(channel, state)
        closed = row[COLUMN[receiver, frozenset(subset)]] if subset else 0.0
        oracle = mi_covariance_oracle(channel, state, receiver, subset)
        worst = max(worst, abs(closed - oracle))
    assert worst <= 1e-12


def test_mi_monotone_in_subset_power_and_floor():
    base = ReceiverView(receiver="y1", effective={1: 2.0, 2: 1.0, 4: 0.0, 6: 0.0}, floor=2.0)
    more_power = ReceiverView(receiver="y1", effective={1: 3.0, 2: 1.0, 4: 0.0, 6: 0.0}, floor=2.0)
    more_floor = ReceiverView(receiver="y1", effective={1: 2.0, 2: 1.0, 4: 0.0, 6: 0.0}, floor=2.5)
    assert conditional_mi(more_power, {1, 2}) > conditional_mi(base, {1, 2})
    assert conditional_mi(more_floor, {1, 2}) < conditional_mi(base, {1, 2})


def test_chain_rule_additivity_exact():
    view = ReceiverView(
        receiver="y1", effective={1: 3.0, 2: 1.5, 4: 0.5, 6: 2.0}, floor=1.75
    )
    joint = conditional_mi(view, {1, 2, 4, 6})
    total_power = sum(view.effective.values())
    assert abs(joint - gamma(total_power / view.floor)) <= 1e-15


def test_subset_mi_is_normalized_monotone_submodular():
    rng = np.random.default_rng(99)
    for _ in range(25):
        channel = random_channel(rng)
        state = PowerState(*rng.uniform(0.0, 8.0, 8))
        view = receiver_view(channel, state, "y1")
        ground = sorted(DECODABLE["y1"])
        subsets = [
            frozenset(ground[k] for k in range(4) if mask >> k & 1)
            for mask in range(16)
        ]
        f = {s: conditional_mi(view, s) for s in subsets}
        assert f[frozenset()] == 0.0
        for small in subsets:
            for big in subsets:
                if small <= big:
                    assert f[small] <= f[big] + 1e-12
                    for i in ground:
                        if i not in big:
                            gain_small = f[small | {i}] - f[small]
                            gain_big = f[big | {i}] - f[big]
                            assert gain_small >= gain_big - 1e-12


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_bound_rows_subset_mi_is_normalized_monotone_submodular(receiver):
    rng = np.random.default_rng(99)
    ground = sorted(DECODABLE[receiver])
    subsets = [
        frozenset(ground[k] for k in range(len(ground)) if mask >> k & 1)
        for mask in range(2 ** len(ground))
    ]
    for _ in range(25):
        channel = random_channel(rng)
        state = PowerState(*rng.uniform(0.0, 8.0, 8))
        row = state_row(channel, state)
        f = {s: float(row[COLUMN[receiver, s]]) if s else 0.0 for s in subsets}
        assert f[frozenset()] == 0.0
        for small in subsets:
            for big in subsets:
                if small <= big:
                    assert f[small] <= f[big] + 1e-12
                    for i in ground:
                        if i not in big:
                            gain_small = f[small | {i}] - f[small]
                            gain_big = f[big | {i}] - f[big]
                            assert gain_small >= gain_big - 1e-12
