import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
import pytest

from gicee import (
    DECODABLE,
    RECEIVERS,
    ChannelParams,
    PowerState,
    SignalIndex,
    TimeSharedAllocation,
    clamp_rate,
    gamma,
    pareto_merge,
    preset,
)
from gicee.model import BUDGET_TOL


@pytest.fixture
def fig2() -> ChannelParams:
    return preset("fig2")


@pytest.fixture
def fig3() -> ChannelParams:
    return preset("fig3")


def random_channel(rng: np.random.Generator) -> ChannelParams:
    return ChannelParams(
        c12=rng.uniform(0.0, 2.5),
        c21=rng.uniform(0.0, 2.5),
        c1e=rng.uniform(0.0, 1.2),
        c2e=rng.uniform(0.0, 1.2),
        p1=rng.uniform(1.0, 15.0),
        p2=rng.uniform(1.0, 15.0),
    )


def random_state(rng: np.random.Generator, p1: float, p2: float) -> PowerState:
    """A state that always respects the per-user budgets."""
    shares = rng.uniform(0.0, 1.0, 8)
    u1 = shares[:4] / max(shares[:4].sum(), 1e-12) * p1 * rng.uniform(0.0, 1.0)
    u2 = shares[4:] / max(shares[4:].sum(), 1e-12) * p2 * rng.uniform(0.0, 1.0)
    return PowerState(*u1, *u2)


def single(state: PowerState) -> TimeSharedAllocation:
    return TimeSharedAllocation.single_state(state)


def sample_nonneg_bracket_params(rng, channel, count, max_tries=20000):
    """Time-division operating points whose rate brackets are nonnegative.

    Codeword powers are zeroed with some probability: on channels with a
    strong eavesdropper link one user may only ever contribute jamming.
    """
    out = []
    for _ in range(max_tries):
        if len(out) >= count:
            break
        alpha = rng.uniform(0.1, 0.9)
        u1, v1, w1 = rng.uniform(0, 1, 3)
        u2, v2, w2 = rng.uniform(0, 1, 3)
        p1b = u1 * channel.p1 / alpha * v1
        p1j1 = u1 * channel.p1 / alpha * (1 - v1)
        p1j2 = (1 - u1) * channel.p1 / (1 - alpha) * w1
        p2j1 = u2 * channel.p2 / alpha * w2
        p2b = (1 - u2) * channel.p2 / (1 - alpha) * v2
        p2j2 = (1 - u2) * channel.p2 / (1 - alpha) * (1 - v2)
        if rng.uniform() < 0.3:
            p1b = 0.0
        if rng.uniform() < 0.3:
            p2b = 0.0
        a1 = gamma(p1b / (1 + p1j1 + channel.c21 * p2j1))
        b1 = gamma(channel.c1e * p1b / (1 + channel.c1e * p1j1 + channel.c2e * p2j1))
        a2 = gamma(p2b / (1 + p2j2 + channel.c12 * p1j2))
        b2 = gamma(channel.c2e * p2b / (1 + channel.c2e * p2j2 + channel.c1e * p1j2))
        if a1 < b1 or a2 < b2:
            continue
        params = CtdmaParams(alpha, p1b, p1j1, p2j1, p2b, p2j2, p1j2)
        out.append((params, a1, b1, a2, b2))
    return out


# Scalar oracles the tests check the program against; the program itself
# has no use for them.

def support(frontier, theta):
    """Support value max(cos(theta) r1 + sin(theta) r2) of a frontier; -inf
    if it is empty."""
    if not frontier.points:
        return -math.inf
    ct, st = math.cos(theta), math.sin(theta)
    return max(ct * r1 + st * r2 for r1, r2 in frontier.points)


def dominates(big, small, *, tol=1e-9):
    """True if the region of frontier ``big`` contains that of ``small``, up
    to ``tol``.

    Exact vertex test against the convex hull of ``big``: every point of
    ``small`` may pass the hull's right end by ``e1`` and its boundary above
    by ``e2`` only with ``e1 + e2 <= tol``, so its support value exceeds
    ``big``'s by at most ``tol`` in every direction.
    """
    if small.is_empty:
        return True
    if big.is_empty:
        return False
    hull = pareto_merge([big])
    right = hull.max_r1
    for r1, r2 in small.points:
        beyond = max(r1 - right, 0.0)
        above = max(r2 - hull.r2_at(min(r1, right)), 0.0)
        if beyond + above > tol:
            return False
    return True


def check_point(system, x):
    """Minimum slack of a point in a RateSystem: nonnegative iff the point
    is feasible.

    Inequalities contribute ``b - a.x``, equalities ``-|a.x - b|`` and the
    sign constraints ``min(x)``.
    """
    x = np.asarray(x, dtype=float)
    slack = float(np.min(system.b_ub - system.a_ub @ x))
    if system.n_equalities:
        slack = min(slack, float(-np.max(np.abs(system.a_eq @ x - system.b_eq))))
    return min(slack, float(np.min(x)))


@dataclass(frozen=True)
class ReceiverView:
    """One receiver's take on a power state.

    ``effective`` maps each decodable component to its received power;
    ``floor`` is the total undecodable received power plus the unit noise.
    """

    receiver: str
    effective: Mapping[int, float]
    floor: float

    def __post_init__(self) -> None:
        if self.receiver not in DECODABLE:
            raise ValueError(f"receiver must be one of {RECEIVERS}, got {self.receiver!r}")
        if not self.floor >= 1.0:
            raise ValueError(f"floor must be at least the unit noise, got {self.floor!r}")
        extra = set(self.effective) - DECODABLE[self.receiver]
        if extra:
            raise ValueError(f"effective powers outside the decodable set: {sorted(extra)}")
        if any(not v >= 0.0 for v in self.effective.values()):
            raise ValueError("effective powers must be nonnegative")

    def subset_power(self, subset: Iterable[int]) -> float:
        indices = frozenset(int(i) for i in subset)
        extra = indices - DECODABLE[self.receiver]
        if extra:
            raise ValueError(
                f"subset {sorted(indices)} not decodable at {self.receiver}"
                f" (offending: {sorted(extra)})"
            )
        return sum(self.effective[i] for i in indices)


def receiver_view(channel, state, receiver):
    """Received per-component powers and the noise floor at one receiver,
    written out from the channel equations (scalar oracle of the power maps
    of ``region.bound_rows``)."""
    if receiver == "y1":
        effective = {
            int(SignalIndex.C1): state.pc1,
            int(SignalIndex.S1): state.ps1,
            int(SignalIndex.C2): channel.c21 * state.pc2,
            int(SignalIndex.O2): channel.c21 * state.po2,
        }
        floor = 1.0 + state.po1 + state.pj1 + channel.c21 * (state.ps2 + state.pj2)
    elif receiver == "y2":
        effective = {
            int(SignalIndex.C1): channel.c12 * state.pc1,
            int(SignalIndex.O1): channel.c12 * state.po1,
            int(SignalIndex.C2): state.pc2,
            int(SignalIndex.S2): state.ps2,
        }
        floor = 1.0 + channel.c12 * (state.ps1 + state.pj1) + state.po2 + state.pj2
    elif receiver == "ye":
        effective = {
            int(SignalIndex.C1): channel.c1e * state.pc1,
            int(SignalIndex.S1): channel.c1e * state.ps1,
            int(SignalIndex.O1): channel.c1e * state.po1,
            int(SignalIndex.C2): channel.c2e * state.pc2,
            int(SignalIndex.S2): channel.c2e * state.ps2,
            int(SignalIndex.O2): channel.c2e * state.po2,
        }
        floor = 1.0 + channel.c1e * state.pj1 + channel.c2e * state.pj2
    else:
        raise ValueError(f"receiver must be one of {RECEIVERS}, got {receiver!r}")
    return ReceiverView(receiver=receiver, effective=effective, floor=floor)


def conditional_mi(view, subset):
    """MI between the subset's components and the observation, conditioned on
    the rest of the decodable set.

    With independent Gaussian components, conditioning on the complement
    removes its received power from the observation, so the value is
    ``gamma(subset power / floor)``.
    """
    return gamma(view.subset_power(subset) / view.floor)


def conditional_mi_timeshared(channel, alloc, receiver, subset):
    """Weighted average of the per-state conditional MI over the time
    shares (scalar oracle of ``region.bound_rows``)."""
    subset = frozenset(int(i) for i in subset)
    return sum(
        w * conditional_mi(receiver_view(channel, state, receiver), subset)
        for w, state in alloc.states
    )


@dataclass(frozen=True)
class CtdmaParams:
    """Two-slot time division: slot 1 belongs to user 1, slot 2 to user 2.

    ``p1b``/``p2b`` are codeword powers in the owner's slot, ``pkj1``/``pkj2``
    the jamming powers user k spends in slot 1 and slot 2.
    """

    alpha: float
    p1b: float = 0.0
    p1j1: float = 0.0
    p2j1: float = 0.0
    p2b: float = 0.0
    p2j2: float = 0.0
    p1j2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "p1b", "p1j1", "p2j1", "p2b", "p2j2", "p1j2"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.alpha > 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")

    def budget_violation(self, channel):
        a, ab = self.alpha, 1.0 - self.alpha
        used1 = a * (self.p1b + self.p1j1) + ab * self.p1j2
        if used1 > channel.p1 + BUDGET_TOL:
            return f"user 1 average power {used1} exceeds budget {channel.p1}"
        used2 = a * self.p2j1 + ab * (self.p2b + self.p2j2)
        if used2 > channel.p2 + BUDGET_TOL:
            return f"user 2 average power {used2} exceeds budget {channel.p2}"
        return None


def ctdma_rates(channel, params):
    """Closed-form secrecy rate pair of one time-division operating point
    (scalar oracle of ``schemes._slot_arrays``).

    Each slot is a wiretap channel whose receiver and eavesdropper noise
    floors include the slot's jamming; the rate difference is clamped at
    zero before scaling by the slot length.
    """
    violation = params.budget_violation(channel)
    if violation:
        raise ValueError(violation)
    a, ab = params.alpha, 1.0 - params.alpha
    r1 = a * clamp_rate(
        gamma(params.p1b / (1.0 + params.p1j1 + channel.c21 * params.p2j1))
        - gamma(
            channel.c1e * params.p1b
            / (1.0 + channel.c1e * params.p1j1 + channel.c2e * params.p2j1)
        )
    )
    r2 = ab * clamp_rate(
        gamma(params.p2b / (1.0 + params.p2j2 + channel.c12 * params.p1j2))
        - gamma(
            channel.c2e * params.p2b
            / (1.0 + channel.c2e * params.p2j2 + channel.c1e * params.p1j2)
        )
    )
    return r1, r2


def ctdma_allocation(params):
    """The two-state allocation realizing a time-division operating point.

    The slot owner's codeword rides its self signal (decoded only by its own
    receiver); everything else in the slot is jamming.
    """
    slot1 = PowerState(ps1=params.p1b, pj1=params.p1j1, pj2=params.p2j1)
    slot2 = PowerState(ps2=params.p2b, pj2=params.p2j2, pj1=params.p1j2)
    return TimeSharedAllocation(
        states=((params.alpha, slot1), (1.0 - params.alpha, slot2))
    )
