"""Channel instances and time-shared power allocations.

The channel is kept in standard form: direct gains and every noise variance
are normalized to 1, so an instance is fully described by four cross gains
and two average power budgets.  Transmit strategies are lists of weighted
power states; each state splits a user's power into a common, self, other
and jamming component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Power checks accept values this far past the cap (times caps above 1 in
# validate_allocation), so budget-exact states pass after float rounding.
BUDGET_TOL = 1e-12

# Ceiling on a sweep's largest per-state power, alone and times the largest
# channel gain.  Every noise floor and SNR a sweep forms is a sum of a few
# such terms, so below it all powers and rates stay finite.
MAX_POWER = 1e150

_PRESETS = {
    "fig2": (1.9, 1.9, 0.5, 0.5, 10.0, 10.0),
    "fig3": (1.9, 1.0, 0.5, 1.6, 10.0, 10.0),
}

_CHANNEL_FIELDS = ("c12", "c21", "c1e", "c2e", "p1", "p2")
_STATE_FIELDS = ("pc1", "ps1", "po1", "pj1", "pc2", "ps2", "po2", "pj2")


@dataclass(frozen=True)
class ChannelParams:
    """A two-user Gaussian interference channel with an external eavesdropper.

    ``c12``/``c21`` are the cross gains between the user pairs, ``c1e``/``c2e``
    the gains toward the eavesdropper, ``p1``/``p2`` the average power budgets
    (in units of the unit noise variance).
    """

    c12: float
    c21: float
    c1e: float
    c2e: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name in _CHANNEL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"channel field {name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"channel field {name} must be nonnegative, got {value!r}")

    def check_power_scale(self, stretch: int) -> None:
        """Raise ValueError unless per-state powers up to ``stretch`` times
        the budgets keep every power and SNR of a sweep within ``MAX_POWER``.
        """
        gain = max(1.0, self.c12, self.c21, self.c1e, self.c2e)
        peak = max(self.p1, self.p2) * gain
        # int-float comparison is exact, so a huge stretch cannot overflow
        if peak > 0 and stretch > MAX_POWER / peak:
            raise ValueError(
                f"budgets ({self.p1!r}, {self.p2!r}) stretched {stretch}-fold at "
                f"gain {gain!r} exceed the power ceiling {MAX_POWER:g}"
            )

    def to_dict(self) -> dict:
        return {name: float(getattr(self, name)) for name in _CHANNEL_FIELDS}


def _number(value, name: str) -> float:
    """A JSON field as a float; a boolean is refused, though Python counts
    it as the number 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def preset(name: str) -> ChannelParams:
    """Return one of the two built-in example channels (``fig2``, ``fig3``)."""
    values = _PRESETS.get(name) if isinstance(name, str) else None
    if values is None:
        known = ", ".join(sorted(_PRESETS))
        raise ValueError(f"unknown preset {name!r} (known: {known})")
    return ChannelParams(*values)


@dataclass(frozen=True)
class PowerState:
    """Per-state transmit powers: common, self, other and jamming, per user."""

    pc1: float = 0.0
    ps1: float = 0.0
    po1: float = 0.0
    pj1: float = 0.0
    pc2: float = 0.0
    ps2: float = 0.0
    po2: float = 0.0
    pj2: float = 0.0

    @classmethod
    def from_dict(cls, data: dict) -> "PowerState":
        return cls(**{name: _number(data.get(name, 0.0), name) for name in _STATE_FIELDS})


@dataclass(frozen=True)
class TimeSharedAllocation:
    """A weighted list of power states realizing a time-sharing strategy.

    Weights are normalized to sum to one at construction whenever they are
    all finite and nonnegative with a positive sum; anything else is kept
    as-is so that :func:`validate_allocation` can report it.
    """

    states: tuple[tuple[float, PowerState], ...]

    def __post_init__(self) -> None:
        states = tuple((float(w), s) for w, s in self.states)
        if not states:
            raise ValueError("allocation needs at least one state")
        weights = [w for w, _ in states]
        if all(math.isfinite(w) and w >= 0 for w in weights):
            total = sum(weights)
            if total > 0:
                states = tuple((w / total, s) for w, s in states)
        object.__setattr__(self, "states", states)

    @classmethod
    def single_state(cls, state: PowerState) -> "TimeSharedAllocation":
        return cls(states=((1.0, state),))

    def average_power(self, user: int) -> float:
        """Average total transmit power (codeword plus jamming) of a user."""
        if user == 1:
            return sum(w * (s.pc1 + s.ps1 + s.po1 + s.pj1) for w, s in self.states)
        if user == 2:
            return sum(w * (s.pc2 + s.ps2 + s.po2 + s.pj2) for w, s in self.states)
        raise ValueError(f"user must be 1 or 2, got {user}")

    @classmethod
    def from_dict(cls, data: dict) -> "TimeSharedAllocation":
        raw = data.get("states") if isinstance(data, dict) else None
        if not isinstance(raw, list) or not raw:
            raise ValueError("allocation JSON needs a nonempty 'states' list")
        if not all(isinstance(entry, dict) for entry in raw):
            raise ValueError("every allocation state must be a JSON object")
        # a mistyped key would otherwise read as a power or weight of 0
        unknown = sorted(set(data) - {"states"}) + sorted(
            {key for entry in raw for key in entry} - {"weight", *_STATE_FIELDS})
        if unknown:
            raise ValueError(f"allocation JSON has unknown keys {unknown}; it takes 'states', "
                             f"each a JSON object of {['weight', *_STATE_FIELDS]}")
        states = tuple(
            (_number(entry.get("weight", 0.0), "weight"), PowerState.from_dict(entry))
            for entry in raw
        )
        return cls(states=states)


# Violation codes reported by validate_allocation.
NON_FINITE = "non_finite"
NEGATIVE_WEIGHT = "negative_weight"
NEGATIVE_POWER = "negative_power"
WEIGHT_SUM = "weight_sum"
BUDGET = "budget"


@dataclass(frozen=True)
class AllocationReport:
    """Outcome of validating an allocation against a channel's budgets."""

    ok: bool
    code: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_allocation(
    channel: ChannelParams, alloc: TimeSharedAllocation
) -> AllocationReport:
    """Check weights, power signs and the averaged power budgets.

    Returns an ok report iff every weight is a finite probability, every
    power component is finite and nonnegative, and the weighted average of
    codeword-plus-jamming power stays within each user's budget, up to
    ``BUDGET_TOL`` times the budget or 1, whichever is larger.
    """
    for idx, (weight, state) in enumerate(alloc.states):
        if not math.isfinite(weight):
            return AllocationReport(False, NON_FINITE, f"state {idx}: weight={weight!r}")
        for name in _STATE_FIELDS:
            value = getattr(state, name)
            if not math.isfinite(value):
                return AllocationReport(
                    False, NON_FINITE, f"state {idx}: {name}={value!r}"
                )
    for idx, (weight, state) in enumerate(alloc.states):
        if weight < 0:
            return AllocationReport(
                False, NEGATIVE_WEIGHT, f"state {idx}: weight={weight!r}"
            )
        for name in _STATE_FIELDS:
            value = getattr(state, name)
            if value < 0:
                return AllocationReport(
                    False, NEGATIVE_POWER, f"state {idx}: {name}={value!r}"
                )
    total = sum(w for w, _ in alloc.states)
    if abs(total - 1.0) > 1e-12:
        return AllocationReport(False, WEIGHT_SUM, f"weights sum to {total!r}")
    for user, budget in ((1, channel.p1), (2, channel.p2)):
        used = alloc.average_power(user)
        if used > budget + BUDGET_TOL * max(1.0, budget):
            return AllocationReport(
                False, BUDGET, f"user {user}: average power {used!r} > budget {budget!r}"
            )
    return AllocationReport(True)
