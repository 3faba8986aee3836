"""Channel instances and time-shared power allocations.

The channel is kept in standard form: direct gains and every noise variance
are normalized to 1, so an instance is fully described by four cross gains
and two average power budgets.  An allocation time-shares weighted power
states and is two lists: the weights, and per state the eight powers in
the order of ``PowerState``'s fields.  Reading and checking one loads no
numpy, so a bad allocation file is refused before numpy loads.
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
    """A JSON number as a float.  A string is refused, though ``float``
    parses one, and so is a boolean, though Python counts it as the number
    0 or 1."""
    if isinstance(value, (bool, str)):
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


def read_allocation(data) -> tuple[list[float], list[list[float]]]:
    """The weights and per-state powers of an allocation JSON object; a
    power left out reads as 0.  The weights are normalized to sum to one
    whenever they are all finite and nonnegative with a positive sum;
    anything else is kept as-is so that :func:`validate_allocation` can
    report it."""
    raw = data.get("states") if isinstance(data, dict) else None
    if not isinstance(raw, list) or not raw:
        raise ValueError("allocation JSON needs a nonempty 'states' list")
    if not all(isinstance(entry, dict) for entry in raw):
        raise ValueError("every allocation state must be a JSON object")
    # a mistyped key would otherwise read as a power of 0 or a missing weight
    unknown = sorted(set(data) - {"states"}) + sorted(
        {key for entry in raw for key in entry} - {"weight", *_STATE_FIELDS})
    if unknown:
        raise ValueError(f"allocation JSON has unknown keys {unknown}; it takes 'states', "
                         f"each a JSON object of {['weight', *_STATE_FIELDS]}")
    weights, powers = [], []
    for idx, entry in enumerate(raw):
        if "weight" not in entry:
            raise ValueError(f"state {idx} has no 'weight'")
        weights.append(_number(entry["weight"], "weight"))
        powers.append([_number(entry.get(name, 0.0), name) for name in _STATE_FIELDS])
    if all(math.isfinite(w) and w >= 0 for w in weights):
        total = sum(weights)
        if total > 0:
            weights = [w / total for w in weights]
    return weights, powers


def validate_allocation(channel: ChannelParams, weights, powers) -> None:
    """Check weights, power signs and the averaged power budgets.

    Raises ValueError, its message ``(code): detail``, unless every weight
    is a finite probability, every power is finite and nonnegative, and
    the weighted average of codeword-plus-jamming power stays within each
    user's budget, up to ``BUDGET_TOL`` times the budget or 1, whichever
    is larger.  The code names the first check that fails: ``non_finite``,
    ``negative_weight``, ``negative_power``, ``weight_sum`` or ``budget``.
    """
    fields = [(idx, name, value)
              for idx, (weight, state) in enumerate(zip(weights, powers, strict=True))
              for name, value in (("weight", weight), *zip(_STATE_FIELDS, state))]
    for idx, name, value in fields:
        if not math.isfinite(value):
            raise ValueError(f"(non_finite): state {idx}: {name}={value!r}")
    for idx, name, value in fields:
        if value < 0:
            code = "negative_weight" if name == "weight" else "negative_power"
            raise ValueError(f"({code}): state {idx}: {name}={value!r}")
    total = sum(weights)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"(weight_sum): weights sum to {total!r}")
    for user, budget in ((1, channel.p1), (2, channel.p2)):
        at = 4 * (user - 1)
        used = sum(w * (((p[at] + p[at + 1]) + p[at + 2]) + p[at + 3])
                   for w, p in zip(weights, powers))
        if used > budget + BUDGET_TOL * max(1.0, budget):
            raise ValueError(f"(budget): user {user}: average power {used!r} > budget {budget!r}")
