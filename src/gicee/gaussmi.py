"""Conditional mutual information terms for Gaussian superposition inputs.

Each transmitter sends the sum of three independent Gaussian codeword
components (common, self, other) plus independent Gaussian jamming noise.
Every rate bound in the region construction is then a conditional mutual
information between a subset of those components and one receiver's scalar
observation, which collapses to ``gamma(subset power / noise floor)``.

This module holds the signal bookkeeping of :func:`gicee.region.bound_rows`,
the closed SNR form of every bound, and the lone-user baseline rate; the
bounds' oracle is :func:`gicee.validation.mi_covariance_oracle`.
"""

from __future__ import annotations

import math
from enum import IntEnum

_LN2 = math.log(2.0)


class SignalIndex(IntEnum):
    """The six codeword components, in the fixed global order."""

    C1 = 1
    S1 = 2
    O1 = 3
    C2 = 4
    S2 = 5
    O2 = 6


RECEIVERS = ("y1", "y2", "ye")

# Components a receiver decodes; everything else it sees is noise floor.
# Receiver 1 decodes both common signals, its own self signal and the other
# user's "other" signal; receiver 2 symmetrically; the eavesdropper view
# treats all six as decodable for bookkeeping purposes.
DECODABLE: dict[str, frozenset[int]] = {
    "y1": frozenset({SignalIndex.C1, SignalIndex.S1, SignalIndex.C2, SignalIndex.O2}),
    "y2": frozenset({SignalIndex.C1, SignalIndex.O1, SignalIndex.C2, SignalIndex.S2}),
    "ye": frozenset(SignalIndex),
}


def gamma(x: float) -> float:
    """Gaussian channel rate at SNR ``x`` in bits per channel use: 0.5*log2(1+x)."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x < 0:
        raise ValueError(f"gamma needs a finite nonnegative SNR, got {x!r}")
    return 0.5 * math.log1p(x) / _LN2


def clamp_rate(x: float) -> float:
    """Nonnegative part, [x]+ = max(0, x)."""
    return x if x > 0.0 else 0.0


def single_user_wiretap(power: float, eve_gain: float) -> float:
    """Wiretap rate of a lone user: [gamma(P) - gamma(g_e P)]+."""
    if not (math.isfinite(power) and math.isfinite(eve_gain)) or power < 0 or eve_gain < 0:
        raise ValueError("power and eve_gain must be finite and nonnegative")
    return clamp_rate(gamma(power) - gamma(eve_gain * power))
