"""Conditional mutual information terms for Gaussian superposition inputs.

Each transmitter sends the sum of three independent Gaussian codeword
components (common, self, other) plus independent Gaussian jamming noise.
Every rate bound in the region construction is then a conditional mutual
information between a subset of those components and one receiver's scalar
observation, which collapses to ``gamma(subset power / noise floor)``.

The closed SNR form of every bound is :func:`gicee.region.bound_rows`; this
module holds the signal bookkeeping it is built from and a
covariance-determinant path (:func:`mi_covariance_oracle`) kept as an
independent cross-check of it.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import Iterable

from .model import ChannelParams, PowerState

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


def _received_amplitudes(channel: ChannelParams, receiver: str) -> tuple[dict, float, float]:
    """Amplitude of each component and of the two jamming signals at a receiver."""
    if receiver == "y1":
        a1, a2 = 1.0, math.sqrt(channel.c21)
    elif receiver == "y2":
        a1, a2 = math.sqrt(channel.c12), 1.0
    elif receiver == "ye":
        a1, a2 = math.sqrt(channel.c1e), math.sqrt(channel.c2e)
    else:
        raise ValueError(f"receiver must be one of {RECEIVERS}, got {receiver!r}")
    amps = {
        int(SignalIndex.C1): a1,
        int(SignalIndex.S1): a1,
        int(SignalIndex.O1): a1,
        int(SignalIndex.C2): a2,
        int(SignalIndex.S2): a2,
        int(SignalIndex.O2): a2,
    }
    return amps, a1, a2


_STATE_POWER = {
    int(SignalIndex.C1): "pc1",
    int(SignalIndex.S1): "ps1",
    int(SignalIndex.O1): "po1",
    int(SignalIndex.C2): "pc2",
    int(SignalIndex.S2): "ps2",
    int(SignalIndex.O2): "po2",
}


def mi_covariance_oracle(
    channel: ChannelParams,
    state: PowerState,
    receiver: str,
    subset: Iterable[int],
) -> float:
    """Covariance-determinant evaluation of one conditional MI bound.

    Builds the scalar observation directly from the channel equations and
    computes 0.5*log2(var(Y | complement) / var(Y | complement, subset))
    through Schur complements of the joint covariance.  The variances are
    exact rationals of the float inputs, so the subtraction in each Schur
    complement cannot cancel; only the final logarithm rounds.  Kept as a
    second, formula-independent path for validation; not used by the
    region code.
    """
    decodable = DECODABLE[receiver]
    subset = frozenset(int(i) for i in subset)
    extra = subset - decodable
    if extra:
        raise ValueError(
            f"subset {sorted(subset)} not decodable at {receiver}"
            f" (offending: {sorted(extra)})"
        )
    complement = decodable - subset
    # Imported here so that only the validation path loads it, not every
    # command's start-up.
    from fractions import Fraction

    amps, a1, a2 = _received_amplitudes(channel, receiver)
    amps = {i: Fraction(a) for i, a in amps.items()}
    a1, a2 = Fraction(a1), Fraction(a2)
    powers = {i: Fraction(getattr(state, _STATE_POWER[i])) for i in range(1, 7)}

    # Anything outside the decodable set stays unexplained, as does jamming.
    base_noise = 1 + a1 * a1 * Fraction(state.pj1) + a2 * a2 * Fraction(state.pj2)
    base_noise += sum(amps[i] ** 2 * powers[i] for i in range(1, 7) if i not in decodable)
    var_y = base_noise + sum(amps[i] ** 2 * powers[i] for i in decodable)

    def conditional_var(cond: frozenset[int]) -> Fraction:
        # Zero-power components are almost-surely zero; conditioning on them
        # is a no-op and would only make the covariance singular.
        cond = sorted(i for i in cond if powers[i] > 0)
        # The components are independent, so the covariance of the
        # conditioning set is diagonal and its solve is a division.
        cross = [amps[i] * powers[i] for i in cond]
        explained = sum(c * c / powers[i] for c, i in zip(cross, cond))
        return var_y - explained

    ratio = conditional_var(complement) / conditional_var(complement | subset)
    return 0.5 * math.log(ratio) / _LN2
