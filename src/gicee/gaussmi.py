"""Conditional mutual information terms for Gaussian superposition inputs.

Each transmitter sends the sum of three independent Gaussian codeword
components (common, self, other) plus independent Gaussian jamming noise.
Every rate bound in the region construction is then a conditional mutual
information between a subset of those components and one receiver's scalar
observation, which collapses to ``gamma(subset power / noise floor)``.

Two evaluation paths are provided: the closed SNR form used everywhere, and
a covariance-determinant path (:func:`mi_covariance_oracle`) kept as an
independent cross-check for the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping

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


def receiver_view(
    channel: ChannelParams, state: PowerState, receiver: str
) -> ReceiverView:
    """Received per-component powers and the noise floor at one receiver."""
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


def conditional_mi(view: ReceiverView, subset: Iterable[int]) -> float:
    """MI between the subset's components and the observation, conditioned on
    the rest of the decodable set.

    With independent Gaussian components, conditioning on the complement
    removes its received power from the observation, so the value is
    ``gamma(subset power / floor)``.
    """
    return gamma(view.subset_power(subset) / view.floor)


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
    """Covariance-determinant evaluation of :func:`conditional_mi`.

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
