"""Damping channels: lowering monomials (a^dag)^j a^k with nonnegative rates.

The four standard channels are linear loss ``a``, two-photon loss ``a^2``,
three-photon loss ``a^3`` and the nonlinear absorber ``a^dag a a`` that
cascades any occupation down to the one-photon level and then goes dark.
Rates are dimensionless: everything is expressed in units of one reference
rate, which also sets the unit of time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class JumpChannel:
    """Dissipation channel with jump operator (a^dag)^creation_power a^annihilation_power.

    Every channel must lower the photon number by at least one
    (``annihilation_power - creation_power >= 1``); nothing in the model
    pumps excitations back up.
    """

    creation_power: int
    annihilation_power: int
    rate: float

    def __post_init__(self):
        j, k = self.creation_power, self.annihilation_power
        if not (isinstance(j, (int, np.integer)) and isinstance(k, (int, np.integer))):
            raise TypeError("operator powers must be integers")
        if j < 0:
            raise ValueError(f"creation power must be >= 0, got {j}")
        if k < 1:
            raise ValueError(f"annihilation power must be >= 1, got {k}")
        if k - j < 1:
            raise ValueError(f"channel must lower the photon number: k - j = {k - j}")
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")

    @property
    def net_lowering(self) -> int:
        return self.annihilation_power - self.creation_power


def linear_loss(rate: float) -> JumpChannel:
    """Single-photon loss, jump operator a."""
    return JumpChannel(0, 1, rate)


def two_photon_loss(rate: float) -> JumpChannel:
    """Pairwise loss, jump operator a^2; preserves photon-number parity classes."""
    return JumpChannel(0, 2, rate)


def three_photon_loss(rate: float) -> JumpChannel:
    """Triplet loss, jump operator a^3; preserves photon number mod 3."""
    return JumpChannel(0, 3, rate)


def nonlinear_loss(rate: float) -> JumpChannel:
    """Number-weighted single-photon loss, jump operator a^dag a a.

    Dark on the vacuum and the one-photon state, so it funnels any input
    with no vacuum component into exactly one photon.
    """
    return JumpChannel(1, 2, rate)


def lowering_weight(channel: JumpChannel, n: int) -> float:
    """|<n - d| L |n>|^2 for the lowering monomial L, zero when n < annihilation_power."""
    j, k = channel.creation_power, channel.annihilation_power
    if n < k:
        return 0.0
    w = 1.0
    for i in range(k):  # falling factorial n!/(n-k)!
        w *= n - i
    v = n - k
    for i in range(1, j + 1):  # rising factorial (v+1)...(v+j)
        w *= v + i
    return w


def lowering_amplitudes(channel: JumpChannel, nmax: int) -> np.ndarray:
    """amp[n] = <n - d| L |n> over the truncated basis (nonnegative reals).

    Raises DimensionMismatch when L annihilates every level up to ``nmax``:
    such a channel with a positive rate would leave the state untouched.
    """
    if channel.annihilation_power > nmax:
        raise DimensionMismatch(
            f"a^{channel.annihilation_power} annihilates the whole space at nmax={nmax}"
        )
    return np.sqrt([lowering_weight(channel, n) for n in range(nmax + 1)])


@dataclass(frozen=True)
class KerrTerm:
    """Self-phase-modulation Hamiltonian term: strength * a^dag a^dag a a.

    Commutes with the photon number, so it rotates coherences only; all
    populations are independent of it. The linear mode frequency is already
    removed by working in the rotating frame.
    """

    strength: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.strength):
            raise ValueError("Kerr strength must be finite")
