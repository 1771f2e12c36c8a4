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
from typing import NamedTuple

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


def lowering_weight(channel: JumpChannel, n):
    """|<n - d| L |n>|^2 for the lowering monomial L, zero when n < annihilation_power;
    ``n`` is a level or an integer array of levels."""
    j, k = channel.creation_power, channel.annihilation_power
    n = np.asarray(n)
    w = np.ones(n.shape)
    for i in range(k):  # falling factorial n!/(n-k)!
        w *= n - i
    for i in range(1, j + 1):  # rising factorial (n-k+1)...(n-k+j)
        w *= n - k + i
    w = np.where(n < k, 0.0, w)
    return w if w.ndim else float(w)


def lowering_amplitudes(channel: JumpChannel, nmax: int) -> np.ndarray:
    """amp[n] = <n - d| L |n> over the truncated basis (nonnegative reals).

    Raises DimensionMismatch when L annihilates every level up to ``nmax``:
    such a channel with a positive rate would leave the state untouched.
    """
    if channel.annihilation_power > nmax:
        raise DimensionMismatch(
            f"a^{channel.annihilation_power} annihilates the whole space at nmax={nmax}"
        )
    return np.sqrt(lowering_weight(channel, np.arange(nmax + 1)))


class LossTable(NamedTuple):
    """The active channels of a mix over levels 0..nmax: channel c takes level n
    to n - lowerings[c] at rates[c] * amps[c, n]**2, and loss[n] sums those.
    A table of several mixes (``loss_tables``) leads ``rates`` and ``loss``
    with an axis of mixes: mix m runs channel c at rates[m, c]."""

    rates: np.ndarray  # (channels,), or (mixes, channels)
    lowerings: np.ndarray  # (channels,) net lowering d of each channel
    amps: np.ndarray  # (channels, levels) lowering_amplitudes rows
    loss: np.ndarray  # (levels,), or (mixes, levels)


def _kind(channel: JumpChannel) -> tuple[int, int]:
    return channel.creation_power, channel.annihilation_power


def loss_tables(channel_sets, nmax: int) -> LossTable:
    """One LossTable of several mixes over levels 0..nmax, each mix's row
    bitwise its own ``loss_table``.

    The table's channels hold each mix's channels with a positive rate, in
    the order given: a channel takes the first column of its kind after the
    previous one's, or a new column at the end. So each mix's loss is summed
    in its own order, and a column it lacks has rate 0, which adds +0.0 and
    changes no bit. Raises DimensionMismatch, as ``lowering_amplitudes``
    does, for an active a^k that empties the space.
    """
    columns, placed = [], []  # columns: one channel of each kind; placed: (mix, column, rate)
    for m, channels in enumerate(channel_sets):
        at = 0
        for c in channels:
            if c.rate > 0.0:
                at = next(
                    (i for i in range(at, len(columns)) if _kind(columns[i]) == _kind(c)),
                    len(columns),
                )
                if at == len(columns):
                    columns.append(c)
                placed.append((m, at, c.rate))
                at += 1
    rates = np.zeros((len(channel_sets), len(columns)))
    for m, at, rate in placed:
        rates[m, at] = rate
    amps = np.zeros((len(columns), nmax + 1))
    loss = np.zeros((len(channel_sets), nmax + 1))
    for rate, row, c in zip(rates.T, amps, columns):
        row[:] = lowering_amplitudes(c, nmax)
        loss += rate[:, None] * row**2
    lowerings = np.array([c.net_lowering for c in columns], dtype=np.int64)
    return LossTable(rates, lowerings, amps, loss)


def loss_table(channels: list[JumpChannel], nmax: int) -> LossTable:
    """The LossTable of the channels with a positive rate, in the order given,
    with the loss summed in that order: the one mix of ``loss_tables``."""
    rates, lowerings, amps, loss = loss_tables([channels], nmax)
    return LossTable(rates[0], lowerings, amps, loss[0])


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
