"""Fock-basis states and operators for one bosonic mode with a hard cutoff.

Basis ordering is ascending photon number |0>, |1>, ..., |nmax> everywhere.
Truncated coherent states are deliberately NOT renormalized: the cutoff is
chosen so the discarded Poisson tail is negligible, and keeping the vacuum
weight exactly e^{-|alpha|^2} anchors the analytic long-time predictions.
All values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc

from .errors import CutoffTooSmall, DimensionMismatch

_HERM_TOL = 1e-12
_NORM_TOL = 1e-12
_CUTOFF_MARGIN = 2  # levels min_cutoff_for_coherent adds above the tail bound
MAX_CUTOFF = 100_000  # where min_cutoff_for_coherent stops searching


@dataclass(frozen=True)
class FockCutoff:
    """Highest retained Fock level; the basis has nmax + 1 states."""

    nmax: int

    def __post_init__(self):
        if not isinstance(self.nmax, (int, np.integer)) or self.nmax < 1:
            raise ValueError(f"nmax must be an integer >= 1, got {self.nmax!r}")

    @property
    def dim(self) -> int:
        return int(self.nmax) + 1


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian matrix over the truncated basis with trace ~ 1 - trace_deficit.

    ``trace_deficit`` records probability mass lost to truncation at
    construction time (kept as metadata, never renormalized away).
    ``trace_tol`` exists so evolved states, whose trace has drifted at the
    integrator's monitored level, can still be wrapped; primary construction
    paths use the strict default.
    """

    entries: np.ndarray
    trace_deficit: float = 0.0
    trace_tol: float = field(default=1e-12, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        asym = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        if asym >= _HERM_TOL:
            raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
        expected = 1.0 - self.trace_deficit
        err = abs(np.trace(m).real - expected)
        if not err <= self.trace_tol:
            raise ValueError(
                f"trace {np.trace(m).real!r} differs from {expected!r} by {err:.3e} "
                f"(allowed {self.trace_tol:.1e})"
            )
        object.__setattr__(self, "entries", _frozen_array(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def populations(self) -> np.ndarray:
        return np.diag(self.entries).real.copy()


@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector over the truncated basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=np.complex128)
        if v.ndim != 1 or v.size < 1:
            raise DimensionMismatch(f"state vector must be 1-D, got shape {v.shape}")
        dev = abs(np.linalg.norm(v) - 1.0)
        if dev >= _NORM_TOL:
            raise ValueError(f"state norm deviates from 1 by {dev:.3e}")
        object.__setattr__(self, "amplitudes", _frozen_array(v))

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def annihilation_matrix(cutoff: FockCutoff) -> np.ndarray:
    """Lowering operator: entries sqrt(n) on the superdiagonal."""
    return np.diag(np.sqrt(np.arange(1, cutoff.dim)), 1).astype(np.complex128)


def poisson_tail(mean_photons: float, nmax: int) -> float:
    """P(N > nmax) for Poisson mean ``mean_photons`` (regularized gamma, no 1-cdf cancellation)."""
    if mean_photons == 0.0:
        return 0.0
    return float(gammainc(nmax + 1, mean_photons))


def min_cutoff_for_coherent(alpha: complex, tail_tol: float = 1e-12) -> FockCutoff:
    """Smallest cutoff keeping the coherent-state tail below tail_tol, plus a safety margin."""
    mean = abs(alpha) ** 2
    n = max(1, math.ceil(mean))
    while poisson_tail(mean, n) >= tail_tol:
        n += 1
        if n > MAX_CUTOFF:
            raise ValueError("cutoff search did not converge")
    return FockCutoff(n + _CUTOFF_MARGIN)


def coherent_amplitudes(alpha: complex, cutoff: FockCutoff) -> np.ndarray:
    """Truncated expansion coefficients e^{-|a|^2/2} alpha^n / sqrt(n!) (no checks)."""
    c = np.empty(cutoff.dim, dtype=np.complex128)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff.dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c


def coherent_state(alpha: complex, cutoff: FockCutoff, tail_tol: float = 1e-12) -> PureState:
    tail = poisson_tail(abs(alpha) ** 2, cutoff.nmax)
    if tail >= tail_tol:
        raise CutoffTooSmall(tail, tail_tol, cutoff.nmax)
    return PureState(coherent_amplitudes(alpha, cutoff))


def coherent_density(alpha: complex, cutoff: FockCutoff, tail_tol: float = 1e-12) -> DensityMatrix:
    """Truncated |alpha><alpha|, not renormalized; the tail deficit is recorded."""
    tail = poisson_tail(abs(alpha) ** 2, cutoff.nmax)
    if tail >= tail_tol:
        raise CutoffTooSmall(tail, tail_tol, cutoff.nmax)
    c = coherent_amplitudes(alpha, cutoff)
    rho = np.outer(c, c.conj())
    deficit = 1.0 - float(np.trace(rho).real)
    return DensityMatrix(rho, trace_deficit=deficit)
