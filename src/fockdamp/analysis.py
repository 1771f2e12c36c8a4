"""Observables, analytic long-time predictions, the effective-rate formula
and the stopping-time search on sampled standard deviations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import JumpChannel
from .errors import (
    NoClosedForm,
    NoInteriorMinimum,
    NonpositiveGammaB,
    PositivityViolated,
    TraceDriftExceeded,
)
from .fock import DensityMatrix, PureState, _frozen_array


@dataclass(frozen=True)
class TimeSeries:
    """Sampled observables of one run.

    ``populations`` has one row per sample over levels 0..nmax; rows sum to
    the initial trace up to the monitored drift. ``min_eigenvalue`` is
    recorded by the dense engines (None for population-only engines, where
    positivity is the componentwise statement).
    """

    t: np.ndarray
    mean_n: np.ndarray
    std_n: np.ndarray
    g2: np.ndarray
    trace_err: np.ndarray
    populations: np.ndarray
    min_eigenvalue: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        pops = np.asarray(self.populations, dtype=float)
        if pops.shape[0] != t.size:
            raise ValueError("populations must have one row per sample")
        for name in ("mean_n", "std_n", "g2", "trace_err"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != t.shape:
                raise ValueError(f"{name} must match the time grid shape")
            object.__setattr__(self, name, _frozen_array(arr))
        object.__setattr__(self, "t", _frozen_array(t))
        object.__setattr__(self, "populations", _frozen_array(pops))
        if self.min_eigenvalue is not None:
            object.__setattr__(
                self, "min_eigenvalue", _frozen_array(np.asarray(self.min_eigenvalue, float))
            )

    @property
    def n_levels(self) -> int:
        return self.populations.shape[1]


class Observables(NamedTuple):
    mean_n: float
    std_n: float
    g2: float
    populations: np.ndarray


def _extract_populations(state) -> np.ndarray:
    if isinstance(state, (DensityMatrix, PureState)):
        return state.populations()
    if hasattr(state, "p"):  # PopulationVector
        return np.asarray(state.p, dtype=float)
    arr = np.asarray(state)
    if arr.ndim == 1:
        return arr.real.astype(float)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return np.diag(arr).real.astype(float)
    raise ValueError(f"cannot read populations from shape {arr.shape}")


def observables(state) -> Observables:
    """Mean photon number, standard deviation, g2(0) and the level populations.

    g2(0) = sum n(n-1) p_n / mean^2, defined as 0 when the mean vanishes.
    Accepts a DensityMatrix, PureState, PopulationVector or plain array.
    """
    p = _extract_populations(state)
    mean, std, g2 = moments(p[None])
    return Observables(float(mean[0]), float(std[0]), float(g2[0]), p)


def moments(populations) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``mean_n``, ``std_n`` and ``g2`` of every row of a (samples, levels) array.

    One array operation each: the variance is clamped at 0 and g2 is 0 where
    the mean is not positive. ``observables`` is its one-row case.
    """
    p = np.asarray(populations, dtype=float)
    n = np.arange(p.shape[1], dtype=float)
    mean = p @ n
    std = np.sqrt(np.maximum(p @ (n * n) - mean * mean, 0.0))
    g2 = np.divide(p @ (n * (n - 1.0)), mean * mean, out=np.zeros_like(mean), where=mean > 0.0)
    return mean, std, g2


# the largest drift of the trace from its initial value an exact run tolerates
TRACE_DRIFT_LIMIT = 1e-8
# the most negative eigenvalue a sampled state may have
POSITIVITY_LIMIT = -1e-8


class Samples:
    """The sampled record of one exact run; ``add`` is ``integrate``'s callback.

    ``add(start, ys)`` takes a block of consecutive samples, ``ys[j]`` the
    state at ``t[start + j]``, in order. ``diagonal`` indexes the diagonal
    within one state (the populations; for the two-mode pair, the whole
    diagonal of its sector block); ``add`` keeps it for every sample, and
    its sum is the trace, ``trace0`` at the start. At the block's first
    sample whose trace has drifted by more than 1e-8, ``add`` raises
    TraceDriftExceeded. When ``upper = (rows, cols, src)`` is given, the
    flattened state's element ``src[p]`` is the matrix entry
    ``(rows[p], cols[p])`` on or above the diagonal: the block's upper
    triangles are then filled at once and one ``np.linalg.eigvalsh`` call
    gives each sample's smallest eigenvalue. LAPACK treats each matrix of
    the stack on its own, so these are the values of one call per sample. A
    value below -1e-8 raises PositivityViolated, at the first such sample.
    """

    def __init__(self, t_grid, trace0: float, diagonal, upper=None):
        self.t = np.asarray(t_grid, dtype=float)
        self.trace0 = trace0
        self._diagonal = diagonal
        self._upper = upper
        self.min_eigenvalue = None if upper is None else np.zeros(self.t.size)

    def add(self, start: int, ys):
        stop = start + len(ys)
        diag = ys[:, self._diagonal].real
        if start == 0:
            self.diagonals = np.zeros((self.t.size, diag.shape[1]))
        self.diagonals[start:stop] = diag
        drift = np.abs(diag.sum(axis=1) - self.trace0)
        bad = np.flatnonzero(~(drift <= TRACE_DRIFT_LIMIT))  # nan-safe
        if bad.size:
            raise TraceDriftExceeded(
                f"trace drifted by {drift[bad[0]]:.3e} at t={self.t[start + bad[0]]:.6g} "
                f"(limit {TRACE_DRIFT_LIMIT:.1e})"
            )
        if self._upper is not None:
            rows, cols, src = self._upper
            tri = np.zeros((len(ys), diag.shape[1], diag.shape[1]), dtype=ys.dtype)
            tri[:, rows, cols] = ys.reshape(len(ys), -1)[:, src]
            lowest = np.linalg.eigvalsh(tri, UPLO="U")[:, 0]
            self.min_eigenvalue[start:stop] = lowest
            bad = np.flatnonzero(~(lowest >= POSITIVITY_LIMIT))  # nan-safe
            if bad.size:
                raise PositivityViolated(
                    f"min eigenvalue {lowest[bad[0]]:.3e} at t={self.t[start + bad[0]]:.6g} "
                    f"(limit {POSITIVITY_LIMIT:.0e})"
                )

    def series(self, populations=None) -> TimeSeries:
        """The TimeSeries of the recorded diagonals, or of ``populations``
        derived from them; the trace error is always the diagonals'."""
        pops = self.diagonals if populations is None else populations
        trace_err = np.abs(self.diagonals.sum(axis=1) - self.trace0)
        return TimeSeries(
            self.t, *moments(pops), trace_err, pops, min_eigenvalue=self.min_eigenvalue
        )


@dataclass(frozen=True)
class SteadyPrediction:
    """Long-time populations pinned by a conservation law."""

    populations: np.ndarray
    regime: str

    def __post_init__(self):
        object.__setattr__(
            self, "populations", _frozen_array(np.asarray(self.populations, float))
        )


def steady_state_prediction(p0, channels: list[JumpChannel]) -> SteadyPrediction:
    """Analytic long-time populations for channel sets a conservation law pins.

    Pure nonlinear absorber: the vacuum weight decouples and everything else
    collects at one photon. Pure two-photon loss splits by parity onto
    {0, 1}; pure three-photon loss splits by photon number mod 3 onto
    {0, 1, 2}. Any mix containing linear loss empties into the vacuum.
    Other mixes have no closed form; use a long numeric run instead.
    """
    p = _extract_populations(p0)
    active = {(c.creation_power, c.annihilation_power) for c in channels if c.rate > 0.0}
    if not active:
        raise NoClosedForm("no active channels; the state does not evolve")
    out = np.zeros_like(p)
    total = float(p.sum())
    if (0, 1) in active:
        out[0] = total
        regime = "linear-loss mix: all mass to vacuum"
    elif active == {(1, 2)}:
        out[0] = p[0]
        out[1] = total - p[0]
        regime = "pure nonlinear absorber: vacuum weight frozen, rest to one photon"
    elif active == {(0, 2)}:
        out[0] = p[0::2].sum()
        out[1] = p[1::2].sum()
        regime = "pure two-photon loss: parity classes onto {0, 1}"
    elif active == {(0, 3)}:
        out[0] = p[0::3].sum()
        out[1] = p[1::3].sum()
        out[2] = p[2::3].sum()
        regime = "pure three-photon loss: mod-3 classes onto {0, 1, 2}"
    else:
        raise NoClosedForm(
            f"no conservation law pins the long-time state for channels {sorted(active)}"
        )
    return SteadyPrediction(out, regime)


def effective_rate(u4: complex, gamma_b: float, gamma_a: float) -> float:
    """Nonlinear damping rate produced by exchange into a mode damped at gamma_b.

    gamma_a * |2 u4 / gamma_b|^2: quadratic in the exchange strength and
    inversely quadratic in the partner damping.
    """
    if not gamma_b > 0:
        raise NonpositiveGammaB(f"gamma_b must be positive, got {gamma_b}")
    return float(gamma_a * abs(2.0 * u4 / gamma_b) ** 2)


@dataclass(frozen=True)
class SigmaMinimum:
    t_star: float
    sigma_star: float
    populations: np.ndarray
    grid_index: int

    def __post_init__(self):
        object.__setattr__(
            self, "populations", _frozen_array(np.asarray(self.populations, float))
        )


def noise_floor(sigma) -> float:
    """Differences of std_n below this are rounding noise: 1e-8 * max(1, max sigma)."""
    return 1e-8 * max(1.0, float(np.max(sigma)))


def find_sigma_min(series: TimeSeries, window: tuple[float, float]) -> SigmaMinimum:
    """Locate the first clear minimum of std_n on [t_lo, t_hi].

    The earliest grid local minimum (ties go to the smaller t) whose drop
    from the left window edge and whose rise after it (up to where std_n
    next falls below it) both exceed ``noise_floor``. So a flat tail at
    the steady floor is no minimum, while an early dip is one even if std_n
    sinks lower later, as when linear loss empties the mode. The grid
    minimum is refined by a quadratic fit through the three bracketing
    samples; populations at the refined time come from the same three-point
    interpolation. Raises NoInteriorMinimum when no local minimum clears
    the noise.
    """
    t_lo, t_hi = window
    idx = np.nonzero((series.t >= t_lo) & (series.t <= t_hi))[0]
    if idx.size < 3:
        raise NoInteriorMinimum(f"window [{t_lo}, {t_hi}] holds fewer than 3 samples")
    sig = series.std_n[idx]
    floor = noise_floor(sig)
    for k in np.nonzero((sig[1:-1] < sig[:-2]) & (sig[1:-1] <= sig[2:]))[0] + 1:
        after = sig[k + 1 :]
        below = np.nonzero(after < sig[k])[0]
        rise = after[: below[0] if below.size else None].max() - sig[k]
        if sig[0] - sig[k] > floor and rise > floor:
            break
    else:
        raise NoInteriorMinimum(
            f"std_n has no interior minimum on [{t_lo}, {t_hi}] "
            f"(argmin at t={series.t[idx[np.argmin(sig)]]:.6g})"
        )
    i = idx[k]
    t0, t1, t2 = series.t[i - 1], series.t[i], series.t[i + 1]
    s0, s1, s2 = series.std_n[i - 1], series.std_n[i], series.std_n[i + 1]
    denom = (t1 - t0) * (s1 - s2) - (t1 - t2) * (s1 - s0)
    if denom == 0.0:
        t_star = float(t1)
    else:
        t_star = float(
            t1
            - 0.5 * ((t1 - t0) ** 2 * (s1 - s2) - (t1 - t2) ** 2 * (s1 - s0)) / denom
        )
        t_star = float(min(max(t_star, t0), t2))

    def lagrange3(ya, yb, yc):
        w0 = (t_star - t1) * (t_star - t2) / ((t0 - t1) * (t0 - t2))
        w1 = (t_star - t0) * (t_star - t2) / ((t1 - t0) * (t1 - t2))
        w2 = (t_star - t0) * (t_star - t1) / ((t2 - t0) * (t2 - t1))
        return w0 * ya + w1 * yb + w2 * yc

    sigma_star = float(lagrange3(s0, s1, s2))
    pops = lagrange3(
        series.populations[i - 1], series.populations[i], series.populations[i + 1]
    )
    return SigmaMinimum(t_star, sigma_star, pops, int(i))
