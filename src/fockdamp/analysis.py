"""Observables, analytic long-time predictions, the effective-rate formula
and the stopping-time search on sampled standard deviations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import JumpChannel, loss_table
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
    the squared mean is not positive, which takes in a mean below about
    1e-154 whose square underflows. ``observables`` is its one-row case.
    """
    p = np.asarray(populations, dtype=float)
    n = np.arange(p.shape[1], dtype=float)
    mean = p @ n
    mean2 = mean * mean
    std = np.sqrt(np.maximum(p @ (n * n) - mean2, 0.0))
    g2 = np.divide(p @ (n * (n - 1.0)), mean2, out=np.zeros_like(mean), where=mean2 > 0.0)
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
    its sum is the trace, ``trace0`` at the start; a stack of states, such as
    several cascades' populations, has one ``trace0`` per state. ``add``
    raises TraceDriftExceeded at the block's first (sample, state), in time
    and then in order, whose trace has drifted by more than 1e-8. When
    ``upper = (rows, cols, src)`` is given, the flattened state's element
    ``src[p]`` is the matrix entry ``(rows[p], cols[p])`` on or above the
    diagonal (one state per sample, not a stack): the block's upper
    triangles are then filled at once and one ``np.linalg.eigvalsh`` call
    gives each sample's smallest eigenvalue. LAPACK treats each matrix of
    the stack on its own, so these are the values of one call per sample. A
    value below -1e-8 raises PositivityViolated, at the first such sample.
    """

    def __init__(self, t_grid, trace0, diagonal, upper=None):
        self.t = np.asarray(t_grid, dtype=float)
        self.trace0 = np.asarray(trace0, dtype=float)
        self._diagonal = diagonal
        self._upper = upper
        self.min_eigenvalue = None if upper is None else np.zeros(self.t.size)

    def add(self, start: int, ys):
        stop = start + len(ys)
        diag = ys[:, self._diagonal].real
        if start == 0:
            self.diagonals = np.zeros((self.t.size,) + diag.shape[1:])
        self.diagonals[start:stop] = diag
        drift = np.abs(diag.sum(axis=-1) - self.trace0)
        bad = np.flatnonzero(~(drift <= TRACE_DRIFT_LIMIT))  # nan-safe, row-major
        if bad.size:
            first = np.unravel_index(bad[0], drift.shape)
            raise TraceDriftExceeded(
                f"trace drifted by {drift[first]:.3e} at t={self.t[start + first[0]]:.6g} "
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

    def series(self, populations=None, state=...) -> TimeSeries:
        """The TimeSeries of the recorded diagonals, or of ``populations``
        derived from them; the trace error is always the diagonals'. Of a
        stacked record, ``state`` picks the state."""
        diagonals = self.diagonals[:, state]
        pops = diagonals if populations is None else populations
        trace_err = np.abs(diagonals.sum(axis=-1) - self.trace0[state])
        return TimeSeries(
            self.t, *moments(pops), trace_err, pops, min_eigenvalue=self.min_eigenvalue
        )


@dataclass(frozen=True)
class SteadyPrediction:
    """Long-time populations, all on the dark levels that ``regime`` names."""

    populations: np.ndarray
    regime: str

    def __post_init__(self):
        object.__setattr__(
            self, "populations", _frozen_array(np.asarray(self.populations, float))
        )


def steady_state_prediction(p0, channels: list[JumpChannel]) -> SteadyPrediction:
    """Long-time populations of any channel mix, read from its loss table.

    A level with zero loss is dark; every other level n empties, sending its
    weight to n - d with the branching ratio rate * amp[n]**2 / loss[n] of
    each channel lowering by d. One pass down the levels collects it on the
    dark levels. Raises NoClosedForm when no channel is active.
    """
    p = _extract_populations(p0)
    table = loss_table(channels, p.size - 1)
    if not table.rates.size:
        raise NoClosedForm("no active channels; the state does not evolve")
    dark = table.loss == 0.0
    q = p.copy()
    for n in np.flatnonzero(~dark)[::-1]:
        to = n - table.lowerings
        on = to >= 0
        share = table.rates[on] * table.amps[on, n] ** 2 / table.loss[n]
        np.add.at(q, to[on], q[n] * share)
    regime = "mass collects on the dark levels {%s}" % ", ".join(map(str, np.flatnonzero(dark)))
    return SteadyPrediction(np.where(dark, q, 0.0), regime)


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
