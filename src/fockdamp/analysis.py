"""Observables, analytic long-time predictions, the effective-rate formula
and the stopping-time search on sampled standard deviations."""

from __future__ import annotations

from dataclasses import dataclass
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
    the initial trace up to the monitored drift. ``min_eigenvalue`` is the
    smallest eigenvalue of the last sample, the state the run ends in (for
    the two-mode pair, its sector block); every earlier sample was only
    checked against the positivity limit. It is None for population-only
    engines, where positivity is the componentwise statement.
    """

    t: np.ndarray
    mean_n: np.ndarray
    std_n: np.ndarray
    g2: np.ndarray
    trace_err: np.ndarray
    populations: np.ndarray
    min_eigenvalue: float | None = None

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
            object.__setattr__(self, "min_eigenvalue", float(self.min_eigenvalue))

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
    raise ValueError(f"cannot read populations from shape {arr.shape}")


def observables(state) -> Observables:
    """Mean photon number, standard deviation, g2(0) and the level populations.

    g2(0) = sum n(n-1) p_n / mean^2, defined as 0 when the mean vanishes.
    Accepts a DensityMatrix, PureState, PopulationVector or 1-D array.
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
# the positivity gate factors a leading block of the sampled states, raised on
# its diagonal by _GATE_SHIFT, and leaves out at most _TAIL_NORM of entries,
# root-sum-square; each term costs at most 2.5e-9, so a factor bounds every
# eigenvalue below by about -5e-9, half the limit
_GATE_SHIFT = -POSITIVITY_LIMIT / 4
_TAIL_NORM = -POSITIVITY_LIMIT / 8


def _lower(states, rows, cols, src, n):
    """The (samples, n, n) matrices whose lower triangles hold the conjugates
    of the upper entries ``states[:, src[p]]`` at ``(rows[p], cols[p])``."""
    tri = np.zeros((len(states), n, n), dtype=states.dtype)
    tri[:, cols, rows] = states[:, src].conj()
    return tri


def _abs2(a):
    """|a|^2 elementwise; a complex inf gives inf, not the nan of inf * 0."""
    out = a.real * a.real
    if a.dtype.kind == "c":
        out += a.imag * a.imag
    return out


class Samples:
    """The sampled record of one exact run; ``add`` is ``integrate``'s callback.

    ``add(start, ys)`` takes a block of consecutive samples, ``ys[j]`` the
    state at ``t[start + j]``, in order. ``add`` keeps each sample's diagonal
    (the populations; for the two-mode pair, the whole diagonal of its sector
    block), and its sum is the trace, ``trace0`` at the start. Without
    ``upper`` the state is its own diagonal: a stack of such states, such as
    several cascades' populations, has one ``trace0`` per state. ``add``
    raises TraceDriftExceeded at the block's first (sample, state), in time
    and then in order, whose trace has drifted by more than 1e-8.

    When ``upper = (rows, cols, src)`` is given, the flattened state's element
    ``src[p]`` is the matrix entry ``(rows[p], cols[p])`` on or above the
    diagonal, the whole diagonal among them (one state per sample, not a
    stack); the diagonal is read off these entries in row order, and ``add``
    also checks positivity, with a gate that factors
    only the levels holding weight. Split a state at level K as
    rho = [[A, B], [B^H, C]]. Then

        lambda_min(rho) >= min(lambda_min(A), 0) - ||B||_2 - ||C||_2,

    and ||B||_2 + ||C||_2 <= 2 sqrt(S(K)), where S(K) is the sum of |rho_ij|^2
    over the stored entries in columns j >= K. ``add`` finds the columns
    that some sample of the block holds, a nonzero entry (nan and inf
    included) in one of them; the columns above the last of these hold
    exact zeros, as the levels a run has drained do, and add nothing. It
    sums each held column's |rho_ij|^2, reads S(K) for every K off one
    cumulative sum from the last held column down, and takes the smallest
    K at which S(K) <= 1.25e-9 ** 2 for every sample of the block (a nan or
    inf is never below it, so it stays inside A). One stacked
    ``np.linalg.cholesky`` factors the block's leading K x K matrices, their
    diagonal raised by 2.5e-9. A finite factor of every
    sample proves lambda_min(A) above -2.5e-9, so each smallest eigenvalue
    is above -5e-9, less rounding of order 1e-14, and the block passes.
    (OpenBLAS factors a nan without failing, hence the finite check.) Once
    the attenuator has drained the high levels, K is 2 to 4 at nmax = 40.

    A block the gate rejects raises PositivityViolated at its first sample
    with a nan or inf among the stored entries. Only a rejected block of
    finite states is filled whole, its lower triangles with the
    conjugates, and goes, unshifted, to one stacked
    ``np.linalg.eigvalsh``; LAPACK treats each matrix of the stack on its
    own, so these are the values of one call per sample. A value below -1e-8
    raises PositivityViolated, at the first such sample; otherwise the block
    passes too. The last sample is always decomposed whole, and its smallest
    eigenvalue, that of the state the run ends in, is ``min_eigenvalue``.
    """

    def __init__(self, t_grid, trace0, upper=None):
        self.t = np.asarray(t_grid, dtype=float)
        self.trace0 = np.asarray(trace0, dtype=float)
        self._upper = None
        self.min_eigenvalue = None
        if upper is not None:
            rows, cols, src = map(np.asarray, upper)
            by_col = np.argsort(cols, kind="stable")
            rows, cols, src = self._upper = rows[by_col], cols[by_col], src[by_col]
            # the entries in columns < K are the first _first[K] of them
            self._first = np.searchsorted(cols, np.arange(cols.max() + 2))
            self._diagonal = src[rows == cols]  # one per column, so in row order
            # the column of the entry each flat slot stores (0 for a slot that stores none)
            self._column = np.zeros(src.max() + 1, dtype=np.intp)
            self._column[src] = cols

    def add(self, start: int, ys):
        stop = start + len(ys)
        diag = ys.real if self._upper is None else ys.reshape(len(ys), -1)[:, self._diagonal].real
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
        if self._upper is None:
            return
        rows, cols, src = self._upper
        m, n = diag.shape
        flat = ys.reshape(m, -1)
        # columns from `held` on hold only zeros in every sample, so they add
        # nothing to the weights outside; a nan or inf is held
        held = self._column[flat[:, : self._column.size].any(axis=0)].max(initial=0) + 1
        by_col = np.add.reduceat(
            _abs2(flat[:, src[: self._first[held]]]), self._first[:held], axis=1
        )
        outside = np.zeros((m, held + 1))  # outside[:, k]: the weight in columns >= k
        np.cumsum(by_col[:, ::-1], axis=1, out=outside[:, -2::-1])
        fits = (outside <= _TAIL_NORM**2).all(axis=0)  # nan-safe
        k = int(np.argmax(fits))  # fits[held], with nothing outside, always holds
        inside = self._first[k]
        lead = _lower(flat, rows[:inside], cols[:inside], src[:inside], k)
        lead.reshape(m, -1)[:, :: k + 1] += _GATE_SHIFT
        try:
            factor = np.linalg.cholesky(lead)
        except np.linalg.LinAlgError:
            passed = False
        else:
            passed = np.isfinite(np.diagonal(factor, axis1=1, axis2=2)).all()
        if not passed:
            # LAPACK's eigvalsh raises LinAlgError, not a value, on a nan or inf
            bad = np.flatnonzero(~np.isfinite(flat[:, src]).all(axis=1))
            if bad.size:
                raise PositivityViolated(f"non-finite state entry at t={self.t[start + bad[0]]:.6g}")
            lowest = np.linalg.eigvalsh(_lower(flat, rows, cols, src, n), UPLO="L")[:, 0]
            bad = np.flatnonzero(~(lowest >= POSITIVITY_LIMIT))  # nan-safe
            if bad.size:
                raise PositivityViolated(
                    f"min eigenvalue {lowest[bad[0]]:.3e} at t={self.t[start + bad[0]]:.6g} "
                    f"(limit {POSITIVITY_LIMIT:.0e})"
                )
        if stop == self.t.size:
            (last,) = _lower(flat[-1:], rows, cols, src, n)
            self.min_eigenvalue = np.linalg.eigvalsh(last, UPLO="L")[0]

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
    """Long-time populations of any channel mix, read from its population generator.

    A level with zero loss is dark; every other level n empties, sending the
    share gen[m, n] / loss[n] of its weight to each level m < n. One pass down
    the columns collects it on the dark levels. Raises NoClosedForm when no
    channel is active.
    """
    from .pauli import population_generator  # deferred: pauli imports analysis

    p = _extract_populations(p0)
    gen = population_generator(channels, p.size - 1)
    loss = -np.diag(gen)
    dark = loss == 0.0
    if dark.all():
        raise NoClosedForm("no active channels; the state does not evolve")
    q = p.copy()
    for n in np.flatnonzero(~dark)[::-1]:
        q[:n] += q[n] * gen[:n, n] / loss[n]
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
