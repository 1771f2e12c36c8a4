"""Adaptive embedded Runge-Kutta stepping shared by every engine.

Dormand-Prince 5(4) with PI step-size control. All systems integrated here
are autonomous and linear, so the right-hand side takes the state only; the
state may be a real or complex array of any shape and is treated opaquely.

A ``post_accept`` hook runs after every accepted step. It may re-symmetrize
the state and replace state and cached derivative with smaller arrays.
``cascade_window`` builds the window-shrinking hook and the step cap that
the cascade engines share (``dynamics.evolve``, ``pauli.evolve_populations``
and ``pauli.evolve_stripe``): every channel only lowers the photon number,
so a drained top level is never refilled and dropping it is exact up to the
drop floor.

``fixed_step`` mode disables adaptivity and subdivides each sampling
interval into equal steps of at most the requested size, for bit-identical
reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepSizeUnderflow, TraceDriftExceeded


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_step: float | None = None
    fixed_step: float | None = None

    def __post_init__(self):
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError(f"max_step must be positive, got {self.max_step}")
        if self.fixed_step is not None and not self.fixed_step > 0:
            raise ValueError(f"fixed_step must be positive, got {self.fixed_step}")


# Dormand-Prince 5(4) tableau (FSAL)
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXP_ERR = 0.17  # PI controller, fifth-order error estimate
_EXP_PREV = 0.04


def _error_norm(err, y0, y1, atol, rtol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    q = np.abs(err) / scale
    return float(np.sqrt(np.mean(q * q)))


def _rms_scaled(v, ref, atol, rtol):
    scale = atol + rtol * np.abs(ref)
    q = np.abs(v) / scale
    return float(np.sqrt(np.mean(q * q)))


def _initial_step(rhs, y, f1, atol, rtol, t_span, hmax):
    d0 = _rms_scaled(y, y, atol, rtol)
    d1 = _rms_scaled(f1, y, atol, rtol)
    if not (math.isfinite(d0) and math.isfinite(d1)):
        raise StepSizeUnderflow("right-hand side is not finite at the initial state")
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_span)
    f2 = rhs(y + h0 * f1)
    d2 = _rms_scaled(f2 - f1, y, atol, rtol) / h0
    if not math.isfinite(d2):
        return min(h0, hmax)
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_span, hmax)


def cascade_window(diag, abs_tol: float):
    """Step cap and window shrink of a lowering cascade.

    ``diag`` is the generator diagonal over the state: one entry per level
    for a vector state, one per element for a square matrix state. The
    active window holds levels 0..m; its frontier is the set of elements
    whose largest index is m. After each accepted step the window drops its
    frontier while the frontier's l1 mass is below 1e-4 * abs_tol / levels,
    never going below 2 levels. The step cap 2.5 / lam, lam the largest
    |diag| inside the window, keeps explicit steps stable there, so drained
    stiff levels decay instead of hovering at the error-control noise floor.

    Returns ``(h_cap, shrink)`` to pass as ``h_cap_fn`` and ``post_accept``;
    ``shrink(y0, None)`` also gives the smallest starting window.
    """
    a = np.abs(np.asarray(diag))
    floor = 1e-4 * abs_tol / a.shape[0]
    if a.ndim == 1:
        front_lam = a

        def frontier_mass(y, m):
            return abs(y[m])

    else:
        front_lam = np.maximum(np.tril(a).max(axis=1), np.triu(a).max(axis=0))

        def frontier_mass(y, m):
            return float(np.sum(np.abs(y[m, : m + 1])) + np.sum(np.abs(y[:m, m])))

    block_lam = np.maximum.accumulate(front_lam)

    def h_cap(y):
        lam = block_lam[y.shape[0] - 1]
        return 2.5 / lam if lam > 0.0 else math.inf

    def shrink(y, f):
        m1 = y.shape[0]
        while m1 > 2 and frontier_mass(y, m1 - 1) < floor:
            m1 -= 1
        if m1 < y.shape[0]:
            keep = (slice(m1),) * y.ndim
            y = np.ascontiguousarray(y[keep])
            if f is not None:
                f = np.ascontiguousarray(f[keep])
        return y, f

    return h_cap, shrink


def integrate(
    rhs, y0, t_grid, cfg: IntegratorConfig, *, post_accept=None, on_sample=None, h_cap_fn=None
):
    """March the state through every point of ``t_grid``.

    ``on_sample(index, t, y)`` fires at each grid point including the first.
    ``post_accept(y, f)`` may return a transformed ``(y, f)`` pair (same or
    smaller shape) after every accepted step. ``h_cap_fn(y)`` may bound the
    step from above; the cascade engines use it to keep steps inside the
    explicit-stability region of the current active window, so that drained
    stiff levels decay instead of hovering at the error-control noise floor.
    Returns the final state array.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly ascending")
    y = np.array(y0)
    if on_sample is not None:
        on_sample(0, float(t_grid[0]), y)
    if t_grid.size == 1:
        return y
    if cfg.fixed_step is not None:
        return _run_fixed(rhs, y, t_grid, cfg.fixed_step, post_accept, on_sample)
    return _run_adaptive(rhs, y, t_grid, cfg, post_accept, on_sample, h_cap_fn)


def _dp5_stages(rhs, y, f1, h):
    k2 = rhs(y + (h * _A21) * f1)
    k3 = rhs(y + h * (_A31 * f1 + _A32 * k2))
    k4 = rhs(y + h * (_A41 * f1 + _A42 * k2 + _A43 * k3))
    k5 = rhs(y + h * (_A51 * f1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = rhs(y + h * (_A61 * f1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
    y_new = y + h * (_B1 * f1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    return y_new, k3, k4, k5, k6


def _run_adaptive(rhs, y, t_grid, cfg, post_accept, on_sample, h_cap_fn):
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    hmax = cfg.max_step if cfg.max_step is not None else math.inf
    t = float(t_grid[0])
    f1 = rhs(y)
    h = _initial_step(rhs, y, f1, atol, rtol, float(t_grid[-1]) - t, hmax)
    err_prev = 1e-4
    for i in range(1, t_grid.size):
        t_target = float(t_grid[i])
        while t_target - t > 1e-12 * max(1.0, abs(t_target)):
            cap = hmax if h_cap_fn is None else min(hmax, h_cap_fn(y))
            h_try = min(h, cap)
            capped = h_try >= t_target - t
            h_use = t_target - t if capped else h_try
            if not (h_use >= 1e-14 * max(abs(t), 1.0)):  # nan-safe
                raise StepSizeUnderflow(f"step size {h_use:.3e} underflowed at t={t:.6g}")
            y_new, k3, k4, k5, k6 = _dp5_stages(rhs, y, f1, h_use)
            k7 = rhs(y_new)
            err_arr = h_use * (
                _E1 * f1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7
            )
            err = _error_norm(err_arr, y, y_new, atol, rtol)
            if err <= 1.0 and math.isfinite(err):
                t = t_target if capped else t + h_use
                y, f1 = y_new, k7
                if post_accept is not None:
                    y, f1 = post_accept(y, f1)
                err = max(err, 1e-10)
                factor = _SAFETY * err ** (-_EXP_ERR) * err_prev**_EXP_PREV
                h = h_use * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                h = min(h, hmax)
                err_prev = err
            else:
                if not math.isfinite(err):
                    h = h_use * _MIN_FACTOR
                else:
                    h = h_use * max(_MIN_FACTOR, _SAFETY * err**-0.2)
        if on_sample is not None:
            on_sample(i, t_target, y)
    return y


def _run_fixed(rhs, y, t_grid, dt, post_accept, on_sample):
    for i in range(1, t_grid.size):
        span = float(t_grid[i] - t_grid[i - 1])
        n_sub = max(1, math.ceil(span / dt - 1e-9))
        h = span / n_sub
        for _ in range(n_sub):
            f1 = rhs(y)
            y, _, _, _, _ = _dp5_stages(rhs, y, f1, h)
            if not np.all(np.isfinite(y)):
                raise TraceDriftExceeded(
                    f"state diverged (non-finite values) with fixed step {h:.3e}; "
                    "the step exceeds the stability limit of this system"
                )
            if post_accept is not None:
                y, _ = post_accept(y, None)
        if on_sample is not None:
            on_sample(i, float(t_grid[i]), y)
    return y
