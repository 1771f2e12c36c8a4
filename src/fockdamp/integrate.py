"""Exact propagation shared by every deterministic engine.

Every channel is a lowering monomial and the Kerr term commutes with the
photon number, so each generator the engines evolve is linear and constant
in time: the population cascade and every diagonal stripe of rho are
upper-triangular, and the two-mode exchange pair is block-diagonal in
N_ket - N_bra. One matrix exponential per sampling step is therefore exact.
``integrate`` builds it once per distinct step and applies it to a state
vector or to a stack of blocks; ``expm`` is Pade-13 scaling and squaring in
NumPy (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005). On an
upper-triangular input it resets the diagonal and the first superdiagonal
to their exact values after every squaring (Al-Mohy & Higham, SIAM J.
Matrix Anal. Appl. 31, 970, 2009, Code Fragment 2.1), which keeps the
column sums of a probability-conserving cascade at rounding level.

Every step lands on a sample, so ``integrate`` has one callback: it hands
the sampled states up in blocks of 32, and the recorder
(``analysis.Samples``) checks each block's positivity with one stacked
factorisation of the levels its states occupy.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import GeneratorOverflow

_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
# a new step this close to the cached one reuses its propagator; np.linspace
# steps jitter by about 1e-13 relative
_STEP_RTOL = 1e-9
# matrices per Pade evaluation: bounds the temporaries of a large stack
_CHUNK = 8
# samples per post_accept call: bounds the buffer, amortizes the callback
_BLOCK = 32
# the settings argument of an ODE solver's call; exact propagation fixes no step
EXACT = SimpleNamespace(fixed_step=None)


def _exp_divided_difference(l1, l2):
    """(e^l2 - e^l1) / (l2 - l1), or e^l1 where l1 = l2.

    Close arguments use e^((l1+l2)/2) sinh(x)/x with x = (l2 - l1)/2, which
    does not cancel; distant ones use the quotient, which does not overflow.
    """
    x = 0.5 * (l2 - l1)
    near = np.abs(x) < 1.0
    x_safe = np.where(near & (x != 0.0), x, 1.0)
    sinh_ratio = np.where(x == 0.0, 1.0, np.sinh(x_safe) / x_safe)
    quotient = (np.exp(l2) - np.exp(l1)) / np.where(near, 1.0, l2 - l1)
    return np.where(near, np.exp(0.5 * (l1 + l2)) * sinh_ratio, quotient)


def expm(a):
    """Matrix exponential of a square matrix or of a stack of them."""
    a = np.asarray(a)
    if a.ndim < 3 or a.shape[0] <= _CHUNK:
        return _pade13(a)
    out = np.empty(a.shape, dtype=np.result_type(a, float))
    for i in range(0, a.shape[0], _CHUNK):
        out[i : i + _CHUNK] = _pade13(a[i : i + _CHUNK])
    return out


def _pade13(a):
    n = a.shape[-1]
    diag = np.arange(n)
    triangular = not np.any(np.tril(a, -1))
    norm = float(np.abs(a).sum(axis=-2).max())
    if not math.isfinite(norm):
        raise GeneratorOverflow(f"generator norm {norm}: a rate, time or Kerr strength is too large")
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    u[..., diag, diag] += b[1]
    u = a @ u
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    del a2, a4, a6
    v[..., diag, diag] += b[0]
    x = np.linalg.solve(v - u, v + u)
    del u, v
    if triangular:
        d = a[..., diag, diag]
        t12 = a[..., diag[:-1], diag[1:]]
    for j in range(s, -1, -1):
        if j < s:
            x = x @ x
        if triangular:
            scale = 2.0 ** (s - j)
            x[..., diag, diag] = np.exp(scale * d)
            l1, l2 = scale * d[..., :-1], scale * d[..., 1:]
            x[..., diag[:-1], diag[1:]] = scale * t12 * _exp_divided_difference(l1, l2)
    return x


def integrate(propagator, y0, t_grid, cfg, post_accept=None, restrict=None):
    """Advance a linear, autonomous system exactly through every point of ``t_grid``.

    ``propagator(h)`` returns the propagator of one step h, ``expm(gen * h)``
    for a generator ``gen`` that is one square matrix acting on the state
    vector or a stack of them acting blockwise on its rows. It is rebuilt
    only when the step changes by more than 1e-9 relative. The propagated
    state is ``y0``, or ``restrict(y0)`` when the generator acts on an
    invariant part of it. The states at the grid points, the first one
    included, are written into one buffer of 32 consecutive samples, and
    each block (the last may be shorter) is passed once, in order, to
    ``post_accept(start, ys)``, where ``ys[j]`` is the state at
    ``t_grid[start + j]``; the engines record their samples and check their
    invariants there. The next block overwrites ``ys``, so the callback
    copies what it keeps. Returns the final state.

    The call keeps an ODE solver's shape, ``(f, y0, t_grid, cfg)`` and the
    ``post_accept`` keyword, because the benchmark's tracer
    (``perfbench/tracing.py``) wraps each engine's ``integrate`` with that
    signature: it counts the calls of ``f``, here the propagator builds, and
    of ``post_accept``, here the blocks. ``cfg`` is not read; the tracer
    reads ``cfg.fixed_step``, and ``EXACT`` holds None there.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly ascending")
    y = np.asarray(y0 if restrict is None else restrict(y0))
    ys = np.empty((min(_BLOCK, t_grid.size),) + y.shape, dtype=y.dtype)
    h_built, prop = math.nan, None
    for start in range(0, t_grid.size, _BLOCK):
        size = min(_BLOCK, t_grid.size - start)
        for i in range(start, start + size):
            if i:
                h = t_grid[i] - t_grid[i - 1]
                if not abs(h - h_built) <= _STEP_RTOL * h_built:  # nan-safe: builds the first
                    h_built, prop = h, propagator(h)
                y = np.matmul(prop, y[..., None])[..., 0]
                if y.dtype != ys.dtype:  # a complex propagator widens a real start
                    ys = ys.astype(y.dtype)
            ys[i - start] = y
        if post_accept is not None:
            post_accept(start, ys[:size])
    return y
