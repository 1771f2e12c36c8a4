"""Exact propagation shared by every deterministic engine.

Every channel is a lowering monomial and the Kerr term commutes with the
photon number, so each generator the engines evolve is linear and constant
in time: the population cascade and every diagonal stripe of rho are
upper-triangular, and the two-mode exchange pair is block-diagonal in
N_ket - N_bra. The propagator P of one sampling step is therefore exact,
and on a uniform grid the state f samples on is P^f times the current one.
``integrate`` builds P once per distinct step and fills each window of
samples by doubling: a few products with P, P^2, P^4, ..., squared from P
once, in place of one product per sample. ``expm`` is Pade-13 scaling and
squaring in NumPy (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005), each
matrix of a stack scaled by its own norm. On an upper-triangular input it
resets the diagonal and the first superdiagonal to their exact values after
every squaring (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009,
Code Fragment 2.1), which keeps the column sums of a probability-conserving
cascade at rounding level. It reads the zero pattern of its input, and a
matrix of 64 levels or more that is block upper-triangular, as the two-mode
sector ordered by total excitation is, is split into strips of at least 32
rows: each product computes only the blocks that can be nonzero, and the
Pade solve is a back-substitution over the diagonal blocks.

A lowering channel never refills a level above the highest one the state
holds, so under an upper-triangular propagator those levels stay exactly
empty; the attenuator drains the high levels until they underflow to zero.
``integrate`` propagates only the live levels, those up to the highest one
held, on the leading block of each propagator.

Every sample lands on the grid, so ``integrate`` has one callback: it hands
the sampled states up in blocks of 32, and the recorder
(``analysis.Samples``) checks each block's positivity with one stacked
factorisation of the levels its states occupy.
"""

from __future__ import annotations

import math
from functools import partial
from types import SimpleNamespace

import numpy as np

from .errors import GeneratorOverflow

_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
# a phase from 2^53 rad on has an ulp of at least 2 rad, so its exponential is noise
_PHASE_LIMIT = 2.0**53
# a new step this close to the cached one reuses its propagator; np.linspace
# steps jitter by about 1e-13 relative
_STEP_RTOL = 1e-9
# matrices per Pade evaluation: bounds the temporaries of a large stack
_CHUNK = 8
# rows per strip, at least, when a block upper-triangular input is split
_STRIP = 32
# samples per post_accept call: amortizes the callback, while the positivity
# gate's leading block, sized for a block's worst sample, stays small
_BLOCK = 32
# samples formed before they are handed on: bounds the buffer and the top power
_WINDOW = 128
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
    """Matrix exponential of a square matrix or of a stack of them.

    Each matrix takes the squarings its own norm asks for (``_pade13``), so
    on a stack of upper-triangular matrices ``expm(stack)[i]`` is
    ``expm(stack[i])`` bit for bit. A stack is evaluated in chunks of
    ``_CHUNK`` matrices, which only bounds the temporaries.
    """
    a = np.asarray(a)
    if a.ndim < 3 or a.shape[0] <= _CHUNK:
        return _pade13(a)
    out = np.empty(a.shape, dtype=np.result_type(a, float))
    for i in range(0, a.shape[0], _CHUNK):
        out[i : i + _CHUNK] = _pade13(a[i : i + _CHUNK])
    return out


def _strips(a):
    """Whether ``a``, a matrix or a stack of them, is exactly upper-triangular,
    and the row bounds of the strips it splits into.

    One scan finds the lowest nonzero row of each column (nan and inf count),
    over the stack. A cut k splits ``a`` when no column left of k reaches row
    k or below; ``a`` is then block upper-triangular over its cuts, and so are
    its powers and its exponential. The cuts are merged greedily into strips
    of at least ``_STRIP`` rows, so a matrix under 2 * _STRIP levels is one strip.
    """
    n = a.shape[-1]
    held = (a != 0).reshape(-1, n, n).any(axis=0)
    lowest = np.where(held.any(axis=0), n - 1 - np.argmax(held[::-1], axis=0), -1)
    triangular = bool((lowest <= np.arange(n)).all())
    bounds = [0]
    if n >= 2 * _STRIP:
        for k in np.flatnonzero(np.maximum.accumulate(lowest)[:-1] < np.arange(1, n)) + 1:
            if k - bounds[-1] >= _STRIP and n - k >= _STRIP:
                bounds.append(int(k))
    return triangular, bounds + [n]


def _strip_product(x, y, bounds):
    """x @ y for x and y block upper-triangular over the strips ``bounds``:
    each strip of rows meets only the columns from its own first row on."""
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.result_type(x, y))
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        out[..., r0:r1, r0:] = x[..., r0:r1, r0:] @ y[..., r0:, r0:]
    return out


def _strip_solve(q, p, bounds):
    """q^-1 p for q and p block upper-triangular over the strips ``bounds``,
    by back-substitution: one solve per diagonal block, from the last up."""
    x = np.zeros(np.broadcast_shapes(q.shape, p.shape), dtype=np.result_type(q, p))
    for r0, r1 in zip(bounds[-2::-1], bounds[:0:-1]):
        rhs = p[..., r0:r1, r0:] - q[..., r0:r1, r1:] @ x[..., r1:, r0:]
        x[..., r0:r1, r0:] = np.linalg.solve(q[..., r0:r1, r0:r1], rhs)
    return x


def _squarings(norm):
    """ceil(log2(norm / theta_13)), exactly, or 0 for a norm up to theta_13."""
    mantissa, exponent = math.frexp(norm / _THETA13)
    return exponent - (mantissa == 0.5) if norm > _THETA13 else 0


def _pade13(a):
    """``expm`` of a matrix or a stack of them, each scaled by its own norm.

    Matrix m takes s_m = ceil(log2(||A_m||_1 / theta_13)) squarings
    (``_squarings``). A stack whose exponents differ is ordered by them once,
    largest first, so each squaring round squares only the leading slice that
    still needs it; a stack whose exponents agree is not reordered. So a
    matrix of the stack takes the operations it would take alone, and when
    the stack splits into the same strips as the matrix, as every
    upper-triangular stack of one size does, its exponential is bit for bit
    the matrix's own.
    """
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    diag = np.arange(n)
    triangular, bounds = _strips(a)
    mul = np.matmul if len(bounds) == 2 else partial(_strip_product, bounds=bounds)
    solve = np.linalg.solve if len(bounds) == 2 else partial(_strip_solve, bounds=bounds)
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    if not math.isfinite(norm := float(norms.max())):
        raise GeneratorOverflow(f"generator norm {norm}: a rate, time or Kerr strength is too large")
    if np.iscomplexobj(a) and (phase := float(np.abs(a.imag).max())) >= _PHASE_LIMIT:
        raise GeneratorOverflow(
            f"a step turns a phase by {phase:.3e} rad, at least 2^53, which no double "
            "resolves: the Kerr strength or the time is too large"
        )
    s = [_squarings(norm) for norm in norms.tolist()]
    order = sorted(range(len(s)), key=s.__getitem__, reverse=True) if len(set(s)) > 1 else None
    if order is not None:
        a, s = a[order], [s[m] for m in order]
    a = a / (2.0 ** np.array(s))[:, None, None]
    b = _PADE13
    a2 = mul(a, a)
    a4 = mul(a2, a2)
    a6 = mul(a4, a2)
    u = mul(a6, b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    u[..., diag, diag] += b[1]
    u = mul(a, u)
    v = mul(a6, b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    del a2, a4, a6
    v[..., diag, diag] += b[0]
    x = solve(v - u, v + u)
    del u, v
    if triangular:
        # the exact diagonal and first superdiagonal of every power 2^i, i = 0..s_m;
        # 0 past s_m, where nothing is read, so that no exp overflows there
        rounds = np.arange(s[0] + 1)[:, None]
        scale = np.where(rounds <= s, 2.0**rounds, 0.0)[..., None]
        d = scale * a[:, diag, diag]
        exact_diag = np.exp(d)
        t12 = scale * a[:, diag[:-1], diag[1:]]
        exact_sup = t12 * _exp_divided_difference(d[..., :-1], d[..., 1:])
    for i in range(s[0] + 1):
        k = sum(sm >= i for sm in s)  # the matrices taking power 2^i lead the stack
        if i and k == len(x):
            x = mul(x, x)
        elif i:
            x[:k] = mul(x[:k], x[:k])
        if triangular:
            x[:k, diag, diag] = exact_diag[i, :k]
            x[:k, diag[:-1], diag[1:]] = exact_sup[i, :k]
    if order is not None:
        x[order] = x.copy()
    return x.reshape(shape)


def _top_power(n, samples):
    """The largest power 2^J a window steps by, for an n x n propagator or a
    stack of them.

    J squarings cost about J n^3 operations per block, and each sample costs
    n^2 however it is reached, so they pay while J n <= samples. The powers
    kept hold J n^2 entries per block, no more than the 2 * 128 n of two
    windows of samples while J n <= 256. And 2^J is at most half a window.
    """
    return 1 << min(min(samples, 2 * _WINDOW) // n, (_WINDOW // 2).bit_length() - 1)


def _apply(prop, src, dst):
    """dst[k] = prop @ src[k] for every sample k, blockwise on a stack.

    One sample is a matrix-vector product, as plain stepping takes it; more
    are one matrix-matrix product per block, with the samples as the rows.
    The rows product gives one sample the same bits, but the two-mode sector
    steps one at a time, and at 175 levels it takes about 24 us a step, not 8-9.
    """
    if len(src) == 1:
        np.matmul(prop, src[0, ..., None], out=dst[0, ..., None])
    else:
        # a state is at most 2-D, so swapping axes 0 and -2 moves the samples to -2
        rows = np.swapaxes(src, 0, -2)
        np.matmul(rows, np.swapaxes(prop, -1, -2), out=np.swapaxes(dst, 0, -2))


def _fill(ys, a, e, powers, top):
    """ys[a:e] from the sample before a (the last slot when a = 0) under one step.

    Sample a is P times its predecessor; then samples [a + f, a + 2f) are
    P^f times samples [a, a + f) for f = 1, 2, 4, ... up to ``top``, and
    the rest follow in chunks of ``top``. ``powers[k]`` is P^(2^k); a
    missing power is squared from the one below it and kept.
    """
    _apply(powers[0], ys[a - 1 : a] if a else ys[-1:], ys[a : a + 1])
    done = 1
    while a + done < e:
        f = min(done, top)
        k = f.bit_length() - 1
        if k == len(powers):
            powers.append(powers[-1] @ powers[-1])
        m = min(f, e - a - done)
        _apply(powers[k], ys[a + done - f : a + done - f + m], ys[a + done : a + done + m])
        done += m


def _upper_triangular(prop):
    """Whether ``prop``, a matrix or a stack of them, is finite and exactly
    upper-triangular, so that no level above the highest one a state holds
    is ever filled: an inf times a held zero would make a nan there."""
    return bool(np.isfinite(prop).all()) and not np.tril(prop, -1).any()


def _held(y):
    """1 + the highest level that any row of the state ``y`` holds, at least 1;
    a nan or inf counts as held."""
    rows = np.flatnonzero(y.reshape(-1, y.shape[-1]).any(axis=0))
    return int(rows[-1]) + 1 if rows.size else 1


def _leading(prop, live):
    """The leading live x live block of a matrix or a stack of them, contiguous."""
    return prop if live == prop.shape[-1] else np.ascontiguousarray(prop[..., :live, :live])


def integrate(propagator, y0, t_grid, cfg, post_accept=None, restrict=None):
    """Advance a linear, autonomous system exactly through every point of ``t_grid``.

    ``propagator(h)`` returns the propagator of one step h, ``expm(gen * h)``
    for a generator ``gen`` that is one square matrix acting on the state
    vector or a stack of them acting blockwise on its rows. It is rebuilt
    only when the step changes by more than 1e-9 relative. The propagated
    state is ``y0``, or ``restrict(y0)`` when the generator acts on an
    invariant part of it.

    The states at the grid points, the first one included, are formed in
    windows of 128 consecutive samples (32 at power 1). Within a window, each run of samples
    under one propagator P is filled by doubling (``_fill``): its first
    sample is P times its predecessor, and samples [j + f, j + 2f) are P^f
    times samples [j, j + f) for f = 1, 2, 4, ... up to a top power, after
    which the run advances in chunks of that power. The powers are squared
    here, once per propagator, and the top power 2^J grows with the grid
    and shrinks with the propagator's size n (``_top_power``): at power 1,
    as for the two-mode sector, every sample is one step, as when stepping.

    Each new propagator is checked once: if it is finite and exactly
    upper-triangular, no level above the highest one a state holds (a
    nonzero entry in any block, nan and inf included) is ever filled. So
    at the start of each window, the highest level the sample before it
    holds is found, and when it falls, the kept powers are cut to their
    leading ``live x live`` block, the levels dropped are zeroed in the
    window buffer once, and only ``ys[..., :live]`` is filled from then on;
    the top power is taken from ``live``. A propagator that is not
    triangular, as the two-mode sector's (triangular only by blocks), is
    applied to every level.

    Each window is then passed, in blocks of at most 32 samples, once and
    in order, to ``post_accept(start, ys)``, where ``ys[j]`` is the state
    at ``t_grid[start + j]``; the engines record their samples and check
    their invariants there. The next window overwrites ``ys``, so the callback
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
    steps = np.diff(t_grid)
    if np.any(steps <= 0):
        raise ValueError("t_grid must be strictly ascending")
    y = np.asarray(y0 if restrict is None else restrict(y0))
    n = live = y.shape[-1]  # the levels propagated; every level above them is empty
    # a stepped run needs no more than a block
    window = _WINDOW if _top_power(n, t_grid.size) > 1 else _BLOCK
    ys = np.empty((min(window, t_grid.size),) + y.shape, dtype=y.dtype)
    ys[0] = y
    h_built, powers, triangular = math.nan, None, False
    for start in range(0, t_grid.size, window):
        stop = min(start + window, t_grid.size)
        i = first = max(start, 1)
        while i < stop:
            h = steps[i - 1]
            if not abs(h - h_built) <= _STEP_RTOL * h_built:  # nan-safe: builds the first
                h_built, power = h, propagator(h)
                triangular = _upper_triangular(power)
                live = live if triangular else n
                powers = [_leading(power, live)]
                dtype = np.result_type(ys, power)
                if dtype != ys.dtype:  # a complex propagator widens a real start
                    ys = ys.astype(dtype)
            if triangular and i == first:  # no sample of this window is pending yet
                held = _held(ys[i - start - 1])
                if held < live:
                    ys[..., held:live] = 0.0
                    live, powers = held, [_leading(p, held) for p in powers]
            # the run under this propagator ends at the next step it does not match
            off = np.abs(steps[i : stop - 1] - h_built) > _STEP_RTOL * h_built
            end = i + 1 + int(np.argmax(off)) if off.any() else stop
            _fill(ys[..., :live], i - start, end - start, powers, _top_power(live, t_grid.size))
            i = end
        if post_accept is not None:
            for lo in range(start, stop, _BLOCK):
                post_accept(lo, ys[lo - start : min(lo + _BLOCK, stop) - start])
    return ys[stop - 1 - start].copy()
