"""Two-mode origin of the nonlinear absorber.

Mode A exchanges excitations with mode B through u4 * (a^dag a a) b^dag +
h.c. while B is linearly damped at gamma_b. When gamma_b dominates, B stays
nearly empty and adiabatic elimination reduces the pair to the single-mode
nonlinear channel with rate gamma_a |2 u4 / gamma_b|^2; this module runs the
unreduced pair so that reduction can be checked; the reduced-population
error falls off like 1/gamma_b^2 (relative order |u4|^2/gamma_b^2).

Tensor-product basis |n_A> x |n_B>, index n_A * (nmax_b + 1) + n_B.
The Lindblad generator couples no two sectors of Delta N = N_ket - N_bra,
and every output (the A populations, the B occupation and its top level)
lies in the Delta N = 0 sector, so ``_sector_generator`` builds that
sector's block alone and ``two_mode_evolve`` propagates it. No term raises
the total excitation N = n_A + n_B (the exchange keeps it, the damping
lowers it), and the start rho_A x |0><0|_B has N <= nmax_a, so only the
reachable states, those with N <= nmax_a, are ever filled: the sector is
built, propagated and checked over them alone, and the rest of it stays
exactly empty. Its entries are ordered by N, so the damping, which feeds
block N from block N + 1, lies above the diagonal blocks, and ``expm``
builds the propagator over strips of those blocks. In the gauge
rho'_jk = (i e^{-i arg u4})^(n_B(j) - n_B(k)) rho_jk the sector generator
is real; B starts in vacuum, so the sector starts diagonal, stays real and
symmetric, and its entries with j <= k are propagated as one real vector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import Samples, TimeSeries, effective_rate
from .channels import nonlinear_loss
from .fock import DensityMatrix, FockCutoff, _frozen_array, coherent_density
from .integrate import EXACT, expm, integrate

_B_TOP_MASS_LIMIT = 1e-10
# the product basis is deliberately small, so mode A's coherent tail may be loose
TAIL_TOL = 1e-4
# elimination_comparison: the top B level must sit this far below each error
_TOP_MASS_MARGIN = 1e4


@dataclass(frozen=True)
class TwoModeParams:
    """Exchange strength, partner damping, and B's cutoff (A's is its state's).

    ``gamma_a_formula`` is the flat-reservoir rate entering the effective
    rate; by default it equals ``gamma_b`` (the partner's reservoir spectrum
    evaluated at the surviving mode's frequency, assumed flat). It is kept
    separate so the two readings of the formula stay testable.
    """

    u4: complex
    gamma_b: float
    gamma_a_formula: float | None = None
    nmax_b: int = 4

    def __post_init__(self):
        if not (self.gamma_b > 0 and math.isfinite(self.gamma_b)):
            raise ValueError(f"gamma_b must be positive, got {self.gamma_b}")
        if not (math.isfinite(complex(self.u4).real) and math.isfinite(complex(self.u4).imag)):
            raise ValueError(f"u4 must be finite, got {self.u4}")
        if self.nmax_b < 1:
            raise ValueError("nmax_b must be >= 1")
        if abs(self.u4) > 0 and self.gamma_b / abs(self.u4) < 10:
            warnings.warn(
                f"gamma_b/|u4| = {self.gamma_b / abs(self.u4):.2f} < 10: outside the "
                "adiabatic-elimination regime, reduction error will be large"
            )

    @property
    def gamma_a(self) -> float:
        return self.gamma_b if self.gamma_a_formula is None else self.gamma_a_formula

    @property
    def gamma_e(self) -> float:
        return effective_rate(self.u4, self.gamma_b, self.gamma_a)


@dataclass(frozen=True)
class TwoModeResult:
    series: TimeSeries  # reduced mode-A observables
    b_occupation: np.ndarray
    b_top_level_mass: float

    def __post_init__(self):
        object.__setattr__(self, "b_occupation", _frozen_array(np.asarray(self.b_occupation, float)))


def _kron_in_sector(x, y, n_tot):
    """The nonzeros of the Kronecker product x (x) y that feed a sector entry.

    ``x`` and ``y`` are (rows, cols, values) over the reachable states, and
    (x (x) y)[(r1, r2), (c1, c2)] = x[r1, c1] y[r2, c2]. Only the products
    whose output pair has n_tot[r1] = n_tot[r2] are formed: each nonzero of
    x meets the nonzeros of y in the rows of its own N. Returns the output
    pair, the input pair and the value of each product.
    """
    (r1, c1, v1), (r2, c2, v2) = x, y
    by_n = np.argsort(n_tot[r2], kind="stable")
    lo, hi = np.searchsorted(n_tot[r2][by_n], [n_tot[r1], n_tot[r1] + 1])
    count = hi - lo
    i = np.repeat(np.arange(r1.size), count)
    k = by_n[np.arange(i.size) + np.repeat(lo - np.cumsum(count) + count, count)]
    return r1[i], r2[k], c1[i], c2[k], v1[i] * v2[k]


def _sector_generator(params: TwoModeParams, da: int):
    """Real generator of the packed, reachable Delta N = 0 sector, A of dimension ``da``.

    The reachable states are the |n_A> x |n_B> with n_A + n_B <= da - 1
    (module docstring). Returns ``(gen, j, k)``: packed entry p is the
    gauged rho'[j[p], k[p]], with j[p] <= k[p] product indices of reachable
    states of equal N, ordered by N and then row-major, so ``gen`` is block
    upper-bidiagonal in N: the drift stays within block N and the damping
    feeds it from block N + 1. In the gauge the pair evolves as
    d rho'/dt = A rho' + rho' A^T + J rho' J^T, with the real
    A = |u4| (K - K^T) - J^T J / 2, K = (a^dag a a) x b^dag and
    J = sqrt(gamma_b) 1 x b: on the row-major rho' that is
    A x 1 + 1 x A + J x J. ``gen`` sums, with one ``np.bincount``, the
    products of those nonzeros that feed a packed entry; an input entry
    (j', k') with j' > k' folds onto its mirror, since the sector stays
    symmetric.
    """
    db = params.nmax_b + 1
    n_a, n_b = np.divmod(np.arange(da * db), db)
    states = np.flatnonzero(n_a + n_b < da)  # by n_A, then n_B
    n_a, n_b = n_a[states], n_b[states]
    n_tot, m = n_a + n_b, states.size
    # K takes (n_A, n_B) to (n_A - 1, n_B + 1); a^dag a a |n> = sqrt(n) (n - 1) |n - 1>
    ex = np.flatnonzero((n_a > 1) & (n_b < db - 1))
    to = np.searchsorted(states, states[ex] - db + 1)
    k_ex = abs(params.u4) * np.sqrt(n_a[ex]) * (n_a[ex] - 1) * np.sqrt(n_b[ex] + 1)
    damped = np.flatnonzero(n_b > 0)  # J takes each to (n_A, n_B - 1), the state before it
    drift = (
        np.r_[to, ex, damped], np.r_[ex, to, damped],
        np.r_[k_ex, -k_ex, -0.5 * params.gamma_b * n_b[damped]],
    )
    jump = (damped - 1, damped, math.sqrt(params.gamma_b) * np.sqrt(n_b[damped]))
    eye = (np.arange(m), np.arange(m), np.ones(m))
    out_j, out_k, in_j, in_k, value = map(np.concatenate, zip(
        _kron_in_sector(drift, eye, n_tot),
        _kron_in_sector(eye, drift, n_tot),
        _kron_in_sector(jump, jump, n_tot),
    ))
    packed = out_j <= out_k
    j, k = np.nonzero(np.triu(n_tot[:, None] == n_tot))
    key, size = j * m + k, j.size  # the keys ascend
    by_n = np.argsort(n_tot[j], kind="stable")
    slot = np.empty(size, dtype=np.intp)
    slot[by_n] = np.arange(size)  # the packed place of each key
    out = slot[np.searchsorted(key, out_j[packed] * m + out_k[packed])]
    lo, hi = np.minimum(in_j, in_k)[packed], np.maximum(in_j, in_k)[packed]
    inp = slot[np.searchsorted(key, lo * m + hi)]
    gen = np.bincount(out * size + inp, weights=value[packed], minlength=size * size)
    return gen.reshape(size, size), states[j[by_n]], states[k[by_n]]


def two_mode_evolve(rho_a: DensityMatrix, params: TwoModeParams, t_grid) -> TwoModeResult:
    """Propagate the pair from rho_a x |0><0|_B and sample reduced-A observables.

    The Delta N = 0 sector of that product holds only rho_a's populations,
    since its entries vanish unless B is empty on both sides, where equal N
    means equal n_A: two rho_a with the same diagonal give the same run, and
    the gauge, the identity on diagonal entries, never touches the start.
    ``analysis.Samples`` checks positivity on the reachable block of the
    sector, a valid state in its own right: the U(1) twirl that removes the
    other sectors commutes with the dynamics, and the rest of the sector is
    exactly empty. The A populations, the B occupation and the mass of the
    highest retained B level come from its recorded diagonal, where the
    states of one n_A are contiguous. That level is expected to stay
    essentially empty in the elimination regime, and a warning fires if its
    peak exceeds 1e-10, signalling that ``nmax_b`` is doing real work.
    """
    da, db = rho_a.dim, params.nmax_b + 1
    vacuum_b = np.diag(np.eye(db)[0])
    gen, rows, cols = _sector_generator(params, da)
    states = np.sort(rows[rows == cols])  # the reachable states
    n_a, n_b = np.divmod(states, db)
    compact = np.searchsorted(states, rows), np.searchsorted(states, cols)
    samples = Samples(t_grid, rho_a.trace(), upper=(*compact, np.arange(rows.size)))

    # the whole pair goes in, so a wrapper of integrate sees the state's size
    # (perfbench's twomode.state_dim); restrict packs its real, reachable sector
    integrate(
        lambda h: expm(gen * h), np.kron(rho_a.entries, vacuum_b), samples.t, EXACT,
        post_accept=samples.add, restrict=lambda rho: rho[rows, cols].real,
    )
    diagonals = samples.diagonals
    b_occ = diagonals @ n_b.astype(float)
    top_mass = float(diagonals[:, n_b == db - 1].sum(axis=1).max())
    if top_mass > _B_TOP_MASS_LIMIT:
        warnings.warn(
            f"top B level reached {top_mass:.2e} > {_B_TOP_MASS_LIMIT:.0e}; outside "
            "the elimination regime, consider raising nmax_b"
        )
    by_a = np.add.reduceat(diagonals, np.searchsorted(n_a, np.arange(da)), axis=1)
    return TwoModeResult(samples.series(by_a), b_occ, top_mass)


@dataclass(frozen=True)
class EliminationRecord:
    gamma_b: float
    gamma_e: float
    sup_error: float
    peak_b_occupation: float
    b_top_level_mass: float


def elimination_comparison(
    u4: complex = 1.0,
    alpha: complex = 1.5,
    gamma_bs: tuple[float, ...] = (25.0, 50.0, 100.0),
    nmax_a: int = 12,
    nmax_b: int = 4,
    tau_max: float = 4.0,
    n_samples: int = 41,
) -> list[EliminationRecord]:
    """Convergence experiment for the adiabatic reduction.

    For each gamma_b, run the two-mode pair and the effective single-mode
    nonlinear channel from the same truncated coherent state on the same
    scaled grid tau = gamma_e * t, and record the sup over samples and
    levels of the population difference. On that grid the corrections to the
    reduced generator enter at relative order |u4|^2/gamma_b^2, so the error
    shrinks like 1/gamma_b^2: about 4x per doubling of gamma_b. It warns when
    a record's top B level mass is not 1e4 below its error, since then the
    truncation at ``nmax_b`` may drive that error.
    """
    from .dynamics import evolve

    if u4 == 0:
        # gamma_e = 0 then, and the scaled grid tau = gamma_e t has no extent
        raise ValueError(f"u4 must be nonzero, got {u4}")
    rho_a0 = coherent_density(alpha, FockCutoff(nmax_a), tail_tol=TAIL_TOL)
    records = []
    for gb in gamma_bs:
        params = TwoModeParams(u4=u4, gamma_b=gb, nmax_b=nmax_b)
        ge = params.gamma_e
        t_grid = np.linspace(0.0, tau_max / ge, n_samples)
        with warnings.catch_warnings():
            # judged below against the error it would distort, not an absolute limit
            warnings.filterwarnings("ignore", "top B level", UserWarning)
            two = two_mode_evolve(rho_a0, params, t_grid)
        eff_series, _ = evolve(rho_a0, [nonlinear_loss(ge)], None, t_grid)
        err = float(np.max(np.abs(two.series.populations - eff_series.populations)))
        if not two.b_top_level_mass * _TOP_MASS_MARGIN <= err:
            warnings.warn(
                f"top B level reached {two.b_top_level_mass:.2e} at gamma_b={gb:g}, not "
                f"{_TOP_MASS_MARGIN:.0e} below the error {err:.2e}; the truncation at "
                "nmax_b may dominate it, consider raising nmax_b"
            )
        records.append(
            EliminationRecord(gb, ge, err, float(two.b_occupation.max()), two.b_top_level_mass)
        )
    return records
