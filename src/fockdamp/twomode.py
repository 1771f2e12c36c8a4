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
sector's block alone and ``two_mode_evolve`` propagates it. In the gauge
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
from .fock import DensityMatrix, FockCutoff, _frozen_array, annihilation_matrix, coherent_density
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


def _sector_generator(params: TwoModeParams, da: int):
    """Real generator of the packed Delta N = 0 sector, A of dimension ``da``.

    Returns ``(gen, j, k)``: packed entry p is the gauged rho'[j[p], k[p]]
    with j[p] <= k[p] (the gauge of the module docstring). In the gauge the
    pair evolves as d rho'/dt = A rho' + rho' A^T + J rho' J^T, with the
    real A = |u4| (K - K^T) - J^T J / 2, K = (a^dag a a) x b^dag and
    J = sqrt(gamma_b) 1 x b. So rho'[j', k'] feeds d rho'[j, k]/dt with
    A[j, j'] delta_kk' + delta_jj' A[k, k'] + J[j, j'] J[k, k'], formed by
    index arithmetic over the sector pairs. A column with j' > k' folds onto
    its mirror, since the sector stays symmetric.
    """
    db = params.nmax_b + 1
    d = da * db
    n_b = np.arange(d) % db
    n_tot = np.arange(d) // db + n_b
    rows, cols = np.nonzero(n_tot[:, None] == n_tot[None, :])
    a = annihilation_matrix(FockCutoff(da - 1)).real
    b = annihilation_matrix(FockCutoff(db - 1)).real
    k_ex = np.kron((a.T @ a) @ a, b.T)  # lowers A by one, raises B by one
    jump = math.sqrt(params.gamma_b) * np.kron(np.eye(da), b)
    drift = abs(params.u4) * (k_ex - k_ex.T) - 0.5 * (jump.T @ jump)
    packed = rows <= cols
    # packed output pairs (j, k) down the rows, every input pair along the columns
    j, k = rows[packed, None], cols[packed, None]
    j_in, k_in = rows[None, :], cols[None, :]
    sector = (
        drift[j, j_in] * (k == k_in) + (j == j_in) * drift[k, k_in]
        + jump[j, j_in] * jump[k, k_in]
    )
    mirror = np.searchsorted(
        rows[packed] * d + cols[packed], np.minimum(rows, cols) * d + np.maximum(rows, cols)
    )
    gen = np.zeros((int(packed.sum()),) * 2)
    np.add.at(gen, (slice(None), mirror), sector)
    return gen, rows[packed], cols[packed]


def two_mode_evolve(rho_a: DensityMatrix, params: TwoModeParams, t_grid) -> TwoModeResult:
    """Propagate the pair from rho_a x |0><0|_B and sample reduced-A observables.

    The Delta N = 0 sector of that product holds only rho_a's populations,
    since its entries vanish unless B is empty on both sides, where equal N
    means equal n_A: two rho_a with the same diagonal give the same run, and
    the gauge, the identity on diagonal entries, never touches the start.
    ``analysis.Samples`` checks positivity on the sector block, a valid state
    in its own right: the U(1) twirl that removes the other sectors commutes
    with the dynamics. The B occupation and the mass of the highest retained
    B level come from its recorded diagonals; that level is expected to stay
    essentially empty in the elimination regime, and a warning fires if its
    peak exceeds 1e-10, signalling that ``nmax_b`` is doing real work.
    """
    da, db = rho_a.dim, params.nmax_b + 1
    vacuum_b = np.diag(np.eye(db)[0])
    gen, rows, cols = _sector_generator(params, da)
    samples = Samples(
        t_grid, rho_a.trace(), rows == cols,
        upper=(rows, cols, np.arange(rows.size)),
    )

    # the whole pair goes in, so a wrapper of integrate sees the state's size
    # (perfbench's twomode.state_dim); restrict packs its real, diagonal sector
    integrate(
        lambda h: expm(gen * h), np.kron(rho_a.entries, vacuum_b), samples.t, EXACT,
        post_accept=samples.add, restrict=lambda rho: rho[rows, cols].real,
    )
    by_level = samples.diagonals.reshape(samples.t.size, da, db)
    b_occ = (by_level * np.arange(db, dtype=float)).reshape(samples.t.size, -1).sum(axis=1)
    b_top = by_level[:, :, -1].sum(axis=1)
    top_mass = float(b_top.max())
    if top_mass > _B_TOP_MASS_LIMIT:
        warnings.warn(
            f"top B level reached {top_mass:.2e} > {_B_TOP_MASS_LIMIT:.0e}; outside "
            "the elimination regime, consider raising nmax_b"
        )
    return TwoModeResult(samples.series(by_level.sum(axis=2)), b_occ, top_mass)


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
