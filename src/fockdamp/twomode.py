"""Two-mode origin of the nonlinear absorber.

Mode A exchanges excitations with mode B through u4 * (a^dag a a) b^dag +
h.c. while B is linearly damped at gamma_b. When gamma_b dominates, B stays
nearly empty and adiabatic elimination reduces the pair to the single-mode
nonlinear channel with rate gamma_a |2 u4 / gamma_b|^2; this module runs the
unreduced pair so that reduction can be checked; the reduced-population
error falls off like 1/gamma_b^2 (relative order |u4|^2/gamma_b^2).

Tensor-product basis |n_A> x |n_B|, index n_A * (nmax_b + 1) + n_B. The
vectorized generator is a SciPy CSR matrix applied by its matrix-vector product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .analysis import TimeSeries, effective_rate, observables
from .channels import nonlinear_loss
from .errors import DimensionMismatch, TraceDriftExceeded
from .fock import DensityMatrix, FockCutoff, _frozen_array, annihilation_matrix, coherent_density
from .integrate import IntegratorConfig, integrate

_TRACE_DRIFT_LIMIT = 1e-8
_B_TOP_MASS_LIMIT = 1e-10
# elimination_comparison: the top B level must sit this far below each error
_TOP_MASS_MARGIN = 1e4


@dataclass(frozen=True)
class TwoModeParams:
    """Exchange strength, partner damping, and basis sizes.

    ``gamma_a_formula`` is the flat-reservoir rate entering the effective
    rate; by default it equals ``gamma_b`` (the partner's reservoir spectrum
    evaluated at the surviving mode's frequency, assumed flat). It is kept
    separate so the two readings of the formula stay testable.
    """

    u4: complex
    gamma_b: float
    gamma_a_formula: float | None = None
    nmax_a: int = 12
    nmax_b: int = 4

    def __post_init__(self):
        if not (self.gamma_b > 0 and math.isfinite(self.gamma_b)):
            raise ValueError(f"gamma_b must be positive, got {self.gamma_b}")
        if self.nmax_a < 1 or self.nmax_b < 1:
            raise ValueError("both cutoffs must be >= 1")
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

    @property
    def dims(self) -> tuple[int, int]:
        return (self.nmax_a + 1, self.nmax_b + 1)


@dataclass(frozen=True)
class TwoModeState:
    """Hermitian unit-trace matrix over the product basis."""

    entries: np.ndarray
    dims: tuple[int, int]
    trace_tol: float = field(default=1e-12, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        da, db = self.dims
        if m.shape != (da * db, da * db):
            raise DimensionMismatch(f"state shape {m.shape} does not match dims {self.dims}")
        asym = np.max(np.abs(m - m.conj().T))
        if asym >= 1e-12:
            raise ValueError(f"state is not Hermitian: max asymmetry {asym:.3e}")
        err = abs(np.trace(m).real - 1.0)
        if not err <= self.trace_tol:
            raise ValueError(f"trace deviates from 1 by {err:.3e}")
        object.__setattr__(self, "entries", _frozen_array(m))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def product_with_vacuum(rho_a: DensityMatrix, nmax_b: int) -> TwoModeState:
    """rho_A x |0><0|_B, keeping rho_A's truncation deficit untouched."""
    db = nmax_b + 1
    rho_b = np.zeros((db, db), dtype=np.complex128)
    rho_b[0, 0] = 1.0
    m = np.kron(rho_a.entries, rho_b)
    tol = max(1e-12, 2.0 * abs(rho_a.trace_deficit))
    return TwoModeState(m, (rho_a.dim, db), trace_tol=tol)


def partial_trace_a(state: TwoModeState) -> DensityMatrix:
    """Trace out mode B."""
    da, db = state.dims
    r = state.entries.reshape(da, db, da, db)
    reduced = np.einsum("ibjb->ij", r)
    return DensityMatrix(reduced, trace_tol=1e-7)


def partial_trace_b(state: TwoModeState) -> DensityMatrix:
    """Trace out mode A."""
    da, db = state.dims
    r = state.entries.reshape(da, db, da, db)
    reduced = np.einsum("aiaj->ij", r)
    return DensityMatrix(reduced, trace_tol=1e-7)


def mode_b_occupation(state: TwoModeState) -> float:
    """<b^dag b> of the partner mode."""
    da, db = state.dims
    diag = np.diag(state.entries).real.reshape(da, db)
    return float(np.sum(diag * np.arange(db)[None, :]))


def _liouvillian(u4: complex, gamma_b: float, dim_a: int, dim_b: int) -> sp.csr_matrix:
    """Vectorized generator, row-major convention: X rho Y -> kron(X, Y^T)."""
    a = annihilation_matrix(FockCutoff(dim_a - 1))
    b = annihilation_matrix(FockCutoff(dim_b - 1))
    exch = (a.conj().T @ a) @ a  # lowers A by one
    h = u4 * np.kron(exch, b.conj().T) + np.conj(u4) * np.kron(exch.conj().T, b)
    d = dim_a * dim_b
    eye = sp.identity(d, dtype=np.complex128, format="csr")
    h_s = sp.csr_matrix(h)
    lsup = -1j * (sp.kron(h_s, eye) - sp.kron(eye, h_s.T))
    if gamma_b > 0:
        jump = sp.csr_matrix(math.sqrt(gamma_b) * np.kron(np.eye(dim_a), b))
        jdj = (jump.conj().T @ jump).tocsr()
        lsup = lsup + sp.kron(jump, jump.conj()) - 0.5 * (
            sp.kron(jdj, eye) + sp.kron(eye, jdj.T)
        )
    return lsup.tocsr()


@dataclass(frozen=True)
class TwoModeResult:
    series: TimeSeries  # reduced mode-A observables
    b_occupation: np.ndarray
    b_top_level_mass: float
    final_state: TwoModeState

    def __post_init__(self):
        object.__setattr__(self, "b_occupation", _frozen_array(np.asarray(self.b_occupation, float)))


def two_mode_evolve(
    rho0: TwoModeState,
    params: TwoModeParams,
    t_grid,
    cfg: IntegratorConfig | None = None,
) -> TwoModeResult:
    """Integrate the exchange-plus-damping pair and sample reduced-A observables.

    Mode B must start in vacuum. The highest retained B level is expected to
    stay essentially empty in the elimination regime; its peak occupation is
    reported and a warning fires if it exceeds 1e-10, signalling that
    ``nmax_b`` is doing real work.
    """
    cfg = cfg or IntegratorConfig()
    da, db = params.dims
    if rho0.dims != (da, db):
        raise DimensionMismatch(f"state dims {rho0.dims} do not match params {params.dims}")
    diag0 = np.diag(rho0.entries).real.reshape(da, db)
    if np.sum(diag0[:, 1:]) > 1e-9:
        raise ValueError("mode B must start in vacuum")

    lsup = _liouvillian(params.u4, params.gamma_b, da, db)
    d = da * db
    tr0 = float(np.trace(rho0.entries).real)

    def rhs(y):
        return (lsup @ y.reshape(-1)).reshape(d, d)

    def post_accept(y, f):
        return 0.5 * (y + y.conj().T), f

    t_arr = np.asarray(t_grid, dtype=float)
    n_samples = t_arr.size
    pops = np.zeros((n_samples, da))
    mean = np.zeros(n_samples)
    std = np.zeros(n_samples)
    g2 = np.zeros(n_samples)
    trace_err = np.zeros(n_samples)
    min_eig = np.zeros(n_samples)
    b_occ = np.zeros(n_samples)
    b_top = np.zeros(n_samples)
    nb_levels = np.arange(db, dtype=float)

    def on_sample(i, t, y):
        diag = np.diag(y).real.reshape(da, db)
        pops[i] = diag.sum(axis=1)
        obs = observables(pops[i])
        mean[i], std[i], g2[i] = obs.mean_n, obs.std_n, obs.g2
        drift = abs(float(np.trace(y).real) - tr0)
        trace_err[i] = drift
        if not drift <= _TRACE_DRIFT_LIMIT:
            raise TraceDriftExceeded(f"trace drifted by {drift:.3e} at t={t:.6g}")
        min_eig[i] = np.linalg.eigvalsh(y)[0].real
        b_occ[i] = float(np.sum(diag * nb_levels[None, :]))
        b_top[i] = float(diag[:, -1].sum())

    y_final = integrate(
        rhs, np.array(rho0.entries), t_arr, cfg, post_accept=post_accept, on_sample=on_sample
    )
    top_mass = float(b_top.max())
    if top_mass > _B_TOP_MASS_LIMIT:
        warnings.warn(
            f"top B level reached {top_mass:.2e} > {_B_TOP_MASS_LIMIT:.0e}; outside "
            "the elimination regime, consider raising nmax_b"
        )
    series = TimeSeries(t_arr, mean, std, g2, trace_err, pops, min_eigenvalue=min_eig)
    final = TwoModeState(
        y_final, (da, db), trace_tol=2 * _TRACE_DRIFT_LIMIT + abs(1.0 - tr0)
    )
    return TwoModeResult(series, b_occ, top_mass, final)


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
    cfg: IntegratorConfig | None = None,
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

    cfg = cfg or IntegratorConfig()
    cutoff_a = FockCutoff(nmax_a)
    # the product basis is deliberately small; allow the loose coherent tail
    rho_a0 = coherent_density(alpha, cutoff_a, tail_tol=1e-4)
    records = []
    for gb in gamma_bs:
        params = TwoModeParams(u4=u4, gamma_b=gb, nmax_a=nmax_a, nmax_b=nmax_b)
        ge = params.gamma_e
        t_grid = np.linspace(0.0, tau_max / ge, n_samples)
        with warnings.catch_warnings():
            # judged below against the error it would distort, not an absolute limit
            warnings.filterwarnings("ignore", "top B level", UserWarning)
            two = two_mode_evolve(product_with_vacuum(rho_a0, nmax_b), params, t_grid, cfg)
        eff_series, _ = evolve(rho_a0, [nonlinear_loss(ge)], None, t_grid, cfg)
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
