"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line. Two criteria check a
bound that follows from the physics rather than a rounded literal:

- the three-photon ceiling of criterion 2: pure a^3 loss conserves the mass
  in each class of n mod 3 and level 1 has no loss of its own, so p1(t)
  rises monotonically to the mod-3 mass C1 = sum_k P(3k+1) of the input. For
  Poisson(x) that is (1/3)(1 + 2 e^{-3x/2} cos(sqrt(3) x/2 - 2 pi/3)), which
  for x = 9 is 1/3 + 7.6e-7; every sample must stay below it.
- the elimination ratio of criterion 6: on the scaled grid tau = gamma_e t,
  the retardation, the initial slip and the generator corrections of the
  adiabatic reduction all enter at relative order |u4|^2/gamma_b^2, so the
  population error falls by about 4 per doubling of gamma_b.
"""

import json
import math
import warnings

import numpy as np
import pytest

import fockdamp as fd
from fockdamp import cli
from fockdamp.channels import nonlinear_loss
from fockdamp.scenario import parse_scenario, preset_scenarios
from fockdamp.trajectories import TrajectoryConfig, run_ensemble
from fockdamp.twomode import TAIL_TOL, elimination_comparison

MC_GRID = np.linspace(0.0, 100.0, 21)
MC_TRAJ = 10000
MC_SEEDS = {
    "fig1_pure_nonlinear": 101,
    "fig1_pure_two_photon": 102,
    "fig1_pure_three_photon": 103,
    "fig2_add_linear": 201,
    "fig2_add_two_photon": 202,
    "fig2_add_mixed": 203,
}


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def poisson_vector(mean, nmax):
    return np.array(
        [math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1)) for n in range(nmax + 1)]
    )


@pytest.fixture(scope="module")
def preset_scns():
    return {raw["name"]: parse_scenario(raw) for p in ("fig1", "fig2") for raw in preset_scenarios(p)}


@pytest.fixture(scope="module")
def dense_runs(preset_scns):
    return {name: cli.run_scenario(scn) for name, scn in preset_scns.items()}


@pytest.fixture(scope="module")
def pauli_runs(preset_scns):
    out = {}
    for name, scn in preset_scns.items():
        raw = dict(scn.to_dict(), engine="pauli")
        out[name] = cli.run_scenario(parse_scenario(raw))
    return out


@pytest.fixture(scope="module")
def mc_runs(preset_scns):
    out = {}
    for name, scn in preset_scns.items():
        psi0 = fd.coherent_state(scn.alpha, scn.cutoff)
        cfg = TrajectoryConfig(n_traj=MC_TRAJ, master_seed=MC_SEEDS[name], t_grid=MC_GRID)
        out[name] = run_ensemble(psi0, scn.channels(), scn.kerr(), cfg)
    return out


@pytest.fixture(scope="module")
def pauli_on_mc_grid(preset_scns):
    out = {}
    for name, scn in preset_scns.items():
        p0 = fd.coherent_density(scn.alpha, scn.cutoff).populations()
        out[name] = fd.evolve_populations(p0, scn.channels(), MC_GRID)
    return out


@pytest.fixture(scope="module")
def elim_records():
    return elimination_comparison(u4=1.0, alpha=1.5, gamma_bs=(25.0, 50.0, 100.0))


def test_criterion_1_pure_nonlinear_two_point_steady(dense_runs):
    series = dense_runs["fig1_pure_nonlinear"].series
    assert series.t[-1] == 100.0
    mean_err = abs(series.mean_n[-1] - (1 - math.exp(-9)))
    p1_err = abs(series.populations[-1, 1] - (1 - math.exp(-9)))
    sigma_err = abs(series.std_n[-1] - math.sqrt(math.exp(-9) * (1 - math.exp(-9))))
    ok = mean_err < 1e-6 and p1_err < 1e-6 and sigma_err < 1e-5
    assert report(
        1,
        ok,
        f"mean_n err {mean_err:.2e} (<1e-6), p1 err {p1_err:.2e} (<1e-6), "
        f"sigma err {sigma_err:.2e} (<1e-5); the sigma floor is the frozen vacuum weight",
    )


def test_criterion_2_two_photon_half(dense_runs):
    series = dense_runs["fig1_pure_two_photon"].series
    p1_err = abs(series.populations[-1, 1] - (1 - math.exp(-18)) / 2)
    residual = series.populations[-1, 2:].sum()
    ok = p1_err < 1e-6 and residual < 1e-8
    assert report(
        2, ok, f"two-photon p1 err {p1_err:.2e} (<1e-6), mass above level 1 {residual:.2e} (<1e-8)"
    )


def test_criterion_2_three_photon_residue(dense_runs):
    series = dense_runs["fig1_pure_three_photon"].series
    p0 = poisson_vector(9.0, 40)
    residue_1 = p0[1::3].sum()  # independent lgamma-series oracle
    p1_err = abs(series.populations[-1, 1] - residue_1)
    residual = series.populations[-1, 3:].sum()
    ok = p1_err < 1e-6 and residual < 1e-8
    assert report(
        2, ok, f"three-photon p1 err vs mod-3 sum {p1_err:.2e} (<1e-6), "
        f"mass above level 2 {residual:.2e} (<1e-8)"
    )


def mod3_residue_1(x):
    """Closed form of sum_k P(3k+1) for a Poisson distribution of mean x."""
    phase = math.sqrt(3.0) * x / 2.0 - 2.0 * math.pi / 3.0
    return (1.0 + 2.0 * math.exp(-1.5 * x) * math.cos(phase)) / 3.0


def test_criterion_2_three_photon_ceiling(dense_runs):
    # level 1 only gains under pure a^3 loss, so the conserved mod-3 mass C1
    # of the input is a ceiling at every sample; C1 comes from the closed
    # form, independent of the lgamma series used by the residue test
    p1 = dense_runs["fig1_pure_three_photon"].series.populations[:, 1]
    c1 = mod3_residue_1(9.0)
    overshoot = float(np.max(p1 - c1))
    near_third = abs(c1 - 1.0 / 3.0)
    ok = overshoot <= 1e-9 and near_third < 1e-6
    assert report(
        2,
        ok,
        f"three-photon ceiling: max_t p1(t) - C1 = {overshoot:.2e} (<=1e-9) with the mod-3 "
        f"mass C1 = 1/3 + {c1 - 1 / 3:.3e}; |C1 - 1/3| = {near_third:.2e} (<1e-6)",
    )


def test_criterion_3_sigma_minimum_and_oracle(preset_scns):
    scn = preset_scns["fig2_add_mixed"]
    grid = np.linspace(0.0, 10.0, 501)
    rho0 = fd.coherent_density(scn.alpha, scn.cutoff)
    series, _ = fd.evolve(rho0, scn.channels(), scn.kerr(), grid)
    sm = fd.find_sigma_min(series, (0.5, 8.0))
    in_window = 2.0 <= sm.t_star <= 3.0
    # independent population-cascade run, propagated to exactly t*
    oracle = fd.evolve_populations(
        rho0.populations(), scn.channels(), np.array([0.0, sm.t_star])
    )
    p1_err = abs(sm.populations[1] - oracle.populations[-1, 1])
    ok = in_window and p1_err < 1e-6
    assert report(
        3, ok, f"t* = {sm.t_star:.4f} in [2, 3]: {in_window}; p1(t*) vs oracle err {p1_err:.2e} (<1e-6)"
    )


def test_criterion_4_qualitative_split(dense_runs):
    lin = dense_runs["fig2_add_linear"].series
    two = dense_runs["fig2_add_two_photon"].series
    lin_ok = lin.mean_n[-1] < 0.1
    i80 = int(np.searchsorted(two.t, 80.0))
    assert two.t[i80] == 80.0
    plateau = abs(two.mean_n[-1] - two.mean_n[i80])
    val = two.mean_n[-1]
    two_ok = plateau < 1e-4 and 0.5 < val < 1.0
    ok = lin_ok and two_ok
    assert report(
        4,
        ok,
        f"linear added: mean(100) = {lin.mean_n[-1]:.4f} (<0.1); two-photon added: "
        f"|mean(100)-mean(80)| = {plateau:.2e} (<1e-4), value {val:.4f} in (0.5, 1)",
    )


def test_criterion_5_dense_vs_pauli(dense_runs, pauli_runs):
    worst = 0.0
    for name in dense_runs:
        diff = float(
            np.max(np.abs(dense_runs[name].series.populations - pauli_runs[name].series.populations))
        )
        worst = max(worst, diff)
    ok = worst < 1e-8
    assert report(5, ok, f"dense vs population-cascade sup diff over all presets {worst:.2e} (<1e-8)")


def test_criterion_5_trajectories_agree(mc_runs, pauli_on_mc_grid):
    worst_frac = 1.0
    for name, mc in mc_runs.items():
        me = pauli_on_mc_grid[name]
        diff = np.abs(mc.series.populations - me.populations)
        ok_bins = diff <= 3.0 * mc.stderr + 1e-12
        worst_frac = min(worst_frac, float(ok_bins.mean()))
    ok = worst_frac >= 0.95
    assert report(
        5, ok, f">=10k trajectories within 3 standard errors in {100 * worst_frac:.1f}% of bins (>=95%)"
    )


def test_criterion_6_monotone_error_and_occupation(elim_records):
    errs = [r.sup_error for r in elim_records]
    occs = [r.peak_b_occupation for r in elim_records]
    monotone = errs[0] > errs[1] > errs[2]
    # the occupation bound binds in the elimination regime (largest gamma_b)
    occ_ok = occs[-1] < 1e-2
    ok = monotone and occ_ok
    assert report(
        6,
        ok,
        f"sup errors {[f'{e:.2e}' for e in errs]} decrease with gamma_b: {monotone}; "
        f"peak partner occupation {[f'{o:.2e}' for o in occs]}, elimination-regime value "
        f"{occs[-1]:.2e} (<1e-2)",
    )


def test_criterion_6_elimination_ratio(elim_records):
    # band: error(gamma_b)/error(2 gamma_b) = 4.0 +- 30%. Populations converge
    # at second order: on the scaled grid every correction to the reduced
    # generator enters at relative order |u4|^2/gamma_b^2, so first-order
    # (ratio ~2) and third-order (ratio ~8) convergence both fail the band.
    # The top B level must sit far below the error, so that the ratio measures
    # the elimination and not the truncation at nmax_b.
    r01 = elim_records[0].sup_error / elim_records[1].sup_error
    r12 = elim_records[1].sup_error / elim_records[2].sup_error
    ratio_ok = (2.8 <= r01 <= 5.2) and (2.8 <= r12 <= 5.2)
    trunc_ok = all(r.b_top_level_mass * 1e4 <= r.sup_error for r in elim_records)
    ok = ratio_ok and trunc_ok
    assert report(
        6,
        ok,
        f"error ratios {r01:.2f}, {r12:.2f} in the second-order band [2.8, 5.2]: {ratio_ok}; "
        f"top B level mass {[f'{r.b_top_level_mass:.2e}' for r in elim_records]} at least "
        f"1e4 below the errors: {trunc_ok}",
    )


def test_criterion_6_elimination_ratio_at_paper_scale():
    # alpha = 3, the presets' amplitude, with mode A cut where TAIL_TOL allows
    # and mode B at nmax_b = 6, where the errors have converged in nmax_b
    assert fd.min_cutoff_for_coherent(3.0, TAIL_TOL).nmax == 24
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        records = elimination_comparison(
            u4=1.0, alpha=3.0, gamma_bs=(50.0, 100.0, 200.0), nmax_a=24, nmax_b=6
        )
    ratios = [a.sup_error / b.sup_error for a, b in zip(records, records[1:])]
    ok = all(3.8 <= r <= 4.2 for r in ratios)
    assert report(
        6,
        ok,
        f"paper-scale error ratios {', '.join(f'{r:.3f}' for r in ratios)} "
        f"in the band 4.0 +- 5%: {ok}",
    )


def test_criterion_7_structural_invariants(dense_runs, pauli_runs, preset_scns):
    checks = []
    for name, run in dense_runs.items():
        series = run.series
        checks.append(series.trace_err.max() < 1e-8)
        checks.append(series.min_eigenvalue.min() > -1e-8)
        final = run.extras["final_state"]
        checks.append(float(np.max(np.abs(final.entries - final.entries.conj().T))) < 1e-10)

    # Kerr strength must not move any population
    for name in ("fig1_pure_nonlinear", "fig2_add_mixed"):
        scn = preset_scns[name]
        rho0 = fd.coherent_density(scn.alpha, scn.cutoff)
        grid = np.linspace(0.0, 20.0, 81)
        s0, _ = fd.evolve(rho0, scn.channels(), fd.KerrTerm(0.0), grid)
        s5, _ = fd.evolve(rho0, scn.channels(), fd.KerrTerm(5.0), grid)
        checks.append(float(np.max(np.abs(s0.populations - s5.populations))) < 1e-8)

    # parity and mod-3 conservation laws on the population engine
    p0 = poisson_vector(9.0, 40)
    par = pauli_runs["fig1_pure_two_photon"].series.populations
    checks.append(
        float(np.max(np.abs(par[:, 0::2].sum(axis=1) - p0[0::2].sum()))) < 1e-10
    )
    mod = pauli_runs["fig1_pure_three_photon"].series.populations
    for r in range(3):
        checks.append(float(np.max(np.abs(mod[:, r::3].sum(axis=1) - p0[r::3].sum()))) < 1e-10)

    ok = all(checks)
    assert report(
        7,
        ok,
        f"{sum(checks)}/{len(checks)} structural checks hold (trace <1e-8, Hermiticity <1e-10, "
        "positivity >-1e-8, Kerr invariance <1e-8, conservation laws <1e-10)",
    )


def test_criterion_8_fixed_step_manifest_rerun(tmp_path):
    scn = {
        "name": "repro",
        "alpha": 1.2,
        "nmax": 17,
        "rates": {"gamma_e": 1.0, "gamma_q": 0.05},
        "t_max": 5.0,
        "samples": 11,
        "engine": "dense",
        "integrator": {"fixed_step": 0.0005},
    }
    p = tmp_path / "repro.json"
    p.write_text(json.dumps(scn))
    assert cli.main(["run", str(p), "--out", str(tmp_path / "a")]) == 0
    manifest = tmp_path / "a" / "repro" / "manifest.json"
    assert cli.main(["run", str(manifest), "--out", str(tmp_path / "b")]) == 0
    same = (tmp_path / "a" / "repro" / "timeseries.csv").read_bytes() == (
        tmp_path / "b" / "repro" / "timeseries.csv"
    ).read_bytes()
    assert report(8, same, "fixed-step manifest rerun reproduces the CSV bit-identically")


def test_criterion_8_trajectory_seed_determinism(preset_scns):
    scn = preset_scns["fig1_pure_nonlinear"]
    psi0 = fd.coherent_state(scn.alpha, scn.cutoff)
    cfg = TrajectoryConfig(n_traj=2000, master_seed=4242, t_grid=np.linspace(0, 20, 6))
    a = run_ensemble(psi0, scn.channels(), None, cfg)
    b = run_ensemble(psi0, scn.channels(), None, cfg)
    same = np.array_equal(a.series.populations, b.series.populations) and np.array_equal(
        a.stderr, b.stderr
    )
    assert report(8, same, "equal seeds give bit-identical ensemble means and errors")
