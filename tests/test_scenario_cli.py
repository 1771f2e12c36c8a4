import io
import json
import math
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import fockdamp as fd
from fockdamp import analysis, cli, scenario, twomode
from fockdamp.dynamics import stripe_generators
from fockdamp.errors import NoInteriorMinimum, ValidationError
from fockdamp.scenario import (
    load_raw,
    parse_scenario,
    preset_scenarios,
    sweep_grid,
    validate_dict,
)
from fockdamp.twomode import _sector_generator


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


BASE = {
    "name": "t",
    "alpha": 1.2,
    "t_max": 4.0,
    "samples": 9,
    "engine": "pauli",
    "rates": {"gamma_e": 1.0},
}


def test_unknown_fields_are_errors():
    bad = dict(BASE, frobnicate=1)
    violations = validate_dict(bad)
    assert any("frobnicate" in v for v in violations)


def test_all_violations_listed():
    bad = dict(BASE, rates={"gamma_x": 1.0}, engine="nope", samples=1)
    violations = validate_dict(bad)
    assert len(violations) >= 3


def test_engine_block_consistency():
    assert any(
        "trajectory" in v
        for v in validate_dict(dict(BASE, engine="trajectories"))
    )
    assert any(
        "twomode" in v for v in validate_dict(dict(BASE, engine="twomode"))
    )
    with_block = dict(BASE, trajectory={"n_traj": 10, "master_seed": 1})
    assert any("trajectory" in v for v in validate_dict(with_block))


def test_rate_required_for_single_mode_engines():
    bad = dict(BASE, rates={})
    assert any("rate" in v for v in validate_dict(bad))


def test_tail_rule_checked_in_validation():
    bad = dict(BASE, alpha=3.0, nmax=20)
    assert any("tail" in v for v in validate_dict(bad))


def test_nmax_auto_resolution():
    scn = parse_scenario(dict(BASE))
    assert fd.poisson_tail(abs(scn.alpha) ** 2, scn.nmax) < 1e-12


def test_scenario_roundtrips_through_dict():
    scn = parse_scenario(dict(BASE, nmax=20, u1=1.5, integrator={"abs_tol": 1e-11}))
    again = parse_scenario(scn.to_dict())
    assert again == scn


def test_preset_fidelity_fig1():
    raws = preset_scenarios("fig1")
    rates = [r["rates"] for r in raws]
    assert rates[0] == {"gamma_e": 1.0, "gamma_q": 0.0, "gamma_s": 0.0, "gamma_t": 0.0}
    assert rates[1] == {"gamma_e": 0.0, "gamma_q": 0.0, "gamma_s": 1.0, "gamma_t": 0.0}
    assert rates[2] == {"gamma_e": 0.0, "gamma_q": 0.0, "gamma_s": 0.0, "gamma_t": 1.0}
    assert all(r["alpha"] == 3.0 and r["t_max"] == 100.0 and r["nmax"] == 40 for r in raws)


def test_preset_fidelity_fig2():
    raws = preset_scenarios("fig2")
    rates = [r["rates"] for r in raws]
    assert rates[0] == {"gamma_e": 1.0, "gamma_q": 0.05, "gamma_s": 0.0, "gamma_t": 0.0}
    assert rates[1] == {"gamma_e": 1.0, "gamma_q": 0.0, "gamma_s": 0.05, "gamma_t": 0.0}
    assert rates[2] == {"gamma_e": 1.0, "gamma_q": 0.025, "gamma_s": 0.025, "gamma_t": 0.0}
    assert all(r["alpha"] == 3.0 for r in raws)


def test_presets_write_every_run_and_the_fig2_minimum(tmp_path):
    assert cli.main(["preset", "fig1", "--out", str(tmp_path)]) == 0
    assert cli.main(["preset", "fig2", "--svg", "--out", str(tmp_path)]) == 0
    for raw in preset_scenarios("fig1") + preset_scenarios("fig2"):
        run_dir = tmp_path / raw["name"]
        assert (run_dir / "timeseries.csv").exists() and (run_dir / "manifest.json").exists()
        assert (run_dir / "plot.svg").exists() == raw["name"].startswith("fig2")
    report = json.loads((tmp_path / "fig2_sigma_min.json").read_text())
    assert report["scenario"] == "fig2_add_mixed"
    assert abs(report["t_star"] - 2.382) <= 0.05  # one grid spacing of t_max / 2000
    assert abs(report["p1_at_t_star"] - 0.92513) <= 1e-3
    # the pure absorber never touches the vacuum, so p0 stays e^-|alpha|^2
    header, *rows = (tmp_path / "fig1_pure_nonlinear" / "timeseries.csv").read_text().splitlines()
    last = dict(zip(header.split(","), map(float, rows[-1].split(","))))
    assert abs(last["p0"] - math.exp(-9.0)) <= 1e-12


def test_run_flag_mode_csv_value(tmp_path):
    rc = cli.main([
        "run", "--alpha", "3", "--rates", "e=1", "--tmax", "100", "--samples", "21",
        "--nmax", "40", "--engine", "pauli", "--out", str(tmp_path), "--name", "flagrun",
    ])
    assert rc == 0
    rows = (tmp_path / "flagrun" / "timeseries.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header[:5] == ["t", "mean_n", "std_n", "g2", "trace_err"]
    assert header[5] == "p0" and header[-1] == "p40"
    last = dict(zip(header, rows[-1].split(",")))
    assert abs(float(last["mean_n"]) - (1 - math.exp(-9))) < 1e-6


FLAG_RUN = ["run", "--alpha", "1.2", "--rates", "e=1,q=0.05", "--tmax", "4", "--samples", "9",
            "--name", "flags"]


@pytest.mark.parametrize(
    "rates, message",
    [
        ("q0.1", "bad --rates entry 'q0.1'; expected key=value"),
        ("x=1", "unknown rate 'x'; use e, q, s, t"),
        ("q=abc", "bad rate value 'abc' for gamma_q"),
    ],
    ids=["no-equals", "unknown-key", "bad-value"],
)
def test_run_flag_mode_rates_errors(tmp_path, capsys, rates, message):
    argv = FLAG_RUN[:4] + [rates] + FLAG_RUN[5:] + ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _exit_code(argv):
    # argparse rejects a bad flag value with SystemExit(2); main returns the rest
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--alpha", "nan", "--rates", "e=1", "--tmax", "1"], "--alpha"),
        (["run", "--alpha", "1", "--rates", "e=1", "--tmax", "inf"], "--tmax"),
        (["run", "--alpha", "1", "--rates", "e=inf", "--tmax", "1"], "--rates"),
        (["run", "--alpha", "1", "--rates", "e=1", "--tmax", "1", "--u1", "nan"], "--u1"),
        (["run", "--alpha", "1", "--rates", "e=1", "--tmax", "1", "--fixed-step", "nan"],
         "--fixed-step"),
        (["preset", "fig1", "--fixed-step", "inf"], "--fixed-step"),
        (["sweep", str(SCENARIOS / "linear_loss_sweep.json"), "--fixed-step", "nan"],
         "--fixed-step"),
    ],
    ids=["alpha-nan", "tmax-inf", "rate-inf", "u1-nan", "run-fixed-step", "preset-fixed-step",
         "sweep-fixed-step"],
)
def test_non_finite_flags_are_validation_errors(tmp_path, capsys, argv, flag):
    # argparse's float takes nan and inf; every float flag rejects them, before
    # anything is written, so no manifest records a step that cannot replay
    assert _exit_code(argv + ["--out", str(tmp_path / "o")]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flag, code", [("--alpha", 0), ("--tmax", 2), ("--u1", 0), ("--fixed-step", 2)]
)
def test_a_negative_exponent_after_a_space_reads_as_after_equals(tmp_path, capsys, flag, code):
    # argparse alone reads a lone "-1e-3" as an option: "expected one argument"
    argv = ["run", "--alpha", "1", "--rates", "e=1", "--tmax", "1", "--samples", "3",
            "--engine", "pauli"]
    codes = [
        _exit_code(argv + value + ["--out", str(tmp_path / out)])
        for out, value in (("spaced", [flag, "-1e-3"]), ("joined", [f"{flag}=-1e-3"]))
    ]
    assert codes == [code, code]
    assert "expected one argument" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ["--rates", "e=1e308", "--tmax", "1", "--engine", "pauli"],
        ["--rates", "e=1", "--tmax", "1e308", "--engine", "pauli"],
        ["--rates", "e=1", "--u1", "1e308", "--tmax", "1"],
    ],
    ids=["rate", "tmax", "u1"],
)
def test_an_overflowing_generator_is_a_numerical_failure(tmp_path, capsys, extra):
    # finite flags whose generator overflows: NumPy warns, then expm refuses the norm
    with pytest.warns(RuntimeWarning):
        code = cli.main(["run", "--alpha", "1", *extra, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "generator norm" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "rates, u1, code",
    [("q=1.1", "--u1=1e300", 3), ("q=1.1", "--u1=0.7", 0), ("q=1e300", "--u1=0", 0)],
    ids=["kerr-1e300", "kerr-0.7", "real-1e300"],
)
def test_a_step_phase_no_double_resolves_is_a_numerical_failure(tmp_path, capsys, rates, u1,
                                                                 code):
    # u1 = 1e300 turns a phase by about 1e303 rad a step, where a double's ulp
    # is some 1e287 rad; a real generator of any finite norm stays exact
    argv = ["run", "--alpha", "2.59", "--rates", rates, "--tmax", "2.59", u1, "--samples", "3",
            "--out", str(tmp_path / "o")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert ("at least 2^53, which no double resolves" in err) == (code == 3)
    assert (tmp_path / "o").exists() == (code == 0)


@pytest.mark.parametrize(
    "argv, violation",
    [
        (["run", "--alpha", "400", "--rates", "e=1", "--tmax", "1"],
         "  - |alpha|=400 needs a cutoff above nmax=100000"),
        (["run", "--alpha", "1e200", "--rates", "e=1", "--tmax", "1"],
         "  - |alpha|=1e+200 needs a cutoff above nmax=100000"),
        (["run", "--alpha", "1e200", "--nmax", "5", "--rates", "e=1", "--tmax", "1"],
         "  - |alpha|=1e+200 needs a cutoff above nmax=5"),
    ],
    ids=["no-cutoff", "overflow", "overflow-nmax"],
)
def test_a_huge_alpha_is_a_validation_error(tmp_path, capsys, argv, violation):
    # no cutoff the search may reach holds the coherent tail, or |alpha|^2 overflows
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert violation in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_t_max_too_small_for_its_samples_is_a_validation_error(tmp_path, capsys):
    # np.linspace(0, 5e-324, 3) repeats a time; integrate would raise ValueError
    argv = ["run", "--alpha", "1", "--rates", "e=1", "--tmax", "5e-324", "--samples", "3"]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "  - t_max: 5e-324 gives no strictly ascending grid of 3 samples" in err
    assert not (tmp_path / "o").exists()
    assert validate_dict(dict(BASE, t_max=5e-324, samples=2)) == []


# alpha = 300, a mean photon number of 90000, resolves a cutoff above 90000;
# each engine at this module's settings, with the cap its largest array sets.
# At nmax_b = 4 the two-mode sector packs 15 (nmax + 1) - 40 pairs, and its
# generator, 8 bytes a pair squared, fits in 2^28 bytes up to nmax = 387; so
# does the positivity gate's block of 9 samples of 5 (nmax + 1) - 10 states
# squared, 8 * 9 * 1930^2 = 2.682e8 bytes there. The trajectories advance 512
# at a time on nmax + 1 levels: 8 * 512 * 65536 = 2^28 bytes at nmax = 65535.
# The Pauli cap is one point's generator, 8 * 5792^2 = 2.684e8 bytes at
# nmax = 5791; it is also a sweep's (test_largest_array_sizes_match_the_engines)
_CAPPED = {
    "dense": ({}, 320),
    "pauli": ({}, 5791),
    "trajectories": ({"samples": 201, "trajectory": {"n_traj": 10000, "master_seed": 1}}, 65535),
    "twomode": ({"rates": {}, "twomode": {"u4": 1.0, "gamma_b": 100.0}}, 387),
}


@pytest.mark.parametrize("engine", sorted(_CAPPED))
def test_alpha_300_is_above_every_engines_cap(tmp_path, capsys, engine):
    extra, cap = _CAPPED[engine]
    obj = dict(BASE, alpha=300.0, engine=engine, **extra)
    path = write_json(tmp_path / "huge.json", obj)
    for argv in (["validate", path], ["run", path, "--out", str(tmp_path / "o")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "|alpha|=300 resolves nmax=" in err
        assert f"above the {engine} engine's cap of nmax={cap}:" in err
    assert not (tmp_path / "o").exists()
    # the cap itself is accepted, one level above it is not
    assert validate_dict(dict(obj, alpha=1.0, nmax=cap)) == []
    (above,) = validate_dict(dict(obj, alpha=1.0, nmax=cap + 1))
    assert above.startswith(f"nmax={cap + 1} is above the {engine} engine's cap of nmax={cap}: ")


def test_a_cutoff_above_the_cap_is_reported_at_every_sweep_point(tmp_path, capsys):
    obj = dict(BASE, engine="dense", nmax=400, sweep={"gamma_q": [0.0, 0.1]})
    path = write_json(tmp_path / "sweep.json", obj)
    for argv in (["validate", path], ["sweep", path, "--out", str(tmp_path / "o")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("  - ") == 2
        for q in ("0", "0.1"):
            assert f"  - gamma_q={q}: nmax=400 is above the dense engine's cap of nmax=320: " in err
    assert not (tmp_path / "o").exists()


def test_an_nmax_b_no_cutoff_fits_is_a_validation_error():
    # the whole-pair start holds 16 (2 * 2001)^2 = 2.56e8 bytes at nmax = 1 and
    # 16 (3 * 2001)^2 at nmax = 2, above the limit of 2^28; at nmax_b = 2048
    # not even nmax = 1 fits
    obj = dict(BASE, engine="twomode", nmax=12, rates={},
               twomode={"u4": 1.0, "gamma_b": 100.0, "nmax_b": 2000})
    (violation,) = validate_dict(obj)
    assert violation.startswith(
        "nmax=12 is above the twomode engine's cap of nmax=1: its whole-pair start at nmax_b=2000 "
    )
    assert validate_dict(dict(obj, alpha=0.01, nmax=1)) == []
    wider = dict(obj, alpha=0.01, nmax=1, twomode=dict(obj["twomode"], nmax_b=2048))
    (violation,) = validate_dict(wider)
    assert violation.startswith(
        "nmax=1 is above the twomode engine's cap of nmax=0: its whole-pair start at nmax_b=2048 "
    )


def test_largest_array_sizes_match_the_engines(monkeypatch):
    # the bytes each cap is derived from, against the arrays the engines build
    nmax, kerr = 9, fd.KerrTerm(0.5)
    # at 2 samples; at 9, the positivity block, 16 * 9 * 10^2 bytes, is larger
    dense = dict(BASE, engine="dense", samples=2)
    assert scenario._largest_array(dense, nmax)[1] == stripe_generators(
        [fd.nonlinear_loss(1.0)], kerr, nmax
    ).nbytes
    # a Pauli point holds its generator and its record, the larger at 801
    # samples on 41 levels
    pauli = dict(BASE, engine="pauli")
    generator = fd.population_generator([fd.nonlinear_loss(1.0)], nmax)
    assert scenario._largest_array(pauli, nmax) == ("generator", generator.nbytes)
    assert scenario._largest_array(dict(pauli, samples=801), 40) == ("sampled record", 8 * 801 * 41)
    assert scenario._largest_array(pauli, 2000) == ("generator", 8 * 2001**2)
    # a group of more than one point holds at most 8 MiB (test_pauli.py), so
    # a sweep's cap is one point's
    sweep = dict(pauli, alpha=1.0, sweep={"gamma_q": [0.0, 0.1, 0.2]})
    assert validate_dict(dict(sweep, nmax=_CAPPED["pauli"][1])) == []
    above = validate_dict(dict(sweep, nmax=_CAPPED["pauli"][1] + 1))
    assert len(above) == 3 and all(
        f"above the pauli engine's cap of nmax={_CAPPED['pauli'][1]}: its generator " in v
        for v in above
    )
    # the two-mode start is the whole pair, as the engine hands it to integrate
    starts, integrate = [], twomode.integrate
    monkeypatch.setattr(
        twomode, "integrate",
        lambda f, y0, *a, **k: starts.append(y0.nbytes) or integrate(f, y0, *a, **k),
    )
    rho_a = fd.coherent_density(0.5, fd.FockCutoff(nmax), tail_tol=twomode.TAIL_TOL)
    # nmax_b = 1: the start is the largest array; 4 and 12: the sector generator
    cases = ((1, "whole-pair start"), (4, "sector generator"), (12, "sector generator"))
    for nmax_b, largest in cases:
        params = fd.TwoModeParams(u4=1.0, gamma_b=100.0, nmax_b=nmax_b)
        # the states with n_A + n_B <= nmax, and the pairs of equal N among them, j <= k
        n_tot = np.add.outer(np.arange(nmax + 1), np.arange(nmax_b + 1)).ravel()
        per_n = np.bincount(n_tot[n_tot <= nmax])
        pairs = int((per_n * (per_n + 1) // 2).sum())
        assert _sector_generator(params, nmax + 1)[0].shape == (pairs, pairs)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "top B level", UserWarning)  # nmax_b = 1 is small
            fd.two_mode_evolve(rho_a, params, np.linspace(0.0, 1.0, BASE["samples"]))
        assert starts[-1] == 16 * ((nmax + 1) * (nmax_b + 1)) ** 2
        sizes = {"sector generator": 8 * pairs * pairs, "whole-pair start": starts[-1]}
        assert max(sizes, key=sizes.get) == largest
        # at 2 samples the positivity block, 16 (5 * 10 - 10)^2 bytes at
        # nmax_b = 4 and 16 * 19^2 at 1, is smaller still; at 9 it is not
        obj = dict(BASE, engine="twomode", samples=2,
                   twomode={"u4": 1.0, "gamma_b": 100.0, "nmax_b": nmax_b})
        assert scenario._largest_array(obj, nmax) == (
            f"{largest} at nmax_b={nmax_b}", sizes[largest]
        )


def test_the_sampled_record_is_sized_as_the_engines_keep_it(monkeypatch):
    # bytes per sample of the record, against the diagonals analysis.Samples
    # keeps and, for trajectories, the populations of the series
    kept, add = [], analysis.Samples.add
    monkeypatch.setattr(
        analysis.Samples, "add", lambda self, *a: add(self, *a) or kept.append(self.diagonals.nbytes)
    )
    nmax, samples = 9, BASE["samples"]
    blocks = {
        "dense": {},
        "pauli": {},
        "trajectories": {"trajectory": {"n_traj": 3, "master_seed": 1}},
        "twomode": {"rates": {}, "twomode": {"u4": 1.0, "gamma_b": 100.0, "nmax_b": 3}},
    }
    for engine, extra in blocks.items():
        obj = dict(BASE, engine=engine, alpha=0.5, nmax=nmax, **extra)
        series = cli.run_scenario(parse_scenario(obj)).series
        if engine == "trajectories":
            kept.append(series.populations.nbytes)
        # at 10^6 samples the record is the largest array
        per_sample = kept[-1] // samples
        assert scenario._largest_array(dict(obj, samples=10**6), nmax)[1] == 10**6 * per_sample


@pytest.mark.parametrize(
    "engine, extra, width, itemsize",
    [
        pytest.param("dense", {"u1": 0.5}, 10, 16, id="dense"),
        # nmax_b = 4: 15 states with n_A + n_B <= 4, and 5 for each n_A of 5..9
        pytest.param("twomode", {"rates": {}, "twomode": {"u4": 1.0, "gamma_b": 100.0}}, 40, 8,
                     id="twomode"),
    ],
)
def test_the_positivity_block_is_sized_as_the_gate_factors_it(monkeypatch, engine, extra,
                                                               width, itemsize):
    # with no tail left outside, the gate factors every held level of a block
    # of 32 samples; the last level holds weight, so that is the record's width
    factored, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or cholesky(a))
    monkeypatch.setattr(analysis, "_TAIL_NORM", 0.0)
    obj = dict(BASE, engine=engine, alpha=0.5, nmax=9, samples=41, **extra)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "top B level", UserWarning)
        cli.run_scenario(parse_scenario(obj))
    assert max(a.shape for a in factored) == (32, width, width)
    assert {a.itemsize for a in factored} == {itemsize}
    assert scenario._largest_array(obj, 9) == (
        "positivity block", max(a.nbytes for a in factored)
    )


def test_a_long_two_mode_run_is_capped_by_its_positivity_block():
    # from 32 samples on, the gate's block at nmax_b = 4 holds 32 matrices of
    # 5 (nmax + 1) - 10 states squared: 8 * 32 * 1020^2 = 2.663e8 bytes at
    # nmax = 205, and 8 * 32 * 1025^2 = 2.690e8 at 206, above 2^28 = 2.684e8
    obj = dict(BASE, engine="twomode", alpha=1.0, samples=41, rates={},
               twomode={"u4": 1.0, "gamma_b": 100.0})
    assert validate_dict(dict(obj, nmax=205)) == []
    (above,) = validate_dict(dict(obj, nmax=206))
    assert above.startswith(
        "nmax=206 is above the twomode engine's cap of nmax=205: its positivity block would take "
    )


def test_a_size_just_above_the_limit_reads_above_it():
    # 268 960 000 bytes against 2^28 = 268 435 456: both are 0.25 GiB to three
    # digits, so the size takes a fourth
    obj = dict(BASE, engine="twomode", alpha=1.0, samples=41, nmax=206, rates={},
               twomode={"u4": 1.0, "gamma_b": 100.0})
    (above,) = validate_dict(obj)
    assert above.endswith("its positivity block would take 0.2505 GiB (limit 0.25 GiB)")


def test_a_batch_of_trajectories_above_the_limit_is_a_validation_error():
    # 512 trajectories advance together on 100001 levels: 8 * 512 * 100001 =
    # 4.096e8 bytes, above 2^28, though the sums of 2 samples are small
    obj = dict(BASE, engine="trajectories", alpha=1.0, nmax=100000, samples=2,
               trajectory={"n_traj": 512, "master_seed": 1})
    (violation,) = validate_dict(obj)
    assert violation.startswith(
        "nmax=100000 is above the trajectories engine's cap of nmax=65535: "
        "its batch populations would take "
    )


def test_a_long_record_lowers_the_cap():
    # never run: 10^6 samples of 181 levels alone would take 1.35 GiB
    obj = {"alpha": 10, "t_max": 10, "samples": 10**6, "engine": "pauli", "rates": {"gamma_e": 1}}
    assert validate_dict(obj) == [
        "|alpha|=10 resolves nmax=180, which is above the pauli engine's cap of nmax=32: "
        "its sampled record would take 1.35 GiB (limit 0.25 GiB)"
    ]
    assert validate_dict(dict(obj, alpha=1, nmax=32)) == []
    (above,) = validate_dict(dict(obj, alpha=1, nmax=33))
    assert above.startswith("nmax=33 is above the pauli engine's cap of nmax=32: its sampled record ")


def test_run_flag_mode_fixed_step_and_u1(tmp_path):
    runs = {"plain": [], "fixed": ["--fixed-step", "0.01"], "kerr": ["--u1", "0.4"]}
    scenario, csv = {}, {}
    for out, extra in runs.items():
        assert cli.main(FLAG_RUN + extra + ["--out", str(tmp_path / out)]) == 0
        run_dir = tmp_path / out / "flags"
        scenario[out] = json.loads((run_dir / "manifest.json").read_text())["scenario"]
        csv[out] = (run_dir / "timeseries.csv").read_text()
    # the fixed step is recorded for replay and changes no result
    assert "integrator" not in scenario["plain"]
    assert scenario["fixed"]["integrator"] == {"fixed_step": 0.01}
    assert csv["fixed"] == csv["plain"]
    # the Kerr term turns coherences only, so the populations move by rounding
    assert scenario["kerr"]["u1"] == 0.4 and scenario["plain"]["u1"] == 0.0
    kerr, plain = (
        np.loadtxt(io.StringIO(csv[out]), delimiter=",", skiprows=1)[:, 5:] for out in ("kerr", "plain")
    )
    assert np.max(np.abs(kerr - plain)) <= 1e-12


def test_run_scenario_file_and_manifest_roundtrip(tmp_path):
    # the integrator block sets nothing but must survive the manifest
    obj = dict(BASE, engine="dense", nmax=17, integrator={"fixed_step": 0.0005})
    path = write_json(tmp_path / "scn.json", obj)
    assert cli.main(["run", path, "--out", str(tmp_path / "a")]) == 0
    manifest = tmp_path / "a" / "t" / "manifest.json"
    assert cli.main(["run", str(manifest), "--out", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "t" / "timeseries.csv").read_bytes()
    csv_b = (tmp_path / "b" / "t" / "timeseries.csv").read_bytes()
    assert csv_a == csv_b
    replayed = json.loads(manifest.read_text())["scenario"]
    assert replayed["integrator"] == {"fixed_step": 0.0005}


def test_run_rejects_sweep_file(tmp_path):
    obj = dict(BASE, sweep={"gamma_q": [0.0, 0.1]})
    path = write_json(tmp_path / "s.json", obj)
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 2


def test_validate_exit_codes(tmp_path):
    good = write_json(tmp_path / "good.json", BASE)
    assert cli.main(["validate", good]) == 0
    bad = write_json(tmp_path / "bad.json", dict(BASE, engine="warp"))
    assert cli.main(["validate", bad]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["validate", str(broken)]) == 2


@pytest.mark.parametrize("name", [".", ".."])
def test_dot_names_are_validation_errors(tmp_path, capsys, name):
    # a run writes into --out/<name>: "." is --out itself, ".." its parent
    out = tmp_path / "nest" / "res"
    path = write_json(tmp_path / "dots.json", dict(BASE, name=name))
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["validate", path]) == 2
    assert cli.main(["run", path, "--out", str(out)]) == 2
    flags = ["run", "--name", name, "--alpha", "1", "--tmax", "1", "--rates", "e=1"]
    assert cli.main(flags + ["--out", str(out)]) == 2
    assert "does not match" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_missing_file_is_io_error(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 4


def test_out_collision_is_io_error(tmp_path):
    collide = tmp_path / "collide"
    collide.write_text("a file, not a directory")
    path = write_json(tmp_path / "scn.json", BASE)
    assert cli.main(["run", path, "--out", str(collide)]) == 4


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    def drifting(*args):
        raise fd.TraceDriftExceeded("trace drifted by 1e-6")

    monkeypatch.setattr(cli.pauli, "evolve_populations", drifting)
    path = write_json(tmp_path / "drift.json", BASE)
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 3


def test_numerical_failure_exit_code_from_a_real_engine(tmp_path, monkeypatch):
    # the Pauli propagator inflated by 1e-6 drifts the trace past its limit
    exact = cli.pauli.expm
    monkeypatch.setattr(cli.pauli, "expm", lambda a: exact(a) * (1.0 + 1e-6))
    path = write_json(tmp_path / "drift.json", BASE)
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 3


def test_positivity_failure_exit_code(tmp_path, monkeypatch, capsys):
    def negative(alpha, cutoff, **kwargs):
        p = np.zeros(cutoff.dim)
        p[:2] = -1e-6, 1.0 + 1e-6
        return fd.DensityMatrix(np.diag(p))

    def non_finite(alpha, cutoff, **kwargs):
        # a finite diagonal keeps the trace, so only the positivity check sees it
        rho = np.zeros((cutoff.dim, cutoff.dim))
        rho[0, 0] = rho[1, 1] = 0.5
        rho[0, 1] = rho[1, 0] = np.nan
        return fd.DensityMatrix(rho)

    path = write_json(tmp_path / "neg.json", dict(BASE, engine="dense"))
    for start, message in [
        (negative, "min eigenvalue -1.000e-06 at t=0 "),
        (non_finite, "non-finite state entry at t=0\n"),
    ]:
        monkeypatch.setattr(cli, "coherent_density", start)
        assert cli.main(["run", path, "--out", str(tmp_path)]) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["dense", "pauli", "trajectories"])
def test_channel_that_empties_the_space_is_a_validation_error(tmp_path, engine):
    # a^3 annihilates every level of a cutoff at nmax = 2
    obj = dict(BASE, alpha=0.001, nmax=2, rates={"gamma_t": 1.0}, engine=engine)
    if engine == "trajectories":
        obj["trajectory"] = {"n_traj": 10, "master_seed": 1}
    path = write_json(tmp_path / "t3.json", obj)
    assert cli.main(["validate", path]) == 2
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "t").exists()


def test_json_format_output(tmp_path):
    path = write_json(tmp_path / "scn.json", BASE)
    assert cli.main(["run", path, "--out", str(tmp_path), "--format", "json"]) == 0
    obj = json.loads((tmp_path / "t" / "timeseries.json").read_text())
    assert len(obj["t"]) == BASE["samples"]
    assert len(obj["populations"][0]) == parse_scenario(BASE).nmax + 1


def _dumped(series):
    obj = {key: getattr(series, key).tolist()
           for key in ("t", "mean_n", "std_n", "g2", "trace_err", "populations")}
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _random_series(samples, levels, seed=0):
    rng = np.random.default_rng(seed)
    pops = rng.random((samples, levels))
    pops[0, :2] = (-0.0, 5e-324)[:levels]
    t = np.linspace(0.0, 1.0, samples)
    return analysis.TimeSeries(t, rng.random(samples) * 1e16, rng.random(samples),
                               rng.random(samples) * 1e-300, rng.random(samples), pops)


@pytest.mark.parametrize("samples, levels", [(2, 2), (128, 3), (129, 3), (300, 41)])
def test_json_series_is_written_as_json_dumps_writes_it(tmp_path, samples, levels):
    series = _random_series(samples, levels)
    cli._write_json(tmp_path / "s.json", series)
    assert (tmp_path / "s.json").read_text() == _dumped(series)


def test_json_format_output_is_json_dumps_of_the_run(tmp_path):
    path = write_json(tmp_path / "scn.json", dict(BASE, alpha=[1.7, -2.2], samples=301))
    assert cli.main(["run", path, "--out", str(tmp_path), "--format", "json"]) == 0
    series = cli.run_scenario(parse_scenario(load_raw(path))).series
    assert (tmp_path / "t" / "timeseries.json").read_text() == _dumped(series)


def test_json_series_is_streamed(tmp_path):
    # the text of a whole record takes several times the record's bytes; one
    # level keeps the traced run short, as tracing costs about 5 us a value
    series = _random_series(20_000, 1)
    record = series.populations.nbytes + 5 * series.t.nbytes
    tracemalloc.start()
    try:
        cli._write_json(tmp_path / "s.json", series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < record


def test_the_pauli_start_is_read_from_amplitudes():
    # an (nmax + 1)^2 density matrix at nmax = 2000 would take 61 MiB
    scn = parse_scenario(dict(BASE, alpha=3.0, nmax=2000))
    tracemalloc.start()
    try:
        p0 = cli._initial_populations(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert p0.shape == (2001,)


def test_svg_output_well_formed(tmp_path):
    path = write_json(tmp_path / "scn.json", BASE)
    assert cli.main(["run", path, "--out", str(tmp_path), "--svg"]) == 0
    text = (tmp_path / "t" / "plot.svg").read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "polyline" in text and "rect" in text


def test_sweep_rows_and_ordering(tmp_path):
    obj = dict(BASE, alpha=3.0, nmax=40, samples=401, t_max=20.0,
               rates={"gamma_e": 1.0, "gamma_s": 0.025},
               integrator={"abs_tol": 1e-12, "rel_tol": 1e-10},
               sweep={"gamma_q": [0.0, 0.025, 0.05]})
    path = write_json(tmp_path / "sweep.json", obj)
    assert cli.main(["sweep", path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "gamma_q,t_star,sigma_star,p1_star,interior"
    assert len(rows) == 4
    qs = [float(r.split(",")[0]) for r in rows[1:]]
    assert qs == [0.0, 0.025, 0.05]
    p1s = [float(r.split(",")[2 + 1]) for r in rows[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(p1s, p1s[1:]))


def test_sweep_stopping_time_takes_first_clear_minimum(tmp_path):
    # with strong linear loss std_n dips at t ~ 1.775, then sinks lower still
    # as the mode empties; the dip is the stopping time, the late floor is not
    obj = dict(load_raw(str(SCENARIOS / "linear_loss_sweep.json")), sweep={"gamma_q": [0.0, 0.1]})
    path = write_json(tmp_path / "sweep.json", obj)
    assert cli.main(["sweep", path, "--out", str(tmp_path)]) == 0
    rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]]
    plateau, dip = ({"t_star": float(r[1]), "p1_star": float(r[3]), "interior": r[4]} for r in rows)
    assert plateau["interior"] == "0"  # pure plateau after t ~ 16.4: noise only
    assert dip["interior"] == "1"
    assert abs(dip["t_star"] - 1.775) <= 0.025  # one grid spacing
    assert abs(dip["p1_star"] - 0.842) <= 1e-3

def test_sigma_row_fallback_ignores_rounding_noise():
    # a monotone fall onto a plateau whose 1e-16 jitter puts the argmin late:
    # the fallback stopping time is where the plateau begins
    t = np.linspace(0.0, 20.0, 401)
    plateau = t >= t[140]  # from t = 7
    sigma = np.where(plateau, 0.15, 0.5 - 0.05 * t)
    sigma[plateau] += 1e-16 * np.random.default_rng(5).uniform(0.0, 1.0, plateau.sum())
    sigma[-40] = 0.15 - 1e-16
    assert np.argmin(sigma) == t.size - 40
    pops = np.tile([0.1, 0.9], (t.size, 1))
    series = fd.TimeSeries(t, np.zeros(t.size), sigma, np.zeros(t.size), np.zeros(t.size), pops)
    row = cli._sigma_row(series)
    assert row["interior"] == 0
    assert row["t_star"] == t[140]
    assert abs(row["sigma_star"] - 0.15) < 1e-15


def test_sweep_single_point_matches_run(tmp_path):
    base = dict(BASE, alpha=3.0, nmax=40, samples=401, t_max=20.0,
                rates={"gamma_e": 1.0, "gamma_s": 0.025},
                integrator={"abs_tol": 1e-12, "rel_tol": 1e-10})
    sweep_obj = dict(base, sweep={"gamma_q": [0.025]})
    path = write_json(tmp_path / "single.json", sweep_obj)
    assert cli.main(["sweep", path, "--out", str(tmp_path)]) == 0
    row = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1].split(",")

    direct = dict(base, name="direct")
    direct["rates"] = dict(base["rates"], gamma_q=0.025)
    result = cli.run_scenario(parse_scenario(direct))
    expected = cli._sigma_row(result.series)
    assert float(row[1]) == expected["t_star"]
    assert float(row[2]) == expected["sigma_star"]
    assert float(row[3]) == expected["p1_star"]


def _batch_sizes(monkeypatch):
    """Record the number of cascades of every call to the Pauli batch."""
    sizes = []
    batch = cli.pauli.evolve_population_batch

    def recorded(p0s, channel_sets, t_grid):
        sizes.append(len(p0s))
        return batch(p0s, channel_sets, t_grid)

    monkeypatch.setattr(cli.pauli, "evolve_population_batch", recorded)
    return sizes


def raw_point(obj, fields, point):
    """The plain scenario of one sweep point, built by hand from the file."""
    raw = {k: v for k, v in obj.items() if k != "sweep"}
    raw["rates"] = dict(raw.get("rates", {}))
    for f, v in zip(fields, point):
        if f == "alpha":
            raw["alpha"] = v
        else:
            raw["rates"][f] = v
    return raw


def _assert_rows_match_single_runs(tmp_path, obj):
    """Each sweep.csv row equals the row of its grid point run on its own."""
    fields, values, scenarios = sweep_grid(obj)
    rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] == len(values) == len(scenarios)
    for point, row in zip(values, rows):
        alone = cli._sigma_row(cli.run_scenario(parse_scenario(raw_point(obj, fields, point))).series)
        expected = list(point) + [alone[k] for k in ("t_star", "sigma_star", "p1_star", "interior")]
        assert list(row) == expected


def test_sweep_batches_match_single_runs(tmp_path, monkeypatch):
    # nine points of one cutoff go to the Pauli engine in one call, which
    # runs them as one group (test_pauli.py)
    obj = dict(load_raw(str(SCENARIOS / "linear_loss_sweep.json")),
               sweep={"gamma_q": [0.0, 0.05, 0.1], "gamma_s": [0.0, 0.025, 0.3]})
    sizes = _batch_sizes(monkeypatch)
    assert cli.main(["sweep", write_json(tmp_path / "sweep.json", obj), "--out", str(tmp_path)]) == 0
    assert sizes == [9]
    _assert_rows_match_single_runs(tmp_path, obj)


def test_sweep_batches_by_cutoff_in_grid_order(tmp_path, monkeypatch):
    # without nmax each alpha resolves its own cutoff: 16, 27, 21 and 21
    obj = dict(BASE, t_max=6.0, samples=61, rates={"gamma_e": 1.0, "gamma_q": 0.02},
               sweep={"alpha": [1.0, 1.0, 2.0, 1.5, 1.5]})
    sizes = _batch_sizes(monkeypatch)
    assert cli.main(["sweep", write_json(tmp_path / "sweep.json", obj), "--out", str(tmp_path)]) == 0
    assert sizes == [2, 1, 2]
    _assert_rows_match_single_runs(tmp_path, obj)


def test_sweep_drift_inside_a_batch_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    exact = cli.pauli.expm
    monkeypatch.setattr(cli.pauli, "expm", lambda a: exact(a) * (1.0 + 1e-6))
    obj = dict(BASE, sweep={"gamma_q": [0.0, 0.1, 0.2]})
    assert cli.main(["sweep", write_json(tmp_path / "sweep.json", obj), "--out", str(tmp_path)]) == 3
    assert "numerical failure: trace drifted" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_empty_range_rejected(tmp_path):
    obj = dict(BASE, sweep={"gamma_q": []})
    path = write_json(tmp_path / "empty.json", obj)
    assert cli.main(["sweep", path, "--out", str(tmp_path)]) == 2


def test_sweep_requires_sweep_block(tmp_path):
    path = write_json(tmp_path / "nosweep.json", BASE)
    assert cli.main(["sweep", path, "--out", str(tmp_path)]) == 2


def test_sweep_grid_ordering_multifield():
    obj = dict(BASE, sweep={"gamma_q": [0.1, 0.2], "alpha": [1.0, 2.0]})
    fields, values, scenarios = sweep_grid(obj)
    assert fields == ["alpha", "gamma_q"]
    assert values == [(1.0, 0.1), (1.0, 0.2), (2.0, 0.1), (2.0, 0.2)]
    combos = [(s.alpha, s.rates["gamma_q"]) for s in scenarios]
    assert combos == [(1.0, 0.1), (1.0, 0.2), (2.0, 0.1), (2.0, 0.2)]
    assert {s.name for s in scenarios} == {"t"}


def test_sweep_grid_resolves_a_large_swept_value():
    # points keep the base name, so no generated name can fail its pattern
    fields, values, scenarios = sweep_grid(dict(BASE, sweep={"gamma_q": [0.01, 1e16]}))
    assert values == [(0.01,), (1e16,)]
    assert [s.rates["gamma_q"] for s in scenarios] == [0.01, 1e16]


def test_sweep_runs_the_schema_once(tmp_path, monkeypatch):
    checked = []
    walker = scenario._schema_errors

    def spy(value, schema, path=()):
        # the walker recurses into subschemas; count only the whole object
        if schema is scenario.SCENARIO_SCHEMA:
            checked.append(value)
        return walker(value, schema, path)

    monkeypatch.setattr(scenario, "_schema_errors", spy)
    obj = dict(BASE, sweep={"gamma_q": [0.0, 0.1, 0.2], "alpha": [1.0, 1.2, 1.4]})
    assert cli.main(["sweep", write_json(tmp_path / "sweep.json", obj), "--out", str(tmp_path)]) == 0
    assert len(checked) == 1


def _keywords(schema):
    """Each (keyword, value) of ``schema`` and of every subschema in it."""
    for key, value in schema.items():
        yield key, value
        if key in ("properties", "items", "oneOf"):
            subs = value.values() if key == "properties" else [value] if key == "items" else value
            for sub in subs:
                yield from _keywords(sub)


def test_the_walker_checks_every_keyword_of_the_schema():
    # a keyword the walker does not name would pass unchecked; it names each
    # keyword it checks as a string constant
    checked = set(scenario._schema_errors.__code__.co_consts)
    for key, value in _keywords(scenario.SCENARIO_SCHEMA):
        assert key in checked or key in ("$schema", "title"), key
        # the forms the walker knows: one type name, and no extra property schema
        assert key != "type" or value in scenario._TYPES, value
        assert key != "additionalProperties" or value is False, value


def test_each_point_is_searched_for_its_cutoff_once(monkeypatch):
    searched, search = [], scenario.min_cutoff_for_coherent

    def spy(alpha, tail_tol):
        searched.append(alpha)
        return search(alpha, tail_tol)

    monkeypatch.setattr(scenario, "min_cutoff_for_coherent", spy)
    alphas = [1.0, 1.2, 2.0]
    fields, values, scenarios = sweep_grid(dict(BASE, sweep={"alpha": alphas}))
    assert searched == alphas
    assert [s.nmax for s in scenarios] == [search(a).nmax for a in alphas]
    searched.clear()
    assert parse_scenario(BASE).nmax == search(BASE["alpha"]).nmax
    assert searched == [BASE["alpha"]]


def test_negative_swept_rate_is_a_schema_error(tmp_path, capsys):
    obj = dict(BASE, sweep={"gamma_q": [0.1, -0.1]})
    assert cli.main(["sweep", write_json(tmp_path / "sweep.json", obj), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("  - ") == 1
    assert "  - sweep/gamma_q/1: -0.1 is less than the minimum of 0" in err


@pytest.mark.parametrize(
    "change, violation",
    [
        ({"nmax": 20, "sweep": {"alpha": [1.0, 3.0]}},
         "  - alpha=3: coherent tail beyond nmax=20 is 4.393e-04"),
        ({"sweep": {"gamma_e": [1.0, 0.0]}},
         "  - gamma_e=0: at least one rate must be > 0"),
        ({"sweep": {"alpha": [1.0, 400.0]}},
         "  - alpha=400: |alpha|=400 needs a cutoff above nmax=100000"),
    ],
    ids=["tail", "no-rate", "huge-alpha"],
)
def test_validate_checks_every_sweep_point_as_sweep_does(tmp_path, capsys, change, violation):
    path = write_json(tmp_path / "sweep.json", dict(BASE, **change))
    assert cli.main(["validate", path]) == 2
    assert violation in capsys.readouterr().err
    assert cli.main(["sweep", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert violation in err and err.count("  - ") == 1
    assert not (tmp_path / "o").exists()
    fine = dict(BASE, **change, rates={"gamma_e": 1.0, "gamma_q": 0.1})
    fine["sweep"] = {f: values[:1] for f, values in change["sweep"].items()}
    assert cli.main(["validate", write_json(tmp_path / "fine.json", fine)]) == 0


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_numbers_are_parse_errors(tmp_path, capsys, token):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(BASE).replace('"gamma_e": 1.0', f'"gamma_e": 1.0, "gamma_q": {token}'))
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
        assert cli.main(argv) == 2
        assert f"{token} is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_master_seed_beyond_64_bits_is_a_validation_error(tmp_path):
    obj = dict(BASE, engine="trajectories", samples=5,
               trajectory={"n_traj": 10, "master_seed": 2**64})
    path = write_json(tmp_path / "seed.json", obj)
    assert cli.main(["validate", path]) == 2
    assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2
    fits = write_json(tmp_path / "fits.json", dict(obj, trajectory={"n_traj": 10, "master_seed": 1}))
    assert cli.main(["run", fits, "--out", str(tmp_path / "o"), "--seed", str(2**64)]) == 2
    assert not (tmp_path / "o").exists()
    assert cli.main(["run", fits, "--out", str(tmp_path / "o"), "--seed", str(2**64 - 1)]) == 0


@pytest.mark.parametrize("field", ["t_max", "samples", "nmax"])
def test_integers_beyond_float_range_are_parse_errors(tmp_path, capsys, field):
    path = tmp_path / "huge.json"
    text = json.dumps(dict(BASE, **{field: 7}))
    path.write_text(text.replace(f'"{field}": 7', f'"{field}": {"9" * 400}'))
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
        assert cli.main(argv) == 2
        assert f"{'9' * 400} is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # integers a float holds stay exact
    seed = write_json(tmp_path / "seed.json", {"master_seed": 2**64 - 1})
    assert load_raw(seed)["master_seed"] == 2**64 - 1


def test_seed_override(tmp_path):
    obj = dict(BASE, engine="trajectories", samples=5,
               trajectory={"n_traj": 50, "master_seed": 1})
    path = write_json(tmp_path / "mc.json", obj)
    assert cli.main(["run", path, "--out", str(tmp_path / "a"), "--seed", "99"]) == 0
    manifest = json.loads((tmp_path / "a" / "t" / "manifest.json").read_text())
    assert manifest["scenario"]["trajectory"]["master_seed"] == 99
    assert (tmp_path / "a" / "t" / "stderr.csv").exists()


def test_sweep_applies_the_engine_override(tmp_path):
    obj = dict(load_raw(str(SCENARIOS / "linear_loss_sweep.json")), sweep={"gamma_q": [0.0, 0.1]})
    path = write_json(tmp_path / "sweep.json", obj)
    assert cli.main(["sweep", path, "--out", str(tmp_path / "pauli")]) == 0
    assert cli.main(["sweep", path, "--out", str(tmp_path / "dense"), "--engine", "dense"]) == 0
    pauli, dense = (
        np.loadtxt(tmp_path / d / "sweep.csv", delimiter=",", skiprows=1) for d in ("pauli", "dense")
    )
    assert pauli.shape == (2, 5)
    assert np.max(np.abs(dense - pauli)) <= 1e-8
    # the twomode engine takes no rates, so the overridden sweep is invalid
    assert cli.main(["sweep", path, "--out", str(tmp_path), "--engine", "twomode"]) == 2


def test_sweep_writes_its_table_only_whatever_the_format_and_svg_flags(tmp_path):
    # sweep accepts --format and --svg, but writes one CSV table and no series
    path = str(SCENARIOS / "linear_loss_sweep.json")
    assert cli.main(["sweep", path, "--out", str(tmp_path / "plain")]) == 0
    assert cli.main(["sweep", path, "--out", str(tmp_path / "flags"), "--svg", "--format", "json"]) == 0
    assert [f.name for f in (tmp_path / "flags").iterdir()] == ["sweep.csv"]
    assert (tmp_path / "flags" / "sweep.csv").read_bytes() == (tmp_path / "plain" / "sweep.csv").read_bytes()


def test_seed_needs_the_trajectory_engine(tmp_path, capsys):
    assert cli.main(["preset", "fig1", "--out", str(tmp_path), "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_trajectory_dt_max_is_validated_and_echoed(tmp_path):
    obj = dict(BASE, engine="trajectories", samples=5,
               trajectory={"n_traj": 50, "master_seed": 1, "dt_max": 0.5})
    bad = dict(obj, trajectory=dict(obj["trajectory"], dt_max=0))
    assert cli.main(["validate", write_json(tmp_path / "bad.json", bad)]) == 2
    path = write_json(tmp_path / "mc.json", obj)
    assert cli.main(["run", path, "--out", str(tmp_path / "a")]) == 0
    manifest = tmp_path / "a" / "t" / "manifest.json"
    assert json.loads(manifest.read_text())["scenario"]["trajectory"] == obj["trajectory"]
    assert cli.main(["run", str(manifest), "--out", str(tmp_path / "b")]) == 0
    for name in ("timeseries.csv", "stderr.csv"):
        assert (tmp_path / "a" / "t" / name).read_bytes() == (tmp_path / "b" / "t" / name).read_bytes()


def test_trajectory_counts_written_as_integral_floats_run(tmp_path):
    # JSON Schema counts 50.0 as an integer, so validation passes it
    obj = dict(BASE, engine="trajectories", samples=5,
               trajectory={"n_traj": 50.0, "master_seed": 3.0})
    path = write_json(tmp_path / "mc.json", obj)
    assert cli.main(["validate", path]) == 0
    assert cli.main(["run", path, "--out", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "t" / "manifest.json").read_text())
    assert manifest["scenario"]["trajectory"] == {"n_traj": 50.0, "master_seed": 3.0}
    as_ints = dict(obj, trajectory={"n_traj": 50, "master_seed": 3})
    assert cli.main(["run", write_json(tmp_path / "ints.json", as_ints), "--out", str(tmp_path / "b")]) == 0
    for name in ("timeseries.csv", "stderr.csv"):
        assert (tmp_path / "a" / "t" / name).read_bytes() == (tmp_path / "b" / "t" / name).read_bytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_scenarios_validate_and_run(tmp_path, path):
    assert cli.main(["validate", str(path)]) == 0
    raw = load_raw(str(path))
    if "sweep" in raw:
        command, written = "sweep", "sweep.csv"
    else:
        command, written = "run", f"{raw['name']}/timeseries.csv"
    assert cli.main([command, str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / written).exists()


@pytest.mark.filterwarnings("error")
def test_g2_is_zero_where_the_mean_underflows(tmp_path):
    # at t = 400 the mean is e^-400 ~ 1.9e-174, whose square underflows
    argv = ["run", "--alpha", "1", "--rates", "q=1", "--tmax", "400", "--samples", "5",
            "--engine", "pauli", "--name", "dark", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    table = np.loadtxt(tmp_path / "dark" / "timeseries.csv", delimiter=",", skiprows=1)
    assert 0.0 < table[-1, 1] < 1e-170
    assert table[-1, 3] == 0.0
    assert np.all(np.isfinite(table))


@pytest.mark.parametrize("samples", [10**6 + 1, 1e30])
def test_samples_above_the_bound_is_a_validation_error(tmp_path, capsys, samples):
    # the bound is 10**6; only values above it, since a valid grid that large is allocated
    path = write_json(tmp_path / "big.json", dict(BASE, samples=samples))
    for argv in (["validate", path], ["run", path, "--out", str(tmp_path / "o")]):
        assert cli.main(argv) == 2
        assert "samples" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "obj, pairs",
    [
        pytest.param(dict(BASE, engine="dense", alpha=[1.5, 1.0], u1=0.3),
                     {"alpha": [1.5, 1.0]}, id="dense-complex-alpha"),
        pytest.param({"name": "t", "alpha": 1.0, "nmax": 8, "t_max": 10.0, "samples": 6,
                      "engine": "twomode",
                      "twomode": {"u4": [0.6, 0.8], "gamma_b": 40.0, "gamma_a_formula": 30.0}},
                     {"twomode": {"u4": [0.6, 0.8], "gamma_b": 40.0, "gamma_a_formula": 30.0,
                                  "nmax_b": 4}}, id="twomode-complex-u4"),
    ],
)
def test_complex_inputs_survive_manifest_replay(tmp_path, obj, pairs):
    path = write_json(tmp_path / "scn.json", obj)
    assert cli.main(["run", path, "--out", str(tmp_path / "a")]) == 0
    manifest = tmp_path / "a" / "t" / "manifest.json"
    replayed = json.loads(manifest.read_text())["scenario"]
    assert {k: replayed[k] for k in pairs} == pairs
    assert cli.main(["run", str(manifest), "--out", str(tmp_path / "b")]) == 0
    csvs = sorted(f.name for f in (tmp_path / "a" / "t").glob("*.csv"))
    assert "timeseries.csv" in csvs
    for name in csvs:
        a, b = ((tmp_path / d / "t" / name).read_bytes() for d in ("a", "b"))
        assert a == b


def test_preset_fig2_reports_a_missing_interior_minimum(tmp_path, monkeypatch, capsys):
    def no_minimum(series, window):
        raise NoInteriorMinimum("std_n has no interior minimum on [0.5, 20.0]")

    # one small run stands in for the preset's three; the report reads the last
    monkeypatch.setattr(cli, "preset_scenarios", lambda which: [dict(BASE, name="fig2_small")])
    monkeypatch.setattr(fd.analysis, "find_sigma_min", no_minimum)
    assert cli.main(["preset", "fig2", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fig2_sigma_min.json").read_text())
    assert report == {
        "scenario": "fig2_small",
        "t_star": None,
        "detail": "std_n has no interior minimum on [0.5, 20.0]",
    }
    assert "no interior sigma minimum: std_n has no interior minimum" in capsys.readouterr().out


def test_sweep_warns_where_p1_rises_with_linear_loss(tmp_path, monkeypatch, capsys):
    # points run (q, s) = (0, 0), (0, 0.05), (0.1, 0), (0.1, 0.05); at s = 0
    # p1 rises from 0.9 to 0.95 as gamma_q grows, at s = 0.05 it falls
    p1s = [0.9, 0.8, 0.95, 0.7]
    rows = [{"t_star": 1.0, "sigma_star": 0.1, "p1_star": p, "interior": 1} for p in p1s]
    monkeypatch.setattr(cli, "_sweep_rows", lambda scenarios: rows)
    obj = dict(BASE, sweep={"gamma_q": [0.0, 0.1], "gamma_s": [0.0, 0.05]})
    assert cli.main(["sweep", write_json(tmp_path / "s.json", obj), "--out", str(tmp_path)]) == 0
    warned = [line for line in capsys.readouterr().out.splitlines() if line.startswith("WARNING")]
    assert warned == ["WARNING: p1(t*) not nonincreasing in gamma_q at {'gamma_s': 0.0}"]
    table = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    assert table[:, 4].tolist() == p1s


def test_twomode_engine_via_cli(tmp_path):
    obj = {
        "name": "pair",
        "alpha": 1.0,
        "nmax": 8,
        "t_max": 10.0,
        "samples": 6,
        "engine": "twomode",
        "twomode": {"u4": 1.0, "gamma_b": 40.0, "nmax_b": 3},
    }
    path = write_json(tmp_path / "tm.json", obj)
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "pair" / "mode_b.csv").exists()


def test_gamma_a_formula_is_echoed_only(tmp_path):
    # the two-mode run never reads the effective rate the field sets
    obj = load_raw(str(SCENARIOS / "two_mode_pair.json"))
    formula = dict(obj, twomode=dict(obj["twomode"], gamma_a_formula=3.0))
    for out, scn in (("plain", obj), ("formula", formula)):
        assert cli.main(["run", write_json(tmp_path / f"{out}.json", scn), "--out", str(tmp_path / out)]) == 0
    plain, echoed = (tmp_path / "plain" / "two_mode_pair", tmp_path / "formula" / "two_mode_pair")
    for name in ("timeseries.csv", "mode_b.csv"):
        assert (plain / name).read_bytes() == (echoed / name).read_bytes()
    manifest = json.loads((echoed / "manifest.json").read_text())
    assert manifest["scenario"]["twomode"]["gamma_a_formula"] == 3.0


def test_manifest_load_unwraps_scenario(tmp_path):
    path = write_json(
        tmp_path / "m.json",
        {"tool": {"name": "fockdamp"}, "scenario": BASE, "outputs": {}},
    )
    raw = load_raw(path)
    assert raw == BASE


def test_csv_floats_roundtrip(tmp_path):
    v = 0.12345678901234567
    path = tmp_path / "a.csv"
    cli._write_csv(path, ["x", "v"], [1 - math.exp(-9)], [v])
    line = path.read_text().splitlines(keepends=True)[1]
    assert line == format(1 - math.exp(-9), ".17g") + "," + format(v, ".17g") + "\n"
    assert float(line.split(",")[1]) == v


@pytest.mark.parametrize("n_rows", [1, 128, 129])
def test_series_csv_matches_per_value_format(n_rows, tmp_path):
    # 7 specials over 8 columns, so every column meets every special value;
    # 128 and 129 rows reach and cross the writer's block edge
    specials = [-0.0, 5e-324, 1e300, math.nan, math.inf, 2.0, -math.inf]
    vals = np.resize(specials, (n_rows, 8))
    s = fd.TimeSeries(*vals[:, :5].T, populations=vals[:, 5:])
    header = ["t", "mean_n", "std_n", "g2", "trace_err", "p0", "p1", "p2"]
    expected = "t,mean_n,std_n,g2,trace_err,p0,p1,p2\n" + "".join(
        ",".join(format(float(x), ".17g") for x in row) + "\n" for row in vals
    )
    path = tmp_path / "timeseries.csv"
    cli._write_csv(path, header, s.t, s.mean_n, s.std_n, s.g2, s.trace_err, s.populations)
    assert path.read_bytes() == expected.encode()
