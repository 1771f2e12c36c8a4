import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import fockdamp as fd
from fockdamp import cli
from fockdamp.errors import ValidationError
from fockdamp.scenario import (
    load_raw,
    parse_scenario,
    preset_scenarios,
    sweep_grid,
    validate_dict,
)


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
    violations = validate_dict(bad, allow_sweep=False)
    assert any("frobnicate" in v for v in violations)


def test_all_violations_listed():
    bad = dict(BASE, rates={"gamma_x": 1.0}, engine="nope", samples=1)
    violations = validate_dict(bad, allow_sweep=False)
    assert len(violations) >= 3


def test_engine_block_consistency():
    assert any(
        "trajectory" in v
        for v in validate_dict(dict(BASE, engine="trajectories"), allow_sweep=False)
    )
    assert any(
        "twomode" in v for v in validate_dict(dict(BASE, engine="twomode"), allow_sweep=False)
    )
    with_block = dict(BASE, trajectory={"n_traj": 10, "master_seed": 1})
    assert any("trajectory" in v for v in validate_dict(with_block, allow_sweep=False))


def test_rate_required_for_single_mode_engines():
    bad = dict(BASE, rates={})
    assert any("rate" in v for v in validate_dict(bad, allow_sweep=False))


def test_tail_rule_checked_in_validation():
    bad = dict(BASE, alpha=3.0, nmax=20)
    assert any("tail" in v for v in validate_dict(bad, allow_sweep=False))


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

    monkeypatch.setattr(cli, "coherent_density", negative)
    path = write_json(tmp_path / "neg.json", dict(BASE, engine="dense"))
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 3
    assert "numerical failure: min eigenvalue -1.000e-06 at t=0 " in capsys.readouterr().err


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
    row = cli._sigma_row(cli.RunResult(None, series, {}))
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
    expected = cli._sigma_row(result)
    assert float(row[1]) == expected["t_star"]
    assert float(row[2]) == expected["sigma_star"]
    assert float(row[3]) == expected["p1_star"]


def test_sweep_empty_range_rejected(tmp_path):
    obj = dict(BASE, sweep={"gamma_q": []})
    path = write_json(tmp_path / "empty.json", obj)
    assert cli.main(["sweep", path, "--out", str(tmp_path)]) == 2


def test_sweep_requires_sweep_block(tmp_path):
    path = write_json(tmp_path / "nosweep.json", BASE)
    assert cli.main(["sweep", path, "--out", str(tmp_path)]) == 2


def test_sweep_grid_ordering_multifield():
    obj = dict(BASE, sweep={"gamma_q": [0.1, 0.2], "alpha": [1.0, 2.0]})
    fields, grid = sweep_grid(obj)
    assert fields == ["alpha", "gamma_q"]
    combos = [(g["alpha"], g["rates"]["gamma_q"]) for g in grid]
    assert combos == [(1.0, 0.1), (1.0, 0.2), (2.0, 0.1), (2.0, 0.2)]


def test_seed_override(tmp_path):
    obj = dict(BASE, engine="trajectories", samples=5,
               trajectory={"n_traj": 50, "master_seed": 1})
    path = write_json(tmp_path / "mc.json", obj)
    assert cli.main(["run", path, "--out", str(tmp_path / "a"), "--seed", "99"]) == 0
    manifest = json.loads((tmp_path / "a" / "t" / "manifest.json").read_text())
    assert manifest["scenario"]["trajectory"]["master_seed"] == 99
    assert (tmp_path / "a" / "t" / "stderr.csv").exists()


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


def test_manifest_load_unwraps_scenario(tmp_path):
    path = write_json(
        tmp_path / "m.json",
        {"tool": {"name": "fockdamp"}, "scenario": BASE, "outputs": {}},
    )
    raw = load_raw(path)
    assert raw == BASE


def test_csv_floats_roundtrip():
    v = 0.12345678901234567
    line = cli._csv_rows([1 - math.exp(-9)], [v])
    assert line == format(1 - math.exp(-9), ".17g") + "," + format(v, ".17g") + "\n"
    assert float(line.split(",")[1]) == v


@pytest.mark.parametrize("n_rows", [1, 128, 129])
def test_series_csv_matches_per_value_format(n_rows):
    # 7 specials over 8 columns, so every column meets every special value;
    # 128 and 129 rows reach and cross the formatter's block edge
    specials = [-0.0, 5e-324, 1e300, math.nan, math.inf, 2.0, -math.inf]
    vals = np.resize(specials, (n_rows, 8))
    series = fd.TimeSeries(*vals[:, :5].T, populations=vals[:, 5:])
    expected = "t,mean_n,std_n,g2,trace_err,p0,p1,p2\n" + "".join(
        ",".join(format(float(x), ".17g") for x in row) + "\n" for row in vals
    )
    assert cli.series_csv(series) == expected
