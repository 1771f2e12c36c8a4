"""The four benchmark workloads: seeded inputs, timed bodies, correctness checks.

Every workload is a closed loop with one caller: the body makes its calls
into fockdamp one after another, through the entry points a user calls
(``fockdamp.cli.main`` and ``fockdamp.twomode.elimination_comparison``).
fockdamp only ever sees the scenario files and arguments generated here from
the workload seed.

A workload has three parts:

- ``make_inputs(seed, work)`` writes the input files into ``work`` and
  returns what the body needs. It is part of set-up time.
- ``run(inputs, work)`` is the timed body. It returns, for each call it
  made, ``None`` or the reason the call failed (an exception or a non-zero
  exit code).
- ``probe_long_vectors`` says whether the speed probe that runs beside the
  body (see ``worker.SpeedProbe``) should work on long vectors, as this
  workload's engine does, rather than on small operands only.
- ``checks(inputs, work)`` lists the operations with one check each. An
  operation fails when its call failed or its check raises. Checks run
  after the timed body.

Module import pulls in only the standard library, so that a worker can time
the import of fockdamp before anything else loads numpy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from pathlib import Path

TIGHT = {"abs_tol": 1e-12, "rel_tol": 1e-10}


def _cli(argv: list[str]) -> str | None:
    """Run ``fockdamp <argv>`` in process; None on success, else the reason."""
    from fockdamp import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # an operation that raises counts as failed
        return f"raised {exc!r}"
    return None if code == 0 else f"exit code {code}"


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return path


def read_csv(path: Path):
    """Header names and the rows of a fockdamp CSV as a float array."""
    import numpy as np

    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def _populations(header, rows):
    first = header.index("p0")
    return rows[:, first:]


def _require(cond: bool, message: str):
    if not cond:
        raise AssertionError(message)


class Presets:
    """``fockdamp preset fig1 --svg`` then ``preset fig2 --svg``: the paper's
    figures on the dense engine at nmax = 40. They take no seed."""

    name = "presets"
    probe_long_vectors = False
    FIGS = {
        "fig1": (("pure_nonlinear", "pure_two_photon", "pure_three_photon"), 201),
        "fig2": (("add_linear", "add_two_photon", "add_mixed"), 2001),
    }
    T_MAX = 100.0
    # fig2 add_mixed stopping time and single-photon weight; the tolerances
    # allow a continuous t* that no longer snaps to the sample grid
    T_STAR, P1_STAR, P1_TOL = 2.382, 0.92513, 1e-3

    def make_inputs(self, seed: int, work: Path) -> dict:
        return {"out": str(work / "out")}

    def run(self, inputs: dict, work: Path) -> dict:
        return {fig: _cli(["preset", fig, "--svg", "--out", inputs["out"]]) for fig in self.FIGS}

    def checks(self, inputs: dict, work: Path) -> list:
        ops = []
        for fig, (runs, samples) in self.FIGS.items():
            for run in runs:
                op = f"{fig}_{run}"
                ops.append((op, fig, lambda d=Path(inputs["out"]), op=op, n=samples: self._check(d, op, n)))
        return ops

    def _check(self, out: Path, op: str, samples: int):
        run_dir = out / op
        header, rows = read_csv(run_dir / "timeseries.csv")
        _require(rows.shape[0] == samples, f"{op}: {rows.shape[0]} samples, expected {samples}")
        _require((run_dir / "plot.svg").stat().st_size > 0, f"{op}: empty plot.svg")
        json.loads((run_dir / "manifest.json").read_text())
        trace_err = rows[:, header.index("trace_err")]
        _require(float(trace_err.max()) <= 1e-8, f"{op}: trace drift {trace_err.max():.3e}")
        p = _populations(header, rows)
        if op == "fig1_pure_nonlinear":
            # the vacuum is dark: its weight stays at the coherent value e^-9
            _require(abs(p[-1, 0] - math.exp(-9.0)) <= 1e-12, f"{op}: p0 moved to {p[-1, 0]!r}")
        elif op in ("fig1_pure_two_photon", "fig1_pure_three_photon"):
            d = 2 if op == "fig1_pure_two_photon" else 3
            for r in range(d):
                drift = abs(p[-1, r::d].sum() - p[0, r::d].sum())
                _require(drift <= 1e-8, f"{op}: mass of n = {r} mod {d} drifted by {drift:.3e}")
        elif op == "fig2_add_mixed":
            report = json.loads((out / "fig2_sigma_min.json").read_text())
            spacing = self.T_MAX / (samples - 1)
            t_star, p1 = report.get("t_star"), report.get("p1_at_t_star")
            _require(t_star is not None, f"{op}: no interior sigma minimum")
            _require(abs(t_star - self.T_STAR) <= spacing, f"{op}: t* = {t_star}")
            _require(abs(p1 - self.P1_STAR) <= self.P1_TOL, f"{op}: p1(t*) = {p1}")


class Sweep:
    """A 4 x 4 Pauli sweep over gamma_q and gamma_s in [0, 0.1], drawn from the
    seed; gamma_q = 0.1 is always on the grid."""

    name = "sweep"
    probe_long_vectors = False
    BASE = {
        "alpha": 3.0,
        "nmax": 40,
        "t_max": 20.0,
        "samples": 801,
        "engine": "pauli",
        "integrator": TIGHT,
    }

    def make_inputs(self, seed: int, work: Path) -> dict:
        rng = random.Random(f"sweep:{seed}")
        gamma_q = sorted(v / 1e4 for v in rng.sample(range(1000), 3)) + [0.1]
        gamma_s = sorted(v / 1e4 for v in rng.sample(range(1001), 4))
        sweep = dict(self.BASE, name="bench_sweep", rates={"gamma_e": 1.0})
        sweep["sweep"] = {"gamma_q": gamma_q, "gamma_s": gamma_s}
        k = rng.randrange(16)
        point = dict(self.BASE, name="bench_sweep_point")
        point["rates"] = {"gamma_e": 1.0, "gamma_q": gamma_q[k // 4], "gamma_s": gamma_s[k % 4]}
        return {
            "scenario": str(_write_json(work / "sweep.json", sweep)),
            "point": str(_write_json(work / "sweep_point.json", point)),
            "grid": [(q, s) for q in gamma_q for s in gamma_s],
            "checked": k,
            "out": str(work / "out"),
        }

    def run(self, inputs: dict, work: Path) -> dict:
        return {"sweep": _cli(["sweep", inputs["scenario"], "--out", inputs["out"]])}

    def checks(self, inputs: dict, work: Path) -> list:
        rows = []

        def row(i):
            if not rows:
                rows.append(read_csv(Path(inputs["out"]) / "sweep.csv"))
            header, data = rows[0]
            _require(data.shape[0] == len(inputs["grid"]), f"sweep.csv has {data.shape[0]} rows")
            return dict(zip(header, data[i]))

        def check(i, q, s):
            r = row(i)
            _require((r["gamma_q"], r["gamma_s"]) == (q, s), f"row {i} holds another grid point")
            _require(0.0 <= r["p1_star"] <= 1.0, f"p1_star = {r['p1_star']!r}")
            if i == inputs["checked"]:
                self._dense_matches_pauli(inputs, work)

        return [
            (f"gamma_q={q:g},gamma_s={s:g}", "sweep", lambda i=i, q=q, s=s: check(i, q, s))
            for i, (q, s) in enumerate(inputs["grid"])
        ]

    @staticmethod
    def _dense_matches_pauli(inputs: dict, work: Path):
        pops = {}
        for engine in ("pauli", "dense"):
            out = work / f"check_{engine}"
            err = _cli(["run", inputs["point"], "--engine", engine, "--out", str(out)])
            _require(err is None, f"{engine} re-run: {err}")
            pops[engine] = _populations(*read_csv(out / "bench_sweep_point" / "timeseries.csv"))
        diff = float(abs(pops["dense"] - pops["pauli"]).max())
        _require(diff <= 1e-8, f"dense and pauli populations differ by {diff:.3e}")


class Ensemble:
    """2000 quantum-jump trajectories whose master seed is the workload seed."""

    name = "ensemble"
    probe_long_vectors = False
    BASE = {
        "alpha": 3.0,
        "nmax": 40,
        "rates": {"gamma_e": 1.0, "gamma_q": 0.05},
        "t_max": 20.0,
        "samples": 21,
    }
    N_TRAJ = 2000

    def make_inputs(self, seed: int, work: Path) -> dict:
        scenario = dict(self.BASE, name="bench_ensemble", engine="trajectories")
        scenario["trajectory"] = {"n_traj": self.N_TRAJ, "master_seed": seed}
        oracle = dict(self.BASE, name="bench_oracle", engine="pauli", integrator=TIGHT)
        return {
            "scenario": str(_write_json(work / "ensemble.json", scenario)),
            "oracle": str(_write_json(work / "oracle.json", oracle)),
            "out": str(work / "out"),
        }

    def run(self, inputs: dict, work: Path) -> dict:
        return {"run": _cli(["run", inputs["scenario"], "--out", inputs["out"]])}

    def checks(self, inputs: dict, work: Path) -> list:
        return [("ensemble", "run", lambda: self._check(inputs, work))]

    @staticmethod
    def _check(inputs: dict, work: Path):
        run_dir = Path(inputs["out"]) / "bench_ensemble"
        mean = _populations(*read_csv(run_dir / "timeseries.csv"))
        _, se = read_csv(run_dir / "stderr.csv")
        err = _cli(["run", inputs["oracle"], "--out", str(work / "check")])
        _require(err is None, f"pauli oracle: {err}")
        oracle = _populations(*read_csv(work / "check" / "bench_oracle" / "timeseries.csv"))
        excess = abs(mean - oracle) - (5.0 * se[:, 1:] + 1e-9)
        _require(float(excess.max()) <= 0.0, f"mean misses the oracle by {excess.max():.3e} beyond 5 se")


class Elimination:
    """``twomode.elimination_comparison`` at gamma_b = 25 and 50 with
    u4 = exp(i phi), phi drawn from the seed. The reduction depends on |u4|
    only, so the seed changes the inputs but not the number of steps; the
    time does depend on phi (seed 11 takes about 1.4 times as long as seed
    12 with the same step counts)."""

    name = "elimination"
    probe_long_vectors = True
    PARAMS = {
        "alpha": 1.5,
        "gamma_bs": [25.0, 50.0],
        "nmax_a": 12,
        "nmax_b": 4,
        "tau_max": 4.0,
        "n_samples": 41,
    }

    def make_inputs(self, seed: int, work: Path) -> dict:
        phi = random.Random(f"elimination:{seed}").uniform(0.0, 2.0 * math.pi)
        params = dict(self.PARAMS, u4=[math.cos(phi), math.sin(phi)])
        return {"params": str(_write_json(work / "elimination.json", params)), "out": str(work / "records.json")}

    def run(self, inputs: dict, work: Path) -> dict:
        from fockdamp import twomode

        params = json.loads(Path(inputs["params"]).read_text())
        u4 = complex(*params.pop("u4"))
        params["gamma_bs"] = tuple(params["gamma_bs"])
        try:
            records = twomode.elimination_comparison(u4=u4, **params)
        except Exception as exc:
            return {"elimination": f"raised {exc!r}"}
        with open(inputs["out"], "w") as fh:
            json.dump([dataclasses.asdict(r) for r in records], fh)
        return {"elimination": None}

    def checks(self, inputs: dict, work: Path) -> list:
        return [
            (f"gamma_b={gb:g}", "elimination", lambda i=i: self._check(inputs, i))
            for i, gb in enumerate(self.PARAMS["gamma_bs"])
        ]

    def _check(self, inputs: dict, i: int):
        records = json.loads(Path(inputs["out"]).read_text())
        u4 = complex(*json.loads(Path(inputs["params"]).read_text())["u4"])
        rec = records[i]
        gb = self.PARAMS["gamma_bs"][i]
        _require(rec["gamma_b"] == gb, f"record {i} is for gamma_b = {rec['gamma_b']}")
        # gamma_e = gamma_a |2 u4 / gamma_b|^2 with a flat reservoir, gamma_a = gamma_b
        expected = gb * abs(2.0 * u4 / gb) ** 2
        _require(math.isclose(rec["gamma_e"], expected, rel_tol=1e-12), f"gamma_e = {rec['gamma_e']}")
        _require(rec["sup_error"] < 2e-2, f"sup_error = {rec['sup_error']:.3e} at gamma_b = {gb:g}")
        if i > 0:
            ratio = records[i - 1]["sup_error"] / rec["sup_error"]
            _require(ratio >= 3.0, f"sup_error fell by only {ratio:.2f}x from the previous gamma_b")


WORKLOADS = {w.name: w for w in (Presets(), Sweep(), Ensemble(), Elimination())}


def interior_rows(name: str, inputs: dict) -> int:
    """Rows of the sweep output flagged as interior stopping-time minima."""
    path = Path(inputs.get("out", "")) / "sweep.csv"
    if name != "sweep" or not path.exists():
        return 0
    header, rows = read_csv(path)
    return int(rows[:, header.index("interior")].sum())
