"""Tests of the benchmark itself: its metric list, repeatable traced counts,
failed checks counted as failed operations, and the speed probe.

    PYTHONPATH=src python -m pytest -q perfbench

The traced runs use shrunken copies of the sweep, ensemble and elimination
workloads so the tests stay fast; between them they reach every count.
"""

import json
import signal
from pathlib import Path
from time import perf_counter

import pytest

import tracing
import worker
import workloads

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
# per-layer metrics that the orchestrator and the worker add to the tracer's
EXTRA = {
    "import.fockdamp_s": "s",
    "import.scipy_special_s": "s",
    "trace.overhead_s": "s",
    "bench.wall_raw_s": "s",
    "bench.setup_raw_s": "s",
    "bench.slowdown": "ratio",
    "analysis.interior_rows": "count",
}
COUNT_UNITS = ("count", "B")


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads.Sweep, "BASE", dict(workloads.Sweep.BASE, samples=101, t_max=5.0))
    monkeypatch.setattr(workloads.Ensemble, "N_TRAJ", 40)
    monkeypatch.setattr(
        workloads.Elimination, "PARAMS",
        dict(workloads.Elimination.PARAMS, nmax_a=5, nmax_b=2, alpha=0.8, n_samples=6, tau_max=1.0),
    )


def traced_counts(name: str, seed: int, work: Path) -> dict:
    work.mkdir()
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed, work)
    with tracing.Tracer() as tracer:
        status = workload.run(inputs, work)
    assert all(reason is None for reason in status.values()), status
    metrics, absent = tracer.metrics()
    assert absent == []
    return {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}


def test_benchmark_json_lists_what_the_benchmark_reports():
    with tracing.Tracer() as tracer:
        pass
    metrics, absent = tracer.metrics()
    assert absent == []
    emitted = {k: unit for k, (_, unit) in metrics.items()} | EXTRA
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == emitted
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert set(bounds) == {"wall_ref_s", "setup_s", "peak_rss_mb"}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.filterwarnings("ignore:top B level")
def test_traced_counts_repeat_for_the_same_seed(small, tmp_path):
    first, second = {}, {}
    for name in ("sweep", "ensemble", "elimination"):
        first.update({k: v for k, v in traced_counts(name, 7, tmp_path / f"{name}-a").items() if v})
        second.update({k: v for k, v in traced_counts(name, 7, tmp_path / f"{name}-b").items() if v})
    assert first == second
    for key in (
        "integrate.pauli.rhs_evals",
        "integrate.pauli.steps_accepted",
        "integrate.dynamics.rhs_evals",
        "integrate.twomode.rhs_evals",
        "integrate.twomode.steps_accepted",
        "dynamics.eig_calls",
        "trajectories.draws",
        "cli.bytes_written",
        "twomode.state_dim",
    ):
        assert first.get(key, 0) > 0, key
    assert first["twomode.state_dim"] == (5 + 1) ** 2 * (2 + 1) ** 2


def test_metrics_of_a_removed_function_are_absent(monkeypatch):
    import fockdamp.pauli

    monkeypatch.delattr(fockdamp.pauli, "integrate")
    with tracing.Tracer() as tracer:
        pass
    metrics, absent = tracer.metrics()
    assert "integrate.pauli.rhs_evals" in absent and "integrate.pauli.rhs_evals" not in metrics
    assert "integrate.dynamics.rhs_evals" in metrics
    assert fockdamp.pauli.__dict__.get("integrate") is None


def test_failed_checks_are_counted_not_raised(tmp_path):
    workload = workloads.WORKLOADS["elimination"]
    inputs = workload.make_inputs(3, tmp_path)

    # the call failed: every operation of that call fails
    ops = worker.run_checks(workload, inputs, tmp_path, {"elimination": "raised RuntimeError()"})
    assert [reason for _, reason in ops] == ["raised RuntimeError()"] * 2

    # no output at all: each check raises, each operation is counted
    ops = worker.run_checks(workload, inputs, tmp_path, {"elimination": None})
    assert len(ops) == 2 and all(reason.startswith("check failed") for _, reason in ops)

    # a wrong result fails only the operations it touches
    good = {"gamma_e": 0.16, "sup_error": 1.07e-2, "peak_b_occupation": 0.0, "b_top_level_mass": 0.0}
    records = [dict(good, gamma_b=25.0), dict(good, gamma_b=50.0, gamma_e=0.08, sup_error=9e-3)]
    Path(inputs["out"]).write_text(json.dumps(records))
    ops = worker.run_checks(workload, inputs, tmp_path, {"elimination": None})
    assert ops[0] == ["gamma_b=25", None]
    assert "fell by only" in ops[1][1]


def test_speed_probe_samples_beside_the_body_and_cleans_up():
    before = signal.getsignal(signal.SIGALRM)
    with worker.SpeedProbe() as probe:
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # kernels ran inside the body and their time is known, so it can be taken out
    assert 0.0 < probe.spent < 0.3
    assert len(probe.times) >= probe.MIN_SAMPLES
    assert probe.slowdown > 0.0
