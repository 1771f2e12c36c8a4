"""Benchmark of fockdamp's four engines, end to end and layer by layer.

    python3 perfbench/run.py [--seed N] [--seconds S]
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` (or with ``--workload all``) every workload runs for
the seed, first untraced, printing each end-to-end metric with its unit and
sample count and the operations attempted and failed, then traced, printing
every per-layer metric, the self time of each layer and the tracing
overhead. With ``--workload NAME`` one workload runs and the last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

Each repetition is a fresh interpreter (``worker.py``) that builds fockdamp's
inputs from the seed, times one pass of the workload body, reads its peak
memory and checks every output outside the timed region. Repetitions go on
until ``--seconds`` is used up, with at least three untraced ones; the
reported values are medians over them. A traced run alternates untraced and
traced repetitions and reports the difference of their median wall times as
the tracing overhead. Working files live in ``.perfbench-work`` at the
checkout root; the spans of the last traced repetition stay there.

End-to-end metrics:

- ``wall_ref_s``: the body's wall time at the reference speed. On a shared
  host the same code runs up to twice as long from one minute to the next,
  so each untraced body runs beside ``worker.SpeedProbe``, which times a
  fixed NumPy kernel every 25 ms; the body's own time divided by the
  kernel's slowdown against its reference time is what is reported.
- ``setup_s``: import of ``fockdamp`` and ``fockdamp.cli`` in a fresh
  interpreter plus generating the inputs, divided by the slowdown the probe
  measured in the body that follows it, so also at the reference speed.
  Raw set-up times of the same code moved by 29% between two sets of runs
  of one workload on the host it was sized on; divided so, by 4%.

The raw times and the slowdown are the per-layer metrics
``bench.wall_raw_s``, ``bench.setup_raw_s`` and ``bench.slowdown``.

``peak_rss_mb`` is the peak resident memory of the repetition, as measured.
Workers run with one BLAS thread (``THREADS_ENV``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_PLAIN_REPS = 3
# a repetition normally takes under 12 s; with these two limits a run ends
# inside three minutes whatever --seconds says
REP_TIMEOUT_S = 60
HARD_STOP_S = 100
MAX_CRASHES = 3

# One BLAS thread: on a small shared host a second one spins on the other
# core for no gain (elimination: same wall time, twice the CPU time) and
# makes the run measure the neighbours' load.
THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, **THREADS_ENV, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _worker(workload: str, seed: int, rep: int, traced: bool) -> dict | None:
    """Run one repetition; None if the worker crashed or timed out."""
    rep_dir = WORK / f"{workload}-s{seed}-r{rep}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(rep_dir)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S, env=_child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"{workload} repetition {rep} timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        if traced and (rep_dir / "spans.csv").exists():
            (rep_dir / "spans.csv").replace(WORK / f"spans-{workload}-s{seed}.csv")
        shutil.rmtree(rep_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"{workload} repetition {rep} exited with {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times() -> dict:
    """Cumulative import times from ``python -X importtime -c 'import fockdamp.cli'``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fockdamp.cli"],
                          capture_output=True, text=True, timeout=REP_TIMEOUT_S, env=_child_env(), cwd=ROOT)
    out = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative_s = int(parts[1]) * 1e-6
        name = parts[2].strip()
        if name.startswith("fockdamp") and not parts[2].startswith("  "):
            # a top-level entry: fockdamp itself, or fockdamp.cli around it
            out["import.fockdamp_s"] = out.get("import.fockdamp_s", 0.0) + cumulative_s
        elif name == "scipy.special":
            out["import.scipy_special_s"] = cumulative_s
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    """Repetitions of one workload and their medians."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.imports: list[dict] = []
        self.crashed = 0
        self.env = None
        start = perf_counter()
        rep = 0
        while True:
            for traced in (False, True) if trace else (False,):
                r = _worker(workload, seed, rep, traced)
                rep += 1
                if r is None:
                    self.crashed += 1
                    if self.crashed >= MAX_CRASHES:
                        return
                    continue
                self.env = r["env"]
                (self.traced if traced else self.plain).append(r)
                if traced:
                    self.imports.append(import_times())
            elapsed = perf_counter() - start
            enough = self.traced if trace else len(self.plain) >= MIN_PLAIN_REPS
            per_round = elapsed / max(1, rep // (2 if trace else 1))
            if elapsed + per_round > (seconds if enough else HARD_STOP_S):
                break

    @property
    def ops(self) -> list:
        return [op for r in self.plain + self.traced for op in r["ops"]]

    @property
    def attempted(self) -> int:
        per_rep = len(self.ops) // max(1, len(self.plain) + len(self.traced))
        return len(self.ops) + self.crashed * max(1, per_rep)

    @property
    def failed(self) -> int:
        return sum(1 for _, reason in self.ops if reason) + (self.attempted - len(self.ops))

    def end_to_end(self) -> dict:
        return {
            "wall_ref_s": (statistics.median(r["wall_s"] / r["slowdown"] for r in self.plain), "s"),
            "setup_s": (statistics.median(r["setup_s"] / r["slowdown"] for r in self.plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in self.plain), "MB"),
        }

    def per_layer(self) -> tuple[dict, list]:
        # median_low keeps counts whole; they repeat exactly anyway
        out = {}
        for name, (_, unit) in self.traced[0]["per_layer"].items():
            out[name] = (statistics.median_low(r["per_layer"][name][0] for r in self.traced), unit)
        for name in self.imports[0]:
            out[name] = (statistics.median_low(i[name] for i in self.imports if name in i), "s")
        absent = sorted(set(self.traced[0]["absent"]) | (
            {"import.fockdamp_s", "import.scipy_special_s"} - set(self.imports[0])))
        traced_wall = statistics.median(r["wall_s"] for r in self.traced)
        plain_wall = statistics.median(r["wall_s"] for r in self.plain)
        out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        out["bench.wall_raw_s"] = (plain_wall, "s")
        out["bench.setup_raw_s"] = (statistics.median(r["setup_s"] for r in self.plain), "s")
        out["bench.slowdown"] = (statistics.median(r["slowdown"] for r in self.plain), "ratio")
        return out, absent

    def report(self) -> dict:
        """Print the human-readable summary; return the result object."""
        reps = self.traced if self.trace else self.plain
        print(f"== {self.workload} seed={self.seed} trace={int(self.trace)}: "
              f"{len(self.plain)} untraced and {len(self.traced)} traced repetitions, "
              f"{self.crashed} crashed; ops attempted={self.attempted} failed={self.failed}")
        for op, reason in self.ops:
            if reason:
                print(f"   FAILED {op}: {reason}")
        if self.trace:
            metrics, absent = self.per_layer()
            for name, (value, unit) in metrics.items():
                print(f"   {name:<42} {value:>16.6g} {unit}")
            if absent:
                print(f"   absent (wrapped function gone): {', '.join(absent)}")
        else:
            metrics = self.end_to_end()
            per_rep = {
                "wall_ref_s": [r["wall_s"] / r["slowdown"] for r in reps],
                "wall_raw_s": [r["wall_s"] for r in reps],
                "slowdown": [r["slowdown"] for r in reps],
                "setup_s": [r["setup_s"] / r["slowdown"] for r in reps],
                "setup_raw_s": [r["setup_s"] for r in reps],
                "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
            }
            for name, values in per_rep.items():
                lo, hi = _quartiles(values)
                print(f"   {name:<12} median {statistics.median(values):.6g}  "
                      f"quartiles [{lo:.6g}, {hi:.6g}]  n={len(values)}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def main() -> int:
    # a terminated run unwinds, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "fockdamp" / "__init__.py").is_file():
        print(f"no fockdamp sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    WORK.mkdir(exist_ok=True)

    every = args.workload == "all"
    names = list(workloads.WORKLOADS) if every else [args.workload]
    ok, result, env = True, None, None
    for trace in (False, True) if every else (bool(args.trace),):
        for name in names:
            run = Run(name, args.seed, seconds, trace)
            if not run.plain or (trace and not run.traced):
                print(f"{name}: no repetition completed", file=sys.stderr)
                ok = False
                continue
            result = run.report()
            env = env or run.env
            ok = ok and result["correct"]
    if env:
        print("env " + json.dumps(env))
    if every:
        return 0 if ok else 1
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
