"""One repetition of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR [--trace]

Times the import of ``fockdamp`` and ``fockdamp.cli`` and the generation of
the inputs (set-up), then the workload body (wall time) while a
``SpeedProbe`` samples the speed of the machine, reads the peak resident
memory, and runs the correctness checks outside the timed region. With
``--trace`` the body runs under the tracer instead of the probe and the
per-layer metrics are added. Prints one JSON object as its last line.
``run.py`` starts it with ``src`` of the checkout first on ``PYTHONPATH``.
"""

import argparse
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _blas() -> list:
    """Configuration and thread count of every OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    found = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for threads in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, threads):
                get_threads = getattr(handle, threads)
                get_config = getattr(handle, threads.replace("get_num_threads", "get_config"))
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                found.append({"library": Path(lib).name, "config": get_config().decode(),
                              "threads": get_threads()})
                break
    return found


def _environment() -> dict:
    """Versions, BLAS and thread settings the numbers were measured with."""
    import importlib.util
    import os
    import platform

    import fockdamp
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "backend": fockdamp.active_backend(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


class SpeedProbe:
    """Samples the speed of the machine while the body runs.

    The host is shared, and its speed drifts by up to a factor of two over
    seconds to minutes, so raw wall times of the same code differ from run to
    run by more than any change worth measuring. Every ``INTERVAL_S`` a timer
    signal runs a fixed kernel of NumPy operations, the same kinds of work as
    fockdamp's, between two bytecodes of the body and records its time.
    ``slowdown`` is the mean kernel time over ``REF_KERNEL_S``; dividing the
    body's own time (the probe's time taken out) by it gives the body's time
    at the reference speed. Over the same seconds of the same host this
    ratio holds to a few per cent while the raw time moves by tens.
    """

    INTERVAL_S = 0.025
    REF_KERNEL_S = 1e-3  # the kernel on an idle core of the 2-core VM it was sized on
    MIN_SAMPLES = 20

    def __init__(self, long_vectors: bool = False):
        import numpy as np

        self._np = np
        # small dense operands, as in the dense and Pauli engines at nmax = 40;
        # with long_vectors half the kernel works on long complex vectors
        # instead, as the two-mode pair does with its 4225 unknowns
        self._a = np.linspace(0.0, 1.0, 41 * 41).reshape(41, 41) / 41.0
        self._x = np.linspace(1.0, 2.0, 41)
        self._u = np.exp(1j * np.linspace(0.0, 1.0, 4225))
        self._v = np.linspace(1.0, 2.0, 4225) * (1.0 + 0.5j)
        self._passes = (125, 20) if long_vectors else (250, 0)
        self.times: list[float] = []

    def kernel(self):
        np, a, x, u, v = self._np, self._a, self._x, self._u, self._v
        small, long = self._passes
        t = perf_counter()
        y = x
        for _ in range(small):
            y = np.maximum(a @ y * 0.01 + x * 0.5 - y * 0.25, 0.0)
        z = v
        for _ in range(long):
            z = z * u * 0.5 + v * 0.25 - z.conj() * 0.125
        self.times.append(perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.kernel())
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.spent = sum(self.times)
        # a body that stays in C code for long gives few samples; top up right after it
        while len(self.times) < self.MIN_SAMPLES:
            self.kernel()

    @property
    def slowdown(self) -> float:
        return sum(self.times) / len(self.times) / self.REF_KERNEL_S


def run_checks(workload, inputs: dict, work: Path, status: dict) -> list:
    """[op, reason or None] for every operation; a check that raises fails its op."""
    ops = []
    for op, call, check in workload.checks(inputs, work):
        reason = status.get(call)
        if reason is None:
            try:
                check()
            except Exception as exc:
                reason = f"check failed: {exc}"
        ops.append([op, reason])
    return ops


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    t0 = perf_counter()
    import fockdamp
    import fockdamp.cli  # noqa: F401
    import_s = perf_counter() - t0
    if Path(fockdamp.__file__).resolve().parent != ROOT / "src" / "fockdamp":
        print(f"fockdamp imported from {fockdamp.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    t1 = perf_counter()
    inputs = workload.make_inputs(args.seed, work)
    inputs_s = perf_counter() - t1

    # a traced body runs without the probe, whose kernel would land in the spans
    tracer = tracing.Tracer() if args.trace else None
    probe = None if args.trace else SpeedProbe(workload.probe_long_vectors)
    with tracer or probe:
        t2 = perf_counter()
        status = workload.run(inputs, work)
        wall_s = perf_counter() - t2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if probe:
        wall_s -= probe.spent

    result = {
        "setup_s": import_s + inputs_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "slowdown": probe.slowdown if probe else None,
        "ops": run_checks(workload, inputs, work, status),
        "env": _environment(),
    }
    if tracer:
        metrics, absent = tracer.metrics()
        metrics["analysis.interior_rows"] = (workloads.interior_rows(args.workload, inputs), "count")
        result["per_layer"] = metrics
        result["absent"] = absent
        tracer.dump(work / "spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
