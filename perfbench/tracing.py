"""Per-layer tracing of fockdamp from outside the package.

``Tracer.install`` replaces module attributes in the current process with
wrappers that record one span per call (name, parent, start, end) and a few
counts at the same boundaries; ``uninstall`` puts the originals back. The
integrator is wrapped once per calling engine (``fockdamp.dynamics.integrate``,
``fockdamp.pauli.integrate``, ``fockdamp.twomode.integrate``), and so are the
callables each engine hands to it. Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its children;
calls never overlap because every workload has a single caller.

A target that no longer exists is skipped, and every metric that depends on
it is reported as absent rather than as zero.
"""

from __future__ import annotations

import importlib
import pathlib
from collections import Counter, defaultdict
from time import perf_counter

ENGINES = ("dynamics", "pauli", "twomode")

# (module, attribute, span name); a span's layer is the first part of its name
SPANS = [
    ("fockdamp.cli", "main", "cli.main"),
    ("fockdamp.cli", "run_scenario", "cli.run_scenario"),
    ("fockdamp.cli", "write_outputs", "cli.write_outputs"),
    ("fockdamp.cli", "load_raw", "scenario.load_raw"),
    ("fockdamp.cli", "parse_scenario", "scenario.parse_scenario"),
    ("fockdamp.cli", "sweep_grid", "scenario.sweep_grid"),
    ("fockdamp.cli", "preset_scenarios", "scenario.preset_scenarios"),
    ("fockdamp.cli", "coherent_density", "fock.coherent_density"),
    ("fockdamp.cli", "coherent_state", "fock.coherent_state"),
    ("fockdamp.twomode", "coherent_density", "fock.coherent_density"),
    ("fockdamp.svg", "render_timeseries", "svg.render_timeseries"),
    ("fockdamp.dynamics", "evolve", "dynamics.evolve"),
    ("fockdamp.pauli", "evolve_populations", "pauli.evolve_populations"),
    ("fockdamp.twomode", "elimination_comparison", "twomode.elimination_comparison"),
    ("fockdamp.twomode", "two_mode_evolve", "twomode.two_mode_evolve"),
    ("fockdamp.analysis", "find_sigma_min", "analysis.find_sigma_min"),
    ("fockdamp.dynamics", "observables", "analysis.observables"),
    ("fockdamp.pauli", "observables", "analysis.observables"),
    ("fockdamp.twomode", "observables", "analysis.observables"),
    ("fockdamp.trajectories", "observables", "analysis.observables"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
]
# keyword callables of integrate; each traced as a span of the calling engine
CALLBACKS = ("post_accept", "on_sample", "h_cap_fn")

# adaptive DP5(4) with FSAL: two rhs calls to start, then six per attempted step
_STARTUP_RHS, _RHS_PER_ATTEMPT = 2, 6

SELF_LAYERS = (
    "cli", "scenario", "svg", "fock", "dynamics", "pauli", "integrate",
    "trajectories", "twomode", "analysis", "linalg", "io",
)


def _layer(name: str) -> str:
    parts = name.split(".")
    # integrate.<engine>.<callable> runs the engine's own code
    return parts[1] if parts[0] == "integrate" and len(parts) == 3 else parts[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.counts = Counter()
        self.installed: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self.stack

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        return traced

    def _patch(self, module: str | object, attr: str, make, name: str):
        owner = importlib.import_module(module) if isinstance(module, str) else module
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))
        self.installed.add(name)

    def _traced_integrate(self, engine: str, integrate):
        key = f"integrate.{engine}"
        counts, wrap = self.counts, self.wrap

        def engine_integrate(rhs, y0, t_grid, cfg, *args, **kwargs):
            traced_rhs = wrap(f"{key}.rhs", rhs)

            def counted_rhs(y):
                counts[f"{key}.rhs_elems"] += y.size
                counts[f"{key}.rhs_bytes"] += 2 * y.nbytes  # state read, derivative written
                return traced_rhs(y)

            for cb in CALLBACKS:
                if kwargs.get(cb) is not None:
                    kwargs[cb] = wrap(f"{key}.{cb}", kwargs[cb])
            if len(t_grid) > 1 and cfg.fixed_step is None:
                counts[f"{key}.startup_rhs"] += _STARTUP_RHS
            counts[f"{key}.state_dim"] = max(counts[f"{key}.state_dim"], int(y0.size))
            return integrate(counted_rhs, y0, t_grid, cfg, *args, **kwargs)

        return wrap(key, engine_integrate)

    def install(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self.wrap(name, fn), name)
        for engine in ENGINES:
            self._patch(
                f"fockdamp.{engine}", "integrate",
                lambda fn, e=engine: self._traced_integrate(e, fn), f"integrate.{engine}",
            )
        counts = self.counts

        def count_draws(uniform):
            def counted(key, draw):
                counts["draws"] += 1
                return uniform(key, draw)

            return counted

        def count_trajectories(run_ensemble):
            def counted(psi0, channels, kerr, cfg):
                counts["n_traj"] += cfg.n_traj
                return run_ensemble(psi0, channels, kerr, cfg)

            return self.wrap("trajectories.run_ensemble", counted)

        def count_bytes(write_text):
            traced = self.wrap("io.write_text", write_text)

            def counted(path, *args, **kwargs):
                out = traced(path, *args, **kwargs)
                counts["bytes_written"] += path.stat().st_size
                return out

            return counted

        self._patch("fockdamp._rng", "uniform", count_draws, "rng.uniform")
        self._patch("fockdamp.trajectories", "run_ensemble", count_trajectories, "trajectories.run_ensemble")
        self._patch(pathlib.Path, "write_text", count_bytes, "io.write_text")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reporting ---------------------------------------------------------

    def dump(self, path):
        """Write every span as CSV: id, parent, name, start and end in seconds."""
        t0 = self.starts[0] if self.starts else 0.0
        lines = ["id,parent,name,start_s,end_s"]
        for i, (name, parent, start, end) in enumerate(zip(self.names, self.parents, self.starts, self.ends)):
            lines.append(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def metrics(self) -> tuple[dict, list[str]]:
        """Per-layer metrics as {name: (value, unit)} and the names found absent."""
        names, parents, starts = self.names, self.parents, self.starts
        dur = [e - s for s, e in zip(starts, self.ends)]
        child = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        total, calls, layer_self = defaultdict(float), Counter(), defaultdict(float)
        for i, name in enumerate(names):
            total[name] += dur[i]
            calls[name] += 1
            layer_self[_layer(name)] += dur[i] - child[i]

        def under(i, *targets):
            p = parents[i]
            while p >= 0 and names[p] not in targets:
                p = parents[p]
            return names[p] if p >= 0 else None

        eig_calls, eig_s, build_s, seen = Counter(), defaultdict(float), defaultdict(float), set()
        write_outside = 0.0
        for i, name in enumerate(names):
            if name == "linalg.eigvalsh":
                owner = under(i, "dynamics.evolve", "twomode.two_mode_evolve")
                eig_calls[owner] += 1
                eig_s[owner] += dur[i]
            elif name.startswith("integrate.") and name.count(".") == 1:
                p = parents[i]
                if p >= 0 and p not in seen:  # entry to the first integrate call
                    seen.add(p)
                    build_s[names[p]] += starts[i] - starts[p]
            elif name == "io.write_text" and under(i, "cli.write_outputs") is None:
                write_outside += dur[i]

        c = self.counts
        out: dict = {}
        absent: list[str] = []

        def put(metric, unit, needs, value):
            if all(n in self.installed for n in needs):
                out[metric] = (value(), unit)
            else:
                absent.append(metric)

        put("cli.write_s", "s", ("cli.write_outputs", "io.write_text"),
            lambda: total["cli.write_outputs"] + write_outside)
        put("cli.bytes_written", "B", ("io.write_text",), lambda: c["bytes_written"])
        put("svg.render_s", "s", ("svg.render_timeseries",), lambda: total["svg.render_timeseries"])
        dyn = ("dynamics.evolve", "integrate.dynamics")
        put("dynamics.build_s", "s", dyn, lambda: build_s["dynamics.evolve"])
        put("dynamics.evolve_s", "s", dyn[:1], lambda: total["dynamics.evolve"])
        eig = ("dynamics.evolve", "linalg.eigvalsh")
        put("dynamics.eig_calls", "count", eig, lambda: eig_calls["dynamics.evolve"])
        put("dynamics.eig_s", "s", eig, lambda: eig_s["dynamics.evolve"])
        put("pauli.evolve_s", "s", ("pauli.evolve_populations",), lambda: total["pauli.evolve_populations"])
        put("pauli.runs", "count", ("pauli.evolve_populations",), lambda: calls["pauli.evolve_populations"])
        for e in ENGINES:
            k = f"integrate.{e}"
            rhs = calls[f"{k}.rhs"]
            accepted = calls[f"{k}.post_accept"]
            attempts = (rhs - c[f"{k}.startup_rhs"]) // _RHS_PER_ATTEMPT
            put(f"{k}.rhs_evals", "count", (k,), lambda: rhs)
            put(f"{k}.steps_accepted", "count", (k,), lambda: accepted)
            put(f"{k}.steps_rejected", "count", (k,), lambda: attempts - accepted)
            put(f"{k}.accept_ratio", "ratio", (k,), lambda: accepted / attempts if attempts else 0.0)
            put(f"{k}.rhs_s", "s", (k,), lambda: total[f"{k}.rhs"])
            put(f"{k}.sample_s", "s", (k,), lambda: total[f"{k}.on_sample"])
            put(f"{k}.stepper_s", "s", (k,), lambda: total[k] - sum(
                total[f"{k}.{cb}"] for cb in ("rhs",) + CALLBACKS))
            put(f"{k}.rhs_elems", "count", (k,), lambda: c[f"{k}.rhs_elems"])
            put(f"{k}.rhs_bytes_computed", "B", (k,), lambda: c[f"{k}.rhs_bytes"])
        put("analysis.observables_calls", "count", ("analysis.observables",), lambda: calls["analysis.observables"])
        put("analysis.observables_s", "s", ("analysis.observables",), lambda: total["analysis.observables"])
        put("analysis.sigma_min_s", "s", ("analysis.find_sigma_min",), lambda: total["analysis.find_sigma_min"])
        ens = total["trajectories.run_ensemble"]
        put("trajectories.ensemble_s", "s", ("trajectories.run_ensemble",), lambda: ens)
        draws = ("trajectories.run_ensemble", "rng.uniform")
        put("trajectories.draws", "count", draws, lambda: c["draws"])
        put("trajectories.draws_per_traj", "draws/traj", draws,
            lambda: c["draws"] / c["n_traj"] if c["n_traj"] else 0.0)
        put("trajectories.traj_per_s", "1/s", ("trajectories.run_ensemble",),
            lambda: c["n_traj"] / ens if ens else 0.0)
        two = ("twomode.two_mode_evolve",)
        put("twomode.evolve_s", "s", two, lambda: total["twomode.two_mode_evolve"])
        put("twomode.build_s", "s", two + ("integrate.twomode",), lambda: build_s["twomode.two_mode_evolve"])
        put("twomode.state_dim", "count", ("integrate.twomode",), lambda: c["integrate.twomode.state_dim"])
        put("twomode.eig_s", "s", two + ("linalg.eigvalsh",), lambda: eig_s["twomode.two_mode_evolve"])
        for layer in SELF_LAYERS:
            put(f"self.{layer}_s", "s", (), lambda layer=layer: layer_self[layer])
        return out, absent
