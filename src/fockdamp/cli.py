"""Command-line interface: scenario runs, presets, sweeps, validation.

Exit codes: 0 success, 2 validation error, 3 numerical failure (trace drift,
positivity or an overflowing generator), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__, analysis, dynamics, pauli, svg, trajectories, twomode
from .errors import (
    CutoffTooSmall,
    FockdampError,
    NoInteriorMinimum,
    ParseError,
    PositivityViolated,
    TraceDriftExceeded,
    ValidationError,
)
from .fock import coherent_density, coherent_state
from .scenario import (
    RATE_KEYS,
    Scenario,
    load_raw,
    parse_scenario,
    preset_scenarios,
    sweep_grid,
    validate_dict,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@dataclass
class RunResult:
    scenario: Scenario
    series: analysis.TimeSeries
    extras: dict


def _initial_populations(scn: Scenario) -> np.ndarray:
    return coherent_state(scn.alpha, scn.cutoff).populations()


def run_scenario(scn: Scenario) -> RunResult:
    """Dispatch to the selected engine and collect its time series."""
    extras = {}
    if scn.engine == "dense":
        rho0 = coherent_density(scn.alpha, scn.cutoff)
        series, final = dynamics.evolve(rho0, scn.channels(), scn.kerr(), scn.t_grid)
        extras["final_state"] = final
    elif scn.engine == "pauli":
        series = pauli.evolve_populations(_initial_populations(scn), scn.channels(), scn.t_grid)
    elif scn.engine == "trajectories":
        psi0 = coherent_state(scn.alpha, scn.cutoff)
        result = trajectories.run_ensemble(psi0, scn.channels(), scn.kerr(), scn.trajectory_config())
        series = result.series
        extras["stderr"] = result.stderr
    elif scn.engine == "twomode":
        rho_a = coherent_density(scn.alpha, scn.cutoff, tail_tol=twomode.TAIL_TOL)
        result = twomode.two_mode_evolve(rho_a, scn.twomode_params, scn.t_grid)
        series = result.series
        extras["b_occupation"] = result.b_occupation
    else:  # pragma: no cover - schema forbids
        raise ValidationError([f"unknown engine {scn.engine!r}"])
    return RunResult(scn, series, extras)


# rows per % operation: a block keeps the formatting in C, while formatting a
# whole long series at once raised the peak memory of `preset fig2` by 5 %
_CSV_BLOCK_ROWS = 128


def _write_csv(path: Path, header, *columns) -> None:
    """Write ``header`` and the float columns (1-D arrays, or 2-D with one row
    per line) to ``path`` as CSV, one block of rows at a time.

    Each value is written as ``format(x, ".17g")`` would write it, since
    "%.17g" formats a float the same way, about 128 rows per % operation;
    no more of the text than one block is held. The trailing columns that
    are +0.0 in every row of a block, such as the levels a run has drained,
    are written as the literal 0 that "%.17g" gives them; -0.0, nan and inf
    are always formatted.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    cols = [c if c.ndim == 2 else c[:, None] for c in cols]
    width = sum(c.shape[1] for c in cols)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
            block = np.hstack([c[lo : lo + _CSV_BLOCK_ROWS] for c in cols])
            held = np.flatnonzero(((block != 0.0) | np.signbit(block)).any(axis=0))
            formatted = int(held[-1]) + 1 if held.size else 0  # the rest are +0.0
            row = ",".join(["%.17g"] * formatted + ["0"] * (width - formatted)) + "\n"
            f.write(row * len(block) % tuple(block[:, :formatted].ravel().tolist()))


def _write_json(path: Path, series: analysis.TimeSeries) -> None:
    """Write ``series`` to ``path`` as ``json.dumps(obj, sort_keys=True,
    indent=1) + "\\n"`` writes the dict of its lists, one block of rows at a
    time: "%r" writes a finite float as json does."""
    with path.open("w") as f:
        for sep, key in zip("{,,,,,", ("g2", "mean_n", "populations", "std_n", "t", "trace_err")):
            col = getattr(series, key)
            row = "  %r" if col.ndim == 1 else "  [\n%s\n  ]" % ",\n".join(["   %r"] * col.shape[1])
            f.write(f'{sep}\n "{key}": [\n')
            for lo in range(0, len(col), _CSV_BLOCK_ROWS):
                block = col[lo : lo + _CSV_BLOCK_ROWS]
                text = ",\n".join([row] * len(block)) % tuple(block.ravel().tolist())
                f.write(",\n" + text if lo else text)
            f.write("\n ]")
        f.write("\n}\n")


def write_outputs(result: RunResult, out_dir: Path, fmt: str, want_svg: bool) -> Path:
    scn = result.scenario
    run_dir = out_dir / scn.name
    run_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if fmt == "csv" else "json"
    series_path = run_dir / f"timeseries.{ext}"
    s = result.series
    if fmt == "csv":
        # pinned column order: t, mean_n, std_n, g2, trace_err, p0..pN
        header = ["t", "mean_n", "std_n", "g2", "trace_err"] + [f"p{n}" for n in range(s.n_levels)]
        _write_csv(series_path, header, s.t, s.mean_n, s.std_n, s.g2, s.trace_err, s.populations)
    else:
        _write_json(series_path, s)
    outputs = {"timeseries": series_path.name}
    if "stderr" in result.extras:
        se = result.extras["stderr"]
        header = ["t"] + [f"se_p{n}" for n in range(se.shape[1])]
        _write_csv(run_dir / "stderr.csv", header, s.t, se)
        outputs["stderr"] = "stderr.csv"
    if "b_occupation" in result.extras:
        occ = result.extras["b_occupation"]
        _write_csv(run_dir / "mode_b.csv", ["t", "mode_b_occupation"], s.t, occ)
        outputs["mode_b"] = "mode_b.csv"
    if want_svg:
        (run_dir / "plot.svg").write_text(svg.render_timeseries(result.series, scn.name))
        outputs["plot"] = "plot.svg"
    manifest = {
        "tool": {"name": "fockdamp", "version": __version__},
        "scenario": scn.to_dict(),
        "outputs": outputs,
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return run_dir


def finite(text: str) -> float:
    """The type of the float flags: argparse's ``float`` takes nan and inf."""
    if not np.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _apply_overrides(raw: dict, args) -> dict:
    raw = dict(raw)
    if args.engine:
        raw["engine"] = args.engine
    if args.seed is not None:
        if raw.get("engine") != "trajectories":
            raise ValidationError(["--seed needs engine 'trajectories'"])
        raw["trajectory"] = dict(raw.get("trajectory", {}), master_seed=args.seed)
    if args.fixed_step is not None:
        raw["integrator"] = dict(raw.get("integrator", {}), fixed_step=args.fixed_step)
    return raw


def _scenario_from_flags(args) -> dict:
    obj = {
        "name": args.name or "adhoc",
        "alpha": args.alpha,
        "t_max": args.tmax,
        "samples": args.samples,
        "engine": args.engine or "dense",
    }
    if args.nmax is not None:
        obj["nmax"] = args.nmax
    if args.u1:
        obj["u1"] = args.u1
    rates = {}
    if args.rates:
        short = {"e": "gamma_e", "q": "gamma_q", "s": "gamma_s", "t": "gamma_t"}
        for part in args.rates.split(","):
            if "=" not in part:
                raise ValidationError([f"bad --rates entry {part!r}; expected key=value"])
            key, _, val = part.partition("=")
            key = key.strip()
            key = short.get(key, key)
            if key not in RATE_KEYS:
                raise ValidationError([f"unknown rate {key!r}; use e, q, s, t"])
            try:
                rates[key] = finite(val)
            except ValueError:
                raise ValidationError([f"bad rate value {val!r} for {key} in --rates"])
    obj["rates"] = rates
    if (args.engine or "dense") == "trajectories":
        obj["trajectory"] = {
            "n_traj": args.n_traj,
            "master_seed": args.seed if args.seed is not None else 0,
        }
    return obj


def _print_summary(result: RunResult):
    s = result.series
    print(
        f"{result.scenario.name}: engine={result.scenario.engine} "
        f"mean_n(t_end)={s.mean_n[-1]:.6g} std_n={s.std_n[-1]:.6g} "
        f"p0={s.populations[-1, 0]:.6g} p1={s.populations[-1, 1]:.6g} "
        f"max_trace_err={s.trace_err.max():.3e}"
    )


def _cmd_run(args) -> int:
    if args.scenario:
        raw = load_raw(args.scenario)
    else:
        if args.alpha is None or args.tmax is None:
            raise ValidationError(["run without a scenario file requires --alpha and --tmax"])
        raw = _scenario_from_flags(args)
    raw = _apply_overrides(raw, args)
    scn = parse_scenario(raw)
    result = run_scenario(scn)
    run_dir = write_outputs(result, Path(args.out), args.format, args.svg)
    _print_summary(result)
    print(f"wrote {run_dir}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    for raw in preset_scenarios(args.which):
        result = None  # let the run before go: only the last one, add_mixed, is read below
        raw = _apply_overrides(raw, args)
        scn = parse_scenario(raw)
        result = run_scenario(scn)
        write_outputs(result, Path(args.out), args.format, args.svg)
        _print_summary(result)
    if args.which == "fig2":
        mixed = result
        try:
            sm = analysis.find_sigma_min(mixed.series, (0.5, 20.0))
            report = {
                "scenario": mixed.scenario.name,
                "t_star": sm.t_star,
                "sigma_star": sm.sigma_star,
                "p1_at_t_star": float(sm.populations[1]),
            }
            print(
                f"sigma minimum of {mixed.scenario.name}: t*={sm.t_star:.4f} "
                f"sigma*={sm.sigma_star:.5f} p1={sm.populations[1]:.5f}"
            )
        except NoInteriorMinimum as exc:
            report = {"scenario": mixed.scenario.name, "t_star": None, "detail": str(exc)}
            print(f"no interior sigma minimum: {exc}")
        path = Path(args.out) / f"{args.which}_sigma_min.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _sigma_row(series: analysis.TimeSeries) -> dict:
    """Stopping-time summary of one run: interior minimum if it exists,
    otherwise, flagged, the first sample within the noise floor of the
    grid minimum (on a flat tail the argmin itself is rounding noise)."""
    try:
        sm = analysis.find_sigma_min(series, (float(series.t[0]), float(series.t[-1])))
        return {
            "t_star": sm.t_star,
            "sigma_star": sm.sigma_star,
            "p1_star": float(sm.populations[1]),
            "interior": 1,
        }
    except NoInteriorMinimum:
        sig = series.std_n
        i = int(np.argmax(sig <= sig.min() + analysis.noise_floor(sig)))
        return {
            "t_star": float(series.t[i]),
            "sigma_star": float(series.std_n[i]),
            "p1_star": float(series.populations[i, 1]),
            "interior": 0,
        }


def _sweep_rows(scenarios: list[Scenario]) -> list[dict]:
    """The ``_sigma_row`` of every grid point, in grid order.

    Consecutive Pauli points of one cutoff go to the Pauli engine together,
    which runs them in groups; sweep points share the time grid, and the
    points of one alpha share one start. Each series is reduced to its row
    as it arrives. Other engines run point by point.
    """
    rows = []
    for (engine, _), group in groupby(scenarios, lambda s: (s.engine, s.nmax)):
        group = list(group)
        if engine == "pauli":
            starts = {}
            for scn in group:
                if scn.alpha not in starts:
                    starts[scn.alpha] = pauli.PopulationVector(_initial_populations(scn))
            series = pauli.evolve_population_batch(
                [starts[scn.alpha] for scn in group],
                [scn.channels() for scn in group],
                group[0].t_grid,
            )
        else:
            series = (run_scenario(scn).series for scn in group)
        rows += map(_sigma_row, series)  # holds no series while the next is made
    return rows


def _cmd_sweep(args) -> int:
    fields, values, scenarios = sweep_grid(_apply_overrides(load_raw(args.scenario), args))
    rows = _sweep_rows(scenarios)

    out_path = Path(args.out)
    out_path.mkdir(parents=True, exist_ok=True)
    header = fields + ["t_star", "sigma_star", "p1_star", "interior"]
    # the interior flag is 0 or 1, which "%.17g" writes as str() would
    table = [
        list(point) + [row["t_star"], row["sigma_star"], row["p1_star"], row["interior"]]
        for point, row in zip(values, rows)
    ]
    csv_path = out_path / "sweep.csv"
    _write_csv(csv_path, header, table)
    print(f"wrote {csv_path} ({len(rows)} rows)")

    # report-only monotonicity check: more linear loss should not help p1(t*)
    if "gamma_q" in fields:
        others = [f for f in fields if f != "gamma_q"]
        q = fields.index("gamma_q")
        groups = {}
        for point, row in zip(values, rows):
            groups.setdefault(point[:q] + point[q + 1 :], []).append((point[q], row["p1_star"]))
        for key, pairs in groups.items():
            pairs.sort()
            p1s = [p for _, p in pairs]
            if any(b > a + 1e-9 for a, b in zip(p1s, p1s[1:])):
                print(f"WARNING: p1(t*) not nonincreasing in gamma_q at {dict(zip(others, key))}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    raw = load_raw(args.scenario)
    violations = validate_dict(raw)
    if violations:
        raise ValidationError(violations)
    print(f"{args.scenario}: valid")
    return EXIT_OK


def _add_common(p):
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--svg", action="store_true", help="also write an SVG plot")
    p.add_argument("--engine", choices=("dense", "pauli", "trajectories", "twomode"))
    p.add_argument("--seed", type=int, help="override the trajectory master seed")
    p.add_argument("--fixed-step", type=finite, dest="fixed_step", metavar="DT",
                   help="accepted and recorded for manifest replay; propagation is "
                        "exact, so it changes no result")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fockdamp",
        description="Simulate multi-photon damping cascades in a truncated Fock space.",
    )
    ap.add_argument("--version", action="version", version=f"fockdamp {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario (file or flags)")
    run_p.add_argument("scenario", nargs="?", help="scenario or manifest JSON file")
    run_p.add_argument("--alpha", type=finite, help="coherent amplitude (flag mode)")
    run_p.add_argument("--rates", help="comma list like e=1,q=0.05 (flag mode)")
    run_p.add_argument("--tmax", type=finite, help="final time (flag mode)")
    run_p.add_argument("--samples", type=int, default=201)
    run_p.add_argument("--nmax", type=int)
    run_p.add_argument("--u1", type=finite, default=0.0, help="Kerr strength")
    run_p.add_argument("--n-traj", type=int, default=10000, dest="n_traj")
    run_p.add_argument("--name", help="run name (flag mode)")
    _add_common(run_p)
    run_p.set_defaults(func=_cmd_run)

    preset_p = sub.add_parser("preset", help="run a bundled demonstration preset")
    preset_p.add_argument("which", choices=("fig1", "fig2"))
    _add_common(preset_p)
    preset_p.set_defaults(func=_cmd_preset)

    sweep_p = sub.add_parser("sweep", help="run a scenario file with sweep ranges")
    sweep_p.add_argument("scenario")
    _add_common(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("scenario")
    val_p.set_defaults(func=_cmd_validate)
    return ap


def _glue_negative_numbers(argv):
    """Each ``--flag -1e-3`` as ``--flag=-1e-3``: after a space, argparse takes
    a negative number in exponent form (``-1e-3``, ``-1e+0``) for an option."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        takes = flag.startswith("--") and len(flag) > 2 and "=" not in flag
        if takes and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_glue_negative_numbers(argv))
    try:
        return args.func(args)
    except (ValidationError, ParseError, CutoffTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TraceDriftExceeded, PositivityViolated) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FockdampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
