"""Scenario files: schema, validation, resolution and the bundled presets.

Scenarios are JSON objects validated against the published JSON Schema
below; unknown fields are errors, so typos fail loudly instead of being
ignored. ``load_scenario`` also accepts a run manifest (the file a run
writes next to its results), so any finished run can be replayed from its
manifest alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from .channels import (
    JumpChannel,
    KerrTerm,
    linear_loss,
    nonlinear_loss,
    three_photon_loss,
    two_photon_loss,
)
from .errors import ParseError, ValidationError
from .fock import MAX_CUTOFF, FockCutoff, min_cutoff_for_coherent, poisson_tail
from .trajectories import TrajectoryConfig
from .twomode import TAIL_TOL, TwoModeParams

ENGINES = ("dense", "pauli", "trajectories", "twomode")
# each rate key and its channel, in the order of Scenario.channels
_CHANNELS = {
    "gamma_e": nonlinear_loss,
    "gamma_q": linear_loss,
    "gamma_s": two_photon_loss,
    "gamma_t": three_photon_loss,
}
RATE_KEYS = tuple(_CHANNELS)
SWEEPABLE = ("alpha",) + RATE_KEYS

_number_or_pair = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}
_positive = {"type": "number", "exclusiveMinimum": 0}
_nonnegative = {"type": "number", "minimum": 0}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "fockdamp scenario",
    "type": "object",
    "additionalProperties": False,
    "required": ["alpha", "t_max", "samples", "engine"],
    "properties": {
        # a run writes into --out/<name>, so "." and ".." are no names
        "name": {"type": "string", "pattern": "^(?!\\.\\.?$)[A-Za-z0-9_.-]+$"},
        "alpha": _number_or_pair,
        "nmax": {"type": "integer", "minimum": 1},
        "rates": {
            "type": "object",
            "additionalProperties": False,
            "properties": {k: _nonnegative for k in RATE_KEYS},
        },
        "u1": {"type": "number"},
        "t_max": _positive,
        # far above fig. 2's 2001; makes a grid too large to allocate a validation error
        "samples": {"type": "integer", "minimum": 2, "maximum": 10**6},
        "engine": {"enum": list(ENGINES)},
        # accepted and echoed so that older manifests replay; propagation is
        # exact, so none of these fields changes a result
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "abs_tol": _positive,
                "rel_tol": _positive,
                "max_step": _positive,
                "fixed_step": _positive,
            },
        },
        "trajectory": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_traj", "master_seed"],
            "properties": {
                "n_traj": {"type": "integer", "minimum": 1},
                "master_seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
                "dt_max": _positive,
            },
        },
        "twomode": {
            "type": "object",
            "additionalProperties": False,
            "required": ["u4", "gamma_b"],
            "properties": {
                "u4": _number_or_pair,
                "gamma_b": _positive,
                "gamma_a_formula": _positive,
                "nmax_b": {"type": "integer", "minimum": 1},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "properties": {
                k: {"type": "array", "minItems": 1,
                    "items": _nonnegative if k in RATE_KEYS else {"type": "number"}}
                for k in SWEEPABLE
            },
        },
    },
}

_validator = Draft202012Validator(SCENARIO_SCHEMA)


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1])
    return complex(value)


def _tail_tol(engine: str) -> float:
    """Allowed coherent tail beyond nmax: loose for the small two-mode basis."""
    return TAIL_TOL if engine == "twomode" else 1e-12


def _json_complex(z: complex):
    return float(z.real) if z.imag == 0.0 else [float(z.real), float(z.imag)]


@dataclass(frozen=True)
class Scenario:
    """A fully resolved experiment description."""

    name: str
    alpha: complex
    nmax: int
    rates: dict
    u1: float
    t_max: float
    samples: int
    engine: str
    integrator: dict  # echoed verbatim for manifest replay; propagation is exact
    trajectory: dict  # echoed verbatim, or {}; its dt_max is validated but sets nothing
    twomode_params: TwoModeParams | None = None

    @property
    def cutoff(self) -> FockCutoff:
        return FockCutoff(self.nmax)

    @property
    def tail_tol(self) -> float:
        return _tail_tol(self.engine)

    @property
    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.samples)

    def channels(self) -> list[JumpChannel]:
        return [_CHANNELS[k](self.rates[k]) for k in RATE_KEYS]

    def kerr(self) -> KerrTerm:
        return KerrTerm(self.u1)

    def trajectory_config(self) -> TrajectoryConfig:
        # the schema counts 50.0 as an integer; the engine needs an int
        return TrajectoryConfig(
            n_traj=int(self.trajectory["n_traj"]),
            master_seed=int(self.trajectory["master_seed"]),
            t_grid=self.t_grid,
        )

    def to_dict(self) -> dict:
        """JSON-ready resolved form; parses back to an identical Scenario."""
        out = {
            "name": self.name,
            "alpha": _json_complex(self.alpha),
            "nmax": self.nmax,
            "rates": {k: float(v) for k, v in self.rates.items()},
            "u1": self.u1,
            "t_max": self.t_max,
            "samples": self.samples,
            "engine": self.engine,
        }
        if self.integrator:
            out["integrator"] = dict(self.integrator)
        if self.trajectory:
            out["trajectory"] = dict(self.trajectory)
        if self.engine == "twomode":
            tm = self.twomode_params
            out["twomode"] = {
                "u4": _json_complex(tm.u4),
                "gamma_b": tm.gamma_b,
                "nmax_b": tm.nmax_b,
            }
            if tm.gamma_a_formula is not None:
                out["twomode"]["gamma_a_formula"] = tm.gamma_a_formula
        return out


def _points(obj: dict) -> tuple[list[str], list[tuple], list[tuple[complex, dict]]]:
    """Sorted swept field names, each point's swept values in that order, and
    each point's (alpha, rates); an object without 'sweep' is one point.
    Points run lexicographically in the field names, each field iterating
    in the order its values were listed."""
    sweep = obj.get("sweep", {})
    fields = sorted(sweep)
    values = list(product(*(sweep[f] for f in fields)))
    points = []
    for point in values:
        swept = dict(zip(fields, point))
        alpha = _as_complex(swept.pop("alpha", obj["alpha"]))
        rates = {**obj.get("rates", {}), **swept}
        points.append((alpha, {k: float(rates.get(k, 0.0)) for k in RATE_KEYS}))
    return fields, values, points


def validate_dict(obj: dict) -> list[str]:
    """All schema and semantic violations of a raw scenario object.

    The schema sees the whole object once; the checks of alpha and the rates
    run for each point of a 'sweep' block, prefixed with its swept values.
    """
    violations = []
    for err in sorted(_validator.iter_errors(obj), key=lambda e: list(map(str, e.path))):
        where = "/".join(str(p) for p in err.path) or "(top level)"
        violations.append(f"{where}: {err.message}")
    if violations:
        return violations
    engine = obj["engine"]
    if engine == "trajectories" and "trajectory" not in obj:
        violations.append("engine 'trajectories' requires the 'trajectory' block")
    if engine != "trajectories" and "trajectory" in obj:
        violations.append("'trajectory' block is only valid with engine 'trajectories'")
    if engine == "twomode" and "twomode" not in obj:
        violations.append("engine 'twomode' requires the 'twomode' block")
    if engine != "twomode" and "twomode" in obj:
        violations.append("'twomode' block is only valid with engine 'twomode'")
    nmax = obj.get("nmax")
    fields, values, points = _points(obj)
    for point, (alpha, rates) in zip(values, points):
        errors = []
        if engine in ("dense", "pauli", "trajectories") and not any(v > 0 for v in rates.values()):
            errors.append("at least one rate must be > 0 for the selected engine")
        if engine == "twomode" and any(v > 0 for v in rates.values()):
            errors.append("the twomode engine derives its rate from (u4, gamma_b); rates must be 0")
        # hypot and a product, not abs and ** 2, which raise OverflowError for a huge alpha
        r, cutoff = math.hypot(alpha.real, alpha.imag), MAX_CUTOFF if nmax is None else int(nmax)
        tail, tail_tol = poisson_tail(r * r, cutoff), _tail_tol(engine)
        if tail >= tail_tol and (nmax is None or math.isinf(r * r)):
            errors.append(f"|alpha|={r:g} needs a cutoff above nmax={cutoff}")
        elif tail >= tail_tol:
            errors.append(f"coherent tail beyond nmax={nmax} is {tail:.3e} (allowed {tail_tol:.0e})")
        if nmax is not None:
            # a resolved cutoff is at least 3, so only a given one can be too small
            for key, rate in rates.items():
                k = _CHANNELS[key](rate).annihilation_power
                if rate > 0 and k > int(nmax):
                    errors.append(f"{key} > 0 needs nmax >= {k}: a^{k} annihilates every level")
        where = ", ".join(f"{f}={v:g}" for f, v in zip(fields, point))
        violations += [f"{where}: {e}" if where else e for e in errors]
    return violations


def _resolve(obj: dict, alpha: complex, rates: dict) -> Scenario:
    """The Scenario of a checked raw object, with alpha and the rates given."""
    engine = obj["engine"]
    nmax = obj.get("nmax")
    if nmax is None:
        nmax = min_cutoff_for_coherent(alpha, tail_tol=_tail_tol(engine)).nmax
    tm = None
    if engine == "twomode":
        raw = obj["twomode"]
        tm = TwoModeParams(
            u4=_as_complex(raw["u4"]),
            gamma_b=float(raw["gamma_b"]),
            gamma_a_formula=raw.get("gamma_a_formula"),
            nmax_b=int(raw.get("nmax_b", 4)),
        )
    return Scenario(
        name=obj.get("name", "scenario"),
        alpha=alpha,
        nmax=int(nmax),
        rates=rates,
        u1=float(obj.get("u1", 0.0)),
        t_max=float(obj["t_max"]),
        samples=int(obj["samples"]),
        engine=engine,
        integrator=dict(obj.get("integrator", {})),
        trajectory=dict(obj.get("trajectory", {})),
        twomode_params=tm,
    )


def parse_scenario(obj: dict) -> Scenario:
    """Resolve a validated raw object into a Scenario (fills every default)."""
    violations = validate_dict(obj)
    if "sweep" in obj:
        violations.append("this scenario declares 'sweep' ranges; use the sweep command")
    if violations:
        raise ValidationError(violations)
    _, _, [(alpha, rates)] = _points(obj)
    return _resolve(obj, alpha, rates)


def load_raw(path) -> dict:
    """Read a scenario or manifest file; manifests are unwrapped, and NaN,
    Infinity and numbers too large for a float are parse errors. Integers
    stay exact, so a 64-bit master seed keeps every bit."""

    def finite(token):
        if not math.isfinite(value := float(token)):
            raise ParseError(f"{path}: {token} is not a finite number")
        return value

    def integer(token):
        finite(token)
        return int(token)

    text = Path(path).read_text()
    try:
        obj = json.loads(text, parse_constant=finite, parse_float=finite, parse_int=integer)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    if "scenario" in obj and "tool" in obj:  # run manifest
        obj = obj["scenario"]
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: manifest 'scenario' must be an object")
    return obj


def sweep_grid(obj: dict) -> tuple[list[str], list[tuple], list[Scenario]]:
    """Validate a sweep file once and resolve its grid.

    Returns the sorted swept field names, each point's swept values as a
    tuple in that order, and each point's Scenario, which keeps the base
    name; see ``_points`` for the order of the points.
    """
    violations = validate_dict(obj)
    if "sweep" not in obj:
        violations.append("sweep command requires a 'sweep' block")
    if violations:
        raise ValidationError(violations)
    fields, values, points = _points(obj)
    return fields, values, [_resolve(obj, alpha, rates) for alpha, rates in points]


_FIG_BASE = {
    "alpha": 3.0,
    "nmax": 40,
    "u1": 0.0,
    "t_max": 100.0,
    "engine": "dense",
}


def preset_scenarios(preset: str) -> list[dict]:
    """Raw scenario objects for the bundled demonstration presets.

    ``fig1``: the three single-channel processes from the same coherent
    state (alpha=3), showing that only the nonlinear absorber terminates at
    one photon. ``fig2``: the nonlinear absorber with small admixtures of
    linear and two-photon loss, where the standard-deviation minimum sets
    the best stopping time.
    """
    if preset == "fig1":
        runs = [
            ("pure_nonlinear", {"gamma_e": 1.0, "gamma_q": 0.0, "gamma_s": 0.0, "gamma_t": 0.0}),
            ("pure_two_photon", {"gamma_e": 0.0, "gamma_q": 0.0, "gamma_s": 1.0, "gamma_t": 0.0}),
            ("pure_three_photon", {"gamma_e": 0.0, "gamma_q": 0.0, "gamma_s": 0.0, "gamma_t": 1.0}),
        ]
        samples = 201
    elif preset == "fig2":
        runs = [
            ("add_linear", {"gamma_e": 1.0, "gamma_q": 0.05, "gamma_s": 0.0, "gamma_t": 0.0}),
            ("add_two_photon", {"gamma_e": 1.0, "gamma_q": 0.0, "gamma_s": 0.05, "gamma_t": 0.0}),
            ("add_mixed", {"gamma_e": 1.0, "gamma_q": 0.025, "gamma_s": 0.025, "gamma_t": 0.0}),
        ]
        samples = 2001
    else:
        raise ValidationError([f"unknown preset {preset!r}; available: fig1, fig2"])
    return [
        dict(_FIG_BASE, name=f"{preset}_{name}", rates=rates, samples=samples) for name, rates in runs
    ]
