"""Scenario files: schema, validation, resolution and the bundled presets.

Scenarios are JSON objects validated against the published JSON Schema
below; unknown fields are errors, so typos fail loudly instead of being
ignored. ``load_scenario`` also accepts a run manifest (the file a run
writes next to its results), so any finished run can be replayed from its
manifest alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
from .fock import FockCutoff, min_cutoff_for_coherent, poisson_tail
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
        "name": {"type": "string", "pattern": "^[A-Za-z0-9_.-]+$"},
        "alpha": _number_or_pair,
        "nmax": {"type": "integer", "minimum": 1},
        "rates": {
            "type": "object",
            "additionalProperties": False,
            "properties": {k: _nonnegative for k in RATE_KEYS},
        },
        "u1": {"type": "number"},
        "t_max": _positive,
        "samples": {"type": "integer", "minimum": 2},
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
                "master_seed": {"type": "integer", "minimum": 0},
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
                k: {"type": "array", "minItems": 1, "items": {"type": "number"}}
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
    trajectory_n: int | None = None
    trajectory_seed: int | None = None
    trajectory_dt_max: float | None = None
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
        return TrajectoryConfig(
            n_traj=self.trajectory_n,
            master_seed=self.trajectory_seed,
            t_grid=self.t_grid,
            dt_max=self.trajectory_dt_max,
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
        if self.engine == "trajectories":
            traj = {"n_traj": self.trajectory_n, "master_seed": self.trajectory_seed}
            if self.trajectory_dt_max is not None:
                traj["dt_max"] = self.trajectory_dt_max
            out["trajectory"] = traj
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


def _semantic_violations(obj: dict) -> list[str]:
    errors = []
    engine = obj.get("engine")
    rates = {k: float(obj.get("rates", {}).get(k, 0.0)) for k in RATE_KEYS}
    if engine in ("dense", "pauli", "trajectories") and not any(v > 0 for v in rates.values()):
        errors.append("at least one rate must be > 0 for the selected engine")
    if engine == "twomode" and any(v > 0 for v in rates.values()):
        errors.append("the twomode engine derives its rate from (u4, gamma_b); rates must be 0")
    if engine == "trajectories" and "trajectory" not in obj:
        errors.append("engine 'trajectories' requires the 'trajectory' block")
    if engine != "trajectories" and "trajectory" in obj:
        errors.append("'trajectory' block is only valid with engine 'trajectories'")
    if engine == "twomode" and "twomode" not in obj:
        errors.append("engine 'twomode' requires the 'twomode' block")
    if engine != "twomode" and "twomode" in obj:
        errors.append("'twomode' block is only valid with engine 'twomode'")
    alpha = _as_complex(obj.get("alpha", 0.0))
    nmax = obj.get("nmax")
    if nmax is not None:
        tail_tol = _tail_tol(engine)
        tail = poisson_tail(abs(alpha) ** 2, int(nmax))
        if tail >= tail_tol:
            errors.append(
                f"coherent tail beyond nmax={nmax} is {tail:.3e} (allowed {tail_tol:.0e})"
            )
        # a resolved cutoff is at least 3, so only a given one can be too small
        for key, rate in rates.items():
            k = _CHANNELS[key](rate).annihilation_power
            if rate > 0 and k > int(nmax):
                errors.append(f"{key} > 0 needs nmax >= {k}: a^{k} annihilates every level")
    return errors


def validate_dict(obj: dict, *, allow_sweep: bool) -> list[str]:
    """All schema and semantic violations of a raw scenario object."""
    violations = []
    for err in sorted(_validator.iter_errors(obj), key=lambda e: list(map(str, e.path))):
        where = "/".join(str(p) for p in err.path) or "(top level)"
        violations.append(f"{where}: {err.message}")
    if violations:
        return violations
    if not allow_sweep and "sweep" in obj:
        violations.append("this scenario declares 'sweep' ranges; use the sweep command")
    violations.extend(_semantic_violations(obj))
    return violations


def parse_scenario(obj: dict) -> Scenario:
    """Resolve a validated raw object into a Scenario (fills every default)."""
    violations = validate_dict(obj, allow_sweep=False)
    if violations:
        raise ValidationError(violations)
    alpha = _as_complex(obj["alpha"])
    engine = obj["engine"]
    tail_tol = _tail_tol(engine)
    nmax = obj.get("nmax")
    if nmax is None:
        nmax = min_cutoff_for_coherent(alpha, tail_tol=tail_tol).nmax
    rates = {k: float(obj.get("rates", {}).get(k, 0.0)) for k in RATE_KEYS}
    traj = obj.get("trajectory", {})
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
        trajectory_n=traj.get("n_traj"),
        trajectory_seed=traj.get("master_seed"),
        trajectory_dt_max=traj.get("dt_max"),
        twomode_params=tm,
    )


def load_raw(path) -> dict:
    """Read a scenario or manifest file; manifests are unwrapped."""
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    if "scenario" in obj and "tool" in obj:  # run manifest
        obj = obj["scenario"]
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: manifest 'scenario' must be an object")
    return obj


def sweep_grid(obj: dict) -> tuple[list[str], list[dict]]:
    """Expand the 'sweep' block into (sorted field names, resolved grid points).

    Ordering is lexicographic in the sorted swept field names, each field
    iterating in the order its values were listed.
    """
    violations = validate_dict(obj, allow_sweep=True)
    if violations:
        raise ValidationError(violations)
    if "sweep" not in obj:
        raise ValidationError(["sweep command requires a 'sweep' block"])
    sweep = obj["sweep"]
    fields = sorted(sweep.keys())
    points = [{}]
    for f in fields:
        points = [dict(p, **{f: v}) for p in points for v in sweep[f]]
    base = {k: v for k, v in obj.items() if k != "sweep"}
    resolved = []
    for p in points:
        obj = json.loads(json.dumps(base))
        for f, v in p.items():
            if f == "alpha":
                obj["alpha"] = v
            else:
                obj.setdefault("rates", {})[f] = v
        obj["name"] = base.get("name", "sweep") + "_" + "_".join(
            f"{f}-{p[f]:g}" for f in fields
        )
        resolved.append(obj)
    return fields, resolved


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
    out = []
    for name, rates in runs:
        obj = dict(_FIG_BASE)
        obj["name"] = f"{preset}_{name}"
        obj["rates"] = rates
        obj["samples"] = samples
        out.append(obj)
    return out
