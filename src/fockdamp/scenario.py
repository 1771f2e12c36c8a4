"""Scenario files: schema, validation, resolution and the bundled presets.

Scenarios are JSON objects validated against the published JSON Schema
below; unknown fields are errors, so typos fail loudly instead of being
ignored. ``_schema_errors`` checks the schema's keywords and words each
violation as the jsonschema package, the tests' oracle, does. ``load_raw``
also accepts a run manifest (the file a run writes next to its results), so
any finished run can be replayed from its manifest alone.

One walk over an object's points (``_walk``) checks each point once and
resolves its cutoff, searching alpha's coherent tail only where nmax is not
given. ``validate_dict`` returns the walk's violations; ``parse_scenario``
and ``sweep_grid`` build their Scenarios from its resolved points.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

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
from .integrate import _BLOCK
from .trajectories import _BATCH, TrajectoryConfig
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

# the draft's types: a boolean is no number, and 50.0 is an integer
_TYPES = {
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (
        isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and v.is_integer()
    ),
    "string": lambda v: isinstance(v, str),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
}


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each violation of ``schema`` by ``value``.

    Knows the keywords SCENARIO_SCHEMA uses. As the draft does, it checks
    each on its own, in the schema's order, so a bound applies to any number
    whatever the type; oneOf's branches differ in type, so only "valid under
    none" is reported. Messages are worded as jsonschema 4.26's.
    """
    number, obj, array = _TYPES["number"](value), isinstance(value, dict), isinstance(value, list)
    for key, arg in schema.items():
        if key == "type" and not _TYPES[arg](value):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif key == "minimum" and number and value < arg:
            yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "maximum" and number and value > arg:
            yield path, f"{value!r} is greater than the maximum of {arg!r}"
        elif key == "exclusiveMinimum" and number and value <= arg:
            yield path, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key == "pattern" and isinstance(value, str) and not re.search(arg, value):
            yield path, f"{value!r} does not match {arg!r}"
        elif key == "required" and obj:
            yield from ((path, f"{k!r} is a required property") for k in arg if k not in value)
        elif key == "properties" and obj:
            for k, sub in arg.items():
                if k in value:
                    yield from _schema_errors(value[k], sub, path + (k,))
        elif key == "additionalProperties" and obj:
            extra = sorted(set(value) - set(schema.get("properties", ())), key=str)
            if extra:
                listed = f"{', '.join(map(repr, extra))} {'was' if len(extra) == 1 else 'were'}"
                yield path, f"Additional properties are not allowed ({listed} unexpected)"
        elif key == "minProperties" and obj and len(value) < arg:
            few = "should be non-empty" if arg == 1 else "does not have enough properties"
            yield path, f"{value!r} {few}"
        elif key == "items" and array:
            for i, item in enumerate(value):
                yield from _schema_errors(item, arg, path + (i,))
        elif key == "minItems" and array and len(value) < arg:
            yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems" and array and len(value) > arg:
            yield path, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif key == "oneOf" and all(any(_schema_errors(value, sub)) for sub in arg):
            yield path, f"{value!r} is not valid under any of the given schemas"


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1])
    return complex(value)


# the most bytes one array of a run may take; each engine's cutoff cap is the
# largest nmax at which its largest array fits. expm and the sampler make a
# few temporaries of that size, so a run at the cap stays within a few GB
ARRAY_LIMIT = 2**28


def _largest_array(obj: dict, nmax: int) -> tuple[str, int]:
    """What the engine's largest array at cutoff ``nmax`` holds, and its bytes.

    dense: the propagator stack of the paired stripes, complex at worst.
    pauli: the generator of one point. A sweep runs its points in groups
    (``pauli.group_points``), and a group of more than one point holds at
    most 8 MiB, so only a point that runs alone can reach the limit.
    trajectories: the level populations of a batch of up to 512 trajectories.
    twomode: the reachable sector's generator ``twomode._sector_generator``
    builds, or the whole-pair start np.kron(rho_A, |0><0|_B) it is handed,
    (nmax + 1)^2 (nmax_b + 1)^2 complex values, whichever is larger.
    Each engine also keeps a sampled record, one row of floats per sample:
    the populations (dense, pauli, trajectories), or the diagonal of the
    reachable two-mode sector. The dense and two-mode positivity gate
    factors, or decomposes whole, a block of up to 32 samples of width x
    width matrices, complex on the dense engine.
    """
    n1, samples, engine = nmax + 1, int(obj["samples"]), obj["engine"]
    gate = 0  # bytes per value of the positivity gate's block, 0 where there is none
    if engine == "dense":
        largest, width, gate = ("stripe stack", 16 * (n1 // 2 + 1) * n1 * n1), n1, 16
    elif engine == "pauli":
        largest, width = ("generator", 8 * n1 * n1), n1
    elif engine == "trajectories":
        batch = min(int(obj["trajectory"]["n_traj"]), _BATCH)
        largest, width = ("batch populations", 8 * batch * n1), n1
    else:
        # the reachable states have n_A + n_B = N <= nmax, min(N + 1, nmax_b + 1) of each N;
        # the sector packs s (s + 1) / 2 pairs of the s states of each N
        nb1 = int(obj["twomode"].get("nmax_b", TwoModeParams.nmax_b)) + 1
        lo, wide = min(n1, nb1), max(n1 - nb1, 0)
        pairs = lo * (lo + 1) * (lo + 2) // 6 + wide * nb1 * (nb1 + 1) // 2
        largest = max(
            (f"sector generator at nmax_b={nb1 - 1}", 8 * pairs * pairs),
            (f"whole-pair start at nmax_b={nb1 - 1}", 16 * (n1 * nb1) ** 2),
            key=lambda a: a[1],
        )
        width, gate = lo * (lo + 1) // 2 + wide * nb1, 8
    return max(
        largest,
        ("sampled record", 8 * samples * width),
        ("positivity block", gate * min(samples, _BLOCK) * width * width),
        key=lambda a: a[1],
    )


def _cutoff_cap(obj: dict) -> int:
    """The largest nmax whose ``_largest_array`` fits in ARRAY_LIMIT (0 if none)."""
    lo, hi = 0, MAX_CUTOFF + 1  # the array grows with nmax
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _largest_array(obj, mid)[1] <= ARRAY_LIMIT else (lo, mid)
    return lo


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


def _walk(obj: dict) -> tuple[list[str], list[str], list[tuple], list[tuple[complex, dict, int]]]:
    """Check and resolve each point of a raw scenario object, once.

    Returns the violations, the sorted swept field names, each point's swept
    values in that order, and each point's (alpha, rates, nmax), nmax given
    or resolved from alpha; the points hold only without violations. An
    object without 'sweep' is one point; points run lexicographically in the
    field names, each field in the order its values were listed. The schema
    sees the whole object once; alpha, the rates and the cutoff are checked
    at each point, their violations prefixed with its swept values.
    """
    violations = []
    errors = sorted(_schema_errors(obj, SCENARIO_SCHEMA), key=lambda e: list(map(str, e[0])))
    for path, message in errors:
        where = "/".join(str(p) for p in path) or "(top level)"
        violations.append(f"{where}: {message}")
    if violations:
        return violations, [], [], []
    engine = obj["engine"]
    for name, block in (("trajectories", "trajectory"), ("twomode", "twomode")):
        if engine == name and block not in obj:
            violations.append(f"engine '{name}' requires the '{block}' block")
        if engine != name and block in obj:
            violations.append(f"'{block}' block is only valid with engine '{name}'")
    nmax = obj.get("nmax")
    # allowed coherent tail beyond nmax: loose for the small two-mode basis
    tail_tol = TAIL_TOL if engine == "twomode" else 1e-12
    sized = not violations  # the engine's own block, which sizes its arrays, is there
    # integrate needs the grid strictly ascending; a subnormal step, as of
    # t_max = 5e-324 over 3 samples, repeats a time
    if not np.all(np.diff(np.linspace(0.0, obj["t_max"], int(obj["samples"]))) > 0):
        violations.append(f"t_max: {obj['t_max']!r} gives no strictly ascending grid of "
                          f"{int(obj['samples'])} samples")
    sweep = obj.get("sweep", {})
    fields = sorted(sweep)
    values = list(product(*(sweep[f] for f in fields)))
    points = []
    for point in values:
        swept = dict(zip(fields, point))
        alpha = _as_complex(swept.pop("alpha", obj["alpha"]))
        rates = {k: float(swept.get(k, obj.get("rates", {}).get(k, 0.0))) for k in RATE_KEYS}
        errors = []
        if engine in ("dense", "pauli", "trajectories") and not any(v > 0 for v in rates.values()):
            errors.append("at least one rate must be > 0 for the selected engine")
        if engine == "twomode" and any(v > 0 for v in rates.values()):
            errors.append("the twomode engine derives its rate from (u4, gamma_b); rates must be 0")
        # hypot and a product, not abs and ** 2, which raise OverflowError for a huge alpha
        r, cutoff = math.hypot(alpha.real, alpha.imag), MAX_CUTOFF if nmax is None else int(nmax)
        tail, size = poisson_tail(r * r, cutoff), None if nmax is None else cutoff
        if tail >= tail_tol and (nmax is None or math.isinf(r * r)):
            errors.append(f"|alpha|={r:g} needs a cutoff above nmax={cutoff}")
        elif tail >= tail_tol:
            errors.append(f"coherent tail beyond nmax={nmax} is {tail:.3e} (allowed {tail_tol:.0e})")
        elif sized and size is None:
            size = min_cutoff_for_coherent(alpha, tail_tol).nmax
        if sized and size is not None:
            what, nbytes = _largest_array(obj, size)
            if nbytes > ARRAY_LIMIT:
                named = f"nmax={size}" if nmax is not None else f"|alpha|={r:g} resolves nmax={size}, which"
                gib, limit = nbytes / 2**30, ARRAY_LIMIT / 2**30
                # three digits, or as many more as it takes to read above the limit
                d = next(d for d in range(3, 18) if f"{gib:.{d}g}" != f"{limit:.{d}g}")
                errors.append(
                    f"{named} is above the {engine} engine's cap of nmax="
                    f"{_cutoff_cap(obj)}: its {what} would take "
                    f"{gib:.{d}g} GiB (limit {limit:.{d}g} GiB)"
                )
        if nmax is not None:
            # a resolved cutoff is at least 3, so only a given one can be too small
            for key, rate in rates.items():
                k = _CHANNELS[key](rate).annihilation_power
                if rate > 0 and k > size:
                    errors.append(f"{key} > 0 needs nmax >= {k}: a^{k} annihilates every level")
        where = ", ".join(f"{f}={v:g}" for f, v in zip(fields, point))
        violations += [f"{where}: {e}" if where else e for e in errors]
        points.append((alpha, rates, size))
    return violations, fields, values, points


def validate_dict(obj: dict) -> list[str]:
    """All schema and semantic violations of a raw scenario object."""
    return _walk(obj)[0]


def _scenarios(obj: dict, swept: bool) -> tuple[list[str], list[tuple], list[Scenario]]:
    """Check a raw object once and build each point's Scenario, which keeps
    the base name; ``swept`` says whether the object must have a 'sweep'
    block or must not. Raises ValidationError with every violation."""
    violations, fields, values, points = _walk(obj)
    if swept and "sweep" not in obj:
        violations.append("sweep command requires a 'sweep' block")
    if not swept and "sweep" in obj:
        violations.append("this scenario declares 'sweep' ranges; use the sweep command")
    if violations:
        raise ValidationError(violations)
    raw = obj.get("twomode")  # present exactly when the engine is twomode
    tm = None if raw is None else TwoModeParams(
        u4=_as_complex(raw["u4"]),
        gamma_b=float(raw["gamma_b"]),
        gamma_a_formula=raw.get("gamma_a_formula"),
        nmax_b=int(raw.get("nmax_b", TwoModeParams.nmax_b)),
    )
    return fields, values, [
        Scenario(
            name=obj.get("name", "scenario"),
            alpha=alpha,
            nmax=nmax,
            rates=rates,
            u1=float(obj.get("u1", 0.0)),
            t_max=float(obj["t_max"]),
            samples=int(obj["samples"]),
            engine=obj["engine"],
            integrator=dict(obj.get("integrator", {})),
            trajectory=dict(obj.get("trajectory", {})),
            twomode_params=tm,
        )
        for alpha, rates, nmax in points
    ]


def parse_scenario(obj: dict) -> Scenario:
    """Resolve a validated raw object into a Scenario (fills every default)."""
    return _scenarios(obj, swept=False)[2][0]


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
    """Validate a sweep file once and resolve its grid: the sorted swept
    field names, each point's swept values as a tuple in that order, and
    each point's Scenario; see ``_walk`` for the order of the points."""
    return _scenarios(obj, swept=True)


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
