"""Experiment orchestration: schema-validated configs, CSV results, JSON
manifests, and the acceptance selftest.

Configs are JSON documents; every emitted number is traceable to the
(config hash, seed) pair recorded in the manifest, and Monte Carlo outputs
are byte-identical under re-runs regardless of the worker count.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from . import __version__
from .action import CoefficientTable, Coefficients
from .fock import NumberBasisSpace
from .oneboson import OneBosonSpace
from .oracle import (
    GridSpec,
    build_pauli_fierz,
    build_schrodinger,
    diamagnetic_check,
    resolvent_convergence_study,
)
from .paths import Domain
from .semigroup import (
    MCConfig,
    StateSpec,
    estimate_kernel_element,
    estimate_penalized_element,
    estimate_Tt_element,
)

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "CONFIG_SCHEMA",
    "load_config",
    "run",
    "compare",
    "rows_to_csv",
]

CSV_COLUMNS = ["experiment", "x", "y", "t", "re", "im", "stderr", "n", "seed",
               "config_hash"]

def _block(properties: dict, required=(), **extra) -> dict:
    """A config object that accepts only the listed keys."""
    schema = {"type": "object", "additionalProperties": False,
              "properties": properties, **extra}
    if required:
        schema["required"] = list(required)
    return schema


def _when(key: str, values, then: dict, otherwise: Optional[dict] = None) -> dict:
    """if/then/else on the value of one key of the enclosing object."""
    rule = {"if": {"required": [key], "properties": {key: {"enum": list(values)}}},
            "then": then}
    if otherwise is not None:
        rule["else"] = otherwise
    return rule


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NUMBERS = {"type": "array", "items": {"type": "number"}}
# complex amplitudes, one [re, im] pair per mode
_PAIRS = {"type": "array", "items": {"type": "array", "items": {"type": "number"},
                                     "minItems": 2, "maxItems": 2}}

# gating is either the exit indicator, with or without the crossing
# correction, or the soft penalty; a key of one form is an error in the other
_GATING = {
    "oneOf": [
        _block({"mode": {"const": "indicator"}, "correction": {"type": "boolean"}}),
        _block({"mode": {"const": "penalty"}, "kappa": _POSITIVE, "n_cap": _POSITIVE},
               required=("mode", "kappa", "n_cap")),
    ],
}

_COEFFICIENTS = _block(
    {
        "name": {"enum": ["zero", "constant_V", "constant_A", "sine_A",
                          "gaussian_bump_G", "table"]},
        "params": {"type": "object"},
        "table_path": {"type": "string"},
    },
    required=("name",),
    allOf=[
        _when("name", ["constant_V", "constant_A"],
              {"properties": {"params": _block({"level": {"type": "number"}})}}),
        _when("name", ["gaussian_bump_G"],
              {"properties": {"params": _block({"strength": {"type": "number"}})}}),
        _when("name", ["zero", "sine_A", "table"],
              {"properties": {"params": _block({})}}),
        _when("name", ["table"], {"required": ["table_path"]},
              {"not": {"required": ["table_path"]}}),
    ],
)

_STATE = _block(
    {
        "profile": {"enum": ["gaussian", "indicator"]},
        "params": {"type": "object"},
        "field": _PAIRS,
    },
    required=("profile",),
    allOf=[
        _when("profile", ["gaussian"], {"properties": {"params": _block(
            {"center": {"type": "number"}, "width": _POSITIVE})}}),
        _when("profile", ["indicator"], {"properties": {"params": _block(
            {"lo": {"type": "number"}, "hi": {"type": "number"}})}}),
    ],
)

# the blocks each experiment reads, and the point keys it reads
_EXPERIMENT_NEEDS = {
    "semigroup": (("domain", "coefficients", "state", "mc", "points"), ("x", "t")),
    "kernel": (("domain", "coefficients", "mc", "points"), ("x", "y", "t")),
    "penalty-sweep": (("domain", "coefficients", "mc", "points"), ("x", "y", "t")),
    "diamagnetic": (("domain", "coefficients", "oracle"), ()),
    "mollify-converge": (("domain", "coefficients", "oracle"), ()),
    "selftest": ((), ()),
}


def _experiment_rule(name: str) -> dict:
    blocks, point_keys = _EXPERIMENT_NEEDS[name]
    then = {"required": list(blocks), "properties": {}}
    if point_keys:
        then["properties"]["points"] = {"required": list(point_keys)}
    if name == "mollify-converge":
        then["properties"]["coefficients"] = {"required": ["table_path"]}
    return _when("experiment", [name], then)


CONFIG_SCHEMA = _block(
    {
        "experiment": {"enum": list(_EXPERIMENT_NEEDS)},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "domain": _block(
            {
                "kind": {"enum": ["all_space", "interval", "box", "ball",
                                  "half_space"]},
                "nu": {"type": "integer", "minimum": 1},
                "params": {"type": "array"},
            },
            required=("kind",),
        ),
        "modes": _block({"omega": {"type": "array", "items": _POSITIVE}}),
        "coefficients": _COEFFICIENTS,
        "state": _STATE,
        "mc": _block(
            {
                "samples": {"type": "integer", "minimum": 2},
                "steps": {"type": "integer", "minimum": 2},
                "gating": _GATING,
                "antithetic": {"type": "boolean"},
            },
            required=("samples", "steps"),
        ),
        "points": _block({
            "x": _NUMBERS,
            "y": _NUMBERS,
            "t": _POSITIVE,
            "u": _PAIRS,
            "g": _PAIRS,
        }),
        "oracle": _block(
            {
                "grid": _block(
                    {"lo": {"type": "number"}, "hi": {"type": "number"},
                     "points": {"type": "integer", "minimum": 2}},
                    required=("lo", "hi", "points"),
                ),
                "cutoff": {"type": "integer", "minimum": 0},
                "E": _NUMBERS,
                "trials": {"type": "integer", "minimum": 1},
                "n_list": {"type": "array"},
            },
            required=("grid",),
        ),
        "penalty": _block({
            "kappa": _POSITIVE,
            "n_cap_list": {"type": "array", "items": _POSITIVE},
        }),
        "selftest": _block({
            "scale": _POSITIVE,
            "criteria": {"type": "array", "items": {"type": "string"}},
            "workers": {"type": "integer", "minimum": 0},
        }),
    },
    required=("experiment", "seed"),
    allOf=[_experiment_rule(name) for name in _EXPERIMENT_NEEDS],
)

# built once: ``jsonschema.validate`` checks the schema itself against the
# metaschema on every call, which costs more than validating a config; the
# tests check the schema once
_CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


@dataclass
class ExperimentConfig:
    raw: dict

    @property
    def experiment(self) -> str:
        return self.raw["experiment"]

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    version: str
    experiment: str
    timing_s: float
    outputs: list = field(default_factory=list)
    criteria: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "code_version": self.version,
            "experiment": self.experiment,
            "timing_s": self.timing_s,
            "outputs": self.outputs,
            "criteria": self.criteria,
        }


def load_config(path) -> ExperimentConfig:
    with open(path) as handle:
        raw = json.load(handle)
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(raw))
    if error is not None:
        raise error
    return ExperimentConfig(raw)


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def rows_to_csv(rows, columns=CSV_COLUMNS) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col, "")) for col in columns))
    return "\n".join(lines) + "\n"


def _build_domain(spec: dict) -> Domain:
    kind = spec["kind"]
    params = spec.get("params", [])
    if kind == "all_space":
        return Domain.all_space(spec.get("nu", 1))
    if kind == "interval":
        return Domain.interval(*params)
    if kind == "box":
        return Domain.box(*params)
    if kind == "ball":
        return Domain.ball(*params)
    if kind == "half_space":
        return Domain.half_space(*params)
    raise ValueError(f"unknown domain kind {kind!r}")


def _named_profile(name: str, params: dict):
    if name == "gaussian":
        center = float(params.get("center", 0.0))
        width = float(params.get("width", 1.0))

        def profile(x, _c=center, _w=width):
            xs = np.asarray(x)[..., 0]
            return np.exp(-((xs - _c) ** 2) / (2 * _w**2))

        return profile
    if name == "indicator":
        lo = float(params.get("lo", 0.0))
        hi = float(params.get("hi", 1.0))

        def profile(x, _lo=lo, _hi=hi):
            xs = np.asarray(x)[..., 0]
            return ((xs > _lo) & (xs < _hi)).astype(float)

        return profile
    raise ValueError(f"unknown profile {name!r}")


def _build_coefficients(spec: dict, space=None) -> Coefficients:
    name = spec["name"]
    params = spec.get("params", {})
    if name == "zero":
        return Coefficients(space=space)
    if name == "constant_V":
        level = float(params.get("level", 1.0))

        def v_const(x, _c=level):
            return np.full(np.asarray(x).shape[:-1], _c)

        return Coefficients(V=v_const, space=space)
    if name == "constant_A":
        level = float(params.get("level", 1.0))

        def a_const(x, _c=level):
            return np.full(np.asarray(x).shape, _c)

        return Coefficients(A=a_const, space=space)
    if name == "sine_A":
        def a_sine(x):
            return np.sin(np.asarray(x))

        def diva_cos(x):
            return np.cos(np.asarray(x)[..., 0])

        return Coefficients(A=a_sine, divA=diva_cos, space=space)
    if name == "gaussian_bump_G":
        strength = float(params.get("strength", 0.5))
        if space is None:
            raise ValueError("gaussian_bump_G needs mode data")

        def g_bump(x, _s=strength):
            xs = np.asarray(x)
            base = _s * np.exp(-xs[..., 0] ** 2)
            return np.repeat(base[..., None, None],
                             xs.shape[-1], axis=-2).repeat(
                                 space.mode_count, axis=-1)

        return Coefficients(G=g_bump, space=space)
    if name == "table":
        table = CoefficientTable.load(spec["table_path"])
        return table.to_coefficients(space)
    raise ValueError(f"unknown coefficient family {name!r}")


def _build_state(spec: dict, space: OneBosonSpace) -> StateSpec:
    profile = _named_profile(spec["profile"], spec.get("params", {}))
    amp = np.zeros(space.mode_count, dtype=complex)
    for m, pair in enumerate(spec.get("field", [])):
        amp[m] = complex(pair[0], pair[1])
    return StateSpec(profile, space.vector(amp), name=spec["profile"])


def _mode_space(config: dict) -> OneBosonSpace:
    omega = config.get("modes", {}).get("omega", [1.0])
    return OneBosonSpace(np.array(omega, dtype=float))


def _vector_from(config_points: dict, key: str, space: OneBosonSpace):
    pairs = config_points.get(key)
    if not pairs:
        return space.zero_vector()
    amp = np.array([complex(p[0], p[1]) for p in pairs])
    return space.vector(amp)


def _mc_config(config: dict, seed: int) -> MCConfig:
    mc = config["mc"]
    gating_spec = mc.get("gating", {"mode": "indicator", "correction": True})
    mode = gating_spec.get("mode", "indicator")
    if mode == "indicator":
        gating = ("indicator", {"correction": bool(
            gating_spec.get("correction", True))})
    else:
        gating = ("penalty", {"kappa": float(gating_spec["kappa"]),
                              "n_cap": float(gating_spec["n_cap"])})
    return MCConfig(
        samples=mc["samples"], steps=mc["steps"], seed=seed, gating=gating,
        antithetic=bool(mc.get("antithetic", False)),
    )


def _run_semigroup(config: dict) -> list:
    space = _mode_space(config)
    domain = _build_domain(config["domain"])
    coeffs = _build_coefficients(config["coefficients"], space)
    state = _build_state(config["state"], space)
    points = config["points"]
    cfg = _mc_config(config, config["seed"])
    u = _vector_from(points, "u", space)
    t = points["t"]
    rows = []
    for x in points["x"]:
        est = estimate_Tt_element([x], u, state, t, coeffs, domain, cfg)
        rows.append({
            "experiment": "semigroup", "x": x, "y": "", "t": t,
            "re": est.value.real, "im": est.value.imag, "stderr": est.stderr,
            "n": est.n_effective, "seed": cfg.seed,
            "config_hash": est.manifest["config_hash"],
        })
    return rows


def _run_kernel(config: dict) -> list:
    space = _mode_space(config)
    domain = _build_domain(config["domain"])
    coeffs = _build_coefficients(config["coefficients"], space)
    points = config["points"]
    cfg = _mc_config(config, config["seed"])
    u = _vector_from(points, "u", space)
    g = _vector_from(points, "g", space)
    t = points["t"]
    rows = []
    for x in points["x"]:
        for y in points["y"]:
            est = estimate_kernel_element([x], [y], u, g, t, coeffs, domain, cfg)
            rows.append({
                "experiment": "kernel", "x": x, "y": y, "t": t,
                "re": est.value.real, "im": est.value.imag,
                "stderr": est.stderr, "n": est.n_effective, "seed": cfg.seed,
                "config_hash": est.manifest["config_hash"],
            })
    return rows


def _run_penalty_sweep(config: dict) -> list:
    space = _mode_space(config)
    domain = _build_domain(config["domain"])
    coeffs = _build_coefficients(config["coefficients"], space)
    points = config["points"]
    cfg = _mc_config(config, config["seed"])
    u = _vector_from(points, "u", space)
    g = _vector_from(points, "g", space)
    t = points["t"]
    kappa = float(config.get("penalty", {}).get("kappa", 1.0))
    caps = config.get("penalty", {}).get("n_cap_list", [1e2, 1e4, 1e6])
    x, y = points["x"][0], points["y"][0]
    rows = []
    hard = estimate_kernel_element([x], [y], u, g, t, coeffs, domain, cfg)
    rows.append({
        "experiment": "penalty_hard", "x": x, "y": y, "t": t,
        "re": hard.value.real, "im": hard.value.imag, "stderr": hard.stderr,
        "n": hard.n_effective, "seed": cfg.seed,
        "config_hash": hard.manifest["config_hash"],
    })
    for cap in caps:
        est = estimate_penalized_element([x], [y], u, g, t, coeffs, domain,
                                         cfg, kappa=kappa, n_cap=float(cap))
        rows.append({
            "experiment": f"penalty_cap_{cap:g}", "x": x, "y": y, "t": t,
            "re": est.value.real, "im": est.value.imag, "stderr": est.stderr,
            "n": est.n_effective, "seed": cfg.seed,
            "config_hash": est.manifest["config_hash"],
        })
    return rows


def _oracle_grid(config: dict) -> GridSpec:
    spec = config["oracle"]["grid"]
    return GridSpec.line(spec["lo"], spec["hi"], spec["points"])


def _run_diamagnetic(config: dict) -> list:
    space = _mode_space(config)
    domain = _build_domain(config["domain"])
    coeffs = _build_coefficients(config["coefficients"], space)
    grid = _oracle_grid(config)
    cutoff = config["oracle"].get("cutoff", 4)
    nspace = NumberBasisSpace(space, (cutoff,) * space.mode_count)
    pf = build_pauli_fierz(grid, domain, coeffs, nspace)
    sch = build_schrodinger(grid, domain, V=coeffs.V)
    rng = np.random.default_rng(config["seed"])
    trials = config["oracle"].get("trials", 20)
    rows = []
    for E in config["oracle"].get("E", [1.0]):
        worst = -np.inf
        ok_all = True
        for _ in range(trials):
            phi = rng.uniform(0.0, 1.0, (sch.dim, nspace.dim))
            ok, viol = diamagnetic_check(pf, sch, float(E), phi)
            worst = max(worst, viol)
            ok_all = ok_all and ok
        rows.append({
            "experiment": "diamagnetic", "x": "", "y": "", "t": E,
            "re": worst, "im": 0.0, "stderr": 0.0, "n": trials,
            "seed": config["seed"], "config_hash": "",
        })
        if not ok_all:
            rows[-1]["experiment"] = "diamagnetic_VIOLATED"
    return rows


def _run_mollify(config: dict) -> list:
    space = _mode_space(config)
    domain = _build_domain(config["domain"])
    grid = _oracle_grid(config)
    table = CoefficientTable.load(config["coefficients"]["table_path"])
    cutoff = config["oracle"].get("cutoff", 2)
    nspace = NumberBasisSpace(space, (cutoff,) * space.mode_count)
    rng = np.random.default_rng(config["seed"])
    sites = grid.sites()
    included = sites[domain.contains(sites)]
    phi = rng.normal(size=included.shape[0] * nspace.dim)
    n_list = config["oracle"].get("n_list", [2, 4, 8, 16, 32])
    e_val = float(config["oracle"].get("E", [1.0])[0])
    reports = resolvent_convergence_study(
        grid, domain, table, nspace, n_list, e_val, phi
    )
    rows = []
    for rep in reports:
        rows.append({
            "experiment": "mollify", "x": rep["n"], "y": "", "t": e_val,
            "re": rep["resolvent_diff"], "im": 0.0, "stderr": 0.0,
            "n": rep["bump_points"], "seed": config["seed"], "config_hash": "",
        })
    return rows


def run(config: ExperimentConfig, output_dir=None) -> RunManifest:
    """Execute one experiment; write results.csv and manifest.json."""
    start = time.perf_counter()
    raw = config.raw
    out_dir = Path(output_dir or raw.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    criteria = {}
    if config.experiment == "selftest":
        from .acceptance import run_all

        spec = raw.get("selftest", {})
        results = run_all(
            scale=spec.get("scale", 1.0),
            seed=raw["seed"],
            workers=spec.get("workers", 0),
            only=spec.get("criteria"),
        )
        rows = [row for res in results for row in res.rows]
        criteria = {res.cid: bool(res.passed) for res in results}
        summary = "\n".join(
            f"{res.cid},{res.passed},{res.runtime:.3f}" for res in results
        )
        (out_dir / "selftest_summary.csv").write_text(
            "criterion,passed,runtime_s\n" + summary + "\n"
        )
    elif config.experiment == "semigroup":
        rows = _run_semigroup(raw)
    elif config.experiment == "kernel":
        rows = _run_kernel(raw)
    elif config.experiment == "penalty-sweep":
        rows = _run_penalty_sweep(raw)
    elif config.experiment == "diamagnetic":
        rows = _run_diamagnetic(raw)
    elif config.experiment == "mollify-converge":
        rows = _run_mollify(raw)
    else:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    csv_path = out_dir / "results.csv"
    csv_path.write_text(rows_to_csv(rows))
    manifest = RunManifest(
        config_hash=config.config_hash(),
        seed=config.seed,
        version=__version__,
        experiment=config.experiment,
        timing_s=time.perf_counter() - start,
        outputs=[str(csv_path)],
        criteria=criteria,
    )
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return manifest


# -- result comparison --------------------------------------------------------


def _read_csv(path) -> list:
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(dict(zip(header, parts)))
    return rows


def compare(path_a, path_b, tolspec: dict) -> dict:
    """Row-by-row comparison of two results files.

    tolspec: {"mode": "stat", "z": 3.0} uses the joint standard errors;
    {"mode": "abs", "tol": x} compares absolutely.  A "per_experiment" map
    overrides the criterion for matching experiment ids, so one call can mix
    absolute and statistical verdicts.  Rows are matched by
    (experiment, x, y, t), comparing x, y and t as numbers, so "0.9" and
    "0.90000000000000002" match; a row present in only one file is reported
    as "missing" (only in a) or "extra" (only in b) and fails the comparison.
    """
    rows_a = _read_csv(path_a)
    rows_b = _read_csv(path_b)
    key = lambda r: (r["experiment"],) + tuple(
        float(r[c]) if r[c] else "" for c in ("x", "y", "t"))
    index_b = {key(r): r for r in rows_b}
    overrides = tolspec.get("per_experiment", {})
    verdicts = []
    all_ok = True
    for row in rows_a:
        other = index_b.get(key(row))
        if other is None:
            verdicts.append({"key": key(row), "status": "missing"})
            all_ok = False
            continue
        spec = overrides.get(row["experiment"], tolspec)
        va = complex(float(row["re"]), float(row["im"]))
        vb = complex(float(other["re"]), float(other["im"]))
        gap = abs(va - vb)
        if spec.get("mode", "stat") == "stat":
            se = float(np.hypot(float(row["stderr"] or 0.0),
                                float(other["stderr"] or 0.0)))
            z = gap / se if se > 0 else (0.0 if gap == 0 else np.inf)
            ok = z <= spec.get("z", 3.0)
            verdicts.append({"key": key(row), "status": "ok" if ok else "fail",
                             "z": z})
        else:
            ok = gap <= spec.get("tol", 1e-12)
            verdicts.append({"key": key(row), "status": "ok" if ok else "fail",
                             "gap": gap})
        all_ok = all_ok and ok
    keys_a = {key(r) for r in rows_a}
    for row in rows_b:
        if key(row) not in keys_a:
            verdicts.append({"key": key(row), "status": "extra"})
            all_ok = False
    return {"passed": all_ok, "rows": verdicts}
