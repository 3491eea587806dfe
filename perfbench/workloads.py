"""The four benchmark workloads and their correctness gates.

A workload makes its inputs from the benchmark seed in ``setup`` (config
files, trial vectors, independent references, a warm-up call), runs one
repetition of its work in ``run_once`` (the only timed part), reads what the
repetition produced in ``collect``, and checks it in ``check``.  A check is
one operation: an estimate, an oracle check or a criterion.  It fails when a
number is non-finite, misses its reference or does not pass.

Each gate is a plain function of (outputs, references) so the benchmark's
tests can hand it a perturbed reference and watch it fail.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fkpf import acceptance, harness, oracle
from fkpf.action import Coefficients
from fkpf.fock import NumberBasisSpace
from fkpf.oneboson import OneBosonSpace
from fkpf.paths import Domain
from fkpf.reference import interval_eigen_kernel

# an MC estimate passes when it lies within this many standard errors
Z_GATE = 4.0
# relative standard error that tts_s projects the run to
TTS_TARGET = 1e-3
WARMUP_SAMPLES = 256


@dataclass
class Check:
    """One gated operation and its verdict."""

    name: str
    ok: bool
    detail: str


@dataclass
class Outcome:
    """What one repetition produced, read after the timed section."""

    output: object
    paths: int = 0
    rel_stderr: float | None = None
    # MC output must repeat byte for byte on every repetition
    fingerprint: str = ""


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def gate_mc_rows(rows, references, z=Z_GATE):
    """Each results.csv row against its reference value, |z| <= Z_GATE.

    rows: dicts with x, y, re, im, stderr; references: one complex per row.
    """
    if len(rows) != len(references):
        return [Check("rows", False,
                      f"{len(rows)} rows for {len(references)} references")]
    checks = []
    for row, ref in zip(rows, references):
        value = complex(float(row["re"]), float(row["im"]))
        stderr = float(row["stderr"])
        name = f"estimate x={row['x']}" + (f" y={row['y']}" if row["y"] else "")
        if not _finite(value.real, value.imag, stderr) or stderr <= 0.0:
            checks.append(Check(name, False, f"non-finite {value} +- {stderr}"))
            continue
        zval = abs(value - ref) / stderr
        checks.append(Check(name, zval <= z,
                            f"{value.real:.6g} +- {stderr:.3g} vs {ref.real:.6g}"
                            f" (z={zval:.2f})"))
    return checks


def gate_repeat(rep, fingerprint, first):
    """MC output must repeat byte for byte: same seed, same results.csv."""
    return Check("results.csv repeats", fingerprint == first,
                 f"repetition {rep} against the first")


def _rel_stderr(rows):
    return max(float(r["stderr"]) / abs(complex(float(r["re"]), float(r["im"])))
               for r in rows)


class Workload:
    """Base: the inputs live under work_dir/<name>; scale shrinks the work
    for smoke tests and is 1 in a benchmark run.  probe names the host-speed
    probe that is closest to the workload's own work (see hostspeed.py)."""

    name = ""
    probe = "interp"

    def __init__(self, repo_root: Path, work_dir: Path, scale: float = 1.0):
        self.repo_root = repo_root
        self.work_dir = work_dir / self.name
        self.scale = scale


class _HarnessWorkload(Workload):
    """harness.run on a generated config; subclasses make the config and the
    reference value of each results.csv row."""

    def make_config(self, seed):
        raise NotImplementedError

    def references(self, config):
        raise NotImplementedError

    def setup(self, seed):
        config = self.make_config(seed)
        refs = self.references(config)
        if any(not _finite(r.real, r.imag) for r in refs):
            raise RuntimeError(f"non-finite reference {refs}")
        warm = json.loads(json.dumps(config))
        warm["mc"]["samples"] = WARMUP_SAMPLES
        _write_json(self.work_dir / "warmup.json", warm)
        harness.run(harness.load_config(self.work_dir / "warmup.json"),
                    output_dir=self.work_dir / "warmup")
        _write_json(self.work_dir / "config.json", config)
        return {"refs": refs, "paths": config["mc"]["samples"] * len(refs)}

    def run_once(self, state, tracer):
        with tracer.span("harness"):
            cfg = harness.load_config(self.work_dir / "config.json")
            harness.run(cfg, output_dir=self.work_dir / "out")

    def collect(self, state, produced):
        path = self.work_dir / "out" / "results.csv"
        rows = _read_rows(path)
        return Outcome(rows, paths=state["paths"], rel_stderr=_rel_stderr(rows),
                       fingerprint=path.read_text())

    def check(self, state, outcome):
        return gate_mc_rows(outcome.output, state["refs"])


class KernelInterval(_HarnessWorkload):
    """The shipped kernel config (bridges on (0, 1), 64 steps, crossing
    correction, no coefficients) at 8192 paths per point, checked
    against the sine eigen series."""

    name = "kernel-interval"
    samples = 8192

    def make_config(self, seed):
        config = json.loads(
            (self.repo_root / "configs" / "kernel_interval.json").read_text())
        config.pop("output_dir", None)
        config["seed"] = int(seed)
        config["mc"]["samples"] = max(2, int(round(self.samples * self.scale)))
        return config

    def references(self, config):
        a, b = config["domain"]["params"]
        t = config["points"]["t"]
        return [complex(interval_eigen_kernel(t, x, y, a, b))
                for x in config["points"]["x"] for y in config["points"]["y"]]


# the coupled toy model of criterion c06
TOY_BOX = (-4.0, 4.0)
TOY_SITES = 64
TOY_CUTOFF = 8
TOY_STRENGTH = 0.5
TOY_T = 0.5


def toy_site(x_target):
    """The oracle grid site nearest x_target."""
    sites = oracle.GridSpec.line(*TOY_BOX, TOY_SITES).axis_points(0)
    return float(sites[np.argmin(np.abs(sites - x_target))])


def toy_oracle_value(x_site):
    """Vacuum component at grid site x_site of e^{-tH} applied to
    exp(-x^2/2) x vacuum, from the exact-diagonalization oracle."""
    space = OneBosonSpace(np.array([1.0]))

    def g_bump(x):
        xs = np.asarray(x)
        return (TOY_STRENGTH * np.exp(-xs[..., 0] ** 2))[..., None, None]

    grid = oracle.GridSpec.line(*TOY_BOX, TOY_SITES)
    nspace = NumberBasisSpace(space, (TOY_CUTOFF,))
    op = oracle.build_pauli_fierz(grid, Domain.interval(*TOY_BOX),
                                  Coefficients(G=g_bump, space=space), nspace)
    sites = op.sites[:, 0]
    vacuum = np.zeros(nspace.dim)
    vacuum[0] = 1.0
    psi = np.kron(np.exp(-sites**2 / 2.0), vacuum)
    out = oracle.semigroup_apply(op, TOY_T, psi).reshape(sites.size, nspace.dim)
    return complex(out[int(np.argmin(np.abs(sites - x_site))), 0])


class SemigroupCoupledFine(_HarnessWorkload):
    """The c06 toy (one mode, gaussian_bump_G) at 256 steps on free paths,
    checked against the oracle's e^{-tH} at the grid site nearest x = 0."""

    name = "semigroup-coupled-fine"
    probe = "dense"
    samples = 4096
    steps = 256

    def make_config(self, seed):
        return {
            "experiment": "semigroup",
            "seed": int(seed),
            "domain": {"kind": "interval", "params": list(TOY_BOX)},
            "modes": {"omega": [1.0]},
            "coefficients": {"name": "gaussian_bump_G",
                             "params": {"strength": TOY_STRENGTH}},
            "state": {"profile": "gaussian", "field": [[0.0, 0.0]]},
            "mc": {"samples": max(2, int(round(self.samples * self.scale))),
                   "steps": self.steps},
            "points": {"x": [toy_site(0.0)], "t": TOY_T},
        }

    def references(self, config):
        return [toy_oracle_value(x) for x in config["points"]["x"]]


# the c08 coefficients: rough vector potential, mixed potential and coupling
def a_rough(x):
    xs = np.asarray(x)
    return np.sin(3 * xs) + 0.7 * np.cos(7 * xs)


def v_mix(x):
    xs = np.asarray(x)[..., 0]
    return 0.4 * (1.0 + np.sin(5 * xs))


def g_mix(x):
    xs = np.asarray(x)[..., 0]
    return (0.7 * np.exp(-(xs**2)) + 0.2 * np.sin(2 * xs))[..., None, None]


def independent_violation(pf, sch, E, phi):
    """The diamagnetic margin max_x(||(H+E)^{-1} phi(x)|| - ((S+E)^{-1}
    ||phi||)(x)) from dense solves, without the oracle's eigendecomposition."""
    p_count = sch.dim
    fdim = pf.dim // p_count
    phi = np.asarray(phi, dtype=complex).reshape(p_count, fdim)
    lhs = np.linalg.solve(pf.matrix + E * np.eye(pf.dim), phi.reshape(-1))
    lhs = np.linalg.norm(lhs.reshape(p_count, fdim), axis=1)
    rhs = np.linalg.solve(sch.matrix + E * np.eye(p_count),
                          np.linalg.norm(phi, axis=1)).real
    return float((lhs - rhs).max())


def gate_diamagnetic(records, rechecks, tol=1e-8):
    """Every diamagnetic check must hold, and each program margin that was
    recomputed by dense solves must agree with the recomputation."""
    checks = []
    for (size, E), verdicts in records.items():
        bad = [v for ok, v in verdicts if not ok or not math.isfinite(v)]
        worst = max(v for _, v in verdicts)
        checks.append(Check(f"diamagnetic dim={size} E={E}", not bad,
                            f"{len(verdicts)} trials, worst margin {worst:.3e}"
                            + (f", {len(bad)} failed" if bad else "")))
    for (size, E), (program, reference) in rechecks.items():
        gap = abs(program - reference)
        checks.append(Check(
            f"margin recheck dim={size} E={E}",
            math.isfinite(program) and gap <= tol * max(1.0, abs(reference)),
            f"program {program:.6e} vs dense solve {reference:.6e}"))
    return checks


class OraclePF(Workload):
    """Pauli-Fierz and Schrodinger assembly, eigh and the diamagnetic
    resolvent check on the c08 coefficients at two operator sizes."""

    name = "oracle-pf"
    probe = "dense"
    sizes = ((64, 6), (80, 7))  # (grid sites, Fock cutoff): dims 448, 640
    energies = (0.1, 1.0, 10.0)
    trials = 30
    box = (-3.0, 3.0)

    def _trial_vectors(self, rng, sizes, trials):
        return {(sites, cutoff, E): rng.uniform(0.0, 1.0, (trials, sites, cutoff + 1))
                for sites, cutoff in sizes for E in self.energies}

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        trials = max(1, int(round(self.trials * self.scale)))
        phis = self._trial_vectors(rng, self.sizes, trials)
        warm = ((16, 2),)
        self._solve(warm, self._trial_vectors(rng, warm, 1))
        return {"phis": phis}

    def _solve(self, sizes, phis):
        """Per (dim, E): the (holds, margin) of every trial; per dim: the
        operators and the grid size they came from."""
        space = OneBosonSpace(np.array([1.0]))
        coeffs = Coefficients(A=a_rough, V=v_mix, G=g_mix, space=space)
        domain = Domain.interval(*self.box)
        records, ops = {}, {}
        for sites, cutoff in sizes:
            grid = oracle.GridSpec.line(*self.box, sites)
            nspace = NumberBasisSpace(space, (cutoff,))
            pf = oracle.build_pauli_fierz(grid, domain, coeffs, nspace)
            sch = oracle.build_schrodinger(grid, domain, V=coeffs.V)
            pf.eigensystem()
            sch.eigensystem()
            for E in self.energies:
                records[(pf.dim, E)] = [oracle.diamagnetic_check(pf, sch, E, phi)
                                        for phi in phis[(sites, cutoff, E)]]
            ops[pf.dim] = (pf, sch, sites, cutoff)
        return records, ops

    def run_once(self, state, tracer):
        return self._solve(self.sizes, state["phis"])

    def collect(self, state, produced):
        return Outcome(produced)

    def check(self, state, outcome):
        """The margins of the first trial per (dim, E) are recomputed by
        dense solves once per run, after the first repetition."""
        records, ops = outcome.output
        rechecks = {}
        if not state.get("rechecked"):
            state["rechecked"] = True
            for dim, (pf, sch, sites, cutoff) in ops.items():
                for E in self.energies:
                    phi = state["phis"][(sites, cutoff, E)][0]
                    rechecks[(dim, E)] = (records[(dim, E)][0][1],
                                          independent_violation(pf, sch, E, phi))
        return gate_diamagnetic(records, rechecks)


def _c07_ok(d, t):
    return d["slope_S"] >= t["slope"] and d["slope_K"] >= t["slope"]


def _c10_ok(d, t):
    return (d["worst_gap_cutoff12"] < t["flow_gap"]
            and d["worst_gap_cutoff12"] <= d["worst_gap_cutoff8"] + 1e-12
            and d["zero_coupling_gap"] < t["exact_gap"])


def _c11_ok(d, t):
    return d["worst_slack"] >= t["slack"]


# the shipped acceptance tolerances, restated so the gate rederives each
# verdict from the criterion's reported numbers
ACCEPTANCE_LIMITS = {"slope": 0.4, "flow_gap": 1e-6, "exact_gap": 1e-12,
                     "slack": 0.0}
_VERDICTS = {"c07": _c07_ok, "c10": _c10_ok, "c11": _c11_ok}


def gate_criteria(results, limits=ACCEPTANCE_LIMITS):
    """Each criterion must pass, and its details must meet the limits."""
    checks = []
    for res in results:
        try:
            rederived = bool(_VERDICTS[res.cid](res.details, limits))
        except KeyError:  # a failing criterion reports other details
            rederived = False
        summary = ", ".join(f"{k}={v:.3g}" for k, v in res.details.items()
                            if isinstance(v, float))
        checks.append(Check(f"criterion {res.cid}",
                            bool(res.passed) and rederived,
                            f"passed={res.passed} rederived={rederived} {summary}"))
    return checks


class AcceptancePerPath(Workload):
    """Acceptance criteria c07, c10 and c11: the only workload that reaches
    the per-path action, integrand, fock and oneboson code."""

    name = "acceptance-perpath"
    criteria = ("c07", "c10", "c11")
    # c07 at 100 paths, c10 at its 5-path floor, c11 at 1000 paths
    criteria_scale = 0.1

    def setup(self, seed):
        acceptance.CRITERIA["c10"](0.25, int(seed), 1)
        return {"seed": int(seed)}

    def run_once(self, state, tracer):
        results = []
        for cid in self.criteria:
            with tracer.span(f"acceptance.{cid}"):
                results.append(
                    acceptance.CRITERIA[cid](self.criteria_scale * self.scale,
                                             state["seed"], 1))
        return results

    def collect(self, state, produced):
        return Outcome(produced)

    def check(self, state, outcome):
        return gate_criteria(outcome.output)


WORKLOADS = {w.name: w for w in
             (KernelInterval, SemigroupCoupledFine, OraclePF, AcceptancePerPath)}
