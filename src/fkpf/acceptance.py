"""Executable acceptance criteria.

Every criterion is a callable returning a CriterionResult with a hard
pass/fail verdict at its stated tolerance, the measured numbers, and (for
Monte Carlo criteria) reproducible result rows.  ``scale`` shrinks sample
counts for smoke runs; the shipped tolerances always refer to scale = 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import integrand
from .action import (
    CoefficientTable,
    Coefficients,
    action_block,
    compute_K,
    compute_S,
    divergence_action_block,
    divergence_atoms_block,
)
from .fock import NumberBasisSpace, embed_expvec
from .integrand import (
    IntegrandInputs,
    gmm_matrix_element,
    gmm_operator,
    w_kernel_matrix_element,
)
from .oneboson import (
    NelsonVector,
    OneBosonSpace,
    js_quadrature_inner,
    nelson_kernel_inner,
)
from .oracle import (
    GridSpec,
    build_pauli_fierz,
    build_schrodinger,
    diamagnetic_check,
    resolvent_convergence_study,
    semigroup_apply,
)
from .paths import (
    Domain,
    PathGrid,
    SampledPath,
    penalty_integral_block,
    sample_bm_block,
    subpath,
)
from .reference import gaussian_free_semigroup, heat_kernel, interval_eigen_kernel
from .semigroup import (
    FieldKernels,
    MCConfig,
    StateSpec,
    atom_gram_form,
    element_block,
    estimate_kernel_element,
    estimate_penalized_element,
    estimate_Tt_element,
    symmetry_probe,
)

__all__ = ["CriterionResult", "CRITERIA", "run_all", "DEFAULT_SEED"]

DEFAULT_SEED = 20240817


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    runtime: float = 0.0

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.cid} {self.name} ({self.runtime:.1f}s)"


def _n(scale: float, full: int, floor: int = 64) -> int:
    return max(floor, int(round(full * scale)))


# path-steps that c07 and c11 evaluate at once: bounds their working arrays;
# every per-path number is the same for any chunk size
_CHUNK_PATH_STEPS = 2**13


def _row_chunks(n_paths: int, n_steps: int) -> list:
    """Row slices covering n_paths paths of n_steps steps in chunks."""
    rows = max(1, _CHUNK_PATH_STEPS // (n_steps + 1))
    return [slice(i, min(i + rows, n_paths)) for i in range(0, n_paths, rows)]


def _contraction_params(seed: int, n_paths: int):
    """The exponential-vector parameters u, g of c11, each (n_paths, 1).

    One row of draws per path, [u.re, u.im, g.re, g.im], in the order the
    per-path draws of size 1 take from the stream.
    """
    draws = np.random.default_rng(seed).normal(size=(n_paths, 4))
    u = 0.8 * (draws[:, 0:1] + 1j * draws[:, 1:2])
    g = 0.8 * (draws[:, 2:3] + 1j * draws[:, 3:4])
    return u, g


def _mc_row(cid, est, x, y, t):
    return {
        "experiment": cid,
        "x": float(np.atleast_1d(x)[0]),
        "y": float(np.atleast_1d(y)[0]) if y is not None else "",
        "t": t,
        "re": est.value.real,
        "im": est.value.imag,
        "stderr": est.stderr,
        "n": est.n_effective,
        "seed": est.manifest["seed"],
        "config_hash": est.manifest["config_hash"],
    }


# -- shared toy-model pieces --------------------------------------------------

SP1 = OneBosonSpace(np.array([1.0]))


def _gauss_profile(x):
    return np.exp(-np.asarray(x)[..., 0] ** 2 / 2.0)


def _bump_coupling(strength):
    def g_bump(x):
        xs = np.asarray(x)
        return (strength * np.exp(-xs[..., 0] ** 2))[..., None, None]

    g_bump.__name__ = f"g_bump_{strength}"
    return g_bump


def _toy_pf_coeffs(strength=0.5):
    return Coefficients(G=_bump_coupling(strength), space=SP1)


# -- criteria -----------------------------------------------------------------


def c01_nelson_kernel_identity(scale, seed, workers):
    rng = np.random.default_rng(seed)
    trials = _n(scale, 100, 10)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 4))
        sp = OneBosonSpace(rng.uniform(0.1, 10.0, m))
        u = sp.vector(rng.normal(size=m) + 1j * rng.normal(size=m))
        v = sp.vector(rng.normal(size=m) + 1j * rng.normal(size=m))
        s, r = rng.uniform(0.0, 5.0, 2)
        gap = abs(nelson_kernel_inner(s, u, r, v) - js_quadrature_inner(s, u, r, v))
        worst = max(worst, gap)
    return CriterionResult(
        "c01", "nelson kernel identity vs quadrature", worst < 1e-6,
        {"worst_gap": worst, "tolerance": 1e-6, "trials": trials},
    )


def c02_integrand_vs_operator_oracle(scale, seed, workers):
    rng = np.random.default_rng(seed + 1)
    trials = _n(scale, 100, 10)
    worst_rel = 0.0
    checked = 0
    for i in range(trials):
        m = 1 if i % 2 == 0 else 2
        sp = OneBosonSpace(rng.uniform(0.5, 2.0, m))
        ns = NumberBasisSpace(sp, (16,) * m)
        t = rng.uniform(0.3, 1.5)
        s_val = complex(rng.uniform(0, 0.8), rng.uniform(-1, 1))
        count = int(rng.integers(1, 5))
        k = NelsonVector(sp, rng.uniform(0, t, count),
                         np.ones(count, dtype=complex),
                         rng.normal(0, 0.25, (count, m)))
        inp = IntegrandInputs(t, s_val, k, sp)
        u = sp.vector(0.3 * (rng.normal(size=m) + 1j * rng.normal(size=m)))
        g = sp.vector(0.3 * (rng.normal(size=m) + 1j * rng.normal(size=m)))
        closed = w_kernel_matrix_element(inp, u, g)
        if m == 1:
            vu, tu = embed_expvec(ns, u)
            vg, tg = embed_expvec(ns, g)
            oracle = complex(np.vdot(vu, gmm_operator(inp, ns) @ vg))
            bound = float(np.exp(-s_val.real)) * (
                tu * math.exp(0.5 * g.norm_sq())
                + tg * math.exp(0.5 * u.norm_sq()) + tu * tg
            )
        else:
            oracle, bound = gmm_matrix_element(inp, ns, u, g)
        gap = abs(closed - oracle)
        if gap > 1e-8 * abs(closed) + bound:
            return CriterionResult(
                "c02", "integrand closed form vs operator oracle", False,
                {"gap": gap, "closed": abs(closed), "tail_bound": bound},
            )
        worst_rel = max(worst_rel, (gap - bound) / abs(closed))
        checked += 1
    return CriterionResult(
        "c02", "integrand closed form vs operator oracle", True,
        {"worst_rel_after_tails": worst_rel, "tolerance": 1e-8, "trials": checked},
    )


def c03_free_semigroup(scale, seed, workers):
    cfg = MCConfig(samples=_n(scale, 100000), steps=64, seed=seed + 2,
                   workers=workers)
    psi = StateSpec(_gauss_profile, SP1.zero_vector(), name="gaussian")
    est = estimate_Tt_element([0.0], SP1.zero_vector(), psi, 1.0,
                              Coefficients(), Domain.all_space(1), cfg)
    exact = gaussian_free_semigroup(1.0, 0.0)
    z = abs(est.value - exact) / est.stderr
    rel = est.stderr / abs(est.value)
    return CriterionResult(
        "c03", "free semigroup vs Gaussian closed form",
        bool(z <= 3.0 and rel < 0.01),
        {"estimate": est.value.real, "exact": exact, "z": z, "rel_stderr": rel},
        [_mc_row("c03", est, 0.0, None, 1.0)],
    )


def c04_dirichlet_interval_kernel(scale, seed, workers):
    cfg = MCConfig(samples=_n(scale, 100000), steps=64, seed=seed + 3,
                   workers=workers)
    est = estimate_kernel_element([0.5], [0.5], SP1.zero_vector(),
                                  SP1.zero_vector(), 0.2, Coefficients(),
                                  Domain.interval(0.0, 1.0), cfg)
    oracle = interval_eigen_kernel(0.2, 0.5, 0.5)
    z = abs(est.value - oracle) / est.stderr
    rel = est.stderr / abs(est.value)
    return CriterionResult(
        "c04", "absorbing interval kernel vs eigen series",
        bool(z <= 3.0 and rel <= 0.02),
        {"estimate": est.value.real, "oracle": oracle, "z": z, "rel_stderr": rel},
        [_mc_row("c04", est, 0.5, 0.5, 0.2)],
    )


def c05_gauge_invariance(scale, seed, workers):
    rows, details = [], {}
    passed = True
    free_val = heat_kernel(0.8, [0.3], [-0.2])
    for a_val in (0.5, 2.0):
        def a_const(x, _v=a_val):
            return np.full(np.asarray(x).shape, _v)

        a_const.__name__ = f"a_const_{a_val}"
        cfg = MCConfig(samples=_n(scale, 2000), steps=32, seed=seed + 4,
                       workers=workers)
        est = estimate_kernel_element([0.3], [-0.2], SP1.zero_vector(),
                                      SP1.zero_vector(), 0.8,
                                      Coefficients(A=a_const),
                                      Domain.all_space(1), cfg)
        gap = abs(abs(est.value) - free_val)
        ok = gap <= 3.0 * est.stderr + 1e-12
        passed = passed and ok
        details[f"a={a_val}"] = {"modulus": abs(est.value), "free": free_val,
                                 "gap": gap}
        rows.append(_mc_row("c05", est, 0.3, -0.2, 0.8))
    return CriterionResult(
        "c05", "constant vector potential is pure gauge", passed, details, rows
    )


def _pf_toy_setup():
    grid = GridSpec.line(-4.0, 4.0, 64)
    domain = Domain.interval(-4.0, 4.0)
    coeffs = _toy_pf_coeffs(0.5)
    nspace = NumberBasisSpace(SP1, (8,))
    return grid, domain, coeffs, nspace


def c06_pf_toy_vs_oracle(scale, seed, workers):
    grid, domain, coeffs, nspace = _pf_toy_setup()
    op = build_pauli_fierz(grid, domain, coeffs, nspace)
    sites = op.sites[:, 0]
    prof = _gauss_profile(op.sites)
    vac_embed = np.zeros(nspace.dim)
    vac_embed[0] = 1.0
    psi_vec = np.kron(prof, vac_embed)
    out = semigroup_apply(op, 0.5, psi_vec).reshape(sites.size, nspace.dim)
    targets = []
    for x_target in (-1.0, 0.0, 1.5):
        idx = int(np.argmin(np.abs(sites - x_target)))
        targets.append((idx, float(sites[idx]), complex(out[idx, 0])))
    psi = StateSpec(_gauss_profile, SP1.zero_vector(), name="gaussian")
    passed = True
    details, rows = {}, []
    for idx, x_site, oracle_val in targets:
        ests = {}
        for steps in (64, 128):
            cfg = MCConfig(samples=_n(scale, 30000), steps=steps,
                           seed=seed + 5, workers=workers)
            est = estimate_Tt_element([x_site], SP1.zero_vector(), psi, 0.5,
                                      coeffs, domain, cfg)
            ests[steps] = est
            rows.append(_mc_row(f"c06_n{steps}", est, x_site, None, 0.5))
        z64 = abs(ests[64].value - oracle_val) / ests[64].stderr
        z128 = abs(ests[128].value - oracle_val) / ests[128].stderr
        joint = math.hypot(ests[64].stderr, ests[128].stderr)
        zstep = abs(ests[64].value - ests[128].value) / joint
        ok = z64 <= 3.0 and z128 <= 3.0 and zstep <= 3.0
        passed = passed and ok
        details[f"x={x_site:.3f}"] = {
            "oracle": oracle_val.real, "mc64": ests[64].value.real,
            "mc128": ests[128].value.real, "z64": z64, "z128": z128,
            "z_step": zstep,
        }
    return CriterionResult(
        "c06", "coupled toy model vs matrix-exponential oracle", passed,
        details, rows,
    )


def c07_action_route_consistency(scale, seed, workers):
    def a_sin(x):
        return np.sin(np.asarray(x))

    def diva_cos(x):
        return np.cos(np.asarray(x)[..., 0])

    def g_sin(x):
        return np.sin(np.asarray(x))[..., None]

    def divg_cos(x):
        return np.cos(np.asarray(x)[..., 0])[..., None]

    coeffs = Coefficients(A=a_sin, divA=diva_cos, G=g_sin, divG=divg_cos,
                          space=SP1)
    n_paths = _n(scale, 1000, 50)
    t = 1.0
    master = 512
    base = sample_bm_block(seed + 6, 0, n_paths, [0.0], PathGrid(t, master))
    levels = (32, 64, 128, 256, 512)
    rms_s, rms_k = [], []
    for n_steps in levels:
        stride = master // n_steps
        dt = PathGrid(t, n_steps).dt
        gaps_s = np.empty(n_paths)
        amp_diffs = np.empty((n_paths, n_steps + 1, 1))
        for rows in _row_chunks(n_paths, n_steps):
            pos = base[rows, ::stride]
            s_trap, k_trap = action_block(pos, coeffs, dt)
            s_div = divergence_action_block(pos, coeffs, dt)
            ito_amps, div_amps = divergence_atoms_block(pos, coeffs, dt)
            gaps_s[rows] = np.abs(s_trap - s_div)
            amp_diffs[rows] = k_trap - (ito_amps + div_amps)
        # the Gram form's loop over the steps runs once per level, not per chunk
        norm_sq = atom_gram_form(amp_diffs, SP1.omega, dt)
        rms_s.append(float(np.sqrt(np.mean(gaps_s**2))))
        rms_k.append(float(np.sqrt(np.mean(norm_sq))))
    dts = np.log([t / n for n in levels])
    slope_s = float(np.polyfit(dts, np.log(rms_s), 1)[0])
    slope_k = float(np.polyfit(dts, np.log(rms_k), 1)[0])
    return CriterionResult(
        "c07", "trapezoid vs divergence action routes converge",
        bool(slope_s >= 0.4 and slope_k >= 0.4),
        {"slope_S": slope_s, "slope_K": slope_k, "rms_S": rms_s, "rms_K": rms_k},
    )


def c08_diamagnetic_inequality(scale, seed, workers):
    grid = GridSpec.line(-3.0, 3.0, 64)
    domain = Domain.interval(-3.0, 3.0)
    nspace = NumberBasisSpace(SP1, (6,))

    def a_rough(x):
        xs = np.asarray(x)
        return np.sin(3 * xs) + 0.7 * np.cos(7 * xs)

    def v_mix(x):
        xs = np.asarray(x)[..., 0]
        return 0.4 * (1.0 + np.sin(5 * xs))

    def g_mix(x):
        xs = np.asarray(x)[..., 0]
        return (0.7 * np.exp(-(xs**2)) + 0.2 * np.sin(2 * xs))[..., None, None]

    pf = build_pauli_fierz(grid, domain,
                           Coefficients(A=a_rough, V=v_mix, G=g_mix, space=SP1),
                           nspace)
    sch = build_schrodinger(grid, domain, V=v_mix)
    rng = np.random.default_rng(seed + 7)
    trials = _n(scale, 100, 10)
    worst = -np.inf
    for E in (0.1, 1.0, 10.0):
        for _ in range(trials):
            phi = rng.uniform(0.0, 1.0, (sch.dim, nspace.dim))
            ok, viol = diamagnetic_check(pf, sch, E, phi, tol=1e-10)
            worst = max(worst, viol)
            if not ok:
                return CriterionResult(
                    "c08", "diamagnetic resolvent inequality", False,
                    {"violation": viol, "E": E},
                )
    return CriterionResult(
        "c08", "diamagnetic resolvent inequality", True,
        {"worst_margin": worst, "tolerance": 1e-10, "trials": 3 * trials},
    )


def c09_penalty_equivalence(scale, seed, workers):
    domain = Domain.interval(0.0, 20.0)
    t = 0.2
    n_paths = _n(scale, 20000)
    grid = PathGrid(t, 64)
    from .paths import sample_bridge_block

    pos = sample_bridge_block(seed + 8, 0, n_paths, [10.0], [10.0], grid)
    prev = None
    monotone = True
    for cap in (1e2, 1e4, 1e6):
        pen = penalty_integral_block(pos, domain, grid.dt, cap)
        w = np.exp(-1.0 * pen)
        if prev is not None:
            monotone = monotone and bool(np.all(w <= prev + 1e-15))
        prev = w
    cfg = MCConfig(samples=n_paths, steps=64, seed=seed + 8,
                   gating=("indicator", {"correction": False}),
                   workers=workers)
    hard = estimate_kernel_element([10.0], [10.0], SP1.zero_vector(),
                                   SP1.zero_vector(), t, Coefficients(),
                                   domain, cfg)
    soft = estimate_penalized_element([10.0], [10.0], SP1.zero_vector(),
                                      SP1.zero_vector(), t, Coefficients(),
                                      domain, cfg, kappa=1.0, n_cap=1e6)
    joint = math.hypot(hard.stderr if np.isfinite(hard.stderr) else 0.0,
                       soft.stderr if np.isfinite(soft.stderr) else 0.0)
    # the hard gate is deterministic on this wide interval (stderr ~ 0), so
    # the statistical bracket is backed by an absolute floor covering the
    # kappa = 1 penalty mass of the surviving paths (~2e-4 relative here)
    gap = abs(hard.value - soft.value)
    ok = gap <= 3.0 * joint + abs(soft.value) * 1e-3
    return CriterionResult(
        "c09", "soft confinement penalty matches the exit indicator",
        bool(monotone and ok),
        {"monotone_in_cap": monotone, "gap": gap, "joint_stderr": joint,
         "hard": hard.value.real, "soft": soft.value.real},
        [_mc_row("c09_hard", hard, 10.0, 10.0, t),
         _mc_row("c09_soft", soft, 10.0, 10.0, t)],
    )


def c10_flow_equation(scale, seed, workers):
    def a_sin(x):
        return np.sin(np.asarray(x))

    coeffs = Coefficients(A=a_sin, V=lambda x: np.full(
        np.asarray(x).shape[:-1], 0.3), G=_bump_coupling(0.4), space=SP1)
    n_paths = max(5, int(round(20 * scale)))
    t, n_steps, split = 0.8, 16, 7
    u = SP1.vector([0.3 + 0.1j])
    g = SP1.vector([0.2 - 0.2j])
    worst = {8: 0.0, 12: 0.0}
    block = sample_bm_block(seed + 9, 0, n_paths, [0.0], PathGrid(t, n_steps))
    for pos in block:
        path = SampledPath(PathGrid(t, n_steps), pos, "free", start=pos[0].copy())
        seg1, seg2 = subpath(path, 0, split), subpath(path, split, n_steps)
        s_w, k_w = compute_S(path, coeffs), compute_K(path, coeffs)
        s_1, k_1 = compute_S(seg1, coeffs), compute_K(seg1, coeffs)
        s_2, k_2 = compute_S(seg2, coeffs), compute_K(seg2, coeffs)
        for cutoff in (8, 12):
            ns = NumberBasisSpace(SP1, (cutoff,))
            w_whole = gmm_operator(IntegrandInputs(t, s_w, k_w, SP1), ns)
            w_1 = gmm_operator(
                IntegrandInputs(seg1.grid.horizon, s_1, k_1, SP1), ns)
            w_2 = gmm_operator(
                IntegrandInputs(seg2.grid.horizon, s_2, k_2, SP1), ns)
            vu, _ = embed_expvec(ns, u)
            vg, _ = embed_expvec(ns, g)
            gap = abs(np.vdot(vu, (w_whole - w_2 @ w_1) @ vg))
            worst[cutoff] = max(worst[cutoff], gap)
    # zero-coupling case is exact
    ns = NumberBasisSpace(SP1, (12,))
    z = NelsonVector.empty(SP1)
    exact_gap = np.abs(
        gmm_operator(IntegrandInputs(0.9, 0.0, z, SP1), ns)
        - gmm_operator(IntegrandInputs(0.5, 0.0, z, SP1), ns)
        @ gmm_operator(IntegrandInputs(0.4, 0.0, z, SP1), ns)
    ).max()
    passed = worst[12] < 1e-6 and worst[12] <= worst[8] + 1e-12 and exact_gap < 1e-12
    return CriterionResult(
        "c10", "flow equation composes sub-interval integrands", bool(passed),
        {"worst_gap_cutoff12": worst[12], "worst_gap_cutoff8": worst[8],
         "zero_coupling_gap": exact_gap, "paths": n_paths},
    )


def c11_contraction_bound(scale, seed, workers):
    def v_pos(x):
        xs = np.asarray(x)[..., 0]
        return 0.5 * (1.0 + np.tanh(xs))

    def a_sin(x):
        return np.sin(np.asarray(x))

    coeffs = Coefficients(A=a_sin, V=v_pos, G=_bump_coupling(0.8), space=SP1)
    n_paths = _n(scale, 10000)
    grid = PathGrid(0.6, 32)
    field = FieldKernels.on_grid(SP1.omega, grid)
    u, g = _contraction_params(seed + 10, n_paths)
    block = sample_bm_block(seed + 10, 0, n_paths, [0.0], grid)
    worst_slack = np.inf
    for rows in _row_chunks(n_paths, grid.steps):
        s_val, amps = action_block(block[rows], coeffs, grid.dt)
        u_r, g_r = u[rows], g[rows]
        norms = (np.conj(u_r) * u_r + np.conj(g_r) * g_r).real.sum(axis=1)
        bound = np.exp(-s_val.real + 0.5 * norms) * (1.0 + integrand.CONTRACTION_SLACK)
        # columns: the kernel element, then the star element, which is the
        # conjugate of the kernel element with u and g swapped and so has
        # the modulus of that element
        elems = np.stack([element_block(s_val, amps, u_r, g_r, field),
                          element_block(s_val, amps, g_r, u_r, field)], axis=1)
        slack = bound[:, None] - np.abs(elems)
        bad = np.flatnonzero(~(slack >= 0.0))
        if bad.size:
            row, kind = divmod(int(bad[0]), 2)
            return CriterionResult(
                "c11", "per-sample contraction bound", False,
                {"violation_slack": float(slack[row, kind]),
                 "path": rows.start + row},
            )
        worst_slack = min(worst_slack, float(slack.min()))
    return CriterionResult(
        "c11", "per-sample contraction bound", True,
        {"worst_slack": worst_slack, "paths": n_paths},
    )


def c12_kernel_selfadjointness(scale, seed, workers):
    _, domain, coeffs, _ = _pf_toy_setup()
    u = SP1.vector([0.4])
    g = SP1.vector([0.25])
    passed = True
    details, rows = {}, []
    for x_val, y_val in ((0.5, -0.5), (1.0, 0.2)):
        cfg = MCConfig(samples=_n(scale, 20000), steps=32, seed=seed + 11,
                       workers=workers)
        a, b = symmetry_probe([x_val], [y_val], u, g, 0.5, coeffs, domain, cfg)
        joint = math.hypot(a.stderr, b.stderr)
        z = abs(a.value - b.value) / joint
        passed = passed and z <= 3.0
        details[f"(x,y)=({x_val},{y_val})"] = {
            "forward": [a.value.real, a.value.imag],
            "adjoint": [b.value.real, b.value.imag], "z": z,
        }
        rows.append(_mc_row("c12_fwd", a, x_val, y_val, 0.5))
        rows.append(_mc_row("c12_adj", b, y_val, x_val, 0.5))
    return CriterionResult(
        "c12", "kernel selfadjointness probe", bool(passed), details, rows
    )


def c13_mollified_resolvent_convergence(scale, seed, workers):
    rng = np.random.default_rng(seed + 12)
    details = {}
    passed = True
    # singular vector potential study at two grid resolutions
    for points in (64, 96):
        grid = GridSpec.line(-4.0, 4.0, points)
        xs = grid.axis_points(0)
        table = CoefficientTable(
            lo=[xs[0]], hi=[xs[-1]], shape=(points,), omega=np.array([1.0]),
            A=(np.abs(xs - 0.3) ** -0.25)[None, :],
        )
        nspace = NumberBasisSpace(SP1, (2,))
        phi = rng.normal(size=points * nspace.dim)
        rows = resolvent_convergence_study(
            grid, Domain.interval(-4.0, 4.0), table, nspace,
            (2, 4, 8, 16, 32), 1.0, phi,
        )
        diffs = [r["resolvent_diff"] for r in rows]
        ok = all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))
        ok = ok and diffs[-1] < 1e-3 * diffs[0]
        passed = passed and ok
        details[f"grid{points}"] = {"diffs": diffs, "nonincreasing": ok}
    # frequency-cutoff-only sweep for the coupling function
    points = 64
    grid = GridSpec.line(-4.0, 4.0, points)
    xs = grid.axis_points(0)
    sp2 = OneBosonSpace(np.array([0.3, 3.5]))
    gvals = np.stack([np.stack([np.exp(-xs**2), 0.5 * np.exp(-((xs - 1) ** 2))])])
    table_g = CoefficientTable(
        lo=[xs[0]], hi=[xs[-1]], shape=(points,), omega=sp2.omega, G=gvals
    )
    nspace2 = NumberBasisSpace(sp2, (1, 1))
    phi2 = rng.normal(size=points * nspace2.dim)
    rows_g = resolvent_convergence_study(
        grid, Domain.interval(-4.0, 4.0), table_g, nspace2,
        (2, 4, 8, 16, 32), 1.0, phi2,
    )
    diffs_g = [r["resolvent_diff"] for r in rows_g]
    ok_g = all(b <= a + 1e-12 for a, b in zip(diffs_g, diffs_g[1:]))
    passed = passed and ok_g
    details["g_filter_sweep"] = {"diffs": diffs_g, "nonincreasing": ok_g}
    return CriterionResult(
        "c13", "mollified coefficients converge in resolvent", bool(passed),
        details,
    )


def c14_reproducibility(scale, seed, workers):
    from .harness import rows_to_csv

    def mc_rows(worker_count):
        out = []
        for crit in (c03_free_semigroup, c04_dirichlet_interval_kernel):
            res = crit(min(scale, 0.05), seed, worker_count)
            out.extend(res.rows)
        return rows_to_csv(out)

    first = mc_rows(1)
    second = mc_rows(2)
    third = mc_rows(1)
    passed = first == second == third
    return CriterionResult(
        "c14", "byte-identical MC output across reruns and worker counts",
        bool(passed),
        {"bytes": len(first), "workers_match": first == second,
         "rerun_match": first == third},
    )


CRITERIA = {
    "c01": c01_nelson_kernel_identity,
    "c02": c02_integrand_vs_operator_oracle,
    "c03": c03_free_semigroup,
    "c04": c04_dirichlet_interval_kernel,
    "c05": c05_gauge_invariance,
    "c06": c06_pf_toy_vs_oracle,
    "c07": c07_action_route_consistency,
    "c08": c08_diamagnetic_inequality,
    "c09": c09_penalty_equivalence,
    "c10": c10_flow_equation,
    "c11": c11_contraction_bound,
    "c12": c12_kernel_selfadjointness,
    "c13": c13_mollified_resolvent_convergence,
    "c14": c14_reproducibility,
}


def run_all(scale: float = 1.0, seed: int = DEFAULT_SEED, workers: int = 0,
            only=None, verbose: bool = True):
    results = []
    for cid, fn in CRITERIA.items():
        if only and cid not in only:
            continue
        start = time.perf_counter()
        res = fn(scale, seed, workers)
        res.runtime = time.perf_counter() - start
        results.append(res)
        if verbose:
            print(res.summary_line())
    return results
