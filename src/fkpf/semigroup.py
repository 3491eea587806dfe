"""Monte Carlo estimators for the two path-integral representations of the
confined particle-field semigroup: the state map over free paths with exit
gating, and the operator kernel over pinned bridges, with hard-indicator and
soft-penalty gating.

Estimator layout: paths are drawn from counter-based per-path streams keyed
by (seed, path index) and processed in fixed-size blocks.  The per-path
integrand values are stored into one array indexed by path, so means and
standard errors are bitwise independent of the worker partition.  On a
shared time grid the endpoint pullback rows are precomputed once.  The
field-displacement norm is a quadratic form in the per-path atom amplitudes
whose time kernel e^{-omega|s - r|} is an Ornstein-Uhlenbeck covariance, so
``atom_gram_form`` evaluates it by a first-order recursion in O(n) per path,
without forming the (n+1, n+1) Gram matrix.  A non-finite integrand sample
stops the estimate instead of entering the mean.

The integrand over a (B, n+1, nu) block is two plan-free calls:
``action.action_block`` gives the trapezoid action S and the atom
amplitudes, and ``element_block`` turns them into kernel-direction elements
for exponential-vector parameters shared by the block or given per path,
using the grid kernels that ``FieldKernels`` precomputes once per time
grid.  The acceptance criteria that check per-path claims (c07, c11) call
the same two functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .action import Coefficients, action_block
from .oneboson import OneBosonSpace, OneBosonVector
from .paths import (
    Domain,
    PathGrid,
    exit_weights_block,
    penalty_integral_block,
    sample_bm_block,
    sample_bridge_block,
)
from .reference import heat_kernel

__all__ = [
    "MCConfig",
    "StateSpec",
    "Estimate",
    "FieldKernels",
    "element_block",
    "atom_gram_form",
    "estimate_Tt_element",
    "estimate_kernel_element",
    "estimate_penalized_element",
    "symmetry_probe",
    "chapman_probe",
]

_BLOCK = 4096
_SEED_OFFSET_PROBE = 1_000_003


@dataclass(frozen=True)
class MCConfig:
    """Sampling configuration shared by all estimators.

    gating is ('indicator', {'correction': bool}) or
    ('penalty', {'kappa': float, 'n_cap': float}).
    workers = 0 consults the FKPF_WORKERS environment variable.
    """

    samples: int
    steps: int
    seed: int
    gating: tuple = ("indicator", {"correction": True})
    antithetic: bool = False
    workers: int = 0
    check_bounds: bool = False

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("need at least two samples for a standard error")
        if self.steps < 2:
            raise ValueError("need at least two time steps")
        mode, params = self.gating
        if mode == "penalty":
            if params.get("kappa", 0.0) <= 0.0:
                raise ValueError("penalty gating needs kappa > 0")
            if params.get("n_cap", 0.0) <= 0.0:
                raise ValueError("penalty gating needs n_cap > 0")
        elif mode != "indicator":
            raise ValueError("gating mode must be 'indicator' or 'penalty'")

    def resolve_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        return max(1, int(os.environ.get("FKPF_WORKERS", "1")))

    def describe(self) -> dict:
        return {
            "samples": self.samples,
            "steps": self.steps,
            "seed": self.seed,
            "gating": [self.gating[0], dict(self.gating[1])],
            "antithetic": self.antithetic,
        }


@dataclass(frozen=True)
class StateSpec:
    """Product state profile(x) * eps(g): scalar profile and field parameter."""

    profile: Callable
    g: OneBosonVector
    name: str = "custom"

    def l2_norm(self, lo: float, hi: float, points: int = 4001) -> float:
        xs = np.linspace(lo, hi, points).reshape(-1, 1)
        vals = np.abs(np.asarray(self.profile(xs), dtype=complex)) ** 2
        # field factor: ||eps(g)||^2 = e^{|g|^2}
        return float(
            np.sqrt(np.trapezoid(vals, xs[:, 0]) * np.exp(self.g.norm_sq()))
        )

    def describe(self) -> dict:
        return {"name": self.name, "g": _complex_list(self.g.amplitudes)}


@dataclass(frozen=True)
class Estimate:
    """MC mean with standard error and reproducibility provenance."""

    value: complex
    stderr: float
    n_effective: int
    manifest: dict
    degenerate: bool = False

    def within(self, other_value: complex, z: float = 3.0, abs_tol: float = 1e-12):
        """|value - other| <= z * stderr (plus abs_tol for degenerate spread)."""
        return abs(self.value - other_value) <= z * self.stderr + abs_tol


def _complex_list(arr) -> list:
    return [[float(c.real), float(c.imag)] for c in np.atleast_1d(arr)]


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _describe_coeffs(coeffs: Coefficients) -> dict:
    def tag(fn):
        if fn is None:
            return None
        return getattr(fn, "__name__", "callable")

    return {
        "A": tag(coeffs.A),
        "V": tag(coeffs.V),
        "U": tag(coeffs.U),
        "G": tag(coeffs.G),
        "smoothness": coeffs.smoothness,
    }


@dataclass(frozen=True)
class FieldKernels:
    """Mode-decay kernels on one uniform time grid of step dt and horizon t:
    the pullback rows e^{-omega s_l} and e^{-omega (t - s_l)}, each (M, n+1),
    and the free field factor e^{-t omega}, (M,)."""

    omega: np.ndarray
    dt: float
    decay0: np.ndarray
    decay_t: np.ndarray
    heat_t: np.ndarray

    @classmethod
    def on_grid(cls, omega: np.ndarray, grid: PathGrid) -> "FieldKernels":
        t, times = grid.horizon, grid.times
        return cls(
            omega=omega,
            dt=grid.dt,
            decay0=np.exp(-np.outer(omega, times)),
            decay_t=np.exp(-np.outer(omega, t - times)),
            heat_t=np.exp(-t * omega),
        )


@dataclass
class _Plan:
    """Frozen inputs plus precomputed grid kernels for one estimator run."""

    kind: str  # 'free' | 'bridge'
    direction: str  # 'kernel' | 'star'
    x: np.ndarray
    y: Optional[np.ndarray]
    t: float
    grid: PathGrid
    coeffs: Coefficients
    domain: Domain
    cfg: MCConfig
    u_amp: np.ndarray
    g_amp: np.ndarray
    omega: Optional[np.ndarray]
    profile: Optional[Callable]
    field: Optional[FieldKernels] = None
    bound_factor: float = 1.0

    def __post_init__(self):
        if self.omega is not None:
            self.field = FieldKernels.on_grid(self.omega, self.grid)
        self.bound_factor = math.exp(
            0.5 * float(np.vdot(self.u_amp, self.u_amp).real)
            + 0.5 * float(np.vdot(self.g_amp, self.g_amp).real)
        )


def atom_gram_form(amps: np.ndarray, omega: np.ndarray, dt: float) -> np.ndarray:
    """The quadratic form sum_m sum_lk a_lm a_km e^{-omega_m dt |l - k|} of a
    (B, n+1, M) block of atom amplitudes on a uniform grid of step dt.

    The time kernel is a Kac-Murdock-Szego matrix in rho_m = e^{-omega_m dt}.
    With c_0 = 0, c_l = rho (c_{l-1} + a_{l-1}) the form is
    sum_l a_l^2 + 2 sum_l a_l c_l; in the filtered sums f_l = a_l + c_l =
    a_l + rho f_{l-1} it is f_n^2 + (1 - rho^2) sum_{l<n} f_l^2, a sum of
    squares that keeps full relative accuracy as rho -> 1.  O(n) work per
    path, vectorized over paths and modes.
    """
    omega = np.asarray(omega, dtype=float)
    rho = np.exp(-omega * dt)
    filt = np.array(np.moveaxis(amps, 1, 0))  # (n+1, B, M), filtered in place
    for l in range(1, filt.shape[0]):
        filt[l] += rho * filt[l - 1]
    head = np.einsum("lbm,lbm->bm", filt[:-1], filt[:-1])
    return (-np.expm1(-2.0 * omega * dt) * head + filt[-1] ** 2).sum(axis=1)


def _sample_block(plan: _Plan, i0: int, count: int) -> np.ndarray:
    if plan.kind == "free":
        return sample_bm_block(
            plan.cfg.seed, i0, count, plan.x, plan.grid, plan.cfg.antithetic
        )
    return sample_bridge_block(
        plan.cfg.seed, i0, count, plan.y, plan.x, plan.grid,
        method="exact", antithetic=plan.cfg.antithetic,
    )


def _gate_block(plan: _Plan, positions: np.ndarray) -> np.ndarray:
    mode, params = plan.cfg.gating
    if mode == "indicator":
        corr = "crossing" if params.get("correction", True) else "none"
        return exit_weights_block(positions, plan.domain, plan.grid.dt, corr)
    pen = penalty_integral_block(positions, plan.domain, plan.grid.dt, params["n_cap"])
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(-params["kappa"] * pen)


def element_block(
    s_val: np.ndarray,
    amps: Optional[np.ndarray],
    u: np.ndarray,
    g: np.ndarray,
    field: Optional[FieldKernels],
) -> np.ndarray:
    """Kernel-direction elements <eps(u), W(S, K) eps(g)> of a block, from
    the output of ``action_block``.

    u and g are (M,) amplitudes shared by the block or (B, M) per path;
    field is None when there are no modes.  The star-direction element is
    the conjugate of this one with u and g swapped.
    """
    nb = s_val.shape[0]
    if amps is not None:
        norm_ksq = atom_gram_form(amps, field.omega, field.dt)
        p0 = np.einsum("ml,blm->bm", field.decay0, amps)
        pt = np.einsum("ml,blm->bm", field.decay_t, amps)
    else:
        mode_count = 1 if field is None else field.omega.size
        norm_ksq = np.zeros(nb)
        p0 = pt = np.zeros((nb, mode_count))
    if field is None:
        contraction = 0.0
        cross = 0.0
    elif u.ndim == 1:
        contraction = np.vdot(u, field.heat_t * g)
        cross = 1j * (p0 @ g) + 1j * (pt @ np.conj(u))
    else:
        contraction = np.einsum("bm,bm->b", np.conj(u), field.heat_t * g)
        cross = 1j * np.einsum("bm,bm->b", p0, g) + 1j * np.einsum(
            "bm,bm->b", pt, np.conj(u)
        )
    return np.exp(-s_val - 0.5 * norm_ksq + cross + contraction)


def _integrand_block(plan: _Plan, positions: np.ndarray) -> np.ndarray:
    """Vectorized integrand elements for a (B, n+1, nu) block of live paths."""
    s_val, amps = action_block(positions, plan.coeffs, plan.grid.dt)
    if plan.direction == "star":
        elem = np.conj(element_block(s_val, amps, plan.g_amp, plan.u_amp, plan.field))
    else:
        elem = element_block(s_val, amps, plan.u_amp, plan.g_amp, plan.field)
    if plan.cfg.check_bounds:
        bound = np.exp(-s_val.real) * plan.bound_factor * (1.0 + 1e-10)
        bad = np.abs(elem) > bound
        if bad.any():
            worst = float((np.abs(elem) - bound).max())
            raise RuntimeError(
                f"integrand exceeded its contraction bound by {worst:.3e}"
            )
    return elem


def _run_block(plan: _Plan, i0: int, i1: int) -> np.ndarray:
    count = i1 - i0
    positions = _sample_block(plan, i0, count)
    weights = _gate_block(plan, positions)
    vals = np.zeros(count, dtype=complex)
    alive = weights > 0.0
    if not alive.any():
        return vals
    live_pos = positions[alive]
    elem = _integrand_block(plan, live_pos)
    if plan.kind == "free":
        ends = live_pos[:, -1, :]
        prof = np.asarray(plan.profile(ends), dtype=complex)
        vals[alive] = weights[alive] * prof * elem
    else:
        vals[alive] = weights[alive] * elem
    return vals


_ACTIVE_PLAN: Optional[_Plan] = None


def _pool_block(rng: tuple) -> np.ndarray:
    return _run_block(_ACTIVE_PLAN, rng[0], rng[1])


def _run_plan(plan: _Plan) -> np.ndarray:
    global _ACTIVE_PLAN
    n = plan.cfg.samples
    ranges = [(i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK)]
    vals = np.empty(n, dtype=complex)
    workers = plan.cfg.resolve_workers()
    if workers <= 1 or len(ranges) == 1:
        for i0, i1 in ranges:
            vals[i0:i1] = _run_block(plan, i0, i1)
        return vals
    _ACTIVE_PLAN = plan
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(workers, len(ranges))) as pool:
            for (i0, i1), arr in zip(ranges, pool.map(_pool_block, ranges)):
                vals[i0:i1] = arr
    finally:
        _ACTIVE_PLAN = None
    return vals


def _reduce(vals: np.ndarray, scale: float, manifest: dict) -> Estimate:
    n = vals.size
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise FloatingPointError(
            f"{bad.size} of {n} integrand samples are non-finite; "
            f"the first is at path index {bad[0]}"
        )
    mean = vals.mean()
    var = np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1)
    stderr = float(np.sqrt(var / n))
    degenerate = not np.any(vals != 0.0)
    if degenerate:
        return Estimate(0.0j, float("nan"), n, manifest, degenerate=True)
    return Estimate(complex(scale * mean), scale * stderr, n, manifest)


def estimate_Tt_element(
    x,
    u: OneBosonVector,
    psi: StateSpec,
    t: float,
    coeffs: Coefficients,
    domain: Domain,
    cfg: MCConfig,
) -> Estimate:
    """MC estimate of <eps(u), (T_t Psi)(x)> over gated free paths."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not domain.contains(x):
        raise ValueError("the starting point must lie inside the domain")
    space = _pick_space(coeffs, u, psi.g)
    plan = _Plan(
        kind="free",
        direction="star",
        x=x,
        y=None,
        t=t,
        grid=PathGrid(t, cfg.steps),
        coeffs=coeffs,
        domain=domain,
        cfg=cfg,
        u_amp=u.amplitudes,
        g_amp=psi.g.amplitudes,
        omega=None if space is None else space.omega,
        profile=psi.profile,
    )
    vals = _run_plan(plan)
    manifest = _manifest(
        "Tt_element", cfg,
        x=list(map(float, x)), t=t, u=_complex_list(u.amplitudes),
        state=psi.describe(), coeffs=_describe_coeffs(coeffs),
        domain=domain.describe(),
    )
    return _reduce(vals, 1.0, manifest)


def estimate_kernel_element(
    x,
    y,
    u: OneBosonVector,
    g: OneBosonVector,
    t: float,
    coeffs: Coefficients,
    domain: Domain,
    cfg: MCConfig,
) -> Estimate:
    """MC estimate of <eps(u), K_t(x, y) eps(g)> over gated bridges y -> x,
    multiplied by the analytic free heat kernel."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not (domain.contains(x) and domain.contains(y)):
        raise ValueError("both kernel endpoints must lie inside the domain")
    space = _pick_space(coeffs, u, g)
    plan = _Plan(
        kind="bridge",
        direction="kernel",
        x=x,
        y=y,
        t=t,
        grid=PathGrid(t, cfg.steps),
        coeffs=coeffs,
        domain=domain,
        cfg=cfg,
        u_amp=u.amplitudes,
        g_amp=g.amplitudes,
        omega=None if space is None else space.omega,
        profile=None,
    )
    vals = _run_plan(plan)
    manifest = _manifest(
        "kernel_element", cfg,
        x=list(map(float, x)), y=list(map(float, y)), t=t,
        u=_complex_list(u.amplitudes), g=_complex_list(g.amplitudes),
        coeffs=_describe_coeffs(coeffs), domain=domain.describe(),
    )
    return _reduce(vals, heat_kernel(t, x, y), manifest)


def estimate_penalized_element(
    x, y, u, g, t, coeffs, domain, cfg: MCConfig, kappa: float, n_cap: float
) -> Estimate:
    """Kernel estimator with the exit indicator replaced by the soft
    confinement weight exp(-kappa * penalty integral)."""
    soft = replace(cfg, gating=("penalty", {"kappa": kappa, "n_cap": n_cap}))
    return estimate_kernel_element(x, y, u, g, t, coeffs, domain, soft)


def symmetry_probe(x, y, u, g, t, coeffs, domain, cfg: MCConfig):
    """Independent estimates of the kernel element at (x, y) and of the
    conjugated element at (y, x) with roles swapped."""
    first = estimate_kernel_element(x, y, u, g, t, coeffs, domain, cfg)
    cfg2 = replace(cfg, seed=cfg.seed + _SEED_OFFSET_PROBE)
    second = estimate_kernel_element(y, x, g, u, t, coeffs, domain, cfg2)
    second = Estimate(
        np.conj(second.value), second.stderr, second.n_effective,
        second.manifest, second.degenerate,
    )
    return first, second


def chapman_probe(
    s: float,
    t: float,
    x,
    u: OneBosonVector,
    psi: StateSpec,
    inner_state: StateSpec,
    coeffs: Coefficients,
    domain: Domain,
    cfg: MCConfig,
):
    """Estimates of the whole-interval state map at s + t and of the map at
    s applied to a tabulated/oracle version of the inner stage."""
    direct = estimate_Tt_element(x, u, psi, s + t, coeffs, domain, cfg)
    cfg2 = replace(cfg, seed=cfg.seed + _SEED_OFFSET_PROBE)
    if s == 0.0:
        vals = np.asarray(
            inner_state.profile(np.atleast_2d(np.asarray(x, dtype=float))),
            dtype=complex,
        )
        from .fock import ev_inner, ExpVecCombo

        elem = ev_inner(ExpVecCombo.single(u), ExpVecCombo.single(inner_state.g))
        staged = Estimate(complex(vals[0] * elem), 0.0, 1,
                          {"experiment": "identity_stage"})
    else:
        staged = estimate_Tt_element(x, u, inner_state, s, coeffs, domain, cfg2)
    return direct, staged


def _pick_space(coeffs: Coefficients, *vectors) -> Optional[OneBosonSpace]:
    if coeffs.space is not None:
        return coeffs.space
    for v in vectors:
        if v is not None:
            return v.space
    return None


def _manifest(kind: str, cfg: MCConfig, **payload) -> dict:
    payload = {"experiment": kind, "cfg": cfg.describe(), **payload}
    return {
        "experiment": kind,
        "seed": cfg.seed,
        "config_hash": _config_hash(payload),
    }
