"""Discrete complex action and field-displacement atom sum along paths.

Two evaluation routes are provided.  The default route uses trapezoid
(endpoint-average) sums, which equal the average of the forward Ito sum and
the backward Ito sum along the time-reversed path on the same grid, so the
two-filtration construction collapses to one discrete object:

    S = int (V - U) ds  -  i * strat(A),            strat = (fwd + bwd) / 2
    K = sum_l [ atom(s_{l-1}, G(B_{l-1}).dB_l / 2) + atom(s_l, G(B_l).dB_l / 2) ]

The divergence route uses forward Ito sums plus 1/2 the time integral of the
divergence, valid for differentiable coefficients; both routes converge to
each other as the step size shrinks and feed the consistency diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .oneboson import NelsonVector, OneBosonSpace
from .paths import Domain, SampledPath, exit_time

__all__ = [
    "Coefficients",
    "ActionResult",
    "CoefficientTable",
    "stratonovich_scalar",
    "compute_S",
    "compute_K",
    "compute_S_div",
    "compute_K_div",
    "action_block",
    "divergence_action_block",
    "divergence_atoms_block",
    "localize_gate",
    "evaluate_action",
    "merge_atoms",
]


@dataclass
class Coefficients:
    """Coefficient triple (A, V, G) plus optional negative part and divergences.

    All callables must be vectorized over points: for points of shape
    (L, nu) they return A -> (L, nu), V/U/divA -> (L,), G -> (L, nu, M),
    divG -> (L, M).  G and divG values must be real (completely real
    subspace); ``space`` fixes the boson modes whenever G is present.
    """

    A: Optional[Callable] = None
    V: Optional[Callable] = None
    U: Optional[Callable] = None
    G: Optional[Callable] = None
    divA: Optional[Callable] = None
    divG: Optional[Callable] = None
    smoothness: str = "regular"
    space: Optional[OneBosonSpace] = None

    def __post_init__(self):
        if self.G is not None and self.space is None:
            raise ValueError("coefficients with a coupling function need a mode space")
        if self.smoothness not in ("regular", "singular"):
            raise ValueError("smoothness tag must be 'regular' or 'singular'")


@dataclass
class ActionResult:
    """Assembled (S, K) pair with gating weight and route diagnostics."""

    S: complex
    K: NelsonVector
    gated: float
    diagnostics: dict = field(default_factory=dict)


def _potential_terms(path: SampledPath, coeffs: Coefficients) -> np.ndarray:
    """Per-step trapezoid contributions of V - U along the path."""
    n = path.grid.steps
    vals = np.zeros(n + 1)
    if coeffs.V is not None:
        vals = vals + np.asarray(coeffs.V(path.positions), dtype=float)
    if coeffs.U is not None:
        vals = vals - np.asarray(coeffs.U(path.positions), dtype=float)
    return 0.5 * path.grid.dt * (vals[:-1] + vals[1:])


def _vector_sums(path: SampledPath, coeffs: Coefficients):
    """Per-step forward and backward Ito terms of the A line integral."""
    n = path.grid.steps
    if coeffs.A is None:
        zeros = np.zeros(n)
        return zeros, zeros
    avals = np.asarray(coeffs.A(path.positions), dtype=float)
    db = path.increments()
    fwd = np.einsum("lj,lj->l", avals[:-1], db)
    bwd = np.einsum("lj,lj->l", avals[1:], db)
    return fwd, bwd


def stratonovich_scalar(path: SampledPath, a_field: Callable) -> float:
    """Trapezoid line integral of the vector field along the path.

    Returned as the exact average of the forward Ito sum (left endpoints)
    and the backward Ito sum along the reversal (right endpoints).
    """
    probe = Coefficients(A=a_field)
    fwd, bwd = _vector_sums(path, probe)
    return 0.5 * (math.fsum(fwd) + math.fsum(bwd))


def compute_S(path: SampledPath, coeffs: Coefficients) -> complex:
    """Complex action: trapezoid of V - U minus i times the trapezoid line
    integral of A.  The real part is exactly the potential trapezoid."""
    re = math.fsum(_potential_terms(path, coeffs))
    fwd, bwd = _vector_sums(path, coeffs)
    im = -0.5 * (math.fsum(fwd) + math.fsum(bwd))
    return complex(re, im)


def _coupling_values(positions: np.ndarray, coeffs: Coefficients) -> np.ndarray:
    """G at every point of a path, (n+1, nu, M), or of a block of paths,
    (B, n+1, nu, M)."""
    gvals = np.asarray(coeffs.G(positions), dtype=float)
    expected = positions.shape + (coeffs.space.mode_count,)
    if gvals.shape != expected:
        raise ValueError(f"coupling values have shape {gvals.shape}, want {expected}")
    return gvals


def compute_K(path: SampledPath, coeffs: Coefficients,
              space: Optional[OneBosonSpace] = None) -> NelsonVector:
    """Atom sum of the field displacement along the path.

    One atom per grid time after merging the two per-step endpoint atoms;
    all weights and vectors are real.
    """
    space = coeffs.space if coeffs.space is not None else space
    if space is None:
        raise ValueError("compute_K needs a mode space")
    if coeffs.G is None:
        return NelsonVector.empty(space)
    gvals = _coupling_values(path.positions, coeffs)
    db = path.increments()
    n = path.grid.steps
    pad = np.zeros((1, path.nu))
    db_next = np.concatenate([db, pad], axis=0)
    db_prev = np.concatenate([pad, db], axis=0)
    # kept as a sum of two separate products so that concatenating the atom
    # sums of two sub-paths reproduces these vectors bitwise
    amps = 0.5 * np.einsum("ljm,lj->lm", gvals, db_prev) + 0.5 * np.einsum(
        "ljm,lj->lm", gvals, db_next
    )
    return NelsonVector(space, path.grid.times, np.ones(n + 1, dtype=complex), amps)


def _require_regular(coeffs: Coefficients):
    if coeffs.smoothness != "regular":
        raise ValueError("divergence form requires regular coefficients")


def _potential_block(positions: np.ndarray, coeffs: Coefficients, dt: float):
    """Trapezoid integral of V - U along each path of a block, (B,)."""
    if coeffs.V is None and coeffs.U is None:
        return np.zeros(positions.shape[0])
    pot = np.zeros(positions.shape[:2])
    if coeffs.V is not None:
        pot = pot + np.asarray(coeffs.V(positions), dtype=float)
    if coeffs.U is not None:
        pot = pot - np.asarray(coeffs.U(positions), dtype=float)
    return 0.5 * dt * (pot[:, :-1] + pot[:, 1:]).sum(axis=1)


def _padded_increments(db: np.ndarray):
    """The increments dB_l of a block, (B, n, nu), zero-padded to n+1 rows
    before (dB_l at time l) and after (dB_{l+1} at time l)."""
    pad = np.zeros((db.shape[0], 1, db.shape[2]))
    return np.concatenate([pad, db], axis=1), np.concatenate([db, pad], axis=1)


def action_block(positions: np.ndarray, coeffs: Coefficients, dt: float):
    """Trapezoid route over a (B, n+1, nu) block of paths.

    Returns S, complex (B,), and the merged atom amplitudes of K, real
    (B, n+1, M), or None when G is absent: the quantities of
    :func:`compute_S` and :func:`compute_K` for every path at once.
    """
    s_re = _potential_block(positions, coeffs, dt)
    s_im = np.zeros(positions.shape[0])
    db = np.diff(positions, axis=1)
    if coeffs.A is not None:
        avals = np.asarray(coeffs.A(positions), dtype=float)
        fwd = np.einsum("blj,blj->b", avals[:, :-1, :], db)
        bwd = np.einsum("blj,blj->b", avals[:, 1:, :], db)
        s_im = -0.5 * (fwd + bwd)
    s_val = s_re + 1j * s_im
    if coeffs.G is None:
        return s_val, None
    gvals = np.asarray(coeffs.G(positions), dtype=float)
    db_prev, db_next = _padded_increments(db)
    amps = 0.5 * np.einsum("bljm,blj->blm", gvals, db_prev) + 0.5 * np.einsum(
        "bljm,blj->blm", gvals, db_next
    )
    return s_val, amps


def divergence_action_block(positions: np.ndarray, coeffs: Coefficients,
                            dt: float) -> np.ndarray:
    """Divergence-form action of a (B, n+1, nu) block, complex (B,): the
    potential trapezoid minus i times (forward Ito sum of A plus half the
    trapezoid integral of divA)."""
    _require_regular(coeffs)
    if coeffs.A is not None and coeffs.divA is None:
        raise ValueError("divergence form needs divA alongside A")
    s_re = _potential_block(positions, coeffs, dt)
    s_im = np.zeros(positions.shape[0])
    if coeffs.A is not None:
        avals = np.asarray(coeffs.A(positions), dtype=float)
        db = np.diff(positions, axis=1)
        s_im = -np.einsum("blj,blj->b", avals[:, :-1, :], db)
    if coeffs.divA is not None:
        divvals = np.asarray(coeffs.divA(positions), dtype=float)
        s_im = s_im - 0.5 * (0.5 * dt * (divvals[:, :-1] + divvals[:, 1:])).sum(axis=1)
    return s_re + 1j * s_im


def divergence_atoms_block(positions: np.ndarray, coeffs: Coefficients, dt: float):
    """Divergence-form atoms of a (B, n+1, nu) block, or None when G is absent.

    Returns (ito_amps, div_amps), each real (B, n+1, M): the left-endpoint
    Ito atoms G(B_l).dB_{l+1} (zero at the last time) and the divG atoms
    carrying half the trapezoid time weights.
    """
    _require_regular(coeffs)
    if coeffs.G is None:
        return None
    if coeffs.divG is None:
        raise ValueError("divergence form needs divG alongside G")
    gvals = _coupling_values(positions, coeffs)
    _, db_next = _padded_increments(np.diff(positions, axis=1))
    ito_amps = np.einsum("bljm,blj->blm", gvals, db_next)
    divvals = np.asarray(coeffs.divG(positions), dtype=float)
    tw = np.ones(positions.shape[1])
    tw[0] = tw[-1] = 0.5
    div_amps = 0.5 * dt * tw[:, None] * divvals
    return ito_amps, div_amps


def compute_S_div(path: SampledPath, coeffs: Coefficients) -> complex:
    """Divergence-form action: forward Ito sum plus half the divA integral;
    the one-path view of :func:`divergence_action_block`."""
    return complex(
        divergence_action_block(path.positions[None], coeffs, path.grid.dt)[0]
    )


def compute_K_div(path: SampledPath, coeffs: Coefficients,
                  space: Optional[OneBosonSpace] = None) -> NelsonVector:
    """Divergence-form atom sum: left-endpoint Ito atoms plus divG atoms
    carrying half the trapezoid time weights; the one-path view of
    :func:`divergence_atoms_block`."""
    atoms = divergence_atoms_block(path.positions[None], coeffs, path.grid.dt)
    space = coeffs.space if coeffs.space is not None else space
    if space is None:
        raise ValueError("compute_K_div needs a mode space")
    if atoms is None:
        return NelsonVector.empty(space)
    ito_amps, div_amps = atoms
    times = np.concatenate([path.grid.times, path.grid.times])
    weights = np.ones(times.size, dtype=complex)
    vectors = np.concatenate([ito_amps[0], div_amps[0]], axis=0)
    return NelsonVector(space, times, weights, vectors)


def merge_atoms(big_k: NelsonVector) -> NelsonVector:
    """Sum atom vectors sharing the same time, in encounter order."""
    order = {}
    for i, s in enumerate(big_k.times):
        order.setdefault(float(s), []).append(i)
    times, vectors = [], []
    for s, idxs in sorted(order.items()):
        acc = np.zeros(big_k.space.mode_count, dtype=complex)
        for i in idxs:
            acc = acc + big_k.weights[i] * big_k.vectors[i]
        times.append(s)
        vectors.append(acc)
    return NelsonVector(
        big_k.space,
        np.array(times),
        np.ones(len(times), dtype=complex),
        np.array(vectors),
    )


def localize_gate(path: SampledPath, domain: Domain, correction: str = "none") -> float:
    """Survival weight of the path; coefficients of gated-out paths are
    never evaluated by the estimators."""
    _, weight = exit_time(path, domain, correction)
    return weight


def evaluate_action(
    path: SampledPath,
    coeffs: Coefficients,
    domain: Optional[Domain] = None,
    correction: str = "none",
    space: Optional[OneBosonSpace] = None,
    with_divergence_check: bool = False,
) -> ActionResult:
    """Gate the path, then assemble (S, K); exited paths short-circuit."""
    weight = 1.0 if domain is None else localize_gate(path, domain, correction)
    space = coeffs.space if coeffs.space is not None else space
    if weight == 0.0:
        empty = NelsonVector.empty(space) if space is not None else None
        return ActionResult(0.0 + 0.0j, empty, 0.0, {"gated_out": True})
    s_val = compute_S(path, coeffs)
    k_val = compute_K(path, coeffs, space) if space is not None else None
    fwd, bwd = _vector_sums(path, coeffs)
    diag = {
        "ito_forward": math.fsum(fwd),
        "ito_backward": math.fsum(bwd),
        "stratonovich": -s_val.imag,
        "potential_trapezoid": s_val.real,
    }
    if with_divergence_check and coeffs.smoothness == "regular":
        if coeffs.A is None or coeffs.divA is not None:
            diag["S_div"] = compute_S_div(path, coeffs)
        if coeffs.G is not None and coeffs.divG is not None:
            diag["K_div"] = compute_K_div(path, coeffs, space)
    return ActionResult(s_val, k_val, weight, diag)


# -- coefficient tables ------------------------------------------------------


@dataclass
class CoefficientTable:
    """Sampled coefficients on a regular grid over a box.

    File layout (npz): scalars ``nu``, ``mode_count``; arrays ``lo``, ``hi``,
    ``shape`` (grid extents and per-axis resolution), ``omega`` (M,), and
    row-major real arrays ``A`` (nu, *shape), ``V`` (*shape), ``G``
    (nu, M, *shape); absent blocks are stored empty.  Evaluation outside the
    box extends by zero.
    """

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple
    omega: np.ndarray
    A: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    G: Optional[np.ndarray] = None

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        self.shape = tuple(int(s) for s in np.atleast_1d(self.shape))
        self.omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        nu = self.lo.size
        if self.A is not None and np.asarray(self.A).shape != (nu, *self.shape):
            raise ValueError("A block has inconsistent shape")
        if self.V is not None and np.asarray(self.V).shape != self.shape:
            raise ValueError("V block has inconsistent shape")
        if self.G is not None and np.asarray(self.G).shape != (
            nu,
            self.omega.size,
            *self.shape,
        ):
            raise ValueError("G block has inconsistent shape")

    @property
    def nu(self) -> int:
        return self.lo.size

    def axes(self):
        return [
            np.linspace(self.lo[j], self.hi[j], self.shape[j])
            for j in range(self.nu)
        ]

    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / (np.array(self.shape) - 1)

    def save(self, filename):
        np.savez(
            filename,
            nu=self.nu,
            mode_count=self.omega.size,
            lo=self.lo,
            hi=self.hi,
            shape=np.array(self.shape),
            omega=self.omega,
            A=self.A if self.A is not None else np.zeros(0),
            V=self.V if self.V is not None else np.zeros(0),
            G=self.G if self.G is not None else np.zeros(0),
        )

    @classmethod
    def load(cls, filename) -> "CoefficientTable":
        data = np.load(filename)
        def block(name):
            arr = data[name]
            return None if arr.size == 0 else arr
        return cls(
            lo=data["lo"],
            hi=data["hi"],
            shape=tuple(data["shape"]),
            omega=data["omega"],
            A=block("A"),
            V=block("V"),
            G=block("G"),
        )

    def _interpolator(self, values):
        from scipy.interpolate import RegularGridInterpolator

        return RegularGridInterpolator(
            self.axes(), values, bounds_error=False, fill_value=0.0
        )

    def to_coefficients(self, space: Optional[OneBosonSpace] = None,
                        smoothness: str = "singular") -> Coefficients:
        """Multilinear-interpolation coefficient callables backed by the table."""
        if space is None and self.G is not None:
            space = OneBosonSpace(self.omega)
        a_fn = v_fn = g_fn = None
        if self.A is not None:
            interps = [self._interpolator(self.A[j]) for j in range(self.nu)]
            def a_fn(x, _interps=interps):
                pts = np.asarray(x, dtype=float)
                return np.stack([ip(pts) for ip in _interps], axis=-1)
        if self.V is not None:
            v_int = self._interpolator(self.V)
            def v_fn(x, _ip=v_int):
                return _ip(np.asarray(x, dtype=float))
        if self.G is not None:
            m_count = self.omega.size
            g_interps = [
                [self._interpolator(self.G[j, m]) for m in range(m_count)]
                for j in range(self.nu)
            ]
            def g_fn(x, _g=g_interps):
                pts = np.asarray(x, dtype=float)
                return np.stack(
                    [np.stack([ip(pts) for ip in row], axis=-1) for row in _g],
                    axis=-2,
                )
        return Coefficients(A=a_fn, V=v_fn, G=g_fn, smoothness=smoothness, space=space)
