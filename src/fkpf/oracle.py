"""Exact-diagonalization reference operators on a regular grid.

Three layers: the absorbing (Dirichlet) Schrodinger operator -Lap/2 + V, its
magnetic version with link phases (Peierls substitution, exactly
gauge-covariant on the lattice), and the full particle-field operator on
grid x truncated Fock space.  The kinetic term is assembled link by link
from the quadratic form

    1/2 sum_links || (e^{-i h A} Psi(right) - Psi(left)) / h
                      - i phi(G(left)) Psi(left) ||^2,

with Psi = 0 outside the included sites, so Hermiticity and the G = 0
tensor-product reduction hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .action import CoefficientTable, Coefficients
from .fock import NumberBasisSpace, build_dGamma, build_field
from .oneboson import OneBosonSpace, OneBosonVector
from .paths import Domain

__all__ = [
    "GridSpec",
    "DiscreteOperator",
    "build_schrodinger",
    "build_magnetic",
    "build_pauli_fierz",
    "semigroup_apply",
    "resolvent_apply",
    "diamagnetic_check",
    "diamagnetic_semigroup_check",
    "mollify_coefficients",
    "resolvent_convergence_study",
]

HERMITIAN_TOL = 1e-12
DIM_CAP = 4096


@dataclass(frozen=True)
class GridSpec:
    """Regular grid of interior points over a box; the box faces carry the
    absorbing boundary (state vanishes outside the included sites).

    axes: per-axis (lo, hi, points); site k sits at lo + (k+1) h with
    h = (hi - lo) / (points + 1).
    """

    axes: tuple

    def __post_init__(self):
        axes = tuple((float(a), float(b), int(p)) for a, b, p in self.axes)
        for a, b, p in axes:
            if not (a < b and p >= 8):
                raise ValueError("each axis needs lo < hi and at least 8 points")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def line(cls, lo: float, hi: float, points: int) -> "GridSpec":
        return cls(((lo, hi, points),))

    @property
    def nu(self) -> int:
        return len(self.axes)

    @property
    def spacing(self) -> np.ndarray:
        return np.array([(b - a) / (p + 1) for a, b, p in self.axes])

    def axis_points(self, j: int) -> np.ndarray:
        a, b, p = self.axes[j]
        h = (b - a) / (p + 1)
        return a + h * np.arange(1, p + 1)

    def sites(self) -> np.ndarray:
        """(P, nu) array of all interior grid points in row-major order."""
        grids = np.meshgrid(*[self.axis_points(j) for j in range(self.nu)],
                            indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)


@dataclass
class DiscreteOperator:
    """Dense Hermitian operator with cached spectral data."""

    matrix: np.ndarray
    sites: np.ndarray
    metadata: dict = field(default_factory=dict)
    _eig: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        dev = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
        if dev > HERMITIAN_TOL:
            raise ValueError(f"operator is not Hermitian: max deviation {dev:.3e}")
        self.metadata = {**self.metadata, "hermitian_deviation": dev}

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        if self._eig is None:
            w, v = np.linalg.eigh(self.matrix)
            self._eig = (w, v)
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem()[0]

    def dump_triplets(self, fileobj, threshold: float = 0.0):
        """Write (dimension header, then row,col,re,im triplet lines) for
        external verification."""
        fileobj.write(f"dimension,{self.dim}\n")
        fileobj.write("row,col,re,im\n")
        rows, cols = np.nonzero(np.abs(self.matrix) > threshold)
        for r, c in zip(rows, cols):
            v = self.matrix[r, c]
            fileobj.write(
                f"{r},{c},{format(v.real, '.17g')},{format(v.imag, '.17g')}\n"
            )

    def eigenvalue_report(self, fileobj, count: int = None):
        """CSV of the lowest eigenvalues."""
        w = self.eigenvalues()
        if count is not None:
            w = w[:count]
        fileobj.write("index,eigenvalue\n")
        for i, val in enumerate(w):
            fileobj.write(f"{i},{format(val, '.17g')}\n")


def _included_sites(grid: GridSpec, domain: Domain) -> np.ndarray:
    sites = grid.sites()
    mask = domain.contains(sites)
    return sites[mask]


def _site_lookup(sites: np.ndarray) -> dict:
    return {tuple(np.round(s, 12)): i for i, s in enumerate(sites)}


def _links(grid: GridSpec, sites: np.ndarray):
    """Yield (j, left_index or None, right_index or None, midpoint) per link.

    Links connect each included site to its neighbor at +h e_j; links whose
    one endpoint leaves the included set contribute the absorbing boundary
    diagonal.  Each link is produced once.
    """
    lookup = _site_lookup(sites)
    h = grid.spacing
    for j in range(grid.nu):
        step = np.zeros(grid.nu)
        step[j] = h[j]
        for idx, x in enumerate(sites):
            right = tuple(np.round(x + step, 12))
            ridx = lookup.get(right)
            yield j, idx, ridx, x + 0.5 * step
            left = tuple(np.round(x - step, 12))
            if left not in lookup:
                # boundary link entering from outside: right endpoint is x
                yield j, None, idx, x - 0.5 * step


def _gauge_angles(gauge: Optional[Callable], xl, xr):
    if gauge is None:
        return 0.0
    return float(gauge(np.atleast_2d(xr))[0] - gauge(np.atleast_2d(xl))[0])


def build_schrodinger(
    grid: GridSpec,
    domain: Domain,
    V: Optional[Callable] = None,
    U: Optional[Callable] = None,
) -> DiscreteOperator:
    """Absorbing Schrodinger operator -Lap_h/2 + V - U on the included sites."""
    return build_magnetic(grid, domain, A=None, V=V, U=U)


def build_magnetic(
    grid: GridSpec,
    domain: Domain,
    A: Optional[Callable] = None,
    V: Optional[Callable] = None,
    U: Optional[Callable] = None,
    gauge: Optional[Callable] = None,
) -> DiscreteOperator:
    """Magnetic Schrodinger operator with link phases e^{-i h A_j(midpoint)}.

    An optional gauge function adds the discrete gradient g(right) - g(left)
    to every link angle, conjugating the operator by diag(e^{i g}) exactly.
    """
    sites = _included_sites(grid, domain)
    p_count = sites.shape[0]
    if p_count == 0:
        raise ValueError("no grid sites fall inside the domain")
    if p_count > DIM_CAP:
        raise MemoryError(f"operator dimension {p_count} exceeds cap {DIM_CAP}")
    h = grid.spacing
    out = np.zeros((p_count, p_count), dtype=complex)
    for j, il, ir, mid in _links(grid, sites):
        c = 0.5 / h[j] ** 2
        if il is not None:
            out[il, il] += c
        if ir is not None:
            out[ir, ir] += c
        if il is not None and ir is not None:
            angle = 0.0
            if A is not None:
                angle += h[j] * float(np.asarray(A(mid[None, :]))[0, j])
            xl, xr = sites[il], sites[ir]
            angle += _gauge_angles(gauge, xl, xr)
            phase = np.exp(-1j * angle)
            out[il, ir] += -c * phase
            out[ir, il] += -c * np.conj(phase)
    diag = np.zeros(p_count)
    if V is not None:
        diag = diag + np.asarray(V(sites), dtype=float)
    if U is not None:
        diag = diag - np.asarray(U(sites), dtype=float)
    out[np.diag_indices(p_count)] += diag
    meta = {"terms": "kinetic+V" if A is None else "kinetic+A+V", "nu": grid.nu}
    return DiscreteOperator(out, sites, meta)


def build_pauli_fierz(
    grid: GridSpec,
    domain: Domain,
    coeffs: Coefficients,
    nspace: NumberBasisSpace,
    gauge: Optional[Callable] = None,
) -> DiscreteOperator:
    """Particle-field operator on (included sites) x (truncated Fock basis).

    Covariant term per link (left endpoint x, right endpoint x'):
        1/2 || (e^{-i theta} Psi(x') - Psi(x)) / h - i phi(G_j(x)) Psi(x) ||^2
    plus site-diagonal V and the field energy.  With G = 0 this reduces
    bitwise to build_magnetic tensor identity plus identity tensor dGamma.
    """
    if grid.nu > 2:
        raise ValueError("the full particle-field oracle is capped at nu <= 2")
    sites = _included_sites(grid, domain)
    p_count = sites.shape[0]
    fdim = nspace.dim
    dim = p_count * fdim
    if dim > DIM_CAP:
        raise MemoryError(
            f"operator dimension {dim} = {p_count} sites x {fdim} Fock states "
            f"exceeds cap {DIM_CAP}"
        )
    h = grid.spacing
    eye_f = np.eye(fdim, dtype=complex)
    gvals = None
    if coeffs.G is not None:
        gvals = np.asarray(coeffs.G(sites), dtype=float)  # (P, nu, M)
    space = coeffs.space

    def phi_at(site_idx: int, j: int) -> Optional[np.ndarray]:
        if gvals is None:
            return None
        g = gvals[site_idx, j, :]
        if not np.any(g):
            return None
        return build_field(nspace, OneBosonVector(space, g.astype(complex)))

    out = np.zeros((dim, dim), dtype=complex)

    def block(i, k):
        return out[i * fdim : (i + 1) * fdim, k * fdim : (k + 1) * fdim]

    for j, il, ir, mid in _links(grid, sites):
        c = 0.5 / h[j] ** 2
        if il is not None:
            block(il, il)[np.diag_indices(fdim)] += c
            phi = phi_at(il, j)
            if phi is not None:
                block(il, il)[...] += 0.5 * (phi @ phi)
        if ir is not None:
            block(ir, ir)[np.diag_indices(fdim)] += c
        if il is not None and ir is not None:
            angle = 0.0
            if coeffs.A is not None:
                angle += h[j] * float(np.asarray(coeffs.A(mid[None, :]))[0, j])
            angle += _gauge_angles(gauge, sites[il], sites[ir])
            phase = np.exp(-1j * angle)
            block(il, ir)[np.diag_indices(fdim)] += -c * phase
            block(ir, il)[np.diag_indices(fdim)] += -c * np.conj(phase)
            phi = phi_at(il, j)
            if phi is not None:
                cross = (0.5j / h[j]) * phase * phi
                block(il, ir)[...] += cross
                block(ir, il)[...] += cross.conj().T
    if coeffs.V is not None:
        vvals = np.asarray(coeffs.V(sites), dtype=float)
        for i in range(p_count):
            block(i, i)[np.diag_indices(fdim)] += vvals[i]
    if coeffs.U is not None:
        uvals = np.asarray(coeffs.U(sites), dtype=float)
        for i in range(p_count):
            block(i, i)[np.diag_indices(fdim)] -= uvals[i]
    dgamma = build_dGamma(nspace)
    for i in range(p_count):
        block(i, i)[...] += dgamma
    meta = {"terms": "covariant+V+dGamma", "fock_dim": fdim, "nu": grid.nu}
    return DiscreteOperator(out, sites, meta)


def _to_eigenbasis(v: np.ndarray, vec) -> np.ndarray:
    """V^H vec for a vector or a matrix of column vectors, computed as
    (vec^H V)^H so that no conjugated copy of the eigenvector matrix is made."""
    return (np.asarray(vec, dtype=complex).conj().T @ v).conj().T


def semigroup_apply(op: DiscreteOperator, t: float, vec: np.ndarray) -> np.ndarray:
    """e^{-tH} vec via the cached eigendecomposition."""
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    w, v = op.eigensystem()
    return v @ (np.exp(-t * w) * _to_eigenbasis(v, vec))


def resolvent_apply(op: DiscreteOperator, E: float, vec: np.ndarray) -> np.ndarray:
    """(H + E)^{-1} vec; requires the shifted operator to be positive."""
    w, v = op.eigensystem()
    if w[0] + E <= 0:
        raise ValueError(
            f"indefinite shift: E = {E} does not dominate -min eigenvalue {-w[0]}"
        )
    return v @ (_to_eigenbasis(v, vec) / (w + E))


def diamagnetic_check(
    h_pf: DiscreteOperator,
    s_sch: DiscreteOperator,
    E: float,
    phi: np.ndarray,
    tol: float = 1e-10,
):
    """Sitewise fiber-norm domination of the coupled resolvent.

    Verifies || ((H+E)^{-1} Phi)(x) ||_F <= ((S+E)^{-1} ||Phi||_F)(x) + tol
    and returns (holds, max violation).
    """
    p_count = s_sch.dim
    fdim = h_pf.dim // p_count
    phi = np.asarray(phi, dtype=complex).reshape(p_count, fdim)
    lhs_full = resolvent_apply(h_pf, E, phi.reshape(-1)).reshape(p_count, fdim)
    lhs = np.linalg.norm(lhs_full, axis=1)
    rhs = resolvent_apply(s_sch, E, np.linalg.norm(phi, axis=1)).real
    violation = float((lhs - rhs).max())
    return violation <= tol, violation


def diamagnetic_semigroup_check(
    h_pf: DiscreteOperator,
    s_sch: DiscreteOperator,
    t: float,
    phi: np.ndarray,
    tol: float = 1e-10,
):
    """Semigroup corollary of the resolvent domination, tested directly:
    sitewise || (e^{-tH} Phi)(x) ||_F <= (e^{-tS} ||Phi||_F)(x) + tol."""
    p_count = s_sch.dim
    fdim = h_pf.dim // p_count
    phi = np.asarray(phi, dtype=complex).reshape(p_count, fdim)
    lhs_full = semigroup_apply(h_pf, t, phi.reshape(-1)).reshape(p_count, fdim)
    lhs = np.linalg.norm(lhs_full, axis=1)
    rhs = semigroup_apply(s_sch, t, np.linalg.norm(phi, axis=1)).real
    violation = float((lhs - rhs).max())
    return violation <= tol, violation


# -- mollification and the resolvent-convergence experiment ------------------


def _bump_kernel_1d(width: float, h: float) -> np.ndarray:
    """Sampled compactly supported smooth bump of the given radius,
    normalized so that h * sum = 1; collapses to a delta when width < h."""
    half = int(np.floor(width / h))
    if half < 1:
        return np.array([1.0 / h])
    xs = np.arange(-half, half + 1) * h / width
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(np.abs(xs) < 1.0, np.exp(-1.0 / (1.0 - xs**2)), 0.0)
    return vals / (vals.sum() * h)


def _smooth_cutoff(s: np.ndarray) -> np.ndarray:
    """C-infinity transition: 1 on s <= 1, 0 on s >= 2."""
    def f(u):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
    return f(2.0 - s) / (f(2.0 - s) + f(s - 1.0))


def mollify_coefficients(table: CoefficientTable, n: int):
    """Mollified coefficient table: A -> bump_n * (cutoff_n A) and
    G -> bump_n * (cutoff_n 1_{[1/n, n]}(omega) G), with the reported
    L2 distances to the originals.

    The bump has radius 1/n; the spatial cutoff removes mass beyond |x| = 2n;
    the frequency filter zeroes modes with dispersion outside [1/n, n].
    """
    if table.nu != 1:
        raise NotImplementedError("mollification is implemented for 1-d tables")
    if n < 1:
        raise ValueError("mollification index must be >= 1")
    from scipy.ndimage import convolve1d

    h = float(table.spacing()[0])
    xs = table.axes()[0]
    chi = _smooth_cutoff(np.abs(xs) / n)
    kern = _bump_kernel_1d(1.0 / n, h)

    def smooth(arr):
        return convolve1d(arr * chi, kern, mode="constant", cval=0.0) * h

    report = {"n": n, "bump_points": kern.size}
    new_a = None
    if table.A is not None:
        new_a = np.stack([smooth(table.A[j]) for j in range(table.nu)])
        report["a_l2_distance"] = float(
            np.sqrt(h * np.sum((new_a - table.A) ** 2))
        )
    new_g = None
    if table.G is not None:
        keep = (table.omega >= 1.0 / n) & (table.omega <= n)
        filtered = table.G * keep[None, :, None]
        new_g = np.stack(
            [
                np.stack([smooth(filtered[j, m]) for m in range(table.omega.size)])
                for j in range(table.nu)
            ]
        )
        report["g_l2_distance"] = float(
            np.sqrt(h * np.sum((new_g - table.G) ** 2))
        )
    new_table = CoefficientTable(
        lo=table.lo, hi=table.hi, shape=table.shape, omega=table.omega,
        A=new_a, V=table.V, G=new_g,
    )
    return new_table, report


def resolvent_convergence_study(
    grid: GridSpec,
    domain: Domain,
    table: CoefficientTable,
    nspace: NumberBasisSpace,
    n_list,
    E: float,
    phi: np.ndarray,
):
    """Norms ||(H^n + E)^{-1} phi - (H + E)^{-1} phi|| for the mollified
    coefficient sequence on a fixed grid and truncation.

    Returns a list of per-n report rows; the limit operator uses the
    unmollified table directly.
    """
    space = OneBosonSpace(table.omega)
    base = build_pauli_fierz(
        grid, domain, table.to_coefficients(space), nspace
    )
    ref = resolvent_apply(base, E, phi)
    rows = []
    for n in n_list:
        mtable, report = mollify_coefficients(table, n)
        h_n = build_pauli_fierz(
            grid, domain, mtable.to_coefficients(space, smoothness="regular"), nspace
        )
        val = resolvent_apply(h_n, E, phi)
        report["resolvent_diff"] = float(np.linalg.norm(val - ref))
        report["E"] = E
        rows.append(report)
    return rows
