"""Brownian motion and Brownian bridge sampling, time reversal, first-exit
detection for open domains, and the soft-confinement penalty integral.

Randomness contract: every path is generated from its own counter-based
stream keyed by (global seed, path index), so results are bitwise
reproducible regardless of how paths are partitioned across workers.

A block sampler builds one Philox bit generator per call and re-keys it for
each path: it sets the 128-bit key, zeroes the counter and empties the
output buffer, which leaves the generator in the state a fresh
``Philox(key=...)`` starts in.  The streams are the same bytes as with one
generator per path, without the per-path construction cost (numpy's
constructor also draws a throwaway ``SeedSequence`` from OS entropy).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

__all__ = [
    "Domain",
    "PathGrid",
    "SampledPath",
    "stream_generator",
    "sample_bm",
    "sample_bridge",
    "sample_bm_block",
    "sample_bridge_block",
    "reverse",
    "exit_time",
    "exit_weights_block",
    "penalty_integral",
    "penalty_integral_block",
    "holder_diagnostic",
    "dump_paths",
]


@dataclass(frozen=True)
class Domain:
    """Open subset of R^nu with a distance-to-complement function.

    kinds: 'all_space', 'interval' (a, b), 'box' (lo, hi), 'ball'
    (center, radius), 'half_space' {x : n.x < c} (params normal, offset).
    dist(x) > 0 iff x lies in the domain; 0 on the boundary and outside.
    """

    kind: str
    nu: int
    params: tuple = ()

    @classmethod
    def all_space(cls, nu: int = 1) -> "Domain":
        return cls("all_space", nu)

    @classmethod
    def interval(cls, a: float, b: float) -> "Domain":
        if not a < b:
            raise ValueError("interval needs a < b")
        return cls("interval", 1, (float(a), float(b)))

    @classmethod
    def box(cls, lo, hi) -> "Domain":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or not np.all(lo < hi):
            raise ValueError("box needs lo < hi per axis")
        return cls("box", lo.size, (tuple(lo), tuple(hi)))

    @classmethod
    def ball(cls, center, radius: float) -> "Domain":
        center = np.asarray(center, dtype=float)
        if radius <= 0:
            raise ValueError("ball needs radius > 0")
        return cls("ball", center.size, (tuple(center), float(radius)))

    @classmethod
    def half_space(cls, normal, offset: float) -> "Domain":
        normal = np.asarray(normal, dtype=float)
        norm = np.linalg.norm(normal)
        if norm == 0:
            raise ValueError("half space needs a nonzero normal")
        return cls("half_space", normal.size, (tuple(normal / norm), float(offset / norm)))

    def dist(self, x) -> np.ndarray:
        """Distance to the complement for points of shape (..., nu)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.nu:
            raise ValueError("point dimension does not match the domain")
        if self.kind == "all_space":
            return np.full(x.shape[:-1], np.inf)
        if self.kind == "interval":
            a, b = self.params
            xi = x[..., 0]
            return np.maximum(0.0, np.minimum(xi - a, b - xi))
        if self.kind == "box":
            lo = np.asarray(self.params[0])
            hi = np.asarray(self.params[1])
            per_axis = np.minimum(x - lo, hi - x)
            return np.maximum(0.0, per_axis.min(axis=-1))
        if self.kind == "ball":
            center = np.asarray(self.params[0])
            radius = self.params[1]
            return np.maximum(0.0, radius - np.linalg.norm(x - center, axis=-1))
        if self.kind == "half_space":
            normal = np.asarray(self.params[0])
            offset = self.params[1]
            return np.maximum(0.0, offset - x @ normal)
        raise ValueError(f"unknown domain kind {self.kind!r}")

    def contains(self, x) -> np.ndarray:
        return self.dist(x) > 0.0

    def shrink(self, eps: float) -> "Domain":
        """Exhausting subdomain {dist > eps} of the same shape family."""
        if eps < 0:
            raise ValueError("shrink needs eps >= 0")
        if self.kind == "all_space" or eps == 0.0:
            return self
        if self.kind == "interval":
            a, b = self.params
            return Domain.interval(a + eps, b - eps)
        if self.kind == "box":
            lo = np.asarray(self.params[0]) + eps
            hi = np.asarray(self.params[1]) - eps
            return Domain.box(lo, hi)
        if self.kind == "ball":
            return Domain.ball(self.params[0], self.params[1] - eps)
        if self.kind == "half_space":
            return Domain("half_space", self.nu, (self.params[0], self.params[1] - eps))
        raise ValueError(f"unknown domain kind {self.kind!r}")

    def describe(self) -> dict:
        return {"kind": self.kind, "nu": self.nu, "params": self.params}


@dataclass(frozen=True)
class PathGrid:
    """Uniform partition of [0, t] into n steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0 or self.steps < 1:
            raise ValueError("need horizon > 0 and at least one step")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class SampledPath:
    """Discrete path with optional exit metadata attached by exit_time."""

    grid: PathGrid
    positions: np.ndarray  # (n+1, nu)
    kind: str  # 'free' | 'bridge'
    start: np.ndarray
    end: Optional[np.ndarray] = None
    exit_index: Optional[int] = None
    crossing_flag: bool = False

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] != self.grid.steps + 1:
            raise ValueError("positions must have shape (steps + 1, nu)")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def nu(self) -> int:
        return self.positions.shape[1]

    def increments(self) -> np.ndarray:
        return np.diff(self.positions, axis=0)


_U64 = 0xFFFFFFFFFFFFFFFF


def stream_generator(
    seed: int, index: int, bitgen: Optional[np.random.Philox] = None
) -> np.random.Generator:
    """Counter-based stream keyed by (seed, path index).

    The Philox key is the 128-bit integer (seed mod 2^64) * 2^64 + (index
    mod 2^64), i.e. key words [index, seed].  Without ``bitgen`` a new Philox
    is built.  With one, that generator is re-keyed in place (counter 0,
    buffer empty, no cached 32-bit half) and wrapped; the draws are then
    identical to a fresh generator's, whatever state ``bitgen`` was left in.
    The previous stream drawn from ``bitgen`` is gone after the call.
    """
    key = (int(index) & _U64, int(seed) & _U64)
    if bitgen is None:
        return np.random.Generator(np.random.Philox(key=key[0] | key[1] << 64))
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bitgen)


def _as_generator(stream) -> np.random.Generator:
    if isinstance(stream, np.random.Generator):
        return stream
    seed, index = stream
    return stream_generator(seed, index)


def _normals_block(seed, index0, count, n, nu, antithetic=False):
    """(count, n, nu) standard normals; row i comes from stream (seed, i0+i).

    With antithetic=True, consecutive index pairs share a stream and the odd
    member uses the negated draws.
    """
    out = np.empty((count, n, nu))
    bitgen = np.random.Philox(0)
    for i in range(count):
        idx = index0 + i
        stream = idx // 2 if antithetic else idx
        stream_generator(seed, stream, bitgen).standard_normal((n, nu), out=out[i])
        if antithetic and idx % 2:
            np.negative(out[i], out=out[i])
    return out


def sample_bm_block(seed, index0, count, x, grid: PathGrid, antithetic=False):
    """(count, n+1, nu) Brownian paths started at x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = _normals_block(seed, index0, count, grid.steps, x.size, antithetic)
    pos = np.empty((count, grid.steps + 1, x.size))
    pos[:, 0, :] = x
    np.cumsum(np.sqrt(grid.dt) * z, axis=1, out=pos[:, 1:, :])
    pos[:, 1:, :] += x
    return pos


def sample_bridge_block(
    seed, index0, count, y, x, grid: PathGrid, method="exact", antithetic=False
):
    """(count, n+1, nu) bridge paths from y to x over the grid horizon.

    'exact' draws each step from the Gaussian conditional law of the bridge;
    'euler' discretizes the bridge drift (x - b)/(t - s); both pin the final
    point to x by assignment.
    """
    if grid.steps < 2:
        raise ValueError("bridge sampling needs at least two steps")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = _normals_block(seed, index0, count, grid.steps, y.size, antithetic)
    return _bridge_from_normals(z, y, x, grid, method)


def sample_bm(stream, x, grid: PathGrid) -> SampledPath:
    """One Brownian path; stream is a Generator or a (seed, index) pair."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    gen = _as_generator(stream)
    z = gen.standard_normal((grid.steps, x.size))
    pos = np.empty((grid.steps + 1, x.size))
    pos[0] = x
    np.cumsum(np.sqrt(grid.dt) * z, axis=0, out=pos[1:])
    pos[1:] += x
    return SampledPath(grid, pos, "free", start=x)


def sample_bridge(stream, y, x, grid: PathGrid, method="exact") -> SampledPath:
    """One bridge path from y to x; endpoint pinned exactly."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if grid.steps < 2:
        raise ValueError("bridge sampling needs at least two steps")
    gen = _as_generator(stream)
    z = gen.standard_normal((grid.steps, y.size))[None, ...]
    pos = _bridge_from_normals(z, y, x, grid, method)[0]
    return SampledPath(grid, pos, "bridge", start=y, end=x)


def _bridge_from_normals(z, y, x, grid, method):
    n, dt, t = grid.steps, grid.dt, grid.horizon
    count, nu = z.shape[0], y.size
    pos = np.empty((count, n + 1, nu))
    pos[:, 0, :] = y
    if method == "exact":
        for ell in range(n):
            tau = t - ell * dt
            mean = pos[:, ell, :] + (dt / tau) * (x[None, :] - pos[:, ell, :])
            var = dt * (tau - dt) / tau
            pos[:, ell + 1, :] = mean + np.sqrt(max(var, 0.0)) * z[:, ell, :]
    elif method == "euler":
        for ell in range(n):
            tau = t - ell * dt
            drift = (x[None, :] - pos[:, ell, :]) * (dt / tau)
            pos[:, ell + 1, :] = pos[:, ell, :] + drift + np.sqrt(dt) * z[:, ell, :]
    else:
        raise ValueError("method must be 'exact' or 'euler'")
    pos[:, n, :] = x
    return pos


def reverse(path: SampledPath) -> SampledPath:
    """Time reversal: positions reversed in index, bridge endpoints swapped."""
    pos = path.positions[::-1].copy()
    if path.kind == "bridge":
        return SampledPath(path.grid, pos, "bridge", start=path.end, end=path.start)
    return SampledPath(path.grid, pos, path.kind, start=pos[0].copy(), end=None)


def subpath(path: SampledPath, start: int, stop: int) -> SampledPath:
    """Segment between grid indices with its clock restarted at zero."""
    if not 0 <= start < stop <= path.grid.steps:
        raise ValueError("segment indices out of range")
    grid = PathGrid(path.grid.dt * (stop - start), stop - start)
    pos = path.positions[start : stop + 1].copy()
    return SampledPath(grid, pos, "free", start=pos[0].copy())


def _crossing_survival(dist: np.ndarray, dt: float) -> np.ndarray:
    """Product over steps of the flat-wall non-crossing probability.

    For retained interior points at distances d, d' from the boundary, a
    Brownian sub-step crosses the (locally flat) wall with probability
    exp(-2 d d' / dt).
    """
    hit = np.exp(-2.0 * dist[..., :-1] * dist[..., 1:] / dt)
    return np.prod(1.0 - hit, axis=-1)


def exit_time(path: SampledPath, domain: Domain, correction: str = "none"):
    """First sampled index outside the domain and the survival weight.

    Returns (exit_index or None, weight).  With correction='crossing' the
    weight of a fully interior path is reduced by the sub-step crossing
    probabilities; exited paths always carry weight 0.
    """
    dist = domain.dist(path.positions)
    outside = dist <= 0.0
    if outside.any():
        return int(np.argmax(outside)), 0.0
    if correction == "none":
        return None, 1.0
    if correction != "crossing":
        raise ValueError("correction must be 'none' or 'crossing'")
    weight = float(_crossing_survival(dist, path.grid.dt))
    return None, weight


def attach_exit(path: SampledPath, domain: Domain, correction: str = "none"):
    """SampledPath copy with exit metadata recorded."""
    idx, weight = exit_time(path, domain, correction)
    flag = correction == "crossing" and idx is None and weight < 1.0 - 1e-12
    return replace(path, exit_index=idx, crossing_flag=flag), weight


def exit_weights_block(positions, domain: Domain, dt: float, correction="none"):
    """Survival weights for a (count, n+1, nu) block of paths."""
    dist = domain.dist(positions)
    alive = ~(dist <= 0.0).any(axis=-1)
    if correction == "none":
        return alive.astype(float)
    if correction != "crossing":
        raise ValueError("correction must be 'none' or 'crossing'")
    with np.errstate(over="ignore"):
        weights = _crossing_survival(dist, dt)
    return np.where(alive, weights, 0.0)


def penalty_integral_block(positions, domain: Domain, dt: float, n_cap: float):
    """Trapezoid of min(n_cap, dist^{-3}) along each path of a block."""
    if n_cap <= 0:
        raise ValueError("penalty cap must be positive")
    dist = domain.dist(positions)
    with np.errstate(divide="ignore", over="ignore"):
        y = np.where(dist > 0.0, dist**-3.0, np.inf)
    y = np.minimum(y, n_cap)
    w = np.ones(positions.shape[-2])
    w[0] = w[-1] = 0.5
    return dt * (y @ w)


def penalty_integral(path: SampledPath, domain: Domain, n_cap: float) -> float:
    """Per-path capped confinement penalty; grows without bound on exits."""
    return float(
        penalty_integral_block(path.positions[None, ...], domain, path.grid.dt, n_cap)[0]
    )


def holder_diagnostic(path: SampledPath) -> float:
    """Reported-only roughness ratio max_l |dB_l| / dt^(1/3)."""
    steps = np.linalg.norm(path.increments(), axis=-1)
    return float(steps.max() / path.grid.dt ** (1.0 / 3.0))


def dump_paths(paths, fileobj):
    """Debug CSV rows (path_id, l, s_l, coordinates...); off by default."""
    first = True
    for pid, path in enumerate(paths):
        if first:
            coords = ",".join(f"x{j}" for j in range(path.nu))
            fileobj.write(f"path_id,l,s_l,{coords}\n")
            first = False
        for ell, s in enumerate(path.grid.times):
            row = ",".join(format(c, ".17g") for c in path.positions[ell])
            fileobj.write(f"{pid},{ell},{format(s, '.17g')},{row}\n")
