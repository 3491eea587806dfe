import hashlib
import io

import numpy as np
import pytest

from fkpf.paths import (
    Domain,
    PathGrid,
    attach_exit,
    dump_paths,
    exit_time,
    exit_weights_block,
    holder_diagnostic,
    penalty_integral,
    penalty_integral_block,
    reverse,
    sample_bm,
    sample_bm_block,
    sample_bridge,
    sample_bridge_block,
    stream_generator,
    subpath,
)
from fkpf.reference import heat_kernel, interval_image_kernel


def test_grid_validation():
    with pytest.raises(ValueError):
        PathGrid(0.0, 10)
    with pytest.raises(ValueError):
        PathGrid(1.0, 0)
    grid = PathGrid(1.0, 4)
    assert grid.dt == 0.25
    assert np.allclose(grid.times, [0, 0.25, 0.5, 0.75, 1.0])


def test_domain_distances():
    iv = Domain.interval(0.0, 1.0)
    assert iv.dist(np.array([0.25])) == 0.25
    assert iv.dist(np.array([1.5])) == 0.0
    ball = Domain.ball([0.0, 0.0], 2.0)
    assert ball.dist(np.array([1.0, 0.0])) == 1.0
    hs = Domain.half_space([-1.0], 0.0)  # {x > 0}
    assert hs.dist(np.array([0.7])) == pytest.approx(0.7)
    assert np.isinf(Domain.all_space(2).dist(np.array([5.0, -3.0])))
    box = Domain.box([0.0, 0.0], [1.0, 2.0])
    assert box.dist(np.array([0.2, 1.0])) == pytest.approx(0.2)


def test_domain_shrink_consistency():
    iv = Domain.interval(0.0, 1.0).shrink(0.1)
    assert iv.dist(np.array([0.5])) == pytest.approx(0.4)
    assert not iv.contains(np.array([0.05]))


def test_bm_moments():
    grid = PathGrid(0.7, 32)
    n = 20000
    pos = sample_bm_block(123, 0, n, [0.5, -1.0], grid)
    assert pos.shape == (n, 33, 2)
    final = pos[:, -1, :] - np.array([0.5, -1.0])
    se = np.sqrt(0.7 / n)
    assert np.abs(final.mean(axis=0)).max() < 3 * se
    assert np.abs(final.var(axis=0) - 0.7).max() < 0.05 * 0.7


def test_bm_determinism():
    grid = PathGrid(1.0, 16)
    p1 = sample_bm((9, 4), [0.0], grid)
    p2 = sample_bm((9, 4), [0.0], grid)
    assert np.array_equal(p1.positions, p2.positions)
    block = sample_bm_block(9, 0, 8, [0.0], grid)
    assert np.array_equal(block[4], sample_bm((9, 4), [0.0], grid).positions)


def test_antithetic_pairing():
    grid = PathGrid(1.0, 8)
    block = sample_bm_block(3, 0, 4, [0.0], grid, antithetic=True)
    assert np.allclose(block[0] + block[1], 0.0)
    assert not np.allclose(block[0], block[2])


# (seed, index0) pairs that exercise the 64-bit masking of both key words
STREAM_KEYS = [(9, 0), (9, 5), (2**64 + 3, 2), (-7, 1), (4, 2**64 + 1)]


def _fresh_normals(seed, index, n, nu):
    return stream_generator(seed, index).standard_normal((n, nu))


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("seed,index0", STREAM_KEYS)
def test_block_rows_equal_fresh_streams(seed, index0, nu):
    grid = PathGrid(0.8, 12)
    x, y = np.linspace(-0.5, 0.5, nu), np.linspace(0.2, 0.4, nu)
    bm = sample_bm_block(seed, index0, 4, x, grid)
    bridge = sample_bridge_block(seed, index0, 4, y, x, grid)
    for i in range(4):
        z = _fresh_normals(seed, index0 + i, grid.steps, nu)
        pos = np.empty((grid.steps + 1, nu))
        pos[0] = x
        np.cumsum(np.sqrt(grid.dt) * z, axis=0, out=pos[1:])
        pos[1:] += x
        assert np.array_equal(bm[i], pos)
        assert np.array_equal(bridge[i], sample_bridge(
            stream_generator(seed, index0 + i), y, x, grid).positions)


@pytest.mark.parametrize("seed,index0", STREAM_KEYS)
def test_antithetic_rows_pair_from_odd_start(seed, index0):
    grid = PathGrid(1.0, 10)
    index0 += 1 - index0 % 2  # odd, so the first row is a negated member
    block = sample_bm_block(seed, index0, 5, [0.0, 0.0], grid, antithetic=True)
    for i in range(5):
        idx = index0 + i
        z = _fresh_normals(seed, idx // 2, grid.steps, 2)
        sign = -1.0 if idx % 2 else 1.0
        expect = np.concatenate(
            [np.zeros((1, 2)), np.cumsum(np.sqrt(grid.dt) * sign * z, axis=0)])
        assert np.array_equal(block[i], expect)
    # rows 1 and 2 share stream (index0 + 1) // 2 with opposite signs
    assert np.array_equal(block[1], -block[2])
    assert not np.array_equal(block[0], -block[1])


def test_rekey_leaves_no_state_behind():
    bitgen = np.random.Philox(0)
    gen = stream_generator(3, 10, bitgen)
    gen.standard_normal(5)
    gen.integers(0, 7, size=3, dtype=np.uint32)
    assert bitgen.state["has_uint32"] == 1
    assert bitgen.state["buffer_pos"] != 4
    rekeyed, fresh = stream_generator(3, 11, bitgen), stream_generator(3, 11)
    assert bitgen.state["state"]["key"].tolist() == [11, 3]
    # full-range uint32 draws expose a stale cached half word
    assert np.array_equal(rekeyed.integers(0, 2**32, size=5, dtype=np.uint32),
                          fresh.integers(0, 2**32, size=5, dtype=np.uint32))
    assert np.array_equal(rekeyed.standard_normal((6, 2)),
                          fresh.standard_normal((6, 2)))


def test_bridge_block_bytes_pinned():
    # Digest of the stream as first shipped; a change here means every MC
    # number moved, which must be a deliberate edit of this test.
    block = sample_bridge_block(20240607, 11, 6, [-0.3, 0.2], [0.4, 0.1],
                                PathGrid(0.5, 24))
    assert hashlib.sha256(block.tobytes()).hexdigest() == (
        "ecbb0a9bb570065629077bc8adf82bb01b40733259565aa9cef08d63b05d2e54")


def test_bridge_moments():
    grid = PathGrid(0.2, 64)
    n = 20000
    pos = sample_bridge_block(7, 0, n, [0.0], [1.0], grid)
    mid = pos[:, 32, 0]
    se = np.sqrt(0.05 / n)
    assert abs(mid.mean() - 0.5) < 3 * se
    assert abs(mid.var() - 0.05) < 0.05 * 0.05


def test_bridge_endpoint_bit_exact():
    grid = PathGrid(0.3, 16)
    for method in ("exact", "euler"):
        path = sample_bridge((1, 0), [0.2], [0.9], grid, method=method)
        assert path.positions[-1, 0] == 0.9
        assert path.positions[0, 0] == 0.2


def test_bridge_exact_vs_euler_distribution():
    grid = PathGrid(0.256, 256)
    n = 20000
    a = sample_bridge_block(5, 0, n, [0.0], [0.4], grid, method="exact")
    b = sample_bridge_block(6, 0, n, [0.0], [0.4], grid, method="euler")
    mid_a, mid_b = a[:, 128, 0], b[:, 128, 0]
    joint_se = np.sqrt(mid_a.var() / n + mid_b.var() / n)
    assert abs(mid_a.mean() - mid_b.mean()) < 3 * joint_se
    assert abs(mid_a.var() - mid_b.var()) / mid_a.var() < 0.06


def test_bridge_needs_two_steps():
    with pytest.raises(ValueError):
        sample_bridge((0, 0), [0.0], [1.0], PathGrid(1.0, 1))


def test_reverse_involution_and_kind():
    grid = PathGrid(0.5, 8)
    b = sample_bridge((2, 3), [0.1], [0.7], grid)
    rb = reverse(b)
    assert rb.kind == "bridge"
    assert rb.start[0] == 0.7 and rb.end[0] == 0.1
    assert np.array_equal(rb.positions, b.positions[::-1])
    assert np.array_equal(reverse(rb).positions, b.positions)


def test_reverse_same_survival():
    grid = PathGrid(0.5, 32)
    dom = Domain.interval(0.0, 1.0)
    for idx in range(10):
        path = sample_bm((77, idx), [0.5], grid)
        _, w1 = exit_time(path, dom)
        _, w2 = exit_time(reverse(path), dom)
        assert w1 == w2


def test_exit_all_space():
    path = sample_bm((0, 0), [0.0], PathGrid(1.0, 8))
    idx, w = exit_time(path, Domain.all_space(1))
    assert idx is None and w == 1.0


def test_exit_detects_outside_point():
    grid = PathGrid(1.0, 4)
    pos = np.array([[0.5], [0.6], [1.4], [0.5], [0.4]])
    from fkpf.paths import SampledPath

    path = SampledPath(grid, pos, "free", start=np.array([0.5]))
    idx, w = exit_time(path, Domain.interval(0.0, 1.0))
    assert idx == 2 and w == 0.0
    path2, w2 = attach_exit(path, Domain.interval(0.0, 1.0))
    assert path2.exit_index == 2 and w2 == 0.0


def test_corrected_survival_matches_reflection_series():
    grid = PathGrid(0.2, 64)
    dom = Domain.interval(0.0, 1.0)
    n = 20000
    pos = sample_bridge_block(11, 0, n, [0.5], [0.5], grid)
    w = exit_weights_block(pos, dom, grid.dt, "crossing")
    target = interval_image_kernel(0.2, 0.5, 0.5) / heat_kernel(0.2, [0.5], [0.5])
    se = w.std() / np.sqrt(n)
    assert abs(w.mean() - target) < 3 * se


def test_corrected_below_raw_and_closer_to_oracle():
    dom = Domain.interval(0.0, 1.0)
    target = interval_image_kernel(0.2, 0.5, 0.5) / heat_kernel(0.2, [0.5], [0.5])
    n = 40000
    for steps in (16, 64):
        grid = PathGrid(0.2, steps)
        pos = sample_bridge_block(13, 0, n, [0.5], [0.5], grid)
        raw = exit_weights_block(pos, dom, grid.dt, "none")
        cor = exit_weights_block(pos, dom, grid.dt, "crossing")
        assert np.all(cor <= raw + 1e-15)
        assert abs(cor.mean() - target) < abs(raw.mean() - target)


def test_penalty_all_space_zero():
    path = sample_bm((1, 1), [0.0], PathGrid(1.0, 16))
    assert penalty_integral(path, Domain.all_space(1), 1e6) == 0.0


def test_penalty_constant_distance():
    grid = PathGrid(2.0, 10)
    from fkpf.paths import SampledPath

    pos = np.full((11, 1), 0.25)
    path = SampledPath(grid, pos, "free", start=np.array([0.25]))
    val = penalty_integral(path, Domain.half_space([-1.0], 0.0), 1e12)
    assert val == pytest.approx(2.0 * 0.25**-3, rel=1e-12)


def test_penalty_cap_dominates_outside():
    grid = PathGrid(1.0, 4)
    from fkpf.paths import SampledPath

    pos = np.array([[0.5], [0.5], [-0.2], [0.5], [0.5]])
    path = SampledPath(grid, pos, "free", start=np.array([0.5]))
    for cap in (1e2, 1e4, 1e6):
        val = penalty_integral(path, Domain.interval(0.0, 1.0), cap)
        assert val >= cap * grid.dt


def test_penalty_monotone_in_cap_and_indicator_limit():
    grid = PathGrid(0.2, 32)
    dom = Domain.interval(0.0, 1.0)
    pos = sample_bridge_block(17, 0, 200, [0.5], [0.5], grid)
    hard = exit_weights_block(pos, dom, grid.dt, "none")
    prev = None
    for cap in (1e2, 1e4, 1e6, 1e8):
        pen = penalty_integral_block(pos, dom, grid.dt, cap)
        w = np.exp(-pen)
        if prev is not None:
            assert np.all(w <= prev + 1e-15)
        prev = w
    # exited paths are crushed by the cap; the soft weight never exceeds the
    # indicator; comfortably interior paths keep a positive weight
    assert np.all(prev[hard == 0.0] < 1e-8)
    assert np.all(prev <= hard + 1e-15)
    min_dist = dom.dist(pos).min(axis=1)
    assert np.all(prev[min_dist > 0.2] > 0.0)


def test_holder_diagnostic_reports():
    path = sample_bm((4, 2), [0.0], PathGrid(1.0, 128))
    val = holder_diagnostic(path)
    assert 0.0 < val < 50.0


def test_subpath_clock_restart():
    path = sample_bm((8, 0), [0.3], PathGrid(1.0, 10))
    seg = subpath(path, 4, 9)
    assert seg.grid.steps == 5
    assert seg.grid.horizon == pytest.approx(0.5)
    assert np.array_equal(seg.positions, path.positions[4:10])


def test_dump_paths_format():
    path = sample_bm((0, 0), [0.0], PathGrid(0.5, 2))
    buf = io.StringIO()
    dump_paths([path], buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "path_id,l,s_l,x0"
    assert len(lines) == 4
