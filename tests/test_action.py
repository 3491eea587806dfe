import math

import numpy as np
import pytest

from fkpf.action import (
    CoefficientTable,
    Coefficients,
    action_block,
    compute_K,
    compute_K_div,
    compute_S,
    compute_S_div,
    divergence_action_block,
    divergence_atoms_block,
    evaluate_action,
    localize_gate,
    merge_atoms,
    stratonovich_scalar,
)
from fkpf.oneboson import OneBosonSpace, nelson_norm_sq
from fkpf.paths import (
    Domain,
    PathGrid,
    SampledPath,
    reverse,
    sample_bm,
    sample_bm_block,
    subpath,
)


SP = OneBosonSpace(np.array([1.0]))


def a_zero(x):
    return np.zeros(x.shape)


def a_const(value):
    def fn(x):
        return np.full(x.shape, value)
    return fn


def a_linear(x):
    return x


def a_sine(x):
    return np.sin(x)


def diva_sine(x):
    return np.cos(x[..., 0])


def v_const(value):
    def fn(x):
        return np.full(x.shape[:-1], value)
    return fn


def g_const(value):
    def fn(x):
        return np.full(x.shape[:-1] + (x.shape[-1], 1), value)
    return fn


def g_sine(x):
    return np.sin(x)[..., None]


def divg_sine(x):
    return np.cos(x[..., 0])[..., None]


def test_strat_zero_field():
    path = sample_bm((0, 0), [0.0], PathGrid(1.0, 32))
    assert stratonovich_scalar(path, a_zero) == 0.0


def test_strat_constant_telescopes():
    path = sample_bm((0, 1), [0.4], PathGrid(1.0, 64))
    val = stratonovich_scalar(path, a_const(2.5))
    expect = 2.5 * (path.positions[-1, 0] - path.positions[0, 0])
    assert val == pytest.approx(expect, abs=1e-12)


def test_strat_linear_ito_formula_oracle():
    # trapezoid integral of B dB telescopes to (B_t^2 - B_0^2)/2 exactly,
    # while the forward Ito sum approaches the corrected closed form
    # (B_t^2 - B_0^2)/2 - t/2 as dt -> 0
    rms = []
    for steps in (16, 64, 256):
        gaps = []
        for idx in range(400):
            path = sample_bm((123, idx), [0.0], PathGrid(1.0, steps))
            b0, bt = path.positions[0, 0], path.positions[-1, 0]
            strat = stratonovich_scalar(path, a_linear)
            assert strat == pytest.approx(0.5 * (bt**2 - b0**2), abs=1e-12)
            fwd = evaluate_action(path, Coefficients(A=a_linear)).diagnostics[
                "ito_forward"
            ]
            gaps.append(fwd - (0.5 * (bt**2 - b0**2) - 0.5))
        rms.append(np.sqrt(np.mean(np.square(gaps))))
    assert rms[2] < rms[1] < rms[0]
    assert rms[2] < 0.5 * rms[0]


def test_compute_s_constant_potential():
    path = sample_bm((5, 0), [0.0], PathGrid(0.8, 32))
    s = compute_S(path, Coefficients(V=v_const(3.0)))
    assert s.real == pytest.approx(2.4, abs=1e-12)
    assert s.imag == 0.0


def test_compute_s_constant_vector_potential():
    path = sample_bm((5, 1), [0.2], PathGrid(0.8, 32))
    s = compute_S(path, Coefficients(A=a_const(1.5)))
    disp = path.positions[-1, 0] - path.positions[0, 0]
    assert s.real == 0.0
    assert s.imag == pytest.approx(-1.5 * disp, abs=1e-12)


def test_real_part_is_potential_trapezoid_exactly():
    path = sample_bm((5, 2), [0.0], PathGrid(1.0, 64))
    coeffs = Coefficients(A=a_sine, V=v_const(1.2))
    s = compute_S(path, coeffs)
    terms = 0.5 * path.grid.dt * (
        np.full(64, 1.2) + np.full(64, 1.2)
    )
    assert s.real == math.fsum(terms)


def test_strat_equals_half_ito_sum():
    path = sample_bm((5, 3), [0.1], PathGrid(1.0, 48))
    res = evaluate_action(path, Coefficients(A=a_sine))
    strat = res.diagnostics["stratonovich"]
    fwd = res.diagnostics["ito_forward"]
    bwd = res.diagnostics["ito_backward"]
    assert strat == 0.5 * (fwd + bwd)


def test_compute_k_zero_coupling_empty():
    path = sample_bm((5, 4), [0.0], PathGrid(1.0, 16))
    k = compute_K(path, Coefficients(space=SP))
    assert k.atom_count == 0


def test_compute_k_constant_coupling():
    path = sample_bm((5, 5), [0.0], PathGrid(1.0, 32))
    coeffs = Coefficients(G=g_const(0.7), space=SP)
    k = compute_K(path, coeffs)
    assert k.atom_count == 33
    assert k.is_real()
    disp = path.positions[-1, 0] - path.positions[0, 0]
    total = (k.weights[:, None] * k.vectors).sum(axis=0)
    assert abs(total[0] - 0.7 * disp) < 1e-12


def test_compute_k_gram_matches_bruteforce():
    path = sample_bm((5, 6), [0.0], PathGrid(0.5, 12))
    coeffs = Coefficients(G=g_sine, space=SP)
    k = compute_K(path, coeffs)
    brute = 0.0
    for i in range(k.atom_count):
        for j in range(k.atom_count):
            gap = abs(k.times[i] - k.times[j])
            brute += (
                np.conj(k.weights[i] * k.vectors[i, 0])
                * k.weights[j]
                * k.vectors[j, 0]
                * math.exp(-gap * SP.omega[0])
            )
    assert nelson_norm_sq(k) == pytest.approx(float(brute.real), rel=1e-12)


def test_compute_k_reversal_invariance():
    path = sample_bm((5, 7), [0.0], PathGrid(0.5, 24))
    coeffs = Coefficients(G=g_sine, space=SP)
    k1 = compute_K(path, coeffs)
    k2 = compute_K(reverse(path), coeffs)
    assert nelson_norm_sq(k1) == pytest.approx(nelson_norm_sq(k2), rel=1e-12)


def test_divergence_form_constant_coefficients():
    path = sample_bm((5, 8), [0.0], PathGrid(1.0, 16))
    coeffs = Coefficients(A=a_const(2.0), divA=v_const(0.0),
                          G=g_const(0.3), divG=lambda x: np.zeros(
                              x.shape[:-1] + (1,)), space=SP)
    s_div = compute_S_div(path, coeffs)
    fwd = evaluate_action(path, coeffs).diagnostics["ito_forward"]
    assert s_div.imag == pytest.approx(-fwd, abs=1e-14)
    k_div = compute_K_div(path, coeffs)
    # left-endpoint atoms only: the div family contributes zero vectors
    merged = merge_atoms(k_div)
    gvals = 0.3 * np.diff(path.positions[:, 0])
    assert np.abs(merged.vectors[:-1, 0].real - gvals).max() < 1e-15


def test_divergence_form_requires_data():
    path = sample_bm((5, 9), [0.0], PathGrid(1.0, 8))
    with pytest.raises(ValueError):
        compute_S_div(path, Coefficients(A=a_sine))
    with pytest.raises(ValueError):
        compute_K_div(path, Coefficients(G=g_sine, space=SP))
    singular = Coefficients(A=a_sine, divA=diva_sine, smoothness="singular")
    with pytest.raises(ValueError):
        compute_S_div(path, singular)


def test_divergence_route_converges_to_trapezoid():
    coeffs = Coefficients(A=a_sine, divA=diva_sine, G=g_sine, divG=divg_sine,
                          space=SP)
    rms_s = []
    rms_k = []
    for steps in (32, 128, 512):
        gaps_s, gaps_k = [], []
        for idx in range(150):
            path = sample_bm((31, idx), [0.0], PathGrid(1.0, steps))
            gaps_s.append(abs(compute_S(path, coeffs) - compute_S_div(path, coeffs)))
            diff = compute_K(path, coeffs).concat(
                compute_K_div(path, coeffs).scaled(-1.0)
            )
            gaps_k.append(math.sqrt(nelson_norm_sq(diff)))
        rms_s.append(np.sqrt(np.mean(np.square(gaps_s))))
        rms_k.append(np.sqrt(np.mean(np.square(gaps_k))))
    assert rms_s[2] < rms_s[1] < rms_s[0]
    assert rms_k[2] < rms_k[1] < rms_k[0]


def test_additivity_over_concatenation():
    coeffs = Coefficients(A=a_sine, V=v_const(0.7), G=g_sine, space=SP)
    path = sample_bm((77, 0), [0.0], PathGrid(1.0, 40))
    s_whole = compute_S(path, coeffs)
    seg1, seg2 = subpath(path, 0, 25), subpath(path, 25, 40)
    s_sum = compute_S(seg1, coeffs) + compute_S(seg2, coeffs)
    assert abs(s_whole - s_sum) < 8 * np.finfo(float).eps * max(1.0, abs(s_whole))
    # atom multiset: merged vectors align bitwise; the segment clocks agree
    # with the whole-path grid only up to ulps, so times use a tolerance
    k_whole = compute_K(path, coeffs)
    k1, k2 = compute_K(seg1, coeffs), compute_K(seg2, coeffs)
    combined = merge_atoms(k1.concat(k2.shifted(seg1.grid.horizon)))
    assert np.allclose(combined.times, k_whole.times, atol=1e-12, rtol=0)
    assert np.array_equal(combined.vectors, k_whole.vectors)


def test_localize_gate_contracts():
    dom = Domain.interval(0.0, 1.0)
    grid = PathGrid(1.0, 16)
    from fkpf.paths import SampledPath

    inside = SampledPath(grid, np.full((17, 1), 0.5), "free", start=np.array([0.5]))
    outside = SampledPath(
        grid,
        np.concatenate([np.full((8, 1), 0.5), np.full((9, 1), 1.3)]),
        "free",
        start=np.array([0.5]),
    )
    assert localize_gate(inside, dom) == 1.0
    assert localize_gate(outside, dom) == 0.0
    assert localize_gate(outside, Domain.all_space(1)) == 1.0


def test_gated_paths_never_evaluate_coefficients():
    dom = Domain.interval(0.0, 1.0)
    grid = PathGrid(1.0, 16)
    from fkpf.paths import SampledPath

    seen = []

    def spy_v(x):
        seen.append(np.asarray(x).copy())
        return np.zeros(x.shape[:-1])

    outside = SampledPath(
        grid,
        np.concatenate([np.full((8, 1), 0.5), np.full((9, 1), 1.3)]),
        "free",
        start=np.array([0.5]),
    )
    res = evaluate_action(outside, Coefficients(V=spy_v), domain=dom)
    assert res.gated == 0.0
    assert not seen


def test_exhaustion_consistency():
    # gating by a smaller exhausting subdomain does not change (S, K) on
    # paths that survive it
    dom = Domain.interval(0.0, 1.0)
    coeffs = Coefficients(A=a_sine, V=v_const(0.5), G=g_sine, space=SP)
    grid = PathGrid(0.05, 32)
    kept = 0
    for idx in range(40):
        path = sample_bm((99, idx), [0.5], grid)
        small = evaluate_action(path, coeffs, domain=dom.shrink(0.2))
        if small.gated == 0.0:
            continue
        kept += 1
        big = evaluate_action(path, coeffs, domain=dom)
        assert big.gated == small.gated == 1.0
        assert big.S == small.S
        assert np.array_equal(big.K.vectors, small.K.vectors)
    assert kept > 0


def test_coefficient_table_roundtrip(tmp_path):
    xs = np.linspace(-2.0, 2.0, 65)
    table = CoefficientTable(
        lo=[-2.0], hi=[2.0], shape=(65,), omega=np.array([1.0, 2.5]),
        A=np.sin(xs)[None, :],
        V=np.cos(xs) ** 2,
        G=np.stack([np.stack([np.exp(-xs**2), 0.5 * xs])])
    )
    fname = tmp_path / "coeffs.npz"
    table.save(fname)
    loaded = CoefficientTable.load(fname)
    assert np.array_equal(loaded.A, table.A)
    assert np.array_equal(loaded.V, table.V)
    assert np.array_equal(loaded.G, table.G)
    coeffs = loaded.to_coefficients()
    pts = xs[3:10].reshape(-1, 1)
    assert np.allclose(coeffs.A(pts)[:, 0], np.sin(xs[3:10]), atol=1e-12)
    assert np.allclose(coeffs.V(pts), np.cos(xs[3:10]) ** 2, atol=1e-12)
    gv = coeffs.G(pts)
    assert gv.shape == (7, 1, 2)
    assert np.allclose(gv[:, 0, 0], np.exp(-xs[3:10] ** 2), atol=1e-12)
    # zero extension outside the box
    far = np.array([[5.0]])
    assert coeffs.V(far)[0] == 0.0


# -- block routes -------------------------------------------------------------


def block_coeffs(nu, modes):
    """Smooth A, V, U, G with their divergences in nu dimensions, M modes."""
    weights = np.arange(1.0, nu * modes + 1.0).reshape(nu, modes) / (nu * modes)

    def a_field(x):
        return np.sin(x + 0.3)

    def div_a(x):
        return np.cos(x + 0.3).sum(axis=-1)

    def v_pot(x):
        return 1.0 + 0.5 * np.cos(x).sum(axis=-1)

    def u_pot(x):
        return 0.3 * np.exp(-(x**2).sum(axis=-1))

    def g_coupling(x):
        return np.sin(x)[..., :, None] * weights

    def div_g(x):
        return (np.cos(x)[..., :, None] * weights).sum(axis=-2)

    return Coefficients(A=a_field, V=v_pot, U=u_pot, G=g_coupling, divA=div_a,
                        divG=div_g, space=OneBosonSpace(np.linspace(0.6, 1.8, modes)))


def block_paths(nu, count=12, steps=24):
    grid = PathGrid(0.7, steps)
    return grid, sample_bm_block(41 + nu, 0, count, np.full(nu, 0.1), grid)


def one_path(grid, pos):
    return SampledPath(grid, pos, "free", start=pos[0].copy())


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("modes", [1, 2])
def test_action_block_rows_match_per_path(nu, modes):
    coeffs = block_coeffs(nu, modes)
    grid, block = block_paths(nu)
    s_val, amps = action_block(block, coeffs, grid.dt)
    assert s_val.shape == (12,)
    assert amps.shape == (12, grid.steps + 1, modes)
    for pos, s_row, amps_row in zip(block, s_val, amps):
        path = one_path(grid, pos)
        np.testing.assert_allclose(s_row, compute_S(path, coeffs), rtol=1e-13)
        np.testing.assert_allclose(amps_row, compute_K(path, coeffs).vectors.real,
                                   rtol=1e-13)


def test_action_block_without_coupling_has_no_atoms():
    grid, block = block_paths(1)
    s_val, amps = action_block(block, Coefficients(V=v_const(0.5)), grid.dt)
    assert amps is None
    np.testing.assert_allclose(s_val, 0.5 * grid.horizon, rtol=1e-13)


def reference_S_div(path, coeffs):
    """The divergence-form action as a per-path fsum."""
    dt = path.grid.dt
    pot = np.zeros(path.grid.steps + 1)
    if coeffs.V is not None:
        pot = pot + coeffs.V(path.positions)
    if coeffs.U is not None:
        pot = pot - coeffs.U(path.positions)
    re = math.fsum(0.5 * dt * (pot[:-1] + pot[1:]))
    avals = coeffs.A(path.positions)
    im = -math.fsum(np.einsum("lj,lj->l", avals[:-1], path.increments()))
    divvals = coeffs.divA(path.positions)
    im -= 0.5 * math.fsum(0.5 * dt * (divvals[:-1] + divvals[1:]))
    return complex(re, im)


def reference_K_div(path, coeffs):
    """The divergence-form atoms of one path: left-endpoint Ito atoms and the
    divG atoms with half the trapezoid time weights, each (n+1, M)."""
    n = path.grid.steps
    gvals = coeffs.G(path.positions)
    db_next = np.concatenate([path.increments(), np.zeros((1, path.nu))])
    ito = np.einsum("ljm,lj->lm", gvals, db_next)
    tw = np.ones(n + 1)
    tw[0] = tw[-1] = 0.5
    div = 0.5 * path.grid.dt * tw[:, None] * coeffs.divG(path.positions)
    return ito, div


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("modes", [1, 2])
def test_divergence_blocks_match_per_path_reference(nu, modes):
    coeffs = block_coeffs(nu, modes)
    grid, block = block_paths(nu)
    s_div = divergence_action_block(block, coeffs, grid.dt)
    ito, div = divergence_atoms_block(block, coeffs, grid.dt)
    assert s_div.shape == (12,)
    assert ito.shape == div.shape == (12, grid.steps + 1, modes)
    for i, pos in enumerate(block):
        path = one_path(grid, pos)
        ref_s = reference_S_div(path, coeffs)
        ref_ito, ref_div = reference_K_div(path, coeffs)
        np.testing.assert_allclose(s_div[i], ref_s, rtol=1e-13)
        assert compute_S_div(path, coeffs) == s_div[i]
        np.testing.assert_allclose(ito[i], ref_ito, rtol=1e-13)
        np.testing.assert_allclose(div[i], ref_div, rtol=1e-13)
        k_div = compute_K_div(path, coeffs)
        assert np.array_equal(k_div.times, np.concatenate([grid.times, grid.times]))
        assert np.array_equal(k_div.vectors, np.concatenate([ito[i], div[i]]))


def test_divergence_blocks_raise_like_per_path_views():
    grid, block = block_paths(1)
    no_div_a = Coefficients(A=a_sine, V=v_const(0.5))
    with pytest.raises(ValueError, match="divA"):
        divergence_action_block(block, no_div_a, grid.dt)
    # the atoms do not need divA, and the action does not need divG
    assert divergence_atoms_block(block, no_div_a, grid.dt) is None
    no_div_g = Coefficients(A=a_sine, divA=diva_sine, G=g_sine, space=SP)
    with pytest.raises(ValueError, match="divG"):
        divergence_atoms_block(block, no_div_g, grid.dt)
    path = one_path(grid, block[0])
    assert compute_S_div(path, no_div_g) == divergence_action_block(
        block, no_div_g, grid.dt)[0]
    singular = Coefficients(A=a_sine, divA=diva_sine, smoothness="singular")
    for fn in (divergence_action_block, divergence_atoms_block):
        with pytest.raises(ValueError, match="regular"):
            fn(block, singular, grid.dt)
    with pytest.raises(ValueError, match="mode space"):
        compute_K_div(path, Coefficients())
    wrong = Coefficients(G=g_sine, divG=divg_sine, space=OneBosonSpace(np.ones(2)))
    with pytest.raises(ValueError, match="coupling values have shape"):
        compute_K_div(path, wrong)
