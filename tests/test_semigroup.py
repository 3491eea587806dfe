import numpy as np
import pytest

from fkpf.action import Coefficients, action_block, compute_K, compute_S
from fkpf.integrand import (
    IntegrandInputs,
    w_kernel_matrix_element,
    w_star_matrix_element,
)
from fkpf.oneboson import OneBosonSpace
from fkpf.paths import Domain, PathGrid, SampledPath, sample_bm_block
from fkpf.reference import (
    gaussian_free_semigroup,
    heat_kernel,
    interval_eigen_kernel,
    interval_semigroup_apply,
)
import fkpf.semigroup as semigroup
from fkpf.semigroup import (
    FieldKernels,
    MCConfig,
    StateSpec,
    atom_gram_form,
    chapman_probe,
    element_block,
    estimate_kernel_element,
    estimate_penalized_element,
    estimate_Tt_element,
    symmetry_probe,
)

SP = OneBosonSpace(np.array([1.0]))
VAC = SP.zero_vector()
FREE = Domain.all_space(1)
UNIT = Domain.interval(0.0, 1.0)
ZERO_COEFFS = Coefficients()


def gaussian_profile(x):
    return np.exp(-np.asarray(x)[..., 0] ** 2 / 2.0)


def indicator_profile(x):
    xs = np.asarray(x)[..., 0]
    return ((xs > 0.0) & (xs < 1.0)).astype(float)


GAUSS_STATE = StateSpec(gaussian_profile, VAC, name="gaussian")


def test_config_validation():
    with pytest.raises(ValueError):
        MCConfig(samples=1, steps=8, seed=0)
    with pytest.raises(ValueError):
        MCConfig(samples=10, steps=8, seed=0, gating=("penalty", {"kappa": 0.0, "n_cap": 1.0}))
    with pytest.raises(ValueError):
        MCConfig(samples=10, steps=8, seed=0, gating=("bogus", {}))


def test_free_gaussian_semigroup():
    cfg = MCConfig(samples=20000, steps=64, seed=100)
    est = estimate_Tt_element([0.0], VAC, GAUSS_STATE, 1.0, ZERO_COEFFS, FREE, cfg)
    assert est.within(gaussian_free_semigroup(1.0, 0.0))
    assert est.stderr / abs(est.value) < 0.01


def test_constant_potential_factorizes():
    def v_c(x):
        return np.full(np.asarray(x).shape[:-1], 0.8)

    cfg = MCConfig(samples=20000, steps=64, seed=101)
    base = estimate_Tt_element([0.0], VAC, GAUSS_STATE, 1.0, ZERO_COEFFS, FREE, cfg)
    damped = estimate_Tt_element(
        [0.0], VAC, GAUSS_STATE, 1.0, Coefficients(V=v_c), FREE, cfg
    )
    assert damped.value == pytest.approx(base.value * np.exp(-0.8), rel=1e-12)


def test_negative_potential_part_factorizes():
    def u_c(x):
        return np.full(np.asarray(x).shape[:-1], 0.6)

    cfg = MCConfig(samples=10000, steps=32, seed=124, check_bounds=True)
    base = estimate_Tt_element([0.0], VAC, GAUSS_STATE, 0.5, ZERO_COEFFS, FREE, cfg)
    lifted = estimate_Tt_element(
        [0.0], VAC, GAUSS_STATE, 0.5, Coefficients(U=u_c), FREE, cfg
    )
    assert lifted.value == pytest.approx(base.value * np.exp(0.6 * 0.5), rel=1e-12)


def test_dirichlet_interval_state_map():
    state = StateSpec(indicator_profile, VAC, name="indicator")
    cfg = MCConfig(samples=40000, steps=64, seed=102)
    est = estimate_Tt_element([0.5], VAC, state, 0.2, ZERO_COEFFS, UNIT, cfg)
    n = np.arange(1, 60)
    oracle = np.sum(
        (2.0 / (n * np.pi)) * (1 - np.cos(n * np.pi)) * np.sin(n * np.pi / 2)
        * np.exp(-n**2 * np.pi**2 * 0.2 / 2)
    )
    assert est.within(oracle)


def test_free_kernel_heat_value():
    cfg = MCConfig(samples=2000, steps=32, seed=103)
    est = estimate_kernel_element([0.0], [0.0], VAC, VAC, 1.0, ZERO_COEFFS, FREE, cfg)
    assert est.value == pytest.approx(heat_kernel(1.0, [0.0], [0.0]), abs=1e-14)
    assert est.stderr == 0.0


def test_dirichlet_interval_kernel():
    cfg = MCConfig(samples=40000, steps=64, seed=104)
    est = estimate_kernel_element([0.5], [0.5], VAC, VAC, 0.2, ZERO_COEFFS, UNIT, cfg)
    assert est.within(interval_eigen_kernel(0.2, 0.5, 0.5))


def test_requires_interior_points():
    cfg = MCConfig(samples=100, steps=8, seed=0)
    with pytest.raises(ValueError):
        estimate_Tt_element([1.5], VAC, GAUSS_STATE, 0.2, ZERO_COEFFS, UNIT, cfg)
    with pytest.raises(ValueError):
        estimate_kernel_element([0.5], [1.5], VAC, VAC, 0.2, ZERO_COEFFS, UNIT, cfg)


def test_penalized_matches_ungated_on_all_space():
    cfg = MCConfig(samples=5000, steps=32, seed=105)
    hard = estimate_kernel_element([0.1], [0.4], VAC, VAC, 0.5, ZERO_COEFFS, FREE, cfg)
    soft = estimate_penalized_element(
        [0.1], [0.4], VAC, VAC, 0.5, ZERO_COEFFS, FREE, cfg, kappa=1.0, n_cap=1e6
    )
    assert soft.value == hard.value


def test_penalized_large_kappa_kills():
    cfg = MCConfig(samples=2000, steps=32, seed=106)
    soft = estimate_penalized_element(
        [0.5], [0.5], VAC, VAC, 0.2, ZERO_COEFFS, UNIT, cfg, kappa=1e8, n_cap=1e6
    )
    assert abs(soft.value) < 1e-6 or soft.degenerate


def test_penalized_approaches_indicator_as_kappa_vanishes():
    # at a large cap, shrinking kappa walks the soft estimate onto the
    # hard-gated one: surviving paths lose their damping while exited paths
    # stay crushed by the capped mass
    cfg = MCConfig(samples=20000, steps=64, seed=125,
                   gating=("indicator", {"correction": False}))
    hard = estimate_kernel_element([0.5], [0.5], VAC, VAC, 0.2, ZERO_COEFFS,
                                   UNIT, cfg)
    gaps = []
    for kappa in (1.0, 0.1, 0.01, 0.001):
        soft = estimate_penalized_element(
            [0.5], [0.5], VAC, VAC, 0.2, ZERO_COEFFS, UNIT, cfg,
            kappa=kappa, n_cap=1e6,
        )
        gaps.append(abs(soft.value - hard.value))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05 * abs(hard.value)


def test_zero_survivors_degenerate_flag():
    tiny = Domain.interval(0.0, 1e-5)
    cfg = MCConfig(samples=100, steps=16, seed=107)
    est = estimate_kernel_element(
        [5e-6], [5e-6], VAC, VAC, 1.0, ZERO_COEFFS, tiny, cfg
    )
    assert est.degenerate
    assert est.value == 0.0
    assert np.isnan(est.stderr)


def test_symmetry_probe_free_case():
    cfg = MCConfig(samples=3000, steps=32, seed=108)
    u = SP.vector([0.4])
    g = SP.vector([0.2])
    a, b = symmetry_probe([0.2], [-0.1], u, g, 0.6, ZERO_COEFFS, FREE, cfg)
    # zero coupling: both estimates are deterministic and equal
    assert abs(a.value - b.value) < 1e-12 * abs(a.value)


def test_chapman_free_semigroup_law():
    cfg = MCConfig(samples=30000, steps=48, seed=109)
    inner = StateSpec(
        lambda x: np.exp(-np.asarray(x)[..., 0] ** 2 / (2 * 1.5)) / np.sqrt(1.5),
        VAC,
        name="inner_gaussian",
    )
    direct, staged = chapman_probe(
        0.5, 0.5, [0.0], VAC, GAUSS_STATE, inner, ZERO_COEFFS, FREE, cfg
    )
    joint = np.hypot(direct.stderr, staged.stderr)
    assert abs(direct.value - staged.value) <= 3 * joint
    assert direct.within(gaussian_free_semigroup(1.0, 0.0))


def test_chapman_zero_stage_is_identity():
    cfg = MCConfig(samples=1000, steps=16, seed=110)
    direct, staged = chapman_probe(
        0.0, 0.3, [0.2], VAC, GAUSS_STATE, GAUSS_STATE, ZERO_COEFFS, FREE, cfg
    )
    assert staged.value == pytest.approx(gaussian_profile(np.array([[0.2]]))[0])
    assert staged.stderr == 0.0


def test_chapman_dirichlet_interval_with_eigen_oracle():
    state = StateSpec(indicator_profile, VAC, name="indicator")
    s, t = 0.1, 0.1
    # zero coupling: the inner stage stays a product state whose profile is
    # the absorbing-interval semigroup of the indicator, tabulated once from
    # the eigen oracle and interpolated
    xs_tab = np.linspace(0.0, 1.0, 401)
    vals_tab = np.array(
        [interval_semigroup_apply(t, float(xx), lambda y: np.ones_like(y)).real
         for xx in xs_tab]
    )

    def inner_profile(x):
        pts = np.asarray(x)[..., 0]
        return np.interp(pts, xs_tab, vals_tab, left=0.0, right=0.0)

    inner = StateSpec(inner_profile, VAC, name="eigen_oracle_stage")
    cfg = MCConfig(samples=30000, steps=48, seed=118)
    direct, staged = chapman_probe(
        s, t, [0.5], VAC, state, inner, ZERO_COEFFS, UNIT, cfg
    )
    joint = np.hypot(direct.stderr, staged.stderr)
    assert abs(direct.value - staged.value) <= 3 * joint


def test_symmetry_probe_diagonal_reality():
    def g_bump(x):
        xs = np.asarray(x)
        return (0.5 * np.exp(-xs[..., 0] ** 2))[..., None, None]

    coeffs = Coefficients(G=g_bump, space=SP)
    u = SP.vector([0.4])
    cfg = MCConfig(samples=8000, steps=32, seed=119)
    a, b = symmetry_probe([0.3], [0.3], u, u, 0.5, coeffs,
                          Domain.interval(-4.0, 4.0), cfg)
    assert abs(a.value.imag) <= 3 * a.stderr
    assert abs(b.value.imag) <= 3 * b.stderr


def test_multimode_zero_coupling_contraction():
    # G = None with a multi-mode field state: only e^{-t omega} survives
    sp2 = OneBosonSpace(np.array([0.5, 2.0]))
    u = sp2.vector([0.4, -0.1])
    g = sp2.vector([0.3, 0.2])
    state = StateSpec(gaussian_profile, g, name="gaussian")
    cfg = MCConfig(samples=2000, steps=16, seed=120)
    est = estimate_Tt_element([0.0], u, state, 1.0, ZERO_COEFFS, FREE, cfg)
    from fkpf.oneboson import heat_apply, inner

    factor = np.exp(inner(u, heat_apply(1.0, g)))
    base = estimate_Tt_element([0.0], sp2.zero_vector(),
                               StateSpec(gaussian_profile, sp2.zero_vector()),
                               1.0, ZERO_COEFFS, FREE, cfg)
    assert est.value == pytest.approx(base.value * factor, rel=1e-12)


def test_two_dimensional_free_semigroup():
    def gauss2(x):
        xs = np.asarray(x)
        return np.exp(-(xs[..., 0] ** 2 + xs[..., 1] ** 2) / 2.0)

    state = StateSpec(gauss2, VAC, name="gaussian2d")
    cfg = MCConfig(samples=30000, steps=32, seed=121)
    est = estimate_Tt_element([0.0, 0.0], VAC, state, 1.0, ZERO_COEFFS,
                              Domain.all_space(2), cfg)
    assert est.within(1.0 / (1.0 + 1.0))  # (1+t)^{-nu/2} at nu=2, t=1


def test_two_dimensional_ball_gating():
    def flat(x):
        return np.ones(np.asarray(x).shape[:-1])

    state = StateSpec(flat, VAC, name="flat")
    ball = Domain.ball([0.0, 0.0], 1.0)
    cfg = MCConfig(samples=20000, steps=64, seed=122)
    est = estimate_Tt_element([0.0, 0.0], VAC, state, 0.3, ZERO_COEFFS, ball, cfg)
    # disc survival from the Bessel eigen-expansion: sum_k c_k e^{-j_{0,k}^2 t/2}
    from scipy.special import j0, j1, jn_zeros

    zeros = jn_zeros(0, 12)
    coef = 2.0 / (zeros * j1(zeros))
    oracle = float(np.sum(coef * j0(0.0) * np.exp(-(zeros**2) * 0.3 / 2.0)))
    assert est.within(oracle)


def test_penalty_gating_on_state_map():
    cfg = MCConfig(samples=4000, steps=32, seed=123,
                   gating=("penalty", {"kappa": 1.0, "n_cap": 1e6}))
    wide = Domain.interval(-30.0, 30.0)
    est = estimate_Tt_element([0.0], VAC, GAUSS_STATE, 1.0, ZERO_COEFFS,
                              wide, cfg)
    hard_cfg = MCConfig(samples=4000, steps=32, seed=123)
    hard = estimate_Tt_element([0.0], VAC, GAUSS_STATE, 1.0, ZERO_COEFFS,
                               wide, hard_cfg)
    assert abs(est.value - hard.value) < 1e-3 * abs(hard.value)


def test_state_l2_norm_finite():
    assert GAUSS_STATE.l2_norm(-8.0, 8.0) == pytest.approx(np.pi**0.25, rel=1e-3)


def test_stderr_scaling():
    vals = []
    for n in (4000, 16000):
        cfg = MCConfig(samples=n, steps=32, seed=111)
        est = estimate_Tt_element([0.0], VAC, GAUSS_STATE, 1.0, ZERO_COEFFS, FREE, cfg)
        vals.append(est.stderr)
    assert vals[1] * 2 == pytest.approx(vals[0], rel=0.2)


def test_gate_weight_independent_of_coefficients():
    # instrumented: compare survival-only estimates for zero and nonzero
    # coefficients on identical seeds
    def v_c(x):
        return np.full(np.asarray(x).shape[:-1], 1.3)

    cfg = MCConfig(samples=4000, steps=32, seed=112)
    plain = estimate_kernel_element([0.4], [0.6], VAC, VAC, 0.2, ZERO_COEFFS, UNIT, cfg)
    damped = estimate_kernel_element(
        [0.4], [0.6], VAC, VAC, 0.2, Coefficients(V=v_c), UNIT, cfg
    )
    assert damped.value == pytest.approx(plain.value * np.exp(-1.3 * 0.2), rel=1e-12)


def test_worker_env_var(monkeypatch):
    cfg = MCConfig(samples=100, steps=8, seed=0)
    monkeypatch.setenv("FKPF_WORKERS", "3")
    assert cfg.resolve_workers() == 3
    monkeypatch.delenv("FKPF_WORKERS")
    assert cfg.resolve_workers() == 1
    assert MCConfig(samples=100, steps=8, seed=0, workers=2).resolve_workers() == 2


def test_worker_count_bit_identical():
    cfg1 = MCConfig(samples=9000, steps=32, seed=113, workers=1)
    cfg2 = MCConfig(samples=9000, steps=32, seed=113, workers=4)
    a = estimate_kernel_element([0.4], [0.6], VAC, VAC, 0.2, ZERO_COEFFS, UNIT, cfg1)
    b = estimate_kernel_element([0.4], [0.6], VAC, VAC, 0.2, ZERO_COEFFS, UNIT, cfg2)
    assert a.value == b.value
    assert a.stderr == b.stderr


def test_bound_check_passes_on_valid_runs():
    def g_bump(x):
        xs = np.asarray(x)
        return (0.5 * np.exp(-xs[..., 0] ** 2))[..., None, None]

    coeffs = Coefficients(G=g_bump, space=SP)
    cfg = MCConfig(samples=2000, steps=32, seed=114, check_bounds=True)
    u = SP.vector([0.3])
    est = estimate_kernel_element([0.2], [-0.2], u, u, 0.5, coeffs, FREE, cfg)
    assert np.isfinite(est.stderr)


def test_estimate_manifest_provenance():
    cfg = MCConfig(samples=500, steps=16, seed=115)
    est = estimate_Tt_element([0.0], VAC, GAUSS_STATE, 0.5, ZERO_COEFFS, FREE, cfg)
    assert est.manifest["seed"] == 115
    assert len(est.manifest["config_hash"]) == 16
    repeat = estimate_Tt_element([0.0], VAC, GAUSS_STATE, 0.5, ZERO_COEFFS, FREE, cfg)
    assert repeat.manifest["config_hash"] == est.manifest["config_hash"]
    assert repeat.value == est.value


def test_antithetic_sampling_stays_consistent():
    anti = MCConfig(samples=20000, steps=64, seed=116, antithetic=True)
    est = estimate_Tt_element([0.0], VAC, GAUSS_STATE, 1.0, ZERO_COEFFS, FREE, anti)
    assert est.within(gaussian_free_semigroup(1.0, 0.0))


def test_dirichlet_interval_profile_oracle_quadrature():
    # generic profile against the eigen-expansion quadrature oracle
    def tent(x):
        xs = np.asarray(x)[..., 0]
        return np.maximum(0.0, 1.0 - np.abs(xs - 0.5) * 4.0)

    state = StateSpec(tent, VAC, name="tent")
    cfg = MCConfig(samples=40000, steps=64, seed=117)
    est = estimate_Tt_element([0.4], VAC, state, 0.1, ZERO_COEFFS, UNIT, cfg)
    oracle = interval_semigroup_apply(0.1, 0.4, lambda y: np.maximum(
        0.0, 1.0 - np.abs(y - 0.5) * 4.0))
    assert est.within(oracle)


def dense_gram_form(amps, omega, dt, dtype=float):
    """The atom Gram form with the full (M, n+1, n+1) time kernel."""
    lags = np.arange(amps.shape[1])
    gaps = np.asarray(dt, dtype) * np.abs(lags[:, None] - lags[None, :])
    gram = np.exp(-gaps[None, :, :] * np.asarray(omega, dtype)[:, None, None])
    form = np.einsum("blm,mlk,bkm->b", np.asarray(amps, dtype), gram,
                     np.asarray(amps, dtype), optimize=True)
    return form.astype(float)


GRAM_REGIMES = ("random", "rho_near_0", "rho_near_1")


@pytest.mark.parametrize("modes", [1, 2, 3])
@pytest.mark.parametrize("steps", [1, 2, 64, 257])
@pytest.mark.parametrize("regime", GRAM_REGIMES)
def test_atom_gram_form_matches_dense(modes, steps, regime):
    rng = np.random.default_rng([modes, steps, GRAM_REGIMES.index(regime)])
    dt = 1.0 / steps
    if regime == "random":
        omega = rng.uniform(0.05, 20.0, modes)
    elif regime == "rho_near_0":
        omega = rng.uniform(40.0, 400.0, modes) / dt
    else:
        omega = rng.uniform(0.5e-8, 2e-8, modes) / dt
    amps = rng.standard_normal((16, steps + 1, modes))
    fast = atom_gram_form(amps, omega, dt)
    # extended precision keeps the reference's own rounding out of the
    # comparison when rho -> 1 and the form nearly cancels
    dense = dense_gram_form(amps, omega, dt, np.longdouble)
    assert fast.shape == (16,)
    np.testing.assert_allclose(fast, dense, rtol=1e-12, atol=0.0)


def test_coupled_state_map_fine_grid_matches_dense_form(monkeypatch):
    sp2 = OneBosonSpace(np.array([0.7, 1.9]))

    def g_two_modes(x):
        xs = np.asarray(x)[..., 0]
        bump = np.exp(-xs**2)
        return np.stack([0.5 * bump, 0.3 * xs * bump], axis=-1)[..., None, :]

    coeffs = Coefficients(G=g_two_modes, space=sp2)
    state = StateSpec(gaussian_profile, sp2.vector([0.2, -0.1]), name="gaussian")
    u = sp2.vector([0.3, 0.4])
    cfg = MCConfig(samples=64, steps=2048, seed=126)
    box = Domain.interval(-4.0, 4.0)
    fast = estimate_Tt_element([0.0], u, state, 1.0, coeffs, box, cfg)
    monkeypatch.setattr(semigroup, "atom_gram_form", dense_gram_form)
    dense = estimate_Tt_element([0.0], u, state, 1.0, coeffs, box, cfg)
    assert np.isfinite(fast.value) and fast.stderr > 0.0
    assert fast.value == pytest.approx(dense.value, rel=1e-12)
    assert fast.stderr == pytest.approx(dense.stderr, rel=1e-10)


def g_nan_right(x):
    xs = np.asarray(x)[..., 0]
    return np.where(xs > 0.3, np.nan, 0.5)[..., None, None]


def test_nonfinite_samples_raise_with_count_and_first_index():
    cfg = MCConfig(samples=500, steps=16, seed=127)
    coeffs = Coefficients(G=g_nan_right, space=SP)
    paths = sample_bm_block(cfg.seed, 0, cfg.samples, [0.0], PathGrid(1.0, cfg.steps))
    hit = np.flatnonzero((paths[:, :, 0] > 0.3).any(axis=1))
    assert 0 < hit.size < cfg.samples
    message = f"{hit.size} of {cfg.samples} integrand samples are non-finite; " \
              f"the first is at path index {hit[0]}"
    with pytest.raises(FloatingPointError, match=message):
        estimate_Tt_element([0.0], VAC, GAUSS_STATE, 1.0, coeffs, FREE, cfg)


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("modes", [1, 2])
def test_element_block_rows_match_closed_forms(nu, modes):
    space = OneBosonSpace(np.linspace(0.6, 1.8, modes))
    weights = np.linspace(0.3, 0.8, nu * modes).reshape(nu, modes)
    coeffs = Coefficients(
        A=lambda x: np.sin(x + 0.3),
        V=lambda x: 1.0 + 0.5 * np.cos(x).sum(axis=-1),
        U=lambda x: 0.3 * np.exp(-(x**2).sum(axis=-1)),
        G=lambda x: np.sin(x)[..., :, None] * weights,
        space=space,
    )
    count = 10
    grid = PathGrid(0.7, 24)
    block = sample_bm_block(52 + nu, 0, count, np.full(nu, 0.1), grid)
    rng = np.random.default_rng([nu, modes])
    u, g = 0.5 * (rng.normal(size=(2, count, modes))
                  + 1j * rng.normal(size=(2, count, modes)))
    s_val, amps = action_block(block, coeffs, grid.dt)
    field = FieldKernels.on_grid(space.omega, grid)
    kernel = element_block(s_val, amps, u, g, field)
    star = np.conj(element_block(s_val, amps, g, u, field))
    for i, pos in enumerate(block):
        path = SampledPath(grid, pos, "free", start=pos[0].copy())
        inp = IntegrandInputs(grid.horizon, compute_S(path, coeffs),
                              compute_K(path, coeffs), space)
        u_i, g_i = space.vector(u[i]), space.vector(g[i])
        assert kernel[i] == pytest.approx(
            w_kernel_matrix_element(inp, u_i, g_i), rel=1e-12)
        assert star[i] == pytest.approx(
            w_star_matrix_element(inp, u_i, g_i), rel=1e-12)
    # one (M,) pair shared by the block gives the elements of that pair
    # repeated on every row
    shared = element_block(s_val, amps, u[0], g[0], field)
    repeated = element_block(s_val, amps, np.tile(u[0], (count, 1)),
                             np.tile(g[0], (count, 1)), field)
    np.testing.assert_allclose(shared, repeated, rtol=1e-14)
