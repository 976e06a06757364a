import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perilib.coords import gg_forward
from perilib.potentials import (
    QuadratureSpec,
    SingularLocusError,
    check_renorm_identity,
    e_hat,
    e_hat_aa,
    f_eps,
    f_eps_at_one,
    f_eps_bundle,
    f_eps_minus_one,
    f_eps_minus_one_grid,
    rho_p,
    singularity_t,
    u_hat,
    u_hat_mean_anomaly,
)

QUAD = QuadratureSpec(256)


class TestRhoP:
    def test_circular(self):
        rho, p = rho_p(1.0, 1.0, 0.8, 0.0)
        assert abs(rho - 1.0) < 1e-14
        assert abs(p - np.cos(0.8)) < 1e-14

    def test_degenerate_pericenter(self):
        rho, _ = rho_p(1.0, 0.0, 0.0, 1.0)
        assert abs(rho) < 1e-14

    def test_textual_formula_oracle(self):
        # symbol-by-symbol independent recomputation
        from perilib.kepler import solve_kepler

        Lam, G, ell, g = 1.3, 0.6, 2.1, -0.9
        e = np.sqrt(1 - G**2 / Lam**2)
        xi = solve_kepler(e, ell).xi
        rho_expect = 1 - e * np.cos(xi)
        p_expect = (np.cos(xi) - e) * np.cos(g) - (G / Lam) * np.sin(xi) * np.sin(g)
        rho, p = rho_p(Lam, G, ell, g)
        assert abs(rho - rho_expect) < 1e-14
        assert abs(p - p_expect) < 1e-14


class TestUHat:
    def test_eps_zero_is_one(self):
        assert u_hat(0.0, 1.0, 0.33, 1.7, QUAD) == 1.0

    def test_matches_closed_form_at_squeezed_origin(self):
        got = u_hat(0.25, 1.0, 0.0, 0.0, QUAD)
        assert abs(got - f_eps_at_one(0.25)) < 1e-10

    def test_node_refinement(self):
        a = u_hat(0.3, 1.0, 0.41, 0.9, QuadratureSpec(256))
        b = u_hat(0.3, 1.0, 0.41, 0.9, QuadratureSpec(512))
        assert abs(a - b) < 1e-12

    def test_matches_mean_anomaly_form_at_moderate_e(self):
        # independent route through the Kepler solver; moderate eccentricity
        # keeps the mean-anomaly integrand well resolved
        a = u_hat(0.2, 1.0, 0.8, 1.1, QuadratureSpec(256))
        b = u_hat_mean_anomaly(0.2, 1.0, 0.8, 1.1, QuadratureSpec(256))
        assert abs(a - b) < 1e-10


class TestEHat:
    def test_plus_one_at_origin(self):
        assert e_hat(0.3, 1.0, 0.0, 0.0) == 1.0

    def test_minus_one_at_pi(self):
        assert abs(e_hat(0.3, 1.0, 0.0, np.pi) + 1.0) < 1e-15

    def test_circular_limit(self):
        assert abs(e_hat(0.4, 1.0, 1.0, 2.2) - 0.4) < 1e-15

    def test_even_in_G_and_g(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            G = rng.uniform(-1, 1)
            g = rng.uniform(-np.pi, np.pi)
            v = e_hat(0.3, 1.0, G, g)
            assert abs(v - e_hat(0.3, 1.0, -G, g)) < 1e-15
            assert abs(v - e_hat(0.3, 1.0, G, -g)) < 1e-15

    def test_aa_chart_values(self):
        assert e_hat_aa(0.5, 1.0, 1.0, 0.7) == 1.0
        assert e_hat_aa(0.5, 1.0, 0.0, 0.0) == 0.5

    def test_bounded_below_singular_value(self):
        # real states satisfy |e_hat| <= 1 + |eps| while the singular t is
        # eps + 1/(4 eps) >= 1, so the locus is out of reach for |eps| < 1/2
        rng = np.random.default_rng(9)
        for _ in range(200):
            eps = rng.uniform(-0.49, 0.49)
            G = rng.uniform(-1, 1)
            g = rng.uniform(-np.pi, np.pi)
            assert abs(e_hat(eps, 1.0, G, g)) <= 1 + abs(eps) + 1e-12

    def test_aa_consistency_with_chart_map(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            Lam = rng.uniform(0.5, 2.0)
            Gc = rng.uniform(0.05, 0.99) * Lam * (1 if rng.random() < 0.5 else -1)
            gam = rng.uniform(-np.pi, np.pi)
            eps = rng.uniform(-0.4, 0.4)
            G, g = gg_forward(Lam, Gc, gam)
            assert abs(e_hat_aa(eps, Lam, Gc, gam) - e_hat(eps, Lam, G, g)) < 1e-12


class TestFEps:
    def test_eps_zero_mean(self):
        assert f_eps(0.0, 0.77, QUAD) == 1.0

    def test_closed_form_value(self):
        assert abs(f_eps(0.25, 1.0, QUAD) - 1.6568542494923804) < 1e-12

    def test_closed_form_sweep(self):
        for eps in (0.1, 0.2, 0.3, 0.4):
            assert abs(f_eps(eps, 1.0, QUAD) - f_eps_at_one(eps)) < 1e-10

    def test_closed_form_negative_eps(self):
        assert abs(f_eps(-0.3, 1.0, QUAD) - f_eps_at_one(-0.3)) < 1e-12

    def test_rejects_large_eps(self):
        with pytest.raises(ValueError):
            f_eps(0.5, 0.3)

    def test_guard_on_singular_locus(self):
        with pytest.raises(SingularLocusError):
            f_eps(0.25, singularity_t(0.25), QUAD)

    def test_divergence_approaching_locus(self):
        t0 = singularity_t(0.25)
        vals = [f_eps(0.25, t0 * (1 - 10.0**-k), QUAD) for k in range(2, 7)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_symmetry_eps_t_flip(self):
        # substitution symmetry of the integrand: F_{-eps}(-t) = F_eps(t)
        for eps, t in [(0.2, 0.6), (0.35, -0.4), (0.45, 0.9)]:
            assert abs(f_eps(eps, t, QUAD) - f_eps(-eps, -t, QUAD)) < 1e-13


class TestFEpsDerivative:
    def test_eps_zero(self):
        assert f_eps_bundle(0.0, 0.4, QUAD)[1] == 0.0

    def test_matches_finite_difference(self):
        h = 1e-5
        for eps, t in [(0.25, 0.0), (0.3, 0.8), (-0.2, -0.5)]:
            fd = (f_eps(eps, t + h, QUAD) - f_eps(eps, t - h, QUAD)) / (2 * h)
            assert abs(f_eps_bundle(eps, t, QUAD)[1] - fd) < 1e-7

    def test_positive_for_positive_eps(self):
        for t in (-0.9, 0.0, 0.9):
            assert f_eps_bundle(0.3, t, QUAD)[1] > 0

    def test_eps_partial_matches_fd(self):
        h = 1e-6
        for eps, t in [(0.25, 0.3), (-0.15, 0.9)]:
            fd = (f_eps(eps + h, t, QUAD) - f_eps(eps - h, t, QUAD)) / (2 * h)
            assert abs(f_eps_bundle(eps, t, QUAD)[2] - fd) < 1e-6


# the radicand (1 - eps X t)^2 + eps^2 X^2 (1 - t^2) stays above the floor
# for |t| <= 0.9
_eps = st.floats(min_value=-0.49, max_value=0.49)
_t = st.floats(min_value=-0.9, max_value=0.9)


@settings(max_examples=50, deadline=None)
@given(
    eps=st.lists(_eps, min_size=1, max_size=5),
    t=st.lists(_t, min_size=1, max_size=4),
    quad=st.sampled_from([QuadratureSpec(32), QUAD]),
)
def test_grid_matches_scalar_wrappers(eps, t, quad):
    # an (n_eps, 1) column against an (n_t,) row broadcasts to (n_eps, n_t)
    E = np.array(eps)[:, None]
    T = np.array(t)[None, :]
    grid = f_eps_minus_one_grid(E, T, quad)
    assert grid.shape == (len(eps), len(t))
    for i, e in enumerate(eps):
        for j, tt in enumerate(t):
            fm1 = f_eps_minus_one(e, tt, quad)
            assert grid[i, j] == fm1
            assert f_eps_bundle(e, tt, quad)[0] == f_eps(e, tt, quad) == 1 + fm1


def ref_f_minus_one(eps, t, n):
    """f - 1, d/dt f and d/deps f by the n-node periodic trapezoid rule over
    the full range of xi, with the mean |integrand| of each as its scale."""
    xi = 2 * np.pi * np.arange(n) / n
    X = 1.0 - np.cos(xi)
    eX = eps * X
    u = 2 * eX * t - eX**2
    rad = 1.0 - u
    s = np.sqrt(rad)
    X2m = X**2 / (rad * s)
    integrands = (X * u / (s * (1.0 + s)), eps * X2m, X2m * (t - eps * X))
    return [(v.sum() / n, np.abs(v).mean()) for v in integrands]


# |eps| from 1e-12 to 0.49 on a log scale; for |t| <= 1 the radicand is at
# least (1 - 2|eps|)^2, so every (eps, t) drawn is admissible
@settings(max_examples=200, deadline=None)
@given(
    log_eps=st.floats(min_value=-12.0, max_value=np.log10(0.49)),
    sign=st.sampled_from([-1.0, 1.0]),
    t=st.floats(min_value=-1.0, max_value=1.0),
    quad=st.sampled_from([QuadratureSpec(32), QuadratureSpec(34), QUAD]),
)
def test_half_range_matches_full_range(log_eps, sign, t, quad):
    # the kernel sums the folded half range; relative errors alone reach
    # 1e-13 where f - 1 nearly cancels, so the bound uses the integrand scale
    eps = sign * 10.0**log_eps
    _, ft, fe = f_eps_bundle(eps, t, quad)
    got = (f_eps_minus_one(eps, t, quad), ft, fe)
    for value, (expect, scale) in zip(got, ref_f_minus_one(eps, t, quad.n_nodes)):
        assert abs(value - expect) <= 2e-15 * scale


def test_grid_across_chunk_boundary():
    from perilib.potentials import _GRID_CHUNK

    t = np.linspace(-0.9, 0.9, _GRID_CHUNK + 3)
    grid = f_eps_minus_one_grid(0.3, t, QUAD)
    for i in (0, _GRID_CHUNK - 1, _GRID_CHUNK, _GRID_CHUNK + 2):
        assert grid[i] == f_eps_minus_one(0.3, t[i], QUAD)


@pytest.mark.parametrize("kernel", [f_eps, f_eps_bundle, f_eps_minus_one])
def test_nan_input_raises_on_scalar_path(kernel):
    with pytest.raises(ValueError):
        kernel(np.nan, 0.5, QUAD)
    with pytest.raises(SingularLocusError):
        kernel(0.1, np.nan, QUAD)


def test_nan_input_raises_on_grid_path():
    # the NaN sits in the second quadrature chunk
    from perilib.potentials import _GRID_CHUNK

    n = 2 * _GRID_CHUNK
    eps = np.full(n, 0.1)
    eps[-1] = np.nan
    with pytest.raises(ValueError):
        f_eps_minus_one_grid(eps, 0.5, QUAD)
    t = np.full(n, 0.5)
    t[-1] = np.nan
    with pytest.raises(SingularLocusError):
        f_eps_minus_one_grid(0.1, t, QUAD)


class TestSingularity:
    def test_quarter(self):
        assert abs(singularity_t(0.25) - 1.25) < 1e-15

    def test_half(self):
        assert abs(singularity_t(0.5) - 1.0) < 1e-15

    def test_locus_above_real_range(self):
        # min over (0, 1/2] of eps + 1/(4 eps) is 1, attained only at 1/2,
        # while |e_hat| <= 1 + |eps| on real states
        eps = np.linspace(1e-3, 0.5, 1000)
        assert np.all(singularity_t_vals(eps) >= 1.0 - 1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            singularity_t(0.0)


def singularity_t_vals(eps):
    return eps + 1.0 / (4.0 * eps)


class TestRenormIdentity:
    def test_eps_zero_exact(self):
        # both sides are identically 1; only summation roundoff remains
        worst, _ = check_renorm_identity(0.0, sample_n=20)
        assert worst <= 1e-15

    def test_identity_positive_and_negative(self):
        rng = np.random.default_rng(42)
        for eps in (0.3, -0.3):
            worst, _ = check_renorm_identity(eps, sample_n=100, rng=rng)
            assert worst < 1e-8

    def test_poisson_commutation_fd(self):
        # canonical bracket {u_hat, e_hat} in (G, g) by central differences
        rng = np.random.default_rng(7)
        h = 1e-5
        eps = 0.3
        worst = 0.0
        for _ in range(50):
            G = rng.uniform(-0.9, 0.9)
            g = rng.uniform(-np.pi, np.pi)
            du_G = (u_hat(eps, 1, G + h, g) - u_hat(eps, 1, G - h, g)) / (2 * h)
            du_g = (u_hat(eps, 1, G, g + h) - u_hat(eps, 1, G, g - h)) / (2 * h)
            de_G = (e_hat(eps, 1, G + h, g) - e_hat(eps, 1, G - h, g)) / (2 * h)
            de_g = (e_hat(eps, 1, G, g + h) - e_hat(eps, 1, G, g - h)) / (2 * h)
            worst = max(worst, abs(du_G * de_g - du_g * de_G))
        assert worst < 1e-6


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(16)
    with pytest.raises(ValueError):
        QuadratureSpec(33)
