import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perilib.coords import (
    X_COLLISION,
    ActionAngleState,
    DomainError,
    SecularState,
    derive_mass_params,
    gg_forward,
    radial_radius,
    rr_forward,
    rr_forward_with_jacobian,
)
from perilib.hamiltonians import HamiltonianSpec
from perilib.kepler import xi_prime_real


def ref_gg_inverse(Lambda, G, g, branch="near-0"):
    """Invert gg_forward on one chart: the closed-form inverse, which the
    round-trip tests check gg_forward against.

    branch "near-0" targets Gcal > 0 (g within pi/2 of 0), "near-pi" targets
    Gcal < 0 (g within pi/2 of pi).  At the chart center G = 0, cos g = +-1
    any gamma maps there; the convention gamma = 0 is returned.
    """
    if branch == "near-0":
        d = np.angle(np.exp(1j * g))
        sign = 1.0
    elif branch == "near-pi":
        d = np.angle(np.exp(1j * (g - np.pi)))
        sign = -1.0
    else:
        raise ValueError("branch must be 'near-0' or 'near-pi'")
    if abs(d) >= np.pi / 2:
        raise ValueError("point outside the %s chart" % branch)
    if G**2 > Lambda**2:
        raise ValueError("|G| exceeds Lambda")
    # cos(g) = sign * cos(d), tan(g) = tan(d) on the chart
    Gcal = sign * np.sqrt(Lambda**2 - G**2) * np.cos(d)
    v = -Gcal * np.tan(d)
    if v == 0.0 and G == 0.0:
        return Gcal, 0.0
    return Gcal, np.arctan2(v, G)


class TestMassParams:
    def test_equal_masses_jacobi(self):
        mp = derive_mass_params(1.0, 1.0, "jacobi")
        assert abs(mp.beta - 4 / 3) < 1e-15
        assert abs(mp.beta_bar - 4 / 3) < 1e-15

    def test_equal_masses_star_params(self):
        spec = HamiltonianSpec(1, 1.0, 1.0, derive_mass_params(1.0, 1.0, "jacobi"))
        assert abs(spec.beta_star - 2 / 3) < 1e-15
        assert abs(spec.beta_upper - 4 / 3) < 1e-15

    def test_m0centric(self):
        mp = derive_mass_params(2.0, 3.0, "m0centric")
        assert abs(mp.beta - 9 * 3 / (4 * 4)) < 1e-15

    def test_star_below_upper(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            mu = rng.uniform(0.01, 100)
            kap = rng.uniform(0.01, 100)
            frame = "jacobi" if rng.random() < 0.5 else "m0centric"
            mp = derive_mass_params(mu, kap, frame)
            for i in (1, 2):
                spec = HamiltonianSpec(i, 1.0, 1.0, mp)
                assert spec.beta_star < spec.beta_upper

    def test_bbar_over_beta_is_mu(self):
        for frame in ("jacobi", "m0centric"):
            mp = derive_mass_params(0.37, 11.0, frame)
            assert abs(mp.beta_bar / mp.beta - 0.37) < 1e-14

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            derive_mass_params(0.0, 1.0)
        with pytest.raises(ValueError):
            derive_mass_params(1.0, -2.0)

    @pytest.mark.parametrize("mu, kappa", [
        (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, float("inf")),
        (-float("inf"), 1.0),
    ])
    def test_rejects_non_finite(self, mu, kappa):
        # mu = NaN used to give beta = NaN
        with pytest.raises(ValueError, match="finite and positive"):
            derive_mass_params(mu, kappa)

    @pytest.mark.parametrize("frame", ["jacobi", "m0centric"])
    @pytest.mark.parametrize("mu, kappa", [(1.0, 1e200), (1e200, 1.0), (1e-300, 1.0),
                                           (1.0, 1e-200), (1e-160, 1e160)])
    def test_rejects_weights_past_the_float_range(self, mu, kappa, frame):
        # these raised OverflowError or ZeroDivisionError, or gave beta = 0
        with pytest.raises(ValueError, match="float range"):
            derive_mass_params(mu, kappa, frame)


class TestGg:
    def test_gcal_at_lambda(self):
        G, g = gg_forward(2.0, 2.0, 0.7)
        assert G == 0.0
        assert g == 0.0

    def test_zero_gamma(self):
        G, g = gg_forward(1.0, 0.5, 0.0)
        assert abs(G - np.sqrt(3) / 2) < 1e-15
        assert g == 0.0

    def test_negative_branch(self):
        G, g = gg_forward(1.0, -0.5, 0.0)
        assert abs(G - np.sqrt(3) / 2) < 1e-15
        assert abs(g - np.pi) < 1e-15

    def test_rejects_zero_gcal(self):
        with pytest.raises(ValueError):
            gg_forward(1.0, 0.0, 0.1)

    def test_branch_targets(self):
        # Gcal -> +Lambda lands near (0, 0); Gcal -> -Lambda lands near (0, pi)
        G, g = gg_forward(1.0, 0.999, 1.3)
        assert abs(G) < 0.05 and abs(g) < 0.05
        G, g = gg_forward(1.0, -0.999, 1.3)
        assert abs(G) < 0.05 and abs(g - np.pi) < 0.05

    def test_canonical_jacobian(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(200):
            Lam = rng.uniform(0.5, 2.0)
            Gc = rng.uniform(0.05, 0.95) * Lam * (1 if rng.random() < 0.5 else -1)
            gam = rng.uniform(-np.pi, np.pi)
            J = np.empty((2, 2))
            for col, (dG, dgam) in enumerate([(h, 0.0), (0.0, h)]):
                Gp, gp = gg_forward(Lam, Gc + dG, gam + dgam)
                Gm, gm = gg_forward(Lam, Gc - dG, gam - dgam)
                J[0, col] = (Gp - Gm) / (2 * h)
                J[1, col] = np.angle(np.exp(1j * (gp - gm))) / (2 * h)
            assert abs(np.linalg.det(J) - 1.0) < 1e-8

    def test_inverse_center_convention(self):
        Gc, gam = ref_gg_inverse(1.0, 0.0, 0.0, "near-0")
        assert Gc == 1.0 and gam == 0.0

    def test_inverse_of_forward_anchor(self):
        Gc, gam = ref_gg_inverse(1.0, np.sqrt(3) / 2, np.pi, "near-pi")
        assert abs(Gc + 0.5) < 1e-14
        assert abs(gam) < 1e-14

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            Lam = rng.uniform(0.5, 2.0)
            sign = 1 if rng.random() < 0.5 else -1
            Gc = sign * rng.uniform(0.02, 0.999) * Lam
            gam = rng.uniform(-np.pi, np.pi)
            G, g = gg_forward(Lam, Gc, gam)
            branch = "near-0" if sign > 0 else "near-pi"
            Gc2, gam2 = ref_gg_inverse(Lam, G, g, branch)
            G2, g2 = gg_forward(Lam, Gc2, gam2)
            worst = max(
                worst,
                abs(Gc - Gc2),
                abs(np.angle(np.exp(1j * (gam - gam2)))),
                abs(G - G2),
                abs(np.angle(np.exp(1j * (g - g2)))),
            )
        assert worst < 1e-12

    def test_inverse_rejects_wrong_chart(self):
        with pytest.raises(ValueError):
            ref_gg_inverse(1.0, 0.1, np.pi, "near-0")


class TestRr:
    def test_apoapsis(self):
        R, r = rr_forward(1.0, 1.3, np.pi)
        assert abs(R) < 1e-13
        assert abs(r - 2 * 1.3**2) < 1e-12

    def test_energy_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m0 = rng.uniform(0.5, 2.0)
            y = rng.uniform(0.5, 3.0)
            x = rng.uniform(0.3, 2 * np.pi - 0.3)
            R, r = rr_forward(m0, y, x)
            lhs = R**2 / (2 * m0) - m0**2 / r
            rhs = -(m0**5) / (2 * y**2)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_value_via_kepler_oracle(self):
        # oracle: bisection solution of xi - sin xi = pi/2, then Eq. for r
        xi = 2.309881460010057
        R, r = rr_forward(1.0, 1.0, np.pi / 2)
        assert abs(r - (1 - np.cos(xi))) < 1e-12
        # on (0, pi) the printed square-root branch is the positive one
        assert abs(R - np.sqrt((np.cos(xi) + 1) / (1 - np.cos(xi)))) < 1e-12

    def test_signed_branch_past_apoapsis(self):
        R, _ = rr_forward(1.0, 1.0, np.pi + 1.0)
        assert R < 0

    def test_canonical_jacobian(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(100):
            m0 = rng.uniform(0.5, 1.5)
            y = rng.uniform(0.5, 2.5)
            x = rng.uniform(0.5, 2 * np.pi - 0.5)
            J = np.empty((2, 2))
            for col, (dy, dx) in enumerate([(h, 0.0), (0.0, h)]):
                Rp, rp = rr_forward(m0, y + dy, x + dx)
                Rm, rm = rr_forward(m0, y - dy, x - dx)
                J[0, col] = (Rp - Rm) / (2 * h)
                J[1, col] = (rp - rm) / (2 * h)
            assert abs(np.linalg.det(J) - 1.0) < 1e-6

    def test_jacobian_helper_matches_fd(self):
        m0, y, x = 1.2, 1.7, 2.1
        _, _, dr_dy, dr_dx = rr_forward_with_jacobian(m0, y, x)
        h = 1e-7
        _, rp = rr_forward(m0, y + h, x)
        _, rm = rr_forward(m0, y - h, x)
        assert abs((rp - rm) / (2 * h) - dr_dy) < 1e-7
        _, rp = rr_forward(m0, y, x + h)
        _, rm = rr_forward(m0, y, x - h)
        assert abs((rp - rm) / (2 * h) - dr_dx) < 1e-6


class TestCollisionGuard:
    @pytest.mark.parametrize("y", [[1e200], [4.0, 1e200]], ids=["one-state", "array"])
    def test_radius_past_the_float_range_raises(self, y):
        # r = y^2/m0^3 (1 - cos xi') overflows to inf, where the energy
        # rounds to 0; the chart map refuses it, numpy warning of nothing
        x = np.full(len(y), 2.5)
        with pytest.raises(DomainError, match="radial radius r past the float range"):
            radial_radius(1.0, np.array(y), x)
        assert np.isfinite(radial_radius(1.0, np.array([1e100] * len(y)), x)).all()

    @pytest.mark.parametrize("x", [1e-21, 1e-12, 2 * np.pi - 1e-12])
    def test_near_collision_raises(self, x):
        from perilib.hamiltonians import HamiltonianSpec, chart_named

        with pytest.raises(ValueError, match="collision"):
            rr_forward(1.0, 4.0, x)
        with pytest.raises(ValueError, match="collision"):
            radial_radius(1.0, np.array([4.0, 4.0]), np.array([2.0, x]))
        spec = HamiltonianSpec(1, 1.0, 1.0, derive_mass_params(1.0, 1.0))
        with pytest.raises(ValueError, match="collision"):
            chart_named("action-angle").energies(spec, np.array([[0.5, 0.1, 4.0, 2.0],
                                                                 [0.5, 0.1, 4.0, x]]))

    def test_solve_accurate_outside_the_guard(self):
        # from X_COLLISION up, xi' agrees with its small-x series to 1e-8
        # relative on both sides of the collision
        for x in np.logspace(np.log10(X_COLLISION), -5, 41):
            s = (6 * x) ** (1 / 3)
            series = s * (1 + s * s / 60)
            assert abs(xi_prime_real(x) / series - 1) < 1e-8
            assert abs((2 * np.pi - xi_prime_real(2 * np.pi - x)) / series - 1) < 1e-8
            rr_forward(1.0, 4.0, x)


def test_states_validate():
    with pytest.raises(ValueError):
        SecularState(0.0, 0.0, -1.0, 0.0)
    s = ActionAngleState(0.9, 0.1, 2.0, np.pi)
    assert s.as_array().shape == (4,)


@settings(max_examples=150, deadline=None)
@given(
    Lam=st.floats(min_value=0.2, max_value=5.0),
    frac=st.floats(min_value=0.01, max_value=0.999),
    sign=st.sampled_from([-1.0, 1.0]),
    gam=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_gg_roundtrip_property(Lam, frac, sign, gam):
    Gc = sign * frac * Lam
    G, g = gg_forward(Lam, Gc, gam)
    branch = "near-0" if sign > 0 else "near-pi"
    Gc2, gam2 = ref_gg_inverse(Lam, G, g, branch)
    assert abs(Gc - Gc2) < 1e-10 * Lam
    assert abs(np.angle(np.exp(1j * (gam - gam2)))) < 1e-9


@settings(max_examples=150, deadline=None)
@given(
    m0=st.floats(min_value=0.3, max_value=3.0),
    y=st.floats(min_value=0.2, max_value=5.0),
    x=st.floats(min_value=0.05, max_value=2 * np.pi - 0.05),
)
def test_rr_energy_identity_property(m0, y, x):
    R, r = rr_forward(m0, y, x)
    lhs = R**2 / (2 * m0) - m0**2 / r
    rhs = -(m0**5) / (2 * y**2)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))
