"""The flow's one-state path computes in floats through math; the parent
kernels below compute the same expressions as numpy scalars.  Both must
give the same bits, which rests on np.sin/np.cos and math.sin/math.cos
agreeing on this platform (checked first)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import perilib.dynamics as dynamics
import perilib.potentials as potentials
from perilib.coords import (X_COLLISION, ActionAngleState, SecularState, derive_mass_params,
                            rr_forward_with_jacobian)
from perilib.dynamics import IntegrationError, StepControl, integrate
from perilib.hamiltonians import (HamiltonianSpec, _grad_action_angle_analytic,
                                  _grad_secular_analytic, gradient)
from perilib.kepler import _newton_bisect, solve_kepler_zero_ecc_form
from perilib.potentials import e_hat, e_hat_aa

TWO_PI = 2 * np.pi


# ---------------- the numpy-scalar kernels, as they stood ----------------


def ref_newton_bisect(e, ell, lo, hi, xi, tol):
    """The scalar guarded Newton through np.sin/np.cos."""
    for it in range(1, 101):
        f = xi - e * np.sin(xi) - ell
        if abs(f) <= tol:
            return xi, abs(f), it
        if f > 0:
            hi = xi
        else:
            lo = xi
        d = 1.0 - e * np.cos(xi)
        cand = xi - f / d if d > 1e-14 else np.nan
        xi = cand if lo < cand < hi else 0.5 * (lo + hi)
    raise AssertionError("reference loop stalled")


def ref_rr_forward_with_jacobian(m0, y, x):
    xr = float(np.real(x))
    if not 0.0 < xr < TWO_PI:
        raise ValueError("Re x must lie in (0, 2*pi), got %r" % (xr,))
    xi = ref_newton_bisect(1.0, xr, 0.0, TWO_PI, np.pi, 1e-14)[0]
    xr = np.real(x)
    if min(xr, TWO_PI - xr) < X_COLLISION:
        raise ValueError("x = %.17g: collision of the outer body (r = 0)" % xr)
    one_m_c = 1.0 - np.cos(xi)
    r = y**2 / m0**3 * one_m_c
    R = m0**3 / y * np.sin(xi) / one_m_c
    dr_dy = 2 * y * one_m_c / m0**3
    dr_dx = y**2 / m0**3 * np.sin(xi) / one_m_c
    return R, r, dr_dy, dr_dx


def ref_grad_secular(spec, state):
    R, G, r, g = state.R, state.G, state.r, state.g
    m0, Lam = spec.m0, spec.Lambda
    eps = spec.eps_of_r(r)
    u2 = G**2 / Lam**2
    root = np.sqrt(max(1e-300, 1.0 - u2))
    dH = np.array(
        [
            R / m0,
            G / (m0 * r**2),
            -(G**2) / (m0 * r**3) + spec.bare_weight * m0**2 / r**2,
            0.0,
        ]
    )
    for c, s in spec.terms():
        es = s * eps
        t = e_hat(es, Lam, G, g)
        F, Ft, Fe = potentials.f_eps_bundle(es, t)
        dE_dG = -(G / Lam**2) * np.cos(g) / root + 2 * es * G / Lam**2
        dE_dg = -root * np.sin(g)
        dE_des = u2
        dH[1] += -c * (m0**2 / r) * Ft * dE_dG
        dH[3] += -c * (m0**2 / r) * Ft * dE_dg
        dH[2] += c * (m0**2 / r**2) * (F + es * (Fe + Ft * dE_des))
    return dH


def ref_grad_action_angle(spec, state):
    Gc, gam, y, x = state.Gcal, state.gamma, state.y, state.x
    m0, Lam = spec.m0, spec.Lambda
    _, r, dr_dy, dr_dx = ref_rr_forward_with_jacobian(m0, y, x)
    eps = spec.eps_of_r(r)
    u = Gc / Lam
    c2g = np.cos(gam) ** 2
    s2g = 2.0 * np.cos(gam) * np.sin(gam)
    pref = m0**2 / r
    T1 = eps * (Lam**2 - Gc**2) / (2 * Lam**2) * c2g
    pert = T1
    df_dG = pref * (-eps * Gc * c2g / Lam**2)
    df_dgam = pref * (-eps * (Lam**2 - Gc**2) / (2 * Lam**2) * s2g)
    dpert_dr = -(T1 / r)
    for c, s in spec.terms():
        es = s * eps
        t = e_hat_aa(es, Lam, Gc, gam)
        fm1, Ft, Fe = potentials._f_minus_one(es, t, grad=True)
        pert -= c * fm1
        dE_dG = 1.0 / Lam - 2 * es * Gc * c2g / Lam**2
        dE_dgam = -es * (1.0 - u**2) * s2g
        dE_des = (1.0 - u**2) * c2g
        df_dG += -c * pref * Ft * dE_dG
        df_dgam += -c * pref * Ft * dE_dgam
        dpert_dr += c * (Fe + Ft * dE_des) * s * eps / r
    df_dr = -pert * pref / r + pref * dpert_dr
    dH_dy = m0**5 / y**3 + df_dr * dr_dy
    dH_dx = df_dr * dr_dx
    return np.array([df_dG, df_dgam, dH_dy, dH_dx])


def ref_gradient(spec, state):
    """gradient through the reference kernels, on a state whose fields are
    numpy scalars (as the flow passed them)."""
    state = type(state)(*(np.float64(v) for v in state.as_array()))
    kernel = ref_grad_secular if isinstance(state, SecularState) else ref_grad_action_angle
    return kernel(spec, state)


def outcome(f, *args):
    """f(*args) as exact bytes, or the type and text of what it raised."""
    try:
        got = f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return np.asarray(got, dtype=float).tobytes()


def make_spec(index, Lambda=1.0, m0=1.0):
    return HamiltonianSpec(index, m0, Lambda, derive_mass_params(1.0, 1.0, "jacobi"))


unit = st.floats(min_value=-1.0, max_value=1.0)
angle = st.floats(min_value=-np.pi, max_value=np.pi)
x_inside = st.floats(min_value=X_COLLISION, max_value=TWO_PI - X_COLLISION)


# ---------------- the premise ----------------


def test_numpy_and_math_trig_agree():
    x = np.random.default_rng(12).uniform(0.0, TWO_PI, 20_000)
    xs = x.tolist()
    assert np.sin(x).tolist() == [math.sin(v) for v in xs]
    assert np.cos(x).tolist() == [math.cos(v) for v in xs]
    assert all(np.sin(v) == math.sin(v) and np.cos(v) == math.cos(v) for v in xs[:2000])


# ---------------- float kernels against the numpy-scalar ones ----------------


@settings(max_examples=400, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=TWO_PI, exclude_min=True, exclude_max=True))
def test_radial_kepler_loop_matches_reference(x):
    args = (1.0, x, 0.0, TWO_PI, np.pi, 1e-14)
    assert _newton_bisect(*args) == ref_newton_bisect(*args)
    sol = solve_kepler_zero_ecc_form(x)
    assert (sol.xi, sol.residual, sol.iterations) == ref_newton_bisect(*args)
    assert type(sol.xi) is float


@settings(max_examples=200, deadline=None)
@given(e=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       ell=st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True))
def test_elliptic_kepler_loop_matches_reference(e, ell):
    args = (e, ell, ell - e, ell + e, ell + e * math.sin(ell), 1e-14)
    assert _newton_bisect(*args) == ref_newton_bisect(*args)


@settings(max_examples=400, deadline=None)
@given(m0=st.floats(min_value=0.5, max_value=2.0), y=st.floats(min_value=0.1, max_value=50.0),
       x=x_inside)
def test_radial_chart_matches_reference(m0, y, x):
    # x = 2 pi - X_COLLISION itself rounds into the collision band
    expect = outcome(ref_rr_forward_with_jacobian, m0, y, x)
    assert outcome(rr_forward_with_jacobian, m0, y, x) == expect
    if not isinstance(expect, tuple):
        assert all(type(v) is float for v in rr_forward_with_jacobian(m0, y, x))


@pytest.mark.parametrize("x", [1e-9, X_COLLISION / 2, TWO_PI - X_COLLISION / 2])
def test_radial_chart_collision_matches_reference(x):
    expect = outcome(ref_rr_forward_with_jacobian, 1.0, 2.0, x)
    assert expect[0] is ValueError
    assert outcome(rr_forward_with_jacobian, 1.0, 2.0, x) == expect


@settings(max_examples=300, deadline=None)
@given(index=st.sampled_from([1, 2]),
       R=st.floats(min_value=-2.0, max_value=2.0), G=unit, g=angle,
       r=st.floats(min_value=2.0, max_value=300.0))
def test_secular_gradient_matches_reference(index, R, G, g, r):
    spec = make_spec(index)
    state = SecularState(R, G, r, g)
    assert outcome(_grad_secular_analytic, spec, state) == outcome(
        ref_grad_secular, spec, SecularState(*map(np.float64, (R, G, r, g))))
    assert outcome(gradient, spec, state) == outcome(ref_gradient, spec, state)


@settings(max_examples=300, deadline=None)
@given(index=st.sampled_from([1, 2]), Gc=unit, gam=angle,
       y=st.floats(min_value=1.0, max_value=40.0), x=x_inside)
def test_action_angle_gradient_matches_reference(index, Gc, gam, y, x):
    spec = make_spec(index)
    state = ActionAngleState(Gc, gam, y, x)
    assert outcome(_grad_action_angle_analytic, spec, state) == outcome(
        ref_grad_action_angle, spec, ActionAngleState(*map(np.float64, (Gc, gam, y, x))))
    assert outcome(gradient, spec, state) == outcome(ref_gradient, spec, state)


@pytest.mark.parametrize("index", [1, 2])
@pytest.mark.parametrize("state", [
    SecularState(0.02, 0.3, 30.0, 0.4),
    ActionAngleState(0.4, 0.7, 10.0, 2.5),
])
def test_flow_matches_the_reference_kernels(monkeypatch, index, state):
    spec = make_spec(index)
    run = lambda: integrate(spec, state, 40.0, step_ctrl=StepControl(1e-10, 1e-10))
    traj = run()
    monkeypatch.setattr(dynamics, "gradient", ref_gradient)
    ref = run()
    assert traj.times.tobytes() == ref.times.tobytes()
    assert traj.states.tobytes() == ref.states.tobytes()
    assert traj.energies.tobytes() == ref.energies.tobytes()


# ---------------- the guards on the float path ----------------


def test_collision_mid_run_is_integration_error():
    # a small Lambda keeps eps small down to the collision at x = 2 pi
    spec = make_spec(2, Lambda=0.01)
    with pytest.raises(IntegrationError, match="collision of the outer body"):
        integrate(spec, ActionAngleState(0.004, 0.7, 10.0, TWO_PI - 1e-4), 2.0)


def test_eps_past_one_half_mid_run_is_integration_error():
    # falling inwards, r passes 2 beta a, where beta eps reaches 1/2
    with pytest.raises(IntegrationError, match=r"f_eps requires \|eps\| < 1/2"):
        integrate(make_spec(1), SecularState(-5.0, 0.0, 3.0, np.pi / 2), 1.0)


def test_radius_through_zero_mid_run_is_integration_error():
    # a small Lambda keeps eps below 1/2 until r is within 3e-6 of zero, and
    # loose tolerances let a step jump that band
    spec = make_spec(1, Lambda=1e-3)
    with pytest.raises(IntegrationError, match="radius r must be positive"):
        integrate(spec, SecularState(-100.0, 0.0, 1.0, 0.0), 1.0,
                  step_ctrl=StepControl(1e-3, 1e-3))


@pytest.mark.parametrize("x", [math.nan, np.nan, np.float64("nan")])
def test_nan_x_raises_value_error(x):
    with pytest.raises(ValueError, match="Re x"):
        solve_kepler_zero_ecc_form(x)
    with pytest.raises(ValueError):
        gradient(make_spec(1), ActionAngleState(0.4, 0.7, 10.0, x))


@pytest.mark.parametrize("state", [
    SecularState(0.02, 0.3, 30.0, 0.4),
    ActionAngleState(0.4, 0.7, 10.0, 2.5),
])
def test_gradient_takes_numpy_scalar_fields(state):
    spec = make_spec(2)
    fields = state.as_array()
    as_numpy = gradient(spec, type(state)(*fields))
    as_float = gradient(spec, type(state)(*fields.tolist()))
    assert isinstance(as_numpy, np.ndarray)
    assert as_numpy.shape == (4,) and as_numpy.dtype == np.float64
    assert as_numpy.tobytes() == as_float.tobytes()
