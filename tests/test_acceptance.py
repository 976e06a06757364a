"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import time

import numpy as np

from perilib.coords import ActionAngleState, SecularState, derive_mass_params
from perilib.dynamics import StepControl, integrate
from perilib.hamiltonians import HamiltonianSpec
from perilib.kepler import solve_kepler, solve_kepler_zero_ecc_form
from perilib.normalform import (
    FrequencyData,
    build_secular_perturbation,
    normal_form_steps,
    nqp_primitive,
    tf_average_split,
    tf_build,
    tf_norm,
)
from perilib.portraits import find_equilibria, has_rotational_orbits
from perilib.potentials import (
    QuadratureSpec,
    SingularLocusError,
    check_renorm_identity,
    e_hat,
    f_eps,
    u_hat,
)
from perilib.theorem import check_libration_theorem, run_libration_experiment

QUAD = QuadratureSpec(256)


def report(n, ok, detail):
    print("\nACCEPTANCE %2d: %s  (%s)" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_renormalizable_integrability():
    t0 = time.time()
    worst_all = 0.0
    for i, eps in enumerate((0.1, -0.1, 0.25, -0.25, 0.4, -0.4)):
        rng = np.random.default_rng(1000 + i)
        worst, _ = check_renorm_identity(eps, 1.0, 100, QUAD, rng=rng)
        worst_all = max(worst_all, worst)
    elapsed = time.time() - t0
    report(
        1,
        worst_all < 1e-8 and elapsed < 10.0,
        "max residual %.3e over 6 eps values, %.1f s" % (worst_all, elapsed),
    )


def test_criterion_2_closed_form():
    worst = max(
        abs(f_eps(eps, 1.0, QUAD) - 2 / (np.sqrt(1 - 2 * eps) * (1 + np.sqrt(1 - 2 * eps))))
        for eps in (0.1, 0.2, 0.3, 0.4)
    )
    report(2, worst < 1e-10, "max |quadrature - closed form| = %.3e" % worst)


def test_criterion_3_singular_locus():
    # the growth clause is checked at the minimum admissible quadrature
    # (32 nodes), where the node pinned on the blow-up point dominates and
    # the divergence rate is visible; the criterion leaves the rule free
    q32 = QuadratureSpec(32)
    vals = [f_eps(0.25, 1.25 * (1 - 10.0**-k), q32) for k in range(2, 7)]
    growing = all(b >= 1.5 * a for a, b in zip(vals, vals[1:]))
    guard = False
    try:
        f_eps(0.25, 1.25, q32)
    except SingularLocusError:
        guard = True
    guard_default = False
    try:
        f_eps(0.25, 1.25, QUAD)
    except SingularLocusError:
        guard_default = True
    report(
        3,
        growing and guard and guard_default,
        "values %s, guard at t=1.25: %s" % (["%.2f" % v for v in vals], guard),
    )


def test_criterion_4_portrait_taxonomy():
    ok = True
    detail = []
    eqs = find_equilibria(0.3, 1.0)
    locs = {(round(e.location[0], 6), round(e.location[1], 6)): e for e in eqs}
    two_centers = (
        len(eqs) == 2
        and set(locs) == {(0.0, 0.0), (round(np.pi, 6), 0.0)}
        and all(e.kind == "center" for e in eqs)
        and all(abs(ev.real) < 1e-8 for e in eqs for ev in e.eigenvalues)
    )
    ok &= two_centers
    detail.append("eps=0.3 two centers: %s" % two_centers)

    eqs = find_equilibria(0.7, 1.0)
    locs = {(round(e.location[0], 4), round(e.location[1], 4)): e for e in eqs}
    G0 = round(float(np.sqrt(1 - 1 / (4 * 0.7**2))), 4)
    taxonomy = (
        len(eqs) == 4
        and locs.get((0.0, 0.0), None) is not None
        and locs[(0.0, 0.0)].kind == "saddle"
        and locs[(round(np.pi, 4), 0.0)].kind == "center"
        and (0.0, G0) in locs
        and (0.0, -G0) in locs
        and all(abs(ev.real) < 1e-8
                for e in eqs if e.kind == "center" for ev in e.eigenvalues)
    )
    ok &= taxonomy
    detail.append("eps=0.7 saddle + axis pair: %s" % taxonomy)

    rotation = has_rotational_orbits(1.5)
    ok &= rotation
    detail.append("eps=1.5 rotation: %s" % rotation)
    report(4, ok, "; ".join(detail))


def test_criterion_5_poisson_commutation():
    rng = np.random.default_rng(77)
    h = 1e-5
    eps = 0.3
    worst = 0.0
    for _ in range(50):
        G = rng.uniform(-0.9, 0.9)
        g = rng.uniform(-np.pi, np.pi)
        du_G = (u_hat(eps, 1, G + h, g, QUAD) - u_hat(eps, 1, G - h, g, QUAD)) / (2 * h)
        du_g = (u_hat(eps, 1, G, g + h, QUAD) - u_hat(eps, 1, G, g - h, QUAD)) / (2 * h)
        de_G = (e_hat(eps, 1, G + h, g) - e_hat(eps, 1, G - h, g)) / (2 * h)
        de_g = (e_hat(eps, 1, G, g + h) - e_hat(eps, 1, G, g - h)) / (2 * h)
        worst = max(worst, abs(du_G * de_g - du_g * de_G))
    report(5, worst < 1e-6, "max |{u, e}| = %.3e at 50 seeded points" % worst)


def test_criterion_6_invariant_manifold():
    spec = HamiltonianSpec(1, 1.0, 1.0, derive_mass_params(1.0, 1.0, "jacobi"))
    st = SecularState(0.1, 0.0, 100.0, 0.0)
    traj = integrate(
        spec,
        st,
        1000.0,
        step_ctrl=StepControl(rtol=1e-12, atol=1e-12, method="DOP853"),
    )
    g_max = float(np.max(np.abs(traj.states[:, 1])))
    gg_max = float(np.max(np.abs(traj.states[:, 3])))
    drift = traj.energy_drift
    report(
        6,
        g_max < 1e-9 and gg_max < 1e-9 and drift < 1e-8,
        "max|G|=%.1e max|g|=%.1e energy drift=%.1e over 1e3 time units"
        % (g_max, gg_max, drift),
    )


def test_criterion_7_libration_demonstration():
    # the statement is existential: constants are unknowable, so the
    # property-based substitute constructs parameters along the scaling
    # chain with explicit margins, checks every inequality under documented
    # surrogate constants, and verifies the actual motion
    t0 = time.time()
    beta_bar = 3000.0
    kappa = (beta_bar + np.sqrt(beta_bar**2 + 8 * beta_bar)) / 4
    masses = derive_mass_params(1.0, kappa, "m0centric")
    spec = HamiltonianSpec(2, 1.0, 1.0, masses)
    report_t = check_libration_theorem(
        spec,
        eps0=0.25,
        delta=0.025,
        s0=1.0,
        alpha_minus=2.0e4,
        alpha_plus=3.2e5,
        c_upper=10.0,
        c_lower=5e-8,  # documented surrogate, non-rigorous
    )
    all_hold = report_t.passed
    state0 = ActionAngleState(1.0 - 0.025 / 8, 0.3, 2 * np.sqrt(2.0e4) * 1.025, np.pi)
    traj, summary = run_libration_experiment(spec, report_t, state0)
    elapsed = time.time() - t0
    ok = (
        all_hold
        and summary.winding >= 2 * np.pi
        and summary.squeezes >= 2
        and summary.Gcal_drift <= 0.025 / 2
        and summary.r_min > summary.collision_radius
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        "inequalities pass=%s winding=%.2fpi squeezes=%d Gdrift=%.1e "
        "r_min/coll=%.1f, %.1f s"
        % (
            all_hold,
            summary.winding / np.pi,
            summary.squeezes,
            summary.Gcal_drift,
            summary.r_min / summary.collision_radius,
            elapsed,
        ),
    )


def test_criterion_8_normal_form_decay():
    masses = derive_mass_params(1.0, 0.02, "m0centric")
    spec = HamiltonianSpec(2, 1.0, 1.0, masses)
    series, freqs = build_secular_perturbation(
        spec, 0.45, 1000.0, 16000.0, 0.005, grid_shape=(16, 16, 20), fourier_cutoff=8
    )
    result = normal_form_steps(series, freqs, N=3, s=1.0)
    osc = [s.osc_norm for s in result.steps]
    osc.append(tf_norm(tf_average_split(result.f_star)[1], 1.0))
    ratios = [b / a for a, b in zip(osc, osc[1:])]
    residuals = [s.residual for s in result.steps]
    ok = (
        len(ratios) >= 3
        and all(r <= 0.5 for r in ratios[:3])
        and all(r < 1e-8 for r in residuals)
    )
    report(
        8,
        ok,
        "osc ratios %s, max residual %.2e"
        % (["%.1e" % r for r in ratios], max(residuals)),
    )


def test_criterion_9_nqp_closed_form():
    omega_I, omega_y = 1.0, 2.0
    box = [(0.5, 1.5), (1.0, 2.0), (0.0, 2.0)]
    shape = (8, 8, 16)
    a = lambda I: 1.0 + 0.3 * I
    f = tf_build(
        lambda I, p, y, x: a(I) * np.cos(p) + 0 * y, box, shape, fourier_cutoff=4
    )
    freqs = FrequencyData.tabulate(
        box, shape, lambda I, y: omega_y + 0 * y, omega_I=[lambda I, y: omega_I + 0 * y]
    )
    # integrated from the lower x edge, 0.0, where the closed form vanishes
    phi = nqp_primitive(f, freqs)
    grids = phi.grids()
    worst = 0.0
    for i in range(0, shape[0], 2):
        for kx in range(0, shape[2], 3):
            for ph in (0.0, 1.1, 2.9, 4.4):
                I, x = grids[0][i], grids[2][kx]
                got = phi.evaluate([I], [ph], grids[1][4], x)
                expect = (a(I) / omega_I) * (
                    np.sin(ph) - np.sin(ph - (omega_I / omega_y) * x)
                )
                worst = max(worst, abs(got - expect))
    report(9, worst < 1e-9, "max deviation from closed form %.2e on grid" % worst)


def test_criterion_10_kepler_grid():
    worst = 0.0
    for e in np.linspace(0.0, 0.99, 100):
        for ell in np.linspace(0.0, 2 * np.pi, 100, endpoint=False):
            worst = max(worst, solve_kepler(e, ell).residual)
    # radial form against an independent bisection oracle on the real strip
    def bisect(x):
        a, b = 0.0, 2 * np.pi
        for _ in range(200):
            m = 0.5 * (a + b)
            if m - np.sin(m) - x <= 0:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    s = np.sqrt(0.25)
    worst_radial = max(
        abs(solve_kepler_zero_ecc_form(x).xi - bisect(x))
        for x in np.linspace(2 * s, 2 * np.pi - 2 * s, 60)
    )
    report(
        10,
        worst < 1e-13 and worst_radial < 1e-12,
        "max residual %.2e on 100x100 grid; radial vs bisection %.2e"
        % (worst, worst_radial),
    )
