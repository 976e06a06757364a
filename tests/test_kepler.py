import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perilib.kepler import (
    KeplerError,
    _solve_elliptic,
    estimate_c0,
    solve_kepler,
    solve_kepler_zero_ecc_form,
    xi_prime_array,
    xi_prime_real,
)


def solve_kepler_array(e, ell):
    """Eccentric anomaly for an array of mean anomalies, e in [0, 1]: the
    solve_kepler iteration on all entries at once."""
    # a copy, since e = 0 returns ell itself as the solution
    return _solve_elliptic(e, np.array(ell, dtype=float)).xi


def bisect(f, a, b, tol=1e-15):
    """Independent bracketing oracle."""
    fa = f(a)
    assert fa * f(b) <= 0
    for _ in range(200):
        m = 0.5 * (a + b)
        if fa * f(m) <= 0:
            b = m
        else:
            a, fa = m, f(m)
        if b - a < tol:
            break
    return 0.5 * (a + b)


def test_identity_case():
    sol = solve_kepler(0.0, 1.2)
    assert sol.xi == 1.2
    assert sol.residual == 0.0


def test_sin_pi_symmetry():
    sol = solve_kepler(0.5, np.pi)
    assert abs(sol.xi - np.pi) < 1e-14


def test_against_bisection_oracle():
    # oracle value for (e, ell) = (0.9, 1.0)
    expected = bisect(lambda x: x - 0.9 * np.sin(x) - 1.0, 0.0, 2 * np.pi)
    assert abs(expected - 1.8620866868745325) < 1e-12
    sol = solve_kepler(0.9, 1.0)
    assert abs(sol.xi - expected) < 1e-13


def test_periodicity_in_ell():
    base = solve_kepler(0.7, 0.9).xi
    shifted = solve_kepler(0.7, 0.9 + 2 * np.pi).xi
    assert abs(shifted - base - 2 * np.pi) < 1e-13


def test_odd_symmetry_about_pi():
    for e in (0.1, 0.5, 0.95):
        for ell in (0.3, 1.1, 2.9):
            a = solve_kepler(e, ell).xi
            b = solve_kepler(e, 2 * np.pi - ell).xi
            assert abs(b - (2 * np.pi - a)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    e=st.floats(min_value=0.0, max_value=0.99),
    ell=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
)
def test_residual_property(e, ell):
    sol = solve_kepler(e, ell)
    assert sol.residual <= 1e-13
    assert sol.iterations <= 50


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_kepler(1.0, 0.3)


def test_vectorized_matches_scalar():
    ells = np.linspace(0, 2 * np.pi, 41)[:-1]
    xs = solve_kepler_array(0.97, ells)
    for ell, x in zip(ells, xs):
        assert x == solve_kepler(0.97, ell).xi


def test_array_solves_radial_eccentricity():
    # e = 1 (a radial orbit, G = 0) is outside solve_kepler's domain but the
    # mean-anomaly quadrature of u_hat_mean_anomaly in tests/test_potentials.py
    # reaches it
    ells = np.linspace(0, 2 * np.pi, 41)[:-1]
    xs = solve_kepler_array(1.0, ells)
    assert np.max(np.abs(xs - np.sin(xs) - ells)) <= 1e-14


def test_zero_ecc_form_fixed_point():
    sol = solve_kepler_zero_ecc_form(np.pi)
    assert abs(sol.xi - np.pi) < 1e-14


def test_zero_ecc_form_oracle():
    expected = bisect(lambda x: x - np.sin(x) - np.pi / 2, 0.0, 2 * np.pi)
    assert abs(expected - 2.309881460010057) < 1e-12
    sol = solve_kepler_zero_ecc_form(np.pi / 2)
    assert abs(sol.xi - expected) < 1e-13


def test_zero_ecc_form_positive_on_real_strip():
    # right edge of the real strip for eps0 = 0.25
    x = 2 * np.pi - 2 * np.sqrt(0.25)
    sol = solve_kepler_zero_ecc_form(x)
    assert 1 - np.cos(sol.xi) > 0


def test_zero_ecc_form_matches_bisection_on_strip():
    eps0 = 0.25
    s = np.sqrt(eps0)
    for x in np.linspace(2 * s, 2 * np.pi - 2 * s, 25):
        expected = bisect(lambda z: z - np.sin(z) - x, 0.0, 2 * np.pi)
        assert abs(solve_kepler_zero_ecc_form(x).xi - expected) < 1e-12


def test_zero_ecc_form_complex_branch():
    # solution must (a) solve the equation and (b) connect continuously to
    # the real branch as Im x -> 0
    x = 3.0 + 0.4j
    sol = solve_kepler_zero_ecc_form(x)
    assert abs(sol.xi - np.sin(sol.xi) - x) < 1e-12
    near = solve_kepler_zero_ecc_form(3.0 + 1e-8j)
    real = solve_kepler_zero_ecc_form(3.0)
    assert abs(near.xi - real.xi) < 1e-6


def test_c0_positive():
    assert estimate_c0(0.25, 64) > 0


def test_c0_grid_refinement_stable():
    a = estimate_c0(0.25, 32)
    b = estimate_c0(0.25, 64)
    assert abs(a - b) / b < 0.05


def test_c0_extreme_eps0_finite():
    # 1e-30 is the smallest power of ten whose window keeps both edges
    # inside (0, 2 pi)
    for eps0 in (1e-30, 0.1, 0.9):
        v = estimate_c0(eps0, 32)
        assert np.isfinite(v) and v > 0


def test_c0_rejects_small_grid():
    with pytest.raises(ValueError):
        estimate_c0(0.25, 8)


def test_xi_prime_array_matches_scalar():
    xs = np.linspace(0.4, 2 * np.pi - 0.4, 37)
    zs = xi_prime_array(xs)
    for x, z in zip(xs, zs):
        assert z == solve_kepler_zero_ecc_form(x).xi


def ref_radial_real(x, tol=1e-14, max_iter=50):
    """The radial real-branch loop as it stood before the solvers shared one
    guarded Newton: (xi, iterations)."""
    lo, hi = 0.0, 2 * np.pi
    xi = np.pi
    for it in range(1, 2 * max_iter + 1):
        f = xi - np.sin(xi) - x
        if abs(f) <= tol:
            return xi, it
        if f > 0:
            hi = xi
        else:
            lo = xi
        d = 1.0 - np.cos(xi)
        cand = xi - f / d if d > 1e-14 else np.nan
        xi = cand if lo < cand < hi else 0.5 * (lo + hi)
    raise AssertionError("reference loop stalled")


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_min=True, exclude_max=True))
def test_zero_ecc_form_matches_reference_loop(x):
    xi, iterations = ref_radial_real(x)
    sol = solve_kepler_zero_ecc_form(x)
    assert sol.xi == xi
    assert sol.iterations == iterations
    assert xi_prime_real(x) == xi


def test_iteration_limit_raises():
    # no root in the bracket (0, 2*pi): the iteration runs out and says so
    with pytest.raises(KeplerError):
        xi_prime_real(-1.0)


# ---------------- array solvers against the per-entry loops ----------------


def ref_newton_complex(z, target, tol):
    """The scalar complex Newton as it stood before it took arrays."""
    for it in range(1, 101):
        f = z - np.sin(z) - target
        if abs(f) <= tol:
            return z, it
        d = 1.0 - np.cos(z)
        assert abs(d) >= 1e-14
        z = z - f / d
    raise AssertionError("reference complex Newton stalled")


def ref_estimate_c0(eps0, grid_n, tol=1e-13):
    """estimate_c0 as the column-by-column scalar scan it was before the
    columns were continued together."""
    s = np.sqrt(eps0)
    half = np.pi - 2 * s
    res = np.linspace(np.pi - half, np.pi + half, grid_n)
    ims = np.linspace(-s, s, grid_n)
    best = np.inf
    for re in res:
        z = complex(solve_kepler_zero_ecc_form(re, tol=tol).xi)
        best = min(best, abs(1.0 - np.cos(z)))
        for sign in (1.0, -1.0):
            order = sorted((im for im in ims if im * sign > 0), key=abs)
            zc = z
            for im in order:
                zc, _ = ref_newton_complex(zc, re + 1j * im, tol)
                best = min(best, abs(1.0 - np.cos(zc)))
    return best / eps0


@pytest.mark.parametrize("eps0", [0.25, 0.05, 0.4])
def test_c0_column_scan_matches_scalar_scan(eps0):
    # the scan itself, past the cache
    assert estimate_c0.__wrapped__(eps0, 64) == ref_estimate_c0(eps0, 64)


@settings(max_examples=60, deadline=None)
@given(eps0=st.floats(min_value=0.01, max_value=0.99), grid_n=st.integers(16, 40))
def test_c0_stacked_half_planes_match_two_walks(eps0, grid_n):
    # all columns of a half-plane continued together give the bits of each
    # column's two walks, one a half-plane, taken on their own (the scalar
    # scan)
    assert estimate_c0.__wrapped__(eps0, grid_n) == ref_estimate_c0(eps0, grid_n)


@pytest.mark.parametrize("eps0, grid_n, middle", [
    (0.25, 17, 0.0), (0.2, 49, 1.0), (0.61, 49, -1.0)])
def test_c0_odd_grid_middle_level(eps0, grid_n, middle):
    # the middle linspace level is 0 or a tiny nonzero; a nonzero one gives
    # its half-plane one level more than the other
    ims = np.linspace(-np.sqrt(eps0), np.sqrt(eps0), grid_n)
    mid = ims[grid_n // 2]
    assert np.sign(mid) == middle and abs(mid) < 1e-15
    assert estimate_c0.__wrapped__(eps0, grid_n) == ref_estimate_c0(eps0, grid_n)


# ---------------- the c0 cache ----------------


@settings(max_examples=40, deadline=None)
@given(eps0=st.floats(min_value=0.01, max_value=0.99), grid_n=st.integers(16, 48))
def test_c0_cache_returns_the_scan(eps0, grid_n):
    c0 = estimate_c0(eps0, grid_n)
    assert type(c0) is np.float64
    assert c0 == estimate_c0.__wrapped__(eps0, grid_n)
    hits = estimate_c0.cache_info().hits
    assert estimate_c0(eps0, grid_n) is c0
    assert estimate_c0.cache_info().hits == hits + 1


@pytest.mark.parametrize("args", [
    (0.0, 48), (1.0, 48), (-0.25, 48), (1.5, 48), (np.nan, 48), (0.25, 8), (0.25, 15)],
    ids=["eps0-0", "eps0-1", "eps0-negative", "eps0-above-1", "eps0-nan", "grid-8",
         "grid-15"])
def test_c0_rejected_arguments_cache_nothing(args):
    size = estimate_c0.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError):
            estimate_c0(*args)
        assert estimate_c0.cache_info().currsize == size


@pytest.mark.parametrize("eps0", [1e-300, 1e-33, 1e-31])
def test_c0_rejects_a_window_that_rounds_away(eps0):
    # below about 1e-32 the window's lower edge pi - (pi - 2 sqrt(eps0))
    # rounds to 0; at 1e-31, pi - 2 sqrt(eps0) is one ulp below pi, so the
    # lower edge is above 0 but the upper edge rounds onto 2 pi
    size = estimate_c0.cache_info().currsize
    with pytest.raises(ValueError, match="eps0=%r" % eps0):
        estimate_c0(eps0, 48)
    assert estimate_c0.cache_info().currsize == size


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(min_value=0.0, max_value=2 * np.pi, exclude_min=True,
                             exclude_max=True), min_size=1, max_size=40))
def test_xi_prime_array_matches_per_entry_loop(xs):
    from perilib.kepler import _newton_radial

    xs = np.array(xs)
    xi, res, iters = _newton_radial(xs, 1e-14)
    for k, x in enumerate(xs.tolist()):
        assert (xi[k], res[k], iters[k]) == _newton_radial(x, 1e-14)
    assert np.array_equal(xi_prime_array(xs), xi)
    assert np.array_equal(xi_prime_array(xs.reshape(-1, 1)), xi.reshape(-1, 1))


@settings(max_examples=60, deadline=None)
@given(e=st.sampled_from([0.0, 0.1, 0.6, 0.97, 1.0]),
       ells=st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=1, max_size=40))
def test_solve_kepler_array_matches_per_entry_loop(e, ells):
    got = solve_kepler_array(e, ells)
    assert np.array_equal(got, [_solve_elliptic(e, v).xi for v in ells])


@settings(max_examples=60, deadline=None)
@given(re=st.floats(min_value=0.5, max_value=2 * np.pi - 0.5),
       im=st.floats(min_value=-0.5, max_value=0.5))
def test_complex_solve_matches_scalar_continuation(re, im):
    sol = solve_kepler_zero_ecc_form(complex(re, im))
    z, total = complex(xi_prime_real(re)), solve_kepler_zero_ecc_form(re).iterations
    for k in range(1, 9):
        z, it = ref_newton_complex(z, re + 1j * im * k / 8, 1e-14)
        total += it
    assert sol.xi == z
    assert sol.iterations == total


def test_array_solvers_reject_nan():
    with pytest.raises(ValueError):
        xi_prime_array([1.0, np.nan])
    with pytest.raises(KeplerError):
        solve_kepler_array(0.5, [1.0, np.nan])
