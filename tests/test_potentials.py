import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import elliprj

import perilib.cli as cli
from perilib.coords import gg_forward
from perilib.kepler import _solve_elliptic
from perilib.potentials import (
    N_LADDER,
    N_MAX,
    RADICAND_FLOOR,
    QuadratureSpec,
    SingularLocusError,
    check_renorm_commutation,
    check_renorm_identity,
    e_hat,
    e_hat_aa,
    f_eps,
    f_eps_at_one,
    f_eps_bundle,
    f_eps_minus_one,
    f_eps_minus_one_grid,
    singularity_t,
    u_hat,
)
from perilib.potentials import _e_hat_and_e, _n_nodes, _node_sums

QUAD = QuadratureSpec(256)


def u_hat_mean_anomaly(eps, Lambda, G, g, quad=QUAD):
    """u_hat by brute-force trapezoid in the mean anomaly itself.

    Loses spectral accuracy as e -> 1 (the integrand has a near-cusp at
    pericenter); the independent cross-check of the change of variables
    used by u_hat.
    """
    n = quad.n_nodes
    ell = 2 * np.pi * np.arange(n) / n
    e = np.sqrt(max(0.0, 1.0 - G**2 / Lambda**2))
    xi = _solve_elliptic(e, ell).xi  # every entry's Kepler solve at once
    rho = 1.0 - e * np.cos(xi)
    p = (np.cos(xi) - e) * np.cos(g) - (G / Lambda) * np.sin(xi) * np.sin(g)
    rad = 1.0 + 2 * eps * p + eps**2 * rho**2
    if rad.min() < RADICAND_FLOOR:
        raise SingularLocusError("u_hat radicand below floor")
    return float(np.mean(1.0 / np.sqrt(rad)))


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

    def test_closed_form_domain_is_f_eps_domain(self):
        # |eps| < 1/2 by a negated comparison, as f_eps: NaN is refused too
        assert abs(f_eps_at_one(-0.4999) - f_eps(-0.4999, 1.0)) < 1e-12
        for eps in (-0.5, -0.6, np.nan, 0.5):
            for fun in (f_eps_at_one, lambda e: f_eps(e, 1.0)):
                with pytest.raises(ValueError, match="requires [|]eps[|] < 1/2"):
                    fun(eps)

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
        assert f_eps_bundle(0.0, 0.4)[1] == 0.0

    def test_matches_finite_difference(self):
        h = 1e-5
        for eps, t in [(0.25, 0.0), (0.3, 0.8), (-0.2, -0.5)]:
            fd = (f_eps(eps, t + h) - f_eps(eps, t - h)) / (2 * h)
            assert abs(f_eps_bundle(eps, t)[1] - fd) < 1e-7

    def test_positive_for_positive_eps(self):
        for t in (-0.9, 0.0, 0.9):
            assert f_eps_bundle(0.3, t)[1] > 0

    def test_eps_partial_matches_fd(self):
        h = 1e-6
        for eps, t in [(0.25, 0.3), (-0.15, 0.9)]:
            fd = (f_eps(eps + h, t) - f_eps(eps - h, t)) / (2 * h)
            assert abs(f_eps_bundle(eps, t)[2] - fd) < 1e-6


# the radicand (1 - eps X t)^2 + eps^2 X^2 (1 - t^2) stays above the floor
# for |t| <= 0.9
_eps = st.floats(min_value=-0.49, max_value=0.49)
_t = st.floats(min_value=-0.9, max_value=0.9)


@settings(max_examples=50, deadline=None)
@given(
    eps=st.lists(_eps, min_size=1, max_size=5),
    t=st.lists(_t, min_size=1, max_size=4),
)
def test_grid_matches_scalar_wrappers(eps, t):
    # an (n_eps, 1) column against an (n_t,) row broadcasts to (n_eps, n_t)
    E = np.array(eps)[:, None]
    T = np.array(t)[None, :]
    grid = f_eps_minus_one_grid(E, T)
    assert grid.shape == (len(eps), len(t))
    for i, e in enumerate(eps):
        for j, tt in enumerate(t):
            fm1 = f_eps_minus_one(e, tt)
            assert grid[i, j] == fm1
            assert f_eps_bundle(e, tt)[0] == f_eps(e, tt) == 1 + fm1


def ref_f_minus_one(eps, t, n):
    """f - 1, d/dt f and d/deps f by the n-node periodic trapezoid rule over
    the full range of xi, nodes and sums in np.longdouble, with the mean
    |integrand| of each as its scale; and the least radicand of the rule."""
    L = np.longdouble
    xi = 2 * L(np.pi) * np.arange(n, dtype=L) / n
    X = 1 - np.cos(xi)
    eX = L(eps) * X
    u = 2 * eX * L(t) - eX**2
    rad = 1 - u
    s = np.sqrt(rad)
    X2m = X**2 / (rad * s)
    integrands = (X * u / (s * (1 + s)), eps * X2m, X2m * (L(t) - eps * X))
    return [(float(v.sum() / n), float(np.abs(v).mean())) for v in integrands], float(rad.min())


# |eps| from 1e-12 to 0.49 on a log scale; for |t| <= 1 the radicand is at
# least (1 - 2|eps|)^2, so every (eps, t) drawn is admissible
@settings(max_examples=200, deadline=None)
@given(
    log_eps=st.floats(min_value=-12.0, max_value=np.log10(0.49)),
    sign=st.sampled_from([-1.0, 1.0]),
    t=st.floats(min_value=-1.0, max_value=1.0),
    n=st.sampled_from([32, 34, 256]),
)
# the radicand reaches 3.5e-3 at a node; the eps-partial is 2.1e-15 of its
# scale off the float64 full-range sum and 3.2e-15 off the exact one
@example(log_eps=-0.32763588452919734, sign=-1.0, t=-1.0, n=34)
def test_half_range_matches_full_range(log_eps, sign, t, n):
    # the kernel sums the folded half range; relative errors alone reach
    # 1e-13 where f - 1 nearly cancels, so the bound uses the integrand scale.
    # Any float64 rule is off the exact sum by about 1e-16 / rad of the
    # scale, rad the least radicand at a node (the float nodes' rounding,
    # amplified by rad^{-3/2}): 120,000 draws gave at most 1.6e-16 / rad for
    # rad < 1/4 and 1.1e-15 above, so the bound is 2e-15 of the scale from
    # rad = 1/4 up and 5e-16 / rad of it below
    eps = sign * 10.0**log_eps
    got = _node_sums(eps, t, n, grad=True)
    ref, rad = ref_f_minus_one(eps, t, n)
    for value, (expect, scale) in zip(got, ref):
        assert abs(value - expect) <= 2e-15 * max(1.0, 0.25 / rad) * scale
    assert f_eps(eps, t, QuadratureSpec(n)) == 1.0 + got[0]


def test_grid_across_chunk_boundary():
    # the grid path runs one node loop per rung; at eps = 0.45 these t
    # need rungs from 24 up to 512 nodes, and the points on either side of
    # each rung boundary equal the scalar path bitwise
    t = np.concatenate([np.linspace(-0.9, 0.9, 67), 1.0 + 0.001 * np.arange(6)])
    rungs = np.array([_n_nodes(0.45, tt) for tt in t])
    assert len(set(rungs)) >= 5
    grid = f_eps_minus_one_grid(0.45, t)
    edges = np.flatnonzero(np.diff(rungs))
    for i in np.concatenate([[0, t.size - 1], edges, edges + 1]):
        assert grid[i] == f_eps_minus_one(0.45, t[i])


@pytest.mark.parametrize("kernel", [f_eps, f_eps_bundle, f_eps_minus_one])
def test_nan_input_raises_on_scalar_path(kernel):
    # f_eps on its pinned rule, under the radicand floor; the others on the
    # rule picked from the strip
    rule = (QUAD,) if kernel is f_eps else ()
    with pytest.raises(ValueError):
        kernel(np.nan, 0.5, *rule)
    with pytest.raises(SingularLocusError):
        kernel(0.1, np.nan, *rule)


def test_nan_input_raises_on_grid_path():
    # the NaN sits after points of several rungs
    n = 128
    eps = np.linspace(0.001, 0.45, n)
    eps[-1] = np.nan
    with pytest.raises(ValueError):
        f_eps_minus_one_grid(eps, 0.5)
    t = np.linspace(-0.9, 0.9, n)
    t[-1] = np.nan
    with pytest.raises(SingularLocusError):
        f_eps_minus_one_grid(0.4, t)


# --- the rule picked from the analytic strip --------------------------------


def strip_half_width(eps, t):
    """a(eps, t) straight from acos: the least |Im xi| over the complex xi
    with 1 - cos(xi) = X*, X* a root of 1 - 2 eps t X + eps^2 X^2 (the
    larger root by the quadratic formula, the other as 1/(eps^2 X*))."""
    if eps == 0:
        return math.inf
    s = cmath.sqrt(t * t - 1)
    big = (t + s if t >= 0 else t - s) / eps
    return min(abs(cmath.acos(1 - x).imag) for x in (big, 1 / (eps * eps * big)))


def needed_nodes(eps, t):
    """n with a (n - 2) = 1.25 ln(1e16): the trapezoid error exp(-a n)
    times the exp(2a) that the integrands' X^2 factor gains across the strip."""
    a = strip_half_width(eps, t)
    return 1.25 * math.log(1e16) / a + 2 if a > 0 else math.inf


def carlson_f(eps, t):
    """f_eps = (sqrt 2 / 3 pi) Re R_J(0, a+, a-, 1/2), a+- = 1/2 - eps (t +- sqrt(t^2 - 1))."""
    s = cmath.sqrt(t * t - 1)
    if abs(t) > 1:
        # t +- s are reciprocals: the one of t's sign, then 1 over it, so
        # neither cancels (t + s at t = -1000 lost six digits)
        big = (t + s if t > 0 else t - s).real
        a_plus, a_minus = 0.5 - eps * big, 0.5 - eps / big
    else:
        a_plus, a_minus = 0.5 - eps * (t + s), 0.5 - eps * (t - s)
    return math.sqrt(2) / (3 * math.pi) * elliprj(0, a_plus, a_minus, 0.5).real


LONG = np.longdouble


def ref_long(eps, t, n):
    """f - 1, d/dt f and d/deps f by the n-node rule over the full range in
    long double, each with its integrand scale: the mean over the nodes of
    the magnitudes the integrand is built from, times 1 + 1/rad, since an
    error of one ulp in the radicand moves the integrand by about 1/rad of
    itself.  Near the singular locus that factor is what rounding costs any
    float evaluation, however many nodes it takes."""
    xi = 2 * LONG(np.pi) * np.arange(n, dtype=LONG) / n
    X = 1 - np.cos(xi)
    eps, t = LONG(eps), LONG(t)
    eX = eps * X
    u = 2 * eX * t - eX * eX
    rad = 1 - u
    s = np.sqrt(rad)
    X2m = X * X / (rad * s)
    integrands = (X * u / (s * (1 + s)), eps * X2m, X2m * (t - eX))
    sizes = (X * (abs(2 * eX * t) + eX * eX) / (s * (1 + s)), abs(eps) * X2m,
             X2m * (abs(t) + abs(eX)))
    return [(float(v.sum() / n), float((m * (1 + 1 / rad)).mean()))
            for v, m in zip(integrands, sizes)]


@st.composite
def strip_points(draw, min_log_eps=-8.0):
    """(eps, t) with |eps| < 1/2 on a log scale and t inside [-1, 1], between
    1 and singularity_t, close below singularity_t, or below -1; a sign
    flips both, since F_{-eps}(-t) = F_eps(t)."""
    eps = 10.0 ** draw(st.floats(min_value=min_log_eps, max_value=math.log10(0.4999)))
    ts = singularity_t(eps)
    regime = draw(st.sampled_from(["inside", "beyond one", "near locus", "below -1"]))
    if regime == "inside":
        t = draw(st.floats(min_value=-1.0, max_value=1.0))
    elif regime == "beyond one":
        t = 1.0 + draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)) * (ts - 1.0)
    elif regime == "near locus":
        t = ts - 10.0 ** draw(st.floats(min_value=-9.0, max_value=0.0)) * (ts - 1.0)
    else:
        t = -1.0 - 10.0 ** draw(st.floats(min_value=-6.0, max_value=3.0))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return sign * eps, sign * t


@settings(max_examples=300, deadline=None)
@given(point=strip_points())
def test_rule_is_the_smallest_rung_past_the_needed_nodes(point):
    eps, t = point
    need = needed_nodes(eps, t)
    # acos and the kernel's moduli round differently; a draw within 1e-9 of
    # a rung can fall on either side of it
    assume(all(abs(need - n) > 1e-9 * n for n in N_LADDER))
    if need > N_MAX:
        with pytest.raises(SingularLocusError):
            _n_nodes(eps, t)
    else:
        assert _n_nodes(eps, t) == min(n for n in N_LADDER if n >= need)


@settings(max_examples=300, deadline=None)
@given(point=strip_points())
def test_adaptive_value_matches_carlson(point):
    eps, t = point
    assume(needed_nodes(eps, t) < 0.99 * N_MAX)
    f, ft, fe = f_eps_bundle(eps, t)
    assert f == 1.0 + f_eps_minus_one(eps, t) == f_eps(eps, t)
    # relative to f, widened by f's condition number in (eps, t): near the
    # locus a half-ulp change of t moves f by far more than an ulp
    cond = (abs(t * ft) + abs(eps * fe)) / f
    assert abs(f - carlson_f(eps, t)) <= 1e-14 * f * (1.0 + cond)


@pytest.mark.parametrize("eps, t", [(0.4641588833612779, -965.6616199111992),
                                    (-0.31622776601683794, 1001.0)])
def test_value_far_below_minus_one(eps, t):
    # where eps t < -1 the rule sums f_eps itself: summing f_eps - 1, near -1
    # here, left f_eps 2.7e-14 off at the first point
    f = f_eps(eps, t)
    assert abs(f - carlson_f(eps, t)) <= 5e-15 * f
    # a grid with points on both sides of eps t = -1 keeps the scalar bits
    grid = f_eps_minus_one_grid([eps, 0.1], [t, 0.5])
    assert grid.tolist() == [f_eps_minus_one(eps, t), f_eps_minus_one(0.1, 0.5)]


@settings(max_examples=300, deadline=None)
@given(point=strip_points())
def test_adaptive_matches_four_times_the_nodes(point):
    eps, t = point
    assume(needed_nodes(eps, t) < 0.99 * N_MAX)
    n = _n_nodes(eps, t)
    _, ft, fe = f_eps_bundle(eps, t)
    got = (f_eps_minus_one(eps, t), ft, fe)
    # the truncation error is below 1e-17 of the scale; what is left is
    # rounding, whose summed part grows like the square root of the n/2 + 1
    # terms (measured up to 1.65e-15 at 768 nodes, t = -900); plus the
    # oracle's own rounding where long double is no wider than double
    bound = 4e-16 * max(1.0, math.sqrt((n // 2 + 1) / 9)) + 4 * np.finfo(LONG).eps
    for value, (expect, scale) in zip(got, ref_long(eps, t, 4 * n)):
        assert abs(value - expect) <= bound * scale


def d4(f, x, h):
    """Fourth-order central difference of f at x with step h."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


@settings(max_examples=150, deadline=None)
@given(point=strip_points(min_log_eps=-3.0))
def test_partials_match_carlson_differences(point):
    eps, t = point
    assume(needed_nodes(eps, t) < 0.99 * N_MAX)
    f, ft, fe = f_eps_bundle(eps, t)
    # steps a thousandth of the distance to the singular set: in t the ray
    # beyond singularity_t(eps); in eps |eps| >= 1/2 and, for |t| >= 1, the
    # ray beyond the root 1/(2 (t + sign(t) sqrt(t^2 - 1))) of
    # singularity_t(eps) = t
    d_t = min(1.0, abs(t - singularity_t(eps)))
    d_e = 0.5 - abs(eps)
    if abs(t) >= 1:
        d_e = min(d_e, abs(eps - 0.5 / (t + math.copysign(math.sqrt(t * t - 1), t))))
    fd_t = d4(lambda x: carlson_f(eps, x), t, 1e-3 * d_t)
    fd_e = d4(lambda x: carlson_f(x, t), eps, 1e-3 * d_e)
    assert abs(ft - fd_t) <= 1e-7 * (abs(fd_t) + f / d_t)
    assert abs(fe - fd_e) <= 1e-7 * (abs(fd_e) + f / d_e)


@pytest.mark.parametrize("eps, t", [(0.4999, 1.0), (-0.4999, -1.0), (0.25, 1.25),
                                    (0.25, 2.0), (0.3, np.inf), (0.0, np.nan)])
def test_rule_raises_past_n_max(eps, t):
    # at (0.4999, 1) the fixed 256-node rule was 1.5e-3 off without a word
    with pytest.raises(SingularLocusError):
        f_eps(eps, t)
    with pytest.raises(SingularLocusError):
        f_eps_bundle(eps, t)
    with pytest.raises(SingularLocusError):
        f_eps_minus_one_grid([0.1, eps], [0.5, t])


def test_raise_names_the_distance_to_the_locus():
    with pytest.raises(SingularLocusError, match=r"\|t - singularity_t\(eps\)\| = 2\.000e-08"):
        f_eps(0.4999, 1.0)


def test_eps_zero_takes_the_smallest_rung():
    assert _n_nodes(0.0, 0.3) == N_LADDER[0]
    assert f_eps_minus_one(0.0, 5.0) == 0.0
    grid = f_eps_minus_one_grid([0.0, 0.1, 0.0], [0.3, 0.3, -7.0])
    assert grid[0] == grid[2] == 0.0 and grid[1] == f_eps_minus_one(0.1, 0.3)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(strip_points(), min_size=1, max_size=12))
def test_grid_straddling_rungs_matches_scalar(points):
    points = [p for p in points if needed_nodes(*p) < 0.99 * N_MAX]
    assume(points)
    eps, t = np.array(points).T
    grid = f_eps_minus_one_grid(eps, t)
    for e, tt, g in zip(eps, t, grid):
        assert g == f_eps_minus_one(e, tt)


@settings(max_examples=100, deadline=None)
@given(point=strip_points())
def test_single_point_grid_matches_the_vector_loop(point):
    # one point takes the float loop; beside a second point it takes the
    # vector loop, and both give the same bits or the same error
    eps, t = point
    def outcome(e, tt):
        try:
            return f_eps_minus_one_grid(e, tt).tolist()
        except (ValueError, SingularLocusError) as exc:
            return type(exc)
    pair = outcome([eps, 0.1], [t, 0.5])
    one = outcome(eps, t)
    assert one == (pair if isinstance(pair, type) else pair[0])
    for shape in ((1,), (1, 1)):
        assert outcome(np.full(shape, eps), t) == (
            pair if isinstance(pair, type) else np.full(shape, pair[0]).tolist())


@pytest.mark.parametrize("eps, t, error", [
    (np.nan, 0.5, ValueError), (0.5, 0.5, ValueError), (0.1, np.nan, SingularLocusError),
])
def test_single_point_grid_keeps_the_guards(eps, t, error):
    with pytest.raises(error):
        f_eps_minus_one_grid(eps, t)


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


# ---- the stacked u_hat and renorm checks against the one-pair loops they replaced


def ref_u_hat(eps, Lambda, G, g, quad=QUAD):
    """u_hat of one float pair (G, g), as evaluated before the stack."""
    xi = 2 * np.pi * np.arange(quad.n_nodes) / quad.n_nodes
    cxi, sxi = np.cos(xi), np.sin(xi)
    e = np.sqrt(max(0.0, 1.0 - G**2 / Lambda**2))
    rho = 1.0 - e * cxi
    p = (cxi - e) * np.cos(g) - (G / Lambda) * sxi * np.sin(g)
    rad = 1.0 + 2 * eps * p + eps**2 * rho**2
    if rad.min() < RADICAND_FLOOR:
        raise SingularLocusError(
            "u_hat radicand %.3e below floor (eps=%r, G=%r, g=%r)"
            % (rad.min(), eps, G, g)
        )
    return float(np.mean(rho / np.sqrt(rad)))


def ref_check_renorm_identity(eps, Lambda=1.0, sample_n=100, quad=QUAD, rng=None):
    """check_renorm_identity as one sample at a time."""
    worst, rejected, done = 0.0, 0, 0
    while done < sample_n:
        G = rng.uniform(-Lambda, Lambda)
        g = rng.uniform(-np.pi, np.pi)
        try:
            lhs = ref_u_hat(eps, Lambda, G, g, quad)
            rhs = f_eps(eps, e_hat(eps, Lambda, G, g))
        except SingularLocusError:
            rejected += 1
            if rejected > 100 * sample_n:
                raise
            continue
        worst = max(worst, abs(lhs - rhs))
        done += 1
    return worst, rejected


def ref_check_renorm_commutation(eps, Lambda, n_points, quad, rng):
    """check_renorm_commutation as one sample at a time."""
    h = 1e-5
    worst = 0.0
    for _ in range(n_points):
        G = rng.uniform(-0.9 * Lambda, 0.9 * Lambda)
        g = rng.uniform(-np.pi, np.pi)
        du_G = (ref_u_hat(eps, Lambda, G + h, g, quad)
                - ref_u_hat(eps, Lambda, G - h, g, quad)) / (2 * h)
        du_g = (ref_u_hat(eps, Lambda, G, g + h, quad)
                - ref_u_hat(eps, Lambda, G, g - h, quad)) / (2 * h)
        de_G = (e_hat(eps, Lambda, G + h, g) - e_hat(eps, Lambda, G - h, g)) / (2 * h)
        de_g = (e_hat(eps, Lambda, G, g + h) - e_hat(eps, Lambda, G, g - h)) / (2 * h)
        worst = max(worst, abs(du_G * de_g - du_g * de_G))
    return worst


class Narrow:
    """A generator whose uniform draws are scaled by shrink, so that the
    samples crowd (G, g) = (0, 0), where e_hat = 1 and, at eps near 1/2,
    u_hat's radicand and f_eps's strip both close."""

    def __init__(self, seed, shrink):
        self.rng, self.shrink = np.random.default_rng(seed), shrink

    def uniform(self, low, high):
        return self.shrink * self.rng.uniform(low, high)

    def random(self):
        return self.rng.random()


def outcome(f, *args):
    """f(*args), or the type and text of the SingularLocusError it raises."""
    try:
        return f(*args)
    except SingularLocusError as exc:
        return (SingularLocusError, str(exc))


@settings(max_examples=80, deadline=None)
@given(eps=st.floats(-0.75, 0.75), Lam=st.floats(0.5, 2.0), m=st.integers(1, 5),
       data=st.data(), n=st.sampled_from([32, 256]))
def test_stacked_u_hat_matches_the_one_pair_loop(eps, Lam, m, data, n):
    # (0, 0) and the edges G = +-Lambda are among the draws; at eps >= 1/2
    # the radicand closes at (0, 0), so both paths raise there
    quad = QuadratureSpec(n)
    pairs = data.draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-np.pi, np.pi)),
                               min_size=4 * m, max_size=4 * m))
    G = np.array([a for a, _ in pairs]) * Lam
    g = np.array([b for _, b in pairs])
    alone = [outcome(ref_u_hat, eps, Lam, a, b, quad) for a, b in zip(G.tolist(), g.tolist())]
    for a, b, want in zip(G.tolist(), g.tolist(), alone):
        got = outcome(u_hat, eps, Lam, a, b, quad)
        assert got == want and type(got) is type(want)
    errors = [r for r in alone if isinstance(r, tuple)]
    for shape in ((4 * m,), (4, m)):
        got = outcome(u_hat, eps, Lam, G.reshape(shape), g.reshape(shape), quad)
        if errors:
            assert got == errors[0]  # the first failing pair in row order
        else:
            assert got.shape == shape and got.ravel().tolist() == alone


def test_stacked_e_hat_matches_e_hat_on_floats():
    # G^2 taken by pow, as on floats: numpy's G*G is a last bit off on
    # about 0.1% of G, which would move u_hat's and e_hat's last bits
    rng = np.random.default_rng(4)
    G, g = rng.uniform(-1.3, 1.3, 20000), rng.uniform(-np.pi, np.pi, 20000)
    t, e = _e_hat_and_e(0.37, 1.3, G, g)
    assert t.tolist() == [e_hat(0.37, 1.3, a, b) for a, b in zip(G.tolist(), g.tolist())]
    assert e.tolist() == [np.sqrt(max(0.0, 1.0 - a**2 / 1.3**2)) for a in G.tolist()]


def test_stacked_u_hat_broadcasts():
    g = np.linspace(-3.0, 3.0, 7)
    assert u_hat(0.3, 1.0, 0.4, g).tolist() == [ref_u_hat(0.3, 1.0, 0.4, b) for b in g.tolist()]


def make_rng(seed, shrink):
    return np.random.default_rng(seed) if shrink == 1.0 else Narrow(seed, shrink)


@pytest.mark.parametrize("eps, Lam, sample_n, quad, shrink", [
    (0.0, 1.0, 20, QUAD, 1.0),
    (0.3, 1.0, 100, QUAD, 1.0),
    (-0.3, 1.7, 37, QuadratureSpec(32), 1.0),
    (0.45, 0.6, 100, QUAD, 1.0),
    (-0.45, 1.0, 100, QUAD, 1.0),
    # within 1e-7 of 1/2 and crowding (0, 0): samples are rejected
    (0.5 - 5e-8, 1.0, 50, QUAD, 1e-3),
    (0.5 - 5e-8, 1.0, 50, QuadratureSpec(32), 1e-3),
    (0.5 - 5e-8, 1.3, 7, QUAD, 1e-2),
])
def test_identity_check_matches_the_one_sample_loop(eps, Lam, sample_n, quad, shrink):
    got_rng, ref_rng = make_rng(5, shrink), make_rng(5, shrink)
    got = check_renorm_identity(eps, Lam, sample_n, quad, rng=got_rng)
    want = ref_check_renorm_identity(eps, Lam, sample_n, quad, rng=ref_rng)
    assert got == want and type(got[0]) is float and type(got[1]) is int
    assert got_rng.random() == ref_rng.random()
    if shrink < 1e-2:
        assert got[1] > 0


def test_identity_check_raises_past_the_rejection_limit():
    # every draw is refused: the 301st rejection of sample_n = 3, the first
    # sample of the 101st round, raises the error that sample raises alone
    got = outcome(check_renorm_identity, 0.5 - 5e-8, 1.0, 3, QUAD, Narrow(5, 1e-6))
    want = outcome(ref_check_renorm_identity, 0.5 - 5e-8, 1.0, 3, QUAD, Narrow(5, 1e-6))
    assert got == want and got[0] is SingularLocusError


@pytest.mark.parametrize("eps, Lam, n_points, quad, shrink", [
    (0.0, 1.0, 5, QUAD, 1.0),
    (0.3, 1.0, 50, QUAD, 1.0),
    (-0.45, 1.7, 13, QuadratureSpec(32), 1.0),
    (0.5 - 5e-8, 1.0, 50, QUAD, 1.0),
    (0.5 - 5e-8, 1.0, 5, QUAD, 1e-2),
    # the radicand guard trips: both name the same shifted point
    (0.5 - 5e-8, 1.0, 5, QUAD, 1e-3),
    (0.5 - 5e-8, 1.0, 40, QuadratureSpec(32), 1e-5),
])
def test_commutation_check_matches_the_one_sample_loop(eps, Lam, n_points, quad, shrink):
    got_rng, ref_rng = make_rng(11, shrink), make_rng(11, shrink)
    got = outcome(check_renorm_commutation, eps, Lam, n_points, quad, got_rng)
    want = outcome(ref_check_renorm_commutation, eps, Lam, n_points, quad, ref_rng)
    assert got == want
    if isinstance(got, tuple):  # the loop stops drawing at the error
        assert shrink <= 1e-3
    else:
        assert got_rng.random() == ref_rng.random()


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_renorm_report_matches_the_one_sample_loops(tmp_path, monkeypatch, seed):
    argv = ["--seed", str(seed), "verify-renorm", "--eps-list", "0.1,-0.25,0.45,-0.45"]
    assert cli.main(["--out", str(tmp_path / "stacked"), *argv]) == 0
    monkeypatch.setattr(cli, "check_renorm_identity", ref_check_renorm_identity)
    monkeypatch.setattr(cli, "check_renorm_commutation", ref_check_renorm_commutation)
    assert cli.main(["--out", str(tmp_path / "loop"), *argv]) == 0
    report = "renorm_report.json"
    assert (tmp_path / "stacked" / report).read_bytes() == (tmp_path / "loop" / report).read_bytes()


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(16)
    with pytest.raises(ValueError):
        QuadratureSpec(33)
