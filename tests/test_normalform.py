import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perilib import chebyshev as ch
from perilib.normalform import (
    PLAIN_S,
    STEP_LIE_ORDER,
    ContractionError,
    FrequencyData,
    NormalFormStep,
    ShapeError,
    TFSeries,
    d_grid,
    homological_residual,
    lie_transform,
    mode_eigenvalue,
    nqp_primitive,
    normal_form_steps,
    poisson_bracket,
    series_from_dict,
    series_to_dict,
    tf_average_split,
    tf_build,
    tf_norm,
    tf_product,
    _BracketSide,
    _lie_chain,
)

BOX = [(0.5, 1.5), (1.0, 2.0), (0.0, 2.0)]
SHAPE = (8, 8, 16)


# ---------------- per-coefficient references of the engine ----------------
#
# The references work on the full spectrum: expand() rebuilds the k < 0
# modes of a stored series by conjugation, and ref_tf_norm sums over every
# key it is given.


def expand(f):
    """f with its implied k < 0 modes written out as conj(c_k) (a
    full-spectrum series for the references; built past the key check,
    after f's own keys pass it)."""
    out = f.shell(f.coeffs)
    for (k, h, j), arr in f.coeffs.items():
        if any(k):
            out.coeffs[(tuple(-ki for ki in k), h, j)] = np.conj(arr)
    return out


def ref_tf_norm(f, s=PLAIN_S):
    """sum over the keys present of sup |f_k| e^{s|k|}."""
    return sum(float(np.max(np.abs(arr))) * math.exp(s * sum(abs(ki) for ki in k))
               for (k, _, _), arr in f.coeffs.items())


def ref_tf_product(f, g):
    """The per-coefficient loop: refine every coefficient on its own, multiply
    pairwise, project each key back on its own."""
    K = max(f.fourier_cutoff, g.fourier_cutoff)
    fine_f = {k: ch.refine(v) for k, v in f.coeffs.items()}
    fine_g = {k: ch.refine(v) for k, v in g.coeffs.items()}
    acc = {}
    for (k1, _, _), a in fine_f.items():
        for (k2, _, _), b in fine_g.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            if any(abs(ki) > K for ki in k):
                continue
            key = (k, (), ())
            acc[key] = acc[key] + a * b if key in acc else a * b
    out = TFSeries(K, f.box, f.grid_shape)
    for key, arr in acc.items():
        out.coeffs[key] = ch.coarsen(arr, f.grid_shape)
    return out.prune()


def d_angle(f):
    """d/d(phi): multiplies each mode by i k."""
    out = f.shell()
    for key, arr in f.coeffs.items():
        (k,), _, _ = key
        if k:
            out.coeffs[key] = 1j * k * arr
    return out


def ref_poisson_bracket(f, g):
    """One reference product per term of the bracket, summed."""
    terms = [(d_grid(f, 0), d_angle(g)), (d_grid(g, 0) * -1.0, d_angle(f)),
             (d_grid(f, 1), d_grid(g, 2)), (d_grid(g, 1) * -1.0, d_grid(f, 2))]
    out = f.shell()
    out.fourier_cutoff = max(f.fourier_cutoff, g.fourier_cutoff)
    for a, b in terms:
        if a.coeffs and b.coeffs:
            out = out + ref_tf_product(a, b)
    return out.prune()


def ref_nqp_primitive(f_osc, freqs, n_cc=33):
    """The per-node loop: an n_cc-node Clenshaw-Curtis rule and a Clenshaw
    evaluation at every x node of every mode, with the exponential kernel
    e^{mu (tau - x)} of the integral along x from the lower edge lo."""
    _, osc = tf_average_split(f_osc)
    lo, hi = f_osc.box[-1]
    xs = ch.nodes(f_osc.grid_shape[-1], lo, hi)
    out = f_osc.shell()
    inv_wy = 1.0 / freqs.omega_y
    for key, arr in osc.coeffs.items():
        mu = mode_eigenvalue(freqs, key[0][0]) * inv_wy
        cx = ch.vals_to_coeffs(arr, arr.ndim - 1)
        phi = np.empty_like(arr)
        for c, xc in enumerate(xs):
            if abs(xc - lo) < 1e-15:
                phi[..., c] = 0.0
                continue
            tau, wq = ch.clenshaw_curtis(n_cc, lo, xc)
            fvals = ch.clenshaw(cx, arr.ndim - 1, tau, lo, hi)
            expf = np.exp(mu[..., None] * (tau - xc))
            phi[..., c] = inv_wy * np.sum(wq * fvals * expf, axis=-1)
        out.coeffs[key] = phi
    return out


def ref_lie_sum(phi, seed, max_order, s, divisor, rel_floor=1e-16):
    """sum_j L^j(seed) / divisor(j), with L^j built by its own bracket chain
    and norms of width s."""
    term, total = seed, seed * (1.0 / divisor(0))
    base = ref_tf_norm(seed, s) or 1.0
    for order in range(1, max_order + 1):
        term = ref_poisson_bracket(phi, term)
        total = total + term * (1.0 / divisor(order))
        if ref_tf_norm(term, s) / divisor(order) <= rel_floor * base:
            break
    return total.prune()


def ref_normal_form_steps(f, freqs, N, s=PLAIN_S, max_order=14):
    """The step with a separate bracket chain for each sum: L^j(osc) for the
    Phi_2 tail (1/(j+1)!) and again for e^L(osc) (1/j!), on the full
    spectrum of f."""
    g, fj, rows = f.shell(), f.copy(), []
    for _ in range(N):
        f_norm = ref_tf_norm(fj, s)
        avg, osc = tf_average_split(fj)
        osc_norm = ref_tf_norm(osc, s)
        phi = ref_nqp_primitive(osc, freqs)
        g_new = (g + avg).prune()
        tail = lambda j: math.factorial(j + 1)
        f_next = osc + ref_lie_sum(phi, osc, max_order, s, tail) * -1.0
        bracket_g = ref_poisson_bracket(phi, g_new)
        if bracket_g.coeffs:
            f_next = f_next + ref_lie_sum(phi, bracket_g, max_order, s, tail)
        f_next = f_next + (ref_lie_sum(phi, osc, max_order, s, math.factorial) - osc)
        fj = f_next.prune(1e-300)
        rows.append((f_norm, osc_norm,
                     ref_tf_norm(tf_average_split(fj)[1], s) / osc_norm))
        g = g_new
    return g, fj, rows


def ref_secular_build(spec, eps0, alpha_minus, alpha_plus, delta, grid_shape,
                      fourier_cutoff, n_phi):
    """build_secular_perturbation's series with the perturbation evaluated at
    every gamma sample of the full (Gcal, gamma, y, x) mesh."""
    from perilib.kepler import xi_prime_array
    from perilib.potentials import f_eps_minus_one_grid

    m0, Lam = spec.m0, spec.Lambda
    box = [
        (Lam - delta, Lam),
        (2 * math.sqrt(m0**3 * alpha_minus), math.sqrt(m0**3 * alpha_plus)),
        (2 * math.sqrt(eps0), 2 * np.pi - 2 * math.sqrt(eps0)),
    ]

    def fun(Gc, gam, y, x):
        xi = xi_prime_array(x[0, 0, 0, :])
        r = y**2 / m0**3 * (1 - np.cos(xi))
        eps = spec.eps_of_r(r)
        c2g = np.cos(gam) ** 2
        u = Gc / Lam
        pert = eps * (Lam**2 - Gc**2) / (2 * Lam**2) * c2g
        for c, s in spec.terms():
            es = s * eps
            t = u + es * (1.0 - u**2) * c2g
            pert = pert - c * f_eps_minus_one_grid(es, t)
        return m0**2 / r * pert

    return tf_build(fun, box, grid_shape,
                    fourier_cutoff=fourier_cutoff, n_phi=n_phi)


# ---------------- the two-sided bracket engine, bit for bit ----------------
#
# The engine before brackets streamed their second operand: both operands'
# four refined stacks built up front, a piece's conjugate stack built once
# and kept when a pair needs -k, and one fresh array per output key.  Each
# stack is refined x first, then y, then I, by the cached refinement R, or
# by the refined derivative R D on its derivative's axis, d_phi's rows
# scaled by i k after x.  The streamed engine builds the same stacks one at
# a time from one x-refined stack, conjugates rows inside the products and
# sums into one fine stack, in the same term, pair and operand order, so it
# must match this byte for byte.


class TwoSidedPiece:
    """Stored keys with their refined stack and its cached conjugate."""

    def __init__(self, keys, fine):
        self.keys, self.fine, self._conj = keys, fine, None

    def conj(self):
        if self._conj is None:
            self._conj = self.fine.conj()
        return self._conj


def two_sided_pairs(k1, k2, K):
    """(s1 < 0, s2 < 0, key) for the signs whose sum s1 k1 + s2 k2 is stored
    (first non-zero entry positive) and within K."""
    out = []
    for s1 in (1, -1) if any(k1) else (1,):
        for s2 in (1, -1) if any(k2) else (1,):
            k = tuple(s1 * a + s2 * b for a, b in zip(k1, k2))
            lead = next((ki for ki in k if ki), 1)
            if lead > 0 and all(abs(ki) <= K for ki in k):
                out.append((s1 < 0, s2 < 0, (k, (), ())))
    return out


def two_sided_accumulate(terms, f, g):
    K = max(f.fourier_cutoff, g.fourier_cutoff)
    acc = {}
    for sign, pa, pb in terms:
        for a, (k1, _, _) in enumerate(pa.keys):
            for b, (k2, _, _) in enumerate(pb.keys):
                for conj_a, conj_b, key in two_sided_pairs(k1, k2, K):
                    prod = (pa.conj() if conj_a else pa.fine)[a] * (
                        pb.conj() if conj_b else pb.fine)[b]
                    if key not in acc:
                        acc[key] = prod if sign > 0 else -prod
                    elif sign > 0:
                        acc[key] += prod
                    else:
                        acc[key] -= prod
    out = TFSeries(K, f.box, f.grid_shape)
    if acc:
        out.coeffs = dict(zip(acc, ch.coarsen(np.stack(list(acc.values())), f.grid_shape)))
    return out.prune()


def two_sided_stack(f):
    """f's stored coefficients stacked and refined in one pass."""
    if not f.coeffs:
        return TwoSidedPiece([], None)
    return TwoSidedPiece(list(f.coeffs), ch.refine(np.stack(list(f.coeffs.values())), lead=1))


def two_sided_refined(coarse, box, deriv=None, scale=None):
    """A (key, I, y, x) stack refined along x, y and I in that order, by R
    or, on the axis deriv, by R D; scale multiplies it after x."""
    v = coarse
    for ax in (3, 2, 1):
        v = ch.refine_axis(v, ax, box[ax - 1] if ax == deriv else None)
        if ax == 3 and scale is not None:
            v = v * scale
    return v


class TwoSidedSide:
    """f's pieces d_phi, d_I, d_y and d_x, all four built up front."""

    def __init__(self, f):
        keys = list(f.coeffs)
        self.d_phi = self.d_I = self.d_y = self.d_x = TwoSidedPiece([], None)
        if not keys:
            return
        coarse = np.stack(list(f.coeffs.values()))
        self.d_I, self.d_y, self.d_x = (
            TwoSidedPiece(keys, two_sided_refined(coarse, f.box, deriv=ax)) for ax in (1, 2, 3))
        rows = [r for r, (k, _, _) in enumerate(keys) if k[0] != 0]
        if rows:
            scale = np.array([1j * keys[r][0][0] for r in rows]).reshape(-1, 1, 1, 1)
            self.d_phi = TwoSidedPiece([keys[r] for r in rows],
                                       two_sided_refined(coarse[rows], f.box, scale=scale))


def two_sided_bracket(f, g):
    a, b = TwoSidedSide(f), TwoSidedSide(g)
    terms = [(1, a.d_I, b.d_phi), (-1, b.d_I, a.d_phi), (-1, b.d_y, a.d_x), (1, a.d_y, b.d_x)]
    return two_sided_accumulate(terms, f, g)


def two_sided_product(f, g):
    return two_sided_accumulate([(1, two_sided_stack(f), two_sided_stack(g))], f, g)


def assert_same_bits(got, expect):
    """Same cutoff, same keys in the same order, bitwise equal coefficients."""
    assert got.fourier_cutoff == expect.fourier_cutoff
    assert list(got.coeffs) == list(expect.coeffs)
    for key, arr in expect.coeffs.items():
        assert np.array_equal(got.coeffs[key].view(float), arr.view(float)), key


def assert_series_close(got, expect, rtol, floor=0.0):
    """Same keys and cutoff, coefficients within rtol of the larger of
    expect's sup and floor."""
    assert set(got.coeffs) == set(expect.coeffs)
    assert got.fourier_cutoff == expect.fourier_cutoff
    scale = max(expect.sup(), floor, 1e-300)
    for key, arr in expect.coeffs.items():
        assert np.max(np.abs(got.coeffs[key] - arr)) <= rtol * scale, key


def build(fun, cutoff=4):
    return tf_build(fun, BOX, SHAPE, fourier_cutoff=cutoff)


def rand_series(rng, cutoff=2, scale=1.0, shape=SHAPE):
    """Band-limited random real series with low-degree polynomial
    coefficients (products of such series stay inside the grid's polynomial
    space): modes k = 0..cutoff stored, c_0 real."""
    f = TFSeries(cutoff, BOX, shape)
    grids = f.grids()
    II, YY, XX = np.meshgrid(*grids, indexing="ij")
    for k in range(cutoff + 1):
        a, b, c = rng.normal(size=3)
        coef = scale * (a + b * (II - 1.0) + c * (YY - 1.5) * (XX - 1.0) / 4) / (
            1 + k * k
        )
        f.coeffs[((k,), (), ())] = coef * (1.0 + 0.3j * np.sign(k))
    return f


class TestBuild:
    def test_evaluator_gets_sparse_meshes(self):
        # each mesh varies along its own axis only; the values broadcast
        seen = []

        def fun(I, p, y, x):
            seen.extend(m.shape for m in (I, p, y, x))
            return np.cos(p) + 0 * I

        f = build(fun)
        n_phi = 64
        assert seen == [(SHAPE[0], 1, 1, 1), (1, n_phi, 1, 1),
                        (1, 1, SHAPE[1], 1), (1, 1, 1, SHAPE[2])]
        assert set(f.coeffs) == {((1,), (), ())}

    def test_constant(self):
        f = build(lambda I, p, y, x: np.ones_like(I))
        assert set(f.coeffs) == {((0,), (), ())}
        np.testing.assert_allclose(f.coeffs[((0,), (), ())], 1.0, atol=1e-14)

    def test_cos_gamma_modes(self):
        f = build(lambda I, p, y, x: np.cos(p) + 0 * I)
        keys = set(f.coeffs)
        assert keys == {((1,), (), ())}  # k = -1 implied by conjugation
        for key in keys:
            np.testing.assert_allclose(f.coeffs[key], 0.5, atol=1e-14)

    def test_roundtrip_eval(self):
        fun = lambda I, p, y, x: (1 + 0.3 * I) * np.cos(p) + 0.1 * np.sin(x) * np.cos(
            2 * p
        ) * y
        f = build(fun)
        rng = np.random.default_rng(0)
        for _ in range(10):
            I = rng.uniform(*BOX[0])
            ph = rng.uniform(0, 2 * np.pi)
            y = rng.uniform(*BOX[1])
            x = rng.uniform(*BOX[2])
            assert abs(f.evaluate([I], [ph], y, x) - fun(I, ph, y, x)) < 1e-10

    def test_evaluate_refuses_points_outside_the_box(self):
        # the interpolant is not extrapolated; the box edges, within 1e-12, are in
        f = TFSeries(2, [(0.0, 1.0)] * 3, (4, 4, 4))
        f.coeffs[((0,), (), ())] = np.exp(np.meshgrid(*f.grids(), indexing="ij")[2]) + 0j
        assert abs(f.evaluate(1.0, 0.0, 0.0, 1.0 + 1e-13) - np.e) < 1e-12
        assert abs(f.evaluate(-1e-13, 0.0, 1.0, 0.0) - 1.0) < 1e-12
        for I, y, x in [(0.5, 0.5, 50.0), (0.5, 0.5, 1.0 + 1e-9), (1.5, 0.5, 0.5),
                        (0.5, -0.5, 0.5), (0.5, 0.5, np.nan)]:
            with pytest.raises(ValueError, match="outside the series' box"):
                f.evaluate(I, 0.0, y, x)

    def test_rejects_complex_evaluator(self):
        with pytest.raises(ValueError, match="real evaluator"):
            build(lambda I, p, y, x: np.exp(1j * p) + 0 * I)

    def test_accepts_roundoff_imaginary_part(self):
        f = build(lambda I, p, y, x: np.cos(p) * (1 + 1e-16j) + 0 * I)
        assert set(f.coeffs) == {((1,), (), ())}

    @pytest.mark.parametrize("layout", ["fortran", "angle-outermost"])
    def test_coefficients_own_their_memory(self, layout):
        # a stored coefficient must not be a view pinning the whole FFT array
        def fun(I, p, y, x):
            v = (1 + 0.3 * I) * np.cos(p) + 0.1 * y * x * np.sin(2 * p)
            if layout == "fortran":
                return np.asfortranarray(v)
            return v[:, np.arange(v.shape[1])]  # fancy-index scatter layout

        f = build(fun)
        assert f.coeffs
        for arr in f.coeffs.values():
            assert arr.base is None
            assert arr.flags.c_contiguous


class TestSplit:
    def test_pure_oscillation(self):
        f = build(lambda I, p, y, x: np.cos(p) + 0 * I)
        avg, osc = tf_average_split(f)
        assert not avg.coeffs
        assert tf_norm(osc) > 0

    def test_normal_part_kept(self):
        f = build(lambda I, p, y, x: 1.7 + 0 * I + 0 * p)
        avg, osc = tf_average_split(f)
        assert not osc.coeffs
        assert abs(tf_norm(avg) - 1.7) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        f = rand_series(rng)
        avg, osc = tf_average_split(f)
        avg2, osc2 = tf_average_split(avg)
        assert not osc2.coeffs
        assert abs(tf_norm(avg2) - tf_norm(avg)) < 1e-14
        total = avg + osc
        assert abs(tf_norm(total - f)) < 1e-14

    def test_parts_share_the_input_arrays(self):
        f = rand_series(np.random.default_rng(3))
        avg, osc = tf_average_split(f)
        assert avg.coeffs and osc.coeffs
        assert list(avg.coeffs) + list(osc.coeffs) == list(f.coeffs)
        for part in (avg, osc):
            for key, arr in part.coeffs.items():
                assert np.shares_memory(arr, f.coeffs[key]), key


class TestNorm:
    def test_single_mode_weighting(self):
        f = TFSeries(1, BOX, SHAPE)
        f.coeffs[((1,), (), ())] = 0.5 * np.ones(SHAPE, complex)
        # the stored k = 1 stands for k = 1 and k = -1
        assert abs(tf_norm(f, 0.7) - 2 * 0.5 * np.exp(0.7)) < 1e-14

    def test_zero_series(self):
        f = TFSeries(2, BOX, SHAPE)
        assert tf_norm(f) == 0.0

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_width_not_finite_and_positive(self, s):
        f = TFSeries(2, BOX, SHAPE)
        with pytest.raises(ValueError, match="finite and positive"):
            tf_norm(f, s)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        w = 0.4
        for _ in range(20):
            f = rand_series(rng)
            g = rand_series(rng)
            assert tf_norm(f + g, w) <= tf_norm(f, w) + tf_norm(g, w) + 1e-12


class TestBracket:
    def test_action_angle_pair(self):
        # {I-linear series, sin(gamma)} reproduces cos(gamma)
        f = build(lambda I, p, y, x: I + 0 * p)
        g = build(lambda I, p, y, x: np.sin(p) + 0 * I)
        br = poisson_bracket(f, g)
        expect = build(lambda I, p, y, x: np.cos(p) + 0 * I)
        assert tf_norm(br - expect) < 1e-10

    def test_yx_pair(self):
        f = build(lambda I, p, y, x: y + 0 * I + 0 * p)
        g = build(lambda I, p, y, x: np.sin(x) + 0 * I + 0 * p)
        br = poisson_bracket(f, g)
        expect = build(lambda I, p, y, x: np.cos(x) + 0 * I + 0 * p)
        assert tf_norm(br - expect) < 1e-8

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        f = rand_series(rng)
        g = rand_series(rng)
        br1 = poisson_bracket(f, g)
        br2 = poisson_bracket(g, f)
        assert tf_norm(br1 + br2) < 1e-10 * max(1.0, tf_norm(br1))

    def test_jacobi_identity(self):
        rng = np.random.default_rng(5)
        # modes 0..1 under cutoff 6, so that no bracket below truncates
        f, g, h = (TFSeries(6, BOX, SHAPE, rand_series(rng, cutoff=1).coeffs) for _ in range(3))
        t1 = poisson_bracket(f, poisson_bracket(g, h))
        t2 = poisson_bracket(g, poisson_bracket(h, f))
        t3 = poisson_bracket(h, poisson_bracket(f, g))
        total = t1 + t2 + t3
        scale = max(tf_norm(t1), tf_norm(t2), tf_norm(t3), 1.0)
        assert tf_norm(total) / scale < 1e-8


class TestNqp:
    def test_closed_form_example(self):
        # f = a(I) cos(phi) with constant omega_I, omega_y: the primitive is
        # (a/omega_I) (sin(phi) - sin(phi - (omega_I/omega_y) x))
        omega_I, omega_y = 1.0, 2.0
        a = lambda I: 1.0 + 0.3 * I
        f = build(lambda I, p, y, x: a(I) * np.cos(p) + 0 * y)
        freqs = FrequencyData.tabulate(
            BOX, SHAPE, lambda I, y: omega_y + 0 * y, omega_I=[lambda I, y: omega_I + 0 * y]
        )
        phi = nqp_primitive(f, freqs)
        grids = phi.grids()
        II, YY, XX = np.meshgrid(*grids, indexing="ij")
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(30):
            i = rng.integers(0, SHAPE[0])
            jy = rng.integers(0, SHAPE[1])
            kx = rng.integers(0, SHAPE[2])
            ph = rng.uniform(0, 2 * np.pi)
            I, y, x = grids[0][i], grids[1][jy], grids[2][kx]
            got = phi.evaluate([I], [ph], y, x)
            expect = (a(I) / omega_I) * (
                np.sin(ph) - np.sin(ph - (omega_I / omega_y) * x)
            )
            worst = max(worst, abs(got - expect))
        assert worst < 1e-9

    def test_rejects_average_content(self):
        f = build(lambda I, p, y, x: 1.0 + np.cos(p) + 0 * I)
        freqs = FrequencyData.tabulate(BOX, SHAPE, lambda I, y: 1.0 + 0 * y)
        with pytest.raises(ValueError):
            nqp_primitive(f, freqs)

    def test_homological_residual_small(self):
        rng = np.random.default_rng(7)
        f = rand_series(rng, cutoff=2)
        _, osc = tf_average_split(f)
        freqs = FrequencyData.tabulate(
            BOX, SHAPE, lambda I, y: 2.0 + 0.1 * y, omega_I=[lambda I, y: 0.5 + 0 * y]
        )
        phi = nqp_primitive(osc, freqs)
        res = homological_residual(phi, osc, freqs)
        assert res.sup() / osc.sup() < 1e-8

    def test_zero_frequency_angle_allowed(self):
        # omega_I may vanish identically: lambda = 0 and the primitive is a
        # plain x-antiderivative
        f = build(lambda I, p, y, x: np.cos(p) + 0 * I)
        freqs = FrequencyData.tabulate(BOX, SHAPE, lambda I, y: 1.5 + 0 * y)
        phi = nqp_primitive(f, freqs)
        res = homological_residual(phi, f, freqs)
        assert res.sup() < 1e-10

    def test_matches_per_node_loop(self):
        # n_x = 16 and 48; omega_I varying in I, in I and y, identically zero
        # and absent.  The data of the n_x = 48 grid carry random values along
        # x, beyond the polynomial part: there the reference takes n_x + 1
        # nodes, the least that integrate a degree-(n_x - 1) interpolant
        # exactly, and lambda != 0 is left out, since on unresolved data the
        # reference's exponential kernel and the polynomial phi of
        # (1 + mu S) phi = S f / omega_y differ by the resolution error
        for n_x in (16, 48):
            rng = np.random.default_rng(19)
            shape = SHAPE[:2] + (n_x,)
            _, osc = tf_average_split(rand_series(rng, cutoff=3, shape=shape))
            if n_x > SHAPE[-1]:
                for arr in osc.coeffs.values():
                    arr += 0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            for omega_I in ([lambda I, y: 0.5 + 0.2 * I], [lambda I, y: 0.5 + 0.3 * I * y - 0.2 * y],
                            [lambda I, y: 0 * y], []):
                freqs = FrequencyData.tabulate(BOX, shape, lambda I, y: 2.0 + 0.1 * y,
                                               omega_I=omega_I)
                got = nqp_primitive(osc, freqs)
                if n_x == SHAPE[-1] or freqs.omega_I is None or not np.any(freqs.omega_I):
                    expect = ref_nqp_primitive(osc, freqs, n_cc=max(33, n_x + 1))
                    assert_series_close(got, expect, 1e-13)

    @pytest.mark.parametrize("n_x", [16, 48, 64])
    def test_exact_on_degree_n_minus_one(self, n_x):
        # x-data a Chebyshev series of degree n_x - 1 with O(1) coefficients:
        # the primitive is its exact antiderivative at any n_x (a fixed
        # 33-node rule along x is not, past n_x = 33)
        from numpy.polynomial import chebyshev as npc

        rng = np.random.default_rng(23)
        shape = SHAPE[:2] + (n_x,)
        lo, hi = BOX[-1]
        c = rng.normal(size=n_x)
        t = 2 * (ch.nodes(n_x, lo, hi) - lo) / (hi - lo) - 1
        f = TFSeries(2, BOX, shape)
        II, YY = np.meshgrid(*f.grids()[:2], indexing="ij")
        amp = {k: (1.0 + 0.2 * k * II - 0.1j * YY)[..., None] for k in (1, 2)}
        for k, a in amp.items():
            f.coeffs[((k,), (), ())] = a * npc.chebval(t, c)
        wy = lambda I, y: 2.0 + 0.1 * y
        freqs = FrequencyData.tabulate(BOX, shape, wy)
        prim = 0.5 * (hi - lo) * (npc.chebval(t, npc.chebint(c)) - npc.chebval(-1.0, npc.chebint(c)))
        expect = f.shell()
        for k, a in amp.items():
            expect.coeffs[((k,), (), ())] = a * prim / wy(II, YY)[..., None]
        assert_series_close(nqp_primitive(f, freqs), expect, 1e-13)

    def test_integration_matrix_cached_read_only(self):
        # S along x is built once per (n_x, x box) and shared by every call
        # and mode; writing into it is an error
        S = ch.integration_matrix(16, 0.0, 2.0)
        assert ch.integration_matrix(16, 0.0, 2.0) is S
        assert S.shape == (16, 16)
        assert not S.flags.writeable
        with pytest.raises(ValueError):
            S[0] = S[0]
        assert not np.any(S[0]) and np.all(np.any(S[1:], axis=1))
        rng = np.random.default_rng(4)
        _, osc = tf_average_split(rand_series(rng, cutoff=2))
        freqs = FrequencyData.tabulate(BOX, SHAPE, lambda I, y: 2.0 + 0.1 * y)
        before = ch.integration_matrix.cache_info()
        first = nqp_primitive(osc, freqs)
        second = nqp_primitive(osc, freqs)
        after = ch.integration_matrix.cache_info()
        assert after.misses - before.misses <= 1 and after.hits - before.hits >= 1
        for key, arr in first.coeffs.items():
            assert np.array_equal(arr, second.coeffs[key])
        assert not np.shares_memory(first.coeffs[key], second.coeffs[key])

    def test_eigenvalue_structure(self):
        # lambda_k = i k . omega_I
        freqs = FrequencyData.tabulate(
            BOX, SHAPE, lambda I, y: 1.0 + 0 * y, omega_I=[lambda I, y: 2.0 + 0 * y]
        )
        np.testing.assert_allclose(mode_eigenvalue(freqs, 2), 4.0j)
        np.testing.assert_allclose(mode_eigenvalue(freqs, 0), 0.0)

    @pytest.mark.parametrize("omega_y", [
        lambda I, y: 0 * y,
        lambda I, y: np.where(I > 1.0, np.nan, 1.0 + 0 * y),
    ], ids=["zero", "nan"])
    def test_tabulate_rejects_bad_omega_y(self, omega_y):
        with pytest.raises(ValueError, match="omega_y"):
            FrequencyData.tabulate(BOX, SHAPE, omega_y)

    def test_tabulate_rejects_two_omega_I(self):
        with pytest.raises(ValueError, match="omega_I"):
            FrequencyData.tabulate(BOX, SHAPE, lambda I, y: 1.0 + 0 * y,
                                   omega_I=[lambda I, y: 0.5 + 0 * y] * 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_tabulate_rejects_non_finite_omega_I(self, value):
        with pytest.raises(ValueError, match="omega_I"):
            FrequencyData.tabulate(BOX, SHAPE, lambda I, y: 1.0 + 0 * y,
                                   omega_I=[lambda I, y: np.where(y > 1.5, value, 0.5)])


class TestLie:
    def test_zero_generator_identity(self):
        rng = np.random.default_rng(8)
        f = rand_series(rng)
        zero = f.shell()
        out, rep = lie_transform(f, zero)
        assert tf_norm(out - f) < 1e-14
        assert rep.orders <= 1

    def test_linearity(self):
        rng = np.random.default_rng(9)
        f = rand_series(rng)
        g = rand_series(rng)
        phi = rand_series(rng, scale=0.01)
        a, b = 0.7, -1.3
        lhs, _ = lie_transform(f * a + g * b, phi)
        rf, _ = lie_transform(f, phi)
        rg, _ = lie_transform(g, phi)
        rhs = rf * a + rg * b
        assert tf_norm(lhs - rhs) < 1e-10 * max(1.0, tf_norm(lhs))

    def test_canonical_pair_preserved(self):
        # bracket of transformed coordinate functions I and gamma stays 1:
        # {Phi(I), Phi(gamma)} = 1 since Phi is canonical.  gamma itself is
        # not a series, so transform increments: Phi(I) = I + dI,
        # Phi(gamma) = gamma + dgam with dX = sum_{k>=1} L^k(X)/k!.
        import math as _math

        rng = np.random.default_rng(10)
        # phi's modes 0..2 under an enlarged cutoff, which every bracket
        # below inherits: the identity needs the O(phi^2) harmonics
        phi = TFSeries(8, BOX, SHAPE, rand_series(rng, scale=0.02).coeffs)
        # dI = e^L(I) - I with L(I) = {phi, I} = -d_angle(phi)
        LI = d_angle(phi) * -1.0
        dI, term = LI.shell(), LI
        for k in range(1, 8):
            dI = dI + term * (1.0 / _math.factorial(k))
            term = poisson_bracket(phi, term)
        # dgam likewise from L(gamma) = {phi, gamma} = d_I(phi)
        Lgam = d_grid(phi, 0)
        dgam, term = Lgam.shell(), Lgam
        for k in range(1, 8):
            dgam = dgam + term * (1.0 / _math.factorial(k))
            term = poisson_bracket(phi, term)
        # {I + dI, gamma + dgam} - 1 assembled by parts:
        # {I, dgam} = d_angle(dgam); {dI, gamma} = d_I(dI); plus {dI, dgam}
        br = d_angle(dgam) + d_grid(dI, 0) + poisson_bracket(dI, dgam)
        assert tf_norm(br) < 1e-6

    def test_contraction_loss_raises(self):
        rng = np.random.default_rng(11)
        f = rand_series(rng)
        phi = rand_series(rng, scale=50.0)
        with pytest.raises(ContractionError):
            lie_transform(f, phi)

    def test_bookkeeping_identity(self):
        # e^{L}(h) + e^{L}(f): the order-1 residual -D_omega(phi) + osc
        # vanishes by construction of the primitive
        rng = np.random.default_rng(12)
        f = rand_series(rng, cutoff=2, scale=0.05)
        _, osc = tf_average_split(f)
        freqs = FrequencyData.tabulate(
            BOX, SHAPE, lambda I, y: 2.0 + 0.2 * y, omega_I=[lambda I, y: 1.0 + 0 * y]
        )
        phi = nqp_primitive(osc, freqs)
        res = homological_residual(phi, osc, freqs)
        # -D_omega(phi) + osc is exactly the negative residual
        assert res.sup() / max(1e-300, osc.sup()) < 1e-8


class TestProduct:
    def test_known_product(self):
        f = build(lambda I, p, y, x: np.cos(p) + 0 * I)
        g = build(lambda I, p, y, x: np.cos(p) + 0 * I)
        pr = tf_product(f, g)
        # cos^2 = 1/2 + cos(2 gamma)/2
        expect = build(lambda I, p, y, x: 0.5 + 0.5 * np.cos(2 * p) + 0 * I)
        assert tf_norm(pr - expect) < 1e-12

    def test_truncation_respected(self):
        f = build(lambda I, p, y, x: np.cos(4 * p) + 0 * I, cutoff=4)
        pr = tf_product(f, f)
        assert pr.fourier_cutoff == 4
        assert all(abs(k[0]) <= 4 for k, _, _ in pr.coeffs)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cutoffs", [(2, 1), (1, 1), (3, 3), (0, 0)])
    def test_stacked_matches_per_coefficient_loop(self, seed, cutoffs):
        # the operands' cutoffs (f's, g's): the product truncates at the
        # larger, dropping the sums above it
        rng = np.random.default_rng(100 + seed)
        f = rand_series(rng, cutoff=cutoffs[0])
        g = rand_series(rng, cutoff=cutoffs[1])
        assert_series_close(expand(tf_product(f, g)),
                            ref_tf_product(expand(f), expand(g)), 1e-13)

    def test_angle_only_matches_per_coefficient_loop(self):
        rng = np.random.default_rng(110)
        f, g = rand_series(rng), rand_series(rng, cutoff=3)
        assert_series_close(expand(tf_product(f, g)),
                            ref_tf_product(expand(f), expand(g)), 1e-13)

    def test_empty_operand(self):
        rng = np.random.default_rng(111)
        f = rand_series(rng)
        empty = TFSeries(5, BOX, SHAPE)
        for a, b in ((f, empty), (empty, f), (empty, empty)):
            pr = tf_product(a, b)
            assert not pr.coeffs
            assert pr.fourier_cutoff == 5


class TestHalfSpectrum:
    """Stored k >= 0 against the full-spectrum references."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3))
    def test_matches_full_spectrum_references(self, seed, cut_f, cut_g):
        rng = np.random.default_rng(seed)
        f, g = rand_series(rng, cut_f), rand_series(rng, cut_g)
        assert_series_close(expand(tf_product(f, g)),
                            ref_tf_product(expand(f), expand(g)), 1e-13)
        # with both cutoffs 0 the bracket cancels exactly (d_y f d_x g of
        # rand_series is symmetric in f and g) and its sup is roundoff, so
        # it is measured against the operands' sup(f) sup(g)
        assert_series_close(expand(poisson_bracket(f, g)),
                            ref_poisson_bracket(expand(f), expand(g)), 1e-12,
                            floor=f.sup() * g.sup())

    def test_norm_counts_the_implied_modes(self):
        rng = np.random.default_rng(126)
        f = rand_series(rng, cutoff=3)
        assert tf_norm(f, 0.4) == pytest.approx(ref_tf_norm(expand(f), 0.4), rel=1e-14)

    @pytest.mark.parametrize("key", [((-1,), (), ()), ((-2,), (), ())])
    def test_constructor_rejects_negative_key(self, key):
        with pytest.raises(ShapeError, match="conjugation"):
            TFSeries(2, BOX, SHAPE, {key: np.ones(SHAPE)})


class TestBracketEngine:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_with_monomials(self, seed):
        rng = np.random.default_rng(120 + seed)
        f = rand_series(rng)
        g = rand_series(rng, cutoff=1)
        assert_series_close(expand(poisson_bracket(f, g)),
                            ref_poisson_bracket(expand(f), expand(g)), 1e-12)

    def test_matches_reference_angles_only(self):
        rng = np.random.default_rng(123)
        f, g = rand_series(rng), rand_series(rng)
        assert_series_close(expand(poisson_bracket(f, g)),
                            ref_poisson_bracket(expand(f), expand(g)), 1e-12)

    def test_empty_bracket_keeps_requested_cutoffs(self):
        # f at cutoff 2 has no coefficients, g at cutoff 6 has some: the
        # empty bracket reports the cutoff a non-empty one would
        f = TFSeries(2, BOX, SHAPE)
        g = TFSeries(6, BOX, SHAPE)
        g.coeffs[((1,), (), ())] = np.ones(SHAPE, complex)
        br = poisson_bracket(f, g)
        assert not br.coeffs
        assert br.fourier_cutoff == 6
        # the same cutoff as a non-empty bracket
        rng = np.random.default_rng(124)
        a = rand_series(rng)
        full = poisson_bracket(a, g)
        assert full.coeffs
        assert full.fourier_cutoff == 6


@st.composite
def stored_series(draw, shape, scale=1.0):
    """A random real series on BOX: cutoff 2-8, 1-6 stored modes below it."""
    K = draw(st.integers(2, 8))
    ks = draw(st.permutations(range(K + 1)))[:draw(st.integers(1, min(6, K + 1)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return TFSeries(K, BOX, shape, {
        ((k,), (), ()): scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape) * (k > 0))
        for k in ks})


def criterion_8_series(grid_shape):
    """The criterion-8 perturbation and its frequencies on grid_shape."""
    from perilib.coords import derive_mass_params
    from perilib.hamiltonians import HamiltonianSpec
    from perilib.normalform import build_secular_perturbation

    spec = HamiltonianSpec(2, 1.0, 1.0, derive_mass_params(1.0, 0.02, "m0centric"))
    return build_secular_perturbation(spec, 0.45, 1000.0, 16000.0, 0.005,
                                      grid_shape=grid_shape, fourier_cutoff=8)


class TestStreamedBracket:
    """The bracket streams its second operand; the bits stay those of the
    two-sided engine, and the memory falls to one refined stack at a time."""

    @staticmethod
    def assert_chain_matches(phi, H, max_order):
        terms, _ = _lie_chain(_BracketSide(phi), H, max_order, PLAIN_S)
        expect = [H]
        for order in range(1, len(terms)):
            expect.append(two_sided_bracket(phi, expect[-1]) * (1.0 / order))
        for got, ref in zip(terms, expect):
            assert_same_bits(got, ref)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_two_sided_engine(self, data):
        shape = tuple(data.draw(st.integers(4, 12)) for _ in range(3))
        f, g = data.draw(stored_series(shape)), data.draw(stored_series(shape))
        assert_same_bits(poisson_bracket(f, g), two_sided_bracket(f, g))
        assert_same_bits(tf_product(f, g), two_sided_product(f, g))
        # a small generator, so that the chain contracts
        phi = data.draw(stored_series(shape, scale=1e-6))
        self.assert_chain_matches(phi, g, 3)

    def test_criterion_8_matches_two_sided_engine(self):
        # the step-0 bracket, a product and the step-0 chain on s
        f, freqs = criterion_8_series((8, 8, 10))
        phi = nqp_primitive(tf_average_split(f)[1], freqs)
        osc = tf_average_split(f)[1]
        b = poisson_bracket(phi, f)
        assert_same_bits(b, two_sided_bracket(phi, f))
        assert_same_bits(tf_product(f, phi), two_sided_product(f, phi))
        self.assert_chain_matches(phi, b - osc, STEP_LIE_ORDER)

    def test_bracket_holds_one_refined_stack(self):
        # on a 5-key operand the bracket peaks at 3.85 refined stacks of it
        # above its start, while it builds a piece of the operand with the
        # output stack allocated (3.70 when each output key had its own
        # array, stacked to be projected); refining its four stacks at once,
        # with their conjugates, took 14.0 (tracemalloc sees numpy's buffers)
        import tracemalloc

        f, freqs = criterion_8_series((8, 8, 10))
        L = _BracketSide(nqp_primitive(tf_average_split(f)[1], freqs))
        rng = np.random.default_rng(31)
        shape = f.grid_shape
        g = f.shell({((k,), (), ()): rng.normal(size=shape) + 1j * rng.normal(size=shape) * (k > 0)
                     for k in range(5)})
        stack = 5 * ch.refine(np.zeros(shape, complex)).nbytes
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            L.bracket(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - start <= 6 * stack

    @pytest.mark.parametrize("n_x", [8, 9, 12])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_single_x_line_generator_matches_two_sided_engine(self, n_x, k):
        # a one-key series on a (1, 1, n_x) grid: every stack of it is one x
        # line, and the streamed engine takes d_phi's rows of an operand
        # after refining x where the two-sided engine takes them before, so
        # their products along x have different row counts
        rng = np.random.default_rng(40 + n_x + k)
        shape = (1, 1, n_x)
        def series(modes):
            return TFSeries(4, BOX, shape, {
                ((m,), (), ()): rng.normal(size=shape) + 1j * rng.normal(size=shape) * (m > 0)
                for m in modes})

        f, g = series([k]), series(range(4))
        for a, b in ((f, g), (g, f), (f, f)):
            assert_same_bits(poisson_bracket(a, b), two_sided_bracket(a, b))


@st.composite
def polynomial_series(draw):
    """A series on BOX whose coefficients are tensor products of Chebyshev
    series of degree < n along each axis of n nodes (axes of length 1
    included), with the exact pieces of each key, in _pieces' order,
    sampled on the refined Lobatto grid."""
    from numpy.polynomial import chebyshev as cheb

    shape = tuple(draw(st.sampled_from([1, 2, 3, 5, 8, 13, 16])) for _ in range(3))
    ks = draw(st.lists(st.integers(0, 8), min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs, exact = {}, {}
    for k in ks:
        factors = []
        for n, (lo, hi) in zip(shape, BOX):
            c = rng.normal(size=n)
            scale = 2.0 / (hi - lo)
            factors.append([
                [cheb.chebval(2 * (ch.nodes(m, lo, hi) - lo) / (hi - lo) - 1, coef)
                 for m in (n, ch.fine_size(n))]
                for coef in (c, cheb.chebder(c) * scale)])
        # factors[axis][derivative] = (values on the grid, on the refined grid)
        phase = complex(1.0, rng.normal()) if k else 1.0

        def product(ders, fine):
            return phase * np.einsum("i,j,k->ijk", *(
                factors[ax][d][fine] for ax, d in enumerate(ders)))

        key = ((k,), (), ())
        coeffs[key] = product((0, 0, 0), 0)
        exact[key] = (1j * k * product((0, 0, 0), 1), product((1, 0, 0), 1),
                      product((0, 1, 0), 1), product((0, 0, 1), 1))
    return TFSeries(8, BOX, shape, coeffs), exact


def differentiate_then_refine(f):
    """_pieces' four maps the way they were built before R D was one
    matrix: d_phi from the refined values, each grid derivative taken on
    the grid and then refined."""
    keys = list(f.coeffs)
    coarse = np.stack(list(f.coeffs.values()))
    fine = ch.refine(coarse, lead=1)
    d_phi = {key: 1j * key[0][0] * fine[r] for r, key in enumerate(keys) if key[0][0]}
    return [d_phi] + [dict(zip(keys, ch.refine(ch.differentiate(coarse, ax + 1, *f.box[ax]),
                                               lead=1)))
                      for ax in range(3)]


class TestPieces:
    """A series' bracket pieces, and the one fine stack a bracket or product
    sums into."""

    # measured over 6,000 draws of polynomial_series, relative to the larger
    # of the exact piece's sup and the coefficient's: at most 1.9e-14 off
    # the exact derivative and 6.0e-15 off differentiating then refining
    @settings(max_examples=60, deadline=None)
    @given(polynomial_series())
    def test_pieces_are_the_refined_derivatives(self, drawn):
        import perilib.normalform as nf

        f, exact = drawn
        pieces = list(nf._pieces(f))
        for p, (piece, old) in enumerate(zip(pieces, differentiate_then_refine(f))):
            assert list(piece) == list(old)
            for key, arr in piece.items():
                scale = max(np.max(np.abs(exact[key][p])), np.max(np.abs(f.coeffs[key])))
                assert np.max(np.abs(arr - exact[key][p])) <= 1e-13 * scale, (p, key)
                assert np.max(np.abs(arr - old[key])) <= 2e-14 * scale, (p, key)

    @pytest.mark.parametrize("cutoff", [None, 2])
    def test_one_row_per_output_key_and_no_copy(self, cutoff, monkeypatch):
        # the accumulator's stack has a row for each key of the result, each
        # written, and it is coarsened as it is: the only arrays stacked are
        # the operands' coefficients, on the coarse grid.  cutoff is the
        # operands' cutoff (None: 6), below which their keys are stored
        import perilib.normalform as nf

        sums, stacked, coarsened = [], [], []

        class Recorded(nf._FineSums):
            def __init__(self, *args):
                super().__init__(*args)
                sums.append(self)

        stack, coarsen = np.stack, ch.coarsen

        def recorded_stack(arrays, *args, **kwargs):
            stacked.extend(a.shape for a in arrays)
            return stack(arrays, *args, **kwargs)

        def recorded_coarsen(v, shape):
            coarsened.append(v)
            return coarsen(v, shape)

        K = 6 if cutoff is None else cutoff
        rng = np.random.default_rng(51)
        f = TFSeries(K, BOX, SHAPE, {((k,), (), ()): rng.normal(size=SHAPE) * (1 + 1j * (k > 0))
                                     for k in (1, 3, 4) if k <= K})
        g = TFSeries(K, BOX, SHAPE, {((k,), (), ()): rng.normal(size=SHAPE) * (1 + 1j * (k > 0))
                                     for k in (0, 2, 5) if k <= K})
        side = _BracketSide(f)
        monkeypatch.setattr(nf, "_FineSums", Recorded)
        monkeypatch.setattr(np, "stack", recorded_stack)
        monkeypatch.setattr(ch, "coarsen", recorded_coarsen)
        for run in (lambda: side.bracket(g), lambda: tf_product(f, g)):
            sums.clear(), stacked.clear(), coarsened.clear()
            out = run()
            (acc,) = sums
            fine = tuple(ch.fine_size(n) for n in SHAPE)
            assert acc.stack.shape == (len(out.coeffs),) + fine
            assert list(acc.rows) == list(out.coeffs)
            assert not any(acc.unwritten)
            assert len(coarsened) == 1 and coarsened[0] is acc.stack
            assert stacked and set(stacked) == {SHAPE}


class TestBracketSideLifetime:
    """normal_form_steps keeps one step's bracket side, and what it reads,
    alive at a time."""

    def test_one_side_alive_at_each_build(self, monkeypatch):
        # when a step builds its side, the earlier steps' sides are gone
        import weakref

        import perilib.normalform as nf

        sides, alive = [], []

        class CountedSide(nf._BracketSide):
            def __init__(self, f):
                alive.append(sum(ref() is not None for ref in sides))
                sides.append(weakref.ref(self))
                super().__init__(f)

        monkeypatch.setattr(nf, "_BracketSide", CountedSide)
        f, freqs = criterion_8_series((8, 8, 10))
        nf.normal_form_steps(f, freqs, N=3)
        assert alive == [0, 0, 0]

    def test_run_peak_in_refined_stacks(self):
        # three steps of criterion 8 on (8, 8, 10) peak at 44.4 refined
        # one-key stacks above their start (43.7 with an array per output
        # key); holding each step's side and its refined values until the
        # next side was built took 73
        import tracemalloc

        f, freqs = criterion_8_series((8, 8, 10))
        stack = ch.refine(np.zeros(f.grid_shape, complex)).nbytes
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            normal_form_steps(f, freqs, N=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - start <= 60 * stack


def two_angle_file(d):
    """d rewritten as a consistent two-angle file: an I_2 axis of one node,
    every mode k as (k, 0)."""
    d.update(n_angles=2, box=[[0.5, 1.5]] + d["box"], grid_shape=[1] + d["grid_shape"])
    for entry in d["coeffs"]:
        entry["k"] = entry["k"] + [0]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        from perilib.normalform import load_series

        rng = np.random.default_rng(13)
        f = rand_series(rng)
        p = tmp_path / "series.json"
        p.write_text(json.dumps(series_to_dict(f), default=np.ndarray.tolist))
        g = load_series(str(p))
        assert g.same_shape(f)
        assert tf_norm(g - f) == 0.0  # repr round-trip is exact

    @pytest.mark.parametrize("shape", [(1, 1, 1), SHAPE])
    def test_dict_arrays_are_copies(self, shape):
        # on a one-node grid arr.real.ravel() would be a view of the series
        f = rand_series(np.random.default_rng(17), shape=shape)
        before = {key: arr.copy() for key, arr in f.coeffs.items()}
        for entry in series_to_dict(f)["coeffs"]:
            assert entry["re"].dtype == entry["im"].dtype == np.float64
            assert entry["re"].shape == entry["im"].shape == (math.prod(shape),)
            entry["re"][:] = 7.0
            entry["im"][:] = -7.0
        assert all(np.array_equal(f.coeffs[key], arr) for key, arr in before.items())

    def test_dict_schema(self):
        rng = np.random.default_rng(14)
        f = rand_series(rng, cutoff=1)
        d = series_to_dict(f)
        assert set(d) == {"n_angles", "fourier_cutoff", "box", "grid_shape", "coeffs"}
        assert all(e["h"] == [] and e["j"] == [] for e in d["coeffs"])
        g = series_from_dict(d)
        assert tf_norm(g - f) == 0.0

    def test_older_header_loads_bitwise(self):
        # files written before the (p, q) fields were dropped carry both as 0
        rng = np.random.default_rng(15)
        f = rand_series(rng)
        d = dict(series_to_dict(f), m_pq=0, pq_degree=0)
        g = series_from_dict(d)
        assert g.same_shape(f) and g.fourier_cutoff == f.fourier_cutoff
        assert list(g.coeffs) == sorted(f.coeffs)
        for key, arr in f.coeffs.items():
            assert g.coeffs[key].tobytes() == arr.tobytes()

    def test_corrupted_negative_entry_raises(self):
        # only k >= 0 is stored: a file holding every k < 0 entry beside its
        # k > 0 partner, the conjugate or moved by bump * sup, fails the key
        # check
        f = rand_series(np.random.default_rng(19))
        for bump in (0.0, 1e-9):
            d = series_to_dict(expand(f))
            assert any(entry["k"][0] < 0 for entry in d["coeffs"])
            for entry in d["coeffs"]:
                if entry["k"][0] < 0:
                    entry["re"][0] += bump * f.sup()
            with pytest.raises(ShapeError, match="not stored"):
                series_from_dict(d)

    def test_unpaired_negative_entry_raises(self):
        rng = np.random.default_rng(20)
        f = rand_series(rng, cutoff=2)
        d = series_to_dict(f)
        d["coeffs"][2]["k"] = [-2]  # a k = -2 with no k = 2
        with pytest.raises(ShapeError, match="not stored"):
            series_from_dict(d)
        d = series_to_dict(f)
        d["coeffs"].append(dict(d["coeffs"][1], k=[-7]))  # beyond the cutoff
        with pytest.raises(ShapeError, match="cutoff"):
            series_from_dict(d)

    def test_duplicate_entry_raises(self):
        # a second entry for one mode would otherwise replace the first
        d = series_to_dict(rand_series(np.random.default_rng(21), cutoff=1))
        d["coeffs"].append(dict(d["coeffs"][1], re=[5.0] * math.prod(SHAPE)))
        with pytest.raises(ShapeError, match="two entries"):
            series_from_dict(d)

    @pytest.mark.parametrize("corrupt", [
        lambda d: d["coeffs"][0].update(k=[0.5]),
        lambda d: d["coeffs"][1].update(k=[True]),
        lambda d: d["coeffs"][0]["re"].__setitem__(3, math.nan),
        lambda d: d["coeffs"][1]["im"].__setitem__(3, -math.inf),
        lambda d: d.update(fourier_cutoff=1.5),
        lambda d: d.update(fourier_cutoff=True),
        lambda d: d.update(n_angles=True),
        two_angle_file,
        lambda d: d["box"][1].__setitem__(0, math.nan),
        lambda d: d["box"][2].__setitem__(1, math.inf),
        lambda d: d["box"].__setitem__(0, [1.5, 0.5]),
        lambda d: d.update(grid_shape=[0, 8, 16], coeffs=[]),
        lambda d: d.update(grid_shape=[-8, -8, 16]),
        lambda d: d.update(grid_shape=[8.0, 8, 16]),
    ], ids=["k-float", "k-bool", "re-nan", "im-inf", "cutoff-float", "cutoff-bool",
            "n_angles-bool", "n_angles-2", "box-nan", "box-inf", "box-reversed",
            "grid-zero", "grid-negative", "grid-float"])
    def test_load_series_rejects_malformed_file(self, corrupt, tmp_path):
        from perilib.normalform import load_series

        d = series_to_dict(rand_series(np.random.default_rng(22), cutoff=1))
        corrupt(d)
        p = tmp_path / "series.json"
        p.write_text(json.dumps(d, default=np.ndarray.tolist))
        with pytest.raises(ShapeError):
            load_series(str(p))

    @pytest.mark.parametrize("entry", [
        {"k": [7]},                        # beyond the cutoff
        {"k": [1, 1]},                     # one index per angle
        {"h": [3]},                        # a monomial slot
        {"j": [1]},
        {"re": [1.0, 2.0], "im": [0.0, 0.0]},  # not a grid's worth of values
    ], ids=["k-cutoff", "k-length", "h", "j", "grid-size"])
    def test_from_dict_checks_entries(self, entry):
        rng = np.random.default_rng(16)
        d = series_to_dict(rand_series(rng))
        d["coeffs"][0].update(entry)
        with pytest.raises(ShapeError):
            series_from_dict(d)


class TestSecularBuild:
    def test_desk_scale_roundtrip(self):
        # resampling oracle: the built band-limited series reproduces the
        # pointwise perturbation away from the grid
        from perilib.coords import derive_mass_params, radial_radius
        from perilib.hamiltonians import HamiltonianSpec, aa_perturbation_at
        from perilib.normalform import build_secular_perturbation

        spec = HamiltonianSpec(2, 1.0, 1.0, derive_mass_params(1.0, 0.02, "m0centric"))
        series, _ = build_secular_perturbation(
            spec, 0.45, 1000.0, 16000.0, 0.005,
            grid_shape=(16, 16, 20), fourier_cutoff=8,
        )
        rng = np.random.default_rng(3)
        s = np.sqrt(0.45)
        worst = 0.0
        for _ in range(12):
            Gc = rng.uniform(0.9951, 0.9999)
            gam = rng.uniform(0, 2 * np.pi)
            y = rng.uniform(2 * np.sqrt(1000) * 1.01, np.sqrt(16000) * 0.99)
            x = rng.uniform(2 * s + 0.01, 2 * np.pi - 2 * s - 0.01)
            direct = aa_perturbation_at(spec, Gc, gam, radial_radius(spec.m0, y, x))
            built = series.evaluate([Gc], [gam], y, x)
            worst = max(worst, abs(direct - built) / abs(direct))
        assert worst < 1e-8

    @pytest.mark.parametrize("cutoff, n_phi", [(8, 64), (16, 68), (20, 84)],
                             ids=["64", "68", "84"])
    def test_folded_build_matches_full_mesh(self, cutoff, n_phi, monkeypatch):
        # n_phi = max(64, 4 (cutoff + 1)) gamma samples fold by cos^2's
        # period pi and its evenness onto n_phi/4 + 1 columns
        import perilib.potentials as pot
        from perilib.coords import derive_mass_params
        from perilib.hamiltonians import HamiltonianSpec
        from perilib.normalform import build_secular_perturbation

        spec = HamiltonianSpec(2, 1.0, 1.0, derive_mass_params(1.0, 0.02, "m0centric"))
        args = (spec, 0.45, 1000.0, 16000.0, 0.005)
        grid_shape = (4, 4, 6)
        expect = ref_secular_build(*args, grid_shape, cutoff, n_phi)

        shapes = []
        real_grid = pot.f_eps_minus_one_grid

        def counting_grid(eps, t):
            shapes.append(np.broadcast_shapes(np.shape(eps), np.shape(t)))
            return real_grid(eps, t)

        monkeypatch.setattr(pot, "f_eps_minus_one_grid", counting_grid)
        got, _ = build_secular_perturbation(
            *args, grid_shape=grid_shape, fourier_cutoff=cutoff
        )
        assert shapes == [(4, n_phi // 4 + 1, 4, 6)] * len(spec.terms())
        assert_series_close(got, expect, 1e-14)


    def test_box_is_the_libration_domain(self):
        from perilib.coords import derive_mass_params
        from perilib.hamiltonians import HamiltonianSpec, libration_box
        from perilib.normalform import build_secular_perturbation

        spec = HamiltonianSpec(2, 1.0, 1.0, derive_mass_params(1.0, 0.02, "m0centric"))
        args = (spec, 0.45, 1000.0, 16000.0, 0.005)
        series, freqs = build_secular_perturbation(*args, grid_shape=(4, 4, 6))
        assert series.box == libration_box(*args)
        # the drift has no Gcal frequency: no omega_I table
        assert freqs.omega_I is None

    @pytest.mark.parametrize("eps0, delta, name", [
        (0.25, 0.0, "delta"),
        (0.25, -0.01, "delta"),
        (0.25, 1.0, "delta"),
        (0.25, 5.0, "delta"),
        (0.25, np.nan, "delta"),
        (0.0, 0.025, "eps0"),
        (np.pi**2 / 4, 0.025, "eps0"),
        (2.5, 0.025, "eps0"),
        (np.nan, 0.025, "eps0"),
    ])
    def test_rejects_a_domain_outside_the_chart(self, eps0, delta, name):
        # a D with Gcal <= 0 or an empty x window is rejected before any
        # sampling, with the parameter named
        from perilib.coords import derive_mass_params
        from perilib.hamiltonians import HamiltonianSpec
        from perilib.normalform import build_secular_perturbation

        spec = HamiltonianSpec(1, 1.0, 1.0, derive_mass_params(1.0, 1.0, "jacobi"))
        with pytest.raises(ValueError, match=name):
            build_secular_perturbation(spec, eps0, 2e4, 3.2e5, delta, grid_shape=(4, 4, 6))

    @pytest.mark.parametrize("alpha_minus, alpha_plus, name", [
        (1e5, 2e5, "alpha_minus"),
        (5e4, 2e5, "alpha_minus"),
        (0.0, 2e5, "alpha_minus"),
        (-1.0, 2e5, "alpha_minus"),
        (np.nan, 2e5, "alpha_minus"),
        (2e4, np.inf, "alpha_plus"),
        (2e4, np.nan, "alpha_plus"),
        (2e4, -3.2e5, "alpha_plus"),
    ])
    def test_rejects_an_empty_y_window(self, alpha_minus, alpha_plus, name):
        # the y window (2 sqrt(m0^3 alpha-), sqrt(m0^3 alpha+)) must be finite
        # and increasing: a reversed or NaN window is not returned, and a
        # negative alpha- is not a math domain error
        from perilib.coords import derive_mass_params
        from perilib.hamiltonians import HamiltonianSpec, libration_box
        from perilib.normalform import build_secular_perturbation

        spec = HamiltonianSpec(2, 1.0, 1.0, derive_mass_params(1.0, 0.02, "m0centric"))
        with pytest.raises(ValueError, match=name):
            libration_box(spec, 0.25, alpha_minus, alpha_plus, 0.025)
        with pytest.raises(ValueError, match=name):
            build_secular_perturbation(spec, 0.25, alpha_minus, alpha_plus, 0.025,
                                       grid_shape=(4, 4, 6))


class TestNormalFormSteps:
    def make_toy(self, rng, strength=0.01):
        """h = y^2/2 on the box (omega_y = y), f small and band-limited."""
        f = TFSeries(4, BOX, SHAPE)
        grids = f.grids()
        II, YY, XX = np.meshgrid(*grids, indexing="ij")
        f.coeffs[((0,), (), ())] = strength * (1 + 0.2 * II + 0.1 * YY) + 0j
        f.coeffs[((1,), (), ())] = strength * (0.5 + 0.1 * np.sin(XX) + 0.05 * II) * (1 + 0.2j)
        f.coeffs[((2,), (), ())] = strength * 0.2 * np.cos(XX) * (1 - 0.1j)
        freqs = FrequencyData.tabulate(
            BOX, SHAPE, lambda I, y: y, omega_I=[lambda I, y: 0.3 + 0 * y]
        )
        return f, freqs

    def test_normal_class_input_short_circuits(self):
        rng = np.random.default_rng(15)
        f = TFSeries(2, BOX, SHAPE)
        f.coeffs[((0,), (), ())] = np.ones(SHAPE, complex)
        freqs = FrequencyData.tabulate(BOX, SHAPE, lambda I, y: y)
        result = normal_form_steps(f, freqs, N=3)
        assert len(result.steps) == 1
        assert tf_norm(result.f_star) == 0.0
        assert abs(tf_norm(result.g_star) - 1.0) < 1e-12
        # the one step has no oscillatory part, and f* no mode at all
        assert result.steps[0] == NormalFormStep(0, tf_norm(f), 0.0, 0.0, 0.0)
        assert result.f_star.coeffs == {}

    def test_oscillation_drains_geometrically(self):
        rng = np.random.default_rng(16)
        f, freqs = self.make_toy(rng)
        result = normal_form_steps(f, freqs, N=4)
        osc = [s.osc_norm for s in result.steps if s.osc_norm > 0]
        assert len(osc) >= 3
        for a, b in zip(osc, osc[1:]):
            assert b / a <= 0.5
        # residuals of the homological equation stay small
        assert all(s.residual < 1e-8 for s in result.steps)

    def test_average_accumulation(self):
        # g gains exactly the average of f at the first step
        rng = np.random.default_rng(17)
        f, freqs = self.make_toy(rng)
        avg, _ = tf_average_split(f)
        result = normal_form_steps(f, freqs, N=1)
        key = ((0,), (), ())
        diff = result.g_star.coeffs[key] - avg.coeffs[key]
        assert np.max(np.abs(diff)) < 1e-14

    def test_matches_two_chain_reference(self):
        # the toy input and the criterion-8 series on a small grid
        inputs = {
            "toy": self.make_toy(np.random.default_rng(20)),
            "criterion 8": criterion_8_series((8, 8, 10)),
        }
        for name, (f, freqs) in inputs.items():
            result = normal_form_steps(f, freqs, N=3)
            g_ref, f_ref, rows = ref_normal_form_steps(expand(f), freqs, N=3)
            assert len(result.steps) == len(rows) == 3, name
            for step, (f_norm, osc_norm, contraction) in zip(result.steps, rows):
                for got, expect in ((step.f_norm, f_norm), (step.osc_norm, osc_norm),
                                    (step.contraction, contraction)):
                    assert abs(got - expect) <= 1e-12 * expect, name
            assert_series_close(expand(result.g_star), g_ref, 1e-12)
            assert_series_close(expand(result.f_star), f_ref, 1e-12)

    def test_records_lie_report(self):
        # the step reports its one chain, on s = {phi, g' + osc} - osc
        rng = np.random.default_rng(21)
        f, freqs = self.make_toy(rng)
        step = normal_form_steps(f, freqs, N=1).steps[0]
        avg, osc = tf_average_split(f)
        phi = nqp_primitive(osc, freqs)
        s = poisson_bracket(phi, avg + osc) - osc
        _, rep = _lie_chain(_BracketSide(phi), s, STEP_LIE_ORDER, PLAIN_S)
        assert step.lie_orders == rep.orders >= 2
        assert step.lie_ratio == pytest.approx(rep.ratio, rel=1e-12)
        assert 0 < step.lie_ratio < 1
        assert step.lie_tail_bound == pytest.approx(rep.tail_bound, rel=1e-10)

    def test_lie_ratio_ignores_roundoff_terms(self):
        # the step-0 chain of the criterion-8 series on a coarser grid: term
        # norms 1, 1e-6, 8e-13, 2e-16, 4e-17 of the first, the last two
        # roundoff.  A 1e-14 change of the input must move the reported
        # ratio and tail bound by well under 1%
        series, freqs = criterion_8_series((16, 8, 20))
        _, osc = tf_average_split(series)
        reports = []
        for scale in (1.0, 1.0 + 1e-14):
            f = osc * scale
            reports.append(lie_transform(f, nqp_primitive(f, freqs))[1])
        a, b = reports
        assert min(a.term_norms) < 1e-15 * a.term_norms[0]
        assert 0 < a.ratio < 1
        assert abs(b.ratio / a.ratio - 1) < 0.01
        assert abs(b.tail_bound / a.tail_bound - 1) < 0.01

    def test_divergent_chain_raises(self):
        rng = np.random.default_rng(22)
        f, freqs = self.make_toy(rng, strength=2.0)
        with pytest.raises(ContractionError):
            normal_form_steps(f, freqs, N=1)

    def test_growing_step_raises_unless_at_rounding_level(self):
        # a steep average in I makes {phi, g} outgrow osc: contraction 1.87
        # whatever osc's size.  At 6.6e-4 of f the step raises; at 6.6e-15
        # of f (below OSC_ROUNDING_FLOOR) it is rounding and is reported
        from perilib.normalform import OSC_ROUNDING_FLOOR

        f, freqs = self.make_toy(np.random.default_rng(23))
        key = ((0,), (), ())
        II, YY, _ = np.meshgrid(*f.grids(), indexing="ij")
        f.coeffs[key] = (1 + II + 0.1 * YY) + 0j
        avg, osc = tf_average_split(f)
        with pytest.raises(ContractionError, match="step 0 "):
            normal_form_steps(avg + osc * 0.1, freqs, N=1)
        tiny = avg + osc * 1e-12
        step = normal_form_steps(tiny, freqs, N=1).steps[0]
        assert step.osc_norm <= OSC_ROUNDING_FLOOR * step.f_norm
        assert step.contraction > 1.5

    def test_read_only_input(self):
        # the run reads its input's arrays and writes none of them
        f, freqs = criterion_8_series((8, 8, 10))
        expect = normal_form_steps(f.copy(), freqs, N=3)
        before = f.copy()
        for arr in f.coeffs.values():
            arr.flags.writeable = False
        got = normal_form_steps(f, freqs, N=3)
        assert len(got.steps) == 3
        assert_same_bits(f, before)
        assert_same_bits(got.g_star, expect.g_star)
        assert_same_bits(got.f_star, expect.f_star)

    def test_gamma_dependence_fades(self):
        rng = np.random.default_rng(18)
        f, freqs = self.make_toy(rng)
        result = normal_form_steps(f, freqs, N=2)
        _, osc0 = tf_average_split(f)
        _, osc2 = tf_average_split(result.f_star)
        assert tf_norm(osc2) <= 1e-3 * tf_norm(osc0)
