import math

import numpy as np
import pytest

from perilib import chebyshev as ch
from perilib.normalform import (
    PLAIN_WEIGHTS,
    ContractionError,
    FrequencyData,
    NormWeights,
    TFSeries,
    d_angle,
    d_grid,
    d_I,
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
    tf_sup_complexified,
)

BOX = [(0.5, 1.5), (1.0, 2.0), (0.0, 2.0)]
SHAPE = (8, 8, 16)


# ---------------- per-coefficient references of the engine ----------------


def ref_tf_product(f, g, fourier_cutoff=None, pq_degree=None):
    """The per-coefficient loop: refine every coefficient on its own, multiply
    pairwise, project each key back on its own."""
    K = fourier_cutoff if fourier_cutoff is not None else max(f.fourier_cutoff, g.fourier_cutoff)
    P = pq_degree if pq_degree is not None else max(f.pq_degree, g.pq_degree)
    fine_f = {k: ch.refine(v) for k, v in f.coeffs.items()}
    fine_g = {k: ch.refine(v) for k, v in g.coeffs.items()}
    acc = {}
    for (k1, h1, j1), a in fine_f.items():
        for (k2, h2, j2), b in fine_g.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            h = tuple(x + y for x, y in zip(h1, h2))
            j = tuple(x + y for x, y in zip(j1, j2))
            if any(abs(ki) > K for ki in k) or sum(h) + sum(j) > P:
                continue
            key = (k, h, j)
            acc[key] = acc[key] + a * b if key in acc else a * b
    out = TFSeries(f.n_angles, f.m_pq, K, P, f.box, f.grid_shape)
    for key, arr in acc.items():
        out.coeffs[key] = ch.coarsen(arr, f.grid_shape)
    return out.prune()


def ref_d_pq(f, i, which):
    """d/dp_i (which = 1) or d/dq_i (which = 2), mode by mode."""
    out = f.shell()
    for key, arr in f.coeffs.items():
        mono = key[which]
        if mono[i] > 0:
            lowered = tuple(v - (idx == i) for idx, v in enumerate(mono))
            new = list(key)
            new[which] = lowered
            out.coeffs[tuple(new)] = mono[i] * arr
    return out


def ref_poisson_bracket(f, g, fourier_cutoff=None, pq_degree=None):
    """One reference product per term of the bracket, summed."""
    n = f.n_angles
    terms = []
    for i in range(n):
        terms.append((d_I(f, i), d_angle(g, i)))
        terms.append((d_I(g, i) * -1.0, d_angle(f, i)))
    for i in range(f.m_pq):
        terms.append((ref_d_pq(f, i, 1), ref_d_pq(g, i, 2)))
        terms.append((ref_d_pq(g, i, 1) * -1.0, ref_d_pq(f, i, 2)))
    terms.append((d_grid(f, n), d_grid(g, n + 1)))
    terms.append((d_grid(g, n) * -1.0, d_grid(f, n + 1)))
    out = f.shell()
    out.fourier_cutoff = fourier_cutoff if fourier_cutoff is not None else max(
        f.fourier_cutoff, g.fourier_cutoff)
    out.pq_degree = pq_degree if pq_degree is not None else max(f.pq_degree, g.pq_degree)
    for a, b in terms:
        if a.coeffs and b.coeffs:
            out = out + ref_tf_product(a, b, fourier_cutoff, pq_degree)
    return out.prune()


def ref_nqp_primitive(f_osc, freqs, basepoint=None, n_cc=33):
    """The per-node loop: a Clenshaw-Curtis rule and a Clenshaw evaluation at
    every x node of every mode."""
    _, osc = tf_average_split(f_osc)
    lo, hi = f_osc.box[-1]
    basepoint = lo if basepoint is None else basepoint
    xs = ch.nodes(f_osc.grid_shape[-1], lo, hi)
    out = f_osc.shell()
    inv_wy = 1.0 / freqs.omega_y
    for (k, h, j), arr in osc.coeffs.items():
        mu = mode_eigenvalue(freqs, k, h, j) * inv_wy
        cx = ch.vals_to_coeffs(arr, arr.ndim - 1)
        phi = np.empty_like(arr)
        for c, xc in enumerate(xs):
            if abs(xc - basepoint) < 1e-15:
                phi[..., c] = 0.0
                continue
            tau, wq = ch.clenshaw_curtis(n_cc, basepoint, xc)
            fvals = ch.clenshaw(cx, arr.ndim - 1, tau, lo, hi)
            expf = np.exp(mu[..., None] * (tau - xc))
            phi[..., c] = inv_wy * np.sum(wq * fvals * expf, axis=-1)
        out.coeffs[(k, h, j)] = phi
    return out


def ref_lie_sum(phi, seed, max_order, weights, divisor, rel_floor=1e-16):
    """sum_j L^j(seed) / divisor(j), with L^j built by its own bracket chain."""
    term, total = seed, seed * (1.0 / divisor(0))
    base = tf_norm(seed, weights) or 1.0
    for order in range(1, max_order + 1):
        term = ref_poisson_bracket(phi, term)
        total = total + term * (1.0 / divisor(order))
        if tf_norm(term, weights) / divisor(order) <= rel_floor * base:
            break
    return total.prune()


def ref_normal_form_steps(f, freqs, N, w=PLAIN_WEIGHTS, max_order=14):
    """The step with a separate bracket chain for each sum: L^j(osc) for the
    Phi_2 tail (1/(j+1)!) and again for e^L(osc) (1/j!)."""
    g, fj, rows = f.shell(), f.copy(), []
    for _ in range(N):
        f_norm = tf_norm(fj, w)
        avg, osc = tf_average_split(fj)
        osc_norm = tf_norm(osc, w)
        phi = ref_nqp_primitive(osc, freqs)
        g_new = (g + avg).prune()
        tail = lambda j: math.factorial(j + 1)
        f_next = osc + ref_lie_sum(phi, osc, max_order, w, tail) * -1.0
        bracket_g = ref_poisson_bracket(phi, g_new)
        if bracket_g.coeffs:
            f_next = f_next + ref_lie_sum(phi, bracket_g, max_order, w, tail)
        f_next = f_next + (ref_lie_sum(phi, osc, max_order, w, math.factorial) - osc)
        fj = f_next.prune(1e-300)
        rows.append((f_norm, osc_norm,
                     tf_norm(tf_average_split(fj)[1], w) / osc_norm))
        g = g_new
    return g, fj, rows


def ref_secular_build(spec, eps0, alpha_minus, alpha_plus, delta, grid_shape,
                      fourier_cutoff, n_phi):
    """build_secular_perturbation's series with the perturbation evaluated at
    every gamma sample of the full (Gcal, gamma, y, x) mesh."""
    from perilib.kepler import xi_prime_array
    from perilib.potentials import DEFAULT_QUAD, f_eps_minus_one_grid

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
            pert = pert - c * f_eps_minus_one_grid(es, t, DEFAULT_QUAD)
        return m0**2 / r * pert

    return tf_build(fun, box, grid_shape, n_angles=1,
                    fourier_cutoff=fourier_cutoff, n_phi=n_phi)


def assert_series_close(got, expect, rtol):
    assert set(got.coeffs) == set(expect.coeffs)
    assert (got.fourier_cutoff, got.pq_degree) == (expect.fourier_cutoff, expect.pq_degree)
    scale = max(expect.sup(), 1e-300)
    for key, arr in expect.coeffs.items():
        assert np.max(np.abs(got.coeffs[key] - arr)) <= rtol * scale, key


def rand_pq_series(rng, cutoff=2, pq_degree=2, keep=0.7):
    """Random series with one (p, q) pair: low-degree polynomial
    coefficients on a random subset of the keys up to pq_degree."""
    f = TFSeries(1, 1, cutoff, pq_degree, BOX, SHAPE)
    II, YY, XX = np.meshgrid(*f.grids(), indexing="ij")
    for k in range(-cutoff, cutoff + 1):
        for h in range(pq_degree + 1):
            for j in range(pq_degree + 1 - h):
                if rng.uniform() < keep:
                    a = rng.normal(size=4) + 1j * rng.normal(size=4)
                    f.coeffs[((k,), (h,), (j,))] = (
                        a[0] + a[1] * II + a[2] * YY * XX + a[3] * XX**2
                    ) / (1 + k * k)
    return f


def build(fun, cutoff=4):
    return tf_build(fun, BOX, SHAPE, n_angles=1, fourier_cutoff=cutoff)


def rand_series(rng, cutoff=2, scale=1.0):
    """Band-limited random series with low-degree polynomial coefficients
    (products of such series stay inside the grid's polynomial space)."""
    f = TFSeries(1, 0, cutoff, 0, BOX, SHAPE)
    grids = f.grids()
    II, YY, XX = np.meshgrid(*grids, indexing="ij")
    for k in range(-cutoff, cutoff + 1):
        a, b, c = rng.normal(size=3)
        coef = scale * (a + b * (II - 1.0) + c * (YY - 1.5) * (XX - 1.0) / 4) / (
            1 + k * k
        )
        f.coeffs[((k,), (), ())] = coef * (1.0 + 0.3j * np.sign(k))
    # make it real: coeff(-k) = conj(coeff(k))
    for k in range(1, cutoff + 1):
        f.coeffs[((-k,), (), ())] = np.conj(f.coeffs[((k,), (), ())])
    return f


class TestBuild:
    def test_constant(self):
        f = build(lambda I, p, y, x: np.ones_like(I))
        assert set(f.coeffs) == {((0,), (), ())}
        np.testing.assert_allclose(f.coeffs[((0,), (), ())], 1.0, atol=1e-14)

    def test_cos_gamma_modes(self):
        f = build(lambda I, p, y, x: np.cos(p) + 0 * I)
        keys = set(f.coeffs)
        assert keys == {((1,), (), ()), ((-1,), (), ())}
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

    def test_pq_average_rule(self):
        # with monomials, the average keeps k = 0 AND h = j only
        f = TFSeries(1, 1, 2, 2, BOX, SHAPE)
        ones = np.ones(SHAPE, complex)
        f.coeffs[((0,), (1,), (1,))] = ones  # action-like: average
        f.coeffs[((0,), (2,), (0,))] = ones  # k=0 but h != j: oscillatory
        f.coeffs[((1,), (1,), (1,))] = ones  # k != 0: oscillatory
        avg, osc = tf_average_split(f)
        assert set(avg.coeffs) == {((0,), (1,), (1,))}
        assert set(osc.coeffs) == {((0,), (2,), (0,)), ((1,), (1,), (1,))}


class TestNorm:
    def test_single_mode_weighting(self):
        f = TFSeries(1, 0, 1, 0, BOX, SHAPE)
        f.coeffs[((1,), (), ())] = 0.5 * np.ones(SHAPE, complex)
        w = NormWeights(s=0.7)
        assert abs(tf_norm(f, w) - 0.5 * np.exp(0.7)) < 1e-14

    def test_zero_series(self):
        f = TFSeries(1, 0, 2, 0, BOX, SHAPE)
        assert tf_norm(f) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        w = NormWeights(s=0.4, delta=0.8)
        for _ in range(20):
            f = rand_series(rng)
            g = rand_series(rng)
            assert tf_norm(f + g, w) <= tf_norm(f, w) + tf_norm(g, w) + 1e-12

    def test_complexified_sup_dominates_real_sup(self):
        rng = np.random.default_rng(3)
        f = rand_series(rng)
        w = NormWeights(rho=0.05, s=0.3, delta=1.0, r=0.05, xi=0.05)
        assert tf_sup_complexified(f, w) >= tf_norm(f, w) * 0.99


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
        f = rand_series(rng, cutoff=1)
        g = rand_series(rng, cutoff=1)
        h = rand_series(rng, cutoff=1)
        K = 6
        t1 = poisson_bracket(f, poisson_bracket(g, h, K), K)
        t2 = poisson_bracket(g, poisson_bracket(h, f, K), K)
        t3 = poisson_bracket(h, poisson_bracket(f, g, K), K)
        total = t1 + t2 + t3
        scale = max(tf_norm(t1), tf_norm(t2), tf_norm(t3), 1.0)
        assert tf_norm(total) / scale < 1e-8

    def test_pq_pair(self):
        # {p, q} = 1 on a monomial pair
        f = TFSeries(1, 1, 1, 2, BOX, SHAPE)
        f.coeffs[((0,), (1,), (0,))] = np.ones(SHAPE, complex)  # p
        g = TFSeries(1, 1, 1, 2, BOX, SHAPE)
        g.coeffs[((0,), (0,), (1,))] = np.ones(SHAPE, complex)  # q
        br = poisson_bracket(f, g)
        assert set(br.coeffs) == {((0,), (0,), (0,))}
        np.testing.assert_allclose(br.coeffs[((0,), (0,), (0,))], 1.0, atol=1e-12)


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
        phi = nqp_primitive(f, freqs, basepoint=0.0)
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
        phi = nqp_primitive(f, freqs, basepoint=0.0)
        res = homological_residual(phi, f, freqs)
        assert res.sup() < 1e-10

    @pytest.mark.parametrize("basepoint", [None, "interior node", 1.234])
    def test_matches_per_node_loop(self, basepoint):
        rng = np.random.default_rng(19)
        _, osc = tf_average_split(rand_series(rng, cutoff=3))
        freqs = FrequencyData.tabulate(
            BOX, SHAPE, lambda I, y: 2.0 + 0.1 * y, omega_I=[lambda I, y: 0.5 + 0.2 * I]
        )
        xs = ch.nodes(SHAPE[-1], *BOX[-1])
        b = xs[7] if basepoint == "interior node" else basepoint
        got = nqp_primitive(osc, freqs, basepoint=b)
        assert_series_close(got, ref_nqp_primitive(osc, freqs, basepoint=b), 1e-13)
        if basepoint == "interior node":
            for arr in got.coeffs.values():
                assert np.all(arr[..., 7] == 0.0)

    def test_eigenvalue_structure(self):
        freqs = FrequencyData.tabulate(
            BOX,
            SHAPE,
            lambda I, y: 1.0 + 0 * y,
            omega_I=[lambda I, y: 2.0 + 0 * y],
            omega_J=[lambda I, y: 3.0 + 0 * y],
        )
        lam = mode_eigenvalue(freqs, (2,), (1,), (0,))
        np.testing.assert_allclose(lam, 3.0 + 4.0j)


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
        K = 8  # enlarged cutoff: the identity needs the O(phi^2) harmonics
        phi = rand_series(rng, scale=0.02)
        # dI = e^L(I) - I with L(I) = {phi, I} = -d_angle(phi)
        LI = d_angle(phi) * -1.0
        dI, term = LI.shell(), LI
        for k in range(1, 8):
            dI = dI + term * (1.0 / _math.factorial(k))
            term = poisson_bracket(phi, term, K)
        # dgam likewise from L(gamma) = {phi, gamma} = d_I(phi)
        Lgam = d_I(phi)
        dgam, term = Lgam.shell(), Lgam
        for k in range(1, 8):
            dgam = dgam + term * (1.0 / _math.factorial(k))
            term = poisson_bracket(phi, term, K)
        # {I + dI, gamma + dgam} - 1 assembled by parts:
        # {I, dgam} = d_angle(dgam); {dI, gamma} = d_I(dI); plus {dI, dgam}
        br = d_angle(dgam) + d_I(dI) + poisson_bracket(dI, dgam, K)
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
        pr = tf_product(f, g, fourier_cutoff=4)
        # cos^2 = 1/2 + cos(2 gamma)/2
        expect = build(lambda I, p, y, x: 0.5 + 0.5 * np.cos(2 * p) + 0 * I)
        assert tf_norm(pr - expect) < 1e-12

    def test_truncation_respected(self):
        f = build(lambda I, p, y, x: np.cos(4 * p) + 0 * I, cutoff=4)
        pr = tf_product(f, f, fourier_cutoff=4)
        assert all(abs(k[0]) <= 4 for k, _, _ in pr.coeffs)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cutoffs", [(None, None), (1, None), (3, 1), (0, 0)])
    def test_stacked_matches_per_coefficient_loop(self, seed, cutoffs):
        rng = np.random.default_rng(100 + seed)
        f = rand_pq_series(rng)
        g = rand_pq_series(rng, cutoff=1, pq_degree=3)
        assert_series_close(tf_product(f, g, *cutoffs), ref_tf_product(f, g, *cutoffs), 1e-13)

    def test_angle_only_matches_per_coefficient_loop(self):
        rng = np.random.default_rng(110)
        f, g = rand_series(rng), rand_series(rng, cutoff=3)
        assert_series_close(tf_product(f, g), ref_tf_product(f, g), 1e-13)

    def test_empty_operand(self):
        rng = np.random.default_rng(111)
        f = rand_pq_series(rng)
        empty = TFSeries(1, 1, 5, 4, BOX, SHAPE)
        for a, b in ((f, empty), (empty, f), (empty, empty)):
            pr = tf_product(a, b)
            assert not pr.coeffs
            assert (pr.fourier_cutoff, pr.pq_degree) == (5, 4)
        assert tf_product(f, empty, 0, 0).fourier_cutoff == 0


class TestBracketEngine:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_with_monomials(self, seed):
        rng = np.random.default_rng(120 + seed)
        f = rand_pq_series(rng)
        g = rand_pq_series(rng, cutoff=1, pq_degree=3)
        for cutoffs in ((None, None), (2, 2)):
            assert_series_close(poisson_bracket(f, g, *cutoffs),
                                ref_poisson_bracket(f, g, *cutoffs), 1e-12)

    def test_matches_reference_angles_only(self):
        rng = np.random.default_rng(123)
        f, g = rand_series(rng), rand_series(rng)
        assert_series_close(poisson_bracket(f, g), ref_poisson_bracket(f, g), 1e-12)

    def test_empty_bracket_keeps_requested_cutoffs(self):
        # f at cutoff 2 has no coefficients, g at cutoff 6 has some: the
        # empty bracket reports the cutoffs a non-empty one would
        f = TFSeries(1, 1, 2, 2, BOX, SHAPE)
        g = TFSeries(1, 1, 6, 4, BOX, SHAPE)
        g.coeffs[((1,), (1,), (0,))] = np.ones(SHAPE, complex)
        br = poisson_bracket(f, g)
        assert not br.coeffs
        assert (br.fourier_cutoff, br.pq_degree) == (6, 4)
        br = poisson_bracket(f, g, fourier_cutoff=0, pq_degree=0)
        assert (br.fourier_cutoff, br.pq_degree) == (0, 0)
        # the same cutoffs as a non-empty bracket
        rng = np.random.default_rng(124)
        a = rand_pq_series(rng, cutoff=2, pq_degree=2, keep=1.0)
        full = poisson_bracket(a, g, fourier_cutoff=0, pq_degree=0)
        assert full.coeffs
        assert (full.fourier_cutoff, full.pq_degree) == (0, 0)
        full = poisson_bracket(a, g)
        assert full.coeffs
        assert (full.fourier_cutoff, full.pq_degree) == (6, 4)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        from perilib.normalform import load_series, save_series

        rng = np.random.default_rng(13)
        f = rand_series(rng)
        p = tmp_path / "series.json"
        save_series(f, str(p))
        g = load_series(str(p))
        assert g.same_shape(f)
        assert tf_norm(g - f) == 0.0  # repr round-trip is exact

    def test_dict_schema(self):
        rng = np.random.default_rng(14)
        f = rand_series(rng, cutoff=1)
        d = series_to_dict(f)
        assert {"n_angles", "m_pq", "fourier_cutoff", "pq_degree", "box",
                "grid_shape", "coeffs"} <= set(d)
        g = series_from_dict(d)
        assert tf_norm(g - f) == 0.0


class TestSecularBuild:
    def test_desk_scale_roundtrip(self):
        # resampling oracle: the built band-limited series reproduces the
        # pointwise perturbation away from the grid
        from perilib.coords import ActionAngleState, derive_mass_params
        from perilib.hamiltonians import HamiltonianSpec, aa_perturbation
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
            direct = aa_perturbation(spec, ActionAngleState(Gc, gam, y, x))
            built = series.evaluate([Gc], [gam], y, x)
            worst = max(worst, abs(direct - built) / abs(direct))
        assert worst < 1e-8

    @pytest.mark.parametrize("n_phi", [64, 18, 19])
    def test_folded_build_matches_full_mesh(self, n_phi, monkeypatch):
        # 64 and 18 (= 2 mod 4) fold by cos^2's period pi, odd 19 by evenness
        import perilib.potentials as pot
        from perilib.coords import derive_mass_params
        from perilib.hamiltonians import HamiltonianSpec
        from perilib.normalform import build_secular_perturbation

        spec = HamiltonianSpec(2, 1.0, 1.0, derive_mass_params(1.0, 0.02, "m0centric"))
        args = (spec, 0.45, 1000.0, 16000.0, 0.005)
        grid_shape, cutoff = (4, 4, 6), 8
        expect = ref_secular_build(*args, grid_shape, cutoff, n_phi)

        shapes = []
        real_grid = pot.f_eps_minus_one_grid

        def counting_grid(eps, t, quad=pot.DEFAULT_QUAD):
            shapes.append(np.broadcast_shapes(np.shape(eps), np.shape(t)))
            return real_grid(eps, t, quad)

        monkeypatch.setattr(pot, "f_eps_minus_one_grid", counting_grid)
        got, _ = build_secular_perturbation(
            *args, grid_shape=grid_shape, fourier_cutoff=cutoff, n_phi=n_phi
        )
        n_fold = (n_phi // 2 if n_phi % 2 == 0 else n_phi) // 2 + 1
        assert shapes == [(4, n_fold, 4, 6)] * len(spec.terms())
        assert_series_close(got, expect, 1e-14)


class TestNormalFormSteps:
    def make_toy(self, rng, strength=0.01):
        """h = y^2/2 on the box (omega_y = y), f small and band-limited."""
        f = TFSeries(1, 0, 4, 0, BOX, SHAPE)
        grids = f.grids()
        II, YY, XX = np.meshgrid(*grids, indexing="ij")
        f.coeffs[((0,), (), ())] = strength * (1 + 0.2 * II + 0.1 * YY) + 0j
        c1 = strength * (0.5 + 0.1 * np.sin(XX) + 0.05 * II) * (1 + 0.2j)
        f.coeffs[((1,), (), ())] = c1
        f.coeffs[((-1,), (), ())] = np.conj(c1)
        c2 = strength * 0.2 * np.cos(XX) * (1 - 0.1j)
        f.coeffs[((2,), (), ())] = c2
        f.coeffs[((-2,), (), ())] = np.conj(c2)
        freqs = FrequencyData.tabulate(
            BOX, SHAPE, lambda I, y: y, omega_I=[lambda I, y: 0.3 + 0 * y]
        )
        return f, freqs

    def test_normal_class_input_short_circuits(self):
        rng = np.random.default_rng(15)
        f = TFSeries(1, 0, 2, 0, BOX, SHAPE)
        f.coeffs[((0,), (), ())] = np.ones(SHAPE, complex)
        freqs = FrequencyData.tabulate(BOX, SHAPE, lambda I, y: y)
        result = normal_form_steps(f, freqs, N=3)
        assert len(result.steps) == 1
        assert tf_norm(result.f_star) == 0.0
        assert abs(tf_norm(result.g_star) - 1.0) < 1e-12

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
        rng = np.random.default_rng(20)
        f, freqs = self.make_toy(rng)
        result = normal_form_steps(f, freqs, N=3)
        g_ref, f_ref, rows = ref_normal_form_steps(f, freqs, N=3)
        for step, (f_norm, osc_norm, contraction) in zip(result.steps, rows):
            for got, expect in ((step.f_norm, f_norm), (step.osc_norm, osc_norm),
                                (step.contraction, contraction)):
                assert abs(got - expect) <= 1e-12 * expect
        assert_series_close(result.g_star, g_ref, 1e-12)
        assert_series_close(result.f_star, f_ref, 1e-12)

    def test_records_lie_report(self):
        rng = np.random.default_rng(21)
        f, freqs = self.make_toy(rng)
        step = normal_form_steps(f, freqs, N=1).steps[0]
        _, osc = tf_average_split(f)
        _, rep = lie_transform(osc, nqp_primitive(osc, freqs), max_order=14)
        assert step.lie_orders == rep.orders >= 2
        assert step.lie_ratio == pytest.approx(rep.ratio, rel=1e-12)
        assert 0 < step.lie_ratio < 1
        assert step.lie_tail_bound == pytest.approx(rep.tail_bound, rel=1e-10)

    def test_lie_ratio_ignores_roundoff_terms(self):
        # the step-0 chain of the criterion-8 series on a coarser grid: term
        # norms 1, 1e-6, 8e-13, 2e-16, 4e-17 of the first, the last two
        # roundoff.  A 1e-14 change of the input must move the reported
        # ratio and tail bound by well under 1%
        from perilib.coords import derive_mass_params
        from perilib.hamiltonians import HamiltonianSpec
        from perilib.normalform import build_secular_perturbation

        spec = HamiltonianSpec(2, 1.0, 1.0, derive_mass_params(1.0, 0.02, "m0centric"))
        series, freqs = build_secular_perturbation(
            spec, 0.45, 1000.0, 16000.0, 0.005, grid_shape=(16, 8, 20), fourier_cutoff=8
        )
        _, osc = tf_average_split(series)
        reports = []
        for scale in (1.0, 1.0 + 1e-14):
            f = osc * scale
            reports.append(lie_transform(f, nqp_primitive(f, freqs), max_order=14)[1])
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

    def test_gamma_dependence_fades(self):
        rng = np.random.default_rng(18)
        f, freqs = self.make_toy(rng)
        result = normal_form_steps(f, freqs, N=2)
        _, osc0 = tf_average_split(f)
        _, osc2 = tf_average_split(result.f_star)
        assert tf_norm(osc2) <= 1e-3 * tf_norm(osc0)
