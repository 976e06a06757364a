import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.fft import dct

from perilib import chebyshev as ch


# ---------------- references on scipy's DCT-I, one transform per axis ----------------


def ref_vals_to_coeffs(v, axis):
    """Chebyshev coefficients of values at increasing Lobatto nodes, by
    scipy's DCT-I with the end modes halved."""
    n = v.shape[axis]
    if n == 1:
        return v.copy()
    c = dct(np.flip(v, axis=axis), type=1, axis=axis) / (n - 1)
    ends = [slice(None)] * v.ndim
    ends[axis] = [0, n - 1]
    c[tuple(ends)] *= 0.5
    return c


def ref_coeffs_to_vals(c, axis):
    """Values at increasing Lobatto nodes of Chebyshev coefficients, by
    scipy's DCT-I with the end modes doubled."""
    n = c.shape[axis]
    if n == 1:
        return c.copy()
    cc = c.copy()
    ends = [slice(None)] * c.ndim
    ends[axis] = [0, n - 1]
    cc[tuple(ends)] *= 2
    return np.flip(0.5 * dct(cc, type=1, axis=axis), axis=axis)


def ref_refine(v):
    """Resampling by the DCT-I round trip on every axis, coefficient padding."""
    out = v
    for ax in range(v.ndim):
        n = out.shape[ax]
        if n == 1:
            continue
        m = int(np.ceil(1.5 * n))
        c = ref_vals_to_coeffs(out, ax)
        pad = list(c.shape)
        pad[ax] = m - n
        c = np.concatenate([c, np.zeros(pad, dtype=c.dtype)], axis=ax)
        out = ref_coeffs_to_vals(c, ax)
    return out


def ref_coarsen(v, shape):
    """Projection by the DCT-I round trip on every axis, coefficient truncation."""
    out = v
    for ax in range(v.ndim):
        if out.shape[ax] == shape[ax]:
            continue
        c = ref_vals_to_coeffs(out, ax)
        sl = [slice(None)] * out.ndim
        sl[ax] = slice(0, shape[ax])
        out = ref_coeffs_to_vals(c[tuple(sl)], ax)
    return out


def complex_arrays(shape):
    floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return st.tuples(hnp.arrays(float, shape, elements=floats),
                     hnp.arrays(float, shape, elements=floats)).map(lambda p: p[0] + 1j * p[1])


grid_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12)


def close(a, b, scale):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= 1e-13 * max(scale, 1e-300)


def random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestResampling:
    @settings(max_examples=150, deadline=None)
    @given(grid_shapes.flatmap(complex_arrays))
    # a stack at a libration-regime grid, every axis refined
    @example(random_complex((2, 24, 24, 48), 23))
    def test_refine_matches_dct(self, v):
        close(ch.refine(v), ref_refine(v), np.max(np.abs(v), initial=0.0))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_coarsen_matches_dct(self, data):
        # m < n on every axis that shrinks; length-1 targets included
        shape = data.draw(grid_shapes)
        target = tuple(data.draw(st.integers(1, n)) for n in shape)
        v = data.draw(complex_arrays(shape))
        close(ch.coarsen(v, target), ref_coarsen(v, target), np.max(np.abs(v), initial=0.0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), grid_shapes, st.data())
    def test_stack_axis_passes_through(self, n_stack, shape, data):
        v = data.draw(complex_arrays((n_stack,) + shape))
        fine = ch.refine(v, lead=1)
        scale = np.max(np.abs(v), initial=0.0)
        for s in range(n_stack):
            close(fine[s], ref_refine(v[s]), scale)
        coarse = ch.coarsen(fine, shape)
        for s in range(n_stack):
            close(coarse[s], ref_coarsen(fine[s], shape), scale)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 24), st.lists(st.integers(1, 5), min_size=1, max_size=24),
           st.lists(st.integers(4, 32), min_size=3, max_size=3), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_stack_refines_as_its_row_blocks(self, n_stack, blocks, shape, cplx, seed):
        # the bracket refines an operand's stacks one at a time where it once
        # refined them in one call: on the three grid axes of a series the
        # rows must not depend on the blocking.  (A one-axis grid differs: a
        # single row along the last axis is a matrix-vector product.)  At
        # most 2**18 entries, so a large grid gets a shorter stack
        n_stack = max(1, min(n_stack, 2**18 // int(np.prod(shape))))
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n_stack, *shape))
        if cplx:
            v = v + 1j * rng.normal(size=v.shape)
        cuts, at = [], 0
        for size in itertools.cycle(blocks):
            if at >= n_stack:
                break
            cuts.append(slice(at, at + size))
            at += size
        whole = ch.refine(v, lead=1)
        parts = np.concatenate([ch.refine(v[c], lead=1) for c in cuts])
        assert np.array_equal(whole.view(float), parts.view(float))

    def test_axis_order(self, monkeypatch):
        # refine resamples the last axis first, on the coarse stack, then the
        # others from the last to the first; coarsen projects from the first
        # axis to the last, so the last one runs on the coarsest array.  A
        # length-1 axis takes no product
        calls = []
        apply = ch._apply

        def recorded(M, v, axis):
            calls.append((axis, M.shape, v.shape))
            return apply(M, v, axis)

        monkeypatch.setattr(ch, "_apply", recorded)
        v = random_complex((3, 16, 1, 20), 5)
        fine = ch.refine(v, lead=1)
        assert calls == [(3, (30, 20), (3, 16, 1, 20)), (1, (24, 16), (3, 16, 1, 30))]
        calls.clear()
        ch.coarsen(fine, (16, 1, 20))
        assert calls == [(1, (16, 24), (3, 24, 1, 30)), (3, (20, 30), (3, 16, 1, 30))]

    def test_length_one_axis_untouched(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(5, 1, 7)) + 1j * rng.normal(size=(5, 1, 7))
        fine = ch.refine(v)
        assert fine.shape == (8, 1, 11)
        close(fine, ref_refine(v), np.max(np.abs(v)))

    def test_unchanged_shape_returns_the_input(self):
        # documented: no copy when no axis changes size, so a caller that
        # writes into the result writes into its input
        v = np.arange(12.0).reshape(3, 4)
        assert ch.coarsen(v, v.shape) is v
        assert ch.refine(v, lead=2) is v
        ones = np.ones((1, 1))
        assert ch.refine(ones) is ones

    @settings(max_examples=100, deadline=None)
    @given(grid_shapes.flatmap(complex_arrays))
    def test_coarsen_inverts_refine(self, v):
        close(ch.coarsen(ch.refine(v), v.shape), v, np.max(np.abs(v), initial=0.0))

    def test_polynomial_resampled_exactly(self):
        # a degree-(n-1) polynomial sampled on n nodes is reproduced on m nodes
        n, m = 9, 14
        p = lambda t: 1 - 2 * t + 0.5 * t**3 - 0.25 * t**8
        fine = ch.resample_matrix(n, m) @ p(ch.nodes(n))
        np.testing.assert_allclose(fine, p(ch.nodes(m)), atol=1e-13)


class TestCachedOperators:
    def test_transforms_match_scipy_dct(self):
        # the cosine matrices against scipy's DCT-I, column by column: at
        # most 1.1e-15 apart for n = 1..129 (measured), here bounded by 2e-15
        for n in range(1, 130):
            eye = np.eye(n)
            for got, ref in ((ch.vals_to_coeffs(eye, 0), ref_vals_to_coeffs(eye, 0)),
                             (ch.coeffs_to_vals(eye, 0), ref_coeffs_to_vals(eye, 0))):
                assert np.max(np.abs(got - ref)) <= 2e-15, n

    def test_resample_matrix_read_only_and_shared(self):
        M = ch.resample_matrix(16, 24)
        assert M.shape == (24, 16)
        assert ch.resample_matrix(16, 24) is M
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
        assert not M.flags.writeable

    def test_diff_matrix_read_only_and_shared(self):
        D = ch.diff_matrix(12, 0.0, 2.0)
        assert ch.diff_matrix(12, 0.0, 2.0) is D
        with pytest.raises(ValueError):
            D *= 2.0

    def test_refined_diff_matrix_read_only_and_shared(self):
        # R D, cached per (n, lo, hi): the refinement of the derivative, on
        # fine_size(n) nodes, and zero on an axis of one node
        RD = ch.refined_diff_matrix(12, 0.0, 2.0)
        assert RD.shape == (ch.fine_size(12), 12) == (18, 12)
        assert ch.refined_diff_matrix(12, 0.0, 2.0) is RD
        with pytest.raises(ValueError):
            RD *= 2.0
        np.testing.assert_array_equal(RD, ch.resample_matrix(12, 18) @ ch.diff_matrix(12, 0.0, 2.0))
        p = lambda x: x**3 - 2 * x**11
        dp = lambda x: 3 * x**2 - 22 * x**10
        np.testing.assert_allclose(RD @ p(ch.nodes(12, 0.0, 2.0)), dp(ch.nodes(18, 0.0, 2.0)),
                                   atol=1e-11 * np.max(np.abs(dp(ch.nodes(18, 0.0, 2.0)))))
        assert ch.fine_size(1) == 1 and ch.fine_size(7) == 11
        np.testing.assert_array_equal(ch.refined_diff_matrix(1, 0.0, 2.0), [[0.0]])

    def test_refine_axis(self):
        # one axis at a time, from the last, gives refine's bits; a length-1
        # axis comes back as it is, its derivative as zeros
        rng = np.random.default_rng(3)
        v = rng.normal(size=(2, 5, 1, 7)) + 1j * rng.normal(size=(2, 5, 1, 7))
        fine = v
        for axis in (3, 2, 1):
            fine = ch.refine_axis(fine, axis)
        assert np.array_equal(fine, ch.refine(v, lead=1))
        assert ch.refine_axis(v, 2) is v
        assert not np.any(ch.refine_axis(v, 2, (0.0, 1.0)))
        d = ch.refine_axis(v, 3, (0.0, 2.0))
        assert d.shape == (2, 5, 1, 11)
        np.testing.assert_allclose(d, ch.refine_axis(ch.differentiate(v, 3, 0.0, 2.0), 3),
                                   atol=1e-13 * np.max(np.abs(d)))

    def test_results_do_not_alias_cache(self):
        # outputs are fresh arrays: writing into one leaves the cache intact
        v = np.ones((6, 6), complex)
        before = ch.resample_matrix(6, 9).copy()
        out = ch.refine(v)
        out[...] = 7.0
        np.testing.assert_array_equal(ch.resample_matrix(6, 9), before)
        np.testing.assert_allclose(ch.refine(v), 1.0, atol=1e-14)

    def test_differentiate_stacked(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(3, 7, 9))
        d = ch.differentiate(v, 2, -1.0, 3.0)
        for s in range(3):
            np.testing.assert_allclose(d[s], ch.differentiate(v[s], 1, -1.0, 3.0), atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1, 2, 3])
    def test_differentiate_each_axis_complex(self, axis):
        # along every axis, first and last included, each line of a complex
        # array is differentiated on its own by the matrix
        rng = np.random.default_rng(3)
        v = rng.normal(size=(3, 5, 4, 6)) + 1j * rng.normal(size=(3, 5, 4, 6))
        D = ch.diff_matrix(v.shape[axis], 0.5, 2.0)
        expect = np.moveaxis(np.einsum("ij,j...->i...", D, np.moveaxis(v, axis, 0)), 0, axis)
        got = ch.differentiate(v, axis, 0.5, 2.0)
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, expect, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 64), lo=st.floats(-2.0, 2.0), width=st.floats(0.25, 4.0))
    # one node sits at the midpoint, not at lo: S integrates over the lower
    # half there, where a difference against node 0 would give zero
    @example(n=1, lo=0.0, width=1.0)
    def test_integration_matrix_integrates_each_polynomial(self, n, lo, width):
        # S applied to T_j on the nodes is the exact antiderivative of T_j
        # from lo, for every j < n; node 0's row is zero when it sits at lo
        from numpy.polynomial import chebyshev as npc

        hi = lo + width
        xs = ch.nodes(n, lo, hi)
        S = ch.integration_matrix(n, lo, hi)
        T = np.eye(n)
        to_t = lambda x: 2 * (x - lo) / width - 1
        V = npc.chebval(-np.cos(np.pi * np.arange(n) / max(n - 1, 1)), T)
        F = npc.chebint(T)
        expect = 0.5 * width * (npc.chebval(to_t(xs), F) - npc.chebval(-1.0, F)[:, None])
        np.testing.assert_allclose(V @ S.T, expect, rtol=0, atol=1e-14 * width)
        if n > 1:
            assert not np.any(S[0])
