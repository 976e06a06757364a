"""Chebyshev tensor-grid utilities: nodes, transforms, spectral differentiation
and integration, Clenshaw evaluation and Clenshaw-Curtis quadrature.

All grids are Chebyshev-Gauss-Lobatto points stored in increasing order.
Transforms are the DCT-I as a matrix, T_k(t_j), and its inverse, exact for
polynomials up to the grid degree.  They and the other fixed linear maps
(resampling, differentiation, integration from the lower edge, and
refinement after differentiation as one map) are built once per size and
then applied as small read-only matrices.
"""

import functools
import math

import numpy as np


def nodes(n, lo=-1.0, hi=1.0):
    """n Gauss-Lobatto nodes on [lo, hi], increasing."""
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    t = -np.cos(np.pi * np.arange(n) / (n - 1))
    return lo + (hi - lo) * (t + 1) / 2


def _frozen(a):
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=128)
def diff_matrix(n, lo, hi):
    """Spectral differentiation matrix on increasing Lobatto nodes over [lo, hi]
    (cached and read-only)."""
    if n == 1:
        return _frozen(np.zeros((1, 1)))
    x = np.cos(np.pi * np.arange(n) / (n - 1))
    c = np.hstack([2.0, np.ones(n - 2), 2.0]) * (-1.0) ** np.arange(n)
    X = np.tile(x, (n, 1)).T
    D = np.outer(c, 1 / c) / (X - X.T + np.eye(n))
    D -= np.diag(D.sum(axis=1))
    return _frozen(D[::-1, ::-1] * (2.0 / (hi - lo)))


def _apply(M, v, axis):
    """M (m, n) applied along one axis of v, the other axes kept in place:
    a fresh C-ordered array.  Along the last axis this is one product over
    all rows; along any other, one real product per leading index, complex
    v going through its float view (real and imaginary parts side by side),
    so no axis is moved and nothing is transposed."""
    v = np.ascontiguousarray(v)
    m, n = M.shape
    shape = v.shape[:axis] + (m,) + v.shape[axis + 1:]
    if axis == v.ndim - 1:
        return (v.reshape(-1, n) @ M.T).reshape(shape)  # one product over all rows
    cplx = np.iscomplexobj(v)
    pre = math.prod(v.shape[:axis])
    post = math.prod(v.shape[axis + 1:]) * (2 if cplx else 1)
    # one product per leading index
    out = np.matmul(M, (v.view(float) if cplx else v).reshape(pre, n, post))
    return (out.view(complex) if cplx else out).reshape(shape)


@functools.lru_cache(maxsize=128)
def _dct_matrices(n):
    """(T, V) for n increasing Lobatto nodes t_j (cached and read-only):
    T[j, k] = T_k(t_j) = (-1)^k cos(pi k j / (n - 1)) takes Chebyshev
    coefficients to values, and V = T^-1 by discrete orthogonality,
    2 / (n - 1) times T's transpose with the end nodes and end modes
    halved.  The angle k j is reduced exactly, mod 2 (n - 1), before the
    cosine.  One node gives the 1 x 1 identity twice."""
    if n == 1:
        one = _frozen(np.ones((1, 1)))
        return one, one
    k = np.arange(n)
    T = np.cos(np.pi / (n - 1) * (np.outer(k, k) % (2 * (n - 1)))) * (-1.0) ** k
    h = np.ones(n)
    h[[0, -1]] = 0.5
    return _frozen(T), _frozen(T.T * np.outer(h, h) * (2.0 / (n - 1)))


def vals_to_coeffs(v, axis):
    """Chebyshev coefficients of values sampled at increasing Lobatto nodes."""
    v = np.asarray(v)
    return _apply(_dct_matrices(v.shape[axis])[1], v, axis)


def coeffs_to_vals(c, axis):
    """Inverse of vals_to_coeffs."""
    c = np.asarray(c)
    return _apply(_dct_matrices(c.shape[axis])[0], c, axis)


def differentiate(v, axis, lo, hi):
    """Spectral derivative of grid values along one axis."""
    return _apply(diff_matrix(v.shape[axis], lo, hi), v, axis)


def fine_size(n):
    """Nodes of an n-node axis once refined: ceil(1.5 n); an axis of one
    node stays one."""
    return n if n == 1 else math.ceil(1.5 * n)


def clenshaw(coeffs, axis, xs, lo, hi):
    """Evaluate a Chebyshev series along `axis` at arbitrary points xs.

    The evaluated axis is consumed; the result gets len(xs) entries appended
    as the LAST axis.
    """
    xs = np.atleast_1d(np.asarray(xs))
    t = 2.0 * (xs - lo) / (hi - lo) - 1.0
    cm = np.moveaxis(np.asarray(coeffs), axis, -1)
    n = cm.shape[-1]
    b1 = np.zeros(cm.shape[:-1] + t.shape, dtype=np.result_type(cm, t, float))
    b2 = np.zeros_like(b1)
    for k in range(n - 1, 0, -1):
        b1, b2 = cm[..., k, None] + 2 * t * b1 - b2, b1
    return cm[..., 0, None] + t * b1 - b2


@functools.lru_cache(maxsize=128)
def integration_matrix(n, lo, hi):
    """Spectral integration matrix S on increasing Lobatto nodes over [lo, hi]
    (cached and read-only): (S @ v)[c] is the integral of the interpolant of
    grid values v from lo to node c.  The antiderivative is evaluated at the
    nodes and at an appended lo by one Clenshaw sum, so node 0 (at lo when
    n > 1) has an exactly zero row; a one-node axis, its node at the
    midpoint, integrates over the lower half."""
    c = np.vstack([_dct_matrices(n)[1], np.zeros((2, n))])
    # the antiderivative's coefficients in t: C_k = (c_{k-1} - c_{k+1}) / (2k)
    # for k = 1..n, c_0 counted twice; C_0 cancels in the difference below
    c[0] *= 2.0
    k = np.arange(1, n + 1)[:, None]
    C = np.vstack([np.zeros((1, n)), (c[:n] - c[2:]) / (2 * k)])
    E = clenshaw(C, 0, np.append(nodes(n, lo, hi), lo), lo, hi)
    return _frozen((E[:, :n] - E[:, n:]).T * (0.5 * (hi - lo)))


def clenshaw_curtis(n, lo, hi):
    """Clenshaw-Curtis nodes and weights on [lo, hi] (n Lobatto points)."""
    if n == 1:
        return np.array([0.5 * (lo + hi)]), np.array([hi - lo])
    N = n - 1
    k = np.arange(n)
    x = -np.cos(np.pi * k / N)
    w = np.zeros(n)
    v = np.ones(N - 1)
    for m in range(1, N // 2 + 1):
        fac = 2.0 if 2 * m < N else 1.0
        v -= fac * np.cos(2 * m * np.pi * k[1:-1] / N) / (4 * m * m - 1)
    w[1:-1] = 2.0 * v / N
    w[0] = w[-1] = 1.0 / (N * N - 1 + (N % 2))
    return lo + (hi - lo) * (x + 1) / 2, w * (hi - lo) / 2


@functools.lru_cache(maxsize=None)
def resample_matrix(n, m):
    """(m, n) matrix taking values on n Lobatto nodes to values on m nodes:
    Chebyshev coefficients zero-padded (m > n) or truncated (m < n).  Cached
    and read-only."""
    k = min(n, m)
    return _frozen(_dct_matrices(m)[0][:, :k] @ _dct_matrices(n)[1][:k])


@functools.lru_cache(maxsize=128)
def refined_diff_matrix(n, lo, hi):
    """(fine_size(n), n) matrix R D taking values on n Lobatto nodes over
    [lo, hi] to their derivative on the refined nodes: the refinement R
    times diff_matrix.  Cached and read-only."""
    R = resample_matrix(n, fine_size(n))
    return _frozen(R @ diff_matrix(n, lo, hi))


def refine_axis(v, axis, interval=None):
    """v refined along one axis, to fine_size nodes: by the refinement R,
    or, given interval = (lo, hi), by refined_diff_matrix, which
    differentiates and refines in one product.  A length-1 axis is not
    refined (v itself comes back); its derivative is zero."""
    n = v.shape[axis]
    if interval is not None:
        return _apply(refined_diff_matrix(n, *interval), v, axis)
    return v if n == 1 else _apply(resample_matrix(n, fine_size(n)), v, axis)


def _resample(v, sizes):
    """Resample v along each (axis, m) of sizes in turn, to m Lobatto nodes;
    the axes not listed pass through."""
    for axis, m in sizes:
        n = v.shape[axis]
        if m != n:
            v = _apply(resample_matrix(n, m), v, axis)
    return v


def refine(v, lead=0):
    """Resample grid values onto a finer Lobatto grid of fine_size nodes an
    axis (coefficient padding); the first `lead` axes are a stack, and axes
    of length 1 stay as they are.  When all of them have length 1 the input
    array itself is returned, not a copy.

    The axes are refined from the last to the first.  Along the last axis a
    complex array meets the real matrix in a complex product (numpy promotes
    the matrix), twice the real multiply-adds of the float-view products on
    the other axes, so that product runs on the coarse array."""
    v = np.asarray(v)
    sizes = [(axis, fine_size(n)) for axis, n in enumerate(v.shape[lead:], lead)]
    return _resample(v, reversed(sizes))


def coarsen(v, shape):
    """Project grid values back onto a coarser Lobatto grid by truncation;
    axes of v before the last len(shape) are a stack.  When no axis changes
    size the input array itself is returned, not a copy.  The axes are
    projected from the first to the last, so the last axis's complex
    product (see refine) runs on the coarsest array."""
    v = np.asarray(v)
    return _resample(v, enumerate(shape, v.ndim - len(shape)))
