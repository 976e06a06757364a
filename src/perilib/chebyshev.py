"""Chebyshev tensor-grid utilities: nodes, transforms, spectral differentiation,
Clenshaw evaluation and Clenshaw-Curtis quadrature.

All grids are Chebyshev-Gauss-Lobatto points stored in increasing order.
Transforms are DCT-I based and exact for polynomials up to the grid degree.
Fixed linear maps (resampling, differentiation) are built from them once per
size and then applied as small read-only matrices.
"""

import functools

import numpy as np


def nodes(n, lo=-1.0, hi=1.0):
    """n Gauss-Lobatto nodes on [lo, hi], increasing."""
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    t = -np.cos(np.pi * np.arange(n) / (n - 1))
    return lo + (hi - lo) * (t + 1) / 2


def vals_to_coeffs(v, axis):
    """Chebyshev coefficients of values sampled at increasing Lobatto nodes."""
    # imported here: scipy.fft costs about 0.2 s to import, which commands
    # without a normal form should not pay
    from scipy.fft import dct

    v = np.asarray(v)
    n = v.shape[axis]
    if n == 1:
        return v.copy()
    c = dct(np.flip(v, axis=axis), type=1, axis=axis) / (n - 1)
    sl = [slice(None)] * v.ndim
    sl[axis] = 0
    c[tuple(sl)] *= 0.5
    sl[axis] = n - 1
    c[tuple(sl)] *= 0.5
    return c


def coeffs_to_vals(c, axis):
    """Inverse of vals_to_coeffs."""
    from scipy.fft import dct

    c = np.asarray(c)
    n = c.shape[axis]
    if n == 1:
        return c.copy()
    cc = c.copy()
    sl = [slice(None)] * c.ndim
    sl[axis] = 0
    cc[tuple(sl)] *= 2
    sl[axis] = n - 1
    cc[tuple(sl)] *= 2
    return np.flip(0.5 * dct(cc, type=1, axis=axis), axis=axis)


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


def differentiate(v, axis, lo, hi):
    """Spectral derivative of grid values along one axis."""
    D = diff_matrix(v.shape[axis], lo, hi)
    vm = np.moveaxis(v, axis, 0)
    out = np.tensordot(D, vm, axes=(1, 0))
    return np.moveaxis(out, 0, axis)


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


def eval_matrix(n, xs, lo, hi):
    """Matrix E with (E @ v)[j] = interpolant of grid values v at xs[j]."""
    E = clenshaw(vals_to_coeffs(np.eye(n), 0), 0, xs, lo, hi)
    return E.T


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
    c = vals_to_coeffs(np.eye(n), 0)[:m]
    return _frozen(coeffs_to_vals(np.pad(c, ((0, m - len(c)), (0, 0))), 0))


def _resample(v, shape):
    """Resample the last len(shape) axes of v to the sizes in shape; leading
    (stack) axes pass through.  Each step contracts the first grid axis and
    appends the result last, so a full turn restores the axis order."""
    lead = v.ndim - len(shape)
    for m in shape:
        n = v.shape[lead]
        if m == n:
            v = np.moveaxis(v, lead, -1)
        else:
            v = np.tensordot(v, resample_matrix(n, m), axes=([lead], [1]))
    return v


def refine(v, factor=1.5, lead=0):
    """Resample grid values onto a finer Lobatto grid (coefficient padding);
    the first `lead` axes are a stack, and axes of length 1 stay as they are."""
    v = np.asarray(v)
    return _resample(v, [n if n == 1 else int(np.ceil(factor * n)) for n in v.shape[lead:]])


def coarsen(v, shape):
    """Project grid values back onto a coarser Lobatto grid by truncation;
    axes of v before the last len(shape) are a stack."""
    return _resample(np.asarray(v), tuple(shape))
