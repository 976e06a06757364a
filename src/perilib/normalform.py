"""Desk-scale engine for the small-divisor-free normal form.

Objects are truncated Taylor-Fourier series

    f = sum_{k,h,j} f_{khj}(I, y, x) e^{i k.phi} p^h q^j

with Fourier modes k in the angles, monomials in (p, q), and coefficient
functions tabulated on a tensor Chebyshev grid over an (I, y, x) box.  The
homological equation is solved by integrating along x (no frequency
inversion, hence no small divisors), the new-coordinate push is a time-one
Lie flow, and the iteration drains the angle-dependent part of the
perturbation geometrically.

Norms use the weighted majorant  sum_k,h,j sup|f_khj| e^{s|k|} delta^{|h|+|j|}
with the sup taken over the real tensor grid: a documented proxy for the
complex-polydisc sup (an optional complexified evaluation is available for
stress checks).
"""

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import chebyshev as ch


class ShapeError(ValueError):
    """Series with incompatible shapes/boxes were combined."""


class ContractionError(RuntimeError):
    """A Lie series or normal-form step lost its measured contraction."""


@dataclass(frozen=True)
class NormWeights:
    """Analyticity widths weighting the majorant norm."""

    rho: float = 1.0
    s: float = 1.0
    delta: float = 1.0
    r: float = 1.0
    xi: float = 1.0

    def __post_init__(self):
        if min(self.rho, self.s, self.delta, self.r, self.xi) <= 0:
            raise ValueError("all norm weights must be strictly positive")


PLAIN_WEIGHTS = NormWeights(1.0, 1e-12, 1.0, 1.0, 1.0)  # ~ sum of coefficient sups


class TFSeries:
    """Truncated Taylor-Fourier series with Chebyshev-grid coefficients.

    coeffs maps (k, h, j) keys (tuples of ints: len n_angles, m_pq, m_pq) to
    complex arrays over the (I_1..I_n, y, x) grid.  A real function has
    coeff(-k, h, j) = conj(coeff(k, h, j)).
    """

    def __init__(self, n_angles, m_pq, fourier_cutoff, pq_degree, box, grid_shape,
                 coeffs=None):
        if len(box) != n_angles + 2 or len(grid_shape) != n_angles + 2:
            raise ShapeError("box/grid_shape must cover the I..., y, x axes")
        self.n_angles = n_angles
        self.m_pq = m_pq
        self.fourier_cutoff = fourier_cutoff
        self.pq_degree = pq_degree
        self.box = tuple((float(a), float(b)) for a, b in box)
        self.grid_shape = tuple(int(g) for g in grid_shape)
        self.coeffs = {}
        if coeffs:
            for key, arr in coeffs.items():
                self._check_key(key)
                arr = np.asarray(arr, dtype=complex)
                if arr.shape != self.grid_shape:
                    raise ShapeError("coefficient grid %r != %r" % (arr.shape, self.grid_shape))
                self.coeffs[key] = arr

    # ---------------- basic structure ----------------

    def _check_key(self, key):
        k, h, j = key
        if len(k) != self.n_angles or len(h) != self.m_pq or len(j) != self.m_pq:
            raise ShapeError("bad key %r" % (key,))
        if any(abs(ki) > self.fourier_cutoff for ki in k):
            raise ShapeError("Fourier index beyond cutoff in %r" % (key,))
        if sum(h) + sum(j) > self.pq_degree:
            raise ShapeError("pq degree beyond cutoff in %r" % (key,))

    def same_shape(self, other):
        return (
            self.n_angles == other.n_angles
            and self.m_pq == other.m_pq
            and self.box == other.box
            and self.grid_shape == other.grid_shape
        )

    def shell(self, coeffs=None):
        return TFSeries(
            self.n_angles,
            self.m_pq,
            self.fourier_cutoff,
            self.pq_degree,
            self.box,
            self.grid_shape,
            coeffs,
        )

    def grids(self):
        return [ch.nodes(g, lo, hi) for g, (lo, hi) in zip(self.grid_shape, self.box)]

    def copy(self):
        return self.shell({k: v.copy() for k, v in self.coeffs.items()})

    def zero_key(self):
        return (
            (0,) * self.n_angles,
            (0,) * self.m_pq,
            (0,) * self.m_pq,
        )

    # ---------------- algebra ----------------

    def __add__(self, other):
        if not self.same_shape(other):
            raise ShapeError("adding incompatible series")
        out = {k: v.copy() for k, v in self.coeffs.items()}
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v.copy()
        res = self.shell()
        res.fourier_cutoff = max(self.fourier_cutoff, other.fourier_cutoff)
        res.pq_degree = max(self.pq_degree, other.pq_degree)
        res.coeffs = out
        return res

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        return self.shell({k: v * scalar for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def prune(self, floor=0.0):
        """Drop coefficients with sup below floor (cleans accumulated zeros)."""
        self.coeffs = {
            k: v for k, v in self.coeffs.items() if np.max(np.abs(v)) > floor
        }
        return self

    def sup(self):
        if not self.coeffs:
            return 0.0
        return max(float(np.max(np.abs(v))) for v in self.coeffs.values())

    # ---------------- evaluation ----------------

    def evaluate(self, I, phi, y, x, p=(), q=()):
        """Pointwise value at scalar coordinates (I and phi are sequences of
        length n_angles; p, q of length m_pq)."""
        I = np.atleast_1d(I)
        phi = np.atleast_1d(phi)
        out = 0.0 + 0.0j
        pts = list(I) + [y, x]
        for (k, h, j), arr in self.coeffs.items():
            c = arr
            for axis in range(len(self.grid_shape)):
                coef = ch.vals_to_coeffs(c, 0)
                c = ch.clenshaw(coef, 0, [pts[axis]], *self.box[axis])[..., 0]
            val = complex(c)
            val *= np.exp(1j * np.dot(k, phi))
            for hi, pi in zip(h, p):
                val *= pi**hi
            for ji, qi in zip(j, q):
                val *= qi**ji
            out += val
        return out.real if abs(out.imag) < 1e-9 * max(1.0, abs(out)) else out


def tf_build(fun, box, grid_shape, n_angles=1, fourier_cutoff=8, n_phi=64,
             m_pq=0, pq_degree=0, coeff_floor_rel=1e-14):
    """Sample a pointwise evaluator into a TFSeries (FFT in the angles at
    Chebyshev nodes in the grid variables).

    fun receives broadcast meshes (I_1, ..., I_n, phi_1, ..., phi_n, y, x).
    Only angle-sampled construction is supported here, so m_pq must be 0;
    series with monomial content are assembled directly from coefficients.
    """
    if m_pq != 0 or pq_degree != 0:
        raise NotImplementedError("sampled construction covers the m = 0 case")
    if n_phi < 2 * fourier_cutoff + 2:
        raise ValueError("n_phi must resolve the requested cutoff")
    grids = [ch.nodes(g, lo, hi) for g, (lo, hi) in zip(grid_shape, box)]
    phis = [2 * np.pi * np.arange(n_phi) / n_phi] * n_angles
    n = n_angles
    mesh_axes = grids[:n] + phis + grids[n:]
    mesh = np.meshgrid(*mesh_axes, indexing="ij")
    vals = fun(*mesh)
    vals = np.asarray(vals, dtype=complex) + np.zeros(mesh[0].shape, complex)
    angle_axes = tuple(range(n, 2 * n))
    F = np.fft.fftn(vals, axes=angle_axes) / n_phi**n
    if not np.all(np.isfinite(F)):
        raise ArithmeticError("evaluator returned non-finite values on the grid")
    series = TFSeries(n, 0, fourier_cutoff, 0, box, grid_shape)
    scale = float(np.max(np.abs(F))) or 1.0
    for k in itertools.product(range(-fourier_cutoff, fourier_cutoff + 1), repeat=n):
        idx = tuple(slice(None) for _ in range(n)) + tuple(ki % n_phi for ki in k)
        arr = F[idx]
        if np.max(np.abs(arr)) > coeff_floor_rel * scale:
            # a copy, never a view that would keep all of F alive
            series.coeffs[(k, (), ())] = arr.copy()
    return series


def tf_average_split(f):
    """(average, oscillatory) parts: the average keeps exactly the keys with
    k = 0 and h = j; their sum is f and re-splitting the average is a fixed
    point."""
    avg = f.shell()
    osc = f.shell()
    zero = (0,) * f.n_angles
    for key, arr in f.coeffs.items():
        k, h, j = key
        if k == zero and h == j:
            avg.coeffs[key] = arr.copy()
        else:
            osc.coeffs[key] = arr.copy()
    return avg, osc


def tf_norm(f, w=PLAIN_WEIGHTS):
    """Weighted majorant norm: sum_k,h,j sup_grid |f_khj| e^{s|k|} delta^{|h|+|j|}."""
    total = 0.0
    for (k, h, j), arr in f.coeffs.items():
        total += (
            float(np.max(np.abs(arr)))
            * math.exp(w.s * sum(abs(ki) for ki in k))
            * w.delta ** (sum(h) + sum(j))
        )
    return total


def tf_sup_complexified(f, w, n_probe=12):
    """Stress-test sup: coefficients continued to complex I, y, x points at
    the widths (rho, r, xi) by Chebyshev evaluation; angles/monomial weights
    as in tf_norm.  A sampled lower bound of the polydisc norm."""
    total = 0.0
    widths = [w.rho] * f.n_angles + [w.r, w.xi]
    probes = []
    for (lo, hi), width in zip(f.box, widths):
        base = np.linspace(lo, hi, n_probe)
        probes.append(np.concatenate([base + 1j * width, base - 1j * width, base]))
    for (k, h, j), arr in f.coeffs.items():
        c = arr
        for axis in range(len(f.grid_shape)):
            # consume the leading grid axis, appending the probe axis last
            c = ch.clenshaw(ch.vals_to_coeffs(c, 0), 0, probes[axis], *f.box[axis])
        total += (
            float(np.max(np.abs(c)))
            * math.exp(w.s * sum(abs(ki) for ki in k))
            * w.delta ** (sum(h) + sum(j))
        )
    return total


# ---------------- calculus ----------------


def d_angle(f, i=0):
    """d/d(phi_i): multiplies each mode by i k_i."""
    out = f.shell()
    for (k, h, j), arr in f.coeffs.items():
        if k[i] != 0:
            out.coeffs[(k, h, j)] = 1j * k[i] * arr
    return out


def d_grid(f, axis):
    """Spectral derivative along grid axis (0..n-1: I_i, n: y, n+1: x)."""
    lo, hi = f.box[axis]
    out = f.shell()
    for key, arr in f.coeffs.items():
        out.coeffs[key] = ch.differentiate(arr, axis, lo, hi)
    return out


def d_I(f, i=0):
    return d_grid(f, i)


def d_x(f):
    return d_grid(f, f.n_angles + 1)


def _accumulate(terms, f, g, fourier_cutoff, pq_degree):
    """Sum over terms (sign, (keys_a, fine_a), (keys_b, fine_b)) of the
    mode-convolution products sign * a * b of pieces of f and g: exact key
    arithmetic, truncation at the requested cutoffs (defaults: the operands'
    max), multiplication on the fine grid and one projection of the stacked
    accumulator back to the grid."""
    K = fourier_cutoff if fourier_cutoff is not None else max(
        f.fourier_cutoff, g.fourier_cutoff
    )
    P = pq_degree if pq_degree is not None else max(f.pq_degree, g.pq_degree)
    acc = {}
    for sign, (keys_a, fine_a), (keys_b, fine_b) in terms:
        for a, (k1, h1, j1) in enumerate(keys_a):
            for b, (k2, h2, j2) in enumerate(keys_b):
                k = tuple(x + y for x, y in zip(k1, k2))
                if any(abs(ki) > K for ki in k):
                    continue
                h = tuple(x + y for x, y in zip(h1, h2))
                j = tuple(x + y for x, y in zip(j1, j2))
                if sum(h) + sum(j) > P:
                    continue
                key = (k, h, j)
                prod = fine_a[a] * fine_b[b]
                if key not in acc:
                    acc[key] = prod if sign > 0 else -prod
                elif sign > 0:
                    acc[key] += prod
                else:
                    acc[key] -= prod
    out = TFSeries(f.n_angles, f.m_pq, K, P, f.box, f.grid_shape)
    if acc:
        out.coeffs = dict(zip(acc, ch.coarsen(np.stack(list(acc.values())), f.grid_shape)))
    return out.prune()


def tf_product(f, g, fourier_cutoff=None, pq_degree=None):
    """Mode-convolution product with de-aliased grid multiplication,
    truncated back to the requested cutoffs (defaults: the operands' max)."""
    if not f.same_shape(g):
        raise ShapeError("multiplying incompatible series")
    return _accumulate([(1, _refined(f), _refined(g))], f, g, fourier_cutoff, pq_degree)


def _refined(f):
    """(keys, stack): f's coefficients in key order, stacked and refined in one pass."""
    if not f.coeffs:
        return [], None
    return list(f.coeffs), ch.refine(np.stack(list(f.coeffs.values())), lead=1)


class _BracketSide:
    """What one series f contributes to a Poisson bracket, each piece as
    (keys, refined stack): left = (d_I f..., d_p f..., d_y f) and right =
    (d_phi f..., d_q f..., d_x f), so {f, g} = sum_t left_f right_g -
    left_g right_f.  Built once, a side serves every bracket it enters, as
    the generator of a Lie series does."""

    def __init__(self, f):
        self.series = f
        keys = list(f.coeffs)
        n, m = f.n_angles, f.m_pq
        fine = [None] * (n + 3)
        if keys:
            coarse = np.stack(list(f.coeffs.values()))
            derivs = [ch.differentiate(coarse, ax + 1, *f.box[ax]) for ax in range(n + 2)]
            fine = ch.refine(np.concatenate([coarse] + derivs), lead=1)
            fine = fine.reshape((n + 3, len(keys)) + fine.shape[1:])
        grid = [(keys, d) for d in fine[1:]]  # d_I..., d_y, d_x
        d_phi = [_scaled(fine[0], [1j * k[i] for k, _, _ in keys], keys) for i in range(n)]
        d_p = [_scaled(fine[0], [h[i] for _, h, _ in keys],
                       [(k, _lower(h, i), j) for k, h, j in keys]) for i in range(m)]
        d_q = [_scaled(fine[0], [j[i] for _, _, j in keys],
                       [(k, h, _lower(j, i)) for k, h, j in keys]) for i in range(m)]
        self.left = grid[:n] + d_p + [grid[n]]
        self.right = d_phi + d_q + [grid[n + 1]]

    def bracket(self, other, fourier_cutoff=None, pq_degree=None):
        """{f, g} with f this side's series and g the other's."""
        f, g = self.series, other.series
        if not f.same_shape(g):
            raise ShapeError("bracket of incompatible series")
        terms = []
        for lf, rg, lg, rf in zip(self.left, other.right, other.left, self.right):
            terms += [(1, lf, rg), (-1, lg, rf)]
        return _accumulate(terms, f, g, fourier_cutoff, pq_degree)


def _scaled(fine, factors, keys):
    """Piece with the rows of fine times factors, relabelled to keys; rows
    with factor 0 drop out."""
    rows = [r for r, c in enumerate(factors) if c != 0]
    if not rows:
        return [], None
    scale = np.array([factors[r] for r in rows]).reshape((-1,) + (1,) * (fine.ndim - 1))
    return [keys[r] for r in rows], fine[rows] * scale


def _lower(t, i):
    return tuple(v - (1 if idx == i else 0) for idx, v in enumerate(t))


def poisson_bracket(f, g, fourier_cutoff=None, pq_degree=None):
    """{f, g} = sum_i (d_I f d_phi g - d_I g d_phi f)
              + sum_i (d_p f d_q g - d_p g d_q f)
              + (d_y f d_x g - d_y g d_x f),
    with exact mode arithmetic in (k, h, j), spectral differentiation on the
    Chebyshev grids, and truncation back to the requested cutoffs (defaults:
    the operands' max, as for tf_product)."""
    return _BracketSide(f).bracket(_BracketSide(g), fourier_cutoff, pq_degree)


# ---------------- frequencies and the NQP primitive ----------------


@dataclass(frozen=True)
class FrequencyData:
    """Frequencies of the drift part, tabulated on the (I..., y) grid.

    omega_y must be bounded away from zero on the box; omega_I (one array
    per angle; may be identically zero) and omega_J (one per monomial pair)
    enter the mode eigenvalue lambda_khj = (h - j) . omega_J + i k . omega_I.
    """

    omega_y: np.ndarray
    omega_I: tuple = ()
    omega_J: tuple = ()

    @classmethod
    def tabulate(cls, box, grid_shape, omega_y, omega_I=(), omega_J=()):
        """Evaluate callables of (*I, y) on the grid of a series shape."""
        axes = [ch.nodes(g, lo, hi) for g, (lo, hi) in zip(grid_shape[:-1], box[:-1])]
        mesh = np.meshgrid(*axes, indexing="ij")
        wy = np.asarray(omega_y(*mesh), dtype=float) + np.zeros(mesh[0].shape)
        wI = tuple(
            np.asarray(w(*mesh), dtype=float) + np.zeros(mesh[0].shape)
            for w in omega_I
        )
        wJ = tuple(
            np.asarray(w(*mesh), dtype=float) + np.zeros(mesh[0].shape)
            for w in omega_J
        )
        if np.min(np.abs(wy)) < 1e-14:
            raise ValueError("omega_y vanishes on the box")
        return cls(wy, wI, wJ)


def mode_eigenvalue(freqs, k, h, j):
    """lambda_khj = (h - j) . omega_J + i k . omega_I on the (I..., y) grid."""
    lam = np.zeros_like(freqs.omega_y, dtype=complex)
    for ji, (hv, jv) in enumerate(zip(h, j)):
        if hv != jv:
            lam += (hv - jv) * freqs.omega_J[ji]
    for ai, kv in enumerate(k):
        if kv != 0 and freqs.omega_I:
            lam += 1j * kv * freqs.omega_I[ai]
    return lam


def nqp_primitive(f_osc, freqs, basepoint=None, n_cc=33):
    """Small-divisor-free solution of the homological equation.

    For each oscillatory mode,
        phi_khj(I, y, x) =
            (1/omega_y) int_b^x f_khj(I, y, tau) e^{(lambda/omega_y)(tau-x)} dtau
    by Clenshaw-Curtis quadrature along tau at every x node, Chebyshev-
    interpolating f along x.  The basepoint b defaults to the lower edge of
    the x box (any choice differs by a homogeneous solution and still solves
    the equation).  Requires the average part of f_osc to vanish.
    """
    avg, osc = tf_average_split(f_osc)
    if avg.sup() > 1e-13 * max(1.0, f_osc.sup()):
        raise ValueError("nqp_primitive needs a zero-average input")
    lo, hi = f_osc.box[-1]
    if basepoint is None:
        basepoint = lo
    if not lo - 1e-12 <= basepoint <= hi + 1e-12:
        raise ValueError("basepoint outside the x box")
    n_x = f_osc.grid_shape[-1]
    xs = ch.nodes(n_x, lo, hi)
    # the Clenshaw-Curtis rule on [basepoint, x_c] for every node x_c: the
    # rule on [0, 1] mapped affinely, bit-identical to building it per node
    t01, w01 = ch.clenshaw_curtis(n_cc, 0.0, 1.0)
    span = (xs - basepoint)[:, None]
    tau = basepoint + span * t01  # (n_x, n_cc)
    wq = span * w01
    # interp[c, q, :] interpolates grid values along x at tau[c, q]
    interp = ch.eval_matrix(n_x, tau.ravel(), lo, hi).reshape(n_x, n_cc, n_x)
    at_base = np.abs(xs - basepoint) < 1e-15
    out = f_osc.shell()
    inv_wy = 1.0 / freqs.omega_y
    for (k, h, j), arr in osc.coeffs.items():
        mu = mode_eigenvalue(freqs, k, h, j) * inv_wy  # (I..., y)
        kernel = wq * np.exp(mu[..., None, None] * (tau - xs[:, None]))
        phi = inv_wy[..., None] * np.einsum(
            "...x,cqx,...cq->...c", arr, interp, kernel, optimize=True
        )
        phi[..., at_base] = 0.0
        out.coeffs[(k, h, j)] = phi
    return out


def homological_residual(phi, f_osc, freqs):
    """Residual series omega_y d_x(phi) + lambda phi - f_osc (gridwise)."""
    res = phi.shell()
    n = phi.n_angles
    dphi = d_x(phi)
    keys = set(phi.coeffs) | set(f_osc.coeffs) | set(dphi.coeffs)
    zero = np.zeros(phi.grid_shape, complex)
    for key in keys:
        k, h, j = key
        lam = mode_eigenvalue(freqs, k, h, j)
        r = (
            freqs.omega_y[..., None] * dphi.coeffs.get(key, zero)
            + lam[..., None] * phi.coeffs.get(key, zero)
            - f_osc.coeffs.get(key, zero)
        )
        res.coeffs[key] = r
    return res


# ---------------- Lie flows and the iteration ----------------


# relative size (to the chain's first term) below which Lie terms are
# roundoff and stay out of the reported ratio and tail bound
LIE_RATIO_FLOOR = 1e-12


@dataclass
class LieReport:
    orders: int
    term_norms: list
    ratio: float
    tail_bound: float


def _lie_chain(L, H, max_order, weights, rel_floor=1e-16):
    """Terms L^j(H)/j!, j = 0, 1, ..., of the time-one Lie flow of the
    generator whose bracket side is L, with their LieReport.

    The chain stops once a term falls to rel_floor of H's norm.  The measured
    geometric ratio of successive term norms must stay below 1 (broken
    contraction raises ContractionError); the reported tail bound is
    last * ratio / (1 - ratio).  Ratio and last term are taken over the
    terms above LIE_RATIO_FLOOR of H's norm only: the terms below it are
    roundoff, and their ratios move by percents under input changes at
    roundoff level.
    """
    terms = [H]
    norms = [tf_norm(H, weights)]
    base = norms[0] if norms[0] > 0 else 1.0
    ratio = 0.0
    last = norms[0]
    for order in range(1, max_order + 1):
        term = L.bracket(_BracketSide(terms[-1])) * (1.0 / order)
        n = tf_norm(term, weights)
        norms.append(n)
        terms.append(term)
        if n <= rel_floor * base:
            break
        if n > LIE_RATIO_FLOOR * base:
            last = n
            if norms[-2] > 0:
                ratio = max(ratio, n / norms[-2])
        if order >= 2 and norms[-1] > norms[-2] and norms[-2] > norms[-3]:
            raise ContractionError(
                "Lie series diverging: term norms %r" % (norms[-3:],)
            )
    tail = last * ratio / (1 - ratio) if ratio < 1 else math.inf
    if ratio >= 1 and norms[-1] > rel_floor * base:
        raise ContractionError("measured Lie contraction factor %.3f >= 1" % ratio)
    return terms, LieReport(len(norms) - 1, norms, ratio, tail)


def _weighted_sum(terms, weights):
    """sum_j weights[j] * terms[j], accumulated in order (extra weights unused)."""
    total = terms[0] * weights[0]
    for w, term in zip(weights[1:], terms[1:]):
        total = total + term * w
    return total.prune()


def lie_transform(H, phi, max_order=16, weights=PLAIN_WEIGHTS, rel_floor=1e-16):
    """Time-one Lie flow sum_{j<=max_order} L_phi^j H / j! and its LieReport
    (contraction guard and tail bound as in _lie_chain)."""
    terms, report = _lie_chain(_BracketSide(phi), H, max_order, weights, rel_floor)
    return _weighted_sum(terms, [1.0] * len(terms)), report


def build_secular_perturbation(spec, eps0, alpha_minus, alpha_plus, delta,
                               grid_shape=(8, 8, 16), fourier_cutoff=8,
                               n_phi=64, quad=None):
    """Band-limited series of the action-angle perturbation of the reduced
    Hamiltonian on the libration domain.

    The box is (Gcal, y, x) in (Lambda - delta, Lambda) x
    (2 sqrt(m0^3 alpha-), sqrt(m0^3 alpha+)) x
    (2 sqrt(eps0), 2 pi - 2 sqrt(eps0)); the full energy is
    -m0^5/(2 y^2) + the returned series, and the matching drift frequencies
    are omega_y = m0^5/y^3 with omega_I identically zero.

    Returns (series, FrequencyData).
    """
    from .kepler import xi_prime_array
    from .potentials import DEFAULT_QUAD, f_eps_minus_one_grid

    quad = quad or DEFAULT_QUAD
    m0, Lam = spec.m0, spec.Lambda
    box = [
        (Lam - delta, Lam),
        (2 * math.sqrt(m0**3 * alpha_minus), math.sqrt(m0**3 * alpha_plus)),
        (2 * math.sqrt(eps0), 2 * np.pi - 2 * math.sqrt(eps0)),
    ]

    # gamma enters only through cos^2(gamma), which is pi-periodic and even:
    # under exact symmetry sample k equals sample fold(k) <= P/2 (P = n_phi/2
    # folds both symmetries; an odd n_phi has only k <-> n_phi - k), so the
    # perturbation is evaluated on those columns and copied to the others
    P = n_phi // 2 if n_phi % 2 == 0 else n_phi
    k = np.arange(n_phi) % P
    fold = np.minimum(k, P - k)
    cols = slice(0, P // 2 + 1)

    def fun(Gc, gam, y, x):
        Gc, gam, y, x = Gc[:, cols], gam[:, cols], y[:, cols], x[:, cols]
        # xi' depends on x alone: solve on the mesh's x axis and broadcast
        xi = xi_prime_array(x[0, 0, 0, :])
        r = y**2 / m0**3 * (1 - np.cos(xi))
        eps = spec.eps_of_r(r)
        c2g = np.cos(gam) ** 2
        u = Gc / Lam
        pert = eps * (Lam**2 - Gc**2) / (2 * Lam**2) * c2g
        for c, s in spec.terms():
            es = s * eps
            t = u + es * (1.0 - u**2) * c2g
            pert = pert - c * f_eps_minus_one_grid(es, t, quad)
        # np.take keeps the result C-ordered for the FFT
        return np.take(m0**2 / r * pert, fold, axis=1)

    series = tf_build(fun, box, grid_shape, n_angles=1,
                      fourier_cutoff=fourier_cutoff, n_phi=n_phi)
    freqs = FrequencyData.tabulate(
        box, grid_shape, lambda I, y: m0**5 / y**3,
        omega_I=[lambda I, y: np.zeros_like(y)],
    )
    return series, freqs


# ---------------- serialization ----------------


def series_to_dict(f):
    """JSON-ready structure: shape header + flat coefficient arrays in
    row-major grid order (floats survive the round trip bit-for-bit via
    repr, comfortably within the 1e-15 relative contract)."""
    return {
        "n_angles": f.n_angles,
        "m_pq": f.m_pq,
        "fourier_cutoff": f.fourier_cutoff,
        "pq_degree": f.pq_degree,
        "box": [list(b) for b in f.box],
        "grid_shape": list(f.grid_shape),
        "coeffs": [
            {
                "k": list(k),
                "h": list(h),
                "j": list(j),
                "re": arr.real.ravel(order="C").tolist(),
                "im": arr.imag.ravel(order="C").tolist(),
            }
            for (k, h, j), arr in sorted(f.coeffs.items())
        ],
    }


def series_from_dict(d):
    out = TFSeries(
        d["n_angles"],
        d["m_pq"],
        d["fourier_cutoff"],
        d["pq_degree"],
        [tuple(b) for b in d["box"]],
        tuple(d["grid_shape"]),
    )
    shape = out.grid_shape
    for entry in d["coeffs"]:
        arr = (
            np.asarray(entry["re"], dtype=float)
            + 1j * np.asarray(entry["im"], dtype=float)
        ).reshape(shape, order="C")
        out.coeffs[(tuple(entry["k"]), tuple(entry["h"]), tuple(entry["j"]))] = arr
    return out


def save_series(f, path):
    """Write the series as structured JSON text (atomic replace)."""
    payload = json.dumps(series_to_dict(f))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_series(path):
    with open(path) as fh:
        return series_from_dict(json.load(fh))


@dataclass
class NormalFormStep:
    step: int
    f_norm: float
    osc_norm: float
    residual: float
    contraction: float
    lie_orders: int = 0
    lie_ratio: float = 0.0
    lie_tail_bound: float = 0.0


@dataclass
class NormalFormResult:
    g_star: "TFSeries"
    f_star: "TFSeries"
    steps: list = field(default_factory=list)

    def osc_norms(self):
        return [s.osc_norm for s in self.steps]


def normal_form_steps(f, freqs, N, weights=PLAIN_WEIGHTS, basepoint=None,
                      max_order=14, residual_rtol=None):
    """Iterate the homological step N times.

    Each step splits f into average + oscillatory parts, solves the
    homological equation for the generator by nqp_primitive, pushes the
    Hamiltonian through the time-one flow and accumulates the average into
    the normal part g.  The drift-part bracket {phi, h} is replaced by its
    defining identity -(oscillatory part), so h never needs differencing.
    Returns the accumulated g*, the final remainder f*, and per-step norms.

    weights may be one NormWeights or a schedule (sequence, one per step).
    """
    schedule = list(weights) if isinstance(weights, (list, tuple)) else [weights] * max(N, 1)
    if len(schedule) < N:
        schedule = schedule + [schedule[-1]] * (N - len(schedule))
    g = f.shell()
    fj = f.copy()
    steps = []
    for step in range(N):
        w = schedule[step]
        avg, osc = tf_average_split(fj)
        osc_norm = tf_norm(osc, w)
        f_norm = tf_norm(fj, w)
        if osc_norm == 0.0:
            g = (g + avg).prune()
            fj = fj.shell()
            steps.append(NormalFormStep(step, f_norm, 0.0, 0.0, 0.0))
            break
        phi = nqp_primitive(osc, freqs, basepoint)
        res = homological_residual(phi, osc, freqs)
        rel_res = res.sup() / max(osc.sup(), 1e-300)
        if residual_rtol is not None and rel_res > residual_rtol:
            raise ContractionError(
                "homological residual %.3e above tolerance at step %d"
                % (rel_res, step)
            )
        g_new = (g + avg).prune()
        # regroup H = h + g_new + osc, then e^{L_phi} H = h + g_new
        #   + Phi_2(h) + Phi_1(g_new) + Phi_1(osc)  with
        #   Phi_2(h)  = -sum_{j>=1} L^j(osc)/(j+1)!
        #             = osc - sum_{j>=0} L^j(osc)/(j+1)!   (identity L(h) = -osc)
        #   Phi_1(g') = sum_{j>=0} L^j({phi, g'})/(j+1)!
        #   Phi_1(osc) = e^{L}(osc) - osc
        # One chain of terms L^j(osc)/j! serves Phi_2(h) (weights 1/(j+1))
        # and e^{L}(osc) (weights 1); phi's side of the bracket is built once.
        L = _BracketSide(phi)
        chain, lie = _lie_chain(L, osc, max_order, w)
        tail = [1.0 / (j + 1) for j in range(max_order + 1)]  # L^j/j! -> L^j/(j+1)!
        f_next = osc + _weighted_sum(chain, tail) * -1.0
        bracket_g = L.bracket(_BracketSide(g_new))
        if bracket_g.coeffs:
            chain_g, _ = _lie_chain(L, bracket_g, max_order, w)
            f_next = f_next + _weighted_sum(chain_g, tail)
        lie_osc = _weighted_sum(chain, [1.0] * len(chain))
        f_next = f_next + (lie_osc - osc)
        fj = f_next.prune(1e-300)
        contraction = tf_norm(tf_average_split(fj)[1], w) / osc_norm if osc_norm else 0.0
        steps.append(NormalFormStep(step, f_norm, osc_norm, rel_res, contraction,
                                    lie.orders, lie.ratio, lie.tail_bound))
        g = g_new
    return NormalFormResult(g, fj, steps)
