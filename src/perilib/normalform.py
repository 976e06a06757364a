"""Desk-scale engine for the small-divisor-free normal form.

Objects are truncated Fourier series in the one angle phi (the perihelion
argument gamma of the reduced problem)

    f = sum_k f_k(I, y, x) e^{i k phi}

with coefficient functions tabulated on a tensor Chebyshev grid over an
(I, y, x) box.  The homological equation is solved by integrating along x
(no frequency inversion, hence no small divisors), the new-coordinate push
is a time-one Lie flow, and the iteration drains the angle-dependent part of
the perturbation geometrically.

Every series is real, so c_{-k} = conj(c_k): a series stores only the modes
k >= 0, and each product or bracket rebuilds the k < 0 modes it needs by
conjugation.

Norms use the weighted majorant  sum_k sup|f_k| e^{s|k|}  over the full
spectrum, with the sup taken over the real tensor grid: a documented proxy
for the complex-polydisc sup.
"""

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import chebyshev as ch
from .coords import radial_radius
from .hamiltonians import aa_perturbation_at, libration_box


class ShapeError(ValueError):
    """Series with incompatible shapes/boxes were combined."""


class ContractionError(RuntimeError):
    """A Lie series or normal-form step lost its measured contraction."""


PLAIN_S = 1e-12  # angular width of the plain norm: ~ sum of coefficient sups


def _weight(k, s):
    """e^{s k} for a stored mode k, twice over for k != 0 (it stands for k
    and -k)."""
    return (2.0 if k else 1.0) * math.exp(s * k)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class TFSeries:
    """Truncated Fourier series of a real function with Chebyshev-grid
    coefficients.

    coeffs maps keys ((k,), (), ()), k an int with 0 <= k <= fourier_cutoff,
    to complex arrays over the (I, y, x) grid (the key's layout is that of
    the serialized "k"/"h"/"j" fields).  The mode -k is implied: its
    coefficient is conj(coeffs[k]).
    """

    def __init__(self, fourier_cutoff, box, grid_shape, coeffs=None):
        if len(box) != 3 or len(grid_shape) != 3:
            raise ShapeError("box/grid_shape must cover the I, y, x axes")
        self.fourier_cutoff = fourier_cutoff
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
        if len(k) != 1 or not _is_int(k[0]) or h or j:
            raise ShapeError("bad key %r" % (key,))
        if abs(k[0]) > self.fourier_cutoff:
            raise ShapeError("Fourier index beyond cutoff in %r" % (key,))
        if k[0] < 0:
            raise ShapeError("key %r is not stored: k < 0 is implied by conjugation" % (key,))

    def same_shape(self, other):
        return self.box == other.box and self.grid_shape == other.grid_shape

    def shell(self, coeffs=None):
        return TFSeries(self.fourier_cutoff, self.box, self.grid_shape, coeffs)

    def grids(self):
        return [ch.nodes(g, lo, hi) for g, (lo, hi) in zip(self.grid_shape, self.box)]

    def _with(self, coeffs):
        """A series of this shape holding coeffs, whose keys are already
        this series' own (no re-check)."""
        out = self.shell()
        out.coeffs = coeffs
        return out

    def copy(self):
        return self._with({k: v.copy() for k, v in self.coeffs.items()})

    # ---------------- algebra ----------------

    def __add__(self, other):
        if not self.same_shape(other):
            raise ShapeError("adding incompatible series")
        out = {k: v.copy() for k, v in self.coeffs.items()}
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v.copy()
        res = self._with(out)
        res.fourier_cutoff = max(self.fourier_cutoff, other.fourier_cutoff)
        return res

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        return self._with({k: v * scalar for k, v in self.coeffs.items()})

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

    def evaluate(self, I, phi, y, x):
        """Pointwise value c_0 + 2 Re sum_{k != 0 stored} c_k e^{i k phi} at
        scalar coordinates (I and phi may also be one-entry sequences).  An
        (I, y, x) outside the box by more than 1e-12 raises ValueError; the
        slack admits a box edge that carries rounding."""
        (I,), (phi,) = np.atleast_1d(I), np.atleast_1d(phi)
        for pt, (lo, hi) in zip((I, y, x), self.box):
            if not lo - 1e-12 <= pt <= hi + 1e-12:
                raise ValueError("(I, y, x) outside the series' box %r" % (self.box,))
        out = 0.0
        for ((k,), _, _), c in self.coeffs.items():
            for pt, (lo, hi) in zip((I, y, x), self.box):
                c = ch.clenshaw(ch.vals_to_coeffs(c, 0), 0, [pt], lo, hi)[..., 0]
            term = (complex(c) * np.exp(1j * (k * phi))).real
            out += 2.0 * term if k else term
        return out


# tf_build keeps a mode whose sup exceeds this fraction of the largest
# FFT coefficient
COEFF_FLOOR = 1e-14


def tf_build(fun, box, grid_shape, fourier_cutoff=8, n_phi=64):
    """Sample a real pointwise evaluator into a TFSeries (real FFT in the
    angle at Chebyshev nodes in the grid variables), keeping the modes
    k = 0..fourier_cutoff above COEFF_FLOOR.

    fun receives sparse meshes (I, phi, y, x), each varying along its own
    axis only, and returns values that broadcast to the full grid.  Values
    with an imaginary part above 1e-14 of their sup raise ValueError.
    """
    if n_phi < 2 * fourier_cutoff + 2:
        raise ValueError("n_phi must resolve the requested cutoff")
    I, y, x = (ch.nodes(g, lo, hi) for g, (lo, hi) in zip(grid_shape, box))
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    mesh = np.meshgrid(I, phi, y, x, indexing="ij", sparse=True)
    shape = np.broadcast_shapes(*(m.shape for m in mesh))
    vals = np.asarray(fun(*mesh))
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError("evaluator returned non-finite values on the grid")
    if np.iscomplexobj(vals):
        if np.max(np.abs(vals.imag)) > 1e-14 * np.max(np.abs(vals)):
            raise ValueError("tf_build needs a real evaluator: its values have an "
                             "imaginary part above 1e-14 of their sup")
        vals = vals.real
    # axis 1 holds the modes k = 0 .. n_phi/2
    F = np.fft.rfft(np.broadcast_to(vals, shape), axis=1) / n_phi
    series = TFSeries(fourier_cutoff, box, grid_shape)
    scale = float(np.max(np.abs(F))) or 1.0
    for k in range(fourier_cutoff + 1):
        if np.max(np.abs(F[:, k])) > COEFF_FLOOR * scale:
            # a C-ordered copy, never a view that would keep all of F alive
            series.coeffs[((k,), (), ())] = np.array(F[:, k], order="C")
    return series


def tf_average_split(f):
    """(average, oscillatory) parts, holding f's own arrays: the average is
    exactly the k = 0 key; their sum is f and re-splitting the average is a
    fixed point."""
    avg = f.shell()
    osc = f.shell()
    for key, arr in f.coeffs.items():
        (avg if key[0] == (0,) else osc).coeffs[key] = arr
    return avg, osc


def tf_norm(f, s=PLAIN_S):
    """Weighted majorant norm: sum_k sup_grid |f_k| e^{s|k|} over the full
    spectrum (each stored k != 0 counts for k and -k), with the angular
    width s finite and positive (ValueError otherwise)."""
    # negated, so that NaN fails
    if not 0 < s < math.inf:
        raise ValueError("the norm width s must be finite and positive, got %r" % (s,))
    total = 0.0
    for ((k,), _, _), arr in f.coeffs.items():
        total += float(np.max(np.abs(arr))) * _weight(k, s)
    return total


# ---------------- calculus ----------------


def d_grid(f, axis):
    """Spectral derivative along grid axis (0: I, 1: y, 2: x)."""
    lo, hi = f.box[axis]
    out = f.shell()
    for key, arr in f.coeffs.items():
        out.coeffs[key] = ch.differentiate(arr, axis, lo, hi)
    return out


@functools.lru_cache(maxsize=None)
def _pair_sums(k1, k2, K):
    """The full-spectrum pairs (s1 k1, s2 k2) of two stored modes whose sum
    is stored, 0 <= s1 k1 + s2 k2 <= K: tuples (s1 < 0, s2 < 0, key).  A
    zero mode has only its + sign."""
    out = []
    for s1 in (1, -1) if k1 else (1,):
        for s2 in (1, -1) if k2 else (1,):
            k = s1 * k1 + s2 * k2
            if 0 <= k <= K:
                out.append((s1 < 0, s2 < 0, ((k,), (), ())))
    return tuple(out)


class _FineSums:
    """The fine-grid sums of one product or bracket: one stack with a row
    per output key, in the order the products first reach them.  The keys
    are counted up front from the operands' stored keys (with _pair_sums),
    so the stack has exactly as many rows as the result has keys; a row is
    written by the first product that reaches it and added to after."""

    def __init__(self, like, K, term_keys):
        """term_keys: per term, the stored keys of its two pieces."""
        rows = {}
        for keys_a, keys_b in term_keys:
            for (k1,), _, _ in keys_a:
                for (k2,), _, _ in keys_b:
                    for _, _, key in _pair_sums(k1, k2, K):
                        rows.setdefault(key, len(rows))
        self.K = K
        self.rows = rows
        self.unwritten = [True] * len(rows)
        fine = tuple(ch.fine_size(n) for n in like.grid_shape)
        self.stack = np.empty((len(rows),) + fine, complex)


def _add_products(acc, sign, pa, pb):
    """Add the mode-convolution products sign * a * b of the pieces pa and
    pb (stored key -> refined array) to the rows of acc, a _FineSums: exact
    mode arithmetic over the full spectrum (a stored k stands for k and,
    conjugated, -k), only the sums 0 <= k <= acc.K kept.

    The first product of a row is written into the row itself; every
    other product goes through one buffer, reused for the whole call, and
    so does each conjugate a pair reads (one buffer per operand, an array of
    pa conjugated once for all of pb).  The buffers live for one call only:
    sharing them across a bracket's four calls raised its peak from 3.85 to
    4.45 refined stacks of a 5-key operand."""
    rows, unwritten, stack = acc.rows, acc.unwritten, acc.stack
    prod = x_buf = y_buf = None
    for ((k1,), _, _), x in pa.items():
        xc = None
        for ((k2,), _, _), y in pb.items():
            yc = None
            for conj_a, conj_b, key in _pair_sums(k1, k2, acc.K):
                if conj_a and xc is None:
                    xc = x_buf = np.conj(x, out=x_buf)
                if conj_b and yc is None:
                    yc = y_buf = np.conj(y, out=y_buf)
                # np.multiply, not x * y.conj(): the operator may reuse the
                # temporary with its operands swapped, and a complex product
                # with FMA is not bitwise commutative
                u, v = xc if conj_a else x, yc if conj_b else y
                r = rows[key]
                if unwritten[r]:
                    unwritten[r] = False
                    row = np.multiply(u, v, out=stack[r])
                    if sign < 0:
                        np.negative(row, out=row)
                    continue
                prod = np.multiply(u, v, out=prod)
                if sign > 0:
                    stack[r] += prod
                else:
                    stack[r] -= prod


def _projected(acc, like):
    """The series of like's shape and cutoff acc.K whose coefficients are
    acc's rows, projected back to the grid in one pass over its stack (no
    copy: the stack holds exactly the result's keys)."""
    out = TFSeries(acc.K, like.box, like.grid_shape)
    if acc.rows:
        out.coeffs = dict(zip(acc.rows, ch.coarsen(acc.stack, like.grid_shape)))
    return out.prune()


def tf_product(f, g):
    """Mode-convolution product with de-aliased grid multiplication,
    truncated back to the operands' larger cutoff."""
    if not f.same_shape(g):
        raise ShapeError("multiplying incompatible series")
    acc = _FineSums(f, max(f.fourier_cutoff, g.fourier_cutoff), [(f.coeffs, g.coeffs)])
    _add_products(acc, 1, _refined(f), _refined(g))
    return _projected(acc, f)


def _refined(f):
    """f's stored coefficients by key, stacked and refined in one pass."""
    if not f.coeffs:
        return {}
    return dict(zip(f.coeffs, ch.refine(np.stack(list(f.coeffs.values())), lead=1)))


def _pieces(f):
    """f's pieces d_phi, d_I, d_y and d_x, in that order, each a map
    {stored key: refined array} made when it is asked for: d_phi is i k
    times the refined values (no k = 0 key), the others are the grid
    derivatives refined.

    The coarse stack c is refined along x once, A = R_x c, and d_phi =
    R_I R_y (i k A), d_I = (R_I D_I) R_y A and d_y = R_I (R_y D_y) A are
    built from A, each R D one cached matrix (ch.refined_diff_matrix); A is
    then dropped and d_x = R_I R_y (R_x D_x) c.  That is 10 axis products
    and no differentiation pass.  No local keeps a yielded stack, so a
    caller that drops a piece frees it before the next one is built."""
    keys = list(f.coeffs)
    if not keys:
        yield from ({},) * 4
        return
    box_I, box_y, box_x = f.box
    c = np.stack(list(f.coeffs.values()))
    a = ch.refine_axis(c, 3)
    osc = [r for r, ((k,), _, _) in enumerate(keys) if k]
    ik = np.array([1j * keys[r][0][0] for r in osc]).reshape(-1, 1, 1, 1)
    # out of place: scaled in place, a criterion-8 CLI pass took 5,900-7,700
    # minor page faults instead of 3-1,270 (where the allocator puts stacks)
    yield dict(zip([keys[r] for r in osc], ch.refine_axis(ch.refine_axis(a[osc] * ik, 2), 1)))
    yield dict(zip(keys, ch.refine_axis(ch.refine_axis(a, 2), 1, box_I)))
    yield dict(zip(keys, ch.refine_axis(ch.refine_axis(a, 2, box_y), 1)))
    del a
    yield dict(zip(keys, ch.refine_axis(ch.refine_axis(ch.refine_axis(c, 3, box_x), 2), 1)))


class _BracketSide:
    """What one series f contributes to a Poisson bracket {f, g} =
    d_I f d_phi g - d_I g d_phi f - d_y g d_x f + d_y f d_x g: its four
    pieces (see _pieces), built once.  A side serves every bracket it
    enters, as the generator of a Lie series does, while the other operand
    is streamed (see bracket)."""

    def __init__(self, f):
        self.series = f
        self.d_phi, self.d_I, self.d_y, self.d_x = _pieces(f)

    def bracket(self, g):
        """{f, g} with f this side's series and g a series.

        g is streamed: its pieces are pulled in the order _pieces makes
        them, and the terms run in that order, so each piece is dropped
        once its term is summed and the bracket holds one refined stack of
        g at a time (with, until d_x, g's x-refined coarse stack).  The
        output keys are counted before any product, and the products are
        summed into the rows of one fine stack that is coarsened as it is.
        A stack refines to the same bits alone as within a larger one, so
        the result is bitwise that of building both operands' four pieces
        at once.  (A stack of one x line, refined by a matrix-vector
        product, is the exception; but on a grid with I and y axes of
        length 1 every term has a zero factor.)"""
        f = self.series
        if not f.same_shape(g):
            raise ShapeError("bracket of incompatible series")
        K = max(f.fourier_cutoff, g.fourier_cutoff)
        f_keys, g_keys = list(f.coeffs), list(g.coeffs)
        g_osc = [key for key in g_keys if key[0][0]]  # the keys of g's d_phi
        acc = _FineSums(f, K, [(f_keys, g_osc), (g_keys, self.d_phi),
                               (g_keys, f_keys), (f_keys, g_keys)])
        g_pieces = _pieces(g)
        _add_products(acc, 1, self.d_I, next(g_pieces))
        _add_products(acc, -1, next(g_pieces), self.d_phi)
        _add_products(acc, -1, next(g_pieces), self.d_x)
        _add_products(acc, 1, self.d_y, next(g_pieces))
        return _projected(acc, f)


def poisson_bracket(f, g):
    """{f, g} = d_I f d_phi g - d_I g d_phi f + d_y f d_x g - d_y g d_x f,
    with exact mode arithmetic in k, spectral differentiation on the
    Chebyshev grids, and truncation back to the operands' larger cutoff, as
    for tf_product."""
    return _BracketSide(f).bracket(g)


# ---------------- frequencies and the NQP primitive ----------------


@dataclass(frozen=True)
class FrequencyData:
    """Frequencies of the drift part, tabulated on the (I, y) grid.

    omega_y must be finite and bounded away from zero on the box; omega_I
    (a finite array, or None for identically zero) enters the mode
    eigenvalue lambda_k = i k omega_I.
    """

    omega_y: np.ndarray
    omega_I: np.ndarray = None

    @classmethod
    def tabulate(cls, box, grid_shape, omega_y, omega_I=()):
        """Evaluate callables of (I, y) on the grid of a series shape;
        omega_I is a sequence of at most one callable."""
        if len(omega_I) > 1:
            raise ValueError("one angle: omega_I takes at most one callable")
        axes = [ch.nodes(g, lo, hi) for g, (lo, hi) in zip(grid_shape[:-1], box[:-1])]
        mesh = np.meshgrid(*axes, indexing="ij")

        def table(w):
            return np.asarray(w(*mesh), dtype=float) + np.zeros(mesh[0].shape)

        wy = table(omega_y)
        wI = table(omega_I[0]) if omega_I else None
        # negated, so that a NaN fails the guard
        if not np.min(np.abs(wy)) >= 1e-14:
            raise ValueError("omega_y vanishes or is not finite on the box")
        if wI is not None and not np.all(np.isfinite(wI)):
            raise ValueError("omega_I is not finite on the box")
        return cls(wy, wI)


def mode_eigenvalue(freqs, k):
    """lambda_k = i k omega_I on the (I, y) grid."""
    lam = np.zeros_like(freqs.omega_y, dtype=complex)
    if k and freqs.omega_I is not None:
        lam += 1j * k * freqs.omega_I
    return lam


def nqp_primitive(f_osc, freqs):
    """Small-divisor-free solution of the homological equation.

    For each oscillatory mode, omega_y d_x phi_k + lambda_k phi_k = f_k with
    phi_k = 0 at the lower edge of the x box, in its integral form along x,

        (1 + mu S) phi_k = S f_k / omega_y,   mu = lambda_k / omega_y,

    where S = chebyshev.integration_matrix integrates the Chebyshev
    interpolant along x from that edge to every node, so the primitive is
    exact on the interpolant at any number of x nodes.  Where mu vanishes
    this is one product along x; otherwise one solve of (1 + mu S) per
    (I, y) node.  Requires the average part of f_osc to vanish.  Only the
    stored modes are solved: omega_I is real, so lambda_{-k} =
    conj(lambda_k) and phi_{-k} = conj(phi_k).
    """
    avg, osc = tf_average_split(f_osc)
    if avg.sup() > 1e-13 * max(1.0, f_osc.sup()):
        raise ValueError("nqp_primitive needs a zero-average input")
    S = ch.integration_matrix(f_osc.grid_shape[-1], *f_osc.box[-1])
    out = f_osc.shell()
    inv_wy = 1.0 / freqs.omega_y
    for key, arr in osc.coeffs.items():
        mu = mode_eigenvalue(freqs, key[0][0]) * inv_wy  # (I, y)
        phi = (arr @ S.T) * inv_wy[..., None]
        if np.any(mu):
            phi = np.linalg.solve(np.eye(len(S)) + mu[..., None, None] * S, phi[..., None])[..., 0]
        out.coeffs[key] = phi
    return out


def homological_residual(phi, f_osc, freqs):
    """Residual series omega_y d_x(phi) + lambda phi - f_osc (gridwise, on
    the stored modes)."""
    res = phi.shell()
    dphi = d_grid(phi, 2)
    keys = set(phi.coeffs) | set(f_osc.coeffs) | set(dphi.coeffs)
    zero = np.zeros(phi.grid_shape, complex)
    for key in keys:
        lam = mode_eigenvalue(freqs, key[0][0])
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
# relative size (to the chain's first term) at which a Lie chain stops
LIE_STOP_FLOOR = 1e-16
# most Lie orders of each chain in a normal-form step
STEP_LIE_ORDER = 14
# relative size (to step 0's f_norm) at or below which a step's osc is
# rounding: input changes at rounding level move the osc of later steps by
# up to 6.2e-14 of f_norm (criterion 8, CLI default and benchmark job), and
# such a step's contraction is not checked
OSC_ROUNDING_FLOOR = 1e-12


@dataclass
class LieReport:
    orders: int
    term_norms: list
    ratio: float
    tail_bound: float


def _lie_chain(L, H, max_order, s):
    """Terms L^j(H)/j!, j = 0, 1, ..., of the time-one Lie flow of the
    generator whose bracket side is L, with their LieReport.

    The chain stops once a term falls to LIE_STOP_FLOOR of H's norm.  The
    measured geometric ratio of successive term norms must stay below 1
    (broken contraction raises ContractionError); the reported tail bound is
    last * ratio / (1 - ratio).  Ratio and last term are taken over the
    terms above LIE_RATIO_FLOOR of H's norm only: the terms below it are
    roundoff, and their ratios move by percents under input changes at
    roundoff level.
    """
    terms = [H]
    norms = [tf_norm(H, s)]
    base = norms[0] if norms[0] > 0 else 1.0
    ratio = 0.0
    last = norms[0]
    for order in range(1, max_order + 1):
        term = L.bracket(terms[-1]) * (1.0 / order)
        n = tf_norm(term, s)
        norms.append(n)
        terms.append(term)
        if n <= LIE_STOP_FLOOR * base:
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
    if ratio >= 1 and norms[-1] > LIE_STOP_FLOOR * base:
        raise ContractionError("measured Lie contraction factor %.3f >= 1" % ratio)
    return terms, LieReport(len(norms) - 1, norms, ratio, tail)


def _weighted_sum(terms, weights):
    """sum_j weights[j] * terms[j], accumulated in order."""
    total = terms[0] * weights[0]
    for w, term in zip(weights[1:], terms[1:]):
        total = total + term * w
    return total.prune()


def lie_transform(H, phi):
    """Time-one Lie flow sum_{j<=STEP_LIE_ORDER} L_phi^j H / j! and its
    LieReport (contraction guard and tail bound as in _lie_chain, norms with
    width PLAIN_S)."""
    terms, report = _lie_chain(_BracketSide(phi), H, STEP_LIE_ORDER, PLAIN_S)
    return _weighted_sum(terms, [1.0] * len(terms)), report


def build_secular_perturbation(spec, eps0, alpha_minus, alpha_plus, delta,
                               grid_shape=(8, 8, 16), fourier_cutoff=8):
    """Band-limited series of the action-angle perturbation of the reduced
    Hamiltonian (hamiltonians.aa_perturbation_at) on the libration domain
    D of hamiltonians.libration_box.

    The box is D's (Gcal, y, x) intervals; the full energy is
    -m0^5/(2 y^2) + the returned series, and the matching drift frequency is
    omega_y = m0^5/y^3, with omega_I absent (the drift has no Gcal
    frequency).  A D outside the chart is a ValueError.  The angle gamma is
    sampled at n_phi = max(64, 4 (fourier_cutoff + 1)) points, a multiple
    of 4.

    Returns (series, FrequencyData).  An alpha_minus or alpha_plus that
    puts eps = a/r, omega_y or y^3 past the float range on the box, or an
    alpha_minus that puts some |s_j| a/r at or past f_eps's bound 1/2
    there, is a ValueError naming it, raised before any grid is filled.
    """
    m0 = spec.m0
    box = libration_box(spec, eps0, alpha_minus, alpha_plus, delta)
    (_, (y_lo, y_hi), (x_edge, _)) = box

    def past_range(values):
        # Python floats raise or give inf where the grids' arrays would
        # overflow with a warning
        try:
            return not all(v < math.inf for v in values())
        except (OverflowError, ZeroDivisionError):
            return True

    # r grows with y and with 1 - cos xi, least at the x window's edges, so
    # eps = a/r and omega_y = m0^5/y^3 peak at the lowest y there
    if past_range(lambda: (spec.a / radial_radius(m0, y_lo, x_edge), m0**5 / y_lo**3)):
        raise ValueError("alpha_minus=%r puts eps = a/r or omega_y = m0^5/y^3 past the "
                         "float range on the box" % (alpha_minus,))
    # so every f_{s_j eps}, defined for |s_j eps| < 1/2, is checked there
    eps_top = max(abs(s) for _, s in spec.terms()) * (spec.a / radial_radius(m0, y_lo, x_edge))
    if not eps_top < 0.5:
        raise ValueError("alpha_minus=%r puts max_j |s_j| a/r = %r at or past the f_eps "
                         "bound 1/2 on the box" % (alpha_minus, float(eps_top)))
    if past_range(lambda: (y_hi**3,)):
        raise ValueError("alpha_plus=%r puts y^3 = (m0^3 alpha_plus)^1.5 past the float "
                         "range on the box" % (alpha_plus,))

    # gamma enters only through cos^2(gamma), which is pi-periodic and even:
    # under exact symmetry sample k equals sample fold(k) <= P/2 (P = n_phi/2
    # folds both symmetries), so the perturbation is evaluated on those
    # columns and copied to the others
    n_phi = max(64, 4 * (fourier_cutoff + 1))
    P = n_phi // 2
    k = np.arange(n_phi) % P
    fold = np.minimum(k, P - k)
    cols = slice(0, P // 2 + 1)

    def fun(Gc, gam, y, x):
        # r depends on (y, x) alone: one Kepler solve on the mesh's x axis
        pert = aa_perturbation_at(spec, Gc, gam[:, cols], radial_radius(m0, y, x))
        # np.take keeps the result C-ordered for the FFT
        return np.take(pert, fold, axis=1)

    series = tf_build(fun, box, grid_shape, fourier_cutoff=fourier_cutoff, n_phi=n_phi)
    freqs = FrequencyData.tabulate(box, grid_shape, lambda I, y: m0**5 / y**3)
    return series, freqs


# ---------------- serialization ----------------


def series_to_dict(f):
    """Shape header (n_angles is always 1) + the stored (k >= 0) modes, each
    mode's "re" and "im" a new 1-D float64 array in row-major grid order,
    never a view of f.  json.dumps needs default=np.ndarray.tolist for them
    (floats survive the round trip bit-for-bit via repr, comfortably within
    the 1e-15 relative contract)."""
    return {
        "n_angles": 1,
        "fourier_cutoff": f.fourier_cutoff,
        "box": [list(b) for b in f.box],
        "grid_shape": list(f.grid_shape),
        "coeffs": [
            {
                "k": [k],
                "h": [],
                "j": [],
                "re": arr.real.flatten(),
                "im": arr.imag.flatten(),
            }
            for ((k,), _, _), arr in sorted(f.coeffs.items())
        ],
    }


def series_from_dict(d):
    """Inverse of series_to_dict, through the TFSeries key and shape checks
    (header fields it does not read are ignored).  An n_angles other than 1,
    a cutoff that is not an int >= 0, a box edge that is not finite or a box
    interval that is not increasing, a grid axis that is not an int >= 1, a
    mode that is not an int within the cutoff, a k < 0 mode, a mode given
    twice and a non-finite value are each a ShapeError."""
    cutoff = d["fourier_cutoff"]
    if not (_is_int(d["n_angles"]) and d["n_angles"] == 1):
        raise ShapeError("a series has one angle, not n_angles = %r" % (d["n_angles"],))
    if not (_is_int(cutoff) and cutoff >= 0):
        raise ShapeError("fourier_cutoff %r is not an int >= 0" % (cutoff,))
    for lo, hi in d["box"]:
        if not (_is_real(lo) and _is_real(hi) and math.isfinite(lo) and lo < hi < math.inf):
            raise ShapeError("box interval [%r, %r] is not finite and increasing" % (lo, hi))
    shape = tuple(d["grid_shape"])
    if not all(_is_int(n) and n >= 1 for n in shape):
        raise ShapeError("grid_shape %r is not of ints >= 1" % (d["grid_shape"],))
    entries = {}
    for entry in d["coeffs"]:
        re = np.asarray(entry["re"], dtype=float)
        im = np.asarray(entry["im"], dtype=float)
        if re.size != math.prod(shape) or im.size != re.size:
            raise ShapeError("coefficient of %d values on a %r grid" % (re.size, shape))
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise ShapeError("non-finite coefficient of mode %r" % (entry["k"],))
        key = (tuple(entry["k"]), tuple(entry["h"]), tuple(entry["j"]))
        if key in entries:
            raise ShapeError("two entries for mode %r" % (key[0],))
        entries[key] = (re + 1j * im).reshape(shape, order="C")
    return TFSeries(cutoff, [tuple(b) for b in d["box"]], shape, entries)


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
    # the LieReport of the step's one chain, on q = {phi, g + f} - osc;
    # terms down to the LIE_STOP_FLOOR stop, a rounding-level threshold: the
    # count can move by one when the input changes at rounding level
    lie_orders: int = 0
    lie_ratio: float = 0.0
    lie_tail_bound: float = 0.0


@dataclass
class NormalFormResult:
    g_star: "TFSeries"
    f_star: "TFSeries"
    steps: list = field(default_factory=list)


def _step_remainder(osc, g_new, freqs, s, residual_rtol, step):
    """One homological step's remainder f_next, with its relative
    homological residual and the LieReport of its chain.

    The generator phi, its bracket side, the bracket b and the chain are
    this function's locals, so all of them are gone once it returns, before
    the next step builds its own."""
    phi = nqp_primitive(osc, freqs)
    rel_res = homological_residual(phi, osc, freqs).sup() / max(osc.sup(), 1e-300)
    if residual_rtol is not None and rel_res > residual_rtol:
        raise ContractionError(
            "homological residual %.3e above tolerance %.1e at step %d"
            % (rel_res, residual_rtol, step)
        )
    # H = h + g_new + osc and L = {phi, .}: the identity L(h) = -osc
    # gives L(H) = b - osc = q with b = {phi, g_new + osc}, so
    #   e^{L} H = H + sum_{j>=0} L^j(q)/(j+1)! = h + g_new + f_next,
    #   f_next = b + sum_{j>=1} L^j(q)/(j+1)!
    # One chain of terms L^j(q)/j!, weighted 1/(j+1); phi's side of the
    # bracket is built once.
    L = _BracketSide(phi)
    b = L.bracket(g_new + osc)
    chain, lie = _lie_chain(L, b - osc, STEP_LIE_ORDER, s)
    tail = [1.0 / (j + 1) for j in range(1, len(chain))]
    return (b + _weighted_sum(chain[1:], tail)).prune(1e-300), rel_res, lie


def normal_form_steps(f, freqs, N, s=PLAIN_S, residual_rtol=None):
    """Iterate the homological step N times.

    Each step splits f into average + oscillatory parts, solves the
    homological equation for the generator by nqp_primitive, pushes the
    Hamiltonian through the time-one flow and accumulates the average into
    the normal part g.  The drift-part bracket {phi, h} is replaced by its
    defining identity -(oscillatory part), so h never needs differencing.
    Returns the accumulated g*, the final remainder f*, and per-step norms;
    every step's norms are tf_norm's with the one angular width s.  A step
    whose contraction (its remainder's osc over its own) is >= 1 raises
    ContractionError, unless its osc is at most OSC_ROUNDING_FLOOR of step
    0's f_norm.

    The run holds one step's generator at a time: a step's generator,
    bracket side, bracket and Lie chain live in _step_remainder and are
    released when it returns, so at most one bracket side is alive.  f is
    read, never copied or written (it may be read-only); with N = 0, f* is f
    itself.
    """
    g = f.shell()
    fj = f
    f0_norm = tf_norm(f, s)
    steps = []
    for step in range(N):
        avg, osc = tf_average_split(fj)
        osc_norm = tf_norm(osc, s)
        f_norm = tf_norm(fj, s)
        g = (g + avg).prune()
        if osc_norm == 0.0:
            fj = fj.shell()
            steps.append(NormalFormStep(step, f_norm, 0.0, 0.0, 0.0))
            break
        fj, rel_res, lie = _step_remainder(osc, g, freqs, s, residual_rtol, step)
        contraction = tf_norm(tf_average_split(fj)[1], s) / osc_norm
        if contraction >= 1 and osc_norm > OSC_ROUNDING_FLOOR * f0_norm:
            raise ContractionError(
                "normal-form step %d grew the angle-dependent part: contraction %.3g >= 1"
                % (step, contraction)
            )
        steps.append(NormalFormStep(step, f_norm, osc_norm, rel_res, contraction,
                                    lie.orders, lie.ratio, lie.tail_bound))
    return NormalFormResult(g, fj, steps)
