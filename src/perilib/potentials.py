"""Rescaled averaged potentials of the planar problem.

u_hat is the mean over one inner orbit of the reciprocal distance between the
outer body and the moving inner body, rescaled by the radius; e_hat is the
quadratic first integral that generates the same level sets; f_eps is the
single-integral renormalizing profile with a closed form at t = 1.  The key
numerical fact exercised throughout: u_hat = f_eps composed with e_hat.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

RADICAND_FLOOR = 1e-10
ROW_BLOCK = 32  # rows of u_hat's stack per pass: small temporaries, low peak memory
# f_eps picks its periodic-trapezoid rule per (eps, t) from this ladder.  The
# rule converges like exp(-a n), a the half-width of the strip around the
# real xi axis where the integrand is analytic (Trefethen & Weideman, SIAM
# Review 56 (2014)).  The integrands carry X^2 = (1 - cos xi)^2, which grows
# like exp(2 |Im xi|) across the strip, so the error is nearer
# exp(-a (n - 2)): n is the smallest rung with a (n - 2) >= _MARGIN, 1.25
# times the ln(1e16) that exp(-a n) = 1e-16 asks for, since that prediction
# fell 5-25% short of the measured need.  Past N_MAX the point is too close
# to the singular locus and f_eps raises SingularLocusError.
N_LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)
N_MAX = N_LADDER[-1]
_MARGIN = 1.25 * math.log(1e16)
# a >= _MARGIN/(n - 2) as beta >= cosh(_MARGIN/(n - 2)), beta = cosh(a)
# (see _strip_beta)
_BETA_MIN = tuple(math.cosh(_MARGIN / (n - 2)) for n in N_LADDER)
_BETA_ASCENDING = np.array(_BETA_MIN[::-1])


class SingularLocusError(ArithmeticError):
    """Evaluation attempted too close to the holomorphy-loss locus."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Periodic-trapezoid rule on [0, 2*pi): n_nodes equispaced nodes."""

    n_nodes: int = 256

    def __post_init__(self):
        if self.n_nodes < 32 or self.n_nodes % 2:
            raise ValueError("n_nodes must be even and >= 32")


DEFAULT_QUAD = QuadratureSpec()


@lru_cache(maxsize=32)
def _xi_nodes(n):
    xi = 2 * np.pi * np.arange(n) / n
    return xi, np.cos(xi), np.sin(xi)


@lru_cache(maxsize=32)
def _half_range(n):
    """(X, wX) pairs, as floats, on the nodes xi_0 ... xi_{n/2} of the n-node
    rule: X = 1 - cos(xi) and X times the folded trapezoid weights
    (1, 2, ..., 2, 1)/n.

    The f_eps integrands depend on xi only through X, which is even about
    pi, so the periodic rule's nodes xi and 2 pi - xi carry equal values and
    each pair is summed once with weight 2/n.
    """
    _, cxi, _ = _xi_nodes(n)
    X = 1.0 - cxi[: n // 2 + 1]
    w = np.full(X.size, 2.0 / n)
    w[0] = w[-1] = 1.0 / n
    return tuple(zip(X.tolist(), (w * X).tolist()))


def _e_hat_and_e(eps, Lambda, G, g):
    """(e_hat, eccentricity) at arrays G, g, bitwise as on floats: G^2 by libm's
    pow, as Python takes it (numpy's G**2 is G*G, a last bit off on ~0.1%)."""
    u2 = np.float_power(G, 2) / Lambda**2
    e = np.sqrt(np.maximum(0.0, 1.0 - u2))
    return e * np.cos(g) + eps * u2, e


def _u_hat_stack(eps, Lambda, G, g, e, n):
    """(u_hat, least radicand) at each pair of arrays G, g of eccentricity e:
    n nodes a row, ROW_BLOCK rows a pass, each row a lone pair's operations."""
    _, cxi, sxi = _xi_nodes(n)
    es, Gs, gs = (np.reshape(x, (-1, 1)) for x in (e, G, g))
    out = np.empty((2, es.size))
    for at in (slice(b, b + ROW_BLOCK) for b in range(0, es.size, ROW_BLOCK)):
        rho = 1.0 - es[at] * cxi
        p = (cxi - es[at]) * np.cos(gs[at]) - (Gs[at] / Lambda) * sxi * np.sin(gs[at])
        rad = 1.0 + 2 * eps * p + eps**2 * rho**2
        with np.errstate(divide="ignore", invalid="ignore"):  # a row below the floor is refused
            out[:, at] = np.mean(rho / np.sqrt(rad), axis=1), rad.min(axis=1)
    return out.reshape((2, *np.shape(G)))


def u_hat(eps, Lambda, G, g, quad=DEFAULT_QUAD):
    """Rescaled averaged potential (1/2pi) * integral dl / sqrt(1 + 2 eps p + eps^2 rho^2).

    Evaluated in the eccentric anomaly (dl = rho dxi), where the integrand is
    analytic uniformly in the eccentricity, so the periodic trapezoid rule
    converges spectrally even at e = 1.  Arrays G, g broadcast to a stack of
    rows, each bitwise its value alone; the first row with a radicand below
    the floor raises.
    """
    G, g = np.broadcast_arrays(np.asarray(G, float), np.asarray(g, float))
    e = _e_hat_and_e(eps, Lambda, G, g)[1]
    vals, rad_min = _u_hat_stack(eps, Lambda, G, g, e, quad.n_nodes)
    low = np.flatnonzero(rad_min < RADICAND_FLOOR)
    if low.size:
        i = low[0]
        raise SingularLocusError(
            "u_hat radicand %.3e below floor (eps=%r, G=%r, g=%r)"
            % (rad_min.flat[i], eps, float(G.flat[i]), float(g.flat[i]))
        )
    return float(vals) if vals.ndim == 0 else vals


def e_hat(eps, Lambda, G, g):
    """sqrt(1 - G^2/Lambda^2) cos(g) + eps G^2/Lambda^2."""
    u2 = G**2 / Lambda**2
    return np.sqrt(np.maximum(0.0, 1.0 - u2)) * np.cos(g) + eps * u2


def e_hat_aa(eps, Lambda, Gcal, gamma):
    """The same first integral in the action-angle chart:
    Gcal/Lambda + eps (1 - Gcal^2/Lambda^2) cos^2(gamma)."""
    u = Gcal / Lambda
    return u + eps * (1.0 - u**2) * np.cos(gamma) ** 2


def _node_sums(eps, t, n, grad=False, floor=None):
    """The f_eps quadrature: f_eps(eps, t) - 1 without cancellation,

      (1/2pi) * integral X u / (sqrt(rad) (1 + sqrt(rad))) dxi,

    with X = 1 - cos(xi), u = 2 eps X t - eps^2 X^2 and rad = 1 - u, exact
    at eps -> 0.  With grad, also the partials by differentiation under the
    integral, d/dt = (1/2pi) * integral eps X^2 rad^{-3/2} dxi and
    d/deps = (1/2pi) * integral X^2 (t - eps X) rad^{-3/2} dxi.

    The integrals are the n-node periodic trapezoid rule summed node by node
    over its half range (see _half_range).  eps and t are floats (math.sqrt,
    float results) or (m,) arrays (np.sqrt, (m,) results); both take the
    same operations in the same order, so they agree bitwise.  With floor
    (floats only), a radicand below it (or NaN) raises SingularLocusError.

    Far below t = -1, where eps t < -1 (at every point of an array; the grid
    path groups them), f_eps is about 1/2 or less and the integrand of
    f_eps - 1 is near -X at every node: its sum, of order 1, left f_eps
    2.7e-14 off at (eps, t) = (0.46, -966).  There the rule sums f_eps's own integrand X / sqrt(rad) and
    subtracts 1 once.  Real states have |t| <= 1, so they never take it.
    """
    if isinstance(eps, np.ndarray):
        sqrt, far = np.sqrt, bool(np.all(eps * t < -1.0))
    else:
        sqrt, far = math.sqrt, eps * t < -1.0
    fm1 = ft = fe = 0.0
    for x, wx in _half_range(n):
        ex = eps * x
        u = 2.0 * ex * t - ex * ex
        rad = 1.0 - u
        if floor is not None and not rad >= floor:
            raise SingularLocusError("f_eps radicand %.3e below floor at %d nodes" % (rad, n))
        s = sqrt(rad)
        if far:
            fm1 += wx / s
        else:
            fm1 += wx * u / (s * (1.0 + s))
        if grad:
            w2 = wx * x / (rad * s)
            ft += eps * w2
            fe += w2 * (t - ex)
    if far:
        fm1 = fm1 - 1.0
    return (fm1, ft, fe) if grad else fm1


def _strip_beta(eps, t):
    """cosh of the strip half-width a of the f_eps integrand at (eps, t):
    beta = (|w + 1| + |w - 1|)/2 at w = cos(xi*) = 1 - X*, minimised over the
    roots X* of 1 - 2 eps t X + eps^2 X^2 (for t^2 < 1 a conjugate pair with
    one beta; else the real root nearer 1, 1/(eps (t + sign(t) sqrt(t^2 - 1))),
    taken without cancellation).  Floats or (m,) arrays, bitwise alike:
    moduli as sqrt(re re + im im), never **2.  eps = 0 has no root (an
    infinite strip); non-finite t gives NaN or beta = 1, which no rung meets.
    """
    if isinstance(eps, np.ndarray):
        with np.errstate(all="ignore"):  # overflow is a wide strip; NaN fails later
            zero = eps == 0.0
            e = np.where(zero, 1.0, eps)
            d = t * t - 1.0
            inside = d < 0.0
            root = np.sqrt(np.abs(d))
            re = np.where(inside, t / e, 1.0 / (e * (t + np.copysign(root, t))))
            im = np.where(inside, root / e, 0.0)
            beta = 0.5 * (np.sqrt((2.0 - re) * (2.0 - re) + im * im)
                          + np.sqrt(re * re + im * im))
            return np.where(zero, t * 0.0 + np.inf, beta)
    if eps == 0.0:
        return t * 0.0 + math.inf
    d = t * t - 1.0
    if d < 0.0:
        re, im = t / eps, math.sqrt(-d) / eps
    else:
        re, im = 1.0 / (eps * (t + math.copysign(math.sqrt(d), t))), 0.0
    return 0.5 * (math.sqrt((2.0 - re) * (2.0 - re) + im * im)
                  + math.sqrt(re * re + im * im))


def _too_close(eps, t):
    where = abs(t - singularity_t(eps)) if eps != 0.0 else math.nan
    return SingularLocusError(
        "f_eps at (eps=%r, t=%r) needs more than N_MAX = %d nodes: "
        "|t - singularity_t(eps)| = %.3e" % (eps, t, N_MAX, where))


def _n_nodes(eps, t):
    """The smallest rung of N_LADDER whose rule meets the margin at the
    float point (eps, t); SingularLocusError when none does."""
    beta = _strip_beta(eps, t)
    for n, beta_min in zip(N_LADDER, _BETA_MIN):
        if beta >= beta_min:
            return n
    raise _too_close(eps, t)


def _f_minus_one(eps, t, grad=False, n_nodes=None):
    """f_eps(eps, t) - 1 (and with grad its t- and eps-partials) at one
    point, by the rung _n_nodes picks, or by the n_nodes-node rule under the
    radicand floor.  This, f_eps_at_one and f_eps_minus_one_grid are the
    only places in this module that check |eps| < 1/2; the check is a
    negated comparison, so NaN fails it too."""
    eps, t = float(eps), float(t)
    if not abs(eps) < 0.5:
        raise ValueError("f_eps requires |eps| < 1/2, got %r" % (eps,))
    if n_nodes is not None:
        return _node_sums(eps, t, n_nodes, grad, RADICAND_FLOOR)
    return _node_sums(eps, t, _n_nodes(eps, t), grad)


def f_eps(eps, t, quad=None):
    """Renormalizing profile
    (1/2pi) * integral (1 - cos xi) dxi / sqrt(1 - 2 eps (1-cos xi) t + eps^2 (1-cos xi)^2)
    for |eps| < 1/2 and (eps, t) off the singular locus.  The rule is picked
    from the integrand's analytic strip (see N_LADDER), unless a
    QuadratureSpec quad pins it; then a radicand below RADICAND_FLOOR
    raises SingularLocusError."""
    return 1.0 + _f_minus_one(eps, t, n_nodes=None if quad is None else quad.n_nodes)


def f_eps_at_one(eps):
    """Closed form of f_eps(eps, 1): 2 / (sqrt(1-2 eps) (1 + sqrt(1-2 eps))),
    for |eps| < 1/2 as f_eps."""
    if not abs(eps) < 0.5:
        raise ValueError("f_eps requires |eps| < 1/2, got %r" % (eps,))
    s = np.sqrt(1.0 - 2.0 * eps)
    return 2.0 / (s * (1.0 + s))


def f_eps_bundle(eps, t):
    """(f_eps, df/dt, df/deps) from one radicand evaluation (flow hot path)."""
    fm1, ft, fe = _f_minus_one(eps, t, grad=True)
    return 1.0 + fm1, ft, fe


def f_eps_minus_one(eps, t):
    """f_eps(eps, t) - 1 without cancellation; exact at eps -> 0."""
    return _f_minus_one(eps, t)


def f_eps_minus_one_grid(eps, t):
    """Broadcasted f_eps_minus_one over arrays of (eps, t): the points are
    grouped by the rung they need and each group runs the scalar path's
    node loop on vectors, so every value equals the scalar one bitwise.  A
    single point (a one-state energy) takes the scalar path itself, where
    each node costs float operations instead of ufunc calls."""
    eps_b, t_b = np.broadcast_arrays(np.asarray(eps, float), np.asarray(t, float))
    e, tt = eps_b.ravel(), t_b.ravel()
    if e.size == 1:
        return np.full(eps_b.shape, _f_minus_one(e[0], tt[0]))
    if not np.all(np.abs(e) < 0.5):
        raise ValueError("f_eps requires |eps| < 1/2, got %r" % float(e[~(np.abs(e) < 0.5)][0]))
    beta = _strip_beta(e, tt)
    bad = ~(beta >= _BETA_MIN[-1])
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise _too_close(float(e[i]), float(tt[i]))
    rung = _BETA_ASCENDING.size - np.searchsorted(_BETA_ASCENDING, beta, side="right")
    group = 2 * rung + (e * tt < -1.0)  # and by the form _node_sums takes
    out = np.empty(e.size)
    for i in np.unique(group):
        at = group == i
        out[at] = _node_sums(e[at], tt[at], N_LADDER[i // 2])
    return out.reshape(eps_b.shape)


def singularity_t(eps):
    """The unique real t losing holomorphy: t = eps + 1/(4 eps) (root of
    4 eps^2 - 4 eps t + 1 = 0)."""
    if eps == 0:
        raise ValueError("eps = 0 has no singular t")
    return eps + 1.0 / (4.0 * eps)


def _draw_pairs(rng, k, G_max):
    """k (G, g) pairs: the draws of k alternating uniform(-G_max, G_max), uniform(-pi, pi)."""
    low = np.tile([-G_max, -np.pi], k)
    return rng.uniform(low, -low).reshape(k, 2).T


def check_renorm_identity(eps, Lambda=1.0, sample_n=100, quad=DEFAULT_QUAD, rng=None):
    """Max over random admissible (G, g) of |u_hat - f_eps(e_hat)|, u_hat by
    the rule of quad and f_eps by the rule it picks.

    Samples G uniform on (-Lambda, Lambda) and g uniform on (-pi, pi);
    samples whose radicand guard trips are redrawn (their count is second in
    the returned tuple).  Rounds stack the samples still needed: the draws,
    rejections and rng state are those of a one-at-a-time loop.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    rejected = 0
    done = 0
    while done < sample_n:
        G, g = _draw_pairs(rng, sample_n - done, Lambda)
        t, e = _e_hat_and_e(eps, Lambda, G, g)
        lhs, rad_min = _u_hat_stack(eps, Lambda, G, g, e, quad.n_nodes)
        # rejected: u_hat's radicand guard, or f_eps past N_MAX (see _n_nodes)
        beta = _strip_beta(np.full(t.size, float(eps)), t)
        ok = ~(rad_min < RADICAND_FLOOR) & (beta >= _BETA_MIN[-1])
        bad = np.flatnonzero(~ok)
        if rejected + bad.size > 100 * sample_n:
            # the rejection past the limit raises its own error, u_hat's or f_eps's
            i = bad[100 * sample_n - rejected]
            u_hat(eps, Lambda, G[i], g[i], quad)
            f_eps(eps, t[i])
        rejected += bad.size
        done += t.size - bad.size
        rhs = 1.0 + f_eps_minus_one_grid(eps, t[ok])
        worst = max([worst, *np.abs(lhs[ok] - rhs).tolist()])
    return worst, rejected


def check_renorm_commutation(eps, Lambda, n_points, quad, rng):
    """Max over n_points random (G, g), G uniform on (-0.9 Lambda, 0.9 Lambda)
    and g on (-pi, pi), of |{u_hat, e_hat}| = |du/dG de/dg - du/dg de/dG|
    by central differences of step 1e-5: the four shifted points per sample
    are one (n_points, 4) stack, so a guard trips where a loop would."""
    h = 1e-5
    G, g = _draw_pairs(rng, n_points, 0.9 * Lambda)
    G, g = G[:, None] + [h, -h, 0.0, 0.0], g[:, None] + [0.0, 0.0, h, -h]
    u, e = u_hat(eps, Lambda, G, g, quad), _e_hat_and_e(eps, Lambda, G, g)[0]
    # columns: the partials in G and in g
    du, de = (u[:, 0::2] - u[:, 1::2]) / (2 * h), (e[:, 0::2] - e[:, 1::2]) / (2 * h)
    return max([0.0, *np.abs(du[:, 0] * de[:, 1] - du[:, 1] * de[:, 0]).tolist()])
