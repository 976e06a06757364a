"""Rescaled averaged potentials of the planar problem.

u_hat is the mean over one inner orbit of the reciprocal distance between the
outer body and the moving inner body, rescaled by the radius; e_hat is the
quadratic first integral that generates the same level sets; f_eps is the
single-integral renormalizing profile with a closed form at t = 1.  The key
numerical fact exercised throughout: u_hat = f_eps composed with e_hat.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kepler import solve_kepler, solve_kepler_array, xi_prime_real

RADICAND_FLOOR = 1e-10
# (eps, t) points per quadrature pass of f_eps_minus_one_grid.  A pass's
# temporaries are points x (n_nodes/2 + 1) floats each, 64 x 129 x 8 B =
# 65 KiB at the default rule: they stay in cache and below glibc's default
# 128 KiB mmap threshold, so each pass reuses heap memory instead of
# mapping fresh pages.  On a 2-core Xeon (2 MiB L2), 2,000 points took
# 2.8 ms in passes of 64, 3.6 ms in passes of 32 and 7.5 ms in passes of
# 256; 87,040 points (the normal-form build) took 0.10-0.12 s and 0.26 s
_GRID_CHUNK = 64


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
    """X = 1 - cos(xi) on the nodes xi_0 ... xi_{n/2} of the n-node rule, and
    X times the folded trapezoid weights (1, 2, ..., 2, 1)/n.

    The f_eps integrands depend on xi only through X, which is even about
    pi, so the periodic rule's nodes xi and 2 pi - xi carry equal values and
    each pair is summed once with weight 2/n.  Both arrays are read-only.
    """
    _, cxi, _ = _xi_nodes(n)
    X = 1.0 - cxi[: n // 2 + 1]
    w = np.full(X.size, 2.0 / n)
    w[0] = w[-1] = 1.0 / n
    wX = w * X
    X.flags.writeable = False
    wX.flags.writeable = False
    return X, wX


def rho_p(Lambda, G, ell, g):
    """Radial factor rho = 1 - e cos(xi) and projection factor
    p = (cos(xi) - e) cos(g) - (G/Lambda) sin(xi) sin(g)
    at eccentric anomaly xi(e, ell)."""
    e = np.sqrt(max(0.0, 1.0 - G**2 / Lambda**2))
    if e == 1.0:
        # degenerate ellipse: xi - sin(xi) = ell
        k = np.floor(ell / (2 * np.pi))
        ell0 = ell - 2 * np.pi * k
        xi = (0.0 if ell0 == 0.0 else xi_prime_real(ell0)) + 2 * np.pi * k
    else:
        xi = solve_kepler(e, ell).xi
    rho = 1.0 - e * np.cos(xi)
    p = (np.cos(xi) - e) * np.cos(g) - (G / Lambda) * np.sin(xi) * np.sin(g)
    return rho, p


def u_hat(eps, Lambda, G, g, quad=DEFAULT_QUAD):
    """Rescaled averaged potential (1/2pi) * integral dl / sqrt(1 + 2 eps p + eps^2 rho^2).

    Evaluated in the eccentric anomaly (dl = rho dxi), where the integrand is
    analytic uniformly in the eccentricity, so the periodic trapezoid rule
    converges spectrally even at e = 1.
    """
    xi, cxi, sxi = _xi_nodes(quad.n_nodes)
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


def u_hat_mean_anomaly(eps, Lambda, G, g, quad=DEFAULT_QUAD):
    """u_hat by brute-force trapezoid in the mean anomaly itself.

    Loses spectral accuracy as e -> 1 (the integrand has a near-cusp at
    pericenter); kept as the independent cross-check of the change of
    variables used by u_hat.
    """
    n = quad.n_nodes
    ell = 2 * np.pi * np.arange(n) / n
    e = np.sqrt(max(0.0, 1.0 - G**2 / Lambda**2))
    xi = solve_kepler_array(e, ell)
    rho = 1.0 - e * np.cos(xi)
    p = (np.cos(xi) - e) * np.cos(g) - (G / Lambda) * np.sin(xi) * np.sin(g)
    rad = 1.0 + 2 * eps * p + eps**2 * rho**2
    if rad.min() < RADICAND_FLOOR:
        raise SingularLocusError("u_hat radicand below floor")
    return float(np.mean(1.0 / np.sqrt(rad)))


def e_hat(eps, Lambda, G, g):
    """sqrt(1 - G^2/Lambda^2) cos(g) + eps G^2/Lambda^2."""
    u2 = G**2 / Lambda**2
    return np.sqrt(np.maximum(0.0, 1.0 - u2)) * np.cos(g) + eps * u2


def e_hat_aa(eps, Lambda, Gcal, gamma):
    """The same first integral in the action-angle chart:
    Gcal/Lambda + eps (1 - Gcal^2/Lambda^2) cos^2(gamma)."""
    u = Gcal / Lambda
    return u + eps * (1.0 - u**2) * np.cos(gamma) ** 2


def _f_minus_one(eps, t, quad, grad=False):
    """The f_eps quadrature: f_eps(eps, t) - 1 without cancellation,

      (1/2pi) * integral X u / (sqrt(rad) (1 + sqrt(rad))) dxi,

    with X = 1 - cos(xi), u = 2 eps X t - eps^2 X^2 and rad = 1 - u, exact
    at eps -> 0.  With grad, also the partials by differentiation under the
    integral, d/dt = (1/2pi) * integral eps X^2 rad^{-3/2} dxi and
    d/deps = (1/2pi) * integral X^2 (t - eps X) rad^{-3/2} dxi.

    The integrals are the n-node periodic trapezoid rule of quad, summed
    over its half range (see _half_range).  eps and t are floats (float
    results) or (m, 1) columns ((m,) results).  This is the only place that
    checks |eps| < 1/2 and the radicand floor; both checks are negated
    comparisons, so NaN input fails them too.
    """
    if not np.abs(eps).max() < 0.5:
        raise ValueError("f_eps requires |eps| < 1/2, got %r" % (eps,))
    X, wX = _half_range(quad.n_nodes)
    eX = eps * X
    u = 2 * eX * t - eX**2
    rad = 1.0 - u
    if not rad.min() >= RADICAND_FLOOR:
        raise SingularLocusError(
            "f_eps radicand %.3e below floor (eps=%r, t=%r)" % (rad.min(), eps, t)
        )
    s = np.sqrt(rad)
    # weighted .sum, not a matrix product: the grid and scalar paths must
    # sum in the same order to agree bitwise
    fm1 = (wX * u / (s * (1.0 + s))).sum(axis=-1)
    if not grad:
        return fm1
    wX2m = wX * X / (rad * s)
    return fm1, (eps * wX2m).sum(axis=-1), (wX2m * (t - eps * X)).sum(axis=-1)


def f_eps(eps, t, quad=DEFAULT_QUAD):
    """Renormalizing profile
    (1/2pi) * integral (1 - cos xi) dxi / sqrt(1 - 2 eps (1-cos xi) t + eps^2 (1-cos xi)^2)
    for |eps| < 1/2 and (eps, t) off the singular locus."""
    return 1.0 + float(_f_minus_one(eps, t, quad))


def f_eps_at_one(eps):
    """Closed form of f_eps(eps, 1): 2 / (sqrt(1-2 eps) (1 + sqrt(1-2 eps)))."""
    if eps >= 0.5:
        raise ValueError("closed form requires eps < 1/2")
    s = np.sqrt(1.0 - 2.0 * eps)
    return 2.0 / (s * (1.0 + s))


def f_eps_bundle(eps, t, quad=DEFAULT_QUAD):
    """(f_eps, df/dt, df/deps) from one radicand evaluation (flow hot path)."""
    fm1, ft, fe = _f_minus_one(eps, t, quad, grad=True)
    return 1.0 + float(fm1), float(ft), float(fe)


def f_eps_minus_one(eps, t, quad=DEFAULT_QUAD):
    """f_eps(eps, t) - 1 without cancellation; exact at eps -> 0."""
    return float(_f_minus_one(eps, t, quad))


def f_eps_minus_one_grid(eps, t, quad=DEFAULT_QUAD):
    """Broadcasted f_eps_minus_one over arrays of (eps, t), chunked to bound memory."""
    eps_b, t_b = np.broadcast_arrays(np.asarray(eps, float), np.asarray(t, float))
    col_e = eps_b.reshape(-1, 1)
    col_t = t_b.reshape(-1, 1)
    out = np.empty(col_e.shape[0])
    for lo in range(0, out.size, _GRID_CHUNK):
        sl = slice(lo, lo + _GRID_CHUNK)
        out[sl] = _f_minus_one(col_e[sl], col_t[sl], quad)
    return out.reshape(eps_b.shape)


def singularity_t(eps):
    """The unique real t losing holomorphy: t = eps + 1/(4 eps) (root of
    4 eps^2 - 4 eps t + 1 = 0)."""
    if eps == 0:
        raise ValueError("eps = 0 has no singular t")
    return eps + 1.0 / (4.0 * eps)


def check_renorm_identity(eps, Lambda=1.0, sample_n=100, quad=DEFAULT_QUAD, rng=None):
    """Max over random admissible (G, g) of |u_hat - f_eps(e_hat)|.

    Samples G uniform on (-Lambda, Lambda) and g uniform on (-pi, pi);
    samples whose radicand guard trips are redrawn (their count is second in
    the returned tuple).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    rejected = 0
    done = 0
    while done < sample_n:
        G = rng.uniform(-Lambda, Lambda)
        g = rng.uniform(-np.pi, np.pi)
        try:
            lhs = u_hat(eps, Lambda, G, g, quad)
            rhs = f_eps(eps, e_hat(eps, Lambda, G, g), quad)
        except SingularLocusError:
            rejected += 1
            if rejected > 100 * sample_n:
                raise
            continue
        worst = max(worst, abs(lhs - rhs))
        done += 1
    return worst, rejected
