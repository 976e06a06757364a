"""Kepler equation solvers.

Two forms are needed: the classical elliptic equation xi - e sin(xi) = ell
for eccentricities 0 <= e < 1, and the zero-angular-momentum form
xi' - sin(xi') = x that parametrizes the radial (e = 1) orbit of the outer
body, including complex arguments on the analyticity strip of that orbit.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-14
MAX_ITER = 100
_CONTINUATION_STEPS = 8


class KeplerError(RuntimeError):
    """Raised when an iteration fails to reach the requested tolerance."""


@dataclass(frozen=True)
class KeplerSolution:
    """Solution record for one Kepler solve."""

    xi: float | complex
    residual: float
    iterations: int


def _newton_bisect(e, ell, lo, hi, xi, tol):
    """Guarded Newton for xi - e sin xi = ell on the bracket (lo, hi) from xi.

    Any iterate leaving the bracket is replaced by a bisection step, which
    keeps the method robust up to e = 1.  Returns (xi, |residual|,
    iterations) and raises KeplerError after MAX_ITER iterations.
    """
    for it in range(1, MAX_ITER + 1):
        f = xi - e * np.sin(xi) - ell
        if abs(f) <= tol:
            return xi, abs(f), it
        if f > 0:
            hi = xi
        else:
            lo = xi
        d = 1.0 - e * np.cos(xi)
        cand = xi - f / d if d > 1e-14 else np.nan
        xi = cand if lo < cand < hi else 0.5 * (lo + hi)
    raise KeplerError(
        "Kepler iteration did not converge: e=%r ell=%r residual=%.3e"
        % (e, ell, abs(f))
    )


def _newton_radial(x, tol):
    """The real branch of xi' - sin xi' = x on (0, 2*pi), from xi' = pi."""
    return _newton_bisect(1.0, x, 0.0, 2 * np.pi, np.pi, tol)


def _newton_complex(z, target, tol):
    """One continuation step: plain Newton for z - sin z = target from z.
    Returns (z, iterations)."""
    for it in range(1, MAX_ITER + 1):
        f = z - np.sin(z) - target
        if abs(f) <= tol:
            return z, it
        d = 1.0 - np.cos(z)
        if abs(d) < 1e-14:
            raise KeplerError("vanishing derivative during continuation")
        z = z - f / d
    raise KeplerError("complex radial Kepler solve stalled at x=%r" % (target,))


def solve_kepler(e, ell, tol=DEFAULT_TOL):
    """Solve xi - e sin(xi) = ell for the eccentric anomaly.

    Parameters
    ----------
    e : eccentricity in [0, 1)
    ell : mean anomaly (rad), any real value
    tol : residual tolerance

    Returns a KeplerSolution whose xi is continuous in ell: the branch for
    ell + 2*pi*k is the principal solution shifted by 2*pi*k.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError("eccentricity must lie in [0, 1), got %r" % (e,))
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _solve_elliptic(e, ell, tol)


def _solve_elliptic(e, ell, tol):
    """solve_kepler without argument checks; e = 1 is solved too."""
    k = np.floor(ell / (2 * np.pi))
    ell0 = ell - 2 * np.pi * k
    if e == 0.0:
        return KeplerSolution(ell, 0.0, 0)
    xi, res, it = _newton_bisect(e, ell0, ell0 - e, ell0 + e, ell0 + e * np.sin(ell0), tol)
    return KeplerSolution(xi + 2 * np.pi * k, res, it)


def solve_kepler_array(e, ell, tol=DEFAULT_TOL):
    """Eccentric anomaly for an array of mean anomalies, e in [0, 1]: the
    solve_kepler iteration per entry."""
    ell = np.asarray(ell, dtype=float)
    xi = [_solve_elliptic(e, v, tol).xi for v in ell.ravel().tolist()]
    return np.array(xi, dtype=float).reshape(ell.shape)


def in_strip(x, eps0):
    """True if x lies in the closed complex strip used for the radial orbit:
    |Re x - pi| <= pi - 2 sqrt(eps0), |Im x| <= sqrt(eps0).
    """
    s = np.sqrt(eps0)
    return (abs(np.real(x) - np.pi) <= np.pi - 2 * s + 1e-12) and (
        abs(np.imag(x)) <= s + 1e-12
    )


def solve_kepler_zero_ecc_form(x, tol=DEFAULT_TOL):
    """Solve xi' - sin(xi') = x for the e = 1 (radial orbit) anomaly.

    Real x in (0, 2*pi) has a unique solution in (0, 2*pi); for complex x the
    branch is continued from the real solution at Re x along a straight
    segment in the imaginary direction, Newton-correcting at each step.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    xr = float(np.real(x))
    if not 0.0 < xr < 2 * np.pi:
        raise ValueError("Re x must lie in (0, 2*pi), got %r" % (xr,))
    xi, res, total_it = _newton_radial(xr, tol)
    xim = float(np.imag(x))
    if xim == 0.0 and not np.iscomplexobj(x):
        return KeplerSolution(xi, res, total_it)
    z = complex(xi)
    for k in range(1, _CONTINUATION_STEPS + 1):
        z, it = _newton_complex(z, xr + 1j * xim * k / _CONTINUATION_STEPS, tol)
        total_it += it
    return KeplerSolution(z, abs(z - np.sin(z) - complex(x)), total_it)


def xi_prime_array(x, tol=DEFAULT_TOL):
    """Real solution of xi' - sin xi' = x for an array of x in (0, 2*pi)."""
    x = np.asarray(x, dtype=float)
    if np.any((x <= 0) | (x >= 2 * np.pi)):
        raise ValueError("arguments must lie in (0, 2*pi)")
    xi = [_newton_radial(v, tol)[0] for v in x.ravel().tolist()]
    return np.array(xi, dtype=float).reshape(x.shape)


def xi_prime_real(x, tol=DEFAULT_TOL):
    """Real solution of xi' - sin xi' = x without argument checks (fast path
    for the flow)."""
    return _newton_radial(x, tol)[0]


def estimate_c0(eps0, grid_n=64, tol=1e-13):
    """Measure the domain constant c0 of the radial-orbit strip.

    Returns the minimum of |1 - cos xi'(x)| / eps0 over a grid_n x grid_n
    grid on the strip |Re x - pi| <= pi - 2 sqrt(eps0), |Im x| <= sqrt(eps0).
    The constant is only asserted to exist (positively) by the theory, so it
    is measured, never hard-coded.
    """
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie in (0, 1)")
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    s = np.sqrt(eps0)
    half = np.pi - 2 * s
    res = np.linspace(np.pi - half, np.pi + half, grid_n)
    ims = np.linspace(-s, s, grid_n)
    best = np.inf
    for re in res:
        z = complex(solve_kepler_zero_ecc_form(re, tol=tol).xi)
        best = min(best, abs(1.0 - np.cos(z)))
        # walk each imaginary half-column by continuation from the real
        # axis, reusing the previous point as the Newton seed
        for sign in (1.0, -1.0):
            order = sorted((im for im in ims if im * sign > 0), key=abs)
            zc = z
            for im in order:
                zc, _ = _newton_complex(zc, re + 1j * im, tol)
                best = min(best, abs(1.0 - np.cos(zc)))
    return best / eps0
