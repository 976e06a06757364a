"""Kepler equation solvers.

Two forms are needed: the classical elliptic equation xi - e sin(xi) = ell
for eccentricities 0 <= e < 1, and the zero-angular-momentum form
xi' - sin(xi') = x that parametrizes the radial (e = 1) orbit of the outer
body, including complex arguments on the analyticity strip of that orbit.
"""

import math
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
    iterations) and raises KeplerError after MAX_ITER iterations.  An array
    ell (with lo, hi and xi broadcast to its shape) of two or more entries
    is solved entrywise by _newton_bisect_array; floats and one-entry
    arrays take the loop below, which is what the flow's right-hand side
    and the one-state energies call.  The loop computes in floats through
    math.sin/math.cos, which give the same bits as np.sin/np.cos
    (tests/test_float_path.py checks this), so both paths agree bitwise.
    """
    if isinstance(ell, np.ndarray):
        if ell.size != 1:
            return _newton_bisect_array(e, ell, lo, hi, xi, tol)
        one = (float(np.asarray(v).flat[0]) for v in (ell, lo, hi, xi))
        return tuple(np.full(ell.shape, v) for v in _newton_bisect(e, *one, tol))
    for it in range(1, MAX_ITER + 1):
        f = xi - e * math.sin(xi) - ell
        if abs(f) <= tol:
            return xi, abs(f), it
        if f > 0:
            hi = xi
        else:
            lo = xi
        d = 1.0 - e * math.cos(xi)
        cand = xi - f / d if d > 1e-14 else math.nan
        xi = cand if lo < cand < hi else 0.5 * (lo + hi)
    raise KeplerError(
        "Kepler iteration did not converge: e=%r ell=%r residual=%.3e"
        % (e, ell, abs(f))
    )


def _newton_bisect_array(e, ell, lo, hi, xi, tol):
    """_newton_bisect on every entry of an array at once.

    Entries that have converged freeze and the rest keep iterating, each
    through the same operations as the scalar loop, so every entry agrees
    bitwise with its scalar solve.  Returns arrays (xi, |residual|,
    iterations) of ell's shape.
    """
    shape = ell.shape
    ell = ell.ravel()
    x, lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel()
                 for v in (xi, lo, hi))
    out, res = np.empty(ell.size), np.empty(ell.size)
    iters = np.empty(ell.size, dtype=int)
    idx = np.arange(ell.size)  # the unconverged entries, in working order
    for it in range(1, MAX_ITER + 1):
        f = x - e * np.sin(x) - ell
        done = np.abs(f) <= tol
        if done.any():
            k = idx[done]
            out[k], res[k], iters[k] = x[done], np.abs(f[done]), it
            live = ~done
            idx, x, f, ell, lo, hi = (v[live] for v in (idx, x, f, ell, lo, hi))
        if not idx.size:
            return out.reshape(shape), res.reshape(shape), iters.reshape(shape)
        up = f > 0
        hi = np.where(up, x, hi)
        lo = np.where(up, lo, x)
        d = 1.0 - e * np.cos(x)
        # a vanishing derivative gives an infinite step, which bisects
        cand = x - np.divide(f, d, out=np.full_like(f, np.inf), where=d > 1e-14)
        x = np.where((lo < cand) & (cand < hi), cand, 0.5 * (lo + hi))
    raise KeplerError(
        "Kepler iteration did not converge: e=%r ell=%r residual=%.3e"
        % (e, ell[0], abs(f[0]))
    )


def _newton_radial(x, tol):
    """The real branch of xi' - sin xi' = x on (0, 2*pi), from xi' = pi."""
    return _newton_bisect(1.0, x, 0.0, 2 * np.pi, np.pi, tol)


def _cabs(z):
    """|z| of complex arrays as the scalar abs rounds it: numpy's vectorized
    complex abs can differ from it in the last bit."""
    return np.hypot(z.real, z.imag)


def _newton_complex(z, target, tol):
    """One continuation step: plain Newton for z - sin z = target from z, on
    complex arrays of one shape.  Converged entries freeze and the rest keep
    iterating.  Returns (z, iterations), both arrays."""
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    w, tg = z.ravel(), np.broadcast_to(target, shape).ravel()
    out = np.empty(w.size, dtype=complex)
    iters = np.empty(w.size, dtype=int)
    idx = np.arange(w.size)  # the unconverged entries, in working order
    for it in range(1, MAX_ITER + 1):
        f = w - np.sin(w) - tg
        done = _cabs(f) <= tol
        if done.any():
            k = idx[done]
            out[k], iters[k] = w[done], it
            live = ~done
            idx, w, f, tg = (v[live] for v in (idx, w, f, tg))
        if not idx.size:
            return out.reshape(shape), iters.reshape(shape)
        d = 1.0 - np.cos(w)
        if (_cabs(d) < 1e-14).any():
            raise KeplerError("vanishing derivative during continuation")
        w = w - f / d
    raise KeplerError("complex radial Kepler solve stalled at x=%r" % (complex(tg[0]),))


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
    """solve_kepler without argument checks; e = 1 is solved too, and an
    array ell is solved entrywise (see _newton_bisect)."""
    k = np.floor(ell / (2 * np.pi))
    ell0 = ell - 2 * np.pi * k
    if e == 0.0:
        return KeplerSolution(ell, 0.0, 0)
    xi, res, it = _newton_bisect(e, ell0, ell0 - e, ell0 + e, ell0 + e * np.sin(ell0), tol)
    return KeplerSolution(xi + 2 * np.pi * k, res, it)


def solve_kepler_zero_ecc_form(x, tol=DEFAULT_TOL):
    """Solve xi' - sin(xi') = x for the e = 1 (radial orbit) anomaly.

    Real x in (0, 2*pi) has a unique solution in (0, 2*pi), found in floats
    (see _newton_bisect); for complex x the branch is continued from the
    real solution at Re x along a straight segment in the imaginary
    direction, Newton-correcting at each step.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    xr = float(x.real)
    if not 0.0 < xr < 2 * np.pi:
        raise ValueError("Re x must lie in (0, 2*pi), got %r" % (xr,))
    xi, res, total_it = _newton_radial(xr, tol)
    xim = float(x.imag)
    # a plain real number skips np.iscomplexobj, which would build an array
    if xim == 0.0 and (isinstance(x, (float, int)) or not np.iscomplexobj(x)):
        return KeplerSolution(xi, res, total_it)
    z = np.array([complex(xi)])
    for k in range(1, _CONTINUATION_STEPS + 1):
        z, it = _newton_complex(z, xr + 1j * xim * k / _CONTINUATION_STEPS, tol)
        total_it += int(it[0])
    z = z[0]
    return KeplerSolution(z, abs(z - np.sin(z) - complex(x)), total_it)


def xi_prime_array(x, tol=DEFAULT_TOL):
    """Real solution of xi' - sin xi' = x for an array of x in (0, 2*pi),
    all entries solved at once; each agrees bitwise with xi_prime_real."""
    x = np.asarray(x, dtype=float)
    # negated, so that NaN is rejected too
    if not np.all((x > 0) & (x < 2 * np.pi)):
        raise ValueError("arguments must lie in (0, 2*pi)")
    return _newton_radial(x, tol)[0]


def xi_prime_real(x, tol=DEFAULT_TOL):
    """Real solution of xi' - sin xi' = x without argument checks (fast path
    for the flow)."""
    return _newton_radial(x, tol)[0]


def estimate_c0(eps0, grid_n=64, tol=1e-13):
    """Measure the domain constant c0 of the radial-orbit strip.

    Returns the minimum of |1 - cos xi'(x)| / eps0 over a grid_n x grid_n
    grid on the strip |Re x - pi| <= pi - 2 sqrt(eps0), |Im x| <= sqrt(eps0).
    Each half-plane Im x > 0, Im x < 0 is reached by continuation from the
    real axis, one imaginary level at a time in order of |Im x|, every
    column seeded by its point on the level before.  Both half-planes walk
    together: level j stacks the j-th level of each half-plane that has one
    (with odd grid_n the middle level can be a tiny nonzero, so one
    half-plane may have one level more) into one Newton solve, which is
    elementwise, so c0 has the bits of walking them one after the other.
    The constant is only asserted to exist (positively) by the theory, so
    it is measured, never hard-coded.
    """
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must lie in (0, 1)")
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    s = np.sqrt(eps0)
    half = np.pi - 2 * s
    res = np.linspace(np.pi - half, np.pi + half, grid_n)
    ims = np.linspace(-s, s, grid_n)
    z = xi_prime_array(res, tol).astype(complex)
    best = _cabs(1.0 - np.cos(z)).min()
    sides = [sorted((im for im in ims if im * sign > 0), key=abs) for sign in (1.0, -1.0)]
    cols = [z, z]  # each half-plane's columns at its last level
    for level in range(max(map(len, sides))):
        live = [k for k in (0, 1) if level < len(sides[k])]
        zc, _ = _newton_complex(np.concatenate([cols[k] for k in live]),
                                np.concatenate([res + 1j * sides[k][level] for k in live]),
                                tol)
        best = min(best, _cabs(1.0 - np.cos(zc)).min())
        for k, part in zip(live, np.split(zc, len(live))):
            cols[k] = part
    return best / eps0
