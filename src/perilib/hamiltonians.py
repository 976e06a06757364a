"""The two reduced secular Hamiltonians, their radial restrictions and gradients.

h_secular evaluates, in the chart (R, G, r, g),

  H1 = R^2/2m0 + G^2/(2 m0 r^2)
       - bbar/(b+bbar) (m0^2/r) f_{b eps}(e_{b eps}(G,g))
       - b/(b+bbar)    (m0^2/r) f_{-bbar eps}(e_{-bbar eps}(G,g))
  H2 = R^2/2m0 + G^2/(2 m0 r^2)
       - bbar/(b+bbar) (m0^2/r) f_{(b+bbar) eps}(e_{(b+bbar) eps}(G,g))
       - b/(b+bbar)    m0^2/r

with eps(r) = Lambda^2/(m0^3 r).  h_action_angle is the same energy through
the charts of coords, written as -m0^5/(2 y^2) plus a perturbation that
vanishes with eps.  That perturbation (aa_perturbation_at) and the
libration domain D (libration_box) are defined here once, for the flow,
the normal form and the libration run alike.

Each chart is declared once, in CHARTS, and a state's class decides its
chart.  Its energy kernel takes an (n, 4) stack of states (Chart.energies);
the functions of one state are its n = 1 case.  f_eps picks its trapezoid
rule per point (see potentials.N_LADDER).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import potentials
from .coords import (X_COLLISION, ActionAngleState, DomainError, MassParams, SecularState,
                     radial_radius, rr_forward_with_jacobian)
from .potentials import e_hat, e_hat_aa

SECULAR_PAIRS = ((0, 2), (1, 3))  # (R, r), (G, g)
ACTION_ANGLE_PAIRS = ((0, 1), (2, 3))  # (Gcal, gamma), (y, x)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Which reduced Hamiltonian (1 or 2), with its masses and scales; the
    one place that tells the two reductions apart (see _reduction)."""

    index: int
    m0: float
    Lambda: float
    masses: MassParams

    def __post_init__(self):
        # a bool would pass as 1 or 2; negated, so that NaN and inf fail
        if isinstance(self.index, (bool, np.bool_)) or self.index not in (1, 2):
            raise ValueError("index must be 1 or 2, got %r" % (self.index,))
        if not (0 < self.m0 < math.inf and 0 < self.Lambda < math.inf):
            raise ValueError("m0 and Lambda must be finite and positive, got %r, %r"
                             % (self.m0, self.Lambda))
        # the scales the energies, gradients and libration box divide by,
        # each by its own expression; a power past the float range is NaN,
        # so that the negated check fails
        try:
            scales = (self.Lambda**2, self.m0**3, self.m0**5, self.a)
        except (OverflowError, ZeroDivisionError):
            scales = (math.nan,)
        if not all(0 < v < math.inf for v in scales):
            raise ValueError("m0=%r and Lambda=%r give Lambda^2, m0^3, m0^5 or "
                             "a = Lambda^2/m0^3 outside the float range"
                             % (self.m0, self.Lambda))

    # a and the reduction are fixed per spec: cached on first use, so the
    # flow's right-hand side does not rebuild them at every evaluation.  The
    # caches sit outside the fields, so equality and hashing ignore them.
    @cached_property
    def a(self):
        """Semi-major axis Lambda^2/m0^3 of the inner body."""
        return self.Lambda**2 / self.m0**3

    def eps_of_r(self, r):
        return self.a / r

    @cached_property
    def _reduction(self):
        """The one branch on index: (terms(), bare_weight, beta_star,
        beta_upper).  beta_* is b bbar/(b+bbar) and beta^* max(b, bbar) for
        index 1; bbar and b+bbar for index 2, which alone has a bare term."""
        b, bb = self.masses.beta, self.masses.beta_bar
        tot = b + bb
        if self.index == 1:
            return ((bb / tot, b), (b / tot, -bb)), 0.0, b * bb / tot, max(b, bb)
        return ((bb / tot, tot),), b / tot, bb, tot

    def terms(self):
        """Weights and eps-multipliers of the averaged-potential terms:
        ((coefficient c_j, multiplier s_j), ...) with the term
        -c_j (m0^2/r) f_{s_j eps}; one tuple per spec, computed once."""
        return self._reduction[0]

    # the weight w of the bare -w m0^2/r term; beta_* and beta^*, which the
    # hypothesis check reads
    bare_weight = property(lambda self: self._reduction[1])
    beta_star = property(lambda self: self._reduction[2])
    beta_upper = property(lambda self: self._reduction[3])

    @property
    def branch_radius(self):
        """2 a max_j s_j: below it some f_{s_j eps}(1) is not real."""
        return 2 * max(s for _, s in self.terms()) * self.a


def check_domain(spec, state):
    """Raise DomainError unless state lies in the physical domain of its
    chart: finite, with |G| <= Lambda and r > 0 (SecularState), or with
    |Gcal| <= Lambda, y > 0 and x at least X_COLLISION from 0 and 2 pi
    (ActionAngleState)."""
    z = state.as_array()
    # written so that NaN or inf fails
    Lam = spec.Lambda
    if not (chart_of(state).in_domain(Lam, z) and np.isfinite(z).all()):
        raise DomainError("state %r outside the physical domain (Lambda=%r)" % (state, Lam))


def _secular_energies(spec, Z):
    """Energies of the (n, 4) stack Z of (R, G, r, g) rows: one
    f_eps_minus_one_grid call per term."""
    R, G, r, g = Z.T
    if (r <= 0).any():
        raise DomainError("r must be positive")
    m0 = spec.m0
    eps = spec.eps_of_r(r)
    val = R**2 / (2 * m0) + G**2 / (2 * m0 * r**2)
    for c, s in spec.terms():
        es = s * eps
        f = 1.0 + potentials.f_eps_minus_one_grid(es, e_hat(es, spec.Lambda, G, g))
        val -= c * (m0**2 / r) * f
    val -= spec.bare_weight * m0**2 / r
    return val


def libration_box(spec, eps0, alpha_minus, alpha_plus, delta):
    """The libration domain D as (lo, hi) intervals of (Gcal, y, x):
    (Lambda - delta, Lambda), (2 sqrt(m0^3 alpha-), sqrt(m0^3 alpha+)) and
    (2 sqrt(eps0), 2 pi - 2 sqrt(eps0)).  ValueError unless
    0 < delta < Lambda (so Gcal > 0 on D), 0 < eps0 < pi^2/4 (so the x
    window is not empty), alpha+ is finite and positive and
    0 < alpha- < alpha+/4 (so the y window is not empty)."""
    m0, Lam = spec.m0, spec.Lambda
    # negated, so that a NaN fails
    if not 0 < delta < Lam:
        raise ValueError("delta must be in (0, Lambda) = (0, %r), got %r" % (Lam, delta))
    if not 0 < eps0 < math.pi**2 / 4:
        raise ValueError("eps0 must be in (0, pi^2/4), got %r" % (eps0,))
    if not 0 < alpha_plus < math.inf:
        raise ValueError("alpha_plus must be finite and positive, got %r" % (alpha_plus,))
    if not 0 < alpha_minus < alpha_plus / 4:
        raise ValueError("alpha_minus must be in (0, alpha_plus/4) = (0, %r), got %r"
                         % (alpha_plus / 4, alpha_minus))
    return (
        (Lam - delta, Lam),
        (2 * math.sqrt(m0**3 * alpha_minus), math.sqrt(m0**3 * alpha_plus)),
        (2 * math.sqrt(eps0), 2 * np.pi - 2 * math.sqrt(eps0)),
    )


def aa_perturbation_at(spec, Gcal, gamma, r):
    """The action-angle perturbation
    (m0^2/r) (eps (Lambda^2 - Gcal^2)/(2 Lambda^2) cos^2(gamma)
              - sum_j c_j (f_{s_j eps}(e_hat_aa) - 1)),  eps = a/r,
    on arrays of (Gcal, gamma, r) that broadcast together: one
    f_eps_minus_one_grid call per term."""
    m0, Lam = spec.m0, spec.Lambda
    eps = spec.eps_of_r(r)
    pert = eps * (Lam**2 - Gcal**2) / (2 * Lam**2) * np.cos(gamma) ** 2
    for c, s in spec.terms():
        es = s * eps
        pert -= c * potentials.f_eps_minus_one_grid(es, e_hat_aa(es, Lam, Gcal, gamma))
    return (m0**2 / r) * pert


def _action_angle_energies(spec, Z):
    """Energies of the (n, 4) stack Z of (Gcal, gamma, y, x) rows:
    -m0^5/(2 y^2) plus the perturbation, which vanishes as eps -> 0, with r
    from one array Kepler solve."""
    Gc, gam, y, x = Z.T
    return -(spec.m0**5) / (2 * y**2) + aa_perturbation_at(
        spec, Gc, gam, radial_radius(spec.m0, y, x))


def _one_row(state, cls):
    """The (1, 4) stack of a state of class cls; TypeError for any other."""
    if not isinstance(state, cls):
        raise TypeError("expected a %s, got %r" % (cls.__name__, state))
    return state.as_array()[None]


def h_secular(spec, state):
    """Energy of the reduced secular system at a (R, G, r, g) state."""
    return _secular_energies(spec, _one_row(state, SecularState))[0]


def h_action_angle(spec, state):
    """Energy in the (Gcal, gamma, y, x) chart: -m0^5/(2 y^2) + perturbation.

    Agrees with h_secular through the chart maps.
    """
    return _action_angle_energies(spec, _one_row(state, ActionAngleState))[0]


def v_radial(spec, r):
    """Radial potential on the invariant manifold G = 0, g = 0:

    V(r) = -(m0^2/r) (sum_j c_j f_{s_j eps}(1) + w),  eps = a/r,

    with the closed form f_eps(1) = 2 / (sqrt(1 - 2 eps) (1 + sqrt(1 - 2 eps)))
    and w the bare weight; defined above the branch radius 2 a max_j s_j.
    """
    branch = spec.branch_radius
    if r <= (1 + 1e-9) * branch:
        raise DomainError("r = %r at or below the branch radius %r" % (r, branch))
    eps = spec.eps_of_r(r)
    total = spec.bare_weight
    for c, s in spec.terms():
        root = np.sqrt(1.0 - 2.0 * s * eps)
        total += c * 2.0 / (root * (1.0 + root))
    return -(spec.m0**2 / r) * total


def _grad_secular_analytic(spec, state):
    R, G, r, g = state.R, state.G, state.r, state.g
    m0, Lam = spec.m0, spec.Lambda
    eps = spec.eps_of_r(r)
    # each repeated or term-independent subexpression once, each value in the
    # operation order of tests/test_float_path.py's reference kernel, which
    # this one matches bitwise
    lam2, m02, r2 = Lam**2, m0**2, r**2
    cos_g = math.cos(g)
    u2 = G**2 / lam2
    root = math.sqrt(max(1e-300, 1.0 - u2))
    # e_hat(es, Lam, G, g) = e_cos + es * u2
    e_cos = math.sqrt(max(0.0, 1.0 - u2)) * cos_g
    dE_dG_cos = -(G / lam2) * cos_g / root
    dE_dg = -root * math.sin(g)
    pref, pref_r = m02 / r, m02 / r2
    dH_dG = G / (m0 * r2)
    dH_dr = -(G**2) / (m0 * r**3) + spec.bare_weight * m02 / r2
    dH_dg = 0.0
    for c, s in spec.terms():
        es = s * eps
        F, Ft, Fe = potentials.f_eps_bundle(es, e_cos + es * u2)
        dE_dG = dE_dG_cos + 2 * es * G / lam2
        dH_dG += -c * pref * Ft * dE_dG
        dH_dg += -c * pref * Ft * dE_dg
        dH_dr += c * pref_r * (F + es * (Fe + Ft * u2))
    return np.array([R / m0, dH_dG, dH_dr, dH_dg])


def _grad_action_angle_analytic(spec, state):
    Gc, gam, y, x = state.Gcal, state.gamma, state.y, state.x
    m0, Lam = spec.m0, spec.Lambda
    _, r, dr_dy, dr_dx = rr_forward_with_jacobian(m0, y, x)
    eps = spec.eps_of_r(r)
    # each repeated subexpression once, in the reference kernel's operation
    # order (tests/test_float_path.py), bitwise
    lam2 = Lam**2
    width, two_lam2 = lam2 - Gc**2, 2 * lam2
    u = Gc / Lam
    one_m_u2 = 1.0 - u**2
    cos_gam = math.cos(gam)
    c2g = cos_gam**2
    s2g = 2.0 * cos_gam * math.sin(gam)
    pref = m0**2 / r
    T1 = eps * width / two_lam2 * c2g
    pert = T1
    df_dG = pref * (-eps * Gc * c2g / lam2)
    df_dgam = pref * (-eps * width / two_lam2 * s2g)
    # d(pert)/dr at fixed (Gcal, gamma); T1 carries one factor eps(r)
    dpert_dr = -(T1 / r)
    for c, s in spec.terms():
        es = s * eps
        # e_hat_aa(es, Lam, Gc, gam)
        t = u + es * one_m_u2 * c2g
        # one f_eps node loop per term; f - 1 straight from the kernel, since
        # F - 1 from f_eps_bundle would cancel at small eps
        fm1, Ft, Fe = potentials._f_minus_one(es, t, grad=True)
        pert -= c * fm1
        dE_dG = 1.0 / Lam - 2 * es * Gc * c2g / lam2
        dE_dgam = -es * one_m_u2 * s2g
        dE_des = one_m_u2 * c2g
        df_dG += -c * pref * Ft * dE_dG
        df_dgam += -c * pref * Ft * dE_dgam
        dpert_dr += c * (Fe + Ft * dE_des) * s * eps / r
    # f = pref * pert: df/dr = -(pref/r) pert + pref dpert/dr
    df_dr = -pert * pref / r + pref * dpert_dr
    dH_dy = m0**5 / y**3 + df_dr * dr_dy
    dH_dx = df_dr * dr_dx
    return np.array([df_dG, df_dgam, dH_dy, dH_dx])


def gradient(spec, state):
    """Partials of the energy with respect to the variables of the state's
    chart: (dH/dR, dH/dG, dH/dr, dH/dg) at a SecularState, (dH/dGcal,
    dH/dgamma, dH/dy, dH/dx) at an ActionAngleState, by the chain rule
    through the closed-form partials of e_hat and the integral derivatives
    of f_eps."""
    return chart_of(state).gradient(spec, state)


@dataclass(frozen=True)
class Chart:
    """One chart of the reduced flow: its state class, (momentum,
    coordinate) pairs, energies(spec, Z) on (n, 4) stacks,
    gradient(spec, state), domain rule in_domain(Lambda, z), G along
    the rows of Z, and the columns of the libration angle and of Gcal (None
    where the chart has no Gcal)."""

    state: type
    pairs: tuple
    energies: Callable
    gradient: Callable
    in_domain: Callable
    G_series: Callable
    angle_col: int
    Gcal_col: int | None

    @property
    def name(self):
        return self.state.chart


CHARTS = {chart.name: chart for chart in (
    Chart(
        SecularState, SECULAR_PAIRS, _secular_energies, _grad_secular_analytic,
        in_domain=lambda Lam, z: abs(z[1]) <= Lam and z[2] > 0,
        G_series=lambda Lam, Z: Z[:, 1],
        angle_col=3, Gcal_col=None,
    ),
    Chart(
        ActionAngleState, ACTION_ANGLE_PAIRS, _action_angle_energies,
        _grad_action_angle_analytic,
        in_domain=lambda Lam, z: (abs(z[0]) <= Lam and z[2] > 0
                                  and X_COLLISION <= z[3] <= 2 * np.pi - X_COLLISION),
        G_series=lambda Lam, Z: (np.sqrt(np.maximum(0.0, Lam**2 - Z[:, 0] ** 2))
                                 * np.cos(Z[:, 1])),
        angle_col=1, Gcal_col=0,
    ),
)}


def chart_named(name):
    """The chart called name; ValueError for any other name."""
    if name not in CHARTS:
        raise ValueError("chart must be %s, got %r" % (" or ".join(map(repr, CHARTS)), name))
    return CHARTS[name]


def chart_of(state):
    """The chart of a state, from its class; TypeError for anything else."""
    chart = CHARTS.get(getattr(state, "chart", None))
    if chart is None or not isinstance(state, chart.state):
        names = " or ".join(c.state.__name__ for c in CHARTS.values())
        raise TypeError("expected a chart state (%s), got %r" % (names, state))
    return chart
