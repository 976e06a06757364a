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
vanishes with eps.

Each chart is declared once, in CHARTS, and a state's class decides its
chart.  Its energy kernel takes an (n, 4) stack of states (see energies);
the functions of one state are its n = 1 case.  f_eps picks its trapezoid
rule per point (see potentials.N_LADDER).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import potentials
from .coords import (X_COLLISION, ActionAngleState, MassParams, SecularState,
                     radial_radius, rr_forward_with_jacobian)
from .potentials import e_hat, e_hat_aa

GRAD_FD_STEP = 1e-6

SECULAR_PAIRS = ((0, 2), (1, 3))  # (R, r), (G, g)
ACTION_ANGLE_PAIRS = ((0, 1), (2, 3))  # (Gcal, gamma), (y, x)


class DomainError(ValueError):
    """State outside the admissible chart domain."""


@dataclass(frozen=True)
class HamiltonianSpec:
    """Which reduced Hamiltonian (1 or 2), with its masses and scales."""

    index: int
    m0: float
    Lambda: float
    masses: MassParams

    def __post_init__(self):
        if self.index not in (1, 2):
            raise ValueError("index must be 1 or 2")
        if self.m0 <= 0 or self.Lambda <= 0:
            raise ValueError("m0 and Lambda must be positive")

    # a and the term weights are fixed per spec: cached on first use, so the
    # flow's right-hand side does not rebuild them at every evaluation.  The
    # caches sit outside the fields, so equality and hashing ignore them.
    @cached_property
    def a(self):
        """Semi-major axis Lambda^2/m0^3 of the inner body."""
        return self.Lambda**2 / self.m0**3

    def eps_of_r(self, r):
        return self.a / r

    def terms(self):
        """Weights and eps-multipliers of the averaged-potential terms:
        ((coefficient c_j, multiplier s_j), ...) with the term
        -c_j (m0^2/r) f_{s_j eps}; one tuple per spec, computed once."""
        return self._terms

    @cached_property
    def _terms(self):
        b, bb = self.masses.beta, self.masses.beta_bar
        tot = b + bb
        if self.index == 1:
            return ((bb / tot, b), (b / tot, -bb))
        return ((bb / tot, b + bb),)


def _bare_coulomb_weight(spec):
    """Weight of the plain -m0^2/r term (only the second reduction has one)."""
    if spec.index == 2:
        b, bb = spec.masses.beta, spec.masses.beta_bar
        return b / (b + bb)
    return 0.0


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
    val -= _bare_coulomb_weight(spec) * m0**2 / r
    return val


def _aa_perturbations(spec, Z):
    """aa_perturbation of the (n, 4) stack Z of (Gcal, gamma, y, x) rows: r
    from one array Kepler solve, one f_eps_minus_one_grid call per term."""
    Gc, gam, y, x = Z.T
    m0, Lam = spec.m0, spec.Lambda
    r = radial_radius(m0, y, x)
    eps = spec.eps_of_r(r)
    pert = eps * (Lam**2 - Gc**2) / (2 * Lam**2) * np.cos(gam) ** 2
    for c, s in spec.terms():
        es = s * eps
        pert -= c * potentials.f_eps_minus_one_grid(es, e_hat_aa(es, Lam, Gc, gam))
    return (m0**2 / r) * pert


def _action_angle_energies(spec, Z):
    """Energies of the (n, 4) stack Z of (Gcal, gamma, y, x) rows."""
    return -(spec.m0**5) / (2 * Z[:, 2] ** 2) + _aa_perturbations(spec, Z)


def _one_row(state, cls):
    """The (1, 4) stack of a state of class cls; TypeError for any other."""
    if not isinstance(state, cls):
        raise TypeError("expected a %s, got %r" % (cls.__name__, state))
    return state.as_array()[None]


def energies(spec, states, chart="secular"):
    """Energies of an (n, 4) stack of states of the chart named chart, one
    per row: h_secular for "secular", h_action_angle for "action-angle"."""
    Z = np.asarray(states, dtype=float).reshape(-1, 4)
    return chart_named(chart).energies(spec, Z)


def h_secular(spec, state):
    """Energy of the reduced secular system at a (R, G, r, g) state."""
    return _secular_energies(spec, _one_row(state, SecularState))[0]


def aa_perturbation(spec, state):
    """The perturbation of the action-angle split: the full energy is
    -m0^5/(2 y^2) plus this term, which vanishes as eps -> 0.

    Collects the centrifugal term and the averaged potentials minus their
    limit value 1 (computed cancellation-free, so the tiny-eps regime keeps
    full relative precision)."""
    return _aa_perturbations(spec, _one_row(state, ActionAngleState))[0]


def h_action_angle(spec, state):
    """Energy in the (Gcal, gamma, y, x) chart: -m0^5/(2 y^2) + perturbation.

    Agrees with h_secular through the chart maps.
    """
    return _action_angle_energies(spec, _one_row(state, ActionAngleState))[0]


def v_radial(spec, r):
    """Radial potential on the invariant manifold G = 0, g = 0.

    V1(r) = -bbar/(b+bbar) 2 m0^2 / (sqrt(r - 2 b a) (sqrt(r) + sqrt(r - 2 b a)))
            -b/(b+bbar)    2 m0^2 / (sqrt(r + 2 bbar a) (sqrt(r) + sqrt(r + 2 bbar a)))
    V2(r) = -bbar/(b+bbar) 2 m0^2 / (sqrt(r - 2 (b+bbar) a) (sqrt(r) + sqrt(...)))
            -b/(b+bbar)    m0^2 / r
    defined for r above the branch radius 2 b a (index 1), 2 (b+bbar) a (index 2).
    """
    m0, a = spec.m0, spec.a
    b, bb = spec.masses.beta, spec.masses.beta_bar
    tot = b + bb
    branch = 2 * (b if spec.index == 1 else tot) * a
    if r <= (1 + 1e-9) * branch:
        raise DomainError("r = %r at or below the branch radius %r" % (r, branch))
    sr = np.sqrt(r)
    if spec.index == 1:
        s1 = np.sqrt(r - 2 * b * a)
        s2 = np.sqrt(r + 2 * bb * a)
        return -(bb / tot) * 2 * m0**2 / (s1 * (sr + s1)) - (b / tot) * 2 * m0**2 / (
            s2 * (sr + s2)
        )
    s1 = np.sqrt(r - 2 * tot * a)
    return -(bb / tot) * 2 * m0**2 / (s1 * (sr + s1)) - (b / tot) * m0**2 / r


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
    dH_dr = -(G**2) / (m0 * r**3) + _bare_coulomb_weight(spec) * m02 / r2
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


def _grad_fd(energy, z):
    steps = GRAD_FD_STEP * np.maximum(1.0, np.abs(z))
    return np.array([(energy(z + dz) - energy(z - dz)) / (2 * h)
                     for dz, h in zip(np.diag(steps), steps)])


def gradient(spec, state, *, method="analytic"):
    """Partials of the energy with respect to the variables of the state's
    chart: (dH/dR, dH/dG, dH/dr, dH/dg) at a SecularState, (dH/dGcal,
    dH/dgamma, dH/dy, dH/dx) at an ActionAngleState.

    method "analytic" uses the chain rule through the closed-form partials
    of e_hat and the integral derivatives of f_eps; method "fd"
    central-differences the energy with relative step GRAD_FD_STEP.
    """
    chart = chart_of(state)
    if method == "analytic":
        return chart.gradient(spec, state)
    if method != "fd":
        raise ValueError("method must be 'analytic' or 'fd', got %r" % (method,))
    return _grad_fd(lambda z: chart.energies(spec, z[None])[0], state.as_array())


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
