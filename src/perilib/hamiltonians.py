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

Each chart has one energy kernel, which takes an (n, 4) stack of states
(see energies); the functions of one state are its n = 1 case.
"""

from dataclasses import dataclass

import numpy as np

from . import potentials
from .coords import MassParams, SecularState, radial_radius, rr_forward_with_jacobian
from .potentials import DEFAULT_QUAD, e_hat, e_hat_aa

GRAD_FD_STEP = 1e-6


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

    @property
    def a(self):
        return self.Lambda**2 / self.m0**3

    def eps_of_r(self, r):
        return self.a / r

    def terms(self):
        """Weights and eps-multipliers of the averaged-potential terms:
        [(coefficient c_j, multiplier s_j)] with the term -c_j (m0^2/r) f_{s_j eps}."""
        b, bb = self.masses.beta, self.masses.beta_bar
        tot = b + bb
        if self.index == 1:
            return [(bb / tot, b), (b / tot, -bb)]
        return [(bb / tot, b + bb)]


def _bare_coulomb_weight(spec):
    """Weight of the plain -m0^2/r term (only the second reduction has one)."""
    if spec.index == 2:
        b, bb = spec.masses.beta, spec.masses.beta_bar
        return b / (b + bb)
    return 0.0


def check_domain(spec, state):
    """Raise DomainError unless state lies in the physical domain of its
    chart: finite, with |G| <= Lambda and r > 0 (SecularState), or with
    |Gcal| <= Lambda, y > 0 and 0 < x < 2 pi (ActionAngleState)."""
    z = state.as_array()
    Lam = spec.Lambda
    if isinstance(state, SecularState):
        ok = abs(z[1]) <= Lam and z[2] > 0
    else:
        ok = abs(z[0]) <= Lam and z[2] > 0 and 0 < z[3] < 2 * np.pi
    # written so that NaN or inf fails
    if not (ok and np.isfinite(z).all()):
        raise DomainError("state %r outside the physical domain (Lambda=%r)" % (state, Lam))


def _secular_energies(spec, Z, quad):
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
        f = 1.0 + potentials.f_eps_minus_one_grid(es, e_hat(es, spec.Lambda, G, g), quad)
        val -= c * (m0**2 / r) * f
    val -= _bare_coulomb_weight(spec) * m0**2 / r
    return val


def _aa_perturbations(spec, Z, quad):
    """aa_perturbation of the (n, 4) stack Z of (Gcal, gamma, y, x) rows: r
    from one array Kepler solve, one f_eps_minus_one_grid call per term."""
    Gc, gam, y, x = Z.T
    m0, Lam = spec.m0, spec.Lambda
    r = radial_radius(m0, y, x)
    eps = spec.eps_of_r(r)
    pert = eps * (Lam**2 - Gc**2) / (2 * Lam**2) * np.cos(gam) ** 2
    for c, s in spec.terms():
        es = s * eps
        pert -= c * potentials.f_eps_minus_one_grid(es, e_hat_aa(es, Lam, Gc, gam), quad)
    return (m0**2 / r) * pert


def energies(spec, states, chart="secular", quad=DEFAULT_QUAD):
    """Energies of an (n, 4) stack of chart states, one per row: h_secular
    for chart "secular", h_action_angle for chart "action-angle"."""
    Z = np.asarray(states, dtype=float).reshape(-1, 4)
    if chart == "secular":
        return _secular_energies(spec, Z, quad)
    if chart == "action-angle":
        return -(spec.m0**5) / (2 * Z[:, 2] ** 2) + _aa_perturbations(spec, Z, quad)
    raise ValueError("chart must be 'secular' or 'action-angle'")


def h_secular(spec, state, quad=DEFAULT_QUAD):
    """Energy of the reduced secular system at a (R, G, r, g) state."""
    return energies(spec, state.as_array(), "secular", quad)[0]


def aa_perturbation(spec, state, quad=DEFAULT_QUAD):
    """The perturbation of the action-angle split: the full energy is
    -m0^5/(2 y^2) plus this term, which vanishes as eps -> 0.

    Collects the centrifugal term and the averaged potentials minus their
    limit value 1 (computed cancellation-free, so the tiny-eps regime keeps
    full relative precision)."""
    return _aa_perturbations(spec, state.as_array()[None], quad)[0]


def h_action_angle(spec, state, quad=DEFAULT_QUAD):
    """Energy in the (Gcal, gamma, y, x) chart: -m0^5/(2 y^2) + perturbation.

    Agrees with h_secular through the chart maps.
    """
    return energies(spec, state.as_array(), "action-angle", quad)[0]


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


def _grad_secular_analytic(spec, state, quad):
    R, G, r, g = state.R, state.G, state.r, state.g
    m0, Lam = spec.m0, spec.Lambda
    eps = spec.eps_of_r(r)
    u2 = G**2 / Lam**2
    root = np.sqrt(max(1e-300, 1.0 - u2))
    dH = np.array(
        [
            R / m0,
            G / (m0 * r**2),
            -(G**2) / (m0 * r**3) + _bare_coulomb_weight(spec) * m0**2 / r**2,
            0.0,
        ]
    )
    for c, s in spec.terms():
        es = s * eps
        t = e_hat(es, Lam, G, g)
        F, Ft, Fe = potentials.f_eps_bundle(es, t, quad)
        dE_dG = -(G / Lam**2) * np.cos(g) / root + 2 * es * G / Lam**2
        dE_dg = -root * np.sin(g)
        dE_des = u2
        dH[1] += -c * (m0**2 / r) * Ft * dE_dG
        dH[3] += -c * (m0**2 / r) * Ft * dE_dg
        dH[2] += c * (m0**2 / r**2) * (F + es * (Fe + Ft * dE_des))
    return dH


def _grad_action_angle_analytic(spec, state, quad):
    Gc, gam, y, x = state.Gcal, state.gamma, state.y, state.x
    m0, Lam = spec.m0, spec.Lambda
    _, r, dr_dy, dr_dx = rr_forward_with_jacobian(m0, y, x)
    eps = spec.eps_of_r(r)
    u = Gc / Lam
    c2g = np.cos(gam) ** 2
    s2g = 2.0 * np.cos(gam) * np.sin(gam)
    pref = m0**2 / r
    T1 = eps * (Lam**2 - Gc**2) / (2 * Lam**2) * c2g
    pert = T1
    df_dG = pref * (-eps * Gc * c2g / Lam**2)
    df_dgam = pref * (-eps * (Lam**2 - Gc**2) / (2 * Lam**2) * s2g)
    # d(pert)/dr at fixed (Gcal, gamma); T1 carries one factor eps(r)
    dpert_dr = -(T1 / r)
    for c, s in spec.terms():
        es = s * eps
        t = e_hat_aa(es, Lam, Gc, gam)
        # one quadrature pass per term; f - 1 straight from the kernel, since
        # F - 1 from f_eps_bundle would cancel at small eps
        fm1, Ft, Fe = potentials._f_minus_one(es, t, quad, grad=True)
        pert -= c * fm1
        dE_dG = 1.0 / Lam - 2 * es * Gc * c2g / Lam**2
        dE_dgam = -es * (1.0 - u**2) * s2g
        dE_des = (1.0 - u**2) * c2g
        df_dG += -c * pref * Ft * dE_dG
        df_dgam += -c * pref * Ft * dE_dgam
        dpert_dr += c * (Fe + Ft * dE_des) * s * eps / r
    # f = pref * pert: df/dr = -(pref/r) pert + pref dpert/dr
    df_dr = -pert * pref / r + pref * dpert_dr
    dH_dy = m0**5 / y**3 + df_dr * dr_dy
    dH_dx = df_dr * dr_dx
    return np.array([df_dG, df_dgam, dH_dy, dH_dx])


def _grad_fd(energy, z, h):
    out = np.empty(len(z))
    for i in range(len(z)):
        zp = z.copy()
        zm = z.copy()
        step = h * max(1.0, abs(z[i]))
        zp[i] += step
        zm[i] -= step
        out[i] = (energy(zp) - energy(zm)) / (2 * step)
    return out


def gradient(spec, state, chart="secular", h_fd=GRAD_FD_STEP, method="analytic",
             quad=DEFAULT_QUAD):
    """Partials of the energy with respect to the chart variables.

    chart "secular": returns (dH/dR, dH/dG, dH/dr, dH/dg) at a SecularState.
    chart "action-angle": returns (dH/dGcal, dH/dgamma, dH/dy, dH/dx) at an
    ActionAngleState.  method "analytic" uses the chain rule through the
    closed-form partials of e_hat and the integral derivatives of f_eps;
    method "fd" central-differences the energy with relative step h_fd.
    """
    from .coords import ActionAngleState, SecularState

    if chart == "secular":
        if method == "analytic":
            return _grad_secular_analytic(spec, state, quad)
        z = state.as_array()
        return _grad_fd(
            lambda v: h_secular(spec, SecularState(*v), quad), z, h_fd
        )
    if chart == "action-angle":
        if method == "analytic":
            return _grad_action_angle_analytic(spec, state, quad)
        z = state.as_array()
        return _grad_fd(
            lambda v: h_action_angle(spec, ActionAngleState(*v), quad), z, h_fd
        )
    raise ValueError("chart must be 'secular' or 'action-angle'")
