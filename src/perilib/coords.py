"""Coordinates and parameters of the reduced planar secular problem.

Covers the mass-parameter bookkeeping for the two reductions (Jacobi and
m0-centric), the near-circular action-angle chart (Gcal, gamma) -> (G, g),
the radial-orbit chart (y, x) -> (R, r) for the outer body, and elliptic
orbital elements.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .kepler import xi_prime_array, xi_prime_real
# unused here, but kept bound: perfbench's tracer test checks that the tracer
# rebinds it in this module (drop it with that test)
from .kepler import solve_kepler_zero_ecc_form  # noqa: F401

# x this close to the collision at 0 or 2 pi is rejected: below 1.11e-7 the
# Kepler solve of xi' leaves its series (6x)^(1/3) (1 + (6x)^(2/3)/60) by
# more than 1e-8 relative (measured, 200 points a decade); 10x margin.
X_COLLISION = 1.2e-6

JACOBI = "jacobi"
M0CENTRIC = "m0centric"


@dataclass(frozen=True)
class MassParams:
    """Derived mass parameters for mass ratios (mu, kappa) to the central mass.

    beta/beta_bar weight the two averaged potentials; gamma_scale is the
    overall factor pulled out of the slow part of the Hamiltonian.  The
    aggregates beta_star/beta_upper depend on which reduced Hamiltonian
    (index 1 or 2) they parametrize, so they are exposed as methods.
    """

    mu: float
    kappa: float
    frame: str
    gamma_scale: float
    beta: float
    beta_bar: float

    def beta_star(self, index):
        if index == 1:
            return self.beta * self.beta_bar / (self.beta + self.beta_bar)
        if index == 2:
            return self.beta_bar
        raise ValueError("Hamiltonian index must be 1 or 2")

    def beta_upper(self, index):
        if index == 1:
            return max(self.beta, self.beta_bar)
        if index == 2:
            return self.beta + self.beta_bar
        raise ValueError("Hamiltonian index must be 1 or 2")


@dataclass(frozen=True)
class SecularState:
    """Phase point (R, G, r, g) of the reduced 2-DOF secular system."""

    chart: ClassVar[str] = "secular"
    R: float
    G: float
    r: float
    g: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("radius r must be positive")

    def as_array(self):
        return np.array([self.R, self.G, self.r, self.g])


@dataclass(frozen=True)
class ActionAngleState:
    """Phase point (Gcal, gamma, y, x) in the chart used for the libration run."""

    chart: ClassVar[str] = "action-angle"
    Gcal: float
    gamma: float
    y: float
    x: float

    def as_array(self):
        return np.array([self.Gcal, self.gamma, self.y, self.x])


def derive_mass_params(mu, kappa, frame=JACOBI):
    """Mass parameters (gamma_scale, beta, beta_bar) for either reduction.

    Jacobi:      gamma = kappa^3 (1+mu)^4 / (mu^3 (1+mu+kappa)),
                 beta  = kappa^2 (1+mu)^2 / (mu^2 (1+mu+kappa))
    m0-centric:  gamma = kappa^3 (1+mu)^3 / (mu^3 (1+kappa)),
                 beta  = kappa^2 (1+mu)   / (mu^2 (1+kappa))
    and beta_bar = mu * beta in both frames.
    """
    if mu <= 0 or kappa <= 0:
        raise ValueError("mass ratios must be positive")
    if frame == JACOBI:
        gamma = kappa**3 * (1 + mu) ** 4 / (mu**3 * (1 + mu + kappa))
        beta = kappa**2 * (1 + mu) ** 2 / (mu**2 * (1 + mu + kappa))
    elif frame == M0CENTRIC:
        gamma = kappa**3 * (1 + mu) ** 3 / (mu**3 * (1 + kappa))
        beta = kappa**2 * (1 + mu) / (mu**2 * (1 + kappa))
    else:
        raise ValueError("frame must be %r or %r" % (JACOBI, M0CENTRIC))
    return MassParams(mu, kappa, frame, gamma, beta, mu * beta)


def gg_forward(Lambda, Gcal, gamma):
    """Chart map (Gcal, gamma) -> (G, g).

    G = sqrt(Lambda^2 - Gcal^2) cos(gamma),
    g = -atan((Lambda/Gcal) sqrt(1 - Gcal^2/Lambda^2) sin(gamma)) + k*pi,
    with k = 0 for Gcal > 0 (image near (0, 0)) and k = 1 for Gcal < 0
    (image near (0, pi)).  Gcal = 0 is outside the chart.
    """
    if Gcal == 0:
        raise ValueError("Gcal = 0: chart branch undefined")
    if abs(Gcal) > Lambda:
        raise ValueError("|Gcal| exceeds Lambda")
    root = np.sqrt(Lambda**2 - Gcal**2)
    G = root * np.cos(gamma)
    k = 0 if Gcal > 0 else 1
    g = -np.arctan((root / Gcal) * np.sin(gamma)) + k * np.pi
    return G, g


def gg_inverse(Lambda, G, g, branch="near-0"):
    """Invert gg_forward on one chart.

    branch "near-0" targets Gcal > 0 (g within pi/2 of 0), "near-pi" targets
    Gcal < 0 (g within pi/2 of pi).  At the chart center G = 0, cos g = +-1
    any gamma maps there; the convention gamma = 0 is returned.
    """
    if branch == "near-0":
        d = np.angle(np.exp(1j * g))
        sign = 1.0
    elif branch == "near-pi":
        d = np.angle(np.exp(1j * (g - np.pi)))
        sign = -1.0
    else:
        raise ValueError("branch must be 'near-0' or 'near-pi'")
    if abs(d) >= np.pi / 2:
        raise ValueError("point outside the %s chart" % branch)
    if G**2 > Lambda**2:
        raise ValueError("|G| exceeds Lambda")
    # cos(g) = sign * cos(d), tan(g) = tan(d) on the chart
    Gcal = sign * np.sqrt(Lambda**2 - G**2) * np.cos(d)
    v = -Gcal * np.tan(d)
    if v == 0.0 and G == 0.0:
        return Gcal, 0.0
    return Gcal, np.arctan2(v, G)


def rr_forward(m0, y, x):
    """Radial-orbit chart (y, x) -> (R, r) for the outer body, at real (y, x).

    r = (y^2/m0^3)(1 - cos xi'),  R = (m0^3/y) sin xi' / (1 - cos xi'),
    with xi' solving xi' - sin xi' = x.  R is the analytic (signed) branch of
    (m0^3/y) sqrt((cos xi' + 1)/(1 - cos xi')): positive on 0 < x < pi
    (outgoing), negative on pi < x < 2 pi, so the map is canonical with unit
    Jacobian.  The energy identity R^2/(2 m0) - m0^2/r = -m0^5/(2 y^2) holds
    identically.
    """
    if y <= 0:
        raise ValueError("y must be positive")
    return rr_forward_with_jacobian(m0, y, x)[:2]


def _radial_xi(x):
    """xi' of the radial-orbit chart at one real x, in floats through
    xi_prime_real (no KeplerSolution record).  x outside (0, 2 pi), NaN
    included, or within X_COLLISION of either end (the collision) raises
    ValueError."""
    x = float(x)
    if not 0.0 < x < 2 * math.pi:
        raise ValueError("Re x must lie in (0, 2*pi), got %r" % (x,))
    if min(x, 2 * math.pi - x) < X_COLLISION:
        raise ValueError("x = %.17g: collision of the outer body (r = 0)" % x)
    return xi_prime_real(x)


def rr_forward_with_jacobian(m0, y, x):
    """rr_forward plus the partials (dr/dy, dr/dx) needed by the chain rule.

    Real-only: one state of the flow, computed in floats through math (the
    range check, guarded Newton and collision check of _radial_xi);
    radial_radius is the array path, and the two agree bitwise.  x outside
    (0, 2 pi) or within X_COLLISION of either end (the collision) raises
    ValueError."""
    xi = _radial_xi(x)
    one_m_c = 1.0 - math.cos(xi)
    sin_xi = math.sin(xi)
    m03 = m0**3
    scale = y**2 / m03
    r = scale * one_m_c
    R = m03 / y * sin_xi / one_m_c
    dr_dy = 2 * y * one_m_c / m03
    dr_dx = scale * sin_xi / one_m_c
    return R, r, dr_dy, dr_dx


def radial_radius(m0, y, x):
    """r of the radial-orbit chart for arrays of (y, x) of one shape with
    real x in (0, 2*pi), from one array Kepler solve; the same values and
    collision check as rr_forward_with_jacobian.  A one-entry x (one state)
    goes through that function's float helper _radial_xi, bitwise the array
    result."""
    x = np.asarray(x, dtype=float)
    if x.size == 1:
        return y**2 / m0**3 * (1.0 - math.cos(_radial_xi(x.flat[0])))
    xi = xi_prime_array(x)
    if (np.minimum(x, 2 * np.pi - x) < X_COLLISION).any():
        raise ValueError("x within X_COLLISION of 0 or 2 pi: collision of the outer body")
    return y**2 / m0**3 * (1.0 - np.cos(xi))


def orbital_elements(m0, Lambda, G):
    """Semi-major axis and eccentricity: a = Lambda^2/m0^3, e = sqrt(1 - G^2/Lambda^2)."""
    if abs(G) > Lambda:
        raise ValueError("|G| exceeds Lambda")
    a = Lambda**2 / m0**3
    e = np.sqrt(max(0.0, 1.0 - G**2 / Lambda**2))
    return a, e
