"""Hypothesis checker for the perihelion-libration stability statement, and
the end-to-end libration experiment it gates.

The statement is existential: it asserts two absolute constants C* > C_* > 1
exist making its inequality system sufficient, without giving values.  The
checker therefore evaluates every inequality under configurable surrogate
constants (defaults C*=10, C_*=2) and reports measured left/right sides;
passing it is a numerical illustration, not a proof.  The domain constant
c0 is measured on the fly (see kepler.estimate_c0), never assumed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .coords import ActionAngleState, radial_radius
from .dynamics import StepControl, detect_libration, integrate
from .kepler import estimate_c0
from .potentials import DEFAULT_QUAD

DEFAULT_C_UPPER = 10.0  # surrogate C*
DEFAULT_C_LOWER = 2.0   # surrogate C_*


@dataclass(frozen=True)
class Inequality:
    label: str
    lhs: float
    rhs: float

    @property
    def holds(self):
        return bool(self.lhs < self.rhs)

    def as_dict(self):
        return {
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
        }


@dataclass
class TheoremReport:
    """Measured sides of every hypothesis inequality plus derived quantities."""

    inequalities: list
    passed: bool
    N0: float
    eta: float
    T_estimate: float
    c0: float
    params: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "inequalities": [iq.as_dict() for iq in self.inequalities],
            "pass": self.passed,
            "N0": self.N0,
            "eta": self.eta,
            "T_estimate": self.T_estimate,
            "c0": self.c0,
            "params": self.params,
        }


def holomorphy_width_constant(s0):
    """16 (sup over the complex strip of half-width s0 of |sin|)^2 = 16 cosh(s0)^2."""
    return 16.0 * math.cosh(s0) ** 2


def check_libration_theorem(spec, eps0, delta, s0, alpha_minus, alpha_plus, N=8,
                        c_upper=DEFAULT_C_UPPER, c_lower=DEFAULT_C_LOWER,
                        c0=None, c0_grid=48):
    """Evaluate the full hypothesis system of the libration statement.

    Inequalities covered: the parameter ranges 0 < eps0 < 1 and
    0 < delta <= Lambda/4; the ordering alpha- < alpha+/4; the domain
    inequality 4 beta* a / (c0 alpha- eps0) < 1; the mass-vs-width bound
    C* delta/(beta_* Lambda) <= 1; the explicit holomorphy bound
    16 cosh(s0)^2 delta / Lambda < 1; the contraction bound defining N0; and
    the winding bound eta < 1.  Failure is data, not an error.
    """
    Lam, a = spec.Lambda, spec.a
    m0 = spec.m0
    beta_low = spec.masses.beta_star(spec.index)
    beta_up = spec.masses.beta_upper(spec.index)
    if c0 is None:
        # out-of-range eps0 must surface as failed inequalities, not an
        # exception: NaN comparisons are False, so every c0-dependent row fails
        c0 = estimate_c0(eps0, c0_grid) if 0.0 < eps0 < 1.0 else math.nan

    ineqs = [
        Inequality("eps0-above-zero", 0.0, eps0),
        Inequality("eps0-below-one", eps0, 1.0),
        Inequality("delta-above-zero", 0.0, delta),
        Inequality("delta-at-most-quarter-Lambda", delta, Lam / 4 * (1 + 1e-15)),
        Inequality("alpha-ordering", alpha_minus, alpha_plus / 4),
        Inequality(
            "outer-orbit-keeps-clear (Kepler domain)",
            4 * beta_up * a / (c0 * alpha_minus * eps0),
            1.0,
        ),
        Inequality(
            "mass-vs-width", c_upper * delta / (beta_low * Lam), 1.0 + 1e-15
        ),
        Inequality(
            "holomorphy-width", holomorphy_width_constant(s0) * delta / Lam, 1.0
        ),
    ]

    ratio32 = (alpha_plus / alpha_minus) ** 1.5
    branch_angles = beta_low * Lam / (c0**2 * eps0**2 * delta * s0) * math.sqrt(
        a / alpha_minus
    )
    branch_actions = beta_low / (c0**2 * eps0**2.5) * (a / alpha_minus)
    inv_N0 = c_lower * max(branch_angles, branch_actions) * ratio32
    contraction_rhs = c0**2 * eps0**2 * alpha_minus**2 / (2 * alpha_plus**2)
    ineqs.append(Inequality("contraction (defines N0)", inv_N0, contraction_rhs))
    N0 = 1.0 / inv_N0

    eta = c_lower * max(
        alpha_plus**2 / (beta_low * math.sqrt(alpha_minus**3 * a)),
        alpha_plus**2
        / (c0**2 * eps0**2.5 * alpha_minus**2)
        * math.sqrt(a / alpha_minus),
        alpha_plus**2
        / (c0**2 * eps0**2 * alpha_minus**2)
        * (Lam / (s0 * delta))
        * 2.0 ** (-min(N0, 1022.0)),
    )
    ineqs.append(Inequality("winding", eta, 1.0))

    T = Lam * alpha_plus**3 / (beta_low * m0**2 * a) * (3 * np.pi / eta)
    passed = all(iq.holds for iq in ineqs)
    return TheoremReport(
        ineqs,
        passed,
        N0,
        eta,
        T,
        c0,
        params={
            "eps0": eps0,
            "delta": delta,
            "s0": s0,
            "alpha_minus": alpha_minus,
            "alpha_plus": alpha_plus,
            "N": N,
            "C_upper": c_upper,
            "C_lower": c_lower,
            "beta_star": beta_low,
            "beta_upper": beta_up,
            "Lambda": Lam,
            "m0": m0,
            "index": spec.index,
        },
    )


def scaling_chain_parameters(Lambda=1.0, m0=1.0, eps0=0.25, delta_frac=0.025,
                              s0=1.0, alpha_ratio=16.0, alpha_margin=1.0,
                              beta_frac=0.5):
    """Construct experiment parameters along the scaling chain that makes
    the hypothesis system satisfiable, with explicit margins.

    The chain fixes eps0 and delta, takes the y-window wide enough for the
    initial layer (alpha_plus/alpha_minus >= 9; default 16), then picks the
    mass scale inside its admissible window: above the winding threshold
    ~ Lambda * y0 / a (so the pericenter turns at least a full turn within
    one radial transit) and below the domain ceiling c0 alpha- eps0 / (4 a)
    (so the outer body stays clear of the inner ellipse).  beta_frac places
    beta* geometrically inside that window.
    """
    a = Lambda**2 / m0**3
    c0 = estimate_c0(eps0, 48)
    delta = delta_frac * Lambda
    # winding demand: one turn within a transit needs roughly
    # beta_bar a / (Lambda y0) * 1.3 / eps0^(1/6) >= 2 pi  (measured scaling)
    def windows(alpha_minus):
        y0 = 2 * math.sqrt(m0**3 * alpha_minus)
        lo = 2 * np.pi * Lambda * y0 * eps0 ** (1.0 / 6.0) / (1.31 * a)
        hi = c0 * alpha_minus * eps0 / (4 * a)
        return lo, hi

    alpha_minus = 1000.0 * alpha_margin
    lo, hi = windows(alpha_minus)
    while lo * 4 > hi:  # demand a x4 window so both beta* variants fit
        alpha_minus *= 2
        lo, hi = windows(alpha_minus)
    beta_star_target = lo ** (1 - beta_frac) * hi**beta_frac
    return {
        "Lambda": Lambda,
        "m0": m0,
        "eps0": eps0,
        "delta": delta,
        "s0": s0,
        "alpha_minus": alpha_minus,
        "alpha_plus": alpha_ratio * alpha_minus,
        "beta_star_target": beta_star_target,
        "c0": c0,
    }


@dataclass
class LibrationSummary:
    winding: float
    squeezes: int
    Gcal_drift: float
    r_min: float
    collision_radius: float
    domain_exit: bool
    duration: float

    def as_dict(self):
        # both thresholds flagged: 2 pi is the qualitative libration turn,
        # 3 pi the stronger bound the stability statement certifies
        return {
            "winding": self.winding,
            "winding_exceeds_2pi": bool(self.winding >= 2 * np.pi),
            "winding_exceeds_3pi": bool(self.winding >= 3 * np.pi),
            "squeezes": self.squeezes,
            "Gcal_drift": self.Gcal_drift,
            "r_min": self.r_min,
            "collision_radius": self.collision_radius,
            "domain_exit": self.domain_exit,
            "duration": self.duration,
        }


def run_libration_experiment(spec, report, state0, budget=None,
                             step_ctrl=StepControl(rtol=1e-12, atol=1e-12,
                                                   method="DOP853"),
                             quad=DEFAULT_QUAD, samples=2000):
    """Integrate the action-angle flow under a passing hypothesis report.

    The run lasts min(report.T_estimate, budget) or until the trajectory
    reaches the boundary of the real domain D (a domain-exit event).
    Returns (Trajectory, LibrationSummary).
    """
    if not report.passed:
        raise ValueError("hypothesis report does not pass; experiment not gated")
    p = report.params
    eps0, delta = p["eps0"], p["delta"]
    a_min, a_plus = p["alpha_minus"], p["alpha_plus"]
    Lam, m0 = spec.Lambda, spec.m0
    if not isinstance(state0, ActionAngleState):
        state0 = ActionAngleState(*state0)
    if abs(state0.Gcal - Lam) > delta / 2 + 1e-12:
        raise ValueError("initial Gcal outside the delta/2 layer below Lambda")
    if abs(state0.x - np.pi) > 1e-12:
        raise ValueError("initial x must be pi (outer body at apoapsis)")
    y_lo, y_hi = 2 * math.sqrt(m0**3 * a_min), math.sqrt(m0**3 * a_plus)
    if not y_lo <= state0.y <= 0.5 * (math.sqrt(m0**3 * a_min) + y_hi):
        raise ValueError("initial y outside the admissible window")
    x_lo, x_hi = 2 * math.sqrt(eps0), 2 * np.pi - 2 * math.sqrt(eps0)

    def guard(z):
        Gc, _, y, x = z
        return min(
            x - x_lo,
            x_hi - x,
            y - y_lo,
            y_hi - y,
            Gc - (Lam - delta),
            Lam - Gc + 1e-12,
        )

    if budget is None:
        # a few radial transit times: x advances at roughly m0^5/y^3
        budget = 3.0 * (x_hi - np.pi) * state0.y**3 / m0**5
    T = min(report.T_estimate, budget)
    traj = integrate(
        spec,
        state0,
        T,
        chart="action-angle",
        step_ctrl=step_ctrl,
        quad=quad,
        t_eval=np.linspace(0.0, T, samples),
        domain_guard=guard,
    )
    winding, squeezes, drift = detect_libration(traj, spec)
    r_vals = radial_radius(m0, traj.states[:, 2], traj.states[:, 3])
    summary = LibrationSummary(
        winding=winding,
        squeezes=squeezes,
        Gcal_drift=drift,
        r_min=float(r_vals.min()),
        collision_radius=2 * spec.masses.beta_upper(spec.index) * spec.a,
        domain_exit=any(kind == "domain-exit" for _, kind in traj.events),
        duration=float(traj.times[-1]),
    )
    return traj, summary
