"""Hypothesis checker for the perihelion-libration stability statement, and
the end-to-end libration experiment it gates.

The statement is existential: it asserts two absolute constants C* > C_* > 1
exist making its inequality system sufficient, without giving values.  The
checker therefore evaluates every inequality under configurable surrogate
constants (defaults C*=10, C_*=2) and reports measured left/right sides;
passing it is a numerical illustration, not a proof.  The domain constant
c0 is measured (see kepler.estimate_c0), never assumed: once per eps0 in a
process, so repeated checks at one eps0 share it.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coords import ActionAngleState, radial_radius
from .dynamics import StepControl, integrate
from .hamiltonians import libration_box
from .kepler import estimate_c0

DEFAULT_C_UPPER = 10.0  # surrogate C*
DEFAULT_C_LOWER = 2.0   # surrogate C_*
LIBRATION_STEP = StepControl(rtol=1e-12, atol=1e-12, method="DOP853")  # every libration run


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


def check_libration_theorem(spec, eps0, delta, s0, alpha_minus, alpha_plus,
                            c_upper=DEFAULT_C_UPPER, c_lower=DEFAULT_C_LOWER):
    """Evaluate the full hypothesis system of the libration statement.

    Inequalities covered: the parameter ranges 0 < eps0 < 1 and
    0 < delta <= Lambda/4; the ordering alpha- < alpha+/4; the domain
    inequality 4 beta* a / (c0 alpha- eps0) < 1; the mass-vs-width bound
    C* delta/(beta_* Lambda) <= 1; the explicit holomorphy bound
    16 cosh(s0)^2 delta / Lambda < 1; the contraction bound defining N0; and
    the winding bound eta < 1.  Failure is data, not an error, except for
    alphas whose powers below leave the float range, an eps0 outside (0, 1)
    (refused before c0 is measured), and eps0, c_lower, s0 and delta (or
    the measured c0) that put cosh(s0), inv_N0, N0, eta or T outside
    (0, inf): a ValueError.  c0 is measured by kepler.estimate_c0, once per
    eps0 in a process.
    """
    # negated, so that NaN fails; a power past the float range is NaN, and a
    # negative alpha fails on its cube before the ratio's complex power
    try:
        powers = (alpha_minus**3, alpha_plus**3, (alpha_plus / alpha_minus) ** 1.5)
    except (OverflowError, ZeroDivisionError):
        powers = (math.nan,)
    if not all(0 < v < math.inf for v in powers):
        raise ValueError("alpha_minus=%r and alpha_plus=%r give powers outside the "
                         "float range" % (alpha_minus, alpha_plus))
    Lam, a = spec.Lambda, spec.a
    m0 = spec.m0
    beta_low, beta_up = spec.beta_star, spec.beta_upper
    # negated, so that NaN is refused too
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0=%r lies outside (0, 1)" % (eps0,))
    c0 = estimate_c0(eps0)

    out_of_range = ValueError(
        "eps0=%r, c_lower=%r, s0=%r and delta=%r give cosh(s0), N0, eta or T "
        "outside the float range" % (eps0, c_lower, s0, delta))
    # the inputs are Python floats, whose arithmetic raises past the float
    # range (cosh(s0), Lam / (s0 * delta)) where numpy's gives inf: either
    # way the inputs are rejected
    try:
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
        # c0 is a numpy float, so a quotient past the float range is 0 or inf
        # with a warning; the check below rejects it instead
        with np.errstate(all="ignore"):
            branch_angles = beta_low * Lam / (c0**2 * eps0**2 * delta * s0) * math.sqrt(
                a / alpha_minus
            )
            branch_actions = beta_low / (c0**2 * eps0**2.5) * (a / alpha_minus)
            inv_N0 = c_lower * max(branch_angles, branch_actions) * ratio32
            contraction_rhs = c0**2 * eps0**2 * alpha_minus**2 / (2 * alpha_plus**2)
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
            T = Lam * alpha_plus**3 / (beta_low * m0**2 * a) * (3 * np.pi / eta)
    except (OverflowError, ZeroDivisionError):
        raise out_of_range from None
    # negated, so that NaN fails too
    if not all(0 < v < math.inf for v in (inv_N0, N0, eta, T)):
        raise out_of_range
    ineqs.append(Inequality("contraction (defines N0)", inv_N0, contraction_rhs))
    ineqs.append(Inequality("winding", eta, 1.0))
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
            "C_upper": c_upper,
            "C_lower": c_lower,
            "beta_star": beta_low,
            "beta_upper": beta_up,
            "Lambda": Lam,
            "m0": m0,
            "index": spec.index,
        },
    )


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


def run_libration_experiment(spec, report, state0):
    """Integrate the action-angle flow under a passing hypothesis report.

    The run lasts min(report.T_estimate, three radial transit times) or
    until the trajectory reaches the boundary of the real domain D (a
    domain-exit event).  Its first trial step is a hundredth of that
    length: from the initial-step rule's, some 3e-9 of it, the first eight
    steps each only grew tenfold.  Returns (Trajectory, LibrationSummary).
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
    (G_lo, G_hi), (y_lo, y_hi), (x_lo, x_hi) = libration_box(spec, eps0, a_min, a_plus, delta)
    # y_lo / 2 = sqrt(m0^3 alpha-) exactly
    if not y_lo <= state0.y <= 0.5 * (y_lo / 2 + y_hi):
        raise ValueError("initial y outside the admissible window")

    def guard(z):
        Gc, _, y, x = z
        return min(
            x - x_lo,
            x_hi - x,
            y - y_lo,
            y_hi - y,
            Gc - G_lo,
            G_hi - Gc + 1e-12,
        )

    # x advances at roughly m0^5/y^3
    transits = 3.0 * (x_hi - np.pi) * state0.y**3 / m0**5
    T = min(report.T_estimate, transits)
    traj = integrate(spec, state0, T, step_ctrl=replace(LIBRATION_STEP, first_step=T / 100),
                     domain_guard=guard)
    r_vals = radial_radius(m0, traj.states[:, 2], traj.states[:, 3])
    summary = LibrationSummary(
        winding=traj.winding,
        squeezes=traj.squeezes,
        Gcal_drift=traj.Gcal_drift,
        r_min=float(r_vals.min()),
        collision_radius=2 * spec.beta_upper * spec.a,
        domain_exit=any(kind == "domain-exit" for _, kind in traj.events),
        duration=float(traj.times[-1]),
    )
    return traj, summary
