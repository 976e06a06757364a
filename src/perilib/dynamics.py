"""Time integration of the secular flows, with the events and libration
summary of each run.

integrate is the one flow entry point: it builds the vector field J grad H
on floats and steps it with rk.solve, an adaptive embedded Runge-Kutta pair
(RK45 or DOP853), then samples and guards the run and measures it in one
pass over the samples.
Symplecticity is monitored through the relative energy drift rather than
enforced, since the Hamiltonians are non-separable.
The start state's class decides the chart, with its canonical pairing,
kernels and event series (see hamiltonians.CHARTS).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import DomainError, chart_named, chart_of, check_domain, gradient
from .potentials import SingularLocusError

DEFAULT_ENERGY_TOL = 1e-8
SAMPLES = 2000  # output samples of a run, on a uniform grid over [0, T]


class EnergyDriftError(RuntimeError):
    """Relative energy drift exceeded the accepted tolerance."""


class IntegrationError(RuntimeError):
    """The step controller failed before reaching the requested time, the
    state left the chart's domain during the run, or the run's arithmetic
    overflowed."""


@dataclass(frozen=True)
class StepControl:
    """Tolerances of the adaptive embedded pair, and the pair: "RK45" or
    "DOP853" (any other method is a ValueError before the first step).
    first_step, when given, is the size of the first trial step (see
    rk.solve); by default solve_ivp's initial-step rule picks it."""

    rtol: float = 1e-10
    atol: float = 1e-10
    method: str = "RK45"
    first_step: float | None = None


@dataclass
class Trajectory:
    """Time-stamped states with energies, events and libration summary.

    states has one row per accepted output time, in the field order of the
    state class of chart (a key of hamiltonians.CHARTS); events is a list
    of (time, kind) with kind in {"squeeze", "winding-2pi", "domain-exit"}.
    integrate measures every run it returns (see _measure): winding is the
    largest unwrapped variation of the libration angle (g in the secular
    chart, gamma in action-angle) from its start, squeezes the number of
    sign changes of G (eccentricity-one passages), and Gcal_drift
    max |Gcal(t) - Gcal(0)| (0.0 in the secular chart, which does not
    carry Gcal).  The one sample of a run of zero duration reads 0.0, 0
    and 0.0; a trajectory that was not measured reads None.  radii, which
    integrate sets, is the radial distance r of the outer body at each
    sample: the secular chart's r column, or in the action-angle chart the
    r that the sample energies solve Kepler's equation for.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    chart: str
    events: list = field(default_factory=list)
    winding: float | None = None
    squeezes: int | None = None
    Gcal_drift: float | None = None
    radii: np.ndarray | None = None

    @property
    def energy_drift(self):
        e0 = self.energies[0]
        return float(np.max(np.abs(self.energies - e0)) / max(abs(e0), 1e-300))


def integrate(spec, state0, T, *, step_ctrl=StepControl(),
              energy_tol=DEFAULT_ENERGY_TOL, domain_guard=None):
    """Flow z' = J grad H of the reduced Hamiltonian from state0 for duration
    T, in the chart of state0's class (SecularState or ActionAngleState),
    stepped by perilib.rk with the embedded pair step_ctrl.method.

    A T that is negative or not finite raises ValueError, and state0
    outside the physical domain (see hamiltonians.check_domain) or of
    non-finite energy DomainError, before a step.  The trajectory is sampled
    on a uniform grid of SAMPLES points over [0, T], the first one state0.
    T = 0 gives the one-sample trajectory of state0, with no events.
    Leaving the domain, or f_eps's singular locus, at a step or at a sample
    raises IntegrationError, as do a step size that falls below the float
    spacing and arithmetic that overflows in the field, the step controller
    or a sample's energy, without a numpy warning.

    domain_guard, when given, is a scalar function of the bare state that is
    positive inside the admissible domain; its zero crossing stops the run
    and records a domain-exit event, whose own sample comes last unless a
    grid sample lies at its time.  One pass over the samples measures every
    run (see _measure): its squeeze and winding-2pi events and its winding,
    squeezes and Gcal_drift.

    f_eps picks its trapezoid rule per evaluation (see potentials.N_LADDER).
    """
    if not (math.isfinite(T) and T >= 0):
        raise ValueError("duration T must be finite and nonnegative, got %r" % (T,))
    chart = chart_of(state0)
    check_domain(spec, state0)
    Z0 = np.array([state0.as_array()], dtype=float)
    # an energy past the float range comes out inf or NaN: checked, not warned
    with np.errstate(all="ignore"):
        r0 = chart.radii(spec, Z0)
        e0 = chart.energies(spec, Z0, r0)
    if not math.isfinite(e0[0]):
        raise DomainError("state %r has energy %r" % (state0, float(e0[0])))
    if T == 0:
        traj = Trajectory(np.zeros(1), Z0, e0, chart.name, radii=r0)
        _measure(traj, spec)
        return traj

    # J grad H: a (momentum p, coordinate q) pair of the chart moves as
    # p' = -dH/dq, q' = dH/dp; slope entry i is sign i times partial col i
    col, sign = [0] * 4, [1.0] * 4
    for p, q in chart.pairs:
        col[p], col[q], sign[p] = q, p, -1.0
    (i0, i1, i2, i3), (s0, s1, s2, s3) = col, sign
    state = chart.state

    def rhs(t, z):
        # the integrator's state is a list of floats, so the gradient
        # computes in floats; the slope goes back as a list too
        try:
            d = gradient(spec, state(*z)).tolist()
        except (ValueError, SingularLocusError) as exc:  # DomainError, chart maps, f_eps
            raise IntegrationError("state left the domain at t=%.17g: %s" % (t, exc)) from exc
        except ArithmeticError as exc:  # a value past the float range
            raise IntegrationError("the field's arithmetic failed at t=%.17g: %r"
                                   % (t, exc)) from exc
        return [s0 * d[i0], s1 * d[i1], s2 * d[i2], s3 * d[i3]]

    stop = None if domain_guard is None else lambda t, z: domain_guard(z)

    # imported here, as the commands that never integrate do not need it
    from .rk import solve

    try:
        sol = solve(rhs, T, state0.as_array(), np.linspace(0.0, T, SAMPLES),
                    step_ctrl.method, step_ctrl.rtol, step_ctrl.atol, stop,
                    first_step=step_ctrl.first_step)
    except ArithmeticError as exc:  # the step controller's, in floats
        raise IntegrationError("the step controller's arithmetic failed: %r" % (exc,)) from exc
    if sol.status == -1:
        raise IntegrationError(sol.message)
    times, states = sol.times, sol.states
    exited = sol.status == 1
    if exited and sol.t_stop > times[-1]:
        times = np.append(times, sol.t_stop)
        states = np.vstack([states, sol.y_stop])
    # the stack's rows are computed independently: the first are r0 and e0
    try:
        with np.errstate(all="ignore"):
            radii = np.concatenate([r0, chart.radii(spec, states[1:])])
            energies = np.concatenate([e0, chart.energies(spec, states[1:], radii[1:])])
    except (ValueError, ArithmeticError) as exc:  # DomainError, f_eps
        raise IntegrationError("a sample left the domain: %s" % exc) from exc
    if not np.isfinite(energies).all():
        raise IntegrationError("a sample's energy is not finite")
    traj = Trajectory(times, states, energies, chart.name, radii=radii)
    if exited:
        traj.events.append((times[-1], "domain-exit"))
    _measure(traj, spec)
    if not exited and traj.energy_drift > energy_tol:
        raise EnergyDriftError(
            "relative energy drift %.3e exceeds %.1e" % (traj.energy_drift, energy_tol)
        )
    return traj


def _measure(traj, spec):
    """The one pass over a trajectory's samples: appends its squeeze and
    winding-2pi events, sorts the events by time, and sets its winding,
    squeezes and Gcal_drift (see Trajectory).

    A squeeze is a sign change of G after sample i: the eccentricity-one
    passage, timed by linear interpolation.  The sign change is taken
    between nearest nonzero samples, so it counts across a run of exact
    zeros too (G is exactly 0 wherever |Gcal| >= Lambda), and i is then the
    last nonzero sample before the run, so that the passage is timed at the
    first zero; a zero run with the same sign on both sides, or an all-zero
    G, gives none."""
    chart = chart_named(traj.chart)
    times, Z = traj.times, traj.states
    G = chart.G_series(spec.Lambda, Z)
    nz = np.flatnonzero(G)
    flips = nz[:-1][np.sign(G[nz[1:]]) * np.sign(G[nz[:-1]]) < 0]
    for i in flips:
        t0, t1 = times[i], times[i + 1]
        w = G[i] / (G[i] - G[i + 1])
        traj.events.append((t0 + w * (t1 - t0), "squeeze"))
    ang = np.unwrap(Z[:, chart.angle_col])
    turn = np.abs(ang - ang[0])
    hit = np.flatnonzero(turn >= 2 * np.pi)
    if len(hit):
        traj.events.append((times[hit[0]], "winding-2pi"))
    traj.events.sort(key=lambda ev: ev[0])
    traj.winding = float(np.max(turn))
    traj.squeezes = len(flips)
    col = chart.Gcal_col
    traj.Gcal_drift = 0.0 if col is None else float(np.max(np.abs(Z[:, col] - Z[0, col])))
