"""Time integration of the secular flows, event bookkeeping and libration
detection.

integrate is the one flow entry point: it builds the vector field J grad H
on floats and steps it with rk.solve, an adaptive embedded Runge-Kutta pair
(RK45 or DOP853), then samples, guards and annotates the run.
Symplecticity is monitored through the relative energy drift rather than
enforced, since the Hamiltonians are non-separable.
The start state's class decides the chart, with its canonical pairing,
kernels and event series (see hamiltonians.CHARTS).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import chart_named, chart_of, check_domain, gradient
from .potentials import SingularLocusError

DEFAULT_ENERGY_TOL = 1e-8


class EnergyDriftError(RuntimeError):
    """Relative energy drift exceeded the accepted tolerance."""


class IntegrationError(RuntimeError):
    """The step controller failed before reaching the requested time, or
    the state left the chart's domain during the run."""


@dataclass(frozen=True)
class StepControl:
    """Tolerances of the adaptive embedded pair, and the pair: "RK45" or
    "DOP853" (any other method is a ValueError before the first step)."""

    rtol: float = 1e-10
    atol: float = 1e-10
    method: str = "RK45"


@dataclass
class Trajectory:
    """Time-stamped states with energies and event annotations.

    states has one row per accepted output time, in the field order of the
    state class of chart (a key of hamiltonians.CHARTS); events is a list
    of (time, kind) with kind in {"squeeze", "winding-2pi", "domain-exit"}.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    chart: str
    events: list = field(default_factory=list)

    @property
    def energy_drift(self):
        e0 = self.energies[0]
        return float(np.max(np.abs(self.energies - e0)) / max(abs(e0), 1e-300))


def integrate(spec, state0, T, *, step_ctrl=StepControl(),
              energy_tol=DEFAULT_ENERGY_TOL, domain_guard=None):
    """Flow z' = J grad H of the reduced Hamiltonian from state0 for duration
    T, in the chart of state0's class (SecularState or ActionAngleState),
    stepped by perilib.rk with the embedded pair step_ctrl.method.

    A non-finite T raises ValueError, and state0 outside the physical domain
    DomainError (see hamiltonians.check_domain), before a step.  The
    trajectory is sampled on a uniform grid of 2000 points, in integration
    order: the first sample is state0 at t = 0, for T < 0 too.  T = 0 gives
    the one-sample trajectory of state0, with no events.  Leaving the
    domain, or f_eps's singular locus, at a step or at a sample raises
    IntegrationError, as does a step size that falls below the float
    spacing.

    domain_guard, when given, is a scalar function of the bare state that is
    positive inside the admissible domain; its zero crossing stops the run
    and records a domain-exit event, whose own sample comes last unless a
    grid sample lies at its time.  Squeeze events (sign changes of G) are
    detected on the sampled output; the winding-2pi event marks the first
    time the unwrapped angle has varied by 2*pi.

    f_eps picks its trapezoid rule per evaluation (see potentials.N_LADDER).
    """
    if not math.isfinite(T):
        raise ValueError("duration T must be finite, got %r" % (T,))
    chart = chart_of(state0)
    check_domain(spec, state0)
    if T == 0:
        Z = np.array([state0.as_array()], dtype=float)
        return Trajectory(np.zeros(1), Z, chart.energies(spec, Z), chart.name)

    def rhs(t, z):
        # the integrator's state is a list of floats, so the gradient
        # computes in floats; the slope goes back as a list too
        try:
            dH = gradient(spec, chart.state(*z)).tolist()
        except (ValueError, SingularLocusError) as exc:  # DomainError, chart maps, f_eps
            raise IntegrationError("state left the domain at t=%.17g: %s" % (t, exc)) from exc
        out = [0.0] * len(dH)
        for ip, iq in chart.pairs:
            out[ip] = -dH[iq]
            out[iq] = dH[ip]
        return out

    events = None
    if domain_guard is not None:
        guard = lambda t, z: domain_guard(z)
        guard.terminal = True
        events = [guard]

    # imported here, as the commands that never integrate do not need it
    from .rk import solve

    sol = solve(rhs, (0.0, T), state0.as_array(), np.linspace(0.0, T, 2000),
                step_ctrl.method, step_ctrl.rtol, step_ctrl.atol, events)
    if sol.status == -1:
        raise IntegrationError(sol.message)
    times, states = sol.times, sol.states
    exited = sol.status == 1
    if exited:
        te, ze = sol.t_events[0][-1], sol.y_events[0][-1]
        if (te - times[-1]) * T > 0:
            times = np.append(times, te)
            states = np.vstack([states, ze])
    try:
        energies = chart.energies(spec, states)
    except (ValueError, SingularLocusError) as exc:
        raise IntegrationError("a sample left the domain: %s" % exc) from exc
    traj = Trajectory(times, states, energies, chart.name)
    if exited:
        traj.events.append((times[-1], "domain-exit"))
    _annotate_events(traj, spec)
    if not exited and traj.energy_drift > energy_tol:
        raise EnergyDriftError(
            "relative energy drift %.3e exceeds %.1e" % (traj.energy_drift, energy_tol)
        )
    return traj


def _squeezes(G):
    """Indices i at which G changes sign after sample i: the
    eccentricity-one passages.  The sign change is taken between nearest
    nonzero samples, so it counts across a run of exact zeros too (G is
    exactly 0 wherever |Gcal| >= Lambda), and i is then the last nonzero
    sample before the run; a zero run with the same sign on both sides, or
    an all-zero G, gives none."""
    nz = np.flatnonzero(G)
    flips = np.sign(G[nz[1:]]) * np.sign(G[nz[:-1]]) < 0
    return nz[:-1][flips]


def _annotate_events(traj, spec):
    chart = chart_named(traj.chart)
    G = chart.G_series(spec.Lambda, traj.states)
    for i in _squeezes(G):
        # linear interpolation of the crossing time
        t0, t1 = traj.times[i], traj.times[i + 1]
        w = G[i] / (G[i] - G[i + 1])
        traj.events.append((t0 + w * (t1 - t0), "squeeze"))
    ang = np.unwrap(traj.states[:, chart.angle_col])
    hit = np.flatnonzero(np.abs(ang - ang[0]) >= 2 * np.pi)
    if len(hit):
        traj.events.append((traj.times[hit[0]], "winding-2pi"))
    traj.events.sort(key=lambda ev: ev[0])


def detect_libration(traj, spec):
    """Summary of a (near-)libration run.

    Returns (winding, squeezes, Gcal_drift): total unwrapped variation of
    the libration angle (g in the secular chart, gamma in action-angle),
    number of sign changes of G (eccentricity-one passages), and
    max |Gcal(t) - Gcal(0)| (0.0 in the secular chart, which does not carry
    Gcal).  The one sample of a run of zero duration reads (0.0, 0, 0.0);
    2 to 9 samples raise ValueError.
    """
    if 1 < len(traj.times) < 10:
        raise ValueError("trajectory too short to unwrap reliably")
    chart = chart_named(traj.chart)
    ang = np.unwrap(traj.states[:, chart.angle_col])
    squeezes = len(_squeezes(chart.G_series(spec.Lambda, traj.states)))
    col = chart.Gcal_col
    drift = 0.0 if col is None else float(
        np.max(np.abs(traj.states[:, col] - traj.states[0, col])))
    return float(np.max(np.abs(ang - ang[0]))), squeezes, drift
