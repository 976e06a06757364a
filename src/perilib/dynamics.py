"""Time integration of the secular flows, event bookkeeping and libration
detection.

States are integrated with an adaptive embedded Runge-Kutta pair
(scipy's solve_ivp); symplecticity is monitored through the relative energy
drift rather than enforced, since the Hamiltonians are non-separable.
The start state's class decides the chart, with its canonical pairing,
kernels and event series (see hamiltonians.CHARTS).
"""

from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import SECULAR_PAIRS, chart_named, chart_of, check_domain, gradient
from .potentials import SingularLocusError

DEFAULT_ENERGY_TOL = 1e-8


class EnergyDriftError(RuntimeError):
    """Relative energy drift exceeded the accepted tolerance."""


class IntegrationError(RuntimeError):
    """The step controller failed before reaching the requested time, or
    the state left the chart's domain during the run."""


@dataclass(frozen=True)
class StepControl:
    """Tolerances of the adaptive embedded pair."""

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


def hamiltonian_flow_rhs(energy_grad, pairs):
    """Vector field of a 2-DOF Hamiltonian.

    pairs lists the (momentum index, coordinate index) of each canonical
    pair within the state vector; energy_grad returns dH/dz in state order,
    as an array.  The vector field is returned as a list of floats, which
    the integrator converts once.
    """

    def rhs(t, z):
        try:
            dH = energy_grad(z).tolist()
        except (ValueError, SingularLocusError) as exc:  # DomainError, chart maps, f_eps
            raise IntegrationError("state left the domain at t=%.17g: %s" % (t, exc)) from exc
        out = [0.0] * len(dH)
        for ip, iq in pairs:
            out[ip] = -dH[iq]
            out[iq] = dH[ip]
        return out

    return rhs


def integrate_flow(energy, energy_grad, z0, T, step_ctrl=StepControl(),
                   events=None, pairs=SECULAR_PAIRS):
    """Integrate z' = J grad H for a 2-DOF system with the given canonical
    pairing.

    energy_grad acts on one bare state array; energy acts on the (n, 4)
    stack of all output samples at once and returns their n energies.  A
    ValueError or SingularLocusError raised by either (the state left the
    domain) ends the run as IntegrationError.  Terminal events stop the run;
    the trajectory is sampled on a uniform grid of 2000 points.
    """
    # imported here: scipy.integrate costs about 0.5 s to import, which
    # commands that never integrate should not pay
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        hamiltonian_flow_rhs(energy_grad, pairs),
        (0.0, T),
        np.asarray(z0, dtype=float),
        method=step_ctrl.method,
        rtol=step_ctrl.rtol,
        atol=step_ctrl.atol,
        t_eval=np.linspace(0.0, T, 2000),
        events=events,
        dense_output=False,
    )
    if sol.status == -1:
        raise IntegrationError(sol.message)
    times = sol.t
    states = sol.y.T
    if sol.status == 1 and sol.t_events is not None:
        # append the terminal-event sample itself
        for te, ze in zip(sol.t_events, sol.y_events):
            if len(te):
                times = np.append(times, te[-1])
                states = np.vstack([states, ze[-1]])
    order = np.argsort(times)
    keep = np.concatenate([[True], np.diff(times[order]) > 0])
    times = times[order][keep]
    states = states[order][keep]
    try:
        return times, states, energy(states), sol
    except (ValueError, SingularLocusError) as exc:
        raise IntegrationError("a sample left the domain: %s" % exc) from exc


def integrate(spec, state0, T, *, step_ctrl=StepControl(),
              energy_tol=DEFAULT_ENERGY_TOL, domain_guard=None):
    """Flow of the reduced Hamiltonian from state0 for duration T, in the
    chart of state0's class (SecularState or ActionAngleState).

    state0 outside the physical domain raises DomainError (see
    hamiltonians.check_domain); leaving it, or f_eps's singular locus, during
    the run raises IntegrationError.

    domain_guard, when given, is a scalar function of the bare state that is
    positive inside the admissible domain; its zero crossing stops the run
    and records a domain-exit event.  Squeeze events (sign changes of G) are
    detected on the sampled output; the winding-2pi event marks the first
    time the unwrapped angle has varied by 2*pi.

    f_eps picks its trapezoid rule per evaluation (see potentials.N_LADDER).
    """
    chart = chart_of(state0)
    check_domain(spec, state0)
    # the state's fields as floats, so that its gradient computes in floats
    grad = lambda z: gradient(spec, chart.state(*z.tolist()))
    energy = lambda Z: chart.energies(spec, Z)

    events = None
    if domain_guard is not None:
        guard = lambda t, z: domain_guard(z)
        guard.terminal = True
        events = [guard]

    times, states, sample_energies, sol = integrate_flow(
        energy, grad, state0.as_array(), T, step_ctrl, events, chart.pairs
    )
    traj = Trajectory(times, states, sample_energies, chart.name)
    exited = sol.status == 1
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
    Gcal).
    """
    if len(traj.times) < 10:
        raise ValueError("trajectory too short to unwrap reliably")
    chart = chart_named(traj.chart)
    ang = np.unwrap(traj.states[:, chart.angle_col])
    squeezes = len(_squeezes(chart.G_series(spec.Lambda, traj.states)))
    col = chart.Gcal_col
    drift = 0.0 if col is None else float(
        np.max(np.abs(traj.states[:, col] - traj.states[0, col])))
    return float(np.max(np.abs(ang - ang[0]))), squeezes, drift
