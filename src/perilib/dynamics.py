"""Time integration of the secular flows, event bookkeeping and libration
detection.

States are integrated with an adaptive embedded Runge-Kutta pair
(scipy's solve_ivp); symplecticity is monitored through the relative energy
drift rather than enforced, since the Hamiltonians are non-separable.
Canonical orderings: secular (R, G, r, g) pairs R<->r, G<->g; action-angle
(Gcal, gamma, y, x) pairs Gcal<->gamma, y<->x.
"""

from dataclasses import dataclass, field

import numpy as np

from .coords import ActionAngleState, SecularState
from .hamiltonians import check_domain, energies, gradient
from .potentials import DEFAULT_QUAD

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
    max_step: float = np.inf


@dataclass
class Trajectory:
    """Time-stamped states with energies and event annotations.

    states has one row per accepted output time, in the chart ordering;
    events is a list of (time, kind) with kind in
    {"squeeze", "winding-2pi", "domain-exit"}.
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


SECULAR_PAIRS = ((0, 2), (1, 3))  # (R, r), (G, g)
ACTION_ANGLE_PAIRS = ((0, 1), (2, 3))  # (Gcal, gamma), (y, x)


def hamiltonian_flow_rhs(energy_grad, pairs):
    """Vector field of a 2-DOF Hamiltonian.

    pairs lists the (momentum index, coordinate index) of each canonical
    pair within the state vector; energy_grad returns dH/dz in state order.
    """

    def rhs(t, z):
        try:
            dH = energy_grad(z)
        except ValueError as exc:  # DomainError and the chart maps' checks
            raise IntegrationError("state left the domain at t=%.17g: %s" % (t, exc)) from exc
        out = np.empty_like(dH)
        for ip, iq in pairs:
            out[ip] = -dH[iq]
            out[iq] = dH[ip]
        return out

    return rhs


def integrate_flow(energy, energy_grad, z0, T, step_ctrl=StepControl(),
                   events=None, t_eval=None, pairs=SECULAR_PAIRS,
                   max_samples=2000):
    """Integrate z' = J grad H for a 2-DOF system with the given canonical
    pairing.

    energy_grad acts on one bare state array; energy acts on the (n, 4)
    stack of all output samples at once and returns their n energies.  A
    ValueError raised by either (the state left the domain) ends the run as
    IntegrationError.  Terminal events stop the run; the trajectory
    is sampled on t_eval (default: uniform grid of max_samples points).
    """
    # imported here: scipy.integrate costs about 0.5 s to import, which
    # commands that never integrate should not pay
    from scipy.integrate import solve_ivp

    if t_eval is None:
        t_eval = np.linspace(0.0, T, max_samples)
    sol = solve_ivp(
        hamiltonian_flow_rhs(energy_grad, pairs),
        (0.0, T),
        np.asarray(z0, dtype=float),
        method=step_ctrl.method,
        rtol=step_ctrl.rtol,
        atol=step_ctrl.atol,
        max_step=step_ctrl.max_step,
        t_eval=t_eval,
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
    except ValueError as exc:
        raise IntegrationError("a sample left the domain: %s" % exc) from exc


def integrate(spec, state0, T, chart="secular", step_ctrl=StepControl(),
              energy_tol=DEFAULT_ENERGY_TOL, quad=DEFAULT_QUAD, t_eval=None,
              domain_guard=None):
    """Flow of the reduced Hamiltonian from state0 for duration T.

    state0 outside the physical domain raises DomainError (see
    hamiltonians.check_domain); leaving it during the run raises
    IntegrationError.

    domain_guard, when given, is a scalar function of the bare state that is
    positive inside the admissible domain; its zero crossing stops the run
    and records a domain-exit event.  Squeeze events (sign changes of G) are
    detected on the sampled output; the winding-2pi event marks the first
    time the unwrapped angle has varied by 2*pi.
    """
    if chart == "secular":
        state0 = state0 if isinstance(state0, SecularState) else SecularState(*state0)
        grad = lambda z: gradient(spec, SecularState(*z), "secular", quad=quad)
        pairs = SECULAR_PAIRS
    elif chart == "action-angle":
        state0 = (
            state0 if isinstance(state0, ActionAngleState) else ActionAngleState(*state0)
        )
        grad = lambda z: gradient(spec, ActionAngleState(*z), "action-angle", quad=quad)
        pairs = ACTION_ANGLE_PAIRS
    else:
        raise ValueError("chart must be 'secular' or 'action-angle'")
    check_domain(spec, state0)
    energy = lambda Z: energies(spec, Z, chart, quad)

    events = None
    if domain_guard is not None:
        guard = lambda t, z: domain_guard(z)
        guard.terminal = True
        events = [guard]

    times, states, sample_energies, sol = integrate_flow(
        energy, grad, state0.as_array(), T, step_ctrl, events, t_eval, pairs
    )
    traj = Trajectory(times, states, sample_energies, chart)
    exited = sol.status == 1
    if exited:
        traj.events.append((times[-1], "domain-exit"))
    _annotate_events(traj, spec)
    if not exited and traj.energy_drift > energy_tol:
        raise EnergyDriftError(
            "relative energy drift %.3e exceeds %.1e" % (traj.energy_drift, energy_tol)
        )
    return traj


def _G_series(traj, spec):
    if traj.chart == "secular":
        return traj.states[:, 1]
    Gc, gam = traj.states[:, 0], traj.states[:, 1]
    return np.sqrt(np.maximum(0.0, spec.Lambda**2 - Gc**2)) * np.cos(gam)


def _angle_series(traj):
    """The libration angle: g in the secular chart, gamma in action-angle."""
    col = 3 if traj.chart == "secular" else 1
    return traj.states[:, col]


def _annotate_events(traj, spec):
    G = _G_series(traj, spec)
    sign = np.sign(G)
    for i in np.flatnonzero(np.abs(np.diff(sign)) > 1):
        # linear interpolation of the crossing time
        t0, t1 = traj.times[i], traj.times[i + 1]
        w = G[i] / (G[i] - G[i + 1])
        traj.events.append((t0 + w * (t1 - t0), "squeeze"))
    ang = np.unwrap(_angle_series(traj))
    var = np.abs(ang - ang[0])
    hit = np.flatnonzero(var >= 2 * np.pi)
    if len(hit):
        traj.events.append((traj.times[hit[0]], "winding-2pi"))
    traj.events.sort(key=lambda ev: ev[0])


def detect_libration(traj, spec=None):
    """Summary of a (near-)libration run.

    Returns (winding, squeezes, Gcal_drift): total unwrapped variation of
    the libration angle, number of sign changes of G (eccentricity-one
    passages), and max |Gcal(t) - Gcal(0)| (action-angle chart only; 0.0 in
    the secular chart where Gcal is not carried).
    """
    if len(traj.times) < 10:
        raise ValueError("trajectory too short to unwrap reliably")
    ang = np.unwrap(_angle_series(traj))
    winding = float(np.max(np.abs(ang - ang[0])))
    G = _G_series(traj, spec) if spec is not None else (
        traj.states[:, 1] if traj.chart == "secular" else None
    )
    if G is None:
        raise ValueError("action-angle trajectories need the spec to rebuild G")
    sign = np.sign(G)
    squeezes = int(np.sum(np.abs(np.diff(sign)) > 1))
    if traj.chart == "action-angle":
        Gc = traj.states[:, 0]
        drift = float(np.max(np.abs(Gc - Gc[0])))
    else:
        drift = 0.0
    return winding, squeezes, drift
