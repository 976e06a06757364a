"""Seeded job lists of the three benchmark workloads.

A workload is a list of jobs built from one seed; the same seed gives the
same jobs.  A job runs through ``perilib.cli.main`` (or, for the gated
libration run, through the library calls acceptance criterion 7 makes) and
writes its outputs into its own directory, where the oracles of
``perfbench.oracles`` check them.

Why these workloads:

* cylinder: portraits in the three eps regimes plus verify-renorm.  Pure
  Python marching squares and the Newton sweep of find_equilibria, plus the
  scalar u_hat/f_eps quadrature.  Never touches dynamics, normalform or
  chebyshev, so it is the bypass workload for those layers.
* flow: evolve in both charts with both Hamiltonians, the invariant-manifold
  run of criterion 6 and gated libration runs.  Thousands of small scalar
  calls per job, so it measures per-call overhead.
* normalform: the criterion-8 normal form.  A few large vectorized array
  operations (DCT refine/coarsen, Clenshaw, the grid path of potentials and
  kepler) with little per-call overhead and a large memory footprint.

Which end-to-end figure each layer should move (and where it stays flat):

* portraits.*: portrait_s and wall_s on cylinder (~95% of a portrait job);
  flat on flow and normalform.
* potentials.u_hat/f_eps, check_renorm_identity: renorm_s on cylinder.
* hamiltonians.*, the scalar potentials kernels, coords.*,
  kepler.solve_kepler_zero_ecc_form, dynamics.*: evolve_s, libration_s and
  wall_s on flow; flat on cylinder and normalform.
* theorem.*, kepler.estimate_c0: libration_s on flow.
* normalform.*, chebyshev.*: wall_s (= normalform_s) and peak_rss_mb on
  normalform; absent elsewhere.  Caching refined copies trades memory for
  time, which peak_rss_mb shows.
* the grid path of potentials and kepler (f_eps_minus_one_grid,
  xi_prime_array): wall_s on normalform, where flow runs the scalar path of
  the same layers, so a kernel change that favours one path shows.
* cli.write: normalform (3.3 MB of JSON per job) and portrait_s.
* work moved into import or a first-call cache: setup_s.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# import-time binding is avoided on purpose: the tracer rebinds module
# attributes, so jobs look functions up on the module at call time
import perilib.cli as cli
import perilib.theorem as theorem
from perilib.coords import ActionAngleState, derive_mass_params
from perilib.hamiltonians import HamiltonianSpec

WORKLOADS = ("cylinder", "flow", "normalform")

# eps ranges of the three portrait regimes, kept 0.1 clear of the
# transition values 1/2 and 1 where equilibria are degenerate
PORTRAIT_REGIMES = ((0.1, 0.4), (0.6, 0.9), (1.1, 1.9))
RENORM_EPS = (0.05, 0.45)  # |eps| range; the profile needs |eps| < 1/2

# secular-chart evolve: the outer body must not fall inward within the run,
# or eps(r) grows past the |s eps| < 1/2 domain of the profile.  A state is
# accepted only when the radial Kepler model keeps r above FALL_RADIUS for
# FALL_MARGIN times the run's duration.
FALL_RADIUS = 20.0  # |s eps| <= 0.14 for both Hamiltonians at default masses
FALL_MARGIN = 2.0
EVOLVE_DURATION = (150.0, 250.0)
MANIFOLD_DURATION = 1000.0  # criterion 6

# criterion 7: the libration parameter set and the start window, all 63
# points of a 7 x 3 x 3 grid over it pass the libration oracle
LIBRATION_BETA_BAR = 3000.0
LIBRATION_PARAMS = dict(eps0=0.25, delta=0.025, s0=1.0, alpha_minus=2.0e4,
                        alpha_plus=3.2e5, c_upper=10.0, c_lower=5e-8)
LIBRATION_GAMMA = (-math.pi / 2, math.pi / 2)
LIBRATION_DEPTH = (1 / 8, 0.45)  # Gcal = Lambda - depth * delta
LIBRATION_Y = (1.01, 1.05)  # y = 2 sqrt(alpha_minus) * factor

# criterion 8, through the CLI: the default normal form has a perturbation
# of norm ~1e-12 and would measure nothing
NORMALFORM_SETTINGS = (
    "masses.frame=m0centric", "masses.kappa=0.02", "hamiltonian.index=2",
    "domain.eps0=0.45", "domain.alpha_minus=1000", "domain.alpha_plus=16000",
    "domain.delta=0.005", "normalform.grid=16,16,20",
)
NORMALFORM_STEPS = 3


@dataclass
class Job:
    """One closed-loop request: run(out_dir) -> (exit code, payload or None)."""

    kind: str
    name: str
    run: Callable
    params: dict


def cli_job(kind, name, argv, params):
    def run(out_dir):
        return cli.main(["--out", out_dir, *argv]), None

    return Job(kind, name, run, params)


def radial_fall_time(R0, G0, r0, r_stop, t_max, m0=1.0, dt=0.5):
    """First time the outer body's radius drops below r_stop, or inf.

    Integrates the radial Kepler model of the secular Hamiltonian,
    r' = R/m0, R' = G^2/(m0 r^3) - m0^2/r^2, with fixed-step RK4 up to t_max.
    """
    def acc(r):
        return G0**2 / (m0 * r**3) - m0**2 / r**2

    r, R, t = r0, R0, 0.0
    while t < t_max:
        if r < r_stop:
            return t
        k1r, k1R = R / m0, acc(r)
        k2r, k2R = (R + 0.5 * dt * k1R) / m0, acc(r + 0.5 * dt * k1r)
        k3r, k3R = (R + 0.5 * dt * k2R) / m0, acc(r + 0.5 * dt * k2r)
        k4r, k4R = (R + dt * k3R) / m0, acc(r + dt * k3r)
        r += dt * (k1r + 2 * k2r + 2 * k3r + k4r) / 6
        R += dt * (k1R + 2 * k2R + 2 * k3R + k4R) / 6
        t += dt
    return math.inf


def _secular_state(rng, duration, R_range, G_range, r_range, angles):
    """Draw (R, G, r, g) until the body stays clear for FALL_MARGIN * duration."""
    for _ in range(1000):
        R0 = rng.uniform(*R_range)
        G0 = rng.uniform(*G_range) if angles else 0.0
        r0 = rng.uniform(*r_range)
        g0 = rng.uniform(-math.pi, math.pi) if angles else 0.0
        horizon = FALL_MARGIN * duration
        if radial_fall_time(R0, G0, r0, FALL_RADIUS, horizon) >= horizon:
            return [R0, G0, r0, g0]
    raise RuntimeError("no secular start clears the fall-time bound")


def _floats(vals):
    return ",".join(repr(float(v)) for v in vals)


def cylinder_jobs(rng, smoke=False):
    settings = ["--set", "portrait.grid=64"] if smoke else []
    jobs = []
    for lo, hi in PORTRAIT_REGIMES:
        eps = float(rng.uniform(lo, hi))
        seed = int(rng.integers(2**62))
        jobs.append(cli_job(
            "portrait", "portrait_%d" % len(jobs),
            ["--seed", str(seed), *settings, "portrait", "--eps=" + repr(eps)],
            {"eps": eps},
        ))
    mags = rng.uniform(*RENORM_EPS, size=6)
    eps_list = [float(m) * (1 if i % 2 == 0 else -1) for i, m in enumerate(mags)]
    if smoke:
        eps_list = eps_list[:2]
    seed = int(rng.integers(2**62))
    jobs.append(cli_job(
        "renorm", "renorm",
        ["--seed", str(seed), "verify-renorm", "--eps-list=" + _floats(eps_list)],
        {"eps_list": eps_list},
    ))
    return jobs


def libration_spec():
    b = LIBRATION_BETA_BAR
    kappa = (b + math.sqrt(b * b + 8 * b)) / 4
    return HamiltonianSpec(2, 1.0, 1.0, derive_mass_params(1.0, kappa, "m0centric"))


def libration_job(name, state0):
    spec = libration_spec()

    def run(out_dir):
        report = theorem.check_libration_theorem(spec, **LIBRATION_PARAMS)
        traj, summary = theorem.run_libration_experiment(spec, report, state0)
        return 0, {
            "report_pass": report.passed,
            "summary": summary.as_dict(),
            "energy_drift": traj.energy_drift,
            "samples": len(traj.times),
        }

    return Job("libration", name, run, {"state": list(state0.as_array()),
                                        "delta": LIBRATION_PARAMS["delta"]})


def flow_jobs(rng, smoke=False):
    scale = 0.1 if smoke else 1.0
    jobs = []
    for index in (1, 2):
        T = float(rng.uniform(*EVOLVE_DURATION)) * scale
        state = _secular_state(rng, T, (-0.05, 0.05), (-0.6, 0.6), (80.0, 150.0), True)
        jobs.append(cli_job(
            "evolve", "evolve_secular_h%d" % index,
            ["--seed", str(int(rng.integers(2**62))),
             "--set", "hamiltonian.index=%d" % index,
             "evolve", "--state=" + _floats(state), "--duration=" + repr(T)],
            {"chart": "secular", "duration": T, "state": state},
        ))
        T = float(rng.uniform(*EVOLVE_DURATION)) * scale
        # x drifts at m0^5/y^3 <= 250/9^3 per unit time: it stays inside
        # (pi - 1, pi + 1.35), well away from the collision at x = 0, 2 pi
        state = [rng.uniform(-0.6, 0.6), rng.uniform(-math.pi, math.pi),
                 rng.uniform(9.0, 13.0), rng.uniform(math.pi - 1.0, math.pi + 1.0)]
        jobs.append(cli_job(
            "evolve", "evolve_action_angle_h%d" % index,
            ["--seed", str(int(rng.integers(2**62))),
             "--set", "hamiltonian.index=%d" % index,
             "--set", "evolve.chart=action-angle",
             "evolve", "--state=" + _floats(state), "--duration=" + repr(T)],
            {"chart": "action-angle", "duration": T, "state": state},
        ))
    T = MANIFOLD_DURATION * scale
    state = _secular_state(rng, T, (0.07, 0.1), None, (90.0, 110.0), False)
    jobs.append(cli_job(
        "evolve", "manifold",
        ["--seed", str(int(rng.integers(2**62))),
         "--set", "integrator.method=DOP853",
         "--set", "integrator.rtol=1e-12", "--set", "integrator.atol=1e-12",
         "evolve", "--state=" + _floats(state), "--duration=" + repr(T)],
        {"chart": "secular", "duration": T, "state": state, "manifold": True},
    ))
    lam, delta = 1.0, LIBRATION_PARAMS["delta"]
    y0 = 2 * math.sqrt(LIBRATION_PARAMS["alpha_minus"])
    for i in range(1 if smoke else 3):
        state0 = ActionAngleState(
            lam - rng.uniform(*LIBRATION_DEPTH) * delta,
            rng.uniform(*LIBRATION_GAMMA),
            y0 * rng.uniform(*LIBRATION_Y),
            math.pi,
        )
        jobs.append(libration_job("libration_%d" % i, state0))
    return jobs


def normalform_jobs(rng, seed, smoke=False):
    settings = list(NORMALFORM_SETTINGS)
    steps = NORMALFORM_STEPS
    if smoke:
        settings[-1] = "normalform.grid=8,8,10"
        steps = 1
    argv = ["--seed", str(seed)]
    for item in settings:
        argv += ["--set", item]
    argv += ["normalform", "-N", str(steps)]
    return [cli_job("normalform", "normalform", argv, {"steps": steps})]


def build(workload, seed, smoke=False):
    """The job list of one workload; the same (workload, seed) gives the same jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cylinder":
        return cylinder_jobs(rng, smoke)
    if workload == "flow":
        return flow_jobs(rng, smoke)
    if workload == "normalform":
        # fixed inputs: the seed is only recorded in the outputs
        return normalform_jobs(rng, seed, smoke)
    raise ValueError("unknown workload %r" % (workload,))
