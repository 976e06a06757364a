"""Command-line entry point.

Subcommands: portrait, verify-renorm, evolve, check-theorem, normalform.
Each reads one INI-style config file (sections below), writes CSV/JSON
outputs atomically into --out, and records the 64-bit seed in every output
header.  Exit codes: 0 success, 2 config, input or domain error (a state
outside the physical domain included), 3 numerical guard tripped (singular
locus, Kepler or Lie-series failure, energy drift, integration failure or a
state leaving the domain during a run), 4 I/O failure.

Config sections and keys (all optional unless a subcommand needs them):

  [masses]      mu, kappa, frame (jacobi | m0centric)
  [hamiltonian] index (1 | 2), m0, Lambda
  [domain]      eps0, delta, s0, alpha_minus, alpha_plus
  [quadrature]  n_nodes
  [integrator]  rtol, atol, method, energy_tol
  [theorem]     c_upper, c_lower, n_steps
  [portrait]    eps, grid, levels
  [renorm]      eps_list (comma separated), samples
  [evolve]      chart (secular | action-angle), state (4 comma floats),
                duration
  [normalform]  steps, fourier_cutoff, grid (3 comma ints), n_phi

Flags override file values via --set section.key=value (repeatable).
"""

import argparse
import configparser
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .coords import derive_mass_params
from .dynamics import (
    EnergyDriftError,
    IntegrationError,
    StepControl,
    Trajectory,
    detect_libration,
    integrate,
)
from .hamiltonians import HamiltonianSpec, chart_named, check_domain, energies
from .kepler import KeplerError
from .normalform import (
    ContractionError,
    NormalFormResult,
    NormalFormStep,
    build_secular_perturbation,
    normal_form_steps,
    series_to_dict,
    tf_average_split,
    tf_norm,
)
from .portraits import find_equilibria, phase_portrait
from .potentials import QuadratureSpec, SingularLocusError, check_renorm_identity, e_hat, u_hat
from .theorem import check_libration_theorem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "masses": {"mu": "1.0", "kappa": "1.0", "frame": "jacobi"},
    "hamiltonian": {"index": "1", "m0": "1.0", "Lambda": "1.0"},
    "domain": {
        "eps0": "0.25",
        "delta": "0.025",
        "s0": "1.0",
        "alpha_minus": "2.0e4",
        "alpha_plus": "3.2e5",
    },
    "quadrature": {"n_nodes": "256"},
    "integrator": {
        "rtol": "1e-10",
        "atol": "1e-10",
        "method": "RK45",
        "energy_tol": "1e-8",
    },
    "theorem": {"c_upper": "10.0", "c_lower": "2.0", "n_steps": "8"},
    "portrait": {"eps": "0.3", "grid": "128", "levels": "12"},
    "renorm": {"eps_list": "0.1, -0.1, 0.25, -0.25, 0.4, -0.4", "samples": "100"},
    "evolve": {
        "chart": "secular",
        "state": "0.1, 0.0, 100.0, 0.0",
        "duration": "200.0",
    },
    "normalform": {
        "steps": "3",
        "fourier_cutoff": "8",
        "grid": "16, 16, 16",
        "n_phi": "64",
    },
}


@dataclass
class ExperimentConfig:
    """Typed view of the config file; raw holds every resolved key."""

    mu: float
    kappa: float
    frame: str
    index: int
    m0: float
    Lambda: float
    eps0: float
    delta: float
    s0: float
    alpha_minus: float
    alpha_plus: float
    quad_nodes: int
    rtol: float
    atol: float
    method: str
    energy_tol: float
    raw: dict = field(default_factory=dict)

    def validate(self):
        positives = {
            "mu": self.mu,
            "kappa": self.kappa,
            "m0": self.m0,
            "Lambda": self.Lambda,
            "eps0": self.eps0,
            "delta": self.delta,
            "s0": self.s0,
            "alpha_minus": self.alpha_minus,
            "alpha_plus": self.alpha_plus,
        }
        for name, value in positives.items():
            if not value > 0:
                raise ConfigError("field %r must be positive, got %r" % (name, value))
        if not self.alpha_minus < self.alpha_plus / 4:
            raise ConfigError(
                "field alpha_minus must satisfy alpha_minus < alpha_plus/4"
            )
        if self.index not in (1, 2):
            raise ConfigError("field hamiltonian.index must be 1 or 2")
        if self.frame not in ("jacobi", "m0centric"):
            raise ConfigError("field masses.frame must be jacobi or m0centric")
        return self

    def spec(self):
        return HamiltonianSpec(
            self.index,
            self.m0,
            self.Lambda,
            derive_mass_params(self.mu, self.kappa, self.frame),
        )

    def quad(self):
        return QuadratureSpec(self.quad_nodes)

    def step_ctrl(self):
        return StepControl(self.rtol, self.atol, self.method)


def load_config(path, overrides=()):
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError("config file not found: %s" % path)
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError("malformed config: %s" % exc) from exc
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError("--set expects section.key=value, got %r" % item)
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section.strip(), key.strip(), value.strip())
    raw = {s: dict(parser.items(s)) for s in parser.sections()}
    try:
        cfg = ExperimentConfig(
            mu=parser.getfloat("masses", "mu"),
            kappa=parser.getfloat("masses", "kappa"),
            frame=parser.get("masses", "frame"),
            index=parser.getint("hamiltonian", "index"),
            m0=parser.getfloat("hamiltonian", "m0"),
            Lambda=parser.getfloat("hamiltonian", "Lambda"),
            eps0=parser.getfloat("domain", "eps0"),
            delta=parser.getfloat("domain", "delta"),
            s0=parser.getfloat("domain", "s0"),
            alpha_minus=parser.getfloat("domain", "alpha_minus"),
            alpha_plus=parser.getfloat("domain", "alpha_plus"),
            quad_nodes=parser.getint("quadrature", "n_nodes"),
            rtol=parser.getfloat("integrator", "rtol"),
            atol=parser.getfloat("integrator", "atol"),
            method=parser.get("integrator", "method"),
            energy_tol=parser.getfloat("integrator", "energy_tol"),
            raw=raw,
        )
    except ValueError as exc:
        raise ConfigError("field parse failure: %s" % exc) from exc
    return cfg.validate()


def _atomic_write(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, payload, seed):
    payload = dict(payload)
    payload["seed"] = seed
    # compact on purpose: without indent, json uses its C encoder
    _atomic_write(path, json.dumps(payload, default=float) + "\n")


def _floats(text, n=None):
    vals = [float(v) for v in text.replace(";", ",").split(",") if v.strip()]
    if n is not None and len(vals) != n:
        raise ConfigError("expected %d comma-separated floats, got %r" % (n, text))
    return vals


def _ints(text, n=None):
    return [int(v) for v in _floats(text, n)]


# ---------------- subcommands ----------------


def cmd_portrait(cfg, out_dir, seed, eps=None):
    Lam = cfg.Lambda
    # portraits raises ValueError for inputs outside its domain (eps <= 0,
    # eps at 1/2 or 1, grid below 64); nothing is written for them
    try:
        eps = float(cfg.raw["portrait"]["eps"]) if eps is None else eps
        grid_n = int(cfg.raw["portrait"]["grid"])
        levels = int(cfg.raw["portrait"]["levels"])
        lines = phase_portrait(eps, Lam, grid=(grid_n, grid_n), levels=levels)
        eqs = find_equilibria(eps, Lam)
    except ValueError as exc:
        raise ConfigError("portrait: %s" % exc) from exc
    rows = ["# seed,%d" % seed, "level,g,G"]
    for lv, line in lines:
        for g, G in line:
            rows.append("%.17g,%.17g,%.17g" % (lv, g, G))
        rows.append("# polyline,%.17g" % lv)
    _atomic_write(os.path.join(out_dir, "portrait.csv"), "\n".join(rows) + "\n")
    payload = {
        "eps": eps,
        "Lambda": Lam,
        "equilibria": [
            {
                "g": e.location[0],
                "G": e.location[1],
                "kind": e.kind,
                "eigenvalues": [[ev.real, ev.imag] for ev in e.eigenvalues],
            }
            for e in eqs
        ],
    }
    _write_json(os.path.join(out_dir, "equilibria.json"), payload, seed)
    return EXIT_OK


def cmd_verify_renorm(cfg, out_dir, seed, eps_list=None):
    if eps_list is None:
        eps_list = _floats(cfg.raw["renorm"]["eps_list"])
    samples = int(cfg.raw["renorm"]["samples"])
    quad = cfg.quad()
    rng = np.random.default_rng(seed)
    report = []
    for eps in eps_list:
        if abs(eps) >= 0.5:
            print(
                "eps=%g rejected: the renormalizing profile requires |eps| < 1/2"
                % eps,
                file=sys.stderr,
            )
            return EXIT_GUARD
        worst, rejected = check_renorm_identity(
            eps, cfg.Lambda, samples, quad, rng=rng
        )
        # commutation check by central differences at 50 points
        h = 1e-5
        bracket_worst = 0.0
        for _ in range(50):
            G = rng.uniform(-0.9 * cfg.Lambda, 0.9 * cfg.Lambda)
            g = rng.uniform(-np.pi, np.pi)
            du_G = (u_hat(eps, cfg.Lambda, G + h, g, quad)
                    - u_hat(eps, cfg.Lambda, G - h, g, quad)) / (2 * h)
            du_g = (u_hat(eps, cfg.Lambda, G, g + h, quad)
                    - u_hat(eps, cfg.Lambda, G, g - h, quad)) / (2 * h)
            de_G = (e_hat(eps, cfg.Lambda, G + h, g)
                    - e_hat(eps, cfg.Lambda, G - h, g)) / (2 * h)
            de_g = (e_hat(eps, cfg.Lambda, G, g + h)
                    - e_hat(eps, cfg.Lambda, G, g - h)) / (2 * h)
            bracket_worst = max(bracket_worst, abs(du_G * de_g - du_g * de_G))
        report.append(
            {
                "eps": eps,
                "max_residual": worst,
                "rejected_samples": rejected,
                "poisson_bracket_max": bracket_worst,
            }
        )
    _write_json(
        os.path.join(out_dir, "renorm_report.json"),
        {"samples": samples, "results": report},
        seed,
    )
    return EXIT_OK


def _trajectory_csv(traj, seed):
    names = [f.name for f in fields(chart_named(traj.chart).state)]
    rows = ["# seed,%d" % seed, ",".join(["t", *names, "energy"])]
    for t, z, E in zip(traj.times, traj.states, traj.energies):
        rows.append(
            "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (t, z[0], z[1], z[2], z[3], E)
        )
    for t, kind in traj.events:
        rows.append("# event,%.17g,%s" % (t, kind))
    return "\n".join(rows) + "\n"


def cmd_evolve(cfg, out_dir, seed, state=None, duration=None):
    section = cfg.raw["evolve"]
    chart = chart_named(section["chart"])
    vals = state if state is not None else _floats(section["state"], 4)
    T = float(section["duration"]) if duration is None else duration
    spec = cfg.spec()
    state0 = chart.state(*vals)
    if T == 0.0:
        check_domain(spec, state0)
        Z = state0.as_array()[None]
        traj = Trajectory(np.zeros(1), Z, energies(spec, Z, chart.name, cfg.quad()), chart.name)
        winding, squeezes, drift = 0.0, 0, 0.0
    else:
        traj = integrate(spec, state0, T, step_ctrl=cfg.step_ctrl(),
                         energy_tol=cfg.energy_tol, quad=cfg.quad())
        winding, squeezes, drift = detect_libration(traj, spec)
    _atomic_write(os.path.join(out_dir, "trajectory.csv"), _trajectory_csv(traj, seed))
    _write_json(
        os.path.join(out_dir, "evolve_summary.json"),
        {
            "chart": chart.name,
            "duration": float(traj.times[-1]),
            "winding": winding,
            "squeezes": squeezes,
            "Gcal_drift": drift,
            "energy_drift": traj.energy_drift,
            "events": [[t, kind] for t, kind in traj.events],
        },
        seed,
    )
    return EXIT_OK


def cmd_check_theorem(cfg, out_dir, seed, N=None):
    section = cfg.raw["theorem"]
    N = int(section["n_steps"]) if N is None else N
    report = check_libration_theorem(
        cfg.spec(),
        cfg.eps0,
        cfg.delta,
        cfg.s0,
        cfg.alpha_minus,
        cfg.alpha_plus,
        N=N,
        c_upper=float(section["c_upper"]),
        c_lower=float(section["c_lower"]),
    )
    _write_json(os.path.join(out_dir, "theorem_report.json"), report.as_dict(), seed)
    return EXIT_OK


def cmd_normalform(cfg, out_dir, seed, N=None):
    section = cfg.raw["normalform"]
    N = int(section["steps"]) if N is None else N
    grid_shape = tuple(_ints(section["grid"], 3))
    cutoff = int(section["fourier_cutoff"])
    spec = cfg.spec()
    series, freqs = build_secular_perturbation(
        spec,
        cfg.eps0,
        cfg.alpha_minus,
        cfg.alpha_plus,
        cfg.delta,
        grid_shape=grid_shape,
        fourier_cutoff=cutoff,
        n_phi=int(section["n_phi"]),
        quad=cfg.quad(),
    )
    if N == 0:
        result = NormalFormResult(series.shell(), series, [])
    else:
        result = normal_form_steps(series, freqs, N)
    table = [asdict(s) for s in result.steps] or [asdict(NormalFormStep(
        0, tf_norm(series), tf_norm(tf_average_split(series)[1]), 0.0, 0.0))]
    _write_json(
        os.path.join(out_dir, "normalform_norms.json"),
        {"steps": N, "table": table},
        seed,
    )
    _write_json(
        os.path.join(out_dir, "normalform_gstar.json"),
        series_to_dict(result.g_star),
        seed,
    )
    _write_json(
        os.path.join(out_dir, "normalform_fstar.json"),
        series_to_dict(result.f_star),
        seed,
    )
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="perilib",
        description="planar secular three-body experiments: averaged potentials, "
        "perihelion-libration runs, and the small-divisor-free normal form",
    )
    parser.add_argument("--config", help="INI config file", default=None)
    parser.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("portrait", help="phase portrait CSV + equilibria JSON")
    p.add_argument("--eps", type=float, default=None)
    p = sub.add_parser("verify-renorm", help="renormalizable-integrability report")
    p.add_argument("--eps-list", default=None)
    p = sub.add_parser("evolve", help="integrate one trajectory to CSV")
    p.add_argument("--state", default=None, help="4 comma-separated floats")
    p.add_argument("--duration", type=float, default=None)
    p = sub.add_parser("check-theorem", help="hypothesis inequality report")
    p.add_argument("-N", type=int, default=None, help="normal form steps requested")
    p = sub.add_parser("normalform", help="desk-scale normal form run")
    p.add_argument("-N", type=int, default=None, help="number of steps")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "portrait":
            return cmd_portrait(cfg, args.out, args.seed, args.eps)
        if args.command == "verify-renorm":
            eps_list = _floats(args.eps_list) if args.eps_list else None
            return cmd_verify_renorm(cfg, args.out, args.seed, eps_list)
        if args.command == "evolve":
            state = _floats(args.state, 4) if args.state else None
            return cmd_evolve(cfg, args.out, args.seed, state, args.duration)
        if args.command == "check-theorem":
            return cmd_check_theorem(cfg, args.out, args.seed, args.N)
        if args.command == "normalform":
            return cmd_normalform(cfg, args.out, args.seed, args.N)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # DomainError and other rejected inputs
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (SingularLocusError, ContractionError, KeplerError, EnergyDriftError,
            IntegrationError) as exc:
        print("numerical guard tripped: %s" % exc, file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print("i/o failure: %s" % exc, file=sys.stderr)
        return EXIT_IO
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
