"""Command-line entry point.

Subcommands: portrait, verify-renorm, evolve, check-theorem, normalform.
Each reads one INI-style config file, writes CSV/JSON outputs atomically
into --out, and records the 64-bit seed in every output header.  Exit
codes: 0 success, 2 config, input or domain error (a state outside the
physical domain or of non-finite energy, or a seed outside [0, 2^64),
included), 3 numerical guard tripped (singular locus, Kepler or
Lie-series failure, a normal-form residual above RESIDUAL_RTOL, energy
drift, integration failure, or a state leaving the domain or arithmetic
overflowing during a run), 4 I/O failure.

KEYS declares every config key with its default and rule.  Values come
from the defaults, then the file, then each --set section.key=value, then
the subcommand's flags (each sets one key, see COMMANDS).
"""

import argparse
import configparser
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from itertools import accumulate
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .coords import derive_mass_params
from .dynamics import EnergyDriftError, IntegrationError, StepControl, integrate
from .hamiltonians import HamiltonianSpec, chart_named
from .kepler import KeplerError
from .normalform import (
    ContractionError,
    NormalFormStep,
    build_secular_perturbation,
    normal_form_steps,
    series_to_dict,
    tf_average_split,
    tf_norm,
)
from .portraits import find_equilibria, phase_portrait
from .potentials import (
    QuadratureSpec,
    SingularLocusError,
    check_renorm_commutation,
    check_renorm_identity,
)
from .theorem import check_libration_theorem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_IO = 4

# criterion 8's bound on each step's relative homological residual; a step
# above it ends the run with EXIT_GUARD (normalform.grid is the lever)
RESIDUAL_RTOL = 1e-8
SEED_LIMIT = 2**64  # --seed is a 64-bit unsigned int


class ConfigError(ValueError):
    pass


class Key(NamedTuple):
    """One config key: its default text, the rule its value must meet and
    the parser that turns text into a value (ValueError when the rule fails)."""

    section: str
    name: str
    default: str
    rule: str
    parse: Callable


def _checked(convert, ok):
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return parse


def _int(lo):
    return "an int >= %d" % lo, _checked(int, lambda v: v >= lo)


def _choice(*options):
    names = {str(o): o for o in options}
    shown = [repr(o) for o in options]
    return (", ".join(shown[:-1]) + " or " + shown[-1],
            _checked(names.get, lambda v: v is not None))


def _list(item, n=None):
    """n comma-separated values (one or more when n is None), each meeting item."""
    rule, parse = item

    def parse_list(text):
        values = [parse(v) for v in text.replace(";", ",").split(",") if v.strip()]
        if (len(values) != n) if n else not values:
            raise ValueError(text)
        return values
    return "%s comma-separated values, each %s" % (n or "1 or more", rule), parse_list


FLOAT = "a float", float
FINITE = "a finite float", _checked(float, math.isfinite)
POSITIVE = "a finite float > 0", _checked(float, lambda v: 0 < v < math.inf)
NONNEGATIVE = "a finite float >= 0", _checked(float, lambda v: 0 <= v < math.inf)
RTOL_FLOOR = 100 * sys.float_info.epsilon

# The config schema: every key, its default and its rule.  A file or --set
# naming any other key is rejected, and so is a value that breaks its rule.
KEYS = (
    Key("masses", "mu", "1.0", *POSITIVE),
    Key("masses", "kappa", "1.0", *POSITIVE),
    Key("masses", "frame", "jacobi", *_choice("jacobi", "m0centric")),
    Key("hamiltonian", "index", "1", *_choice(1, 2)),
    Key("hamiltonian", "m0", "1.0", *POSITIVE),
    Key("hamiltonian", "Lambda", "1.0", *POSITIVE),
    Key("domain", "eps0", "0.25", *POSITIVE),
    Key("domain", "delta", "0.025", *POSITIVE),
    Key("domain", "s0", "1.0", *POSITIVE),
    Key("domain", "alpha_minus", "2.0e4", *POSITIVE),
    Key("domain", "alpha_plus", "3.2e5", *POSITIVE),
    Key("quadrature", "n_nodes", "256", "an even int >= 32",
        lambda t: QuadratureSpec(int(t)).n_nodes),
    # perilib.rk's floor on rtol, which rounding keeps a step from meeting
    Key("integrator", "rtol", "1e-10", "a finite float >= 100 * EPS = %r" % RTOL_FLOOR,
        _checked(float, lambda v: RTOL_FLOOR <= v < math.inf)),
    Key("integrator", "atol", "1e-10", *POSITIVE),
    # the embedded pairs of perilib.rk, listed here so that loading imports
    # no integrator
    Key("integrator", "method", "RK45", *_choice("RK45", "DOP853")),
    Key("integrator", "energy_tol", "1e-8", *POSITIVE),
    Key("theorem", "c_upper", "10.0", *POSITIVE),
    Key("theorem", "c_lower", "2.0", *POSITIVE),
    Key("portrait", "eps", "0.3", *FINITE),
    Key("portrait", "grid", "128", *_int(1)),
    Key("portrait", "levels", "12", *_int(1)),
    Key("renorm", "eps_list", "0.1, -0.1, 0.25, -0.25, 0.4, -0.4", *_list(FINITE)),
    Key("renorm", "samples", "100", *_int(1)),
    Key("evolve", "chart", "secular", *_choice("secular", "action-angle")),
    Key("evolve", "state", "0.1, 0.0, 100.0, 0.0", *_list(FLOAT, 4)),
    Key("evolve", "duration", "200.0", *NONNEGATIVE),
    Key("normalform", "steps", "3", *_int(0)),
    Key("normalform", "fourier_cutoff", "8", *_int(0)),
    Key("normalform", "grid", "16, 16, 24", *_list(_int(1), 3)),
)
# configparser folds key names to lower case, so lookups do too
_BY_NAME = {(k.section, k.name.lower()): k for k in KEYS}


class Config(SimpleNamespace):
    """The resolved config: one namespace per section holding every key of
    KEYS as a parsed, checked value (cfg.domain.eps0)."""

    def spec(self):
        return HamiltonianSpec(
            self.hamiltonian.index,
            self.hamiltonian.m0,
            self.hamiltonian.Lambda,
            derive_mass_params(self.masses.mu, self.masses.kappa, self.masses.frame),
        )

    def quad(self):
        return QuadratureSpec(self.quadrature.n_nodes)

    def step_ctrl(self):
        i = self.integrator
        return StepControl(i.rtol, i.atol, i.method)


def load_config(path, overrides=()):
    """Config from the INI file at path (None: defaults only) and the
    section.key=value overrides, applied in order.  Raises ConfigError
    naming section.key for an unknown key or a value outside its rule."""
    given = []
    if path is not None:
        parser = configparser.ConfigParser()
        # opened here: read() skips a path it cannot open, a directory among
        # them, and would run on the defaults
        try:
            with open(path) as fh:
                parser.read_file(fh)
            # iterating the parser visits [DEFAULT] too, whose keys would
            # otherwise be copied into every section or, alone, ignored
            given = [(s, k, v) for s in parser for k, v in parser[s].items()]
        except FileNotFoundError:
            raise ConfigError("config file not found: %s" % path) from None
        except OSError as exc:
            raise ConfigError("config file unreadable: %s: %s" % (path, exc.strerror)) from None
        except configparser.Error as exc:
            raise ConfigError("malformed config: %s" % exc) from exc
    for item in overrides:
        target, eq, value = item.partition("=")
        section, dot, name = target.partition(".")
        if not (eq and dot):
            raise ConfigError("--set expects section.key=value, got %r" % item)
        given.append((section.strip(), name.strip(), value.strip()))
    texts = {key: key.default for key in KEYS}
    for section, name, text in given:
        key = _BY_NAME.get((section, name.lower()))
        if key is None:
            raise ConfigError("unknown key %s.%s" % (section, name))
        texts[key] = text
    sections = {}
    for key, text in texts.items():
        try:
            sections.setdefault(key.section, {})[key.name] = key.parse(text)
        except ValueError:
            raise ConfigError("%s.%s must be %s, got %r"
                              % (key.section, key.name, key.rule, text)) from None
    cfg = Config(**{s: SimpleNamespace(**values) for s, values in sections.items()})
    if not cfg.domain.alpha_minus < cfg.domain.alpha_plus / 4:
        raise ConfigError("domain.alpha_minus must be < domain.alpha_plus / 4")
    return cfg


def _atomic_write(path, text):
    """Write text to path through a new file beside it and one os.replace,
    so that a reader sees the old file or the new one.  The file is created
    with mode 0o666 less the umask, as open() would create it."""
    folder = os.path.dirname(os.path.abspath(path))
    os.makedirs(folder, exist_ok=True)
    tmp = os.path.join(folder, ".%s.%s.tmp" % (os.path.basename(path), os.urandom(6).hex()))
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


FLOAT_RUN = "\0float run\0"  # a float array's stand-in in the JSON skeleton


def _json_text(payload):
    """json.dumps(payload, default=float), with each np.ndarray (a series'
    re and im, 1-D float64) written as its list and spelled by floattext:
    the rest is json.dumps of a skeleton holding FLOAT_RUN in their place,
    which must occur there once per array (a payload string that spells it
    sends the whole payload through json, arrays by .tolist())."""
    runs = []

    def hook(obj):
        if isinstance(obj, np.ndarray):
            runs.append(obj)
            return FLOAT_RUN
        return float(obj)

    skeleton = json.dumps(payload, default=hook)
    pieces = skeleton.split(json.dumps(FLOAT_RUN))
    if len(pieces) != len(runs) + 1:
        return json.dumps(payload, default=lambda obj: obj.tolist()
                          if isinstance(obj, np.ndarray) else float(obj))
    from . import floattext  # loaded by the first write, not at start-up

    parts = pieces[:1]
    for run, piece in zip(runs, pieces[1:]):
        parts += [floattext.json_list(run), piece]
    return "".join(parts)


def _write_json(path, payload, seed):
    payload = dict(payload)
    payload["seed"] = seed
    # compact on purpose: one line, with json.dumps's separators
    _atomic_write(path, _json_text(payload) + "\n")


# ---------------- subcommands ----------------


def cmd_portrait(cfg, out_dir, seed):
    Lam = cfg.spec().Lambda  # through HamiltonianSpec's checks, as in every command
    eps, grid_n = cfg.portrait.eps, cfg.portrait.grid
    # portraits raises ValueError for inputs outside its domain (eps <= 0,
    # eps at 1/2 or 1, grid below 64) and for an eps whose G-axis centers
    # round onto |G| = Lambda or whose eigenvalues overflow; nothing is
    # written for them
    try:
        lines = phase_portrait(eps, Lam, grid=(grid_n, grid_n), levels=cfg.portrait.levels)
        eqs = find_equilibria(eps, Lam)
    except ValueError as exc:
        raise ConfigError("portrait: %s" % exc) from exc
    from . import floattext  # loaded by the first write, not at start-up

    # every point's row in one table, each polyline's rows followed by its line
    counts = [len(line) for _, line in lines]
    points = np.concatenate([np.empty((0, 2)), *(line for _, line in lines)])
    table = np.column_stack([np.repeat([lv for lv, _ in lines], counts), points])
    inserts = [(0, "# seed,%d\nlevel,g,G\n" % seed)]
    inserts += zip(accumulate(counts), ["# polyline,%.17g\n" % lv for lv, _ in lines])
    _atomic_write(os.path.join(out_dir, "portrait.csv"), floattext.csv_table(table, inserts))
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


def cmd_verify_renorm(cfg, out_dir, seed):
    samples = cfg.renorm.samples
    Lam = cfg.spec().Lambda
    quad = cfg.quad()
    rng = np.random.default_rng(seed)
    report = []
    for eps in cfg.renorm.eps_list:
        if abs(eps) >= 0.5:
            print(
                "eps=%g rejected: the renormalizing profile requires |eps| < 1/2"
                % eps,
                file=sys.stderr,
            )
            return EXIT_GUARD
        worst, rejected = check_renorm_identity(eps, Lam, samples, quad, rng=rng)
        report.append(
            {
                "eps": eps,
                "max_residual": worst,
                "rejected_samples": rejected,
                "poisson_bracket_max": check_renorm_commutation(eps, Lam, 50, quad, rng),
            }
        )
    _write_json(
        os.path.join(out_dir, "renorm_report.json"),
        {"samples": samples, "results": report},
        seed,
    )
    return EXIT_OK


def _trajectory_csv(traj, seed):
    from . import floattext  # loaded by the first write, not at start-up

    names = [f.name for f in fields(chart_named(traj.chart).state)]
    table = np.column_stack([traj.times, traj.states, traj.energies])
    head = "# seed,%d\n" % seed + ",".join(["t", *names, "energy"]) + "\n"
    events = "".join("# event,%.17g,%s\n" % event for event in traj.events)
    return floattext.csv_table(table, [(0, head), (len(table), events)])


def cmd_evolve(cfg, out_dir, seed):
    chart = chart_named(cfg.evolve.chart)
    traj = integrate(cfg.spec(), chart.state(*cfg.evolve.state), cfg.evolve.duration,
                     step_ctrl=cfg.step_ctrl(), energy_tol=cfg.integrator.energy_tol)
    _atomic_write(os.path.join(out_dir, "trajectory.csv"), _trajectory_csv(traj, seed))
    _write_json(
        os.path.join(out_dir, "evolve_summary.json"),
        {
            "chart": chart.name,
            "duration": float(traj.times[-1]),
            "winding": traj.winding,
            "squeezes": traj.squeezes,
            "Gcal_drift": traj.Gcal_drift,
            "energy_drift": traj.energy_drift,
            "events": [[t, kind] for t, kind in traj.events],
        },
        seed,
    )
    return EXIT_OK


def cmd_check_theorem(cfg, out_dir, seed):
    d, th = cfg.domain, cfg.theorem
    report = check_libration_theorem(
        cfg.spec(), d.eps0, d.delta, d.s0, d.alpha_minus, d.alpha_plus,
        c_upper=th.c_upper, c_lower=th.c_lower,
    )
    _write_json(os.path.join(out_dir, "theorem_report.json"), report.as_dict(), seed)
    return EXIT_OK


def cmd_normalform(cfg, out_dir, seed):
    d, nf = cfg.domain, cfg.normalform
    N = nf.steps
    series, freqs = build_secular_perturbation(
        cfg.spec(), d.eps0, d.alpha_minus, d.alpha_plus, d.delta,
        grid_shape=tuple(nf.grid), fourier_cutoff=nf.fourier_cutoff,
    )
    result = normal_form_steps(series, freqs, N, residual_rtol=RESIDUAL_RTOL)
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


# name: (function, help, {flag: the key it sets})
COMMANDS = {
    "portrait": (cmd_portrait, "phase portrait CSV + equilibria JSON",
                 {"--eps": "portrait.eps"}),
    "verify-renorm": (cmd_verify_renorm, "renormalizable-integrability report",
                      {"--eps-list": "renorm.eps_list"}),
    "evolve": (cmd_evolve, "integrate one trajectory to CSV",
               {"--state": "evolve.state", "--duration": "evolve.duration"}),
    "check-theorem": (cmd_check_theorem, "hypothesis inequality report", {}),
    "normalform": (cmd_normalform, "desk-scale normal form run",
                   {"-N": "normalform.steps"}),
}


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
    rules = {"%s.%s" % (k.section, k.name): k.rule for k in KEYS}
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, key in flags.items():
            p.add_argument(flag, dest=key, metavar="VALUE",
                           help="sets %s: %s" % (key, rules[key]))
    return parser


@functools.cache
def _parser():
    """The parser of main, built on its first call: parse_args keeps no
    state between calls, so one parser serves every call in a process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    run, _, flags = COMMANDS[args.command]
    # subcommand flags are overrides applied after --set, so they win
    flag_values = [(key, getattr(args, key)) for key in flags.values()]
    overrides = args.set + ["%s=%s" % kv for kv in flag_values if kv[1] is not None]
    try:
        if not 0 <= args.seed < SEED_LIMIT:
            raise ConfigError("--seed must be an int in [0, 2^64), got %d" % args.seed)
        return run(load_config(args.config, overrides), args.out, args.seed)
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


if __name__ == "__main__":
    sys.exit(main())
