"""Output oracles: each reads one job's output directory (and, for library
jobs, the payload the job returned) and returns (problems, margins).

problems is a list of strings, empty when the output is correct; margins
maps accuracy figures read from the output (residuals, drifts) to values.
The checks restate the acceptance criteria independently of the code under
test: they parse the files the CLI wrote and use no perilib function other
than ``load_series`` for the round-trip check.
"""

import csv
import json
import math
import os

from perilib.normalform import load_series

EQ_TOL = 1e-6        # location of an equilibrium
CENTER_RE_TOL = 1e-8  # |Re lambda| of a center (criterion 4)
SPAN_MARGIN = 0.05    # a polyline spans the angle if it reaches both seams
RENORM_RESIDUAL = 1e-8  # criterion 1
RENORM_BRACKET = 1e-6   # criterion 5
ENERGY_TOL = 1e-8       # the CLI's default integrator.energy_tol
MANIFOLD_TRAP = 1e-9    # criterion 6
NF_RESIDUAL = 1e-8      # criterion 8
NF_CONTRACTION = 0.5    # criterion 8


def _json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _near(a, b, tol=EQ_TOL):
    return abs(a - b) < tol


def _angle_near(a, b, tol=EQ_TOL):
    return abs(math.remainder(a - b, 2 * math.pi)) < tol


def expected_equilibria(eps):
    """(g, G, kind) of every critical point of e_hat on the cylinder."""
    if eps < 0.5:
        return [(0.0, 0.0, "center"), (math.pi, 0.0, "center")]
    G0 = math.sqrt(1.0 - 1.0 / (4.0 * eps * eps))
    return [(0.0, 0.0, "saddle"), (math.pi, 0.0, "center"),
            (0.0, G0, "center"), (0.0, -G0, "center")]


def read_polylines(path):
    """Polylines of a portrait CSV: rows up to each '# polyline' marker."""
    lines, current = [], []
    with open(path) as fh:
        for row in csv.reader(fh):
            if row[0].startswith("# polyline"):
                lines.append(current)
                current = []
            elif not row[0].startswith("#") and row[0] != "level":
                current.append((float(row[1]), float(row[2])))
    return lines


def spans_angle(line):
    gs = [g for g, _ in line]
    return min(gs) < -math.pi + SPAN_MARGIN and max(gs) > math.pi - SPAN_MARGIN


def check_portrait(out_dir, params, payload=None):
    eps = params["eps"]
    problems = []
    eqs = _json(out_dir, "equilibria.json")["equilibria"]
    want = expected_equilibria(eps)
    if len(eqs) != len(want):
        problems.append("eps=%g: %d equilibria, expected %d" % (eps, len(eqs), len(want)))
    for g, G, kind in want:
        hits = [e for e in eqs if _angle_near(e["g"], g) and _near(e["G"], G)]
        if len(hits) != 1 or hits[0]["kind"] != kind:
            problems.append("eps=%g: no single %s at (%.6f, %.6f)" % (eps, kind, g, G))
    for e in eqs:
        worst_re = max(abs(re) for re, _ in e["eigenvalues"])
        if e["kind"] == "center" and worst_re >= CENTER_RE_TOL:
            problems.append("eps=%g: center at (%g, %g) has Re lambda >= %g"
                            % (eps, e["g"], e["G"], CENTER_RE_TOL))
    lines = read_polylines(os.path.join(out_dir, "portrait.csv"))
    spanning = sum(spans_angle(line) for line in lines if line)
    if not lines:
        problems.append("eps=%g: empty portrait" % eps)
    elif eps > 1 and spanning == 0:
        problems.append("eps=%g: no polyline spans the full angle" % eps)
    elif eps < 1 and spanning:
        problems.append("eps=%g: %d polylines span the full angle" % (eps, spanning))
    return problems, {}


def check_renorm(out_dir, params, payload=None):
    report = _json(out_dir, "renorm_report.json")
    problems = []
    got = [r["eps"] for r in report["results"]]
    if got != params["eps_list"]:
        problems.append("eps list %r, expected %r" % (got, params["eps_list"]))
    worst = max((r["max_residual"] for r in report["results"]), default=math.inf)
    bracket = max((r["poisson_bracket_max"] for r in report["results"]), default=math.inf)
    if not worst < RENORM_RESIDUAL:
        problems.append("renorm residual %.3e >= %g" % (worst, RENORM_RESIDUAL))
    if not bracket < RENORM_BRACKET:
        problems.append("Poisson bracket %.3e >= %g" % (bracket, RENORM_BRACKET))
    return problems, {"potentials.renorm_residual_max": worst}


def check_evolve(out_dir, params, payload=None):
    summary = _json(out_dir, "evolve_summary.json")
    problems = []
    drift = summary["energy_drift"]
    if not drift <= ENERGY_TOL:
        problems.append("energy drift %.3e > %g" % (drift, ENERGY_TOL))
    if not _near(summary["duration"], params["duration"], 1e-9 * params["duration"]):
        problems.append("ran to t=%r, asked for %r"
                        % (summary["duration"], params["duration"]))
    if summary["chart"] != params["chart"]:
        problems.append("chart %r, asked for %r" % (summary["chart"], params["chart"]))
    if params.get("manifold"):
        with open(os.path.join(out_dir, "trajectory.csv")) as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#") and r[0] != "t"]
        trap = max(max(abs(float(r[2])), abs(float(r[4]))) for r in rows)
        if not trap < MANIFOLD_TRAP:
            problems.append("left the invariant manifold: max(|G|, |g|) = %.3e" % trap)
    return problems, {"dynamics.energy_drift_max": drift}


def check_libration(out_dir, params, payload):
    s = payload["summary"]
    problems = []
    if not payload["report_pass"]:
        problems.append("hypothesis report does not pass")
    if not s["winding"] >= 2 * math.pi:
        problems.append("winding %.3f < 2 pi" % s["winding"])
    if not s["squeezes"] >= 2:
        problems.append("%d squeezes < 2" % s["squeezes"])
    if not s["Gcal_drift"] <= params["delta"] / 2:
        problems.append("Gcal drift %.3e > delta/2" % s["Gcal_drift"])
    if not s["r_min"] > s["collision_radius"]:
        problems.append("r_min %.3e inside the collision radius" % s["r_min"])
    return problems, {"dynamics.energy_drift_max": payload["energy_drift"]}


def check_normalform(out_dir, params, payload=None):
    norms = _json(out_dir, "normalform_norms.json")
    table = norms["table"]
    problems = []
    if norms["steps"] != params["steps"] or len(table) != params["steps"]:
        problems.append("%d steps reported, expected %d" % (len(table), params["steps"]))
    residual = max((row["residual"] for row in table), default=math.inf)
    contraction = max((row["contraction"] for row in table), default=math.inf)
    if not residual < NF_RESIDUAL:
        problems.append("homological residual %.3e >= %g" % (residual, NF_RESIDUAL))
    if not contraction <= NF_CONTRACTION:
        problems.append("contraction %.3e > %g" % (contraction, NF_CONTRACTION))
    for name in ("normalform_gstar.json", "normalform_fstar.json"):
        path = os.path.join(out_dir, name)
        if not round_trips(path):
            problems.append("%s does not round-trip through load_series" % name)
    return problems, {"normalform.residual_max": residual,
                      "normalform.contraction_max": contraction}


def round_trips(path):
    """The series loaded by load_series holds exactly the coefficients written."""
    with open(path) as fh:
        written = json.load(fh)
    series = load_series(path)
    if len(series.coeffs) != len(written["coeffs"]):
        return False
    for entry in written["coeffs"]:
        arr = series.coeffs.get((tuple(entry["k"]), tuple(entry["h"]), tuple(entry["j"])))
        if (arr is None or arr.real.ravel().tolist() != entry["re"]
                or arr.imag.ravel().tolist() != entry["im"]):
            return False
    return list(series.grid_shape) == written["grid_shape"]


ORACLES = {
    "portrait": check_portrait,
    "renorm": check_renorm,
    "evolve": check_evolve,
    "libration": check_libration,
    "normalform": check_normalform,
}


def check(job, out_dir, payload):
    """Oracle verdict for one finished job."""
    return ORACLES[job.kind](out_dir, job.params, payload)
