"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

import perilib  # noqa: E402
import perilib.coords  # noqa: E402
import perilib.dynamics  # noqa: E402
import perilib.hamiltonians  # noqa: E402
import perilib.kepler  # noqa: E402
from perilib.cli import main as cli_main  # noqa: E402
from perfbench import oracles, tracing, workloads  # noqa: E402
from perfbench.worker import HostSampler, same_tree, tail  # noqa: E402


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------- oracles reject corrupted outputs ----------------


@pytest.fixture(scope="module")
def portrait_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("portrait")
    assert cli_main(["--out", str(out), "--set", "portrait.grid=64",
                     "portrait", "--eps=0.7"]) == 0
    return out


def rewrite_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def test_portrait_oracle_accepts_real_output(portrait_dir):
    problems, _ = oracles.check_portrait(str(portrait_dir), {"eps": 0.7})
    assert problems == []


def test_portrait_oracle_rejects_wrong_equilibrium_kind(portrait_dir, tmp_path):
    bad = tmp_path / "bad"
    shutil.copytree(portrait_dir, bad)

    def flip(data):
        saddle = next(e for e in data["equilibria"] if e["kind"] == "saddle")
        saddle["kind"] = "center"

    rewrite_json(bad / "equilibria.json", flip)
    problems, _ = oracles.check_portrait(str(bad), {"eps": 0.7})
    assert any("saddle" in p for p in problems)


def test_portrait_oracle_rejects_wrong_regime(portrait_dir):
    # the eps = 0.7 output read as if it were eps = 1.5: no rotational orbit
    problems, _ = oracles.check_portrait(str(portrait_dir), {"eps": 1.5})
    assert any("spans" in p for p in problems)


def test_renorm_oracle_rejects_residual_above_bound(tmp_path):
    assert cli_main(["--out", str(tmp_path), "verify-renorm", "--eps-list=0.2,-0.3"]) == 0
    params = {"eps_list": [0.2, -0.3]}
    problems, margins = oracles.check_renorm(str(tmp_path), params)
    assert problems == [] and margins["potentials.renorm_residual_max"] < 1e-8

    def corrupt(data):
        data["results"][1]["max_residual"] = 2 * oracles.RENORM_RESIDUAL

    rewrite_json(tmp_path / "renorm_report.json", corrupt)
    problems, _ = oracles.check_renorm(str(tmp_path), params)
    assert any("renorm residual" in p for p in problems)


def test_evolve_oracle_rejects_energy_drift_and_manifold_escape(tmp_path):
    argv = ["--out", str(tmp_path), "evolve", "--state=0.1,0,100,0", "--duration=20"]
    assert cli_main(argv) == 0
    params = {"chart": "secular", "duration": 20.0, "manifold": True}
    assert oracles.check_evolve(str(tmp_path), params)[0] == []

    rewrite_json(tmp_path / "evolve_summary.json",
                 lambda d: d.update(energy_drift=10 * oracles.ENERGY_TOL))
    problems, _ = oracles.check_evolve(str(tmp_path), params)
    assert any("energy drift" in p for p in problems)

    csv_path = tmp_path / "trajectory.csv"
    rows = csv_path.read_text().splitlines()
    t, R, G, r, g, E = rows[5].split(",")
    rows[5] = ",".join([t, R, "1e-6", r, g, E])
    csv_path.write_text("\n".join(rows) + "\n")
    problems, _ = oracles.check_evolve(str(tmp_path), params)
    assert any("invariant manifold" in p for p in problems)


def test_libration_oracle_rejects_too_few_squeezes():
    payload = {
        "report_pass": True,
        "energy_drift": 1e-14,
        "summary": {"winding": 3 * math.pi, "squeezes": 1, "Gcal_drift": 1e-3,
                    "r_min": 2.0, "collision_radius": 1.0},
    }
    problems, _ = oracles.check_libration(None, {"delta": 0.025}, payload)
    assert problems == ["1 squeezes < 2"]


@pytest.fixture(scope="module")
def normalform_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("normalform")
    job = workloads.build("normalform", 3, smoke=True)[0]
    assert job.run(str(out)) == (0, None)
    return out, job.params


def test_normalform_oracle_accepts_and_round_trips(normalform_dir):
    out, params = normalform_dir
    problems, margins = oracles.check_normalform(str(out), params)
    assert problems == []
    assert margins["normalform.residual_max"] < oracles.NF_RESIDUAL


def test_normalform_oracle_rejects_residual_above_bound(normalform_dir, tmp_path):
    out, params = normalform_dir
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)

    def corrupt(data):
        data["table"][-1]["residual"] = 2 * oracles.NF_RESIDUAL

    rewrite_json(bad / "normalform_norms.json", corrupt)
    problems, _ = oracles.check_normalform(str(bad), params)
    assert any("homological residual" in p for p in problems)


# ---------------- generator, tracer and statistics ----------------


def test_generator_is_seeded():
    def summary(seed):
        return [(j.kind, j.name, j.params) for j in workloads.build("flow", seed)]

    assert summary(5) == summary(5)
    assert summary(5) != summary(6)


def test_secular_starts_stay_clear_of_the_fall():
    for job in workloads.build("flow", 9):
        if job.kind == "evolve" and job.params["chart"] == "secular":
            R, G, r, g = job.params["state"]
            T = job.params["duration"]
            horizon = workloads.FALL_MARGIN * T
            assert workloads.radial_fall_time(R, G, r, workloads.FALL_RADIUS,
                                              horizon) == math.inf


def test_tracer_rebinds_every_name_and_restores():
    original = perilib.hamiltonians.gradient
    kepler_original = perilib.kepler.solve_kepler_zero_ecc_form
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = perilib.hamiltonians.gradient
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert perilib.dynamics.gradient is wrapped
        assert perilib.gradient is wrapped
        assert perilib.coords.solve_kepler_zero_ecc_form.__wrapped__ is kepler_original
    finally:
        tracer.uninstall()
    assert perilib.dynamics.gradient is original
    assert perilib.coords.solve_kepler_zero_ecc_form is kepler_original


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spec = perilib.hamiltonians.HamiltonianSpec(
            1, 1.0, 1.0, perilib.coords.derive_mass_params(1.0, 1.0, "jacobi"))
        perilib.dynamics.integrate(spec, perilib.coords.SecularState(0.1, 0.2, 100.0, 0.3),
                                   5.0)
    finally:
        tracer.uninstall()
    per_name = tracer.self_times()
    total_self = sum(s for s, _ in per_name.values())
    assert total_self == pytest.approx(tracer.root_time(), rel=1e-9)
    assert per_name["dynamics.integrate"][1] == 1
    assert tracer.counts["dynamics.rhs_evals"] == per_name["hamiltonians.gradient"][1] > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail(list(range(10))) is None
    pct, value = tail(list(range(100)))
    assert (pct, value) == (90, 89)


def test_host_sampler_window_subtracts_probes_and_borrows_neighbours():
    sampler = HostSampler()
    sampler.at = [0.0, 1.0, 2.0, 3.0]
    sampler.took = [0.1, 0.2, 0.4, 0.8]
    assert sampler.window(0.5, 2.5) == (pytest.approx(0.6), pytest.approx(0.3))
    # no probe inside: the nearest probe on each side stands in, none is spent
    assert sampler.window(1.1, 1.9) == (0, pytest.approx(0.3))


def test_same_tree_detects_a_changed_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        (d / "sub").mkdir(parents=True)
        (d / "sub" / "f.txt").write_text("1.0\n")
    assert same_tree(str(a), str(b))
    (b / "sub" / "f.txt").write_text("1.1\n")
    assert not same_tree(str(a), str(b))


# ---------------- reduced-size runs of the whole benchmark ----------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_traced_matches_untraced(workload):
    # one untraced and one traced pass; the run is correct only when both
    # wrote byte-identical outputs and every oracle passed
    proc = run_bench("--workload", workload, "--seed", "4", "--seconds", "0",
                     "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(res["metrics"]) == {m["name"] for m in spec["per_layer"]}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    modules = sum(m[mod + ".self_s"] for mod in tracing.MODULES)
    assert modules + m["trace.outside_s"] == pytest.approx(m["trace.wall_s"], rel=1e-6)


def test_smoke_run_reports_end_to_end_metrics():
    proc = run_bench("--workload", "normalform", "--seed", "4", "--seconds", "0",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert "normalform_s" in proc.stderr and "fail_frac" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "flow", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
