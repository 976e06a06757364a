import json

import pytest

from perilib.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_OK, load_config, main
from perilib.normalform import load_series


def write_config(tmp_path, text=""):
    p = tmp_path / "config.ini"
    p.write_text(text)
    return str(p)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(["--out", str(out), *argv]), out


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg.Lambda == 1.0
        assert cfg.alpha_minus < cfg.alpha_plus / 4

    def test_missing_file(self):
        with pytest.raises(Exception):
            load_config("/nonexistent/path.ini")

    def test_malformed_field_names_culprit(self, tmp_path):
        path = write_config(tmp_path, "[domain]\nalpha_minus = -3\n")
        code = main(["--config", path, "check-theorem"])
        assert code == EXIT_CONFIG

    def test_alpha_ordering_enforced(self, tmp_path):
        path = write_config(
            tmp_path, "[domain]\nalpha_minus = 100\nalpha_plus = 200\n"
        )
        code = main(["--config", path, "portrait"])
        assert code == EXIT_CONFIG

    def test_set_overrides(self):
        cfg = load_config(None, ["hamiltonian.index=2", "masses.kappa=3.5"])
        assert cfg.index == 2
        assert cfg.kappa == 3.5

    def test_bad_override_syntax(self):
        code = main(["--set", "nonsense", "portrait"])
        assert code == EXIT_CONFIG

    def test_io_failure_exit_code(self, tmp_path):
        from perilib.cli import EXIT_IO

        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a file where the out dir must go
        code = main(["--out", str(blocker / "sub"), "portrait", "--eps", "0.3"])
        assert code == EXIT_IO


class TestPortrait:
    def test_writes_csv_and_equilibria(self, tmp_path):
        code, out = run(tmp_path, "portrait", "--eps", "0.3")
        assert code == EXIT_OK
        csv = (out / "portrait.csv").read_text().splitlines()
        assert csv[0].startswith("# seed,")
        assert csv[1] == "level,g,G"
        eq = json.loads((out / "equilibria.json").read_text())
        kinds = sorted(e["kind"] for e in eq["equilibria"])
        assert kinds == ["center", "center"]

    def test_saddle_at_larger_eps(self, tmp_path):
        code, out = run(tmp_path, "portrait", "--eps", "0.7")
        assert code == EXIT_OK
        eq = json.loads((out / "equilibria.json").read_text())
        assert sum(e["kind"] == "saddle" for e in eq["equilibria"]) == 1

    def test_transition_eps_is_config_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "portrait", "--eps=0.5")
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.count("\n") == 1

    def test_negative_eps_is_config_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "portrait", "--eps=-0.2")
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.count("\n") == 1

    def test_coarse_grid_is_config_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "--set", "portrait.grid=32", "portrait")
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.count("\n") == 1


class TestVerifyRenorm:
    def test_report(self, tmp_path):
        code, out = run(
            tmp_path, "--seed", "11", "verify-renorm", "--eps-list", "0, 0.3"
        )
        assert code == EXIT_OK
        rep = json.loads((out / "renorm_report.json").read_text())
        assert rep["seed"] == 11
        res = {r["eps"]: r for r in rep["results"]}
        assert res[0.0]["max_residual"] <= 1e-15
        assert res[0.3]["max_residual"] < 1e-8
        assert res[0.3]["poisson_bracket_max"] < 1e-6

    def test_rejects_eps_beyond_half(self, tmp_path):
        code, _ = run(tmp_path, "verify-renorm", "--eps-list", "0.6")
        assert code == EXIT_GUARD

    def test_deterministic_given_seed(self, tmp_path):
        _, out1 = run(tmp_path / "a", "--seed", "5", "verify-renorm", "--eps-list", "0.25")
        _, out2 = run(tmp_path / "b", "--seed", "5", "verify-renorm", "--eps-list", "0.25")
        r1 = json.loads((out1 / "renorm_report.json").read_text())
        r2 = json.loads((out2 / "renorm_report.json").read_text())
        assert r1 == r2


class TestEvolve:
    def test_invariant_manifold_run(self, tmp_path):
        code, out = run(
            tmp_path,
            "evolve",
            "--state",
            "0.1, 0.0, 100.0, 0.0",
            "--duration",
            "50",
        )
        assert code == EXIT_OK
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[1] == "t,R,G,r,g,energy"
        G = [float(r.split(",")[2]) for r in rows[2:] if not r.startswith("#")]
        assert max(abs(v) for v in G) < 1e-9
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["energy_drift"] < 1e-8

    def test_zero_duration_single_row(self, tmp_path):
        code, out = run(
            tmp_path, "evolve", "--state", "0.1, 0.2, 50.0, 0.3", "--duration", "0"
        )
        assert code == EXIT_OK
        rows = [
            r
            for r in (out / "trajectory.csv").read_text().splitlines()
            if r and not r.startswith("#")
        ]
        assert len(rows) == 2  # header + one sample
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["winding"] == 0.0

    def test_action_angle_chart(self, tmp_path):
        code, out = run(
            tmp_path,
            "--set",
            "evolve.chart=action-angle",
            "--set",
            "hamiltonian.index=2",
            "evolve",
            "--state",
            "0.995, 0.3, 290.0, 3.14159265358979",
            "--duration",
            "2e5",
        )
        assert code == EXIT_OK
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[1] == "t,Gcal,gamma,y,x,energy"
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["energy_drift"] < 1e-8


    def test_state_leaving_domain_exits_guard(self, tmp_path, capsys):
        # loose tolerances let the radius overshoot through zero mid-run
        code, out = run(tmp_path, "--set", "integrator.rtol=1e-3",
                        "--set", "integrator.atol=1e-3", "evolve", "--duration", "20000")
        assert code == EXIT_GUARD
        assert "left the domain" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_energy_drift_exits_guard(self, tmp_path, capsys):
        code, _ = run(tmp_path, "--set", "integrator.energy_tol=1e-16",
                      "evolve", "--duration", "20")
        assert code == EXIT_GUARD
        assert "energy drift" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["20", "0"])
    @pytest.mark.parametrize("state", ["nan,0.1,100,0", "0.1,2.0,100,0"])
    def test_state_outside_domain_exits_config(self, tmp_path, capsys, state, duration):
        code, out = run(tmp_path, "evolve", "--state", state, "--duration", duration)
        assert code == EXIT_CONFIG
        assert "outside the physical domain" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()


def test_cli_import_leaves_scipy_integrate_and_fft_unloaded():
    # scipy.integrate and scipy.fft load only when a command needs them
    import os
    import subprocess
    import sys

    import perilib

    src = os.path.dirname(os.path.dirname(perilib.__file__))
    code = ("import sys; import perilib.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.fft'))))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestCheckTheorem:
    def test_report_written(self, tmp_path):
        code, out = run(tmp_path, "check-theorem")
        assert code == EXIT_OK
        rep = json.loads((out / "theorem_report.json").read_text())
        assert "inequalities" in rep and "pass" in rep and "T_estimate" in rep
        labels = {iq["label"] for iq in rep["inequalities"]}
        assert "winding" in labels and "contraction (defines N0)" in labels


class TestNormalForm:
    def test_zero_steps_echo(self, tmp_path):
        code, out = run(
            tmp_path,
            "--set",
            "masses.kappa=0.02",
            "--set",
            "masses.frame=m0centric",
            "--set",
            "hamiltonian.index=2",
            "--set",
            "domain.alpha_minus=1000",
            "--set",
            "domain.alpha_plus=16000",
            "--set",
            "domain.delta=0.005",
            "--set",
            "normalform.grid=6, 6, 12",
            "--set",
            "normalform.fourier_cutoff=4",
            "normalform",
            "-N",
            "0",
        )
        assert code == EXIT_OK
        norms = json.loads((out / "normalform_norms.json").read_text())
        assert len(norms["table"]) == 1
        f_star = load_series(str(out / "normalform_fstar.json"))
        assert f_star.coeffs  # input echoed

    def test_contraction_loss_exit_code(self, tmp_path):
        # strongly coupled (libration-regime) parameters: the Lie series
        # diverges and the run must exit with the numerical-guard code
        code, _ = run(
            tmp_path,
            "--set",
            "masses.kappa=1501",
            "--set",
            "masses.frame=m0centric",
            "--set",
            "hamiltonian.index=2",
            "--set",
            "normalform.grid=6, 6, 12",
            "--set",
            "normalform.fourier_cutoff=4",
            "normalform",
            "-N",
            "3",
        )
        assert code == EXIT_GUARD

    def test_three_steps_decay(self, tmp_path):
        code, out = run(
            tmp_path,
            "--set",
            "masses.kappa=0.02",
            "--set",
            "masses.frame=m0centric",
            "--set",
            "hamiltonian.index=2",
            "--set",
            "domain.alpha_minus=1000",
            "--set",
            "domain.alpha_plus=16000",
            "--set",
            "domain.delta=0.005",
            "--set",
            "normalform.grid=6, 6, 12",
            "--set",
            "normalform.fourier_cutoff=4",
            "normalform",
            "-N",
            "3",
        )
        assert code == EXIT_OK
        norms = json.loads((out / "normalform_norms.json").read_text())
        osc = [row["osc_norm"] for row in norms["table"] if row["osc_norm"] > 0]
        assert all(b < a for a, b in zip(osc, osc[1:]))

    def test_norm_table_reports_lie_series(self, tmp_path):
        code, out = run(
            tmp_path,
            "--set",
            "masses.kappa=0.02",
            "--set",
            "masses.frame=m0centric",
            "--set",
            "hamiltonian.index=2",
            "--set",
            "domain.alpha_minus=1000",
            "--set",
            "domain.alpha_plus=16000",
            "--set",
            "domain.delta=0.005",
            "--set",
            "normalform.grid=6, 6, 12",
            "--set",
            "normalform.fourier_cutoff=4",
            "normalform",
            "-N",
            "2",
        )
        assert code == EXIT_OK
        table = json.loads((out / "normalform_norms.json").read_text())["table"]
        assert len(table) == 2
        for row in table:
            assert list(row) == ["step", "f_norm", "osc_norm", "residual", "contraction",
                                 "lie_orders", "lie_ratio", "lie_tail_bound"]
            assert row["lie_orders"] >= 1
            assert 0 <= row["lie_ratio"] < 1
            assert row["lie_tail_bound"] >= 0


NORMALFORM_SMALL = (
    "--set", "masses.kappa=0.02", "--set", "masses.frame=m0centric",
    "--set", "hamiltonian.index=2", "--set", "domain.alpha_minus=1000",
    "--set", "domain.alpha_plus=16000", "--set", "domain.delta=0.005",
    "--set", "normalform.grid=6, 6, 12", "--set", "normalform.fourier_cutoff=4",
)


@pytest.mark.parametrize(
    "argv",
    [
        ("portrait", "--eps", "0.3"),
        ("verify-renorm", "--eps-list", "0, 0.3"),
        ("evolve", "--state", "0.1, 0.2, 50.0, 0.3", "--duration", "10"),
        ("check-theorem",),
        NORMALFORM_SMALL + ("normalform", "-N", "1"),
    ],
    ids=["portrait", "verify-renorm", "evolve", "check-theorem", "normalform"],
)
def test_json_outputs_compact_with_unchanged_content(tmp_path, monkeypatch, argv):
    # every JSON file is one line and parses to what the indented encoding
    # of the same payload parses to (floats through float.__repr__ in both)
    import perilib.cli as cli

    written = {}
    real_write_json = cli._write_json

    def recording_write_json(path, payload, seed):
        written[path] = json.loads(
            json.dumps(dict(payload, seed=seed), indent=2, default=float)
        )
        real_write_json(path, payload, seed)

    monkeypatch.setattr(cli, "_write_json", recording_write_json)
    code, _ = run(tmp_path, *argv)
    assert code == EXIT_OK
    assert written
    for path, expect in written.items():
        with open(path) as fh:
            text = fh.read()
        assert text.count("\n") == 1 and text.endswith("\n")
        # compared as canonical text so that a NaN equals itself
        assert json.dumps(json.loads(text)) == json.dumps(expect)
