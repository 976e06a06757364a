import json
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from perilib.cli import (
    EXIT_CONFIG,
    EXIT_GUARD,
    EXIT_OK,
    KEYS,
    RESIDUAL_RTOL,
    load_config,
    main,
)
from perilib.normalform import load_series
from perilib.portraits import phase_portrait


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
        assert cfg.hamiltonian.Lambda == 1.0
        assert cfg.domain.alpha_minus < cfg.domain.alpha_plus / 4

    def test_missing_file(self):
        with pytest.raises(Exception):
            load_config("/nonexistent/path.ini")

    def test_directory_as_config_rejected(self, tmp_path, capsys):
        # configparser.read skips a path it cannot open: a directory used to
        # run on the defaults and exit 0
        code, out = run(tmp_path, "--config", str(tmp_path), "portrait")
        assert code == EXIT_CONFIG
        assert "config file unreadable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("--set", "hamiltonian.Lambda=1e-200", "evolve"),
        ("--set", "hamiltonian.m0=1e-200", "check-theorem"),
        ("--set", "hamiltonian.m0=1e120", "evolve"),
        ("--set", "hamiltonian.Lambda=1e200", "check-theorem"),
        ("--set", "domain.alpha_plus=1e308", "check-theorem"),
        ("--set", "domain.alpha_minus=1e-300", "check-theorem"),
        ("--set", "hamiltonian.Lambda=1e300", "portrait"),
        ("--set", "hamiltonian.Lambda=1e300", "verify-renorm", "--eps-list", "0.3"),
        ("--set", "hamiltonian.Lambda=1e-200", "verify-renorm", "--eps-list", "0.3"),
        ("--set", "domain.s0=800", "check-theorem"),
        ("--set", "domain.s0=5e-324", "check-theorem"),
    ], ids=["Lambda-1e-200", "m0-1e-200", "m0-1e120", "Lambda-1e200",
            "alpha-plus-1e308", "alpha-minus-1e-300", "Lambda-1e300-portrait",
            "Lambda-1e300-verify-renorm", "Lambda-1e-200-verify-renorm", "s0-800",
            "s0-5e-324"])
    def test_scales_past_the_float_range_are_input_errors(self, tmp_path, capsys, argv):
        # each of these used to end in a traceback (exit 1), or for
        # verify-renorm at Lambda = 1e-200 in exit 3 on a NaN: portrait and
        # verify-renorm take Lambda through HamiltonianSpec's checks, and
        # check-theorem's cosh(s0) and Lambda / (s0 delta) on floats raise
        # its range error
        code, out = run(tmp_path, *argv)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "outside the float range" in err
        assert not out.exists()

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
        assert cfg.hamiltonian.index == 2
        assert cfg.masses.kappa == 3.5

    def test_bad_override_syntax(self):
        code = main(["--set", "nonsense", "portrait"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv, key", [
        pytest.param(("--set", "domain.eps_0=0.9", "check-theorem"), "domain.eps_0",
                     id="key-typo"),
        pytest.param(("--set", "domian.eps0=0.9", "check-theorem"), "domian.eps0",
                     id="section-typo"),
        pytest.param(("--set", "normalform.grid=6,6,1.5", "normalform"), "normalform.grid",
                     id="fractional-grid"),
        pytest.param(("--set", "renorm.samples=0", "verify-renorm"), "renorm.samples",
                     id="zero-samples"),
        pytest.param(("--set", "normalform.steps=-1", "normalform"), "normalform.steps",
                     id="negative-steps"),
        pytest.param(("normalform", "-N", "-1"), "normalform.steps", id="negative-N"),
        pytest.param(("--set", "portrait.levels=0", "portrait"), "portrait.levels",
                     id="zero-levels"),
        pytest.param(("evolve", "--duration", "nan"), "evolve.duration", id="nan-duration"),
        pytest.param(("evolve", "--duration", "inf"), "evolve.duration", id="inf-duration"),
        pytest.param(("evolve", "--duration", "-5"), "evolve.duration", id="negative-duration"),
        pytest.param(("--set", "integrator.energy_tol=-1", "evolve", "--duration", "20"),
                     "integrator.energy_tol", id="negative-energy-tol"),
    ])
    def test_rejected_value_names_key(self, tmp_path, capsys, argv, key):
        code, out = run(tmp_path, *argv)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["20", "0"])
    @pytest.mark.parametrize("rtol", ["1e-300", "2.2e-14"])
    def test_rtol_below_100_eps_exits_config(self, tmp_path, capsys, rtol, duration):
        # perilib.rk refuses it rather than stepping at another tolerance
        code, out = run(tmp_path, "--set", "integrator.rtol=" + rtol,
                        "evolve", "--duration", duration)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "integrator.rtol" in err and "100 * EPS" in err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("method", ["RK23", "Radau", "BDF", "LSODA"])
    def test_integrator_method_is_one_of_the_two_pairs(self, tmp_path, capsys, method):
        # perilib.rk steps RK45 and DOP853 only; the other solve_ivp
        # methods are config errors naming the two
        code, out = run(tmp_path, "--set", "integrator.method=" + method, "evolve")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "integrator.method" in err and "'RK45'" in err and "'DOP853'" in err
        assert not out.exists()
        assert load_config(None, ["integrator.method=DOP853"]).integrator.method == "DOP853"

    @pytest.mark.parametrize("text, key", [
        ("[domian]\neps0 = 0.9\n", "domian.eps0"),
        ("[domain]\neps_0 = 0.9\n", "domain.eps_0"),
        ("[DEFAULT]\neps0 = 0.9\n", "DEFAULT.eps0"),
    ], ids=["section-typo", "key-typo", "default-section"])
    def test_unknown_key_in_file(self, tmp_path, capsys, text, key):
        code, out = run(tmp_path, "--config", write_config(tmp_path, text), "check-theorem")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert not out.exists()

    def test_flags_win_over_set(self, tmp_path):
        code, out = run(tmp_path, *NORMALFORM_SMALL, "--set", "normalform.steps=3",
                        "normalform", "-N", "1")
        assert code == EXIT_OK
        rep = json.loads((out / "normalform_norms.json").read_text())
        assert rep["steps"] == 1 and len(rep["table"]) == 1

    def test_check_theorem_takes_no_step_count(self, tmp_path, capsys):
        # the hypothesis report has no step count: no -N flag, no
        # theorem.n_steps key, and no params.N in the report
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "check-theorem", "-N", "3")
        assert exc.value.code == EXIT_CONFIG
        code, out = run(tmp_path, "--set", "theorem.n_steps=3", "check-theorem")
        assert code == EXIT_CONFIG and not out.exists()
        code, out = run(tmp_path, "check-theorem")
        assert code == EXIT_OK
        assert "N" not in json.loads((out / "theorem_report.json").read_text())["params"]
        capsys.readouterr()

    def test_readme_lists_every_key(self):
        # README's config table: one "| `section.key` | rule | `default` |" row
        # per key, the rows consecutive lines under the one header, so that a
        # paragraph inside the table (which ends it in Markdown) fails
        import itertools
        import pathlib
        import re

        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().splitlines()
        assert lines.count("| key | rule | default |") == 1
        at = lines.index("| key | rule | default |")
        assert lines[at + 1] == "| --- | --- | --- |"
        table = list(itertools.takewhile(lambda line: line.startswith("|"), lines[at + 2:]))
        rows = [re.fullmatch(r"\| `(\w+\.\w+)` \| (.+?) \| `(.*)` \|", line) for line in table]
        assert all(rows), table
        assert sorted(m.groups() for m in rows) == sorted(
            ("%s.%s" % (k.section, k.name), k.rule, k.default) for k in KEYS)

    @pytest.mark.parametrize("command", ["portrait", "verify-renorm"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_config(self, tmp_path, capsys, command, seed):
        code, out = run(tmp_path, "--seed", seed, command)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err and seed in err
        assert not out.exists()

    @pytest.mark.parametrize("command, name", [("portrait", "equilibria.json"),
                                               ("verify-renorm", "renorm_report.json")])
    def test_largest_seed_accepted(self, tmp_path, command, name):
        code, out = run(tmp_path, "--seed", str(2**64 - 1), command)
        assert code == EXIT_OK
        assert json.loads((out / name).read_text())["seed"] == 2**64 - 1

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

    def test_axis_centers_at_eps_7(self, tmp_path):
        # no start of the 48 x 48 grid reaches the G-axis centers at eps = 7:
        # two of the four equilibria used to be written
        code, out = run(tmp_path, "portrait", "--eps", "7")
        assert code == EXIT_OK
        eq = json.loads((out / "equilibria.json").read_text())["equilibria"]
        G = np.sqrt(1 - 1 / (4 * 7.0**2))
        assert [(e["g"], e["G"], e["kind"]) for e in eq] == [
            (0.0, pytest.approx(-G, abs=1e-9), "center"), (0.0, 0.0, "saddle"),
            (0.0, pytest.approx(G, abs=1e-9), "center"), (np.pi, 0.0, "center")]

    def test_axis_centers_past_the_filter_are_config_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "portrait", "--eps", "20")
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "eps=20.0" in err

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
    def test_trajectory_rows_format_each_value(self):
        # one row per operation; the bytes are those of formatting every
        # value on its own with %.17g
        from perilib.cli import _trajectory_csv
        from perilib.dynamics import Trajectory

        rng = np.random.default_rng(4)
        times = np.array([0.0, 1e-300, 2.5, 1e17])
        states = rng.normal(size=(4, 4)) * np.array([1e-12, 1.0, 1e8, -0.0])
        energies = np.array([-0.0, 1 / 3, -7.0, 5e-324])
        traj = Trajectory(times, states, energies, "secular")
        traj.events.append((2.5, "squeeze"))
        rows = ["%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (t, z[0], z[1], z[2], z[3], E)
                for t, z, E in zip(times, states, energies)]
        expect = "\n".join(["# seed,9", "t,R,G,r,g,energy", *rows, "# event,2.5,squeeze"])
        assert _trajectory_csv(traj, 9) == expect + "\n"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_trajectory_table_matches_per_row_reference(self, data):
        # the file is formatted with one format string; its bytes are those
        # of one %.17g row per sample, including a one-row (T = 0) table
        from perilib.cli import _trajectory_csv
        from perilib.dynamics import Trajectory

        n = data.draw(st.sampled_from([1, 1, 2, 3, 17, 2000]))
        values = st.floats(allow_nan=True, allow_infinity=True)
        # a drawn pool of floats, placed at random over the n x 6 table
        pool = np.array(data.draw(st.lists(values, min_size=1, max_size=24)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        table = pool[rng.integers(len(pool), size=(n, 6))]
        chart = data.draw(st.sampled_from(["secular", "action-angle"]))
        traj = Trajectory(table[:, 0], table[:, 1:5], table[:, 5], chart)
        traj.events += data.draw(st.lists(st.tuples(
            values, st.sampled_from(["squeeze", "winding-2pi", "domain-exit"])), max_size=3))
        seed = data.draw(st.integers(0, 2**64 - 1))
        header = "t,R,G,r,g,energy" if chart == "secular" else "t,Gcal,gamma,y,x,energy"
        rows = ["# seed,%d" % seed, header]
        for t, z, E in zip(traj.times, traj.states, traj.energies):
            rows.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (t, z[0], z[1], z[2], z[3], E))
        rows += ["# event,%.17g,%s" % event for event in traj.events]
        assert _trajectory_csv(traj, seed) == "\n".join(rows) + "\n"

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
        assert summary["winding"] == summary["Gcal_drift"] == summary["duration"] == 0.0
        assert summary["squeezes"] == 0 and summary["events"] == []
        assert summary["energy_drift"] == 0.0

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

    @pytest.mark.parametrize("duration", ["20", "0"])
    def test_unknown_chart_exits_config(self, tmp_path, capsys, duration):
        code, out = run(tmp_path, "--set", "evolve.chart=foo", "--set",
                        "evolve.duration=" + duration, "evolve")
        assert code == EXIT_CONFIG
        assert "chart must be 'secular' or 'action-angle'" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_zero_duration_action_angle_header(self, tmp_path):
        code, out = run(tmp_path, "--set", "evolve.chart=action-angle", "evolve",
                        "--state", "0.9, 0.3, 10.0, 2.0", "--duration", "0")
        assert code == EXIT_OK
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[1] == "t,Gcal,gamma,y,x,energy"
        assert len(rows) == 3

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

    @pytest.mark.parametrize("duration", ["5", "0"])
    def test_start_at_collision_exits_config(self, tmp_path, capsys, duration):
        code, out = run(tmp_path, "--set", "evolve.chart=action-angle", "evolve",
                        "--state", "0.5,0.3,10,1e-9", "--duration", duration)
        assert code == EXIT_CONFIG
        assert "outside the physical domain" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("duration", ["20", "0"])
    @pytest.mark.parametrize("state", ["nan,0.1,100,0", "0.1,2.0,100,0"])
    def test_state_outside_domain_exits_config(self, tmp_path, capsys, state, duration):
        code, out = run(tmp_path, "evolve", "--state", state, "--duration", duration)
        assert code == EXIT_CONFIG
        assert "outside the physical domain" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("chart, state, duration, code, message", [
        ("secular", "1e200,0,100,0", "0", EXIT_CONFIG, "has energy inf"),
        ("secular", "1e200,0,100,0", "1", EXIT_CONFIG, "has energy inf"),
        ("secular", "1e150,0,100,0", "1", EXIT_GUARD, "step controller"),
        ("secular", "0.1,0,1e160,0", "1", EXIT_GUARD, "at t=0"),
        ("secular", "0.1,0,1e-160,0", "1", EXIT_CONFIG, "f_eps requires"),
        # y**2 past the float range puts r at inf, where the energy rounds
        # to 0: the chart map refuses it before a step
        ("action-angle", "0.9,0.3,1e200,2.5", "0", EXIT_CONFIG, "radial radius"),
        ("action-angle", "0.9,0.3,1e200,2.5", "1", EXIT_CONFIG, "radial radius"),
        ("action-angle", "0.9,0.3,1e120,2.5", "1", EXIT_GUARD, "at t=0"),
        ("action-angle", "0.9,0.3,1e-200,2.5", "1", EXIT_CONFIG, "f_eps requires"),
    ], ids=["R-1e200-T0", "R-1e200", "R-1e150", "r-1e160", "r-1e-160", "y-1e200-T0", "y-1e200",
            "y-1e120", "y-1e-200"])
    def test_overflowing_state_exits_with_its_code(self, tmp_path, capsys, chart, state,
                                                   duration, code, message):
        # a start of non-finite energy, or one whose run's arithmetic leaves
        # the float range, ends in one line on stderr and writes nothing
        got, out = run(tmp_path, "--set", "evolve.chart=" + chart, "evolve",
                       "--state", state, "--duration", duration)
        err = capsys.readouterr().err
        assert got == code
        assert len(err.splitlines()) == 1 and message in err
        assert not (out / "trajectory.csv").exists()


def test_cli_import_leaves_scipy_integrate_and_fft_unloaded():
    # importing perilib.cli loads no scipy module, scipy.integrate and
    # scipy.fft included, and no numpy.polynomial module
    import subprocess
    import sys

    import perilib

    src = os.path.dirname(os.path.dirname(perilib.__file__))
    code = ("import sys; import perilib.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_commands_load_no_scipy_and_no_numpy_polynomial(tmp_path):
    # numpy is the only runtime dependency: running each command at a small
    # size loads no scipy module, and no numpy.polynomial module either
    # (test_rk's start-up test covers integrating a flow on its own)
    import subprocess
    import sys
    import textwrap

    import perilib

    src = os.path.dirname(os.path.dirname(perilib.__file__))
    code = textwrap.dedent("""
        import sys
        from perilib.cli import main
        out = ["--out", sys.argv[1]]
        for argv in (["--set", "portrait.grid=64", "portrait"],
                     ["--set", "renorm.samples=5", "verify-renorm", "--eps-list", "0.3"],
                     ["evolve", "--duration", "5"],
                     ["check-theorem"],
                     ["--set", "normalform.grid=6,6,12", "--set", "normalform.fourier_cutoff=4",
                      "normalform", "-N", "1"]):
            assert main(out + argv) == 0, argv
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                     or m.startswith("numpy.polynomial")))
    """)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    assert len(os.listdir(tmp_path)) == 9  # each command wrote its files


class TestCheckTheorem:
    def test_report_written(self, tmp_path):
        code, out = run(tmp_path, "check-theorem")
        assert code == EXIT_OK
        rep = json.loads((out / "theorem_report.json").read_text())
        assert "inequalities" in rep and "pass" in rep and "T_estimate" in rep
        labels = {iq["label"] for iq in rep["inequalities"]}
        assert "winding" in labels and "contraction (defines N0)" in labels

    @pytest.mark.parametrize("eps0", ["1", "1.2", "1e100", "1e130"])
    def test_eps0_outside_zero_one_is_input_error(self, tmp_path, capsys, eps0):
        # eps0 = 1e100 used to exit 0 and write c0 as NaN, which is not
        # strict JSON, while 1e130 exited 2 on the overflow of eps0**2.5
        code, out = run(tmp_path, "--set", "domain.eps0=" + eps0, "check-theorem")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "lies outside (0, 1)" in err
        assert not out.exists()


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
            # 24 x nodes: at 12 the step-1 residual is 2e-4, above RESIDUAL_RTOL
            "normalform.grid=6, 6, 24",
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
            "normalform.grid=6, 6, 24",  # as in test_three_steps_decay
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

    def test_default_config_passes_residual_guard(self, tmp_path):
        code, out = run(tmp_path, "normalform")
        assert code == EXIT_OK
        table = json.loads((out / "normalform_norms.json").read_text())["table"]
        assert len(table) == 3
        assert all(row["residual"] < RESIDUAL_RTOL for row in table)

    def test_coarse_x_grid_trips_residual_guard(self, tmp_path, capsys):
        # 16 x nodes leave a step-1 residual of 6e-6
        code, out = run(tmp_path, "--set", "normalform.grid=16,16,16", "normalform")
        assert code == EXIT_GUARD
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "homological residual" in err and "at step 1" in err
        assert not out.exists()


def as_json(obj):
    """json.dumps's default for the CLI's payloads: a float array as its
    list, anything else as a float."""
    return obj.tolist() if isinstance(obj, np.ndarray) else float(obj)


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
            json.dumps(dict(payload, seed=seed), indent=2, default=as_json)
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


@pytest.mark.parametrize("key, value", [("masses.kappa", "1e200"), ("masses.mu", "1e-300")])
def test_mass_ratios_past_the_float_range_are_input_errors(tmp_path, capsys, key, value):
    # beta overflowed (or mu^2 underflowed) into a traceback, exit 1
    code, out = run(tmp_path, "--set", "%s=%s" % (key, value), "check-theorem")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "float range" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, name", [
    ("domain.delta", "1", "delta"),
    ("domain.delta", "5", "delta"),
    ("domain.eps0", "2.5", "eps0"),
    ("domain.eps0", "1e-13", "collision"),
], ids=["delta-Lambda", "delta-5", "eps0-2.5", "eps0-1e-13"])
def test_normalform_rejects_a_domain_outside_the_chart(tmp_path, capsys, key, value, name):
    # delta >= Lambda leaves Gcal > 0 and eps0 >= pi^2/4 empties the x
    # window; eps0 = 1e-13 puts the x window's edges within X_COLLISION of
    # 0 and 2 pi, where the Kepler solve's collision check fires.  Each is
    # an input error naming its cause, and nothing is written
    code, out = run(tmp_path, "--set", "%s=%s" % (key, value), "normalform")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and name in err
    assert not out.exists()


def test_singular_locus_mid_run_exits_3(tmp_path):
    code, _ = run(tmp_path, "--set", "hamiltonian.Lambda=1e-3", "evolve",
                  "--state=-100,0,1,0", "--duration", "1")
    assert code == EXIT_GUARD


def per_point_rows(seed, lines):
    """The portrait CSV of (level, polyline) pairs, formatted one row per
    point, rows joined by newlines."""
    rows = ["# seed,%d" % seed, "level,g,G"]
    for lv, line in lines:
        level = "%.17g" % lv
        rows += [level + ",%.17g,%.17g" % gG for gG in line]
        rows.append("# polyline," + level)
    return ("\n".join(rows) + "\n").encode()


def per_point_csv(seed, eps, grid):
    """The CLI's portrait CSV formatted one row per point."""
    return per_point_rows(seed, phase_portrait(eps, 1.0, grid=(grid, grid), levels=12))


# signed zeros, subnormals, non-finite values, 1e-12 (whose scaled digits
# read 1e16 - 0.2) and an exact tie, 2**-25
ODD_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, float("nan"), float("inf"), float("-inf"),
              1e-12, 2.0**-25]
ANY_FLOAT = st.one_of(st.sampled_from(ODD_FLOATS), st.floats())


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(st.tuples(ANY_FLOAT, st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT),
                                                       min_size=1, max_size=5)),
                      max_size=6),
       seed=st.integers(0, 2**64 - 1))
@example(lines=[], seed=0)
@example(lines=[(1.0, [(-0.0, 5e-324)]), (float("nan"), [(2.0**-25, 1e-12)] * 3)], seed=7)
def test_portrait_csv_of_drawn_lines_matches_the_per_point_rows(lines, seed):
    # levels and polylines as phase_portrait returns them, but drawn:
    # one-point lines and an empty portrait included
    import perilib.cli as cli

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(cli, "phase_portrait", lambda *args, **kwargs: lines)
        mp.setattr(cli, "find_equilibria", lambda *args, **kwargs: [])
        assert main(["--seed", str(seed), "--out", out, "portrait"]) == EXIT_OK
        with open(os.path.join(out, "portrait.csv"), "rb") as fh:
            assert fh.read() == per_point_rows(seed, lines)


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), ANY_FLOAT,
                        st.text(max_size=4), st.lists(ANY_FLOAT, min_size=60, max_size=150),
                        arrays(np.float64, st.integers(0, 150), elements=ANY_FLOAT))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=2)),
    max_leaves=10)


@settings(max_examples=100, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=5),
       seed=st.integers(0, 2**64 - 1))
@example(payload={"re": [float("nan"), float("inf"), float("-inf")] + [0.1] * 61,
                  "ints": [1] + [0.5] * 70, "np": [np.float64(0.1)] * 64,
                  "nested": {"im": [[-0.0] * 64, (2.0**-25,) * 64]}, "": {},
                  "arrays": [np.array(ODD_FLOATS), np.empty(0)]}, seed=3)
@example(payload={"name": "\0float run\0", "re": np.full(64, 0.25)}, seed=5)  # spells FLOAT_RUN
def test_write_json_is_json_dumps(payload, seed):
    # float arrays go through floattext, the rest through json; the bytes
    # are json.dumps's of the arrays as lists either way
    from perilib.cli import _write_json

    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "payload.json")
        _write_json(path, payload, seed)
        with open(path, "rb") as fh:
            text = fh.read()
    assert text == (json.dumps(dict(payload, seed=seed), default=as_json) + "\n").encode()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_files_take_the_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        code, out = run(tmp_path, "--set", "portrait.grid=64", "portrait")
    finally:
        os.umask(old)
    assert code == EXIT_OK
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()} == {
        "portrait.csv": mode, "equilibria.json": mode}


def test_failed_write_leaves_the_old_file_alone(tmp_path, monkeypatch):
    import perilib.cli as cli

    target = tmp_path / "portrait.csv"
    cli._atomic_write(str(target), "old\n")

    def fail(src, dst):
        raise OSError("no space left")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError):
        cli._atomic_write(str(target), "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["portrait.csv"]
    assert target.read_text() == "old\n"


@pytest.mark.parametrize("seed, eps", [(3, 0.25), (17, 0.75), (2024, 1.5)])
def test_portrait_csv_matches_the_per_point_rows(tmp_path, seed, eps):
    code, out = run(tmp_path, "--seed", str(seed), "--set", "portrait.grid=64",
                    "portrait", "--eps", repr(eps))
    assert code == EXIT_OK
    assert (out / "portrait.csv").read_bytes() == per_point_csv(seed, eps, 64)


@pytest.mark.parametrize("eps", [0.25, 0.75, 1.5])
def test_default_portrait_csv_matches_the_per_point_rows(tmp_path, eps):
    code, out = run(tmp_path, "--seed", "11", "portrait", "--eps", repr(eps))
    assert code == EXIT_OK
    text = (out / "portrait.csv").read_bytes()
    assert text == per_point_csv(11, eps, 128)
    # above 1/2 the separatrix level e_hat(0, 0) = 1 is contoured
    assert (b"\n# polyline,1\n" in text) == (eps > 0.5)


def test_main_reuses_one_parser_across_calls(tmp_path, monkeypatch, capsys):
    # main parses with one parser per process; a run of calls through it,
    # one after argparse rejected an argv and one after a --set that the
    # next call leaves out, gives the exit codes and files of a fresh
    # parser per call
    import perilib.cli as cli

    calls = [
        ("--set", "portrait.grid=64", "portrait", "--eps", "0.3"),
        ("--seed", "5", "verify-renorm", "--eps-list", "0.1, -0.2"),
        ("no-such-command",),
        ("evolve", "--state", "0.1, 0.2, 50.0, 0.3", "--duration", "5"),
        ("evolve", "--duration", "0"),
        ("portrait", "--eps", "0.6"),
        ("--set", "theorem.c_lower=3", "check-theorem"),
        NORMALFORM_SMALL + ("normalform", "-N", "1"),
        ("--set", "portrait.grid=64", "--set", "portrait.levels=3", "portrait"),
        ("--set", "portrait.grid=64", "portrait", "--eps"),
        ("--set", "portrait.grid=64", "portrait"),
    ]

    def run_all(root):
        results = []
        for i, argv in enumerate(calls):
            out = root / str(i)
            try:
                code = cli.main(["--out", str(out), *argv])
            except SystemExit as exc:
                code = ("exit", exc.code)
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}
            results.append((code, files))
        return results

    shared = run_all(tmp_path / "shared")
    assert [code for code, _ in shared].count(("exit", 2)) == 2
    assert cli._parser.cache_info().misses <= 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run_all(tmp_path / "fresh")
    capsys.readouterr()
    assert shared == fresh
