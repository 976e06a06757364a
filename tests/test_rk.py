"""perilib.rk against scipy.integrate.solve_ivp, which it reproduces.

scipy.integrate and scipy.optimize are imported by these tests only: the
library steps its flows with perilib.rk and never imports them.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import perilib
from perilib import rk
from perilib.coords import ActionAngleState, SecularState, derive_mass_params
from perilib.dynamics import StepControl, integrate
from perilib.hamiltonians import SECULAR_PAIRS, HamiltonianSpec
from perilib.theorem import check_libration_theorem, run_libration_experiment


def ref_solve(fun, t_span, y0, t_eval, method, rtol, atol, events=None):
    """rk.solve's signature and result through scipy's solve_ivp.  The
    accepted steps are the segments of a second, dense run; n_rejected is
    not known."""
    from scipy.integrate import solve_ivp

    f = lambda t, y: fun(t, y.tolist())
    kw = dict(method=method, rtol=rtol, atol=atol, events=events,
              t_eval=np.asarray(t_eval, dtype=float))
    sol = solve_ivp(f, t_span, np.asarray(y0, dtype=float), **kw)
    dense = solve_ivp(f, t_span, np.asarray(y0, dtype=float), dense_output=True, **kw)
    return rk.Solution(sol.t, sol.y.T, sol.status, sol.message, sol.t_events,
                       sol.y_events, sol.nfev, dense.sol.n_segments, None)


def both(monkeypatch, run):
    """run() with perilib.rk, then with solve_ivp; each result with the
    integrator's Solution."""
    results = []
    for solve in (rk.solve, ref_solve):
        seen = []

        def spy(*args, solve=solve, **kwargs):
            seen.append(solve(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(rk, "solve", spy)
        results.append((run(), seen[-1]))
    return results


def spec_of(index):
    return HamiltonianSpec(index, 1.0, 1.0, derive_mass_params(1.0, 1.0, "jacobi"))


class TestTableaux:
    # the copies are scipy 1.17.1's entries, bit for bit
    @staticmethod
    def dense(rows, shape):
        out = np.zeros(shape)
        for i, row in enumerate(rows):
            for j, a in (row.items() if isinstance(row, dict) else enumerate(row)):
                out[i, j] = a
        return out

    @staticmethod
    def same_bits(ours, theirs):
        ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs, dtype=float)
        return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()

    def test_rk45(self):
        from scipy.integrate import RK45

        for name in ("A", "B", "C", "E", "P"):
            assert self.same_bits(getattr(rk, "RK45_" + name), getattr(RK45, name)), name

    def test_dop853(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        n, n_ext = ref.N_STAGES, ref.N_STAGES_EXTENDED
        assert self.same_bits(self.dense(rk.DOP853_A, (n_ext, n_ext)), ref.A)
        assert self.same_bits(rk.DOP853_C, ref.C)
        assert self.same_bits(self.dense([rk.DOP853_B], (1, n))[0], ref.B)
        assert self.same_bits(self.dense([rk.DOP853_E3], (1, n + 1))[0], ref.E3)
        assert self.same_bits(self.dense([rk.DOP853_E5], (1, n + 1))[0], ref.E5)
        assert self.same_bits(self.dense(rk.DOP853_D, ref.D.shape), ref.D)


class TestBrentq:
    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x ** 3 - 2.0, 0.0, 3.0),
        (np.cos, 3.0, 0.5),
        (lambda x: np.exp(x) - 5.0, -1.0, 4.0),
        (lambda x: (x - 1e-3) * 1e-200, -1.0, 1.0),
        (lambda x: x, 0.0, 1.0),
    ])
    def test_same_root_as_scipy(self, f, a, b):
        from scipy.optimize import brentq

        tol = 4 * rk.EPS
        assert rk.brentq(f, a, b) == brentq(f, a, b, xtol=tol, rtol=tol)

    def test_same_signs_refused(self):
        with pytest.raises(ValueError, match="different signs"):
            rk.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def oscillator(t, z):
    # J grad H of the harness Hamiltonian (R^2 + r^2)/2 in the secular
    # chart's (R, r) pair
    (ip, iq), _ = SECULAR_PAIRS
    out = [0.0] * 4
    out[ip], out[iq] = -z[iq], z[ip]
    return out


def no_step(*args, **kwargs):
    raise AssertionError("the flow was evaluated")


class TestSolveIvpSemantics:
    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    @pytest.mark.parametrize("T", [20.0, -20.0])
    def test_events_terminal_and_direction(self, method, T):
        # a rising-r event, and a terminal falling one, which stops the run
        # at its first falling zero, past a rising one; backward too, where
        # the rising zeros of the forward run are falling ones
        def rising(t, z):
            return z[2]

        def second(t, z):
            return z[0] - 0.5

        rising.direction = 1.0
        second.terminal = True
        second.direction = -1.0
        args = (oscillator, (0.0, T), [0.0, 0.0, 1.0, 0.0], np.linspace(0.0, T, 300),
                method, 1e-10, 1e-10, [rising, second])
        ours, ref = rk.solve(*args), ref_solve(*args)
        assert ours.status == ref.status == 1 and ours.message == ref.message
        assert ours.nfev == ref.nfev and ours.n_accepted == ref.n_accepted
        for a, b in zip(ours.t_events + ours.y_events, ref.t_events + ref.y_events):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b), initial=0.0) < 1e-14
        assert [len(te) for te in ours.t_events] == ([1, 1] if T > 0 else [0, 1])
        assert np.array_equal(ours.times, ref.times)
        assert np.max(np.abs(ours.states - ref.states)) < 1e-14

    @pytest.mark.parametrize("terminal", [2, 1, None])
    def test_terminal_other_than_a_bool_refused_before_a_step(self, terminal):
        # solve_ivp's count of zeros before the stop is not kept
        def event(t, z):
            return z[0]

        event.terminal = terminal
        with pytest.raises(ValueError, match="must be a boolean"):
            rk.solve(no_step, (0.0, 1.0), np.ones(4), [0.0, 1.0], "RK45", 1e-10, 1e-10,
                     [event])

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_step_size_too_small(self, method):
        # r' = r^2 from r = 1 blows up at t = 1
        def blow_up(t, z):
            return [z[0] ** 2, 0.0, z[1], -z[3]]

        args = (blow_up, (0.0, 2.0), [1.0, 1.0, 0.0, 1.0], np.linspace(0.0, 2.0, 50),
                method, 1e-10, 1e-10)
        ours, ref = rk.solve(*args), ref_solve(*args)
        assert ours.status == ref.status == -1
        assert ours.message == ref.message == rk.TOO_SMALL_STEP
        assert ours.nfev == ref.nfev and np.array_equal(ours.times, ref.times)

    @pytest.mark.parametrize("method", ["RK23", "Radau", "BDF", "LSODA", "rk45"])
    def test_other_methods_refused_before_a_step(self, method):
        with pytest.raises(ValueError, match="RK45"):
            rk.solve(no_step, (0.0, 1.0), np.ones(4), [0.0, 1.0], method, 1e-10, 1e-10)

    @pytest.mark.parametrize("rtol", [1e-300, 0.0, -1e-10, float("nan"),
                                      np.nextafter(100 * rk.EPS, 0.0)])
    def test_rtol_below_100_eps_refused_before_a_step(self, rtol):
        # solve_ivp warns and steps at 100 EPS instead; a run here keeps the
        # tolerance it was given or does not start
        with pytest.raises(ValueError, match="rtol must be at least 100 \\* EPS"):
            rk.solve(no_step, (0.0, 1.0), np.ones(4), [0.0, 1.0], "RK45", rtol, 1e-10)

    @pytest.mark.parametrize("atol", [-1e-10, float("nan")])
    def test_negative_or_nan_atol_refused_before_a_step(self, atol):
        # a NaN atol made every step size NaN: the controller never ended
        with pytest.raises(ValueError, match="atol must be nonnegative"):
            rk.solve(no_step, (0.0, 1.0), np.ones(4), [0.0, 1.0], "RK45", 1e-10, atol)

    def test_rtol_at_100_eps_runs(self):
        sol = rk.solve(oscillator, (0.0, 1.0), [0.0, 0.0, 1.0, 0.0], [0.0, 1.0], "DOP853",
                       100 * rk.EPS, 1e-14)
        assert sol.status == 0 and abs(sol.states[-1, 2] - np.cos(1.0)) < 1e-12


class TestParityWithSolveIvp:
    """The flows of this package through perilib.rk and through solve_ivp.
    Bounds are the measured differences with about 3x to 10x margin."""

    def test_harness_directional_event(self):
        # the harness Hamiltonian (R^2 + r^2)/2: its period, the spacing of
        # consecutive rising zeros of R, its energy drift and its run
        # against solve_ivp's
        def rising_R(t, z):
            return z[0]

        rising_R.direction = 1.0
        T = 4.0 * np.pi
        args = (oscillator, (0.0, T), [0.0, 0.0, 1.0, 0.0], np.linspace(0.0, T, 2000),
                "RK45", 1e-12, 1e-12, [rising_R])
        sol, ref = rk.solve(*args), ref_solve(*args)
        period = [s.t_events[0][-1] - s.t_events[0][-2] for s in (sol, ref)]
        # measured: -3.95e-13 here, -3.96e-13 through solve_ivp
        assert abs(period[0] - 2 * np.pi) < 1e-12
        assert abs(period[0] - period[1]) < 1e-14
        energies = 0.5 * (sol.states[:, 0] ** 2 + sol.states[:, 2] ** 2)
        assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-10
        assert sol.n_accepted == ref.n_accepted and sol.nfev == ref.nfev
        assert np.max(np.abs(sol.states - ref.states)) < 1e-14

    @pytest.mark.parametrize("T", [200.0, -150.0])
    @pytest.mark.parametrize("state", [(0.1, 0.0, 100.0, 0.0), (0.1, 0.2, 100.0, 0.3)])
    def test_secular_evolve(self, monkeypatch, T, state):
        # measured: at most 3.8e-16 relative, sample by sample
        (ours, sol), (ref, ref_sol) = both(
            monkeypatch, lambda: integrate(spec_of(1), SecularState(*state), T))
        assert np.array_equal(ours.times, ref.times)
        np.testing.assert_allclose(ours.states, ref.states, rtol=1e-14, atol=0)
        assert (sol.n_accepted, sol.nfev) == (ref_sol.n_accepted, ref_sol.nfev)
        assert sol.n_rejected == 0

    @pytest.mark.parametrize("index", [1, 2])
    def test_action_angle_run_is_bitwise(self, monkeypatch, index):
        run = lambda: integrate(spec_of(index), ActionAngleState(0.9, 0.3, 10.0, 2.5), 40.0,
                                step_ctrl=StepControl(1e-10, 1e-10))
        (ours, sol), (ref, ref_sol) = both(monkeypatch, run)
        assert np.array_equal(ours.times, ref.times)
        assert np.array_equal(ours.states, ref.states)
        assert (sol.n_accepted, sol.nfev) == (ref_sol.n_accepted, ref_sol.nfev)

    def test_libration_run_on_criterion_7s_set(self, monkeypatch):
        beta_bar = 3000.0
        kappa = (beta_bar + np.sqrt(beta_bar ** 2 + 8 * beta_bar)) / 4
        spec = HamiltonianSpec(2, 1.0, 1.0, derive_mass_params(1.0, kappa, "m0centric"))
        report = check_libration_theorem(spec, eps0=0.25, delta=0.025, s0=1.0,
                                         alpha_minus=2.0e4, alpha_plus=3.2e5,
                                         c_upper=10.0, c_lower=5e-8)
        state0 = ActionAngleState(1.0 - 0.025 / 8, 0.3, 2 * np.sqrt(2.0e4) * 1.025, np.pi)
        ((ours, s_ours), sol), ((ref, s_ref), ref_sol) = both(
            monkeypatch, lambda: run_libration_experiment(spec, report, state0))
        # measured: 628 samples each, the domain exit 6.4e-15 apart
        # (relative), states within 1.4e-11 of each column's scale, winding
        # 2.3e-11 apart, 4 squeezes each
        assert len(ours.times) == len(ref.times) == 628
        assert s_ours.domain_exit and s_ref.domain_exit
        assert abs(ours.times[-1] / ref.times[-1] - 1) < 3e-14
        assert np.all(np.abs(ours.states - ref.states) < 1e-10 * np.abs(ref.states).max(axis=0))
        assert abs(s_ours.winding - s_ref.winding) < 1e-10
        assert s_ours.squeezes == s_ref.squeezes == 4
        # The first steps' error estimates are rounding noise (1e-12 to
        # 1e-8 of the tolerance), so the summation order of their sums,
        # numpy's BLAS against a float loop, picks the early step sizes:
        # 52 accepted steps here against solve_ivp's 51
        assert abs(sol.n_accepted - ref_sol.n_accepted) <= 1


def test_integrating_loads_no_scipy_integrate_or_optimize():
    # the memory and start-up of a flow: importing perilib and integrating
    # load no scipy module, scipy.integrate and scipy.optimize included
    src = os.path.dirname(os.path.dirname(perilib.__file__))
    code = ("import sys; import perilib; "
            "from perilib.dynamics import integrate; "
            "from perilib.coords import SecularState, derive_mass_params; "
            "from perilib.hamiltonians import HamiltonianSpec; "
            "spec = HamiltonianSpec(1, 1.0, 1.0, derive_mass_params(1.0, 1.0)); "
            "traj = integrate(spec, SecularState(0.1, 0.2, 100.0, 0.3), 5.0); "
            "assert len(traj.times) == 2000; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
