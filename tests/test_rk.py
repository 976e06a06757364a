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


def ref_solve(fun, T, y0, t_eval, method, rtol, atol, stop=None, first_step=None):
    """rk.solve's signature and result through scipy's solve_ivp, over
    (0, T), the stop a terminal event.  The accepted steps are the segments
    of a second, dense run; n_rejected is not known."""
    from scipy.integrate import solve_ivp

    f = lambda t, y: fun(t, y.tolist())
    events = None
    if stop is not None:
        event = lambda t, y: stop(t, y)
        event.terminal = True
        events = [event]
    kw = dict(method=method, rtol=rtol, atol=atol, events=events, first_step=first_step,
              t_eval=np.asarray(t_eval, dtype=float))
    sol = solve_ivp(f, (0.0, T), np.asarray(y0, dtype=float), **kw)
    dense = solve_ivp(f, (0.0, T), np.asarray(y0, dtype=float), dense_output=True, **kw)
    t_stop = y_stop = None
    if sol.status == 1:
        t_stop, y_stop = sol.t_events[0][-1], sol.y_events[0][-1]
    return rk.Solution(sol.t, sol.y.T, sol.status, sol.message, t_stop, y_stop,
                       sol.nfev, dense.sol.n_segments, None)


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
    @pytest.mark.parametrize("level, t_stop", [(0.5, 7 * np.pi / 6), (2.0, None), (0.0, 0.0)],
                             ids=["crossing", "never", "at-start"])
    def test_stop_as_solve_ivps_terminal_event(self, method, level, t_stop):
        # from (R, r) = (0, 1), R = -sin t, and the stop is R - level: it
        # first reaches zero at 7 pi / 6 for level 0.5, after R has fallen
        # to -1, never for level 2, and at the start for level 0
        args = (oscillator, 20.0, [0.0, 0.0, 1.0, 0.0], np.linspace(0.0, 20.0, 300),
                method, 1e-10, 1e-10, lambda t, z: z[0] - level)
        ours, ref = rk.solve(*args), ref_solve(*args)
        assert ours.status == ref.status == (0 if t_stop is None else 1)
        assert ours.message == ref.message
        assert ours.nfev == ref.nfev and ours.n_accepted == ref.n_accepted
        assert np.array_equal(ours.times, ref.times)
        assert np.max(np.abs(ours.states - ref.states)) < 1e-14
        if t_stop is None:
            assert ours.t_stop is ours.y_stop is None
            return
        assert ours.times[-1] <= ours.t_stop
        assert abs(ours.t_stop - ref.t_stop) < 1e-14
        assert np.max(np.abs(ours.y_stop - ref.y_stop)) < 1e-14
        # measured: 9.9e-11 (RK45) and 2.5e-10 (DOP853) from 7 pi / 6
        assert abs(ours.t_stop - t_stop) < 1e-9

    @pytest.mark.parametrize("T", [0.0, -0.0, -2.0, float("nan"), float("inf"),
                                   -float("inf")])
    def test_T_not_finite_and_positive_refused_before_a_step(self, T):
        with pytest.raises(ValueError, match="T must be finite and positive"):
            rk.solve(no_step, T, np.ones(4), [0.0], "RK45", 1e-10, 1e-10, no_step)

    # t_eval must be a 1-D sequence of finite, nondecreasing times in
    # [0, T]: the samples are found by bisection in that order, and
    # solve_ivp refuses the first three cases below too
    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_t_eval_out_of_order_refused_before_a_step(self, method):
        # used to return the three rows in that order
        with pytest.raises(ValueError, match="t_eval must be nondecreasing"):
            rk.solve(no_step, 2.0, np.ones(4), [0.0, 2.0, 1.0], method, 1e-10, 1e-10, no_step)

    @pytest.mark.parametrize("t_eval", [[-1.0, 0.5, 1.0], [-5e-324, 1.0]])
    def test_t_eval_before_the_start_refused_before_a_step(self, t_eval):
        # [-1, 0.5, 1] used to extrapolate the first step back to t = -1
        with pytest.raises(ValueError, match="t_eval must lie in \\[0, T\\]"):
            rk.solve(no_step, 2.0, np.ones(4), t_eval, "DOP853", 1e-10, 1e-10, no_step)

    @pytest.mark.parametrize("t_eval", [[0.0, 1.0, 5.0], [0.0, np.nextafter(2.0, 3.0)]])
    def test_t_eval_past_T_refused_before_a_step(self, t_eval):
        # [0, 1, 5] used to drop 5 without a word
        with pytest.raises(ValueError, match="t_eval must lie in \\[0, T\\]"):
            rk.solve(no_step, 2.0, np.ones(4), t_eval, "RK45", 1e-10, 1e-10, no_step)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_t_eval_not_finite_refused_before_a_step(self, bad):
        # [0, nan, 1] used to return one row
        with pytest.raises(ValueError, match="t_eval must be finite"):
            rk.solve(no_step, 2.0, np.ones(4), [0.0, bad, 1.0], "RK45", 1e-10, 1e-10, no_step)

    def test_t_eval_not_one_dimensional_refused_before_a_step(self):
        with pytest.raises(ValueError, match="t_eval must be one-dimensional"):
            rk.solve(no_step, 2.0, np.ones(4), [[0.0, 1.0]], "RK45", 1e-10, 1e-10, no_step)

    def test_t_eval_may_repeat_times(self):
        # integrate's grid linspace(0, T, 2000) repeats its times when T is a
        # few ulps: at T = 5e-324 it holds only 0 and 5e-324
        spec = spec_of(1)
        traj = integrate(spec, SecularState(0.1, 0.2, 100.0, 0.3), 5e-324)
        assert np.array_equal(traj.times, np.linspace(0.0, 5e-324, 2000))
        assert np.array_equal(np.unique(traj.times), [0.0, 5e-324])
        assert (traj.states == traj.states[0]).all()

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_step_size_too_small(self, method):
        # r' = r^2 from r = 1 blows up at t = 1
        def blow_up(t, z):
            return [z[0] ** 2, 0.0, z[1], -z[3]]

        args = (blow_up, 2.0, [1.0, 1.0, 0.0, 1.0], np.linspace(0.0, 2.0, 50),
                method, 1e-10, 1e-10)
        ours, ref = rk.solve(*args), ref_solve(*args)
        assert ours.status == ref.status == -1
        assert ours.message == ref.message == rk.TOO_SMALL_STEP
        assert ours.nfev == ref.nfev and np.array_equal(ours.times, ref.times)

    @pytest.mark.parametrize("method", ["RK23", "Radau", "BDF", "LSODA", "rk45"])
    def test_other_methods_refused_before_a_step(self, method):
        with pytest.raises(ValueError, match="RK45"):
            rk.solve(no_step, 1.0, np.ones(4), [0.0, 1.0], method, 1e-10, 1e-10)

    @pytest.mark.parametrize("rtol", [1e-300, 0.0, -1e-10, float("nan"),
                                      np.nextafter(100 * rk.EPS, 0.0)])
    def test_rtol_below_100_eps_refused_before_a_step(self, rtol):
        # solve_ivp warns and steps at 100 EPS instead; a run here keeps the
        # tolerance it was given or does not start
        with pytest.raises(ValueError, match="rtol must be at least 100 \\* EPS"):
            rk.solve(no_step, 1.0, np.ones(4), [0.0, 1.0], "RK45", rtol, 1e-10)

    @pytest.mark.parametrize("atol", [-1e-10, float("nan")])
    def test_negative_or_nan_atol_refused_before_a_step(self, atol):
        # a NaN atol made every step size NaN: the controller never ended
        with pytest.raises(ValueError, match="atol must be nonnegative"):
            rk.solve(no_step, 1.0, np.ones(4), [0.0, 1.0], "RK45", 1e-10, atol)

    @pytest.mark.parametrize("first_step", [0.0, -1.0, float("nan"), float("inf"),
                                            np.nextafter(2.0, 3.0)])
    @pytest.mark.parametrize("T", [2.0, 0.25])
    def test_first_step_outside_the_interval_refused_before_a_step(self, first_step, T):
        calls = []

        def spy(t, z):
            calls.append(t)
            return oscillator(t, z)

        with pytest.raises(ValueError, match="first_step must be finite, positive"):
            rk.solve(spy, T, [0.0, 0.0, 1.0, 0.0], [0.0, T], "DOP853", 1e-10, 1e-10,
                     first_step=first_step)
        assert calls == []

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    @pytest.mark.parametrize("T", [20.0])
    @pytest.mark.parametrize("first_step", [1e-3, 0.5, 20.0])
    def test_first_step_as_solve_ivps(self, method, T, first_step):
        # the initial-step rule and its evaluation are skipped, as in
        # solve_ivp; a first step of the whole interval is rejected down
        args = (oscillator, T, [0.0, 0.0, 1.0, 0.0], np.linspace(0.0, T, 300),
                method, 1e-10, 1e-10)
        ours, ref = rk.solve(*args, first_step=first_step), ref_solve(*args, first_step=first_step)
        assert ours.status == ref.status == 0
        assert ours.nfev == ref.nfev and ours.n_accepted == ref.n_accepted
        assert np.array_equal(ours.times, ref.times)
        assert np.max(np.abs(ours.states - ref.states)) < 1e-14

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_first_step_of_the_rule_skips_its_evaluation(self, method):
        # the rule's own step, given: the same run, bit for bit, with the
        # rule's one evaluation fewer
        y0, f0 = [0.0, 0.0, 1.0, 0.0], oscillator(0.0, [0.0, 0.0, 1.0, 0.0])
        h0 = rk._initial_step(oscillator, y0, f0, 20.0, rk.PAIRS[method].error_order,
                              1e-10, 1e-10)
        args = (oscillator, 20.0, y0, np.linspace(0.0, 20.0, 300), method, 1e-10, 1e-10)
        given, rule = rk.solve(*args, first_step=h0), rk.solve(*args)
        assert given.nfev == rule.nfev - 1
        assert (given.n_accepted, given.n_rejected) == (rule.n_accepted, rule.n_rejected)
        assert given.states.tobytes() == rule.states.tobytes()

    def test_rtol_at_100_eps_runs(self):
        sol = rk.solve(oscillator, 1.0, [0.0, 0.0, 1.0, 0.0], [0.0, 1.0], "DOP853",
                       100 * rk.EPS, 1e-14)
        assert sol.status == 0 and abs(sol.states[-1, 2] - np.cos(1.0)) < 1e-12


def ref_interpolants(pair, R):
    """The interpolants of the records R built one step at a time, as the
    step loop used to build them, with solve_ivp's per-step operations:
    DOP853's F with its elementwise rows and one np.dot(D, K) a step,
    RK45's Q as np.dot(K^T, P).  Stacked, in the batch's layout."""
    t_old, h, y_old, y, K = pair._fields(R)
    coeffs = []
    for i in range(len(h)):
        hi, yo, Ki = float(h[i]), np.array(y_old[i].tolist()), np.array(K[i].tolist())
        if pair is rk.PAIRS["RK45"]:
            coeffs.append(np.dot(Ki.T, pair.P))
            continue
        f_old, f = Ki[0], Ki[12]
        F = np.empty((3 + len(pair.D), len(yo)))
        F[0] = np.array(y[i].tolist()) - yo
        F[1] = hi * f_old - F[0]
        F[2] = 2 * F[0] - hi * (f + f_old)
        F[3:] = hi * np.dot(pair.D, Ki)
        coeffs.append(F)
    return t_old, h, y_old, np.array(coeffs)


class TestBatchInterpolants:
    """Every kept step's interpolant is built in one batch after the last
    step; the batch keeps the bits of the per-step construction.  CI runs
    these at two BLAS threads too."""

    @pytest.mark.parametrize("method, T, tol", [("RK45", 20.0, 1e-10),
                                                ("DOP853", 200.0, 1e-12)])
    def test_batch_is_the_per_step_construction_bitwise(self, monkeypatch, method, T, tol):
        pair = rk.PAIRS[method]
        seen = []

        def spy(R, counts, ts):
            seen.append((R, counts, ts))
            return rk._Pair.sample(pair, R, counts, ts)

        monkeypatch.setattr(pair, "sample", spy)
        sol = rk.solve(oscillator, T, [0.3, 0.0, 1.0, 0.0], np.linspace(0.0, T, 2000),
                       method, tol, tol)
        (R, counts, ts), = seen
        assert len(counts) >= 200 and sum(counts) == len(ts) == 2000
        batch, ref = pair.interpolants(R), ref_interpolants(pair, R)
        for ours, theirs in zip(batch, ref):
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
        assert pair.evaluate(ref, counts, ts).tobytes() == sol.states.tobytes()


class TestParityWithSolveIvp:
    """The flows of this package through perilib.rk and through solve_ivp.
    Bounds are the measured differences with about 3x to 10x margin."""

    def test_harness_closed_form_and_stop(self):
        # the harness Hamiltonian (R^2 + r^2)/2 from (R, r) = (1, 0): its
        # samples against R = cos t, r = sin t, its energy drift, the stop
        # at R = 0 against pi / 2, and both runs against solve_ivp's
        T = 4.0 * np.pi
        args = (oscillator, T, [1.0, 0.0, 0.0, 0.0], np.linspace(0.0, T, 2000),
                "RK45", 1e-12, 1e-12)
        sol, ref = rk.solve(*args), ref_solve(*args)
        assert sol.status == 0
        # measured: 7.2e-12 in R and 6.4e-12 in r
        assert np.max(np.abs(sol.states[:, 0] - np.cos(sol.times))) < 3e-11
        assert np.max(np.abs(sol.states[:, 2] - np.sin(sol.times))) < 3e-11
        energies = 0.5 * (sol.states[:, 0] ** 2 + sol.states[:, 2] ** 2)
        assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-10
        assert sol.n_accepted == ref.n_accepted and sol.nfev == ref.nfev
        assert np.max(np.abs(sol.states - ref.states)) < 1e-14
        stopped, ref = rk.solve(*args, lambda t, z: z[0]), ref_solve(*args, lambda t, z: z[0])
        assert stopped.status == 1
        # measured: -7.5e-14 here, -7.6e-14 through solve_ivp
        assert abs(stopped.t_stop - np.pi / 2) < 1e-12
        assert abs(stopped.t_stop - ref.t_stop) < 1e-14
        assert stopped.n_accepted == ref.n_accepted and stopped.nfev == ref.nfev

    @pytest.mark.parametrize("T", [200.0])
    @pytest.mark.parametrize("state", [(0.1, 0.0, 100.0, 0.0), (0.1, 0.2, 100.0, 0.3)])
    def test_secular_evolve(self, monkeypatch, T, state):
        # measured: at most 3.8e-16 relative, sample by sample
        (ours, sol), (ref, ref_sol) = both(
            monkeypatch, lambda: integrate(spec_of(1), SecularState(*state), T))
        assert np.array_equal(ours.times, ref.times)
        np.testing.assert_allclose(ours.states, ref.states, rtol=1e-14, atol=0)
        assert (sol.n_accepted, sol.nfev) == (ref_sol.n_accepted, ref_sol.nfev)
        assert sol.n_rejected == 0

    @pytest.mark.parametrize("index, method", [
        pytest.param(1, "RK45", id="1"),
        pytest.param(2, "RK45", id="2"),
        pytest.param(1, "DOP853", id="1-DOP853"),
        pytest.param(2, "DOP853", id="2-DOP853"),
    ])
    def test_action_angle_run_is_bitwise(self, monkeypatch, index, method):
        # DOP853 takes 4 steps, so its 2000 samples, 500 a step, are one
        # batch here and one per-step interpolant call each in solve_ivp
        run = lambda: integrate(spec_of(index), ActionAngleState(0.9, 0.3, 10.0, 2.5), 40.0,
                                step_ctrl=StepControl(1e-10, 1e-10, method))
        (ours, sol), (ref, ref_sol) = both(monkeypatch, run)
        assert np.array_equal(ours.times, ref.times)
        if (index, method) == (1, "DOP853"):
            # the steps' float sums against solve_ivp's numpy dot products:
            # measured 5.55e-17 before the batch and after it
            assert np.max(np.abs(ours.states - ref.states)) <= 5.6e-17
        else:
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
        # measured: 628 samples, 44 accepted steps and 793 evaluations each,
        # the domain exit 7.8e-16 apart (relative), states within 1.2e-15 of
        # each column's scale, winding 7.1e-15 apart, 4 squeezes each.  Both
        # start at a hundredth of the run: from the initial-step rule's
        # 0.14, the first error estimates are rounding noise, so the
        # summation order of their sums (numpy's BLAS against a float loop)
        # picks the early step sizes
        assert len(ours.times) == len(ref.times) == 628
        assert s_ours.domain_exit and s_ref.domain_exit
        assert abs(ours.times[-1] / ref.times[-1] - 1) < 3e-15
        assert np.all(np.abs(ours.states - ref.states) < 1e-14 * np.abs(ref.states).max(axis=0))
        assert abs(s_ours.winding - s_ref.winding) < 5e-14
        assert s_ours.squeezes == s_ref.squeezes == 4
        assert (sol.n_accepted, sol.nfev) == (ref_sol.n_accepted, ref_sol.nfev)


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
