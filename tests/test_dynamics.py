import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from perilib import hamiltonians, rk
from perilib.coords import ActionAngleState, SecularState, derive_mass_params
from perilib.dynamics import IntegrationError, StepControl, Trajectory, _measure, integrate
from perilib.hamiltonians import SECULAR_PAIRS, DomainError, HamiltonianSpec, chart_named
from perilib.potentials import SingularLocusError


def make_spec(index=1):
    return HamiltonianSpec(index, 1.0, 1.0, derive_mass_params(1.0, 1.0, "jacobi"))


def no_step(*args, **kwargs):
    raise AssertionError("the flow was stepped")


def ref_measure(traj, spec):
    """The events and (winding, squeezes, Gcal_drift) of a trajectory as
    two passes read them before _measure: the squeeze and winding-2pi
    annotation, then the libration summary, less its refusal of 2 to 9
    samples.  traj is left as it is."""
    chart = chart_named(traj.chart)

    def squeezes(G):
        nz = np.flatnonzero(G)
        flips = np.sign(G[nz[1:]]) * np.sign(G[nz[:-1]]) < 0
        return nz[:-1][flips]

    events = list(traj.events)
    G = chart.G_series(spec.Lambda, traj.states)
    for i in squeezes(G):
        t0, t1 = traj.times[i], traj.times[i + 1]
        w = G[i] / (G[i] - G[i + 1])
        events.append((t0 + w * (t1 - t0), "squeeze"))
    ang = np.unwrap(traj.states[:, chart.angle_col])
    hit = np.flatnonzero(np.abs(ang - ang[0]) >= 2 * np.pi)
    if len(hit):
        events.append((traj.times[hit[0]], "winding-2pi"))
    events.sort(key=lambda ev: ev[0])

    ang = np.unwrap(traj.states[:, chart.angle_col])
    n_squeezes = len(squeezes(chart.G_series(spec.Lambda, traj.states)))
    col = chart.Gcal_col
    drift = 0.0 if col is None else float(
        np.max(np.abs(traj.states[:, col] - traj.states[0, col])))
    return events, (float(np.max(np.abs(ang - ang[0]))), n_squeezes, drift)


def summary(traj):
    return traj.winding, traj.squeezes, traj.Gcal_drift


def measured(traj, spec):
    _measure(traj, spec)
    return traj


class TestHarness:
    def test_harmonic_oscillator_period_and_drift(self):
        # harness-only test Hamiltonian (R^2 + r^2)/2 in the secular chart's
        # (R, r) pair, its flow J grad H built and stepped as integrate does;
        # from (R, r) = (1, 0) it is R = cos t, r = sin t, and R first
        # reaches 0 at a quarter period, pi / 2
        grad = lambda z: [z[0], 0.0, z[2], 0.0]

        def flow(t, z):
            dH = grad(z)
            out = [0.0] * 4
            for ip, iq in SECULAR_PAIRS:
                out[ip] = -dH[iq]
                out[iq] = dH[ip]
            return out

        T = 4.0 * np.pi
        args = (flow, T, [1.0, 0.0, 0.0, 0.0], np.linspace(0.0, T, 2000),
                StepControl().method, 1e-12, 1e-12)
        sol = rk.solve(*args)
        assert sol.status == 0
        # measured: 7.2e-12 in R and 6.4e-12 in r
        assert np.max(np.abs(sol.states[:, 0] - np.cos(sol.times))) < 3e-11
        assert np.max(np.abs(sol.states[:, 2] - np.sin(sol.times))) < 3e-11
        energies = 0.5 * (sol.states[:, 0] ** 2 + sol.states[:, 2] ** 2)
        drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
        assert drift < 1e-10
        stopped = rk.solve(*args, lambda t, z: z[0])
        # measured: -7.5e-14
        assert stopped.status == 1 and abs(stopped.t_stop - np.pi / 2) < 1e-12


class TestInvariantManifolds:
    def test_M0_trapping(self):
        # the radial motion is a rise-and-collapse (monotone potential); r0
        # far above the branch radius keeps the run clear for the duration
        spec = make_spec(1)
        st = SecularState(0.1, 0.0, 100.0, 0.0)
        traj = integrate(spec, st, 200.0, step_ctrl=StepControl(1e-10, 1e-10))
        assert np.max(np.abs(traj.states[:, 1])) < 1e-9  # G stays 0
        assert np.max(np.abs(traj.states[:, 3])) < 1e-9  # g stays 0
        assert traj.energy_drift < 1e-8
        # r actually moves along the radial flow
        assert traj.states[:, 2].max() - traj.states[:, 2].min() > 0.1

    def test_Mpi_trapping(self):
        spec = make_spec(2)
        st = SecularState(0.05, 0.0, 60.0, np.pi)
        traj = integrate(spec, st, 100.0, step_ctrl=StepControl(1e-10, 1e-10))
        assert np.max(np.abs(traj.states[:, 1])) < 1e-9
        assert np.max(np.abs(traj.states[:, 3] - np.pi)) < 1e-9


class TestEvents:
    def test_winding_synthetic(self):
        # gamma(t) = omega t over one full turn -> winding 2 pi
        omega = 0.7
        t = np.linspace(0, 2 * np.pi / omega, 300)
        states = np.zeros((t.size, 4))
        states[:, 1] = omega * t  # gamma column of the action-angle chart
        states[:, 0] = 0.5  # Gcal
        traj = measured(Trajectory(t, states, np.ones_like(t), "action-angle"), make_spec())
        assert abs(traj.winding - 2 * np.pi) < 1e-9
        assert traj.Gcal_drift == 0.0

    def test_squeeze_synthetic(self):
        # G(t) = cos t on [0, 2 pi] -> two sign changes
        t = np.linspace(0, 2 * np.pi, 200)
        states = np.zeros((t.size, 4))
        states[:, 1] = np.cos(t)
        traj = measured(Trajectory(t, states, np.ones_like(t), "secular"), make_spec())
        assert traj.squeezes == 2

    @pytest.mark.parametrize("G, times", [
        ([1, -1], [0.5]),
        ([1, 0, -1], [1.0]),
        ([1, 0, 0, -1], [1.0]),
        ([-1, 0, 0, 0, 2], [1.0]),
        ([0, 1, 0, -1, 0, 0, 2], [2.0, 4.0]),
        ([1, 0, 1], []),
        ([-1, 0, 0, -3], []),
        ([0, 0, 0], []),
    ])
    def test_squeeze_across_exact_zeros(self, G, times):
        # a sign change through samples that are exactly 0 counts once, timed
        # at the first zero sample; a touch of zero counts none
        G = np.array(G + [G[-1]] * (12 - len(G)), dtype=float)
        t = np.arange(G.size, dtype=float)
        states = np.zeros((t.size, 4))
        states[:, 1] = G
        traj = measured(Trajectory(t, states, np.ones_like(t), "secular"), make_spec())
        assert traj.events == [(s, "squeeze") for s in times]
        assert traj.squeezes == len(times)

    def test_squeeze_through_gcal_at_lambda(self):
        # in the action-angle chart G = sqrt(max(0, Lambda^2 - Gcal^2)) cos
        # gamma is exactly 0 at |Gcal| >= Lambda, which the libration guard
        # admits up to Lambda + 1e-12
        rows = [(0.9, 0.1)] * 5 + [(1.0, 1.0), (1.0 + 1e-13, 2.0)] + [(0.9, 3.0)] * 5
        states = np.array([[gc, gam, 500.0, 3.0] for gc, gam in rows])
        t = np.arange(len(rows), dtype=float)
        traj = measured(Trajectory(t, states, np.ones_like(t), "action-angle"), make_spec())
        assert traj.events == [(5.0, "squeeze")]
        assert traj.squeezes == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cosine_samples_match_the_closed_form(self, data):
        # G(t) = A cos(w t + phi), with the libration angle w t + phi wrapped
        # into (-pi, pi], on a random increasing grid whose gaps stay below
        # 0.9 pi / |w|: the squeezes are the zeros of the cosine inside the
        # span, each timed within the gap that holds it, the winding is
        # |w| T, and the winding-2pi event is the first sample at or past
        # a turn of 2 pi.  In the action-angle chart A = sqrt(Lambda^2 -
        # Gcal^2) with Gcal constant, so that Gcal_drift is 0 in both charts
        chart = data.draw(st.sampled_from(["secular", "action-angle"]))
        w = data.draw(st.floats(0.1, 5.0)) * data.draw(st.sampled_from([1.0, -1.0]))
        phi = data.draw(st.floats(-np.pi, np.pi))
        A = data.draw(st.floats(0.1, 0.9))
        n = data.draw(st.integers(2, 60))
        gaps = data.draw(st.lists(st.floats(0.01, 0.9), min_size=n - 1, max_size=n - 1))
        t = data.draw(st.floats(-10.0, 10.0)) + np.cumsum([0.0] + gaps) * np.pi / abs(w)
        phase = w * t + phi
        lo, hi = sorted((phase[0], phase[-1]))
        k = np.arange(np.ceil((lo - np.pi / 2) / np.pi), np.floor((hi - np.pi / 2) / np.pi) + 1)
        zeros = np.sort((np.pi / 2 + k * np.pi - phi) / w)
        T = t[-1] - t[0]
        turn = t[0] + 2 * np.pi / abs(w)  # the time of a turn of 2 pi
        assume(all(np.min(np.abs(t - z)) > 1e-9 for z in [*zeros, turn]))

        states = np.zeros((n, 4))
        if chart == "secular":
            states[:, 1], states[:, 2], states[:, 3] = A * np.cos(phase), 50.0, 0.0
            col = 3
        else:
            states[:, 0], states[:, 2], states[:, 3] = np.sqrt(1.0 - A * A), 500.0, 3.0
            col = 1
        states[:, col] = np.angle(np.exp(1j * phase))
        traj = measured(Trajectory(t, states, np.ones(n), chart), make_spec())

        squeezes = [te for te, kind in traj.events if kind == "squeeze"]
        assert traj.squeezes == len(squeezes) == len(zeros)
        for te, z in zip(squeezes, zeros):
            i = np.searchsorted(t, z)
            assert t[i - 1] <= te <= t[i]
        assert abs(traj.winding - abs(w) * T) <= 1e-9 * max(1.0, abs(w) * T)
        past = t[t > turn]
        assert [te for te, kind in traj.events if kind == "winding-2pi"] == list(past[:1])
        assert traj.Gcal_drift == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_pass_matches_the_two_pass_reference(self, data):
        # G and angle samples in either chart, with runs of exact zeros in G
        # (in the action-angle chart G is 0 wherever |Gcal| >= Lambda), from
        # 1 to 50 samples, and a domain-exit event already on the list
        n = data.draw(st.integers(1, 50))
        chart = data.draw(st.sampled_from(["secular", "action-angle"]))
        if chart == "secular":
            g_value = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
        else:
            g_value = st.one_of(st.sampled_from([-1.0, 1.0, 1.0 + 1e-13]),
                                st.floats(-1.0, 1.0))
        runs = data.draw(st.lists(st.tuples(g_value, st.integers(1, 6)), min_size=1))
        G = np.repeat([v for v, _ in runs], [k for _, k in runs])
        G = np.resize(G, n)
        angle = np.array(data.draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n)))
        times = np.cumsum(data.draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
        times -= times[0]
        states = np.array(data.draw(st.lists(
            st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(1, 500), st.floats(0.1, 6)),
            min_size=n, max_size=n)))
        col = chart_named(chart)
        states[:, col.angle_col] = angle
        states[:, 0 if chart == "action-angle" else 1] = G
        traj = Trajectory(times, states, np.ones(n), chart)
        if data.draw(st.booleans()):
            traj.events.append((times[-1], "domain-exit"))
        events, expect = ref_measure(traj, make_spec())
        _measure(traj, make_spec())
        assert traj.events == events
        assert summary(traj) == expect
        assert type(traj.squeezes) is int


class TestTimeRescaling:
    def test_orbits_coincide_as_point_sets(self):
        # flows of u_hat and of e_hat on the (G, g) cylinder trace the same
        # curves up to time reparametrization
        from scipy.integrate import solve_ivp
        from scipy.spatial import cKDTree

        from perilib.potentials import e_hat, f_eps_bundle, u_hat

        eps, Lam = 0.3, 1.0
        h = 1e-5

        def rhs_u(t, z):
            G, g = z
            dG = (u_hat(eps, Lam, G + h, g) - u_hat(eps, Lam, G - h, g)) / (2 * h)
            dg = (u_hat(eps, Lam, G, g + h) - u_hat(eps, Lam, G, g - h)) / (2 * h)
            return [-dg, dG]

        def rhs_e(t, z):
            G, g = z
            dG = (e_hat(eps, Lam, G + h, g) - e_hat(eps, Lam, G - h, g)) / (2 * h)
            dg = (e_hat(eps, Lam, G, g + h) - e_hat(eps, Lam, G, g - h)) / (2 * h)
            return [-dg, dG]

        z0 = [0.45, 0.0]
        E0 = e_hat(eps, Lam, *z0)
        omega = f_eps_bundle(eps, E0)[1]
        assert abs(omega) > 1e-3  # rescaling factor nonzero on this level
        # e_hat flow: period ~ small; integrate one loop each
        Te = 12.0
        sole = solve_ivp(rhs_e, (0, Te), z0, rtol=1e-11, atol=1e-11,
                         t_eval=np.linspace(0, Te, 1200))
        Tu = Te / abs(omega)
        solu = solve_ivp(rhs_u, (0, Tu), z0, rtol=1e-11, atol=1e-11,
                         t_eval=np.linspace(0, Tu, 1200))
        A = sole.y.T
        B = solu.y.T
        d1 = np.max(cKDTree(B).query(A)[0])
        d2 = np.max(cKDTree(A).query(B)[0])
        assert max(d1, d2) < 1e-6


class TestEnergyAccounting:
    def test_trajectory_reports_drift(self):
        spec = make_spec(1)
        st = SecularState(0.1, 0.3, 30.0, 0.4)
        traj = integrate(spec, st, 50.0, step_ctrl=StepControl(1e-10, 1e-10))
        assert traj.energy_drift < 1e-8
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)


class TestZeroDuration:
    @pytest.mark.parametrize("index, state, T", [
        (1, SecularState(0.1, 0.2, 50.0, 0.3), 0.0),
        (2, ActionAngleState(0.9, 0.3, 10.0, 2.0), 0.0),
        (1, SecularState(0.1, 0.2, 50.0, 0.3), -0.0),
        (2, ActionAngleState(0.9, 0.3, 10.0, 2.0), -0.0),
    ], ids=["1-state0", "2-state1", "1-state0-minus-zero", "2-state1-minus-zero"])
    def test_one_sample_at_the_start_state(self, monkeypatch, index, state, T):
        spec = make_spec(index)
        monkeypatch.setattr(rk, "solve", no_step)
        traj = integrate(spec, state, T)
        Z = state.as_array()[None]
        assert traj.chart == state.chart
        assert traj.times.tobytes() == np.zeros(1).tobytes()
        assert np.array_equal(traj.states, Z)
        assert np.array_equal(traj.energies, chart_named(state.chart).energies(spec, Z))
        assert traj.events == [] and traj.energy_drift == 0.0
        assert summary(traj) == (0.0, 0, 0.0)

    @pytest.mark.parametrize("state", [
        SecularState(0.1, 2.0, 100.0, 0.0),
        ActionAngleState(0.5, 0.1, 10.0, 7.0),
    ])
    def test_start_outside_domain_rejected(self, state):
        with pytest.raises(DomainError):
            integrate(make_spec(1), state, 0.0)


@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
def test_non_finite_duration_rejected_before_a_step(monkeypatch, T):
    monkeypatch.setattr(rk, "solve", no_step)
    with pytest.raises(ValueError, match="must be finite"):
        integrate(make_spec(1), SecularState(0.1, 0.2, 50.0, 0.3), T)


@pytest.mark.parametrize("T", [-1.0, -5e-324])
def test_negative_duration_rejected_before_a_step(monkeypatch, T):
    # every run goes forward from t = 0
    monkeypatch.setattr(rk, "solve", no_step)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        integrate(make_spec(1), SecularState(0.1, 0.2, 50.0, 0.3), T)


class TestDomainContract:
    @pytest.mark.parametrize("chart, state", [
        ("secular", SecularState(0.1, 2.0, 100.0, 0.0)),
        ("secular", SecularState(np.nan, 0.1, 100.0, 0.0)),
        ("action-angle", ActionAngleState(1.2, 0.1, 10.0, np.pi)),
        ("action-angle", ActionAngleState(0.5, 0.1, 10.0, 7.0)),
    ])
    def test_start_outside_domain_rejected(self, chart, state):
        # the state's class carries its chart
        assert state.chart == chart
        with pytest.raises(DomainError):
            integrate(make_spec(1), state, 10.0)

    def test_other_chart_name_is_type_error(self):
        # the chart argument is gone: the old call form is rejected
        st = ActionAngleState(0.9, 0.3, 10.0, 2.0)
        with pytest.raises(TypeError):
            integrate(make_spec(1), st, 5.0, "secular")

    def test_bare_sequence_is_type_error(self):
        with pytest.raises(TypeError, match="SecularState or ActionAngleState"):
            integrate(make_spec(1), [0.1, 0.0, 100.0, 0.0], 5.0)

    def test_trajectory_carries_the_state_chart(self):
        st = ActionAngleState(0.4, 0.7, 10.0, 2.5)
        traj = integrate(make_spec(2), st, 5.0)
        assert traj.chart == "action-angle"
        assert np.array_equal(traj.states[0], st.as_array())

    def test_leaving_domain_is_integration_error(self):
        # loose tolerances let the radius overshoot through zero
        st = SecularState(0.1, 0.0, 100.0, 0.0)
        with pytest.raises(IntegrationError, match="left the domain"):
            integrate(make_spec(1), st, 20000.0, step_ctrl=StepControl(1e-3, 1e-3))


def test_singular_locus_mid_run_is_an_integration_error():
    # the secular body falls in from r = 1 until eps = 0.49975 at t = 1,
    # where f_eps needs more than N_MAX nodes
    spec = HamiltonianSpec(1, 1.0, 1e-3, derive_mass_params(1.0, 1.0))
    with pytest.raises(IntegrationError, match="needs more than N_MAX") as info:
        integrate(spec, SecularState(-100.0, 0.0, 1.0, 0.0), 1.0)
    assert isinstance(info.value.__cause__, SingularLocusError)


def test_singular_locus_in_the_sample_energies_is_an_integration_error(monkeypatch):
    # the run steps on the gradient; the start's own energy, taken before a
    # step, passes, and only the samples' energies fail
    chart = hamiltonians.CHARTS["secular"]

    def energies_at(spec, Z, r):
        if len(Z) == 1:
            return chart.energies_at(spec, Z, r)
        raise SingularLocusError("f_eps past N_MAX")

    monkeypatch.setitem(hamiltonians.CHARTS, "secular",
                        dataclasses.replace(chart, energies_at=energies_at))
    with pytest.raises(IntegrationError, match="a sample left the domain: f_eps past N_MAX"):
        integrate(make_spec(1), SecularState(0.1, 0.2, 50.0, 0.3), 1.0)


@pytest.mark.parametrize("T", [0.0, 1.0])
@pytest.mark.parametrize("state", [
    SecularState(1e200, 0.0, 100.0, 0.0),
    SecularState(1e155, 0.0, 100.0, 0.0),
], ids=["R-1e200", "R-1e155"])
def test_start_of_non_finite_energy_is_a_domain_error(monkeypatch, state, T):
    # R^2/2m0 past the float range: refused before a step, without a warning
    monkeypatch.setattr(rk, "solve", no_step)
    with pytest.raises(DomainError, match="has energy inf"):
        integrate(make_spec(1), state, T)


@pytest.mark.parametrize("index, state, cause", [
    (1, SecularState(0.1, 0.0, 1e160, 0.0), OverflowError),
    (2, ActionAngleState(0.9, 0.3, 1e120, 2.5), OverflowError),
], ids=["secular-r-1e160", "action-angle-y-1e120"])
def test_overflow_in_the_field_is_an_integration_error(index, state, cause):
    # the start's energy is finite, its gradient overflows in floats
    with pytest.raises(IntegrationError, match="at t=0") as info:
        integrate(make_spec(index), state, 1.0)
    assert type(info.value.__cause__) is cause


def test_step_controller_arithmetic_is_an_integration_error():
    # a slope of 1e150 makes the starting step's scaled norm inf, so the
    # first trial step is 0 and the controller divides by it
    with pytest.raises(IntegrationError, match="step controller") as info:
        integrate(make_spec(1), SecularState(1e150, 0.0, 100.0, 0.0), 1.0)
    assert type(info.value.__cause__) is ZeroDivisionError


def test_sample_energy_not_finite_is_an_integration_error(monkeypatch):
    chart = hamiltonians.CHARTS["secular"]

    def energies_at(spec, Z, r):
        E = chart.energies_at(spec, Z, r)
        if len(Z) > 1:
            E[-1] = np.inf
        return E

    monkeypatch.setitem(hamiltonians.CHARTS, "secular",
                        dataclasses.replace(chart, energies_at=energies_at))
    with pytest.raises(IntegrationError, match="energy is not finite"):
        integrate(make_spec(1), SecularState(0.1, 0.2, 50.0, 0.3), 1.0)


@pytest.mark.parametrize("index, state, T", [
    (1, SecularState(0.1, 0.3, 30.0, 0.4), 50.0),
    (2, ActionAngleState(0.4, 0.7, 10.0, 2.5), 5.0),
])
def test_energies_are_one_stacked_call(index, state, T):
    # the start's energy, taken before the run, is the stacked call's first row
    spec = make_spec(index)
    traj = integrate(spec, state, T)
    expect = chart_named(state.chart).energies(spec, traj.states)
    assert traj.energies.tobytes() == expect.tobytes()


def test_step_size_failure_is_an_integration_error(monkeypatch):
    # rk.solve's status -1: the step size fell below the float spacing
    solve = rk.solve

    def too_small(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), status=-1,
                                   message=rk.TOO_SMALL_STEP)

    monkeypatch.setattr(rk, "solve", too_small)
    with pytest.raises(IntegrationError, match="spacing between numbers"):
        integrate(make_spec(1), SecularState(0.1, 0.2, 50.0, 0.3), 1.0)


class TestDomainExitSample:
    """A domain exit's own sample comes last, unless a grid sample lies at
    its time.  r rises from 100 along M0."""

    STATE = SecularState(0.1, 0.0, 100.0, 0.0)

    # the second exit comes before the second grid sample: state0 alone,
    # then the exit
    @pytest.mark.parametrize("T, r_exit", [(200.0, 110.0), (200.0, 100.001)])
    def test_exit_between_grid_samples_adds_one_sample(self, T, r_exit):
        spec = make_spec(1)
        traj = integrate(spec, self.STATE, T, domain_guard=lambda z: r_exit - z[2])
        grid = np.linspace(0.0, T, 2000)
        n = len(traj.times) - 1
        assert 0 < n < len(grid)
        assert np.array_equal(traj.times[:n], grid[:n])
        t_exit = traj.times[-1]
        assert grid[n - 1] < t_exit < grid[n]
        assert abs(traj.states[-1, 2] - r_exit) < 1e-9
        assert (t_exit, "domain-exit") in traj.events
        assert traj.energies.shape == (n + 1,)

    def test_exit_on_a_grid_sample_adds_none(self, monkeypatch):
        # a flow cannot be steered onto a grid time, so the run's Solution
        # is crafted: cut at sample 1000, its stop at that sample's time
        solve = rk.solve

        def exit_on_the_grid(*args, **kwargs):
            sol = solve(*args, **kwargs)
            return dataclasses.replace(sol, times=sol.times[:1001], states=sol.states[:1001],
                                       status=1, message=rk.MESSAGES[1],
                                       t_stop=sol.times[1000], y_stop=sol.states[1000])

        monkeypatch.setattr(rk, "solve", exit_on_the_grid)
        traj = integrate(make_spec(1), self.STATE, 200.0, domain_guard=lambda z: 1.0)
        grid = np.linspace(0.0, 200.0, 2000)
        assert np.array_equal(traj.times, grid[:1001])
        assert traj.states.shape == (1001, 4)
        assert (grid[1000], "domain-exit") in traj.events


class TestScaleLaw:
    """A flow at (m0, Lambda) is the m0 = Lambda = 1 flow seen through a
    scale map.  With a = Lambda^2/m0^3, (R, G, r, g) -> (R Lambda/m0^3,
    G/Lambda, r/a, g) and (Gcal, gamma, y, x) -> (Gcal/Lambda, gamma,
    y/Lambda, x) take H to m0^5/Lambda^2 times the unit Hamiltonian, so
    time runs m0^5/Lambda^3 times faster in the unit problem.  This checks
    every per-spec constant of the gradient kernels and of the energies at
    once: a wrong power of m0 or Lambda moves the flow or its energies by
    far more than the bounds."""

    # unit-problem starts drawn as perfbench's evolve jobs draw theirs, and
    # the unit durations
    STARTS = {
        "secular": (SecularState, ((-0.05, 0.05), (-0.6, 0.6), (80.0, 150.0), (-np.pi, np.pi))),
        "action-angle": (ActionAngleState,
                         ((-0.6, 0.6), (-np.pi, np.pi), (9.0, 13.0), (np.pi - 1, np.pi + 1))),
    }
    DURATION = 150.0
    # largest relative differences over 120 starts drawn at seeds that
    # played no part in writing this test (4301-4320 and 5000-5099): states
    # 6.3e-11 of each column's largest value and energies 1.1e-11 of the
    # largest energy in the secular chart, whose r ~ 100 a columns set the
    # steps apart; 1.2e-14 and 1.7e-15 in the action-angle chart
    BOUNDS = {"secular": (3e-10, 5e-11), "action-angle": (1e-13, 1e-14)}

    @staticmethod
    def to_unit(chart, m0, Lam):
        if chart == "secular":
            return np.array([Lam / m0**3, 1 / Lam, m0**3 / Lam**2, 1.0])
        return np.array([1 / Lam, 1.0, 1 / Lam, 1.0])

    @pytest.mark.parametrize("m0, Lam", [(0.7, 1.6), (2.0, 0.5)])
    @pytest.mark.parametrize("index", [1, 2])
    @pytest.mark.parametrize("chart", ["secular", "action-angle"])
    def test_dop853_flow_scales(self, chart, index, m0, Lam):
        cls, box = self.STARTS[chart]
        rng = np.random.default_rng(4301)
        z1 = np.array([rng.uniform(lo, hi) for lo, hi in box])
        M = self.to_unit(chart, m0, Lam)
        z = z1 / M
        rate = m0**5 / Lam**3
        masses = derive_mass_params(1.0, 1.0, "jacobi")
        ctrl = StepControl(1e-12, 1e-12, "DOP853")
        scaled = integrate(HamiltonianSpec(index, m0, Lam, masses), cls(*z),
                           self.DURATION / rate, step_ctrl=ctrl)
        unit = integrate(HamiltonianSpec(index, 1.0, 1.0, masses), cls(*(z * M)),
                         self.DURATION, step_ctrl=ctrl)
        state_bound, energy_bound = self.BOUNDS[chart]
        np.testing.assert_allclose(scaled.times * rate, unit.times, rtol=1e-15, atol=1e-13)
        col_scale = np.abs(unit.states).max(axis=0)
        assert np.max(np.abs(scaled.states * M - unit.states) / col_scale) < state_bound
        energies = scaled.energies * Lam**2 / m0**5
        assert (np.max(np.abs(energies - unit.energies)) / np.max(np.abs(unit.energies))
                < energy_bound)
