import numpy as np
import pytest

from perilib.coords import ActionAngleState, SecularState, derive_mass_params
from perilib.dynamics import (
    SECULAR_PAIRS,
    IntegrationError,
    StepControl,
    Trajectory,
    _annotate_events,
    detect_libration,
    integrate,
    integrate_flow,
)
from perilib.hamiltonians import DomainError, HamiltonianSpec
from perilib.potentials import SingularLocusError


def make_spec(index=1):
    return HamiltonianSpec(index, 1.0, 1.0, derive_mass_params(1.0, 1.0, "jacobi"))


class TestHarness:
    def test_harmonic_oscillator_period_and_drift(self):
        # harness-only test Hamiltonian (R^2 + r^2)/2 in the (R, r) pair;
        # energy receives the (n, 4) stack of samples
        energy = lambda Z: 0.5 * (Z[:, 0] ** 2 + Z[:, 2] ** 2)
        grad = lambda z: np.array([z[0], 0.0, z[2], 0.0])
        crossings = []

        def rising_R(t, z):
            return z[0]

        rising_R.direction = 1.0
        times, states, energies, sol = integrate_flow(
            energy,
            grad,
            np.array([0.0, 0.0, 1.0, 0.0]),
            4.0 * np.pi,
            StepControl(rtol=1e-12, atol=1e-12),
            events=[rising_R],
            pairs=SECULAR_PAIRS,
        )
        # period = spacing of consecutive same-direction zero crossings of R
        period = sol.t_events[0][-1] - sol.t_events[0][-2]
        assert abs(period - 2 * np.pi) < 1e-8
        drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
        assert drift < 1e-10


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
        traj = Trajectory(t, states, np.ones_like(t), "action-angle")
        spec = make_spec()
        winding, _, drift = detect_libration(traj, spec)
        assert abs(winding - 2 * np.pi) < 1e-9
        assert drift == 0.0

    def test_squeeze_synthetic(self):
        # G(t) = cos t on [0, 2 pi] -> two sign changes
        t = np.linspace(0, 2 * np.pi, 200)
        states = np.zeros((t.size, 4))
        states[:, 1] = np.cos(t)
        traj = Trajectory(t, states, np.ones_like(t), "secular")
        _, squeezes, _ = detect_libration(traj, make_spec())
        assert squeezes == 2

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
        traj = Trajectory(t, states, np.ones_like(t), "secular")
        _annotate_events(traj, make_spec())
        assert traj.events == [(s, "squeeze") for s in times]
        assert detect_libration(traj, make_spec())[1] == len(times)

    def test_squeeze_through_gcal_at_lambda(self):
        # in the action-angle chart G = sqrt(max(0, Lambda^2 - Gcal^2)) cos
        # gamma is exactly 0 at |Gcal| >= Lambda, which the libration guard
        # admits up to Lambda + 1e-12
        rows = [(0.9, 0.1)] * 5 + [(1.0, 1.0), (1.0 + 1e-13, 2.0)] + [(0.9, 3.0)] * 5
        states = np.array([[gc, gam, 500.0, 3.0] for gc, gam in rows])
        t = np.arange(len(rows), dtype=float)
        traj = Trajectory(t, states, np.ones_like(t), "action-angle")
        _annotate_events(traj, make_spec())
        assert traj.events == [(5.0, "squeeze")]
        assert detect_libration(traj, make_spec())[1] == 1

    def test_short_trajectory_rejected(self):
        t = np.linspace(0, 1, 5)
        traj = Trajectory(t, np.zeros((5, 4)), np.ones(5), "secular")
        with pytest.raises(ValueError):
            detect_libration(traj, make_spec())


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


def test_singular_locus_in_the_sample_energies_is_an_integration_error():
    def energy(Z):
        raise SingularLocusError("f_eps past N_MAX")

    with pytest.raises(IntegrationError, match="f_eps past N_MAX"):
        integrate_flow(energy, lambda z: np.zeros(4), np.ones(4), 1.0)
