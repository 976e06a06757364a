import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perilib.potentials as potentials
from perilib.coords import (
    X_COLLISION,
    ActionAngleState,
    SecularState,
    derive_mass_params,
    gg_forward,
    radial_radius,
    rr_forward,
    rr_forward_with_jacobian,
)
from perilib.hamiltonians import (
    DomainError,
    HamiltonianSpec,
    _one_row,
    aa_perturbation_at,
    chart_named,
    check_domain,
    gradient,
    h_action_angle,
    h_secular,
    v_radial,
)
from perilib.potentials import e_hat, e_hat_aa


def ref_h_secular(spec, state):
    """The scalar energy loop of the secular chart, one f_eps call per term,
    as it stood before the energies took stacks of states."""
    R, G, r, g = state.R, state.G, state.r, state.g
    m0 = spec.m0
    eps = spec.eps_of_r(r)
    val = R**2 / (2 * m0) + G**2 / (2 * m0 * r**2)
    for c, s in spec.terms():
        es = s * eps
        val -= c * (m0**2 / r) * potentials.f_eps(es, e_hat(es, spec.Lambda, G, g))
    if spec.index == 2:
        b, bb = spec.masses.beta, spec.masses.beta_bar
        val -= b / (b + bb) * m0**2 / r
    return val


def ref_h_action_angle(spec, state):
    """The scalar energy loop of the action-angle chart: one scalar Kepler
    solve and one f_eps_minus_one call per term."""
    Gc, gam, y, x = state.Gcal, state.gamma, state.y, state.x
    m0, Lam = spec.m0, spec.Lambda
    _, r, _, _ = rr_forward_with_jacobian(m0, y, x)
    eps = spec.eps_of_r(r)
    pert = eps * (Lam**2 - Gc**2) / (2 * Lam**2) * np.cos(gam) ** 2
    for c, s in spec.terms():
        es = s * eps
        pert -= c * potentials.f_eps_minus_one(es, e_hat_aa(es, Lam, Gc, gam))
    return -(m0**5) / (2 * y**2) + (m0**2 / r) * pert


def ref_v_radial(spec, r):
    """V1 and V2 on G = g = 0, written out term by term as v_radial's
    docstring stated them before it summed over the spec's terms."""
    m0, a = spec.m0, spec.a
    b, bb = spec.masses.beta, spec.masses.beta_bar
    tot, sr = b + bb, np.sqrt(r)
    s1 = np.sqrt(r - 2 * (b if spec.index == 1 else tot) * a)
    if spec.index == 1:
        s2 = np.sqrt(r + 2 * bb * a)
        return (-(bb / tot) * 2 * m0**2 / (s1 * (sr + s1))
                - (b / tot) * 2 * m0**2 / (s2 * (sr + s2)))
    return -(bb / tot) * 2 * m0**2 / (s1 * (sr + s1)) - (b / tot) * m0**2 / r


def ref_grad_fd(spec, state, step=1e-6):
    """Central differences of the energy in the state's chart, with relative
    step step: the oracle of the analytic gradient."""
    energy = lambda z: chart_named(state.chart).energies(spec, z[None])[0]
    z = state.as_array()
    steps = step * np.maximum(1.0, np.abs(z))
    return np.array([(energy(z + dz) - energy(z - dz)) / (2 * h)
                     for dz, h in zip(np.diag(steps), steps)])


def pert_of(spec, z):
    """The action-angle perturbation at one (Gcal, gamma, y, x) row, as the
    stacked energies compute it: r from the array Kepler solve."""
    Gc, gam, y, x = np.asarray(z, dtype=float)[None].T
    return aa_perturbation_at(spec, Gc, gam, radial_radius(spec.m0, y, x))[0]


def make_spec(index=1, mu=1.0, kappa=1.0, frame="jacobi", m0=1.0, Lambda=1.0):
    return HamiltonianSpec(index, m0, Lambda, derive_mass_params(mu, kappa, frame))


class TestSecular:
    def test_reduces_to_radial_potential_on_M0(self):
        for index in (1, 2):
            spec = make_spec(index)
            for r in (8.0, 12.0, 30.0):
                st = SecularState(0.4, 0.0, r, 0.0)
                expect = st.R**2 / (2 * spec.m0) + v_radial(spec, r)
                assert abs(h_secular(spec, st) - expect) < 1e-10

    def test_large_r_asymptotics(self):
        spec = make_spec(1)
        r = 1e5
        st = SecularState(0.2, 0.5, r, 1.1)
        kepler_like = st.R**2 / 2 + st.G**2 / (2 * r**2) - 1.0 / r
        # the correction is O(eps/r) = O(1/r^2)
        assert abs(h_secular(spec, st) - kepler_like) < 10.0 / r**2

    def test_even_in_G_and_g(self):
        spec = make_spec(2)
        rng = np.random.default_rng(0)
        for _ in range(100):
            R = rng.uniform(-1, 1)
            G = rng.uniform(-0.99, 0.99)
            r = rng.uniform(8, 40)
            g = rng.uniform(-np.pi, np.pi)
            v = h_secular(spec, SecularState(R, G, r, g))
            assert abs(v - h_secular(spec, SecularState(R, -G, r, g))) < 1e-14
            assert abs(v - h_secular(spec, SecularState(R, G, r, -g))) < 1e-14

    def test_f_eps_call_count(self, monkeypatch):
        # one f_eps quadrature call per averaged-potential term
        calls = {"n": 0}
        orig = potentials.f_eps_minus_one_grid

        def counting(*a, **k):
            calls["n"] += 1
            return orig(*a, **k)

        monkeypatch.setattr(potentials, "f_eps_minus_one_grid", counting)
        h_secular(make_spec(1), SecularState(0.1, 0.3, 10.0, 0.5))
        assert calls["n"] == 2
        calls["n"] = 0
        h_secular(make_spec(2), SecularState(0.1, 0.3, 10.0, 0.5))
        assert calls["n"] == 1

    def test_zero_G_removes_centrifugal_term(self):
        # embodiment of |y'|^2 = R^2 + G^2/r^2: with G = 0 the energy is the
        # purely radial one at any g on the invariant manifolds
        spec = make_spec(1)
        a = h_secular(spec, SecularState(0.3, 0.0, 9.0, 0.0))
        assert abs(a - (0.3**2 / 2 + v_radial(spec, 9.0))) < 1e-10


class TestRadialPotential:
    def test_asymptotic_coulomb(self):
        spec = make_spec(1)
        for r in (1e4, 1e6):
            assert abs(v_radial(spec, r) * r + spec.m0**2) < 50.0 / r

    def test_divergence_at_branch_radius(self):
        spec = make_spec(1)
        b = spec.masses.beta
        r_branch = 2 * b * spec.a
        vals = [v_radial(spec, r_branch * (1 + d)) for d in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < -1e2

    def test_monotone_increasing(self):
        for index in (1, 2):
            spec = make_spec(index)
            branch = 2 * (spec.masses.beta if index == 1 else spec.masses.beta
                          + spec.masses.beta_bar) * spec.a
            rs = np.geomspace(branch * 1.001, branch * 1e3, 60)
            vals = [v_radial(spec, r) for r in rs]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert all(v < 0 for v in vals)

    def test_rejects_below_branch(self):
        spec = make_spec(2)
        with pytest.raises(DomainError):
            v_radial(spec, 2 * (spec.masses.beta + spec.masses.beta_bar) * spec.a)

    @settings(max_examples=150, deadline=None)
    @given(index=st.sampled_from([1, 2]), frame=st.sampled_from(["jacobi", "m0centric"]),
           mu=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 20.0)),
           kappa=st.floats(0.05, 20.0), m0=st.floats(0.5, 2.0), Lam=st.floats(0.5, 2.0),
           over=st.floats(1.05, 1e3))
    def test_matches_secular_energy_and_closed_forms(self, index, frame, mu, kappa, m0,
                                                     Lam, over):
        # mu != 1 makes beta != beta_bar, so a swap of two weights shows; r
        # above 2 beta^* a keeps every |s eps| < 1/2, f_eps's domain
        spec = make_spec(index, mu, kappa, frame, m0, Lam)
        r = over * 2 * spec.beta_upper * spec.a
        v = v_radial(spec, r)
        assert abs(h_secular(spec, SecularState(0.0, 0.0, r, 0.0)) - v) <= 1e-14 * abs(v)
        ref = ref_v_radial(spec, r)
        assert abs(v - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("over", [1.01, 1.5, 2.9])
    def test_defined_down_to_the_branch_radius(self, over):
        # index 1 with bbar = 3 b: the branch radius 2 b a lies below
        # 2 bbar a, where the closed form still holds though f_eps's
        # quadrature domain |s eps| < 1/2 has ended
        spec = make_spec(1, mu=3.0)
        assert spec.branch_radius == 2 * spec.masses.beta * spec.a
        r = over * spec.branch_radius
        ref = ref_v_radial(spec, r)
        assert abs(v_radial(spec, r) - ref) <= 1e-14 * abs(ref)


class TestActionAngle:
    def test_consistency_with_secular(self):
        rng = np.random.default_rng(9)
        for index in (1, 2):
            spec = make_spec(index)
            for _ in range(25):
                Gc = rng.uniform(0.3, 0.999)
                gam = rng.uniform(-np.pi, np.pi)
                y = rng.uniform(3.0, 6.0)
                x = rng.uniform(0.6, 2 * np.pi - 0.6)
                aa = ActionAngleState(Gc, gam, y, x)
                R, r = rr_forward(spec.m0, y, x)
                G, g = gg_forward(spec.Lambda, Gc, gam)
                sec = SecularState(R, G, r, g)
                assert abs(
                    h_action_angle(spec, aa) - h_secular(spec, sec)
                ) < 1e-10

    def test_chart_center_matches_radial(self):
        spec = make_spec(1)
        y, x = 4.0, 2.0
        aa = ActionAngleState(spec.Lambda, 0.9, y, x)
        R, r = rr_forward(spec.m0, y, x)
        expect = R**2 / (2 * spec.m0) + v_radial(spec, r)
        assert abs(h_action_angle(spec, aa) - expect) < 1e-10

    def test_apoapsis_large_y_asymptotics(self):
        spec = make_spec(1)
        y = 50.0
        aa = ActionAngleState(0.8, 0.4, y, np.pi)
        h0 = -spec.m0**5 / (2 * y**2)
        # r = 2 y^2 so the perturbation is O(eps/r) = O(1/r^2)
        assert abs(h_action_angle(spec, aa) - h0) < 1e-6


class TestGradient:
    def test_dH_dR_is_kinetic(self):
        spec = make_spec(1)
        st = SecularState(0.7, 0.4, 11.0, 0.9)
        grad = gradient(spec, st)
        assert abs(grad[0] - st.R / spec.m0) < 1e-14

    def test_vanishes_on_M0(self):
        for index in (1, 2):
            spec = make_spec(index)
            for g0 in (0.0, np.pi):
                st = SecularState(0.2, 0.0, 10.0, g0)
                grad = gradient(spec, st)
                assert abs(grad[1]) < 1e-12  # dH/dG
                assert abs(grad[3]) < 1e-12  # dH/dg

    def test_secular_analytic_vs_fd(self):
        spec = make_spec(1)
        rng = np.random.default_rng(21)
        for _ in range(50):
            st = SecularState(
                rng.uniform(-1, 1),
                rng.uniform(-0.9, 0.9),
                rng.uniform(8, 30),
                rng.uniform(-np.pi, np.pi),
            )
            ga = gradient(spec, st)
            gf = ref_grad_fd(spec, st)
            scale = np.maximum(np.abs(ga), 1e-3)
            assert np.max(np.abs(ga - gf) / scale) < 1e-6

    def test_action_angle_analytic_vs_fd(self):
        spec = make_spec(2)
        rng = np.random.default_rng(22)
        for _ in range(25):
            st = ActionAngleState(
                rng.uniform(0.3, 0.97),
                rng.uniform(-np.pi, np.pi),
                rng.uniform(3.0, 6.0),
                rng.uniform(0.7, 2 * np.pi - 0.7),
            )
            ga = gradient(spec, st)
            gf = ref_grad_fd(spec, st)
            scale = np.maximum(np.abs(ga), 1e-3)
            assert np.max(np.abs(ga - gf) / scale) < 1e-6


def test_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec(3, 1.0, 1.0, derive_mass_params(1, 1))
    with pytest.raises(ValueError):
        HamiltonianSpec(1, -1.0, 1.0, derive_mass_params(1, 1))


@pytest.mark.parametrize("index, m0, Lam, match", [
    (True, 1.0, 1.0, "index"),
    (False, 1.0, 1.0, "index"),
    (np.True_, 1.0, 1.0, "index"),
    (0, 1.0, 1.0, "index"),
    (1, float("nan"), 1.0, "m0 and Lambda"),
    (1, float("inf"), 1.0, "m0 and Lambda"),
    (1, 1.0, float("inf"), "m0 and Lambda"),
    (2, 1.0, float("nan"), "m0 and Lambda"),
    (2, 1.0, 0.0, "m0 and Lambda"),
    # scales past the float range
    (2, 1.0, 1e-200, "float range"),  # Lambda^2 underflows to 0
    (2, 1e-200, 1.0, "float range"),  # m0^3 underflows to 0, so a divides by zero
    (2, 1e120, 1.0, "float range"),  # m0^3 overflows
    (2, 1.0, 1e200, "float range"),  # Lambda^2 overflows
    (1, 1e70, 1.0, "float range"),  # m0^5 overflows, m0^3 does not
    (1, 1e-60, 1e100, "float range"),  # Lambda^2/m0^3 overflows, each power does not
])
def test_spec_rejects_bad_inputs(index, m0, Lam, match):
    # index=True used to run as index 1, m0 = NaN and Lambda = inf as given;
    # the scales past the float range ended in a ZeroDivisionError or an
    # OverflowError at the first energy, gradient or hypothesis check
    with pytest.raises(ValueError, match=match):
        HamiltonianSpec(index, m0, Lam, derive_mass_params(1, 1))


@settings(max_examples=100, deadline=None)
@given(index=st.sampled_from([1, 2]), frame=st.sampled_from(["jacobi", "m0centric"]),
       mu=st.floats(min_value=1e-3, max_value=1e3), kappa=st.floats(min_value=1e-3, max_value=1e4),
       m0=st.floats(min_value=0.1, max_value=10.0), Lam=st.floats(min_value=0.1, max_value=10.0),
       r=st.floats(min_value=1e-3, max_value=1e6))
def test_spec_constants_are_their_closed_forms(index, frame, mu, kappa, m0, Lam, r):
    masses = derive_mass_params(mu, kappa, frame)
    spec = HamiltonianSpec(index, m0, Lam, masses)
    b, bb = masses.beta, masses.beta_bar
    tot = b + bb
    if index == 1:
        terms, weight = [(bb / tot, b), (b / tot, -bb)], 0.0
        beta_star, beta_upper = b * bb / (b + bb), max(b, bb)
    else:
        terms, weight = [(bb / tot, b + bb)], b / tot
        beta_star, beta_upper = bb, b + bb
    a = Lam**2 / m0**3
    for _ in range(2):  # the first call computes, the second reads the cache
        assert list(spec.terms()) == terms
        assert spec.a == a
        assert spec.eps_of_r(r) == a / r
        assert (spec.bare_weight, spec.beta_star, spec.beta_upper) == (
            weight, beta_star, beta_upper)
        assert spec.branch_radius == 2 * (b if index == 1 else b + bb) * a
    # the caches are no fields: a used spec equals and hashes as a fresh one
    fresh = HamiltonianSpec(index, m0, Lam, masses)
    assert spec == fresh and hash(spec) == hash(fresh)
    assert len({spec, fresh}) == 1
    assert spec != HamiltonianSpec(3 - index, m0, Lam, masses)


class TestStackedEnergies:
    """Chart energies on (n, 4) stacks against the scalar loops kept above."""

    def draw(self, rng, chart, n):
        if chart == "secular":
            cols = (rng.uniform(-1, 1, n), rng.uniform(-0.99, 0.99, n),
                    rng.uniform(8, 60, n), rng.uniform(-np.pi, np.pi, n))
        else:
            cols = (rng.uniform(-0.99, 0.99, n), rng.uniform(-np.pi, np.pi, n),
                    rng.uniform(3.0, 12.0, n), rng.uniform(0.6, 2 * np.pi - 0.6, n))
        return np.column_stack(cols)

    @pytest.mark.parametrize("chart", ["secular", "action-angle"])
    @pytest.mark.parametrize("index", [1, 2])
    def test_match_scalar_loop(self, chart, index):
        spec = make_spec(index)
        ref, cls = ((ref_h_secular, SecularState) if chart == "secular"
                    else (ref_h_action_angle, ActionAngleState))
        # 150 rows through one f_eps_minus_one_grid call per term
        Z = self.draw(np.random.default_rng(30 + index), chart, 150)
        got = chart_named(chart).energies(spec, Z)
        expect = np.array([ref(spec, cls(*z)) for z in Z])
        assert got.shape == (150,)
        assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-15
        one = h_secular if chart == "secular" else h_action_angle
        assert [one(spec, cls(*z)) for z in Z[:5]] == list(got[:5])

    @pytest.mark.parametrize("chart, state", [
        ("secular", SecularState(0.02, 0.3, 30.0, 0.4)),
        ("action-angle", ActionAngleState(0.4, 0.7, 10.0, 2.5)),
    ])
    def test_flow_sample_energies_match_scalar_loop(self, chart, state):
        # integrate records the energies of all its samples in one call
        from perilib.dynamics import StepControl, integrate

        spec = make_spec(2)
        traj = integrate(spec, state, 40.0, step_ctrl=StepControl(1e-10, 1e-10))
        ref, cls = ((ref_h_secular, SecularState) if chart == "secular"
                    else (ref_h_action_angle, ActionAngleState))
        expect = np.array([ref(spec, cls(*z)) for z in traj.states])
        assert np.max(np.abs(traj.energies - expect) / np.abs(expect)) <= 1e-15

    def test_aa_perturbation_is_the_one_state_case(self):
        spec = make_spec(2)
        Z = self.draw(np.random.default_rng(33), "action-angle", 4)
        whole = chart_named("action-angle").energies(spec, Z)
        for z, E in zip(Z, whole):
            pert = pert_of(spec, z)
            assert -(spec.m0**5) / (2 * (z[2] * z[2])) + pert == E

    @settings(max_examples=100, deadline=None)
    @given(index=st.sampled_from([1, 2]),
           rows=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-np.pi, np.pi),
                                   st.floats(3.0, 12.0),
                                   st.floats(0.6, 2 * np.pi - 0.6)),
                         min_size=2, max_size=6),
           pick=st.integers(0, 5))
    # y**2 of a numpy scalar is libm pow, 0x1.832c644960eeap+3 here, while
    # energies squares as y * y, 0x1.832c644960ee9p+3: the reference squares
    # as the library does
    @example(index=1, rows=[(0.0, 0.0, 3.4783859639413492, 1.0), (0.0, 0.0, 3.0, 1.0)],
             pick=0)
    def test_one_state_is_its_row_of_the_stack(self, index, rows, pick):
        # the one-state Kepler solve runs the float loop, the stack the
        # array loop: the bits must agree
        spec = make_spec(index)
        Z = np.array(rows)
        z = Z[pick % len(rows)]
        E = chart_named("action-angle").energies(spec, Z)[pick % len(rows)]
        state = ActionAngleState(*z)
        assert float(h_action_angle(spec, state)).hex() == float(E).hex()
        pert = pert_of(spec, z)
        assert float(-(spec.m0**5) / (2 * (z[2] * z[2])) + pert).hex() == float(E).hex()
        # the sparse mesh of the normal form: Gcal, gamma, y and x each along
        # their own axis, r from (y, x); the kernel on the broadcast arrays
        # is the stack kernel on the raveled mesh, bit for bit
        Gc, gam, y, x = (Z[:, i].reshape(np.roll((-1, 1, 1, 1), i)) for i in range(4))
        got = aa_perturbation_at(spec, Gc, gam, radial_radius(spec.m0, y, x))
        stack = np.stack([a.ravel() for a in np.broadcast_arrays(Gc, gam, y, x)], axis=1)
        assert got.shape == (len(rows),) * 4
        expect = aa_perturbation_at(spec, stack[:, 0], stack[:, 1],
                                    radial_radius(spec.m0, stack[:, 2], stack[:, 3]))
        assert got.tobytes() == expect.reshape(got.shape).tobytes()

    def test_kernel_guards_kept(self):
        spec = make_spec(1)
        with pytest.raises(DomainError):
            chart_named("secular").energies(spec, np.array([[0.1, 0.3, 10.0, 0.5],
                                                          [0.1, 0.3, -1.0, 0.5]]))
        # the outer body next to the collision (x -> 0): a guard fires on
        # the stack as on the single state
        near = [0.5, 0.1, 4.0, 1e-21]
        with pytest.raises(ValueError):
            ref_h_action_angle(spec, ActionAngleState(*near))
        with pytest.raises(ValueError):
            chart_named("action-angle").energies(spec, np.array([[0.5, 0.1, 4.0, 2.0], near]))


class TestChartFromState:
    """The state's class decides the chart; the other chart's state is a
    TypeError naming the expected class."""

    SEC = SecularState(0.1, 0.3, 10.0, 2.0)
    AA = ActionAngleState(0.9, 0.3, 10.0, 2.0)

    def test_h_secular_rejects_action_angle_state(self):
        with pytest.raises(TypeError, match="SecularState"):
            h_secular(make_spec(1), self.AA)

    def test_h_action_angle_rejects_secular_state(self):
        with pytest.raises(TypeError, match="ActionAngleState"):
            h_action_angle(make_spec(1), self.SEC)

    def test_aa_perturbation_rejects_secular_state(self):
        # the one-state action-angle path takes its row through _one_row,
        # which checks the class before any kernel runs
        with pytest.raises(TypeError, match="ActionAngleState"):
            _one_row(self.SEC, ActionAngleState)

    def test_gradient_rejects_a_chart_argument(self):
        # the chart comes from the state: the old call form with the other
        # chart's name is rejected instead of misreading the state
        with pytest.raises(TypeError):
            gradient(make_spec(1), self.SEC, "action-angle")
        with pytest.raises(TypeError):
            gradient(make_spec(1), self.AA, "secular")

    @pytest.mark.parametrize("bad", [[0.1, 0.3, 10.0, 2.0], np.array([0.1, 0.3, 10.0, 2.0])])
    def test_gradient_rejects_bare_arrays(self, bad):
        with pytest.raises(TypeError, match="SecularState or ActionAngleState"):
            gradient(make_spec(1), bad)

    def test_energies_rejects_unknown_chart_name(self):
        with pytest.raises(ValueError, match="chart must be"):
            chart_named("polar")


class TestDomain:
    @pytest.mark.parametrize("state", [
        SecularState(0.1, 1.0, 100.0, 0.0),
        SecularState(0.0, -1.0, 1e-3, 3.0),
        ActionAngleState(1.0, 0.3, 10.0, np.pi),
        ActionAngleState(-0.5, 0.3, 1e-3, 1.01 * X_COLLISION),
    ])
    def test_accepts_domain_edges(self, state):
        check_domain(make_spec(1), state)

    @pytest.mark.parametrize("state", [
        SecularState(0.1, 2.0, 100.0, 0.0),
        SecularState(np.nan, 0.1, 100.0, 0.0),
        SecularState(0.1, 0.1, 100.0, np.inf),
        SecularState(0.1, 0.1, np.nan, 0.0),
        ActionAngleState(1.5, 0.3, 10.0, np.pi),
        ActionAngleState(0.5, 0.3, -10.0, np.pi),
        ActionAngleState(0.5, 0.3, 10.0, 2 * np.pi),
        ActionAngleState(0.5, 0.3, 10.0, 0.0),
        ActionAngleState(0.5, np.nan, 10.0, np.pi),
        ActionAngleState(-0.5, 0.3, 1e-3, 1e-9),
        ActionAngleState(0.5, 0.3, 10.0, 2 * np.pi - 1e-9),
    ])
    def test_rejects_outside(self, state):
        with pytest.raises(DomainError):
            check_domain(make_spec(1), state)
