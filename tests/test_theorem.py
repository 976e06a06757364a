import json
import re

import numpy as np
import pytest

from perilib import theorem
from perilib.coords import ActionAngleState, derive_mass_params
from perilib.hamiltonians import HamiltonianSpec
from perilib.kepler import estimate_c0
from perilib.theorem import (
    check_libration_theorem,
    holomorphy_width_constant,
    run_libration_experiment,
)

# experiment family: equal light masses, m0-centric reduction, index 2
EPS0 = 0.25
DELTA = 0.025
S0 = 1.0
ALPHA_MINUS = 2.0e4
ALPHA_PLUS = 3.2e5
BETA_BAR = 3000.0
C_LOWER = 5e-8  # documented surrogate; the statement's constants are unknown


def experiment_spec():
    # kappa solving kappa^2 (1+mu)/(mu^2 (1+kappa)) = BETA_BAR at mu = 1
    kappa = (BETA_BAR + np.sqrt(BETA_BAR**2 + 8 * BETA_BAR)) / 4
    masses = derive_mass_params(1.0, kappa, "m0centric")
    assert abs(masses.beta_bar - BETA_BAR) < 1e-6
    return HamiltonianSpec(2, 1.0, 1.0, masses)


def experiment_report(spec=None, **overrides):
    spec = spec or experiment_spec()
    kw = dict(
        eps0=EPS0,
        delta=DELTA,
        s0=S0,
        alpha_minus=ALPHA_MINUS,
        alpha_plus=ALPHA_PLUS,
        c_lower=C_LOWER,
    )
    kw.update(overrides)
    return check_libration_theorem(spec, **kw)


class TestChecker:
    def test_constructed_parameters_pass(self):
        report = experiment_report()
        failed = [iq.label for iq in report.inequalities if not iq.holds]
        assert report.passed, failed
        assert report.N0 > 100
        assert report.eta < 1

    @pytest.mark.parametrize("eps0", [0.0, -1.0, 1.0, 1.2, 1.5, 1e100, 1e130, np.nan],
                             ids=["0", "-1", "1", "1.2", "1.5", "1e100", "1e130", "nan"])
    def test_eps0_outside_zero_one_refused_before_the_c0_scan(self, eps0, monkeypatch):
        # these used to give a report with the eps0 rows failed and c0 NaN
        # (not strict JSON), or, where eps0**2.5 overflowed, the range error
        def no_scan(*args):
            raise AssertionError("c0 was scanned")

        monkeypatch.setattr(theorem, "estimate_c0", no_scan)
        with pytest.raises(ValueError, match=re.escape("eps0=%r lies outside (0, 1)" % eps0)):
            experiment_report(eps0=eps0)

    def test_large_beta_upper_fails_domain_inequality(self):
        # monotone in beta*: blowing up the masses must break the clearance
        masses = derive_mass_params(1.0, 1e9, "m0centric")
        spec = HamiltonianSpec(2, 1.0, 1.0, masses)
        report = experiment_report(spec)
        by_label = {iq.label: iq for iq in report.inequalities}
        assert not by_label["outer-orbit-keeps-clear (Kepler domain)"].holds
        assert not report.passed

    def test_report_serializes(self):
        d = experiment_report().as_dict()
        assert d["pass"] is True
        assert {"label", "lhs", "rhs", "holds"} <= set(d["inequalities"][0])

    def test_holomorphy_constant(self):
        assert abs(holomorphy_width_constant(0.0) - 16.0) < 1e-12
        assert holomorphy_width_constant(1.0) > 16.0

    def test_failure_is_data_not_error(self):
        report = experiment_report(delta=0.3)  # above Lambda/4
        assert not report.passed

    @pytest.mark.parametrize("alpha_minus, alpha_plus", [
        (ALPHA_MINUS, 1e308),  # alpha_plus^3 and the ratio's 3/2 power overflow
        (1e-300, ALPHA_PLUS),  # the ratio's 3/2 power overflows
        (-ALPHA_MINUS, ALPHA_PLUS),  # the ratio's 3/2 power is complex
    ], ids=["alpha-plus-1e308", "alpha-minus-1e-300", "alpha-minus-negative"])
    def test_alphas_past_the_float_range_rejected(self, alpha_minus, alpha_plus):
        # these used to end in an OverflowError
        with pytest.raises(ValueError, match="alpha_minus=.* and alpha_plus="):
            experiment_report(alpha_minus=alpha_minus, alpha_plus=alpha_plus)

    @pytest.mark.parametrize("overrides", [
        {"c_lower": 5e-324},  # inv_N0 underflows to 0, so N0 = 1/inv_N0 is inf
        {"s0": 1e-320},  # the angle branch overflows: N0 = 0, eta = inf
        {"delta": 1e-320},  # the same through delta
        {"s0": 800.0},  # math.cosh(s0) overflows
        {"s0": 5e-324},  # s0 * delta rounds to 0 under Lambda / (s0 delta)
    ], ids=["c-lower-5e-324", "s0-1e-320", "delta-1e-320", "s0-800", "s0-5e-324"])
    def test_derived_quantities_past_the_float_range_rejected(self, overrides):
        # these used to give a report with N0, eta or T at 0 or inf, after a
        # RuntimeWarning, or (the last two) to raise an OverflowError or a
        # ZeroDivisionError
        with pytest.raises(ValueError, match="c_lower=.*, s0=.* and delta="):
            experiment_report(**overrides)

    def test_report_same_on_a_c0_miss_and_hit(self):
        estimate_c0.cache_clear()
        miss = experiment_report().as_dict()
        assert estimate_c0.cache_info().misses == 1
        hit = experiment_report().as_dict()
        assert estimate_c0.cache_info().hits == 1
        assert hit == miss
        assert json.dumps(hit) == json.dumps(miss)


@pytest.fixture(scope="module")
def outcome():
    spec = experiment_spec()
    report = experiment_report(spec)
    state0 = ActionAngleState(
        spec.Lambda - DELTA / 8, 0.3, 2 * np.sqrt(ALPHA_MINUS) * 1.025, np.pi
    )
    return spec, report, run_libration_experiment(spec, report, state0)


class TestLibrationExperiment:
    def test_winding_exceeds_two_pi(self, outcome):
        _, _, (traj, summary) = outcome
        assert summary.winding >= 2 * np.pi

    def test_at_least_two_squeezes(self, outcome):
        _, _, (_, summary) = outcome
        assert summary.squeezes >= 2

    def test_squeeze_events_match_count(self, outcome):
        # the event annotation and the summary count sign changes of G alike
        _, _, (traj, summary) = outcome
        assert sum(kind == "squeeze" for _, kind in traj.events) == summary.squeezes

    def test_Gcal_drift_within_layer(self, outcome):
        _, report, (_, summary) = outcome
        assert summary.Gcal_drift <= report.params["delta"] / 2

    def test_outer_body_keeps_clear(self, outcome):
        _, _, (_, summary) = outcome
        assert summary.r_min > summary.collision_radius

    def test_energy_conserved(self, outcome):
        _, _, (traj, _) = outcome
        assert traj.energy_drift < 1e-8

    def test_gating_on_failed_report(self):
        spec = experiment_spec()
        report = experiment_report(spec, delta=0.3)  # above Lambda/4
        with pytest.raises(ValueError):
            run_libration_experiment(
                spec, report, ActionAngleState(1.0, 0.0, 300.0, np.pi)
            )

    def test_initial_window_enforced(self):
        spec = experiment_spec()
        report = experiment_report(spec)
        with pytest.raises(ValueError):
            run_libration_experiment(
                spec, report, ActionAngleState(1.0 - DELTA / 8, 0.3, 300.0, 1.0)
            )
