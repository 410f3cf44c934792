"""Profile, assumption-check, and certificate arithmetic tests.

Hand-evaluated oracle values are written out explicitly so a reviewer can
reproduce them with a pocket calculator.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piezobeam import (
    BeamParams,
    DelayProfile,
    WeightProfiles,
    build_certificate,
    validate_assumptions,
)
from piezobeam import params
from piezobeam.errors import ProfileEvaluationError
from piezobeam.params import XI_BAR


def test_beam_params_alpha1():
    b = BeamParams(rho=1.0, alpha=2.0, gamma=1.0, mu=1.0, beta=1.0, length=1.0)
    assert b.alpha1 == 1.0


def test_beam_params_rejects_nonpositive():
    with pytest.raises(ValueError):
        BeamParams(rho=0.0)
    with pytest.raises(ValueError):
        BeamParams(gamma=-0.1)
    # reduced stiffness must stay positive
    with pytest.raises(ValueError):
        BeamParams(alpha=1.0, gamma=2.0, beta=1.0)


def test_beam_params_allows_decoupled():
    b = BeamParams(gamma=0.0)
    assert b.alpha1 == b.alpha


class TestValidateAssumptions:
    def test_constant_delay_margins(self):
        delay = DelayProfile(kind="constant", mean=0.5, tau0=0.4, tau_bar=0.6, d=0.0)
        weights = WeightProfiles(delta0=1.0, beta0=0.0, d1_kind="constant",
                                 d1_floor=1.0)
        rep = validate_assumptions(delay, weights)
        assert all(c.passed for c in rep.values())
        assert abs(rep["delay_lower_bound"].margin - 0.1) < 1e-12
        assert abs(rep["delay_upper_bound"].margin - 0.1) < 1e-12

    def test_constant_ratio_pass_and_fail(self):
        delay = DelayProfile(kind="constant", mean=0.5, tau0=0.4, tau_bar=0.6,
                             d=0.19)
        # delta1 = 1, delta2 = 0.5: ratio bound needs beta0 >= 0.5 and
        # beta0 < sqrt(1 - 0.19) = 0.9
        mk = lambda b0: WeightProfiles(delta0=1.0, beta0=b0, d2_kind="constant",
                                       d2_value=0.5)
        assert validate_assumptions(delay, mk(0.5))["delay_weight_ratio"].passed
        assert not validate_assumptions(delay, mk(0.4))["delay_weight_ratio"].passed
        assert not validate_assumptions(delay, mk(0.95))["delay_weight_ratio"].passed

    def test_sinusoid_slope_violation(self):
        # tau(t) = 0.5 + 0.3 sin(2t): sup tau' = 0.6, declared d = 0.5 fails
        delay = DelayProfile(kind="sinusoid", mean=0.5, amplitude=0.3,
                             omega=2.0, tau0=0.2, tau_bar=0.8, d=0.5)
        weights = WeightProfiles()
        rep = validate_assumptions(delay, weights)
        check = rep["delay_slope_bound"]
        assert not check.passed
        # dense-sampling oracle for sup 0.6 cos(2t)
        ts = np.linspace(0.0, 40.0, 200001)
        sup = float(np.max(0.3 * 2.0 * np.cos(2.0 * ts)))
        assert abs(check.margin - (0.5 - sup)) < 1e-6
        assert check.margin < -0.09

    def test_nonpositive_tau0_fails(self):
        delay = DelayProfile(kind="constant", mean=0.5, tau0=0.0, tau_bar=0.6)
        rep = validate_assumptions(delay, WeightProfiles())
        assert not rep["delay_lower_bound"].passed

    def test_undamped_profile_passes_vacuous_checks(self):
        delay = DelayProfile(kind="constant", mean=0.5, tau0=0.4, tau_bar=0.6)
        weights = WeightProfiles(delta0=0.0, d1_floor=0.0)
        rep = validate_assumptions(delay, weights)
        # floor check fails (delta0 must be > 0) but nothing divides by zero
        assert not rep["damping_floor"].passed
        assert rep["damping_log_derivative"].passed

    @pytest.mark.parametrize("samples", [2, 3, 17, 4096])
    def test_safe_preset_passes_any_density(self, samples, certified_scenario,
                                            monkeypatch):
        # the critical times carry the extrema, not the sampling grid
        monkeypatch.setattr(params, "SAMPLES", samples)
        rep = validate_assumptions(certified_scenario.delay,
                                   certified_scenario.weights)
        assert all(c.passed for c in rep.values())


def _cert(beta0, d, tau_bar=0.6, delta0=1.0, **overrides):
    """build_certificate on a constant delay tau_bar with slope bound d,
    delta1 = delta0 and delta2 = 0, so the arithmetic sees exactly these
    bounds; overrides are its xi_bar and lam."""
    delay = DelayProfile(kind="constant", mean=tau_bar, tau0=tau_bar,
                         tau_bar=tau_bar, d=d)
    weights = WeightProfiles(delta0=delta0, beta0=beta0, d1_floor=delta0)
    return build_certificate(delay, weights, **overrides)


class TestSelectXiBar:
    """The delay-energy weight build_certificate selects: XI_BAR."""

    def test_symmetric_interval_midpoint(self):
        assert XI_BAR == 1.0
        assert _cert(0.0, 0.0).xi_bar == 1.0

    def test_reference_interval(self):
        # interval (0.3/0.9, 2 - 0.3/0.9) = (1/3, 5/3)
        lo = 0.3 / math.sqrt(1.0 - 0.19)
        assert abs(lo - 1.0 / 3.0) < 1e-12
        xi = _cert(0.3, 0.19).xi_bar
        assert lo < xi < 2.0 - lo
        assert xi == 1.0

    def test_boundary_infeasible(self):
        cert = _cert(0.9, 0.19)
        assert not cert.valid
        assert math.isnan(cert.xi_bar)
        assert cert.diagnostics[-1] == (
            "beta0=0.9 >= sqrt(1-d)=0.9: no admissible delay-energy weight")

    @given(d=st.floats(0.0, 0.95), frac=st.floats(0.0, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_always_interior_with_margin(self, d, frac):
        beta0 = frac * math.sqrt(1.0 - d)
        xi = _cert(beta0, d).xi_bar
        lo = beta0 / math.sqrt(1.0 - d)
        assert xi - lo >= 1e-9
        assert (2.0 - lo) - xi >= 1e-9


class TestSelectLambda:
    """The kernel rate build_certificate derives when lam is not given."""

    def test_reference_value(self):
        lam = _cert(0.3, 0.19, tau_bar=0.6).lam
        assert abs(lam - math.log(3.0) / 1.2) < 1e-15

    def test_no_delay_weight_cap(self):
        assert _cert(0.0, 0.0, tau_bar=0.6).lam == 10.0

    def test_near_boundary_small_positive(self):
        lam = _cert(0.899, 0.19, tau_bar=1.0).lam
        assert abs(lam - 0.5 * math.log(0.9 / 0.899)) < 1e-15
        assert 0 < lam < 1e-3

    @given(d=st.floats(0.0, 0.9), frac=st.floats(1e-6, 0.999),
           tau_bar=st.floats(0.1, 5.0), delta0=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_c2_critical_rate_bracketing(self, d, frac, tau_bar, delta0):
        beta0 = frac * math.sqrt(1.0 - d)
        cert = _cert(beta0, d, tau_bar, delta0)
        assert cert.c2 > 0
        assert _cert(beta0, d, tau_bar, delta0, lam=2.0 * cert.lam).c2 <= 1e-12


class TestCertificateConstants:
    """C1..C3 of build_certificate at a fixed xi_bar = 1 and lam."""

    def test_no_delay_reference(self):
        cert = _cert(0.0, 0.0, tau_bar=0.5, lam=1.0)
        assert abs(cert.c1 - 0.5) < 1e-15
        assert abs(cert.c2 - math.exp(-0.5) / 2.0) < 1e-15
        assert abs(cert.c3 - 0.5) < 1e-15
        assert cert.valid and cert.diagnostics == ()

    def test_certified_reference(self):
        lam = math.log(3.0) / 1.2
        cert = _cert(0.3, 0.19, tau_bar=0.6, lam=lam)
        # C1 = 1 - 1/6 - 1/2 = 1/3
        assert abs(cert.c1 - 1.0 / 3.0) < 1e-15
        # e^{-lam tau_bar} = sqrt(0.3/0.9) = 1/sqrt(3) by construction of lam
        c2 = 0.81 * (math.exp(-lam * 0.6) / 2.0 - 1.0 / 6.0)
        assert abs(cert.c2 - c2) < 1e-15
        assert abs(cert.c2 - 0.0988) < 5e-5
        assert abs(cert.c3 - lam / 2.0) < 1e-15

    def test_double_rate_kills_c2(self):
        lam = _cert(0.3, 0.19, tau_bar=0.6).lam
        cert = _cert(0.3, 0.19, tau_bar=0.6, lam=2.0 * lam)
        assert cert.c2 <= 0
        assert not cert.valid
        assert cert.diagnostics == ("dissipation_constant_C2_nonpositive",)

    @given(b_lo=st.floats(0.0, 0.8), b_hi=st.floats(0.0, 0.8))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_beta0(self, b_lo, b_hi):
        if b_lo > b_hi:
            b_lo, b_hi = b_hi, b_lo
        lo = _cert(b_lo, 0.19, tau_bar=0.6, lam=0.5)
        hi = _cert(b_hi, 0.19, tau_bar=0.6, lam=0.5)
        assert hi.c1 <= lo.c1 + 1e-15
        assert hi.c2 <= lo.c2 + 1e-15


class TestBuildCertificate:
    def test_certified_pipeline(self, certified_scenario):
        cert = build_certificate(certified_scenario.delay,
                                 certified_scenario.weights)
        assert cert.valid
        assert cert.diagnostics == ()
        lam = math.log(3.0) / 1.2
        assert cert.xi_bar == 1.0
        assert abs(cert.lam - lam) < 1e-15
        assert abs(cert.c1 - 1.0 / 3.0) < 1e-15
        assert cert.c == min(cert.c1, cert.c2, cert.c3)

    def test_infeasible_ratio_diagnostic(self):
        delay = DelayProfile(kind="sinusoid", mean=0.5, amplitude=0.1,
                             omega=1.8, tau0=0.4, tau_bar=0.6, d=0.19)
        weights = WeightProfiles(delta0=1.0, beta0=0.95, d2_kind="cosine",
                                 d2_ratio=0.95, d2_omega=1.0)
        cert = build_certificate(delay, weights)
        assert not cert.valid
        assert "delay_weight_ratio" in cert.diagnostics
        assert math.isnan(cert.xi_bar)

    @pytest.mark.parametrize("d", [1.0, 1.5, -0.1])
    @pytest.mark.parametrize("overrides", [
        {}, {"xi_bar": 1.0}, {"lam": 0.5}, {"xi_bar": 1.0, "lam": 0.5}])
    def test_slope_bound_outside_unit_interval_is_data(self, d, overrides):
        # every path, overrides included, checks 0 <= d < 1 before any
        # sqrt(1 - d); nothing is raised
        cert = _cert(0.3, d, **overrides)
        assert not cert.valid
        assert cert.diagnostics[-2:] == ("delay_weight_ratio",
                                         f"need 0 <= d < 1, got d={d}")
        assert all(math.isnan(v) for v in (cert.xi_bar, cert.lam, cert.c))

    def test_xi_bar_override_bounds_beta0(self):
        # a derived lam needs beta0 < xi_bar * sqrt(1-d) = 0.5 * 0.9
        cert = _cert(0.5, 0.19, xi_bar=0.5)
        assert not cert.valid
        assert cert.diagnostics[-1] == ("beta0=0.5 >= xi_bar*sqrt(1-d)=0.45: "
                                        "no admissible delay-energy weight")
        # a given lam skips it: the constants are reported, not NaN
        cert = _cert(0.5, 0.19, xi_bar=0.5, lam=0.1)
        assert cert.xi_bar == 0.5 and cert.lam == 0.1
        assert cert.c2 <= 0 < cert.c3

    @pytest.mark.parametrize("tau_bar", [0.0, -0.5])
    @pytest.mark.parametrize("overrides", [{}, {"xi_bar": 1.0}])
    def test_nonpositive_tau_bar_with_derived_lambda_is_data(self, tau_bar,
                                                             overrides):
        # the derived lam divides by tau_bar
        cert = _cert(0.3, 0.19, tau_bar=tau_bar, **overrides)
        assert not cert.valid
        assert "delay_upper_bound" in cert.diagnostics
        assert cert.diagnostics[-1] == f"need tau_bar > 0, got {tau_bar}"
        assert all(math.isnan(v) for v in (cert.xi_bar, cert.lam, cert.c))

    @pytest.mark.parametrize("lam,tau_bar,c2", [
        (-2000.0, 0.6, math.inf), (0.5, -2000.0, math.inf),
        (-1.0, 0.6, 0.81 * (math.exp(0.6) / 2.0 - 1.0 / 6.0))])
    def test_given_lambda_past_exp_range_is_data(self, lam, tau_bar, c2):
        # exp(-lam * tau_bar) overflows for the first two; the constants
        # stay reported, as for any given lam
        cert = _cert(0.3, 0.19, tau_bar=tau_bar, lam=lam)
        assert not cert.valid
        assert cert.lam == lam and cert.c2 == pytest.approx(c2, rel=1e-15)
        if lam < 0:
            assert "dissipation_constant_C3_nonpositive" in cert.diagnostics
        else:
            assert "delay_lower_bound" in cert.diagnostics

    def test_increasing_damping_diagnostic(self):
        delay = DelayProfile(kind="constant", mean=0.5, tau0=0.4, tau_bar=0.6)
        weights = WeightProfiles(delta0=1.0, beta0=0.0, d1_kind="exp_floor",
                                 d1_floor=1.0, d1_excess=-0.5, d1_rate=0.25,
                                 M1=1.0)
        cert = build_certificate(delay, weights)
        assert not cert.valid
        assert "damping_monotone" in cert.diagnostics


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _finite_profiles(draw):
    """Delay and weight profiles of every kind, each float field any finite
    value."""
    kind = draw(st.sampled_from(["constant", "sinusoid", "table"]))
    table = {}
    if kind == "table":
        ts = sorted(draw(st.lists(FINITE, min_size=2, max_size=4,
                                  unique=True)))
        table = {"table_t": ts, "table_tau": draw(
            st.lists(FINITE, min_size=len(ts), max_size=len(ts)))}
    delay = DelayProfile(
        kind=kind, **table,
        **{name: draw(FINITE)
           for name in ("tau0", "tau_bar", "d", "mean", "amplitude",
                        "omega")})
    weights = WeightProfiles(
        d1_kind=draw(st.sampled_from(["constant", "exp_floor"])),
        d2_kind=draw(st.sampled_from(["zero", "constant", "cosine"])),
        **{name: draw(FINITE)
           for name in ("delta0", "beta0", "M1", "M2", "d1_floor",
                        "d1_excess", "d1_rate", "d2_value", "d2_ratio",
                        "d2_omega")})
    return delay, weights


@given(profiles=_finite_profiles(), xi_bar=st.none() | FINITE,
       lam=st.none() | FINITE)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
# once an np.arange of 1e155 critical times, then omega**2's OverflowError
@example(profiles=(DelayProfile(kind="sinusoid", omega=1.4e154),
                   WeightProfiles()), xi_bar=None, lam=None)
def test_build_certificate_never_raises_on_finite_fields(profiles, xi_bar,
                                                         lam):
    delay, weights = profiles
    try:
        cert = build_certificate(delay, weights, xi_bar=xi_bar, lam=lam)
    except ProfileEvaluationError:
        # the one documented error: a profile evaluated to inf or nan,
        # which profiles that return their own fields never do
        assert not (delay.kind == weights.d1_kind == "constant"
                    and weights.d2_kind != "cosine")
        return
    assert cert.valid == (cert.diagnostics == ())
    assert not cert.valid or cert.c > 0


def test_subnormal_omega_sinusoid_has_critical_time_zero():
    # pi / (2 omega) is inf, a step that np.arange cannot size
    delay = DelayProfile(kind="sinusoid", mean=0.5, amplitude=0.1,
                         omega=5e-324, tau0=0.4, tau_bar=0.6)
    assert delay.critical_times(40.0).tolist() == [0.0]
    assert build_certificate(delay, WeightProfiles()).valid


def test_fast_sinusoid_critical_times_span_one_period():
    # about 2.5e8 peaks lie in [0, 40]; the first period's repeat them all
    delay = DelayProfile(kind="sinusoid", mean=0.5, amplitude=0.1,
                         omega=1e7, tau0=0.4, tau_bar=0.6)
    crit = delay.critical_times(40.0)
    assert crit.tolist() == [k * (math.pi / 2e7) for k in range(5)]
    start = time.perf_counter()
    cert = build_certificate(delay, WeightProfiles())
    assert time.perf_counter() - start < 5.0
    assert "delay_slope_bound" in cert.diagnostics


WEIGHT_CHECKS = ("damping_floor", "damping_monotone", "damping_log_derivative",
                 "delay_weight_ratio", "delay_weight_derivative")
CERTIFIED_WEIGHTS = WeightProfiles(
    delta0=1.0, beta0=0.3, M1=0.1, M2=0.35, d1_kind="exp_floor",
    d1_floor=1.0, d1_excess=0.5, d1_rate=0.25, d2_kind="cosine",
    d2_ratio=0.3, d2_omega=1.0)


def test_weight_checks_ignore_the_delays_critical_times():
    # a weight-only bound is sampled where the weights peak, never where the
    # delay does: a table vertex at 12.5 pi must not move its margin
    bounds = dict(tau0=0.4, tau_bar=0.6, d=0.19)
    table = DelayProfile(kind="table", table_t=(0.0, 12.5 * math.pi, 40.0),
                         table_tau=(0.5, 0.5, 0.5), **bounds)
    constant = DelayProfile(kind="constant", mean=0.5, **bounds)
    got = validate_assumptions(table, CERTIFIED_WEIGHTS)
    want = validate_assumptions(constant, CERTIFIED_WEIGHTS)
    for name in WEIGHT_CHECKS:
        assert (got[name].margin, got[name].worst_t) == (
            want[name].margin, want[name].worst_t), name


def test_cosine_delay_weight_critical_times_span_one_period():
    assert CERTIFIED_WEIGHTS.critical_times(40.0).tolist() == [
        k * (math.pi / 2.0) for k in range(5)]
    assert CERTIFIED_WEIGHTS.critical_times(2.0).tolist() == [0.0, math.pi / 2]
    for weights in (WeightProfiles(), WeightProfiles(d2_kind="constant"),
                    WeightProfiles(d2_kind="cosine", d2_omega=0.0)):
        assert weights.critical_times(40.0).size == 0


def test_delay_profile_table_round_trip():
    ts = np.linspace(0.0, 10.0, 101)
    vals = 0.5 + 0.05 * np.sin(ts)
    delay = DelayProfile(kind="table", table_t=ts, table_tau=vals, tau0=0.4,
                         tau_bar=0.6, d=0.1)
    assert abs(float(delay.tau(3.3)) - np.interp(3.3, ts, vals)) < 1e-15


def test_weight_profiles_cosine_derivative():
    w = WeightProfiles(delta0=1.0, beta0=0.3, d1_kind="exp_floor",
                       d1_floor=1.0, d1_excess=0.5, d1_rate=0.25,
                       d2_kind="cosine", d2_ratio=0.3, d2_omega=1.0)
    # finite-difference cross-check of the analytic derivatives
    h = 1e-6
    for t in (0.0, 0.7, 3.1):
        fd1 = (w.delta1(t + h) - w.delta1(t - h)) / (2 * h)
        assert abs(fd1 - w.delta1_prime(t)) < 1e-7
        fd2 = (w.delta2(t + h) - w.delta2(t - h)) / (2 * h)
        assert abs(fd2 - w.delta2_prime(t)) < 1e-7


def test_table_delay_vertex_sampled():
    # the vertex t=20 falls between the 4096 uniform samples on [0, 40], and
    # tau exceeds tau_bar only there
    delay = DelayProfile(kind="table", table_t=[0.0, 20.0, 40.0],
                         table_tau=[0.5, 0.6 + 1e-7, 0.5],
                         tau0=0.4, tau_bar=0.6, d=0.19)
    cert = build_certificate(delay, WeightProfiles())
    assert not cert.valid
    assert "delay_upper_bound" in cert.diagnostics
    upper = cert.assumptions["delay_upper_bound"]
    assert upper.worst_t == 20.0
    assert upper.margin == pytest.approx(-1e-7, rel=1e-6)
    assert cert.assumptions == validate_assumptions(delay, WeightProfiles())


def test_table_delay_slope_per_segment():
    # tau rises with slope 0.4 > d on [10, 11]; averaging the slopes at the
    # vertices (0.2 each) would hide it
    delay = DelayProfile(kind="table", table_t=[0, 10, 11, 21],
                         table_tau=[0.5, 0.5, 0.9, 0.9],
                         tau0=0.4, tau_bar=1.0, d=0.38)
    assert delay.tau_prime(10.0) == pytest.approx(0.4)
    assert np.array_equal(delay.tau_prime([-1.0, 9.0, 11.0, 21.0, 30.0]),
                          np.zeros(5))
    assert np.array_equal(delay.tau_second([0.0, 10.0, 10.5]), np.zeros(3))
    cert = build_certificate(delay, WeightProfiles(), horizon=21.0)
    assert not cert.valid
    slope = cert.assumptions["delay_slope_bound"]
    assert slope.margin == pytest.approx(-0.02)
    assert slope.worst_t == 10.0


def test_table_delay_times_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        DelayProfile(kind="table", table_t=[0, 20, 10, 30],
                     table_tau=[0.5, 0.5, 0.9, 0.5],
                     tau0=0.4, tau_bar=1.0, d=0.38)


def test_table_delay_lengths_must_match():
    with pytest.raises(ValueError, match="one value per time"):
        DelayProfile(kind="table", table_t=[0, 10, 20], table_tau=[0.5, 0.5],
                     tau0=0.4, tau_bar=0.6, d=0.1)


@pytest.mark.parametrize("cls,name", [
    (BeamParams, "rho"), (BeamParams, "gamma"), (DelayProfile, "tau0"),
    (DelayProfile, "d"), (WeightProfiles, "beta0"), (WeightProfiles, "M1"),
    (DelayProfile, "table_t"), (DelayProfile, "table_tau"),
])
@pytest.mark.parametrize("value", [
    "0.4", None, True, math.inf, -math.inf, math.nan,
    pytest.param(10**400, id="int-beyond-float-range")])
def test_float_field_must_be_a_number(cls, name, value):
    # a table field holds one number per entry; check one bad entry
    table = name.startswith("table")
    # inf, nan and an int too large for a float are numbers, not finite ones
    error, what = ((TypeError, "a number")
                   if isinstance(value, (str, bool, type(None)))
                   else (ValueError, "finite"))
    with pytest.raises(error, match=f"{cls.__name__}.{name} must be {what}"):
        cls(**{name: (0.0, value) if table else value})
    # integers and numpy scalars are numbers
    one = np.int64(1)
    assert getattr(cls(**{name: (one,) if table else one}), name) == (
        (1.0,) if table else 1)
