"""Energy components, Lyapunov functionals, multiplier choice, and decay fits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piezobeam import (
    BeamParams,
    DelayProfile,
    Grid,
    HistoryBuffer,
    SimState,
    SpatialOperator,
    StabilityCertificate,
    WeightProfiles,
    energy,
    energy_dissipation_check,
    fit_decay_rate,
    init_history,
    lyapunov_equivalence,
    lyapunov_k1,
    lyapunov_k2,
    lyapunov_k3,
    select_multipliers,
)
from piezobeam.diagnostics import (
    Multipliers,
    default_poincare_constant,
    multiplier_inequalities,
)
from piezobeam.errors import (
    InsufficientDataError,
    MultiplierSearchError,
    UndefinedRatioError,
)
from piezobeam.solver import COLUMNS, Trajectory, initial_state

BEAM = BeamParams(rho=1.0, alpha=2.0, gamma=1.0, mu=1.0, beta=1.0, length=1.0)
NO_DELAY = DelayProfile(kind="constant", mean=0.5, tau0=0.4, tau_bar=0.6)
NULL_CERT = StabilityCertificate(0.0, 0.0, 0.0, 0.0, 0.0, valid=False)


def _state(x, v=None, vt=None, p=None, pt=None):
    """Fields at t = 0, zero unless given: all that K1-K3 read."""
    z = np.zeros_like(x)
    pick = lambda f: z.copy() if f is None else np.asarray(f, dtype=float)
    return SimState(0.0, pick(v), pick(vt), pick(p), pick(pt), None, None)


def _hist(grid, vt0, dt=0.01):
    """A history for one state, at t = 0 with NO_DELAY's tau = 0.5."""
    return init_history(HistoryBuffer(dt, grid.weights, [0.0], [0.5], 0),
                        vt0)


def _zero_hist(grid):
    return _hist(grid, np.zeros(grid.n))


def _row(state, hist, beam=BEAM):
    """energy() of the state run() builds from state's fields, with
    NO_DELAY's tau = 0.5 and delta1 = 1, keyed by column name."""
    op = SpatialOperator(beam, Grid(len(state.v), beam.length))
    state = initial_state(state[1:5], hist, op, False)
    return dict(zip(COLUMNS, energy(state, hist, op, 0, 1.0, NULL_CERT,
                                    None)))


class TestEnergy:
    def test_zero_state(self):
        g = Grid(101, 1.0)
        rep = _row(_state(g.x), _zero_hist(g))
        assert rep["E"] == 0.0
        for name in ("kinetic_v", "kinetic_p", "elastic", "coupling",
                     "delay_term"):
            assert rep[name] == 0.0

    def test_unit_velocity_kinetic(self):
        # rho = 2, vt = 1 on a unit beam, no delay weight: E = (2/2) * 1 = 1
        beam = BeamParams(rho=2.0, alpha=2.0, gamma=1.0, mu=1.0, beta=1.0,
                          length=1.0)
        g = Grid(101, 1.0)
        hist = _hist(g, np.ones(g.n))
        rep = _row(_state(g.x, vt=np.ones(g.n)), hist, beam)
        assert abs(rep["kinetic_v"] - 1.0) < 1e-14
        assert abs(rep["E"] - 1.0) < 1e-14

    def test_fourier_mode_vs_reference_quadrature(self):
        # elastic and coupling of v = sin(pi x / 2L), p = 0 against a
        # 10^4-point reference quadrature
        g = Grid(2001, 1.0)
        v = np.sin(math.pi * g.x / 2.0)
        rep = _row(_state(g.x, v=v), _zero_hist(g))
        xs = np.linspace(0.0, 1.0, 10001)
        vx = (math.pi / 2.0) * np.cos(math.pi * xs / 2.0)
        elastic_ref = 0.5 * BEAM.alpha1 * np.trapezoid(vx**2, xs)
        coupling_ref = 0.5 * BEAM.beta * np.trapezoid((BEAM.gamma * vx)**2, xs)
        assert abs(rep["elastic"] - elastic_ref) / elastic_ref < 1e-6
        assert abs(rep["coupling"] - coupling_ref) / coupling_ref < 1e-6

    def test_components_nonnegative_random_states(self):
        rng = np.random.default_rng(11)
        g = Grid(101, 1.0)
        hist = _zero_hist(g)
        for _ in range(20):
            st = _state(g.x, *(rng.standard_normal(g.n) for _ in range(4)))
            rep = _row(st, hist)
            for name in ("kinetic_v", "kinetic_p", "elastic", "coupling",
                         "delay_term"):
                assert rep[name] >= 0.0
            total = (rep["kinetic_v"] + rep["kinetic_p"] + rep["elastic"]
                     + rep["coupling"] + rep["delay_term"])
            assert rep["E"] == total


class TestLyapunovFunctionals:
    def test_zero_state(self):
        g = Grid(101, 1.0)
        st = _state(g.x)
        assert lyapunov_k1(st, BEAM, g.weights) == 0.0
        assert lyapunov_k2(st, BEAM, g.weights) == 0.0
        assert lyapunov_k3(st, BEAM, g.weights) == 0.0

    def test_k1_polynomial_oracle(self):
        # v = x/L, vt = x/L, pt = 0, rho = 2: K1 = 2 * int x^2 = 2/3
        beam = BeamParams(rho=2.0, alpha=2.0, gamma=1.0, mu=1.0, beta=1.0,
                          length=1.0)
        g = Grid(2001, 1.0)
        st = _state(g.x, v=g.x, vt=g.x)
        assert abs(lyapunov_k1(st, beam, g.weights) - 2.0 / 3.0) < 1e-6

    def test_k1_sign_flip(self):
        g = Grid(101, 1.0)
        st = _state(g.x, v=g.x, vt=g.x**2, pt=np.sin(g.x))
        flipped = _state(g.x, v=-g.x, vt=g.x**2, pt=np.sin(g.x))
        assert abs(lyapunov_k1(st, BEAM, g.weights)
                   + lyapunov_k1(flipped, BEAM, g.weights)) < 1e-14

    def test_k2_vanishes_when_p_proportional(self):
        g = Grid(101, 1.0)
        v = np.sin(g.x)
        st = _state(g.x, v=v, vt=g.x, p=BEAM.gamma * v, pt=g.x**2)
        assert abs(lyapunov_k2(st, BEAM, g.weights)) < 1e-14

    def test_k3_sum_of_squares(self):
        g = Grid(2001, 1.0)
        v = np.sin(g.x)
        p = g.x**2
        st = _state(g.x, v=v, vt=v, p=p, pt=p)
        ref = (BEAM.rho * np.trapezoid(v**2, g.x)
               + BEAM.mu * np.trapezoid(p**2, g.x))
        got = lyapunov_k3(st, BEAM, g.weights)
        assert got >= 0.0
        assert abs(got - ref) / ref < 1e-12

    def test_polynomial_reference_quadrature(self):
        g = Grid(2001, 1.0)
        v, vt = g.x**2, 1.0 - g.x
        p, pt = g.x**3, g.x
        st = _state(g.x, v=v, vt=vt, p=p, pt=pt)
        xs = np.linspace(0.0, 1.0, 10001)
        vr, vtr = xs**2, 1.0 - xs
        pr, ptr = xs**3, xs
        k2_ref = (BEAM.rho * np.trapezoid(vtr * (BEAM.gamma * vr - pr), xs)
                  + BEAM.gamma * BEAM.mu
                  * np.trapezoid(ptr * (BEAM.gamma * vr - pr), xs))
        got = lyapunov_k2(st, BEAM, g.weights)
        assert abs(got - k2_ref) / abs(k2_ref) < 1e-6

    @given(a=st.floats(-10.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_quadratic_scaling(self, a):
        g = Grid(51, 1.0)
        v = np.sin(g.x)
        st = _state(g.x, v=v, vt=g.x, p=g.x**2, pt=g.x**3)
        sc = _state(g.x, v=a * v, vt=a * g.x, p=a * g.x**2, pt=a * g.x**3)
        for func in (lyapunov_k1, lyapunov_k2, lyapunov_k3):
            base = func(st, BEAM, g.weights)
            assert abs(func(sc, BEAM, g.weights) - a**2 * base) <= 1e-12 * max(
                1.0, a**2 * abs(base))


class TestSelectMultipliers:
    def test_closed_form_on_certified_decay(self, certified_scenario):
        # each threshold solved by hand from its own inequalities, written
        # out as criterion 5 writes them, then times 1.01
        pr, w = certified_scenario.beam, certified_scenario.weights
        cert = certified_scenario.certificate
        mult = select_multipliers(pr, w, cert)
        a1, cp, d10 = pr.alpha1, mult.c_prime, float(w.delta1(0.0))
        eps = cp * d10 / a1
        a_coeff = a1 - a1 / 4.0 - w.beta0 * a1 / 4.0
        n3 = 1.01 * 4.0 / pr.beta  # n3 beta - 3 > 1
        # n2 gamma mu / 2 - gamma mu / 4 - n3 mu > 1
        n2 = 1.01 * (1.0 + pr.gamma * pr.mu / 4.0 + n3 * pr.mu) / (
            pr.gamma * pr.mu / 2.0)
        # n1 a - n2^2 a1^2 / 4 + n3 a > 1
        n1 = 1.01 * (1.0 + n2**2 * a1**2 / 4.0 - n3 * a_coeff) / a_coeff
        s1 = (n1 * (pr.rho + n1 * pr.gamma * pr.mu + eps * d10)
              + n2 * (pr.rho * pr.gamma + pr.rho**2 / (pr.gamma * pr.mu)
                      + pr.gamma**3 * pr.mu + n2 * cp * d10**2 / 4.0)
              + n3 * (pr.rho + eps * d10))
        s2 = (n1 * eps * w.beta0 * d10
              + n2 * n2 * cp * w.beta0**2 * d10**2 / 4.0
              + n3 * eps * w.beta0 * d10)
        n = 1.01 * max(1.0 + s1, 1.0 + s2) / cert.c  # c n - s > 1
        assert (mult.n3, mult.n2) == (pytest.approx(4.04, rel=1e-15),
                                      pytest.approx(10.6858, rel=1e-15))
        for got, want in ((mult.n3, n3), (mult.n2, n2), (mult.n1, n1),
                          (mult.n, n)):
            assert got == pytest.approx(want, rel=1e-12)
        assert min(multiplier_inequalities(pr, w, cert, mult)) > 1.0

    def test_substitute_and_check(self, certified_scenario):
        cert = certified_scenario.certificate
        mult = select_multipliers(certified_scenario.beam,
                                  certified_scenario.weights, cert)
        lhs = multiplier_inequalities(certified_scenario.beam,
                                      certified_scenario.weights, cert, mult)
        assert len(lhs) == 5
        assert all(v > 1.0 for v in lhs)

    @given(rho=st.floats(0.2, 5.0), mu=st.floats(0.2, 5.0),
           gamma=st.floats(0.2, 2.0), beta=st.floats(0.2, 5.0),
           alpha1=st.floats(0.05, 5.0), length=st.floats(0.1, 5.0),
           delta1=st.floats(0.0, 5.0), beta0=st.floats(0.0, 0.9),
           cs=st.tuples(*[st.floats(0.01, 5.0)] * 3))
    @settings(max_examples=200, deadline=None)
    def test_each_multiplier_is_just_past_its_threshold(
            self, rho, mu, gamma, beta, alpha1, length, delta1, beta0, cs):
        # every side clears 1, and a multiplier above 1, divided by 1.02,
        # fails its own inequalities given the multipliers found before it
        # (N3, N2, N1, then N): it is within 1.01x of its threshold
        beam = BeamParams(rho=rho, alpha=alpha1 + gamma**2 * beta,
                          gamma=gamma, mu=mu, beta=beta, length=length)
        weights = WeightProfiles(delta0=delta1, beta0=beta0, d1_floor=delta1)
        cert = StabilityCertificate(1.0, 1.0, *cs, valid=True)
        mult = select_multipliers(beam, weights, cert)
        assert all(v > 1.0 for v in multiplier_inequalities(
            beam, weights, cert, mult))
        found = Multipliers(0.0, 0.0, 0.0, 0.0, mult.c_prime)
        for name, own in (("n3", slice(0, 1)), ("n2", slice(1, 2)),
                          ("n1", slice(2, 3)), ("n", slice(3, 5))):
            value = getattr(mult, name)
            assert value >= 1.0
            if value > 1.0:
                below = dataclasses.replace(found, **{name: value / 1.02})
                lhs = multiplier_inequalities(beam, weights, cert, below)
                assert not all(v > 1.0 for v in lhs[own])
            found = dataclasses.replace(found, **{name: value})

    def test_floor_of_one(self, certified_scenario):
        # gamma 5, alpha1 1.32: the v_x inequality already holds at N1 = 0,
        # so its threshold is negative and N1 is the floor, 1
        beam = BeamParams(gamma=5.0, beta=1.0, alpha=26.32, mu=100.0)
        w, cert = certified_scenario.weights, certified_scenario.certificate
        mult = select_multipliers(beam, w, cert)
        assert mult.n1 == 1.0
        at_zero = dataclasses.replace(mult, n1=0.0)
        assert multiplier_inequalities(beam, w, cert, at_zero)[2] > 1.0

    def test_beta0_three_has_no_n1(self, certified_scenario):
        # the v_x coefficient alpha1 (3 - beta0) / 4 is 0: no N1 clears it
        weights = dataclasses.replace(certified_scenario.weights, beta0=3.0)
        with pytest.raises(MultiplierSearchError,
                           match="^the N1 inequalities cannot clear 1"):
            select_multipliers(certified_scenario.beam, weights,
                               certified_scenario.certificate)

    def test_c_prime_interpretation(self):
        assert abs(default_poincare_constant(1.0) - (2.0 / math.pi)**2) < 1e-15

    def test_zero_c_prime_rejected(self, certified_scenario):
        cert = certified_scenario.certificate
        # c' = (2L/pi)^2 underflows to 0 for this L
        beam = dataclasses.replace(certified_scenario.beam, length=1e-200)
        with pytest.raises(MultiplierSearchError, match="Poincare"):
            select_multipliers(beam, certified_scenario.weights, cert)

    def test_invalid_certificate_rejected(self, certified_scenario):
        with pytest.raises(MultiplierSearchError):
            select_multipliers(certified_scenario.beam,
                               certified_scenario.weights, NULL_CERT)


def _fake_trajectory(ts, energies, k1=0.0, k2=0.0, k3=0.0, certificate=None,
                     multipliers=None):
    data = np.zeros((len(ts), len(COLUMNS)))
    for name, col in (("t", ts), ("E", energies), ("K1", k1), ("K2", k2),
                      ("K3", k3), ("L", math.nan)):
        data[:, COLUMNS.index(name)] = col
    return Trajectory(certificate, multipliers,
                      dt=ts[1] - ts[0] if len(ts) > 1 else 1.0,
                      grid=Grid(101, 1.0), data=data)


class TestDecayFit:
    def test_exact_exponential(self):
        ts = np.linspace(0.0, 10.0, 201)
        traj = _fake_trajectory(ts, 5.0 * np.exp(-2.0 * ts))
        fit = fit_decay_rate(traj)
        assert abs(fit.h2 - 2.0) < 1e-10
        assert abs(fit.r_squared - 1.0) < 1e-12
        # E(0) = 5 and the fitted amplitude is 5, so H1 = 1
        assert abs(fit.h1 - 1.0) < 1e-10

    def test_constant_energy(self):
        ts = np.linspace(0.0, 10.0, 101)
        fit = fit_decay_rate(_fake_trajectory(ts, np.full(101, 3.0)))
        assert abs(fit.h2) < 1e-14
        assert fit.r_squared == 1.0

    def test_insufficient_data(self):
        ts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(InsufficientDataError):
            fit_decay_rate(_fake_trajectory(ts, np.exp(-ts)))

    def test_scaling_invariance(self):
        ts = np.linspace(0.0, 10.0, 201)
        e = 5.0 * np.exp(-2.0 * ts)
        a = fit_decay_rate(_fake_trajectory(ts, e))
        b = fit_decay_rate(_fake_trajectory(ts, 7.3**2 * e))
        assert abs(a.h2 - b.h2) < 1e-12
        assert abs(a.h1 - b.h1) < 1e-12


class TestEquivalence:
    def test_pure_energy_trajectory(self):
        ts = np.linspace(0.0, 1.0, 11)
        mult = Multipliers(4.0, 1.0, 1.0, 1.0, 0.4)
        traj = _fake_trajectory(ts, np.exp(-ts), multipliers=mult)
        b1, b2 = lyapunov_equivalence(traj)
        assert b1 == b2 == 4.0

    def test_single_sample(self):
        mult = Multipliers(4.0, 2.0, 0.0, 0.0, 0.4)
        traj = _fake_trajectory([0.0], [1.0], k1=0.5, multipliers=mult)
        b1, b2 = lyapunov_equivalence(traj)
        assert b1 == b2 == 5.0

    def test_all_zero_energy(self):
        traj = _fake_trajectory(np.linspace(0, 1, 5), np.zeros(5),
                                multipliers=Multipliers(1, 1, 1, 1, 0.4))
        with pytest.raises(UndefinedRatioError):
            lyapunov_equivalence(traj)

    def test_no_multipliers(self):
        # an invalid certificate's run carries no multipliers
        traj = _fake_trajectory(np.linspace(0, 1, 5), np.exp(-np.arange(5)),
                                certificate=NULL_CERT)
        with pytest.raises(UndefinedRatioError, match="multipliers"):
            lyapunov_equivalence(traj)


class TestDissipationCheck:
    def test_single_sample_empty_report(self):
        traj = _fake_trajectory([0.0], [1.0], certificate=NULL_CERT)
        rep = energy_dissipation_check(traj)
        assert rep.n_pairs == 0
        assert rep.passed

    def test_undamped_degenerates_to_conservation(self, undamped_scenario):
        from piezobeam import run
        sc = dataclasses.replace(undamped_scenario, horizon=2.0)
        traj = run(sc, collect_fields=False)
        rep = energy_dissipation_check(traj)
        assert rep.n_pairs == len(traj) - 1
        assert rep.n_violations == 0
