"""Energy components, Lyapunov functionals, multiplier search, and decay fits."""

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
from piezobeam.solver import COLUMNS, Trajectory

BEAM = BeamParams(rho=1.0, alpha=2.0, gamma=1.0, mu=1.0, beta=1.0, length=1.0)
NO_DELAY = DelayProfile(kind="constant", mean=0.5, tau0=0.4, tau_bar=0.6)
NULL_CERT = StabilityCertificate(0.0, 0.0, 0.0, 0.0, 0.0, valid=False)


def _state(x, v=None, vt=None, p=None, pt=None, t=0.0):
    z = np.zeros_like(x)
    pick = lambda f: z.copy() if f is None else np.asarray(f, dtype=float)
    return SimState(t, pick(v), pick(vt), pick(p), pick(pt))


def _zero_hist(grid, dt=0.01):
    return init_history(grid, NO_DELAY, lambda x, s: np.zeros_like(x), dt)


def _row(state, hist, beam=BEAM):
    """energy() of state with delta1 = 1, keyed by column name."""
    op = SpatialOperator(beam, Grid(len(state.v), beam.length))
    return dict(zip(COLUMNS, energy(state, hist, op, NO_DELAY,
                                    WeightProfiles(), NULL_CERT, None)))


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
        hist = init_history(g, NO_DELAY, lambda x, s: np.ones_like(x), 0.01)
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
            st = SimState(0.0, *(rng.standard_normal(g.n) for _ in range(4)))
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
    def test_n3_doubling_oracle(self, certified_scenario):
        # with beta = 1 the coupling inequality is m - 3 > 1, i.e. m > 4:
        # the doubling search from 1 lands on 8
        cert = certified_scenario.build_certificate()
        mult = select_multipliers(certified_scenario.beam,
                                  certified_scenario.weights, cert)
        assert mult.n3 == 8.0
        lhs = multiplier_inequalities(
            certified_scenario.beam, certified_scenario.weights, cert,
            Multipliers(1.0, 1.0, 1.0, 4.0, mult.c_prime))
        assert lhs[0] <= 1.0  # 4 - 3 = 1 fails the strict test

    def test_substitute_and_check(self, certified_scenario):
        cert = certified_scenario.build_certificate()
        mult = select_multipliers(certified_scenario.beam,
                                  certified_scenario.weights, cert)
        lhs = multiplier_inequalities(certified_scenario.beam,
                                      certified_scenario.weights, cert, mult)
        assert len(lhs) == 5
        assert all(v > 1.0 for v in lhs)

    def test_c_prime_interpretation(self):
        assert abs(default_poincare_constant(1.0) - (2.0 / math.pi)**2) < 1e-15

    def test_zero_c_prime_rejected(self, certified_scenario):
        cert = certified_scenario.build_certificate()
        with pytest.raises(MultiplierSearchError):
            select_multipliers(certified_scenario.beam,
                               certified_scenario.weights, cert, c_prime=0.0)

    def test_invalid_certificate_rejected(self, certified_scenario):
        with pytest.raises(MultiplierSearchError):
            select_multipliers(certified_scenario.beam,
                               certified_scenario.weights, NULL_CERT)


def _fake_trajectory(ts, energies, k1=0.0, k2=0.0, k3=0.0):
    data = np.zeros((len(ts), len(COLUMNS)))
    for name, col in (("t", ts), ("E", energies), ("K1", k1), ("K2", k2),
                      ("K3", k3), ("L", math.nan)):
        data[:, COLUMNS.index(name)] = col
    return Trajectory(None, None, None, dt=ts[1] - ts[0] if len(ts) > 1 else 1.0,
                      dx=0.01, data=data)


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
        traj = _fake_trajectory(ts, np.exp(-ts))
        mult = Multipliers(4.0, 1.0, 1.0, 1.0, 0.4)
        b1, b2 = lyapunov_equivalence(traj, mult)
        assert b1 == b2 == 4.0

    def test_single_sample(self):
        traj = _fake_trajectory([0.0], [1.0], k1=0.5)
        mult = Multipliers(4.0, 2.0, 0.0, 0.0, 0.4)
        b1, b2 = lyapunov_equivalence(traj, mult)
        assert b1 == b2 == 5.0

    def test_all_zero_energy(self):
        traj = _fake_trajectory(np.linspace(0, 1, 5), np.zeros(5))
        with pytest.raises(UndefinedRatioError):
            lyapunov_equivalence(traj, Multipliers(1, 1, 1, 1, 0.4))


class TestDissipationCheck:
    def test_single_sample_empty_report(self):
        traj = _fake_trajectory([0.0], [1.0])
        rep = energy_dissipation_check(traj, NULL_CERT)
        assert rep.n_pairs == 0
        assert rep.passed

    def test_undamped_degenerates_to_conservation(self, undamped_scenario):
        from piezobeam import run
        sc = dataclasses.replace(undamped_scenario, horizon=2.0)
        traj = run(sc, collect_fields=False)
        rep = energy_dissipation_check(traj, traj.certificate)
        assert rep.n_pairs == len(traj) - 1
        assert rep.n_violations == 0
