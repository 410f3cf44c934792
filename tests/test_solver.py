"""Spatial operator, delay history, CFL, and time-integrator tests."""

import dataclasses
import math

import numpy as np
import pytest

from piezobeam import (
    BeamParams,
    DelayProfile,
    Grid,
    HistoryBuffer,
    Scenario,
    SimState,
    SpatialOperator,
    WeightProfiles,
    cfl_timestep,
    init_history,
    run,
    step_explicit,
    step_implicit,
)
from piezobeam.errors import (
    ConfigError,
    DivergenceError,
    GridError,
    HistoryUnderrunError,
    ProfileEvaluationError,
)

BEAM = BeamParams(rho=1.0, alpha=2.0, gamma=1.0, mu=1.0, beta=1.0, length=1.0)
NO_DELAY = DelayProfile(kind="constant", mean=0.5, tau0=0.4, tau_bar=0.6)
UNDAMPED = WeightProfiles(delta0=0.0, d1_floor=0.0)


def _scale(st):
    return max(float(np.max(np.abs(f))) for f in (st.v, st.vt, st.p, st.pt))


def zero_history(grid, dt):
    return init_history(grid, NO_DELAY, lambda x, s: np.zeros_like(x), dt)


class TestGrid:
    def test_layout(self):
        g = Grid(11, 2.0)
        assert g.dx == 0.2
        assert g.x[0] == 0.0
        assert g.x[-1] == 2.0

    def test_too_small(self):
        with pytest.raises(GridError):
            Grid(2, 1.0)


class TestSpatialOperator:
    def test_linear_fields_zero_interior(self):
        g = Grid(51, 1.0)
        op = SpatialOperator(BEAM, g)
        acc_v, acc_p = op.apply(1.7 * g.x, -0.4 * g.x)
        assert np.max(np.abs(acc_v[1:-1])) < 1e-11
        assert np.max(np.abs(acc_p[1:-1])) < 1e-11

    def test_decoupled_when_gamma_zero(self):
        g = Grid(51, 1.0)
        op = SpatialOperator(BeamParams(gamma=0.0), g)
        v = np.sin(math.pi * g.x / 2.0)
        acc_v, acc_p = op.apply(v, np.zeros_like(v))
        assert np.all(acc_p == 0.0)

    def test_mode_residual_second_order(self):
        # interior residual vs the analytic second derivative shrinks at O(dx^2)
        k = math.pi / 2.0
        errs = []
        for n in (51, 101, 201):
            g = Grid(n, 1.0)
            op = SpatialOperator(BEAM, g)
            v = np.sin(k * g.x)
            acc_v, _ = op.apply(v, np.zeros_like(v))
            exact = -(BEAM.alpha / BEAM.rho) * k**2 * v
            errs.append(np.max(np.abs(acc_v[1:-1] - exact[1:-1])))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.7 <= o <= 2.3 for o in orders)


class TestHistoryBuffer:
    def test_constant_history(self):
        buf = HistoryBuffer(0.1, 1.0, Grid(5, 0.04).weights)
        for k in range(11):
            buf.push(-1.0 + 0.1 * k, np.full(5, 3.0))
        assert np.all(buf.sample(-0.37) == 3.0)

    def test_midpoint_of_linear(self):
        buf = HistoryBuffer(1.0, 2.0, Grid(5, 1.0).weights)
        buf.push(0.0, np.zeros(5))
        buf.push(1.0, np.ones(5))
        assert np.all(buf.sample(0.5) == 0.5)

    def test_linear_in_time_exact(self):
        buf = HistoryBuffer(0.1, 2.0, Grid(5, 1.0).weights)
        for k in range(21):
            s = -2.0 + 0.1 * k
            buf.push(s, np.full(5, s))
        for q in (-1.77, -0.3, -1.5):
            assert np.max(np.abs(buf.sample(q) - q)) < 1e-12

    def test_exact_at_stored_stamps(self):
        rng = np.random.default_rng(7)
        buf = HistoryBuffer(0.1, 1.0, Grid(5, 1.0).weights)
        snaps = [rng.standard_normal(5) for _ in range(11)]
        for k, snap in enumerate(snaps):
            buf.push(0.1 * k, snap)
        for k, snap in enumerate(snaps):
            assert np.array_equal(buf.sample(0.1 * k), snap)

    def test_underrun(self):
        buf = HistoryBuffer(0.1, 1.0, Grid(5, 1.0).weights)
        buf.push(0.0, np.zeros(5))
        buf.push(0.1, np.zeros(5))
        with pytest.raises(HistoryUnderrunError):
            buf.sample(-0.5)

    def test_weighted_square_integral_constant(self):
        # vt = c: double integral = c^2 * L * (1 - e^{-lam tau}) / lam
        g = Grid(101, 1.0)
        dt = 0.01
        buf = init_history(g, NO_DELAY, lambda x, s: np.full_like(x, 2.0), dt)
        lam = 0.8
        tau = 0.5
        got = buf.weighted_square_integral(0.0, tau, lam)
        exact = 4.0 * 1.0 * (1.0 - math.exp(-lam * tau)) / lam
        assert abs(got - exact) / exact < 1e-4


class TestInitHistory:
    def test_zero(self):
        g = Grid(21, 1.0)
        buf = zero_history(g, 0.05)
        assert all(np.all(buf.sample(t) == 0.0) for t in buf.times)

    def test_constant_in_time(self):
        g = Grid(21, 1.0)
        v1 = np.sin(math.pi * g.x / 2.0)
        buf = init_history(g, NO_DELAY, lambda x, s: np.interp(x, g.x, v1), 0.05)
        for t in buf.times:
            assert np.array_equal(buf.sample(t), v1)
        assert buf.newest_time == 0.0

    def test_analytic_history_reproduced(self):
        g = Grid(21, 1.0)
        f = lambda x, s: np.sin(math.pi * x) * math.exp(s)
        buf = init_history(g, NO_DELAY, f, 0.05)
        for t in buf.times:
            assert np.max(np.abs(buf.sample(t) - f(g.x, t))) < 1e-15

    def test_spans_delay(self):
        g = Grid(21, 1.0)
        buf = zero_history(g, 0.05)
        assert buf.times[0] <= -NO_DELAY.tau_bar

    def test_nonfinite_rejected(self):
        g = Grid(21, 1.0)
        with pytest.raises(ProfileEvaluationError):
            init_history(g, NO_DELAY, lambda x, s: np.full_like(x, np.nan), 0.05)


class TestCflTimestep:
    def test_reference_eigenvalue(self):
        # M = [[2,-1],[-1,1]]: brute-force the characteristic quadratic
        # l^2 - 3l + 1 = 0 -> l = (3 +/- sqrt(5))/2
        c_ref = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        assert abs(op.wave_speed - c_ref) < 1e-12
        assert abs(cfl_timestep(op, safety=0.5) - 0.5 * g.dx / c_ref) < 1e-15

    def test_decoupled_unit_speed(self):
        op = SpatialOperator(BeamParams(alpha=1.0, gamma=0.0), Grid(3, 1.0))
        assert abs(op.wave_speed - 1.0) < 1e-14

    def test_delay_clamp(self):
        g = Grid(3, 1.0)  # dx = 0.5, large
        delay = DelayProfile(kind="constant", mean=0.04, tau0=0.04, tau_bar=0.04)
        beam = BeamParams(alpha=1.0, gamma=0.0)
        assert cfl_timestep(SpatialOperator(beam, g), delay, safety=1.0) == 0.01

    def test_bad_safety(self):
        with pytest.raises(ConfigError):
            cfl_timestep(SpatialOperator(BEAM, Grid(11, 1.0)), safety=0.0)


def _zero_state(grid):
    z = np.zeros(grid.n)
    return SimState(0.0, z.copy(), z.copy(), z.copy(), z.copy())


class TestSteppers:
    @pytest.mark.parametrize("stepper", [step_explicit, step_implicit])
    def test_zero_fixed_point(self, stepper):
        g = Grid(51, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = cfl_timestep(op, NO_DELAY)
        buf = zero_history(g, dt)
        weights = WeightProfiles(delta0=1.0, beta0=0.3, d2_kind="constant",
                                 d2_value=0.3)
        st = _zero_state(g)
        for _ in range(20):
            st = stepper(st, buf, op, weights, NO_DELAY, dt)
        for f in (st.v, st.vt, st.p, st.pt):
            assert np.all(f == 0.0)

    def test_standing_mode_period(self):
        # gamma = 0, single decoupled field, c = 1: the fundamental mode
        # sin(pi x / 2L) has angular frequency pi/2, so the state returns to
        # its initial shape every 4L/c and the energy pattern every 2L/c
        beam = BeamParams(rho=1.0, alpha=1.0, gamma=0.0, mu=1.0, beta=1.0,
                          length=1.0)
        g = Grid(201, 1.0)
        op = SpatialOperator(beam, g)
        dt0 = cfl_timestep(op, NO_DELAY)
        period = 4.0 * beam.length  # 2 * (2L/c)
        n_steps = int(round(10 * period / dt0))
        dt = 10 * period / n_steps
        buf = zero_history(g, dt)
        v0 = np.sin(math.pi * g.x / 2.0)
        st = SimState(0.0, v0.copy(), np.zeros(g.n), np.zeros(g.n),
                      np.zeros(g.n))
        for _ in range(n_steps):
            st = step_explicit(st, buf, op, UNDAMPED, NO_DELAY, dt)
        assert np.linalg.norm(st.v - v0) / np.linalg.norm(v0) < 0.01

    def test_explicit_dissipative_without_delay(self):
        from piezobeam.solver import _core_energy
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = cfl_timestep(op, NO_DELAY)
        buf = zero_history(g, dt)
        weights = WeightProfiles(delta0=1.0, beta0=0.0, d1_floor=1.0)
        v0 = np.sin(math.pi * g.x / 2.0)
        st = SimState(0.0, v0, np.zeros(g.n), np.zeros(g.n), np.zeros(g.n))
        e_prev = _core_energy(st, op).total
        for _ in range(500):
            st = step_explicit(st, buf, op, weights, NO_DELAY, dt)
            e = _core_energy(st, op).total
            assert e <= e_prev * (1.0 + 1e-12)
            e_prev = e

    def test_explicit_blowup_guard(self):
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = 10.0 * cfl_timestep(op, NO_DELAY)
        buf = zero_history(g, dt)
        v0 = np.sin(math.pi * g.x / 2.0)
        st = SimState(0.0, v0, np.zeros(g.n), np.zeros(g.n), np.zeros(g.n))
        with pytest.raises(DivergenceError):
            for _ in range(100):
                st = step_explicit(st, buf, op, UNDAMPED, NO_DELAY, dt)

    def test_implicit_stable_at_large_dt(self):
        from piezobeam.solver import _core_energy
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = 10.0 * cfl_timestep(op, NO_DELAY)
        buf = zero_history(g, dt)
        v0 = np.sin(math.pi * g.x / 2.0)
        st = SimState(0.0, v0, np.zeros(g.n), np.zeros(g.n), np.zeros(g.n))
        e0 = _core_energy(st, op).total
        for _ in range(100):
            st = step_implicit(st, buf, op, UNDAMPED, NO_DELAY, dt)
        assert np.isfinite(_scale(st))
        assert _core_energy(st, op).total <= e0 * (1.0 + 1e-9)

    def test_implicit_boundary_slope_to_roundoff(self):
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = cfl_timestep(op, NO_DELAY)
        buf = zero_history(g, dt)
        v0 = np.sin(math.pi * g.x / 2.0)
        st = SimState(0.0, v0, np.zeros(g.n), np.zeros(g.n), np.zeros(g.n))
        for _ in range(50):
            st = step_implicit(st, buf, op, UNDAMPED, NO_DELAY, dt)
        scale = max(1.0, _scale(st))
        for f in (st.v, st.p):
            slope = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * g.dx)
            assert abs(slope) <= 1e-8 * scale

    def test_newest_history_matches_current_vt(self):
        g = Grid(51, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = cfl_timestep(op, NO_DELAY)
        buf = zero_history(g, dt)
        v0 = np.sin(math.pi * g.x / 2.0)
        st = SimState(0.0, v0, np.zeros(g.n), np.zeros(g.n), np.zeros(g.n))
        for _ in range(25):
            st = step_explicit(st, buf, op, UNDAMPED, NO_DELAY, dt)
            assert np.array_equal(buf.sample(buf.newest_time), st.vt)
            assert buf.newest_time == st.t


class TestRun:
    def test_zero_horizon_single_record(self, certified_scenario):
        traj = run(dataclasses.replace(certified_scenario, horizon=0.0),
                   collect_fields=False)
        assert len(traj) == 1
        assert traj.times[0] == 0.0

    def test_divergence_keeps_filled_rows(self, certified_scenario):
        sc = dataclasses.replace(certified_scenario, horizon=5.0, n=51,
                                 dt=0.1, output_stride=2)
        with pytest.raises(DivergenceError) as info:
            run(sc, collect_fields=False)
        traj = info.value.trajectory
        # records at steps 0, 2, 4, 6 precede the guard trip at step 7
        assert info.value.step == 7
        assert traj.status == "diverged"
        assert np.array_equal(traj.times, [0.0, 0.2, 0.4, 0.6])
        assert np.all(np.isfinite(traj.energies))

    def test_status_independent_of_output_stride(self, certified_scenario):
        # delta2 = -3 voids the certificate (L is NaN) and the energy grows
        # slowly; that is data, not divergence, at every recording cadence
        cfg = certified_scenario.to_dict()
        cfg["weights"]["delta2"] = {"kind": "constant", "value": -3.0}
        cfg["numerics"].update(n=51, horizon_s=20.0)
        sc = Scenario.from_dict(cfg)
        every = run(sc, collect_fields=False)
        sparse = run(dataclasses.replace(sc, output_stride=1000),
                     collect_fields=False)
        assert (every.status, sparse.status) == ("ok", "ok")
        assert len(every) == 3238
        assert np.array_equal(sparse.data,
                              every.data[[0, 1000, 2000, 3000, 3237]],
                              equal_nan=True)

    def test_deterministic(self, certified_scenario):
        sc = dataclasses.replace(certified_scenario, horizon=2.0, n=101)
        a = run(sc, collect_fields=False)
        b = run(sc, collect_fields=False)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.energies.tobytes() == b.energies.tobytes()

    def test_damped_no_delay_monotone(self):
        from piezobeam import load_scenario
        sc = dataclasses.replace(load_scenario("damped-no-delay"),
                                 horizon=10.0)
        traj = run(sc, collect_fields=False)
        e = traj.energies
        assert np.all(np.diff(e) <= 1e-12 * e[0])

    def test_boundary_invariants(self, certified_scenario):
        sc = dataclasses.replace(certified_scenario, horizon=1.0, n=101,
                                 field_stride=50)
        traj = run(sc)
        assert traj.fields
        dx = traj.dx
        for snap in traj.fields:
            assert snap.v[0] == 0.0
            assert snap.p[0] == 0.0
            scale = max(1.0, max(np.max(np.abs(f))
                                 for f in (snap.v, snap.p)))
            for f in (snap.v, snap.p):
                slope = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
                # ghost-node closure: O(dx^2) slope
                assert abs(slope) <= 10.0 * dx**2 * scale
