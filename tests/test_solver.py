"""Spatial operator, delay history, CFL, and time-integrator tests."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

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
    load_scenario,
    profile_table,
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


SINUSOID = DelayProfile(kind="sinusoid", mean=0.5, amplitude=0.1, omega=1.8,
                        tau0=0.4, tau_bar=0.6, d=0.19)
TABLE = DelayProfile(kind="table", table_t=(0.0, 1.3, 2.9, 7.0),
                     table_tau=(0.5, 0.58, 0.42, 0.5), tau0=0.4, tau_bar=0.6,
                     d=0.1)
EXP_COSINE = WeightProfiles(delta0=1.0, beta0=0.3, M1=0.1, M2=0.35,
                            d1_kind="exp_floor", d1_floor=1.0, d1_excess=0.5,
                            d1_rate=0.25, d2_kind="cosine", d2_ratio=0.3,
                            d2_omega=1.0)
CONSTANTS = WeightProfiles(delta0=1.0, beta0=0.3, d1_floor=1.5,
                           d2_kind="constant", d2_value=0.3)


@pytest.mark.parametrize("weights", [EXP_COSINE, CONSTANTS],
                         ids=["exp_floor-cosine", "constant"])
@pytest.mark.parametrize("delay", [SINUSOID, TABLE, NO_DELAY],
                         ids=["sinusoid", "table", "constant"])
def test_profile_table_matches_scalar_evaluation(delay, weights):
    # the table evaluates the profiles on an array of step times; a host
    # whose vector ufunc loops round differently from the scalar ones would
    # change the steps' floats, and this test is where that shows
    dt, n_steps = 20.0 / 6473, 6473  # beta0-sweep's step at n=101, T=20
    table = profile_table(delay, weights, dt, n_steps)
    assert table.shape == (n_steps + 1, 5)
    t = 0.0
    for k, row in enumerate(table.tolist()):
        assert row == [t, float(delay.tau(t)), float(weights.delta1(t)),
                       float(weights.delta1(t + 0.5 * dt)),
                       float(weights.delta2(t))], k
        t = t + dt


def _refined_interleaved_step(state, z, operator, dt, d1, d2):
    """Backward-Euler (v, p) from the interleaved (v, p) system that keeps
    the Dirichlet rows at node 0 and the one-sided zero-slope rows
    3u_{n-1} - 4u_{n-2} + u_{n-3} = 0 at x=L: long-double entries and
    residuals, float64 banded corrections (iterative refinement)."""
    ld = np.longdouble
    pr, n = operator.params, operator.grid.n
    dt, dx2 = ld(dt), ld(operator.grid.dx) ** 2
    rho, mu, alpha, beta = (ld(c) for c in (pr.rho, pr.mu, pr.alpha, pr.beta))
    gb = ld(pr.gamma) * beta / dx2
    rv = 2 * np.arange(1, n - 1)
    rp = rv + 1
    ends = np.array([2 * n - 2, 2 * n - 1])
    entries = [
        (rv, rv, rho / dt**2 + ld(d1) / dt + 2 * alpha / dx2),
        (rv, rv - 2, -alpha / dx2), (rv, rv + 2, -alpha / dx2),
        (rv, rv - 1, gb), (rv, rv + 1, -2 * gb), (rv, rv + 3, gb),
        (rp, rp, mu / dt**2 + 2 * beta / dx2),
        (rp, rp - 2, -beta / dx2), (rp, rp + 2, -beta / dx2),
        (rp, rp - 3, gb), (rp, rp - 1, -2 * gb), (rp, rp + 1, gb),
        (np.arange(2), np.arange(2), ld(1)),
        (ends, ends, ld(3)), (ends, ends - 2, ld(-4)), (ends, ends - 4, ld(1)),
    ]
    rows = np.concatenate([r for r, _, _ in entries])
    cols = np.concatenate([c for _, c, _ in entries])
    vals = np.concatenate([np.full(len(r), v, dtype=ld)
                           for r, _, v in entries])
    band = np.zeros((9, 2 * n))
    band[4 + rows - cols, cols] = vals
    rhs = np.zeros(2 * n, dtype=ld)
    rhs[rv] = ((rho / dt**2 + ld(d1) / dt) * state.v[1:-1]
               + rho * state.vt[1:-1] / dt - ld(d2) * z[1:-1])
    rhs[rp] = mu * state.p[1:-1] / dt**2 + mu * state.pt[1:-1] / dt
    sol = np.zeros(2 * n, dtype=ld)
    for _ in range(4):
        residual = rhs.copy()
        np.add.at(residual, rows, -vals * sol[cols])
        sol += solve_banded((4, 4), band, residual.astype(float))
    return sol[0::2], sol[1::2]


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
        table = profile_table(NO_DELAY, weights, dt, 20)
        for k in range(20):
            st = stepper(st, buf, op, table, k, dt)
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
        table = profile_table(NO_DELAY, UNDAMPED, dt, n_steps)
        for k in range(n_steps):
            st = step_explicit(st, buf, op, table, k, dt)
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
        table = profile_table(NO_DELAY, weights, dt, 500)
        for k in range(500):
            st = step_explicit(st, buf, op, table, k, dt)
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
        table = profile_table(NO_DELAY, UNDAMPED, dt, 100)
        with pytest.raises(DivergenceError):
            for k in range(100):
                st = step_explicit(st, buf, op, table, k, dt)

    def test_implicit_stable_at_large_dt(self):
        from piezobeam.solver import _core_energy
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = 10.0 * cfl_timestep(op, NO_DELAY)
        buf = zero_history(g, dt)
        v0 = np.sin(math.pi * g.x / 2.0)
        st = SimState(0.0, v0, np.zeros(g.n), np.zeros(g.n), np.zeros(g.n))
        e0 = _core_energy(st, op).total
        table = profile_table(NO_DELAY, UNDAMPED, dt, 100)
        for k in range(100):
            st = step_implicit(st, buf, op, table, k, dt)
        assert np.isfinite(_scale(st))
        assert _core_energy(st, op).total <= e0 * (1.0 + 1e-9)

    def test_implicit_boundary_slope_to_roundoff(self):
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = cfl_timestep(op, NO_DELAY)
        buf = zero_history(g, dt)
        v0 = np.sin(math.pi * g.x / 2.0)
        st = SimState(0.0, v0, np.zeros(g.n), np.zeros(g.n), np.zeros(g.n))
        table = profile_table(NO_DELAY, UNDAMPED, dt, 50)
        for k in range(50):
            st = step_implicit(st, buf, op, table, k, dt)
        scale = max(1.0, _scale(st))
        for f in (st.v, st.p):
            slope = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * g.dx)
            assert abs(slope) <= 1e-8 * scale

    def test_implicit_band_matches_fresh_build(self, certified_scenario):
        # the operator caches a read-only template once; each step refills
        # its own diagonals from it, so the template is never written
        # however delta1 varies, and LAPACK's in-place factorisation of the
        # buffers never reaches the next step
        from piezobeam.solver import _implicit_matrix
        sc = certified_scenario
        g = Grid(51, sc.beam.length)
        op = SpatialOperator(sc.beam, g)
        dt = 0.01
        buf = init_history(g, sc.delay, lambda x, s: np.zeros_like(x), dt)
        v0 = np.sin(math.pi * g.x / 2.0)
        st = SimState(0.0, v0, np.zeros(g.n), np.zeros(g.n), np.zeros(g.n))
        table = profile_table(sc.delay, sc.weights, dt, 6)
        st = step_implicit(st, buf, op, table, 0, dt)
        template, diag, off = op._implicit_cache
        for k in range(1, 5):
            st = step_implicit(st, buf, op, table, k, dt)
        d1 = float(table[6, 2])  # delta1 at the sixth step's time
        got = _implicit_matrix(op, dt, d1)
        fresh = SpatialOperator(sc.beam, g)
        expected = _implicit_matrix(fresh, dt, d1)
        assert d1 != sc.weights.delta1(0.0)
        assert op._implicit_cache[0] is template
        assert not template.flags.writeable
        assert template.shape == (3, g.n - 2)
        assert np.array_equal(template, fresh._implicit_cache[0])
        assert got[0] is diag and got[1] is off
        assert diag.shape == (2, g.n - 2) and off.shape == (2, g.n - 3)
        assert np.array_equal(diag, expected[0])
        assert np.array_equal(off, expected[1])
        assert got[2] == expected[2]
        assert not any(np.shares_memory(b, template) for b in (diag, off))
        # each row i is P + m_i P D, one m_i < 0 per field
        m = (diag[:, :1] - template[0, :1]) / template[1, :1]
        assert np.all(m < 0)
        assert np.allclose(diag, template[0] + m * template[1], rtol=1e-14)
        assert np.allclose(off, m * template[2, :-1], rtol=1e-14)
        # P D is symmetric: P = diag(1, ..., 1, 3/2) times D, the interior
        # second difference with u_0 = 0 and u_{n-1} = (4 u_{n-2} - u_{n-3})
        # / 3 eliminated
        u = np.zeros(g.n)
        u[1:-1] = np.cos(3.0 * g.x[1:-1]) + g.x[1:-1]
        u[-1] = (4.0 * u[-2] - u[-3]) / 3.0
        pdu = template[1] * u[1:-1]
        pdu[:-1] += template[2, :-1] * u[2:-1]
        pdu[1:] += template[2, :-1] * u[1:-2]
        d2u = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / g.dx**2
        p = np.ones(g.n - 2)
        p[-1] = 1.5
        assert np.array_equal(template[0], p)
        assert np.allclose(pdu, p * d2u, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("beam,weights,n", [
        (None, None, 51),
        (None, None, 1601),
        (None, None, 3),
        (None, None, 4),
        (BeamParams(rho=1.0, alpha=2.0, gamma=0.0, mu=1.0, beta=1.0), None,
         51),
        # alpha/a = beta/c: s11 = s22 and s12 = 0, so theta = atan2(0, 0)/2
        (BeamParams(rho=1.0, alpha=1.0, gamma=0.0, mu=1.0, beta=1.0),
         UNDAMPED, 51),
    ], ids=["n51", "n1601", "n3", "n4", "gamma0", "gamma0-equal-ratios"])
    def test_implicit_step_matches_refined_interleaved_solve(
            self, certified_scenario, beam, weights, n):
        sc = certified_scenario
        beam = beam or sc.beam
        weights = weights or sc.weights
        g = Grid(n, beam.length)
        op = SpatialOperator(beam, g)
        dt = 0.005
        buf = init_history(g, sc.delay, lambda x, s: 0.3 * np.sin(x + s), dt)
        x = g.x
        fields = (np.sin(np.pi * x / 2.0), 0.5 * x * (1.0 - x), 0.2 * x**2,
                  np.cos(x) - 1.0)
        for f in fields:  # the discrete zero slope the step imposes
            f[-1] = (4.0 * f[-2] - f[-3]) / 3.0
        st = SimState(0.0, *fields)
        table = profile_table(sc.delay, weights, dt, 1)
        t_new, tau_new, d1, _, d2 = table[1].tolist()
        z = buf.sample(t_new - tau_new).copy()
        new = step_implicit(st, buf, op, table, 0, dt)
        ref = np.concatenate(_refined_interleaved_step(st, z, op, dt, d1, d2))
        got = np.concatenate([new.v, new.p])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_newest_history_matches_current_vt(self):
        g = Grid(51, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = cfl_timestep(op, NO_DELAY)
        buf = zero_history(g, dt)
        v0 = np.sin(math.pi * g.x / 2.0)
        st = SimState(0.0, v0, np.zeros(g.n), np.zeros(g.n), np.zeros(g.n))
        table = profile_table(NO_DELAY, UNDAMPED, dt, 25)
        for k in range(25):
            st = step_explicit(st, buf, op, table, k, dt)
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

    def test_nonzero_lapack_info_is_divergence(self, certified_scenario,
                                               monkeypatch):
        from piezobeam import solver
        dptsv = solver.solve_banded

        def failing(*args, **kwargs):
            return (*dptsv(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(solver, "solve_banded", failing)
        sc = dataclasses.replace(certified_scenario, n=21, horizon=0.5,
                                 integrator="implicit")
        with pytest.raises(DivergenceError, match="dptsv info=1") as info:
            run(sc, collect_fields=False)
        assert info.value.step == 1
        assert info.value.trajectory.status == "diverged"
        assert len(info.value.trajectory) == 1

    @pytest.mark.parametrize("integrator", ["explicit", "implicit"])
    def test_nan_history_is_divergence(self, certified_scenario, monkeypatch,
                                       integrator):
        # the blow-up guard's finiteness test is the one check of a step
        # whose delayed velocity, and so its solve, is not finite
        from piezobeam import solver

        def nan_history(grid, delay, g0, dt):
            buf = HistoryBuffer(dt, delay.tau_bar + 2.0 * dt, grid.weights)
            for k in range(int(math.ceil((delay.tau_bar + dt) / dt)), -1, -1):
                buf.push(-k * dt, np.full(grid.n, np.nan))
            return buf

        monkeypatch.setattr(solver, "init_history", nan_history)
        sc = dataclasses.replace(certified_scenario, n=21, horizon=0.5,
                                 integrator=integrator)
        with pytest.raises(DivergenceError, match="-> nan") as info:
            run(sc, collect_fields=False)
        assert info.value.step == 1
        assert info.value.trajectory.status == "diverged"
        assert len(info.value.trajectory) == 1

    def test_history_underrun_keeps_filled_rows(self):
        # the delay outgrows its declared tau_bar = 0.6, which sizes the
        # history, so a record's delayed query underruns it mid-run
        delay = DelayProfile(kind="table", table_t=(0, 1, 2),
                             table_tau=(0.5, 0.5, 0.9), tau0=0.4, tau_bar=0.6,
                             d=0.4)
        sc = dataclasses.replace(load_scenario("damped-no-delay"), n=21,
                                 horizon=2.0, delay=delay)
        with pytest.raises(HistoryUnderrunError) as info:
            run(sc, collect_fields=False)
        traj = info.value.trajectory
        assert traj.status == "error"
        # the record after step 89 queries t - tau(t) ~ 0.72, before the
        # history start; output_stride 1, so rows 0..88 are kept
        assert info.value.step == len(traj) == 89
        assert str(info.value).endswith("(step 89)")
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

    @pytest.mark.parametrize("integrator", ["explicit", "implicit"])
    def test_fields_are_the_recorded_states(self, certified_scenario,
                                            integrator):
        sc = dataclasses.replace(certified_scenario, n=51, horizon=1.01,
                                 integrator=integrator, output_stride=3,
                                 field_stride=6)
        traj = run(sc)
        n_steps = round(sc.horizon / traj.dt)
        # the last step is off both strides, so it is recorded on its own
        assert n_steps % sc.output_stride and n_steps % sc.field_stride
        steps = list(range(0, n_steps, sc.field_stride)) + [n_steps]
        assert [round(st.t / traj.dt) for st in traj.fields] == steps
        rows = [k // sc.output_stride for k in steps[:-1]] + [len(traj) - 1]
        assert [st.t for st in traj.fields] == traj.times[rows].tolist()
        assert traj.grid == Grid(sc.n, sc.beam.length)
        assert all(st._core[0].grid is traj.grid for st in traj.fields)
        # snapshots rely on no state being modified in place
        arrays = [f for st in traj.fields for f in (st.v, st.vt, st.p, st.pt)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    def test_boundary_invariants(self, certified_scenario):
        sc = dataclasses.replace(certified_scenario, horizon=1.0, n=101,
                                 field_stride=50)
        traj = run(sc)
        assert traj.fields
        dx = traj.grid.dx
        for snap in traj.fields:
            assert snap.v[0] == 0.0
            assert snap.p[0] == 0.0
            scale = max(1.0, max(np.max(np.abs(f))
                                 for f in (snap.v, snap.p)))
            for f in (snap.v, snap.p):
                slope = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
                # ghost-node closure: O(dx^2) slope
                assert abs(slope) <= 10.0 * dx**2 * scale
