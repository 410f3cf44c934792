"""Spatial operator, delay history, CFL, and time-integrator tests."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from scipy.linalg import lapack, solve_banded

from piezobeam import (
    BeamParams,
    DelayProfile,
    Grid,
    HistoryBuffer,
    Scenario,
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
from piezobeam import solver
from piezobeam.solver import initial_state
from piezobeam.errors import (
    ConfigError,
    DivergenceError,
    GridError,
    HistoryUnderrunError,
)

BEAM = BeamParams(rho=1.0, alpha=2.0, gamma=1.0, mu=1.0, beta=1.0, length=1.0)
NO_DELAY = DelayProfile(kind="constant", mean=0.5, tau0=0.4, tau_bar=0.6)
UNDAMPED = WeightProfiles(delta0=0.0, d1_floor=0.0)


def _scale(st):
    return max(float(np.max(np.abs(f))) for f in (st.v, st.vt, st.p, st.pt))


def history(grid, vt0, dt, times, taus, lag=0):
    """init_history's buffer for states at times delayed by taus, sampled
    lag pushes behind (0 explicit, 1 implicit), vt0 at every stamp up to
    times[0]."""
    return init_history(HistoryBuffer(dt, grid.weights, times, taus, lag),
                        vt0)


def zero_history(grid, dt, table, lag=0):
    """A zero history for the states of a profile table: stamps -k*dt, then
    its t column; its tau column delays them."""
    return history(grid, np.zeros(grid.n), dt, table[:, 0], table[:, 1], lag)


def push_all(buf, snaps):
    """Push each snapshot as a step does: evict, then push."""
    for snap in snaps:
        buf.evict()
        buf.push(snap, buf.square_integral(snap))


class TestGrid:
    def test_layout(self):
        g = Grid(11, 2.0)
        assert g.dx == 0.2
        assert g.x[0] == 0.0
        assert g.x[-1] == 2.0

    def test_too_small(self):
        with pytest.raises(GridError):
            Grid(2, 1.0)

    @pytest.mark.parametrize("length", [1e200, 1e-170],
                             ids=["overflow", "underflow"])
    def test_spacing_squared_outside_float_range(self, length):
        # the stencils divide by dx**2, which is inf or 0 here
        with pytest.raises(GridError, match="^grid spacing .* squared is past "
                                            "the float range$"):
            Grid(11, length)


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

    @pytest.mark.parametrize("beam,message", [
        ({"rho": 1e-300, "alpha": 1e300}, "are past the float range"),
        ({"rho": 1e300, "mu": 1e300, "alpha": 1e-300, "beta": 1e-300,
          "gamma": 0.0}, "give no positive wave speed"),
    ], ids=["overflow", "underflow"])
    def test_coefficients_past_the_float_range_refused(self, beam, message):
        # alpha/rho is inf, or every coefficient underflows to 0: the
        # wave speed and so the CFL step would not be a positive float, so
        # the beam is refused before an operator can be built on it
        with pytest.raises(ValueError, match=f"^beam wave coefficients .* "
                                             f"{message}$"):
            BeamParams(**beam)

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
        # one state, at 0.0, delayed by 0.37: stamps -0.4 ... 0.0
        buf = HistoryBuffer(0.1, Grid(5, 0.04).weights, [0.0], [0.37], 0)
        push_all(buf, [np.full(5, 3.0)] * 5)
        assert np.all(buf.sample(0) == 3.0)

    def test_midpoint_of_linear(self):
        buf = HistoryBuffer(1.0, Grid(5, 1.0).weights, [0.0, 1.0],
                            [0.0, 0.5], 0)
        push_all(buf, [np.zeros(5), np.ones(5)])
        assert np.all(buf.sample(1) == 0.5)

    def test_linear_in_time_exact(self):
        # states at 0.0, 0.1 and 0.2 sample -1.77, -0.3 and -1.5, from the
        # stamps -1.8 ... 0.2
        times = np.array([0.0, 0.1, 0.2])
        queries = np.array([-1.77, -0.3, -1.5])
        buf = HistoryBuffer(0.1, Grid(5, 1.0).weights, times,
                            times - queries, 0)
        assert len(buf._stamps) == 21
        push_all(buf, [np.full(5, s) for s in buf._stamps[:buf._first]])
        for k, q in enumerate(queries):  # each after its own push
            push_all(buf, [np.full(5, times[k])])
            assert np.max(np.abs(buf.sample(k) - q)) < 1e-12

    def test_exact_at_stored_stamps(self):
        # t_k - tau_k is exact in binary and lands on stamp k - k % 4
        rng = np.random.default_rng(7)
        stamps = 0.125 * np.arange(11)
        buf = HistoryBuffer(0.125, Grid(5, 1.0).weights, stamps,
                            0.125 * (np.arange(11) % 4), 0)
        snaps = [rng.standard_normal(5) for _ in range(11)]
        for k in range(11):  # each after its own push
            push_all(buf, snaps[k:k + 1])
            assert np.array_equal(buf.sample(k), snaps[k - k % 4])

    def test_underrun(self):
        # a delay of any length is served; the one sample refused, when
        # the buffer is built and naming the state's step, is one ahead of
        # the newest snapshot: here a negative delay
        weights = Grid(5, 1.0).weights
        HistoryBuffer(0.1, weights, [0.0, 0.1], [0.0, 60.0], 0)
        with pytest.raises(HistoryUnderrunError,
                           match=r"^query t=0.15 is ahead of newest snapshot "
                                 r"0.1 \(step 1\)$"):
            HistoryBuffer(0.1, weights, [0.0, 0.1], [0.0, -0.05], 0)

    def test_implicit_state_samples_before_its_push(self):
        # state 2, at 0.2 with tau 0.05, samples 0.15: after its own push
        # (lag 0) 0.2 is served; before it (lag 1) the newest is 0.1
        args = (0.1, Grid(5, 1.0).weights, [0.0, 0.1, 0.2], [0.0, 0.1, 0.05])
        HistoryBuffer(*args, 0)
        with pytest.raises(HistoryUnderrunError,
                           match=r"^query t=0.15 is ahead of newest snapshot "
                                 r"0.1 \(step 2\)$"):
            HistoryBuffer(*args, 1)

    def test_weighted_square_integral_constant(self):
        # vt = c: double integral = c^2 * L * (1 - e^{-lam tau}) / lam
        g = Grid(101, 1.0)
        dt = 0.01
        lam = 0.8
        tau = 0.5
        buf = history(g, np.full(g.n, 2.0), dt, [0.0], [tau])
        sq_lo = buf.square_integral(buf.sample(0))
        got = buf.weighted_square_integral(0, lam, sq_lo)
        exact = 4.0 * 1.0 * (1.0 - math.exp(-lam * tau)) / lam
        assert abs(got - exact) / exact < 1e-4

    @pytest.mark.parametrize("stamps", [[0.0, 0.1, 0.1], [0.0, 0.2, 0.1],
                                        [0.0, np.nan]],
                             ids=["repeated", "decreasing", "nan"])
    def test_stamps_must_increase(self, stamps):
        with pytest.raises(ConfigError,
                           match="history timestamps must be strictly "
                                 "increasing"):
            HistoryBuffer(0.1, Grid(5, 1.0).weights, stamps,
                          np.zeros(len(stamps)), 0)

    def test_no_push_past_the_last_stamp(self):
        buf = HistoryBuffer(0.1, Grid(5, 1.0).weights, [0.0, 0.1],
                            [0.0, 0.0], 0)
        push_all(buf, [np.zeros(5), np.ones(5)])
        with pytest.raises(ConfigError, match="no stamp past its 2 pushed"):
            buf.push(np.full(5, 2.0), 20.0)
        assert np.array_equal(buf.sample(1), np.ones(5))

    def test_keeps_its_own_stamps(self):
        times = np.array([0.0, 1.0, 2.0])
        buf = HistoryBuffer(1.0, Grid(5, 1.0).weights, times,
                            [0.0, 0.0, 0.5], 0)
        times[:] = [-5.0, 0.0, 7.0]  # the buffer bracketed its own copy
        push_all(buf, [np.full(5, float(k)) for k in range(3)])
        assert np.all(buf.sample(2) == 1.5)

    def test_brackets_counted_before_allocation(self, monkeypatch):
        # 20 states delayed by 1.0 at dt 0.1 take 10 stamps before them:
        # 30 stamps x 6 floats, the states' query, bracket, weight, window
        # start and partial-cell flag, and every stamp's served window
        monkeypatch.setattr(solver, "MAX_RUN_FLOATS", 100)
        with pytest.raises(ConfigError,
                           match=r"^the history's bracket table needs 30 x 6 "
                                 r"floats, more than the 100 a run may "
                                 r"allocate$"):
            HistoryBuffer(0.1, Grid(3, 1.0).weights, 0.1 * np.arange(20),
                          np.ones(20), 0)


class TestInitHistory:
    def test_zero(self):
        g = Grid(21, 1.0)
        for tau in (0.0, 0.05, 0.37, 0.6):
            buf = history(g, np.zeros(g.n), 0.05, [0.0], [tau])
            assert np.all(buf.sample(0) == 0.0)

    def test_constant_in_time(self):
        # every delay samples vt0: exactly at a stamp, to roundoff between
        # two
        g = Grid(21, 1.0)
        v1 = np.sin(math.pi * g.x / 2.0)
        for tau in (0.0, 0.05, 0.37, 0.6):
            buf = history(g, v1, 0.05, [0.0], [tau])
            assert np.max(np.abs(buf.sample(0) - v1)) <= 1e-15
        assert np.array_equal(
            history(g, v1, 0.05, [0.0], [0.0]).sample(0), v1)

    def test_spans_delay(self):
        # the stamps reach back to the earliest sample and no further: tau
        # 0.7 at dt 0.05 takes the 14 stamps -14 * 0.05 ... -0.05, tau 0 none;
        # a delay past any tau_bar, 100, is served as well
        g = Grid(21, 1.0)
        buf = history(g, np.zeros(g.n), 0.05, [0.0], [0.7])
        assert len(buf._stamps) == 15 and buf._stamps[0] == -14 * 0.05
        assert len(history(g, np.zeros(g.n), 0.05, [0.0], [0.0])._stamps) == 1
        buf = history(g, np.ones(g.n), 0.05, [0.0, 0.05], [0.0, 100.0])
        assert len(buf._stamps) == 2001 and np.all(buf.sample(1) == 1.0)

    def test_nonfinite_initial_velocity_refused_by_plan(
            self, certified_scenario, monkeypatch):
        # v1 is the initial v_t and the whole pre-history: a non-finite v1
        # makes E(0) non-finite, which plan refuses before any step
        initial_fields = solver.initial_fields

        def nan_velocity(scenario, x):
            v0, v1, p0, p1 = initial_fields(scenario, x)
            return v0, np.full_like(v1, np.nan), p0, p1

        monkeypatch.setattr(solver, "initial_fields", nan_velocity)
        sc = dataclasses.replace(certified_scenario, n=21, horizon=0.5)
        with pytest.raises(ConfigError,
                           match="^initial energy nan is not finite$"):
            solver.plan(sc)


class TestRunFloatBound:
    def test_history_refused_before_g0(self, monkeypatch):
        # the ring is refused before it is allocated: its 11 stamps x 6
        # floats of brackets fit, its 11 rows x 21 floats do not
        monkeypatch.setattr(solver, "MAX_RUN_FLOATS", 100)
        empty, allocated = np.empty, []
        monkeypatch.setattr(np, "empty", lambda shape, *args, **kwargs: (
            allocated.append(shape) or empty(shape, *args, **kwargs)))
        with pytest.raises(ConfigError, match=r"^the history ring needs 11 "
                                              r"x 21 floats, more than the "
                                              r"100 a run may allocate$"):
            HistoryBuffer(0.05, Grid(21, 1.0).weights, [0.0], [0.5], 0)
        assert allocated == []

    def test_history_refused_before_grid_arrays(self, certified_scenario,
                                                monkeypatch):
        # 50 steps: the table's 51 x 5 floats fit, the ring's 65 x 101 do not
        monkeypatch.setattr(solver, "MAX_RUN_FLOATS", 1000)

        def initial_fields(*args):
            raise AssertionError("initial fields built before the ring check")

        monkeypatch.setattr(solver, "initial_fields", initial_fields)
        sc = dataclasses.replace(certified_scenario, n=101, horizon=0.5,
                                 dt=0.01)
        with pytest.raises(ConfigError, match=r"^the history ring needs \d+ "
                                              r"x 101 floats"):
            run(sc, collect_fields=False)

    def test_profile_table_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_RUN_FLOATS", 55)
        assert profile_table(NO_DELAY, UNDAMPED, 0.1, 10).shape == (11, 5)
        with pytest.raises(ConfigError,
                           match="^the profile table needs 12 x 5 floats"):
            profile_table(NO_DELAY, UNDAMPED, 0.1, 11)

    def test_record_refused(self, certified_scenario, monkeypatch):
        # 100 steps: the table's 101 x 5 and the ring's 11 x 11 floats fit,
        # the record's 101 x 14 do not
        monkeypatch.setattr(solver, "MAX_RUN_FLOATS", 1000)
        sc = dataclasses.replace(certified_scenario, n=11, horizon=10.0,
                                 dt=0.1, output_stride=1)
        with pytest.raises(ConfigError,
                           match="^the record needs 101 x 14 floats"):
            run(sc, collect_fields=False)


class TestSolveBanded:
    @staticmethod
    def _both(d, e, b):
        """(solve_banded's outputs, scipy.linalg.lapack.dptsv's), each as
        bytes of d, e, x and the info code."""
        outputs = (solver.solve_banded(d.copy(), e.copy(), b.copy()),
                   lapack.dptsv(d, e, b))
        return [[a.tobytes() for a in out[:3]] + [out[3]] for out in outputs]

    @pytest.mark.parametrize("n", [1, 2, 1599])
    def test_bitwise_scipy_dptsv(self, n):
        rng = np.random.default_rng(n)
        e = rng.uniform(-1.0, 1.0, max(n - 1, 1))  # the solver's off >= 1
        d = 2.0 + rng.uniform(0.0, 1.0, n)  # diagonally dominant: SPD
        got, expected = self._both(d, e, rng.standard_normal(n))
        assert got == expected
        assert got[3] == 0

    def test_not_positive_definite_same_info(self):
        got, expected = self._both(np.array([1.0, -1.0, 1.0]),
                                   np.array([0.5, 0.5]), np.ones(3))
        assert got == expected
        assert got[3] == 2

    def test_missing_extension_names_directory(self, tmp_path):
        import scipy
        with pytest.raises(ImportError) as info:
            solver._load_flapack(str(tmp_path))
        assert str(info.value) == (f"no LAPACK extension _flapack in "
                                   f"{tmp_path} (scipy {scipy.__version__})")


class TestCflTimestep:
    def test_reference_eigenvalue(self):
        # M = [[2,-1],[-1,1]]: brute-force the characteristic quadratic
        # l^2 - 3l + 1 = 0 -> l = (3 +/- sqrt(5))/2
        c_ref = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        assert abs(BEAM.wave_speed - c_ref) < 1e-12
        assert abs(cfl_timestep(op, NO_DELAY, safety=0.5)
                   - 0.5 * g.dx / c_ref) < 1e-15

    def test_decoupled_unit_speed(self):
        assert abs(BeamParams(alpha=1.0, gamma=0.0).wave_speed - 1.0) < 1e-14

    def test_delay_clamp(self):
        g = Grid(3, 1.0)  # dx = 0.5, large
        delay = DelayProfile(kind="constant", mean=0.04, tau0=0.04, tau_bar=0.04)
        beam = BeamParams(alpha=1.0, gamma=0.0)
        assert cfl_timestep(SpatialOperator(beam, g), delay, safety=1.0) == 0.01

    def test_bad_safety(self):
        with pytest.raises(ConfigError):
            cfl_timestep(SpatialOperator(BEAM, Grid(11, 1.0)), NO_DELAY,
                         safety=0.0)


def _start(v0, history, operator, explicit=True):
    """run()'s initial state for v = v0 and v_t = p = p_t = 0."""
    n = len(v0)
    return initial_state((v0, np.zeros(n), np.zeros(n), np.zeros(n)),
                         history, operator, explicit)


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
        weights = WeightProfiles(delta0=1.0, beta0=0.3, d2_kind="constant",
                                 d2_value=0.3)
        table = profile_table(NO_DELAY, weights, dt, 20)
        explicit = stepper is step_explicit
        buf = zero_history(g, dt, table, int(not explicit))
        st = _start(np.zeros(g.n), buf, op, explicit)
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
        v0 = np.sin(math.pi * g.x / 2.0)
        table = profile_table(NO_DELAY, UNDAMPED, dt, n_steps)
        buf = zero_history(g, dt, table)
        st = _start(v0.copy(), buf, op)
        for k in range(n_steps):
            st = step_explicit(st, buf, op, table, k, dt)
        assert np.linalg.norm(st.v - v0) / np.linalg.norm(v0) < 0.01

    def test_explicit_dissipative_without_delay(self):
        from piezobeam.solver import _core_energy
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = cfl_timestep(op, NO_DELAY)
        weights = WeightProfiles(delta0=1.0, beta0=0.0, d1_floor=1.0)
        v0 = np.sin(math.pi * g.x / 2.0)
        table = profile_table(NO_DELAY, weights, dt, 500)
        buf = zero_history(g, dt, table)
        st = _start(v0, buf, op)
        e_prev = _core_energy(st.v, st.vt, st.p, st.pt, op).total
        for k in range(500):
            st = step_explicit(st, buf, op, table, k, dt)
            e = _core_energy(st.v, st.vt, st.p, st.pt, op).total
            assert e <= e_prev * (1.0 + 1e-12)
            e_prev = e

    def test_explicit_blowup_guard(self):
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = 10.0 * cfl_timestep(op, NO_DELAY)
        v0 = np.sin(math.pi * g.x / 2.0)
        table = profile_table(NO_DELAY, UNDAMPED, dt, 100)
        buf = zero_history(g, dt, table)
        st = _start(v0, buf, op)
        with pytest.raises(DivergenceError):
            for k in range(100):
                st = step_explicit(st, buf, op, table, k, dt)

    def test_implicit_stable_at_large_dt(self):
        from piezobeam.solver import _core_energy
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = 10.0 * cfl_timestep(op, NO_DELAY)
        v0 = np.sin(math.pi * g.x / 2.0)
        table = profile_table(NO_DELAY, UNDAMPED, dt, 100)
        buf = zero_history(g, dt, table, 1)
        st = _start(v0, buf, op, explicit=False)
        e0 = _core_energy(st.v, st.vt, st.p, st.pt, op).total
        for k in range(100):
            st = step_implicit(st, buf, op, table, k, dt)
        assert np.isfinite(_scale(st))
        assert _core_energy(st.v, st.vt, st.p, st.pt, op).total <= e0 * (
            1.0 + 1e-9)

    def test_implicit_boundary_slope_to_roundoff(self):
        g = Grid(101, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = cfl_timestep(op, NO_DELAY)
        v0 = np.sin(math.pi * g.x / 2.0)
        table = profile_table(NO_DELAY, UNDAMPED, dt, 50)
        buf = zero_history(g, dt, table, 1)
        st = _start(v0, buf, op, explicit=False)
        for k in range(50):
            st = step_implicit(st, buf, op, table, k, dt)
        scale = max(1.0, _scale(st))
        for f in (st.v, st.p):
            slope = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * g.dx)
            assert abs(slope) <= 1e-8 * scale

    def test_implicit_band_matches_fresh_build(self, certified_scenario):
        # after five steps, whose delta1 varies and whose solves factorise
        # their bands in place, the operator's system for the next delta1
        # is the one a fresh operator builds
        from piezobeam.solver import _implicit_matrix
        sc = certified_scenario
        g = Grid(51, sc.beam.length)
        op = SpatialOperator(sc.beam, g)
        dt = 0.01
        v0 = np.sin(math.pi * g.x / 2.0)
        table = profile_table(sc.delay, sc.weights, dt, 6)
        buf = zero_history(g, dt, table, 1)
        st = _start(v0, buf, op, explicit=False)
        for k in range(5):
            st = step_implicit(st, buf, op, table, k, dt)
        d1 = float(table[6, 2])  # delta1 at the sixth step's time
        diag, off, tm = _implicit_matrix(op, dt, d1)
        expected = _implicit_matrix(SpatialOperator(sc.beam, g), dt, d1)
        assert d1 != sc.weights.delta1(0.0)
        assert diag.shape == (2, g.n - 2) and off.shape == (2, g.n - 3)
        assert np.array_equal(diag, expected[0])
        assert np.array_equal(off, expected[1])
        assert np.array_equal(tm, expected[2])
        # each row i is P + m_i P D, one m_i < 0 per field, and P D's
        # off-diagonal is 1/dx^2 throughout
        dx2 = g.dx**2
        m = off[:, :1] * dx2
        assert np.all(m < 0)
        assert np.allclose(off, m / dx2, rtol=1e-14)
        # P D is symmetric: P = diag(1, ..., 1, 3/2) times D, the interior
        # second difference with u_0 = 0 and u_{n-1} = (4 u_{n-2} - u_{n-3})
        # / 3 eliminated
        p = np.ones(g.n - 2)
        p[-1] = 1.5
        pd_diag = (diag - p) / m
        assert np.allclose(pd_diag[0], pd_diag[1], rtol=1e-12)
        u = np.zeros(g.n)
        u[1:-1] = np.cos(3.0 * g.x[1:-1]) + g.x[1:-1]
        u[-1] = (4.0 * u[-2] - u[-3]) / 3.0
        pdu = pd_diag[0] * u[1:-1]
        pdu[:-1] += u[2:-1] / dx2
        pdu[1:] += u[1:-2] / dx2
        d2u = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx2
        assert np.allclose(pdu, p * d2u, rtol=1e-12, atol=1e-9)

    def test_implicit_bands_are_new_on_each_call(self, certified_scenario):
        # dptsv overwrites the bands it factorises, so each call returns its
        # own: factorising one call's leaves the next call's as built
        from piezobeam.solver import _implicit_matrix
        sc = certified_scenario
        op = SpatialOperator(sc.beam, Grid(51, sc.beam.length))
        first = _implicit_matrix(op, 0.01, 1.0)
        second = _implicit_matrix(op, 0.01, 1.5)
        for a, b in zip(first[:2], second[:2]):
            assert not np.shares_memory(a, b)
        for i in range(2):
            *_, info = solver.solve_banded(first[0][i], first[1][i],
                                           np.ones(op.grid.n - 2))
            assert info == 0
        expected = _implicit_matrix(SpatialOperator(sc.beam, op.grid), 0.01,
                                    1.5)
        for got, want in zip(second, expected):
            assert np.array_equal(got, want)

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
        x = g.x
        fields = (np.sin(np.pi * x / 2.0), 0.5 * x * (1.0 - x), 0.2 * x**2,
                  np.cos(x) - 1.0)
        for f in fields:  # the discrete zero slope the step imposes
            f[-1] = (4.0 * f[-2] - f[-3]) / 3.0
        table = profile_table(sc.delay, weights, dt, 1)
        buf = history(g, 0.3 * np.sin(x), dt, table[:, 0], table[:, 1], 1)
        st = initial_state(fields, buf, op, False)
        _, _, d1, _, d2 = table[1].tolist()
        z = buf.sample(1).copy()
        new = step_implicit(st, buf, op, table, 0, dt)
        ref = np.concatenate(_refined_interleaved_step(st, z, op, dt, d1, d2))
        got = np.concatenate([new.v, new.p])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_newest_history_matches_current_vt(self):
        # with no delay, each explicit state samples its own stamp after
        # its push: the newest snapshot, the state's v_t bitwise
        g = Grid(51, 1.0)
        op = SpatialOperator(BEAM, g)
        dt = cfl_timestep(op, NO_DELAY)
        v0 = np.sin(math.pi * g.x / 2.0)
        table = profile_table(NO_DELAY, UNDAMPED, dt, 25)
        buf = history(g, np.zeros(g.n), dt, table[:, 0], np.zeros(26))
        st = _start(v0, buf, op)
        for k in range(25):
            st = step_explicit(st, buf, op, table, k, dt)
            assert np.array_equal(st.z, st.vt)
            assert st.t == table[k + 1, 0]

    def test_implicit_delayed_sample_outlives_the_push(self,
                                                       certified_scenario,
                                                       monkeypatch):
        # step_implicit samples z before it pushes the new state's v_t and
        # keeps z on that state, so the push and the evictions must leave
        # the sample at t_new - tau_new bitwise as it was
        sc = certified_scenario
        g = Grid(21, sc.beam.length)
        op = SpatialOperator(sc.beam, g)
        dt = 0.01
        n_steps = 250
        table = profile_table(sc.delay, sc.weights, dt, n_steps)
        buf = HistoryBuffer(dt, g.weights, table[:, 0], table[:, 1], 1)
        # a history that differs between stamps, up to the first state's
        push_all(buf, [np.sin(g.x + 3.0 * s)
                       for s in buf._stamps[:buf._first + 1]])
        assert n_steps >= 4 * len(buf._ring)  # the ring wraps 4 times
        st = _start(np.sin(np.pi * g.x / 2.0), buf, op, False)
        sample, samples = buf.sample, []

        def recorded(k):
            z = sample(k)
            samples.append((z, z.tobytes()))
            return z

        monkeypatch.setattr(buf, "sample", recorded)
        for k in range(n_steps):
            st = step_implicit(st, buf, op, table, k, dt)
            assert len(samples) == k + 1 and samples[-1][0] is st.z
        assert all(z.tobytes() == taken for z, taken in samples)


class TestRun:
    def test_plans_once(self, certified_scenario, monkeypatch):
        # run() takes its set-up from one plan call, so a valid run chooses
        # its multipliers once
        calls = {"plan": 0, "select_multipliers": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        count(solver, "plan")
        count(solver.diagnostics, "select_multipliers")
        sc = dataclasses.replace(certified_scenario, n=11, horizon=0.5)
        assert run(sc, collect_fields=False).multipliers is not None
        assert calls == {"plan": 1, "select_multipliers": 1}

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

    def test_negative_implicit_diagonal_is_divergence(self,
                                                      certified_scenario):
        # delta1 < -rho/dt leaves A0 = diag(rho/dt^2 + delta1/dt, mu/dt^2)
        # with no real square root
        sc = dataclasses.replace(
            certified_scenario, n=51, horizon=0.1, integrator="implicit",
            dt=0.005, weights=dataclasses.replace(certified_scenario.weights,
                                                  d1_floor=-1000.0))
        with pytest.raises(DivergenceError,
                           match=r"rho/dt\^2 \+ delta1/dt > 0") as info:
            run(sc, collect_fields=False)
        assert info.value.step == 1
        assert info.value.trajectory.status == "diverged"
        assert len(info.value.trajectory) == 1

    @pytest.mark.parametrize("integrator,stride",
                             [("explicit", 1), ("implicit", 3)])
    def test_history_sampled_once_per_state(self, certified_scenario,
                                            monkeypatch, integrator, stride):
        # the delayed velocity is the state's: the explicit step and the
        # record of a state share one sample, and the implicit step's
        # sample is the record's
        queries = []
        sample = HistoryBuffer.sample

        def counted(self, k):
            queries.append(k)
            return sample(self, k)

        monkeypatch.setattr(HistoryBuffer, "sample", counted)
        sc = dataclasses.replace(certified_scenario, n=21, horizon=1.0,
                                 integrator=integrator, output_stride=stride)
        traj = run(sc, collect_fields=False)
        n_steps = int(round(sc.horizon / traj.dt))
        assert len(traj) == n_steps // stride + 1 + (n_steps % stride > 0)
        assert queries == list(range(n_steps + 1))

    @pytest.mark.parametrize("integrator", ["explicit", "implicit"])
    def test_trajectory_does_not_keep_the_history(self, certified_scenario,
                                                  monkeypatch, integrator):
        # the recorded states cache their delayed sample; its history key
        # must not keep the run's history ring alive after run() returns
        from piezobeam import solver
        made = []

        def tracked(*args):
            buf = init_history(*args)
            made.append(weakref.ref(buf))
            return buf

        monkeypatch.setattr(solver, "init_history", tracked)
        sc = dataclasses.replace(certified_scenario, n=21, horizon=1.0,
                                 integrator=integrator, field_stride=1)
        traj = run(sc)
        gc.collect()
        assert len(traj.fields) == len(traj) and made[0]() is None

    def test_trajectory_is_frozen(self, certified_scenario):
        # run() builds each trajectory whole, the diverged one included
        traj = run(dataclasses.replace(certified_scenario, n=11, horizon=0.1))
        with pytest.raises(DivergenceError) as info:
            run(dataclasses.replace(certified_scenario, horizon=5.0, n=51,
                                    dt=0.1))
        for traj, status in ((traj, "ok"), (info.value.trajectory,
                                            "diverged")):
            assert traj.status == status
            with pytest.raises(dataclasses.FrozenInstanceError):
                traj.status = "ok"
            with pytest.raises(dataclasses.FrozenInstanceError):
                traj.data = traj.data[:1]

    def test_recorded_state_cannot_be_reassigned(self, certified_scenario):
        # a snapshot is the run's own state, so no field may be rebound
        traj = run(dataclasses.replace(certified_scenario, n=11, horizon=0.1,
                                       field_stride=1))
        st = traj.fields[-1]
        for name in ("t", "v", "vt", "p", "pt", "core", "z", "acc"):
            with pytest.raises(AttributeError):
                setattr(st, name, None)

    def test_implicit_run_applies_no_stencil(self, certified_scenario,
                                             monkeypatch):
        # only the explicit scheme reads a state's acceleration
        calls = []
        monkeypatch.setattr(SpatialOperator, "apply",
                            lambda *args: calls.append(args))
        traj = run(dataclasses.replace(certified_scenario, n=11, horizon=0.1,
                                       integrator="implicit"))
        assert len(traj) > 1 and not calls
        assert all(st.acc is None for st in traj.fields)

    @pytest.mark.parametrize("integrator", ["explicit", "implicit"])
    def test_nan_history_is_divergence(self, certified_scenario, monkeypatch,
                                       integrator):
        # the blow-up guard's finiteness test is the one check of a step
        # whose delayed velocity, and so its solve, is not finite; the NaN
        # history makes the record's E(0) NaN too, so with multipliers plan
        # refuses L(0), and only a run without them (beta0 past sqrt(1 - d)
        # voids the certificate) reaches the step
        from piezobeam import solver

        monkeypatch.setattr(solver, "init_history", lambda buf, vt0: (
            init_history(buf, np.full_like(vt0, np.nan))))
        sc = dataclasses.replace(certified_scenario, n=21, horizon=0.5,
                                 integrator=integrator)
        with pytest.raises(ConfigError, match="^initial Lyapunov value nan "
                                              "is not finite$"):
            run(sc, collect_fields=False)
        sc = dataclasses.replace(sc, weights=dataclasses.replace(
            sc.weights, beta0=1.1))
        assert not sc.certificate.valid
        with pytest.raises(DivergenceError, match="-> nan") as info:
            run(sc, collect_fields=False)
        assert info.value.step == 1
        assert info.value.trajectory.status == "diverged"
        assert len(info.value.trajectory) == 1

    # the delay falls below 0 after t = 1.83: step 120 would sample
    # t - tau(t) ~ 1.854 for the state it makes, ahead of the newest
    # snapshot, 1.846
    UNDERRUN = DelayProfile(kind="table", table_t=(0, 1, 2),
                            table_tau=(0.5, 0.5, -0.1), tau0=0.4, tau_bar=0.6,
                            d=0.6)

    def test_history_underrun_refused_at_set_up(self, monkeypatch):
        # plan refuses the run, naming the step, before any step is taken:
        # no partial trajectory exists
        def refused(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setitem(solver.STEPPERS, "explicit", refused)
        sc = dataclasses.replace(load_scenario("damped-no-delay"), n=21,
                                 horizon=2.0, delay=self.UNDERRUN)
        with pytest.raises(HistoryUnderrunError,
                           match=r"^query t=1\.85384615 is ahead of newest "
                                 r"snapshot 1\.84615385 \(step 120\)$"
                           ) as info:
            run(sc, collect_fields=False)
        assert not hasattr(info.value, "trajectory")
        with pytest.raises(HistoryUnderrunError, match=r"\(step 120\)$"):
            solver.plan(sc)

    def test_strided_underrun_labelled_with_its_step(self):
        # the state's bracket is refused for the step that would make it,
        # whatever the record stride
        sc = dataclasses.replace(load_scenario("damped-no-delay"), n=21,
                                 horizon=2.0, delay=self.UNDERRUN,
                                 output_stride=2)
        with pytest.raises(HistoryUnderrunError,
                           match=r"\(step 120\)$") as info:
            run(sc, collect_fields=False)
        assert not hasattr(info.value, "trajectory")

    def test_delay_past_tau_bar_runs(self):
        # tau(t) rises to 0.9, past its declared tau_bar = 0.6: a hypothesis
        # of the decay certificate, which it voids, not of the run, whose
        # history reaches back to every sample; each state's delayed
        # velocity interpolates the run's own v_t, and the initial velocity
        # before t = 0
        delay = dataclasses.replace(self.UNDERRUN, table_tau=(0.5, 0.5, 0.9),
                                    d=0.4)
        sc = dataclasses.replace(load_scenario("damped-no-delay"), n=21,
                                 horizon=2.0, delay=delay, field_stride=1)
        assert not sc.certificate.assumptions["delay_upper_bound"].passed
        traj = run(sc)
        assert traj.status == "ok" and len(traj) == 131
        t = np.array([st.t for st in traj.fields])
        vts = np.array([st.vt for st in traj.fields])
        for st, q in zip(traj.fields, t - delay.tau(t)):
            i = min(max(int(np.searchsorted(t, q, side="right")) - 1, 0), 129)
            w = max(q - t[i], 0.0) / (t[i + 1] - t[i])
            want = (1.0 - w) * vts[i] + w * vts[i + 1]
            assert np.max(np.abs(st.z - want)) <= 1e-12 * np.max(np.abs(vts))
        assert np.max(np.abs(traj.fields[-1].z)) > 0

    def test_history_sized_from_the_delays_stepped_with(self,
                                                       certified_scenario,
                                                       monkeypatch):
        # a declared tau_bar far above every tau(t) of the run costs nothing
        from piezobeam import solver
        stamps = []

        def tracked(*args):
            buf = init_history(*args)
            stamps.append(len(buf._stamps))
            return buf

        monkeypatch.setattr(solver, "init_history", tracked)
        for tau_bar in (0.6, 200.0):
            delay = dataclasses.replace(certified_scenario.delay,
                                        tau_bar=tau_bar)
            run(dataclasses.replace(certified_scenario, n=21, horizon=0.1,
                                    delay=delay), collect_fields=False)
        assert stamps[0] == stamps[1]

    @pytest.mark.parametrize("integrator", ["explicit", "implicit"])
    def test_served_stamps_are_the_profile_tables(self, certified_scenario,
                                                  monkeypatch, integrator):
        # the history's stamps from 0 on are the run's own step times,
        # bitwise the table's t
        made = []

        def tracked(*args):
            made.append(init_history(*args))
            return made[-1]

        monkeypatch.setattr(solver, "init_history", tracked)
        sc = dataclasses.replace(certified_scenario, n=21, horizon=3.0,
                                 integrator=integrator, output_stride=7)
        traj = run(sc, collect_fields=False)
        n_steps = round(sc.horizon / traj.dt)
        table = profile_table(sc.delay, sc.weights, traj.dt, n_steps)
        buf = made[0]
        assert buf._stamps[buf._first:].tobytes() == table[:, 0].tobytes()
        # after the last step it serves a suffix of them
        assert buf._first < buf._lo < buf._end == len(buf._stamps)
        assert buf._stamps[-1] == traj.times[-1]

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
        op = SpatialOperator(sc.beam, traj.grid)
        assert all(st.core == solver._core_energy(st.v, st.vt, st.p, st.pt, op)
                   for st in traj.fields)
        # snapshots rely on no state being modified in place
        arrays = [f for st in traj.fields for f in (st.v, st.vt, st.p, st.pt)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    def test_field_stride_counts_recorded_steps(self, certified_scenario):
        # a snapshot is kept at a record whose step is a multiple of
        # field_stride, and at the last: step 25 is never recorded
        sc = dataclasses.replace(certified_scenario, n=21, horizon=1.0,
                                 output_stride=10, field_stride=25)
        traj = run(sc)
        assert (round(sc.horizon / traj.dt), len(traj)) == (65, 8)
        assert [round(st.t / traj.dt) for st in traj.fields] == [0, 50, 65]

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
