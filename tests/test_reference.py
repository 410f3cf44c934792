"""Equivalence of the dot-product quadratures, contiguous history buffer and
column-wise certificate checks with reference implementations.

The reference functions below are the plain ``np.trapezoid`` / ``np.diff``
formulas for the energy parts and K1-K3, a list-of-arrays history that keeps
every snapshot, brackets each query as it comes (a floor, clamps and a
tolerance) and finds the stamps a sample reads by a scan, and per-record
loops for the dissipation check, the equivalence ratios and the decay fit.
The package computes the same quantities as dot products with one trapezoid
weight vector, keeps its history in a preallocated ring sized from the
samples the run takes, brackets every delayed sample once, by comparison
with the stamps, when it builds the history, and runs the checks as array
expressions over the trajectory's columns.  Away from a stamp both
brackets are the same, so samples and check results agree bitwise; within
rounding of a stamp the floor may take the cell below with a weight of
about 1, so samples agree to roundoff.
Quadrature sums run in a different order, so integrals agree to a float64
roundoff tolerance.
"""

import dataclasses
import math

import numpy as np
import pytest

from piezobeam import (
    Grid,
    HistoryBuffer,
    SpatialOperator,
    energy_dissipation_check,
    fit_decay_rate,
    load_scenario,
    lyapunov_equivalence,
    run,
    step_explicit,
    step_implicit,
)
from piezobeam import (DelayProfile, Scenario, WeightProfiles, diagnostics,
                       solver)
from piezobeam.diagnostics import DecayFit, DissipationReport, Multipliers
from piezobeam.errors import ConfigError
from piezobeam.scenario import load_config

E_RTOL = 1e-12
K_ATOL = 1e-12  # times max(E(0), 1)
KERNEL_RTOL = 1e-13


def ref_energy_parts(state, params, dx):
    """(kinetic_v, kinetic_p, elastic, coupling, int_vt2) by np.trapezoid."""
    dvm = np.diff(state.v) / dx
    dpm = np.diff(state.p) / dx
    return (0.5 * params.rho * float(np.trapezoid(state.vt**2, dx=dx)),
            0.5 * params.mu * float(np.trapezoid(state.pt**2, dx=dx)),
            0.5 * params.alpha1 * float(np.sum(dvm**2)) * dx,
            0.5 * params.beta * float(
                np.sum((params.gamma * dvm - dpm)**2)) * dx,
            float(np.trapezoid(state.vt**2, dx=dx)))


def ref_lyapunov(state, params, dx):
    """(K1, K2, K3) by np.trapezoid."""
    w = params.gamma * state.v - state.p
    gm = params.gamma * params.mu
    return (float(params.rho * np.trapezoid(state.vt * state.v, dx=dx)
                  + gm * np.trapezoid(state.pt * state.v, dx=dx)),
            float(params.rho * np.trapezoid(state.vt * w, dx=dx)
                  + gm * np.trapezoid(state.pt * w, dx=dx)),
            float(params.rho * np.trapezoid(state.vt * state.v, dx=dx)
                  + params.mu * np.trapezoid(state.pt * state.p, dx=dx)))


class RefHistory:
    """List-of-arrays history: one array per snapshot, every one kept; it
    serves the stamps from lo, the oldest that a sample still to come
    reads, to the newest, and brackets a query among them."""

    def __init__(self, dt, dx):
        self.dt, self.dx = dt, dx
        self.times, self.snaps, self.sq_integrals = [], [], []
        self.lo = 0

    def push(self, t, vt):
        snap = np.array(vt, dtype=float, copy=True)
        self.times.append(float(t))
        self.snaps.append(snap)
        self.sq_integrals.append(float(np.trapezoid(snap**2, dx=self.dx)))

    def serve(self, queries):
        """Serve the stamps from the last at or before the earliest of
        queries, the samples still to come, found by a scan."""
        q = min(queries, default=self.times[-1])
        self.lo = max(i for i, t in enumerate(self.times) if t <= q)

    def sample(self, t_query):
        t0 = self.times[self.lo]
        i = self.lo + int(math.floor((t_query - t0) / self.dt))
        i = max(0, min(i, len(self.times) - 2))
        w = (t_query - self.times[i]) / (self.times[i + 1] - self.times[i])
        w = min(max(w, 0.0), 1.0)
        if w == 0.0:
            return self.snaps[i].copy()
        if w == 1.0:
            return self.snaps[i + 1].copy()
        return (1.0 - w) * self.snaps[i] + w * self.snaps[i + 1]

    def square_integral_at(self, t_query):
        return float(np.trapezoid(self.sample(t_query)**2, dx=self.dx))

    def weighted_square_integral(self, t, tau_t, lam):
        t_lo = t - tau_t
        times = np.asarray(self.times)
        eps = 1e-9 * self.dt
        mask = (times >= t_lo - eps) & (times <= t + eps)
        ts = times[mask]
        vals = np.asarray(self.sq_integrals)[mask]
        weights = np.exp(lam * (ts - t))
        total = float(np.trapezoid(vals * weights, ts)) if len(ts) > 1 else 0.0
        if len(ts) > 0 and ts[0] > t_lo + eps:
            f_lo = self.square_integral_at(t_lo) * math.exp(lam * (t_lo - t))
            total += 0.5 * (f_lo + vals[0] * weights[0]) * (ts[0] - t_lo)
        return total


def ref_energy_total(state, history, params, certificate, delay, weights, dx):
    xi_t = certificate.xi_bar * float(weights.delta1(state.t))
    tau_t = float(delay.tau(state.t))
    kernel = history.weighted_square_integral(state.t, tau_t, certificate.lam)
    return sum(ref_energy_parts(state, params, dx)[:4]) + 0.5 * xi_t * kernel


def test_run_matches_reference(certified_scenario):
    sc = dataclasses.replace(certified_scenario, n=101, horizon=2.0)
    traj = run(sc, collect_fields=False)
    cert = traj.certificate
    assert cert.valid

    # replay the run's steps from its own set-up, mirroring every snapshot
    # into the reference: the pre-history is the initial velocity
    op, dt, _, table, _, _, history, state = solver.plan(sc)
    assert dt == traj.dt
    dx = op.grid.dx
    ref = RefHistory(dt, dx)
    for t in history._stamps[:history._end]:
        ref.push(t, state.vt)
    queries = table[:, 0] - table[:, 1]

    e_ref = []
    k_err = []
    ks = np.column_stack([traj.column(name) for name in ("K1", "K2", "K3")])
    for k, (t, k_got) in enumerate(zip(traj.times, ks)):
        if k:
            state = step_explicit(state, history, op, table, k - 1, dt)
            ref.push(state.t, state.vt)
        ref.serve(queries[k:])
        assert t == state.t
        e_ref.append(ref_energy_total(state, ref, sc.beam, cert, sc.delay,
                                      sc.weights, dx))
        k_err.append(max(abs(got - want) for got, want in zip(
            k_got, ref_lyapunov(state, sc.beam, dx))))
    assert len(e_ref) == int(round(2.0 / dt)) + 1

    e_ref = np.array(e_ref)
    rel = np.abs(traj.energies - e_ref) / e_ref
    assert np.max(rel) <= E_RTOL
    assert max(k_err) <= K_ATOL * max(e_ref[0], 1.0)


@pytest.mark.parametrize("integrator", ["explicit", "implicit"])
def test_near_stamp_samples_match_reference(certified_scenario, integrator):
    # tau = 0.5 at dt = 1/30: every t_k - tau lies within rounding of the
    # stamp 15 steps back, where the reference's floor may take the cell
    # below with a weight of about 1; an explicit state samples after its
    # evict and push, an implicit one before them
    delay = dataclasses.replace(certified_scenario.delay, kind="constant",
                                mean=0.5)
    sc = dataclasses.replace(certified_scenario, n=11, horizon=3.0,
                             dt=1.0 / 30.0, delay=delay,
                             integrator=integrator)
    op, dt, n_steps, table, _, _, history, state = solver.plan(sc)
    ref = RefHistory(dt, op.grid.dx)
    for t in history._stamps[:history._end]:
        ref.push(t, state.vt)
    queries = table[:, 0] - table[:, 1]
    ref.serve(queries)
    stepper = {"explicit": step_explicit, "implicit": step_implicit}
    lag = int(integrator == "implicit")
    for k in range(n_steps + 1):
        if k:
            state = stepper[integrator](state, history, op, table, k - 1, dt)
        if k and not lag:
            ref.push(state.t, state.vt)
            ref.serve(queries[k:])
        want = ref.sample(queries[k])
        assert np.max(np.abs(state.z - want)) <= 1e-15 * np.max(np.abs(want))
        if k and lag:
            ref.push(state.t, state.vt)
            ref.serve(queries[k + 1:])
    assert n_steps == 90


# constant, sinusoid and table delays; the last two rise past their tau_bar
# of 0.6, to 0.8 and 0.9
DELAYS = (DelayProfile(kind="constant", mean=0.5, tau0=0.4, tau_bar=0.6),
          DelayProfile(kind="sinusoid", mean=0.5, amplitude=0.3, omega=1.8,
                       tau0=0.2, tau_bar=0.6, d=0.54),
          DelayProfile(kind="table", table_t=(0, 1, 2),
                       table_tau=(0.5, 0.5, 0.9), tau0=0.4, tau_bar=0.6,
                       d=0.4))


def test_history_buffer_matches_reference_across_evictions():
    # every stamp holds a random snapshot; the run's states sample as its
    # steps do: the pre-history pushed, each step's push after an evict,
    # a state with lag 0 sampling after its own push, with lag 1 before it
    rng = np.random.default_rng(3)
    dt, n, lam = 0.01, 11, 0.8
    weights = Grid(n, 1.0).weights
    for delay in DELAYS:
        table = solver.profile_table(delay, WeightProfiles(), dt, 300)
        times, taus = table[:, 0], table[:, 1]
        # the fewest stamps -m*dt that reach back to the earliest sample
        m = 0
        while -m * dt > min(times - taus):
            m += 1
        for lag in (0, 1):
            buf = HistoryBuffer(dt, weights, times, taus, lag)
            assert buf._stamps.tobytes() == np.r_[
                -np.arange(m, 0, -1) * dt, times].tobytes()
            ref = RefHistory(dt, 0.1)
            queries = times - taus
            windows, samples = [], {}

            def take(k):
                z = buf.sample(k)
                want = ref.sample(queries[k])
                assert np.max(np.abs(z - want)) <= 1e-15 * np.max(np.abs(want))
                samples[k] = z

            for j, s in enumerate(buf._stamps):
                k = j - m  # the state at this stamp
                if k > 0:
                    if lag:
                        take(k)
                    buf.evict()
                snap = rng.standard_normal(n)
                buf.push(snap, buf.square_integral(snap))
                ref.push(s, snap)
                if k >= 0:  # the samples after this push
                    ref.serve(queries[k + lag if k else 0:])
                    windows.append(len(ref.times) - 1 - ref.lo)
                if k == 0 or k > 0 and not lag:
                    take(k)
                if k >= 0:
                    got = buf.weighted_square_integral(
                        k, lam, buf.square_integral(samples[k]))
                    assert got == pytest.approx(ref.weighted_square_integral(
                        times[k], taus[k], lam), rel=KERNEL_RTOL)
            # the samples above match, so no push overwrote a row that a
            # later sample read; with one row fewer, the push that the
            # widest window follows would have
            assert len(samples) == len(times)
            assert len(buf._ring) == max(windows) + 1


def test_history_buffer_full_without_evictions():
    # tau 0.3 at dt 0.1: each state reads 3 stamps back, so the ring holds
    # 4 rows, and a fifth push with no eviction is refused
    buf = HistoryBuffer(0.1, Grid(4, 0.75).weights, 0.1 * np.arange(7),
                        np.full(7, 0.3), 0)
    assert len(buf._ring) == 4
    for k in range(4):
        buf.push(np.full(4, float(k)), 4.0 * k * k)
    with pytest.raises(ConfigError, match="holds at most 4 snapshots "
                                          "between evictions"):
        buf.push(np.zeros(4), 0.0)
    assert np.max(np.abs(buf.sample(0))) < 1e-15  # -3 * 0.1 < -0.3


@pytest.mark.parametrize("numerics,rows", [
    ({"n": 101, "horizon_s": 20.0}, 196),
    ({"integrator": "implicit", "n": 1601, "dt_s": 0.005}, 120)],
    ids=["beta0-sweep", "implicit-fine"])
def test_ring_rows_on_benchmark_physics(numerics, rows):
    # certified-decay's delay reaches 0.6: the ring holds the rows from its
    # oldest read to the newest push (sized from tau_bar, it held 199 and
    # 125)
    cfg = load_config("certified-decay")
    cfg["numerics"].update(numerics)
    history = solver.plan(Scenario.from_dict(cfg))[6]
    assert len(history._ring) == rows


@pytest.mark.parametrize("stepper", [step_explicit, step_implicit])
def test_guard_energy_carried_forward(certified_scenario, monkeypatch,
                                      stepper):
    sc = dataclasses.replace(
        certified_scenario, n=51, dt=0.005, horizon=0.1,
        integrator="explicit" if stepper is step_explicit else "implicit")
    fresh = solver._core_energy
    calls = []

    def counting(*args):
        calls.append(args)
        return fresh(*args)

    monkeypatch.setattr(solver, "_core_energy", counting)
    op, dt, _, table, _, _, history, state = solver.plan(sc)
    for k in range(1, 21):
        state = stepper(state, history, op, table, k - 1, dt)
        # once for the initial state, then once per new state
        assert len(calls) == k + 1
        want = (state.v, state.vt, state.p, state.pt, op)
        assert len(calls[-1]) == 5
        assert all(got is arg for got, arg in zip(calls[-1], want))
        assert state.core == fresh(state.v, state.vt, state.p, state.pt, op)
        assert len(calls) == k + 1


def test_explicit_acceleration_carried_forward(certified_scenario,
                                              monkeypatch):
    # first same as last: each explicit step stores the acceleration of the
    # state it makes, so the next step applies the stencil once, not twice
    sc = dataclasses.replace(certified_scenario, n=51, horizon=1.0)
    apply = SpatialOperator.apply
    calls = []

    def counting(op, v, p):
        calls.append((v, p))
        return apply(op, v, p)

    monkeypatch.setattr(SpatialOperator, "apply", counting)
    traj = run(sc, collect_fields=False)
    n_steps = len(traj) - 1
    assert n_steps > 100
    assert len(calls) == n_steps + 1  # one per step plus the initial state

    op, _, _, table, _, _, history, state = solver.plan(sc)
    for k in range(n_steps):
        state = step_explicit(state, history, op, table, k, traj.dt)
        n_calls = len(calls)
        carried = state.acc
        assert len(calls) == n_calls  # read from the state, not recomputed
        for got, want in zip(carried, apply(op, state.v, state.p)):
            assert np.array_equal(got, want)


def ref_records(traj):
    """One dict per record, keyed by column name."""
    return [dict(zip(solver.COLUMNS, row)) for row in traj.data.tolist()]


def ref_energy_dissipation_check(traj, certificate, c_tol=10.0):
    recs = ref_records(traj)
    if len(recs) < 2:
        return DissipationReport(0, 0, -math.inf, math.nan, 0.0)
    cmin = certificate.c if math.isfinite(certificate.c) else 0.0
    cmin = max(cmin, 0.0)
    scale = max(recs[0]["E"], 1.0)
    tol = c_tol * (traj.dt**2 + traj.grid.dx**2) * scale

    n_violations = 0
    worst_margin = -math.inf
    worst_t = math.nan
    for a, b in zip(recs[:-1], recs[1:]):
        dt_pair = b["t"] - a["t"]
        lhs = (b["E"] - a["E"]) / dt_pair
        damping = 0.5 * ((a["int_vt2"] + a["int_vt2_delayed"])
                         + (b["int_vt2"] + b["int_vt2_delayed"]))
        kernel = 0.5 * (a["kernel"] + b["kernel"])
        rhs = -cmin * damping - cmin * kernel
        margin = lhs - rhs - tol
        if margin > 0:
            n_violations += 1
        if margin > worst_margin:
            worst_margin = margin
            worst_t = b["t"]
    return DissipationReport(len(recs) - 1, n_violations, worst_margin,
                             worst_t, tol)


def ref_lyapunov_equivalence(traj, multipliers):
    ratios = []
    for r in ref_records(traj):
        e = r["E"]
        if e > 0:
            lyap = (multipliers.n * e + multipliers.n1 * r["K1"]
                    + multipliers.n2 * r["K2"] + multipliers.n3 * r["K3"])
            ratios.append(lyap / e)
    return min(ratios), max(ratios)


def ref_fit_decay_rate(traj, window_fraction=0.5):
    recs = ref_records(traj)
    e0 = recs[0]["E"]
    t_end = recs[-1]["t"]
    t_lo = t_end - window_fraction * (t_end - recs[0]["t"])
    pts = [(r["t"], r["E"]) for r in recs if r["t"] >= t_lo and r["E"] > 0]
    ts = np.array([p[0] for p in pts])
    log_e = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(ts, log_e, 1)
    resid = log_e - (slope * ts + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((log_e - log_e.mean())**2))
    r2 = 1.0 if ss_tot < 1e-300 else 1.0 - ss_res / ss_tot
    h1 = math.exp(intercept) / e0 if e0 > 0 else math.nan
    return DecayFit(h1, -float(slope), r2, (float(t_lo), float(t_end)))


@pytest.fixture(scope="module", params=["certified-decay", "undamped"])
def short_run(request):
    sc = dataclasses.replace(load_scenario(request.param), n=101,
                             horizon=2.0)
    return run(sc, collect_fields=False)


def windows(traj, width, step=1):
    """The run plus its sub-runs of width consecutive records, so that a
    check's extreme value is taken at every record in turn."""
    yield traj
    for i in range(0, len(traj) - width + 1, step):
        yield dataclasses.replace(traj, data=traj.data[i:i + width])


# repr is exact for floats and tells a numpy scalar from a float, so equal
# reprs mean bitwise-equal results of the same types


# a zero tolerance makes the check count violations
@pytest.mark.parametrize("c_tol", [10.0, 0.0])
def test_dissipation_check_matches_reference(short_run, c_tol, monkeypatch):
    monkeypatch.setattr(diagnostics, "C_TOL", c_tol)
    for traj in windows(short_run, 3):
        got = energy_dissipation_check(traj)
        assert repr(got) == repr(ref_energy_dissipation_check(
            traj, traj.certificate, c_tol))


def test_dissipation_check_tie_reports_first_pair(certified_scenario):
    # equal margins on every pair: the first pair is the worst one
    data = np.zeros((5, len(solver.COLUMNS)))
    data[:, 0] = 0.1 * np.arange(5)
    traj = solver.Trajectory(certified_scenario.certificate, None, dt=0.1,
                             grid=Grid(101, 1.0), data=data)
    got = energy_dissipation_check(traj)
    assert repr(got) == repr(ref_energy_dissipation_check(traj,
                                                          traj.certificate))
    assert got.worst_t == 0.1


def test_equivalence_matches_reference(short_run):
    mult = short_run.multipliers or Multipliers(8.0, 2.0, 1.0, 4.0, 0.4)
    for traj in windows(dataclasses.replace(short_run, multipliers=mult), 1):
        got = lyapunov_equivalence(traj)
        assert repr(got) == repr(ref_lyapunov_equivalence(traj,
                                                          traj.multipliers))
    if short_run.multipliers is not None:
        lyap = [mult.n * r["E"] + mult.n1 * r["K1"] + mult.n2 * r["K2"]
                + mult.n3 * r["K3"] for r in ref_records(short_run)]
        assert short_run.column("L").tobytes() == np.array(lyap).tobytes()


@pytest.mark.parametrize("window_fraction", [0.5, 0.9])
def test_decay_fit_matches_reference(short_run, window_fraction, monkeypatch):
    monkeypatch.setattr(diagnostics, "FIT_WINDOW", window_fraction)
    for traj in windows(short_run, 60, step=29):
        got = fit_decay_rate(traj)
        assert repr(got) == repr(ref_fit_decay_rate(traj, window_fraction))
