"""Equivalence of the dot-product quadratures, contiguous history buffer and
column-wise certificate checks with reference implementations.

The reference functions below are the plain ``np.trapezoid`` / ``np.diff``
formulas for the energy parts and K1-K3, a deque-of-arrays history buffer
with the same eviction, bracketing and delay-kernel rules, and per-record
loops for the dissipation check, the equivalence ratios and the decay fit.
The package computes the same quantities as dot products with one trapezoid
weight vector, keeps its history in preallocated contiguous storage and
runs the checks as array expressions over the trajectory's columns.
Interpolation and check arithmetic is unchanged, so samples and check
results agree bitwise; quadrature sums run in a different order, so
integrals agree to a float64 roundoff tolerance.
"""

import dataclasses
import math
from collections import deque

import numpy as np
import pytest

from piezobeam import (
    Grid,
    HistoryBuffer,
    SimState,
    SpatialOperator,
    energy_dissipation_check,
    fit_decay_rate,
    init_history,
    load_scenario,
    lyapunov_equivalence,
    run,
    step_explicit,
    step_implicit,
)
from piezobeam import solver
from piezobeam.diagnostics import DecayFit, DissipationReport, Multipliers
from piezobeam.errors import ConfigError, HistoryUnderrunError
from piezobeam.scenario import initial_fields

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
    """Deque-of-arrays history buffer: one array per snapshot."""

    def __init__(self, dt, span, dx):
        self.dt, self.span, self.dx = dt, span, dx
        self.times, self.snaps, self.sq_integrals = deque(), deque(), deque()

    def push(self, t, vt):
        snap = np.array(vt, dtype=float, copy=True)
        self.times.append(float(t))
        self.snaps.append(snap)
        self.sq_integrals.append(float(np.trapezoid(snap**2, dx=self.dx)))

    def evict(self, t_now):
        cutoff = t_now - self.span - 0.5 * self.dt
        while len(self.times) > 2 and self.times[1] <= cutoff:
            self.times.popleft()
            self.snaps.popleft()
            self.sq_integrals.popleft()

    def sample(self, t_query):
        t0 = self.times[0]
        i = int(math.floor((t_query - t0) / self.dt))
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

    # replay the run's steps, mirroring every snapshot into the reference
    grid = Grid(sc.n, sc.beam.length)
    op = SpatialOperator(sc.beam, grid)
    v0, v1, p0, p1, g0 = initial_fields(sc, grid.x)
    state = SimState(0.0, v0, v1, p0, p1)
    history = init_history(grid, sc.delay, g0, traj.dt)
    ref = RefHistory(traj.dt, history.span, grid.dx)
    for t in history.times:
        ref.push(t, history.sample(t))

    e_ref = []
    k_err = []
    ks = np.column_stack([traj.column(name) for name in ("K1", "K2", "K3")])
    for k, (t, k_got) in enumerate(zip(traj.times, ks)):
        if k:
            state = step_explicit(state, history, op, sc.weights, sc.delay,
                                  traj.dt)
            ref.push(state.t, state.vt)
            ref.evict(state.t)
        assert t == state.t
        e_ref.append(ref_energy_total(state, ref, sc.beam, cert, sc.delay,
                                      sc.weights, grid.dx))
        k_err.append(max(abs(got - want) for got, want in zip(
            k_got, ref_lyapunov(state, sc.beam, grid.dx))))
    assert len(e_ref) == int(round(2.0 / traj.dt)) + 1

    e_ref = np.array(e_ref)
    rel = np.abs(traj.energies - e_ref) / e_ref
    assert np.max(rel) <= E_RTOL
    assert max(k_err) <= K_ATOL * max(e_ref[0], 1.0)


def test_history_buffer_matches_reference_across_evictions():
    rng = np.random.default_rng(3)
    dt, dx, n = 0.01, 0.1, 11
    span = 0.2 + 2.0 * dt
    buf = HistoryBuffer(dt, span, Grid(n, dx * (n - 1)).weights)
    ref = RefHistory(dt, span, dx)
    t = -0.25
    buf.push(t, rng.standard_normal(n))
    ref.push(t, buf.sample(t))
    capacity = len(buf._ring)
    eps = 1e-9 * dt
    for _ in range(3 * capacity + 5):
        t += dt
        snap = rng.standard_normal(n)
        for b in (buf, ref):
            b.push(t, snap)
            b.evict(t)

        assert np.array_equal(buf.times, np.asarray(ref.times))
        assert len(buf._ring) == capacity
        for ts, want in zip(ref.times, ref.snaps):
            assert np.array_equal(buf.sample(ts), want)
        for q in ref.times[0] + (ref.times[-1] - ref.times[0]) * rng.random(3):
            assert np.array_equal(buf.sample(q), ref.sample(q))
            assert buf.square_integral_at(q) == pytest.approx(
                ref.square_integral_at(q), rel=KERNEL_RTOL)
        with pytest.raises(HistoryUnderrunError):
            buf.sample(ref.times[0] - 2.0 * eps)
        with pytest.raises(HistoryUnderrunError):
            buf.sample(ref.times[-1] + 2.0 * eps)

        for tau in (0.05, 0.137, 0.2):
            if t - tau < ref.times[0]:
                continue
            got = buf.weighted_square_integral(t, tau, 0.8)
            assert got == pytest.approx(
                ref.weighted_square_integral(t, tau, 0.8), rel=KERNEL_RTOL)
        with pytest.raises(HistoryUnderrunError):
            buf.weighted_square_integral(t, t - ref.times[0] + 2.0 * eps, 0.8)


def test_history_buffer_full_without_evictions():
    # span 0.3 at dt 0.1: evicting after each push keeps at most 6 snapshots
    buf = HistoryBuffer(0.1, 0.3, Grid(4, 0.75).weights)
    for k in range(6):
        buf.push(0.1 * k, np.full(4, float(k)))
    with pytest.raises(ConfigError, match="between evictions"):
        buf.push(10.0, np.zeros(4))
    for k, t in enumerate(buf.times):
        assert np.array_equal(buf.sample(t), np.full(4, float(k)))


@pytest.mark.parametrize("stepper", [step_explicit, step_implicit])
def test_guard_energy_carried_forward(certified_scenario, monkeypatch,
                                      stepper):
    sc = certified_scenario
    grid = Grid(51, sc.beam.length)
    op = SpatialOperator(sc.beam, grid)
    dt = 0.005
    v0, v1, p0, p1, g0 = initial_fields(sc, grid.x)
    state = SimState(0.0, v0, v1, p0, p1)
    history = init_history(grid, sc.delay, g0, dt)

    fresh = solver._core_energy
    calls = []

    def counting(st, operator):
        calls.append(st)
        return fresh(st, operator)

    monkeypatch.setattr(solver, "_core_energy", counting)
    for k in range(1, 21):
        state = stepper(state, history, op, sc.weights, sc.delay, dt)
        # once for the initial state, then once per new state
        assert len(calls) == k + 1
        assert calls[-1] is state
        assert state.core_energy(op) == fresh(state, op)
        assert len(calls) == k + 1


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
    tol = c_tol * (traj.dt**2 + traj.dx**2) * scale

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


@pytest.mark.parametrize("c_tol", [10.0, 0.0])
def test_dissipation_check_matches_reference(short_run, c_tol):
    cert = short_run.certificate
    for traj in windows(short_run, 3):
        got = energy_dissipation_check(traj, cert, c_tol)
        assert repr(got) == repr(ref_energy_dissipation_check(traj, cert,
                                                              c_tol))


def test_dissipation_check_tie_reports_first_pair(certified_scenario):
    # equal margins on every pair: the first pair is the worst one
    data = np.zeros((5, len(solver.COLUMNS)))
    data[:, 0] = 0.1 * np.arange(5)
    traj = solver.Trajectory(None, None, None, dt=0.1, dx=0.01, data=data)
    cert = certified_scenario.build_certificate()
    got = energy_dissipation_check(traj, cert)
    assert repr(got) == repr(ref_energy_dissipation_check(traj, cert))
    assert got.worst_t == 0.1


def test_equivalence_matches_reference(short_run):
    mult = short_run.multipliers or Multipliers(8.0, 2.0, 1.0, 4.0, 0.4)
    for traj in windows(short_run, 1):
        got = lyapunov_equivalence(traj, mult)
        assert repr(got) == repr(ref_lyapunov_equivalence(traj, mult))
    if short_run.multipliers is not None:
        lyap = [mult.n * r["E"] + mult.n1 * r["K1"] + mult.n2 * r["K2"]
                + mult.n3 * r["K3"] for r in ref_records(short_run)]
        assert short_run.column("L").tobytes() == np.array(lyap).tobytes()


@pytest.mark.parametrize("window_fraction", [0.5, 0.9])
def test_decay_fit_matches_reference(short_run, window_fraction):
    for traj in windows(short_run, 60, step=29):
        got = fit_decay_rate(traj, window_fraction)
        assert repr(got) == repr(ref_fit_decay_rate(traj, window_fraction))
