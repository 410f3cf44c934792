"""Equivalence of the dot-product quadratures and contiguous history buffer
with reference implementations.

The reference functions below are the plain ``np.trapezoid`` / ``np.diff``
formulas for the energy parts and K1-K3, and a deque-of-arrays history
buffer with the same eviction, bracketing and delay-kernel rules.  The
package computes the same quantities as dot products with one trapezoid
weight vector and keeps its history in preallocated contiguous storage.
Interpolation arithmetic is unchanged, so samples agree bitwise; sums run in
a different order, so integrals agree to a float64 roundoff tolerance.
"""

import math
from collections import deque

import numpy as np
import pytest

from piezobeam import (
    Grid,
    HistoryBuffer,
    SimState,
    build_operator,
    init_history,
    run,
    step_explicit,
    step_implicit,
)
from piezobeam import solver
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
    sc = certified_scenario.with_overrides(n=101, horizon=2.0)
    traj = run(sc, collect_fields=False)
    cert = traj.certificate
    assert cert.valid

    # replay the run's steps, mirroring every snapshot into the reference
    grid = Grid(sc.n, sc.beam.length)
    op = build_operator(sc.beam, grid)
    v0, v1, p0, p1, g0 = initial_fields(sc, grid.x)
    state = SimState(0.0, v0, v1, p0, p1)
    history = init_history(grid, sc.delay, g0, traj.dt)
    ref = RefHistory(traj.dt, history.span, grid.dx)
    for t, snap in zip(history.times, history.snaps):
        ref.push(t, snap)

    e_ref = []
    k_err = []
    for k, rec in enumerate(traj.records):
        if k:
            state = step_explicit(state, history, op, sc.weights, sc.delay,
                                  traj.dt)
            ref.push(state.t, state.vt)
            ref.evict(state.t)
        assert rec.t == state.t
        e_ref.append(ref_energy_total(state, ref, sc.beam, cert, sc.delay,
                                      sc.weights, grid.dx))
        k_err.append(max(abs(got - want) for got, want in zip(
            (rec.k1, rec.k2, rec.k3), ref_lyapunov(state, sc.beam, grid.dx))))
    assert len(e_ref) == int(round(2.0 / traj.dt)) + 1

    e_ref = np.array(e_ref)
    rel = np.abs(traj.energies - e_ref) / e_ref
    assert np.max(rel) <= E_RTOL
    assert max(k_err) <= K_ATOL * max(e_ref[0], 1.0)


def test_history_buffer_matches_reference_across_evictions():
    rng = np.random.default_rng(3)
    dt, dx, n = 0.01, 0.1, 11
    span = 0.2 + 2.0 * dt
    buf = HistoryBuffer(dt, span, dx)
    ref = RefHistory(dt, span, dx)
    t = -0.25
    buf.push(t, rng.standard_normal(n))
    ref.push(t, buf.newest)
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
    buf = HistoryBuffer(0.1, 0.3, 0.25)
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
    op = build_operator(sc.beam, grid)
    dt = 0.005
    v0, v1, p0, p1, g0 = initial_fields(sc, grid.x)
    state = SimState(0.0, v0, v1, p0, p1)
    history = init_history(grid, sc.delay, g0, dt)

    fresh = solver._core_energy
    calls = []

    def counting(st, params):
        calls.append(st)
        return fresh(st, params)

    monkeypatch.setattr(solver, "_core_energy", counting)
    for k in range(1, 21):
        state = stepper(state, history, op, sc.weights, sc.delay, dt)
        # once for the initial state, then once per new state
        assert len(calls) == k + 1
        assert calls[-1] is state
        assert state.core_energy(sc.beam) == fresh(state, sc.beam)
        assert len(calls) == k + 1
