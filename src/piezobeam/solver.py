"""Method-of-lines discretization of the coupled beam system with delayed damping.

Spatial layout: uniform grid on [0, L], Dirichlet at x=0 for both fields,
zero-slope (Neumann) closure at x=L.  The delayed velocity v_t(x, t - tau(t))
is realized by a time-stamped history buffer (a preallocated ring of rows)
with linear interpolation, not by discretizing the auxiliary transport
variable on a second axis.  The Grid owns the spacing and the read-only
trapezoid weight vector of every spatial integral, the history's included;
the SpatialOperator owns the 2x2 coefficient matrix of its stencil and wave
speed; both steppers end in one tail (blow-up guard, history push, evict).
Each state caches its delay-free energy parts, so the guard and the record
(diagnostics.energy, one call per trajectory row) share one evaluation, and
an explicit step caches the new state's acceleration, the next step's first.
The steppers and the record read the profiles from run()'s profile_table.
No state is modified in place, so the trajectory keeps the recorded states
themselves as its field snapshots, with the run's Grid beside them.

Two integrators: an explicit central-difference (velocity-Verlet style) scheme
with semi-implicit treatment of the instantaneous damping, and a backward-Euler
step, implicit in the stiff wave part and explicit in the delay: one 2x2
rotation of (v, p), then two symmetric positive definite LAPACK dptsv solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
# bound as solve_banded, the name under which the benchmark traces the solve
from scipy.linalg.lapack import dptsv as solve_banded

from . import diagnostics
from .errors import (
    ConfigError,
    DivergenceError,
    GridError,
    HistoryUnderrunError,
    ProfileEvaluationError,
)
from .scenario import initial_fields


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid with x_0 = 0 and x_{n-1} = L."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 3:
            raise GridError(f"grid needs at least 3 nodes, got n={self.n}")
        if not self.length > 0:
            raise GridError("grid length must be > 0")

    @property
    def dx(self):
        return self.length / (self.n - 1)

    @property
    def x(self):
        return np.linspace(0.0, self.length, self.n)

    @cached_property
    def weights(self):
        """Read-only trapezoid weights, built once per grid: ``w @ f``
        integrates f."""
        w = np.full(self.n, float(self.dx))
        w[0] = w[-1] = 0.5 * self.dx
        w.flags.writeable = False
        return w


class CoreEnergy(NamedTuple):
    """Delay-free energy parts of one state; int_vt2 is int v_t^2 dx."""

    kinetic_v: float
    kinetic_p: float
    elastic: float
    coupling: float
    int_vt2: float

    @property
    def total(self):
        return self.kinetic_v + self.kinetic_p + self.elastic + self.coupling


@dataclass
class SimState:
    """Fields at time t; never modified in place, which the initial state
    (initial_fields' own arrays), the field snapshots and caches rely on."""

    t: float
    v: np.ndarray
    vt: np.ndarray
    p: np.ndarray
    pt: np.ndarray
    _core: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)
    _acc: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    def core_energy(self, operator):
        """Delay-free energy parts on operator's grid, computed once."""
        if self._core is None or self._core[0] is not operator:
            self._core = (operator, _core_energy(self, operator))
        return self._core[1]

    def acceleration(self, operator):
        """operator.apply(v, p), computed once, or stored by step_explicit."""
        if self._acc is None or self._acc[0] is not operator:
            self._acc = (operator, operator.apply(self.v, self.p))
        return self._acc[1]


def profile_table(delay, weights, dt, n_steps):
    """Row k: (t_k, tau, delta1, delta1 at t_k + dt/2, delta2) at t_k, which
    adds dt k times to 0.0 as the steps do; the profiles evaluate
    elementwise, so each entry is the scalar evaluation's float."""
    t = np.add.accumulate(np.r_[0.0, np.full(n_steps, dt)])
    return np.column_stack((t, delay.tau(t), weights.delta1(t),
                            weights.delta1(t + 0.5 * dt), weights.delta2(t)))


class SpatialOperator:
    """Second-difference stencil for the coupled acceleration block.

    Accelerations, with the 2x2 coefficient matrix built once in __init__:
        a_v = (alpha/rho) v_xx - (gamma*beta/rho) p_xx
        a_p = (beta/mu)   p_xx - (gamma*beta/mu)  v_xx

    Node 0 is Dirichlet (row zeroed); node n-1 uses a mirror ghost node
    (u_n = u_{n-2}), which imposes the zero-slope condition to second order.
    The two flux conditions at x=L are equivalent to v_x(L) = p_x(L) = 0
    because the reduced stiffness alpha1 is positive, so the closure imposes
    plain zero slope on both fields.
    """

    def __init__(self, params, grid):
        self.params = params
        self.grid = grid
        self.coefficients = np.array([
            [params.alpha / params.rho, -params.gamma * params.beta / params.rho],
            [-params.gamma * params.beta / params.mu, params.beta / params.mu],
        ])
        self._rows = self.coefficients.tolist()  # floats, read per apply
        self._implicit_cache = None

    @property
    def wave_speed(self):
        """Fastest characteristic speed: sqrt of the largest eigenvalue."""
        return math.sqrt(float(np.max(np.real(
            np.linalg.eigvals(self.coefficients)))))

    def second_difference(self, u):
        dx2 = self.grid.dx**2
        out = np.empty_like(u)
        out[0] = 0.0
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx2
        out[-1] = 2.0 * (u[-2] - u[-1]) / dx2  # mirror ghost: u_n = u_{n-2}
        return out

    def apply(self, v, p):
        (a_vv, a_vp), (a_pv, a_pp) = self._rows
        d2v = self.second_difference(v)
        d2p = self.second_difference(p)
        return a_vv * d2v + a_vp * d2p, a_pp * d2p + a_pv * d2v


class HistoryBuffer:
    """Time-stamped v_t snapshots for delayed sampling.

    weights is the grid's trapezoid weight vector (Grid.weights): it sets
    the snapshot length and is the quadrature of every int v_t^2.
    Timestamps are equispaced with gap dt.  Snapshots fill a ring of cap
    rows, the most the span holds between evictions, allocated here.
    Timestamps and each snapshot's cached int v_t^2 sit in flat arrays of
    2*cap entries (entry f pairs with ring row f % cap), shifted down by cap
    once per cap pushes, so every delay window is one contiguous slice.  The
    last interpolated query is kept until a push could change it.  Stored
    snapshots are read back with sample(t) at their stamps, which is exact.
    """

    def __init__(self, dt, span, weights):
        if not dt > 0:
            raise ConfigError("history dt must be > 0")
        self.dt = dt
        self.span = span
        # evict keeps the stamps newer than span + dt/2 and one before them;
        # one more arrives between evictions
        self._cap = int((span + 0.5 * dt) / dt + 1e-6) + 3
        self._w = weights
        self._ring = np.empty((self._cap, len(weights)))
        self._times = np.empty(2 * self._cap)
        self._sq = np.empty(2 * self._cap)
        self._lo = self._len = 0  # flat index of the oldest entry; count
        self._memo_t = self._memo = self._memo_sq = None

    def _row(self, i):
        return self._ring[(self._lo + i) % self._cap]

    def _square_integral(self, row):
        return float(np.dot(row * self._w, row))

    def push(self, t, vt, sq_integral=None):
        """Append the snapshot at t; sq_integral is its int v_t^2 if known."""
        if self._len and not t > self.newest_time:
            raise ConfigError("history timestamps must be strictly increasing")
        if self._len == self._cap:
            raise ConfigError(f"history holds at most {self._cap} snapshots "
                              "between evictions")
        if self._lo + self._len == 2 * self._cap:
            self._times[:self._cap] = self._times[self._cap:]
            self._sq[:self._cap] = self._sq[self._cap:]
            self._lo -= self._cap
        # an interpolant at or before the old newest stamp keeps its bracket
        if self._memo_t is not None and self._memo_t > self.newest_time:
            self._memo_t = None
        row = self._row(self._len)
        row[:] = vt
        end = self._lo + self._len
        self._times[end] = t
        self._sq[end] = (self._square_integral(row) if sq_integral is None
                         else sq_integral)
        self._len += 1

    def evict(self, t_now):
        cutoff = t_now - self.span - 0.5 * self.dt
        while self._len > 2 and self._times[self._lo + 1] <= cutoff:
            self._lo += 1
            self._len -= 1

    @property
    def times(self):
        return self._times[self._lo:self._lo + self._len].copy()

    @property
    def newest_time(self):
        return float(self._times[self._lo + self._len - 1])

    def sample(self, t_query):
        """Linear interpolation in time, elementwise in x; exact at stored stamps.

        The result is read-only: later queries at t_query share it.
        """
        t0 = float(self._times[self._lo])
        eps = 1e-9 * self.dt
        if t_query < t0 - eps:
            raise HistoryUnderrunError(
                f"query t={t_query:.9g} precedes history start {t0:.9g}; "
                "buffer span is too short for the configured delay")
        if t_query > self.newest_time + eps:
            raise HistoryUnderrunError(
                f"query t={t_query:.9g} is ahead of newest snapshot "
                f"{self.newest_time:.9g}")
        if t_query == self._memo_t:
            return self._memo
        if self._len == 1:
            snap = self._row(0).copy()
        else:
            pos = (t_query - t0) / self.dt
            i = max(0, min(int(math.floor(pos)), self._len - 2))
            t_i = float(self._times[self._lo + i])
            w = (t_query - t_i) / (float(self._times[self._lo + i + 1]) - t_i)
            w = min(max(w, 0.0), 1.0)
            if w == 0.0 or w == 1.0:
                snap = self._row(i + int(w)).copy()
            else:
                snap = (1.0 - w) * self._row(i) + w * self._row(i + 1)
        snap.flags.writeable = False
        self._memo_t, self._memo, self._memo_sq = t_query, snap, None
        return snap

    def square_integral_at(self, t_query):
        """Trapezoid of the interpolated snapshot squared."""
        snap = self.sample(t_query)
        if self._memo_sq is None:
            self._memo_sq = self._square_integral(snap)
        return self._memo_sq

    def weighted_square_integral(self, t, tau_t, lam):
        """Double integral over [t - tau_t, t] of exp(lam*(s-t)) * int v_t^2 dx ds.

        Trapezoid over the stored timestamps inside the window plus a partial
        cell at the lower endpoint using the interpolated snapshot there.
        """
        t_lo = t - tau_t
        times = self._times[self._lo:self._lo + self._len]
        eps = 1e-9 * self.dt
        if t_lo < times[0] - eps:
            raise HistoryUnderrunError(
                f"delay-energy window start {t_lo:.9g} precedes history start")
        a = int(times.searchsorted(t_lo - eps, side="left"))
        b = int(times.searchsorted(t + eps, side="right"))
        ts = times[a:b]
        f = self._sq[self._lo + a:self._lo + b] * np.exp(lam * (ts - t))
        total = (0.5 * float(np.dot(ts[1:] - ts[:-1], f[1:] + f[:-1]))
                 if len(ts) > 1 else 0.0)
        # partial cell between t_lo and the first stored stamp in the window
        if len(ts) > 0 and ts[0] > t_lo + eps:
            f_lo = self.square_integral_at(t_lo) * math.exp(lam * (t_lo - t))
            total += 0.5 * (f_lo + float(f[0])) * (float(ts[0]) - t_lo)
        return total


def init_history(grid, delay, g0, dt):
    """Pre-fill a history buffer from the initial-history function g0(x, s).

    Snapshots at s_k = -k*dt down past -tau_bar; the newest entry (s=0)
    matches the initial velocity when g0(., 0) does.
    """
    buf = HistoryBuffer(dt, delay.tau_bar + 2.0 * dt, grid.weights)
    k_max = int(math.ceil((delay.tau_bar + dt) / dt))
    x = grid.x
    for k in range(k_max, -1, -1):
        s = -k * dt
        snap = np.asarray(g0(x, s), dtype=float)
        if not np.all(np.isfinite(snap)):
            raise ProfileEvaluationError(
                f"initial history g0 non-finite at s={s:.6g}"
            )
        buf.push(s, snap)
    return buf


def cfl_timestep(operator, delay=None, safety=0.5):
    """Explicit step bound: safety * dx / wave_speed, clamped to tau0 / 4.

    The delay clamp keeps at least 4 steps inside the shortest delay so the
    history interpolation stays meaningful.
    """
    if not 0 < safety <= 1:
        raise ConfigError(f"cfl safety must be in (0, 1], got {safety}")
    dt = safety * operator.grid.dx / operator.wave_speed
    if delay is not None:
        dt = min(dt, delay.tau0 / 4.0)
    return dt


def _core_energy(state, operator):
    """Delay-free quadratic form by parts; read through SimState.core_energy."""
    params, dx, w = operator.params, operator.grid.dx, operator.grid.weights
    dv = state.v[1:] - state.v[:-1]
    dp = state.p[1:] - state.p[:-1]
    shear = params.gamma * dv - dp
    int_vt2 = float(np.dot(state.vt * w, state.vt))
    return CoreEnergy(
        0.5 * params.rho * int_vt2,
        0.5 * params.mu * float(np.dot(state.pt * w, state.pt)),
        0.5 * params.alpha1 * float(np.dot(dv, dv)) / dx,
        0.5 * params.beta * float(np.dot(shear, shear)) / dx,
        int_vt2)


def _finish_step(state, new, history, operator, label):
    """Step tail: blow-up guard on the new state's energy, then push its v_t
    to the history and evict; returns new."""
    e_before = state.core_energy(operator).total
    core = new.core_energy(operator)
    if not math.isfinite(core.total) or (
            e_before > 1e-300 and core.total > 10.0 * e_before):
        raise DivergenceError(
            f"energy blow-up guard tripped during {label} "
            f"({e_before:.3e} -> {core.total:.3e}); time step too large",
        )
    history.push(new.t, new.vt, core.int_vt2)
    history.evict(new.t)
    return new


def step_explicit(state, history, operator, profiles, k, dt):
    """Central-difference step k -> k+1 with semi-implicit instantaneous
    damping; profiles is the run's profile_table.

    The delayed term is frozen from the history at t - tau(t); the
    instantaneous damping is averaged between velocity levels so large
    damping gains add no extra step restriction.
    """
    pr = operator.params
    t, tau_t, d1_now, d1_mid, d2_now = profiles[k].tolist()
    z = history.sample(t - tau_t)

    acc_v0, acc_p0 = state.acceleration(operator)
    total_v0 = acc_v0 - (d1_now * state.vt + d2_now * z) / pr.rho

    v_new = state.v + dt * state.vt + 0.5 * dt**2 * total_v0
    p_new = state.p + dt * state.pt + 0.5 * dt**2 * acc_p0
    v_new[0] = p_new[0] = 0.0

    acc_v1, acc_p1 = operator.apply(v_new, p_new)
    pt_new = state.pt + 0.5 * dt * (acc_p0 + acc_p1)
    vt_new = ((pr.rho - 0.5 * dt * d1_mid) * state.vt
              + 0.5 * dt * pr.rho * (acc_v0 + acc_v1)
              - dt * d2_now * z) / (pr.rho + 0.5 * dt * d1_mid)
    vt_new[0] = pt_new[0] = 0.0

    new = SimState(t + dt, v_new, vt_new, p_new, pt_new)
    new._acc = (operator, (acc_v1, acc_p1))
    return _finish_step(state, new, history, operator, "explicit step")


def _implicit_matrix(operator, dt, d1):
    """step_implicit's system for delta1 = d1: diagonals (diag[i], off[i])
    of P (I + m_i D), refilled in place, and T = A0^{-1/2} R.

    P = diag(1, ..., 1, 3/2) symmetrises D, whose last row is (2/3,
    -2/3)/dx^2.  The read-only template (the diagonals of P and P D, and
    P D's off-diagonal) and the buffers are built once per operator; off
    keeps max(n - 3, 1) entries, as the LAPACK wrapper rejects an empty one.
    S = A0^{-1/2} A1 A0^{-1/2} (s11 = -alpha/a, s22 = -beta/c, s12 =
    gamma beta/sqrt(a c)) is negative definite like A1 (det A1 = beta
    alpha1 > 0), so m_i < 0 and P (I + m_i D) is positive definite.  theta =
    atan2(2 s12, s11 - s22)/2 gives S = R diag(m1, m2) R^T for any gamma,
    0 included; m1 = det S / m2 avoids the closed form's cancellation.
    """
    pr = operator.params
    if operator._implicit_cache is None:
        n, dx2 = operator.grid.n, operator.grid.dx**2
        template = np.outer([1.0, -2.0 / dx2, 1.0 / dx2], np.ones(n - 2))
        template[:2, -1] = 1.5, -1.0 / dx2
        template.flags.writeable = False
        operator._implicit_cache = (template, np.empty((2, n - 2)),
                                    np.empty((2, max(n - 3, 1))))
    template, diag, off = operator._implicit_cache

    a, c = pr.rho / dt**2 + d1 / dt, pr.mu / dt**2
    s11, s22 = -pr.alpha / a, -pr.beta / c
    s12 = pr.gamma * pr.beta / math.sqrt(a * c)
    theta = 0.5 * math.atan2(2.0 * s12, s11 - s22)
    m2 = 0.5 * (s11 + s22 - math.hypot(s11 - s22, 2.0 * s12))
    m = np.array([[pr.beta * pr.alpha1 / (a * c * m2)], [m2]])  # m1, m2
    np.multiply(m, template[1], out=diag)
    diag += template[0]
    np.multiply(m, template[2, :off.shape[1]], out=off)
    cs, sn = math.cos(theta), math.sin(theta)
    ra, rc = 1.0 / math.sqrt(a), 1.0 / math.sqrt(c)
    return diag, off, ((ra * cs, -ra * sn), (rc * sn, rc * cs))


def step_implicit(state, history, operator, profiles, k, dt):
    """Backward-Euler step k -> k+1, implicit in the wave part, explicit in
    the delay; profiles is the run's profile_table.

    With u_0 = 0 and the zero-slope row u_{n-1} = (4 u_{n-2} - u_{n-3})/3
    eliminated, both fields share the interior second difference D, and
    (A0 + A1 D)[w; q] = r, with A0 = diag(a, c), a = rho/dt^2 + delta1/dt,
    c = mu/dt^2, A1 = [[-alpha, gamma beta], [gamma beta, -beta]].  As
    A0 + A1 D = A0^{1/2} R (I + diag(m1, m2) D) R^T A0^{1/2}, [w; q] =
    T (P (I + m_i D))^{-1} P T^T r, T = A0^{-1/2} R: two SPD dptsv solves.
    """
    pr = operator.params
    t_new, tau_new, d1, _, d2_new = profiles[k + 1].tolist()
    z = history.sample(t_new - tau_new)
    diag, off, ((t11, t12), (t21, t22)) = _implicit_matrix(operator, dt, d1)

    r_v = ((pr.rho / dt**2 + d1 / dt) * state.v[1:-1]
           + pr.rho * state.vt[1:-1] / dt - d2_new * z[1:-1])
    r_p = pr.mu * state.p[1:-1] / dt**2 + pr.mu * state.pt[1:-1] / dt
    u = np.array([[t11], [t12]]) * r_v + np.array([[t21], [t22]]) * r_p
    u[:, -1] *= 1.5  # P T^T r; each solve overwrites its row
    for i in range(2):
        _, _, u[i], info = solve_banded(diag[i], off[i], u[i], overwrite_d=1,
                                        overwrite_e=1, overwrite_b=1)
        if info:
            raise DivergenceError(f"implicit solve failed: dptsv info={info}")
    vp = np.zeros((2, operator.grid.n))
    vp[0, 1:-1] = t11 * u[0] + t12 * u[1]
    vp[1, 1:-1] = t21 * u[0] + t22 * u[1]
    vp[:, -1] = (4.0 * vp[:, -2] - vp[:, -3]) / 3.0
    vpt = (vp - (state.v, state.p)) / dt
    vpt[:, 0] = 0.0

    return _finish_step(state, SimState(t_new, vp[0], vpt[0], vp[1], vpt[1]),
                        history, operator, "implicit step")


STEPPERS = {"explicit": step_explicit, "implicit": step_implicit}


# trajectory.csv columns, then the delay-kernel integral
COLUMNS = (
    "t", "E", "kinetic_v", "kinetic_p", "elastic", "coupling", "delay_term",
    "K1", "K2", "K3", "L", "int_vt2", "int_vt2_delayed", "kernel",
)


@dataclass
class Trajectory:
    """Recorded diagnostics: one row of data per record, columns as COLUMNS;
    grid is the run's Grid, and fields holds the recorded SimStates at every
    field_stride-th step and the last."""

    scenario: "object"
    certificate: "object"
    multipliers: "object"
    dt: float
    grid: Grid
    data: np.ndarray
    fields: list = field(default_factory=list)
    status: str = "ok"

    def __len__(self):
        return len(self.data)

    def column(self, name):
        return self.data[:, COLUMNS.index(name)]

    @property
    def times(self):
        return self.column("t")

    @property
    def energies(self):
        return self.column("E")


def run(scenario, collect_fields=True):
    """Integrate a scenario and record energy/Lyapunov diagnostics.

    Deterministic: fixed dt (CFL- and delay-clamped, then rounded so an
    integer number of steps hits the horizon exactly), no randomness.
    A DivergenceError, or a HistoryUnderrunError after step 0, is raised
    with .step and the partial trajectory (.trajectory) attached.
    """
    grid = Grid(scenario.n, scenario.beam.length)
    operator = SpatialOperator(scenario.beam, grid)
    certificate = scenario.certificate

    dt0 = cfl_timestep(operator, scenario.delay, scenario.cfl_safety)
    if scenario.dt is not None:
        dt0 = min(scenario.dt, scenario.delay.tau0 / 4.0)
    n_steps = max(0, int(math.ceil(scenario.horizon / dt0 - 1e-12)))
    dt = scenario.horizon / n_steps if n_steps else dt0

    v0, v1, p0, p1, g0 = initial_fields(scenario, grid.x)
    state = SimState(0.0, v0, v1, p0, p1)
    history = init_history(grid, scenario.delay, g0, dt)
    profiles = profile_table(scenario.delay, scenario.weights, dt, n_steps)

    multipliers = None
    if certificate.valid:
        multipliers = diagnostics.select_multipliers(
            scenario.beam, scenario.weights, certificate)

    stride = scenario.output_stride
    n_rows = n_steps // stride + 1 + (n_steps % stride > 0)
    traj = Trajectory(scenario, certificate, multipliers, dt, grid,
                      np.empty((n_rows, len(COLUMNS))))
    filled = 0

    def record(k, st):
        nonlocal filled
        _, tau_t, d1, _, _ = profiles[k].tolist()
        traj.data[filled] = diagnostics.energy(
            st, history, operator, tau_t, d1, certificate, multipliers)
        filled += 1
        if collect_fields and (k % scenario.field_stride == 0 or k == n_steps):
            traj.fields.append(st)

    stepper = STEPPERS[scenario.integrator]
    record(0, state)
    for k in range(1, n_steps + 1):
        try:
            state = stepper(state, history, operator, profiles, k - 1, dt)
            if k % stride == 0 or k == n_steps:
                record(k, state)
        except (DivergenceError, HistoryUnderrunError) as exc:
            diverged = isinstance(exc, DivergenceError)
            traj.status = "diverged" if diverged else "error"
            traj.data = traj.data[:filled]
            err = type(exc)(f"{exc} (step {k})")
            err.step, err.trajectory = k, traj
            raise err from exc
    return traj
