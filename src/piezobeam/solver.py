"""Method-of-lines discretization of the coupled beam system with delayed damping.

Spatial layout: uniform grid on [0, L], Dirichlet at x=0 for both fields,
zero-slope (Neumann) closure at x=L.  The delayed velocity v_t(x, t - tau(t))
is realized by a history ring on the run's stamps (-k*dt, each holding the
initial velocity, then the step times) with linear interpolation, not by
discretizing the auxiliary transport variable on a second axis.  The Grid
owns the spacing and the read-only trapezoid weight vector of every spatial
integral, the history's included; the SpatialOperator owns the 2x2
coefficient matrix of its stencil and wave speed; both steppers end in one
tail (blow-up guard, push, evict).  A state is built whole: its delay-free
energy parts (the guard's and the record's), its delayed velocity
v_t(t - tau(t)), sampled once per state, and an explicit step's
acceleration (the next step's first) sit beside its fields.  plan() sets a
run up whole, through its history and its state at t = 0, with every
refusal made before the first step, a delayed sample outside the history
included (the history brackets each state's sample when it is built);
run() only steps and records.  All read plan()'s profile_table.
No state changes, so the trajectory keeps the recorded states themselves as
its field snapshots, with the run's Grid beside them.

Two integrators: an explicit central-difference (velocity-Verlet style) scheme
with semi-implicit treatment of the instantaneous damping, and a backward-Euler
step, implicit in the stiff wave part and explicit in the delay: one 2x2
rotation of (v, p), then two SPD LAPACK dptsv solves: the first loads scipy's
compiled LAPACK module alone, without scipy.linalg.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import diagnostics
from .errors import (ConfigError, DivergenceError, GridError,
                     HistoryUnderrunError, ProfileEvaluationError)
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
        if not 0 < self.dx * self.dx < math.inf:  # the stencils divide by dx**2
            raise GridError(f"grid spacing {self.dx} squared is past the "
                            "float range")

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


class SimState(NamedTuple):
    """Fields at time t, their core energy parts, their delayed velocity z =
    history.sample(k) of state k and, explicit only, acc = operator.apply(v, p).
    No array changes in place: the snapshots and initial state rely on it."""

    t: float
    v: np.ndarray
    vt: np.ndarray
    p: np.ndarray
    pt: np.ndarray
    core: CoreEnergy
    z: np.ndarray
    acc: tuple | None = None


def initial_state(fields, history, operator, explicit):
    """The state at t = 0 of fields (v, v_t, p, p_t); acc only if explicit."""
    return SimState(0.0, *fields, _core_energy(*fields, operator),
                    history.sample(0),
                    operator.apply(fields[0], fields[2]) if explicit else None)


# the most floats one run's history ring, profile table or record may hold
# (1 GiB): a run that needs more is refused with a ConfigError before the
# allocation
MAX_RUN_FLOATS = 2**27


def _check_run_floats(rows, cols, what):
    if rows * cols > MAX_RUN_FLOATS:
        raise ConfigError(
            f"{what} needs {rows} x {cols} floats, more than the "
            f"{MAX_RUN_FLOATS} a run may allocate")


def profile_table(delay, weights, dt, n_steps):
    """Row k: (t_k, tau, delta1, delta1 at t_k + dt/2, delta2) at t_k, which
    adds dt k times to 0.0 as the steps do; the profiles evaluate
    elementwise, so each entry is the scalar evaluation's float."""
    _check_run_floats(n_steps + 1, 5, "the profile table")
    t = np.add.accumulate(np.r_[0.0, np.full(n_steps, dt)])
    return np.column_stack((t, delay.tau(t), weights.delta1(t),
                            weights.delta1(t + 0.5 * dt), weights.delta2(t)))


class SpatialOperator:
    """Second-difference stencil for the coupled acceleration block, with
    the beam's 2x2 coefficient matrix (BeamParams.coefficients).

    Node 0 is Dirichlet (row zeroed); node n-1 uses a mirror ghost node
    (u_n = u_{n-2}), which imposes the zero-slope condition to second order.
    The two flux conditions at x=L are equivalent to v_x(L) = p_x(L) = 0
    because the reduced stiffness alpha1 is positive, so the closure imposes
    plain zero slope on both fields.
    """

    def __init__(self, params, grid):
        self.params = params
        self.grid = grid
        self._rows = params.coefficients.tolist()  # floats, read per apply

    @cached_property
    def implicit_buffers(self):
        """step_implicit's (diag, off), refilled by _implicit_matrix."""
        n = self.grid.n
        return np.empty((2, n - 2)), np.empty((2, max(n - 3, 1)))

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
    """v_t snapshots at the run's stamps, every delayed sample bracketed
    once, when the buffer is built.

    weights (Grid.weights) sets the snapshot length and is the quadrature of
    every int v_t^2.  Push j stores the snapshot at stamps[j] in ring row
    j % cap, and its int v_t^2 at sq[j].  The run's states sit at the last
    len(taus) stamps: state k samples t_k - taus[k] once the pushes reach
    t_{max(k - lag, 0)} (lag 0: an explicit state samples after its own
    push, 1: an implicit one before it).  Its bracket, the last stamp at or
    before that time and a weight, is refused here unless it lies among the
    stamps evict serves then: those after newest - span - dt/2, and one
    before them.  Its delay window starts at the first stamp past
    t_k - taus[k] - 1e-9 dt, with a partial cell before it if that stamp is
    past t_k - taus[k] + 1e-9 dt.  The delayed velocity is the state's.
    """

    def __init__(self, dt, span, weights, stamps, taus, lag):
        self._cap = self.check_rows(dt, span, len(weights))
        # per state a query, bracket, weight, window start and partial-cell
        # flag; per stamp the oldest stamp served after its push
        _check_run_floats(len(stamps), 6, "the history's bracket table")
        s = np.array(stamps, dtype=float)
        if not np.all(s[1:] > s[:-1]):
            raise ConfigError("history timestamps must be strictly increasing")
        self._first = len(s) - len(taus)  # state k's stamp
        query = s[self._first:] - taus
        index = s.searchsorted(query, side="right") - 1
        # evict's oldest served stamp after each push
        self._served = np.maximum(0, np.minimum(
            np.arange(len(s)) - 1,
            s.searchsorted(s - span - 0.5 * dt, side="right") - 1))
        newest = self._first + np.maximum(np.arange(len(taus)) - lag, 0)
        bad = ~((index >= self._served[newest]) & (query <= s[newest]))
        if bad.any():
            k = int(bad.argmax())
            q, lo, hi = query[k], s[self._served[newest[k]]], s[newest[k]]
            raise HistoryUnderrunError(
                f"query t={q:.9g} is ahead of newest snapshot {hi:.9g} "
                f"(step {k})" if q > hi else
                f"query t={q:.9g} precedes history start {lo:.9g}; buffer "
                f"span is too short for the configured delay (step {k})")
        self._stamps, self._query, self._index = s, query, index
        self._frac = (query - s[index]) / np.append(np.diff(s), np.inf)[index]
        self._start = s.searchsorted(query - 1e-9 * dt)
        self._partial = s[self._start] > query + 1e-9 * dt
        self._w = weights
        self._ring = np.empty((self._cap, len(weights)))
        self._sq = np.empty(len(s))
        self._lo = self._end = 0  # oldest served stamp; one past the newest

    @staticmethod
    def check_rows(dt, span, n):
        """The ring's row count for snapshots of n floats; a ConfigError for
        dt <= 0 or past MAX_RUN_FLOATS: evict keeps the stamps newer than
        span + dt/2 and one before them; one more arrives between evictions."""
        if not dt > 0:
            raise ConfigError("history dt must be > 0")
        rows = int((span + 0.5 * dt) / dt + 1e-6) + 3
        _check_run_floats(rows, n, "the history ring")
        return rows

    def square_integral(self, row):
        """Trapezoid of row squared: int v_t^2 dx of a snapshot or sample."""
        return float(np.dot(row * self._w, row))

    def push(self, vt, sq_integral=None):
        """Store the snapshot at the next stamp; sq_integral is its int v_t^2
        if known."""
        j = self._end
        if j == len(self._stamps):
            raise ConfigError(f"history has no stamp past its {j} pushed")
        if j - self._lo == self._cap:
            raise ConfigError(f"history holds at most {self._cap} snapshots "
                              "between evictions")
        row = self._ring[j % self._cap]
        row[:] = vt
        self._sq[j] = (self.square_integral(row) if sq_integral is None
                       else sq_integral)
        self._end = j + 1

    def evict(self):
        """Serve only the stamps after newest - span - dt/2, and one before."""
        self._lo = int(self._served[self._end - 1])

    def sample(self, k):
        """State k's delayed velocity, linear in time and elementwise in x,
        exact at a stamp; read-only, as the state that keeps it shares it."""
        i, w = self._index[k], self._frac[k]
        snap = self._ring[i % self._cap]
        snap = (snap.copy() if w == 0.0
                else (1.0 - w) * snap + w * self._ring[(i + 1) % self._cap])
        snap.flags.writeable = False
        return snap

    def weighted_square_integral(self, k, lam, sq_lo):
        """Double integral over [t - tau, t] of exp(lam*(s-t)) * int v_t^2
        dx ds at state k's time t and delay tau.

        Trapezoid over the stamps inside the window plus its partial cell,
        if it has one, whose lower int v_t^2 is the caller's sq_lo.
        """
        j, a = self._first + k, self._start[k]
        t, t_lo = float(self._stamps[j]), float(self._query[k])
        ts = self._stamps[a:j + 1]
        f = self._sq[a:j + 1] * np.exp(lam * (ts - t))
        total = 0.5 * float(np.dot(ts[1:] - ts[:-1], f[1:] + f[:-1]))
        if self._partial[k]:
            f_lo = sq_lo * math.exp(lam * (t_lo - t))
            total += 0.5 * (f_lo + float(f[0])) * (float(ts[0]) - t_lo)
        return total


def init_history(grid, span, vt0, dt, times, taus, lag):
    """A history buffer for states at times with delays taus (the profile
    table's t and tau columns) and sample lag (HistoryBuffer), every stamp
    before times[0] holding vt0, the initial velocity extended back in time.

    The stamps are s_k = -k*dt down past -span, the longest delay served
    (>= 0), then times; vt0's int v_t^2 is computed once for all its
    snapshots.
    """
    HistoryBuffer.check_rows(dt, span + 2.0 * dt, grid.n)  # before the stamps
    k_max = int(math.ceil((span + dt) / dt))
    stamps = np.concatenate((-np.arange(k_max, 0, -1) * dt, times))
    buf = HistoryBuffer(dt, span + 2.0 * dt, grid.weights, stamps, taus, lag)
    sq = buf.square_integral(vt0)
    for _ in range(k_max + 1):
        buf.push(vt0, sq)
    return buf


def cfl_timestep(operator, delay, safety=0.5):
    """Explicit step bound: safety * dx / wave_speed, clamped to tau0 / 4.

    The delay clamp keeps at least 4 steps inside the shortest delay so the
    history interpolation stays meaningful.
    """
    if not 0 < safety <= 1:
        raise ConfigError(f"cfl safety must be in (0, 1], got {safety}")
    return min(safety * operator.grid.dx / operator.params.wave_speed,
               delay.tau0 / 4.0)


def _core_energy(v, vt, p, pt, operator):
    """Delay-free quadratic form by parts of the fields: a state's core."""
    params, dx, w = operator.params, operator.grid.dx, operator.grid.weights
    dv = v[1:] - v[:-1]
    dp = p[1:] - p[:-1]
    shear = params.gamma * dv - dp
    int_vt2 = float(np.dot(vt * w, vt))
    return CoreEnergy(
        0.5 * params.rho * int_vt2,
        0.5 * params.mu * float(np.dot(pt * w, pt)),
        0.5 * params.alpha1 * float(np.dot(dv, dv)) / dx,
        0.5 * params.beta * float(np.dot(shear, shear)) / dx,
        int_vt2)


def _finish_step(state, fields, history, operator, label):
    """Step tail: the energy of the new fields (v, v_t, p, p_t), the
    blow-up guard on it, then the push of their v_t to the history, at its
    next stamp, and the evict; returns that energy, the new state's core."""
    e_before = state.core.total
    core = _core_energy(*fields, operator)
    if not math.isfinite(core.total) or (
            e_before > 1e-300 and core.total > 10.0 * e_before):
        raise DivergenceError(
            f"energy blow-up guard tripped during {label} "
            f"({e_before:.3e} -> {core.total:.3e}); time step too large")
    history.push(fields[1], core.int_vt2)
    history.evict()
    return core


def step_explicit(state, history, operator, profiles, k, dt):
    """Central-difference step k -> k+1 with semi-implicit instantaneous
    damping; profiles is the run's profile_table.

    The delayed term is frozen from the history at t - tau(t); the
    instantaneous damping is averaged between velocity levels so large
    damping gains add no extra step restriction.
    """
    pr = operator.params
    _, _, d1_now, d1_mid, d2_now = profiles[k].tolist()
    t_new = float(profiles[k + 1, 0])  # t + dt bitwise
    z = state.z

    acc_v0, acc_p0 = state.acc
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

    fields = (v_new, vt_new, p_new, pt_new)
    core = _finish_step(state, fields, history, operator, "explicit step")
    return SimState(t_new, *fields, core, history.sample(k + 1),
                    (acc_v1, acc_p1))


_dptsv = None  # scipy's LAPACK dptsv, bound by the first solve_banded call


def solve_banded(d, e, b):
    """LAPACK dptsv, overwriting d, e and b.

    The first call imports the top-level scipy package and loads dptsv from
    its compiled LAPACK module, scipy/linalg/_flapack: the routine that
    scipy.linalg.lapack re-exports, without running scipy.linalg's
    __init__ (most of scipy's import time and memory).
    """
    global _dptsv
    if _dptsv is None:
        import scipy
        _dptsv = _load_flapack(os.path.join(scipy.__path__[0], "linalg")).dptsv
    return _dptsv(d, e, b, overwrite_d=1, overwrite_e=1, overwrite_b=1)


def _load_flapack(directory):
    """scipy's extension module _flapack from directory, loaded without
    importing its package (it is not entered in sys.modules)."""
    import importlib.util
    from importlib.machinery import (
        EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder)

    import scipy
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {directory} "
                          f"(scipy {scipy.__version__})")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _implicit_matrix(operator, dt, d1):
    """step_implicit's system for delta1 = d1: diagonals (diag[i], off[i])
    of P (I + m_i D), refilled in place, and T = A0^{-1/2} R.

    P = diag(1, ..., 1, 3/2) symmetrises D, whose last row is (2/3,
    -2/3)/dx^2.  The buffers are the operator's implicit_buffers, filled
    from m_i; off keeps max(n - 3, 1) entries, as the LAPACK wrapper rejects
    an empty one.
    S = A0^{-1/2} A1 A0^{-1/2} (s11 = -alpha/a, s22 = -beta/c, s12 =
    gamma beta/sqrt(a c)) is negative definite like A1 (det A1 = beta
    alpha1 > 0), so m_i < 0 and P (I + m_i D) is positive definite.  theta =
    atan2(2 s12, s11 - s22)/2 gives S = R diag(m1, m2) R^T for any gamma,
    0 included; m1 = det S / m2 avoids the closed form's cancellation.
    """
    pr = operator.params
    diag, off = operator.implicit_buffers

    a, c = pr.rho / dt**2 + d1 / dt, pr.mu / dt**2
    if not a > 0:  # delta1 <= -rho/dt: A0 has no real square root
        raise DivergenceError(
            f"implicit step needs rho/dt^2 + delta1/dt > 0, got {a:.6g}")
    s11, s22 = -pr.alpha / a, -pr.beta / c
    s12 = pr.gamma * pr.beta / math.sqrt(a * c)
    theta = 0.5 * math.atan2(2.0 * s12, s11 - s22)
    m2 = 0.5 * (s11 + s22 - math.hypot(s11 - s22, 2.0 * s12))
    m1, dx2 = pr.beta * pr.alpha1 / (a * c * m2), operator.grid.dx**2
    for d_i, e_i, m_i in zip(diag, off, (m1, m2)):
        d_i.fill(m_i * (-2.0 / dx2) + 1.0)
        d_i[-1] = m_i * (-1.0 / dx2) + 1.5
        e_i.fill(m_i * (1.0 / dx2))
    cs, sn = math.cos(theta), math.sin(theta)
    ra, rc = 1.0 / math.sqrt(a), 1.0 / math.sqrt(c)
    return diag, off, np.array([[ra * cs, -ra * sn], [rc * sn, rc * cs]])


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
    t_new, _, d1, _, d2_new = profiles[k + 1].tolist()
    z = history.sample(k + 1)
    diag, off, tm = _implicit_matrix(operator, dt, d1)

    r_v = ((pr.rho / dt**2 + d1 / dt) * state.v[1:-1]
           + pr.rho * state.vt[1:-1] / dt - d2_new * z[1:-1])
    r_p = pr.mu * state.p[1:-1] / dt**2 + pr.mu * state.pt[1:-1] / dt
    u = tm.T @ (r_v, r_p)
    u[:, -1] *= 1.5  # P T^T r; each solve overwrites its row
    for i in range(2):
        _, _, u[i], info = solve_banded(diag[i], off[i], u[i])
        if info:
            raise DivergenceError(f"implicit solve failed: dptsv info={info}")
    vp = np.zeros((2, operator.grid.n))
    np.matmul(tm, u, out=vp[:, 1:-1])
    vp[:, -1] = (4.0 * vp[:, -2] - vp[:, -3]) / 3.0
    vpt = (vp - (state.v, state.p)) / dt
    vpt[:, 0] = 0.0

    fields = (vp[0], vpt[0], vp[1], vpt[1])
    core = _finish_step(state, fields, history, operator, "implicit step")
    return SimState(t_new, *fields, core, z)


STEPPERS = {"explicit": step_explicit, "implicit": step_implicit}


# trajectory.csv columns, then the delay-kernel integral
COLUMNS = (
    "t", "E", "kinetic_v", "kinetic_p", "elastic", "coupling", "delay_term",
    "K1", "K2", "K3", "L", "int_vt2", "int_vt2_delayed", "kernel",
)


@dataclass
class Trajectory:
    """Recorded diagnostics: one row of data per record, columns as COLUMNS;
    grid is the run's Grid, and fields holds the recorded SimStates whose
    step is a multiple of field_stride, and the last: only recorded steps
    count, so output_stride 10 and field_stride 25 keep steps 0, 50, 100...
    status is "ok", or "diverged" on a DivergenceError's partial trajectory."""

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


def plan(scenario):
    """A run set up whole, with every refusal it makes before its first step:
    (operator, dt, n_steps, profiles, multipliers, data, history, state).
    dt is CFL- and delay-clamped, then rounded so whole steps hit the
    horizon; multipliers is None for an invalid certificate; state is the
    one at t = 0, and data the record with state's row first, refused
    unless its E and, with multipliers, its L are finite."""
    grid = Grid(scenario.n, scenario.beam.length)
    operator = SpatialOperator(scenario.beam, grid)
    certificate = scenario.certificate

    dt0 = cfl_timestep(operator, scenario.delay, scenario.cfl_safety)
    if scenario.dt is not None:
        dt0 = min(scenario.dt, scenario.delay.tau0 / 4.0)
    if not scenario.delay.tau0 > 0:  # the step is clamped to tau0 / 4
        raise ConfigError(f"delay tau0_s must be > 0 to simulate, got "
                          f"{scenario.delay.tau0}")
    steps = scenario.horizon / dt0 if dt0 > 0 else math.inf
    if steps == math.inf:  # dt0 underflowed to 0, or the quotient overflows
        raise ConfigError(f"time step {dt0} makes the step count over "
                          f"horizon_s {scenario.horizon} past the float range")
    n_steps = max(0, int(math.ceil(steps - 1e-12)))
    dt = scenario.horizon / n_steps if n_steps else dt0
    if not 0 < dt * dt < math.inf:  # the steps multiply and divide by dt**2
        raise ConfigError(f"time step {dt} squared is outside the float "
                          "range")

    with np.errstate(all="ignore"):  # a non-finite entry is refused
        profiles = profile_table(scenario.delay, scenario.weights, dt, n_steps)
    if not np.isfinite(profiles).all():
        k, col = np.argwhere(~np.isfinite(profiles))[0]
        raise ProfileEvaluationError(
            f"{('t', 'tau', 'delta1', 'delta1', 'delta2')[col]} evaluated "
            f"non-finite at t={profiles[k, 0] + (col == 3) * 0.5 * dt:.6g}")
    tau_max = float(profiles[:, 1].max())
    try:  # the delay kernel's largest weight, as build_certificate's C2
        math.exp(-certificate.lam * tau_max)
    except OverflowError:
        raise ConfigError(
            f"certificate lambda {certificate.lam} puts the delay kernel "
            f"weight exp(-lambda tau) past the float range at tau = "
            f"{tau_max}") from None
    # the longest tau stepped with, capped by tau_bar: a larger one underruns
    span = max(0.0, min(scenario.delay.tau_bar, tau_max))
    # init_history's ring, refused before any array of n floats is made
    HistoryBuffer.check_rows(dt, span + 2.0 * dt, grid.n)
    multipliers = (diagnostics.select_multipliers(
        scenario.beam, scenario.weights, certificate)
        if certificate.valid else None)
    stride = scenario.output_stride
    n_rows = n_steps // stride + 1 + (n_steps % stride > 0)
    _check_run_floats(n_rows, len(COLUMNS), "the record")
    fields = initial_fields(scenario, grid.x)
    explicit = scenario.integrator == "explicit"
    data = np.empty((n_rows, len(COLUMNS)))
    with np.errstate(all="ignore"):  # a non-finite E(0) or L(0): see below
        history = init_history(grid, span, fields[1], dt, profiles[:, 0],
                               profiles[:, 1], int(not explicit))
        state = initial_state(fields, history, operator, explicit)
        data[0] = diagnostics.energy(state, history, operator, 0,
                                     float(profiles[0, 2]), certificate,
                                     multipliers)
    if not math.isfinite(state.core.total):
        raise ConfigError(f"initial energy {state.core.total} is not finite")
    lyap = data[0, COLUMNS.index("L")]
    if multipliers is not None and not math.isfinite(lyap):
        raise ConfigError(f"initial Lyapunov value {lyap} is not finite")
    return operator, dt, n_steps, profiles, multipliers, data, history, state


def run(scenario, collect_fields=True):
    """Integrate a scenario from plan(scenario) and record its diagnostics;
    a DivergenceError carries .step and the partial trajectory
    (.trajectory)."""
    (operator, dt, n_steps, profiles, multipliers, data, history,
     state) = plan(scenario)
    certificate = scenario.certificate
    stride, field_stride = scenario.output_stride, scenario.field_stride
    traj = Trajectory(certificate, multipliers, dt, operator.grid, data,
                      [state] if collect_fields else [])
    filled = 1  # plan recorded the state at t = 0
    stepper = STEPPERS[scenario.integrator]
    with np.errstate(all="ignore"):  # the blow-up guard refuses inf and nan
        for k in range(1, n_steps + 1):
            try:
                state = stepper(state, history, operator, profiles, k - 1, dt)
            except DivergenceError as exc:
                traj.status = "diverged"
                traj.data = data[:filled]
                err = DivergenceError(f"{exc} (step {k})")
                err.step, err.trajectory = k, traj
                raise err from exc
            if k % stride == 0 or k == n_steps:
                data[filled] = diagnostics.energy(
                    state, history, operator, k, float(profiles[k, 2]),
                    certificate, multipliers)
                filled += 1
                if collect_fields and (k % field_stride == 0 or k == n_steps):
                    traj.fields.append(state)
    return traj
