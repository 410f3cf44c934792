"""Energy and Lyapunov diagnostics along simulated trajectories.

energy() is the one record function: it returns a whole trajectory row.
Spatial integrals are dot products with the grid's trapezoid weight vector;
derivatives use staggered midpoint differences (second order, and consistent
with the discrete stiffness form, so the measured energy of the undamped
semi-discrete system is conserved up to time-integration error only).  The
delay-free parts are the state's core; int_vt2_delayed is int z^2 dx of its
delayed velocity z.  The delay-energy double integral is a trapezoid over the
history's cached square integrals with an exponential kernel and a partial
cell at the moving lower endpoint.  The checks of a finished run take the
trajectory alone, with the certificate and multipliers it carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDataError, MultiplierSearchError, UndefinedRatioError

MARGIN = 1.01  # each multiplier over its threshold, in select_multipliers
C_TOL = 10.0  # energy_dissipation_check's tolerance per (dt^2 + dx^2)
FIT_WINDOW = 0.5  # trailing fraction of the run that fit_decay_rate reads


def energy(state, history, operator, k, d1, certificate, multipliers):
    """The trajectory row of the run's state k at its time t, in
    solver.COLUMNS order; d1 is delta1(t), from the run's profile_table.

    E adds to the delay-free energy a delay term of weight xi_bar * d1;
    an invalid certificate (non-finite xi_bar) contributes no delay energy.
    L = N*E + N1*K1 + N2*K2 + N3*K3 is NaN when multipliers is None.
    """
    xi_bar = certificate.xi_bar if math.isfinite(certificate.xi_bar) else 0.0
    lam = certificate.lam if math.isfinite(certificate.lam) else 0.0
    t = state.t
    xi_t = xi_bar * d1
    core = state.core

    int_vt2_delayed = history.square_integral(state.z)
    kernel = history.weighted_square_integral(k, lam, int_vt2_delayed)
    delay_term = 0.5 * xi_t * kernel
    e = core.total + delay_term

    params, w = operator.params, operator.grid.weights
    k1 = lyapunov_k1(state, params, w)
    k2 = lyapunov_k2(state, params, w)
    k3 = lyapunov_k3(state, params, w)
    lyap = (math.nan if multipliers is None
            else multipliers.combine(e, k1, k2, k3))
    return (t, e, *core[:4], delay_term, k1, k2, k3, lyap, core.int_vt2,
            int_vt2_delayed, kernel)


def lyapunov_k1(state, params, w):
    """rho * int v_t v + gamma mu * int p_t v; w is the grid's weight vector."""
    wv = w * state.v
    return float(params.rho * np.dot(state.vt, wv)
                 + params.gamma * params.mu * np.dot(state.pt, wv))


def lyapunov_k2(state, params, w):
    """rho * int v_t (gamma v - p) + gamma mu * int p_t (gamma v - p)."""
    wu = w * (params.gamma * state.v - state.p)
    return float(params.rho * np.dot(state.vt, wu)
                 + params.gamma * params.mu * np.dot(state.pt, wu))


def lyapunov_k3(state, params, w):
    """rho * int v_t v + mu * int p_t p."""
    return float(params.rho * np.dot(state.vt, w * state.v)
                 + params.mu * np.dot(state.pt, w * state.p))


@dataclass(frozen=True)
class Multipliers:
    """Weights of the combined Lyapunov functional N*E + N1*K1 + N2*K2 + N3*K3."""

    n: float
    n1: float
    n2: float
    n3: float
    c_prime: float

    def combine(self, e, k1, k2, k3):
        """L = N*E + N1*K1 + N2*K2 + N3*K3, on floats or arrays."""
        return self.n * e + self.n1 * k1 + self.n2 * k2 + self.n3 * k3


def default_poincare_constant(length):
    """Poincare constant of (0, L) with a left Dirichlet condition: (2L/pi)^2."""
    return (2.0 * length / math.pi)**2


def multiplier_inequalities(params, weights, certificate, mult):
    """The five sign conditions the multiplier choice must satisfy.

    Returns the five left-hand sides; each must exceed 1.  Free constants
    follow the coefficient-balancing choices documented in
    select_multipliers.
    """
    pr = params
    a1 = pr.alpha1
    cp = mult.c_prime
    d10 = float(weights.delta1(0.0))
    beta0 = weights.beta0
    cmin = certificate.c
    n, n1, n2, n3 = mult.n, mult.n1, mult.n2, mult.n3

    eps = cp * d10 / a1 if d10 > 0 else 1.0  # eps1..eps4 all equal
    # coefficient of |v_x|^2 inside each bracket: a1 - a1/4 - beta0*a1/4
    a_coeff = a1 * (3.0 - beta0) / 4.0

    ineq_coupling = n3 * pr.beta - 3.0
    ineq_pt = n2 * pr.gamma * pr.mu / 2.0 - pr.gamma * pr.mu / 4.0 - n3 * pr.mu
    ineq_vx = n1 * a_coeff - n2**2 * a1**2 / 4.0 + n3 * a_coeff

    s1 = (n1 * (pr.rho + n1 * pr.gamma * pr.mu + eps * d10)
          + n2 * (pr.rho * pr.gamma + pr.rho**2 / (pr.gamma * pr.mu)
                  + pr.gamma**3 * pr.mu + n2 * cp * d10**2 / 4.0)
          + n3 * (pr.rho + eps * d10))
    ineq_vt = cmin * n - s1

    if beta0 > 0:
        s2 = (n1 * eps * beta0 * d10
              + n2 * (n2 * cp * beta0**2 * d10**2 / 4.0)
              + n3 * eps * beta0 * d10)
    else:
        s2 = 0.0
    ineq_delayed = cmin * n - s2

    return (ineq_coupling, ineq_pt, ineq_vx, ineq_vt, ineq_delayed)


def select_multipliers(params, weights, certificate):
    """The multipliers in closed form, set in dependency order.

    Free constants: eps_i = c' * delta1(0) / alpha1 (each Young term then
    equals alpha1/4), eta1 = gamma*mu/(4 rho) and eta2 = 1/(4 gamma) (the
    p_t coefficient becomes exactly gamma*mu/2), eta5 = 1/(N2 alpha1),
    eta3 = 1/(N2 c' delta1(0)), eta4 = 1/(N2 c' beta0 delta1(0)).  From all
    at 0, N3, N2, N1, N are set in turn.  Each own side reads no later one,
    and is a + x (b - a) in the one set, x, with a, b its values at x = 0, 1;
    for b > a it exceeds 1 iff x > (1 - a) / (b - a).  x is MARGIN times the
    largest such threshold, and at least 1.  c' (the Poincare constant of
    the beam's length) underflows to 0 for a tiny L.
    """
    try:
        c_prime = default_poincare_constant(params.length)
    except OverflowError:
        raise MultiplierSearchError(
            f"Poincare constant of length {params.length} is past the float "
            "range") from None
    if not c_prime > 0:
        raise MultiplierSearchError(
            f"Poincare constant must be > 0, got {c_prime} "
            "(the eta constants divide by it)")
    if not params.gamma > 0:
        raise MultiplierSearchError(
            f"multiplier search needs gamma > 0, got {params.gamma} "
            "(the v_t inequality's 1/(gamma mu) term divides by it)")
    if not certificate.c > 0:
        raise MultiplierSearchError(
            "certificate dissipation constant is non-positive; "
            "no admissible multipliers")

    mult = Multipliers(0.0, 0.0, 0.0, 0.0, c_prime)
    for name, lo, hi in (("n3", 0, 1), ("n2", 1, 2), ("n1", 2, 3), ("n", 3, 5)):
        try:  # the own left sides at x = 0 and at x = 1
            at0, at1 = (multiplier_inequalities(params, weights, certificate,
                        replace(mult, **{name: x}))[lo:hi] for x in (0.0, 1.0))
        except OverflowError:
            raise MultiplierSearchError(
                "multiplier inequalities are past the float range for "
                "these beam and damping parameters") from None
        x = MARGIN * float(np.max([(1.0 - a) / (b - a) if b > a else math.nan
                                   for a, b in zip(at0, at1)]))
        if not math.isfinite(x):  # nan where a side does not grow with x
            raise MultiplierSearchError(f"the {name.upper()} inequalities "
                                        "cannot clear 1 for these parameters")
        mult = replace(mult, **{name: max(1.0, x)})
    return mult


@dataclass(frozen=True)
class DissipationReport:
    """Per-step check of the certified energy-decay inequality."""

    n_pairs: int
    n_violations: int
    worst_margin: float  # most positive violation; <= 0 means all pairs pass
    worst_t: float
    tolerance: float

    @property
    def passed(self):
        return self.n_violations == 0


def energy_dissipation_check(trajectory):
    """Check dE/dt <= -C (int v_t^2 + delayed) - C * kernel integral, discretely,
    with C the constant of the trajectory's certificate.

    The continuum inequality is checked between consecutive records with the
    right-hand side averaged over the pair and a resolution-scaled tolerance
    C_TOL * (dt^2 + dx^2) * max(E(0), 1).
    """
    if len(trajectory) < 2:
        return DissipationReport(0, 0, -math.inf, math.nan, 0.0)
    cmin = trajectory.certificate.c
    cmin = max(cmin, 0.0) if math.isfinite(cmin) else 0.0
    t, e = trajectory.times, trajectory.energies
    scale = max(float(e[0]), 1.0)
    tol = C_TOL * (trajectory.dt**2 + trajectory.grid.dx**2) * scale

    lhs = (e[1:] - e[:-1]) / (t[1:] - t[:-1])
    vt2 = trajectory.column("int_vt2") + trajectory.column("int_vt2_delayed")
    damping = 0.5 * (vt2[:-1] + vt2[1:])
    kern = trajectory.column("kernel")
    kernel = 0.5 * (kern[:-1] + kern[1:])
    rhs = -cmin * damping - cmin * kernel
    margin = lhs - rhs - tol
    worst = int(np.argmax(margin))
    return DissipationReport(len(margin), int(np.count_nonzero(margin > 0)),
                             float(margin[worst]), float(t[worst + 1]), tol)


def lyapunov_equivalence(trajectory):
    """Empirical equivalence ratios (b1, b2) of the trajectory's combined
    functional vs E; undefined without multipliers (an invalid certificate)."""
    if trajectory.multipliers is None:
        raise UndefinedRatioError("trajectory has no Lyapunov multipliers; "
                                  "equivalence ratios are undefined")
    e = trajectory.energies
    pos = e > 0
    if not pos.any():
        raise UndefinedRatioError(
            "trajectory has no positive-energy samples; equivalence ratios "
            "are undefined")
    k1, k2, k3 = (trajectory.column(k)[pos] for k in ("K1", "K2", "K3"))
    ratios = trajectory.multipliers.combine(e[pos], k1, k2, k3) / e[pos]
    return float(ratios.min()), float(ratios.max())


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit E(t) ~ H1 * E(0) * exp(-H2 * t) over a time window."""

    h1: float
    h2: float
    r_squared: float
    window: tuple


def fit_decay_rate(trajectory):
    """Least-squares line through (t, log E) on the trailing FIT_WINDOW of
    the run.

    Only samples with E > 0 enter the fit; H2 is minus the slope (negative
    H2 means growth).
    """
    if not len(trajectory):
        raise InsufficientDataError("empty trajectory")
    t, e = trajectory.times, trajectory.energies
    e0 = float(e[0])
    t_end = float(t[-1])
    t_lo = t_end - FIT_WINDOW * (t_end - float(t[0]))
    keep = (t >= t_lo) & (e > 0)
    n_keep = int(np.count_nonzero(keep))
    if n_keep < 10:
        raise InsufficientDataError(
            f"need >= 10 positive-energy samples in the window, got {n_keep}")
    ts = t[keep]
    log_e = np.log(e[keep])
    slope, intercept = np.polyfit(ts, log_e, 1)
    resid = log_e - (slope * ts + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((log_e - log_e.mean())**2))
    r2 = 1.0 if ss_tot < 1e-300 else 1.0 - ss_res / ss_tot
    h1 = math.exp(intercept) / e0 if e0 > 0 else math.nan
    return DecayFit(h1, -float(slope), r2, (float(t_lo), float(t_end)))
