"""Physical parameters, delay/weight profiles, and the exponential-decay certificate.

The certificate machinery turns declared profile bounds (delay floor/ceiling,
delay slope bound, damping floor, delayed-to-instantaneous gain ratio) into the
three dissipation constants whose minimum bounds the energy decay per unit
damping.  Everything here is immutable after construction and safe to share
across parallel workers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InfeasibleCertificateError, ProfileEvaluationError

LAMBDA_MAX = 10.0  # kernel rate when beta0 = 0 leaves it unbounded
DEFAULT_SAMPLES = 4096


def check_float_fields(obj):
    """Raise TypeError unless every float field of a dataclass holds a real
    number: no strings or bools, and None only where the field allows it."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), str(f.type)
        optional = value is None and "None" in kind
        if "float" in kind and not optional and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise TypeError(f"{type(obj).__name__}.{f.name} must be a number, "
                            f"got {value!r}")


@dataclass(frozen=True)
class BeamParams:
    """Physical constants of the beam.

    rho: mass density, alpha: elastic stiffness, gamma: piezoelectric
    coefficient, mu: magnetic permeability, beta: impermeability coefficient,
    length: beam length.  The derived stiffness alpha1 = alpha - gamma**2 * beta
    must be positive for the elastic energy term to be positive definite.
    """

    rho: float = 1.0
    alpha: float = 2.0
    gamma: float = 1.0
    mu: float = 1.0
    beta: float = 1.0
    length: float = 1.0

    def __post_init__(self):
        check_float_fields(self)
        for name in ("rho", "alpha", "mu", "beta", "length"):
            if not getattr(self, name) > 0:
                raise ValueError(f"BeamParams.{name} must be > 0")
        # gamma = 0 is admitted: it decouples the two fields, which several
        # reference checks rely on
        if self.gamma < 0:
            raise ValueError("BeamParams.gamma must be >= 0")
        if not self.alpha1 > 0:
            raise ValueError(
                "alpha - gamma**2 * beta must be > 0 "
                f"(got {self.alpha1})"
            )

    @property
    def alpha1(self):
        return self.alpha - self.gamma**2 * self.beta


@dataclass(frozen=True)
class DelayProfile:
    """Time-varying delay tau(t) with analytic derivatives and declared bounds.

    Kinds:
      constant:  tau(t) = mean
      sinusoid:  tau(t) = mean + amplitude * sin(omega * t)
      table:     linear interpolation of (table_t, table_tau), table_t
                 strictly increasing; tau' is the slope of the segment
                 holding t (right-continuous, 0 outside the table), tau'' = 0

    Declared bounds (tau0, tau_bar, d) are what the certificate uses; they are
    checked against the sampled profile by validate_assumptions.
    """

    kind: str = "constant"
    tau0: float = 0.4
    tau_bar: float = 0.6
    d: float = 0.0
    mean: float = 0.5
    amplitude: float = 0.0
    omega: float = 0.0
    table_t: tuple = ()
    table_tau: tuple = ()

    def __post_init__(self):
        check_float_fields(self)
        if self.kind not in ("constant", "sinusoid", "table"):
            raise ValueError(f"unknown delay profile kind {self.kind!r}")
        if self.kind == "table" and not (
                2 <= len(self.table_t) == len(self.table_tau)):
            raise ValueError("table delay profile needs at least 2 samples "
                             "and one value per time")
        if self.kind == "table" and not np.all(np.diff(self.table_t) > 0):
            raise ValueError("table delay times must be strictly increasing")

    @staticmethod
    def sinusoid(mean, amplitude, omega, tau0=None, tau_bar=None, d=None):
        return DelayProfile(
            kind="sinusoid",
            mean=mean,
            amplitude=amplitude,
            omega=omega,
            tau0=mean - abs(amplitude) if tau0 is None else tau0,
            tau_bar=mean + abs(amplitude) if tau_bar is None else tau_bar,
            d=abs(amplitude * omega) if d is None else d,
        )

    @staticmethod
    def from_table(times, values, tau0, tau_bar, d):
        return DelayProfile(
            kind="table",
            table_t=tuple(float(t) for t in times),
            table_tau=tuple(float(v) for v in values),
            tau0=tau0,
            tau_bar=tau_bar,
            d=d,
        )

    def tau(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(self.mean, t.shape).copy() if t.ndim else float(self.mean)
        if self.kind == "sinusoid":
            return self.mean + self.amplitude * np.sin(self.omega * t)
        return np.interp(t, self.table_t, self.table_tau)

    def tau_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros(t.shape) if t.ndim else 0.0
        if self.kind == "sinusoid":
            return self.amplitude * self.omega * np.cos(self.omega * t)
        # entry k is the slope right of vertex k-1: 0 before and after the table
        slopes = np.concatenate(
            ([0.0], np.diff(self.table_tau) / np.diff(self.table_t), [0.0]))
        out = slopes[np.searchsorted(self.table_t, t, side="right")]
        return out if t.ndim else float(out)

    def tau_second(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind != "sinusoid":
            return np.zeros(t.shape) if t.ndim else 0.0
        return -self.amplitude * self.omega**2 * np.sin(self.omega * t)

    def critical_times(self, horizon):
        """Extrema of tau and tau' inside [0, horizon]: a table's vertices or
        a sinusoid's analytic peaks."""
        if self.kind == "table":
            tt = np.asarray(self.table_t)
            return tt[(tt >= 0.0) & (tt <= horizon)]
        if self.kind != "sinusoid" or self.omega == 0.0:
            return np.array([])
        # tau extrema at omega*t = pi/2 + k*pi; tau' extrema at omega*t = k*pi
        half = math.pi / (2 * abs(self.omega))
        pts = np.arange(0.0, horizon + half, half)
        return pts[pts <= horizon]


@dataclass(frozen=True)
class WeightProfiles:
    """Damping gains delta1(t) (instantaneous) and delta2(t) (delayed).

    delta1 kinds:
      constant:   delta1(t) = d1_floor
      exp_floor:  delta1(t) = d1_floor + d1_excess * exp(-d1_rate * t)
    delta2 kinds:
      zero:       delta2(t) = 0
      constant:   delta2(t) = d2_value
      cosine:     delta2(t) = d2_ratio * delta1(t) * cos(d2_omega * t)

    Declared bounds: delta0 (floor of delta1), beta0 (ratio |delta2| <= beta0
    * delta1), M1 (bound on |delta1'/delta1|), M2 (bound on |delta2'| /
    delta1).  Each built-in family admits closed-form derivatives, so these
    bounds can be declared exactly.
    """

    delta0: float = 1.0
    beta0: float = 0.0
    M1: float = 1.0
    M2: float = 1.0
    d1_kind: str = "constant"
    d1_floor: float = 1.0
    d1_excess: float = 0.0
    d1_rate: float = 0.0
    d2_kind: str = "zero"
    d2_value: float = 0.0
    d2_ratio: float = 0.0
    d2_omega: float = 0.0

    def __post_init__(self):
        check_float_fields(self)
        if self.d1_kind not in ("constant", "exp_floor"):
            raise ValueError(f"unknown delta1 kind {self.d1_kind!r}")
        if self.d2_kind not in ("zero", "constant", "cosine"):
            raise ValueError(f"unknown delta2 kind {self.d2_kind!r}")

    def delta1(self, t):
        t = np.asarray(t, dtype=float)
        if self.d1_kind == "constant":
            out = np.broadcast_to(float(self.d1_floor), t.shape)
            return out.copy() if t.ndim else float(self.d1_floor)
        return self.d1_floor + self.d1_excess * np.exp(-self.d1_rate * t)

    def delta1_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.d1_kind == "constant":
            return np.zeros(t.shape) if t.ndim else 0.0
        return -self.d1_rate * self.d1_excess * np.exp(-self.d1_rate * t)

    def delta2(self, t):
        t = np.asarray(t, dtype=float)
        if self.d2_kind == "zero":
            return np.zeros(t.shape) if t.ndim else 0.0
        if self.d2_kind == "constant":
            out = np.broadcast_to(float(self.d2_value), t.shape)
            return out.copy() if t.ndim else float(self.d2_value)
        return self.d2_ratio * self.delta1(t) * np.cos(self.d2_omega * t)

    def delta2_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.d2_kind in ("zero", "constant"):
            return np.zeros(t.shape) if t.ndim else 0.0
        return self.d2_ratio * (
            self.delta1_prime(t) * np.cos(self.d2_omega * t)
            - self.d2_omega * self.delta1(t) * np.sin(self.d2_omega * t)
        )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one sampled inequality: margin >= 0 means it holds."""

    name: str
    margin: float
    passed: bool
    worst_t: float


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple  # of CheckResult

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def violated(self):
        return [c.name for c in self.checks if not c.passed]

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _worst(ts, margins):
    """Smallest margin and the time where it occurs."""
    margins = np.asarray(margins, dtype=float)
    i = int(np.argmin(margins))
    return float(margins[i]), float(np.asarray(ts)[i])


def validate_assumptions(delay, weights, horizon=40.0, samples=DEFAULT_SAMPLES):
    """Sample every declared profile bound over [0, horizon].

    Returns an AssumptionReport with one CheckResult per inequality; the
    report passes iff every sampled margin is >= -1e-12 (tiny slack for
    profiles whose analytic extremum sits exactly on the declared bound).
    """
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    if samples < 2:
        raise ValueError("samples must be >= 2")

    ts = np.linspace(0.0, horizon, samples)
    crit = delay.critical_times(horizon)
    if crit.size:
        ts = np.unique(np.concatenate([ts, crit]))

    tau = np.asarray(delay.tau(ts), dtype=float)
    taup = np.asarray(delay.tau_prime(ts), dtype=float)
    taupp = np.asarray(delay.tau_second(ts), dtype=float)
    d1 = np.asarray(weights.delta1(ts), dtype=float)
    d1p = np.asarray(weights.delta1_prime(ts), dtype=float)
    d2 = np.asarray(weights.delta2(ts), dtype=float)
    d2p = np.asarray(weights.delta2_prime(ts), dtype=float)

    for label, arr in (
        ("tau", tau), ("tau'", taup), ("tau''", taupp),
        ("delta1", d1), ("delta1'", d1p), ("delta2", d2), ("delta2'", d2p),
    ):
        bad = ~np.isfinite(arr)
        if bad.any():
            t_bad = ts[bad][0]
            raise ProfileEvaluationError(
                f"{label} evaluated non-finite at t={t_bad:.6g}"
            )

    tol = 1e-12
    checks = []

    def add(name, ts_arr, margins):
        m, wt = _worst(ts_arr, margins)
        checks.append(CheckResult(name, m, m >= -tol, wt))

    add("delay_lower_bound", ts, tau - delay.tau0)
    if not delay.tau0 > 0:
        checks[-1] = CheckResult("delay_lower_bound", -math.inf, False, 0.0)
    add("delay_upper_bound", ts, delay.tau_bar - tau)
    add("delay_slope_bound", ts, delay.d - taup)
    if not delay.d < 1:
        checks[-1] = CheckResult("delay_slope_bound", -math.inf, False, 0.0)
    # curvature has no declared bound; boundedness == finiteness (checked above)
    checks.append(CheckResult("delay_curvature_bounded", math.inf, True, 0.0))

    add("damping_floor", ts, d1 - weights.delta0)
    if not weights.delta0 > 0:
        checks[-1] = CheckResult("damping_floor", -math.inf, False, 0.0)
    add("damping_monotone", ts, -d1p)
    # delta1 == 0 only occurs in deliberately undamped scenarios; the
    # log-derivative bound is vacuous there
    safe_d1 = np.where(d1 > 0, d1, 1.0)
    add("damping_log_derivative", ts, weights.M1 - np.abs(d1p) / safe_d1)

    ratio_margin = weights.beta0 * d1 - np.abs(d2)
    feas = math.sqrt(1.0 - delay.d) - weights.beta0 if delay.d < 1 else -math.inf
    m, wt = _worst(ts, ratio_margin)
    m = min(m, feas)
    # beta0 must sit strictly below sqrt(1 - d) for the certificate interval
    checks.append(CheckResult("delay_weight_ratio", m, m >= -tol and feas > 0, wt))

    add("delay_weight_derivative", ts, weights.M2 * d1 - np.abs(d2p))

    return AssumptionReport(tuple(checks))


def select_xi_bar(beta0, d):
    """Midpoint of the admissible open interval for the delay-energy weight.

    The interval (beta0/sqrt(1-d), 2 - beta0/sqrt(1-d)) is symmetric about 1,
    so the midpoint is always 1 when the interval is non-empty.
    """
    if not 0 <= d < 1:
        raise InfeasibleCertificateError(f"need 0 <= d < 1, got d={d}")
    lo = beta0 / math.sqrt(1.0 - d)
    if not 0 <= beta0 < math.sqrt(1.0 - d):
        raise InfeasibleCertificateError(
            f"beta0={beta0} >= sqrt(1-d)={math.sqrt(1.0 - d):.6g}: "
            "no admissible delay-energy weight"
        )
    assert lo < 1.0 < 2.0 - lo
    return 1.0


def select_lambda(xi_bar, beta0, d, tau_bar):
    """Exponential kernel rate: half the largest rate keeping C2 positive.

    C2 > 0 requires exp(-lam * tau_bar) * xi_bar / 2 > beta0 / (2 sqrt(1-d)),
    i.e. lam < (1/tau_bar) * log(xi_bar * sqrt(1-d) / beta0).  With beta0 = 0
    the bound is infinite and the cap LAMBDA_MAX applies.
    """
    if not 0 <= d < 1:
        raise InfeasibleCertificateError(f"need 0 <= d < 1, got d={d}")
    if beta0 < 0 or beta0 >= xi_bar * math.sqrt(1.0 - d):
        raise InfeasibleCertificateError(
            f"beta0={beta0} outside [0, xi_bar*sqrt(1-d))"
        )
    if beta0 == 0.0:
        return LAMBDA_MAX
    return 0.5 * math.log(xi_bar * math.sqrt(1.0 - d) / beta0) / tau_bar


@dataclass(frozen=True)
class DissipationConstants:
    c1: float
    c2: float
    c3: float

    @property
    def flags(self):
        return (self.c1 > 0, self.c2 > 0, self.c3 > 0)

    @property
    def all_positive(self):
        return all(self.flags)


def dissipation_constants(delta0, beta0, d, xi_bar, lam, tau_bar):
    """Closed forms for the three per-term dissipation constants.

    Negative values are reported, not raised; certificate validity consumes
    the positivity flags.
    """
    root = math.sqrt(1.0 - d)
    c1 = delta0 * (1.0 - beta0 / (2.0 * root) - xi_bar / 2.0)
    c2 = delta0 * (1.0 - d) * (
        math.exp(-lam * tau_bar) * xi_bar / 2.0 - beta0 / (2.0 * root)
    )
    c3 = lam * xi_bar * delta0 / 2.0
    return DissipationConstants(c1, c2, c3)


@dataclass(frozen=True)
class StabilityCertificate:
    """Decay certificate: delay-energy weight, kernel rate, and dissipation constants.

    assumptions is the sampled AssumptionReport the certificate was built on.
    """

    xi_bar: float
    lam: float
    c1: float
    c2: float
    c3: float
    valid: bool
    diagnostics: tuple = ()
    assumptions: AssumptionReport | None = field(default=None, compare=False,
                                                 repr=False)

    @property
    def c(self):
        return min(self.c1, self.c2, self.c3)

    def as_dict(self):
        return {
            "xi_bar": self.xi_bar,
            "lambda": self.lam,
            "C1": self.c1,
            "C2": self.c2,
            "C3": self.c3,
            "C": self.c,
            "valid": self.valid,
            "diagnostics": list(self.diagnostics),
        }


def build_certificate(delay, weights, horizon=40.0, xi_bar=None, lam=None):
    """Assemble the full certificate: assumption checks, weight, rate, constants.

    Infeasible configurations yield an invalid certificate whose diagnostics
    name the violated inequalities; nothing is raised unless a profile
    evaluates non-finite.
    """
    report = validate_assumptions(delay, weights, horizon=horizon)
    diagnostics = list(report.violated)

    beta0, d = weights.beta0, delay.d
    try:
        xi = select_xi_bar(beta0, d) if xi_bar is None else float(xi_bar)
        rate = (select_lambda(xi, beta0, d, delay.tau_bar) if lam is None
                else float(lam))
    except InfeasibleCertificateError as exc:
        if "delay_weight_ratio" not in diagnostics:
            diagnostics.append("delay_weight_ratio")
        diagnostics.append(str(exc))
        return StabilityCertificate(
            math.nan, math.nan, math.nan, math.nan, math.nan,
            valid=False, diagnostics=tuple(diagnostics), assumptions=report,
        )

    cons = dissipation_constants(weights.delta0, beta0, d, xi, rate, delay.tau_bar)
    for flag, name in zip(cons.flags, ("C1", "C2", "C3")):
        if not flag:
            diagnostics.append(f"dissipation_constant_{name}_nonpositive")

    valid = report.passed and cons.all_positive
    return StabilityCertificate(
        xi, rate, cons.c1, cons.c2, cons.c3,
        valid=valid, diagnostics=tuple(diagnostics), assumptions=report,
    )
