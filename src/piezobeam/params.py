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
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ProfileEvaluationError

LAMBDA_MAX = 10.0  # kernel rate when beta0 = 0 leaves it unbounded
# delay-energy weight: the midpoint of its admissible open interval
# (beta0/sqrt(1-d), 2 - beta0/sqrt(1-d)), which is symmetric about 1
XI_BAR = 1.0
DEFAULT_SAMPLES = 4096


def check_float_fields(obj):
    """Raise TypeError unless every float field of a dataclass holds a real
    number, and every entry of a tuple-of-float field does: no strings or
    bools, and None only where the field allows it; ValueError if one is
    inf, nan or an int beyond the float range."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), str(f.type)
        if "float" not in kind or (value is None and "None" in kind):
            continue
        name = f"{type(obj).__name__}.{f.name}"
        for entry in value if kind.startswith("tuple") else (value,):
            if isinstance(entry, bool) or not isinstance(entry, numbers.Real):
                raise TypeError(f"{name} must be a number, got {entry!r}")
            if not abs(entry) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite, got {entry!r}")


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
      table:     linear interpolation of (table_t, table_tau), kept as
                 tuples of floats, table_t strictly increasing; tau' is the
                 slope of the segment holding t (right-continuous, 0 outside
                 the table), tau'' = 0

    Every profile evaluates elementwise: an array t gives an array, a
    scalar t a numpy scalar.

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
    table_t: tuple[float, ...] = ()
    table_tau: tuple[float, ...] = ()

    def __post_init__(self):
        check_float_fields(self)
        for name in ("table_t", "table_tau"):
            object.__setattr__(self, name,
                               tuple(float(v) for v in getattr(self, name)))
        if self.kind not in ("constant", "sinusoid", "table"):
            raise ValueError(f"unknown delay profile kind {self.kind!r}")
        if self.kind == "table" and not (
                2 <= len(self.table_t) == len(self.table_tau)):
            raise ValueError("table delay profile needs at least 2 samples "
                             "and one value per time")
        if self.kind == "table" and not np.all(np.diff(self.table_t) > 0):
            raise ValueError("table delay times must be strictly increasing")

    def tau(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.mean)[()]
        if self.kind == "sinusoid":
            return self.mean + self.amplitude * np.sin(self.omega * t)
        return np.interp(t, self.table_t, self.table_tau)

    def tau_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(t)[()]
        if self.kind == "sinusoid":
            return self.amplitude * self.omega * np.cos(self.omega * t)
        # entry k is the slope right of vertex k-1: 0 before and after the table
        slopes = np.concatenate(
            ([0.0], np.diff(self.table_tau) / np.diff(self.table_t), [0.0]))
        return slopes[np.searchsorted(self.table_t, t, side="right")]

    def tau_second(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind != "sinusoid":
            return np.zeros_like(t)[()]
        return -self.amplitude * np.square(self.omega) * np.sin(self.omega * t)

    def critical_times(self, horizon):
        """Extrema of tau and tau' inside [0, horizon]: a table's vertices or
        a sinusoid's analytic peaks over its first period, as they repeat."""
        if self.kind == "table":
            tt = np.asarray(self.table_t)
            return tt[(tt >= 0.0) & (tt <= horizon)]
        if self.kind != "sinusoid" or self.omega == 0.0:
            return np.array([])
        # tau extrema at omega*t = pi/2 + k*pi, tau' at k*pi; t = 0 is not
        # 0 * step, which is nan when a subnormal omega makes the step inf
        pts = np.r_[0.0, math.pi / (2 * abs(self.omega)) * np.arange(1, 5)]
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
            return np.full_like(t, self.d1_floor)[()]
        return self.d1_floor + self.d1_excess * np.exp(-self.d1_rate * t)

    def delta1_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.d1_kind == "constant":
            return np.zeros_like(t)[()]
        return -self.d1_rate * self.d1_excess * np.exp(-self.d1_rate * t)

    def delta2(self, t):
        t = np.asarray(t, dtype=float)
        if self.d2_kind == "zero":
            return np.zeros_like(t)[()]
        if self.d2_kind == "constant":
            return np.full_like(t, self.d2_value)[()]
        return self.d2_ratio * self.delta1(t) * np.cos(self.d2_omega * t)

    def delta2_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.d2_kind in ("zero", "constant"):
            return np.zeros_like(t)[()]
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

    ts = np.unique(np.r_[np.linspace(0.0, horizon, samples),
                         delay.critical_times(horizon)])

    values = {"tau": delay.tau(ts), "tau'": delay.tau_prime(ts),
              "tau''": delay.tau_second(ts), "delta1": weights.delta1(ts),
              "delta1'": weights.delta1_prime(ts),
              "delta2": weights.delta2(ts),
              "delta2'": weights.delta2_prime(ts)}
    tau, taup, _, d1, d1p, d2, d2p = values.values()
    for label, arr in values.items():
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

    xi_bar defaults to XI_BAR.  Feasibility is checked here, overrides
    included: 0 <= d < 1 always, and tau_bar > 0 and 0 <= beta0 < xi_bar *
    sqrt(1-d) when lam is derived.  The derived lam is half the largest
    rate keeping C2 positive, (1/tau_bar) * log(xi_bar * sqrt(1-d) /
    beta0), or LAMBDA_MAX when beta0 = 0 leaves that rate unbounded.

    Infeasible configurations, and C1..C3 <= 0, yield an invalid certificate
    whose diagnostics name the violated inequalities; nothing is raised
    unless a profile evaluates non-finite.  C2 is inf when a given lam
    puts exp(-lam * tau_bar) past the float range.
    """
    report = validate_assumptions(delay, weights, horizon=horizon)
    diagnostics = list(report.violated)

    beta0, d, tau_bar = weights.beta0, delay.d, delay.tau_bar
    xi = XI_BAR if xi_bar is None else float(xi_bar)
    infeasible = None
    if not 0 <= d < 1:
        infeasible = "delay_weight_ratio", f"need 0 <= d < 1, got d={d}"
    elif lam is None and not tau_bar > 0:
        infeasible = "delay_upper_bound", f"need tau_bar > 0, got {tau_bar}"
    elif lam is None and not 0 <= beta0 < xi * math.sqrt(1.0 - d):
        bound = "sqrt(1-d)" if xi_bar is None else "xi_bar*sqrt(1-d)"
        infeasible = ("delay_weight_ratio",
                      f"beta0={beta0} >= {bound}={xi * math.sqrt(1.0 - d):.6g}"
                      ": no admissible delay-energy weight")
    if infeasible:
        diagnostics += [item for item in infeasible if item not in diagnostics]
        return StabilityCertificate(
            math.nan, math.nan, math.nan, math.nan, math.nan,
            valid=False, diagnostics=tuple(diagnostics), assumptions=report,
        )

    root, delta0 = math.sqrt(1.0 - d), weights.delta0
    if lam is not None:
        rate = float(lam)
    elif beta0 == 0.0:
        rate = LAMBDA_MAX
    else:
        rate = 0.5 * math.log(xi * root / beta0) / tau_bar
    try:
        decay = math.exp(-rate * tau_bar)
    except OverflowError:
        decay = math.inf
    c1 = delta0 * (1.0 - beta0 / (2.0 * root) - xi / 2.0)
    c2 = delta0 * (1.0 - d) * (decay * xi / 2.0 - beta0 / (2.0 * root))
    c3 = rate * xi * delta0 / 2.0
    nonpositive = [name for name, c in zip(("C1", "C2", "C3"), (c1, c2, c3))
                   if not c > 0]
    diagnostics += [f"dissipation_constant_{name}_nonpositive"
                    for name in nonpositive]

    valid = report.passed and not nonpositive
    return StabilityCertificate(
        xi, rate, c1, c2, c3,
        valid=valid, diagnostics=tuple(diagnostics), assumptions=report,
    )
