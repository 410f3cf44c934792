"""Physical parameters, delay/weight profiles, and the exponential-decay certificate.

The certificate machinery turns declared profile bounds (delay floor/ceiling,
delay slope bound, damping floor, delayed-to-instantaneous gain ratio) into the
three dissipation constants whose minimum bounds the energy decay per unit
damping.  Everything here is immutable after construction.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

LAMBDA_MAX = 10.0  # kernel rate when beta0 = 0 leaves it unbounded
# delay-energy weight: the midpoint of its admissible open interval
# (beta0/sqrt(1-d), 2 - beta0/sqrt(1-d)), which is symmetric about 1
XI_BAR = 1.0


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
    coefficients, the read-only 2x2 wave-coefficient matrix, must be finite,
    and wave_speed, the fastest characteristic speed, positive.
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
        try:
            alpha1 = self.alpha1
        except OverflowError:  # gamma**2 past the float range
            alpha1 = -math.inf
        if not alpha1 > 0:
            raise ValueError(
                f"alpha - gamma**2 * beta must be > 0 (got {alpha1})")
        # the stencil's 2x2 matrix, with a_v = (alpha/rho) v_xx -
        # (gamma*beta/rho) p_xx and a_p = (beta/mu) p_xx - (gamma*beta/mu) v_xx
        m = np.array([
            [self.alpha / self.rho, -self.gamma * self.beta / self.rho],
            [-self.gamma * self.beta / self.mu, self.beta / self.mu],
        ])
        m.flags.writeable = False
        if not np.all(np.isfinite(m)):
            raise ValueError(f"beam wave coefficients {m.tolist()} are past "
                             "the float range")
        # the CFL step divides by the wave speed, sqrt of the top eigenvalue
        speed2 = float(np.max(np.real(np.linalg.eigvals(m))))
        if not speed2 > 0:
            raise ValueError(f"beam wave coefficients {m.tolist()} give no "
                             "positive wave speed")
        object.__setattr__(self, "coefficients", m)
        object.__setattr__(self, "wave_speed", math.sqrt(speed2))

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
                 the table)

    Every profile evaluates elementwise: an array t gives an array, a
    scalar t a numpy scalar.

    Declared bounds (tau0, tau_bar, d) are what the certificate uses;
    validate_assumptions checks them on all of t >= 0, at critical_times.
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
        if self.kind == "table" and not np.all(
                np.greater(self.table_t[1:], self.table_t[:-1])):
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

    def critical_times(self):
        """0 and where tau and tau' peak on all of t >= 0: a table's later
        vertices (tau' is flat per segment) or a sinusoid's quarter periods."""
        if self.kind == "table":
            tt = np.asarray(self.table_t)
            return np.r_[0.0, tt[tt > 0]]
        return _quarter_periods(self.omega if self.kind == "sinusoid" else 0.0)


def _quarter_periods(omega):
    """0 and k pi/2|omega|, k = 1..4, where sin(omega t) and its slope peak
    over one period, as they repeat; none past the float range."""
    step = math.pi / (2 * abs(omega)) if omega else math.inf
    return np.array([0.0] + [k * step for k in range(1, 5)
                             if k * step < math.inf])


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
        if self.d1_kind == "constant" or not self.d1_excess:  # not 0 * inf
            return np.full_like(t, self.d1_floor)[()]
        return self.d1_floor + self.d1_excess * np.exp(-self.d1_rate * t)

    def delta1_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.d1_kind == "constant" or not self.d1_excess:
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

    def critical_times(self):
        """0 and a cosine delta2's quarter periods over its first period."""
        return _quarter_periods(
            self.d2_omega if self.d2_kind == "cosine" else 0.0)


class CheckResult(NamedTuple):
    """Outcome of one inequality on all of t >= 0: margin >= 0 means it
    holds.  worst_t is where the margin is reached: inf for a limit as
    t -> inf, nan for a bound that no t reaches."""

    margin: float
    passed: bool
    worst_t: float


def validate_assumptions(delay, weights):
    """Every declared profile bound on all of t >= 0, in closed form.

    Returns a dict from check name to CheckResult, in a fixed order.  Each
    built-in profile is constant, piecewise linear, periodic or monotone,
    so a margin is its least value at the profile's critical_times.  Under
    a varying delta1 (exp_floor), which is monotone, each weight check
    takes its extreme at t = 0 or as t -> inf, but one: a cosine delta2 =
    r delta1 cos(w t) takes the bound |delta2'| / delta1 <= |r| sqrt(sup
    g^2 + w^2), g = delta1'/delta1, which no t reaches (worst_t nan).  The
    bounds |q| <= M delta1 on q = delta1', delta2, delta2' have margin
    (M delta1 - |q|) / delta1, or M delta1 - |q| where a constant delta1
    is <= 0.  A check passes iff its margin is >= -1e-12 (nan fails), and
    fails at -inf at t = 0 unless its scalar bounds hold: tau0 > 0, d < 1,
    delta0 > 0, beta0 < sqrt(1 - d) and, for the bounds |q| <= M delta1,
    a varying delta1 > 0 at every t.
    """
    checks = {}

    def add(name, ts, margins, holds=True):
        # holds is the check's scalar bound: false fails it at margin -inf
        i = int(np.argmin(margins))
        m, wt = (float(margins[i]), float(ts[i])) if holds else (-math.inf, 0.0)
        checks[name] = CheckResult(m, m >= -1e-12, wt)

    f, e, rate = weights.d1_floor, weights.d1_excess, weights.d1_rate
    varies = weights.d1_kind == "exp_floor" and e != 0 and rate != 0
    ts = delay.critical_times()
    tw = np.zeros(1) if varies else weights.critical_times()
    m1, beta0, m2 = weights.M1, weights.beta0, weights.M2
    with np.errstate(all="ignore"):
        tau = delay.tau(ts)
        add("delay_lower_bound", ts, tau - delay.tau0, delay.tau0 > 0)
        add("delay_upper_bound", ts, delay.tau_bar - tau)
        add("delay_slope_bound", ts, delay.d - delay.tau_prime(ts), delay.d < 1)

        d1, d1p = weights.delta1(tw), weights.delta1_prime(tw)
        margins = [d1 - weights.delta0, -d1p] + [
            (m * d1 - np.abs(q)) / np.where(d1 > 0, d1, 1.0)
            for m, q in ((m1, d1p), (beta0, weights.delta2(tw)),
                         (m2, weights.delta2_prime(tw)))]
        if varies:  # the limit t -> inf: delta1 -> f, or -> +-inf
            d1_inf = f if rate > 0 else math.copysign(math.inf, e)
            g_inf = abs(rate) if rate < 0 or f == 0 else 0.0  # |delta1'/delta1|
            c = abs(weights.d2_value) if weights.d2_kind == "constant" else 0.0
            limits = (d1_inf - weights.delta0,
                      math.copysign(math.inf, rate * e) if rate < 0 else 0.0,
                      m1 - g_inf,
                      beta0 - (c / d1_inf if d1_inf else math.inf if c else 0.0),
                      m2)
            tw = np.append(tw, math.inf)
            margins = [np.append(m, lim) for m, lim in zip(margins, limits)]
        positive = not varies or (d1[0] > 0 and d1_inf >= 0)
        feasible = delay.d < 1 and beta0 < math.sqrt(1.0 - delay.d)
        for name, m, holds in zip(
                ("damping_floor", "damping_monotone", "damping_log_derivative",
                 "delay_weight_ratio", "delay_weight_derivative"), margins,
                (weights.delta0 > 0, True, positive, positive and feasible,
                 positive)):
            add(name, tw, m, holds)
        if varies and weights.d2_kind == "cosine":  # a bound no t reaches
            g_sup = max(float(abs(d1p[0]) / d1[0]), g_inf)
            bound = abs(weights.d2_ratio) * math.hypot(g_sup, weights.d2_omega)
            add("delay_weight_derivative", [math.nan], [m2 - bound], positive)
    return checks


@dataclass(frozen=True)
class StabilityCertificate:
    """Decay certificate: delay-energy weight, kernel rate, and dissipation constants.

    assumptions holds the checks on all of t >= 0 (validate_assumptions) it
    was built on; a certificate is valid exactly when diagnostics is empty.
    """

    xi_bar: float
    lam: float
    c1: float
    c2: float
    c3: float
    valid: bool
    diagnostics: tuple = ()
    assumptions: dict | None = field(default=None, compare=False, repr=False)

    @property
    def c(self):
        return min(self.c1, self.c2, self.c3)


def build_certificate(delay, weights, xi_bar=None, lam=None):
    """Assemble the full certificate: assumption checks on all of t >= 0,
    weight, rate, constants.

    xi_bar defaults to XI_BAR.  Feasibility is checked here, overrides
    included: 0 <= d < 1 always, and tau_bar > 0 and 0 <= beta0 < xi_bar *
    sqrt(1-d) when lam is derived.  The derived lam is half the largest
    rate keeping C2 positive, (1/tau_bar) * log(xi_bar * sqrt(1-d) /
    beta0), or LAMBDA_MAX when beta0 = 0 leaves that rate unbounded.

    Infeasible configurations, and C1..C3 <= 0, yield an invalid certificate
    whose diagnostics name the violated inequalities; nothing is raised.
    C2 is inf when a given lam puts exp(-lam * tau_bar) past the float
    range.
    """
    report = validate_assumptions(delay, weights)
    diagnostics = [name for name, c in report.items() if not c.passed]

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
    diagnostics += [f"dissipation_constant_{name}_nonpositive"
                    for name, c in zip(("C1", "C2", "C3"), (c1, c2, c3))
                    if not c > 0]
    return StabilityCertificate(
        xi, rate, c1, c2, c3,
        valid=not diagnostics, diagnostics=tuple(diagnostics),
        assumptions=report,
    )
