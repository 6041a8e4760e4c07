"""Grid primitives: emissions intensity, delivered output, energy value, costs.

Canonical units throughout the package:

* capacity          GW
* money             M$ (million dollars), rates are per year
* emissions         ton-CO2/MWh
* delivered output  GW capacity-equivalent (delivered MWh / (8760 * cf * 1000))
* energy value      M$/GW-yr captured by renewables when producing

A :class:`GridModel` is an immutable value object; every evaluation helper is
a pure function, so models can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import CurveDomainError
from .serialize import Serializable
from .tolerances import CERTIFY_TOL, DOMAIN_TOL, ZERO_TOL, scaled

DERIVATIVE_STEP_FRACTION = 1e-4  # default h = fraction * domain width


class CurveKind(str, Enum):
    POLYNOMIAL = "parametric-polynomial"
    EXPONENTIAL_DECAY = "parametric-exponential-decay"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class GridCurve:
    """One grid property as an evaluable curve.

    ``parametric-polynomial`` curves are zero-intercept: coefficient ``i``
    multiplies ``Q**(i+1)``, so ``(21, 5)`` means ``21*Q + 5*Q**2``.  This is
    the natural shape for delivered-output and cost-like curves, which vanish
    at Q=0; curves with an offset (emissions, energy value) should use
    ``parametric-exponential-decay`` -- coefficients ``(amplitude, rate)`` for
    ``amplitude * exp(-rate * Q)`` -- or a table.

    Tabulated curves are evaluated by monotone piecewise-linear interpolation:
    exact at the knots and monotone between them whenever the knot values are.
    Coefficients and table entries must be finite.
    """

    kind: CurveKind
    coefficients: tuple[float, ...] = ()
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", CurveKind(self.kind))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if not all(map(math.isfinite, self.coefficients)):
            raise ValueError("curve coefficients must be finite")
        if self.kind is CurveKind.TABULATED:
            if self.table is None or len(self.table) < 2:
                raise ValueError("tabulated curve needs at least 2 points")
            table = tuple((float(q), float(v)) for q, v in self.table)
            if not all(math.isfinite(q) and math.isfinite(v) for q, v in table):
                raise ValueError("tabulated curve entries must be finite")
            qs = [q for q, _ in table]
            if any(b <= a for a, b in zip(qs, qs[1:])):
                raise ValueError("tabulated curve Q values must be strictly increasing")
            object.__setattr__(self, "table", table)
        else:
            if self.table is not None:
                raise ValueError("parametric curves must not carry a table")
            if self.kind is CurveKind.EXPONENTIAL_DECAY and len(self.coefficients) != 2:
                raise ValueError("exponential-decay curve takes (amplitude, rate)")
            if self.kind is CurveKind.POLYNOMIAL and not self.coefficients:
                raise ValueError("polynomial curve needs at least one coefficient")

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Knot arrays plus the accepted range: the table's ends widened by DOMAIN_TOL."""
        qs, vs = zip(*self.table)
        slack = scaled(DOMAIN_TOL, qs[0], qs[-1])
        return np.asarray(qs), np.asarray(vs), qs[0] - slack, qs[-1] + slack

    @property
    def domain(self) -> tuple[float, float]:
        """Declared evaluation domain; parametric curves are unbounded."""
        if self.kind is CurveKind.TABULATED:
            return self.table[0][0], self.table[-1][0]
        return -math.inf, math.inf

    def __call__(self, q: float) -> float:
        return eval_curve(self, q)

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind.value}
        if self.kind is CurveKind.TABULATED:
            doc["table"] = [[q, v] for q, v in self.table]
        else:
            doc["coefficients"] = list(self.coefficients)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "GridCurve":
        kind = CurveKind(doc["kind"])
        if kind is CurveKind.TABULATED:
            return cls(kind=kind, table=tuple((q, v) for q, v in doc["table"]))
        return cls(kind=kind, coefficients=tuple(doc["coefficients"]))


def eval_curve(curve: GridCurve, q: float) -> float:
    """Evaluate a curve at capacity ``q`` (GW).

    A tabulated curve evaluates a point within DOMAIN_TOL past an end of its
    table, a rounding overshoot, at that end; farther out it raises.  So does
    an exponential curve whose value overflows.
    """
    if curve.kind is CurveKind.TABULATED:
        qs, vs, lo, hi = curve._knots
        if not lo <= q <= hi:
            raise CurveDomainError(
                f"Q={q} outside tabulated domain [{qs[0]}, {qs[-1]}]"
            )
        return float(np.interp(q, qs, vs))
    if curve.kind is CurveKind.EXPONENTIAL_DECAY:
        amplitude, rate = curve.coefficients
        try:
            return amplitude * math.exp(-rate * q)
        except OverflowError:
            raise CurveDomainError(f"exponential curve overflows at Q={q}") from None
    # zero-intercept polynomial: coefficients from the linear term upward
    acc = 0.0
    for c in reversed(curve.coefficients):
        acc = (acc + c) * q
    return acc


@dataclass(frozen=True)
class CostSpec(Serializable):
    """Quadratic per-period cost, cost(Q) = alpha*Q + beta*Q**2 in M$/yr."""

    alpha: float  # M$/GW-yr
    beta: float  # M$/GW^2-yr

    def __post_init__(self):
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ValueError("cost coefficients must be nonnegative and finite")

    def cost(self, q: float) -> float:
        return self.alpha * q + self.beta * q * q

    def slope(self, q: float) -> float:
        return self.alpha + 2.0 * self.beta * q

    @classmethod
    def from_dict(cls, doc: dict) -> "CostSpec":
        return cls(alpha=float(doc["alpha"]), beta=float(doc["beta"]))


class PeriodState(NamedTuple):
    """The grid at one capacity: every number a period's decisions read.

    Built by :meth:`GridModel.state`.  Price, revenue, expansion, share,
    feasibility and phase of the period are arithmetic on these six values.
    Immutable; a tuple rather than a frozen dataclass because one is built
    per period and per oracle sample, and a tuple builds in a third the time.
    """

    q: float  # capacity, GW, inside the model domain
    e: float  # emissions intensity e(Q), ton-CO2/MWh
    f: float  # delivered output f(Q), GW
    pi: float  # energy value pi(Q), M$/GW-yr
    C_S: float  # system cost C_S(Q), M$/yr
    C_R: float  # renewable operating cost C_R(Q), M$/yr

    @property
    def cost(self) -> float:
        """Non-investment cost C = C_S + C_R - f*pi, M$/yr."""
        return self.C_S + self.C_R - self.f * self.pi

    @property
    def cost_generator(self) -> float:
        """Generator-side net cost C_R - f*pi, M$/yr."""
        return self.C_R - self.f * self.pi


@dataclass(frozen=True)
class GridModel(Serializable):
    """All grid primitives needed to price and expand a renewable program.

    Fields
    ------
    emissions      e(Q), grid-average intensity, ton-CO2/MWh
    delivered      f(Q), usable renewable output, GW capacity-equivalent
    energy_value   pi(Q), wholesale value captured by renewables, M$/GW-yr
    cost_renewable C_R, renewable operating cost
    cost_system    C_S, system/integration cost borne by the operator
    invest_cost    k, unit investment cost of new capacity, M$/GW
    domain         (Q_min, Q_max) over which every curve is evaluable, GW
    """

    emissions: GridCurve
    delivered: GridCurve
    energy_value: GridCurve
    cost_renewable: CostSpec
    cost_system: CostSpec
    invest_cost: float
    domain: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.domain
        object.__setattr__(self, "domain", (float(lo), float(hi)))
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("domain must satisfy Q_min < Q_max, both finite")
        if not 0.0 < self.invest_cost < math.inf:
            raise ValueError("invest_cost must be positive and finite")
        for name in ("emissions", "delivered", "energy_value"):
            curve: GridCurve = getattr(self, name)
            clo, chi = curve.domain
            if clo > lo or chi < hi:
                raise ValueError(f"{name} curve does not cover the model domain")

    def _clamp(self, q: float) -> float:
        """``q`` inside the domain; within DOMAIN_TOL past an end, that end."""
        lo, hi = self.domain
        if lo <= q <= hi:
            return q
        slack = scaled(DOMAIN_TOL, lo, hi)
        if lo - slack <= q <= hi + slack:
            return min(max(q, lo), hi)
        raise CurveDomainError(f"Q={q} outside model domain [{lo}, {hi}]")

    def state(self, q: float) -> PeriodState:
        """The grid at capacity ``q``: one domain check, one evaluation of e, f and pi."""
        q = self._clamp(q)
        return PeriodState(
            q,
            eval_curve(self.emissions, q),
            eval_curve(self.delivered, q),
            eval_curve(self.energy_value, q),
            self.cost_system.cost(q),
            self.cost_renewable.cost(q),
        )

    def emissions_at(self, q: float) -> float:
        return eval_curve(self.emissions, self._clamp(q))

    def delivered_at(self, q: float) -> float:
        return eval_curve(self.delivered, self._clamp(q))

    def energy_value_at(self, q: float) -> float:
        return eval_curve(self.energy_value, self._clamp(q))

    def with_invest_cost(self, invest_cost: float) -> "GridModel":
        return replace(self, invest_cost=invest_cost)

    @classmethod
    def from_dict(cls, doc: dict) -> "GridModel":
        return cls(
            emissions=GridCurve.from_dict(doc["emissions"]),
            delivered=GridCurve.from_dict(doc["delivered"]),
            energy_value=GridCurve.from_dict(doc["energy_value"]),
            cost_renewable=CostSpec.from_dict(doc["cost_renewable"]),
            cost_system=CostSpec.from_dict(doc["cost_system"]),
            invest_cost=float(doc["invest_cost"]),
            domain=(float(doc["domain"][0]), float(doc["domain"][1])),
        )


def cost_integrated(model: GridModel, q: float) -> float:
    """Non-investment cost C(Q) = C_S(Q) + C_R(Q) - f(Q)*pi(Q), M$/yr.

    May be negative when the generators' wholesale surplus exceeds system
    cost, which is the normal state at low penetration.
    """
    return model.state(q).cost


def cost_operator(model: GridModel, q: float, expansion: float) -> float:
    """Operator-side aggregate C_S(Q) + k*q for expansion q >= 0."""
    if expansion < 0:
        raise ValueError("expansion must be nonnegative")
    return model.cost_system.cost(model._clamp(q)) + model.invest_cost * expansion


def cost_generator(model: GridModel, q: float) -> float:
    """Generator-side net cost C_R(Q) - f(Q)*pi(Q).

    Negative values mean wholesale revenue alone keeps generators viable;
    the sign decides whether any program revenue must be shared with them.
    """
    return model.state(q).cost_generator


@dataclass(frozen=True)
class DerivativeEstimate:
    value: float
    one_sided: bool = False


def numeric_derivative(
    target: GridCurve | CostSpec | Callable[[float], float],
    q: float,
    h: float | None = None,
    bounds: tuple[float, float] | None = None,
) -> DerivativeEstimate:
    """Finite-difference slope of a curve, cost spec, or plain callable.

    Central difference (v(Q+h) - v(Q-h)) / (2h) when both sides fit inside
    ``bounds``; falls back to a one-sided difference near a boundary and flags
    it.  ``h`` defaults to 1e-4 of the bounds width.
    """
    if isinstance(target, GridCurve):
        fn = target.__call__
        if bounds is None and target.kind is CurveKind.TABULATED:
            bounds = target.domain
    elif isinstance(target, CostSpec):
        fn = target.cost
    else:
        fn = target

    lo, hi = bounds if bounds is not None else (-math.inf, math.inf)
    if not lo <= q <= hi:
        raise CurveDomainError(f"Q={q} outside bounds [{lo}, {hi}]")
    if h is None:
        width = hi - lo
        h = DERIVATIVE_STEP_FRACTION * (width if math.isfinite(width) else max(1.0, abs(q)))
    if h <= 0:
        raise ValueError("step h must be positive")

    left_ok = q - h >= lo
    right_ok = q + h <= hi
    if left_ok and right_ok:
        return DerivativeEstimate((fn(q + h) - fn(q - h)) / (2.0 * h))
    if right_ok:
        return DerivativeEstimate((fn(q + h) - fn(q)) / h, one_sided=True)
    if left_ok:
        return DerivativeEstimate((fn(q) - fn(q - h)) / h, one_sided=True)
    raise CurveDomainError("step h exceeds the available bounds on both sides")


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    first_violation_q: float | None = None


@dataclass(frozen=True)
class ConditionReport:
    """Pass/fail record of the structural conditions the theory needs."""

    checks: tuple[ConditionCheck, ...]
    n_samples: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "n_samples": self.n_samples,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "first_violation_q": c.first_violation_q,
                }
                for c in self.checks
            ],
        }


def _first_violation(
    qs: np.ndarray, bad: np.ndarray
) -> tuple[bool, float | None]:
    idx = np.flatnonzero(bad)
    if idx.size == 0:
        return True, None
    return False, float(qs[idx[0]])


def validate_grid_conditions(model: GridModel, n_samples: int = 200) -> ConditionReport:
    """Sample every curve and report the structural-condition checks.

    Checked on a uniform grid over the model domain, monotonicity and
    concavity within ZERO_TOL (non-strict, since tabulated empirical curves
    are only weakly monotone) and |f(0)| within CERTIFY_TOL: e > 0 and
    nonincreasing; f(0) ~ 0, f nondecreasing and discretely concave; pi
    nonincreasing.
    """
    if n_samples < 3:
        raise ValueError("n_samples must be at least 3")
    lo, hi = model.domain
    qs = np.linspace(lo, hi, n_samples)
    e = np.array([eval_curve(model.emissions, q) for q in qs])
    f = np.array([eval_curve(model.delivered, q) for q in qs])
    pi = np.array([eval_curve(model.energy_value, q) for q in qs])

    checks = []
    # e(Q) > 0 on the interior of the sampled grid
    ok, at = _first_violation(qs[1:-1], e[1:-1] <= 0.0)
    checks.append(ConditionCheck("emissions_positive", ok, at))
    ok, at = _first_violation(qs[1:], np.diff(e) > ZERO_TOL)
    checks.append(ConditionCheck("emissions_nonincreasing", ok, at))

    if lo <= 0.0 <= hi:
        f0 = eval_curve(model.delivered, 0.0)
        checks.append(
            ConditionCheck(
                "delivered_zero_at_origin",
                abs(f0) <= CERTIFY_TOL,
                None if abs(f0) <= CERTIFY_TOL else 0.0,
            )
        )
    else:
        # 0 not in the declared domain: nothing to check
        checks.append(ConditionCheck("delivered_zero_at_origin", True, None))
    ok, at = _first_violation(qs[1:], np.diff(f) < -ZERO_TOL)
    checks.append(ConditionCheck("delivered_nondecreasing", ok, at))
    concavity_tol = scaled(ZERO_TOL, float(np.max(np.abs(f))))
    ok, at = _first_violation(qs[1:-1], np.diff(f, 2) > concavity_tol)
    checks.append(ConditionCheck("delivered_concave", ok, at))

    ok, at = _first_violation(qs[1:], np.diff(pi) > ZERO_TOL)
    checks.append(ConditionCheck("energy_value_nonincreasing", ok, at))

    return ConditionReport(checks=tuple(checks), n_samples=n_samples)
