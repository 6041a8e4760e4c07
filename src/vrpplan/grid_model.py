"""Grid primitives: emissions intensity, delivered output, energy value, costs.

Canonical units throughout the package:

* capacity          GW
* money             M$ (million dollars), rates are per year
* emissions         ton-CO2/MWh
* delivered output  GW capacity-equivalent (delivered MWh / (8760 * cf * 1000))
* energy value      M$/GW-yr captured by renewables when producing

A :class:`GridModel` is an immutable value object; every evaluation helper is
a pure function, so models can be shared freely across threads.  Every
evaluation takes a float or an ndarray of capacities, and every slope is
analytic (``slope`` of a curve or a cost, :meth:`GridModel.cost_slope`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CurveDomainError
from .serialize import Serializable, json_number, json_numbers, plain, read_numbers
from .tolerances import CERTIFY_TOL, DOMAIN_TOL, ZERO_TOL, scaled


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

    def slope(self, q):
        """dv/dQ at ``q``, a float or an ndarray, in closed form.

        Exponential: -rate * amplitude * exp(-rate*Q); polynomial: the Horner
        derivative; tabulated: the slope of the segment [Q_i, Q_i+1) holding Q,
        so a knot takes its right-hand segment and the top end the last one.
        """
        if self.kind is CurveKind.EXPONENTIAL_DECAY:
            return -self.coefficients[1] * eval_curve(self, q)
        if self.kind is CurveKind.POLYNOMIAL:
            acc = 0.0
            for power, c in reversed(tuple(enumerate(self.coefficients, 1))):
                acc = acc * q + power * c
            return acc
        qs, vs, lo, hi = self._knots
        at = _within(np.asarray(q, dtype=float), lo, hi, "tabulated", qs)
        i = np.clip(np.searchsorted(qs, at, side="right") - 1, 0, len(qs) - 2)
        slopes = (vs[i + 1] - vs[i]) / (qs[i + 1] - qs[i])
        return slopes if isinstance(q, np.ndarray) else float(slopes)

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind.value}
        if self.kind is CurveKind.TABULATED:
            doc["table"] = [[q, v] for q, v in self.table]
        else:
            doc["coefficients"] = list(self.coefficients)
        return doc

    @classmethod
    def from_dict(cls, doc: dict, path: str = "curve") -> "GridCurve":
        kind = CurveKind(doc["kind"])
        if kind is CurveKind.TABULATED:
            rows = enumerate(doc["table"])
            table = tuple(json_numbers(row, f"{path}.table[{i}]") for i, row in rows)
            return cls(kind=kind, table=table)
        coefficients = json_numbers(doc["coefficients"], f"{path}.coefficients")
        return cls(kind=kind, coefficients=coefficients)


def _within(q: np.ndarray, lo: float, hi: float, name: str, ends) -> np.ndarray:
    """``q`` itself if every entry, never NaN, lies in [lo, hi]; ``ends`` name the domain."""
    outside = ~((q >= lo) & (q <= hi))
    if outside.any():
        raise CurveDomainError(f"Q={q[outside][0]} outside {name} domain [{ends[0]}, {ends[-1]}]")
    return q


def eval_curve(curve: GridCurve, q):
    """Evaluate a curve at capacity ``q`` (GW), a float or an ndarray.

    A tabulated curve evaluates a point within DOMAIN_TOL past an end of its
    table, a rounding overshoot, at that end; farther out, or at NaN, it
    raises.  So does an exponential curve whose value overflows.  An array
    gives the scalar floats, but for an ulp of ``np.exp`` against ``math.exp``.
    """
    array = isinstance(q, np.ndarray)
    if curve.kind is CurveKind.TABULATED:
        qs, vs, lo, hi = curve._knots
        if array:
            return np.interp(_within(q, lo, hi, "tabulated", qs), qs, vs)
        if not lo <= q <= hi:
            raise CurveDomainError(
                f"Q={q} outside tabulated domain [{qs[0]}, {qs[-1]}]"
            )
        return float(np.interp(q, qs, vs))
    if curve.kind is CurveKind.EXPONENTIAL_DECAY:
        amplitude, rate = curve.coefficients
        try:
            if array:
                with np.errstate(over="raise", invalid="raise"):
                    return amplitude * np.exp(-rate * q)
            return amplitude * math.exp(-rate * q)
        except (OverflowError, FloatingPointError):
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

    def cost(self, q):
        return self.alpha * q + self.beta * q * q

    def slope(self, q):
        return self.alpha + 2.0 * self.beta * q

    @classmethod
    def from_dict(cls, doc: dict, path: str = "cost") -> "CostSpec":
        return read_numbers(cls, doc, path)


class PeriodState(NamedTuple):
    """The grid at one capacity: every number a period's decisions read.

    Built by :meth:`GridModel.state`.  Price, revenue, expansion, share,
    feasibility and phase of the period are arithmetic on these six values.
    Immutable; a tuple rather than a frozen dataclass because one is built
    per period, and a tuple builds in a third the time.  Built from an array
    of capacities, every field is an array: the oracles' grid in one state.
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

    def _clamp(self, q):
        """``q``, a float or an ndarray, inside the domain; within DOMAIN_TOL
        past an end, that end; farther out, or NaN, an error."""
        lo, hi = self.domain
        if isinstance(q, np.ndarray):
            slack = scaled(DOMAIN_TOL, lo, hi)
            return np.clip(_within(q, lo - slack, hi + slack, "model", self.domain), lo, hi)
        if lo <= q <= hi:
            return q
        slack = scaled(DOMAIN_TOL, lo, hi)
        if lo - slack <= q <= hi + slack:
            return min(max(q, lo), hi)
        raise CurveDomainError(f"Q={q} outside model domain [{lo}, {hi}]")

    def state(self, q) -> PeriodState:
        """The grid at capacity ``q``, a float or an ndarray: one domain check,
        one evaluation of e, f and pi."""
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

    def cost_slope(self, q):
        """C'(Q) = C_S' + C_R' - f'*pi - f*pi', M$/GW-yr, at ``q`` clamped as by :meth:`state`."""
        q = self._clamp(q)
        return (
            self.cost_system.slope(q)
            + self.cost_renewable.slope(q)
            - self.delivered.slope(q) * eval_curve(self.energy_value, q)
            - eval_curve(self.delivered, q) * self.energy_value.slope(q)
        )

    def with_invest_cost(self, invest_cost: float) -> "GridModel":
        return replace(self, invest_cost=invest_cost)

    @classmethod
    def from_dict(cls, doc: dict, path: str = "grid") -> "GridModel":
        return cls(
            emissions=GridCurve.from_dict(doc["emissions"], f"{path}.emissions"),
            delivered=GridCurve.from_dict(doc["delivered"], f"{path}.delivered"),
            energy_value=GridCurve.from_dict(doc["energy_value"], f"{path}.energy_value"),
            cost_renewable=CostSpec.from_dict(doc["cost_renewable"], f"{path}.cost_renewable"),
            cost_system=CostSpec.from_dict(doc["cost_system"], f"{path}.cost_system"),
            invest_cost=json_number(doc["invest_cost"], f"{path}.invest_cost"),
            domain=tuple(json_number(doc["domain"][i], f"{path}.domain[{i}]") for i in (0, 1)),
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


@contextmanager
def array_arithmetic(what: str):
    """Array arithmetic that overflows or makes NaN raises CurveDomainError
    naming ``what``, where scalar arithmetic carries inf to the output check."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise CurveDomainError(f"{what}: {exc}") from None


@dataclass(frozen=True)
class ConditionCheck(Serializable):
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
        return {c.name: c for c in self.checks}[name]

    def to_dict(self) -> dict:
        return {"passed": self.passed, "n_samples": self.n_samples, "checks": plain(self.checks)}


@array_arithmetic("grid conditions")
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
    s = model.state(qs)
    checks = []

    def check(name: str, at: np.ndarray, bad: np.ndarray) -> None:
        first = at[bad][:1].tolist()  # the first violating Q, if any
        checks.append(ConditionCheck(name, not first, first[0] if first else None))

    # e(Q) > 0 on the interior of the sampled grid
    check("emissions_positive", qs[1:-1], s.e[1:-1] <= 0.0)
    check("emissions_nonincreasing", qs[1:], np.diff(s.e) > ZERO_TOL)
    origin = np.zeros(1 if lo <= 0.0 <= hi else 0)  # no point when 0 is outside the domain
    f0 = np.abs(eval_curve(model.delivered, origin))
    check("delivered_zero_at_origin", origin, f0 > CERTIFY_TOL)
    check("delivered_nondecreasing", qs[1:], np.diff(s.f) < -ZERO_TOL)
    concavity_tol = scaled(ZERO_TOL, float(np.max(np.abs(s.f))))
    check("delivered_concave", qs[1:-1], np.diff(s.f, 2) > concavity_tol)
    check("energy_value_nonincreasing", qs[1:], np.diff(s.pi) > ZERO_TOL)
    return ConditionReport(checks=tuple(checks), n_samples=n_samples)
