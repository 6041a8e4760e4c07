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

:meth:`GridModel.state` turns a capacity into the :class:`PeriodState`, costs
included, that decisions (``price_at``, ``decide_at``) take; solvers take the
capacity and build the state.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import CurveDomainError
from .serialize import Serializable, json_number, json_numbers, json_typed, plain, read_numbers, record
from .tolerances import CERTIFY_TOL, DOMAIN_TOL, ZERO_TOL, scaled


class CurveKind(str, Enum):
    POLYNOMIAL = "parametric-polynomial"
    EXPONENTIAL_DECAY = "parametric-exponential-decay"
    TABULATED = "tabulated"


@record
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
    The table is read once, into two lists of floats, and checked in plain
    Python: its shape, finiteness and strictly increasing Q.  A scalar query
    bisects those lists; the knot arrays of an array query are built from them
    on the first one, so a scalar-only run never loads numpy.  Coefficients and
    table entries must be finite.
    """

    kind: CurveKind
    coefficients: tuple[float, ...] = ()
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", CurveKind(self.kind))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if not all(map(math.isfinite, self.coefficients)):
            raise ValueError("curve coefficients must be finite")
        if self.kind is not CurveKind.TABULATED:
            if self.table is not None:
                raise ValueError("parametric curves must not carry a table")
            if self.kind is CurveKind.EXPONENTIAL_DECAY and len(self.coefficients) != 2:
                raise ValueError("exponential-decay curve takes (amplitude, rate)")
            if self.kind is CurveKind.POLYNOMIAL and not self.coefficients:
                raise ValueError("polynomial curve needs at least one coefficient")
            return
        if len(self.table) < 2 or not all(len(row) == 2 for row in self.table):
            raise ValueError("tabulated curve needs at least 2 (Q, value) rows")
        rows = tuple([(float(q), float(v)) for q, v in self.table])
        xs, ys = map(list, zip(*rows))
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
            raise ValueError("tabulated curve entries must be finite")
        if not all(map(float.__lt__, xs, xs[1:])):
            raise ValueError("tabulated curve Q values must be strictly increasing")
        slack = scaled(DOMAIN_TOL, xs[0], xs[-1])
        object.__setattr__(self, "table", rows)
        # the knots as lists, plus the accepted range: the table's ends widened by DOMAIN_TOL
        object.__setattr__(self, "_knots", (xs, ys, xs[0] - slack, xs[-1] + slack))

    @cached_property
    def _arrays(self):
        """The knots as two contiguous float arrays, which ``np.interp`` copies neither of."""
        import numpy as np
        xs, ys, _, _ = self._knots
        return np.array(xs), np.array(ys)

    @property
    def domain(self) -> tuple[float, float]:
        """Declared evaluation domain; parametric curves are unbounded."""
        if self.kind is CurveKind.TABULATED:
            return self.table[0][0], self.table[-1][0]
        return -math.inf, math.inf

    def slope(self, q):
        """dv/dQ at ``q``, a float or an ndarray, in closed form.

        Exponential: -rate * amplitude * exp(-rate*Q); polynomial: the Horner
        derivative; tabulated: the slope of the segment [Q_i, Q_i+1) holding Q,
        so a knot takes its right-hand segment and the top end the last one.
        A table queried at a scalar bisects the knot lists, as
        :func:`eval_curve` does, for the array query's segment and bits.
        """
        if self.kind is CurveKind.EXPONENTIAL_DECAY:
            return -self.coefficients[1] * eval_curve(self, q)
        if self.kind is CurveKind.POLYNOMIAL:
            acc = 0.0
            for power, c in reversed(tuple(enumerate(self.coefficients, 1))):
                acc = acc * q + power * c
            return acc
        xs, ys, lo, hi = self._knots
        if is_array(q):
            import numpy as np
            qs, vs = self._arrays
            at = _within(np.asarray(q, dtype=float), lo, hi, "tabulated", qs)
            i = np.clip(np.searchsorted(qs, at, side="right") - 1, 0, len(qs) - 2)
            return (vs[i + 1] - vs[i]) / (qs[i + 1] - qs[i])
        if not lo <= q <= hi:
            raise CurveDomainError(f"Q={q} outside tabulated domain [{xs[0]}, {xs[-1]}]")
        i = min(max(bisect_right(xs, q) - 1, 0), len(xs) - 2)
        return (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])

    def value_range(self, a: float, b: float) -> tuple[float, float, float]:
        """The least and greatest value on [a, b], a <= b, and the magnitude that
        their rounding, and :func:`eval_curve`'s, scales with.  A table's extremes
        lie among its values at a and b and the knots between (its magnitude also
        takes the end segments' knots); an exponential, being monotone, has them
        at a and b; a polynomial is bounded by interval Horner arithmetic (Moore,
        *Interval Analysis*, 1966), with magnitude sum |c_k| max(|a|, |b|)^k."""
        if self.kind is CurveKind.POLYNOMIAL:
            lo = hi = 0.0
            for c in reversed(self.coefficients):
                corners = ((lo + c) * a, (lo + c) * b, (hi + c) * a, (hi + c) * b)
                lo, hi = min(corners), max(corners)
            r = max(abs(a), abs(b))
            return lo, hi, sum(abs(c) * r**k for k, c in enumerate(self.coefficients, 1))
        ends = (eval_curve(self, a), eval_curve(self, b))
        if self.kind is CurveKind.EXPONENTIAL_DECAY:
            return min(ends), max(ends), max(map(abs, ends))
        xs, ys, _, _ = self._knots
        i, j = bisect_right(xs, a), bisect_left(xs, b)  # xs[i:j] lie strictly inside (a, b)
        lo, hi = min(*ends, *ys[i:j]), max(*ends, *ys[i:j])
        return lo, hi, max(-lo, hi, abs(ys[max(i - 1, 0)]), abs(ys[min(j, len(ys) - 1)]))

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind.value}
        if self.kind is CurveKind.TABULATED:
            doc["table"] = [[q, v] for q, v in self.table]
        else:
            doc["coefficients"] = list(self.coefficients)
        return doc

    @classmethod
    def from_dict(cls, doc: dict, path: str = "curve") -> "GridCurve":
        kind, kinds = json_typed(doc, dict, path).get("kind"), [k.value for k in CurveKind]
        if kind not in kinds:
            raise ValueError(f"{path}.kind must be one of {kinds}, got {kind!r}")
        kind = CurveKind(kind)
        if kind is not CurveKind.TABULATED:
            coefficients = json_numbers(doc.get("coefficients"), f"{path}.coefficients")
            try:
                return cls(kind=kind, coefficients=coefficients)
            except ValueError as exc:  # a wrong number of coefficients
                raise ValueError(f"{path}.coefficients: {exc}") from None
        table = json_typed(doc.get("table"), list, f"{path}.table")
        try:
            # one type check of the entries; the constructor's one pass does the rest
            if not {type(v) for row in table for v in row} <= {int, float}:
                raise TypeError("table entries must be numbers")
            return cls(kind=kind, table=table)
        except (TypeError, ValueError, OverflowError) as exc:
            for i, row in enumerate(table):  # name the first bad entry, if one is
                json_numbers(row, f"{path}.table[{i}]", 2)
            raise ValueError(f"{path}.table: {exc}") from None


def is_array(q) -> bool:
    """Whether ``q`` is an ndarray; numpy need not be loaded, as none exists before it is."""
    return type(q) is not float and (np := sys.modules.get("numpy")) is not None and isinstance(q, np.ndarray)


def linspace(lo: float, hi: float, n: int, endpoint: bool = True) -> list[float]:
    """``np.linspace(lo, hi, n, endpoint=endpoint)``'s points as floats, bit
    for bit, for ``n`` of at least 2: i*step + lo, or, where the step
    underflows to zero, numpy's i/div*span + lo."""
    div = n - 1 if endpoint else n
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    if endpoint:
        points[-1] = hi
    return points


def sample_grid(lo: float, hi: float, n: int, endpoint: bool = True):
    """``np.linspace(lo, hi, n, endpoint=endpoint)`` on the route rule of
    every sampled check: the grid conditions, the reachability certificate
    and policy enumeration.

    With numpy loaded, as in calibration, the dense scans and any in-process
    batch, the ndarray, and each term is one array call.  Without, as in
    ``simulate`` and ``verify``, :func:`linspace`'s floats, and a float loop
    takes them through the same functions, stage by stage, to the same
    results but for ulps of ``math.exp`` and ``math.log`` against numpy's.
    """
    if "numpy" in sys.modules:
        import numpy as np
        return np.linspace(lo, hi, n, endpoint=endpoint)
    return linspace(lo, hi, n, endpoint)


def _within(q, lo: float, hi: float, name: str, ends):
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
    A table queried at an array goes through ``np.interp``; at a scalar, it
    bisects the knot lists and applies ``np.interp``'s own formula, so the
    two give the same bits: the knot's value at a knot and at either end.
    """
    array = is_array(q)
    if curve.kind is CurveKind.TABULATED:
        xs, ys, lo, hi = curve._knots
        if array:
            import numpy as np
            qs, vs = curve._arrays
            return np.interp(_within(q, lo, hi, "tabulated", qs), qs, vs)
        if not lo <= q <= hi:
            raise CurveDomainError(f"Q={q} outside tabulated domain [{xs[0]}, {xs[-1]}]")
        j = bisect_right(xs, q) - 1  # xs[j] <= q < xs[j + 1]
        if j < 0:
            return ys[0]
        if j == len(xs) - 1 or xs[j] == q:
            return ys[j]
        # float() keeps a NumPy scalar q from making the result one
        return float((ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (q - xs[j]) + ys[j])
    if curve.kind is CurveKind.EXPONENTIAL_DECAY:
        amplitude, rate = curve.coefficients
        try:
            if array:
                import numpy as np
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


@record
class CostSpec(Serializable):
    """Quadratic per-period cost, cost(Q) = alpha*Q + beta*Q**2 in M$/yr."""

    alpha: float  # M$/GW-yr
    beta: float  # M$/GW^2-yr

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ValueError("cost coefficients must be nonnegative and finite")

    def cost(self, q):
        return self.alpha * q + self.beta * q * q

    def slope(self, q):
        return self.alpha + 2.0 * self.beta * q

    def value_range(self, a: float, b: float) -> tuple[float, float, float]:
        """:meth:`GridCurve.value_range` on [a, b], 0 <= a <= b, where the cost is nondecreasing."""
        return self.cost(a), self.cost(b), self.cost(b)

    @classmethod
    def from_dict(cls, doc: dict, path: str = "cost") -> "CostSpec":
        return read_numbers(cls, doc, path)


class PeriodState(NamedTuple):
    """The grid at one capacity: every number a period's decisions read.

    Built by :meth:`GridModel.state`.  Price, revenue, expansion, share,
    status and phase of the period are arithmetic on these six values:
    a simulated period builds one state and one
    :class:`~vrpplan.demand_pricing.Decision` from it, which serve the limit
    test, the step and the record.
    Immutable; a tuple rather than a :func:`~vrpplan.serialize.record`
    because one is built per period, and a tuple builds in a third the time.
    The same holds for every per-period result (``Decision``,
    ``PeriodSolution``, ``SharingSolution``, ``PeriodRecord``).  Built from an
    array of capacities, every field is an array: the oracles' grid in one
    state; by :meth:`GridModel.state_range`, a value range.
    """

    q: float  # capacity, GW, inside the model domain
    e: float  # emissions intensity e(Q), ton-CO2/MWh
    f: float  # delivered output f(Q), GW
    pi: float  # energy value pi(Q), M$/GW-yr
    C_S: float  # system cost C_S(Q), M$/yr
    C_R: float  # renewable operating cost C_R(Q), M$/yr

    @property
    def cost(self) -> float:
        """Non-investment cost C = C_S + C_R - f*pi, M$/yr; negative while the
        generators' wholesale surplus exceeds system cost, as at low penetration."""
        return self.C_S + self.C_R - self.f * self.pi

    @property
    def cost_generator(self) -> float:
        """Generator-side net cost C_2 = C_R - f*pi, M$/yr; its sign decides
        whether generators need a share of program revenue."""
        return self.C_R - self.f * self.pi


@record
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
        # each message begins with its field's name, which from_dict prefixes with the path
        lo, hi = self.domain
        object.__setattr__(self, "domain", (float(lo), float(hi)))
        object.__setattr__(self, "invest_cost", float(self.invest_cost))
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("domain must satisfy Q_min < Q_max, both finite")
        if lo < 0.0:
            raise ValueError(f"domain must satisfy Q_min >= 0, got {float(lo)}: capacities are nonnegative")
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
        if is_array(q):
            import numpy as np
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

    def state_range(self, a: float, b: float) -> PeriodState:
        """:meth:`state`'s fields over [a, b], a <= b, ends clamped as there: each a ``value_range``."""
        a, b = self._clamp(a), self._clamp(b)
        parts = (self.emissions, self.delivered, self.energy_value, self.cost_system, self.cost_renewable)
        return PeriodState((a, b, b), *(part.value_range(a, b) for part in parts))

    def emissions_at(self, q: float) -> float:
        return eval_curve(self.emissions, self._clamp(q))

    def delivered_at(self, q: float) -> float:
        return eval_curve(self.delivered, self._clamp(q))

    def cost_slope(self, q):
        """C'(Q) = C_S' + C_R' - f'*pi - f*pi', M$/GW-yr, at ``q`` clamped as by :meth:`state`."""
        q = self._clamp(q)
        return (
            self.cost_system.slope(q)
            + self.cost_renewable.slope(q)
            - self.delivered.slope(q) * eval_curve(self.energy_value, q)
            - eval_curve(self.delivered, q) * self.energy_value.slope(q)
        )

    @classmethod
    def from_dict(cls, doc: dict, path: str = "grid") -> "GridModel":
        json_typed(doc, dict, path)
        fields = dict(
            emissions=GridCurve.from_dict(doc.get("emissions"), f"{path}.emissions"),
            delivered=GridCurve.from_dict(doc.get("delivered"), f"{path}.delivered"),
            energy_value=GridCurve.from_dict(doc.get("energy_value"), f"{path}.energy_value"),
            cost_renewable=CostSpec.from_dict(doc.get("cost_renewable"), f"{path}.cost_renewable"),
            cost_system=CostSpec.from_dict(doc.get("cost_system"), f"{path}.cost_system"),
            invest_cost=json_number(doc.get("invest_cost"), f"{path}.invest_cost"),
            domain=json_numbers(doc.get("domain"), f"{path}.domain", 2),
        )
        try:
            return cls(**fields)
        except ValueError as exc:  # its message begins with the field's name
            raise ValueError(f"{path}.{exc}") from None


@contextmanager
def array_arithmetic(what: str):
    """Array arithmetic that overflows or makes NaN raises CurveDomainError
    naming ``what``, where scalar arithmetic carries inf to the output check."""
    import numpy as np
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise CurveDomainError(f"{what}: {exc}") from None


def finite_samples(what: str, stage: str, values, qs):
    """``values``, one float or tuple of floats per sample of ``qs``, if all are
    finite; else a CurveDomainError naming ``what`` and ``stage`` at the first
    sample.  The float loops' counterpart of :func:`array_arithmetic`: where
    the array route raises, so does a float loop that checks each stage."""
    for value, q in zip(values, qs):
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise CurveDomainError(f"{what}: {stage} not finite at Q={q}: {value}")
    return values


@record
class ConditionCheck(Serializable):
    name: str
    passed: bool
    first_violation_q: float | None = None


@record
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


_CONDITIONS = "grid conditions"


def validate_grid_conditions(model: GridModel, n_samples: int = 200) -> ConditionReport:
    """Sample every curve and report the structural-condition checks.

    Checked on a uniform grid over the model domain, monotonicity and
    concavity within ZERO_TOL (non-strict, since tabulated empirical curves
    are only weakly monotone) and |f(0)| within CERTIFY_TOL: e > 0 and
    nonincreasing; f(0) ~ 0, f nondecreasing and discretely concave; pi
    nonincreasing.  The grid and its route are :func:`sample_grid`'s.
    """
    if n_samples < 3:
        raise ValueError("n_samples must be at least 3")
    qs = sample_grid(*model.domain, n_samples)
    return ConditionReport(checks=_sampled_checks(model, qs), n_samples=n_samples)


def _sampled_checks(model: GridModel, qs) -> tuple[ConditionCheck, ...]:
    """The condition checks on the grid ``qs`` of :func:`sample_grid`.  The
    stages are every state, then the differences; overflow or NaN in one
    raises a CurveDomainError on either route."""
    lo, hi = model.domain
    at_origin = lo <= 0.0 <= hi  # no point when 0 is outside the domain
    array = is_array(qs)
    if array:
        import numpy as np
        with array_arithmetic(_CONDITIONS):
            s = model.state(qs)
            e, f, pi = s.e, s.f, s.pi
            de, df, d2f, dpi = np.diff(e), np.diff(f), np.diff(f, 2), np.diff(pi)
            origin = np.zeros(1 if at_origin else 0)
            f0 = np.abs(eval_curve(model.delivered, origin))
            f_max = float(np.max(np.abs(f)))
    else:
        _, e, f, pi, _, _ = zip(*finite_samples(_CONDITIONS, "state", [model.state(q) for q in qs], qs))
        de, df, dpi = ([b - a for a, b in zip(v, v[1:])] for v in (e, f, pi))  # np.diff's b - a
        d2f = [b - a for a, b in zip(df, df[1:])]
        finite_samples(_CONDITIONS, "difference", list(zip(de, df, dpi)), qs[1:])
        finite_samples(_CONDITIONS, "second difference", d2f, qs[1:-1])
        origin = [0.0] if at_origin else []
        f0 = [abs(eval_curve(model.delivered, q)) for q in origin]
        f_max = max(map(abs, f))
    checks = []

    def check(name: str, at, values, bad) -> None:
        if array:
            first = (at[bad(values)][:1].tolist() or [None])[0]
        else:
            first = next((q for q, v in zip(at, values) if bad(v)), None)
        checks.append(ConditionCheck(name, first is None, first))  # the first violating Q, if any

    # e(Q) > 0 on the interior of the sampled grid
    check("emissions_positive", qs[1:-1], e[1:-1], lambda v: v <= 0.0)
    check("emissions_nonincreasing", qs[1:], de, lambda v: v > ZERO_TOL)
    check("delivered_zero_at_origin", origin, f0, lambda v: v > CERTIFY_TOL)
    check("delivered_nondecreasing", qs[1:], df, lambda v: v < -ZERO_TOL)
    concavity_tol = scaled(ZERO_TOL, f_max)
    check("delivered_concave", qs[1:-1], d2f, lambda v: v > concavity_tol)
    check("energy_value_nonincreasing", qs[1:], dpi, lambda v: v > ZERO_TOL)
    return tuple(checks)
