"""Grid primitives: emissions intensity, delivered output, energy value, costs.

Canonical units throughout the package:

* capacity          GW
* money             M$ (million dollars), rates are per year
* emissions         ton-CO2/MWh
* delivered output  GW capacity-equivalent (delivered MWh / (8760 * cf * 1000))
* energy value      M$/GW-yr captured by renewables when producing

A :class:`GridModel` is an immutable value object; every evaluation helper is
a pure function, so models can be shared freely across threads.  Evaluations
take a float, on kernels bound once per curve and per model, or an ndarray.

:meth:`GridModel.state` turns a capacity into the :class:`PeriodState`, costs
included, that decisions and checks take (``decide_at``, ``kkt_residuals``,
:meth:`GridModel.cost_slope`); solvers take the capacity.  Every slope is
analytic, and reads the curve's value at Q from the state.
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
from .serialize import json_numbers, json_typed, plain, read_record, record
from .tolerances import CERTIFY_TOL, DOMAIN_TOL, ROUNDING_TOL, ZERO_TOL, scaled


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
        else:
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
        object.__setattr__(self, "_at", _float_evaluator(self))

    @cached_property
    def _arrays(self):
        """The knots as two contiguous float arrays, which ``np.interp`` copies
        neither of, and each segment's slope, in :meth:`slope`'s scalar
        operations; None for the slopes where one overflows, so that a query
        divides at its own segments, under its caller's ``np.errstate``."""
        import numpy as np
        xs, ys, _, _ = self._knots
        qs, vs = np.array(xs), np.array(ys)
        try:
            with np.errstate(over="raise", invalid="raise"):
                return qs, vs, np.diff(vs) / np.diff(qs)
        except FloatingPointError:
            return qs, vs, None

    @property
    def domain(self) -> tuple[float, float]:
        """Declared evaluation domain; parametric curves are unbounded."""
        if self.kind is CurveKind.TABULATED:
            return self.table[0][0], self.table[-1][0]
        return -math.inf, math.inf

    def slope(self, q, v):
        """dv/dQ at ``q``, a float or an ndarray, in closed form, from the
        curve's value ``v`` there, as a :class:`PeriodState` holds it.

        Exponential: -rate * v; polynomial: the Horner derivative; tabulated:
        the slope of the segment [Q_i, Q_i+1) holding Q, so a knot takes its
        right-hand segment and the top end the last one.  A table queried at a
        scalar bisects the knot lists, as :func:`eval_curve` does; at an array,
        each entry gathers its segment's slope, cached with the knot arrays
        from the same operations, so both routes give the same bits.
        """
        if self.kind is CurveKind.EXPONENTIAL_DECAY:
            return -self.coefficients[1] * v
        if self.kind is CurveKind.POLYNOMIAL:
            acc = 0.0
            for power, c in reversed(tuple(enumerate(self.coefficients, 1))):
                acc = acc * q + power * c
            return acc
        xs, ys, lo, hi = self._knots
        if is_array(q):
            import numpy as np
            qs, vs, slopes = self._arrays
            at = _within(np.asarray(q, dtype=float), lo, hi, "tabulated", qs)
            i = np.clip(np.searchsorted(qs, at, side="right") - 1, 0, len(qs) - 2)
            return (vs[i + 1] - vs[i]) / (qs[i + 1] - qs[i]) if slopes is None else slopes[i]
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


def numpy_route():
    """The route of the sampled checks, the certificate and the enumeration,
    in one place that tests can replace: numpy where it is loaded
    (calibration, the dense scans, any in-process batch), which builds their
    points as one ndarray; else None (``simulate``, ``verify``), whose points
    are a list of floats, which a float loop takes to the same results but
    for ulps of math.exp and math.log."""
    return sys.modules.get("numpy")


def certificate_points(model: GridModel, lo: float, hi: float, n: int):
    """The points of the reachability certificate on [lo, hi), and how many
    distinct table knots they hold; or None where its even samples do not
    increase strictly.

    ``n`` samples, :func:`linspace`'s without the endpoint, merged in order
    with every knot in [lo, hi) of the tables among e, f and pi, a point met
    twice taken once: the sample's float where one equals it, else the first
    table's, in that order (a 0.0 and a -0.0 are one point).  On
    :func:`numpy_route`'s route: a list, or an ndarray built from
    ``np.linspace`` and slices of the knot arrays, merged in order by
    :func:`_union`, with the same floats.
    """
    tables = [c for c in (model.emissions, model.delivered, model.energy_value) if c.kind is CurveKind.TABULATED]
    if (np := numpy_route()) is None:
        samples = linspace(lo, hi, n, endpoint=False)
        if not all(map(float.__lt__, samples, samples[1:])):
            return None
        knots = {q for xs in (c._knots[0] for c in tables) for q in xs[bisect_left(xs, lo):bisect_left(xs, hi)]}
        return sorted({*samples, *knots}), len(knots)
    samples = np.linspace(lo, hi, n, endpoint=False)
    if not (samples[:-1] < samples[1:]).all():
        return None
    knots = samples[:0]
    for qs in (c._arrays[0] for c in tables):
        knots = _union(knots, qs[np.searchsorted(qs, lo):np.searchsorted(qs, hi)])
    return _union(samples, knots), len(knots)


def _union(a, b):
    """The increasing arrays ``a`` and ``b`` merged in order, a value in both
    taken once, as ``a``'s float.  No sort: each new value of ``b`` goes
    where ``searchsorted`` places it among ``a``'s.  numpy's sorting code,
    paged in on its first use, would add 0.1-0.3 MB to the resident memory
    of a process that sorts nothing else."""
    import numpy as np
    if not len(a):
        return b
    at = np.searchsorted(a, b)
    new = a.take(at, mode="clip") != b
    at = at[new] + np.arange(np.count_nonzero(new))  # b's new values and how many of them precede each
    merged = np.empty(len(a) + len(at))
    kept = np.ones(len(merged), dtype=bool)
    kept[at] = False
    merged[at], merged[kept] = b[new], a
    return merged


def _within(q, lo: float, hi: float, name: str, ends):
    """``q`` itself if every entry, never NaN, lies in [lo, hi]; ``ends`` name the domain."""
    outside = ~((q >= lo) & (q <= hi))
    if outside.any():
        raise CurveDomainError(f"Q={q[outside][0]} outside {name} domain [{ends[0]}, {ends[-1]}]")
    return q


def _float_evaluator(curve: GridCurve):
    """:func:`eval_curve`'s scalar body for ``curve``, bound once; it holds the numbers, never the curve (a cycle)."""
    if curve.kind is CurveKind.TABULATED:
        xs, ys, lo, hi = curve._knots
        last = len(xs) - 1

        def at(q):
            if not lo <= q <= hi:
                raise CurveDomainError(f"Q={q} outside tabulated domain [{xs[0]}, {xs[-1]}]")
            j = bisect_right(xs, q) - 1  # xs[j] <= q < xs[j + 1]
            if j < 0:
                return ys[0]
            if j == last or xs[j] == q:
                return ys[j]
            # float() keeps a NumPy scalar q from making the result one
            value = float((ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (q - xs[j]) + ys[j])
            if math.isfinite(value):
                return value
            w = (q - xs[j]) / (xs[j + 1] - xs[j])  # the slope overflows: the segment's weight
            return float(ys[j] * (1.0 - w) + ys[j + 1] * w)
    elif curve.kind is CurveKind.EXPONENTIAL_DECAY:
        amplitude, rate = curve.coefficients

        def at(q):
            try:
                return amplitude * math.exp(-rate * q)
            except OverflowError:
                raise CurveDomainError(f"exponential curve overflows at Q={q}") from None
    else:
        reverse = curve.coefficients[::-1]

        def at(q):
            # zero-intercept polynomial by Horner's rule, coefficients from the linear term upward
            acc = 0.0
            for c in reverse:
                acc = (acc + c) * q
            return acc
    return at


def eval_curve(curve: GridCurve, q):
    """Evaluate a curve at capacity ``q`` (GW), a float or an ndarray.

    A scalar, or an array at a polynomial, runs the kernel bound once per
    curve.  A table evaluates a point within DOMAIN_TOL past an end at that
    end; farther out, or at NaN, it raises, as an exponential does where it
    overflows.  An array gives the scalar floats, but for an ulp of ``np.exp``
    against ``math.exp``.  A table's kernel bisects the knot lists and applies
    ``np.interp``'s formula, so both routes give ``np.interp``'s bits; where
    that is not finite, as a slope overflows, they take the segment's weight
    w = (Q - Q_i)/(Q_i+1 - Q_i): v_i (1 - w) + v_i+1 w, inside its values.
    """
    if not is_array(q):
        return curve._at(q)
    import numpy as np
    if curve.kind is CurveKind.TABULATED:
        _, _, lo, hi = curve._knots
        qs, vs, slopes = curve._arrays
        values = np.interp(_within(q, lo, hi, "tabulated", qs), qs, vs)
        if slopes is None and not (finite := np.isfinite(values)).all():  # as the kernel: by its weight
            j = np.clip(np.searchsorted(qs, q, side="right") - 1, 0, len(qs) - 2)
            w = (q - qs[j]) / (qs[j + 1] - qs[j])
            values = np.where(finite, values, vs[j] * (1.0 - w) + vs[j + 1] * w)
        return values
    if curve.kind is CurveKind.EXPONENTIAL_DECAY:
        amplitude, rate = curve.coefficients
        try:
            with np.errstate(over="raise", invalid="raise"):
                return amplitude * np.exp(-rate * q)
        except FloatingPointError:
            raise CurveDomainError(f"exponential curve overflows at Q={q}") from None
    return curve._at(q)


@record
class CostSpec:
    """Quadratic per-period cost, cost(Q) = alpha*Q + beta*Q**2 in M$/yr."""

    alpha: float  # M$/GW-yr
    beta: float  # M$/GW^2-yr

    def __post_init__(self):
        for name in self._fields:
            object.__setattr__(self, name, value := float(getattr(self, name)))
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")

    def cost(self, q):
        return self.alpha * q + self.beta * q * q

    def slope(self, q):
        return self.alpha + 2.0 * self.beta * q

    def value_range(self, a: float, b: float) -> tuple[float, float, float]:
        """:meth:`GridCurve.value_range` on [a, b], 0 <= a <= b, where the cost is nondecreasing."""
        return self.cost(a), self.cost(b), self.cost(b)

    @classmethod
    def from_dict(cls, doc: dict, path: str = "cost") -> "CostSpec":
        return read_record(cls, doc, path)


class PeriodState(NamedTuple):
    """The grid at one capacity: every number a period's decisions read.

    Built by :meth:`GridModel.state`, from a float by the model's kernel.
    Price, revenue, expansion, share, status and phase of the period are
    arithmetic on these eight numbers, the net costs C = (C_S + C_R) - f*pi
    and C_2 = C_R - f*pi formed here once, in that operation order: a
    simulated period builds one state and one
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
    cost: float  # non-investment cost C, M$/yr; negative while f*pi exceeds C_S + C_R, as at low penetration
    cost_generator: float  # generator net cost C_2, M$/yr; where positive, generators need a share of revenue


@record
class GridModel:
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
        # each message begins with its field's name, which read_record prefixes with the path
        lo, hi = map(float, self.domain)
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "invest_cost", float(self.invest_cost))
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("domain must satisfy Q_min < Q_max, both finite")
        if lo < 0.0:
            raise ValueError(f"domain must satisfy Q_min >= 0, got {lo}: capacities are nonnegative")
        if not 0.0 < self.invest_cost < math.inf:
            raise ValueError("invest_cost must be positive and finite")
        for name in ("emissions", "delivered", "energy_value"):
            curve: GridCurve = getattr(self, name)
            clo, chi = curve.domain
            if clo > lo or chi < hi:
                raise ValueError(f"{name} curve covers [{clo}, {chi}], not the model domain [{lo}, {hi}]")
        _bind_float_kernel(self)

    def _clamp(self, q):
        """``q``, a float or an ndarray, inside the domain; within DOMAIN_TOL
        past an end, that end; farther out, or NaN, an error."""
        if not is_array(q):
            return self._clamp_at(q)
        import numpy as np
        lo, hi = self.domain
        slack = scaled(DOMAIN_TOL, lo, hi)
        return np.clip(_within(q, lo - slack, hi + slack, "model", self.domain), lo, hi)

    def state(self, q) -> PeriodState:
        """The grid at capacity ``q``, a float or an ndarray: one domain check,
        one evaluation of e, f and pi.  A float takes the model's kernel."""
        if not is_array(q):
            return self._state_at(q)
        q = self._clamp(q)
        e, f, pi = (eval_curve(curve, q) for curve in (self.emissions, self.delivered, self.energy_value))
        c_s, c_r = self.cost_system.cost(q), self.cost_renewable.cost(q)
        return PeriodState(q, e, f, pi, c_s, c_r, c_s + c_r - (fpi := f * pi), c_r - fpi)

    def state_range(self, a: float, b: float) -> PeriodState:
        """:meth:`state`'s fields over [a, b], a <= b, ends clamped as there: each
        a ``value_range``.  C and C_2 take f*pi's least and greatest corner (pi
        may be negative) in the state's operation order, and magnitudes
        max(|C_S| + |C_R|, |f| |pi|) and max(|C_R|, |f| |pi|), which leave out
        a NaN product, as :func:`scaled` does."""
        a, b = self._clamp(a), self._clamp(b)
        parts = (self.emissions, self.delivered, self.energy_value, self.cost_system, self.cost_renewable)
        e, f, pi, c_s, c_r = (part.value_range(a, b) for part in parts)
        corners = (f[0] * pi[0], f[0] * pi[1], f[1] * pi[0], f[1] * pi[1])
        low, high, size = min(corners), max(corners), f[2] * pi[2]
        cost = (c_s[0] + c_r[0] - high, c_s[1] + c_r[1] - low, max(c_s[2] + c_r[2], size))
        return PeriodState((a, b, b), e, f, pi, c_s, c_r, cost, (c_r[0] - high, c_r[1] - low, max(c_r[2], size)))

    def emissions_at(self, q: float) -> float:
        if is_array(q):
            return eval_curve(self.emissions, self._clamp(q))
        return self.emissions._at(self._clamp_at(q))

    def delivered_at(self, q: float) -> float:
        return self.delivered._at(self._clamp_at(q))

    def cost_slope(self, s: PeriodState):
        """C'(Q) = C_S' + C_R' - f'*pi - f*pi', M$/GW-yr, at the state ``s``, from its f and pi."""
        q, f, pi = s.q, s.f, s.pi
        return (
            self.cost_system.slope(q)
            + self.cost_renewable.slope(q)
            - self.delivered.slope(q, f) * pi
            - f * self.energy_value.slope(q, pi)
        )

    @classmethod
    def from_dict(cls, doc: dict, path: str = "grid") -> "GridModel":
        curve, cost = GridCurve.from_dict, CostSpec.from_dict
        return read_record(
            cls, doc, path, emissions=curve, delivered=curve, energy_value=curve,
            cost_renewable=cost, cost_system=cost, domain=lambda value, at: json_numbers(value, at, 2),
        )


def _bind_float_kernel(model: GridModel) -> None:
    """Bind ``model``'s scalar ``_clamp`` and ``state`` once; they hold its numbers, never it (a cycle)."""
    (lo, hi), system, renewable = model.domain, model.cost_system, model.cost_renewable
    slack = scaled(DOMAIN_TOL, lo, hi)
    e_at, f_at, pi_at = model.emissions._at, model.delivered._at, model.energy_value._at
    a_s, b_s, a_r, b_r = system.alpha, system.beta, renewable.alpha, renewable.beta
    new = tuple.__new__  # skips the NamedTuple's Python-level __new__

    def clamp(q):
        q = float(q)  # a NumPy scalar would carry numpy arithmetic, which warns where floats do not, onward
        if lo <= q <= hi:
            return q
        if lo - slack <= q <= hi + slack:
            return min(max(q, lo), hi)
        raise CurveDomainError(f"Q={q} outside model domain [{lo}, {hi}]")

    def state(q):
        q = float(q)  # as in clamp
        if not lo <= q <= hi:
            q = clamp(q)
        e, f, pi = e_at(q), f_at(q), pi_at(q)
        c_s, c_r = a_s * q + b_s * q * q, a_r * q + b_r * q * q  # CostSpec.cost's operation order
        return new(PeriodState, (q, e, f, pi, c_s, c_r, c_s + c_r - (fpi := f * pi), c_r - fpi))

    object.__setattr__(model, "_clamp_at", clamp)
    object.__setattr__(model, "_state_at", state)


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
class ConditionCheck:
    name: str
    passed: bool
    first_violation_q: float | None = None


@record
class ConditionReport:
    """Pass/fail record of the structural conditions the theory needs."""

    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        return {c.name: c for c in self.checks}[name]

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": plain(self.checks)}


def validate_grid_conditions(model: GridModel) -> ConditionReport:
    """Decide, at no sample, what the theory needs on the domain [lo, hi]: e > 0
    inside it and nonincreasing; |f(0)| <= CERTIFY_TOL where lo is 0; f
    nondecreasing and concave; pi nonincreasing.  A table is decided by its
    steps between knots, lo and hi cut in, and its knots' depths below their
    neighbours' chords; an exponential by its coefficients' signs; a
    polynomial by left-first bisection, each piece [a, b] bounding D, the
    value or derivative tested, by D(m) +- (b - a) max |D'| / 2 with D' from
    value_range (which for D itself shrinks only with the piece: millions of
    pieces near a touch), to pieces scaled(ROUNDING_TOL, lo, hi) wide, decided
    at m.  Tolerances: ZERO_TOL for a wrong-way step or slope, scaled(ZERO_TOL,
    max |f|) for a chord depth or f''; none for e > 0 (lo and hi may hold
    e = 0) or the signs.  ``first_violation_q`` is the failing knot (a step's
    upper one), the least failing Q found, or lo; a non-finite value raises."""
    (lo, hi), f = model.domain, model.delivered
    return ConditionReport(tuple(ConditionCheck(name, q is None, q) for name, q in (
        ("emissions_positive", _first_violation("e", model.emissions, lo, hi, 0, -1.0, -math.ulp(0.0))),  # -e > -ulp: e <= 0
        ("emissions_nonincreasing", _first_violation("e'", model.emissions, lo, hi, 1, 1.0, ZERO_TOL)),
        ("delivered_zero_at_origin", 0.0 if lo <= 0.0 and abs(eval_curve(f, 0.0)) > CERTIFY_TOL else None),
        ("delivered_nondecreasing", _first_violation("f'", f, lo, hi, 1, -1.0, ZERO_TOL)),
        ("delivered_concave", _first_violation("f''", f, lo, hi, 2, 1.0, scaled(ZERO_TOL, *f.value_range(lo, hi)[:2]))),
        ("energy_value_nonincreasing", _first_violation("pi'", model.energy_value, lo, hi, 1, 1.0, ZERO_TOL)),
    )))


def _first_violation(what: str, curve: GridCurve, lo: float, hi: float, order: int, sign: float, tol: float):
    """The first Q of [lo, hi] where ``sign`` times the ``order``-th derivative of ``curve`` exceeds ``tol``, or None."""
    if curve.kind is CurveKind.EXPONENTIAL_DECAY:  # the derivative is this times exp(-rate*Q) > 0
        return lo if sign * (-curve.coefficients[1]) ** order * curve.coefficients[0] > min(tol, 0.0) else None
    if curve.kind is CurveKind.TABULATED:
        xs, ys, _, _ = curve._knots
        i, j = bisect_right(xs, lo), bisect_left(xs, hi)  # xs[i:j] lie strictly inside (lo, hi)
        qs, vs = [lo, *xs[i:j], hi], [sign * v for v in (eval_curve(curve, lo), *ys[i:j], eval_curve(curve, hi))]
        if order == 0:  # an end fails below 0, or at 0 where no value lies above it
            ends = 0.0 if min(vs) < 0.0 else tol
            gaps = zip(qs, [v - (tol if 0 < k < len(vs) - 1 else ends) for k, v in enumerate(vs)])
        elif order == 1:  # each step, at the knot that ends it
            gaps = zip(qs[1:], [b - a - tol for a, b in zip(vs, vs[1:])])
        else:  # each knot's depth below its neighbours' chord
            gaps = zip(qs[1:-1], [u + (w - u) * ((x - t) / (z - t)) - v - tol
                                  for t, x, z, u, v, w in zip(qs, qs[1:], qs[2:], vs, vs[1:], vs[2:])])
        q, gap = next(((q, gap) for q, gap in gaps if not -math.inf < gap <= 0.0), (None, 0.0))  # fails or not finite
        return _finite(what, q, gap)
    # a polynomial: its order-th derivative and the next, each a constant plus a zero-intercept polynomial (zero-padded)
    (c0, *d0), (c1, *d1) = ([math.perm(k, n) * c for k, c in enumerate((0.0, *curve.coefficients)) if k >= n] + [0.0, 0.0]
                            for n in (order, order + 1))
    _finite(what, lo, c0, c1, *d0, *d1)
    value, slope = GridCurve(CurveKind.POLYNOMIAL, d0), GridCurve(CurveKind.POLYNOMIAL, d1)
    width, pieces = scaled(ROUNDING_TOL, lo, hi), [(lo, hi)]
    while pieces:
        a, b = pieces.pop()
        m, narrow = 0.5 * a + 0.5 * b, b - a <= width  # a piece too narrow to split is decided at its midpoint
        low, high, _ = slope.value_range(a, b)  # by the mean value theorem, the derivative lies within g +- r
        g, r = sign * (c0 + eval_curve(value, m)), 0.0 if narrow else 0.5 * (b - a) * max(abs(c1 + low), abs(c1 + high))
        _finite(what, m, g, r, low, high)
        if g - r > tol:  # fails on the whole piece
            return m if narrow else a
        if g + r > tol:
            pieces += [(m, b), (a, m)]
    return None


def _finite(what: str, q: float | None, *values: float) -> float | None:
    """``q`` if every value is finite; else a CurveDomainError naming ``what`` at ``q``."""
    if all(map(math.isfinite, values)):
        return q
    raise CurveDomainError(f"grid conditions: {what} not finite at Q={q}")
