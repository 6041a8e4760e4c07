"""Grid primitives: curve evaluation, costs, slopes, condition checks."""

import gc
import math
from bisect import bisect_right
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bumped_emissions, drawn_model, flat_curve, flat_model, formed_state
from vrpplan.demand_pricing import DemandModel, ExpansionStatus, decide_at, demand
from vrpplan.errors import CurveDomainError, NetZeroGridError, NoSellableCreditsError
from vrpplan.grid_model import (
    CostSpec,
    CurveKind,
    GridCurve,
    GridModel,
    PeriodState,
    eval_curve,
    is_array,
    linspace,
    numpy_route,
    validate_grid_conditions,
)
from vrpplan.tolerances import BALANCE_TOL, CERTIFY_TOL, DOMAIN_TOL, ROUNDING_TOL, ZERO_TOL, scaled


def central_difference(fn, q: float, h: float = 1e-6) -> float:
    return (fn(q + h) - fn(q - h)) / (2.0 * h)


class TestEvalCurve:
    def test_tabulated_linear_midpoint(self):
        curve = GridCurve(CurveKind.TABULATED, table=((0.0, 1.0), (10.0, 0.0)))
        assert eval_curve(curve, 5.0) == pytest.approx(0.5)

    def test_quadratic_cost_shape(self):
        # coefficients from the linear term up: 21*Q + 5*Q**2
        curve = GridCurve(CurveKind.POLYNOMIAL, (21.0, 5.0))
        assert eval_curve(curve, 2.0) == pytest.approx(62.0)
        assert eval_curve(curve, 0.0) == 0.0

    def test_exponential_decay(self):
        curve = GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.1))
        assert eval_curve(curve, 3.0) == pytest.approx(0.4 * math.exp(-0.3))

    def test_single_point_table_rejected(self):
        with pytest.raises(ValueError):
            GridCurve(CurveKind.TABULATED, table=((0.0, 0.3),))

    def test_nonincreasing_q_rejected(self):
        with pytest.raises(ValueError):
            GridCurve(CurveKind.TABULATED, table=((0.0, 1.0), (0.0, 2.0)))

    def test_out_of_domain(self):
        curve = GridCurve(CurveKind.TABULATED, table=((0.0, 1.0), (10.0, 0.0)))
        with pytest.raises(CurveDomainError):
            eval_curve(curve, 10.5)
        with pytest.raises(CurveDomainError):
            eval_curve(curve, -0.1)

    def test_rounding_overshoot_evaluates_at_the_end(self):
        # lo + 1.0*(hi - lo) rounds one ulp above hi for these ends
        lo, hi = -30.82558960047005, 21.714803926843032
        curve = GridCurve(CurveKind.TABULATED, table=((lo, 0.0), (hi, 1.0)))
        q = lo + 1.0 * (hi - lo)
        assert q == 21.714803926843036 > hi
        assert eval_curve(curve, q) == 1.0
        with pytest.raises(CurveDomainError):
            eval_curve(curve, hi + 1e-9)
        with pytest.raises(CurveDomainError):
            eval_curve(curve, math.nan)

    @pytest.mark.parametrize(
        "curve, rtol",
        [
            (GridCurve(CurveKind.TABULATED, table=((0.0, 0.4), (3.0, 0.31), (12.0, 0.2))), 0.0),
            (GridCurve(CurveKind.POLYNOMIAL, (21.0, 5.0, -0.3)), 0.0),
            (GridCurve(CurveKind.EXPONENTIAL_DECAY, (120.0, 0.08)), 1e-15),
        ],
        ids=["tabulated", "polynomial", "exponential"],
    )
    def test_array_matches_scalar(self, curve, rtol):
        qs = np.linspace(0.0, 12.0, 1001)
        values = eval_curve(curve, qs)
        scalar = np.array([eval_curve(curve, float(q)) for q in qs])
        if rtol:
            np.testing.assert_allclose(values, scalar, rtol=rtol, atol=0.0)
        else:
            assert np.array_equal(values, scalar)

    def test_an_overflowing_segment_slope_evaluates_inside_its_values(self):
        # the first segment's slope 2/1.1e-308 overflows: it is evaluated by its weight, on both routes;
        # the second segment keeps np.interp's bits
        top, q = 1.1125369292536007e-308, 5.562684646268003e-309
        table = ((0.0, 0.0), (top, 2.0), (1.0, 3.0))
        curve = GridCurve(CurveKind.TABULATED, table=table)
        assert (2.0 / top, q / top) == (math.inf, 0.5)
        points = [0.0, q, top, 0.3, 1.0]
        expected = [0.0, 1.0, 2.0, float(np.interp(0.3, *zip(*table))), 3.0]
        assert [eval_curve(curve, p) for p in points] == expected
        assert eval_curve(curve, np.array(points)).tolist() == expected
        assert (eval_curve(curve, np.array(q)), eval_curve(curve, np.float64(q))) == (1.0, 1.0)
        assert type(eval_curve(curve, np.float64(q))) is float

    def test_exponential_overflow_raises_for_a_point_or_an_array(self):
        curve = GridCurve(CurveKind.EXPONENTIAL_DECAY, (1e308, -700.0))
        for q in (3.0, np.array([0.0, 3.0])):
            with pytest.raises(CurveDomainError, match="overflows"):
                eval_curve(curve, q)

    @pytest.mark.parametrize("n_knots", [2, 3, 9])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_scalar_table_query_has_np_interps_bits(self, n_knots, data):
        # a scalar query bisects Python lists; np.interp on the knot arrays is the oracle
        finite = st.floats(min_value=-1e6, max_value=1e6)
        xs = sorted(data.draw(st.lists(finite, min_size=n_knots, max_size=n_knots, unique=True)))
        vs = [data.draw(finite)]
        for _ in xs[1:]:  # repeated values make flat segments
            vs.append(vs[-1] if data.draw(st.booleans()) else data.draw(finite))
        curve = GridCurve(CurveKind.TABULATED, table=tuple(zip(xs, vs)))
        lo, hi = xs[0], xs[-1]
        slack = scaled(DOMAIN_TOL, lo, hi)
        points = [lo - slack, hi + slack]
        points += [lo - slack * data.draw(st.floats(0.0, 1.0)), hi + slack * data.draw(st.floats(0.0, 1.0))]
        for x in xs:  # every knot and one ulp either side
            points += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
        points += data.draw(st.lists(st.floats(lo, hi), min_size=4, max_size=4))
        knots_q, knots_v = np.array(xs), np.array(vs)
        for q in points:
            value = eval_curve(curve, q)
            assert type(value) is float
            expected = float(np.interp(q, knots_q, knots_v))
            if not math.isfinite(expected):  # a segment whose slope overflows: by its weight
                j = bisect_right(xs, q) - 1
                w = (q - xs[j]) / (xs[j + 1] - xs[j])
                expected = vs[j] * (1.0 - w) + vs[j + 1] * w
            assert value.hex() == expected.hex(), q

    @given(
        knots=st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=2,
            max_size=12,
            unique_by=lambda kv: kv[0],
        ),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @example(knots=[(0.0, 0.0), (1.1125369292536007e-308, 2.0)], fraction=1.0)  # the slope 2/1.1e-308 overflows
    @settings(max_examples=80, deadline=None)
    def test_exact_at_knots_and_monotone_between(self, knots, fraction):
        knots = sorted(knots)
        values = sorted(v for _, v in knots)
        table = tuple((q, v) for (q, _), v in zip(knots, values))
        curve = GridCurve(CurveKind.TABULATED, table=table)
        for q, v in table:
            assert eval_curve(curve, q) == pytest.approx(v, abs=1e-12)
        lo, hi = table[0][0], table[-1][0]
        q1 = lo + fraction * (hi - lo) * 0.5
        q2 = lo + (0.5 + fraction * 0.5) * (hi - lo)
        assert eval_curve(curve, q1) <= eval_curve(curve, q2) + 1e-9
        # one array of the same points: the same floats as one at a time
        points = [q for q, _ in table] + [q1, q2]
        values = eval_curve(curve, np.array(points))
        assert values.tolist() == [eval_curve(curve, q) for q in points]


class TestCostSpec:
    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            CostSpec(-1.0, 0.0)
        with pytest.raises(ValueError):
            CostSpec(0.0, -0.5)

    def test_quadratic_value_and_slope(self):
        spec = CostSpec(21.0, 5.0)
        assert spec.cost(0.5) == pytest.approx(11.75)
        assert spec.slope(3.0) == pytest.approx(51.0)


def sampled_values(value, a: float, b: float, extra=()) -> list[float]:
    """``value`` at 4,001 evenly spaced points of [a, b], both ends and ``extra`` included."""
    return [value(float(q)) for q in (*np.linspace(a, b, 4001), *extra)]


def assert_encloses(value_range, values) -> None:
    # every value within the range, less or more by the rounding slack the oracles allow
    lo, hi, magnitude = value_range
    slack = scaled(ROUNDING_TOL, magnitude)
    assert lo <= hi and max(map(abs, values)) <= magnitude + slack
    assert all(lo - slack <= v <= hi + slack for v in values)


class TestValueRange:
    def test_table_extreme_at_an_interior_knot(self):
        # a peak at the knot 4.0, which neither end of [2.5, 7.0] reaches
        curve = GridCurve(CurveKind.TABULATED, table=((0.0, 0.1), (2.0, 0.3), (4.0, 0.9), (6.0, -0.2), (8.0, 0.4)))
        a, b = 2.5, 7.0
        values = sampled_values(partial(eval_curve, curve), a, b, extra=(4.0, 6.0))
        assert_encloses(curve.value_range(a, b), values)
        assert curve.value_range(a, b)[:2] == (min(values), max(values)) == (-0.2, 0.9)  # exact: knots 6 and 4
        assert curve.value_range(2.5, 3.5)[:2] == (eval_curve(curve, 2.5), eval_curve(curve, 3.5))  # one segment
        assert curve.value_range(4.0, 4.0)[:2] == (0.9, 0.9)

    @pytest.mark.parametrize("coefficients", [(120.0, 0.08), (2.0, -0.3), (-3.0, 0.5)])
    def test_exponential_either_direction(self, coefficients):
        # a negative rate grows, a negative amplitude rises toward zero
        curve = GridCurve(CurveKind.EXPONENTIAL_DECAY, coefficients)
        values = sampled_values(partial(eval_curve, curve), 1.5, 9.0)
        assert_encloses(curve.value_range(1.5, 9.0), values)
        assert curve.value_range(1.5, 9.0)[:2] == (min(values), max(values))

    @pytest.mark.parametrize(
        "coefficients, a, b",
        [((21.0, 5.0, -0.3), 0.0, 12.0), ((3.0, -4.0, 1.0), 0.5, 3.5), ((-1.0, 2.0, -1.5, 0.25), 1.0, 6.0)],
    )
    def test_polynomial_mixed_signs(self, coefficients, a, b):
        curve = GridCurve(CurveKind.POLYNOMIAL, coefficients)
        assert_encloses(curve.value_range(a, b), sampled_values(partial(eval_curve, curve), a, b))
        r = max(abs(a), abs(b))
        assert curve.value_range(a, b)[2] == sum(abs(c) * r**k for k, c in enumerate(coefficients, 1))

    def test_cost_spec(self):
        spec = CostSpec(21.0, 5.0)
        values = sampled_values(spec.cost, 0.5, 12.0)
        assert_encloses(spec.value_range(0.5, 12.0), values)
        assert spec.value_range(0.5, 12.0) == (spec.cost(0.5), spec.cost(12.0), spec.cost(12.0))

    def test_state_range_clamps_like_state(self, baseline_model):
        hi = baseline_model.domain[1]
        r = baseline_model.state_range(3.0, math.nextafter(hi, math.inf))
        assert r.q == (3.0, hi, hi)
        for name, value_range in r._asdict().items():
            if name != "q":
                assert_encloses(value_range, [getattr(baseline_model.state(float(q)), name) for q in np.linspace(3.0, hi, 801)])
        with pytest.raises(CurveDomainError):
            baseline_model.state_range(3.0, hi + 1e-9)


class TestPeriodState:
    def test_state_matches_single_evaluations(self, baseline_model):
        m = baseline_model
        s = m.state(3.0)
        assert (s.q, s.e, s.f, s.pi) == (
            3.0,
            m.emissions_at(3.0),
            m.delivered_at(3.0),
            eval_curve(m.energy_value, 3.0),
        )
        assert (s.C_S, s.C_R) == (m.cost_system.cost(3.0), m.cost_renewable.cost(3.0))
        assert s.cost == s.C_S + s.C_R - s.f * s.pi
        assert s.cost_generator == s.C_R - s.f * s.pi
        # an array state: e and pi are exponential curves, where np.exp and
        # math.exp may differ in the last ulp; f and the costs are the same floats,
        # and C and C_2 carry pi's ulps, an ulp of |C_S| + |C_R| + |f*pi|
        qs = np.linspace(*m.domain, 257)
        states = [m.state(float(q)) for q in qs]
        array = m.state(qs)
        ulp = np.spacing(np.abs(array.C_S) + np.abs(array.C_R) + np.abs(array.f * array.pi))
        for name, value in array._asdict().items():
            rtol = 1e-15 if name in ("e", "pi") else 0.0
            expected = [getattr(x, name) for x in states]
            atol = ulp if name in ("cost", "cost_generator") else 0.0
            assert np.all(np.abs(value - expected) <= rtol * np.abs(expected) + atol), name

    def test_state_clamps_rounding_overshoot_only(self):
        lo, hi = 8.835448658992814, 41.624944259365925  # lo + 1.0*(hi - lo) rounds one ulp above hi
        model = flat_model(0.4, 2.0, 5.0, domain=(lo, hi))
        overshoots = [lo + 1.0 * (hi - lo), math.nextafter(lo, -math.inf)]
        assert overshoots[0] > hi
        assert model.state(overshoots[0]).q == hi
        assert model.state(overshoots[1]).q == lo
        assert model.state(np.array(overshoots + [20.0])).q.tolist() == [hi, lo, 20.0]
        for q in (hi + 1e-9, lo - 1e-9, math.nan):
            with pytest.raises(CurveDomainError):
                model.state(q)
            with pytest.raises(CurveDomainError):
                model.state(np.array([20.0, q]))


class TestCostAggregates:
    def test_integrated_direct_sum(self):
        # C_S(2) = 10, C_R(2) = 20, f = 2, pi = 5 -> 10 + 20 - 10 = 20
        model = flat_model(0.4, 2.0, 5.0, alpha_r=10.0, alpha_s=5.0)
        assert model.state(2.0).cost == pytest.approx(20.0)

    def test_integrated_at_zero_is_fixed_costs(self):
        model = GridModel(
            emissions=flat_curve(0.4),
            delivered=GridCurve(CurveKind.TABULATED, table=((0.0, 0.0), (10.0, 5.0))),
            energy_value=flat_curve(30.0),
            cost_renewable=CostSpec(10.0, 1.0),
            cost_system=CostSpec(5.0, 0.5),
            invest_cost=1000.0,
            domain=(0.0, 10.0),
        )
        # quadratic costs vanish at Q=0 and f(0)=0 kills the market term
        assert model.state(0.0).cost == pytest.approx(0.0)

    def test_baseline_term_by_term(self, baseline_model):
        q = 0.5
        c_r = baseline_model.cost_renewable.cost(q)
        c_s = baseline_model.cost_system.cost(q)
        assert c_r == pytest.approx(21 * 0.5 + 5 * 0.25)
        assert c_s == pytest.approx(9.6 * 0.5 + 1 * 0.25)
        expected = (
            c_s
            + c_r
            - baseline_model.delivered_at(q) * eval_curve(baseline_model.energy_value, q)
        )
        assert baseline_model.state(q).cost == pytest.approx(expected, rel=1e-12)

    def test_operator_cost(self):
        # the operator's budget: C_S(0.5) = 5.05, plus k*q for an expansion q
        model = flat_model(0.4, 2.0, 5.0, alpha_s=10.1)
        c_s = model.state(0.5).C_S
        assert c_s + model.invest_cost * 0.01 == pytest.approx(5.05 + 10.0)
        assert c_s == pytest.approx(5.05)

    def test_generator_cost_sign(self):
        surplus = flat_model(0.4, 2.0, 15.0, alpha_r=10.0)
        shortfall = flat_model(0.4, 2.0, 5.0, alpha_r=10.0)
        assert surplus.state(2.0).cost_generator == pytest.approx(-10.0)
        assert shortfall.state(2.0).cost_generator == pytest.approx(10.0)

    def test_split_identity(self, baseline_model):
        rng = np.random.default_rng(7)
        lo, hi = baseline_model.domain
        for q in rng.uniform(lo, hi, size=100):
            s = baseline_model.state(q)
            assert s.cost == pytest.approx(s.C_S + s.cost_generator, rel=1e-9, abs=1e-9)


def slope_at(curve: GridCurve, q):
    """``curve``'s slope at ``q``, given its value there, as a state holds it."""
    return curve.slope(q, eval_curve(curve, q))


class TestSlopes:
    def test_quadratic_cost_slope(self):
        curve = GridCurve(CurveKind.POLYNOMIAL, (21.0, 5.0))
        assert slope_at(curve, 3.0) == 51.0
        assert slope_at(curve, 3.0) == pytest.approx(central_difference(partial(eval_curve, curve), 3.0), abs=1e-6)

    def test_flat_curve(self):
        curve = flat_curve(3.3)
        assert slope_at(curve, 5.0) == 0.0 == central_difference(partial(eval_curve, curve), 5.0, h=1e-3)

    def test_tabulated_segments(self):
        curve = GridCurve(CurveKind.TABULATED, table=((0.0, 0.0), (10.0, 10.0), (12.0, 11.0)))
        # the lower end, a knot (right-hand segment) and the top end (last segment)
        assert slope_at(curve, 0.0) == 1.0 == pytest.approx(
            (eval_curve(curve, 1e-3) - eval_curve(curve, 0.0)) / 1e-3, abs=1e-9
        )
        assert slope_at(curve, 10.0) == 0.5
        assert slope_at(curve, 12.0) == 0.5
        assert slope_at(curve, np.array([0.0, 5.0, 10.0, 12.0])).tolist() == [1.0, 1.0, 0.5, 0.5]
        with pytest.raises(CurveDomainError):
            curve.slope(np.array([5.0, math.nan]), None)  # a table reads no value

    @pytest.mark.parametrize(
        "curve",
        [GridCurve(CurveKind.TABULATED, table=((0.0, 0.4), (3.0, 0.31), (12.0, 0.2))), "baseline"],
        ids=["three-knots", "baseline-delivered"],
    )
    def test_scalar_table_slope_has_the_array_bits(self, baseline_model, curve):
        # a scalar query bisects the knot lists; the array query's searchsorted is the oracle
        if curve == "baseline":
            curve = baseline_model.delivered
        knots = [q for q, _ in curve.table]
        lo, hi = curve.domain
        slack = scaled(DOMAIN_TOL, lo, hi)
        inside = [
            *knots,
            *(a + f * (b - a) for a, b in zip(knots, knots[1:]) for f in (0.25, 0.5, 0.75)),
            math.nextafter(lo, -math.inf), lo - slack, math.nextafter(hi, math.inf), hi + slack,
        ]
        for q in inside:  # a table reads no value
            assert curve.slope(q, None).hex() == float(curve.slope(np.array([q]), None)[0]).hex(), q
        # all at once: each entry gathers its segment's cached slope
        assert [float(v).hex() for v in curve.slope(np.array(inside), None)] == [curve.slope(q, None).hex() for q in inside]
        for q in (lo - 2.0 * slack, hi + 2.0 * slack, math.nan, -math.inf, math.inf):
            with pytest.raises(CurveDomainError) as array:
                curve.slope(np.array([q]), None)
            with pytest.raises(CurveDomainError) as scalar:
                curve.slope(q, None)
            assert str(scalar.value) == str(array.value)

    def test_an_overflowing_segment_slope_raises_only_where_queried(self):
        # 2/1e-308 overflows: no slope is cached, and an array query divides at its own segments
        curve = GridCurve(CurveKind.TABULATED, table=((0.0, 0.0), (1e-308, 2.0), (12.0, 3.0)))
        assert eval_curve(curve, np.array([6.0])).tolist() == [eval_curve(curve, 6.0)]
        assert curve._arrays[2] is None
        qs = [1e-308, 6.0, 12.0]
        assert [float(v).hex() for v in curve.slope(np.array(qs), None)] == [curve.slope(q, None).hex() for q in qs]
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            curve.slope(np.array([0.0, 6.0]), None)
        assert curve.slope(0.0, None) == math.inf

    def test_array_slopes_match_central_differences(self):
        qs = np.linspace(0.5, 11.5, 23)
        for curve in (
            GridCurve(CurveKind.POLYNOMIAL, (21.0, 5.0, -0.3)),
            GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.06)),
        ):
            expected = [central_difference(partial(eval_curve, curve), q) for q in qs]
            np.testing.assert_allclose(slope_at(curve, qs), expected, rtol=1e-7)

    def test_baseline_emissions_slope_small(self, baseline_model):
        qs = np.linspace(*baseline_model.domain, 100)
        slopes = slope_at(baseline_model.emissions, qs)
        assert np.max(np.abs(slopes)) < 0.1
        np.testing.assert_allclose(
            slopes, [central_difference(partial(eval_curve, baseline_model.emissions), q) for q in qs], rtol=1e-7
        )

    def test_cost_slope_by_hand(self):
        # C = (2Q + 0.5Q^2) + (10Q + Q^2) - 2*5, so C' = 12 + 3Q
        model = flat_model(0.4, 2.0, 5.0, alpha_r=10.0, beta_r=1.0, alpha_s=2.0, beta_s=0.5)
        assert model.cost_slope(model.state(3.0)) == 21.0
        assert model.cost_slope(model.state(np.array([0.0, 3.0]))).tolist() == [12.0, 21.0]

    def test_baseline_cost_slope_matches_central_differences(self, baseline_model):
        # midpoints of the 0.025 GW knot spacing of the delivered table, away from its kinks
        qs = 0.0125 + 0.025 * np.arange(3, 470, 13)
        expected = [central_difference(lambda q: baseline_model.state(q).cost, q) for q in qs]
        slopes = baseline_model.cost_slope(baseline_model.state(qs))
        np.testing.assert_allclose(slopes, expected, rtol=1e-6)
        assert baseline_model.cost_slope(baseline_model.state(float(qs[0]))) == pytest.approx(slopes[0], rel=1e-14)


def reference_conditions(model: GridModel, n_samples: int) -> dict:
    """The conditions as they were once checked, at ``n_samples`` points of
    ``np.linspace`` over the domain, with the same tolerances: each check's
    first violating sample, or None.  A reference, blind between samples."""
    lo, hi = model.domain
    qs = np.linspace(lo, hi, n_samples)
    e, f, pi = (eval_curve(curve, qs) for curve in (model.emissions, model.delivered, model.energy_value))

    def first(at, bad):
        return (at[bad][:1].tolist() or [None])[0]

    return {
        "emissions_positive": first(qs[1:-1], e[1:-1] <= 0.0),
        "emissions_nonincreasing": first(qs[1:], np.diff(e) > ZERO_TOL),
        "delivered_zero_at_origin": 0.0 if lo <= 0.0 and abs(eval_curve(model.delivered, 0.0)) > CERTIFY_TOL else None,
        "delivered_nondecreasing": first(qs[1:], np.diff(f) < -ZERO_TOL),
        "delivered_concave": first(qs[1:-1], np.diff(f, 2) > scaled(ZERO_TOL, float(np.max(np.abs(f))))),
        "energy_value_nonincreasing": first(qs[1:], np.diff(pi) > ZERO_TOL),
    }


# each condition's curve, derivative order and sign: it fails where sign * that derivative lies past 0
CONDITIONS = {
    "emissions_positive": ("emissions", 0, -1.0),
    "emissions_nonincreasing": ("emissions", 1, 1.0),
    "delivered_nondecreasing": ("delivered", 1, -1.0),
    "delivered_concave": ("delivered", 2, 1.0),
    "energy_value_nonincreasing": ("energy_value", 1, 1.0),
}


def truly_fails(model: GridModel, name: str, q: float) -> bool:
    """Whether condition ``name`` fails at Q = q with no tolerance, computed
    here with numpy: a polynomial's or exponential's derivative at q, or at a
    table's knot q the step into it or its depth below its neighbours' chord."""
    if name == "delivered_zero_at_origin":
        return q == 0.0 and eval_curve(model.delivered, 0.0) != 0.0
    field, order, sign = CONDITIONS[name]
    curve = getattr(model, field)
    if curve.kind is CurveKind.POLYNOMIAL:
        value = np.polynomial.Polynomial([0.0, *curve.coefficients]).deriv(order)(q)
    elif curve.kind is CurveKind.EXPONENTIAL_DECAY:
        amplitude, rate = curve.coefficients
        value = (-rate) ** order * amplitude * math.exp(-rate * q)
    else:
        lo, hi = model.domain
        knots = np.array(sorted({lo, hi, *(x for x, _ in curve.table if lo < x < hi)}))
        v = np.interp(knots, *np.array(curve.table).T)
        k = int(np.flatnonzero(knots == q)[0])
        if order == 1:
            value = v[k] - v[k - 1]
        elif order == 2:
            value = -(v[k] - np.interp(q, knots[[k - 1, k + 1]], v[[k - 1, k + 1]]))
        else:
            value = v[k]
    return sign * value >= 0.0 if order == 0 else sign * value > 0.0


class TestValidateGridConditions:
    def test_baseline_accepted(self, baseline_model):
        report = validate_grid_conditions(baseline_model)
        assert report.passed
        assert all(c.first_violation_q is None for c in report.checks)
        assert report.to_dict() == {"passed": True, "checks": [c.to_dict() for c in report.checks]}

    def test_emissions_decay_passes(self):
        model = flat_model(0.4, 2.0, 5.0)
        model = GridModel(
            emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.1)),
            delivered=model.delivered,
            energy_value=model.energy_value,
            cost_renewable=model.cost_renewable,
            cost_system=model.cost_system,
            invest_cost=model.invest_cost,
            domain=model.domain,
        )
        assert validate_grid_conditions(model).check("emissions_nonincreasing").passed

    def test_concave_delivered_passes(self):
        model = GridModel(
            emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.1)),
            delivered=GridCurve(
                CurveKind.TABULATED, table=((0.0, 0.0), (1.0, 2.0), (2.0, 3.0))
            ),
            energy_value=flat_curve(5.0, (0.0, 2.0)),
            cost_renewable=CostSpec(1.0, 0.0),
            cost_system=CostSpec(1.0, 0.0),
            invest_cost=1000.0,
            domain=(0.0, 2.0),
        )
        report = validate_grid_conditions(model)
        assert report.check("delivered_concave").passed
        assert report.check("delivered_nondecreasing").passed

    def test_increasing_energy_value_fails(self):
        model = GridModel(
            emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.1)),
            delivered=GridCurve(
                CurveKind.TABULATED,
                table=((0.0, 0.0), (1.0, 2.0), (2.0, 3.0), (5.0, 4.0)),
            ),
            energy_value=GridCurve(CurveKind.TABULATED, table=((0.0, 50.0), (5.0, 60.0))),
            cost_renewable=CostSpec(1.0, 0.0),
            cost_system=CostSpec(1.0, 0.0),
            invest_cost=1000.0,
            domain=(0.0, 5.0),
        )
        report = validate_grid_conditions(model)
        check = report.check("energy_value_nonincreasing")
        assert not check.passed
        assert check.first_violation_q == 5.0  # the table's one step ends at the domain's top
        assert not report.passed

    def test_accepted_implies_emissions_monotone_on_grid(self, baseline_model):
        assert validate_grid_conditions(baseline_model).passed
        qs = np.linspace(*baseline_model.domain, 100)
        values = [baseline_model.emissions_at(q) for q in qs]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_a_bump_between_samples_fails_at_its_knot(self, baseline_model):
        model = bumped_emissions(baseline_model)
        for n_samples in (200, 1000):  # no sample falls on the 2 MW bump
            assert reference_conditions(model, n_samples)["emissions_nonincreasing"] is None
        report = validate_grid_conditions(model)
        assert [c.name for c in report.checks if not c.passed] == ["emissions_nonincreasing"]
        assert report.check("emissions_nonincreasing").first_violation_q == 6.013

    def test_a_table_knot_below_its_neighbours_chord_fails_there(self, baseline_model):
        f = baseline_model.delivered
        table = {**dict(f.table), **{q: eval_curve(f, q) for q in (6.012, 6.014)}}
        table[6.013] = eval_curve(f, 6.013) - 1e-4  # a dent 1 MW wide, f still nondecreasing
        model = baseline_model._replace(delivered=GridCurve(CurveKind.TABULATED, table=tuple(sorted(table.items()))))
        assert reference_conditions(model, 1000)["delivered_concave"] is None
        report = validate_grid_conditions(model)
        assert [c.name for c in report.checks if not c.passed] == ["delivered_concave"]
        assert report.check("delivered_concave").first_violation_q == 6.013
        assert truly_fails(model, "delivered_concave", 6.013)

    def test_a_polynomial_convex_on_the_last_tenth_of_a_mw_fails_there(self, baseline_model):
        # f = 5Q - 0.3Q^2 + cQ^3: f'' = -0.6 + 6cQ turns positive at 12 - 1e-4, f' stays above 1.4
        turn = 12.0 - 1e-4
        model = baseline_model._replace(delivered=GridCurve(CurveKind.POLYNOMIAL, (5.0, -0.3, 0.1 / turn)))
        assert reference_conditions(model, 10**4)["delivered_concave"] is None
        report = validate_grid_conditions(model)
        assert [c.name for c in report.checks if not c.passed] == ["delivered_concave"]
        q = report.check("delivered_concave").first_violation_q
        # f'' passes its tolerance, about 6e-8, some 1.2e-6 GW past the turn
        assert turn < q < turn + 1e-5 and truly_fails(model, "delivered_concave", q)

    def test_a_second_derivative_touching_its_tolerance_takes_few_pieces(self, baseline_model, monkeypatch):
        # f'' = T - 0.01 (Q - 6)^2, T the concavity tolerance, touches it at Q = 6: a bound from
        # value_range of f'' alone shrinks as fast as the piece, and took millions of pieces there
        tolerance = 0.0
        for _ in range(5):  # T moves the tolerance it is set to by less each time
            f = GridCurve(CurveKind.POLYNOMIAL, (5.0, (tolerance - 0.36) / 2.0, 0.02, -0.01 / 12.0))
            tolerance = scaled(ZERO_TOL, *f.value_range(0.0, 12.0)[:2])
        ranges = []
        value_range = GridCurve.value_range
        monkeypatch.setattr(GridCurve, "value_range", lambda curve, a, b: ranges.append(a) or value_range(curve, a, b))
        report = validate_grid_conditions(baseline_model._replace(delivered=f))
        assert report.check("delivered_concave").passed
        assert len(ranges) < 1000

    def test_zero_emissions_at_the_domain_start_pass_and_inside_fail(self, baseline_model):
        # 0.4Q - 0.01Q^2 is 0 only at Q = 0; 0.4Q - 0.1Q^2 also at Q = 4; -0.4Q is below 0 past Q = 0
        for coefficients, low, high in (((0.4, -0.01), None, None), ((0.4, -0.1), 4.0, 4.0 + 1e-9), ((-0.4,), 0.0, 0.0)):
            model = baseline_model._replace(emissions=GridCurve(CurveKind.POLYNOMIAL, coefficients))
            q = validate_grid_conditions(model).check("emissions_positive").first_violation_q
            assert q is None if low is None else low <= q <= high and truly_fails(model, "emissions_positive", q)
        for table, first in (
            (((0.0, 0.0), (6.0, 0.2), (12.0, 0.0)), None),  # 0 at both ends only
            (((0.0, 0.2), (6.0, 0.0), (12.0, 0.1)), 6.0),  # 0 at a knot inside
            (((0.0, -0.1), (6.0, 0.2), (12.0, 0.1)), 0.0),  # below 0 at an end
            (((0.0, 0.0), (12.0, 0.0)), 0.0),  # 0 throughout
        ):
            model = baseline_model._replace(emissions=GridCurve(CurveKind.TABULATED, table=table))
            assert validate_grid_conditions(model).check("emissions_positive").first_violation_q == first

    def test_exponential_signs_decide(self, baseline_model):
        for coefficients, failing in (
            ((0.4, 0.06), []),
            ((0.4, -1e-12), ["emissions_nonincreasing"]),
            ((-0.4, 0.06), ["emissions_positive", "emissions_nonincreasing"]),
            ((0.0, 0.06), ["emissions_positive"]),
        ):
            model = baseline_model._replace(emissions=GridCurve(CurveKind.EXPONENTIAL_DECAY, coefficients))
            report = validate_grid_conditions(model)
            assert [c.name for c in report.checks if not c.passed] == failing
            assert all(c.first_violation_q == 0.0 for c in report.checks if not c.passed)

    @pytest.mark.parametrize(
        "field, curve",
        [
            ("delivered", GridCurve(CurveKind.POLYNOMIAL, (1.0, 0.0, 1e307))),  # the enclosure of f' overflows
            ("delivered", GridCurve(CurveKind.POLYNOMIAL, (1.0, 0.0, 1e308))),  # so does a coefficient of f'
            ("emissions", GridCurve(CurveKind.TABULATED, table=((0.0, -1.7e308), (12.0, 1.7e308)))),  # a step overflows
        ],
    )
    def test_a_value_past_the_float_range_raises(self, baseline_model, field, curve):
        with pytest.raises(CurveDomainError, match="^grid conditions: "):
            validate_grid_conditions(baseline_model._replace(**{field: curve}))

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(CurveKind),
        start=st.sampled_from((0.0, 0.25)),  # 0.25: the origin lies outside the domain
    )
    @settings(max_examples=100, deadline=None)
    def test_a_pass_holds_at_every_sample_and_a_failure_is_real(self, seed, kind, start):
        _, model = drawn_model(kind, np.random.default_rng(seed))
        model = model._replace(domain=(start * model.domain[1], model.domain[1]))
        sampled = reference_conditions(model, 10**4)
        for check in validate_grid_conditions(model).checks:
            if check.passed:
                assert sampled[check.name] is None, check.name
            else:
                assert truly_fails(model, check.name, check.first_violation_q), check


class TestLinspace:
    """The float points of every sampled check against ``np.linspace``, bit for bit."""

    @pytest.mark.parametrize("endpoint", (True, False))
    @pytest.mark.parametrize("n", (2, 3, 8, 200, 1000))
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0.0, 7.5),  # ordinary
            (0.3, 11.1),
            (9.0, -2.5),  # reversed
            (2.5, 2.5),  # equal: a step of exactly zero
            (-0.0, 0.0),
            # denormal: the step underflows and numpy divides first; at n = 1000 without
            # the endpoint, i * step + lo alone misses 995 of its points
            (0.0, 5e-322),
            (1e-320, 3e-323),
            (-5e-324, 5e-324),
        ],
    )
    def test_points_are_numpys(self, lo, hi, n, endpoint):
        expected = [x.hex() for x in np.linspace(lo, hi, n, endpoint=endpoint).tolist()]
        points = linspace(lo, hi, n, endpoint)
        assert all(type(x) is float for x in points)
        assert [x.hex() for x in points] == expected
        # with numpy loaded, the sampled checks take np.linspace's array itself
        assert numpy_route() is np


class TestSerialization:
    def test_grid_model_json_round_trip(self, baseline_model):
        doc = baseline_model.to_dict()
        clone = GridModel.from_dict(doc)
        assert clone == baseline_model

    def test_curve_round_trip(self):
        for curve in (
            GridCurve(CurveKind.POLYNOMIAL, (21.0, 5.0)),
            GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.06)),
            GridCurve(CurveKind.TABULATED, table=((0.0, 1.0), (2.0, 0.5))),
        ):
            assert GridCurve.from_dict(curve.to_dict()) == curve


class TestScalarRouting:
    """Only an ndarray takes the array path; the test for one needs no numpy."""

    CURVES = (
        GridCurve(CurveKind.POLYNOMIAL, (21.0, 5.0)),
        GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.06)),
        GridCurve(CurveKind.TABULATED, table=((0.0, 0.0), (2.5, 1.7), (3.0, 2.1), (12.0, 6.0))),
    )

    @staticmethod
    def same_float(value, expected: float) -> bool:
        # np.float64 is a float: a NumPy scalar keeps today's type, never an array
        return isinstance(value, float) and not is_array(value) and float(value).hex() == expected.hex()

    @pytest.mark.parametrize("q", [3, 3.0, np.float64(3.0), np.int64(3), 2.75, np.float64(2.75)])
    def test_scalar_capacities_give_the_float_bits(self, baseline_model, q):
        for curve in self.CURVES:
            assert self.same_float(eval_curve(curve, q), eval_curve(curve, float(q)))
        s, expected = baseline_model.state(q), baseline_model.state(float(q))
        assert s.q == q
        for name in ("e", "f", "pi", "C_S", "C_R"):
            assert self.same_float(getattr(s, name), getattr(expected, name)), name
        dm = DemandModel(market_size=10.0, sensitivity=0.0045)
        k = baseline_model.invest_cost
        (price, binding), (p0, b0) = decide_at(dm, s, k)[:2], decide_at(dm, expected, k)[:2]
        assert self.same_float(price, p0) and binding is b0

    def test_only_ndarrays_route_to_the_array_path(self):
        assert is_array(np.array([1.0])) and is_array(np.array(1.0))
        assert not any(map(is_array, (1.0, 1, np.float64(1.0), np.int64(1), [1.0], (1.0,))))

    def test_array_query_bits_do_not_depend_on_a_scalar_query_first(self):
        table = tuple((0.25 * i, math.sqrt(0.25 * i) + 0.1 * math.sin(i)) for i in range(49))
        qs = np.linspace(0.0, 12.0, 1001)
        fresh = GridCurve(CurveKind.TABULATED, table=table)
        warmed = GridCurve(CurveKind.TABULATED, table=table)
        scalar = [eval_curve(warmed, float(q)) for q in qs]
        array = eval_curve(fresh, qs)
        assert array.tobytes() == eval_curve(warmed, qs).tobytes()
        assert array.tobytes() == np.interp(qs, *map(np.array, zip(*table))).tobytes()
        assert array.tolist() == scalar
        assert fresh.slope(qs, None).tobytes() == warmed.slope(qs, None).tobytes()


def reference_curve(curve: GridCurve, q):
    """A curve at a scalar ``q``, written out term by term from its table or
    coefficients: the reference its bound kernel matches bit for bit."""
    if curve.kind is CurveKind.TABULATED:
        xs, ys = (list(column) for column in zip(*curve.table))
        slack = scaled(DOMAIN_TOL, xs[0], xs[-1])
        if not xs[0] - slack <= q <= xs[-1] + slack:
            raise CurveDomainError(f"Q={q} outside tabulated domain [{xs[0]}, {xs[-1]}]")
        j = bisect_right(xs, q) - 1
        if j < 0:
            return ys[0]
        if j == len(xs) - 1 or xs[j] == q:
            return ys[j]
        return float((ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (q - xs[j]) + ys[j])
    if curve.kind is CurveKind.EXPONENTIAL_DECAY:
        amplitude, rate = curve.coefficients
        try:
            return amplitude * math.exp(-rate * q)
        except OverflowError:
            raise CurveDomainError(f"exponential curve overflows at Q={q}") from None
    acc = 0.0
    for c in reversed(curve.coefficients):
        acc = (acc + c) * q
    return acc


def reference_clamp(model: GridModel, q):
    q, (lo, hi) = float(q), model.domain  # the model reads a NumPy scalar as a builtin float
    if lo <= q <= hi:
        return q
    slack = scaled(DOMAIN_TOL, lo, hi)
    if lo - slack <= q <= hi + slack:
        return min(max(q, lo), hi)
    raise CurveDomainError(f"Q={q} outside model domain [{lo}, {hi}]")


def reference_state(model: GridModel, q) -> tuple:
    q = reference_clamp(model, q)
    curves = (model.emissions, model.delivered, model.energy_value)
    costs = (model.cost_system.cost(q), model.cost_renewable.cost(q))
    return tuple(formed_state(q, *(reference_curve(curve, q) for curve in curves), *costs))


def reference_decision(dm: DemandModel, s: PeriodState, k: float) -> tuple:
    """The period decision through price regime, :func:`demand` and the status tolerance, each in its own step."""
    if s.e <= 0:
        raise NetZeroGridError(f"e(Q)={s.e} at Q={s.q}: no emissions left to differentiate")
    if s.f <= 0:
        raise NoSellableCreditsError(f"f(Q)={s.f} at Q={s.q}: no credits to sell")
    base = s.e / dm.sensitivity
    if dm.market_size * math.exp(-1.0) <= s.f:
        price, binding = base, False
    else:
        ratio = dm.market_size / s.f
        if ratio == math.inf:
            raise NoSellableCreditsError(f"f(Q)={s.f} at Q={s.q}: too few credits to price, M/f(Q) overflows")
        price, binding = base * math.log(ratio), True
    rev = price * demand(dm, price, s.e)
    cost = s.cost
    tol = BALANCE_TOL * max(abs(rev), abs(cost))
    if not rev >= cost - tol:
        return price, binding, rev, 0.0, ExpansionStatus.INFEASIBLE
    if abs(rev - cost) <= tol:
        return price, binding, rev, 0.0, ExpansionStatus.EQUILIBRIUM
    return price, binding, rev, (rev - cost) / k, ExpansionStatus.EXPANDING


def outcome(fn, *args):
    """What ``fn(*args)`` gives, as the type and repr of each value (so the
    bits), or the class and message of what it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared, whatever it is
        return type(exc), str(exc)
    values = tuple(value) if isinstance(value, tuple) else (value,)
    return [type(v) for v in values], repr(values)


def past(end: float, toward: float, ulps: int) -> float:
    for _ in range(ulps):
        end = math.nextafter(end, toward)
    return end


class TestFloatKernel:
    """The kernels bound once per curve and per model give the scalar formulas' bits, types and errors."""

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(CurveKind), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_kernels_match_the_scalar_formulas(self, seed, kind, data):
        dm, model = drawn_model(kind, np.random.default_rng(seed))
        lo, hi = model.domain
        slack = scaled(DOMAIN_TOL, lo, hi)
        knots = [q for q, _ in model.delivered.table] if kind is CurveKind.TABULATED else []
        q = data.draw(st.one_of(
            st.sampled_from([lo, hi, *knots]),
            # 1-4 ulps past each end, or in from it: subnormal capacities make M/f(Q) overflow
            st.builds(past, st.sampled_from([lo, hi]), st.sampled_from([-math.inf, math.inf]), st.integers(1, 4)),
            st.floats(lo, hi),
            st.sampled_from([math.nan, lo - 2.0 * slack, hi + 2.0 * slack, 1e-310, -1e6, 1e6]),
        ))
        if data.draw(st.booleans()):
            q = np.float64(q)
        for curve in (model.emissions, model.delivered, model.energy_value):
            assert outcome(eval_curve, curve, q) == outcome(reference_curve, curve, q)
        assert outcome(model.emissions_at, q) == outcome(lambda q: reference_curve(model.emissions, reference_clamp(model, q)), q)
        assert outcome(model.delivered_at, q) == outcome(lambda q: reference_curve(model.delivered, reference_clamp(model, q)), q)
        assert outcome(model.state, q) == outcome(reference_state, model, q)
        if kind is not CurveKind.TABULATED:  # a domain out to where an exponential overflows
            wide = model._replace(domain=(lo, 1e6))
            assert outcome(wide.state, 1e6) == outcome(reference_state, wide, 1e6)
        try:
            s = model.state(q)
        except CurveDomainError:
            return
        k = model.invest_cost
        for state in (s, s._replace(e=math.nan), s._replace(f=math.nan)):
            assert outcome(decide_at, dm, state, k) == outcome(reference_decision, dm, state, k)

    def test_an_exponential_overflow_raises_the_same_error(self):
        model = GridModel(
            GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.06)), GridCurve(CurveKind.EXPONENTIAL_DECAY, (2.0, -1.0)),
            GridCurve(CurveKind.EXPONENTIAL_DECAY, (100.0, 0.05)), CostSpec(1.0, 1.0), CostSpec(1.0, 1.0), 100.0, (0.0, 1e3),
        )
        assert outcome(model.state, 800.0) == outcome(reference_state, model, 800.0)
        with pytest.raises(CurveDomainError, match="exponential curve overflows at Q=800.0"):
            model.state(800.0)

    def test_a_numpy_scalar_capacity_is_read_as_a_float(self):
        # on a polynomial f a NumPy scalar would keep f(Q) one, and M/f(Q) would overflow in numpy
        # arithmetic, which warns (an error under the warnings filter) before the error the float raises
        dm, model = drawn_model(CurveKind.POLYNOMIAL, np.random.default_rng(5))
        s = model.state(np.float64(1e-310))
        assert [type(v) for v in s] == [float] * 8
        with pytest.raises(NoSellableCreditsError, match=r"M/f\(Q\) overflows"):
            decide_at(dm, s, model.invest_cost)
        assert type(model.emissions_at(np.float64(2.0))) is float

    def test_a_model_leaves_no_cyclic_garbage(self):
        # the kernels hold numbers and other kernels, never their curve or model
        gc.collect()
        gc.disable()
        try:
            for kind in CurveKind:
                dm, model = drawn_model(kind, np.random.default_rng(3))
                decide_at(dm, model.state(0.5 * model.domain[1]), model.invest_cost)
                del model
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_replaced_model_evaluates_with_its_own_fields(self, baseline_demand, baseline_model):
        model = baseline_model._replace(invest_cost=250.0, domain=(1.0, 6.0), cost_system=CostSpec(2.0, 3.0))
        s = model.state(2.0)
        assert (s.C_S, s.C_R) == (CostSpec(2.0, 3.0).cost(2.0), baseline_model.state(2.0).C_R)
        assert model.state(math.nextafter(1.0, 0.0)).q == 1.0
        for q in (0.5, 7.0):
            baseline_model.state(q)
            with pytest.raises(CurveDomainError, match=r"outside model domain \[1.0, 6.0\]"):
                model.state(q)
        d = decide_at(baseline_demand, s, model.invest_cost)
        assert d.expansion == (d.revenue - s.cost) / 250.0


class TestTableCheck:
    """The table is checked in plain Python, with the wording it always had."""

    @pytest.mark.parametrize(
        "table, message",
        [
            (((0.0, 1.0), (1.0,)), r"needs at least 2 \(Q, value\) rows"),
            (((0.0, 1.0), (1.0, 2.0, 3.0)), r"needs at least 2 \(Q, value\) rows"),
            (((0.0, 0.3),), r"needs at least 2 \(Q, value\) rows"),
            ((), r"needs at least 2 \(Q, value\) rows"),
            (((0.0, 1.0), (1.0, math.nan)), "entries must be finite"),
            (((math.nan, 1.0), (1.0, 2.0)), "entries must be finite"),
            (((0.0, 1.0), (1.0, math.inf)), "entries must be finite"),
            (((-math.inf, 1.0), (1.0, 2.0)), "entries must be finite"),
            (((0.0, 1.0), (0.0, 2.0)), "Q values must be strictly increasing"),
            (((0.0, 1.0), (2.0, 2.0), (1.0, 3.0)), "Q values must be strictly increasing"),
        ],
    )
    def test_constructor_message(self, table, message):
        with pytest.raises(ValueError, match=message):
            GridCurve(CurveKind.TABULATED, table=table)

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[0.0, 1.0], [1.0]], r"^grid\.delivered\.table\[1\] must hold 2 numbers, got \[1\.0\]$"),
            ([[0.0, 1.0], [1.0, 2.0], [2.0, "3"]], r"^grid\.delivered\.table\[2\]\[1\] must be a number"),
            ([[0.0, 1.0], [1.0, 2.0], [2.0, math.nan]], r"^grid\.delivered\.table\[2\]\[1\] must be a finite"),
            ([[0.0, 1.0], [10**400, 2.0]], r"^grid\.delivered\.table\[1\]\[0\] must be a finite"),
            ([[0.0, 1.0], 2.0], r"^grid\.delivered\.table\[1\] must be an array"),
            (
                [[0.0, 1.0], [0.0, 2.0]],
                r"^grid\.delivered\.table: tabulated curve Q values must be strictly increasing$",
            ),
            ([[0.0, 1.0]], r"^grid\.delivered\.table: tabulated curve needs at least 2 \(Q, value\) rows$"),
        ],
    )
    def test_from_dict_names_the_first_bad_entry(self, table, message):
        with pytest.raises(ValueError, match=message):
            GridCurve.from_dict({"kind": "tabulated", "table": table}, "grid.delivered")

    def test_long_table_round_trips_unchanged(self):
        rng = np.random.default_rng(7)
        qs = np.cumsum(rng.uniform(1e-3, 1e-2, 2401)).tolist()
        doc = {"kind": "tabulated", "table": [[q, v] for q, v in zip(qs, rng.normal(size=2401).tolist())]}
        curve = GridCurve.from_dict(doc)
        assert curve.to_dict() == doc
        assert all(type(v) is float for row in curve.table for v in row)
