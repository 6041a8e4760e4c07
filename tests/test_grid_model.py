"""Grid primitives: curve evaluation, costs, slopes, condition checks."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drawn_model, flat_curve, flat_model
from vrpplan.demand_pricing import DemandModel, price_at
from vrpplan.errors import CurveDomainError
from vrpplan.grid_model import (
    CostSpec,
    CurveKind,
    GridCurve,
    GridModel,
    _sampled_checks,
    eval_curve,
    is_array,
    validate_grid_conditions,
)
from vrpplan.tolerances import DOMAIN_TOL, scaled


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
            assert value.hex() == float(np.interp(q, knots_q, knots_v)).hex(), q

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
        # math.exp may differ in the last ulp; f and the costs are the same floats
        qs = np.linspace(*m.domain, 257)
        states = [m.state(float(q)) for q in qs]
        for name, value in m.state(qs)._asdict().items():
            rtol = 1e-15 if name in ("e", "pi") else 0.0
            expected = [getattr(x, name) for x in states]
            np.testing.assert_allclose(value, expected, rtol=rtol, atol=0.0)

    def test_state_clamps_rounding_overshoot_only(self):
        lo, hi = -30.82558960047005, 21.714803926843032
        model = flat_model(0.4, 2.0, 5.0, domain=(lo, hi))
        overshoots = [lo + 1.0 * (hi - lo), math.nextafter(lo, -math.inf)]
        assert model.state(overshoots[0]).q == hi
        assert model.state(overshoots[1]).q == lo
        assert model.state(np.array(overshoots + [0.0])).q.tolist() == [hi, lo, 0.0]
        for q in (hi + 1e-9, lo - 1e-9, math.nan):
            with pytest.raises(CurveDomainError):
                model.state(q)
            with pytest.raises(CurveDomainError):
                model.state(np.array([0.0, q]))


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


class TestSlopes:
    def test_quadratic_cost_slope(self):
        curve = GridCurve(CurveKind.POLYNOMIAL, (21.0, 5.0))
        assert curve.slope(3.0) == 51.0
        assert curve.slope(3.0) == pytest.approx(central_difference(partial(eval_curve, curve), 3.0), abs=1e-6)

    def test_flat_curve(self):
        curve = flat_curve(3.3)
        assert curve.slope(5.0) == 0.0 == central_difference(partial(eval_curve, curve), 5.0, h=1e-3)

    def test_tabulated_segments(self):
        curve = GridCurve(CurveKind.TABULATED, table=((0.0, 0.0), (10.0, 10.0), (12.0, 11.0)))
        # the lower end, a knot (right-hand segment) and the top end (last segment)
        assert curve.slope(0.0) == 1.0 == pytest.approx(
            (eval_curve(curve, 1e-3) - eval_curve(curve, 0.0)) / 1e-3, abs=1e-9
        )
        assert curve.slope(10.0) == 0.5
        assert curve.slope(12.0) == 0.5
        assert curve.slope(np.array([0.0, 5.0, 10.0, 12.0])).tolist() == [1.0, 1.0, 0.5, 0.5]
        with pytest.raises(CurveDomainError):
            curve.slope(np.array([5.0, math.nan]))

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
        for q in inside:
            assert curve.slope(q).hex() == float(curve.slope(np.array([q]))[0]).hex(), q
        for q in (lo - 2.0 * slack, hi + 2.0 * slack, math.nan, -math.inf, math.inf):
            with pytest.raises(CurveDomainError) as array:
                curve.slope(np.array([q]))
            with pytest.raises(CurveDomainError) as scalar:
                curve.slope(q)
            assert str(scalar.value) == str(array.value)

    def test_array_slopes_match_central_differences(self):
        qs = np.linspace(0.5, 11.5, 23)
        for curve in (
            GridCurve(CurveKind.POLYNOMIAL, (21.0, 5.0, -0.3)),
            GridCurve(CurveKind.EXPONENTIAL_DECAY, (0.4, 0.06)),
        ):
            expected = [central_difference(partial(eval_curve, curve), q) for q in qs]
            np.testing.assert_allclose(curve.slope(qs), expected, rtol=1e-7)

    def test_baseline_emissions_slope_small(self, baseline_model):
        qs = np.linspace(*baseline_model.domain, 100)
        slopes = baseline_model.emissions.slope(qs)
        assert np.max(np.abs(slopes)) < 0.1
        np.testing.assert_allclose(
            slopes, [central_difference(partial(eval_curve, baseline_model.emissions), q) for q in qs], rtol=1e-7
        )

    def test_cost_slope_by_hand(self):
        # C = (2Q + 0.5Q^2) + (10Q + Q^2) - 2*5, so C' = 12 + 3Q
        model = flat_model(0.4, 2.0, 5.0, alpha_r=10.0, beta_r=1.0, alpha_s=2.0, beta_s=0.5)
        assert model.cost_slope(3.0) == 21.0
        assert model.cost_slope(np.array([0.0, 3.0])).tolist() == [12.0, 21.0]

    def test_baseline_cost_slope_matches_central_differences(self, baseline_model):
        # midpoints of the 0.025 GW knot spacing of the delivered table, away from its kinks
        qs = 0.0125 + 0.025 * np.arange(3, 470, 13)
        expected = [central_difference(lambda q: baseline_model.state(q).cost, q) for q in qs]
        np.testing.assert_allclose(baseline_model.cost_slope(qs), expected, rtol=1e-6)
        assert baseline_model.cost_slope(float(qs[0])) == pytest.approx(
            baseline_model.cost_slope(qs)[0], rel=1e-14
        )


class TestValidateGridConditions:
    def test_baseline_accepted(self, baseline_model):
        report = validate_grid_conditions(baseline_model, 300)
        assert report.passed
        assert all(c.first_violation_q is None for c in report.checks)

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
        assert validate_grid_conditions(model, 50).check("emissions_nonincreasing").passed

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
        report = validate_grid_conditions(model, 5)
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
        report = validate_grid_conditions(model, 11)
        check = report.check("energy_value_nonincreasing")
        assert not check.passed
        assert check.first_violation_q is not None and check.first_violation_q > 0.0
        assert not report.passed

    def test_accepted_implies_emissions_monotone_on_grid(self, baseline_model):
        assert validate_grid_conditions(baseline_model, 100).passed
        qs = np.linspace(*baseline_model.domain, 100)
        values = [baseline_model.emissions_at(q) for q in qs]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_too_few_samples_rejected(self, baseline_model):
        with pytest.raises(ValueError):
            validate_grid_conditions(baseline_model, 2)


class TestConditionRoutes:
    """The condition checks on a list of floats, the float loop that ``verify``
    takes without numpy, against the same grid as an array."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(CurveKind),
        start=st.sampled_from((0.0, 0.25)),  # 0.25: the origin lies outside the domain
        n_samples=st.sampled_from((3, 200, 1000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_loop_matches_array_route(self, seed, kind, start, n_samples):
        _, model = drawn_model(kind, np.random.default_rng(seed))
        model = replace(model, domain=(start * model.domain[1], model.domain[1]))
        qs = np.linspace(*model.domain, n_samples)
        assert qs.tolist() == [
            model.domain[0] + i * ((model.domain[1] - model.domain[0]) / (n_samples - 1))
            for i in range(n_samples - 1)
        ] + [model.domain[1]]  # validate_grid_conditions' float points
        # every name, verdict and first violating Q, bit for bit
        assert _sampled_checks(model, qs.tolist()) == _sampled_checks(model, qs)

    def test_an_overflowing_state_raises_on_both_routes(self, baseline_model):
        model = replace(baseline_model, cost_system=CostSpec(0.0, 1e308))  # C_S overflows past Q = 1.35
        qs = np.linspace(*model.domain, 200)
        for samples in (qs, qs.tolist()):
            with pytest.raises(CurveDomainError, match="^grid conditions: "):
                _sampled_checks(model, samples)


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
        (price, binding), (p0, b0) = price_at(dm, s), price_at(dm, expected)
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
        assert fresh.slope(qs).tobytes() == warmed.slope(qs).tobytes()


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
