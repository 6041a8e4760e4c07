"""Revenue share, separated-accounts expansion, phase classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_model, random_accepted_model
from vrpplan.demand_pricing import DemandModel, Phase, decide_at, price_at, revenue
from vrpplan.errors import InfeasibleSharingError
from vrpplan.revenue_sharing import classify_phase, solve_separated_period

# market size 2e and e/eps = 100 make the regime-1 peak revenue exactly 200
DM200 = DemandModel(market_size=2.0 * math.e, sensitivity=0.0045)


def model_with_generator_cost(c_gen_at_2: float, alpha_s: float = 10.0):
    # flat curves, zero energy value: C_2(2) = alpha_r * 2 = c_gen_at_2
    return flat_model(0.45, 3.0, 0.0, alpha_r=c_gen_at_2 / 2.0, alpha_s=alpha_s)


class TestOptimalShare:
    def test_generator_surplus_needs_no_share(self):
        model = flat_model(0.45, 3.0, 30.0, alpha_r=5.0)  # C_2(2) = 10 - 90 < 0
        assert solve_separated_period(DM200, model, 2.0)[0].share == 0.0

    def test_direct_substitution(self):
        model = model_with_generator_cost(50.0)
        assert solve_separated_period(DM200, model, 2.0)[0].share == pytest.approx(0.25, rel=1e-12)

    def test_share_of_one_or_more_rejected(self):
        model = model_with_generator_cost(250.0)
        with pytest.raises(InfeasibleSharingError):
            solve_separated_period(DM200, model, 2.0)


class TestExpansionGivenShare:
    """The operator funds ((1 - gamma) R* - C_S)/k at the required share gamma."""

    def test_zero_share(self):
        model = model_with_generator_cost(0.0)  # C_2 = 0: no share
        price, _ = price_at(DM200, model.state(2.0))
        rev = revenue(DM200, price, 0.45)
        expected = (rev - model.cost_system.cost(2.0)) / model.invest_cost
        solution, _ = solve_separated_period(DM200, model, 2.0)
        assert solution.share == 0.0
        assert solution.expansion == pytest.approx(expected)

    def test_direct_substitution(self):
        model = model_with_generator_cost(50.0)  # R* = 200, C_S(2) = 20, k = 1000
        value = solve_separated_period(DM200, model, 2.0)[0].expansion
        assert value == pytest.approx(0.13, rel=1e-9)


class TestClassifyPhase:
    def test_labels(self):
        assert classify_phase(0.0, 0.1, True) is Phase.SPONTANEOUS
        assert classify_phase(0.3, 0.05, True) is Phase.SUPPORTED
        assert classify_phase(0.4, 0.0, True) is Phase.EQUILIBRIUM
        assert classify_phase(0.4, 0.1, False) is Phase.INFEASIBLE

    def test_zero_tolerance(self):
        assert classify_phase(1e-10, 0.1, True) is Phase.SPONTANEOUS
        assert classify_phase(0.2, 1e-10, True) is Phase.EQUILIBRIUM

    @given(
        share=st.floats(min_value=0.0, max_value=0.999),
        expansion=st.floats(min_value=0.0, max_value=10.0),
        feasible=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition(self, share, expansion, feasible):
        labels = [
            classify_phase(share, expansion, feasible) is phase
            for phase in (Phase.SPONTANEOUS, Phase.SUPPORTED, Phase.EQUILIBRIUM, Phase.INFEASIBLE)
        ]
        assert sum(labels) == 1


class TestSolveSeparatedPeriod:
    def test_interior_matches_integrated(self):
        model = model_with_generator_cost(50.0)
        solution, sharing = solve_separated_period(DM200, model, 2.0)
        integrated = decide_at(DM200, model.state(2.0), model.invest_cost).expansion
        assert solution.share == pytest.approx(0.25, rel=1e-12)
        assert solution.expansion == pytest.approx(integrated, abs=1e-9)
        assert sharing.equivalent_to_integrated
        assert solution.phase is Phase.SUPPORTED

    def test_interior_both_constraints_bind(self):
        rng = np.random.default_rng(23)
        seen = 0
        while seen < 10:
            dm, model = random_accepted_model(rng)
            lo, hi = model.domain
            for q in np.linspace(lo + 0.1 * (hi - lo), hi * 0.9, 15):
                s = model.state(q)
                if s.cost_generator <= 0:
                    continue
                if decide_at(dm, s, model.invest_cost).expansion <= 1e-9:
                    continue
                solution, sharing = solve_separated_period(dm, model, q)
                if not 0.0 < solution.share < 1.0:
                    continue
                rev = solution.revenue
                tol = 1e-8 * max(1.0, abs(rev))
                operator_total = s.C_S + model.invest_cost * solution.expansion
                assert abs(operator_total - (1.0 - solution.share) * rev) <= tol
                assert abs(s.cost_generator - solution.share * rev) <= tol
                # summing the binding budgets recovers the integrated constraint
                assert abs(operator_total + s.cost_generator - rev) <= tol
                assert sharing.equivalent_to_integrated
                seen += 1
                break

    def test_generator_surplus_not_tapped_by_operator(self):
        # strictly separated accounts: with C_2 < 0 the integrated benchmark
        # out-expands the separated program by exactly |C_2|/k
        rng = np.random.default_rng(29)
        seen = 0
        while seen < 10:
            dm, model = random_accepted_model(rng)
            lo, hi = model.domain
            for q in np.linspace(lo + 0.05 * (hi - lo), hi * 0.7, 15):
                s = model.state(q)
                c_gen = s.cost_generator
                if c_gen >= -1e-6:
                    continue
                integrated = decide_at(dm, s, model.invest_cost).expansion
                solution, sharing = solve_separated_period(dm, model, q)
                if solution.expansion <= 1e-9 or integrated <= 1e-9:
                    continue
                assert solution.share == 0.0
                gap = integrated - solution.expansion
                assert gap == pytest.approx(-c_gen / model.invest_cost, rel=1e-9)
                assert not sharing.equivalent_to_integrated
                assert sharing.generator_budget_residual == pytest.approx(-c_gen)
                assert sharing.operator_budget_residual == pytest.approx(0.0, abs=1e-9)
                seen += 1
                break

    def test_equilibrium_period(self):
        # C_S(2) + C_2(2) = 20 + 180 = 200 = R*: nothing left to invest
        model = model_with_generator_cost(180.0)
        solution, sharing = solve_separated_period(DM200, model, 2.0)
        assert solution.expansion == 0.0
        assert solution.phase is Phase.EQUILIBRIUM
        assert solution.share == pytest.approx(0.9, rel=1e-9)
        assert sharing.operator_budget_residual == pytest.approx(0.0, abs=1e-6)
