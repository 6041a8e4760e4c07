"""Independent output checker for the vrpplan benchmark.

Everything here is re-derived from the scenario document with its own code:
exponentials through ``math.exp``, zero-intercept polynomials by Horner's
rule, tables through ``np.interp``, and an hour-by-hour merit-order loop for
dispatch.  Nothing is imported from ``vrpplan``, so a fault in the program
cannot hide itself by also being in the check.

Every ``check_*`` function raises :class:`CheckFailed` with a message naming
the first property that does not hold.
"""

from __future__ import annotations

import math

import numpy as np

MONEY_REL_TOL = 1e-7  # revenue/cost identities, relative to max(1, |R|, |C|)
VALUE_REL_TOL = 1e-9  # closed-form prices, shares and curve values
KKT_TOL = 1e-6
DISPATCH_ABS_TOL = 1e-9  # GW


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(actual: float, expected: float, rel: float, what: str) -> None:
    scale = max(1.0, abs(actual), abs(expected))
    require(
        math.isfinite(actual) and abs(actual - expected) <= rel * scale,
        f"{what}: got {actual!r}, expected {expected!r}",
    )


class Curve:
    """One grid curve evaluated from its JSON document."""

    def __init__(self, doc: dict):
        self.kind = doc["kind"]
        if self.kind == "tabulated":
            table = np.asarray(doc["table"], dtype=float)
            self.qs, self.vs = table[:, 0], table[:, 1]
        elif self.kind == "parametric-exponential-decay":
            self.amplitude, self.rate = (float(c) for c in doc["coefficients"])
        elif self.kind == "parametric-polynomial":
            self.coefficients = [float(c) for c in doc["coefficients"]]
        else:
            raise CheckFailed(f"unknown curve kind {self.kind!r}")

    def __call__(self, q: float) -> float:
        if self.kind == "tabulated":
            return float(np.interp(q, self.qs, self.vs))
        if self.kind == "parametric-exponential-decay":
            return self.amplitude * math.exp(-self.rate * q)
        acc = 0.0  # Horner, coefficient i multiplies q**(i+1)
        for c in reversed(self.coefficients):
            acc = (acc + c) * q
        return acc


class Model:
    """The closed-form relations of the paper, evaluated from a scenario document."""

    def __init__(self, scenario_doc: dict):
        grid = scenario_doc["grid"]
        self.e = Curve(grid["emissions"])
        self.f = Curve(grid["delivered"])
        self.pi = Curve(grid["energy_value"])
        self.alpha_r = float(grid["cost_renewable"]["alpha"])
        self.beta_r = float(grid["cost_renewable"]["beta"])
        self.alpha_s = float(grid["cost_system"]["alpha"])
        self.beta_s = float(grid["cost_system"]["beta"])
        self.k = float(grid["invest_cost"])
        self.lo, self.hi = (float(x) for x in grid["domain"])
        self.market = float(scenario_doc["demand"]["market_size"])
        self.eps = float(scenario_doc["demand"]["sensitivity"])
        sim = scenario_doc["simulation"]
        self.q_init = float(sim["q_init"])
        self.horizon = int(sim["horizon"])
        self.stop_at_limit = bool(sim.get("stop_at_limit", True))

    # -- primitives -------------------------------------------------------
    def cost_system(self, q: float) -> float:
        return self.alpha_s * q + self.beta_s * q * q

    def cost_generator(self, q: float) -> float:
        return self.alpha_r * q + self.beta_r * q * q - self.f(q) * self.pi(q)

    def cost(self, q: float) -> float:
        return self.cost_system(q) + self.cost_generator(q)

    def price(self, q: float) -> tuple[float, bool]:
        """(price, deliverability cap binds)."""
        e_q, f_q = self.e(q), self.f(q)
        base = e_q / self.eps
        if self.market * math.exp(-1.0) <= f_q:
            return base, False
        return base * math.log(self.market / f_q), True

    def sales(self, p: float, q: float) -> float:
        return self.market * math.exp(-self.eps * p / self.e(q))

    def revenue(self, q: float) -> float:
        p, _ = self.price(q)
        return p * self.sales(p, q)

    def expansion(self, q: float) -> float:
        return max(0.0, (self.revenue(q) - self.cost(q)) / self.k)

    def share(self, q: float) -> float:
        return max(0.0, self.cost_generator(q) / self.revenue(q))

    def gap(self, q: float) -> float:
        """Peak revenue minus cost; its root above the threshold is Q*."""
        return self.e(q) * self.market / (math.e * self.eps) - self.cost(q)

    def money_tol(self, *values: float) -> float:
        return MONEY_REL_TOL * max([1.0] + [abs(v) for v in values])

    # -- long run ---------------------------------------------------------
    def threshold(self) -> float:
        target = self.market * math.exp(-1.0)
        lo, hi = self.lo, self.hi
        if self.f(lo) >= target:
            return lo
        require(self.f(hi) >= target, "deliverability threshold unreachable")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.f(mid) >= target:
                hi = mid
            else:
                lo = mid
        return hi

    def limit(self) -> float:
        lo, hi = self.threshold(), self.hi
        require(self.gap(lo) >= 0.0 > self.gap(hi), "no revenue/cost root in the domain")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def myopic_periods(self, q_star: float) -> int:
        """Expanding periods of the myopic policy before it stops at the limit."""
        q = self.q_init
        for t in range(self.horizon):
            rev, cost = self.revenue(q), self.cost(q)
            if q >= q_star - 1e-9 * max(1.0, q_star) or abs(rev - cost) <= 1e-8 * max(1.0, abs(cost)):
                return t
            q = q + min(max(0.0, (rev - cost) / self.k), max(0.0, q_star - q))
        return self.horizon


# ---------------------------------------------------------------------------
# Admissibility of generated inputs
# ---------------------------------------------------------------------------


def admissible(model: Model, n: int = 96) -> float | None:
    """Q* if the model is in the accepted family, else None.

    Accepted: the threshold is reachable, the gap falls strictly through zero
    above it, every state from q_init to Q* is feasible with a margin, and the
    generators' share stays well below 1.
    """
    try:
        threshold = model.threshold()
    except CheckFailed:
        return None
    gaps = [model.gap(q) for q in np.linspace(threshold, model.hi, n)]
    if not (gaps[0] > 0.0 > gaps[-1] and all(a > b for a, b in zip(gaps, gaps[1:]))):
        return None
    q_star = model.limit()
    if not model.lo < model.q_init < 0.8 * q_star or model.f(model.q_init) <= 0.0:
        return None
    for q in np.linspace(model.q_init, q_star, n):
        rev, cost = model.revenue(q), model.cost(q)
        if rev < cost - model.money_tol(rev, cost) or model.cost_generator(q) > 0.8 * rev:
            return None
    for q in np.linspace(model.q_init, 0.98 * q_star, n):
        if model.revenue(q) - model.cost(q) <= 1e-3 * max(1.0, abs(model.cost(q))):
            return None
    return q_star


# ---------------------------------------------------------------------------
# Single-period results
# ---------------------------------------------------------------------------


def check_price(model: Model, q: float, price: float, capped: bool | None = None) -> None:
    p, cap = model.price(q)
    close(price, p, VALUE_REL_TOL, f"price at Q={q}")
    if capped is not None:
        require(capped == cap, f"price regime at Q={q}: got capped={capped}, expected {cap}")
    require(model.sales(price, q) <= model.f(q) * (1.0 + 1e-9) + 1e-12, f"sales exceed f(Q) at Q={q}")


def check_period(model: Model, q: float, doc: dict) -> None:
    """Integrated single-period optimum (``vrpplan price``)."""
    check_price(model, q, doc["price"], doc["deliverability_binding"])
    close(doc["revenue"], model.revenue(q), VALUE_REL_TOL, f"R* at Q={q}")
    close(doc["expansion"], model.expansion(q), MONEY_REL_TOL, f"(R*-C)/k at Q={q}")
    close(doc["share"], model.share(q), VALUE_REL_TOL, f"share at Q={q}")
    close(doc["emissions_intensity"], model.e(q), VALUE_REL_TOL, f"e at Q={q}")


def check_separated(model: Model, q: float, solution: dict, sharing: dict) -> None:
    """Separated-account solution (``vrpplan share``, ``solve_separated_period``)."""
    check_price(model, q, solution["price"], solution["deliverability_binding"])
    rev = model.revenue(q)
    close(solution["revenue"], rev, VALUE_REL_TOL, f"R* at Q={q}")
    share = model.share(q)
    close(solution["share"], share, VALUE_REL_TOL, f"share max(0, C_gen/R*) at Q={q}")
    expected = max(0.0, ((1.0 - share) * rev - model.cost_system(q)) / model.k)
    require(
        abs(solution["expansion"] - expected) <= model.money_tol(rev) / model.k + 1e-9,
        f"separated expansion at Q={q}: got {solution['expansion']!r}, expected {expected!r}",
    )
    operator = (1.0 - share) * rev - model.cost_system(q) - model.k * solution["expansion"]
    close(sharing["operator_budget_residual"], operator, MONEY_REL_TOL, f"operator residual at Q={q}")
    generator = share * rev - model.cost_generator(q)
    close(sharing["generator_budget_residual"], generator, MONEY_REL_TOL, f"generator residual at Q={q}")
    # Separated accounts cannot pass a generator surplus to the operator, so
    # near the integrated limit the operator budget can fail: that period is
    # labelled infeasible (phase 0), never silently expanded.
    tol = model.money_tol(rev)
    feasible = operator >= -tol and generator >= -tol
    require((solution["phase"] != 0) == feasible, f"phase {solution['phase']} at Q={q}, feasible={feasible}")


# ---------------------------------------------------------------------------
# Long-run limit and its oracle
# ---------------------------------------------------------------------------


def check_limit(model: Model, doc: dict) -> float:
    """``vrpplan limit`` / EquilibriumResult: the gap vanishes at Q* and e(Q*) > 0."""
    q_star = doc["capacity_limit"]
    require(not doc["domain_capped"], "limit capped at the domain edge")
    require(model.lo <= q_star <= model.hi, f"Q*={q_star} outside the domain")
    cost = model.cost(q_star)
    require(
        abs(model.gap(q_star)) <= model.money_tol(cost),
        f"revenue/cost gap {model.gap(q_star)!r} at Q*={q_star}",
    )
    delta = 1e-6 * max(1.0, q_star)
    require(
        model.gap(q_star - delta) > 0.0 > model.gap(q_star + delta),
        f"gap does not change sign at Q*={q_star}",
    )
    e_star = model.e(q_star)
    require(e_star > 0.0, f"e(Q*)={e_star} is not positive")
    close(doc["emissions_at_limit"], e_star, VALUE_REL_TOL, "e(Q*)")
    threshold = doc["deliverability_threshold"]
    require(
        model.f(threshold) >= model.market * math.exp(-1.0) * (1.0 - 1e-9),
        f"f below peak sales at the threshold {threshold}",
    )
    require(threshold <= q_star, "threshold above the limit")
    return q_star


def check_scan_bracket(scan: dict, q_star: float) -> None:
    """``dense_scan_equilibrium``: one sign-change bracket contains the bisection limit."""
    require(scan["found"], "dense scan found no sign change")
    tol = 1e-9 * max(1.0, q_star)
    require(
        any(lo - tol <= q_star <= hi + tol for lo, hi in scan["sign_changes"]),
        f"no scan bracket {scan['sign_changes']} contains Q*={q_star}",
    )


def check_price_scan(model: Model, q: float, scanned: float, n_points: int) -> None:
    """``dense_scan_price``: the grid optimum is within one grid step of the closed form."""
    p, _ = model.price(q)
    base = model.e(q) / model.eps
    p_cap = 10.0 * base
    f_q = model.f(q)
    if 0.0 < f_q < model.market:
        p_cap = max(p_cap, 2.0 * base * math.log(model.market / f_q))
    step = p_cap / (n_points - 1)
    require(abs(scanned - p) <= 1.01 * step, f"scanned price {scanned} vs closed form {p} at Q={q}")


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


def check_trajectory(model: Model, rows: list[dict], q_star: float, horizon: int, stop_at_limit: bool) -> None:
    """Myopic trajectory rows with keys t, Q, p, q, gamma, R, phase."""
    require(0 < len(rows) <= horizon, f"{len(rows)} rows for horizon {horizon}")
    require(rows[0]["Q"] == model.q_init, "trajectory does not start at q_init")
    cap_tol = 1e-12 * max(1.0, q_star)
    for i, row in enumerate(rows):
        q_state, p, x, rev = row["Q"], row["p"], row["q"], row["R"]
        where = f"t={row['t']} Q={q_state}"
        require(row["t"] == i, f"{where}: period index")
        if i + 1 < len(rows):
            require(rows[i + 1]["Q"] == q_state + x, f"{where}: Q_t+1 != Q_t + q_t")
        require(x >= 0.0, f"{where}: negative expansion")
        require(q_state + x <= q_star + cap_tol, f"{where}: Q_t+1 above Q*")
        check_price(model, q_state, p)
        sales = model.sales(p, q_state)
        close(rev, p * sales, VALUE_REL_TOL, f"{where}: R = p D")
        cost = model.cost(q_state)
        tol = model.money_tol(rev, cost)
        require(rev >= cost + model.k * x - tol, f"{where}: R < C + kq")
        expected = min(model.expansion(q_state), max(0.0, q_star - q_state))
        if x > 0.0 and q_state + x < q_star - 1e-9 * max(1.0, q_star):
            require(abs(rev - cost - model.k * x) <= tol, f"{where}: financial constraint not binding")
        if x > 0.0 or not stop_at_limit:
            require(abs(x - expected) <= tol / model.k + cap_tol, f"{where}: q={x!r}, expected {expected!r}")
        close(row["gamma"], model.share(q_state), VALUE_REL_TOL, f"{where}: share")
        phase = (1 if row["gamma"] <= 1e-9 else 2) if x > 1e-9 else 3
        require(row["phase"] == phase, f"{where}: phase {row['phase']}, expected {phase}")
        if stop_at_limit and x == 0.0:
            require(i == len(rows) - 1, f"{where}: stopped period is not the last")
            at_limit = q_state >= q_star - 1e-9 * max(1.0, q_star)
            require(at_limit or abs(rev - cost) <= tol, f"{where}: stopped away from the limit")
    require(model.e(rows[-1]["Q"]) > 0.0, "e reached zero on the trajectory")


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


def _separated_feasible_at_kkt_states(model: Model, q_star: float, n_states: int = 8) -> bool:
    """Whether the separated-account problem is feasible at every state verify's KKT check visits.

    Those states are ``n_states`` evenly spaced from q_init towards Q* where
    the integrated problem still expands.  Where generators run a surplus
    the operator cannot use it, so (1-gamma) R* can fall short of C_S: the
    separated problem is then infeasible and no KKT point exists.
    """
    for q in np.linspace(model.q_init, q_star, n_states, endpoint=False):
        rev, cost = model.revenue(q), model.cost(q)
        if rev - cost <= 1e-8 * max(1.0, abs(cost)):
            continue
        operator = (1.0 - model.share(q)) * rev - model.cost_system(q)
        if operator < -model.money_tol(rev):
            return False
    return True


def check_verification(model: Model, doc: dict, policies: int, dip: bool) -> None:
    """``vrpplan verify`` report: internal consistency plus the theorem where it applies."""
    q_star = check_limit(model, doc["equilibrium"])
    dominance = doc["dominance"]
    certificate = doc["reachability_certificate"]
    kkt = doc["kkt"]
    require(dominance["n_policies_evaluated"] == policies, "policy count")
    consistent = (
        doc["conditions"]["passed"]
        and certificate["holds"]
        and dominance["passed"]
        and kkt["certified"]
    )
    require(doc["passed"] == consistent, "passed flag disagrees with its parts")
    require(kkt["certified"] == (kkt["max_abs_residual"] <= KKT_TOL), "KKT certified flag")
    if dip:
        require(not certificate["holds"], "dip model certified monotone")
        require(dominance["statewise_violations"] > 0, "dip model shows no statewise violation")
        require(not doc["passed"], "dip model reported as passed")
        return
    if certificate["holds"]:
        require(dominance["statewise_violations"] == 0, "certified model has dominance violations")
    feasible = _separated_feasible_at_kkt_states(model, q_star)
    require(
        kkt["certified"] == feasible,
        f"KKT residual {kkt['max_abs_residual']} but separated problem feasible={feasible}",
    )


# ---------------------------------------------------------------------------
# Dispatch and calibration
# ---------------------------------------------------------------------------


def merit_order_hour(units: list[tuple[float, float, float]], load: float, available: float):
    """One hour: wind first, then thermal units in merit order.

    ``units`` are (capacity, marginal_cost, emission_rate) sorted by cost.
    Returns (wind_served, generation per unit, price, emissions).
    """
    served = min(available, load)
    residual = load - served
    generation = []
    price = 0.0
    emissions = 0.0
    remaining = residual
    for capacity, cost, rate in units:
        g = min(max(remaining, 0.0), capacity)
        generation.append(g)
        emissions += g * rate
        if g > 0.0 and residual > 1e-12:
            price = cost
        remaining -= g
    require(remaining <= 1e-9, f"residual load {remaining} left unserved")
    return served, generation, price, emissions


def check_dispatch_hours(units, load: np.ndarray, cf: np.ndarray, capacity: float, dispatch, hours) -> None:
    """Program's hourly dispatch arrays against the own loop at the sampled hours."""
    for h in hours:
        served, generation, price, emissions = merit_order_hour(units, float(load[h]), capacity * float(cf[h]))
        where = f"Q={capacity} hour {h}"
        require(abs(dispatch.wind_served[h] - served) <= DISPATCH_ABS_TOL, f"{where}: wind served")
        column = dispatch.unit_generation[:, h]
        require(
            abs(dispatch.wind_served[h] + float(np.sum(column)) - float(load[h])) <= DISPATCH_ABS_TOL,
            f"{where}: energy balance",
        )
        require(
            all(abs(a - b) <= DISPATCH_ABS_TOL for a, b in zip(column, generation)),
            f"{where}: unit generation",
        )
        require(dispatch.prices[h] == price, f"{where}: price {dispatch.prices[h]} vs {price}")
        require(abs(dispatch.emissions[h] - emissions) <= DISPATCH_ABS_TOL, f"{where}: emissions")


def check_calibration_samples(samples, q_grid) -> None:
    """Calibrated e is nonincreasing and f nondecreasing over the capacity grid."""
    qs = [s[0] for s in samples]
    require(len(qs) == len(q_grid) and all(a == b for a, b in zip(qs, q_grid)), "calibration grid")
    e = [s[1] for s in samples]
    f = [s[2] for s in samples]
    require(all(b <= a for a, b in zip(e, e[1:])), "calibrated e increases")
    require(all(b >= a for a, b in zip(f, f[1:])), "calibrated f decreases")
    require(all(x > 0.0 for x in e), "calibrated e not positive")


def check_calibrated_f(samples, load: np.ndarray, cf: np.ndarray, wind_cf: float, index: int) -> None:
    """f at one grid capacity from a full-year sum of served wind."""
    q = samples[index][0]
    served = np.minimum(q * cf, load)
    expected = float(np.sum(served)) / (len(load) * wind_cf)
    close(samples[index][2], expected, VALUE_REL_TOL, f"f at Q={q}")
