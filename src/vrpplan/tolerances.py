"""Every numerical tolerance of the package, under one rule.

A comparison between quantities of magnitude ``s1, s2, ...`` allows
``scaled(rel, s1, s2, ...) = rel * max(1, |s1|, |s2|, ...)``: relative to the
magnitudes compared, and never tighter than ``rel`` itself near zero.  With
no scale the tolerance is the constant itself.  One comparison has no floor:
the expansion status tests R* against C within ``BALANCE_TOL * max(|R*|, |C|)``,
since near Q = 0 both fall below any absolute floor.
"""

from __future__ import annotations

import sys

# revenue against cost: expansion status, binding budgets, the limit residual
BALANCE_TOL = 1e-8
# zero tests: phase, reach, dominance, deliverability, monotone curves, certificate
ZERO_TOL = 1e-9
# differences only rounding can make: bisection widths, positivity, dispatch, scans
ROUNDING_TOL = 1e-12
# residuals that certify: the KKT system, and f(0) = 0 of a delivered curve
CERTIFY_TOL = 1e-6
# a point this close past a domain end (a few ulps) is evaluated at that end
DOMAIN_TOL = 4.0 * sys.float_info.epsilon


def scaled(rel: float, *scales: float) -> float:
    """The tolerance ``rel * max(1, |scales|...)``."""
    scale = 1.0
    for s in scales:  # a plain loop: this runs several times per period
        s = abs(s)
        if s > scale:
            scale = s
    return rel * scale
