"""walkwait: wait-for-the-bus versus walk decision analysis.

Expected travel times under arbitrary bus arrival-time distributions,
optimal waiting times via appearance-rate analysis, intermediate-stop
walk-and-wait plans, and a seeded Monte Carlo verifier.
"""

from .arrivals import (
    ArrivalModel,
    Exponential,
    LateBusMixture,
    PiecewiseLinearDensity,
    UndefinedRateError,
    Uniform,
    model_from_config,
)
from .expectation import (
    Scenario,
    expected_tt,
    expected_tt_curve,
)
from .intermediate import (
    WalkAndWaitPlan,
    expected_tt_plan,
    plan_curve_d1,
    plan_gradient_tw,
    vigilant_curve,
    vigilant_threshold,
)
from .mcsim import (
    SimEstimate,
    WaitForever,
    WaitThenWalk,
    WalkAndWait,
    WalkNow,
    analytic_expectation,
    estimate,
)
from .optimizer import (
    PolicyChoice,
    StationaryPoint,
    classify_uniform,
    compare_wait_walk,
    find_stationary_points,
    optimal_policy,
)

__all__ = [
    "ArrivalModel",
    "Exponential",
    "LateBusMixture",
    "PiecewiseLinearDensity",
    "PolicyChoice",
    "Scenario",
    "SimEstimate",
    "StationaryPoint",
    "UndefinedRateError",
    "Uniform",
    "WaitForever",
    "WaitThenWalk",
    "WalkAndWait",
    "WalkAndWaitPlan",
    "WalkNow",
    "analytic_expectation",
    "classify_uniform",
    "compare_wait_walk",
    "estimate",
    "expected_tt",
    "expected_tt_curve",
    "expected_tt_plan",
    "find_stationary_points",
    "model_from_config",
    "optimal_policy",
    "plan_curve_d1",
    "plan_gradient_tw",
    "vigilant_curve",
    "vigilant_threshold",
]

__version__ = "0.1.0"
