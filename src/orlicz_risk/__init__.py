"""Conditional Orlicz norms and conditional convex risk measures on finite
filtered probability spaces, with robust dual representations computed and
checked as tolerance-tested identities."""

from .errors import (
    OrliczRiskError,
    StructuralError,
    PartitionError,
    ParameterError,
    ContractError,
    BracketError,
    DivergenceError,
    ConvergenceError,
)
from .prob_space import (
    FiniteProbSpace,
    SubAlgebra,
    RandomVar,
    Filtration,
    cond_expectation,
    ess_sup_cond,
    ess_inf_cond,
    concatenate,
    is_measurable,
)
from .young import (
    YoungFn,
    make_power,
    make_linf,
    make_exp,
    make_piecewise,
    conjugate,
    conjugate_young_fn,
)
from .solvers import SolveReport, bisect_monotone, golden_min, simplex_max, project_weighted_simplex
from .orlicz import (
    CondNorm,
    luxemburg_norm,
    amemiya_norm,
    pairing,
    pairing_operator_norm,
    recover_density,
)
from .risk import (
    CondRiskMeasure,
    DualCertificate,
    DynamicRiskMeasure,
    entropic,
    worst_case,
    linear,
    custom,
    fenchel_conjugate,
    robust_representation,
    attainment_check,
    lebesgue_check,
    scalarize,
    locality_check,
    extension_check,
    penalty_bound_check,
    dynamic_evaluate,
    check_axioms,
    dual_feasible_atoms,
)
from .scenario import (
    Scenario,
    ScenarioValidationError,
    SCENARIO_SCHEMA,
    young_from_spec,
    risk_from_spec,
)

__version__ = "0.1.0"
