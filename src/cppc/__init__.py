"""Completely positive completion of arrowhead partial matrices and sparse
DNN relaxations of inequality-constrained quadratic programs, with ex-post
exactness certificates."""

from .matrix_core import (
    ArrowheadPattern,
    Completion,
    PartialMatrix,
    SymMatrix,
    agrees,
)
from .cones import (
    GroundCone,
    MembershipVerdict,
    cone_contains,
    cp_factorize,
    dual_cone,
    free,
    interior_dual_contains,
    is_cp,
    is_dnn,
    is_psd,
    orthant,
    principal_cp,
    product,
    zero,
)
from .conic_solver import (
    ConicProgram,
    SolveOptions,
    SolveResult,
    kkt_residuals,
    solve,
)
from .conditions import (
    ConditionReport,
    ConstraintData,
    build_condition_report,
    check_boundedness,
    check_cond_i,
    check_cond_iii,
    check_Fi_bounded_sufficient,
)
from .completion import (
    CompletabilityCertificate,
    CompletionProblem,
    certify_completable,
    complete_numeric,
    find_data,
)
from .oracles import brute_force_completion_oracle
from .qp_relax import (
    ExactnessReport,
    GeneralInstance,
    QPInstance,
    RelaxationSolution,
    build_general_relaxation,
    build_sparse_relaxation,
    certificate_a,
    certificate_b,
    exactness_report,
    rank_one_certificate,
)

__version__ = "0.1.0"
