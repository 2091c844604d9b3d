"""Fractional Jacobi spectral collocation for third-kind weakly singular
Volterra integro-differential equations with proportional delays."""

from .analysis import (
    ErrorReport,
    ReferenceSolution,
    SweepResult,
    classify_decay,
    emit_table,
    error_report,
    self_reference,
    sweep,
    sweep_filename,
)
from .collocate import (
    CollocationSystem,
    SolutionApprox,
    SolverError,
    assemble,
    singular_ratio,
    solve,
)
from .fracbasis import (
    FractionalBasis,
    basis_matrix,
    build_basis,
    interpolate,
    lebesgue_constant,
    sup_norm,
    weighted_l2_norm,
)
from .problem import (
    BUILTIN_NAMES,
    ProblemSpec,
    TransformedProblem,
    builtin,
    load_problem,
    manufactured_g,
    parse_problem_config,
    transform,
    validate,
)
from .specfun import (
    QuadratureRule,
    beta,
    frac_gauss_jacobi,
    gauss_jacobi,
)

__version__ = "0.1.0"
