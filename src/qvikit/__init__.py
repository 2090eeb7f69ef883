"""Solver toolkit for quasi-variational inequalities with moving set C + v(x)."""

from .analysis import (
    PseudoReport,
    SamplingPlan,
    check_pseudo_pair,
    composition_modulus_bound,
    operator_norm,
    pair_modulus_linear,
    power_lambda_max,
    sample_lipschitz,
    sample_pair_modulus,
    sample_pairs,
)
from .errors import (
    BracketingFailure,
    ConfigError,
    DiagnosticsError,
    EvalError,
    NoConvergence,
    ParseError,
    QvikitError,
    SamplingError,
    SingularLinearPart,
)
from .expr import eval_expr, parse, print_expr
from .inverse import (
    LinearExact,
    PicardContraction,
    ScalarBracket,
    Semilinear,
    invert,
    lipschitz_of_inverse,
)
from .model import (
    Box,
    Constant,
    FuncField,
    IdMinus,
    NonnegativeOrthant,
    ProblemConstants,
    QviProblem,
    VectorField,
    WholeSpace,
    natural_residual,
    project,
    project_moving,
    to_vi,
)
from .problems import (
    BUILTINS,
    ZeroProblem,
    dump_problem,
    dumps_problem,
    get_builtin,
    load_problem,
    loads_problem,
    problem_from_dict,
    problem_to_dict,
)
from .solvers import (
    SolveReport,
    SolverConfig,
    SweepResult,
    ZeroMap,
    alg1_step,
    auto_step,
    catching_up_step,
    fit_decay_rate,
    fit_linear_rate,
    loglinear_fit,
    rate_bounds,
    resolve_constant,
    solve_alg1,
    solve_catchup,
    solve_tseng,
    solve_zero,
    sweep_trajectory,
    tseng_auto_step,
    zero_step,
)

__version__ = "0.1.0"
