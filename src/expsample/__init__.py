"""Exponential sampling operators on the multiplicative half-line.

Evaluation of convolution-sampling (and Kantorovich) series built from
compactly supported log-domain kernels, the moment machinery that fixes
their asymptotic error constants, convergence-accelerating linear
combinations, and instruments for error tables and empirical rates.
"""

__version__ = "0.1.0"

from .errors import (
    EvaluationError,
    ExpSampleError,
    KernelError,
    ParseError,
)
from .quadrature import (
    DEFAULT_CONFIG,
    LogInterval,
    QuadratureConfig,
    integrate_log,
    mellin_transform,
)
from .functions import RealFunction, builtin, function_from_spec, parse_function
from .kernels import (
    AssumptionReport,
    Kernel,
    absolute_moment,
    characteristic,
    continuous_moment,
    discrete_moment,
    make_translate_combination,
    mellin_bspline,
    parse_kernel,
    poisson_moment,
    verify_kernel,
)
from .operators import (
    OperatorSpec,
    batch_eval,
    durrmeyer_eval,
    write_batch_csv,
)
from .combinations import (
    PLAIN,
    CombinationSpec,
    combined_eval,
    combined_moment,
    pair_moment,
    solve_coefficients,
)
from .analysis import (
    AsymptoticCheck,
    Column,
    ErrorTable,
    RateReport,
    config_record,
    empirical_order,
    error_table,
    richardson,
    voronovskaya_check,
)
