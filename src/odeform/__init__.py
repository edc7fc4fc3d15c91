"""Closed-form solutions of four ODE classes, numerically realized and
numerically verified.

The package constructs explicit solution formulas for

* linear first order      y' + f(x) y = g(x)
* bernoulli               y' + f(x) y = g(x) y^alpha
* exponential class       y' + f(x) e^(beta y) = g(x)
* constant-coefficient    y'' + b y' + c y = 0

where f and g are arbitrary user-supplied coefficient functions whose
antiderivatives are realized by adaptive quadrature, anchored at the
initial point so free constants map directly onto initial values. Every
solution can be checked against an independent adaptive Runge-Kutta oracle,
a finite-difference residual, and class-specific invariants.
"""

from .errors import (ConvergenceError, EvalDomainError, EvalError,
                     EvalOverflowError, ExprSyntaxError, InconclusiveError,
                     NoOverlapError, OdeformError, OutsideValidityError,
                     ParameterError, StageError)
from .expr import Expression, parse
from .quad import (Antiderivative, QuadratureConfig, antiderivative,
                   as_array_fn, integrate, integrate_many)
from .solvers import (ClosedFormSolution, EquationClass, EquationSpec,
                      InitialCondition, Interval, construct, signed_power,
                      solve_bernoulli, solve_bernoulli_via_linear, solve_exp,
                      solve_linear_general, solve_linear_ivp,
                      solve_second_order_ivp)
from .verify import (CheckResult, OracleSolution, VerificationReport,
                     compare, full_verify, rk_reference, residual_check,
                     riccati_check)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "OdeformError", "ExprSyntaxError", "EvalError", "EvalDomainError",
    "EvalOverflowError", "ConvergenceError", "ParameterError",
    "OutsideValidityError", "NoOverlapError", "InconclusiveError",
    "StageError",
    "Expression", "parse",
    "QuadratureConfig", "integrate", "integrate_many", "Antiderivative",
    "antiderivative", "as_array_fn",
    "EquationClass", "EquationSpec", "InitialCondition", "Interval",
    "ClosedFormSolution", "construct", "signed_power",
    "solve_linear_ivp", "solve_linear_general", "solve_bernoulli",
    "solve_bernoulli_via_linear", "solve_exp",
    "solve_second_order_ivp",
    "CheckResult", "OracleSolution", "VerificationReport", "rk_reference",
    "compare", "residual_check", "riccati_check", "full_verify",
]
