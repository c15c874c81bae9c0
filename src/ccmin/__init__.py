"""Stochastic solvers for composite objectives: a weakly smooth loss plus a
uniformly convex power-norm regularizer, in non-Euclidean l_q geometry.

Public surface: the geometry calculus (``derive_params``), the regularizer
and its composite prox, stochastic gradient oracles, the two mirror-descent
solvers with restarting, pathwise run certificates, and the benchmark CLI
(``ccmin`` entry point, see ``ccmin.bench``).
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DiagnosticUnavailableError,
    NumericalError,
    ParameterError,
)
from .geometry import (
    GeometryParams,
    bregman_to,
    derive_params,
    dual_exponent,
    lq_norm,
    power_inv_r,
    power_uc_constant,
)
from .oracles import (
    AdditiveNoiseOracle,
    BernoulliLowerBoundInstance,
    BernoulliOracle,
    OracleRows,
    RidgeInstance,
    RidgeOracle,
    StochasticGradientOracle,
    bernoulli_oracle,
)
from .regularizers import PowerNormRegularizer, composite_prox
from .solvers import (
    PolynomialSchedule,
    RestartPlan,
    RunTrace,
    acsa_baseline,
    acsmd,
    default_schedule,
    expectation_bound,
    nacsmd,
    plan_from_params,
    restart,
    validate_schedule,
)
from .diagnostics import (
    CertificateReport,
    NoiseTerms,
    certificate_check,
    certificate_options,
    concentration_check,
    exact_optimum,
    lower_bound_experiment,
    martingale_tail_bound,
    ridge_psi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
