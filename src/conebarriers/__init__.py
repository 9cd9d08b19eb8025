"""Barrier and conjugate-gradient oracles for nonsymmetric cones.

The package provides, for nine cone families (logarithm, log-determinant,
hypograph power, hypograph geometric mean, root-determinant, radial power,
radial geometric mean, infinity norm, spectral norm):

* primal barrier oracles — value, gradient, Hessian action, inverse
  Hessian action (:mod:`conebarriers.barriers`);
* fast conjugate-gradient oracles g*(r) via closed forms or univariate
  Newton-Raphson (:mod:`conebarriers.conjugate`);
* a generic damped-Newton fallback (:mod:`conebarriers.newton`);
* a reproducible benchmark grid comparing the two
  (:mod:`conebarriers.experiment`) with a ``conebench`` CLI.
"""

# linalg first: it loads scipy, and loading scipy from inside the import of
# cones (which imports linalg) made the package import about 30 ms slower
# (2-core host, BLAS on one thread)
from .linalg import (
    NonPositiveDefiniteError,
    SymEigen,
    Svd,
    cholesky_solve,
    svd,
    sym_eigen,
)
from .cones import (
    ConeDescriptor,
    ConeFamily,
    ConePoint,
    NotInteriorError,
    PowerParams,
    barrier_parameter,
    dual_in_interior,
    in_interior,
    inner,
    pack,
    unpack,
)
from .scalars import (
    RootResult,
    StopRule,
    newton_raphson,
    wright_omega,
)
from .barriers import (
    BarrierWorkspace,
    gradient,
    hessian_apply,
    hessian_dense,
    inverse_hessian_apply,
    value,
)
from .conjugate import (
    ConjugateResult,
    conjugate_gradient,
    conjugate_value,
    lemma_h,
)
from .newton import (
    DAMPED_THRESHOLD,
    DEFAULT_EPS,
    NewtonStatus,
    NewtonTrace,
    default_initial_point,
    generic_conjugate_gradient,
    local_norm_lambda,
)
from .experiment import (
    ExperimentConfig,
    IterationStats,
    render_table,
    residual,
    run_grid,
    sample_dual_point,
)

__version__ = "0.1.0"

__all__ = [
    "ConeDescriptor", "ConeFamily", "ConePoint", "NotInteriorError",
    "PowerParams", "barrier_parameter", "dual_in_interior", "in_interior",
    "inner", "pack", "unpack",
    "NonPositiveDefiniteError", "SymEigen", "Svd", "cholesky_solve",
    "svd", "sym_eigen",
    "RootResult", "StopRule", "newton_raphson", "wright_omega",
    "BarrierWorkspace", "gradient", "hessian_apply", "hessian_dense",
    "inverse_hessian_apply", "value",
    "ConjugateResult", "conjugate_gradient", "conjugate_value", "lemma_h",
    "DAMPED_THRESHOLD", "DEFAULT_EPS", "NewtonStatus", "NewtonTrace",
    "default_initial_point", "generic_conjugate_gradient",
    "local_norm_lambda",
    "ExperimentConfig", "IterationStats", "render_table", "residual",
    "run_grid", "sample_dual_point",
]
