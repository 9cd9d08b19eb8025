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

from .linalg import *
from .cones import *
from .scalars import *
from .barriers import *
from .conjugate import *
from .newton import *
from .experiment import *
from . import barriers, cones, conjugate, experiment, linalg, newton, scalars

__version__ = "0.1.0"

__all__ = [name for module in (linalg, cones, scalars, barriers, conjugate, newton, experiment)
           for name in module.__all__]
