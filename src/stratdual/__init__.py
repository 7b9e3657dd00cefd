"""Stratified-sampling estimators with two auxiliary variables.

Point estimation of a finite-population mean under stratified simple
random sampling without replacement, using ratio/product corrections
and a dual-transformed estimator family; first-order MSE theory with
closed-form parameter optimization; percent relative efficiencies; and
a reproducible Monte Carlo harness that checks the formulas against
empirical mean squared errors.

The package re-exports the ``__all__`` of each library module, so a
public name is declared once, in its module.  ``cli`` and ``datasets``
are imported on their own.
"""

from . import domain, estimators, moments, mse_theory, simulate
from .domain import *
from .estimators import *
from .moments import *
from .mse_theory import *
from .simulate import *

__version__ = "0.1.0"

__all__ = ["__version__", *domain.__all__, *estimators.__all__,
           *moments.__all__, *mse_theory.__all__, *simulate.__all__]
