"""Robust high-dimensional classification by thresholded zero-one vectors.

Small training samples, huge dimension: replace each component by the
indicator that it exceeds a threshold, pick the threshold from the data by
scanning a signed nearest-neighbor disagreement statistic, and classify by
the sign of that statistic.  The package bundles the classifier and its
competitors, sparse-mean-shift data generators with several dependence
structures, threshold tuning by cross-validation, a Monte Carlo experiment
engine with an a priori analysis, and a CSV/CLI front end.

The package namespace is the union of the library modules' ``__all__``;
``robustnn.cli`` is the command-line entry point and stays out of it.
"""

from . import (
    classifier, config, datagen, dataset, distributions, errors, experiments, seeds, tuning,
)
from .classifier import *
from .config import *
from .datagen import *
from .dataset import *
from .distributions import *
from .errors import *
from .experiments import *
from .seeds import *
from .tuning import *

__version__ = "0.1.0"

_MODULES = (classifier, config, datagen, dataset, distributions, errors, experiments, seeds, tuning)
__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
