"""Success/failure feedback-ERP classification toolkit.

A numpy library pairing a Riemannian tangent-space featurizer
(prototype-augmented trial covariances on the SPD manifold) with a
windowed mean/std benchmark, evaluated under stratified repeated k-fold
cross-validation with corrected paired t-tests, a cross-dataset
permutation test and shuffle-based chance levels.  A built-in generator
fabricates staircase-driven label streams and template-plus-noise epochs
for desk-scale verification.  The package depends on numpy alone: the
filters of ``preprocessing`` are designed and run with numpy, and no
module imports scipy, which only the tests use, as an independent oracle.
"""
import os
import sys

# One BLAS thread per process: the worker processes of ``parallel``, which
# run the folds of ``evaluation`` and the filter jobs of ``preprocessing``,
# are the package's only parallelism.  An OPENBLAS_NUM_THREADS the caller set
# wins.  The variables pin a BLAS loaded after this; ``parallel._pin_blas``
# sets the BLAS of a numpy loaded before, and forked workers inherit that.
_numpy_first = "numpy" in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if _numpy_first:
    from .parallel import _pin_blas
    _pin_blas()
del _var, _numpy_first

from .errors import (
    DegenerateTrainingSet,
    DimMismatch,
    EmptyInput,
    ErrpkitError,
    InsufficientChannels,
    InsufficientData,
    InvalidFilterSpec,
    InvalidInput,
    InvalidMatrix,
    InvalidResampleFactor,
    InvalidWindow,
    NonConvergence,
    NotPositiveDefinite,
    NumericalFailure,
    PlanMismatch,
)
from .labels import FAILURE, LABEL_NAMES, SUCCESS
from .preprocessing import ContinuousRecording, EpochSet

__version__ = "0.1.0"

__all__ = [
    "ContinuousRecording",
    "DegenerateTrainingSet",
    "DimMismatch",
    "EmptyInput",
    "EpochSet",
    "ErrpkitError",
    "FAILURE",
    "InsufficientChannels",
    "InsufficientData",
    "InvalidFilterSpec",
    "InvalidInput",
    "InvalidMatrix",
    "InvalidResampleFactor",
    "InvalidWindow",
    "LABEL_NAMES",
    "NonConvergence",
    "NotPositiveDefinite",
    "NumericalFailure",
    "PlanMismatch",
    "SUCCESS",
    "__version__",
]
