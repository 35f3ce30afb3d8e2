"""Success/failure feedback-ERP classification toolkit.

A numpy/scipy library pairing a Riemannian tangent-space featurizer
(prototype-augmented trial covariances on the SPD manifold) with a
windowed mean/std benchmark, evaluated under stratified repeated k-fold
cross-validation with corrected paired t-tests, a cross-dataset
permutation test and shuffle-based chance levels.  A built-in generator
fabricates staircase-driven label streams and template-plus-noise epochs
for desk-scale verification.
"""
import os

# One BLAS thread per process: the worker processes of ``parallel``, which
# run the folds of ``evaluation`` and the filter jobs of ``preprocessing``,
# are the package's only parallelism.  A value the caller set wins, and none
# of this has an effect once numpy is loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

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
