"""Success/failure feedback-ERP classification toolkit.

A numpy/scipy library pairing a Riemannian tangent-space featurizer
(prototype-augmented trial covariances on the SPD manifold) with a
windowed mean/std benchmark, evaluated under stratified repeated k-fold
cross-validation with corrected paired t-tests, a cross-dataset
permutation test and shuffle-based chance levels.  A built-in generator
fabricates staircase-driven label streams and template-plus-noise epochs
for desk-scale verification.
"""

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
