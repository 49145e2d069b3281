"""Bayes factor hypothesis testing under optional stopping.

The package verifies, mechanically, the three senses in which Bayes
factor tests handle optional stopping: the stopped evidence is a
function of the observed data alone (tau-independence), among stopped
samples with Bayes factor b the alternative is b times as likely as the
null (calibration, strengthened to hold at every nuisance value for
group-invariant pairs with right Haar priors), and the rule 'reject once
beta >= 1/alpha' keeps its Type-I error below alpha under any admissible
stopping rule.  Finite sample spaces are checked by exhaustive
enumeration (`optstop.exact`), group-invariant models by Monte Carlo
(`optstop.montecarlo`).
"""

import os

# Before anything imports numpy: one BLAS thread.  An exact node's mixture
# mass is a BLAS dot product over the prior's atoms, which OpenBLAS splits
# over its thread pool above 10,000 atoms; the pool's size follows the CPU
# count, and so would the last bit of every such mass.  optstop runs in
# parallel over processes, never BLAS threads.  A caller's own setting wins,
# and a program that imports numpy before optstop must set it itself.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    NEVER,
    BfTrajectory,
    SignificanceLevel,
    StopOutcome,
    stop,
)
from .errors import OptstopError, ResourceLimitError, SingularInputError
from .groups import LOCATION_SCALE, SCALE, LocationScaleGroup, ScaleGroup
from .models import (
    CauchyEffect,
    InvariantModelPair,
    PointMass,
    ScaleBfCurves,
)
from .stopping import (
    BfThreshold,
    FixedN,
    InvariantStatistic,
    InvarianceReport,
    RawStatistic,
    StoppingRule,
    SumOfSquares,
    check_invariance,
    rule_from_params,
)

from . import exact, montecarlo  # noqa: E402  (submodule access)

__version__ = "0.1.0"

__all__ = [
    "NEVER",
    "BfTrajectory",
    "SignificanceLevel",
    "StopOutcome",
    "stop",
    "OptstopError",
    "ResourceLimitError",
    "SingularInputError",
    "SCALE",
    "LOCATION_SCALE",
    "ScaleGroup",
    "LocationScaleGroup",
    "CauchyEffect",
    "PointMass",
    "InvariantModelPair",
    "ScaleBfCurves",
    "StoppingRule",
    "FixedN",
    "BfThreshold",
    "InvariantStatistic",
    "RawStatistic",
    "InvarianceReport",
    "check_invariance",
    "rule_from_params",
    "SumOfSquares",
    "__version__",
]
