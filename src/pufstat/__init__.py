"""Statistical security analysis of ring-oscillator PUF frequency datasets.

The library ingests raw frequency readings, derives the standard matrix
views (mean frequencies, within-device deviations, pair differences,
response bits), and provides the analyses built on them: row-wise normality
testing, production-order whiteness checks, bias and entropy estimation,
correlation profiles, a covariance-fitting attack, principal component
analysis, and a seeded synthetic dataset generator for calibration.
"""

__version__ = "0.1.0"

import os
import sys

# One BLAS thread unless the caller chose otherwise: the work is already cut
# across the CPUs by forked shares, and BLAS threads beside them only contend.
# BLAS reads these as numpy loads: BLAS_PINNED is false where numpy loaded
# first with neither set, and the attack then forks no shares.
BLAS_PINNED = "numpy" not in sys.modules or any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .bias import (
    BiasReport,
    bias_binary,
    bias_histogram,
    bias_normal,
    bias_report,
    clamp_probabilities,
    entropy,
    key_logprob,
)
from .correlation import CorrelationProfile, covariance_matrix, pearson, profile
from .covfit import (
    AttackCell,
    CovFitProblem,
    CovFitResult,
    FitOptions,
    evaluate_attack,
    expanded_cov_residual,
    fit,
)
from .dataset import (
    DeviceMeta,
    LayoutSpec,
    ReadingsTensor,
    load_metadata,
    load_readings,
    write_dataset,
)
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    InsufficientSampleError,
    NumericError,
    ParseError,
    PufStatError,
    StructuralError,
    UnavailableAnalysisError,
    ValidationError,
)
from .geometry import DEFAULT_GEOMETRY, GridGeometry
from .matrices import PufMatrices, build_matrices, pack_bits, unpack_bits
from .normality import (
    ADResult,
    ADSummary,
    REJECT_1PCT,
    anderson_darling,
    normal_cdf,
    test_rows,
)
from .pca import (
    PCAResult,
    ScaledData,
    loading_map,
    pc_key_correlation,
    pca,
    standardize,
    truncated_bits,
)
from .similarity import (
    GroupVarianceMap,
    group_variance_map,
    serial_correlation,
)
from .syngen import GroundTruth, SynthConfig, generate, preset
