"""marginlab: a desk-scale laboratory for Voronoi-margin geometry in
token classifiers.

The package measures per-position decision margins, fits the linear
scaling law of the expressibility gap, trains a toy causal language
model against margin-refinement objectives (direct margin maximization
and Fisher information distance), audits prediction churn between
checkpoints, and validates the scaling law's coefficient on synthetic
manifolds where it can be computed exactly.
"""

from .audit import (
    BandTable,
    ChurnReport,
    ExpansionReport,
    FrequencyBuckets,
    RotationReport,
    band_accuracy,
    churn_report,
    expansion_report,
    frequency_audit,
    rotation_report,
)
from .autodiff import Tape, Tensor, grad_check
from .errors import DataError, MarginLabError, NumericalError, UsageError
from .gapfit import GapFit, GridSpec, fit_gap_curve
from .manifold import ManifoldSpec, ScalingVerdict, oracle_alpha, validate_scaling
from .margins import (
    Audit,
    MarginQuantiles,
    MarginRecord,
    compute_margins,
    margin_quantiles,
    unique_value_count,
)
from .objectives import (
    MrpConfig,
    combined_loss,
    cross_entropy,
    fisher_distance,
    fisher_loss,
    margin_loss,
)
from .precision import emulate_bf16, recompute_fp32_logits
from .rankstats import spearman
from .tokenclass import TokenClass, ClassAudit, class_audit, classify_token
from .toylm import ToyLm, ToyLmConfig
from .training import TrainConfig, audit_model, dose_response, layer_scan, train

__version__ = "0.1.0"
