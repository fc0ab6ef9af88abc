"""Memory-bounded streaming PCA for federated edge clients.

Clients track a rank-r principal subspace over column streams in O(d(r+b))
memory, optionally releasing only noise-masked covariance slabs for
differential privacy, and a fan-out tree merges client summaries into one
global estimate.
"""

__version__ = "0.1.0"

from .datasets import (
    DataError,
    StreamPartition,
    load_csv,
    partition_columns,
    save_matrix_csv,
    synth,
    synth_gaussian_cov,
    unit_ball_factor,
)
from .edge import EdgeClient, EnergyBounds, adjust_rank, energy_ratio, ssvd
from .federation import (
    FederationConfig,
    FederationTree,
    GlobalEstimate,
    aggregate_once,
    build_tree,
    depth_error_probe,
    run_federation,
)
from .linalg import (
    SubspaceEstimate,
    merge,
    subspace_of,
    truncated_svd,
)
from .metrics import (
    MetricLog,
    MetricRow,
    projection_error,
    qa_overlap,
    residual_rho,
)
from .privacy import (
    CalibrationError,
    DpConfig,
    PrivacyInfeasibleError,
    derive_rng,
    gaussian_mask,
    masked_cov_blocks,
    min_batch_size,
    omega_streaming,
    omega_symmetric_sulq,
)

__all__ = [
    "__version__",
    "CalibrationError",
    "DataError",
    "DpConfig",
    "EdgeClient",
    "EnergyBounds",
    "FederationConfig",
    "FederationTree",
    "GlobalEstimate",
    "MetricLog",
    "MetricRow",
    "PrivacyInfeasibleError",
    "StreamPartition",
    "SubspaceEstimate",
    "adjust_rank",
    "aggregate_once",
    "build_tree",
    "depth_error_probe",
    "derive_rng",
    "energy_ratio",
    "gaussian_mask",
    "load_csv",
    "masked_cov_blocks",
    "merge",
    "min_batch_size",
    "omega_streaming",
    "omega_symmetric_sulq",
    "partition_columns",
    "projection_error",
    "qa_overlap",
    "residual_rho",
    "run_federation",
    "save_matrix_csv",
    "ssvd",
    "subspace_of",
    "synth",
    "synth_gaussian_cov",
    "truncated_svd",
    "unit_ball_factor",
]
