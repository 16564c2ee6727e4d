"""Principal subspace estimation under data-dependent noise."""

from .bench import (
    ExperimentConfig,
    MethodSummary,
    TrialRecord,
    emit_cluster_plot,
    parse_config,
    run_experiment,
    run_trial,
)
from .datagen import (
    MissingNoiseModel,
    SddcNoiseModel,
    SignalModel,
    SupportSchedule,
    apply_missing,
    apply_sddc,
    generate_dataset,
    generate_support_schedule,
    sample_coefficients,
    sparse_basis,
)
from .estimators import (
    BlockEig,
    ClusterEvdConfig,
    ClusterEvdResult,
    EvdConfig,
    block_eig,
    cluster_evd,
    consumed_samples,
    deflate,
    detect_cluster,
    simple_evd,
)
from .linalg import (
    EigenDecomposition,
    empirical_covariance,
    read_matrix,
    sin_theta_bound,
    spectral_norm,
    subspace_error,
    sym_eig,
    top_eigenvectors,
    write_matrix,
)
from .spectrum import ClusterPartition, ClusterStats, check_clustering, g_partition, partition_stats
from .theory import (
    BoundInputs,
    alpha0_cluster,
    alpha0_simple,
    beta_frac_cluster,
    beta_frac_simple,
    perturbation_decomposition,
    sin_theta_gap_check,
    verify_m2_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
