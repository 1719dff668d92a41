"""Nadaraya-Watson regression after estimated linear dimension reduction.

The package fits a d x p linear reduction of the predictors (PLS, principal
fitted components, or SIR), runs kernel regression on the reduced
coordinates with radial kernels, and attaches asymptotic confidence
intervals. A simulation harness compares the full-space estimator against
the reduced ones over replications, and a CLI binds everything into
reproducible, manifest-backed runs.
"""

__version__ = "0.1.0"

from .errors import (
    AmbiguousRankError,
    ArgumentError,
    DataError,
    DegenerateFitError,
    EmptyWindowError,
    NumericError,
    QuadratureError,
    RednwError,
)
from .kernels import (
    BUILTIN_PROFILES,
    ConditionReport,
    KernelProfile,
    RadialKernel,
    builtin_profile,
    make_kernel,
    second_moment,
    surface_area,
    validate_conditions,
)
from .reduction import (
    METHODS,
    ProjectionMatrix,
    ReductionBasis,
    oracle_basis,
    pfc_fit,
    pls_fit,
    projection_to_basis,
    reduce,
    sir_fit,
)
from .npregress import (
    BandwidthRule,
    NWBatch,
    NWConfig,
    NWFit,
    PointResult,
    bandwidth,
    gaussian_quantile,
    nw_batch,
    nw_estimate,
)
from .simulate import (
    CellStats,
    CoverageResult,
    EquivalenceRow,
    MethodSpec,
    Model1Config,
    Model2Config,
    ReplicationTable,
    default_bandwidth_rule,
    draw_test_points,
    emse,
    estimate_density_data,
    gen_model1,
    gen_model2,
    recompute_cell,
    run_replications,
    undersmoothed_rule,
)
from .dataio import (
    Dataset,
    RunManifest,
    WorkflowResult,
    load_csv,
    load_test_rows,
    recompute_cell_from_manifest,
    run_predict_workflow,
    simulation_plan_from_config,
    synthetic_shellfish,
    write_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
