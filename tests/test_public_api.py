"""The package's public names, recorded: adding or removing one is a
deliberate edit of this list."""

import rednw

PUBLIC = [
    "AmbiguousRankError", "ArgumentError", "BUILTIN_PROFILES", "BandwidthRule", "CellStats",
    "ConditionReport", "CoverageResult", "DataError", "Dataset", "DegenerateFitError",
    "EmptyWindowError", "EquivalenceRow", "KernelProfile", "METHODS", "MethodSpec",
    "Model1Config", "Model2Config", "NWBatch", "NWConfig", "NWFit", "NumericError",
    "PointResult", "ProjectionMatrix", "QuadratureError", "RadialKernel", "RednwError",
    "ReductionBasis", "ReplicationTable", "RunManifest", "WorkflowResult", "bandwidth",
    "builtin_profile", "dataio", "default_bandwidth_rule", "draw_test_points", "emse",
    "errors", "estimate_density_data", "gaussian_quantile", "gen_model1", "gen_model2",
    "kernels", "load_csv", "load_test_rows", "make_kernel", "npregress", "nw_batch",
    "nw_estimate", "oracle_basis", "pfc_fit", "pls_fit", "projection_to_basis",
    "recompute_cell_from_manifest", "reduce", "reduction", "run_predict_workflow",
    "run_replications", "second_moment", "simulate", "simulation_plan_from_config",
    "sir_fit", "surface_area", "synthetic_shellfish", "undersmoothed_rule",
    "validate_conditions", "write_table",
]


def test_public_names_are_the_recorded_ones():
    assert sorted(rednw.__all__) == PUBLIC
