"""The package's public names, recorded: adding or removing one is a
deliberate edit of this list. So is adding or removing a settable field of
the core value types, or a parameter of the run and projection entry points."""

import dataclasses
import inspect

import pytest

import rednw

PUBLIC = [
    "AmbiguousRankError", "ArgumentError", "BUILTIN_PROFILES", "BandwidthRule", "CellStats",
    "ConditionReport", "CoverageResult", "DataError", "Dataset", "DegenerateFitError",
    "EquivalenceRow", "KernelProfile", "MethodSpec",
    "Model1Config", "Model2Config", "NWBatch", "NWConfig", "NumericError",
    "ProjectionMatrix", "RadialKernel", "RednwError",
    "ReductionBasis", "ReplicationTable", "RunManifest", "WorkflowResult", "bandwidth",
    "builtin_profile", "dataio", "default_bandwidth_rule", "draw_test_points", "emse",
    "errors", "estimate_density_data", "gaussian_quantile", "gen_model1", "gen_model2",
    "kernels", "load_csv", "load_test_rows", "make_kernel", "npregress", "nw_batch",
    "oracle_basis", "pfc_fit", "pls_fit", "projection_to_basis",
    "recompute_cell_from_manifest", "reduce", "reduction", "run_predict_workflow",
    "run_replications", "simulate", "simulation_plan_from_config",
    "sir_fit", "surface_area", "synthetic_shellfish", "undersmoothed_rule",
    "validate_conditions", "write_table",
]


def test_public_names_are_the_recorded_ones():
    assert sorted(rednw.__all__) == PUBLIC


# the values a caller sets; each derived value (a config's d, a basis's d and
# p, a projection's rank, a run's seed, a profile's smoothness order) has one
# source and is not among them. A kernel's constants are make_kernel's, each
# integrated once there
SETTABLE = {
    rednw.KernelProfile: ["name", "coefficients", "support_radius"],
    rednw.RadialKernel: ["profile", "dim", "norm_const", "l2_const", "mu2"],
    rednw.NWConfig: ["kernel", "bandwidth", "ci_level", "allow_nonsmooth_kernel"],
    rednw.ReductionBasis: ["matrix"],
    rednw.ProjectionMatrix: ["matrix"],
    rednw.NWBatch: ["n", "h", "ok", "mass", "eta_hat", "sigma2_hat", "f_hat", "ci_lo", "ci_hi",
                    "w0"],
    rednw.dataio.SimulationPlan: ["model_cfg", "methods", "ns", "n_rep", "test_points",
                                  "equivalence", "coverage", "coverage_level"],
    rednw.ReplicationTable: ["specs", "test_points", "truths", "ns", "values", "h",
                             "ci_level"],
    rednw.Model1Config: ["p", "beta0", "sigma_signal", "sigma_noise_cov", "eps_sd", "seed"],
    rednw.Model2Config: ["p", "y_sd", "A", "delta_scale", "S", "seed"],
    # a simulate record's fields, in order, are the columns of its CSV
    rednw.CellStats: ["point_id", "n", "method", "emse", "variance", "mean_estimate",
                      "true_mse", "n_rep", "n_missing"],
    rednw.EquivalenceRow: ["n", "h", "median_stat", "n_used", "n_missing"],
    rednw.CoverageResult: ["n", "level", "coverage", "n_used", "n_excluded", "truth",
                           "median_ci_width"],
}
PARAMETERS = {
    rednw.run_replications: ["cfg", "methods", "ns", "test_points", "n_rep", "n_threads",
                             "ci_level"],
    rednw.run_predict_workflow: ["dataset", "basis", "kernel_profile", "bandwidth_rule",
                                 "test_rows", "ci_level", "allow_nonsmooth_kernel"],
    rednw.nw_batch: ["config", "basis", "X", "Y", "X0"],
    rednw.projection_to_basis: ["P"],
}


@pytest.mark.parametrize("cls", list(SETTABLE), ids=lambda c: c.__name__)
def test_settable_fields_are_the_recorded_ones(cls):
    assert [f.name for f in dataclasses.fields(cls) if f.init] == SETTABLE[cls]


@pytest.mark.parametrize("func", list(PARAMETERS), ids=lambda f: f.__name__)
def test_parameters_are_the_recorded_ones(func):
    assert list(inspect.signature(func).parameters) == PARAMETERS[func]
