"""End-to-end acceptance checks, one test per shipping criterion.

Each test records a single ``ACCEPT <id> <name> PASS|FAIL (<measurements>)``
line before asserting; conftest replays the collected lines in a terminal
summary section after capture ends, so a teed pytest run keeps the
one-line-per-criterion record. C7a and C7c share one replication table on the
default first simulation model; the full-vs-fitted EMSE ratio check (C7b) runs
on that model with isotropic predictors, X ~ N(0, I_6), so that the full-space
estimator pays for the nuisance directions; see the comment on that test.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from conftest import ACCEPT_LINES

from rednw.cli import main as cli_main
from rednw.dataio import recompute_cell_from_manifest
from rednw.kernels import (
    builtin_profile,
    make_kernel,
    surface_area,
    validate_conditions,
)
from rednw.npregress import (
    BandwidthRule,
    NWConfig,
    nw_batch,
    nw_estimate,
)
from rednw.reduction import (
    ProjectionMatrix,
    ReductionBasis,
    oracle_basis,
    projection_to_basis,
)
from rednw.simulate import (
    MethodSpec,
    Model1Config,
    Model2Config,
    coverage_view,
    draw_test_points,
    equivalence_view,
    gen_model1,
    oracle_specs,
    run_replications,
    undersmoothed_rule,
)

BASE_SEED = 2026
BUILTINS = ("triweight_poly3", "biweight", "epanechnikov", "uniform")


def _line(cid: str, name: str, ok: bool, detail: str) -> None:
    msg = f"ACCEPT {cid} {name} {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPT_LINES.append(msg)
    print(msg)


def _quad_kernel_integral(kernel) -> float:
    prof = kernel.profile
    d = kernel.dim

    def integrand(s):
        val = float(np.atleast_1d(prof.raw_profile(np.array([s])))[0])
        return kernel.norm_const * val * surface_area(d) * s ** (d - 1)

    val, _ = integrate.quad(integrand, 0.0, prof.support_radius)
    return val


def _brute_force_nw(kernel, basis_matrix, X, Y, x0, h):
    d = basis_matrix.shape[0]
    w0 = [sum(basis_matrix[a][j] * x0[j] for j in range(len(x0))) for a in range(d)]
    num = den = 0.0
    for i in range(len(Y)):
        wi = [
            sum(basis_matrix[a][j] * X[i][j] for j in range(X.shape[1]))
            for a in range(d)
        ]
        t = math.sqrt(sum((w0[a] - wi[a]) ** 2 for a in range(d))) / h
        val = float(kernel.weights(np.array([t]))[0])
        num += val * Y[i]
        den += val
    return num / den


@pytest.fixture(scope="module")
def model1_table():
    """Shared three-method replication table on the first simulation model."""
    cfg = Model1Config(seed=BASE_SEED)
    pts = draw_test_points(cfg, 10)
    methods = [
        MethodSpec(method="np"),
        MethodSpec(method="npr"),
        MethodSpec(method="nprt", reduction="root_n_oracle"),
    ]
    return run_replications(cfg, methods, ns=[200, 1000], test_points=pts,
                            n_rep=200, base_seed=BASE_SEED, n_threads=4)


@pytest.fixture(scope="module")
def model1_iso_table():
    """NP and root-n-oracle NPRT at n=1000 on the first model with X ~ N(0, I_6)."""
    cfg = Model1Config(seed=BASE_SEED, sigma_signal=1.0, sigma_noise_cov=1.0)
    pts = draw_test_points(cfg, 10)
    methods = [
        MethodSpec(method="np"),
        MethodSpec(method="nprt", reduction="root_n_oracle"),
    ]
    return run_replications(cfg, methods, ns=[1000], test_points=pts,
                            n_rep=200, base_seed=BASE_SEED, n_threads=4)


def test_c1_kernel_constants():
    """Closed-form constants match quadrature; every built-in integrates to 1."""
    k1 = make_kernel(builtin_profile("triweight_poly3"), 1)
    norm_err = abs(k1.norm_const - 35.0 / 32.0)
    quad_norm_err = abs(_quad_kernel_integral(k1) - 1.0) * k1.norm_const
    worst_total = 0.0
    worst_odd = 0.0
    for name in BUILTINS:
        for d in (1, 2, 3):
            k = make_kernel(builtin_profile(name), d)
            worst_total = max(worst_total, abs(_quad_kernel_integral(k) - 1.0))
            rep = validate_conditions(k)
            odd = next(c for c in rep.checks if c.name == "k3_odd_integral")
            worst_odd = max(worst_odd, abs(odd.value))
    ok = norm_err <= 1e-10 and quad_norm_err <= 1e-10 and worst_total <= 1e-8 \
        and worst_odd <= 1e-10
    _line("C1", "kernel_constants", ok,
          f"norm err {norm_err:.2e}, worst total-mass err {worst_total:.2e}, "
          f"worst odd integral {worst_odd:.2e}")
    assert norm_err <= 1e-10
    assert quad_norm_err <= 1e-10
    assert worst_total <= 1e-8
    assert worst_odd <= 1e-10


def test_c2_brute_force_equivalence():
    """Vectorized estimate equals the direct double loop on 100 small instances."""
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        d = int(rng.integers(1, 4))
        p = int(rng.integers(d, d + 4))
        q, _r = np.linalg.qr(rng.standard_normal((p, d)))
        basis = ReductionBasis(matrix=q.T, method="oracle", d=d, p=p)
        X = rng.uniform(-1.0, 1.0, size=(n, p))
        Y = rng.standard_normal(n)
        x0 = 0.1 * rng.uniform(-1.0, 1.0, size=p)
        h = float(rng.uniform(1.5, 3.0))
        kern = make_kernel(builtin_profile("triweight_poly3"), d)
        cfg = NWConfig(kernel=kern, bandwidth=BandwidthRule(kind="fixed", h_fixed=h), d=d)
        fit = nw_estimate(cfg, basis, X, Y, x0)
        expected = _brute_force_nw(kern, basis.matrix, X, Y, x0, h)
        worst = max(worst, abs(fit.eta_hat - expected) / max(abs(expected), 1e-300))
    ok = worst <= 1e-13
    _line("C2", "brute_force_equivalence", ok, f"worst rel err {worst:.2e} over 100 instances")
    assert worst <= 1e-13


def test_c3_rotation_invariance():
    """Estimates depend on the reduction only through its span."""
    rng = np.random.default_rng(BASE_SEED + 1)
    cfg1 = Model1Config(seed=BASE_SEED)
    X, Y, _ = gen_model1(cfg1, 400, rng_stream=0)
    d, p = 2, 6
    q, _r = np.linalg.qr(rng.standard_normal((p, d)))
    basis = ReductionBasis(matrix=q.T, method="oracle", d=d, p=p)
    kern = make_kernel(builtin_profile("triweight_poly3"), d)
    nwc = NWConfig(kernel=kern, bandwidth=BandwidthRule(kind="fixed", h_fixed=2.0), d=d)
    x0 = X.mean(axis=0)
    ref = nw_estimate(nwc, basis, X, Y, x0).eta_hat
    worst = 0.0
    for _ in range(50):
        g = rng.standard_normal((d, d))
        a, _r = np.linalg.qr(g)
        rotated = ReductionBasis(matrix=a @ basis.matrix, method="oracle", d=d, p=p)
        worst = max(worst, abs(nw_estimate(nwc, rotated, X, Y, x0).eta_hat - ref))
    ok = worst <= 1e-12
    _line("C3", "rotation_invariance", ok, f"worst |diff| {worst:.2e} over 50 rotations")
    assert worst <= 1e-12


def test_c4_projection_extraction():
    """Basis extraction from rank-d projections, plus its perturbation rate."""
    rng = np.random.default_rng(BASE_SEED + 2)
    worst_orth = worst_range = 0.0
    for _ in range(100):
        p = int(rng.integers(3, 31))
        d = int(rng.integers(1, min(5, p)))
        q, _r = np.linalg.qr(rng.standard_normal((p, d)))
        proj = q @ q.T
        b = projection_to_basis(ProjectionMatrix(matrix=proj, rank=d), d=d)
        worst_orth = max(worst_orth, float(np.abs(b.matrix @ b.matrix.T - np.eye(d)).max()))
        worst_range = max(worst_range, float(np.abs(proj @ b.matrix.T - b.matrix.T).max()))

    p = 6
    b0 = np.ones((1, p)) / np.sqrt(p)
    proj0 = b0.T @ b0
    rng2 = np.random.default_rng(3)
    s0 = rng2.standard_normal((p, p))
    s0 = (s0 + s0.T) / 2.0
    ns = [10**2, 10**3, 10**4, 10**5, 10**6]
    angles = []
    for n in ns:
        noisy = proj0 + s0 / np.sqrt(n)
        w, v = np.linalg.eigh((noisy + noisy.T) / 2.0)
        nearest = np.outer(v[:, -1], v[:, -1])
        b = projection_to_basis(ProjectionMatrix(matrix=nearest, rank=1), d=1)
        s = np.linalg.svd(b.matrix @ b0.T, compute_uv=False)
        angles.append(float(np.arccos(np.clip(s[0], -1.0, 1.0))))
    slope = float(np.polyfit(np.log(ns), np.log(angles), 1)[0])

    ok = worst_orth <= 1e-10 and worst_range <= 1e-8 and -0.7 <= slope <= -0.3
    _line("C4", "projection_extraction", ok,
          f"worst orthonormality {worst_orth:.2e}, worst range dev {worst_range:.2e}, "
          f"rate slope {slope:.3f}")
    assert worst_orth <= 1e-10
    assert worst_range <= 1e-8
    assert -0.7 <= slope <= -0.3


def _interval_point(cfg):
    """x0 = 1.5 b + 0.2 perp of the coverage and equivalence checks (C5, C6, C11)."""
    b = cfg.beta0
    perp = np.zeros(6)
    perp[0] = 1.0
    perp -= (perp @ b) * b
    perp /= np.linalg.norm(perp)
    return 1.5 * b + 0.2 * perp


def test_c5_interval_coverage():
    """Plug-in 95% intervals cover the truth at the nominal rate band."""
    cfg = Model1Config(seed=BASE_SEED)
    x0 = _interval_point(cfg)
    table = run_replications(cfg, oracle_specs()[:1], [4000], x0[None, :], 500,
                             base_seed=BASE_SEED, ci_level=0.95)
    res = coverage_view(table, cfg, 4000, 0.95)
    ok = 0.88 <= res.coverage <= 0.99
    _line("C5", "interval_coverage", ok,
          f"coverage {res.coverage:.3f} from {res.n_used} reps, "
          f"{res.n_excluded} excluded")
    assert 0.88 <= res.coverage <= 0.99


def test_c6_plugin_oracle_equivalence():
    """Scaled plug-in/oracle gap shrinks with n; wrong direction does not."""
    cfg = Model1Config(seed=BASE_SEED)
    x0 = _interval_point(cfg)
    ns = [250, 1000, 4000]
    rows, rows_w = (equivalence_view(run_replications(cfg, oracle_specs(reduction), ns,
                                                      x0[None, :], 200, base_seed=BASE_SEED))
                    for reduction in ("root_n_oracle", "wrong_direction"))
    meds = [r.median_stat for r in rows]
    meds_w = [r.median_stat for r in rows_w]
    decreasing = meds[0] > meds[1] > meds[2]
    control = meds_w[0] <= meds_w[1] <= meds_w[2]
    ok = decreasing and control
    _line("C6", "plugin_oracle_equivalence", ok,
          f"medians {meds[0]:.3f} > {meds[1]:.3f} > {meds[2]:.3f}: {decreasing}; "
          f"control {meds_w[0]:.1f} <= {meds_w[1]:.1f} <= {meds_w[2]:.1f}: {control}")
    assert decreasing
    assert control


def test_c7a_emse_decreasing(model1_table):
    """Replication EMSE falls from n=200 to n=1000 for every method."""
    table = model1_table
    counts = {}
    for label in ("NP", "NPR", "NPRT"):
        counts[label] = sum(
            1 for j in range(10)
            if table.cell(j, 1000, label).emse < table.cell(j, 200, label).emse)
    ok = all(c >= 9 for c in counts.values())
    _line("C7a", "emse_decreasing_in_n", ok,
          "; ".join(f"{k} {v}/10" for k, v in counts.items()))
    assert all(c >= 9 for c in counts.values())


def test_c7b_full_vs_fitted_ratio(model1_iso_table):
    # The full-space fit pays for every nuisance direction of X only where the
    # kernel window cuts in those directions. On the default design the five
    # nuisance directions have sd sqrt(0.1) = 0.32, so two draws differ there
    # by about sqrt(2 * 5 * 0.1) = 1.0 against h = 5 * 1000^(-1/10) = 2.51:
    # the 6-D window barely cuts, NP behaves like the 1-D fit and its median
    # EMSE ratio to NPR (the true direction) is about 1.02. With X ~ N(0, I_6)
    # the nuisance distance is sqrt(2 * 5 * 1) = 3.2 > h, so the ratio shows
    # the dimension penalty that smoothing on a root-n reduction avoids.
    table = model1_iso_table
    ratios = [table.cell(j, 1000, "NP").emse / table.cell(j, 1000, "NPRT").emse
              for j in range(10)]
    med = float(np.median(ratios))
    ok = med >= 3.0
    _line("C7b", "full_vs_fitted_emse_ratio", ok,
          f"median EMSE(NP)/EMSE(NPRT) {med:.3f} at n=1000 on X ~ N(0, I_6), need >= 3")
    assert med >= 3.0


def test_c7c_fitted_matches_true_direction(model1_table):
    """Fitted-direction EMSE within 2x of the true-direction EMSE."""
    table = model1_table
    count = sum(
        1 for j in range(10)
        if table.cell(j, 1000, "NPRT").emse <= 2.0 * table.cell(j, 1000, "NPR").emse)
    ok = count >= 8
    _line("C7c", "fitted_matches_true_direction", ok, f"within 2x at {count}/10 points")
    assert count >= 8


def test_c8_high_dim_variance_reduction():
    """Fitted one-dimensional reduction beats the raw 20-dim fit on variance."""
    cfg = Model2Config(seed=BASE_SEED)
    pts = draw_test_points(cfg, 10)
    methods = [MethodSpec(method="np"), MethodSpec(method="nprt", reduction="pfc")]
    table = run_replications(cfg, methods, ns=[100, 300, 1000], test_points=pts,
                             n_rep=200, base_seed=BASE_SEED, n_threads=4)
    counts = {}
    for n in (100, 300, 1000):
        counts[n] = sum(
            1 for j in range(10)
            if table.cell(j, n, "NPRT").variance < table.cell(j, n, "NP").variance)
    ok = all(c >= 8 for c in counts.values())
    _line("C8", "high_dim_variance_reduction", ok,
          "; ".join(f"n={n} {c}/10" for n, c in counts.items())
          + f"; missing rate {table.missing_rate:.4f}")
    assert all(c >= 8 for c in counts.values())


def test_c9_sup_error_monotonicity():
    """Grid sup-error shrinks from n=250 to n=4000, clipped and raw response."""

    def phi(t):
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    def std_cdf(t):
        return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))

    def clipped_mean(mu, s, a, b):
        al, be = (a - mu) / s, (b - mu) / s
        return (a * std_cdf(al) + mu * (std_cdf(be) - std_cdf(al))
                - s * (phi(be) - phi(al)) + b * (1.0 - std_cdf(be)))

    cfg = Model1Config(seed=BASE_SEED)
    beta = cfg.beta0
    basis = oracle_basis(beta)
    w_grid = np.linspace(-2.0, 2.0, 50)
    grid = np.outer(w_grid, beta)
    truth_raw = w_grid ** 2
    clip_at = 5.0
    truth_clip = np.array(
        [clipped_mean(w * w, cfg.eps_sd, -clip_at, clip_at) for w in w_grid])

    kern = make_kernel(builtin_profile("triweight_poly3"), 1)
    nwc = NWConfig(kernel=kern, d=1, bandwidth=undersmoothed_rule())
    wins_raw = wins_clip = 0
    for rep in range(100):
        errs = {}
        for n in (250, 4000):
            X, Y, _ = gen_model1(cfg, n, rng_stream=BASE_SEED * 1000 + rep * 2 + (n == 4000))
            for kind, y, truth in (("raw", Y, truth_raw),
                                   ("clip", np.clip(Y, -clip_at, clip_at), truth_clip)):
                batch = nw_batch(nwc, basis, X, y, grid)
                assert batch.ok.all()
                errs[(kind, n)] = np.max(np.abs(batch.eta_hat - truth))
        wins_raw += errs[("raw", 4000)] < errs[("raw", 250)]
        wins_clip += errs[("clip", 4000)] < errs[("clip", 250)]
    ok = wins_raw >= 90 and wins_clip >= 90
    _line("C9", "sup_error_monotonicity", ok,
          f"raw {wins_raw}/100, clipped {wins_clip}/100 paired wins")
    assert wins_raw >= 90
    assert wins_clip >= 90


def test_c10_cell_determinism(tmp_path, capsys):
    """Any table cell recomputed from the run manifest is bit-identical."""
    out = tmp_path / "run"
    code = cli_main([
        "simulate", "--model", "1", "--ns", "80,140", "--nrep", "10",
        "--points", "4", "--methods", "np,nprt", "--nprt-reduction", "pls",
        "--seed", str(BASE_SEED), "--threads", "4", "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    rows = (out / "emse.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    checked = 0
    worst_ok = True
    for raw in (rows[1], rows[len(rows) // 2], rows[-1]):
        parts = raw.split(",")
        pid, n = int(parts[col["point_id"]]), int(parts[col["n"]])
        method = parts[col["method"]]
        written = (parts[col["emse"]], parts[col["variance"]], parts[col["mean_estimate"]])
        for threads in (1, 8):
            cell = recompute_cell_from_manifest(out / "manifest.json", pid, n,
                                                method, n_threads=threads)
            again = (repr(cell.emse), repr(cell.variance), repr(cell.mean_estimate))
            worst_ok = worst_ok and (again == written)
            checked += 1
    _line("C10", "cell_determinism", worst_ok,
          f"{checked} recomputes (1 and 8 threads) bit-identical: {worst_ok}")
    assert worst_ok


def test_c11_estimated_reduction_coverage():
    """Intervals on a root-n-consistent estimated reduction keep their coverage.

    The paper's claim: NW intervals built on an estimated reduction behave
    like those on the true one. PLS is the negative control: model 1's even
    link makes its population target zero, so its intervals undercover.
    Bounds were fixed from a 16-seed sweep before the check was written:
    root-n 0.934-0.960, PLS 0.704-0.770 (500 reps, n=4000).
    """
    cfg = Model1Config(seed=BASE_SEED)
    x0 = _interval_point(cfg)
    truth = float(cfg.truth(x0))
    coverage, excluded = {}, 0
    for reduction in ("root_n_oracle", "pls"):
        table = run_replications(cfg, [MethodSpec(method="nprt", reduction=reduction)],
                                 ns=[4000], test_points=x0[None, :], n_rep=500,
                                 base_seed=BASE_SEED, bandwidth_rule=undersmoothed_rule(),
                                 n_threads=2)
        ci_lo, ci_hi = table.intervals[(0, 4000, "NPRT")].T
        kept = ~np.isnan(ci_lo)
        excluded += int(np.sum(~kept))
        coverage[reduction] = float(np.mean((ci_lo[kept] <= truth) & (truth <= ci_hi[kept])))
    root_n, pls = coverage["root_n_oracle"], coverage["pls"]
    ok = 0.90 <= root_n <= 0.99 and pls <= 0.85
    _line("C11", "estimated_reduction_coverage", ok,
          f"coverage root-n {root_n:.3f} in [0.90, 0.99], PLS {pls:.3f} <= 0.85, "
          f"at n=4000 from 500 reps, {excluded} excluded")
    assert 0.90 <= root_n <= 0.99
    assert pls <= 0.85
