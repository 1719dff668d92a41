"""Radial kernels K(u) = c * k(||u||) on R^d.

Builds kernels from scalar profiles, computes the normalization constant,
the L2 constant R(K) = int K^2, and the first nonvanishing moment order by
adaptive Gauss-Legendre quadrature in the radial variable, and validates the
smoothness/moment conditions the regression estimator relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ArgumentError, QuadratureError

BUILTIN_PROFILES = ("triweight_poly3", "epanechnikov", "biweight", "uniform")

# Quadrature refinement schedule: node counts double until successive
# estimates differ by < _QUAD_TARGET; failing to reach _QUAD_REQUIRED after
# the last refinement is a numeric error.
_QUAD_TARGET = 1e-12
_QUAD_REQUIRED = 1e-10
_QUAD_MAX_NODES = 8192


@dataclass(frozen=True)
class KernelProfile:
    """Scalar profile t -> k(t) on [0, inf), zero beyond ``support_radius``.

    Args:
        name: one of ``BUILTIN_PROFILES`` or ``"custom"``.
        raw_profile: the profile function, applied elementwise to numpy
            arrays of radii; ``make_kernel`` rejects one that is not.
        support_radius: k(t) = 0 for t > support_radius.
        smoothness_order: number of continuous derivatives of k viewed as a
            function on the whole line (edge behaviour included); -1 means
            not even continuous (step edge).
        raw_derivative: optional analytic k', also applied to arrays;
            finite differences otherwise.
        power: k when the profile is (1 - t^2)^k on [0, 1] with support
            radius 1; set by ``builtin_profile`` only. It lets d = 1
            leave-one-out sums run on prefix sums (see ``npregress``).
    """

    name: str
    raw_profile: Callable[[NDArray[np.floating]], NDArray[np.floating]]
    support_radius: float = 1.0
    smoothness_order: int = 0
    raw_derivative: Callable[[NDArray[np.floating]], NDArray[np.floating]] | None = None
    power: int | None = None


def _power_profile(k: int):
    """The profile (1 - t^2)^k on |t| <= 1 and its derivative."""
    def f(t):
        t = np.asarray(t, dtype=float)
        if k == 0:
            return np.where(np.abs(t) <= 1.0, 1.0, 0.0)
        # u is exactly 0 for |t| >= 1; the power is taken by products, since
        # libm pow is several times slower, most of all on those zeros
        u = t * t
        np.minimum(u, 1.0, out=u)
        np.subtract(1.0, u, out=u)
        out = u * u if k > 1 else u
        for _ in range(k - 2):
            out *= u
        return out

    def fd(t):
        t = np.asarray(t, dtype=float)
        if k == 0:
            return np.zeros_like(t)
        return np.where(np.abs(t) <= 1.0, -2.0 * k * t * (1.0 - np.minimum(t * t, 1.0)) ** (k - 1), 0.0)
    return f, fd


def builtin_profile(name: str) -> KernelProfile:
    """Return a built-in profile by name.

    smoothness_order records how many continuous derivatives survive the
    support edge: (1-t^2)^3 keeps two, (1-t^2)^2 one, 1-t^2 none (kink),
    and the uniform profile is discontinuous there (-1).
    """
    # name: (power k of (1 - t^2)^k, smoothness order)
    table = {
        "triweight_poly3": (3, 2),
        "biweight": (2, 1),
        "epanechnikov": (1, 0),
        "uniform": (0, -1),
    }
    if name not in table:
        raise ArgumentError(
            f"unknown kernel profile {name!r}; built-ins: {', '.join(BUILTIN_PROFILES)}"
        )
    k, smooth = table[name]
    f, fd = _power_profile(k)
    return KernelProfile(name=name, raw_profile=f, support_radius=1.0,
                         smoothness_order=smooth, raw_derivative=fd, power=k)


def surface_area(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1} (2 for d=1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _radial_integral(g: Callable[[NDArray[np.floating]], NDArray[np.floating]],
                     radius: float) -> float:
    """Integrate g over [0, radius] with node-doubling Gauss-Legendre.

    Raises QuadratureError when the refinement stalls above the required
    tolerance, ArgumentError when the estimates diverge (non-integrable g).
    """
    prev = None
    diffs: list[float] = []
    m = 16
    while m <= _QUAD_MAX_NODES:
        x, w = np.polynomial.legendre.leggauss(m)
        s = 0.5 * radius * (x + 1.0)
        val = float(np.sum(w * g(s)) * 0.5 * radius)
        if not math.isfinite(val):
            raise ArgumentError("kernel profile integral is not finite; profile not integrable")
        if prev is not None:
            diff = abs(val - prev)
            diffs.append(diff)
            if diff < _QUAD_TARGET * max(1.0, abs(val)):
                return val
        prev = val
        m *= 2
    # estimates never stabilized; monotone growth of the error marks divergence
    if len(diffs) >= 3 and diffs[-1] > diffs[-2] > diffs[-3] and diffs[-1] > 1e-2 * max(1.0, abs(prev)):
        raise ArgumentError("kernel profile integral diverges under refinement; profile not integrable")
    if diffs and diffs[-1] >= _QUAD_REQUIRED * max(1.0, abs(prev)):
        raise QuadratureError(
            f"radial quadrature did not converge: last refinement changed the "
            f"estimate by {diffs[-1]:.3e} (required < {_QUAD_REQUIRED:g})"
        )
    return float(prev)


@dataclass(frozen=True)
class RadialKernel:
    """A normalized radial kernel on R^dim.

    norm_const is c with int c*k(||u||) du = 1; l2_const is R(K) = int K^2;
    moment_order is the smallest |alpha| >= 1 with a nonvanishing moment
    (2 for every nonnegative radial kernel; determined up to order 4).
    """

    profile: KernelProfile
    dim: int
    norm_const: float
    l2_const: float
    moment_order: int

    def eval(self, u: Sequence[float] | NDArray[np.floating]) -> float:
        """K(u) = norm_const * k(||u||), zero beyond the support radius."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ArgumentError(f"kernel expects a vector of length {self.dim}, got shape {u.shape}")
        s = float(np.linalg.norm(u))
        if s > self.profile.support_radius:
            return 0.0
        return self.norm_const * float(self.profile.raw_profile(np.array([s]))[0])

    def weights(self, t: NDArray[np.floating]) -> NDArray[np.floating]:
        """Vectorized norm_const * k(t) for nonnegative radii t.

        The profile runs over every radius in one pass; radii beyond the
        support radius are then set to exactly 0, whatever the profile
        returns there (a custom one may give NaN or inf)."""
        t = np.asarray(t, dtype=float)
        out = np.where(t <= self.profile.support_radius, self.profile.raw_profile(t), 0.0)
        out *= self.norm_const
        return out


def make_kernel(profile: KernelProfile, dim: int) -> RadialKernel:
    """Construct the normalized kernel for ``profile`` on R^dim.

    Args:
        profile: scalar profile; must vanish beyond its support radius.
        dim: ambient dimension d >= 1.

    Returns:
        RadialKernel with quadrature-computed norm_const, l2_const and
        moment_order.
    """
    if dim < 1:
        raise ArgumentError(f"kernel dimension must be >= 1, got {dim}")
    radius = float(profile.support_radius)
    if not (radius > 0 and math.isfinite(radius)):
        raise ArgumentError(f"support radius must be positive and finite, got {radius}")
    values = profile.raw_profile
    beyond = np.array([radius * 1.01, radius * 2.0, radius * 10.0])
    try:
        probe = np.asarray(values(beyond), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"profile must map an array of radii elementwise ({exc})") from exc
    if probe.shape != beyond.shape:
        raise ArgumentError(
            f"profile must map an array of radii elementwise; it returned shape "
            f"{probe.shape} for shape {beyond.shape}"
        )
    if np.any(np.abs(probe) > 1e-12):
        raise ArgumentError("profile does not vanish beyond its support radius")

    surf = surface_area(dim)
    total = _radial_integral(lambda s: values(s) * s ** (dim - 1), radius) * surf
    if not (total > 1e-300):
        raise ArgumentError(f"profile integrates to {total:.3e}; cannot normalize")
    norm_const = 1.0 / total
    l2_const = norm_const ** 2 * _radial_integral(
        lambda s: values(s) ** 2 * s ** (dim - 1), radius
    ) * surf
    # per-coordinate second moment: int u_i^2 K du = (1/d) int ||u||^2 K du
    mu2 = norm_const * _radial_integral(
        lambda s: values(s) * s ** (dim + 1), radius
    ) * surf / dim
    moment_order = 2 if abs(mu2) > 1e-12 else 4
    return RadialKernel(profile=profile, dim=dim, norm_const=norm_const,
                        l2_const=l2_const, moment_order=moment_order)


def second_moment(kernel: RadialKernel) -> float:
    """Per-coordinate second moment mu_2 = int u_1^2 K(u) du."""
    values = kernel.profile.raw_profile
    radius = kernel.profile.support_radius
    return kernel.norm_const * _radial_integral(
        lambda s: values(s) * s ** (kernel.dim + 1), radius
    ) * surface_area(kernel.dim) / kernel.dim


def _profile_derivative(kernel: RadialKernel) -> Callable[[NDArray[np.floating]], NDArray[np.floating]]:
    if kernel.profile.raw_derivative is not None:
        return kernel.profile.raw_derivative
    values = kernel.profile.raw_profile
    h = 1e-6 * kernel.profile.support_radius

    def fd(t):
        t = np.asarray(t, dtype=float)
        return (values(t + h) - values(np.maximum(t - h, 0.0))) / (
            t + h - np.maximum(t - h, 0.0)
        )

    return fd


def _antithetic_directions(dim: int, count: int = 64) -> NDArray[np.floating]:
    """Deterministic +-paired unit directions (exactly antisymmetric set)."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(0)
    half = rng.standard_normal((count, dim))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    return np.vstack([half, -half])


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    passed: bool


@dataclass(frozen=True)
class ConditionReport:
    norm_const: float
    l2_const: float
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "norm_const": self.norm_const,
            "l2_const": self.l2_const,
            "checks": [{"name": c.name, "value": c.value, "pass": c.passed} for c in self.checks],
        }


def validate_conditions(kernel: RadialKernel) -> ConditionReport:
    """Measure the kernel conditions and report pass/fail per check.

    Checks: boundedness, unit integral, decay of ||u||K(u) at the support
    edge, vanishing first moments, the odd radial-gradient integral together
    with twice-differentiability of the profile, and the |k'(t)| <= C|t|
    slope bound with the estimated C reported as the check value.
    """
    prof = kernel.profile
    radius = prof.support_radius
    values = kernel.profile.raw_profile
    grid = np.linspace(0.0, radius, 10001)

    sup = float(np.max(np.abs(values(grid))))
    bounded = CheckResult("bounded", sup, math.isfinite(sup))

    surf = surface_area(kernel.dim)
    total = kernel.norm_const * _radial_integral(
        lambda s: values(s) * s ** (kernel.dim - 1), radius
    ) * surf
    integral_one = CheckResult("integral_one", abs(total - 1.0), abs(total - 1.0) <= 1e-8)

    # compact support makes ||u|| K(u) identically zero beyond the edge
    edge = radius * (1.0 + 1e-9)
    edge_val = abs(edge * kernel.norm_const * float(values(np.array([edge]))[0]))
    edge_decay = CheckResult("edge_decay", edge_val, edge_val <= 1e-8)

    # int u_i K(u) du factors into a radial part times the sphere's first
    # moment; the antithetic direction set cancels the angular factor exactly
    dirs = _antithetic_directions(kernel.dim)
    radial_first = kernel.norm_const * _radial_integral(
        lambda s: values(s) * s ** kernel.dim, radius
    ) * surf
    angular_first = float(np.max(np.abs(dirs.mean(axis=0))))
    fm_val = abs(radial_first) * angular_first
    first_moment = CheckResult("first_moment_zero", fm_val, fm_val <= 1e-8)

    deriv = _profile_derivative(kernel)
    radial_k3 = _radial_integral(lambda s: np.abs(deriv(s)) * s ** (kernel.dim - 1), radius) * surf
    k3_val = abs(radial_k3) * angular_first
    k3_smooth = prof.smoothness_order >= 2
    k3 = CheckResult("k3_odd_integral", k3_val, k3_val <= 1e-10)
    k3_diff = CheckResult("k3_twice_differentiable", float(prof.smoothness_order), k3_smooth)

    # slope bound constant C = max |k'(t)| / t over a fine grid
    tgrid = np.linspace(radius / 10_000.0, radius, 10_000)
    slopes = np.abs(deriv(tgrid)) / np.maximum(tgrid, 1e-12)
    c_est = float(np.max(slopes))
    k4 = CheckResult("k4_slope_bound", c_est,
                     prof.smoothness_order >= 1 and math.isfinite(c_est))

    return ConditionReport(
        norm_const=kernel.norm_const,
        l2_const=kernel.l2_const,
        checks=(bounded, integral_one, edge_decay, first_moment, k3, k3_diff, k4),
    )
