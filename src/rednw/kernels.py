"""Radial kernels K(u) = c * k(||u||) on R^d.

Builds kernels from scalar profiles, computes the normalization constant,
the L2 constant R(K) = int K^2 and the second moment mu2 by adaptive
Gauss-Legendre quadrature in the radial variable, and validates the
smoothness/moment conditions the regression estimator relies on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import ArgumentError, QuadratureError

# each built-in profile's name: (power k of (1 - t^2)^k, smoothness order)
_PROFILES = {
    "triweight_poly3": (3, 2),
    "epanechnikov": (1, 0),
    "biweight": (2, 1),
    "uniform": (0, -1),
}
BUILTIN_PROFILES = tuple(_PROFILES)

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
            radius 1; not an argument, only ``builtin_profile`` sets it.
            It lets d = 1 batches and leave-one-out sums in ``npregress``
            run on prefix sums.
    """

    name: str
    raw_profile: Callable[[NDArray[np.floating]], NDArray[np.floating]]
    support_radius: float = 1.0
    smoothness_order: int = 0
    raw_derivative: Callable[[NDArray[np.floating]], NDArray[np.floating]] | None = None
    power: int | None = field(default=None, init=False)


def _power_of_squares(u: NDArray[np.floating], k: int) -> NDArray[np.floating]:
    """(1 - u)^k for squared radii u clipped to [0, 1], written over u where
    it can be: u >= 1 gives exactly 0, and u <= 0 (a Gram-form radius that
    rounded below 0) exactly 1. k = 0, the uniform profile, gives 1 for
    u <= 1 and 0 beyond. The power is taken by products, since libm pow is
    several times slower, most of all on the zeros."""
    if k == 0:
        return np.less_equal(u, 1.0, out=u)
    np.clip(u, 0.0, 1.0, out=u)
    np.subtract(1.0, u, out=u)
    out = u * u if k > 1 else u
    for _ in range(k - 2):
        out *= u
    return out


def _power_profile(k: int):
    """The profile (1 - t^2)^k on |t| <= 1 and its derivative."""
    def f(t):
        t = np.asarray(t, dtype=float)
        return _power_of_squares(t * t, k)

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
    if name not in _PROFILES:
        raise ArgumentError(
            f"unknown kernel profile {name!r}; built-ins: {', '.join(BUILTIN_PROFILES)}"
        )
    k, smooth = _PROFILES[name]
    f, fd = _power_profile(k)
    profile = KernelProfile(name=name, raw_profile=f, support_radius=1.0,
                            smoothness_order=smooth, raw_derivative=fd)
    object.__setattr__(profile, "power", k)  # frozen, and no caller may set it
    return profile


def surface_area(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1} (2 for d=1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@functools.cache
def _gauss_legendre(m: int) -> tuple[NDArray[np.floating], NDArray[np.floating]]:
    """The m Gauss-Legendre nodes and weights on [-1, 1], shared, so read-only."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
        x, w = _gauss_legendre(m)
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
    mu2 is the per-coordinate second moment int u_1^2 K(u) du.
    """

    profile: KernelProfile
    dim: int
    norm_const: float
    l2_const: float
    mu2: float

    def profile_of_squares(self, u: NDArray[np.floating]) -> NDArray[np.floating]:
        """The profile k(sqrt(u)) at squared radii u, without norm_const,
        written over u where it can be. A built-in profile forms (1 - u)^k on
        u itself. A custom one runs on t = sqrt(u) and is 0 where t exceeds
        the support radius: for u = fl(t * t), sqrt(u) is t again, so that is
        the direct test on t. A u below 0, a Gram-form radius that rounded
        below 0, counts as 0."""
        k = self.profile.power
        if k is not None:
            return _power_of_squares(u, k)
        t = np.sqrt(np.maximum(u, 0.0, out=u), out=u)
        return np.where(t <= self.profile.support_radius, self.profile.raw_profile(t), 0.0)


def make_kernel(profile: KernelProfile, dim: int) -> RadialKernel:
    """Construct the normalized kernel for ``profile`` on R^dim.

    Args:
        profile: scalar profile; must vanish beyond its support radius.
        dim: ambient dimension d >= 1.

    Returns:
        RadialKernel with quadrature-computed norm_const, l2_const and mu2.
    """
    if dim < 1:
        raise ArgumentError(f"kernel dimension must be >= 1, got {dim}")
    radius = float(profile.support_radius)
    if not (radius > 0 and math.isfinite(radius)):
        raise ArgumentError(f"support radius must be positive and finite, got {radius}")
    values = profile.raw_profile
    # an overflow in the profile or an integrand leaves an inf or NaN, not a
    # numpy warning; the probe, the quadrature's finiteness check or the
    # normalization test rejects it
    with np.errstate(over="ignore", invalid="ignore"):
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

        try:
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
        except OverflowError:
            # c ** 2 in R(K) overflows from about d = 250, math.gamma in
            # surface_area from d = 344
            raise ArgumentError(f"kernel dimension {dim} is too large for support radius "
                                f"{radius:g}: the kernel's constants overflow a float") from None
    return RadialKernel(profile=profile, dim=dim, norm_const=norm_const,
                        l2_const=l2_const, mu2=mu2)


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

    def to_json_dict(self) -> dict:
        return {
            "norm_const": self.norm_const,
            "l2_const": self.l2_const,
            "checks": [{"name": c.name, "value": c.value, "pass": c.passed} for c in self.checks],
        }


def validate_conditions(kernel: RadialKernel) -> ConditionReport:
    """Report the kernel conditions, pass/fail per check.

    Measured: boundedness, the unit integral (a check of norm_const), decay
    of ||u||K(u) at the support edge, and the |k'(t)| <= C|t| slope bound
    with the estimated C reported as the check value. Stated: the vanishing
    first moments and the odd radial-gradient integral hold for every radial
    kernel, so both report exactly 0.0. Twice-differentiability reports the
    profile's smoothness_order.
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

    # K(-u) = K(u) for a radial kernel, so int u_i K(u) du and the odd
    # integral int u_i |k'(||u||)| du / ||u|| are exactly 0: each is a radial
    # integral times the unit sphere's first moment, which is 0
    first_moment = CheckResult("first_moment_zero", 0.0, True)
    k3 = CheckResult("k3_odd_integral", 0.0, True)
    k3_diff = CheckResult("k3_twice_differentiable", float(prof.smoothness_order),
                          prof.smoothness_order >= 2)

    # slope bound constant C = max |k'(t)| / t over a fine grid
    tgrid = np.linspace(radius / 10_000.0, radius, 10_000)
    slopes = np.abs(_profile_derivative(kernel)(tgrid)) / np.maximum(tgrid, 1e-12)
    c_est = float(np.max(slopes))
    k4 = CheckResult("k4_slope_bound", c_est,
                     prof.smoothness_order >= 1 and math.isfinite(c_est))

    return ConditionReport(
        norm_const=kernel.norm_const,
        l2_const=kernel.l2_const,
        checks=(bounded, integral_one, edge_decay, first_moment, k3, k3_diff, k4),
    )
