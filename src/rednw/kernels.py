"""Radial kernels K(u) = c * k(||u||) on R^d.

Builds kernels from polynomial profiles, computes the normalization
constant, the L2 constant R(K) = int K^2 and the second moment mu2 by
Gauss-Legendre quadrature in the radial variable, and reports the
smoothness/moment conditions the regression estimator relies on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.typing import NDArray

from .errors import ArgumentError

# each built-in profile's name: its power k of (1 - t^2)^k
_PROFILES = {
    "triweight_poly3": 3,
    "epanechnikov": 1,
    "biweight": 2,
    "uniform": 0,
}
BUILTIN_PROFILES = tuple(_PROFILES)

# a derivative counts as 0 at the support edge within this many ulps of the
# sum of its absolute terms there
_EDGE_ULPS = 64


@dataclass(frozen=True)
class KernelProfile:
    """Polynomial profile t -> k(t) on [0, support_radius], zero beyond it.

    Args:
        name: one of ``BUILTIN_PROFILES`` or ``"custom"``.
        coefficients: k's coefficients in ascending powers of t, at least
            one, all finite.
        support_radius: k(t) = 0 for t > support_radius; positive and finite.

    Derived, not arguments:
        smoothness_order: the number of continuous derivatives of k(|t|) on
            the whole line, edge included; -1 means a jump at the edge.
        power: k when the profile is (1 - t^2)^k on [0, 1]; only
            ``builtin_profile`` sets it. Such a profile evaluates by products,
            and d = 1 batches and leave-one-out sums in ``npregress`` run on
            prefix sums.
    """

    name: str
    coefficients: tuple[float, ...]
    support_radius: float = 1.0
    smoothness_order: int = field(init=False)
    power: int | None = field(default=None, init=False)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not (coeffs and all(map(math.isfinite, coeffs))):
            raise ArgumentError(f"profile coefficients must be finite and at least one, "
                                f"got {coeffs}")
        radius = float(self.support_radius)
        if not (radius > 0 and math.isfinite(radius)):
            raise ArgumentError(f"support radius must be positive and finite, got {radius}")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "support_radius", radius)
        # a profile past the float range at R gets some order here, and
        # make_kernel rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "smoothness_order", _smoothness_order(coeffs, radius))

    def values(self, t: NDArray[np.floating]) -> NDArray[np.floating]:
        """k(t) at radii t, exactly 0 past the support radius: (1 - t^2)^k
        by products for a built-in, the polynomial otherwise."""
        t = np.asarray(t, dtype=float)
        if self.power is not None:
            return _power_of_squares(t * t, self.power)
        return np.where(t <= self.support_radius, P.polyval(t, self.coefficients), 0.0)


def _smoothness_order(coeffs: tuple[float, ...], radius: float) -> int:
    """The smaller of two orders. At the edge, k(|t|) is cut to 0, so it
    keeps m - 1 continuous derivatives for a root of multiplicity m at R (a
    jump, m = 0, gives -1). At 0, a lowest odd power 2j + 1 makes k(|t|)
    2j times differentiable."""
    c = np.array(coeffs)
    odd = np.flatnonzero(c[1::2])
    order = 2 * int(odd[0]) if odd.size else c.size
    tol = _EDGE_ULPS * np.finfo(float).eps
    for m in range(order + 1):
        if abs(P.polyval(radius, c)) > tol * P.polyval(radius, np.abs(c)):
            return m - 1
        c = P.polyder(c)
    return order


def _max_abs(coeffs, radius: float) -> float:
    """max |c(t)| on [0, R] for the polynomial c: at 0, at R or where c' = 0."""
    roots = P.polyroots(P.polyder(coeffs)).real
    ts = np.concatenate(([0.0, radius], np.clip(roots, 0.0, radius)))
    return float(np.max(np.abs(P.polyval(ts, coeffs))))


def _slope_bound(coeffs: tuple[float, ...], radius: float) -> float:
    """max |k'(t) / t| on (0, R], inf when k'(0) != 0; otherwise k'(t) / t is
    a polynomial q, and this is max |q| on [0, R]."""
    dk = P.polyder(coeffs)
    if dk[0] != 0.0:
        return math.inf
    q = dk[1:]
    return _max_abs(q, radius) if q.size else 0.0


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


def builtin_profile(name: str) -> KernelProfile:
    """Return a built-in profile (1 - t^2)^k by name."""
    if name not in _PROFILES:
        raise ArgumentError(
            f"unknown kernel profile {name!r}; built-ins: {', '.join(BUILTIN_PROFILES)}"
        )
    k = _PROFILES[name]
    profile = KernelProfile(name=name, coefficients=P.polypow([1.0, 0.0, -1.0], k))
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
        return self.profile.values(np.sqrt(np.maximum(u, 0.0, out=u), out=u))


def make_kernel(profile: KernelProfile, dim: int) -> RadialKernel:
    """Construct the normalized kernel for ``profile`` on R^dim.

    Args:
        profile: scalar profile.
        dim: ambient dimension d >= 1.

    Returns:
        RadialKernel whose norm_const, l2_const and mu2 come from one
        Gauss-Legendre rule in the radial variable, exact for every
        integrand: k s^(d-1), k^2 s^(d-1) and k s^(d+1) are polynomials.
    """
    if dim < 1:
        raise ArgumentError(f"kernel dimension must be >= 1, got {dim}")
    radius = profile.support_radius
    degree = len(profile.coefficients) - 1
    too_large = ArgumentError(f"kernel dimension {dim} is too large for support radius "
                              f"{radius:g}: the kernel's constants overflow a float")
    # a value past the float range leaves an inf or NaN, not a numpy warning,
    # and a constant that is not finite raises too_large
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # first, so that a dimension past the float range raises before
            # the rule is sized for it
            surf = surface_area(dim)
            # m nodes integrate degree 2m - 1 exactly; at least 32, so low
            # dimensions keep the bits their recorded outputs were run with
            m = 32
            while 2 * m - 1 < max(2 * degree + dim - 1, degree + dim + 1):
                m *= 2
            x, w = _gauss_legendre(m)
            s = 0.5 * radius * (x + 1.0)
            k = profile.values(s)

            def integral(g):
                return float(np.sum(w * g) * 0.5 * radius)

            total = integral(k * s ** (dim - 1)) * surf
            if not math.isfinite(total):
                raise too_large
            if not total > 1e-300:
                raise ArgumentError(f"profile integrates to {total:.3e}; cannot normalize")
            norm_const = 1.0 / total
            l2_const = norm_const ** 2 * integral(k ** 2 * s ** (dim - 1)) * surf
            # per-coordinate second moment: int u_i^2 K du = (1/d) int ||u||^2 K du
            mu2 = norm_const * integral(k * s ** (dim + 1)) * surf / dim
        except OverflowError:
            # c ** 2 in R(K) overflows from about d = 250 for the built-ins,
            # math.gamma in surface_area from d = 344
            raise too_large from None
    if not (math.isfinite(l2_const) and math.isfinite(mu2)):
        raise too_large
    return RadialKernel(profile=profile, dim=dim, norm_const=norm_const,
                        l2_const=l2_const, mu2=mu2)


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

    Derived from the profile's coefficients: the exact max |k| on [0, R];
    |norm_const int K - 1| with the closed-form integral, a check of
    make_kernel's quadrature; the smoothness order; and the exact C of the
    |k'(t)| <= C t slope bound, which passes when finite on a C^1 profile.
    Stated: every profile is 0 past its support radius, so ||u|| K(u) there
    is exactly 0.0, and the vanishing first moments and the odd
    radial-gradient integral hold for every radial kernel, so both report
    exactly 0.0.
    """
    prof = kernel.profile
    radius, coeffs = prof.support_radius, prof.coefficients
    # a value past the float range fails its check, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        sup = _max_abs(coeffs, radius)
        # int_0^R k(s) s^(d-1) ds, from the antiderivative of its coefficients
        radial = float(P.polyval(radius, P.polyint((0.0,) * (kernel.dim - 1) + coeffs)))
    bounded = CheckResult("bounded", sup, math.isfinite(sup))
    total = kernel.norm_const * radial * surface_area(kernel.dim)
    integral_one = CheckResult("integral_one", abs(total - 1.0), abs(total - 1.0) <= 1e-8)

    edge_decay = CheckResult("edge_decay", 0.0, True)
    # K(-u) = K(u) for a radial kernel, so int u_i K(u) du and the odd
    # integral int u_i |k'(||u||)| du / ||u|| are exactly 0: each is a radial
    # integral times the unit sphere's first moment, which is 0
    first_moment = CheckResult("first_moment_zero", 0.0, True)
    k3 = CheckResult("k3_odd_integral", 0.0, True)
    k3_diff = CheckResult("k3_twice_differentiable", float(prof.smoothness_order),
                          prof.smoothness_order >= 2)
    slope = _slope_bound(prof.coefficients, radius)
    k4 = CheckResult("k4_slope_bound", slope, prof.smoothness_order >= 1 and math.isfinite(slope))

    return ConditionReport(
        norm_const=kernel.norm_const,
        l2_const=kernel.l2_const,
        checks=(bounded, integral_one, edge_decay, first_moment, k3, k3_diff, k4),
    )
