"""Divergence-free Gaussian vortex fields and their heat-semigroup norms.

The family a(x) = amplitude * A x * exp(-|x|^2 / (2 sigma^2)), with A the
rotation generator in the (1,2) plane (A x = (-x2, x1, 0, ..., 0)), is
divergence-free by antisymmetry of A and closed under the heat semigroup:

    e^{t Lap} a  =  a with width^2 -> sigma^2 + 2t and amplitude scaled by
                    (sigma^2 / (sigma^2 + 2t))^{(d+2)/2}.

The scaling factor follows from completing the square in the Gaussian
convolution (the first-moment integral against the shifted Gaussian pulls
out the mean x * sigma^2/(sigma^2+2t)); the test suite validates it against
direct numerical convolution with the heat kernel before anything else
relies on it.

Norm convention: |a(x)| is the pointwise Euclidean magnitude of the vector,
|a(x)| = amplitude * r * exp(-|x|^2/(2 sigma^2)) with r the radius in the
rotation plane, so L_p norms separate into Gamma-function factors. The
field depends on x only through (r, |y|) with y the remaining d-2
coordinates. |grad a|_d is amplitude * sigma times one constant per
dimension, a product Gauss-Laguerre rule in that plane, 150 nodes in the
planar radius and 64 in the axial one, whose nodes Newton's method finds
from extrapolated starts (``_gauss_laguerre``). Its direct sum overflows
from d = 1854 on, which is a DomainError; no certificate reaches those d,
since the composite constants leave the doubles from d = 1024 on.

The weighted semigroup norms

    K0(T)  = sup_{t in (0,T)} t^{(1-delta)/2} |u0(t)|_{d/delta},
    K0'(T) = sup_{t in (0,T)} t^{1/2} |grad u0(t)|_d,

are closed forms too. On the evolution, |e^{t Lap} a|_{d/delta} is
|a|_{d/delta} (1 + 2t/sigma^2)^{-(d+1-delta)/2}, and |grad e^{t Lap} a|_d is
|grad a|_d (1 + 2t/sigma^2)^{-(d+1)/2}. So both weighted norms are one profile

    norm0 t^a (1 + 2t/sigma^2)^{-b},

with (a, b, norm0) = ((1-delta)/2, (d+1-delta)/2, |a|_{d/delta}) for K0 and
the same exponents at delta = 0 with norm0 = |grad a|_d for K0'. The profile
rises up to its peak time t* = a sigma^2 / (2 (b - a)) and falls after it,
so K0(T) and K0'(T) are its value at min(T, t*) (``_weighted_norm``). Both
vanish as T -> 0+ and saturate at their peak as T -> infinity, and
``k0_root``/``k0_prime_root`` invert them by Newton's method in log T. Every
evaluator, root and saturation time reads the one peak time (``_profile``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .constants import ExponentPair, _check_delta, _check_dimension, heat_kernel_norm, log_gamma, young_constant
from .errors import DomainError, UnavailableBoundError

__all__ = [
    "VortexGaussian",
    "NormBundle",
    "lp_norm",
    "grad_norm",
    "k0_exact",
    "k0_prime_exact",
    "peak_times",
    "k0_root",
    "k0_prime_root",
    "check_theta",
    "k0_bound_from_norms",
    "k0_prime_bound_from_norms",
    "sharp_k0_norm_coefficient",
    "norm_bundle_from_vortex",
]

# nodes of the gradient constant's product Gauss-Laguerre rule in the planar
# and the axial variable (see _grad_unit_constant for why they differ)
_GAUSS_NODES = 150
_AXIAL_NODES = 64
# Newton steps of the Kato-norm inversion and of each Gauss node; from
# their starts both converge in a handful
_NEWTON_STEPS = 40


@dataclass(frozen=True)
class VortexGaussian:
    """Rotating Gaussian vortex a(x) = amplitude * A x * exp(-|x|^2/(2 sigma^2)).

    A nonzero field needs sigma^2 inside the doubles: its norms take the
    logarithm of sigma^2, and its evolution divides by it.
    """

    d: int
    sigma: float
    amplitude: float

    def __post_init__(self) -> None:
        _check_dimension(self.d)
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if self.amplitude < 0 or not math.isfinite(self.amplitude):
            raise DomainError(f"amplitude must be nonnegative, got {self.amplitude}")
        if self.amplitude > 0 and not (0.0 < self.sigma * self.sigma < math.inf):
            raise DomainError(f"sigma^2 leaves the range of the doubles for sigma={self.sigma}")

    def evolve(self, t: float) -> "VortexGaussian":
        """Heat evolution e^{t Lap} a, exactly, inside the family.

        The evolved field goes through the constructor, so a width that is
        not finite (t infinite or NaN, or sigma^2 + 2t past the doubles)
        raises its error. So does a zero field whose sigma^2 itself is past
        the doubles: sigma * sigma rounds it to infinity.
        """
        if t < 0:
            raise DomainError(f"evolution time must be nonnegative, got {t}")
        if t == 0:
            return self
        s2 = self.sigma * self.sigma
        w2 = s2 + 2.0 * t
        return VortexGaussian(self.d, math.sqrt(w2), self.amplitude * (s2 / w2) ** ((self.d + 2) / 2.0))


def lp_norm(data: VortexGaussian, p: float) -> float:
    """L_p norm of the vortex field, in closed form.

    |a|_p^p separates into the planar moment 2 pi Int r^{p+1} e^{-p r^2/(2 s^2)} dr
    and the Gaussian mass of the remaining d-2 coordinates:

        |a|_p^p = amp^p (2 pi s^2/p)^{(d-2)/2} * pi * Gamma(p/2 + 1) (2 s^2/p)^{(p+2)/2}.
    """
    if p < 1:
        raise DomainError(f"lp_norm requires p >= 1, got {p}")
    d, s, amplitude = data.d, data.sigma, data.amplitude
    if amplitude == 0:
        return 0.0
    if not 2.0 * s * s / p > 0.0:
        raise DomainError(f"2 sigma^2/p leaves the range of the doubles for sigma={s}, p={p}")
    log_pp = (
        ((d - 2) / 2.0) * math.log(2.0 * math.pi * s * s / p)
        + math.log(math.pi)
        + log_gamma(p / 2.0 + 1.0)
        + ((p + 2) / 2.0) * math.log(2.0 * s * s / p)
    )
    return amplitude * math.exp(log_pp / p)


@lru_cache(maxsize=64)
def _gauss_laguerre(n: int, alpha: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """n-point Gauss rule for the probability weight x^alpha e^{-x} / Gamma(alpha + 1).

    The nodes are the eigenvalues of the Laguerre Jacobi matrix
    J = L D L^T, D_k = k + alpha + 1, D_k l_k^2 = k + 1. The stationary qd
    transform gives the pivots of J - x to small relative error: their
    product is det(J - x), the negative ones count the nodes below x, and
    p_k(x)^2 = prod_{j<k} pivot_j^2 / (D_j^2 l_j^2) for the orthonormal p_k.
    Newton on det(J - x) / prod (x - x_j) over the nodes found (Maehly's
    deflation) rises monotonically to the next node from any start below
    it. A start extrapolates the last gaps and is halved toward the last
    node while a new node lies below it. The first start is Numerical
    Recipes' gaulag guess, raised to the lower turning point of the
    Laguerre equation, and is halved toward that point (or toward 0 where
    it is negative): no node lies below it, and at large alpha both the
    guess and a halving toward 0 fall so far below the first node that
    Newton would creep. The pass after a step below 1e-10 relative gives
    the node, to a few ulps even where the recurrence for p_n loses three
    digits. A node that has not converged after _NEWTON_STEPS raises
    DomainError; it is never kept. A node's weight is 1 / sum_{k<n} p_k(x)^2,
    to about 1e-13 relative even at 1e-250, and scaling the weights to
    their exact sum 1 removes the rounding they share.

    Each qd pass computes only what its caller reads. A start pass gives
    the last pivot, its x-derivative, the sum of pivot'/pivot over the
    others and the count of nodes below x; a Newton pass gives the same
    without the count; one weight pass at the accepted node gives
    sum_k p_k(x)^2. The rule is bit for bit what one pass computing all
    of these gives.

    Rules are cached, since every dimension shares the alpha = 0 rule, and
    returned as tuples, since callers share them.
    """
    steps = [(k + 1.0, k + alpha + 1.0, (k + 1.0) * (k + alpha + 1.0)) for k in range(n - 1)]

    def newton_pass(x):
        # last pivot, its x-derivative, sum of pivot'/pivot over the rest
        s, ds, rest = -x, -1.0, 0.0
        for k, d_k, dl2 in steps:
            pivot = d_k + s
            rest += ds / pivot
            ds = dl2 * ds / (pivot * pivot) - 1.0
            s = k * s / pivot - x
        return n + alpha + s, ds, rest

    def start_pass(x):
        # a Newton pass that also counts the negative pivots, the nodes below x
        s, ds, rest, below = -x, -1.0, 0.0, 0
        for k, d_k, dl2 in steps:
            pivot = d_k + s
            rest += ds / pivot
            below += pivot < 0.0
            ds = dl2 * ds / (pivot * pivot) - 1.0
            s = k * s / pivot - x
        pivot = n + alpha + s
        return pivot, ds, rest, below + (pivot < 0.0)

    def weight_sum(x):
        # sum_k p_k(x)^2
        s, term, total = -x, 1.0, 0.0
        for k, d_k, dl2 in steps:
            pivot = d_k + s
            total += term
            term *= pivot * pivot / dl2
            s = k * s / pivot - x
        return total + term

    # the lower turning point b - sqrt(b^2 + 1 - alpha^2), b = 2n + alpha + 1, without cancellation
    b = 2.0 * n + alpha + 1.0
    turning = (alpha * alpha - 1.0) / (b + math.sqrt((2.0 * n + 1.0) * (b + alpha) + 1.0))
    x = max((1.0 + alpha) * (3.0 + 0.92 * alpha) / (1.0 + 2.4 * n + 1.8 * alpha), turning)
    nodes, totals, last, gap = [], [], max(turning, 0.0), 0.0
    for i in range(n):
        pivot, ds, rest, below = start_pass(x)
        while below > i:
            x = 0.5 * (x + last)
            pivot, ds, rest, below = start_pass(x)
        for _ in range(_NEWTON_STEPS):
            step = pivot / (ds + pivot * (rest - math.fsum([1.0 / (x - node) for node in nodes])))
            x -= step
            if abs(step) <= 1e-10 * x:
                break
            pivot, ds, rest = newton_pass(x)
        else:
            raise DomainError(f"Newton finds no Gauss-Laguerre node {i} of {n} for alpha={alpha}")
        nodes.append(x)
        totals.append(weight_sum(x))
        gap, last, x = x - last, x, x + max(x - last, 2.0 * (x - last) - gap)
    norm = math.fsum(1.0 / total for total in totals)
    return tuple(nodes), tuple(1.0 / total / norm for total in totals)


@lru_cache(maxsize=32)
def _grad_unit_constant(d: int) -> float:
    """|grad a|_d for the unit vortex (sigma = amplitude = 1), by a Gauss rule.

    In the planar radius r and the axial radius eta, the d-th power of the
    Frobenius density is Q^{d/2} e^{-d (r^2 + eta^2)/2} with
    Q = 2 - 2 r^2 + r^2 (r^2 + eta^2) >= 1. With the angular factors
    2 pi r and omega_{d-2} eta^{d-3}, the substitution u = d r^2/2,
    v = d eta^2/2 turns |grad a|_d^d into

        2 pi omega_{d-2} d^{-2} (2/d)^{(d-4)/2} Int Int Q^{d/2} e^{-u} v^{(d-4)/2} e^{-v} du dv,

    a product generalized Gauss-Laguerre rule, summed as a double loop:
    _GAUSS_NODES in u (alpha = 0) and _AXIAL_NODES in v (alpha = (d-4)/2).
    Q is quadratic in u and linear in v, so for even d Q^{d/2} has degree d
    in u and d/2 in v, and the rule is exact up to d = 254; beyond that,
    and for odd d, the integrand is smooth and the rule converges to
    rounding level. The planar rule needs its 150 nodes, since with 100
    d = 3 keeps an error of 7e-15; the axial rule gives the same doubles
    with 64 as with 150 up to d = 88, and moves no constant of d <= 876 by
    more than 3 ulps. The rule's weights are normalized to sum 1, and the
    Gamma((d-2)/2) they take out cancels the one in
    omega_{d-2} = 2 pi^{(d-2)/2} / Gamma((d-2)/2), which leaves the
    prefactor 4 pi^{d/2} d^{-2} (2/d)^{(d-4)/2}. It is taken in logarithms
    because (2/d)^{(d-4)/2} underflows at a few hundred dimensions. Where
    Q^{d/2} overflows at the largest nodes (from d = 1854 on), the constant
    is a DomainError; every certificate has d < 1024, where the composite
    constants stay inside the doubles.
    """
    u, wu = _gauss_laguerre(_GAUSS_NODES, 0.0)
    v, wv = _gauss_laguerre(_AXIAL_NODES, (d - 4) / 2.0)
    power, dd = d / 2.0, d * d
    try:
        total = math.fsum(
            wi * math.fsum(wj * (2.0 - 4.0 * ui / d + 4.0 * ui * (ui + vj) / dd) ** power for vj, wj in zip(v, wv))
            for ui, wi in zip(u, wu)
        )
    except OverflowError:
        raise DomainError(f"the gradient constant's sum leaves the range of the doubles for d={d}") from None
    log_scale = math.log(4.0 / (d * d)) + (d / 2.0) * math.log(math.pi) + ((d - 4) / 2.0) * math.log(2.0 / d)
    return math.exp((log_scale + math.log(total)) / d)


def grad_norm(data: VortexGaussian) -> float:
    """L_d norm of the Jacobian magnitude |grad a|_F.

    Scales exactly like amplitude * sigma: substituting x = sigma u removes
    sigma from the Frobenius density, so only one quadrature per dimension is
    ever performed (cached).
    """
    if data.amplitude == 0:
        return 0.0
    return data.amplitude * data.sigma * _grad_unit_constant(data.d)


def _profile(d: int, delta: float, s2: float) -> tuple[float, float, float]:
    """(a, b, t*) of the K0 profile norm0 t^a (1 + 2t/s2)^{-b}; delta = 0 gives the K0' profile.

    a = (1-delta)/2 and b = (d+1-delta)/2, and the profile peaks at
    t* = a s2 / (2 (b - a)). For norm0 > 0 it is positive at every t > 0,
    so a t* that underflows to 0 has no clamp that gives it: DomainError.
    """
    a, b = (1.0 - delta) / 2.0, (d + 1.0 - delta) / 2.0
    t_peak = a * s2 / (2.0 * (b - a))
    if not t_peak > 0.0:
        raise DomainError(f"the peak time of the weighted norm leaves the range of the doubles for sigma^2={s2}")
    return a, b, t_peak


def _weighted_norm(norm0: float, d: int, delta: float, s2: float, T: float) -> float:
    """norm0 t^a (1 + 2t/s2)^{-b} at t = min(T, t*), the supremum of the profile over (0, T).

    T = infinity is allowed. norm0 = 0 (the zero field, whose s2 may be
    infinite) gives 0.0 at every T.
    """
    if norm0 == 0.0:
        return 0.0
    if not T > 0:
        raise DomainError(f"horizon T must be positive, got {T}")
    a, b, t_peak = _profile(d, delta, s2)
    t = min(T, t_peak)
    return norm0 * t**a * (1.0 + 2.0 * t / s2) ** -b


def _weighted_norm_root(norm0: float, d: int, delta: float, s2: float, y: float) -> float:
    """Approximate largest T with _weighted_norm(norm0, d, delta, s2, T) <= y.

    Returns 0.0 when y <= 0 and inf when y is at or above the value at
    the peak t*. The log of the profile is concave and increasing in
    u = log t below t*, and the small-T power-law root (y / norm0)^{1/a}
    lies below the root, so Newton in u rises monotonically to it. An
    underflowing root is returned as the smallest positive double.
    """
    if norm0 == 0.0:
        return math.inf if y >= 0.0 else 0.0
    if y <= 0.0:
        return 0.0
    a, b, t_peak = _profile(d, delta, s2)
    if y >= _weighted_norm(norm0, d, delta, s2, t_peak):
        return math.inf
    log_ratio = math.log(y) - math.log(norm0)
    u_peak = math.log(t_peak)
    u = min(log_ratio / a, u_peak)
    for _ in range(_NEWTON_STEPS):
        x = 2.0 * math.exp(u) / s2
        slope = a - b * x / (1.0 + x)
        if slope <= 0.0:
            break
        step = (log_ratio - a * u + b * math.log1p(x)) / slope
        u = min(u + step, u_peak)
        if abs(step) <= 1e-15 * max(1.0, abs(u)):
            break
    return max(math.exp(u), math.ulp(0.0))


def k0_exact(data: VortexGaussian, delta: float, T: float) -> float:
    """sup_{t in (0,T)} t^{(1-delta)/2} |e^{t Lap} a|_{d/delta}: the profile of |a|_{d/delta} (module docstring)."""
    if not 0.0 < delta < 1.0:
        _check_delta(delta)
    d = data.d
    return _weighted_norm(lp_norm(data, d / delta), d, delta, data.sigma * data.sigma, T)


def k0_prime_exact(data: VortexGaussian, T: float) -> float:
    """sup_{t in (0,T)} t^{1/2} |grad e^{t Lap} a|_d: the profile of |grad a|_d at delta = 0."""
    return _weighted_norm(grad_norm(data), data.d, 0.0, data.sigma * data.sigma, T)


def k0_root(data: VortexGaussian, delta: float, y: float) -> float:
    """Approximate largest T with k0_exact(data, delta, T) <= y; no evaluator calls."""
    d = data.d
    return _weighted_norm_root(lp_norm(data, d / delta), d, delta, data.sigma * data.sigma, y)


def k0_prime_root(data: VortexGaussian, y: float) -> float:
    """Approximate largest T with k0_prime_exact(data, T) <= y; no evaluator calls."""
    return _weighted_norm_root(grad_norm(data), data.d, 0.0, data.sigma * data.sigma, y)


def peak_times(data: VortexGaussian, delta: float) -> tuple[float, float]:
    """The peak times of K0 and K0', the doubles ``k0_exact`` and ``k0_prime_exact`` clamp T to.

    From each on, its evaluator gives bit for bit its value at infinity.
    Both are inf for the zero field, which never saturates (its sigma^2
    may overflow); a nonzero field whose peak time underflows to 0 raises
    DomainError.
    """
    if data.amplitude == 0:
        return math.inf, math.inf
    s2 = data.sigma * data.sigma
    return _profile(data.d, delta, s2)[2], _profile(data.d, 0.0, s2)[2]


@dataclass(frozen=True)
class NormBundle:
    """Externally supplied norm values of an initial datum.

    `lp_norms` maps exponents to |a|_p values; `grad_d_norm` is |grad a|_d;
    the optional pair (theta, norm_d_plus_theta) records |a|_{d+theta} for
    the extra-integrability bound. Field names match the CLI JSON keys.
    """

    lp_norms: Mapping[float, float]
    grad_d_norm: float | None = None
    theta: float | None = None
    norm_d_plus_theta: float | None = None

    def __post_init__(self) -> None:
        for p, v in self.lp_norms.items():
            if p < 1 or v < 0 or not math.isfinite(v):
                raise DomainError(f"invalid lp norm entry ({p}, {v})")
        if self.grad_d_norm is not None and (self.grad_d_norm < 0 or not math.isfinite(self.grad_d_norm)):
            raise DomainError(f"invalid grad_d_norm {self.grad_d_norm}")
        if (self.theta is None) != (self.norm_d_plus_theta is None):
            raise DomainError("theta and norm_d_plus_theta must be supplied together")
        if self.theta is not None:
            if self.theta <= 0:
                raise DomainError(f"theta must be positive, got {self.theta}")
            if self.norm_d_plus_theta < 0 or not math.isfinite(self.norm_d_plus_theta):
                raise DomainError(f"invalid norm_d_plus_theta {self.norm_d_plus_theta}")

    def to_dict(self) -> dict:
        out: dict = {"lp_norms": {repr(float(p)): v for p, v in sorted(self.lp_norms.items())}}
        if self.grad_d_norm is not None:
            out["grad_d_norm"] = self.grad_d_norm
        if self.theta is not None:
            out["theta"] = self.theta
            out["norm_d_plus_theta"] = self.norm_d_plus_theta
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "NormBundle":
        lp: dict[float, float] = {}
        for key, value in dict(data.get("lp_norms", {})).items():
            p = float(key)
            if p in lp:
                raise DomainError(f"lp_norms gives the exponent {p} twice; the key {key!r} repeats it")
            lp[p] = float(value)
        return cls(
            lp_norms=lp,
            grad_d_norm=data.get("grad_d_norm"),
            theta=data.get("theta"),
            norm_d_plus_theta=data.get("norm_d_plus_theta"),
        )


def check_theta(d: int, delta: float, theta: float) -> None:
    """Reject a theta outside (0, min(1, (d-1)/delta)], or one the doubles cannot carry.

    That is the range of the extra-integrability power bound on K0; every
    route that applies the bound calls this check. The bound's coefficient
    2^{d+theta} overflows from d + theta = 1024 on, and its T power
    theta delta/(2d) must not underflow to 0.
    """
    if not (0.0 < theta <= min(1.0, (d - 1) / delta)):
        raise DomainError(
            f"theta must lie in (0, min(1, (d-1)/delta)] = (0, {min(1.0, (d - 1) / delta)}], got {theta}"
        )
    if d + theta >= 1024:
        raise DomainError(f"2^(d+theta) leaves the range of the doubles for d={d}, theta={theta}")
    if theta * delta / (2.0 * d) == 0.0:
        raise DomainError(f"the power theta*delta/(2d) underflows to 0 for d={d}, delta={delta}, theta={theta}")


def k0_bound_from_norms(norms: NormBundle, d: int, delta: float, T: float) -> float:
    """Extra-integrability bound T^{theta delta/(2d)} 2^{d+theta} |a|_{d+theta}.

    theta is the bundle's exponent. The crude constant 2^{d+theta}
    majorizes the Young factor times the kernel envelope;
    `sharp_k0_norm_coefficient` provides the sharp alternative with the
    same T power.
    """
    _check_delta(delta)
    if norms.theta is None or norms.norm_d_plus_theta is None:
        raise UnavailableBoundError("bundle carries no (theta, |a|_{d+theta}) pair")
    theta = norms.theta
    check_theta(d, delta, theta)
    if T == 0:
        return 0.0
    return T ** (theta * delta / (2.0 * d)) * 2.0 ** (d + theta) * norms.norm_d_plus_theta


def k0_prime_bound_from_norms(norms: NormBundle, T: float) -> float:
    """Unit-mass kernel bound sqrt(T) |grad a|_d for the gradient norm."""
    if norms.grad_d_norm is None:
        raise UnavailableBoundError("bundle carries no gradient norm")
    if T == 0:
        return 0.0
    return math.sqrt(T) * norms.grad_d_norm


def sharp_k0_norm_coefficient(d: int, delta: float, theta: float) -> float | None:
    """Sharp alternative K_BL(d; r, d+theta) M(d, r) to the crude 2^{d+theta}.

    r is the kernel exponent fixed by the Young relation
    1 + delta/d = 1/r + 1/(d+theta). Returns None when that exponent falls
    below 1 (large delta), in which case only the crude constant applies.
    """
    _check_delta(delta)
    if theta <= 0:
        raise DomainError(f"theta must be positive, got {theta}")
    inv_r = 1.0 + delta / d - 1.0 / (d + theta)
    if inv_r > 1.0:
        return None
    r = 1.0 / inv_r
    return young_constant(d, ExponentPair(r, float(d + theta))) * heat_kernel_norm(d, r)


def norm_bundle_from_vortex(data: VortexGaussian, theta: float | None = None) -> NormBundle:
    """Evaluate the bundle of norms of a vortex field.

    Always includes |a|_d and the gradient norm; adds |a|_{d+theta} when a
    theta is requested.
    """
    d = data.d
    lp = {float(d): lp_norm(data, float(d))}
    kwargs: dict = {}
    if theta is not None:
        kwargs["theta"] = float(theta)
        kwargs["norm_d_plus_theta"] = lp_norm(data, d + theta)
    return NormBundle(lp_norms=lp, grad_d_norm=grad_norm(data), **kwargs)
