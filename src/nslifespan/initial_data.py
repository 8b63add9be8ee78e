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
dimension: a product Gauss-Laguerre rule in that plane, 150 nodes in the
planar radius and 64 in the axial one. The package ships its value for
every d in 3..1023 (``grad_unit_constants.json``, read on the first
nonzero ``grad_norm``); ``tests/oracle_utils.py`` builds the rule and
regenerates the file bit for bit. Any other d is a DomainError; no
certificate reaches d >= 1024, since the composite constants leave the
doubles there.

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
so K0(T) and K0'(T) are its value at min(T, t*). Both vanish as T -> 0+ and
saturate at their peak as T -> infinity. ``k0_exact(data, delta)`` and
``k0_prime_exact(data)`` build this profile once per (datum, delta) as a
``KatoProfile``. It reads a, b and t* at the build, and norm0 and the value
at t* at its first use, so an evaluation costs two powers. The profile's
``root`` inverts it by Newton's method in log T, and its ``t_peak`` is the
saturation time.
"""

from __future__ import annotations

import json
import math
import os
from functools import lru_cache
from typing import Callable, Mapping

from .constants import ExponentPair, _check_delta, _check_dimension, heat_kernel_norm, log_gamma, young_constant
from .errors import DomainError, UnavailableBoundError

__all__ = [
    "VortexGaussian",
    "NormBundle",
    "lp_norm",
    "grad_norm",
    "KatoProfile",
    "k0_exact",
    "k0_prime_exact",
    "PowerBound",
    "k0_norm_bound",
    "k0_prime_norm_bound",
    "sharp_k0_norm_coefficient",
    "norm_bundle_from_vortex",
]

# Newton steps of the Kato-norm inversion; from its start it converges in a handful
_NEWTON_STEPS = 40
_ROOT_CAP = 1e300  # a PowerBound root at or above it is capped there


class VortexGaussian:
    """Rotating Gaussian vortex a(x) = amplitude * A x * exp(-|x|^2/(2 sigma^2)).

    A nonzero field needs sigma^2 inside the doubles: its norms take the
    logarithm of sigma^2, and its evolution divides by it.
    """

    __slots__ = ("d", "sigma", "amplitude")

    def __init__(self, d: int, sigma: float, amplitude: float) -> None:
        _check_dimension(d)
        if not (sigma > 0 and math.isfinite(sigma)):
            raise DomainError(f"sigma must be positive and finite, got {sigma}")
        if amplitude < 0 or not math.isfinite(amplitude):
            raise DomainError(f"amplitude must be nonnegative, got {amplitude}")
        if amplitude > 0 and not (0.0 < sigma * sigma < math.inf):
            raise DomainError(f"sigma^2 leaves the range of the doubles for sigma={sigma}")
        self.d = d
        self.sigma = sigma
        self.amplitude = amplitude

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


_GRAD_UNIT_FIRST_D, _GRAD_UNIT_LAST_D = 3, 1023  # the dimensions of the shipped gradient constants


@lru_cache(maxsize=None)
def _grad_unit_table() -> tuple[float, ...]:
    """The shipped |grad a|_d of the unit vortex for d = 3..1023, read once, on first use."""
    with open(os.path.join(os.path.dirname(__file__), "grad_unit_constants.json"), encoding="utf-8") as fh:
        return tuple(json.load(fh)["values"])


def _grad_unit_constant(d: int) -> float:
    """|grad a|_d for the unit vortex (sigma = amplitude = 1), from the shipped table.

    The table holds a product Gauss-Laguerre rule's value for every d in
    3..1023 (module docstring); any other d is a DomainError.
    """
    if not _GRAD_UNIT_FIRST_D <= d <= _GRAD_UNIT_LAST_D:
        raise DomainError(
            f"the gradient constant is tabulated for d = {_GRAD_UNIT_FIRST_D}..{_GRAD_UNIT_LAST_D}, got d={d}"
        )
    return _grad_unit_table()[d - _GRAD_UNIT_FIRST_D]


def grad_norm(data: VortexGaussian) -> float:
    """L_d norm of the Jacobian magnitude |grad a|_F.

    Scales exactly like amplitude * sigma: substituting x = sigma u removes
    sigma from the Frobenius density, so one constant per dimension, from
    the shipped table, gives every field.
    """
    if data.amplitude == 0:
        return 0.0
    return data.amplitude * data.sigma * _grad_unit_constant(data.d)


class KatoProfile:
    """T -> norm0 t^a (1 + 2t/s2)^{-b} at t = min(T, t*): K0 or K0' of one vortex and one delta.

    a = (1-delta)/2 and b = (d+1-delta)/2, and the profile peaks at
    t* = a s2 / (2 (b - a)) (``t_peak``); ``peak`` is its value there. From
    t* on the value is ``peak`` bit for bit. For norm0 > 0 the profile is
    positive at every t > 0, so a t* that underflows to 0 has no clamp that
    gives it: the build raises DomainError. The zero field (whose s2 may be
    infinite) has t* = inf, and every profile with norm0 = 0 is 0.0 at
    every T.

    norm0 and ``peak`` are read once, at the first value or root, from
    ``read_norm0``: a route that rejects its inputs between the build and
    its first probe (an infeasible force) keeps that error ahead of the
    norm's own.
    """

    __slots__ = ("read_norm0", "norm0", "a", "b", "s2", "t_peak", "peak")

    def __init__(self, data: VortexGaussian, delta: float, read_norm0: Callable[[], float]) -> None:
        s2 = data.sigma * data.sigma
        a, b = (1.0 - delta) / 2.0, (data.d + 1.0 - delta) / 2.0
        t_peak = math.inf
        if data.amplitude != 0:
            t_peak = a * s2 / (2.0 * (b - a))
            if not t_peak > 0.0:
                raise DomainError(f"the peak time of the weighted norm leaves the range of the doubles for sigma^2={s2}")
        self.read_norm0, self.norm0, self.a, self.b, self.s2, self.t_peak = read_norm0, None, a, b, s2, t_peak

    def _read(self) -> float:
        norm0 = self.norm0 = self.read_norm0()
        t_peak = self.t_peak
        self.peak = 0.0 if norm0 == 0.0 else norm0 * t_peak**self.a * (1.0 + 2.0 * t_peak / self.s2) ** -self.b
        return norm0

    def __call__(self, T: float) -> float:
        """The supremum of the profile over (0, T); T = infinity is allowed."""
        norm0 = self.norm0
        if norm0 is None:
            norm0 = self._read()
        if norm0 == 0.0:
            return 0.0
        if not T > 0:
            raise DomainError(f"horizon T must be positive, got {T}")
        if T >= self.t_peak:
            return self.peak
        return norm0 * T**self.a * (1.0 + 2.0 * T / self.s2) ** -self.b

    def root(self, y: float) -> float:
        """Approximate largest T with self(T) <= y.

        Returns 0.0 when y <= 0 or norm0 is inf, and inf when y is at or
        above the peak. The log of the profile is concave and increasing in
        u = log t below t*, and the small-T power-law root (y / norm0)^{1/a}
        lies below the root, so Newton in u rises monotonically to it. An
        underflowing root is returned as the smallest positive double.
        """
        norm0, a, b, s2 = self.norm0, self.a, self.b, self.s2
        if norm0 is None:
            norm0 = self._read()
        if norm0 == 0.0:
            return math.inf if y >= 0.0 else 0.0
        if y <= 0.0:
            return 0.0
        if y >= self.peak:
            return math.inf
        if norm0 == math.inf:  # the profile is inf at every T > 0
            return 0.0
        log_ratio = math.log(y) - math.log(norm0)
        u_peak = math.log(self.t_peak)
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


def k0_exact(data: VortexGaussian, delta: float) -> KatoProfile:
    """T -> sup_{t in (0,T)} t^{(1-delta)/2} |e^{t Lap} a|_{d/delta}: the profile of |a|_{d/delta} (module docstring)."""
    if not 0.0 < delta < 1.0:
        _check_delta(delta)
    return KatoProfile(data, delta, lambda: lp_norm(data, data.d / delta))


def k0_prime_exact(data: VortexGaussian) -> KatoProfile:
    """T -> sup_{t in (0,T)} t^{1/2} |grad e^{t Lap} a|_d: the profile of |grad a|_d at delta = 0."""
    return KatoProfile(data, 0.0, lambda: grad_norm(data))


class NormBundle:
    """Externally supplied norm values of an initial datum.

    `lp_norms` maps exponents to |a|_p values; `grad_d_norm` is |grad a|_d;
    the optional pair (theta, norm_d_plus_theta) records |a|_{d+theta} for
    the extra-integrability bound. Field names match the CLI JSON keys.
    """

    __slots__ = ("lp_norms", "grad_d_norm", "theta", "norm_d_plus_theta")

    def __init__(
        self,
        lp_norms: Mapping[float, float],
        grad_d_norm: float | None = None,
        theta: float | None = None,
        norm_d_plus_theta: float | None = None,
    ) -> None:
        for p, v in lp_norms.items():
            if p < 1 or v < 0 or not math.isfinite(v):
                raise DomainError(f"invalid lp norm entry ({p}, {v})")
        if grad_d_norm is not None and (grad_d_norm < 0 or not math.isfinite(grad_d_norm)):
            raise DomainError(f"invalid grad_d_norm {grad_d_norm}")
        if (theta is None) != (norm_d_plus_theta is None):
            raise DomainError("theta and norm_d_plus_theta must be supplied together")
        if theta is not None:
            if theta <= 0:
                raise DomainError(f"theta must be positive, got {theta}")
            if norm_d_plus_theta < 0 or not math.isfinite(norm_d_plus_theta):
                raise DomainError(f"invalid norm_d_plus_theta {norm_d_plus_theta}")
        self.lp_norms = lp_norms
        self.grad_d_norm = grad_d_norm
        self.theta = theta
        self.norm_d_plus_theta = norm_d_plus_theta

    def __eq__(self, other: object) -> bool:  # a bundle read back from its dict equals the one written
        if other.__class__ is not NormBundle:
            return NotImplemented
        return [getattr(self, name) for name in self.__slots__] == [getattr(other, name) for name in self.__slots__]

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


class PowerBound:
    """A norm-bundle bound T -> coef T^power on K0 or K0'; power 0 is a T-uniform cap.

    ``inverse`` is 1/power as the constructor writes it (``k0_norm_bound``,
    ``k0_prime_norm_bound``); ``root`` raises y/coef to it. ``note`` says
    which bound this is, in the words of a certificate note.
    """

    __slots__ = ("coef", "power", "inverse", "note")

    def __init__(self, coef: float, power: float = 0.0, inverse: float = math.inf, note: str = "") -> None:
        self.coef = coef
        self.power = power
        self.inverse = inverse
        self.note = note

    def __call__(self, T: float) -> float:
        if self.power == 0.0:
            return self.coef
        if not T > 0.0:
            return 0.0
        # sqrt is correctly rounded, T**0.5 is not
        return self.coef * (math.sqrt(T) if self.power == 0.5 else T**self.power)

    def root(self, y: float) -> tuple[float, bool]:
        """(T, capped): the largest T with coef T^power <= y, from (y/coef)^inverse in log space.

        A cap holds at every T (inf) or at none (0.0). A power bound is 0.0
        for y <= 0 and inf for coef = 0; otherwise it falls below y as
        T -> 0, so the root is at least 5e-324. A root from 1e300 on is
        capped at 1e300 (capped = True), which keeps it a lower bound.
        """
        if self.power == 0.0:
            return (math.inf if self.coef <= y else 0.0), False
        if y <= 0.0:
            return 0.0, False
        if self.coef == 0.0:
            return math.inf, False
        log_t = self.inverse * (math.log(y) - math.log(self.coef))
        if log_t >= math.log(_ROOT_CAP):
            return _ROOT_CAP, True
        return max(math.exp(log_t), math.ulp(0.0)), False


def k0_norm_bound(norms: NormBundle, d: int, delta: float, sharp: bool) -> PowerBound:
    """The extra-integrability bound K0(T) <= c T^{theta delta/(2d)} |a|_{d+theta}.

    c is the crude 2^{d+theta}, which majorizes the Young factor times the
    kernel envelope, or with ``sharp`` the smaller of it and
    ``sharp_k0_norm_coefficient``. This is the one place that writes the
    power theta delta/(2d) and its inverse. The bundle's theta must lie in
    (0, 1] (the paper's (0, min(1, (d-1)/delta)], as d >= 3 and delta < 1);
    a theta whose 2^{d+theta} overflows (d + theta >= 1024) or whose power
    underflows to 0 is rejected too.
    """
    _check_delta(delta)
    if norms.theta is None or norms.norm_d_plus_theta is None:
        raise UnavailableBoundError("bundle carries no (theta, |a|_{d+theta}) pair")
    theta = norms.theta
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    if d + theta >= 1024:
        raise DomainError(f"2^(d+theta) leaves the range of the doubles for d={d}, theta={theta}")
    power = theta * delta / (2.0 * d)
    if power == 0.0:
        raise DomainError(f"the power theta*delta/(2d) underflows to 0 for d={d}, delta={delta}, theta={theta}")
    coef, note = 2.0 ** (d + theta), "k0 power bound uses the crude coefficient 2^{d+theta}"
    if sharp:
        sharp_coef = sharp_k0_norm_coefficient(d, delta, theta)
        if sharp_coef is not None and sharp_coef < coef:
            coef = sharp_coef
            note = "k0 power bound uses the sharp Young*kernel coefficient (smaller than 2^{d+theta})"
    return PowerBound(coef * norms.norm_d_plus_theta, power, 2.0 * d / (theta * delta), note)


def k0_prime_norm_bound(norms: NormBundle) -> PowerBound:
    """The unit-mass kernel bound K0'(T) <= sqrt(T) |grad a|_d."""
    if norms.grad_d_norm is None:
        raise UnavailableBoundError("bundle carries no gradient norm")
    return PowerBound(norms.grad_d_norm, 0.5, 2.0, "k0' bound includes sqrt(T)*|grad a|_d")


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
