"""Sharp analytic constants for heat-kernel convolution estimates.

Everything in this module is a closed-form function of dimension and exponent
parameters: Gamma/Beta special functions, the Talenti constant of the sharp
Sobolev inequality, the Pichorides norm of the Riesz transform on L_p, the
sharp Young convolution constant of Brascamp and Lieb, Lebesgue norms of the
Gaussian heat kernel, and the composite envelopes S1, S2, J1, J2 together
with the critical pair (delta0, Jbar) and its derived constants C1, C2, C3
that drive the lifespan certification.

All operations are pure functions; ``composite_constants`` is memoized per
(d, delta).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

from .errors import DomainError

__all__ = [
    "gamma_fn",
    "log_gamma",
    "beta_fn",
    "sobolev_constant",
    "riesz_constant",
    "ExponentPair",
    "young_constant",
    "heat_kernel_norm",
    "heat_kernel_grad_norm",
    "j_upper_1",
    "j_upper_2",
    "DELTA0",
    "ConstantSet",
    "composite_constants",
    "default_delta_grid",
    "C3_DISCREPANCY_NOTE",
]

SQRT_PI = math.sqrt(math.pi)

#: Crossing point of the two closed-form upper envelopes j_upper_1 (~1/delta^2)
#: and j_upper_2 (~1/(delta(1-delta))): delta0 = 2 sqrt(pi) / (9 + 2 sqrt(pi)).
DELTA0 = 2.0 * SQRT_PI / (9.0 + 2.0 * SQRT_PI)

C3_DISCREPANCY_NOTE = (
    "c3 is the algebraic value 4*c2 = 3/(4*c1) ~= 0.0133083; a commonly quoted "
    "reference figure 0.0133308333 disagrees in the 4th significant digit (and "
    "the quoted d=3 illustration 0.0014767 matches neither). The algebraic "
    "value is authoritative here and c3 = 4*c2 holds to machine precision."
)

# numerical slack when deciding whether a Young output exponent is the
# conjugate-pair limit r = infinity
_CONJUGATE_EPS = 1e-13


def gamma_fn(x: float) -> float:
    """Gamma function on the positive half line.

    Evaluated through the C library's log-gamma so that downstream products of
    Gamma ratios can be assembled in log space without overflow. Relative
    error is far below 1e-12 on (0, 50].
    """
    if x <= 0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.exp(math.lgamma(x))


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta_fn(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x+y).

    Computed in log space: the certification formulas feed Beta factors with
    nearly-singular arguments (delta/2 with small delta) where the naive
    Gamma quotient would overflow long before the result does.
    """
    if x <= 0 or y <= 0:
        raise DomainError(f"beta_fn requires positive arguments, got ({x}, {y})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def sobolev_constant(d: int, p: float) -> float:
    """Talenti's optimal constant in the Sobolev inequality on R^d.

    ||phi||_{dp/(d-p)} <= K_S(d, p) ||grad phi||_p for 1 <= p < d, with

        K_S(d,p) = pi^{-1/2} d^{-1/p} ((p-1)/(d-p))^{(p-1)/p}
                   * { Gamma(1+d/2) Gamma(d) / (Gamma(d/p) Gamma(1+d-d/p)) }^{1/d}.

    At p = 1 the middle factor is the continuous limit 0^0 -> 1.
    """
    _check_dimension(d)
    if p < 1:
        raise DomainError(f"sobolev_constant requires p >= 1, got p={p}")
    if p >= d:
        raise DomainError(f"sobolev_constant requires p < d, got p={p}, d={d}")
    if p == 1.0:
        middle = 1.0  # limit convention ((p-1)/(d-p))^((p-1)/p) -> 1
    else:
        middle = ((p - 1.0) / (d - p)) ** ((p - 1.0) / p)
    log_ratio = (
        math.lgamma(1.0 + d / 2.0)
        + math.lgamma(float(d))
        - math.lgamma(d / p)
        - math.lgamma(1.0 + d - d / p)
    ) / d
    return (1.0 / SQRT_PI) * d ** (-1.0 / p) * middle * math.exp(log_ratio)


def riesz_constant(p: float) -> float:
    """Operator norm of a Riesz transform on L_p (Pichorides constant).

    K_R(p) = cot(pi / (2 p*)) with p* = max(p, p/(p-1)); dimension free and
    symmetric under p <-> p/(p-1).
    """
    if p <= 1:
        raise DomainError(f"riesz_constant requires p > 1, got {p}")
    p_star = max(p, p / (p - 1.0))
    return 1.0 / math.tan(math.pi / (2.0 * p_star))


class ExponentPair:
    """Input exponents (p, q) of a convolution inequality on R^d.

    Both must be >= 1; the value 1 is admitted as the continuous limit where
    the corresponding Hoelder factor degenerates to 1 (convolution against an
    integrable factor). The Young output exponent r satisfies
    1/r = 1/p + 1/q - 1 and is checked by `young_constant` at the call site.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: float, q: float) -> None:
        if p < 1 or q < 1:
            raise DomainError(f"exponents must be >= 1, got ({p}, {q})")
        self.p = p
        self.q = q

    @property
    def inverse_output(self) -> float:
        """1/r for the Young output exponent r."""
        return 1.0 / self.p + 1.0 / self.q - 1.0


def _hoelder_factor(m: float) -> float:
    """m^{1/m} (m')^{-1/m'} with m' the conjugate exponent; 1 at m in {1, inf}."""
    if m == 1.0 or math.isinf(m):
        return 1.0
    mc = m / (m - 1.0)
    return m ** (1.0 / m) * mc ** (-1.0 / mc)


def young_constant(d: int, pq: ExponentPair) -> float:
    """Sharp constant of Young's convolution inequality on R^d.

    ||f*g||_r <= K_BL(d; p, q) ||f||_p ||g||_q with 1/r = 1/p + 1/q - 1.
    The Brascamp-Lieb value is

        K_BL(d; p, q) = [ p^{1/p} s^{-1/s} q^{1/q} t^{-1/t} z^{1/z} r^{-1/r} ]^{d/2}

    with s, t, z the conjugates of p, q, r. Always <= 1, equal to 1 exactly
    when an input exponent is 1. The conjugate-pair case 1/p + 1/q = 1
    (r = infinity) is evaluated by its analytic limit, where the r-factor
    tends to 1, instead of numerically.
    """
    _check_dimension(d, minimum=1)
    inv_r = pq.inverse_output
    if inv_r < -_CONJUGATE_EPS:
        raise DomainError(
            f"young_constant: no admissible output exponent, 1/p + 1/q - 1 = {inv_r} < 0"
        )
    if inv_r > 1.0 + _CONJUGATE_EPS:
        raise DomainError(
            f"young_constant: output exponent r = {1.0 / inv_r} < 1 is inadmissible"
        )
    if inv_r <= _CONJUGATE_EPS:
        tail = 1.0  # r -> infinity limit
    else:
        r = 1.0 / min(inv_r, 1.0)
        z = r / (r - 1.0) if r > 1.0 else math.inf
        tail = _hoelder_factor(z)
    value = (_hoelder_factor(pq.p) * _hoelder_factor(pq.q) * tail) ** (d / 2.0)
    return value


def heat_kernel_norm(d: int, r: float) -> float:
    """Normalized L_r envelope M(d, r) of the Gaussian heat kernel.

    M(d,r) = 2^{d/r} pi^{-d(1-1/r)/2} r^{-d/(2r)}, so that the kernel norm
    scales as t^{-d(1-1/r)/2} M(d, r). Satisfies M(d, r) < 2^d for r >= 1.

    Note the convention: M(d, 1) = 2^d although the kernel has unit mass;
    M is an envelope, larger than the exact kernel norm by the factor 2^d,
    and every bound assembled from it stays valid. The one place where the
    exact unit mass matters (the sqrt(T) gradient bound on the initial data)
    uses 1 explicitly.
    """
    _check_dimension(d, minimum=1)
    if r < 1:
        raise DomainError(f"heat_kernel_norm requires r >= 1, got {r}")
    return 2.0 ** (d / r) * math.pi ** (-d * (1.0 - 1.0 / r) / 2.0) * r ** (-d / (2.0 * r))


def heat_kernel_grad_norm(d: int, r: float) -> float:
    """Gradient counterpart M'(d, r) = 0.5 M(d, d + r) <= 2^{d-1}.

    The gradient kernel norm scales as t^{-1/2 - d(1-1/r)/2} M'(d, r).
    """
    _check_dimension(d, minimum=1)
    if r < 1:
        raise DomainError(f"heat_kernel_grad_norm requires r >= 1, got {r}")
    return 0.5 * heat_kernel_norm(d, d + r)


def j_upper_1(d: int, delta: float) -> float:
    """Closed-form majorant 9 d^2 / (2 delta^2) of the product constant J1."""
    _check_delta(delta)
    return 9.0 * d * d / (2.0 * delta * delta)


def j_upper_2(d: int, delta: float) -> float:
    """Closed-form majorant 81 d^2 / (4 sqrt(pi) delta (1-delta)) of J2."""
    _check_delta(delta)
    return 81.0 * d * d / (4.0 * SQRT_PI * delta * (1.0 - delta))


# the defining formula of each scalar of a ConstantSet, as it is implemented
_PROVENANCE = MappingProxyType({
    "s1": "K_BL(d; d, d/(d-1+delta)) * M(d, d/(d-1+delta)); kernel exponent matches the t^{(1-delta)/2} weight",
    "s2": "0.5 * M(d, 1); the L_1 pairing has sharp Young factor 1 (default gradient-envelope variant)",
    "s2_alt": "0.5 * M(d, d^2/(d-1)); alternative gradient-envelope variant",
    "j1": "K_R(d/delta) K_R(d) sqrt(pi) Gamma(delta/2)/Gamma((1+delta)/2)",
    "j2": "K_R(d)^2 Gamma((1-delta)/2) Gamma(delta/2)/sqrt(pi)",
    "j_up1": "9 d^2/(2 delta^2), closed-form majorant of j1",
    "j_up2": "81 d^2/(4 sqrt(pi) delta (1-delta)), closed-form majorant of j2",
    "j": "max(j_up1, j_up2)",
    "delta0": "2 sqrt(pi)/(9 + 2 sqrt(pi)), crossing point of the two majorants",
    "j_bar": "9 d^2/(2 delta0^2) = C1 d^2, the certified envelope at delta0",
    "c1": "9/(2 delta0^2)",
    "c2": "3/(16 C1); smallness threshold is c2/d^2",
    "c3": C3_DISCREPANCY_NOTE,
})


class ConstantSet:
    """Every evaluated constant for a fixed (d, delta), with provenance.

    The provenance map, shared by every instance, records for each scalar
    the defining formula as it is implemented (including the known c3
    reference discrepancy note). The constants fixed by identities (j,
    delta0, j_bar, c1, c2, c3 and the threshold and iterate bound built from
    them) are set with the fields; their formulas are in the provenance map.
    The constants that only ``--print-constants`` shows (the Sobolev, Riesz
    and kernel-envelope tables and s2_alt) are built by ``table``, on first
    use.

    ``composite_constants`` shares one instance across callers, so it is
    read-only: setting or deleting an attribute raises AttributeError. The
    values live in the instance dict, which ``cached_property`` writes
    without going through ``__setattr__``.
    """

    provenance: Mapping[str, str] = _PROVENANCE

    def __init__(
        self,
        d: int,
        delta: float,
        s1: float,
        s2: float,
        j1: float,
        j2: float,
        j_up1: float,
        j_up2: float,
    ) -> None:
        scalars = {"s1": s1, "s2": s2, "j1": j1, "j2": j2, "j_up1": j_up1, "j_up2": j_up2}
        for name, value in scalars.items():
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(f"constant {name} must be finite and positive, got {value}")
        j_bar = 4.5 * d * d / (DELTA0 * DELTA0)
        c1 = j_bar / (d * d)
        c2 = 3.0 / (16.0 * c1)
        c3 = 4.0 * c2
        self.__dict__.update(
            scalars, d=d, delta=delta, j=max(j_up1, j_up2), delta0=DELTA0, j_bar=j_bar, c1=c1, c2=c2, c3=c3,
            # smallness threshold 3/(16 Jbar) = c2/d^2 of the one-variable envelope
            threshold=c2 / (d * d),
            # certified sup bound 3/(4 Jbar) = c3/d^2 for the Picard iterates
            iterate_bound=c3 / (d * d),
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"ConstantSet is read-only; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ConstantSet is read-only; cannot delete {name!r}")

    @cached_property
    def table(self) -> tuple[tuple[str, float, str], ...]:
        """Flat (name, value, formula) rows of every constant, for ``--print-constants``; built once."""
        d, delta = self.d, self.delta
        r_alt = d * d / (d - 1.0)
        # dicts, since r_s1 can round to 1 and d/delta to d
        riesz = {p: riesz_constant(p) for p in (float(d), d / delta)}
        kernel = {r: heat_kernel_norm(d, r) for r in (1.0, _s1_exponent(d, delta), r_alt)}
        named = {**vars(self), "s2_alt": 0.5 * 1.0 * kernel[r_alt]}
        rows: list[tuple[str, float, str]] = []
        for p in (1.0, 2.0):
            rows.append((f"K_S({d},{p:g})", sobolev_constant(d, p), "sharp Sobolev (Talenti) constant"))
        for p, v in riesz.items():
            rows.append((f"K_R({p:g})", v, "Riesz transform norm cot(pi/(2 p*)) (Pichorides)"))
        for r, v in kernel.items():
            rows.append((f"M({d},{r:g})", v, "heat kernel L_r envelope 2^{d/r} pi^{-d(1-1/r)/2} r^{-d/2r}"))
        rows.append((f"M'({d},1)", heat_kernel_grad_norm(d, 1.0), "gradient kernel envelope 0.5 M(d, d+r)"))
        for name in ("s1", "s2", "s2_alt", "j1", "j2", "j_up1", "j_up2", "j",
                     "delta0", "j_bar", "c1", "c2", "c3"):
            rows.append((name, named[name], self.provenance.get(name, "")))
        return tuple(rows)


def _check_dimension(d: int, minimum: int = 3) -> None:
    if not isinstance(d, int) or isinstance(d, bool) or d < minimum:
        raise DomainError(f"dimension must be an integer >= {minimum}, got {d!r}")


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")


def _s1_exponent(d: int, delta: float) -> float:
    # Kernel exponent for the weighted d/delta envelope. The Young relation
    # with data in L_d and output L_{d/delta} forces 1/r1 = (d - 1 + delta)/d,
    # which is also the unique exponent whose kernel decay t^{-d(1-1/r1)/2}
    # cancels the weight t^{(1-delta)/2} exactly.
    return d / (d - 1.0 + delta)


@lru_cache(maxsize=256)
def _composite(d: int, delta: float) -> ConstantSet:
    k_r_d = riesz_constant(float(d))
    r_s1 = _s1_exponent(d, delta)
    s1 = young_constant(d, ExponentPair(float(d), r_s1)) * heat_kernel_norm(d, r_s1)

    # Gradient-kernel envelope: the pairing puts the kernel in L_1, where the
    # sharp Young factor is exactly 1.
    s2 = 0.5 * 1.0 * heat_kernel_norm(d, 1.0)

    j1 = riesz_constant(d / delta) * k_r_d * math.exp(
        0.5 * math.log(math.pi) + math.lgamma(delta / 2.0) - math.lgamma((1.0 + delta) / 2.0)
    )
    j2 = k_r_d * k_r_d * math.exp(
        math.lgamma((1.0 - delta) / 2.0) + math.lgamma(delta / 2.0) - 0.5 * math.log(math.pi)
    )
    return ConstantSet(d, delta, s1, s2, j1, j2, j_upper_1(d, delta), j_upper_2(d, delta))


def composite_constants(d: int, delta: float) -> ConstantSet:
    """Evaluate every composite constant for the pair (d, delta).

    Results are memoized per (d, delta); the returned object is immutable.
    A (d, delta) whose constants leave the range of the doubles, such as
    d = 1024 (2^d overflows) or delta = 1e-300 (delta^2 underflows), is a
    domain error.
    """
    _check_dimension(d)
    _check_delta(delta)
    try:
        return _composite(d, float(delta))
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"the constants for d={d}, delta={delta} leave the range of the doubles") from exc


def default_delta_grid(n: int = 64) -> tuple[float, ...]:
    """Deterministic hybrid delta grid used by the sweep drivers.

    Half the points are log-spaced from 1e-3 to 0.3 (just 1e-3 when that
    half is one point) to resolve the small-delta blow-up of the envelopes;
    the rest are linear on (0.3, 0.97). delta0 is always included so the
    critical point is on every grid.
    """
    if n < 2:
        raise DomainError(f"grid needs at least 2 points, got {n}")
    n_log = n // 2
    n_lin = n - n_log
    if n_log == 1:
        log_part = [1e-3]
    else:
        log_part = [10.0 ** (-3.0 + (k / (n_log - 1)) * (math.log10(0.3) + 3.0)) for k in range(n_log)]
    lin_part = [0.3 + (k + 1) * (0.97 - 0.3) / n_lin for k in range(n_lin)]
    grid = sorted(set(log_part + lin_part + [DELTA0]))
    return tuple(grid)
