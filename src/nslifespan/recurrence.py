"""Fixed-point bounds for the coupled quadratic recurrence inequalities.

Scalar form: any nonnegative sequence with x_{n+1} <= alpha + beta x_n +
gamma x_n^2 stays below the larger root Z of alpha + beta Z + gamma Z^2 = Z
whenever the root is real and positive and x_0 starts below it (induction on
n, using that the quadratic map is monotone on [0, Z]); ``z_root`` is that
root.

Coupled form: x_{n+1} <= alpha1 + beta1 x_n y_n, y_{n+1} <= alpha2 +
beta2 x_n y_n. Along the equality dynamics the combination beta2 x - beta1 y
is conserved after one step, which reduces each component to a scalar
recurrence with the cross-determinant det1 = alpha2 beta1 - alpha1 beta2 in
the linear slot; the two reduced discriminants coincide identically.

The test suite's oracles (``tests/oracle_utils.py``) iterate the equality
dynamics, which dominate every obedient sequence pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "CoupledRecurrence",
    "HypothesisFailure",
    "CoupledBound",
    "coupled_bound",
]


@dataclass(frozen=True)
class CoupledRecurrence:
    """Coefficients of the coupled product system with start (x0, y0)."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    x0: float
    y0: float

    def __post_init__(self) -> None:
        if min(self.alpha1, self.alpha2, self.beta1, self.beta2) <= 0:
            raise DomainError(
                f"coupled coefficients must be positive, got {self}"
            )
        if self.x0 <= 0 or self.y0 <= 0:
            raise DomainError(f"start values must be positive, got {self}")

    @property
    def det1(self) -> float:
        return self.alpha2 * self.beta1 - self.alpha1 * self.beta2

    @property
    def det2(self) -> float:
        return -self.det1

    @property
    def d1(self) -> float:
        """(det1 + 1)^2 - 4 alpha1 beta2."""
        return (self.det1 + 1.0) ** 2 - 4.0 * self.alpha1 * self.beta2

    @property
    def d2(self) -> float:
        """(det2 + 1)^2 - 4 alpha2 beta1."""
        return (self.det2 + 1.0) ** 2 - 4.0 * self.alpha2 * self.beta1


@dataclass(frozen=True)
class HypothesisFailure:
    """A named hypothesis with the (nonpositive) margin by which it failed.

    `margin` is the value of the quantity that the hypothesis requires to be
    positive (a discriminant, a root, or a root minus the start value), as
    evaluated when the check failed; it is NaN for ``quadratics_finite``,
    whose quantities overflow the doubles.
    """

    condition: str
    margin: float


@dataclass(frozen=True)
class CoupledBound:
    """Result of the coupled fixed-point bound."""

    x_bound: float | None
    y_bound: float | None
    failures: tuple[HypothesisFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def value(self) -> tuple[float, float] | None:
        if self.ok:
            assert self.x_bound is not None and self.y_bound is not None
            return (self.x_bound, self.y_bound)
        return None


def z_root(alpha: float, beta: float, gamma: float) -> float:
    """Larger root (1 - beta + sqrt((beta-1)^2 - 4 alpha gamma)) / (2 gamma).

    The beta slot may be negative (the coupled reduction feeds the signed
    cross-determinant through it). Raises if the root is not real.
    """
    if gamma <= 0:
        raise DomainError(f"z_root requires gamma > 0, got {gamma}")
    disc = (beta - 1.0) ** 2 - 4.0 * alpha * gamma
    if disc < 0:
        raise DomainError(f"z_root: discriminant {disc} < 0, no real root")
    return (1.0 - beta + math.sqrt(disc)) / (2.0 * gamma)


def coupled_bound(rec: CoupledRecurrence) -> CoupledBound:
    """Certified componentwise sup bounds for the coupled system.

    Hypotheses: d1 > 0, d2 > 0, both reduced roots z(alpha1, det1, beta2)
    and z(alpha2, det2, beta1) positive, and the start values below them.
    d1 > 0 and d2 > 0 together force the shared reduced discriminant
    (det1 - 1)^2 - 4 alpha1 beta2 = (det2 - 1)^2 - 4 alpha2 beta1 above
    4 |det1| >= 0, so the roots are then automatically real. When d1 or d2
    overflows the doubles, nothing is certified: the single failure is
    ``quadratics_finite``.
    """
    try:
        d1, d2 = rec.d1, rec.d2
    except OverflowError:
        return CoupledBound(None, None, (HypothesisFailure("quadratics_finite", math.nan),))
    failures: list[HypothesisFailure] = []
    if not d1 > 0:  # NaN fails too
        failures.append(HypothesisFailure("d1_positive", d1))
    if not d2 > 0:
        failures.append(HypothesisFailure("d2_positive", d2))
    if failures:
        return CoupledBound(None, None, tuple(failures))

    zx = z_root(rec.alpha1, rec.det1, rec.beta2)
    zy = z_root(rec.alpha2, rec.det2, rec.beta1)
    if zx <= 0:
        failures.append(HypothesisFailure("x_root_positive", zx))
    if zy <= 0:
        failures.append(HypothesisFailure("y_root_positive", zy))
    if not rec.x0 < zx:
        failures.append(HypothesisFailure("x_start_below_root", zx - rec.x0))
    if not rec.y0 < zy:
        failures.append(HypothesisFailure("y_start_below_root", zy - rec.y0))
    if failures:
        return CoupledBound(None, None, tuple(failures))
    return CoupledBound(zx, zy, ())
