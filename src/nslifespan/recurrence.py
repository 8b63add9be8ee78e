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
``reduced_system`` is the one place that arithmetic is written: the
properties of ``CoupledRecurrence``, ``coupled_bound`` and the coupled
route's search all read it.

The test suite's oracles (``tests/oracle_utils.py``) iterate the equality
dynamics, which dominate every obedient sequence pointwise.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = [
    "CoupledRecurrence",
    "HypothesisFailure",
    "CoupledBound",
    "coupled_bound",
    "reduced_system",
]


class CoupledRecurrence:
    """Coefficients of the coupled product system with start (x0, y0)."""

    __slots__ = ("alpha1", "alpha2", "beta1", "beta2", "x0", "y0")

    def __init__(self, alpha1: float, alpha2: float, beta1: float, beta2: float, x0: float, y0: float) -> None:
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.beta1 = beta1
        self.beta2 = beta2
        self.x0 = x0
        self.y0 = y0
        if min(alpha1, alpha2, beta1, beta2) <= 0:
            raise DomainError(f"coupled coefficients must be positive, got {self}")
        if x0 <= 0 or y0 <= 0:
            raise DomainError(f"start values must be positive, got {self}")

    def __repr__(self) -> str:  # the error messages above print it
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"CoupledRecurrence({fields})"

    @property
    def det1(self) -> float:
        return _det1(self.alpha1, self.alpha2, self.beta1, self.beta2)

    @property
    def det2(self) -> float:
        return -self.det1

    @property
    def d1(self) -> float:
        """(det1 + 1)^2 - 4 alpha1 beta2."""
        return _discriminant(self.alpha1, self.det1, self.beta2)

    @property
    def d2(self) -> float:
        """(det2 + 1)^2 - 4 alpha2 beta1."""
        return _discriminant(self.alpha2, self.det2, self.beta1)


class HypothesisFailure:
    """A named hypothesis with the (nonpositive) margin by which it failed.

    `margin` is the value of the quantity that the hypothesis requires to be
    positive (a discriminant, a root, or a root minus the start value), as
    evaluated when the check failed; it is NaN for ``quadratics_finite``,
    whose quantities overflow the doubles.
    """

    __slots__ = ("condition", "margin")

    def __init__(self, condition: str, margin: float) -> None:
        self.condition = condition
        self.margin = margin


class CoupledBound:
    """Result of the coupled fixed-point bound."""

    __slots__ = ("x_bound", "y_bound", "failures")

    def __init__(self, x_bound: float | None, y_bound: float | None, failures: tuple[HypothesisFailure, ...]) -> None:
        self.x_bound = x_bound
        self.y_bound = y_bound
        self.failures = failures

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


def _det1(alpha1: float, alpha2: float, beta1: float, beta2: float) -> float:
    return alpha2 * beta1 - alpha1 * beta2


def _discriminant(alpha: float, det: float, beta: float) -> float:
    return (det + 1.0) ** 2 - 4.0 * alpha * beta


def reduced_system(
    alpha1: float, alpha2: float, beta1: float, beta2: float
) -> tuple[float, float, tuple[float, float] | None]:
    """(d1, d2, roots) of the coupled system with these coefficients, on plain floats.

    roots is the pair of reduced roots (z(alpha1, det1, beta2),
    z(alpha2, det2, beta1)) when d1 > 0 and d2 > 0, and None otherwise
    (a NaN d1 or d2 included); the roots are not computed then. Raises
    OverflowError when d1 or d2 overflows the doubles. The coefficients
    are not validated: ``CoupledRecurrence`` does that, and a caller that
    skips it must pass positive (or NaN) coefficients.
    """
    det1 = _det1(alpha1, alpha2, beta1, beta2)
    d1 = _discriminant(alpha1, det1, beta2)
    d2 = _discriminant(alpha2, -det1, beta1)
    if d1 > 0 and d2 > 0:
        return d1, d2, (z_root(alpha1, det1, beta2), z_root(alpha2, -det1, beta1))
    return d1, d2, None


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
        d1, d2, roots = reduced_system(rec.alpha1, rec.alpha2, rec.beta1, rec.beta2)
    except OverflowError:
        return CoupledBound(None, None, (HypothesisFailure("quadratics_finite", math.nan),))
    failures: list[HypothesisFailure] = []
    if roots is None:  # d1 or d2 fails, NaN included
        if not d1 > 0:
            failures.append(HypothesisFailure("d1_positive", d1))
        if not d2 > 0:
            failures.append(HypothesisFailure("d2_positive", d2))
        return CoupledBound(None, None, tuple(failures))

    zx, zy = roots
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
