"""Fixed-point bounds for quadratic recurrence inequalities.

Scalar form: any nonnegative sequence with x_{n+1} <= alpha + beta x_n +
gamma x_n^2 stays below the larger root Z of alpha + beta Z + gamma Z^2 = Z
whenever the root is real and positive and x_0 starts below it (induction on
n, using that the quadratic map is monotone on [0, Z]).

Coupled form: x_{n+1} <= alpha1 + beta1 x_n y_n, y_{n+1} <= alpha2 +
beta2 x_n y_n. Along the equality dynamics the combination beta2 x - beta1 y
is conserved after one step, which reduces each component to a scalar
recurrence with the cross-determinant det1 = alpha2 beta1 - alpha1 beta2 in
the linear slot; the two reduced discriminants coincide identically.

``iterate_worst_case`` runs the equality dynamics, which dominate every
obedient sequence pointwise, and is the ground-truth oracle for the bounds;
the *_batch variants vectorize it over parameter draws for the bulk
property suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .errors import DomainError

if TYPE_CHECKING:  # numpy is imported where arrays are built, off the CLI's import path
    import numpy as np

__all__ = [
    "ScalarRecurrence",
    "CoupledRecurrence",
    "HypothesisFailure",
    "ScalarBound",
    "CoupledBound",
    "fixed_point_bound",
    "coupled_bound",
    "Trajectory",
    "iterate_worst_case",
    "iterate_scalar_batch",
    "iterate_coupled_batch",
]

# iterates beyond this are reported as divergence (not an overflow crash)
_DIVERGENCE_CAP = 1e150


@dataclass(frozen=True)
class ScalarRecurrence:
    """Coefficients of x_{n+1} <= alpha + beta x_n + gamma x_n^2, x_0 = x0.

    gamma = 0 (the degenerate linear recurrence) is accepted here so the
    worst-case iterator can exercise it; `fixed_point_bound` itself requires
    gamma > 0.
    """

    alpha: float
    beta: float
    gamma: float
    x0: float

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0 or self.x0 < 0:
            raise DomainError(
                f"recurrence coefficients must be nonnegative, got {self}"
            )

    @property
    def discriminant(self) -> float:
        """(beta - 1)^2 - 4 alpha gamma."""
        return (self.beta - 1.0) ** 2 - 4.0 * self.alpha * self.gamma


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
class ScalarBound:
    """Result of the scalar fixed-point bound."""

    z: float | None
    discriminant: float
    failures: tuple[HypothesisFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def value(self) -> float | None:
        return self.z if self.ok else None


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


def fixed_point_bound(rec: ScalarRecurrence) -> ScalarBound:
    """Certified sup bound for sequences obeying the scalar recurrence.

    Returns the larger quadratic root Z when the hypotheses (positive
    discriminant, Z > 0, x0 < Z) all hold; otherwise the failures name each
    violated condition with its margin. gamma <= 0 is a domain error.
    """
    if rec.gamma <= 0:
        raise DomainError(f"fixed_point_bound requires gamma > 0, got {rec.gamma}")
    disc = rec.discriminant
    if disc <= 0:
        return ScalarBound(None, disc, (HypothesisFailure("discriminant_positive", disc),))
    z = z_root(rec.alpha, rec.beta, rec.gamma)
    failures: list[HypothesisFailure] = []
    if z <= 0:
        failures.append(HypothesisFailure("root_positive", z))
    if not rec.x0 < z:
        failures.append(HypothesisFailure("start_below_root", z - rec.x0))
    return ScalarBound(z, disc, tuple(failures))


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
    if d1 <= 0:
        failures.append(HypothesisFailure("d1_positive", d1))
    if d2 <= 0:
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


@dataclass(frozen=True)
class Trajectory:
    """Equality-dynamics trajectory: values, supremum, divergence verdict.

    For a coupled recurrence `values` has shape (n+1, 2) and `sup` is the
    componentwise pair. A trajectory that crosses the divergence cap is cut
    short and flagged instead of overflowing.
    """

    values: np.ndarray
    sup: float | tuple[float, float]
    diverged: bool


def iterate_worst_case(
    rec: Union[ScalarRecurrence, CoupledRecurrence], n_steps: int
) -> Trajectory:
    """Iterate the recurrence with equality (the extremal sequence)."""
    import numpy as np

    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if isinstance(rec, ScalarRecurrence):
        values = [rec.x0]
        x = rec.x0
        diverged = False
        for _ in range(n_steps):
            x = rec.alpha + rec.beta * x + rec.gamma * x * x
            values.append(x)
            if x > _DIVERGENCE_CAP:
                diverged = True
                break
        arr = np.asarray(values)
        return Trajectory(arr, float(arr.max()), diverged)
    if isinstance(rec, CoupledRecurrence):
        x, y = rec.x0, rec.y0
        values = [(x, y)]
        diverged = False
        for _ in range(n_steps):
            x, y = rec.alpha1 + rec.beta1 * x * y, rec.alpha2 + rec.beta2 * x * y
            values.append((x, y))
            if max(x, y) > _DIVERGENCE_CAP:
                diverged = True
                break
        arr = np.asarray(values)
        return Trajectory(arr, (float(arr[:, 0].max()), float(arr[:, 1].max())), diverged)
    raise TypeError(f"unsupported recurrence type {type(rec)!r}")


def iterate_scalar_batch(
    alpha: np.ndarray,
    beta: np.ndarray,
    gamma: np.ndarray,
    x0: np.ndarray,
    n_steps: int,
) -> np.ndarray:
    """Vectorized supremum of the scalar equality dynamics over draws.

    Diverging entries saturate at inf rather than raising.
    """
    import numpy as np

    x = np.array(x0, dtype=float)
    sup = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            x = alpha + beta * x + gamma * x * x
            x = np.where(np.isfinite(x), x, np.inf)
            np.maximum(sup, x, out=sup)
            if np.all(x > _DIVERGENCE_CAP):
                sup[:] = np.inf
                break
    return sup


def iterate_coupled_batch(
    alpha1: np.ndarray,
    alpha2: np.ndarray,
    beta1: np.ndarray,
    beta2: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized componentwise suprema of the coupled equality dynamics."""
    import numpy as np

    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    sx = x.copy()
    sy = y.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            prod = x * y
            x = alpha1 + beta1 * prod
            y = alpha2 + beta2 * prod
            x = np.where(np.isfinite(x), x, np.inf)
            y = np.where(np.isfinite(y), y, np.inf)
            np.maximum(sx, x, out=sx)
            np.maximum(sy, y, out=sy)
    return sx, sy
