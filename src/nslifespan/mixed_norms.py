"""Weighted mixed-norm a-priori bounds on the solution.

psi(d, q, delta) bounds the weighted sup norm
sup_t t^{(1-d/q)/2} |u(t)|_q and nu(d, q, delta) its gradient counterpart
sup_t t^{1-d/(2q)} |grad u(t)|_q, both assembled from the certified sup
bounds K, K' of the Picard iterates (by default the envelope-route value
C3/d^2), the sharp convolution/Riesz constants, heat-kernel envelopes and a
Beta factor from the time convolution. The Grand Lebesgue functional is the
sup over a q-grid of the ratio of a norm profile to a reference profile.

Exponent bookkeeping lives in ``ThetaExponents``; each theta is defined by
the closed-form identity recorded in its docstring, validated on
construction, and any infeasible combination raises with the violated
constraint named rather than clamping.
"""

from __future__ import annotations

import math
from typing import Sequence

from .constants import (
    ExponentPair,
    _check_delta,
    _check_dimension,
    beta_fn,
    heat_kernel_grad_norm,
    heat_kernel_norm,
    riesz_constant,
    young_constant,
)
from .errors import DomainError, InfeasibleExponentError

__all__ = [
    "ThetaExponents",
    "SolutionNormInputs",
    "psi_bound",
    "PsiMin",
    "psi_min",
    "nu_bound",
    "grand_lebesgue_norm",
]


class ThetaExponents:
    """The seven derived exponents for the pair of mixed-norm bounds.

    theta1 = d q / (d(q+1) - q(delta+1))   kernel exponent of the psi route
    theta2 = q / (delta + 1)               quadratic-term exponent
    theta3 = d / delta, theta4 = d         Riesz exponents
    1 + 1/q = 1/theta5 + 1/d               gradient-kernel exponent (data term)
    1 + 1/q = 1/theta6 + 1/theta7          gradient-kernel/quadratic pair
    1/theta7 = delta/d + 1/d

    theta1..theta4 must be strictly above 1; theta5 touches 1 exactly at the
    boundary q = d, where the convolution constant degenerates continuously,
    so the closed interval is allowed there.
    """

    __slots__ = ("d", "q", "delta", "theta1", "theta2", "theta3", "theta4", "theta5", "theta6", "theta7")

    def __init__(
        self,
        d: int,
        q: float,
        delta: float,
        theta1: float,
        theta2: float,
        theta3: float,
        theta4: float,
        theta5: float,
        theta6: float,
        theta7: float,
    ) -> None:
        self.d = d
        self.q = q
        self.delta = delta
        self.theta1 = theta1
        self.theta2 = theta2
        self.theta3 = theta3
        self.theta4 = theta4
        self.theta5 = theta5
        self.theta6 = theta6
        self.theta7 = theta7

    @classmethod
    def create(cls, d: int, q: float, delta: float) -> "ThetaExponents":
        _check_dimension(d)
        if q < d:
            raise DomainError(f"q must be >= d, got q={q}, d={d}")
        _check_delta(delta)
        denom1 = d * (q + 1.0) - q * (delta + 1.0)
        if denom1 <= 0:
            raise InfeasibleExponentError(
                f"theta1 denominator d(q+1) - q(delta+1) = {denom1} <= 0"
            )
        theta1 = d * q / denom1
        theta2 = q / (delta + 1.0)
        theta3 = d / delta
        theta4 = float(d)
        theta5 = 1.0 / (1.0 + 1.0 / q - 1.0 / d)
        inv_theta7 = delta / d + 1.0 / d
        theta7 = 1.0 / inv_theta7
        inv_theta6 = 1.0 + 1.0 / q - inv_theta7
        if inv_theta6 <= 0:
            raise InfeasibleExponentError(f"1/theta6 = {inv_theta6} <= 0")
        theta6 = 1.0 / inv_theta6
        obj = cls(d, q, delta, theta1, theta2, theta3, theta4, theta5, theta6, theta7)
        for name in ("theta1", "theta2", "theta3", "theta4"):
            value = getattr(obj, name)
            if not (1.0 < value < math.inf):
                raise InfeasibleExponentError(f"{name} = {value} outside (1, inf)")
        for name in ("theta5", "theta6", "theta7"):
            value = getattr(obj, name)
            if not (1.0 - 1e-12 <= value < math.inf):
                raise InfeasibleExponentError(f"{name} = {value} outside [1, inf)")
        return obj

    def identity_residuals(self) -> dict[str, float]:
        """Defining identities, each rearranged to an O(1) quantity that must be 0."""
        d, q, delta = self.d, self.q, self.delta
        return {
            "theta1": 1.0 / self.theta1 - (d * (q + 1.0) - q * (delta + 1.0)) / (d * q),
            "theta2": 1.0 / self.theta2 - (delta + 1.0) / q,
            "theta3": 1.0 / self.theta3 - delta / d,
            "theta4": self.theta4 / d - 1.0,
            "theta5": 1.0 + 1.0 / q - 1.0 / self.theta5 - 1.0 / d,
            "theta6_theta7": 1.0 + 1.0 / q - 1.0 / self.theta6 - 1.0 / self.theta7,
            "theta7": 1.0 / self.theta7 - delta / d - 1.0 / d,
        }


class SolutionNormInputs:
    """Certified sup bounds feeding the mixed-norm formulas.

    k_sup and k_prime_sup bound the weighted iterate norms (typically the
    envelope-route value C3/d^2 from a lifespan certificate); a_d_norm is
    |a|_d of the initial datum.
    """

    __slots__ = ("k_sup", "k_prime_sup", "a_d_norm")

    def __init__(self, k_sup: float, k_prime_sup: float, a_d_norm: float) -> None:
        for name, v in (("k_sup", k_sup), ("k_prime_sup", k_prime_sup), ("a_d_norm", a_d_norm)):
            if v < 0 or not math.isfinite(v):
                raise DomainError(f"{name} must be finite and nonnegative, got {v}")
        self.k_sup = k_sup
        self.k_prime_sup = k_prime_sup
        self.a_d_norm = a_d_norm


def psi_bound(d: int, q: float, delta: float, inputs: SolutionNormInputs) -> float:
    """Mixed-norm bound psi for the weighted solution norm.

    psi = K_BL(d; theta1, theta2) K K' K_R(d/delta) K_R(d) M(d, theta1)
          B((1-delta)/2 + d/(2q), delta/2)
          + 0.5 M(d, d^2/(d-1)) |a|_d.

    The second summand's kernel exponent d^2/(d-1) follows the mixed-norm
    display.
    """
    th = ThetaExponents.create(d, q, delta)
    try:
        kbl = young_constant(d, ExponentPair(th.theta1, th.theta2))
    except DomainError as exc:
        raise InfeasibleExponentError(
            f"(theta1, theta2) = ({th.theta1}, {th.theta2}) is not Young-admissible "
            f"at q={q}, delta={delta}: {exc}"
        ) from exc
    quad_term = (
        kbl
        * inputs.k_sup
        * inputs.k_prime_sup
        * riesz_constant(th.theta3)
        * riesz_constant(th.theta4)
        * heat_kernel_norm(d, th.theta1)
        * beta_fn((1.0 - delta) / 2.0 + d / (2.0 * q), delta / 2.0)
    )
    data_term = 0.5 * heat_kernel_norm(d, d * d / (d - 1.0)) * inputs.a_d_norm
    return quad_term + data_term


class PsiMin:
    """Grid infimum of psi over delta with the argmin and the full profile.

    ``profile`` holds (delta, psi) over the admissible grid points.
    """

    __slots__ = ("value", "delta", "profile")

    def __init__(self, value: float, delta: float, profile: tuple[tuple[float, float], ...]) -> None:
        self.value = value
        self.delta = delta
        self.profile = profile

    def __eq__(self, other: object) -> bool:  # equal grids and inputs give equal results
        if other.__class__ is not PsiMin:
            return NotImplemented
        return (self.value, self.delta, self.profile) == (other.value, other.delta, other.profile)


def psi_min(d: int, q: float, inputs: SolutionNormInputs, delta_grid: Sequence[float]) -> PsiMin:
    """Infimum of psi over the admissible deltas of a fixed grid.

    Inadmissible grid points (infeasible exponents) are skipped; if every
    delta is inadmissible a domain error reports it. Ties in psi go to the
    smallest delta, so the result does not depend on the grid order; the
    profile keeps the grid order.
    """
    profile: list[tuple[float, float]] = []
    for dlt in delta_grid:
        try:
            value = psi_bound(d, q, dlt, inputs)
        except (InfeasibleExponentError, DomainError):
            continue
        profile.append((dlt, value))
    if not profile:
        raise DomainError(f"no admissible delta on the grid for d={d}, q={q}")
    delta, value = min(profile, key=lambda row: (row[1], row[0]))
    return PsiMin(value=value, delta=delta, profile=tuple(profile))


def nu_bound(d: int, q: float, delta: float, inputs: SolutionNormInputs) -> float:
    """Mixed-norm bound nu for the weighted gradient norm.

    nu = K_BL(d; q, theta5) M'(d, theta5) |a|_d
         + K_BL(d; theta6, theta7) K_R(theta6) K_R(theta7) K K' M'(d, theta6)
           B(1/2 - d(1 - 1/theta6)/2, delta/2).

    The Beta factor's first argument equals (d/q - delta)/2, so the
    quadratic term exists only for q < d/delta; violations raise with the
    constraint named.
    """
    th = ThetaExponents.create(d, q, delta)
    try:
        kbl_data = young_constant(d, ExponentPair(q, th.theta5))
    except DomainError as exc:
        raise InfeasibleExponentError(
            f"(q, theta5) = ({q}, {th.theta5}) is not Young-admissible: {exc}"
        ) from exc
    data_term = kbl_data * heat_kernel_grad_norm(d, th.theta5) * inputs.a_d_norm

    beta_first = 0.5 - d * (1.0 - 1.0 / th.theta6) / 2.0
    if beta_first <= 0:
        raise InfeasibleExponentError(
            f"Beta argument 1/2 - d(1 - 1/theta6)/2 = {beta_first} <= 0 "
            f"(requires q < d/delta = {d / delta})"
        )
    kbl_quad = young_constant(d, ExponentPair(th.theta6, th.theta7))
    quad_term = (
        kbl_quad
        * riesz_constant(th.theta6)
        * riesz_constant(th.theta7)
        * inputs.k_sup
        * inputs.k_prime_sup
        * heat_kernel_grad_norm(d, th.theta6)
        * beta_fn(beta_first, delta / 2.0)
    )
    return data_term + quad_term


def grand_lebesgue_norm(
    psi_of_q: Sequence[tuple[float, float]],
    norm_profile: Sequence[tuple[float, float]],
) -> float:
    """sup over the q-grid of norm(q) / psi(q).

    Both profiles must share the q-grid exactly. A zero reference against a
    nonzero numerator is an infinite-norm verdict (returns inf); zero
    against zero contributes nothing. Feeding a profile against itself
    returns exactly 1.
    """
    psi_seq = list(psi_of_q)
    norm_seq = list(norm_profile)
    if len(psi_seq) != len(norm_seq):
        raise DomainError("profiles must share the q-grid")
    if not psi_seq:
        raise DomainError("profiles must be nonempty")
    worst = 0.0
    for (q_ref, psi_val), (q_num, norm_val) in zip(psi_seq, norm_seq):
        if q_ref != q_num:
            raise DomainError(f"profiles disagree on the grid: {q_ref} vs {q_num}")
        if psi_val < 0 or norm_val < 0:
            raise DomainError("profiles must be nonnegative")
        if psi_val == 0.0:
            if norm_val == 0.0:
                continue
            return math.inf
        worst = max(worst, norm_val / psi_val)
    return worst
