"""External-force contributions and the abstract parabolic lifespan rule.

A force measured in the weighted supremum norm |||f|||_{theta, lambda} =
sup_s |f(s)|_theta / s^lambda adds a T-independent coefficient to each of
K0(T) and K0'(T), provided the exponents satisfy a matching constraint that
makes the Duhamel integral reproduce the Kato time weight exactly:

    K0  route: d/2 (1 - 1/r1) - 1 - lambda1 = (1 - delta)/2,
               1 + delta/d = 1/r1 + 1/theta1;
    K0' route: d/2 (1 - 1/r2) - 1 - lambda2 = 0,
               1 + 1/d = 1/r2 + 1/theta2.

For the gradient route the right side 0 is the value for which the
integral decays exactly like t^{-1/2}; it also makes the Beta-positivity
condition coincide with the exponent restriction d(1 - 1/r2) < 1.

The K0 Beta factor integrates the kernel decay exponent as the paper
prints it, B(1 - d(1-1/r1), 1 + lambda1), which needs the strict condition
d(1 - 1/r1) < 1, stricter than the nominal d(1 - 1/r1) < 2; the
feasibility report carries both conditions and the certificate notes the
Beta form.

The abstract parabolic rule certifies T = min(T1, T2, T3, T4) for a mild
formulation with semigroup blow-up |e^{At}|(Y -> X) <= C(gamma) t^{-gamma}:
T3 keeps the Duhamel term inside the half-radius ball (strict, realized
with a 1% margin below equality) and T4 makes the Duhamel map a
1/2-contraction.
"""

from __future__ import annotations

import math

from .constants import ExponentPair, _check_delta, beta_fn, heat_kernel_grad_norm, heat_kernel_norm, young_constant
from .errors import DomainError, InfeasibleExponentError
from .lifespan import KatoBoundState, LifespanCertificate, theorem41_bound

__all__ = [
    "ForceNorm",
    "FeasibilityCheck",
    "ForceContribution",
    "matching_lambda_k0",
    "matching_lambda_k0_prime",
    "force_contribution_k0",
    "force_contribution_k0_prime",
    "forced_lifespan",
    "AbstractParabolicProblem",
    "ParabolicLifespan",
    "abstract_parabolic_lifespan",
]

_MATCH_TOL = 1e-12
_STRICT_MARGIN = 0.01  # T3 backs off the strict Duhamel inequality by 1% of alpha/2
_K0_BETA_NOTE = "literal kernel decay: Beta(1 - d(1-1/r1), 1 + lambda); needs the stricter d(1-1/r1) < 1"


class ForceNorm:
    """A force norm value |||f|||_{theta, lambda} with its exponents."""

    __slots__ = ("theta", "lam", "value")

    def __init__(self, theta: float, lam: float, value: float) -> None:
        if theta < 1:
            raise DomainError(f"theta must be >= 1, got {theta}")
        if not (-1.0 < lam < 0.0):
            raise DomainError(f"lambda must lie in (-1, 0), got {lam}")
        if value < 0 or not math.isfinite(value):
            raise DomainError(f"force norm must be finite and nonnegative, got {value}")
        self.theta = theta
        self.lam = lam
        self.value = value


class FeasibilityCheck:
    """One named exponent condition with the quantity that must be positive."""

    __slots__ = ("name", "margin")

    def __init__(self, name: str, margin: float) -> None:
        self.name = name
        self.margin = margin

    @property
    def ok(self) -> bool:
        return self.margin > 0


class ForceContribution:
    """Additive contribution to a Kato norm, with its feasibility report."""

    __slots__ = ("coefficient", "checks", "notes")

    def __init__(
        self, coefficient: float | None, checks: tuple[FeasibilityCheck, ...], notes: tuple[str, ...] = ()
    ) -> None:
        self.coefficient = coefficient
        self.checks = checks
        self.notes = notes

    @property
    def feasible(self) -> bool:
        return all(c.ok for c in self.checks)


def _r_from_theta(lhs: float, theta: float, label: str) -> float:
    inv_r = lhs - 1.0 / theta
    if inv_r >= 1.0:
        raise InfeasibleExponentError(f"{label}: kernel exponent r = {1.0 / inv_r} <= 1")
    if inv_r <= 0.0:
        raise InfeasibleExponentError(f"{label}: 1/r = {inv_r} <= 0, no kernel exponent")
    return 1.0 / inv_r


def matching_lambda_k0(d: int, delta: float, theta: float) -> float:
    """The lambda that matches the K0 weight for a given force exponent theta."""
    r1 = _r_from_theta(1.0 + delta / d, theta, "k0 force route")
    return d / 2.0 * (1.0 - 1.0 / r1) - 1.0 - (1.0 - delta) / 2.0


def matching_lambda_k0_prime(d: int, theta: float) -> float:
    """The lambda that matches the K0' weight for a given force exponent theta."""
    r2 = _r_from_theta(1.0 + 1.0 / d, theta, "k0' force route")
    return d / 2.0 * (1.0 - 1.0 / r2) - 1.0


def force_contribution_k0(d: int, delta: float, force: ForceNorm) -> ForceContribution:
    """T-independent additive contribution of the force to K0(T).

    coefficient = K_BL(d; r1, theta1) M(d, r1) |||f||| B(b1, 1 + lambda1)
    with b1 = 1 - d(1 - 1/r1), which requires d(1 - 1/r1) < 1. A
    zero-valued force contributes 0 with a trivially feasible report.
    """
    _check_delta(delta)
    if force.value == 0.0:
        return ForceContribution(0.0, (), notes=("zero force: contribution 0",))
    r1 = _r_from_theta(1.0 + delta / d, force.theta, "k0 force route")
    decay = d * (1.0 - 1.0 / r1)
    match_residual = d / 2.0 * (1.0 - 1.0 / r1) - 1.0 - force.lam - (1.0 - delta) / 2.0
    b1 = 1.0 - decay
    report = (
        FeasibilityCheck("kernel_exponent_above_1", r1 - 1.0),
        FeasibilityCheck("decay_below_2", 2.0 - decay),
        FeasibilityCheck("exponent_matching", _MATCH_TOL - abs(match_residual)),
        FeasibilityCheck("decay_below_1_for_beta", 1.0 - decay),
        FeasibilityCheck("beta_first_argument_positive", b1),
    )
    if not all(c.ok for c in report):
        return ForceContribution(None, report, notes=(_K0_BETA_NOTE,))
    coef = (
        young_constant(d, ExponentPair(r1, force.theta))
        * heat_kernel_norm(d, r1)
        * force.value
        * beta_fn(b1, 1.0 + force.lam)
    )
    return ForceContribution(coef, report, notes=(_K0_BETA_NOTE,))


def force_contribution_k0_prime(d: int, force: ForceNorm) -> ForceContribution:
    """T-independent additive contribution of the force to K0'(T).

    coefficient = K_BL(d; r2, theta2) M'(d, r2) |||f|||
                  B(1/2 - d(1 - 1/r2)/2, 1 + lambda2),
    feasible exactly when d(1 - 1/r2) < 1, which under the matching
    constraint is lambda2 < -1/2.
    """
    if force.value == 0.0:
        return ForceContribution(0.0, (), notes=("zero force: contribution 0",))
    r2 = _r_from_theta(1.0 + 1.0 / d, force.theta, "k0' force route")
    decay = d * (1.0 - 1.0 / r2)
    match_residual = d / 2.0 * (1.0 - 1.0 / r2) - 1.0 - force.lam
    b2 = 0.5 - decay / 2.0
    report = (
        FeasibilityCheck("kernel_exponent_above_1", r2 - 1.0),
        FeasibilityCheck("decay_below_1", 1.0 - decay),
        FeasibilityCheck("exponent_matching", _MATCH_TOL - abs(match_residual)),
        FeasibilityCheck("beta_first_argument_positive", b2),
    )
    if not all(c.ok for c in report):
        return ForceContribution(None, report)
    coef = (
        young_constant(d, ExponentPair(r2, force.theta))
        * heat_kernel_grad_norm(d, r2)
        * force.value
        * beta_fn(b2, 1.0 + force.lam)
    )
    return ForceContribution(coef, report)


def forced_lifespan(state: KatoBoundState, f1: ForceNorm, f2: ForceNorm) -> LifespanCertificate:
    """Envelope-route horizon with the force contributions folded in.

    The contributions are constants added to K0(T) and K0'(T) for every T
    (the time weights match exactly), so the solve is ``theorem41_bound``
    on shifted evaluators; a zero force reproduces the unforced certificate
    bit for bit. Infeasible exponents raise before any solve.
    """
    c1 = force_contribution_k0(state.d, state.delta, f1)
    c2 = force_contribution_k0_prime(state.d, f2)
    for label, contrib in (("k0", c1), ("k0_prime", c2)):
        if not contrib.feasible:
            failed = [c.name for c in contrib.checks if not c.ok]
            raise InfeasibleExponentError(
                f"force contribution to {label} infeasible: {', '.join(failed)}"
            )
    assert c1.coefficient is not None and c2.coefficient is not None
    aug = KatoBoundState(
        state.d,
        state.delta,
        state.k0.shifted(c1.coefficient),
        state.k0_prime.shifted(c2.coefficient),
        state.constants,
        state.notes,
    )
    cert = theorem41_bound(aug)
    inter = dict(cert.intermediate)
    inter["force_k0_coefficient"] = c1.coefficient
    inter["force_k0_prime_coefficient"] = c2.coefficient
    notes = cert.notes + (
        "forced variant: force contributions added to both Kato evaluators",
        *c1.notes,
        *c2.notes,
    )
    return LifespanCertificate(
        cert.t0, cert.theorem, cert.delta_used, inter, cert.iterate_bound, cert.feasible, cert.checks, notes
    )


class AbstractParabolicProblem:
    """Constants of the abstract mild formulation u' = Au + F(u, grad u).

    gamma and c_gamma describe the Y -> X semigroup blow-up; alpha is the
    invariant ball radius; k1 bounds the nonlinearity on the ball and k2 its
    Lipschitz constant; t1 is the user horizon and t2 the strong-continuity
    time of the semigroup at the initial datum.
    """

    __slots__ = ("gamma", "c_gamma", "alpha", "k1", "k2", "t1", "t2")

    def __init__(self, gamma: float, c_gamma: float, alpha: float, k1: float, k2: float, t1: float, t2: float) -> None:
        if not (0.0 < gamma < 1.0):
            raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
        for name, v in (("c_gamma", c_gamma), ("alpha", alpha), ("k1", k1), ("k2", k2), ("t1", t1), ("t2", t2)):
            if not (v > 0 and math.isfinite(v)):
                raise DomainError(f"{name} must be finite and positive, got {v}")
        self.gamma = gamma
        self.c_gamma = c_gamma
        self.alpha = alpha
        self.k1 = k1
        self.k2 = k2
        self.t1 = t1
        self.t2 = t2


class ParabolicLifespan:
    """min(T1..T4) with the per-term breakdown and the contraction factor.

    ``ball_fraction`` is the Duhamel sup term as a fraction of alpha/2.
    """

    __slots__ = ("t", "t1", "t2", "t3", "t4", "contraction_factor", "ball_fraction")

    def __init__(
        self, t: float, t1: float, t2: float, t3: float, t4: float, contraction_factor: float, ball_fraction: float
    ) -> None:
        self.t = t
        self.t1 = t1
        self.t2 = t2
        self.t3 = t3
        self.t4 = t4
        self.contraction_factor = contraction_factor
        self.ball_fraction = ball_fraction

    def breakdown(self) -> dict[str, float]:
        return {"t1": self.t1, "t2": self.t2, "t3": self.t3, "t4": self.t4,
                "contraction_factor": self.contraction_factor,
                "ball_fraction": self.ball_fraction}


def _power_or_inf(base: float, exponent: float) -> float:
    """base ** exponent for a positive base, inf where the float power overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def abstract_parabolic_lifespan(problem: AbstractParabolicProblem) -> ParabolicLifespan:
    """Certified horizon min(T1, T2, T3, T4) for the abstract problem.

    T3 solves K1 C(gamma) T^{1-gamma}/(1-gamma) = (1 - 0.01) alpha/2
    (the inequality is strict, so equality is backed off by the margin);
    T4 solves K2 C(gamma) T^{1-gamma}/(1-gamma) = 1/2 exactly. The rounded
    closed form of T4 can land above the root, so the returned T is stepped
    down one double at a time until the contraction factor, evaluated at T,
    is <= 1/2; the breakdown keeps the closed-form T4. At the
    returned T the contraction factor is <= 1/2 and the Duhamel sup term
    stays strictly inside alpha/2.
    """
    g = problem.gamma
    one_minus = 1.0 - g
    t3 = _power_or_inf((1.0 - _STRICT_MARGIN) * problem.alpha * one_minus / (2.0 * problem.k1 * problem.c_gamma),
                       1.0 / one_minus)
    t4 = _power_or_inf(one_minus / (2.0 * problem.k2 * problem.c_gamma), 1.0 / one_minus)

    def duhamel(k: float, t: float) -> float:
        return k * problem.c_gamma * t**one_minus / one_minus

    t = min(problem.t1, problem.t2, t3, t4)
    while duhamel(problem.k2, t) > 0.5:
        t = math.nextafter(t, 0.0)
    contraction = duhamel(problem.k2, t)
    sup_term = duhamel(problem.k1, t)
    return ParabolicLifespan(
        t=t,
        t1=problem.t1,
        t2=problem.t2,
        t3=t3,
        t4=t4,
        contraction_factor=contraction,
        ball_fraction=sup_term / (problem.alpha / 2.0),
    )
