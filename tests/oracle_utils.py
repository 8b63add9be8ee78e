"""Independent numerical oracles used as ground truth by the test suite.

Everything here deliberately avoids the closed forms under test: norms are
integrated numerically (adaptive QUADPACK through a different reduction, or
a plain tensor Simpson grid), the heat evolution is checked against direct
convolution with the Gaussian kernel, and suprema are brute-forced on dense
grids. The report encoder is checked against a plain recursive encoder.
It also holds what only the tests use: the pointwise vortex field
(``VortexGaussian``), the worst-case iteration of the recurrences, the
ground truth for their fixed-point bounds, and the Gauss-Laguerre builder
of the package's gradient-constant table (``python tests/oracle_utils.py``
rewrites the table).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Union

import numpy as np
from scipy import integrate

from nslifespan import initial_data
from nslifespan.constants import _check_delta
from nslifespan.errors import DomainError
from nslifespan.recurrence import CoupledRecurrence, HypothesisFailure, z_root

# iterates beyond this are reported as divergence (not an overflow crash)
_DIVERGENCE_CAP = 1e150


class VortexGaussian(initial_data.VortexGaussian):
    """The package's vortex with its pointwise field, which only tests evaluate.

    Heat evolution stays in this class, so an evolved vortex has the field too.
    """

    def evolve(self, t: float) -> "VortexGaussian":
        evolved = super().evolve(t)
        return evolved if evolved is self else VortexGaussian(evolved.d, evolved.sigma, evolved.amplitude)

    def scaled(self, factor: float) -> "VortexGaussian":
        return VortexGaussian(self.d, self.sigma, self.amplitude * factor)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Field values at points x of shape (..., d)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.d:
            raise DomainError(f"points must have last dimension {self.d}, got {x.shape}")
        g = np.exp(-np.sum(x * x, axis=-1) / (2.0 * self.sigma**2))
        out = np.zeros_like(x)
        out[..., 0] = -x[..., 1]
        out[..., 1] = x[..., 0]
        return self.amplitude * out * g[..., None]

    def magnitude(self, x: np.ndarray) -> np.ndarray:
        """Pointwise Euclidean magnitude |a(x)|."""
        x = np.asarray(x, dtype=float)
        rho = np.hypot(x[..., 0], x[..., 1])
        g = np.exp(-np.sum(x * x, axis=-1) / (2.0 * self.sigma**2))
        return self.amplitude * rho * g

    def gradient_frobenius(self, x: np.ndarray) -> np.ndarray:
        """Pointwise Frobenius norm of the Jacobian of a."""
        x = np.asarray(x, dtype=float)
        s2 = self.sigma**2
        rho2 = x[..., 0] ** 2 + x[..., 1] ** 2
        r2 = np.sum(x * x, axis=-1)
        g = np.exp(-r2 / (2.0 * s2))
        quad = 2.0 - 2.0 * rho2 / s2 + rho2 * r2 / (s2 * s2)
        return self.amplitude * g * np.sqrt(quad)


def sphere_area(m: int) -> float:
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


def lp_norm_quadrature(data: VortexGaussian, p: float) -> float:
    """Adaptive 2-D quadrature of |a|^p over the (planar, axial) radii."""
    d, s, amp = data.d, data.sigma, data.amplitude
    if amp == 0:
        return 0.0
    omega = sphere_area(d - 2)
    box = 14.0 * s

    def integrand(eta: float, r: float) -> float:
        return (amp * r) ** p * math.exp(-p * (r * r + eta * eta) / (2 * s * s)) * 2.0 * math.pi * r * omega * eta ** (d - 3)

    val, _ = integrate.dblquad(integrand, 0.0, box, 0.0, box, epsabs=1e-14, epsrel=1e-11)
    return val ** (1.0 / p)


def lp_norm_box_simpson(data: VortexGaussian, p: float, n: int = 241) -> float:
    """Full 3-D tensor Simpson over a truncated box (d = 3 only).

    Cross-validates the radial reduction; the Gaussian tail outside the box
    is below 1e-20 of the result at the default half-width.
    """
    assert data.d == 3
    s, amp = data.sigma, data.amplitude
    half = 10.0 * s
    axis = np.linspace(-half, half, n)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    rho = np.hypot(X, Y)
    g = np.exp(-(X * X + Y * Y + Z * Z) / (2 * s * s))
    f = (amp * rho * g) ** p
    val = integrate.simpson(integrate.simpson(integrate.simpson(f, x=axis), x=axis), x=axis)
    return val ** (1.0 / p)


def grad_norm_simpson(data: VortexGaussian, n: int = 4001) -> float:
    """Fixed Simpson grid for |grad a|_d in the reduced radii; independent of QUADPACK."""
    d, s, amp = data.d, data.sigma, data.amplitude
    if amp == 0:
        return 0.0
    omega = sphere_area(d - 2)
    box = 12.0
    r = np.linspace(0.0, box, n)
    eta = np.linspace(0.0, box, n)
    R, H = np.meshgrid(r, eta, indexing="ij")
    S2 = R * R + H * H
    quad = 2.0 - 2.0 * R * R + R * R * S2
    f = quad ** (d / 2.0) * np.exp(-d * S2 / 2.0) * 2.0 * math.pi * R * omega * H ** (d - 3)
    val = integrate.simpson(integrate.simpson(f, x=eta), x=r)
    return amp * s * val ** (1.0 / d)


def grad_unit_constant_dblquad(d: int) -> float:
    """|grad a|_d of the unit vortex by adaptive QUADPACK in the reduced radii.

    Integrates over the planar and axial radii (r, eta) directly, not the
    Gauss-Laguerre variables of the package. The box [0, 8]^2 drops a tail
    below 1e-30 of the result, since the integrand decays like
    exp(-d (r^2 + eta^2)/2).
    """
    omega = sphere_area(d - 2)

    def integrand(eta: float, r: float) -> float:
        s2 = r * r + eta * eta
        quad = 2.0 - 2.0 * r * r + r * r * s2
        return quad ** (d / 2.0) * math.exp(-d * s2 / 2.0) * 2.0 * math.pi * r * omega * eta ** (d - 3)

    val, _ = integrate.dblquad(integrand, 0.0, 8.0, 0.0, 8.0, epsabs=0.0, epsrel=1e-13)
    return val ** (1.0 / d)


def grad_unit_constant_even_exact(d: int) -> float:
    """|grad a|_d of the unit vortex for even d, from exact Gamma moments.

    With u = d r^2/2 and v = d eta^2/2 the integrand is Q^{d/2} e^{-u}
    v^{(d-4)/2} e^{-v}, Q = 2 - 4u/d + 4u^2/d^2 + 4uv/d^2, times
    2 pi omega_{d-2} d^{-2} (2/d)^{(d-4)/2}. For even d, Q^{d/2} is a
    polynomial: expand it by the multinomial theorem and integrate each
    term with Int u^k e^{-u} = k! and Int v^j e^{-v} = j!, in exact
    rational arithmetic.
    """
    m, alpha = d // 2, (d - 4) // 2
    total = Fraction(0)
    for a in range(m + 1):
        for b in range(m + 1 - a):
            for c in range(m + 1 - a - b):
                e = m - a - b - c
                multinomial = math.factorial(m) // (
                    math.factorial(a) * math.factorial(b) * math.factorial(c) * math.factorial(e)
                )
                coef = multinomial * 2**a * Fraction(-4, d) ** b * Fraction(4, d * d) ** (c + e)
                total += coef * math.factorial(b + 2 * c + e) * math.factorial(e + alpha)
    log_omega = math.log(2.0) + (d - 2) / 2.0 * math.log(math.pi) - math.lgamma((d - 2) / 2.0)
    log_value = (
        math.log(2.0 * math.pi) + log_omega - 2.0 * math.log(d) + alpha * math.log(2.0 / d)
        + math.log(total.numerator) - math.log(total.denominator)
    )
    return math.exp(log_value / d)


# -- the builder of the package's gradient-constant table ----------------------

# nodes of the gradient constant's product Gauss-Laguerre rule in the planar
# and the axial variable (see grad_unit_constant_gauss for why they differ)
GAUSS_NODES = 150
AXIAL_NODES = 64
_NEWTON_STEPS = 40  # Newton steps of each Gauss node; from its start it converges in a handful
GRAD_UNIT_TABLE = Path(initial_data.__file__).with_name("grad_unit_constants.json")


@lru_cache(maxsize=64)
def gauss_laguerre(n: int, alpha: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
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
    of these gives (``gauss_laguerre_single_loop``).

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


def grad_unit_constant_gauss(d: int) -> float:
    """|grad a|_d for the unit vortex (sigma = amplitude = 1), by a Gauss rule: one entry of the package's table.

    In the planar radius r and the axial radius eta, the d-th power of the
    Frobenius density is Q^{d/2} e^{-d (r^2 + eta^2)/2} with
    Q = 2 - 2 r^2 + r^2 (r^2 + eta^2) >= 1. With the angular factors
    2 pi r and omega_{d-2} eta^{d-3}, the substitution u = d r^2/2,
    v = d eta^2/2 turns |grad a|_d^d into

        2 pi omega_{d-2} d^{-2} (2/d)^{(d-4)/2} Int Int Q^{d/2} e^{-u} v^{(d-4)/2} e^{-v} du dv,

    a product generalized Gauss-Laguerre rule, summed as a double loop:
    GAUSS_NODES in u (alpha = 0) and AXIAL_NODES in v (alpha = (d-4)/2).
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
    is a DomainError.
    """
    u, wu = gauss_laguerre(GAUSS_NODES, 0.0)
    v, wv = gauss_laguerre(AXIAL_NODES, (d - 4) / 2.0)
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


def grad_unit_table_text(values: list[float]) -> str:
    """The text of the package's ``grad_unit_constants.json`` for the constants of d = 3, 4, ...

    ``python tests/oracle_utils.py`` writes it from ``grad_unit_constant_gauss``
    for d = 3..1023, in about 8 s.
    """
    payload = {
        "about": "|grad a|_d of the unit vortex (sigma = amplitude = 1) for d = first_d, first_d + 1, ...; "
                 "written by tests/oracle_utils.py (grad_unit_constant_gauss)",
        "first_d": 3,
        "values": values,
    }
    return json.dumps(payload, indent=1) + "\n"


def gauss_laguerre_golub_welsch(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight x^alpha e^{-x} / Gamma(alpha + 1), by an eigensolve.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    generalized Laguerre recurrence, polished by one Newton step on p_n
    (eigvalsh gives the smallest nodes only to an absolute 1e-13). The
    weight of node x is 1 / sum_k p_k(x)^2 over the orthonormal
    polynomials, from the recurrence rather than the eigenvectors, whose
    absolute 1e-32 loses the largest nodes' weights near 1e-250; the
    weights are then scaled to their exact sum 1.
    """
    k = np.arange(n + 1, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))  # off[j] links p_j and p_{j+1}
    nodes = np.linalg.eigvalsh(np.diag(diag[:n]) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    for polish in (True, False):
        p_prev, p, dp_prev, dp = 0.0, np.ones(n), 0.0, np.zeros(n)
        total = np.zeros(n)
        for j in range(n):
            total += p * p
            back = off[j - 1] if j else 0.0
            p_next = ((nodes - diag[j]) * p - back * p_prev) / off[j]
            dp_next = (p + (nodes - diag[j]) * dp - back * dp_prev) / off[j]
            p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
        if polish:
            nodes = nodes - p / dp
    weights = 1.0 / total
    return nodes, weights / weights.sum()


def gauss_laguerre_single_loop(n: int, alpha: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The package's Gauss-Laguerre rule as it was built before its passes were split.

    One ``pivots`` loop gives every pass the last pivot, its derivative, the
    Maehly rest, the count of nodes below x and the weight sum, and the
    first start is the gaulag guess, halved toward 0. For alpha <= 1 the
    package's lower turning point is not positive, so its split passes must
    give the same tuples, bit for bit.
    """
    steps = [(k + 1.0, k + alpha + 1.0, (k + 1.0) * (k + alpha + 1.0)) for k in range(n - 1)]

    def pivots(x):
        s, ds, rest, below, term, total = -x, -1.0, 0.0, 0, 1.0, 0.0
        for k, d_k, dl2 in steps:
            pivot = d_k + s
            rest += ds / pivot
            below += pivot < 0.0
            total += term
            term *= pivot * pivot / dl2
            ds = dl2 * ds / (pivot * pivot) - 1.0
            s = k * s / pivot - x
        pivot = n + alpha + s
        return pivot, ds, rest, below + (pivot < 0.0), total + term

    nodes, totals, last, gap = [], [], 0.0, 0.0
    x = (1.0 + alpha) * (3.0 + 0.92 * alpha) / (1.0 + 2.4 * n + 1.8 * alpha)
    for i in range(n):
        pivot, ds, rest, below, total = pivots(x)
        while below > i:
            x = 0.5 * (x + last)
            pivot, ds, rest, below, total = pivots(x)
        for _ in range(40):
            step = pivot / (ds + pivot * (rest - math.fsum(1.0 / (x - node) for node in nodes)))
            x -= step
            pivot, ds, rest, below, total = pivots(x)
            if abs(step) <= 1e-10 * x:
                break
        nodes.append(x)
        totals.append(total)
        gap, last, x = x - last, x, x + max(x - last, 2.0 * (x - last) - gap)
    norm = math.fsum(1.0 / total for total in totals)
    return tuple(nodes), tuple(1.0 / total / norm for total in totals)


def grad_unit_constant_scaled_quad(d: int) -> float:
    """|grad a|_d of the unit vortex for large d, by adaptive QUADPACK in the reduced radii.

    The integrand of ``grad_unit_constant_dblquad`` leaves the doubles at
    large d (omega_{d-2} underflows, Q^{d/2} and eta^{d-3} overflow), so it
    is taken in logarithms and divided by its value's scale at the peak
    (r, eta) = (0, 1), 2^{d/2} e^{-d/2} omega_{d-2}. The peak is narrow,
    about sqrt(2/(3d)) wide in r and 1/sqrt(2d) in eta, so the nested
    integrals get it as a breakpoint on the box [0, 4]^2, outside of which
    the integrand is below e^{-4d} of its peak.
    """
    log_omega = math.log(2.0) + (d - 2) / 2.0 * math.log(math.pi) - math.lgamma((d - 2) / 2.0)
    log_peak = (d / 2.0) * math.log(2.0) - d / 2.0 + log_omega
    width_r, width_eta = math.sqrt(2.0 / (3.0 * d)), math.sqrt(0.5 / d)

    def integrand(eta: float, r: float) -> float:
        if r == 0.0 or eta == 0.0:
            return 0.0
        s2 = r * r + eta * eta
        quad = 2.0 - 2.0 * r * r + r * r * s2
        log_f = (d / 2.0) * math.log(quad) - d * s2 / 2.0 + math.log(2.0 * math.pi * r) + log_omega + (d - 3) * math.log(eta)
        return math.exp(log_f - log_peak)

    def inner(r: float) -> float:
        val, _ = integrate.quad(
            integrand, 0.0, 4.0, args=(r,), points=[1.0 - 8.0 * width_eta, 1.0, 1.0 + 8.0 * width_eta],
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        return val

    val, _ = integrate.quad(inner, 0.0, 4.0, points=[8.0 * width_r], epsabs=0.0, epsrel=1e-13, limit=200)
    return math.exp((math.log(val) + log_peak) / d)


def grad_unit_constant_golub_welsch(d: int, n: int = 150) -> float:
    """|grad a|_d of the unit vortex by the package's product rule, with Golub-Welsch nodes and weights."""
    u, wu = gauss_laguerre_golub_welsch(n, 0.0)
    v, wv = gauss_laguerre_golub_welsch(n, (d - 4) / 2.0)
    u, v = u[:, None], v[None, :]
    q = 2.0 - 4.0 * u / d + 4.0 * u * (u + v) / (d * d)
    total = float(wu @ q ** (d / 2.0) @ wv)
    log_scale = math.log(4.0 / (d * d)) + (d / 2.0) * math.log(math.pi) + ((d - 4) / 2.0) * math.log(2.0 / d)
    return math.exp((log_scale + math.log(total)) / d)


def heat_kernel_1d(t: float, y: float) -> float:
    return (4.0 * math.pi * t) ** -0.5 * math.exp(-y * y / (4.0 * t))


def convolved_component(data: VortexGaussian, t: float, x: np.ndarray, component: int) -> float:
    """(heat kernel * a)_component at point x by factorized 1-D quadrature.

    Each vector component of the vortex is a product of 1-D profiles, and the
    d-dimensional Gaussian kernel factorizes, so the convolution is a product
    of 1-D convolutions evaluated adaptively.
    """
    assert component in (0, 1)
    d, s, amp = data.d, data.sigma, data.amplitude

    def conv_plain(xi: float) -> float:
        val, _ = integrate.quad(
            lambda y: heat_kernel_1d(t, xi - y) * math.exp(-y * y / (2 * s * s)),
            -np.inf,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        return val

    def conv_moment(xi: float) -> float:
        val, _ = integrate.quad(
            lambda y: heat_kernel_1d(t, xi - y) * y * math.exp(-y * y / (2 * s * s)),
            -np.inf,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        return val

    out = amp
    for axis in range(d):
        xi = float(x[axis])
        if component == 0 and axis == 1:
            out *= -conv_moment(xi)
        elif component == 1 and axis == 0:
            out *= conv_moment(xi)
        else:
            out *= conv_plain(xi)
    return out


def brute_force_weighted_sup(fn, T: float, n: int = 20001) -> float:
    """Dense log-grid supremum of a weighted norm over (0, T)."""
    hi = min(T, 1e8) if math.isfinite(T) else 1e8
    ts = np.geomspace(1e-10, hi, n)
    vals = np.array([fn(t) for t in ts])
    return float(vals.max())


def kato_norms_mpmath(data: VortexGaussian, delta: float, T: float, grad_unit: float) -> tuple[float, float]:
    """(K0(T), K0'(T)) of the vortex in 120-bit arithmetic, as mpmath numbers.

    This is the closed form of ``k0_exact``/``k0_prime_exact`` (which the
    quadrature oracles above validate) evaluated without rounding error, so
    it measures the rounding error of the double evaluators. The gradient
    unit constant ``grad_unit`` is taken as exact: the evaluators and their
    roots share it, so its own error scales both alike.
    """
    import mpmath

    with mpmath.workprec(120):
        d, dl = data.d, mpmath.mpf(delta)
        s2, amp = mpmath.mpf(data.sigma) ** 2, mpmath.mpf(data.amplitude)
        p = d / dl

        def evolved(t):
            w = s2 + 2 * t
            return w, amp * (s2 / w) ** (mpmath.mpf(d + 2) / 2)

        t = min(mpmath.mpf(T), (1 - dl) * s2 / (2 * d))
        w, amp_t = evolved(t)
        pp = (2 * mpmath.pi * w / p) ** (mpmath.mpf(d - 2) / 2) * mpmath.pi * mpmath.gamma(p / 2 + 1) * (2 * w / p) ** ((p + 2) / 2)
        k0 = t ** ((1 - dl) / 2) * amp_t * pp ** (1 / p)
        t = min(mpmath.mpf(T), s2 / (2 * d))
        w, amp_t = evolved(t)
        k0_prime = mpmath.sqrt(t) * amp_t * mpmath.sqrt(w) * mpmath.mpf(grad_unit)
        return +k0, +k0_prime


def k0_by_evolution(data: initial_data.VortexGaussian, delta: float, T: float) -> float:
    """``k0_exact`` as the composition of the evolved field and its L_p norm.

    t^{(1-delta)/2} |e^{t Lap} a|_{d/delta} at t = min(T, (1 - delta) sigma^2/(2d)),
    built with the package's ``evolve`` and ``lp_norm``. The evaluator
    computes the profile |a|_{d/delta} t^a (1 + 2t/sigma^2)^{-b} instead.
    """
    _check_delta(delta)
    if data.amplitude == 0:
        return 0.0
    if not T > 0:
        raise DomainError(f"horizon T must be positive, got {T}")
    t = min(T, (1.0 - delta) * data.sigma**2 / (2.0 * data.d))
    evolved = initial_data.VortexGaussian.evolve(data, t)
    return t ** ((1.0 - delta) / 2.0) * initial_data.lp_norm(evolved, data.d / delta)


def k0_prime_by_evolution(data: initial_data.VortexGaussian, T: float) -> float:
    """``k0_prime_exact`` as sqrt(t) |grad e^{t Lap} a|_d at t = min(T, sigma^2/(2d)), via the evolved field."""
    if data.amplitude == 0:
        return 0.0
    if not T > 0:
        raise DomainError(f"horizon T must be positive, got {T}")
    t = min(T, data.sigma**2 / (2.0 * data.d))
    return math.sqrt(t) * initial_data.grad_norm(initial_data.VortexGaussian.evolve(data, t))


# The Kato profile arithmetic as it stood before ``initial_data.KatoProfile``
# read norm0, a, b and t* once per (datum, delta): every value and root
# recomputes them. The profile must equal these bit for bit.
_REFERENCE_NEWTON_STEPS = 40


def reference_profile(d: int, delta: float, s2: float) -> tuple[float, float, float]:
    """(a, b, t*) of the profile norm0 t^a (1 + 2t/s2)^{-b}; DomainError when t* underflows to 0."""
    a, b = (1.0 - delta) / 2.0, (d + 1.0 - delta) / 2.0
    t_peak = a * s2 / (2.0 * (b - a))
    if not t_peak > 0.0:
        raise DomainError(f"the peak time of the weighted norm leaves the range of the doubles for sigma^2={s2}")
    return a, b, t_peak


def reference_weighted_norm(norm0: float, d: int, delta: float, s2: float, T: float) -> float:
    """norm0 t^a (1 + 2t/s2)^{-b} at t = min(T, t*); 0.0 at every T for norm0 = 0."""
    if norm0 == 0.0:
        return 0.0
    if not T > 0:
        raise DomainError(f"horizon T must be positive, got {T}")
    a, b, t_peak = reference_profile(d, delta, s2)
    t = min(T, t_peak)
    return norm0 * t**a * (1.0 + 2.0 * t / s2) ** -b


def reference_weighted_norm_root(norm0: float, d: int, delta: float, s2: float, y: float) -> float:
    """Largest T with reference_weighted_norm(..., T) <= y, by Newton's method in log T."""
    if norm0 == 0.0:
        return math.inf if y >= 0.0 else 0.0
    if y <= 0.0:
        return 0.0
    a, b, t_peak = reference_profile(d, delta, s2)
    if y >= reference_weighted_norm(norm0, d, delta, s2, t_peak):
        return math.inf
    if norm0 == math.inf:
        return 0.0
    log_ratio = math.log(y) - math.log(norm0)
    u_peak = math.log(t_peak)
    u = min(log_ratio / a, u_peak)
    for _ in range(_REFERENCE_NEWTON_STEPS):
        x = 2.0 * math.exp(u) / s2
        slope = a - b * x / (1.0 + x)
        if slope <= 0.0:
            break
        step = (log_ratio - a * u + b * math.log1p(x)) / slope
        u = min(u + step, u_peak)
        if abs(step) <= 1e-15 * max(1.0, abs(u)):
            break
    return max(math.exp(u), math.ulp(0.0))


def reference_peak_time(data: initial_data.VortexGaussian, delta: float) -> float:
    """The saturation time of the profile at delta (delta = 0 for K0'): inf for the zero field."""
    if data.amplitude == 0:
        return math.inf
    return reference_profile(data.d, delta, data.sigma * data.sigma)[2]


def canonical_dumps_recursive(obj: Any) -> str:
    """Reference for `nslifespan.jsonio.canonical_dumps`: the recursive encoder.

    Each value builds its own string from its children's strings, tested
    with isinstance in the order None, bool, int, float, str, list/tuple,
    dict. The package's single-pass encoder must match it byte for byte.
    """

    def format_float(x: float) -> str:
        if math.isnan(x):
            raise ValueError("NaN is not representable in a certificate report")
        if math.isinf(x):
            return '"infinity"' if x > 0 else '"-infinity"'
        return format(x, ".17g")

    def encode(obj: Any, level: int) -> str:
        pad = "  " * level
        pad_in = "  " * (level + 1)
        if obj is None:
            return "null"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, int):
            return str(obj)
        if isinstance(obj, float):
            return format_float(obj)
        if isinstance(obj, str):
            return json.dumps(obj, ensure_ascii=True)
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            items = [encode(v, level + 1) for v in obj]
            return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            keys = sorted(obj.keys())
            if any(not isinstance(k, str) for k in keys):
                raise TypeError("report keys must be strings")
            items = [
                pad_in + json.dumps(k, ensure_ascii=True) + ": " + encode(obj[k], level + 1)
                for k in keys
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        raise TypeError(f"unsupported type in report: {type(obj)!r}")

    return encode(obj, 0) + "\n"


# -- recurrences --------------------------------------------------------------


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


if __name__ == "__main__":  # regenerate the package's gradient-constant table
    text = grad_unit_table_text([grad_unit_constant_gauss(d) for d in range(3, 1024)])
    GRAD_UNIT_TABLE.write_text(text, encoding="utf-8")
