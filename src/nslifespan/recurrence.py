"""The coupled quadratic recurrence of the coupled route, on plain floats.

Lemma (start equal to offset). Let alpha1, alpha2, beta1, beta2 > 0 and let
nonnegative sequences with x_0 <= alpha1 and y_0 <= alpha2 obey

    x_{n+1} <= alpha1 + beta1 x_n y_n,    y_{n+1} <= alpha2 + beta2 x_n y_n.

Put det1 = alpha2 beta1 - alpha1 beta2, d1 = (det1 + 1)^2 - 4 alpha1 beta2
and d2 = (1 - det1)^2 - 4 alpha2 beta1. If d1 > 0 and d2 > 0, and the
reduced roots Zx = Z(alpha1, det1, beta2) and Zy = Z(alpha2, -det1, beta1)
lie above the starts, alpha1 < Zx and alpha2 < Zy, then x_n <= Zx and
y_n <= Zy for every n. Here Z(a, b, g) = (1 - b + sqrt((b - 1)^2 - 4 a g)) /
(2 g) is the larger root of a + b z + g z^2 = z.

The right-hand sides increase in x_n and y_n, so the equality dynamics
dominate every obedient sequence. Along them beta2 x - beta1 y = -det1
after one step, which reduces each component to the scalar recurrence
z_{n+1} = a + b z_n + g z_n^2 with the signed det1 in the linear slot; the
two reduced discriminants coincide, and d1 > 0, d2 > 0 put them above
4 |det1| >= 0, so the roots are real.

``reduced_system`` is the one place that arithmetic is written: the
coupled route's search reads its verdict, and ``coupled_bound`` the
intermediates a thm31 certificate stores. It restates det1 only where d1
or d2 overflows, since reduced_system then returns nothing. The test
suite's oracles (``tests/oracle_utils.py``) iterate the equality dynamics
from general starts.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["coupled_bound", "reduced_system"]

OFFSET_FLOOR = 1e-300  # (K0, K0') below it enter the system as this value


def _root(alpha: float, beta: float, gamma: float) -> float:
    disc = (beta - 1.0) ** 2 - 4.0 * alpha * gamma
    if disc < 0:
        raise DomainError(f"reduced discriminant {disc} < 0, no real root")
    return (1.0 - beta + math.sqrt(disc)) / (2.0 * gamma)


def reduced_system(
    alpha1: float, alpha2: float, beta1: float, beta2: float
) -> tuple[float, float, float, tuple[float, float] | None]:
    """(det1, d1, d2, roots) of the coupled system with these coefficients.

    roots is the pair (Zx, Zy) of reduced roots when d1 > 0 and d2 > 0, and
    None otherwise (a NaN d1 or d2 included); the roots are not computed
    then. Raises OverflowError when d1 or d2 overflows the doubles, and
    DomainError if a reduced discriminant rounds below 0. The coefficients
    are not validated: pass positive (or NaN) ones.
    """
    det1 = alpha2 * beta1 - alpha1 * beta2
    d1 = (det1 + 1.0) ** 2 - 4.0 * alpha1 * beta2
    d2 = (-det1 + 1.0) ** 2 - 4.0 * alpha2 * beta1
    if d1 > 0 and d2 > 0:
        return det1, d1, d2, (_root(alpha1, det1, beta2), _root(alpha2, -det1, beta1))
    return det1, d1, d2, None


def coupled_bound(k0: float, k0p: float, j1: float, j2: float) -> dict[str, float]:
    """The thm31 intermediates at (K0, K0') = (k0, k0p) with the constants (J1, J2).

    (k0, k0p), floored at OFFSET_FLOOR, fills both the offset and the start
    slots: alpha1 = x_0 = k0, alpha2 = y_0 = k0p, beta1 = j1, beta2 = j2.
    s1, s2, d1, d2 are det1, -det1, d1, d2, and v1, v2 the reduced roots,
    present only when the lemma's hypotheses hold. d1 and d2 are left out
    when they overflow the doubles, which fails those hypotheses. j1 and j2
    come from a stored certificate in replay, so a nonpositive one is a
    DomainError.
    """
    if min(j1, j2) <= 0:
        raise DomainError(f"coupled constants must be positive, got j1={j1!r}, j2={j2!r}")
    x0, y0 = max(k0, OFFSET_FLOOR), max(k0p, OFFSET_FLOOR)
    quantities = {"k0_at_t0": k0, "k0_prime_at_t0": k0p, "j1": j1, "j2": j2}
    try:
        det1, d1, d2, roots = reduced_system(x0, y0, j1, j2)
    except OverflowError:  # d1 or d2 is beyond the doubles: s1 and s2 only
        det1 = y0 * j1 - x0 * j2  # reduced_system's det1
        quantities.update(s1=det1, s2=-det1)
        return quantities
    quantities.update(s1=det1, s2=-det1, d1=d1, d2=d2)
    if roots is not None and x0 < roots[0] and y0 < roots[1]:
        quantities["v1"], quantities["v2"] = roots
    return quantities
