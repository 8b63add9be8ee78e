"""Lifespan certification: largest T for which the weighted-norm inequality
systems close, emitted as replayable certificates.

Two routes are implemented, each with one search over T. The coupled route
keeps the sharp product constants J1(d, delta), J2(d, delta) and certifies
a T where the coupled fixed-point hypotheses hold with K0(T), K0'(T) in both
the offset and the start slots: a downward scan from T = 1e12 by factors of
8 seeds a geometric bisection to relative width 1e-9, and a hit on the floor
T = 1e-12 is reported in the notes. That feasibility need not be monotone in
T, and a feasible island above an infeasible scan point is not looked for.
Once T = infinity has failed, no T at or above the time from which both
evaluators repeat their values at infinity (``KatoEvaluator.saturation``)
is probed: it would fail the same way. Neither route has a setting. The
envelope route collapses the system to one variable:
max(K0(T), K0'(T)) <= 3/(16 Jbar) = C2/d^2
certifies T and bounds every Picard iterate by 3/(4 Jbar) = C3/d^2. K0 and
K0' are nondecreasing in T, so one exact bisection over the doubles finds
the largest T that passes. Where the evaluators can be inverted
(``KatoEvaluator.root``), the inverses at threshold (1 -+ eps) bracket that
T within a few thousand ulps; once a probe at each end confirms the
bracket, the bisection probes only the binding evaluator inside it, and
returns the same double as the unbracketed one.

A certificate records the producing inequalities with their evaluated
sides. ``_derived_checks`` derives them from t0, delta_used and the
intermediates; every certifier builds its checks with it, and
``replay_certificate`` calls it again on the stored values, so a stored
check that does not restate its intermediates fails replay. The coupled
arithmetic has one source, ``recurrence.reduced_system``: the search takes
only its verdict, on plain floats (``_coupled_feasible``), and the
intermediates at t0 and in replay come from one function,
``_coupled_quantities``, through ``CoupledRecurrence`` and
``coupled_bound``. Replay needs only the stored numbers, so a report can be
re-validated in a process that never constructs the original evaluators.
"""

from __future__ import annotations

import math
import struct
import sys
from typing import Callable, Mapping, Sequence

from . import initial_data as idmod
from .constants import C3_DISCREPANCY_NOTE, ConstantSet, composite_constants
from .errors import DomainError, UnavailableBoundError
from .recurrence import CoupledRecurrence, coupled_bound, reduced_system

__all__ = [
    "KatoEvaluator",
    "KatoBoundState",
    "InequalityCheck",
    "LifespanCertificate",
    "DeltaSweep",
    "state_from_vortex",
    "state_from_norms",
    "theorem31_bound",
    "theorem41_bound",
    "theorem41_explicit",
    "optimize_delta",
    "global_smallness_threshold",
    "global_certificate",
    "thm31_feasible_at",
    "thm41_feasible_at",
    "replay_certificate",
    "ReplayReport",
]

_COUPLED_FLOOR, _COUPLED_TOP = 1e-12, 1e12  # the coupled route's search range
_COUPLED_TOL = 1e-9  # relative width of the coupled route's final bisection bracket
_COUPLED_MARGIN = 1e-9  # absolute slack of the coupled route's v1 - k0 and v2 - k0'
_DOUBLE = struct.Struct("<d")  # with _INT64, maps a double to its bit pattern and back
_INT64 = struct.Struct("<q")
# Relative half-width of the inversion bracket around the envelope threshold.
# Every answer the bracket gives without a probe is the one a probe would
# give while the evaluators' relative error stays below _BRACKET_EPS / 4;
# the vortex evaluators stay below 4e-15 (tests/test_lifespan.py, mpmath).
_BRACKET_EPS = 1e-13
_EXPLICIT_SHRINK = 1.0 - 1e-12  # keeps closed-form replay margins nonnegative
_TINY = 1e-300


class KatoEvaluator:
    """A nondecreasing map T -> weighted-norm bound, with its infinity status.

    ``finite_at_infinity`` declares whether the T -> infinity limit is a
    finite number; the infinity branch of the solvers is only attempted when
    both evaluators of a state declare it. The optional ``root(y)``
    approximates the largest T with fn(T) <= y: inf when y is at or above
    the supremum, and 0.0 only when fn exceeds y (up to rounding) at every
    positive T. Searches confirm any other answer by a probe.
    ``saturation`` is a time from which on fn(T) is bit for bit fn(inf),
    or inf where none is known; the coupled route does not probe past it.
    On vortex data fn clamps T to the profile's peak time and the
    saturation is that same double (``initial_data.KatoProfile.t_peak``); the
    vortex root is inf exactly where y is at or above fn at the peak.
    """

    __slots__ = ("fn", "finite_at_infinity", "root", "saturation")

    def __init__(
        self,
        fn: Callable[[float], float],
        finite_at_infinity: bool,
        root: Callable[[float], float] | None = None,
        saturation: float = math.inf,
    ) -> None:
        self.fn = fn
        self.finite_at_infinity = finite_at_infinity
        self.root = root
        self.saturation = saturation

    def __call__(self, t: float) -> float:
        if math.isinf(t) and not self.finite_at_infinity:
            return math.inf
        return self.fn(t)

    def shifted(self, c: float) -> "KatoEvaluator":
        """The evaluator T -> fn(T) + c for a constant c >= 0, with the same saturation.

        For y < c the root is 0.0 (from the base root at y - c < 0), which
        is exact: fl(fn(T) + c) >= c > y.
        """
        base_fn, base_root = self.fn, self.root
        return KatoEvaluator(
            lambda T: base_fn(T) + c,
            self.finite_at_infinity,
            None if base_root is None else lambda y: base_root(y - c),
            self.saturation,
        )


class KatoBoundState:
    """Evaluators for K0(T), K0'(T) plus the constants of the pair (d, delta)."""

    __slots__ = ("d", "delta", "k0", "k0_prime", "constants", "notes")

    def __init__(
        self,
        d: int,
        delta: float,
        k0: KatoEvaluator,
        k0_prime: KatoEvaluator,
        constants: ConstantSet,
        notes: tuple[str, ...] = (),
    ) -> None:
        self.d = d
        self.delta = delta
        self.k0 = k0
        self.k0_prime = k0_prime
        self.constants = constants
        self.notes = notes


def state_from_vortex(data: idmod.VortexGaussian, delta: float) -> KatoBoundState:
    """Exact evaluators from the closed-form vortex evolution, saturating at the peak times they clamp to."""
    constants = composite_constants(data.d, delta)
    k0, k0_prime = idmod.k0_exact(data, delta), idmod.k0_prime_exact(data)
    return KatoBoundState(
        d=data.d,
        delta=delta,
        k0=KatoEvaluator(k0, True, k0.root, k0.t_peak),
        k0_prime=KatoEvaluator(k0_prime, True, k0_prime.root, k0_prime.t_peak),
        constants=constants,
        notes=(f"vortex_gaussian d={data.d} sigma={data.sigma} amplitude={data.amplitude}",),
    )


def state_from_norms(bundle: idmod.NormBundle, d: int, delta: float) -> KatoBoundState:
    """Bound evaluators assembled from a norm bundle.

    Each evaluator is the least of the bounds (``idmod.PowerBound``) that
    the bundle supports: for K0 the T-uniform cap S1 |a|_d and the
    extra-integrability power bound with the smaller of the crude and the
    sharp coefficient, for K0' the cap S2 |a|_d and sqrt(T) |grad a|_d. The
    notes name each bound used. At least one bound per component must be
    available.
    """
    constants = composite_constants(d, delta)
    a_d = bundle.lp_norms.get(float(d))
    k0_bounds, k0p_bounds = [], []
    if a_d is not None:
        note = "k0 bound includes the T-uniform envelope S1*|a|_d"
        k0_bounds.append(idmod.PowerBound(constants.s1 * a_d, note=note))
    if bundle.theta is not None:
        k0_bounds.append(idmod.k0_norm_bound(bundle, d, delta, sharp=True))
    if not k0_bounds:
        raise UnavailableBoundError("bundle supports no K0 bound (need |a|_d or a theta norm)")
    if a_d is not None:
        note = "k0' bound includes the T-uniform envelope S2*|a|_d"
        k0p_bounds.append(idmod.PowerBound(constants.s2 * a_d, note=note))
    if bundle.grad_d_norm is not None:
        k0p_bounds.append(idmod.k0_prime_norm_bound(bundle))
    if not k0p_bounds:
        raise UnavailableBoundError("bundle supports no K0' bound (need |a|_d or the gradient norm)")

    # only the caps stay finite as T -> infinity
    return KatoBoundState(
        d=d,
        delta=delta,
        k0=_least_bound(k0_bounds, a_d is not None),
        k0_prime=_least_bound(k0p_bounds, a_d is not None),
        constants=constants,
        notes=tuple(bound.note for bound in (*k0_bounds, *k0p_bounds)),
    )


def _least_bound(bounds: Sequence[idmod.PowerBound], finite_at_infinity: bool) -> KatoEvaluator:
    """The evaluator T -> the least of the bounds.

    It is <= y exactly where some bound is, so its root is the largest bound root.
    """
    return KatoEvaluator(
        lambda T: min(bound(T) for bound in bounds),
        finite_at_infinity,
        lambda y: max(bound.root(y)[0] for bound in bounds),
    )


class InequalityCheck:
    """One certified inequality lhs <relation> rhs, relation "<" or "<=", with its evaluated sides.

    Equal checks have equal fields; replay compares the stored checks with
    the derived ones.
    """

    __slots__ = ("name", "lhs", "relation", "rhs")

    def __init__(self, name: str, lhs: float, relation: str, rhs: float) -> None:
        self.name = name
        self.lhs = lhs
        self.relation = relation
        self.rhs = rhs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not InequalityCheck:
            return NotImplemented
        return (self.name, self.lhs, self.relation, self.rhs) == (other.name, other.lhs, other.relation, other.rhs)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        if self.relation == "<":
            return self.lhs < self.rhs
        return self.lhs <= self.rhs

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "relation": self.relation, "rhs": self.rhs}

    @classmethod
    def from_dict(cls, data: Mapping) -> "InequalityCheck":
        return cls(str(data["name"]), float(data["lhs"]), str(data["relation"]), float(data["rhs"]))


class LifespanCertificate:
    """A certified lifespan lower bound with everything needed to replay it.

    ``theorem`` is one of thm31, thm41, thm41-explicit and global. Equal
    certificates have equal fields: a certificate read back from its dict
    equals the one written.
    """

    __slots__ = ("t0", "theorem", "delta_used", "intermediate", "iterate_bound", "feasible", "checks", "notes")

    def __init__(
        self,
        t0: float,
        theorem: str,
        delta_used: float,
        intermediate: Mapping[str, float],
        iterate_bound: float | None,
        feasible: bool,
        checks: tuple[InequalityCheck, ...],
        notes: tuple[str, ...] = (),
    ) -> None:
        self.t0 = t0
        self.theorem = theorem
        self.delta_used = delta_used
        self.intermediate = intermediate
        self.iterate_bound = iterate_bound
        self.feasible = feasible
        self.checks = checks
        self.notes = notes

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LifespanCertificate:
            return NotImplemented
        return [getattr(self, name) for name in self.__slots__] == [getattr(other, name) for name in self.__slots__]

    def to_dict(self) -> dict:
        return {
            "t0": self.t0,
            "theorem": self.theorem,
            "delta_used": self.delta_used,
            "intermediate": dict(sorted(self.intermediate.items())),
            "iterate_bound": self.iterate_bound,
            "feasible": self.feasible,
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LifespanCertificate":
        return cls(
            t0=float(data["t0"]),
            theorem=str(data["theorem"]),
            delta_used=float(data["delta_used"]),
            intermediate={str(k): float(v) for k, v in data["intermediate"].items()},
            iterate_bound=None if data.get("iterate_bound") is None else float(data["iterate_bound"]),
            feasible=bool(data["feasible"]),
            checks=tuple(InequalityCheck.from_dict(c) for c in data["checks"]),
            notes=tuple(str(n) for n in data.get("notes", ())),
        )


class DeltaSweep:
    """Result of certifying over a delta grid: the winner plus the (delta, t0, feasible) profile."""

    __slots__ = ("best", "profile")

    def __init__(self, best: LifespanCertificate, profile: tuple[tuple[float, float, bool], ...]) -> None:
        self.best = best
        self.profile = profile


# ---------------------------------------------------------------------------
# feasibility probes
# ---------------------------------------------------------------------------


def _coupled_quantities(k0: float, k0p: float, j1: float, j2: float) -> dict[str, float]:
    """The coupled route's intermediates at (K0, K0') = (k0, k0p), at t0 and in replay.

    (k0, k0p), floored at _TINY, fills both the offset and the start slots
    of the ``CoupledRecurrence`` with the constants (J1, J2); s1, s2, d1, d2
    are its det1, det2, d1, d2, and v1, v2 the bounds of ``coupled_bound``,
    present only when its hypotheses hold. d1 and d2 are left out when they
    overflow the doubles, which fails those hypotheses.
    """
    x0, y0 = max(k0, _TINY), max(k0p, _TINY)
    rec = CoupledRecurrence(alpha1=x0, alpha2=y0, beta1=j1, beta2=j2, x0=x0, y0=y0)
    res = coupled_bound(rec)
    quantities = {"k0_at_t0": k0, "k0_prime_at_t0": k0p, "j1": j1, "j2": j2, "s1": rec.det1, "s2": rec.det2}
    try:
        quantities.update(d1=rec.d1, d2=rec.d2)
    except OverflowError:
        pass
    if res.ok:
        quantities["v1"], quantities["v2"] = res.x_bound, res.y_bound
    return quantities


def _coupled_feasible(k0: float, k0p: float, j1: float, j2: float) -> bool:
    """The coupled route's verdict at (K0, K0') = (k0, k0p), from plain floats.

    It is the verdict that ``_coupled_quantities`` gives, v1 and v2 present
    with v1 - k0 and v2 - k0p above _COUPLED_MARGIN, from the same
    ``reduced_system`` arithmetic without its objects: a margin above 0
    puts the start values below the positive roots. Constants come
    positive from ``composite_constants``, so the recurrence needs no
    validation.
    """
    x0, y0 = max(k0, _TINY), max(k0p, _TINY)
    try:
        roots = reduced_system(x0, y0, j1, j2)[2]
    except OverflowError:
        return False
    return roots is not None and roots[0] - k0 > _COUPLED_MARGIN and roots[1] - k0p > _COUPLED_MARGIN


def thm31_feasible_at(state: KatoBoundState, T: float) -> bool:
    """Whether the coupled-route inequalities hold at horizon T."""
    return _coupled_feasible(state.k0(T), state.k0_prime(T), state.constants.j1, state.constants.j2)


def _envelope_probe(state: KatoBoundState, T: float):
    k0 = state.k0(T)
    k0p = state.k0_prime(T)
    threshold = state.constants.threshold
    detail = {
        "k0_at_t0": k0,
        "k0_prime_at_t0": k0p,
        "k_zero_sup": max(k0, k0p),
        "threshold": threshold,
        "j_bar": state.constants.j_bar,
    }
    return max(k0, k0p) <= threshold, detail


def thm41_feasible_at(state: KatoBoundState, T: float) -> bool:
    """Whether the one-variable envelope threshold holds at horizon T."""
    ok, _ = _envelope_probe(state, T)
    return ok


# ---------------------------------------------------------------------------
# horizon search
# ---------------------------------------------------------------------------


def _largest_feasible(feasible: Callable[[float], bool], saturated: float = math.inf):
    """A feasible T in [1e-12, 1e12] found by downward scan plus geometric bisection.

    Returns (t_best, scan_notes) with t_best = None when nothing in the
    range is feasible. The scan steps down from 1e12 by factors of 8 to the
    first feasible seed. Bisection then runs between the seed and the last
    infeasible scan point until the bracket's relative width is at most
    1e-9, and returns its feasible end. Feasibility below the seed is not
    probed, and one above the last infeasible scan point is not looked for.
    A bracket spans at most a factor of 8 inside the range, so lo * hi
    stays a normal double and the bisection ends after 31 midpoints.

    Every T at or above ``saturated`` is taken to fail without a probe:
    the caller passes a finite value only where feasibility there is the
    failed verdict at T = infinity. The scan points, the bracket and the
    result are the ones that probing them gives.
    """
    probe = lambda T: T < saturated and feasible(T)
    if probe(_COUPLED_TOP):
        return _COUPLED_TOP, ["feasible at the search-range end; larger horizons were not explored"]

    hi = _COUPLED_TOP
    while True:
        lo = max(hi / 8.0, _COUPLED_FLOOR)
        if probe(lo):
            break
        if lo == _COUPLED_FLOOR:
            return None, [
                f"no feasible horizon found down to the search floor {_COUPLED_FLOOR}; "
                "the tolerance floor was hit"
            ]
        hi = lo

    while hi - lo > _COUPLED_TOL * lo:
        mid = math.sqrt(lo * hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo, []


def _largest_double(ok: Callable[[float], bool], bracket: tuple[float, float] = (0.0, math.inf)) -> float:
    """Largest positive double T with ok(T), or 0.0 when none passes.

    ok must hold on an interval (0, T*] of the doubles and fail above it.
    Positive doubles sort like their int64 bit patterns, so bisecting the
    patterns between 0.0 (taken to pass) and +inf (taken to fail) ends on
    two adjacent doubles after 63 halvings. The bracket (lo, hi) must hold
    T* in [lo, hi): a midpoint at or below lo is taken to pass and one at
    or above hi to fail, without a probe, so only the midpoints strictly
    inside the bracket are probed and the result is the same double.
    """
    below, above = (_INT64.unpack(_DOUBLE.pack(t))[0] for t in bracket)
    lo, hi = 0, 0x7FF0000000000000  # the bit patterns of 0.0 and +inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid <= below or (mid < above and ok(_DOUBLE.unpack(_INT64.pack(mid))[0])):
            lo = mid
        else:
            hi = mid
    return _DOUBLE.unpack(_INT64.pack(lo))[0]


def _bracket_hi(evaluators: Sequence[KatoEvaluator], threshold: float) -> float:
    """Smallest root at threshold (1 + eps), one double up, kept if its evaluator is >= threshold (1 + eps/2) there.

    Otherwise (a rejected, infinite or NaN root) +inf. The step keeps
    subnormal roots, which round by more than eps. A root of 0.0 is kept
    without a probe: that evaluator exceeds threshold (1 + eps) at every T,
    far more than rounding above the threshold.
    """
    his = [e.root(threshold * (1.0 + _BRACKET_EPS)) for e in evaluators]
    hi = min(his)
    if hi == 0.0:
        return hi
    e, hi = evaluators[his.index(hi)], math.nextafter(hi, math.inf)
    return hi if hi < math.inf and e(hi) >= threshold * (1.0 + _BRACKET_EPS / 2.0) else math.inf


def _bracket_lo(e: KatoEvaluator, threshold: float) -> float:
    """The root at threshold (1 - eps), one double down, kept if e is <= threshold (1 - eps/2) there, else 0.0."""
    lo = math.nextafter(e.root(threshold * (1.0 - _BRACKET_EPS)), 0.0)
    return lo if lo > 0.0 and e(lo) <= threshold * (1.0 - _BRACKET_EPS / 2.0) else 0.0


# ---------------------------------------------------------------------------
# certifiers
# ---------------------------------------------------------------------------


def _derived_checks(theorem: str, t0: float, delta: float, inter: Mapping) -> tuple[InequalityCheck, ...]:
    """The inequalities of a feasible certificate, from its t0, delta_used and intermediates.

    Every certifier builds its checks here, and ``replay_certificate``
    derives them again from the stored values, so a stored check can only
    restate its intermediates. thm31 and thm41 restate the probe at t0 and
    global the smallness test; thm41-explicit evaluates at t0 the norm bound
    of each term it stores (none at t0 = infinity).
    """
    if theorem == "thm31":
        return (
            InequalityCheck("k0_below_v1", inter["k0_at_t0"], "<", inter["v1"]),
            InequalityCheck("k0_prime_below_v2", inter["k0_prime_at_t0"], "<", inter["v2"]),
            InequalityCheck("d1_positive", 0.0, "<", inter["d1"]),
            InequalityCheck("d2_positive", 0.0, "<", inter["d2"]),
        )
    if theorem == "thm41":
        return (InequalityCheck("k_zero_below_threshold", inter["k_zero_sup"], "<=", inter["threshold"]),)
    if theorem == "global":
        return (InequalityCheck("a_norm_below_epsilon", inter["a_d_norm"], "<=", inter["epsilon"]),)
    if theorem != "thm41-explicit":
        raise DomainError(f"unknown theorem {theorem!r}")
    if not math.isfinite(t0):
        return ()
    theta_term = "term_theta" in inter
    norms = idmod.NormBundle(
        {},
        grad_d_norm=inter["grad_d_norm"] if "term_grad" in inter else None,
        theta=inter["theta"] if theta_term else None,
        norm_d_plus_theta=inter["norm_d_plus_theta"] if theta_term else None,
    )
    return tuple(
        InequalityCheck(check, bound(t0), "<=", inter["threshold"])
        for _, check, _, bound in _explicit_terms(norms, int(inter["d"]), delta)
    )


def _feasible_certificate(theorem, t0, delta, intermediate, iterate_bound, notes) -> LifespanCertificate:
    checks = _derived_checks(theorem, t0, delta, intermediate)
    return LifespanCertificate(t0, theorem, delta, intermediate, iterate_bound, True, checks, tuple(notes))


def _infeasible_certificate(theorem, delta, intermediate, notes) -> LifespanCertificate:
    # a NaN intermediate (inf - inf where a bound overflowed) has no report encoding
    intermediate = {name: value for name, value in intermediate.items() if value == value}
    return LifespanCertificate(0.0, theorem, delta, intermediate, None, False, (), tuple(notes))


def theorem31_bound(state: KatoBoundState) -> LifespanCertificate:
    """Largest certifiable horizon via the coupled fixed-point route.

    At a feasible T the pair (K0(T), K0'(T)) sits strictly below the coupled
    bounds (V1, V2) built from itself with the sharp constants J1, J2, by
    more than the absolute margin 1e-9, which the certificate stores; d1 > 0
    and d2 > 0 are certified with no margin. If the inequalities hold
    at T = infinity (declared-finite evaluators only) the infinite branch is
    certified directly. Otherwise the scan skips every T at or above the
    later saturation time of the two evaluators, where the verdict is the
    failed one at infinity. The search sees only the verdict of
    ``_coupled_feasible``; the intermediates are built by
    ``_coupled_quantities`` once, at the certified T, or at the floor 1e-12
    when no T is feasible.
    """
    feasible = lambda T: thm31_feasible_at(state, T)
    at_infinity = state.k0.finite_at_infinity and state.k0_prime.finite_at_infinity
    if at_infinity and feasible(math.inf):
        t0, notes = math.inf, ["inequalities hold at T = infinity; solution is global"]
    else:
        saturated = max(state.k0.saturation, state.k0_prime.saturation) if at_infinity else math.inf
        t0, notes = _largest_feasible(feasible, saturated)
    T = _COUPLED_FLOOR if t0 is None else t0
    q = _coupled_quantities(state.k0(T), state.k0_prime(T), state.constants.j1, state.constants.j2)
    if t0 is None:
        return _infeasible_certificate("thm31", state.delta, q, (*notes, *state.notes))
    intermediate = {**q, "margin": _COUPLED_MARGIN}
    return _feasible_certificate(
        "thm31", t0, state.delta, intermediate, max(q["v1"], q["v2"]), (*notes, *state.notes)
    )


def theorem41_bound(state: KatoBoundState) -> LifespanCertificate:
    """Largest horizon with max(K0(T), K0'(T)) <= 3/(16 Jbar) = C2/d^2.

    T = infinity is tried first, unless a finite T is already known to
    fail; otherwise t0 is the largest passing double (the maximum is
    nondecreasing in T), and t0 = 0 is infeasible.

    When both evaluators have a root, the exact bisection over the doubles
    runs in an inversion bracket, eps = _BRACKET_EPS. Its hi is the smaller
    root at threshold (1 + eps) (``_bracket_hi``); each evaluator E has a lo,
    its root at threshold (1 - eps) (``_bracket_lo``), and is probed only
    above it; the bracket's lo is the smaller one. Each root is stepped one
    double outward, one probe confirms each end, and an end that its probe
    rejects falls back to 0.0 or +inf. With the evaluators' relative error
    below eps/4, every midpoint at or below a
    lo passes and every one at or above hi fails, just as a probe finds, so
    t0 is the same double as without the bracket, found by probing only the
    evaluator that binds, a few thousand ulps around its root. Without roots
    the bisection probes K0' and K0 at all 63 levels.

    The certificate stores the Picard iterate bound 3/(4 Jbar) = C3/d^2 and
    carries the c3 reference-discrepancy note.
    """
    cs = state.constants
    notes = ()
    if not (cs.delta0 <= state.delta <= 1.0 - cs.delta0):
        notes = (
            "envelope max(j_up1, j_up2) at this delta exceeds the critical-point "
            "envelope Jbar; the threshold is certified against Jbar, which is "
            "only a valid product-constant majorant for delta in "
            "[delta0, 1 - delta0]",
        )
    threshold = cs.threshold
    evaluators = (state.k0_prime, state.k0)  # K0' first: on vortex data it is the cheaper evaluator
    inverted = all(e.root is not None for e in evaluators)
    hi = _bracket_hi(evaluators, threshold) if inverted else math.inf
    # a finite hi fails, and so does T = infinity
    if hi == math.inf and all(e.finite_at_infinity for e in evaluators):
        ok, detail = _envelope_probe(state, math.inf)
        if ok:
            notes = ("threshold holds at T = infinity; solution is global", *notes)
            return _thm41_certificate(math.inf, state, detail, notes)
    los = [_bracket_lo(e, threshold) if inverted and hi > 0.0 else 0.0 for e in evaluators]
    # each evaluator passes without a probe at T <= its lo
    t0 = _largest_double(
        lambda T: all(T <= lo or e(T) <= threshold for e, lo in zip(evaluators, los)), (min(los), hi)
    )
    if t0 > 0.0:
        return _thm41_certificate(t0, state, _envelope_probe(state, t0)[1], notes)
    notes = ("no positive double passes max(K0, K0') <= threshold; intermediates at T = 5e-324", *notes)
    detail = _envelope_probe(state, math.ulp(0.0))[1]
    return _infeasible_certificate("thm41", state.delta, detail, (*notes, *state.notes))


def _thm41_certificate(t0, state, detail, notes):
    cs = state.constants
    intermediate = {**detail, "c2_over_d2": cs.c2 / (cs.d * cs.d), "iterate_bound": cs.iterate_bound}
    notes = (*notes, C3_DISCREPANCY_NOTE, *state.notes)
    return _feasible_certificate("thm41", t0, state.delta, intermediate, cs.iterate_bound, notes)


def _explicit_terms(norms: idmod.NormBundle, d: int, delta: float) -> list:
    """thm41-explicit's terms as (term, check, note, bound): the crude K0 bound and the gradient bound, no caps."""
    terms = []
    if norms.theta is not None:
        bound = idmod.k0_norm_bound(norms, d, delta, sharp=False)
        terms.append(("term_theta", "k0_norm_bound_at_t0", "theta-norm term present", bound))
    if norms.grad_d_norm is not None:
        bound = idmod.k0_prime_norm_bound(norms)
        terms.append(("term_grad", "k0_prime_norm_bound_at_t0", "gradient term present", bound))
    return terms


def theorem41_explicit(norms: idmod.NormBundle, d: int, delta: float) -> LifespanCertificate:
    """Closed-form horizon from the norm bounds, no iteration.

    T0 = min( [C2 d^-2 / (2^{d+theta} |a|_{d+theta})]^{2d/(theta delta)},
              [C2 d^-2 / |grad a|_d]^2 )
    over whichever terms the bundle supports: the roots at the threshold
    of the crude ``idmod.k0_norm_bound`` and of ``idmod.k0_prime_norm_bound``.
    A hair of relative shrink (1e-12) keeps the replayed threshold margins
    nonnegative after the power-law round trip. The inversion exponent
    2d/(theta delta) can reach the hundreds, so a root is capped at 1e300
    (downward, hence sound) instead of overflowing. A term below the
    smallest normal double is 0.0, since the shrink is lost to rounding
    there.
    """
    cs = composite_constants(d, delta)
    threshold = cs.threshold
    terms: dict[str, float] = {}
    notes: list[str] = []
    for term, _, note, bound in _explicit_terms(norms, d, delta):
        value, capped = bound.root(threshold)
        terms[term] = value if value >= sys.float_info.min else 0.0
        notes.append(note + (" (capped at 1e300)" if capped else ""))
    if not terms:
        raise UnavailableBoundError(
            "explicit bound needs a theta norm or the gradient norm; the bundle has neither"
        )

    t0 = min(terms.values())
    if math.isfinite(t0):
        t0 *= _EXPLICIT_SHRINK

    intermediate: dict[str, float] = {"threshold": threshold, "d": float(d), **terms}
    if math.isfinite(t0):  # the norms that the checks at t0 read
        if norms.theta is not None:
            intermediate.update(theta=norms.theta, norm_d_plus_theta=norms.norm_d_plus_theta)
        if norms.grad_d_norm is not None:
            intermediate["grad_d_norm"] = norms.grad_d_norm
    return _feasible_certificate(
        "thm41-explicit", t0, delta, intermediate, cs.iterate_bound, (*notes, C3_DISCREPANCY_NOTE)
    )


def optimize_delta(certify: Callable[[float], LifespanCertificate], grid: Sequence[float]) -> DeltaSweep:
    """Run a per-delta certifier over a grid and keep the best certificate.

    The winner is the feasible certificate with the largest t0; ties in t0
    go to the smallest delta, so the winner does not depend on the grid
    order. The full (delta, t0, feasible) profile is returned in grid order
    alongside the winner.
    """
    grid = tuple(grid)
    if not grid:
        raise DomainError("delta grid must be nonempty")
    for dlt in grid:
        if not (0.0 < dlt < 1.0):
            raise DomainError(f"grid delta {dlt} outside (0, 1)")

    certs = [certify(dlt) for dlt in grid]
    _, best = max(zip(grid, certs), key=lambda pair: (pair[1].feasible, pair[1].t0, -pair[0]))
    if not best.feasible:
        best = LifespanCertificate(
            best.t0,
            best.theorem,
            best.delta_used,
            best.intermediate,
            best.iterate_bound,
            best.feasible,
            best.checks,
            best.notes + ("all deltas on the grid were infeasible",),
        )
    return DeltaSweep(best=best, profile=tuple((dlt, c.t0, c.feasible) for dlt, c in zip(grid, certs)))


def global_smallness_threshold(d: int, delta: float) -> float:
    """Largest epsilon with |a|_d <= epsilon certifying a global solution.

    The T-uniform envelopes give max(K0, K0') <= max(S1, S2) |a|_d, so
    epsilon = C2 / (d^2 max(S1, S2)) pushes the data under the envelope
    threshold for every horizon at once.
    """
    cs = composite_constants(d, delta)
    return cs.threshold / max(cs.s1, cs.s2)


def global_certificate(a_d_norm: float, d: int, delta: float) -> LifespanCertificate:
    """Certificate for the smallness test |a|_d <= epsilon (t0 = infinity)."""
    if a_d_norm < 0 or not math.isfinite(a_d_norm):
        raise DomainError(f"|a|_d must be finite and nonnegative, got {a_d_norm}")
    cs = composite_constants(d, delta)
    eps = global_smallness_threshold(d, delta)
    intermediate = {
        "a_d_norm": a_d_norm,
        "epsilon": eps,
        "s1": cs.s1,
        "s2": cs.s2,
        "threshold": cs.threshold,
    }
    if a_d_norm <= eps:
        return _feasible_certificate("global", math.inf, delta, intermediate, cs.iterate_bound, ())
    note = f"|a|_d exceeds the global-smallness threshold by the factor {a_d_norm / eps:.6g}"
    return _infeasible_certificate("global", delta, intermediate, (note,))


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


class ReplayReport:
    """Result of re-validating a certificate from its stored intermediates."""

    __slots__ = ("all_passed", "results")

    def __init__(self, all_passed: bool, results: tuple[tuple[str, bool, str], ...]) -> None:
        self.all_passed = all_passed
        self.results = results


# the intermediates that every feasible certificate of a theorem stores; a
# thm41-explicit certificate also stores its terms and the norms its checks read
_STORED_INTERMEDIATES = {
    "thm31": ("k0_at_t0", "k0_prime_at_t0", "j1", "j2", "s1", "s2", "d1", "d2", "v1", "v2", "margin"),
    "thm41": ("k0_at_t0", "k0_prime_at_t0", "k_zero_sup", "threshold", "j_bar", "c2_over_d2", "iterate_bound"),
    "thm41-explicit": ("threshold", "d"),
    "global": ("a_d_norm", "epsilon", "s1", "s2", "threshold"),
}
# the replayed thm31 quantities, in row order, with the identity each row states
_COUPLED_IDENTITIES = (
    ("s1", "s1 = j1*k0' - j2*k0"),
    ("s2", "s2 = -s1"),
    ("v1", "v1 = Z(k0, s1, j2)"),
    ("v2", "v2 = Z(k0', s2, j1)"),
    ("d1", "d1 from (s1+1)^2 - 4 k0 j2"),
    ("d2", "d2 from (s2+1)^2 - 4 k0' j1"),
)


def replay_certificate(cert: LifespanCertificate | Mapping) -> ReplayReport:
    """Re-check every stored inequality and re-derive it from the intermediates.

    Each stored check is re-checked from its own sides. The checks are then
    derived again from t0, delta_used and the intermediates, by the function
    that built them, and stored checks that differ from the derived ones add
    the failing row ``derived:checks``. The identity rows tie the
    intermediates together: thm31 recomputes s1, s2, v1, v2, d1 and d2 from
    (k0, k0', j1, j2) as its search did, and thm41-explicit re-evaluates its
    norm bounds at t0. A missing or non-numeric stored value is a failing
    row, never an exception.

    Works from the stored numbers alone (plus the closed-form constant
    identities), so a consumer that cannot rebuild the original evaluators
    can still validate the certificate; nothing ties the numbers to (d,
    delta) or to the data.
    """
    if not isinstance(cert, LifespanCertificate):
        try:
            cert = LifespanCertificate.from_dict(cert)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            return ReplayReport(False, (("certificate", False, f"unreadable certificate: {exc!r}"),))
    results: list[tuple[str, bool, str]] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        results.append((name, bool(passed), detail))

    def close(a: float, b: float, tol: float = 1e-9) -> bool:
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    inter = cert.intermediate
    if not cert.feasible:
        record("feasible", False, "certificate marked infeasible")
        return ReplayReport(False, tuple(results))

    for check in cert.checks:
        record(f"check:{check.name}", check.passed, f"margin={check.margin:.6g}")

    names = {*_STORED_INTERMEDIATES.get(cert.theorem, ()), *inter}
    unusable = sorted(k for k in names if not isinstance(inter.get(k), (int, float)))
    if unusable:
        record("intermediates", False, f"missing or not a number: {', '.join(unusable)}")
        return ReplayReport(False, tuple(results))
    try:
        derived = _derived_checks(cert.theorem, cert.t0, cert.delta_used, inter)
        if derived != tuple(cert.checks):
            record("derived:checks", False, "stored checks differ from those the intermediates give")
        if cert.theorem == "thm31":
            q = _coupled_quantities(inter["k0_at_t0"], inter["k0_prime_at_t0"], inter["j1"], inter["j2"])
            for name, formula in _COUPLED_IDENTITIES:
                record(f"identity:{name}", name in q and close(q[name], inter[name]), formula)
        elif cert.theorem == "thm41":
            record(
                "identity:threshold",
                close(inter["threshold"], 3.0 / (16.0 * inter["j_bar"])),
                "threshold = 3/(16 j_bar)",
            )
            record(
                "identity:iterate_bound",
                cert.iterate_bound is not None and close(cert.iterate_bound, 4.0 * inter["threshold"]),
                "iterate bound = 4 * threshold = 3/(4 j_bar)",
            )
            record(
                "identity:k_zero_sup",
                close(inter["k_zero_sup"], max(inter["k0_at_t0"], inter["k0_prime_at_t0"])),
                "k_zero_sup = max(k0, k0')",
            )
        elif cert.theorem == "thm41-explicit":
            for check in derived:
                record(f"reevaluate:{check.name.removesuffix('_at_t0')}", check.passed, f"lhs={check.lhs:.6g}")
        elif cert.theorem == "global":
            record(
                "identity:epsilon",
                close(inter["epsilon"], inter["threshold"] / max(inter["s1"], inter["s2"])),
                "epsilon = threshold / max(s1, s2)",
            )
    except (KeyError, TypeError, ValueError, ArithmeticError, DomainError, UnavailableBoundError) as exc:
        record("intermediates", False, f"cannot derive the checks from the intermediates: {exc!r}")

    all_passed = all(p for _, p, _ in results)
    return ReplayReport(all_passed, tuple(results))
