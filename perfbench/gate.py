"""Correctness gate, run outside the timed region.

A request fails when:

* it raises an error class its input does not call for (or a valid input
  raises at all);
* a feasible certificate fails ``replay_certificate``;
* a feasible certificate fails an independent re-evaluation of its
  certified inequality at t0, from the request's own data and
  ``composite_constants(d, delta)``;
* it is certifiable but the program loses feasibility, or its t0 falls
  below the reference horizon by more than ``REL_TOL``;
* a report's embedded fingerprint does not recompute, a mixed_norms
  report is not certified (the generated q lie where every exponent is
  admissible), or an abstract_parabolic lifespan is not min(T1..T4).

Vortex norms are computed here, not by the package: the L_p norm from its
Gamma-function closed form and the gradient norm from the unit constants
stored in grad_unit_constants.json, so a change to ``initial_data`` that
returns wrong norms moves the program's t0 but not the gate's.

The reference horizon comes from an oracle that repeats this commit's
search with exact evaluators: the heat-evolved vortex norm
t^w |e^{t Lap} a|_p is unimodal in t with its maximum at
t* = (1-delta) sigma^2/(2d) (t* = sigma^2/(2d) for the gradient), so
K0(T) = f(min(T, t*)) in closed form, and norm bundles have closed-form
bounds. The program's t0 agrees with the oracle to about 1e-9 relative at
this commit (its bisection tolerance); ``REL_TOL`` leaves a margin above
that. A horizon the oracle
puts within a factor ``FLOOR_SLACK`` of the search floor is not judged for
feasibility, so a later fix that certifies floor hits counts as a gain and
not as a failure.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Mapping

REL_TOL = 1e-6  # allowed shortfall of t0 below the oracle horizon
FLOAT_SLACK = 1e-12  # relative rounding allowance in re-evaluated inequalities
FLOOR_SLACK = 2.0
SEARCH = (1e-12, 1e12)
MARGIN = 1e-9  # the CLI's default absolute margin on the coupled route
GRAD_UNIT = {int(d): value for d, value in json.loads(
    (Path(__file__).resolve().parent / "grad_unit_constants.json").read_text(encoding="utf-8")).items()
    if d != "about"}

Evaluator = Callable[[float], float]


class GateFailure(Exception):
    """A request produced a wrong or unsound result."""


def require(cond: bool, message: str) -> None:
    """Raise GateFailure with the message unless cond holds."""
    if not cond:
        raise GateFailure(message)


# ---------------------------------------------------------------------------
# independent evaluators
# ---------------------------------------------------------------------------


def vortex_lp_norm(d: int, sigma: float, amplitude: float, p: float) -> float:
    """|a|_p of the vortex Gaussian: a planar moment times a Gaussian mass,

    |a|_p^p = amp^p (2 pi s^2/p)^{(d-2)/2} pi Gamma(p/2 + 1) (2 s^2/p)^{(p+2)/2}.
    """
    s2 = sigma * sigma
    log_pp = ((d - 2) / 2.0 * math.log(2.0 * math.pi * s2 / p) + math.log(math.pi)
              + math.lgamma(p / 2.0 + 1.0) + (p + 2) / 2.0 * math.log(2.0 * s2 / p))
    return amplitude * math.exp(log_pp / p)


def _evolved(d: int, sigma: float, amplitude: float, t: float) -> tuple[float, float]:
    """(sigma, amplitude) of e^{t Lap} a: width^2 grows by 2t, amplitude by (s^2/w^2)^{(d+2)/2}."""
    w2 = sigma * sigma + 2.0 * t
    return math.sqrt(w2), amplitude * (sigma * sigma / w2) ** ((d + 2) / 2.0)


def _vortex_evaluators(d: int, sigma: float, amplitude: float, delta: float):
    t_star = (1.0 - delta) * sigma * sigma / (2.0 * d)
    t_star_grad = sigma * sigma / (2.0 * d)
    weight = (1.0 - delta) / 2.0

    def k0(T: float) -> float:
        t = min(T, t_star)
        return t**weight * vortex_lp_norm(d, *_evolved(d, sigma, amplitude, t), d / delta)

    def k0p(T: float) -> float:
        t = min(T, t_star_grad)
        s, amp = _evolved(d, sigma, amplitude, t)
        return math.sqrt(t) * amp * s * GRAD_UNIT[d]

    return k0, k0p, True


def _bundle_evaluators(norms: Mapping, d: int, delta: float, cs):
    from nslifespan.initial_data import sharp_k0_norm_coefficient

    a_d = norms.get("lp_norms", {}).get(repr(float(d)))
    k0_parts: list[Evaluator] = []
    k0p_parts: list[Evaluator] = []
    if a_d is not None:
        k0_parts.append(lambda T: cs.s1 * a_d)
        k0p_parts.append(lambda T: cs.s2 * a_d)
    if "theta" in norms:
        theta = norms["theta"]
        coef = 2.0 ** (d + theta)
        sharp = sharp_k0_norm_coefficient(d, delta, theta)
        if sharp is not None:
            coef = min(coef, sharp)
        coef *= norms["norm_d_plus_theta"]
        power = theta * delta / (2.0 * d)
        k0_parts.append(lambda T: coef * T**power)
    if "grad_d_norm" in norms:
        grad = norms["grad_d_norm"]
        k0p_parts.append(lambda T: math.sqrt(T) * grad)
    finite = a_d is not None
    return (lambda T: min(p(T) for p in k0_parts),
            lambda T: min(p(T) for p in k0p_parts), finite)


def _evaluators(config: Mapping, delta: float, cs):
    d = int(config["d"])
    data = config["data"]
    if "family" in data:
        k0, k0p, finite = _vortex_evaluators(d, float(data["sigma"]), float(data["amplitude"]), delta)
    else:
        k0, k0p, finite = _bundle_evaluators(data["norms"], d, delta, cs)
    if config["mode"] == "forced":
        from nslifespan.extensions import (ForceNorm, force_contribution_k0,
                                           force_contribution_k0_prime)

        force = config["force"]
        f1 = ForceNorm(force["k0"]["theta"], force["k0"]["lambda"], force["k0"]["value"])
        f2 = ForceNorm(force["k0_prime"]["theta"], force["k0_prime"]["lambda"],
                       force["k0_prime"]["value"])
        c1 = force_contribution_k0(d, delta, f1).coefficient
        c2 = force_contribution_k0_prime(d, f2).coefficient
        base0, base1 = k0, k0p
        k0 = lambda T: base0(T) + c1  # noqa: E731
        k0p = lambda T: base1(T) + c2  # noqa: E731
    return k0, k0p, finite


# ---------------------------------------------------------------------------
# certified inequalities
# ---------------------------------------------------------------------------


def _coupled_holds(k0: float, k0p: float, cs, margin: float) -> bool:
    """The coupled fixed-point hypotheses with (K0, K0') in both slots."""
    j1, j2 = cs.j1, cs.j2
    s = j1 * k0p - j2 * k0
    d1 = (s + 1.0) ** 2 - 4.0 * k0 * j2
    d2 = (1.0 - s) ** 2 - 4.0 * k0p * j1
    if d1 <= 0 or d2 <= 0:
        return False
    v1 = (1.0 - s + math.sqrt((s - 1.0) ** 2 - 4.0 * k0 * j2)) / (2.0 * j2)
    v2 = (1.0 + s + math.sqrt((s + 1.0) ** 2 - 4.0 * k0p * j1)) / (2.0 * j1)
    return v1 - k0 > margin and v2 - k0p > margin


def _condition(mode: str, k0: Evaluator, k0p: Evaluator, cs, margin: float, slack: float):
    if mode == "thm31":
        return lambda T: _coupled_holds(max(k0(T), 1e-300), max(k0p(T), 1e-300), cs, margin)
    return lambda T: max(k0(T), k0p(T)) <= cs.threshold * (1.0 + slack)


def _oracle_t0(ok: Callable[[float], bool], finite_at_inf: bool) -> float | None:
    """The horizon this commit's search certifies when run on exact evaluators.

    The search scans down from the top of the range by factors of 8 to the
    first feasible point, then bisects geometrically between it and the
    scan point above. The coupled-route feasibility is not monotone in T,
    so this is not always the largest feasible T; a search that finds a
    larger one passes the gate. None when even the floor is infeasible.
    """
    lo, hi = SEARCH
    if finite_at_inf and ok(math.inf):
        return math.inf
    if ok(hi):
        return hi
    t = hi
    while True:
        if t <= lo:
            return None
        above, t = t, max(t / 8.0, lo)
        if ok(t):
            break
    lo, hi = t, above
    while hi - lo > 1e-14 * lo:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _delta_of(config: Mapping) -> list[float]:
    if "delta_grid" in config:
        return [float(x) for x in config["delta_grid"]]
    from nslifespan.constants import DELTA0

    return [float(config.get("delta", DELTA0))]


def check_certificate(config: Mapping, cert: Mapping) -> str:
    """Gate one certificate-mode report; returns the search branch taken.

    The branch is "infinity", "bisection", "floor", "infeasible" or
    "closed_form" (thm41_explicit and global_test, which do not search).
    """
    from nslifespan.constants import composite_constants
    from nslifespan.lifespan import replay_certificate

    mode = config["mode"]
    d = int(config["d"])
    t0, feasible = float(cert["t0"]), bool(cert["feasible"])
    if feasible:
        replay = replay_certificate(cert)
        failed = [name for name, ok, _ in replay.results if not ok]
        require(replay.all_passed, f"replay failed: {failed}")

    # the oracle horizon over the request's deltas, and the soundness of t0
    best = None
    for delta in _delta_of(config):
        cs = composite_constants(d, delta)
        ref = _reference(config, mode, delta, cs)
        if ref is not None and (best is None or ref > best):
            best = ref
    if feasible:
        delta_used = float(cert["delta_used"])
        require(delta_used in _delta_of(config), f"delta_used {delta_used} not requested")
        require(_sound(config, mode, delta_used, t0, composite_constants(d, delta_used)),
               f"{mode}: certified inequality fails at t0={t0!r} (delta={delta_used!r})")
    searched = mode not in ("thm41_explicit", "global_test")
    if best is not None and (best >= FLOOR_SLACK * SEARCH[0] or not searched):
        require(feasible, f"{mode}: infeasible, oracle horizon {best!r}")
        require(t0 >= best * (1.0 - REL_TOL), f"{mode}: t0={t0!r} below oracle horizon {best!r}")

    if not searched:
        return "closed_form"
    if not feasible:
        floor = any("floor" in note for note in cert.get("notes", ()))
        return "floor" if floor else "infeasible"
    return "infinity" if math.isinf(t0) else "bisection"


def _reference(config: Mapping, mode: str, delta: float, cs) -> float | None:
    if mode == "global_test":
        return math.inf if _a_d(config) <= cs.threshold / max(cs.s1, cs.s2) else None
    if mode == "thm41_explicit":
        return _explicit_t0(config["data"]["norms"], int(config["d"]), delta, cs.threshold)
    k0, k0p, finite = _evaluators(config, delta, cs)
    return _oracle_t0(_condition(mode, k0, k0p, cs, MARGIN, 0.0), finite)


def _sound(config: Mapping, mode: str, delta: float, t0: float, cs) -> bool:
    if mode == "global_test":
        return math.isinf(t0) and _a_d(config) <= cs.threshold / max(cs.s1, cs.s2)
    if mode == "thm41_explicit":
        norms = config["data"]["norms"]
        d = int(config["d"])
        limit = cs.threshold * (1.0 + FLOAT_SLACK)
        ok = True
        if "theta" in norms and math.isfinite(t0):
            ok &= t0 ** (norms["theta"] * delta / (2.0 * d)) * 2.0 ** (d + norms["theta"]) \
                * norms["norm_d_plus_theta"] <= limit
        if "grad_d_norm" in norms and math.isfinite(t0):
            ok &= math.sqrt(t0) * norms["grad_d_norm"] <= limit
        return ok
    k0, k0p, finite = _evaluators(config, delta, cs)
    if math.isinf(t0) and not finite:
        return False
    return _condition(mode, k0, k0p, cs, 0.0, FLOAT_SLACK)(t0)


def _a_d(config: Mapping) -> float:
    d = int(config["d"])
    data = config["data"]
    if "family" in data:
        return vortex_lp_norm(d, float(data["sigma"]), float(data["amplitude"]), float(d))
    return float(data["norms"]["lp_norms"][repr(float(d))])


def _explicit_t0(norms: Mapping, d: int, delta: float, threshold: float) -> float:
    """min over the bundle's terms of (threshold/denominator)^exponent, capped at 1e300."""
    terms = []
    if "theta" in norms:
        terms.append((2.0 ** (d + norms["theta"]) * norms["norm_d_plus_theta"],
                      2.0 * d / (norms["theta"] * delta)))
    if "grad_d_norm" in norms:
        terms.append((norms["grad_d_norm"], 2.0))
    values = []
    for denom, exponent in terms:
        if denom == 0:
            values.append(math.inf)
            continue
        log_t = exponent * (math.log(threshold) - math.log(denom))
        values.append(1e300 if log_t >= math.log(1e300) else math.exp(log_t))
    return min(values)


# ---------------------------------------------------------------------------
# whole reports
# ---------------------------------------------------------------------------


def check_report(config: Mapping, report: Mapping, certified: bool) -> str:
    """Gate one report of a valid request; returns the branch taken."""
    from nslifespan.jsonio import fingerprint

    body = {k: v for k, v in report.items() if k != "fingerprint"}
    require(report["fingerprint"] == fingerprint(body), "embedded fingerprint does not recompute")
    mode = config["mode"]
    result = report["result"]
    if mode == "mixed_norms":
        require(certified, "mixed_norms report not certified")
        for _, value in result["psi_profile"] + result["nu_profile"]:
            require(math.isfinite(value) and value > 0, f"mixed-norm bound {value!r}")
        return "closed_form"
    if mode == "abstract_parabolic":
        block = config["abstract_parabolic"]
        one_minus = 1.0 - block["gamma"]
        t3 = (0.99 * block["alpha"] * one_minus / (2.0 * block["k1"] * block["c_gamma"])) ** (1.0 / one_minus)
        t4 = (one_minus / (2.0 * block["k2"] * block["c_gamma"])) ** (1.0 / one_minus)
        expected = min(block["t1"], block["t2"], t3, t4)
        # at T = T4 the contraction factor is 1/2 up to rounding, so the
        # report may go either way there
        require(certified or expected == t4, "abstract_parabolic report not certified")
        require(abs(result["lifespan"] - expected) <= 1e-12 * expected,
               f"lifespan {result['lifespan']!r} != min(T1..T4) = {expected!r}")
        return "closed_form"
    cert = result["certificate"]
    branch = check_certificate(config, cert)
    replay_ok = report["verification"]["all_passed"]
    require(certified == (bool(cert["feasible"]) and replay_ok), "certified flag disagrees with the report")
    return branch


def check_rejection(expect: str | None, exc: BaseException) -> str:
    """Gate a request that raised; returns the branch name "rejected"."""
    name = type(exc).__name__
    if expect is None:
        raise GateFailure(f"valid input raised {name}: {exc}")
    require(name == expect, f"expected {expect}, got {name}: {exc}")
    return "rejected"
