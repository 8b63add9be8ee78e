import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_utils as oracle
from nslifespan import initial_data as idmod
from nslifespan.constants import DELTA0, composite_constants, default_delta_grid
from nslifespan.errors import DomainError, UnavailableBoundError
from nslifespan.extensions import ForceNorm, forced_lifespan, matching_lambda_k0, matching_lambda_k0_prime
from nslifespan.initial_data import (
    NormBundle,
    VortexGaussian,
    _grad_unit_constant,
    k0_exact,
    k0_prime_exact,
    lp_norm,
    norm_bundle_from_vortex,
)
from nslifespan.jsonio import canonical_dumps, decode_infinities
from nslifespan.lifespan import (
    _BRACKET_EPS,
    _COUPLED_MARGIN,
    _coupled_feasible,
    _coupled_quantities,
    _derived_checks,
    _largest_double,
    _largest_feasible,
    _least_bound,
    InequalityCheck,
    KatoBoundState,
    KatoEvaluator,
    LifespanCertificate,
    global_certificate,
    global_smallness_threshold,
    optimize_delta,
    replay_certificate,
    state_from_norms,
    state_from_vortex,
    theorem31_bound,
    theorem41_bound,
    theorem41_explicit,
    thm31_feasible_at,
    thm41_feasible_at,
)
from nslifespan.recurrence import CoupledRecurrence
from oracle_utils import ScalarRecurrence, fixed_point_bound, iterate_worst_case


def vortex_with_a3(target_a3: float, sigma: float = 1.0) -> VortexGaussian:
    unit = VortexGaussian(3, sigma, 1.0)
    return VortexGaussian(3, sigma, target_a3 / lp_norm(unit, 3.0))


@pytest.fixture(scope="module")
def eps3() -> float:
    return global_smallness_threshold(3, DELTA0)


class TestTheorem41:
    def test_threshold_value_d3(self):
        cs = composite_constants(3, DELTA0)
        assert cs.threshold == pytest.approx(0.00036967, abs=1e-8)

    def test_constant_evaluator_below_threshold_gives_infinity(self):
        cs = composite_constants(3, DELTA0)
        ev = KatoEvaluator(lambda T: 0.5 * cs.threshold, True)
        state = KatoBoundState(3, DELTA0, ev, ev, cs)
        cert = theorem41_bound(state)
        assert cert.t0 == math.inf and cert.feasible
        assert replay_certificate(cert).all_passed

    def test_small_vortex_global(self, eps3):
        data = vortex_with_a3(0.5 * eps3)
        cert = theorem41_bound(state_from_vortex(data, DELTA0))
        assert cert.t0 == math.inf
        assert cert.iterate_bound == pytest.approx(4.0 * composite_constants(3, DELTA0).threshold)

    def test_large_vortex_finite_with_postcondition(self, eps3):
        data = vortex_with_a3(1000.0 * eps3)
        state = state_from_vortex(data, DELTA0)
        cert = theorem41_bound(state)
        assert cert.feasible and 0.0 < cert.t0 < math.inf
        assert thm41_feasible_at(state, cert.t0)
        assert not thm41_feasible_at(state, math.nextafter(cert.t0, math.inf))
        assert replay_certificate(cert).all_passed
        # the certificate carries the reference-value discrepancy note
        assert any("0.0133308333" in note for note in cert.notes)

    def test_monotone_in_amplitude(self, eps3):
        t0s = []
        for factor in np.geomspace(0.5, 1000.0, 8):
            cert = theorem41_bound(state_from_vortex(vortex_with_a3(factor * eps3), DELTA0))
            t0s.append(cert.t0)
        for earlier, later in zip(t0s, t0s[1:]):
            assert later <= earlier

    def test_lemma1_consistency(self):
        # feeding the envelope threshold into the scalar bound with the
        # envelope constant in the quadratic slot returns the iterate bound,
        # and the extremal trajectory respects it
        for d in range(3, 9):
            cs = composite_constants(d, DELTA0)
            rec = ScalarRecurrence(cs.threshold, 0.0, cs.j_bar, cs.threshold)
            res = fixed_point_bound(rec)
            assert res.ok
            assert res.value == pytest.approx(cs.iterate_bound, rel=1e-12)
            traj = iterate_worst_case(rec, 10_000)
            assert traj.sup <= res.value + 1e-12

    def test_envelope_validity_note_for_extreme_delta(self, eps3):
        state = state_from_vortex(vortex_with_a3(0.5 * eps3), 0.05)
        cert = theorem41_bound(state)
        assert any("critical-point envelope" in note for note in cert.notes)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("delta", [DELTA0, 1.0 - DELTA0])
    def test_no_validity_note_at_the_window_ends(self, d, delta):
        # j exceeds j_bar by one rounding at delta0 for d = 3 and 5
        cert = theorem41_bound(state_from_vortex(VortexGaussian(d, 1.0, 1.0), delta))
        assert not any("critical-point envelope" in note for note in cert.notes)


class TestTheorem31:
    def test_small_vortex_global(self, eps3):
        data = vortex_with_a3(0.1 * eps3)
        cert = theorem31_bound(state_from_vortex(data, DELTA0))
        assert cert.t0 == math.inf and cert.feasible
        assert replay_certificate(cert).all_passed

    def test_large_vortex_finite(self, eps3):
        data = vortex_with_a3(1000.0 * eps3)
        state = state_from_vortex(data, DELTA0)
        cert = theorem31_bound(state)
        assert cert.feasible and 0.0 < cert.t0 < math.inf
        assert thm31_feasible_at(state, cert.t0)
        assert not thm31_feasible_at(state, cert.t0 * (1 + 10 * 1e-9))
        assert replay_certificate(cert).all_passed

    def test_sharper_than_envelope_route(self, eps3):
        # the coupled route keeps the sharp constants, so it certifies at
        # least as much horizon on this family
        data = vortex_with_a3(500.0 * eps3)
        state = state_from_vortex(data, DELTA0)
        t_coupled = theorem31_bound(state).t0
        t_envelope = theorem41_bound(state).t0
        assert t_coupled >= t_envelope

    def test_monotone_shrinkage(self, eps3):
        t0s = [
            theorem31_bound(state_from_vortex(vortex_with_a3(f * eps3), DELTA0)).t0
            for f in (50.0, 500.0, 5000.0)
        ]
        assert t0s[0] >= t0s[1] >= t0s[2]
        assert t0s[2] > 0

    def test_coupled_consistency_of_intermediates(self, eps3):
        data = vortex_with_a3(2000.0 * eps3)
        state = state_from_vortex(data, DELTA0)
        cert = theorem31_bound(state)
        inter = cert.intermediate
        rec = CoupledRecurrence(
            alpha1=inter["k0_at_t0"],
            alpha2=inter["k0_prime_at_t0"],
            beta1=inter["j1"],
            beta2=inter["j2"],
            x0=inter["k0_at_t0"],
            y0=inter["k0_prime_at_t0"],
        )
        traj = iterate_worst_case(rec, 10_000)
        assert traj.sup[0] <= inter["v1"] + 1e-12
        assert traj.sup[1] <= inter["v2"] + 1e-12
        assert not traj.diverged

    def test_feasible_at_tiny_horizon(self, rng, eps3):
        # a positive horizon is certifiable down at the floor for data of
        # moderate size; K0 decays only like T^{(1-delta)/2}, so very large
        # data with delta near 1 pushes feasibility below any fixed floor
        # (covered by test_infeasible_range_returns_zero_certificate)
        for _ in range(10):
            data = VortexGaussian(3, float(rng.uniform(0.7, 1.5)), float(rng.uniform(0.1, 2.0)))
            state = state_from_vortex(data, float(rng.uniform(0.2, 0.5)))
            assert thm31_feasible_at(state, 1e-12)

    def test_bisection_agrees_with_grid_scan(self, eps3):
        # independent check of the search itself: a dense horizon grid finds
        # the same feasibility frontier the bisection certifies
        data = vortex_with_a3(800.0 * eps3)
        state = state_from_vortex(data, DELTA0)
        cert = theorem31_bound(state)
        ts = np.geomspace(cert.t0 / 50.0, cert.t0 * 50.0, 400)
        feasible_ts = [t for t in ts if thm31_feasible_at(state, float(t))]
        frontier = max(feasible_ts)
        # grid resolution is ~2% in log space
        assert cert.t0 == pytest.approx(frontier, rel=0.05)
        assert cert.t0 >= frontier * (1 - 0.05)

    def test_infeasible_range_returns_zero_certificate(self):
        # the frontier of this sharp vortex lies below the search floor 1e-12
        state = state_from_vortex(VortexGaussian(3, 1e-3, 5e6), DELTA0)
        cert = theorem31_bound(state)
        assert cert.t0 == 0.0 and not cert.feasible
        assert any("floor" in note for note in cert.notes)
        assert not replay_certificate(cert).all_passed


class TestLargestFeasible:
    """Scan-and-bisect search on synthetic probes: horizon, notes and probe order."""

    SCAN = [1e12 / 8**k for k in range(27)]  # every scan point above the floor 1e-12

    @pytest.mark.parametrize(
        "feasible, expected_t0, expected_notes, expected_scan, expected_midpoints",
        [
            pytest.param(
                lambda T: True, 1e12,
                ["feasible at the search-range end; larger horizons were not explored"],
                SCAN[:1], 0,
                id="feasible-at-t-hi",
            ),
            pytest.param(
                lambda T: False, None,
                ["no feasible horizon found down to the search floor 1e-12; the tolerance floor was hit"],
                [*SCAN, 1e-12], 0,
                id="floor-hit",
            ),
            pytest.param(
                lambda T: T <= 3.0, 2.9999999982928265,
                [],
                SCAN[:14], 31,
                id="monotone-frontier",
            ),
            pytest.param(
                lambda T: T <= 1e-12, 1e-12,
                [],
                [*SCAN, 1e-12], 31,
                id="seed-at-floor",
            ),
        ],
    )
    def test_probe_sequence(self, feasible, expected_t0, expected_notes, expected_scan, expected_midpoints):
        probes = []

        def probe(T):
            probes.append(T)
            return feasible(T)

        t0, notes = _largest_feasible(probe)
        assert t0 == expected_t0
        assert list(notes) == expected_notes
        scan, midpoints = probes[: len(expected_scan)], probes[len(expected_scan):]
        assert scan == expected_scan
        assert len(midpoints) == expected_midpoints
        if midpoints:
            # the bisection starts from the seed and the last infeasible scan point
            lo, hi = scan[-1], scan[-2]
            for mid in midpoints:
                assert lo < mid < hi
                lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
            assert t0 == lo and hi - lo <= 1e-9 * lo

    @pytest.mark.parametrize("saturated", [1e-12, 2.0, 3.0, 100.0, 1e12, 1e13])
    def test_saturated_points_fail_without_a_probe(self, saturated):
        # at and above saturated the verdict is the failed one at infinity
        feasible = lambda T: T <= 3.0 and T < saturated
        probes, skipping = [], []
        expected = _largest_feasible(lambda T: probes.append(T) or feasible(T))
        assert _largest_feasible(lambda T: skipping.append(T) or feasible(T), saturated) == expected
        assert skipping == [T for T in probes if T < saturated]


class TestLargestDouble:
    """Exact bisection over the doubles on synthetic predicates T <= x."""

    @pytest.mark.parametrize("x", [5e-324, 1e-310, 1e-12, 1.0, 1e300, sys.float_info.max])
    def test_returns_the_largest_passing_double(self, x):
        probes = []

        def ok(T):
            probes.append(T)
            return T <= x

        assert _largest_double(ok) == x
        assert len(probes) <= 63
        assert all(0.0 < T < math.inf for T in probes)

    def test_nothing_passes(self):
        assert _largest_double(lambda T: False) == 0.0

    @pytest.mark.parametrize("x", [1e-310, 1e-12, 1.0, 1e300])
    @pytest.mark.parametrize("ulps", [0, 1, 1000])
    def test_bracket_probes_only_inside(self, x, ulps):
        lo, hi = x, math.nextafter(x, math.inf)
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        probes = []

        def ok(T):
            probes.append(T)
            return T <= x

        assert _largest_double(ok, (lo, hi)) == x
        assert all(lo < T < hi for T in probes)
        assert len(probes) <= max(1, math.ceil(math.log2(2 * ulps + 1)) + 1)

    def test_empty_bracket_at_zero_probes_nothing(self):
        assert _largest_double(lambda T: pytest.fail("probed"), (0.0, 0.0)) == 0.0


def _vortex(d, log_sigma, log_amplitude):
    return VortexGaussian(d, 10.0**log_sigma, 10.0**log_amplitude)


def _forces(d, delta, u1, u2, value1, value2):
    # theta1 in (d/(1+delta), d) and theta2 in (d/2, d) give admissible
    # force exponents for the matching lambdas
    theta1 = d / (1.0 + delta) + u1 * (d - d / (1.0 + delta))
    theta2 = d / 2.0 + u2 * d / 2.0
    return (ForceNorm(theta1, matching_lambda_k0(d, delta, theta1), value1),
            ForceNorm(theta2, matching_lambda_k0_prime(d, theta2), value2))


def _shifted(state, cert):
    """The state forced_lifespan solved: both evaluators shifted by the force coefficients."""
    c1, c2 = cert.intermediate["force_k0_coefficient"], cert.intermediate["force_k0_prime_coefficient"]
    return _with_evaluators(
        state,
        KatoEvaluator(lambda T: state.k0(T) + c1, state.k0.finite_at_infinity),
        KatoEvaluator(lambda T: state.k0_prime(T) + c2, state.k0_prime.finite_at_infinity),
    )


def _with_evaluators(state, k0, k0_prime):
    """The state with its evaluators replaced."""
    return KatoBoundState(state.d, state.delta, k0, k0_prime, state.constants, state.notes)


def _assert_largest_passing_double(state, cert):
    if cert.feasible and math.isfinite(cert.t0):
        assert thm41_feasible_at(state, cert.t0)
        assert not thm41_feasible_at(state, math.nextafter(cert.t0, math.inf))
        assert replay_certificate(cert).all_passed
    if not cert.feasible:
        assert cert.t0 == 0.0
        assert not any("floor" in note for note in cert.notes)


VORTEX_DRAWS = dict(
    d=st.integers(3, 5),
    log_sigma=st.floats(-2.0, 1.0),
    log_amplitude=st.floats(-3.0, 3.0),
    delta=st.floats(0.05, 0.95),
)


class TestEnvelopeHorizonIsLargestDouble:
    """thm41 and forced certify the largest double that passes, at every scale."""

    @settings(max_examples=60, deadline=None)
    @given(**VORTEX_DRAWS)
    def test_thm41_vortex(self, d, log_sigma, log_amplitude, delta):
        state = state_from_vortex(_vortex(d, log_sigma, log_amplitude), delta)
        _assert_largest_passing_double(state, theorem41_bound(state))

    @settings(max_examples=60, deadline=None)
    @given(**VORTEX_DRAWS, u1=st.floats(0.1, 0.9), u2=st.floats(0.1, 0.9),
           log_f1=st.floats(-10.0, -3.0), log_f2=st.floats(-10.0, -3.0))
    def test_forced_vortex(self, d, log_sigma, log_amplitude, delta, u1, u2, log_f1, log_f2):
        f1, f2 = _forces(d, delta, u1, u2, 10.0**log_f1, 10.0**log_f2)
        state = state_from_vortex(_vortex(d, log_sigma, log_amplitude), delta)
        cert = forced_lifespan(state, f1, f2)
        _assert_largest_passing_double(_shifted(state, cert), cert)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(3, 5),
        delta=st.floats(0.05, 0.95),
        log_a_d=st.none() | st.floats(-8.0, -1.0),
        log_grad=st.none() | st.floats(-6.0, 2.0),
        theta=st.none() | st.floats(0.05, 1.0),
        log_theta_norm=st.floats(-8.0, 1.0),
    )
    def test_thm41_norm_bundle(self, d, delta, log_a_d, log_grad, theta, log_theta_norm):
        assume(log_a_d is not None or (theta is not None and log_grad is not None))
        bundle = NormBundle(
            lp_norms={} if log_a_d is None else {float(d): 10.0**log_a_d},
            grad_d_norm=None if log_grad is None else 10.0**log_grad,
            theta=theta,
            norm_d_plus_theta=None if theta is None else 10.0**log_theta_norm,
        )
        state = state_from_norms(bundle, d, delta)
        _assert_largest_passing_double(state, theorem41_bound(state))

    @settings(max_examples=60, deadline=None)
    @given(**VORTEX_DRAWS, log_scale=st.floats(-3.0, 3.0))
    def test_thm41_vortex_scale_covariance(self, d, log_sigma, log_amplitude, delta, log_scale):
        # Navier-Stokes scaling u -> lam u(lam x, lam^2 t) maps the vortex
        # (amplitude, sigma) to (lam^2 amplitude, sigma/lam) and horizons T to
        # T/lam^2, so lam^2 t0 of the scaled data is the t0 of the original
        lam = 10.0**log_scale
        data = _vortex(d, log_sigma, log_amplitude)
        scaled = VortexGaussian(d, data.sigma / lam, lam**2 * data.amplitude)
        cert = theorem41_bound(state_from_vortex(data, delta))
        cert_scaled = theorem41_bound(state_from_vortex(scaled, delta))
        assert cert_scaled.feasible == cert.feasible
        assert lam**2 * cert_scaled.t0 == pytest.approx(cert.t0, rel=1e-9)

    def test_envelope_routes_do_not_scan(self, monkeypatch, eps3):
        def scan(*args):
            raise AssertionError("the envelope route must not scan")

        monkeypatch.setattr("nslifespan.lifespan._largest_feasible", scan)
        state = state_from_vortex(vortex_with_a3(1000.0 * eps3), DELTA0)
        f1 = ForceNorm(2.7, matching_lambda_k0(3, DELTA0, 2.7), 1e-7)
        f2 = ForceNorm(2.0, matching_lambda_k0_prime(3, 2.0), 1e-7)
        for cert in (theorem41_bound(state), forced_lifespan(state, f1, f2)):
            assert cert.feasible and 0.0 < cert.t0 < math.inf
            assert replay_certificate(cert).all_passed


class TestNavierStokesScaling:
    """lam^2 t0 of the data scaled by u -> lam u(lam x, lam^2 t) is t0, for lam in [1e-20, 1e20].

    The scaling maps the vortex (amplitude, sigma) to (lam^2 amplitude,
    sigma/lam); a norm bundle keeps |a|_d and scales |grad a|_d by lam.
    A horizon of 0 (infeasible) or infinity (global) maps to itself exactly.
    """

    DRAWS = 150

    @staticmethod
    def _assert_scales(t0, t0_scaled, lam):
        if t0 in (0.0, math.inf):
            assert t0_scaled == t0
        else:
            assert lam**2 * t0_scaled == pytest.approx(t0, rel=1e-12, abs=0.0)

    @staticmethod
    def _draw(rng):
        return int(rng.integers(3, 6)), float(rng.uniform(0.05, 0.95)), 10.0 ** rng.uniform(-20.0, 20.0)

    def test_thm41_vortex(self, rng):
        horizons = set()
        for _ in range(self.DRAWS):
            d, delta, lam = self._draw(rng)
            sigma = 10.0 ** rng.uniform(math.log10(0.005), math.log10(5.0))
            amplitude = 10.0 ** rng.uniform(-5.0, 2.0) / sigma**2  # amplitude * sigma^2 is invariant
            t0 = theorem41_bound(state_from_vortex(VortexGaussian(d, sigma, amplitude), delta)).t0
            scaled = VortexGaussian(d, sigma / lam, lam**2 * amplitude)
            self._assert_scales(t0, theorem41_bound(state_from_vortex(scaled, delta)).t0, lam)
            horizons.add(math.inf if t0 == math.inf else "finite")
        assert horizons == {math.inf, "finite"}

    def test_theta_free_bundles(self, rng):
        horizons = set()
        for _ in range(self.DRAWS):
            d, delta, lam = self._draw(rng)
            a_d = 10.0 ** rng.uniform(-6.0, -3.0)
            grad = 10.0 ** rng.uniform(-6.0, 1.0) if rng.random() < 0.8 else None
            bundle = NormBundle({float(d): a_d}, grad_d_norm=grad)
            scaled = NormBundle({float(d): a_d}, grad_d_norm=None if grad is None else lam * grad)
            t0 = theorem41_bound(state_from_norms(bundle, d, delta)).t0
            self._assert_scales(t0, theorem41_bound(state_from_norms(scaled, d, delta)).t0, lam)
            horizons.add(t0 if t0 in (0.0, math.inf) else "finite")
            if grad is not None:
                self._assert_scales(theorem41_explicit(bundle, d, delta).t0, theorem41_explicit(scaled, d, delta).t0, lam)
        assert horizons == {0.0, math.inf, "finite"}


def _rootless(state):
    """The state with the roots removed: theorem41_bound then bisects all 63 levels unbracketed."""
    return _with_evaluators(
        state,
        KatoEvaluator(state.k0.fn, state.k0.finite_at_infinity),
        KatoEvaluator(state.k0_prime.fn, state.k0_prime.finite_at_infinity),
    )


def _evaluations(monkeypatch, certify):
    """The horizons of every evaluator call made by certify()."""
    calls = []
    call = KatoEvaluator.__call__

    def counted(evaluator, t):
        calls.append(t)
        return call(evaluator, t)

    monkeypatch.setattr(KatoEvaluator, "__call__", counted)
    certify()
    monkeypatch.setattr(KatoEvaluator, "__call__", call)
    return calls


GRID_END_DELTAS = (default_delta_grid()[0], DELTA0, default_delta_grid()[-1])
BRACKET_DRAWS = dict(
    d=st.integers(3, 5),
    log_sigma=st.floats(math.log10(0.005), math.log10(5.0)),
    log_invariant=st.floats(-3.0, 1.0),
    delta=st.floats(1e-6, 1.0 - 1e-6) | st.sampled_from(GRID_END_DELTAS),
)


def _vortex_by_invariant(d, log_sigma, log_invariant):
    # amplitude * sigma^2 is the Navier-Stokes scale invariant of the family
    sigma = 10.0**log_sigma
    return VortexGaussian(d, sigma, 10.0**log_invariant / sigma**2)


class TestInversionBracket:
    """The bracketed envelope search certifies what the unbracketed bisection does, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(**BRACKET_DRAWS)
    def test_thm41_vortex(self, d, log_sigma, log_invariant, delta):
        state = state_from_vortex(_vortex_by_invariant(d, log_sigma, log_invariant), delta)
        cert = theorem41_bound(state)
        assert cert.to_dict() == theorem41_bound(_rootless(state)).to_dict()
        if math.isfinite(cert.t0):
            threshold = state.constants.threshold
            assert cert.t0 == _largest_double(lambda T: max(state.k0(T), state.k0_prime(T)) <= threshold)

    @settings(max_examples=150, deadline=None)
    @given(**BRACKET_DRAWS, u1=st.floats(0.1, 0.9), u2=st.floats(0.1, 0.9),
           log_f1=st.floats(-12.0, 1.0), log_f2=st.floats(-12.0, 1.0))
    def test_forced_vortex(self, d, log_sigma, log_invariant, delta, u1, u2, log_f1, log_f2):
        # force values up to 10 include force-dominated runs (coefficient above the threshold)
        f1, f2 = _forces(d, delta, u1, u2, 10.0**log_f1, 10.0**log_f2)
        state = state_from_vortex(_vortex_by_invariant(d, log_sigma, log_invariant), delta)
        cert = forced_lifespan(state, f1, f2)
        assert cert.to_dict() == forced_lifespan(_rootless(state), f1, f2).to_dict()

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(3, 5),
        delta=st.floats(0.05, 0.95),
        log_a_d=st.none() | st.floats(-8.0, -1.0),
        log_grad=st.none() | st.floats(-6.0, 2.0),
        theta=st.none() | st.floats(0.05, 1.0),
        log_theta_norm=st.floats(-8.0, 1.0),
        log_f=st.none() | st.floats(-12.0, 1.0),
    )
    def test_norm_bundle(self, d, delta, log_a_d, log_grad, theta, log_theta_norm, log_f):
        assume(log_a_d is not None or (theta is not None and log_grad is not None))
        bundle = NormBundle(
            lp_norms={} if log_a_d is None else {float(d): 10.0**log_a_d},
            grad_d_norm=None if log_grad is None else 10.0**log_grad,
            theta=theta,
            norm_d_plus_theta=None if theta is None else 10.0**log_theta_norm,
        )
        state = state_from_norms(bundle, d, delta)
        assert theorem41_bound(state).to_dict() == theorem41_bound(_rootless(state)).to_dict()
        if log_f is not None:
            f1, f2 = _forces(d, delta, 0.5, 0.5, 10.0**log_f, 10.0**log_f)
            cert = forced_lifespan(state, f1, f2)
            assert cert.to_dict() == forced_lifespan(_rootless(state), f1, f2).to_dict()

    @settings(max_examples=200, deadline=None)
    @given(**BRACKET_DRAWS, log_t=st.floats(-30.0, 2.0))
    def test_evaluator_rounding_error_below_an_eighth_of_eps(self, d, log_sigma, log_invariant, delta, log_t):
        # answers taken without a probe match a probe while the evaluators'
        # relative error stays below eps/4; this keeps a factor 2 in hand
        data = _vortex_by_invariant(d, log_sigma, log_invariant)
        T = data.sigma**2 * 10.0**log_t
        k0_ref, k0_prime_ref = oracle.kato_norms_mpmath(data, delta, T, _grad_unit_constant(d))
        with mpmath.workprec(120):
            assert abs(mpmath.mpf(k0_exact(data, delta)(T)) / k0_ref - 1) < _BRACKET_EPS / 8
            assert abs(mpmath.mpf(k0_prime_exact(data)(T)) / k0_prime_ref - 1) < _BRACKET_EPS / 8


class TestEnvelopeWorkCount:
    """Evaluator calls per envelope certificate, counted at KatoEvaluator.__call__."""

    @pytest.mark.parametrize("amplitude", [1e-3, 0.5, 5.0, 50.0])
    def test_thm41_vortex_certificate_calls(self, monkeypatch, amplitude):
        for delta in default_delta_grid():
            state = state_from_vortex(VortexGaussian(3, 1.0, amplitude), delta)
            assert len(_evaluations(monkeypatch, lambda: theorem41_bound(state))) <= 24, delta

    @pytest.mark.parametrize("amplitude", [1e75, 1e77])
    def test_subnormal_horizon_keeps_the_bracket(self, monkeypatch, amplitude):
        # t0 = 4.86e-314 and 4.84e-322: the spacing of subnormal doubles is
        # wider than the bracket's relative eps
        state = state_from_vortex(VortexGaussian(3, 1.0, amplitude), 0.5)
        calls = _evaluations(monkeypatch, lambda: theorem41_bound(state))
        cert = theorem41_bound(state)
        assert 0.0 < cert.t0 < sys.float_info.min
        assert len(calls) <= 24
        assert cert.t0 == theorem41_bound(_rootless(state)).t0

    def test_forced_evaluation_is_one_call(self, monkeypatch, eps3):
        state = state_from_vortex(vortex_with_a3(1000.0 * eps3), DELTA0)
        f1 = ForceNorm(2.7, matching_lambda_k0(3, DELTA0, 2.7), 0.0)
        f2 = ForceNorm(2.0, matching_lambda_k0_prime(3, 2.0), 0.0)
        forced = _evaluations(monkeypatch, lambda: forced_lifespan(state, f1, f2))
        assert forced == _evaluations(monkeypatch, lambda: theorem41_bound(state))

    def test_force_dominated_run_makes_no_search_probe(self, monkeypatch):
        # forced_small with a k0 force of 1.0: its coefficient 35.55 exceeds
        # threshold (1 + eps), so the shifted root is 0.0 and neither the
        # infinity probe nor the bisection runs; the two calls are the
        # certificate's intermediates at T = 5e-324
        state = state_from_vortex(VortexGaussian(3, 1.0, 1e-6), DELTA0)
        f1 = ForceNorm(2.7, matching_lambda_k0(3, DELTA0, 2.7), 1.0)
        f2 = ForceNorm(2.0, matching_lambda_k0_prime(3, 2.0), 1e-7)
        calls = _evaluations(monkeypatch, lambda: forced_lifespan(state, f1, f2))
        assert calls == [math.ulp(0.0)] * 2

    def test_state_without_roots_makes_the_unbracketed_probes(self, monkeypatch, eps3):
        state = _rootless(state_from_vortex(vortex_with_a3(1000.0 * eps3), DELTA0))
        threshold = state.constants.threshold
        expected = [math.inf, math.inf]  # the infinity probe: K0, then K0'

        def ok(T):
            expected.append(T)
            if state.k0_prime.fn(T) > threshold:
                return False
            expected.append(T)
            return state.k0.fn(T) <= threshold

        t0 = _largest_double(ok)
        expected += [t0, t0]  # the intermediates at t0
        assert _evaluations(monkeypatch, lambda: theorem41_bound(state)) == expected
        assert len(expected) > 2 + 63


def _probe_draw(rng, monkeypatch):
    """(state, reference state, f1, f2) for one seeded draw, delta log-uniform in (1e-3, 1).

    Even draws are vortex states, which the reference shares; odd draws are
    norm-bundle states with one or two bounds per component, whose reference
    is built with the generator least bound.
    """
    d = rng.randint(3, 5)
    delta = math.exp(rng.uniform(math.log(1e-3), 0.0))
    f1, f2 = _forces(d, delta, rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                     10.0 ** rng.uniform(-12.0, 1.0), 10.0 ** rng.uniform(-12.0, 1.0))
    if rng.random() < 0.5:
        data = _vortex_by_invariant(d, rng.uniform(math.log10(0.005), math.log10(5.0)), rng.uniform(-3.0, 1.0))
        state = state_from_vortex(data, delta)
        return state, state, f1, f2
    has_a_d = rng.random() < 0.7
    has_theta = not has_a_d or rng.random() < 0.6
    has_grad = not has_a_d or rng.random() < 0.6
    bundle = NormBundle(
        lp_norms={float(d): 10.0 ** rng.uniform(-8.0, -1.0)} if has_a_d else {},
        grad_d_norm=10.0 ** rng.uniform(-6.0, 2.0) if has_grad else None,
        theta=rng.uniform(0.05, 1.0) if has_theta else None,
        norm_d_plus_theta=10.0 ** rng.uniform(-8.0, 1.0) if has_theta else None,
    )
    state = state_from_norms(bundle, d, delta)
    with monkeypatch.context() as patched:
        patched.setattr("nslifespan.lifespan._least_bound", oracle.reference_least_bound)
        reference = state_from_norms(bundle, d, delta)
    return state, reference, f1, f2


class TestFirstProbeForms:
    """thm41, forced and thm31 keep the t0 bits and evaluator calls of their first probe forms.

    The references (``oracle_utils.reference_theorem41_t0``,
    ``reference_theorem31_t0`` and ``reference_least_bound``) probe through
    generators and read the state on every probe. Calls are counted at
    ``KatoEvaluator.__call__``, where perfbench counts
    ``lifespan.probes_per_cert``, so a probe that bypasses it fails here.
    """

    DRAWS = 160

    def test_seeded_draws(self, monkeypatch):
        rng = random.Random(1306_6211)
        branches = {"thm41": set(), "forced": set(), "thm31": set()}
        for draw in range(self.DRAWS):
            state, reference, f1, f2 = _probe_draw(rng, monkeypatch)
            forced_cert = forced_lifespan(state, f1, f2)
            c1 = forced_cert.intermediate["force_k0_coefficient"]
            c2 = forced_cert.intermediate["force_k0_prime_coefficient"]
            forced_reference = _with_evaluators(
                reference, reference.k0.shifted(c1), reference.k0_prime.shifted(c2)
            )
            routes = (
                ("thm41", lambda: theorem41_bound(state), lambda: oracle.reference_theorem41_t0(reference)),
                ("forced", lambda: forced_lifespan(state, f1, f2),
                 lambda: oracle.reference_theorem41_t0(forced_reference)),
                ("thm31", lambda: theorem31_bound(state), lambda: oracle.reference_theorem31_t0(reference)),
            )
            for route, certify, first_form in routes:
                certs, t0s = [], []
                calls = _evaluations(monkeypatch, lambda: certs.append(certify()))
                reference_calls = _evaluations(monkeypatch, lambda: t0s.append(first_form()))
                assert certs[0].t0.hex() == t0s[0].hex(), (draw, route)
                assert len(calls) == len(reference_calls), (draw, route)
                branches[route].add("0" if t0s[0] == 0.0 else "inf" if t0s[0] == math.inf else "finite")
        # every route bisected, and thm41 also hit both ends
        assert all("finite" in seen for seen in branches.values()), branches
        assert branches["thm41"] == {"0", "finite", "inf"}, branches


class TestLeastBound:
    """``_least_bound`` takes one or two bounds and gives the generator ``min`` bit for bit."""

    CAP = idmod.PowerBound(4.0)
    POWER = idmod.PowerBound(2.0, 0.5, 2.0)  # 2 sqrt(T): ties the cap at T = 4
    PAIRS = {
        "cap_and_power": (CAP, POWER),
        "power_and_cap": (POWER, CAP),
        "signed_zero_tie": (idmod.PowerBound(-0.0), idmod.PowerBound(0.0, 0.5, 2.0)),
        "zero_tie_reversed": (idmod.PowerBound(0.0, 0.5, 2.0), idmod.PowerBound(-0.0)),
        "infinite_cap": (idmod.PowerBound(math.inf), POWER),
        "infinite_tie": (idmod.PowerBound(math.inf), idmod.PowerBound(math.inf, 0.5, 2.0)),
    }
    HORIZONS = (0.0, math.ulp(0.0), 1e-300, 1.0, 4.0, 5.0, 1e300, math.inf)

    @pytest.mark.parametrize("bounds", [(CAP,), (POWER,), *PAIRS.values()], ids=["cap", "power", *PAIRS])
    def test_values_and_roots_match_the_generator_min(self, bounds):
        least = _least_bound(bounds, True)
        reference = oracle.reference_least_bound(bounds, True)
        for T in self.HORIZONS:
            assert least.fn(T).hex() == reference.fn(T).hex(), T
        for y in (-1.0, 0.0, 1.0, 4.0, 1e300, math.inf):
            assert least.root(y) == reference.root(y), y

    def test_single_bound_is_its_own_evaluator(self):
        assert _least_bound([self.POWER], False).fn is self.POWER

    @pytest.mark.parametrize("count", [0, 3])
    def test_other_counts_are_refused(self, count):
        with pytest.raises(ValueError, match=f"one or two bounds, got {count}"):
            _least_bound([self.CAP, self.POWER, self.CAP][:count], True)


@pytest.mark.xfail(
    strict=True,
    reason="the norm-bundle K0 power bound c T^{theta delta/(2d)} |a|_{d+theta} is not scale "
    "invariant, unlike K0, and falls below the exact K0 for small T",
)
def test_bundle_certificate_holds_for_the_exact_evaluators():
    # d=3, sigma=1, amplitude 1e-3, delta=0.95, theta=1: thm41 on the vortex's
    # own norm bundle certifies t0 = 4.75e-11 and replays, but the exact
    # max(K0, K0') there is 6.8e-4, above the threshold 3.7e-4
    data = VortexGaussian(3, 1.0, 1e-3)
    cert = theorem41_bound(state_from_norms(norm_bundle_from_vortex(data, theta=1.0), 3, 0.95))
    assert cert.feasible and replay_certificate(cert).all_passed
    assert thm41_feasible_at(state_from_vortex(data, 0.95), cert.t0)


class TestTheorem41Explicit:
    def test_unit_threshold_case(self):
        cs = composite_constants(3, DELTA0)
        bundle = NormBundle(lp_norms={3.0: 1.0}, grad_d_norm=cs.threshold)
        cert = theorem41_explicit(bundle, 3, DELTA0)
        assert cert.t0 == pytest.approx(1.0, rel=1e-11)
        assert replay_certificate(cert).all_passed

    def test_doubling_norms_shrinks(self):
        base = NormBundle(lp_norms={3.0: 1.0}, grad_d_norm=0.01, theta=0.5, norm_d_plus_theta=0.02)
        double = NormBundle(lp_norms={3.0: 1.0}, grad_d_norm=0.02, theta=0.5, norm_d_plus_theta=0.04)
        t_base = theorem41_explicit(base, 3, DELTA0).t0
        t_double = theorem41_explicit(double, 3, DELTA0).t0
        assert t_double < t_base

    def test_below_exact_route_on_family(self, eps3):
        for factor in (5.0, 50.0, 500.0):
            data = vortex_with_a3(factor * eps3)
            bundle = norm_bundle_from_vortex(data, theta=0.5)
            explicit = theorem41_explicit(bundle, 3, DELTA0)
            exact = theorem41_bound(state_from_vortex(data, DELTA0))
            assert explicit.t0 <= exact.t0 * (1 + 1e-9)

    def test_missing_norms(self):
        with pytest.raises(UnavailableBoundError):
            theorem41_explicit(NormBundle(lp_norms={3.0: 1.0}), 3, DELTA0)

    def test_zero_data_is_global(self):
        bundle = NormBundle(lp_norms={3.0: 0.0}, grad_d_norm=0.0)
        cert = theorem41_explicit(bundle, 3, DELTA0)
        assert cert.t0 == math.inf

    def test_huge_inversion_exponent_does_not_overflow(self):
        # tiny theta with tiny norms drives the inversion exponent into the
        # hundreds; the term must cap instead of raising OverflowError
        data = VortexGaussian(3, 2.9844735394728876, 5.0307726744251754e-08)
        bundle = norm_bundle_from_vortex(data, theta=0.05717058842313513)
        cert = theorem41_explicit(bundle, 3, 0.21830807124595003)
        assert cert.feasible and 0.0 < cert.t0 <= 1e300
        assert replay_certificate(cert).all_passed
        assert any("capped" in note for note in cert.notes)

    def test_subnormal_term_counts_as_underflow(self):
        # the theta term lands at 2.4e-317, where the relative shrink of t0
        # is lost to rounding; it must become 0.0 so that replay passes
        bundle = NormBundle(lp_norms={3.0: 1.0}, grad_d_norm=0.4774,
                            theta=0.9526, norm_d_plus_theta=0.007207)
        cert = theorem41_explicit(bundle, 3, 0.04933)
        assert cert.intermediate["term_theta"] == 0.0
        assert cert.t0 == 0.0
        assert replay_certificate(cert).all_passed

    def test_norm_scaling_monotonicity_randomized(self, rng):
        # multiplying every norm by c > 1 never increases the closed form
        for _ in range(25):
            grad = float(rng.uniform(1e-4, 10.0))
            ntheta = float(rng.uniform(1e-4, 10.0))
            theta = float(rng.uniform(0.1, 1.0))
            delta = float(rng.uniform(0.1, 0.9))
            c = float(rng.uniform(1.0, 50.0))
            base = NormBundle(lp_norms={3.0: 1.0}, grad_d_norm=grad,
                              theta=theta, norm_d_plus_theta=ntheta)
            scaled = NormBundle(lp_norms={3.0: c}, grad_d_norm=c * grad,
                                theta=theta, norm_d_plus_theta=c * ntheta)
            t_base = theorem41_explicit(base, 3, delta).t0
            t_scaled = theorem41_explicit(scaled, 3, delta).t0
            assert t_scaled <= t_base


class TestNormBoundSources:
    """Each norm-bundle bound has one constructor, which every route reads."""

    # theta-only bundles (no |a|_d, so no caps); the theta term binds in the
    # first on every route, the gradient term in the second
    THETA_BINDS = NormBundle(lp_norms={}, grad_d_norm=0.05, theta=0.5, norm_d_plus_theta=1e-4)
    GRAD_BINDS = NormBundle(lp_norms={}, grad_d_norm=0.05, theta=0.5, norm_d_plus_theta=1e-12)

    @staticmethod
    def horizons(bundle: NormBundle) -> dict:
        state = state_from_norms(bundle, 3, DELTA0)
        f1 = ForceNorm(2.7, matching_lambda_k0(3, DELTA0, 2.7), 1e-9)
        f2 = ForceNorm(2.0, matching_lambda_k0_prime(3, 2.0), 1e-9)
        certs = {
            "thm31": theorem31_bound(state),
            "thm41": theorem41_bound(state),
            "forced": forced_lifespan(state, f1, f2),
            "thm41-explicit": theorem41_explicit(bundle, 3, DELTA0),
        }
        assert all(cert.feasible and 0.0 < cert.t0 < math.inf for cert in certs.values())
        return {route: cert.t0 for route, cert in certs.items()}

    @pytest.mark.parametrize("constructor, bundle, check", [
        ("k0_norm_bound", THETA_BINDS, "k0_norm_bound_at_t0"),
        ("k0_prime_norm_bound", GRAD_BINDS, "k0_prime_norm_bound_at_t0"),
    ])
    def test_doubled_coefficient_moves_every_route(self, monkeypatch, constructor, bundle, check):
        before = self.horizons(bundle)
        cert = theorem41_explicit(bundle, 3, DELTA0)
        original = getattr(idmod, constructor)

        def doubled(*args, **kwargs):
            bound = original(*args, **kwargs)
            return idmod.PowerBound(2.0 * bound.coef, bound.power, bound.inverse, bound.note)

        monkeypatch.setattr(idmod, constructor, doubled)
        after = self.horizons(bundle)
        assert all(after[route] != before[route] for route in before), (before, after)
        # replay re-evaluates the stored certificate's bound through the same constructor
        lhs = {c.name: c.lhs for c in cert.checks}[check]
        rederived = _derived_checks(cert.theorem, cert.t0, cert.delta_used, cert.intermediate)
        assert {c.name: c.lhs for c in rederived}[check] == pytest.approx(2.0 * lhs, rel=1e-15)
        assert not replay_certificate(cert).all_passed

    def test_explicit_horizon_is_the_largest_passing_double(self):
        # the closed-form inversion lands within its 1e-12 shrink plus the
        # log-space rounding (here 2d/(theta delta) <= 2000) below the largest
        # double where the crude K0 bound and the gradient bound both pass
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(300):
            d, delta, theta = int(rng.integers(3, 6)), float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.1, 1.0))
            has_theta, has_grad = [(True, True), (True, False), (False, True)][int(rng.integers(3))]
            bundle = NormBundle(
                lp_norms={},
                grad_d_norm=10.0 ** rng.uniform(-6.0, 2.0) if has_grad else None,
                theta=theta if has_theta else None,
                norm_d_plus_theta=10.0 ** rng.uniform(-12.0, 1.0) if has_theta else None,
            )
            bounds = [idmod.k0_prime_norm_bound(bundle)] if has_grad else []
            if has_theta:
                bounds.append(idmod.k0_norm_bound(bundle, d, delta, sharp=False))
            threshold = composite_constants(d, delta).threshold
            cert = theorem41_explicit(bundle, d, delta)
            t0 = cert.t0
            if t0 < sys.float_info.min or any("capped" in note for note in cert.notes):
                continue
            largest = _largest_double(lambda T: all(bound(T) <= threshold for bound in bounds))
            assert (1.0 - 2e-12) * largest <= t0 <= largest
            checked += 1
        assert checked > 200


class TestOptimizeDelta:
    def test_deterministic_and_profiled(self, eps3):
        data = vortex_with_a3(200.0 * eps3)
        grid = (0.15, 0.25, DELTA0, 0.4, 0.6)
        certify = lambda dlt: theorem41_bound(state_from_vortex(data, dlt))
        sweep1 = optimize_delta(certify, grid)
        sweep2 = optimize_delta(certify, grid)
        assert sweep1.profile == sweep2.profile
        assert len(sweep1.profile) == len(grid)
        assert sweep1.best.t0 == max(t for _, t, _ in sweep1.profile)

    def test_refinement_never_decreases(self, eps3):
        data = vortex_with_a3(200.0 * eps3)
        certify = lambda dlt: theorem41_bound(state_from_vortex(data, dlt))
        coarse = (0.2, DELTA0, 0.5)
        fine = coarse + (0.3, 0.35, 0.45)
        assert optimize_delta(certify, fine).best.t0 >= optimize_delta(certify, coarse).best.t0

    def test_ties_break_to_smaller_delta(self):
        cert_of = lambda dlt: LifespanCertificate(
            t0=1.0, theorem="thm41", delta_used=dlt, intermediate={}, iterate_bound=None,
            feasible=True, checks=(), notes=(),
        )
        sweep = optimize_delta(cert_of, (0.3, 0.5, 0.7))
        assert sweep.best.delta_used == 0.3

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.lists(st.sampled_from((0.1, 0.2, DELTA0, 0.3, 0.5, 0.7)), min_size=1, unique=True),
        amplitude=st.sampled_from((1e-4, 0.05, 50.0)),
        data=st.data(),
    )
    def test_winner_independent_of_grid_order(self, grid, amplitude, data):
        # ties in t0 are common: tiny data certifies t0 = infinity at every
        # delta, K0' alone can bind (it does not depend on delta), and large
        # data hits the search floor; ties go to the smallest delta
        vortex = VortexGaussian(3, 1.0, amplitude)
        certify = lambda dlt: theorem41_bound(state_from_vortex(vortex, dlt))
        sweep = optimize_delta(certify, grid)
        shuffled = optimize_delta(certify, data.draw(st.permutations(grid)))
        assert shuffled.best == sweep.best
        assert [row[0] for row in sweep.profile] == grid
        tied = [dlt for dlt, t0, feasible in sweep.profile if (feasible, t0) == (sweep.best.feasible, sweep.best.t0)]
        assert sweep.best.delta_used == min(tied)

    def test_all_deltas_infeasible(self):
        certify = lambda dlt: global_certificate(100.0, 3, dlt)
        sweep = optimize_delta(certify, (0.3, 0.5))
        assert not sweep.best.feasible
        assert any("all deltas" in note for note in sweep.best.notes)

    def test_validation(self):
        with pytest.raises(DomainError):
            optimize_delta(lambda d: None, ())
        with pytest.raises(DomainError):
            optimize_delta(lambda d: None, (0.5, 1.5))


class TestGlobalThreshold:
    def test_formula(self):
        cs = composite_constants(3, DELTA0)
        eps = global_smallness_threshold(3, DELTA0)
        assert eps == pytest.approx(cs.threshold / max(cs.s1, cs.s2), rel=1e-15)

    def test_dimension_scaling(self):
        e3 = global_smallness_threshold(3, 0.4)
        c3, c4 = composite_constants(3, 0.4), composite_constants(4, 0.4)
        e4 = global_smallness_threshold(4, 0.4)
        assert e4 / e3 == pytest.approx(
            (c4.c2 / 16.0 / max(c4.s1, c4.s2)) / (c3.c2 / 9.0 / max(c3.s1, c3.s2)), rel=1e-12
        )

    def test_end_to_end_certificates(self, eps3):
        below = global_certificate(0.5 * eps3, 3, DELTA0)
        assert below.feasible and below.t0 == math.inf
        assert replay_certificate(below).all_passed
        above = global_certificate(1.05 * eps3, 3, DELTA0)
        assert not above.feasible and above.t0 == 0.0

    def test_exact_route_crosses_threshold(self, eps3):
        # continuity: the exact evaluators cross the envelope threshold at a
        # finite amplitude, above which the certified horizon is finite
        unit = VortexGaussian(3, 1.0, 1.0)
        cs = composite_constants(3, DELTA0)
        from nslifespan.initial_data import k0_exact, k0_prime_exact

        per_amp = max(k0_exact(unit, DELTA0)(math.inf), k0_prime_exact(unit)(math.inf))
        amp_flip = cs.threshold / per_amp
        below = theorem41_bound(state_from_vortex(VortexGaussian(3, 1.0, 0.98 * amp_flip), DELTA0))
        above = theorem41_bound(state_from_vortex(VortexGaussian(3, 1.0, 1.2 * amp_flip), DELTA0))
        assert below.t0 == math.inf
        assert 0.0 < above.t0 < math.inf


def _quantities_verdict(k0, k0p, j1, j2):
    # the verdict that the coupled route's intermediates state
    q = _coupled_quantities(k0, k0p, j1, j2)
    return "v1" in q and q["v1"] - k0 > _COUPLED_MARGIN and q["v2"] - k0p > _COUPLED_MARGIN


def _sweep_thm31_states(seed, blocks):
    """(state, certificate) of every delta of the thm31 vortex requests in a vortex_sweep stream."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    stream = workloads.blocks("vortex_sweep", seed, root)
    configs = [r["config"] for _ in range(blocks) for r in next(stream)]
    out = []
    for config in configs:
        if config["mode"] != "thm31" or "family" not in config["data"]:
            continue
        data = VortexGaussian(config["d"], config["data"]["sigma"], config["data"]["amplitude"])
        for delta in config.get("delta_grid", [config.get("delta", DELTA0)]):
            state = state_from_vortex(data, delta)
            out.append((state, theorem31_bound(state)))
    return out


class TestCoupledVerdict:
    """The search's scalar verdict against the one its intermediates give, as replay derives them."""

    def test_random_inputs(self, rng):
        n = 40_000
        # (j2 k0, j1 k0') near the feasible square [0, 1/4)^2, and far from it
        j1, j2 = 10.0 ** rng.uniform(-3, 3, n), 10.0 ** rng.uniform(-3, 3, n)
        near = rng.random(n) < 0.5
        k0 = np.where(near, 10.0 ** rng.uniform(-4, 0, n) / j2, 10.0 ** rng.uniform(-320, 200, n))
        k0p = np.where(near, 10.0 ** rng.uniform(-4, 0, n) / j1, 10.0 ** rng.uniform(-320, 200, n))
        special = [0.0, 5e-324, 1e-300, 1e-9, 0.1, 1e154, 1e160, math.inf, math.nan]
        cases = [(float(a), float(b), float(c), float(e)) for a, b, c, e in zip(k0, k0p, j1, j2)]
        cases += [(a, b, 1.0, 2.0) for a in special for b in special]
        verdicts = []
        for case in cases:
            verdicts.append(_coupled_feasible(*case))
            assert verdicts[-1] == _quantities_verdict(*case), case
        assert 0.1 < sum(verdicts) / len(verdicts) < 0.9
        # (s1 + 1)^2 overflows the doubles here, which fails the hypotheses
        with pytest.raises(OverflowError):
            CoupledRecurrence(1e-3, 1e160, 1.0, 1.0, 1e-3, 1e160).d1
        assert not _coupled_feasible(1e-3, 1e160, 1.0, 1.0)

    def test_around_the_sweep_horizons(self, rng):
        # every double up to 200 ulps above each finite thm31 t0 of vortex_sweep
        # seed 1 (6 blocks), and log-uniform horizons within 100x of it
        certified = [(state, cert.t0) for state, cert in _sweep_thm31_states(1, 6) if 0.0 < cert.t0 < math.inf]
        assert len(certified) >= 20
        crossed = 0
        for state, t0 in certified:
            j1, j2 = state.constants.j1, state.constants.j2
            horizons = [t0]
            for _ in range(200):
                horizons.append(math.nextafter(horizons[-1], math.inf))
            horizons += [float(t0 * 10.0**x) for x in rng.uniform(-2, 2, 40)]
            verdicts = set()
            for T in horizons:
                verdict = thm31_feasible_at(state, T)
                assert verdict == _quantities_verdict(state.k0(T), state.k0_prime(T), j1, j2), (state.notes, T)
                verdicts.add(verdict)
            crossed += len(verdicts) == 2
        assert crossed >= len(certified) // 2


def _unsaturated(state):
    """The state with the evaluators' saturation times removed: the coupled scan then probes every point."""
    return _with_evaluators(
        state,
        KatoEvaluator(state.k0.fn, state.k0.finite_at_infinity, state.k0.root),
        KatoEvaluator(state.k0_prime.fn, state.k0_prime.finite_at_infinity, state.k0_prime.root),
    )


class TestSaturationSkip:
    """The coupled scan does not probe past saturation, and finds the same horizon."""

    # (d, sigma, amplitude, delta, t0.hex(), evaluator calls when every point is probed):
    # docs/examples/thm31_delta_grid.json, vortex_sweep seed 1 requests, and two
    # horizons between the saturation times of K0 and K0'
    CASES = [
        (3, 1.0, 0.05, 0.2, "0x1.84ec541e03623p-14", 104),
        (3, 1.0, 0.05, 0.28257742392949414, "0x1.86eda3ee48209p-12", 104),
        (3, 1.0, 0.05, 0.4, "0x1.bcab2e3ea790bp-10", 102),
        (3, 1.0, 0.05, 0.6, "0x1.9e5fc5b3ecdffp-13", 104),
        (3, 0.809071551030883, 0.13930086559924057, 0.17274275550892462, "0x1.5a0ac2c17a6f6p-17", 106),
        (3, 0.13997339471893908, 20.083566403296157, 0.013143163831776754, "0x0.0p+0", 60),
        (5, 0.16860071283524508, 0.1354281055742103, 0.05727393462822962, "0x1.57bba5560f155p-21", 110),
        (4, 4.9656298572931625, 0.0007165114939339479, 0.05727393462822962, "0x1.bcc3994907cb9p-15", 106),
        (4, 0.007555833839419719, 89655.54437622204, 0.97, "0x0.0p+0", 60),
        (4, 1.0, 0.014871576339860354, 0.5901933524681487, "0x1.7c4e69952778fp-4", 98),
        (5, 1.0, 0.011718335991828208, 0.5795066647235592, "0x1.f76151f39531dp-5", 98),
    ]

    @pytest.mark.parametrize("d, sigma, amplitude, delta, t0_hex, full_calls", CASES)
    def test_vortex_horizon_keeps_its_bits_with_fewer_calls(
        self, monkeypatch, d, sigma, amplitude, delta, t0_hex, full_calls
    ):
        state = state_from_vortex(VortexGaussian(d, sigma, amplitude), delta)
        saturated = max(state.k0.saturation, state.k0_prime.saturation)
        assert saturated == state.k0_prime.saturation == sigma**2 / (2.0 * d)
        calls = _evaluations(monkeypatch, lambda: theorem31_bound(state))
        full = _evaluations(monkeypatch, lambda: theorem31_bound(_unsaturated(state)))
        assert len(full) == full_calls and len(calls) < full_calls
        assert all(T == math.inf or T < saturated for T in calls)
        cert = theorem31_bound(state)
        assert cert.t0.hex() == t0_hex
        assert cert == theorem31_bound(_unsaturated(state))
        if cert.t0 >= state.k0.saturation:  # the skip starts at the later of the two times
            assert cert.t0 < saturated and max(calls[2:-2]) >= state.k0.saturation

    def test_bundle_states_skip_nothing(self):
        for bundle in (
            NormBundle(lp_norms={3.0: 0.1}, grad_d_norm=0.2, theta=0.5, norm_d_plus_theta=0.12),
            NormBundle(lp_norms={3.0: 1e-5}),
            NormBundle(lp_norms={}, grad_d_norm=1e-3, theta=0.5, norm_d_plus_theta=1e-4),
        ):
            state = state_from_norms(bundle, 3, DELTA0)
            assert state.k0.saturation == state.k0_prime.saturation == math.inf

    def test_shifted_keeps_the_saturation(self):
        state = state_from_vortex(VortexGaussian(3, 1.0, 0.05), 0.4)
        for e in (state.k0, state.k0_prime):
            shifted = e.shifted(1e-3)
            assert shifted.saturation == e.saturation < math.inf
            assert shifted(e.saturation) == shifted(math.inf)

    def test_infinity_branch_makes_one_probe(self, monkeypatch, eps3):
        # a state that passes at T = infinity never scans, whatever its saturation
        state = state_from_vortex(vortex_with_a3(0.1 * eps3), DELTA0)
        assert _evaluations(monkeypatch, lambda: theorem31_bound(state)) == [math.inf] * 4


class TestNormBackedStates:
    def test_constant_parts_only(self):
        bundle = NormBundle(lp_norms={3.0: 1e-5})
        state = state_from_norms(bundle, 3, DELTA0)
        assert state.k0.finite_at_infinity and state.k0_prime.finite_at_infinity
        cert = theorem41_bound(state)
        assert cert.t0 == math.inf

    def test_power_bounds_with_sharp_coefficient_note(self):
        # |a|_d sits between threshold/S2 and threshold/S1, so the K0
        # envelope passes while K0' needs the sqrt(T) gradient crossing
        bundle = NormBundle(lp_norms={3.0: 1.2e-4}, grad_d_norm=0.2, theta=0.5, norm_d_plus_theta=1e-4)
        state = state_from_norms(bundle, 3, DELTA0)
        assert any("sharp" in n or "crude" in n for n in state.notes)
        cert = theorem41_bound(state)
        assert cert.feasible and 0.0 < cert.t0 < math.inf
        threshold = composite_constants(3, DELTA0).threshold
        assert cert.t0 == pytest.approx((threshold / 0.2) ** 2, rel=1e-6)
        assert replay_certificate(cert).all_passed

    def test_unusable_bundle(self):
        with pytest.raises(UnavailableBoundError):
            state_from_norms(NormBundle(lp_norms={4.0: 1.0}), 3, DELTA0)

    def test_theta_out_of_range_rejected_by_every_route(self):
        bundle = NormBundle(lp_norms={}, grad_d_norm=1e-3, theta=2.5, norm_d_plus_theta=1e-4)
        with pytest.raises(DomainError):
            state_from_norms(bundle, 3, 0.5)
        with pytest.raises(DomainError):
            theorem41_explicit(bundle, 3, 0.5)

    def test_evaluator_is_min_of_bounds(self):
        bundle = NormBundle(lp_norms={3.0: 0.1}, grad_d_norm=0.2, theta=0.5, norm_d_plus_theta=0.12)
        state = state_from_norms(bundle, 3, DELTA0)
        cs = composite_constants(3, DELTA0)
        assert state.k0_prime(1e-6) == pytest.approx(math.sqrt(1e-6) * 0.2, rel=1e-12)
        assert state.k0_prime(1e12) == pytest.approx(cs.s2 * 0.1, rel=1e-12)

    def test_root_is_max_of_part_roots(self):
        bundle = NormBundle(lp_norms={3.0: 0.1}, grad_d_norm=0.2)
        state = state_from_norms(bundle, 3, DELTA0)
        cap = composite_constants(3, DELTA0).s2 * 0.1
        assert state.k0_prime.root(0.5 * cap) == pytest.approx((0.5 * cap / 0.2) ** 2, rel=1e-12)
        assert state.k0_prime.root(cap) == math.inf
        assert state.k0_prime.root(-1.0) == 0.0
        assert state.k0.root(0.5 * composite_constants(3, DELTA0).s1 * 0.1) == 0.0


class TestRandomizedSweep:
    def test_certificates_replay_across_family_sweep(self, rng):
        # the load-bearing guarantee: whatever the inputs, an emitted
        # feasible certificate replays and its horizon is a true frontier
        for _ in range(12):
            d = int(rng.integers(3, 6))
            sigma = float(rng.uniform(0.6, 1.6))
            # amplitudes from a decade below to two decades above the
            # global-smallness scale; far beyond that the feasibility
            # frontier undercuts the search floor (reported, not certified)
            eps = global_smallness_threshold(d, DELTA0)
            unit_norm = lp_norm(VortexGaussian(d, sigma, 1.0), float(d))
            factor = float(10.0 ** rng.uniform(-1.0, 2.0))
            data = VortexGaussian(d, sigma, factor * eps / unit_norm)
            delta = float(rng.uniform(0.2, 0.5))
            state = state_from_vortex(data, delta)
            for certify, probe in (
                (theorem41_bound, thm41_feasible_at),
                (theorem31_bound, thm31_feasible_at),
            ):
                cert = certify(state)
                assert cert.feasible, (d, data, delta, certify.__name__)
                assert replay_certificate(cert).all_passed
                if math.isfinite(cert.t0):
                    assert probe(state, cert.t0)

    def test_zero_amplitude_is_global(self):
        state = state_from_vortex(VortexGaussian(3, 1.0, 0.0), DELTA0)
        assert theorem41_bound(state).t0 == math.inf
        assert theorem31_bound(state).t0 == math.inf

    def test_higher_dimension_end_to_end(self):
        for d in (4, 5):
            eps = global_smallness_threshold(d, DELTA0)
            unit = VortexGaussian(d, 1.0, 1.0)
            amp_for = eps / lp_norm(unit, float(d))
            small = theorem41_bound(state_from_vortex(VortexGaussian(d, 1.0, 0.5 * amp_for), DELTA0))
            assert small.t0 == math.inf
            big_state = state_from_vortex(VortexGaussian(d, 1.0, 1000 * amp_for), DELTA0)
            big = theorem31_bound(big_state)
            assert 0.0 < big.t0 < math.inf
            assert replay_certificate(big).all_passed


class TestConcurrency:
    def test_concurrent_certification_is_deterministic(self, eps3):
        # everything is pure: hammering the pipeline from many threads must
        # reproduce the sequential certificates exactly
        from concurrent.futures import ThreadPoolExecutor

        deltas = [0.2, 0.3, DELTA0, 0.45, 0.6]

        def certify(dlt: float):
            state = state_from_vortex(vortex_with_a3(300.0 * eps3), dlt)
            return theorem41_bound(state)

        sequential = [certify(dlt) for dlt in deltas]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(3):
                concurrent = list(pool.map(certify, deltas))
                assert concurrent == sequential


class TestCertificatePlumbing:
    def test_dict_roundtrip(self, eps3):
        cert = theorem41_bound(state_from_vortex(vortex_with_a3(100 * eps3), DELTA0))
        again = LifespanCertificate.from_dict(cert.to_dict())
        assert again == cert

    def test_replay_detects_tampering(self, eps3):
        cert = theorem31_bound(state_from_vortex(vortex_with_a3(1000 * eps3), DELTA0))
        data = cert.to_dict()
        data["intermediate"]["v1"] = data["intermediate"]["v1"] * 1.5
        assert not replay_certificate(data).all_passed

    # both terms present; the theta term binds in the first, the gradient term in the second
    THETA_BINDS = NormBundle(lp_norms={3.0: 1e-4}, grad_d_norm=0.05, theta=0.5, norm_d_plus_theta=1e-4)
    GRAD_BINDS = NormBundle(lp_norms={3.0: 1e-4}, grad_d_norm=0.05, theta=0.5, norm_d_plus_theta=1e-12)

    @pytest.mark.parametrize("bundle, value", [
        (THETA_BINDS, "t0"), (GRAD_BINDS, "t0"), (THETA_BINDS, "norm_d_plus_theta"), (GRAD_BINDS, "grad_d_norm"),
    ])
    def test_replay_detects_doubled_explicit_value(self, bundle, value):
        data = theorem41_explicit(bundle, 3, DELTA0).to_dict()
        assert replay_certificate(data).all_passed
        (data if value == "t0" else data["intermediate"])[value] *= 2.0
        assert not replay_certificate(data).all_passed

    def test_replay_detects_global_norm_above_epsilon(self):
        data = global_certificate(1e-6, 3, DELTA0).to_dict()
        assert replay_certificate(data).all_passed
        a_d_norm = 2.0 * data["intermediate"]["epsilon"]
        data["intermediate"]["a_d_norm"] = a_d_norm
        data["checks"][0]["lhs"] = a_d_norm  # the check a_norm_below_epsilon states the same norm
        assert not replay_certificate(data).all_passed

    def test_replay_records_tampering_with_no_real_root(self, eps3):
        # a tampered k0 drives the discriminant of Z(k0, s1, j2) negative;
        # replay records the failed identity instead of raising
        cert = theorem31_bound(state_from_vortex(vortex_with_a3(1000 * eps3), DELTA0))
        data = cert.to_dict()
        data["intermediate"]["k0_at_t0"] = 1e6
        rows = {name: passed for name, passed, _ in replay_certificate(data).results}
        assert rows["identity:v1"] is False

    def test_replay_detects_violated_inequality(self):
        cert = LifespanCertificate(
            t0=1.0, theorem="thm41", delta_used=0.3,
            intermediate={"k0_at_t0": 2.0, "k0_prime_at_t0": 1.0, "k_zero_sup": 2.0,
                          "threshold": 1.0, "j_bar": 3.0 / 16.0},
            iterate_bound=4.0, feasible=True,
            checks=(InequalityCheck("k_zero_below_threshold", 2.0, "<=", 1.0),),
        )
        report = replay_certificate(cert)
        assert not report.all_passed


THEOREMS = ("thm31", "thm41", "thm41-explicit", "global")


@pytest.fixture(scope="module")
def feasible_certificates(eps3):
    return {
        "thm31": theorem31_bound(state_from_vortex(vortex_with_a3(1000 * eps3), DELTA0)),
        "thm41": theorem41_bound(state_from_vortex(vortex_with_a3(100 * eps3), DELTA0)),
        "thm41-explicit": theorem41_explicit(TestCertificatePlumbing.THETA_BINDS, 3, DELTA0),
        "global": global_certificate(1e-6, 3, DELTA0),
    }


class TestReplayMutations:
    """Tampered or incomplete certificates fail replay, by a failing row and never by an exception."""

    def test_global_norm_set_to_one(self, feasible_certificates):
        data = feasible_certificates["global"].to_dict()
        data["intermediate"]["a_d_norm"] = 1.0
        assert not replay_certificate(data).all_passed

    def test_envelope_values_at_twice_the_threshold(self, feasible_certificates):
        data = feasible_certificates["thm41"].to_dict()
        inter = data["intermediate"]
        inter["k0_at_t0"] = inter["k_zero_sup"] = 2.0 * inter["threshold"]
        assert not replay_certificate(data).all_passed

    def test_halved_coupled_check_side(self, feasible_certificates):
        data = feasible_certificates["thm31"].to_dict()
        assert data["checks"][0]["name"] == "k0_below_v1"
        data["checks"][0]["lhs"] /= 2.0
        assert not replay_certificate(data).all_passed

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_deleted_check(self, feasible_certificates, theorem):
        cert = feasible_certificates[theorem]
        assert cert.checks
        for i in range(len(cert.checks)):
            data = cert.to_dict()
            del data["checks"][i]
            assert not replay_certificate(data).all_passed, cert.checks[i].name

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_deleted_or_non_numeric_intermediate(self, feasible_certificates, theorem):
        cert = feasible_certificates[theorem]
        for name in cert.intermediate:
            data = cert.to_dict()
            del data["intermediate"][name]
            assert not replay_certificate(data).all_passed, name
            data = cert.to_dict()
            data["intermediate"][name] = "not a number"
            assert not replay_certificate(data).all_passed, name
            stored = LifespanCertificate(
                cert.t0, cert.theorem, cert.delta_used, {**cert.intermediate, name: None},
                cert.iterate_bound, cert.feasible, cert.checks, cert.notes,
            )
            assert not replay_certificate(stored).all_passed, name


def _certificate(theorem: str, data: VortexGaussian, delta: float, bundle: bool) -> LifespanCertificate:
    d = data.d
    norms = norm_bundle_from_vortex(data, theta=0.5)
    if theorem == "global":
        return global_certificate(norms.lp_norms[float(d)], d, delta)
    if theorem == "thm41-explicit":
        return theorem41_explicit(norms, d, delta)
    state = state_from_norms(norms, d, delta) if bundle else state_from_vortex(data, delta)
    if theorem == "thm31":
        return theorem31_bound(state)
    if theorem == "thm41":
        return theorem41_bound(state)
    # forced: exponents inside the feasible window, lambdas matching the Kato weights
    theta1 = d / (1.0 + delta) + 0.5 * (d - d / (1.0 + delta))
    f1 = ForceNorm(theta1, matching_lambda_k0(d, delta, theta1), 1e-9)
    f2 = ForceNorm(0.75 * d, matching_lambda_k0_prime(d, 0.75 * d), 1e-9)
    return forced_lifespan(state, f1, f2)


class TestDerivedChecks:
    @settings(max_examples=80, deadline=None)
    @given(
        theorem=st.sampled_from((*THEOREMS, "forced")),
        d=st.integers(3, 5),
        delta=st.floats(0.05, 0.9),
        log_sigma=st.floats(-1.0, 1.0),
        log_amplitude=st.floats(-8.0, 1.0),
        bundle=st.booleans(),
    )
    def test_stored_checks_equal_derived_checks(self, theorem, d, delta, log_sigma, log_amplitude, bundle):
        # after the report's JSON round trip, replay derives exactly the stored checks
        data = VortexGaussian(d, 10.0**log_sigma, 10.0**log_amplitude)
        cert = _certificate(theorem, data, delta, bundle)
        stored = LifespanCertificate.from_dict(decode_infinities(json.loads(canonical_dumps(cert.to_dict()))))
        if not stored.feasible:
            return
        assert stored.checks == _derived_checks(stored.theorem, stored.t0, stored.delta_used, stored.intermediate)
        assert "derived:checks" not in [name for name, _, _ in replay_certificate(stored).results]
