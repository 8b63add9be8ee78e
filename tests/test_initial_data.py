import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import oracle_utils as oracle
from nslifespan import initial_data as idmod
from nslifespan.constants import DELTA0, composite_constants
from nslifespan.errors import DomainError, UnavailableBoundError
from nslifespan.initial_data import (
    _AXIAL_NODES,
    _GAUSS_NODES,
    NormBundle,
    _gauss_laguerre,
    _grad_unit_constant,
    grad_norm,
    k0_bound_from_norms,
    k0_exact,
    k0_prime_bound_from_norms,
    k0_prime_exact,
    k0_prime_root,
    k0_root,
    lp_norm,
    norm_bundle_from_vortex,
    peak_times,
)
from oracle_utils import VortexGaussian

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestField:
    def test_divergence_free_finite_differences(self, rng):
        data = VortexGaussian(3, 1.2, 0.8)
        pts = rng.normal(scale=1.5, size=(1000, 3))
        h = 1e-5
        div = np.zeros(len(pts))
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            div += (data.evaluate(pts + e)[:, axis] - data.evaluate(pts - e)[:, axis]) / (2 * h)
        scale = float(np.max(data.gradient_frobenius(pts)))
        assert np.all(np.abs(div) <= 1e-8 * max(scale, 1.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            VortexGaussian(2, 1.0, 1.0)
        with pytest.raises(DomainError):
            VortexGaussian(3, 0.0, 1.0)
        with pytest.raises(DomainError):
            VortexGaussian(3, 1.0, -1.0)

    def test_magnitude_matches_components(self, rng):
        data = VortexGaussian(4, 0.7, 2.0)
        pts = rng.normal(size=(50, 4))
        vec = data.evaluate(pts)
        assert np.allclose(np.linalg.norm(vec, axis=-1), data.magnitude(pts), rtol=1e-13)


class TestLpNorm:
    @pytest.mark.parametrize("delta", [0.2, DELTA0, 0.8])
    @pytest.mark.parametrize("p_kind", ["d", "d+1", "d/delta"])
    def test_closed_form_vs_quadrature(self, delta, p_kind):
        data = VortexGaussian(3, 1.1, 0.9)
        p = {"d": 3.0, "d+1": 4.0, "d/delta": 3.0 / delta}[p_kind]
        assert lp_norm(data, p) == pytest.approx(oracle.lp_norm_quadrature(data, p), rel=1e-8)

    def test_closed_form_vs_quadrature_d4(self):
        data = VortexGaussian(4, 0.8, 1.3)
        assert lp_norm(data, 5.0) == pytest.approx(oracle.lp_norm_quadrature(data, 5.0), rel=1e-8)

    def test_box_simpson_cross_check(self):
        # a full 3-D tensor grid validates the radial reduction itself
        data = VortexGaussian(3, 1.0, 1.0)
        assert lp_norm(data, 3.0) == pytest.approx(oracle.lp_norm_box_simpson(data, 3.0), rel=1e-6)

    def test_reference_value(self):
        assert lp_norm(VortexGaussian(3, 1.0, 1.0), 3.0) == pytest.approx(1.2992590299069182, rel=1e-13)

    def test_zero_amplitude(self):
        assert lp_norm(VortexGaussian(3, 1.0, 0.0), 3.0) == 0.0

    def test_homogeneity(self):
        base = VortexGaussian(3, 1.4, 1.0)
        assert lp_norm(base.scaled(3.5), 4.0) == pytest.approx(3.5 * lp_norm(base, 4.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            lp_norm(VortexGaussian(3, 1.0, 1.0), 0.5)

    def test_log_convexity_in_inverse_p(self):
        data = VortexGaussian(3, 0.9, 2.0)
        p0, p1 = 3.0, 6.0
        for lam in (0.25, 0.5, 0.75):
            inv_p = (1 - lam) / p0 + lam / p1
            p = 1.0 / inv_p
            interp = lp_norm(data, p0) ** (1 - lam) * lp_norm(data, p1) ** lam
            assert lp_norm(data, p) <= interp * (1 + 1e-12)


class TestGradNorm:
    def test_zero(self):
        assert grad_norm(VortexGaussian(3, 1.0, 0.0)) == 0.0

    def test_positive_and_schemes_agree(self):
        data = VortexGaussian(3, 1.0, 1.0)
        value = grad_norm(data)
        assert value > 0
        assert value == pytest.approx(oracle.grad_norm_simpson(data), rel=1e-6)

    def test_scheme_agreement_d4(self):
        data = VortexGaussian(4, 1.3, 0.6)
        assert grad_norm(data) == pytest.approx(oracle.grad_norm_simpson(data), rel=1e-6)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_unit_constant_matches_dblquad(self, d):
        assert _grad_unit_constant(d) == pytest.approx(oracle.grad_unit_constant_dblquad(d), rel=1e-14)

    @pytest.mark.parametrize("d", [4, 8, 20, 50, 100])
    def test_unit_constant_exact_for_even_d(self, d):
        # the largest Gauss nodes have weights near 1e-250 and integrand
        # values up to 1e108 (d = 100), so their weights must be accurate in
        # relative terms, not only to an absolute 1e-32
        assert _grad_unit_constant(d) == pytest.approx(oracle.grad_unit_constant_even_exact(d), rel=1e-14)

    def test_gauss_rules_cached_read_only_and_unchanged(self):
        nodes, weights = _gauss_laguerre(150, 0.5)
        cached_nodes, cached_weights = _gauss_laguerre(150, 0.5)
        assert cached_nodes is nodes and cached_weights is weights
        assert type(nodes) is tuple and type(weights) is tuple
        with pytest.raises(TypeError):
            nodes[0] = 0.0
        with pytest.raises(TypeError):
            weights[0] = 0.0
        assert _gauss_laguerre.__wrapped__(150, 0.5) == (nodes, weights)

    @pytest.mark.parametrize(
        "d", [3, 4, 5, 6, 7, 11, 20, 37, 38, 64, 101, 150, 201, 333, 499, 500, 877, 878, 963, 2000, 3828]
    )
    def test_rule_matches_golub_welsch(self, d):
        # both rule sizes at the axial alpha; the 150-node rule once kept an unconverged first
        # node at d = 877 and 878, and the 64-node rule from d = 2264 on (a crash or hang from 3828)
        alpha = (d - 4) / 2.0
        for n in (_GAUSS_NODES, _AXIAL_NODES):
            nodes, weights = _gauss_laguerre(n, alpha)
            ref_nodes, ref_weights = oracle.gauss_laguerre_golub_welsch(n, alpha)
            assert all(a < b for a, b in zip(nodes, nodes[1:]))
            # the eigensolve's smallest nodes are off by up to 1e-13 relative against mpmath, where
            # this rule's are within a few ulps (test_smallest_nodes_to_a_few_ulps), so nodes compare
            # on the rule's scale, and the weights, which follow the nodes, to 1e-12
            assert np.max(np.abs(np.array(nodes) - ref_nodes)) <= 1e-14 * ref_nodes[-1]
            assert np.array(weights) == pytest.approx(ref_weights, rel=1e-12, abs=0.0)
        if d < 963:  # the oracle's direct product overflows beyond
            assert _grad_unit_constant(d) == pytest.approx(
                oracle.grad_unit_constant_golub_welsch(d), rel=1e-14, abs=0.0
            )

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_split_passes_keep_the_rule_bits(self, alpha):
        # the planar rule and the axial rules of d = 3, 4, 5, against the single-pass builder
        for n in (_GAUSS_NODES, _AXIAL_NODES):
            assert _gauss_laguerre.__wrapped__(n, alpha) == oracle.gauss_laguerre_single_loop(n, alpha)

    def test_smallest_nodes_to_a_few_ulps(self):
        for alpha in (-0.5, 0.0, 0.5):
            nodes, _ = _gauss_laguerre(150, alpha)
            for x in nodes[:5]:
                with mpmath.workdps(40):
                    root = float(mpmath.findroot(lambda t: mpmath.laguerre(150, alpha, t), mpmath.mpf(x)))
                assert x == pytest.approx(root, rel=2e-15, abs=0.0)

    def test_constant_past_the_direct_sum_matches_scaled_quadrature(self):
        # Q^{d/2} overflows the 150-node rule's direct sum from d = 963 on; the 64-node axial
        # rule sums 963 and 1000 directly, and its sum overflows at 2000
        for d in (963, 1000):
            assert _grad_unit_constant(d) == pytest.approx(oracle.grad_unit_constant_scaled_quad(d), rel=1e-12, abs=0.0)
        with pytest.raises(DomainError, match="^the gradient constant's sum leaves the range of the doubles for d=2000$"):
            _grad_unit_constant(2000)

    def test_constants_match_benchmark_reference(self):
        stored = json.loads((REPO_ROOT / "perfbench" / "grad_unit_constants.json").read_text(encoding="utf-8"))
        for d in (3, 4, 5):
            assert abs(_grad_unit_constant(d) - stored[str(d)]) <= 4 * math.ulp(stored[str(d)])

    def test_pure_power_law_in_sigma(self):
        base = VortexGaussian(3, 1.0, 1.0)
        wide = VortexGaussian(3, 2.0, 1.0)
        exponent = math.log(grad_norm(wide) / grad_norm(base)) / math.log(2.0)
        assert exponent == pytest.approx(1.0, abs=1e-9)


class TestHeatEvolution:
    def test_semigroup_property(self):
        data = VortexGaussian(3, 0.8, 1.7)
        one = data.evolve(0.3).evolve(0.9)
        two = data.evolve(1.2)
        assert one.sigma == pytest.approx(two.sigma, rel=1e-12)
        assert one.amplitude == pytest.approx(two.amplitude, rel=1e-12)

    def test_evolve_zero_is_identity(self):
        data = VortexGaussian(3, 0.8, 1.7)
        assert data.evolve(0.0) is data

    @staticmethod
    def _outcome(make):
        try:
            field = make()
        except (DomainError, OverflowError) as exc:
            return type(exc).__name__, str(exc)
        return type(field).__name__, field.d, field.sigma.hex(), field.amplitude.hex()

    def test_evolve_rejects_exactly_what_the_constructor_rejects(self, rng):
        # the evolved width and amplitude, built through the constructor
        def constructed(data, t):
            s2 = data.sigma * data.sigma  # a zero field's sigma^2 may round to inf
            w2 = s2 + 2.0 * t
            return idmod.VortexGaussian(data.d, math.sqrt(w2), data.amplitude * (s2 / w2) ** ((data.d + 2) / 2.0))

        big = sys.float_info.max
        sigmas = [5e-324, 1e-162, 1e-154, 1.0, 1e154, math.sqrt(big), 1e200]
        amplitudes = [0.0, 5e-324, 1.0, big]
        times = [5e-324, 1e-300, 1.0, 1e300, 1e308, big, math.inf, math.nan]
        cases = []
        for d in (3, 7):
            for sigma in sigmas:
                for amplitude in amplitudes:
                    try:
                        data = idmod.VortexGaussian(d, sigma, amplitude)
                    except DomainError:
                        continue
                    edge = (big - sigma * sigma) / 2.0 if sigma * sigma < big else big  # where sigma^2 + 2t overflows
                    edges = [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
                    cases += [(data, t) for t in times + edges]
        for _ in range(2000):
            data = idmod.VortexGaussian(
                int(rng.integers(3, 9)), 10.0 ** rng.uniform(-150, 150), 10.0 ** rng.uniform(-300, 300)
            )
            cases.append((data, 10.0 ** rng.uniform(-320, 308)))
        outcomes = []
        for data, t in cases:
            outcomes.append(self._outcome(lambda: data.evolve(t)))
            assert outcomes[-1] == self._outcome(lambda: constructed(data, t)), (data, t)
        rejected = {outcome for outcome in outcomes if outcome[0] != "VortexGaussian"}
        assert rejected == {
            ("DomainError", "sigma must be positive and finite, got inf"),
            ("DomainError", "sigma must be positive and finite, got nan"),
        }
        with pytest.raises(DomainError, match="^sigma must be positive and finite, got inf$"):
            idmod.VortexGaussian(3, 1e154, 1.0).evolve(1e308)
        # a zero field may have a sigma whose square leaves the doubles; its width is then not finite
        with pytest.raises(DomainError, match="^sigma must be positive and finite, got inf$"):
            idmod.VortexGaussian(3, 1e200, 0.0).evolve(1.0)

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_against_direct_convolution(self, t):
        data = VortexGaussian(3, 1.0, 0.7)
        evolved = data.evolve(t)
        for x in ([0.3, -0.4, 0.7], [1.0, 0.5, -0.2], [0.0, 1.5, 0.3]):
            x = np.asarray(x)
            vec = evolved.evaluate(x)
            for comp in (0, 1):
                conv = oracle.convolved_component(data, t, x, comp)
                assert vec[comp] == pytest.approx(conv, rel=1e-6, abs=1e-12)


class TestWeightedSup:
    def test_k0_vanishes_at_zero_and_is_monotone(self):
        data = VortexGaussian(3, 1.0, 1.0)
        values = [k0_exact(data, DELTA0, 10.0 ** (-k)) for k in range(1, 7)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier * (1 + 1e-12)
        assert 0 < values[-1] < 0.05 * values[0]
        # below the interior maximizer the decay is the pure weight power
        assert values[-1] / values[-2] == pytest.approx(10.0 ** (-(1 - DELTA0) / 2), rel=1e-3)

    def test_k0_prime_vanishes_at_zero_and_is_monotone(self):
        data = VortexGaussian(3, 1.0, 1.0)
        values = [k0_prime_exact(data, 10.0 ** (-k)) for k in range(1, 7)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier * (1 + 1e-12)
        assert values[-1] < 1e-2 * values[0]

    def test_k0_monotone_in_horizon(self):
        data = VortexGaussian(3, 1.3, 0.5)
        ts = [0.01, 0.1, 1.0, 10.0, math.inf]
        vals = [k0_exact(data, 0.4, t) for t in ts]
        assert vals == sorted(vals)

    def test_k0_infinity_matches_analytic_argmax(self):
        # the log-derivative of the closed form vanishes at
        # t* = (1 - delta) sigma^2 / (2 d); independent of the maximizer
        data = VortexGaussian(3, 1.2, 0.9)
        delta = 0.35
        t_star = (1 - delta) * data.sigma**2 / (2 * data.d)
        phi = lambda t: t ** ((1 - delta) / 2) * lp_norm(data.evolve(t), data.d / delta)
        assert k0_exact(data, delta, math.inf) == pytest.approx(phi(t_star), rel=1e-9)

    def test_k0_prime_infinity_matches_analytic_argmax(self):
        data = VortexGaussian(4, 0.8, 1.1)
        t_star = data.sigma**2 / (2 * data.d)
        psi = lambda t: math.sqrt(t) * grad_norm(data.evolve(t))
        assert k0_prime_exact(data, math.inf) == pytest.approx(psi(t_star), rel=1e-9)

    def test_semigroup_envelope_dominates(self, rng):
        for _ in range(20):
            d = int(rng.integers(3, 6))
            data = VortexGaussian(d, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.01, 5.0)))
            delta = float(rng.uniform(0.15, 0.85))
            cs = composite_constants(d, delta)
            a_d = lp_norm(data, float(d))
            assert k0_exact(data, delta, math.inf) <= cs.s1 * a_d * (1 + 1e-12)
            assert k0_prime_exact(data, math.inf) <= cs.s2 * a_d * (1 + 1e-12)

    def test_k0_prime_below_sqrt_t_bound(self, rng):
        data = VortexGaussian(3, 1.0, 2.0)
        gn = grad_norm(data)
        for T in (0.01, 0.5, 3.0, 40.0):
            assert k0_prime_exact(data, T) <= math.sqrt(T) * gn * (1 + 1e-12)

    def test_zero_amplitude(self):
        data = VortexGaussian(3, 1.0, 0.0)
        assert k0_exact(data, 0.3, 1.0) == 0.0
        assert k0_prime_exact(data, 1.0) == 0.0

    def test_k0_tiny_horizon(self):
        # a horizon far below the peak time returns the weighted norm at T
        data = VortexGaussian(3, 1.0, 1.0)
        T = 1e-30
        expected = T ** ((1 - 0.3) / 2) * lp_norm(data.evolve(T), 3 / 0.3)
        assert k0_exact(data, 0.3, T) == pytest.approx(expected, rel=1e-15)

    def test_horizon_must_be_positive(self):
        data = VortexGaussian(3, 1.0, 1.0)
        for T in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                k0_exact(data, 0.3, T)
            with pytest.raises(DomainError):
                k0_prime_exact(data, T)

    @pytest.mark.parametrize("d, sigma, amplitude, delta", [
        (3, 1.0, 1.0, 0.3), (4, 0.01, 1e3, 0.001), (5, 5.0, 1e-4, 0.97), (3, 0.2, 25.0, DELTA0),
    ])
    def test_roots_invert_the_evaluators(self, d, sigma, amplitude, delta):
        data = VortexGaussian(d, sigma, amplitude)
        evaluators = ((lambda T: k0_exact(data, delta, T), lambda y: k0_root(data, delta, y)),
                      (lambda T: k0_prime_exact(data, T), lambda y: k0_prime_root(data, y)))
        for fn, root in evaluators:
            peak = fn(math.inf)
            for fraction in (1e-12, 1e-3, 0.5, 0.999999):
                T = root(fraction * peak)
                if T == math.ulp(0.0):  # the root lies below every positive double
                    assert fn(T) > fraction * peak
                else:
                    assert fn(T) == pytest.approx(fraction * peak, rel=1e-13)
            assert root(peak * (1.0 + 1e-12)) == math.inf
            assert root(0.0) == 0.0 and root(-1.0) == 0.0

    @pytest.mark.parametrize("d, sigma, amplitude, delta", [
        (3, 1.0, 1.0, 0.3), (4, 0.01, 1e3, 0.001), (5, 5.0, 1e-4, 0.97), (3, 0.2, 25.0, DELTA0),
        (3, 1e-150, 1e300, 0.5), (7, 1e150, 1e-300, 0.9),
    ])
    def test_values_repeat_from_the_peak_times_on(self, d, sigma, amplitude, delta):
        # the coupled route does not probe past these times, so every horizon from
        # the exact double on must give the value at infinity bit for bit
        data = VortexGaussian(d, sigma, amplitude)
        evaluators = (lambda T: k0_exact(data, delta, T), lambda T: k0_prime_exact(data, T))
        for peak, fn in zip(peak_times(data, delta), evaluators):
            assert 0.0 < peak < math.inf
            at_infinity = fn(math.inf).hex()
            for T in (peak, math.nextafter(peak, math.inf), peak * (1.0 + 1e-9), 2.0 * peak, 1e300 * peak):
                assert fn(T).hex() == at_infinity, T

    @pytest.mark.parametrize("sigma", [1e-200, 1.0, 1e200])
    def test_zero_field_never_saturates(self, sigma):
        # sigma^2 overflows at 1e200, which a zero field allows
        data = VortexGaussian(3, sigma, 0.0)
        assert peak_times(data, 0.3) == (math.inf, math.inf)

    def test_underflowing_peak_time_is_an_error_for_every_reader(self):
        # K0 of this field is positive at every T > 0, but its peak time underflows to 0;
        # K0''s peak time does not
        data = VortexGaussian(3, 1e-161, 1.0)
        message = "^the peak time of the weighted norm leaves the range of the doubles for sigma\\^2=1e-322$"
        for read in (lambda: k0_exact(data, 0.97, 1e-300), lambda: k0_exact(data, 0.97, math.inf),
                     lambda: k0_root(data, 0.97, 1e-3), lambda: peak_times(data, 0.97)):
            with pytest.raises(DomainError, match=message):
                read()
        assert k0_prime_exact(data, math.inf) > 0.0 and peak_times(data, 0.5)[1] > 0.0

    def test_roots_of_zero_data(self):
        data = VortexGaussian(3, 1.0, 0.0)
        assert k0_root(data, 0.3, 0.0) == math.inf and k0_prime_root(data, 1e-9) == math.inf
        assert k0_root(data, 0.3, -1e-9) == 0.0 and k0_prime_root(data, -1.0) == 0.0

    def test_evaluators_equal_the_evolved_field_composition(self, rng):
        # k0_exact and k0_prime_exact evaluate the profile norm0 t^a (1 + 2t/sigma^2)^{-b};
        # they must agree with the composition through evolve and the norms to rounding
        cases = [(VortexGaussian(d, 1.0, 0.0), 0.5, T) for d in (3, 7) for T in (5e-324, 1.0, math.inf)]
        for _ in range(6000):
            data = VortexGaussian(
                int(rng.integers(3, 8)), 10.0 ** rng.uniform(-3.0, math.log10(20.0)), 10.0 ** rng.uniform(-5.0, 2.0)
            )
            delta = float(rng.uniform(1e-3, 0.97))
            horizons = [10.0 ** rng.uniform(-40.0, 4.0), math.inf, 5e-324]
            horizons += list(peak_times(data, delta))
            cases += [(data, delta, T) for T in horizons]
        for data, delta, T in cases:
            assert k0_exact(data, delta, T) == pytest.approx(oracle.k0_by_evolution(data, delta, T), rel=1e-14, abs=0.0)
            assert k0_prime_exact(data, T) == pytest.approx(oracle.k0_prime_by_evolution(data, T), rel=1e-14, abs=0.0)

    def test_brute_force_grid_agrees(self):
        data = VortexGaussian(3, 1.0, 1.0)
        fn = lambda t: t ** ((1 - 0.3) / 2) * lp_norm(data.evolve(t), 10.0)
        brute = oracle.brute_force_weighted_sup(fn, math.inf, 40001)
        assert k0_exact(data, 0.3, math.inf) == pytest.approx(brute, rel=1e-7)


class TestNormBundle:
    def test_roundtrip(self):
        bundle = NormBundle(lp_norms={3.0: 1.2, 4.0: 0.9}, grad_d_norm=2.0, theta=1.0, norm_d_plus_theta=0.9)
        again = NormBundle.from_dict(bundle.to_dict())
        assert again == bundle

    def test_validation(self):
        with pytest.raises(DomainError):
            NormBundle(lp_norms={0.5: 1.0})
        with pytest.raises(DomainError):
            NormBundle(lp_norms={3.0: 1.0}, theta=1.0)  # missing companion norm
        with pytest.raises(DomainError):
            NormBundle(lp_norms={3.0: 1.0}, grad_d_norm=-1.0)

    @pytest.mark.parametrize("keys", [("3", "3.0"), ("3.0", "3"), ("3.0", "3e0")])
    def test_repeated_exponent_rejected(self, keys):
        with pytest.raises(DomainError, match="exponent 3.0 twice"):
            NormBundle.from_dict({"lp_norms": dict(zip(keys, (1e-6, 0.01)))})

    def test_from_vortex(self):
        data = VortexGaussian(3, 1.0, 1.0)
        bundle = norm_bundle_from_vortex(data, theta=1.0)
        assert bundle.lp_norms[3.0] == pytest.approx(lp_norm(data, 3.0))
        assert bundle.norm_d_plus_theta == pytest.approx(lp_norm(data, 4.0))
        assert bundle.grad_d_norm == pytest.approx(grad_norm(data))


class TestNormBounds:
    def test_k0_bound_examples(self):
        bundle = NormBundle(lp_norms={3.0: 1.0}, theta=1.0, norm_d_plus_theta=1.0)
        assert k0_bound_from_norms(bundle, 3, DELTA0, 0.0) == 0.0
        assert k0_bound_from_norms(bundle, 3, DELTA0, 1.0) == pytest.approx(16.0, rel=1e-15)
        doubled = NormBundle(lp_norms={3.0: 1.0}, theta=1.0, norm_d_plus_theta=2.0)
        assert k0_bound_from_norms(doubled, 3, DELTA0, 1.0) == pytest.approx(32.0, rel=1e-15)

    def test_k0_bound_missing_norm(self):
        bundle = NormBundle(lp_norms={3.0: 1.0})
        with pytest.raises(UnavailableBoundError):
            k0_bound_from_norms(bundle, 3, DELTA0, 1.0)

    def test_k0_bound_theta_out_of_range(self):
        # theta must lie in (0, min(1, (d-1)/delta)]; 1.0 is the upper end here
        assert k0_bound_from_norms(NormBundle(lp_norms={}, theta=1.0, norm_d_plus_theta=1.0), 3, 0.5, 1.0) > 0
        bundle = NormBundle(lp_norms={}, theta=2.5, norm_d_plus_theta=1.0)
        with pytest.raises(DomainError):
            k0_bound_from_norms(bundle, 3, 0.5, 1.0)

    def test_k0_prime_bound(self):
        bundle = NormBundle(lp_norms={3.0: 1.0}, grad_d_norm=1.0)
        assert k0_prime_bound_from_norms(bundle, 0.0) == 0.0
        assert k0_prime_bound_from_norms(bundle, 4.0) == pytest.approx(2.0, rel=1e-15)
        with pytest.raises(UnavailableBoundError):
            k0_prime_bound_from_norms(NormBundle(lp_norms={3.0: 1.0}), 4.0)

    def test_exact_below_norm_bounds(self, rng):
        for _ in range(10):
            data = VortexGaussian(3, float(rng.uniform(0.6, 1.8)), float(rng.uniform(0.1, 3.0)))
            bundle = norm_bundle_from_vortex(data, theta=0.5)
            T = float(rng.uniform(0.05, 2.0))
            assert k0_prime_exact(data, T) <= k0_prime_bound_from_norms(bundle, T) * (1 + 1e-12)
            assert k0_exact(data, DELTA0, T) <= k0_bound_from_norms(bundle, 3, DELTA0, T) * (1 + 1e-12)
