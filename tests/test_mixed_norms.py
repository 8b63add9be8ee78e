import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslifespan.constants import (
    DELTA0,
    ExponentPair,
    beta_fn,
    composite_constants,
    default_delta_grid,
    heat_kernel_grad_norm,
    heat_kernel_norm,
    riesz_constant,
    young_constant,
)
from nslifespan.errors import DomainError, InfeasibleExponentError
from nslifespan.mixed_norms import (
    SolutionNormInputs,
    ThetaExponents,
    grand_lebesgue_norm,
    nu_bound,
    psi_bound,
    psi_min,
)


def demo_inputs(d: int = 3, delta: float = DELTA0, a_d: float = 1.2992590299069182) -> SolutionNormInputs:
    bound = composite_constants(d, delta).iterate_bound
    return SolutionNormInputs(k_sup=bound, k_prime_sup=bound, a_d_norm=a_d)


class TestThetaExponents:
    def test_identities_randomized(self, rng):
        count = 0
        while count < 1000:
            d = int(rng.integers(3, 7))
            delta = float(rng.uniform(0.05, 0.95))
            q = float(d + rng.random() * 3 * d)
            try:
                th = ThetaExponents.create(d, q, delta)
            except (DomainError, InfeasibleExponentError):
                continue
            count += 1
            for name, residual in th.identity_residuals().items():
                assert abs(residual) <= 1e-12, (name, d, q, delta)

    def test_ranges(self):
        th = ThetaExponents.create(3, 4.0, DELTA0)
        for name in ("theta1", "theta2", "theta3", "theta4"):
            assert 1.0 < getattr(th, name) < math.inf
        for name in ("theta5", "theta6", "theta7"):
            assert 1.0 - 1e-12 <= getattr(th, name) < math.inf

    def test_boundary_q_equals_d(self):
        th = ThetaExponents.create(3, 3.0, 0.4)
        assert th.theta5 == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            ThetaExponents.create(3, 2.0, 0.4)  # q < d
        with pytest.raises(DomainError):
            ThetaExponents.create(3, 4.0, 1.2)
        with pytest.raises(DomainError):
            ThetaExponents.create(2, 4.0, 0.4)


class TestPsi:
    def test_zero_inputs(self):
        zero = SolutionNormInputs(0.0, 0.0, 0.0)
        assert psi_bound(3, 4.0, DELTA0, zero) == 0.0

    def test_boundary_q_equals_d_finite(self):
        value = psi_bound(3, 3.0, DELTA0, demo_inputs())
        assert 0.0 < value < math.inf

    def test_demo_value_against_term_oracle(self):
        d, q, delta = 3, 4.0, DELTA0
        inputs = demo_inputs()
        value = psi_bound(d, q, delta, inputs)
        assert 0.0 < value < math.inf
        # independent term-by-term re-evaluation
        th = ThetaExponents.create(d, q, delta)
        term1 = (
            young_constant(d, ExponentPair(th.theta1, th.theta2))
            * inputs.k_sup
            * inputs.k_prime_sup
            * riesz_constant(d / delta)
            * riesz_constant(float(d))
            * heat_kernel_norm(d, th.theta1)
            * beta_fn((1 - delta) / 2 + d / (2 * q), delta / 2)
        )
        term2 = 0.5 * heat_kernel_norm(d, d * d / (d - 1.0)) * inputs.a_d_norm
        assert value == pytest.approx(term1 + term2, rel=1e-12)

    def test_monotone_in_inputs(self):
        lo = psi_bound(3, 4.0, DELTA0, SolutionNormInputs(1e-3, 1e-3, 0.5))
        hi = psi_bound(3, 4.0, DELTA0, SolutionNormInputs(2e-3, 1e-3, 0.5))
        hi2 = psi_bound(3, 4.0, DELTA0, SolutionNormInputs(1e-3, 1e-3, 0.9))
        assert hi > lo and hi2 > lo

    def test_term_oracle_randomized(self, rng):
        # the single-demo oracle, broadened over random admissible triples
        count = 0
        while count < 50:
            d = int(rng.integers(3, 7))
            delta = float(rng.uniform(0.05, 0.95))
            q = float(d + rng.random() * d)
            inputs = SolutionNormInputs(
                float(rng.uniform(0, 0.01)), float(rng.uniform(0, 0.01)), float(rng.uniform(0, 2))
            )
            try:
                value = psi_bound(d, q, delta, inputs)
            except (DomainError, InfeasibleExponentError):
                continue
            count += 1
            th = ThetaExponents.create(d, q, delta)
            term1 = (
                young_constant(d, ExponentPair(th.theta1, th.theta2))
                * inputs.k_sup
                * inputs.k_prime_sup
                * riesz_constant(d / delta)
                * riesz_constant(float(d))
                * heat_kernel_norm(d, th.theta1)
                * beta_fn((1 - delta) / 2 + d / (2 * q), delta / 2)
            )
            term2 = 0.5 * heat_kernel_norm(d, d * d / (d - 1.0)) * inputs.a_d_norm
            assert value == pytest.approx(term1 + term2, rel=1e-12)

    def test_young_inadmissible_q_raises(self):
        # beyond q = d(2+delta)/(1+delta) the printed exponent pair stops
        # being Young-admissible and the violation is surfaced
        q_bad = 3 * (2 + DELTA0) / (1 + DELTA0) + 0.05
        with pytest.raises(InfeasibleExponentError):
            psi_bound(3, q_bad, DELTA0, demo_inputs())


class TestPsiMin:
    def test_infimum_below_every_grid_point(self):
        inputs = demo_inputs()
        grid = (0.15, 0.3, 0.5, 0.7, 0.9)
        result = psi_min(3, 4.0, inputs, grid)
        for dlt, value in result.profile:
            assert result.value <= value
        assert result.delta in grid

    def test_refinement_never_increases(self):
        inputs = demo_inputs()
        coarse = (0.2, 0.4, 0.6)
        fine = coarse + (0.3, 0.5, 0.7)
        assert psi_min(3, 4.0, inputs, fine).value <= psi_min(3, 4.0, inputs, coarse).value

    def test_deterministic(self):
        inputs = demo_inputs()
        a = psi_min(3, 5.0, inputs, default_delta_grid())
        b = psi_min(3, 5.0, inputs, default_delta_grid())
        assert a == b

    def test_grid_stability(self):
        # the profile is smooth in delta, so refining the default hybrid grid
        # moves the infimum by well under a relative 1e-3

        inputs = demo_inputs()
        coarse = psi_min(3, 4.0, inputs, default_delta_grid(16)).value
        fine = psi_min(3, 4.0, inputs, default_delta_grid(64)).value
        assert abs(fine - coarse) <= 1e-3 * coarse

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.lists(st.sampled_from((0.15, 0.2, DELTA0, 0.5, 0.7)), min_size=1, unique=True),
        quadratic=st.booleans(),
        data=st.data(),
    )
    def test_argmin_independent_of_grid_order(self, grid, quadratic, data):
        # without the quadratic term psi does not depend on delta: every
        # grid point ties, and the tie goes to the smallest delta
        inputs = demo_inputs() if quadratic else SolutionNormInputs(0.0, 0.0, 1.0)
        result = psi_min(3, 4.0, inputs, grid)
        shuffled = psi_min(3, 4.0, inputs, data.draw(st.permutations(grid)))
        assert (shuffled.value, shuffled.delta) == (result.value, result.delta)
        assert [dlt for dlt, _ in result.profile] == grid
        assert result.delta == min(dlt for dlt, value in result.profile if value == result.value)

    def test_no_admissible_delta(self):
        # at q far beyond 2d no delta keeps the psi pair admissible
        with pytest.raises(DomainError):
            psi_min(3, 12.0, demo_inputs(), (0.2, 0.5, 0.8))


class TestNu:
    def test_data_term_only(self):
        inputs = SolutionNormInputs(0.0, 0.0, 0.7)
        d, q, delta = 3, 4.0, DELTA0
        value = nu_bound(d, q, delta, inputs)
        th = ThetaExponents.create(d, q, delta)
        expected = (
            young_constant(d, ExponentPair(q, th.theta5))
            * heat_kernel_grad_norm(d, th.theta5)
            * 0.7
        )
        assert value == pytest.approx(expected, rel=1e-13)

    def test_boundary_q_equals_d(self):
        value = nu_bound(3, 3.0, 0.4, demo_inputs(delta=0.4))
        assert 0.0 < value < math.inf

    def test_demo_value_against_term_oracle(self):
        d, q, delta = 3, 5.0, DELTA0
        inputs = demo_inputs()
        value = nu_bound(d, q, delta, inputs)
        th = ThetaExponents.create(d, q, delta)
        data_term = (
            young_constant(d, ExponentPair(q, th.theta5))
            * heat_kernel_grad_norm(d, th.theta5)
            * inputs.a_d_norm
        )
        quad_term = (
            young_constant(d, ExponentPair(th.theta6, th.theta7))
            * riesz_constant(th.theta6)
            * riesz_constant(th.theta7)
            * inputs.k_sup
            * inputs.k_prime_sup
            * heat_kernel_grad_norm(d, th.theta6)
            * beta_fn((d / q - delta) / 2.0, delta / 2.0)
        )
        assert value == pytest.approx(data_term + quad_term, rel=1e-12)
        assert value > 0

    def test_beta_infeasibility_surfaced(self):
        # q between d/delta and 2d passes the data-term pairing but kills the
        # Beta factor's first argument
        with pytest.raises(InfeasibleExponentError) as err:
            nu_bound(3, 5.6, 0.55, demo_inputs(delta=0.55))
        assert "theta6" in str(err.value) and "d/delta" in str(err.value)

    def test_data_pair_infeasibility_surfaced(self):
        # q > 2d breaks the data-term Young pairing itself
        with pytest.raises(InfeasibleExponentError) as err:
            nu_bound(3, 8.0, 0.4, demo_inputs(delta=0.4))
        assert "theta5" in str(err.value)

    def test_feasible_region_nonempty_per_dimension(self):
        # scanned, not assumed: each d in 3..6 admits some (q, delta)
        for d in range(3, 7):
            found = False
            for delta in (0.1, 0.2, 0.3, 0.4):
                for q in (float(d), d + 0.5, d + 1.0):
                    try:
                        nu_bound(d, q, delta, SolutionNormInputs(1e-3, 1e-3, 1.0))
                        found = True
                    except (DomainError, InfeasibleExponentError):
                        continue
            assert found, f"no feasible (q, delta) for d={d}"

    def test_monotone_in_inputs(self):
        lo = nu_bound(3, 4.0, DELTA0, SolutionNormInputs(1e-3, 1e-3, 0.5))
        hi = nu_bound(3, 4.0, DELTA0, SolutionNormInputs(1e-3, 2e-3, 0.5))
        assert hi > lo


class TestGrandLebesgue:
    def test_self_ratio_is_exactly_one(self):
        inputs = demo_inputs()
        profile = [(q, psi_bound(3, q, DELTA0, inputs)) for q in (3.0, 3.5, 4.0, 4.5, 5.0)]
        assert grand_lebesgue_norm(profile, profile) == 1.0

    def test_zero_numerator(self):
        profile = [(3.0, 1.0), (4.0, 2.0)]
        zero = [(3.0, 0.0), (4.0, 0.0)]
        assert grand_lebesgue_norm(profile, zero) == 0.0

    def test_homogeneity(self):
        profile = [(3.0, 1.0), (4.0, 2.0), (5.0, 0.25)]
        half = [(q, 0.5 * v) for q, v in profile]
        assert grand_lebesgue_norm(profile, half) == 0.5

    def test_infinite_verdict(self):
        assert grand_lebesgue_norm([(3.0, 0.0)], [(3.0, 1.0)]) == math.inf

    def test_zero_over_zero_ignored(self):
        assert grand_lebesgue_norm([(3.0, 0.0), (4.0, 2.0)], [(3.0, 0.0), (4.0, 1.0)]) == 0.5

    def test_grid_mismatch(self):
        with pytest.raises(DomainError):
            grand_lebesgue_norm([(3.0, 1.0)], [(3.5, 1.0)])
        with pytest.raises(DomainError):
            grand_lebesgue_norm([(3.0, 1.0)], [(3.0, 1.0), (4.0, 1.0)])
        with pytest.raises(DomainError):
            grand_lebesgue_norm([], [])


class TestInputs:
    def test_validation(self):
        with pytest.raises(DomainError):
            SolutionNormInputs(-1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            SolutionNormInputs(0.0, math.inf, 0.0)
