import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslifespan.constants import (
    DELTA0,
    ExponentPair,
    beta_fn,
    heat_kernel_grad_norm,
    heat_kernel_norm,
    young_constant,
)
from nslifespan.errors import DomainError, InfeasibleExponentError
from nslifespan.extensions import (
    AbstractParabolicProblem,
    ForceNorm,
    abstract_parabolic_lifespan,
    force_contribution_k0,
    force_contribution_k0_prime,
    forced_lifespan,
    matching_lambda_k0,
    matching_lambda_k0_prime,
)
from nslifespan.initial_data import VortexGaussian
from nslifespan.lifespan import state_from_vortex, theorem41_bound


def admissible_k0_force(value: float, d: int = 3, delta: float = DELTA0, theta: float = 2.7) -> ForceNorm:
    return ForceNorm(theta, matching_lambda_k0(d, delta, theta), value)


def admissible_k0p_force(value: float, d: int = 3, theta: float = 2.0) -> ForceNorm:
    return ForceNorm(theta, matching_lambda_k0_prime(d, theta), value)


class TestForceNorm:
    def test_validation(self):
        with pytest.raises(DomainError):
            ForceNorm(0.5, -0.5, 1.0)
        with pytest.raises(DomainError):
            ForceNorm(2.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            ForceNorm(2.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            ForceNorm(2.0, -0.5, -1.0)


class TestMatchingHelpers:
    def test_k0_matching_residual_vanishes(self):
        d, delta, theta = 3, DELTA0, 2.7
        lam = matching_lambda_k0(d, delta, theta)
        r1 = 1.0 / (1.0 + delta / d - 1.0 / theta)
        assert d / 2 * (1 - 1 / r1) - 1 - lam == pytest.approx((1 - delta) / 2, abs=1e-15)

    def test_k0_prime_matching_makes_weight_exact(self):
        # the matched integral decays exactly like t^{-1/2}: the exponent
        # 1/2 - d(1-1/r2)/2 + lambda2 must equal -1/2
        d, theta = 3, 2.0
        lam = matching_lambda_k0_prime(d, theta)
        r2 = 1.0 / (1.0 + 1.0 / d - 1.0 / theta)
        t_power = 0.5 - d * (1 - 1 / r2) / 2 + lam
        assert t_power == pytest.approx(-0.5, abs=1e-15)

    def test_k0_prime_feasibility_window(self):
        # feasible exactly for lambda below -1/2 under the matching rule
        assert matching_lambda_k0_prime(3, 2.0) < -0.5
        contrib = force_contribution_k0_prime(3, admissible_k0p_force(1.0))
        assert contrib.feasible


class TestForceContributionK0:
    def test_zero_force(self):
        contrib = force_contribution_k0(3, DELTA0, admissible_k0_force(0.0))
        assert contrib.coefficient == 0.0 and contrib.feasible

    def test_linearity(self):
        c1 = force_contribution_k0(3, DELTA0, admissible_k0_force(1.0)).coefficient
        c2 = force_contribution_k0(3, DELTA0, admissible_k0_force(2.0)).coefficient
        assert c2 == pytest.approx(2.0 * c1, rel=1e-14)

    def test_admissible_sample_against_term_oracle(self):
        d, delta, theta = 3, DELTA0, 2.7
        force = admissible_k0_force(0.5)
        contrib = force_contribution_k0(d, delta, force)
        assert contrib.feasible and contrib.coefficient > 0
        r1 = 1.0 / (1.0 + delta / d - 1.0 / theta)
        expected = (
            young_constant(d, ExponentPair(r1, theta))
            * heat_kernel_norm(d, r1)
            * 0.5
            * beta_fn(1.0 - d * (1 - 1 / r1), 1.0 + force.lam)
        )
        assert contrib.coefficient == pytest.approx(expected, rel=1e-13)

    def test_mismatched_lambda_is_infeasible(self):
        lam = matching_lambda_k0(3, DELTA0, 2.7)
        force = ForceNorm(2.7, lam + 0.05, 1.0)
        contrib = force_contribution_k0(3, DELTA0, force)
        assert not contrib.feasible
        failed = {c.name for c in contrib.checks if not c.ok}
        assert "exponent_matching" in failed

    def test_decay_between_one_and_two(self):
        # engineered so d(1 - 1/r1) = 1.2: the nominal condition (< 2)
        # holds, but the literal Beta form needs < 1 and is infeasible
        d, delta = 3, DELTA0
        inv_r1 = 1.0 - 1.2 / d
        theta = 1.0 / (1.0 + delta / d - inv_r1)
        lam = matching_lambda_k0(d, delta, theta)
        assert -1.0 < lam < 0.0
        force = ForceNorm(theta, lam, 1.0)
        literal = force_contribution_k0(d, delta, force)
        assert not literal.feasible
        failed = {c.name for c in literal.checks if not c.ok}
        assert failed == {"decay_below_1_for_beta", "beta_first_argument_positive"}


class TestForceContributionK0Prime:
    def test_zero_force(self):
        contrib = force_contribution_k0_prime(3, admissible_k0p_force(0.0))
        assert contrib.coefficient == 0.0 and contrib.feasible

    def test_linearity(self):
        c1 = force_contribution_k0_prime(3, admissible_k0p_force(1.0)).coefficient
        c2 = force_contribution_k0_prime(3, admissible_k0p_force(3.0)).coefficient
        assert c2 == pytest.approx(3.0 * c1, rel=1e-14)

    def test_admissible_sample_against_term_oracle(self):
        d, theta = 3, 2.0
        force = admissible_k0p_force(0.25)
        contrib = force_contribution_k0_prime(d, force)
        assert contrib.feasible and contrib.coefficient > 0
        r2 = 1.0 / (1.0 + 1.0 / d - 1.0 / theta)
        expected = (
            young_constant(d, ExponentPair(r2, theta))
            * heat_kernel_grad_norm(d, r2)
            * 0.25
            * beta_fn(0.5 - d * (1 - 1 / r2) / 2.0, 1.0 + force.lam)
        )
        assert contrib.coefficient == pytest.approx(expected, rel=1e-13)

    def test_shallow_lambda_is_infeasible(self):
        # lambda above -1/2 cannot match the weight with a convergent Beta
        contrib = force_contribution_k0_prime(3, ForceNorm(2.0, -0.3, 1.0))
        assert not contrib.feasible


class TestForcedLifespan:
    @pytest.fixture
    def small_state(self):
        return state_from_vortex(VortexGaussian(3, 1.0, 1e-6), DELTA0)

    def test_zero_force_reproduces_unforced(self, small_state):
        cert = forced_lifespan(small_state, admissible_k0_force(0.0), admissible_k0p_force(0.0))
        plain = theorem41_bound(small_state)
        assert cert.t0 == plain.t0
        assert cert.checks == plain.checks
        assert cert.intermediate["force_k0_coefficient"] == 0.0

    def test_small_force_keeps_global(self, small_state):
        cert = forced_lifespan(small_state, admissible_k0_force(1e-7), admissible_k0p_force(1e-7))
        assert cert.t0 == math.inf
        assert any("forced variant" in n for n in cert.notes)

    def test_monotone_in_force(self, small_state):
        # force sizes straddling the threshold: infinity, finite, zero
        t0s = [
            forced_lifespan(small_state, admissible_k0_force(v), admissible_k0p_force(v)).t0
            for v in (1e-7, 1e-5, 1e-2)
        ]
        assert t0s[0] >= t0s[1] >= t0s[2]
        assert t0s[0] == math.inf

    def test_infeasible_force_raises_before_solve(self, small_state):
        bad = ForceNorm(2.7, matching_lambda_k0(3, DELTA0, 2.7) + 0.1, 1.0)
        with pytest.raises(InfeasibleExponentError):
            forced_lifespan(small_state, bad, admissible_k0p_force(1e-7))


class TestAbstractParabolic:
    def test_degenerate_nonlinearity(self):
        problem = AbstractParabolicProblem(
            gamma=0.5, c_gamma=1.0, alpha=1.0, k1=1e-12, k2=1e-12, t1=7.0, t2=4.0
        )
        res = abstract_parabolic_lifespan(problem)
        assert res.t == 4.0  # min(t1, t2)

    def test_power_law_in_k2(self):
        base = AbstractParabolicProblem(
            gamma=0.4, c_gamma=1.0, alpha=1.0, k1=1e-9, k2=0.8, t1=1e9, t2=1e9
        )
        doubled = AbstractParabolicProblem(
            gamma=0.4, c_gamma=1.0, alpha=1.0, k1=1e-9, k2=1.6, t1=1e9, t2=1e9
        )
        r1 = abstract_parabolic_lifespan(base)
        r2 = abstract_parabolic_lifespan(doubled)
        assert r2.t4 == pytest.approx(r1.t4 * 2.0 ** (-1.0 / 0.6), rel=1e-12)

    def test_gamma_collapse(self):
        ts = []
        for gamma in (0.5, 0.9, 0.99):
            problem = AbstractParabolicProblem(
                gamma=gamma, c_gamma=1.0, alpha=1.0, k1=1.0, k2=1.0, t1=1e9, t2=1e9
            )
            ts.append(abstract_parabolic_lifespan(problem).t)
        assert ts[0] > ts[1] > ts[2]
        assert ts[2] < 1e-20

    def test_breakdown_margins_at_returned_horizon(self):
        problem = AbstractParabolicProblem(
            gamma=0.5, c_gamma=2.0, alpha=0.7, k1=0.4, k2=0.9, t1=3.0, t2=8.0
        )
        res = abstract_parabolic_lifespan(problem)
        g = problem.gamma
        sup_term = problem.k1 * problem.c_gamma * res.t ** (1 - g) / (1 - g)
        contraction = problem.k2 * problem.c_gamma * res.t ** (1 - g) / (1 - g)
        assert sup_term < problem.alpha / 2.0
        assert contraction <= 0.5
        assert res.contraction_factor == pytest.approx(contraction, rel=1e-15)
        assert res.ball_fraction < 1.0
        assert res.breakdown()["t3"] == res.t3

    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(0.01, 0.9),
        c_gamma=st.floats(1e-3, 1e3),
        k2=st.floats(1e-3, 1e3),
    )
    def test_t4_limited_horizon_contracts(self, gamma, c_gamma, k2):
        # k1 = k2/4 puts T3 above T4 and t1, t2 are far above both, so the
        # horizon is the T4 root, whose closed form may round above it
        problem = AbstractParabolicProblem(
            gamma=gamma, c_gamma=c_gamma, alpha=1.0, k1=k2 / 4.0, k2=k2, t1=1e300, t2=1e300
        )
        res = abstract_parabolic_lifespan(problem)
        one_minus = 1.0 - gamma
        t4 = (one_minus / (2.0 * k2 * c_gamma)) ** (1.0 / one_minus)
        assert res.t4 == t4 and res.t3 > t4
        assert res.contraction_factor <= 0.5
        assert res.t <= t4
        assert res.t == pytest.approx(t4, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            AbstractParabolicProblem(gamma=1.2, c_gamma=1.0, alpha=1.0, k1=1.0, k2=1.0, t1=1.0, t2=1.0)
        with pytest.raises(DomainError):
            AbstractParabolicProblem(gamma=0.5, c_gamma=0.0, alpha=1.0, k1=1.0, k2=1.0, t1=1.0, t2=1.0)
