import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nslifespan.constants import (
    C3_DISCREPANCY_NOTE,
    DELTA0,
    ExponentPair,
    beta_fn,
    composite_constants,
    default_delta_grid,
    gamma_fn,
    heat_kernel_grad_norm,
    heat_kernel_norm,
    j_upper_1,
    j_upper_2,
    riesz_constant,
    sobolev_constant,
    young_constant,
)
from nslifespan.errors import DomainError

SQRT_PI = math.sqrt(math.pi)


class TestGamma:
    def test_at_one(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_at_half(self):
        assert gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_at_five_halves(self):
        # (3/4) sqrt(pi), frozen from the identity Gamma(5/2) = (3/2)(1/2)Gamma(1/2)
        assert gamma_fn(2.5) == pytest.approx(1.329340388179137, abs=1e-12)
        assert gamma_fn(2.5) == pytest.approx(0.75 * SQRT_PI, rel=1e-14)

    def test_reference_accuracy_on_0_50(self):
        xs = np.linspace(0.01, 50.0, 337)
        for x in xs:
            ref = float(mpmath.gamma(mpmath.mpf(float(x))))
            assert gamma_fn(float(x)) == pytest.approx(ref, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-1.5)


class TestBeta:
    def test_trivial(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_quadrature_oracle(self):
        # oracle: adaptive integration of t^{x-1} (1-t)^{y-1}
        x, y = 1.5, 0.25
        oracle, _ = integrate.quad(
            lambda t: t ** (x - 1.0) * (1.0 - t) ** (y - 1.0), 0.0, 1.0,
            epsabs=1e-12, epsrel=1e-11, limit=200,
        )
        assert beta_fn(x, y) == pytest.approx(oracle, rel=1e-9)
        # frozen value from the log-gamma identity
        assert beta_fn(x, y) == pytest.approx(3.4960767390561585, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_fn(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_fn(1.0, -0.2)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(min_value=0.05, max_value=30.0),
        y=st.floats(min_value=0.05, max_value=30.0),
    )
    def test_gamma_identity(self, x, y):
        lhs = beta_fn(x, y) * gamma_fn(x + y)
        rhs = gamma_fn(x) * gamma_fn(y)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestSobolev:
    def test_talenti_d3_p2(self):
        # independent closed form for (3, 2): 3^{-1/2} (pi/2)^{-2/3}
        known = 3.0**-0.5 * (math.pi / 2.0) ** (-2.0 / 3.0)
        assert sobolev_constant(3, 2.0) == pytest.approx(known, rel=1e-13)

    def test_p1_limit_convention(self):
        # the (p-1)/p power degenerates to 1 at p = 1; the value must be the
        # continuous limit of nearby p
        v1 = sobolev_constant(4, 1.0)
        v_near = sobolev_constant(4, 1.0 + 1e-9)
        assert v1 == pytest.approx(v_near, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            sobolev_constant(3, 3.0)
        with pytest.raises(DomainError):
            sobolev_constant(3, 0.5)
        with pytest.raises(DomainError):
            sobolev_constant(2, 1.0)


class TestRiesz:
    def test_value_at_3(self):
        assert abs(riesz_constant(3.0) - math.sqrt(3.0)) <= 1e-12

    def test_value_at_2(self):
        assert riesz_constant(2.0) == pytest.approx(1.0, abs=1e-15)

    def test_conjugate_example(self):
        assert riesz_constant(1.5) == pytest.approx(math.sqrt(3.0), rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(min_value=1.0001, max_value=20.0))
    def test_conjugate_symmetry(self, p):
        q = p / (p - 1.0)
        assert abs(riesz_constant(p) - riesz_constant(q)) <= 1e-12 * max(1.0, riesz_constant(p))

    def test_domain(self):
        with pytest.raises(DomainError):
            riesz_constant(1.0)
        with pytest.raises(DomainError):
            riesz_constant(0.5)


class TestYoung:
    def test_conjugate_pair_limit(self):
        # (p, q) = (2, 2) has output r = infinity; the analytic limit must
        # agree with an evaluation pushed to r = 1e6
        limit = young_constant(3, ExponentPair(2.0, 2.0))
        q_perturbed = 1.0 / (1e-6 + 0.5)  # makes 1/r = 1e-6
        near = young_constant(3, ExponentPair(2.0, q_perturbed))
        # the r-tail converges like log(r)/r, so r = 1e6 agrees to ~1e-5
        assert limit == pytest.approx(near, rel=1e-4)
        assert limit <= 1.0 + 1e-12

    def test_d1_exact_value(self):
        value = young_constant(1, ExponentPair(4.0 / 3.0, 4.0 / 3.0))
        expected = ((4.0 / 3.0) ** 1.5 * 4.0**-0.5) ** 0.5
        assert value == pytest.approx(expected, rel=1e-14)

    def test_l1_factor_is_one(self):
        assert young_constant(3, ExponentPair(1.0, 3.0)) == pytest.approx(1.0, rel=1e-14)

    def test_near_one_bounded(self):
        v = young_constant(5, ExponentPair(1.0 + 1e-9, 3.0))
        assert 0.0 < v <= 1.0 + 1e-12

    def test_bounded_by_one_randomized(self, rng):
        for _ in range(4000):
            d = int(rng.integers(3, 9))
            p = 1.0 + float(rng.random()) * 9.0
            q = 1.0 + float(rng.random()) * 9.0
            pair = ExponentPair(p, q)
            if pair.inverse_output < 0:
                continue
            assert young_constant(d, pair) <= 1.0 + 1e-12

    def test_inadmissible_pair(self):
        with pytest.raises(DomainError):
            young_constant(3, ExponentPair(3.0, 3.0))

    def test_exponent_pair_validation(self):
        with pytest.raises(DomainError):
            ExponentPair(0.9, 2.0)


class TestHeatKernel:
    def test_r1_value(self):
        assert heat_kernel_norm(3, 1.0) == 8.0

    def test_r2_value(self):
        assert heat_kernel_norm(3, 2.0) == pytest.approx((2.0 / math.pi) ** 0.75, rel=1e-14)

    def test_large_r_below_cap(self):
        assert heat_kernel_norm(5, 100.0) < 2.0**5

    def test_cap_over_grid(self):
        # equality holds exactly at r = 1, strictness everywhere above
        for d in range(3, 9):
            assert heat_kernel_norm(d, 1.0) == 2.0**d
            for r in np.geomspace(1.0 + 1e-9, 1000.0, 181):
                assert heat_kernel_norm(d, float(r)) < 2.0**d

    def test_grad_composition(self):
        assert heat_kernel_grad_norm(3, 1.0) == pytest.approx(0.5 * heat_kernel_norm(3, 4.0), rel=1e-15)

    def test_grad_cap(self):
        for d in range(3, 9):
            for r in np.geomspace(1.0, 1000.0, 61):
                assert heat_kernel_grad_norm(d, float(r)) <= 2.0 ** (d - 1)
        assert heat_kernel_grad_norm(4, 1e6) <= 8.0

    def test_domain(self):
        with pytest.raises(DomainError):
            heat_kernel_norm(3, 0.99)
        with pytest.raises(DomainError):
            heat_kernel_grad_norm(3, 0.5)


class TestComposite:
    def test_critical_values(self):
        cs = composite_constants(3, DELTA0)
        assert abs(cs.delta0 - 0.282577) <= 5e-7
        assert abs(cs.c1 - 56.35566683) <= 1e-4
        assert abs(cs.c2 - 0.0033270) <= 1e-6
        assert abs(cs.threshold - 0.00036967) <= 1e-8

    def test_c3_identities_and_discrepancy(self):
        cs = composite_constants(3, 0.4)
        assert cs.c3 == 4.0 * cs.c2
        assert cs.c3 == pytest.approx(3.0 / (4.0 * cs.c1), rel=1e-15)
        # the quoted reference figure differs in the 4th significant digit
        assert abs(cs.c3 - 0.0133308333) > 1e-5
        assert "0.0133308333" in cs.provenance["c3"]
        assert "0.0133308333" in C3_DISCREPANCY_NOTE

    def test_crossing_point(self):
        for d in range(3, 9):
            a = j_upper_1(d, DELTA0)
            b = j_upper_2(d, DELTA0)
            assert a == pytest.approx(b, rel=1e-12)

    def test_jbar_is_envelope_at_delta0(self):
        for d in range(3, 9):
            cs = composite_constants(d, 0.5)
            env = max(j_upper_1(d, DELTA0), j_upper_2(d, DELTA0))
            assert cs.j_bar == pytest.approx(env, rel=1e-12)
            assert cs.j_bar == pytest.approx(cs.c1 * d * d, rel=1e-15)

    def test_sharp_below_majorants(self):
        for d in range(3, 9):
            for delta in np.linspace(1e-3, 1.0 - 1e-3, 333):
                cs = composite_constants(d, float(delta))
                assert cs.j1 <= cs.j_up1
                assert cs.j2 <= cs.j_up2

    def test_s_constants_positive_and_finite(self):
        for d in (3, 5, 8):
            cs = composite_constants(d, 0.3)
            assert 0 < cs.s1 < math.inf
            assert cs.s2 == pytest.approx(0.5 * 2.0**d, rel=1e-15)
            # the alternative envelope is a print-only row of the table
            rows = {name: value for name, value, _ in cs.table}
            assert rows["s2"] == cs.s2 and 0 < rows["s2_alt"] < cs.s2

    def test_memoized(self):
        a = composite_constants(4, 0.25)
        b = composite_constants(4, 0.25)
        assert a is b

    # the fields, the values derived on first use, the shared provenance map and a new name
    NAMES = (
        "d", "delta", "ks", "kr", "m", "m_prime", "s1", "s2", "s2_alt", "j1", "j2", "j_up1", "j_up2",
        "j", "delta0", "j_bar", "c1", "c2", "c3", "threshold", "iterate_bound", "table", "provenance", "extra",
    )

    def test_shared_set_is_read_only(self):
        # every caller of composite_constants(d, delta) shares one set, before and after its values are derived
        cs = composite_constants(3, 0.5)
        for touched in (False, True):
            before = {name: getattr(cs, name, None) for name in self.NAMES} if touched else {}
            for name in self.NAMES:
                with pytest.raises(AttributeError):
                    setattr(cs, name, 1.0)
                with pytest.raises(AttributeError):
                    delattr(cs, name)
            for name, value in before.items():
                assert getattr(cs, name, None) is value, name

    def test_table_contains_riesz(self):
        cs = composite_constants(3, DELTA0)
        rows = {name: value for name, value, _ in cs.table}
        assert rows["K_R(3)"] == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert cs.table is composite_constants(3, DELTA0).table  # built once per ConstantSet

    def test_domain(self):
        with pytest.raises(DomainError):
            composite_constants(3, 0.0)
        with pytest.raises(DomainError):
            composite_constants(3, 1.5)
        with pytest.raises(DomainError):
            composite_constants(2, 0.5)

    def test_j_upper_example(self):
        assert j_upper_1(3, 0.5) == pytest.approx(162.0, rel=1e-15)


class TestDeltaGrid:
    def test_contains_delta0_and_is_sorted(self):
        grid = default_delta_grid()
        assert DELTA0 in grid
        assert list(grid) == sorted(grid)
        assert all(0.0 < x < 1.0 for x in grid)

    def test_deterministic(self):
        assert default_delta_grid() == default_delta_grid()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_small_grids(self, n):
        # n = 2 and 3 have a single log point, 1e-3
        grid = default_delta_grid(n)
        assert list(grid) == sorted(grid)
        assert all(0.0 < x < 1.0 for x in grid)
        assert {1e-3, DELTA0, 0.97} <= set(grid)

    def test_domain(self):
        with pytest.raises(DomainError):
            default_delta_grid(1)
