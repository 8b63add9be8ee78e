import math

import numpy as np
import pytest

from nslifespan.errors import DomainError
from nslifespan.recurrence import CoupledRecurrence, coupled_bound
from oracle_utils import (
    ScalarRecurrence,
    fixed_point_bound,
    iterate_coupled_batch,
    iterate_scalar_batch,
    iterate_worst_case,
)


def sample_admissible_scalar(rng, n):
    """Rejection-sample coefficient draws satisfying the scalar hypotheses."""
    out = []
    while len(out) < n:
        alpha = float(rng.uniform(1e-8, 2.0))
        beta = float(rng.uniform(0.0, 2.0))
        gamma = float(rng.uniform(1e-6, 2.0))
        disc = (beta - 1.0) ** 2 - 4.0 * alpha * gamma
        if disc <= 0:
            continue
        z = (1.0 - beta + math.sqrt(disc)) / (2.0 * gamma)
        if z <= 0:
            continue
        x0 = float(rng.uniform(0.0, 1.0)) * z * 0.999999
        out.append(ScalarRecurrence(alpha, beta, gamma, x0))
    return out


def sample_admissible_coupled(rng, n):
    out = []
    while len(out) < n:
        a1 = float(rng.uniform(1e-8, 1.5))
        a2 = float(rng.uniform(1e-8, 1.5))
        b1 = float(rng.uniform(1e-6, 3.0))
        b2 = float(rng.uniform(1e-6, 3.0))
        det1 = a2 * b1 - a1 * b2
        d1 = (det1 + 1.0) ** 2 - 4.0 * a1 * b2
        d2 = (-det1 + 1.0) ** 2 - 4.0 * a2 * b1
        if d1 <= 0 or d2 <= 0:
            continue
        shared = (det1 - 1.0) ** 2 - 4.0 * a1 * b2
        if shared < 0:
            continue
        zx = (1.0 - det1 + math.sqrt(shared)) / (2.0 * b2)
        zy = (1.0 + det1 + math.sqrt(shared)) / (2.0 * b1)
        if zx <= 0 or zy <= 0:
            continue
        x0 = float(rng.uniform(1e-12, 1.0)) * zx * 0.999999
        y0 = float(rng.uniform(1e-12, 1.0)) * zy * 0.999999
        if x0 <= 0 or y0 <= 0:
            continue
        out.append(CoupledRecurrence(a1, a2, b1, b2, x0, y0))
    return out


class TestScalarBound:
    def test_reference_case(self):
        rec = ScalarRecurrence(3.0 / 16.0, 0.0, 1.0, 3.0 / 16.0)
        res = fixed_point_bound(rec)
        assert res.ok
        assert res.value == 0.75  # (1 + sqrt(1/4)) / 2, exact in floats
        traj = iterate_worst_case(rec, 10_000)
        assert traj.sup <= 0.75 + 1e-12
        # the extremal iteration converges to the smaller root 1/4
        assert abs(traj.sup - 0.25) <= 1e-6
        assert not traj.diverged

    def test_zero_sequence(self):
        rec = ScalarRecurrence(0.0, 0.0, 1.0, 0.0)
        res = fixed_point_bound(rec)
        assert res.ok and res.value == 1.0
        traj = iterate_worst_case(rec, 100)
        assert traj.sup == 0.0

    def test_negative_discriminant_failure(self):
        res = fixed_point_bound(ScalarRecurrence(1.0, 1.0, 1.0, 0.1))
        assert not res.ok
        assert res.failures[0].condition == "discriminant_positive"
        assert res.failures[0].margin == pytest.approx(-4.0)
        assert res.value is None

    def test_start_above_root_failure(self):
        rec = ScalarRecurrence(3.0 / 16.0, 0.0, 1.0, 0.9)
        res = fixed_point_bound(rec)
        assert not res.ok
        names = [f.condition for f in res.failures]
        assert "start_below_root" in names
        margin = next(f.margin for f in res.failures if f.condition == "start_below_root")
        assert margin == pytest.approx(0.75 - 0.9)

    def test_root_identity(self, rng):
        for rec in sample_admissible_scalar(rng, 1000):
            z = fixed_point_bound(rec).value
            assert rec.alpha + rec.beta * z + rec.gamma * z * z == pytest.approx(z, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fixed_point_bound(ScalarRecurrence(0.1, 0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            ScalarRecurrence(-0.1, 0.0, 1.0, 0.0)

    def test_monotonicity_in_alpha(self, rng):
        # raising alpha (while staying admissible) raises the smaller-root
        # counterpart, and the bound at the larger alpha still dominates the
        # old trajectory
        for rec in sample_admissible_scalar(rng, 300):
            bumped = ScalarRecurrence(rec.alpha * 1.1, rec.beta, rec.gamma, rec.x0)
            if bumped.discriminant <= 0:
                continue
            z_lo_old = (1.0 - rec.beta - math.sqrt(rec.discriminant)) / (2.0 * rec.gamma)
            z_lo_new = (1.0 - bumped.beta - math.sqrt(bumped.discriminant)) / (2.0 * bumped.gamma)
            assert z_lo_new >= z_lo_old - 1e-15
            res = fixed_point_bound(bumped)
            if res.ok:
                old_traj = iterate_worst_case(rec, 2000)
                assert old_traj.sup <= res.value + 1e-12


class TestCoupledBound:
    def test_symmetric_case(self):
        rec = CoupledRecurrence(3 / 16, 3 / 16, 1.0, 1.0, 3 / 16, 3 / 16)
        assert rec.det1 == 0.0
        res = coupled_bound(rec)
        assert res.ok
        assert res.x_bound == 0.75 and res.y_bound == 0.75
        traj = iterate_worst_case(rec, 10_000)
        assert traj.sup[0] <= 0.75 + 1e-12 and traj.sup[1] <= 0.75 + 1e-12

    def test_small_data_limit(self):
        eps = 1e-6
        rec = CoupledRecurrence(eps, eps, 1.0, 1.0, eps, eps)
        res = coupled_bound(rec)
        assert res.ok
        assert res.x_bound >= 1.0 - 5 * eps
        traj = iterate_worst_case(rec, 1000)
        assert traj.sup[0] <= 2 * eps and traj.sup[1] <= 2 * eps

    def test_randomized_against_oracle(self, rng):
        recs = sample_admissible_coupled(rng, 1000)
        a1 = np.array([r.alpha1 for r in recs])
        a2 = np.array([r.alpha2 for r in recs])
        b1 = np.array([r.beta1 for r in recs])
        b2 = np.array([r.beta2 for r in recs])
        x0 = np.array([r.x0 for r in recs])
        y0 = np.array([r.y0 for r in recs])
        zx = np.array([coupled_bound(r).x_bound for r in recs])
        zy = np.array([coupled_bound(r).y_bound for r in recs])
        sx, sy = iterate_coupled_batch(a1, a2, b1, b2, x0, y0, 2000)
        assert np.all(sx <= zx + 1e-12)
        assert np.all(sy <= zy + 1e-12)

    def test_failure_reporting(self):
        rec = CoupledRecurrence(5.0, 5.0, 1.0, 1.0, 1.0, 1.0)
        res = coupled_bound(rec)
        assert not res.ok
        assert {f.condition for f in res.failures} <= {
            "d1_positive", "d2_positive", "x_root_positive", "y_root_positive",
            "x_start_below_root", "y_start_below_root",
        }
        assert res.value is None

    @pytest.mark.parametrize("big", [1e160, 1e300])
    def test_overflowing_quadratic_fails(self, big):
        # det1 = 1 - big, so (det1 + 1)^2 lies beyond the largest double
        res = coupled_bound(CoupledRecurrence(big, 1.0, 1.0, 1.0, big, 1.0))
        assert not res.ok and res.value is None
        assert [f.condition for f in res.failures] == ["quadratics_finite"]
        assert math.isnan(res.failures[0].margin)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            CoupledRecurrence(0.0, 1.0, 1.0, 1.0, 0.1, 0.1)
        with pytest.raises(DomainError):
            CoupledRecurrence(1.0, 1.0, -1.0, 1.0, 0.1, 0.1)
        with pytest.raises(DomainError):
            CoupledRecurrence(1.0, 1.0, 1.0, 1.0, 0.0, 0.1)


class TestWorstCaseIteration:
    def test_linear_degenerate(self):
        # gamma = 0 with beta < 1: plain geometric convergence to alpha/(1-beta)
        rec = ScalarRecurrence(1.0, 0.5, 0.0, 0.0)
        traj = iterate_worst_case(rec, 2000)
        assert not traj.diverged
        assert traj.values[-1] == pytest.approx(2.0, rel=1e-12)
        assert traj.sup <= 2.0 + 1e-12

    def test_divergence_detected(self):
        rec = ScalarRecurrence(1.0, 1.0, 1.0, 0.1)  # discriminant < 0
        traj = iterate_worst_case(rec, 10_000)
        assert traj.diverged
        vertex = (1.0 - rec.beta) / (2.0 * rec.gamma)
        assert traj.sup > max(vertex, 1.0)

    def test_trajectory_shape(self):
        traj = iterate_worst_case(ScalarRecurrence(0.1, 0.1, 0.1, 0.0), 17)
        assert traj.values.shape == (18,)
        ctraj = iterate_worst_case(CoupledRecurrence(0.1, 0.1, 0.1, 0.1, 0.05, 0.05), 9)
        assert ctraj.values.shape == (10, 2)

    def test_step_validation(self):
        with pytest.raises(DomainError):
            iterate_worst_case(ScalarRecurrence(0.1, 0.1, 0.1, 0.0), 0)

    def test_batch_matches_single(self, rng):
        recs = sample_admissible_scalar(rng, 50)
        alpha = np.array([r.alpha for r in recs])
        beta = np.array([r.beta for r in recs])
        gamma = np.array([r.gamma for r in recs])
        x0 = np.array([r.x0 for r in recs])
        sup = iterate_scalar_batch(alpha, beta, gamma, x0, 500)
        for i, rec in enumerate(recs):
            single = iterate_worst_case(rec, 500)
            assert sup[i] == pytest.approx(single.sup, rel=1e-14)
