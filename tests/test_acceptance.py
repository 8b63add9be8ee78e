"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the per-criterion
pass lines; any failure surfaces through the usual pytest assertion report.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracle_utils as oracle
from nslifespan.constants import DELTA0, composite_constants, riesz_constant
from nslifespan.initial_data import (
    grad_norm,
    k0_exact,
    k0_prime_exact,
    lp_norm,
)
from nslifespan.jsonio import decode_infinities
from nslifespan.lifespan import (
    global_smallness_threshold,
    replay_certificate,
    state_from_vortex,
    theorem41_bound,
)
from nslifespan.mixed_norms import (
    SolutionNormInputs,
    ThetaExponents,
    grand_lebesgue_norm,
    nu_bound,
    psi_bound,
)
from oracle_utils import (
    ScalarRecurrence,
    VortexGaussian,
    fixed_point_bound,
    iterate_coupled_batch,
    iterate_scalar_batch,
    iterate_worst_case,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_constant_reproduction():
    start = time.monotonic()
    assert abs(riesz_constant(3.0) - math.sqrt(3.0)) <= 1e-12
    cs = composite_constants(3, DELTA0)
    assert abs(cs.delta0 - 0.282577) <= 5e-7
    assert abs(cs.c1 - 56.35566683) <= 1e-4
    assert abs(cs.c2 - 0.0033270) <= 1e-6
    assert abs(cs.c2 / 9.0 - 0.00036967) <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"K_R(3), delta0, C1, C2 and the d=3 threshold reproduced ({elapsed:.3f}s)")


def test_criterion_2_c3_discrepancy_documented():
    cs = composite_constants(3, DELTA0)
    assert abs(cs.c3 - 3.0 / (4.0 * cs.c1)) <= 1e-15 * cs.c3
    assert abs(cs.c3 - 0.0133083) <= 1e-6
    assert abs(cs.c3 - 0.0133308333) > 2e-5  # the quoted figure really differs
    assert abs(cs.c3 - 4.0 * cs.c2) <= 1e-15
    # certificates must carry the note
    state = state_from_vortex(VortexGaussian(3, 1.0, 1.0), DELTA0)
    cert = theorem41_bound(state)
    assert any("0.0133308333" in note for note in cert.notes)
    _report(2, "c3 = 3/(4 c1) documented against the quoted 0.0133308333; c3 = 4 c2 to 1e-15")


def _admissible_scalar_draws(rng: np.random.Generator, n: int):
    alpha = beta = gamma = x0 = z = None
    reservoir = {k: [] for k in ("alpha", "beta", "gamma", "x0", "z")}
    count = 0
    while count < n:
        m = 4 * n
        a = rng.uniform(1e-8, 2.0, m)
        b = rng.uniform(0.0, 2.0, m)
        g = rng.uniform(1e-6, 2.0, m)
        disc = (b - 1.0) ** 2 - 4.0 * a * g
        zz = np.where(disc > 0, (1.0 - b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * g), -1.0)
        keep = (disc > 0) & (zz > 0)
        x = rng.uniform(0.0, 1.0, m) * zz * (1.0 - 1e-9)
        for key, arr in (("alpha", a), ("beta", b), ("gamma", g), ("x0", x), ("z", zz)):
            reservoir[key].append(arr[keep])
        count += int(keep.sum())
    out = {k: np.concatenate(v)[:n] for k, v in reservoir.items()}
    return out["alpha"], out["beta"], out["gamma"], out["x0"], out["z"]


def _admissible_coupled_draws(rng: np.random.Generator, n: int):
    cols = {k: [] for k in ("a1", "a2", "b1", "b2", "x0", "y0", "zx", "zy")}
    count = 0
    while count < n:
        m = 20 * n
        a1 = rng.uniform(1e-8, 1.5, m)
        a2 = rng.uniform(1e-8, 1.5, m)
        b1 = rng.uniform(1e-6, 3.0, m)
        b2 = rng.uniform(1e-6, 3.0, m)
        det1 = a2 * b1 - a1 * b2
        d1 = (det1 + 1.0) ** 2 - 4.0 * a1 * b2
        d2 = (-det1 + 1.0) ** 2 - 4.0 * a2 * b1
        shared = (det1 - 1.0) ** 2 - 4.0 * a1 * b2
        ok = (d1 > 0) & (d2 > 0) & (shared > 0)
        sq = np.sqrt(np.maximum(shared, 0.0))
        zx = (1.0 - det1 + sq) / (2.0 * b2)
        zy = (1.0 + det1 + sq) / (2.0 * b1)
        ok &= (zx > 0) & (zy > 0)
        x0 = rng.uniform(1e-10, 1.0, m) * zx * (1.0 - 1e-9)
        y0 = rng.uniform(1e-10, 1.0, m) * zy * (1.0 - 1e-9)
        ok &= (x0 > 0) & (y0 > 0)
        for key, arr in (("a1", a1), ("a2", a2), ("b1", b1), ("b2", b2),
                         ("x0", x0), ("y0", y0), ("zx", zx), ("zy", zy)):
            cols[key].append(arr[ok])
        count += int(ok.sum())
    return {k: np.concatenate(v)[:n] for k, v in cols.items()}


def test_criterion_3_recurrence_oracle_suite():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    n, steps = 10_000, 10_000

    alpha, beta, gamma, x0, z = _admissible_scalar_draws(rng, n)
    sup = iterate_scalar_batch(alpha, beta, gamma, x0, steps)
    assert np.all(sup <= z + 1e-12)
    # the vectorized roots are the bounds the library op returns
    for i in range(0, n, n // 100):
        res = fixed_point_bound(ScalarRecurrence(alpha[i], beta[i], gamma[i], x0[i]))
        assert res.ok and res.value == pytest.approx(z[i], rel=1e-14)

    cpl = _admissible_coupled_draws(rng, n)
    sx, sy = iterate_coupled_batch(
        cpl["a1"], cpl["a2"], cpl["b1"], cpl["b2"], cpl["x0"], cpl["y0"], steps
    )
    assert np.all(sx <= cpl["zx"] + 1e-12)
    assert np.all(sy <= cpl["zy"] + 1e-12)
    from nslifespan.recurrence import CoupledRecurrence, coupled_bound

    for i in range(0, n, n // 100):
        res = coupled_bound(
            CoupledRecurrence(cpl["a1"][i], cpl["a2"][i], cpl["b1"][i], cpl["b2"][i],
                              cpl["x0"][i], cpl["y0"][i])
        )
        assert res.ok
        assert res.x_bound == pytest.approx(cpl["zx"][i], rel=1e-14)
        assert res.y_bound == pytest.approx(cpl["zy"][i], rel=1e-14)

    # hypothesis-failure scalar draws: negative discriminant diverges past
    # the parabola vertex, and starts above the root blow past the root
    m = 2000
    a_bad = rng.uniform(1.0, 2.0, m)
    b_bad = rng.uniform(0.0, 1.0, m)
    g_bad = rng.uniform(2.0, 4.0, m)
    assert np.all((b_bad - 1.0) ** 2 - 4.0 * a_bad * g_bad < 0)
    sup_bad = iterate_scalar_batch(a_bad, b_bad, g_bad, np.zeros(m), steps)
    vertex = (1.0 - b_bad) / (2.0 * g_bad)
    assert np.all(sup_bad > vertex)
    assert np.all(sup_bad > 1e10)

    keep = np.sqrt((beta[:m] - 1.0) ** 2 - 4.0 * alpha[:m] * gamma[:m]) > 0.01
    x_above = z[:m] * 1.01
    sup_above = iterate_scalar_batch(alpha[:m][keep], beta[:m][keep], gamma[:m][keep],
                                     x_above[keep], steps)
    assert np.all(sup_above > 100.0 * z[:m][keep])

    # hypothesis-failure coupled draws: d1 < 0 region explodes
    a_c = rng.uniform(1.5, 3.0, m)
    b_c = rng.uniform(1.5, 3.0, m)
    sxb, syb = iterate_coupled_batch(a_c, a_c, b_c, b_c, a_c, a_c, 200)
    assert np.all(sxb > 1e10) and np.all(syb > 1e10)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(3, f"2 x {n} admissible draws stay under their bounds over {steps} steps; "
               f"failure draws demonstrably diverge ({elapsed:.1f}s)")


def test_criterion_4_envelope_structural_identity():
    for d in range(3, 9):
        cs = composite_constants(d, DELTA0)
        rec = ScalarRecurrence(3.0 / (16.0 * cs.j_bar), 0.0, cs.j_bar, 3.0 / (16.0 * cs.j_bar))
        res = fixed_point_bound(rec)
        assert res.ok
        expected = 3.0 / (4.0 * cs.j_bar)
        assert abs(res.value - expected) <= 1e-12 * expected
        traj = iterate_worst_case(rec, 10_000)
        assert traj.sup <= res.value + 1e-12
    _report(4, "Z(3/(16 Jbar), 0, Jbar) = 3/(4 Jbar) to 1e-12 for d in 3..8")


def test_criterion_5_closed_form_vs_quadrature():
    start = time.monotonic()
    reference = lp_norm(VortexGaussian(3, 1.0, 1.0), 3.0)
    assert abs(reference - 1.2993) <= 5e-5
    assert reference == pytest.approx(1.2992590299069182, rel=1e-12)
    for d in (3, 4, 5):
        for sigma in (0.6, 1.0, 1.7):
            for p in (3.0, 4.0, 5.0):
                data = VortexGaussian(d, sigma, 0.9)
                assert lp_norm(data, p) == pytest.approx(
                    oracle.lp_norm_quadrature(data, p), rel=1e-8
                ), (d, sigma, p)

    data = VortexGaussian(3, 1.0, 0.7)
    for t in (0.1, 1.0):
        evolved = data.evolve(t)
        for x in ([0.3, -0.4, 0.7], [1.0, 0.5, -0.2], [0.0, 1.5, 0.3]):
            x = np.asarray(x)
            vec = evolved.evaluate(x)
            for comp in (0, 1):
                conv = oracle.convolved_component(data, t, x, comp)
                assert vec[comp] == pytest.approx(conv, rel=1e-6, abs=1e-12)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(5, f"27 closed-form norms match adaptive quadrature to 1e-8; "
               f"heat evolution matches direct convolution to 1e-6 ({elapsed:.1f}s)")


def test_criterion_6_semigroup_bound_dominance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(3, 6))
        data = VortexGaussian(
            d, float(rng.uniform(0.5, 2.0)), float(10.0 ** rng.uniform(-4.0, 1.0))
        )
        delta = float(rng.uniform(0.15, 0.85))
        cs = composite_constants(d, delta)
        a_d = lp_norm(data, float(d))
        assert k0_exact(data, delta)(math.inf) <= cs.s1 * a_d * (1 + 1e-12)
        k0p_inf = k0_prime_exact(data)(math.inf)
        assert k0p_inf <= cs.s2 * a_d * (1 + 1e-12)
        # the sqrt(T) form at T = infinity is vacuous; check it at finite T
        T = float(rng.uniform(0.01, 10.0))
        assert k0_prime_exact(data)(T) <= min(
            cs.s2 * a_d, math.sqrt(T) * grad_norm(data)
        ) * (1 + 1e-12)
    _report(6, "K0 and K0' suprema dominated by their envelopes over 100 random instances")


def test_criterion_7_end_to_end_certification():
    eps = global_smallness_threshold(3, DELTA0)
    unit_a3 = lp_norm(VortexGaussian(3, 1.0, 1.0), 3.0)

    small = VortexGaussian(3, 1.0, 0.5 * eps / unit_a3)
    cert_small = theorem41_bound(state_from_vortex(small, DELTA0))
    assert cert_small.t0 == math.inf

    big = VortexGaussian(3, 1.0, 1000.0 * eps / unit_a3)
    cert_big = theorem41_bound(state_from_vortex(big, DELTA0))
    assert 0.0 < cert_big.t0 < math.inf

    t0s = []
    for factor in np.geomspace(0.5, 1000.0, 10):
        amp = float(factor) * eps / unit_a3
        cert = theorem41_bound(state_from_vortex(VortexGaussian(3, 1.0, amp), DELTA0))
        t0s.append(cert.t0)
    for earlier, later in zip(t0s, t0s[1:]):
        assert later <= earlier
    _report(7, "global at half threshold, finite at 1000x, monotone on a 10-point ladder")


def test_criterion_8_replay_and_byte_stability(tmp_path):
    config = {
        "d": 3,
        "mode": "thm31",
        "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 0.05},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "nslifespan.cli", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    # re-validate in this process, which never built the original evaluators
    report = decode_infinities(json.loads(outputs[0].decode("utf-8")))
    assert report["verification"]["all_passed"] is True
    replay = replay_certificate(report["result"]["certificate"])
    assert replay.all_passed
    assert all(passed for _, passed, _ in replay.results)

    # same for an infinite-horizon certificate (exercises the infinity encoding)
    config["mode"] = "global_test"
    config["data"]["amplitude"] = 1e-6
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "global.json"
    proc = subprocess.run(
        [sys.executable, "-m", "nslifespan.cli", "--config", str(cfg_path), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = decode_infinities(json.loads(out.read_text(encoding="utf-8")))
    assert report["result"]["certificate"]["t0"] == math.inf
    assert replay_certificate(report["result"]["certificate"]).all_passed
    _report(8, "byte-stable reports; certificates re-validate in an independent process")


def test_criterion_9_mixed_norm_bookkeeping():
    rng = np.random.default_rng(13)
    count = 0
    while count < 1000:
        d = int(rng.integers(3, 7))
        delta = float(rng.uniform(0.05, 0.95))
        q = float(d + rng.random() * 3 * d)
        try:
            th = ThetaExponents.create(d, q, delta)
        except Exception:
            continue
        count += 1
        for name, residual in th.identity_residuals().items():
            assert abs(residual) <= 1e-12, (name, d, q, delta)

    data = VortexGaussian(3, 1.0, 1.0)
    cert = theorem41_bound(state_from_vortex(VortexGaussian(3, 1.0, 1e-5), DELTA0))
    inputs = SolutionNormInputs(
        k_sup=cert.iterate_bound, k_prime_sup=cert.iterate_bound, a_d_norm=lp_norm(data, 3.0)
    )
    psi_value = psi_bound(3, 4.0, DELTA0, inputs)
    nu_value = nu_bound(3, 5.0, DELTA0, inputs)
    assert 0.0 < psi_value < math.inf
    assert 0.0 < nu_value < math.inf

    profile = [(q, psi_bound(3, q, DELTA0, inputs)) for q in (3.0, 3.5, 4.0, 4.5, 5.0)]
    assert grand_lebesgue_norm(profile, profile) == 1.0
    _report(9, "theta identities to 1e-12 on 1000 draws; psi, nu finite and positive; "
               "grand Lebesgue diagonal is exactly 1")
