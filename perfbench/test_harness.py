"""Smoke test of the benchmark harness at a tiny run length.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def first_block(workload: str, seed: int) -> list:
    return next(workloads.blocks(workload, seed, run.ROOT))


@pytest.mark.parametrize("workload", ["vortex_sweep", "norms_mix"])
def test_generators_repeat_for_a_seed_and_keep_the_block_mix(workload):
    a, b, c = first_block(workload, 3), first_block(workload, 3), first_block(workload, 4)
    assert a == b
    assert a != c
    size = workloads.VORTEX_BLOCK_SIZE if workload == "vortex_sweep" else len(workloads.NORMS_BLOCK)
    assert len(a) == len(c) == size


def test_generated_inputs_meet_their_expected_outcome():
    import nslifespan.cli as cli

    for request in first_block("norms_mix", 5):
        try:
            cli.validate_config(request["config"])
            error = None
        except cli.ConfigError as exc:
            error = exc
        if request["expect"] == "ConfigError":
            assert error is not None, request
        else:
            assert error is None, (request, error)


def test_benchmark_file_names_every_workload():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS


def test_cli_cold_cycles_through_every_example():
    files = first_block("cli_cold", 1)
    assert sorted(files) == workloads.example_files(run.ROOT)
    reference = run._cli_reference()
    assert sorted(reference) == sorted(f.name for f in files)


def _thm41_norms_request() -> dict:
    config = {
        "d": 3,
        "mode": "thm41",
        "delta": 0.4,
        "data": {"norms": {"lp_norms": {}, "grad_d_norm": 1e-2, "theta": 0.5,
                           "norm_d_plus_theta": 1e-6}},
    }
    return {"config": config, "expect": None}


def test_gate_passes_a_correct_report_and_rejects_tampered_ones():
    import nslifespan.cli as cli

    request = _thm41_norms_request()
    report, certified = cli.build_report(request["config"])
    assert certified
    assert gate.check_report(request["config"], report, certified) == "bisection"
    cert = report["result"]["certificate"]

    too_long = dict(cert, t0=cert["t0"] * 1.01)
    with pytest.raises(gate.GateFailure, match="certified inequality"):
        gate.check_certificate(request["config"], too_long)
    too_short = dict(cert, t0=cert["t0"] * 0.99)
    with pytest.raises(gate.GateFailure, match="below oracle"):
        gate.check_certificate(request["config"], too_short)
    lost = dict(cert, feasible=False, t0=0.0)
    with pytest.raises(gate.GateFailure, match="infeasible"):
        gate.check_certificate(request["config"], lost)
    refingerprinted = dict(report, fingerprint="sha256:0")
    with pytest.raises(gate.GateFailure, match="fingerprint"):
        gate.check_report(request["config"], refingerprinted, certified)


def _vortex_request(mode: str, delta: float) -> dict:
    return {"d": 3, "mode": mode, "delta": delta,
            "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 0.1}}


def test_gate_norms_match_the_package_at_this_commit():
    from nslifespan.initial_data import VortexGaussian, grad_norm, lp_norm

    for d in workloads.DIMS:
        data = VortexGaussian(d, 0.7, 3.0)
        assert gate.vortex_lp_norm(d, 0.7, 3.0, d / 0.4) == pytest.approx(lp_norm(data, d / 0.4), rel=1e-13)
        assert 0.7 * 3.0 * gate.GRAD_UNIT[d] == pytest.approx(grad_norm(data), rel=1e-13)


@pytest.mark.parametrize("mode", ["thm31", "thm41"])
# K0 binds on the thm41 route at delta 0.5 and K0' at delta 0.05
@pytest.mark.parametrize("target, delta", [("lp_norm", 0.5), ("_grad_unit_constant", 0.05)])
def test_gate_fails_when_the_package_underestimates_a_vortex_norm(monkeypatch, mode, target, delta):
    import nslifespan.cli as cli
    import nslifespan.initial_data as idmod

    config = _vortex_request(mode, delta)
    report, certified = cli.build_report(config)
    gate.check_report(config, report, certified)

    original = getattr(idmod, target)
    halved = lambda *args: 0.5 * original(*args)  # noqa: E731
    monkeypatch.setattr(idmod, target, halved)
    monkeypatch.setattr(cli, target, halved, raising=False)
    report, certified = cli.build_report(config)
    with pytest.raises(gate.GateFailure):
        gate.check_report(config, report, certified)


def test_firing_sets_come_from_the_recorded_counters():
    fires, never = run.expected_firing("norms_mix")
    assert {"cli.validate_config", "extensions.abstract_parabolic_lifespan"} <= fires
    assert never == {"initial_data.k0_exact", "initial_data.k0_prime_exact",
                     "initial_data.lp_norm", "initial_data.grad_norm"}
    fires, never = run.expected_firing("vortex_sweep")
    assert "initial_data.lp_norm" in fires and "mixed_norms.psi_bound" not in fires
    assert not never


def test_gate_judges_error_classes():
    from nslifespan.errors import InfeasibleExponentError

    assert gate.check_rejection("InfeasibleExponentError", InfeasibleExponentError("x")) == "rejected"
    with pytest.raises(gate.GateFailure):
        gate.check_rejection("ConfigError", InfeasibleExponentError("x"))
    with pytest.raises(gate.GateFailure):
        gate.check_rejection(None, ZeroDivisionError("x"))
    branch, failure = run._gate_request({"config": {"mode": "thm41"}, "expect": "ConfigError"},
                                        {}, True, None)
    assert branch is None and "expected ConfigError" in failure


def test_wrappers_cover_every_binding_and_restore():
    import nslifespan
    import nslifespan.cli as cli
    import nslifespan.extensions as ext
    import nslifespan.initial_data as idmod
    import nslifespan.lifespan as lifespan

    originals = (cli.theorem31_bound, lifespan.coupled_bound, ext.theorem41_bound,
                 idmod.lp_norm, idmod.grad_norm, nslifespan.lp_norm)
    tracer = tracing.Tracer()
    with tracer:
        wrapped = (cli.theorem31_bound, lifespan.coupled_bound, ext.theorem41_bound,
                   idmod.lp_norm, idmod.grad_norm, nslifespan.lp_norm)
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
        idmod.lp_norm(idmod.VortexGaussian(3, 1.0, 1.0), 3.0)  # outside a request: no span
        tracer.begin_request(0)
        cli.build_report({"d": 3, "mode": "thm41", "data": {"family": "vortex_gaussian",
                                                            "sigma": 1.0, "amplitude": 1e-3}})
        tracer.end_request()
    assert (cli.theorem31_bound, lifespan.coupled_bound, ext.theorem41_bound,
            idmod.lp_norm, idmod.grad_norm, nslifespan.lp_norm) == originals
    totals = tracer.totals()
    assert totals["lifespan.theorem41_bound.calls"] == 1
    assert totals["initial_data.lp_norm.calls"] > 0
    assert totals["evaluator_calls"] > 0
    assert totals["request.calls"] == 1
    spans = len(tracer.fn)
    assert spans == sum(tracer.calls)
    # self times partition the request span
    whole = tracer.end[0] - tracer.start[0]
    assert sum(tracer.self_ns) == pytest.approx(whole, rel=1e-9)


def test_traced_counters_repeat_for_a_seed(monkeypatch):
    monkeypatch.setattr(run, "TRACE_BLOCKS", {"norms_mix": 1})
    monkeypatch.setattr(run, "IMPORT_RUNS", 1)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    runs = []
    for _ in range(2):
        outcome = run.Outcome()
        metrics, problems = run.layer_metrics("norms_mix", 2, outcome)
        assert not outcome.failures and not problems
        assert set(metrics) == {m["name"] for m in bench["per_layer"]}
        assert all(unit == m["unit"] for m in bench["per_layer"] for unit in [metrics[m["name"]][1]])
        runs.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")})
    assert runs[0] == runs[1]
    assert runs[0]["cli.validate_config.calls"] == len(workloads.NORMS_BLOCK)
    assert runs[0]["initial_data.k0_exact.calls"] == 0


def test_import_tree_attributes_nested_imports_to_the_top_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     numpy.core",
        "import time:        10 |         60 |   numpy",
        "import time:         5 |        365 | nslifespan",
    ])
    tree = run._import_tree(stderr)
    assert tree["nslifespan"] == pytest.approx(365e-6)
    assert tree["scipy"] == pytest.approx(300e-6)
    assert tree["numpy"] == pytest.approx(60e-6)


def test_command_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "norms_mix", "--seed", "0",
         "--seconds", "0.01", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.NORMS_BLOCK)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


def test_command_fails_without_the_package():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_cold",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
