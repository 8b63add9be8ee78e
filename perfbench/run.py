"""nslifespan benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload vortex_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

``--workload all`` runs each workload in a fresh child process of this
script, so no workload's figures carry another's memory peak or caches,
and merges their result lines.

Workloads (see workloads.py): ``vortex_sweep`` and ``norms_mix`` send
requests (validate_config + build_report + canonical_dumps on a generated
config) to the package in this process; ``cli_cold`` runs one fresh
``python -m nslifespan.cli`` process per request on the committed example
configs. All are closed loops with one client: the next request starts
after the previous one completes. A run draws whole blocks of requests
until ``--seconds`` of request time is spent, so every run measures whole
blocks of the same mix. Every send is timed and counted. The correctness
gate (gate.py) judges every send, between requests and outside the timed
region.

``--trace 0`` reports the end-to-end metrics: setup_s (median of three
fresh interpreters timed from launch to ready), throughput_rps (sends per
second of request time), latency_p50_ms and latency_p90_ms (over every
send) and peak_rss_mb. ``--trace 1`` reports the
per-layer metrics instead. A traced run measures a fixed request set (the
first blocks of the seed's stream) twice, untraced and then traced, so its
counters repeat exactly for a seed and the difference is the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (sends), ``failed`` and ``metrics``. The exit code is 0
when every request passed the gate, 1 when the gate failed, and 2 when
the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 3
IMPORT_RUNS = 3
WARM_REQUESTS = 20
CHILD_TIMEOUT_S = 120
TRACE_BLOCKS = {"vortex_sweep": 2, "norms_mix": 10, "cli_cold": 1}
SETUP_DIMS = {"vortex_sweep": (3, 4, 5), "norms_mix": (), "cli_cold": (3,)}
BRANCHES = ("infinity", "bisection", "floor", "rejected")


def expected_firing(workload: str) -> tuple[set[str], set[str]]:
    """Wrappers that must fire on a workload's traced set, and ones that must not.

    Both come from the counters recorded in counters.json: every wrapper
    with calls there must fire, and an ``initial_data`` wrapper without
    calls there (the vortex Kato evaluators on norms_mix) must not.
    """
    counters = json.loads((HERE / "counters.json").read_text(encoding="utf-8"))[workload]["counters"]
    calls = {name[:-len(".calls")]: n for name, n in counters.items() if name.endswith(".calls")}
    fires = {name for name, n in calls.items() if n > 0}
    never = {name for name, n in calls.items() if n == 0 and name.startswith("initial_data.")}
    return fires, never


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Outcome:
    """Per-run tally: the latency, gate result and branch of every send."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.branches: Counter = Counter()

    def judge(self, branch: str | None, failure: str | None) -> None:
        """Count one send."""
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)
        else:
            self.branches[branch] += 1


def measure(stream, seconds: float, send, outcome: Outcome) -> None:
    """Closed-loop measurement: whole blocks until the busy time reaches seconds.

    ``send(request)`` times and gates one request and returns its latency.
    """
    busy = 0.0
    for block in stream:
        for request in block:
            latency = send(request)
            outcome.latencies.append(latency)
            busy += latency
        if busy >= seconds:
            break


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def _execute(request: dict):
    """Send one request; returns (seconds, report, certified, error)."""
    import nslifespan.cli as cli
    from nslifespan.jsonio import canonical_dumps

    config = request["config"]
    start = time.perf_counter()
    try:
        cli.validate_config(config)
        report, certified = cli.build_report(config)
        canonical_dumps(report)
    except Exception as exc:  # every error class is judged by the gate
        return time.perf_counter() - start, None, False, exc
    return time.perf_counter() - start, report, certified, None


def _gate_request(request: dict, report, certified: bool, error) -> tuple[str | None, str | None]:
    """(branch, None) when the request passed, (None, reason) when it failed."""
    import gate

    try:
        if error is not None:
            return gate.check_rejection(request["expect"], error), None
        if request["expect"] is not None:
            return None, f"expected {request['expect']}, got a report"
        return gate.check_report(request["config"], report, certified), None
    except gate.GateFailure as exc:
        return None, f"{request['config'].get('mode')}: {exc}"


def run_inprocess(workload: str, seed: int, seconds: float, outcome: Outcome) -> None:
    from nslifespan import constants
    from workloads import blocks, warm_up

    def send(request: dict) -> float:
        latency, report, certified, error = _execute(request)
        outcome.judge(*_gate_request(request, report, certified, error))
        return latency

    # start from the constants cache the workload has after set-up
    constants._composite.cache_clear()
    warm_up(workload)
    measure(blocks(workload, seed, ROOT), seconds, send, outcome)


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def _cli_reference() -> dict:
    return json.loads((HERE / "cli_reference.json").read_text(encoding="utf-8"))


def _gate_cli(path: Path, code: int, report_path: Path, reference: dict) -> tuple[str | None, str | None]:
    import gate
    from nslifespan.jsonio import decode_infinities

    ref = reference.get(path.name)
    if ref is None:
        return None, f"{path.name}: no stored reference"
    if code != ref["exit"]:
        return None, f"{path.name}: exit code {code}, expected {ref['exit']}"
    if code == 1:
        return "rejected", None
    try:
        report = decode_infinities(json.loads(report_path.read_text(encoding="utf-8")))
        branch = gate.check_report(report["config"], report, code == 0)
        if ref["t0"] is not None:
            t0 = float(report["result"]["certificate"]["t0"])
            want = float(decode_infinities(ref["t0"]))
            gate.require(t0 >= want * (1.0 - gate.REL_TOL), f"t0={t0!r} below stored {want!r}")
    except gate.GateFailure as exc:
        return None, f"{path.name}: {exc}"
    return branch, None


def _cli_command(path: Path, report_path: Path, summary: Path | None) -> list[str]:
    if summary is None:
        head = [sys.executable, "-m", "nslifespan.cli"]
    else:
        head = [sys.executable, str(HERE / "cli_child.py"), str(summary)]
    return head + ["--config", str(path), "--out", str(report_path)]


def _run_cli(path: Path, report_path: Path, summary: Path | None = None) -> tuple[float, int]:
    report_path.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.run(_cli_command(path, report_path, summary), cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode


def run_cli_cold(seed: int, seconds: float, outcome: Outcome) -> None:
    from workloads import blocks

    reference = _cli_reference()
    report_path = OUT / "cli_report.json"

    def send(path: Path) -> float:
        latency, code = _run_cli(path, report_path)
        outcome.judge(*_gate_cli(path, code, report_path, reference))
        return latency

    measure(blocks("cli_cold", seed, ROOT), seconds, send, outcome)


# ---------------------------------------------------------------------------
# set-up and import timing
# ---------------------------------------------------------------------------


def _setup_once(workload: str) -> float:
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_child.py"), workload], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child for {workload} failed (exit {code})")
    return elapsed


def measure_setup(workload: str) -> float:
    """Median set-up time over fresh interpreters, after one untimed run.

    The untimed run compiles the byte code and warms the file cache, which
    a checkout without __pycache__ would otherwise charge to the first
    sample.
    """
    _setup_once(workload)
    return statistics.median(_setup_once(workload) for _ in range(SETUP_RUNS))


def _import_tree(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per top-level package from -X importtime."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative)))

    def package(name: str) -> str:
        return name.split(".")[0]

    totals: Counter = Counter()
    for i, (depth, name, cumulative) in enumerate(rows):
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or package(parent[1]) != package(name):
            totals[package(name)] += cumulative / 1e6
    return totals


def measure_imports() -> dict[str, float]:
    samples = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nslifespan.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(_import_tree(proc.stderr))
    names = {"total": "nslifespan", "scipy": "scipy", "numpy": "numpy", "jsonschema": "jsonschema"}
    return {f"cli.import.{key}_s": statistics.median(s[pkg] for s in samples)
            for key, pkg in names.items()}


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------


def _fixed_set(workload: str, seed: int) -> list:
    from workloads import blocks

    stream = blocks(workload, seed, ROOT)
    return [request for _ in range(TRACE_BLOCKS[workload]) for request in next(stream)]


def traced_inprocess(workload: str, seed: int, outcome: Outcome) -> dict:
    from nslifespan import constants
    from nslifespan.initial_data import VortexGaussian, grad_norm
    from tracing import Tracer
    from workloads import warm_up

    first_call = 0.0
    for d in SETUP_DIMS[workload]:
        start = time.perf_counter()
        grad_norm(VortexGaussian(d, 1.0, 1.0))
        first_call += time.perf_counter() - start

    requests = _fixed_set(workload, seed)
    warm_up(workload)
    for request in requests[:WARM_REQUESTS]:  # first-call costs stay out of both passes
        _execute(request)
    untraced = sum(_execute(request)[0] for request in requests)

    constants._composite.cache_clear()
    warm_up(workload)
    misses = constants._composite.cache_info().misses
    tracer = Tracer()
    traced = 0.0
    with tracer:
        for rid, request in enumerate(requests):
            tracer.begin_request(rid)
            try:
                latency, report, certified, error = _execute(request)
            finally:
                tracer.end_request()
            traced += latency
            outcome.latencies.append(latency)
            outcome.judge(*_gate_request(request, report, certified, error))
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}.tsv.gz")
    totals = tracer.totals()
    totals["constants.cache_misses"] = constants._composite.cache_info().misses - misses
    totals["initial_data.grad_norm.first_call_s"] = first_call
    totals["trace.overhead_s"] = traced - untraced
    return totals


def traced_cli_cold(seed: int, outcome: Outcome) -> dict:
    from nslifespan.initial_data import VortexGaussian, grad_norm

    start = time.perf_counter()
    grad_norm(VortexGaussian(3, 1.0, 1.0))
    first_call = time.perf_counter() - start

    reference = _cli_reference()
    files = _fixed_set("cli_cold", seed)
    report_path = OUT / "cli_report.json"
    _setup_once("cli_cold")  # compiles the byte code before either pass
    untraced = sum(_run_cli(path, report_path)[0] for path in files)
    totals: Counter = Counter()
    traced = 0.0
    for i, path in enumerate(files):
        summary = OUT / f"spans-cli_cold-{i}.json"
        latency, code = _run_cli(path, report_path, summary)
        traced += latency
        outcome.latencies.append(latency)
        outcome.judge(*_gate_cli(path, code, report_path, reference))
        totals.update(json.loads(summary.read_text(encoding="utf-8")))
    totals = dict(totals)
    totals["initial_data.grad_norm.first_call_s"] = first_call
    totals["trace.overhead_s"] = traced - untraced
    return totals


def layer_metrics(workload: str, seed: int, outcome: Outcome) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, plus wrapper-firing problems."""
    from tracing import NAMES

    if workload == "cli_cold":
        totals = traced_cli_cold(seed, outcome)
    else:
        totals = traced_inprocess(workload, seed, outcome)
    fires, never = expected_firing(workload)
    problems = [f"wrapper {name} never fired" for name in sorted(fires)
                if totals[f"{name}.calls"] == 0]
    problems += [f"wrapper {name} fired on {workload}" for name in sorted(never)
                 if totals[f"{name}.calls"] > 0]

    metrics: dict[str, tuple[float, str]] = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = (totals[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (totals[f"{name}.self_s"], "s")
    certs = totals["lifespan.theorem31_bound.calls"] + totals["lifespan.theorem41_bound.calls"]

    def per_cert(count: int) -> float:
        return count / certs if certs else 0.0

    metrics["initial_data.lp_norm.calls_per_cert"] = (per_cert(totals["initial_data.lp_norm.calls"]), "count")
    metrics["lifespan.probes_per_cert"] = (per_cert(totals["evaluator_calls"]), "count")
    metrics["constants.cache_misses"] = (totals["constants.cache_misses"], "count")
    metrics["initial_data.grad_norm.first_call_s"] = (totals["initial_data.grad_norm.first_call_s"], "s")
    for name, value in measure_imports().items():
        metrics[name] = (value, "s")
    for branch in BRANCHES:
        metrics[f"requests.share_{branch}"] = (outcome.branches[branch] / outcome.attempted, "ratio")
    metrics["trace.overhead_s"] = (totals["trace.overhead_s"], "s")
    return metrics, problems


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    outcome = Outcome()
    problems: list[str] = []
    if trace:
        metrics, problems = layer_metrics(workload, seed, outcome)
    else:
        setup = measure_setup(workload)
        if workload == "cli_cold":
            run_cli_cold(seed, seconds, outcome)
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            run_inprocess(workload, seed, seconds, outcome)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        lat = outcome.latencies
        metrics = {
            "setup_s": (setup, "s"),
            "throughput_rps": (len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    attempted = outcome.attempted
    failed = len(outcome.failures)
    samples = len(outcome.latencies)
    for reason in (outcome.failures + problems)[:20]:
        print(f"{workload} FAIL {reason}", file=sys.stderr)
    print(f"{workload}: seed={seed} sends={attempted} failed={failed} "
          f"error_rate={failed / attempted:.4g} "
          + " ".join(f"{b}={outcome.branches[b]}" for b in BRANCHES))
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit} (n={samples})")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in a fresh child of this script, one after another; merged result."""
    from workloads import WORKLOADS

    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[workload] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nslifespan" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        final = run_all(args.seed, args.seconds, args.trace)
    else:
        final = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
