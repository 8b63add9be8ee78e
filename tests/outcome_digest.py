"""sha256 over the outcomes of seeded benchmark request blocks.

    python3 tests/outcome_digest.py vortex_sweep --seeds 0 1 308 --blocks 8
    python3 tests/outcome_digest.py norms_mix --seeds 0 1 308 --blocks 20

An outcome is the one ``tests/test_cli.py::TestGoldenCorpus`` hashes:
canonical_dumps(build_report(config)) with the certified flag, or the
class and message of the error the config raises. The requests are the
first ``--blocks`` blocks of each seed's stream from
``perfbench/workloads.py``, which is loaded read-only. The package comes
from the ``src/`` of the checkout this file sits in, so running the same
file in two checkouts compares their reports byte for byte. Prints the
number of outcomes and the digest; equal digests mean equal outcomes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nslifespan.cli import build_report, validate_config  # noqa: E402
from nslifespan.jsonio import canonical_dumps  # noqa: E402


def outcome(config: dict) -> str:
    try:
        validate_config(config)
        report, certified = build_report(config)
    except Exception as exc:  # the error class and message are part of the outcome
        return f"{type(exc).__name__}: {exc}"
    return f"{certified} {canonical_dumps(report)}"


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def digest(workload: str, seeds: list[int], n_blocks: int) -> tuple[int, str]:
    """(number of outcomes, sha256 hex over every outcome line) in seed, block and request order."""
    workloads = load_workloads()
    sha, count = hashlib.sha256(), 0
    for seed in seeds:
        stream = workloads.blocks(workload, seed, ROOT)
        for _ in range(n_blocks):
            for request in next(stream):
                sha.update(outcome(request["config"]).encode("utf-8") + b"\n")
                count += 1
    return count, sha.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["vortex_sweep", "norms_mix"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--blocks", type=int, default=1)
    args = parser.parse_args(argv)
    count, hexdigest = digest(args.workload, args.seeds, args.blocks)
    print(f"{args.workload} seeds={','.join(map(str, args.seeds))} blocks={args.blocks} outcomes={count} sha256={hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
