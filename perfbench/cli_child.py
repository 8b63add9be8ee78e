"""Run the nslifespan CLI once with the layer tracer installed.

Used by traced cli_cold runs. Writes the per-layer totals as JSON to
SUMMARY and the spans to SUMMARY with the suffix ".tsv.gz", then exits with
the CLI's own exit code.

    python3 perfbench/cli_child.py SUMMARY --config F --out REPORT
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nslifespan.cli as cli  # noqa: E402
from nslifespan import constants  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    summary = Path(sys.argv[1])
    tracer = Tracer()
    misses = constants._composite.cache_info().misses
    with tracer:
        tracer.begin_request(0)
        try:
            code = cli.main(sys.argv[2:])
        finally:
            tracer.end_request()
    totals = tracer.totals()
    totals["constants.cache_misses"] = constants._composite.cache_info().misses - misses
    tracer.write_spans(summary.with_suffix(".tsv.gz"))
    summary.write_text(json.dumps(totals), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
