"""Fresh-interpreter set-up for one workload; prints "ready" when done.

The parent times this process from launch to the "ready" line: that is the
benchmark's setup_s (interpreter start, ``import nslifespan.cli`` and the
workload's one-time lazy work).

    python3 perfbench/setup_child.py vortex_sweep
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import warm_up  # noqa: E402

warm_up(sys.argv[1])
print("ready", flush=True)
