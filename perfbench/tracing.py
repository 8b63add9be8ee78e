"""Span tracing of the nslifespan layers, installed from outside the package.

Each traced function is replaced by a wrapper at every module binding that
holds it (the defining module, every ``from .x import f`` copy and the
package re-exports), so call sites resolve to the wrapper however they
name the function. A wrapper records a span only while a request is open;
work done between requests (set-up, the correctness gate) is not counted.

Spans are kept in memory as integer columns and written out at the end.
A span's self time is its duration minus the durations of its direct
children; spans nest because everything runs in one thread.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

# (module, function) pairs wrapped with spans; metric names are
# "<module>.<function>.calls" and "<module>.<function>.self_s".
TRACED = (
    ("cli", "validate_config"),
    ("cli", "build_report"),
    ("initial_data", "k0_exact"),
    ("initial_data", "k0_prime_exact"),
    ("initial_data", "lp_norm"),
    ("initial_data", "grad_norm"),
    ("constants", "composite_constants"),
    ("recurrence", "coupled_bound"),
    ("lifespan", "theorem31_bound"),
    ("lifespan", "theorem41_bound"),
    ("lifespan", "theorem41_explicit"),
    ("lifespan", "optimize_delta"),
    ("lifespan", "global_certificate"),
    ("lifespan", "replay_certificate"),
    ("jsonio", "canonical_dumps"),
    ("jsonio", "fingerprint"),
    ("mixed_norms", "psi_bound"),
    ("mixed_norms", "nu_bound"),
    ("mixed_norms", "psi_min"),
    ("extensions", "forced_lifespan"),
    ("extensions", "abstract_parabolic_lifespan"),
)

NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
REQUEST = len(NAMES)  # function index of the per-request root span


class Tracer:
    """In-memory span store plus per-function call and self-time totals."""

    def __init__(self) -> None:
        self.fn = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.calls = [0] * (len(NAMES) + 1)
        self.self_ns = [0] * (len(NAMES) + 1)
        self.evaluator_calls = 0
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._request_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, idx: int) -> int:
        sid = len(self.fn)
        self.fn.append(idx)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.request.append(self._request_id)
        self.end.append(0)
        self._stack.append([sid, 0])
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, idx: int) -> None:
        now = time.perf_counter_ns()
        sid, covered = self._stack.pop()
        self.end[sid] = now
        dur = now - self.start[sid]
        self.calls[idx] += 1
        self.self_ns[idx] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    def begin_request(self, request_id: int) -> None:
        self._request_id = request_id
        self._open(REQUEST)

    def end_request(self) -> None:
        self._close(REQUEST)
        self._request_id = -1

    def _wrap(self, idx: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._request_id < 0:
                return fn(*args, **kwargs)
            tracer._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function; count evaluator calls.

        Raises RuntimeError when a traced function is missing from its
        module, so a rename in the package cannot silently drop a layer.
        """
        import nslifespan.cli  # noqa: F401  (loads every submodule)
        from nslifespan.lifespan import KatoEvaluator

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "nslifespan" or name.startswith("nslifespan."))]
        wrappers = {}
        for idx, (mod, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"nslifespan.{mod}"], fn_name, None)
            if not callable(original):
                raise RuntimeError(f"nslifespan.{mod}.{fn_name} is not a function")
            wrappers[id(original)] = (original, self._wrap(idx, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

        original_call = KatoEvaluator.__call__
        tracer = self

        def counted_call(evaluator, t):
            if tracer._request_id >= 0:
                tracer.evaluator_calls += 1
            return original_call(evaluator, t)

        self._restore.append((KatoEvaluator, "__call__", original_call))
        KatoEvaluator.__call__ = counted_call

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Per-function call counts and self times, keyed by layer name."""
        out = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_ns[idx] / 1e9
        out["request.calls"] = self.calls[REQUEST]
        out["request.self_s"] = self.self_ns[REQUEST] / 1e9
        out["evaluator_calls"] = self.evaluator_calls
        return out

    def write_spans(self, path: Path) -> None:
        """Gzipped, one tab-separated line per span: id, parent, request, name, start_ns, end_ns."""
        names = NAMES + ("request",)
        base = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.fn)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.request[sid]}\t{names[self.fn[sid]]}"
                         f"\t{self.start[sid] - base}\t{self.end[sid] - base}\n")
