"""Deterministic JSON encoding for certificate reports.

Floats are written with 17 significant digits so a replaying process parses
back bit-identical doubles; infinities are encoded as the strings
"infinity" / "-infinity" (JSON has no literal for them); object keys are
emitted sorted. The output is byte-stable across runs for identical input.

The encoder makes one pass over the report and appends every piece to one
list. It dispatches on the exact type of each value first (float, str,
dict, list, None, bool: most of what reports are made of) and falls back
to isinstance checks, in the order int, float, str, list/tuple, dict, for
ints, tuples and subclasses such as numpy.float64. bool is an int
subclass but cannot itself be subclassed, so the exact dispatch catches
every bool before the int check.
"""

from __future__ import annotations

import hashlib
import math
from json.encoder import encode_basestring_ascii
from typing import Any

__all__ = ["canonical_dumps", "decode_infinities", "fingerprint"]

_INDENT = 2


def _format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not representable in a certificate report")
    if math.isinf(x):
        return '"infinity"' if x > 0 else '"-infinity"'
    return format(x, ".17g")


def _encode(obj: Any, level: int, out: list[str]) -> None:
    tp = type(obj)
    if tp is float:
        out.append(_format_float(obj))
    elif tp is str:
        out.append(encode_basestring_ascii(obj))
    elif tp is dict:
        _encode_members(obj, level, out)
    elif tp is list:
        _encode_items(obj, level, out)
    elif obj is None:
        out.append("null")
    elif tp is bool:
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)):
        _encode_items(obj, level, out)
    elif isinstance(obj, dict):
        _encode_members(obj, level, out)
    else:
        raise TypeError(f"unsupported type in report: {type(obj)!r}")


def _encode_items(items: Any, level: int, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    sep = ",\n" + " " * (_INDENT * (level + 1))
    out.append("[" + sep[1:])
    for i, v in enumerate(items):
        if i:
            out.append(sep)
        _encode(v, level + 1, out)
    out.append("\n" + " " * (_INDENT * level) + "]")


def _encode_members(members: Any, level: int, out: list[str]) -> None:
    if not members:
        out.append("{}")
        return
    keys = sorted(members)
    if any(not isinstance(k, str) for k in keys):
        raise TypeError("report keys must be strings")
    sep = ",\n" + " " * (_INDENT * (level + 1))
    out.append("{" + sep[1:])
    for i, k in enumerate(keys):
        if i:
            out.append(sep)
        out.append(encode_basestring_ascii(k))
        out.append(": ")
        _encode(members[k], level + 1, out)
    out.append("\n" + " " * (_INDENT * level) + "}")


def canonical_dumps(obj: Any) -> str:
    """Serialize a report to its canonical byte-stable form."""
    out: list[str] = []
    _encode(obj, 0, out)
    out.append("\n")
    return "".join(out)


def decode_infinities(obj: Any) -> Any:
    """Recursively map the strings "infinity"/"-infinity" back to floats."""
    if isinstance(obj, str):
        if obj == "infinity":
            return math.inf
        if obj == "-infinity":
            return -math.inf
        return obj
    if isinstance(obj, list):
        return [decode_infinities(v) for v in obj]
    if isinstance(obj, dict):
        return {k: decode_infinities(v) for k, v in obj.items()}
    return obj


def fingerprint(obj: Any) -> str:
    """sha256 of the canonical serialization; deterministic run identifier."""
    return "sha256:" + hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()
