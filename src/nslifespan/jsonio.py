"""Deterministic JSON encoding for certificate reports.

Floats are written with 17 significant digits so a replaying process parses
back bit-identical doubles; infinities are encoded as the strings
"infinity" / "-infinity" (JSON has no literal for them); object keys are
emitted sorted. The output is byte-stable across runs for identical input.

The encoder makes one pass over the report and appends every piece to one
list. A container writes its float and str members itself, with the
opening, separator and closing strings of its nesting level (built once per
level), and hands any other member to `_encode`. That dispatches on the
exact type of each value first (dict, list, None, bool, float, str) and
falls back to isinstance checks, in the order int, float, str, list/tuple,
dict, for ints, tuples and subclasses of the exact types. bool is an int
subclass but cannot itself be subclassed, so the exact dispatch catches
every bool before the int check.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import Any

__all__ = ["canonical_dumps", "decode_infinities", "fingerprint"]

_INDENT = 2
_NONFINITE = {"inf": '"infinity"', "-inf": '"-infinity"'}


class _Punctuation(dict):
    """level -> (opening, separator, closing) of a container at that level."""

    def __init__(self, brackets: str) -> None:
        super().__init__()
        self.brackets = brackets

    def __missing__(self, level: int) -> tuple[str, str, str]:
        pad = " " * (_INDENT * level)
        sep = ",\n" + pad + " " * _INDENT
        value = self[level] = (self.brackets[0] + sep[1:], sep, "\n" + pad + self.brackets[1])
        return value


_OBJECT = _Punctuation("{}")
_ARRAY = _Punctuation("[]")


def _format_float(x: float) -> str:
    text = format(x, ".17g")
    if text[-1] in "fn":  # "inf", "-inf" or "nan"
        if text == "nan":
            raise ValueError("NaN is not representable in a certificate report")
        return _NONFINITE[text]
    return text


def _encode(obj: Any, level: int, out: list[str]) -> None:
    tp = type(obj)
    if tp is dict:
        _encode_members(obj, level, out)
    elif tp is list:
        _encode_items(obj, level, out)
    elif obj is None:
        out.append("null")
    elif tp is bool:
        out.append("true" if obj else "false")
    elif tp is float:
        out.append(_format_float(obj))
    elif tp is str:
        out.append(encode_basestring_ascii(obj))
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
    lead, sep, closing = _ARRAY[level]
    append = out.append
    for value in items:
        tp = type(value)
        if tp is float:
            text = format(value, ".17g")
            if text[-1] in "fn":
                text = _format_float(value)
            append(f"{lead}{text}")
        elif tp is str:
            append(f"{lead}{encode_basestring_ascii(value)}")
        else:
            append(lead)
            _encode(value, level + 1, out)
        lead = sep
    append(closing)


def _encode_members(members: Any, level: int, out: list[str]) -> None:
    if not members:
        out.append("{}")
        return
    lead, sep, closing = _OBJECT[level]
    append = out.append
    for key in sorted(members):
        if not isinstance(key, str):
            raise TypeError("report keys must be strings")
        value = members[key]
        tp = type(value)
        if tp is float:
            text = format(value, ".17g")
            if text[-1] in "fn":
                text = _format_float(value)
            append(f"{lead}{encode_basestring_ascii(key)}: {text}")
        elif tp is str:
            append(f"{lead}{encode_basestring_ascii(key)}: {encode_basestring_ascii(value)}")
        else:
            append(f"{lead}{encode_basestring_ascii(key)}: ")
            _encode(value, level + 1, out)
        lead = sep
    append(closing)


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
    """sha256 of the canonical serialization; deterministic run identifier.

    hashlib loads OpenSSL (about 3 ms), so only a run that writes a report imports it.
    """
    import hashlib

    return "sha256:" + hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()
