"""Deterministic JSON encoding for certificate reports.

Floats are written with 17 significant digits so a replaying process parses
back bit-identical doubles; infinities are encoded as the strings
"infinity" / "-infinity" (JSON has no literal for them); object keys are
emitted sorted. The output is byte-stable across runs for identical input.

The encoder makes one pass over the report and appends every piece to one
list. A container writes its float and str members itself, with the
opening, separator and closing strings of its nesting level (built once per
level), and hands any other member to `_encode`. That dispatches on the
exact type of each value first (dict, list, None, bool, float, str, and an
`EncodedTable`) and falls back to isinstance checks, in the order int,
float, str, list/tuple, dict, for ints, tuples and subclasses of the
exact types. bool is an int subclass but cannot itself be subclassed, so
the exact dispatch catches every bool before the int check.

An `EncodedTable` is a list of rows that keeps its canonical text. The
first encoding of the table stores on it the text, the nesting level it
was written at, and a snapshot of the rows: the row dicts, the keys of each
row in order, and every value of every row in order. A later encoding at
the same level reuses the text when the table holds the same row dicts,
each with the same keys in the same order, and every value is the same
object as in the snapshot. Each row then maps the same keys to the same
immutable values, which encode as before; -0.0 for 0.0, or True for 1.0,
is a different object and is seen. Anything else (a row edited, added,
dropped or replaced, or another level) is encoded afresh, and the new text
replaces the stored one. Only a table whose rows are all dicts of str,
float, int, bool or None values stores text. The snapshot is taken before
the text is written, and the two are stored together in one attribute. The text
lives and dies with its table.

A table's first text comes either from its own first encoding or from a
seed: the ``text()`` of an earlier table, that is its level, text, keys
and values without its rows. A seeded table of dicts starts with that
text, its own rows in place of the earlier table's, so its first encoding
runs only the identity check above, on its own row dicts against the
seed's keys and values. ``cli.build_report`` keeps one such seed with
each ``ConstantSet``; the encoder keeps nothing across reports.
"""

from __future__ import annotations

import hashlib
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import is_
from typing import Any

__all__ = ["EncodedTable", "canonical_dumps", "decode_infinities", "fingerprint"]

_INDENT = 2
_NONFINITE = {"inf": '"infinity"', "-inf": '"-infinity"'}
_DICT = frozenset({dict})
_SCALARS = frozenset({str, float, int, bool, type(None)})


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


class EncodedTable(list):
    """A list of flat rows that keeps its canonical text between encodings.

    ``seed`` is the ``text()`` of another table. The first encoding reuses
    its text if these rows pass the same identity check against it.
    """

    def __init__(self, rows: Any = (), seed: tuple | None = None) -> None:
        super().__init__(rows)
        # (level, text, rows, keys of each row, values of every row) of the
        # last encoding; one attribute, so a reader sees a consistent set
        self._stored: tuple | None = None
        if seed is not None and _DICT.issuperset(map(type, self)):
            level, text, keys, values = seed
            self._stored = (level, text, tuple(self), keys, values)

    def text(self) -> tuple | None:
        """(level, text, keys of each row, values of every row) of the last encoding, or None.

        It holds no row, so a table seeded with it shares no mutable object
        with this one.
        """
        stored = self._stored
        return None if stored is None else (stored[0], stored[1], stored[3], stored[4])


def _snapshot(table: EncodedTable) -> tuple | None:
    """(rows, keys of each row, values of every row), or None unless the rows are dicts of scalars."""
    if not _DICT.issuperset(map(type, table)):
        return None
    values = tuple(chain.from_iterable(map(dict.values, table)))
    if not _SCALARS.issuperset(map(type, values)):
        return None
    return tuple(table), tuple(map(tuple, table)), values


def _encode_table(table: EncodedTable, level: int, out: list[str]) -> None:
    stored = table._stored
    if stored is not None:
        stored_level, text, rows, keys, values = stored
        if (
            stored_level == level
            and len(table) == len(rows)
            and all(map(is_, table, rows))
            and tuple(map(tuple, rows)) == keys
            and all(map(is_, chain.from_iterable(map(dict.values, rows)), values))
        ):
            out.append(text)
            return
    # taken before the text, so an edit made while encoding is seen next time
    snapshot = _snapshot(table)
    start = len(out)
    _encode_items(table, level, out)
    if snapshot is not None:
        table._stored = (level, "".join(out[start:]), *snapshot)


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
    elif tp is EncodedTable:
        _encode_table(obj, level, out)
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
    """sha256 of the canonical serialization; deterministic run identifier."""
    return "sha256:" + hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()
