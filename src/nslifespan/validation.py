"""Config validation: ``schema.json`` compiled to closures, once per process.

Each subschema compiles to a verdict ``valid(x)``, which builds no error, and
an error collector, run only where the verdict fails, that reports the error
jsonschema 4.26 reports: its message, and best_match's choice among several.
Only the keywords in ``KEYWORDS`` and ``ANNOTATIONS`` compile, and ``type``
only with one type name; anything else raises ValueError. Keywords are
checked in the schema's order, as jsonschema checks them, because that order
breaks ties. A bool is never a number, and an integral float is an integer
(drafts 6 on). Unlike jsonschema, ``type`` rejects a NaN with
``NAN_MESSAGE``: NaN passes every bound, and a report cannot encode it.
"""

from __future__ import annotations

import numbers
import operator
import re
from typing import Any, Callable, Mapping

ANNOTATIONS = frozenset({"$schema", "title", "description"})
NAN_MESSAGE = "NaN is not a valid number in a config"


class Violation:
    """One failed keyword, as jsonschema's ValidationError records it.

    ``path`` runs from the instance of the nearest enclosing ``oneOf`` (or
    from the root) to the failing instance; ``schema`` is the subschema that
    holds the keyword; ``context`` holds a failed ``oneOf``'s branch errors.
    """

    __slots__ = ("keyword", "message", "path", "instance", "schema", "context")

    def __init__(self, keyword: str, message: str, path: tuple, instance: Any, schema: Mapping, context=()):
        self.keyword = keyword
        self.message = message
        self.path = path
        self.instance = instance
        self.schema = schema
        self.context = context


def _is_number(instance: Any) -> bool:
    tp = type(instance)
    return tp is float or tp is int or (tp is not bool and isinstance(instance, numbers.Number))


# a "type" keyword names one of these; a list of types does not compile
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)) or (isinstance(x, float) and x.is_integer()),
}


# Each keyword compiles, given its value and its subschema, to (holds, report):
# its verdict on x, and report(x, path, out), which returns the messages of
# its own errors (jsonschema's) and appends the errors of the subschemas it
# applies to `out`. A leaf reports where its verdict fails; a keyword with
# subschemas loops over them once for each, and a test checks that they agree.


def _leaf(holds: Callable, messages: Callable) -> tuple[Callable, Callable]:
    """(holds, report) of a keyword with no subschema; messages(x) runs only where holds(x) fails."""
    return holds, lambda x, path, out: () if holds(x) else messages(x)


def _descend(kind: type, holds: Callable, members: Callable) -> tuple[Callable, Callable]:
    """(holds, report) of a keyword on a `kind` x; members(x) lists (collect, value, path step or None)."""

    def report(x, path, out):
        if isinstance(x, kind):
            for collect, value, step in members(x):
                collect(value, path if step is None else (*path, step), out)
        return ()

    return holds, report


def _type(name, schema):
    if not isinstance(name, str) or name not in _TYPES:
        raise ValueError(f"schema type {name!r} is not supported")
    is_type = _TYPES[name]
    return _leaf(
        lambda x: is_type(x) and not (isinstance(x, float) and x != x),
        lambda x: (NAN_MESSAGE if is_type(x) else f"{x!r} is not of type {name!r}",),
    )


def _properties(properties, schema):
    nodes = [(name, *_compile(subschema)) for name, subschema in properties.items()]

    def holds(x):
        if isinstance(x, dict):
            for name, valid, _ in nodes:
                if name in x and not valid(x[name]):
                    return False
        return True

    return _descend(dict, holds, lambda x: [(collect, x[name], name) for name, _, collect in nodes if name in x])


def _required(names, schema):
    wanted = frozenset(names)
    return _leaf(
        lambda x: not isinstance(x, dict) or x.keys() >= wanted,
        lambda x: [f"{name!r} is a required property" for name in names if name not in x],
    )


def _additional_properties(allowed, schema):
    declared = schema.get("properties", {}).keys()
    if isinstance(allowed, dict):
        valid, collect = _compile(allowed)

        def holds(x):
            if isinstance(x, dict):
                for name, value in x.items():
                    if name not in declared and not valid(value):
                        return False
            return True

        return _descend(dict, holds, lambda x: [(collect, x[name], name) for name in x if name not in declared])

    def messages(x):
        extras = sorted((name for name in x if name not in declared), key=str)
        verb = "was" if len(extras) == 1 else "were"
        return (f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)",)

    return _leaf(lambda x: allowed or not isinstance(x, dict) or x.keys() <= declared, messages)


def _property_names(names_schema, schema):
    valid, collect = _compile(names_schema)
    return _descend(dict, lambda x: not isinstance(x, dict) or all(map(valid, x)),
                    lambda x: [(collect, name, None) for name in x])


# re compiles the pattern at its first search, which a config without a
# string to match never pays for
def _pattern(pattern, schema):
    return _leaf(lambda x: not isinstance(x, str) or re.search(pattern, x) is not None,
                 lambda x: (f"{x!r} does not match {pattern!r}",))


def _bound(fails, relation: str):
    return lambda bound, schema: _leaf(
        lambda x: not (_is_number(x) and fails(x, bound)), lambda x: (f"{x!r} is {relation} of {bound!r}",)
    )


def _items(items, schema):
    valid, collect = _compile(items)
    return _descend(list, lambda x: not isinstance(x, list) or all(map(valid, x)),
                    lambda x: [(collect, item, index) for index, item in enumerate(x)])


def _min_items(count, schema):
    too_short = "should be non-empty" if count == 1 else "is too short"
    return _leaf(lambda x: not isinstance(x, list) or len(x) >= count, lambda x: (f"{x!r} {too_short}",))


# const and enum values in the schema are strings, for which jsonschema's
# equality is ==; a test keeps them strings
def _const(value, schema):
    return _leaf(lambda x: x == value, lambda x: (f"{value!r} was expected",))


def _enum(values, schema):
    return _leaf(lambda x: x in values, lambda x: (f"{x!r} is not one of {values!r}",))


def _one_of(branches, schema):
    nodes = [_compile(branch) for branch in branches]

    def holds(x):
        return sum(1 for valid, _ in nodes if valid(x)) == 1

    def report(x, path, out):
        passing = [branch for branch, (valid, _) in zip(branches, nodes) if valid(x)]
        if len(passing) == 1:
            return ()
        if passing:
            return (f"{x!r} is valid under each of {', '.join(repr(b) for b in [*passing[1:], passing[0]])}",)
        context = [error for _, collect in nodes for error in collect(x, (), [])]
        out.append(Violation("oneOf", f"{x!r} is not valid under any of the given schemas", path, x, schema, context))
        return ()

    return holds, report


KEYWORDS = {
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "propertyNames": _property_names,
    "pattern": _pattern,
    "minimum": _bound(operator.lt, "less than the minimum"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": _bound(operator.ge, "greater than or equal to the maximum"),
    "items": _items,
    "minItems": _min_items,
    "const": _const,
    "enum": _enum,
    "oneOf": _one_of,
}


def _compile(schema: Mapping) -> tuple[Callable, Callable]:
    """(valid, collect) of one subschema; collect(x, path, out) appends the errors of x to out."""
    unknown = schema.keys() - KEYWORDS.keys() - ANNOTATIONS
    if unknown:
        raise ValueError(f"schema keywords {sorted(unknown)} are not supported")
    keywords = [(key, *KEYWORDS[key](value, schema)) for key, value in schema.items() if key not in ANNOTATIONS]
    verdicts = tuple(holds for _, holds, _ in keywords)

    def valid(x):
        for holds in verdicts:
            if not holds(x):
                return False
        return True

    def collect(x, path, out):
        for keyword, _, report in keywords:
            for message in report(x, path, out):
                out.append(Violation(keyword, message, path, x, schema))
        return out

    return (verdicts[0] if len(verdicts) == 1 else valid), collect


def _relevance(error: Violation) -> tuple:
    # jsonschema's relevance key less its slot for "strong" keywords, which
    # is False for every keyword: path length, path, keyword not oneOf, and
    # whether the instance lacks the type of the keyword's subschema
    expected = error.schema.get("type")
    matches_type = expected is not None and _TYPES[expected](error.instance)
    return (-len(error.path), error.path, error.keyword != "oneOf", not matches_type)


class CompiledSchema:
    """A schema compiled to closures: the verdict ``valid`` and the errors of an instance."""

    __slots__ = ("valid", "_collect")

    def __init__(self, schema: Mapping) -> None:
        self.valid, self._collect = _compile(schema)

    def errors(self, instance: Any) -> list[Violation]:
        """Every error of `instance`, in jsonschema's order; empty exactly where `valid` holds."""
        return self._collect(instance, (), [])

    def best_error(self, instance: Any) -> tuple[tuple, str] | None:
        """(absolute path, message) of the error best_match picks; None if valid.

        The error with the greatest relevance key wins: a short path first.
        From a failed oneOf, best_match then takes the branch error with the
        least key, a deep one, unless two branch errors tie for least.
        """
        if self.valid(instance):
            return None
        best = max(self.errors(instance), key=_relevance)
        prefix: tuple = ()
        while best.context:
            ranked = sorted(best.context, key=_relevance)
            if len(ranked) > 1 and _relevance(ranked[0]) == _relevance(ranked[1]):
                break
            prefix += best.path
            best = ranked[0]
        return (*prefix, *best.path), best.message
