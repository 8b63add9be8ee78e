"""Config validation: a standard-library interpreter of ``schema.json``.

It interprets the draft-07 keywords that the schema uses, the keys of
``KEYWORDS``; ``ANNOTATIONS`` name the keywords that assert nothing. For an
invalid instance it reports the error that jsonschema 4.26 reports: the same
message, and the same choice among several errors as
``jsonschema.exceptions.best_match``. Each subschema's keywords are walked in
the order the schema lists them, as jsonschema walks them, because that order
breaks ties between errors. Numbers follow drafts 6 and later: a bool is never
a number, and an integral float is an integer. Unlike jsonschema, ``type``
rejects a NaN that has the schema's type, with ``NAN_MESSAGE``: NaN passes
every bound, and a report cannot encode it. The test suite checks the
interpreter against jsonschema and fails on a schema keyword it lacks.
"""

from __future__ import annotations

import numbers
import operator
import re
from typing import Any, Mapping

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
    return isinstance(instance, numbers.Number) and not isinstance(instance, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)) or (isinstance(x, float) and x.is_integer()),
}


def _is_type(instance: Any, types: str | list) -> bool:
    if isinstance(types, str):
        return _TYPES[types](instance)
    return any(_TYPES[t](instance) for t in types)


# Each keyword returns the messages of its own errors and appends the errors
# of the subschemas it descends into to `out`. The messages are jsonschema's.


def _type(types, instance, schema, path, out):
    if _is_type(instance, types):
        if isinstance(instance, float) and instance != instance:
            return (NAN_MESSAGE,)
        return ()
    names = [types] if isinstance(types, str) else types
    return (f"{instance!r} is not of type {', '.join(repr(t) for t in names)}",)


def _properties(properties, instance, schema, path, out):
    if isinstance(instance, dict):
        for name, subschema in properties.items():
            if name in instance:
                _collect(instance[name], subschema, (*path, name), out)
    return ()


def _required(names, instance, schema, path, out):
    if not isinstance(instance, dict):
        return ()
    return [f"{name!r} is a required property" for name in names if name not in instance]


def _additional_properties(allowed, instance, schema, path, out):
    if not isinstance(instance, dict):
        return ()
    extras = [name for name in instance if name not in schema.get("properties", {})]
    if isinstance(allowed, dict):
        for name in extras:
            _collect(instance[name], allowed, (*path, name), out)
    elif not allowed and extras:
        verb = "was" if len(extras) == 1 else "were"
        return (f"Additional properties are not allowed ({', '.join(map(repr, sorted(extras, key=str)))} {verb} unexpected)",)
    return ()


def _property_names(names_schema, instance, schema, path, out):
    if isinstance(instance, dict):
        for name in instance:
            _collect(name, names_schema, path, out)
    return ()


def _pattern(pattern, instance, schema, path, out):
    if isinstance(instance, str) and not re.search(pattern, instance):
        return (f"{instance!r} does not match {pattern!r}",)
    return ()


def _bound(fails, relation: str):
    def check(bound, instance, schema, path, out):
        if _is_number(instance) and fails(instance, bound):
            return (f"{instance!r} is {relation} of {bound!r}",)
        return ()

    return check


def _items(items, instance, schema, path, out):
    if isinstance(instance, list):
        for index, item in enumerate(instance):
            _collect(item, items, (*path, index), out)
    return ()


def _min_items(count, instance, schema, path, out):
    if isinstance(instance, list) and len(instance) < count:
        return (f"{instance!r} {'should be non-empty' if count == 1 else 'is too short'}",)
    return ()


# const and enum values in the schema are strings, for which jsonschema's
# equality is ==; a test keeps them strings
def _const(value, instance, schema, path, out):
    return (f"{value!r} was expected",) if instance != value else ()


def _enum(values, instance, schema, path, out):
    return (f"{instance!r} is not one of {values!r}",) if instance not in values else ()


def _one_of(branches, instance, schema, path, out):
    context: list[Violation] = []
    for index, branch in enumerate(branches):
        errors = _collect(instance, branch, (), [])
        if not errors:
            break
        context += errors
    else:
        message = f"{instance!r} is not valid under any of the given schemas"
        out.append(Violation("oneOf", message, path, instance, schema, context))
        return ()
    more = [b for b in branches[index + 1:] if not _collect(instance, b, (), [])]
    if more:
        return (f"{instance!r} is valid under each of {', '.join(repr(b) for b in [*more, branches[index]])}",)
    return ()


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


def _collect(instance: Any, schema: Mapping, path: tuple, out: list) -> list:
    """Append the errors of `instance` under `schema` to `out`, in jsonschema's order."""
    for keyword, value in schema.items():
        check = KEYWORDS.get(keyword)
        if check is not None:
            for message in check(value, instance, schema, path, out):
                out.append(Violation(keyword, message, path, instance, schema))
    return out


def _relevance(error: Violation) -> tuple:
    # jsonschema's relevance key less its slot for "strong" keywords, which
    # is False for every keyword: path length, path, keyword not oneOf, and
    # whether the instance lacks the type of the keyword's subschema
    expected = error.schema.get("type")
    matches_type = expected is not None and _is_type(error.instance, expected)
    return (-len(error.path), error.path, error.keyword != "oneOf", not matches_type)


def best_error(instance: Any, schema: Mapping) -> tuple[tuple, str] | None:
    """(absolute path, message) of the error best_match picks; None if valid.

    The error with the greatest relevance key wins: a short path first. From
    a failed oneOf, best_match then takes the branch error with the least
    key, a deep one, unless two branch errors tie for least.
    """
    best = max(_collect(instance, schema, (), []), key=_relevance, default=None)
    if best is None:
        return None
    prefix: tuple = ()
    while best.context:
        ranked = sorted(best.context, key=_relevance)
        if len(ranked) > 1 and _relevance(ranked[0]) == _relevance(ranked[1]):
            break
        prefix += best.path
        best = ranked[0]
    return (*prefix, *best.path), best.message
