import copy
import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslifespan.cli import build_report
from nslifespan.jsonio import EncodedTable, canonical_dumps, fingerprint

from oracle_utils import canonical_dumps_recursive

FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
STRINGS = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
    st.sampled_from(["", "infinity", 'quote " backslash \\', "é中\U0001f600", "\x00\x7f"]),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.sampled_from([0, 1, -1]), st.integers(), FLOATS, STRINGS)


@functools.cache
def _report() -> dict:
    # a report whose constants table is the one build_report makes
    config = {"d": 3, "mode": "global_test", "data": {"norms": {"lp_norms": {"3.0": 0.01}}}}
    return build_report(config)[0]


def _fresh_report() -> dict:
    # a report with its own table, not yet encoded, and its fingerprint checked
    config = {"d": 4, "mode": "thm41", "data": {"norms": {"lp_norms": {"4.0": 1e-3}, "grad_d_norm": 1e-3}}}
    report = build_report(config)[0]
    assert type(report["constants"]["table"]) is EncodedTable
    return report


def _refingerprint(report: dict) -> str:
    return fingerprint({k: v for k, v in report.items() if k != "fingerprint"})


# the real constants block and table of one report, shared by every tree that
# draws them, so one tree can hold the same table at several nesting levels
TABLES = st.one_of(
    st.builds(_report),
    st.builds(lambda: _report()["constants"]),
    st.builds(lambda: _report()["constants"]["table"]),
)
TREES = st.recursive(
    st.one_of(SCALARS, TABLES),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=40,
)


class TestCanonicalDumps:
    @settings(max_examples=300, deadline=None)
    @given(TREES)
    def test_matches_recursive_reference(self, tree):
        # twice: a table's first encoding stores its text, the second reuses it
        expected = canonical_dumps_recursive(tree)
        assert canonical_dumps(tree) == expected
        assert canonical_dumps(tree) == expected

    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    def test_report_table_at_each_level(self, depth):
        report = _fresh_report()
        trees = [report, report["constants"], report["constants"]["table"]]
        for tree in trees:
            for _ in range(depth):
                tree = [{"wrapped": tree}]
            expected = canonical_dumps_recursive(tree)
            assert canonical_dumps(tree) == expected
            assert canonical_dumps(tree) == expected
        assert canonical_dumps(report) == canonical_dumps_recursive(report)

    def test_bool_and_int_kept_apart(self):
        tree = {"a": [True, 1, False, 0], "b": {"t": True, "one": 1}, "e": [[], {}, ()]}
        text = canonical_dumps(tree)
        assert text == canonical_dumps_recursive(tree)
        assert "true,\n    1,\n    false,\n    0" in text

    def test_numpy_float64_encodes_like_float(self):
        for x in (0.1, -0.0, 5e-324, 1.7e308, math.inf, -math.inf):
            assert canonical_dumps([np.float64(x)]) == canonical_dumps([x])

    @pytest.mark.parametrize("tree", [math.nan, [1.0, math.nan], {"x": np.float64("nan")}])
    def test_nan_rejected(self, tree):
        with pytest.raises(ValueError):
            canonical_dumps(tree)

    @pytest.mark.parametrize("tree", [{1: "a"}, {"a": {(1, 2): 0}}, {None: 1}])
    def test_non_str_key_rejected(self, tree):
        with pytest.raises(TypeError, match="report keys must be strings"):
            canonical_dumps(tree)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_dumps({"s": {1, 2}})


def _edit_value(table, encode):
    table[3]["value"] *= 2.0


def _negate_zero(table, encode):
    # -0.0 == 0.0, but the two encode differently
    table.append({"name": "zero", "value": 0.0, "formula": ""})
    encode()
    table[-1]["value"] = -0.0


def _bool_for_float(table, encode):
    # True == 1.0, but the two encode differently
    table.append({"name": "one", "value": 1.0, "formula": ""})
    encode()
    table[-1]["value"] = True


def _edit_formula(table, encode):
    table[0]["formula"] += " (edited)"


def _add_key(table, encode):
    table[5]["note"] = "extra"


def _rename_key(table, encode):
    table[5]["formula2"] = table[5].pop("formula")


def _swap_key_values(table, encode):
    # the same values in the same order, under other keys
    row = table[6]
    name, value, formula = row["name"], row["value"], row["formula"]
    row.clear()
    row.update(formula=name, value=value, name=formula)


def _append_row(table, encode):
    table.append({"name": "x", "value": 1.5, "formula": "appended"})


def _drop_row(table, encode):
    table.pop(2)


def _swap_rows(table, encode):
    table[0], table[1] = table[1], table[0]


def _replace_row(table, encode):
    table[4] = dict(table[4])
    table[4]["value"] = 0.5


def _nested_value(table, encode):
    # a row holding a list never stores text, so editing the list is seen
    table[2]["value"] = [1.0]
    encode()
    table[2]["value"].append(2.0)


MUTATIONS = [
    _edit_value, _negate_zero, _bool_for_float, _edit_formula, _add_key, _rename_key, _swap_key_values,
    _append_row, _drop_row, _swap_rows, _replace_row, _nested_value,
]


class TestEncodedTable:
    """The stored text of a report's constants table follows every edit."""

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=[m.__name__.lstrip("_") for m in MUTATIONS])
    def test_edited_table_encodes_its_content(self, mutate):
        report = _fresh_report()
        table = report["constants"]["table"]
        assert _refingerprint(report) == report["fingerprint"]
        before = canonical_dumps(report)
        mutate(table, lambda: canonical_dumps(report))
        text = canonical_dumps(report)
        assert text == canonical_dumps_recursive(report)
        assert text != before
        assert _refingerprint(report) != report["fingerprint"]

    def test_replaced_table(self):
        report = _fresh_report()
        canonical_dumps(report)
        report["constants"]["table"] = report["constants"]["table"][:-1]
        assert type(report["constants"]["table"]) is list
        assert canonical_dumps(report) == canonical_dumps_recursive(report)
        assert _refingerprint(report) != report["fingerprint"]

    def test_edit_reverted(self):
        report = _fresh_report()
        table = report["constants"]["table"]
        value = table[3]["value"]
        table[3]["value"] = value + 1.0
        assert _refingerprint(report) != report["fingerprint"]
        table[3]["value"] = value
        assert _refingerprint(report) == report["fingerprint"]
        assert canonical_dumps(report) == canonical_dumps_recursive(report)

    def test_copies_encode_alike(self):
        report = _fresh_report()
        text = canonical_dumps(report)
        clones = [copy.copy(report), copy.deepcopy(report)]
        clones += [pickle.loads(pickle.dumps(report, protocol)) for protocol in (0, pickle.HIGHEST_PROTOCOL)]
        for clone in clones:
            assert canonical_dumps(clone) == text
        clone = copy.deepcopy(report)
        clone["constants"]["table"][0]["value"] = 7.0
        assert canonical_dumps(clone) == canonical_dumps_recursive(clone) != text
        assert canonical_dumps(report) == text

    def test_nan_row_rejected(self):
        table = EncodedTable([{"value": 1.0}])
        canonical_dumps(table)
        table[0]["value"] = math.nan
        with pytest.raises(ValueError):
            canonical_dumps(table)
