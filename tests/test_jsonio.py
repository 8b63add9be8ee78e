import copy
import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslifespan import constants, jsonio
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


_CONFIG = {"d": 4, "mode": "thm41", "data": {"norms": {"lp_norms": {"4.0": 1e-3}, "grad_d_norm": 1e-3}}}


def _fresh_report() -> dict:
    # a report with its own table, not yet encoded, and its fingerprint checked
    report = build_report(_CONFIG)[0]
    assert type(report["constants"]["table"]) is EncodedTable
    return report


def _reports_of_a_new_set(n: int) -> list[dict]:
    # n reports of one (d, delta) from a cold constants cache: the first
    # encodes its table, the second keeps its text, every later one is seeded
    constants._composite.cache_clear()
    reports = [_fresh_report() for _ in range(n)]
    kept = constants.composite_constants(4, reports[0]["constants"]["delta"]).report_table_text
    assert len(kept) == 2 and kept[0] is None and kept[1] is not None
    return reports


def _immutable(obj) -> bool:
    if type(obj) is tuple:
        return all(map(_immutable, obj))
    return type(obj) in (str, float, int, bool, type(None))


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
    """The stored text of a report's constants table follows every edit.

    That holds too for a table seeded with the text its ConstantSet kept
    from an earlier report, and for that earlier report's table.
    """

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

    @pytest.mark.parametrize("edited", ["keeper", "seeded"])
    @pytest.mark.parametrize("mutate", MUTATIONS, ids=[m.__name__.lstrip("_") for m in MUTATIONS])
    def test_edit_stays_in_its_report(self, mutate, edited):
        # the second report kept the text; the third and fourth were seeded with it
        _, keeper, seeded, other = _reports_of_a_new_set(4)
        report = keeper if edited == "keeper" else seeded
        text = canonical_dumps(other)
        assert canonical_dumps(report) == text
        mutate(report["constants"]["table"], lambda: canonical_dumps(report))
        assert canonical_dumps(report) == canonical_dumps_recursive(report) != text
        assert _refingerprint(report) != report["fingerprint"]
        assert canonical_dumps(other) == text
        assert _refingerprint(other) == other["fingerprint"]
        later = _fresh_report()
        assert canonical_dumps(later) == canonical_dumps_recursive(later) == text
        assert _refingerprint(later) == later["fingerprint"]

    def test_no_row_is_shared(self):
        reports = _reports_of_a_new_set(4)
        rows = [row for report in reports for row in report["constants"]["table"]]
        assert len(set(map(id, rows))) == len(rows)
        kept = constants.composite_constants(4, reports[0]["constants"]["delta"]).report_table_text
        assert _immutable(tuple(kept))

    def test_seeded_report_does_not_encode_its_rows(self, monkeypatch):
        encoded = []
        encode_members = jsonio._encode_members

        def spy(members, level, out):
            encoded.append(members)
            encode_members(members, level, out)

        monkeypatch.setattr(jsonio, "_encode_members", spy)
        _reports_of_a_new_set(2)
        seeded = _fresh_report()
        table = seeded["constants"]["table"]
        assert encoded and not any(row is member for row in table for member in encoded)
        assert canonical_dumps(seeded) == canonical_dumps_recursive(seeded)
        assert not any(row is member for row in table for member in encoded)
        # a new set, after the cache is cleared, encodes its first report's rows
        constants._composite.cache_clear()
        fresh = _fresh_report()
        assert all(any(row is member for member in encoded) for row in fresh["constants"]["table"])
        assert canonical_dumps(fresh) == canonical_dumps(seeded)

    def test_copies_of_a_seeded_report_encode_alike(self):
        report = _reports_of_a_new_set(3)[-1]
        text = canonical_dumps(report)
        clones = [copy.copy(report), copy.deepcopy(report)]
        clones += [pickle.loads(pickle.dumps(report, protocol)) for protocol in (0, pickle.HIGHEST_PROTOCOL)]
        for clone in clones:
            assert canonical_dumps(clone) == text
            assert _refingerprint(clone) == report["fingerprint"]
        clone = copy.deepcopy(report)
        clone["constants"]["table"][0]["value"] = 7.0
        assert canonical_dumps(clone) == canonical_dumps_recursive(clone) != text
        assert canonical_dumps(report) == text

    def test_seed_at_another_level_is_not_used(self):
        report = _reports_of_a_new_set(3)[-1]
        table = report["constants"]["table"]
        assert canonical_dumps(table) == canonical_dumps_recursive(table)
        assert canonical_dumps([{"t": table}]) == canonical_dumps_recursive([{"t": table}])

    def test_seed_ignored_for_rows_that_are_not_dicts(self):
        seed = EncodedTable([{"a": 1.0}])
        canonical_dumps(seed)
        table = EncodedTable([[1.0]], seed.text())
        assert canonical_dumps(table) == canonical_dumps_recursive(table)
