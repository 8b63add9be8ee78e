import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslifespan import jsonio
from nslifespan.cli import build_report, validate_config
from nslifespan.jsonio import canonical_dumps

from oracle_utils import canonical_dumps_recursive, reference_canonical_dumps
from test_cli import _golden_corpus, _workload_block

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
        assert canonical_dumps(tree) == canonical_dumps_recursive(tree)

    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    def test_report_table_at_each_level(self, depth):
        report = _report()
        trees = [report, report["constants"], report["constants"]["table"]]
        for tree in trees:
            for _ in range(depth):
                tree = [{"wrapped": tree}]
            assert canonical_dumps(tree) == canonical_dumps_recursive(tree)

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


class _Sub(float):
    pass


class TestTextMemo:
    """The per-process float and key texts never change a byte, whatever the memos hold.

    Every case is compared with ``oracle_utils.reference_canonical_dumps``,
    the single-pass encoder without memos.
    """

    def same(self, tree):
        assert canonical_dumps(tree) == reference_canonical_dumps(tree)

    def test_signed_zeros_in_one_report_and_across_calls(self):
        for tree in ([0.0, -0.0], [-0.0, 0.0], {"a": -0.0, "b": 0.0}, {"a": 0.0, "b": -0.0}, [[0.0], {"z": -0.0}]):
            self.same(tree)
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            for _ in range(2):
                assert canonical_dumps([first]) == reference_canonical_dumps([first])
                assert canonical_dumps({"x": second}) == reference_canonical_dumps({"x": second})
        assert canonical_dumps([-0.0]) == "[\n  -0\n]\n" and canonical_dumps([0.0]) == "[\n  0\n]\n"
        assert 0.0 not in jsonio._FLOAT_TEXTS

    def test_infinities(self):
        tree = {"a": math.inf, "b": [-math.inf, math.inf], "c": -math.inf}
        for _ in range(2):
            self.same(tree)
        assert canonical_dumps([math.inf, -math.inf]) == '[\n  "infinity",\n  "-infinity"\n]\n'

    def test_nan_raises_after_other_floats_are_remembered(self):
        self.same({"a": 0.125, "b": [2.5, 0.1]})
        assert jsonio._FLOAT_TEXTS[0.1] == "0.10000000000000001"
        for tree in ([0.1, math.nan], {"a": 0.125, "b": math.nan}, [2.5, [np.float64("nan")]]):
            with pytest.raises(ValueError, match="NaN"):
                canonical_dumps(tree)
        assert all(x == x for x in jsonio._FLOAT_TEXTS)
        self.same([0.1, 2.5])

    def test_float_subclass_and_a_key_that_reads_like_a_float(self):
        for tree in (
            [_Sub(0.1), 0.1, _Sub(0.1), np.float64(0.1)],
            [0.7, _Sub(0.7)],
            {"k": _Sub(1e300), "l": 1e300},
            {"0.5": 0.5, "1": 1.0, "inf": math.inf},
            [0.5, {"0.5": "0.5"}, "0.5"],
        ):
            self.same(tree)
            self.same(tree)
        assert jsonio._KEY_TEXTS["0.5"] == '"0.5": '

    def test_more_distinct_values_than_the_bound(self):
        n = 3 * jsonio._MEMO_SIZE + 7
        tree = {
            "floats": [i + 0.5 for i in range(n)],
            "keyed": {f"key{i}": i / 7.0 for i in range(n)},
        }
        for _ in range(2):
            self.same(tree)
            assert len(jsonio._FLOAT_TEXTS) <= jsonio._MEMO_SIZE
            assert len(jsonio._KEY_TEXTS) <= jsonio._MEMO_SIZE

    def test_golden_corpus_and_workload_blocks(self):
        requests = [request for w in ("vortex_sweep", "norms_mix") for request in _workload_block(w, 0)]
        reports = 0
        for config in [*_golden_corpus(), *(request["config"] for request in requests)]:
            try:
                validate_config(config)
                report, _ = build_report(config)
            except Exception:  # rejected inputs have no report
                continue
            body = {key: value for key, value in report.items() if key != "fingerprint"}
            digest = hashlib.sha256(reference_canonical_dumps(body).encode("utf-8")).hexdigest()
            assert report["fingerprint"] == "sha256:" + digest, config
            for _ in range(2):
                assert canonical_dumps(report) == reference_canonical_dumps(report), config
            reports += 1
        assert reports == 189 + sum(request["expect"] is None for request in requests)
