import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslifespan.cli import build_report
from nslifespan.jsonio import canonical_dumps

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
