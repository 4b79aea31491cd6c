"""Property-based tests (hypothesis) for core data structures and the
expected-benefit estimator's invariants."""

import enum
import json
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.benefit import (
    expected_benefit,
    expected_benefit_subset,
    naive_resource_estimate,
)
from repro.core.graph import CpuNode, ExecutionGraph, NodeType, ProblemKind
from repro.core.jsonio import dumps_indented
from repro.instr.loadstore import RegionSet
from repro.instr.symbols import demangle_base_name, strip_template_params

# ----------------------------------------------------------------------
# Graph/benefit strategies
# ----------------------------------------------------------------------
_node_strategy = st.tuples(
    st.sampled_from([NodeType.CWORK, NodeType.CLAUNCH, NodeType.CWAIT]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.sampled_from([ProblemKind.NONE, ProblemKind.UNNECESSARY_SYNC,
                     ProblemKind.MISPLACED_SYNC,
                     ProblemKind.UNNECESSARY_TRANSFER]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


def _build(node_specs):
    nodes = []
    t = 0.0
    for ntype, duration, problem, first_use in node_specs:
        # Problem kinds must be consistent with node types.
        if ntype is NodeType.CWAIT and problem is ProblemKind.UNNECESSARY_TRANSFER:
            problem = ProblemKind.UNNECESSARY_SYNC
        if ntype is NodeType.CLAUNCH and problem in (
                ProblemKind.UNNECESSARY_SYNC, ProblemKind.MISPLACED_SYNC):
            problem = ProblemKind.UNNECESSARY_TRANSFER
        if ntype is NodeType.CWORK:
            problem = ProblemKind.NONE
        nodes.append(CpuNode(ntype, t, duration, problem=problem,
                             first_use_time=first_use))
        t += duration
    return ExecutionGraph(nodes, execution_time=t)


graphs = st.lists(_node_strategy, min_size=1, max_size=40).map(_build)


class TestBenefitInvariants:
    @given(graphs)
    @settings(max_examples=200, deadline=None)
    def test_benefit_is_nonnegative(self, graph):
        assert expected_benefit(graph).total >= 0.0

    @given(graphs)
    @settings(max_examples=200, deadline=None)
    def test_benefit_never_exceeds_naive_estimate(self, graph):
        # The FFM estimate models interactions; it can only revise the
        # naive "all consumed time is recoverable" figure downward.
        result = expected_benefit(graph)
        assert result.total <= naive_resource_estimate(graph) + 1e-9

    @given(graphs)
    @settings(max_examples=200, deadline=None)
    def test_benefit_never_exceeds_execution_time_proxy(self, graph):
        # Recoverable time cannot exceed the whole timeline.
        total_time = sum(n.duration for n in graph.nodes)
        assert expected_benefit(graph).total <= total_time + 1e-9

    @given(graphs)
    @settings(max_examples=200, deadline=None)
    def test_final_durations_nonnegative(self, graph):
        result = expected_benefit(graph)
        assert all(d >= -1e-12 for d in result.final_durations)

    @given(graphs)
    @settings(max_examples=200, deadline=None)
    def test_estimator_is_deterministic(self, graph):
        a = expected_benefit(graph)
        b = expected_benefit(graph)
        assert a.total == b.total
        assert a.final_durations == b.final_durations

    @given(graphs)
    @settings(max_examples=200, deadline=None)
    def test_estimator_does_not_mutate_graph(self, graph):
        before = [n.duration for n in graph.nodes]
        expected_benefit(graph)
        assert [n.duration for n in graph.nodes] == before

    @given(graphs)
    @settings(max_examples=200, deadline=None)
    def test_full_subset_equals_full_pass(self, graph):
        full = expected_benefit(graph)
        indices = [n.index for n in graph.problematic_nodes()]
        if indices:
            subset = expected_benefit_subset(graph, indices)
            assert abs(subset.total - full.total) < 1e-9

    @given(graphs)
    @settings(max_examples=150, deadline=None)
    def test_per_node_benefits_sum_to_total(self, graph):
        result = expected_benefit(graph)
        assert abs(sum(b.est_benefit for b in result.per_node)
                   - result.total) < 1e-9


# ----------------------------------------------------------------------
# RegionSet vs a naive model
# ----------------------------------------------------------------------
regions_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000),
              st.integers(min_value=1, max_value=500)),
    min_size=0, max_size=30,
)
queries_strategy = st.lists(
    st.tuples(st.integers(min_value=-100, max_value=11_000),
              st.integers(min_value=1, max_value=600)),
    min_size=1, max_size=30,
)


class TestRegionSetModel:
    @given(regions_strategy, queries_strategy)
    @settings(max_examples=200, deadline=None)
    def test_matches_agree_with_naive_scan(self, regions, queries):
        rs = RegionSet()
        naive = []
        for start, size in regions:
            rs.add(start, size)
            naive.append((start, size))
        for address, size in queries:
            got = {(r.start, r.size) for r in rs.matches(address, size)}
            want = {
                (s, z) for (s, z) in naive
                if address < s + z and s < address + size
            }
            assert got == want

    @given(regions_strategy)
    @settings(max_examples=100, deadline=None)
    def test_drop_range_removes_only_contained(self, regions):
        rs = RegionSet()
        for start, size in regions:
            rs.add(start, size)
        rs.drop_range(0, 5_000)
        for r in rs.regions():
            assert not (r.start >= 0 and r.end <= 5_000)


# ----------------------------------------------------------------------
# Symbol normalisation
# ----------------------------------------------------------------------
_ident = st.text(alphabet="abcdefgXYZ_:", min_size=1, max_size=12)


@st.composite
def cpp_names(draw, depth=2):
    base = draw(_ident)
    if depth > 0 and draw(st.booleans()):
        inner = draw(st.lists(cpp_names(depth=depth - 1),  # type: ignore
                              min_size=1, max_size=3))
        return f"{base}<{', '.join(inner)}>"
    return base


class TestSymbolProperties:
    @given(cpp_names())
    @settings(max_examples=300, deadline=None)
    def test_strip_removes_all_angle_brackets(self, name):
        stripped = strip_template_params(name)
        assert "<" not in stripped
        assert ">" not in stripped

    @given(cpp_names())
    @settings(max_examples=300, deadline=None)
    def test_strip_is_idempotent(self, name):
        once = strip_template_params(name)
        assert strip_template_params(once) == once

    @given(cpp_names())
    @settings(max_examples=300, deadline=None)
    def test_strip_preserves_prefix(self, name):
        stripped = strip_template_params(name)
        head = name.split("<", 1)[0]
        assert stripped.startswith(head)

    @given(cpp_names(), cpp_names())
    @settings(max_examples=200, deadline=None)
    def test_instances_of_same_template_fold(self, a, b):
        base = "ns::routine"
        assert demangle_base_name(f"{base}<{a}>") == \
            demangle_base_name(f"{base}<{b}>")


# ----------------------------------------------------------------------
# Report writer: exactly json.dumps(obj, indent=2)
# ----------------------------------------------------------------------
class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Seconds(float):
    """A float subclass with its own repr, which ``json`` ignores."""

    def __repr__(self) -> str:
        return f"Seconds({float(self)})"


#: Every code point, surrogates and control characters included.
_text = st.text(st.characters(exclude_categories=()), max_size=12)

_floats = st.one_of(
    st.floats(),  # NaN and the infinities included
    st.sampled_from([1e16, -0.0, 5e-324, 0.1, 1e-7, 2.5e-5, 1e300]),
    st.floats().map(_Seconds),
    st.floats().map(np.float64),
)

_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.sampled_from(list(_Level)), _floats, _text)

_keys = st.one_of(_text, st.integers(), _floats, st.booleans(), st.none(),
                  st.sampled_from(list(_Level)))


def _trees(leaves, keys):
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ), max_leaves=40)


def _report_shaped_tree(problems: int = 1950) -> dict:
    """About the size (2.6 MB written) and shape of a firehose report."""
    frames = [{"function": f"layer{j}::forward", "file": "train.cpp",
               "line": 100 + j, "address": 0x401000 + 16 * j}
              for j in range(6)]
    return {
        "schema_version": 1,
        "workload": "replay",
        "problems": [{
            "node_index": i,
            "kind": "unnecessary_sync",
            "api_name": "cudaMemcpy",
            "site": {"address_key": [0x401000 + j for j in range(6)],
                     "occurrence": i},
            "stack": frames,
            "location": f"train.cpp:{100 + i % 50}",
            "duration": 1e-5 * (i + 1) / 3,
            "est_benefit": 2.5e-6 * i,
            "first_use_time": None if i % 2 else 0.125 * i,
        } for i in range(problems)],
    }


class TestReportWriter:
    @given(_trees(_scalars, _keys))
    @settings(max_examples=300, deadline=None)
    def test_writes_exactly_what_json_dumps_indent_2_writes(self, tree):
        assert dumps_indented(tree) == json.dumps(tree, indent=2)

    @given(_trees(st.one_of(_scalars, st.sampled_from(
        [object(), {1, 2}, b"x", 1j, Decimal("1.5")])),
        st.one_of(_keys, st.tuples(st.integers()))))
    @settings(max_examples=200, deadline=None)
    def test_unsupported_types_raise_the_same_type_error(self, tree):
        try:
            expected = json.dumps(tree, indent=2)
        except TypeError as exc:
            with pytest.raises(TypeError) as raised:
                dumps_indented(tree)
            assert str(raised.value) == str(exc)
        else:
            assert dumps_indented(tree) == expected

    def test_nested_empty_containers(self):
        tree = {"a": [], "b": {}, "c": [[], {}, ()], "": [{"": []}]}
        assert dumps_indented(tree) == json.dumps(tree, indent=2)

    def test_keys_equal_across_types_keep_their_own_text(self):
        tree = [{"1": 0}, {1: 0}, {True: 0}, {1.0: 0}, {"true": {None: 1}},
                {"null": 2, 2: [{"2": 3}]}]
        assert dumps_indented(tree) == json.dumps(tree, indent=2)

    def test_transient_memory_stays_near_twice_the_output(self):
        # json.dumps(indent=2) keeps one string per token until its
        # final join: about 6x the output at its peak.
        tree = _report_shaped_tree()
        tracemalloc.start()
        try:
            text = dumps_indented(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == json.dumps(tree, indent=2)
        assert len(text) > 2_500_000
        assert peak < 3 * len(text), f"peak {peak / len(text):.2f}x output"
