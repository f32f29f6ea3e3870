import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedfj import (
    GraphFormatError,
    SignedDigraph,
    ensure_self_loops,
    flip_edges,
    parse_edge_list,
    read_initial_opinions,
    read_stubbornness,
    serialize_edge_list,
    validate,
    weak_components,
)
from instances import micro_stubborn, random_instance
from oracles import union_find_components


class TestParseEdgeList:
    def test_two_node_four_edges(self):
        g = parse_edge_list("a,b,2\nb,a,-1\na,a,1\nb,b,1")
        assert g.n == 2
        assert g.edge_count == 4
        assert g.labels == ("a", "b")
        assert g.weight_of(0, 1) == 2.0
        assert g.weight_of(1, 0) == -1.0

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="zero weight"):
            parse_edge_list("a,b,0")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("a,b,1\na,b\nb,a,1")

    def test_non_numeric_weight(self):
        with pytest.raises(GraphFormatError, match="not a real number"):
            parse_edge_list("a,b,heavy")

    def test_non_finite_weight(self):
        with pytest.raises(GraphFormatError, match="not finite"):
            parse_edge_list("a,b,inf")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate edge"):
            parse_edge_list("a,b,1\na,b,2")

    def test_duplicates_merged_on_request(self):
        g = parse_edge_list("a,b,1\na,b,2", merge_duplicates="sum")
        assert g.edge_count == 1
        assert g.weight_of(0, 1) == 3.0

    def test_duplicates_summing_to_zero_rejected(self):
        with pytest.raises(GraphFormatError, match="sum to zero"):
            parse_edge_list("a,b,1\na,b,-1", merge_duplicates="sum")

    def test_empty_input(self):
        with pytest.raises(GraphFormatError, match="empty input"):
            parse_edge_list("")

    def test_header_skipped(self):
        g = parse_edge_list("source,target,weight\na,b,1", has_header=True)
        assert g.edge_count == 1

    def test_extra_columns_rejected_by_default(self):
        with pytest.raises(GraphFormatError, match="extra columns"):
            parse_edge_list("a,b,1,1396e6")

    def test_extra_columns_ignored_on_request(self):
        g = parse_edge_list("a,b,1,1396e6\nb,a,2,1396e6", ignore_extra_columns=True)
        assert g.edge_count == 2

    def test_accepts_file_object(self):
        g = parse_edge_list(io.StringIO("a,b,1\n"))
        assert g.edge_count == 1

    def test_blank_lines_skipped(self):
        g = parse_edge_list("a,b,1\n\n\nb,a,2\n")
        assert g.edge_count == 2

    def test_duplicates_summing_past_the_float_range_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2.*non-finite"):
            parse_edge_list("a,b,1e308\na,b,1e308", merge_duplicates="sum")

    @pytest.mark.parametrize("merge_duplicates", [None, "sum"])
    def test_matches_from_edges(self, merge_duplicates):
        text = "b,a,2\na,a,1\nc,b,-1.5\nb,b,4\na,c,3\n"
        if merge_duplicates:
            text += "c,b,0.5\nb,a,-7\n"
        g = parse_edge_list(text, merge_duplicates=merge_duplicates)
        weights = [2.0, 1.0, -1.5, 4.0, 3.0] if not merge_duplicates else [-5.0, 1.0, -1.0, 4.0, 3.0]
        rebuilt = SignedDigraph.from_edges(
            ["b", "a", "c"], [(0, 1, weights[0]), (1, 1, weights[1]), (2, 0, weights[2]),
                              (0, 0, weights[3]), (1, 2, weights[4])]
        )
        assert g.labels == rebuilt.labels
        for name in ("sources", "targets", "weights"):
            array, expected = getattr(g, name), getattr(rebuilt, name)
            np.testing.assert_array_equal(array, expected)
            assert array.dtype == expected.dtype
            assert not array.flags.writeable

    def test_crlf_and_whitespace_only_lines(self):
        g = parse_edge_list("a,b,1\r\n  \r\n\r\nb , a ,2\r\n")
        assert g.labels == ("a", "b")
        assert list(g.edge_triples()) == [(0, 1, 1.0), (1, 0, 2.0)]

    def test_line_numbers_count_the_lines_of_a_quoted_line_break(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_edge_list('"line\nbreak",p,1\np,q')
        with pytest.raises(GraphFormatError, match="line 4"):
            read_stubbornness('"line\nbreak",0.5\n\np,x', parse_edge_list('"line\nbreak",p,1'))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_serialize_parse_identity(self, data):
        n = data.draw(st.integers(1, 8))
        labels = [f"n{i}" for i in range(n)]
        pair_pool = [(i, j) for i in range(n) for j in range(n)]
        pairs = data.draw(
            st.lists(st.sampled_from(pair_pool), min_size=1, max_size=12, unique=True)
        )
        weights = data.draw(
            st.lists(
                st.floats(
                    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
                ),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
        signs = data.draw(
            st.lists(st.sampled_from([1, -1]), min_size=len(pairs), max_size=len(pairs))
        )
        edges = [(s, t, w * sg) for (s, t), w, sg in zip(pairs, weights, signs)]
        g = SignedDigraph.from_edges(labels, edges)
        g2 = parse_edge_list(serialize_edge_list(g))
        assert set(g2.labels) <= set(g.labels)  # isolated nodes are not serializable
        edge_map = {(g.labels[s], g.labels[t]): w for s, t, w in g.edge_triples()}
        edge_map2 = {(g2.labels[s], g2.labels[t]): w for s, t, w in g2.edge_triples()}
        assert edge_map == edge_map2


    def test_labels_needing_quotes_round_trip(self):
        g = SignedDigraph.from_edges(
            ["x,1", 'q"t', "plain"], [(0, 1, 1.0), (1, 2, -2.5), (2, 0, 1.0)]
        )
        text = serialize_edge_list(g)
        assert text.splitlines() == ['"x,1","q""t",1', '"q""t",plain,-2.5', 'plain,"x,1",1']
        g2 = parse_edge_list(text)
        assert g2.labels == g.labels
        assert list(g2.edge_triples()) == list(g.edge_triples())

    def test_labels_with_line_breaks_round_trip(self):
        labels = ["line\nbreak", "p", "cr\r\nlf"]
        g = SignedDigraph.from_edges(labels, [(0, 1, 1.0), (1, 0, -2.0), (2, 0, 0.5)])
        text = serialize_edge_list(g)
        for source in (text, io.StringIO(text, newline=""), text.splitlines(keepends=True)):
            g2 = parse_edge_list(source)
            assert g2.labels == g.labels
            assert list(g2.edge_triples()) == list(g.edge_triples())
        beta, _ = read_stubbornness('"line\nbreak",0.5\np,1\n', g)
        x0, warnings = read_initial_opinions('"cr\r\nlf",-1\n"line\nbreak",0.25\n', g)
        assert beta.tolist() == [0.5, 1.0, 0.0]
        assert x0.tolist() == [0.25, 0.0, -1.0]
        assert [w.ref for w in warnings] == ["p"]


class TestValidate:
    def test_fully_stubborn_rewritten_as_sink(self):
        g = SignedDigraph.from_edges(
            ["a", "b"], [(0, 1, 1), (1, 0, 1), (0, 0, 1), (1, 1, 1)]
        )
        report = validate(g, np.array([1.0, 0.3]))
        assert report.ok
        assert report.normalized
        assert report.beta.tolist() == [0.0, 0.3]
        # node 0 lost its outgoing non-self edge and kept its self-loop
        assert not report.graph.has_edge(0, 1)
        assert report.graph.self_loop_weights[0] > 0
        assert any(w.code == "fully_stubborn_rewrite" for w in report.warnings)

    def test_fully_stubborn_without_self_loop_gets_one(self):
        g = SignedDigraph.from_edges(["a", "b"], [(0, 1, 1), (1, 0, 1), (1, 1, 1)])
        report = validate(g, np.array([1.0, 0.0]))
        assert report.ok
        assert report.graph.self_loop_weights[0] == 1.0

    def test_beta_out_of_range(self):
        g = SignedDigraph.from_edges(["a", "b"], [(0, 1, 1), (1, 0, 1), (0, 0, 1), (1, 1, 1)])
        report = validate(g, np.array([1.2, 0.0]))
        assert not report.ok
        assert any(e.code == "beta_range" for e in report.errors)

    def test_accepting_case_has_no_errors(self):
        graph, beta = micro_stubborn()
        report = validate(graph, beta)
        assert report.ok
        assert not report.normalized
        assert report.errors == ()

    def test_negative_self_loop_rejected(self):
        g = SignedDigraph.from_edges(["a", "b"], [(0, 0, -1), (0, 1, 1), (1, 1, 1)])
        report = validate(g, np.zeros(2))
        assert any(e.code == "negative_self_loop" for e in report.errors)

    def test_leader_in_multi_sink_needs_positive_self_loop(self):
        # two-node sink where node 1 has no self-loop
        g = SignedDigraph.from_edges(["a", "b"], [(0, 1, 1), (1, 0, 1), (0, 0, 1)])
        report = validate(g, np.zeros(2))
        assert any(e.code == "leader_self_loop" for e in report.errors)
        assert report.errors[0].ref == "b"

    def test_singleton_sink_without_self_loop_is_fine(self):
        g = SignedDigraph.from_edges(["a", "b"], [(0, 1, 1)])
        report = validate(g, np.zeros(2))
        assert report.ok

    def test_weak_connectivity_warning(self):
        g = SignedDigraph.from_edges(
            ["a", "b", "c", "d"], [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1),
                                   (0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)]
        )
        report = validate(g, np.zeros(4))
        assert report.ok
        assert any(w.code == "not_weakly_connected" for w in report.warnings)

    @pytest.mark.parametrize("seed", range(12))
    def test_normalization_is_idempotent(self, seed):
        graph, beta, _ = random_instance(7000 + seed, n_max=25)
        first = validate(graph, beta)
        assert first.ok
        second = validate(first.graph, first.beta)
        assert second.ok
        assert not second.normalized
        assert np.array_equal(first.beta, second.beta)
        assert list(first.graph.edge_triples()) == list(second.graph.edge_triples())
        assert not np.any(second.beta == 1.0)


class TestWeakComponents:
    def test_two_disjoint_cycles(self):
        g = SignedDigraph.from_edges(
            ["a", "b", "c", "d"], [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)]
        )
        assert weak_components(g) == [[0, 1], [2, 3]]

    def test_strongly_connected_is_single(self):
        graph, _ = micro_stubborn()
        assert weak_components(graph) == [[0, 1]]

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_union_find_oracle(self, seed):
        graph, _, _ = random_instance(4000 + seed, n_max=40)
        pairs = list(zip(graph.sources.tolist(), graph.targets.tolist()))
        assert len(weak_components(graph)) == union_find_components(graph.n, pairs)


class TestProfiles:
    def test_stubbornness_defaults_to_zero(self):
        g = parse_edge_list("a,b,1\nb,a,1")
        beta, warnings = read_stubbornness("a,0.5", g)
        assert beta.tolist() == [0.5, 0.0]
        assert warnings == ()

    def test_opinions_warn_on_missing(self):
        g = parse_edge_list("a,b,1\nb,a,1")
        x0, warnings = read_initial_opinions("a,0.7", g)
        assert x0.tolist() == [0.7, 0.0]
        assert len(warnings) == 1
        assert warnings[0].code == "missing_x0"

    def test_unknown_label_rejected(self):
        g = parse_edge_list("a,b,1")
        with pytest.raises(GraphFormatError, match="unknown node"):
            read_stubbornness("z,0.5", g)

    def test_duplicate_entry_rejected(self):
        g = parse_edge_list("a,b,1")
        with pytest.raises(GraphFormatError, match="duplicate entry"):
            read_initial_opinions("a,0.5\na,0.6", g)


class TestEditing:
    def test_ensure_self_loops(self):
        g = parse_edge_list("a,b,1\nb,a,1")
        g2 = ensure_self_loops(g, 0.5)
        assert g2.self_loop_weights.tolist() == [0.5, 0.5]
        assert g2.edge_count == 4
        # already-present loops are untouched
        assert ensure_self_loops(g2, 9.0).self_loop_weights.tolist() == [0.5, 0.5]

    def test_ensure_self_loops_matches_from_edges(self):
        # b and c carry loops already; a and d get theirs after every existing edge
        g = parse_edge_list("a,b,1\nc,c,2\nb,a,-3\nd,c,1\nb,b,4")
        g2 = ensure_self_loops(g, 0.5)
        rebuilt = SignedDigraph.from_edges(
            g.labels, [*g.edge_triples(), (0, 0, 0.5), (3, 3, 0.5)]
        )
        for name in ("sources", "targets", "weights"):
            array, expected = getattr(g2, name), getattr(rebuilt, name)
            np.testing.assert_array_equal(array, expected)
            assert array.dtype == expected.dtype
            assert not array.flags.writeable
        assert g2.sources.tolist() == [0, 2, 1, 3, 1, 0, 3]
        assert g2.labels == g.labels

    def test_flip_edges(self):
        g = parse_edge_list("a,b,2\nb,a,1")
        g2 = flip_edges(g, [("a", "b")])
        assert g2.weight_of(0, 1) == -2.0
        assert g2.weight_of(1, 0) == 1.0

    def test_flip_edges_matches_from_edges(self):
        g = parse_edge_list("a,b,2\nb,a,1\na,a,1\nb,c,-3")
        g2 = flip_edges(g, [("b", "c"), ("a", "b"), ("b", "c")])
        rebuilt = SignedDigraph.from_edges(
            g.labels, [(0, 1, -2.0), (1, 0, 1.0), (0, 0, 1.0), (1, 2, 3.0)]
        )
        for name in ("sources", "targets", "weights"):
            array, expected = getattr(g2, name), getattr(rebuilt, name)
            np.testing.assert_array_equal(array, expected)
            assert array.dtype == expected.dtype
            assert not array.flags.writeable
        assert g2.labels == g.labels
        assert g.weights.tolist() == [2.0, 1.0, 1.0, -3.0]

    def test_flip_unknown_edge(self):
        g = parse_edge_list("a,b,2")
        with pytest.raises(GraphFormatError, match="not found"):
            flip_edges(g, [("b", "a")])
