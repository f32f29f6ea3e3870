import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from signedfj import (
    Role,
    SignedDigraph,
    SinkClass,
    balance_check,
    canonical_ordering,
    classify_agents,
    condense,
    ensure_self_loops,
    parse_edge_list,
    read_stubbornness,
    strongly_connected_components,
)
from signedfj import topology
from instances import example_seventeen, random_instance, triangle
from oracles import brute_force_balanced, classify_by_sink

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def analyze(graph, beta=None):
    beta = np.zeros(graph.n) if beta is None else beta
    sccs = strongly_connected_components(graph)
    dag = condense(graph, sccs)
    return sccs, dag, classify_agents(graph, sccs, dag, beta)


def many_sinks_instance():
    """30 shuffled multi-member sinks (cooperative, antagonistic, unbalanced) fed by 40 followers.

    Returns the graph, the shuffle, each sink's members before the shuffle
    and each sink's expected class.
    """
    rng = np.random.default_rng(77)
    kinds = [SinkClass.COOPERATIVE_SB, SinkClass.ANTAGONISTIC_SB, SinkClass.SUB] * 10
    edges, sink_members, expected = [], [], []
    node = 0
    for kind in kinds:
        size = int(rng.integers(2, 6))
        members = list(range(node, node + size))
        node += size
        side = np.tile([1.0, -1.0], size)[:size]
        if kind is SinkClass.COOPERATIVE_SB:
            side = np.ones(size)
        ring = [(a, (a + 1) % size) for a in range(size)]
        chords = [(int(a), int(b)) for a, b in rng.integers(0, size, (size, 2)) if a != b]
        links = list(dict.fromkeys(ring + chords))
        for a, b in links:
            edges.append((members[a], members[b], side[a] * side[b] * rng.integers(1, 4)))
        if kind is SinkClass.SUB:
            # flipping a ring edge makes the ring a negative cycle
            s0, t0, w0 = edges[-len(links)]
            edges[-len(links)] = (s0, t0, -w0)
        edges += [(i, i, 1.0) for i in members]
        sink_members.append(members)
        expected.append(kind)
    followers = range(node, node + 40)
    for f in followers:
        target = sink_members[int(rng.integers(len(sink_members)))]
        edges.append((f, int(rng.choice(target)), float(rng.choice([-1.0, 1.0]))))
        other = int(rng.integers(node, node + 40))
        edges.append((f, other, float(rng.choice([-2.0, 2.0]))))
    n = node + 40
    perm = rng.permutation(n)
    g = SignedDigraph.from_edges(
        [f"v{i}" for i in range(n)],
        [(int(perm[s]), int(perm[t]), float(w)) for s, t, w in edges],
    )
    return g, perm, sink_members, expected


class TestScc:
    def test_cycle_is_one_component(self):
        g = triangle([1, 1, 1], self_loops=False)
        sccs = strongly_connected_components(g)
        assert sccs.components == ((0, 1, 2),)

    def test_chain_gives_singletons(self):
        g = SignedDigraph.from_edges(["1", "2", "3"], [(0, 1, 1), (1, 2, 1)])
        sccs = strongly_connected_components(g)
        assert sccs.components == ((0,), (1,), (2,))
        assert sccs.scc_id.tolist() == [0, 1, 2]

    def test_seventeen_node_fixture_sinks(self):
        g = example_seventeen()
        sccs, dag, _ = analyze(g)
        sink_members = [
            tuple(g.labels[i] for i in sccs.components[cid]) for cid in dag.sinks
        ]
        assert sink_members == [
            ("5", "6", "7"),
            ("8", "9", "10"),
            ("11",),
            ("12", "13", "14"),
            ("15", "16", "17"),
        ]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_networkx(self, seed):
        networkx = pytest.importorskip("networkx")
        graph, _, _ = random_instance(5000 + seed, n_max=50)
        dg = networkx.DiGraph()
        dg.add_nodes_from(range(graph.n))
        dg.add_edges_from(zip(graph.sources.tolist(), graph.targets.tolist()))
        expected = {frozenset(c) for c in networkx.strongly_connected_components(dg)}
        got = {frozenset(c) for c in strongly_connected_components(graph).components}
        assert got == expected


class TestCondense:
    def test_chain(self):
        g = SignedDigraph.from_edges(["1", "2", "3"], [(0, 1, 1), (1, 2, 1)])
        sccs = strongly_connected_components(g)
        dag = condense(g, sccs)
        assert dag.edges == frozenset({(0, 1), (1, 2)})
        assert dag.sinks == (2,)

    def test_strongly_connected_graph_is_its_own_sink(self):
        g = triangle([1, 1, 1])
        sccs = strongly_connected_components(g)
        dag = condense(g, sccs)
        assert dag.n_components == 1
        assert dag.sinks == (0,)

    @pytest.mark.parametrize("seed", range(10))
    def test_condensation_is_idempotent(self, seed):
        graph, _, _ = random_instance(5100 + seed, n_max=40)
        sccs = strongly_connected_components(graph)
        dag = condense(graph, sccs)
        if not dag.edges:
            return
        # collapse to the DAG and condense again: every node is its own SCC
        dag_edges = sorted(dag.edges)
        labels = [f"c{i}" for i in range(dag.n_components)]
        dag_graph = SignedDigraph.from_edges(
            labels, [(a, b, 1.0) for a, b in dag_edges]
        )
        sccs2 = strongly_connected_components(dag_graph)
        assert all(len(c) == 1 for c in sccs2.components)
        dag2 = condense(dag_graph, sccs2)
        assert dag2.edges == dag.edges


class TestBalance:
    def test_all_positive_triangle(self):
        g = triangle([1, 1, 1])
        result = balance_check(g, [0, 1, 2])
        assert result.balanced
        assert result.labels.tolist() == [1, 1, 1]

    def test_one_negative_triangle_unbalanced(self):
        g = triangle([1, 1, -1])
        result = balance_check(g, [0, 1, 2])
        assert not result.balanced
        assert result.labels is None

    def test_two_negative_triangle_balanced(self):
        # positive edge joins 2 and 0, so they share a side
        g = triangle([-1, -1, 1])
        result = balance_check(g, [0, 1, 2])
        assert result.balanced
        assert result.labels.tolist() == [1, -1, 1]

    def test_antiparallel_opposite_signs_conflict(self):
        g = SignedDigraph.from_edges(["a", "b"], [(0, 1, 1), (1, 0, -1)])
        assert not balance_check(g, [0, 1]).balanced

    def test_positive_self_loops_ignored(self):
        g = SignedDigraph.from_edges(["a", "b"], [(0, 0, 1), (0, 1, -1), (1, 1, 1)])
        result = balance_check(g, [0, 1])
        assert result.balanced
        assert result.labels.tolist() == [1, -1]

    def test_negative_self_loop_is_a_conflict(self):
        g = SignedDigraph.from_edges(["a", "b"], [(0, 0, -1), (0, 1, 1)])
        assert not balance_check(g, [0, 1]).balanced

    def test_each_piece_labels_its_smallest_node_plus(self):
        # pieces {1, 4} and {2, 5}; the path 4 -> 3 -> 2 leaves the node set
        g = SignedDigraph.from_edges(
            [f"n{i}" for i in range(6)],
            [(1, 4, -1), (4, 1, -1), (5, 2, -1), (4, 3, 1), (3, 2, 1), (0, 1, -1)],
        )
        result = balance_check(g, [5, 4, 2, 1])
        assert result.balanced
        assert result.nodes == (1, 2, 4, 5)
        assert result.labels.tolist() == [1, 1, -1, -1]

    def test_sides_per_piece(self):
        # balanced piece {1, 3, 4}; unbalanced piece {0, 2, 5}: one negative edge on a 3-cycle
        g = SignedDigraph.from_edges(
            [f"n{i}" for i in range(6)],
            [(3, 1, -1), (4, 3, 1), (1, 4, -1), (0, 2, 1), (2, 5, 1), (5, 0, -1)],
        )
        result = balance_check(g, range(6))
        assert result.nodes == (0, 1, 2, 3, 4, 5)
        assert result.sides.tolist() == [0, 1, 0, -1, -1, 0]
        assert not result.balanced
        assert result.labels is None

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        edges = []
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.5:
                    edges.append((i, j, float(rng.choice([-1.0, 1.0]))))
        if not edges:
            edges = [(0, min(1, n - 1), 1.0)] if n > 1 else [(0, 0, 1.0)]
        g = SignedDigraph.from_edges([f"n{i}" for i in range(n)], edges)
        nodes = list(range(n))
        result = balance_check(g, nodes)
        expected_balanced, _ = brute_force_balanced(g, nodes)
        assert result.balanced == expected_balanced
        if result.balanced:
            sigma = result.labels
            pos = {v: k for k, v in enumerate(result.nodes)}
            for s, t, w in g.edge_triples():
                if s != t:
                    assert np.sign(w) == sigma[pos[s]] * sigma[pos[t]]

    @pytest.mark.parametrize("seed", range(8))
    def test_invariant_under_relabeling(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 6
        edges = [
            (i, j, float(rng.choice([-1.0, 1.0])))
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.5
        ]
        if not edges:
            edges = [(0, 1, 1.0)]
        g = SignedDigraph.from_edges([f"n{i}" for i in range(n)], edges)
        perm = rng.permutation(n)
        g_perm = SignedDigraph.from_edges(
            [f"n{i}" for i in range(n)],
            [(int(perm[s]), int(perm[t]), w) for s, t, w in g.edge_triples()],
        )
        assert balance_check(g, range(n)).balanced == balance_check(g_perm, range(n)).balanced


class TestClassification:
    def test_cooperative_sink_in_s_ns(self):
        g = SignedDigraph.from_edges(
            ["a", "b"], [(0, 1, 1), (1, 0, 1), (0, 0, 1), (1, 1, 1)]
        )
        _, _, cls = analyze(g)
        assert cls.sinks[0].sink_class is SinkClass.COOPERATIVE_SB
        assert cls.s_ns == {0}

    def test_stubborn_member_excludes_from_s_ns(self):
        g = SignedDigraph.from_edges(
            ["a", "b"], [(0, 1, 1), (1, 0, 1), (0, 0, 1), (1, 1, 1)]
        )
        _, _, cls = analyze(g, np.array([0.0, 0.4]))
        assert cls.sinks[0].sink_class is SinkClass.COOPERATIVE_SB
        assert cls.sinks[0].contains_stubborn
        assert cls.s_ns == frozenset()

    def test_unbalanced_sink_never_in_s_ns(self):
        g = triangle([1, 1, -1])
        _, _, cls = analyze(g)
        assert cls.sinks[0].sink_class is SinkClass.SUB
        assert cls.sinks[0].bipartition is None
        assert cls.s_ns == frozenset()

    def test_singleton_sink(self):
        g = SignedDigraph.from_edges(["a", "b"], [(0, 1, 1), (0, 0, 1)])
        _, _, cls = analyze(g)
        assert cls.roles == (Role.FOLLOWER, Role.OPINION_LEADER)
        assert cls.sinks[0].sink_class is SinkClass.SINGLETON_SB
        assert cls.sinks[0].members == (1,)

    def test_seventeen_node_fixture_classes(self):
        g = example_seventeen()
        _, _, cls = analyze(g)
        classes = [s.sink_class for s in cls.sinks]
        assert classes == [
            SinkClass.COOPERATIVE_SB,
            SinkClass.ANTAGONISTIC_SB,
            SinkClass.SINGLETON_SB,
            SinkClass.SUB,
            SinkClass.ANTAGONISTIC_SB,
        ]
        assert cls.s_ns == {0, 1, 2, 4}
        follower_labels = {g.labels[i] for i in range(g.n) if cls.roles[i] is Role.FOLLOWER}
        assert follower_labels == {"1", "2", "3", "4"}

    def test_many_sinks_match_brute_force(self):
        g, perm, sink_members, expected = many_sinks_instance()
        _, _, cls = analyze(g)
        multi = [sink for sink in cls.sinks if len(sink.members) > 1]
        assert len(multi) == len(expected)
        by_members = {
            tuple(sorted(int(perm[i]) for i in m)): kind for m, kind in zip(sink_members, expected)
        }
        for sink in multi:
            balanced, sigma = brute_force_balanced(g, sink.members)
            assert sink.sink_class is by_members[sink.members]
            assert sink.sink_class.is_balanced == balanced
            if balanced:
                assert sink.bipartition == tuple(int(x) for x in sigma)
            else:
                assert sink.bipartition is None

    def test_many_sinks_take_one_balance_check(self, monkeypatch):
        g, _, _, expected = many_sinks_instance()
        calls = []

        def counting(graph, nodes):
            calls.append(nodes)
            return balance_check(graph, nodes)

        monkeypatch.setattr(topology, "balance_check", counting)
        _, _, cls = analyze(g)
        assert len(calls) == 1
        assert sorted(s.sink_class.value for s in cls.sinks if len(s.members) > 1) == sorted(
            k.value for k in expected
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_role_iff_path_leaves_component(self, seed):
        graph, _, _ = random_instance(5200 + seed, n_max=30)
        sccs, dag, cls = analyze(graph)
        # a node is a follower iff its component has an outgoing DAG edge
        has_out = {a for a, _ in dag.edges}
        for i in range(graph.n):
            expect_follower = int(sccs.scc_id[i]) in has_out
            assert (cls.roles[i] is Role.FOLLOWER) == expect_follower

    @pytest.mark.parametrize("seed", range(10))
    def test_s_ns_monotone_in_stubbornness(self, seed):
        graph, _, _ = random_instance(5300 + seed, n_max=30)
        _, _, base = analyze(graph)
        if not base.s_ns:
            return
        k = sorted(base.s_ns)[0]
        leader = base.sinks[k].members[0]
        beta = np.zeros(graph.n)
        beta[leader] = 0.5
        _, _, stubbed = analyze(graph, beta)
        assert k not in stubbed.s_ns
        assert stubbed.s_ns <= base.s_ns


    def test_to_dict_sides_follow_the_bipartition(self):
        g, _, _, _ = many_sinks_instance()
        _, _, cls = analyze(g)
        view = topology.classification_to_dict(cls, g.labels)
        for i, entry in enumerate(view["nodes"]):
            k = int(cls.sink_of[i])
            keys = ["node", "role"] + (["sink"] if k >= 0 else [])
            sink = cls.sinks[k] if k >= 0 else None
            if sink is not None and sink.bipartition is not None:
                keys.append("side")
                assert entry["side"] == sink.bipartition[sink.members.index(i)]
            assert list(entry) == keys

def load_workloads():
    """The benchmark's input generators, imported from their file once."""
    name = "perfbench_workloads"
    if name not in sys.modules:  # dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def assert_same_classification(got, want):
    assert got.roles == want.roles
    assert got.sink_of.dtype == want.sink_of.dtype
    assert np.array_equal(got.sink_of, want.sink_of)
    assert got.sinks == want.sinks
    for mine, theirs in zip(got.sinks, want.sinks):  # Python ints and bools, as before
        assert type(mine.contains_stubborn) is bool and type(mine.sink_index) is int
        assert mine.bipartition is None or all(type(x) is int for x in mine.bipartition)
    assert got.s_ns == want.s_ns


class TestClassificationMatchesPerSinkOracle:
    """One pass over the sink members gives what per-sink array look-ups give."""

    @pytest.mark.parametrize("seed", range(120))
    def test_random_instances(self, seed):
        graph, beta, _ = random_instance(9300 + seed, n_max=30 if seed % 2 else 60)
        sccs = strongly_connected_components(graph)
        dag = condense(graph, sccs)
        assert_same_classification(classify_agents(graph, sccs, dag, beta),
                                   classify_by_sink(graph, sccs, dag, beta))

    @pytest.mark.parametrize("seed", range(3))
    def test_many_sink_classes(self, seed):
        graph, _, _, _ = many_sinks_instance()
        beta = np.random.default_rng(seed).choice([0.0, 0.0, 0.5, 1.0], graph.n)
        sccs = strongly_connected_components(graph)
        dag = condense(graph, sccs)
        assert_same_classification(classify_agents(graph, sccs, dag, beta),
                                   classify_by_sink(graph, sccs, dag, beta))

    @pytest.mark.parametrize("name", ["ratings", "many_sinks", "slow_mixing"])
    def test_workload_inputs(self, tmp_path, name):
        workload = getattr(load_workloads(), name)(1)
        paths = workload.write(tmp_path)
        graph = parse_edge_list(paths["graph"].read_text())
        if workload.ensure_self_loops is not None:
            graph = ensure_self_loops(graph, workload.ensure_self_loops)
        beta, _ = read_stubbornness(paths["beta"].read_text(), graph)
        sccs = strongly_connected_components(graph)
        dag = condense(graph, sccs)
        assert_same_classification(classify_agents(graph, sccs, dag, beta),
                                   classify_by_sink(graph, sccs, dag, beta))


class TestCanonicalOrdering:
    def test_single_scc_has_no_followers(self):
        g = triangle([1, 1, 1])
        _, _, cls = analyze(g)
        ordering = canonical_ordering(cls)
        assert ordering.follower_count == 0
        assert ordering.permutation.tolist() == [0, 1, 2]

    def test_chain(self):
        g = SignedDigraph.from_edges(["1", "2", "3"], [(0, 1, 1), (1, 2, 1)])
        _, _, cls = analyze(g)
        ordering = canonical_ordering(cls)
        assert ordering.follower_count == 2
        assert ordering.permutation.tolist() == [0, 1, 2]

    def test_seventeen_node_fixture_blocks(self):
        g = example_seventeen()
        _, _, cls = analyze(g)
        ordering = canonical_ordering(cls)
        assert ordering.follower_count == 4
        assert ordering.sink_sizes == (3, 3, 1, 3, 3)
        assert ordering.sink_offsets == (4, 7, 10, 11, 14)
        # permutation maps back to originals correctly
        inv = ordering.inverse
        assert all(ordering.permutation[inv[i]] == i for i in range(g.n))
