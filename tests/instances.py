"""Shared test instances: a seeded random-graph generator and hand-built fixtures."""

from __future__ import annotations

import numpy as np

from signedfj import SignedDigraph

SUITE_SEED = 1000
SUITE_SIZE = 200


def random_instance(seed: int, *, n_max: int = 60):
    """One random signed digraph with profiles.

    Edge density is uniform in [0.1, 0.5], off-diagonal weights have
    magnitude in [0.5, 1.5] with sign flipped at probability 0.3, and all
    nodes carry positive self-loops so validation passes regardless of
    which components end up as sinks.  Stubbornness is absent in a quarter
    of instances; otherwise a few nodes get beta in [0.1, 0.9], and
    occasionally one is fully stubborn (beta = 1) to exercise the
    sink-rewrite path.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    density = float(rng.uniform(0.1, 0.5))
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rng.random() < density:
                w = float(rng.uniform(0.5, 1.5))
                if rng.random() < 0.3:
                    w = -w
                edges.append((i, j, w))
    for i in range(n):
        edges.append((i, i, float(rng.uniform(0.5, 1.5))))
    graph = SignedDigraph.from_edges([f"v{i}" for i in range(n)], edges)

    beta = np.zeros(n)
    if rng.random() >= 0.25:
        k = int(rng.integers(1, max(2, n // 4) + 1))
        idx = rng.choice(n, size=k, replace=False)
        beta[idx] = rng.uniform(0.1, 0.9, size=k)
        if rng.random() < 0.15:
            beta[idx[0]] = 1.0
    x0 = rng.uniform(-1.0, 1.0, n)
    return graph, beta, x0


def suite_instances(count: int = SUITE_SIZE):
    return [random_instance(SUITE_SEED + s) for s in range(count)]


# ---------------------------------------------------------------------------
# Hand-built fixtures
# ---------------------------------------------------------------------------

def micro_stubborn():
    """2-node positive strongly connected graph with one stubborn agent."""
    graph = SignedDigraph.from_edges(
        ["a", "b"], [("a", "a", 1), ("a", "b", 1), ("b", "a", 1), ("b", "b", 1)]
    )
    return graph, np.array([0.5, 0.0])


def micro_antagonistic():
    """2-node mutually negative sink; balanced with bipartition (+1, -1)."""
    graph = SignedDigraph.from_edges(
        ["a", "b"], [("a", "a", 1), ("a", "b", -1), ("b", "a", -1), ("b", "b", 1)]
    )
    return graph, np.zeros(2)


def micro_chain():
    """One follower rating a single-node sink."""
    graph = SignedDigraph.from_edges(
        ["a", "b"], [("a", "a", 1), ("a", "b", 1), ("b", "b", 1)]
    )
    return graph, np.zeros(2)


def triangle(signs, *, self_loops=True, labels=None):
    """Directed 3-cycle 0->1->2->0 with the given edge signs."""
    labels = labels or ["p", "q", "r"]
    edges = [(0, 1, signs[0]), (1, 2, signs[1]), (2, 0, signs[2])]
    if self_loops:
        edges += [(i, i, 1.0) for i in range(3)]
    return SignedDigraph.from_edges(labels, edges)


def example_seventeen():
    """17-node weakly connected fixture: 4 followers feeding 5 sinks.

    Sinks (by label): {5,6,7} cooperative, {8,9,10} antagonistic balanced,
    {11} singleton, {12,13,14} unbalanced, {15,16,17} antagonistic balanced.
    """
    labels = [str(i) for i in range(1, 18)]
    edges = [
        # follower chain and one follower self-loop
        ("1", "1", 1), ("1", "2", 1), ("2", "3", 1), ("3", "4", 1),
        # followers into sinks
        ("1", "5", 1), ("2", "8", -1), ("2", "11", 1), ("3", "12", 1), ("4", "15", -1),
        # cooperative sink {5,6,7}
        ("5", "6", 1), ("6", "7", 1), ("7", "5", 1),
        ("5", "5", 1), ("6", "6", 1), ("7", "7", 1),
        # antagonistic balanced sink {8,9,10}
        ("8", "9", -1), ("9", "10", -1), ("10", "8", 1),
        ("8", "8", 1), ("9", "9", 1), ("10", "10", 1),
        # unbalanced sink {12,13,14}
        ("12", "13", 1), ("13", "14", 1), ("14", "12", -1),
        ("12", "12", 1), ("13", "13", 1), ("14", "14", 1),
        # antagonistic balanced sink {15,16,17}
        ("15", "16", -1), ("16", "17", 1), ("17", "15", -1),
        ("15", "15", 1), ("16", "16", 1), ("17", "17", 1),
    ]
    return SignedDigraph.from_edges(labels, edges)


# ---------------------------------------------------------------------------
# One instance per emergent-behaviour row
# ---------------------------------------------------------------------------

def sc_unbalanced():
    """Strongly connected, structurally unbalanced (one negative in the cycle)."""
    return triangle([1, 1, -1])


def sc_cooperative():
    return triangle([1, 1, 1])


def sc_antagonistic():
    """4-node strongly connected balanced graph with camps {0,1} vs {2,3}."""
    edges = [
        (0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1),
        (0, 2, -1), (2, 0, -1), (1, 3, -1),
        (0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1),
    ]
    return SignedDigraph.from_edges(["a", "b", "c", "d"], edges)


def weak_sub_sink():
    """Two followers feeding one unbalanced sink {2,3,4}."""
    edges = [
        (0, 1, 1), (1, 2, 1),
        (2, 3, 1), (3, 4, 1), (4, 2, -1),
        (2, 2, 1), (3, 3, 1), (4, 4, 1),
    ]
    return SignedDigraph.from_edges(["f0", "f1", "s0", "s1", "s2"], edges)


def weak_two_sinks(*, stubborn_leader: float = 0.0):
    """One follower feeding a cooperative sink {1,2} and an antagonistic sink {3,4}.

    ``stubborn_leader`` sets the stubbornness of node 1 (first member of
    the cooperative sink).
    """
    edges = [
        (0, 1, 1), (0, 3, 1),
        (1, 2, 1), (2, 1, 1), (1, 1, 1), (2, 2, 1),
        (3, 4, -1), (4, 3, -1), (3, 3, 1), (4, 4, 1),
    ]
    graph = SignedDigraph.from_edges(["f", "c0", "c1", "a0", "a1"], edges)
    beta = np.zeros(5)
    beta[1] = stubborn_leader
    return graph, beta


# ---------------------------------------------------------------------------
# Many sinks
# ---------------------------------------------------------------------------

def many_two_node_sinks(sinks: int, *, seed: int = 0):
    """``sinks`` antagonistic two-node sinks fed by a follower ring, nobody stubborn.

    Follower ``f`` rates the next follower on the ring and one member of
    sink ``f``; each sink is a mutually negative pair with positive
    self-loops, so every sink is balanced, free, and keeps an eigenpair.
    Node indices are shuffled.  Returns the graph, beta and initial opinions.
    """
    rng = np.random.default_rng(seed)
    n = 3 * sinks
    label = rng.permutation(n)
    follower, a, b = label[:sinks], label[sinks:2 * sinks], label[2 * sinks:]
    fed = np.where(rng.random(sinks) < 0.5, a, b)
    sources = np.concatenate([follower, follower, a, b, a, b])
    targets = np.concatenate([np.roll(follower, -1), fed, b, a, a, b])
    magnitude = rng.integers(1, 11, 6 * sinks).astype(np.float64)
    sign = np.concatenate([np.where(rng.random(2 * sinks) < 0.2, -1.0, 1.0),
                           -np.ones(2 * sinks), np.ones(2 * sinks)])
    graph = SignedDigraph.from_edges(
        [str(i) for i in range(n)],
        list(zip(sources.tolist(), targets.tolist(), (sign * magnitude).tolist())),
    )
    return graph, np.zeros(n), rng.uniform(-1.0, 1.0, n)


def mixed_sinks(sizes=(1, 2, 3, 63, 64, 65), copies: int = 2):
    """Sinks of every given size and kind, each fed by a short follower chain.

    Kinds per size: cooperative, antagonistic, unbalanced (SUB) and
    cooperative with one stubborn member; a single node is only free or
    stubborn.  Every sink is a ring with chords and positive self-loops,
    and comes ``copies`` times, so stacks of one size hold several blocks.
    Returns the graph, beta and initial opinions.
    """
    rng = np.random.default_rng(5)
    edges, stubborn = [], []
    node = 0
    for size in sizes:
        kinds = ("free", "stubborn") if size == 1 else (
            "cooperative", "antagonistic", "sub", "stubborn")
        for kind in kinds * copies:
            members = np.arange(node, node + size)
            node += size
            side = np.ones(size)
            if kind == "antagonistic":
                side = np.where(rng.random(size) < 0.5, -1.0, 1.0)
                side[0], side[-1] = 1.0, -1.0
            pairs = [(k, (k + 1) % size) for k in range(size) if size > 1]
            pairs += [(int(p), int(q)) for p, q in rng.integers(0, size, (size // 2, 2))
                      if p != q]
            links = list(dict.fromkeys(pairs))
            for p, q in links:
                edges.append((int(members[p]), int(members[q]),
                              side[p] * side[q] * float(rng.integers(1, 5))))
            if kind == "sub":
                # flipping a ring edge makes the ring a negative cycle
                s0, t0, w0 = edges[-len(links)]
                edges[-len(links)] = (s0, t0, -w0)
            edges += [(int(i), int(i), float(rng.integers(1, 4))) for i in members]
            if kind == "stubborn":
                stubborn.append(int(members[0]))
            # a two-node follower chain into the sink
            edges += [(node, node + 1, 1.0), (node + 1, int(members[-1]), -1.0),
                      (node, int(members[0]), 2.0)]
            node += 2
    beta = np.zeros(node)
    beta[stubborn] = 0.4
    graph = SignedDigraph.from_edges([f"v{i}" for i in range(node)], edges)
    return graph, beta, np.random.default_rng(6).uniform(-1.0, 1.0, node)
