"""Condensation structure of a signed digraph and the agent classification.

Nodes split into opinion leaders (members of sink components of the
condensation DAG, topologically unaffected by outsiders) and followers
(everyone else).  Each sink is further classified by the structural
balance of its induced signed subgraph, which decides whether its members
can sustain a nonzero limit without stubbornness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .graph import SignedDigraph, _canonical_components

__all__ = [
    "Role",
    "SinkClass",
    "SccPartition",
    "CondensationDag",
    "BalanceResult",
    "SinkInfo",
    "AgentClassification",
    "CanonicalOrdering",
    "strongly_connected_components",
    "condense",
    "balance_check",
    "classify_agents",
    "canonical_ordering",
    "classification_to_dict",
]


class Role(Enum):
    FOLLOWER = "follower"
    OPINION_LEADER = "opinion_leader"


class SinkClass(str, Enum):
    SINGLETON_SB = "singleton_sb"
    COOPERATIVE_SB = "cooperative_sb"
    ANTAGONISTIC_SB = "antagonistic_sb"
    SUB = "sub"

    @property
    def is_balanced(self) -> bool:
        return self is not SinkClass.SUB


@dataclass(frozen=True, eq=False)
class SccPartition:
    """Partition of nodes into strongly connected components.

    Component ids are canonical: sorted by smallest member node index, so
    the partition (and everything derived from it) is reproducible.
    """

    scc_id: np.ndarray
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CondensationDag:
    """The acyclic component graph; ``sinks`` lists components with out-degree 0."""

    n_components: int
    edges: frozenset[tuple[int, int]]
    sinks: tuple[int, ...]


def strongly_connected_components(graph: SignedDigraph) -> SccPartition:
    """Strongly connected components, numbered by smallest member."""
    scc_id, components = _canonical_components(graph.adjacency, "strong")
    scc_id.setflags(write=False)
    return SccPartition(scc_id=scc_id, components=components)


def condense(graph: SignedDigraph, sccs: SccPartition) -> CondensationDag:
    """Collapse each component to a node; a sink has no outgoing DAG edge."""
    count = len(sccs.components)
    src = sccs.scc_id[graph.sources]
    tgt = sccs.scc_id[graph.targets]
    cross = src != tgt
    pairs = np.unique(src[cross] * count + tgt[cross])
    has_out = np.zeros(count, dtype=bool)
    has_out[src[cross]] = True
    return CondensationDag(
        n_components=count,
        edges=frozenset(zip((pairs // count).tolist(), (pairs % count).tolist())),
        sinks=tuple(np.flatnonzero(~has_out).tolist()),
    )


@dataclass(frozen=True, eq=False)
class BalanceResult:
    """Signed 2-coloring of a subgraph, one connected piece at a time.

    ``sides`` is aligned with ``nodes`` (ascending node indices).  On a
    balanced piece every node is +1 or -1, with the piece's smallest node
    at +1 so signs are reproducible; every node of an unbalanced piece is
    0.  ``labels`` is ``sides`` when the whole subgraph is balanced and
    ``None`` otherwise.
    """

    sides: np.ndarray
    nodes: tuple[int, ...]

    @property
    def balanced(self) -> bool:
        return bool(self.sides.all())

    @property
    def labels(self) -> np.ndarray | None:
        return self.sides if self.balanced else None


def balance_check(graph: SignedDigraph, nodes) -> BalanceResult:
    """Structural balance of each connected piece of the subgraph induced by ``nodes``.

    Works on the undirected signed double cover: node ``i`` has copies
    ``i+`` and ``i-``; a positive edge joins like copies, a negative edge
    unlike ones, in either direction.  A piece is balanced iff no node's
    two copies are connected, and a node is on side +1 iff its ``i+``
    copy lies with the ``+`` copy of the smallest node of its piece.  An
    antiparallel pair with opposite signs is therefore a conflict, a
    negative self-loop can never be satisfied, and positive self-loops
    impose nothing.
    """
    nodes = tuple(sorted({int(i) for i in nodes}))
    k = len(nodes)
    index = list(nodes)
    sub = graph.adjacency[index][:, index].tocoo()
    # copy i+ is cover node i, copy i- is cover node i + k
    shift = np.where(sub.data > 0, 0, k)
    rows = np.concatenate((sub.row, sub.row + k))
    cols = np.concatenate((sub.col + shift, sub.col + k - shift))
    cover = sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(2 * k, 2 * k))
    cover_id, _ = _canonical_components(cover, "weak")
    plus, minus = cover_id[:k], cover_id[k:]
    # the smallest node's + copy is the smallest member of its cover
    # component, so that component has the lower canonical id
    sides = np.sign(minus - plus)
    sides.setflags(write=False)
    return BalanceResult(sides=sides, nodes=nodes)


@dataclass(frozen=True)
class SinkInfo:
    """One sink of the condensation: membership, balance class, stubbornness."""

    sink_index: int
    component: int
    members: tuple[int, ...]
    sink_class: SinkClass
    bipartition: tuple[int, ...] | None
    contains_stubborn: bool
    in_s_ns: bool


@dataclass(frozen=True, eq=False)
class AgentClassification:
    """Per-node roles plus the per-sink classification.

    ``s_ns`` holds the indices of balanced sinks with no stubborn member;
    these are exactly the sinks whose members keep a nonzero limit of
    their own and make the update matrix semi-convergent.
    """

    roles: tuple[Role, ...]
    sink_of: np.ndarray
    sinks: tuple[SinkInfo, ...]
    s_ns: frozenset[int]

    @property
    def n(self) -> int:
        return len(self.roles)

    @property
    def follower_count(self) -> int:
        return int(np.count_nonzero(self.sink_of < 0))


def classify_agents(
    graph: SignedDigraph, sccs: SccPartition, dag: CondensationDag, beta
) -> AgentClassification:
    """Assign roles and classify every sink of the condensation.

    A single-node sink is balanced by definition.  No edge joins two
    sinks, so one :func:`balance_check` on all sink members sees each
    sink as one piece.  A multi-member sink is unbalanced (SUB) when its
    sides are 0, antagonistic when it has a -1 side (strong connectivity
    gives an edge from the +1 side to the -1 side, and that edge is
    negative), and cooperative otherwise.  A sink lands in ``s_ns`` iff it
    is balanced and none of its members is stubborn.
    """
    beta = np.asarray(beta, dtype=np.float64)
    members = [sccs.components[cid] for cid in dag.sinks]
    sizes = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
    # every sink member, sink after sink, and where each sink starts among them
    order = np.fromiter((i for m in members for i in m), dtype=np.int64, count=int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    sink_of = np.full(graph.n, -1, dtype=np.int64)
    sink_of[order] = np.repeat(np.arange(len(members)), sizes)
    leaders = np.flatnonzero(sink_of >= 0)
    side = np.zeros(graph.n, dtype=np.int64)
    side[leaders] = balance_check(graph, leaders).sides
    sides = side[order]
    stubborn = np.logical_or.reduceat(beta[order] > 0, starts).tolist()
    signed = np.logical_and.reduceat(sides != 0, starts).tolist()
    negative = np.logical_or.reduceat(sides < 0, starts).tolist()
    sides = sides.tolist()

    sinks: list[SinkInfo] = []
    stop = 0
    for k, cid in enumerate(dag.sinks):
        start, stop = stop, stop + len(members[k])
        if stop - start == 1:
            sink_class = SinkClass.SINGLETON_SB
            bipartition: tuple[int, ...] | None = (1,)
        elif not signed[k]:
            sink_class = SinkClass.SUB
            bipartition = None
        else:
            sink_class = SinkClass.ANTAGONISTIC_SB if negative[k] else SinkClass.COOPERATIVE_SB
            bipartition = tuple(sides[start:stop])
        sinks.append(
            SinkInfo(
                sink_index=k,
                component=cid,
                members=members[k],
                sink_class=sink_class,
                bipartition=bipartition,
                contains_stubborn=stubborn[k],
                in_s_ns=bipartition is not None and not stubborn[k],
            )
        )

    roles = tuple(map((Role.FOLLOWER, Role.OPINION_LEADER).__getitem__, (sink_of >= 0).tolist()))
    sink_of.setflags(write=False)
    return AgentClassification(
        roles=roles,
        sink_of=sink_of,
        sinks=tuple(sinks),
        s_ns=frozenset(s.sink_index for s in sinks if s.in_s_ns),
    )


@dataclass(frozen=True, eq=False)
class CanonicalOrdering:
    """Node permutation putting followers first, then each sink contiguously.

    ``permutation[p]`` is the original index of the node at canonical slot
    ``p``; ``inverse`` maps the other way.  Applying it to the update
    matrix produces the block-triangular shape the solver relies on.
    """

    permutation: np.ndarray
    inverse: np.ndarray
    follower_count: int
    sink_offsets: tuple[int, ...]
    sink_sizes: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.permutation)

    def sink_slice(self, sink_index: int) -> slice:
        off = self.sink_offsets[sink_index]
        return slice(off, off + self.sink_sizes[sink_index])


def canonical_ordering(classification: AgentClassification) -> CanonicalOrdering:
    """Followers ascending, then sinks by ascending sink index, members ascending."""
    n = classification.n
    followers = [i for i in range(n) if classification.sink_of[i] < 0]
    perm = list(followers)
    offsets: list[int] = []
    sizes: list[int] = []
    for sink in classification.sinks:
        offsets.append(len(perm))
        sizes.append(len(sink.members))
        perm.extend(sink.members)
    permutation = np.asarray(perm, dtype=np.int64)
    inverse = np.empty(n, dtype=np.int64)
    inverse[permutation] = np.arange(n, dtype=np.int64)
    permutation.setflags(write=False)
    inverse.setflags(write=False)
    return CanonicalOrdering(
        permutation=permutation,
        inverse=inverse,
        follower_count=len(followers),
        sink_offsets=tuple(offsets),
        sink_sizes=tuple(sizes),
    )


def classification_to_dict(
    classification: AgentClassification, labels: tuple[str, ...]
) -> dict:
    """JSON-ready view: per-node role/sink, per-sink class and members, s_ns."""
    side = {
        i: s
        for sink in classification.sinks
        if sink.bipartition is not None
        for i, s in zip(sink.members, sink.bipartition)
    }
    nodes = []
    for i, role in enumerate(classification.roles):
        entry: dict = {"node": labels[i], "role": role.value}
        k = int(classification.sink_of[i])
        if k >= 0:
            entry["sink"] = k
            if i in side:
                entry["side"] = side[i]
        nodes.append(entry)
    sinks = [
        {
            "index": s.sink_index,
            "members": [labels[i] for i in s.members],
            "class": s.sink_class.value,
            "contains_stubborn": s.contains_stubborn,
            "in_s_ns": s.in_s_ns,
        }
        for s in classification.sinks
    ]
    return {
        "follower_count": classification.follower_count,
        "leader_count": classification.n - classification.follower_count,
        "nodes": nodes,
        "sinks": sinks,
        "s_ns": sorted(classification.s_ns),
    }
