"""Signed weighted digraphs, their CSV formats, and input validation.

Orientation convention: an edge ``(source, target, weight)`` is stored as
``a[source, target] = weight``, so a node's row in the adjacency matrix
consists of its outgoing edges.  In rating datasets ("source rates target",
e.g. Bitcoin Alpha) this means every agent is influenced by the nodes it
rates; the update rule averages over each agent's own outgoing ratings.
The opposite convention is defensible, so this one is fixed here once and
used consistently by every downstream module.
"""

from __future__ import annotations

import csv
import io
import multiprocessing
import os
import signal
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator
from warnings import catch_warnings, filterwarnings

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .errors import GraphFormatError

__all__ = [
    "SignedDigraph",
    "ValidationIssue",
    "ValidationReport",
    "parse_edge_list",
    "serialize_edge_list",
    "ensure_self_loops",
    "flip_edges",
    "read_stubbornness",
    "read_initial_opinions",
    "validate",
    "weak_components",
]


def _csv_rows(source) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, stripped fields)`` for each non-blank CSV record.

    ``source`` is text, a file object, or an iterable of lines.  One reader
    parses all of it, so a quoted field may hold a line break; a record's
    line number is that of its last line.
    """
    reader = csv.reader(io.StringIO(source, newline="") if isinstance(source, str) else source)
    for row in reader:
        fields = [f.strip() for f in row]
        if len(fields) > 1 or (fields and fields[0]):
            yield reader.line_num, fields


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SignedDigraph:
    """A signed, weighted digraph with string node labels and dense indices ``0..n-1``.

    Instances are immutable; all derived views are cached.  Invariants
    (enforced by :meth:`from_edges`): labels are unique and non-empty,
    weights are finite and nonzero, and there is at most one edge per
    ordered ``(source, target)`` pair.
    """

    labels: tuple[str, ...]
    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_edges(cls, labels: Iterable[str], edges: Iterable[tuple]) -> "SignedDigraph":
        """Build a graph from node labels and ``(source, target, weight)`` triples.

        Endpoints may be given as dense indices or as labels.
        """
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise ValueError("graph needs at least one node")
        if len(set(labels)) != len(labels):
            raise ValueError("node labels must be unique")
        index = {lab: i for i, lab in enumerate(labels)}

        def resolve(endpoint) -> int:
            if isinstance(endpoint, str):
                try:
                    return index[endpoint]
                except KeyError:
                    raise ValueError(f"unknown node label {endpoint!r}") from None
            i = int(endpoint)
            if not 0 <= i < len(labels):
                raise ValueError(f"node index {i} out of range for n={len(labels)}")
            return i

        src, tgt, wts = [], [], []
        seen: set[tuple[int, int]] = set()
        for s, t, w in edges:
            si, ti = resolve(s), resolve(t)
            w = float(w)
            if not np.isfinite(w) or w == 0.0:
                raise ValueError(
                    f"edge ({labels[si]!r}, {labels[ti]!r}) has invalid weight {w!r}; "
                    "weights must be finite and nonzero"
                )
            if (si, ti) in seen:
                raise ValueError(f"duplicate edge ({labels[si]!r}, {labels[ti]!r})")
            seen.add((si, ti))
            src.append(si)
            tgt.append(ti)
            wts.append(w)

        return cls(
            labels=labels,
            sources=_readonly(np.asarray(src, dtype=np.int64)),
            targets=_readonly(np.asarray(tgt, dtype=np.int64)),
            weights=_readonly(np.asarray(wts, dtype=np.float64)),
        )

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.weights)

    @property
    def negative_edge_count(self) -> int:
        return int(np.count_nonzero(self.weights < 0))

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """Signed adjacency matrix with ``a[source, target] = weight``."""
        a = sparse.coo_matrix(
            (self.weights, (self.sources, self.targets)), shape=(self.n, self.n)
        ).tocsr()
        a.sort_indices()
        return a

    @cached_property
    def _edge_positions(self) -> dict[tuple[int, int], int]:
        return {(int(s), int(t)): k for k, (s, t) in enumerate(zip(self.sources, self.targets))}

    def has_edge(self, source: int, target: int) -> bool:
        return (source, target) in self._edge_positions

    def weight_of(self, source: int, target: int) -> float:
        return float(self.weights[self._edge_positions[(source, target)]])

    @cached_property
    def self_loop_weights(self) -> np.ndarray:
        """Per-node self-loop weight, 0.0 where absent."""
        w = np.zeros(self.n)
        loops = self.sources == self.targets
        w[self.sources[loops]] = self.weights[loops]
        return _readonly(w)

    def edge_triples(self) -> Iterator[tuple[int, int, float]]:
        for s, t, w in zip(self.sources, self.targets, self.weights):
            yield int(s), int(t), float(w)


def parse_edge_list(
    source,
    *,
    has_header: bool = False,
    ignore_extra_columns: bool = False,
    merge_duplicates: str | None = None,
) -> SignedDigraph:
    """Parse a ``source,target,weight`` edge list into a :class:`SignedDigraph`.

    Args:
        source: text, file object, or iterable of lines (UTF-8 CSV).
        has_header: skip the first non-blank line.
        ignore_extra_columns: accept and drop trailing columns (e.g. a
            timestamp column); otherwise more than three columns is an error.
        merge_duplicates: ``None`` rejects repeated ``(source, target)``
            lines; ``"sum"`` aggregates their weights instead.

    Node labels get dense indices in order of first appearance.  Raises
    :class:`GraphFormatError` (with the offending line number) on malformed
    lines, zero weights, duplicates, or empty input.
    """
    if merge_duplicates not in (None, "sum"):
        raise ValueError(f"unsupported merge_duplicates mode {merge_duplicates!r}")

    labels: list[str] = []
    index: dict[str, int] = {}
    weight_at: dict[tuple[int, int], float] = {}
    first_line: dict[tuple[int, int], int] = {}
    header_pending = has_header

    def node_id(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for lineno, fields in _csv_rows(source):
        if header_pending:
            header_pending = False
            continue
        if len(fields) < 3:
            raise GraphFormatError(
                f"expected 'source,target,weight', got {len(fields)} column(s)", line=lineno
            )
        if len(fields) > 3 and not ignore_extra_columns:
            raise GraphFormatError(
                f"unexpected extra columns ({len(fields)} found); "
                "pass ignore_extra_columns to drop them",
                line=lineno,
            )
        src_label, tgt_label, weight_field = fields[0], fields[1], fields[2]
        if not src_label or not tgt_label:
            raise GraphFormatError("empty node label", line=lineno)
        try:
            w = float(weight_field)
        except ValueError:
            raise GraphFormatError(f"weight {weight_field!r} is not a real number", line=lineno)
        if not np.isfinite(w):
            raise GraphFormatError(f"weight {weight_field!r} is not finite", line=lineno)
        if w == 0.0:
            raise GraphFormatError("zero weight is not allowed", line=lineno)

        key = (node_id(src_label), node_id(tgt_label))
        if key in weight_at:
            if merge_duplicates != "sum":
                raise GraphFormatError(
                    f"duplicate edge ({src_label!r}, {tgt_label!r}); "
                    f"first seen on line {first_line[key]}",
                    line=lineno,
                )
            weight_at[key] += w
            if weight_at[key] == 0.0:
                raise GraphFormatError(
                    f"duplicate edges ({src_label!r}, {tgt_label!r}) sum to zero", line=lineno
                )
            if not np.isfinite(weight_at[key]):
                raise GraphFormatError(
                    f"duplicate edges ({src_label!r}, {tgt_label!r}) sum to a non-finite weight",
                    line=lineno,
                )
        else:
            weight_at[key] = w
            first_line[key] = lineno

    if not weight_at:
        raise GraphFormatError("empty input: no edge lines found")

    # every invariant of from_edges is checked above, so no edge is resolved again
    ends = np.array(list(weight_at), dtype=np.int64).reshape(-1, 2)
    return SignedDigraph(
        labels=tuple(labels),
        sources=_readonly(ends[:, 0].copy()),
        targets=_readonly(ends[:, 1].copy()),
        weights=_readonly(np.fromiter(weight_at.values(), np.float64, len(weight_at))),
    )


def _format_weight(w: float) -> str:
    if w == int(w) and abs(w) < 1e15:
        return str(int(w))
    return repr(float(w))


# Streaming CSV writers format and write at most this many rows at a time
# (about 1 MB of Python strings), so their memory does not grow with the output.
_CSV_CHUNK_ROWS = 1 << 12


def _csv_fields(labels: Iterable[str]) -> list[str]:
    """Each label as one CSV field, quoted when it holds ``,``, ``"`` or a line break.

    This is ``csv``'s minimal quoting, so :func:`parse_edge_list` and the
    profile readers read every written label back unchanged; plain labels
    keep their bytes.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)  # its "\r\n" terminator makes both line breaks quote
    fields = []
    for label in labels:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow((label,))
        fields.append(buffer.getvalue()[:-2])
    return fields


def _csv_chunks(count: int, item_rows: int = 1) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` bounds cutting ``count`` items of ``item_rows`` rows each into
    chunks of at most ``_CSV_CHUNK_ROWS`` rows, and at least one item."""
    step = max(1, _CSV_CHUNK_ROWS // max(item_rows, 1))
    for start in range(0, count, step):
        yield start, min(start + step, count)


# Each worker is handed at most this many chunks ahead of the writer, so the text
# in flight is O(workers x chunk) however slowly the output drains.
_CHUNKS_PER_WORKER = 2


def _format_tasks(format_chunk: Callable[[int, int], object], conn) -> None:
    """A worker's loop: format each ``(start, stop)`` received until ``None`` arrives.

    An exception is sent back in place of the chunk, for the writer to raise.
    An interrupt is left to the writer, which stops the workers.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for start, stop in iter(conn.recv, None):
        try:
            chunk = format_chunk(start, stop)
        except Exception as exc:
            chunk = exc
        conn.send(chunk)


def _formatted_chunks(
    format_chunk: Callable[[int, int], object], count: int, item_rows: int = 1
) -> Iterator:
    """``format_chunk(start, stop)`` for each of :func:`_csv_chunks`' bounds, in order.

    Where the ``fork`` start method exists, the process's affinity set holds
    more than one CPU and there is more than one chunk, one forked worker per
    CPU (and at most one per chunk) formats the chunks; otherwise this process
    does.  The workers inherit ``format_chunk`` and the arrays it reads through
    fork, so only the formatted chunks are pickled.  Chunk ``i`` goes to worker
    ``i % workers`` and is read back from that worker's pipe, so the order is
    kept; a new chunk is handed out only when one has been written, so at most
    ``_CHUNKS_PER_WORKER`` chunks per worker are in flight.  Iterate inside
    ``contextlib.closing`` so that the workers are gone when the writer
    returns or raises.
    """
    bounds = list(_csv_chunks(count, item_rows))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(bounds))
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        for start, stop in bounds:
            yield format_chunk(start, stop)
        return
    context = multiprocessing.get_context("fork")
    processes, conns = [], []
    try:
        with catch_warnings():
            # Python 3.12+ warns that forking a process with threads (OpenBLAS's
            # here) may deadlock the child; the workers only format strings, so
            # they never enter BLAS or wait on a lock its threads may hold
            filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                DeprecationWarning,
            )
            for _ in range(workers):
                conn, worker_conn = context.Pipe()
                conns.append(conn)
                with worker_conn:  # the worker holds its own copy
                    process = context.Process(
                        target=_format_tasks, args=(format_chunk, worker_conn), daemon=True)
                    process.start()
                processes.append(process)
        window = _CHUNKS_PER_WORKER * workers
        try:
            for i, task in enumerate(bounds[:window]):
                conns[i % workers].send(task)
            for i in range(len(bounds)):
                chunk = conns[i % workers].recv()
                if isinstance(chunk, Exception):
                    raise chunk
                yield chunk
                if i + window < len(bounds):
                    conns[i % workers].send(bounds[i + window])
            for conn in conns:
                conn.send(None)
        except (EOFError, ConnectionError):  # a worker was killed, say by the OOM killer
            raise ChildProcessError("a CSV formatting worker exited early") from None
    except BaseException:
        for process in processes:
            process.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for process in processes:
            process.join()


def serialize_edge_list(graph: SignedDigraph) -> str:
    """Inverse of :func:`parse_edge_list`; preserves edge order and CSV-quotes labels."""
    fields = _csv_fields(graph.labels)
    lines = [f"{fields[s]},{fields[t]},{_format_weight(w)}" for s, t, w in graph.edge_triples()]
    return "\n".join(lines) + "\n"


def ensure_self_loops(graph: SignedDigraph, weight: float) -> SignedDigraph:
    """Return a copy with a ``weight`` self-loop added to every node lacking one.

    Real rating datasets usually carry no self-loops, while the update model
    requires positive ones on opinion leaders; this patches them in bulk.
    """
    weight = float(weight)
    if not np.isfinite(weight) or weight <= 0:
        raise ValueError("self-loop weight must be positive and finite")
    # the graph's invariants hold, so no edge is resolved or checked again
    missing = np.flatnonzero(graph.self_loop_weights == 0)
    return SignedDigraph(
        labels=graph.labels,
        sources=_readonly(np.concatenate([graph.sources, missing])),
        targets=_readonly(np.concatenate([graph.targets, missing])),
        weights=_readonly(np.concatenate([graph.weights, np.full(missing.size, weight)])),
    )


def flip_edges(graph: SignedDigraph, pairs: Iterable[tuple[str, str]]) -> SignedDigraph:
    """Return a copy with the signs of the referenced edges negated."""
    flips = set()
    for src_label, tgt_label in pairs:
        s = graph.label_index.get(src_label)
        t = graph.label_index.get(tgt_label)
        if s is None or t is None or not graph.has_edge(s, t):
            raise GraphFormatError(f"edge ({src_label!r}, {tgt_label!r}) not found")
        flips.add((s, t))
    weights = graph.weights.copy()
    at = [graph._edge_positions[pair] for pair in flips]
    weights[at] = -weights[at]
    return SignedDigraph(
        labels=graph.labels, sources=graph.sources, targets=graph.targets,
        weights=_readonly(weights),
    )


# ---------------------------------------------------------------------------
# Per-node profile files (stubbornness and initial opinions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationIssue:
    code: str
    ref: str
    message: str


def _read_node_values(
    source, graph: SignedDigraph, *, has_header: bool, what: str
) -> dict[int, float]:
    values: dict[int, float] = {}
    header_pending = has_header
    for lineno, fields in _csv_rows(source):
        if header_pending:
            header_pending = False
            continue
        if len(fields) != 2:
            raise GraphFormatError(
                f"expected 'node,{what}', got {len(fields)} column(s)", line=lineno
            )
        label, value_field = fields
        node = graph.label_index.get(label)
        if node is None:
            raise GraphFormatError(f"unknown node label {label!r}", line=lineno)
        if node in values:
            raise GraphFormatError(f"duplicate entry for node {label!r}", line=lineno)
        try:
            v = float(value_field)
        except ValueError:
            raise GraphFormatError(f"{what} {value_field!r} is not a real number", line=lineno)
        if not np.isfinite(v):
            raise GraphFormatError(f"{what} {value_field!r} is not finite", line=lineno)
        values[node] = v
    return values


def read_stubbornness(
    source, graph: SignedDigraph, *, has_header: bool = False
) -> tuple[np.ndarray, tuple[ValidationIssue, ...]]:
    """Read a ``node,beta`` CSV; nodes absent from the file default to 0."""
    values = _read_node_values(source, graph, has_header=has_header, what="beta")
    beta = np.zeros(graph.n)
    for node, v in values.items():
        beta[node] = v
    return beta, ()


def read_initial_opinions(
    source, graph: SignedDigraph, *, has_header: bool = False
) -> tuple[np.ndarray, tuple[ValidationIssue, ...]]:
    """Read a ``node,x0`` CSV; absent nodes default to 0.0 with a warning."""
    values = _read_node_values(source, graph, has_header=has_header, what="x0")
    x0 = np.zeros(graph.n)
    for node, v in values.items():
        x0[node] = v
    warnings: list[ValidationIssue] = []
    missing = [graph.labels[i] for i in range(graph.n) if i not in values]
    if missing:
        shown = ", ".join(missing[:5]) + (", ..." if len(missing) > 5 else "")
        warnings.append(
            ValidationIssue(
                code="missing_x0",
                ref=shown,
                message=f"{len(missing)} node(s) absent from the opinion file; defaulted to 0.0",
            )
        )
    return x0, tuple(warnings)


# ---------------------------------------------------------------------------
# Validation and normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Outcome of :func:`validate`: issues plus the normalized inputs.

    ``graph`` and ``beta`` reflect the fully-stubborn rewrite (agents with
    beta 1 become sinks with beta 0); ``normalized`` flags whether any
    rewrite happened.  The graph is accepted iff ``errors`` is empty.
    """

    errors: tuple[ValidationIssue, ...]
    warnings: tuple[ValidationIssue, ...]
    normalized: bool
    graph: SignedDigraph
    beta: np.ndarray

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(graph: SignedDigraph, beta) -> ValidationReport:
    """Check model preconditions and normalize fully stubborn agents.

    Checks, in order:

    * every stubbornness value lies in ``[0, 1]``;
    * no node carries a negative self-loop;
    * agents with stubbornness exactly 1 are rewritten as sinks (outgoing
      non-self edges removed, a positive self-loop ensured, beta reset to 0)
      with a warning, since a fully stubborn agent and a sink are equivalent;
    * after the rewrite, every opinion leader in a multi-member sink must
      carry a positive self-loop (a zero-out-degree singleton is exempt:
      its normalized update row is already the unit row);
    * a warning is emitted if the graph is not weakly connected (the
      analysis proceeds per component).
    """
    from . import topology  # deferred: validation needs the condensation

    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (graph.n,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({graph.n},)")

    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []

    bad = ~np.isfinite(beta) | (beta < 0.0) | (beta > 1.0)
    for i in np.flatnonzero(bad):
        errors.append(
            ValidationIssue(
                code="beta_range",
                ref=graph.labels[i],
                message=f"stubbornness {float(beta[i])!r} outside [0, 1]",
            )
        )

    for i in np.flatnonzero(graph.self_loop_weights < 0):
        errors.append(
            ValidationIssue(
                code="negative_self_loop",
                ref=graph.labels[i],
                message=f"negative self-loop weight {float(graph.self_loop_weights[i])!r}",
            )
        )

    new_graph = graph
    new_beta = beta.copy()
    fully = np.flatnonzero(beta == 1.0)
    normalized = False
    if fully.size:
        fully_set = set(int(i) for i in fully)
        edges = [
            (s, t, w)
            for s, t, w in graph.edge_triples()
            if s == t or s not in fully_set
        ]
        have_loop = {s for s, t, _ in edges if s == t}
        edges.extend((i, i, 1.0) for i in sorted(fully_set) if i not in have_loop)
        new_graph = SignedDigraph.from_edges(graph.labels, edges)
        new_beta[fully] = 0.0
        normalized = True
        for i in sorted(fully_set):
            warnings.append(
                ValidationIssue(
                    code="fully_stubborn_rewrite",
                    ref=graph.labels[i],
                    message="fully stubborn agent rewritten as a sink (beta reset to 0)",
                )
            )

    sccs = topology.strongly_connected_components(new_graph)
    dag = topology.condense(new_graph, sccs)
    loops = new_graph.self_loop_weights
    for cid in dag.sinks:
        members = sccs.components[cid]
        if len(members) < 2:
            continue
        for i in members:
            if loops[i] <= 0.0:
                errors.append(
                    ValidationIssue(
                        code="leader_self_loop",
                        ref=new_graph.labels[i],
                        message="opinion leader in a multi-member sink needs a positive self-loop",
                    )
                )

    if len(weak_components(new_graph)) > 1:
        warnings.append(
            ValidationIssue(
                code="not_weakly_connected",
                ref="*",
                message="graph is not weakly connected; analysis proceeds per component",
            )
        )

    new_beta.setflags(write=False)
    return ValidationReport(
        errors=tuple(errors),
        warnings=tuple(warnings),
        normalized=normalized,
        graph=new_graph,
        beta=new_beta,
    )


def _canonical_components(
    adjacency: sparse.spmatrix, connection: str
) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """``connection="strong"`` or ``"weak"`` components in canonical order.

    Components are numbered by their smallest member and list their
    members ascending.  Returns ``(component id per node, components)``.
    """
    count, raw = connected_components(adjacency, directed=True, connection=connection)
    _, first = np.unique(raw, return_index=True)
    renumber = np.empty(count, dtype=np.int64)
    renumber[np.argsort(first)] = np.arange(count)
    ids = renumber[raw]
    order = np.argsort(ids, kind="stable")
    bounds = np.cumsum(np.bincount(ids, minlength=count))[:-1]
    if not count:
        return ids, ()
    return ids, tuple(tuple(part.tolist()) for part in np.split(order, bounds))


def weak_components(graph: SignedDigraph) -> list[list[int]]:
    """Connected components of the undirected version of the graph.

    Components are numbered by their smallest contained node index and
    each member list is ascending.
    """
    _, components = _canonical_components(graph.adjacency, "weak")
    return [list(c) for c in components]
