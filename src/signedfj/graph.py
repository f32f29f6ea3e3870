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
import logging
import math
import multiprocessing
import os
import signal
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator
from warnings import catch_warnings, filterwarnings

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .errors import GraphFormatError

if TYPE_CHECKING:
    from .topology import CondensationDag, SccPartition

log = logging.getLogger("signedfj")

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


def _csv_reader(source):
    """One ``csv.reader`` over text, a file object, or an iterable of lines.

    It parses all of ``source``, so a quoted field may hold a line break;
    its ``line_num`` after a record is that of the record's last line.
    """
    return csv.reader(io.StringIO(source, newline="") if isinstance(source, str) else source)


def _is_blank(row: list[str]) -> bool:
    """A record with no field, or one field of whitespace only."""
    return len(row) < 2 and not (row and row[0].strip())


def _csv_rows(source) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, stripped fields)`` for each non-blank CSV record."""
    reader = _csv_reader(source)
    for row in reader:
        if not _is_blank(row):
            yield reader.line_num, [f.strip() for f in row]


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

    index: dict[str, int] = {}  # labels in order of first appearance
    weight_at: dict[tuple[int, int], float] = {}
    first_line: dict[tuple[int, int], int] = {}
    header_pending = has_header

    # the loop runs once per line, so it strips only the fields it reads
    reader = _csv_reader(source)
    for row in reader:
        if _is_blank(row):
            continue
        if header_pending:
            header_pending = False
            continue
        lineno = reader.line_num
        if len(row) < 3:
            raise GraphFormatError(
                f"expected 'source,target,weight', got {len(row)} column(s)", line=lineno
            )
        if len(row) > 3 and not ignore_extra_columns:
            raise GraphFormatError(
                f"unexpected extra columns ({len(row)} found); "
                "pass ignore_extra_columns to drop them",
                line=lineno,
            )
        src_label, tgt_label, weight_field = row[0].strip(), row[1].strip(), row[2].strip()
        if not src_label or not tgt_label:
            raise GraphFormatError("empty node label", line=lineno)
        try:
            w = float(weight_field)
        except ValueError:
            raise GraphFormatError(f"weight {weight_field!r} is not a real number", line=lineno)
        if not math.isfinite(w):
            raise GraphFormatError(f"weight {weight_field!r} is not finite", line=lineno)
        if w == 0.0:
            raise GraphFormatError("zero weight is not allowed", line=lineno)

        key = (index.setdefault(src_label, len(index)), index.setdefault(tgt_label, len(index)))
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
            if not math.isfinite(weight_at[key]):
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
        labels=tuple(index),
        sources=_readonly(ends[:, 0].copy()),
        targets=_readonly(ends[:, 1].copy()),
        weights=_readonly(np.fromiter(weight_at.values(), np.float64, len(weight_at))),
    )


def _format_weight(w: float) -> str:
    if w == int(w) and abs(w) < 1e15:
        return str(int(w))
    return repr(float(w))


# Streaming CSV writers format and write at most this many rows at a time, so
# their memory does not grow with the output: a chunk of Theta rows peaks at
# about 0.9 MB of numpy temporaries while it is formatted for both files, and
# a chunk of trajectory values at about 0.8 MB (see ``_text``).
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


def _csv_chunks(count: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` bounds cutting ``count`` rows into chunks of at most
    ``_CSV_CHUNK_ROWS`` rows."""
    for start in range(0, count, _CSV_CHUNK_ROWS):
        yield start, min(start + _CSV_CHUNK_ROWS, count)


def _format_tasks(format_chunk: Callable[..., object], conn) -> None:
    """A worker's loop: ``format_chunk(*task)`` for each task received until ``None`` arrives.

    The writer sends a worker a task only after taking back its previous
    chunk (see ``_ChunkFormatter``), so the worker is reading when a task
    larger than the pipe holds arrives (a trajectory chunk's 32 kB of values).
    An exception is sent back in place of the chunk, for the writer to
    raise.  An interrupt is left to the writer, which stops the workers.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        for task in iter(conn.recv, None):
            try:
                chunk = format_chunk(*task)
            except Exception as exc:
                chunk = exc
            conn.send(chunk)
    except EOFError:  # the writer is gone
        pass


class _ChunkFormatter:
    """``write(format_chunk(*task))`` for each task submitted, in order.

    A single task is formatted in this process.  Where the ``fork`` start
    method exists, the process's affinity set holds more than one CPU and the
    process is not daemonic, the second task starts forked workers, one per
    CPU and at most one per task: task ``i`` goes to worker ``i % cpus``,
    which is forked when task ``i`` is its first, and chunks are read back
    from the workers' pipes in task order.  Elsewhere every task is formatted
    in this process as it is submitted.  A worker inherits ``format_chunk``
    and what it reads through fork; tasks and chunks are pickled.

    :meth:`submit` and :meth:`finish` write the chunks that are ready, in
    order.  Each worker holds at most one chunk: task ``i`` is sent only
    after chunk ``i - cpus``, the same worker's previous one, has been
    taken back and written, so whoever makes the tasks waits when the
    workers fall behind, and the text in flight is at most workers x chunk
    however slowly the output drains.  Use it as a context manager: the
    workers are gone when the ``with`` block ends, also when it raises.
    """

    def __init__(self, format_chunk: Callable[..., object], write: Callable[[object], None]):
        self._format_chunk = format_chunk
        self._write = write
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        forks = ("fork" in multiprocessing.get_all_start_methods()
                 and not multiprocessing.current_process().daemon)
        self._cpus = cpus if forks else 1
        self._held = None  # the first task, until a second shows that workers pay
        self._processes: list = []
        self._conns: list = []
        self._submitted = self._sent = self._received = 0
        self._finished = False

    def submit(self, task) -> None:
        """Hand ``task`` out; write the chunks that are taken back to make room for it."""
        self._submitted += 1
        if self._cpus < 2:
            self._write(self._format_chunk(*task))
        elif self._held is None and not self._sent:
            self._held = task
        else:
            if self._held is not None:
                self._send(self._held)
                self._held = None
            if self._sent - self._received == self._cpus:
                self._write(self._receive())
            self._send(task)

    def finish(self) -> None:
        """Write every chunk still to come, then let the workers exit."""
        if self._held is not None:
            task, self._held = self._held, None
            self._write(self._format_chunk(*task))
        while self._received < self._sent:
            self._write(self._receive())
        for conn in self._conns:
            conn.send(None)
        self._finished = True

    def log_written(self, what: str, files) -> None:
        """Log one INFO line for the export ``what`` once it is written: each of the
        ``(handle, rows)`` files whose handle is not None, the chunks and where they
        were formatted."""
        where = f"by {len(self._processes)} workers" if self._processes else "in process"
        log.info("%s export: %s; %d chunks formatted %s", what, ", ".join(
            f"{getattr(handle, 'name', 'a stream')} ({rows} rows)"
            for handle, rows in files if handle is not None), self._submitted, where)

    def _send(self, task) -> None:
        if self._sent < self._cpus:
            self._start_worker()
        try:
            self._conns[self._sent % self._cpus].send(task)
        except ConnectionError:  # a worker was killed, say by the OOM killer
            raise ChildProcessError("a CSV formatting worker exited early") from None
        self._sent += 1

    def _receive(self):
        try:
            chunk = self._conns[self._received % self._cpus].recv()
        except (EOFError, ConnectionError):
            raise ChildProcessError("a CSV formatting worker exited early") from None
        self._received += 1
        if isinstance(chunk, Exception):
            raise chunk
        return chunk

    def _start_worker(self) -> None:
        context = multiprocessing.get_context("fork")
        conn, worker_conn = context.Pipe()
        self._conns.append(conn)
        with worker_conn, catch_warnings():  # the worker holds its own copy
            # Python 3.12+ warns that forking a process with threads (OpenBLAS's
            # here) may deadlock the child; the workers only format strings, so
            # they never enter BLAS or wait on a lock its threads may hold
            filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                DeprecationWarning,
            )
            process = context.Process(
                target=_format_tasks, args=(self._format_chunk, worker_conn), daemon=True)
            process.start()
        self._processes.append(process)

    def __enter__(self) -> "_ChunkFormatter":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._finished:
            for process in self._processes:
                process.terminate()
        for conn in self._conns:
            conn.close()
        for process in self._processes:
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
    return _with_self_loops(graph, np.arange(graph.n), weight)


def _with_self_loops(graph: SignedDigraph, nodes: np.ndarray, weight: float) -> SignedDigraph:
    """``graph`` with a ``weight`` self-loop appended for each of ascending ``nodes`` lacking one."""
    # the graph's invariants hold, so no edge is resolved or checked again
    missing = nodes[graph.self_loop_weights[nodes] == 0]
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
    label_index = graph.label_index
    reader = _csv_reader(source)
    for row in reader:
        if _is_blank(row):
            continue
        if header_pending:
            header_pending = False
            continue
        lineno = reader.line_num
        if len(row) != 2:
            raise GraphFormatError(
                f"expected 'node,{what}', got {len(row)} column(s)", line=lineno
            )
        label, value_field = row[0].strip(), row[1].strip()
        node = label_index.get(label)
        if node is None:
            raise GraphFormatError(f"unknown node label {label!r}", line=lineno)
        if node in values:
            raise GraphFormatError(f"duplicate entry for node {label!r}", line=lineno)
        try:
            v = float(value_field)
        except ValueError:
            raise GraphFormatError(f"{what} {value_field!r} is not a real number", line=lineno)
        if not math.isfinite(v):
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
    rewrite happened, ``weak_components`` counts the weakly connected
    components of ``graph``, and ``sccs`` and ``dag`` are its SCC partition
    and condensation, for the analysis to reuse.  The graph is accepted iff
    ``errors`` is empty.
    """

    errors: tuple[ValidationIssue, ...]
    warnings: tuple[ValidationIssue, ...]
    normalized: bool
    graph: SignedDigraph
    beta: np.ndarray
    weak_components: int
    sccs: SccPartition
    dag: CondensationDag

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
    stubborn = beta == 1.0
    fully = np.flatnonzero(stubborn)
    normalized = False
    if fully.size:
        # self-loops and every edge that does not leave a fully stubborn agent
        keep = (graph.sources == graph.targets) | ~stubborn[graph.sources]
        kept = SignedDigraph(graph.labels, *(
            _readonly(a[keep]) for a in (graph.sources, graph.targets, graph.weights)))
        new_graph = _with_self_loops(kept, fully, 1.0)
        new_beta[fully] = 0.0
        normalized = True
        for i in fully:
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

    weak = connected_components(new_graph.adjacency, connection="weak", return_labels=False)
    if weak > 1:
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
        weak_components=weak,
        sccs=sccs,
        dag=dag,
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
