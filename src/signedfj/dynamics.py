"""Row-normalized update matrices and the signed opinion recursion.

Each agent averages the opinions of the nodes on its outgoing edges,
weighted by edge weight over the row's total absolute weight, so a
negative edge pulls toward the negation of the neighbour's opinion
(the opposing rule).  A stubborn agent mixes that average with its own
initial opinion:

    x_i(k+1) = beta_i * x_i(0) + (1 - beta_i) * sum_j q_ij * x_j(k)

Rows with no edges at all keep their opinion (unit row).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, TextIO

import numpy as np
from scipy import sparse

from .errors import InternalInconsistencyError, NumericalError
from . import graph as graph_module
from .graph import SignedDigraph, _ChunkFormatter, _csv_fields
from .topology import CanonicalOrdering

__all__ = [
    "UpdateSystem",
    "Trajectory",
    "row_normalized",
    "build_update_system",
    "simulate",
    "trajectory_long_csv",
    "trajectory_wide_csv",
]


def row_normalized(graph: SignedDigraph) -> sparse.csr_matrix:
    """Normalize each adjacency row by its absolute sum; empty rows become unit rows."""
    a = graph.adjacency
    row_abs = np.asarray(abs(a).sum(axis=1)).ravel()
    nonzero = row_abs > 0
    scale = np.divide(1.0, row_abs, out=np.zeros_like(row_abs), where=nonzero)
    q = sparse.diags(scale) @ a
    if not nonzero.all():
        q = q + sparse.diags((~nonzero).astype(np.float64))
    q = sparse.csr_matrix(q)
    q.sort_indices()
    return q


@dataclass(frozen=True, eq=False)
class UpdateSystem:
    """The stubbornness vector and the combined update matrix.

    ``stubbornness`` is in original node order; ``update_matrix`` is
    ``diag(1 - beta) @ Q`` (``Q`` from :func:`row_normalized`) permuted to the
    canonical block order, where it is block triangular: a follower block,
    coupling blocks from followers into each sink, and one diagonal block
    per sink with nothing between distinct sinks.
    """

    stubbornness: np.ndarray
    update_matrix: sparse.csr_matrix
    ordering: CanonicalOrdering

    @property
    def n(self) -> int:
        return self.ordering.n

    @cached_property
    def stubbornness_canonical(self) -> np.ndarray:
        b = self.stubbornness[self.ordering.permutation]
        b.setflags(write=False)
        return b

    def follower_block(self) -> sparse.csr_matrix:
        m = self.ordering.follower_count
        return self.update_matrix[:m, :m]

    @cached_property
    def _sink_blocks(self) -> dict[int, sparse.csr_matrix]:
        return {}

    def sink_block(self, sink_index: int) -> sparse.csr_matrix:
        """One sink's diagonal block, sliced on first use and shared."""
        block = self._sink_blocks.get(sink_index)
        if block is None:
            sl = self.ordering.sink_slice(sink_index)
            block = self._sink_blocks[sink_index] = self.update_matrix[sl, sl]
        return block


def build_update_system(
    graph: SignedDigraph, beta, ordering: CanonicalOrdering
) -> UpdateSystem:
    """Assemble the update system and verify its block-triangular shape.

    The shape check is a cheap structural cross-check: any nonzero between
    distinct sink blocks, or from a sink block back into the follower
    block, means the ordering and the graph disagree.
    """
    beta = np.asarray(beta, dtype=np.float64).copy()
    if beta.shape != (graph.n,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({graph.n},)")
    q = row_normalized(graph)
    p = sparse.csr_matrix(sparse.diags(1.0 - beta) @ q)
    perm = ordering.permutation
    p_canonical = sparse.csr_matrix(p[perm, :][:, perm])
    p_canonical.sort_indices()

    block_of = np.full(ordering.n, -1, dtype=np.int64)
    for k in range(len(ordering.sink_offsets)):
        block_of[ordering.sink_slice(k)] = k
    coo = p_canonical.tocoo()
    row_block = block_of[coo.row]
    bad = (row_block >= 0) & (block_of[coo.col] != row_block) & (coo.data != 0)
    if bad.any():
        raise InternalInconsistencyError(
            "update matrix is not block triangular in canonical order; "
            "sink rows reach outside their own block"
        )

    beta.setflags(write=False)
    return UpdateSystem(
        stubbornness=beta,
        update_matrix=p_canonical,
        ordering=ordering,
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded iterates of a simulation run.

    ``states[j]`` is the opinion vector at iteration ``ks[j]``; the final
    iterate is always included.  ``converged`` means the infinity-norm
    step residual stayed at or below the tolerance for ``patience``
    consecutive steps.  A run that handed its records to a ``record`` sink
    (see :func:`simulate`) keeps none of them: its ``states`` is the one
    row of the final iterate, which ``final`` returns, while ``ks`` still
    lists every recorded iteration.
    """

    ks: np.ndarray
    states: np.ndarray
    converged: bool
    final_residual: float
    iterations_used: int

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


RecordSink = Callable[[int, np.ndarray], object]


def simulate(
    graph: SignedDigraph,
    beta,
    x0,
    *,
    tol: float = 1e-10,
    max_iters: int = 1_000_000,
    stride: int | None = None,
    patience: int = 10,
    record: RecordSink | None = None,
) -> Trajectory:
    """Iterate the opinion recursion until the step residual settles.

    Args:
        graph, beta: validated inputs (see :func:`signedfj.graph.validate`).
        x0: finite initial opinions.
        tol: finite positive residual threshold; convergence is declared
            once the infinity-norm of ``x(k+1) - x(k)`` stays at or below
            ``tol`` for ``patience`` consecutive steps.
        max_iters: iteration budget; exceeding it returns a trajectory
            with ``converged=False`` rather than raising.
        stride: record every ``stride``-th iterate (plus the final one);
            defaults to 1 for n <= 100 and 10 otherwise.
        record: called as ``record(k, x)`` with each recorded iterate, in
            order, as it is made.  ``x`` is the loop's own buffer, which the
            next step overwrites, so a sink copies what it keeps.

    Without a ``record`` sink the recorded states are written straight into
    the one float64 array the trajectory returns, so memory is
    ``records x n x 8`` bytes plus O(n) for the step: a default run of 1M
    iterations at n = 3783 and stride 10 holds about 3 GB.  With one,
    ``simulate`` holds O(n) and ``ks``, 8 bytes per record, and returns a
    trajectory whose ``states`` is only the final iterate.

    Raises :class:`NumericalError` if an iterate turns non-finite, which
    signals invalid input weights rather than model behaviour.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if patience < 1:
        raise ValueError("patience must be at least 1")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    beta = np.asarray(beta, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    n = graph.n
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
    if not np.isfinite(x0).all():
        raise NumericalError("initial opinions contain non-finite entries")
    if stride is None:
        stride = 1 if n <= 100 else 10
    if stride < 1:
        raise ValueError("stride must be at least 1")

    q = row_normalized(graph)
    keep = 1.0 - beta
    hold = beta * x0

    records = None
    if record is None:
        record = records = _Records(n)
    record(0, x0)
    x = x0.copy()
    residual = np.inf
    streak = 0
    converged = False
    k = 0
    while k < max_iters:
        k += 1
        x_next = q @ x
        np.multiply(keep, x_next, out=x_next)
        np.add(x_next, hold, out=x_next)
        # x is finite, so the residual is non-finite exactly when x_next is
        step = np.subtract(x_next, x, out=x)
        residual = float(np.abs(step, out=step).max()) if n else 0.0
        if not np.isfinite(residual):
            raise NumericalError(
                f"non-finite opinion at iteration {k}; check input weights"
            )
        x = x_next
        if k % stride == 0:
            record(k, x)
        if residual <= tol:
            streak += 1
            if streak >= patience:
                converged = True
                break
        else:
            streak = 0

    ks = np.arange(0, k + 1, stride, dtype=np.int64)
    if ks[-1] != k:
        ks = np.append(ks, np.int64(k))
        record(k, x)

    return Trajectory(
        ks=ks,
        states=x[None] if records is None else records.stacked(),
        converged=converged,
        final_residual=residual,
        iterations_used=k,
    )


_RECORD_BLOCK = 64


class _Records:
    """:func:`simulate`'s own record sink: one float64 array grown in place.

    It grows by ``_RECORD_BLOCK`` rows each time it fills.  glibc's realloc
    moves a large block by remapping its pages, so growing in place copies
    nothing; an allocator that copies holds old and new blocks at once,
    which is no more than a list of rows plus the array stacked from it.
    """

    def __init__(self, n: int):
        self._states = np.empty((_RECORD_BLOCK, n))
        self._count = 0

    def __call__(self, k: int, x: np.ndarray) -> None:
        states = self._states
        if self._count == len(states):
            # resizing needs no view of the array alive
            states.resize((self._count + _RECORD_BLOCK, states.shape[1]), refcheck=False)
        states[self._count] = x
        self._count += 1

    def stacked(self) -> np.ndarray:
        """The records as one array, trimmed to their count."""
        self._states.resize((self._count, self._states.shape[1]), refcheck=False)
        return self._states


class _RecordChunks:
    """A ``record`` sink that cuts the stream of record values into chunks.

    Every chunk but the last holds exactly ``size`` values, cut across record
    boundaries, so a record larger than a chunk spans several.  Each is handed
    to the formatter as the task ``(ks, start, n, values)``: the records ``ks``
    of ``n`` values that it touches, the node ``start`` of its first value,
    and its ``values``.  Values are copied into a fresh block per chunk, since
    a block handed out may wait to be formatted.  The first record calls ``header``
    with n before anything else is written.
    """

    def __init__(self, formatter: _ChunkFormatter, header, size: int):
        self._formatter, self._header, self._size = formatter, header, size
        self._block: np.ndarray | None = None
        self._filled = self._start = 0
        self._ks: list[int] = []
        self.n = 0

    def __call__(self, k: int, x: np.ndarray) -> None:
        if self._header is not None:
            self.n = len(x)
            self._header(self.n)
            self._header = None
        taken = 0
        while taken < len(x):
            if self._block is None:
                self._block, self._ks, self._start = np.empty(self._size), [], taken
            self._ks.append(k)
            take = min(len(x) - taken, self._size - self._filled)
            self._block[self._filled:self._filled + take] = x[taken:taken + take]
            self._filled += take
            taken += take
            if self._filled == self._size:
                self.hand_out()

    def hand_out(self) -> None:
        """Submit the values collected so far as one task."""
        if self._filled:
            task = (self._ks, self._start, self.n, self._block[:self._filled])
            self._block, self._filled = None, 0
            self._formatter.submit(task)


def trajectory_long_csv(
    trajectory: Trajectory | Callable[[RecordSink], Trajectory],
    labels: tuple[str, ...], out: TextIO | None, wide: TextIO | None = None,
) -> Trajectory:
    """Write the plot-ready long format to ``out``: one ``k,node,opinion`` row per node per record.

    ``trajectory`` is a stored :class:`Trajectory`, or a function that runs a
    simulation with the ``record`` sink it is given (see :func:`simulate`)
    and returns its trajectory.  Then each record is formatted and written
    while the run goes on, so memory holds O(n), the chunks in flight and
    8 bytes per record for ``ks``, never the whole trajectory.  The
    trajectory is returned either way.

    Given a ``wide`` handle, the same walk writes :func:`trajectory_wide_csv`'s
    rows to it, formatting each value once for both files; ``out`` may then be
    None.  Labels are CSV-quoted.  Values go out ``_CSV_CHUNK_ROWS`` at a time,
    whatever the record length: a chunk may start or end inside a record.  A
    run of more than one chunk is formatted on every available CPU (see
    ``_ChunkFormatter``), which the run waits for when it falls behind.
    """
    from . import _text  # deferred: only the CSV exports format floats

    fields = _text.Fields(field + "," for field in _csv_fields(labels))
    to_out, to_wide = out is not None, wide is not None
    size = graph_module._CSV_CHUNK_ROWS
    newline = _text.literal("\n")
    # the label and wide line-end cells of n + size values from a record's
    # start, built with the header: a chunk reads its rows as one slice
    tiles = {}

    def header(n: int) -> None:
        if to_out:
            out.write("k,node,opinion\n")
        if to_wide:
            wide.write("k," + ",".join(f"x_{i}" for i in range(n)) + "\n")
        if not n:
            return  # records of no values make no chunk to read tiles
        nodes = np.arange(n + size) % n
        # the wide file alone is written without labels
        tiles["labels"] = fields.cells(nodes) if to_out else np.empty((n + size, 0), np.uint8)
        tiles["ends"] = np.where(nodes == n - 1, ord("\n"), ord(",")).astype(np.uint8)

    def format_records(ks: list[int], start: int, n: int, values: np.ndarray) -> tuple[str, str]:
        # one matrix of "k,", "label,", the value and the long file's line end
        count = len(values)
        labels, ends = tiles["labels"][start:start + count], tiles["ends"][start:start + count]
        # each record's "k," for the values of it that the chunk holds
        heads = _text.Fields(f"{k}," for k in ks).cells()
        shares = np.diff(np.clip(np.arange(len(ks) + 1) * n - start, 0, count))
        cells = _text.join_blocks(
            np.repeat(heads, shares, axis=0), labels, _text.float_cells(values), newline)
        long_text = _text.kept_text(cells) if to_out else ""
        if not to_wide:
            return long_text, ""
        # "k," only ahead of each record's first value, no labels, and the
        # wide file's separators for line ends
        k_width = heads.shape[1]
        cells[:, :k_width + labels.shape[1]] = _text.GAP
        cells[-start % n::n, :k_width] = heads[1 if start else 0:]
        cells[:, -1] = ends
        return long_text, _text.kept_text(cells)

    def write(texts: tuple[str, str]) -> None:
        if to_out:
            out.write(texts[0])
        if to_wide:
            wide.write(texts[1])

    run = _replay(trajectory) if isinstance(trajectory, Trajectory) else trajectory
    with _ChunkFormatter(format_records, write) as formatter:
        records = _RecordChunks(formatter, header, size)
        result = run(records)
        records.hand_out()
        formatter.finish()
    rows = len(result.ks)
    if to_wide and rows and not records.n:
        wide.write("".join(f"{k},\n" for k in result.ks.tolist()))  # "k," alone per record
    formatter.log_written("trajectory", ((out, rows * records.n), (wide, rows)))
    return result


def _replay(trajectory: Trajectory) -> Callable[[RecordSink], Trajectory]:
    """A run that hands a stored trajectory's records to its sink."""

    def run(record: RecordSink) -> Trajectory:
        for k, state in zip(trajectory.ks.tolist(), trajectory.states):
            record(k, state)
        return trajectory

    return run


def trajectory_wide_csv(trajectory: Trajectory, out: TextIO) -> None:
    """Write the wide format to ``out``: ``k`` plus one ``x_<i>`` column per node index."""
    trajectory_long_csv(trajectory, (), None, out)
