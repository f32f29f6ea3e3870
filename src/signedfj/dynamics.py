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

from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from typing import TextIO

import numpy as np
from scipy import sparse

from .errors import InternalInconsistencyError, NumericalError
from .graph import SignedDigraph, _csv_fields, _formatted_chunks
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
    def _sink_blocks(self) -> tuple[sparse.csr_matrix, ...]:
        slices = map(self.ordering.sink_slice, range(len(self.ordering.sink_offsets)))
        return tuple(self.update_matrix[sl, sl] for sl in slices)

    def sink_block(self, sink_index: int) -> sparse.csr_matrix:
        """One sink's diagonal block, sliced once per system and shared."""
        return self._sink_blocks[sink_index]


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
    consecutive steps.
    """

    ks: np.ndarray
    states: np.ndarray
    converged: bool
    final_residual: float
    iterations_used: int

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def simulate(
    graph: SignedDigraph,
    beta,
    x0,
    *,
    tol: float = 1e-10,
    max_iters: int = 1_000_000,
    stride: int | None = None,
    patience: int = 10,
) -> Trajectory:
    """Iterate the opinion recursion until the step residual settles.

    Args:
        graph, beta: validated inputs (see :func:`signedfj.graph.validate`).
        x0: finite initial opinions.
        tol: residual threshold; convergence is declared once the
            infinity-norm of ``x(k+1) - x(k)`` stays at or below ``tol``
            for ``patience`` consecutive steps.
        max_iters: iteration budget; exceeding it returns a trajectory
            with ``converged=False`` rather than raising.
        stride: record every ``stride``-th iterate (plus the final one);
            defaults to 1 for n <= 100 and 10 otherwise.

    Raises :class:`NumericalError` if an iterate turns non-finite, which
    signals invalid input weights rather than model behaviour.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if patience < 1:
        raise ValueError("patience must be at least 1")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    beta = np.asarray(beta, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (graph.n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({graph.n},)")
    if not np.isfinite(x0).all():
        raise NumericalError("initial opinions contain non-finite entries")
    if stride is None:
        stride = 1 if graph.n <= 100 else 10
    if stride < 1:
        raise ValueError("stride must be at least 1")

    q = row_normalized(graph)
    keep = 1.0 - beta
    hold = beta * x0

    ks = [0]
    states = [x0.copy()]
    x = x0.copy()
    residual = np.inf
    streak = 0
    converged = False
    k = 0
    while k < max_iters:
        k += 1
        x_next = keep * (q @ x) + hold
        if not np.isfinite(x_next).all():
            raise NumericalError(
                f"non-finite opinion at iteration {k}; check input weights"
            )
        residual = float(np.max(np.abs(x_next - x))) if graph.n else 0.0
        x = x_next
        if k % stride == 0:
            ks.append(k)
            states.append(x.copy())
        if residual <= tol:
            streak += 1
            if streak >= patience:
                converged = True
                break
        else:
            streak = 0

    if ks[-1] != k:
        ks.append(k)
        states.append(x.copy())

    return Trajectory(
        ks=np.asarray(ks, dtype=np.int64),
        states=np.asarray(states),
        converged=converged,
        final_residual=residual if np.isfinite(residual) else float("inf"),
        iterations_used=k,
    )


def trajectory_long_csv(
    trajectory: Trajectory, labels: tuple[str, ...], out: TextIO | None,
    wide: TextIO | None = None,
) -> None:
    """Write the plot-ready long format to ``out``: one ``k,node,opinion`` row per node per record.

    Given a ``wide`` handle, the same walk writes :func:`trajectory_wide_csv`'s
    rows to it, formatting each value once for both files; ``out`` may then be
    None.  Labels are CSV-quoted.  Records go out a chunk of whole records at a
    time, at most ``_CSV_CHUNK_ROWS`` values unless one record holds more, and
    the chunks are formatted on every available CPU (see ``_formatted_chunks``).
    """
    ks, states = trajectory.ks.tolist(), trajectory.states
    fields = _csv_fields(labels)
    to_out, to_wide = out is not None, wide is not None
    if to_out:
        out.write("k,node,opinion\n")
    if to_wide:
        wide.write("k," + ",".join(f"x_{i}" for i in range(states.shape[1])) + "\n")

    def format_records(start: int, stop: int) -> tuple[str, str]:
        long_text, wide_text = [], []
        for k, state in zip(ks[start:stop], states[start:stop].tolist()):
            values = list(map(repr, state))
            if to_out:
                head = f"{k},"  # formatted once per record, not once per row
                long_text.extend([f"{head}{f},{x}\n" for f, x in zip(fields, values)])
            if to_wide:
                wide_text.append(f"{k},{','.join(values)}\n")
        return "".join(long_text), "".join(wide_text)

    with closing(_formatted_chunks(format_records, len(ks), states.shape[1])) as chunks:
        for long_text, wide_text in chunks:
            if to_out:
                out.write(long_text)
            if to_wide:
                wide.write(wide_text)


def trajectory_wide_csv(trajectory: Trajectory, out: TextIO) -> None:
    """Write the wide format to ``out``: ``k`` plus one ``x_<i>`` column per node index."""
    trajectory_long_csv(trajectory, (), None, out)
