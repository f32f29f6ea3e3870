"""Convergence regime, closed-form steady states, and influence centrality.

The canonical-order update matrix is block triangular, so its spectrum is
the union of the block spectra.  Sinks that are balanced and free of
stubborn agents keep an eigenvalue at exactly 1 (the limit is a rank-one
projector built from the eigenvector pair at 1); every other block is a
strict contraction and yields a resolvent.  Followers inherit their limit
from the sinks through one linear solve.  Stacking the per-block limit
operators gives the influence matrix mapping initial opinions to final
opinions; its absolute column sums are the centrality scores.
"""

from __future__ import annotations

import warnings
from contextlib import closing
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TextIO

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, LinAlgWarning, lu_factor, lu_solve
from scipy.sparse.linalg import ArpackNoConvergence, eigs, splu

from .dynamics import UpdateSystem, build_update_system
from .errors import InternalInconsistencyError, NumericalError
from .graph import SignedDigraph, _csv_fields, _formatted_chunks
from .topology import (
    AgentClassification,
    CondensationDag,
    SccPartition,
    SinkInfo,
    canonical_ordering,
    classify_agents,
    condense,
    strongly_connected_components,
)

__all__ = [
    "Regime",
    "SpectralReport",
    "SolutionKind",
    "SinkSolution",
    "InfluenceResult",
    "NetworkAnalysis",
    "spectral_check",
    "solve_sink",
    "solve_followers",
    "influence_matrix",
    "absolute_centrality",
    "steady_state",
    "analyze_network",
    "influence",
    "influence_triplets_csv",
    "influence_scatter_csv",
    "centrality_csv",
]

# Below this size a sink's stationary vector comes from a dense solve, and up
# to eight times it a block's spectral radius from dense eigenvalues.
DENSE_BLOCK_CUTOFF = 64
# Resolvent blocks of up to this many nodes are factored densely (a 134 MB
# factor); larger ones go through sparse LU.
_DENSE_FACTOR_NODES = 4096
# Up to this many nodes the influence matrix is cross-checked against the
# direct resolvent of the whole update matrix.
DIRECT_CHECK_CUTOFF = 200
# Dense column panels of a block solve hold at most this many entries (8 MB):
# k follower chains into k stubborn singletons give a Theta_F with m nonzeros
# but one dense m x k block, so an unbounded panel would not stay O(m).
_PANEL_ENTRIES = 1 << 20


class Regime(str, Enum):
    CONVERGENT = "convergent"
    SEMI_CONVERGENT = "semi_convergent"


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Structural regime plus numerical spectral-radius corroboration.

    The regime is decided from the classification (semi-convergent iff
    some balanced sink has no stubborn member); the radius estimates are
    attached as a numerical cross-check, never as the decision rule.
    The update matrix is block triangular, so its radii are the maxima of
    the block radii, computed block by block at every size.  The follower
    block's radii are computed only in the convergent regime; otherwise a
    sink's radius of 1 is the maximum.  ``approximate`` flags estimates
    from iterative methods that did not fully settle.
    """

    regime: Regime
    spectral_radius: float
    spectral_radius_abs: float
    sink_spectral_radii: tuple[float, ...]
    approximate: bool


class SolutionKind(str, Enum):
    RESOLVENT = "resolvent"
    EIGENPAIR = "eigenpair"
    ZERO = "zero"


@dataclass(frozen=True, eq=False)
class SinkSolution:
    """Limit operator of one sink block.

    * ``EIGENPAIR``: limit is ``right_vec @ left_vec^T`` (eigenvectors of
      the block at eigenvalue 1, normalized to ``left_vec @ right_vec = 1``);
      the sink keeps a memory of all its members' initial opinions.
    * ``RESOLVENT``: limit is the sparse ``(I - block)^{-1} @ diag(beta)``;
      only stubborn columns are nonzero.
    * ``ZERO``: unbalanced sink with no stubborn member; the limit is 0.
    """

    sink_index: int
    members: tuple[int, ...]
    kind: SolutionKind
    operator: sparse.csc_matrix | None = None
    right_vec: np.ndarray | None = None
    left_vec: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.members)

    def apply(self, x_block: np.ndarray) -> np.ndarray:
        if self.kind is SolutionKind.ZERO:
            return np.zeros(self.size)
        if self.kind is SolutionKind.EIGENPAIR:
            return self.right_vec * float(self.left_vec @ x_block)
        return self.operator @ x_block

    def _limit_block(self) -> np.ndarray | sparse.spmatrix:
        """The limit operator, without densifying zero or sparse blocks."""
        if self.kind is SolutionKind.ZERO:
            return sparse.csr_matrix((self.size, self.size))
        if self.kind is SolutionKind.EIGENPAIR:
            return np.outer(self.right_vec, self.left_vec)
        return self.operator

    def limit_matrix(self) -> np.ndarray:
        block = self._limit_block()
        return block.toarray() if sparse.issparse(block) else np.asarray(block)


@dataclass(frozen=True, eq=False)
class InfluenceResult:
    """Influence matrix (original node order), centrality scores, and ranking."""

    matrix: sparse.csr_matrix
    centrality: np.ndarray
    ranking: np.ndarray


# ---------------------------------------------------------------------------
# Linear-solve plumbing
# ---------------------------------------------------------------------------

class _ResolventSolver:
    """Solves ``(I - M) y = b`` with a prefactored LU and iterative refinement.

    Blocks of up to ``_DENSE_FACTOR_NODES`` nodes are factored by dense
    LAPACK: sparse LU fills a cycle-rich block towards dense (a third of
    dense on a Bitcoin-Alpha-shaped follower block), where dense LAPACK is
    several times faster.  Larger blocks keep SuperLU.
    """

    def __init__(self, m_block, *, what: str = "block"):
        size = m_block.shape[0]
        eye = sparse.identity(size, format="csr")
        self._a = sparse.csr_matrix(eye - m_block)
        self._what = what
        try:
            if size <= _DENSE_FACTOR_NODES:
                self._base = _dense_factor(self._a)
            else:
                self._base = splu(self._a.tocsc()).solve
        except (RuntimeError, LinAlgError) as exc:
            raise InternalInconsistencyError(
                f"(I - {what}) is singular; the convergence classification "
                "says this cannot happen, so the classification is buggy"
            ) from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve a 1-D ``b`` or a 2-D column panel; refinement checks the whole panel."""
        x = np.ascontiguousarray(self._base(b))  # so the residual's product copies no panel
        if not np.isfinite(x).all():
            raise InternalInconsistencyError(
                f"solve against (I - {self._what}) produced non-finite values"
            )
        scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
        for refinements in range(5):
            r = self._a @ x
            np.subtract(b, r, out=r)  # in place: one panel beside b and x, not two
            residual = float(max(r.max(), -r.min())) if r.size else 0.0
            if residual <= 1e-12 * scale or refinements == 4:
                break
            x += self._base(r)
        if residual > 1e-6 * scale:
            raise InternalInconsistencyError(
                "iterative refinement stalled; block solve is unreliable"
            )
        return x

    def solve_block(self, rhs: sparse.spmatrix) -> sparse.csc_matrix:
        """Solve for every column of a sparse ``rhs`` at once; the result is sparse.

        Structurally zero columns stay zero without a solve.  The others go
        through :meth:`solve` in dense column panels of at most
        ``_PANEL_ENTRIES`` entries.
        """
        rhs = sparse.csc_matrix(rhs, copy=True)
        rhs.eliminate_zeros()
        nonzero = np.flatnonzero(np.diff(rhs.indptr))
        step = max(1, _PANEL_ENTRIES // rhs.shape[0])
        counts = np.zeros(rhs.shape[1] + 1, np.int64)
        indices, data = [np.zeros(0, np.int32)], [np.zeros(0)]
        for start in range(0, nonzero.size, step):
            panel = nonzero[start:start + step]
            counts[panel + 1], rows, values = _column_nonzeros(
                self.solve(rhs[:, panel].toarray())
            )
            indices.append(rows)
            data.append(values)
        # rebinding frees each list's pieces as soon as they are joined
        data = np.concatenate(data)
        indices = np.concatenate(indices)
        return sparse.csc_matrix((data, indices, np.cumsum(counts)), shape=rhs.shape)


def _column_nonzeros(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column counts, row indices and values of a dense panel's nonzeros.

    Column-major, as CSC stores them.  A boolean mask picks them, so no
    COO coordinate arrays are made.
    """
    kept = x.T != 0.0
    rows = np.broadcast_to(np.arange(x.shape[0], dtype=np.int32), kept.shape)
    return kept.sum(axis=1), rows[kept], x.T[kept]


def _dense_factor(a: sparse.csr_matrix):
    """Dense LU of ``a``, factored in place; returns its solve function."""
    with warnings.catch_warnings():
        # lu_factor only warns on exact singularity; the zero pivot is
        # caught explicitly below
        warnings.simplefilter("ignore", LinAlgWarning)
        # a Fortran-order array is factored in place, without an m x m copy
        lu, piv = lu_factor(a.toarray(order="F"), overwrite_a=True, check_finite=False)
    # the sum is non-finite whenever an entry is, and needs no m x m mask
    if np.any(np.diag(lu) == 0.0) or not np.isfinite(lu.sum()):
        raise LinAlgError("exactly singular")
    return lambda b: lu_solve((lu, piv), b, check_finite=False)


def _stationary_row_vector(
    m, *, residual_target: float = 1e-12, max_iters: int = 100_000
) -> np.ndarray:
    """Stationary distribution of a primitive row-stochastic matrix.

    Power iteration from the uniform vector (deterministic); on
    non-convergence falls back to a sparse direct solve of
    ``pi (M - I) = 0`` with the normalization replacing the last equation.
    """
    size = m.shape[0]
    if size == 1:
        return np.ones(1)
    pi = np.full(size, 1.0 / size)
    for _ in range(max_iters):
        nxt = pi @ m
        nxt = nxt / nxt.sum()
        if float(np.abs(nxt - pi).sum()) <= residual_target:
            return nxt
        pi = nxt
    a = (sparse.csr_matrix(m).T - sparse.identity(size, format="csr")).tolil()
    a[-1, :] = 1.0
    b = np.zeros(size)
    b[-1] = 1.0
    try:
        pi = splu(a.tocsc()).solve(b)
    except RuntimeError as exc:
        raise NumericalError(
            f"stationary vector of a block of size {size} is not unique: {exc}"
        ) from exc
    return pi / pi.sum()


# ---------------------------------------------------------------------------
# Spectral regime
# ---------------------------------------------------------------------------

def _abs_power_radius(m, iters: int = 2000) -> tuple[float, bool]:
    """Spectral radius of a nonnegative matrix by normalized power iteration."""
    size = m.shape[0]
    v = np.full(size, 1.0 / np.sqrt(size))
    estimate = 0.0
    for _ in range(iters):
        w = m @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0, False
        new_estimate = norm
        w = w / norm
        settled = abs(new_estimate - estimate) <= 1e-12 * max(1.0, new_estimate) and bool(
            np.max(np.abs(w - v)) <= 1e-10
        )
        estimate, v = new_estimate, w
        if settled:
            return estimate, False
    return estimate, True


def _block_radius(block) -> tuple[float, bool]:
    """Spectral radius of one (possibly signed) block; flags approximate results."""
    size = block.shape[0]
    if size == 0:
        return 0.0, False
    if size <= DENSE_BLOCK_CUTOFF * 8:
        dense = block.toarray() if sparse.issparse(block) else np.asarray(block)
        return float(np.max(np.abs(np.linalg.eigvals(dense)))), False
    try:
        vals = eigs(
            sparse.csr_matrix(block),
            k=1,
            which="LM",
            return_eigenvectors=False,
            maxiter=5000,
            v0=np.full(size, 1.0 / np.sqrt(size)),
        )
        return float(np.max(np.abs(vals))), False
    except (ArpackNoConvergence, RuntimeError):
        # upper bound via the entrywise-absolute matrix
        radius, _ = _abs_power_radius(abs(sparse.csr_matrix(block)))
        return radius, True


def spectral_check(
    system: UpdateSystem, classification: AgentClassification
) -> SpectralReport:
    """Decide the regime structurally and attach numerical radius estimates.

    Semi-convergent iff some balanced sink has no stubborn member;
    otherwise all block radii sit strictly below one and powers of the
    update matrix vanish.
    """
    regime = Regime.SEMI_CONVERGENT if classification.s_ns else Regime.CONVERGENT
    approximate = False
    sink_radii = []
    sink_radii_abs = []
    for k in range(len(classification.sinks)):
        block = system.sink_block(k)
        r, approx = _block_radius(block)
        sink_radii.append(r)
        approximate |= approx
        r_abs, approx = _block_radius(abs(block))
        sink_radii_abs.append(r_abs)
        approximate |= approx
    radius = max(sink_radii, default=0.0)
    radius_abs = max(sink_radii_abs, default=0.0)
    if regime is Regime.CONVERGENT:
        # a free balanced sink has radius 1 and the follower block's
        # radii are strictly below 1, so only here can they be the maximum
        follower = system.follower_block()
        r11, approx = _block_radius(follower)
        approximate |= approx
        r11_abs, approx = _block_radius(abs(follower))
        approximate |= approx
        radius = max(radius, r11)
        radius_abs = max(radius_abs, r11_abs)

    return SpectralReport(
        regime=regime,
        spectral_radius=radius,
        spectral_radius_abs=radius_abs,
        sink_spectral_radii=tuple(sink_radii),
        approximate=approximate,
    )


# ---------------------------------------------------------------------------
# Per-sink limit operators
# ---------------------------------------------------------------------------

def solve_sink(system: UpdateSystem, sink: SinkInfo) -> SinkSolution:
    """Compute the limit operator of one sink block.

    Balanced stubborn-free sinks get the eigenvector pair at eigenvalue 1.
    Rather than a generic nonsymmetric eigensolve, the block is gauged by
    its bipartition signs: flipping the sign of one side turns the block
    into a nonnegative row-stochastic matrix with positive diagonal, whose
    stationary distribution (by power iteration, deterministic) is the
    left eigenvector up to the same sign flips.  The right eigenvector is
    the bipartition itself, so the sign convention (+1 on the sink's
    smallest member) comes for free and the normalization is exact.
    """
    members = sink.members
    size = len(members)
    block = system.sink_block(sink.sink_index)
    beta_block = system.stubbornness[list(members)]

    if sink.in_s_ns:
        if size == 1:
            v = np.ones(1)
            w = np.ones(1)
        else:
            sigma = np.asarray(sink.bipartition, dtype=np.float64)
            # diag(sigma) @ block @ diag(sigma), entry by entry; products of
            # signs are exact
            gauged = block.copy()
            rows = np.repeat(np.arange(size), np.diff(block.indptr))
            gauged.data = block.data * sigma[rows] * sigma[block.indices]
            lo = float(gauged.data.min())
            row_err = float(np.max(np.abs(np.asarray(gauged.sum(axis=1)).ravel() - 1.0)))
            if lo < -1e-12 or row_err > 1e-9:
                raise InternalInconsistencyError(
                    f"gauged sink {sink.sink_index} is not row stochastic; "
                    "the bipartition disagrees with the edge signs"
                )
            pi = _stationary_row_vector(
                gauged.toarray() if size < DENSE_BLOCK_CUTOFF else gauged
            )
            v = sigma.copy()
            w = sigma * pi
            w = w / float(w @ v)
        _check_eigenpair(block, v, w, sink)
        return SinkSolution(
            sink_index=sink.sink_index,
            members=members,
            kind=SolutionKind.EIGENPAIR,
            right_vec=v,
            left_vec=w,
        )

    if sink.contains_stubborn:
        solver = _ResolventSolver(block, what=f"sink block {sink.sink_index}")
        return SinkSolution(
            sink_index=sink.sink_index,
            members=members,
            kind=SolutionKind.RESOLVENT,
            operator=solver.solve_block(sparse.diags(beta_block)),
        )

    # unbalanced and stubborn-free: everything inside decays to zero
    return SinkSolution(
        sink_index=sink.sink_index, members=members, kind=SolutionKind.ZERO
    )


def _check_eigenpair(block, v: np.ndarray, w: np.ndarray, sink: SinkInfo) -> None:
    right_err = float(np.max(np.abs(block @ v - v)))
    left_err = float(np.max(np.abs(w @ block - w)))
    norm_err = abs(float(w @ v) - 1.0)
    if right_err > 1e-10 or left_err > 1e-10 or norm_err > 1e-10:
        raise InternalInconsistencyError(
            f"eigenvector pair of sink {sink.sink_index} failed verification "
            f"(right {right_err:.2e}, left {left_err:.2e}, normalization {norm_err:.2e})"
        )
    if np.any(w == 0.0):
        raise InternalInconsistencyError(
            f"left eigenvector of sink {sink.sink_index} has a zero entry"
        )


# ---------------------------------------------------------------------------
# Followers and the full steady state
# ---------------------------------------------------------------------------

def _follower_solver(system: UpdateSystem) -> _ResolventSolver | None:
    if system.ordering.follower_count == 0:
        return None
    return _ResolventSolver(system.follower_block(), what="follower block")


def _sink_limits(system: UpdateSystem, sink_solutions, x0: np.ndarray) -> np.ndarray:
    """Every sink's limit in canonical order; zero on the followers."""
    x = np.zeros(system.n)
    for s in sink_solutions:
        x[system.ordering.sink_slice(s.sink_index)] = s.apply(x0[list(s.members)])
    return x


def solve_followers(
    system: UpdateSystem,
    sink_solutions: tuple[SinkSolution, ...],
    x0: np.ndarray,
    *,
    _solver: _ResolventSolver | None = None,
) -> np.ndarray:
    """Follower limits given every sink's limit, by one linear solve.

    The followers' fixed point balances their own block, the coupling into
    the sinks' stacked limits, and their own stubbornness anchor:

        x_F = (I - P_FF)^{-1} (P_FL x_L* + beta_F * x0_F)

    Returns the follower values in ascending original-index order.
    """
    ordering = system.ordering
    m = ordering.follower_count
    if m == 0:
        return np.zeros(0)
    x0 = np.asarray(x0, dtype=np.float64)
    x_sinks = _sink_limits(system, sink_solutions, x0)[m:]
    rhs = (
        system.stubbornness_canonical[:m] * x0[ordering.permutation[:m]]
        + system.update_matrix[:m, m:] @ x_sinks
    )
    solver = _solver if _solver is not None else _follower_solver(system)
    return solver.solve(rhs)


def influence_matrix(
    system: UpdateSystem,
    classification: AgentClassification,
    sink_solutions: tuple[SinkSolution, ...],
    *,
    _solver: _ResolventSolver | None = None,
) -> sparse.csr_matrix:
    """Assemble the linear map from initial to final opinions.

    In canonical order the map is block triangular.  Its sink rows are the
    block diagonal ``Theta_L`` of the sinks' limit operators, and its
    follower rows are one solve against the follower block:

        Theta_F = (I - P_FF)^{-1} [diag(beta_F) | P_FL Theta_L]

    All right-hand sides are solved together, and only the nonzero ones:
    stubborn followers, stubborn sink members, and every member of a
    balanced stubborn-free sink.  All other columns are structurally zero.
    The follower factorization is dropped once those rows are solved, so
    unless the caller keeps a ``_solver`` it hands in, the factor is freed
    before Theta is assembled.  When no balanced stubborn-free sink exists
    and the graph is small, the assembly is cross-checked against the
    direct resolvent of the whole matrix.
    """
    ordering = system.ordering
    n = ordering.n
    m = ordering.follower_count
    # Theta_L in the sink rows; the follower rows are zero until solved
    canonical = sparse.block_diag(
        [sparse.csr_matrix((m, m))] + [s._limit_block() for s in sink_solutions],
        format="csr",
    )
    if m:
        solver = _solver if _solver is not None else _follower_solver(system)
        rhs = sparse.diags(system.stubbornness_canonical[:m], shape=(m, n)) + (
            system.update_matrix[:m] @ canonical
        )
        follower_rows = solver.solve_block(rhs)
        del solver, _solver  # frees the factor before Theta is assembled
        follower_rows = follower_rows.tocsr()
        canonical = sparse.vstack([follower_rows, canonical[m:]], format="csr")
        del follower_rows
    # original order: permute the rows, then renumber the columns
    theta = canonical[ordering.inverse]
    del canonical
    theta.indices = ordering.permutation.astype(theta.indices.dtype)[theta.indices]
    theta.sort_indices()

    if not classification.s_ns and n <= DIRECT_CHECK_CUTOFF:
        _check_against_direct_resolvent(system, theta)

    return theta


def _check_against_direct_resolvent(
    system: UpdateSystem, theta: sparse.csr_matrix
) -> None:
    """Cross-check the blockwise assembly against ``(I - P)^{-1} beta``."""
    n = system.n
    dense = np.eye(n) - system.update_matrix.toarray()
    expected = np.linalg.solve(dense, np.diag(system.stubbornness_canonical))
    perm = system.ordering.permutation
    assembled = theta.toarray()[np.ix_(perm, perm)]
    err = float(np.max(np.abs(assembled - expected)))
    if err > 1e-9:
        raise InternalInconsistencyError(
            f"blockwise influence assembly deviates from the direct resolvent by {err:.2e}"
        )


def absolute_centrality(theta: sparse.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of the entrywise-absolute influence matrix, plus a ranking.

    The score aggregates positive and negative influence alike; the
    ranking is by descending score with ties broken by ascending index.
    """
    centrality = np.asarray(abs(theta).sum(axis=0)).ravel()
    ranking = np.argsort(-centrality, kind="stable")
    return centrality, ranking


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NetworkAnalysis:
    """Everything derivable from a validated ``(graph, beta)`` pair."""

    graph: SignedDigraph
    beta: np.ndarray
    sccs: SccPartition
    dag: CondensationDag
    classification: AgentClassification
    system: UpdateSystem
    spectral: SpectralReport

    @cached_property
    def sink_solutions(self) -> tuple[SinkSolution, ...]:
        return tuple(
            solve_sink(self.system, sink) for sink in self.classification.sinks
        )

    @cached_property
    def _solver(self) -> _ResolventSolver | None:
        """The follower block's factorization, shared by every solve.

        ``influence`` takes it out of the cache, so the factor is freed
        before Theta is assembled; a ``steady_state`` after that factors
        again.
        """
        return _follower_solver(self.system)

    @cached_property
    def influence(self) -> InfluenceResult:
        theta = influence_matrix(
            self.system,
            self.classification,
            self.sink_solutions,
            _solver=self.__dict__.pop("_solver", None),
        )
        centrality, ranking = absolute_centrality(theta)
        return InfluenceResult(matrix=theta, centrality=centrality, ranking=ranking)

    def steady_state(self, x0) -> np.ndarray:
        """Final opinions for the given initial opinions, in original order."""
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (self.graph.n,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({self.graph.n},)")
        if not np.isfinite(x0).all():
            raise NumericalError("initial opinions contain non-finite entries")
        ordering = self.system.ordering
        x_canonical = _sink_limits(self.system, self.sink_solutions, x0)
        x_canonical[: ordering.follower_count] = solve_followers(
            self.system, self.sink_solutions, x0, _solver=self._solver
        )
        x = np.empty(self.graph.n)
        x[ordering.permutation] = x_canonical
        return x


def analyze_network(graph: SignedDigraph, beta) -> NetworkAnalysis:
    """Classify, order, and build the update system for validated inputs."""
    beta = np.asarray(beta, dtype=np.float64)
    sccs = strongly_connected_components(graph)
    dag = condense(graph, sccs)
    classification = classify_agents(graph, sccs, dag, beta)
    ordering = canonical_ordering(classification)
    system = build_update_system(graph, beta, ordering)
    spectral = spectral_check(system, classification)
    return NetworkAnalysis(
        graph=graph,
        beta=beta,
        sccs=sccs,
        dag=dag,
        classification=classification,
        system=system,
        spectral=spectral,
    )


def steady_state(graph: SignedDigraph, beta, x0) -> np.ndarray:
    """Closed-form final opinions; matches the simulation limit."""
    return analyze_network(graph, beta).steady_state(x0)


def influence(graph: SignedDigraph, beta) -> InfluenceResult:
    """Influence matrix, centrality scores, and ranking for validated inputs."""
    return analyze_network(graph, beta).influence


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def influence_triplets_csv(
    theta: sparse.spmatrix, labels: tuple[str, ...], out: TextIO | None,
    scatter: TextIO | None = None,
) -> None:
    """Write sparse triplets ``row_node,col_node,theta`` in row-major order to ``out``.

    Given a ``scatter`` handle, the same walk writes :func:`influence_scatter_csv`'s
    rows to it, formatting each value once for both files; ``out`` may then be
    None.  Rows go out a chunk at a time with CSV-quoted labels, in the order
    of a CSR walk with sorted indices and summed duplicates: no sorted copy.
    The chunks are formatted on every available CPU (see ``_formatted_chunks``).
    """
    csr = sparse.csr_matrix(theta)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    fields = _csv_fields(labels)
    to_out, to_scatter = out is not None, scatter is not None
    if to_out:
        out.write("row_node,col_node,theta\n")
    if to_scatter:
        scatter.write("row_node,col_node,theta,sign\n")

    def format_chunk(start: int, stop: int) -> tuple[str, str]:
        rows = np.searchsorted(csr.indptr, np.arange(start, stop), side="right") - 1
        values = csr.data[start:stop]
        # repr of the values is most of the cost, so each prefix serves both files
        prefixes = [f"{r},{c},{x!r}" for r, c, x in zip(
            map(fields.__getitem__, rows.tolist()),
            map(fields.__getitem__, csr.indices[start:stop].tolist()),
            values.tolist(),
        )]
        triplet_text = "\n".join(prefixes) + "\n" if to_out else ""
        if not to_scatter:
            return triplet_text, ""
        signs = map((",-1\n", ",1\n").__getitem__, (values > 0).tolist())
        return triplet_text, "".join(map(str.__add__, prefixes, signs))

    with closing(_formatted_chunks(format_chunk, csr.nnz)) as chunks:
        for triplet_text, scatter_text in chunks:
            if to_out:
                out.write(triplet_text)
            if to_scatter:
                scatter.write(scatter_text)


def influence_scatter_csv(theta: sparse.spmatrix, labels: tuple[str, ...], out: TextIO) -> None:
    """Write the triplets plus a +1/-1 sign column, ready for a colored scatter plot."""
    influence_triplets_csv(theta, labels, None, out)


def centrality_csv(
    centrality: np.ndarray, ranking: np.ndarray, labels: tuple[str, ...]
) -> str:
    """``rank,node,centrality`` rows in ranking order, with CSV-quoted labels."""
    fields = _csv_fields(labels)
    lines = ["rank,node,centrality"]
    for rank, node in enumerate(ranking, start=1):
        lines.append(f"{rank},{fields[node]},{float(centrality[node])!r}")
    return "\n".join(lines) + "\n"
