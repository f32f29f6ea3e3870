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

import logging
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TextIO

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, LinAlgWarning, lu_factor, lu_solve
from scipy.sparse.linalg import splu

from .dynamics import UpdateSystem, build_update_system
from .errors import InternalInconsistencyError, NumericalError
from .graph import SignedDigraph, _ChunkFormatter, _csv_chunks, _csv_fields
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

log = logging.getLogger("signedfj")

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

# Sinks of up to this many nodes are stacked densely by _SinkBatch: their radii
# come from dense eigenvalues and a free balanced sink's stationary vector from
# GTH elimination.  A larger block's radius is bounded by power iteration on |B|
# of at most _POWER_STEPS steps, and a larger free sink's stationary vector
# comes from one resolvent solve.
_STACK_NODES = 512
_POWER_STEPS = 2000
# Resolvent blocks of up to this many nodes are factored densely, in single
# precision (a 67 MB factor); larger ones go through sparse LU.  This holds for
# every factor: the sink resolvents, influence's follower block, and the
# follower block of steady_state and top_centrality where sweeps cannot solve
# it within _MAX_SWEEPS.
_DENSE_FACTOR_NODES = 4096
# A single-precision factor refines each panel for at most this many steps
# (LAPACK dsgesv's ITERMAX) before its block is refactored in double.
_SINGLE_REFINEMENTS = 30
# Up to this many nodes the influence matrix is cross-checked against the
# direct resolvent of the whole update matrix.
DIRECT_CHECK_CUTOFF = 200
# Dense column panels of a block solve on a sparse factor, and dense stacks of
# sink blocks, hold at most this many entries (8 MB): k follower chains into k
# stubborn singletons give a Theta_F with m nonzeros but one dense m x k block,
# so an unbounded panel would not stay O(m).  On a dense factor it is a floor.
_PANEL_ENTRIES = 1 << 20
# A dense factor's panels may be m // this many columns wide if that is more
# (from m = 2048 up): every refinement pass of a panel reads the whole factor,
# so fewer panels cost less, and a float64 panel of this width takes half the
# float32 factor's bytes, so the panel and its float32 buffer stay within
# three quarters of it.
_DENSE_PANEL_DIVISOR = 4
# A panel's residual product runs this many columns at a time.
_PRODUCT_COLUMNS = 16
# The unsigned adjoints sweep until their certified step is at most this (their
# entries are at least 1), or for this many sweeps: the one behind the
# centrality bounds, and the one whose norm decides whether the follower block
# of steady_state and top_centrality is solved by sweeps.  A block takes that
# route only if it predicts at most this many sweeps, and a panel not done
# within them is solved on a factor instead.
_SWEEP_TOL = 2.0**-30
_MAX_SWEEPS = 1000
# Each centrality bound is raised by this relative margin.  It covers the
# rounding of the bound's own arithmetic after the certificate and the
# forward error of the solved columns it is compared with, which on any
# block the solver accepts are far smaller.
_BOUND_MARGIN = 2.0**-20


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
    sink's radius of 1 is the maximum.  A stubborn-free sink's radius of
    ``|B|`` is exactly 1 at every size, and so is a balanced one's radius
    of ``B`` (see :class:`_SinkBatch`).  Other blocks of up to
    ``_STACK_NODES`` nodes get both radii from dense eigenvalues.  A larger
    block gets a Collatz-Wielandt bound on the Perron root of ``|B|`` as
    both, from power iteration (see :func:`_abs_power_radius`): it bounds
    ``|B|``'s radius from above, and so ``B``'s, and ``approximate`` is
    set, as it is for a larger unbalanced stubborn-free sink, whose signed
    radius is reported as its bound 1.
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

    Eigenpairs of sinks of up to ``_STACK_NODES`` nodes come from one GTH
    elimination over every sink of the same size (see :class:`_SinkBatch`),
    so their vectors may be rows of a shared stack; each holds the bits a
    stack of one would give.
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

    def limit_matrix(self) -> np.ndarray:
        if self.kind is SolutionKind.ZERO:
            return np.zeros((self.size, self.size))
        if self.kind is SolutionKind.EIGENPAIR:
            return np.outer(self.right_vec, self.left_vec)
        return self.operator.toarray()


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
    """Solves ``(I - M) y = b`` by iterative refinement, on sweeps or on a prefactored LU.

    Blocks of up to ``_DENSE_FACTOR_NODES`` nodes are factored by dense
    LAPACK: sparse LU fills a cycle-rich block towards dense (a third of
    dense on a Bitcoin-Alpha-shaped follower block), where dense LAPACK is
    several times faster.  Larger blocks keep SuperLU.

    A dense factor is made in single precision, half the bytes of a double
    one, unless it has a zero or non-finite pivot.  The factor routes
    refine in one loop (see :meth:`_refine`), and only its stop rule
    depends on the factor's precision.  On a single factor, column ``j``
    is done by LAPACK ``dsgesv``'s rule, ``max|r_j| <= sqrt(m) 2^-53
    ||A||_inf max|x_j|``, within ``_SINGLE_REFINEMENTS`` corrections; a
    panel not done in time, or a non-finite residual, makes the solver
    refactor its block in double precision once.  On a double factor,
    dense or SuperLU, the whole panel must reach ``1e-12`` times its
    largest right-hand side entry within 4 corrections, or end up to
    ``1e-6`` times it; otherwise it raises "iterative refinement stalled",
    or "produced non-finite values".

    With ``sweep``, the block is factored only if sweeps cannot solve it
    within ``_MAX_SWEEPS`` (see :func:`_sweep_certificate`): until then
    each panel is solved by :meth:`_sweeps`, which adds the residual
    :meth:`_refine` forms to ``x`` and stops each column by itself.  A
    panel not done within ``_MAX_SWEEPS`` sweeps makes the solver factor
    its block, and the panel is refined again from ``b`` on the factor.

    Every caller solves through :meth:`solve_block`, on sparse panels.
    ``refinement`` holds the latest solve's refinement steps after its
    first solve, its final residual relative to the largest right-hand
    side entry (at least 1) and, on sweeps, the largest certified error
    relative to its column's largest entry (None on a factor).
    """

    def __init__(self, m_block, *, what: str = "block", sweep: bool = False):
        size = m_block.shape[0]
        eye = sparse.identity(size, format="csr")
        self._a = sparse.csr_matrix(eye - m_block)
        self._what = what
        self._dense = self._single = size <= _DENSE_FACTOR_NODES
        self._norm = float(abs(self._a).sum(axis=1).max())
        # dsgesv's stop: a column is done once max|r| <= this times max|x|
        self._tolerance = np.sqrt(size) * 2.0**-53 * self._norm
        # a sweep's certificate: the residual's rounding per unit of ||A|| max|x| + max|b|
        self._rounding = (int(np.diff(self._a.indptr).max(initial=0)) + 4) * 2.0**-53
        self._certificate = _sweep_certificate(m_block) if sweep else None
        self._base = None if self._certificate is not None else self._factor()
        self.refinement = (0, 0.0, None)

    @property
    def route(self) -> str:
        """The correction the block is solved with, as the INFO lines name it."""
        if self._base is None:
            return "sweeps"
        if not self._dense:
            return "SuperLU"
        return "float32" if self._single else "float64 fallback"

    def _factor(self):
        """The solve function of ``A``'s factor, in single precision while ``_single``."""
        try:
            if self._single:
                try:
                    return _dense_factor(self._a, np.float32)
                except LinAlgError:
                    self._single = False
            if self._dense:
                return _dense_factor(self._a, np.float64)
            return splu(self._a.tocsc()).solve
        except (RuntimeError, LinAlgError) as exc:
            raise _singular(self._what) from exc

    def solve(self, b: sparse.csc_matrix) -> np.ndarray:
        """Solve one sparse column panel ``b`` of :meth:`solve_block` into a dense panel.

        Should sweeps not finish, the block is factored; should refinement
        fail on a single-precision factor, the block is refactored in double
        precision.  Either way the panel is refined again from ``b``.
        """
        x = self._sweeps(b) if self._base is None else self._refine(b)
        while x is None:
            if self._base is not None:
                self._single = False
                self._base = None  # the single factor goes before the double one is made
            self._base = self._factor()
            x = self._refine(b)
        return x

    def _refine(self, b: sparse.csc_matrix) -> np.ndarray | None:
        """Refine ``b`` by ``x <- x + C (b - A x)`` from ``x = 0``; None if a single factor fails.

        ``C`` is the factor's solve.  The first residual is ``b``, so the
        first correction is the plain solve.  Each pass forms the residual
        in double precision, ``_PRODUCT_COLUMNS`` columns at a time.  Each
        column is scaled by a power of two so that its largest entry lies
        in ``[0.5, 1)`` before it is rounded into one array of the panel's
        shape in the factor's precision: a column of tiny values never
        rounds to zero in float32, and in float64 the scaling is exact.
        That array is solved and added to ``x``, scaled back; on a double
        factor the first solve becomes ``x``, so the panel, that array and
        the solve's own output are never held at once before a correction
        is needed.  Every column is corrected until the panel is done, as
        in ``dsgesv``: a column that is done gains digits from one more
        correction.
        """
        single = self._single
        corrections = _SINGLE_REFINEMENTS if single else 4
        count = b.shape[1]
        # a relative residual's unit: the largest entry of b, at least 1
        scale = max(1.0, float(np.max(np.abs(b.data), initial=0.0)))
        x = np.zeros(b.shape, order="F") if single else None
        scaled = None
        scratch = np.empty((b.shape[0], min(count, _PRODUCT_COLUMNS)), order="F")
        exponents = np.zeros(count, np.intc)
        chunks = [slice(start, min(start + _PRODUCT_COLUMNS, count))
                  for start in range(0, count, _PRODUCT_COLUMNS)]
        # COO pieces, so each residual adds its b at the stored entries
        pieces = [b[:, cols].tocoo() for cols in chunks]
        for solves in range(corrections + 2):
            done, worst = solves > 0, 0.0
            if scaled is None:
                scaled = np.empty(b.shape, np.float32 if single else np.float64, order="F")
            for cols, piece in zip(chunks, pieces):
                part, r = x[:, cols] if x is not None else None, scratch[:, :cols.stop - cols.start]
                if solves:
                    self._residual(piece, part, out=r)
                else:  # x is zero, so the residual is b
                    r[...] = piece.toarray()
                top = np.maximum(r.max(axis=0), -r.min(axis=0))
                if not np.isfinite(top).all():
                    if single:
                        return None
                    raise InternalInconsistencyError(
                        f"solve against (I - {self._what}) produced non-finite values"
                    )
                worst = max(worst, float(top.max(initial=0.0)))
                if solves and single:
                    largest = np.maximum(part.max(axis=0), -part.min(axis=0))
                    done &= bool(np.all(top <= self._tolerance * largest))
                exponents[cols] = np.frexp(top)[1]
                # scaled exactly in double, then rounded once to the factor's precision
                np.ldexp(r, -exponents[cols], out=scaled[:, cols])
            if not single:
                done &= worst <= 1e-12 * scale
            if not done and solves > corrections:
                if single:
                    return None
                if worst > 1e-6 * scale:
                    raise InternalInconsistencyError(
                        "iterative refinement stalled; block solve is unreliable"
                    )
                done = True
            if done:
                self.refinement = (solves - 1, worst / scale, None)
                return x
            solved = self._base(scaled)
            if x is None:
                # the first correction is the whole solve, scaled back in place;
                # adding 0.0 turns -0.0 into 0.0 as adding it to x = 0 would
                for cols in chunks:
                    np.ldexp(solved[:, cols], exponents[cols], out=solved[:, cols])
                solved += 0.0
                x = solved
                if np.shares_memory(x, scaled):  # a dense factor solves in place
                    scaled = None
                continue
            for cols in chunks:
                r = scratch[:, :cols.stop - cols.start]
                np.ldexp(solved[:, cols], exponents[cols], out=r, dtype=np.float64)
                x[:, cols] += r

    def _sweeps(self, b: sparse.csc_matrix) -> np.ndarray | None:
        """Solve ``b`` by sweeps ``x <- M x + b`` from ``x = 0``; None if they do not finish.

        Each sweep adds the residual ``b - A x`` of :meth:`_refine` to ``x``,
        and skips the chunks whose columns are all done.  ``|(I - M)^-1| <=
        (I - |M|)^-1`` entrywise (Varga, *Matrix Iterative Analysis*, 2000,
        ch. 3), so with ``y = (I - |M|)^-1 1`` the error of ``x_j`` is at
        most ``||y||_inf`` times its exact residual.  Once the computed residual is
        at most ``2^-52 max|x_j|``, the sweeps' own error is at most
        ``||y||_inf`` ulps, and the ``E`` sweeps of :func:`_sweep_certificate`
        take it below one ulp; then column ``j`` is done, and keeps that
        ``x_j``, so its bits do not depend on its panel mates.  Its certified
        error, ``max|x_j - x*_j| <= ||y||_inf (max|r_j| + rho_j)``, is kept
        for the INFO lines, with ``rho_j = (d + 4) 2^-53 (||A||_inf max|x_j| +
        max|b_j|)`` the rounding of the residual, of forming ``I - M`` and of
        the bound, for ``d`` the most entries in a row of ``A``.  No sweep
        count brings that bound below ``||y||_inf rho_j``, so the stop does
        not ask it to reach an ulp.  A panel not done within ``_MAX_SWEEPS``
        sweeps, or with a non-finite residual, gives None.
        """
        (norm, extra), count = self._certificate, b.shape[1]
        chunks = [slice(start, min(start + _PRODUCT_COLUMNS, count))
                  for start in range(0, count, _PRODUCT_COLUMNS)]
        pieces = [b[:, cols].tocoo() for cols in chunks]
        x, r = np.zeros(b.shape, order="F"), b.toarray(order="F")  # r: the residual of x = 0
        peaks = np.maximum(r.max(axis=0), -r.min(axis=0))
        # per column: the sweep at which its residual first reached an ulp (-1
        # before), and the final residual and certified error once it is done
        reached, residuals, certified = np.full(count, -1), np.zeros(count), np.zeros(count)
        finished = np.zeros(count, bool)
        for solves in range(_MAX_SWEEPS + 1):
            if solves:
                r[:, finished] = 0.0  # x holds no -0.0, so adding 0.0 keeps a done column
                x += r
                for cols, piece in zip(chunks, pieces):
                    if not finished[cols].all():
                        self._residual(piece, x[:, cols], out=r[:, cols])
            top = np.maximum(r.max(axis=0), -r.min(axis=0))
            if not np.isfinite(top).all():
                return None
            largest = np.maximum(x.max(axis=0), -x.min(axis=0))
            reached[(reached < 0) & (top <= 2.0**-52 * largest)] = solves
            now = ~finished & (reached >= 0) & (solves - reached >= extra)
            bound = norm * (top + self._rounding * (self._norm * largest + peaks))
            certified[now] = np.divide(bound, largest, out=np.zeros(count), where=largest > 0)[now]
            residuals[now] = top[now]
            finished |= now
            if solves and finished.all():
                scale = max(1.0, float(np.max(np.abs(b.data), initial=0.0)))
                self.refinement = (solves - 1, float(residuals.max()) / scale,
                                   float(certified.max()))
                return x
        return None

    def _residual(self, b: sparse.coo_matrix, x: np.ndarray, *, out: np.ndarray) -> None:
        """``b - A x`` into ``out`` for one chunk of at most ``_PRODUCT_COLUMNS`` columns.

        It is formed as ``(-A x) + b``, with ``b`` added at its stored
        entries only.  The chunk is narrow since a Fortran-order panel has
        no C-order view for the sparse product to use; each column's sum
        runs in the same order whatever the chunk width.
        """
        np.negative(self._a @ x, out=out)
        out[b.row, b.col] += b.data

    def solve_block(self, rhs: sparse.spmatrix) -> _SolvedColumns:
        """Solve for every column of a sparse ``rhs`` at once; the result stays in pieces.

        Structurally zero columns stay zero without a solve.  The others go
        through :meth:`solve` in dense column panels of at most
        ``_PANEL_ENTRIES`` entries, or on a dense factor of up to
        ``m // _DENSE_PANEL_DIVISOR`` columns if that is more, and each
        solved panel is kept as it comes (see :class:`_SolvedColumns`).  So
        while the factor is alive memory holds the factor, at most 12 bytes
        per nonzero solved so far, and one panel with its float32 buffer,
        half a panel; on a dense factor those two take at most three
        quarters of the factor's bytes.  The
        caller drops the solver before :meth:`_SolvedColumns.join` copies
        the pieces into one sparse matrix.  Each call logs one INFO line
        with the panels, the route and the refinement it took.
        """
        rhs = sparse.csc_matrix(rhs, copy=True)
        rhs.sum_duplicates()  # so a panel's residual adds each entry of b once
        rhs.eliminate_zeros()
        m = rhs.shape[0]
        nonzero = np.flatnonzero(np.diff(rhs.indptr))
        width = max(1, _PANEL_ENTRIES // m)
        if self._dense and self._base is not None:
            width = max(width, m // _DENSE_PANEL_DIVISOR)
        solved = _SolvedColumns(rhs.shape)
        steps, residual, certified = [], 0.0, None
        for start in range(0, nonzero.size, width):
            panel = nonzero[start:start + width]
            solved.add(panel, self.solve(rhs[:, panel]))
            steps.append(self.refinement[0])
            residual = max(residual, self.refinement[1])
            if self.refinement[2] is not None:
                certified = max(certified or 0.0, self.refinement[2])
        log.info(
            "%s solve: m=%d, %d columns in %d panels of at most %d, %s route, "
            "refinement steps per panel %s, largest final relative residual %.1e%s",
            self._what, m, nonzero.size, len(steps), min(width, nonzero.size), self.route,
            steps, residual, _certified_text(certified),
        )
        return solved


def _sweep_certificate(m_block) -> tuple[float, int] | None:
    """``||y||_inf`` for ``y = (I - |M|)^-1 1``, bounded from above, and the sweeps it asks for.

    The bound comes from :func:`_adjoint_bound` on ``|M|^T``.  Its ``y``
    satisfies ``|M| y <= y - 1 <= lam y`` with ``lam = 1 - 1/||y||_inf``,
    so ``|M|`` contracts the error by ``lam`` per sweep in the max norm
    weighted by ``y``: ``K`` sweeps from 0 leave at most ``||y||_inf lam^K
    max|x*|``, and ``E`` sweeps with ``lam^E <= 1/||y||_inf`` take an
    error of ``||y||_inf r`` down to ``r``.  Returns ``(||y||_inf, E)``, or
    None, so that the block is factored, when no bound is certified or
    when more than ``_MAX_SWEEPS`` sweeps are needed to reach ``2^-52
    max|x*|``.  The choice depends on ``M`` alone.
    """
    if not m_block.nnz:  # M = 0: one sweep is exact
        return 1.0, 0
    y, _, _ = _adjoint_bound(abs(m_block).T)
    if y is None:
        return None
    norm = float(y.max())
    rate = -np.log(1.0 - 1.0 / norm)
    if (52 * np.log(2.0) + np.log(norm)) / rate > _MAX_SWEEPS:
        return None
    return norm, int(np.ceil(np.log(norm) / rate))


def _certified_text(certified: float | None) -> str:
    """The INFO lines' note of a sweep solve's certified relative error."""
    return "" if certified is None else f", certified relative error {certified:.1e}"


def _singular(what: str) -> InternalInconsistencyError:
    return InternalInconsistencyError(
        f"(I - {what}) is singular; the convergence classification "
        "says this cannot happen, so the classification is buggy"
    )


class _SolvedColumns:
    """The solved panels of a block solve, one piece per panel, not yet joined.

    A panel of which at least two thirds is nonzero is kept as it is, 8
    bytes an entry; a sparser one as its nonzeros' values and int32 rows,
    12 bytes a nonzero.  Either way a piece takes at most 12 bytes per
    nonzero.
    """

    def __init__(self, shape: tuple[int, int]):
        self.shape = shape
        self.counts = np.zeros(shape[1] + 1, np.int64)
        self.pieces: list[np.ndarray | tuple[np.ndarray, np.ndarray]] = []

    def add(self, columns: np.ndarray, x: np.ndarray) -> None:
        """Keep the solved panel ``x`` of ``columns``."""
        counts = np.count_nonzero(x, axis=0)
        self.counts[columns + 1] = counts
        self.pieces.append(x if 3 * int(counts.sum()) >= 2 * x.size else _column_nonzeros(x))

    def join(self) -> sparse.csc_matrix:
        """The pieces as one CSC matrix; each piece is freed once copied.

        A dense piece gives up its nonzeros ``_PRODUCT_COLUMNS`` columns at
        a time, so no copy of a whole panel's nonzeros is made.
        """
        indptr = np.cumsum(self.counts)
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], np.int32)
        start = 0
        self.pieces.reverse()
        while self.pieces:
            piece = self.pieces.pop()
            if isinstance(piece, tuple):
                parts = [piece]
            else:
                parts = (_column_nonzeros(piece[:, cols:cols + _PRODUCT_COLUMNS])
                         for cols in range(0, piece.shape[1], _PRODUCT_COLUMNS))
            for rows, values in parts:
                stop = start + rows.size
                indices[start:stop] = rows
                data[start:stop] = values
                start = stop
        return sparse.csc_matrix((data, indices, indptr), shape=self.shape)


def _column_nonzeros(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and values of a dense panel's nonzeros.

    Column-major, as CSC stores them.  A boolean mask picks them, so no
    COO coordinate arrays are made.
    """
    kept = x.T != 0.0
    rows = np.broadcast_to(np.arange(x.shape[0], dtype=np.int32), kept.shape)
    return rows[kept], x.T[kept]


def _dense_factor(a: sparse.csr_matrix, dtype):
    """Dense LU of ``a`` in precision ``dtype``, factored in place; returns its solve function.

    The sparse ``a`` is cast to ``dtype`` before its one Fortran-order
    ``toarray``, so a single-precision factor never has a double m x m
    array beside it.  A zero pivot or a non-finite factor raises
    ``LinAlgError``.  The solve function takes a Fortran-order ``b`` of the
    same precision and overwrites it, as SuperLU's never does.
    """
    with warnings.catch_warnings():
        # lu_factor only warns on exact singularity; the zero pivot is
        # caught explicitly below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(
            a.astype(dtype, copy=False).toarray(order="F"), overwrite_a=True,
            check_finite=False,
        )
    # the sum is non-finite whenever an entry is, and needs no m x m mask;
    # a single sum that overflows only sends the block to a double factor
    if np.any(np.diag(lu) == 0.0) or not np.isfinite(lu.sum()):
        raise LinAlgError("exactly singular")
    return lambda b: lu_solve((lu, piv), b, overwrite_b=True, check_finite=False)


def _stationary_rows(blocks: np.ndarray, sink_indices) -> np.ndarray:
    """Stationary distributions of a stack of irreducible row-stochastic matrices.

    GTH elimination (Grassmann, Taksar & Heyman, Oper. Res. 1985) censors
    nodes ``s-1, ..., 1`` out of a copy of the stack.  Each pivot is the sum
    of the censored node's entries towards the nodes left, never ``1 - p``,
    so no step subtracts and every entry of ``pi`` keeps a small relative
    error however slowly the block mixes.  Every step is elementwise or a
    row sum, so a block gets the bits it would get in a stack of one.  A
    zero pivot means the block is reducible and raises :func:`_singular`,
    naming the block's entry of ``sink_indices``.
    """
    a = np.array(blocks)
    count, size = a.shape[:2]
    for n in range(size - 1, 0, -1):
        pivot = a[:, n, :n].sum(axis=1)
        if not pivot.all():
            k = sink_indices[int(np.flatnonzero(pivot == 0.0)[0])]
            raise _singular(f"|sink block {k}| without its first node")
        a[:, :n, n] /= pivot[:, None]
        a[:, :n, :n] += a[:, :n, n, None] * a[:, None, n, :n]
    pi = np.ones((count, size))
    for n in range(1, size):
        pi[:, n] = (pi[:, :n] * a[:, :n, n]).sum(axis=1)
    pi /= pi.sum(axis=1, keepdims=True)
    return pi


# ---------------------------------------------------------------------------
# Spectral regime
# ---------------------------------------------------------------------------

def _abs_power_radius(m) -> tuple[float, int, bool]:
    """An upper bound on the spectral radius of a nonnegative CSR matrix, by power iteration.

    Normalized power iteration stops once its estimate and vector settle,
    or after ``_POWER_STEPS`` steps.  The bound is the Collatz-Wielandt
    maximum ``max_i (m v)_i / v_i`` on the last iterate ``v`` (Varga,
    *Matrix Iterative Analysis*, 2000), raised by the rounding of the
    product, ``(d + 2) 2^-53`` with ``d`` the most entries in a row; should
    an entry of ``v`` be zero, it is the largest row sum.  Returns the
    bound, the steps taken and whether the iterate settled.
    """
    size = m.shape[0]
    v = np.full(size, 1.0 / np.sqrt(size))
    estimate = 0.0
    for steps in range(1, _POWER_STEPS + 1):
        w = m @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0, steps, True
        w = w / norm
        settled = abs(norm - estimate) <= 1e-12 * max(1.0, norm) and bool(
            np.max(np.abs(w - v)) <= 1e-10
        )
        estimate, v = norm, w
        if settled:
            break
    if v.min() > 0.0:
        bound = float(np.max((m @ v) / v))
    else:
        bound = float(np.max(m.sum(axis=1)))
    bound *= 1.0 + (int(np.diff(m.indptr).max()) + 2) * 2.0**-53
    return bound, steps, settled


def _block_radii(block: sparse.csr_matrix, what: str) -> tuple[float, float, bool]:
    """Spectral radii of a signed CSR block and of ``|block|``, and whether they are bounds.

    Up to ``_STACK_NODES`` nodes both come from dense eigenvalues.  Above,
    :func:`_abs_power_radius` bounds the Perron root of ``|block|`` from
    above, which also bounds the signed radius (``|lambda| <= rho(|B|)``);
    both are reported as that bound, flagged approximate, and one INFO
    line names the block ``what``.  A stubborn-free sink's radii are fixed
    by its structure and never come here (see :meth:`_SinkBatch._pass`).
    """
    size = block.shape[0]
    if size <= _STACK_NODES:
        dense = block.toarray()
        signed = float(np.max(np.abs(np.linalg.eigvals(dense)), initial=0.0))
        absolute = float(np.max(np.abs(np.linalg.eigvals(np.abs(dense))), initial=0.0))
        return signed, absolute, False
    bound, steps, settled = _abs_power_radius(abs(block))
    log.info("%s radius: m=%d, %d power steps, %s, Collatz-Wielandt bound %r",
             what, size, steps, "settled" if settled else "not settled", bound)
    return bound, bound, True


def spectral_check(
    system: UpdateSystem,
    classification: AgentClassification,
    *,
    _batch: _SinkBatch | None = None,
) -> SpectralReport:
    """Decide the regime structurally and attach numerical radius estimates.

    Semi-convergent iff some balanced sink has no stubborn member;
    otherwise all block radii sit strictly below one and powers of the
    update matrix vanish.  The sink radii come from one :class:`_SinkBatch`
    pass over every sink (the analysis's own, when it hands one in): a
    stubborn-free sink's are fixed by its structure, sinks of up to
    ``_STACK_NODES`` nodes are stacked densely by size, with at most one
    ``np.linalg.eigvals`` on ``B`` and one on ``|B|`` per stack, and larger
    stubborn sinks get a power bound one by one from :func:`_block_radii`,
    as does a follower block of more than ``_STACK_NODES`` nodes.
    """
    regime = Regime.SEMI_CONVERGENT if classification.s_ns else Regime.CONVERGENT
    batch = _batch if _batch is not None else _SinkBatch(system, classification.sinks)
    sink_radii, sink_radii_abs, approximate = batch.radii
    radius = max(sink_radii, default=0.0)
    radius_abs = max(sink_radii_abs, default=0.0)
    if regime is Regime.CONVERGENT:
        # a free balanced sink has radius 1 and the follower block's
        # radii are strictly below 1, so only here can they be the maximum
        r11, r11_abs, approx = _block_radii(system.follower_block(), "follower block")
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

class _SinkBatch:
    """The sink blocks of one analysis, solved together in dense stacks.

    Every sink block of up to ``_STACK_NODES`` nodes goes into a stack of
    equal-size dense blocks of at most ``_PANEL_ENTRIES`` entries, filled
    from one slice of the update matrix (see :meth:`_stacks`).  The structure
    fixes some radii exactly at every size: a stubborn-free sink's ``|B|``
    is row stochastic, so its radius is 1, and a balanced one's ``B`` is
    similar to ``|B|``, so its radius is 1 too.  Per stack, one
    ``np.linalg.eigvals`` on the blocks of ``B`` and one on those of
    ``|B|`` whose radius is left open give the others, and every
    stubborn-free balanced sink in it gets its eigenpair from one stacked
    GTH elimination (see :func:`_stationary_rows`).  Each block gets the
    bits it would get in a stack of its own.  Larger sinks, resolvent
    sinks and zero sinks take the per-sink route of
    :func:`_solve_single_sink`; a larger stubborn sink's radii are the
    power bound of :func:`_block_radii`, and a larger unbalanced
    stubborn-free sink's signed radius is reported as its bound 1, flagged
    approximate.

    ``sinks`` have consecutive sink indices: all of ``classification.sinks``,
    or one sink.  Every batch runs the same pass, radii included.
    """

    def __init__(self, system: UpdateSystem, sinks: tuple[SinkInfo, ...]):
        self.system = system
        self.sinks = tuple(sinks)

    @property
    def radii(self) -> tuple[list[float], list[float], bool]:
        """Per-sink radii of ``B`` and of ``|B|``, and whether any is approximate."""
        return self._pass[:3]

    def solution(self, sink: SinkInfo) -> SinkSolution:
        stacked = self._pass[3].get(sink.sink_index)
        return stacked if stacked is not None else _solve_single_sink(self.system, sink)

    @cached_property
    def _pass(self) -> tuple[list[float], list[float], bool, dict[int, SinkSolution]]:
        system, sinks = self.system, self.sinks
        count = len(sinks)
        first = sinks[0].sink_index if sinks else 0
        offsets = np.asarray(system.ordering.sink_offsets[first:first + count], np.int64)
        sizes = np.asarray(system.ordering.sink_sizes[first:first + count], np.int64)
        balanced = np.array([s.in_s_ns for s in sinks], dtype=bool)
        # a stubborn-free sink's |B| is row stochastic, so its radius is 1,
        # and so is B's on a balanced one, which is similar to |B|
        stochastic = ~np.array([s.contains_stubborn for s in sinks], dtype=bool)
        stacked = sizes <= _STACK_NODES
        free = balanced & stacked
        radii = np.where(stochastic, 1.0, 0.0)
        radii_abs = radii.copy()
        solutions: dict[int, SinkSolution] = {}
        # larger blocks get a power bound; 1 bounds an unbalanced sink's signed radius
        approximate = bool(np.any(~stacked & ~(stochastic & balanced)))
        for k in np.flatnonzero(~stacked & ~stochastic):
            sink = first + int(k)
            block = system.sink_block(sink)
            radii[k], radii_abs[k], _ = _block_radii(block, f"sink block {sink}")
        for panel, blocks in self._stacks(offsets, sizes, stacked):
            gauged = np.abs(blocks)
            signed = ~balanced[panel]  # radii that the structure leaves open
            if signed.any():
                radii[panel[signed]] = np.abs(np.linalg.eigvals(blocks[signed])).max(axis=1)
            leaky = ~stochastic[panel]
            if leaky.any():
                radii_abs[panel[leaky]] = np.abs(np.linalg.eigvals(gauged[leaky])).max(axis=1)
            pick = free[panel]
            if pick.any():
                eigenpairs = self._eigenpairs(panel[pick], blocks[pick], gauged[pick])
                solutions.update((s.sink_index, s) for s in eigenpairs)
        return radii.tolist(), radii_abs.tolist(), approximate, solutions

    def _stacks(self, offsets: np.ndarray, sizes: np.ndarray, chosen: np.ndarray):
        """Yield ``(positions, dense blocks)`` for the chosen sinks, grouped by size.

        Each stack is filled from one slice of the update matrix: its own
        nodes' rows cut to its own nodes' columns.  No edge leaves a sink
        (:func:`build_update_system` checks this), so the slice is block
        diagonal, and its entry ``(r, c)`` is entry ``(r % size, c % size)``
        of the stack's block ``r // size``.
        """
        if not chosen.any():
            return
        p = self.system.update_matrix
        order = np.flatnonzero(chosen)
        order = order[np.argsort(sizes[order], kind="stable")]
        for group in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
            size = int(sizes[group[0]])
            per_stack = max(1, _PANEL_ENTRIES // size ** 2)
            for start in range(0, group.size, per_stack):
                stack = group[start:start + per_stack]
                nodes = (offsets[stack, None] + np.arange(size)).ravel()
                entries = p[nodes][:, nodes].tocoo()
                blocks = np.zeros((stack.size, size, size))
                blocks[entries.row // size, entries.row % size, entries.col % size] = entries.data
                yield stack, blocks

    def _eigenpairs(
        self, positions: np.ndarray, blocks: np.ndarray, gauged: np.ndarray
    ) -> list[SinkSolution]:
        """Eigenpairs at 1 of a stack of stubborn-free balanced sinks; ``gauged`` is ``|B|``."""
        sinks = [self.sinks[k] for k in positions]
        sigma = np.array([s.bipartition for s in sinks], dtype=np.float64)
        _check_gauge(
            (sigma[:, :, None] * blocks * sigma[:, None, :]).min(axis=(1, 2)),
            gauged.sum(axis=2),
            sinks,
        )
        pi = _stationary_rows(gauged, [s.sink_index for s in sinks])
        v, w = sigma, _left_vectors(sigma, pi)
        _check_eigenpairs(
            np.matmul(blocks, v[:, :, None])[:, :, 0],
            np.matmul(w[:, None, :], blocks)[:, 0],
            v,
            w,
            sinks,
        )
        return [
            SinkSolution(
                sink_index=s.sink_index,
                members=s.members,
                kind=SolutionKind.EIGENPAIR,
                right_vec=right,
                left_vec=left,
            )
            for s, right, left in zip(sinks, v, w)
        ]


def solve_sink(
    system: UpdateSystem, sink: SinkInfo, *, _batch: _SinkBatch | None = None
) -> SinkSolution:
    """Compute the limit operator of one sink block.

    Balanced stubborn-free sinks get the eigenvector pair at eigenvalue 1.
    Rather than a generic nonsymmetric eigensolve, the block is gauged by
    its bipartition signs: on a balanced sink ``diag(sigma) B diag(sigma)``
    is exactly ``|B|``, an irreducible row-stochastic matrix, whose
    stationary distribution is the left eigenvector up to the same sign
    flips.  The right eigenvector is the bipartition itself, so the sign
    convention (+1 on the sink's smallest member) comes for free and the
    normalization is exact.  The stationary distribution comes from a
    direct elimination at every size: GTH on the dense stacks of up to
    ``_STACK_NODES`` nodes (see :func:`_stationary_rows`), one resolvent
    solve of the reduced system above (see :func:`_solve_single_sink`).

    Given the analysis's ``_batch``, the answer is looked up from its
    stacked pass; without one, the same pass runs on a batch of this sink
    alone, so a sink's limit does not depend on how it was asked for.  That
    pass also computes the sink's radii, which are then discarded.
    """
    batch = _batch if _batch is not None else _SinkBatch(system, (sink,))
    return batch.solution(sink)


def _solve_single_sink(system: UpdateSystem, sink: SinkInfo) -> SinkSolution:
    """The limit of a sink outside the stacks: zero, a resolvent, or a large eigenpair.

    A free balanced sink of more than ``_STACK_NODES`` nodes takes its
    stationary vector from the reduced system (Stewart, *Introduction to
    the Numerical Solution of Markov Chains*, 1994, ch. 2): with ``j`` its
    last node and ``pi_j = 1``, ``pi_{-j} (I - |B|_{-j}) = |B|_{j,-j}``,
    solved as a one-column panel by :meth:`_ResolventSolver.solve_block`,
    which logs its INFO line.  ``|B|_{-j}`` is strictly substochastic on an
    irreducible block, so the system is nonsingular.
    """
    members = sink.members
    if not sink.in_s_ns and not sink.contains_stubborn:
        # unbalanced and stubborn-free: everything inside decays to zero
        return SinkSolution(
            sink_index=sink.sink_index, members=members, kind=SolutionKind.ZERO
        )
    block = system.sink_block(sink.sink_index)
    if sink.contains_stubborn:
        beta_block = system.stubbornness[list(members)]
        what = f"sink block {sink.sink_index}"
        if len(members) == 1:
            # beta_i / (I - M)_ii, with (I - M)_ii the 1 - m_ii the solver forms
            pivot = 1.0 - float(block.sum())
            if pivot == 0.0:
                raise _singular(what)
            solved = _SolvedColumns((1, 1))
            solved.add(np.zeros(1, np.int64), np.array([[beta_block[0] / pivot]]))
        else:
            # the solver is dropped as solve_block returns, before the join
            solved = _ResolventSolver(block, what=what).solve_block(sparse.diags(beta_block))
        return SinkSolution(
            sink_index=sink.sink_index,
            members=members,
            kind=SolutionKind.RESOLVENT,
            operator=solved.join(),
        )

    # a free balanced sink of more than _STACK_NODES nodes, kept sparse
    sigma = np.asarray(sink.bipartition, dtype=np.float64)
    gauged = abs(block)
    rows = np.repeat(np.arange(len(members)), np.diff(block.indptr))
    _check_gauge(
        np.array([(block.data * sigma[rows] * sigma[block.indices]).min()]),
        np.asarray(gauged.sum(axis=1)).T,
        [sink],
    )
    what = f"|sink block {sink.sink_index}| without its last node"
    reduced = _ResolventSolver(gauged[:-1, :-1].T, what=what).solve_block(gauged[-1, :-1].T)
    pi = np.append(reduced.join().toarray()[:, 0], 1.0)
    pi /= pi.sum()
    v = sigma[None]
    w = _left_vectors(v, pi[None])
    _check_eigenpairs((block @ v[0])[None], (w[0] @ block)[None], v, w, [sink])
    return SinkSolution(
        sink_index=sink.sink_index,
        members=members,
        kind=SolutionKind.EIGENPAIR,
        right_vec=v[0],
        left_vec=w[0],
    )


def _left_vectors(sigma: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Left eigenvectors at 1 from ``|B|``'s stationary rows, normalized against ``sigma``."""
    w = sigma * pi
    w /= np.matmul(w[:, None, :], sigma[:, :, None])[:, 0]
    return w


def _check_gauge(lowest: np.ndarray, row_sums: np.ndarray, sinks) -> None:
    """Per sink: the least gauged entry and the row sums of ``|B|``."""
    bad = (lowest < -1e-12) | (np.abs(row_sums - 1.0).max(axis=1) > 1e-9)
    if bad.any():
        raise InternalInconsistencyError(
            f"gauged sink {sinks[int(np.argmax(bad))].sink_index} is not row stochastic; "
            "the bipartition disagrees with the edge signs"
        )


def _check_eigenpairs(bv: np.ndarray, wb: np.ndarray, v: np.ndarray, w: np.ndarray, sinks):
    """Verify stacked eigenpairs at 1, given ``B v`` and ``w B`` for each sink."""
    right_err = np.abs(bv - v).max(axis=1)
    left_err = np.abs(wb - w).max(axis=1)
    norm_err = np.abs(np.matmul(w[:, None, :], v[:, :, None])[:, 0, 0] - 1.0)
    failed = (right_err > 1e-10) | (left_err > 1e-10) | (norm_err > 1e-10)
    zero = (w == 0.0).any(axis=1)
    for k in np.flatnonzero(failed | zero)[:1]:
        if failed[k]:
            raise InternalInconsistencyError(
                f"eigenvector pair of sink {sinks[k].sink_index} failed verification "
                f"(right {right_err[k]:.2e}, left {left_err[k]:.2e}, "
                f"normalization {norm_err[k]:.2e})"
            )
        raise InternalInconsistencyError(
            f"left eigenvector of sink {sinks[k].sink_index} has a zero entry"
        )


# ---------------------------------------------------------------------------
# Followers and the full steady state
# ---------------------------------------------------------------------------

def _follower_solver(system: UpdateSystem, *, sweep: bool = False) -> _ResolventSolver | None:
    if system.ordering.follower_count == 0:
        return None
    return _ResolventSolver(system.follower_block(), what="follower block", sweep=sweep)


def _eigenpair_stacks(system: UpdateSystem, sink_solutions):
    """Yield ``(canonical slots, right vectors, left vectors)`` per size of eigenpair sink.

    ``slots[k]`` lists the canonical positions of the k-th sink of that size.
    """
    groups: dict[int, list[SinkSolution]] = {}
    for s in sink_solutions:
        if s.kind is SolutionKind.EIGENPAIR:
            groups.setdefault(s.size, []).append(s)
    offsets = system.ordering.sink_offsets
    for size, group in groups.items():
        first = np.array([offsets[s.sink_index] for s in group], dtype=np.int64)
        yield (
            first[:, None] + np.arange(size),
            np.stack([s.right_vec for s in group]),
            np.stack([s.left_vec for s in group]),
        )


def _sink_limits(system: UpdateSystem, sink_solutions, x0: np.ndarray) -> np.ndarray:
    """Every sink's limit in canonical order; zero on the followers.

    Eigenpair sinks of one size are applied together, one stacked dot per
    sink, with the bits of :meth:`SinkSolution.apply`.
    """
    x = np.zeros(system.n)
    x0_canonical = x0[system.ordering.permutation]
    for slots, right, left in _eigenpair_stacks(system, sink_solutions):
        x[slots] = right * np.matmul(left[:, None, :], x0_canonical[slots][:, :, None])[:, 0]
    for s in sink_solutions:
        if s.kind is SolutionKind.RESOLVENT:
            sl = system.ordering.sink_slice(s.sink_index)
            x[sl] = s.operator @ x0_canonical[sl]
    return x


def _sink_rows(
    system: UpdateSystem, sink_solutions, listed: np.ndarray | None = None, *,
    rank_one: bool = False,
) -> sparse.csr_matrix:
    """``Theta_L``: the sinks' limit operators on the diagonal, zero follower rows.

    Eigenpair blocks ``v w^T`` of one size are formed together, and zero
    entries are not stored.  Given a canonical mask ``listed``, only its
    columns are kept.  With ``rank_one``, each eigenpair block is kept as
    its one column ``v``, in its first member's column, if any member is
    listed: ``P_FL`` times it is the sink's one follower right-hand side.
    A singleton's ``v`` is its block, ``1 * 1``.
    """
    rows, cols, values = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for slots, right, left in _eigenpair_stacks(system, sink_solutions):
        if rank_one:
            block, columns = right[:, :, None], slots[:, :1]
        else:
            block, columns = right[:, :, None] * left[:, None, :], slots
        kept = block != 0.0
        if listed is not None:
            chosen = listed[slots].any(axis=1, keepdims=True) if rank_one else listed[columns]
            kept &= chosen[:, None, :]
        rows.append(np.broadcast_to(slots[:, :, None], block.shape)[kept])
        cols.append(np.broadcast_to(columns[:, None, :], block.shape)[kept])
        values.append(block[kept])
    for s in sink_solutions:
        if s.kind is SolutionKind.RESOLVENT:
            block = s.operator.tocoo()
            offset = system.ordering.sink_offsets[s.sink_index]
            kept = slice(None) if listed is None else listed[block.col + offset]
            rows.append(block.row[kept] + offset)
            cols.append(block.col[kept] + offset)
            values.append(block.data[kept])
    return sparse.csr_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(system.n, system.n),
    )


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

    The right-hand side goes to :meth:`_ResolventSolver.solve_block` as a
    one-column panel, which logs its INFO line, and the joined column is
    read back.  Returns the follower values in ascending original-index order.
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
    return solver.solve_block(sparse.csc_matrix(rhs[:, None])).join().toarray()[:, 0]


def influence_matrix(
    system: UpdateSystem,
    classification: AgentClassification,
    sink_solutions: tuple[SinkSolution, ...],
    *,
    columns=None,
    _solver: _ResolventSolver | None = None,
) -> sparse.csr_matrix:
    """Assemble the linear map from initial to final opinions.

    In canonical order the map is block triangular.  Its sink rows are the
    block diagonal ``Theta_L`` of the sinks' limit operators (eigenpair
    blocks formed a stack per sink size, see :func:`_sink_rows`), and its
    follower rows are one solve against the follower block:

        Theta_F = (I - P_FF)^{-1} [diag(beta_F) | P_FL Theta_L]

    Given ``columns`` (original node indices), only those columns are
    solved and assembled, and every other column is zero.  All right-hand
    sides are solved together, and only the nonzero ones: stubborn
    followers, stubborn sink members, and one per balanced stubborn-free
    sink.  Such a sink's columns are rank one, ``v w^T`` in its own rows,
    so its follower rows are ``z w^T`` with ``z = (I - P_FF)^{-1} P_FL v``
    from one solve (see :func:`_spread_rank_one`).  All other columns are
    structurally zero.
    A follower block within the dense budget is factored in float32 and
    each column refined in float64 (see :class:`_ResolventSolver`), so an
    entry below about 2^-149 times its column's largest may come out as
    zero; a nonzero column stays nonzero.  The solve keeps each solved
    panel as a separate piece, the panel itself when mostly nonzero and
    its nonzeros otherwise (see :meth:`_ResolventSolver.solve_block`), and
    the follower factorization is dropped before the pieces are joined:
    while the factor is alive, memory holds only the factor, at most 12
    bytes per follower nonzero solved so far, and one panel with its
    float32 buffer, at most three quarters of a dense factor.  So unless
    the caller keeps a ``_solver`` it hands in, the factor is freed before
    Theta's follower rows are copied into one matrix and Theta is
    assembled.  When no balanced stubborn-free sink exists and the graph is
    small, the assembly is cross-checked against the direct resolvent of
    the whole matrix.
    """
    ordering = system.ordering
    n = ordering.n
    m = ordering.follower_count
    listed = None
    if columns is not None:
        listed = np.zeros(n, dtype=bool)
        listed[ordering.inverse[np.asarray(columns, dtype=np.int64)]] = True
    # Theta_L in the sink rows; the follower rows are zero until solved
    canonical = _sink_rows(system, sink_solutions, listed)
    if m:
        solver = _solver if _solver is not None else _follower_solver(system)
        beta = system.stubbornness_canonical[:m]
        if listed is not None:
            beta = beta * listed[:m]
        rhs = sparse.diags(beta, shape=(m, n)) + (
            system.update_matrix[:m] @ _sink_rows(system, sink_solutions, listed, rank_one=True)
        )
        solved = solver.solve_block(rhs)
        del solver, _solver, rhs  # frees the factor before the solved pieces are joined
        follower_rows = _spread_rank_one(solved.join(), system, sink_solutions, listed).tocsr()
        canonical = sparse.vstack([follower_rows, canonical[m:]], format="csr")
        del follower_rows
    # original order: permute the rows, then renumber the columns
    theta = canonical[ordering.inverse]
    del canonical
    theta.indices = ordering.permutation.astype(theta.indices.dtype)[theta.indices]
    theta.sort_indices()

    if not classification.s_ns and n <= DIRECT_CHECK_CUTOFF:
        _check_against_direct_resolvent(system, theta, listed)

    return theta


def _spread_rank_one(
    solved: sparse.csc_matrix, system: UpdateSystem, sink_solutions, listed: np.ndarray | None
) -> sparse.csc_matrix:
    """``Theta_F`` from the solved follower columns, of which each free sink has one.

    A balanced stubborn-free sink's ``z`` was solved in its first member's
    column; each listed member ``j`` gets ``z w_j``.  Without a free sink
    of more than one member the solved columns are ``Theta_F`` as they
    are, since a singleton's ``w`` is 1, and are returned unchanged.
    """
    n = system.n
    source, scale = np.arange(n), np.ones(n)
    spread = False
    for slots, _, left in _eigenpair_stacks(system, sink_solutions):
        if slots.shape[1] > 1:
            source[slots] = slots[:, :1]
            scale[slots] = left
            spread = True
    if not spread:
        return solved
    if listed is not None:
        scale[~listed] = 0.0  # dropped with the zeros below
    spread_rows = solved[:, source]
    spread_rows.data *= np.repeat(scale, np.diff(spread_rows.indptr))
    spread_rows.eliminate_zeros()
    return spread_rows


def _check_against_direct_resolvent(
    system: UpdateSystem, theta: sparse.csr_matrix, listed: np.ndarray | None = None
) -> None:
    """Cross-check the blockwise assembly against ``(I - P)^{-1} beta``, in the listed columns."""
    n = system.n
    dense = np.eye(n) - system.update_matrix.toarray()
    expected = np.linalg.solve(dense, np.diag(system.stubbornness_canonical))
    if listed is not None:
        expected[:, ~listed] = 0.0
    perm = system.ordering.permutation
    assembled = theta.toarray()[np.ix_(perm, perm)]
    err = float(np.max(np.abs(assembled - expected)))
    if err > 1e-9:
        raise InternalInconsistencyError(
            f"blockwise influence assembly deviates from the direct resolvent by {err:.2e}"
        )


def _adjoint_bound(b: sparse.csr_matrix) -> tuple[np.ndarray | None, int, float]:
    """A certified upper bound on ``h = (I - b)^-T 1`` for a nonnegative ``b`` of radius below 1.

    Monotone sweeps ``h <- 1 + b^T h`` from 0 rise towards ``h``.  With
    ``r`` the step from ``h_K`` to ``h_{K+1}``, ``x = h_K / (1 - ||r||_inf)``
    satisfies ``x >= 1 + b^T x`` whenever ``||r||_inf < 1``, and since
    ``(I - b^T)^-1 >= 0`` that makes ``x >= h`` (Varga, *Matrix Iterative
    Analysis*, 2000, ch. 3).  The step is taken as computed plus the
    rounding of one sweep, ``(d + 3) 2^-53 max h_{K+1}`` with ``d`` the most
    entries in a column of ``b``, so the certificate holds for the exact
    sweep of the computed ``h_K``.  Sweeps stop once that step is at most
    ``_SWEEP_TOL``, or after ``_MAX_SWEEPS``.  Returns the bound (None when
    the last step is not below 1), the sweeps made and the last step.
    """
    if b.shape[0] == 0:
        return np.zeros(0), 0, 0.0
    bt = sparse.csr_matrix(b.T)
    rounding = (int(np.diff(bt.indptr).max()) + 3) * 2.0**-53
    h, sweeps = np.ones(b.shape[0]), 1  # the first sweep from 0
    while True:
        after = bt @ h
        after += 1.0
        sweeps += 1
        step = float((after - h).max()) + rounding * float(after.max())
        if step <= _SWEEP_TOL or sweeps >= _MAX_SWEEPS:
            break
        h = after
    if not step < 1.0:
        return None, sweeps, step
    return h / (1.0 - step), sweeps, step


@dataclass(frozen=True, eq=False)
class _CentralityBounds:
    """Theta's nonzero columns in units, with a bound on each unit's centrality.

    ``units[u]`` holds original column indices, in descending order of
    ``bounds``; ``sweeps`` and ``residual`` are :func:`_adjoint_bound`'s.
    """

    units: list[np.ndarray]
    bounds: np.ndarray
    sweeps: int
    residual: float


def _centrality_bounds(
    system: UpdateSystem, sink_solutions: tuple[SinkSolution, ...]
) -> _CentralityBounds:
    """Upper bounds on the absolute centrality of Theta's nonzero columns.

    A unit is a stubborn column (a stubborn follower, or a stubborn member
    of a stubborn sink), or the members of a balanced stubborn-free sink,
    whose columns take one solve together (see :func:`influence_matrix`).
    ``|(I - M)^-1| <= (I - |M|)^-1`` entrywise, so ``|Theta|`` is at most
    the influence matrix of the unsigned graph with the same ``beta``, and
    its column sums bound ``c``:

    * a stubborn column ``j``: ``beta_j h_j``, where ``h`` solves
      ``(I - |P_SS|)^T h = 1`` over ``S``, the followers and the stubborn
      sinks' members (so ``g = h_F`` is ``(I - |P_FF|)^-T 1``);
    * member ``j`` of a free balanced sink ``k``: ``|w_kj| (|J_k| + g^T
      |P_FL[:, J_k]| 1)``, as ``|v_k|`` is 1.

    ``h`` comes from :func:`_adjoint_bound`; the bound of a free sink is
    that of its largest member, and every bound is raised by
    ``_BOUND_MARGIN``.  Without a certificate every bound that needs ``h``
    is infinite.
    """
    ordering = system.ordering
    m = ordering.follower_count
    p = system.update_matrix
    beta = system.stubbornness_canonical
    positions = np.arange(ordering.n)
    leaky = np.concatenate([positions[:m]] + [
        positions[ordering.sink_slice(s.sink_index)]
        for s in sink_solutions if s.kind is SolutionKind.RESOLVENT
    ])
    h, sweeps, residual = _adjoint_bound(abs(p[leaky][:, leaky]))
    if h is None:
        h = np.full(leaky.size, np.inf)
    stubborn = beta[leaky] > 0.0
    units = list(leaky[stubborn][:, None])
    bounds = [beta[leaky[stubborn]] * h[stubborn]]
    into_sinks = abs(p[:m, m:]).T @ h[:m]
    for slots, _, left in _eigenpair_stacks(system, sink_solutions):
        units.extend(slots)
        reach = into_sinks[slots - m].sum(axis=1)
        bounds.append(np.abs(left).max(axis=1) * (slots.shape[1] + reach))
    bounds = np.concatenate(bounds) * (1.0 + _BOUND_MARGIN)
    units = [ordering.permutation[u] for u in units]
    order = np.lexsort(([u.min() for u in units], -bounds))
    return _CentralityBounds(
        units=[units[u] for u in order], bounds=bounds[order], sweeps=sweeps, residual=residual
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
    """Everything derivable from a validated ``(graph, beta)`` pair.

    ``influence`` is all of Theta, with its centrality and ranking;
    :meth:`top_centrality` gives the first k of that ranking from only the
    columns that could be among them.  ``_batch`` holds every sink block's
    stacked radii and eigenpairs, from one pass that
    :func:`analyze_network` runs for the spectral check; the sink solves
    look their answers up in it.
    """

    graph: SignedDigraph
    beta: np.ndarray
    sccs: SccPartition
    dag: CondensationDag
    classification: AgentClassification
    system: UpdateSystem
    spectral: SpectralReport
    _batch: _SinkBatch = field(repr=False)

    @cached_property
    def sink_solutions(self) -> tuple[SinkSolution, ...]:
        return tuple(
            solve_sink(self.system, sink, _batch=self._batch)
            for sink in self.classification.sinks
        )

    @cached_property
    def _solver(self) -> _ResolventSolver | None:
        """The follower block's solver for ``steady_state`` and ``top_centrality``.

        It sweeps, and factors the block only where sweeps cannot solve it
        (see :class:`_ResolventSolver`).  ``influence`` takes it out of the
        cache and keeps its factor if it made one, so the factor is freed
        before Theta is assembled; a ``steady_state`` after that makes a
        new solver.
        """
        return _follower_solver(self.system, sweep=True)

    def _take_factor(self) -> _ResolventSolver | None:
        """``_solver`` out of the cache, if it factored the block; no other reference stays."""
        solver = self.__dict__.pop("_solver", None)
        return None if solver is None or solver.route == "sweeps" else solver

    @cached_property
    def influence(self) -> InfluenceResult:
        """All of Theta, its centrality and ranking, always on a factor of the follower block."""
        theta = influence_matrix(
            self.system, self.classification, self.sink_solutions, _solver=self._take_factor(),
        )
        centrality, ranking = absolute_centrality(theta)
        return InfluenceResult(matrix=theta, centrality=centrality, ranking=ranking)

    def top_centrality(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The first ``k`` agents of ``influence.ranking`` and their centrality.

        Only candidate columns of Theta are solved, by a threshold loop
        (Fagin, Lotem & Naor, JCSS 2003) over the units of
        :func:`_centrality_bounds`: units are solved in descending order of
        their bounds, a panel at a time, by :func:`influence_matrix` on the
        follower solver that ``steady_state`` uses, and each panel's
        columns get their exact centrality from :func:`absolute_centrality`.
        The loop stops once the next bound is below the k-th largest exact
        centrality, so no unsolved column can enter or tie the top ``k``,
        and the stable ranking (descending centrality, then ascending
        index) is exact.  The first panel takes ``2k`` units, and the next
        every unit whose bound reaches the k-th value found, which ends
        the loop.  No panel takes one unit while another is left, since on
        a factor a column's last bits can depend on its panel mates; those
        bits may differ from ``influence``'s within the solver's accuracy.
        Without a certificate every unit is solved.  With ``k`` at least
        the number of units, every unit is needed, so the ranking is read
        from ``influence``.  Logs one INFO line.
        """
        bounds = _centrality_bounds(self.system, self.sink_solutions)
        units, count = bounds.units, len(bounds.units)
        if 0 < count <= k:
            full = self.influence
            log.info("top %d centrality: all %d units needed, read from the influence matrix",
                     k, count)
            return full.ranking[:k], full.centrality[full.ranking[:k]]
        centrality = np.zeros(self.graph.n)
        solved: list[np.ndarray] = []
        done = panels = 0
        while k > 0 and done < count:
            if sum(map(len, solved)) >= k:
                values = centrality[np.concatenate(solved)]
                kth = float(np.partition(values, values.size - k)[values.size - k])
                if bounds.bounds[done] < kth:
                    break
                width = int(np.count_nonzero(bounds.bounds[done:] >= kth))
            else:
                width = 2 * k
            width = max(width, 2)
            if count - (done + width) == 1:
                width += 1
            panel = np.concatenate(units[done:done + width])
            theta = influence_matrix(
                self.system, self.classification, self.sink_solutions, columns=panel,
                _solver=self._solver,
            )
            centrality[panel] = absolute_centrality(theta)[0][panel]
            solved.append(panel)
            done, panels = min(done + width, count), panels + 1
        log.info(
            "top %d centrality: %d units bounded after %d sweeps (certified step %.1e), "
            "%d candidate units (one right-hand side each) solved in %d panels",
            k, count, bounds.sweeps, bounds.residual, done, panels,
        )
        ranking = np.argsort(-centrality, kind="stable")[:k]
        return ranking, centrality[ranking]

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


def analyze_network(
    graph: SignedDigraph, beta, *,
    _topology: tuple[SccPartition, CondensationDag] | None = None,
) -> NetworkAnalysis:
    """Classify, order, and build the update system for validated inputs.

    ``_topology`` is the graph's SCC partition and condensation when the
    caller has them already (:class:`ValidationReport` carries both).
    """
    beta = np.asarray(beta, dtype=np.float64)
    if _topology is None:
        sccs = strongly_connected_components(graph)
        _topology = sccs, condense(graph, sccs)
    sccs, dag = _topology
    classification = classify_agents(graph, sccs, dag, beta)
    ordering = canonical_ordering(classification)
    system = build_update_system(graph, beta, ordering)
    batch = _SinkBatch(system, classification.sinks)
    return NetworkAnalysis(
        graph=graph,
        beta=beta,
        sccs=sccs,
        dag=dag,
        classification=classification,
        system=system,
        spectral=spectral_check(system, classification, _batch=batch),
        _batch=batch,
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
    Values are ``repr`` text from the vectorized formatter in ``_text``.  The
    chunks are formatted on every available CPU (see ``_ChunkFormatter``).
    """
    from . import _text  # deferred: only the CSV exports format floats

    csr = sparse.csr_matrix(theta)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    fields = _text.Fields(field + "," for field in _csv_fields(labels))
    signs = _text.Fields([",-1", ",1"])
    newline = _text.literal("\n")
    to_out, to_scatter = out is not None, scatter is not None
    if to_out:
        out.write("row_node,col_node,theta\n")
    if to_scatter:
        scatter.write("row_node,col_node,theta,sign\n")

    def format_chunk(start: int, stop: int) -> tuple[str, str]:
        rows = np.searchsorted(csr.indptr, np.arange(start, stop), side="right") - 1
        values = csr.data[start:stop]
        # one matrix of "row,", "col,", the value, the sign and the line end for
        # both files; the triplets leave the sign out
        sign = signs.cells((values > 0).view(np.int8))
        cells = _text.join_blocks(
            fields.cells(rows), fields.cells(csr.indices[start:stop]), _text.float_cells(values),
            sign, newline)
        scatter_text = _text.kept_text(cells) if to_scatter else ""
        cells[:, -1 - sign.shape[-1]:-1] = _text.GAP
        return (_text.kept_text(cells) if to_out else ""), scatter_text

    def write(texts: tuple[str, str]) -> None:
        if to_out:
            out.write(texts[0])
        if to_scatter:
            scatter.write(texts[1])

    with _ChunkFormatter(format_chunk, write) as formatter:
        for task in _csv_chunks(csr.nnz):
            formatter.submit(task)
        formatter.finish()
    formatter.log_written("Theta", ((out, csr.nnz), (scatter, csr.nnz)))


def influence_scatter_csv(theta: sparse.spmatrix, labels: tuple[str, ...], out: TextIO) -> None:
    """Write the triplets plus a +1/-1 sign column, ready for a colored scatter plot."""
    influence_triplets_csv(theta, labels, None, out)


def centrality_csv(
    centrality: np.ndarray, ranking: np.ndarray, labels: tuple[str, ...]
) -> str:
    """``rank,node,centrality`` rows in ranking order, with CSV-quoted labels."""
    from . import _text  # deferred: only the CSV exports format floats

    ranks = _text.Fields(f"{rank}," for rank in range(1, len(ranking) + 1))
    fields = _text.Fields(field + "," for field in _csv_fields(labels))
    cells = _text.join_blocks(
        ranks.cells(), fields.cells(ranking), _text.float_cells(centrality[ranking]),
        _text.literal("\n"))
    return "rank,node,centrality\n" + _text.kept_text(cells)
