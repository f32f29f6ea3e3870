"""Independent oracles used to freeze or cross-check expected values.

Each oracle deliberately takes a different route than the implementation
it checks: union-find vs scipy for weak components, exhaustive bipartition
enumeration vs the signed double cover for balance, plain iteration of
the update rule vs the closed-form solver for limits, a list of freshly
allocated states vs ``simulate``'s in-place record array, C-order panels
refined on whole-panel residuals and joined while the factor lives vs the
in-place Fortran panels refined in column chunks and joined after it is
freed, one column swept at a time vs panels swept in column chunks,
whole-text, entry-by-entry CSV writers vs the chunked
streaming ones, and one set of array look-ups per sink vs one pass over
every sink member for the sink classification.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from functools import partial
from itertools import product

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse.linalg import splu

from signedfj import SignedDigraph, balance_check, row_normalized, simulate
from signedfj.dynamics import Trajectory
from signedfj.topology import AgentClassification, Role, SinkClass, SinkInfo


def union_find_components(n: int, pairs) -> int:
    """Number of undirected components by union-find over an edge list."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(n)})


def brute_force_balanced(graph: SignedDigraph, nodes):
    """Exhaustively search for a sign assignment satisfying every induced edge.

    Returns ``(balanced, labels)`` with the smallest node fixed to +1.
    Exponential; only for small node sets.
    """
    nodes = sorted(set(nodes))
    member = set(nodes)
    pos = {v: k for k, v in enumerate(nodes)}
    constraints = []
    for s, t, w in graph.edge_triples():
        if s in member and t in member:
            constraints.append((pos[s], pos[t], 1 if w > 0 else -1))
    for rest in product((1, -1), repeat=len(nodes) - 1):
        sigma = (1,) + rest
        if all(sigma[a] * sigma[b] == sign for a, b, sign in constraints):
            return True, np.array(sigma)
    return False, None


def classify_by_sink(graph: SignedDigraph, sccs, dag, beta) -> AgentClassification:
    """``classify_agents``'s result, built with look-ups into the member arrays sink by sink."""
    beta = np.asarray(beta, dtype=np.float64)
    sink_of = np.full(graph.n, -1, dtype=np.int64)
    for k, cid in enumerate(dag.sinks):
        sink_of[list(sccs.components[cid])] = k
    balance = balance_check(graph, np.flatnonzero(sink_of >= 0))
    side = np.zeros(graph.n, dtype=np.int64)
    side[list(balance.nodes)] = balance.sides
    sinks = []
    for k, cid in enumerate(dag.sinks):
        members = sccs.components[cid]
        stubborn = bool(np.any(beta[list(members)] > 0))
        sides = side[list(members)]
        if len(members) == 1:
            sink_class, bipartition = SinkClass.SINGLETON_SB, (1,)
        elif not sides.all():
            sink_class, bipartition = SinkClass.SUB, None
        else:
            sink_class = (
                SinkClass.ANTAGONISTIC_SB if (sides < 0).any() else SinkClass.COOPERATIVE_SB
            )
            bipartition = tuple(sides.tolist())
        sinks.append(SinkInfo(
            sink_index=k, component=cid, members=members, sink_class=sink_class,
            bipartition=bipartition, contains_stubborn=stubborn,
            in_s_ns=sink_class.is_balanced and not stubborn,
        ))
    roles = tuple(
        Role.OPINION_LEADER if sink_of[i] >= 0 else Role.FOLLOWER for i in range(graph.n)
    )
    return AgentClassification(
        roles=roles, sink_of=sink_of, sinks=tuple(sinks),
        s_ns=frozenset(s.sink_index for s in sinks if s.in_s_ns),
    )


def limit_by_iteration(graph: SignedDigraph, beta, x0, *, tol=1e-13):
    """Long-run opinion vector by directly iterating the update rule."""
    trajectory = simulate(graph, beta, x0, tol=tol, patience=20)
    assert trajectory.converged, "iteration oracle failed to converge"
    return trajectory.final


def simulate_by_list(graph: SignedDigraph, beta, x0, *, tol=1e-10, max_iters=1_000_000,
                     stride=None, patience=10) -> Trajectory:
    """Reference ``simulate``: fresh arrays every step, records kept in a list and stacked."""
    beta = np.asarray(beta, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    if stride is None:
        stride = 1 if graph.n <= 100 else 10
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
        assert np.isfinite(x_next).all(), f"non-finite opinion at iteration {k}"
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
        final_residual=residual,
        iterations_used=k,
    )


def influence_by_iteration(graph: SignedDigraph, beta, *, tol=1e-13) -> np.ndarray:
    """Column j of the influence matrix is the limit started from e_j."""
    n = graph.n
    theta = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        theta[:, j] = limit_by_iteration(graph, beta, e, tol=tol)
    return theta


def block_solve_by_joined_panels(
    block, rhs, *, panel_entries=1 << 20, panel_divisor=4, mixed=True, sparse_lu=False
) -> sparse.csc_matrix:
    """Reference LU solve of ``(I - block) Y = rhs`` for every column of a sparse ``rhs``.

    The nonzero columns go in panels of ``panel_entries // m`` columns, or
    of ``m // panel_divisor`` if that is more, as on a dense factor.  Each
    nonzero column panel is solved from a C-order copy with
    out-of-place ``lu_solve`` calls, and the per-panel nonzeros are joined
    into one CSC matrix while the factor is still alive.  With ``mixed``
    the block is factored in float32 and each panel refined in float64 by
    LAPACK dsgesv's rule (see :func:`_refined_on_single`); a float32 factor
    with a zero or non-finite pivot, or a panel that rule cannot settle,
    switches to a float64 factor for that panel and every later one.
    Without ``mixed``, or after that switch, a panel is solved on the
    float64 factor and refined on ``b - A x`` to ``1e-12`` times its
    largest entry.  With ``sparse_lu`` the block is factored by SuperLU,
    as above the dense budget: panels of ``panel_entries // m`` columns,
    each refined so, and ``mixed`` and ``panel_divisor`` play no part.
    """
    a = sparse.csr_matrix(sparse.identity(block.shape[0], format="csr") - block)
    single = double = None
    if sparse_lu:
        double = splu(a.tocsc()).solve
    elif mixed:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)  # an exactly zero pivot
            single = lu_factor(a.toarray().astype(np.float32))
        if not np.isfinite(single[0]).all() or np.any(np.diag(single[0]) == 0.0):
            single = None
    rhs = sparse.csc_matrix(rhs, copy=True)
    rhs.eliminate_zeros()
    nonzero = np.flatnonzero(np.diff(rhs.indptr))
    step = max(1, panel_entries // rhs.shape[0])
    if not sparse_lu:
        step = max(step, rhs.shape[0] // panel_divisor)
    counts = np.zeros(rhs.shape[1] + 1, np.int64)
    indices, data = [np.zeros(0, np.int32)], [np.zeros(0)]
    for start in range(0, nonzero.size, step):
        panel = nonzero[start:start + step]
        b = rhs[:, panel].toarray()
        x = None if single is None else _refined_on_single(a, single, b)
        if x is None:
            single = None
            if double is None:
                double = partial(lu_solve, lu_factor(a.toarray()), check_finite=False)
            x = _refined_on_double(a, double, b)
        kept = x.T != 0.0
        counts[panel + 1] = kept.sum(axis=1)
        indices.append(np.broadcast_to(np.arange(x.shape[0], dtype=np.int32), kept.shape)[kept])
        data.append(x.T[kept])
    return sparse.csc_matrix(
        (np.concatenate(data), np.concatenate(indices), np.cumsum(counts)), shape=rhs.shape
    )


def _single_solve(factor, v):
    """``A^-1 v`` on a float32 factor, each column of ``v`` scaled by a power of two
    into ``[0.5, 1)`` before it is rounded to float32 and scaled back after."""
    exponents = np.frexp(np.abs(v).max(axis=0))[1]
    solved = lu_solve(factor, np.ldexp(v, -exponents).astype(np.float32), check_finite=False)
    return np.ldexp(solved.astype(np.float64), exponents)


def _refined_on_single(a, factor, b, *, steps=30):
    """dsgesv's refinement of the panel ``b``, or None when it does not settle.

    Column j is done once ``max|r_j| <= sqrt(m) 2^-53 ||A||_inf max|x_j|``.
    Every column is corrected until all are done, at most ``steps`` times
    after the first solve; a non-finite residual gives up at once.
    """
    m = a.shape[0]
    bound = np.sqrt(m) * 2.0**-53 * float(abs(a).sum(axis=1).max())
    x = _single_solve(factor, b)
    for refinements in range(steps + 1):
        r = a @ x
        np.subtract(b, r, out=r)
        largest = np.abs(r).max(axis=0)
        if not np.isfinite(largest).all():
            return None
        if np.all(largest <= bound * np.abs(x).max(axis=0)):
            return x
        if refinements == steps:
            return None
        x += _single_solve(factor, r)


def _refined_on_double(a, solve, b):
    """The panel ``b`` solved by a float64 factor's ``solve``, refined to ``1e-12`` of its
    largest entry."""
    x = np.ascontiguousarray(solve(b))
    scale = max(1.0, float(np.max(np.abs(b))))
    for refinements in range(5):
        r = a @ x
        np.subtract(b, r, out=r)
        if float(max(r.max(), -r.min())) <= 1e-12 * scale or refinements == 4:
            break
        x += solve(r)
    return x


def sweeps_by_column(block, rhs, *, max_sweeps):
    """Reference sweep solve of ``(I - block) Y = rhs``, one column at a time.

    Each column of the sparse ``rhs``, none of them zero, sweeps ``x <- x +
    r`` from ``x = 0``, with ``r = -(A x) + b`` and ``b`` added at its
    stored entries.  The column is done once its residual has been at most
    ``2^-52 max|x|`` for ``E`` sweeps, with ``(||y||_inf, E)`` the block's
    :func:`signedfj.solve._sweep_certificate`; its certified relative error
    is ``||y||_inf (max|r| + (d + 4) 2^-53 (||A||_inf max|x| + max|b|))``
    over ``max|x|``, for ``d`` the most entries in a row of ``A``.  Returns
    ``Y`` and, per column, the sweeps it took, its final ``max|r|`` and its
    certified error; None if a column is not done within ``max_sweeps``.
    """
    from signedfj.solve import _sweep_certificate

    a = sparse.csr_matrix(sparse.identity(block.shape[0], format="csr") - block)
    norm, extra = _sweep_certificate(block)
    a_norm = float(abs(a).sum(axis=1).max())
    rounding = (int(np.diff(a.indptr).max(initial=0)) + 4) * 2.0**-53
    rhs = sparse.csc_matrix(rhs)
    y = np.zeros(rhs.shape)
    sweeps, residuals, certified = (np.zeros(rhs.shape[1]) for _ in range(3))
    for j in range(rhs.shape[1]):
        column = rhs[:, [j]].tocoo()
        b = np.zeros(rhs.shape[0])
        b[column.row] = column.data
        x, r, reached = np.zeros(rhs.shape[0]), b.copy(), None
        for step in range(max_sweeps + 1):
            if step:
                x += r
                r = -(a @ x)
                r[column.row] += column.data
            top = float(np.abs(r).max())
            if not np.isfinite(top):
                return None
            if reached is None and top <= 2.0**-52 * np.abs(x).max():
                reached = step
            if reached is not None and step - reached >= extra:
                break
        else:
            return None
        largest = float(np.abs(x).max())
        bound = norm * (top + rounding * (a_norm * largest + np.abs(b).max()))
        y[:, j], sweeps[j], residuals[j] = x, step, top
        certified[j] = bound / largest if largest > 0.0 else 0.0
    return y, sweeps, residuals, certified


def influence_by_joined_panels(
    system, sink_solutions, *, panel_entries=1 << 20, panel_divisor=4, mixed=True
):
    """Reference influence matrix: Theta_L in the sink rows, the follower rows
    from :func:`block_solve_by_joined_panels`, stacked as CSR and put in
    original order.  A free balanced sink's follower columns are ``z w^T``,
    from its one right-hand side ``P_FL v``.

    Every resolvent sink's operator is solved again by
    :func:`block_solve_by_joined_panels` with the same ``mixed``, so that
    without it the whole matrix comes from float64 factors.
    """
    from signedfj.solve import SolutionKind, _sink_rows

    ordering = system.ordering
    n, m = ordering.n, ordering.follower_count
    sink_solutions = tuple(
        replace(s, operator=block_solve_by_joined_panels(
            system.sink_block(s.sink_index), sparse.diags(system.stubbornness[list(s.members)]),
            panel_entries=panel_entries, panel_divisor=panel_divisor, mixed=mixed,
        )) if s.kind is SolutionKind.RESOLVENT else s
        for s in sink_solutions
    )
    canonical = _sink_rows(system, sink_solutions)
    if m:
        # one right-hand side per free balanced sink, P_FL v in its first member's column
        rhs = sparse.diags(system.stubbornness_canonical[:m], shape=(m, n)) + (
            system.update_matrix[:m] @ _sink_rows(system, sink_solutions, rank_one=True)
        )
        rows = block_solve_by_joined_panels(
            system.follower_block(), rhs,
            panel_entries=panel_entries, panel_divisor=panel_divisor, mixed=mixed,
        )
        # the sink's solved z times w_j in member j's column; every other column times 1
        spread = sparse.lil_matrix(sparse.identity(n))
        for s in sink_solutions:
            if s.kind is SolutionKind.EIGENPAIR and s.size > 1:
                first = ordering.sink_offsets[s.sink_index]
                for j, w in enumerate(s.left_vec):
                    spread[first + j, first + j] = 0.0
                    spread[first, first + j] = w
        rows = sparse.csr_matrix(rows @ spread.tocsr())
        rows.eliminate_zeros()
        canonical = sparse.vstack([rows, canonical[m:]], format="csr")
    theta = canonical[ordering.inverse]
    theta.indices = ordering.permutation.astype(theta.indices.dtype)[theta.indices]
    theta.sort_indices()
    return theta


def quoted(label: str) -> str:
    """A label as one CSV field, quoted by hand where ``csv`` would quote it."""
    if any(ch in label for ch in ',"\r\n'):
        return '"' + label.replace('"', '""') + '"'
    return label


def influence_triplets_text(theta, labels) -> str:
    """Reference ``theta.csv``: a lexsort of the COO triplets, one f-string per entry."""
    coo = theta.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = ["row_node,col_node,theta"]
    for i in order:
        lines.append(
            f"{quoted(labels[coo.row[i]])},{quoted(labels[coo.col[i]])},{float(coo.data[i])!r}"
        )
    return "\n".join(lines) + "\n"


def influence_scatter_text(theta, labels) -> str:
    """Reference ``theta_scatter.csv``: the triplets plus a +1/-1 sign column."""
    coo = theta.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = ["row_node,col_node,theta,sign"]
    for i in order:
        sign = 1 if coo.data[i] > 0 else -1
        lines.append(
            f"{quoted(labels[coo.row[i]])},{quoted(labels[coo.col[i]])},"
            f"{float(coo.data[i])!r},{sign}"
        )
    return "\n".join(lines) + "\n"


def trajectory_long_text(trajectory: Trajectory, labels) -> str:
    """Reference ``trajectory_long.csv``: one ``k,node,opinion`` row per node per record."""
    lines = ["k,node,opinion"]
    for k, state in zip(trajectory.ks, trajectory.states):
        for label, value in zip(labels, state):
            lines.append(f"{k},{quoted(label)},{float(value)!r}")
    return "\n".join(lines) + "\n"


def trajectory_wide_text(trajectory: Trajectory) -> str:
    """Reference ``trajectory_wide.csv``: ``k`` plus one ``x_<i>`` column per node index."""
    n = trajectory.states.shape[1]
    lines = ["k," + ",".join(f"x_{i}" for i in range(n))]
    for k, state in zip(trajectory.ks, trajectory.states):
        lines.append(str(k) + "," + ",".join(repr(float(v)) for v in state))
    return "\n".join(lines) + "\n"
