"""Checks of the CLI outputs, computed apart from the signedfj package.

Everything here is rebuilt from the raw input CSVs with numpy and
scipy.sparse: the benchmark's own SCC, condensation sinks and signed
2-colouring, its own iteration of the update rule

    x(k+1) = beta * x0 + (1 - beta) * Q x(k),   Q = rows of A over their |A| sums,

and a direct sparse solve where the regime is convergent.  Each failed
check raises ``CheckError`` naming the output file it rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

# Agreement with the benchmark's own fixed-point iteration.  The iteration
# stops once a step is below ITERATION_STEP; a contraction whose slowest
# mode decays at rate 0.999 is then within ITERATION_STEP / 0.001 of its
# limit, far inside LIMIT_TOL.
ITERATION_STEP = 1e-13
LIMIT_TOL = 1e-8
# The own iteration looks at its step size every ITERATION_LOOK steps and
# gives up after ITERATION_LIMIT steps.
ITERATION_LOOK = 10
ITERATION_LIMIT = 200_000
# Recorded trajectory states must match the same recursion step for step.
TRAJECTORY_TOL = 1e-9
# simulate runs at the CLI's default --tol and, for n > 100, records every
# TRAJECTORY_STRIDE-th iterate plus the final one.
SIMULATE_TOL = 1e-10
TRAJECTORY_STRIDE = 10
# Exact-arithmetic properties, allowing for rounding in sums of ~1e4 terms.
PROPERTY_TOL = 1e-9
THETA_SAMPLE = 24
# Sinks up to this size get their spectral radius checked with dense eigvals.
SMALL_SINK = 64


class CheckError(Exception):
    """An output disagrees with the benchmark's own computation."""

    def __init__(self, output: str, message: str):
        super().__init__(f"{output}: {message}")
        self.output = output


def require(condition: bool, output: str, message: str) -> None:
    if not condition:
        raise CheckError(output, message)


def _load_csv(path: Path, columns: int, *, skip_header: bool) -> np.ndarray:
    if path.stat().st_size == 0:
        return np.zeros((0, columns))
    table = np.loadtxt(path, delimiter=",", skiprows=int(skip_header), ndmin=2)
    require(table.shape[1] == columns, path.name, f"expected {columns} columns")
    return table


def _node_values(path: Path, n: int) -> np.ndarray:
    values = np.zeros(n)
    table = _load_csv(path, 2, skip_header=False)
    values[table[:, 0].astype(np.int64)] = table[:, 1]
    return values


@dataclass
class Model:
    """The inputs as the benchmark reads them: labels are the integers 0..n-1."""

    n: int
    edges: dict[tuple[int, int], float]
    adjacency: sparse.csr_matrix
    beta: np.ndarray
    x0: np.ndarray
    first_seen: np.ndarray

    @classmethod
    def from_csv(cls, paths: dict[str, Path], ensure_self_loops: float | None) -> "Model":
        table = _load_csv(paths["graph"], 3, skip_header=False)
        s = table[:, 0].astype(np.int64)
        t = table[:, 1].astype(np.int64)
        w = table[:, 2]
        n = int(max(s.max(), t.max())) + 1
        # the CLI numbers nodes by first appearance in the edge list
        flat = np.column_stack((s, t)).ravel()
        _, first = np.unique(flat, return_index=True)
        first_seen = flat[np.sort(first)]
        if ensure_self_loops is not None:
            missing = np.setdiff1d(np.arange(n), s[s == t])
            s = np.concatenate([s, missing])
            t = np.concatenate([t, missing])
            w = np.concatenate([w, np.full(missing.size, ensure_self_loops)])
        edges = dict(zip(zip(s.tolist(), t.tolist()), w.tolist()))
        adjacency = sparse.csr_matrix((w, (s, t)), shape=(n, n))
        return cls(n, edges, adjacency, _node_values(paths["beta"], n),
                   _node_values(paths["x0"], n), first_seen)

    def update_matrix(self) -> sparse.csr_matrix:
        """``diag(1 - beta) Q`` with Q row-normalized by absolute sums."""
        row_abs = np.asarray(abs(self.adjacency).sum(axis=1)).ravel()
        empty = row_abs == 0
        scale = np.where(empty, 0.0, 1.0 / np.where(empty, 1.0, row_abs))
        q = sparse.diags(scale) @ self.adjacency + sparse.diags(empty.astype(np.float64))
        return sparse.csr_matrix(sparse.diags(1.0 - self.beta) @ q)

    def iterate(self, start: np.ndarray):
        """Fixed point of ``x -> beta*start + (1-beta) Q x`` from ``x = start``.

        Returns the limit and the per-step contraction rate seen over the
        last looks at the step size.
        """
        p = self.update_matrix()
        hold = None
        if self.beta.any():
            hold = self.beta[:, None] * start if start.ndim == 2 else self.beta * start
        x = start
        steps = []
        for k in range(ITERATION_LIMIT):
            nxt = p @ x
            if hold is not None:
                nxt += hold
            if k % ITERATION_LOOK == 0:
                steps.append(float(np.max(np.abs(nxt - x))) if x.size else 0.0)
                if steps[-1] <= ITERATION_STEP:
                    tail = [(b / a) ** (1.0 / ITERATION_LOOK)
                            for a, b in zip(steps[-4:-1], steps[-3:]) if a > 0]
                    return nxt, max(tail, default=0.0)
            x = nxt
        raise CheckError("benchmark", f"own iteration did not settle in {ITERATION_LIMIT} steps")

    def theta_columns(self, nodes: np.ndarray) -> np.ndarray:
        """Columns ``nodes`` of Theta: the limits of the runs started from ``e_j``."""
        start = np.zeros((self.n, nodes.size))
        start[nodes, np.arange(nodes.size)] = 1.0
        return self.iterate(start)[0]


@dataclass
class Structure:
    """The benchmark's own condensation sinks and their signed 2-colouring."""

    sinks: dict[frozenset, str]
    s_ns_members: np.ndarray


def structure(model: Model) -> Structure:
    a = model.adjacency.tocoo()
    _, comp = connected_components(model.adjacency, directed=True, connection="strong")
    crossing = comp[a.row] != comp[a.col]
    has_out = np.zeros(comp.max() + 1, dtype=bool)
    has_out[comp[a.row][crossing]] = True
    in_sink = ~has_out[comp]

    # Signed double cover: node u has copies u+ (u) and u- (u + n).  A
    # component of the sink's internal edges is balanced iff no u+ meets u-.
    n = model.n
    internal = in_sink[a.row] & ~crossing & (a.row != a.col)
    r, c, w = a.row[internal], a.col[internal], a.data[internal]
    neg = w < 0
    cover_r = np.concatenate([r, r + n])
    cover_c = np.concatenate([np.where(neg, c + n, c), np.where(neg, c, c + n)])
    cover = sparse.coo_matrix((np.ones(cover_r.size), (cover_r, cover_c)), shape=(2 * n, 2 * n))
    _, half = connected_components(cover, directed=False)
    conflicted = half[:n] == half[n:]
    negative_self_loop = np.zeros(n, dtype=bool)
    negative_self_loop[a.row[(a.row == a.col) & (a.data < 0)]] = True

    sinks: dict[frozenset, str] = {}
    s_ns: list[int] = []
    has_negative = np.zeros(n, dtype=bool)
    has_negative[r[neg]] = True
    for cid in np.unique(comp[in_sink]):
        members = np.flatnonzero(comp == cid)
        if members.size == 1:
            kind = "singleton_sb"
        elif conflicted[members].any() or negative_self_loop[members].any():
            kind = "sub"
        else:
            kind = "antagonistic_sb" if has_negative[members].any() else "cooperative_sb"
        sinks[frozenset(members.tolist())] = kind
        if kind != "sub" and not (model.beta[members] > 0).any():
            s_ns.extend(members.tolist())
    return Structure(sinks, np.asarray(sorted(s_ns), dtype=np.int64))


# ---------------------------------------------------------------------------
# analyze: report.json
# ---------------------------------------------------------------------------

def check_report(model: Model, own: Structure, x_star: np.ndarray, path: Path) -> dict:
    out = path.name
    report = json.loads(path.read_text())
    cls = report["classification"]
    require(report["graph"]["nodes"] == model.n, out, "node count differs from the input")
    require(report["graph"]["edges"] == len(model.edges), out, "edge count differs from the input")

    listed = {}
    for entry in cls["sinks"]:
        members = frozenset(int(x) for x in entry["members"])
        listed[members] = entry
        require(entry["class"] == own.sinks.get(members), out,
                f"sink {entry['index']} is {entry['class']}, own 2-colouring says "
                f"{own.sinks.get(members)}")
        stubborn = bool((model.beta[list(members)] > 0).any())
        require(entry["contains_stubborn"] == stubborn, out,
                f"sink {entry['index']} contains_stubborn is wrong")
        require(entry["in_s_ns"] == (entry["class"] != "sub" and not stubborn), out,
                f"sink {entry['index']} in_s_ns is wrong")
    require(set(listed) == set(own.sinks), out, "sink sets differ from the own SCC condensation")
    require(cls["s_ns"] == sorted(e["index"] for e in cls["sinks"] if e["in_s_ns"]), out,
            "s_ns list disagrees with the per-sink flags")
    leaders = sum(len(m) for m in own.sinks)
    require(cls["follower_count"] == model.n - leaders, out, "follower count is wrong")

    members_of = {e["index"]: e["members"] for e in cls["sinks"]}
    balanced = {e["index"] for e in cls["sinks"] if e["class"] != "sub"}
    side = {}
    for entry in cls["nodes"]:
        node = int(entry["node"])
        k = entry.get("sink")
        require((entry["role"] == "follower") == (k is None), out, f"node {node} role/sink mismatch")
        if k is not None:
            require(entry["node"] in members_of[k], out, f"node {node} is not in its sink")
        require(("side" in entry) == (k in balanced), out, f"node {node} side given wrongly")
        if "side" in entry:
            side[node] = entry["side"]
    # a connected balanced sink has one 2-colouring up to a global flip,
    # which the convention fixes at +1 on the first listed member
    for k in balanced:
        require(side[int(members_of[k][0])] == 1, out, f"sink {k} not +1 on its first member")
    for (s, t), w in model.edges.items():
        if s != t and s in side and t in side:
            require(side[s] * side[t] == (1 if w > 0 else -1), out,
                    f"edge {s}->{t} disagrees with the reported bipartition")

    spectral = report["spectral"]
    semi = any(e["in_s_ns"] for e in cls["sinks"])
    require(spectral["regime"] == ("semi_convergent" if semi else "convergent"), out,
            "regime does not follow from the sink classes")
    radius = spectral["spectral_radius"]
    if semi:
        # a free balanced sink is similar to a stochastic block: eigenvalue 1
        require(abs(radius - 1.0) <= PROPERTY_TOL, out,
                "spectral radius is not 1 although the regime is semi-convergent")
    else:
        require(0.0 <= radius < 1.0, out, "spectral radius is not below 1 in the convergent regime")
    radii = spectral["sink_spectral_radii"]
    require(len(radii) == len(cls["sinks"]), out, "one spectral radius per sink expected")
    update = model.update_matrix()
    for entry in cls["sinks"]:
        members = [int(x) for x in entry["members"]]
        if len(members) <= SMALL_SINK:
            block = update[members][:, members].toarray()
            own = float(np.max(np.abs(np.linalg.eigvals(block))))
            require(abs(radii[entry["index"]] - own) <= PROPERTY_TOL, out,
                    f"sink {entry['index']} spectral radius is not the own {own!r}")
        require(radii[entry["index"]] <= radius + PROPERTY_TOL, out,
                f"sink {entry['index']} spectral radius exceeds the overall radius")

    values = np.zeros(model.n)
    labels = np.asarray([int(x) for x in report["steady_state"]["labels"]])
    values[labels] = report["steady_state"]["values"]
    require(labels.size == model.n, out, "steady state does not cover every node")
    require(np.max(np.abs(values)) <= np.max(np.abs(model.x0)) + PROPERTY_TOL, out,
            "steady state exceeds the bound ||x*|| <= ||x0||")
    err = float(np.max(np.abs(values - x_star)))
    require(err <= LIMIT_TOL, out, f"steady state is {err:.2e} from the own iteration")
    return report


def check_centrality_top(report: dict, column_sums: np.ndarray) -> None:
    out = "report.json"
    top = report["centrality_top"]
    values = np.asarray([e["centrality"] for e in top])
    nodes = np.asarray([int(e["node"]) for e in top], dtype=np.int64)
    expected = np.sort(column_sums)[::-1][: len(top)]
    require(np.allclose(values, column_sums[nodes], rtol=PROPERTY_TOL, atol=PROPERTY_TOL), out,
            "centrality_top values are not the column sums of |Theta|")
    require(np.allclose(values, expected, rtol=PROPERTY_TOL, atol=PROPERTY_TOL), out,
            "centrality_top is not the largest column sums in order")
    require([e["rank"] for e in top] == list(range(1, len(top) + 1)), out, "ranks are not 1..k")


# ---------------------------------------------------------------------------
# centrality: theta.csv, theta_scatter.csv, centrality.csv
# ---------------------------------------------------------------------------

def check_theta(model: Model, own: Structure, x_star: np.ndarray, directory: Path,
                rng: np.random.Generator) -> np.ndarray:
    """Check Theta and return the column sums of |Theta|."""
    out = "theta.csv"
    table = _load_csv(directory / out, 3, skip_header=True)
    rows = table[:, 0].astype(np.int64)
    cols = table[:, 1].astype(np.int64)
    theta = sparse.csr_matrix((table[:, 2], (rows, cols)), shape=(model.n, model.n))
    require(theta.nnz == len(table), out, "repeated (row, col) triplets")
    require(np.all(table[:, 2] != 0.0), out, "explicit zero triplets")

    influential = np.union1d(np.flatnonzero(model.beta > 0), own.s_ns_members)
    require(np.array_equal(np.unique(cols), influential), out,
            "nonzero columns are not the stubborn nodes and free balanced sink members")
    row_abs = np.asarray(abs(theta).sum(axis=1)).ravel()
    require(row_abs.max() <= 1.0 + PROPERTY_TOL, out, "a row of |Theta| sums above 1")
    err = float(np.max(np.abs(theta @ model.x0 - x_star)))
    require(err <= LIMIT_TOL, out, f"Theta x0 is {err:.2e} from the steady state")

    inert = np.setdiff1d(np.arange(model.n), influential)
    picked = np.concatenate([
        rng.choice(influential, min(THETA_SAMPLE * 2 // 3, influential.size), replace=False),
        rng.choice(inert, min(THETA_SAMPLE // 3, inert.size), replace=False),
    ])
    err = float(np.max(np.abs(theta[:, picked].toarray() - model.theta_columns(picked))))
    require(err <= LIMIT_TOL, out, f"sampled Theta columns are {err:.2e} from the own iteration")

    scatter = _load_csv(directory / "theta_scatter.csv", 4, skip_header=True)
    require(np.array_equal(scatter[:, :3], table), "theta_scatter.csv",
            "triplets differ from theta.csv")
    require(np.array_equal(scatter[:, 3], np.sign(table[:, 2])), "theta_scatter.csv",
            "sign column does not match sign(theta)")

    column_sums = np.asarray(abs(theta).sum(axis=0)).ravel()
    ranked = _load_csv(directory / "centrality.csv", 3, skip_header=True)
    require(np.array_equal(ranked[:, 0], np.arange(1, model.n + 1)), "centrality.csv",
            "ranks are not 1..n")
    nodes = ranked[:, 1].astype(np.int64)
    require(np.array_equal(np.sort(nodes), np.arange(model.n)), "centrality.csv",
            "ranking does not list every node once")
    require(np.allclose(ranked[:, 2], column_sums[nodes], rtol=PROPERTY_TOL, atol=PROPERTY_TOL),
            "centrality.csv", "centrality is not the column sums of |Theta|")
    require(np.all(np.diff(ranked[:, 2]) <= 0), "centrality.csv", "ranking is not sorted")
    return column_sums


# ---------------------------------------------------------------------------
# simulate: trajectory_long.csv, trajectory_wide.csv, simulate_summary.json
# ---------------------------------------------------------------------------

def check_trajectory(model: Model, directory: Path):
    """Check the recorded run step for step; return its final state and residual."""
    summary = json.loads((directory / "simulate_summary.json").read_text())
    wide = _load_csv(directory / "trajectory_wide.csv", model.n + 1, skip_header=True)
    ks = wide[:, 0].astype(np.int64)
    out = "simulate_summary.json"
    require(summary["converged"] is True, out, "run did not converge")
    require(summary["iterations_used"] == ks[-1], out, "iterations_used is not the last record")
    require(summary["final_residual"] <= SIMULATE_TOL, out, "final residual above the tolerance")
    last = int(ks[-1])
    want = np.arange(0, last + 1, TRAJECTORY_STRIDE)
    if last % TRAJECTORY_STRIDE:
        want = np.append(want, last)
    require(np.array_equal(ks, want), "trajectory_wide.csv",
            f"records are not every {TRAJECTORY_STRIDE}th iterate plus the final one")

    states = np.empty_like(wide[:, 1:])
    states[:, model.first_seen] = wide[:, 1:]
    out = "trajectory_wide.csv"
    p = model.update_matrix()
    hold = model.beta * model.x0
    x = model.x0.copy()
    k = 0
    residual = np.inf
    for record, k_record in enumerate(ks):
        while k < k_record:
            nxt = hold + p @ x
            residual = float(np.max(np.abs(nxt - x)))
            x, k = nxt, k + 1
        err = float(np.max(np.abs(states[record] - x)))
        require(err <= TRAJECTORY_TOL, out,
                f"state at k={k_record} is {err:.2e} from the own recursion")

    long = _load_csv(directory / "trajectory_long.csv", 3, skip_header=True)
    out = "trajectory_long.csv"
    require(len(long) == ks.size * model.n, out, "row count is not records x nodes")
    require(np.array_equal(long[:, 0].astype(np.int64), np.repeat(ks, model.n)), out,
            "iteration column differs from the wide file")
    nodes = long[:, 1].astype(np.int64).reshape(ks.size, model.n)
    require(np.array_equal(nodes, np.broadcast_to(model.first_seen, nodes.shape)), out,
            "node order differs from the wide file")
    require(np.array_equal(long[:, 2].reshape(ks.size, model.n), wide[:, 1:]), out,
            "opinions differ from the wide file")
    require(abs(residual - summary["final_residual"]) <= 1e-3 * residual + 1e-15,
            "simulate_summary.json", "final residual differs from the own recursion")
    return states[-1], summary["final_residual"]


def check_limit(final: np.ndarray, x_star: np.ndarray, rate: float, residual: float,
                output: str) -> None:
    """The last iterate is within the geometric error bound of the limit."""
    bound = 2.0 * residual / max(1.0 - rate, 1e-12) + PROPERTY_TOL
    err = float(np.max(np.abs(final - x_star)))
    require(err <= bound, output, f"final state is {err:.2e} from the limit (bound {bound:.2e})")


def direct_limit(model: Model) -> np.ndarray:
    """Solve ``(I - (I-B)Q) x = B x0`` directly (convergent regime only)."""
    a = sparse.identity(model.n, format="csc") - model.update_matrix().tocsc()
    return spsolve(a, model.beta * model.x0)


# ---------------------------------------------------------------------------
# modify: modified_graph.csv, modified_beta.csv, modify_manifest.json
# ---------------------------------------------------------------------------

def check_modify(model: Model, flips, beta_edits, directory: Path) -> None:
    expected = dict(model.edges)
    for s, t in flips:
        expected[(s, t)] = -expected[(s, t)]
    table = _load_csv(directory / "modified_graph.csv", 3, skip_header=False)
    got = dict(zip(zip(table[:, 0].astype(np.int64).tolist(),
                       table[:, 1].astype(np.int64).tolist()), table[:, 2].tolist()))
    require(len(got) == len(table) and got == expected, "modified_graph.csv",
            "edges differ from the input with the requested signs flipped")

    new_beta = model.beta.copy()
    for node, value in beta_edits:
        new_beta[node] = value
    out = "modified_beta.csv"
    got_beta = _node_values(directory / out, model.n)
    require(np.array_equal(got_beta, new_beta), out, "stubbornness differs from the edits")
    require(len(_load_csv(directory / out, 2, skip_header=False)) == np.count_nonzero(new_beta),
            out, "lists nodes with zero stubbornness")

    out = "modify_manifest.json"
    manifest = json.loads((directory / out).read_text())
    want_flips = [
        {"source": str(s), "target": str(t), "old_weight": model.edges[(s, t)],
         "new_weight": -model.edges[(s, t)]}
        for s, t in flips
    ]
    require(manifest["flips"] == want_flips, out, "flip entries are wrong")
    want_beta = [{"node": str(i), "old": float(model.beta[i]), "new": v} for i, v in beta_edits]
    require(manifest["beta_changes"] == want_beta, out, "beta change entries are wrong")
