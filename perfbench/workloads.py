"""Seeded input generators and CLI sequences for the three benchmark workloads.

Every generator takes its seed as an argument and returns a ``Workload``:
the raw arrays the independent checks need, plus a ``write`` method that
puts the CSV inputs on disk.  Node labels are the decimal integers
``0..n-1`` so the checks can map labels to indices without the package.
The same seed always gives byte-identical input files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Workload:
    """Inputs of one workload in node-index form (label ``str(i)`` is node ``i``)."""

    name: str
    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    beta: np.ndarray
    x0: np.ndarray
    ensure_self_loops: float | None
    flips: list[tuple[int, int]] = field(default_factory=list)
    beta_edits: list[tuple[int, float]] = field(default_factory=list)

    def write(self, directory: Path) -> dict[str, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "graph": directory / "graph.csv",
            "beta": directory / "beta.csv",
            "x0": directory / "x0.csv",
        }
        edges = np.column_stack((self.sources, self.targets, self.weights.astype(np.int64)))
        np.savetxt(paths["graph"], edges, fmt="%d", delimiter=",")
        stubborn = np.flatnonzero(self.beta > 0)
        _write_lines(paths["beta"], (f"{i},{float(self.beta[i])!r}" for i in stubborn))
        _write_lines(paths["x0"], (f"{i},{v!r}" for i, v in enumerate(self.x0.tolist())))
        return paths

    def commands(self, paths: dict[str, Path], out_dir: Path) -> list[tuple[str, list[str]]]:
        """The workload's CLI sequence as ``(subcommand, argv)`` pairs."""
        common = ["--graph", str(paths["graph"]), "--beta", str(paths["beta"])]
        if self.ensure_self_loops is not None:
            common += ["--ensure-self-loops", repr(self.ensure_self_loops)]
        with_x0 = common + ["--x0", str(paths["x0"])]
        seq = {
            "analyze": ["analyze", *with_x0, "--out-dir", str(out_dir / "analyze")],
            "centrality": ["centrality", *common, "--out-dir", str(out_dir / "centrality")],
            "simulate": ["simulate", *with_x0, "--out-dir", str(out_dir / "simulate")],
            "modify": [
                "modify", *common, "--out-dir", str(out_dir / "modify"),
                *[a for s, t in self.flips for a in ("--flip-edge", f"{s},{t}")],
                *[a for i, b in self.beta_edits for a in ("--set-beta", f"{i}={b!r}")],
            ],
        }
        return [(name, seq[name]) for name in SEQUENCES[self.name]]


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


SEQUENCES = {
    "ratings": ("analyze", "centrality", "simulate", "modify"),
    "many_sinks": ("analyze",),
    "slow_mixing": ("simulate",),
}


def _unique_pairs(src: np.ndarray, tgt: np.ndarray, n: int):
    """Drop self-pairs and repeated pairs, keeping first occurrences in order."""
    keep = src != tgt
    src, tgt = src[keep], tgt[keep]
    _, first = np.unique(src * n + tgt, return_index=True)
    first.sort()
    return src[first], tgt[first]


def ratings(seed: int, *, n: int = 3783, m: int = 24186, zero_out: int = 472) -> Workload:
    """Shape A: a Bitcoin-Alpha-shaped rating graph.

    ``zero_out`` nodes rate nobody and become singleton sinks.  Every other
    node rates at least one node; the remaining ratings draw sources and
    targets from lognormal activity and popularity, which puts about 3.2k
    raters in one strongly connected follower component, as in the real
    dataset, and makes the follower block's LU fill in about 140-fold.
    Weights are integer ratings in 1..10, mostly small, and 6.5% of them
    are negative.  5% of nodes are stubborn at beta 0.3.
    """
    rng = np.random.default_rng(seed)
    raters = np.sort(rng.permutation(n)[zero_out:])
    sinks = np.setdiff1d(np.arange(n), raters)
    activity = rng.lognormal(0.0, 0.5, raters.size)
    popularity = rng.lognormal(0.0, 0.5, n)
    p_pop = popularity / popularity.sum()

    # every rater rates someone, every non-rater is rated by someone
    src = [raters, rng.choice(raters, sinks.size)]
    first = rng.choice(n, raters.size, p=p_pop)
    tgt = [np.where(first == raters, (first + 1) % n, first), sinks]
    extra = 2 * m
    src.append(rng.choice(raters, extra, p=activity / activity.sum()))
    tgt.append(rng.choice(n, extra, p=p_pop))
    s, t = _unique_pairs(np.concatenate(src), np.concatenate(tgt), n)
    s, t = s[:m], t[:m]

    magnitude = np.minimum(rng.geometric(0.55, s.size), 10)
    sign = np.ones(s.size)
    sign[rng.choice(s.size, round(0.065 * s.size), replace=False)] = -1.0
    weights = sign * magnitude

    beta = np.zeros(n)
    beta[rng.choice(n, round(0.05 * n), replace=False)] = 0.3
    x0 = rng.uniform(-1.0, 1.0, n)

    edge_ids = rng.choice(np.flatnonzero(s != t), 5, replace=False)
    flips = [(int(s[k]), int(t[k])) for k in edge_ids]
    edited = rng.choice(n, 3, replace=False)
    beta_edits = [(int(edited[0]), 0.0), (int(edited[1]), 0.25), (int(edited[2]), 0.75)]
    return Workload("ratings", s, t, weights, beta, x0, 1.0, flips, beta_edits)


def many_sinks(seed: int, *, sinks: int = 1000) -> Workload:
    """Antagonistic two-node sinks fed by a follower ring, no stubborn agents.

    Follower ``f`` rates the next follower on the ring and one member of
    sink ``f``.  Each sink is a mutually negative pair with positive
    self-loops, hence balanced and free, so every sink keeps an eigenpair.
    Ring edges without follower self-loops give a follower block whose
    eigenvalues all share one modulus.  Nodes get shuffled indices.
    """
    rng = np.random.default_rng(seed)
    n = 3 * sinks
    label = rng.permutation(n)
    follower, a, b = label[:sinks], label[sinks:2 * sinks], label[2 * sinks:]
    ring_next = np.roll(follower, -1)
    fed = np.where(rng.random(sinks) < 0.5, a, b)
    s = np.concatenate([follower, follower, a, b, a, b])
    t = np.concatenate([ring_next, fed, b, a, a, b])
    w = np.concatenate([
        rng.integers(1, 11, sinks) * np.where(rng.random(sinks) < 0.2, -1, 1),
        rng.integers(1, 11, sinks) * np.where(rng.random(sinks) < 0.2, -1, 1),
        -rng.integers(1, 11, sinks),
        -rng.integers(1, 11, sinks),
        rng.integers(1, 11, sinks),
        rng.integers(1, 11, sinks),
    ]).astype(np.float64)
    order = rng.permutation(s.size)
    x0 = rng.uniform(-1.0, 1.0, n)
    return Workload("many_sinks", s[order], t[order], w[order], np.zeros(n), x0, None)


def slow_mixing(seed: int, *, n: int = 2200) -> Workload:
    """One strongly connected, structurally balanced block that mixes slowly.

    Edges come from a Hamiltonian ring plus three random permutations, all
    of unit magnitude, so absolute row and column sums are nearly equal and
    the contraction rate is close to ``1 - 0.25 * 0.01`` (the stubborn share
    times its stubbornness) for every seed.  Signs follow a hidden two-camp
    split, so the block is balanced; its stubborn members make the regime
    convergent.  Self-loops of weight 12 make the walk lazy.  Initial
    opinions lean with their camp and stubborn agents lean against it, so
    the whole block drifts from one lean to the other along its slowest
    mode, by about the same amount for every seed, and the iteration count
    varies little.
    """
    rng = np.random.default_rng(seed)
    ring = rng.permutation(n)
    src = [ring]
    tgt = [np.roll(ring, -1)]
    for _ in range(3):
        src.append(np.arange(n))
        tgt.append(rng.permutation(n))
    s, t = _unique_pairs(np.concatenate(src), np.concatenate(tgt), n)
    camp = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    w = camp[s] * camp[t]
    s = np.concatenate([s, np.arange(n)])
    t = np.concatenate([t, np.arange(n)])
    w = np.concatenate([w, np.full(n, 12.0)])
    stubborn = rng.choice(n, round(0.25 * n), replace=False)
    beta = np.zeros(n)
    beta[stubborn] = 0.01
    x0 = camp * rng.uniform(0.0, 1.0, n)
    x0[stubborn] = -x0[stubborn]
    return Workload("slow_mixing", s, t, w, beta, x0, None)


GENERATORS = {"ratings": ratings, "many_sinks": many_sinks, "slow_mixing": slow_mixing}
