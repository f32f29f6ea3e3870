"""Regression fixture for the ``centrality`` exports.

The seeded instance has 72 followers (enough for the sparse follower
solve), stubborn followers, and one sink of each limit kind: a free
antagonistic sink (eigenpair), a stubborn cooperative sink (resolvent),
a free unbalanced sink (zero) and a free singleton.  Edges are written in
shuffled order, so original and canonical node orders differ.

The comparison pins row order, labels, signs, ranks and ``repr(float)``
formatting exactly, and values to 1e-12, so it survives a different BLAS.
"""

from pathlib import Path

import numpy as np
import pytest

from signedfj import analyze_network, parse_edge_list, read_stubbornness
from signedfj.cli import main

GOLDEN = Path(__file__).parent / "golden"
FOLLOWERS = 72

SINK_EDGES = [
    # free antagonistic: camps {a0, a1} and {a2, a3}
    ("a0", "a0", 1), ("a0", "a1", 2), ("a0", "a2", -1),
    ("a1", "a1", 1), ("a1", "a3", -2), ("a1", "a0", 1),
    ("a2", "a2", 2), ("a2", "a3", 1), ("a2", "a1", -1),
    ("a3", "a3", 1), ("a3", "a0", -3), ("a3", "a2", 1),
    # stubborn cooperative ring
    ("s0", "s0", 1), ("s0", "s1", 1),
    ("s1", "s1", 2), ("s1", "s2", 1),
    ("s2", "s2", 1), ("s2", "s0", 3),
    # unbalanced: one negative edge on the 3-cycle
    ("u0", "u0", 1), ("u0", "u1", -1),
    ("u1", "u1", 1), ("u1", "u2", 2),
    ("u2", "u2", 1), ("u2", "u0", 1),
    # free singleton
    ("z", "z", 1),
]
SINK_NODES = ["a0", "a1", "a2", "a3", "s0", "s1", "s2", "u0", "u1", "u2", "z"]


def write_inputs(directory: Path) -> tuple[Path, Path]:
    rng = np.random.default_rng(20261018)
    followers = [f"f{i:02d}" for i in range(FOLLOWERS)]
    edges = list(SINK_EDGES)
    for i, f in enumerate(followers):
        edges.append((f, f, 1))
        # the chain f00 -> f01 -> ... -> f71 -> sink keeps every follower a follower
        targets = {followers[i + 1] if i + 1 < FOLLOWERS else "z"}
        for j in rng.choice(FOLLOWERS, size=int(rng.integers(1, 4)), replace=False):
            if followers[j] != f:
                targets.add(followers[j])
        if rng.random() < 0.4:
            targets.add(SINK_NODES[int(rng.integers(len(SINK_NODES)))])
        for t in sorted(targets):
            w = int(rng.integers(1, 6))
            edges.append((f, t, -w if rng.random() < 0.2 else w))
    order = rng.permutation(len(edges))
    graph = directory / "graph.csv"
    graph.write_text(
        "".join(f"{edges[k][0]},{edges[k][1]},{edges[k][2]}\n" for k in order),
        encoding="utf-8",
    )
    beta_rows = [("s0", 0.4)]
    for j in rng.choice(FOLLOWERS, size=9, replace=False):
        beta_rows.append((followers[j], float(rng.choice([0.2, 0.3, 0.5]))))
    beta = directory / "beta.csv"
    beta.write_text("".join(f"{v},{b}\n" for v, b in beta_rows), encoding="utf-8")
    return graph, beta


def run_centrality(directory: Path) -> Path:
    graph, beta = write_inputs(directory)
    out = directory / "out"
    code = main(["centrality", "--graph", str(graph), "--beta", str(beta),
                 "--out-dir", str(out)])
    assert code == 0
    return out


# every export carries its value in the third field
VALUE_FIELD = 2


@pytest.mark.parametrize("name", ["centrality.csv", "theta.csv", "theta_scatter.csv"])
def test_centrality_exports_match_golden(tmp_path, name):
    out = run_centrality(tmp_path)
    expected = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    actual = (out / name).read_text(encoding="utf-8").splitlines()
    assert actual[0] == expected[0]
    assert len(actual) == len(expected)
    for got_line, want_line in zip(actual[1:], expected[1:]):
        got, want = got_line.split(","), want_line.split(",")
        assert len(got) == len(want)
        for k, (g, w) in enumerate(zip(got, want)):
            if k == VALUE_FIELD:
                assert g == repr(float(g))
                assert abs(float(g) - float(w)) <= 1e-12, (got_line, want_line)
            else:
                assert g == w, (got_line, want_line)


def test_golden_instance_covers_every_limit_kind(tmp_path):
    graph_path, beta_path = write_inputs(tmp_path)
    graph = parse_edge_list(graph_path.read_text(encoding="utf-8"))
    beta, _ = read_stubbornness(beta_path.read_text(encoding="utf-8"), graph)
    analysis = analyze_network(graph, beta)
    m = analysis.system.ordering.follower_count
    assert m == FOLLOWERS
    assert np.count_nonzero(analysis.system.stubbornness_canonical[:m]) == 9
    kinds = sorted(s.kind.value for s in analysis.sink_solutions)
    assert kinds == ["eigenpair", "eigenpair", "resolvent", "zero"]
