"""The streaming CSV writers: byte equality with whole-text references, bounded
memory, and the calls the benchmark tracer times.

The references in ``oracles.py`` format every entry on its own and join the
whole text, as the writers did before they streamed.  Every case also runs
with a chunk of 3 rows, so chunk boundaries fall inside Theta's rows and
inside trajectory records.
"""

import io
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import oracles
from instances import random_instance
from signedfj import cli, dynamics, influence, simulate, solve, validate
from signedfj import graph as graph_module
from signedfj.cli import main
from signedfj.dynamics import Trajectory, trajectory_long_csv, trajectory_wide_csv
from signedfj.solve import influence_scatter_csv, influence_triplets_csv
from test_golden import load_analysis, write_inputs, write_x0

QUOTED_LABELS = ("x,1", 'q"t', "plain", "line\nbreak")


@pytest.fixture(params=[None, 3], ids=["default_chunk", "chunk_3"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(graph_module, "_CSV_CHUNK_ROWS", request.param)


def written(writer, *args) -> str:
    out = io.StringIO()
    writer(*args, out)
    return out.getvalue()


def written_jointly(theta, labels) -> tuple[str, str]:
    """Both Theta files from one walk: ``influence_triplets_csv`` given a scatter handle."""
    out, scatter = io.StringIO(), io.StringIO()
    influence_triplets_csv(theta, labels, out, scatter)
    return out.getvalue(), scatter.getvalue()


def assert_theta_exports_match(theta, labels):
    triplets = oracles.influence_triplets_text(theta, labels)
    scatter = oracles.influence_scatter_text(theta, labels)
    assert written(influence_triplets_csv, theta, labels) == triplets
    assert written(influence_scatter_csv, theta, labels) == scatter
    assert written_jointly(theta, labels) == (triplets, scatter)


def signed_theta(n: int, nnz: int, seed: int) -> sparse.csr_matrix:
    """An n x n Theta with ``nnz`` entries of both signs at random cells."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(n * n, nnz, replace=False)
    return sparse.csr_matrix((rng.uniform(-1.0, 1.0, nnz), divmod(cells, n)), shape=(n, n))


def assert_trajectory_exports_match(trajectory, labels):
    assert written(trajectory_long_csv, trajectory, labels) == oracles.trajectory_long_text(
        trajectory, labels
    )
    assert written(trajectory_wide_csv, trajectory) == oracles.trajectory_wide_text(trajectory)


class TestMatchesReference:
    def test_golden_theta(self, tmp_path, chunk):
        analysis = load_analysis(tmp_path)
        assert analysis.influence.matrix.nnz > 0
        assert_theta_exports_match(analysis.influence.matrix, analysis.graph.labels)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed, chunk):
        graph, beta, x0 = random_instance(8600 + seed, n_max=30)
        report = validate(graph, beta)
        labels = report.graph.labels
        assert_theta_exports_match(influence(report.graph, report.beta).matrix, labels)
        trajectory = simulate(report.graph, report.beta, x0, max_iters=25, stride=4)
        assert_trajectory_exports_match(trajectory, labels)

    def test_empty_theta(self, chunk):
        theta = sparse.csr_matrix((4, 4))
        assert theta.nnz == 0
        assert_theta_exports_match(theta, QUOTED_LABELS)
        assert written(influence_triplets_csv, theta, QUOTED_LABELS) == "row_node,col_node,theta\n"

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_nnz_at_chunk_boundary(self, offset, chunk):
        nnz = graph_module._CSV_CHUNK_ROWS + offset
        n = 70  # 4900 cells hold the default chunk of 4096 rows and one more
        theta = signed_theta(n, nnz, 8700 + offset)
        assert theta.nnz == nnz
        assert (theta.data < 0).any() and (theta.data > 0).any()
        labels = QUOTED_LABELS + tuple(str(i) for i in range(n - len(QUOTED_LABELS)))
        assert_theta_exports_match(theta, labels)

    def test_unsorted_csr_is_written_sorted_and_left_unchanged(self, chunk):
        indptr = np.array([0, 3, 3, 5, 6])
        indices = np.array([3, 0, 2, 1, 0, 3])
        data = np.array([0.25, -1.5, 1e-17, 0.0, -0.75, 2.0 / 3.0])
        theta = sparse.csr_matrix((data, indices, indptr), shape=(4, 4))
        assert not theta.has_sorted_indices
        assert_theta_exports_match(theta, QUOTED_LABELS)
        np.testing.assert_array_equal(theta.indices, indices)
        np.testing.assert_array_equal(theta.data, data)

    def test_one_state_trajectory(self, chunk):
        trajectory = Trajectory(
            ks=np.array([0]),
            states=np.array([[0.5, -0.25, 1e-300, -0.0]]),
            converged=False,
            final_residual=float("inf"),
            iterations_used=0,
        )
        assert_trajectory_exports_match(trajectory, QUOTED_LABELS)


def traced_peak(path, write) -> int:
    """Peak traced allocation while ``write`` streams into ``path``."""
    with path.open("w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            write(out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestBoundedMemory:
    """The writers hold one chunk of text, not the whole file."""

    def test_theta_export(self, tmp_path):
        n = 2000
        theta = sparse.random(n, n, density=0.06, format="csr", random_state=7)
        assert theta.nnz >= 200_000
        labels = tuple(str(i) for i in range(n))
        path = tmp_path / "theta.csv"
        peak = traced_peak(path, lambda out: influence_triplets_csv(theta, labels, out))
        assert peak < path.stat().st_size / 4

    def test_joint_theta_export(self, tmp_path):
        n = 2000
        theta = signed_theta(n, 240_000, 7)
        labels = tuple(str(i) for i in range(n))
        path, scatter_path = tmp_path / "theta.csv", tmp_path / "theta_scatter.csv"
        with scatter_path.open("w", encoding="utf-8") as scatter:
            peak = traced_peak(
                path, lambda out: influence_triplets_csv(theta, labels, out, scatter)
            )
        assert peak < (path.stat().st_size + scatter_path.stat().st_size) / 4

    def test_long_trajectory_export(self, tmp_path):
        records, n = 2500, 100
        trajectory = Trajectory(
            ks=np.arange(records) * 10,
            states=np.random.default_rng(7).uniform(-1.0, 1.0, (records, n)),
            converged=True,
            final_residual=0.0,
            iterations_used=10 * (records - 1),
        )
        labels = tuple(str(i) for i in range(n))
        path = tmp_path / "trajectory_long.csv"
        peak = traced_peak(path, lambda out: trajectory_long_csv(trajectory, labels, out))
        assert peak < path.stat().st_size / 4


# the writers ``perfbench/traced_cli.py`` times as solve.export_s and
# dynamics.trajectory_csv_s, by the names the CLI imports
TRACED_WRITERS = [
    (solve, "influence_triplets_csv"),
    (solve, "influence_scatter_csv"),
    (dynamics, "trajectory_long_csv"),
    (dynamics, "trajectory_wide_csv"),
]


def test_cli_calls_each_traced_writer_once(tmp_path, monkeypatch):
    """Every export the CLI makes is written inside a writer call the tracer times.

    ``centrality`` writes both Theta files in one ``influence_triplets_csv``
    call given a scatter handle, so it never calls ``influence_scatter_csv``.
    The tracer also reads each file's size when its ``_write`` returns, so
    every file is complete by then.
    """
    calls = Counter()
    bytes_in_call = {}
    for module, name in TRACED_WRITERS:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            _original(*args, **kwargs)
            for handle in (*args, *kwargs.values()):
                if isinstance(handle, io.TextIOBase):
                    bytes_in_call[Path(handle.name).name] = handle.tell()

        # replaced in every namespace that holds it, as the tracer does
        for holder in (cli, solve, dynamics):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, counting)

    sizes_at_return = {}
    original_write = cli._write

    def recording_write(*args):
        path = original_write(*args)
        sizes_at_return[path] = path.stat().st_size
        return path

    monkeypatch.setattr(cli, "_write", recording_write)

    graph, beta = write_inputs(tmp_path)
    x0 = write_x0(tmp_path)
    common = ["--graph", str(graph), "--beta", str(beta)]
    assert main(["centrality", *common, "--out-dir", str(tmp_path / "centrality")]) == 0
    assert main(["simulate", *common, "--x0", str(x0), "--out-dir", str(tmp_path / "sim")]) == 0
    assert calls == {"influence_triplets_csv": 1, "trajectory_long_csv": 1,
                     "trajectory_wide_csv": 1}
    exports = {path.name: path.stat().st_size for path in sizes_at_return}
    assert bytes_in_call == {name: exports[name] for name in (
        "theta.csv", "theta_scatter.csv", "trajectory_long.csv", "trajectory_wide.csv")}
    assert all(bytes_in_call.values())
    assert sizes_at_return == {path: path.stat().st_size for path in sizes_at_return}
