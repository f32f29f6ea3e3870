"""The streaming CSV writers: byte equality with whole-text references, bounded
memory, and the calls the benchmark tracer times.

The references in ``oracles.py`` format every entry on its own and join the
whole text, as the writers did before they streamed.  Every case also runs
with a chunk of 3 rows, so chunk boundaries fall inside Theta's rows and
inside trajectory records: once with the chunks formatted by forked workers
(two CPUs in the affinity set), once in process (one CPU).
"""

import errno
import io
import logging
import multiprocessing
import os
import signal
import tracemalloc
import warnings
from collections import Counter
from multiprocessing.connection import Connection
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
from test_text import edge_values

QUOTED_LABELS = ("x,1", 'q"t', "plain", "line\nbreak")


def set_cpus(monkeypatch, count: int) -> None:
    """Make the process's affinity set hold ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class Chunking:
    """How a test's exports are cut and where they are formatted.

    Every task handed to a ``_ChunkFormatter`` is checked to hold at most a
    chunk of values, and ``task_sizes`` lists how many each held.
    """

    def __init__(self, monkeypatch, mode: str):
        self.mode = mode
        self.workers_started = 0
        self.task_sizes = []
        original_submit = graph_module._ChunkFormatter.submit

        def checked_submit(formatter, task):
            # a Theta task is (start, stop), a trajectory task (ks, start, n, values)
            size = task[1] - task[0] if len(task) == 2 else len(task[-1])
            assert 0 < size <= graph_module._CSV_CHUNK_ROWS
            self.task_sizes.append(size)
            original_submit(formatter, task)

        monkeypatch.setattr(graph_module._ChunkFormatter, "submit", checked_submit)
        if mode == "default_chunk":
            return
        monkeypatch.setattr(graph_module, "_CSV_CHUNK_ROWS", 3)
        set_cpus(monkeypatch, 2 if mode == "chunk_3" else 1)
        original = multiprocessing.context.ForkProcess.start

        def counting_start(process):
            self.workers_started += 1
            original(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)

    def check_workers_used(self, multi_chunk: bool = True) -> None:
        """Workers format the chunks in the workers mode, only there, and only for several."""
        used = self.mode == "chunk_3" and multi_chunk
        assert (self.workers_started > 0) == used


@pytest.fixture(params=["default_chunk", "chunk_3", "chunk_3_one_cpu"])
def chunk(request, monkeypatch):
    yield Chunking(monkeypatch, request.param)
    assert multiprocessing.active_children() == []


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
        chunk.check_workers_used()

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed, chunk):
        graph, beta, x0 = random_instance(8600 + seed, n_max=30)
        report = validate(graph, beta)
        labels = report.graph.labels
        assert_theta_exports_match(influence(report.graph, report.beta).matrix, labels)
        trajectory = simulate(report.graph, report.beta, x0, max_iters=25, stride=4)
        assert_trajectory_exports_match(trajectory, labels)
        chunk.check_workers_used()

    def test_empty_theta(self, chunk):
        theta = sparse.csr_matrix((4, 4))
        assert theta.nnz == 0
        assert_theta_exports_match(theta, QUOTED_LABELS)
        assert written(influence_triplets_csv, theta, QUOTED_LABELS) == "row_node,col_node,theta\n"
        chunk.check_workers_used(multi_chunk=False)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_nnz_at_chunk_boundary(self, offset, chunk):
        nnz = graph_module._CSV_CHUNK_ROWS + offset
        n = 70  # 4900 cells hold the default chunk of 4096 rows and one more
        theta = signed_theta(n, nnz, 8700 + offset)
        assert theta.nnz == nnz
        assert (theta.data < 0).any() and (theta.data > 0).any()
        labels = QUOTED_LABELS + tuple(str(i) for i in range(n - len(QUOTED_LABELS)))
        assert_theta_exports_match(theta, labels)
        chunk.check_workers_used(multi_chunk=offset > 0)

    def test_unsorted_csr_is_written_sorted_and_left_unchanged(self, chunk):
        indptr = np.array([0, 3, 3, 5, 6])
        indices = np.array([3, 0, 2, 1, 0, 3])
        data = np.array([0.25, -1.5, 1e-17, 0.0, -0.75, 2.0 / 3.0])
        theta = sparse.csr_matrix((data, indices, indptr), shape=(4, 4))
        assert not theta.has_sorted_indices
        assert_theta_exports_match(theta, QUOTED_LABELS)
        np.testing.assert_array_equal(theta.indices, indices)
        np.testing.assert_array_equal(theta.data, data)
        chunk.check_workers_used()

    def test_value_classes(self, chunk):
        """Every value class of the formatter's tests, explicit stored zeros included;
        the scatter's sign is -1 for 0.0, -0.0 and nan."""
        values = edge_values()
        labels = QUOTED_LABELS + ("é", "日本", "7", "8", "9")
        n = len(labels)
        cells = np.random.default_rng(8800).choice(n * n, len(values), replace=False)
        theta = sparse.csr_matrix((values, divmod(cells, n)), shape=(n, n))
        assert theta.nnz == len(values) and (theta.data == 0.0).sum() == 2
        assert_theta_exports_match(theta, labels)
        scatter = written_jointly(theta, labels)[1]
        for value in ("0.0", "-0.0", "nan"):
            assert f",{value},-1\n" in scatter
        padded = np.resize(values, (-(-len(values) // n), n))
        trajectory = Trajectory(
            ks=np.arange(len(padded)) * 3,
            states=padded,
            converged=False,
            final_residual=float("inf"),
            iterations_used=3 * (len(padded) - 1),
        )
        assert_trajectory_exports_match(trajectory, labels)
        chunk.check_workers_used()

    def test_a_long_label(self, chunk):
        labels = QUOTED_LABELS + tuple(str(i) for i in range(60)) + ("y" * 5000,)
        n = len(labels)
        theta = signed_theta(n, 300, 8801)
        assert theta[n - 1].nnz > 0 and theta[:, n - 1].nnz > 0
        assert_theta_exports_match(theta, labels)
        chunk.check_workers_used()

    def test_one_state_trajectory(self, chunk):
        trajectory = Trajectory(
            ks=np.array([0]),
            states=np.array([[0.5, -0.25, 1e-300, -0.0]]),
            converged=False,
            final_residual=float("inf"),
            iterations_used=0,
        )
        assert_trajectory_exports_match(trajectory, QUOTED_LABELS)
        chunk.check_workers_used()  # at a chunk of 3, the record's 4 values are two chunks

    def test_zero_node_trajectory(self, chunk):
        """Records of no values: the long file is its header, the wide file a
        ``k,`` line per record, with no warning on the way."""
        trajectory = Trajectory(
            ks=np.array([0, 1]),
            states=np.empty((2, 0)),
            converged=False,
            final_residual=float("inf"),
            iterations_used=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_trajectory_exports_match(trajectory, ())
            both = io.StringIO(), io.StringIO()
            trajectory_long_csv(trajectory, (), *both)
        assert [text.getvalue() for text in both] == ["k,node,opinion\n", "k,\n0,\n1,\n"]
        assert chunk.task_sizes == []


class TestChunkBoundaries:
    """Trajectory records of about one and two chunks of values: every chunk
    but an export's last is full, cut across records wherever it falls."""

    @pytest.mark.parametrize("chunks, offset", [(1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["chunk-1", "chunk", "chunk+1", "2chunk+1"])
    def test_records_around_the_chunk_size(self, chunk, chunks, offset):
        size = graph_module._CSV_CHUNK_ROWS
        n = chunks * size + offset
        records = 3
        trajectory = Trajectory(
            ks=np.arange(records) * 7,
            states=np.random.default_rng(8900 + n).uniform(-1.0, 1.0, (records, n)),
            converged=False,
            final_residual=float("inf"),
            iterations_used=7 * (records - 1),
        )
        labels = (QUOTED_LABELS + tuple(str(i) for i in range(n)))[:n]
        assert_trajectory_exports_match(trajectory, labels)
        full, rest = divmod(records * n, size)
        # one export for each file
        assert chunk.task_sizes == 2 * ([size] * full + [rest] * (rest > 0))
        chunk.check_workers_used()


class TestExportLog:
    """Each streaming export logs one INFO line when it is written, and nothing
    at the default level."""

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "two_workers"])
    def test_one_info_line_per_export(self, tmp_path, monkeypatch, caplog, cpus):
        monkeypatch.setattr(graph_module, "_CSV_CHUNK_ROWS", 3)
        set_cpus(monkeypatch, cpus)
        where = "in process" if cpus == 1 else "by 2 workers"
        theta = signed_theta(6, 10, 8810)
        trajectory = Trajectory(
            ks=np.array([0, 5]),
            states=np.random.default_rng(8811).uniform(-1.0, 1.0, (2, 4)),
            converged=False,
            final_residual=float("inf"),
            iterations_used=5,
        )
        paths = [tmp_path / name for name in ("theta.csv", "theta_scatter.csv",
                                              "trajectory_long.csv", "trajectory_wide.csv")]
        handles = [path.open("w", encoding="utf-8") for path in paths]
        with caplog.at_level(logging.WARNING, logger="signedfj"):
            trajectory_long_csv(trajectory, QUOTED_LABELS, io.StringIO(), io.StringIO())
        assert caplog.records == []
        with caplog.at_level(logging.INFO, logger="signedfj"):
            influence_triplets_csv(theta, tuple("abcdef"), *handles[:2])
            trajectory_long_csv(trajectory, QUOTED_LABELS, *handles[2:])
            trajectory_wide_csv(trajectory, io.StringIO())
        for handle in handles:
            handle.close()
        assert [r.getMessage() for r in caplog.records] == [
            f"Theta export: {paths[0]} (10 rows), {paths[1]} (10 rows); "
            f"4 chunks formatted {where}",
            f"trajectory export: {paths[2]} (8 rows), {paths[3]} (2 rows); "
            f"3 chunks formatted {where}",
            f"trajectory export: a stream (2 rows); 3 chunks formatted {where}",
        ]
        assert multiprocessing.active_children() == []


@pytest.fixture
def two_workers(monkeypatch):
    """Chunks of 3 rows formatted by two forked workers; none may outlive the test."""
    monkeypatch.setattr(graph_module, "_CSV_CHUNK_ROWS", 3)
    set_cpus(monkeypatch, 2)
    yield
    assert multiprocessing.active_children() == []


def chunked(format_chunk, tasks, on_write=None) -> list:
    """The chunks a ``_ChunkFormatter`` writes for ``tasks``, collected in a list.

    ``on_write(chunk, done)`` sees each chunk as it is written, ``done`` being
    the number written before it.
    """
    written = []

    def write(chunk):
        if on_write is not None:
            on_write(chunk, len(written))
        written.append(chunk)

    with graph_module._ChunkFormatter(format_chunk, write) as formatter:
        for task in tasks:
            formatter.submit(task)
        formatter.finish()
    return written


class FullDisk(io.StringIO):
    """A handle that fails as a full disk does once it holds more than three lines."""

    def write(self, text):
        if self.getvalue().count("\n") > 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)


class TestWorkers:
    def test_chunks_come_back_in_order_from_forked_workers(self, two_workers):
        def where(start, stop):  # a closure: it reaches the workers through fork
            return start, stop, os.getpid()

        results = chunked(where, graph_module._csv_chunks(40))
        assert [r[:2] for r in results] == list(graph_module._csv_chunks(40))
        pids = {r[2] for r in results}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_at_most_one_chunk_per_worker_in_flight(self, two_workers, monkeypatch):
        handed_out = []
        original_send = Connection.send

        def recording_send(conn, obj):
            if obj is not None:
                handed_out.append(obj)
            original_send(conn, obj)

        monkeypatch.setattr(Connection, "send", recording_send)
        in_flight = []

        def check(start, done):
            assert start == 3 * done
            # chunks handed out and not yet written, the one in hand included
            in_flight.append(len(handed_out) - done)

        chunked(lambda start, stop: start, graph_module._csv_chunks(60), check)
        assert len(handed_out) == 20
        assert max(in_flight) == 2

    def test_tasks_are_pulled_only_as_the_window_has_room(self, two_workers):
        pulled = []

        def tasks():
            for bounds in graph_module._csv_chunks(60):
                pulled.append(bounds)
                yield bounds

        def check(start, done):
            assert start == 3 * done
            # the window's chunks, the one in hand included, and the task waiting for room
            assert len(pulled) - done <= 2 + 1

        chunked(lambda start, stop: start, tasks(), check)
        assert len(pulled) == 20

    def test_no_warning_even_where_fork_warns_about_threads(self, two_workers, monkeypatch):
        original_fork = os.fork

        def warning_fork():  # word for word as Python 3.12+ in a process with threads
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return original_fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        theta = signed_theta(12, 40, 8800)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_theta_exports_match(theta, QUOTED_LABELS + tuple("abcdefgh"))

    def test_worker_exception_is_raised_by_the_writer(self, two_workers):
        def failing(start, stop):
            if start == 9:
                raise ValueError("cannot format chunk 3")
            return start

        with pytest.raises(ValueError, match="chunk 3"):
            chunked(failing, graph_module._csv_chunks(40))

    def test_a_worker_that_dies_fails_the_export_as_an_os_error(self, two_workers):
        parent = os.getpid()

        def dying(start, stop):
            if os.getpid() != parent and start == 9:
                os._exit(1)
            return start

        with pytest.raises(ChildProcessError, match="exited early"):
            chunked(dying, graph_module._csv_chunks(40))

    def test_workers_leave_an_interrupt_to_the_writer(self, two_workers):
        parent = os.getpid()

        def interrupted(start, stop):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGINT)  # as Ctrl-C reaches the process group
            return start

        assert chunked(interrupted, graph_module._csv_chunks(40)) == list(range(0, 40, 3))

    def test_records_larger_than_a_pipe_holds(self, monkeypatch):
        # a 40,000-value record (320 kB) written by two workers: the export cuts
        # it into 4096-value tasks of 32 kB, below what a socket pair buffers, so
        # this checks the cut across a record's width, the bytes and that no
        # worker is left behind; tasks and chunks larger than a socket pair
        # buffers are test_tasks_and_chunks_larger_than_a_pipe_holds'
        set_cpus(monkeypatch, 2)
        n = 40_000
        trajectory = Trajectory(
            ks=np.arange(6),
            states=np.random.default_rng(7).uniform(-1.0, 1.0, (6, n)),
            converged=True,
            final_residual=0.0,
            iterations_used=5,
        )

        def stalled(signum, frame):
            raise TimeoutError("the trajectory export stalled")

        previous = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(60)
        try:
            assert_trajectory_exports_match(trajectory, tuple(str(i) for i in range(n)))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_tasks_and_chunks_larger_than_a_pipe_holds(self, two_workers):
        # 1 MB each way, more than a socket pair buffers (about 200 kB on Linux):
        # a worker handed a task before its last chunk is taken back would wait
        # to send that chunk while the writer waits to send it the task
        def stalled(signum, frame):
            raise TimeoutError("the chunk formatter stalled")

        payloads = [bytes([k]) * (1 << 20) for k in range(6)]
        previous = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(60)
        try:
            assert chunked(lambda payload: payload, [(p,) for p in payloads]) == payloads
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_daemonic_process_formats_in_process(self, two_workers, monkeypatch):
        class Daemon:
            daemon = True

        monkeypatch.setattr(multiprocessing, "current_process", Daemon)
        chunks = chunked(lambda start, stop: os.getpid(), graph_module._csv_chunks(40))
        assert set(chunks) == {os.getpid()}

    def test_handle_error_mid_walk_stops_the_workers(self, two_workers):
        theta = signed_theta(12, 40, 8801)
        labels = tuple("abcdefghijkl")
        with pytest.raises(OSError, match="No space"):
            influence_triplets_csv(theta, labels, FullDisk(), io.StringIO())
        with pytest.raises(OSError, match="No space"):
            influence_triplets_csv(theta, labels, None, FullDisk())
        graph, beta, x0 = random_instance(8802, n_max=30)
        trajectory = simulate(graph, beta, x0, max_iters=25, stride=1)
        assert len(trajectory.ks) > 4
        with pytest.raises(OSError, match="No space"):
            trajectory_long_csv(trajectory, graph.labels, FullDisk(), io.StringIO())
        with pytest.raises(OSError, match="No space"):
            trajectory_wide_csv(trajectory, FullDisk())

    @pytest.mark.parametrize("command, name", [
        ("centrality", "theta.csv"), ("centrality", "theta_scatter.csv"),
        ("simulate", "trajectory_long.csv"), ("simulate", "trajectory_wide.csv"),
    ])
    def test_cli_exits_4_with_no_worker_left(self, two_workers, tmp_path, monkeypatch,
                                             capsys, command, name):
        original_write = cli._write

        def full_disk_write(out_dir, file_name, content):
            if file_name != name:
                return original_write(out_dir, file_name, content)

            def failing(handle):
                def write(text):
                    if handle.tell() > 1000:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    return type(handle).write(handle, text)

                handle.write = write
                content(handle)

            return original_write(out_dir, file_name, failing)

        monkeypatch.setattr(cli, "_write", full_disk_write)
        graph, beta = write_inputs(tmp_path)
        argv = [command, "--graph", str(graph), "--beta", str(beta),
                "--out-dir", str(tmp_path / "out")]
        if command == "simulate":
            argv += ["--x0", str(write_x0(tmp_path))]
        assert main(argv) == 4
        assert "No space left on device" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["theta.csv", "theta_scatter.csv"])
    def test_failed_theta_export_leaves_no_theta_file(self, two_workers, tmp_path, monkeypatch,
                                                      capsys, name):
        original_write = cli._write

        def full_disk_write(out_dir, file_name, content):
            if file_name != name:
                return original_write(out_dir, file_name, content)

            def failing(handle):
                def write(text):
                    if handle.tell() > 1000:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    return type(handle).write(handle, text)

                handle.write = write
                content(handle)

            return original_write(out_dir, file_name, failing)

        monkeypatch.setattr(cli, "_write", full_disk_write)
        graph, beta = write_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["centrality", "--graph", str(graph), "--beta", str(beta),
                     "--out-dir", str(out)]) == 4
        assert "No space left on device" in capsys.readouterr().err
        # both Theta files are written in one walk, and neither is left
        assert sorted(p.name for p in out.iterdir()) == ["centrality.csv"]


def traced_peak(path, write) -> int:
    """Peak traced allocation while ``write`` streams into ``path``."""
    with path.open("w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            write(out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
class TestBoundedMemory:
    """The writers hold one chunk of text, not the whole file.

    On one CPU the chunks are formatted in process, so the formatting
    temporaries count too; on two, forked workers format them.
    """

    def test_theta_export(self, tmp_path, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
        n = 2000
        theta = sparse.random(n, n, density=0.06, format="csr", random_state=7)
        assert theta.nnz >= 200_000
        labels = tuple(str(i) for i in range(n))
        path = tmp_path / "theta.csv"
        peak = traced_peak(path, lambda out: influence_triplets_csv(theta, labels, out))
        assert peak < path.stat().st_size / 4

    def test_joint_theta_export(self, tmp_path, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
        n = 2000
        theta = signed_theta(n, 240_000, 7)
        labels = tuple(str(i) for i in range(n))
        path, scatter_path = tmp_path / "theta.csv", tmp_path / "theta_scatter.csv"
        with scatter_path.open("w", encoding="utf-8") as scatter:
            peak = traced_peak(
                path, lambda out: influence_triplets_csv(theta, labels, out, scatter)
            )
        assert peak < (path.stat().st_size + scatter_path.stat().st_size) / 4

    def test_long_trajectory_export(self, tmp_path, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
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
    call given a scatter handle, so it never calls ``influence_scatter_csv``;
    ``simulate`` writes both trajectory files in one ``trajectory_long_csv``
    call given a wide handle, so it never calls ``trajectory_wide_csv``.
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
    assert calls == {"influence_triplets_csv": 1, "trajectory_long_csv": 1}
    exports = {path.name: path.stat().st_size for path in sizes_at_return}
    assert bytes_in_call == {name: exports[name] for name in (
        "theta.csv", "theta_scatter.csv", "trajectory_long.csv", "trajectory_wide.csv")}
    assert all(bytes_in_call.values())
    assert sizes_at_return == {path: path.stat().st_size for path in sizes_at_return}


def stored_trajectory_files(graph_path, beta_path, x0_path, **kwargs) -> tuple[str, str]:
    """Both trajectory files of a stored ``simulate`` run on the CLI's inputs."""
    graph = graph_module.parse_edge_list(graph_path.read_text(encoding="utf-8"))
    beta = np.zeros(graph.n)
    if beta_path is not None:
        beta, _ = graph_module.read_stubbornness(beta_path.read_text(encoding="utf-8"), graph)
    x0 = np.zeros(graph.n)
    if x0_path is not None:
        x0, _ = graph_module.read_initial_opinions(x0_path.read_text(encoding="utf-8"), graph)
    report = validate(graph, beta)
    trajectory = simulate(report.graph, report.beta, x0, **kwargs)
    out, wide = io.StringIO(), io.StringIO()
    trajectory_long_csv(trajectory, report.graph.labels, out, wide)
    return out.getvalue(), wide.getvalue()


# (CLI options, the same as simulate's keywords, exit code)
STREAMED_RUNS = {
    "stride_1": (["--stride", "1"], dict(stride=1), 0),
    "stride_10": (["--stride", "10"], dict(stride=10), 0),
    "budget_exhausted": (["--tol", "1e-300", "--max-iters", "25"],
                         dict(tol=1e-300, max_iters=25), 3),
}


class TestStreamedSimulate:
    """``signedfj simulate`` streams its records into the files a stored run would give."""

    @pytest.fixture(params=["chunk_3", "chunk_3_one_cpu"])
    def cpus(self, request, monkeypatch):
        yield Chunking(monkeypatch, request.param)
        assert multiprocessing.active_children() == []

    @staticmethod
    def simulate_cli(argv, out_dir) -> tuple[int, str, str]:
        code = main(["simulate", *argv, "--out-dir", str(out_dir)])
        return code, *((out_dir / name).read_text(encoding="utf-8")
                       for name in ("trajectory_long.csv", "trajectory_wide.csv"))

    @pytest.mark.parametrize("case", sorted(STREAMED_RUNS))
    def test_matches_the_stored_run(self, tmp_path, cpus, case):
        options, kwargs, exit_code = STREAMED_RUNS[case]
        graph, beta = write_inputs(tmp_path)
        x0 = write_x0(tmp_path)
        argv = ["--graph", str(graph), "--beta", str(beta), "--x0", str(x0), *options]
        code, *files = self.simulate_cli(argv, tmp_path / "out")
        assert code == exit_code
        assert tuple(files) == stored_trajectory_files(graph, beta, x0, **kwargs)
        assert files[1].count("\n") > 3  # a chunk of 3 rows is one record of 83 values
        cpus.check_workers_used()

    def test_zero_start(self, tmp_path, cpus):
        graph, beta = write_inputs(tmp_path)
        argv = ["--graph", str(graph), "--beta", str(beta)]
        code, *files = self.simulate_cli(argv, tmp_path / "out")
        assert code == 0
        assert tuple(files) == stored_trajectory_files(graph, beta, None)
        # zero is a fixed point: one patience window of steps, each recorded
        assert files[1].count("\n") == 1 + 11
        cpus.check_workers_used()

    def test_run_of_one_chunk_is_formatted_in_process(self, tmp_path, cpus):
        graph = tmp_path / "g.csv"
        graph.write_text("a,a,1\n", encoding="utf-8")
        x0 = tmp_path / "x0.csv"
        x0.write_text("a,0.5\n", encoding="utf-8")
        argv = ["--graph", str(graph), "--x0", str(x0), "--max-iters", "1"]
        code, *files = self.simulate_cli(argv, tmp_path / "out")
        assert code == 3
        # two records of one value: one chunk of 3 rows
        assert files == ["k,node,opinion\n0,a,0.5\n1,a,0.5\n", "k,x_0\n0,0.5\n1,0.5\n"]
        assert tuple(files) == stored_trajectory_files(graph, None, x0, max_iters=1)
        cpus.check_workers_used(multi_chunk=False)

    def test_failed_run_leaves_no_trajectory_files(self, tmp_path, cpus, monkeypatch, capsys):
        real = dynamics.row_normalized
        # each step scales the opinions by 1e60, so a few steps in they overflow
        monkeypatch.setattr(dynamics, "row_normalized", lambda graph: real(graph) * 1e60)
        written_before_failure = []
        real_write = cli._write

        def recording_write(out_dir, name, content):
            def content_then_size(handle):
                try:
                    content(handle)
                finally:
                    written_before_failure.append((name, handle.tell()))

            return real_write(out_dir, name, content_then_size)

        monkeypatch.setattr(cli, "_write", recording_write)
        graph, beta = write_inputs(tmp_path)
        x0 = write_x0(tmp_path)
        out = tmp_path / "out"
        argv = ["--graph", str(graph), "--beta", str(beta), "--x0", str(x0), "--stride", "1"]
        assert main(["simulate", *argv, "--out-dir", str(out)]) == 5
        assert "non-finite opinion at iteration" in capsys.readouterr().err
        # both files held records when the run failed, and neither is left
        assert sorted(name for name, _ in written_before_failure) == [
            "trajectory_long.csv", "trajectory_wide.csv"]
        assert all(size > 1000 for _, size in written_before_failure)
        assert sorted(p.name for p in out.iterdir()) == []
