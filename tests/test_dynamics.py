import io
import os
import tracemalloc

import numpy as np
import pytest

from signedfj import (
    NumericalError,
    SignedDigraph,
    build_update_system,
    canonical_ordering,
    classify_agents,
    condense,
    row_normalized,
    simulate,
    strongly_connected_components,
    validate,
)
from signedfj.dynamics import trajectory_long_csv, trajectory_wide_csv
from instances import (
    micro_antagonistic,
    micro_stubborn,
    random_instance,
    sc_unbalanced,
    triangle,
)
from oracles import simulate_by_list


def make_system(graph, beta):
    sccs = strongly_connected_components(graph)
    dag = condense(graph, sccs)
    cls = classify_agents(graph, sccs, dag, beta)
    return build_update_system(graph, beta, canonical_ordering(cls))


class TestRowNormalization:
    def test_signed_row(self):
        g = SignedDigraph.from_edges(
            ["a", "b", "c"], [(0, 0, 2), (0, 1, -1), (0, 2, 1), (1, 0, 1), (2, 0, 1)]
        )
        q = row_normalized(g).toarray()
        assert q[0].tolist() == [0.5, -0.25, 0.25]

    def test_isolated_node_gets_unit_row(self):
        g = SignedDigraph.from_edges(["a", "b"], [(1, 0, 1)])
        q = row_normalized(g).toarray()
        assert q[0].tolist() == [1.0, 0.0]

    def test_stubbornness_scales_rows(self):
        graph, beta = micro_stubborn()
        system = make_system(graph, beta)
        p = system.update_matrix.toarray()
        assert p.tolist() == [[0.25, 0.25], [0.5, 0.5]]

    @pytest.mark.parametrize("seed", range(15))
    def test_rows_absolute_sums_are_one(self, seed):
        graph, _, _ = random_instance(6000 + seed, n_max=40)
        q = row_normalized(graph)
        sums = np.asarray(abs(q).sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_block_triangular_shape(self, seed):
        graph, beta, _ = random_instance(6100 + seed, n_max=40)
        system = make_system(graph, beta)
        p = system.update_matrix.toarray()
        m = system.ordering.follower_count
        for k in range(len(system.ordering.sink_offsets)):
            sl = system.ordering.sink_slice(k)
            rows = p[sl]
            outside = np.ones(system.n, dtype=bool)
            outside[sl] = False
            assert np.all(rows[:, outside] == 0.0)
        assert m + sum(system.ordering.sink_sizes) == system.n

    def test_wrong_shape_beta_rejected(self):
        graph, beta = micro_stubborn()
        ordering = make_system(graph, beta).ordering
        with pytest.raises(ValueError, match=r"^beta has shape \(3,\), expected \(2,\)$"):
            build_update_system(graph, np.zeros(3), ordering)


def first_iterate(graph, beta, x0):
    """x(1) as recorded by ``simulate``: one synchronous update from x(0) = x0."""
    trajectory = simulate(graph, beta, x0, max_iters=1, stride=1)
    assert trajectory.ks.tolist() == [0, 1]
    return trajectory.states[1]


class TestStep:
    def test_no_stubbornness_is_plain_averaging(self):
        graph, _ = micro_antagonistic()
        x = np.array([0.2, -0.4])
        expected = row_normalized(graph) @ x
        assert np.allclose(first_iterate(graph, np.zeros(2), x), expected, atol=1e-15)

    def test_origin_is_fixed_point(self):
        graph, beta = micro_stubborn()
        out = first_iterate(graph, beta, np.zeros(2))
        assert out.tolist() == [0.0, 0.0]

    def test_antagonistic_hand_step(self):
        graph, _ = micro_antagonistic()
        out = first_iterate(graph, np.zeros(2), np.array([1.0, 0.0]))
        assert out.tolist() == [0.5, -0.5]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_agent_evaluation(self, seed):
        graph, beta, _ = random_instance(6200 + seed, n_max=25)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, graph.n)
        fast = first_iterate(graph, beta, x0)
        # matrix-free evaluation of the same rule, one agent at a time
        slow = np.zeros(graph.n)
        weights = {}
        for s, t, w in graph.edge_triples():
            weights.setdefault(s, []).append((t, w))
        for i in range(graph.n):
            row = weights.get(i, [])
            total = sum(abs(w) for _, w in row)
            if total == 0.0:
                avg = x0[i]
            else:
                avg = sum(w * x0[t] for t, w in row) / total
            slow[i] = beta[i] * x0[i] + (1 - beta[i]) * avg
        assert np.max(np.abs(fast - slow)) <= 1e-14


class TestSimulate:
    def test_unbalanced_sink_decays_to_zero(self):
        g = sc_unbalanced()
        trajectory = simulate(g, np.zeros(3), np.array([0.9, -0.2, 0.4]), tol=1e-13)
        assert trajectory.converged
        assert np.max(np.abs(trajectory.final)) < 1e-10

    def test_stubborn_two_node_limit(self):
        graph, beta = micro_stubborn()
        trajectory = simulate(graph, beta, np.array([1.0, 0.0]), tol=1e-13)
        assert trajectory.converged
        assert np.allclose(trajectory.final, [1.0, 1.0], atol=1e-10)

    def test_antagonistic_two_node_limit(self):
        graph, _ = micro_antagonistic()
        trajectory = simulate(graph, np.zeros(2), np.array([1.0, 0.0]), tol=1e-13)
        assert np.allclose(trajectory.final, [0.5, -0.5], atol=1e-12)

    def test_cooperative_iterates_stay_in_initial_hull(self):
        graph, beta = micro_stubborn()
        x0 = np.array([1.0, 0.0])
        trajectory = simulate(graph, beta, x0, tol=1e-13)
        assert np.all(trajectory.states >= -1e-15)
        assert np.all(trajectory.states <= 1.0 + 1e-15)

    def test_antagonistic_iterates_escape_initial_hull(self):
        graph, _ = micro_antagonistic()
        trajectory = simulate(graph, np.zeros(2), np.array([1.0, 0.0]), tol=1e-13)
        assert trajectory.final[1] < 0.0  # outside [0, 1]

    def test_positive_rows_keep_constant_vector_fixed(self):
        g = triangle([1, 1, 1])
        system = make_system(g, np.zeros(3))
        p = system.update_matrix.toarray()
        assert np.allclose(p.sum(axis=1), 1.0, atol=0)
        ones = np.ones(3)
        trajectory = simulate(g, np.zeros(3), ones, tol=1e-13)
        assert trajectory.iterations_used <= 20
        assert np.allclose(trajectory.final, ones, atol=0)

    def test_budget_exhaustion_is_not_an_exception(self):
        g = triangle([1, 1, 1])
        trajectory = simulate(g, np.zeros(3), np.array([1.0, 0.0, -1.0]),
                              tol=1e-13, max_iters=3)
        assert not trajectory.converged
        assert trajectory.iterations_used == 3

    def test_zero_start_converges_immediately(self):
        graph, _ = micro_antagonistic()
        trajectory = simulate(graph, np.zeros(2), np.zeros(2))
        assert trajectory.converged
        assert trajectory.iterations_used == 10  # one patience window
        assert np.all(trajectory.states == 0.0)

    def test_non_finite_start_rejected(self):
        graph, _ = micro_antagonistic()
        with pytest.raises(NumericalError):
            simulate(graph, np.zeros(2), np.array([np.nan, 0.0]))

    def test_stride_records_final_iterate(self):
        graph, beta = micro_stubborn()
        trajectory = simulate(graph, beta, np.array([1.0, 0.0]), stride=7, tol=1e-13)
        assert trajectory.ks[0] == 0
        assert trajectory.ks[-1] == trajectory.iterations_used
        mid = trajectory.ks[1:-1]
        assert np.all(mid % 7 == 0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        graph, beta = micro_stubborn()
        with pytest.raises(ValueError, match="tol"):
            simulate(graph, beta, np.array([1.0, 0.0]), tol=tol)

    @pytest.mark.parametrize("option", ["patience", "max_iters", "stride"])
    def test_counts_must_be_at_least_one(self, option):
        graph, beta = micro_stubborn()
        with pytest.raises(ValueError, match=f"^{option} must be at least 1$"):
            simulate(graph, beta, np.array([1.0, 0.0]), **{option: 0})

    def test_wrong_shape_start_rejected(self):
        graph, beta = micro_stubborn()
        with pytest.raises(ValueError, match=r"^x0 has shape \(3,\), expected \(2,\)$"):
            simulate(graph, beta, np.zeros(3))


def assert_same_trajectory(got, expected):
    assert got.ks.dtype == np.int64 and got.ks.tolist() == expected.ks.tolist()
    assert got.states.dtype == np.float64 and got.states.flags.c_contiguous
    assert got.states.shape == (len(got.ks), expected.states.shape[1])
    assert got.states.tobytes() == expected.states.tobytes()
    assert got.converged == expected.converged
    assert got.iterations_used == expected.iterations_used
    assert repr(got.final_residual) == repr(expected.final_residual)


class TestRecording:
    """``simulate`` against the list-of-states reference loop, bit for bit."""

    @staticmethod
    def instance(seed):
        graph, beta, x0 = random_instance(8600 + seed, n_max=40)
        report = validate(graph, beta)
        return report.graph, report.beta, x0

    @pytest.mark.parametrize("stride", [1, 3, 10])
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_reference_loop(self, seed, stride):
        graph, beta, x0 = self.instance(seed)
        kwargs = dict(tol=1e-12, max_iters=2000, stride=stride)
        assert_same_trajectory(simulate(graph, beta, x0, **kwargs),
                               simulate_by_list(graph, beta, x0, **kwargs))

    @pytest.mark.parametrize("stride", [1, 3, 10])
    @pytest.mark.parametrize("max_iters", [1, 7, 63, 64, 128])  # 64-row blocks
    def test_budget_exhaustion_matches_reference_loop(self, max_iters, stride):
        graph, beta, x0 = self.instance(0)
        kwargs = dict(tol=1e-300, max_iters=max_iters, stride=stride)
        got = simulate(graph, beta, x0, **kwargs)
        assert not got.converged and got.iterations_used == max_iters
        assert_same_trajectory(got, simulate_by_list(graph, beta, x0, **kwargs))

    @pytest.mark.parametrize("stride", [1, 3, 10])
    def test_zero_start_matches_reference_loop(self, stride):
        graph, beta, _ = self.instance(1)
        x0 = np.zeros(graph.n)
        got = simulate(graph, beta, x0, stride=stride)
        assert got.converged and got.final_residual == 0.0
        assert_same_trajectory(got, simulate_by_list(graph, beta, x0, stride=stride))

    def test_records_cost_one_array(self):
        # a 600-node positive cycle rotates its opinions forever: every step is recorded
        n, steps = 600, 1200
        g = SignedDigraph.from_edges([f"v{i}" for i in range(n)],
                                     [(i, (i + 1) % n, 1.0) for i in range(n)])
        x0 = np.random.default_rng(0).uniform(-1, 1, n)
        tracemalloc.start()
        try:
            trajectory = simulate(g, np.zeros(n), x0, max_iters=steps, stride=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trajectory.ks) == steps + 1
        assert peak < 1.25 * trajectory.states.nbytes


class TestRecordSink:
    """A ``record`` sink sees what a stored run keeps, and the run keeps none of it."""

    @pytest.mark.parametrize("stride", [1, 3, 10])
    @pytest.mark.parametrize("seed", range(10))
    def test_sink_sees_the_stored_records(self, seed, stride):
        graph, beta, x0 = TestRecording.instance(seed)
        kwargs = dict(tol=1e-12, max_iters=2000, stride=stride)
        stored = simulate(graph, beta, x0, **kwargs)
        seen = []
        streamed = simulate(graph, beta, x0, **kwargs,
                            record=lambda k, x: seen.append((k, x.copy())))
        assert [k for k, _ in seen] == stored.ks.tolist() == streamed.ks.tolist()
        assert np.array([x for _, x in seen]).tobytes() == stored.states.tobytes()
        assert streamed.states.shape == (1, graph.n)
        assert streamed.final.tobytes() == stored.final.tobytes()
        assert streamed.converged == stored.converged
        assert streamed.iterations_used == stored.iterations_used
        assert repr(streamed.final_residual) == repr(stored.final_residual)

    def test_streamed_export_memory_does_not_grow_with_the_run(self, tmp_path, monkeypatch):
        # one CPU, so every record is formatted and written in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        # a 600-node positive cycle rotates its opinions forever: every step is recorded
        n = 600
        g = SignedDigraph.from_edges([f"v{i}" for i in range(n)],
                                     [(i, (i + 1) % n, 1.0) for i in range(n)])
        x0 = np.random.default_rng(0).uniform(-1, 1, n)

        def peak(steps):
            def run(record):
                return simulate(g, np.zeros(n), x0, max_iters=steps, stride=1, record=record)

            with open(os.devnull, "w", encoding="utf-8") as out, \
                    open(os.devnull, "w", encoding="utf-8") as wide:
                tracemalloc.start()
                try:
                    trajectory = trajectory_long_csv(run, g.labels, out, wide)
                    return trajectory, tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        short, short_peak = peak(120)
        long, long_peak = peak(1200)
        assert len(short.ks) == 121 and len(long.ks) == 1201
        assert long_peak < 1.25 * short_peak


class TestTrajectoryExport:
    def test_long_format(self):
        graph, _ = micro_antagonistic()
        trajectory = simulate(graph, np.zeros(2), np.array([1.0, 0.0]), max_iters=2,
                              tol=1e-13)
        out = io.StringIO()
        trajectory_long_csv(trajectory, graph.labels, out)
        text = out.getvalue()
        lines = text.strip().splitlines()
        assert lines[0] == "k,node,opinion"
        assert lines[1] == "0,a,1.0"
        assert lines[2] == "0,b,0.0"

    def test_wide_format(self):
        graph, _ = micro_antagonistic()
        trajectory = simulate(graph, np.zeros(2), np.array([1.0, 0.0]), max_iters=2,
                              tol=1e-13)
        out = io.StringIO()
        trajectory_wide_csv(trajectory, out)
        text = out.getvalue()
        lines = text.strip().splitlines()
        assert lines[0] == "k,x_0,x_1"
        assert lines[1] == "0,1.0,0.0"
