import logging
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import splu

from signedfj import (
    NumericalError,
    Regime,
    SignedDigraph,
    SinkClass,
    SolutionKind,
    absolute_centrality,
    analyze_network,
    influence,
    influence_matrix,
    simulate,
    solve_followers,
    solve_sink,
    spectral_check,
    steady_state,
    validate,
)
from instances import (
    SUITE_SEED,
    SUITE_SIZE,
    many_two_node_sinks,
    micro_antagonistic,
    micro_chain,
    micro_stubborn,
    mixed_sinks,
    random_instance,
    sc_cooperative,
    sc_unbalanced,
    weak_two_sinks,
)
from oracles import (
    block_solve_by_joined_panels,
    influence_by_iteration,
    influence_by_joined_panels,
    limit_by_iteration,
    sweeps_by_column,
)


class TestSpectralCheck:
    def test_cooperative_non_stubborn_is_semi_convergent(self):
        g = sc_cooperative()
        analysis = analyze_network(g, np.zeros(3))
        assert analysis.spectral.regime is Regime.SEMI_CONVERGENT
        assert abs(analysis.spectral.spectral_radius - 1.0) < 1e-9

    def test_one_stubborn_agent_makes_it_convergent(self):
        g = sc_cooperative()
        analysis = analyze_network(g, np.array([0.3, 0.0, 0.0]))
        assert analysis.spectral.regime is Regime.CONVERGENT
        assert analysis.spectral.spectral_radius < 1.0 - 1e-6

    def test_unbalanced_sink_is_convergent(self):
        g = sc_unbalanced()
        analysis = analyze_network(g, np.zeros(3))
        assert analysis.spectral.regime is Regime.CONVERGENT
        assert analysis.spectral.spectral_radius < 1.0 - 1e-6

    def test_regime_is_decided_structurally(self):
        analysis = analyze_network(*micro_antagonistic())
        assert analysis.classification.s_ns == {0}
        assert analysis.spectral.regime is Regime.SEMI_CONVERGENT


class TestSolveSink:
    def test_singleton_sink_is_trivial_eigenpair(self):
        graph, beta = micro_chain()
        analysis = analyze_network(graph, beta)
        solution = analysis.sink_solutions[0]
        assert solution.kind is SolutionKind.EIGENPAIR
        assert solution.right_vec.tolist() == [1.0]
        assert solution.left_vec.tolist() == [1.0]

    def test_antagonistic_eigenpair(self):
        graph, beta = micro_antagonistic()
        analysis = analyze_network(graph, beta)
        solution = analysis.sink_solutions[0]
        assert solution.kind is SolutionKind.EIGENPAIR
        assert np.allclose(solution.right_vec, [1.0, -1.0], atol=1e-12)
        assert np.allclose(solution.left_vec, [0.5, -0.5], atol=1e-12)
        # cross-check against the iteration oracle
        limit = limit_by_iteration(graph, beta, np.array([1.0, 0.0]))
        assert np.allclose(solution.apply(np.array([1.0, 0.0])), limit, atol=1e-10)

    def test_stubborn_sink_resolvent(self):
        graph, beta = micro_stubborn()
        analysis = analyze_network(graph, beta)
        solution = analysis.sink_solutions[0]
        assert solution.kind is SolutionKind.RESOLVENT
        assert np.allclose(solution.limit_matrix(), [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)

    def test_unbalanced_non_stubborn_sink_is_zero(self):
        g = sc_unbalanced()
        analysis = analyze_network(g, np.zeros(3))
        assert analysis.sink_solutions[0].kind is SolutionKind.ZERO

    def test_eigenpair_sign_convention_follows_bipartition(self):
        graph, beta = weak_two_sinks()
        analysis = analyze_network(graph, beta)
        for solution in analysis.sink_solutions:
            if solution.kind is not SolutionKind.EIGENPAIR:
                continue
            sink = analysis.classification.sinks[solution.sink_index]
            assert np.array_equal(np.sign(solution.right_vec), sink.bipartition)
            assert solution.right_vec[0] == 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_eigenpair_and_resolvent_invariants(self, seed):
        graph, beta, _ = random_instance(8000 + seed, n_max=30)
        report = validate(graph, beta)
        analysis = analyze_network(report.graph, report.beta)
        for solution in analysis.sink_solutions:
            block = analysis.system.sink_block(solution.sink_index).toarray()
            if solution.kind is SolutionKind.EIGENPAIR:
                v, w = solution.right_vec, solution.left_vec
                assert np.max(np.abs(block @ v - v)) <= 1e-10
                assert np.max(np.abs(w @ block - w)) <= 1e-10
                assert abs(w @ v - 1.0) <= 1e-10
                assert np.all(w != 0.0)
            elif solution.kind is SolutionKind.RESOLVENT:
                m = solution.limit_matrix()
                beta_block = np.diag(report.beta[list(solution.members)])
                assert np.max(np.abs((np.eye(len(m)) - block) @ m - beta_block)) <= 1e-10


class TestSolveFollowers:
    def test_chain_inherits_sink_opinion(self):
        graph, beta = micro_chain()
        analysis = analyze_network(graph, beta)
        x0 = np.array([0.2, 0.9])
        x1 = solve_followers(analysis.system, analysis.sink_solutions, x0)
        assert np.allclose(x1, [0.9], atol=1e-12)

    def test_no_followers_is_a_noop(self):
        graph, beta = micro_antagonistic()
        analysis = analyze_network(graph, beta)
        out = solve_followers(analysis.system, analysis.sink_solutions, np.array([1.0, 0.0]))
        assert out.shape == (0,)

    def test_follower_feeding_unbalanced_sink_goes_neutral(self):
        edges = [
            (0, 1, 1),
            (1, 2, 1), (2, 3, 1), (3, 1, -1),
            (1, 1, 1), (2, 2, 1), (3, 3, 1),
        ]
        g = SignedDigraph.from_edges(["f", "s0", "s1", "s2"], edges)
        analysis = analyze_network(g, np.zeros(4))
        x0 = np.array([0.8, 0.5, -0.3, 0.1])
        x1 = solve_followers(analysis.system, analysis.sink_solutions, x0)
        assert np.allclose(x1, [0.0], atol=1e-12)
        limit = limit_by_iteration(g, np.zeros(4), x0)
        assert np.max(np.abs(limit)) < 1e-10


class TestInfluenceMatrix:
    def test_stubborn_two_node(self):
        graph, beta = micro_stubborn()
        theta = influence(graph, beta).matrix.toarray()
        assert np.allclose(theta, [[1.0, 0.0], [1.0, 0.0]], atol=1e-10)

    def test_chain_to_singleton(self):
        graph, beta = micro_chain()
        theta = influence(graph, beta).matrix.toarray()
        assert np.allclose(theta, [[0.0, 1.0], [0.0, 1.0]], atol=1e-12)

    def test_degroot_consensus_rows_are_left_eigenvector(self):
        g = sc_cooperative()
        analysis = analyze_network(g, np.zeros(3))
        theta = analysis.influence.matrix.toarray()
        w = analysis.sink_solutions[0].left_vec
        assert np.allclose(theta, np.ones((3, 1)) @ w.reshape(1, -1), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_iteration_oracle(self, seed):
        graph, beta, _ = random_instance(8100 + seed, n_max=12)
        report = validate(graph, beta)
        theta = influence(report.graph, report.beta).matrix.toarray()
        expected = influence_by_iteration(report.graph, report.beta)
        assert np.max(np.abs(theta - expected)) <= 1e-8

    def test_zero_columns_for_non_influential_agents(self):
        graph, beta = weak_two_sinks(stubborn_leader=0.5)
        result = influence(graph, beta)
        c = result.centrality
        # follower (0) and the non-stubborn partner (2) of the stubborn leader
        # are non-influential; the stubborn leader (1) and the stubborn-free
        # balanced sink {3, 4} are influential
        assert c[0] == 0.0
        assert c[2] == 0.0
        assert c[1] > 0.0 and c[3] > 0.0 and c[4] > 0.0

    def test_veto_effect_zeroes_partner_columns(self):
        graph, beta = weak_two_sinks()
        free = influence(graph, beta)
        assert free.centrality[2] > 0.0
        stubbed_graph, stubbed_beta = weak_two_sinks(stubborn_leader=0.5)
        stubbed = influence(stubbed_graph, stubbed_beta)
        assert stubbed.centrality[2] == 0.0


class TestAbsoluteCentrality:
    def test_column_sums(self):
        graph, beta = micro_stubborn()
        result = influence(graph, beta)
        assert np.allclose(result.centrality, [2.0, 0.0], atol=1e-10)
        assert result.ranking.tolist() == [0, 1]

    def test_zero_matrix(self):
        g = sc_unbalanced()
        result = influence(g, np.zeros(3))
        assert result.matrix.nnz == 0
        assert result.centrality.tolist() == [0.0, 0.0, 0.0]
        assert result.ranking.tolist() == [0, 1, 2]

    def test_antagonistic_centrality(self):
        graph, beta = micro_antagonistic()
        result = influence(graph, beta)
        assert np.allclose(result.centrality, [1.0, 1.0], atol=1e-10)
        assert result.ranking.tolist() == [0, 1]

    def test_ties_break_by_index(self):
        from scipy import sparse

        theta = sparse.csr_matrix(np.array([[0.0, 0.5, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 0.0]]))
        c, ranking = absolute_centrality(theta)
        assert c.tolist() == [0.0, 1.0, 1.0]
        assert ranking.tolist() == [1, 2, 0]


class TestSteadyState:
    def test_micro_cases(self):
        graph, beta = micro_stubborn()
        assert np.allclose(steady_state(graph, beta, np.array([1.0, 0.0])),
                           [1.0, 1.0], atol=1e-10)
        graph, beta = micro_antagonistic()
        assert np.allclose(steady_state(graph, beta, np.array([1.0, 0.0])),
                           [0.5, -0.5], atol=1e-10)
        graph, beta = micro_chain()
        assert np.allclose(steady_state(graph, beta, np.array([0.0, 0.4])),
                           [0.4, 0.4], atol=1e-10)

    def test_zero_start_maps_to_zero(self):
        for graph, beta in (micro_stubborn(), micro_antagonistic(), micro_chain()):
            assert np.all(steady_state(graph, beta, np.zeros(graph.n)) == 0.0)

    def test_wrong_shape_start_rejected(self):
        graph, beta = micro_stubborn()
        with pytest.raises(ValueError, match=r"^x0 has shape \(3,\), expected \(2,\)$"):
            analyze_network(graph, beta).steady_state(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, bad):
        graph, beta = micro_stubborn()
        with pytest.raises(NumericalError, match="^initial opinions contain non-finite entries$"):
            analyze_network(graph, beta).steady_state(np.array([1.0, bad]))

    def test_linearity_in_x0(self):
        graph, beta, x0 = random_instance(8200, n_max=20)
        report = validate(graph, beta)
        one = steady_state(report.graph, report.beta, x0)
        scaled = steady_state(report.graph, report.beta, 3.5 * x0)
        assert np.allclose(scaled, 3.5 * one, atol=1e-9)

    def test_bipartite_consensus_split(self):
        graph, beta = weak_two_sinks()
        x0 = np.array([0.3, 0.8, -0.1, 0.9, 0.2])
        x = steady_state(graph, beta, x0)
        sink = next(s for s in analyze_network(graph, beta).classification.sinks
                    if s.sink_class is SinkClass.ANTAGONISTIC_SB)
        values = x[list(sink.members)]
        sigma = np.asarray(sink.bipartition)
        assert abs(values[0] + values[1]) <= 1e-9  # equal magnitude, opposite sign
        assert np.allclose(values, sigma * abs(values[0]), atol=1e-9)

    def test_fj_reduction_on_all_positive_graph(self):
        # all-positive, every agent with a path to a stubborn agent
        rng = np.random.default_rng(3)
        n = 12
        edges = [(i, i, 1.0) for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3:
                    edges.append((i, j, float(rng.uniform(0.5, 1.5))))
        g = SignedDigraph.from_edges([f"n{i}" for i in range(n)], edges)
        beta = np.zeros(n)
        beta[[2, 7]] = [0.4, 0.6]
        report = validate(g, beta)
        analysis = analyze_network(report.graph, report.beta)
        if analysis.classification.s_ns:
            pytest.skip("random draw left a stubborn-free sink; not the FJ regime")
        from signedfj import row_normalized

        q = row_normalized(report.graph).toarray()
        fj = np.linalg.solve(np.eye(n) - (np.eye(n) - np.diag(report.beta)) @ q,
                             np.diag(report.beta))
        theta = analysis.influence.matrix.toarray()
        assert np.max(np.abs(theta - fj)) <= 1e-9


class TestAllPositiveRowSums:
    @pytest.mark.parametrize("seed", range(6))
    def test_influence_rows_sum_to_one(self, seed):
        # with only positive weights the limit is a convex combination,
        # so every influence row sums to exactly one
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(3, 15))
        edges = [(i, i, 1.0) for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3:
                    edges.append((i, j, float(rng.uniform(0.5, 1.5))))
        g = SignedDigraph.from_edges([f"n{i}" for i in range(n)], edges)
        beta = np.zeros(n)
        stubborn = rng.random(n) < 0.3
        beta[stubborn] = rng.uniform(0.2, 0.8, int(stubborn.sum()))
        theta = influence(g, beta).matrix.toarray()
        assert np.max(np.abs(theta.sum(axis=1) - 1.0)) <= 1e-9


class TestLargeGraphSpectralPath:
    def test_blockwise_estimates_beyond_dense_cutoff(self):
        # 230 nodes: a 30-follower chain feeding a 200-node cooperative ring
        edges = []
        for i in range(29):
            edges.append((i, i + 1, 1.0))
        edges.append((29, 30, 1.0))
        for k in range(200):
            i = 30 + k
            edges.append((i, 30 + (k + 1) % 200, 1.0))
            edges.append((i, i, 1.0))
        g = SignedDigraph.from_edges([f"n{i}" for i in range(230)], edges)
        analysis = analyze_network(g, np.zeros(230))
        assert analysis.spectral.regime is Regime.SEMI_CONVERGENT
        assert abs(analysis.spectral.spectral_radius - 1.0) <= 1e-9
        assert analysis.spectral.spectral_radius <= analysis.spectral.spectral_radius_abs + 1e-9


def _leaky_ring(followers: int, *, sink_beta: float) -> tuple[SignedDigraph, np.ndarray]:
    """A follower ring with one negative edge and a slow leak into a singleton sink."""
    edges = [(f"f{i}", f"f{i}", 1.0) for i in range(followers)]
    edges += [(f"f{i}", f"f{(i + 1) % followers}", -1.0 if i == 0 else 1.0)
              for i in range(followers)]
    edges += [("f0", "z", 0.01), ("z", "z", 1.0)]
    labels = [f"f{i}" for i in range(followers)] + ["z"]
    beta = np.zeros(followers + 1)
    beta[-1] = sink_beta
    return SignedDigraph.from_edges(labels, edges), beta


class TestSpectralOracle:
    """Blockwise radii against the eigenvalues of the whole update matrix."""

    @staticmethod
    def assert_matches_whole_matrix(analysis):
        dense = analysis.system.update_matrix.toarray()
        radius = np.max(np.abs(np.linalg.eigvals(dense)))
        radius_abs = np.max(np.abs(np.linalg.eigvals(np.abs(dense))))
        assert abs(analysis.spectral.spectral_radius - radius) <= 1e-12
        assert abs(analysis.spectral.spectral_radius_abs - radius_abs) <= 1e-12

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        graph, beta, _ = random_instance(8200 + seed, n_max=60)
        report = validate(graph, beta)
        self.assert_matches_whole_matrix(analyze_network(report.graph, report.beta))

    def test_random_seeds_cover_both_regimes(self):
        regimes = set()
        for seed in range(40):
            graph, beta, _ = random_instance(8200 + seed, n_max=60)
            report = validate(graph, beta)
            regimes.add(analyze_network(report.graph, report.beta).spectral.regime)
        assert regimes == {Regime.CONVERGENT, Regime.SEMI_CONVERGENT}

    def test_follower_block_is_the_maximum(self):
        graph, beta = _leaky_ring(12, sink_beta=0.5)
        analysis = analyze_network(graph, beta)
        assert analysis.spectral.regime is Regime.CONVERGENT
        assert analysis.spectral.sink_spectral_radii == (0.5,)
        assert analysis.spectral.spectral_radius > 0.9
        self.assert_matches_whole_matrix(analysis)


def _count_factorizations(monkeypatch) -> dict[str, list[tuple[int, int]]]:
    """Record the shape of every dense and sparse LU the solver starts."""
    import signedfj.solve

    shapes = {"lu_factor": [], "splu": []}
    for name in shapes:
        real = getattr(signedfj.solve, name)

        def counting(a, *args, _real=real, _name=name, **kwargs):
            shapes[_name].append(a.shape)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(signedfj.solve, name, counting)
    return shapes


def _factor_itemsizes(monkeypatch) -> list[int]:
    """Record the itemsize of every array the solver hands to dense LU."""
    import signedfj.solve

    itemsizes = []
    real = signedfj.solve.lu_factor

    def recording(a, *args, **kwargs):
        itemsizes.append(a.itemsize)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(signedfj.solve, "lu_factor", recording)
    return itemsizes


def _on_assembly(monkeypatch, probe) -> list:
    """Record ``probe()`` each time a block solve's pieces start to be joined.

    In ``influence_matrix`` that join is where Theta's assembly starts.
    """
    from signedfj.solve import _SolvedColumns

    seen = []
    real_join = _SolvedColumns.join

    def join(self):
        seen.append(probe())
        return real_join(self)

    monkeypatch.setattr(_SolvedColumns, "join", join)
    return seen


def _leaky_follower_ring_pieces(followers: int):
    """The system, classification and sink solutions of :func:`_leaky_follower_ring`."""
    analysis = analyze_network(*_leaky_follower_ring(followers))
    return analysis.system, analysis.classification, analysis.sink_solutions


def _leaky_follower_ring(followers: int) -> tuple[SignedDigraph, np.ndarray]:
    """A signed follower ring, every fifth follower leaking into one stubborn sink.

    Every fourth follower is stubborn, so Theta's follower rows have a
    dense column per stubborn follower plus the sink's.
    """
    labels = [f"f{i}" for i in range(followers)] + ["z"]
    edges = [(f"f{i}", f"f{i}", 1.0) for i in range(followers)]
    edges += [(f"f{i}", f"f{(i + 1) % followers}", -1.0 if i % 7 == 0 else 1.0)
              for i in range(followers)]
    edges += [(f"f{i}", "z", 0.25) for i in range(0, followers, 5)]
    edges += [("z", "z", 1.0)]
    beta = np.zeros(followers + 1)
    beta[:followers:4] = 0.05
    beta[-1] = 0.5
    return SignedDigraph.from_edges(labels, edges), beta


class TestFollowerFactorization:
    def test_follower_block_is_factored_once_per_analysis(self, monkeypatch):
        followers = 80
        graph, beta = _leaky_ring(followers, sink_beta=0.0)
        analysis = analyze_network(graph, beta)
        assert analysis.spectral.regime is Regime.SEMI_CONVERGENT
        shapes = _count_factorizations(monkeypatch)
        x = analysis.steady_state(np.linspace(-1.0, 1.0, followers + 1))
        theta = analysis.influence.matrix
        factored = shapes["lu_factor"] + shapes["splu"]
        assert factored.count((followers, followers)) == 1
        assert np.allclose(theta @ np.linspace(-1.0, 1.0, followers + 1), x, atol=1e-12)

    def test_influence_releases_the_follower_factor(self, monkeypatch):
        graph, beta = _leaky_ring(80, sink_beta=0.0)
        analysis = analyze_network(graph, beta)
        x0 = np.linspace(-1.0, 1.0, 81)
        before = analysis.steady_state(x0)
        solver = weakref.ref(analysis._solver)
        alive = _on_assembly(monkeypatch, lambda: solver() is not None)
        analysis.influence
        assert alive == [False]
        assert "_solver" not in analysis.__dict__
        # a later steady state factors again and gives the same answer
        assert np.array_equal(analysis.steady_state(x0), before)


class TestFactorRouting:
    """Dense LAPACK for blocks within the node budget, SuperLU above it."""

    def test_leaky_ring_is_factored_densely(self, monkeypatch):
        followers = 70
        graph, beta = _leaky_follower_ring(followers)
        analysis = analyze_network(graph, beta)
        analysis.sink_solutions  # the singleton sink's solve is not counted
        shapes = _count_factorizations(monkeypatch)
        theta = analysis.influence.matrix
        assert shapes == {"lu_factor": [(followers, followers)], "splu": []}
        # the iteration stops on its step, and the ring contracts slowly
        # enough that a 1e-13 step leaves about 1e-12 of error
        expected = influence_by_iteration(graph, beta, tol=1e-15)
        assert np.max(np.abs(theta.toarray() - expected)) <= 1e-12

    def test_acyclic_chain_is_factored_densely(self, monkeypatch):
        length = 80
        graph, beta = _chains_into_stubborn_singletons(1, length)
        beta[: length : 3] = 0.2  # stubborn followers along the chain
        analysis = analyze_network(graph, beta)
        assert analysis.system.ordering.follower_count == length
        analysis.sink_solutions
        shapes = _count_factorizations(monkeypatch)
        theta = analysis.influence.matrix
        assert shapes == {"lu_factor": [(length, length)], "splu": []}
        expected = influence_by_iteration(graph, beta)
        assert np.max(np.abs(theta.toarray() - expected)) <= 1e-12

    def test_block_above_the_budget_keeps_sparse_lu(self, monkeypatch):
        import signedfj.solve

        followers = 70
        graph, beta = _leaky_follower_ring(followers)
        dense = analyze_network(graph, beta).influence.matrix
        monkeypatch.setattr(signedfj.solve, "_DENSE_FACTOR_NODES", followers - 1)
        analysis = analyze_network(graph, beta)
        analysis.sink_solutions
        shapes = _count_factorizations(monkeypatch)
        theta = analysis.influence.matrix
        assert shapes == {"lu_factor": [], "splu": [(followers, followers)]}
        assert np.array_equal(theta.indptr, dense.indptr)
        assert np.array_equal(theta.indices, dense.indices)
        assert np.max(np.abs(theta.data - dense.data)) <= 1e-12

    def test_theta_assembly_memory_is_bounded(self, monkeypatch):
        """Peak traced memory of ``influence_matrix`` against Theta's own bytes.

        Until the solved pieces start to be joined, the peak beyond the
        dense factor is measured: it may hold the follower rows' nonzeros
        and two panels, never a joined copy of those nonzeros.  After that,
        with the factor freed, the whole peak.  The panel widths, both the
        floor and the dense factor's width term, are scaled down so that
        the follower rows span about six panels: a join while the factor
        lived (two thirds of their bytes) would then exceed the two-panel
        allowance.  The allowance is taken from the widest panel solved.
        """
        import tracemalloc

        import signedfj.solve
        from signedfj.solve import _ResolventSolver

        followers = 1000
        system, classification, solutions = _leaky_follower_ring_pieces(followers)
        monkeypatch.setattr(signedfj.solve, "_PANEL_ENTRIES", 1 << 16)
        monkeypatch.setattr(signedfj.solve, "_DENSE_PANEL_DIVISOR", 16)
        shapes = _count_factorizations(monkeypatch)
        itemsizes = _factor_itemsizes(monkeypatch)
        panels = []
        real_solve = _ResolventSolver.solve

        def recording_solve(self, b):
            panels.append(np.prod(np.shape(b)))
            return real_solve(self, b)

        monkeypatch.setattr(_ResolventSolver, "solve", recording_solve)

        def solve_peak():
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            return peak

        solve_peaks = _on_assembly(monkeypatch, solve_peak)
        tracemalloc.start()
        try:
            theta = influence_matrix(system, classification, solutions)
            assembly_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes["lu_factor"] == [(followers, followers)]
        assert itemsizes == [4]  # a single-precision factor
        assert theta.nnz >= 200_000
        factor_bytes = followers * followers * itemsizes[0]
        theta_bytes = theta.data.nbytes + theta.indices.nbytes + theta.indptr.nbytes
        follower_nnz = theta[system.ordering.permutation[:followers]].nnz
        follower_bytes = follower_nnz * (theta.data.itemsize + theta.indices.itemsize)
        panel_bytes = max(panels) * 8
        assert len(panels) >= 4
        assert follower_bytes >= 5 * panel_bytes
        assert len(solve_peaks) == 1
        assert solve_peaks[0] - factor_bytes <= follower_bytes + 2 * panel_bytes
        assert assembly_peak <= 2.1 * theta_bytes

    def test_double_factor_holds_two_panels(self, monkeypatch):
        """A SuperLU panel that needs no correction: its first solve becomes
        ``x``, so ``x``, the float64 buffer and SuperLU's own output are
        never held at once."""
        import tracemalloc

        import signedfj.solve
        from signedfj.solve import _ResolventSolver

        size, columns = 4000, 256
        rng = np.random.default_rng(12)
        ring = sparse.csr_matrix(
            (np.where(rng.random(size) < 0.2, -0.9, 0.9),
             (np.arange(size), np.roll(np.arange(size), -1))),
            shape=(size, size),
        )
        rhs = sparse.random(size, columns, density=0.002, random_state=13, format="csc")
        rhs = (rhs + sparse.eye(size, columns, format="csc")).tocsc()
        monkeypatch.setattr(signedfj.solve, "_DENSE_FACTOR_NODES", 0)
        solver = _ResolventSolver(ring)
        assert solver.route == "SuperLU"
        tracemalloc.start()
        try:
            x = solver.solve(rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solver.refinement[0] == 0
        assert peak <= 2.2 * size * columns * 8
        # the bits of a solve that adds its first correction to x = 0
        a = sparse.csr_matrix(sparse.identity(size, format="csr") - ring)
        want = 0.0 + splu(a.tocsc()).solve(rhs.toarray(order="F"))
        assert x.tobytes() == want.tobytes()


class TestLargeBlockSolves:
    """Free sinks past a (lowered) stack size take the reduced-system route,
    and blocks past a (lowered) dense factor budget take SuperLU."""

    @staticmethod
    def _balanced_ring(size, *, negatives, offset=0):
        # ring with `negatives` paired sign flips so it stays balanced
        edges = []
        signs = np.ones(size)
        for k in sorted(negatives):
            signs[k:] *= -1  # flip the suffix: cuts the ring in balanced camps
        sigma = signs
        for k in range(size):
            j = (k + 1) % size
            edges.append((offset + k, offset + j, float(sigma[k] * sigma[j])))
            edges.append((offset + k, offset + k, 1.0))
        return edges, sigma

    def test_sparse_eigenpair_matches_iteration(self, monkeypatch):
        import signedfj.solve

        size = 90
        monkeypatch.setattr(signedfj.solve, "_STACK_NODES", size - 1)
        edges, sigma = self._balanced_ring(size, negatives=[30, 60])
        g = SignedDigraph.from_edges([f"n{i}" for i in range(size)], edges)
        analysis = analyze_network(g, np.zeros(size))
        assert analysis._batch._pass[3] == {}  # nothing stacked
        solution = analysis.sink_solutions[0]
        assert solution.kind is SolutionKind.EIGENPAIR
        assert np.array_equal(np.sign(solution.right_vec), np.sign(sigma))
        rng = np.random.default_rng(1)
        x0 = rng.uniform(-1, 1, size)
        closed = analysis.steady_state(x0)
        trajectory = simulate(g, np.zeros(size), x0, tol=1e-12)
        assert trajectory.converged
        assert np.max(np.abs(closed - trajectory.final)) <= 1e-8

    def test_one_info_line_per_column_solve(self, monkeypatch, caplog):
        """The reduced system of a large free sink and the follower solve of a
        steady state are one-column block solves, and each logs the block
        solve's line with its route and refinement; the follower solve
        sweeps, and logs its certified error too."""
        import re

        import signedfj.solve

        size, chain = 90, 5
        monkeypatch.setattr(signedfj.solve, "_STACK_NODES", size - 1)
        edges, _ = self._balanced_ring(size, negatives=[30, 60])
        edges += [(size + i, size + i, 1.0) for i in range(chain)]
        edges += [(size + i, size + i + 1, 1.0) for i in range(chain - 1)]
        edges.append((size + chain - 1, 0, -1.0))
        n = size + chain
        g = SignedDigraph.from_edges([f"n{i}" for i in range(n)], edges)
        beta = np.zeros(n)
        beta[size] = 0.3
        with caplog.at_level(logging.INFO, logger="signedfj"):
            analysis = analyze_network(g, beta)
            analysis.sink_solutions
            analysis.steady_state(np.linspace(-1.0, 1.0, n))
        line = re.compile(
            r"(.+) solve: m=(\d+), 1 columns in 1 panels of at most 1, (.+) route, "
            r"refinement steps per panel \[(\d+)\], largest final relative residual (\S+)"
            r"(?:, certified relative error (\S+))?"
        )
        lines = [line.fullmatch(r.getMessage()) for r in caplog.records
                 if " solve: m=" in r.getMessage()]
        assert [m.group(1, 2, 3) for m in lines] == [
            ("|sink block 0| without its last node", str(size - 1), "float32"),
            ("follower block", str(chain), "sweeps"),
        ]
        assert all(float(m.group(5)) <= 1e-12 for m in lines)
        assert lines[0].group(6) is None and float(lines[1].group(6)) <= 1e-12

    def test_sparse_resolvent_and_follower_blocks(self, monkeypatch):
        import signedfj.solve

        # 80 followers in a chain feeding a 70-node positive sink with two
        # stubborn members; with the dense budget below 70 nodes, both
        # (I - block) solves run on sparse LU
        m, s = 80, 70
        monkeypatch.setattr(signedfj.solve, "_DENSE_FACTOR_NODES", s - 1)
        shapes = _count_factorizations(monkeypatch)
        edges = [(i, i + 1, 1.0) for i in range(m)]  # chain ends at the sink's door
        for k in range(s):
            i = m + k
            edges.append((i, m + (k + 1) % s, 1.0))
            edges.append((i, i, 1.0))
        n = m + s
        g = SignedDigraph.from_edges([f"n{i}" for i in range(n)], edges)
        beta = np.zeros(n)
        beta[m + 5] = 0.5
        beta[m + 40] = 0.25
        analysis = analyze_network(g, beta)
        assert analysis.classification.s_ns == frozenset()
        solution = analysis.sink_solutions[0]
        assert solution.kind is SolutionKind.RESOLVENT
        rng = np.random.default_rng(2)
        x0 = rng.uniform(-1, 1, n)
        closed = analysis.steady_state(x0)
        trajectory = simulate(g, beta, x0, tol=1e-12)
        assert trajectory.converged
        assert np.max(np.abs(closed - trajectory.final)) <= 1e-8
        # influential columns are exactly the two stubborn members
        centrality = analysis.influence.centrality
        assert set(np.flatnonzero(centrality > 1e-12)) == {m + 5, m + 40}
        assert shapes["lu_factor"] == []
        assert sorted(shapes["splu"]) == [(s, s), (m, m)]


def _chains_into_stubborn_singletons(chains: int, length: int):
    """``chains`` follower chains, each feeding its own stubborn singleton sink."""
    labels, edges = [], []
    for c in range(chains):
        nodes = [f"c{c}f{i}" for i in range(length)] + [f"c{c}z"]
        labels += nodes
        edges += [(v, v, 1.0) for v in nodes]
        edges += [(a, b, -1.0 if c % 2 else 1.0) for a, b in zip(nodes, nodes[1:])]
    beta = np.array([0.5 if label.endswith("z") else 0.0 for label in labels])
    return SignedDigraph.from_edges(labels, edges), beta


class TestBlockSolve:
    """One multi-column solve per block, in dense panels of bounded size."""

    def test_panels_stay_within_budget(self, monkeypatch):
        import signedfj.solve
        from signedfj.solve import _ResolventSolver

        chains, length = 7, 4
        graph, beta = _chains_into_stubborn_singletons(chains, length)
        analysis = analyze_network(graph, beta)
        m = analysis.system.ordering.follower_count
        assert m == chains * length
        budget = 3 * m  # three columns per panel
        monkeypatch.setattr(signedfj.solve, "_PANEL_ENTRIES", budget)
        # the dense factor's width term, m // 4 = 7 columns, down to one
        monkeypatch.setattr(signedfj.solve, "_DENSE_PANEL_DIVISOR", m)
        analysis.sink_solutions  # the singleton solves are not counted
        panels = []
        real_solve = _ResolventSolver.solve

        def recording_solve(self, b):
            panels.append(np.prod(np.shape(b)))
            return real_solve(self, b)

        monkeypatch.setattr(_ResolventSolver, "solve", recording_solve)
        theta = analysis.influence.matrix
        # one right-hand side per chain, three to a panel
        assert len(panels) == 3
        assert max(panels) <= budget
        assert theta.nnz == chains * (length + 1)
        expected = influence_by_iteration(graph, beta)
        assert np.max(np.abs(theta.toarray() - expected)) <= 1e-10

    @pytest.mark.parametrize("size", [1, 5, 70])
    def test_resolvent_operator_is_sparse(self, size):
        edges = [(i, i, 1.0) for i in range(size)]
        edges += [(i, (i + 1) % size, 1.0) for i in range(size) if size > 1]
        graph = SignedDigraph.from_edges([f"n{i}" for i in range(size)], edges)
        beta = np.zeros(size)
        beta[0], beta[size // 2] = 0.3, 0.6
        analysis = analyze_network(graph, beta)
        solution = analysis.sink_solutions[0]
        assert solution.kind is SolutionKind.RESOLVENT
        assert sparse.issparse(solution.operator)
        block = analysis.system.sink_block(0).toarray()
        expected = np.linalg.solve(np.eye(size) - block, np.diag(beta))
        assert np.max(np.abs(solution.operator.toarray() - expected)) <= 1e-12


class TestStubbornSingletons:
    """A stubborn singleton sink's operator is ``beta_i / (I - M)_ii``, with no factor."""

    @staticmethod
    def singletons(seed: int, count: int = 300):
        """Singleton sinks with a positive, a negative or no self-loop, at random beta."""
        rng = np.random.default_rng(seed)
        loops = rng.choice([1.0, -1.0, 0.0], count) * rng.uniform(0.5, 2.0, count)
        edges = [(i, i, float(w)) for i, w in enumerate(loops) if w]
        graph = SignedDigraph.from_edges([f"s{i}" for i in range(count)], edges)
        return graph, rng.uniform(0.0, 1.0, count) + 1e-9, np.sign(loops)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_solver_route(self, seed, monkeypatch):
        from signedfj.solve import _ResolventSolver

        monkeypatch.setattr(_ResolventSolver, "__init__", None)  # no factor is made
        graph, beta, signs = self.singletons(seed)
        analysis = analyze_network(graph, beta)
        solutions = analysis.sink_solutions
        monkeypatch.undo()
        assert len(solutions) == graph.n
        for solution in solutions:
            assert solution.kind is SolutionKind.RESOLVENT
            (node,) = solution.members
            block = analysis.system.sink_block(solution.sink_index)
            want = _ResolventSolver(block).solve_block(sparse.diags([beta[node]])).join()
            got = solution.operator
            assert got.format == want.format and got.shape == (1, 1)
            for name in ("indptr", "indices"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert getattr(got, name).tolist() == getattr(want, name).tolist()
            value = float(got.data[0])
            # the correctly rounded quotient of the pivot the solver factors
            pivot = 1.0 - float(block.sum())
            assert value == beta[node] / pivot
            # refinement stops within an ulp of it, and on it for 1 - (1 - beta)
            assert abs(value - want.data[0]) <= np.spacing(value)
            if signs[node] >= 0:
                assert value == want.data[0]

    def test_singular_pivot_raises_as_the_solver_does(self):
        from signedfj import InternalInconsistencyError

        # 1 - (1 - beta) rounds to 0 for beta below half an ulp of 1
        graph = SignedDigraph.from_edges(["a", "b"], [(0, 0, 1.0), (1, 0, 1.0)])
        with pytest.raises(InternalInconsistencyError, match="sink block 0.* is singular"):
            analyze_network(graph, np.array([1e-20, 0.0])).sink_solutions


def _assert_same_bytes(got, want):
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


class TestBlockSolveMatchesJoinedPanels:
    """Theta's bytes against the reference route: C-order panels refined on
    ``b - A x`` and joined while the factor lived."""

    def test_random_instances(self):
        for seed in range(SUITE_SIZE):
            graph, beta, _ = random_instance(SUITE_SEED + seed)
            analysis = analyze_network(graph, beta)
            want = influence_by_joined_panels(analysis.system, analysis.sink_solutions)
            _assert_same_bytes(analysis.influence.matrix, want)

    @pytest.mark.parametrize("build", [mixed_sinks, lambda: many_two_node_sinks(1000)],
                             ids=["mixed_sinks", "many_two_node_sinks"])
    def test_many_sinks(self, build):
        graph, beta, _ = build()
        analysis = analyze_network(graph, beta)
        want = influence_by_joined_panels(analysis.system, analysis.sink_solutions)
        _assert_same_bytes(analysis.influence.matrix, want)

    def test_leaky_ring_in_many_panels(self, monkeypatch):
        import signedfj.solve
        from signedfj.solve import _ResolventSolver

        followers = 1000
        system, classification, solutions = _leaky_follower_ring_pieces(followers)
        # the dense factor's width term sets the panels: 62 columns, not 30
        budget, divisor = followers * 30, 16
        monkeypatch.setattr(signedfj.solve, "_PANEL_ENTRIES", budget)
        monkeypatch.setattr(signedfj.solve, "_DENSE_PANEL_DIVISOR", divisor)
        panels = []
        real_solve = _ResolventSolver.solve

        def recording_solve(self, b):
            panels.append(np.shape(b))
            return real_solve(self, b)

        monkeypatch.setattr(_ResolventSolver, "solve", recording_solve)
        theta = influence_matrix(system, classification, solutions)
        assert len(panels) >= 4
        assert max(columns for _, columns in panels) == followers // divisor
        want = influence_by_joined_panels(
            system, solutions, panel_entries=budget, panel_divisor=divisor
        )
        _assert_same_bytes(theta, want)

    def test_refined_panels(self, monkeypatch):
        """A nearly singular block, so that panels take refinement steps."""
        import signedfj.solve
        from signedfj.solve import _ResolventSolver

        ring, rhs = _nearly_singular_ring()
        size = ring.shape[0]
        budget = size * 8
        monkeypatch.setattr(signedfj.solve, "_PANEL_ENTRIES", budget)
        # the dense factor's width term, 75 columns, down to one
        monkeypatch.setattr(signedfj.solve, "_DENSE_PANEL_DIVISOR", size)
        solves = []
        real_lu_solve = signedfj.solve.lu_solve

        def counting_lu_solve(*args, **kwargs):
            solves.append(1)
            return real_lu_solve(*args, **kwargs)

        monkeypatch.setattr(signedfj.solve, "lu_solve", counting_lu_solve)
        got = _ResolventSolver(ring).solve_block(rhs).join()
        panels = -(-np.count_nonzero(np.diff(rhs.indptr)) // 8)
        assert len(solves) > panels
        want = block_solve_by_joined_panels(ring, rhs, panel_entries=budget, panel_divisor=size)
        _assert_same_bytes(got, want)

    def test_stubborn_sink_resolvent(self, monkeypatch):
        import signedfj.solve

        # a 200-node ring sink with chords, every third member stubborn,
        # solved eight columns to a panel
        size = 200
        rng = np.random.default_rng(4)
        edges = {(i, i): 1.0 for i in range(size)}
        edges.update(((i, (i + 1) % size), 1.0) for i in range(size))
        edges.update(((int(p), int(q)), float(rng.uniform(0.5, 2.0)))
                     for p, q in rng.integers(0, size, (size, 2)) if p != q)
        graph = SignedDigraph.from_edges(
            [f"n{i}" for i in range(size)], [(p, q, w) for (p, q), w in edges.items()]
        )
        beta = np.zeros(size)
        beta[::3] = rng.uniform(0.05, 0.5, beta[::3].size)
        budget = size * 8
        monkeypatch.setattr(signedfj.solve, "_PANEL_ENTRIES", budget)
        # the dense factor's width term, 50 columns, down to one
        monkeypatch.setattr(signedfj.solve, "_DENSE_PANEL_DIVISOR", size)
        analysis = analyze_network(graph, beta)
        solution = analysis.sink_solutions[0]
        assert solution.kind is SolutionKind.RESOLVENT
        beta_block = analysis.system.stubbornness[list(solution.members)]
        want = block_solve_by_joined_panels(
            analysis.system.sink_block(0), sparse.diags(beta_block),
            panel_entries=budget, panel_divisor=size,
        )
        _assert_same_bytes(solution.operator, want)

    @pytest.mark.parametrize("build", ["leaky_follower_ring", "nearly_singular_ring"])
    def test_sparse_lu_panels(self, build, monkeypatch):
        """Blocks above a lowered dense budget, on SuperLU, eight columns to a
        panel; the nearly singular ring's panels stop short of ``1e-12``."""
        import signedfj.solve
        from signedfj.solve import _ResolventSolver

        if build == "leaky_follower_ring":
            system = analyze_network(*_leaky_follower_ring(70)).system
            m = system.ordering.follower_count
            block = system.follower_block()
            rhs = sparse.hstack(
                [sparse.diags(system.stubbornness_canonical[:m]), system.update_matrix[:m, m:]],
                format="csc",
            )
        else:
            block, rhs = _nearly_singular_ring()
        size = block.shape[0]
        budget = size * 8
        monkeypatch.setattr(signedfj.solve, "_PANEL_ENTRIES", budget)
        monkeypatch.setattr(signedfj.solve, "_DENSE_FACTOR_NODES", size - 1)
        shapes = _count_factorizations(monkeypatch)
        got = _ResolventSolver(block).solve_block(rhs).join()
        assert shapes == {"lu_factor": [], "splu": [(size, size)]}
        assert np.count_nonzero(np.diff(rhs.indptr)) > 16  # at least three panels
        want = block_solve_by_joined_panels(block, rhs, panel_entries=budget, sparse_lu=True)
        _assert_same_bytes(got, want)


def _nearly_singular_ring(size=300):
    """A signed ring whose cycle has product ``1 - 1e-9``, and 40 sparse right-hand sides."""
    rng = np.random.default_rng(8)
    signs = np.where(rng.random(size) < 0.3, -1.0, 1.0)
    signs[0] = np.prod(signs[1:])  # a positive cycle: I - block is nearly singular
    ring = sparse.csr_matrix(
        ((1.0 - 1e-9) * signs, (np.arange(size), np.roll(np.arange(size), -1))),
        shape=(size, size),
    )
    return ring, sparse.random(size, 40, density=0.05, random_state=9, format="csc")


class TestPanelWidth:
    """A dense factor's panels are up to a quarter of its order wide, and a
    panel that is mostly nonzero is kept dense until the join."""

    def test_wide_panel_is_one_solve(self, monkeypatch):
        from signedfj.solve import _PANEL_ENTRIES, _ResolventSolver

        size = 2100
        columns = 520  # more than the floor, 2^20 // 2100 = 499, within 2100 // 4 = 525
        assert _PANEL_ENTRIES // size < columns <= size // 4
        rng = np.random.default_rng(12)
        ring = sparse.csr_matrix(
            (np.where(rng.random(size) < 0.2, -0.9, 0.9),
             (np.arange(size), np.roll(np.arange(size), -1))),
            shape=(size, size),
        )
        rhs = sparse.random(size, columns, density=0.002, random_state=13, format="csc")
        rhs = rhs + sparse.eye(size, columns, format="csc")  # no empty column
        panels = []
        real_solve = _ResolventSolver.solve

        def recording_solve(self, b):
            panels.append(np.shape(b))
            return real_solve(self, b)

        monkeypatch.setattr(_ResolventSolver, "solve", recording_solve)
        got = _ResolventSolver(ring).solve_block(rhs).join()
        assert panels == [(size, columns)]
        _assert_same_bytes(got, block_solve_by_joined_panels(ring, rhs))

    def test_dense_and_sparse_pieces(self, monkeypatch):
        """A leaky ring beside acyclic chains: the ring's columns solve
        dense, the chains' sparse, and each kind of panel keeps its kind of
        piece, at most 12 bytes per nonzero."""
        import signedfj.solve
        from signedfj.solve import _ResolventSolver

        ring_size, chains, length = 300, 5, 6
        ring = sparse.csr_matrix(
            (np.tile([0.45, -0.45], ring_size),
             (np.repeat(np.arange(ring_size), 2),
              np.stack([np.arange(ring_size), np.roll(np.arange(ring_size), -1)], 1).ravel())),
            shape=(ring_size, ring_size),
        )
        chain = sparse.kron(sparse.eye(chains), sparse.eye(length, k=1) * 0.5)
        block = sparse.block_diag([ring, chain], format="csr")
        size = block.shape[0]
        # eight ring columns, then one column at the end of each chain
        entries = list(range(0, ring_size, ring_size // 8))
        entries += [ring_size + c * length + length - 1 for c in range(chains)]
        rhs = sparse.csc_matrix(
            (np.full(len(entries), 0.5), (entries, range(len(entries)))),
            shape=(size, len(entries)),
        )
        monkeypatch.setattr(signedfj.solve, "_PANEL_ENTRIES", 4 * size)
        monkeypatch.setattr(signedfj.solve, "_DENSE_PANEL_DIVISOR", size)
        solved = _ResolventSolver(block).solve_block(rhs)
        kinds = [isinstance(piece, np.ndarray) for piece in solved.pieces]
        assert kinds == [True, True, False, False]
        nnz = int(solved.counts.sum())
        stored = sum(piece.nbytes if isinstance(piece, np.ndarray)
                     else sum(part.nbytes for part in piece) for piece in solved.pieces)
        assert stored <= 12 * nnz
        got = solved.join()
        assert not solved.pieces
        assert got.nnz == nnz
        want = block_solve_by_joined_panels(
            block, rhs, panel_entries=4 * size, panel_divisor=size
        )
        _assert_same_bytes(got, want)

    def test_one_info_line_per_block_solve(self, caplog):
        from signedfj.solve import _ResolventSolver

        ring, rhs = _nearly_singular_ring()
        solver = _ResolventSolver(ring, what="test ring")
        with caplog.at_level(logging.WARNING, logger="signedfj"):
            solver.solve_block(rhs)
        assert caplog.records == []
        with caplog.at_level(logging.INFO, logger="signedfj"):
            solver.solve_block(rhs)
        assert [r.getMessage() for r in caplog.records] == [
            "test ring solve: m=300, 40 columns in 1 panels of at most 40, float64 fallback "
            "route, refinement steps per panel [4], largest final relative residual 3.7e-09"
        ]


def _theta_columns(theta) -> np.ndarray:
    return np.flatnonzero(np.diff(sparse.csc_matrix(theta).indptr))


class TestMixedPrecision:
    """Dense blocks are factored in float32 and refined in float64, against
    the float64 route of the reference solve."""

    # absolute distance of Theta from the float64-LU oracle, fixed up front
    THETA_TOL = 1e-13

    def assert_near_float64_route(self, analysis):
        theta = analysis.influence.matrix
        want = influence_by_joined_panels(analysis.system, analysis.sink_solutions, mixed=False)
        assert np.array_equal(_theta_columns(theta), _theta_columns(want))
        assert abs(theta - want).max() <= self.THETA_TOL

    def test_random_instances_near_float64_route(self):
        for seed in range(SUITE_SIZE):
            graph, beta, _ = random_instance(SUITE_SEED + seed)
            self.assert_near_float64_route(analyze_network(graph, beta))

    @pytest.mark.parametrize("build", [mixed_sinks, lambda: many_two_node_sinks(1000)],
                             ids=["mixed_sinks", "many_two_node_sinks"])
    def test_many_sinks_near_float64_route(self, build):
        graph, beta, _ = build()
        self.assert_near_float64_route(analyze_network(graph, beta))

    def test_tiny_stubbornness_keeps_its_column(self, monkeypatch):
        """A column of values near 1e-60 would round to zero in float32 unscaled,
        and only the float64 fallback could then recover it."""
        graph, beta = _leaky_follower_ring(70)
        agent = 1
        assert beta[agent] == 0.0
        beta[agent] = 1e-60
        analysis = analyze_network(graph, beta)
        itemsizes = _factor_itemsizes(monkeypatch)
        theta = analysis.influence.matrix
        assert itemsizes and set(itemsizes) == {4}  # no block fell back
        column = theta[:, [agent]].toarray()[:, 0]
        assert np.count_nonzero(column) > 1
        assert 0.0 < np.abs(column).max() <= 1e-59
        want = influence_by_joined_panels(analysis.system, analysis.sink_solutions, mixed=False)
        assert np.array_equal(_theta_columns(theta), _theta_columns(want))
        expected = want[:, [agent]].toarray()[:, 0]
        assert np.max(np.abs(column - expected)) <= 1e-12 * np.abs(expected).max()

    def test_unsettled_refinement_falls_back_to_float64(self, monkeypatch):
        """A ring whose float32 factor exists but is too far off to refine from.

        Forty weights of ``1 + 0.49 * 2^-23`` round to 1 in float32, and the
        closing weight makes the cycle's product ``1 - 4 * 2^-24``.  Rounded,
        that product loses the forty small factors, so the float32 block's
        determinant is about ten times the true one.  Its LU is exact (every
        product is by 1), and each refinement step removes only a tenth of
        the error: 30 steps leave the panel far short of the rule.
        """
        import signedfj.solve
        from signedfj.solve import _ResolventSolver

        size = 41
        weights = np.full(size, 1.0 + 0.49 * 2.0**-23)
        assert np.float32(weights[0]) == 1.0
        weights[-1] = (1.0 - 4 * 2.0**-24) / np.prod(weights[:-1])
        ring = sparse.csr_matrix(
            (weights, (np.arange(size), np.roll(np.arange(size), -1))), shape=(size, size)
        )
        a = np.eye(size) - ring.toarray()
        assert np.linalg.cond(a, np.inf) * 2.0**-24 > 1.0
        rhs = sparse.random(size, 12, density=0.2, random_state=6, format="csc")
        assert np.count_nonzero(np.diff(rhs.indptr)) > 8
        budget = size * 4  # four columns to a panel
        monkeypatch.setattr(signedfj.solve, "_PANEL_ENTRIES", budget)
        # the dense factor's width term, 10 columns, down to one
        monkeypatch.setattr(signedfj.solve, "_DENSE_PANEL_DIVISOR", size)
        itemsizes = _factor_itemsizes(monkeypatch)
        solved = []
        real_lu_solve = signedfj.solve.lu_solve

        def recording_lu_solve(factor, b, **kwargs):
            solved.append(b.itemsize)
            return real_lu_solve(factor, b, **kwargs)

        monkeypatch.setattr(signedfj.solve, "lu_solve", recording_lu_solve)
        got = _ResolventSolver(ring).solve_block(rhs).join()
        # the float32 factor exists, and the first panel refines it 30 times
        # before the block is refactored in float64, once
        assert itemsizes == [4, 8]
        assert solved.count(4) == 1 + signedfj.solve._SINGLE_REFINEMENTS
        assert solved[:31] == [4] * 31 and set(solved[31:]) == {8}
        want = block_solve_by_joined_panels(
            ring, rhs, panel_entries=budget, panel_divisor=size, mixed=False
        )
        _assert_same_bytes(got, want)
        _assert_same_bytes(got, block_solve_by_joined_panels(
            ring, rhs, panel_entries=budget, panel_divisor=size
        ))


def _double_route(monkeypatch, route: str, fault) -> None:
    """Force the solver onto a double factor, every solve of it passed through ``fault``."""
    import signedfj.solve

    if route == "SuperLU":
        real_splu = signedfj.solve.splu

        def faulty_splu(a):
            solve = real_splu(a).solve
            return SimpleNamespace(solve=lambda b: fault(solve(b)))

        monkeypatch.setattr(signedfj.solve, "_DENSE_FACTOR_NODES", 0)
        monkeypatch.setattr(signedfj.solve, "splu", faulty_splu)
    else:
        real_factor = signedfj.solve._dense_factor

        def double_only(a, dtype):
            if dtype == np.float32:
                raise LinAlgError("no single factor")
            solve = real_factor(a, dtype)
            return lambda b: fault(solve(b))

        monkeypatch.setattr(signedfj.solve, "_dense_factor", double_only)


class TestDoubleRefinementExits:
    """On a double factor a panel fails when four corrections leave it above
    ``1e-6`` of its largest entry, or when a solve is not finite."""

    @staticmethod
    def _ring():
        size = 30
        ring = sparse.csr_matrix(
            (np.full(size, 0.5), (np.arange(size), np.roll(np.arange(size), -1))),
            shape=(size, size),
        )
        return ring, sparse.random(size, 6, density=0.3, random_state=3, format="csc")

    @pytest.mark.parametrize("route", ["float64 fallback", "SuperLU"])
    def test_halving_corrections_stall(self, route, monkeypatch):
        from signedfj import InternalInconsistencyError
        from signedfj.solve import _ResolventSolver

        # each correction removes half the error, so four leave a 32nd of it
        _double_route(monkeypatch, route, lambda x: 0.5 * x)
        ring, rhs = self._ring()
        with pytest.raises(InternalInconsistencyError, match="iterative refinement stalled"):
            _ResolventSolver(ring).solve_block(rhs)

    @pytest.mark.parametrize("route", ["float64 fallback", "SuperLU"])
    def test_non_finite_solve_raises(self, route, monkeypatch):
        from signedfj import InternalInconsistencyError
        from signedfj.solve import _ResolventSolver

        _double_route(monkeypatch, route, lambda x: np.full_like(x, np.nan))
        ring, rhs = self._ring()
        with pytest.raises(InternalInconsistencyError,
                           match=r"solve against \(I - test ring\) produced non-finite values"):
            _ResolventSolver(ring, what="test ring").solve_block(rhs)


class TestStoredZeros:
    """A panel's solution bytes do not depend on the zeros it stores, on any
    route.  A dense column holds its zeros, and ``solve_block`` drops them, so
    this is why x* keeps its bytes as a one-column block solve."""

    @staticmethod
    def _panels(size: int) -> tuple[sparse.csc_matrix, sparse.csc_matrix]:
        """One column with ``+0.0`` and ``-0.0`` stored among its entries, and without them."""
        rows = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 20, 25, 30])
        values = np.linspace(-1.0, 1.0, rows.size) + 0.125
        values[[3, 6, 10, 11, 12, 13]] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
        stored = sparse.csc_matrix((values, rows, [0, rows.size]), shape=(size, 1))
        kept = values != 0.0
        dropped = sparse.csc_matrix((values[kept], rows[kept], [0, kept.sum()]), shape=(size, 1))
        assert stored.nnz == dropped.nnz + 6
        assert np.count_nonzero(np.signbit(stored.data) & (stored.data == 0.0)) == 3
        return stored, dropped

    @pytest.mark.parametrize("route", ["sweeps", "float32", "float64 fallback", "SuperLU"])
    def test_stored_zeros_leave_the_bytes(self, route, monkeypatch):
        from signedfj.solve import _ResolventSolver

        if route in ("float64 fallback", "SuperLU"):
            _double_route(monkeypatch, route, lambda x: x)
        # a signed chain i -> i + 1 with a cycle through its first ten nodes;
        # b is zero past row 9, so x is zero there and A x is +0.0 there
        size = 40
        weights = np.where(np.arange(size - 1) % 2, -0.5, 0.5)
        block = sparse.diags(weights, 1, shape=(size, size), format="lil")
        block[9, 0] = 0.25
        block = sparse.csr_matrix(block)
        solver = _ResolventSolver(block, sweep=route == "sweeps")
        assert solver.route == route
        stored, dropped = self._panels(size)
        want = solver.solve(dropped)
        assert np.count_nonzero(want) == 10
        assert solver.solve(stored).tobytes() == want.tobytes()
        joined = solver.solve_block(stored).join().toarray()
        assert joined.tobytes() == want.tobytes()


class TestNumericsInternals:
    @staticmethod
    def _signed_path(n: int) -> SignedDigraph:
        """A bidirectional signed path with self-loops, all weights of magnitude 1.

        ``|B|`` is the simple random walk with a self-loop per node, whose
        stationary vector is proportional to the degrees ``(2, 3, ..., 3, 2)``;
        the path mixes in about ``n^2`` steps.
        """
        rng = np.random.default_rng(3)
        signs = rng.choice([-1.0, 1.0], n - 1)
        edges = [(i, i, 1.0) for i in range(n)]
        edges += [(i, i + 1, signs[i]) for i in range(n - 1)]
        edges += [(i + 1, i, signs[i]) for i in range(n - 1)]
        return SignedDigraph.from_edges([f"p{i}" for i in range(n)], edges)

    @pytest.mark.parametrize("n", [2, 64, 512, 513, 600])
    def test_path_left_vector_matches_closed_form(self, n):
        # up to _STACK_NODES by GTH in a stack, above by the reduced system
        from signedfj.solve import _STACK_NODES

        analysis = analyze_network(self._signed_path(n), np.zeros(n))
        sink = analysis.classification.sinks[0]
        solution = analysis.sink_solutions[0]
        assert solution.kind is SolutionKind.EIGENPAIR
        assert (sink.sink_index in analysis._batch._pass[3]) == (n <= _STACK_NODES)
        degrees = np.full(n, 3.0)
        degrees[[0, -1]] = 2.0
        members = np.asarray(solution.members)  # node i is label p{i}, index i
        exact = np.asarray(sink.bipartition) * degrees[members] / degrees.sum()
        assert np.max(np.abs(solution.left_vec - exact)) <= 1e-15

    def test_gth_solves_a_dense_block(self):
        from signedfj.solve import _stationary_rows

        size = 250
        rng = np.random.default_rng(1)
        m = rng.uniform(0.1, 1.0, (size, size))  # non-uniform stationary vector
        m = m / m.sum(axis=1, keepdims=True)
        pi = _stationary_rows(m[None], [0])[0]
        assert np.max(np.abs(pi @ m - pi)) <= 1e-12
        assert abs(pi.sum() - 1.0) <= 1e-12

    def test_gth_zero_pivot_raises_internal_inconsistency(self):
        from signedfj import InternalInconsistencyError
        from signedfj.solve import _stationary_rows

        # two closed classes: every mixture of their stationary vectors is stationary
        m = np.array([[1.0, 0.0, 0.0], [0.0, 0.75, 0.25], [0.0, 0.5, 0.5]])
        with pytest.raises(InternalInconsistencyError, match="sink block 7.*singular"):
            _stationary_rows(np.stack([np.full((3, 3), 1 / 3), m]), [3, 7])

    @staticmethod
    def _perron(block) -> float:
        """The dense Perron root of ``|block|``."""
        return float(np.max(np.abs(np.linalg.eigvals(abs(sparse.csr_matrix(block)).toarray()))))

    def test_large_block_radius_is_reproducible(self):
        followers, sinks = 600, 4
        rng = np.random.default_rng(11)
        edges = {(i, i): 1.0 for i in range(followers + sinks)}
        for i in range(followers):
            for j in rng.choice(np.delete(np.arange(followers), i), 3, replace=False):
                edges[(i, int(j))] = float(rng.choice([-1.0, 1.0]) * rng.integers(1, 10))
        for i in rng.choice(followers, 20, replace=False):
            edges[(int(i), followers + int(rng.integers(sinks)))] = 1.0
        g = SignedDigraph.from_edges(
            [f"v{i}" for i in range(followers + sinks)],
            [(s, t, w) for (s, t), w in edges.items()],
        )
        beta = np.concatenate([np.full(followers, 0.01), np.full(sinks, 0.5)])
        analyses = [analyze_network(g, beta) for _ in range(3)]
        radii = {analysis.spectral.spectral_radius for analysis in analyses}
        assert len(radii) == 1
        radius = radii.pop()
        assert radius < 1.0
        # above _STACK_NODES the signed radius is bounded by |M|'s Perron root
        assert all(analysis.spectral.approximate for analysis in analyses)
        perron = self._perron(analyses[0].system.follower_block())
        assert perron <= radius <= perron + 1e-8

    @pytest.mark.parametrize("balanced", [True, False])
    def test_large_free_sink_radii_come_from_structure(self, balanced, monkeypatch):
        import signedfj.solve

        monkeypatch.setattr(signedfj.solve, "_abs_power_radius", None)  # no power bound
        n = 600
        edges = [(i, i, 1.0) for i in range(n)]
        edges += [(i, (i + 1) % n, 1.0 if balanced or i else -1.0) for i in range(n)]
        graph = SignedDigraph.from_edges([f"r{i}" for i in range(n)], edges)
        spectral = analyze_network(graph, np.zeros(n)).spectral
        assert spectral.sink_spectral_radii == (1.0,)
        assert spectral.spectral_radius == spectral.spectral_radius_abs == 1.0
        # 1 only bounds an unbalanced sink's signed radius
        assert spectral.approximate is not balanced

    def test_power_radius_is_an_upper_bound(self):
        from signedfj.solve import _POWER_STEPS, _abs_power_radius

        system, _, _ = _leaky_follower_ring_pieces(600)
        gauged = abs(system.follower_block())
        perron = self._perron(gauged)
        bound, steps, settled = _abs_power_radius(gauged)
        assert perron <= bound <= perron + 1e-8
        assert settled and 0 < steps < _POWER_STEPS
        # a zero entry in the last iterate: the largest row sum
        bound, _, _ = _abs_power_radius(sparse.csr_matrix([[0.5, 0.25], [0.0, 0.0]]))
        assert bound >= 0.75

    @pytest.mark.parametrize("followers", [600, 1000])
    def test_large_ring_radius_bounds_the_perron_root(self, followers):
        analysis = analyze_network(*_leaky_follower_ring(followers))
        spectral = analysis.spectral
        assert spectral.regime is Regime.CONVERGENT and spectral.approximate
        perron = self._perron(analysis.system.follower_block())
        assert spectral.spectral_radius == spectral.spectral_radius_abs
        assert perron <= spectral.spectral_radius <= perron + 1e-8

    def test_large_stubborn_sink_radius_bounds_the_perron_root(self):
        n = 600
        stubborn = np.zeros(n)
        stubborn[0] = 0.5
        analysis = analyze_network(self._signed_path(n), stubborn)
        spectral = analysis.spectral
        assert spectral.approximate
        perron = self._perron(analysis.system.sink_block(0))
        # the path mixes in about n^2 steps, so the power iterate has not
        # settled at its step cap and the bound is looser
        assert perron <= spectral.sink_spectral_radii[0] <= perron + 1e-5
        assert spectral.spectral_radius == spectral.spectral_radius_abs

    def test_power_bound_sees_only_open_nonnegative_blocks(self, monkeypatch):
        import signedfj.solve

        calls = []
        real_power = signedfj.solve._abs_power_radius

        def checking_power(m):
            assert sparse.csr_matrix(m).data.min() >= 0.0
            calls.append(m.shape)
            return real_power(m)

        monkeypatch.setattr(signedfj.solve, "_abs_power_radius", checking_power)
        # a signed follower ring above _STACK_NODES, and a signed stubborn sink
        # above it; a stubborn-free sink's radii come from its structure
        analyze_network(*_leaky_follower_ring(600))
        stubborn = np.zeros(600)
        stubborn[0] = 0.5
        analyze_network(self._signed_path(600), stubborn)
        analyze_network(self._signed_path(600), np.zeros(600))
        assert calls == [(600, 600), (600, 600)]
        # up to _STACK_NODES, dense eigenvalues
        analyze_network(*_leaky_follower_ring(512))
        analyze_network(self._signed_path(512), stubborn[:512])
        assert len(calls) == 2

    def test_one_info_line_per_large_block_radius(self, caplog):
        import re

        from signedfj.solve import _POWER_STEPS

        stubborn = np.zeros(600)
        stubborn[0] = 0.5
        with caplog.at_level(logging.INFO, logger="signedfj"):
            ring = analyze_network(*_leaky_follower_ring(600)).spectral
            path = analyze_network(self._signed_path(600), stubborn).spectral
            analyze_network(*_leaky_follower_ring(512))
        line = re.compile(
            r"(.+) radius: m=(\d+), (\d+) power steps, (settled|not settled), "
            r"Collatz-Wielandt bound (\S+)"
        )
        lines = [line.fullmatch(r.getMessage()) for r in caplog.records
                 if " radius: " in r.getMessage()]
        assert [m.group(1, 2, 4, 5) for m in lines] == [
            ("follower block", "600", "settled", repr(ring.spectral_radius)),
            ("sink block 0", "600", "not settled", repr(path.spectral_radius)),
        ]
        assert 0 < int(lines[0].group(3)) < _POWER_STEPS == int(lines[1].group(3))

    def test_singular_block_raises_internal_inconsistency(self):
        from scipy import sparse

        from signedfj import InternalInconsistencyError
        from signedfj.solve import _ResolventSolver

        with pytest.raises(InternalInconsistencyError, match="singular"):
            _ResolventSolver(sparse.identity(5, format="csr"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_factor_raises_internal_inconsistency(self, bad):
        from signedfj import InternalInconsistencyError
        from signedfj.solve import _ResolventSolver

        block = np.full((4, 4), 0.1)
        block[2, 1] = bad
        with pytest.raises(InternalInconsistencyError, match="singular"):
            _ResolventSolver(sparse.csr_matrix(block))

    def test_dense_factor_makes_no_second_copy(self, monkeypatch):
        import tracemalloc

        from signedfj.solve import _ResolventSolver

        size = 600
        ring = sparse.diags([np.full(size, 0.5), np.full(size - 1, -0.45)], [0, 1])
        block = sparse.csr_matrix(ring + sparse.csr_matrix(([0.45], ([size - 1], [0])),
                                                           shape=(size, size)))
        itemsizes = _factor_itemsizes(monkeypatch)
        tracemalloc.start()
        try:
            solver = _ResolventSolver(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert itemsizes == [4]  # a single-precision factor
        factor_bytes = size * size * itemsizes[0]
        x = solver.solve(sparse.csc_matrix(np.ones((size, 1))))
        assert np.max(np.abs(x - block @ x - 1.0)) <= 1e-12
        # the factor itself, but neither a double or C-order copy nor an m x m mask
        assert peak <= factor_bytes + factor_bytes // 16


class TestGranularApi:
    def test_spectral_and_sink_ops_compose(self):
        graph, beta = weak_two_sinks(stubborn_leader=0.5)
        analysis = analyze_network(graph, beta)
        report = spectral_check(analysis.system, analysis.classification)
        assert report.regime is Regime.SEMI_CONVERGENT  # antagonistic sink is free
        solutions = tuple(
            solve_sink(analysis.system, sink) for sink in analysis.classification.sinks
        )
        theta = influence_matrix(analysis.system, analysis.classification, solutions)
        c, ranking = absolute_centrality(theta)
        assert c.shape == (5,)
        assert np.array_equal(theta.toarray(), analysis.influence.matrix.toarray())


def _assert_same_solution(batched, alone):
    """Field-by-field bit equality of two sink solutions."""
    assert batched.sink_index == alone.sink_index
    assert batched.members == alone.members
    assert batched.kind is alone.kind
    for name in ("right_vec", "left_vec"):
        a, b = getattr(batched, name), getattr(alone, name)
        assert (a is None) == (b is None)
        assert a is None or np.array_equal(a, b)
    assert (batched.operator is None) == (alone.operator is None)
    if batched.operator is not None:
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(batched.operator, name), getattr(alone.operator, name))


def _assert_batch_matches_single_sinks(analysis):
    from signedfj.solve import _SinkBatch

    system, classification = analysis.system, analysis.classification
    for sink, batched in zip(classification.sinks, analysis.sink_solutions, strict=True):
        _assert_same_solution(batched, solve_sink(system, sink))
    radii, radii_abs, _ = analysis._batch.radii
    for k, sink in enumerate(classification.sinks):
        alone, alone_abs, _ = _SinkBatch(system, (sink,)).radii
        assert alone == [radii[k]] and alone_abs == [radii_abs[k]]
    fresh = spectral_check(system, classification)
    for name in ("regime", "spectral_radius", "spectral_radius_abs",
                 "sink_spectral_radii", "approximate"):
        assert getattr(fresh, name) == getattr(analysis.spectral, name)


class TestSinkBatch:
    """The stacked sink pass gives every sink the bits of a stack of its own."""

    def test_mixed_sizes_and_kinds_match_single_sinks(self):
        graph, beta, _ = mixed_sinks()
        report = validate(graph, beta)
        analysis = analyze_network(report.graph, report.beta)
        kinds = {(len(s.members), s.sink_class, s.contains_stubborn)
                 for s in analysis.classification.sinks}
        for size in (2, 3, 63, 64, 65):
            assert {(size, SinkClass.COOPERATIVE_SB, False), (size, SinkClass.SUB, False),
                    (size, SinkClass.ANTAGONISTIC_SB, False),
                    (size, SinkClass.COOPERATIVE_SB, True)} <= kinds
        _assert_batch_matches_single_sinks(analysis)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_instances_match_single_sinks(self, seed):
        # the instances of tests/test_invariants.py
        graph, beta, _ = random_instance(8600 + seed, n_max=40)
        report = validate(graph, beta)
        _assert_batch_matches_single_sinks(analyze_network(report.graph, report.beta))

    @pytest.mark.parametrize("size", [4, 70, 600])
    def test_wrong_bipartition_is_caught(self, size):
        # stacked sinks, and a sparse one above _STACK_NODES
        import dataclasses

        from signedfj import InternalInconsistencyError

        edges, _ = TestLargeBlockSolves._balanced_ring(size, negatives=[size // 2])
        g = SignedDigraph.from_edges([f"n{i}" for i in range(size)], edges)
        analysis = analyze_network(g, np.zeros(size))
        sink = analysis.classification.sinks[0]
        flipped = (sink.bipartition[0],) + tuple(-s for s in sink.bipartition[1:])
        with pytest.raises(InternalInconsistencyError, match="row stochastic"):
            solve_sink(analysis.system, dataclasses.replace(sink, bipartition=flipped))

    def test_no_per_sink_slices(self, monkeypatch):
        from signedfj import UpdateSystem

        graph, beta, x0 = many_two_node_sinks(1000)
        slices = []
        real = UpdateSystem.sink_block
        monkeypatch.setattr(UpdateSystem, "sink_block",
                            lambda self, k: slices.append(k) or real(self, k))
        analysis = analyze_network(graph, beta)
        assert len(analysis.sink_solutions) == 1000
        analysis.steady_state(x0)
        assert slices == []

    @staticmethod
    def _count_stacks(monkeypatch) -> tuple[list, list]:
        """The shapes handed to ``np.linalg.eigvals`` and to the stacked GTH elimination."""
        import signedfj.solve

        eigvals, stacks = [], []
        real_eigvals, real_gth = np.linalg.eigvals, signedfj.solve._stationary_rows
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: eigvals.append(a.shape) or real_eigvals(a))
        monkeypatch.setattr(signedfj.solve, "_stationary_rows",
                            lambda a, k: stacks.append(a.shape) or real_gth(a, k))
        return eigvals, stacks

    def test_eigvals_calls_do_not_grow_with_sinks(self, monkeypatch):
        eigvals, stacks = self._count_stacks(monkeypatch)
        counts = []
        for sinks in (10, 1000):
            graph, beta, _ = many_two_node_sinks(sinks)
            del eigvals[:], stacks[:]
            analyze_network(graph, beta).sink_solutions
            counts.append((len(eigvals), len(stacks)))
        # free balanced sinks have radius 1 by structure, and one GTH stack
        assert counts == [(0, 1), (0, 1)]

    def test_eigvals_run_only_where_the_structure_leaves_a_radius_open(self, monkeypatch):
        graph, beta, _ = mixed_sinks()
        report = validate(graph, beta)
        eigvals, _ = self._count_stacks(monkeypatch)
        analysis = analyze_network(report.graph, report.beta)
        # per size: B of the unbalanced and the stubborn sinks, |B| of the stubborn ones
        open_signed = sum(not s.in_s_ns for s in analysis.classification.sinks)
        open_abs = sum(s.contains_stubborn for s in analysis.classification.sinks)
        assert sum(shape[0] for shape in eigvals) == open_signed + open_abs
        for sink, radius, radius_abs in zip(analysis.classification.sinks,
                                            *analysis._batch.radii[:2], strict=True):
            assert (radius == 1.0) == sink.in_s_ns
            assert (radius_abs == 1.0) == (not sink.contains_stubborn)

    def test_small_stacks_give_the_same_bits(self, monkeypatch):
        import signedfj.solve

        graph, beta, x0 = many_two_node_sinks(1000)
        whole = analyze_network(graph, beta)
        _, stacks = self._count_stacks(monkeypatch)
        monkeypatch.setattr(signedfj.solve, "_PANEL_ENTRIES", 4 * 64)  # 64 sinks a stack
        split = analyze_network(graph, beta)
        assert len(stacks) == 16
        assert all(shape[0] <= 64 for shape in stacks)
        for a, b in zip(whole.sink_solutions, split.sink_solutions, strict=True):
            _assert_same_solution(a, b)
        assert whole.spectral.sink_spectral_radii == split.spectral.sink_spectral_radii
        assert np.array_equal(whole.steady_state(x0), split.steady_state(x0))


def _ring_into_sink(
    followers: int, leak: float, *, leakers, stubborn: float = 0.0
) -> tuple[SignedDigraph, np.ndarray]:
    """A signed follower ring with self-loops; the followers ``leakers`` rate
    a stubborn singleton sink ``leak``, and every fourth follower has
    stubbornness ``stubborn``."""
    labels = [f"f{i}" for i in range(followers)] + ["z"]
    edges = [(f"f{i}", f"f{i}", 1.0) for i in range(followers)]
    edges += [(f"f{i}", f"f{(i + 1) % followers}", -1.0 if i % 3 == 0 else 1.0)
              for i in range(followers)]
    edges += [(f"f{i}", "z", leak) for i in leakers]
    edges.append(("z", "z", 1.0))
    beta = np.zeros(followers + 1)
    beta[:followers:4] = stubborn
    beta[-1] = 0.5
    return SignedDigraph.from_edges(labels, edges), beta


def _fast_ring(followers: int = 70) -> tuple[SignedDigraph, np.ndarray]:
    """Every follower leaks half a ring edge: ``|P_FF|`` has row sums 0.8 or less."""
    return _ring_into_sink(followers, 0.5, leakers=range(followers), stubborn=0.05)


class TestSweepRoute:
    """``steady_state`` and ``top_centrality`` solve the follower block by
    certified sweeps where its contraction allows; ``influence`` keeps the
    factor."""

    @staticmethod
    def _record_solves(monkeypatch) -> list[tuple[np.ndarray, np.ndarray, tuple, str]]:
        """Every panel the solver solves: ``b``, ``x``, its refinement and route."""
        from signedfj.solve import _ResolventSolver

        solves = []
        real = _ResolventSolver.solve

        def recording(self, b):
            x = real(self, b)
            solves.append((b.toarray(), x.copy(), self.refinement, self.route))
            return x

        monkeypatch.setattr(_ResolventSolver, "solve", recording)
        return solves

    def test_certified_error_holds_against_a_50_digit_solve(self, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        checked = 0
        for seed in range(SUITE_SIZE):
            graph, beta, x0 = random_instance(SUITE_SEED + seed, n_max=40)
            analysis = analyze_network(graph, beta)
            m = analysis.system.ordering.follower_count
            if m < 2:
                continue
            analysis.sink_solutions
            solves = self._record_solves(monkeypatch)
            analysis.steady_state(x0)
            analysis.top_centrality(3)
            monkeypatch.undo()
            block = analysis.system.follower_block().toarray()
            with mpmath.workdps(50):
                a = mpmath.eye(m) - mpmath.matrix(block.tolist())
                for b, x, (_, _, certified), route in solves:
                    if route != "sweeps":
                        continue  # a block that contracts slowly is factored
                    for j in range(b.shape[1]):
                        exact = mpmath.lu_solve(a, mpmath.matrix(b[:, j].tolist()))
                        error = max(abs(mpmath.mpf(float(v)) - e) for v, e in zip(x[:, j], exact))
                        assert error <= certified * np.abs(x[:, j]).max(), (seed, j)
                        checked += 1
            if checked >= 40:
                break
        assert checked >= 40

    @pytest.mark.parametrize("columns", [1, 16, 64])
    def test_sweeps_match_a_per_column_loop(self, monkeypatch, columns):
        """Every column's bits, and the panel's refinement, are those of sweeping it alone."""
        import signedfj.solve
        from signedfj.solve import _MAX_SWEEPS, _ResolventSolver, _sweep_certificate

        monkeypatch.setattr(signedfj.solve, "_PRODUCT_COLUMNS", columns)
        checked = 0
        for seed in range(SUITE_SIZE):
            graph, beta, _ = random_instance(SUITE_SEED + seed)
            block = analyze_network(graph, beta).system.follower_block()
            m = block.shape[0]
            if not m or _sweep_certificate(block) is None:
                continue
            rng = np.random.default_rng(seed)
            # 40 columns, none zero, spanning six orders of magnitude
            b = sparse.random(m, 40, density=0.2, rng=rng, format="csc") + sparse.csc_matrix(
                (rng.uniform(-1.0, 1.0, 40), (rng.integers(0, m, 40), np.arange(40))),
                shape=(m, 40))
            b = sparse.csc_matrix(b @ sparse.diags(10.0 ** rng.integers(-3, 4, 40)))
            want = sweeps_by_column(block, b, max_sweeps=_MAX_SWEEPS)
            solver = _ResolventSolver(block, sweep=True)
            x = solver.solve(b)
            if want is None:
                assert solver.route != "sweeps", seed
                continue
            y, sweeps, residuals, certified = want
            assert solver.route == "sweeps", seed
            assert x.tobytes(order="F") == y.tobytes(order="F"), seed
            scale = max(1.0, float(np.abs(b.data).max()))
            assert solver.refinement == (
                int(sweeps.max()) - 1, float(residuals.max()) / scale, float(certified.max())
            ), seed
            checked += 1
        assert checked >= 30

    def test_slow_block_keeps_its_factor(self, monkeypatch):
        """A leak of 1e-6 predicts far more than ``_MAX_SWEEPS`` sweeps."""
        graph, beta = _ring_into_sink(60, 1e-6, leakers=[0])
        analysis = analyze_network(graph, beta)
        analysis.sink_solutions
        shapes = _count_factorizations(monkeypatch)
        x0 = np.linspace(-1.0, 1.0, 61)
        x = analysis.steady_state(x0)
        assert analysis._solver.route == "float32"
        assert shapes == {"lu_factor": [(60, 60)], "splu": []}
        # the factor is the one influence uses, so it is not made again
        theta = analysis.influence.matrix
        assert shapes == {"lu_factor": [(60, 60)], "splu": []}
        assert np.max(np.abs(theta @ x0 - x)) <= 1e-12

    def test_fast_block_is_never_factored(self, monkeypatch):
        graph, beta = _fast_ring()
        analysis = analyze_network(graph, beta)
        analysis.sink_solutions
        shapes = _count_factorizations(monkeypatch)
        x0 = np.linspace(-1.0, 1.0, 71)
        x = analysis.steady_state(x0)
        nodes, values = analysis.top_centrality(3)
        assert analysis._solver.route == "sweeps"
        assert shapes == {"lu_factor": [], "splu": []}
        # influence factors the block once, and agrees within the goldens' tolerance
        full = analysis.influence
        assert shapes == {"lu_factor": [(70, 70)], "splu": []}
        assert np.max(np.abs(full.matrix @ x0 - x)) <= 1e-12
        assert nodes.tolist() == full.ranking[:3].tolist()
        assert np.max(np.abs(values - full.centrality[nodes])) <= 1e-12

    def test_unfinished_panel_falls_back_to_the_factor(self, monkeypatch, caplog):
        """With the cap lowered after the route is chosen, the sweeps of x*
        stop short; the block is factored and x* has the factor route's bits."""
        import signedfj.solve

        graph, beta = _fast_ring()
        analysis = analyze_network(graph, beta)
        assert analysis._solver.route == "sweeps"
        monkeypatch.setattr(signedfj.solve, "_MAX_SWEEPS", 3)
        x0 = np.linspace(-1.0, 1.0, 71)
        with caplog.at_level(logging.INFO, logger="signedfj"):
            x = analysis.steady_state(x0)
        assert analysis._solver.route == "float32"
        (line,) = [r.getMessage() for r in caplog.records if "follower block solve" in r.getMessage()]
        assert "float32 route" in line and "certified" not in line
        m = analysis.system.ordering.follower_count
        factored = solve_followers(analysis.system, analysis.sink_solutions, x0)
        assert x[analysis.system.ordering.permutation[:m]].tobytes() == factored.tobytes()

    def test_zero_follower_block_takes_no_extra_sweeps(self, monkeypatch):
        """A follower block M = 0 certifies ``||y||_inf = 1`` and asks for no
        sweeps past the one that reaches an ulp residual."""
        from signedfj.solve import _sweep_certificate

        graph = SignedDigraph.from_edges(["f", "s", "t"], [
            ("f", "s", 1.0), ("f", "t", -2.0), ("s", "s", 1.0), ("t", "t", 1.0)])
        analysis = analyze_network(graph, np.zeros(3))
        block = analysis.system.follower_block()
        assert block.shape == (1, 1) and block.nnz == 0
        assert _sweep_certificate(block) == (1.0, 0)
        analysis.sink_solutions
        solves = self._record_solves(monkeypatch)
        x0 = np.array([0.3, 0.8, -0.4])
        x = analysis.steady_state(x0)
        ((_, _, (steps, residual, _), route),) = solves
        assert route == "sweeps" and steps == 0 and residual == 0.0
        assert np.max(np.abs(x - analysis.influence.matrix @ x0)) <= 1e-12

    def test_columns_do_not_depend_on_their_panel_mates(self):
        from signedfj.solve import _ResolventSolver

        system = analyze_network(*_fast_ring()).system
        m = system.ordering.follower_count
        rhs = sparse.hstack(
            [sparse.diags(system.stubbornness_canonical[:m]), system.update_matrix[:m, m:]],
            format="csc",
        )
        rhs = rhs[:, np.flatnonzero(np.diff(rhs.indptr))]
        solver = _ResolventSolver(system.follower_block(), sweep=True)
        assert solver.route == "sweeps"
        together = solver.solve(rhs)
        for j in range(rhs.shape[1]):
            assert solver.solve(rhs[:, [j]]).tobytes() == together[:, [j]].tobytes()
