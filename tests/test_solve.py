import numpy as np
import pytest

from signedfj import (
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
    micro_antagonistic,
    micro_chain,
    micro_stubborn,
    random_instance,
    sc_cooperative,
    sc_unbalanced,
    weak_two_sinks,
)
from oracles import influence_by_iteration, limit_by_iteration


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


class TestFollowerFactorization:
    def test_follower_block_is_factored_once_per_analysis(self, monkeypatch):
        import signedfj.solve

        followers = 80  # past the dense cutoff, so the sparse LU runs
        graph, beta = _leaky_ring(followers, sink_beta=0.0)
        analysis = analyze_network(graph, beta)
        assert analysis.spectral.regime is Regime.SEMI_CONVERGENT
        shapes = []
        real_splu = signedfj.solve.splu

        def counting_splu(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_splu(a, *args, **kwargs)

        monkeypatch.setattr(signedfj.solve, "splu", counting_splu)
        x = analysis.steady_state(np.linspace(-1.0, 1.0, followers + 1))
        theta = analysis.influence.matrix
        assert shapes.count((followers, followers)) == 1
        assert np.allclose(theta @ np.linspace(-1.0, 1.0, followers + 1), x, atol=1e-12)


class TestLargeBlockSolves:
    """Blocks past the dense cutoff take the sparse LU / sparse gauge routes."""

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

    def test_sparse_eigenpair_matches_iteration(self):
        size = 90
        edges, sigma = self._balanced_ring(size, negatives=[30, 60])
        g = SignedDigraph.from_edges([f"n{i}" for i in range(size)], edges)
        analysis = analyze_network(g, np.zeros(size))
        solution = analysis.sink_solutions[0]
        assert solution.kind is SolutionKind.EIGENPAIR
        assert np.array_equal(np.sign(solution.right_vec), np.sign(sigma))
        rng = np.random.default_rng(1)
        x0 = rng.uniform(-1, 1, size)
        closed = analysis.steady_state(x0)
        trajectory = simulate(g, np.zeros(size), x0, tol=1e-12)
        assert trajectory.converged
        assert np.max(np.abs(closed - trajectory.final)) <= 1e-8

    def test_sparse_resolvent_and_follower_blocks(self):
        # 80 followers in a chain feeding a 70-node positive sink with two
        # stubborn members: both (I - block) solves run on sparse LU
        m, s = 80, 70
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


class TestNumericsInternals:
    def test_stationary_direct_fallback_agrees_with_power_iteration(self):
        from signedfj.solve import _stationary_row_vector

        rng = np.random.default_rng(0)
        m = rng.uniform(0.1, 1.0, (8, 8))
        m = m / m.sum(axis=1, keepdims=True)
        by_iteration = _stationary_row_vector(m)
        forced_direct = _stationary_row_vector(m, max_iters=1)
        assert np.allclose(by_iteration, forced_direct, atol=1e-10)
        assert np.allclose(forced_direct @ m, forced_direct, atol=1e-12)
        assert abs(forced_direct.sum() - 1.0) <= 1e-12

    def test_stationary_direct_fallback_solves_large_blocks(self):
        from signedfj.solve import _stationary_row_vector

        size = 250
        rng = np.random.default_rng(1)
        m = rng.uniform(0.1, 1.0, (size, size))  # non-uniform stationary vector
        m = m / m.sum(axis=1, keepdims=True)
        pi = _stationary_row_vector(m, max_iters=1)
        assert np.max(np.abs(pi @ m - pi)) <= 1e-12
        assert abs(pi.sum() - 1.0) <= 1e-12

    def test_stationary_direct_fallback_on_slowly_mixing_path(self):
        from scipy import sparse

        from signedfj import (
            build_update_system,
            canonical_ordering,
            classify_agents,
            condense,
            strongly_connected_components,
        )
        from signedfj.solve import _stationary_row_vector

        n = 600
        rng = np.random.default_rng(3)
        signs = rng.choice([-1.0, 1.0], n - 1)
        edges = [(i, i, 1.0) for i in range(n)]
        edges += [(i, i + 1, signs[i]) for i in range(n - 1)]
        edges += [(i + 1, i, signs[i]) for i in range(n - 1)]
        g = SignedDigraph.from_edges([f"p{i}" for i in range(n)], edges)
        beta = np.zeros(n)
        sccs = strongly_connected_components(g)
        cls = classify_agents(g, sccs, condense(g, sccs), beta)
        system = build_update_system(g, beta, canonical_ordering(cls))
        gauge = sparse.diags(np.asarray(cls.sinks[0].bipartition, dtype=np.float64))
        gauged = sparse.csr_matrix(gauge @ system.sink_block(0) @ gauge)
        assert gauged.data.min() > 0
        pi = _stationary_row_vector(gauged, max_iters=50)
        assert np.max(np.abs(pi @ gauged - pi)) <= 1e-12

    def test_stationary_gives_up_loudly_without_unique_solution(self):
        from signedfj import NumericalError
        from signedfj.solve import _stationary_row_vector

        # two closed classes: every mixture of their stationary vectors is stationary
        m = np.array([[1.0, 0.0, 0.0], [0.0, 0.75, 0.25], [0.0, 0.5, 0.5]])
        with pytest.raises(NumericalError, match="stationary"):
            _stationary_row_vector(m, max_iters=1)

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
        radii = {analyze_network(g, beta).spectral.spectral_radius for _ in range(3)}
        assert len(radii) == 1
        assert radii.pop() < 1.0

    def test_singular_block_raises_internal_inconsistency(self):
        from scipy import sparse

        from signedfj import InternalInconsistencyError
        from signedfj.solve import _ResolventSolver

        with pytest.raises(InternalInconsistencyError, match="singular"):
            _ResolventSolver(sparse.identity(5, format="csr"))


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
