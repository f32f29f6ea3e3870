"""The top-k centrality of ``analyze``: certified bounds and candidate columns.

``NetworkAnalysis.top_centrality`` ranks from Theta's columns that its
unsigned bounds cannot rule out.  These tests check the premises of that
pruning and its result:

* every bound is at least the exact centrality it bounds, within rounding;
* a free balanced sink's columns, from its one rank-one solve, match a
  per-column solve;
* the top k equals the full-Theta ranking: the same agents in the same
  order, with values within 1e-12, ties at the k-th place included.
"""

import logging

import numpy as np
import pytest

import signedfj.solve
from signedfj import (
    Regime,
    SignedDigraph,
    SolutionKind,
    analyze_network,
    influence_matrix,
    validate,
)
from signedfj.solve import _adjoint_bound, _centrality_bounds
from instances import (
    SUITE_SEED,
    SUITE_SIZE,
    example_seventeen,
    many_two_node_sinks,
    micro_antagonistic,
    micro_chain,
    micro_stubborn,
    mixed_sinks,
    random_instance,
    sc_antagonistic,
    weak_sub_sink,
    weak_two_sinks,
)

TOL = 1e-12


def suite_analysis(seed):
    graph, beta, _ = random_instance(SUITE_SEED + seed)
    report = validate(graph, beta)
    return analyze_network(report.graph, report.beta)


def built_analysis(build):
    graph, beta = build()[:2]
    report = validate(graph, beta)
    return analyze_network(report.graph, report.beta)


def stubborn_first(build):
    """The graph of ``build()`` with its first node stubborn at 0.5."""
    graph = build()
    beta = np.zeros(graph.n)
    beta[0] = 0.5
    return graph, beta


def hub_followers(count: int = 10):
    """Stubborn followers that all rate one hub follower, which rates a sink.

    The hub's column of ``|P_FF|`` sums to ``count / 4``, so the first
    sweeps of the unsigned adjoint take steps above 1.
    """
    labels = [f"f{i}" for i in range(count)] + ["hub", "z", "y"]
    edges = [(f"f{i}", t, 1.0) for i in range(count) for t in (f"f{i}", "hub", "y")]
    edges += [("hub", "hub", 1.0), ("hub", "z", -1.0), ("z", "z", 1.0), ("y", "y", 1.0)]
    beta = np.zeros(count + 3)
    beta[:count] = 0.5
    return SignedDigraph.from_edges(labels, edges), beta


BUILT = {
    "micro_stubborn": micro_stubborn,
    "micro_antagonistic": micro_antagonistic,
    "micro_chain": micro_chain,
    "example_seventeen": lambda: stubborn_first(example_seventeen),
    "sc_antagonistic": lambda: stubborn_first(sc_antagonistic),
    "weak_sub_sink": lambda: stubborn_first(weak_sub_sink),
    "weak_two_sinks": lambda: weak_two_sinks(stubborn_leader=0.5),
    "mixed_sinks": mixed_sinks,
    "many_two_node_sinks": lambda: many_two_node_sinks(40),
    "hub_followers": hub_followers,
}


def bound_per_column(analysis) -> np.ndarray:
    bounds = _centrality_bounds(analysis.system, analysis.sink_solutions)
    u = np.zeros(analysis.graph.n)
    for unit, bound in zip(bounds.units, bounds.bounds):
        u[unit] = bound
    return u


def assert_top_matches_full(analysis, k):
    full = analysis.influence
    nodes, values = analysis.top_centrality(k)
    want = full.ranking[:k]
    assert nodes.tolist() == want.tolist()
    assert np.max(np.abs(values - full.centrality[want]), initial=0.0) <= TOL


def test_suite_covers_both_regimes():
    regimes = {suite_analysis(seed).spectral.regime for seed in range(SUITE_SIZE)}
    assert regimes == {Regime.CONVERGENT, Regime.SEMI_CONVERGENT}


class TestBounds:
    @staticmethod
    def assert_bounds_hold(analysis):
        c = analysis.influence.centrality
        u = bound_per_column(analysis)
        assert np.all(c <= u * (1.0 + 1e-12) + TOL)
        # every nonzero column lies in some unit
        assert not np.any((c > 0.0) & (u == 0.0))

    @pytest.mark.parametrize("seed", range(SUITE_SIZE))
    def test_random_instances(self, seed):
        self.assert_bounds_hold(suite_analysis(seed))

    @pytest.mark.parametrize("name", ["mixed_sinks", "many_two_node_sinks", "example_seventeen"])
    def test_built_instances(self, name):
        self.assert_bounds_hold(built_analysis(BUILT[name]))

    def test_adjoint_bound_is_certified(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(0.0, 1.0, (30, 30))
        b *= 0.95 / b.sum(axis=0)  # columns sum to 0.95: radius 0.95
        from scipy import sparse

        bound, sweeps, step = _adjoint_bound(sparse.csr_matrix(b))
        exact = np.linalg.solve(np.eye(30) - b.T, np.ones(30))
        assert 1 < sweeps < signedfj.solve._MAX_SWEEPS
        assert step <= signedfj.solve._SWEEP_TOL
        assert np.all(bound >= exact)
        assert np.max(bound / exact - 1.0) <= 1e-6

    def test_no_certificate_gives_infinite_bounds(self, monkeypatch):
        monkeypatch.setattr(signedfj.solve, "_MAX_SWEEPS", 2)
        analysis = analyze_network(*hub_followers())
        bounds = _centrality_bounds(analysis.system, analysis.sink_solutions)
        assert bounds.residual >= 1.0
        assert np.isinf(bounds.bounds).all()


class TestRankOneSinks:
    @pytest.mark.parametrize("name", ["mixed_sinks", "many_two_node_sinks", "example_seventeen"])
    def test_columns_match_a_per_column_solve(self, name):
        analysis = built_analysis(BUILT[name])
        system = analysis.system
        ordering = system.ordering
        m = ordering.follower_count
        dense = system.update_matrix.toarray()
        theta_l = np.zeros((ordering.n, ordering.n))
        for s in analysis.sink_solutions:
            sl = ordering.sink_slice(s.sink_index)
            theta_l[sl, sl] = s.limit_matrix()
        # one solve per column of P_FL Theta_L, in float64
        follower_rows = np.linalg.solve(np.eye(m) - dense[:m, :m], dense[:m] @ theta_l)
        theta = analysis.influence.matrix.toarray()[np.ix_(ordering.permutation,
                                                           ordering.permutation)]
        free = [s for s in analysis.sink_solutions
                if s.kind is SolutionKind.EIGENPAIR and s.size > 1]
        assert free
        for s in free:
            sl = ordering.sink_slice(s.sink_index)
            assert np.max(np.abs(theta[:m, sl] - follower_rows[:, sl])) <= TOL

    def test_listed_columns_only(self):
        analysis = built_analysis(BUILT["mixed_sinks"])
        full = analysis.influence.matrix.toarray()
        columns = np.flatnonzero(full.any(axis=0))[::3]
        partial = influence_matrix(analysis.system, analysis.classification,
                                   analysis.sink_solutions, columns=columns).toarray()
        others = np.setdiff1d(np.arange(analysis.graph.n), columns)
        assert not partial[:, others].any()
        assert np.max(np.abs(partial[:, columns] - full[:, columns])) <= TOL

    def test_one_right_hand_side_per_free_sink(self, monkeypatch):
        from signedfj.solve import _ResolventSolver

        graph, beta, _ = many_two_node_sinks(40)
        analysis = analyze_network(graph, beta)
        analysis.sink_solutions
        columns = []
        real = _ResolventSolver.solve_block

        def counting(self, rhs):
            columns.append(int(np.count_nonzero(np.diff(rhs.tocsc().indptr))))
            return real(self, rhs)

        monkeypatch.setattr(_ResolventSolver, "solve_block", counting)
        analysis.influence
        assert columns == [40]


class TestTopCentrality:
    @pytest.mark.parametrize("seed", range(SUITE_SIZE))
    def test_random_instances(self, seed):
        analysis = suite_analysis(seed)
        for k in (1, 10, analysis.graph.n):
            assert_top_matches_full(analysis, k)

    @pytest.mark.parametrize("name", sorted(BUILT))
    def test_built_instances(self, name):
        analysis = built_analysis(BUILT[name])
        for k in (1, 10, analysis.graph.n):
            assert_top_matches_full(analysis, k)

    @pytest.mark.parametrize("k", [3, 4])
    def test_tie_at_the_kth_place(self, k):
        # free singleton sinks d, c and b have nobody feeding them, so each has
        # centrality exactly 1; the followers f and g lead them, and the tie
        # at ranks 3 to 5 breaks by ascending index
        labels = ["f", "d", "c", "b", "a", "g"]
        edges = [("f", "f", 1.0), ("f", "a", 1.0), ("g", "g", 1.0), ("g", "f", -1.0)]
        edges += [(x, x, 1.0) for x in "abcd"]
        graph = SignedDigraph.from_edges(labels, edges)
        analysis = analyze_network(graph, np.array([0.5, 0, 0, 0, 0, 0.25]))
        nodes, values = analysis.top_centrality(k)
        assert [labels[i] for i in nodes] == ["a", "f", "d", "c"][:k]
        assert values[-1] == 1.0
        assert_top_matches_full(analysis, k)

    def test_without_certificate_every_unit_is_solved(self, monkeypatch, caplog):
        monkeypatch.setattr(signedfj.solve, "_MAX_SWEEPS", 2)
        analysis = analyze_network(*hub_followers())
        count = len(_centrality_bounds(analysis.system, analysis.sink_solutions).units)
        with caplog.at_level(logging.INFO, logger="signedfj"):
            assert_top_matches_full(analysis, 3)
        (line,) = [r.getMessage() for r in caplog.records if "top 3 centrality" in r.getMessage()]
        assert f"{count} units" in line and f"{count} candidate units" in line

    def test_prunes_candidates(self, caplog):
        graph, beta, _ = many_two_node_sinks(200)
        analysis = analyze_network(graph, beta)
        with caplog.at_level(logging.INFO, logger="signedfj"):
            assert_top_matches_full(analysis, 10)
        (line,) = [r.getMessage() for r in caplog.records if "top 10 centrality" in r.getMessage()]
        assert "200 units" in line and "20 candidate units" in line

    def test_top_zero_solves_nothing(self, monkeypatch):
        analysis = built_analysis(BUILT["mixed_sinks"])
        monkeypatch.setattr(signedfj.solve, "influence_matrix", None)
        nodes, values = analysis.top_centrality(0)
        assert nodes.size == 0 and values.size == 0

