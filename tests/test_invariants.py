"""Metamorphic invariants of the influence matrix and the steady state.

Each random instance is compared with a transformed copy of itself:

* relabeling the nodes permutes Theta and ``x*`` the same way;
* the gauge flip ``A -> DAD`` with ``D = diag(+-1)`` (self-loops keep their
  sign) maps Theta to ``D Theta D`` and, with ``x0 -> D x0``, ``x*`` to
  ``D x*`` (Altafini, IEEE TAC 2013);
* each row of ``|Theta|`` sums to at most 1, so ``||x*||_inf <= ||x0||_inf``.
"""

import numpy as np
import pytest

from signedfj import Regime, SignedDigraph, analyze_network, validate
from instances import random_instance

SEEDS = range(30)
TOL = 1e-12


def instance(seed):
    graph, beta, x0 = random_instance(8600 + seed, n_max=40)
    report = validate(graph, beta)
    return report.graph, report.beta, x0


def with_weights(graph, labels, mapping, weights):
    """The graph with node i renamed to mapping[i] and the given edge weights."""
    edges = zip(mapping[graph.sources], mapping[graph.targets], weights)
    return SignedDigraph.from_edges(labels, [(int(s), int(t), float(w)) for s, t, w in edges])


def test_seeds_cover_both_regimes():
    regimes = {analyze_network(*instance(seed)[:2]).spectral.regime for seed in SEEDS}
    assert regimes == {Regime.CONVERGENT, Regime.SEMI_CONVERGENT}


@pytest.mark.parametrize("seed", SEEDS)
def test_relabeling_permutes_theta_and_steady_state(seed):
    graph, beta, x0 = instance(seed)
    perm = np.random.default_rng(seed).permutation(graph.n)  # node i becomes perm[i]
    labels = np.empty(graph.n, dtype=object)
    labels[perm] = graph.labels
    moved = with_weights(graph, list(labels), perm, graph.weights)
    beta_p, x0_p = np.empty(graph.n), np.empty(graph.n)
    beta_p[perm], x0_p[perm] = beta, x0

    original, relabeled = analyze_network(graph, beta), analyze_network(moved, beta_p)
    theta = original.influence.matrix.toarray()
    theta_p = relabeled.influence.matrix.toarray()
    assert np.max(np.abs(theta_p[np.ix_(perm, perm)] - theta)) <= TOL
    assert np.max(np.abs(relabeled.steady_state(x0_p)[perm] - original.steady_state(x0))) <= TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_gauge_flip_conjugates_theta_and_steady_state(seed):
    graph, beta, x0 = instance(seed)
    d = np.random.default_rng(seed).choice([-1.0, 1.0], graph.n)
    weights = graph.weights * d[graph.sources] * d[graph.targets]
    flipped = with_weights(graph, graph.labels, np.arange(graph.n), weights)

    original, gauged = analyze_network(graph, beta), analyze_network(flipped, beta)
    theta = original.influence.matrix.toarray()
    theta_d = gauged.influence.matrix.toarray()
    assert np.max(np.abs(theta_d - d[:, None] * theta * d[None, :])) <= TOL
    assert np.max(np.abs(gauged.steady_state(d * x0) - d * original.steady_state(x0))) <= TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_absolute_rows_sum_to_at_most_one(seed):
    graph, beta, x0 = instance(seed)
    analysis = analyze_network(graph, beta)
    rows = np.asarray(abs(analysis.influence.matrix).sum(axis=1)).ravel()
    assert rows.max() <= 1.0 + TOL
    assert np.max(np.abs(analysis.steady_state(x0))) <= np.max(np.abs(x0)) + TOL
