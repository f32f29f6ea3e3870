"""Run one signedfj CLI command with spans around each layer's public calls.

Usage: python traced_cli.py SPANS.json <signedfj arguments>

The package is not modified: its public functions are wrapped in this
process before ``signedfj.cli.main`` runs, in every module namespace that
holds them.  Each call records a span ``[metric, start, end, parent]``;
counters record work done (calls, edges, iterations, nnz, bytes written).
Spans and counters are written to SPANS.json when the command ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

from signedfj import cli, dynamics, graph, solve, topology

MODULES = (cli, graph, topology, dynamics, solve)

# (module, function name, span metric or None, counters taken from the result)
TARGETS = [
    (cli, "cmd_analyze", "cli.analyze_s", None),
    (cli, "cmd_centrality", "cli.centrality_s", None),
    (cli, "cmd_simulate", "cli.simulate_s", None),
    (cli, "cmd_modify", "cli.modify_s", None),
    (cli, "_write", None, lambda path: {"cli.output_bytes": path.stat().st_size}),
    (cli, "_load_graph", None, lambda g: {"graph.edges": g.edge_count}),
    (graph, "parse_edge_list", "graph.parse_s", None),
    (graph, "read_stubbornness", "graph.parse_s", None),
    (graph, "read_initial_opinions", "graph.parse_s", None),
    (graph, "ensure_self_loops", "graph.parse_s", None),
    (graph, "validate", "graph.validate_s", None),
    (graph, "serialize_edge_list", "graph.serialize_s", None),
    (topology, "strongly_connected_components", "topology.scc_s",
     lambda _: {"topology.scc_calls": 1}),
    (topology, "condense", "topology.condense_s", None),
    (topology, "classify_agents", "topology.classify_s", None),
    (topology, "balance_check", "topology.balance_s", lambda _: {"topology.balance_calls": 1}),
    (dynamics, "build_update_system", "dynamics.build_s", None),
    (dynamics, "simulate", "dynamics.simulate_s",
     lambda t: {"dynamics.iterations": t.iterations_used,
                "dynamics.recorded_states": len(t.ks)}),
    (dynamics, "trajectory_long_csv", "dynamics.trajectory_csv_s", None),
    (dynamics, "trajectory_wide_csv", "dynamics.trajectory_csv_s", None),
    (solve, "spectral_check", "solve.spectral_s", None),
    (solve, "solve_sink", "solve.sink_solve_s", lambda _: {"solve.sink_solves": 1}),
    (solve, "influence_matrix", "solve.influence_s", lambda m: {"solve.theta_nnz": m.nnz}),
    (solve, "influence_triplets_csv", "solve.export_s", None),
    (solve, "influence_scatter_csv", "solve.export_s", None),
    (solve, "centrality_csv", "solve.export_s", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, fn, metric, count):
        def traced(*args, **kwargs):
            if metric is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._open[-1] if self._open else -1
                self.spans.append([metric, 0.0, 0.0, parent])
                self._open.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.spans[index][1:3] = [start, time.perf_counter()]
                    self._open.pop()
            if count is not None:
                self.counters.update(count(result))
            return result

        return traced

    def install(self) -> None:
        for module, name, metric, count in TARGETS:
            original = getattr(module, name)
            wrapped = self.wrap(original, metric, count)
            for holder in MODULES:
                if getattr(holder, name, None) is original:
                    setattr(holder, name, wrapped)
        original = solve.NetworkAnalysis.steady_state
        solve.NetworkAnalysis.steady_state = self.wrap(
            original, "solve.steady_state_s", None)


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv[1:])
    finally:
        out.write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
