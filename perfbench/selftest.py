"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload once at a reduced size, plain and traced, and confirms
that every check passes on the real outputs and that the traced round
recorded work in each layer the workload exercises.  Then, for each kind
of output, it corrupts one value (or drops one record) and confirms that
the check of that output rejects it, naming the corrupted file.  Finally
it confirms that BENCHMARK.json lists exactly the metrics run.py reports.
Exits 1 on the first failure.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads

SMALL = {
    "ratings": functools.partial(workloads.ratings, n=400, m=2560, zero_out=50),
    "many_sinks": functools.partial(workloads.many_sinks, sinks=40),
    "slow_mixing": functools.partial(workloads.slow_mixing, n=300),
}


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def edit_csv(path: Path, row: int, column: int, change) -> None:
    """Apply ``change`` to one field; ``row`` counts lines from 0, header included."""
    lines = path.read_text().splitlines()
    fields = next(csv.reader([lines[row]]))
    fields[column] = change(fields[column])
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(fields)
    lines[row] = buffer.getvalue()
    path.write_text("\n".join(lines) + "\n")


def drop_line(path: Path, row: int) -> None:
    """Delete one line; ``row`` counts lines from 0, header included."""
    lines = path.read_text().splitlines()
    del lines[row]
    path.write_text("\n".join(lines) + "\n")


def nudge(value: str) -> str:
    return repr(float(value) + 1e-3)


def _sink_class(data):
    sink = data["classification"]["sinks"][0]
    sink["class"] = "sub" if sink["class"] != "sub" else "cooperative_sb"


def _steady_state(data):
    data["steady_state"]["values"][0] += 1e-3


def _centrality_top(data):
    data["centrality_top"][0]["centrality"] += 1e-3


def _regime(data):
    spectral = data["spectral"]
    spectral["regime"] = "convergent" if spectral["regime"] != "convergent" else "semi_convergent"


def _spectral_radius(data):
    data["spectral"]["spectral_radius"] = 0.5


def _sink_radius(data):
    data["spectral"]["sink_spectral_radii"][0] += 1e-3


def _side(data):
    node = next(e for e in data["classification"]["nodes"] if "side" in e)
    node["side"] = -node["side"]


def _iterations(data):
    data["iterations_used"] += 1


def _manifest_flip(data):
    data["flips"][0]["old_weight"] = -data["flips"][0]["old_weight"]


def _manifest_beta(data):
    data["beta_changes"][0]["new"] += 0.125


# (workload, output file under the round's out dir, corruption, file the check must name)
CORRUPTIONS = [
    ("ratings", "analyze/report.json", lambda p: edit_json(p, _sink_class), "report.json"),
    ("ratings", "analyze/report.json", lambda p: edit_json(p, _steady_state), "report.json"),
    ("ratings", "analyze/report.json", lambda p: edit_json(p, _centrality_top), "report.json"),
    ("ratings", "analyze/report.json", lambda p: edit_json(p, _regime), "report.json"),
    ("ratings", "analyze/report.json", lambda p: edit_json(p, _spectral_radius), "report.json"),
    ("ratings", "centrality/theta.csv", lambda p: edit_csv(p, 1, 2, nudge), "theta.csv"),
    ("ratings", "centrality/theta_scatter.csv",
     lambda p: edit_csv(p, 1, 3, lambda s: str(-int(s))), "theta_scatter.csv"),
    ("ratings", "centrality/theta_scatter.csv", lambda p: edit_csv(p, 1, 2, nudge),
     "theta_scatter.csv"),
    ("ratings", "centrality/centrality.csv", lambda p: edit_csv(p, 5, 2, nudge),
     "centrality.csv"),
    ("ratings", "simulate/trajectory_wide.csv", lambda p: edit_csv(p, 2, 3, nudge),
     "trajectory_wide.csv"),
    ("ratings", "simulate/trajectory_long.csv", lambda p: edit_csv(p, 7, 2, nudge),
     "trajectory_long.csv"),
    ("ratings", "simulate/simulate_summary.json", lambda p: edit_json(p, _iterations),
     "simulate_summary.json"),
    ("ratings", "modify/modified_graph.csv", lambda p: edit_csv(p, 0, 2, lambda s: str(-int(s))),
     "modified_graph.csv"),
    ("ratings", "modify/modified_beta.csv", lambda p: edit_csv(p, 0, 1, nudge),
     "modified_beta.csv"),
    ("ratings", "modify/modify_manifest.json", lambda p: edit_json(p, _manifest_flip),
     "modify_manifest.json"),
    ("ratings", "modify/modify_manifest.json", lambda p: edit_json(p, _manifest_beta),
     "modify_manifest.json"),
    ("many_sinks", "analyze/report.json", lambda p: edit_json(p, _side), "report.json"),
    ("many_sinks", "analyze/report.json", lambda p: edit_json(p, _sink_radius), "report.json"),
    ("many_sinks", "analyze/report.json", lambda p: edit_json(p, _steady_state), "report.json"),
    ("many_sinks", "analyze/report.json", lambda p: edit_json(p, _centrality_top),
     "report.json"),
    ("slow_mixing", "simulate/trajectory_wide.csv", lambda p: edit_csv(p, -1, 1, nudge),
     "trajectory_wide.csv"),
    ("slow_mixing", "simulate/trajectory_long.csv", lambda p: edit_csv(p, -1, 2, nudge),
     "trajectory_long.csv"),
    ("slow_mixing", "simulate/trajectory_wide.csv", lambda p: drop_line(p, 3),
     "trajectory_wide.csv"),
]

_PROC = ("proc.cpu_s", "proc.minflt")
_LOAD = ("cli.output_mb", "graph.parse_s", "graph.validate_s", "graph.edges",
         "topology.scc_s", "topology.scc_calls", "topology.condense_s")
_SOLVE = ("topology.classify_s", "dynamics.build_s", "solve.spectral_s", "solve.sink_solve_s",
          "solve.sink_solves", "solve.steady_state_s", "solve.influence_s", "solve.theta_nnz")
_SIMULATE = ("cli.simulate_s", "dynamics.simulate_s", "dynamics.iterations",
             "dynamics.recorded_states", "dynamics.trajectory_csv_s")
# Per-layer metrics that a traced round of each workload must read above 0.
# Together they name every per-layer metric but the tracing overhead, so a
# wrapper that the CLI no longer calls through shows as a failure here.
EXERCISED = {
    "ratings": (*_PROC, *_LOAD, *_SOLVE, *_SIMULATE, "cli.analyze_s", "cli.centrality_s",
                "cli.modify_s", "graph.serialize_s", "solve.export_s"),
    "many_sinks": (*_PROC, *_LOAD, *_SOLVE, "cli.analyze_s", "topology.balance_s",
                   "topology.balance_calls"),
    "slow_mixing": (*_PROC, *_LOAD, *_SIMULATE),
}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def main() -> int:
    run_root = run.ROOT / ".perfbench_runs" / "selftest"
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(run_root, ignore_errors=True)
    launcher = run.Launcher()
    try:
        for name, generator in SMALL.items():
            bench = run.Bench(name, 7, run_root / name, launcher)
            workloads.GENERATORS[name] = generator
            setup_s = bench.setup()
            for traced in (False, True):
                result = bench.run_round(traced)
                if result.failed:
                    fail(f"{name}: a CLI call failed, see {bench.run_dir / 'cli.log'}")
                try:
                    bench.check(result)
                except checks.CheckError as exc:
                    fail(f"{name}: real outputs rejected: {exc}")
            print(f"ok   {name}: real outputs pass every check")
            idle = [m for m in EXERCISED[name] if not result.layers[m] > 0]
            if idle:
                fail(f"{name}: traced round recorded nothing for {idle}")
            print(f"ok   {name}: traced round exercised {len(EXERCISED[name])} layer metrics")

            got = set(run.end_to_end(bench.rounds, setup_s))
            if got != {m["name"] for m in spec["end_to_end"]}:
                fail(f"{name}: end-to-end metrics {sorted(got)} differ from BENCHMARK.json")
            got = set(run.per_layer(bench.rounds))
            if got != {m["name"] for m in spec["per_layer"]}:
                fail(f"{name}: per-layer metrics differ from BENCHMARK.json: "
                     f"{sorted(got ^ {m['name'] for m in spec['per_layer']})}")

            out = bench.run_dir / "out"
            pristine = bench.run_dir / "pristine"
            shutil.copytree(out, pristine)
            for workload, target, corrupt, expected in CORRUPTIONS:
                if workload != name:
                    continue
                corrupt(out / target)
                try:
                    bench.check(result)
                except checks.CheckError as exc:
                    if exc.output != expected:
                        fail(f"{name}: corrupt {target} was blamed on {exc.output}: {exc}")
                    print(f"ok   {name}: corrupt {target} rejected: {exc}")
                else:
                    fail(f"{name}: corrupt {target} passed the checks")
                shutil.rmtree(out)
                shutil.copytree(pristine, out)
        exercised = {m for names in EXERCISED.values() for m in names}
        unexercised = {m["name"] for m in spec["per_layer"]} - exercised - {"trace.overhead_s"}
        if unexercised:
            fail(f"no workload is expected to exercise {sorted(unexercised)}")
        print("ok   BENCHMARK.json lists exactly the reported metrics")
    finally:
        launcher.close()
        shutil.rmtree(run_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
