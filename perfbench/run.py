"""End-to-end benchmark of the signedfj CLI on seeded workloads.

    python3 perfbench/run.py --workload ratings --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The run generates the workload's
inputs from the seed, then repeats the workload's CLI sequence, one fresh
``python -m signedfj`` process per subcommand, until ``--seconds`` have
passed (whole rounds only, at least one).  After every round it checks the
outputs of every command that exited 0 against the benchmark's own
computations (``checks.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``setup_s``, ``wall_s``, ``peak_rss_mb``); with
``--trace 1`` rounds alternate untraced and traced (``traced_cli.py``) and
the metrics are the per-layer ones plus the tracing overhead.  A line
before it records the host's steal time and load average during the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# Set-up is repeated for at least SETUP_SECONDS and SETUP_REPEATS times;
# one generation takes 15-140 ms, too short to be steady on its own.  It
# runs in this process, so it is timed by this process's CPU time, which
# leaves out the time the host steals from the virtual CPU.
SETUP_SECONDS = 2.0
SETUP_REPEATS = 11
MB = float(1 << 20)

SPAN_METRICS = (
    "cli.analyze_s", "cli.centrality_s", "cli.simulate_s", "cli.modify_s",
    "graph.parse_s", "graph.validate_s", "graph.serialize_s",
    "topology.scc_s", "topology.condense_s", "topology.classify_s", "topology.balance_s",
    "dynamics.build_s", "dynamics.simulate_s", "dynamics.trajectory_csv_s",
    "solve.spectral_s", "solve.sink_solve_s", "solve.steady_state_s", "solve.influence_s",
    "solve.export_s",
)
COUNT_METRICS = (
    "graph.edges", "topology.scc_calls", "topology.balance_calls", "dynamics.iterations",
    "dynamics.recorded_states", "solve.sink_solves", "solve.theta_nnz",
)


@dataclass
class Call:
    command: str
    returncode: int
    peak_rss_mb: float
    cpu_s: float
    minflt: int


@dataclass
class Round:
    traced: bool
    wall_s: float
    calls: list[Call]
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(c.returncode != 0 for c in self.calls)

    @property
    def succeeded(self) -> set[str]:
        return {c.command for c in self.calls if c.returncode == 0}


def host_sample() -> tuple[int, int] | None:
    """Cumulative (steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # guest time is already counted in user time
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


class Launcher:
    """Client of ``launcher.py``, which starts and waits for each CLI process."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], env: dict, log: Path) -> dict:
        request = {"cmd": cmd, "env": env, "cwd": str(ROOT), "log": str(log)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        return json.loads(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def layer_metrics(calls: list[Call], span_files: list[Path]) -> dict[str, float]:
    """Per-layer totals of one traced round.

    A metric's time is the union of its outermost spans: a span nested in
    another span of the same metric is not counted twice.
    """
    totals: Counter = Counter()
    counters: Counter = Counter()
    for path in span_files:
        data = json.loads(path.read_text())
        spans = data["spans"]
        for name, start, end, parent in spans:
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                totals[name] += end - start
        counters.update(data["counters"])
    metrics = {name: float(totals[name]) for name in SPAN_METRICS}
    metrics.update({name: float(counters[name]) for name in COUNT_METRICS})
    metrics["cli.output_mb"] = counters["cli.output_bytes"] / MB
    metrics["proc.cpu_s"] = sum(c.cpu_s for c in calls)
    metrics["proc.minflt"] = float(sum(c.minflt for c in calls))
    return metrics


class Bench:
    def __init__(self, name: str, seed: int, run_dir: Path, launcher: Launcher):
        self.name = name
        self.launcher = launcher
        self.seed = seed
        self.run_dir = run_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.rounds: list[Round] = []
        self._reference: dict | None = None

    def setup(self) -> float:
        """Generate and write the inputs; the median CPU time of repeats."""
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            start = time.process_time()
            self.workload = workloads.GENERATORS[self.name](self.seed)
            self.paths = self.workload.write(self.run_dir / "inputs")
            times.append(time.process_time() - start)
        return statistics.median(times)

    def run_round(self, traced: bool) -> Round:
        out_dir = self.run_dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        span_dir = self.run_dir / f"spans{len(self.rounds) + 1}"
        if traced:
            span_dir.mkdir(parents=True)
        calls, span_files = [], []
        start = time.perf_counter()
        for command, argv in self.workload.commands(self.paths, out_dir):
            if traced:
                spans = span_dir / f"{command}.json"
                cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *argv]
            else:
                spans = None
                cmd = [sys.executable, "-m", "signedfj", *argv]
            done = self.launcher.run(cmd, self.env, self.run_dir / "cli.log")
            calls.append(Call(command, done["returncode"], done["maxrss_kb"] / 1024.0,
                              done["cpu_s"], done["minflt"]))
            if spans is not None and spans.exists():
                span_files.append(spans)
        wall = time.perf_counter() - start
        result = Round(traced, wall, calls)
        if traced:
            result.layers = layer_metrics(calls, span_files)
        self.rounds.append(result)
        return result

    def reference(self) -> dict:
        """The benchmark's own view of the inputs, computed once per run."""
        if self._reference is None:
            model = checks.Model.from_csv(self.paths, self.workload.ensure_self_loops)
            x_star, rate = model.iterate(model.x0)
            ref = {"model": model, "x_star": x_star, "rate": rate}
            if self.name != "slow_mixing":
                ref["own"] = checks.structure(model)
            else:
                ref["x_star"] = checks.direct_limit(model)
            if self.name == "many_sinks":
                influential = ref["own"].s_ns_members
                sums = np.zeros(model.n)
                sums[influential] = np.abs(model.theta_columns(influential)).sum(axis=0)
                ref["column_sums"] = sums
            self._reference = ref
        return self._reference

    def check(self, done: Round) -> None:
        """Check the outputs of every command of ``done`` that exited 0."""
        ref = self.reference()
        model, x_star = ref["model"], ref["x_star"]
        out = self.run_dir / "out"
        ok = done.succeeded
        column_sums = ref.get("column_sums")
        if "centrality" in ok:
            rng = np.random.default_rng([self.seed, len(self.rounds)])
            column_sums = checks.check_theta(model, ref["own"], x_star, out / "centrality", rng)
        if "analyze" in ok:
            report = checks.check_report(model, ref["own"], x_star, out / "analyze" / "report.json")
            if column_sums is not None:
                checks.check_centrality_top(report, column_sums)
        if "simulate" in ok:
            final, residual = checks.check_trajectory(model, out / "simulate")
            checks.check_limit(final, x_star, ref["rate"], residual, "trajectory_wide.csv")
        if "modify" in ok:
            checks.check_modify(model, self.workload.flips, self.workload.beta_edits,
                                out / "modify")


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    """The end-to-end metrics.

    ``wall_s`` leaves out rounds with a failed call, so a command that
    exits early does not read as faster, unless no round is free of them.
    """
    plain = [r for r in rounds if not r.traced]
    clean = [r for r in plain if r.failed == 0] or plain
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(r.wall_s for r in clean), "unit": "s"},
        "peak_rss_mb": {"value": max(c.peak_rss_mb for r in plain for c in r.calls), "unit": "MB"},
    }


def per_layer(rounds: list[Round]) -> dict:
    """Medians over the traced rounds, and the tracing overhead on ``wall_s``."""
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    if not traced:
        return {}
    metrics = {}
    for name in traced[0].layers:
        unit = "s" if name.endswith("_s") else "MB" if name.endswith("_mb") else "count"
        metrics[name] = {"value": statistics.median(r.layers[name] for r in traced), "unit": unit}
    overhead = (statistics.median(r.wall_s for r in traced)
                - statistics.median(r.wall_s for r in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # on SIGTERM, still close the launcher, wait for it and remove the outputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "signedfj" / "cli.py").is_file():
        print(f"error: no signedfj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    host_before = host_sample()
    launcher = Launcher()
    bench = Bench(args.workload, args.seed, run_dir, launcher)
    error = None
    try:
        setup_s = bench.setup()
        bench.reference()
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(bench.rounds) % 2 == 1
            result = bench.run_round(traced)
            print(f"round {len(bench.rounds)}{' traced' if traced else ''}: "
                  f"wall {result.wall_s:.3f} s, failed {result.failed}/{len(result.calls)}")
            for call in result.calls:
                if call.returncode != 0:
                    print(f"round {len(bench.rounds)}: {call.command} exited with code "
                          f"{call.returncode}", file=sys.stderr)
            try:
                bench.check(result)
            except (checks.CheckError, OSError, ValueError, KeyError) as exc:
                error = f"round {len(bench.rounds)}: {exc}"
                break
            done = time.perf_counter() >= deadline
            if done and (not args.trace or any(r.traced for r in bench.rounds)):
                break
    finally:
        launcher.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    host_after = host_sample()

    if error is None and all(r.failed for r in bench.rounds):
        error = "no round ran every command without failing"
    if error:
        print(f"check failed: {error}", file=sys.stderr)
    metrics = per_layer(bench.rounds) if args.trace else end_to_end(bench.rounds, setup_s)
    host = {"loadavg": os.getloadavg(), "rounds": len(bench.rounds)}
    if host_before and host_after and host_after[1] > host_before[1]:
        host["steal_share"] = (host_after[0] - host_before[0]) / (host_after[1] - host_before[1])
    print("host " + json.dumps(host))
    print(json.dumps({
        "correct": error is None,
        "attempted": sum(len(r.calls) for r in bench.rounds),
        "failed": sum(r.failed for r in bench.rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
