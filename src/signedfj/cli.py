"""Command-line front end: analyze, simulate, centrality, and modify.

Every subcommand reads the same CSV formats, writes deterministic outputs
(identical inputs and flags produce byte-identical files), and uses a
fixed exit-code taxonomy: 0 success, 2 validation error, 3 non-convergence,
4 I/O failure, 5 solver error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from . import __version__
from .dynamics import simulate, trajectory_long_csv
from .errors import GraphFormatError, InternalInconsistencyError, NumericalError
from .graph import (
    SignedDigraph,
    ValidationReport,
    _csv_fields,
    _csv_rows,
    _format_weight,
    ensure_self_loops,
    flip_edges,
    parse_edge_list,
    read_initial_opinions,
    read_stubbornness,
    serialize_edge_list,
    validate,
)
from .solve import analyze_network, centrality_csv, influence_triplets_csv
from .topology import classification_to_dict

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4
EXIT_SOLVER = 5

REPORT_SCHEMA_VERSION = 1

log = logging.getLogger("signedfj")


@dataclass(frozen=True)
class RunConfig:
    """Flags of one invocation, recorded verbatim in every report."""

    command: str
    graph_path: str
    beta_path: str | None
    x0_path: str | None
    out_dir: str
    seed: int
    tol: float
    max_iters: int
    stride: int | None
    patience: int
    top: int
    ensure_self_loops: float | None
    merge_duplicates: str | None
    ignore_extra_columns: bool


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedfj",
        description=(
            "Opinion dynamics on signed digraphs with stubborn agents: "
            "classification, simulation, steady states, influence centrality."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, needs_x0: bool = False) -> None:
        p.add_argument("--graph", required=True, help="edge-list CSV: source,target,weight")
        p.add_argument("--beta", default=None, help="stubbornness CSV: node,beta (default: all 0)")
        if needs_x0:
            p.add_argument("--x0", default=None, help="initial-opinion CSV: node,x0 (default: all 0)")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in provenance; reserved for randomized defaults")
        p.add_argument("--ensure-self-loops", type=float, default=None, metavar="W",
                       help="add a weight-W self-loop to every node lacking one")
        p.add_argument("--merge-duplicates", choices=["sum"], default=None,
                       help="aggregate repeated (source,target) lines instead of rejecting them")
        p.add_argument("--ignore-extra-columns", action="store_true",
                       help="drop trailing CSV columns (e.g. timestamps)")

    p_analyze = sub.add_parser("analyze", help="classify agents and write report.json")
    add_common(p_analyze, needs_x0=True)
    p_analyze.add_argument("--top", type=int, default=10, help="centrality entries in the report")

    p_sim = sub.add_parser("simulate", help="iterate the dynamics and write trajectories")
    add_common(p_sim, needs_x0=True)
    p_sim.add_argument("--tol", type=float, default=1e-10)
    p_sim.add_argument("--max-iters", type=int, default=1_000_000)
    p_sim.add_argument("--stride", type=int, default=None)
    p_sim.add_argument("--patience", type=int, default=10)

    p_cent = sub.add_parser("centrality", help="rank agents by absolute influence")
    add_common(p_cent)
    p_cent.add_argument("--top", type=int, default=10, help="entries printed to stdout")

    p_mod = sub.add_parser("modify", help="flip edge signs / set stubbornness, write new files")
    add_common(p_mod)
    p_mod.add_argument("--flip-edge", action="append", default=[], metavar="SRC,TGT",
                       help="negate this edge's weight (repeatable); quote a label "
                            "holding a comma as in CSV")
    p_mod.add_argument("--set-beta", action="append", default=[], metavar="NODE=VALUE",
                       help="set this node's stubbornness (repeatable)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        graph_path=args.graph,
        beta_path=args.beta,
        x0_path=getattr(args, "x0", None),
        out_dir=args.out_dir,
        seed=args.seed,
        tol=getattr(args, "tol", 1e-10),
        max_iters=getattr(args, "max_iters", 1_000_000),
        stride=getattr(args, "stride", None),
        patience=getattr(args, "patience", 10),
        top=getattr(args, "top", 10),
        ensure_self_loops=args.ensure_self_loops,
        merge_duplicates=args.merge_duplicates,
        ignore_extra_columns=args.ignore_extra_columns,
    )


def _check_config(config: RunConfig) -> str | None:
    """Return a complaint for out-of-range numeric options, or None."""
    if not 0 < config.tol < math.inf:
        return f"--tol must be positive and finite, got {config.tol!r}"
    if config.max_iters < 1:
        return f"--max-iters must be at least 1, got {config.max_iters!r}"
    if config.stride is not None and config.stride < 1:
        return f"--stride must be at least 1, got {config.stride!r}"
    if config.patience < 1:
        return f"--patience must be at least 1, got {config.patience!r}"
    if config.top < 0:
        return f"--top must be nonnegative, got {config.top!r}"
    if config.ensure_self_loops is not None and not 0 < config.ensure_self_loops < math.inf:
        return ("--ensure-self-loops needs a positive finite weight, "
                f"got {config.ensure_self_loops!r}")
    return None


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_text(path: str) -> str:
    # untranslated, as csv wants it: a quoted label may hold "\r\n" or "\r";
    # a leading byte-order mark is dropped, so it never joins the first label
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return fh.read()


def _parse_headed_or_not(text: str, parse, value_column: int):
    """Parse, skipping line 1 as a header only when it looks like one.

    Line 1 is a header when its numeric field (column ``value_column``) is
    present and does not parse as a number, as in ``source,target,weight``
    or ``node,beta``.  Any other first line is data, so a bad one (a zero
    weight, an unknown label, a missing column, ``nan``) is reported as an
    error on line 1.
    """
    lineno, fields = next(_csv_rows(text), (0, []))
    has_header = False
    if lineno == 1 and len(fields) > value_column:
        try:
            float(fields[value_column])
        except ValueError:
            has_header = True
    return parse(text, has_header=has_header)


def _load_graph(config: RunConfig) -> SignedDigraph:
    text = _read_text(config.graph_path)
    graph = _parse_headed_or_not(
        text,
        lambda t, has_header: parse_edge_list(
            t,
            has_header=has_header,
            ignore_extra_columns=config.ignore_extra_columns,
            merge_duplicates=config.merge_duplicates,
        ),
        2,
    )
    if config.ensure_self_loops is not None:
        graph = ensure_self_loops(graph, config.ensure_self_loops)
    log.info(
        "loaded %s: %d nodes, %d edges (%d negative)",
        config.graph_path, graph.n, graph.edge_count, graph.negative_edge_count,
    )
    return graph


def _load_inputs(config: RunConfig) -> tuple[SignedDigraph, np.ndarray, np.ndarray, list]:
    """The graph, beta, x0 and input warnings of ``config``; the warnings are printed.

    A missing profile is all zeros.  Validation is left to the caller.
    """
    graph = _load_graph(config)
    warnings = []
    if config.beta_path:
        text = _read_text(config.beta_path)
        beta, w = _parse_headed_or_not(
            text, lambda t, has_header: read_stubbornness(t, graph, has_header=has_header), 1
        )
        warnings.extend(w)
    else:
        beta = np.zeros(graph.n)
    if config.x0_path:
        text = _read_text(config.x0_path)
        x0, w = _parse_headed_or_not(
            text, lambda t, has_header: read_initial_opinions(t, graph, has_header=has_header), 1
        )
        warnings.extend(w)
    else:
        x0 = np.zeros(graph.n)
    _print_issues(warnings, kind="warning")
    return graph, beta, x0, warnings


def _issue_dicts(issues) -> list[dict]:
    return [{"code": i.code, "ref": i.ref, "message": i.message} for i in issues]


def _print_issues(issues, *, kind: str) -> None:
    for issue in issues:
        print(f"{kind}[{issue.code}] {issue.ref}: {issue.message}", file=sys.stderr)


def _input_provenance(config: RunConfig) -> dict:
    prov = {"graph": {"path": config.graph_path, "sha256": _sha256(config.graph_path)}}
    for name, path in (("beta", config.beta_path), ("x0", config.x0_path)):
        prov[name] = {"path": path, "sha256": _sha256(path)} if path else None
    return prov


def _write(out_dir: str, name: str, content: str | Callable[[TextIO], None]) -> Path:
    """Write ``content``, or let a streaming writer fill the open file; return its path.

    An error once the file is open removes the partial file, then goes on.
    """
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    out = path.open("w", encoding="utf-8")
    try:
        with out:
            if isinstance(content, str):
                out.write(content)
            else:
                content(out)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def _json_writer(payload: dict) -> Callable[[TextIO], None]:
    """A writer of ``payload`` as indented JSON with sorted keys and a final newline.

    ``json.dump`` writes the text a piece at a time, so it is never held whole.
    """

    def write(out: TextIO) -> None:
        json.dump(payload, out, sort_keys=True, indent=2)
        out.write("\n")

    return write


def _validated(graph: SignedDigraph, beta) -> ValidationReport | None:
    report = validate(graph, beta)
    _print_issues(report.warnings, kind="warning")
    if not report.ok:
        _print_issues(report.errors, kind="error")
        return None
    return report


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(config: RunConfig) -> int:
    graph, beta, x0, input_warnings = _load_inputs(config)
    report = _validated(graph, beta)
    if report is None:
        return EXIT_VALIDATION

    analysis = analyze_network(report.graph, report.beta, _topology=(report.sccs, report.dag))
    x_star = analysis.steady_state(x0)
    nodes, values = analysis.top_centrality(config.top)
    top = [
        {"rank": rank, "node": report.graph.labels[node], "centrality": float(value)}
        for rank, (node, value) in enumerate(zip(nodes, values), start=1)
    ]
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
        "config": asdict(config),
        "inputs": _input_provenance(config),
        "validation": {
            "errors": [],
            "warnings": _issue_dicts(tuple(input_warnings) + report.warnings),
            "normalized": report.normalized,
        },
        "graph": {
            "nodes": report.graph.n,
            "edges": report.graph.edge_count,
            "negative_edges": report.graph.negative_edge_count,
            "weak_components": report.weak_components,
        },
        "classification": classification_to_dict(
            analysis.classification, report.graph.labels
        ),
        "spectral": {
            "regime": analysis.spectral.regime.value,
            "spectral_radius": analysis.spectral.spectral_radius,
            "spectral_radius_abs": analysis.spectral.spectral_radius_abs,
            "sink_spectral_radii": list(analysis.spectral.sink_spectral_radii),
            "approximate": analysis.spectral.approximate,
        },
        "sink_solutions": [
            {"sink": s.sink_index, "kind": s.kind.value} for s in analysis.sink_solutions
        ],
        "steady_state": {
            "labels": list(report.graph.labels),
            "values": [float(v) for v in x_star],
        },
        "centrality_top": top,
    }
    path = _write(config.out_dir, "report.json", _json_writer(payload))
    print(f"wrote {path}")
    print(
        f"nodes={report.graph.n} edges={report.graph.edge_count} "
        f"sinks={len(analysis.classification.sinks)} "
        f"regime={analysis.spectral.regime.value}"
    )
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    graph, beta, x0, _ = _load_inputs(config)
    report = _validated(graph, beta)
    if report is None:
        return EXIT_VALIDATION

    trajectory = None

    def run(record):
        nonlocal trajectory
        trajectory = simulate(
            report.graph,
            report.beta,
            x0,
            tol=config.tol,
            max_iters=config.max_iters,
            stride=config.stride,
            patience=config.patience,
            record=record,
        )
        return trajectory

    # the run streams its records into one walk that writes both trajectory
    # files; each is closed when its own _write returns, and removed if it raises
    _write(config.out_dir, "trajectory_wide.csv", lambda wide: _write(
        config.out_dir, "trajectory_long.csv",
        partial(trajectory_long_csv, run, report.graph.labels, wide=wide)))
    summary = {
        "config": asdict(config),
        "inputs": _input_provenance(config),
        "converged": trajectory.converged,
        "iterations_used": trajectory.iterations_used,
        "final_residual": trajectory.final_residual,
    }
    _write(config.out_dir, "simulate_summary.json", _json_writer(summary))
    state = "converged" if trajectory.converged else "did NOT converge"
    print(
        f"{state} after {trajectory.iterations_used} iterations "
        f"(residual {trajectory.final_residual:.3e})"
    )
    return EXIT_OK if trajectory.converged else EXIT_NONCONVERGENCE


def cmd_centrality(config: RunConfig) -> int:
    graph, beta, _, _ = _load_inputs(config)
    report = _validated(graph, beta)
    if report is None:
        return EXIT_VALIDATION

    # drop the analysis, and with it the follower factorization, before the exports
    topology = report.sccs, report.dag
    result = analyze_network(report.graph, report.beta, _topology=topology).influence
    labels = report.graph.labels
    _write(config.out_dir, "centrality.csv",
           centrality_csv(result.centrality, result.ranking, labels))
    # one walk writes both Theta files; each is closed when its own _write returns
    _write(config.out_dir, "theta_scatter.csv", lambda scatter: _write(config.out_dir, "theta.csv",
           partial(influence_triplets_csv, result.matrix, labels, scatter=scatter)))
    for rank, node in enumerate(result.ranking[: config.top], start=1):
        print(f"{rank}\t{labels[node]}\t{float(result.centrality[node])!r}")
    return EXIT_OK


def cmd_modify(config: RunConfig, flip_specs: list[str], beta_specs: list[str]) -> int:
    graph, beta, _, _ = _load_inputs(config)

    flips: dict[tuple[str, str], None] = {}  # in the order given
    for spec in flip_specs:
        # CSV rules, so a label holding a comma can be quoted: '"x,1",p'
        parts = next(csv.reader([spec]), [])
        if len(parts) != 2:
            raise GraphFormatError(f"--flip-edge expects 'SRC,TGT', got {spec!r}")
        edge = (parts[0].strip(), parts[1].strip())
        if edge in flips:  # a second flip would undo the first
            raise GraphFormatError(f"--flip-edge names the edge {edge!r} more than once")
        flips[edge] = None

    beta_changes: dict[str, float] = {}
    for spec in beta_specs:
        node, sep, value = spec.partition("=")
        if not sep:
            raise GraphFormatError(f"--set-beta expects 'NODE=VALUE', got {spec!r}")
        node = node.strip()
        if node not in graph.label_index:
            raise GraphFormatError(f"unknown node label {node!r}")
        if node in beta_changes:
            raise GraphFormatError(f"--set-beta names the node {node!r} more than once")
        try:
            number = float(value)
        except ValueError:
            raise GraphFormatError(f"stubbornness {value!r} is not a real number")
        if not 0.0 <= number <= 1.0:  # also refuses nan
            raise GraphFormatError(f"stubbornness {value!r} for {node!r} is outside [0, 1]")
        beta_changes[node] = number

    modified_graph = flip_edges(graph, flips) if flips else graph  # validates refs
    flip_manifest = [
        {
            "source": s,
            "target": t,
            "old_weight": graph.weight_of(graph.index(s), graph.index(t)),
            "new_weight": -graph.weight_of(graph.index(s), graph.index(t)),
        }
        for s, t in flips
    ]

    new_beta = beta.copy()
    warnings = []
    if beta_changes:
        # a node is a single-node sink exactly when no edge leaves it for another
        others = modified_graph.sources != modified_graph.targets
        out_degree = np.bincount(modified_graph.sources[others], minlength=modified_graph.n)
        for node, value in beta_changes.items():
            idx = modified_graph.index(node)
            if out_degree[idx] == 0 and value > 0:
                message = (
                    f"stubbornness on single-node sink {node!r} is inert: "
                    "its opinion never changes anyway"
                )
                warnings.append(message)
                print(f"warning[inert_beta] {node}: {message}", file=sys.stderr)
            new_beta[idx] = value
    beta_manifest = [
        {"node": node, "old": float(beta[modified_graph.index(node)]), "new": value}
        for node, value in beta_changes.items()
    ]
    # --set-beta values are checked above, so what is left came from --beta
    outside = np.flatnonzero((new_beta < 0.0) | (new_beta > 1.0))
    if outside.size:
        i = outside[0]
        raise GraphFormatError(
            f"stubbornness {float(new_beta[i])!r} for {modified_graph.labels[i]!r} "
            "in the --beta file is outside [0, 1]"
        )

    graph_path = _write(config.out_dir, "modified_graph.csv", serialize_edge_list(modified_graph))
    fields = _csv_fields(modified_graph.labels)
    beta_lines = [
        f"{fields[i]},{_format_weight(float(new_beta[i]))}"
        for i in range(modified_graph.n)
        if new_beta[i] != 0.0
    ]
    beta_path = _write(config.out_dir, "modified_beta.csv",
                       ("\n".join(beta_lines) + "\n") if beta_lines else "")
    manifest = {
        "config": asdict(config),
        "inputs": _input_provenance(config),
        "flips": flip_manifest,
        "beta_changes": beta_manifest,
        "warnings": warnings,
        "outputs": {"graph": graph_path.name, "beta": beta_path.name},
    }
    _write(config.out_dir, "modify_manifest.json", _json_writer(manifest))
    print(f"wrote {graph_path} ({len(flip_manifest)} flip(s), {len(beta_manifest)} beta change(s))")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("SIGNEDFJ_LOG_LEVEL", "WARNING")
    # a known level name maps to its number; anything else would make
    # basicConfig raise after it has installed its handler
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: SIGNEDFJ_LOG_LEVEL={level!r} is not a logging level "
              "(CRITICAL, ERROR, WARNING, INFO, DEBUG or NOTSET)", file=sys.stderr)
        return EXIT_VALIDATION
    logging.basicConfig(level=level)
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    complaint = _check_config(config)
    if complaint:
        print(f"error: {complaint}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.command == "analyze":
            return cmd_analyze(config)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "centrality":
            return cmd_centrality(config)
        return cmd_modify(config, args.flip_edge, args.set_beta)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, InternalInconsistencyError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
