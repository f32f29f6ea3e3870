"""The JSON files are ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte.

``report.json``'s per-node, per-sink and per-agent lists are rendered from
templates; the oracle rebuilds them as plain lists with
``classification_to_dict`` and the analysis's own values and lets ``json``
write the whole payload.  ``simulate_summary.json`` and
``modify_manifest.json`` are checked against the payload the command hands
its writer.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from instances import random_instance
from signedfj import analyze_network, classification_to_dict, cli, graph as graph_module
from signedfj import parse_edge_list, read_initial_opinions, read_stubbornness, solve, validate
from signedfj.cli import main
from test_golden import write_inputs, write_x0

# quotes, backslashes, commas, line breaks, non-ASCII, astral and control
# characters, and text that a %- or {}-template would read as a field
ODD_LABELS = ['q"t', "back\\slash", "a,b", "line\nbreak", "cr\r\nlf", "café",
              "clef \U0001d11e", "%s%d", "{0}}{", "\x01ctl", "tab\tin", "x y", "ÿ"]
SPECIAL = [math.nan, math.inf, -math.inf, -math.nan, 0.0, -0.0, 5e-324, 1e16,
           9999999999999998.0, 1e-5, 0.0001, 0.1, 1 / 3, -2.5, 1.7976931348623157e308]


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def written(payload) -> str:
    out = io.StringIO()
    cli._json_writer(payload)(out)
    return out.getvalue()


def write_csv(path, rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return str(path)


def odd_labels(n: int) -> list[str]:
    return [f"{ODD_LABELS[i % len(ODD_LABELS)]}{i}" for i in range(n)]


def random_inputs(tmp_path, seed: int, *, odd: bool) -> list[str]:
    """A random instance's graph, beta and x0 files, with odd labels when ``odd``."""
    graph, beta, x0 = random_instance(seed, n_max=40)
    labels = odd_labels(graph.n) if odd else graph.labels
    edges = [(labels[s], labels[t], repr(w)) for s, t, w in
             zip(graph.sources.tolist(), graph.targets.tolist(), graph.weights.tolist())]
    return [
        "--graph", write_csv(tmp_path / "g.csv", edges),
        "--beta", write_csv(tmp_path / "b.csv",
                            [(labels[i], repr(b)) for i, b in enumerate(beta.tolist())]),
        "--x0", write_csv(tmp_path / "x.csv",
                          [(labels[i], repr(v)) for i, v in enumerate(x0.tolist())]),
    ]


def golden_inputs(tmp_path) -> list[str]:
    graph, beta = write_inputs(tmp_path)
    return ["--graph", str(graph), "--beta", str(beta), "--x0", str(write_x0(tmp_path))]


def expected_report(text: str, argv: list[str]) -> str:
    """The report as ``json`` writes it, with the templated lists rebuilt as plain lists.

    The rest of the payload, the small skeleton that ``json`` writes in both,
    is read back from ``text``.
    """
    def read(flag: str) -> str:
        with open(dict(zip(argv[::2], argv[1::2]))[flag], encoding="utf-8", newline="") as fh:
            return fh.read()

    graph = parse_edge_list(read("--graph"))
    beta, _ = read_stubbornness(read("--beta"), graph)
    x0, _ = read_initial_opinions(read("--x0"), graph)
    report = validate(graph, beta)
    analysis = analyze_network(report.graph, report.beta)
    labels = report.graph.labels
    payload = json.loads(text)
    payload["classification"] = classification_to_dict(analysis.classification, labels)
    payload["spectral"]["sink_spectral_radii"] = list(analysis.spectral.sink_spectral_radii)
    payload["sink_solutions"] = [
        {"sink": s.sink_index, "kind": s.kind.value} for s in analysis.sink_solutions
    ]
    payload["steady_state"] = {
        "labels": list(labels),
        "values": [float(v) for v in analysis.steady_state(x0)],
    }
    return dumps(payload)


@pytest.fixture(params=[1, 3, 1 << 12], ids=lambda rows: f"chunk{rows}")
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(graph_module, "_CSV_CHUNK_ROWS", request.param)
    return request.param


class TestReport:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, tmp_path, chunk_rows, seed):
        argv = random_inputs(tmp_path, 9500 + seed, odd=bool(seed % 2))
        assert main(["analyze", *argv, "--out-dir", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        assert text == expected_report(text, argv)
        assert text.isascii()

    def test_golden_instance(self, tmp_path, chunk_rows):
        argv = golden_inputs(tmp_path)
        assert main(["analyze", *argv, "--out-dir", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        assert text == expected_report(text, argv)

    def test_non_finite_values(self, tmp_path, monkeypatch, chunk_rows):
        """NaN and the infinities in x*, the radii and the centralities, as json spells them."""
        steady_state = solve.NetworkAnalysis.steady_state
        spectral_check = solve.spectral_check
        top_centrality = solve.NetworkAnalysis.top_centrality

        def odd(values):
            return np.resize(np.array(SPECIAL), len(values))

        def spectral(*args, **kwargs):
            found = spectral_check(*args, **kwargs)
            return solve.SpectralReport(
                regime=found.regime, spectral_radius=math.nan, spectral_radius_abs=-math.inf,
                sink_spectral_radii=tuple(odd(found.sink_spectral_radii).tolist()),
                approximate=True)

        monkeypatch.setattr(solve, "spectral_check", spectral)
        monkeypatch.setattr(solve.NetworkAnalysis, "steady_state",
                            lambda self, x0: odd(steady_state(self, x0)))

        def top(self, k):
            nodes, values = top_centrality(self, k)
            return nodes, odd(values)

        monkeypatch.setattr(solve.NetworkAnalysis, "top_centrality", top)
        argv = golden_inputs(tmp_path)
        assert main(["analyze", *argv, "--out-dir", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        for spelling in ("NaN", "Infinity", "-Infinity", "5e-324", "1e+16", "-0.0"):
            assert spelling in text
        assert "nan" not in text and "inf" not in text.replace("Infinity", "")
        assert text == expected_report(text, argv)

    def test_empty_lists(self, tmp_path):
        """No s_ns, --top 0 and no warnings."""
        argv = ["--graph", write_csv(tmp_path / "g.csv", [("a", "a", "1"), ("b", "a", "1")]),
                "--beta", write_csv(tmp_path / "b.csv", [("a", "0.5")]),
                "--x0", write_csv(tmp_path / "x.csv", [("a", "1"), ("b", "0")])]
        assert main(["analyze", *argv, "--top", "0", "--out-dir", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        payload = json.loads(text)
        assert payload["classification"]["s_ns"] == []
        assert payload["centrality_top"] == []
        assert payload["validation"]["warnings"] == []
        assert text == expected_report(text, argv)


class TestTemplates:
    @pytest.mark.parametrize("seed", range(40))
    def test_classification(self, chunk_rows, seed):
        graph, beta, _ = random_instance(9600 + seed, n_max=30)
        labels = tuple(odd_labels(graph.n))
        classification = analyze_network(graph, beta).classification
        assert (written({"classification": cli._classification_json(classification, labels)})
                == dumps({"classification": classification_to_dict(classification, labels)}))

    def test_rows_at_every_depth(self, chunk_rows):
        values = np.array(SPECIAL * 3)
        labels = cli._string_rows(ODD_LABELS)
        templated = {"a": {"b": {"c": cli._float_rows(values), "d": labels}},
                     "e": cli._float_rows(values), "f": labels}
        plain = {"a": {"b": {"c": values.tolist(), "d": ODD_LABELS}},
                 "e": values.tolist(), "f": ODD_LABELS}
        assert written(templated) == dumps(plain)

    def test_empty(self):
        templated = {"a": cli._float_rows(np.empty(0)), "b": cli._string_rows(()), "c": {},
                     "d": [], "e": {"f": cli._string_rows([])}}
        plain = {"a": [], "b": [], "c": {}, "d": [], "e": {"f": []}}
        assert written(templated) == dumps(plain)

    def test_skeleton_values(self):
        payload = {"nan": math.nan, "inf": [math.inf, -math.inf], "none": None, "t": True,
                   "nested": {"list": [{"z": 1, "a": ODD_LABELS}], "empty": {}},
                   ODD_LABELS[0]: ODD_LABELS, "int": 3, "float": 0.1}
        assert written(payload) == dumps(payload)


class TestSummaryAndManifest:
    """The payloads that simulate and modify hand their writer, as json writes them."""

    @pytest.fixture
    def payloads(self, monkeypatch):
        seen = []
        writer = cli._json_writer

        def spy(payload):
            seen.append(payload)
            return writer(payload)

        monkeypatch.setattr(cli, "_json_writer", spy)
        return seen

    def check(self, tmp_path, payloads, argv, name) -> None:
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) in (0, 3)
        assert len(payloads) == 1
        assert (out / name).read_text(encoding="utf-8") == dumps(payloads[0])

    @pytest.mark.parametrize("seed", range(6))
    def test_simulate_random_instances(self, tmp_path, payloads, seed):
        argv = random_inputs(tmp_path, 9700 + seed, odd=bool(seed % 2))
        self.check(tmp_path, payloads, ["simulate", *argv, "--max-iters", "50"],
                   "simulate_summary.json")

    @pytest.mark.parametrize("seed", range(6))
    def test_modify_random_instances(self, tmp_path, payloads, seed):
        argv = random_inputs(tmp_path, 9800 + seed, odd=bool(seed % 2))
        graph, _, _ = random_instance(9800 + seed, n_max=40)
        labels = odd_labels(graph.n) if seed % 2 else graph.labels
        source, target = graph.sources[0], graph.targets[0]
        flip = io.StringIO()  # "\r\n" ends the row, so a line break in a label is quoted
        csv.writer(flip).writerow((labels[source], labels[target]))
        self.check(tmp_path, payloads,
                   ["modify", *argv[:4], "--flip-edge", flip.getvalue()[:-2],
                    "--set-beta", f"{labels[-1]}=0.25"],
                   "modify_manifest.json")

    def test_golden_instance(self, tmp_path, payloads):
        argv = golden_inputs(tmp_path)
        self.check(tmp_path, payloads, ["simulate", *argv], "simulate_summary.json")
        payloads.clear()
        self.check(tmp_path, payloads,
                   ["modify", *argv[:4], "--flip-edge", "f00,f01", "--set-beta", "z=0.5"],
                   "modify_manifest.json")
