import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from signedfj import parse_edge_list, read_stubbornness
from signedfj.cli import main

ANTAGONISTIC = "a,a,1\na,b,-1\nb,a,-1\nb,b,1\n"
STUBBORN_PAIR = "a,a,1\na,b,1\nb,a,1\nb,b,1\n"
CHAIN = "a,a,1\na,b,1\nb,b,1\n"


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def out_dir(tmp_path):
    d = tmp_path / "out"
    d.mkdir()
    return d


class TestAnalyze:
    def test_antagonistic_pair_report(self, tmp_path, out_dir, capsys):
        graph = write(tmp_path / "g.csv", ANTAGONISTIC)
        code = run(["analyze", "--graph", graph, "--out-dir", out_dir])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["graph"] == {
            "nodes": 2, "edges": 4, "negative_edges": 2, "weak_components": 1,
        }
        sinks = report["classification"]["sinks"]
        assert len(sinks) == 1
        assert sinks[0]["class"] == "antagonistic_sb"
        assert sinks[0]["in_s_ns"] is True
        assert report["classification"]["s_ns"] == [0]
        assert report["spectral"]["regime"] == "semi_convergent"

    def test_header_and_extra_columns(self, tmp_path, out_dir):
        graph = write(tmp_path / "g.csv",
                      "SOURCE,TARGET,RATING,TIME\na,b,2,1396e6\nb,a,-1,1396e6\n")
        code = run(["analyze", "--graph", graph, "--out-dir", out_dir,
                    "--ignore-extra-columns", "--ensure-self-loops", "1"])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["graph"]["nodes"] == 2
        assert report["graph"]["edges"] == 4  # two data edges plus two added loops

    def test_malformed_csv_exits_2_with_line_number(self, tmp_path, out_dir, capsys):
        graph = write(tmp_path / "g.csv", "a,b,1\na,b\n")
        code = run(["analyze", "--graph", graph, "--out-dir", out_dir])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_validation_failure_exits_2(self, tmp_path, out_dir, capsys):
        graph = write(tmp_path / "g.csv", STUBBORN_PAIR)
        beta = write(tmp_path / "b.csv", "a,1.5\n")
        code = run(["analyze", "--graph", graph, "--beta", beta, "--out-dir", out_dir])
        assert code == 2
        assert "beta_range" in capsys.readouterr().err

    def test_missing_file_exits_4(self, tmp_path, out_dir, capsys):
        code = run(["analyze", "--graph", tmp_path / "absent.csv", "--out-dir", out_dir])
        assert code == 4

    def test_solver_error_exits_5(self, tmp_path, out_dir, monkeypatch, capsys):
        from signedfj import NumericalError

        def fail(*_args, **_kwargs):
            raise NumericalError("no stationary vector")

        monkeypatch.setattr("signedfj.cli.analyze_network", fail)
        graph = write(tmp_path / "g.csv", ANTAGONISTIC)
        code = run(["analyze", "--graph", graph, "--out-dir", out_dir])
        assert code == 5
        assert "solver error" in capsys.readouterr().err

    def test_bad_numeric_option_exits_2(self, tmp_path, out_dir, capsys):
        graph = write(tmp_path / "g.csv", STUBBORN_PAIR)
        code = run(["simulate", "--graph", graph, "--out-dir", out_dir, "--tol", "-1"])
        assert code == 2
        assert "--tol" in capsys.readouterr().err
        code = run(["analyze", "--graph", graph, "--out-dir", out_dir,
                    "--ensure-self-loops", "0"])
        assert code == 2

    def test_steady_state_uses_x0(self, tmp_path, out_dir):
        graph = write(tmp_path / "g.csv", STUBBORN_PAIR)
        beta = write(tmp_path / "b.csv", "a,0.5\n")
        x0 = write(tmp_path / "x.csv", "a,1\nb,0\n")
        code = run(["analyze", "--graph", graph, "--beta", beta, "--x0", x0,
                    "--out-dir", out_dir])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["steady_state"]["values"] == pytest.approx([1.0, 1.0], abs=1e-10)
        top = report["centrality_top"][0]
        assert (top["rank"], top["node"]) == (1, "a")
        assert top["centrality"] == pytest.approx(2.0, abs=1e-10)


class TestSimulate:
    def test_antagonistic_final_row(self, tmp_path, out_dir):
        graph = write(tmp_path / "g.csv", ANTAGONISTIC)
        x0 = write(tmp_path / "x.csv", "a,1\nb,0\n")
        code = run(["simulate", "--graph", graph, "--x0", x0, "--out-dir", out_dir,
                    "--tol", "1e-13"])
        assert code == 0
        wide = (out_dir / "trajectory_wide.csv").read_text().strip().splitlines()
        final = [float(v) for v in wide[-1].split(",")[1:]]
        assert final == pytest.approx([0.5, -0.5], abs=1e-10)

    def test_zero_start_converges_trivially(self, tmp_path, out_dir):
        graph = write(tmp_path / "g.csv", ANTAGONISTIC)
        code = run(["simulate", "--graph", graph, "--out-dir", out_dir])
        assert code == 0
        summary = json.loads((out_dir / "simulate_summary.json").read_text())
        assert summary["converged"] is True
        wide = (out_dir / "trajectory_wide.csv").read_text().strip().splitlines()
        assert all(float(v) == 0.0 for row in wide[1:] for v in row.split(",")[1:])

    def test_stubborn_pair_final_row(self, tmp_path, out_dir):
        graph = write(tmp_path / "g.csv", STUBBORN_PAIR)
        beta = write(tmp_path / "b.csv", "a,0.5\n")
        x0 = write(tmp_path / "x.csv", "a,1\nb,0\n")
        code = run(["simulate", "--graph", graph, "--beta", beta, "--x0", x0,
                    "--out-dir", out_dir, "--tol", "1e-13"])
        assert code == 0
        wide = (out_dir / "trajectory_wide.csv").read_text().strip().splitlines()
        final = [float(v) for v in wide[-1].split(",")[1:]]
        assert final == pytest.approx([1.0, 1.0], abs=1e-10)

    def test_non_convergence_exits_3(self, tmp_path, out_dir):
        graph = write(tmp_path / "g.csv", STUBBORN_PAIR)
        x0 = write(tmp_path / "x.csv", "a,1\nb,0\n")
        code = run(["simulate", "--graph", graph, "--x0", x0, "--out-dir", out_dir,
                    "--tol", "1e-13", "--max-iters", "2"])
        assert code == 3
        summary = json.loads((out_dir / "simulate_summary.json").read_text())
        assert summary["converged"] is False


class TestCentrality:
    def test_stubborn_pair_ranking(self, tmp_path, out_dir, capsys):
        graph = write(tmp_path / "g.csv", STUBBORN_PAIR)
        beta = write(tmp_path / "b.csv", "a,0.5\n")
        code = run(["centrality", "--graph", graph, "--beta", beta,
                    "--out-dir", out_dir, "--top", "1"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        rank, node, score = out[0].split("\t")
        assert (rank, node) == ("1", "a")
        assert float(score) == pytest.approx(2.0, abs=1e-10)
        rows = (out_dir / "centrality.csv").read_text().strip().splitlines()
        assert rows[0] == "rank,node,centrality"
        assert [r.split(",")[:2] for r in rows[1:]] == [["1", "a"], ["2", "b"]]
        theta_rows = (out_dir / "theta.csv").read_text().strip().splitlines()
        assert theta_rows[0] == "row_node,col_node,theta"
        entries = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in theta_rows[1:]}
        assert set(entries) == {("a", "a"), ("b", "a")}
        assert entries[("a", "a")] == pytest.approx(1.0, abs=1e-10)
        assert entries[("b", "a")] == pytest.approx(1.0, abs=1e-10)

    def test_all_zero_influence(self, tmp_path, out_dir):
        graph = write(tmp_path / "g.csv",
                      "p,q,1\nq,r,1\nr,p,-1\np,p,1\nq,q,1\nr,r,1\n")
        code = run(["centrality", "--graph", graph, "--out-dir", out_dir])
        assert code == 0
        rows = (out_dir / "centrality.csv").read_text().strip().splitlines()
        assert rows[1:] == ["1,p,0.0", "2,q,0.0", "3,r,0.0"]
        assert (out_dir / "theta.csv").read_text() == "row_node,col_node,theta\n"

    def test_singleton_sink_tops_chain(self, tmp_path, out_dir):
        graph = write(tmp_path / "g.csv", CHAIN)
        code = run(["centrality", "--graph", graph, "--out-dir", out_dir])
        assert code == 0
        rows = (out_dir / "centrality.csv").read_text().strip().splitlines()
        assert rows[1] == "1,b,2.0"

    def test_scatter_has_sign_column(self, tmp_path, out_dir):
        graph = write(tmp_path / "g.csv", ANTAGONISTIC)
        code = run(["centrality", "--graph", graph, "--out-dir", out_dir])
        assert code == 0
        rows = (out_dir / "theta_scatter.csv").read_text().strip().splitlines()
        assert rows[0] == "row_node,col_node,theta,sign"
        assert "a,b,-0.5,-1" in rows


class TestModify:
    def test_flip_makes_sink_unbalanced(self, tmp_path, out_dir):
        graph = write(tmp_path / "g.csv",
                      "p,q,1\nq,r,1\nr,p,1\np,p,1\nq,q,1\nr,r,1\n")
        code = run(["modify", "--graph", graph, "--out-dir", out_dir,
                    "--flip-edge", "r,p"])
        assert code == 0
        manifest = json.loads((out_dir / "modify_manifest.json").read_text())
        assert manifest["flips"] == [
            {"source": "r", "target": "p", "old_weight": 1.0, "new_weight": -1.0}
        ]
        analysis_dir = out_dir / "analysis"
        code = run(["analyze", "--graph", out_dir / "modified_graph.csv",
                    "--out-dir", analysis_dir])
        assert code == 0
        report = json.loads((analysis_dir / "report.json").read_text())
        assert report["classification"]["sinks"][0]["class"] == "sub"

    def test_labels_with_line_breaks_round_trip(self, tmp_path, out_dir):
        original = b'"line\nbreak",p,1\np,"cr\r\nlf",-1\n"cr\r\nlf","line\nbreak",2\n'
        (tmp_path / "g.csv").write_bytes(original)
        assert run(["modify", "--graph", tmp_path / "g.csv", "--out-dir", out_dir]) == 0
        assert (out_dir / "modified_graph.csv").read_bytes() == original
        again = out_dir / "again"
        assert run(["modify", "--graph", out_dir / "modified_graph.csv", "--out-dir", again,
                    "--flip-edge", '"cr\r\nlf","line\nbreak"']) == 0
        assert (again / "modified_graph.csv").read_bytes() == original.replace(b",2\n", b",-2\n")

    def test_empty_modification_preserves_bytes(self, tmp_path, out_dir):
        original = "p,q,1\nq,r,1\nr,p,1\np,p,1\nq,q,1\nr,r,1\n"
        graph = write(tmp_path / "g.csv", original)
        code = run(["modify", "--graph", graph, "--out-dir", out_dir])
        assert code == 0
        assert (out_dir / "modified_graph.csv").read_text() == original

    def test_unknown_edge_exits_2(self, tmp_path, out_dir, capsys):
        graph = write(tmp_path / "g.csv", CHAIN)
        code = run(["modify", "--graph", graph, "--out-dir", out_dir,
                    "--flip-edge", "b,a"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_flip_edge_with_a_comma_in_a_label(self, tmp_path, out_dir):
        graph = write(tmp_path / "g.csv", '"x,1",p,1\n"x,1","x,1",1\np,p,1\n')
        code = run(["modify", "--graph", graph, "--out-dir", out_dir,
                    "--flip-edge", '"x,1",p'])
        assert code == 0
        manifest = json.loads((out_dir / "modify_manifest.json").read_text())
        assert manifest["flips"] == [
            {"source": "x,1", "target": "p", "old_weight": 1.0, "new_weight": -1.0}
        ]
        modified = parse_edge_list((out_dir / "modified_graph.csv").read_text(encoding="utf-8"))
        assert modified.adjacency[modified.index("x,1"), modified.index("p")] == -1.0

    def test_unquoted_comma_in_flip_edge_exits_2(self, tmp_path, out_dir, capsys):
        graph = write(tmp_path / "g.csv", '"x,1",p,1\n"x,1","x,1",1\np,p,1\n')
        code = run(["modify", "--graph", graph, "--out-dir", out_dir,
                    "--flip-edge", "x,1,p"])
        assert code == 2
        assert "SRC,TGT" in capsys.readouterr().err

    def test_set_beta_on_singleton_sink_warns(self, tmp_path, out_dir, capsys):
        graph = write(tmp_path / "g.csv", CHAIN)
        code = run(["modify", "--graph", graph, "--out-dir", out_dir,
                    "--set-beta", "b=0.5"])
        assert code == 0
        assert "inert" in capsys.readouterr().err
        beta_rows = (out_dir / "modified_beta.csv").read_text().strip().splitlines()
        assert beta_rows == ["b,0.5"]


class TestCsvQuoting:
    # labels holding a comma and a quote, written quoted in the input
    GRAPH = (
        '"x,1","x,1",1\n"x,1","q""t",1\n"q""t","q""t",2\n'
        '"q""t",p,-1\np,p,1\np,"x,1",1\n'
    )
    LABELS = {"x,1", 'q"t', "p"}
    # files with no header row, and their column count
    HEADERLESS = {"modified_graph.csv": 3, "modified_beta.csv": 2}

    def test_every_csv_output_reads_back_field_for_field(self, tmp_path):
        graph = write(tmp_path / "g.csv", self.GRAPH)
        beta = write(tmp_path / "b.csv", '"x,1",0.5\n')
        common = ["--graph", graph, "--beta", beta]
        assert run(["centrality", *common, "--out-dir", tmp_path / "out"]) == 0
        assert run(["simulate", *common, "--out-dir", tmp_path / "out"]) == 0
        assert run(["modify", *common, "--out-dir", tmp_path / "out",
                    "--flip-edge", "p,p", "--set-beta", 'q"t=0.25']) == 0

        written = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
        assert written == [
            "centrality.csv", "modified_beta.csv", "modified_graph.csv", "theta.csv",
            "theta_scatter.csv", "trajectory_long.csv", "trajectory_wide.csv",
        ]
        for name in written:
            with (tmp_path / "out" / name).open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            width = self.HEADERLESS.get(name) or len(rows.pop(0))
            assert rows and all(len(row) == width for row in rows), name

        out = tmp_path / "out"
        theta = list(csv.reader((out / "theta.csv").open(newline="", encoding="utf-8")))
        assert {row[0] for row in theta[1:]} == self.LABELS
        modified = parse_edge_list((out / "modified_graph.csv").read_text(encoding="utf-8"))
        assert set(modified.labels) == self.LABELS
        new_beta, _ = read_stubbornness(
            (out / "modified_beta.csv").read_text(encoding="utf-8"), modified
        )
        assert new_beta[modified.index("x,1")] == 0.5
        assert new_beta[modified.index('q"t')] == 0.25


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        graph = write(tmp_path / "g.csv", STUBBORN_PAIR)
        beta = write(tmp_path / "b.csv", "a,0.5\n")
        x0 = write(tmp_path / "x.csv", "a,1\nb,0\n")
        outputs = []
        for name in ("run1", "run2"):
            d = tmp_path / name
            for command in (
                ["analyze", "--graph", graph, "--beta", beta, "--x0", x0,
                 "--out-dir", d / "analyze"],
                ["simulate", "--graph", graph, "--beta", beta, "--x0", x0,
                 "--out-dir", d / "simulate"],
                ["centrality", "--graph", graph, "--beta", beta,
                 "--out-dir", d / "centrality"],
            ):
                assert run(command) == 0
            blobs = {
                p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()
            }
            # strip the per-run out-dir path recorded in the config block
            blobs = {
                k: v.replace(str(d).encode(), b"OUT") for k, v in blobs.items()
            }
            outputs.append(blobs)
        assert outputs[0] == outputs[1]

    def test_simulate_limit_matches_influence_times_x0(self, tmp_path):
        graph = write(tmp_path / "g.csv", ANTAGONISTIC)
        x0 = write(tmp_path / "x.csv", "a,0.9\nb,-0.4\n")
        sim_dir = tmp_path / "sim"
        cen_dir = tmp_path / "cen"
        assert run(["simulate", "--graph", graph, "--x0", x0, "--out-dir", sim_dir,
                    "--tol", "1e-13"]) == 0
        assert run(["centrality", "--graph", graph, "--out-dir", cen_dir]) == 0
        wide = (sim_dir / "trajectory_wide.csv").read_text().strip().splitlines()
        final = np.array([float(v) for v in wide[-1].split(",")[1:]])
        theta = np.zeros((2, 2))
        labels = {"a": 0, "b": 1}
        for row in (cen_dir / "theta.csv").read_text().strip().splitlines()[1:]:
            r, c, v = row.split(",")
            theta[labels[r], labels[c]] = float(v)
        assert np.max(np.abs(theta @ np.array([0.9, -0.4]) - final)) <= 1e-8


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        graph = write(tmp_path / "g.csv", CHAIN)
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "signedfj", "analyze", "--graph", graph,
             "--out-dir", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
