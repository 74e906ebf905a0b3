import argparse
import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hyperdense.cli
import hyperdense.core
import hyperdense.dksh3
import hyperdense.interval
from hyperdense import Hypergraph, VertexSolution, serialize_hypergraph, solution_json
from hyperdense.cli import main
from hyperdense.oracle import PlantedSpec, generate_planted
from builds import spy
from texts import instance_texts

SIMPLE = "3 2\n0 1\n1 2\n"
THREE_UNIFORM = "6 4\n0 1 2\n0 1 2\n1 2 3\n3 4 5\n"
INTERVALS = "6 3\n0 2\n1 3\n4 5\n"


@pytest.fixture
def simple_file(tmp_path):
    path = tmp_path / "simple.hg"
    path.write_text(SIMPLE)
    return str(path)


@pytest.fixture
def uniform_file(tmp_path):
    path = tmp_path / "uniform.hg"
    path.write_text(THREE_UNIFORM)
    return str(path)


@pytest.fixture
def planted_file(tmp_path):
    spec = PlantedSpec(n=20, noise_edges=15, block_size=6, block_edges=12, seed=1)
    path = tmp_path / "planted.hg"
    path.write_text(serialize_hypergraph(generate_planted(spec).hypergraph))
    return str(path)


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "intervals.iv"
    path.write_text(INTERVALS)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_mpu_sqrt_m_row(self, capsys, simple_file):
        code, out, _ = run(capsys, "solve", "mpu", "--algo", "sqrt-m", "--p", "2", simple_file)
        assert code == 0
        row = json.loads(out)
        assert row["problem"] == "mpu"
        assert row["union_size"] == 3
        assert len(row["edge_indices"]) == 2

    def test_mpu_three_uniform_with_trace(self, capsys, uniform_file):
        code, out, _ = run(capsys, "solve", "mpu", "--algo", "three-uniform",
                           "--p", "2", "--trace", uniform_file)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        trace, solution = rows[:-1], rows[-1]
        assert solution["union_size"] == 3
        assert len(trace) == 6
        assert all({"k", "khat", "delta", "union"} <= set(r) for r in trace)

    def test_mpu_interval(self, capsys, interval_file):
        code, out, _ = run(capsys, "solve", "mpu", "--algo", "interval",
                           "--p", "2", interval_file)
        assert code == 0
        assert json.loads(out)["union_size"] == 4

    def test_dksh_with_explain(self, capsys, uniform_file):
        code, out, _ = run(capsys, "solve", "dksh", "--k", "3", "--explain", uniform_file)
        assert code == 0
        lines = out.splitlines()
        breakdown = json.loads(lines[0])
        solution = json.loads(lines[1])
        assert isinstance(breakdown, list)
        assert solution["covered_count"] == 2
        assert {"algorithm", "covered"} <= set(breakdown[0])
        assert solution["covered_count"] == max(r["covered"] for r in breakdown)

    def test_dksh_exact_subroutine(self, capsys, uniform_file):
        code, out, _ = run(capsys, "solve", "dksh", "--k", "3", "--sub", "exact", uniform_file)
        assert code == 0
        assert json.loads(out)["covered_count"] == 2

    def test_dksh_interval(self, capsys, interval_file):
        code, out, _ = run(capsys, "solve", "dksh", "--algo", "interval",
                           "--k", "4", interval_file)
        assert code == 0
        assert json.loads(out)["covered_count"] == 2

    def test_tsv_format(self, capsys, uniform_file):
        code, out, _ = run(capsys, "--format", "tsv", "solve", "dksh", "--k", "3",
                           "--explain", uniform_file)
        assert code == 0
        assert "algorithm=" in out.splitlines()[0]


# ``solve dksh --explain`` stdout on the planted n=20 instance, recorded before
# the explain path stopped re-running the candidate pipeline.  At k=4 a later
# candidate wins outright; at k=9 the first two tie and the earlier one wins.
EXPLAIN_STDOUT = {
    ("json", 4): (
        '[{"algorithm":"k1-case-split","covered":2},'
        '{"algorithm":"greedy-three-layer","covered":0},'
        '{"algorithm":"neighborhood","covered":1},'
        '{"algorithm":"neighborhood-plugged","covered":4},'
        '{"algorithm":"trivial","covered":5}]\n'
        '{"algorithm":"trivial","covered_count":5,"edge_indices":[0,2,8,9,23],'
        '"parameter":4,"problem":"dksh","union_size":4,"vertices":[3,7,8,18]}\n'
    ),
    ("tsv", 4): (
        "algorithm=k1-case-split\tcovered=2\n"
        "algorithm=greedy-three-layer\tcovered=0\n"
        "algorithm=neighborhood\tcovered=1\n"
        "algorithm=neighborhood-plugged\tcovered=4\n"
        "algorithm=trivial\tcovered=5\n"
        '{"algorithm":"trivial","covered_count":5,"edge_indices":[0,2,8,9,23],'
        '"parameter":4,"problem":"dksh","union_size":4,"vertices":[3,7,8,18]}\n'
    ),
    ("json", 9): (
        '[{"algorithm":"k1-case-split","covered":13},'
        '{"algorithm":"greedy-three-layer","covered":13},'
        '{"algorithm":"neighborhood","covered":4},'
        '{"algorithm":"neighborhood-plugged","covered":4},'
        '{"algorithm":"trivial","covered":10}]\n'
        '{"algorithm":"k1-case-split","covered_count":13,'
        '"edge_indices":[0,2,4,7,8,9,10,12,14,16,19,23,24],"parameter":9,'
        '"problem":"dksh","union_size":9,"vertices":[0,1,2,3,4,5,7,8,18]}\n'
    ),
}


class TestExplain:
    @pytest.mark.parametrize(("fmt", "k"), sorted(EXPLAIN_STDOUT))
    def test_stdout_bytes(self, capsys, planted_file, fmt, k):
        code, out, _ = run(capsys, "--format", fmt, "solve", "dksh", "--k", str(k),
                           "--explain", planted_file)
        assert code == 0
        assert out == EXPLAIN_STDOUT[(fmt, k)]

    def test_candidates_built_once(self, capsys, monkeypatch, planted_file):
        calls = spy(monkeypatch, hyperdense.dksh3, "dksh_candidates")
        # Both bindings: the CLI's own import and the one dksh_3uniform resolves.
        monkeypatch.setattr(hyperdense.cli, "dksh_candidates", hyperdense.dksh3.dksh_candidates)
        code, _, _ = run(capsys, "solve", "dksh", "--k", "9", "--explain", planted_file)
        assert code == 0
        assert [args[1] for args in calls] == [9]


class TestIgnoredFlags:
    """A flag the chosen algorithm would not read is a usage error, not a no-op."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("solve", "mpu", "--algo", "sqrt-m", "--p", "2", "--trace"), "--trace"),
            (("solve", "mpu", "--p", "2", "--trace"), "--trace"),
            (("solve", "mpu", "--algo", "interval", "--p", "2", "--trace"), "--trace"),
            (("solve", "dksh", "--algo", "interval", "--k", "4", "--explain"), "--explain"),
            (("solve", "dksh", "--algo", "interval", "--k", "4", "--sub", "exact"), "--sub"),
            (("solve", "dksh", "--algo", "interval", "--k", "4", "--sub", "greedy"), "--sub"),
        ],
        ids=["mpu-sqrt-m-trace", "mpu-default-trace", "mpu-interval-trace",
             "dksh-interval-explain", "dksh-interval-sub-exact", "dksh-interval-sub-greedy"],
    )
    def test_rejected_with_exit_2(self, capsys, simple_file, interval_file, argv, flag):
        path = interval_file if "interval" in argv else simple_file
        code, out, err = run(capsys, *argv, path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert flag in err

    def test_explicit_greedy_sub_matches_default(self, capsys, uniform_file):
        _, default, _ = run(capsys, "solve", "dksh", "--k", "3", uniform_file)
        code, explicit, _ = run(capsys, "solve", "dksh", "--k", "3", "--sub", "greedy",
                                uniform_file)
        assert code == 0
        assert explicit == default


class TestErrors:
    def test_unknown_flag_exits_2(self, capsys, simple_file):
        code, _, _ = run(capsys, "solve", "mpu", "--nope", "--p", "1", simple_file)
        assert code == 2

    def test_unknown_command_exits_2(self, capsys):
        code, out, _ = run(capsys, "bench")
        assert code == 2
        assert out == ""

    def test_parse_error_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_text("2 1\n0 9\n")
        code, _, err = run(capsys, "solve", "mpu", "--p", "1", str(bad))
        assert code == 3
        assert "parse error" in err

    def test_non_utf8_instance_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_bytes(b"\xff3 2\n0 1\n1 2\n")
        code, out, err = run(capsys, "solve", "mpu", "--p", "1", str(bad))
        assert code == 3
        assert out == ""
        assert err.startswith("parse error: ")

    def test_budget_exceeded_exits_4(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERDENSE_ORACLE_BUDGET", "1")
        path = tmp_path / "big.hg"
        path.write_text(THREE_UNIFORM)
        code, _, err = run(capsys, "oracle", "mpu", "--p", "2", str(path))
        assert code == 4
        assert "budget" in err

    def test_non_integer_budget_names_the_variable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERDENSE_ORACLE_BUDGET", "lots")
        path = tmp_path / "inst.hg"
        path.write_text(THREE_UNIFORM)
        code, out, err = run(capsys, "oracle", "mpu", "--p", "2", str(path))
        assert code == 2
        assert out == ""
        assert "HYPERDENSE_ORACLE_BUDGET" in err
        assert "'lots'" in err

    def test_negative_budget_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERDENSE_ORACLE_BUDGET", "-1")
        path = tmp_path / "inst.hg"
        path.write_text(THREE_UNIFORM)
        code, out, err = run(capsys, "oracle", "mpu", "--p", "1", str(path))
        assert (code, out) == (2, "")
        assert err == "error: HYPERDENSE_ORACLE_BUDGET must be nonnegative, got -1\n"

    def test_bad_parameter_exits_2(self, capsys, simple_file):
        code, _, err = run(capsys, "solve", "mpu", "--p", "9", simple_file)
        assert code == 2
        assert "error" in err

    def test_uniformity_violation_exits_2(self, capsys, simple_file):
        code, _, err = run(capsys, "solve", "dksh", "--k", "3", simple_file)
        assert code == 2
        assert "3-uniform" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("mpu", "--algo", "three-uniform", "--p", "1"),
            ("dksh", "--explain", "--k", "3"),
            ("dksh", "--sub", "exact", "--k", "3"),
        ],
    )
    def test_uniformity_violation_exits_2_on_every_solver(self, capsys, tmp_path, argv):
        mixed = tmp_path / "mixed.hg"
        mixed.write_text("6 3\n0 1 2\n3 4\n1 2 5\n")
        code, out, err = run(capsys, "solve", *argv, str(mixed))
        assert code == 2
        assert out == ""
        assert "3-uniform" in err


class TestOracle:
    def test_mpu(self, capsys, uniform_file):
        code, out, _ = run(capsys, "oracle", "mpu", "--p", "2", uniform_file)
        assert code == 0
        assert json.loads(out)["union_size"] == 3

    def test_dksh(self, capsys, uniform_file):
        code, out, _ = run(capsys, "oracle", "dksh", "--k", "3", uniform_file)
        assert code == 0
        assert json.loads(out)["covered_count"] == 2

    def test_minexp(self, capsys, uniform_file):
        # Best subset is the first three edges: union {0,1,2,3}, ratio 3/4.
        code, out, _ = run(capsys, "oracle", "minexp", uniform_file)
        assert code == 0
        row = json.loads(out)
        assert row["ratio_num"] == 3 and row["ratio_den"] == 4


class TestGen:
    def test_uniform_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "uniform", "--n", "8", "--m", "5", "--seed", "7")
        _, second, _ = run(capsys, "gen", "uniform", "--n", "8", "--m", "5", "--seed", "7")
        assert first == second
        assert first.splitlines()[0] == "8 5"

    def test_planted_output_parses_back(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "planted", "--n", "12", "--noise-edges", "4",
                           "--block-size", "4", "--block-edges", "3", "--seed", "1")
        assert code == 0
        path = tmp_path / "planted.hg"
        path.write_text(out)
        code, solved, _ = run(capsys, "solve", "mpu", "--algo", "three-uniform",
                              "--p", "3", str(path))
        assert code == 0
        assert json.loads(solved)["union_size"] <= 4

    def test_interval(self, capsys):
        code, out, _ = run(capsys, "gen", "interval", "--n", "9", "--m", "4", "--seed", "2")
        assert code == 0
        assert out.splitlines()[0] == "9 4"

    def test_uniform_negative_edge_count_rejected(self, capsys):
        code, out, err = run(capsys, "gen", "uniform", "--n", "10", "--m", "-1", "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_interval_negative_edge_count_rejected(self, capsys):
        code, out, err = run(capsys, "gen", "interval", "--n", "5", "--m", "-2", "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error:")


class TestVerify:
    def test_valid_solution(self, capsys, tmp_path, uniform_file):
        _, out, _ = run(capsys, "solve", "mpu", "--p", "2", uniform_file)
        sol = tmp_path / "sol.json"
        sol.write_text(out)
        code, verdict, _ = run(capsys, "verify", uniform_file, str(sol))
        assert code == 0
        assert json.loads(verdict)["valid"] is True

    def test_tampered_solution_rejected(self, capsys, tmp_path, uniform_file):
        _, out, _ = run(capsys, "solve", "mpu", "--p", "2", uniform_file)
        row = json.loads(out)
        row["union_size"] = 1
        row["vertices"] = row["vertices"][:1]
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(row))
        code, verdict, _ = run(capsys, "verify", uniform_file, str(sol))
        assert code == 1
        assert json.loads(verdict)["valid"] is False

    @pytest.mark.parametrize(
        "payload, reason",
        [
            ('{"problem": "dksh", "parameter": 3, "vertices": [1, 1, 2],'
             ' "edge_indices": [], "union_size": 3, "covered_count": 0}',
             "vertices repeat"),
            ('{"problem": "dksh", "parameter": 3, "vertices": [0, 1, 2],'
             ' "edge_indices": [0], "union_size": 99, "covered_count": 1}',
             "union_size differs from the vertex count"),
            ('{"problem": "mpu", "parameter": 1, "vertices": [0, 1, 2],'
             ' "edge_indices": [0], "union_size": 3, "covered_count": 42}',
             "covered_count differs from the edge count"),
            ('{"problem":"mpu","parameter":0,"vertices":[],"edge_indices":[],'
             '"union_size":0,"covered_count":0}',
             "parameter outside [1, 2]"),
            ('{"problem":"dksh","parameter":0,"vertices":[],"edge_indices":[],'
             '"union_size":0,"covered_count":0}',
             "parameter outside [1, 4]"),
        ],
        ids=["dksh-repeated-vertex", "dksh-union-size", "mpu-covered-count",
             "mpu-parameter-0", "dksh-parameter-0"],
    )
    def test_inconsistent_solution_rejected(self, capsys, tmp_path, payload, reason):
        instance = tmp_path / "inst.hg"
        instance.write_text("4 2\n0 1 2\n1 2 3\n")
        sol = tmp_path / "sol.json"
        sol.write_text(payload)
        code, verdict, _ = run(capsys, "verify", str(instance), str(sol))
        assert code == 1
        row = json.loads(verdict)
        assert row["valid"] is False
        assert row["issues"] == [reason]

    def test_interval_solution(self, capsys, tmp_path, interval_file):
        _, out, _ = run(capsys, "solve", "dksh", "--algo", "interval", "--k", "4",
                        interval_file)
        sol = tmp_path / "sol.json"
        sol.write_text(out)
        code, verdict, _ = run(capsys, "verify", "--intervals", interval_file, str(sol))
        assert code == 0
        assert json.loads(verdict)["valid"] is True

    @pytest.mark.parametrize(
        "payload",
        [
            "[1, 2]",
            '{"problem": "mpu", "vertices": [0], "edge_indices": [0]}',
            '{"problem": "dksh", "parameter": 1, "vertices": ["x"], "edge_indices": []}',
            '{"problem": "mpu", "parameter": 1, "vertices": [0], "edge_indices": [0.5]}',
            '{"parameter": 1, "vertices": [0], "edge_indices": [0], "union_size": 1,'
            ' "covered_count": 1}',
            '{"problem": "mvc", "parameter": 1, "vertices": [0], "edge_indices": [0],'
            ' "union_size": 1, "covered_count": 1}',
            '{"problem": "mpu", "parameter": 1, "vertices": [0], "edge_indices": [0],'
            ' "union_size": "1", "covered_count": 1}',
            '{"problem": "dksh", "parameter": 1, "vertices": [0], "edge_indices": [],'
            ' "union_size": 1}',
            "not json",
            "[" * 200_000 + "]" * 200_000,
            '{"problem": "mpu", "parameter": ' + "9" * 5000 + "}",
        ],
        ids=["array", "missing-parameter", "non-int-vertex", "non-int-edge",
             "missing-problem", "unknown-problem", "string-union-size",
             "missing-covered-count", "not-json", "deep-nesting", "huge-int"],
    )
    def test_malformed_solution_exits_3(self, capsys, tmp_path, uniform_file, payload):
        sol = tmp_path / "sol.json"
        sol.write_text(payload)
        code, out, err = run(capsys, "verify", uniform_file, str(sol))
        assert code == 3
        assert out == ""
        assert err.startswith("parse error: ")


class TestParserReuse:
    """``main`` reuses one parser per process; no call may leak into the next."""

    def test_sequence_matches_fresh_parsers(self, capsys, monkeypatch, uniform_file):
        calls = [
            ["solve", "dksh", "--k", "4", "--explain", uniform_file],
            ["solve", "dksh", "--k", "4", uniform_file],
            ["solve", "mpu", "--algo", "three-uniform", "--p", "2", "--trace", uniform_file],
            ["solve", "mpu", "--algo", "three-uniform", "--p", "2", uniform_file],
            ["--format", "tsv", "solve", "dksh", "--k", "3", "--sub", "exact", "--explain",
             uniform_file],
            ["solve", "dksh", "--k", "3", "--explain", uniform_file],
            ["solve", "mpu", "--p", "2", "--bogus", uniform_file],
            ["solve", "mpu", "--p", "2", uniform_file],
            ["solve", "mpu", uniform_file],
            ["solve", "dksh", "--k", "4", uniform_file],
            ["--help"],
            ["solve", "mpu", "--help"],
            ["solve", "mpu", "--p", "1", uniform_file],
        ]
        assert hyperdense.cli.build_parser() is hyperdense.cli.build_parser()
        shared = [run(capsys, *argv) for argv in calls]
        monkeypatch.setattr(
            hyperdense.cli, "build_parser", hyperdense.cli.build_parser.__wrapped__
        )
        fresh = [run(capsys, *argv) for argv in calls]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0]
        assert shared[6][2].startswith("usage: hyperdense")
        assert shared[10][1].startswith("usage: hyperdense")
        for flagged, plain in ((0, 1), (2, 3), (4, 5)):
            assert shared[flagged][1] != shared[plain][1]

    def test_no_action_has_a_mutable_default(self):
        parsers = [hyperdense.cli.build_parser()]
        defaults = []
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                defaults.append(action.default)
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        assert len(defaults) > 30
        assert all(d is None or type(d) in (str, bool, int) for d in defaults)


class TestIndependentScan:
    """Re-verification and ``verify`` scan all m edges; they never consult
    the incidence index the solvers count covers with."""

    def test_reverify_catches_a_cover_from_a_broken_index(self):
        h = Hypergraph(5, ((0, 1, 2), (1, 2, 3), (2, 4)))
        good = VertexSolution.from_vertices(h, (0, 1, 2, 3))
        h.__dict__["edges_by_last"] = {}  # the cached index now lists no edge
        bad = VertexSolution.from_vertices(h, (0, 1, 2, 3))
        assert good.covered == (0, 1) and bad.covered == ()
        hyperdense.cli._reverify(h, solution_json("dksh", 4, good))
        with pytest.raises(RuntimeError):
            hyperdense.cli._reverify(h, solution_json("dksh", 4, bad))

    def test_verify_ignores_covered_edges(self, capsys, monkeypatch, tmp_path, uniform_file):
        _, out, _ = run(capsys, "solve", "dksh", "--k", "4", uniform_file)
        assert json.loads(out)["covered_count"] > 0
        sol = tmp_path / "sol.json"
        sol.write_text(out)
        monkeypatch.setattr(hyperdense.core, "covered_edges", lambda h, vs: ())
        monkeypatch.setattr(hyperdense.cli, "covered_edges", lambda h, vs: ())
        code, verdict, _ = run(capsys, "verify", uniform_file, str(sol))
        assert code == 0
        assert json.loads(verdict)["valid"] is True


class TestAnswerCheck:
    """``solve`` and ``oracle`` run ``verify``'s checks on the very line they print."""

    @pytest.mark.parametrize(
        "argv",
        [("solve", "mpu", "--p", "2"), ("solve", "dksh", "--k", "4"),
         ("oracle", "mpu", "--p", "2"), ("oracle", "dksh", "--k", "3"),
         # Report rows wait for the check too: no row of a failed answer leaks.
         ("solve", "mpu", "--algo", "three-uniform", "--trace", "--p", "2"),
         ("solve", "dksh", "--explain", "--k", "4"),
         ("--format", "tsv", "solve", "mpu", "--algo", "three-uniform", "--trace", "--p", "2"),
         ("--format", "tsv", "solve", "dksh", "--explain", "--k", "4")],
    )
    def test_a_tampered_line_is_never_printed(self, capsys, monkeypatch, uniform_file, argv):
        real = hyperdense.cli.solution_json

        def drop_a_vertex(problem, parameter, sol):
            row = json.loads(real(problem, parameter, sol))
            row["vertices"] = row["vertices"][1:]
            return json.dumps(row, sort_keys=True, separators=(",", ":"))

        monkeypatch.setattr(hyperdense.cli, "solution_json", drop_a_vertex)
        code, out, err = run(capsys, *argv, uniform_file)
        assert (code, out) == (5, "")
        assert err.startswith("internal error: solution failed re-verification: ")

    def test_a_corrupt_interval_table_exits_without_a_traceback(
        self, capsys, monkeypatch, interval_file
    ):
        real = hyperdense.interval.fill_table

        def zero_the_last_cell(inst, bound=None, width=None):
            table = real(inst, bound, width)
            *rows, last = table.values
            return dataclasses.replace(table, values=(*rows, last[:-1] + (0,)))

        monkeypatch.setattr(hyperdense.interval, "fill_table", zero_the_last_cell)
        code, out, err = run(capsys, "solve", "mpu", "--algo", "interval", "--p", "2", interval_file)
        assert (code, out) == (5, "")
        assert err == "internal error: no predecessor realizes table cell (2, 2) = 0\n"
        assert "Traceback" not in err

    def test_a_lowered_base_cell_under_dksh_exits_5(self, capsys, monkeypatch, tmp_path):
        # Interval (1, 2) lies inside (0, 3), which sorts to position 1, so
        # cell (1, 2) is a base cell worth 4: no predecessor is read for it,
        # and only the union check can catch it.
        path = tmp_path / "nested.iv"
        path.write_text("6 2\n0 3\n1 2\n")
        real = hyperdense.interval.fill_table

        def lower_the_base_cell(inst, bound=None, width=None):
            table = real(inst, bound, width)
            first, (cell, base) = table.values
            assert (cell, base) == (4, 4)
            return dataclasses.replace(table, values=(first, (cell, 3)))

        monkeypatch.setattr(hyperdense.interval, "fill_table", lower_the_base_cell)
        code, out, err = run(capsys, "solve", "dksh", "--algo", "interval", "--k", "4", str(path))
        assert (code, out) == (5, "")
        assert err.startswith("internal error: table value 3 disagrees with recomputed union 4")
        assert "Traceback" not in err


# Every shape of solve and oracle that reads an instance file; the last two
# read the interval format.
ANY_BYTES_ARGV = [
    ("solve", "mpu", "--p", "2"),
    ("solve", "mpu", "--algo", "three-uniform", "--trace", "--p", "2"),
    ("solve", "dksh", "--k", "3"),
    ("--format", "tsv", "solve", "dksh", "--explain", "--k", "4"),
    ("oracle", "mpu", "--p", "2"),
    ("oracle", "dksh", "--k", "3"),
    ("oracle", "minexp"),
    ("solve", "mpu", "--algo", "interval", "--p", "1"),
    ("solve", "dksh", "--algo", "interval", "--k", "2"),
]


class TestAnyBytes:
    @settings(deadline=None, derandomize=True, max_examples=500)
    @given(st.data())
    def test_exits_0_2_3_or_4_and_prints_only_on_success(self, data):
        # Valid and edited instance files, n <= 15: a run ends in an answer, a
        # usage error, a parse error or an exceeded budget, never in an
        # internal error or an exception, and a failed run prints nothing.
        argv = data.draw(st.sampled_from(ANY_BYTES_ARGV))
        text = data.draw(instance_texts(intervals="interval" in argv))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "instance"
            path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, str(path)])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert code == 0 or out.getvalue() == ""


class TestLongAugmentingPath:
    def test_solve_mpu_on_a_600_edge_path(self, capsys, tmp_path):
        # The min-cut of the first extraction round augments along the whole
        # path, about 1,200 nodes: more than the default recursion limit.
        h = Hypergraph(601, tuple([(i, i + 1) for i in range(600)] + [(0, 1)]))
        inst = tmp_path / "path.hg"
        inst.write_text(serialize_hypergraph(h))
        code, out, err = run(capsys, "solve", "mpu", "--p", "590", str(inst))
        assert code == 0
        assert err == ""
        assert json.loads(out)["covered_count"] == 590
        sol = tmp_path / "sol.json"
        sol.write_text(out)
        code, verdict, _ = run(capsys, "verify", str(inst), str(sol))
        assert code == 0
        assert json.loads(verdict)["valid"] is True


class TestDeterminismViaSubprocess:
    def test_identical_bytes_across_processes(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "inst.hg"
        path.write_text(THREE_UNIFORM)
        cmd = [sys.executable, "-m", "hyperdense.cli", "solve", "mpu",
               "--algo", "three-uniform", "--p", "2", str(path)]
        # The child imports the package this process imported, installed or not.
        src = str(Path(hyperdense.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        first = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
        second = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
        assert first == second
