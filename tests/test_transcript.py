"""Byte pin of the command line: every message and exit code of a fixed corpus.

``tests/fixtures/cli_transcript.jsonl`` holds one line per ``hyperdense`` run,
in order: its argv, exit code, stdout and stderr, with the run's temporary
directory written as ``<tmp>``.  The corpus covers ``solve`` for every
algorithm and flag, the three oracles, ``gen``, ``verify`` on valid and
tampered solutions, and malformed, non-UTF-8 and missing inputs.  Text that
argparse writes (help and usage errors, which start with ``usage:``) changes
wording between Python versions, so those runs record the exit code only.
A refactor that keeps every message must leave the file unchanged.  To
rebuild it after a declared change of output, run
``PYTHONPATH=src python tests/test_transcript.py > tests/fixtures/cli_transcript.jsonl``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from hyperdense.cli import main
from hyperdense.oracle import BUDGET_ENV_VAR

FIXTURE = Path(__file__).parent / "fixtures" / "cli_transcript.jsonl"

HYPERGRAPHS = {
    "dup3.hg": "6 4\n0 1 2\n0 1 2\n1 2 3\n3 4 5\n",
    "path2.hg": "3 2\n0 1\n1 2\n",
    "mixed.hg": "6 3\n0 1 2\n3 4\n1 2 5\n",
    "empty.hg": "4 0\n",
}
INTERVALS = {
    "short.iv": "6 3\n0 2\n1 3\n4 5\n",
    "none.iv": "5 0\n",
}
# Each is read as an instance by solve, oracle and verify.
MALFORMED = {
    "no-header.hg": "# nothing\n",
    "long-header.hg": "3 1 7\n0 1 2\n",
    "token.hg": "3 1\n0 x 2\n",
    "negative.hg": "-3 1\n0 1 2\n",
    "repeat.hg": "3 1\n0 1 1\n",
    "range.hg": "3 1\n0 1 3\n",
    "short.hg": "5 3\n0 1 2\n",
    "trailing.hg": "5 1\n0 1 2\n3 4\n",
}
MALFORMED_INTERVALS = {
    "three.iv": "6 1\n0 2 4\n",
    "reversed.iv": "6 1\n3 2\n",
    "outside.iv": "6 1\n2 6\n",
    "token.iv": "6 1\n2 y\n",
}
# Solution files that fail to decode as a solution (exit 3).
BAD_SOLUTIONS = {
    "array.json": "[1, 2]",
    "no-parameter.json": '{"problem": "mpu", "vertices": [0], "edge_indices": [0]}',
    "str-vertex.json": '{"problem": "dksh", "parameter": 1, "vertices": ["x"], '
                       '"edge_indices": [], "union_size": 1, "covered_count": 0}',
    "float-edge.json": '{"problem": "mpu", "parameter": 1, "vertices": [0], '
                       '"edge_indices": [0.5], "union_size": 1, "covered_count": 1}',
    "no-problem.json": '{"parameter": 1, "vertices": [0], "edge_indices": [0], '
                       '"union_size": 1, "covered_count": 1}',
    "mvc.json": '{"problem": "mvc", "parameter": 1, "vertices": [0], '
                '"edge_indices": [0], "union_size": 1, "covered_count": 1}',
    "str-size.json": '{"problem": "mpu", "parameter": 1, "vertices": [0], '
                     '"edge_indices": [0], "union_size": "1", "covered_count": 1}',
    "not-json.json": "not json",
    "empty.json": "",
}


def _tamperings(row: dict) -> dict[str, dict]:
    """Edits of a valid solution row, each of which ``verify`` must catch."""
    out = {
        "parameter+1": {**row, "parameter": row["parameter"] + 1},
        "parameter0": {**row, "parameter": 0},
        "union_size+1": {**row, "union_size": row["union_size"] + 1},
        "covered_count+1": {**row, "covered_count": row["covered_count"] + 1},
        "vertex-99": {**row, "vertices": row["vertices"] + [99]},
        "vertex-repeat": {**row, "vertices": row["vertices"] + row["vertices"][:1]},
        "edge-99": {**row, "edge_indices": row["edge_indices"] + [99]},
        "edge-repeat": {**row, "edge_indices": row["edge_indices"] + row["edge_indices"][:1]},
        "other-problem": {**row, "problem": "dksh" if row["problem"] == "mpu" else "mpu"},
    }
    if row["vertices"]:
        out["vertex-dropped"] = {**row, "vertices": row["vertices"][1:]}
    if row["edge_indices"]:
        out["edge-dropped"] = {**row, "edge_indices": row["edge_indices"][1:]}
    return out


def transcript(tmp: Path) -> list[str]:
    """The corpus run in order against ``tmp``; one JSON line per run."""
    lines = []
    root = str(tmp)

    def run(*argv: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        entry = {"argv": [a.replace(root, "<tmp>") for a in argv], "exit": code}
        if not (out.getvalue().startswith("usage:") or err.getvalue().startswith("usage:")):
            entry["stdout"] = out.getvalue().replace(root, "<tmp>")
            entry["stderr"] = err.getvalue().replace(root, "<tmp>")
        lines.append(json.dumps(entry, sort_keys=True))
        return code, out.getvalue()

    def write(name: str, content: str | bytes) -> str:
        path = tmp / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        return str(path)

    def verify_all(instance: str, solution_line: str, *flags: str) -> None:
        """Verify a printed solution as it is, in both formats, then tampered."""
        sol = write("sol.json", solution_line)
        run("verify", *flags, instance, sol)
        run("--format", "tsv", "verify", *flags, instance, sol)
        for name, row in _tamperings(json.loads(solution_line)).items():
            run("verify", *flags, instance, write(f"{name}.json", json.dumps(row)))

    # gen: the generated instances are solved below.
    generated = {
        "uniform.hg": ("gen", "uniform", "--n", "9", "--m", "12", "--seed", "4"),
        "sizes.hg": ("gen", "uniform", "--n", "10", "--m", "12", "--size", "2",
                     "--max-size", "4", "--seed", "3"),
        "planted.hg": ("gen", "planted", "--n", "20", "--noise-edges", "15",
                       "--block-size", "6", "--block-edges", "12", "--seed", "1"),
        "big.hg": ("gen", "uniform", "--n", "40", "--m", "40", "--seed", "2"),
        "gen.iv": ("gen", "interval", "--n", "12", "--m", "8", "--seed", "5"),
    }
    files = {name: write(name, text) for name, text in {**HYPERGRAPHS, **INTERVALS}.items()}
    for name, argv in generated.items():
        files[name] = write(name, run(*argv)[1])
    for argv in (
        ("gen", "uniform", "--n", "5", "--m", "-1", "--seed", "1"),
        ("gen", "uniform", "--n", "2", "--m", "3", "--seed", "1"),
        ("gen", "uniform", "--n", "6", "--m", "2", "--size", "4", "--max-size", "2",
         "--seed", "1"),
        ("gen", "interval", "--n", "0", "--m", "2", "--seed", "1"),
        ("gen", "interval", "--n", "5", "--m", "-2", "--seed", "1"),
        ("gen", "planted", "--n", "4", "--noise-edges", "2", "--block-size", "6",
         "--block-edges", "1", "--seed", "1"),
        ("gen", "planted", "--n", "8", "--noise-edges", "2", "--block-size", "4",
         "--block-edges", "99", "--seed", "1"),
        ("gen", "uniform", "--n", "5", "--m", "2"),
        ("gen", "cubes", "--n", "5"),
    ):
        run(*argv)

    uniform = ("dup3.hg", "uniform.hg", "planted.hg")
    hypergraphs = uniform + ("path2.hg", "mixed.hg", "sizes.hg", "empty.hg")
    sizes = {"dup3.hg": (6, 4), "uniform.hg": (9, 12), "planted.hg": (20, 27),
             "path2.hg": (3, 2), "mixed.hg": (6, 3), "sizes.hg": (10, 12),
             "empty.hg": (4, 0), "short.iv": (6, 3), "none.iv": (5, 0), "gen.iv": (12, 8)}
    solved = []  # (instance path, printed solution line, verify flags)

    def solve(path: str, *argv: str, flags: tuple[str, ...] = ()) -> None:
        code, out = run(*argv, path)
        if code == 0:
            solved.append((path, out.splitlines()[-1], flags))

    for name in hypergraphs:
        n, m = sizes[name]
        for p in sorted({0, 1, 2, m // 2, m, m + 1}):
            for algo in ("sqrt-m", "three-uniform"):
                solve(files[name], "solve", "mpu", "--algo", algo, "--p", str(p))
        for k in sorted({0, 2, 3, n // 2, n, n + 1}):
            solve(files[name], "solve", "dksh", "--k", str(k))
    for name in uniform:
        n, m = sizes[name]
        for fmt in ("json", "tsv"):
            for p in (1, m // 2, m):
                solve(files[name], "--format", fmt, "solve", "mpu", "--algo",
                      "three-uniform", "--p", str(p), "--trace")
            for k in (3, n // 2, n):
                solve(files[name], "--format", fmt, "solve", "dksh", "--k", str(k),
                      "--explain")
                solve(files[name], "--format", fmt, "solve", "dksh", "--k", str(k),
                      "--sub", "exact", "--explain")
        for k in (4, n - 1):
            for sub in ("exact", "greedy"):
                solve(files[name], "solve", "dksh", "--algo", "three-uniform", "--k",
                      str(k), "--sub", sub)
        solve(files[name], "--format", "tsv", "solve", "mpu", "--p", "2")
        solve(files[name], "--format", "tsv", "solve", "dksh", "--k", "3")
    for name in ("short.iv", "none.iv", "gen.iv"):
        n, m = sizes[name]
        for p in range(m + 2):
            solve(files[name], "solve", "mpu", "--algo", "interval", "--p", str(p),
                  flags=("--intervals",))
        for k in range(n + 2):
            solve(files[name], "solve", "dksh", "--algo", "interval", "--k", str(k),
                  flags=("--intervals",))
        solve(files[name], "--format", "tsv", "solve", "dksh", "--algo", "interval",
              "--k", "3", flags=("--intervals",))
    # An interval file read as a hypergraph, and the other way round.
    solve(files["short.iv"], "solve", "mpu", "--p", "2")
    solve(files["dup3.hg"], "solve", "mpu", "--algo", "interval", "--p", "2")
    # Flags the chosen algorithm would not read.
    for argv in (
        ("solve", "mpu", "--algo", "sqrt-m", "--p", "2", "--trace"),
        ("solve", "mpu", "--p", "2", "--trace"),
        ("solve", "mpu", "--algo", "interval", "--p", "2", "--trace"),
        ("solve", "dksh", "--algo", "interval", "--k", "4", "--explain"),
        ("solve", "dksh", "--algo", "interval", "--k", "4", "--sub", "exact"),
        ("solve", "dksh", "--algo", "interval", "--k", "4", "--sub", "greedy"),
        ("solve", "dksh", "--algo", "interval", "--k", "4", "--sub", "exact", "--explain"),
    ):
        run(*argv, files["short.iv"])

    # oracles
    for name in ("dup3.hg", "path2.hg", "mixed.hg", "uniform.hg", "sizes.hg", "empty.hg"):
        n, m = sizes[name]
        for p in sorted({0, 1, 2, m, m + 1}):
            solve(files[name], "oracle", "mpu", "--p", str(p))
        for k in sorted({0, 1, 3, n, n + 1}):
            solve(files[name], "oracle", "dksh", "--k", str(k))
        run("oracle", "minexp", files[name])
        run("--format", "tsv", "oracle", "minexp", files[name])
    run("oracle", "mpu", "--p", "20", files["big.hg"])
    run("oracle", "dksh", "--k", "20", files["big.hg"])
    run("oracle", "minexp", files["big.hg"])

    # verify every printed answer, then its tamperings on a sample
    for path, line, flags in solved:
        sol = write("sol.json", line)
        run("verify", *flags, path, sol)
    for path, line, flags in solved[::9]:
        verify_all(path, line, *flags)
    dksh_line = next(line for _, line, _ in solved if '"problem":"dksh"' in line)
    sol = write("sol.json", dksh_line)
    run("verify", "--intervals", files["dup3.hg"], sol)
    run("verify", files["short.iv"], sol)
    for name, text in BAD_SOLUTIONS.items():
        run("verify", files["dup3.hg"], write(name, text))

    # malformed, non-UTF-8 and missing inputs
    bad = {name: write(name, text) for name, text in {**MALFORMED, **MALFORMED_INTERVALS}.items()}
    bad["latin1.hg"] = write("latin1.hg", b"\xff3 1\n0 1 2\n")
    bad["missing.hg"] = str(tmp / "missing.hg")
    bad["directory"] = str(tmp)
    for path in bad.values():
        run("solve", "mpu", "--p", "1", path)
        run("solve", "dksh", "--k", "3", path)
        run("solve", "mpu", "--algo", "interval", "--p", "1", path)
        run("solve", "dksh", "--algo", "interval", "--k", "3", path)
        run("oracle", "minexp", path)
        run("verify", path, sol)
        run("verify", "--intervals", path, sol)
        run("verify", files["dup3.hg"], path)

    # argparse: help and usage errors, by exit code
    for argv in (
        (), ("--help",), ("solve",), ("solve", "mpu", "--help"), ("solve", "dksh", "-h"),
        ("oracle", "--help"), ("gen", "planted", "--help"), ("verify", "--help"),
        ("bench",), ("solve", "mpu", files["dup3.hg"]), ("solve", "dksh", files["dup3.hg"]),
        ("solve", "mpu", "--p", "x", files["dup3.hg"]),
        ("solve", "mpu", "--p", "1.5", files["dup3.hg"]),
        ("solve", "dksh", "--k", "", files["dup3.hg"]),
        ("solve", "mpu", "--algo", "greedy", "--p", "1", files["dup3.hg"]),
        ("solve", "dksh", "--sub", "lp", "--k", "3", files["dup3.hg"]),
        ("solve", "mpu", "--p", "1"), ("solve", "mpu", "--p", "1", "--nope", files["dup3.hg"]),
        ("oracle", "mpu", "--k", "1", files["dup3.hg"]), ("oracle", "minexp"),
        ("--format", "csv", "oracle", "minexp", files["dup3.hg"]),
        ("verify", files["dup3.hg"]),
    ):
        run(*argv)
    return lines


def test_cli_output_matches_transcript(tmp_path, monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    actual = transcript(tmp_path)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


if __name__ == "__main__":
    os.environ.pop(BUDGET_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as tmp:
        for line in transcript(Path(tmp)):
            sys.stdout.write(line + "\n")
