"""Byte-identity of solver answers at benchmark size: the answer ledger.

``tests/fixtures/answers.jsonl`` holds one line per (workload shape, mode):
the op count, the exit-code histogram, the sha256 of every op's exit code
and stdout in order, and a 12-digit digest per op.  The instances come from
``hyperdense.oracle`` in the shapes of the four benchmark workloads, with
fixed seeds, and each op runs ``cli.main`` in process.  The golden fixture
pins small instances; this ledger pins the sizes the benchmark times.  It
does not read the benchmark's own builders, so changing the benchmark
cannot move it.

A change that keeps every answer leaves the file unchanged.  A declared
answer change regenerates it in its own commit, with
``PYTHONPATH=src python tests/test_answers.py > tests/fixtures/answers.jsonl``.
``python tests/test_answers.py MODE OP`` prints one op's argv, exit code and
stdout, so an op the test reports can be replayed at any commit.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from hyperdense.cli import main
from hyperdense.core import serialize_hypergraph
from hyperdense.interval import serialize_intervals
from hyperdense.oracle import (
    PlantedSpec,
    generate_intervals,
    generate_planted,
    generate_uniform,
)

FIXTURE = Path(__file__).parent / "fixtures" / "answers.jsonl"

INSTANCES = 12  # per planted and interval shape; each asks three queries
FLOW_INSTANCES = 30  # one query each, p cycling through five values


def _shapes():
    """(shape, suffix, text, [(solve args before the file), ...]) per instance."""
    for seed in range(INSTANCES):
        h = generate_planted(PlantedSpec(180, 800, 20, 150, seed=seed)).hypergraph
        yield "planted-dksh", ".hg", serialize_hypergraph(h), [
            ["dksh", "--k", str(k)] for k in (12, 20, 30)
        ]
    for seed in range(INSTANCES):
        h = generate_planted(PlantedSpec(64, 300, 12, 60, seed=seed)).hypergraph
        yield "planted-mpu3", ".hg", serialize_hypergraph(h), [
            ["mpu", "--algo", "three-uniform", "--p", str(p)] for p in (30, 60, 75)
        ]
    for seed in range(FLOW_INSTANCES):
        h = generate_uniform(500, 500, seed, sizes=(2, 4))
        yield "flow-sqrt-m", ".hg", serialize_hypergraph(h), [
            ["mpu", "--p", str(490 - 10 * (seed % 5))]
        ]
    for seed in range(INSTANCES):
        inst = generate_intervals(200, 100, seed)
        yield "interval-sweep", ".iv", serialize_intervals(inst), [
            [problem, "--algo", "interval", knob, str(x)]
            for problem, knob in (("mpu", "--p"), ("dksh", "--k"))
            for x in (12, 25, 50)
        ]


# Each mode: (shape, flag added after the problem name, or None).
MODES = {
    "planted-dksh": ("planted-dksh", None),
    "planted-dksh --explain": ("planted-dksh", "--explain"),
    "planted-mpu3": ("planted-mpu3", None),
    "planted-mpu3 --trace": ("planted-mpu3", "--trace"),
    "flow-sqrt-m": ("flow-sqrt-m", None),
    "interval-sweep": ("interval-sweep", None),
}


def ledger_argvs(workdir: Path) -> dict[str, list[list[str]]]:
    """Write every instance under ``workdir``; the argv of every op, by mode."""
    by_shape: dict[str, list[list[str]]] = {}
    for pos, (shape, suffix, text, queries) in enumerate(_shapes()):
        path = workdir / f"{pos:03d}{suffix}"
        path.write_text(text, encoding="utf-8")
        by_shape.setdefault(shape, []).extend(q + [str(path)] for q in queries)
    return {
        mode: [
            ["solve", q[0], *([flag] if flag else []), *q[1:]] for q in by_shape[shape]
        ]
        for mode, (shape, flag) in MODES.items()
    }


def run_op(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def ledger_line(mode: str, results: list[tuple[int, str]]) -> dict:
    total = hashlib.sha256()
    digests = []
    for code, out in results:
        op = f"{code}\n{out}".encode("utf-8")
        total.update(op)
        digests.append(hashlib.sha256(op).hexdigest()[:12])
    return {
        "mode": mode,
        "ops": len(results),
        "exit_codes": {str(c): n for c, n in sorted(Counter(c for c, _ in results).items())},
        "sha256": total.hexdigest(),
        "op_digests": digests,
    }


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    return ledger_argvs(tmp_path_factory.mktemp("answers"))


def _recorded() -> dict[str, dict]:
    rows = [json.loads(line) for line in FIXTURE.read_text(encoding="utf-8").splitlines()]
    return {row["mode"]: row for row in rows}


def test_ledger_has_one_line_per_mode():
    assert list(_recorded()) == list(MODES)


@pytest.mark.parametrize("mode", list(MODES))
def test_answers_match_the_ledger(argvs, mode):
    expected = _recorded()[mode]
    results = [run_op(argv) for argv in argvs[mode]]
    actual = ledger_line(mode, results)
    assert expected["exit_codes"].get("0", 0) >= 0.9 * expected["ops"]
    if actual == expected:
        return
    for pos, (argv, (code, out)) in enumerate(zip(argvs[mode], results)):
        recorded = expected["op_digests"][pos] if pos < expected["ops"] else None
        if actual["op_digests"][pos] != recorded:
            op = f"{mode!r} {pos}"
            pytest.fail(
                f"op {pos} of {mode!r} differs from the ledger\n"
                f"argv: {argv}\n"
                f"now: exit {code}, digest {actual['op_digests'][pos]}, stdout:\n{out}"
                f"recorded: digest {recorded}; print its stdout by running\n"
                f"  PYTHONPATH=src python tests/test_answers.py {op}\n"
                f"at the commit that generated the ledger"
            )
    pytest.fail(f"{mode!r} differs from the ledger: {actual} != {expected}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        all_argvs = ledger_argvs(Path(tmp))
        if len(sys.argv) == 3:
            argv = all_argvs[sys.argv[1]][int(sys.argv[2])]
            code, out = run_op(argv)
            print(f"argv: {argv}\nexit {code}, stdout:\n{out}", end="")
        else:
            for mode, mode_argvs in all_argvs.items():
                line = ledger_line(mode, [run_op(argv) for argv in mode_argvs])
                print(json.dumps(line, separators=(",", ":")))
