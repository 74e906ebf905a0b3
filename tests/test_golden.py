"""Byte-identity of solver answers across commits.

``tests/fixtures/golden.jsonl`` holds one line per (instance, solver,
parameter): the case label and the solver's ``solution_json`` bytes, or a
``min_expansion_flow`` certificate's ``to_json`` bytes.  A
refactor that keeps every answer must leave the file unchanged.  To rebuild
it after a declared behaviour change, run
``PYTHONPATH=src python tests/test_golden.py > tests/fixtures/golden.jsonl``.
"""

import json
from pathlib import Path

from hyperdense import (
    dksh_3uniform,
    dksh_interval,
    min_expansion_flow,
    mpu_3uniform,
    mpu_interval,
    mpu_sqrt_m,
    solution_json,
    to_hypergraph,
)
from hyperdense.cli import _issues
from hyperdense.dksh3 import dksh_candidates
from hyperdense.oracle import (
    PlantedSpec,
    generate_intervals,
    generate_planted,
    exact_weighted_dks,
    generate_uniform,
)

FIXTURE = Path(__file__).parent / "fixtures" / "golden.jsonl"

# (n, m, seed).  The second case has duplicate intervals and cells whose
# optimum several predecessors reach, so it pins the first-istar tie-break.
INTERVAL_CASES = ((8, 5, 1), (5, 6, 17))
UNIFORM_CASES = ((7, 8, 11), (8, 10, 12))
UNIFORM_P = (2, 4)
UNIFORM_K = (4,)
# A planted 3-uniform instance on which every guess k >= 6 has an anchor budget
# of n (saturated) and the three-layer candidate covers p edges in one round.
PLANTED_SPEC = PlantedSpec(n=20, noise_edges=15, block_size=6, block_edges=12, seed=1)
PLANTED_P = (4, 12, 20)
# Every dksh candidate on the same instance with the exhaustive subroutine
# plugged in, so the case split's pair-weight route runs exact code.
PLANTED_EXACT_K = (6, 9)
# Every candidate of the dksh pipeline, not only the winner: best-of hides a
# change to a candidate that loses.
DKSH_PLANTED_SPEC = PlantedSpec(n=40, noise_edges=120, block_size=8, block_edges=30, seed=2)
DKSH_PLANTED_K = (6, 9, 12)
# Instances on which mpu_sqrt_m runs several extraction rounds at p >= 0.9m
# (seed 11: 14 decisions at p = m - 2) and whose own certificate takes two
# improving decisions (seed 36).
FLOW_CASES = ((60, 60, 11), (60, 60, 36))
# The planted-dksh benchmark shape.  The case split wins every k here, so the
# candidate lines also pin the two neighborhood searches, which score
# thousands of pruned link-graph picks each.
DKSH_BENCH_SPEC = PlantedSpec(n=180, noise_edges=800, block_size=20, block_edges=150, seed=1)
DKSH_BENCH_K = (12, 20, 30)


def golden_lines() -> list[str]:
    lines = []

    def add(case: str, problem: str, parameter: int, sol) -> None:
        lines.append(
            f'{{"case":"{case}","solution":{solution_json(problem, parameter, sol)}}}'
        )

    for n, m, seed in INTERVAL_CASES:
        inst = generate_intervals(n, m, seed)
        name = f"interval n={n} m={m} seed={seed}"
        for p in range(1, m + 1):
            add(f"{name} mpu_interval", "mpu", p, mpu_interval(inst, p))
        for k in range(1, n + 1):
            add(f"{name} dksh_interval", "dksh", k, dksh_interval(inst, k))
    for n, m, seed in UNIFORM_CASES:
        h = generate_uniform(n, m, seed)
        name = f"uniform n={n} m={m} seed={seed}"
        for p in UNIFORM_P:
            add(f"{name} mpu_sqrt_m", "mpu", p, mpu_sqrt_m(h, p))
            add(f"{name} mpu_3uniform", "mpu", p, mpu_3uniform(h, p))
        for k in UNIFORM_K:
            add(f"{name} dksh_3uniform", "dksh", k, dksh_3uniform(h, k))
    h = generate_planted(PLANTED_SPEC).hypergraph
    name = f"planted n={h.n} m={h.m} seed={PLANTED_SPEC.seed}"
    for p in PLANTED_P:
        add(f"{name} mpu_3uniform", "mpu", p, mpu_3uniform(h, p))
    h = generate_planted(DKSH_PLANTED_SPEC).hypergraph
    name = f"planted n={h.n} m={h.m} seed={DKSH_PLANTED_SPEC.seed}"
    for k in DKSH_PLANTED_K:
        for pos, cand in enumerate(dksh_candidates(h, k)):
            add(f"{name} dksh_candidates[{pos}]", "dksh", k, cand)
    for n, m, seed in FLOW_CASES:
        h = generate_uniform(n, m, seed, sizes=(2, 4))
        name = f"uniform2-4 n={n} m={m} seed={seed}"
        for p in (m * 9 // 10, m - 2):
            add(f"{name} mpu_sqrt_m", "mpu", p, mpu_sqrt_m(h, p))
        cert = min_expansion_flow(h).to_json()
        lines.append(f'{{"case":"{name} min_expansion_flow","certificate":{cert}}}')
    h = generate_planted(DKSH_BENCH_SPEC).hypergraph
    name = f"planted n={h.n} m={h.m} seed={DKSH_BENCH_SPEC.seed}"
    for k in DKSH_BENCH_K:
        add(f"{name} dksh_3uniform", "dksh", k, dksh_3uniform(h, k))
        for pos, cand in enumerate(dksh_candidates(h, k)):
            add(f"{name} dksh_candidates[{pos}]", "dksh", k, cand)
    h = generate_planted(PLANTED_SPEC).hypergraph
    name = f"planted n={h.n} m={h.m} seed={PLANTED_SPEC.seed}"
    for k in PLANTED_EXACT_K:
        for pos, cand in enumerate(dksh_candidates(h, k, exact_weighted_dks)):
            add(f"{name} dksh_candidates_exact[{pos}]", "dksh", k, cand)
    return lines


def golden_instances() -> dict:
    """Each instance ``golden_lines`` solves, by the label its cases start with."""
    out = {}
    for n, m, seed in INTERVAL_CASES:
        out[f"interval n={n} m={m} seed={seed}"] = to_hypergraph(generate_intervals(n, m, seed))
    for n, m, seed in UNIFORM_CASES:
        out[f"uniform n={n} m={m} seed={seed}"] = generate_uniform(n, m, seed)
    for n, m, seed in FLOW_CASES:
        out[f"uniform2-4 n={n} m={m} seed={seed}"] = generate_uniform(n, m, seed, sizes=(2, 4))
    for spec in (PLANTED_SPEC, DKSH_PLANTED_SPEC, DKSH_BENCH_SPEC):
        h = generate_planted(spec).hypergraph
        out[f"planted n={h.n} m={h.m} seed={spec.seed}"] = h
    return out


def test_every_golden_solution_passes_the_cli_answer_check():
    instances = golden_instances()
    rows = [json.loads(line) for line in FIXTURE.read_text(encoding="utf-8").splitlines()]
    solved = [row for row in rows if "solution" in row]
    assert len(solved) == 84
    for row in solved:
        h = instances[row["case"].rsplit(" ", 1)[0]]
        assert _issues(h, row["solution"]) == [], row["case"]


def test_answers_match_golden_bytes():
    expected = FIXTURE.read_bytes()
    actual = "".join(line + "\n" for line in golden_lines()).encode("utf-8")
    assert actual == expected


if __name__ == "__main__":
    for line in golden_lines():
        print(line)
