"""Acceptance suite: every release criterion, one test each, one report line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All corpora are seeded and deterministic.
"""

import math
import time
from pathlib import Path

import pytest

from hyperdense import (
    brute_dksh,
    brute_min_expansion,
    brute_mpu,
    dksh_3uniform,
    dksh_interval,
    iterative_cover,
    min_expansion_flow,
    mpu_3uniform,
    mpu_interval,
    mpu_sqrt_m,
    serialize_hypergraph,
    serialize_intervals,
    solution_json,
    to_hypergraph,
)
from hyperdense.core import degrees, top_by_degree
from hyperdense.dksh3 import dksh_candidates, greedy_three_layer
from hyperdense.oracle import (
    PlantedSpec,
    generate_intervals,
    generate_planted,
    generate_uniform,
)
from lp_reference import optimal_expansion_lp_solution, round_expansion_lp

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "interval_counterexamples"


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def expansion_corpus():
    corpus = []
    for i in range(300):
        n = 1 + i % 8
        m = 1 + (i * 3) % 8
        corpus.append(generate_uniform(n, m, 10_000 + i, sizes=(1, min(4, n))))
    return corpus


def test_criterion_1_min_expansion_exactness(expansion_corpus):
    start = time.perf_counter()
    exact = 0
    for h in expansion_corpus:
        if min_expansion_flow(h).ratio == brute_min_expansion(h).ratio:
            exact += 1
    elapsed = time.perf_counter() - start
    ok = exact == len(expansion_corpus) and elapsed < 10.0
    report(1, ok, f"min-expansion exact on {exact}/{len(expansion_corpus)} "
                  f"instances in {elapsed:.2f}s (limit 10s)")
    assert exact == len(expansion_corpus)
    assert elapsed < 10.0


def test_criterion_2_lp_flow_agreement(expansion_corpus):
    agree = 0
    for h in expansion_corpus:
        x, y = optimal_expansion_lp_solution(h)
        if round_expansion_lp(h, x, y).ratio == min_expansion_flow(h).ratio:
            agree += 1
    ok = agree == len(expansion_corpus)
    report(2, ok, f"LP rounding equals flow optimum on {agree}/{len(expansion_corpus)}")
    assert ok


def test_criterion_3_sqrt_m_hard_bound():
    violations = []
    for i in range(300):
        n = 4 + i % 7
        m = 1 + i % 12
        h = generate_uniform(n, m, 20_000 + i)
        p = 1 + i % min(6, m)
        opt = brute_mpu(h, p).union_size
        for solver, tag in ((mpu_sqrt_m, "sqrt-m"), (mpu_3uniform, "three-uniform")):
            got = solver(h, p).union_size
            # union <= 2*sqrt(m)*opt, squared to stay integral
            if got * got > 4 * h.m * opt * opt:
                violations.append((tag, i, got, opt))
    ok = not violations
    report(3, ok, f"2*sqrt(m) bound held on 300 instances for both solvers "
                  f"({len(violations)} violations)")
    assert ok, violations


def test_criterion_4_interval_dp_exactness():
    mismatches = []

    def archive(inst, label):
        FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
        path = FIXTURE_DIR / f"{label}.txt"
        path.write_text(serialize_intervals(inst))
        mismatches.append(str(path))

    instances = []
    for i in range(500):
        n = 4 + i % 12
        m = 1 + i % 10
        instances.append(generate_intervals(n, m, 30_000 + i))
    checked_p = 0
    for i, inst in enumerate(instances):
        h = to_hypergraph(inst)
        for p in range(1, inst.m + 1):
            checked_p += 1
            if mpu_interval(inst, p).union_size != brute_mpu(h, p).union_size:
                archive(inst, f"mpu_seed{30_000 + i}_p{p}")
    checked_k = 0
    for i, inst in enumerate(instances[:100]):
        h = to_hypergraph(inst)
        for k in range(3, inst.n + 1):
            checked_k += 1
            if dksh_interval(inst, k).covered_count != brute_dksh(h, k).covered_count:
                archive(inst, f"dksh_seed{30_000 + i}_k{k}")
    ok = not mismatches
    report(4, ok, f"interval DP exact on {checked_p} (instance, p) pairs and "
                  f"{checked_k} (instance, k) pairs; counterexamples: {mismatches or 'none'}")
    assert ok, f"counterexamples archived: {mismatches}"


def test_criterion_5_iterative_cover_log_bound():
    block_size, block_edges = 4, 4
    bound = block_size * (math.ceil(math.log(block_edges)) + 2)
    violations = []
    for i in range(50):
        spec = PlantedSpec(n=24, noise_edges=12, block_size=block_size,
                           block_edges=block_edges, seed=40_000 + i)
        h = generate_planted(spec).hypergraph
        sol = iterative_cover(h, block_edges, block_size,
                              lambda residual, k: brute_dksh(residual, k))
        if sol.union_size > bound:
            violations.append((i, sol.union_size))
    ok = not violations
    report(5, ok, f"iterative cover union <= {bound} on 50 planted instances "
                  f"({len(violations)} violations)")
    assert ok, violations


def test_criterion_6_dksh_floors_and_dominance():
    ratios = []
    floor_viol, dom_viol = [], []
    n_max = 12
    for i in range(200):
        n = 6 + i % 7
        m = 3 + i % 14
        h = generate_uniform(n, m, 50_000 + i)
        k = 3 + i % (n - 2)
        best = dksh_3uniform(h, k)
        if best.covered_count < min(k // 3, h.m):
            floor_viol.append(i)
        for cand in dksh_candidates(h, k):
            if best.covered_count < cand.covered_count:
                dom_viol.append((i, cand.algorithm))
        opt = brute_dksh(h, k).covered_count
        ratios.append(opt / best.covered_count if best.covered_count else float("inf"))
    ratios.sort()
    p95 = ratios[math.ceil(0.95 * len(ratios)) - 1]
    ok = not floor_viol and not dom_viol and p95 <= n_max
    report(6, ok, f"floors/dominance held on 200 instances; ratio p50={ratios[len(ratios)//2]:.3f} "
                  f"p95={p95:.3f} max={ratios[-1]:.3f} (ceiling {n_max})")
    assert not floor_viol, floor_viol
    assert not dom_viol, dom_viol
    assert p95 <= n_max


def test_criterion_7_planted_recovery_regression():
    n, k_star, p_star, noise = 60, 12, 120, 200
    violations = []
    per_seed = []
    for i in range(20):
        spec = PlantedSpec(n=n, noise_edges=noise, block_size=k_star,
                           block_edges=p_star, seed=60_000 + i)
        h = generate_planted(spec).hypergraph
        anchors = top_by_degree(h, k_star // 3)
        deg = degrees(h)
        delta = min(deg[v] for v in anchors)
        floor = delta * k_star**3 / (81 * n * n)
        layered = greedy_three_layer(h, k_star, anchors)
        if layered.covered_count < floor:
            violations.append((i, layered.covered_count, floor))
        combined = dksh_3uniform(h, k_star)
        per_seed.append((60_000 + i, delta, layered.covered_count, combined.covered_count))
    ok = not violations
    report(7, ok, "three-layer floor delta*k^3/(81 n^2) held on 20 seeds; "
                  f"per-seed (seed, delta, layered, combined): {per_seed}")
    assert ok, violations


def test_criterion_8_determinism():
    h = generate_uniform(9, 10, 70_001)
    iv = generate_intervals(12, 8, 70_002)
    runs = {
        "mpu-sqrt-m": lambda: solution_json("mpu", 3, mpu_sqrt_m(h, 3)),
        "mpu-three-uniform": lambda: solution_json("mpu", 3, mpu_3uniform(h, 3)),
        "dksh-three-uniform": lambda: solution_json("dksh", 5, dksh_3uniform(h, 5)),
        "mpu-interval": lambda: solution_json("mpu", 3, mpu_interval(iv, 3)),
        "dksh-interval": lambda: solution_json("dksh", 5, dksh_interval(iv, 5)),
    }
    unstable = [name for name, run in runs.items() if run() != run()]
    gen_stable = serialize_hypergraph(generate_uniform(9, 10, 70_001)) == serialize_hypergraph(h)
    ok = not unstable and gen_stable
    report(8, ok, f"byte-identical reruns for {sorted(runs)} and the generator")
    assert ok, unstable
