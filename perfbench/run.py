"""Closed-loop solve benchmark for hyperdense, driven through the CLI front door.

    python3 perfbench/run.py --workload planted-dksh --seed 1 --seconds 25 --trace 0

Run from the repository root.  The instances are generated from ``--seed``
with the ``hyperdense.oracle`` generators and written as instance files; each
op is one ``hyperdense.cli.main(["solve", ...])`` call with stdout captured,
run one after another from this process until ``--seconds`` have passed.
Every op's output then goes through the correctness gate (in-process
``hyperdense verify`` plus the hard floors), which is not timed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op once
untraced and once under ``tracing.Tracer`` and prints the per-layer metrics.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
A run record (versions, seed, digests, tail percentile, ...) goes to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HELD_OUT_SEED = 9001
SETUP_REPEATS = 3
# Every untraced run completes at least MIN_OPS ops (rounded up to whole
# instances), so p90 always has at least 10 samples beyond it.  solve_tail_s
# stays p90 whatever the op count, so that a faster commit (more ops in the
# same seconds) is compared at the same percentile; the record also names the
# highest ladder percentile the run's own count supports.  Those first ops
# feed union_total and covered_total.
MIN_OPS = 100
TAIL_PERCENTILE = 90
TAIL_LADDER = (99.9, 99.5, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
# The 2-vCPU VM this was tuned on switches between a fast and a slow state
# (the same op takes up to 1.5x longer), often within a second, because of
# load outside the VM.  That drift dominated the spread of every timing.  A
# fixed pure-Python probe, independent of hyperdense, is timed before each op.
# An op's slowdown is the median of the PROBE_WINDOW probes centred on it over
# PROBE_NOMINAL_S (the probe's median on that VM), and its time is divided by
# that slowdown; set-up time is divided by the run's median slowdown.  Raw
# times stay in the run record.
PROBE_NOMINAL_S = 0.0036
PROBE_WINDOW = 5


@dataclass(frozen=True)
class Instance:
    text: str
    suffix: str  # ".hg" (hypergraph format) or ".iv" (interval format)
    source: object  # the generated Hypergraph, IntervalInstance or PlantedInstance


@dataclass(frozen=True)
class Op:
    instance: int
    problem: str  # "mpu" or "dksh"
    parameter: int
    flags: tuple[str, ...]  # solve flags before --p/--k


@dataclass
class Batch:
    instances: list[Instance] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    paths: list[str] = field(default_factory=list)
    min_ops: int = 0  # ops on the fewest leading instances that reach MIN_OPS

    def argv(self, op: Op) -> list[str]:
        knob = "--p" if op.problem == "mpu" else "--k"
        return ["solve", op.problem, *op.flags, knob, str(op.parameter), self.paths[op.instance]]


@dataclass(frozen=True)
class Workload:
    """One instance family and the queries asked of each instance.

    ``rate`` is the op rate measured at the commit that introduced the
    workload (2 shared cores); the batch holds 1.5x the ops one run needs at
    that rate, so that no (instance, parameter) query repeats within a run.
    """

    name: str  # why each workload exists is in BENCHMARK.json and README.md
    rate: float
    build: object  # (modules, rng, index) -> (Instance, [(problem, parameter, flags), ...])


def _interval_sweep(hd, rng, idx):
    m, n = 100, 200
    inst = hd.oracle.generate_intervals(n, m, rng.randrange(2**31))
    flags = ("--algo", "interval")
    queries = [("mpu", p, flags) for p in (m // 8, m // 4, m // 2)]
    queries += [("dksh", k, flags) for k in (n // 16, n // 8, n // 4)]
    return Instance(hd.interval.serialize_intervals(inst), ".iv", inst), queries


def _planted(hd, rng, spec_args):
    spec = hd.oracle.PlantedSpec(*spec_args, seed=rng.randrange(2**31))
    planted = hd.oracle.generate_planted(spec)
    return Instance(hd.core.serialize_hypergraph(planted.hypergraph), ".hg", planted)


def _planted_mpu3(hd, rng, idx):
    block_edges = 60
    flags = ("--algo", "three-uniform")
    ps = (block_edges // 2, block_edges, block_edges + block_edges // 4)
    return _planted(hd, rng, (64, 300, 12, block_edges)), [("mpu", p, flags) for p in ps]


def _planted_dksh(hd, rng, idx):
    return _planted(hd, rng, (180, 800, 20, 150)), [("dksh", k, ()) for k in (12, 20, 30)]


def _flow_sqrt_m(hd, rng, idx):
    n = m = 500
    h = hd.oracle.generate_uniform(n, m, rng.randrange(2**31), sizes=(2, 4))
    # p cycles through 5 values in [0.9m, m - 10] so every 100-op prefix asks
    # the same mix; p <= 0.75m would need a single flow solve.
    p = m - 10 - 10 * (idx % 5)
    return Instance(hd.core.serialize_hypergraph(h), ".hg", h), [("mpu", p, ())]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("interval-sweep", rate=8.0, build=_interval_sweep),
        Workload("planted-mpu3", rate=5.3, build=_planted_mpu3),
        Workload("planted-dksh", rate=8.0, build=_planted_dksh),
        Workload("flow-sqrt-m", rate=7.5, build=_flow_sqrt_m),
    )
}


class _Hyperdense:
    """The freshly imported hyperdense modules the benchmark drives."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if n == "hyperdense" or n.startswith("hyperdense.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("hyperdense.cli")
        self.core = importlib.import_module("hyperdense.core")
        self.interval = importlib.import_module("hyperdense.interval")
        self.oracle = importlib.import_module("hyperdense.oracle")
        if not Path(self.cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"hyperdense imported from {self.cli.__file__}, not {SRC}")


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def set_up(workload: Workload, seed: int, seconds: float, workdir: Path):
    """Import, generate, write instance files and warm up once; returns (seconds, modules, batch)."""
    start = time.perf_counter()
    hd = _Hyperdense()
    rng = random.Random(f"{workload.name}/{seed}")
    batch = Batch()
    workdir.mkdir(parents=True, exist_ok=True)
    # Each instance's queries run back to back, in a seeded order, so every
    # prefix of whole instances asks the same mix of queries.
    while len(batch.ops) < max(seconds * workload.rate * 1.5, MIN_OPS):
        idx = len(batch.instances)
        inst, queries = workload.build(hd, rng, idx)
        rng.shuffle(queries)
        batch.instances.append(inst)
        batch.ops += [Op(idx, *q) for q in queries]
        if not batch.min_ops and len(batch.ops) >= MIN_OPS:
            batch.min_ops = len(batch.ops)
        path = workdir / f"{idx:05d}{inst.suffix}"
        path.write_text(inst.text, encoding="utf-8")
        batch.paths.append(str(path))
    run_cli(hd.cli.main, batch.argv(batch.ops[0]))
    return time.perf_counter() - start, hd, batch


class SpeedProbe:
    """Times a fixed dict/set/sort workload that never touches hyperdense."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.data = [tuple(rng.sample(range(500), 3)) for _ in range(1500)]
        self.samples: list[float] = []

    def measure(self) -> None:
        # No collection may run inside the probe: it would scan whatever the
        # program keeps alive and charge that to the machine.
        gc.disable()
        start = time.perf_counter()
        adj: dict[int, set[int]] = {}
        for e in self.data:
            for v in e:
                adj.setdefault(v, set()).update(e)
        sorted(self.data, key=lambda e: (e[1], -e[0]))
        self.samples.append(time.perf_counter() - start)
        gc.enable()

    def slowdowns(self) -> list[float]:
        """One slowdown per probe: the median of the window centred on it."""
        half = PROBE_WINDOW // 2
        return [
            statistics.median(self.samples[max(0, i - half) : i + half + 1]) / PROBE_NOMINAL_S
            for i in range(len(self.samples))
        ]


@dataclass
class OpRecord:
    op: int  # position in the batch
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None


def timed_op(main, batch: Batch, position: int) -> OpRecord:
    start = time.perf_counter()
    try:
        code, out = run_cli(main, batch.argv(batch.ops[position]))
        error = None
    except Exception as exc:  # an op that raises is a counted failure, not a crash
        code, out, error = None, "", f"{type(exc).__name__}: {exc}"
    return OpRecord(position, time.perf_counter() - start, code, out, error)


def _union_of_shortest(intervals, p: int) -> int:
    shortest = sorted(range(len(intervals)), key=lambda i: (intervals[i][1] - intervals[i][0], i))
    covered = set()
    for i in shortest[:p]:
        a, b = intervals[i]
        covered.update(range(a, b + 1))
    return len(covered)


def _best_window(inst, k: int) -> int:
    """Intervals inside the best window of k consecutive vertices: a feasible k-set."""
    return max(
        sum(1 for a, b in inst.intervals if a >= s and b < s + k)
        for s in range(inst.n - k + 1)
    )


def _floor_problem(workload: str, inst: Instance, op: Op, payload: dict) -> str | None:
    src = inst.source
    if workload == "interval-sweep":
        if op.problem == "mpu":
            bound = _union_of_shortest(src.intervals, op.parameter)
            if payload["union_size"] > bound:
                return f"interval union {payload['union_size']} > union of p shortest {bound}"
        else:
            floor = _best_window(src, op.parameter)
            if payload["covered_count"] < floor:
                return f"interval cover {payload['covered_count']} < best window {floor}"
    elif op.problem == "dksh":
        floor = min(op.parameter // 3, src.hypergraph.m)
        if payload["covered_count"] < floor:
            return f"covered {payload['covered_count']} < min(k//3, m) = {floor}"
    elif workload == "planted-mpu3" and op.parameter <= len(src.block_edge_indices):
        ceil_sqrt_m = math.isqrt(src.hypergraph.m - 1) + 1
        bound = 2 * ceil_sqrt_m * len(src.block_vertices)
        if payload["union_size"] > bound:
            return f"union {payload['union_size']} > 2*ceil(sqrt(m))*block = {bound}"
    return None


def gate(hd, workload: str, batch: Batch, rec: OpRecord, workdir: Path) -> str | None:
    """None when the op's output is correct, else the reason it is not."""
    if rec.error is not None:
        return rec.error
    if rec.code != 0:
        return f"exit code {rec.code}"
    op = batch.ops[rec.op]
    inst = batch.instances[op.instance]
    try:
        line = rec.stdout.strip().splitlines()[-1]
        payload = json.loads(line)
        if payload.get("problem") != op.problem or payload.get("parameter") != op.parameter:
            return "solution answers another query"
        solution = workdir / "solution.json"
        solution.write_text(line + "\n", encoding="utf-8")
        argv = ["verify"] + (["--intervals"] if inst.suffix == ".iv" else [])
        code, out = run_cli(hd.cli.main, argv + [batch.paths[op.instance], str(solution)])
        verdict = json.loads(out.strip().splitlines()[-1])
        if code != 0 or verdict.get("valid") is not True:
            return f"verify exit {code}: {verdict.get('issues')}"
        return _floor_problem(workload, inst, op, payload)
    except Exception as exc:  # malformed output or a verify traceback is a failed op
        return f"gate {type(exc).__name__}: {exc}"


def percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile of sorted samples and the count beyond it."""
    idx = max(math.ceil(q / 100 * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - idx - 1


def highest_tail(ordered: list[float]) -> float:
    """The highest ladder percentile with at least 10 samples beyond it."""
    for q in TAIL_LADDER:
        if percentile(ordered, q)[1] >= TAIL_MIN_BEYOND:
            return q
    return 50


def run_untraced(
    main, batch: Batch, seconds: float, probe: SpeedProbe
) -> tuple[list[OpRecord], float]:
    """Ops until the deadline and at least batch.min_ops; returns (records, op seconds).

    The op seconds are the loop's wall time less the probe's.
    """
    gc.collect()
    gc.freeze()  # set-up objects stay out of the collections the ops trigger
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    position = 0
    while True:
        probe.measure()
        records.append(timed_op(main, batch, position % len(batch.ops)))
        position += 1
        if time.perf_counter() >= deadline and position >= batch.min_ops:
            break
    return records, time.perf_counter() - start - sum(probe.samples)


def run_traced(main, batch: Batch, seconds: float, tracer):
    """Each op untraced, then traced; returns (traced records, mismatches, untraced s, traced s)."""
    gc.collect()
    gc.freeze()
    records, mismatches = [], 0
    untraced_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    position = 0
    while True:
        at = position % len(batch.ops)
        plain = timed_op(main, batch, at)
        tracer.install()
        try:
            traced = timed_op(lambda argv: tracer.run_op(at, main, argv), batch, at)
        finally:
            tracer.uninstall()
        untraced_s += plain.seconds
        traced_s += traced.seconds
        if plain.stdout != traced.stdout or plain.code != traced.code:
            mismatches += 1
            traced.error = traced.error or "traced output differs from untraced output"
        records.append(traced)
        position += 1
        if time.perf_counter() >= deadline:
            break
    return records, mismatches, untraced_s, traced_s


def _emit(result: dict, names: list[str], metrics: dict[str, tuple[float, str]]) -> None:
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result["metrics"] = {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}
    for n in names:
        print(f"# {n} = {metrics[n][0]:.6g} {metrics[n][1]}")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hyperdense" / "cli.py").is_file():
        print(f"error: no hyperdense sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[key]]
    units = {m["name"]: m["unit"] for m in spec[key]}
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}.instances"
    setups = []
    for _ in range(SETUP_REPEATS):
        took, hd, batch = set_up(workload, args.seed, args.seconds, workdir)
        setups.append(took)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "batch_ops": len(batch.ops),
        "instances": [hd.cli._digest(inst.text) for inst in batch.instances],
        "setup_s_each": setups,
    }
    if args.trace:
        tracer = tracing.Tracer()
        records, mismatches, untraced_s, traced_s = run_traced(
            hd.cli.main, batch, args.seconds, tracer
        )
        values = tracer.metrics(traced_s, untraced_s)
        metrics = {n: (values[n], units[n]) for n in values if n in units}
        record["answer_mismatches"] = mismatches
        record["spans_kept"] = len(tracer.spans)
        record["spans_dropped"] = tracer.spans_dropped
    else:
        probe = SpeedProbe()
        records, elapsed = run_untraced(hd.cli.main, batch, args.seconds, probe)
        metrics = {}

    failures = {}
    for i, rec in enumerate(records):
        reason = gate(hd, workload.name, batch, rec, workdir)
        if reason is not None:
            failures[i] = reason
    for path in batch.paths:
        os.remove(path)
    (workdir / "solution.json").unlink(missing_ok=True)
    workdir.rmdir()

    attempted, failed = len(records), len(failures)
    seen, repeats = set(), 0
    for rec in records:
        inst = batch.ops[rec.op].instance
        repeats += inst in seen
        seen.add(inst)
    record.update(
        ops=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        failures=[f"op {i}: {r}" for i, r in sorted(failures.items())[:20]],
        repeat_instance_share=repeats / attempted,
    )

    if not args.trace:
        raw_times = sorted(r.seconds for r in records)
        raw = {
            "solves_per_s": attempted / elapsed,
            "solve_p50_s": statistics.median(raw_times),
            "solve_tail_s": percentile(raw_times, TAIL_PERCENTILE)[0],
            "setup_s": statistics.median(setups),
        }
        slowdowns = probe.slowdowns()
        scaled = [r.seconds / f for r, f in zip(records, slowdowns)]
        times = sorted(scaled)
        tail_value, beyond = percentile(times, TAIL_PERCENTILE)
        payloads = [
            json.loads(r.stdout.strip().splitlines()[-1]) if i not in failures else {}
            for i, r in enumerate(records[: batch.min_ops])
        ]
        metrics = {
            "solves_per_s": (raw["solves_per_s"] * sum(raw_times) / sum(scaled), "1/s"),
            "solve_p50_s": (statistics.median(times), "s"),
            "solve_tail_s": (tail_value, "s"),
            "union_total": (sum(p.get("union_size", 0) for p in payloads), "count"),
            "covered_total": (sum(p.get("covered_count", 0) for p in payloads), "count"),
            "setup_s": (raw["setup_s"] / statistics.median(slowdowns), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record.update(
            tail_percentile=TAIL_PERCENTILE,
            tail_samples=attempted,
            tail_samples_beyond=beyond,
            highest_tail_percentile=highest_tail(times),
            objective_ops=batch.min_ops,
            median_slowdown=statistics.median(slowdowns),
            raw_times=raw,
            probe_seconds=probe.samples,
            op_seconds=[r.seconds for r in records],
        )

    record["metrics"] = {n: v for n, (v, _) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write_spans(OUT / f"{tag}.spans.jsonl")

    print(
        f"# {workload.name} seed={args.seed} ops={attempted} failed={failed} "
        f"fail_ratio={failed / attempted:.6g} repeat_instance_share={repeats / attempted:.3f}"
        + ("" if args.trace else f" tail=p{TAIL_PERCENTILE} of {attempted}")
    )
    correct = failed == 0
    _emit({"correct": correct, "attempted": attempted, "failed": failed}, names, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
