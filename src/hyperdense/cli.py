"""Batch front door: solve, oracle, gen, and verify commands.

Report rows are JSON lines on stdout (or key=value pairs with --format tsv);
diagnostics go to stderr.  ``solve dksh --explain`` prints one JSON array line,
or one TSV row per candidate under --format tsv.  The solution line is always
JSON, whatever --format says, because it is what ``verify`` reads.  Exit codes:
0 success, 2 usage error, 3 parse error, 4 oracle budget exceeded, 1 failed
verification, 5 internal error (a solver or self-check found its own answer
unsound; nothing goes to stdout).

The argument parser is built once per process and reused by every ``main``
call; each parsed instance is validated once, row by row as it is read.

One checker, ``_issues``, defines a valid answer: ``verify`` runs it on a
solution file, and ``solve`` and ``oracle mpu|dksh`` run it on the exact line
they are about to print, so no command prints a line ``verify`` would reject.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from hyperdense.core import (
    Hypergraph,
    HypergraphFormatError,
    covered_edges,  # unused; kept bound for perfbench/tracing.py (ROADMAP item 2, step 2a)
    parse_hypergraph,
    serialize_hypergraph,
    solution_json,
    union_of,
)
from hyperdense.dksh3 import (
    dksh_3uniform,
    dksh_best_of,
    dksh_candidates,
    greedy_weighted_dks,
)
from hyperdense.interval import (
    dksh_interval,
    mpu_interval,
    parse_intervals,
    serialize_intervals,
    to_hypergraph,
)
from hyperdense.mpu3 import mpu_3uniform
from hyperdense.mpu_general import mpu_sqrt_m
from hyperdense.oracle import (
    OracleBudgetError,
    PlantedSpec,
    brute_dksh,
    brute_mpu,
    brute_min_expansion,
    exact_weighted_dks,
    generate_intervals,
    generate_planted,
    generate_uniform,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


def _emit(row: dict, fmt: str) -> None:
    if fmt == "tsv":
        print("\t".join(f"{k}={row[k]}" for k in sorted(row)))
    else:
        print(json.dumps(row, sort_keys=True, separators=(",", ":")))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise HypergraphFormatError(f"{path} is not UTF-8 text: {exc}") from exc


# Not called here; perfbench/run.py records it as each instance's id.
def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _scan_covered(h: Hypergraph, vertices) -> tuple[int, ...]:
    """Edges inside the vertex set by a scan of all m edges.

    The solvers count covers through the incidence index
    (``Hypergraph.edges_by_last``); this scan does not read it, so a fault in
    the index cannot vouch for its own answer.
    """
    vs = set(vertices)
    return tuple(i for i, e in enumerate(h.edges) if vs.issuperset(e))


def _reverify(h: Hypergraph, line: str) -> None:
    """``verify``'s checks on a line about to be printed; any issue is an internal error."""
    issues = _issues(h, json.loads(line))
    if issues:
        raise RuntimeError(f"solution failed re-verification: {'; '.join(issues)}")


def _answer(h: Hypergraph, problem: str, parameter: int, sol) -> int:
    """Print the solution line, once it passes re-verification against h."""
    line = solution_json(problem, parameter, sol)
    _reverify(h, line)
    print(line)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    # A flag the chosen algorithm would not read is a usage error, not a no-op.
    if args.problem == "mpu" and args.trace and args.algo != "three-uniform":
        raise ValueError(f"--trace does not apply to --algo {args.algo}")
    if args.problem == "dksh" and args.algo == "interval" and (args.explain or args.sub):
        flag = "--explain" if args.explain else "--sub"
        raise ValueError(f"{flag} does not apply to --algo interval")
    text = _read(args.file)
    if args.algo == "interval":
        inst = parse_intervals(text)
        solver = mpu_interval if args.problem == "mpu" else dksh_interval
        sol = solver(inst, args.parameter)
        h = to_hypergraph(inst)
    else:
        h = parse_hypergraph(text)
        if args.algo == "sqrt-m":
            sol = mpu_sqrt_m(h, args.parameter)
        elif args.problem == "mpu":
            trace: list[dict] | None = [] if args.trace else None
            sol = mpu_3uniform(h, args.parameter, trace=trace)
            for row in trace or ():
                _emit(row, args.format)
        else:
            sub = exact_weighted_dks if args.sub == "exact" else greedy_weighted_dks
            if args.explain:
                candidates = dksh_candidates(h, args.parameter, sub)
                breakdown = [
                    {"algorithm": cand.algorithm, "covered": cand.covered_count}
                    for cand in candidates
                ]
                if args.format == "tsv":
                    for row in breakdown:
                        _emit(row, "tsv")
                else:
                    print(json.dumps(breakdown, sort_keys=True, separators=(",", ":")))
                sol = dksh_best_of(candidates)
            else:
                sol = dksh_3uniform(h, args.parameter, sub)
    return _answer(h, args.problem, args.parameter, sol)


def _cmd_oracle(args: argparse.Namespace) -> int:
    h = parse_hypergraph(_read(args.file))
    if args.problem == "minexp":
        print(brute_min_expansion(h).to_json())
        return EXIT_OK
    brute = brute_mpu if args.problem == "mpu" else brute_dksh
    return _answer(h, args.problem, args.parameter, brute(h, args.parameter))


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "planted":
        spec = PlantedSpec(
            n=args.n,
            noise_edges=args.noise_edges,
            block_size=args.block_size,
            block_edges=args.block_edges,
            seed=args.seed,
        )
        planted = generate_planted(spec)
        print(f"# planted block vertices: {' '.join(map(str, planted.block_vertices))}")
        print(f"# planted edge indices: {' '.join(map(str, planted.block_edge_indices))}")
        sys.stdout.write(serialize_hypergraph(planted.hypergraph))
    elif args.kind == "uniform":
        sizes = args.size if args.max_size is None else (args.size, args.max_size)
        sys.stdout.write(
            serialize_hypergraph(generate_uniform(args.n, args.m, args.seed, sizes))
        )
    else:
        sys.stdout.write(
            serialize_intervals(generate_intervals(args.n, args.m, args.seed))
        )
    return EXIT_OK


def _solution_payload(text: str) -> dict:
    """Decoded solution JSON: an object with problem 'mpu' or 'dksh', int
    parameter, union_size and covered_count, and lists of ints."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, huge ints, deep nesting
        raise HypergraphFormatError(f"solution file is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise HypergraphFormatError("solution file must hold a JSON object")
    if payload.get("problem") not in ("mpu", "dksh"):
        raise HypergraphFormatError("solution 'problem' must be 'mpu' or 'dksh'")
    for key in ("parameter", "union_size", "covered_count"):
        if type(payload.get(key)) is not int:
            raise HypergraphFormatError(f"solution '{key}' must be an integer")
    for key in ("vertices", "edge_indices"):
        value = payload.get(key)
        if not isinstance(value, list) or any(type(x) is not int for x in value):
            raise HypergraphFormatError(f"solution '{key}' must be a list of integers")
    return payload


def _issues(h: Hypergraph, payload: dict) -> list[str]:
    """Every way a decoded solution fails against h; empty when it is valid."""
    problem = payload["problem"]
    parameter = payload["parameter"]
    vertices = payload["vertices"]
    edge_indices = payload["edge_indices"]
    problems = []
    limit = h.m if problem == "mpu" else h.n
    if not 1 <= parameter <= limit:
        problems.append(f"parameter outside [1, {limit}]")
    if problem == "mpu":
        if len(edge_indices) != parameter:
            problems.append("edge count differs from parameter")
        if len(set(edge_indices)) != len(edge_indices):
            problems.append("edge indices repeat")
        elif any(not 0 <= i < h.m for i in edge_indices):
            problems.append("edge index out of range")
        else:
            union = list(union_of(h, edge_indices))
            if union != sorted(vertices):
                problems.append("vertices differ from the recomputed union")
            if payload["union_size"] != len(union):
                problems.append("union_size differs from the recomputed union")
        if payload["covered_count"] != len(edge_indices):
            problems.append("covered_count differs from the edge count")
    else:
        if len(vertices) != parameter:
            problems.append("vertex count differs from parameter")
        if payload["union_size"] != len(vertices):
            problems.append("union_size differs from the vertex count")
        if len(set(vertices)) != len(vertices):
            problems.append("vertices repeat")
        elif any(not 0 <= v < h.n for v in vertices):
            problems.append("vertex id out of range")
        else:
            covered = list(_scan_covered(h, vertices))
            if covered != sorted(edge_indices):
                problems.append("edge indices differ from the recomputed cover")
            if payload["covered_count"] != len(covered):
                problems.append("covered_count differs from the recomputed cover")
    return problems


def _cmd_verify(args: argparse.Namespace) -> int:
    text = _read(args.instance)
    payload = _solution_payload(_read(args.solution))
    if args.intervals:
        h = to_hypergraph(parse_intervals(text))
    else:
        h = parse_hypergraph(text)
    problems = _issues(h, payload)
    _emit({"valid": not problems, "problem": payload["problem"], "issues": problems},
          args.format)
    return EXIT_INVALID if problems else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built on first use and then shared.

    It holds no per-call state: every default is None, a str, a bool or an
    int, and each command is a function of the parsed namespace alone.
    """
    parser = argparse.ArgumentParser(
        prog="hyperdense",
        description="Solvers, oracles, and generators for dense-subhypergraph problems.",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an approximation or exact solver")
    solve_sub = solve.add_subparsers(dest="problem", required=True)
    s_mpu = solve_sub.add_parser("mpu")
    s_mpu.add_argument("--algo", choices=("sqrt-m", "three-uniform", "interval"),
                       default="sqrt-m")
    s_mpu.add_argument("--p", dest="parameter", metavar="P", type=int, required=True)
    s_mpu.add_argument("--trace", action="store_true",
                       help="emit one row per witness-size guess (three-uniform only)")
    s_mpu.add_argument("file")
    s_mpu.set_defaults(func=_cmd_solve)
    s_dksh = solve_sub.add_parser("dksh")
    s_dksh.add_argument("--algo", choices=("three-uniform", "interval"),
                        default="three-uniform")
    s_dksh.add_argument("--k", dest="parameter", metavar="K", type=int, required=True)
    s_dksh.add_argument("--sub", choices=("greedy", "exact"), default=None,
                        help="weighted densest-k subroutine (default: greedy)")
    s_dksh.add_argument("--explain", action="store_true",
                        help="emit one row per component strategy (three-uniform only)")
    s_dksh.add_argument("file")
    s_dksh.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="run a brute-force exact solver")
    oracle_sub = oracle.add_subparsers(dest="problem", required=True)
    o_mpu = oracle_sub.add_parser("mpu")
    o_mpu.add_argument("--p", dest="parameter", metavar="P", type=int, required=True)
    o_mpu.add_argument("file")
    o_mpu.set_defaults(func=_cmd_oracle)
    o_dksh = oracle_sub.add_parser("dksh")
    o_dksh.add_argument("--k", dest="parameter", metavar="K", type=int, required=True)
    o_dksh.add_argument("file")
    o_dksh.set_defaults(func=_cmd_oracle)
    o_minexp = oracle_sub.add_parser("minexp")
    o_minexp.add_argument("file")
    o_minexp.set_defaults(func=_cmd_oracle)

    gen = sub.add_parser("gen", help="generate a seeded instance on stdout")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_planted = gen_sub.add_parser("planted")
    g_planted.add_argument("--n", type=int, required=True)
    g_planted.add_argument("--noise-edges", type=int, required=True)
    g_planted.add_argument("--block-size", type=int, required=True)
    g_planted.add_argument("--block-edges", type=int, required=True)
    g_planted.add_argument("--seed", type=int, required=True)
    g_planted.set_defaults(func=_cmd_gen)
    g_uniform = gen_sub.add_parser("uniform")
    g_uniform.add_argument("--n", type=int, required=True)
    g_uniform.add_argument("--m", type=int, required=True)
    g_uniform.add_argument("--size", type=int, default=3)
    g_uniform.add_argument("--max-size", type=int, default=None)
    g_uniform.add_argument("--seed", type=int, required=True)
    g_uniform.set_defaults(func=_cmd_gen)
    g_interval = gen_sub.add_parser("interval")
    g_interval.add_argument("--n", type=int, required=True)
    g_interval.add_argument("--m", type=int, required=True)
    g_interval.add_argument("--seed", type=int, required=True)
    g_interval.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="check a solution JSON against an instance")
    verify.add_argument("--intervals", action="store_true",
                        help="the instance file uses the interval format")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except HypergraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleBudgetError as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
