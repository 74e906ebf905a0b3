"""The package's public names, the README example, the tracer's bindings and
one traced op per solver path, what the interval table stores, unused
imports, where tie-breaking rankings and bitmasks may live, that the
anchored scans never sweep every edge, where frozen references live and what
they import."""

import ast
import contextlib
import dataclasses
import importlib
import io
import re
import sys
from pathlib import Path

import pytest

import hyperdense
import hyperdense.cli
import hyperdense.core
import hyperdense.dksh3
import hyperdense.interval
import hyperdense.maxflow
import hyperdense.mpu3
import hyperdense.oracle
from reference import (
    reference_degrees,
    reference_greedy_three_layer,
    reference_k1_pair_weights,
    reference_k1_weighted_graph,
)

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    # types and errors
    "Hypergraph", "HypergraphFormatError", "EdgeSolution", "VertexSolution",
    "IntervalInstance", "ExpansionCertificate", "WeightedGraph",
    "EmptyHypergraphError", "StalledGeneratorError", "OracleBudgetError",
    # I/O and verification
    "parse_hypergraph", "serialize_hypergraph", "parse_intervals",
    "serialize_intervals", "to_hypergraph", "solution_json", "covered_edges",
    "union_of",
    # solvers and default subroutines
    "mpu_sqrt_m", "mpu_3uniform", "mpu_interval", "dksh_3uniform",
    "dksh_interval", "min_expansion_flow", "iterative_cover",
    "greedy_weighted_dks", "greedy_weighted_spes",
    # oracles and generators
    "brute_mpu", "brute_dksh", "brute_min_expansion", "exact_weighted_dks",
    "generate_planted", "generate_uniform", "generate_intervals",
    "PlantedSpec", "PlantedInstance",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 36
    assert sorted(hyperdense.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(hyperdense, name).__name__ == name


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["(0, 1, 2)", "(0, 1)", "3/4"]


def _bindings():
    """Every module and class attribute the tracer could patch, by identity."""
    owners = [
        module for name, module in sys.modules.items()
        if name == "hyperdense" or name.startswith("hyperdense.")
    ]
    owners += [
        hyperdense.core.Hypergraph,
        hyperdense.maxflow.FlowGraph,
        hyperdense.mpu3.MpU3Params,
        hyperdense.interval.DPTable,
    ]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        tracing = importlib.import_module("tracing")
        before = _bindings()
        tracer = tracing.Tracer()
        try:
            tracer.install()
            patched = {key for key, value in _bindings().items() if before.get(key) is not value}
            recorded = len(tracer._patches)
        finally:
            tracer.uninstall()
        after = _bindings()
    finally:
        sys.modules.pop("tracing", None)
    # Each recorded patch replaced a distinct binding, and uninstall put back
    # the very object that was there before.
    assert len(patched) == recorded > 0
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _traced_op_files(tmp_path):
    """Tiny instances for each solver path: sizes 2-4, 3-uniform planted, intervals."""
    oracle = hyperdense.oracle
    files = {
        "mixed.hg": hyperdense.serialize_hypergraph(oracle.generate_uniform(14, 16, 3, (2, 4))),
        "planted.hg": hyperdense.serialize_hypergraph(
            oracle.generate_planted(oracle.PlantedSpec(20, 20, 6, 12, seed=5)).hypergraph
        ),
        "intervals.iv": hyperdense.serialize_intervals(oracle.generate_intervals(16, 10, 7)),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return {name: str(tmp_path / name) for name in files}


# (argv naming an instance file, spans the op must record under the tracer)
TRACED_OPS = [
    (
        ["solve", "mpu", "--p", "12", "mixed.hg"],  # p > ceil(sqrt 16)
        ["mpu_general.mpu_sqrt_m", "expansion.min_expansion_flow", "maxflow.FlowGraph.max_flow"],
    ),
    (
        ["solve", "mpu", "--algo", "three-uniform", "--trace", "--p", "14", "planted.hg"],
        ["mpu3.mpu_3uniform", "mpu3.candidate_generator_3u", "maxflow.FlowGraph.max_flow"],
    ),
    (
        ["solve", "dksh", "--k", "9", "planted.hg"],
        ["dksh3.dksh_3uniform", "dksh3.k1_case_split", "dksh3.greedy_three_layer"],
    ),
    (
        ["solve", "dksh", "--explain", "--k", "9", "planted.hg"],
        ["dksh3.k1_case_split", "dksh3.greedy_three_layer", "dksh3.trivial_pick"],
    ),
    (
        ["solve", "mpu", "--algo", "interval", "--p", "4", "intervals.iv"],
        ["interval.mpu_interval", "interval.fill_table"],
    ),
    (
        ["solve", "dksh", "--algo", "interval", "--k", "6", "intervals.iv"],
        ["interval.dksh_interval", "interval.fill_table"],
    ),
]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hyperdense.cli.main(argv)
    return code, out.getvalue()


def test_traced_ops_match_untraced(monkeypatch, tmp_path):
    # What perfbench/run.py --trace 1 does per op: run it untraced, then under
    # an installed tracer; the two must print the same, and the tracer must see
    # every layer the op reaches and compute its metrics from what it saw.
    paths = _traced_op_files(tmp_path)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        tracing = importlib.import_module("tracing")
        for op, (template, spans) in enumerate(TRACED_OPS):
            argv = [paths.get(arg, arg) for arg in template]
            plain = _run_cli(argv)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = tracer.run_op(op, _run_cli, argv)
            finally:
                tracer.uninstall()
            assert plain[0] == 0 and traced == plain, argv
            assert all(tracer.counts[name] > 0 for name in spans), (argv, tracer.counts)
            metrics = tracer.metrics(traced_s=1.0, untraced_s=1.0)
            if "maxflow.FlowGraph.max_flow" in spans:
                assert metrics["maxflow.arcs"] > 0 and metrics["maxflow.phases"] > 0
            if "dksh3.dksh_3uniform" in spans:
                assert sum(metrics[f"dksh3.win_ratio.{a}"] for a in tracing.DKSH_ALGORITHMS) == 1
    finally:
        sys.modules.pop("tracing", None)


def test_the_interval_table_stores_its_values_only():
    # C_i and every cell's predecessor are derived from these three fields.
    # Storing a derived table again is a decision to declare here.
    fields = dataclasses.fields(hyperdense.interval.DPTable)
    assert [f.name for f in fields] == ["order", "intervals", "values"]


# Imports a module keeps without using them, each a declared decision:
# perfbench/tracing.py patches each of these bindings by name.
UNUSED_IMPORT_ALLOWLIST = {
    ("cli", "covered_edges"),
    ("dksh3", "induced"),
    ("mpu3", "induced"),
    ("mpu3", "top_by_degree"),
}


def test_every_import_is_used():
    unused = set()
    for path in sorted((ROOT / "src" / "hyperdense").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update((path.stem, name) for name in imported - used)
    assert unused == UNUSED_IMPORT_ALLOWLIST
    # An import may stay unused only to serve the tracer: each entry is a
    # binding that one of its ``wrap(<module>, "<name>", ...)`` calls patches.
    tracing = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    wrapped = set(re.findall(r'\bwrap\((\w+), "(\w+)"', tracing))
    assert UNUSED_IMPORT_ALLOWLIST <= wrapped


def test_rankings_break_ties_in_one_place():
    # ``core._ranked`` states the one top-t rule, ties to the smaller id, as a
    # stable sort of the sorted ids on the bare score.  No other sort may
    # spell the rule again as a (-score, id) key; the oracle is ground truth.
    found = []
    for path in sorted((ROOT / "src" / "hyperdense").glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or not (
                getattr(node.func, "id", None) == "sorted"
                or getattr(node.func, "attr", None) == "sort"
            ):
                continue
            for kw in node.keywords:
                body = kw.value.body if isinstance(kw.value, ast.Lambda) else None
                if (
                    kw.arg == "key"
                    and isinstance(body, ast.Tuple)
                    and body.elts
                    and isinstance(body.elts[0], ast.UnaryOp)
                    and isinstance(body.elts[0].op, ast.USub)
                ):
                    found.append((path.name, node.lineno))
    assert found == []


def test_only_the_oracle_builds_bitmasks():
    # The solvers test containment with sets, so their memory never grows with
    # the largest vertex id; the exhaustive oracles union edges bit-parallel.
    found = set()
    for path in sorted((ROOT / "src" / "hyperdense").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.LShift) or (
                isinstance(node, ast.Attribute) and node.attr == "bit_count"
            ):
                found.add(path.name)
    assert found == {"oracle.py"}


def test_trusted_builds_only_where_fields_are_canonical():
    # ``core._trusted`` skips validation, so it may build only from rows the
    # parse has checked or from edges of an instance already built.
    sites = set()
    for path in sorted((ROOT / "src" / "hyperdense").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if "_trusted" in (getattr(node, "id", None), getattr(node, "attr", None)):
                    sites.add((path.name, func.name))
        imports = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        if "_trusted" in imports:
            sites.add((path.name, "import"))
    assert sites == {
        ("core.py", "parse_hypergraph"),
        ("core.py", "edge_subhypergraph"),
        ("interval.py", "import"),
        ("interval.py", "parse_intervals"),
        ("interval.py", "_hypergraph"),
    }


class _Unswept(tuple):
    """Edges that can be counted and indexed but not iterated."""

    def __iter__(self):
        raise AssertionError("a scan iterated over every edge")


def test_anchored_scans_never_sweep():
    # The anchored scans read their anchors' lists in ``edges_at``, so an
    # instance whose edges refuse iteration still gets the full sweep's answer
    # once its indexes are cached.
    spec = hyperdense.PlantedSpec(n=40, noise_edges=120, block_size=9, block_edges=30, seed=23)
    h = hyperdense.generate_planted(spec).hypergraph
    k, anchors = 12, hyperdense.core.top_by_degree(h, 12)
    assert h.edges_at and h.edges_by_last and h.is_uniform(3)
    blind = hyperdense.core._trusted(hyperdense.Hypergraph, n=h.n, edges=_Unswept(h.edges))
    for name in ("edges_at", "edges_by_last", "_edge_sizes"):
        vars(blind)[name] = vars(h)[name]
    with pytest.raises(AssertionError):
        list(blind.edges)
    scans = hyperdense.dksh3
    assert hyperdense.core.degrees(blind) == reference_degrees(h)
    assert scans.greedy_three_layer(blind, k, anchors[: k // 3]) == (
        reference_greedy_three_layer(h, k, anchors[: k // 3])
    )
    assert scans.k1_pair_weights(blind, anchors) == reference_k1_pair_weights(h, anchors)
    assert scans.k1_weighted_graph(blind, anchors) == reference_k1_weighted_graph(h, anchors)


def test_probes_below_size_two_never_sweep():
    # Below threshold 1 the walk yields nothing and reads no edge, so a round
    # at khat = 1 probes without sweeping the residual.
    spec = hyperdense.PlantedSpec(n=20, noise_edges=20, block_size=6, block_edges=12, seed=1)
    h = hyperdense.generate_planted(spec).hypergraph
    blind = hyperdense.core._trusted(hyperdense.Hypergraph, n=h.n, edges=_Unswept(h.edges))
    for skip in ((), {0, 1}):
        assert list(hyperdense.dksh3._link_graphs(blind, 0, skip)) == []
        assert list(hyperdense.dksh3.probe_candidates(blind, 1, skip)) == []
    # The same instance yields at threshold 1, so the walk has work to skip.
    assert list(hyperdense.dksh3.probe_candidates(h, 2, ()))


def test_frozen_references_live_in_one_module():
    # Each frozen reference is defined once, in tests/reference.py, so the next
    # speed change freezes its parent there, not in its own test file.
    defined = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (
                node.name.startswith("reference_") or node.name == "ReferenceTable"
            ):
                defined.append((path.name, node.name))
    names = [name for _, name in defined]
    assert {file for file, _ in defined} == {"reference.py"}
    assert len(names) == len(set(names))
    assert "ReferenceTable" in names


# Every package name tests/reference.py imports, each a declared decision: a
# frozen reference that calls the code it freezes would change along with it.
REFERENCE_IMPORTS = {
    ("hyperdense", "EdgeSolution"),
    ("hyperdense", "Hypergraph"),
    ("hyperdense", "VertexSolution"),
    ("hyperdense", "WeightedGraph"),
    ("hyperdense", "greedy_weighted_spes"),
    ("hyperdense", "mpu_sqrt_m"),
    ("hyperdense.core", "covered_edges"),
    ("hyperdense.core", "degrees"),
    ("hyperdense.core", "induced"),
    ("hyperdense.dksh3", "_padded"),
    ("hyperdense.dksh3", "k1_pair_weights"),
    ("hyperdense.dksh3", "k1_weighted_graph"),
    ("hyperdense.expansion", "build_expansion_network"),
    ("hyperdense.expansion", "expansion_certificate"),
    ("hyperdense.mpu3", "MpU3Params"),
    ("hyperdense.mpu3", "_ceil_sqrt_fraction"),
    ("hyperdense.mpu_general", "StalledGeneratorError"),
}


def test_frozen_references_import_only_the_allowlist():
    # A plain ``import hyperdense...`` reaches every name, so it counts as "*".
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(
                (a.name, "*") for a in node.names if a.name.split(".")[0] == "hyperdense"
            )
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hyperdense":
            imported.update((node.module, a.name) for a in node.names)
    assert imported == REFERENCE_IMPORTS
