"""Out-of-program tracing: spans around the calls into each hyperdense layer.

The library resolves most collaborators through ``from ... import`` bindings,
so every callable is wrapped at the module attribute its caller actually
looks up (for example ``hyperdense.mpu3.covered_edges`` and
``hyperdense.cli.covered_edges`` are two separate patches).  Methods are
wrapped on their class.  Hot inner calls (``FlowGraph._augment``,
``FlowGraph.add_edge``) are never wrapped; the arc count is computed from the
``ExpansionNetwork`` argument instead.

A span is (op id, span id, parent span id, name, start ns, end ns, self ns).
The layer of a span is the module that defines the wrapped callable, and its
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter, defaultdict

DKSH_ALGORITHMS = (
    "k1-case-split",
    "greedy-three-layer",
    "neighborhood",
    "neighborhood-plugged",
    "trivial",
)
LAYERS = ("cli", "core", "maxflow", "expansion", "mpu_general", "mpu3", "dksh3", "interval")

# Raw spans are kept for whole ops until this many are held; every op still
# feeds the aggregated per-layer metrics.  A planted-mpu3 op records about
# 1,350 spans, so a long traced run would otherwise hold millions.
SPAN_CAP = 200_000

# metric name -> span name whose summed duration it reports
DURATIONS = {
    "cli.parse_s": ("core.parse_hypergraph", "interval.parse_intervals"),
    "cli.reverify_s": ("cli._reverify",),
    "cli.emit_s": ("core.solution_json",),
    "core.validate_s": ("core.Hypergraph.__post_init__",),
    "core.degrees_s": ("core.degrees",),
    "core.covered_edges_s": ("core.covered_edges",),
    "core.residual_s": ("core.edge_subhypergraph",),
    "core.induced_s": ("core.induced",),
    "maxflow.min_cut_s": ("maxflow.FlowGraph.source_side",),
    "mpu_general.sqrt_m_s": ("mpu_general.mpu_sqrt_m",),
    "mpu_general.cover_s": ("mpu_general.iterative_cover",),
    "mpu3.generator_s": ("mpu3.candidate_generator_3u",),
    "dksh3.candidates_s": ("dksh3.dksh_candidates",),
    "dksh3.case_split_s": ("dksh3.k1_case_split",),
    "dksh3.three_layer_s": ("dksh3.greedy_three_layer",),
    "dksh3.neighborhood_s": ("dksh3.neighborhood_search",),
    "dksh3.neighborhood_plugged_s": ("dksh3.neighborhood_search_plugged",),
    "dksh3.trivial_s": ("dksh3.trivial_pick",),
    "dksh3.pair_weights_s": ("dksh3.k1_pair_weights", "dksh3.k1_weighted_graph"),
    "interval.fill_s": ("interval.fill_table",),
    "interval.reconstruct_s": ("interval.DPTable.reconstruct",),
    "interval.to_hypergraph_s": ("interval.to_hypergraph",),
}

# metric name -> span name whose call count it reports
CALLS = {
    "core.hypergraph_builds": "core.Hypergraph.__post_init__",
    "core.degrees_calls": "core.degrees",
    "core.covered_edges_calls": "core.covered_edges",
    "core.residual_builds": "core.edge_subhypergraph",
    "maxflow.max_flow_calls": "maxflow.FlowGraph.max_flow",
    "expansion.min_expansion_calls": "expansion.min_expansion_flow",
    "expansion.decide_calls": "expansion.decide_expansion",
    "mpu3.guesses": "mpu3.MpU3Params.for_guess",
    "interval.fills": "interval.fill_table",
}


class Tracer:
    """Records spans and counters while installed; restores every patch on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int, int]] = []
        self.spans_dropped = 0
        self.counts: Counter[str] = Counter()
        self.durations: defaultdict[str, int] = defaultdict(int)
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.ops = 0
        self._op = -1
        self._op_spans: list[tuple[int, int, int, str, int, int, int]] = []
        self._stack: list[list] = []  # open spans: [span id, child ns, name]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._best_union: int | None = None

    # -- recording ---------------------------------------------------------

    def call(self, name: str, func, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0, name]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            own = duration - frame[1]
            self.counts[name] += 1
            self.durations[name] += duration
            self.self_ns[name] += own
            self._op_spans.append(
                (self._op, span_id, -1 if parent is None else parent[0], name, start, end, own)
            )

    def run_op(self, op_id: int, func, *args):
        """Run one op under a root ``cli.main`` span."""
        self._op = op_id
        self._op_spans = []
        self._best_union = None
        try:
            return self.call("cli.main", func, args, {})
        finally:
            self.ops += 1
            if len(self.spans) < SPAN_CAP:
                self.spans.extend(self._op_spans)
            else:
                self.spans_dropped += len(self._op_spans)
            self._op_spans = []

    # -- patching ----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        if after is None:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                return tracer.call(name, func, args, kwargs)
        else:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                try:
                    result = tracer.call(name, func, args, kwargs)
                except Exception as exc:
                    after(args, None, exc)
                    raise
                after(args, result, None)
                return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, original))

    def _count_only(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Patch every layer boundary of the currently imported hyperdense modules."""
        import hyperdense.cli as cli
        import hyperdense.core as core
        import hyperdense.dksh3 as dksh3
        import hyperdense.expansion as expansion
        import hyperdense.interval as interval
        import hyperdense.maxflow as maxflow
        import hyperdense.mpu3 as mpu3
        import hyperdense.mpu_general as mpu_general

        counts = self.counts
        wrap = self._wrap

        def on_decide(args, result, exc):
            if result is not None:
                counts["expansion.improving_decides"] += 1

        def on_network(args, result, exc):
            net = args[0]
            counts["maxflow.arcs"] += net.m + sum(len(e) for e in net.edges) + net.n

        def on_guess(args, result, exc):
            if result is not None and result.anchor_size == result.n:
                counts["mpu3.saturated_guesses"] += 1

        def on_cover(args, result, exc):
            if isinstance(exc, mpu_general.StalledGeneratorError):
                counts["mpu3.stalled_guesses"] += 1
            elif exc is None and (
                self._best_union is None or result.union_size < self._best_union
            ):
                self._best_union = result.union_size
                counts["mpu3.improving_guesses"] += 1

        def on_fill(args, result, exc):
            if result is not None:
                counts["interval.cells"] += sum(len(row) for row in result.values)

        def on_dksh(args, result, exc):
            if result is not None:
                counts["dksh3.ops"] += 1
                counts[f"dksh3.wins.{result.algorithm}"] += 1

        def on_scored(args, result, exc):
            counts["mpu3.candidates_scored"] += 1

        def on_residual(args, result, exc):
            if self._stack and self._stack[-1][2] == "mpu_general.iterative_cover":
                counts["mpu_general.cover_rounds"] += 1

        def on_extraction(args, result, exc):
            if self._stack and self._stack[-1][2] == "mpu_general.mpu_sqrt_m":
                counts["mpu_general.extraction_rounds"] += 1

        # cli: the front door and the bindings it resolves
        wrap(cli, "parse_hypergraph", "core.parse_hypergraph")
        wrap(cli, "parse_intervals", "interval.parse_intervals")
        wrap(cli, "to_hypergraph", "interval.to_hypergraph")
        wrap(cli, "_reverify", "cli._reverify")
        wrap(cli, "solution_json", "core.solution_json")
        wrap(cli, "union_of", "core.union_of")
        wrap(cli, "covered_edges", "core.covered_edges")
        wrap(cli, "mpu_interval", "interval.mpu_interval")
        wrap(cli, "dksh_interval", "interval.dksh_interval")
        wrap(cli, "mpu_sqrt_m", "mpu_general.mpu_sqrt_m")
        wrap(cli, "mpu_3uniform", "mpu3.mpu_3uniform")
        wrap(cli, "dksh_3uniform", "dksh3.dksh_3uniform", on_dksh)

        # core: calls made inside core itself (top_by_degree, solution containers)
        wrap(core.Hypergraph, "__post_init__", "core.Hypergraph.__post_init__")
        wrap(core, "degrees", "core.degrees")
        wrap(core, "covered_edges", "core.covered_edges")
        wrap(core, "union_of", "core.union_of")

        # maxflow: methods only; _augment and add_edge stay unwrapped
        wrap(maxflow.FlowGraph, "max_flow", "maxflow.FlowGraph.max_flow")
        wrap(maxflow.FlowGraph, "source_side", "maxflow.FlowGraph.source_side")

        def count_phases(levels):
            def counted(*args, **kwargs):
                level = levels(*args, **kwargs)
                if level is not None:
                    counts["maxflow.phases"] += 1
                return level
            return counted

        self._count_only(maxflow.FlowGraph, "_levels", count_phases)

        # expansion
        wrap(expansion, "decide_expansion", "expansion.decide_expansion", on_decide)
        wrap(expansion, "max_flow_min_cut", "expansion.max_flow_min_cut", on_network)
        wrap(expansion, "union_of", "core.union_of")

        # mpu_general
        wrap(mpu_general, "min_expansion_flow", "expansion.min_expansion_flow", on_extraction)
        wrap(mpu_general, "edge_subhypergraph", "core.edge_subhypergraph", on_residual)
        wrap(mpu_general, "covered_edges", "core.covered_edges")

        # mpu3
        wrap(mpu3.MpU3Params, "for_guess", "mpu3.MpU3Params.for_guess", on_guess)
        wrap(mpu3, "iterative_cover", "mpu_general.iterative_cover", on_cover)
        wrap(mpu3, "mpu_sqrt_m", "mpu_general.mpu_sqrt_m")
        wrap(mpu3, "candidate_generator_3u", "mpu3.candidate_generator_3u")
        wrap(mpu3, "covered_edges", "core.covered_edges", on_scored)
        wrap(mpu3, "degrees", "core.degrees")
        wrap(mpu3, "top_by_degree", "core.top_by_degree")
        wrap(mpu3, "induced", "core.induced")
        wrap(mpu3, "greedy_three_layer", "dksh3.greedy_three_layer")
        wrap(mpu3, "k1_pair_weights", "dksh3.k1_pair_weights")
        wrap(mpu3, "k1_weighted_graph", "dksh3.k1_weighted_graph")

        def count_probes(probe):
            def counted(*args, **kwargs):
                for cand in probe(*args, **kwargs):
                    counts["mpu3.probe_candidates"] += 1
                    yield cand
            return counted

        self._count_only(mpu3, "probe_candidates", count_probes)

        # dksh3
        wrap(dksh3, "dksh_candidates", "dksh3.dksh_candidates")
        wrap(dksh3, "k1_case_split", "dksh3.k1_case_split")
        wrap(dksh3, "greedy_three_layer", "dksh3.greedy_three_layer")
        wrap(dksh3, "neighborhood_search", "dksh3.neighborhood_search")
        wrap(dksh3, "neighborhood_search_plugged", "dksh3.neighborhood_search_plugged")
        wrap(dksh3, "trivial_pick", "dksh3.trivial_pick")
        wrap(dksh3, "k1_pair_weights", "dksh3.k1_pair_weights")
        wrap(dksh3, "k1_weighted_graph", "dksh3.k1_weighted_graph")
        wrap(dksh3, "top_by_degree", "core.top_by_degree")
        wrap(dksh3, "induced", "core.induced")

        # interval
        wrap(interval, "fill_table", "interval.fill_table", on_fill)
        wrap(interval, "to_hypergraph", "interval.to_hypergraph")
        wrap(interval.DPTable, "reconstruct", "interval.DPTable.reconstruct")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-op means of every per-layer metric, plus the tracing overhead."""
        ops = max(self.ops, 1)
        ns = 1e-9
        out: dict[str, float] = {}
        for layer in LAYERS:
            total = sum(v for k, v in self.self_ns.items() if k.split(".", 1)[0] == layer)
            out[f"{layer}.self_s"] = total * ns / ops
        for metric, spans in DURATIONS.items():
            out[metric] = sum(self.durations[s] for s in spans) * ns / ops
        for metric, span in CALLS.items():
            out[metric] = self.counts[span] / ops
        c = self.counts
        for metric in (
            "maxflow.phases",
            "maxflow.arcs",
            "mpu_general.extraction_rounds",
            "mpu_general.cover_rounds",
            "mpu3.saturated_guesses",
            "mpu3.stalled_guesses",
            "mpu3.candidates_scored",
            "mpu3.probe_candidates",
            "interval.cells",
        ):
            out[metric] = c[metric] / ops
        out["expansion.improve_ratio"] = _ratio(
            c["expansion.improving_decides"], c["expansion.decide_expansion"]
        )
        out["expansion.network_s"] = self.self_ns["expansion.max_flow_min_cut"] * ns / ops
        out["mpu3.improving_guess_ratio"] = _ratio(
            c["mpu3.improving_guesses"], c["mpu3.MpU3Params.for_guess"]
        )
        for alg in DKSH_ALGORITHMS:
            out[f"dksh3.win_ratio.{alg}"] = _ratio(c[f"dksh3.wins.{alg}"], c["dksh3.ops"])
        out["trace.solve_s"] = traced_s / ops
        out["trace.speed_ratio"] = untraced_s / traced_s if traced_s > 0 else math.nan
        out["trace.spans"] = sum(self.counts[k] for k in self.durations) / ops
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans once, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
