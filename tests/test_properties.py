"""Solver-level properties: every solver's output passes ``hyperdense verify``,
the 3-uniform mpu solver keeps the general solver's floor, and the exact optima
are monotone in their parameter."""

import contextlib
import io
import json
import tempfile
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hyperdense import (
    Hypergraph,
    IntervalInstance,
    dksh_interval,
    mpu_3uniform,
    mpu_interval,
    mpu_sqrt_m,
    serialize_hypergraph,
    serialize_intervals,
    solution_json,
)
from hyperdense.cli import main
from hyperdense.oracle import brute_dksh, brute_mpu

PROPERTY = settings(deadline=None, derandomize=True, max_examples=60)
TRIPLES_7 = list(combinations(range(7), 3))


@st.composite
def hypergraphs(draw, max_n=7, max_m=7):
    """Edges of sizes 1..4 with repeats; at least one edge."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    edges = []
    for _ in range(m):
        size = draw(st.integers(1, min(4, n)))
        edges.append(tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=size, max_size=size)))))
    if draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))
    return Hypergraph(n, tuple(edges))


@st.composite
def three_uniform(draw):
    n = draw(st.integers(3, 7))
    pool = [t for t in TRIPLES_7 if t[2] < n]
    edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    return Hypergraph(n, tuple(edges))


@st.composite
def interval_instances(draw):
    n = draw(st.integers(1, 10))
    intervals = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.integers(0, n - 1))
        intervals.append((a, draw(st.integers(a, n - 1))))
    return IntervalInstance(n, tuple(intervals))


def verify(instance_text: str, problem: str, parameter: int, sol, intervals=False) -> dict:
    """Run ``hyperdense verify`` on a written instance and solution; returns its verdict."""
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp) / "instance"
        inst.write_text(instance_text)
        out = Path(tmp) / "solution.json"
        out.write_text(solution_json(problem, parameter, sol))
        argv = ["verify", *(["--intervals"] if intervals else []), str(inst), str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    verdict = json.loads(stdout.getvalue())
    assert code == 0, verdict
    return verdict


class TestOutputsVerify:
    @PROPERTY
    @given(hypergraphs(), st.data())
    def test_mpu_sqrt_m(self, h, data):
        p = data.draw(st.integers(1, h.m))
        verify(serialize_hypergraph(h), "mpu", p, mpu_sqrt_m(h, p))

    @PROPERTY
    @given(three_uniform(), st.data())
    def test_mpu_3uniform(self, h, data):
        p = data.draw(st.integers(1, h.m))
        verify(serialize_hypergraph(h), "mpu", p, mpu_3uniform(h, p))

    @PROPERTY
    @given(interval_instances(), st.data())
    def test_mpu_interval(self, inst, data):
        p = data.draw(st.integers(1, inst.m))
        verify(serialize_intervals(inst), "mpu", p, mpu_interval(inst, p), intervals=True)

    @PROPERTY
    @given(interval_instances(), st.data())
    def test_dksh_interval(self, inst, data):
        k = data.draw(st.integers(1, inst.n))
        verify(serialize_intervals(inst), "dksh", k, dksh_interval(inst, k), intervals=True)


class TestThreeUniformFloor:
    @PROPERTY
    @given(three_uniform(), st.data())
    def test_mpu_3uniform_never_worse_than_sqrt_m(self, h, data):
        p = data.draw(st.integers(1, h.m))
        assert mpu_3uniform(h, p).union_size <= mpu_sqrt_m(h, p).union_size


class TestExactOptimaMonotone:
    @PROPERTY
    @given(hypergraphs())
    def test_dksh_optimum_does_not_decrease_in_k(self, h):
        covered = [brute_dksh(h, k).covered_count for k in range(1, h.n + 1)]
        assert covered == sorted(covered)

    @PROPERTY
    @given(hypergraphs())
    def test_mpu_optimum_does_not_decrease_in_p(self, h):
        union = [brute_mpu(h, p).union_size for p in range(1, h.m + 1)]
        assert union == sorted(union)

    @PROPERTY
    @given(interval_instances())
    def test_interval_mpu_optimum_does_not_decrease_in_p(self, inst):
        union = [mpu_interval(inst, p).union_size for p in range(1, inst.m + 1)]
        assert union == sorted(union)
