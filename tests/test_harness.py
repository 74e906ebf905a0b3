"""The test harness itself: the per-test time limit and the mutant corpus."""

import ast
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TimeLimitExceeded, time_limit
from run_mutants import ROOT, load_mutants

needs_timer = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="no signal.setitimer on this platform"
)


@needs_timer
def test_time_limit_stops_a_looping_body():
    start = time.monotonic()
    with pytest.raises(TimeLimitExceeded, match="time limit of 0.2 s exceeded"):
        with time_limit(0.2):
            while True:
                pass
    assert time.monotonic() - start < 1


@needs_timer
def test_time_limit_passes_through_except_exception():
    # cli.main turns an OSError into exit 2; the limit's exception is no
    # Exception at all, so no handler in the code under test stops it.
    with pytest.raises(TimeLimitExceeded):
        with time_limit(0.2):
            while True:
                try:
                    time.sleep(0.01)
                except Exception:
                    pass


@needs_timer
def test_time_limit_ends_a_hanging_hypothesis_test_at_once():
    # Hypothesis replays and shrinks an example that raised an Exception or
    # pytest.fail's exception; those replays would run with no limit armed.
    @settings(database=None, derandomize=True)
    @given(st.integers())
    def hangs(x):
        while True:
            pass

    start = time.monotonic()
    with pytest.raises(TimeLimitExceeded):
        with time_limit(0.2):
            hangs()
    assert time.monotonic() - start < 1


@needs_timer
def test_time_limit_restores_the_outer_limit():
    # The per-test limit of conftest.py is armed around this test.
    handler = signal.getsignal(signal.SIGALRM)
    outer = signal.getitimer(signal.ITIMER_REAL)[0]
    assert outer > 0
    with time_limit(5):
        assert signal.getsignal(signal.SIGALRM) is not handler
    assert signal.getsignal(signal.SIGALRM) is handler
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= outer


def test_every_mutant_applies_once_and_names_its_tests():
    mutants = load_mutants()
    assert len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert set(m) == {"id", "file", "old", "new", "tests"}, m["id"]
        assert m["old"] != m["new"], m["id"]
        assert (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"]) == 1, m["id"]
        assert m["tests"], m["id"]
        for test_id in m["tests"]:
            path, *names = test_id.split("::")
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            scope = tree.body
            for name in names:
                found = [
                    node
                    for node in scope
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
                ]
                assert len(found) == 1, test_id
                scope = found[0].body
