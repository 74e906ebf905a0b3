"""Helpers for tests of what a solve builds and calls.

``spy`` records the calls made through one binding.

An instance is built either through its public constructor, which runs
``__post_init__``, or through ``core._trusted``, which skips it for fields
that are already canonical.  A build-count test that watched only one path
would stop guarding the other, so both are counted here; and a trusted build
must hold exactly the value the public constructor would have made.
"""

import dataclasses

from hyperdense import core, interval
from hyperdense.core import Hypergraph


def count_hypergraph_builds(monkeypatch):
    """Wrap both build paths for the test's duration; the list grows per build."""
    builds = []
    validate = Hypergraph.__post_init__
    trusted = core._trusted

    def counted_validate(self):
        builds.append(self)
        validate(self)

    def counted_trusted(cls, **fields):
        obj = trusted(cls, **fields)
        if cls is Hypergraph:
            builds.append(obj)
        return obj

    monkeypatch.setattr(Hypergraph, "__post_init__", counted_validate)
    # Every module that binds the helper; tests/test_surface.py pins these.
    for module in (core, interval):
        monkeypatch.setattr(module, "_trusted", counted_trusted)
    return builds


def spy(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test's duration; the list grows by each call's args."""
    calls = []
    original = getattr(owner, name)

    def spied(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spied)
    return calls


def _shape(value):
    """The value's type, recursively through tuples: tells 1 from True or 1.0."""
    if isinstance(value, tuple):
        return tuple, tuple(map(_shape, value))
    return type(value)


def assert_as_validated(obj):
    """``obj`` equals, field for field and type for type, what its public
    constructor builds from the same fields."""
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    validated = type(obj)(**fields)
    assert obj == validated
    assert hash(obj) == hash(validated)
    for name, value in fields.items():
        assert _shape(value) == _shape(getattr(validated, name)), name
