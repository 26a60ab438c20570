"""The traced benchmark run (``bench/spans.py``) wraps entry points of
``tlpe`` by name, where their callers look them up.  A refactor that
drops or moves one of those names must fail here, not only in the
benchmark's own smoke test."""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                     "spans.py")


def test_every_wrapped_entry_point_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in spans._POINTS
               if attr not in owner.__dict__]
    assert spans._POINTS and missing == []
