"""Per-layer spans for the traced benchmark run.

While a ``Tracer`` is installed, the public entry points of each
``tlpe`` module are replaced, where their callers look them up, by
wrappers that record one span per call (layer, start, end, enclosing
span) in memory and count what the call returned.  Leaving the
``with`` block restores every original.  ``tlpe.terms`` is deliberately
not wrapped: it has millions of calls per run, and its cost shows in
the self time of the layers that call it.
"""

from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

import tlpe.engine
import tlpe.incremental
import tlpe.negation
import tlpe.sccs
import tlpe.subsumption
from tlpe.engine import Engine
from tlpe.program import Program
from tlpe.tables import TableSpace


def _count_vertices(counts, args, result):
    counts["vertices"] += len(args[0])     # every caller passes a sized set


# Every name a caller looks a layer's entry point up by:
# (owner, attribute, layer, counter of the call's arguments and result,
# or None).
_POINTS = [
    (tlpe.engine, "parse_program", "parser", None),
    (tlpe.engine, "parse_goal", "parser", None),
    (tlpe.incremental, "parse_goal", "parser", None),
    (tlpe.negation, "parse_goal", "parser", None),
    (Program, "add_clause", "program.load", None),
    (Program, "apply_directive", "program.load", None),
    (Program, "finalize", "program.load", None),
    (Program, "lookup_clauses", "program.lookup",
     lambda c, args, result: c.update(clauses=len(result))),
    (TableSpace, "check_insert_subgoal", "tables.subgoal",
     lambda c, args, result: c.update(new_subgoals=int(result[1]))),
    (TableSpace, "add_answer", "tables.answer",
     lambda c, args, result: c.update(answers_added=result[0] == "added")),
    (TableSpace, "on_completed", "tables.complete", None),
    (TableSpace, "discard_from", "tables.discard", None),
    (tlpe.engine, "tarjan_sccs", "sccs.tarjan", _count_vertices),
    (tlpe.incremental, "tarjan_sccs", "sccs.tarjan", _count_vertices),
    (tlpe.negation, "tarjan_sccs", "sccs.tarjan", _count_vertices),
    (tlpe.sccs, "tarjan_sccs", "sccs.tarjan", _count_vertices),
    (tlpe.subsumption, "apply", "subsumption.apply",
     lambda c, args, result: c.update(
         replaced=result == "subsumption_replaced")),
    (tlpe.incremental, "incr_invalidate", "incremental.invalidate",
     lambda c, args, result: c.update(tables_invalidated=len(result))),
    (Engine, "reset_for_recompute", "incremental.reset", None),
    (Engine, "query", "engine.query", None),
]

LAYERS = sorted({layer for _, _, layer, _ in _POINTS})


class Tracer:
    """Context manager that installs the layer wrappers and keeps spans."""

    def __init__(self):
        self.layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for owner, attr, layer, count in _POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(LAYERS.index(layer), original, count))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, layer_id: int, fn: Callable,
              count: Optional[Callable]) -> Callable:
        layer, start, end, parent = self.layer, self.start, self.end, \
            self.parent
        open_spans, counts = self._open, self.counts

        def traced(*args, **kwargs):
            i = len(start)
            layer.append(layer_id)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                open_spans.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, inclusive seconds, and self seconds (a
        span's time minus the time of the spans directly inside it)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        inner = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                inner[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in LAYERS}
        for i in range(n):
            row = out[LAYERS[self.layer[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - inner[i]
        return out
