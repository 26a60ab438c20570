"""Answer subsumption: keep only the best answers per argument tuple.

A declared table keeps, for every combination of its plain arguments,
either the join of all derived values (a lattice join, or the built-in
min and max on the same path; sum and count add up one contribution per
distinct derived tuple) or a maximal antichain under a partial order.
Inserts then go through here instead of plain answer addition: a
candidate may be rejected, replace a stored answer, or be merged into
one.

A call is tabled by its plain arguments only (``tables.call_pattern``),
so the aggregated argument is one subgoal variable, whose slot in the
binding tuple (``SubgoalTable.as_slot``) is all a reduction reads and
replaces.  A call that binds the aggregated argument reads that table
like a subsumed call: it holds of the values the table keeps, not of the
values derived on the way.  ``tnot`` of it is resolved at the table's
completion, never delayed, and succeeds iff the value is not kept.
"""

from typing import Tuple

from .errors import EvalError
from .terms import Int, Term, compare, substitute, term_to_str, variant_tuple


def apply(engine, table, bindings: Tuple[Term, ...]) -> str:
    """Route one candidate answer, the bindings of the table's subgoal
    variables, through the table's reduction policy.

    Returns ``added``, ``rejected`` or ``subsumption_replaced``."""
    spec = table.pred.subsumption
    slot = table.as_slot
    val = bindings[slot]
    if not val.ground:
        raise EvalError(
            "subsumption_nonground",
            f"{table.pred}: ordered argument {spec.position + 1} is not "
            f"ground in {term_to_str(substitute(table.subgoal, bindings))}")
    key, _ = variant_tuple(bindings[:slot] + bindings[slot + 1:])
    if spec.kind == "po":
        return _apply_po(engine, table, key, bindings, val, spec)
    return _apply_join(engine, table, key, bindings, val, spec)


def _insert(engine, table, bindings: Tuple[Term, ...], val: Term):
    """Insert the answer ``bindings`` with the aggregated value ``val``;
    returns its record."""
    slot = table.as_slot
    _, rec = engine.insert_reduced(
        table, bindings[:slot] + (val,) + bindings[slot + 1:])
    return rec


def _join(engine, spec, a: Term, b: Term) -> Term:
    """The join of two values: the join predicate's for a lattice, the
    better one in standard order for min and max, the total for sum and
    count."""
    kind = spec.kind
    if kind == "lattice":
        return engine.eval_join(spec.join_pred, a, b)
    if kind in ("sum", "count"):
        return Int(a.value + b.value)
    c = compare(a, b)
    return a if (c < 0 if kind == "min" else c > 0) else b


def _apply_join(engine, table, key, bindings, val, spec) -> str:
    kind = spec.kind
    if kind in ("sum", "count"):
        # one contribution per distinct derived tuple, of 1 for count
        contrib, _ = variant_tuple(bindings)
        if contrib in table.as_seen:
            return "rejected"
        table.as_seen.add(contrib)
        if type(val) is not Int:
            raise EvalError("subsumption_type",
                            f"{kind} aggregation over a non-integer: "
                            f"{term_to_str(val)}")
        if kind == "count":
            val = Int(1)
    amap = table.as_map
    old = amap.get(key)
    if old is None:
        if spec.identity is not None:
            engine.counters["join"] += 1
            val = _join(engine, spec, val, spec.identity)
        amap[key] = _insert(engine, table, bindings, val)
        return "added"
    stored = old.bindings[table.as_slot]
    engine.counters["join"] += 1
    joined = _join(engine, spec, val, stored)
    if compare(joined, stored) == 0:
        return "rejected"
    engine.space.delete_answer(table, old)
    amap[key] = _insert(engine, table, bindings, joined)
    return "subsumption_replaced"


def _apply_po(engine, table, key, bindings, val, spec) -> str:
    slot = table.as_slot
    chain = table.as_map.get(key, ())
    if any(engine.eval_leq(spec.leq_pred, val, rec.bindings[slot])
           for rec in chain):
        return "rejected"
    survivors = []
    for rec in chain:
        if engine.eval_leq(spec.leq_pred, rec.bindings[slot], val):
            engine.space.delete_answer(table, rec)
        else:
            survivors.append(rec)
    dropped = len(survivors) < len(chain)
    survivors.append(_insert(engine, table, bindings, val))
    table.as_map[key] = survivors
    return "subsumption_replaced" if dropped else "added"
