"""Answer subsumption: keep only the best answers per argument tuple.

A declared table keeps, for every combination of its plain arguments,
either the join of all derived values (a lattice join, or the built-in
min and max on the same path; sum and count add up one contribution per
distinct derived tuple) or a maximal antichain under a partial order.
Inserts then go through here instead of plain answer addition: a
candidate may be rejected, replace a stored answer, or be merged into
one.
"""

from typing import List, Optional, Tuple

from .errors import EvalError
from .terms import (Int, Struct, Term, Var, canonical_key, compare,
                    is_ground, match, term_to_str)


def apply(engine, table, ans_term: Term) -> str:
    """Route one candidate answer through the table's reduction policy.

    Returns ``added``, ``rejected`` or ``subsumption_replaced``."""
    spec = table.pred.subsumption
    pos = spec.position
    args = ans_term.args
    val = args[pos]
    if not is_ground(val):
        raise EvalError(
            "subsumption_nonground",
            f"{table.pred}: ordered argument {pos + 1} is not ground in "
            f"{term_to_str(ans_term)}")
    plain = args[:pos] + args[pos + 1:]
    key = canonical_key(Struct("$p", plain)) if plain else ()
    state = table.as_state
    if state is None:   # made on first use: most tables never need one
        state = table.as_state = {"map": {}, "seen": set()}

    if spec.kind == "po":
        return _apply_po(engine, table, state, key, args, pos, val, spec)
    if spec.kind in ("lattice", "min", "max"):
        return _apply_lattice(engine, table, state, key, args, pos, val, spec)
    return _apply_sum_count(engine, table, state, key, args, pos, val, spec)


def _stored_value(rec, pos: int) -> Term:
    return rec.term.args[pos]


def _insert(engine, table, args: Tuple[Term, ...], pos: int,
            val: Term):
    """Insert the answer with the ordered argument replaced by val.

    Returns the new record, or None when the value no longer matches a
    bound argument of the subgoal (the call fixed that position)."""
    new_args = args[:pos] + (val,) + args[pos + 1:]
    new_term = Struct(table.subgoal.name, new_args)
    env = match(table.subgoal, new_term)
    if env is None:
        return None
    bindings = tuple(env.get(i, Var(i)) for i in range(table.nvars))
    _, rec = engine.insert_reduced(table, bindings)
    return rec


def _live(rec) -> bool:
    return rec is not None and not rec.deleted


def _join(engine, spec, a: Term, b: Term) -> Term:
    """The join of two values: the join predicate's for a lattice, the
    better one in standard order for min and max."""
    if spec.kind == "lattice":
        return engine.eval_join(spec.join_pred, a, b)
    c = compare(a, b)
    return a if (c < 0 if spec.kind == "min" else c > 0) else b


def _apply_lattice(engine, table, state, key, args, pos, val, spec) -> str:
    amap = state["map"]
    old = amap.get(key)
    if not _live(old):
        if spec.identity is not None:
            engine.counters["join"] += 1
            val = _join(engine, spec, val, spec.identity)
        rec = _insert(engine, table, args, pos, val)
        if rec is None:
            return "rejected"
        amap[key] = rec
        return "added"
    stored = _stored_value(old, pos)
    engine.counters["join"] += 1
    joined = _join(engine, spec, val, stored)
    if compare(joined, stored) == 0:
        return "rejected"
    engine.space.delete_answer(table, old)
    rec = _insert(engine, table, args, pos, joined)
    amap[key] = rec if rec is not None else old
    return "subsumption_replaced"


def _apply_po(engine, table, state, key, args, pos, val, spec) -> str:
    chain: List = [r for r in state["map"].get(key, ()) if _live(r)]
    for rec in chain:
        if engine.eval_leq(spec.leq_pred, val, _stored_value(rec, pos)):
            state["map"][key] = chain
            return "rejected"
    survivors = []
    dropped = False
    for rec in chain:
        if engine.eval_leq(spec.leq_pred, _stored_value(rec, pos), val):
            engine.space.delete_answer(table, rec)
            dropped = True
        else:
            survivors.append(rec)
    new = _insert(engine, table, args, pos, val)
    if new is not None:
        survivors.append(new)
    state["map"][key] = survivors
    if new is None:
        return "rejected"
    return "subsumption_replaced" if dropped else "added"


def _int_value(val: Term, what: str) -> int:
    if type(val) is not Int:
        raise EvalError("subsumption_type",
                        f"{what} aggregation over a non-integer: "
                        f"{term_to_str(val)}")
    return val.value


def _apply_sum_count(engine, table, state, key, args, pos, val,
                     spec) -> str:
    """Aggregate one contribution per distinct derived tuple."""
    kind = spec.kind
    amap = state["map"]
    old = amap.get(key)
    contrib = canonical_key(Struct("$c", args))
    if contrib in state["seen"]:
        return "rejected"
    state["seen"].add(contrib)
    v = _int_value(val, kind)
    if not _live(old):
        start = v if kind == "sum" else 1
        rec = _insert(engine, table, args, pos, Int(start))
        if rec is None:
            return "rejected"
        amap[key] = rec
        return "added"
    engine.counters["join"] += 1
    cur = _int_value(_stored_value(old, pos), kind)
    new_total = cur + v if kind == "sum" else cur + 1
    engine.space.delete_answer(table, old)
    rec = _insert(engine, table, args, pos, Int(new_total))
    amap[key] = rec if rec is not None else old
    return "subsumption_replaced"
