"""Incremental table maintenance.

Dynamic predicates declared with use_incremental_dynamic feed an
invalidation graph: every table records which dynamic predicates it
consulted and which tables it called.  A change to a fact walks callers
backwards from the tables that read it and marks each affected complete
table INVALID.

A table is recomputed in one way only: a call that finds it INVALID
resets it and evaluates it afresh (``Engine._intern``).  After
``incr_invalidate`` that call is the next query that reaches the table.
``incr_assert`` and ``incr_retract`` make that call at once for each
table their change marked; ``incr_table_update`` makes it for every
table still invalid, so several invalidations followed by one update
recompute each table once.  A table that an earlier call has already
recomputed is skipped, so the order of the calls does not matter.
"""

from typing import Iterable, List, Set, Tuple

from .engine import Engine
from .errors import EvalError
from .parser import parse_goal
from .sccs import tarjan_sccs
from .tables import SubgoalTable
from .terms import Struct, Term, functor_of, term_to_str


def _as_term(fact) -> Term:
    return parse_goal(fact).term if isinstance(fact, str) else fact


def _source_info(engine: Engine, fact: Term):
    name, arity = functor_of(fact)
    pi = engine.program.info(name, arity)
    if pi is None or not pi.incremental_source:
        raise EvalError(
            "not_incremental",
            f"{name}/{arity} is not an incremental dynamic predicate")
    return pi


def incr_assert(engine: Engine, fact) -> List[SubgoalTable]:
    """Add a fact and recompute now every table it invalidates.
    Returns those tables."""
    return _recompute(engine, incr_invalidate(
        engine, Struct("assert", (_as_term(fact),))))


def incr_retract(engine: Engine, fact) -> List[SubgoalTable]:
    """Remove a fact and recompute now every table it invalidates."""
    return _recompute(engine, incr_invalidate(
        engine, Struct("retract", (_as_term(fact),))))


def incr_table_update(engine: Engine) -> List[SubgoalTable]:
    """Recompute every invalid table now; returns them."""
    engine._guard_no_query("incremental update")
    return _recompute(engine, [t for t in engine.space.tables
                               if t.status == SubgoalTable.INVALID
                               and not t.abolished])


def _as_change(change) -> Tuple[str, Term]:
    term = _as_term(change)
    if (type(term) is Struct and len(term.args) == 1
            and term.name in ("assert", "retract")):
        return term.name, term.args[0]
    return "assert", term


def incr_invalidate(engine: Engine, change) -> List[SubgoalTable]:
    """Apply a change but only mark the affected tables invalid; each
    is recomputed at its next call, not now.  Returns the marked tables
    in creation order.

    ``change`` is ``assert(Fact)`` or ``retract(Fact)``; a bare fact
    means assert.  A change that some affected table cannot follow is
    rejected before it touches the program."""
    engine._guard_no_query("incremental update")
    op, fact = _as_change(change)
    pi = _source_info(engine, fact)
    affected = _affected(engine, [pi.key])
    _validate(affected)
    if op == "assert":
        engine.program.add_clause(fact, at_load=False)
    else:
        engine.program.retract_clause(fact)
    marked = []
    for table in sorted(affected, key=lambda t: t.dfn):
        if table.status == SubgoalTable.COMPLETE:
            table.status = SubgoalTable.INVALID
            marked.append(table)
    return marked


def _recompute(engine: Engine,
               tables: List[SubgoalTable]) -> List[SubgoalTable]:
    """Call each table of ``tables`` that is still invalid."""
    with engine._evaluation():
        for table in tables:
            if table.status == SubgoalTable.INVALID and not table.abolished:
                engine._intern(table.pred, table.subgoal)
                engine._run()
    return tables


def _affected(engine: Engine, keys: Iterable[Tuple[str, int]]
              ) -> Set[SubgoalTable]:
    """Reverse reachability from the direct readers of changed facts."""
    frontier: List[SubgoalTable] = []
    seen: Set[int] = set()
    out: Set[SubgoalTable] = set()
    for key in keys:
        for t in engine.space.dyn_readers.get(key, ()):
            if not t.abolished and id(t) not in seen:
                seen.add(id(t))
                frontier.append(t)
    while frontier:
        t = frontier.pop()
        out.add(t)
        for caller in t.dep_in:
            if not caller.abolished and id(caller) not in seen:
                seen.add(id(caller))
                frontier.append(caller)
    return out


def _validate(affected: Set[SubgoalTable]) -> None:
    for t in affected:
        if t.pred.tabling == "subsumptive":
            raise EvalError(
                "incremental_unsupported",
                f"affected table {term_to_str(t.subgoal)} is subsumptive")
        if not t.pred.incremental_table:
            raise EvalError(
                "incremental_unsupported",
                f"affected table {term_to_str(t.subgoal)} is not "
                "declared incremental")
    in_set = set(id(t) for t in affected)
    sccs = tarjan_sccs(list(affected),
                       lambda t: [d for d in t.dep_out if id(d) in in_set])
    for scc in sccs:
        members = set(id(t) for t in scc)
        for t in scc:
            for d in t.neg_dep_out:
                if id(d) in members:
                    raise EvalError(
                        "incremental_nonstratified",
                        f"update would recompute through a negative loop "
                        f"at {term_to_str(t.subgoal)}")
