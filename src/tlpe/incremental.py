"""Incremental table maintenance.

Dynamic predicates declared with use_incremental_dynamic feed an
invalidation graph: the table space records which tables read each
dynamic predicate, and every table which tables it called.  A change to
a fact walks callers backwards from the tables that read it and marks
each affected complete table INVALID.

A marked table comes back in one place: a call that finds it INVALID
(``Engine._intern``).  A change whose affected tables are all monotone
(no tnot, no findall or cut reached inline, no conditional answer) waits
as a delta.  Asserts wait together: that call reopens the tables with
their answers, resumes each read they stored against the new fact alone,
and feeds new answers to the readers they kept (Saha & Ramakrishnan,
ICLP 2003).  A retract waits alone, and only when every affected table
is complete.  It rests on one invariant, W: every answer of a monotone
table has a derivation from the current facts and from live answers
with a smaller ``seq`` (SLG inserts an answer after what it consumed,
and a restored answer takes a new ``seq``).  So the answers that may
have lost their derivation are checked in ``seq`` order, as in the
Backward/Forward algorithm (Motik et al., AAAI 2015): those of the
tables that read the fact, then those of callers that a doomed answer
helped to derive.  An answer stays if a derivation rests on older
answers not doomed; a doomed answer that any derivation from answers not
doomed still gives is restored; the rest are deleted.  A table that
read the fact runs its clauses again to derive its answers; any other
answer finds its derivations by index probes, one per reader its table
kept, each a last call, and one per clause of one call of ground facts,
and a doomed answer finds its callers' answers through the readers kept
on it.  Each table that
read the fact, and each caller of one that lost an answer, resolves its
clauses again to make its readers anew.  Any other change, an abolish, a
consult or a failed evaluation drops the waiting deltas; the call then
resets each marked table, and ``recomputations`` counts these resets.
After ``incr_invalidate`` that call is the next query that reaches the table.
``incr_assert`` and ``incr_retract`` make it at once for each table
their change marked; ``incr_table_update`` makes it for every table
still invalid, so several invalidations followed by one update bring
each table back once.  A table that an earlier call has already brought
back is skipped, so the order of the calls does not matter.
"""

from operator import attrgetter
from typing import Iterable, List, Set, Tuple

from .engine import Engine
from .errors import EvalError
from .parser import parse_goal
from .sccs import tarjan_sccs
from .tables import SubgoalTable
from .terms import Struct, Term, canonicalize, functor_of, term_to_str


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
                               if t.status == SubgoalTable.INVALID])


def _as_change(change) -> Tuple[str, Term]:
    term = _as_term(change)
    if (type(term) is Struct and len(term.args) == 1
            and term.name in ("assert", "retract")):
        return term.name, term.args[0]
    return "assert", term


def incr_invalidate(engine: Engine, change) -> List[SubgoalTable]:
    """Apply a change but only mark the affected tables invalid; each
    comes back at its next call, not now.  Returns the marked tables in
    creation order.

    ``change`` is ``assert(Fact)`` or ``retract(Fact)``; a bare fact
    means assert.  A change that some affected table cannot follow is
    rejected before it touches the program, and a change that leaves
    the program as it was (a retract that matches nothing, a duplicate
    fact of a trie-indexed predicate) marks nothing.  Tables hold answer
    sets, so a change that leaves a variant of the clause in the program
    iff one was there (a second copy asserted, one of two retracted)
    marks only the readers that see copies: under findall or a cut, or
    of a predicate with a cut among its clauses.  The other readers keep
    their answer order, which may differ from a fresh evaluation's.  A
    change into monotone tables waits as a delta (module docstring)."""
    engine._guard_no_query("incremental update")
    op, fact = _as_change(change)
    pi = _source_info(engine, fact)
    program = engine.program
    readers = engine.space.dyn_readers.get(pi.key, {})
    affected = _affected(readers)
    _validate(affected)
    # kept: a variant of the clause is held before and after the change
    if op == "assert":
        kept = program.holds_variant(fact)      # a stored clause is one
        clause = program.add_clause(fact, at_load=False)
        changed = clause is not None
    else:
        changed = program.retract_clause(fact)  # a removed clause was one
        kept = changed and program.holds_variant(fact)
    if not changed:
        return []
    if kept:
        affected = _affected(t for t, ordered in readers.items() if ordered)
    # the tables to follow the change, but those marked to be reset
    deltas = engine.space.deltas
    pending = {t for _, _, ts in deltas for t in ts}
    tables = [t for t in affected if t.complete or t in pending]
    # asserts wait together; a retract waits alone, for complete tables
    follow = all(kind == "assert" for kind, _, _ in deltas) \
        if op == "assert" else not deltas and len(tables) == len(affected)
    if not follow or not all(t.reads is not None and not t.pred.prunes
                             for t in tables):
        engine.space.deltas = []
    elif tables:
        engine.space.deltas = deltas + [
            (op, clause if op == "assert" else canonicalize(fact)[0], tables)]
    marked = [t for t in tables if t.complete]
    for table in marked:
        table.status = SubgoalTable.INVALID
    return marked


def _recompute(engine: Engine,
               tables: List[SubgoalTable]) -> List[SubgoalTable]:
    """Call each table of ``tables`` that is still invalid."""
    with engine._evaluation():
        for table in tables:
            if table.status == SubgoalTable.INVALID:
                engine._intern(table.pred, table.subgoal)
                engine._run()
    return tables


def _affected(readers: Iterable[SubgoalTable]) -> List[SubgoalTable]:
    """Reverse reachability from the direct readers of changed facts, in
    creation order."""
    frontier = list(readers)
    out: Set[SubgoalTable] = set()
    while frontier:
        t = frontier.pop()
        if t not in out:
            out.add(t)
            frontier.extend(c for c in t.dep_in if c not in out)
    return sorted(out, key=attrgetter("dfn"))


def _validate(affected: List[SubgoalTable]) -> None:
    """Refuse a change that some affected table cannot follow.  Both
    checks read the tables in creation order, so the table an error
    names does not depend on where tables sit in memory: an unsupported
    one is the oldest.  Without a negative edge there is no negative
    loop to look for."""
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
    if not any(neg for t in affected for neg in t.dep_out.values()):
        return
    for scc in tarjan_sccs(affected, lambda t: t.dep_out):
        members = set(scc)
        for t in scc:
            for d, neg in t.dep_out.items():
                if neg and d in members:
                    raise EvalError(
                        "incremental_nonstratified",
                        f"update would recompute through a negative loop "
                        f"at {term_to_str(t.subgoal)}")
