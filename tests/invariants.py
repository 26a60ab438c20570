"""Table-space invariants, checked once an evaluation has ended.

``faults(eng)`` lists each way an engine's table space breaks them, and
``CheckedEngine`` raises ``TableSpaceFault`` after a query, answered or
raised, that leaves any.  The seeded checks of ``test_differential.py``
and ``test_answer_subsumption.py`` run their engines checked.  A check
costs time in the number of tables and answers, so the rest of the suite
does not run it after every query.

Between evaluations:

* the run stack and the completion stack are empty, every table is
  COMPLETE or INVALID, and a COMPLETE table keeps no negative waiter;
* a COMPLETE table keeps consumers only if it is a monotone incremental
  table, and then only readers owned by live incremental tables that
  call it, each with its cursor at the end of the answer list: what an
  assert feeds them is new to them;
* a table's ``index`` maps the bindings of each live answer to it, its
  answer trie, once built, holds exactly those, and ``uncond_answers``
  counts the live answers without delay lists;
* ``dep_out`` and ``dep_in`` mirror each other, and no edge leads to an
  abolished table;
* each literal of a live delay list is watched from its target, which
  lists the delaying table among its ``cond_dependents``; a positive one
  rests on a conditional answer, as simplification strikes a literal on
  an unconditional one;
* no delay literal rests on an abolished table, and no live watcher
  entry comes from one;
* ``variants`` maps the subgoal of each live table to it and holds
  nothing else, no abolished table and no query's own; each subgoal
  trie built holds exactly its predicate's live tables, each at the
  leaf of its subgoal's symbols.
"""

from tlpe.engine import Engine
from tlpe.tables import SubgoalTable
from tlpe.terms import symbols, term_to_str


class TableSpaceFault(AssertionError):
    """A table space that breaks an invariant after an evaluation."""


def faults(eng):
    """Each invariant of the module docstring that ``eng`` breaks, as a
    line of text."""
    out = []
    if eng.stack or eng.comp:
        out.append("the run stack or the completion stack is not empty")
    tables = eng.space.tables
    variants = eng.space.variants
    watched = {(id(dl), id(lit)) for t in tables for dl, lit in t.neg_watchers}
    for t in tables:
        name = term_to_str(t.subgoal)
        live = [a for a in t.answers if not a.deleted]
        watched.update((id(dl), id(lit)) for a in live
                       for dl, lit in a.pos_watchers)
        if t.status == SubgoalTable.ABOLISHED:
            out.append(f"{name}: abolished, still in the table space")
        if t.status == SubgoalTable.INCOMPLETE:
            out.append(f"{name}: incomplete after the evaluation")
        elif t.complete and t.neg_waiters:
            out.append(f"{name}: complete, keeps negative waiters")
        elif t.complete and t.consumers and not (
                t.pred.incremental_table and t.monotone()):
            out.append(f"{name}: complete, keeps readers, not monotone")
        for c in t.consumers if t.complete else ():
            owner = c.cont.owner
            if not (isinstance(owner, SubgoalTable)
                    and owner.pred.incremental_table
                    and variants.get(owner.subgoal) is owner):
                out.append(f"{name}: keeps a reader of no live incremental "
                           "table")
            elif t not in owner.dep_out:
                out.append(f"{name}: keeps a reader of "
                           f"{term_to_str(owner.subgoal)}, which no longer "
                           "calls it")
            elif c.cursor != len(t.answers):
                out.append(f"{name}: keeps a reader of "
                           f"{term_to_str(owner.subgoal)} short of its end")
        if t.index != {a.bindings: a for a in live}:
            out.append(f"{name}: index is not the live answers")
        trie = t._answer_trie
        if trie is not None and (trie.leaf_count != len(live) or any(
                a.leaf is None or a.leaf.leaf is not a for a in live)):
            out.append(f"{name}: answer trie is not the live answers")
        if t.uncond_answers != sum(1 for a in live if not a.delay_lists):
            out.append(f"{name}: uncond_answers {t.uncond_answers} is not "
                       "the count of unconditional answers")
        for d in t.dep_out:
            if t not in d.dep_in or d.status == SubgoalTable.ABOLISHED:
                out.append(f"{name}: call edge to {term_to_str(d.subgoal)}")
        for c in t.dep_in:
            if t not in c.dep_out or c.status == SubgoalTable.ABOLISHED:
                out.append(f"{name}: call edge from {term_to_str(c.subgoal)}")
        entries = t.neg_watchers + [w for a in live for w in a.pos_watchers]
        for dl, _ in entries:
            if not dl.dead and dl.owner.table.status == SubgoalTable.ABOLISHED:
                out.append(f"{name}: watched from abolished "
                           f"{term_to_str(dl.owner.table.subgoal)}")
    for t in tables:
        name = term_to_str(t.subgoal)
        for a in t.answers:
            for dl in () if a.deleted else a.delay_lists:
                for lit in dl.lits:
                    target = lit.table
                    what = f"{name}: delay literal {lit!r}"
                    if target.status == SubgoalTable.ABOLISHED:
                        out.append(f"{what} rests on an abolished table")
                    if (id(dl), id(lit)) not in watched:
                        out.append(f"{what} is not watched")
                    if t not in target.cond_dependents:
                        out.append(f"{what}: its table is not a dependent")
                    if not lit.neg and not lit.ans.conditional:
                        out.append(f"{what} rests on a settled answer")
    if variants != {t.subgoal: t for t in tables}:
        out.append("variants is not the live tables by their subgoals")
    for t in variants.values():
        if t.status == SubgoalTable.ABOLISHED or t.pred is eng._query_pi:
            out.append(f"{term_to_str(t.subgoal)}: in variants, abolished "
                       "or a query's own")
    for key, trie in eng.space.tries.items():
        own = [t for t in tables if t.pred.key == key]
        if len(list(trie.leaves())) != len(own) or any(
                getattr(trie.lookup(symbols(t.subgoal)), "leaf", None)
                is not t for t in own):
            out.append(f"{key[0]}/{key[1]}: subgoal trie is not its tables")
    return out


class CheckedEngine(Engine):
    """An engine that checks its table space after each query."""

    def query(self, goal):
        try:
            return super().query(goal)
        finally:
            found = faults(self)
            if found:
                raise TableSpaceFault("\n".join(found))
