"""Table space: subgoal tables, answer tables, conditional answers.

A call finds its variant table by one probe of a dict keyed by the
canonical subgoal.  A predicate's subgoal trie, for subsumed calls,
is built from its live tables the first time such a call looks for
one, then kept in step.  Answers use substitution factoring: an
answer record stores only the bindings of the subgoal's variables, and
an answer table is a hash index from the canonical binding tuple to the
live record, so checking and inserting a derived answer is one probe.
The whole answer term is built on demand, for the few readers that need
it (residuals, printing).  An answer
trie exists only for goal-directed walks: it is built the first time a
subsumed call reads a complete table, then kept in step.

A conditional answer carries one or more delay lists.  The answer is
true once any delay list becomes empty, and disappears once every delay
list has been refuted.  Delay literals are simplified through watcher
lists: each table knows the delay lists watching it negatively, each
answer knows the delay lists watching it positively.  Simplification is
pumped to a fixpoint through an explicit worklist, so arbitrarily long
chains of conditional answers collapse without recursion.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .errors import EvalError
from .program import PredicateInfo, Program
from .terms import (
    Struct, Term, Var, canonicalize, functor_of, substitute, symbols,
    term_to_str, variant_tuple,
)
from .tries import Trie


class DelayLit:
    """One delay literal: ``tnot table`` or ``table:answer``."""

    __slots__ = ("neg", "table", "ans")

    def __init__(self, neg: bool, table: "SubgoalTable",
                 ans: Optional["AnswerRecord"]):
        self.neg = neg
        self.table = table
        self.ans = ans

    def ident(self):
        return (self.neg, id(self.table), id(self.ans))

    def __repr__(self):
        s = term_to_str(self.table.subgoal)
        if self.neg:
            return f"tnot {s}"
        return f"{s}:{term_to_str(self.ans.term)}"


class DelayList:
    __slots__ = ("owner", "lits", "dead")

    def __init__(self, owner: "AnswerRecord", lits: List[DelayLit]):
        self.owner = owner
        self.lits = lits
        self.dead = False


class AnswerRecord:
    """One (possibly conditional) answer of a table.

    ``bindings`` are the terms the subgoal's variables take, in one
    canonical namespace of ``nvars`` variables numbered in order of first
    occurrence.  ``term``, the subgoal instantiated by them, is built on
    each read; it is canonical too, with the same numbering."""

    __slots__ = ("bindings", "nvars", "delay_lists", "deleted",
                 "leaf", "pos_watchers", "seq", "table")

    def __init__(self, table: "SubgoalTable", bindings: Tuple[Term, ...],
                 nvars: int, seq: int):
        self.table = table
        self.bindings = bindings
        self.nvars = nvars
        # shared empty tuples, each a list from its first entry on
        self.delay_lists: List[DelayList] = ()
        self.deleted = False
        self.leaf = None
        self.pos_watchers: List[Tuple[DelayList, DelayLit]] = ()
        self.seq = seq

    @property
    def term(self) -> Term:
        return substitute(self.table.subgoal, self.bindings)

    @property
    def unconditional(self) -> bool:
        return not self.deleted and not self.delay_lists

    @property
    def conditional(self) -> bool:
        return bool(self.delay_lists) and not self.deleted


class SubgoalTable:
    """A tabled subgoal with its answers and bookkeeping.

    ``index`` maps each live answer's canonical bindings to its record,
    for exact lookups; ``answer_trie``, for subsumed reads, is built on
    first use, so a table that only variant calls read has none.

    ``dep_out``/``dep_in`` are the one call graph between tables:
    scheduling reads it restricted to incomplete tables, incremental
    invalidation and error recovery walk it backwards.  ``dep_out`` maps
    each callee to whether some call of it is under ``tnot``.  The
    engine keeps its scheduling state here too (completion-stack
    position, suspended readers), next to the conditional-answer
    dependency state.

    ``reads`` holds each read of incremental dynamic code an incremental
    table's evaluation made, its goal and the continuation after it, as
    long as an assert may reopen the table: a completion not ``monotone``
    or a consult sets it to None.  Until then a complete table keeps in
    ``consumers`` the readers owned by such tables.

    An ABOLISHED table is out of the table space: ``sweep`` reclaims it
    as it is marked.  The status remains for the references that outlive
    it, stale ``cond_dependents`` entries and a query's own table.
    """

    INCOMPLETE = "incomplete"
    COMPLETE = "complete"
    INVALID = "invalid"
    ABOLISHED = "abolished"

    __slots__ = ("pred", "subgoal", "nvars", "dfn", "status", "answers",
                 "index", "_answer_trie", "uncond_answers", "neg_watchers",
                 "cond_dependents", "consumers", "neg_waiters", "stack_pos",
                 "as_slot", "as_map", "as_seen", "dep_in",
                 "dep_out", "reads", "__weakref__")

    def __init__(self, pred: PredicateInfo, subgoal: Term, nvars: int,
                 dfn: int):
        self.pred = pred
        self.subgoal = subgoal          # canonical form
        self.nvars = nvars
        self.dfn = dfn
        self.status = self.INCOMPLETE
        self.answers: List[AnswerRecord] = []   # append-only, tombstones
        self.index: Dict[Tuple[Term, ...], AnswerRecord] = {}
        self._answer_trie: Optional[Trie] = None
        self.uncond_answers = 0
        self.neg_watchers: List[Tuple[DelayList, DelayLit]] = []
        self.cond_dependents: Set["SubgoalTable"] = set()
        # engine scheduling state
        self.consumers: list = []
        self.neg_waiters: list = []
        self.stack_pos = 0              # completion-stack position
        # answer subsumption: the binding slot of the aggregated argument,
        # the kept record(s) per variant key of the other bindings, and
        # the contributions already counted (sum and count)
        spec = pred.subsumption
        self.as_slot = subgoal.args[spec.position].id if spec else None
        self.as_map: Optional[dict] = {} if spec else None
        self.as_seen: Optional[set] = set() if spec else None
        # call graph: scheduling, invalidation and recovery; dicts used
        # as ordered sets, so the scheduler sees the edges in call order
        # and its choices do not depend on where tables sit in memory
        self.dep_in: Dict["SubgoalTable", None] = {}
        self.dep_out: Dict["SubgoalTable", bool] = {}
        self.reads: Optional[list] = _reads(pred)

    @property
    def complete(self) -> bool:
        return self.status == self.COMPLETE

    @property
    def answer_trie(self) -> Trie:
        """The live answers in a trie of their bindings, built on first use."""
        if self._answer_trie is None:
            self._answer_trie = Trie()
            for ans in self.answers:
                if not ans.deleted:
                    _trie_insert(self._answer_trie, ans)
        return self._answer_trie

    @property
    def has_unconditional(self) -> bool:
        return self.uncond_answers > 0

    @property
    def has_answers(self) -> bool:
        return bool(self.index)

    def subgoal_is_ground(self) -> bool:
        return self.nvars == 0

    def monotone(self) -> bool:
        """Whether the answers can only grow as facts are added."""
        return self.reads is not None \
            and len(self.index) == self.uncond_answers \
            and not any(self.dep_out.values())

    def __repr__(self):
        return f"<table {term_to_str(self.subgoal)} {self.status}>"


def _reads(pi: PredicateInfo) -> Optional[list]:
    """A new table's ``reads``: a list where a change may be followed
    into it (an incremental table has no answer subsumption)."""
    return [] if pi.incremental_table and pi.tabling == "variant" \
        and not pi.prunes else None


def _trie_insert(trie: Trie, ans: AnswerRecord) -> None:
    node = trie.check_insert(symbols(Struct("$a", ans.bindings))[1:])
    trie.set_leaf(node, ans)
    ans.leaf = node


_FRESH = Var(-1)     # no goal variable is negative


def call_pattern(pi: PredicateInfo, goal: Term) -> Term:
    """The subgoal a call of ``goal`` is tabled as: under answer
    subsumption, ``goal`` with its aggregated argument a fresh variable,
    so that every call reads the table of its plain arguments."""
    spec = pi.subsumption
    if spec is None:
        return goal
    args, pos = goal.args, spec.position
    return Struct(goal.name, args[:pos] + (_FRESH,) + args[pos + 1:])


def _retire_answers(table: SubgoalTable) -> None:
    """Mark every answer deleted and every delay list of it dead."""
    for ans in table.answers:
        for dl in ans.delay_lists:
            dl.dead = True
        ans.delay_lists = ()
        ans.deleted = True


class TableSpace:
    """All tables of a session, with the simplification machinery."""

    def __init__(self, program: Program):
        self.program = program
        # predicate -> its tables in a trie, once a subsumed call looked
        self.tries: Dict[Tuple[str, int], Trie] = {}
        # canonical subgoal -> its table, for every live table, in
        # creation order
        self.variants: Dict[Term, SubgoalTable] = {}
        # dynamic predicate -> {table that read it: whether a read saw
        # the number or order of its clauses (under findall or a cut)}
        self.dyn_readers: Dict[Tuple[str, int],
                               Dict[SubgoalTable, bool]] = {}
        self._dfn = 0
        self._ans_seq = 0
        self._pending: List[Tuple[str, object]] = []
        # changes waiting for ``Engine._run_deltas``, each ("assert",
        # clause, tables in creation order), or one ("retract", fact,
        # tables); an abolish drops them: the tables then reset
        self.deltas: List[tuple] = []
        self.n_simplifications = 0
        self.trace_hook: Optional[Callable[[str, SubgoalTable], None]] = None

    @property
    def tables(self) -> List[SubgoalTable]:
        """The live tables, in creation order."""
        return list(self.variants.values())

    # ------------------------------------------------------------------
    # subgoal interning

    def check_insert_subgoal(self, pi: PredicateInfo, goal: Term,
                             variant: bool = False):
        """Intern a call.  Returns (table, is_new).

        Variant tabling reuses a table per canonical call, found by one
        probe of ``variants``.  Subsumptive tabling returns the first
        live table in trie order whose subgoal subsumes the call, which
        the call reads in place (the answers that unify with it, in the
        table's order); only a call that no table subsumes gets a table
        of its own.

        ``variant`` asks for a variant table under subsumptive tabling
        too, as a ground negative call (``tnot``) does: an unconditional
        answer of its table fails the call at once, and a ``tnot table``
        delay literal stands for the table's subgoal, so the table must
        be that ground atom's own.  Under answer subsumption a call,
        ``tnot`` too, gets the table of its plain arguments
        (``call_pattern``).
        """
        if pi.tabling == "subsumptive" and not variant:
            table = self.lookup_subsuming(goal)
            if table is not None:
                return table, False
        cgoal, nvars = canonicalize(call_pattern(pi, goal))
        table = self.variants.get(cgoal)
        if table is not None:
            # an invalidated table is new to its caller, who recomputes it
            return table, table.status == SubgoalTable.INVALID
        return self._new_table(pi, cgoal, nvars), True

    def _new_table(self, pi, cgoal, nvars) -> SubgoalTable:
        self._dfn += 1
        table = SubgoalTable(pi, cgoal, nvars, self._dfn)
        self.variants[cgoal] = table
        trie = self.tries.get(pi.key)
        if trie is not None:
            trie.set_leaf(trie.check_insert(symbols(cgoal)), table)
        return table

    def lookup_variant(self, goal: Term) -> Optional[SubgoalTable]:
        """The live table a variant call of ``goal`` reads, if any."""
        pi = self.program.preds.get(functor_of(goal))
        if pi is None:
            return None
        return self.variants.get(canonicalize(call_pattern(pi, goal))[0])

    def lookup_subsuming(self, goal: Term) -> Optional[SubgoalTable]:
        """The first live table in trie order whose subgoal subsumes
        ``goal``: the table a subsumptive call of ``goal`` reads."""
        key = functor_of(goal)
        trie = self.tries.get(key)
        if trie is None:
            trie = self.tries[key] = Trie()
            for t in self.variants.values():
                if t.pred.key == key:
                    trie.set_leaf(trie.check_insert(symbols(t.subgoal)), t)
        for t in trie.matching_leaves(goal, mode="subsume"):
            if t.status != SubgoalTable.INVALID:
                return t
        return None

    # ------------------------------------------------------------------
    # answers

    def add_answer(self, table: SubgoalTable, bindings: Tuple[Term, ...],
                   delays: Iterable[DelayLit] = ()):
        """Insert an answer, after one probe of the table's index.
        Returns (status, record) where status is 'added', 'duplicate' or
        'merged' (new delay list on an existing conditional answer)."""
        key, nvars = variant_tuple(bindings)
        existing = table.index.get(key)

        if existing is not None and not existing.deleted:
            if not existing.delay_lists:
                return "duplicate", existing
            lits = list(delays)
            if not lits:
                self._promote(existing)
                self._pump()
                return "duplicate", existing
            ident = frozenset(l.ident() for l in lits)
            for dl in existing.delay_lists:
                if frozenset(l.ident() for l in dl.lits) == ident:
                    return "duplicate", existing
            self._attach_dl(table, existing, lits)
            return "merged", existing

        lits = list(delays)
        self._ans_seq += 1
        ans = AnswerRecord(table, key, nvars, self._ans_seq)
        table.index[key] = ans
        if table._answer_trie is not None:
            _trie_insert(table._answer_trie, ans)
        table.answers.append(ans)
        if lits:
            self._attach_dl(table, ans, lits)
        else:
            # a new record has no positive watchers to strike
            table.uncond_answers += 1
            if table.subgoal_is_ground():
                self._kill_neg_watchers(table)
                self._pump()
        return "added", ans

    def _attach_dl(self, table: SubgoalTable, ans: AnswerRecord,
                   lits: List[DelayLit]) -> None:
        dl = DelayList(ans, lits)
        if not ans.delay_lists:
            ans.delay_lists = []
        ans.delay_lists.append(dl)
        for lit in lits:
            watched = lit.table
            if lit.neg:
                watched.neg_watchers.append((dl, lit))
            else:
                if not lit.ans.pos_watchers:
                    lit.ans.pos_watchers = []
                lit.ans.pos_watchers.append((dl, lit))
            watched.cond_dependents.add(table)
        # A literal may already be decided by the time it is attached: a
        # continuation resumed with a delay can produce its answer long
        # after the watched table settled.  Evaluate against current state.
        for lit in list(lits):
            if dl.dead:
                return
            if lit.neg:
                if lit.table.has_unconditional and lit.table.subgoal_is_ground():
                    self._kill_dl(dl)
                elif lit.table.complete and not lit.table.has_answers:
                    self._strike_lit(dl, lit)
            else:
                if lit.ans.deleted:
                    self._kill_dl(dl)
                elif lit.ans.unconditional:
                    self._strike_lit(dl, lit)
        self._pump()

    def reset_table(self, table: SubgoalTable) -> None:
        """Clear a table so its subgoal can be recomputed from scratch
        (incremental invalidation).  Old delay lists are neutralised so
        stale watcher entries elsewhere become no-ops."""
        _retire_answers(table)
        table.status = SubgoalTable.INCOMPLETE
        table.answers = []
        table.index = {}
        table._answer_trie = None
        table.uncond_answers = 0
        table.neg_watchers = []
        table.consumers = []
        table.neg_waiters = []
        table.cond_dependents = set()
        self.drop_reads(table)
        if table.as_map is not None:
            table.as_map, table.as_seen = {}, set()
        table.pred.recomputations += 1

    def drop_reads(self, table: SubgoalTable) -> None:
        """Take out what a table's evaluation made to read with: its calls
        (``unlink``), its reads of dynamic code and ``reads``.  Its
        answers stay, and so do the readers on it."""
        self.unlink(table)
        for readers in self.dyn_readers.values():
            readers.pop(table, None)
        table.reads = _reads(table.pred)

    def unlink(self, table: SubgoalTable) -> None:
        """Take a table's calls and delay lists out of the call graph, the
        watcher lists and ``cond_dependents`` they joined, and its readers
        out of the complete tables that keep them; its callers take it
        out of ``dyn_readers`` (a query's own table is in none)."""
        watched = {}    # each watcher list once, so each is read once
        for dl in [dl for ans in table.answers for dl in ans.delay_lists]:
            for lit in dl.lits:
                lit.table.cond_dependents.discard(table)
                ws = lit.table.neg_watchers if lit.neg else lit.ans.pos_watchers
                if ws:
                    watched[id(ws)] = ws
        for ws in watched.values():
            ws[:] = [w for w in ws if w[0].owner.table is not table]
        for callee in table.dep_out:
            callee.dep_in.pop(table, None)
            if table.pred.incremental_table and callee.consumers:
                callee.consumers = [c for c in callee.consumers
                                    if c.cont.owner is not table]
        table.dep_out = {}

    def delete_answer(self, table: SubgoalTable, ans: AnswerRecord) -> None:
        """Remove an answer outright (answer subsumption replacement, or
        a retract that left it no derivation)."""
        if ans.deleted:
            return
        if not ans.delay_lists:
            table.uncond_answers -= 1
        ans.delay_lists = ()
        self._drop(table, ans)

    def _drop(self, table: SubgoalTable, ans: AnswerRecord) -> None:
        """Delete a live answer: out of its table's index and trie."""
        ans.deleted = True
        del table.index[ans.bindings]
        if ans.leaf is not None:
            table._answer_trie.remove_leaf(ans.leaf)
            ans.leaf = None

    # ------------------------------------------------------------------
    # simplification

    def _promote(self, ans: AnswerRecord) -> None:
        """An empty delay list appeared: the answer is now unconditional."""
        table = ans.table
        for dl in ans.delay_lists:
            dl.dead = True
        ans.delay_lists = ()
        table.uncond_answers += 1
        self._pending.append(("uncond", (table, ans)))

    def on_completed(self, table: SubgoalTable) -> None:
        """Run completion-time simplification for a just-completed table."""
        if not table.has_answers:
            self._pending.append(("empty", table))
        else:
            # positive delay literals pointing at answers this table no
            # longer has were handled when those answers were deleted;
            # negative watchers resolve only against unconditional answers
            if table.has_unconditional:
                self._kill_neg_watchers(table)
        self._pump()

    def _pump(self) -> None:
        while self._pending:
            kind, payload = self._pending.pop()
            if kind == "uncond":
                table, ans = payload
                for dl, lit in ans.pos_watchers:
                    if dl.dead or ans.deleted:
                        continue
                    self._strike_lit(dl, lit)
                ans.pos_watchers = ()
                if table.subgoal_is_ground():
                    self._kill_neg_watchers(table)
            elif kind == "deleted":
                table, ans = payload
                for dl, lit in ans.pos_watchers:
                    if not dl.dead:
                        self._kill_dl(dl)
                ans.pos_watchers = ()
                if table.complete and not table.has_answers:
                    self._pending.append(("empty", table))
            elif kind == "empty":
                table = payload
                for dl, lit in table.neg_watchers:
                    if not dl.dead:
                        self._strike_lit(dl, lit)
                table.neg_watchers = []

    def _strike_lit(self, dl: DelayList, lit: DelayLit) -> None:
        """A delay literal turned out true: drop it from its list."""
        try:
            dl.lits.remove(lit)
        except ValueError:
            return
        self.n_simplifications += 1
        owner = dl.owner
        if self.trace_hook:
            self.trace_hook("SIMPLIFICATION", owner.table)
        if not dl.lits and not dl.dead:
            self._promote(owner)

    def _kill_dl(self, dl: DelayList) -> None:
        """A delay literal turned out false: the whole list is refuted."""
        if dl.dead:
            return
        dl.dead = True
        self.n_simplifications += 1
        owner = dl.owner
        owner.delay_lists.remove(dl)
        table = owner.table
        if self.trace_hook:
            self.trace_hook("SIMPLIFICATION", table)
        if not owner.delay_lists:
            self._drop(table, owner)
            self._pending.append(("deleted", (table, owner)))

    def _kill_neg_watchers(self, table: SubgoalTable) -> None:
        for dl, lit in table.neg_watchers:
            if not dl.dead:
                self._kill_dl(dl)
        table.neg_watchers = []

    # ------------------------------------------------------------------
    # abolishing

    def abolish_all(self) -> None:
        self._abolish(self.tables)

    def abolish_pred(self, key: Tuple[str, int]) -> None:
        self._abolish([t for t in self.variants.values()
                       if t.pred.key == key])

    def abolish_call(self, goal: Term) -> None:
        table = self.lookup_variant(goal)
        self._abolish(() if table is None else (table,))

    def discard_from(self, dfn_watermark: int, force: bool = False) -> None:
        """Abolish every table created after the watermark.

        Used for query-scoped tables and for error recovery, where the
        interrupted evaluation leaves incomplete tables behind; these are
        neutralised first so the usual abolish path accepts them."""
        fresh = [t for t in self.variants.values() if t.dfn > dfn_watermark]
        if force:
            for table in fresh:
                if table.status == SubgoalTable.INCOMPLETE:
                    _retire_answers(table)
                    table.status = SubgoalTable.COMPLETE
        self._abolish(fresh)

    def _abolish(self, roots: Iterable[SubgoalTable]) -> None:
        """Abolish the tables ``roots`` and every table whose conditional
        answers lean on one of them, then sweep.  An incomplete table
        among them refuses the whole abolish before any is marked."""
        work = list(roots)
        seen = set(work)
        for t in work:      # grows as it is read: chains can be long
            if t.status == SubgoalTable.INCOMPLETE:
                raise EvalError("abolish_incomplete",
                                f"table {term_to_str(t.subgoal)} is "
                                "not yet complete")
            for d in t.cond_dependents:
                if d not in seen and d.status != SubgoalTable.ABOLISHED:
                    seen.add(d)
                    work.append(d)
        self.deltas = []
        for t in work:
            t.status = SubgoalTable.ABOLISHED
        self.sweep()

    def sweep(self) -> None:
        """Reclaim abolished tables at once: out of ``variants``, their
        subgoal tries, the call graph both ways, what ``unlink`` reaches
        and ``dyn_readers``.  Nothing else reads them; an answer stream
        reads a list of its own."""
        dead = [t for t in self.variants.values()
                if t.status == SubgoalTable.ABOLISHED]
        if len(dead) == len(self.variants):
            # nothing is left that could hold an abolished table
            self.variants, self.tries, self.dyn_readers = {}, {}, {}
        elif dead:
            for table in dead:
                del self.variants[table.subgoal]
                trie = self.tries.get(table.pred.key)
                if trie is not None:
                    trie.remove_leaf(trie.lookup(symbols(table.subgoal)))
                self.unlink(table)
                for caller in table.dep_in:
                    caller.dep_out.pop(table, None)
            for readers in self.dyn_readers.values():
                for t in [t for t in readers
                          if t.status == SubgoalTable.ABOLISHED]:
                    del readers[t]

    # ------------------------------------------------------------------
    # incremental bookkeeping

    def note_dyn_read(self, table: SubgoalTable, key: Tuple[str, int],
                      ordered: bool) -> None:
        readers = self.dyn_readers.setdefault(key, {})
        readers[table] = ordered or readers.get(table, False)

    def note_call_edge(self, caller: SubgoalTable, callee: SubgoalTable,
                       neg: bool) -> None:
        # a new value keeps the key's place: the edges stay in call order
        caller.dep_out[callee] = neg or caller.dep_out.get(callee, False)
        callee.dep_in[caller] = None

    # ------------------------------------------------------------------
    # statistics

    def statistics(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        for table in self.variants.values():
            st = out.setdefault(str(table.pred), {
                "tables": 0, "answers": 0, "conditional": 0,
                "complete": 0, "invalid": 0})
            st["tables"] += 1
            st["answers"] += len(table.index)
            st["conditional"] += sum(1 for a in table.answers
                                     if a.conditional)
            if table.complete:
                st["complete"] += 1
            if table.status == SubgoalTable.INVALID:
                st["invalid"] += 1
        return out
