"""Table space: subgoal tables, answer tables, conditional answers.

Subgoals are interned per predicate in a trie keyed by the canonical
subgoal's preorder symbols.  Answers use substitution factoring: the
answer trie of a table stores only the bindings of the subgoal's
variables, not the whole answer term.

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
    Struct, Term, canonical_key, canonicalize, functor_of, rename, resolve,
    symbols, term_to_str,
)
from .tries import Trie, term_path


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
    """One (possibly conditional) answer of a table."""

    __slots__ = ("bindings", "term", "nvars", "delay_lists", "deleted",
                 "leaf", "pos_watchers", "seq", "table")

    def __init__(self, table: "SubgoalTable", bindings: Tuple[Term, ...],
                 term: Term, nvars: int, seq: int):
        self.table = table
        self.bindings = bindings
        self.term = term            # canonical instantiated subgoal
        self.nvars = nvars          # distinct variables in .term
        self.delay_lists: List[DelayList] = []
        self.deleted = False
        self.leaf = None
        self.pos_watchers: List[Tuple[DelayList, DelayLit]] = []
        self.seq = seq

    @property
    def unconditional(self) -> bool:
        return not self.deleted and not self.delay_lists

    @property
    def conditional(self) -> bool:
        return bool(self.delay_lists) and not self.deleted


class SubgoalTable:
    """A tabled subgoal with its answers and bookkeeping.

    Scheduling state (completion stack position, dependency links) is
    managed by the engine; incremental and conditional-answer dependency
    state lives here.
    """

    INCOMPLETE = "incomplete"
    COMPLETE = "complete"
    INVALID = "invalid"

    def __init__(self, pred: PredicateInfo, subgoal: Term, nvars: int,
                 dfn: int, producer: Optional["SubgoalTable"] = None):
        self.pred = pred
        self.subgoal = subgoal          # canonical form
        self.nvars = nvars
        self.key = canonical_key(subgoal)
        self.dfn = dfn
        self.status = self.INCOMPLETE
        self.producer = producer        # set on subsumed consumer tables
        self.answers: List[AnswerRecord] = []   # append-only, tombstones
        self.answer_trie = Trie()
        self.live_answers = 0
        self.uncond_answers = 0
        self.neg_watchers: List[Tuple[DelayList, DelayLit]] = []
        self.cond_dependents: Set["SubgoalTable"] = set()
        self.refcount = 0
        self.abolished = False
        # engine scheduling state
        self.consumers: list = []
        self.neg_waiters: list = []
        self.on_complete_hooks: list = []
        self.sdg_pos: Set["SubgoalTable"] = set()
        self.sdg_neg: Set["SubgoalTable"] = set()
        self.ctx = 0                    # evaluation context of its run
        self.owned_consumers: list = []  # consumers its continuations made
        self.leaf_node = None           # its leaf in the subgoal trie
        # incremental dependency graph
        self.dep_in: Set["SubgoalTable"] = set()
        self.dep_out: Set["SubgoalTable"] = set()
        self.neg_dep_out: Set["SubgoalTable"] = set()
        self.consulted_dyn: Set[Tuple[str, int]] = set()

    @property
    def complete(self) -> bool:
        return self.status == self.COMPLETE

    @property
    def has_unconditional(self) -> bool:
        return self.uncond_answers > 0

    @property
    def has_answers(self) -> bool:
        return self.live_answers > 0

    def subgoal_is_ground(self) -> bool:
        return self.nvars == 0

    def __repr__(self):
        return f"<table {term_to_str(self.subgoal)} {self.status}>"


class TableSpace:
    """All tables of a session, with the simplification machinery."""

    def __init__(self, program: Program,
                 gc_action: str = "abolish_dependents"):
        self.program = program
        self.gc_action = gc_action
        self.tries: Dict[Tuple[str, int], Trie] = {}
        self.tables: List[SubgoalTable] = []
        self.dyn_readers: Dict[Tuple[str, int], Set[SubgoalTable]] = {}
        self._dfn = 0
        self._ans_seq = 0
        self._pending: List[Tuple[str, object]] = []
        self.n_simplifications = 0
        self.open_streams = 0
        self.reclaimed = 0
        self.trace_hook: Optional[Callable[[str, SubgoalTable], None]] = None

    # ------------------------------------------------------------------
    # subgoal interning

    def check_insert_subgoal(self, pi: PredicateInfo, goal: Term):
        """Intern a call.  Returns (table, is_new).

        Variant tabling reuses a table per canonical call.  Subsumptive
        tabling first looks for any stored subgoal that subsumes the
        call; an exact variant is reused directly, any other subsuming
        table becomes the producer of a fresh consumer table.
        """
        cgoal, nvars = canonicalize(goal)
        trie = self.tries.get(pi.key)
        if trie is None:
            trie = self.tries[pi.key] = Trie()
        path = term_path(cgoal)

        if pi.tabling == "subsumptive":
            key = canonical_key(cgoal)
            hits = trie.matching_leaves(cgoal, mode="subsume")
            producer = None
            for t in hits:
                if t.abolished or t.status == SubgoalTable.INVALID:
                    continue
                if t.key == key:
                    return t, False
                if t.producer is None:
                    producer = t
                    break
            node, _ = trie.check_insert(path)
            if node.leaf is not None and not node.leaf.abolished:
                return node.leaf, False
            table = self._new_table(pi, cgoal, nvars, producer=producer)
            trie.set_leaf(node, table)
            table.leaf_node = node
            return table, True

        node, _ = trie.check_insert(path)
        existing = node.leaf
        if existing is not None and not existing.abolished:
            if existing.status == SubgoalTable.INVALID:
                return existing, True     # invalidated: caller recomputes
            return existing, False
        table = self._new_table(pi, cgoal, nvars)
        trie.set_leaf(node, table)
        table.leaf_node = node
        return table, True

    def _new_table(self, pi, cgoal, nvars, producer=None) -> SubgoalTable:
        self._dfn += 1
        table = SubgoalTable(pi, cgoal, nvars, self._dfn, producer)
        self.tables.append(table)
        return table

    def lookup_variant(self, goal: Term) -> Optional[SubgoalTable]:
        name, arity = functor_of(goal)
        trie = self.tries.get((name, arity))
        if trie is None:
            return None
        cgoal, _ = canonicalize(goal)
        node = trie.lookup(term_path(cgoal))
        if node is None or node.leaf is None or node.leaf.abolished:
            return None
        return node.leaf

    # ------------------------------------------------------------------
    # answers

    def add_answer(self, table: SubgoalTable, bindings: Tuple[Term, ...],
                   delays: Iterable[DelayLit] = ()):
        """Insert an answer.  Returns (status, record) where status is
        'added', 'duplicate' or 'merged' (new delay list on an existing
        conditional answer)."""
        wrapper, _ = canonicalize(Struct("$a", tuple(bindings)))
        path = symbols(wrapper)[1:]
        node, _ = table.answer_trie.check_insert(path)
        lits = list(delays)
        existing: Optional[AnswerRecord] = node.leaf

        if existing is not None and not existing.deleted:
            if existing.unconditional:
                return "duplicate", existing
            if not lits:
                self._promote(existing)
                self._pump()
                return "duplicate", existing
            key = frozenset(l.ident() for l in lits)
            for dl in existing.delay_lists:
                if frozenset(l.ident() for l in dl.lits) == key:
                    return "duplicate", existing
            self._attach_dl(table, existing, lits)
            return "merged", existing

        self._ans_seq += 1
        term, term_nv = self._apply(table, wrapper.args)
        ans = AnswerRecord(table, wrapper.args, term, term_nv, self._ans_seq)
        ans.leaf = node
        table.answer_trie.set_leaf(node, ans)
        table.answers.append(ans)
        table.live_answers += 1
        if lits:
            self._attach_dl(table, ans, lits)
        else:
            table.uncond_answers += 1
            self._on_uncond(table, ans)
            self._pump()
        return "added", ans

    def _apply(self, table: SubgoalTable,
               bindings: Tuple[Term, ...]) -> Tuple[Term, int]:
        """Reconstruct the full answer term from factored bindings.

        Binding variables are renamed above the subgoal's own ids first:
        the two canonical namespaces both start at 0."""
        off = table.nvars
        env = {i: rename(b, off) for i, b in enumerate(bindings)}
        return canonicalize(resolve(table.subgoal, env))

    def _attach_dl(self, table: SubgoalTable, ans: AnswerRecord,
                   lits: List[DelayLit]) -> None:
        dl = DelayList(ans, lits)
        ans.delay_lists.append(dl)
        for lit in lits:
            watched = lit.table
            if lit.neg:
                watched.neg_watchers.append((dl, lit))
            else:
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
        for ans in table.answers:
            for dl in ans.delay_lists:
                dl.dead = True
            ans.delay_lists = []
            ans.deleted = True
        table.status = SubgoalTable.INCOMPLETE
        table.answers = []
        table.answer_trie = Trie()
        table.live_answers = 0
        table.uncond_answers = 0
        table.neg_watchers = []
        table.consumers = []
        table.neg_waiters = []
        table.on_complete_hooks = []
        table.cond_dependents = set()
        table.sdg_pos = set()
        table.sdg_neg = set()
        for callee in table.dep_out:
            callee.dep_in.discard(table)
        table.dep_out = set()
        table.neg_dep_out = set()
        for key in table.consulted_dyn:
            self.dyn_readers.get(key, set()).discard(table)
        table.consulted_dyn = set()
        table.pred.recomputations += 1

    def delete_answer(self, table: SubgoalTable, ans: AnswerRecord) -> None:
        """Remove an answer outright (answer subsumption replacement)."""
        if ans.deleted:
            return
        ans.deleted = True
        if not ans.delay_lists:
            table.uncond_answers -= 1
        ans.delay_lists = []
        table.live_answers -= 1
        if ans.leaf is not None:
            table.answer_trie.remove_leaf(ans.leaf)
            ans.leaf = None

    # ------------------------------------------------------------------
    # simplification

    def _promote(self, ans: AnswerRecord) -> None:
        """An empty delay list appeared: the answer is now unconditional."""
        table = ans.table
        for dl in ans.delay_lists:
            dl.dead = True
        ans.delay_lists = []
        table.uncond_answers += 1
        self._on_uncond(table, ans)

    def _on_uncond(self, table: SubgoalTable, ans: AnswerRecord) -> None:
        self._pending.append(("uncond", (table, ans)))

    def _on_deleted(self, table: SubgoalTable, ans: AnswerRecord) -> None:
        self._pending.append(("deleted", (table, ans)))

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
                ans.pos_watchers = []
                if table.subgoal_is_ground():
                    self._kill_neg_watchers(table)
            elif kind == "deleted":
                table, ans = payload
                for dl, lit in ans.pos_watchers:
                    if not dl.dead:
                        self._kill_dl(dl)
                ans.pos_watchers = []
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
            for other in owner.delay_lists:
                other.dead = True
            owner.delay_lists = []
            owner.table.uncond_answers += 1
            self._on_uncond(owner.table, owner)

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
            owner.deleted = True
            table.live_answers -= 1
            if owner.leaf is not None:
                table.answer_trie.remove_leaf(owner.leaf)
                owner.leaf = None
            self._on_deleted(table, owner)

    def _kill_neg_watchers(self, table: SubgoalTable) -> None:
        for dl, lit in table.neg_watchers:
            if not dl.dead:
                self._kill_dl(dl)
        table.neg_watchers = []

    # ------------------------------------------------------------------
    # abolishing

    def abolish_all(self, protect: Iterable[SubgoalTable] = ()) -> None:
        keep = set(id(t) for t in protect)
        for table in list(self.tables):
            if not table.abolished and id(table) not in keep:
                self._abolish(table)
        self.sweep()

    def abolish_pred(self, key: Tuple[str, int]) -> None:
        for table in list(self.tables):
            if table.pred.key == key and not table.abolished:
                self._abolish(table)
        self.sweep()

    def abolish_call(self, goal: Term) -> None:
        table = self.lookup_variant(goal)
        if table is not None:
            self._abolish(table)
        self.sweep()

    def discard_from(self, dfn_watermark: int, force: bool = False) -> None:
        """Abolish every table created after the watermark.

        Used for query-scoped tables and for error recovery, where the
        interrupted evaluation leaves incomplete tables behind; these are
        neutralised first so the usual abolish path accepts them."""
        fresh = [t for t in self.tables
                 if t.dfn > dfn_watermark and not t.abolished]
        if force:
            for table in fresh:
                if table.status == SubgoalTable.INCOMPLETE:
                    for ans in table.answers:
                        for dl in ans.delay_lists:
                            dl.dead = True
                        ans.delay_lists = []
                        ans.deleted = True
                    table.status = SubgoalTable.COMPLETE
        for table in fresh:
            if not table.abolished:
                self._abolish(table)
        self.sweep()

    def _abolish(self, table: SubgoalTable) -> None:
        if table.abolished:
            return
        if table.status == SubgoalTable.INCOMPLETE:
            raise EvalError("abolish_incomplete",
                            f"table {term_to_str(table.subgoal)} is not "
                            "yet complete")
        table.abolished = True
        if self.gc_action == "abolish_dependents":
            for dep in list(table.cond_dependents):
                if not dep.abolished and dep is not table:
                    self._abolish(dep)

    def sweep(self) -> None:
        """Reclaim abolished tables that no cursor still reads.

        While any answer stream is open the whole sweep is deferred:
        abolished tables stay marked (pending gc) and are reclaimed at
        the next query boundary with no streams outstanding."""
        if self.open_streams > 0:
            return
        remaining: List[SubgoalTable] = []
        for table in self.tables:
            if table.abolished and table.refcount == 0:
                node = table.leaf_node
                trie = self.tries.get(table.pred.key)
                if node is not None and trie is not None and node.leaf is table:
                    trie.remove_leaf(node)
                for readers in self.dyn_readers.values():
                    readers.discard(table)
                self.reclaimed += 1
            else:
                remaining.append(table)
        self.tables = remaining

    # ------------------------------------------------------------------
    # incremental bookkeeping

    def note_dyn_read(self, table: SubgoalTable, key: Tuple[str, int]) -> None:
        table.consulted_dyn.add(key)
        self.dyn_readers.setdefault(key, set()).add(table)

    def note_call_edge(self, caller: SubgoalTable, callee: SubgoalTable,
                       neg: bool) -> None:
        caller.dep_out.add(callee)
        callee.dep_in.add(caller)
        if neg:
            caller.neg_dep_out.add(callee)

    # ------------------------------------------------------------------
    # statistics

    def statistics(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        for table in self.tables:
            if table.abolished or table.pred.name.startswith("$"):
                continue
            st = out.setdefault(str(table.pred), {
                "tables": 0, "producers": 0, "answers": 0, "conditional": 0,
                "complete": 0, "invalid": 0})
            st["tables"] += 1
            if table.producer is None:
                st["producers"] += 1
            st["answers"] += table.live_answers
            st["conditional"] += sum(1 for a in table.answers
                                     if a.conditional)
            if table.complete:
                st["complete"] += 1
            if table.status == SubgoalTable.INVALID:
                st["invalid"] += 1
        return out
