"""SLG evaluation: a stack machine over suspendable continuations.

Tabled calls intern a subgoal table and read it through a ``Consumer``,
the one path by which answers return: a complete table feeds it all its
answers, an incomplete one feeds it as answers arrive.  A feed is one
run-stack entry over a range of the table's append-only answer list,
which returns them in order.  Answers stay factored: the consumer maps
its goal onto the subgoal's variables once, and an answer returns by
unifying that map with its bindings.  Under
subsumptive tabling a call reads the first table that subsumes it in
place, in the table's answer order, a complete one through its answer
trie; a call that no table subsumes, or a ground ``tnot``, gets a table
of its own.  Non-tabled calls resolve inline, depth first.  Negative
calls suspend on incomplete tables and are resolved at completion,
delayed inside negative loops, or failed eagerly as soon as an
unconditional answer shows up.

A query runs its goal under a table of its own, which lives one
evaluation.  A query whose goal is itself one tabled call, a variant
call of a table without answer subsumption, returns that table's
records instead: the records fed to that call are kept, in order, and
the query reads their final truth, passing over the deleted ones.

Continuations share structure.  One keeps the rest of each clause body
as written, by reference, and a binding frame, which each step extends
in place.  A goal is instantiated only when it is selected, and only
when the call needs terms: clause lookup, tabling, unification and the
like; arithmetic reads the frame.  A continuation is copied into
instantiated terms only where it outlives the step: it suspends as a
consumer or a negative waiter, or yields an answer or a findall result.
Each body literal records, the first time it is reached, what a call of
it runs: its builtin handler or its predicate.  A builtin succeeds at
most once, binding into the frame, and so does a ``tnot`` of a complete
table: after either, the state goes on to its next goal in a loop.

Fused returns: in the loop that feeds a consumer, a returned answer
skips the rest of its clause where that rest has a fixed shape
(``ReturnPlan``).  A last call hands the answer, projected, to its
owner's table.  A call followed by one call of a static predicate of
ground facts, then only ``is/2`` goals that bind fresh variables, joins
each ground answer with the facts its clause index keeps for it, by one
probe where the answer binds the indexed argument to an atom or an
integer; each fact that matches makes one answer of the owner, with no
continuation or frame.  A ground answer that one probe of the owner's
answer index finds settled is passed over: it would change nothing.  So
is one that a clause body makes as it ends.
Facts join in clause order, and one whose answer pushes entries (a
batched feed) leaves the facts still to join beneath them, so answers,
their order, K and the traces are those of the inline path.  The
retract check's collector takes these returns too, and holds each as
the bindings of a derivation with the records it consumed.  The same
plan and join run a tabled clause at entry where a ground call binds
its head of variables: the fact call and tail may then end with a
ground ``tnot``, and no frame nor per-fact continuation is made.

Scheduling maintains a completion stack of exactly the incomplete
tables, the scheduler's only registry of them: a completed SCC leaves
it at once, and an incomplete table off the stack belongs to an
enclosing evaluation.  Tables record one call graph,
``SubgoalTable.dep_out``, which scheduling shares with incremental
invalidation and error recovery.  When the run stack drains, the
topmost closed segment of the completion stack is partitioned into
SCCs of that graph restricted to incomplete tables:

* under the local strategy, answers are fed to consumers inside their
  own SCC first; sink SCCs complete once quiesced, releasing answers to
  the rest of the forest only then;
* under the batched strategy, answers flow to all consumers the moment
  they are derived and the stack-empty pass only completes.

A quiesced segment whose sinks all contain unresolved negative loops is
a blocked region; the waiting literal in its oldest continuation (the
smallest node number K) is delayed, which lets evaluation continue with
conditional answers that simplification later repairs.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from heapq import heapify, heappop, heappush
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Set

from .builtins import BUILTINS, compile_arith
from .errors import EvalError
from .parser import ParsedItem, parse_goal, parse_program
from .program import (Clause, Literal, PredicateInfo, Program, _head_unifier,
                      has_cut, split_clause)
from .sccs import tarjan_sccs
from .tables import DelayLit, SubgoalTable, TableSpace
from .terms import (Atom, CyclicTermError, Int, Struct, Term, Var,
                    canonicalize, functor_of, instantiate, is_ground, match,
                    order_key, rename, resolve, substitute, term_to_str,
                    term_vars, unify_all, variant_tuple)
from . import subsumption

_BODY_HEAD = Atom("$body")
_TOO_DEEP = "nested past the recursion limit"


class Collector:
    """Answer sink for sub-evaluations (findall, join/leq calls, the
    retract check): ``results`` holds each instance with the delay
    literals it carried.  A collector of ``supports``, the retract
    check's, is given each answer it consumes as a positive delay
    literal, conditional or not; its readers take the fused returns
    (``ReturnPlan``), which give it bindings and records instead."""

    __slots__ = ("results", "owner_table", "supports")
    complete = False        # an owner of readers, like a table; never complete
    reads = None            # and one that never follows an assert's delta

    def __init__(self, owner_table: Optional[SubgoalTable],
                 supports: bool = False):
        self.results: List[tuple] = []
        self.owner_table = owner_table
        self.supports = supports

    def derive(self, row: tuple, sups: tuple) -> None:
        """A fused return's derivation: bindings and the records used."""
        self.results.append((row, sups))


# bindings a frame may gain past its last compaction before it is compacted
_FRAME_SLACK = 64


class Cont:
    """One derivation state: remaining goals under a binding frame.

    ``goals`` is ``None`` or ``(lits, i, off, scope, rest)``: the
    literals ``lits[i:]`` of a clause body as written, their variables
    offset by ``off`` and each ``!`` cutting to ``scope``, then ``rest``.
    ``frame`` maps variable ids to terms; the goals and ``ans`` are read
    through it.  ``ans`` is what the state produces: the bindings of a
    table's subgoal variables, as one term's arguments, or an instance
    of a collector's template.  ``nv`` is the next free variable id,
    ``k`` the forest node of the state, and past ``limit`` bindings the
    frame is compacted to those its goals and ``ans`` still reach.

    A goal is instantiated when it is selected.  A frame belongs to one
    state at a time, which binds into it and hands it on; each clause of
    a call but the last to run copies it.  The continuation of a
    ``Consumer`` or a ``NegWaiter`` is copied out of it (``_detach``).
    A state the run stack would pop next runs at once instead: a clause
    body, each answer of a feed, and the goal after a builtin that
    succeeds or a ``tnot`` of a complete table, which moves the state on
    in place.  A clause that runs by its plan at entry (``ReturnPlan``)
    makes one state for all its facts, which a suspended ``tnot`` copies.
    """

    __slots__ = ("owner", "ans", "goals", "delays", "scopes", "k", "nv",
                 "frame", "limit")

    def __init__(self, owner, ans: Term, goals, delays: tuple,
                 scopes: tuple, k: int, nv: int, frame: dict,
                 limit: int = _FRAME_SLACK):
        self.owner = owner          # SubgoalTable | Collector
        self.ans = ans
        self.goals = goals
        self.delays = delays
        self.scopes = scopes
        self.k = k
        self.nv = nv
        self.frame = frame
        self.limit = limit


def _answer_vars(table: SubgoalTable) -> Struct:
    """The variables of a table's subgoal, as the arguments of a term."""
    return Struct("$a", tuple(map(Var, range(table.nvars))))


class _Desc(tuple):
    """An ``order_key`` that sorts in reverse."""

    __slots__ = ()

    def __lt__(self, other):
        return tuple.__lt__(other, self)


class Consumer:
    """A reader of a table: a call of a goal, which the table's subgoal
    equals or subsumes, continued by ``cont``.  ``terms``, the goal map,
    holds the subterm of the goal each subgoal variable stands for; an
    answer returns by unifying it with the answer's bindings, or, for a
    variant call (distinct variables ``vars``), by binding them.  A
    subsumed call keeps ``seen``, instance (the ``variant_tuple`` of its
    resolved goal map) to "returned unconditionally", as two answers can
    give it one instance; a reader of an
    answer-subsumption table keeps ``heap``, the answers it has to feed.
    A feed is one ``(_resume, consumer, answers, i, n)`` run-stack entry:
    the answers ``answers[i:n]`` of the table's list past ``cursor``, of
    the sorted trie hits of a subsumed call, or of the heap's best.  A
    reader lives while its owner (``cont.owner``) is incomplete: a
    complete owner takes no more answers, so its readers' feeds end.

    A variant call of a table's clause keeps ``plan``, a ``ReturnPlan``
    made with the consumer, when the rest of the clause has a fixed
    shape; ``Engine._resume`` then hands each answer's result straight
    to the owner's table in its feed loop, and the rest never runs.  The
    same plan type, kept on the clause, runs a clause at entry."""

    __slots__ = ("table", "cont", "cursor", "scopes", "heap", "terms",
                 "vars", "seen", "plan")

    def __init__(self, table: SubgoalTable, goal: Term, cont: Cont,
                 program: Program):
        self.table = table
        self.cont = cont
        env = match(table.subgoal, goal)
        self.terms = terms = tuple(env[i] for i in range(table.nvars))
        ids = tuple({t.id: 0 for t in terms if type(t) is Var})
        self.vars = ids if len(ids) == len(terms) else None
        self.seen = {} if self.vars is None else None
        self.plan = None
        goals = cont.goals or ((), 0, 0, None, None)
        if self.vars is not None and goals[4] is None \
                and (type(cont.owner) is not Collector or cont.owner.supports):
            self.plan = _return_plan(goals[0], ids, cont.ans.args,
                                     program) or None
        self.cursor = 0
        self.scopes = cont.scopes
        self.heap = [] if table.pred.subsumption is not None else None


class ReturnPlan(NamedTuple):
    """How a row, an answer's bindings or, at clause entry, those of a
    ground call's head, makes the owner's answers, ``proj`` picking them
    out.  A last call (the call ends the clause) has no ``pred``.  Else
    the clause goes on with one call of ``pred``, a static predicate of
    ground facts, then ``is/2`` goals that bind fresh variables, and at
    entry perhaps ``neg``, a ``tnot`` of a tabled predicate as
    ``(predicate, template)``; the row goes on with a fact's arguments,
    then each ``arith`` value.  ``probe`` is the call, an int reading
    the row and a variable an output, and ``checks`` pairs argument
    positions with the row slots they must equal.  ``direct``, where
    the first index reads one argument the row binds at ``slot``, is
    ``(lookup_atomic, slot)``: an atom or an integer there finds them by
    one probe.  The call's and the answer's arguments are variables."""

    pred: Optional[PredicateInfo]
    probe: tuple
    checks: tuple
    arith: tuple
    proj: Callable[[tuple], tuple]
    direct: Optional[tuple]
    neg: Optional[tuple]

    def facts(self, row: tuple, program: Program) -> list:
        """The facts the call of ``row`` may meet, in program order."""
        lookup, slot = self.direct or (None, 0)
        a = row[slot] if lookup else None
        # by ``direct``, unless a consult has replaced the index since
        if (type(a) is Atom or type(a) is Int) \
                and lookup.__self__ in self.pred.indexes:
            return lookup(a)
        return program._candidates(self.pred, _row_goal(
            self.pred.name, self.probe, row))[1]


def _row_goal(name: str, template: tuple, row: tuple) -> Struct:
    """The goal ``name`` of ``template``, its ints read from ``row``."""
    return Struct(name, tuple([row[x] if type(x) is int else x
                               for x in template]))


def _return_plan(lits: tuple, ids: tuple, ans: Optional[tuple],
                 program: Program):
    """The ``ReturnPlan`` of ``lits`` on a row of the variables ``ids``
    to make the owner's answer ``ans``, or None at entry, where a ground
    ``tnot`` may end ``lits``; False if these lack its shape, None if a
    predicate they call is undefined, which a consult may define."""
    slot = {v: j for j, v in enumerate(ids)}    # variable -> row slot
    n = len(ids)
    pi, probe, checks, arith, direct, neg = None, [], [], [], None, None
    if lits:
        call = lits[0]
        if call.neg or type(call.goal) is not Struct:
            return False
        pi = call.call or _decode(call, program)
        if type(pi) is not PredicateInfo or pi.tabled \
                or pi.general_clauses or pi.dynamic:
            return pi and False     # None for an undefined predicate
        args = call.goal.args
        for p, a in enumerate(args):
            if type(a) is not Var:
                return False
            if a.id in slot:
                checks.append((p, slot[a.id]))
            else:
                slot[a.id] = n + p
        probe = [slot[a.id] if slot[a.id] < n else a for a in args]
        ix = pi.indexes[0] if pi.indexes else None
        if ix is not None and ix.probe and type(probe[ix.argnos[0]]) is int:
            direct = ix.lookup_atomic, probe[ix.argnos[0]]
        tail = lits[1:]
        if ans is None and tail and tail[-1].neg:
            neg, tail = tail[-1], tail[:-1]
        for lit in tail:
            g = lit.goal
            if lit.neg or type(g) is not Struct or g.name != "is" \
                    or len(g.args) != 2 or type(g.args[0]) is not Var \
                    or g.args[0].id in slot:
                return False
            arith.append(compile_arith(g.args[1], slot))
            slot[g.args[0].id] = n + len(args) + len(arith) - 1
    if neg is not None:
        npi, g = neg.call or _decode(neg, program), neg.goal
        if type(npi) is not PredicateInfo or not npi.tabled \
                or npi.subsumption is not None or type(g) is not Struct \
                or not all(a.ground or type(a) is Var and a.id in slot
                           for a in g.args):
            return npi and False
        neg = npi, tuple([slot[a.id] if type(a) is Var else a
                          for a in g.args])
    if None in arith or not all(type(a) is Var and a.id in slot
                                for a in ans or ()):
        return False
    # at entry ``Engine._enter`` reads the whole row
    slots = [slot[a.id] for a in ans] if ans is not None \
        else list(range(n + len(probe) + len(arith)))
    j = slots[0] if slots else 0        # a run of slots picks a slice
    proj = itemgetter(slice(j, j + len(slots))) \
        if slots == list(range(j, j + len(slots))) else itemgetter(*slots)
    return ReturnPlan(pi, tuple(probe), tuple(checks), tuple(arith), proj,
                      direct, neg)


def _instancer(t: Term) -> Callable[[tuple], Term]:
    """``t``, a canonical term, as a function of its bindings: a compound
    of two or more arguments, each ground or a variable, takes them into
    its slots; any other term goes through ``substitute``."""
    args = () if t.ground or type(t) is not Struct else t.args
    if len(args) < 2 or any(type(a) is not Var and not a.ground
                            for a in args):
        return partial(substitute, t)
    # each slot reads the goal's own argument or a binding
    pick = itemgetter(*[len(args) + a.id if type(a) is Var else j
                        for j, a in enumerate(args)])
    return lambda b, name=t.name: Struct(name, pick(args + b))


def _decode(lit: Literal, program: Program):
    """What a call of ``lit`` runs, its builtin handler or its predicate,
    recorded on the literal; None for an undefined predicate, which is
    looked up again next time, as a consult may define it."""
    goal = lit.goal
    key = (goal.name, 0) if type(goal) is Atom \
        else (goal.name, len(goal.args))
    lit.call = call = BUILTINS.get(key) or program.info(*key)
    return call


class NegWaiter:
    """A continuation suspended on ``tnot goal`` of an incomplete table;
    ``seq`` numbers the waiters in order of arrival."""

    __slots__ = ("table", "goal", "cont", "dead", "seq")

    def __init__(self, table: SubgoalTable, goal: Term, cont: Cont,
                 seq: int):
        self.table = table
        self.goal = goal
        self.cont = cont
        self.dead = False
        self.seq = seq


class RoundState:
    """What scheduling rounds share while the call graph holds; any
    change to it drops the state (``Engine._round``).

    ``comps`` are the SCCs of the top segment of the completion stack,
    ``comp_of`` maps each of its tables to its SCC and ``rank`` to its
    position in ``comps`` read in order.  ``blocked[i]`` counts the live
    waiters on SCC ``i`` whose continuation belongs to SCC ``i`` too,
    and ``open`` the sink SCCs without such a waiter, which are ready to
    complete.  ``dirty`` holds the tables whose consumers may have
    answers to read.  The first delay round builds the blocked
    ``region`` and a heap of the waiters that may be delayed, keyed by
    ``(K, rank of the table, arrival)``: the scan order of the sinks
    with the smallest K first.
    """

    __slots__ = ("comps", "comp_of", "rank", "sinks", "is_sink", "blocked",
                 "open", "dirty", "region", "heap")

    def __init__(self, comps, edges):
        self.comps = comps
        self.comp_of = comp_of = {t: i for i, scc in enumerate(comps)
                                  for t in scc}
        self.rank = {t: r for r, t in enumerate(comp_of)}
        # the segment is closed under incomplete dependencies (``_intern``
        # refuses outer ones), so every edge of ``edges`` stays inside it
        self.is_sink = [all(comp_of[d] == i for t in scc for d in edges[t])
                        for i, scc in enumerate(comps)]
        self.sinks = [i for i, sink in enumerate(self.is_sink) if sink]
        self.blocked = [0] * len(comps)
        for t, i in comp_of.items():
            for w in t.neg_waiters:
                if not w.dead and comp_of.get(w.cont.owner) == i:
                    self.blocked[i] += 1
        self.open = sum(1 for i in self.sinks if not self.blocked[i])
        self.dirty: Set[SubgoalTable] = set(comp_of)
        self.region: Optional[Set[SubgoalTable]] = None
        self.heap: Optional[list] = None

    def add_waiter(self, w: NegWaiter) -> None:
        i = self.comp_of.get(w.table)
        if i is None:
            return
        if self.comp_of.get(w.cont.owner) == i:
            if not self.blocked[i] and self.is_sink[i]:
                self.open -= 1
            self.blocked[i] += 1
        if self.heap is not None and self.is_sink[i] \
                and w.cont.owner in self.region:
            heappush(self.heap, (w.cont.k, self.rank[w.table], w.seq, w))

    def drop_waiter(self, w: NegWaiter) -> None:
        i = self.comp_of.get(w.table)
        if i is not None and self.comp_of.get(w.cont.owner) == i:
            self.blocked[i] -= 1
            if not self.blocked[i] and self.is_sink[i]:
                self.open += 1


class QueryAnswer:
    """One solution: variable bindings, instantiated goal, truth value."""

    __slots__ = ("bindings", "goal", "truth")

    def __init__(self, bindings: Dict[int, Term], goal: Term, truth: str):
        self.bindings = bindings
        self.goal = goal
        self.truth = truth      # "true" | "undefined"

    def __repr__(self):
        return f"<answer {term_to_str(self.goal)} {self.truth}>"


_COUNTER_KEYS = ("new_subgoal", "clause_resolution", "positive_return",
                 "negative_return", "delaying", "join", "leq")


class Engine:
    """One evaluation forest over a program and its table space."""

    def __init__(self, strategy: str = "local", occurs_check: bool = False,
                 query_level_tabling: bool = False,
                 default_tabling: str = "variant"):
        if strategy not in ("local", "batched"):
            raise ValueError(f"unknown strategy: {strategy!r} "
                             "(local or batched)")
        self.program = Program(default_tabling=default_tabling)
        self.space = TableSpace(self.program)
        self.space.trace_hook = self._trace
        self.strategy = strategy
        self.occurs_check = occurs_check
        self.query_level_tabling = query_level_tabling
        # the predicate of each query's own table; never in the program
        self._query_pi = PredicateInfo("$query", 1, tabling="variant")

        self.stack: list = []         # entries (handler, state, *args)
        self.comp: List[SubgoalTable] = []
        self._round: Optional[RoundState] = None
        self.K = 0                  # global node-creation counter
        self._scope_seq = 0
        self._waiter_seq = 0
        self.query_active = False
        # the query goal's own literal, when it is one; the consumer of
        # its tabled call, and the records that call is fed.  The fed
        # records are not the table's list: under ``batched`` the feed
        # entries pop last in, first out, so they arrive in another order
        self._query_lits: Optional[tuple] = None
        self._query_reader: Optional[Consumer] = None
        self._query_fed: Optional[list] = None

        self.trace_enabled = False
        self.trace_lines: List[str] = []
        self.trace_sink: Optional[Callable[[str], None]] = None
        self.counters: Dict[str, int] = {k: 0 for k in _COUNTER_KEYS}

    # ------------------------------------------------------------------
    # program loading

    def consult(self, text: str) -> None:
        """Load program text; text nested too deeply to parse raises
        ``EvalError("resource_exhausted")`` before any item is applied."""
        try:
            items = parse_program(text)
        except RecursionError:
            raise EvalError("resource_exhausted", _TOO_DEEP) from None
        for t in self.space.tables:     # a new clause may void what they keep
            t.reads, t.consumers = None, []
        self.space.deltas = []
        for item in items:
            self._apply_item(item)

    def load_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            self.consult(fh.read())

    def _apply_item(self, item: ParsedItem) -> None:
        if item.is_directive:
            self.program.apply_directive(item.term)
        else:
            self.program.add_clause(item.term)

    # ------------------------------------------------------------------
    # trace / instrumentation

    def _op(self, counter: str, op: str, table: SubgoalTable) -> int:
        """One SLG operation on ``table``: a new forest node, counted and
        traced.  Returns the node number K."""
        self.K += 1
        self.counters[counter] += 1
        if self.trace_enabled:
            self._trace(op, table)
        return self.K

    def _trace(self, op: str, table: SubgoalTable) -> None:
        """Trace line of an operation; a query's own table is silent."""
        if not self.trace_enabled or table.pred is self._query_pi:
            return
        line = f"OP {op} {term_to_str(table.subgoal)} [K={self.K}]"
        if self.trace_sink is not None:
            self.trace_sink(line)
        else:
            self.trace_lines.append(line)

    def statistics(self) -> dict:
        return {"tables": self.space.statistics(),
                "counters": dict(self.counters),
                "nodes": self.K,
                "simplifications": self.space.n_simplifications,
                "recomputations": {
                    str(pi): pi.recomputations
                    for pi in self.program.user_predicates()
                    if pi.recomputations}}

    # ------------------------------------------------------------------
    # queries

    def query(self, goal) -> List[QueryAnswer]:
        """Evaluate a goal to quiescence; list its answers in derivation
        order.  Undefined answers are those still carrying delay lists."""
        with self._evaluation() as watermark:
            if isinstance(goal, str):
                goal = parse_goal(goal).term
            table = self._eval_wrapper(goal)
            reader = self._query_reader
            # both subgoals are numbered like ``qvars``
            cgoal, records = (table.subgoal.args[0], table.answers) \
                if reader is None else (reader.table.subgoal, self._query_fed)
            qvars, instance = term_vars(goal), _instancer(cgoal)
            out = [QueryAnswer(dict(zip(qvars, a.bindings)),
                               instance(a.bindings),
                               "undefined" if a.delay_lists else "true")
                   for a in records if not a.deleted]
        if self.query_level_tabling:
            self.space.discard_from(watermark)
        return out

    @contextmanager
    def _evaluation(self):
        """Guard one top-level evaluation; yields the table watermark.

        Only one evaluation runs at a time, and its run state is dropped
        when it ends: what outlives it is its complete tables and their
        answers, and nothing else.  Whatever
        it raises, the tables it created are dropped too, and every live
        table is left COMPLETE or INVALID; a cyclic term surfaces as
        ``EvalError("cyclic_term")``, and a term or a computation nested
        past the recursion limit as ``EvalError("resource_exhausted")``."""
        if self.query_active:
            raise EvalError("nested_query",
                            "a query is already being evaluated")
        self.program.finalize()
        watermark = self.space._dfn
        self.query_active = True
        try:
            yield watermark
        except CyclicTermError as exc:
            self._recover(watermark)
            raise EvalError("cyclic_term", str(exc)) from None
        except RecursionError:
            self._recover(watermark)
            raise EvalError("resource_exhausted", _TOO_DEEP) from None
        except BaseException:
            self._recover(watermark)
            raise
        finally:
            self.stack = []
            self.comp = []
            self._round = None
            self._query_lits = self._query_reader = self._query_fed = None
            self.query_active = False

    def _recover(self, watermark: int) -> None:
        """Drop the tables of an evaluation that raised.

        An older table that the evaluation reset and left incomplete,
        or that read a table dropped here, becomes INVALID again, and so
        does every table that reads it: each is recomputed at its next
        call, as is each table that a waiting assert marked."""
        stale = [t for t in self.space.tables
                 if t.dfn <= watermark
                 and (t.status == SubgoalTable.INCOMPLETE
                      or any(d.dfn > watermark for d in t.dep_out))]
        while stale:
            t = stale.pop()
            if t.status != SubgoalTable.INVALID:
                t.status = SubgoalTable.INVALID
                stale.extend(c for c in t.dep_in if c.dfn <= watermark)
        self.space.discard_from(watermark, force=True)

    def answers(self, goal):
        """Iterate the answers ``query`` lists, a snapshot taken at the
        first item: abolishing tables or changing code while the stream
        is open changes none of its items."""
        yield from self.query(goal)

    def _eval_wrapper(self, goal: Term) -> SubgoalTable:
        """Evaluate ``goal`` under a table of its own, which lives one
        evaluation: it is in none of the table space's maps, records no
        reads of dynamic code, and leaves the call graph as the
        evaluation ends.  ABOLISHED then, it is passed over by an abolish
        that reaches it through ``cond_dependents``."""
        cgoal, nvars = canonicalize(Struct("$query", (goal,)))
        table = SubgoalTable(self._query_pi, cgoal, nvars, self.space._dfn)
        try:
            self._activate(table)
            self._run()
        finally:
            self.space.unlink(table)
            table.status = SubgoalTable.ABOLISHED
        return table

    # ------------------------------------------------------------------
    # main loop

    def _run(self) -> None:
        stack = self.stack
        while True:
            while stack:
                entry = stack.pop()
                entry[0](*entry[1:])
            if not self._schedule():
                return

    # ------------------------------------------------------------------
    # continuation stepping

    def _step_cont(self, cont: Cont) -> None:
        """Run ``cont`` in a loop up to its first goal that branches,
        suspends, fails or ends it."""
        while True:
            goals = cont.goals
            if goals is None:
                owner = cont.owner
                ans = resolve(cont.ans, cont.frame)
                if type(owner) is Collector:
                    owner.results.append((ans, cont.delays))
                elif owner.pred.subsumption is not None:
                    self._produce(owner, ans.args, cont.delays)
                # a derivation that one probe finds settled changes nothing
                elif not ans.ground \
                        or (rec := owner.index.get(ans.args)) is None \
                        or rec.delay_lists or owner.neg_waiters:
                    self.insert_reduced(owner, ans.args, cont.delays)
                return
            lits, i, off, scope, rest = goals
            if i + 1 < len(lits):
                rest = (lits, i + 1, off, scope, rest)
            lit = lits[i]
            call = lit.call or _decode(lit, self.program)
            if lit.neg:
                going = self._call_negative(cont, call, lit.goal, off, rest)
            elif type(call) is PredicateInfo:
                goal = instantiate(lit.goal, off, cont.frame)
                if call.tabled:
                    self._call_tabled(call, cont, goal, rest)
                else:
                    self._call_inline(call, cont, goal, rest)
                return
            else:   # a builtin; an undefined predicate fails quietly
                going = call is not None and call(self, cont, lit.goal, off)
            if not going:
                return
            cont.goals = rest

    def _detach(self, cont: Cont, rest) -> Cont:
        """``cont`` to run ``rest``, copied out of its frame: its goals
        and ``ans`` instantiated, its frame empty.  Each answer returned
        to a consumer resumes such a continuation under a frame of its
        own, which holds only that answer's bindings."""
        frame = cont.frame
        segments = []
        while rest is not None:
            lits, i, off, scope, rest = rest
            segments.append((scope, tuple([
                Literal(lit.neg, instantiate(lit.goal, off, frame), lit.call)
                for lit in lits[i:]])))
        for scope, lits in reversed(segments):
            rest = (lits, 0, 0, scope, rest)
        return Cont(cont.owner, resolve(cont.ans, frame), rest, cont.delays,
                    cont.scopes, cont.k, cont.nv, {})

    # ------------------------------------------------------------------
    # answer production

    def _produce(self, table: SubgoalTable, bindings: tuple, delays: tuple):
        if table.pred.subsumption is None:
            self.insert_reduced(table, bindings, delays)
        elif delays:
            raise EvalError(
                "subsumption_conditional",
                f"conditional answer for {table.pred} under answer "
                "subsumption")
        else:
            subsumption.apply(self, table, bindings)

    def insert_reduced(self, table: SubgoalTable, bindings: tuple,
                       delays: tuple = ()):
        """Plain insert plus strategy-dependent propagation."""
        status, rec = self.space.add_answer(table, bindings, delays)
        if status == "added":
            if self.strategy == "batched":
                for c in table.consumers:
                    self._feed_consumer(c)
            elif self._round is not None:
                self._round.dirty.add(table)
        if table.neg_waiters and table.subgoal_is_ground() \
                and table.has_unconditional:
            for w in table.neg_waiters:
                if not w.dead:
                    self._kill_waiter(w)
                    self._op("negative_return", "NEGATIVE_RETURN", table)
            table.neg_waiters = []
        return status, rec

    # ------------------------------------------------------------------
    # tabled calls

    def _call_tabled(self, pi: PredicateInfo, cont: Cont, goal: Term,
                     rest) -> None:
        table = self._intern(pi, goal)
        self._note_call(cont, table, neg=False)
        consumer = Consumer(table, goal, self._detach(cont, rest),
                            self.program)
        if cont.goals[0] is self._query_lits and consumer.vars is not None \
                and consumer.heap is None:
            # the query goal's variant call: its answers are the records
            # it is fed
            self._query_reader, self._query_fed = consumer, []
        if table.complete:
            answers = table.answers
            if consumer.vars is None:
                # a subsumed call reads the answers its trie walk keeps
                answers = table.answer_trie.matching_leaves(*consumer.terms)
                answers.sort(key=attrgetter("seq"))
            elif table.reads is not None and cont.owner.reads is not None:
                consumer.cursor = len(answers)
                table.consumers.append(consumer)
            self._push_returns(consumer, answers)
            return
        table.consumers.append(consumer)
        if self._round is not None:
            self._round.dirty.add(table)
        if self.strategy == "batched":
            self._feed_consumer(consumer)

    def _intern(self, pi: PredicateInfo, goal: Term,
                variant: bool = False) -> SubgoalTable:
        """The table a call of ``goal`` reads, set up to run if new."""
        table, is_new = self.space.check_insert_subgoal(pi, goal, variant)
        if table.status == SubgoalTable.INVALID:
            is_new = not any(table in ts for _, _, ts in self.space.deltas)
            if is_new:
                self.reset_for_recompute(table)
            else:
                self._run_deltas()
        if is_new:
            self._activate(table)
        elif table.status == SubgoalTable.INCOMPLETE:
            # findall cannot read a table that an enclosing evaluation has
            # not completed, by a variant call or by a subsumed one: an
            # incomplete table off this evaluation's completion stack
            comp, pos = self.comp, table.stack_pos
            if pos >= len(comp) or comp[pos] is not table:
                raise EvalError(
                    "incomplete_outer",
                    f"call to {term_to_str(goal)} reads table "
                    f"{term_to_str(table.subgoal)}, incomplete in an "
                    "enclosing evaluation")
        return table

    def _activate(self, table: SubgoalTable) -> None:
        """First call of a subgoal: set up its producers."""
        self._op("new_subgoal", "NEW_SUBGOAL", table)
        table.stack_pos = len(self.comp)
        self.comp.append(table)
        self._round = None
        if table.pred is self._query_pi:
            cont = self._body_cont(table, _answer_vars(table),
                                   table.subgoal.args[0], table.nvars)
            lits = cont.goals[0]
            self._query_lits = lits if len(lits) == 1 else None
            self.stack.append((self._step_cont, cont))
            return
        self._push_clauses(table, table, self.stack)

    def _push_clauses(self, table: SubgoalTable, owner, stack: list):
        """Push on ``stack`` what resolves the clauses of ``table`` for
        ``owner``; the clause of a collector is no new node."""
        # the root continuation of the producers: no goals, no cut scopes
        # (a tabled clause cannot cut), answers are bindings
        root = Cont(owner, _answer_vars(table), None, (), (), self.K,
                    table.nvars, {})
        for clause, env in reversed(self.program.lookup_clauses(
                table.subgoal, root.nv, self.occurs_check)):
            stack.append((self._resolve_clause, root, clause, env)
                         if owner is table else
                         (self._push_body, root, clause, env, None, root.k))

    def _resolve_clause(self, root: Cont, clause: Clause, env) -> None:
        """Resolve a clause of the producer of ``root.owner``: by its plan
        where ``root`` ends with no variables, else by ``_push_body``."""
        k = self._op("clause_resolution", "PROGRAM_CLAUSE_RESOLUTION",
                     root.owner)
        plan = clause.plan
        if plan is None:    # a row of the head's variables, its first ones
            head = clause.head.args if type(clause.head) is Struct else ()
            ids = range(len(head))
            plan = clause.plan = _return_plan(
                clause.body, ids, None, self.program) \
                if clause.body and head == tuple(map(Var, ids)) else False
        pi = plan and plan.pred     # which a consult may have changed
        if plan and root.goals is None and not root.nv and not (
                pi.tabled or pi.dynamic or pi.general_clauses) \
                and (plan.neg is None or plan.neg[0].tabled):
            base = tuple([env[j] for j in range(len(env))])
            state = Cont(root.owner, root.ans, None, root.delays,
                         root.scopes, k, clause.nvars, {})
            self._join_facts(state, plan, base, root.delays,
                             plan.facts(base, self.program), 0,
                             partial(self._enter, state, k, plan.neg), None)
            return
        self._push_body(root, clause, env, None, k)

    def _body_cont(self, owner, ans: Term, body: Term, nv: int) -> Cont:
        """A state that runs the goal ``body``, which opens a cut scope,
        and produces ``ans``; its variables are those below ``nv``."""
        _, lits = split_clause(Struct(":-", (_BODY_HEAD, body)))
        scope = None
        if has_cut(lits):
            self._scope_seq += 1
            scope = self._scope_seq
        return Cont(owner, ans, (lits, 0, 0, scope, None), (),
                    (scope,) if scope is not None else (), self.K, nv, {})

    def _push_body(self, cont: Cont, clause: Clause, env, scope, k: int,
                   shared: bool = False):
        """Run a clause whose head unified under ``env``, its variables
        renamed above ``cont.nv``, ahead of the goals of ``cont``; a
        ``shared`` frame is left as it is for the call's other clauses."""
        frame = cont.frame
        if shared or not frame:
            frame = {**frame, **env}
        else:
            frame.update(env)
        off = cont.nv
        goals = cont.goals
        if clause.body:
            goals = (clause.body, 0, off, scope, goals)
        limit = cont.limit
        if len(frame) > limit:
            frame, limit = _compact(frame, goals, cont.ans)
        self._step_cont(Cont(cont.owner, cont.ans, goals, cont.delays,
                             cont.scopes, k, off + clause.nvars, frame, limit))

    # ------------------------------------------------------------------
    # answer return

    def _feed_consumer(self, consumer: Consumer, one: bool = False) -> bool:
        """Feed a consumer the answers past its cursor; whether any."""
        if consumer.table.pred.subsumption is not None:
            return self._feed_reduced(consumer, one)
        i = consumer.cursor
        consumer.cursor = len(consumer.table.answers)
        return self._push_returns(consumer, consumer.table.answers, i)

    def _push_returns(self, consumer: Consumer, answers: list,
                      i: int = 0) -> bool:
        """Feed the live answers of ``answers[i:]``, in order."""
        n = len(answers)
        while i < n and answers[i].deleted:
            i += 1
        if i < n:
            self.stack.append((self._resume, consumer, answers, i, n))
        return i < n

    def _feed_reduced(self, consumer: Consumer, one: bool) -> bool:
        """Feed a consumer of an answer-subsumption table best value first,
        ties in answer order: the records past its cursor join its heap,
        keyed by (value, ``seq``), the value reversed for ``max``, and a
        record that replacement deleted is dropped as it pops.  With
        ``one`` set, a scheduling round feeds only the best answer.
        Relaxing the globally best answer first means (for min-style
        joins over non-negative costs) a fed record is never improved
        afterwards, so each stored answer returns to each consumer once."""
        heap = consumer.heap
        table = consumer.table
        key = _Desc if table.pred.subsumption.kind == "max" else tuple
        slot = table.as_slot
        answers = table.answers
        for a in answers[consumer.cursor:]:
            if not a.deleted:
                heappush(heap, (key(order_key(a.bindings[slot])), a.seq, a))
        consumer.cursor = len(answers)
        pending = []
        while heap and not (one and pending):
            a = heappop(heap)[2]
            if not a.deleted:
                pending.append(a)
        return self._push_returns(consumer, pending)

    def _resume(self, consumer: Consumer, answers: list, i: int,
                n: int) -> None:
        """Return ``answers[i:n]`` to ``consumer`` in order, passing over
        deleted ones, while it lives.  What an answer's return pushes runs
        before the rest of the range; under a cut scope the rest waits on
        the stack, where ``_cut`` finds it, while each answer runs.  No
        owner completes inside the range: completion waits for the stack."""
        if consumer.cont.owner.complete:
            return
        stack, table, plan = self.stack, consumer.table, consumer.plan
        if consumer is self._query_reader:
            for ans in answers[i:n]:
                if not ans.deleted:
                    self._op("positive_return", "POSITIVE_RETURN", table)
                    self._query_fed.append(ans)
            return
        hold = bool(consumer.scopes)
        if plan is not None:
            cont = consumer.cont
            owner, delays, proj = cont.owner, cont.delays, plan.proj
            sups = type(owner) is Collector     # supports are records
            if sups:
                produce, index = Collector.derive, None
                delays = tuple([d.ans for d in delays])
            elif owner.pred.subsumption is None:
                produce, index = self.insert_reduced, owner.index
            else:
                produce, index = self._produce, None
            pi, (lookup, slot) = plan.pred, plan.direct or (None, 0)
        while i < n:
            ans = answers[i]
            i += 1
            if ans.deleted:
                continue
            mark = len(stack)
            if hold and i < n:
                stack.append((self._resume, consumer, answers, i, n))
            if plan is None or ans.nvars and pi is not None:
                self._return_answer(consumer, ans)
            else:
                self._op("positive_return", "POSITIVE_RETURN", table)
                b, d = ans.bindings, delays
                if ans.delay_lists or sups:
                    d += (ans,) if sups else (DelayLit(False, table, ans),)
                if pi is None:
                    # a last call: a derivation that meets a settled answer
                    # of the owner by one probe of its index changes nothing
                    if ans.nvars or index is None or (rec := index.get(
                            proj(b))) is None or rec.delay_lists \
                            or owner.neg_waiters:
                        produce(owner, proj(b), d)
                else:
                    a = b[slot] if lookup else None
                    self._join_facts(cont, plan, b, d, lookup(a)
                                     if type(a) is Atom or type(a) is Int
                                     else plan.facts(b, self.program), 0,
                                     produce, index)
            if hold or len(stack) > mark:
                if not hold and i < n:
                    stack.insert(mark, (self._resume, consumer, answers, i, n))
                return

    def _return_answer(self, consumer: Consumer, ans) -> None:
        """Return one answer to a call by the general path: unify its goal
        map with the bindings, renamed above its variables if any, and run
        on."""
        cont = consumer.cont
        nv = cont.nv
        bindings = ans.bindings
        if ans.nvars:
            bindings = [rename(b, nv) for b in bindings]
        if consumer.vars is not None:
            env = dict(zip(consumer.vars, bindings))
        else:
            env = unify_all(consumer.terms, bindings, self.occurs_check)
            if env is None:
                return
            # a table owner takes an instance again while it is
            # conditional (the delay literal differs); findall ignores
            # delays
            seen = consumer.seen
            key = variant_tuple([resolve(t, env) for t in consumer.terms])[0]
            if seen.get(key) or key in seen \
                    and type(cont.owner) is Collector:
                return
            seen[key] = not ans.conditional
        table = consumer.table
        k = self._op("positive_return", "POSITIVE_RETURN", table)
        delays = cont.delays
        if ans.delay_lists or type(cont.owner) is Collector \
                and cont.owner.supports:        # conditional, or a support
            delays = delays + (DelayLit(False, table, ans),)
        self._step_cont(Cont(cont.owner, cont.ans, cont.goals, delays,
                             cont.scopes, k, nv + ans.nvars, env))

    def _join_facts(self, cont: Cont, plan: ReturnPlan, base: tuple,
                    delays: tuple, facts: list, i: int, produce,
                    index) -> None:
        """Hand ``cont.owner`` the answer of each fact from ``facts[i]``
        on that joins the ground row ``base`` (``plan``) through
        ``produce``, but a duplicate that one probe of ``index`` finds
        would change nothing.  A fact whose work pushes entries (a batched
        feed, a new table) leaves an entry for the facts still to join
        beneath them: they run first, as before each next fact inline."""
        owner = cont.owner
        checks, arith, proj = plan.checks, plan.arith, plan.proj
        stack = self.stack
        n = len(facts)
        while i < n:
            args = facts[i].head.args
            i += 1
            row = base + args
            for p, s in checks:
                a = args[p]
                if a is not row[s] and a != row[s]:
                    break
            else:
                for f in arith:
                    row += (Int(f(row)),)
                row = proj(row)
                if index is not None and (rec := index.get(row)) is not None \
                        and not rec.delay_lists and not owner.neg_waiters:
                    continue
                mark = len(stack)
                produce(owner, row, delays)
                if len(stack) > mark and i < n:
                    stack.insert(mark, (self._join_facts, cont, plan, base,
                                        delays, facts, i, produce, index))
                    return

    def _enter(self, cont: Cont, k: int, neg, owner, row: tuple,
               delays: tuple) -> None:
        """``produce`` at clause entry, ``cont`` at node ``k``: the answer
        ``()`` once ``row``'s ``tnot`` passes."""
        if neg is not None:     # each fact's ``tnot`` starts afresh
            cont.k, cont.delays = k, delays
            goal = _row_goal(neg[0].name, neg[1], row)
            delays = self._negate(cont, neg[0], goal, None) and cont.delays
        if delays is not None:
            self.insert_reduced(owner, (), delays)

    # ------------------------------------------------------------------
    # inline (non-tabled) resolution

    def _call_inline(self, pi: PredicateInfo, cont: Cont, goal: Term,
                     rest) -> None:
        if pi.dynamic:
            caller = self._owner_of(cont)
            # a query's own table is gone before any update could reach it
            if caller is not None and caller.pred is not self._query_pi:
                # findall sees every copy of a clause; a cut, enclosing
                # the call or among the predicate's clauses, their order
                ordered = (pi.cut_clauses > 0 or bool(cont.scopes)
                           or type(cont.owner) is Collector)
                self.space.note_dyn_read(caller, pi.key, ordered)
                if caller.reads is not None and pi.incremental_source:
                    # an assert resumes it against the new clause
                    caller.reads.append((goal, self._detach(cont, rest)))
        clauses = self.program.lookup_clauses(goal, cont.nv,
                                              self.occurs_check)
        if not clauses:
            return
        scope = None
        after = Cont(cont.owner, cont.ans, rest, cont.delays, cont.scopes,
                     cont.k, cont.nv, cont.frame, cont.limit)
        if pi.cut_clauses:
            # the call opens a cut scope: a ! in one of its clauses
            # discards every entry still carrying it, its other clauses
            # first of all
            self._scope_seq += 1
            scope = self._scope_seq
            after.scopes = cont.scopes + (scope,)
        # the last clause to run binds into the frame in place
        last = clauses[-1][0]
        for clause, env in reversed(clauses):
            self.stack.append((self._push_body, after, clause, env, scope,
                               after.k, clause is not last))

    # ------------------------------------------------------------------
    # cut

    def _cut(self, scope: int) -> None:
        # element 1 of every run-stack entry carries the cut scopes it
        # runs under; a producer's root continuation carries none
        self.stack[:] = [e for e in self.stack if scope not in e[1].scopes]
        # so would a reader suspended under it on an incomplete table, all
        # of which are on the completion stack (a sub-evaluation's scopes
        # never reach an outer table); a complete table's are finished
        for t in self.comp:
            for c in t.consumers:
                if scope in c.scopes:
                    raise EvalError(
                        "cut_over_incomplete_table",
                        f"! would discard a consumer of incomplete table "
                        f"{term_to_str(t.subgoal)}")
            for w in t.neg_waiters:
                if not w.dead and scope in w.cont.scopes:
                    raise EvalError(
                        "cut_over_incomplete_table",
                        f"! would discard a negation suspended on incomplete "
                        f"table {term_to_str(t.subgoal)}")

    # ------------------------------------------------------------------
    # negation

    def _call_negative(self, cont: Cont, pi, goal: Term, off: int,
                       rest) -> Optional[Cont]:
        """Call ``tnot goal``, ``goal`` as written and ``pi`` what it
        calls: ``cont`` to go on with, if a complete table resolves it,
        else None (the call fails or suspends)."""
        goal = instantiate(goal, off, cont.frame)
        if not is_ground(goal):
            raise EvalError(
                "floundered",
                f"tnot {term_to_str(goal)}: negative call is not ground")
        if type(pi) is not PredicateInfo or not pi.tabled:
            name, arity = functor_of(goal)
            raise EvalError(
                "negation_untabled",
                f"tnot {term_to_str(goal)}: predicate {name}/{arity} is "
                "not tabled")
        return self._negate(cont, pi, goal, rest)

    def _negate(self, cont: Cont, pi: PredicateInfo, goal: Term,
                rest) -> Optional[Cont]:
        """The ground half of ``tnot goal``: ``cont``, if a complete table
        resolves it, else None (it fails, or ``cont`` waits for ``rest``)."""
        # a ground negative call reads a table of exactly its atom, or,
        # under answer subsumption, of its plain arguments
        table = self._intern(pi, goal, variant=True)
        self._note_call(cont, table, neg=True)
        if table.complete:
            return self._negative_return(cont, table, goal)
        if table.has_unconditional and pi.subsumption is None:
            self._op("negative_return", "NEGATIVE_RETURN", table)
            return None     # the path fails now: an answer already exists
        self._waiter_seq += 1
        w = NegWaiter(table, goal, self._detach(cont, rest), self._waiter_seq)
        table.neg_waiters.append(w)
        # a new edge has dropped the round state; with an old edge it
        # stays and learns of the waiter here
        if self._round is not None:
            self._round.add_waiter(w)

    def _kill_waiter(self, w: NegWaiter) -> None:
        """A waiter is resolved: by an answer, a completion or a delay."""
        w.dead = True
        if self._round is not None:
            self._round.drop_waiter(w)

    def _negative_return(self, cont: Cont, table: SubgoalTable,
                         goal: Term) -> Optional[Cont]:
        """Resolve ``tnot goal`` against its completed table: ``cont`` to
        go on with, at the new node and delaying the literal if the table
        has only conditional answers for it, or None if the call fails."""
        cont.k = self._op("negative_return", "NEGATIVE_RETURN", table)
        spec = table.pred.subsumption
        # under answer subsumption the table is the one of the goal's plain
        # arguments, its one variable the aggregated argument
        if not table.has_answers or spec is not None and (
                goal.args[spec.position],) not in table.index:
            return cont
        if table.has_unconditional:
            return None
        cont.delays += (DelayLit(True, table, None),)
        return cont

    # ------------------------------------------------------------------
    # scheduling
    #
    # A round runs when the run stack drains: it feeds answers inside
    # their SCCs (local strategy), else completes the ready sinks, else
    # delays one literal.  It reads the ``RoundState``, which holds the
    # partition of the top segment and what the rounds learn about it.
    # Whatever changes that graph drops the state, to be rebuilt at the
    # next round: a new table, a new edge to an incomplete table, or a
    # completion.  The delay rounds of a negative loop leave the graph
    # alone, so none of them rescans the segment, the region or the
    # waiters.  A sub-evaluation keeps the state of the one it runs in:
    # it completes every table it makes, and reads no incomplete table
    # of an enclosing evaluation (``incomplete_outer``).

    def _schedule(self) -> bool:
        comp = self.comp
        if not comp:
            return False
        rs = self._round = self._round or self._new_round()
        if self.strategy == "local" and rs.dirty and self._feed_local(rs):
            return True
        if rs.open:
            done = [rs.comps[i] for i in rs.sinks if not rs.blocked[i]]
            for scc in done:
                self._complete_scc(scc)
            # the completed tables, all in the top segment, leave the stack
            low = min(t.stack_pos for scc in done for t in scc)
            comp[low:] = [t for t in comp[low:] if not t.complete]
            for i in range(low, len(comp)):
                comp[i].stack_pos = i
            return True
        self._delay(rs)
        return True

    def _new_round(self) -> RoundState:
        """Partition the top segment of the completion stack afresh: the
        call graph changed (a table, an edge to an incomplete table, or a
        completion) since the last round state was built."""
        segment = self._top_segment(self.comp)
        edges = {t: [d for d in t.dep_out if not d.complete]
                 for t in segment}
        return RoundState(tarjan_sccs(segment, edges.__getitem__), edges)

    def _top_segment(self, comp: List[SubgoalTable]) -> List[SubgoalTable]:
        """Longest top run of the completion stack closed under
        dependencies on incomplete tables."""
        bound = i = len(comp) - 1
        while True:
            for dep in comp[i].dep_out:
                if not dep.complete and dep.stack_pos < bound:
                    bound = dep.stack_pos
            if i <= bound:
                break
            i -= 1
        return comp[bound:]

    def _feed_local(self, rs: RoundState) -> bool:
        """Feed answers to consumers inside their own SCC, in the order
        (SCC, table, consumer); only dirty tables can have any to feed."""
        comp_of = rs.comp_of
        tables = sorted((t for t in rs.dirty if t in comp_of),
                        key=rs.rank.__getitem__)
        rs.dirty = set()
        fed = False
        for t in tables:
            i = comp_of[t]
            for c in t.consumers:
                if comp_of.get(c.cont.owner) == i \
                        and self._feed_consumer(c, one=True):
                    fed = True
                    # an answer-subsumption table feeds one answer a round
                    if t.pred.subsumption is not None:
                        rs.dirty.add(t)
        return fed

    def _delay(self, rs: RoundState) -> None:
        """Every sink of the quiesced segment is a negative loop: delay
        the oldest literal waiting on one of them from the blocked
        region, the continuation with the smallest node number K."""
        if rs.heap is None:
            rs.region = self._blocked_region(rs)
            rs.heap = [(w.cont.k, rs.rank[t], w.seq, w)
                       for i in rs.sinks for t in rs.comps[i]
                       for w in t.neg_waiters
                       if not w.dead and w.cont.owner in rs.region]
            heapify(rs.heap)
        heap = rs.heap
        while heap and heap[0][3].dead:
            heappop(heap)
        if not heap:
            raise EvalError("internal", "blocked region without waiters")
        best = heappop(heap)[3]
        self._kill_waiter(best)
        cont = best.cont
        cont.k = self._op("delaying", "DELAYING", best.table)
        cont.delays += (DelayLit(True, best.table, None),)
        self.stack.append((self._step_cont, cont))

    def _blocked_region(self, rs: RoundState) -> Set[SubgoalTable]:
        """The sink SCCs, all blocked, plus, transitively, any incomplete
        table (inside the segment or suspended below it) whose unresolved
        dependencies all lead into the region.

        A unit (an SCC of the segment, or one table below it) waits on
        its incomplete dependencies outside itself and joins once none
        is left; a table that joins tells its callers, so each edge is
        looked at a bounded number of times."""
        comps, comp_of = rs.comps, rs.comp_of
        joined = [t for i in rs.sinks for t in comps[i]]
        waiting: Dict[object, Set[SubgoalTable]] = {}
        for i, scc in enumerate(comps):
            if not rs.is_sink[i]:
                waiting[i] = {d for t in scc for d in t.dep_out
                              if not d.complete and comp_of.get(d) != i}
        for t in self.comp:
            if t not in comp_of:
                # a table below with no incomplete dependency stays out
                deps = {d for d in t.dep_out if not d.complete}
                if deps:
                    waiting[t] = deps
        region: Set[SubgoalTable] = set()
        while joined:
            x = joined.pop()
            region.add(x)
            for caller in x.dep_in:
                unit = comp_of.get(caller, caller)
                deps = waiting.get(unit)
                if deps is not None and x in deps:
                    deps.remove(x)
                    if not deps:
                        del waiting[unit]
                        joined.extend(comps[unit] if type(unit) is int
                                      else (unit,))
        return region

    # ------------------------------------------------------------------
    # completion

    def _complete_scc(self, scc) -> None:
        for t in scc:
            t.status = SubgoalTable.COMPLETE
        self._round = None
        for t in scc:
            self._trace("COMPLETION", t)
            self.space.on_completed(t)
        self._answer_completion(scc)
        for t in scc:
            self._post_complete(t)

    def _answer_completion(self, scc) -> None:
        """Delete conditional answers whose positive delay support is
        unfounded: every delay list leads through a positive literal
        back into the same cycle of conditional answers, with no
        unconditional ground to stand on.  Negative delay literals do
        not block support (they stay merely undefined).  Without this,
        residual programs like ``p :- p`` survive as spurious
        undefineds."""
        members = set(scc)
        while True:
            # simplification strikes each positive literal on an
            # unconditional answer: only conditional answers need support
            conds = [a for t in scc for a in t.answers if a.conditional]
            if not conds:
                return
            supported: Set[object] = set()

            def ok(lit):
                if lit.neg:
                    return True
                if lit.ans.table not in members:
                    return not lit.ans.deleted   # settled at its own SCC
                return lit.ans in supported

            changed = True
            while changed:
                changed = False
                for a in conds:
                    if a in supported:
                        continue
                    if any(not dl.dead and all(ok(l) for l in dl.lits)
                           for dl in a.delay_lists):
                        supported.add(a)
                        changed = True
            victims = [a for a in conds if a not in supported]
            if not victims:
                return
            for a in victims:
                for dl in list(a.delay_lists):
                    self.space._kill_dl(dl)
            self.space._pump()

    def _post_complete(self, table: SubgoalTable) -> None:
        for w in table.neg_waiters:
            if not w.dead:
                self._kill_waiter(w)
                cont = self._negative_return(w.cont, table, w.goal)
                if cont is not None:    # to run at once would reorder them
                    self.stack.append((self._step_cont, cont))
        table.neg_waiters = []
        for c in table.consumers:
            # catch up; its feed entries still run, so the consumer is
            # merely finished, not discarded
            self._feed_consumer(c)
        # an assert reads again only the readers owned by tables it may
        # reopen; the feed entries hold their own references
        if table.reads is not None and not table.monotone():
            table.reads = None
        table.consumers = [] if table.reads is None else [
            c for c in table.consumers if c.cont.owner.reads is not None]

    # ------------------------------------------------------------------
    # sub-evaluations (findall, join/leq)

    def _sub_eval(self, owner_table: Optional[SubgoalTable],
                  template: Term, goal: Term, nv: int) -> List[Term]:
        """Evaluate goal in a fresh context; collect template instances.
        An instance that leans on an answer simplification deleted by the
        end is dropped; one still conditional stays (delays are ignored).

        The caller's variables are shared: the goal and template arrive
        already instantiated, fresh variables start at nv."""
        collector = Collector(owner_table)
        self._sub_run([(self._step_cont,
                        self._body_cont(collector, template, goal, nv))])
        return [r for r, delays in collector.results
                if not any(not d.neg and d.ans.deleted for d in delays)]

    def _sub_run(self, entries: list) -> None:
        """Run the run-stack ``entries`` to quiescence in a context of
        their own: the run stack, the completion stack and the round
        state of the evaluation they run in are set aside meanwhile."""
        saved = self.stack, self.comp, self._round
        self.stack, self.comp, self._round = entries, [], None
        try:
            self._run()
        finally:
            self.stack, self.comp, self._round = saved

    def _owner_of(self, cont: Cont) -> Optional[SubgoalTable]:
        owner = cont.owner
        return owner if isinstance(owner, SubgoalTable) \
            else owner.owner_table

    def _note_call(self, cont: Cont, table: SubgoalTable, neg: bool) -> None:
        """Record the call edge from the table ``cont`` works for to
        ``table``; a new edge to an incomplete table may merge SCCs."""
        caller = self._owner_of(cont)
        if caller is None:
            return
        if not table.complete and table not in caller.dep_out:
            self._round = None
        self.space.note_call_edge(caller, table, neg)

    # ------------------------------------------------------------------
    # incremental support hooks

    def reset_for_recompute(self, table: SubgoalTable) -> None:
        self.space.reset_table(table)

    def _run_deltas(self) -> None:
        """Follow the waiting changes (``incremental``).  The tables of
        the waiting asserts go back on the completion stack with their
        answers and the readers they kept whose owners reopen too, and
        each read they stored that a clause unifies with resumes against
        that clause alone.  A retract waits alone."""
        deltas, self.space.deltas = self.space.deltas, []
        if deltas[0][0] == "retract":
            self._follow_retract(*deltas[0][1:])
            return
        tables = {t for _, _, ts in deltas for t in ts}
        self._reopen(sorted(tables, key=attrgetter("dfn")), tables)
        resumed = [(self._resolve_clause, read[1], clause, env)
                   for _, clause, ts in deltas for t in ts for read in t.reads
                   if (env := self._read_env(clause.head, read)) is not None]
        self.stack.extend(reversed(resumed))    # to run in order

    def _read_env(self, fact: Term, read: tuple) -> Optional[dict]:
        """The unifier of a changed ``fact`` with the goal of a stored
        ``read``, or None.  Atoms and integers are interned, so one of
        the goal's first argument that is not ``fact``'s, which is no
        variable, fails by one identity test."""
        goal, cont = read
        if type(goal) is Struct and type(fact) is Struct:
            a, b = goal.args[0], fact.args[0]
            if (type(a) is Atom or type(a) is Int) and a is not b \
                    and type(b) is not Var:
                return None
        return _head_unifier(fact, cont.nv, goal, self.occurs_check)

    def _reopen(self, tables: List[SubgoalTable], owners) -> None:
        """Put ``tables`` back on the completion stack with their answers,
        keeping the readers on them whose owners are among ``owners``."""
        for t in tables:
            t.status = SubgoalTable.INCOMPLETE
            t.stack_pos = len(self.comp)
            self.comp.append(t)
            t.consumers = [c for c in t.consumers if c.cont.owner in owners]
        self._round = None

    def _follow_retract(self, fact: Term, tables: List[SubgoalTable]) -> None:
        """Follow the retract of ``fact`` into ``tables``, monotone and
        complete (``incremental``); a check that raises leaves them to be
        reset."""
        for t in tables:
            t.status = SubgoalTable.COMPLETE
        try:
            readers, doomed = self._retract_check(fact, tables)
        except BaseException:
            for t in tables:
                t.status = SubgoalTable.INVALID
            raise
        refresh = dict.fromkeys(readers)
        for c in doomed:
            self.space.delete_answer(c.table, c)
            refresh.update(dict.fromkeys(c.table.dep_in))
        refresh = sorted(refresh, key=attrgetter("dfn"))
        for t in refresh:
            self.space.drop_reads(t)
        self._reopen(refresh, set(tables))
        for t in reversed(refresh):
            self._push_clauses(t, t, self.stack)

    def _retract_check(self, fact: Term, tables: List[SubgoalTable]):
        """The tables with a stored read that the retracted ``fact``
        unifies with, and the answers of ``tables`` left without a
        derivation: the check in stamp order of ``incremental``.  Those
        tables derive their answers whole: their kept readers may have
        come through ``fact``."""
        readers = [t for t in tables
                   if any(self._read_env(fact, read) is not None
                          for read in t.reads)]
        probes = dict.fromkeys(readers, False)
        heap = [(a.seq, a) for t in readers for a in t.answers
                if not a.deleted]
        queued = {a for _, a in heap}
        heapify(heap)
        doomed: Dict[object, None] = {}     # in stamp order
        while heap:
            seq, c = heappop(heap)
            if any(all(s.seq < seq and s not in doomed for s in sup)
                   for sup in self._gives(c, probes)):
                continue
            doomed[c] = None
            for u in self._users(c):
                if u.seq > seq and u not in queued:
                    queued.add(u)
                    heappush(heap, (u.seq, u))
        work = list(doomed)[::-1]
        while work:
            c = work.pop()
            if c in doomed and any(all(s not in doomed for s in sup)
                                   for sup in self._gives(c, probes)):
                del doomed[c]
                self.space._ans_seq += 1
                c.seq = self.space._ans_seq
                work.extend(u for u in self._users(c) if u in doomed)
        return readers, doomed

    def _gives(self, c, probes: dict) -> list:
        """The supports of each derivation of the answer ``c``: by index
        probes where ``_probes`` of its table are exact for it, else from
        ``_derivations``.  ``probes`` keeps either per table for one
        check; False there marks a table to derive whole."""
        t, b = c.table, c.bindings
        p = probes.get(t)
        if p is None:
            p = probes[t] = self._probes(t)
        if type(p) is not dict and (p is False or c.nvars):
            p = probes[t] = self._derivations(t)
        if type(p) is dict:
            return p.get(c, ())
        facts, reads = p
        out = []
        for pi, goal in facts:      # each fact that is ``c``'s instance
            g = substitute(goal, b)
            out += [() for f in self.program._candidates(pi, g)[1]
                    if f.head.args == g.args]
        return out + [(s,) for index, inv in reads
                      if (s := index.get(tuple([b[i] for i in inv])))]

    def _probes(self, t: SubgoalTable):
        """How an answer of ``t`` finds its derivations by index probes:
        ``(facts, reads)``, the call of each clause that is one call of
        ground facts, over ``t``'s variables, and each reader ``t`` kept,
        a last call, as its callee's index and the answer slot of each
        of its row's; False where a probe may miss a derivation."""
        facts, reads = [], []
        for clause, _ in self.program.lookup_clauses(
                t.subgoal, t.nvars, self.occurs_check):
            lit = clause.body[-1] if clause.body else None
            pi = lit and (lit.call or _decode(lit, self.program))
            if type(pi) is PredicateInfo and pi.tabled and not lit.neg:
                continue        # by the readers of this last call
            env = match(clause.head, t.subgoal)
            if len(clause.body) != 1 or lit.neg or env is None \
                    or type(pi) is not PredicateInfo or pi.general_clauses \
                    or type(lit.goal) is not Struct \
                    or any(v not in env for v in term_vars(lit.goal)):
                return False
            facts.append((pi, substitute(lit.goal, env)))
        for callee in t.dep_out:
            mine = [r for r in callee.consumers if r.cont.owner is t]
            row = tuple(range(callee.nvars))
            if not callee.complete or not mine:
                return False
            for r in mine:
                if r.plan is None or r.plan.pred is not None \
                        or r.cont.delays \
                        or sorted(slots := r.plan.proj(row)) != list(row):
                    return False
                reads.append((callee.index, [slots.index(j) for j in row]))
        return facts, reads

    def _users(self, c) -> list:
        """The answers that a derivation through the answer ``c`` may give
        its table's readers' owners, by the readers kept on it: one probe
        of the owner's index for a last call, the facts ``c``'s row joins
        for a fact join, every answer of the owner for any other reader.
        Too many is safe: ``_gives`` decides."""
        out, b = [], c.bindings
        for r in c.table.consumers:
            owner, plan = r.cont.owner, r.plan
            if plan is None or c.nvars:
                out += owner.answers
            elif plan.pred is None:
                out.append(owner.index.get(plan.proj(b)))
            else:
                rows: list = []
                self._join_facts(r.cont, plan, b, (),
                                 plan.facts(b, self.program), 0,
                                 lambda _, row, __: rows.append(row), None)
                out += map(owner.index.get, rows)
        return [u for u in out if u is not None and not u.deleted]

    def _derivations(self, table: SubgoalTable) -> dict:
        """Each derivation of the clauses of ``table`` from the facts and
        the answers the tables hold now, with its supports, the answers it
        consumed: ``{answer: [supports]}``.  A fused return gives a
        derivation as bindings and records, the general path as a term
        and delay literals."""
        collector = Collector(None, supports=True)
        entries: list = []
        self._push_clauses(table, collector, entries)
        self._sub_run(entries)
        index = table.index
        gives: dict = {}
        for row, sup in collector.results:
            if type(row) is Struct:     # by the general path
                row, sup = row.args, tuple([d.ans for d in sup])
            # one probe finds a ground row; a row with variables is renamed
            c = index.get(row) or index.get(variant_tuple(row)[0])
            gives.setdefault(c, []).append(sup)
        return gives

    # ------------------------------------------------------------------
    # join / leq evaluation for answer subsumption

    def eval_join(self, key, a: Term, b: Term) -> Term:
        """Run join(a, b, Z); it must succeed deterministically."""
        name, _ = key
        goal = Struct(name, (a, b, Var(0)))
        distinct: Dict[Term, Term] = {}     # the first result of each variant
        for r in self._sub_eval(None, Var(0), goal, 1):
            distinct.setdefault(canonicalize(r)[0], r)
        if not distinct:
            raise EvalError("join_failed",
                            f"{name}/3 failed on "
                            f"{term_to_str(a)}, {term_to_str(b)}")
        if len(distinct) > 1:
            raise EvalError("join_nondet",
                            f"{name}/3 is nondeterministic on "
                            f"{term_to_str(a)}, {term_to_str(b)}")
        return next(iter(distinct.values()))

    def eval_leq(self, key, a: Term, b: Term) -> bool:
        name, _ = key
        self.counters["leq"] += 1
        goal = Struct(name, (a, b))
        return bool(self._sub_eval(None, Atom("true"), goal, 0))

    # ------------------------------------------------------------------
    # table management façade

    def abolish_all(self) -> None:
        self._guard_no_query("abolish")
        self.space.abolish_all()

    def abolish_pred(self, name: str, arity: int) -> None:
        self._guard_no_query("abolish")
        self.space.abolish_pred((name, arity))

    def abolish_call(self, goal) -> None:
        """Abolish the table a variant call of ``goal`` reads, never a
        subsuming one."""
        self._guard_no_query("abolish")
        if isinstance(goal, str):
            goal = parse_goal(goal).term
        self.space.abolish_call(goal)

    def _guard_no_query(self, what: str) -> None:
        if self.query_active:
            raise EvalError("query_active",
                            f"{what} attempted during query evaluation")


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def _compact(frame, goals, ans: Term):
    """The bindings of ``frame`` that ``goals`` and ``ans`` can reach,
    and the size to compact them at again: past twice the work of
    finding them, so that compaction costs a constant per binding."""
    todo: list = [] if ans.ground else [ans]
    while goals is not None:
        lits, i, off, _, goals = goals
        todo += [Var(v + off) for lit in lits[i:] for v in term_vars(lit.goal)]
    out = {}
    work = 0
    while todo:
        x = todo.pop()
        work += 1
        if type(x) is Struct:
            todo += [a for a in x.args if not a.ground]
        elif x.id not in out and x.id in frame:
            t = out[x.id] = frame[x.id]
            if not t.ground:
                todo.append(t)
    return out, len(out) + 2 * work + _FRAME_SLACK
