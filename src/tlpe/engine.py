"""SLG evaluation: a stack machine over suspendable continuations.

Tabled calls intern a subgoal table and either read answers from it or
suspend as consumers; non-tabled calls resolve inline, depth first.
Negative calls suspend on incomplete tables and are resolved at
completion, delayed inside negative loops, or failed eagerly as soon as
an unconditional answer shows up.

Scheduling maintains a completion stack of incomplete tables.  When the
run stack drains, the topmost closed segment of the completion stack is
partitioned into SCCs of the subgoal dependency graph:

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
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .errors import EvalError
from .parser import ParsedItem, parse_goal, parse_program
from .program import (Clause, Literal, PredicateInfo, Program, conj_items,
                      split_clause)
from .sccs import tarjan_sccs
from .tables import DelayLit, SubgoalTable, TableSpace
from .terms import (NIL, Atom, CyclicTermError, Int, OrderKey, Struct, Term,
                    Var, canonicalize, canonical_key, compare, functor_of,
                    is_callable, is_ground, list_parts, make_list, match,
                    rename, resolve, term_to_str, term_vars, unify)
from . import subsumption

QUERY_PRED = "$query"
_BODY_HEAD = Atom("$body")


class CutOp:
    """Placeholder goal: commit to choices made since `scope` opened."""

    __slots__ = ("scope",)

    def __init__(self, scope: int):
        self.scope = scope


class Collector:
    """Answer sink for sub-evaluations (findall, join/leq calls)."""

    __slots__ = ("results", "owner_table")

    def __init__(self, owner_table: Optional[SubgoalTable]):
        self.results: List[Term] = []
        self.owner_table = owner_table


class Cont:
    """One derivation state: remaining goals under a variable namespace.

    ``goals`` is a cons list ``None | (item, rest)`` whose items are
    ``(neg, term)`` pairs or CutOp markers; ``nv`` is the next free
    variable id, ``k`` the forest node this state belongs to.
    """

    __slots__ = ("owner", "ans", "goals", "delays", "scopes", "k", "nv")

    def __init__(self, owner, ans: Term, goals, delays: tuple,
                 scopes: tuple, k: int, nv: int):
        self.owner = owner          # SubgoalTable | Collector
        self.ans = ans
        self.goals = goals
        self.delays = delays
        self.scopes = scopes
        self.k = k
        self.nv = nv


class Consumer:
    """A suspended reader of an incomplete table.

    ``cont`` is None for the materializer that copies a producer's
    answers into a subsumed consumer table (``target``).
    """

    __slots__ = ("table", "goal", "cont", "target", "cursor", "scopes",
                 "dead", "fed")

    def __init__(self, table: SubgoalTable, goal: Optional[Term],
                 cont: Optional[Cont], target: Optional[SubgoalTable] = None):
        self.table = table
        self.goal = goal
        self.cont = cont
        self.target = target
        self.cursor = 0
        self.scopes = cont.scopes if cont is not None else ()
        self.dead = False
        # answer-subsumption tables feed out of insertion order, so
        # their consumers track fed records by identity, not cursor
        self.fed: Optional[Set[int]] = None

    def owner_table(self) -> Optional[SubgoalTable]:
        if self.cont is None:
            return self.target
        owner = self.cont.owner
        return owner if isinstance(owner, SubgoalTable) else None


class NegWaiter:
    """A continuation suspended on ``tnot`` of an incomplete table."""

    __slots__ = ("table", "cont", "dead")

    def __init__(self, table: SubgoalTable, cont: Cont):
        self.table = table
        self.cont = cont
        self.dead = False


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

    def __init__(self, program: Optional[Program] = None,
                 strategy: str = "local", occurs_check: bool = False,
                 gc_action: str = "abolish_dependents",
                 query_level_tabling: bool = False,
                 default_tabling: str = "variant"):
        if strategy not in ("local", "batched"):
            raise ValueError(f"unknown strategy: {strategy}")
        self.program = program if program is not None \
            else Program(default_tabling=default_tabling)
        self.space = TableSpace(self.program, gc_action=gc_action)
        self.space.trace_hook = self._simplification_hook
        self.strategy = strategy
        self.occurs_check = occurs_check
        self.query_level_tabling = query_level_tabling

        self.stack: list = []
        self.comp: List[SubgoalTable] = []
        self.consumers: List[Consumer] = []
        self.waiters: List[NegWaiter] = []
        self._comp_cap = 64
        self._consumers_cap = 64
        self._waiters_cap = 64
        self.K = 0                  # global node-creation counter
        self.ctx = 0                # evaluation context (sub-runs get fresh)
        self._ctx_seq = 0
        self._scope_seq = 0
        self._sdg_version = 0
        self._scc_cache = None
        self.query_active = False
        self._as_states: Dict[int, dict] = {}

        self.trace_enabled = False
        self.trace_lines: List[str] = []
        self.trace_sink: Optional[Callable[[str], None]] = None
        self.counters: Dict[str, int] = {k: 0 for k in _COUNTER_KEYS}

    # ------------------------------------------------------------------
    # program loading

    def consult(self, text: str) -> None:
        for item in parse_program(text):
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

    def _node(self) -> int:
        self.K += 1
        return self.K

    def _trace(self, op: str, subgoal: Term) -> None:
        if not self.trace_enabled:
            return
        line = f"OP {op} {term_to_str(subgoal)} [K={self.K}]"
        self.trace_lines.append(line)
        if self.trace_sink is not None:
            self.trace_sink(line)

    def _simplification_hook(self, op: str, table: SubgoalTable) -> None:
        if not table.pred.name.startswith("$"):
            self._trace(op, table.subgoal)

    @property
    def n_simplifications(self) -> int:
        return self.space.n_simplifications

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
        if isinstance(goal, str):
            goal = parse_goal(goal).term
        with self._evaluation() as watermark:
            out = self._collect_query_answers(self._eval_wrapper(goal), goal)
        if self.query_level_tabling:
            self.space.discard_from(watermark)
        return out

    @contextmanager
    def _evaluation(self):
        """Guard one top-level evaluation; yields the table watermark.

        Only one evaluation runs at a time.  Whatever it raises, the run
        state and the tables it created are dropped, and every live
        table is left COMPLETE or INVALID; a cyclic term surfaces as
        ``EvalError("cyclic_term")``."""
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
        except BaseException:
            self._recover(watermark)
            raise
        finally:
            self.query_active = False

    def _recover(self, watermark: int) -> None:
        """Drop the run state and tables of an evaluation that raised.

        An older table that the evaluation reset and left incomplete,
        or that read a table dropped here, becomes INVALID again, and so
        does every table that reads it: each is recomputed at its next
        call."""
        self.stack = []
        self.comp = []
        self.consumers = []
        self.waiters = []
        self.ctx = 0
        stale = [t for t in self.space.tables
                 if t.dfn <= watermark and not t.abolished
                 and (t.status == SubgoalTable.INCOMPLETE
                      or any(d.dfn > watermark for d in t.dep_out))]
        while stale:
            t = stale.pop()
            if t.status != SubgoalTable.INVALID:
                t.status = SubgoalTable.INVALID
                stale.extend(c for c in t.dep_in
                             if c.dfn <= watermark and not c.abolished)
        self.space.discard_from(watermark, force=True)

    def answers(self, goal):
        """Iterate answers of a goal; the table survives abolish until
        the iterator is closed (deferred space reclamation)."""
        if isinstance(goal, str):
            goal = parse_goal(goal).term
        with self._evaluation():
            table = self._eval_wrapper(goal)
        table.refcount += 1
        self.space.open_streams += 1
        try:
            qvars = term_vars(goal)
            for ans in list(table.answers):
                if ans.deleted:
                    continue
                yield self._query_answer(ans, qvars)
        finally:
            table.refcount -= 1
            self.space.open_streams -= 1
            self.space.sweep()

    def _eval_wrapper(self, goal: Term) -> SubgoalTable:
        qpi = self.program.info(QUERY_PRED, 1, create=True)
        qpi.tabling = "variant"
        qpi.incremental_table = True
        table = self._intern(qpi, Struct(QUERY_PRED, (goal,)))
        self._run()
        return table

    def _collect_query_answers(self, table: SubgoalTable,
                               goal: Term) -> List[QueryAnswer]:
        qvars = term_vars(goal)
        return [self._query_answer(a, qvars)
                for a in table.answers if not a.deleted]

    def _query_answer(self, ans, qvars) -> QueryAnswer:
        bindings = {qvars[i]: ans.bindings[i] for i in range(len(qvars))}
        truth = "undefined" if ans.conditional else "true"
        return QueryAnswer(bindings, ans.term.args[0], truth)

    # ------------------------------------------------------------------
    # main loop

    def _run(self) -> None:
        stack = self.stack
        while True:
            while stack:
                self._step(stack.pop())
            if not self._schedule():
                return

    def _step(self, entry) -> None:
        kind = entry[0]
        if kind == "run":
            self._step_cont(entry[1])
        elif kind == "resume":
            _, consumer, ans = entry
            if consumer.dead or ans.deleted:
                return
            self._resume_positive(consumer, ans)
        elif kind == "answers":
            self._reader_step(entry)
        elif kind == "inline":
            self._inline_expand(entry)
        else:  # "clause"
            _, table, clause = entry
            if table.complete:
                return
            self._clause_resolution(table, clause)

    # ------------------------------------------------------------------
    # continuation stepping

    def _step_cont(self, cont: Cont) -> None:
        goals = cont.goals
        if goals is None:
            self._produce(cont)
            return
        item, rest = goals
        if type(item) is CutOp:
            self._cut(item.scope)
            self.stack.append(("run", Cont(cont.owner, cont.ans, rest,
                                           cont.delays, cont.scopes,
                                           cont.k, cont.nv)))
            return
        neg, goal = item
        if type(goal) is Var:
            raise EvalError("instantiation",
                            "goal is an unbound variable at call time")
        if neg:
            self._call_negative(cont, goal, rest)
            return
        if type(goal) is Struct and goal.name == "tnot" \
                and len(goal.args) == 1:
            self._call_negative(cont, goal.args[0], rest)
            return
        if not is_callable(goal):
            raise EvalError("type_error",
                            f"not a callable goal: {term_to_str(goal)}")
        name, arity = functor_of(goal)
        handler = _BUILTINS.get((name, arity))
        if handler is not None:
            handler(self, cont, goal, rest)
            return
        pi = self.program.info(name, arity)
        if pi is not None and pi.tabled:
            self._call_tabled(pi, cont, goal, rest)
        else:
            self._call_inline(pi, cont, goal, rest)

    def _advance(self, cont: Cont, rest, env=None, extra_delay=None,
                 nv: Optional[int] = None, k: Optional[int] = None) -> Cont:
        """Continuation after the current goal, optionally instantiated."""
        ans = cont.ans
        if env:
            ans = resolve(ans, env)
            rest = _resolve_goals(rest, env)
        delays = cont.delays
        if extra_delay is not None:
            delays = delays + (extra_delay,)
        return Cont(cont.owner, ans, rest, delays, cont.scopes,
                    cont.k if k is None else k,
                    cont.nv if nv is None else nv)

    # ------------------------------------------------------------------
    # answer production

    def _produce(self, cont: Cont) -> None:
        owner = cont.owner
        if type(owner) is Collector:
            owner.results.append(cont.ans)
            return
        env = match(owner.subgoal, cont.ans)
        if env is None:     # cannot happen: ans is an instance by build
            raise EvalError("internal", "answer does not match subgoal")
        bindings = tuple(env.get(i, Var(i)) for i in range(owner.nvars))
        self._deliver_answer(owner, bindings, cont.delays, cont.ans)

    def _deliver_answer(self, table: SubgoalTable, bindings: tuple,
                        delays: tuple, ans_term: Optional[Term] = None
                        ) -> None:
        if table.pred.subsumption is not None:
            if delays:
                raise EvalError(
                    "subsumption_conditional",
                    f"conditional answer for {table.pred} under answer "
                    "subsumption")
            if ans_term is None:
                ans_term = resolve(
                    table.subgoal,
                    {i: rename(b, table.nvars)
                     for i, b in enumerate(bindings)})
            subsumption.apply(self, table, ans_term)
            return
        self.insert_reduced(table, bindings, delays)

    def insert_reduced(self, table: SubgoalTable, bindings: tuple,
                       delays: tuple = ()):
        """Plain insert plus strategy-dependent propagation."""
        status, rec = self.space.add_answer(table, bindings, delays)
        if status == "added" and self.strategy == "batched":
            for c in table.consumers:
                if not c.dead:
                    self._feed_consumer(c)
        if table.neg_waiters and table.subgoal_is_ground() \
                and table.has_unconditional:
            for w in table.neg_waiters:
                if not w.dead:
                    w.dead = True
                    self._node()
                    self.counters["negative_return"] += 1
                    self._trace("NEGATIVE_RETURN", table.subgoal)
            table.neg_waiters = []
        return status, rec

    # ------------------------------------------------------------------
    # tabled calls

    def _call_tabled(self, pi: PredicateInfo, cont: Cont, goal: Term,
                     rest) -> None:
        table = self._intern(pi, goal)
        caller = self._owner_of(cont)
        if caller is not None:
            self.space.note_call_edge(caller, table, neg=False)
        after = self._advance(cont, rest)
        if table.complete:
            self.stack.append(("answers", after, goal, table, 0))
            return
        owner = cont.owner
        if isinstance(owner, SubgoalTable) and not owner.complete:
            if table not in owner.sdg_pos:
                owner.sdg_pos.add(table)
                self._sdg_version += 1
        consumer = Consumer(table, goal, after)
        self._register_consumer(table, consumer)
        if self.strategy == "batched":
            self._feed_consumer(consumer)

    def _intern(self, pi: PredicateInfo, goal: Term) -> SubgoalTable:
        table, is_new = self.space.check_insert_subgoal(pi, goal)
        if table.status == SubgoalTable.INVALID:
            self.reset_for_recompute(table)
            is_new = True
        if is_new:
            self._activate(table)
        elif table.status == SubgoalTable.INCOMPLETE \
                and table.ctx != self.ctx:
            raise EvalError(
                "incomplete_outer",
                f"call to {term_to_str(table.subgoal)} whose table is "
                "incomplete in an enclosing evaluation")
        return table

    def _activate(self, table: SubgoalTable) -> None:
        """First call of a subgoal: set up its producers."""
        table.ctx = self.ctx
        table.owned_consumers = []
        self._node()
        self.counters["new_subgoal"] += 1
        if not table.pred.name.startswith("$"):
            self._trace("NEW_SUBGOAL", table.subgoal)
        producer = table.producer
        if producer is not None and producer.complete:
            self._materialize_all(table)
            return
        table.stack_pos = len(self.comp)
        self.comp.append(table)
        self._sdg_version += 1
        if producer is not None:
            table.sdg_pos.add(producer)
            self.space.note_call_edge(table, producer, neg=False)
            mat = Consumer(producer, None, None, target=table)
            self._register_consumer(producer, mat)
            producer.on_complete_hooks.append(
                lambda: self._finish_consumer_table(table, mat))
            if self.strategy == "batched":
                self._feed_consumer(mat)
            return
        if table.pred.name == QUERY_PRED:
            self._push_query_root(table)
            return
        for clause in reversed(self.program.lookup_clauses(table.subgoal)):
            self.stack.append(("clause", table, clause))

    def _push_query_root(self, table: SubgoalTable) -> None:
        goals, scopes = self._body_goals(table.subgoal.args[0])
        cont = Cont(table, table.subgoal, goals, (), scopes,
                    self.K, table.nvars)
        self.stack.append(("run", cont))

    def _body_goals(self, body: Term):
        """Goal list of a clause body, with the cut scope it opens:
        ``(goals, scopes)``."""
        _, lits = split_clause(Struct(":-", (_BODY_HEAD, body)))
        scope = None
        if any(type(l.goal) is Atom and l.goal.name == "!" for l in lits):
            self._scope_seq += 1
            scope = self._scope_seq
        goals = None
        for lit in reversed(lits):
            if type(lit.goal) is Atom and lit.goal.name == "!":
                goals = (CutOp(scope), goals)
            else:
                goals = ((lit.neg, lit.goal), goals)
        return goals, (scope,) if scope is not None else ()

    def _clause_resolution(self, table: SubgoalTable,
                           clause: Clause) -> None:
        off = table.nvars
        env = unify(rename(clause.head, off), table.subgoal,
                    occurs_check=self.occurs_check)
        if env is None:
            return
        k = self._node()
        self.counters["clause_resolution"] += 1
        if not table.pred.name.startswith("$"):
            self._trace("PROGRAM_CLAUSE_RESOLUTION", table.subgoal)
        goals = None
        for lit in reversed(clause.body):
            goals = ((lit.neg, resolve(rename(lit.goal, off), env)), goals)
        cont = Cont(table, resolve(table.subgoal, env), goals, (), (),
                    k, off + clause.nvars)
        self.stack.append(("run", cont))

    def _register_consumer(self, table: SubgoalTable,
                           consumer: Consumer) -> None:
        table.consumers.append(consumer)
        self.consumers.append(consumer)
        owner = consumer.owner_table()
        if owner is not None and owner is not consumer.target:
            owner.owned_consumers.append(consumer)

    # ------------------------------------------------------------------
    # answer return

    def _feed_consumer(self, consumer: Consumer) -> bool:
        if consumer.table.pred.subsumption is not None:
            return self._feed_reduced(consumer, one=False)
        answers = consumer.table.answers
        n = len(answers)
        if consumer.cursor >= n:
            return False
        pending = [a for a in answers[consumer.cursor:] if not a.deleted]
        consumer.cursor = n
        for ans in reversed(pending):
            self.stack.append(("resume", consumer, ans))
        return bool(pending)

    def _feed_reduced(self, consumer: Consumer, one: bool) -> bool:
        """Feed a consumer of an answer-subsumption table.

        Replacement deletes records out of insertion order, so pending
        answers are recomputed from scratch against a fed set.  They go
        out best-value-first; with ``one`` set, only the single best
        answer is fed per scheduling round.  Relaxing the globally best
        answer first means (for min-style joins over non-negative
        costs) a fed record is never improved afterwards, so each
        stored answer is returned to each consumer exactly once."""
        fed = consumer.fed
        if fed is None:
            fed = consumer.fed = set()
        spec = consumer.table.pred.subsumption
        pending = [a for a in consumer.table.answers
                   if not a.deleted and id(a) not in fed]
        if not pending:
            return False
        rev = spec.kind == "max"
        keyf = lambda a: OrderKey(a.term.args[spec.position])
        if one:
            pending = [max(pending, key=keyf) if rev
                       else min(pending, key=keyf)]
        else:
            pending.sort(key=keyf, reverse=rev)
        for ans in pending:
            fed.add(id(ans))
        for ans in reversed(pending):
            self.stack.append(("resume", consumer, ans))
        return True

    def _resume_positive(self, consumer: Consumer, ans) -> None:
        if consumer.cont is None:
            self._materialize_one(consumer.target, consumer.table, ans)
            return
        self._return_answer(consumer.cont, consumer.goal, consumer.table,
                            ans)

    def _return_answer(self, cont: Cont, goal: Term,
                       table: SubgoalTable, ans) -> None:
        inst = rename(ans.term, cont.nv)
        env = unify(goal, inst, occurs_check=self.occurs_check)
        if env is None:
            return
        k = self._node()
        self.counters["positive_return"] += 1
        if not table.pred.name.startswith("$"):
            self._trace("POSITIVE_RETURN", table.subgoal)
        extra = DelayLit(False, table, ans) if ans.conditional else None
        ncont = self._advance(cont, cont.goals, env=env, extra_delay=extra,
                              nv=cont.nv + ans.nvars, k=k)
        self.stack.append(("run", ncont))

    def _reader_step(self, entry) -> None:
        _, cont, goal, table, idx = entry
        answers = table.answers
        n = len(answers)
        while idx < n and answers[idx].deleted:
            idx += 1
        if idx >= n:
            return
        self.stack.append(("answers", cont, goal, table, idx + 1))
        self._return_answer(cont, goal, table, answers[idx])

    # ------------------------------------------------------------------
    # subsumed consumer tables

    def _materialize_one(self, target: SubgoalTable, producer: SubgoalTable,
                         ans) -> None:
        inst = rename(ans.term, target.nvars)
        env = unify(target.subgoal, inst, occurs_check=self.occurs_check)
        if env is None:
            return
        self._node()
        self.counters["positive_return"] += 1
        self._trace("POSITIVE_RETURN", producer.subgoal)
        bindings = tuple(resolve(Var(i), env) for i in range(target.nvars))
        delays = (DelayLit(False, producer, ans),) if ans.conditional else ()
        self._deliver_answer(target, bindings, delays)

    def _materialize_all(self, table: SubgoalTable) -> None:
        """Producer already complete: copy matching answers, close table."""
        for ans in table.producer.answers:
            if not ans.deleted:
                self._materialize_one(table, table.producer, ans)
        table.status = SubgoalTable.COMPLETE
        self.space.note_call_edge(table, table.producer, neg=False)
        self.space.on_completed(table)
        self._trace("COMPLETION", table.subgoal)

    def _finish_consumer_table(self, table: SubgoalTable,
                               mat: Consumer) -> None:
        """Producer completion hook: catch up, then complete the copy."""
        producer = table.producer
        for ans in producer.answers[mat.cursor:]:
            if not ans.deleted:
                self._materialize_one(table, producer, ans)
        mat.cursor = len(producer.answers)
        mat.dead = True
        if table.status == SubgoalTable.INCOMPLETE:
            self._complete_scc([table])

    # ------------------------------------------------------------------
    # inline (non-tabled) resolution

    def _call_inline(self, pi: Optional[PredicateInfo], cont: Cont,
                     goal: Term, rest) -> None:
        if pi is None:
            return      # undefined predicate: no clauses, fails quietly
        if pi.dynamic or pi.incremental_source:
            caller = self._owner_of(cont)
            if caller is not None:
                self.space.note_dyn_read(caller, pi.key)
        clauses = self.program.lookup_clauses(goal)
        if not clauses:
            return
        scope = None
        if pi.any_cut:
            self._scope_seq += 1
            scope = self._scope_seq
        after = self._advance(cont, rest)
        for clause in reversed(clauses):
            self.stack.append(("inline", after, goal, clause, scope))

    def _inline_expand(self, entry) -> None:
        _, cont, goal, clause, scope = entry
        off = cont.nv
        env = unify(rename(clause.head, off), goal,
                    occurs_check=self.occurs_check)
        if env is None:
            return
        scopes = cont.scopes + (scope,) if scope is not None else cont.scopes
        goals = _resolve_goals(cont.goals, env)
        for lit in reversed(clause.body):
            if type(lit.goal) is Atom and lit.goal.name == "!":
                goals = (CutOp(scope), goals)
            else:
                goals = ((lit.neg, resolve(rename(lit.goal, off), env)),
                         goals)
        ncont = Cont(cont.owner, resolve(cont.ans, env), goals, cont.delays,
                     scopes, cont.k, off + clause.nvars)
        self.stack.append(("run", ncont))

    # ------------------------------------------------------------------
    # cut

    def _cut(self, scope: int) -> None:
        kept = []
        for entry in self.stack:
            if scope in self._entry_scopes(entry):
                continue
            kept.append(entry)
        self.stack[:] = kept
        for c in self.consumers:
            if not c.dead and scope in c.scopes:
                if not c.table.complete:
                    raise EvalError(
                        "cut_over_incomplete_table",
                        f"! would discard a consumer of incomplete table "
                        f"{term_to_str(c.table.subgoal)}")
                c.dead = True
        for w in self.waiters:
            if not w.dead and scope in w.cont.scopes:
                raise EvalError(
                    "cut_over_incomplete_table",
                    f"! would discard a negation suspended on incomplete "
                    f"table {term_to_str(w.table.subgoal)}")

    @staticmethod
    def _entry_scopes(entry) -> tuple:
        kind = entry[0]
        if kind == "run":
            return entry[1].scopes
        if kind == "resume":
            return entry[1].scopes
        if kind == "answers":
            return entry[1].scopes
        if kind == "inline":
            cont, scope = entry[1], entry[4]
            return cont.scopes + (scope,) if scope is not None \
                else cont.scopes
        return ()   # "clause": producers are never cut

    # ------------------------------------------------------------------
    # negation

    def _call_negative(self, cont: Cont, goal: Term, rest) -> None:
        if type(goal) is Var or not is_callable(goal):
            raise EvalError("instantiation",
                            "tnot applied to a non-callable term")
        if not is_ground(goal):
            raise EvalError(
                "floundered",
                f"tnot {term_to_str(goal)}: negative call is not ground")
        name, arity = functor_of(goal)
        pi = self.program.info(name, arity)
        if pi is None or not pi.tabled:
            raise EvalError(
                "negation_untabled",
                f"tnot {term_to_str(goal)}: predicate {name}/{arity} is "
                "not tabled")
        table = self._intern(pi, goal)
        caller = self._owner_of(cont)
        if caller is not None:
            self.space.note_call_edge(caller, table, neg=True)
        after = self._advance(cont, rest)
        if table.complete:
            self._negative_return(after, table)
            return
        owner = cont.owner
        if isinstance(owner, SubgoalTable) and not owner.complete:
            if table not in owner.sdg_neg:
                owner.sdg_neg.add(table)
                self._sdg_version += 1
        if table.has_unconditional:
            self._node()
            self.counters["negative_return"] += 1
            self._trace("NEGATIVE_RETURN", table.subgoal)
            return      # the path fails now: an answer already exists
        waiter = NegWaiter(table, after)
        table.neg_waiters.append(waiter)
        self.waiters.append(waiter)

    def _negative_return(self, cont: Cont, table: SubgoalTable) -> None:
        """Resolve tnot against a completed table."""
        k = self._node()
        self.counters["negative_return"] += 1
        self._trace("NEGATIVE_RETURN", table.subgoal)
        if not table.has_answers:
            self.stack.append(("run", self._advance(cont, cont.goals, k=k)))
        elif table.has_unconditional:
            return      # fails
        else:
            extra = DelayLit(True, table, None)
            self.stack.append(("run", self._advance(
                cont, cont.goals, extra_delay=extra, k=k)))

    # ------------------------------------------------------------------
    # scheduling

    def _schedule(self) -> bool:
        comp = self.comp
        while comp and comp[-1].complete:
            comp.pop()
        if not comp:
            return False
        # registries are compacted when they double past the last
        # compaction, keeping the per-call cost amortized constant
        if len(comp) > self._comp_cap:
            self.comp = comp = [t for t in comp if not t.complete]
            for i, t in enumerate(comp):
                t.stack_pos = i
            self._comp_cap = max(64, 2 * len(comp))
            if not comp:
                return False
        if len(self.consumers) > self._consumers_cap:
            self.consumers = [c for c in self.consumers
                              if not c.dead and not c.table.complete]
            self._consumers_cap = max(64, 2 * len(self.consumers))
        if len(self.waiters) > self._waiters_cap:
            self.waiters = [w for w in self.waiters if not w.dead]
            self._waiters_cap = max(64, 2 * len(self.waiters))
        segment = self._top_segment(comp)
        comps, comp_of = self._segment_sccs(segment)
        if self.strategy == "local":
            fed = False
            for scc in comps:
                sccset = set(id(t) for t in scc)
                for t in scc:
                    reduced = t.pred.subsumption is not None
                    for c in t.consumers:
                        if c.dead:
                            continue
                        owner = c.owner_table()
                        if owner is not None and id(owner) in sccset:
                            fed |= (self._feed_reduced(c, one=True)
                                    if reduced else self._feed_consumer(c))
            if fed:
                return True
        sinks = self._sink_sccs(segment, comps, comp_of)
        ready = [scc for scc in sinks if not self._blocked(scc)]
        if ready:
            for scc in ready:
                self._complete_scc(scc)
            return True
        self._delay_blocked_region(segment, comps, comp_of, sinks)
        return True

    def _top_segment(self, comp: List[SubgoalTable]) -> List[SubgoalTable]:
        """Longest top run of the completion stack closed under
        dependencies on incomplete tables."""
        top = len(comp) - 1
        bound = top
        i = top
        while True:
            t = comp[i]
            if not t.complete:
                for dep in t.sdg_pos:
                    if not dep.complete and dep.stack_pos < bound:
                        bound = dep.stack_pos
                for dep in t.sdg_neg:
                    if not dep.complete and dep.stack_pos < bound:
                        bound = dep.stack_pos
            if i <= bound:
                break
            i -= 1
        return [t for t in comp[bound:] if not t.complete]

    def _segment_sccs(self, segment):
        cached = self._scc_cache
        seg_ids = set(id(t) for t in segment)
        if cached is not None and cached[0] == self._sdg_version \
                and cached[1] == seg_ids:
            return cached[2], cached[3]
        edges = {}
        for t in segment:
            edges[t] = [d for d in (t.sdg_pos | t.sdg_neg)
                        if not d.complete and id(d) in seg_ids]
        comps = tarjan_sccs(segment, lambda v: edges[v])
        comp_of = {}
        for i, scc in enumerate(comps):
            for t in scc:
                comp_of[id(t)] = i
        self._scc_cache = (self._sdg_version, seg_ids, comps, comp_of)
        return comps, comp_of

    def _sink_sccs(self, segment, comps, comp_of):
        sinks = []
        for i, scc in enumerate(comps):
            out = False
            for t in scc:
                for d in t.sdg_pos | t.sdg_neg:
                    if not d.complete and comp_of.get(id(d), i) != i:
                        out = True
                        break
                if out:
                    break
            if not out:
                sinks.append(scc)
        return sinks

    @staticmethod
    def _blocked(scc) -> bool:
        """An SCC is blocked if a member still waits on tnot of a member."""
        members = set(id(t) for t in scc)
        for t in scc:
            for w in t.neg_waiters:
                if w.dead:
                    continue
                owner = w.cont.owner
                if isinstance(owner, SubgoalTable) and id(owner) in members:
                    return True
        return False

    def _delay_blocked_region(self, segment, comps, comp_of, sinks) -> None:
        """Every sink of the quiesced segment is a negative loop.

        The blocked region is those sink SCCs plus, transitively, any
        incomplete table — inside the segment or suspended below it —
        whose unresolved dependencies all lead into the region.  Among
        the literals waiting on a core table from within the region,
        delay the one in the continuation with the smallest node
        number K: this is the oldest blocked choice in the forest."""
        core: List[SubgoalTable] = []
        for scc in sinks:
            if self._blocked(scc):
                core.extend(scc)
        region: Set[int] = set(id(t) for t in core)
        seg_ids = set(id(t) for t in segment)
        below = [t for t in self.comp
                 if not t.complete and id(t) not in seg_ids]
        changed = True
        while changed:
            changed = False
            for i, scc in enumerate(comps):
                if all(id(t) in region for t in scc):
                    continue
                ok = all(d.complete or comp_of.get(id(d)) == i
                         or id(d) in region
                         for t in scc for d in (t.sdg_pos | t.sdg_neg))
                if ok:
                    region.update(id(t) for t in scc)
                    changed = True
            for t in below:
                if id(t) in region:
                    continue
                deps = [d for d in (t.sdg_pos | t.sdg_neg)
                        if not d.complete]
                if deps and all(id(d) in region for d in deps):
                    region.add(id(t))
                    changed = True
        best: Optional[NegWaiter] = None
        for t in core:
            for w in t.neg_waiters:
                if w.dead:
                    continue
                owner = w.cont.owner
                if not (isinstance(owner, SubgoalTable)
                        and id(owner) in region):
                    continue
                if best is None or w.cont.k < best.cont.k:
                    best = w
        if best is None:
            raise EvalError("internal", "blocked region without waiters")
        best.dead = True
        self._node()
        self.counters["delaying"] += 1
        self._trace("DELAYING", best.table.subgoal)
        extra = DelayLit(True, best.table, None)
        self.stack.append(("run", self._advance(
            best.cont, best.cont.goals, extra_delay=extra, k=self.K)))

    # ------------------------------------------------------------------
    # completion

    def _complete_scc(self, scc) -> None:
        for t in scc:
            t.status = SubgoalTable.COMPLETE
        self._sdg_version += 1
        for t in scc:
            if not t.pred.name.startswith("$"):
                self._trace("COMPLETION", t.subgoal)
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
        scc_ids = {id(t) for t in scc}
        while True:
            supported: set = set()
            conds = []
            for t in scc:
                for a in t.answers:
                    if a.deleted:
                        continue
                    if a.delay_lists:
                        conds.append(a)
                    else:
                        supported.add(id(a))
            if not conds:
                return

            def ok(lit):
                if lit.neg:
                    return True
                if id(lit.ans.table) not in scc_ids:
                    return not lit.ans.deleted   # settled at its own SCC
                return id(lit.ans) in supported

            changed = True
            while changed:
                changed = False
                for a in conds:
                    if id(a) in supported:
                        continue
                    if any(not dl.dead and all(ok(l) for l in dl.lits)
                           for dl in a.delay_lists):
                        supported.add(id(a))
                        changed = True
            victims = [a for a in conds if id(a) not in supported]
            if not victims:
                return
            for a in victims:
                for dl in list(a.delay_lists):
                    self.space._kill_dl(dl)
            self.space._pump()

    def _post_complete(self, table: SubgoalTable) -> None:
        for c in table.owned_consumers:
            c.dead = True
        for w in table.neg_waiters:
            if w.dead:
                continue
            w.dead = True
            self._negative_return(w.cont, table)
        table.neg_waiters = []
        for c in table.consumers:
            if not c.dead:
                # catch up; pending resume entries still pop, so the
                # consumer is merely finished, not discarded
                self._feed_consumer(c)
        hooks = table.on_complete_hooks
        table.on_complete_hooks = []
        for hook in hooks:
            hook()

    # ------------------------------------------------------------------
    # sub-evaluations (findall, join/leq)

    def _sub_eval(self, owner_table: Optional[SubgoalTable],
                  template: Term, goal: Term, nv: int) -> List[Term]:
        """Evaluate goal in a fresh context; collect template instances.

        The caller's variables are shared: the goal and template arrive
        already instantiated, fresh variables start at nv."""
        goals, scopes = self._body_goals(goal)
        collector = Collector(owner_table)
        cont = Cont(collector, template, goals, (), scopes, self.K, nv)

        saved_stack, saved_comp = self.stack, self.comp
        saved_ctx = self.ctx
        self._ctx_seq += 1
        self.ctx = self._ctx_seq
        self.stack, self.comp = [], []
        try:
            self.stack.append(("run", cont))
            self._run()
        finally:
            self.stack, self.comp = saved_stack, saved_comp
            self.ctx = saved_ctx
        return collector.results

    def _owner_of(self, cont: Cont) -> Optional[SubgoalTable]:
        owner = cont.owner
        return owner if isinstance(owner, SubgoalTable) \
            else owner.owner_table

    # ------------------------------------------------------------------
    # incremental support hooks

    def reset_for_recompute(self, table: SubgoalTable) -> None:
        self._as_states.pop(id(table), None)
        self.space.reset_table(table)

    def as_state(self, table: SubgoalTable) -> dict:
        st = self._as_states.get(id(table))
        if st is None:
            st = self._as_states[id(table)] = {"map": {}, "seen": set()}
        return st

    # ------------------------------------------------------------------
    # join / leq evaluation for answer subsumption

    def eval_join(self, key, a: Term, b: Term) -> Term:
        """Run join(a, b, Z); it must succeed deterministically."""
        name, _ = key
        goal = Struct(name, (a, b, Var(0)))
        results = self._sub_eval(None, Var(0), goal, 1)
        distinct: List[Term] = []
        seen = set()
        for r in results:
            ck = canonical_key(r)
            if ck not in seen:
                seen.add(ck)
                distinct.append(r)
        if not distinct:
            raise EvalError("join_failed",
                            f"{name}/3 failed on "
                            f"{term_to_str(a)}, {term_to_str(b)}")
        if len(distinct) > 1:
            raise EvalError("join_nondet",
                            f"{name}/3 is nondeterministic on "
                            f"{term_to_str(a)}, {term_to_str(b)}")
        return distinct[0]

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
        self._as_states.clear()

    def abolish_pred(self, name: str, arity: int) -> None:
        self._guard_no_query("abolish")
        self.space.abolish_pred((name, arity))

    def abolish_call(self, goal) -> None:
        self._guard_no_query("abolish")
        if isinstance(goal, str):
            goal = parse_goal(goal).term
        self.space.abolish_call(goal)

    def _guard_no_query(self, what: str) -> None:
        if self.query_active:
            raise EvalError("query_active",
                            f"{what} attempted during query evaluation")


# ---------------------------------------------------------------------------
# goal-list helpers
# ---------------------------------------------------------------------------

def _resolve_goals(goals, env):
    """Apply env to every goal term of a cons list."""
    if not env or goals is None:
        return goals
    items = []
    node = goals
    while node is not None:
        items.append(node[0])
        node = node[1]
    out = None
    for item in reversed(items):
        if type(item) is CutOp:
            out = (item, out)
        else:
            out = ((item[0], resolve(item[1], env)), out)
    return out


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def eval_arith(t: Term) -> int:
    tt = type(t)
    if tt is Int:
        return t.value
    if tt is Var:
        raise EvalError("arith_instantiation",
                        "arithmetic on an unbound variable")
    if tt is Struct:
        name, n = t.name, len(t.args)
        if n == 2:
            a = eval_arith(t.args[0])
            b = eval_arith(t.args[1])
            if name == "+":
                return a + b
            if name == "-":
                return a - b
            if name == "*":
                return a * b
            if name in ("//", "/"):
                if b == 0:
                    raise EvalError("zero_divisor", "division by zero")
                q = abs(a) // abs(b)
                return q if (a >= 0) == (b >= 0) else -q
            if name == "mod":
                if b == 0:
                    raise EvalError("zero_divisor", "division by zero")
                return a % b
            if name == "min":
                return min(a, b)
            if name == "max":
                return max(a, b)
        elif n == 1:
            a = eval_arith(t.args[0])
            if name == "-":
                return -a
            if name == "+":
                return a
            if name == "abs":
                return abs(a)
    raise EvalError("arith_type",
                    f"not an arithmetic expression: {term_to_str(t)}")


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def _continue(engine: Engine, cont: Cont, rest, env=None) -> None:
    engine.stack.append(("run", engine._advance(cont, rest, env=env)))


def _bi_true(engine, cont, goal, rest):
    _continue(engine, cont, rest)


def _bi_fail(engine, cont, goal, rest):
    return


def _bi_unify(engine, cont, goal, rest):
    env = unify(goal.args[0], goal.args[1],
                occurs_check=engine.occurs_check)
    if env is not None:
        _continue(engine, cont, rest, env)


def _bi_not_unify(engine, cont, goal, rest):
    if unify(goal.args[0], goal.args[1],
             occurs_check=engine.occurs_check) is None:
        _continue(engine, cont, rest)


def _bi_eq(engine, cont, goal, rest):
    if compare(goal.args[0], goal.args[1]) == 0:
        _continue(engine, cont, rest)


def _bi_neq(engine, cont, goal, rest):
    if compare(goal.args[0], goal.args[1]) != 0:
        _continue(engine, cont, rest)


def _bi_is(engine, cont, goal, rest):
    val = Int(eval_arith(goal.args[1]))
    env = unify(goal.args[0], val, occurs_check=engine.occurs_check)
    if env is not None:
        _continue(engine, cont, rest, env)


def _cmp(op):
    def run(engine, cont, goal, rest):
        a = eval_arith(goal.args[0])
        b = eval_arith(goal.args[1])
        if op(a, b):
            _continue(engine, cont, rest)
    return run


def _bi_cut_bare(engine, cont, goal, rest):
    # a bare ! outside any clause context commits nothing
    _continue(engine, cont, rest)


def _bi_findall(engine: Engine, cont: Cont, goal, rest):
    template, sub, out = goal.args
    if type(sub) is Var or not is_callable(sub):
        raise EvalError("instantiation", "findall/3 goal is not callable")
    results = engine._sub_eval(engine._owner_of(cont), template, sub,
                               cont.nv)
    items = []
    nv = cont.nv
    for sol in results:
        csol, n = canonicalize(sol)
        items.append(rename(csol, nv))
        nv += n
    env = unify(out, make_list(items), occurs_check=engine.occurs_check)
    if env is not None:
        engine.stack.append(("run", engine._advance(cont, rest, env=env,
                                                    nv=nv)))


def _proper_list(t: Term, what: str) -> List[Term]:
    elems, tail = list_parts(t)
    if type(tail) is Var:
        raise EvalError("instantiation", f"{what}: open-ended list")
    if not (type(tail) is Atom and tail.name == "[]"):
        raise EvalError("type_error", f"{what}: not a proper list")
    return elems


def _bi_sort(engine, cont, goal, rest):
    items = _proper_list(goal.args[0], "sort/2")
    ordered = sorted(items, key=OrderKey)
    dedup: List[Term] = []
    for x in ordered:
        if not dedup or compare(dedup[-1], x) != 0:
            dedup.append(x)
    env = unify(goal.args[1], make_list(dedup),
                occurs_check=engine.occurs_check)
    if env is not None:
        _continue(engine, cont, rest, env)


def _flatten_into(t: Term, out: List[Term]) -> None:
    if type(t) is Atom and t.name == "[]":
        return
    elems, tail = list_parts(t)
    if type(tail) is Var:
        raise EvalError("instantiation", "flatten/2: open-ended list")
    if not (type(tail) is Atom and tail.name == "[]"):
        raise EvalError("type_error", "flatten/2: not a proper list")
    for e in elems:
        if (type(e) is Struct and e.name == "." and len(e.args) == 2) \
                or (type(e) is Atom and e.name == "[]"):
            _flatten_into(e, out)
        else:
            out.append(e)


def _bi_flatten(engine, cont, goal, rest):
    flat: List[Term] = []
    _flatten_into(goal.args[0], flat)
    env = unify(goal.args[1], make_list(flat),
                occurs_check=engine.occurs_check)
    if env is not None:
        _continue(engine, cont, rest, env)


def _bi_ord_subset(engine, cont, goal, rest):
    sub = _proper_list(goal.args[0], "ord_subset/2")
    sup = _proper_list(goal.args[1], "ord_subset/2")
    i = 0
    for x in sub:
        while i < len(sup) and compare(sup[i], x) < 0:
            i += 1
        if i >= len(sup) or compare(sup[i], x) != 0:
            return
        i += 1
    _continue(engine, cont, rest)


def _bi_ord_disjoint(engine, cont, goal, rest):
    a = _proper_list(goal.args[0], "ord_disjoint/2")
    b = _proper_list(goal.args[1], "ord_disjoint/2")
    i = j = 0
    while i < len(a) and j < len(b):
        c = compare(a[i], b[j])
        if c == 0:
            return
        if c < 0:
            i += 1
        else:
            j += 1
    _continue(engine, cont, rest)


def _bi_ord_subtract(engine, cont, goal, rest):
    a = _proper_list(goal.args[0], "ord_subtract/3")
    b = _proper_list(goal.args[1], "ord_subtract/3")
    out: List[Term] = []
    j = 0
    for x in a:
        while j < len(b) and compare(b[j], x) < 0:
            j += 1
        if j < len(b) and compare(b[j], x) == 0:
            continue
        out.append(x)
    env = unify(goal.args[2], make_list(out),
                occurs_check=engine.occurs_check)
    if env is not None:
        _continue(engine, cont, rest, env)


_BUILTINS: Dict[Tuple[str, int], Callable] = {
    ("true", 0): _bi_true,
    ("fail", 0): _bi_fail,
    ("!", 0): _bi_cut_bare,
    ("=", 2): _bi_unify,
    ("\\=", 2): _bi_not_unify,
    ("==", 2): _bi_eq,
    ("\\==", 2): _bi_neq,
    ("is", 2): _bi_is,
    ("<", 2): _cmp(lambda a, b: a < b),
    (">", 2): _cmp(lambda a, b: a > b),
    ("=<", 2): _cmp(lambda a, b: a <= b),
    (">=", 2): _cmp(lambda a, b: a >= b),
    ("=:=", 2): _cmp(lambda a, b: a == b),
    ("=\\=", 2): _cmp(lambda a, b: a != b),
    ("findall", 3): _bi_findall,
    ("sort", 2): _bi_sort,
    ("flatten", 2): _bi_flatten,
    ("ord_subset", 2): _bi_ord_subset,
    ("ord_disjoint", 2): _bi_ord_disjoint,
    ("ord_subtract", 3): _bi_ord_subtract,
}
