"""Engine behavior: resolution, tabling, scheduling, traces, statistics."""

import gc
import io
import os
import random
import subprocess
import sys
import time
import tracemalloc
import weakref
from contextlib import contextmanager

import pytest

from tlpe import cli
from tlpe import engine as engine_module
from tlpe import terms as terms_module
from tlpe.builtins import BINDING_READERS, BUILTINS
from tlpe.engine import Engine
from tlpe.errors import (DirectiveError, EvalError, ParseError, StoreError,
                         TlpeError)
from tlpe.incremental import incr_assert, incr_invalidate, incr_retract
from tlpe.negation import get_residual
from tlpe.parser import parse_goal
from tlpe.tables import SubgoalTable, TableSpace
from tlpe.terms import Atom, Struct, Var, term_to_str, term_vars

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from invariants import faults
from oracles import bfs_reachable, dijkstra, random_digraph
from test_golden import INCR, REACH_LEFT, WIN, WIN_GAME


def make(src, **kw):
    eng = Engine(**kw)
    eng.consult(src)
    return eng


def solutions(eng, goal):
    """Rendered instantiated goals, in delivery order."""
    return [term_to_str(a.goal) for a in eng.query(goal)]


def truth_set(eng, goal):
    return {(term_to_str(a.goal), a.truth) for a in eng.query(goal)}


REACH_L = """
:- table reach/2.
reach(X,Y) :- reach(X,Z), edge(Z,Y).
reach(X,Y) :- edge(X,Y).
edge(1,2).  edge(2,3).
"""

REACH_R = """
:- table reach/2.
reach(X,Y) :- edge(X,Z), reach(Z,Y).
reach(X,Y) :- edge(X,Y).
edge(1,2).  edge(2,3).
"""


class TestPlainResolution:
    def test_facts_and_conjunction(self):
        eng = make("p(1). p(2). q(2). r(X) :- p(X), q(X).")
        assert solutions(eng, "r(X).") == ["r(2)"]

    def test_arithmetic(self):
        eng = make("double(X,Y) :- Y is X * 2.")
        assert solutions(eng, "double(21,Z).") == ["double(21,42)"]

    def test_comparison_guards(self):
        eng = make("big(X) :- p(X), X > 10. p(3). p(30).")
        assert solutions(eng, "big(X).") == ["big(30)"]

    def test_nontabled_recursion_is_plain_sld(self):
        eng = make("len([],0). len([_|T],N) :- len(T,M), N is M + 1.")
        assert solutions(eng, "len([a,b,c],N).") == ["len([a,b,c],3)"]

    def test_cut_commits_to_first_clause(self):
        eng = make("first(X) :- p(X), !. p(1). p(2).")
        assert solutions(eng, "first(X).") == ["first(1)"]

    def test_findall_collects_all(self):
        eng = make("p(1). p(2). p(3). all(L) :- findall(X, p(X), L).")
        assert solutions(eng, "all(L).") == ["all([1,2,3])"]

    @pytest.mark.parametrize("index", ["", ":- index(p/3, trie).\n"])
    def test_fact_with_a_repeated_variable(self, index):
        eng = make(":- dynamic p/3.\n" + index + "p(V,V,a).\n")
        assert solutions(eng, "p(f(X), f(b), a).") == ["p(f(b),f(b),a)"]
        assert solutions(eng, "p(f(a), f(b), a).") == []

    @pytest.mark.parametrize("tabled", ["", ":- table p/2.\n"])
    def test_clause_variables_stay_apart_from_the_caller(self, tabled):
        # each call below comes from a continuation that has variables of
        # its own: ground, half ground and open, into a non-ground head
        eng = make(tabled + "t(Z, W) :- z(Z), p(1, 5), p(Z, W), p(U, U).\n"
                   "z(1). z(2).\n"
                   "p(X, Y) :- q(X), r(Y).\nq(1). q(5). r(1). r(5).")
        assert sorted(solutions(eng, "t(Z, W).")) == ["t(1,1)", "t(1,5)"]

    def test_undefined_predicate_fails_quietly(self):
        eng = make("p(1).")
        assert solutions(eng, "missing(X).") == []

    def test_unbound_arithmetic_raises(self):
        eng = make("bad(Y) :- Y is X + 1.")
        with pytest.raises(EvalError):
            eng.query("bad(Y).")

    def test_clause_alternatives_bind_apart(self):
        # every clause of r/2 but the last runs on a copy of the frame
        # that q/1 bound X in; the last binds into it in place
        eng = make("p(X, Y) :- q(X), r(X, Y), s(Y).\n"
                   "q(1). q(2). r(1, a). r(Z, b). r(2, c). r(W, W).\n"
                   "s(a). s(b). s(c). s(1). s(2).")
        assert solutions(eng, "p(X, Y).") == [
            "p(1,a)", "p(1,b)", "p(1,1)", "p(2,b)", "p(2,c)", "p(2,2)"]

    def test_long_loop_keeps_what_its_goals_reach(self):
        # the frame is compacted many times over the loop; the bindings
        # of the answer and of the pending sum goals must survive it
        eng = make("acc(0, L, L). acc(N, L, R) :- N > 0, M is N - 1, "
                   "acc(M, [N|L], R).\n"
                   "cnt(0, 0). cnt(N, S) :- N > 0, M is N - 1, cnt(M, S0), "
                   "S is S0 + 2.")
        [ans] = eng.query("acc(300, [], R), cnt(300, S).")
        assert ans.goal.args[1].args[1].value == 600
        assert term_to_str(ans.goal.args[0].args[2]) == \
            "[" + ",".join(map(str, range(1, 301))) + "]"


# deterministic inline recursion: a step costs what it binds, not what is
# still pending, and a frame keeps only what its goals can reach
LOOP = "loop(0). loop(N) :- N > 0, M is N - 1, loop(M)."
SCALING = {
    "cnt": ("cnt(0,0). cnt(N,S) :- N > 0, M is N - 1, cnt(M,S0), "
            "S is S0 + 1.", "cnt({n},S).", 250, 2000),
    "app": ("mk(0,[]). mk(N,[N|T]) :- N > 0, M is N - 1, mk(M,T).\n"
            "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).",
            "mk({n},L), app(L,[],R).", 250, 2000),
    "loop": (LOOP, "loop({n}).", 2000, 16000),
    "fork": ("q(a). q(b). loop(0). loop(N) :- N > 0, q(X), X == a, "
             "M is N - 1, loop(M).", "loop({n}).", 1000, 8000),
}


class TestInlineResolutionScales:
    @pytest.mark.parametrize("name", sorted(SCALING))
    def test_cost_per_level_stays_flat(self, name):
        src, goal, small_n, large_n = SCALING[name]

        def cpu_per_level(n):
            gc.collect()
            gc.freeze()
            try:
                eng = make(src)
                start = time.thread_time()
                answers = eng.query(goal.format(n=n))
                spent = (time.thread_time() - start) / n
            finally:
                gc.unfreeze()
            assert [a.truth for a in answers] == ["true"]
            return spent

        # the sizes take turns, best of 5 each, as in TestLongNegativeLoops
        runs = [(cpu_per_level(small_n), cpu_per_level(large_n))
                for _ in range(5)]
        small, large = map(min, zip(*runs))
        assert large < 2.0 * small, (small, large)

    def test_frame_memory_stays_flat(self):
        def peak(n):
            eng = make(LOOP)
            tracemalloc.start()
            try:
                assert len(eng.query(f"loop({n}).")) == 1
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2000), peak(16000)
        assert large < 2.0 * small, (small, large)


@contextmanager
def shallow_stack(headroom=150):
    """Lower the recursion limit to the caller's depth plus ``headroom``
    frames for the ``with`` block."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestRecursionDepth:
    """The Python stack does not grow with the length of a derivation:
    answers return, and clause bodies start, from the run loop."""

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_right_recursive_tabled_chain(self, strategy):
        # 3,000 tables, each answered by a last call into the next
        eng = make(":- table r/2.\nr(X,Y) :- X < 3000, Z is X + 1, r(Z,Y).\n"
                   "r(3000,3000).", strategy=strategy)
        with shallow_stack():
            answers = eng.query("r(0,Y).")
        assert [(term_to_str(a.goal), a.truth) for a in answers] == [
            ("r(0,3000)", "true")]

    def test_inline_chain(self):
        src, goal, _, n = SCALING["cnt"]
        eng = make(src)
        with shallow_stack():
            assert solutions(eng, goal.format(n=n)) == [f"cnt({n},{n})"]

    def test_long_clause_body(self):
        # one clause of 5,000 goals: read as one , chain, run in one loop
        n = 5000
        body = ", ".join(f"X{i + 1} is X{i} + 1" for i in range(n))
        eng = make(f"count(X0, X{n}) :- {body}.")
        with shallow_stack():
            assert solutions(eng, "count(0, N).") == [f"count(0,{n})"]

    # what the parser or the arithmetic still reads by recursion: a sum of
    # 3,000 operands, and a term nested 5,000 deep in a query or a clause
    DEEP = "f(" * 5000 + "a" + ")" * 5000
    TOO_DEEP = {
        "sum": lambda eng: eng.query("X is " + "+".join(["1"] * 3000) + "."),
        "query": lambda eng: eng.query(
            f"X = {TestRecursionDepth.DEEP}, Y = X."),
        "consult": lambda eng: eng.consult(
            f"q(X) :- X = {TestRecursionDepth.DEEP}.\n"),
    }

    @pytest.mark.parametrize("case", sorted(TOO_DEEP))
    def test_too_deep_a_nesting_exhausts_a_resource(self, case):
        eng = make(REACH_L)
        for _ in range(2):
            with shallow_stack(), pytest.raises(EvalError) as err:
                self.TOO_DEEP[case](eng)
            assert err.value.kind == "resource_exhausted"
            assert solutions(eng, "reach(1,Y).") == ["reach(1,2)",
                                                     "reach(1,3)"]


class PushLog(list):
    """A run stack that logs the handler of each entry pushed onto it."""

    def __init__(self):
        super().__init__()
        self.kinds = []

    def append(self, entry):
        self.kinds.append(entry[0].__name__)
        super().append(entry)

    def extend(self, entries):
        entries = list(entries)
        self.kinds += [e[0].__name__ for e in entries]
        super().extend(entries)


class TestBuiltinsInLine:
    """A builtin succeeds at most once, and so does a ``tnot`` of a
    complete table: the state goes on to its next goal at once."""

    def test_builtins_and_resolved_tnot_push_nothing(self):
        eng = make(":- table t/0.\nt :- v(3).\nv(1). v(2).")
        assert solutions(eng, "t.") == []
        eng.stack = log = PushLog()
        answers = eng.query("X = f(Y), Y is 2 + 1, Y < 4, X == f(3), "
                            "X \\= g, !, findall(Z, v(Z), L), tnot t.")
        # the bindings of X and L, variables 0 and 3
        assert [(term_to_str(a.bindings[0]), term_to_str(a.bindings[3]))
                for a in answers] == [("f(3)", "[1,2]")]
        # the findall runs on a stack of its own; only the query's own
        # state is ever pushed here
        assert log.kinds == ["_step_cont"]

    def test_findall_list_variables_stay_apart(self):
        # the list's fresh variables are the state's: the clause of the
        # inline call after the findall is renamed above them
        eng = make("v(1). v(2).\nmk(W) :- W = g(V), V = 7.")
        answers = eng.query("findall(X-_, v(X), L), mk(W).")
        # the bindings of L and W, variables 2 and 3
        assert [(term_to_str(a.bindings[2]), term_to_str(a.bindings[3]))
                for a in answers] == [("[-(1,_G2),-(2,_G3)]", "g(7)")]


# WIN with a findall after the negation: a delayed literal's
# continuation runs a sub-evaluation while its round state is kept
WIN_FINDALL = WIN.replace("win/1.", "win/1, n/1.\nn(1).").replace(
    "tnot win(Y).", "tnot win(Y), findall(Z, n(Z), _).")


class TestCompletionStack:
    """The completion stack holds exactly the incomplete tables, each at
    its own ``stack_pos``, whenever a scheduling round starts; a round
    state kept into a round, after a sub-evaluation too, is the one the
    round would build afresh."""

    @staticmethod
    def checked_query(eng, goal):
        """The answers of ``goal``, each round checked, and for each
        round state kept into a round whether a sub-evaluation had just
        restored it."""
        schedule, sub_eval = eng._schedule, eng._sub_eval
        calls, bad, kept = [], [], []
        restored = [False]      # since the last round

        def checked():
            calls.append(1)
            if any(t.complete or t.stack_pos != i
                   for i, t in enumerate(eng.comp)):
                bad.append(list(eng.comp))
            rs = eng._round
            if rs is not None:
                fresh = eng._new_round()
                kept.append(restored[0])
                if (rs.comps, rs.is_sink, rs.blocked, rs.open) != \
                        (fresh.comps, fresh.is_sink, fresh.blocked, fresh.open):
                    bad.append(rs)
            restored[0] = False
            return schedule()

        def sub(*args):
            out = sub_eval(*args)
            restored[0] = eng._round is not None
            return out

        eng._schedule, eng._sub_eval = checked, sub
        answers = [term_to_str(a.goal) for a in eng.query(goal)]
        assert calls and not bad
        return answers, kept

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("goal", ["win(X).", "findall(X, win(X), L)."])
    @pytest.mark.parametrize("src", [WIN, WIN_GAME, WIN_FINDALL],
                             ids=["win", "win_game", "win_findall"])
    def test_it_holds_only_incomplete_tables(self, src, goal, strategy):
        answers, kept = self.checked_query(make(src, strategy=strategy), goal)
        assert answers and kept
        # a state restored after a sub-evaluation was checked
        assert any(kept) == (src is WIN_FINDALL)

    def test_a_new_edge_between_sinks_drops_the_round_state(self):
        # under local, the feeds of p(_) call r(_), which both/1 made and
        # which is still incomplete: the new edge makes p(_) wait for
        # r(_).  A state kept past it would complete both sinks at once,
        # and p(_) would miss the answers of r(_)
        eng = make(":- table p/1, r/1.\nr(0).\n"
                   "r(Y) :- r(X), X < 3, Y is X + 1.\np(0).\n"
                   "p(Y) :- p(X), X < 2, r(W), Y is X + W + 1.\n"
                   "both(X) :- r(_), fail.\nboth(X) :- p(X).")
        answers, kept = self.checked_query(eng, "both(X).")
        assert sorted(answers) == [f"both({i})" for i in range(6)]
        assert kept


class TestFeeds:
    """A feed returns a range of a table's answers from one ``resume``
    entry, in answer order; what an answer's return pushes runs before
    the rest of the range."""

    T = ":- table t/1.\nt(a). t(b). t(c).\n"

    def test_a_read_of_a_complete_table_pushes_one_entry(self):
        eng = make(self.T)
        assert len(eng.query("t(X).")) == 3
        eng.stack = log = PushLog()
        # not a last call: each answer runs on through true/0
        assert [term_to_str(a.bindings[0])
                for a in eng.query("t(X), true.")] == ["a", "b", "c"]
        assert log.kinds == ["_step_cont", "_resume"]

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_a_cut_discards_the_rest_of_a_feed(self, strategy):
        eng = make(self.T + "first(X) :- t(X), !.", strategy=strategy)
        assert len(eng.query("t(X).")) == 3
        assert solutions(eng, "first(X).") == ["first(a)"]

    def test_a_batched_feed_runs_before_the_rest_of_the_feed(self):
        # each answer of p/1, a last call of t/1, feeds the query's reader
        # of p/1 at once: that return comes before the next one of t/1
        eng = make(self.T.replace("t/1", "t/1, p/1") + "p(X) :- t(X).",
                   strategy="batched")
        assert len(eng.query("t(X).")) == 3
        eng.trace_enabled = True
        assert solutions(eng, "p(X).") == ["p(a)", "p(b)", "p(c)"]
        assert [line.split()[2] for line in eng.trace_lines
                if "POSITIVE_RETURN" in line] == ["t(_G0)", "p(_G0)"] * 3


FANOUT = (":- dynamic e/2.\n:- index(e/2, trie).\n"
          ":- table p/2 as subsumptive.\np(X,Y) :- e(X,Y).\n")


def _fanout(n):
    """A trie-indexed ``e/2`` with facts ``e(c_i,d_i)`` and a complete
    table ``p(c_i,Y)`` of a subsumptive ``p/2`` for each of ``n`` first
    arguments: one trie node with ``n`` children in each trie."""
    eng = make(FANOUT)
    pi = eng.program.info("p", 2)
    for i in range(n):
        c, d = Atom(f"c{i}"), Atom(f"d{i}")
        eng.program.add_clause(Struct("e", (c, d)))
        table, _ = eng.space.check_insert_subgoal(
            pi, Struct("p", (c, Var(0))), variant=True)
        eng.space.add_answer(table, (d,))
        table.status = SubgoalTable.COMPLETE
    return eng


class TestTrieFanoutScales:
    """A trie walk reads a node's variable edges, not all its children:
    an operation on one first argument costs the same at 2,000 and at
    20,000 distinct first arguments."""

    OPS = 100

    @pytest.fixture(scope="class")
    def engines(self):
        # the collector leaves the two engines, and everything else alive
        # now, out of its passes while the operations run
        engines = _fanout(2000), _fanout(20000)
        gc.collect()
        gc.freeze()
        yield engines
        gc.unfreeze()

    @staticmethod
    def _lookup(eng, i):
        goal = Struct("e", (Atom(f"c{i}"), Var(0)))
        assert len(eng.program.lookup_clauses(goal, 1)) == 1

    @staticmethod
    def _retract(eng, i):
        assert eng.program.retract_clause(
            Struct("e", (Atom(f"c{i}"), Atom(f"d{i}"))))

    @staticmethod
    def _call(eng, i):
        assert len(eng.query(Struct("p", (Atom(f"c{i}"), Var(0))))) == 1

    @pytest.mark.parametrize("op", ["_lookup", "_retract", "_call"])
    def test_cost_per_operation_stays_flat(self, engines, op):
        run = getattr(self, op)

        def cpu_per_op(eng, r):
            # first arguments spread over the trie; a retract takes each
            # odd one once, the other operations read even ones
            idx = [(2 * (j * 997 + r * self.OPS) + (op == "_retract"))
                   % 2000 for j in range(self.OPS)]
            start = time.thread_time()
            for i in idx:
                run(eng, i)
            return (time.thread_time() - start) / self.OPS

        # the sizes take turns, best of 5 each, as in TestLongNegativeLoops
        runs = [tuple(cpu_per_op(eng, r) for eng in engines)
                for r in range(5)]
        small, large = map(min, zip(*runs))
        assert large < 2.0 * small, (small, large)


def _dynamic_reads(n):
    """``n`` dynamic predicates ``d_i/1``, each read by the complete
    table of a tabled ``p_i/1``, and an untabled fact ``f/1``."""
    eng = make("".join(f":- dynamic d{i}/1.\n:- table p{i}/1.\n"
                       f"d{i}({i}).\np{i}(X) :- d{i}(X).\n"
                       for i in range(n)) + "f(1).\n")
    for i in range(n):
        assert len(eng.query(Struct(f"p{i}", (Var(0),)))) == 1
    assert len(eng.space.dyn_readers) == n
    return eng


class TestQueryCostFlatInDynamicReads:
    """A query's own table records no reads of dynamic code, and none
    are looked for as it ends: a query of an untabled fact costs the
    same after 200 and after 2,000 dynamic predicates were read."""

    OPS = 200

    @pytest.fixture(scope="class")
    def engines(self):
        engines = _dynamic_reads(200), _dynamic_reads(2000)
        gc.collect()
        gc.freeze()
        yield engines
        gc.unfreeze()

    def test_cost_per_query_stays_flat(self, engines):
        goal = Struct("f", (Var(0),))

        def cpu_per_query(eng):
            start = time.thread_time()
            for _ in range(self.OPS):
                eng.query(goal)
            return (time.thread_time() - start) / self.OPS

        # the sizes take turns, best of 5 each, as in TestTrieFanoutScales
        runs = [tuple(cpu_per_query(eng) for eng in engines)
                for _ in range(5)]
        small, large = map(min, zip(*runs))
        assert large < 1.3 * small, (small, large)
        assert all(len(readers) == 1
                   for readers in engines[1].space.dyn_readers.values())


def _static_rules(n):
    """``n`` static tabled rule predicates ``p_i/1``, each over a fact,
    and an incremental ``q/1`` over an incremental dynamic ``e/1``."""
    eng = make("".join(f":- table p{i}/1.\np{i}(X) :- s{i}(X).\ns{i}({i}).\n"
                       for i in range(n))
               + ":- use_incremental_dynamic e/1.\n:- table q/1 as incremental.\n"
                 "q(X) :- e(X).\ne(0).\n")
    assert len(eng.query(Struct("q", (Var(0),)))) == 1
    return eng


class TestUpdateCostFlatInRules:
    """An incremental update asserts or retracts a fact, which changes
    nothing ``finalize`` reads: a round of updates and queries costs the
    same beside 200 and beside 2,000 tabled rule predicates."""

    OPS = 100

    @pytest.fixture(scope="class")
    def engines(self):
        engines = _static_rules(200), _static_rules(2000)
        gc.collect()
        gc.freeze()
        yield engines
        gc.unfreeze()

    def test_cost_per_round_stays_flat(self, engines):
        goal = Struct("q", (Var(0),))

        def cpu_per_round(eng):
            start = time.thread_time()
            for _ in range(self.OPS):
                incr_assert(eng, "e(1)")
                assert len(eng.query(goal)) == 2
                incr_retract(eng, "e(1)")
                assert len(eng.query(goal)) == 1
            return (time.thread_time() - start) / self.OPS

        # the sizes take turns, best of 5 each, as in TestTrieFanoutScales
        runs = [tuple(cpu_per_round(eng) for eng in engines)
                for _ in range(5)]
        small, large = map(min, zip(*runs))
        assert large < 1.3 * small, (small, large)


class TestTabledReach:
    def test_left_recursion_terminates(self):
        eng = make(REACH_L)
        assert sorted(solutions(eng, "reach(1,Y).")) == \
            ["reach(1,2)", "reach(1,3)"]

    def test_right_recursion_terminates(self):
        eng = make(REACH_R)
        assert sorted(solutions(eng, "reach(1,Y).")) == \
            ["reach(1,2)", "reach(1,3)"]

    def test_cycle_terminates(self):
        eng = make(REACH_L + "edge(3,1).")
        assert len(solutions(eng, "reach(1,Y).")) == 3

    @pytest.mark.parametrize("src", [REACH_L, REACH_R],
                             ids=["left", "right"])
    def test_random_graph_matches_bfs(self, src):
        rng = random.Random(42)
        edges = random_digraph(rng, 30, 90)
        facts = "\n".join(f"edge({a},{b})." for a, b in edges)
        eng = make(src.replace("edge(1,2).  edge(2,3).", facts))
        got = {int(term_to_str(a.goal)[len("reach(7,"):-1])
               for a in eng.query("reach(7,Y).")}
        assert got == bfs_reachable(edges, 7)

    def test_variant_calls_share_one_table(self):
        eng = make(REACH_L)
        eng.query("reach(1,Y).")
        eng.query("reach(1,X).")
        stats = eng.statistics()["tables"]["reach/2"]
        assert stats["tables"] == 1


def spy_consumers(monkeypatch):
    """The consumers made from now on, in a list that fills as they are."""
    made = []

    class Spy(engine_module.Consumer):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(engine_module, "Consumer", Spy)
    return made


LAST_P = ":- table p/2, q/2.\nq(X,Y) :- p(X,Y).\n"
LAST_W = (":- table p/0, q/0, r/0, w/0.\nw :- p.\np :- tnot q.\n"
          "q :- tnot r.\nr.\nr :- tnot p.")
LAST_REFUTED = (":- table p/2, q/2, a0/0, a1/0, a3/0.\nq(X,Y) :- p(X,Y).\n"
                "p(c0,k) :- tnot a1.\np(c1,k) :- tnot a3.\np(c9,k).\n"
                "p(c2,k) :- tnot a3.\na1 :- tnot a0.\n"
                "a1 :- tnot a3, tnot p(c1,k).\na3 :- tnot p(c0,k).")
LAST_BEST = (":- table best(_,min), sp/2.\nbest(X,C) :- sp(X,C).\n"
             "sp(a,3). sp(b,2). sp(a,1).")


class TestLastCall:
    """A call with nothing after it hands its answers straight to its
    owner's table; the answers and truths are those of the general
    return path."""

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("src,goal,want,last", [
        # a non-ground answer with a repeated variable
        (LAST_P + "p(Z,Z).\np(b,c).", "q(X,Y).",
         [("q(_G0,_G0)", "true"), ("q(b,c)", "true")], ["$query", "q"]),
        (LAST_P + "p(Z,Z).\np(b,c).", "q(a,Y).",
         [("q(a,a)", "true")], ["$query", "q"]),
        # under batched, p returns to w while conditional, and
        # simplification later makes it true
        (LAST_W, "w.", [("w", "true")], ["$query", "w"]),
        # under batched, p(c1,k) and p(c2,k) return to q while
        # conditional, and simplification later deletes them
        (LAST_REFUTED, "q(X,Y).", [("q(c9,k)", "true")], ["$query", "q"]),
        # the owner reduces under answer subsumption
        (LAST_BEST, "best(X,C).", None, ["$query", "best"]),
        # findall's reader is not a table: it takes the general path
        (LAST_P + "p(1,a). p(Z,Z). p(2,b).", "findall(X-Y, q(X,Y), L).",
         [("findall(-(_G0,_G1),q(_G0,_G1),[-(1,a),-(_G2,_G2),-(2,b)])",
           "true")], ["q"]),
    ], ids=["repeated", "repeated_bound", "simplified_true",
            "simplified_false", "subsumption", "findall"])
    def test_answers_as_on_the_general_path(self, src, goal, want, last,
                                            strategy, monkeypatch):
        made = spy_consumers(monkeypatch)
        eng = make(src, strategy=strategy)
        got = [(term_to_str(a.goal), a.truth) for a in eng.query(goal)]
        if want is None:    # batched also lists the replaced best(a,3)
            want = [("best(a,1)", "true"), ("best(b,2)", "true")] \
                if strategy == "local" else [
                    ("best(a,3)", "true"), ("best(b,2)", "true"),
                    ("best(a,1)", "true")]
        assert got == want
        takers = [c for c in made
                  if c.plan is not None and c.plan.pred is None]
        assert sorted({c.cont.owner.pred.name for c in takers}) == last
        assert all(type(c.cont.owner) is not engine_module.Collector
                   for c in takers)
        if "findall" in goal:
            assert any(type(c.cont.owner) is engine_module.Collector
                       for c in made)


CLOSURE = (":- table reach/2.\nreach(X,Y) :- reach(X,Z), e(Z,Y).\n"
           "reach(X,Y) :- e(X,Y).\n")
MINPATH = (":- table sp(_,_,min).\nsp(X,Y,C) :- e(X,Y,C).\n"
           "sp(X,Y,C) :- sp(X,Z,C1), e(Z,Y,C2), C is C1 + C2.\n")
BACK = (":- table back/2, pair/2.\nback(X,Y) :- back(X,Z), e(Y,Z).\n"
        "back(X,Y) :- e(Y,X).\npair(X,W) :- back(X,Y), d(Y,W,W).\n")
OPTION_SETS = [{"strategy": s, "default_tabling": t}
               for s in ("local", "batched")
               for t in ("variant", "subsumptive")]


def facts(name, rows):
    return "".join(f"{name}({','.join(map(str, r))}).\n" for r in rows)


def joined(made):
    """The predicates of the fact joins the consumers ``made`` planned."""
    return sorted({c.plan.pred.name for c in made
                   if c.plan is not None and c.plan.pred is not None})


def observed(eng, goals):
    """What the golden test pins of a run: answers in order, truths,
    trace lines, K and the counters."""
    eng.trace_enabled = True
    out = [[(term_to_str(a.goal), a.truth) for a in eng.query(g)]
           for g in goals]
    return out, eng.trace_lines, eng.K, eng.counters


class TestFactJoin:
    """A consumer whose clause goes on with a call of ground facts and
    ``is/2`` goals joins its answers with the facts directly; it must
    answer as the general return path does."""

    @pytest.mark.parametrize("options", OPTION_SETS,
                             ids=lambda o: "-".join(o.values()))
    def test_closure_matches_bfs(self, options, monkeypatch):
        made = spy_consumers(monkeypatch)
        edges = random_digraph(random.Random(11), 25, 70)
        eng = make(CLOSURE + facts("e", edges), **options)
        for s in (1, 7, 19):
            got = {a.goal.args[1].value for a in eng.query(f"reach({s},Y).")}
            assert got == bfs_reachable(edges, s)
        assert joined(made) == ["e"]

    @pytest.mark.parametrize("options", OPTION_SETS,
                             ids=lambda o: "-".join(o.values()))
    def test_minpath_matches_dijkstra(self, options, monkeypatch):
        made = spy_consumers(monkeypatch)
        rng = random.Random(5)
        edges = [(a, b, rng.randint(1, 9))
                 for a, b in random_digraph(rng, 20, 60)]
        eng = make(MINPATH + facts("e", edges), **options)
        for s in (1, 4, 13):
            got = {a.goal.args[1].value: a.goal.args[2].value
                   for a in eng.query(f"sp({s},Y,C).")}
            assert got == dijkstra(edges, s)
        assert joined(made) == ["e"]

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("src,goals", [
        (CLOSURE, ["reach(1,Y).", "reach(X,Y).", "reach(X,X)."]),
        (MINPATH, ["sp(1,Y,C).", "sp(X,Y,C)."]),
        # the index cannot narrow e(Y,Z) by Z, nor d(Y,W,W) by W
        (BACK, ["back(1,Y).", "pair(2,W).", "back(X,Y)."]),
    ], ids=["closure", "minpath", "unindexed"])
    def test_runs_as_the_general_path(self, src, goals, strategy,
                                      monkeypatch):
        # answers, their order, the traces, K and the counters
        rng = random.Random(2)
        edges = random_digraph(rng, 12, 30)
        if src is MINPATH:
            edges = [(a, b, rng.randint(1, 5)) for a, b in edges]
        elif src is BACK:
            src += facts("d", [(a, b, rng.choice((a, b))) for a, b in edges])
        src += facts("e", edges)
        joins = observed(make(src, strategy=strategy), goals)
        monkeypatch.setattr(engine_module, "_return_plan",
                            lambda *args: None)
        assert joins == observed(make(src, strategy=strategy), goals)

    @pytest.mark.parametrize("weight", ["2+3", "a", "0"])
    def test_arithmetic_as_the_general_path(self, weight, monkeypatch):
        # a weight that is an expression, not a number, or a zero divisor
        made = spy_consumers(monkeypatch)
        src = (":- table p/2.\np(X,C) :- e(X,C).\n"
               "p(Y,C) :- p(X,C1), f(X,Y,C2), C is C1 // C2 + 1.\n"
               f"e(1,4). f(1,2,{weight}). f(2,3,2).\n")

        def run():
            try:
                return observed(make(src), ["p(Y,C)."])
            except EvalError as exc:
                return exc.kind, str(exc)

        joins = run()
        assert joined(made) == ["f"]
        monkeypatch.setattr(engine_module, "_return_plan",
                            lambda *args: None)
        assert joins == run()

    @pytest.mark.parametrize("added", [
        "e(X,Y) :- g(X,Y).\ng(3,9).", ":- table e/2.\ne(3,9)."],
        ids=["rule", "table"])
    def test_a_later_consult_takes_effect(self, added, monkeypatch):
        made = spy_consumers(monkeypatch)
        src = CLOSURE + "e(1,2). e(2,3).\n"
        eng = make(src, query_level_tabling=True)
        assert solutions(eng, "reach(1,Y).") == ["reach(1,2)", "reach(1,3)"]
        assert joined(made) == ["e"]
        del made[:]
        eng.consult(added)
        want = solutions(make(src + added), "reach(1,Y).")
        assert "reach(1,9)" in want
        assert solutions(eng, "reach(1,Y).") == want
        assert joined(made) == []

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_general_cases_take_the_general_path(self, strategy,
                                                 monkeypatch):
        made = spy_consumers(monkeypatch)
        # a non-ground fact; a non-ground answer read by a join
        eng = make(CLOSURE + "e(1,2). e(2,3). e(X,X).\n"
                   ":- table p/1, q/1.\np(_).\nq(Y) :- p(Z), f(Z,Y).\n"
                   "f(1,a). f(2,b).\n", strategy=strategy)
        assert sorted(solutions(eng, "reach(1,Y).")) == [
            "reach(1,1)", "reach(1,2)", "reach(1,3)"]
        assert sorted(solutions(eng, "q(Y).")) == ["q(a)", "q(b)"]
        assert joined(made) == ["f"]

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_findall_of_the_shape(self, strategy, monkeypatch):
        made = spy_consumers(monkeypatch)
        edges = random_digraph(random.Random(4), 10, 25)
        eng = make(CLOSURE + facts("e", edges), strategy=strategy)
        [a] = eng.query("findall(Y, (reach(1,Z), e(Z,Y)), L).")
        items, t = [], a.goal.args[2]
        while type(t) is Struct:
            items.append(t.args[0].value)
            t = t.args[1]
        assert sorted(items) == sorted(
            y for z in bfs_reachable(edges, 1) for x, y in edges if x == z)
        # the findall reader takes the general path, reach's own join
        assert [type(c.cont.owner) for c in made if c.plan is not None] \
            == [SubgoalTable]

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_incremental_facts_answer_as_a_fresh_engine(self, strategy):
        head = (":- use_incremental_dynamic e/2.\n:- table reach/2 as "
                "incremental.\nreach(X,Y) :- reach(X,Z), e(Z,Y).\n"
                "reach(X,Y) :- e(X,Y).\n")
        edges = {(1, 2), (2, 3), (3, 1), (4, 5)}
        eng = make(head + facts("e", sorted(edges)), strategy=strategy)
        for update, edge in [(incr_assert, (3, 4)), (incr_retract, (2, 3)),
                             (incr_assert, (5, 1))]:
            for s in (1, 4):
                fresh = make(head + facts("e", sorted(edges)),
                             strategy=strategy)
                assert truth_set(eng, f"reach({s},Y).") == \
                    truth_set(fresh, f"reach({s},Y).")
            update(eng, "e(%d,%d)." % edge)
            edges ^= {edge}


def _counted(eng):
    return tuple(eng.counters[k] for k in (
        "new_subgoal", "clause_resolution", "positive_return",
        "negative_return", "delaying"))


# p/1 takes one answer twice, through a last call (p(X) :- q(X)) or a
# fact join (p(Y) :- q(X), f(X,Y)): conditional first, then true, which
# promotes it; or conditional twice, on other delay lists, which merges
# them
DUP_LAST_PROMOTE = """
:- table p/1, q/1, r/1, u/0, v/0.
u :- tnot u.
v :- tnot u, fail.
q(1) :- tnot u.
r(1) :- tnot v.
p(X) :- r(X).
p(X) :- q(X).
"""
DUP_LAST_MERGE = """
:- table p/1, q/1, r/1, u/0, w/0.
u :- tnot u.
w :- tnot w.
q(1) :- tnot u.
r(1) :- tnot w.
p(X) :- q(X).
p(X) :- r(X).
"""
DUP_JOIN = """
:- table p/1, q/1, u/0, v/0, w/0.
u :- tnot u.
v :- tnot u, fail.
w :- tnot w.
q(1) :- tnot u.
q(2) :- tnot SECOND.
f(1,a). f(2,a). f(2,b).
p(Y) :- q(X), f(X,Y).
"""

# ground owners, each read by tnot, whose answer simplification settles
# while readers still wait on it, and which a last call (P_LAST) or a
# fact join (P_JOIN_A, P_JOIN_B) then derives again
P_LAST = """
:- table p/1, q/1, r/1.
p(1) :- tnot(p(4)).
q(3).
p(4) :- tnot(q(0)).
p(3) :- r(2).
q(0) :- p(0).
r(1) :- q(0).
r(2) :- q(3).
p(0) :- q(0), tnot(q(1)).
p(0) :- p(1).
r(1) :- p(3).
q(1) :- r(1).
q(1) :- q(1).
q(2) :- tnot(q(0)).
r(2) :- tnot(q(2)).
"""
P_JOIN_A = """
:- table p/1, q/1, r/1.
e(1). e(2).
q(0) :- r(4), e(Z).
r(2) :- r(3), tnot(q(3)).
r(3) :- q(0), tnot(p(0)).
p(0) :- q(0), e(Z).
p(4) :- tnot(p(2)).
p(2) :- q(1).
r(2).
q(0) :- tnot(p(0)).
r(4) :- p(0), e(Z).
q(1) :- tnot(p(4)).
r(1) :- r(2).
q(2) :- p(4), e(Z).
p(0) :- q(2), e(Z).
q(2) :- r(1), e(Z).
"""
P_JOIN_B = """
:- table p/1, q/1, r/1.
e(1). e(2).
r(2).
p(2) :- p(3), e(Z).
q(2) :- tnot(q(0)).
q(0) :- q(2), e(Z).
q(2) :- p(2), e(Z).
p(0) :- tnot(p(0)).
p(3) :- p(0).
q(2) :- r(2).
q(0) :- q(0), e(Z).
"""
U, T = "undefined", "true"


class TestDuplicateProbe:
    """A fused return, or a clause body that ends, passes over a
    derivation that one probe of its owner's answer index finds settled
    (ground, meeting an unconditional answer of a table without answer
    subsumption or tnot readers); anything else still reaches the table.
    Answers, truths, K and the counters are those the general insert
    gave (the values are the ones before the probe existed)."""

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("src,goals,want,k,counted,event", [
        (DUP_LAST_PROMOTE, ["p(X).", "p(1)."], [[("p(1)", T)]] * 2, 32,
         (10, 10, 6, 4, 2), "promote"),
        (DUP_LAST_MERGE, ["p(X).", "p(1)."], [[("p(1)", U)]] * 2, 32,
         (10, 10, 6, 2, 4), "merged"),
        (DUP_JOIN.replace("SECOND", "v"), ["p(Y).", "p(a)."],
         [[("p(a)", T), ("p(b)", T)], [("p(a)", T)]], 24,
         (7, 6, 7, 2, 2), "promote"),
        (DUP_JOIN.replace("SECOND", "w"), ["p(Y).", "p(a)."],
         [[("p(a)", U), ("p(b)", U)], [("p(a)", U)]], 24,
         (7, 6, 7, 1, 3), "merged"),
    ], ids=["last_promote", "last_merge", "join_promote", "join_merge"])
    def test_a_conditional_answer_is_still_promoted_or_merged(
            self, src, goals, want, k, counted, event, strategy,
            monkeypatch):
        made = spy_consumers(monkeypatch)
        seen = []   # (what the table space did, the table's predicate)
        add, promote = TableSpace.add_answer, TableSpace._promote

        def spy_add(space, table, *args):
            status, rec = add(space, table, *args)
            seen.append((status, table.pred.name))
            return status, rec

        def spy_promote(space, ans):
            seen.append(("promote", ans.table.pred.name))
            promote(space, ans)

        monkeypatch.setattr(TableSpace, "add_answer", spy_add)
        monkeypatch.setattr(TableSpace, "_promote", spy_promote)
        eng = make(src, strategy=strategy)
        got = [[(term_to_str(a.goal), a.truth) for a in eng.query(g)]
               for g in goals]
        assert (got, eng.K, _counted(eng)) == (want, k, counted)
        assert (event, "p") in seen
        # p's answers come through the fused path the case names
        last_call = "f(X,Y)" not in src
        assert {c.plan.pred is None for c in made if c.plan is not None
                and c.cont.owner.pred.name == "p"} == {last_call}

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("src,goals,pinned", [
        (P_LAST, ["q(X)."], {
            "local": ([[("q(3)", T), ("q(0)", U), ("q(2)", U), ("q(1)", T)]],
                      53, (12, 19, 16, 2, 4)),
            "batched": ([[("q(3)", T), ("q(1)", T), ("q(0)", U),
                          ("q(2)", U)]], 53, (12, 19, 16, 2, 4))}),
        (P_LAST, ["p(0)."], {
            "local": ([[("p(0)", U)]], 40, (11, 14, 10, 0, 5)),
            "batched": ([[("p(0)", U)]], 40, (11, 14, 10, 1, 4))}),
        (P_JOIN_A, ["p(4).", "q(X)."], {
            "local": ([[("p(4)", U)], [("q(1)", U), ("q(2)", T),
                                       ("q(0)", T)]], 54, (13, 19, 16, 4, 2)),
            "batched": ([[("p(4)", U)], [("q(0)", T), ("q(1)", U),
                                         ("q(2)", T)]], 54,
                        (13, 19, 16, 2, 4))}),
        (P_JOIN_B, ["p(2).", "q(X)."], {
            "local": ([[("p(2)", U)], [("q(2)", T), ("q(0)", T)]], 39,
                      (9, 14, 13, 2, 1)),
            "batched": ([[("p(2)", U)], [("q(0)", T), ("q(2)", T)]], 39,
                        (9, 14, 13, 2, 1))}),
    ], ids=["last_open", "last_ground", "join_a", "join_b"])
    def test_tnot_readers_of_a_ground_owner_resolve_as_before(
            self, src, goals, pinned, strategy):
        # a derivation of a settled ground answer whose table has waiting
        # tnot readers still resolves them at once
        eng = make(src, strategy=strategy)
        got = [[(term_to_str(a.goal), a.truth) for a in eng.query(g)]
               for g in goals]
        assert (got, eng.K, _counted(eng)) == pinned[strategy]

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_duplicates_do_not_reach_the_table_space(self, strategy):
        # a cycle of 6 with two chords: reach(1,Y) derives its 6 answers
        # 10 times, 2 by the clause e(X,Y) and 8 by the join, of which 4
        # are duplicates; each answer returns twice, to the join and to
        # the query, and only the 6 new derivations reach the table space
        # (10 before the probe).  Under batched the clause derives
        # reach(1,3) once the join has, at the end of its body, where the
        # same probe passes over it; K, the counters and the traces are
        # those the insert gave
        eng = make(CLOSURE + facts("e", [(i, i % 6 + 1) for i in range(1, 7)]
                                   + [(1, 3), (2, 5)]), strategy=strategy)
        eng.trace_enabled = True
        calls = []
        add = eng.space.add_answer
        eng.space.add_answer = lambda t, *a: calls.append(t) or add(t, *a)
        assert len(eng.query("reach(1,Y).")) == 6
        assert (eng.K, _counted(eng)) == (16, (2, 2, 12, 0, 0))
        returns = ["POSITIVE_RETURN"] * 6
        tail = {"local": ["COMPLETION"] + returns,
                "batched": returns + ["COMPLETION"]}[strategy]
        assert [line.split()[1] for line in eng.trace_lines] == [
            "NEW_SUBGOAL"] + ["PROGRAM_CLAUSE_RESOLUTION"] * 2 + returns + tail
        assert len(calls) == 6


class TestDirectFactProbe:
    """A fact join whose row binds the argument the predicate's first
    index reads, to an atom or an integer, finds its facts by one probe
    of that index; any other row or index takes the general lookup.
    Either way, answers, their order, the traces, K and the counters are
    those of the general return path."""

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("src,goals,direct", [
        (CLOSURE + "e(1,2). e(2,f(1)). e(f(1),2). e(f(1),3). e(3,a).\n"
         "e(a,f(1)).\n", ["reach(1,Y).", "reach(X,Y)."], [True]),
        # an index on the second argument, which the row binds in back/2
        # and leaves unbound in reach/2
        (BACK + CLOSURE + ":- index(e/2, 2).\ne(1,2). e(2,3). e(3,1). "
         "e(3,4).\nd(1,a,a).\n", ["back(1,Y).", "reach(1,Y).",
                                  "pair(2,W)."], [False, True]),
        (CLOSURE + ":- index(e/2, trie).\ne(1,2). e(2,3). e(3,1). "
         "e(3,4).\n", ["reach(1,Y).", "reach(X,Y)."], [False]),
    ], ids=["compound_first_argument", "index_on_another_argument",
            "trie_index"])
    def test_runs_as_the_general_path(self, src, goals, direct, strategy,
                                      monkeypatch):
        made = spy_consumers(monkeypatch)
        joins = observed(make(src, strategy=strategy), goals)
        assert sorted({c.plan.direct is not None for c in made
                       if c.plan is not None and c.plan.pred is not None}) \
            == direct
        monkeypatch.setattr(engine_module, "_return_plan",
                            lambda *args: None)
        assert joins == observed(make(src, strategy=strategy), goals)

    @pytest.mark.parametrize("src,goal", [
        ("e(1,a). e(X,b). e(2,c). e(1,d).", "e(1,Y)"),
        (":- index(e/2, 2).\ne(1,a). e(2,b). e(3,a).", "e(X,a)"),
        ("e(1,a). e(2,b).", "e(3,Y)"),
        ("e(f(1),a). e(1,b).", "e(1,Y)"),
    ])
    def test_lookup_atomic_is_the_lookup(self, src, goal):
        eng = make(src)
        pi = eng.program.preds[("e", 2)]
        g = parse_goal(goal + ".").term
        a = g.args[pi.indexes[0].argnos[0]]
        assert pi.indexes[0].lookup_atomic(a) == \
            eng.program._candidates(pi, g)[1]


class TestAnswerOrder:
    def test_clause_order_then_insertion_order(self):
        eng = make(REACH_R)
        assert solutions(eng, "reach(1,Y).") == ["reach(1,2)", "reach(1,3)"]

    def test_repeat_query_is_deterministic(self):
        eng = make(REACH_L + "edge(3,1). edge(2,1).")
        first = solutions(eng, "reach(1,Y).")
        assert solutions(eng, "reach(1,Y).") == first

    def test_fresh_engine_reproduces_order(self):
        a = solutions(make(REACH_L + "edge(1,3)."), "reach(1,Y).")
        b = solutions(make(REACH_L + "edge(1,3)."), "reach(1,Y).")
        assert a == b

    # Atoms and integers hash by identity, so by address: a process that
    # made and dropped other terms first must print the same answers and
    # trace, byte for byte.
    ORDER_RUN = """
import sys
from tlpe.engine import Engine
from tlpe.terms import Atom, Int, term_to_str
if sys.argv[1] == "shift":
    junk = [(Atom(f"junk{i}"), Int(10 ** 9 + i)) for i in range(3000)]
    del junk
eng = Engine()
eng.trace_enabled = True
eng.consult(sys.stdin.read())
for goal in ("reach(n1,Y).", "reach(X,Y)."):
    for a in eng.query(goal):
        print(term_to_str(a.goal), a.truth)
print("\\n".join(eng.trace_lines))
"""

    def test_order_does_not_depend_on_addresses(self):
        edges = random_digraph(random.Random(7), 30, 90)
        node = lambda i: f"n{i}" if i % 2 else str(i)
        program = REACH_L + "".join(
            f"edge({node(a)},{node(b)}). " for a, b in edges)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        outs = []
        for shift, seed in (("plain", "1"), ("shift", "2")):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            run = subprocess.run(
                [sys.executable, "-c", self.ORDER_RUN, shift], input=program,
                capture_output=True, text=True, env=env, timeout=120)
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1]
        assert outs[0].count(" true\n") > 100


class TestStrategies:
    PROGRAMS = [
        REACH_L + "edge(3,1).",
        REACH_R,
        """
        :- table p/1, q/1.
        p(X) :- q(X).
        q(1). q(2).
        p(3) :- p(3).
        """,
    ]

    @pytest.mark.parametrize("src", PROGRAMS)
    def test_local_and_batched_agree(self, src):
        g = "reach(1,Y)." if "reach" in src else "p(X)."
        local = truth_set(make(src, strategy="local"), g)
        batched = truth_set(make(src, strategy="batched"), g)
        assert local == batched


class TestCallSubsumption:
    SRC = """
    :- table p/2 as subsumptive.
    p(a,1). p(a,2). p(b,3).
    """

    def test_specific_call_reuses_general_producer(self):
        eng = make(self.SRC)
        eng.query("p(X,Y).")
        eng.query("p(a,Z).")
        # p(a,Z) reads the table of p(X,Y) in place
        assert eng.statistics()["tables"]["p/2"]["tables"] == 1

    def test_variant_mode_creates_two_producers(self):
        eng = make(self.SRC.replace(" as subsumptive", ""))
        eng.query("p(X,Y).")
        eng.query("p(a,Z).")
        assert eng.statistics()["tables"]["p/2"]["tables"] == 2

    def test_answers_equal_between_modes(self):
        sub = make(self.SRC)
        var = make(self.SRC.replace(" as subsumptive", ""))
        for g in ("p(X,Y).", "p(a,Z).", "p(b,Z)."):
            assert sorted(solutions(sub, g)) == sorted(solutions(var, g))

    def test_specific_first_then_general(self):
        eng = make(self.SRC)
        eng.query("p(a,Z).")
        eng.query("p(X,Y).")
        # the specific call could not reuse anything, so two tables
        assert eng.statistics()["tables"]["p/2"]["tables"] == 2

    # under the general call r(X,Y), the cut in g/2 commits to e(b,b)
    CUT = """
    :- table r/2.
    g(X,Y) :- e(X,Z), X == Z, !, Y = Z.
    g(X,Y) :- e(X,Z), e(Z,Y).
    r(X,Y) :- g(X,Z), e(Z,Y).
    r(X,X) :- e(X,_), r(X,_).
    e(b,b). e(c,d). e(d,a). e(d,c).
    """

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_a_predicate_above_a_cut_is_tabled_by_variant(self, strategy):
        want = ["r(b,b)", "r(c,c)", "r(d,d)"]
        for mode in ("variant", "subsumptive"):
            eng = make(self.CUT, strategy=strategy, default_tabling=mode)
            assert sorted(solutions(eng, "r(X,Y).")) == want
            assert eng.program.info("r", 2).tabling == "variant"

    # each pair: a program, then a general and a specific query whose
    # answers a builtin that reads how bound a term is makes differ
    READERS = [
        (":- table p/1.\np(X) :- X == a.", "p(X).", "p(a).", ["p(a)"]),
        (":- table p/1.\np(X) :- X \\= a.", "p(X).", "p(b).", ["p(b)"]),
        (":- table s/2.\ns(X,L) :- findall(X, q(X), L).\nq(a). q(b).",
         "s(X,L).", "s(a,L).", ["s(a,[a])"]),
        (":- table p/2.\np(X,L) :- sort([X,a],L).", "p(X,L).", "p(b,L).",
         ["p(b,[a,b])"]),
        (":- table p/2.\np(X,L) :- flatten([X],L).", "p(X,L).",
         "p([a,b],L).", ["p([a,b],[a,b])"]),
        (":- table p/1.\np(X) :- ord_subset([X],[a]).", "p(X).", "p(a).",
         ["p(a)"]),
        (":- table p/1.\np(X) :- ord_disjoint([X],[a]).", "p(X).", "p(a).",
         []),
        (":- table p/2.\np(X,L) :- ord_subtract([X,b],[a],L).", "p(X,L).",
         "p(a,L).", ["p(a,[b])"]),
    ]

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("src,general,specific,want", READERS)
    def test_a_predicate_above_a_binding_reader_is_tabled_by_variant(
            self, strategy, src, general, specific, want):
        for mode in ("variant", "subsumptive"):
            eng = make(src, strategy=strategy, default_tabling=mode)
            eng.query(general)
            assert solutions(eng, specific) == want, mode
            assert all(pi.tabling in ("none", "variant")
                       for pi in eng.program.user_predicates())

    def test_every_binding_reader_is_a_builtin(self):
        assert BINDING_READERS <= BUILTINS.keys()

    def test_callers_of_a_table_above_a_cut_are_tabled_by_variant(self):
        # top/2 reaches the cut only through the table of r/2; p/1 none
        src = (self.CUT + ":- table top/2 as subsumptive.\n"
               ":- table p/1 as subsumptive.\n"
               "top(X,Y) :- r(X,Y).\np(X) :- e(X,_).\n")
        goals = ("top(X,Y).", "top(c,Y).", "top(d,Y).", "p(X).", "p(c).")
        want = [solutions(make(src.replace("subsumptive", "variant")), g)
                for g in goals]
        eng = make(src)
        assert [solutions(eng, g) for g in goals] == want
        assert want[1] == ["top(c,d)", "top(c,c)"]
        assert [eng.program.info(*k).tabling
                for k in (("r", 2), ("top", 2), ("p", 1))] \
            == ["variant", "variant", "subsumptive"]

    def test_a_consult_that_adds_a_cut_takes_effect_at_the_next_query(self):
        eng = make(":- table p/1 as subsumptive.\np(X) :- q(X).\nq(a).")
        assert solutions(eng, "p(X).") == ["p(a)"]
        assert eng.program.info("p", 1).tabling == "subsumptive"
        eng.consult("q(b) :- !.")
        assert solutions(eng, "q(X).") == ["q(a)", "q(b)"]
        assert eng.program.info("p", 1).tabling == "variant"

    @pytest.mark.parametrize("mode", [" as subsumptive", ""])
    def test_findall_over_incomplete_producer_is_refused(self, mode):
        # findall(Z, p(1,Z), L) runs while p(X,Y) is still incomplete: a
        # subsumed call is refused as the variant call is
        eng = make(f"""
        :- table p/2{mode}.
        e(1,2). e(2,3).
        p(X,Y) :- e(X,Y).
        p(X,n) :- findall(Z, p(1,Z), _), e(X,_).
        """)
        for _ in range(2):
            with pytest.raises(EvalError) as err:
                eng.query("p(X,Y).")
            assert err.value.kind == "incomplete_outer"
            assert all(t.complete for t in eng.space.tables)
        assert sorted(solutions(eng, "e(X,Y).")) == ["e(1,2)", "e(2,3)"]

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_findall_in_findall_reads_only_its_own_incomplete_tables(
            self, strategy):
        # the middle findall makes q(_), the inner one r(_): each table is
        # first on its own evaluation's completion stack.  The inner one
        # may read r(_) while it is incomplete, but not q(_); under
        # batched r(_) is still incomplete as q(_) is called
        src = """
        :- table p/1, q/1, r/1.
        e(1). e(2).
        p(X) :- findall(Y, q(Y), _), e(X).
        q(Y) :- findall(Z, (r(Z), READ), _), e(Y).
        r(Z) :- e(Z).
        r(Z) :- r(Z).
        """
        eng = make(src.replace("READ", "q(_)"), strategy=strategy)
        with pytest.raises(EvalError) as err:
            eng.query("p(X).")
        assert err.value.kind == "incomplete_outer"
        assert "reads table q(_G0)" in str(err.value)
        assert all(t.complete for t in eng.space.tables)
        eng = make(src.replace("READ", "r(Z)"), strategy=strategy)
        assert solutions(eng, "p(X).") == ["p(1)", "p(2)"]
        assert solutions(eng, "q(X).") == ["q(1)", "q(2)"]

    def test_repeated_subsumed_call_returns_only_its_matches(self):
        # p(X,Y) has 2,000 answers, 40 of them p(c0,_); once it is
        # complete, each p(c0,Y) call walks its answer trie and returns
        # only those, however often it is made
        eng = make(":- table p/2 as subsumptive.\np(X,Y) :- e(X,Y).\n"
                   "thrice(Y) :- n(_), p(c0,Y).\nn(1). n(2). n(3).\n"
                   + "".join(f"e(c{i % 50},d{i}).\n" for i in range(2000)))
        assert len(eng.query("p(X,Y).")) == 2000
        returned = []
        return_answer = eng._return_answer
        eng._return_answer = lambda c, ans: (returned.append(ans),
                                             return_answer(c, ans))
        for goal, calls, matching in (("p(c0,Y).", 1, 40),
                                      ("thrice(Y).", 3, 40),
                                      ("p(X,d7).", 1, 1),
                                      ("p(c1,d7).", 1, 0)):
            returned.clear()
            assert len(eng.query(goal)) == matching
            assert len(returned) == calls * matching, goal
        assert eng.statistics()["tables"]["p/2"]["tables"] == 1

    def test_subsumed_call_over_long_answers(self):
        # the answer trie walk keeps its own stack: a subsumed call whose
        # variable meets a 3,000-element list answer, or whose list meets
        # one, stays clear of the recursion limit
        items = ",".join(map(str, range(3000)))
        eng = make(":- table p/2 as subsumptive.\n"
                   f"p(a,[{items}]).\np(b,[{items},x]).\n")
        assert len(eng.query("p(X,Y).")) == 2
        assert [term_to_str(a.goal)[:6] for a in eng.query("p(a,Y).")] \
            == ["p(a,[0"]
        assert len(eng.query(f"p(X,[{items}]).")) == 1
        assert eng.statistics()["tables"]["p/2"]["tables"] == 1

    def test_producer_subsumes_the_call(self):
        # p(V0,V0,c) and p(V0,V1,V0) share a trie prefix; the producer
        # lookup for p(a,a,b) must not take p(V0,V1,V0), which does not
        # subsume it
        eng = make("""
        :- table p/3 as subsumptive.
        p(a,a,b).
        p(X,Y,X) :- e(X,Y).
        p(X,X,c) :- e(X,_).
        e(a,a).
        """)
        eng.query("p(A,A,c).")
        eng.query("p(A,B,A).")
        answers = eng.query("Y = a, p(Y,Y,b).")
        assert [term_to_str(a.goal.args[1]) for a in answers] == \
            ["p(a,a,b)"]


class TestTableCountShape:
    @pytest.mark.parametrize("n", [3, 10])
    def test_append_creates_n_plus_one_tables(self, n):
        src = """
        :- table app/3.
        app([],L,L).
        app([H|T],L,[H|R]) :- app(T,L,R).
        """
        eng = make(src)
        lst = "[" + ",".join(str(i) for i in range(1, n + 1)) + "]"
        assert len(eng.query(f"app({lst},[x],Z).")) == 1
        assert eng.statistics()["tables"]["app/3"]["tables"] == n + 1


class TestTraces:
    def run_traced(self, src, goal):
        eng = make(src)
        eng.trace_enabled = True
        eng.query(goal)
        return eng.trace_lines

    def test_line_format(self):
        lines = self.run_traced(REACH_R, "reach(1,Y).")
        assert lines
        for line in lines:
            assert line.startswith("OP ")
            assert line.rstrip("]").rsplit("[K=", 1)[1].isdigit()

    def test_operations_present(self):
        ops = {l.split()[1] for l in self.run_traced(REACH_R, "reach(1,Y).")}
        assert {"NEW_SUBGOAL", "PROGRAM_CLAUSE_RESOLUTION",
                "POSITIVE_RETURN", "COMPLETION"} <= ops

    def test_node_counter_is_monotone(self):
        ks = [int(l.rsplit("[K=", 1)[1].rstrip("]"))
              for l in self.run_traced(REACH_L, "reach(1,Y).")]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_trace_is_reproducible(self):
        a = self.run_traced(REACH_L + "edge(3,1).", "reach(1,Y).")
        b = self.run_traced(REACH_L + "edge(3,1).", "reach(1,Y).")
        assert a == b

    def test_sink_gets_the_lines_and_none_are_kept(self):
        eng = make(REACH_R)
        eng.trace_enabled = True
        sunk = []
        eng.trace_sink = sunk.append
        eng.query("reach(1,Y).")
        assert sunk == self.run_traced(REACH_R, "reach(1,Y).")
        assert eng.trace_lines == []


class TestQueryLevelTabling:
    def test_tables_discarded_after_query(self):
        eng = make(REACH_L, query_level_tabling=True)
        eng.query("reach(1,Y).")
        assert eng.statistics()["tables"] == {}

    def test_tables_kept_by_default(self):
        eng = make(REACH_L)
        eng.query("reach(1,Y).")
        assert eng.statistics()["tables"]["reach/2"]["tables"] == 1

    def test_answer_stream_discards_its_tables(self):
        eng = make(REACH_L, query_level_tabling=True)
        for _ in range(3):
            got = [term_to_str(a.goal) for a in eng.answers("reach(1,Y).")]
            assert got == ["reach(1,2)", "reach(1,3)"]
        assert eng.space.tables == []

    @pytest.mark.parametrize("src,goal", [
        (":- table sp(_,_,min).\n"
         "sp(X,Y,C) :- e(X,Y,C).\n"
         "sp(X,Y,C) :- sp(X,Z,C1), e(Z,Y,C2), C is C1 + C2.\n"
         "e(1,2,3). e(2,3,1). e(1,3,5). e(3,1,1).", "sp(1,Y,C)."),
        (":- table win/1.\n"
         "win(X) :- move(X,Y), tnot win(Y).\n"
         "move(1,2). move(2,3). move(3,1). move(3,4).", "win(1)."),
    ], ids=["min", "win"])
    def test_no_table_outlives_its_query(self, src, goal):
        eng = make(src, query_level_tabling=True)
        made = []
        new_table = eng.space._new_table

        def spy(*args, **kw):
            table = new_table(*args, **kw)
            made.append(weakref.ref(table))
            return table

        eng.space._new_table = spy
        for _ in range(3):
            assert eng.query(goal)
        gc.collect()
        assert made
        assert [r for r in made if r() is not None] == []


class TestAnswerSubsumptionFeed:
    """A consumer of an answer-subsumption table is fed best value first,
    ties in answer order."""

    # a star: all N answers of sp(0,Y,C) are pending at once, and under
    # local scheduling each round feeds the recursive call one of them
    N = 400
    STAR = (":- table sp(_,_,min).\n"
            "sp(X,Y,C) :- e(X,Y,C).\n"
            "sp(X,Y,C) :- sp(X,Z,C1), e(Z,Y,C2), C is C1 + C2.\n"
            + "".join(f"e(0,{i},{i * 7 % 13}).\n" for i in range(1, N + 1)))

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_feeding_costs_one_key_per_answer(self, strategy, monkeypatch):
        made = []
        order_key = engine_module.order_key

        def counting(t):
            made.append(t)
            return order_key(t)

        eng = make(self.STAR, strategy=strategy)
        monkeypatch.setattr(engine_module, "order_key", counting)
        assert len(eng.query("sp(0,Y,C).")) == self.N
        # two consumers, the query's and the recursive call's, read N
        # answers each; rescanning the pending answers every round made
        # about N * N / 2 keys
        assert len(made) <= 3 * self.N

    # every lp(0,_,_) answer is worth 5 or 6: ties decide the feed order,
    # and with it the order in which later answers are derived
    LONGEST = """
    :- table lp(_,_,max).
    lp(X,Y,C) :- e(X,Y,C).
    lp(X,Y,C) :- lp(X,Z,C1), e(Z,Y,C2), C is C1 + C2.
    e(0,3,5). e(0,1,5). e(0,2,5). e(3,13,1). e(1,11,1). e(2,12,1).
    e(11,21,0). e(12,22,0).
    """

    @pytest.mark.parametrize("strategy,want", [
        ("local", ["lp(0,13,6)", "lp(0,11,6)", "lp(0,21,6)", "lp(0,12,6)",
                   "lp(0,22,6)", "lp(0,3,5)", "lp(0,1,5)", "lp(0,2,5)"]),
        ("batched", ["lp(0,3,5)", "lp(0,1,5)", "lp(0,2,5)", "lp(0,13,6)",
                     "lp(0,21,6)", "lp(0,11,6)", "lp(0,22,6)", "lp(0,12,6)"]),
    ])
    def test_max_ties_go_in_answer_order(self, strategy, want):
        eng = make(self.LONGEST, strategy=strategy)
        assert solutions(eng, "lp(0,Y,C).") == want


class TestCutOverIncompleteTable:
    CONSUMER = ":- table p/1. p(X) :- q(X). p(2). q(X) :- p(X), !."
    WAITER = """
        :- table p/0, r/0.
        p :- s. r :- tnot p.
        s :- a, !.
        a :- tnot r. a.
        """
    FIRST = ":- table p/1. p(1). p(2). q(X) :- p(X), !."
    # the clause after the cut runs while the cut's clause waits on r(_)
    PICK = """
        :- table first/1, r/1.
        first(X) :- pick(X).
        pick(X) :- r(X), !.
        pick(none).
        r(X) :- e(X).
        e(1).
        """

    @pytest.mark.parametrize("src,goal,strategy,want", [
        (CONSUMER, "p(X).", "local", None),
        (WAITER, "p.", "local", None),
        (FIRST, "q(X).", "local", ["q(1)"]),
        (FIRST, "q(X).", "batched", None),
        (PICK, "first(X).", "batched", None),
    ], ids=["consumer", "negation_waiter", "first_local", "first_batched",
            "pick_batched"])
    def test_cut_over_incomplete_table(self, src, goal, strategy, want):
        # under batched scheduling p(1) reaches the cut while p(X) is
        # still incomplete; under local scheduling p(X) completes first
        eng = make(src, strategy=strategy)
        for _ in range(2):      # the engine stays usable after the error
            if want is None:
                with pytest.raises(EvalError) as err:
                    eng.query(goal)
                assert err.value.kind == "cut_over_incomplete_table"
            else:
                assert solutions(eng, goal) == want
            assert all(t.complete for t in eng.space.tables)

    @pytest.mark.xfail(strict=True, reason="under local the cut runs only "
                       "once r(_) completes, after pick(none) has answered")
    def test_cut_after_a_later_clause_ran_under_local(self):
        eng = make(self.PICK)
        try:
            got = solutions(eng, "first(X).")
        except EvalError as err:
            assert err.kind == "cut_over_incomplete_table"
        else:
            assert got == ["first(1)"]


class TestEngineGuards:
    @pytest.mark.parametrize("option,allowed", [
        ("strategy", "local or batched"),
        ("default_tabling", "variant or subsumptive")])
    def test_an_unknown_mode_names_its_parameter(self, option, allowed):
        with pytest.raises(ValueError) as err:
            Engine(**{option: "foo"})
        assert str(err.value) == f"unknown {option}: 'foo' ({allowed})"

    def test_nested_query_rejected(self):
        eng = make("p(1).")
        stream = eng.answers("p(X).")
        next(stream)
        # answers() finished eagerly, so a second query is fine
        assert solutions(eng, "p(X).") == ["p(1)"]

    def test_abolish_all_under_an_open_stream(self):
        eng = make(REACH_L)
        want = solutions(eng, "reach(1,Y).")
        eng.abolish_all()
        stream = eng.answers("reach(1,Y).")
        got = [term_to_str(next(stream).goal)]
        eng.abolish_all()
        assert eng.space.tables == []
        got += [term_to_str(a.goal) for a in stream]
        assert got == want and len(want) == 2

    def test_statistics_shape(self):
        eng = make(REACH_L)
        eng.query("reach(1,Y).")
        st = eng.statistics()
        assert {"tables", "counters", "nodes", "simplifications",
                "recomputations"} <= set(st)
        assert st["counters"]["new_subgoal"] >= 1


class TestInternTable:
    """The table of shared integers keeps no ``Int`` that nothing else
    holds: ``is/2`` can make any number of distinct values."""

    COUNT = """
    upto(0, []).
    upto(N, [N|T]) :- N > 0, M is N - 1, upto(M, T).
    down(0).
    down(N) :- N > 0, M is N - 1, down(M).
    """

    def test_integers_made_by_is_are_released(self):
        eng = make(self.COUNT)
        gc.collect()
        before = len(terms_module._INTS)
        held = eng.query("upto(10000, L).")
        assert len(held) == 1
        assert len(terms_module._INTS) >= before + 9990
        del held
        assert len(eng.query("down(10000).")) == 1
        gc.collect()
        assert len(terms_module._INTS) <= before + 10


class TestQueryTable:
    """A query's own table lives one evaluation: what outlives it is
    its complete tables and their answers."""

    @staticmethod
    def assert_no_query_table(eng):
        assert ("$query", 1) not in eng.program.preds
        assert [t for t in eng.space.tables if t.pred.name == "$query"] == []

    def test_a_consult_after_a_query_is_seen_by_the_same_query(self):
        eng = make(":- dynamic p/1.\np(1).")
        assert solutions(eng, "p(X).") == ["p(1)"]
        eng.consult("p(2).")
        assert solutions(eng, "p(X).") == ["p(1)", "p(2)"]
        assert eng.space.tables == []

    @pytest.mark.parametrize("how", ["query", "answers", "raised"])
    def test_no_query_table_outlives_its_evaluation(self, how):
        eng = make(":- table p/1.\np(1).\nq :- tnot p(_).")
        if how == "query":
            assert solutions(eng, "p(X).") == ["p(1)"]
        elif how == "answers":
            assert [term_to_str(a.goal) for a in eng.answers("p(X).")] \
                == ["p(1)"]
        else:
            with pytest.raises(EvalError) as err:
                eng.query("p(X), q.")
            assert err.value.kind == "floundered"
        self.assert_no_query_table(eng)

    def test_abolish_after_a_raised_query_with_a_conditional_answer(self):
        # the query's table took a conditional answer of p, so p's
        # table lists it among its conditional dependents
        eng = make(":- table p/0, q/0.\np :- tnot q.\nq :- tnot p.\n"
                   "g :- p.\ng :- tnot s(_).")
        assert truth_set(eng, "p.") == {("p", "undefined")}
        with pytest.raises(EvalError) as err:
            eng.query("g.")
        assert err.value.kind == "floundered"
        eng.abolish_all()
        assert eng.space.tables == []
        assert truth_set(eng, "p.") == {("p", "undefined")}

    def test_a_conditional_query_leaves_no_watchers(self):
        eng = make(":- table p/0, q/0.\np :- tnot q.\nq :- tnot p.")
        for _ in range(5):
            assert truth_set(eng, "p.") == {("p", "undefined")}
        p, q = (eng.space.lookup_variant(Atom(n)) for n in "pq")
        [ans] = p.answers
        watchers = list(ans.pos_watchers) + p.neg_watchers + q.neg_watchers
        assert [dl.owner.table.pred.name for dl, _ in watchers] == ["q", "p"]
        assert p.cond_dependents == {q} and q.cond_dependents == {p}
        assert truth_set(eng, "q.") == {("q", "undefined")}

    INCR = """
    :- use_incremental_dynamic e/2.
    :- table reach/2 as incremental.
    reach(X,Y) :- e(X,Y).
    reach(X,Y) :- e(X,Z), reach(Z,Y).
    e(1,2). e(2,3).
    """

    def test_an_open_stream_reads_a_snapshot(self):
        eng = make(self.INCR)
        stream = eng.answers("reach(1,Y).")
        got = [term_to_str(next(stream).goal)]
        assert incr_assert(eng, "e(3,4).")
        got += [term_to_str(a.goal) for a in stream]
        assert got == ["reach(1,2)", "reach(1,3)"]
        assert solutions(eng, "reach(1,Y).") == got + ["reach(1,4)"]

    def test_complete_tables_drop_their_readers(self):
        edges = random_digraph(random.Random(3), 12, 30)
        eng = make(REACH_L.replace("edge(1,2).  edge(2,3).", "".join(
            f"edge({a},{b}). " for a, b in edges)))
        for x in (1, 2, 5):
            assert solutions(eng, f"reach({x},Y).")
        assert eng.space.tables
        for t in eng.space.tables:
            assert t.complete and t.consumers == []


class TestAbolishReclaims:
    """An abolished table leaves the call graph in both directions, and
    the watcher lists of the tables it leans on."""

    @pytest.mark.parametrize("abolish", [
        lambda eng: eng.abolish_call("q(X)"),
        lambda eng: eng.abolish_pred("q", 1),
        lambda eng: eng.abolish_call("p(X)"),
    ], ids=["call_callee", "pred_callee", "call_caller"])
    def test_no_call_edge_survives(self, abolish):
        eng = make(":- table p/1, q/1.\np(X) :- q(X).\nq(a).")
        assert solutions(eng, "p(X).") == ["p(a)"]
        abolish(eng)
        assert faults(eng) == []
        assert solutions(eng, "p(X).") == ["p(a)"]
        assert faults(eng) == []

    @pytest.mark.parametrize("abolish", [
        lambda eng: eng.abolish_all(), lambda eng: eng.abolish_call("q(X)")],
        ids=["all", "one"])
    def test_no_dynamic_reader_survives(self, abolish):
        eng = make(":- table p/1, q/1.\n:- dynamic e/1.\n"
                   "p(X) :- e(X).\nq(X) :- e(X).\ne(a).")
        assert solutions(eng, "p(X).") == ["p(a)"]
        assert solutions(eng, "q(X).") == ["q(a)"]
        abolish(eng)
        readers = {t for r in eng.space.dyn_readers.values() for t in r}
        assert readers == set(eng.space.tables) and faults(eng) == []

    def test_cost_per_conditional_answer_stays_flat(self):
        # every answer of p leans on tnot u: u's watcher list is read
        # once, not once per answer
        def cpu_per_answer(n):
            eng = make(":- table p/1, u/0.\nu :- tnot u.\n"
                       "p(X) :- n(X), tnot u.\n"
                       + "".join(f"n({i}).\n" for i in range(n)))
            assert len(eng.query("p(X).")) == n
            start = time.thread_time()
            eng.abolish_call("p(X)")
            spent = (time.thread_time() - start) / n
            [u] = eng.space.tables
            assert [dl.owner.table for dl, _ in u.neg_watchers] == [u]
            return spent

        runs = [(cpu_per_answer(500), cpu_per_answer(4000))
                for _ in range(3)]
        small, large = map(min, zip(*runs))
        assert large < 2.0 * small, (small, large)

    def test_no_watcher_survives(self):
        eng = make(":- table r/0, u/0.\nr :- tnot u.\nu :- tnot u.")
        assert truth_set(eng, "r.") == {("r", "undefined")}
        eng.abolish_call("r")
        assert faults(eng) == []
        [u] = eng.space.tables
        assert [dl.owner.table for dl, _ in u.neg_watchers] == [u]
        assert list(u.dep_in) == [u] and u.cond_dependents == {u}
        assert truth_set(eng, "r.") == {("r", "undefined")}


class TestQueryAnswers:
    """A query answer's goal and bindings are those of the answer term it
    was read from, whatever the goal's shape: the query table's, or, for
    a query of one tabled call, the called table's."""

    SRC = """
    :- table t/2, u/0, v/0.
    p(a,b). p(c,d). p(f(a),g(W)). p(X,X). p(f(Y),h(Y,Z)). p(e,e).
    t(X,Y) :- p(X,Y).
    q.
    u :- tnot v.
    v :- tnot u.
    """

    @pytest.mark.parametrize("goal,n", [
        ("p(X,Y).", 6),             # flat; answers that hold variables
        ("p(f(X),Y).", 3),          # nested
        ("p(X,X).", 2),             # a repeated variable
        ("q.", 1),                  # an atom
        ("t(X,Y).", 6),             # a tabled call
        ("t(f(a),h(a,V)).", 1),     # a ground subterm and a fresh one
        ("t(X,X).", 2),             # tabled: a repeated variable
        ("t(a,b).", 1),             # ground arguments
        ("t(a,Y).", 2),             # a ground argument and a variable
        ("t(f(X),Y).", 3),          # a nested compound argument
        ("p(X,Y), u.", 6),          # a conjunction, undefined answers
    ])
    def test_goal_and_bindings_match_the_answer_term(self, goal, n):
        eng = make(self.SRC)
        wrapper = eng._eval_wrapper
        tables = []
        eng._eval_wrapper = lambda g: tables.append(wrapper(g)) or tables[-1]
        got = eng.query(goal)
        [table] = tables
        term = parse_goal(goal).term
        qvars = term_vars(term)
        if goal.startswith("t("):
            assert table.answers == []
            callee = eng.space.lookup_variant(term)
            want = [(a, a.term) for a in callee.answers if not a.deleted]
        else:
            want = [(a, a.term.args[0]) for a in table.answers
                    if not a.deleted]
        assert len(got) == len(want) == n
        for a, (ans, instance) in zip(got, want):
            assert a.goal == instance
            assert a.bindings == dict(zip(qvars, ans.bindings))
            assert a.truth == ("undefined" if ans.conditional else "true")
        assert {a.truth for a in got} == \
            {"undefined" if "u" in goal else "true"}


    @pytest.mark.parametrize("text", [
        "r(X,Y)", "r(X,X)", "r(Y,X,Y)", "r(a,b)", "r(a,Y,X)", "r(f(X),Y)",
        "r(X)", "r(f(X))", "r", "X", "(r(X), s(Y))"])
    def test_answer_goals_are_the_substituted_goal(self, text):
        # a goal of flat arguments takes its bindings into slots; any
        # other goes through substitute, the general path
        t, n = terms_module.canonicalize(parse_goal(text + ".").term)
        b = (Atom("k"), Struct("g", (Var(0), Var(1))), Var(0))[:n]
        got = engine_module._instancer(t)(b)
        assert got == terms_module.substitute(t, b)
        assert term_to_str(got) == term_to_str(terms_module.substitute(t, b))


class TestQueryOfOneTabledCall:
    """A query of one variant call of a table without answer subsumption
    returns the records of the called table; any other goal reads the
    answers of a table of its own.  Both give the same answers."""

    # answer completion deletes p(0): its one delay list left leans on
    # p(0) itself
    COMPLETION = """
    :- table p/1, q/1, r/1.
    q(0) :- p(0), r(2), tnot(p(0)), tnot(q(3)).
    p(0) :- tnot(p(1)), tnot(r(1)).
    r(1) :- tnot(q(0)).
    p(0) :- p(0), tnot(r(2)).
    """

    # untabled predicates over tabled calls: two clauses over two tables,
    # arguments swapped, a fact beside the call
    WRAPPERS = """
    :- table p/1, q/1, t/2.
    p(a). q(b). t(a,1). t(b,2).
    r(X) :- p(X).
    r(X) :- q(X).
    s(X,Y) :- t(Y,X).
    u(X) :- p(X).
    u(c).
    """

    PROGRAMS = {
        "reach_left": (REACH_LEFT, ["reach(1,Y)", "reach(X,Y)",
                                    "reach(3,Y)"]),
        "win_game": (WIN_GAME, ["win(X)", "win(1)", "win(5)"]),
        "completion": (COMPLETION, ["p(X)", "q(X)", "r(X)", "p(0)"]),
        "incr": (INCR, ["reach(1,Y)", "un(X)", ("assert", "e(3,4)."),
                        "reach(1,Y)", "un(X)"]),
        "wrappers": (WRAPPERS, ["r(X)", "s(X,Y)", "u(X)", "r(X)"]),
    }

    @staticmethod
    def run(src, steps, conj, **options):
        """What each step gives, queried as a goal ``G`` or, with ``conj``
        set, as ``(G, true)``."""
        eng = make(src, **options)
        eng.trace_enabled = True
        results = []
        for step in steps:
            if isinstance(step, tuple):
                results.append(len(incr_assert(eng, step[1])))
            else:
                answers = eng.query(f"({step}, true)." if conj else step + ".")
                results.append([
                    (term_to_str(a.goal.args[0] if conj else a.goal), a.truth,
                     {v: term_to_str(t) for v, t in a.bindings.items()})
                    for a in answers])
        deleted = sum(a.deleted for t in eng.space.tables for a in t.answers)
        return results, deleted, eng.K, eng.counters, eng.trace_lines

    @pytest.mark.parametrize("mode", ["variant", "subsumptive"])
    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_the_called_table_gives_the_answers_of_a_table_of_its_own(
            self, name, strategy, mode):
        src, steps = self.PROGRAMS[name]
        if mode == "subsumptive":   # incremental tables must be variant
            src = src.replace("as incremental", "as incremental as variant")
        options = {"strategy": strategy, "default_tabling": mode}
        direct = self.run(src, steps, False, **options)
        own = self.run(src, steps, True, **options)
        assert direct == own
        results, deleted = direct[:2]
        assert any(truth == "undefined" for answers in results
                   if isinstance(answers, list) for _, truth, _ in answers) \
            == (name == "win_game")
        assert bool(deleted) == (name == "completion")
        if name == "completion":    # p(0) is false, its record deleted
            assert results[0] == []

    @pytest.mark.parametrize("mode", ["variant", "subsumptive"])
    @pytest.mark.parametrize("strategy,r", [
        ("local", [("r(b)", ["b"]), ("r(a)", ["a"])]),
        ("batched", [("r(a)", ["a"]), ("r(b)", ["b"])]),
    ])
    def test_a_wrapper_answers_with_its_own_goal(self, strategy, r, mode):
        eng = make(self.WRAPPERS, strategy=strategy, default_tabling=mode)

        def answers(goal):
            return [(term_to_str(a.goal),
                     [term_to_str(t) for t in a.bindings.values()])
                    for a in eng.query(goal)]

        for _ in range(2):  # the tables new, then complete
            assert answers("r(X).") == r
            assert answers("s(X,Y).") == [("s(1,a)", ["1", "a"]),
                                          ("s(2,b)", ["2", "b"])]
            assert answers("u(X).") == [("u(a)", ["a"]), ("u(c)", ["c"])]
            r = sorted(r)

    @staticmethod
    def inserts(eng, goal):
        """The predicates of the tables ``goal``'s query inserts into."""
        names = []
        add_answer = eng.space.add_answer

        def spy(table, *args):
            names.append(table.pred.name)
            return add_answer(table, *args)

        eng.space.add_answer = spy
        try:
            assert eng.query(goal)
        finally:
            eng.space.add_answer = add_answer
        return names

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_the_query_keeps_no_copies(self, strategy):
        eng = make(WIN_GAME, strategy=strategy)
        assert "$query" not in self.inserts(eng, "win(X).")
        assert "$query" not in self.inserts(eng, "win(X).")
        assert {a.truth for a in eng.query("win(X).")} \
            == {"true", "undefined"}
        for t in eng.space.tables:
            owners = [dl.owner.table for a in t.answers
                      for dl, _ in a.pos_watchers] \
                + [dl.owner.table for dl, _ in t.neg_watchers] \
                + list(t.cond_dependents)
            assert all(o.pred.name == "win" for o in owners)

    @pytest.mark.parametrize("src,goals", [
        (WIN_GAME, ["win(X), true."]),                  # a conjunction
        (":- table p/2 as subsumptive.\np(a,1). p(b,2).",
         ["p(X,Y).", "p(a,Y)."]),                       # a subsumed read
        (":- table sp(_,_,min).\nsp(1,2,5). sp(1,2,3).",
         ["sp(1,Y,C)."]),                               # answer subsumption
        pytest.param(WRAPPERS, ["r(X)."], id="wrapper-r"),
        pytest.param(WRAPPERS, ["s(X,Y)."], id="wrapper-s"),
        pytest.param(WRAPPERS, ["u(X)."], id="wrapper-u"),
        pytest.param(WRAPPERS, ["X = a, p(X)."], id="builtin-first"),
    ])
    def test_other_goals_insert_into_their_own_table(self, src, goals):
        eng = make(src)
        *first, last = goals
        for g in first:
            eng.query(g)
        assert "$query" in self.inserts(eng, last)


class TestRepl:
    """The interactive loop reports bad input and goes on."""

    @staticmethod
    def session(src, text):
        out, err = io.StringIO(), io.StringIO()
        assert cli.Repl(make(src), io.StringIO(text), out, err).loop() == 0
        return out.getvalue(), err.getvalue()

    def test_a_missing_file_is_an_io_error(self, tmp_path):
        missing = tmp_path / "nonexistent.pl"
        out, err = self.session("p(1).", f":load {missing}.\np(X).\n")
        assert err.startswith("error: io: ") and str(missing) in err
        assert "X = 1" in out

    def test_a_bad_indicator_is_a_bad_command(self):
        out, err = self.session(REACH_L, ":abolish pred 3/2.\nedge(1,Y).\n")
        assert err == "error: bad_command: expected name/arity, got 3/2\n"
        assert "Y = 2" in out

    def test_a_goal_that_is_not_callable_is_an_error(self):
        out, err = self.session(REACH_L, ":residual 3.\n:abolish call 3.\n"
                                "edge(1,Y).\n")
        assert err == "error: type_error: not a callable term: 3\n" * 2
        assert "Y = 2" in out

    def test_stats_after_a_query_lists_only_program_tables(self):
        out, err = self.session(REACH_L, "reach(1,Y).\n\n:stats.\n")
        assert err == ""
        assert "reach/2: tables=1 answers=2" in out
        assert "$query" not in out


def settled(eng):
    return all(t.status in (SubgoalTable.COMPLETE, SubgoalTable.INVALID)
               for t in eng.space.tables)


class TestErrorKinds:
    """Each failure surfaces as its own ``EvalError`` kind, every time,
    and leaves the engine reusable: no table is left incomplete, and
    the next query answers."""

    # kind -> (program, failing goal or change, goal that then answers)
    QUERIES = {
        "join_failed": (
            ":- table p(j/3-0).\np(1).\nj(A,B,C) :- C is A + B, C > 100.\n"
            "q(1).", "p(X).", "q(X)."),
        "join_nondet": (
            ":- table p(j/3-0).\np(1).\nj(A,_,A).\nj(_,B,B).\nq(1).",
            "p(X).", "q(X)."),
        "subsumption_type": (
            ":- table p(sum).\np(a).\nq(1).", "p(X).", "q(X)."),
        "subsumption_nonground": (
            ":- table p(_,min).\np(X,_) :- q(X).\nq(1).", "p(X,Y).",
            "q(X)."),
        "subsumption_conditional": (
            ":- table p(min), q/0, r/0.\np(1) :- tnot q.\nq :- tnot r.\n"
            "r :- tnot q.\ns(1).", "p(X).", "s(X)."),
        "floundered": (
            ":- table p/1.\np(1).\nq :- tnot p(_).\ns(1).", "q.", "p(X)."),
        "negation_untabled": (
            "p(1).\nq :- tnot p(1).\ns(1).", "q.", "p(X)."),
    }

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("kind", sorted(QUERIES))
    def test_query_error(self, kind, strategy):
        src, bad, good = self.QUERIES[kind]
        eng = make(src, strategy=strategy)
        for _ in range(2):
            with pytest.raises(EvalError) as err:
                eng.query(bad)
            assert err.value.kind == kind
            assert settled(eng)
        assert solutions(eng, good)

    INCR = """
    :- use_incremental_dynamic e/1.
    :- table p/0 as incremental, q/0 as incremental.
    p :- e(1), tnot q.
    q :- tnot p.
    e(1).
    """

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_update_through_a_negative_loop(self, strategy):
        eng = make(self.INCR, strategy=strategy)
        assert truth_set(eng, "p.") == {("p", "undefined")}
        for _ in range(2):
            with pytest.raises(EvalError) as err:
                incr_invalidate(eng, "assert(e(2)).")
            assert err.value.kind == "incremental_nonstratified"
            assert settled(eng)
        assert truth_set(eng, "q.") == {("q", "undefined")}
        assert solutions(eng, "e(X).") == ["e(1)"]

    # class -> (program, goal, the CLI's line)
    CLASSES = {
        ParseError: ("p(1).", "p(.",
                     "parse: unexpected end of input at line 1, column 3"),
        DirectiveError: (":- foo.", "p(X).",
                         "directive: unknown directive: foo"),
        StoreError: ("p(X) :- X.", "p(X).",
                     "store: clause body contains an unbound goal variable"),
        EvalError: ("p(1).", "X is foo.",
                    "arith_type: not an arithmetic expression: foo"),
    }

    # each call on a goal that is no callable term: a number or a variable
    NOT_CALLABLE = {
        "residual_of_a_number": (lambda e: get_residual(e, "3"),
                                 "type_error"),
        "residual_of_a_variable": (lambda e: get_residual(e, "X"),
                                   "instantiation"),
        "abolish_call": (lambda e: e.abolish_call("3"), "type_error"),
        "incr_invalidate": (lambda e: incr_invalidate(e, "3"), "type_error"),
        "incr_assert": (lambda e: incr_assert(e, "X"), "instantiation"),
    }

    @pytest.mark.parametrize("case", sorted(NOT_CALLABLE))
    def test_a_goal_that_is_not_callable(self, case):
        call, kind = self.NOT_CALLABLE[case]
        eng = make(self.INCR)
        assert truth_set(eng, "p.") == {("p", "undefined")}
        for _ in range(2):
            with pytest.raises(EvalError) as err:
                call(eng)
            assert err.value.kind == kind
            assert settled(eng)
        assert truth_set(eng, "q.") == {("q", "undefined")}

    @pytest.mark.parametrize("cls", list(CLASSES), ids=lambda c: c.__name__)
    def test_every_error_class_has_its_kind(self, cls, tmp_path, capsys):
        src, bad, line = self.CLASSES[cls]
        with pytest.raises(cls) as err:
            make(src).query(bad)
        assert err.value.kind == line.split(":")[0]
        path = tmp_path / "prog.P"
        path.write_text(src + "\n")
        assert cli.main(["run", str(path), "-g", bad]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_base_kind(self):
        assert TlpeError("x").kind == "error"
