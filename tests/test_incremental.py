"""Incremental tabling: eager update, invalidation, batched update and
error recovery, each checked against a fresh evaluation."""

import random
import sys
from collections import Counter

import pytest

from tlpe import cli
from tlpe import engine as engine_module
from tlpe import incremental as incremental_module
from tlpe.engine import Engine
from tlpe.errors import DirectiveError, EvalError
from tlpe.incremental import (incr_assert, incr_invalidate, incr_retract,
                              incr_table_update)
from tlpe.parser import parse_goal
from tlpe.tables import SubgoalTable
from tlpe.terms import Int, Struct, Var, term_to_str

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from invariants import CheckedEngine, TableSpaceFault


def make(src, **kw):
    eng = Engine(**kw)
    eng.consult(src)
    return eng


def answer_set(eng, goal):
    return {(term_to_str(a.goal), a.truth) for a in eng.query(goal)}


def settled(eng):
    """Outside a running evaluation every live table is complete or
    invalid."""
    return all(t.status in (SubgoalTable.COMPLETE, SubgoalTable.INVALID)
               for t in eng.space.tables
               if t.status != SubgoalTable.ABOLISHED)


RULES = """
:- use_incremental_dynamic e/2.
:- table reach/2 as incremental.
:- table rl/2 as incremental.
:- table un/1 as incremental.
reach(X,Y) :- e(X,Y).
reach(X,Y) :- e(X,Z), reach(Z,Y).
rl(X,Y) :- e(X,Y).
rl(X,Y) :- rl(X,Z), e(Z,Y).
node(N) :- e(N,_).
node(N) :- e(_,N).
un(X) :- node(X), tnot reach(1,X).
"""

# without un/1, every table an assert marks is monotone: the assert is
# followed by its delta, and only a retract resets tables
MONOTONE_RULES = RULES.replace(":- table un/1 as incremental.\n", "") \
    .replace("un(X) :- node(X), tnot reach(1,X).\n", "")


def facts(edges):
    return "".join(f"e({a},{b}).\n" for a, b in sorted(edges))


def fresh(edges, goal):
    return answer_set(make(RULES + facts(edges)), goal)


class TestEagerUpdate:
    def test_assert_into_cycle_matches_fresh(self):
        edges = {(1, 2), (2, 3), (3, 1), (4, 5)}
        eng = make(RULES + facts(edges))
        assert len(answer_set(eng, "reach(1,Y).")) == 3
        incr_assert(eng, "e(3,4).")
        edges.add((3, 4))
        got = answer_set(eng, "reach(1,Y).")
        assert len(got) == 5
        assert got == fresh(edges, "reach(1,Y).")

    def test_negation_after_mixed_updates_matches_fresh(self):
        edges = {(1, 1), (1, 3), (2, 1), (2, 3), (4, 4)}
        eng = make(RULES.replace("reach(X,Y) :- e(X,Z), reach(Z,Y).",
                                 "reach(X,Y) :- reach(X,Z), e(Z,Y).")
                   + facts(edges))
        for goal in ("reach(1,Y).", "reach(X,Y).", "un(X)."):
            eng.query(goal)
        incr_invalidate(eng, "retract(e(4,4)).")
        eng.query("reach(1,Y).")
        eng.query("un(X).")
        incr_invalidate(eng, "assert(e(3,3)).")
        eng.query("reach(X,Y).")
        eng.query("reach(1,Y).")
        incr_assert(eng, "e(4,4).")
        got = answer_set(eng, "un(X).")
        assert got == {("un(2)", "true"), ("un(4)", "true")}

    def test_retract_recomputes_now(self):
        edges = {(1, 2), (2, 3)}
        eng = make(RULES + facts(edges))
        eng.query("reach(1,Y).")
        recomputed = incr_retract(eng, "e(2,3).")
        assert recomputed
        assert all(t.complete for t in recomputed)
        assert answer_set(eng, "reach(1,Y).") == {("reach(1,2)", "true")}


class TestBatchUpdate:
    def test_table_update_completes_every_invalid_table(self):
        edges = {(1, 2), (2, 3), (3, 1), (4, 5)}
        eng = make(RULES + facts(edges))
        goals = ("reach(1,Y).", "rl(X,Y).", "un(X).")
        for goal in goals:
            eng.query(goal)
        for change in ("assert(e(3,4)).", "retract(e(1,2)).",
                       "assert(e(5,2))."):
            incr_invalidate(eng, change)
        edges |= {(3, 4), (5, 2)}
        edges.discard((1, 2))
        invalid = [t for t in eng.space.tables
                   if t.status == SubgoalTable.INVALID]
        assert invalid
        recomputed = incr_table_update(eng)
        assert all(t.complete for t in invalid)
        assert {id(t) for t in recomputed} == {id(t) for t in invalid}
        assert settled(eng)
        for goal in goals:
            assert answer_set(eng, goal) == fresh(edges, goal)

    def test_table_update_without_changes_does_nothing(self):
        eng = make(RULES + facts({(1, 2)}))
        eng.query("reach(1,Y).")
        assert incr_table_update(eng) == []


class TestNoOpChange:
    SRC = """
    :- use_incremental_dynamic e/2.
    :- use_incremental_dynamic f/1.
    :- index(f/1, trie).
    :- table r/1 as incremental.
    r(X) :- e(X,_).
    r(X) :- f(X).
    e(1,2).
    e(1,2).
    f(3).
    """

    @pytest.mark.parametrize("change", ["retract(e(9,9)).", "assert(f(3)).",
                                        "assert(e(1,2)).", "retract(e(1,2))."])
    def test_change_that_changes_nothing_marks_nothing(self, change):
        eng = make(self.SRC)
        before = answer_set(eng, "r(X).")
        assert incr_invalidate(eng, change) == []
        assert all(t.complete for t in eng.space.tables)
        assert answer_set(eng, "r(X).") == before

    COPIES = """
    :- use_incremental_dynamic e/2.
    :- table all/1 as incremental.
    :- table first/1 as incremental.
    all(L) :- findall(X, e(X,_), L).
    first(X) :- pick(X).
    pick(X) :- e(X,_), !.
    e(1,2). e(3,4). e(1,2).
    """

    @pytest.mark.parametrize("change", ["assert(e(3,4)).", "retract(e(1,2))."])
    def test_copies_show_under_findall_and_cut(self, change):
        # the change keeps a variant of the clause in e/2, but findall
        # counts the copies and the cut sees their order
        eng = make(self.COPIES)
        goals = ["all(L).", "first(X)."]
        for goal in goals:
            answer_set(eng, goal)
        marked = {term_to_str(t.subgoal) for t in incr_invalidate(eng, change)}
        assert {"all(_G0)", "first(_G0)"} <= marked
        fresh = make(self.COPIES)
        assert incr_invalidate(fresh, change) == []
        for goal in goals:
            assert answer_set(eng, goal) == answer_set(fresh, goal)


    CUT_CLAUSE = """
    :- use_incremental_dynamic e/2.
    :- table r/1 as incremental.
    r(X) :- e(X,_).
    e(1,2). e(7,8) :- !. e(1,2).
    """

    def test_cut_among_the_clauses_shows_their_order(self):
        # retracting the first e(1,2) puts the cut clause first, so r/1
        # loses r(1) though e/2 still holds a copy of e(1,2)
        eng = make(self.CUT_CLAUSE)
        assert answer_set(eng, "r(X).") == {("r(1)", "true"),
                                            ("r(7)", "true")}
        marked = incr_invalidate(eng, "retract(e(1,2)).")
        assert "r(_G0)" in {term_to_str(t.subgoal) for t in marked}
        assert answer_set(eng, "r(X).") == {("r(7)", "true")}


class TestRejectedUpdate:
    SRC = """
    :- use_incremental_dynamic e/2.
    :- table r/1.
    r(X) :- e(X,_).
    e(1,2).
    """

    def test_rejected_update_leaves_program_and_tables(self):
        eng = make(self.SRC)
        assert answer_set(eng, "r(X).") == {("r(1)", "true")}
        with pytest.raises(EvalError) as err:
            incr_invalidate(eng, "assert(e(7,8)).")
        assert err.value.kind == "incremental_unsupported"
        assert answer_set(eng, "e(X,Y).") == {("e(1,2)", "true")}
        assert answer_set(eng, "r(X).") == answer_set(make(self.SRC), "r(X).")

    def test_refusal_names_the_oldest_table(self):
        # which table the refusal names must not depend on addresses
        eng = make(":- use_incremental_dynamic e/1.\n"
                   + "".join(f":- table p{i}/1.\np{i}(X) :- e(X).\n"
                             for i in range(8)) + "e(1).")
        for i in range(8):
            assert answer_set(eng, f"p{i}(X).") == {(f"p{i}(1)", "true")}
        with pytest.raises(EvalError) as err:
            incr_invalidate(eng, "assert(e(2)).")
        assert err.value.kind == "incremental_unsupported"
        assert "p0(_G0)" in str(err.value)

    def test_negative_edge_outside_a_loop_is_accepted(self, monkeypatch):
        # un(X) reads reach(1,X) through tnot, in no loop; the search for
        # a negative loop runs only where an affected table has such an
        # edge
        searched = []

        def tarjan_sccs(nodes, succ):
            searched.append(nodes)
            return real(nodes, succ)

        real = incremental_module.tarjan_sccs
        monkeypatch.setattr(incremental_module, "tarjan_sccs", tarjan_sccs)
        edges = {(1, 2), (2, 3), (4, 4)}
        eng = make(RULES + facts(edges))
        answer_set(eng, "reach(1,Y).")
        incr_invalidate(eng, "assert(e(3,5)).")
        assert searched == []
        answer_set(eng, "un(X).")
        marked = incr_invalidate(eng, "assert(e(2,4)).")
        assert "un(_G0)" in {term_to_str(t.subgoal) for t in marked}
        assert len(searched) == 1
        edges |= {(3, 5), (2, 4)}
        assert answer_set(eng, "un(X).") == fresh(edges, "un(X).")


class TestRecovery:
    SRC = """
    :- use_incremental_dynamic e/2.
    :- table p/1 as incremental.
    p(Z) :- e(_,Y), Z is Y+1.
    e(1,1).
    """

    def test_failed_recompute_is_retried(self):
        eng = make(self.SRC)
        assert answer_set(eng, "p(Z).") == {("p(2)", "true")}
        incr_invalidate(eng, "assert(e(2,a)).")
        with pytest.raises(EvalError) as err:
            eng.query("p(Z).")
        assert err.value.kind == "arith_type"
        assert settled(eng)
        incr_invalidate(eng, "retract(e(2,a)).")
        assert answer_set(eng, "p(Z).") == {("p(2)", "true")}

    def test_every_exit_by_exception_leaves_tables_settled(self):
        eng = make(self.SRC)
        eng.query("p(Z).")
        with pytest.raises(EvalError):
            incr_assert(eng, "e(2,a).")
        assert settled(eng)
        incr_invalidate(eng, "assert(e(3,b)).")
        with pytest.raises(EvalError):
            list(eng.answers("p(Z)."))
        assert settled(eng)
        with pytest.raises(EvalError):
            incr_table_update(eng)
        assert settled(eng)
        incr_retract(eng, "e(2,a).")
        incr_retract(eng, "e(3,b).")
        assert answer_set(eng, "p(Z).") == {("p(2)", "true")}

    def test_recompute_that_read_a_dropped_table_is_redone(self):
        src = """
        :- use_incremental_dynamic e/2.
        :- use_incremental_dynamic f/1.
        :- table p/1 as incremental.
        :- table q/1 as incremental.
        :- table c/1 as incremental.
        c(X) :- p(X).
        p(X) :- f(1), q(X).
        q(X) :- e(2,X).
        e(2,5).
        """
        eng = make(src)
        assert answer_set(eng, "c(X).") == set()
        incr_invalidate(eng, "assert(f(1)).")
        # c(_) and p(_) are recomputed and complete, p(_) reading the new
        # table q(_); the query then raises and q(_) is dropped with it
        with pytest.raises(EvalError):
            eng.query("c(X), Y is X + a.")
        assert settled(eng)
        incr_invalidate(eng, "retract(e(2,5)).")
        assert answer_set(eng, "c(X).") == set()


def recomputations(eng):
    return sum(pi.recomputations for pi in eng.program.user_predicates())


def table_of(eng, goal):
    return eng.space.lookup_variant(parse_goal(goal).term)


class TestDelta:
    """An assert into monotone tables reopens them and resumes only the
    reads that the new fact answers; anything else resets them."""

    def test_assert_resets_nothing(self):
        eng = make(RULES + facts({(1, 2), (2, 3), (3, 1), (4, 5)}))
        answer_set(eng, "reach(1,Y).")
        incr_invalidate(eng, "assert(e(3,4)).")
        assert answer_set(eng, "reach(1,Y).") == fresh(
            {(1, 2), (2, 3), (3, 1), (4, 5), (3, 4)}, "reach(1,Y).")
        assert recomputations(eng) == 0

    FALLBACKS = {
        "tnot": ("""
            :- use_incremental_dynamic e/2.
            :- table p/1 as incremental.
            :- table q/1 as incremental.
            p(X) :- e(X,_), tnot q(X).
            q(X) :- e(_,X).
            e(1,2).""", "e(2,1)", ["p(X).", "q(X)."]),
        "findall": ("""
            :- use_incremental_dynamic e/2.
            :- table all/1 as incremental.
            :- table r/1 as incremental.
            all(L) :- findall(X, r(X), L0), sort(L0, L).
            r(X) :- e(X,_).
            e(3,2).""", "e(1,2)", ["all(L).", "r(X)."]),
        "cut": ("""
            :- use_incremental_dynamic e/2.
            :- table first/1 as incremental.
            :- table r/1 as incremental.
            first(X) :- pick(X).
            pick(X) :- r(X), !.
            pick(none).
            r(X) :- e(X,_).
            e(5,5) :- fail.""", "e(1,2)", ["r(X).", "first(X)."]),
        "conditional answer": ("""
            :- use_incremental_dynamic e/2.
            :- table p/1 as incremental.
            :- table u/0.
            p(X) :- e(X,_), u.
            u :- tnot u.
            e(1,2).""", "e(3,4)", ["p(X)."]),
    }

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    def test_reader_that_is_not_monotone_is_reset(self, case, strategy):
        src, fact, goals = self.FALLBACKS[case]
        eng = make(src, strategy=strategy)
        for goal in goals:
            answer_set(eng, goal)
        assert incr_invalidate(eng, f"assert({fact}).")
        assert eng.space.deltas == []
        got = {goal: answer_set(eng, goal) for goal in goals}
        assert recomputations(eng) > 0
        again = make(f"{src}\n{fact}.", strategy=strategy)
        assert got == {goal: answer_set(again, goal) for goal in goals}

    @pytest.mark.parametrize("order", [1, -1])
    def test_answer_subsumption_cannot_be_incremental(self, order):
        # refused in two directives as in one, whichever comes first
        tables = [":- table sp/3 as incremental.", ":- table sp(_,_,min)."]
        with pytest.raises(DirectiveError, match="cannot be incremental"):
            make(":- use_incremental_dynamic e/3.\n"
                 + "\n".join(tables[::order])
                 + "\nsp(X,Y,C) :- e(X,Y,C).\ne(1,2,5).\n")

    FLOW = """
    :- use_incremental_dynamic e/2.
    :- use_incremental_dynamic f/2.
    :- table p/1 as incremental.
    :- table q/2 as incremental.
    p(Z) :- e(1,Y), q(Y,Z).
    q(Y,Z) :- f(Y,Z).
    e(1,2). f(2,3).
    """

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_reset_table_leaves_no_reader_behind(self, strategy):
        eng = CheckedEngine(strategy=strategy)
        eng.consult(self.FLOW)
        assert answer_set(eng, "p(Z).") == {("p(3)", "true")}
        incr_invalidate(eng, "retract(e(1,2)).")
        assert answer_set(eng, "p(Z).") == set()
        assert table_of(eng, "q(2,Z)").consumers == []
        # two pending asserts reopen p(_) and q(2,_) together: p(_) no
        # longer calls q(2,_), so q(2,4) must not reach it
        incr_invalidate(eng, "assert(e(1,7)).")
        incr_invalidate(eng, "assert(f(2,4)).")
        assert answer_set(eng, "p(Z).") == set()
        assert answer_set(eng, "q(2,Z).") == {("q(2,3)", "true"),
                                             ("q(2,4)", "true")}
        # the retract was followed by its check, not by a reset
        assert recomputations(eng) == 0

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_table_marked_for_reset_takes_no_delta(self, strategy):
        src = self.FLOW.replace("p(Z) :- e(1,Y), q(Y,Z).",
                                "p(Z) :- e(1,_), q(2,Z).")
        eng = make(src, strategy=strategy)
        assert answer_set(eng, "p(Z).") == {("p(3)", "true")}
        # a retract that meets a waiting assert drops it: p(_) waits for
        # its reset, and q(2,_), which f/2 alone reaches, for none
        incr_invalidate(eng, "assert(e(1,8)).")
        incr_invalidate(eng, "retract(e(1,2)).")
        assert eng.space.deltas == []
        incr_invalidate(eng, "assert(f(2,4)).")
        assert answer_set(eng, "q(2,Z).") == {("q(2,3)", "true"),
                                             ("q(2,4)", "true")}
        assert recomputations(eng) == 0
        p = table_of(eng, "p(Z)")
        assert p.status == SubgoalTable.INVALID
        assert [term_to_str(a.term) for a in p.answers] == ["p(3)"]
        again = make(src.replace("e(1,2).", "e(1,8).") + "f(2,4).\n",
                     strategy=strategy)
        assert answer_set(eng, "p(Z).") == answer_set(again, "p(Z).")
        assert recomputations(eng) == 1

    @pytest.mark.parametrize("change", ["consult", "abolish", "retract",
                                        "raise"])
    def test_other_changes_drop_pending_asserts(self, change):
        eng = make(RULES + facts({(1, 2), (2, 3)}))
        answer_set(eng, "reach(1,Y).")
        incr_invalidate(eng, "assert(e(3,4)).")
        assert eng.space.deltas
        if change == "consult":
            eng.consult("e(4,5).")
        elif change == "abolish":
            eng.abolish_call("reach(2,Y)")
        elif change == "retract":
            incr_invalidate(eng, "retract(e(1,2)).")
        else:
            with pytest.raises(EvalError):
                eng.query("Z is 1 + a.")
        assert eng.space.deltas == []
        edges = {(1, 2), (2, 3), (3, 4)} | (
            {(4, 5)} if change == "consult" else set())
        edges -= {(1, 2)} if change == "retract" else set()
        for goal in ("reach(1,Y).", "reach(2,Y).", "reach(3,Y)."):
            assert answer_set(eng, goal) == fresh(edges, goal)

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_consult_voids_what_tables_kept(self, strategy):
        # p(1,_) keeps a reader of q(1,_) that joins the facts of f/2; a
        # rule for f/2 consulted later must not meet that join
        src = """
        :- use_incremental_dynamic e/2.
        :- table p/2 as incremental.
        :- table q/2 as incremental.
        p(X,Y) :- q(X,Z), f(Z,Y).
        q(X,Y) :- e(X,Y).
        e(1,2). f(2,5).
        """
        eng = CheckedEngine(strategy=strategy)
        eng.consult(src)
        assert answer_set(eng, "p(1,Y).") == {("p(1,5)", "true")}
        more = "f(A,B) :- g(A,B).\ng(3,9).\n"
        eng.consult(more)
        incr_invalidate(eng, "assert(e(1,3)).")
        want = answer_set(make(src + more + "e(1,3).\n"), "p(1,Y).")
        assert answer_set(eng, "p(1,Y).") == want
        assert want == {("p(1,5)", "true"), ("p(1,9)", "true")}

    def test_kept_readers_do_not_grow(self):
        # the shape of the update benchmark: periods of ten random
        # changes, each period undone in reverse order, and four watched
        # goals re-queried after each change
        rng = random.Random(7)
        core = {(i, i % 8 + 1) for i in range(1, 9)}
        edges = set(core)
        while len(edges) < 22:
            edge = (rng.randint(1, 10), rng.randint(1, 10))
            if edge[0] != edge[1]:
                edges.add(edge)
        eng = CheckedEngine()
        eng.consult(RULES + facts(edges))
        goals = [f"reach({s},Y)." for s in (1, 3, 5, 7)]

        retracts = []

        def change(kind, edge):
            if kind == "retract":
                retracts.append(edge)
            (edges.add if kind == "assert" else edges.discard)(edge)
            incr_invalidate(eng, f"{kind}(e({edge[0]},{edge[1]})).")
            for goal in goals:
                answer_set(eng, goal)

        counts = []
        for _ in range(10):
            undo = []
            for _ in range(10):
                kind, edge = "retract", None
                if rng.random() < 0.5:
                    kind, edge = "assert", (rng.randint(1, 10),
                                            rng.randint(1, 10))
                if edge is None or edge in edges or edge[0] == edge[1]:
                    kind, edge = "retract", rng.choice(sorted(edges - core))
                change(kind, edge)
                undo.append(("retract" if kind == "assert" else "assert",
                             edge))
            for kind, edge in reversed(undo):
                change(kind, edge)
            counts.append(sum(len(t.consumers) for t in eng.space.tables
                              if t.complete))
        assert 0 < max(counts) <= counts[0]
        # neither an assert nor a retract resets a table
        assert retracts and recomputations(eng) == 0
        for goal in goals:
            assert answer_set(eng, goal) == fresh(edges, goal)


class TestRetractCheck:
    """A retract into monotone tables checks in stamp order the answers
    that may have lost their derivation and deletes only those that
    did; every answer set matches a fresh engine's, and nothing resets."""

    GOALS = ("reach(1,Y).", "reach(2,Y).", "reach(3,Y).", "rl(1,Y).")

    def follow(self, edges, retracted, strategy):
        eng = CheckedEngine(strategy=strategy)
        eng.consult(MONOTONE_RULES + facts(edges))
        for goal in self.GOALS:
            answer_set(eng, goal)
        incr_invalidate(eng, f"retract(e{retracted}).")
        assert eng.space.deltas
        edges = edges - {retracted}
        for goal in self.GOALS:
            assert answer_set(eng, goal) == fresh(edges, goal)
        assert recomputations(eng) == 0
        return eng

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_retract_in_a_cycle_resets_nothing(self, strategy):
        # e(1,3) lies on the cycle 1 -> 3 -> 1, and 1 -> 2 -> 3 still
        # joins 1 to 3: no answer is lost
        eng = self.follow({(1, 2), (2, 3), (3, 1), (1, 3), (3, 4)}, (1, 3),
                          strategy)
        assert all(not a.deleted for t in eng.space.tables
                   for a in t.answers)

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_retract_removes_answers_around_a_cycle(self, strategy):
        # reach(1,4), reach(2,4) and reach(3,4) each derive the next
        # around the cycle; only the oldest, reach(3,4), rested on e(3,4)
        eng = self.follow({(1, 2), (2, 3), (3, 1), (3, 4)}, (3, 4), strategy)
        lost = sorted(term_to_str(a.term) for t in eng.space.tables
                      for a in t.answers if a.deleted)
        assert lost == ["reach(1,4)", "reach(2,4)", "reach(3,4)", "rl(1,4)"]

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_answer_that_loses_its_oldest_derivation_is_restamped(
            self, strategy):
        # reach(1,3) comes first from e(1,3), later from e(1,2) and
        # reach(2,3): it outlives the retract with a stamp newer than
        # that of the answer it now rests on
        eng = CheckedEngine(strategy=strategy)
        eng.consult(MONOTONE_RULES + facts({(1, 2), (2, 3), (1, 3)}))
        answer_set(eng, "reach(1,Y).")
        mine = table_of(eng, "reach(1,Y)").answers[1]
        other = table_of(eng, "reach(2,Y)").answers[0]
        assert term_to_str(mine.term) == "reach(1,3)" and mine.seq < other.seq
        incr_invalidate(eng, "retract(e(1,3)).")
        assert answer_set(eng, "reach(1,Y).") == fresh({(1, 2), (2, 3)},
                                                       "reach(1,Y).")
        assert not mine.deleted and mine.seq > other.seq
        assert recomputations(eng) == 0

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_stale_reader_does_not_pass_on_a_later_assert(self, strategy):
        # reach(1,_) read reach(2,_) through e(1,2); once e(1,2) is gone,
        # what an assert adds to reach(2,_) must not reach it
        eng = CheckedEngine(strategy=strategy)
        eng.consult(MONOTONE_RULES + facts({(1, 2), (2, 3), (1, 5)}))
        answer_set(eng, "reach(1,Y).")
        edges = {(2, 3), (1, 5)}
        incr_invalidate(eng, "retract(e(1,2)).")
        assert answer_set(eng, "reach(1,Y).") == fresh(edges, "reach(1,Y).")
        incr_invalidate(eng, "assert(e(2,9)).")
        edges.add((2, 9))
        for goal in ("reach(2,Y).", "reach(1,Y)."):
            assert answer_set(eng, goal) == fresh(edges, goal)
        assert recomputations(eng) == 0

    def test_check_that_raises_leaves_tables_to_reset(self, monkeypatch):
        eng = CheckedEngine()
        eng.consult(MONOTONE_RULES + facts({(1, 2), (2, 3), (3, 1)}))
        answer_set(eng, "reach(1,Y).")
        incr_invalidate(eng, "retract(e(3,1)).")

        def fail(self, c, probes):
            raise EvalError("resource_exhausted", "in the check")

        with monkeypatch.context() as m:
            m.setattr(Engine, "_gives", fail)
            with pytest.raises(EvalError):
                eng.query("reach(1,Y).")
        assert eng.space.deltas == []
        assert all(t.status == SubgoalTable.INVALID
                   for t in eng.space.tables)
        assert answer_set(eng, "reach(1,Y).") == fresh({(1, 2), (2, 3)},
                                                       "reach(1,Y).")
        assert recomputations(eng) > 0

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_stale_read_through_a_lost_answer(self, strategy):
        # p(1,_) read f(2,_) through q(1,2), which the retract takes, so
        # p(1,_) resolves its clauses again though it reads no e/2
        src = """
        :- use_incremental_dynamic e/2.
        :- use_incremental_dynamic f/2.
        :- table p/2 as incremental.
        :- table q/2 as incremental.
        p(X,Y) :- q(X,Z), f(Z,Y).
        q(X,Y) :- e(X,Y).
        e(1,2). e(1,3). f(3,4).
        """
        eng = CheckedEngine(strategy=strategy)
        eng.consult(src)
        want = {("p(1,4)", "true")}
        assert answer_set(eng, "p(1,Y).") == want
        incr_invalidate(eng, "retract(e(1,2)).")
        assert answer_set(eng, "p(1,Y).") == want
        incr_invalidate(eng, "assert(f(2,9)).")
        assert answer_set(eng, "p(1,Y).") == want
        assert recomputations(eng) == 0

    # a fact join over static facts, and a table of non-ground answers
    JOIN = """
    :- use_incremental_dynamic e/2.
    :- table p/2 as incremental.
    :- table q/2 as incremental.
    p(X,Y) :- e(X,Z), q(Z,W), s(W,Y).
    q(X,Y) :- e(X,Y).
    s(2,5). s(3,6). s(3,7). s(1,8).
    e(1,2). e(2,3). e(1,3). e(3,1).
    """
    OPEN = """
    :- use_incremental_dynamic e/2.
    :- table n/2 as incremental.
    :- table m/2 as incremental.
    n(X,f(Y,Y)) :- e(X,_).
    n(X,g(X)) :- e(_,X).
    m(X,Y) :- e(X,Z), n(Z,Y).
    e(1,2). e(2,3). e(3,1).
    """
    SHAPES = {"last call": (MONOTONE_RULES + facts(
                  {(1, 2), (2, 3), (3, 1), (1, 3), (3, 4)}), GOALS),
              "fact join": (JOIN, ("p(1,Y).", "p(X,Y).")),
              "non-ground answers": (OPEN, ("m(1,Y).", "m(X,Y)."))}

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_fused_returns_give_the_general_derivations(
            self, shape, strategy, monkeypatch):
        src, goals = self.SHAPES[shape]
        eng = make(src, strategy=strategy)
        for goal in goals:
            assert answer_set(eng, goal)
        real = engine_module._return_plan
        taken = []

        def check(plans):
            # each complete table's derivations, and the nodes and
            # operations that reading them counted
            def return_plan(*args):
                plan = real(*args) if plans else None
                taken.append(plan is not None)
                return plan

            monkeypatch.setattr(engine_module, "_return_plan", return_plan)
            k, counters = eng.K, dict(eng.counters)
            maps = {term_to_str(t.subgoal): eng._derivations(t)
                    for t in eng.space.tables if t.complete}
            return maps, eng.K - k, {c: n - counters[c]
                                     for c, n in eng.counters.items()}

        fused = check(True)
        assert any(taken)
        assert check(False) == fused
        assert fused[1] == fused[2]["positive_return"] > 0

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_check_over_reach_makes_no_general_return(self, strategy,
                                                       monkeypatch):
        # every reader in a reach table's clauses is a last call, so the
        # fused returns hand the check each derivation of reach(3,_), the
        # one table that read e(3,4); the others are read by probes
        count = {"derived": [], "returns": 0}
        derivations, return_answer = Engine._derivations, \
            Engine._return_answer

        def spied_derivations(self, table):
            count["derived"].append(term_to_str(table.subgoal))
            return derivations(self, table)

        def spied_return(self, consumer, ans):
            count["returns"] += type(consumer.cont.owner) is \
                engine_module.Collector
            return return_answer(self, consumer, ans)

        monkeypatch.setattr(Engine, "_derivations", spied_derivations)
        monkeypatch.setattr(Engine, "_return_answer", spied_return)
        edges = {(1, 2), (2, 3), (3, 1), (3, 4), (1, 3)}
        goals = ("reach(1,Y).", "reach(2,Y).", "reach(3,Y).")
        eng = CheckedEngine(strategy=strategy)
        eng.consult(MONOTONE_RULES + facts(edges))
        for goal in goals:
            answer_set(eng, goal)
        incr_invalidate(eng, "retract(e(3,4)).")
        for goal in goals:
            assert answer_set(eng, goal) == fresh(edges - {(3, 4)}, goal)
        assert len(count["derived"]) == 1 \
            and count["derived"][0].startswith("reach(3,")
        assert count["returns"] == 0
        assert recomputations(eng) == 0

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_answer_probes_give_the_table_derivations(self, shape,
                                                      strategy):
        # per answer, the probes give the derivations of the whole table,
        # and the kept readers at least its uses
        src, goals = self.SHAPES[shape]
        eng = make(src, strategy=strategy)
        for goal in goals:
            assert answer_set(eng, goal)
        tables = [t for t in eng.space.tables if t.complete]
        derived = {t: eng._derivations(t) for t in tables}
        assert any(eng._probes(t) for t in tables)
        for t in tables:
            for c in t.index.values():
                assert Counter(eng._gives(c, {})) \
                    == Counter(derived[t].get(c, ()))
                uses = {u for caller in t.dep_in
                        for u, sups in derived[caller].items()
                        if any(c in sup for sup in sups)}
                assert uses <= set(eng._users(c))

    def test_check_work_does_not_grow_with_the_ring(self, monkeypatch):
        # around a ring, the answers a chord gave first are doomed and
        # restored table by table; only reach(1,_) read the chord
        runs = []
        sub_run = Engine._sub_run

        def spied(self, entries):
            runs[-1] += 1
            return sub_run(self, entries)

        monkeypatch.setattr(Engine, "_sub_run", spied)
        for n in (10, 40):
            edges = {(i, i % n + 1) for i in range(1, n + 1)} | {(1, n // 2)}
            eng = make(MONOTONE_RULES + facts(edges))
            answer_set(eng, "reach(1,Y).")
            incr_invalidate(eng, f"retract(e(1,{n // 2})).")
            runs.append(0)
            assert answer_set(eng, "reach(1,Y).") == fresh(
                edges - {(1, n // 2)}, "reach(1,Y).")
            assert recomputations(eng) == 0
        assert runs[0] == runs[1] > 0


class TestCyclicTerms:
    SRC = ":- table p/1, r/1. p(X) :- r(X), X = f(X). r(Z)."

    def test_cyclic_term_is_an_eval_error_every_time(self):
        eng = make(self.SRC)
        for _ in range(2):
            with pytest.raises(EvalError) as err:
                eng.query("p(Y).")
            assert err.value.kind == "cyclic_term"
            assert settled(eng)

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    @pytest.mark.parametrize("goal", ["X = X + 1, Y is X.",
                                      "X = X + 1, X > 0."])
    def test_arithmetic_on_a_cyclic_term(self, goal, strategy):
        # arithmetic reads the binding frame; a binding that leads back
        # into itself is a cyclic term there too, not a recursion error
        eng = make("p(1).", strategy=strategy)
        for _ in range(2):
            with pytest.raises(EvalError) as err:
                eng.query(goal)
            assert err.value.kind == "cyclic_term"
            assert settled(eng)
            assert answer_set(eng, "p(X).") == {("p(1)", "true")}
        checked = make("p(1).", strategy=strategy, occurs_check=True)
        assert checked.query(goal) == []
        assert answer_set(checked, "p(X).") == {("p(1)", "true")}

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_cyclic_binding_nothing_reads(self, strategy):
        # a cyclic binding raises only once a goal or an answer reads it
        eng = make("p(Y) :- X = f(X), Y = a.", strategy=strategy)
        assert eng.query("X = f(X), fail.") == []
        assert answer_set(eng, "p(Y).") == {("p(a)", "true")}
        assert settled(eng)

    def test_cli_reports_cyclic_term(self, capsys):
        assert cli.main(["run", "-g", "X = f(X), X == a."]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cyclic_term: ")
        assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# differential fuzz: incremental engine against a fresh evaluation

FUZZ_GOALS = ("reach(1,Y).", "reach(X,Y).", "reach(2,Y).", "rl(1,Y).",
              "rl(X,Y).", "un(X).")
FUZZ_SEEDS = 20

MONOTONE_GOALS = FUZZ_GOALS[:-1]

FUZZ_RUNS = [(RULES, FUZZ_GOALS, "local")] + [
    (MONOTONE_RULES, MONOTONE_GOALS, s) for s in ("local", "batched")]


def _fuzz_change(rng, edges):
    if edges and rng.random() < 0.5:
        return "retract", rng.choice(sorted(edges))
    while True:
        edge = (rng.randint(1, 5), rng.randint(1, 5))
        if edge not in edges:
            return "assert", edge


def stamp_faults(eng, edges):
    """Each live answer of a complete ``reach`` or ``rl`` table without a
    derivation from ``edges`` and from live answers older than it, with
    a smaller ``seq``: the invariant that lets a retract be followed by
    a check in stamp order.  The derivations are read off the rules
    here, not off the engine."""
    terms = {}

    def answer(goal, text):
        # the live answer ``text`` of the table a call of ``goal`` reads
        t = eng.space.lookup_variant(goal)
        if t not in terms:
            terms[t] = {} if t is None else {
                term_to_str(a.term): a for a in t.answers if not a.deleted}
        return terms[t].get(text)

    out = []
    for t in eng.space.tables:
        name = t.pred.name
        if not t.complete or name not in ("reach", "rl"):
            continue
        first, second = t.subgoal.args
        for a in t.answers:
            x, y = (arg.value for arg in a.term.args)
            if a.deleted or (x, y) in edges:
                continue
            if name == "reach":     # e(X,Z), reach(Z,Y)
                ok = any(c == x and (b := answer(
                    Struct("reach", (Int(z), second)), f"reach({z},{y})"))
                    and b.seq < a.seq for c, z in edges)
            else:                   # rl(X,Z), e(Z,Y)
                ok = any(d == y and (b := answer(
                    Struct("rl", (first, Var(t.nvars))), f"rl({x},{z})"))
                    and b.seq < a.seq for z, d in edges)
            if not ok:
                out.append(f"{term_to_str(a.term)} in "
                           f"{term_to_str(t.subgoal)} has no older support")
    return out


def _fuzz_seed(seed, rules=RULES, goals=FUZZ_GOALS, strategy="local"):
    """Mismatches of one seed's run, its number of steps checked to reset
    nothing, and its number of answers checked for older supports: a
    random edge set, then random eager updates, lone invalidations and
    invalidation batches closed by incr_table_update, each followed by
    random queries, on an engine that checks its table space after
    each.  Under the monotone rules a step of one change, or of asserts
    alone, that begins with every table complete and ends having reset
    a table is a mismatch too; after each step, so is an answer that
    ``stamp_faults`` finds."""
    rng = random.Random(seed)
    edges = {(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(6)}
    eng = CheckedEngine(strategy=strategy)
    eng.consult(rules + facts(edges))
    mismatches = []
    clean_steps = stamped = 0
    for step in range(8):
        mode = rng.choice(("eager", "invalidate", "batch"))
        before = recomputations(eng)
        clean = all(t.complete for t in eng.space.tables)
        for _ in range(rng.randint(2, 3) if mode == "batch" else 1):
            kind, (a, b) = _fuzz_change(rng, edges)
            clean = clean and (kind == "assert" or mode != "batch")
            if kind == "assert":
                edges.add((a, b))
            else:
                edges.discard((a, b))
            fact = f"e({a},{b})."
            if mode == "eager":
                (incr_assert if kind == "assert" else incr_retract)(eng, fact)
            else:
                incr_invalidate(eng, f"{kind}({fact[:-1]}).")
        if mode == "batch":
            incr_table_update(eng)
            if not all(t.complete for t in eng.space.tables
                       if t.status != SubgoalTable.ABOLISHED):
                mismatches.append((seed, step, "incomplete after update"))
        for goal in rng.sample(goals, rng.randint(1, 3)):
            if answer_set(eng, goal) != answer_set(
                    make(rules + facts(edges)), goal):
                mismatches.append((seed, step, goal))
        mismatches += [(seed, step, f) for f in stamp_faults(eng, edges)]
        stamped += sum(len(t.index) for t in eng.space.tables if t.complete
                       and t.pred.name in ("reach", "rl"))
        if rules is MONOTONE_RULES and clean:
            clean_steps += 1
            if recomputations(eng) != before:
                mismatches.append((seed, step, f"{mode} step reset a table"))
    return mismatches, clean_steps, stamped


def _fuzz(rules, goals, strategy):
    mismatches, clean_steps, stamped = [], 0, 0
    for seed in range(FUZZ_SEEDS):
        bad, clean, checked = _fuzz_seed(seed, rules, goals, strategy)
        mismatches.extend(bad)
        clean_steps += clean
        stamped += checked
    return mismatches, clean_steps, stamped


def test_incremental_matches_fresh_evaluation():
    mismatches, _, stamped = _fuzz(RULES, FUZZ_GOALS, "local")
    assert mismatches == [] and stamped > 0


@pytest.mark.parametrize("strategy", ["local", "batched"])
def test_monotone_updates_match_fresh_evaluation(strategy):
    mismatches, clean_steps, stamped = _fuzz(MONOTONE_RULES, MONOTONE_GOALS,
                                             strategy)
    assert mismatches == []
    # the steps whose resets were checked, the answers whose supports were
    assert clean_steps > 0 and stamped > 0


def main(argv=None):
    """Run the incremental fuzz over a range of seeds:
    ``python tests/test_incremental.py FIRST LAST`` (inclusive) runs
    each seed under each rule set and strategy, prints each mismatch or
    table-space fault, the count of mismatching runs, and how many steps
    and answers the reset and stamp checks read."""
    import argparse
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)
    bad = clean_steps = stamped = 0
    for seed in range(args.first, args.last + 1):
        for rules, goals, strategy in FUZZ_RUNS:
            try:
                rows, clean, checked = _fuzz_seed(seed, rules, goals,
                                                  strategy)
                clean_steps += clean
                stamped += checked
            except TableSpaceFault as exc:
                rows = [(seed, "checked engine", str(exc))]
            if rows:
                bad += 1
                print(f"seed {seed}, {strategy}, "
                      f"{'tnot' if rules is RULES else 'monotone'} rules: "
                      f"{rows[0]}", flush=True)
    runs = (args.last - args.first + 1) * len(FUZZ_RUNS)
    print(f"{bad} of {runs} runs mismatch; {clean_steps} monotone steps "
          f"checked to reset nothing, {stamped} answers for older supports")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
