"""Incremental tabling: eager update, invalidation, batched update and
error recovery, each checked against a fresh evaluation."""

import random

import pytest

from tlpe import cli
from tlpe.engine import Engine
from tlpe.errors import EvalError
from tlpe.incremental import (incr_assert, incr_invalidate, incr_retract,
                              incr_table_update)
from tlpe.tables import SubgoalTable
from tlpe.terms import term_to_str


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
               for t in eng.space.tables if not t.abolished)


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


class TestCyclicTerms:
    SRC = ":- table p/1, r/1. p(X) :- r(X), X = f(X). r(Z)."

    def test_cyclic_term_is_an_eval_error_every_time(self):
        eng = make(self.SRC)
        for _ in range(2):
            with pytest.raises(EvalError) as err:
                eng.query("p(Y).")
            assert err.value.kind == "cyclic_term"
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


def _fuzz_change(rng, edges):
    if edges and rng.random() < 0.5:
        return "retract", rng.choice(sorted(edges))
    while True:
        edge = (rng.randint(1, 5), rng.randint(1, 5))
        if edge not in edges:
            return "assert", edge


def _fuzz_seed(seed):
    """Mismatches of one seed's run: a random edge set, then random
    eager updates, lone invalidations and invalidation batches closed by
    incr_table_update, each followed by random checked queries."""
    rng = random.Random(seed)
    edges = {(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(6)}
    eng = make(RULES + facts(edges))
    mismatches = []
    for step in range(8):
        mode = rng.choice(("eager", "invalidate", "batch"))
        for _ in range(rng.randint(2, 3) if mode == "batch" else 1):
            kind, (a, b) = _fuzz_change(rng, edges)
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
                       if not t.abolished):
                mismatches.append((seed, step, "incomplete after update"))
        for goal in rng.sample(FUZZ_GOALS, rng.randint(1, 3)):
            if answer_set(eng, goal) != fresh(edges, goal):
                mismatches.append((seed, step, goal))
    return mismatches


def test_incremental_matches_fresh_evaluation():
    mismatches = []
    for seed in range(FUZZ_SEEDS):
        mismatches.extend(_fuzz_seed(seed))
    assert mismatches == []
