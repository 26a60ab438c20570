"""Well-founded negation: truth values, delaying, simplification, residuals."""

import gc
import random
import sys
import time

import pytest

from tlpe.engine import Engine
from tlpe.errors import EvalError
from tlpe.negation import get_residual, truth_of
from tlpe.terms import term_to_str

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from oracles import program_text, random_ground_program, wfs_model

P_NEG = """
:- table p/1.
p(b).
p(c) :- tnot p(a).
p(X) :- t(X,Y,Z), tnot p(Y), tnot p(Z).

t(a,a,b).       t(a,b,a).
"""

P_NONSTRAT = """
:- table p/1, q/1.
p(1) :- tnot(q(1)).
q(1) :- tnot(p(1)).
"""


def make(src, **kw):
    eng = Engine(**kw)
    eng.consult(src)
    return eng


def truth(eng, goal):
    return truth_of(eng, goal)


class TestStratified:
    def test_simple_negation(self):
        eng = make(":- table p/1, q/1. p(1) :- tnot(q(1)). q(2).")
        assert truth(eng, "p(1).") == "true"
        assert truth(eng, "q(1).") == "false"

    def test_negation_needs_tabled_predicate(self):
        eng = make(":- table p/1. p(1) :- tnot(q(1)). q(2).")
        with pytest.raises(EvalError):
            eng.query("p(1).")

    def test_no_negative_loop_means_two_valued(self):
        src = """
        :- table w/1, m/2.
        w(X) :- m(X,Y), tnot(w(Y)).
        m(1,2). m(2,3). m(3,4).
        """
        eng = make(src)
        assert truth(eng, "w(3).") == "true"
        assert truth(eng, "w(2).") == "false"
        assert truth(eng, "w(1).") == "true"


class TestFigureProgram:
    def test_truth_values(self):
        eng = make(P_NEG)
        assert truth(eng, "p(b).") == "true"
        assert truth(eng, "p(c).") == "true"
        assert truth(eng, "p(a).") == "false"

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_delay_and_simplification_appear(self, strategy):
        eng = make(P_NEG, strategy=strategy)
        eng.trace_enabled = True
        eng.query("p(X).")
        ops = [l.split()[1] for l in eng.trace_lines]
        assert "DELAYING" in ops
        assert "SIMPLIFICATION" in ops

    def test_all_answers_unconditional(self):
        eng = make(P_NEG)
        answers = eng.query("p(X).")
        assert sorted(term_to_str(a.goal) for a in answers) == \
            ["p(b)", "p(c)"]
        assert all(a.truth == "true" for a in answers)


class TestNonStratified:
    def test_undefined_atoms(self):
        eng = make(P_NONSTRAT)
        assert truth(eng, "p(1).") == "undefined"
        assert truth(eng, "q(1).") == "undefined"

    def test_query_reports_undefined(self):
        eng = make(P_NONSTRAT)
        answers = eng.query("p(X).")
        assert [(term_to_str(a.goal), a.truth) for a in answers] == \
            [("p(1)", "undefined")]

    def test_residual_bodies(self):
        eng = make(P_NONSTRAT)
        eng.query("p(X).")
        residual = get_residual(eng, "p(X).")
        assert len(residual) == 1
        head, body = residual[0]
        assert term_to_str(head) == "p(1)"
        assert [term_to_str(b) for b in body] == ["tnot(q(1))"]

    def test_residual_requires_table(self):
        eng = make(P_NONSTRAT)
        with pytest.raises(EvalError):
            get_residual(eng, "p(X).")

    def test_residual_of_a_subsumed_call(self):
        src = """
        :- table p/2, q/1.
        p(a,1) :- tnot q(1).
        p(b,2).
        p(a,3).
        q(1) :- tnot p(a,1).
        """
        variant = make(src)
        variant.query("p(a,Z).")
        subsumptive = make(src, default_tabling="subsumptive")
        subsumptive.query("p(X,Y).")

        def rendered(eng):
            return [(term_to_str(h), [term_to_str(b) for b in body])
                    for h, body in get_residual(eng, "p(a,Z).")]

        assert rendered(subsumptive) == rendered(variant) == [
            ("p(a,3)", []), ("p(a,1)", ["tnot(q(1))"])]

    def test_residual_of_a_subsumed_call_lists_an_instance_once(self):
        # p(X,b) and p(a,b) both give p(a,b), once conditionally as well
        src = """
        :- table p/2, q/0.
        p(X,b) :- tnot q.
        p(X,b).
        p(a,b) :- tnot q.
        p(a,c) :- tnot q.
        p(X,c) :- tnot q.
        q :- tnot q.
        """
        variant = make(src)
        variant.query("p(a,Z).")
        subsumptive = make(src, default_tabling="subsumptive")
        subsumptive.query("p(X,Y).")

        def rendered(eng):
            return sorted((term_to_str(h), [term_to_str(b) for b in body])
                          for h, body in get_residual(eng, "p(a,Z)."))

        assert rendered(subsumptive) == rendered(variant) == [
            ("p(a,b)", []), ("p(a,c)", ["tnot(q)"])]


class TestDelayedSupport:
    # conditional answers kept alive only by their own positive delay
    # literals are unfounded and must not surface as undefined
    SELF = """
    :- table p/1, r/1.
    p(1) :- tnot(r(1)).
    p(1) :- p(1).
    r(1) :- tnot(p(1)).
    """

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_self_supporting_answer_is_removed(self, strategy):
        src = """
        :- table p/1, q/1, r/1, s/1.
        p(1) :- tnot(q(1)).
        q(1) :- r(1).
        r(1) :- r(1).
        r(1) :- tnot(s(1)).
        s(1) :- tnot(p(1)).
        """
        # s false -> r true -> q true -> p false -> s... the oracle says:
        model = wfs_model([("p", (), ("q",)), ("q", ("r",), ()),
                           ("r", ("r",), ()), ("r", (), ("s",)),
                           ("s", (), ("p",))])
        eng = make(src, strategy=strategy)
        for atom, want in model.items():
            assert truth(eng, f"{atom}(1).") == want, atom

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_positive_loop_through_delays(self, strategy):
        eng = make(self.SELF, strategy=strategy)
        model = wfs_model([("p", (), ("r",)), ("p", ("p",), ()),
                           ("r", (), ("p",))])
        assert truth(eng, "p(1).") == model["p"]
        assert truth(eng, "r(1).") == model["r"]

    # under batched scheduling q(0)'s second clause delays tnot p(0)
    # while p(0) has only a conditional answer, and derives q(0) after
    # that answer turned true: the delay list is refuted as it is attached
    LATE_TNOT = """
    :- table p/1, q/1, r/1.
    r(0) :- q(2).
    p(2).
    q(0) :- tnot(q(0)).
    r(1) :- r(0), tnot(p(2)).
    p(0) :- tnot(r(1)).
    q(0) :- q(0), p(0), tnot(p(0)), tnot(r(1)).
    r(2) :- q(0).
    p(1) :- r(2).
    q(2) :- tnot(p(1)).
    """

    @pytest.mark.parametrize("strategy", ["local", "batched"])
    def test_tnot_of_an_atom_that_turned_true(self, strategy):
        eng = make(self.LATE_TNOT, strategy=strategy)
        assert [(term_to_str(a.goal), a.truth) for a in eng.query("q(X).")] \
            == [("q(0)", "undefined"), ("q(2)", "undefined")]
        assert [(term_to_str(h), [term_to_str(b) for b in body])
                for h, body in get_residual(eng, "q(X).")] == [
            ("q(0)", ["tnot(q(0))"]), ("q(2)", ["tnot(p(1))"])]


class TestOracleAgreement:
    @pytest.mark.parametrize("seed,options", [
        pytest.param(seed, options, id="-".join([*tags, str(seed)]))
        for tags, options in [
            ((), {}),
            (("batched",), {"strategy": "batched"}),
            (("qlt",), {"query_level_tabling": True}),
            (("batched", "qlt"), {"strategy": "batched",
                                  "query_level_tabling": True})]
        for seed in range(12)])
    def test_random_ground_programs(self, seed, options):
        rng = random.Random(seed * 977)
        rules = random_ground_program(rng, 60, 150)
        model = wfs_model(rules)
        eng = make(program_text(rules), **options)
        if options.get("query_level_tabling"):
            # every query starts without tables: ask one open query per
            # predicate, not one query per atom
            got = {}
            for pred in ("p", "q", "r"):
                got.update((term_to_str(a.goal), a.truth)
                           for a in eng.query(f"{pred}(X)."))
            assert {atom: got.get(atom, "false") for atom in model} == model
            return
        for atom, want in model.items():
            assert truth(eng, atom + ".") == want, atom

    def test_strategies_agree_on_random_program(self):
        rng = random.Random(7)
        rules = random_ground_program(rng, 80, 200)
        src = program_text(rules)
        local = make(src, strategy="local")
        batched = make(src, strategy="batched")
        for atom in wfs_model(rules):
            assert truth(local, atom + ".") == truth(batched, atom + ".")


def cycle_game(n):
    return (":- table win/1.\nwin(X) :- move(X,Y), tnot win(Y).\n"
            + " ".join(f"move({i},{i % n + 1})." for i in range(1, n + 1)))


def chain_over_loop(n):
    # n tables, each suspended on the next, above a negative loop: all but
    # the loop lie below the top segment when it blocks
    return (":- table p/1, w/0, v/0.\n"
            f"p(N) :- N < {n}, M is N + 1, p(M).\n"
            f"p({n}) :- w.\nw :- tnot v.\nv :- tnot w.\n")


class TestLongNegativeLoops:
    # an n-cycle of win/1 is one negative loop: n delay rounds, then one
    # completion of n tables whose conditional answers lean on each other

    def test_query_level_tables_of_a_long_loop_are_freed(self):
        eng = make(cycle_game(1500), query_level_tabling=True)
        assert [a.truth for a in eng.query("win(1).")] == ["undefined"]
        assert eng.space.tables == []

    def test_abolish_all_after_a_long_loop(self):
        eng = make(cycle_game(1500))
        assert [a.truth for a in eng.query("win(1).")] == ["undefined"]
        eng.abolish_all()
        assert eng.space.tables == []

    @pytest.mark.parametrize("program,goal,strategy", [
        (cycle_game, "win(1).", "local"),
        (cycle_game, "win(1).", "batched"),
        (chain_over_loop, "p(0).", "local")],
        ids=["cycle-local", "cycle-batched", "chain-local"])
    def test_scheduling_costs_no_more_per_node_when_longer(
            self, program, goal, strategy):
        def cpu_per_node(n):
            # the objects alive before the run, the rest of the test
            # session's among them, are left out of the collector's
            # passes: in a full tier-1 run, scanning them made N=1,600
            # cost 1.6-1.9x the per-node time of N=200 under batched,
            # against 1.1-1.3x without them
            gc.collect()
            gc.freeze()
            try:
                eng = make(program(n), strategy=strategy)
                start = time.thread_time()
                answers = eng.query(goal)
                spent = (time.thread_time() - start) / eng.K
            finally:
                gc.unfreeze()
            assert [a.truth for a in answers] == ["undefined"]
            return spent

        # the sizes take turns, best of 5 each, so that a burst of load
        # from other processes meets both alike
        runs = [(cpu_per_node(200), cpu_per_node(1600)) for _ in range(5)]
        small, large = map(min, zip(*runs))
        assert large < 2.0 * small, (small, large)
