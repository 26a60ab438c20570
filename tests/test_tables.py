"""Table space: interning, factored answers, conditional-answer cascade."""

import pytest

from tlpe.engine import Engine
from tlpe.errors import EvalError
from tlpe.parser import parse_term_text
from tlpe.program import Program
from tlpe.tables import DelayLit, SubgoalTable, TableSpace
from tlpe.terms import Atom, Int, Struct, Var, canonicalize, term_to_str

from invariants import faults


def t(src):
    return parse_term_text(src)


def make_space(default_tabling="variant"):
    return TableSpace(Program(default_tabling=default_tabling))


def intern(space, pred_src, goal_src, mode="variant", variant=False):
    name, arity = goalkey(goal_src)
    pi = space.program.info(name, arity, create=True)
    pi.tabling = mode
    return space.check_insert_subgoal(pi, t(goal_src), variant)


def goalkey(src):
    g = t(src)
    if isinstance(g, Atom):
        return g.name, 0
    return g.name, len(g.args)


class TestSubgoalInterning:
    def test_variant_reuse(self):
        sp = make_space()
        t1, new1 = intern(sp, "p", "p(X, Y)")
        t2, new2 = intern(sp, "p", "p(A, B)")
        assert new1 and not new2
        assert t1 is t2

    def test_different_calls_get_different_tables(self):
        sp = make_space()
        t1, _ = intern(sp, "p", "p(X, X)")
        t2, _ = intern(sp, "p", "p(X, Y)")
        t3, _ = intern(sp, "p", "p(a, Y)")
        assert len({id(t1), id(t2), id(t3)}) == 3

    def test_subsumed_call_returns_the_subsuming_table(self):
        sp = make_space()
        gen, new = intern(sp, "p", "p(X, Y)", mode="subsumptive")
        read, new2 = intern(sp, "p", "p(a, Y)", mode="subsumptive")
        assert new and not new2
        assert read is gen
        assert sp.tables == [gen]

    def test_subsumed_call_returns_the_most_specific_table(self):
        sp = make_space()
        gen, _ = intern(sp, "p", "p(X, Y)", mode="subsumptive")
        # a variant lookup, as a ground tnot makes, gets a table of its own
        mid, new = intern(sp, "p", "p(a, Y)", mode="subsumptive",
                          variant=True)
        assert new and mid is not gen
        leaf, new = intern(sp, "p", "p(a, b)", mode="subsumptive")
        assert leaf is mid and not new
        # a table to be recomputed answers no call
        mid.status = SubgoalTable.INVALID
        leaf, new = intern(sp, "p", "p(a, b)", mode="subsumptive")
        assert leaf is gen and not new

    def test_subsumptive_exact_variant_reused(self):
        sp = make_space()
        t1, _ = intern(sp, "p", "p(a, Y)", mode="subsumptive")
        t2, new = intern(sp, "p", "p(a, Z)", mode="subsumptive")
        assert t2 is t1 and not new

    def test_tables_made_before_a_mode_change_serve_subsumed_calls(self):
        # the subgoal trie is built from the predicate's live tables at
        # its first subsumed call, not from the calls made subsumptively
        eng = Engine()
        eng.consult(":- table p/2.\np(1,a). p(2,b). p(1,c). "
                    "p(X,Y) :- q(X,Y).\nq(1,d). q(3,e).")
        general = [term_to_str(a.goal) for a in eng.query("p(X,Y).")]
        eng.consult(":- table p/2 as subsumptive.")
        got = [term_to_str(a.goal) for a in eng.query("p(1,Y).")]
        assert got == [g for g in general if g.startswith("p(1,")] \
            == ["p(1,a)", "p(1,c)", "p(1,d)"]
        assert [term_to_str(x.subgoal) for x in eng.space.tables] == \
            ["p(_G0,_G1)"]
        assert faults(eng) == []
        # the table kept under a key that is not its subgoal
        variants = eng.space.variants
        [key] = variants
        variants[Struct("p", (Int(1), Var(0)))] = variants.pop(key)
        eng.space.tries[("p", 2)].root.children.clear()
        assert faults(eng) == [
            "variants is not the live tables by their subgoals",
            "p/2: subgoal trie is not its tables"]

    def test_abolished_and_remade_tables_keep_the_trie_in_step(self):
        sp = make_space()
        gen, _ = intern(sp, "p", "p(X, Y)", mode="subsumptive")
        mid, _ = intern(sp, "p", "p(a, Y)", mode="subsumptive", variant=True)
        gen.status = mid.status = SubgoalTable.COMPLETE
        assert intern(sp, "p", "p(a, b)", mode="subsumptive") == (mid, False)
        sp.abolish_call(t("p(a, Y)"))
        assert intern(sp, "p", "p(a, b)", mode="subsumptive") == (gen, False)
        # made again, the more specific table is the first hit once more
        again, new = intern(sp, "p", "p(a, Y)", mode="subsumptive",
                            variant=True)
        assert new and again is not mid
        assert intern(sp, "p", "p(a, b)", mode="subsumptive") == \
            (again, False)
        again.status = SubgoalTable.COMPLETE
        sp.abolish_call(t("p(X, Y)"))
        assert intern(sp, "p", "p(a, c)", mode="subsumptive") == \
            (again, False)
        other, new = intern(sp, "p", "p(b, c)", mode="subsumptive")
        assert new and sp.tables == [again, other]
        assert sp.variants == {x.subgoal: x for x in sp.tables}
        trie = sp.tries[("p", 2)]
        assert [n.leaf for n in trie.leaves()] == [again, other]

    def test_lookup_variant(self):
        sp = make_space()
        t1, _ = intern(sp, "p", "p(a, Y)")
        assert sp.lookup_variant(t("p(a, Q)")) is t1
        assert sp.lookup_variant(t("p(b, Q)")) is None


class TestAnswers:
    def test_add_and_duplicate(self):
        sp = make_space()
        tab, _ = intern(sp, "p", "p(X)")
        st1, a1 = sp.add_answer(tab, (Atom("a"),))
        st2, a2 = sp.add_answer(tab, (Atom("a"),))
        assert (st1, st2) == ("added", "duplicate")
        assert a1 is a2
        assert len(tab.index) == 1 and tab.uncond_answers == 1

    def test_variant_bindings_are_duplicates(self):
        sp = make_space()
        tab, _ = intern(sp, "p", "p(X, Y)")
        st1, _ = sp.add_answer(tab, t("b(f(A), A)").args)
        st2, _ = sp.add_answer(tab, t("b(f(B), B)").args)
        st3, _ = sp.add_answer(tab, t("b(f(B), C)").args)
        assert (st1, st2, st3) == ("added", "duplicate", "added")

    def test_answer_term_reconstruction(self):
        sp = make_space()
        tab, _ = intern(sp, "p", "p(g(X), Y)")
        _, ans = sp.add_answer(tab, (Atom("a"), t("h(b)")))
        assert term_to_str(ans.term) == "p(g(a),h(b))"

    def test_unconditional_records_share_empty_watch_lists(self):
        # a record makes its lists with its first delay list or watcher
        sp = make_space()
        p, _ = intern(sp, "p", "p(X)")
        q, _ = intern(sp, "q", "q(X)")
        blocker, _ = intern(sp, "b", "b")
        _, a = sp.add_answer(p, (Atom("a"),))
        _, b = sp.add_answer(p, (Atom("b"),))
        assert a.delay_lists is b.delay_lists is a.pos_watchers == ()
        _, qc = sp.add_answer(q, (Atom("c"),), [delay_neg(blocker)])
        _, qd = sp.add_answer(q, (Atom("d"),), [delay_pos(qc)])
        assert len(qc.delay_lists) == 1 and len(qc.pos_watchers) == 1
        assert qd.pos_watchers == ()
        blocker.status = SubgoalTable.COMPLETE
        sp.on_completed(blocker)
        assert qc.unconditional and qd.unconditional
        assert qc.delay_lists == qc.pos_watchers == qd.delay_lists == ()

    def test_factoring_stores_only_bindings(self):
        # the answer trie never re-stores the fixed part of the subgoal:
        # one answer for a one-variable subgoal is a single-symbol path
        sp = make_space()
        tab, _ = intern(sp, "p", "p(very(deep(fixed(struct))), X)")
        sp.add_answer(tab, (Atom("a"),))
        assert tab.answer_trie.node_count == 1


class TestAnswerIndex:
    """Exact lookups probe the index; the trie is built for subsumed reads."""

    def test_duplicates_probe_the_index_and_build_no_trie(self):
        sp = make_space()
        tab, _ = intern(sp, "p", "p(X, Y)")
        for src in ("b(a, 1)", "b(f(A), A)", "b(a, 1)", "b(f(B), B)"):
            sp.add_answer(tab, t(src).args)
        assert [term_to_str(a.term) for a in tab.answers] == [
            "p(a,1)", "p(f(_G0),_G0)"]
        assert list(tab.index.values()) == tab.answers
        assert tab._answer_trie is None

    def test_answer_refuted_by_simplification_comes_back_as_new(self):
        sp = make_space()
        p, _ = intern(sp, "p", "p(X)")
        q, _ = intern(sp, "q", "q(a)")
        _, old = sp.add_answer(p, (Atom("a"),), [delay_neg(q)])
        sp.add_answer(q, ())      # tnot q(a) is false: p(a) dies
        assert old.deleted and p.index == {}
        st, new = sp.add_answer(p, (Atom("a"),))
        assert st == "added" and new is not old and not new.deleted
        assert p.index == {(Atom("a"),): new} and len(p.index) == 1

    def test_replaced_answer_comes_back_as_new(self):
        sp = make_space()
        p, _ = intern(sp, "p", "p(X)")
        _, old = sp.add_answer(p, (Atom("a"),))
        p.answer_trie                       # a walk built the trie
        sp.delete_answer(p, old)
        assert p.index == {} and p.answer_trie.leaf_count == 0
        st, new = sp.add_answer(p, (Atom("a"),))
        assert st == "added" and new is not old
        assert p.answers == [old, new] and new.leaf is not None
        assert p.answer_trie.matching_leaves(Atom("a")) == [new]

    def test_trie_walk_finds_the_live_answers_in_answer_order(self):
        sp = make_space()
        p, _ = intern(sp, "p", "p(X, Y)")
        q, _ = intern(sp, "q", "q(a)")
        recs = {}
        for src in ("b(a, 1)", "b(b, 1)", "b(a, 2)", "b(a, 3)", "b(A, 4)"):
            delays = [delay_neg(q)] if src == "b(a, 2)" else ()
            recs[src] = sp.add_answer(p, t(src).args, delays)[1]

        def walk():
            hits = p.answer_trie.matching_leaves(Atom("a"), t("Y"))
            return [term_to_str(a.term) for a in sorted(
                hits, key=lambda a: a.seq)]

        # deleted before the trie exists: by replacement, by refutation
        sp.delete_answer(p, recs["b(a, 1)"])
        sp.add_answer(q, ())
        assert p._answer_trie is None
        assert walk() == ["p(a,3)", "p(_G0,4)"]
        # deleted, and derived again, once the trie exists
        sp.delete_answer(p, recs["b(a, 3)"])
        sp.add_answer(p, t("b(a, 1)").args)
        sp.add_answer(p, t("b(a, 3)").args)
        assert walk() == ["p(_G0,4)", "p(a,1)", "p(a,3)"]
        assert p.answer_trie.leaf_count == len(p.index) == 4


def delay_neg(table):
    return DelayLit(True, table, None)


def delay_pos(ans):
    return DelayLit(False, ans.table, ans)


class TestConditionalAnswers:
    def test_conditional_then_promoted_by_empty_completion(self):
        sp = make_space()
        p, _ = intern(sp, "p", "p(X)")
        q, _ = intern(sp, "q", "q(a)")
        _, ans = sp.add_answer(p, (Atom("a"),), [delay_neg(q)])
        assert ans.conditional and not p.has_unconditional
        q.status = SubgoalTable.COMPLETE
        sp.on_completed(q)
        assert ans.unconditional and p.uncond_answers == 1

    def test_refuted_by_unconditional_answer_in_ground_table(self):
        sp = make_space()
        p, _ = intern(sp, "p", "p(X)")
        q, _ = intern(sp, "q", "q(a)")
        _, ans = sp.add_answer(p, (Atom("a"),), [delay_neg(q)])
        sp.add_answer(q, ())      # q(a) is true: tnot q(a) is false
        assert ans.deleted
        assert len(p.index) == 0

    def test_positive_chain_collapses(self):
        sp = make_space()
        tabs = []
        for i in range(4):
            tab, _ = intern(sp, "p", f"c{i}(X)")
            tabs.append(tab)
        prev_ans = None
        answers = []
        for i, tab in enumerate(tabs):
            delays = [delay_pos(prev_ans)] if prev_ans is not None else None
            if i == 0:
                blocker, _ = intern(sp, "q", "blocker")
                delays = [delay_neg(blocker)]
            _, ans = sp.add_answer(tab, (Atom("v"),), delays)
            answers.append(ans)
            prev_ans = ans
        assert all(a.conditional for a in answers)
        blocker.status = SubgoalTable.COMPLETE
        sp.on_completed(blocker)
        assert all(a.unconditional for a in answers)

    def test_deletion_cascades_and_empties_completed_table(self):
        sp = make_space()
        p, _ = intern(sp, "p", "p(X)")
        q, _ = intern(sp, "q", "q(X)")
        r, _ = intern(sp, "r", "watcher(X)")
        blocker, _ = intern(sp, "b", "b")
        _, qa = sp.add_answer(q, (Atom("a"),), [delay_neg(blocker)])
        _, pa = sp.add_answer(p, (Atom("a"),), [delay_pos(qa)])
        p.status = SubgoalTable.COMPLETE
        _, ra = sp.add_answer(r, (Atom("a"),), [delay_neg(p)])
        # b succeeds unconditionally: tnot b false, so q(a) dies, so p(a)
        # dies, so the completed p table is empty and tnot p fires true.
        sp.add_answer(blocker, ())
        assert qa.deleted and pa.deleted
        assert ra.unconditional

    def test_merged_delay_lists_and_dedup(self):
        sp = make_space()
        p, _ = intern(sp, "p", "p(X)")
        g1, _ = intern(sp, "q", "g1")
        g2, _ = intern(sp, "q2", "g2")
        st1, ans = sp.add_answer(p, (Atom("a"),), [delay_neg(g1)])
        st2, _ = sp.add_answer(p, (Atom("a"),), [delay_neg(g2)])
        st3, _ = sp.add_answer(p, (Atom("a"),), [delay_neg(g1)])
        assert (st1, st2, st3) == ("added", "merged", "duplicate")
        assert len(ans.delay_lists) == 2
        # one true list is enough
        g1.status = SubgoalTable.COMPLETE
        sp.on_completed(g1)
        assert ans.unconditional

    def test_unconditional_answer_supersedes_delay_lists(self):
        sp = make_space()
        p, _ = intern(sp, "p", "p(X)")
        g1, _ = intern(sp, "q", "g1")
        _, ans = sp.add_answer(p, (Atom("a"),), [delay_neg(g1)])
        st, same = sp.add_answer(p, (Atom("a"),))
        assert st == "duplicate" and same is ans
        assert ans.unconditional

    def test_simplification_counter_and_hook(self):
        sp = make_space()
        seen = []
        sp.trace_hook = lambda op, tab: seen.append((op, term_to_str(tab.subgoal)))
        p, _ = intern(sp, "p", "p(X)")
        q, _ = intern(sp, "q", "q(a)")
        _, ans = sp.add_answer(p, (Atom("a"),), [delay_neg(q)])
        q.status = SubgoalTable.COMPLETE
        sp.on_completed(q)
        assert sp.n_simplifications == 1
        assert seen == [("SIMPLIFICATION", "p(_G0)")]


class TestAbolish:
    def test_abolish_incomplete_rejected(self):
        sp = make_space()
        tab, _ = intern(sp, "p", "p(X)")
        with pytest.raises(EvalError):
            sp.abolish_call(t("p(Y)"))

    def test_abolish_call_removes_from_index(self):
        sp = make_space()
        tab, _ = intern(sp, "p", "p(X)")
        tab.status = SubgoalTable.COMPLETE
        sp.abolish_call(t("p(Y)"))
        assert sp.lookup_variant(t("p(Z)")) is None
        assert tab not in sp.tables

    def test_conditional_dependents_are_abolished(self):
        sp = make_space()
        p, _ = intern(sp, "p", "p(X)")
        q, _ = intern(sp, "q", "q(a)")
        sp.add_answer(p, (Atom("a"),), [delay_neg(q)])
        p.status = SubgoalTable.COMPLETE
        q.status = SubgoalTable.COMPLETE
        sp.abolish_call(t("q(a)"))
        assert sp.lookup_variant(t("p(W)")) is None

    def test_refused_abolish_changes_nothing(self):
        # q(a) is complete, but p(X), which leans on tnot q(a), is not
        sp = make_space()
        p, _ = intern(sp, "p", "p(X)")
        q, _ = intern(sp, "q", "q(a)")
        sp.add_answer(p, (Atom("a"),), [delay_neg(q)])
        q.status = SubgoalTable.COMPLETE
        with pytest.raises(EvalError) as err:
            sp.abolish_call(t("q(a)"))
        assert err.value.kind == "abolish_incomplete"
        assert sp.lookup_variant(t("q(a)")) is q
        assert q.status == SubgoalTable.COMPLETE
        assert q in sp.tables


class TestDeclaredFields:
    def test_an_undeclared_table_field_is_refused(self):
        sp = make_space()
        tab, _ = intern(sp, "p", "p(X)")
        with pytest.raises(AttributeError):
            tab.undeclared = 1


class TestIncrementalBookkeeping:
    def test_reset_clears_answers_and_counts(self):
        sp = make_space()
        tab, _ = intern(sp, "p", "p(X)")
        sp.add_answer(tab, (Atom("a"),))
        tab.status = SubgoalTable.COMPLETE
        sp.reset_table(tab)
        assert tab.status == SubgoalTable.INCOMPLETE
        assert len(tab.index) == 0 and not tab.answers
        assert tab.pred.recomputations == 1

    def test_dyn_reader_edges(self):
        sp = make_space()
        tab, _ = intern(sp, "p", "p(X)")
        sp.note_dyn_read(tab, ("e", 2), False)
        assert sp.dyn_readers[("e", 2)] == {tab: False}
        sp.reset_table(tab)
        assert sp.dyn_readers[("e", 2)] == {}

    def test_call_edges(self):
        sp = make_space()
        a, _ = intern(sp, "p", "p(X)")
        b, _ = intern(sp, "q", "q(X)")
        sp.note_call_edge(a, b, neg=True)
        assert a.dep_out[b] and a in b.dep_in
        # a later positive call keeps the polarity and the call order
        c, _ = intern(sp, "r", "r(X)")
        sp.note_call_edge(a, c, neg=False)
        sp.note_call_edge(a, b, neg=False)
        assert list(a.dep_out.items()) == [(b, True), (c, False)]


class TestStatistics:
    def test_per_predicate_summary(self):
        sp = make_space()
        p1, _ = intern(sp, "p", "p(a, X)")
        p2, _ = intern(sp, "p", "p(b, X)")
        q, _ = intern(sp, "q", "blocker")
        sp.add_answer(p1, (Atom("one"),))
        sp.add_answer(p2, (Atom("two"),), [delay_neg(q)])
        p1.status = SubgoalTable.COMPLETE
        stats = sp.statistics()
        assert stats["p/2"] == {"tables": 2, "answers": 2,
                                "conditional": 1, "complete": 1, "invalid": 0}
