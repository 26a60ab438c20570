"""Clause store: directives, indexing, assert/retract, auto tabling."""

import random

import pytest

from tlpe.builtins import BUILTINS
from tlpe.engine import Engine
from tlpe.errors import DirectiveError, StoreError
from tlpe.parser import parse_program, parse_term_text
from tlpe.program import STAR_CAP, ClauseIndex, Program
from tlpe.terms import Atom, Int, Struct, Var, symbols, term_to_str, term_vars


def load(src, **kw):
    prog = Program(**kw)
    for item in parse_program(src):
        if item.is_directive:
            prog.apply_directive(item.term)
        else:
            prog.add_clause(item.term)
    prog.finalize()
    return prog


def goal(src):
    return parse_term_text(src)


def lookup(prog, g):
    """The clauses retrieval returns for ``g`` with their unifiers,
    rendered, the heads renamed above the variables of ``g``."""
    pairs = prog.lookup_clauses(g, max(term_vars(g), default=-1) + 1)
    return [(term_to_str(cl.term),
             sorted((k, term_to_str(v)) for k, v in env.items()))
            for cl, env in pairs]


def clauses(prog, g):
    """The clauses retrieval returns for ``g``, rendered."""
    return [c for c, _ in lookup(prog, g)]


# ---------------------------------------------------------------------------
# directives


class TestTableDirectives:
    def test_plain_table_uses_default_mode(self):
        prog = load(":- table p/2.")
        pi = prog.info("p", 2)
        assert pi.tabling == "variant"
        assert not pi.incremental_table

    def test_default_mode_is_configurable(self):
        prog = load(":- table p/2.", default_tabling="subsumptive")
        assert prog.info("p", 2).tabling == "subsumptive"

    def test_as_subsumptive(self):
        prog = load(":- table path/2 as subsumptive.")
        assert prog.info("path", 2).tabling == "subsumptive"

    def test_as_incremental(self):
        prog = load(":- table p/1 as incremental.")
        pi = prog.info("p", 1)
        assert pi.tabling == "variant" and pi.incremental_table

    def test_conjunction_of_specs(self):
        prog = load(":- table (p/1, q/2 as subsumptive).")
        assert prog.info("p", 1).tabling == "variant"
        assert prog.info("q", 2).tabling == "subsumptive"

    def test_min_spec(self):
        prog = load(":- table sp(_, min).")
        sub = prog.info("sp", 2).subsumption
        assert sub.kind == "min" and sub.position == 1

    def test_lattice_spec(self):
        prog = load(":- table pred(_, _, qdb/3 - [0, 0]).")
        sub = prog.info("pred", 3).subsumption
        assert sub.kind == "lattice"
        assert sub.position == 2
        assert sub.join_pred == ("qdb", 3)
        assert term_to_str(sub.identity) == "[0,0]"

    def test_partial_order_spec(self):
        prog = load(":- table desc(_, extends/2).")
        sub = prog.info("desc", 2).subsumption
        assert sub.kind == "po" and sub.leq_pred == ("extends", 2)

    def test_subsumption_forces_variant(self):
        prog = load(":- table sp(_, max).", default_tabling="subsumptive")
        assert prog.info("sp", 2).tabling == "variant"

    def test_subsumption_rejects_subsumptive_mode(self):
        with pytest.raises(DirectiveError):
            load(":- table sp(_, min) as subsumptive.")

    @pytest.mark.parametrize("first,second,message", [
        ("sp/3 as incremental", "sp(_,_,min)",
         "answer subsumption cannot be incremental"),
        ("sp/3 as incremental", "sp/3 as subsumptive",
         "incremental tabling requires variant tabling"),
        ("sp(_,_,min)", "sp/3 as subsumptive",
         "answer subsumption requires variant tabling"),
    ])
    @pytest.mark.parametrize("order", ["as written", "reversed"])
    def test_two_directives_combine_as_one(self, first, second, message,
                                           order):
        # each pair is refused in one directive, and so in two, either
        # way round, before the second changes the predicate
        if order == "reversed":
            first, second = second, first
        prog = load(f":- table {first}.")
        before = vars(prog.info("sp", 3)).copy()
        with pytest.raises(DirectiveError, match=message):
            prog.apply_directive(parse_term_text(f"table({second})"))
        assert vars(prog.info("sp", 3)) == before

    def test_a_later_directive_keeps_what_it_does_not_state(self):
        prog = load(":- table p/2 as subsumptive.\n:- table p/2.\n"
                    ":- table q(_,min).\n:- table q/2.")
        assert prog.info("p", 2).tabling == "subsumptive"
        assert prog.info("q", 2).subsumption.kind == "min"

    def test_no_aggregated_argument(self):
        with pytest.raises(DirectiveError):
            load(":- table sp(_, _).")

    def test_two_aggregated_arguments(self):
        with pytest.raises(DirectiveError):
            load(":- table sp(min, max).")

    def test_lattice_join_arity_checked(self):
        with pytest.raises(DirectiveError):
            load(":- table sp(_, j/2 - 0).")

    def test_tabled_and_dynamic_conflict(self):
        with pytest.raises(DirectiveError):
            load(":- table p/1.\n:- dynamic p/1.")
        with pytest.raises(DirectiveError):
            load(":- dynamic p/1.\n:- table p/1.")

    def test_unknown_directive(self):
        with pytest.raises(DirectiveError):
            load(":- frobnicate(p/1).")


class TestDynamicDirectives:
    def test_dynamic(self):
        prog = load(":- dynamic e/2.")
        pi = prog.info("e", 2)
        assert pi.dynamic and not pi.incremental_source

    def test_use_incremental_dynamic(self):
        prog = load(":- use_incremental_dynamic(e/2).")
        pi = prog.info("e", 2)
        assert pi.dynamic and pi.incremental_source

    def test_dynamic_conjunction(self):
        prog = load(":- dynamic (e/2, f/1).")
        assert prog.info("e", 2).dynamic
        assert prog.info("f", 1).dynamic


# ---------------------------------------------------------------------------
# clause addition and retraction


class TestAssertRetract:
    def test_load_then_assert_static_fails(self):
        prog = load("p(a).")
        with pytest.raises(StoreError):
            prog.add_clause(goal("p(b)"), at_load=False)

    def test_assert_to_fresh_predicate_makes_it_dynamic(self):
        prog = load("")
        prog.add_clause(goal("p(a)"), at_load=False)
        assert prog.info("p", 1).dynamic

    def test_assert_to_tabled_fails(self):
        prog = load(":- table p/1.")
        with pytest.raises(StoreError):
            prog.add_clause(goal("p(a)"), at_load=False)

    def test_retract_static_fails(self):
        prog = load("p(a).")
        with pytest.raises(StoreError):
            prog.retract_clause(goal("p(a)"))

    def test_retract_variant_matching(self):
        prog = load(":- dynamic q/2.\nq(a, b).\nq(X, X).\nq(Y, Z).")
        assert prog.info("q", 2).general_clauses == 2   # non-ground facts
        # q(A, A) is a variant of q(X, X) but not of q(a, b) or q(Y, Z)
        assert prog.retract_clause(goal("q(A, A)"))
        left = [term_to_str(c.term) for c in prog.info("q", 2).clauses]
        assert left == ["q(a,b)", "q(_G0,_G1)"]
        assert prog.info("q", 2).general_clauses == 1
        assert not prog.retract_clause(goal("q(A, A)"))

    def test_retract_rule(self):
        prog = load(":- dynamic p/1.\np(X) :- q(X), r(X).\np(a).")
        assert prog.info("p", 1).general_clauses == 1
        assert prog.retract_clause(goal("p(V) :- q(V), r(V)"))
        assert [c.is_fact for c in prog.info("p", 1).clauses] == [True]
        assert prog.info("p", 1).general_clauses == 0

    def test_cut_in_tabled_clause_rejected(self):
        with pytest.raises(StoreError):
            load(":- table p/1.\np(X) :- q(X), !.")
        with pytest.raises(StoreError):
            load("p(X) :- q(X), !.\n:- table p/1.")

    @pytest.mark.parametrize("name,arity", sorted(BUILTINS),
                             ids=[f"{n}/{a}" for n, a in sorted(BUILTINS)])
    def test_cannot_define_builtins(self, name, arity):
        head = Struct(name, tuple(Var(i) for i in range(arity))) \
            if arity else Atom(name)
        with pytest.raises(StoreError):
            Program().add_clause(Struct(":-", (head, Atom("fail"))))

    def test_body_variable_goal_rejected(self):
        with pytest.raises(StoreError):
            load("p(X) :- X.")


class TestTrieIndexedFacts:
    SRC = ":- dynamic e/2.\n:- index(e/2, trie).\n"

    def test_duplicates_ignored(self):
        prog = load(self.SRC + "e(a, b).\ne(a, b).\ne(a, c).")
        assert prog.clause_count(("e", 2)) == 2

    def test_variant_duplicates_ignored(self):
        prog = load(self.SRC + "e(X, Y).\ne(P, Q).")
        assert prog.clause_count(("e", 2)) == 1

    def test_repeated_variable_is_not_a_variant(self):
        prog = load(self.SRC + "e(X, X).\ne(X, Y).\ne(Y, Y).")
        assert prog.clause_count(("e", 2)) == 2
        assert clauses(prog, goal("e(a, b)")) == ["e(_G0,_G1)"]
        assert prog.retract_clause(goal("e(Z, Z)"))
        assert clauses(prog, goal("e(a, a)")) == ["e(_G0,_G1)"]

    def test_rules_rejected(self):
        with pytest.raises(StoreError):
            load(self.SRC + "e(X, Y) :- f(X, Y).")

    def test_trie_after_clauses_rejected(self):
        with pytest.raises(StoreError):
            load(":- dynamic e/2.\ne(a, b).\n:- index(e/2, trie).")

    def test_trie_not_combinable(self):
        with pytest.raises(DirectiveError):
            load(":- index(e/2, [trie, 1]).")

    def test_retract_prunes_nodes(self):
        prog = load(self.SRC + "e(a, b).\ne(a, c).")
        trie = prog.info("e", 2).indexes[0].trie
        n = trie.node_count
        assert prog.retract_clause(goal("e(a, c)"))
        assert trie.node_count == n - 1   # shared e/2,a prefix kept
        assert prog.retract_clause(goal("e(a, b)"))
        assert trie.node_count == 0

    def test_lookup_route(self):
        prog = load(self.SRC + "e(a, b).")
        assert lookup(prog, goal("e(a, X)")) == [("e(a,b)", [(0, "b")])]

    def test_repeated_stored_variable_meets_unifiable_goal_terms(self):
        # the two V positions of p(V,V,a) meet f(X) and f(b), which unify
        src = ":- dynamic p/3.\n{}p(V,V,a).\np(c,c,a).\n"
        indexed = load(src.format(":- index(p/3, trie).\n"))
        plain = load(src.format(""))
        for g in ("p(f(X), f(b), a)", "p(f(a), f(b), a)", "p(X, c, a)",
                  "p(f(X), Y, a)", "p(g(X, b), g(a, Y), Z)"):
            got, want = (lookup(prog, goal(g)) for prog in (indexed, plain))
            assert got == want, g
        assert clauses(indexed, goal("p(f(X), f(b), a)")) == ["p(_G0,_G0,a)"]


# ---------------------------------------------------------------------------
# index selection and the pruning invariant


class TestIndexSelection:
    SRC = (":- index(p/5, [*(1) + 2, *(1)]).\n"
           "p(f(a), b, c, d, e).\n"
           "p(f(b), b, x, y, z).\n"
           "p(g(a), c, x, y, z).\n")

    def test_joint_index_preferred(self):
        prog = load(self.SRC)
        hits = clauses(prog, goal("p(f(a), b, _, _, _)"))
        assert len(hits) == 1

    def test_fallback_when_component_unbound(self):
        prog = load(self.SRC)
        hits = clauses(prog, goal("p(f(a), Y, _, _, _)"))
        assert len(hits) == 1

    def test_scan_when_no_index_applies(self):
        prog = load(self.SRC)
        hits = clauses(prog, goal("p(X, b, _, _, _)"))
        assert len(hits) == 2

    def test_default_first_argument_index(self):
        prog = load("p(a, 1).\np(b, 2).\np(a, 3).")
        hits = clauses(prog, goal("p(a, N)"))
        assert hits == ["p(a,1)", "p(a,3)"]

    def test_each_clause_sits_in_one_bucket_per_index(self):
        # the default index, made with the predicate, holds each clause
        # in one leaf, once
        prog = load("p(a, 1).\np(b, 2).\np(X, 3).")
        pi = prog.info("p", 2)
        stored = [cl for n in pi.indexes[0].trie.leaves() for cl in n.leaf]
        assert sorted(cl.seq for cl in stored) == [cl.seq for cl in pi.clauses]
        assert clauses(prog, goal("p(a, N)")) == ["p(a,1)", "p(_G0,3)"]

    # (program, goal, route, candidates kept); in p(f(X, d)) the goal
    # variable swallows one stored argument, and d still prunes
    PINNED = [
        (SRC, "p(f(a), b, _, _, _)", "*(1)+2", 1),
        (SRC, "p(f(a), Y, _, _, _)", "*(1)", 1),
        (SRC, "p(X, b, _, _, _)", "scan", 3),
        ("p(a, 1).\np(b, 2).\np(a, 3).", "p(a, N)", "1", 2),
        ("p(a, 1).\np(b, 2).\np(X, 3).", "p(a, N)", "1", 2),
        ("p(a, 1).\np(b, 2).\n:- index(p/2, 2).", "p(X, 2)", "2", 1),
        (":- index(p/1, *(1)).\np(f(a, b)).\np(f(c, b)).\np(f(a, d)).",
         "p(f(X, d))", "*(1)", 1),
        (":- index(e/2, trie).\ne(a, b).", "e(a, X)", "trie", 1),
    ]

    @pytest.mark.parametrize("src,g,route,n", PINNED,
                             ids=[str(i) for i in range(len(PINNED))])
    def test_candidates_pinned(self, src, g, route, n):
        prog = load(src)
        t = goal(g)
        got_route, got = prog._candidates(prog.preds[(t.name, len(t.args))], t)
        assert (str(got_route), len(got)) == (route, n)

    def test_index_component_out_of_range(self):
        with pytest.raises(DirectiveError):
            load(":- index(p/2, 3).")

    def test_joint_limited_to_three(self):
        with pytest.raises(DirectiveError):
            load(":- index(p/4, 1 + 2 + 3 + 4).")

    def test_redeclaration_rebuilds_over_existing_clauses(self):
        prog = load("p(a, 1).\np(b, 2).\n:- index(p/2, 2).")
        hits = clauses(prog, goal("p(X, 2)"))
        assert hits == ["p(b,2)"]

    def test_undefined_predicate(self):
        prog = load("")
        assert lookup(prog, goal("nothing(here)")) == []


class TestHeadUnifier:
    """Retrieval returns each clause with the unifier of its head, the
    head's variables renamed above ``nv``, and the goal."""

    @pytest.mark.parametrize("g,occurs_check,want", [
        ("p(a, f(b))", False, [(5, "a"), (6, "b")]),        # ground goal
        ("q(X, b)", False, [(0, "a")]),                     # ground head
        ("p(X, Y)", False, [(1, "f(_G6)"), (5, "_G0")]),    # neither
        ("p(X, g(Y))", False, None),
        ("r(X, f(X))", False, [(0, "f(_G0)"), (5, "f(_G0)")]),  # cyclic
        ("r(X, f(X))", True, None),
    ])
    def test_unifier_renames_the_head_above_nv(self, g, occurs_check, want):
        prog = load("p(U, f(V)).\nq(a, b).\nr(V, V).")
        got = [sorted((k, term_to_str(v)) for k, v in env.items())
               for _, env in prog.lookup_clauses(goal(g), 5, occurs_check)]
        assert got == ([] if want is None else [want])


_CONSTS = ["a", "b", "c", "1", "2"]
_SHAPES = ["f({0})", "f({0}, {1})", "g({0})", "h({0}, {1})"]


def _rand_arg(rng, depth=0, limit=2):
    r = rng.random()
    if depth >= limit or r < 0.45:
        return rng.choice(_CONSTS)
    if r < 0.6:
        return "V%d" % rng.randrange(3)
    shape = rng.choice(_SHAPES)
    n = shape.count("{")
    return shape.format(*[_rand_arg(rng, depth + 1, limit) for _ in range(n)])


def _rand_fact(rng, functor="p", arity=3, limit=2):
    args = ", ".join(_rand_arg(rng, limit=limit) for _ in range(arity))
    return f"{functor}({args})"


def _probe(rng, facts, limit):
    """A goal: a random fact, or half the time one of ``facts`` with one
    argument a fresh variable."""
    if rng.random() < 0.5:
        return goal(_rand_fact(rng, limit=limit))
    args = list(goal(rng.choice(facts)).args)
    args[rng.randrange(3)] = Var(99)
    return Struct("p", tuple(args))


def _scan(body, dynamic=False):
    """A program of ``body`` whose p/3 has no index: every lookup scans."""
    return load((":- dynamic p/3.\n" if dynamic else "")
                + ":- index(p/3, []).\n" + body)


def _check_indexes(prog, key=("p", 3)):
    """Each index of ``key`` holds every stored clause once, has no empty
    leaf, and has as many nodes as one built afresh from those clauses."""
    pi = prog.preds[key]
    for ix in pi.indexes:
        leaves = list(ix.trie.leaves())
        stored = [cl for n in leaves for cl in n.leaf]
        assert all(n.leaf for n in leaves)
        nodes = [ix.trie.root]
        for n in nodes:
            assert (n.vars or {}) == {s: c for s, c in n.children.items()
                                      if s[0] == "v"}
            nodes.extend(n.children.values())
        if not pi.trie_indexed:
            assert sorted(map(id, stored)) == sorted(map(id, pi.clauses))
        fresh = ClauseIndex(ix.spec)
        for cl in sorted(stored, key=lambda c: c.seq):
            assert fresh.add(cl)
        assert (fresh.trie.node_count, fresh.trie.leaf_count) == \
            (ix.trie.node_count, ix.trie.leaf_count) == \
            (ix.trie.node_count, len(leaves))


_INDEX_DECLS = [
    "",                                  # implicit first-argument index
    ":- index(p/3, 2).\n",
    ":- index(p/3, *(1)).\n",
    ":- index(p/3, [*(2) + 3, *(2)]).\n",
    ":- index(p/3, 1 + 2 + 3).\n",
    ":- index(p/3, [*(1) + *(2), 3]).\n",
]


class TestIndexPruningInvariant:
    """Whatever the declared indexes, retrieval must return exactly the
    head-unifiable clauses in program order, each with the same unifier
    (an index only prunes)."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_full_scan(self, seed):
        rng = random.Random(seed)
        facts = [_rand_fact(rng) for _ in range(14)]
        decl = _INDEX_DECLS[seed % len(_INDEX_DECLS)]
        indexed = load(decl + "".join(f + ".\n" for f in facts))
        plain = _scan("".join(f + ".\n" for f in facts))
        for _ in range(20):
            g = goal(_rand_fact(rng))
            got, want = lookup(indexed, g), lookup(plain, g)
            assert got == want, (decl, term_to_str(g))

    @pytest.mark.parametrize("seed", range(10))
    def test_trie_matches_full_scan(self, seed):
        rng = random.Random(1000 + seed)
        seen, facts = set(), []
        while len(facts) < 12:
            f = _rand_fact(rng)
            k = term_to_str(goal(f))
            if k not in seen:
                seen.add(k)
                facts.append(f)
        body = "".join(f + ".\n" for f in facts)
        indexed = load(":- dynamic p/3.\n:- index(p/3, trie).\n" + body)
        plain = _scan(body)
        for _ in range(20):
            g = goal(_rand_fact(rng))
            got, want = sorted(lookup(indexed, g)), sorted(lookup(plain, g))
            assert got == want, term_to_str(g)

    @pytest.mark.parametrize("seed", range(12))
    def test_deep_arguments_under_retracts(self, seed):
        # arguments up to four levels deep, most longer than STAR_CAP
        # symbols, with variables inside their first symbols; retracts
        # interleaved with lookups, every index checked after each step
        rng = random.Random(2000 + seed)
        decl = _INDEX_DECLS[seed % len(_INDEX_DECLS)]
        facts = [_rand_fact(rng, limit=4) for _ in range(16)]
        assert any(len(symbols(a)) > STAR_CAP
                   for f in facts for a in goal(f).args)
        body = "".join(f + ".\n" for f in facts)
        indexed = load(":- dynamic p/3.\n" + decl + body)
        plain = _scan(body, dynamic=True)
        for step in range(40):
            if step % 3 == 2:
                f = goal(rng.choice(facts))
                assert indexed.retract_clause(f) == plain.retract_clause(f)
            else:
                g = _probe(rng, facts, 4)
                assert lookup(indexed, g) == lookup(plain, g), \
                    (decl, term_to_str(g))
            _check_indexes(indexed)

    @pytest.mark.parametrize("seed", range(12))
    def test_trie_repeated_variables_under_retracts(self, seed):
        # facts whose variables repeat across their arguments; a variant
        # of a stored fact is a duplicate, the scan keeps the first
        rng = random.Random(3000 + seed)
        facts = [_rand_fact(rng, limit=3).replace("V2", "V0")
                 for _ in range(16)]
        body = "".join(f + ".\n" for f in facts)
        indexed = load(":- dynamic p/3.\n:- index(p/3, trie).\n" + body)
        plain = Program()
        plain.apply_directive(goal("dynamic(p/3)"))
        plain.apply_directive(goal("index(p/3, [])"))
        for f in facts:
            if not plain.holds_variant(goal(f)):
                plain.add_clause(goal(f))
        assert indexed.clause_count(("p", 3)) == plain.clause_count(("p", 3))
        for step in range(40):
            if step % 3 == 2:
                f = goal(rng.choice(facts))
                assert indexed.retract_clause(f) == plain.retract_clause(f)
            else:
                g = _probe(rng, facts, 3)
                assert lookup(indexed, g) == lookup(plain, g), term_to_str(g)
            _check_indexes(indexed)


class TestAtomicArgumentProbe:
    """A lookup of a first-argument index by an atom or an integer reads
    two children of the trie's root; it returns what the walk returns."""

    @staticmethod
    def _walk(ix, g):
        leaves = ix.trie.matching_leaves(g.args[0])
        return sorted((cl for leaf in leaves for cl in leaf),
                      key=lambda cl: cl.seq)

    @pytest.mark.parametrize("seed", range(8))
    def test_probe_matches_the_walk_under_changes(self, seed):
        # variable-headed clauses between the facts, and asserts and
        # retracts between the lookups
        rng = random.Random(4000 + seed)
        firsts = ["a", "b", "c", "1", "2", "X", "f(a)", "[X]"]
        prog = load(":- dynamic p/2.\n" + "".join(
            f"p({rng.choice(firsts)}, {i}).\n" for i in range(16)))
        pi = prog.preds[("p", 2)]
        ix = pi.indexes[0]
        assert ix.probe
        keys = [Atom(n) for n in "abcd"] + [Int(n) for n in range(4)]
        for step in range(30):
            if step % 3 == 1:
                prog.add_clause(goal(f"p({rng.choice(firsts)}, {100 + step})"),
                                at_load=False)
            elif step % 3 == 2 and pi.clauses:
                assert prog.retract_clause(rng.choice(pi.clauses).term)
            for k in keys:
                g = Struct("p", (k, Var(0)))
                assert ix.lookup(g) == self._walk(ix, g), term_to_str(g)

    def test_compound_or_unbound_argument_takes_the_walk(self, monkeypatch):
        prog = load("p(a, 1). p(f(a), 2). p(X, 3). p(f(Y), 4). p(g, 5).")
        ix = prog.preds[("p", 2)].indexes[0]
        walks = []
        walk = ix.trie.matching_leaves
        monkeypatch.setattr(ix.trie, "matching_leaves",
                            lambda *g, **kw: walks.append(g) or walk(*g, **kw))
        got = ix.lookup(goal("p(f(Z), W)"))
        assert [term_to_str(cl.head) for cl in got] == \
            ["p(f(a),2)", "p(_G0,3)", "p(f(_G0),4)"]
        assert len(walks) == 1
        assert [cl.seq for cl in ix.lookup(goal("p(a, W)"))] == \
            [cl.seq for cl in self._walk(ix, goal("p(a, W)"))]
        assert len(walks) == 2      # the walk above; the probe walks none
        assert ix.lookup(goal("p(Z, W)")) is None


# ---------------------------------------------------------------------------
# auto tabling


class TestAutoTable:
    def test_self_loop(self):
        prog = load(":- auto_table.\np(X) :- e(X, Y), p(Y).\ne(1, 2).")
        assert prog.info("p", 1).tabling == "variant"
        assert prog.info("p", 1).auto_tabled
        assert prog.info("e", 2).tabling == "none"

    def test_two_cycles_tie_broken_by_name(self):
        prog = load("a :- b.\nb :- a.\nc :- d.\nd :- c.\n:- auto_table.")
        tabled = sorted(str(pi) for pi in prog.user_predicates() if pi.tabled)
        assert tabled == ["a/0", "c/0"]

    def test_hub_with_highest_degree_product_wins(self):
        src = ("hub :- s1.\nhub :- s2.\ns1 :- hub.\ns2 :- hub.\n"
               ":- auto_table.")
        prog = load(src)
        tabled = [str(pi) for pi in prog.user_predicates() if pi.tabled]
        assert tabled == ["hub/0"]

    def test_already_tabled_counts_first(self):
        src = (":- table s1/0.\n"
               "hub :- s1.\nhub :- s2.\ns1 :- hub.\ns2 :- hub.\n"
               ":- auto_table.")
        prog = load(src)
        assert prog.info("hub", 0).tabled
        assert not prog.info("s2", 0).tabled
        assert not prog.info("hub", 0).tabling == "none"

    def test_cut_check_reads_the_clauses_left(self):
        # a predicate whose cut clause was retracted may be auto-tabled
        src = (":- dynamic p/1.\n:- auto_table.\n"
               "p(X) :- p(X), !.\np(X) :- q(X), p(X).\nq(a).")
        with pytest.raises(StoreError):
            load(src)
        prog = Program()
        for item in parse_program(src):
            if item.is_directive:
                prog.apply_directive(item.term)
            else:
                prog.add_clause(item.term)
        assert prog.retract_clause(goal("p(X) :- p(X), !"))
        assert prog.finalize() == [("p", 1)]

    def test_a_refused_cut_leaves_the_predicate_untabled(self):
        # the refusal comes before the predicate is tabled, so every
        # query raises it, not only the first
        eng = Engine()
        eng.consult(":- auto_table.\np(X) :- q(X), p(X), !.\np(a).\nq(a).")
        for _ in range(2):
            with pytest.raises(StoreError, match="cut inside a tabled"):
                eng.query("p(X).")
            assert not eng.program.info("p", 1).tabled

    def test_acyclic_program_tables_nothing(self):
        prog = load(":- auto_table.\np(X) :- q(X).\nq(a).")
        assert not any(pi.tabled for pi in prog.user_predicates())

    def test_negative_and_findall_edges_counted(self):
        src = (":- auto_table.\n"
               "p(X) :- tnot q(X).\n"
               "q(X) :- findall(Y, p(Y), _).\n")
        prog = load(src)
        assert any(pi.tabled for pi in prog.user_predicates())

    def test_breaks_all_cycles(self):
        rng = random.Random(7)
        lines = []
        preds = ["n%d" % i for i in range(9)]
        for _ in range(18):
            a, b = rng.choice(preds), rng.choice(preds)
            lines.append(f"{a} :- {b}.")
        src = "\n".join(lines) + "\n:- auto_table."
        prog = load(src)
        from tlpe.sccs import cyclic_vertices
        graph = prog.call_graph()
        live = {k for k in graph if not prog.preds[k].tabled}
        rest = cyclic_vertices(live, lambda v: (s for s in graph[v] if s in live))
        assert not rest


class TestSubsumptionStratification:
    def test_direct_negative_self_loop_rejected(self):
        with pytest.raises(StoreError):
            load(":- table p(min).\np(1) :- tnot p(2).")

    def test_negative_loop_through_helper_rejected(self):
        with pytest.raises(StoreError):
            load(":- table p(min).\np(C) :- tnot q(C).\nq(C) :- p(C).")

    def test_negation_outside_cycle_allowed(self):
        prog = load(":- table p(min).\np(C) :- tnot q(C).\nq(1).")
        assert prog.info("p", 1).subsumption is not None


class TestFinalizeAfterChanges:
    """``finalize`` redoes its analysis only after a change to the
    program it reads, a directive or a rule: a consult between two
    queries takes effect at the second, and a fact changes nothing it
    reads."""

    def test_queries_without_a_change_skip_the_analysis(self, monkeypatch):
        built = []
        call_graph = Program.call_graph
        monkeypatch.setattr(Program, "call_graph",
                            lambda self: built.append(1) or call_graph(self))
        eng = Engine()
        eng.consult(":- table sp(_,min).\nsp(X,C) :- e(X,C).\n"
                    "e(a,2). e(a,1). e(b,3).")
        for _ in range(3):
            assert [term_to_str(a.goal) for a in eng.query("sp(a,C).")] \
                == ["sp(a,1)"]
        assert len(built) == 1
        eng.consult("e(c,4).")
        assert [term_to_str(a.goal) for a in eng.query("sp(c,C).")] \
            == ["sp(c,4)"]
        assert len(built) == 1
        eng.consult("e(d,0) :- e(c,4).")
        assert [term_to_str(a.goal) for a in eng.query("sp(d,C).")] \
            == ["sp(d,0)"]
        assert len(built) == 2

    def test_a_consult_closing_a_tnot_cycle_raises_at_the_next_query(self):
        eng = Engine()
        eng.consult(":- table sp(_,min), q/1.\nsp(X,C) :- e(X,C).\n"
                    "q(X) :- sp(X,_).\ne(a,1).")
        assert len(eng.query("q(a).")) == 1
        eng.consult("sp(X,0) :- e(X,_), tnot q(X).")
        for _ in range(2):      # and at every query until it is mended
            with pytest.raises(StoreError, match="cycle through tnot"):
                eng.query("e(X,Y).")

    def test_auto_table_tables_a_predicate_a_later_consult_makes_cyclic(self):
        eng = Engine()
        eng.consult(":- auto_table.\np(X) :- e(X,_).\ne(1,2). e(2,1).")
        assert len(eng.query("p(X).")) == 2
        assert not eng.program.info("p", 1).tabled
        eng.consult("p(X) :- e(X,Y), p(Y).")
        assert len(eng.query("e(1,Y).")) == 1
        assert eng.program.info("p", 1).auto_tabled
        assert sorted(term_to_str(a.goal) for a in eng.query("p(X).")) \
            == ["p(1)", "p(2)"]
