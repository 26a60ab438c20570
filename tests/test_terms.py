import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from tlpe.terms import (
    Atom, CyclicTermError, Int, Struct, Var, canonical_key,
    canonicalize, compare, instantiate, is_ground, make_list, match,
    order_key, rename, resolve, substitute, subsumes, symbols, term_to_str,
    term_vars, unify, variant,
)


def S(name, *args):
    return Struct(name, tuple(args))


a, b, c = Atom("a"), Atom("b"), Atom("c")
NIL_LIST = Atom("[]")
X, Y, Z = Var(0), Var(1), Var(2)


class TestUnify:
    def test_basic(self):
        env = unify(S("f", X, b), S("f", a, Y))
        assert env == {0: a, 1: b}

    def test_mismatch(self):
        assert unify(S("f", a), S("f", b)) is None
        assert unify(S("f", a), S("g", a)) is None
        assert unify(S("f", a), S("f", a, b)) is None
        assert unify(a, Int(1)) is None

    def test_var_chain(self):
        env = unify(X, Y)
        env = unify(Y, a, env)
        assert resolve(X, env) == a

    def test_repeated_var(self):
        assert unify(S("f", X, X), S("f", a, b)) is None
        env = unify(S("f", X, X), S("f", Y, a))
        assert resolve(Y, env) == a

    def test_occurs_check_flag(self):
        # off by default: the binding is created, materialization fails
        env = unify(X, S("f", X))
        assert env is not None
        with pytest.raises(CyclicTermError):
            resolve(X, env)
        assert unify(X, S("f", X), occurs_check=True) is None

    def test_does_not_mutate_input_env(self):
        env = {0: a}
        out = unify(Y, b, env)
        assert out == {0: a, 1: b} and env == {0: a}


class TestVariantSubsumes:
    def test_subsumes_direction(self):
        assert subsumes(S("p", X, Y), S("p", a, Z))
        assert not subsumes(S("p", a, Z), S("p", X, Y))
        assert subsumes(S("p", X, Y), S("p", a, b))
        assert not subsumes(S("p", X, X), S("p", a, b))
        assert subsumes(S("p", X, X), S("p", a, a))

    def test_variant(self):
        assert variant(S("p", X, Y), S("p", Y, X))
        assert variant(S("p", X, Y), S("p", Z, X))
        assert not variant(S("p", X, X), S("p", X, Y))
        assert not variant(S("p", X, a), S("p", X, b))

    def test_match_binds_left_only(self):
        env = match(S("p", X), S("p", Y))
        assert env == {0: Y}
        assert match(S("p", a), S("p", Y)) is None


class TestCanonical:
    def test_first_occurrence_order(self):
        t = S("f", Y, X, Y)
        ct, n = canonicalize(t)
        assert ct == S("f", Var(0), Var(1), Var(0))
        assert n == 2

    def test_key_equates_variants(self):
        assert canonical_key(S("p", X, Y)) == canonical_key(S("p", Z, X))
        assert canonical_key(S("p", X, X)) != canonical_key(S("p", X, Y))

    def test_rename(self):
        t = rename(S("f", X, Y), 10)
        assert t == S("f", Var(10), Var(11))


class TestOrder:
    def test_kinds(self):
        assert compare(Int(5), a) < 0
        assert compare(a, S("f", a)) < 0
        assert compare(Var(3), Int(-100)) < 0

    def test_within_kind(self):
        assert compare(Int(1), Int(2)) < 0
        assert compare(Atom("ab"), Atom("b")) < 0
        assert compare(S("f", a), S("f", a, a)) < 0  # arity before name
        assert compare(S("f", a, b), S("g", a, a)) < 0
        assert compare(S("f", a, a), S("f", a, b)) < 0
        assert compare(S("f", a), S("f", a)) == 0

    def test_sorted(self):
        items = [S("f", b), Atom("z"), Int(3), Atom("a"), Int(-1)]
        got = sorted(items, key=order_key)
        assert got == [Int(-1), Int(3), Atom("a"), Atom("z"), S("f", b)]


class TestMisc:
    def test_ground_and_vars(self):
        t = S("f", X, S("g", Y, X), b)
        assert not is_ground(t)
        assert term_vars(t) == [0, 1]
        assert is_ground(S("f", a, b))

    def test_symbols_preorder(self):
        t = S("rt", a, S("f", a, b), a)
        assert symbols(t) == (
            ("f", "rt", 3), ("a", "a"), ("f", "f", 2), ("a", "a"),
            ("a", "b"), ("a", "a"),
        )

    def test_print_lists_and_quoting(self):
        t = make_list([a, Int(2), S("f", X)])
        assert term_to_str(t) == "[a,2,f(_G0)]"
        assert term_to_str(make_list([a], tail=X)) == "[a|_G0]"
        assert term_to_str(Atom("hello world")) == "'hello world'"
        assert term_to_str(Atom("[]")) == "[]"
        assert term_to_str(S("+", Int(1), Int(2))) == "+(1,2)"

    def test_deep_list_no_recursion_blowup(self):
        t = make_list([Int(i) for i in range(5000)])
        ct, n = canonicalize(t)
        assert n == 0
        assert symbols(ct)[0] == ("f", ".", 2)
        assert ct == t


class TestGroundSharing:
    def test_ground_flag(self):
        assert a.ground and Int(1).ground and not X.ground
        assert S("f", a, S("g", Int(1))).ground
        assert not S("f", a, S("g", X)).ground

    def test_ground_term_comes_back_as_itself(self):
        t = S("f", a, S("g", Int(1)), make_list([b, c]))
        assert rename(t, 5) is t
        assert resolve(t, {0: a}) is t
        assert canonicalize(t)[0] is t

    def test_ground_subterms_are_shared(self):
        g = S("g", a, b)
        t = S("f", X, g)
        assert rename(t, 3).args[1] is g
        assert resolve(t, {0: b}).args[1] is g
        assert canonicalize(S("f", Y, g))[0].args[1] is g
        # nothing bound below it: the compound itself
        assert resolve(t, {5: a}) is t
        assert canonicalize(t)[0] is t
        assert substitute(t, [X]) is t
        assert substitute(t, [Y]).args == (Y, g)

    def test_long_lists_through_every_traversal(self):
        n = 100000
        ground = make_list([Int(i) for i in range(n)])
        assert rename(ground, 3) is ground
        assert resolve(ground, {0: a}) is ground
        assert canonicalize(ground)[0] is ground
        assert isinstance(hash(ground), int)
        open_list = make_list([Var(i % 3) for i in range(n)], tail=Var(7))
        renamed = rename(open_list, 10)
        closed = resolve(renamed, {10: a, 11: b, 12: c, 17: NIL_LIST})
        assert closed.ground and term_vars(renamed) == [10, 11, 12, 17]
        ct, nv = canonicalize(renamed)
        assert nv == 4 and ct.args[1].args[1].args[0] == Var(2)
        same = make_list([Var(i % 3) for i in range(n)], tail=Var(3))
        assert hash(ct) == hash(same) and ct == same


class TestInterning:
    def test_one_object_per_value(self):
        assert Atom("a") is Atom("a") and Int(3) is Int(3)
        assert Int(True) is Int(1) and Int(-0) is Int(0)
        assert Atom("a") is not Atom("b") and Int(3) is not Int(4)
        assert Atom("1") is not Int(1) and Atom("a") != S("a")

    @pytest.mark.parametrize("copy_of", [
        copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
    def test_copies_are_the_shared_object(self, copy_of):
        for t in (a, NIL_LIST, Int(3), Int(-7)):
            assert copy_of(t) is t
        f = copy_of(S("f", a, Int(3), X))
        assert f == S("f", a, Int(3), X)
        assert f.args[0] is a and f.args[1] is Int(3)

    def test_threads_share_one_object_per_value(self):
        # the threads make the same fresh values at once: a switch between
        # a miss and its entry must not leave two objects for one value
        made = [None] * 4

        def make(k):
            made[k] = [Int(10 ** 8 + v) for v in range(20000)] \
                + [Atom(f"thread{v}") for v in range(20000)]

        threads = [threading.Thread(target=make, args=(k,)) for k in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert all(len(set(map(id, same))) == 1 for same in zip(*made))

    def test_match_binds_inside_a_shared_compound(self):
        g = S("g", X)
        assert match(g, g) == {0: X}
        # X takes a first, then g(X) must match g(X) itself
        assert match(S("f", g, X), S("f", g, a)) is None


# -- property tests ---------------------------------------------------------

_atoms = st.sampled_from(["a", "b", "foo"]).map(Atom)
_ints = st.integers(-9, 9).map(Int)
_vars = st.integers(0, 4).map(Var)
_terms = st.recursive(
    st.one_of(_atoms, _ints, _vars),
    lambda ch: st.builds(
        lambda nm, args: Struct(nm, tuple(args)),
        st.sampled_from(["f", "g"]),
        st.lists(ch, min_size=1, max_size=3),
    ),
    max_leaves=10,
)


@given(_terms)
def test_canonicalize_idempotent(t):
    c1, n1 = canonicalize(t)
    c2, n2 = canonicalize(c1)
    assert c1 == c2 and n1 == n2


@given(_terms)
def test_variant_reflexive_and_key_stable(t):
    assert variant(t, t)
    assert canonical_key(t) == canonical_key(rename(t, 7))


@given(_terms, _terms)
def test_unify_then_instances_equal(t1, t2):
    t2r = rename(t2, 100)
    env = unify(t1, t2r)
    if env is not None:
        try:
            assert resolve(t1, env) == resolve(t2r, env)
        except CyclicTermError:
            pass


@given(_terms, _terms)
def test_subsumes_implies_unifies(t1, t2):
    t2r = rename(t2, 100)
    if subsumes(t1, t2r):
        assert unify(t1, t2r) is not None


@given(_terms, _terms)
def test_order_antisymmetric(t1, t2):
    assert compare(t1, t2) == -compare(t2, t1)
    if compare(t1, t2) == 0:
        assert canonical_key(t1) == canonical_key(t2) or t1 == t2


@given(_terms, _terms)
def test_order_key_sorts_as_compare(t1, t2):
    # variables, nested compounds, and f/1, f/2, f/3 side by side
    k1, k2 = order_key(t1), order_key(t2)
    assert (k1 > k2) - (k1 < k2) == compare(t1, t2)


@given(_terms, _terms, st.integers(0, 3))
def test_instantiate_resolves_the_offset_term(t1, t2, off):
    env = unify(rename(t1, off), rename(t2, 100))
    if env is None:
        return
    try:
        want = resolve(rename(t1, off), env)
    except CyclicTermError:
        with pytest.raises(CyclicTermError):
            instantiate(t1, off, env)
    else:
        assert instantiate(t1, off, env) == want
