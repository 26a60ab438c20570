from tlpe.terms import Atom, Struct, Var, canonicalize, symbols
from tlpe.tries import Trie


def term_path(t):
    """The canonical symbol path that stores ``t`` in a trie."""
    return symbols(canonicalize(t)[0])


def S(name, *args):
    return Struct(name, tuple(args))


a, b, d = Atom("a"), Atom("b"), Atom("d")
X, Y, V = Var(0), Var(1), Var(0)

RT1 = S("rt", a, S("f", a, b), a)
RT2 = S("rt", a, S("f", a, X), Y)
RT3 = S("rt", b, V, d)


def build_rt_trie():
    t = Trie()
    leaves = []
    for i, term in enumerate((RT1, RT2, RT3)):
        node = t.check_insert(term_path(term))
        t.set_leaf(node, (i, canonicalize(term)[0]))
        leaves.append(node)
    return t, leaves


class TestLayout:
    def test_hand_computed_node_count(self):
        # rt(a,f(a,b),a): 6 fresh nodes; rt(a,f(a,X),Y) shares 4, adds 2;
        # rt(b,V,d) shares only the root functor node, adds 3 -> 11 total.
        t, _ = build_rt_trie()
        assert t.node_count == 11
        assert t.leaf_count == 3

    def test_first_two_terms_share_four_node_prefix(self):
        t, leaves = build_rt_trie()
        # climb 2 symbols up from each leaf tail (b,a / V0,V1): same node
        n1 = leaves[0].parent.parent
        n2 = leaves[1].parent.parent
        assert n1 is n2
        assert [x.sym for x in _chain(n1)] == [
            ("f", "rt", 3), ("a", "a"), ("f", "f", 2), ("a", "a"),
        ]
        n3_top = _chain(leaves[2])[0]
        assert n3_top is _chain(n1)[0]  # only the rt/3 node is shared

    def test_duplicate_insert_creates_nothing(self):
        t, _ = build_rt_trie()
        node = t.check_insert(term_path(RT1))
        assert t.node_count == 11 and node.leaf is not None
        # variant of RT2 maps to the same path
        node2 = t.check_insert(term_path(S("rt", a, S("f", a, Y), X)))
        assert t.node_count == 11 and node2.leaf[0] == 1

    def test_remove_prunes(self):
        t, leaves = build_rt_trie()
        t.remove_leaf(leaves[1])
        assert t.node_count == 9 and t.leaf_count == 2
        t.remove_leaf(leaves[0])
        assert t.node_count == 4
        t.remove_leaf(leaves[2])
        assert t.node_count == 0 and not t.root.children


class TestRetrieval:
    def test_unify_mode(self):
        t, _ = build_rt_trie()
        hits = [p[0] for p in t.matching_leaves(S("rt", a, S("f", a, b), a))]
        assert hits == [0, 1]
        hits = [p[0] for p in t.matching_leaves(S("rt", b, Atom("c"), d))]
        assert hits == [2]
        hits = [p[0] for p in t.matching_leaves(S("rt", Var(7), Var(8), a))]
        assert hits == [0, 1]
        # stored variable edges absorb the mismatching goal symbol
        hits = [p[0] for p in t.matching_leaves(S("rt", Var(7), Var(8), Atom("z")))]
        assert hits == [1]
        assert t.matching_leaves(S("rt", d, Var(8), Atom("z"))) == []

    def test_subsume_mode(self):
        t, _ = build_rt_trie()
        hits = [p[0] for p in t.matching_leaves(S("rt", a, S("f", a, b), a),
                                                mode="subsume")]
        assert hits == [0, 1]  # exact path first, then the generalization
        hits = [p[0] for p in t.matching_leaves(S("rt", a, S("f", a, Var(5)), Var(6)),
                                                mode="subsume")]
        assert hits == [1]
        assert t.matching_leaves(S("rt", Var(5), Var(6), Var(7)),
                                 mode="subsume") == []

    def test_repeated_var_consistency(self):
        t = Trie()
        node = t.check_insert(term_path(S("q", X, X)))
        t.set_leaf(node, "qxx")
        assert t.matching_leaves(S("q", a, b)) == []
        assert t.matching_leaves(S("q", a, a)) == ["qxx"]
        assert t.matching_leaves(S("q", a, b), mode="subsume") == []

    def test_leaves_enumeration_order(self):
        t, _ = build_rt_trie()
        assert [n.leaf[0] for n in t.leaves()] == [0, 1, 2]


def _chain(node):
    out = []
    while node.parent is not None:
        out.append(node)
        node = node.parent
    return list(reversed(out))
