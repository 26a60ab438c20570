import pytest

from tlpe.errors import ParseError
from tlpe.parser import parse_goal, parse_program, parse_term_text
from tlpe.terms import Atom, Int, Struct, Var, term_to_str


def S(name, *args):
    return Struct(name, tuple(args))


class TestTerms:
    def test_facts_and_rules(self):
        items = parse_program("edge(1,2). reach(X,Y) :- edge(X,Y).")
        assert len(items) == 2
        assert items[0].term == S("edge", Int(1), Int(2))
        rule = items[1].term
        assert rule.name == ":-" and rule.args[0] == S("reach", Var(0), Var(1))

    def test_var_names_recorded(self):
        item = parse_program("p(Xs, Foo, Xs, _).")[0]
        assert item.var_names == {0: "Xs", 1: "Foo"}
        assert item.nvars == 3  # the anonymous _ is fresh

    def test_lists(self):
        t = parse_term_text("[a,b|T]")
        assert t == S(".", Atom("a"), S(".", Atom("b"), Var(0)))
        assert parse_term_text("[]") == Atom("[]")

    def test_quoted_atoms_and_comments(self):
        items = parse_program("% a comment\np('hello world', 'it\\'s'). % trail")
        assert items[0].term.args[0] == Atom("hello world")
        assert items[0].term.args[1] == Atom("it's")

    def test_negative_and_decimal_numbers(self):
        assert parse_term_text("f(-3)") == S("f", Int(-3))
        assert parse_term_text("0.5") == Int(5000)
        assert parse_term_text("1.0") == Int(10000)
        assert parse_term_text("f(0.12345)") == S("f", Int(1235))
        assert parse_term_text("-0.25") == Int(-2500)

    def test_operators(self):
        t = parse_term_text("qdb/3-[0,0]")
        assert t == S("-", S("/", Atom("qdb"), Int(3)),
                      S(".", Int(0), S(".", Int(0), Atom("[]"))))
        assert parse_term_text("1+2*3") == S("+", Int(1), S("*", Int(2), Int(3)))
        assert parse_term_text("1-2-3") == S("-", S("-", Int(1), Int(2)), Int(3))
        assert parse_term_text("D is D1+W") == \
            S("is", Var(0), S("+", Var(1), Var(2)))
        assert parse_term_text("*(1)+2") == S("+", S("*", Int(1)), Int(2))

    def test_conjunction_folds_right(self):
        a, b, c, d = map(Atom, "abcd")
        assert parse_term_text("a, X = 1, (b, c), tnot d") == S(
            ",", a, S(",", S("=", Var(0), Int(1)),
                      S(",", S(",", b, c), S("tnot", d))))
        assert parse_term_text("a, b :- c, d") == \
            S(":-", S(",", a, b), S(",", c, d))
        assert parse_term_text("f((a, b), c)") == S("f", S(",", a, b), c)

    def test_long_conjunction(self):
        # a , chain longer than the recursion limit, read in a loop
        n = 5000
        [item] = parse_program("p :- " + ", ".join(["q"] * n) + ".")
        body, goals = item.term.args[1], 1
        while body.name == ",":
            assert body.args[0] == Atom("q")
            body, goals = body.args[1], goals + 1
        assert body == Atom("q") and goals == n

    def test_tnot_prefix(self):
        item = parse_program("p(c) :- tnot p(a).")[0]
        assert item.term.args[1] == S("tnot", S("p", Atom("a")))

    def test_double_tnot_rejected(self):
        with pytest.raises(ParseError) as ei:
            parse_program("q :- tnot tnot p.")
        assert "double negation" in str(ei.value)
        with pytest.raises(ParseError):
            parse_program("q :- tnot(tnot(p(X))).")

    def test_conjunction_right_assoc(self):
        g = parse_goal("a, b, c").term
        assert g == S(",", Atom("a"), S(",", Atom("b"), Atom("c")))


class TestDirectives:
    def test_table_simple(self):
        item = parse_program(":- table reach/2.")[0]
        assert item.is_directive
        assert item.term == S("table", S("/", Atom("reach"), Int(2)))

    def test_table_multi_and_as(self):
        t = parse_program(":- table p/1, q/1.")[0].term
        assert t.name == "table" and t.args[0].name == ","
        t2 = parse_program(":- table reach/2 as subsumptive.")[0].term
        assert t2 == S("table", S("as", S("/", Atom("reach"), Int(2)),
                                  Atom("subsumptive")))

    def test_table_answer_subsumption_shapes(self):
        t = parse_program(":- table sp(_,min).")[0].term
        assert t == S("table", S("sp", Var(0), Atom("min")))
        t = parse_program(":- table pred(_,_,qdb/3-[0,0]).")[0].term
        arg3 = t.args[0].args[2]
        assert arg3.name == "-" and arg3.args[0] == S("/", Atom("qdb"), Int(3))
        t = parse_program(":- table desc(_,extends/2).")[0].term
        assert t.args[0].args[1] == S("/", Atom("extends"), Int(2))

    def test_index_specs(self):
        t = parse_program(":- index(trans/3, trie).")[0].term
        assert t == S("index", S("/", Atom("trans"), Int(3)), Atom("trie"))
        t = parse_program(":- index(p/5, [*(1)+2, *(1)]).")[0].term
        first = t.args[1].args[0]
        assert first == S("+", S("*", Int(1)), Int(2))

    def test_dynamic_and_incremental(self):
        t = parse_program(":- dynamic edge/2.")[0].term
        assert t == S("dynamic", S("/", Atom("edge"), Int(2)))
        t = parse_program(":- use_incremental_dynamic edge/2.")[0].term
        assert t.name == "use_incremental_dynamic"
        t = parse_program(":- table reach/2 as incremental.")[0].term
        assert t.args[0].args[1] == Atom("incremental")


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as ei:
            parse_program("p(a)\nq(b).")
        assert ei.value.line == 2

    def test_unterminated(self):
        with pytest.raises(ParseError):
            parse_program("p('oops).")
        with pytest.raises(ParseError):
            parse_program("p(a")

    def test_bad_char(self):
        with pytest.raises(ParseError):
            parse_program("p(a) { q.")


CORPUS = [
    "edge(1,2).",
    "reach(X,Y) :- reach(X,Z), edge(Z,Y).",
    "p(c) :- tnot p(a).",
    "p(X) :- t(X,Y,Z), tnot p(Y), tnot p(Z).",
    "check(T,C) :- order(T,In,O), sub(In,C), !, dis(O,C).",
    "f([a,[b,c],2], 'Q b', -7).",
    "d(X,D) :- e(X,Y,W), d2(Y,D1), D is D1+W.",
]


@pytest.mark.parametrize("src", CORPUS)
def test_parse_print_parse_fixpoint(src):
    item = parse_program(src)[0]
    t = item.term
    if t.name == ":-" and len(t.args) == 2:
        printed = f"{term_to_str(t.args[0])} :- {term_to_str(t.args[1])}."
    else:
        printed = term_to_str(t) + "."
    again = parse_program(printed)[0].term
    assert again == t, printed
