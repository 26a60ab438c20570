"""The reader: terms, directives, errors and their positions, and a
differential fuzz of ``parse_program`` against the reference lexer in
``oracles.tokenize`` (the character loop the token pattern replaced).

``python tests/test_parser.py FIRST LAST`` runs the fuzz over a range of
seeds (inclusive), prints each text whose readings differ, and the
count.
"""

import random
import sys

import pytest

import oracles
from tlpe.errors import ParseError
from tlpe.parser import _Parser, parse_goal, parse_program, parse_term_text
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

    def test_digit_that_is_not_decimal(self):
        # '²' passes str.isdigit, but int() does not read it
        with pytest.raises(ParseError) as ei:
            parse_program("p(²).")
        e = ei.value
        assert (e.msg, e.line, e.col) == ("unexpected character '²'", 1, 3)

    def test_item_positions(self):
        items = parse_program("p(a).\r\n\tq(b) :-\n\tr. \t% c\n  s.")
        assert [(i.line, i.col) for i in items] == [(1, 1), (2, 2), (4, 3)]


# every error the reader raises: (text, read as a goal, message, line, col);
# a tab and a '\r' each count as one column
ERRORS = [
    ("p(a).\r\n\tq('oops).", False, "unterminated quoted atom", 2, 4),
    ("p(a).\n\tq(a.b).", False, "unexpected '.'", 2, 5),
    ("p(a).\r\n  q(a) { r.", False, "unexpected character '{'", 2, 8),
    ("p(a).\n\tq(a b).", False, "expected ')'", 2, 6),
    ("p(a).\r\n\tq([a b]).", False, "expected ']'", 2, 7),
    ("p(a).\n\tq :- ).", False, "unexpected ')'", 2, 7),
    ("p(a).\r\n\tq(", False, "unexpected end of input", 2, 4),
    ("p(a).\n\tq :-\r\n\t.", False, "unexpected end of input", 3, 2),
    ("p(a)\n\tq(b).", False, "expected '.' at end of clause", 2, 2),
    ("a.\r\n\tb", True, "trailing input after goal", 2, 2),
    ("p.\n\tq :- tnot tnot r.", False,
     "double negation tnot(tnot(..)) is not allowed", 2, 7),
    ("p.\r\n\tq :-\ttnot(tnot(p(X))).", False,
     "double negation tnot(tnot(..)) is not allowed", 2, 7),
]


@pytest.mark.parametrize("text,goal,msg,line,col", ERRORS)
def test_error_message_and_position(text, goal, msg, line, col):
    with pytest.raises(ParseError) as ei:
        (parse_goal if goal else parse_program)(text)
    e = ei.value
    assert (e.msg, e.line, e.col) == (msg, line, col)
    assert str(e) == f"{msg} at line {line}, column {col}"


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


# -- differential fuzz against the reference lexer ----------------------

class _ReferenceReader(_Parser):
    """The parser over ``oracles.tokenize``'s tokens, which carry their
    line and column."""

    def where(self, t):
        return t.line, t.col


def reading(text, reference=False):
    """What ``parse_program`` makes of ``text``: each item's term,
    variable names and count, position and kind, or the error."""
    try:
        items = _ReferenceReader(oracles.tokenize(text), text).parse_items() \
            if reference else parse_program(text)
    except ParseError as e:
        return ("ParseError", e.msg, e.line, e.col)
    except ValueError as e:
        return ("ValueError", str(e))
    return [(i.term, i.var_names, i.nvars, i.line, i.col, i.is_directive)
            for i in items]


NAMES = ["p", "q", "f", "tnot", "is", "mod", "table", "é", "a²", "z_9",
         "'a b'", "'it\\'s'", "'x\\ny'", "'\\t'", "'é\\z'", "!", ";",
         "[]"]
VARS = ["X", "Y", "_", "_Y", "Foo", "É", "Éa٣"]
NUMBERS = ["0", "7", "٣", "12", "0.5", "2.12345", "1.00005", "3.14159",
           "٣.٣", "1.0000٣", "-4"]
INFIX = [", ", " :- ", " is ", "+", "-", "*", "/", "//", " mod ", "=", "\\=",
         "==", "=<", ">=", "<", " as ", "=:="]
LAYOUT = [" ", "  ", "\t", "\n", "\r\n", " % note\n", "%x\r\n", "\n\t"]
# the characters a corruption inserts: quotes, escapes, comment and
# clause ends, layout, and letters and numerals outside ASCII
CHARS = list("'\\%.()[]|,!;:-+*/=<>_ \t\n\r") + ["\r\n", "é", "É", "٣",
                                                 "½", "²", "a", "Z", "5"]


def random_term(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return rng.choice(rng.choice([NAMES, VARS, NUMBERS]))
    if r < 0.55:
        name = rng.choice(NAMES[:10] + ["'q x'"])
        args = [random_term(rng, depth - 1)
                for _ in range(rng.randint(1, 3))]
        return f"{name}({', '.join(args)})"
    if r < 0.75:
        return random_term(rng, depth - 1) + rng.choice(INFIX) \
            + random_term(rng, depth - 1)
    if r < 0.85:
        elems = [random_term(rng, depth - 1)
                 for _ in range(rng.randint(1, 3))]
        tail = f"|{rng.choice(VARS)}" if rng.random() < 0.3 else ""
        return f"[{', '.join(elems)}{tail}]"
    if r < 0.93:
        return f"({random_term(rng, depth - 1)})"
    return rng.choice(["tnot ", "- ", ":- table ", ":- dynamic "]) \
        + random_term(rng, depth - 1)


def random_text(rng):
    """A few clauses with random layout, often corrupted by inserted,
    deleted or replaced characters; now and then only characters."""
    if rng.random() < 0.1:
        return "".join(rng.choice(CHARS) for _ in range(rng.randint(1, 30)))
    parts = []
    for _ in range(rng.randint(1, 4)):
        parts.append(random_term(rng, rng.randint(0, 3)))
        parts.append("." + rng.choice(LAYOUT) if rng.random() < 0.9
                     else rng.choice(LAYOUT))
    text = "".join(parts)
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        i = rng.randrange(len(text) + 1)
        r = rng.random()
        if r < 0.5:
            text = text[:i] + rng.choice(CHARS) + text[i:]
        elif r < 0.75:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(CHARS) + text[i + 1:]
    return text


def allowed(text, new):
    """The one way the readers may differ: the reference lexer reads the
    digit '²' as part of a number, where the token pattern reads it as
    the reference reads '½', a numeral that is no digit."""
    return new[0] == "ParseError" and new[1:] == tuple(
        x.replace("½", "²") if type(x) is str else x
        for x in reading(text.replace("²", "½"), reference=True)[1:])


TEXTS_PER_SEED = 50


def fuzz_mismatches(seed):
    """(text, reference reading, new reading) of each text of ``seed``
    that the two readers read differently, beyond what is allowed."""
    rng = random.Random(seed)
    rows = []
    for _ in range(TEXTS_PER_SEED):
        text = random_text(rng)
        old, new = reading(text, reference=True), reading(text)
        if old != new and not ("²" in text and allowed(text, new)):
            rows.append((text, old, new))
    return rows


# about a second of seeds in tier-1; ``main`` runs any range
@pytest.mark.parametrize("seed", range(150))
def test_reader_matches_the_reference_lexer(seed):
    assert fuzz_mismatches(seed) == []


def test_fuzz_reaches_every_outcome():
    # the texts read as programs, meet each lexical error, and show '²'
    outcomes = set()
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(TEXTS_PER_SEED):
            text = random_text(rng)
            old, new = reading(text, reference=True), reading(text)
            outcomes.add("items" if type(new) is list else new[1][:14])
            outcomes.add("²" if old != new else "same")
    assert {"items", "same", "²", "unterminated q", "unexpected '.'",
            "unexpected cha"} <= outcomes


def main(argv=None):
    """Run the reader fuzz over a range of seeds:
    ``python tests/test_parser.py FIRST LAST`` (inclusive) prints each
    text that the readers read differently, and the count of seeds."""
    import argparse
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)
    bad = []
    for seed in range(args.first, args.last + 1):
        rows = fuzz_mismatches(seed)
        if rows:
            bad.append(seed)
            text, old, new = rows[0]
            print(f"seed {seed}: {text!r}\n  reference: {old}\n  new: {new}",
                  flush=True)
    print(f"{len(bad)} of {args.last - args.first + 1} seeds mismatch "
          f"({TEXTS_PER_SEED} texts each)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
