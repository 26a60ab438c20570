"""Reader for the canonical program syntax.

One compiled token pattern, run by ``finditer``, plus a
precedence-climbing term parser.  A token keeps only its offset in the
text; the line and column of an error or of an item's start are found
where they are read, by bisecting the offsets of the text's newlines.
The operator table is fixed (not user-extensible): rule/directive neck,
conjunction, `tnot`, `as`, arithmetic and comparison operators, and `/`
so that predicate indicators like p/2 read as ordinary terms.
Everything else is functional notation.  Errors carry line and column.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import ParseError
from .terms import Atom, Int, Struct, Term, Var

# one alternative per token class; layout and comments name no group.
# ``\w`` is a character that passes ``str.isalnum`` or ``_``, ``\d`` one
# that ``int`` reads; a name that starts with neither ``_`` nor a letter
# (a numeral like '½' or '²') is refused by ``tokenize``
_TOKEN = re.compile(r"""
    [ \t\r\n]+ | %[^\n]*
  | (?P<int> \d+ (?: \.\d+ )? )
  | (?P<name> [^\W\d]\w* )
  | '(?P<quoted> (?: [^'\\] | \\. )* )'
  | (?P<end> \. ) (?= [ \t\r\n%] | \Z )
  | (?P<punct> [()\[\]|] )
  | (?P<comma> , )
  | (?P<symbol> [!;] | [-+*/\\^<>=~:?@#&]+ )
  | (?P<bad> . )
""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_NEWLINE = re.compile("\n")

# name -> (precedence, type); type in {xfx, xfy, yfx}
_INFIX = {
    ":-": (1200, "xfx"),
    ",": (1000, "xfy"),
    "as": (700, "xfx"),
    "is": (700, "xfx"),
    "=": (700, "xfx"),
    "\\=": (700, "xfx"),
    "==": (700, "xfx"),
    "\\==": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "=:=": (700, "xfx"),
    "=\\=": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "*": (400, "yfx"),
    "/": (400, "yfx"),
    "//": (400, "yfx"),
    "mod": (400, "yfx"),
}

# name -> (precedence, argument precedence)
_PREFIX = {
    ":-": (1200, 1199),
    "table": (1150, 1149),
    "dynamic": (1150, 1149),
    "use_incremental_dynamic": (1150, 1149),
    "tnot": (900, 900),
    "-": (200, 200),
}


@dataclass(slots=True)
class Token:
    kind: str          # atom var int end punct eof
    value: object
    pos: int           # offset in the text
    paren: bool = False  # '(' immediately follows with no layout


@dataclass
class ParsedItem:
    """One clause or directive read from program text."""
    term: Term
    var_names: Dict[int, str]
    nvars: int
    line: int
    col: int
    is_directive: bool = False


def _line_col(newlines: List[int], pos: int) -> Tuple[int, int]:
    """The line and column of offset ``pos``, ``newlines`` the offsets
    of the text's newlines."""
    line = bisect_left(newlines, pos)
    return line + 1, pos - (newlines[line - 1] if line else -1)


def _newlines(text: str) -> List[int]:
    return [m.start() for m in _NEWLINE.finditer(text)]


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:        # layout or a comment
            continue
        s, pos = m.group(kind), m.start()
        if kind == "int":
            whole, _, frac = s.partition(".")
            v = int(whole)
            if frac:    # a scaled integer, 4 places, rounded half up
                v = v * 10000 + int((frac + "0000")[:4]) \
                    + (len(frac) > 4 and frac[4] >= "5")
            toks.append(Token("int", v, pos))
        elif kind == "name" and (s[0] == "_" or s[0].isupper()):
            toks.append(Token("var", s, pos))
        elif kind == "bad" or kind == "name" and not s[0].isalpha():
            msg = "unterminated quoted atom" if s == "'" else \
                "unexpected '.'" if s == "." else \
                f"unexpected character {s[0]!r}"
            raise ParseError(msg, *_line_col(_newlines(text), pos))
        elif kind in ("end", "punct", "comma"):
            toks.append(Token("atom" if kind == "comma" else kind, s, pos))
        else:
            if kind == "quoted":
                s = _ESCAPE.sub(lambda e: {"n": "\n", "t": "\t"}.get(
                    e[1], e[1]), s)
            toks.append(Token("atom", s, pos, text.startswith("(", m.end())))
    toks.append(Token("eof", None, len(text)))
    return toks


class _Parser:
    def __init__(self, toks: List[Token], text: str):
        self.toks = toks
        self.newlines = _newlines(text)
        self.pos = 0
        self.vars: Dict[str, int] = {}
        self.names: Dict[int, str] = {}
        self.nvars = 0

    def where(self, t: Token) -> Tuple[int, int]:
        return _line_col(self.newlines, t.pos)

    def reset_clause(self):
        self.vars = {}
        self.names = {}
        self.nvars = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_punct(self, ch: str):
        t = self.next()
        if t.kind != "punct" or t.value != ch:
            raise ParseError(f"expected {ch!r}", *self.where(t))

    def fresh_var(self, name: Optional[str]) -> Var:
        if name is None or name == "_":
            v = Var(self.nvars)
            self.nvars += 1
            return v
        if name in self.vars:
            return Var(self.vars[name])
        vid = self.nvars
        self.nvars += 1
        self.vars[name] = vid
        self.names[vid] = name
        return Var(vid)

    # -- expression parsing ------------------------------------------------

    def parse_term(self, max_prec: int) -> Term:
        left = self.parse_primary(max_prec)
        while True:
            t = self.peek()
            if t.kind != "atom" or t.value not in _INFIX:
                return left
            prec, typ = _INFIX[t.value]
            if prec > max_prec:
                return left
            self.next()
            args = [left, self.parse_term(prec - 1)]
            # a , chain (the one xfy operator) is read in a loop, folded right
            while typ == "xfy" and self.peek().value == t.value:
                self.next()
                args.append(self.parse_term(prec - 1))
            left = args.pop()
            while args:
                left = self._mk_op(t, (args.pop(), left))

    def _mk_op(self, tok: Token, args: Tuple[Term, ...]) -> Term:
        if tok.value == "tnot" and len(args) == 1 and \
                type(args[0]) is Struct and args[0].name == "tnot":
            raise ParseError("double negation tnot(tnot(..)) is not allowed",
                             *self.where(tok))
        return Struct(tok.value, args)

    def parse_primary(self, max_prec: int) -> Term:
        t = self.next()
        if t.kind == "int":
            return Int(t.value)
        if t.kind == "var":
            return self.fresh_var(None if t.value == "_" else t.value)
        if t.kind == "punct":
            if t.value == "(":
                inner = self.parse_term(1200)
                self.expect_punct(")")
                return inner
            if t.value == "[":
                return self.parse_list()
            raise ParseError(f"unexpected {t.value!r}", *self.where(t))
        if t.kind == "atom":
            name = t.value
            if t.paren:
                self.expect_punct("(")
                args = [self.parse_term(999)]
                while self.peek().kind == "atom" and self.peek().value == ",":
                    self.next()
                    args.append(self.parse_term(999))
                self.expect_punct(")")
                return self._mk_op(t, tuple(args)) if name == "tnot" \
                    else Struct(name, tuple(args))
            if name in _PREFIX:
                prec, argp = _PREFIX[name]
                if prec <= max_prec and self._starts_term():
                    arg = self.parse_term(argp)
                    if name == "-" and type(arg) is Int:
                        return Int(-arg.value)
                    return self._mk_op(t, (arg,))
            return Atom(name)
        raise ParseError("unexpected end of input", *self.where(t))

    def _starts_term(self) -> bool:
        t = self.peek()
        if t.kind in ("int", "var"):
            return True
        if t.kind == "punct" and t.value in "([":
            return True
        if t.kind == "atom" and t.value != ",":
            return True
        return False

    def parse_list(self) -> Term:
        t = self.peek()
        if t.kind == "punct" and t.value == "]":
            self.next()
            return Atom("[]")
        elems = [self.parse_term(999)]
        while self.peek().kind == "atom" and self.peek().value == ",":
            self.next()
            elems.append(self.parse_term(999))
        tail: Term = Atom("[]")
        t = self.peek()
        if t.kind == "punct" and t.value == "|":
            self.next()
            tail = self.parse_term(999)
        self.expect_punct("]")
        for e in reversed(elems):
            tail = Struct(".", (e, tail))
        return tail

    # -- program structure -------------------------------------------------

    def parse_items(self) -> List[ParsedItem]:
        items: List[ParsedItem] = []
        while self.peek().kind != "eof":
            self.reset_clause()
            start = self.peek()
            term = self.parse_term(1200)
            t = self.next()
            if t.kind != "end":
                raise ParseError("expected '.' at end of clause",
                                 *self.where(t))
            is_directive = (type(term) is Struct and term.name == ":-"
                            and len(term.args) == 1)
            if is_directive:
                term = term.args[0]
            items.append(ParsedItem(term, dict(self.names), self.nvars,
                                    *self.where(start), is_directive))
        return items


def parse_program(text: str) -> List[ParsedItem]:
    """Parse program text into clauses and directives."""
    return _Parser(tokenize(text), text).parse_items()


def parse_goal(text: str) -> ParsedItem:
    """Parse a single goal (a query body); the trailing '.' is optional."""
    p = _Parser(tokenize(text), text)
    term = p.parse_term(1200)
    t = p.next()
    if t.kind == "end":
        t = p.next()
    if t.kind != "eof":
        raise ParseError("trailing input after goal", *p.where(t))
    return ParsedItem(term, dict(p.names), p.nvars, 1, 1, False)


def parse_term_text(text: str) -> Term:
    """Parse one term (tests and the REPL use this)."""
    return parse_goal(text).term
