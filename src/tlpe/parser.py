"""Reader for the canonical program syntax.

Hand-written lexer plus a precedence-climbing term parser.  The operator
table is fixed (not user-extensible): rule/directive neck, conjunction,
`tnot`, `as`, arithmetic and comparison operators, and `/` so that
predicate indicators like p/2 read as ordinary terms.  Everything else is
functional notation.  Errors carry line and column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import ParseError
from .terms import Atom, Int, Struct, Term, Var

_SYMBOL_CHARS = set("+-*/\\^<>=~:?@#&")

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


@dataclass
class Token:
    kind: str          # atom var int end punct eof
    value: object
    line: int
    col: int
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


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    i, n = 0, len(text)
    line, col = 1, 1

    def bump(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            bump(1)
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                bump(1)
            continue
        ln, cl = line, col
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                # decimal literal: scaled integer, 4 declared decimal places
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                whole = int(text[i:j])
                frac = text[j + 1:k]
                scaled = whole * 10000 + _scale_frac(frac)
                bump(k - i)
                toks.append(Token("int", scaled, ln, cl))
            else:
                v = int(text[i:j])
                bump(j - i)
                toks.append(Token("int", v, ln, cl))
            continue
        if c == "_" or c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            bump(j - i)
            if name[0] == "_" or name[0].isupper():
                toks.append(Token("var", name, ln, cl))
            else:
                toks.append(Token("atom", name, ln, cl,
                                  paren=i < n and text[i] == "("))
            continue
        if c == "'":
            j = i + 1
            buf = []
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    buf.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    j += 2
                    continue
                if text[j] == "'":
                    break
                buf.append(text[j])
                j += 1
            if j >= n:
                raise ParseError("unterminated quoted atom", ln, cl)
            bump(j + 1 - i)
            toks.append(Token("atom", "".join(buf), ln, cl,
                              paren=i < n and text[i] == "("))
            continue
        if c == ".":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == "" or nxt in " \t\r\n%":
                bump(1)
                toks.append(Token("end", ".", ln, cl))
                continue
            raise ParseError("unexpected '.'", ln, cl)
        if c in "()[]|,":
            bump(1)
            if c == ",":
                toks.append(Token("atom", ",", ln, cl))
            else:
                toks.append(Token("punct", c, ln, cl))
            continue
        if c in "!;":
            bump(1)
            toks.append(Token("atom", c, ln, cl,
                              paren=i < n and text[i] == "("))
            continue
        if c in _SYMBOL_CHARS:
            j = i
            while j < n and text[j] in _SYMBOL_CHARS:
                j += 1
            name = text[i:j]
            bump(j - i)
            toks.append(Token("atom", name, ln, cl,
                              paren=i < n and text[i] == "("))
            continue
        raise ParseError(f"unexpected character {c!r}", ln, cl)
    toks.append(Token("eof", None, line, col))
    return toks


def _scale_frac(frac: str) -> int:
    digits = (frac + "0000")[:4]
    v = int(digits)
    if len(frac) > 4 and frac[4] >= "5":
        v += 1
    return v


class _Parser:
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.pos = 0
        self.vars: Dict[str, int] = {}
        self.names: Dict[int, str] = {}
        self.nvars = 0

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
            raise ParseError(f"expected {ch!r}", t.line, t.col)

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
                             tok.line, tok.col)
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
            raise ParseError(f"unexpected {t.value!r}", t.line, t.col)
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
        raise ParseError("unexpected end of input", t.line, t.col)

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
        while True:
            t = self.peek()
            if t.kind == "atom" and t.value == ",":
                self.next()
                elems.append(self.parse_term(999))
                continue
            break
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
                raise ParseError("expected '.' at end of clause", t.line, t.col)
            is_directive = (type(term) is Struct and term.name == ":-"
                            and len(term.args) == 1)
            if is_directive:
                term = term.args[0]
            items.append(ParsedItem(term, dict(self.names), self.nvars,
                                    start.line, start.col, is_directive))
        return items


def parse_program(text: str) -> List[ParsedItem]:
    """Parse program text into clauses and directives."""
    return _Parser(tokenize(text)).parse_items()


def parse_goal(text: str) -> ParsedItem:
    """Parse a single goal (a query body); the trailing '.' is optional."""
    toks = tokenize(text)
    p = _Parser(toks)
    term = p.parse_term(1200)
    t = p.next()
    if t.kind == "end":
        t = p.next()
    if t.kind != "eof":
        raise ParseError("trailing input after goal", t.line, t.col)
    return ParsedItem(term, dict(p.names), p.nvars, 1, 1, False)


def parse_term_text(text: str) -> Term:
    """Parse one term (tests and the REPL use this)."""
    return parse_goal(text).term
