"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive: breadth-first closures, a
textbook alternating-fixpoint computation, heap Dijkstra, a lexer that
walks the text one character at a time.  None of it shares code with the
engine, apart from the lexer raising its `ParseError`.
"""

import heapq
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from tlpe.errors import ParseError

Atom = str
Rule = Tuple[Atom, Tuple[Atom, ...], Tuple[Atom, ...]]   # head, pos, neg


# ----------------------------------------------------------------------
# graphs

def bfs_reachable(edges: Iterable[Tuple[int, int]], source: int) -> Set[int]:
    """Vertices reachable from source by a path of >= 1 edge."""
    succ: Dict[int, List[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    seen: Set[int] = set()
    frontier = list(succ.get(source, []))
    while frontier:
        v = frontier.pop()
        if v in seen:
            continue
        seen.add(v)
        frontier.extend(succ.get(v, []))
    return seen


def dijkstra(edges: Iterable[Tuple[int, int, int]],
             source: int) -> Dict[int, int]:
    """Least path cost from source to every reachable vertex (>= 1 edge)."""
    succ: Dict[int, List[Tuple[int, int]]] = {}
    for a, b, w in edges:
        succ.setdefault(a, []).append((b, w))
    dist: Dict[int, int] = {}
    heap = [(w, b) for b, w in succ.get(source, [])]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for b, w in succ.get(v, []):
            if b not in dist:
                heapq.heappush(heap, (d + w, b))
    return dist


def random_digraph(rng: random.Random, vertices: int,
                   edges: int) -> List[Tuple[int, int]]:
    """A connected-ish cyclic digraph: a Hamiltonian cycle plus chords."""
    out = [(i, i % vertices + 1) for i in range(1, vertices + 1)]
    have = set(out)
    while len(out) < edges:
        e = (rng.randint(1, vertices), rng.randint(1, vertices))
        if e[0] != e[1] and e not in have:
            have.add(e)
            out.append(e)
    return out


# ----------------------------------------------------------------------
# elementary-net reachability

def net_successors(conf: FrozenSet[str],
                   trans: Sequence[Tuple[FrozenSet[str], FrozenSet[str]]]
                   ) -> List[FrozenSet[str]]:
    out = []
    for tin, tout in trans:
        rest = conf - tin
        if tin <= conf and not (tout & rest):
            out.append(rest | tout)
    return out


def net_reachable(initial: Iterable[str],
                  trans: Sequence[Tuple[FrozenSet[str], FrozenSet[str]]]
                  ) -> Set[FrozenSet[str]]:
    """Configurations reachable by firing >= 1 transition."""
    seen: Set[FrozenSet[str]] = set()
    frontier = net_successors(frozenset(initial), trans)
    while frontier:
        c = frontier.pop()
        if c in seen:
            continue
        seen.add(c)
        frontier.extend(net_successors(c, trans))
    return seen


# ----------------------------------------------------------------------
# well-founded models of ground normal programs

def _least_model(rules: Sequence[Rule], assume_false: Set[Atom]) -> Set[Atom]:
    """Least model of the reduct w.r.t. the atoms assumed false."""
    true: Set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for head, pos, neg in rules:
            if head in true:
                continue
            if all(p in true for p in pos) and \
               all(n in assume_false for n in neg):
                true.add(head)
                changed = True
    return true


def wfs_model(rules: Sequence[Rule],
              atoms: Iterable[Atom] = ()) -> Dict[Atom, str]:
    """Three-valued well-founded model by alternating fixpoint.

    Returns {atom: "true"|"undefined"|"false"} over every atom that
    appears in the rules plus any extras passed in."""
    universe: Set[Atom] = set(atoms)
    for head, pos, neg in rules:
        universe.add(head)
        universe.update(pos)
        universe.update(neg)
    true: Set[Atom] = set()
    possible: Set[Atom] = set(universe)
    while True:
        new_true = _least_model(rules, universe - possible)
        new_possible = _least_model(rules, universe - new_true)
        if new_true == true and new_possible == possible:
            break
        true, possible = new_true, new_possible
    out = {}
    for a in universe:
        if a in true:
            out[a] = "true"
        elif a in possible:
            out[a] = "undefined"
        else:
            out[a] = "false"
    return out


def random_ground_program(rng: random.Random, n_atoms: int,
                          n_rules: int) -> List[Rule]:
    """Random ground normal program over p(i)/q(i)/r(i) style atoms."""
    preds = ("p", "q", "r")
    per = max(1, n_atoms // len(preds))
    atoms = [f"{p}({i})" for p in preds for i in range(per)][:n_atoms]
    rules: List[Rule] = []
    for _ in range(n_rules):
        head = rng.choice(atoms)
        pos = tuple(rng.choice(atoms)
                    for _ in range(rng.randint(0, 2)))
        neg = tuple(rng.choice(atoms)
                    for _ in range(rng.randint(0, 2)))
        rules.append((head, pos, neg))
    return rules


def program_text(rules: Sequence[Rule]) -> str:
    """Render ground rules as engine source, tabling every predicate."""
    preds = set()
    for head, pos, neg in rules:
        for a in (head,) + pos + neg:
            preds.add(a.split("(", 1)[0])
    lines = [f":- table {p}/1." for p in sorted(preds)]
    for head, pos, neg in rules:
        body = list(pos) + [f"tnot({a})" for a in neg]
        lines.append(f"{head} :- {', '.join(body)}." if body
                     else f"{head}.")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the reader's lexer as it was before its token pattern: a character
# loop that tracks line and column per character, kept as the reference
# for `tlpe.parser.tokenize`.  Its one known fault: it reads a digit
# that is not decimal ('²') as part of a number, where int() raises a
# bare ValueError on it, or, in the fifth decimal place, it rounds up.

_SYMBOL_CHARS = set("+-*/\\^<>=~:?@#&")


@dataclass
class Token:
    kind: str          # atom var int end punct eof
    value: object
    line: int
    col: int
    paren: bool = False  # '(' immediately follows with no layout


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

