"""First-order terms and the operations the rest of the engine is built on.

Terms are immutable: atoms, integers, variables and compounds.  Atoms
and integers are interned, one shared object per value, so they compare
and hash by identity: an atom stays shared for the life of the process,
an integer as long as anything holds it.  Variable ids are plain
integers local to whatever structure owns the term (a clause, a subgoal,
a resolution state); cross-term identity is always mediated by an
explicit substitution or by renaming.  All traversals are iterative so
that long lists and deep conjunctions never hit the interpreter's
recursion limit.

Every term knows whether it is ground.  The rebuilding traversals return
a ground subterm, and a compound whose arguments come back unchanged, as
the very object they were given.  A compound is hashed on first use.
"""

from __future__ import annotations

import threading
import weakref
from operator import is_ as _is
from typing import Dict, List, Optional, Tuple, Union

from .errors import EvalError


class CyclicTermError(Exception):
    """Raised when a substitution application would build an infinite term."""


_ATOMS: Dict[str, "Atom"] = {}
_INTS: Dict[int, "_IntRef"] = {}
_INTERN = threading.RLock()     # guards _INTS; a collection may re-enter it


class Atom:
    __slots__ = ("name",)
    ground = True

    def __new__(cls, name: str):
        atom = _ATOMS.get(name)
        if atom is None:
            atom = object.__new__(cls)
            atom.name = name
            atom = _ATOMS.setdefault(name, atom)    # one thread wins a race
        return atom

    def __reduce__(self):
        return (Atom, (self.name,))

    def __repr__(self):
        return f"Atom({self.name!r})"


class _IntRef(weakref.ref):
    """The entry of ``value`` in ``_INTS``, dropped with its ``Int``."""
    __slots__ = ("value",)

    def forget(self, ints=_INTS, lock=_INTERN):  # defaults outlive globals
        with lock:
            if ints.get(self.value) is self:
                del ints[self.value]


class Int:
    __slots__ = ("value", "__weakref__")
    ground = True

    def __new__(cls, value: int):
        value = int(value)
        ref = _INTS.get(value)
        i = None if ref is None else ref()
        if i is None:
            with _INTERN:   # again: another thread may have entered one
                ref = _INTS.get(value)
                i = None if ref is None else ref()
                if i is None:
                    i = object.__new__(cls)
                    i.value = value
                    _INTS[value] = ref = _IntRef(i, _IntRef.forget)
                    ref.value = value
        return i

    def __reduce__(self):
        return (Int, (self.value,))

    def __repr__(self):
        return f"Int({self.value})"


class Var:
    __slots__ = ("id", "_hash")
    ground = False

    def __init__(self, id: int):
        self.id = id
        self._hash = hash(("v", id))

    def __repr__(self):
        return f"Var({self.id})"

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return type(other) is Var and other.id == self.id


class Struct:
    __slots__ = ("name", "args", "ground", "_hash")

    def __init__(self, name: str, args: Tuple["Term", ...]):
        self.name = name
        self.args = args
        self._hash = None
        for a in args:
            if not a.ground:
                self.ground = False
                break
        else:
            self.ground = True

    def __repr__(self):
        return f"Struct({self.name!r}, {self.args!r})"

    def __hash__(self):
        # every unhashed compound below first, innermost first
        stack = [self] if self._hash is None else ()
        while stack:
            x = stack[-1]
            todo = [a for a in x.args if type(a) is Struct and a._hash is None]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            x._hash = hash((x.name, x.args))
        return self._hash

    def __eq__(self, other):
        """Structural equality, iterative to survive deep lists."""
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            tx = type(x)
            if tx is not type(y):
                return False
            if tx is Struct:
                if x.name != y.name or len(x.args) != len(y.args):
                    return False
                stack.extend(zip(x.args, y.args))
            elif tx is not Var or x.id != y.id:  # atoms and integers: x is not y
                return False
        return True


Term = Union[Atom, Int, Var, Struct]
Subst = Dict[int, Term]

NIL = Atom("[]")


# ---------------------------------------------------------------------------
# preorder symbol strings (the currency of tries and canonical keys)
# ---------------------------------------------------------------------------

def symbols(t: Term) -> Tuple[tuple, ...]:
    """Preorder symbol sequence: ('f',name,arity) | ('a',name) | ('i',v) | ('v',id)."""
    out: List[tuple] = []
    stack = [t]
    while stack:
        x = stack.pop()
        tx = type(x)
        if tx is Struct:
            out.append(("f", x.name, len(x.args)))
            stack.extend(reversed(x.args))
        elif tx is Atom:
            out.append(("a", x.name))
        elif tx is Int:
            out.append(("i", x.value))
        else:
            out.append(("v", x.id))
    return tuple(out)


def is_ground(t: Term) -> bool:
    return t.ground


def term_vars(t: Term) -> List[int]:
    """Variable ids in first-occurrence preorder, deduplicated."""
    seen = set()
    out: List[int] = []
    stack = [t]
    while stack:
        x = stack.pop()
        tx = type(x)
        if tx is Var:
            if x.id not in seen:
                seen.add(x.id)
                out.append(x.id)
        elif tx is Struct and not x.ground:
            stack.extend(reversed(x.args))
    return out


# ---------------------------------------------------------------------------
# rebuilding traversals: rename, canonicalize, substitution application
# ---------------------------------------------------------------------------

def _rebuilt(x: Struct, ostack: List[Term]) -> Struct:
    """Pop the rebuilt arguments of ``x``; ``x`` itself if none changed."""
    n = len(x.args)
    args = tuple(ostack[-n:])
    del ostack[-n:]
    if all(map(_is, args, x.args)):
        return x
    return Struct(x.name, args)


# The rebuilding traversals keep one stack of terms to visit; a 1-tuple
# ``(compound,)`` on it marks where that compound's arguments are done.

def _map_vars(t: Term, fn) -> Term:
    """Rebuild t with every Var leaf replaced by fn(var) (a Term)."""
    if t.ground:
        return t
    if type(t) is Var:
        return fn(t)
    for a in t.args:    # the common case first: flat arguments
        if not a.ground and type(a) is not Var:
            break
    else:
        args = tuple([a if a.ground else fn(a) for a in t.args])
        return t if all(map(_is, args, t.args)) else Struct(t.name, args)
    ostack: List[Term] = []
    stack: list = [t]
    while stack:
        x = stack.pop()
        if type(x) is tuple:
            ostack.append(_rebuilt(x[0], ostack))
        elif x.ground:
            ostack.append(x)
        elif type(x) is Var:
            ostack.append(fn(x))
        else:
            stack.append((x,))
            stack.extend(reversed(x.args))
    return ostack[0]


def rename(t: Term, offset: int) -> Term:
    """Shift every variable id by offset (renaming apart)."""
    if offset == 0:
        return t
    return _map_vars(t, lambda v: Var(v.id + offset))


def substitute(t: Term, values) -> Term:
    """t with each variable i replaced by values[i], in one pass: the
    values are not themselves substituted into."""
    return _map_vars(t, lambda v: values[v.id])


def canonicalize(t: Term) -> Tuple[Term, int]:
    """Renumber variables densely 0..n-1 in first-occurrence preorder order.

    Returns the renumbered term and the variable count.  Idempotent: a
    canonical term canonicalizes to itself.
    """
    if t.ground:
        return t, 0
    mapping: Dict[int, Var] = {}

    def fresh(v: Var) -> Var:
        w = mapping.get(v.id)
        if w is None:
            n = len(mapping)
            w = mapping[v.id] = v if v.id == n else Var(n)
        return w

    out = _map_vars(t, fresh)
    return out, len(mapping)


def canonical_key(t: Term) -> Tuple[tuple, ...]:
    """Symbol sequence of the canonicalized term; variant terms share keys."""
    return symbols(canonicalize(t)[0])


def variant_tuple(terms) -> Tuple[Tuple[Term, ...], int]:
    """``terms`` as a tuple, its variables renumbered like
    ``canonicalize``, and their count: variant tuples come out equal."""
    for t in terms:
        if not t.ground:
            wrapper, n = canonicalize(Struct("$", tuple(terms)))
            return wrapper.args, n
    return tuple(terms), 0


def instantiate(t: Term, off: int, bindings: Subst) -> Term:
    """``t`` with its variables offset by ``off``, then ``bindings``
    applied, in one pass."""
    if not off:
        return resolve(t, bindings)

    def leaf(v: Var) -> Term:
        w = bindings.get(v.id + off)
        return Var(v.id + off) if w is None else resolve(w, bindings)

    return _map_vars(t, leaf)


def walk(t: Term, bindings: Subst) -> Term:
    """Dereference a variable chain (no structural descent)."""
    while type(t) is Var:
        u = bindings.get(t.id)
        if u is None:
            return t
        t = u
    return t


def resolve(t: Term, bindings: Subst) -> Term:
    """Apply bindings exhaustively, rebuilding the term.

    Raises CyclicTermError if the bindings are cyclic (possible when the
    occurs check is off); the engine surfaces that when a term has to be
    materialized for table storage.
    """
    if not bindings or t.ground:
        return t
    if type(t) is Var:
        w = walk(t, bindings)
        if w.ground or type(w) is Var:
            return w
    elif type(t) is Struct:   # the common case first: flat arguments
        args = [a if a.ground else walk(a, bindings) for a in t.args]
        if all(a.ground or type(a) is Var for a in args):
            return t if all(map(_is, args, t.args)) \
                else Struct(t.name, tuple(args))
    ostack: List[Term] = []
    stack: list = [t]
    onpath: set = set()     # ids of the variables being expanded
    while stack:
        x = stack.pop()
        tx = type(x)
        if tx is tuple:
            ostack.append(_rebuilt(x[0], ostack))
        elif tx is int:     # the expansion of variable x is done
            onpath.discard(x)
        elif x.ground:
            ostack.append(x)
        elif tx is Struct:
            stack.append((x,))
            stack.extend(reversed(x.args))
        else:
            w = walk(x, bindings)
            if w.ground or type(w) is Var:
                ostack.append(w)
            else:
                last = x.id     # the variable bound to w; cycles run through it
                while type(bindings[last]) is Var:
                    last = bindings[last].id
                if last in onpath:
                    raise CyclicTermError(f"cyclic binding through _{last}")
                onpath.add(last)
                stack.append(last)
                stack.append(w)
    return ostack[0]


# ---------------------------------------------------------------------------
# unification / matching / variance
# ---------------------------------------------------------------------------

def _occurs(vid: int, t: Term, bindings: Subst) -> bool:
    stack = [t]
    while stack:
        x = walk(stack.pop(), bindings)
        tx = type(x)
        if tx is Var:
            if x.id == vid:
                return True
        elif tx is Struct and not x.ground:
            stack.extend(x.args)
    return False


def unify(a: Term, b: Term, bindings: Optional[Subst] = None,
          occurs_check: bool = False) -> Optional[Subst]:
    """Most general unifier of a and b over a shared variable namespace.

    Extends (a copy of) bindings and returns it, or None on failure.
    Callers are responsible for renaming apart first.
    """
    return _unify([(a, b)], dict(bindings) if bindings else {},
                  occurs_check)


def unify_all(xs, ys, occurs_check: bool = False) -> Optional[Subst]:
    """Most general unifier of each term of xs with its term of ys."""
    return _unify(list(zip(xs, ys)), {}, occurs_check)


def _unify(stack: List[tuple], env: Subst,
           occurs_check: bool) -> Optional[Subst]:
    while stack:
        x, y = stack.pop()
        x = walk(x, env)
        y = walk(y, env)
        if x is y:
            continue
        tx, ty = type(x), type(y)
        if tx is Var:
            if ty is Var and y.id == x.id:
                continue
            if occurs_check and _occurs(x.id, y, env):
                return None
            env[x.id] = y
        elif ty is Var:
            if occurs_check and _occurs(y.id, x, env):
                return None
            env[y.id] = x
        elif tx is Struct and ty is Struct and x.name == y.name \
                and len(x.args) == len(y.args):
            stack.extend(zip(x.args, y.args))
        else:   # atoms and integers unify only when x is y
            return None
    return env


def match(general: Term, specific: Term,
          bindings: Optional[Subst] = None) -> Optional[Subst]:
    """One-sided unification: bind only variables of `general`.

    Succeeds iff general subsumes specific, i.e. there is a substitution
    over general's variables alone mapping it onto specific.
    """
    env: Subst = dict(bindings) if bindings else {}
    stack = [(general, specific)]
    while stack:
        x, y = stack.pop()
        tx = type(x)
        if tx is Var:
            bound = env.get(x.id)
            if bound is None:
                env[x.id] = y
            elif bound != y:
                return None
            continue
        if tx is not Struct or type(y) is not Struct or x.name != y.name \
                or len(x.args) != len(y.args):
            if x is not y:  # an atom or an integer matches only itself
                return None
        else:   # even if x is y: its variables must still bind
            stack.extend(zip(x.args, y.args))
    return env


def subsumes(general: Term, specific: Term) -> bool:
    """True iff specific is an instance of general.

    The witness substitution binds only variables of `general`; when it is
    a variable renaming the two terms are variants.
    """
    return match(general, specific) is not None


def variant(a: Term, b: Term) -> bool:
    """True iff a and b are equal up to consistent variable renaming."""
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# standard order of terms
# ---------------------------------------------------------------------------

_KIND_RANK = {Var: 0, Int: 1, Atom: 2, Struct: 3}


def compare(a: Term, b: Term) -> int:
    """Standard order: Var < Int < Atom < Compound; ints by value, atoms by
    name, compounds by arity, then functor name, then arguments left to
    right.  Total on ground terms; variables order by id."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        rx, ry = _KIND_RANK[type(x)], _KIND_RANK[type(y)]
        if rx != ry:
            return -1 if rx < ry else 1
        if rx == 0:
            if x.id != y.id:
                return -1 if x.id < y.id else 1
        elif rx < 3:
            if x is not y:  # distinct atoms or integers differ in value
                kx, ky = (x.value, y.value) if rx == 1 else (x.name, y.name)
                return -1 if kx < ky else 1
        else:
            if len(x.args) != len(y.args):
                return -1 if len(x.args) < len(y.args) else 1
            if x.name != y.name:
                return -1 if x.name < y.name else 1
            stack.extend(reversed(list(zip(x.args, y.args))))
    return 0


_RANK = {"v": 0, "i": 1, "a": 2}     # the _KIND_RANK of a symbol's tag


def order_key(t: Term) -> tuple:
    """A tuple that sorts as ``t`` in the standard order: its preorder
    ``symbols``, each as its kind's rank and value, a compound's arity
    before its name."""
    if type(t) is Int:
        return ((1, t.value),)
    return tuple([(3, s[2], s[1]) if s[0] == "f" else (_RANK[s[0]], s[1])
                  for s in symbols(t)])


# ---------------------------------------------------------------------------
# lists
# ---------------------------------------------------------------------------

def make_list(items, tail: Term = NIL) -> Term:
    out = tail
    for x in reversed(list(items)):
        out = Struct(".", (x, out))
    return out


def list_parts(t: Term) -> Tuple[List[Term], Term]:
    """Split a ./2 chain into (elements, tail); tail is NIL for proper lists."""
    elems: List[Term] = []
    while type(t) is Struct and t.name == "." and len(t.args) == 2:
        elems.append(t.args[0])
        t = t.args[1]
    return elems, t


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_SYMBOLIC = set("+-*/\\^<>=~:.?@#&$")


def _atom_str(name: str) -> str:
    """``name`` as written in a term: quoted unless it is a letter-digit
    word starting lowercase, symbol characters only, or a solo atom."""
    if name in ("[]", "!", ";", "{}") or name and (
            name[0].islower() and all(c.isalnum() or c == "_" for c in name)
            or all(c in _SYMBOLIC for c in name)):
        return name
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


def term_to_str(t: Term, var_names: Optional[Dict[int, str]] = None) -> str:
    """Canonical printing: functional notation, list sugar, minimal quoting."""
    parts: List[str] = []
    _fmt(t, var_names or {}, parts)
    return "".join(parts)


def _fmt(t: Term, names: Dict[int, str], out: List[str]) -> None:
    # Recursive on structure but lists are flattened first, so depth tracks
    # nesting rather than list length.
    tt = type(t)
    if tt is Atom:
        out.append(_atom_str(t.name))
    elif tt is Int:
        out.append(str(t.value))
    elif tt is Var:
        out.append(names.get(t.id, f"_G{t.id}"))
    else:
        if t.name == "." and len(t.args) == 2:
            elems, tail = list_parts(t)
            out.append("[")
            for i, e in enumerate(elems):
                if i:
                    out.append(",")
                _fmt(e, names, out)
            if tail is not NIL:
                out.append("|")
                _fmt(tail, names, out)
            out.append("]")
            return
        out.append(_atom_str(t.name))
        out.append("(")
        for i, a in enumerate(t.args):
            if i:
                out.append(",")
            _fmt(a, names, out)
        out.append(")")


def functor_of(t: Term) -> Tuple[str, int]:
    """(name, arity) of a callable term: an atom is a 0-ary call.  Any
    other term raises ``EvalError``, of kind ``instantiation`` for a
    variable and ``type_error`` for any other term."""
    if type(t) is Atom:
        return (t.name, 0)
    if type(t) is Struct:
        return (t.name, len(t.args))
    raise EvalError("instantiation" if type(t) is Var else "type_error",
                    f"not a callable term: {term_to_str(t)}")


def is_callable(t: Term) -> bool:
    return type(t) is Atom or type(t) is Struct
