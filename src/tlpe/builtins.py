"""Builtin predicates: the one registry of their handlers.

``BUILTINS`` maps name/arity to a handler ``(engine, cont, goal, off)
-> bool``: ``goal`` is the call as written, its variables offset by
``off`` and bound in ``cont.frame``.  Every builtin succeeds at most
once.  A handler that succeeds binds what the call binds into
``cont.frame`` (findall also moves ``cont.nv`` past the fresh variables
of its list) and returns True; the engine then runs the next goal of the
same state.  A handler that fails returns False and leaves the state to
be dropped.  Arithmetic reads the frame as it evaluates; the other
handlers instantiate their arguments.  The clause store reads the keys
(no program may define a builtin, and builtins other than findall/3 add
no call-graph edges); the engine dispatches calls through them.
"""

import operator
from typing import Callable, Dict, List, Optional, Tuple

from .errors import EvalError
from .terms import (NIL, CyclicTermError, Int, Struct, Term, Var, unify,
                    canonicalize, compare, instantiate, is_callable,
                    list_parts, make_list, order_key, rename, term_to_str)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def _div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("zero_divisor", "division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("zero_divisor", "division by zero")
    return a % b


# name/arity -> the function of the argument values
ARITH = {("+", 2): operator.add, ("-", 2): operator.sub,
         ("*", 2): operator.mul, ("//", 2): _div, ("/", 2): _div,
         ("mod", 2): _mod, ("min", 2): min, ("max", 2): max,
         ("-", 1): operator.neg, ("+", 1): operator.pos, ("abs", 1): abs}


def eval_arith(t: Term, frame, off: int = 0, path=frozenset()) -> int:
    """The value of ``t`` as written, its variables offset by ``off`` and
    read through ``frame``.  ``path`` holds the variables whose bindings
    are being evaluated: meeting one again is a cyclic term."""
    vid = None
    while type(t) is Var:
        vid = t.id + off
        t, off = frame.get(vid), 0
    tt = type(t)
    if tt is Int:
        return t.value
    if t is None:
        raise EvalError("arith_instantiation",
                        "arithmetic on an unbound variable")
    if vid is not None:
        if vid in path:
            raise CyclicTermError(f"cyclic binding through _{vid}")
        path = path | {vid}
    if tt is Struct and len(t.args) <= 2:
        # the arguments first, so that an error in one of them surfaces
        values = [eval_arith(a, frame, off, path) for a in t.args]
        op = ARITH.get((t.name, len(values)))
        if op is not None:
            return op(*values)
    raise EvalError("arith_type",
                    "not an arithmetic expression: "
                    f"{term_to_str(instantiate(t, off, frame))}")


def compile_arith(t: Term, slot: Dict[int, int]) -> Optional[Callable]:
    """``t`` as a function of a row of ground terms, each variable read
    from ``row[slot[id]]``, that computes what ``eval_arith`` does, and
    raises what it raises; None if a variable of ``t`` has no slot or
    ``t`` is not built of numbers and the functors of ``ARITH``."""
    tt = type(t)
    if tt is Int:
        v = t.value
        return lambda row: v
    if tt is Var:
        i = slot.get(t.id)
        return None if i is None else lambda row: row[i].value \
            if type(row[i]) is Int else eval_arith(row[i], {})
    op = ARITH.get((t.name, len(t.args))) if tt is Struct else None
    fs = [compile_arith(a, slot) for a in t.args] if op else [None]
    if None in fs:
        return None
    if len(fs) == 1:
        f, = fs
        return lambda row: op(f(row))
    f, g = fs
    return lambda row: op(f(row), g(row))


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def _bi_cut(engine, cont, goal, off):
    engine._cut(cont.goals[3])      # the scope of the body the ! is in
    return True


def _unify_into(engine, cont, a: Term, b: Term) -> bool:
    """Unify ``a`` and ``b`` into the frame of ``cont``, if they unify."""
    env = unify(a, b, occurs_check=engine.occurs_check)
    if env is None:
        return False
    cont.frame.update(env)
    return True


def _bi_unify(engine, cont, goal, off):
    return _unify_into(engine, cont, *instantiate(goal, off, cont.frame).args)


def _bi_not_unify(engine, cont, goal, off):
    a, b = instantiate(goal, off, cont.frame).args
    return unify(a, b, occurs_check=engine.occurs_check) is None


def _order(test):
    def run(engine, cont, goal, off):
        a, b = instantiate(goal, off, cont.frame).args
        return test(compare(a, b))
    return run


def _bi_is(engine, cont, goal, off):
    frame = cont.frame
    val = Int(eval_arith(goal.args[1], frame, off))
    x = goal.args[0]
    if type(x) is Var and x.id + off not in frame:
        frame[x.id + off] = val     # a free variable: bind it in place
        return True
    return _unify_into(engine, cont, instantiate(x, off, frame), val)


def _cmp(op):
    def run(engine, cont, goal, off):
        return op(eval_arith(goal.args[0], cont.frame, off),
                  eval_arith(goal.args[1], cont.frame, off))
    return run


def _bi_findall(engine, cont, goal, off):
    template, sub, out = instantiate(goal, off, cont.frame).args
    if type(sub) is Var or not is_callable(sub):
        raise EvalError("instantiation", "findall/3 goal is not callable")
    results = engine._sub_eval(engine._owner_of(cont), template, sub,
                               cont.nv)
    items = []
    nv = cont.nv
    for sol in results:
        csol, n = canonicalize(sol)
        items.append(rename(csol, nv))
        nv += n
    cont.nv = nv
    return _unify_into(engine, cont, out, make_list(items))


def _proper_list(t: Term, what: str) -> List[Term]:
    elems, tail = list_parts(t)
    if type(tail) is Var:
        raise EvalError("instantiation", f"{what}: open-ended list")
    if tail is not NIL:
        raise EvalError("type_error", f"{what}: not a proper list")
    return elems


def _bi_sort(engine, cont, goal, off):
    goal = instantiate(goal, off, cont.frame)
    items = _proper_list(goal.args[0], "sort/2")
    keyed = {order_key(x): x for x in items}     # equal terms, one key
    return _unify_into(engine, cont, goal.args[1],
                       make_list([keyed[k] for k in sorted(keyed)]))


def _flatten_into(t: Term, out: List[Term]) -> None:
    for e in _proper_list(t, "flatten/2"):
        if e is NIL or type(e) is Struct and e.name == "." and len(e.args) == 2:
            _flatten_into(e, out)
        else:
            out.append(e)


def _bi_flatten(engine, cont, goal, off):
    goal = instantiate(goal, off, cont.frame)
    flat: List[Term] = []
    _flatten_into(goal.args[0], flat)
    return _unify_into(engine, cont, goal.args[1], make_list(flat))


def _bi_ord_subset(engine, cont, goal, off):
    goal = instantiate(goal, off, cont.frame)
    sub = _proper_list(goal.args[0], "ord_subset/2")
    sup = _proper_list(goal.args[1], "ord_subset/2")
    i = 0
    for x in sub:
        while i < len(sup) and compare(sup[i], x) < 0:
            i += 1
        if i >= len(sup) or compare(sup[i], x) != 0:
            return False
        i += 1
    return True


def _bi_ord_disjoint(engine, cont, goal, off):
    goal = instantiate(goal, off, cont.frame)
    a = _proper_list(goal.args[0], "ord_disjoint/2")
    b = _proper_list(goal.args[1], "ord_disjoint/2")
    i = j = 0
    while i < len(a) and j < len(b):
        c = compare(a[i], b[j])
        if c == 0:
            return False
        if c < 0:
            i += 1
        else:
            j += 1
    return True


def _bi_ord_subtract(engine, cont, goal, off):
    goal = instantiate(goal, off, cont.frame)
    a = _proper_list(goal.args[0], "ord_subtract/3")
    b = _proper_list(goal.args[1], "ord_subtract/3")
    out: List[Term] = []
    j = 0
    for x in a:
        while j < len(b) and compare(b[j], x) < 0:
            j += 1
        if j < len(b) and compare(b[j], x) == 0:
            continue
        out.append(x)
    return _unify_into(engine, cont, goal.args[2], make_list(out))


BUILTINS: Dict[Tuple[str, int], Callable] = {
    ("true", 0): lambda engine, cont, goal, off: True,
    ("fail", 0): lambda engine, cont, goal, off: False,
    ("!", 0): _bi_cut,
    ("=", 2): _bi_unify,
    ("\\=", 2): _bi_not_unify,
    ("==", 2): _order(lambda c: c == 0),
    ("\\==", 2): _order(lambda c: c != 0),
    ("is", 2): _bi_is,
    ("<", 2): _cmp(lambda a, b: a < b),
    (">", 2): _cmp(lambda a, b: a > b),
    ("=<", 2): _cmp(lambda a, b: a <= b),
    (">=", 2): _cmp(lambda a, b: a >= b),
    ("=:=", 2): _cmp(lambda a, b: a == b),
    ("=\\=", 2): _cmp(lambda a, b: a != b),
    ("findall", 3): _bi_findall,
    ("sort", 2): _bi_sort,
    ("flatten", 2): _bi_flatten,
    ("ord_subset", 2): _bi_ord_subset,
    ("ord_disjoint", 2): _bi_ord_disjoint,
    ("ord_subtract", 3): _bi_ord_subtract,
}

# Every builtin whose outcome depends on how bound its arguments are must
# be listed here.  A predicate that reaches one is tabled by variant even
# under call subsumption (``Program._variant_above``): the instances of a
# general call's answers need not be the answers of a specific call.
BINDING_READERS = {("==", 2), ("\\==", 2), ("\\=", 2), ("findall", 3),
                   ("sort", 2), ("flatten", 2), ("ord_subset", 2),
                   ("ord_disjoint", 2), ("ord_subtract", 3)}
