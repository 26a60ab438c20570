"""Answer subsumption of every declared kind against the same rules tabled
without it, aggregated here in Python.

The facts are a random weighted DAG, so the plain tables are finite.  A
path's value is ``c(Hops, Cost)``: a ``lattice`` join takes the larger
of each component, from the identity ``c(0,0)``; a ``po`` table keeps
the values no other value is componentwise above (both components
larger is better).  Both kinds are monotone under extending a path by
an edge, so the recursive tables reach the aggregate of all paths, as
do ``min`` and ``max`` of a path's cost.  ``sum`` and ``count`` read a plain tabled ``path/3`` and count each
distinct derived tuple once.  Each kind runs under ``local`` and
``batched`` scheduling."""

import random
from collections import defaultdict

import pytest

from tlpe.engine import Engine
from tlpe.parser import parse_goal
from tlpe.terms import Int, Struct

PAIR_PATHS = """
pp(X,Y,c(1,C)) :- e(X,Y,C).
pp(X,Y,c(H,C)) :- pp(X,Z,c(H1,C1)), e(Z,Y,C2), H is H1 + 1, C is C1 + C2.
j(c(A1,B1), c(A2,B2), c(A,B)) :- A is max(A1,A2), B is max(B1,B2).
le(c(A1,B1), c(A2,B2)) :- A1 =< A2, B1 =< B2.
"""

SHORTEST = """
sp(X,Y,C) :- e(X,Y,C).
sp(X,Y,C) :- sp(X,Z,C1), e(Z,Y,C2), C is C1 + C2.
"""

COST_PATHS = """
:- table path/3.
path(X,Y,C) :- e(X,Y,C).
path(X,Y,C) :- path(X,Z,C1), e(Z,Y,C2), C is C1 + C2.
agg(X,Y,C) :- path(X,Y,C).
"""

# kind -> (table directive, rules, goals)
KINDS = {
    "lattice": (":- table pp(_,_,j/3-c(0,0)).", PAIR_PATHS,
                ["pp(X,Y,V).", "pp(1,Y,V)."]),
    "po": (":- table pp(_,_,le/2).", PAIR_PATHS,
           ["pp(X,Y,V).", "pp(1,Y,V)."]),
    "min": (":- table sp(_,_,min).", SHORTEST, ["sp(X,Y,C).", "sp(1,Y,C)."]),
    "max": (":- table sp(_,_,max).", SHORTEST, ["sp(X,Y,C).", "sp(1,Y,C)."]),
    "sum": (":- table agg(_,_,sum).", COST_PATHS,
            ["agg(X,Y,C).", "agg(1,Y,C)."]),
    "count": (":- table agg(_,_,count).", COST_PATHS,
              ["agg(X,Y,C).", "agg(1,Y,C)."]),
}
PLAIN = {"lattice": ":- table pp/3.", "po": ":- table pp/3.",
         "min": ":- table sp/3.", "max": ":- table sp/3.",
         "sum": ":- table agg/3.", "count": ":- table agg/3."}


def _dag(seed, vertices=7, edges=13):
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(1, vertices + 1)
             for b in range(a + 1, vertices + 1)]
    chosen = rng.sample(pairs, edges)
    return "".join(f"e({a},{b},{rng.randint(1, 5)}).\n"
                   for a, b in sorted(chosen))


def _value(t):
    if type(t) is Int:
        return t.value
    assert type(t) is Struct and t.name == "c"
    return tuple(a.value for a in t.args)


def _by_key(terms):
    """``{(x, y): [values]}`` of answer terms ``p(x, y, value)``."""
    out = defaultdict(list)
    for t in terms:
        x, y, v = t.args
        out[x.value, y.value].append(_value(v))
    return {k: sorted(v) for k, v in out.items()}


def _answers(src, goal, strategy):
    """The answers a query of ``goal`` returns, all true, and the live
    answers its table keeps afterwards, each by key."""
    eng = Engine(strategy=strategy)
    eng.consult(src)
    answers = eng.query(goal)
    assert {a.truth for a in answers} == {"true"}
    table = eng.space.lookup_variant(parse_goal(goal).term)
    return (_by_key(a.goal for a in answers),
            _by_key(a.term for a in table.answers if not a.deleted))


def _aggregate(kind, values):
    """What a table of ``kind`` keeps of the distinct values of a key."""
    values = set(values)
    if kind == "sum":
        return [sum(values)]
    if kind == "count":
        return [len(values)]
    if kind in ("min", "max"):
        return [min(values) if kind == "min" else max(values)]
    if kind == "lattice":
        hops, cost = 0, 0
        for h, c in values:
            hops, cost = max(hops, h), max(cost, c)
        return [(hops, cost)]
    return sorted(v for v in values
                  if not any(w != v and v[0] <= w[0] and v[1] <= w[1]
                             for w in values))


@pytest.mark.parametrize("strategy", ["local", "batched"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_aggregates_the_plain_answers(kind, seed, strategy):
    directive, rules, goals = KINDS[kind]
    facts = _dag(seed)
    for goal in goals:
        plain, _ = _answers(PLAIN[kind] + rules + facts, goal, strategy)
        returned, kept = _answers(directive + rules + facts, goal, strategy)
        want = {k: _aggregate(kind, v) for k, v in plain.items()}
        assert plain and kept == want, goal
        if strategy == "local":
            # the table completes before its answers reach the query
            assert returned == want, goal
        else:
            # batched returns answers as they are derived, so the query
            # also sees the ones that later answers replaced
            assert returned.keys() == want.keys(), goal
            assert all(set(want[k]) <= set(v) for k, v in returned.items())
