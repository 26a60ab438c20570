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
``batched`` scheduling.

A call that binds the aggregated argument, and ``tnot`` of one, are
checked per key against the same aggregate.  Every check runs its
engines checked (``invariants``): after each query the table space must
keep its invariants.  ``python tests/test_answer_subsumption.py FIRST
LAST`` (inclusive) runs every check over that range of seeds; tier-1
runs seeds 0-2."""

import random
import sys
from collections import defaultdict

import pytest

from tlpe.engine import Engine
from tlpe.negation import get_residual, truth_of
from tlpe.parser import parse_goal
from tlpe.terms import Int, Struct, term_to_str

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from invariants import CheckedEngine

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
    eng = CheckedEngine(strategy=strategy)
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


def check_kind(kind, seed, strategy):
    """A table of ``kind`` keeps the aggregate of the plain answers; under
    ``local`` a query returns only that."""
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


def _plain_values(kind, seed, strategy):
    """The source, the predicate name and the plain table's values by
    key of ``kind`` over the DAG of ``seed``."""
    directive, rules, goals = KINDS[kind]
    facts = _dag(seed)
    plain, _ = _answers(PLAIN[kind] + rules + facts, goals[0], strategy)
    return directive + rules + facts, goals[0].split("(")[0], plain


def _text(value):
    return str(value) if type(value) is int else "c({},{})".format(*value)


def check_bound(kind, seed, strategy):
    """A call that binds the aggregated argument, made first on fresh
    tables, holds of the value its table keeps and of no other value the
    plain table derives."""
    src, name, plain = _plain_values(kind, seed, strategy)
    eng = CheckedEngine(strategy=strategy, query_level_tabling=True)
    eng.consult(src)
    for (x, y), values in plain.items():
        kept = _aggregate(kind, values)
        for v in kept:
            assert truth_of(eng, f"{name}({x},{y},{_text(v)})") == "true"
        if strategy == "batched":
            # batched also returns the values that later answers replace:
            # the FOUND line on batched answer subsumption (ROADMAP item 3)
            continue
        for v in set(values) - set(kept):
            assert truth_of(eng, f"{name}({x},{y},{_text(v)})") == "false"


def check_tnot(kind, seed, strategy):
    """``tnot`` of a goal with the aggregated argument bound holds iff
    the table does not keep that value."""
    src, name, plain = _plain_values(kind, seed, strategy)
    cands = {k: set(v) | set(_aggregate(kind, v)) for k, v in plain.items()}
    src += "".join(f"cand({x},{y},{_text(v)}).\n"
                   for (x, y), vs in cands.items() for v in vs)
    src += (":- table far/3.\n"
            f"far(X,Y,V) :- cand(X,Y,V), tnot {name}(X,Y,V).\n")
    eng = CheckedEngine(strategy=strategy)
    eng.consult(src)
    answers = eng.query("far(X,Y,V).")
    assert all(a.truth == "true" for a in answers)
    want = {k: sorted(vs - set(_aggregate(kind, plain[k])))
            for k, vs in cands.items()}
    assert _by_key(a.goal for a in answers) == {k: v for k, v in want.items()
                                                if v}


CHECKS = (check_kind, check_bound, check_tnot)
SEEDS = range(3)


@pytest.mark.parametrize("strategy", ["local", "batched"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_aggregates_the_plain_answers(kind, seed, strategy):
    check_kind(kind, seed, strategy)


@pytest.mark.parametrize("strategy", ["local", "batched"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_bound_aggregate_argument_reads_the_kept_value(kind, seed, strategy):
    check_bound(kind, seed, strategy)


@pytest.mark.parametrize("strategy", ["local", "batched"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_tnot_of_a_bound_aggregate_argument(kind, seed, strategy):
    check_tnot(kind, seed, strategy)


SP = (":- table sp(_,_,min).\n" + SHORTEST
      + "e(1,2,1). e(2,3,1). e(1,3,5).\n")


AGG = ":- table agg(_,_,{}).\nagg(1,2,3). agg(1,2,4). agg(1,2,5).\n"
SOURCES = {"min": SP, "sum": AGG.format("sum"), "count": AGG.format("count")}


@pytest.mark.parametrize("kind,goal,truth", [
    ("min", "sp(1,3,5)", "false"),
    ("min", "sp(1,3,2)", "true"),
    ("sum", "agg(1,2,12)", "true"),
    ("sum", "agg(1,2,3)", "false"),
    ("count", "agg(1,2,3)", "true"),
])
def test_bound_aggregate_argument(kind, goal, truth):
    eng = Engine()
    eng.consult(SOURCES[kind])
    assert truth_of(eng, goal) == truth


@pytest.mark.parametrize("strategy", ["local", "batched"])
def test_tnot_reads_the_kept_value(strategy):
    eng = Engine(strategy=strategy)
    eng.consult(SP + ":- table far/1.\nv(2). v(3).\n"
                "far(Y) :- v(Y), tnot sp(1,Y,5).\n")
    assert truth_of(eng, "tnot sp(1,3,5)") == "true"
    assert sorted(term_to_str(a.goal) for a in eng.query("far(Y).")) == [
        "far(2)", "far(3)"]


def test_residual_of_a_bound_aggregate_argument():
    eng = Engine()
    eng.consult(SP)
    eng.query("sp(1,3,C).")
    assert [(term_to_str(h), b) for h, b in get_residual(eng, "sp(1,3,2).")
            ] == [("sp(1,3,2)", [])]
    assert get_residual(eng, "sp(1,3,5).") == []


def test_abolish_call_of_a_bound_aggregate_argument():
    eng = Engine()
    eng.consult(SP)
    eng.query("sp(1,3,C).")
    eng.abolish_call("sp(1,3,5).")
    assert eng.space.lookup_variant(parse_goal("sp(1,3,C).").term) is None
    assert eng.space.lookup_variant(parse_goal("sp(1,Y,C).").term) is not None


def main(argv=None):
    """Run the kind, bound-argument and tnot checks of every kind under
    both strategies over a range of seeds:
    ``python tests/test_answer_subsumption.py FIRST LAST`` (inclusive)
    prints each failing check and the count of failing seeds."""
    import argparse
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)
    bad = set()
    for seed in range(args.first, args.last + 1):
        for kind in sorted(KINDS):
            for strategy in ("local", "batched"):
                for check in CHECKS:
                    try:
                        check(kind, seed, strategy)
                    except AssertionError as exc:
                        bad.add(seed)
                        print(f"seed {seed}: {check.__name__} {kind} "
                              f"{strategy} fails: {exc}", flush=True)
    print(f"{len(bad)} of {args.last - args.first + 1} seeds fail")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
