"""Clause-entry plans: a tabled clause whose head a ground call binds,
and whose body calls ground facts, then ``is/2`` goals, then at most one
ground ``tnot``, runs as one join over the facts (a ``ReturnPlan`` at
clause entry, ``Engine._resolve_clause``).  It must answer as the
general path does: the same answers in order, truths, residuals, node
count K, counters and trace lines.  The check runs random ``win/1``
games, whose negative loops delay and leave vertices undefined, under
both strategies, both call-tabling modes and query-level tabling on and
off, each engine against one whose plan compiler returns None.

``python tests/test_entry_plans.py FIRST LAST`` runs the check over a
range of seeds (inclusive), prints each seed that differs with its
first difference, and the count.
"""

import contextlib
import random
import sys
from unittest import mock

import pytest

from tlpe import engine as engine_module
from tlpe.engine import Engine
from tlpe.errors import EvalError
from tlpe.negation import get_residual
from tlpe.program import Program
from tlpe.terms import term_to_str

OPTIONS = [{"strategy": s, "default_tabling": t, "query_level_tabling": q}
           for s in ("local", "batched") for t in ("variant", "subsumptive")
           for q in (False, True)]

# each takes the vertex count; every ``win/1`` clause but the ``trap``
# one has a plan
RULES = (
    # the plain game, with a second kind of move and a clause that takes
    # the general path
    ":- table win/1.\nwin(X) :- move(X,Y), tnot win(Y).\n"
    "win(X) :- trap(X).\ntrap(X) :- move(X,X), end(X).\n"
    "win(X) :- jump(X,Y), tnot win(Y).\n",
    # an is/2 tail picks the vertex the tnot reads
    ":- table win/1.\nwin(X) :- move(X,Y), Z is (Y * 2 + 1) mod {n}, "
    "tnot win(Z).\n",
    # a tnot of a lower table, complete once an earlier call has read
    # it, with a constant argument; ``safe/2`` has no plan (its head
    # holds a constant), ``goal/1`` one without a tnot
    ":- table win/1, safe/2, goal/1.\nwin(X) :- move(X,Y), tnot safe(Y,a).\n"
    "safe(X,a) :- move(X,Y), tnot goal(Y).\ngoal(X) :- end(X).\n",
    # the plain game over facts kept in a trie, read without ``direct``
    ":- index(move/2, trie).\n:- table win/1.\n"
    "win(X) :- move(X,Y), tnot win(Y).\n",
)


def entry_program(seed):
    """A random game over 3-8 vertices, its rules one of ``RULES``, and
    its queries: each vertex in a random order, with one open query."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    moves = [(x, y) for x in range(n) for y in range(n)
             if rng.random() < 0.3] or [(0, 1)]     # plans need facts
    jumps = [(x, rng.randrange(n)) for x in range(n) if rng.random() < 0.3]
    ends = [x for x in range(n) if rng.random() < 0.4]
    src = RULES[seed % len(RULES)].format(n=n) \
        + "".join(f"move({x},{y}). " for x, y in moves) \
        + "".join(f"jump({x},{y}). " for x, y in jumps) \
        + "".join(f"end({x}). " for x in ends) + "\n"
    queries = [f"win({x})." for x in rng.sample(range(n), n)]
    queries.insert(rng.randrange(n + 1), "win(X).")
    return src, queries


def residual(eng, goal):
    """The residual program of ``goal``'s table, or why there is none."""
    try:
        return [(term_to_str(h), [term_to_str(b) for b in body])
                for h, body in get_residual(eng, goal)]
    except EvalError as exc:
        return exc.kind


def observed(src, queries, options, plans=True):
    """What a fresh engine's run of ``queries`` shows: answers in order
    with truths and residuals, trace lines, K and the counters; and how
    many clauses got an entry plan.  Without ``plans`` the plan compiler
    returns None."""
    eng = Engine(**options)
    eng.consult(src)
    eng.trace_enabled = True
    off = mock.patch.object(engine_module, "_return_plan",
                            lambda *args: None)
    out = []
    with contextlib.nullcontext() if plans else off:
        for q in queries:
            try:
                got = [(term_to_str(a.goal), a.truth) for a in eng.query(q)]
            except EvalError as exc:
                got = (exc.kind, str(exc))
            out.append((q, got, residual(eng, q)))
    made = sum(bool(cl.plan) for pi in eng.program.preds.values()
               for cl in pi.clauses)
    return (out, eng.trace_lines, eng.K, eng.counters), made


def entry_mismatches(seed):
    """(options, what differs, with plans, without) of each option set
    whose run of the program of ``seed`` differs between plans and none,
    or makes no plan."""
    src, queries = entry_program(seed)
    rows = []
    for options in OPTIONS:
        fused, made = observed(src, queries, options)
        general, unmade = observed(src, queries, options, plans=False)
        if not made or unmade:
            rows.append((options, "entry plans made", made, unmade))
            continue
        for name, a, b in zip(("answers", "trace", "K", "counters"),
                              fused, general):
            if a != b:
                rows.append((options, name, a, b))
                break
    return rows


# in seed 4 the delays order the waiters of two planned clauses by K;
# in 135 a waiter follows a complete table's tnot of the same body
@pytest.mark.parametrize("seed", [*range(10), 135])
def test_plans_answer_as_the_general_path(seed):
    assert entry_mismatches(seed) == []


def spy_lookups(monkeypatch):
    """The predicate keys of the ``Program.lookup_clauses`` calls made
    from now on."""
    seen = []
    real = Program.lookup_clauses

    def lookup_clauses(self, goal, *args):
        seen.append(term_to_str(goal).split("(")[0])
        return real(self, goal, *args)

    monkeypatch.setattr(Program, "lookup_clauses", lookup_clauses)
    return seen


WIN = ":- table win/1.\nwin(X) :- move(X,Y), tnot win(Y).\n" \
    "move(1,2). move(2,3). move(3,1). move(3,4). move(5,5).\n"


def fresh(src, goal, **options):
    eng = Engine(**options)
    eng.consult(src)
    return [(term_to_str(a.goal), a.truth) for a in eng.query(goal)]


@pytest.mark.parametrize("strategy", ["local", "batched"])
def test_a_query_retrieves_no_move_clause(strategy, monkeypatch):
    eng = Engine(strategy=strategy, query_level_tabling=True)
    eng.consult(WIN)
    seen = spy_lookups(monkeypatch)
    assert [a.truth for a in eng.query("win(1).")] == ["true"]
    assert "win" in seen and "move" not in seen


@pytest.mark.parametrize("change,planned", [
    ("move(X,Y) :- hop(X,Y).\nhop(4,6).", False),
    (":- dynamic move/2.", False),
    ("move(X,6).", False),
    # a new index, which alone holds the new fact, changes where the
    # plan reads the facts, not the plan
    (":- index(move/2, 2).\nmove(4,6).", True),
], ids=["rule", "dynamic", "non_ground_fact", "index"])
@pytest.mark.parametrize("strategy", ["local", "batched"])
def test_a_consult_between_queries_takes_effect(change, planned, strategy,
                                                monkeypatch):
    options = {"strategy": strategy, "query_level_tabling": True}
    eng = Engine(**options)
    eng.consult(WIN)
    want = fresh(WIN, "win(3).", **options)
    assert [(term_to_str(a.goal), a.truth)
            for a in eng.query("win(3).")] == want
    want = fresh(WIN + change, "win(3).", **options)
    eng.consult(change)
    seen = spy_lookups(monkeypatch)
    got = [(term_to_str(a.goal), a.truth) for a in eng.query("win(3).")]
    assert got == want and ("move" not in seen) == planned


@pytest.mark.parametrize("query_level", [True, False])
@pytest.mark.parametrize("strategy", ["local", "batched"])
def test_a_plan_is_made_once_the_facts_are_defined(strategy, query_level):
    # a clause first resolved while ``move/2`` is undefined is left
    # without a plan (None, not False), so it gets one once ``move/2``
    # is consulted
    options = {"strategy": strategy, "query_level_tabling": query_level}
    rules, facts = WIN.split("move(1,2)")
    facts = "move(1,2)" + facts
    eng = Engine(**options)
    eng.consult(rules)
    assert eng.query("win(1).") == []
    [clause] = eng.program.preds[("win", 1)].clauses
    assert clause.plan is None
    eng.consult(facts)
    got = [(term_to_str(a.goal), a.truth) for a in eng.query("win(X).")]
    # as sets: after an earlier query, the order without query-level
    # tabling may differ from a fresh engine's, with or without plans
    assert sorted(got) == sorted(fresh(WIN, "win(X).", **options))
    assert type(clause.plan) is engine_module.ReturnPlan


def main(argv=None):
    """Run the entry-plan check over a range of seeds:
    ``python tests/test_entry_plans.py FIRST LAST`` (inclusive) prints
    each seed whose runs differ with its first difference, and the
    count."""
    import argparse
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)
    bad = []
    for seed in range(args.first, args.last + 1):
        rows = entry_mismatches(seed)
        if rows:
            bad.append(seed)
            print(f"seed {seed}: mismatch", flush=True)
            for name, value in zip(("options", "part", "plans", "none"),
                                   rows[0]):
                print(f"  {name}: {value}", flush=True)
    print(f"{len(bad)} of {args.last - args.first + 1} seeds mismatch")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
