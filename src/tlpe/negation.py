"""Well-founded negation utilities on top of the engine.

Three-valued truth queries and residual-program extraction for
undefined answers.
"""

from typing import Dict, List, Tuple

from .engine import Engine
from .errors import EvalError
from .parser import parse_goal
# unused here, but bench/spans.py wraps tlpe.negation.tarjan_sccs by name
from .sccs import tarjan_sccs  # noqa: F401
from .terms import (Struct, Term, canonicalize, functor_of, is_ground,
                    rename, resolve, term_to_str, unify)


def _as_term(goal) -> Term:
    return parse_goal(goal).term if isinstance(goal, str) else goal


def truth_of(engine: Engine, goal) -> str:
    """Evaluate a ground goal: "true", "undefined" or "false"."""
    goal = _as_term(goal)
    if not is_ground(goal):
        raise EvalError("instantiation",
                        f"truth_of needs a ground goal, got "
                        f"{term_to_str(goal)}")
    answers = engine.query(goal)
    if not answers:
        return "false"
    return answers[0].truth


def get_residual(engine: Engine, goal) -> List[Tuple[Term, List[Term]]]:
    """Residual clauses of a completed table: one (head, body) pair per
    answer and delay list; unconditional answers get an empty body.
    Delay literals print as the answers they wait on, negated ones as
    tnot(Subgoal).

    The goal reads the table its call reads: under answer subsumption,
    the one of its plain arguments; for a subsumptive predicate without
    a variant table, the one that subsumes it.  Only the answers that
    unify with the goal are reported, instantiated by it, each instance
    once per distinct body, or once with none if true."""
    goal = _as_term(goal)
    table = engine.space.lookup_variant(goal)
    if table is None:
        pi = engine.program.info(*functor_of(goal))
        if pi is not None and pi.tabling == "subsumptive":
            table = engine.space.lookup_subsuming(goal)
    if table is None:
        raise EvalError("no_table",
                        f"no table for {term_to_str(goal)}")
    if not table.complete:
        raise EvalError("incomplete_table",
                        f"table for {term_to_str(goal)} is not complete")
    cgoal, nvars = canonicalize(goal)
    bodies_of: Dict[Term, List[List[Term]]] = {}
    for ans in table.answers:
        env = None if ans.deleted else unify(cgoal, rename(ans.term, nvars))
        if env is None:
            continue
        head, _ = canonicalize(resolve(cgoal, env))
        bodies = bodies_of.setdefault(head, [])
        for dl in ans.delay_lists or [None]:
            body = [] if dl is None else [
                Struct("tnot", (lit.table.subgoal,)) if lit.neg
                else lit.ans.term for lit in dl.lits]
            if body not in bodies:
                bodies.append(body)
    return [(head, body) for head, bodies in bodies_of.items()
            for body in ([[]] if [] in bodies else bodies)]
