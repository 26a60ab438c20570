"""Well-founded negation utilities on top of the engine.

Three-valued truth queries and residual-program extraction for
undefined answers.
"""

from typing import List, Tuple

from .engine import Engine
from .errors import EvalError
from .parser import parse_goal
# unused here, but bench/spans.py wraps tlpe.negation.tarjan_sccs by name
from .sccs import tarjan_sccs  # noqa: F401
from .terms import Struct, Term, is_ground, term_to_str


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
    tnot(Subgoal)."""
    goal = _as_term(goal)
    table = engine.space.lookup_variant(goal)
    if table is None:
        raise EvalError("no_table",
                        f"no table for {term_to_str(goal)}")
    if not table.complete:
        raise EvalError("incomplete_table",
                        f"table for {term_to_str(goal)} is not complete")
    out: List[Tuple[Term, List[Term]]] = []
    for ans in table.answers:
        if ans.deleted:
            continue
        if not ans.delay_lists:
            out.append((ans.term, []))
            continue
        for dl in ans.delay_lists:
            body: List[Term] = []
            for lit in dl.lits:
                if lit.neg:
                    body.append(Struct("tnot", (lit.table.subgoal,)))
                else:
                    body.append(lit.ans.term)
            out.append((ans.term, body))
    return out
