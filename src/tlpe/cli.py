"""Command-line front end: batch queries and an interactive loop.

``tlpe run FILE -g "GOAL."`` loads a program, evaluates one goal and
prints its answers (exit 0), ``no`` when there are none (exit 1), or an
error (exit 2).  ``tlpe repl [FILE...]`` reads queries and ``:``-commands
interactively; ``;`` asks for the next answer, a blank line accepts.
"""

import argparse
import sys
from typing import Dict, List, Optional, TextIO

from . import incremental, negation
from .engine import Engine, QueryAnswer
from .errors import EvalError, TlpeError
from .parser import parse_goal, parse_term_text
from .terms import Atom, Int, Struct, term_to_str


def _error_detail(exc: TlpeError) -> str:
    if isinstance(exc, EvalError):
        return exc.detail or exc.kind
    return str(exc)


def format_answer(ans: QueryAnswer, var_names: Dict[int, str]) -> str:
    """One answer as a text line.

    Variables appear in query order; underscore-prefixed names are
    hidden.  A bindings-free true answer is ``yes``; the ``undefined``
    marker is appended for answers that still carry delay lists."""
    parts = [f"{name} = {term_to_str(ans.bindings[vid])}"
             for vid, name in var_names.items()
             if not name.startswith("_") and vid in ans.bindings]
    if not parts:
        return "undefined" if ans.truth == "undefined" else "yes"
    line = ", ".join(parts)
    if ans.truth == "undefined":
        line += " undefined"
    return line


def build_engine(args: argparse.Namespace) -> Engine:
    engine = Engine(strategy=args.strategy,
                    occurs_check=args.occurs_check,
                    query_level_tabling=args.query_level_tabling,
                    default_tabling=args.default_tabling)
    for path in args.files:
        engine.load_file(path)
    if args.trace:
        engine.trace_enabled = True
        engine.trace_sink = print
    return engine


def _strip_period(text: str) -> str:
    text = text.strip()
    if not text.endswith("."):
        raise EvalError("input", "expected a line ending in '.'")
    return text[:-1].strip()


def run_batch(engine: Engine, goal_text: str, out: TextIO) -> int:
    item = parse_goal(goal_text)
    answers = engine.query(item.term)
    if not answers:
        print("no", file=out)
        return 1
    for ans in answers:
        print(format_answer(ans, item.var_names), file=out)
    return 0


class Repl:
    def __init__(self, engine: Engine,
                 stdin: TextIO, stdout: TextIO, stderr: TextIO):
        self.engine = engine
        self.stdin = stdin
        self.stdout = stdout
        self.stderr = stderr

    def _print(self, text: str) -> None:
        print(text, file=self.stdout)
        self.stdout.flush()

    def _read(self, prompt: str) -> Optional[str]:
        self.stdout.write(prompt)
        self.stdout.flush()
        line = self.stdin.readline()
        if line == "":
            return None
        return line.rstrip("\n")

    def loop(self) -> int:
        while True:
            try:
                line = self._read("?- ")
            except KeyboardInterrupt:
                self._print("")
                continue
            if line is None:
                return 0
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith(":"):
                    self.command(_strip_period(line[1:]))
                else:
                    self.run_query(_strip_period(line))
            except KeyboardInterrupt:
                self._print("")
                print("error: interrupted: query aborted",
                      file=self.stderr)
            except TlpeError as exc:
                print(f"error: {exc.kind}: {_error_detail(exc)}",
                      file=self.stderr)
            except OSError as exc:
                print(f"error: io: {exc}", file=self.stderr)

    def run_query(self, text: str) -> None:
        item = parse_goal(text)
        answers = self.engine.query(item.term)
        if not answers:
            self._print("no")
            return
        for i, ans in enumerate(answers):
            self._print(format_answer(ans, item.var_names))
            if not ans.bindings:
                return          # ground goal: single answer, no stepping
            nxt = self._read("")
            if nxt is None or nxt.strip() != ";":
                return
        self._print("no")

    # ------------------------------------------------------------------
    # :-commands

    def command(self, text: str) -> None:
        word, _, rest = text.partition(" ")
        rest = rest.strip()
        handler = getattr(self, "cmd_" + word, None)
        if handler is None:
            raise EvalError("unknown_command", f":{word}")
        handler(rest)

    def cmd_load(self, arg: str) -> None:
        self.engine.load_file(arg)

    def cmd_abolish(self, arg: str) -> None:
        what, _, rest = arg.partition(" ")
        rest = rest.strip()
        if what == "all" and not rest:
            self.engine.abolish_all()
        elif what == "pred":
            ind = parse_term_text(rest)
            if not (type(ind) is Struct and ind.name == "/"
                    and len(ind.args) == 2 and type(ind.args[0]) is Atom
                    and type(ind.args[1]) is Int):
                raise EvalError("bad_command",
                                f"expected name/arity, got {rest}")
            self.engine.abolish_pred(ind.args[0].name, ind.args[1].value)
        elif what == "call":
            self.engine.abolish_call(parse_goal(rest).term)
        else:
            raise EvalError("bad_command", f":abolish {arg}")

    def cmd_residual(self, arg: str) -> None:
        goal = parse_goal(arg).term
        for head, body in negation.get_residual(self.engine, goal):
            if body:
                parts = ", ".join(term_to_str(b) for b in body)
                self._print(f"{term_to_str(head)} :- {parts}.")
            else:
                self._print(f"{term_to_str(head)}.")

    def cmd_stats(self, arg: str) -> None:
        stats = self.engine.statistics()
        per_pred = stats["tables"]
        total_tables = sum(st["tables"] for st in per_pred.values())
        total_answers = sum(st["answers"] for st in per_pred.values())
        self._print(f"tables={total_tables} answers={total_answers} "
                    f"nodes={stats['nodes']} "
                    f"simplifications={stats['simplifications']}")
        for pred in sorted(per_pred):
            st = per_pred[pred]
            self._print(
                f"{pred}: tables={st['tables']} answers={st['answers']} "
                f"conditional={st['conditional']} complete={st['complete']} "
                f"invalid={st['invalid']}")
        for pred, n in sorted(stats["recomputations"].items()):
            self._print(f"{pred}: recomputations={n}")

    def cmd_trace(self, arg: str) -> None:
        if arg == "on":
            self.engine.trace_enabled = True
            self.engine.trace_sink = self._print
        elif arg == "off":
            self.engine.trace_enabled = False
            self.engine.trace_sink = None
        else:
            raise EvalError("bad_command", f":trace {arg}")

    def cmd_incr_assert(self, arg: str) -> None:
        incremental.incr_assert(self.engine, parse_goal(arg).term)

    def cmd_incr_retract(self, arg: str) -> None:
        incremental.incr_retract(self.engine, parse_goal(arg).term)

    def cmd_incr_update(self, arg: str) -> None:
        if arg:
            raise EvalError("bad_command", ":incr_update takes no argument")
        incremental.incr_table_update(self.engine)

    def cmd_incr_invalidate(self, arg: str) -> None:
        incremental.incr_invalidate(self.engine, parse_goal(arg).term)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tlpe",
        description="Tabled logic programming engine (SLG resolution)")
    sub = p.add_subparsers(dest="mode", required=True)

    def common(sp):
        sp.add_argument("files", nargs="*", help="program files to consult")
        sp.add_argument("--strategy", choices=("local", "batched"),
                        default="local")
        sp.add_argument("--default-tabling",
                        choices=("variant", "subsumptive"),
                        default="variant")
        sp.add_argument("--occurs-check", action="store_true")
        sp.add_argument("--query-level-tabling", action="store_true",
                        help="discard each query's tables as it finishes")
        sp.add_argument("--trace", action="store_true",
                        help="print SLG operations as they happen")

    run = sub.add_parser("run", help="evaluate one goal and exit")
    common(run)
    run.add_argument("-g", "--goal", required=True,
                     help='goal to evaluate, e.g. "reach(1,Y)."')

    repl = sub.add_parser("repl", help="interactive query loop")
    common(repl)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        engine = build_engine(args)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except TlpeError as exc:
        print(f"error: {exc.kind}: {_error_detail(exc)}",
              file=sys.stderr)
        return 2
    if args.mode == "run":
        try:
            return run_batch(engine, _strip_period(args.goal), sys.stdout)
        except TlpeError as exc:
            print(f"error: {exc.kind}: {_error_detail(exc)}",
                  file=sys.stderr)
            return 2
    return Repl(engine, sys.stdin, sys.stdout, sys.stderr).loop()


if __name__ == "__main__":
    sys.exit(main())
