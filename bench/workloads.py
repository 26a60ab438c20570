"""The four benchmark workloads.

Each workload makes its program, facts and operation order from the
seed alone, drives the public ``tlpe`` API the way an embedding host
does, and checks every answer set against the naive references in
``reference``.  Why each workload exists:

* ``closure``: left-recursive ``reach/2`` over a Hamiltonian cycle plus
  chords, one ``reach(S,Y)`` query per vertex with tables kept.  Every
  query fills one table of V answers, so answer insertion and return
  dominate and scheduling does not; it is also the workload that grows
  the table space.
* ``wfs``: ``win/1`` over twelve random games under query-level tabling.
  Every query evaluates its game's SCC from scratch through ``tnot``, so
  scheduling, SCC detection, delay and simplification dominate and
  answer insertion does not.
* ``update``: right-recursive incremental ``reach/2`` over a cyclic
  graph; each round is one ``incr_invalidate`` (assert or retract)
  followed by re-querying four watched goals, whose tables are shared
  and recomputed on demand.  It is the only workload through
  incremental invalidation and recomputation.
* ``minpath``: ``sp/3`` under ``min`` answer subsumption over a weighted
  digraph, query-level tabling.  It is the only workload through
  answer subsumption and answer replacement.
"""

import random
from time import thread_time
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Set, Tuple

from tlpe import Engine, Int, Struct, parse_goal
from tlpe import incremental

import reference

# Marker in a schedule: the operations after it run on a fresh engine.
NEW_ENGINE = None

Pair = Tuple[object, str]           # (answer value, truth)


class Sample(NamedTuple):
    """What one operation cost and whether its answers were right.
    Times are CPU time of the calling thread: time in which the
    operating system runs other processes is not the program's cost."""
    op_s: float                 # whole operation
    query_s: List[float]        # each Engine.query in it, answers read
    ok: bool
    requeried: int = 0          # watched goals re-queried (update only)
    unchanged: int = 0          # ... whose answer set did not change


def _value(t):
    """An Int argument as a Python int; anything else as itself, so a
    wrong binding shows up as a mismatch, not as an exception."""
    return t.value if type(t) is Int else t


def _facts(name: str, rows) -> str:
    return "".join(f"{name}({','.join(map(str, row))}).\n" for row in rows)


def _timed_query(engine: Engine, goal, read) -> Tuple[float, List[Pair]]:
    start = thread_time()
    got = [(read(a.goal), a.truth) for a in engine.query(goal)]
    return thread_time() - start, got


def _matches(got: List[Pair], expected: Set[Pair]) -> bool:
    """Set equality of (answer, truth) pairs; a variant table must not
    return the same pair twice either."""
    return len(got) == len(expected) and set(got) == expected


class Workload:
    """Program, facts and seeded operations of one workload."""

    name = ""
    program = ""
    facts = ""
    engine_options: Dict[str, object] = {}
    trace_ops = 0               # operations in a traced run

    def setup(self) -> Engine:
        """Build an engine, consult program and facts, finalize."""
        engine = Engine(**self.engine_options)
        engine.consult(self.program)
        engine.consult(self.facts)
        engine.program.finalize()
        return engine

    def schedule(self) -> Iterator:
        raise NotImplementedError

    def run(self, engine: Engine, op) -> Sample:
        raise NotImplementedError


class _ReadWorkload(Workload):
    """Queries one goal per source vertex.  Each pass visits every source
    once on a fresh engine: each group of sources in its own seeded
    order, the groups taken in turn, so that every prefix of a pass
    draws evenly from every group."""

    def __init__(self, seed: int):
        self.seed = seed
        self.groups: List[List[int]] = []
        self.goals: Dict[int, object] = {}
        self.expected: Dict[int, Set[Pair]] = {}

    def schedule(self) -> Iterator:
        rng = random.Random(self.seed * 1009 + 17)
        while True:
            orders = []
            for group in self.groups:
                order = list(group)
                rng.shuffle(order)
                orders.append(order)
            yield NEW_ENGINE
            for turn in zip(*orders):       # groups are of equal size
                yield from turn

    def read(self, goal):
        raise NotImplementedError

    def run(self, engine: Engine, source: int) -> Sample:
        took, got = _timed_query(engine, self.goals[source], self.read)
        return Sample(took, [took], _matches(got, self.expected[source]))


class Closure(_ReadWorkload):
    name = "closure"
    program = (":- table reach/2.\n"
               "reach(X,Y) :- reach(X,Z), e(Z,Y).\n"
               "reach(X,Y) :- e(X,Y).\n")
    trace_ops = 40

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed)
        vertices, edges = (20, 50) if small else (150, 450)
        rng = random.Random(seed)
        edge_list = reference.random_digraph(rng, vertices, edges)
        self.facts = _facts("e", edge_list)
        self.groups = [list(range(1, vertices + 1))]
        for s in self.groups[0]:
            self.goals[s] = parse_goal(f"reach({s},Y)").term
            self.expected[s] = {
                (y, "true") for y in reference.bfs_reachable(edge_list, s)}

    def read(self, goal):
        return _value(goal.args[1])


class Wfs(_ReadWorkload):
    """Several independent games in one program, one group of sources
    each.  A query explores only its own game; pooling games evens out
    how much the latency percentiles depend on the shape of one random
    game."""

    name = "wfs"
    program = (":- table win/1.\n"
               "win(X) :- move(X,Y), tnot win(Y).\n")
    engine_options = {"query_level_tabling": True}
    trace_ops = 96

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed)
        games, vertices = (1, 25) if small else (12, 50)
        rng = random.Random(seed)
        moves = []
        for g in range(games):
            base = g * vertices
            game = [(base + x, base + y) for x, y in
                    reference.game_graph(rng, vertices, 0.15)]
            moves.extend(game)
            self.groups.append(list(range(base + 1, base + vertices + 1)))
            model = reference.wfs_model(
                [(x, (), (y,)) for x, y in game],
                range(base + 1, base + vertices + 1))
            for s, truth in model.items():
                self.goals[s] = parse_goal(f"win({s})").term
                self.expected[s] = set() if truth == "false" \
                    else {(s, truth)}
        self.facts = _facts("move", moves)

    def read(self, goal):
        return _value(goal.args[0])


class Minpath(_ReadWorkload):
    name = "minpath"
    program = (":- table sp(_,_,min).\n"
               "sp(X,Y,C) :- e(X,Y,C).\n"
               "sp(X,Y,C) :- sp(X,Z,C1), e(Z,Y,C2), C is C1 + C2.\n")
    engine_options = {"query_level_tabling": True}
    trace_ops = 40

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed)
        vertices, edges = (15, 40) if small else (100, 300)
        rng = random.Random(seed)
        edge_list = reference.weighted_digraph(rng, vertices, edges, 20)
        self.facts = _facts("e", edge_list)
        self.groups = [list(range(1, vertices + 1))]
        for s in self.groups[0]:
            self.goals[s] = parse_goal(f"sp({s},Y,C)").term
            self.expected[s] = {((y, d), "true") for y, d in
                                reference.dijkstra(edge_list, s).items()}

    def read(self, goal):
        return _value(goal.args[1]), _value(goal.args[2])


class Update(Workload):
    """One engine for the whole run; every operation is a round of one
    random assert or retract through ``incr_invalidate`` followed by a
    re-query of each watched goal, checked against BFS over the edges
    as they are after the change.

    The watched sources lie on a cycle through the core vertices that
    no change touches, so every round recomputes about the same tables;
    answers change as the few vertices outside the core gain and lose
    the chords that reach them."""

    name = "update"
    program = (":- use_incremental_dynamic e/2.\n"
               ":- table reach/2 as incremental.\n"
               "reach(X,Y) :- e(X,Y).\n"
               "reach(X,Y) :- e(X,Z), reach(Z,Y).\n")
    trace_ops = 25
    watched_count = 4
    # Retract or assert with even odds, but keep the edge count within
    # this distance of its start, so that the cost of a round does not
    # wander with a random walk of the graph's density.
    max_drift = 2
    period = 10                 # random changes before they are undone

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.vertices, core, edges = (10, 8, 22) if small else (30, 26, 75)
        rng = random.Random(seed)
        self.edges0 = reference.random_digraph(rng, self.vertices, edges,
                                               core)
        self.fixed = frozenset(self.edges0[:core])
        self.facts = _facts("e", self.edges0)
        self.watched = rng.sample(range(1, core + 1), self.watched_count)
        self.goals = [parse_goal(f"reach({s},Y)").term
                      for s in self.watched]

    def schedule(self) -> Iterator:
        """Rounds come in periods: ``period`` random changes, then the
        same changes undone in reverse order, which brings the edges
        back to where the period began.  Every period thus starts from
        the seed's graph, and a long run does not wander further from
        it than a short one.  Changes are drawn from the seed and the
        current edge set only, so a seed gives the same rounds however
        long a run lasts.  Each round also carries the watched goals'
        answer sets as the previous round of this schedule left them."""
        rng = random.Random(self.seed * 1009 + 17)
        edges = set(self.edges0)
        previous: Dict[int, FrozenSet[Pair]] = {}
        yield NEW_ENGINE
        while True:
            undo = []
            for _ in range(self.period):
                kind, edge = self._change(rng, edges)
                undo.append(("assert" if kind == "retract" else "retract",
                             edge))
                yield kind, edge, tuple(sorted(edges)), previous
            for kind, edge in reversed(undo):
                if kind == "assert":
                    edges.add(edge)
                else:
                    edges.discard(edge)
                yield kind, edge, tuple(sorted(edges)), previous

    def _change(self, rng: random.Random, edges: Set[Tuple[int, int]]):
        """Draw one assert or retract and apply it to ``edges``."""
        drift = len(edges) - len(self.edges0)
        if drift > -self.max_drift and (
                drift >= self.max_drift or rng.random() < 0.5):
            edge = rng.choice(sorted(edges - self.fixed))
            edges.discard(edge)
            return "retract", edge
        while True:
            edge = (rng.randint(1, self.vertices),
                    rng.randint(1, self.vertices))
            if edge[0] != edge[1] and edge not in edges:
                break
        edges.add(edge)
        return "assert", edge

    def run(self, engine: Engine, op) -> Sample:
        kind, (a, b), edges, previous = op
        change = Struct(kind, (Struct("e", (Int(a), Int(b))),))
        start = thread_time()
        incremental.incr_invalidate(engine, change)
        answers = [_timed_query(engine, goal, self.read)
                   for goal in self.goals]
        took = thread_time() - start
        ok = True
        unchanged = 0
        for source, (_, got) in zip(self.watched, answers):
            expected = {(y, "true")
                        for y in reference.bfs_reachable(edges, source)}
            ok = ok and _matches(got, expected)
            now = frozenset(got)
            unchanged += previous.get(source) == now
            previous[source] = now
        return Sample(took, [q for q, _ in answers], ok,
                      len(self.goals), unchanged)

    @staticmethod
    def read(goal):
        return _value(goal.args[1])


WORKLOADS = {cls.name: cls for cls in (Closure, Wfs, Update, Minpath)}
