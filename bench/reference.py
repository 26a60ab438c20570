"""Naive reference answers the benchmark checks every operation against.

This is the benchmark's own copy: breadth-first reachability, heap
Dijkstra, a textbook alternating-fixpoint well-founded model and the
random graph generators.  It imports nothing from the engine or from
the test suite, so neither an engine change nor a test edit can change
what the benchmark accepts as a correct answer.
"""

import heapq
import random
from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

Atom = Hashable
Rule = Tuple[Atom, Tuple[Atom, ...], Tuple[Atom, ...]]   # head, pos, neg


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


def random_digraph(rng: random.Random, vertices: int, edges: int,
                   core: int = 0) -> List[Tuple[int, int]]:
    """A cyclic digraph: a Hamiltonian cycle through vertices 1..core
    (all of them by default) first, then random chords among all
    vertices."""
    core = core or vertices
    out = [(i, i % core + 1) for i in range(1, core + 1)]
    have = set(out)
    while len(out) < edges:
        e = (rng.randint(1, vertices), rng.randint(1, vertices))
        if e[0] != e[1] and e not in have:
            have.add(e)
            out.append(e)
    return out


def weighted_digraph(rng: random.Random, vertices: int, edges: int,
                     max_weight: int) -> List[Tuple[int, int, int]]:
    """random_digraph with a weight in 1..max_weight on every edge."""
    return [(a, b, rng.randint(1, max_weight))
            for a, b in random_digraph(rng, vertices, edges)]


def game_graph(rng: random.Random, vertices: int,
               dead_share: float) -> List[Tuple[int, int]]:
    """Moves of a win/1 game.  A share dead_share of the vertices have
    no move.  Each other vertex has 1-3 moves: one to its successor on a
    random cycle through all of them, plus 0-2 to random vertices.
    Every vertex with a move thus reaches all others that have one."""
    order = list(range(1, vertices + 1))
    rng.shuffle(order)
    live = order[round(dead_share * vertices):]
    moves = []
    for i, v in enumerate(live):
        targets = [live[(i + 1) % len(live)]]
        for w in rng.sample(range(1, vertices + 1), rng.randint(0, 2)):
            if w not in targets:
                targets.append(w)
        moves.extend((v, w) for w in targets)
    return moves


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
