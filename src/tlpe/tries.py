"""Term tries.

A trie node per preorder symbol; terms sharing a prefix share nodes.
Variables appear as canonical-index symbols, so variant terms map to the
same path.  Exact check/insert is one iterative walk; goal-directed
retrieval (unification or subsumption filtering) walks with structure
skipping so a stored variable edge can swallow a whole goal subterm and
vice versa.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .terms import Int, Struct, Term, Var, canonicalize, symbols, term_eq


class TrieNode:
    __slots__ = ("sym", "parent", "children", "leaf")

    def __init__(self, sym: Optional[tuple], parent: Optional["TrieNode"]):
        self.sym = sym
        self.parent = parent
        self.children: Dict[tuple, TrieNode] = {}
        self.leaf = None  # payload for a complete term ending here


class Trie:
    """Symbol-path trie with node-count accounting and leaf payloads."""

    def __init__(self):
        self.root = TrieNode(None, None)
        self.node_count = 0  # internal nodes, root excluded
        self.leaf_count = 0

    def check_insert(self, syms: Tuple[tuple, ...]):
        """Walk/create the path for syms.  Returns (node, created_nodes)."""
        node = self.root
        created = 0
        for s in syms:
            nxt = node.children.get(s)
            if nxt is None:
                nxt = TrieNode(s, node)
                node.children[s] = nxt
                self.node_count += 1
                created += 1
            node = nxt
        return node, created

    def lookup(self, syms: Tuple[tuple, ...]) -> Optional[TrieNode]:
        node = self.root
        for s in syms:
            node = node.children.get(s)
            if node is None:
                return None
        return node

    def set_leaf(self, node: TrieNode, payload) -> None:
        if node.leaf is None:
            self.leaf_count += 1
        node.leaf = payload

    def remove_leaf(self, node: TrieNode) -> None:
        """Clear a leaf and prune now-useless nodes up toward the root."""
        if node.leaf is not None:
            node.leaf = None
            self.leaf_count -= 1
        while node.parent is not None and node.leaf is None and not node.children:
            parent = node.parent
            del parent.children[node.sym]
            self.node_count -= 1
            node = parent

    def leaves(self) -> Iterator[TrieNode]:
        """All leaves in depth-first (insertion) order."""
        stack: List[TrieNode] = [self.root]
        while stack:
            node = stack.pop()
            if node.leaf is not None:
                yield node
            stack.extend(reversed(list(node.children.values())))

    # -- goal-directed retrieval -------------------------------------------

    def matching_leaves(self, goal: Term, mode: str = "unify"):
        """Leaves whose stored term is compatible with goal.

        mode 'unify': stored and goal may specialize each other (clause
        retrieval).  mode 'subsume': only stored variables may bind, so
        every hit subsumes the goal (producer lookup for subsumptive
        tabling).  More specific paths are explored before variable edges,
        so the first hit is the most specific one in trie order.  Callers
        still re-unify; this walk only prunes.
        """
        out = []
        self._walk(self.root, (goal,), {}, mode, out)
        return out

    def _walk(self, node: TrieNode, goals: tuple, env: dict,
              mode: str, out: list) -> None:
        if not goals:
            if node.leaf is not None:
                out.append(node.leaf)
            return
        g = goals[0]
        rest = goals[1:]
        tg = type(g)
        if tg is Var:
            if mode == "unify":
                # goal variable: consume one complete stored term
                for end in self._complete_one(node):
                    self._walk(end, rest, env, mode, out)
            else:
                # subsumption: a goal variable only matches a stored variable
                for s, child in node.children.items():
                    if s[0] == "v":
                        self._walk_bound(child, s[1], g, rest, env, mode,
                                         out)
            return
        # non-variable goal position: exact edge first, then stored-var edges
        s = _head_symbol(g)
        child = node.children.get(s)
        if child is not None:
            if tg is Struct:
                self._walk(child, tuple(g.args) + rest, env, mode, out)
            else:
                self._walk(child, rest, env, mode, out)
        for sym, vchild in node.children.items():
            if sym[0] == "v":
                self._walk_bound(vchild, sym[1], g, rest, env, mode, out)

    def _walk_bound(self, child: TrieNode, vid: int, value: Term,
                    rest: tuple, env: dict, mode: str, out: list) -> None:
        """Walk a stored-variable edge with ``vid`` bound to ``value``.

        Only a binding made here is undone afterwards: an equal earlier
        binding belongs to an enclosing edge and must survive."""
        prev = env.get(vid)
        if prev is None:
            env[vid] = value
            self._walk(child, rest, env, mode, out)
            del env[vid]
        elif term_eq(prev, value):
            self._walk(child, rest, env, mode, out)

    def _complete_one(self, node: TrieNode) -> Iterator[TrieNode]:
        """Nodes reached by consuming exactly one stored term below node."""
        for s, child in node.children.items():
            if s[0] == "f":
                yield from self._complete_n(child, s[2])
            else:
                yield child

    def _complete_n(self, node: TrieNode, k: int) -> Iterator[TrieNode]:
        if k == 0:
            yield node
            return
        for mid in self._complete_one(node):
            yield from self._complete_n(mid, k - 1)


def _head_symbol(t: Term) -> tuple:
    tt = type(t)
    if tt is Struct:
        return ("f", t.name, len(t.args))
    if tt is Var:
        return ("v", t.id)
    if tt is Int:
        return ("i", t.value)
    return ("a", t.name)


def term_path(t: Term) -> Tuple[tuple, ...]:
    """Canonical symbol path for storing t in a trie."""
    return symbols(canonicalize(t)[0])
