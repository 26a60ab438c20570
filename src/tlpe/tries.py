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

from .terms import (Int, Struct, Term, Var, canonicalize, symbols, term_eq,
                    unify)


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

    def matching_leaves(self, *goals: Term, mode: str = "unify"):
        """Leaves whose stored terms are compatible with ``goals``: one
        goal in a trie of terms, one goal per stored term in a trie of
        term sequences (the bindings of an answer trie).

        mode 'unify': stored and goal may specialize each other (clause
        and answer retrieval).  mode 'subsume': only stored variables may
        bind, so every hit subsumes the goal (producer lookup for
        subsumptive tabling).  More specific paths are explored before
        variable edges, so the first hit is the most specific one in trie
        order.  Callers still re-unify; this walk only prunes.  Its stack
        is explicit: long stored terms cannot exhaust Python's.
        """
        todo = None                 # the goals still to match, a cons list
        for g in reversed(goals):
            todo = (g, todo)
        out = []
        # (node, goals left, stored terms to skip whole, stored var -> goal)
        stack = [(self.root, todo, 0, {})]
        while stack:
            node, todo, skip, env = stack.pop()
            if skip:
                # a goal variable swallows one complete stored term
                stack.extend([(child, todo, skip - 1 + (s[0] == "f" and s[2]),
                               env)
                              for s, child in reversed(node.children.items())])
                continue
            if todo is None:
                if node.leaf is not None:
                    out.append(node.leaf)
                continue
            g, rest = todo
            nxt = []
            if type(g) is Var:
                if mode == "unify":
                    stack.append((node, rest, 1, env))
                    continue
                # subsumption: a goal variable only matches a stored variable
            else:
                # exact edge first, then stored-variable edges
                child = node.children.get(_head_symbol(g))
                if child is not None:
                    sub = rest
                    if type(g) is Struct:
                        for a in reversed(g.args):
                            sub = (a, sub)
                    nxt.append((child, sub, 0, env))
            for s, vchild in node.children.items():
                if s[0] == "v":
                    bound = _bind(env, s[1], g, mode)
                    if bound is not None:
                        nxt.append((vchild, rest, 0, bound))
            stack.extend(reversed(nxt))
        return out


def _bind(env: dict, vid: int, value: Term, mode: str) -> Optional[dict]:
    """``env`` with stored variable ``vid`` bound to goal term ``value``,
    or None if an earlier binding excludes it: in 'subsume' mode it must
    be equal, in 'unify' mode it must unify with ``value``."""
    prev = env.get(vid)
    if prev is None:
        env = dict(env)
        env[vid] = value
        return env
    if term_eq(prev, value) or mode == "unify" \
            and unify(prev, value) is not None:
        return env
    return None


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
