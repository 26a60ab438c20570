"""Term tries: the one discrimination tree of the engine.

A trie node per preorder symbol; terms sharing a prefix share nodes.
Variables appear as canonical-index symbols, so variant terms map to the
same path; the symbol ``("v", None)`` is a variable that occurs once and
binds nothing.  Three structures are tries: the tables of a predicate
and the answers of a table, each only once a subsumed call reads them
(exact lookups of both are dict probes), and the clause indexes of
``program.ClauseIndex``.  Exact check/insert is one iterative
walk; goal-directed retrieval (unification or subsumption filtering)
walks with structure skipping so a stored variable edge can swallow a
whole goal subterm and vice versa.  A node keeps its variable edges in a
dict of their own as well, so a walk reads them without visiting every
child.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .terms import Int, Struct, Term, Var, unify


class TrieNode:
    __slots__ = ("sym", "parent", "children", "vars", "leaf")

    def __init__(self, sym: Optional[tuple], parent: Optional["TrieNode"]):
        self.sym = sym
        self.parent = parent
        self.children: Dict[tuple, TrieNode] = {}
        self.vars: Optional[Dict[tuple, TrieNode]] = None  # variable edges
        self.leaf = None  # payload for a complete term ending here


class Trie:
    """Symbol-path trie with node-count accounting and leaf payloads."""

    def __init__(self):
        self.root = TrieNode(None, None)
        self.node_count = 0  # internal nodes, root excluded
        self.leaf_count = 0

    def check_insert(self, syms: Tuple[tuple, ...]) -> TrieNode:
        """Walk/create the path for syms; returns its last node."""
        node = self.root
        for s in syms:
            nxt = node.children.get(s)
            if nxt is None:
                nxt = TrieNode(s, node)
                node.children[s] = nxt
                if s[0] == "v":
                    if node.vars is None:
                        node.vars = {}
                    node.vars[s] = nxt
                self.node_count += 1
            node = nxt
        return node

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
            if node.sym[0] == "v":
                del parent.vars[node.sym]
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
        unifying = mode == "unify"
        out = []
        # (node, goals left, stored terms to skip whole, stored var -> goal)
        stack = [(self.root, todo, 0, {})]
        push = stack.append
        while stack:
            node, todo, skip, env = stack.pop()
            if skip:
                # a goal variable swallows one complete stored term
                stack.extend([(child, todo, skip - 1 + (s[0] == "f" and s[2]),
                               env)
                              for s, child in reversed(node.children.items())])
                continue
            while todo is not None:     # the exact edges, without the stack
                g, todo = todo
                tg = type(g)
                if tg is Var and unifying:
                    push((node, todo, 1, env))
                    break
                # stored-variable edges, popped after the exact edge's hits
                if node.vars:
                    for s, vchild in reversed(node.vars.items()):
                        if s[1] is None:
                            push((vchild, todo, 0, env))
                            continue
                        bound = _bind(env, s[1], g, unifying)
                        if bound is not None:
                            push((vchild, todo, 0, bound))
                if tg is Struct:
                    node = node.children.get(("f", g.name, len(g.args)))
                    if node is None:
                        break
                    for a in reversed(g.args):
                        todo = (a, todo)
                elif tg is Var:
                    break   # subsumption: it only matches a stored variable
                else:
                    node = node.children.get(
                        ("i", g.value) if tg is Int else ("a", g.name))
                    if node is None:
                        break
            else:
                if node.leaf is not None:
                    out.append(node.leaf)
        return out


def _bind(env: dict, vid: int, value: Term, unifying: bool) -> Optional[dict]:
    """``env`` with stored variable ``vid`` bound to goal term ``value``,
    or None if an earlier binding excludes it: it must unify with
    ``value`` when ``unifying``, else be equal."""
    prev = env.get(vid)
    if prev is None:
        env = dict(env)
        env[vid] = value
        return env
    if prev == value or unifying and unify(prev, value) is not None:
        return env
    return None
