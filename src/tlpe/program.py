"""Clause store: predicate metadata, dynamic code, clause indexing.

Clauses are kept in canonical form (dense clause-local variable ids).
Each predicate carries its tabling mode, dynamicity, answer-subsumption
spec and clause indexes.  Retrieval unifies the goal with the head of
each candidate clause, once, and returns every clause that unifies
together with its unifier, which the engine runs the body under.  An
index is a ``tries.Trie`` of clauses, the same structure that holds
tables; it only picks the candidates, so declaring an index can never
change the answers of a program, only the amount of scanning.  A
predicate gets a first-argument index when it is made; ``:- index(p/N,
trie)`` instead stores its facts in a trie of whole argument tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from .builtins import BINDING_READERS, BUILTINS
from .errors import DirectiveError, StoreError
from .sccs import cyclic_vertices
from .terms import (
    NIL, Atom, Int, Struct, Term, Var, canonicalize, functor_of,
    is_callable, is_ground, list_parts, match, rename, symbols, term_to_str,
    unify,
)
from .tries import Trie

PredKey = Tuple[str, int]

_RESERVED_HEADS = set(BUILTINS) | {("tnot", 1), (",", 2), (":-", 2)}

STAR_CAP = 5
_ANON = ("v", None)   # a variable of an index path: it binds nothing


@dataclass
class Literal:
    """One body goal; neg means it sits under tnot.  ``call`` is what a
    call of it runs, its builtin handler or its ``PredicateInfo``, which
    the engine records the first time it reaches the literal."""
    neg: bool
    goal: Term
    call: object = field(default=None, compare=False, repr=False)

    def __repr__(self):
        s = term_to_str(self.goal)
        return f"tnot {s}" if self.neg else s


@dataclass(eq=False)
class Clause:
    head: Term
    body: Tuple[Literal, ...]
    nvars: int
    seq: int
    term: Term  # canonical whole-clause term, for printing and retract
    # the engine's plan at entry, one or False; None until it is made,
    # and while a predicate it calls is undefined
    plan: object = field(default=None, repr=False)

    @property
    def is_fact(self) -> bool:
        return not self.body


@dataclass
class SubsumptionSpec:
    """Answer-subsumption declaration for one argument position."""
    kind: str                 # lattice | po | min | max | sum | count
    position: int             # 0-based index of the aggregated argument
    join_pred: Optional[PredKey] = None
    identity: Optional[Term] = None
    leq_pred: Optional[PredKey] = None


@dataclass
class IndexSpec:
    """Joint index: up to three (kind, argno) components, kind arg|star;
    or a trie index, kind trie on every argument."""
    components: Tuple[Tuple[str, int], ...]

    @property
    def whole(self) -> bool:
        return all(kind == "trie" for kind, _ in self.components)

    def __str__(self):
        def one(c):
            return f"*({c[1]})" if c[0] == "star" else str(c[1])
        return "trie" if self.whole else "+".join(map(one, self.components))


class ClauseIndex:
    """A ``Trie`` of clauses, each in the leaf of the path of what the
    spec reads of its head.

    An ``arg`` component reads the principal symbol of its argument, a
    ``star`` component at most STAR_CAP preorder symbols up to the first
    variable; whatever is cut off is stored as a variable that occurs
    once.  A trie index reads the arguments whole, so a variant of a
    stored clause finds its leaf.  A leaf lists its clauses in program
    order.  A lookup walks the goal's component arguments in unify mode;
    one of a single ``arg`` component by an atom or an integer reads just
    two children of the root, the argument's own and the variable's.
    """

    def __init__(self, spec: IndexSpec):
        self.spec = spec
        self.whole = spec.whole
        self.argnos = [argno - 1 for _, argno in spec.components]
        self.caps = [1 if kind == "arg" else STAR_CAP
                     for kind, _ in spec.components]
        self.trie = Trie()
        self.probe = [kind for kind, _ in spec.components] == ["arg"]

    def path(self, head: Term) -> Tuple[tuple, ...]:
        if self.whole:
            return symbols(Struct("", tuple(head.args[i]
                                            for i in self.argnos)))[1:]
        out: List[tuple] = []
        for i, cap in zip(self.argnos, self.caps):
            stack, n = [head.args[i]], 0
            while stack:
                x = stack.pop()
                tx = type(x)
                if n == cap or tx is Var:
                    out.append(_ANON)
                    n = cap
                elif tx is Struct:
                    out.append(("f", x.name, len(x.args)))
                    stack.extend(reversed(x.args))
                    n += 1
                else:
                    out.append(("i", x.value) if tx is Int else ("a", x.name))
                    n += 1
        return tuple(out)

    def add(self, clause: Clause) -> bool:
        """Store ``clause``; False, storing nothing, when it is a trie
        index's duplicate: a variant of a stored clause."""
        node = self.trie.check_insert(self.path(clause.head))
        if node.leaf is None:
            self.trie.set_leaf(node, [clause])
        elif self.whole:
            return False
        else:
            node.leaf.append(clause)
        return True

    def remove(self, clause: Clause) -> None:
        node = self.trie.lookup(self.path(clause.head))
        node.leaf.remove(clause)
        if not node.leaf:
            self.trie.remove_leaf(node)

    def lookup(self, goal: Term) -> Optional[List[Clause]]:
        """The clauses whose heads may unify with ``goal``, in program
        order; None if ``goal`` leaves a component unbound, unless this
        is a trie index."""
        a = goal.args[self.argnos[0]] if self.probe else None
        if type(a) is Atom or type(a) is Int:
            return self.lookup_atomic(a)
        args = [goal.args[i] for i in self.argnos]
        if Var in map(type, args) and not self.whole:
            return None
        leaves = self.trie.matching_leaves(*args)
        if len(leaves) == 1:
            return leaves[0]
        return sorted([cl for leaf in leaves for cl in leaf],
                      key=attrgetter("seq"))

    def lookup_atomic(self, a: Term) -> List[Clause]:
        """``lookup`` of a goal whose argument under this index, of one
        ``arg`` component, is the atom or integer ``a``."""
        kids = self.trie.root.children
        hit = kids.get(("i", a.value) if type(a) is Int else ("a", a.name))
        anon = kids.get(_ANON)
        if hit is None or anon is None:
            return [] if hit is anon else (anon if hit is None else hit).leaf
        return sorted(hit.leaf + anon.leaf, key=attrgetter("seq"))


@dataclass
class PredicateInfo:
    name: str
    arity: int
    dynamic: bool = False
    incremental_source: bool = False    # use_incremental_dynamic; dynamic too
    tabling: str = "none"               # none | variant | subsumptive
    incremental_table: bool = False
    auto_tabled: bool = False
    subsumption: Optional[SubsumptionSpec] = None
    trie_indexed: bool = False          # facts in indexes[0], not clauses
    indexes: List[ClauseIndex] = field(default_factory=list)
    clauses: List[Clause] = field(default_factory=list)
    recomputations: int = 0
    cut_clauses: int = 0                # clauses whose body contains !
    prunes: bool = False                # reaches ! or findall/3 inline
    general_clauses: int = 0            # rules and non-ground facts

    @property
    def key(self) -> PredKey:
        return (self.name, self.arity)

    @property
    def tabled(self) -> bool:
        return self.tabling != "none"

    def __str__(self):
        return f"{self.name}/{self.arity}"


def split_clause(term: Term) -> Tuple[Term, Tuple[Literal, ...]]:
    """Split a (canonical) clause term into head and body literals."""
    if type(term) is Struct and term.name == ":-" and len(term.args) == 2:
        head, body = term.args
    else:
        head, body = term, None
    if not is_callable(head):
        raise StoreError(f"clause head is not callable: {term_to_str(head)}")
    lits: List[Literal] = []
    if body is not None:
        for goal in conj_items(body):
            neg = False
            if type(goal) is Struct and goal.name == "tnot" and len(goal.args) == 1:
                neg = True
                goal = goal.args[0]
            if type(goal) is Var:
                raise StoreError("clause body contains an unbound goal variable")
            if not is_callable(goal):
                raise StoreError(f"body goal is not callable: {term_to_str(goal)}")
            lits.append(Literal(neg, goal))
    return head, tuple(lits)


def has_cut(lits) -> bool:
    """Whether the body literals ``lits`` hold a ``!``."""
    return any(l.goal is Atom("!") for l in lits)


def conj_items(term: Term) -> List[Term]:
    """Flatten a ','/2 tree into a list of goals, left to right."""
    out: List[Term] = []
    stack = [term]
    while stack:
        t = stack.pop()
        if type(t) is Struct and t.name == "," and len(t.args) == 2:
            stack.append(t.args[1])
            stack.append(t.args[0])
        else:
            out.append(t)
    return out


def _indicator(t: Term) -> PredKey:
    """Parse a name/arity term."""
    if (type(t) is Struct and t.name == "/" and len(t.args) == 2
            and type(t.args[0]) is Atom and type(t.args[1]) is Int
            and t.args[1].value >= 0):
        return (t.args[0].name, t.args[1].value)
    raise DirectiveError(f"expected name/arity, got {term_to_str(t)}")


_AS_BUILTINS = {"min", "max", "sum", "count"}


class Program:
    """A loaded program: predicates, their clauses and their directives."""

    def __init__(self, default_tabling: str = "variant"):
        if default_tabling not in ("variant", "subsumptive"):
            raise ValueError(f"unknown default_tabling: {default_tabling!r} "
                             "(variant or subsumptive)")
        self.default_tabling = default_tabling
        self.preds: Dict[PredKey, PredicateInfo] = {}
        self.auto_table_requested = False
        self._seq = 0
        # a directive or a rule since ``finalize`` last ran through; it
        # reads no fact
        self._changed = True

    # ------------------------------------------------------------------
    # predicate records

    def info(self, name: str, arity: int, create: bool = False) -> Optional[PredicateInfo]:
        key = (name, arity)
        pi = self.preds.get(key)
        if pi is None and create:
            if key in _RESERVED_HEADS:
                raise StoreError(f"cannot define built-in predicate {name}/{arity}")
            pi = PredicateInfo(name, arity)
            if arity:
                pi.indexes.append(ClauseIndex(IndexSpec((("arg", 1),))))
            self.preds[key] = pi
        return pi

    def user_predicates(self) -> List[PredicateInfo]:
        return [self.preds[k] for k in sorted(self.preds)]

    # ------------------------------------------------------------------
    # directives

    def apply_directive(self, term: Term) -> None:
        self._changed = True
        if type(term) is Atom:
            if term.name == "auto_table":
                self.auto_table_requested = True
                return
            raise DirectiveError(f"unknown directive: {term.name}")
        if type(term) is not Struct:
            raise DirectiveError(f"bad directive: {term_to_str(term)}")
        name = term.name
        if name == "table" and len(term.args) == 1:
            for spec in conj_items(term.args[0]):
                self._table_spec(spec)
        elif name == "dynamic" and len(term.args) == 1:
            for spec in conj_items(term.args[0]):
                self._declare_dynamic(_indicator(spec), incremental=False)
        elif name == "use_incremental_dynamic" and len(term.args) == 1:
            for spec in conj_items(term.args[0]):
                self._declare_dynamic(_indicator(spec), incremental=True)
        elif name == "index" and len(term.args) == 2:
            self._index_directive(term.args[0], term.args[1])
        else:
            raise DirectiveError(f"unknown directive: {term_to_str(term)}")

    def _table_spec(self, spec: Term) -> None:
        mode = self.default_tabling
        explicit_mode = False
        incremental = False
        while (type(spec) is Struct and spec.name == "as"
               and len(spec.args) == 2):
            how = spec.args[1]
            if type(how) is not Atom:
                raise DirectiveError(f"bad tabling mode: {term_to_str(how)}")
            if how.name in ("variant", "subsumptive"):
                mode = how.name
                explicit_mode = True
            elif how.name == "incremental":
                incremental = True
            else:
                raise DirectiveError(f"unknown tabling mode: {how.name}")
            spec = spec.args[0]

        sub: Optional[SubsumptionSpec] = None
        if (type(spec) is Struct and spec.name == "/" and len(spec.args) == 2
                and type(spec.args[0]) is Atom and type(spec.args[1]) is Int):
            key = _indicator(spec)
        elif type(spec) is Struct:
            key = (spec.name, len(spec.args))
            sub = self._answer_subsumption_spec(spec)
        else:
            raise DirectiveError(f"bad table spec: {term_to_str(spec)}")

        pi = self.info(key[0], key[1], create=True)
        if pi.dynamic:
            raise DirectiveError(
                f"{pi} is dynamic and cannot also be tabled")
        self._check_no_cut(pi)
        # the state this directive leaves, whichever directive declared
        # each part of it: a mode stated before stays unless one is now
        if not explicit_mode and pi.tabling not in ("none", mode):
            mode, explicit_mode = pi.tabling, True
        if sub is None:
            sub = pi.subsumption
        incremental = incremental or pi.incremental_table
        if sub is not None:
            if mode == "subsumptive" and explicit_mode:
                raise DirectiveError(
                    f"{pi}: answer subsumption requires variant tabling")
            if incremental:
                raise DirectiveError(
                    f"{pi}: answer subsumption cannot be incremental")
            mode = "variant"
        if incremental and mode == "subsumptive":
            raise DirectiveError(
                f"{pi}: incremental tabling requires variant tabling")
        pi.subsumption = sub
        pi.tabling = mode
        pi.incremental_table = incremental

    def _answer_subsumption_spec(self, spec: Struct) -> SubsumptionSpec:
        pos = -1
        found: Optional[Term] = None
        for i, a in enumerate(spec.args):
            if type(a) is Var:
                continue
            if found is not None:
                raise DirectiveError(
                    f"table spec {term_to_str(spec)}: more than one "
                    "aggregated argument")
            pos, found = i, a
        if found is None:
            raise DirectiveError(
                f"table spec {term_to_str(spec)}: no aggregated argument")
        if type(found) is Atom and found.name in _AS_BUILTINS:
            return SubsumptionSpec(kind=found.name, position=pos)
        if (type(found) is Struct and found.name == "-" and len(found.args) == 2):
            jkey = _indicator(found.args[0])
            if jkey[1] != 3:
                raise DirectiveError(
                    f"lattice join {jkey[0]}/{jkey[1]} must have arity 3")
            ident, _ = canonicalize(found.args[1])
            if not is_ground(ident):
                raise DirectiveError("lattice identity must be ground")
            return SubsumptionSpec(kind="lattice", position=pos,
                                   join_pred=jkey, identity=ident)
        if type(found) is Struct and found.name == "/":
            lkey = _indicator(found)
            if lkey[1] != 2:
                raise DirectiveError(
                    f"partial order {lkey[0]}/{lkey[1]} must have arity 2")
            return SubsumptionSpec(kind="po", position=pos, leq_pred=lkey)
        raise DirectiveError(
            f"bad answer subsumption spec: {term_to_str(found)}")

    def _declare_dynamic(self, key: PredKey, incremental: bool) -> None:
        pi = self.info(key[0], key[1], create=True)
        if pi.tabled:
            raise DirectiveError(f"{pi} is tabled and cannot also be dynamic")
        pi.dynamic = True
        pi.incremental_source = pi.incremental_source or incremental

    def _index_directive(self, ind: Term, spec: Term) -> None:
        key = _indicator(ind)
        pi = self.info(key[0], key[1], create=True)
        items, tail = list_parts(spec)
        if items or tail is NIL:
            specs = items
        else:
            specs = [spec]
        if Atom("trie") in specs:
            if len(specs) != 1:
                raise DirectiveError(
                    f"{pi}: a trie index cannot be combined with others")
            if self.clause_count(key):
                raise StoreError(
                    f"{pi}: trie index must be declared before any clauses")
            pi.trie_indexed = True
            parsed = [IndexSpec(tuple(("trie", i)
                                      for i in range(1, pi.arity + 1)))]
        elif pi.trie_indexed:
            raise DirectiveError(
                f"{pi}: predicate already has a trie index")
        else:
            parsed = [self._index_spec(pi, s) for s in specs]
        pi.indexes = [ClauseIndex(s) for s in parsed]
        for cl in pi.clauses:
            for ix in pi.indexes:
                ix.add(cl)

    def _index_spec(self, pi: PredicateInfo, spec: Term) -> IndexSpec:
        comps: List[Tuple[str, int]] = []
        for part in _plus_items(spec):
            if type(part) is Int:
                comps.append(("arg", part.value))
            elif (type(part) is Struct and part.name == "*"
                    and len(part.args) == 1 and type(part.args[0]) is Int):
                comps.append(("star", part.args[0].value))
            else:
                raise DirectiveError(
                    f"bad index component: {term_to_str(part)}")
        if not comps or len(comps) > 3:
            raise DirectiveError(
                f"{pi}: an index takes one to three components")
        for _, argno in comps:
            if not 1 <= argno <= pi.arity:
                raise DirectiveError(
                    f"{pi}: index argument {argno} out of range")
        return IndexSpec(tuple(comps))

    def _check_no_cut(self, pi: PredicateInfo) -> None:
        """Refuse to table ``pi``, before any of its state changes, if a
        clause of it holds a cut."""
        if pi.cut_clauses:
            raise StoreError(f"{pi}: cut inside a tabled predicate")

    # ------------------------------------------------------------------
    # clause addition / removal

    def add_clause(self, term: Term, at_load: bool = True) -> Optional[Clause]:
        """Store one clause.  Returns the Clause, or None for a duplicate
        fact in a trie-indexed predicate."""
        cterm, nvars = canonicalize(term)
        head, body = split_clause(cterm)
        if body:
            self._changed = True
        name, arity = functor_of(head)
        if (name, arity) in _RESERVED_HEADS:
            raise StoreError(f"cannot define built-in predicate {name}/{arity}")
        pi = self.info(name, arity, create=True)

        if not at_load:
            if pi.tabled:
                raise StoreError(f"{pi} is tabled; assert is not allowed")
            if not pi.dynamic:
                if self.clause_count(pi.key):
                    raise StoreError(
                        f"{pi} is static; declare it dynamic to assert")
                pi.dynamic = True

        cut = has_cut(body)
        if pi.tabled and cut:
            raise StoreError(f"{pi}: cut inside a tabled predicate")

        if pi.trie_indexed and body:
            raise StoreError(f"{pi}: trie-indexed predicates hold facts only")

        cl = Clause(head, body, nvars, self._next_seq(), cterm)
        for ix in pi.indexes:
            if not ix.add(cl):
                return None
        pi.cut_clauses += cut
        if body or not head.ground:
            pi.general_clauses += 1
        if not pi.trie_indexed:
            pi.clauses.append(cl)
        return cl

    def retract_clause(self, term: Term) -> bool:
        """Remove the first clause whose canonical form is a variant of
        ``term``.  Returns False when nothing matches."""
        pi, found = self._variants(term)
        if pi is not None and not pi.dynamic:
            raise StoreError(f"{pi} is static; declare it dynamic to retract")
        if not found:
            return False
        cl = found[0]
        if cl.body:
            self._changed = True
        if not pi.trie_indexed:
            pi.clauses.remove(cl)
        for ix in pi.indexes:
            ix.remove(cl)
        pi.cut_clauses -= has_cut(cl.body)
        if cl.body or not cl.head.ground:
            pi.general_clauses -= 1
        return True

    def holds_variant(self, term: Term) -> bool:
        """Whether a stored clause is a variant of ``term``."""
        return bool(self._variants(term)[1])

    def _variants(self, term: Term):
        """The predicate of ``term`` and its clauses whose canonical form
        is a variant of ``term``, in program order: ``(pi, clauses)``.
        The clause index narrows the search."""
        cterm, _ = canonicalize(term)
        head, _body = split_clause(cterm)
        pi = self.preds.get(functor_of(head))
        if pi is None:
            return None, []
        return pi, [cl for cl in self._candidates(pi, head)[1]
                    if cl.term == cterm]

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # retrieval

    def lookup_clauses(self, goal: Term, nv: int, occurs_check: bool = False
                       ) -> List[Tuple[Clause, dict]]:
        """The clauses whose head unifies with ``goal``, in program
        order, each with its unifier: ``[(clause, env)]``, the head's
        variables renamed above ``nv``."""
        pi = self.preds.get(functor_of(goal))
        if pi is None:
            return []
        out = []
        for cl in self._candidates(pi, goal)[1]:
            env = _head_unifier(cl.head, nv, goal, occurs_check)
            if env is not None:
                out.append((cl, env))
        return out

    def _candidates(self, pi: PredicateInfo, goal: Term):
        """The route of a lookup of ``goal``, a tag or an ``IndexSpec``,
        and the clauses it keeps in program order: every clause whose
        head may unify with ``goal``, and perhaps some that do not."""
        for ix in pi.indexes:
            hits = ix.lookup(goal)
            if hits is not None:
                return ix.spec, hits
        return "scan", pi.clauses

    # ------------------------------------------------------------------
    # program-wide analysis

    def call_graph(self):
        """Static predicate call graph: key -> {called key: whether some
        body literal calls it under tnot}, callees in call order.

        Covers plain calls, calls under tnot, and the goal argument of
        findall/3.  Built-ins other than findall contribute no edges.
        """
        graph: Dict[PredKey, Dict[PredKey, bool]] = {k: {} for k in self.preds}
        for key, pi in self.preds.items():
            edges = graph[key]
            for cl in pi.clauses:
                for lit in cl.body:
                    self._goal_edges(lit.goal, edges, lit.neg)
        return graph

    def _goal_edges(self, goal: Term, edges: Dict[PredKey, bool],
                    neg: bool) -> None:
        name, arity = functor_of(goal)
        if (name, arity) == ("findall", 3):
            sub = goal.args[1]
            if type(sub) is Struct and sub.name == "tnot" and len(sub.args) == 1:
                sub = sub.args[0]
            if is_callable(sub):
                self._goal_edges(sub, edges, False)
            return
        if (name, arity) in BUILTINS:
            return
        edges[name, arity] = neg or edges.get((name, arity), False)

    def run_auto_table(self) -> List[PredKey]:
        """Greedy feedback-vertex-set choice over the call graph.

        Predicates already tabled count first; then repeatedly table the
        predicate with the largest in-degree * out-degree product inside
        the remaining cyclic subgraph (ties broken by name then arity).
        Returns the newly tabled predicate keys in choice order.
        """
        graph = self.call_graph()
        verts = set(graph)
        removed = {k for k in verts if self.preds[k].tabled}
        chosen: List[PredKey] = []
        while True:
            live = verts - removed
            succs = lambda v: (s for s in graph[v] if s in live)
            cyc = cyclic_vertices(live, succs)
            if not cyc:
                break
            indeg = {v: 0 for v in cyc}
            outdeg = {v: 0 for v in cyc}
            for v in cyc:
                for s in graph[v]:
                    if s in cyc:
                        outdeg[v] += 1
                        indeg[s] += 1
            best = min(cyc, key=lambda v: (-(indeg[v] * outdeg[v]), v))
            pi = self.preds[best]
            self._check_no_cut(pi)
            pi.tabling = self.default_tabling
            pi.auto_tabled = True
            chosen.append(best)
            removed.add(best)
        return chosen

    def finalize(self) -> List[PredKey]:
        """End-of-load processing, once per change of the program: auto
        tabling, variant tabling above cuts and consistency checks."""
        if not self._changed:
            return []
        auto: List[PredKey] = []
        if self.auto_table_requested:
            auto = self.run_auto_table()
        pis = self.preds.values()
        readers = {k for k, pi in self.preds.items() if _reads_binding(pi)} \
            if any(pi.tabling == "subsumptive" for pi in pis) else None
        graph = None
        if readers or any(pi.subsumption for pi in pis):
            # looked up at the call, where the traced benchmark wraps it
            from .sccs import tarjan_sccs
            graph = self.call_graph()
            comps = tarjan_sccs(list(graph), graph.__getitem__)
            if readers:
                self._variant_above(readers, graph, comps)
            self._check_subsumption_stratified(graph, comps)
        if any(pi.incremental_table for pi in pis):
            self._mark_pruning(graph or self.call_graph())
        self._changed = False
        return auto

    def _variant_above(self, readers: Set[PredKey], graph, comps) -> None:
        """Table by variant every predicate that reaches one of
        ``readers`` through its calls: what a cut keeps, or what ``==``
        or ``findall/3`` finds, depends on how bound the call is, so a
        specific call must not read the table of a general one."""
        reach: Set[PredKey] = set()
        for scc in comps:       # callees first
            if any(k in readers or not reach.isdisjoint(graph[k])
                   for k in scc):
                reach.update(scc)
        for k in reach:
            if self.preds[k].tabling == "subsumptive":
                self.preds[k].tabling = "variant"

    def _mark_pruning(self, graph) -> None:
        """Set ``prunes`` on every predicate whose clauses, or those of
        the untabled predicates it reaches, hold a ``!`` or call
        ``findall/3``: what a cut keeps or findall collects can change
        when a clause is added, so its tables do not follow an assert by
        its delta (``incremental``)."""
        found = {k for k, pi in self.preds.items() if pi.cut_clauses or any(
            functor_of(lit.goal) == ("findall", 3)
            for cl in pi.clauses for lit in cl.body)}
        new = found
        while new:      # a tabled callee stands for its own calls
            new = {k for k, edges in graph.items() if k not in found and any(
                d in found and not self.preds[d].tabled for d in edges)}
            found |= new
        for k, pi in self.preds.items():
            pi.prunes = k in found

    def _check_subsumption_stratified(self, graph, comps) -> None:
        """An answer-subsumption predicate may not depend on itself
        through tnot: its aggregate is only safe once fully computed."""
        comp_of = {k: i for i, scc in enumerate(comps) for k in scc}
        # the SCCs with a call under tnot inside
        bad = {i for k, i in comp_of.items()
               if any(neg and comp_of.get(d) == i
                      for d, neg in graph[k].items())}
        for k, pi in self.preds.items():
            if pi.subsumption and comp_of[k] in bad:
                raise StoreError(
                    f"{pi}: answer subsumption in a cycle through tnot")

    # ------------------------------------------------------------------
    # statistics

    def clause_count(self, key: PredKey) -> int:
        pi = self.preds.get(key)
        if pi is None:
            return 0
        if pi.trie_indexed:
            return pi.indexes[0].trie.leaf_count
        return len(pi.clauses)


def _reads_binding(pi: PredicateInfo) -> bool:
    """Whether a clause of ``pi`` cuts or calls one of
    ``BINDING_READERS``."""
    return bool(pi.cut_clauses) or any(
        functor_of(lit.goal) in BINDING_READERS
        for cl in pi.clauses for lit in cl.body)


def _head_unifier(head: Term, nv: int, goal: Term, occurs_check: bool):
    """The unifier of ``head``, its variables renamed above ``nv``, with
    ``goal``, or None.  A ground side is matched one-sidedly: a ground
    head binds only the goal's variables, a ground goal only the head's."""
    if head.ground:
        return match(goal, head)
    if goal.ground:
        env = match(head, goal)
        return None if env is None else {k + nv: v for k, v in env.items()}
    return unify(rename(head, nv), goal, occurs_check=occurs_check)


def _plus_items(term: Term) -> List[Term]:
    """Flatten a left-associated '+' chain."""
    out: List[Term] = []
    while (type(term) is Struct and term.name == "+"
            and len(term.args) == 2):
        out.append(term.args[1])
        term = term.args[0]
    out.append(term)
    out.reverse()
    return out
