"""Link atoms, dependency graphs, chains, chain formulas, and tightness
relative to a set of assumptions.

The rule dependency graph is never materialized (it is infinite up to
renaming); chains with canonical variable tags are enumerated directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from .completion import (
    CompletionResult, completion, desugar, simplify, simplify_completion,
)
from .semantics import (
    Interpretation, ResourceGuardError, compile_sentence, depth_cuts,
    enumerate_interpretations, guard_ceiling, is_acyclic,
    satisfies_fo,  # noqa: F401 -- kept importable: bench/tracer.py wraps it
)
from .syntax import (
    BASIC, BOT, TOP, And, Atom, Bot, Equality, Exists, Forall, Implies,
    Or, Program, conjoin, existential_closure,
    flatten_and, flatten_or, formula_to_str, free_variables, neg,
    rename_apart, rule_to_str, universal_closure,
    substitute,  # noqa: F401 -- kept importable: bench/tracer.py wraps it
)


# ---------------------------------------------------------------------------
# Link atoms

def link_atoms(f) -> list:
    """The positive nonnegated atom occurrences of ``f``, in traversal
    order: those under an even number of implication antecedents and in
    no antecedent of an implication ``F -> false``.  Only these link
    rules in the dependency graph and in chains."""
    out: list = []
    stack = [(f, True)]
    while stack:
        g, positive = stack.pop()
        if isinstance(g, Atom):
            if positive:
                out.append(g)
        elif isinstance(g, (And, Or)):
            stack.extend((x, positive) for x in reversed(g.items))
        elif isinstance(g, Implies):
            stack.append((g.right, positive))
            if g.right != BOT:   # a negated antecedent links nothing
                stack.append((g.left, not positive))
        elif isinstance(g, (Forall, Exists)):
            stack.append((g.body, positive))
        # Bot and Equality carry no atom occurrences
    return out


# ---------------------------------------------------------------------------
# Predicate dependency graph and tightness

@dataclass(frozen=True)
class PredicateDependencyGraph:
    vertices: tuple   # predicate names, sorted
    edges: tuple      # tuple[(p, q), ...] sorted


def predicate_dependency_graph(prog: Program) -> PredicateDependencyGraph:
    """Edge p -> q whenever a rule with head predicate p has a positive
    nonnegated occurrence of q in its body.  The program is desugared
    first."""
    d = desugar(prog)
    edges = {(r.head.predicate, a.predicate)
             for r in d.rules if r.kind == BASIC
             for a in link_atoms(r.body)}
    return PredicateDependencyGraph(
        vertices=tuple(sorted(p for p, _ in prog.predicates)),
        edges=tuple(sorted(edges)),
    )


def is_tight(prog: Program) -> bool:
    """True iff the predicate dependency graph has no directed cycle
    (a self-loop is a cycle)."""
    graph = predicate_dependency_graph(prog)
    succ: dict = {v: [] for v in graph.vertices}
    for p, q in graph.edges:
        succ[p].append(q)
    return is_acyclic(succ)


# ---------------------------------------------------------------------------
# Chains

@dataclass(frozen=True)
class Chain:
    rules: tuple    # renamed rules R_0 .. R_n, rule R_i carrying tag i+1
    labels: tuple   # label atoms; labels[i-1] links R_{i-1} to R_i


def chain_count(rules, n: int) -> int:
    """The number of length-n chains over the basic rules ``rules``,
    counted without enumerating them: a rule starts one chain of length
    0, and for k > 0 one per step (a link atom of its body and a rule
    whose head has that atom's predicate) and chain of length k - 1 that
    the step's rule starts.  Stops early once no rule starts a chain."""
    steps = [[j for a in link_atoms(r.body)
              for j, s in enumerate(rules) if s.head.predicate == a.predicate]
             for r in rules]
    counts = [1] * len(rules)
    for _ in range(n):
        counts = [sum(counts[j] for j in step) for step in steps]
        if not any(counts):
            break
    return sum(counts)


def chains(prog: Program, n: int) -> Iterator[Chain]:
    """All length-n chains, up to variable renaming: rule R_i carries
    canonical tag i+1 (matching the chain displays where the first rule
    uses x_1, y_1).  Deterministic order: rule index, then link atom
    position.

    Before yielding anything, raises ``ResourceGuardError`` when the
    chains hold more rules in all, (n + 1) per chain, than
    ``guard_ceiling()``: a rule with several link atoms of its own
    predicate multiplies the chains at every step."""
    if n < 0:
        raise ValueError("chain length must be nonnegative")
    d = desugar(prog)
    rules = [r for r in d.rules if r.kind == BASIC]
    count = chain_count(rules, n)
    limit = guard_ceiling()
    if count * (n + 1) > limit:
        raise ResourceGuardError(
            f"{count * (n + 1)} chain rules in {count} chains of length {n} "
            f"exceed the ceiling of {limit}")
    if not count:
        return
    renamed = [[rename_apart(r, tag) for r in rules] for tag in range(1, n + 2)]

    # depth first on an explicit stack, so a long chain cannot exhaust
    # the recursion limit; successors are pushed reversed to pop in order
    stack = [([r], []) for r in reversed(renamed[0])]
    while stack:
        prefix, labels = stack.pop()
        i = len(prefix)
        if i == n + 1:
            yield Chain(tuple(prefix), tuple(labels))
            continue
        stack.extend(reversed([(prefix + [r], labels + [a])
                               for a in link_atoms(prefix[-1].body)
                               for r in renamed[i]
                               if r.head.predicate == a.predicate]))


def chain_formula(c: Chain):
    """Conjunction of the link equalities s^i = t^i and all rule bodies,
    flattened left-associatively; bodies equal to truth are dropped."""
    conjuncts: list = []
    for label, rule in zip(c.labels, c.rules[1:]):
        for s, t in zip(label.args, rule.head.args):
            conjuncts.append(Equality(s, t))
    for r in c.rules:
        if r.body != TOP:
            conjuncts.extend(flatten_and(r.body))
    return conjoin(conjuncts)


def chain_to_str(c: Chain) -> str:
    lines = [rule_to_str(c.rules[0])]
    for label, rule in zip(c.labels, c.rules[1:]):
        lines.append(f"  --[{formula_to_str(label)}]-->")
        lines.append(rule_to_str(rule))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Syntactic refutation of chain formulas

# The refuter's two limits.  A node saturates for at most
# MAX_SATURATION_ROUNDS rounds, each adding one unit expansion, and case
# splits nest at most MAX_SPLIT_DEPTH deep.  A chain still open at a
# limit stays open: the limits can turn ``entailed`` into ``unknown``,
# never the other way round.
MAX_SATURATION_ROUNDS = 200
MAX_SPLIT_DEPTH = 4


class _Node:
    """The refuter's state at one node of its case-split tree, over the
    check's term numbers: the set of encoded conjuncts, split into
    positive atoms (in first-occurrence order), negated ``(p, ids)`` and
    disequal ``(i, j)`` with Gamma's ground disequalities, and a
    union-find in which a number with no parent is a root.  Conjuncts
    are only ever added; a case-split child starts from a copy."""

    __slots__ = ("conjuncts", "pos", "neg", "diseqs", "parent", "expanded")

    def __init__(self, diseqs):
        self.conjuncts: set = set()
        self.pos: list = []
        self.neg: list = []
        self.diseqs: list = list(diseqs)
        self.parent: dict = {}
        self.expanded = 0       # pos[:expanded] have had their unit expansion

    def child(self, conjuncts) -> "_Node":
        node = _Node(self.diseqs)
        node.conjuncts = self.conjuncts.copy()
        node.pos = self.pos[:]
        node.neg = self.neg[:]
        node.parent = self.parent.copy()
        node.expanded = self.expanded
        node.add(conjuncts)
        return node

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def add(self, conjuncts) -> bool:
        """Add the encoded conjuncts not present yet; True when there
        was one."""
        added = False
        for c in conjuncts:
            if c in self.conjuncts:
                continue
            self.conjuncts.add(c)
            added = True
            kind = c[0]
            if kind == 0:
                self.pos.append(c)
            elif kind == 1:
                ra, rb = self.find(c[1]), self.find(c[2])
                if ra != rb:
                    self.parent[ra] = rb
            elif kind == 2:
                self.neg.append(c[1:])
            else:
                self.diseqs.append(c[1:])
        return added

    def clashes(self) -> bool:
        """A disequality between congruent terms, or an atom both
        asserted and negated up to congruence: one set of negated
        (predicate, root numbers) keys, probed by each positive atom."""
        find = self.find
        for i, j in self.diseqs:
            if find(i) == find(j):
                return True
        negated = {(p, tuple(map(find, ids))) for p, ids in self.neg}
        return bool(negated) and any((p, tuple(map(find, ids))) in negated
                                     for _, p, ids in self.pos)


def _ground_disequalities(gamma) -> list:
    """Variable-free t != s members of Gamma (after stripping universal
    quantifiers that do not bind anything in the body)."""
    out = []
    for s in gamma:
        f = s
        while isinstance(f, Forall):
            f = f.body
        for c in flatten_and(f):
            if (isinstance(c, Implies) and c.right == BOT
                    and isinstance(c.left, Equality)
                    and not free_variables(c.left)):
                out.append(c.left)
    return out


def _encode(c, number):
    """The literal tuple of conjunct ``c``, its terms numbered by
    ``number``: ``(0, p, ids)`` for an atom, ``(1, i, j)`` for an
    equality, ``(2, p, ids)`` for a negated atom and ``(3, i, j)`` for a
    disequality; None when ``c`` is opaque to the refuter."""
    kind = 0
    if isinstance(c, Implies) and c.right == BOT:
        kind, c = 2, c.left
    if isinstance(c, Atom):
        return (kind, c.predicate, tuple(map(number, c.args)))
    if isinstance(c, Equality):
        return (kind + 1, number(c.left), number(c.right))
    return None


class _Expansions(dict):
    """Encoded atom -> its predicate's template (see ``refuter_tables``)
    with each head variable number ``~i`` mapped to the atom's i-th term
    number, computed on first lookup.  An expansion depends only on the
    atom and the completion, so one table serves every chain of a check.
    ``numbers`` is the check's one term table, in order of first sight."""

    __slots__ = ("templates", "numbers")

    def __init__(self):
        super().__init__()
        self.templates: dict = {}
        self.numbers: dict = {}

    def number(self, t) -> int:
        return self.numbers.setdefault(t, len(self.numbers))

    def __missing__(self, key):
        ids = key[2]

        def at(n):
            return ids[~n] if n < 0 else n
        template = self.templates.get(key[1])
        # None (opaque or undefined) and () (impossible) are kept as is
        value = self[key] = template and tuple(
            tuple((k, at(x), at(y)) if k & 1 else (k, x, tuple(map(at, y)))
                  for k, x, y in d) for d in template)
        return value


def _refute(node: _Node, expansions, split_done: frozenset,
            depth: int) -> bool:
    for _ in range(MAX_SATURATION_ROUNDS):
        if node.clashes():
            return True
        # saturate with single-disjunct (unit) expansions, one per round
        progressed = False
        while node.expanded < len(node.pos):
            disjuncts = expansions[node.pos[node.expanded]]
            node.expanded += 1
            if disjuncts is None:
                continue
            if not disjuncts:
                return True   # empty definition body: the atom is impossible
            if len(disjuncts) == 1 and node.add(disjuncts[0]):
                progressed = True
                break
        if not progressed:
            break
    if depth <= 0:
        return False
    # case split over multi-disjunct definitions
    for atom in node.pos:
        if atom in split_done:
            continue
        disjuncts = expansions[atom]
        if disjuncts and len(disjuncts) > 1:
            if all(_refute(node.child(d), expansions, split_done | {atom},
                           depth - 1)
                   for d in disjuncts):
                return True
    return False


def refuter_tables(gamma, comp: CompletionResult):
    """The refuter's tables for one check: the expansion table and
    Gamma's ground disequalities as pairs of term numbers.

    Each definition ``p(X1, ..., Xk) :- D`` of the completion is encoded
    once, as the *template* of D as given, which the caller has
    simplified (``simplify_completion``): its disjuncts other than
    false, each a tuple of encoded conjuncts in which head variable
    ``X(i+1)`` is numbered ``~i`` and every other term takes its number
    from the expansion table's term table.  The template is None when a
    conjunct is opaque."""
    expansions = _Expansions()
    number = expansions.number
    for d in comp.definitions:
        head = {x: ~i for i, x in enumerate(d.head.args)}

        def term(t, head=head):
            return head[t] if t in head else number(t)
        disjuncts = [tuple(_encode(c, term) for c in flatten_and(g))
                     for g in flatten_or(d.body) if g != BOT]
        expansions.templates[d.head.predicate] = (
            None if any(None in g for g in disjuncts) else tuple(disjuncts))
    return expansions, [_encode(e, number)[1:]
                        for e in _ground_disequalities(gamma)]


def refute_chain_formula(fc, tables) -> bool:
    """Sound syntactic refutation of a chain formula: literal clash and
    congruence closure over the chain's equalities, with bounded
    expansion of atoms through their (simplified) completed definitions.
    ``tables`` is ``refuter_tables(gamma, comp)`` for a simplified
    completion ``comp``; Gamma contributes its ground disequalities.

    Atoms whose definition has one disjunct are expanded in place, for at
    most ``MAX_SATURATION_ROUNDS`` rounds; then the formula is split over
    each multi-disjunct definition, nested at most ``MAX_SPLIT_DEPTH``
    deep.  Each atom is expanded once per table, by mapping its term
    numbers into its predicate's template, and a split's children carry
    their parent's conjuncts and congruence classes forward.  Conjuncts
    that are not literals are dropped (sound: ignoring conjuncts only
    weakens the refutation)."""
    expansions, gamma_diseqs = tables
    number = expansions.number
    root = _Node(gamma_diseqs)
    root.add([c for c in (_encode(g, number) for g in flatten_and(fc))
              if c is not None])
    return _refute(root, expansions, frozenset(), MAX_SPLIT_DEPTH)


# ---------------------------------------------------------------------------
# Gamma-tightness

ENTAILED = "entailed"
COUNTERMODEL = "countermodel"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class TightnessVerdict:
    status: str
    n_used: int
    bound: int
    chain: Optional[Chain] = None
    interpretation: Optional[Interpretation] = None


def check_gamma_tight(prog: Program, gamma, n: int,
                      universe_bound: int = 2) -> TightnessVerdict:
    """Check the chain-formula entailment for every length-n chain.

    Returns ``entailed`` only when the syntactic refuter closes every
    chain; ``countermodel`` when some interpretation within the universe
    bound satisfies Gamma, the completion, and the existential closure
    of a chain formula; ``unknown`` otherwise.  The completion is
    simplified once (``simplify_completion``), and the refuter's tables
    and the cuts both read it; the tables are built before the chain
    loop and serve every chain.  The search walks the interpretations
    as an exhaustive ``check_equivalence`` does, dropping a subtree at
    the first depth where a sentence of Gamma or the completion fails
    (``depth_cuts``), so only their models are built whole.  The cuts
    are compiled once some chain stays open, and each closure,
    simplified, when the first such model reaches it.  Raises
    ``ResourceGuardError`` as ``chains`` does, before refuting any
    chain."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    if universe_bound < 1:
        raise ValueError("universe bound must be at least 1")
    comp = simplify_completion(completion(prog))
    tables = refuter_tables(gamma, comp)
    open_chains = []
    for c in chains(prog, n):
        fc = chain_formula(c)
        if not refute_chain_formula(fc, tables):
            open_chains.append((c, existential_closure(fc)))
    if not open_chains:
        return TightnessVerdict(ENTAILED, n, universe_bound)
    # Gamma and the completion as one list, each sentence at its own
    # depth: the search counts no drops, so none waits for Gamma
    cuts, _ = depth_cuts(prog.signature, [*gamma, *comp.sentences()],
                         Counter())
    compiled = [None] * len(open_chains)
    # Only restricted-growth constant maps: a permutation of the universe
    # carries a countermodel under any other map to one under the
    # restricted-growth map of its orbit, which enumeration reaches
    # earlier, so the first countermodel found is enumeration's first.
    for m in range(1, universe_bound + 1):
        for interp in enumerate_interpretations(prog.signature, m,
                                                canonical=True, cuts=cuts):
            for i, (c, closed) in enumerate(open_chains):
                if compiled[i] is None:
                    compiled[i] = compile_sentence(simplify(closed))
                if compiled[i](interp):
                    return TightnessVerdict(COUNTERMODEL, n, universe_bound,
                                            chain=c, interpretation=interp)
    return TightnessVerdict(UNKNOWN, n, universe_bound)


# ---------------------------------------------------------------------------
# DOT and TPTP export

def export_dot(graph: PredicateDependencyGraph) -> str:
    """DOT digraph text for a predicate dependency graph."""
    lines = ["digraph {"]
    lines += [f'  "{v}";' for v in graph.vertices]
    lines += [f'  "{p}" -> "{q}";' for p, q in graph.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tptp_term(t) -> str:
    return t.name


def _tptp_formula(f) -> str:
    if isinstance(f, Bot):
        return "$false"
    if f == TOP:
        return "$true"
    if isinstance(f, Atom):
        if f.args:
            return f"{f.predicate}({','.join(_tptp_term(t) for t in f.args)})"
        return f.predicate
    if isinstance(f, Equality):
        return f"({_tptp_term(f.left)} = {_tptp_term(f.right)})"
    if isinstance(f, Implies):
        if f.right == BOT:
            if isinstance(f.left, Equality):
                return f"({_tptp_term(f.left.left)} != {_tptp_term(f.left.right)})"
            return f"~{_tptp_formula(f.left)}"
        return f"({_tptp_formula(f.left)} => {_tptp_formula(f.right)})"
    if isinstance(f, (And, Or)):
        # left-folded into binary TPTP: p & q & r is ((p & q) & r)
        op = " & " if isinstance(f, And) else " | "
        first, *rest = f.items
        out = _tptp_formula(first)
        for g in rest:
            out = f"({out}{op}{_tptp_formula(g)})"
        return out
    if isinstance(f, (Forall, Exists)):
        # a run of quantifiers in a loop: a closure over many variables
        # must not exhaust the recursion limit
        prefix = []
        while isinstance(f, (Forall, Exists)):
            q = "!" if isinstance(f, Forall) else "?"
            prefix.append(f"({q}[{f.var.name}]: ")
            f = f.body
        return "".join(prefix) + _tptp_formula(f) + ")" * len(prefix)
    raise TypeError(f"not a formula: {f!r}")


def export_tptp(gamma, comp: CompletionResult, fc) -> str:
    """A FOF problem file: Gamma members and completion sentences as
    axioms, the universally closed negated chain formula as conjecture."""
    lines = []
    for i, s in enumerate(gamma, start=1):
        lines.append(f"fof(gamma_{i}, axiom, {_tptp_formula(s)}).")
    for p, s in comp.completed_definitions:
        lines.append(f"fof(comp_{p}, axiom, {_tptp_formula(s)}).")
    for i, s in enumerate(comp.constraint_sentences, start=1):
        lines.append(f"fof(constraint_{i}, axiom, {_tptp_formula(s)}).")
    conjecture = universal_closure(neg(fc))
    lines.append(f"fof(chain_refutation, conjecture, {_tptp_formula(conjecture)}).")
    return "\n".join(lines) + "\n"
