"""Occurrence polarity, dependency graphs, chains, chain formulas, and
tightness relative to a set of assumptions.

The rule dependency graph is never materialized (it is infinite up to
renaming); chains with canonical variable tags are enumerated directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .completion import CompletionResult, completion, desugar, simplify
from .semantics import (
    Interpretation, compile_sentence, enumerate_interpretations, is_acyclic,
    satisfies_fo,  # noqa: F401 -- kept importable: bench/tracer.py wraps it
)
from .syntax import (
    BASIC, BOT, TOP, And, Atom, Bot, Equality, Exists, Forall, Implies,
    Or, Program, Variable, conjoin, existential_closure,
    flatten_and, flatten_or, formula_to_str, free_variables, neg,
    rename_apart, rule_to_str, substitute, universal_closure,
)


# ---------------------------------------------------------------------------
# Occurrence polarity

@dataclass(frozen=True)
class OccurrenceInfo:
    predicate: str
    position: tuple     # path of child indices into the formula AST; an
                        # And/Or child is indexed by its place in ``items``
    atom: Atom
    positive: bool      # even number of enclosing implication antecedents
    negated: bool       # inside a subformula of the form F -> false


def classify_occurrences(f) -> list:
    """Every atom occurrence of ``f`` labeled with polarity and
    negatedness, in traversal order.

    An occurrence is negated when it lies inside the antecedent of an
    implication whose consequent is falsity; those implications also
    count toward the antecedent parity."""
    out: list = []
    stack = [(f, (), 0, False)]
    while stack:
        g, path, antecedents, negated = stack.pop()
        if isinstance(g, Atom):
            out.append(OccurrenceInfo(g.predicate, path, g,
                                      antecedents % 2 == 0, negated))
        elif isinstance(g, (And, Or)):
            stack.extend((x, path + (i,), antecedents, negated)
                         for i, x in reversed(list(enumerate(g.items))))
        elif isinstance(g, Implies):
            stack.append((g.right, path + (1,), antecedents, negated))
            stack.append((g.left, path + (0,), antecedents + 1,
                          negated or g.right == BOT))
        elif isinstance(g, (Forall, Exists)):
            stack.append((g.body, path + (0,), antecedents, negated))
        # Bot and Equality carry no atom occurrences
    return out


def _link_occurrences(body) -> list:
    """Positive nonnegated atom occurrences, in position order."""
    return [o for o in classify_occurrences(body) if o.positive and not o.negated]


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
    edges = {(r.head.predicate, occ.predicate)
             for r in d.rules if r.kind == BASIC
             for occ in _link_occurrences(r.body)}
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


def check_chain(c: Chain) -> None:
    """Validate the chain invariants: adjacent link condition and
    pairwise variable disjointness."""
    assert len(c.rules) == len(c.labels) + 1
    for i, label in enumerate(c.labels):
        body_occurrences = [o.atom for o in _link_occurrences(c.rules[i].body)]
        assert label in body_occurrences, "label must occur positively nonnegated"
        assert label.predicate == c.rules[i + 1].head.predicate
    seen: set = set()
    for r in c.rules:
        vs = r.variables()
        assert not (vs & seen), "chain rules must be variable-disjoint"
        seen |= vs


def chains(prog: Program, n: int) -> Iterator[Chain]:
    """All length-n chains, up to variable renaming: rule R_i carries
    canonical tag i+1 (matching the chain displays where the first rule
    uses x_1, y_1).  Deterministic order: rule index, then occurrence
    position."""
    if n < 0:
        raise ValueError("chain length must be nonnegative")
    d = desugar(prog)
    rules = [r for r in d.rules if r.kind == BASIC]
    renamed = [[rename_apart(r, tag) for r in rules] for tag in range(1, n + 2)]

    def extend(prefix: list, labels: list) -> Iterator[Chain]:
        i = len(prefix)
        if i == n + 1:
            yield Chain(tuple(prefix), tuple(labels))
            return
        if i == 0:
            for r in renamed[0]:
                yield from extend([r], [])
            return
        for occ in _link_occurrences(prefix[-1].body):
            for r in renamed[i]:
                if r.head.predicate == occ.predicate:
                    yield from extend(prefix + [r], labels + [occ.atom])

    yield from extend([], [])


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
    """The refuter's state at one node of its case-split tree: the set of
    conjuncts, split into positive atoms (in first-occurrence order),
    negated atoms and disequalities, and a union-find over the terms of
    the equalities.  Conjuncts are only ever added; a case-split child
    starts from a copy."""

    def __init__(self):
        self.conjuncts: set = set()
        self.pos: list = []
        self.neg: list = []
        self.diseqs: list = []
        self.parent: dict = {}
        self.expanded = 0       # pos[:expanded] have had their unit expansion

    def child(self, conjuncts) -> "_Node":
        node = _Node()
        node.conjuncts = set(self.conjuncts)
        node.pos = list(self.pos)
        node.neg = list(self.neg)
        node.diseqs = list(self.diseqs)
        node.parent = dict(self.parent)
        node.expanded = self.expanded
        node.add(conjuncts)
        return node

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def add(self, conjuncts) -> bool:
        """Add the conjuncts not present yet; True when there was one."""
        added = False
        for c in conjuncts:
            if c in self.conjuncts:
                continue
            self.conjuncts.add(c)
            added = True
            if isinstance(c, Atom):
                self.pos.append(c)
            elif isinstance(c, Equality):
                ra, rb = self.find(c.left), self.find(c.right)
                if ra != rb:
                    self.parent[ra] = rb
            elif isinstance(c, Implies) and c.right == BOT:
                if isinstance(c.left, Atom):
                    self.neg.append(c.left)
                elif isinstance(c.left, Equality):
                    self.diseqs.append(c.left)
            # other shapes are opaque to the refuter (sound: ignoring
            # conjuncts only weakens the refutation)
        return added

    def clashes(self, gamma_diseqs) -> bool:
        """A disequality between congruent terms, or an atom both
        asserted and negated up to congruence."""
        find = self.find
        for e in self.diseqs + gamma_diseqs:
            if find(e.left) == find(e.right):
                return True
        for b in self.neg:
            for a in self.pos:
                if a.predicate == b.predicate and all(
                        find(s) == find(t) for s, t in zip(a.args, b.args)):
                    return True
        return False


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


_SUPPORTED_LITERAL = (Atom, Equality)


def _expand_atom(atom: Atom, defs: dict):
    """Instantiated completed-definition body of the atom as a tuple of
    disjuncts (each a tuple of literal conjuncts), or None when the
    definition's shape is not usable by the refuter."""
    if atom.predicate not in defs:
        return None
    head_vars, body = defs[atom.predicate]
    inst = substitute(body, dict(zip(head_vars, atom.args)))
    disjuncts = []
    for d in flatten_or(inst):
        if d == BOT:
            continue
        conjuncts = tuple(flatten_and(d))
        for c in conjuncts:
            if isinstance(c, _SUPPORTED_LITERAL):
                continue
            if (isinstance(c, Implies) and c.right == BOT
                    and isinstance(c.left, _SUPPORTED_LITERAL)):
                continue
            return None
        disjuncts.append(conjuncts)
    return tuple(disjuncts)


class _Expansions(dict):
    """Atom -> ``_expand_atom`` of it, computed on first lookup.  An
    expansion depends only on the atom and the completion, so one table
    serves every chain and every Gamma checked against that completion."""

    def __init__(self, defs: dict):
        super().__init__()
        self.defs = defs

    def __missing__(self, atom):
        value = self[atom] = _expand_atom(atom, self.defs)
        return value


def _refute(node: _Node, gamma_diseqs, expansions, split_done: frozenset,
            depth: int) -> bool:
    for _ in range(MAX_SATURATION_ROUNDS):
        if node.clashes(gamma_diseqs):
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
            if all(_refute(node.child(d), gamma_diseqs, expansions,
                           split_done | {atom}, depth - 1)
                   for d in disjuncts):
                return True
    return False


def _refuter_tables(gamma, comp: CompletionResult):
    """The refuter's expansion table, over its definition table
    (predicate -> head variables and simplified forward body of its
    completed definition), and Gamma's ground disequalities.
    ``check_gamma_tight`` refutes every chain against one completion and
    Gamma, so both are kept on the completion, the disequalities with
    the Gamma they came from."""
    expansions = comp.derived.get("refuter_expansions")
    if expansions is None:
        defs = {}
        for p, sentence in comp.completed_definitions:
            f = sentence
            head_vars = []
            while isinstance(f, Forall):
                head_vars.append(f.var)
                f = f.body
            # f is (p(x) -> D) & (D -> p(x)); use the forward direction
            if isinstance(f, And) and isinstance(f.items[0], Implies):
                defs[p] = (head_vars, simplify(f.items[0].right))
        expansions = comp.derived["refuter_expansions"] = _Expansions(defs)
    gamma = tuple(gamma)
    cached = comp.derived.get("refuter_gamma")
    if cached is None or cached[0] != gamma:
        cached = comp.derived["refuter_gamma"] = (
            gamma, _ground_disequalities(gamma))
    return expansions, cached[1]


def refute_chain_formula(fc, gamma, comp: CompletionResult) -> bool:
    """Sound syntactic refutation of a chain formula: literal clash and
    congruence closure over the chain's equalities, with bounded
    expansion of atoms through their (simplified) completed definitions.
    Gamma contributes its ground disequalities.

    Atoms whose definition has one disjunct are expanded in place, for at
    most ``MAX_SATURATION_ROUNDS`` rounds; then the formula is split over
    each multi-disjunct definition, nested at most ``MAX_SPLIT_DEPTH``
    deep.  Each
    atom is expanded once per completion, and a split's children carry
    their parent's conjuncts and congruence classes forward."""
    expansions, gamma_diseqs = _refuter_tables(gamma, comp)
    root = _Node()
    root.add(flatten_and(fc))
    return _refute(root, gamma_diseqs, expansions, frozenset(),
                   MAX_SPLIT_DEPTH)


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
    of a chain formula; ``unknown`` otherwise.  Each open chain's closure
    is compiled when the first interpretation that satisfies Gamma and
    the completion reaches it, so a search that no interpretation gets
    through compiles one sentence."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    if universe_bound < 1:
        raise ValueError("universe bound must be at least 1")
    comp = completion(prog)
    open_chains = []
    for c in chains(prog, n):
        fc = chain_formula(c)
        if not refute_chain_formula(fc, gamma, comp):
            open_chains.append((c, existential_closure(fc)))
    if not open_chains:
        return TightnessVerdict(ENTAILED, n, universe_bound)
    # compiled only now: a search that never runs compiles nothing
    targets = compile_sentence(conjoin(list(gamma) + comp.sentences()))
    compiled = [None] * len(open_chains)
    # Only restricted-growth constant maps: a permutation of the universe
    # carries a countermodel under any other map to one under the
    # restricted-growth map of its orbit, which enumeration reaches
    # earlier, so the first countermodel found is enumeration's first.
    for m in range(1, universe_bound + 1):
        for interp in enumerate_interpretations(prog.signature, m,
                                                canonical=True):
            if not targets(interp):
                continue
            for i, (c, closed) in enumerate(open_chains):
                if compiled[i] is None:
                    compiled[i] = compile_sentence(closed)
                if compiled[i](interp):
                    return TightnessVerdict(COUNTERMODEL, n, universe_bound,
                                            chain=c, interpretation=interp)
    return TightnessVerdict(UNKNOWN, n, universe_bound)


# ---------------------------------------------------------------------------
# DOT and TPTP export

def export_dot(g) -> str:
    """DOT digraph text for a predicate dependency graph or a chain
    (a rule-graph slice, with edges labeled by their witness atoms)."""
    lines = ["digraph {"]
    if isinstance(g, PredicateDependencyGraph):
        for v in g.vertices:
            lines.append(f'  "{v}";')
        for p, q in g.edges:
            lines.append(f'  "{p}" -> "{q}";')
    elif isinstance(g, Chain):
        names = []
        for i, r in enumerate(g.rules):
            names.append(f"r{i}")
            lines.append(f'  r{i} [label="{rule_to_str(r)}"];')
        for i, label in enumerate(g.labels):
            lines.append(
                f'  r{i} -> r{i + 1} [label="{formula_to_str(label)}"];')
    else:
        raise TypeError(f"cannot export {type(g).__name__} as DOT")
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
    if isinstance(f, Forall):
        return f"(![{f.var.name}]: {_tptp_formula(f.body)})"
    if isinstance(f, Exists):
        return f"(?[{f.var.name}]: {_tptp_formula(f.body)})"
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
