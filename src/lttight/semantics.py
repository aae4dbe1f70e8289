"""Finite first-order interpretations, grounding, reducts, and
stable/supported/tight-on checks.  First-order sentences are evaluated
by functions compiled in ``evaluation``; reducts are folded over
numbered atoms and searched for a smaller model in ``stability``.

Universe elements are canonical ids ``0 .. m-1`` rendered as
``e0, e1, ...`` in output.  Interpretations need not be Herbrand: the
constant map may identify distinct constants.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from itertools import product
from random import Random
from typing import Iterator, Optional

from .completion import desugar, is_desugared
from .evaluation import GroundingError, compile_bindings, compile_sentence
from .stability import (
    BOT, TOP, Conj, Disj, fold_instance, has_smaller_model, implies, junction,
)
from .syntax import (
    BASIC, CONSTRAINT, Atom, Bot, And, Equality, Exists, Forall, Implies,
    Or, Program, Signature, Variable, conjoin,
)

DEFAULT_ENUMERATION_CEILING = 2_000_000
DEFAULT_STABILITY_CAP = 24


class ResourceGuardError(Exception):
    """Raised when a requested search exceeds the configured ceiling."""


def guard_ceiling(default: int = DEFAULT_ENUMERATION_CEILING) -> int:
    """The enumeration ceiling: LT_TIGHT_GUARD_CEILING when set, else
    ``default``.  A value that is not an integer raises ValueError."""
    value = os.environ.get("LT_TIGHT_GUARD_CEILING")
    if not value:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"LT_TIGHT_GUARD_CEILING must be an integer, not {value!r}") from None


# ---------------------------------------------------------------------------
# Ground formulas

@dataclass(frozen=True)
class GBot:
    pass


@dataclass(frozen=True)
class GAtom:
    predicate: str
    args: tuple = ()


@dataclass(frozen=True)
class GAnd:
    items: tuple = ()


@dataclass(frozen=True)
class GOr:
    items: tuple = ()


@dataclass(frozen=True)
class GImplies:
    left: object
    right: object


G_BOT = GBot()
G_TOP = GAnd(())


@dataclass(frozen=True)
class GroundRule:
    head: GAtom
    body: object


@dataclass(frozen=True)
class GroundProgram:
    rules: tuple  # tuple[GroundRule, ...]


def _elem(e: int) -> str:
    return f"e{e}"


def ground_to_str(g) -> str:
    if isinstance(g, GBot):
        return "false"
    if isinstance(g, GAtom):
        if g.args:
            return f"{g.predicate}({', '.join(_elem(e) for e in g.args)})"
        return g.predicate
    if isinstance(g, GAnd):
        if not g.items:
            return "true"
        return "(" + " & ".join(ground_to_str(x) for x in g.items) + ")"
    if isinstance(g, GOr):
        if not g.items:
            return "false"
        return "(" + " | ".join(ground_to_str(x) for x in g.items) + ")"
    if isinstance(g, GImplies):
        return f"({ground_to_str(g.left)} -> {ground_to_str(g.right)})"
    raise TypeError(f"not a ground formula: {g!r}")


# ---------------------------------------------------------------------------
# Interpretations

@dataclass(frozen=True)
class Interpretation:
    universe: int
    consts: tuple       # tuple[(name, element), ...] sorted by name
    extensions: tuple   # tuple[(predicate, tuple[tuple[int,...], ...]), ...]
                        # sorted by predicate, each extension sorted
    # Indexes built once from the two tuples above: name -> element and
    # predicate -> frozenset of tuples.
    _consts: dict = field(init=False, repr=False, compare=False)
    _exts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_consts", dict(self.consts))
        object.__setattr__(self, "_exts",
                           {p: frozenset(ts) for p, ts in self.extensions})

    def const(self, name: str) -> int:
        return self._consts[name]

    def extension(self, predicate: str) -> frozenset:
        return self._exts[predicate]

    def true_atoms(self) -> frozenset:
        out = set()
        for p, tuples in self.extensions:
            for t in tuples:
                out.add(GAtom(p, t))
        return frozenset(out)

    def literal(self) -> str:
        parts = [f"universe={self.universe}"]
        for name, e in self.consts:
            parts.append(f"{name}={_elem(e)}")
        for p, tuples in self.extensions:
            body = ",".join("(" + ",".join(_elem(e) for e in t) + ")"
                            for t in sorted(tuples))
            parts.append(f"{p}={{{body}}}")
        return "; ".join(parts)


def make_interpretation(universe: int, consts: dict, extensions: dict) -> Interpretation:
    """An interpretation in canonical form: constants and predicates
    sorted by name, each extension's tuples sorted and distinct."""
    return Interpretation(
        universe=universe,
        consts=tuple(sorted(consts.items())),
        extensions=tuple(sorted(
            (p, tuple(sorted({tuple(t) for t in ts}))) for p, ts in extensions.items())),
    )


_LITERAL_ELEM = re.compile(r"e(\d+)$")


def parse_interpretation(text: str) -> Interpretation:
    """Parse the interpretation literal format, e.g.
    ``universe=2; a=e0; b=e1; p={(e0),(e1)}; q={(e1)}``."""
    parts = [p.strip() for p in text.strip().split(";") if p.strip()]
    if not parts or not parts[0].startswith("universe="):
        raise ValueError("interpretation literal must start with universe=<m>")
    universe = int(parts[0].split("=", 1)[1])
    consts: dict = {}
    extensions: dict = {}

    def elem(s: str) -> int:
        m = _LITERAL_ELEM.match(s.strip())
        if not m:
            raise ValueError(f"bad element name {s!r}")
        e = int(m.group(1))
        if not 0 <= e < universe:
            raise ValueError(f"element {s!r} outside universe of size {universe}")
        return e

    for part in parts[1:]:
        name, _, rhs = part.partition("=")
        name = name.strip()
        rhs = rhs.strip()
        if rhs.startswith("{"):
            if not rhs.endswith("}"):
                raise ValueError(f"bad extension for {name}")
            inner = rhs[1:-1].strip()
            tuples = []
            if inner:
                for m in re.finditer(r"\(([^)]*)\)", inner):
                    fields = [f for f in m.group(1).split(",") if f.strip()]
                    tuples.append(tuple(elem(f) for f in fields))
            extensions[name] = tuples
        else:
            consts[name] = elem(rhs)
    return make_interpretation(universe, consts, extensions)


# ---------------------------------------------------------------------------
# Enumeration and sampling

def interpretation_count(sig: Signature, m: int) -> int:
    count = m ** len(sig.constants)
    for _, arity in sig.predicates:
        count *= 2 ** (m ** arity)
    return count


def enumerate_interpretations(sig: Signature, m: int,
                              ceiling: Optional[int] = None) -> Iterator[Interpretation]:
    """All interpretations with universe 0..m-1, in deterministic
    lexicographic order.  Refuses when the state count exceeds the
    guard ceiling (see LT_TIGHT_GUARD_CEILING); use sampling instead."""
    if m < 1:
        raise ValueError("universe size must be at least 1")
    limit = ceiling if ceiling is not None else guard_ceiling()
    total = interpretation_count(sig, m)
    if total > limit:
        raise ResourceGuardError(
            f"{total} interpretations at universe size {m} exceeds the "
            f"ceiling of {limit}; use sampling mode")
    # Built in make_interpretation's order without its sorting: the
    # signature lists names sorted, and product() yields tuples, and so
    # each subset of them, in order.
    ext_choices = []
    for p, arity in sig.predicates:
        tuples = list(product(range(m), repeat=arity))
        ext_choices.append([
            (p, tuple(t for i, t in enumerate(tuples) if mask >> i & 1))
            for mask in range(2 ** len(tuples))])
    for cvals in product(range(m), repeat=len(sig.constants)):
        consts = tuple(zip(sig.constants, cvals))
        for extensions in product(*ext_choices):
            yield Interpretation(m, consts, extensions)


def sample_interpretation(sig: Signature, m: int, rng: Random) -> Interpretation:
    """One random interpretation: uniform constant map, each extension
    tuple included independently with probability 1/2.  Built in
    make_interpretation's order without its sorting, as in
    ``enumerate_interpretations``."""
    consts = tuple((name, rng.randrange(m)) for name in sig.constants)
    extensions = tuple(
        (p, tuple(t for t in product(range(m), repeat=arity) if rng.random() < 0.5))
        for p, arity in sig.predicates)
    return Interpretation(m, consts, extensions)


# ---------------------------------------------------------------------------
# Grounding

def _term_value(t, interp: Interpretation, env: dict) -> int:
    if isinstance(t, Variable):
        if t not in env:
            raise GroundingError(f"unbound variable {t.name}")
        return env[t]
    try:
        return interp.const(t.name)
    except KeyError:
        raise GroundingError(f"constant {t.name} is not mapped by the interpretation")


def ground(f, interp: Interpretation, env: Optional[dict] = None):
    """Translate a sentence into a ground formula over element names.

    Equalities become true/false via the constant map; quantifiers become
    finite conjunctions/disjunctions over the universe."""
    env = env or {}
    if isinstance(f, Bot):
        return G_BOT
    if isinstance(f, Atom):
        return GAtom(f.predicate,
                     tuple(_term_value(t, interp, env) for t in f.args))
    if isinstance(f, Equality):
        same = _term_value(f.left, interp, env) == _term_value(f.right, interp, env)
        return G_TOP if same else G_BOT
    if isinstance(f, (And, Or)):
        cls = GAnd if isinstance(f, And) else GOr
        return cls(tuple(ground(g, interp, env) for g in f.items))
    if isinstance(f, Implies):
        return GImplies(ground(f.left, interp, env), ground(f.right, interp, env))
    if isinstance(f, (Forall, Exists)):
        items = []
        for e in range(interp.universe):
            env2 = dict(env)
            env2[f.var] = e
            items.append(ground(f.body, interp, env2))
        return GAnd(tuple(items)) if isinstance(f, Forall) else GOr(tuple(items))
    raise TypeError(f"not a formula: {f!r}")


def ground_program(prog: Program, interp: Interpretation):
    """Ground a desugared program, producing both the rule view (for
    supportedness and parent relations) and the single formula view (for
    reducts and minimality)."""
    rules = []
    conjuncts = []
    for r in prog.rules:
        if r.kind not in (BASIC, CONSTRAINT):
            raise ValueError("ground_program requires a desugared program")
        free = r.free_vars()
        for values in product(range(interp.universe), repeat=len(free)):
            env = dict(zip(free, values))
            body = ground(r.body, interp, env)
            if r.kind == BASIC:
                head = GAtom(r.head.predicate,
                             tuple(_term_value(t, interp, env) for t in r.head.args))
                rules.append(GroundRule(head, body))
                conjuncts.append(GImplies(body, head))
            else:
                conjuncts.append(GImplies(body, G_BOT))
    return GroundProgram(tuple(rules)), GAnd(tuple(conjuncts))


# ---------------------------------------------------------------------------
# Satisfaction, reduct, stability

def satisfies(j, g) -> bool:
    """Classical propositional satisfaction; j is a set of ground atoms."""
    if isinstance(g, GBot):
        return False
    if isinstance(g, GAtom):
        return g in j
    if isinstance(g, GAnd):
        return all(satisfies(j, x) for x in g.items)
    if isinstance(g, GOr):
        return any(satisfies(j, x) for x in g.items)
    if isinstance(g, GImplies):
        return not satisfies(j, g.left) or satisfies(j, g.right)
    raise TypeError(f"not a ground formula: {g!r}")


def reduct(g, j):
    """Ferraris-style reduct: every subformula not satisfied by j
    collapses to false."""
    if not satisfies(j, g):
        return G_BOT
    if isinstance(g, GAtom):
        return g
    if isinstance(g, GAnd):
        return GAnd(tuple(reduct(x, j) for x in g.items))
    if isinstance(g, GOr):
        return GOr(tuple(reduct(x, j) for x in g.items))
    if isinstance(g, GImplies):
        return GImplies(reduct(g.left, j), reduct(g.right, j))
    raise TypeError(f"not a ground formula: {g!r}")


def _atom_key(a: GAtom):
    return (a.predicate, a.args)


def ground_atom_numbers(j) -> dict:
    """j's distinct atoms numbered in ``_atom_key`` order, the order in
    which ``atom_numbers`` numbers an interpretation's true atoms."""
    return {a: i for i, a in enumerate(sorted(set(j), key=_atom_key))}


def folded_reduct(g, numbers: dict):
    """The reduct of the ground formula ``g`` relative to j, constant
    folded over atom numbers (see ``stability``), where ``numbers`` maps
    each atom of j to its number.  A subformula that j does not satisfy
    folds to ``BOT``, so the result is ``BOT`` exactly when j does not
    satisfy ``g``."""
    if isinstance(g, GAtom):
        return numbers.get(g, BOT)
    if isinstance(g, GImplies):
        left = folded_reduct(g.left, numbers)
        if left is BOT:
            return TOP
        return implies(left, folded_reduct(g.right, numbers))
    if isinstance(g, (GAnd, GOr)):
        return junction(Conj if isinstance(g, GAnd) else Disj,
                        (folded_reduct(x, numbers) for x in g.items))
    if isinstance(g, GBot):
        return BOT
    raise TypeError(f"not a ground formula: {g!r}")


def _decide(r, n: int, cap: int) -> bool:
    """Whether the atoms numbered ``0 .. n-1`` are stable for a formula
    whose reduct relative to them folds to ``r``: they satisfy it (``r``
    is not ``BOT``) and no proper subset does.  More than ``cap`` atoms
    raise ResourceGuardError, after the reduct is found satisfied and
    before the search."""
    if r is BOT:
        return False
    if n > cap:
        raise ResourceGuardError(
            f"minimality check over {n} atoms exceeds the cap of {cap}")
    return n == 0 or not has_smaller_model(r, n)


def is_stable(g, j, cap: int = DEFAULT_STABILITY_CAP) -> bool:
    """True iff j satisfies the reduct of g relative to j and no proper
    subset of j does.

    j's distinct atoms are numbered in ``_atom_key`` order
    (``ground_atom_numbers``) and g's reduct is constant-folded over
    those numbers (``folded_reduct``); a fold to ``BOT`` means j does
    not satisfy g.  Minimality is decided by
    ``stability.has_smaller_model``: a depth-first search that
    assigns the atoms in number order, false first, propagates what the
    reduct's conjuncts force, and ends a branch as soon as the
    three-valued value of the reduct is decided.  The search is complete
    for arbitrary ground formulas.  More than ``cap`` atoms raise
    ResourceGuardError."""
    numbers = ground_atom_numbers(j)
    return _decide(folded_reduct(g, numbers), len(numbers), cap)


# ---------------------------------------------------------------------------
# First-order satisfaction and the stable-model check

def satisfies_fo(interp: Interpretation, sentence) -> bool:
    """First-order satisfaction of ``sentence``, compiled and evaluated
    directly on the interpretation; see ``compile_sentence``.  A check
    over many interpretations compiles its sentences once instead."""
    return compile_sentence(sentence)(interp)


def _sm_tables(prog: Program):
    """The compiled tables ``is_sm_model`` needs, built from the
    desugared program and kept on ``prog``: one function for the
    classical check (every constraint, then every rule, read as a
    sentence) and, per basic rule, its free variables' names and the
    bindings under which its body holds."""
    tables = prog.derived.get("sm_model")
    if tables is None:
        d = prog if is_desugared(prog) else desugar(prog)
        rules = [r for r in d.rules if r.kind == CONSTRAINT]
        rules += [r for r in d.rules if r.kind != CONSTRAINT]
        classical = compile_sentence(conjoin(r.sentence() for r in rules))
        bodies = []
        for r in d.rules:
            if r.kind == BASIC:
                free = r.free_vars()
                bodies.append((r, [v.name for v in free],
                               compile_bindings(r.body, free)))
        tables = prog.derived["sm_model"] = (classical, bodies)
    return tables


def atom_numbers(interp: Interpretation) -> tuple:
    """The interpretation's distinct true atoms numbered in ``_atom_key``
    order, the order its sorted extensions list them in: a dict from
    each predicate to a dict from its tuples to their numbers, and the
    number of atoms."""
    numbers, n = {}, 0
    for p, tuples in interp.extensions:
        own = numbers[p] = dict.fromkeys(tuples)
        for t in own:
            own[t] = n
            n += 1
    return numbers, n


def relevant_reduct(prog: Program, interp: Interpretation, numbers: dict):
    """The reduct, relative to the interpretation's atoms numbered by
    ``numbers`` (see ``atom_numbers``), of the desugared program's basic
    rule instances whose body the interpretation satisfies, constant
    folded over those numbers (see ``stability``).  Each instance is
    ground straight into folded form, in the order of
    ``ground_program``.

    When the interpretation satisfies every rule, this equals the folded
    reduct of ``ground_program(desugar(prog), interp)[1]``: every
    instance left out has a body the interpretation does not satisfy, so
    its reduct ``false -> head`` folds away.  This is relevance-driven
    grounding, as in gringo."""
    _, bodies = _sm_tables(prog)
    instances = []
    for r, names, bindings in bodies:
        for values in bindings(interp):
            env = dict(zip(names, values))
            instances.append(implies(fold_instance(r.body, interp, env, numbers),
                                     fold_instance(r.head, interp, env, numbers)))
    return junction(Conj, instances)


def is_sm_model(prog: Program, interp: Interpretation,
                cap: int = DEFAULT_STABILITY_CAP) -> bool:
    """Whether the interpretation is a stable model of the program.

    The program is desugared (choice rules and extensional predicates
    become double-negation rules), and its rule sentences and bodies
    compiled, on the first call; the program keeps them for the calls
    that follow.  Cheap rejections come first: every constraint, then
    every rule read classically as the universal closure of
    ``body -> head``, stopping at the first violated instance.  An
    interpretation that passes has its distinct true atoms numbered
    (``atom_numbers``), only the rule instances whose body it satisfies
    are ground, each straight into its folded reduct over those numbers
    (``relevant_reduct``), and the same minimality search as
    ``is_stable`` runs on the result.  No ground formula is built."""
    classical, _ = _sm_tables(prog)
    if not classical(interp):
        return False
    numbers, n = atom_numbers(interp)
    return _decide(relevant_reduct(prog, interp, numbers), n, cap)


# ---------------------------------------------------------------------------
# Supportedness, Pnn/Nnn, tightness on an interpretation

def is_supported(gp: GroundProgram, j) -> bool:
    """Every atom of j heads some rule whose body j satisfies."""
    j = frozenset(j)
    for a in j:
        if not any(r.head == a and satisfies(j, r.body) for r in gp.rules):
            return False
    return True


def pnn_nnn(g):
    """Positive-nonnegated and negative-nonnegated atom sets of a ground
    formula; implications with a false consequent contribute nothing."""
    if isinstance(g, GBot):
        return frozenset(), frozenset()
    if isinstance(g, GAtom):
        return frozenset([g]), frozenset()
    if isinstance(g, (GAnd, GOr)):
        pos: frozenset = frozenset()
        negs: frozenset = frozenset()
        for x in g.items:
            p, n = pnn_nnn(x)
            pos |= p
            negs |= n
        return pos, negs
    if isinstance(g, GImplies):
        if g.right == G_BOT:
            return frozenset(), frozenset()
        lp, ln = pnn_nnn(g.left)
        rp, rn = pnn_nnn(g.right)
        return ln | rp, lp | rn
    raise TypeError(f"not a ground formula: {g!r}")


def pnn(g) -> frozenset:
    return pnn_nnn(g)[0]


def is_acyclic(succ: dict) -> bool:
    """Whether the directed graph ``succ`` (vertex -> successors, each
    successor itself a vertex) has no cycle; a self-loop is a cycle.
    Depth-first search with an explicit stack, so long paths cost no
    recursion depth."""
    color = dict.fromkeys(succ, 0)      # 0 unseen, 1 on the path, 2 done
    for start in succ:
        if color[start]:
            continue
        color[start] = 1
        stack = [(start, iter(succ[start]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 1:
                    return False
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return True


def is_tight_on(gp: GroundProgram, j) -> bool:
    """Acyclicity of the parent relation: A' is a parent of A when some
    rule with head A has a body satisfied by j in which A' occurs as a
    positive nonnegated atom.  For finite j an infinite descending
    sequence is exactly a reachable cycle."""
    j = frozenset(j)
    parents: dict = {a: set() for a in j}
    for r in gp.rules:
        if r.head in j and satisfies(j, r.body):
            parents[r.head] |= pnn(r.body) & j
    return is_acyclic(parents)
