"""Finite first-order interpretations, direct first-order evaluation,
grounding, reducts, and stable/supported/tight-on checks.

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
from .syntax import (
    BASIC, CONSTRAINT, Atom, Bot, And, Equality, Exists, Forall, Implies,
    Or, Program, Signature, Variable,
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
    return Interpretation(
        universe=universe,
        consts=tuple(sorted(consts.items())),
        extensions=tuple(sorted(
            (p, tuple(sorted(tuple(t) for t in ts))) for p, ts in extensions.items())),
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
    const_names = list(sig.constants)
    pred_tuples = [(p, list(product(range(m), repeat=arity)))
                   for p, arity in sig.predicates]
    ext_choices = []
    for p, tuples in pred_tuples:
        subsets = []
        for mask in range(2 ** len(tuples)):
            subsets.append([t for i, t in enumerate(tuples) if mask >> i & 1])
        ext_choices.append(subsets)
    for cvals in product(range(m), repeat=len(const_names)):
        consts = dict(zip(const_names, cvals))
        for chosen in product(*ext_choices):
            extensions = {p: subset for (p, _), subset in zip(pred_tuples, chosen)}
            yield make_interpretation(m, consts, extensions)


def sample_interpretation(sig: Signature, m: int, rng: Random) -> Interpretation:
    """One random interpretation: uniform constant map, each extension
    tuple included independently with probability 1/2."""
    consts = {name: rng.randrange(m) for name in sig.constants}
    extensions = {}
    for p, arity in sig.predicates:
        extensions[p] = [t for t in product(range(m), repeat=arity)
                         if rng.random() < 0.5]
    return make_interpretation(m, consts, extensions)


# ---------------------------------------------------------------------------
# Grounding

class GroundingError(Exception):
    pass


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


def _folded_reduct(g, canon: dict):
    """The reduct of ``g`` relative to j, constant-folded, where
    ``canon`` maps each atom of j to itself.  A subformula that j does
    not satisfy becomes ``G_BOT`` and every other one folds to a formula
    without ``G_BOT`` (j satisfies its reduct), so the result is
    ``G_BOT``, ``G_TOP`` or a formula with neither inside it, built from
    j's own atom objects.  Nested conjunctions and disjunctions are
    flattened."""
    if isinstance(g, GAtom):
        return canon.get(g, G_BOT)
    if isinstance(g, GImplies):
        left = _folded_reduct(g.left, canon)
        if left is G_BOT:
            return G_TOP
        right = _folded_reduct(g.right, canon)
        if left is G_TOP or right is G_BOT:
            return right
        return G_TOP if right is G_TOP else GImplies(left, right)
    if isinstance(g, (GAnd, GOr)):
        cls = type(g)
        unit, zero = (G_TOP, G_BOT) if cls is GAnd else (G_BOT, G_TOP)
        items = []
        for x in g.items:
            x = _folded_reduct(x, canon)
            if x is zero:
                return zero
            if type(x) is cls:
                items.extend(x.items)
            elif x is not unit:
                items.append(x)
        if not items:
            return unit
        return items[0] if len(items) == 1 else cls(tuple(items))
    if isinstance(g, GBot):
        return G_BOT
    raise TypeError(f"not a ground formula: {g!r}")


def _kleene(f, val: dict):
    """Three-valued (Kleene) value of a folded formula under the partial
    assignment ``val`` (atom -> bool): True, False, or None while it
    depends on an unassigned atom."""
    if isinstance(f, GAtom):
        return val.get(f)
    if isinstance(f, GImplies):
        left = _kleene(f.left, val)
        if left is False:
            return True
        right = _kleene(f.right, val)
        if right is True or (left is True and right is False):
            return right
        return None
    stop = isinstance(f, GOr)   # the item value that decides the whole
    out = not stop
    for x in f.items:
        v = _kleene(x, val)
        if v is stop:
            return stop
        if v is None:
            out = None
    return out


def _force(f, val: dict):
    """Extend ``val`` with the atoms that ``f`` being true forces true
    (an atom, the items of a conjunction, the consequent of an
    implication whose antecedent is already true), and return the value
    of ``f`` afterwards: True, None while still open, or False on a
    conflict."""
    v = _kleene(f, val)
    if v is not None:
        return v
    if isinstance(f, GAtom):
        val[f] = True
        return True
    if isinstance(f, GAnd):
        for x in f.items:
            _force(x, val)
    elif isinstance(f, GImplies) and _kleene(f.left, val) is True:
        _force(f.right, val)
    else:
        return None
    return _kleene(f, val)


def _propagate(conjuncts, val: dict):
    """Extend ``val`` with what every conjunct being true forces, up to a
    fixpoint, and return the conjuncts still open, or None on a
    conflict.  On definite rules this computes the least model of what
    ``val`` already makes true."""
    while True:
        size = len(val)
        still_open = []
        for c in conjuncts:
            v = _force(c, val)
            if v is False:
                return None
            if v is None:
                still_open.append(c)
        if len(val) == size:
            return still_open
        conjuncts = still_open


def _has_smaller_model(r, atoms: list) -> bool:
    """Whether some proper subset of ``atoms`` satisfies the folded
    formula ``r``, whose atoms are all among them.  Depth-first search
    over the atoms in order, false first, propagating what ``r``'s
    conjuncts force; a branch ends as soon as ``r`` is decided."""

    def search(conjuncts, val: dict, i: int) -> bool:
        conjuncts = _propagate(conjuncts, val)
        if conjuncts is None:
            return False
        if not conjuncts:
            # r is true: so is every completion of val, and one is a
            # proper subset iff some atom is false or still unassigned
            return len(val) < len(atoms) or False in val.values()
        while atoms[i] in val:
            i += 1
        a = atoms[i]
        return (search(conjuncts, {**val, a: False}, i + 1)
                or search(conjuncts, {**val, a: True}, i + 1))

    return search(r.items if isinstance(r, GAnd) else (r,), {}, 0)


def is_stable(g, j, cap: int = DEFAULT_STABILITY_CAP) -> bool:
    """True iff j satisfies the reduct of g relative to j and no proper
    subset of j does.

    Minimality is decided by a search for a model of the reduct that is
    a proper subset of j, not by enumerating subsets.  The reduct is
    constant-folded (its atoms all lie in j); then a depth-first search
    assigns j's atoms in ``_atom_key`` order, false first, propagates
    what the reduct's conjuncts force, and ends a branch as soon as the
    three-valued value of the reduct is decided.  The search is
    complete for arbitrary ground formulas.  More than ``cap`` atoms
    raise ResourceGuardError."""
    j = frozenset(j)
    if not satisfies(j, g):
        return False
    r = _folded_reduct(g, {a: a for a in j})
    atoms = sorted(j, key=_atom_key)
    if len(atoms) > cap:
        raise ResourceGuardError(
            f"minimality check over {len(atoms)} atoms exceeds the cap of {cap}")
    if not atoms:
        return True
    return not _has_smaller_model(r, atoms)


# ---------------------------------------------------------------------------
# First-order evaluation

_UNBOUND = object()


def _value(t, interp: Interpretation, env: dict) -> int:
    # The evaluator's env is keyed by variable name: hashing a str is
    # much cheaper than hashing a Variable dataclass.
    try:
        if isinstance(t, Variable):
            return env[t.name]
        return interp._consts[t.name]
    except KeyError:
        if isinstance(t, Variable):
            raise GroundingError(f"unbound variable {t.name}") from None
        raise GroundingError(
            f"constant {t.name} is not mapped by the interpretation") from None


def _holds(f, interp: Interpretation, env: dict) -> bool:
    """Whether ``f`` is true in the interpretation under ``env`` (variable
    name -> element), evaluated left to right with short-circuiting."""
    if isinstance(f, Atom):
        try:
            args = tuple(env[t.name] if isinstance(t, Variable)
                         else interp._consts[t.name] for t in f.args)
        except KeyError:
            # the slow path names the unbound variable or unmapped constant
            args = tuple(_value(t, interp, env) for t in f.args)
        return args in interp._exts.get(f.predicate, ())
    if isinstance(f, (And, Or)):
        stop = isinstance(f, Or)  # And stops at the first false item, Or at a true one
        for g in f.items:
            if _holds(g, interp, env) is stop:
                return stop
        return not stop
    if isinstance(f, Implies):
        return not _holds(f.left, interp, env) or _holds(f.right, interp, env)
    if isinstance(f, Equality):
        return _value(f.left, interp, env) == _value(f.right, interp, env)
    if isinstance(f, (Forall, Exists)):
        stop = isinstance(f, Exists)
        name = f.var.name
        saved = env.get(name, _UNBOUND)
        try:
            for e in range(interp.universe):
                env[name] = e
                if _holds(f.body, interp, env) is stop:
                    return stop
            return not stop
        finally:
            if saved is _UNBOUND:
                del env[name]
            else:
                env[name] = saved
    if isinstance(f, Bot):
        return False
    raise TypeError(f"not a formula: {f!r}")


def satisfies_fo(interp: Interpretation, sentence) -> bool:
    """First-order satisfaction, evaluated directly on the interpretation.

    Connectives and quantifiers short-circuit: evaluation stops at the
    first false conjunct or instance of a universal, and at the first
    true disjunct or instance of an existential.  Nothing is grounded.
    Touching an unmapped constant raises GroundingError."""
    return _holds(sentence, interp, {})


def is_sm_model(prog: Program, interp: Interpretation,
                cap: int = DEFAULT_STABILITY_CAP) -> bool:
    """Whether the interpretation is a stable model of the program.

    The program is desugared (choice rules and extensional predicates
    become double-negation rules) unless it already is; callers checking
    many interpretations pass the desugared program.  Cheap rejections
    come first: every constraint, then every rule read classically as
    the universal closure of ``body -> head``, stopping at the first
    violated instance.  Only an interpretation that passes is grounded,
    and its atom set checked for stability against the reduct."""
    d = prog if is_desugared(prog) else desugar(prog)
    rules = [r for r in d.rules if r.kind == CONSTRAINT]
    rules += [r for r in d.rules if r.kind != CONSTRAINT]
    if not all(satisfies_fo(interp, r.sentence()) for r in rules):
        return False
    _, gf = ground_program(d, interp)
    return is_stable(gf, interp.true_atoms(), cap)


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
