"""Finite first-order interpretations, grounding, and the stable,
supported and tight-on checks.

Ground formulas have one type, ``stability``'s: ``Conj``, ``Disj`` and
``Imp`` over ground atoms ``(predicate, args)``, with ``TOP`` and
``BOT``.  ``ground`` is the one translation of first-order formulas into
that type.  The stable-model check grounds nothing: ``is_sm_model``
takes an interpretation's rule bindings, which the caller reads with
the rules of ``sm_tables`` (``compile_rules``, or ``depth_cuts``' cuts),
ends at an unsupported true atom, and only then has ``relevant_reduct``
fold the instances whose body it satisfies (``evaluation.compile_fold``)
and decides on that folded reduct (``stability``).
First-order sentences are evaluated by functions compiled in
``evaluation``.  ``depth_cuts`` builds the cuts by which both exhaustive
searches prune ``enumerate_interpretations``, and records the rule
bindings at each interpretation they pass.

Universe elements are canonical ids ``0 .. m-1`` rendered as
``e0, e1, ...`` in output.  Interpretations need not be Herbrand: the
constant map may identify distinct constants.
"""

from __future__ import annotations

import os
import re
from itertools import accumulate, permutations, product
from math import perm
from random import Random
from typing import Iterator, Optional

from .completion import desugar
from .evaluation import (
    GroundingError,  # noqa: F401 -- what _element raises, importable here
    _unbound, _unmapped, compile_fold, compile_rules, compile_sentence,
    predicates_read,
)
from .stability import (
    BOT, TOP, Conj, Disj, Imp, has_smaller_model, junction,
)
from .syntax import (
    BASIC, CONSTRAINT, Atom, Bot, And, Equality, Exists, Forall, Implies,
    Or, Program, Signature, Variable, conjoin,
)

DEFAULT_ENUMERATION_CEILING = 2_000_000
DEFAULT_STABILITY_CAP = 24


class ResourceGuardError(Exception):
    """Raised when a requested search exceeds the configured ceiling."""


def guard_ceiling() -> int:
    """The enumeration ceiling: LT_TIGHT_GUARD_CEILING when set, else
    DEFAULT_ENUMERATION_CEILING.  A value that is not a nonnegative
    integer raises ValueError."""
    value = os.environ.get("LT_TIGHT_GUARD_CEILING")
    if not value:
        return DEFAULT_ENUMERATION_CEILING
    refused = ValueError("LT_TIGHT_GUARD_CEILING must be a nonnegative "
                         f"integer, not {value!r}")
    try:
        ceiling = int(value)
    except ValueError:
        raise refused from None
    if ceiling < 0:
        raise refused
    return ceiling


# ---------------------------------------------------------------------------
# Printing ground formulas

def _elem(e: int) -> str:
    return f"e{e}"


def ground_to_str(g) -> str:
    cls = type(g)
    if cls is tuple:
        predicate, args = g
        if args:
            return f"{predicate}({', '.join(_elem(e) for e in args)})"
        return predicate
    if cls is Conj or cls is Disj:
        if not g.items:
            return "true" if cls is Conj else "false"
        sep = " & " if cls is Conj else " | "
        return "(" + sep.join(ground_to_str(x) for x in g.items) + ")"
    if cls is Imp:
        return f"({ground_to_str(g.left)} -> {ground_to_str(g.right)})"
    raise TypeError(f"not a ground formula: {g!r}")


# ---------------------------------------------------------------------------
# Interpretations

class Interpretation:
    """A finite interpretation: ``universe`` elements ``0 .. m-1``,
    ``consts`` mapping constant names to elements, and ``extensions``
    mapping predicates to frozensets of tuples.  The constructor makes
    each extension a frozenset; one given as a frozenset is kept, so
    candidates can share it.  Equality and hashing ignore the order
    names were given in; printing and ordering sort them."""

    __slots__ = ("universe", "consts", "extensions")

    def __init__(self, universe: int, consts: dict, extensions: dict):
        self.universe = universe
        self.consts = consts
        self.extensions = {p: frozenset(ts) for p, ts in extensions.items()}

    def __eq__(self, other):
        return (type(other) is Interpretation and self.universe == other.universe
                and self.consts == other.consts
                and self.extensions == other.extensions)

    def __hash__(self):
        return hash((self.universe, frozenset(self.consts.items()),
                     frozenset(self.extensions.items())))

    def __repr__(self):
        return (f"Interpretation({self.universe!r}, {self.consts!r}, "
                f"{self.extensions!r})")

    def literal(self) -> str:
        parts = [f"universe={self.universe}"]
        for name, e in sorted(self.consts.items()):
            parts.append(f"{name}={_elem(e)}")
        for p, tuples in sorted(self.extensions.items()):
            body = ",".join("(" + ",".join(_elem(e) for e in t) + ")"
                            for t in sorted(tuples))
            parts.append(f"{p}={{{body}}}")
        return "; ".join(parts)


# The constructor, under the name the tests and the benchmark call it by.
make_interpretation = Interpretation


MAX_UNIVERSE_DIGITS = 100     # far fewer than int() refuses
_LITERAL_SIZE = re.compile(r"[+-]?\d{1,%d}" % MAX_UNIVERSE_DIGITS)
_LITERAL_ELEM = re.compile(r"e(\d+)$")
_LITERAL_TUPLE = re.compile(r"\(([^()]*)\)")
_LITERAL_TUPLES = re.compile(r"(\([^()]*\)(\s*,\s*\([^()]*\))*)?")


def parse_interpretation(text: str) -> Interpretation:
    """Parse the interpretation literal format, e.g.
    ``universe=2; a=e0; b=e1; p={(e0),(e1)}; q={(e1)}``.

    Raises ValueError on a universe size that is below 1 or is not a
    decimal integer of at most MAX_UNIVERSE_DIGITS digits, an empty name, a
    constant or a predicate given twice (one name may be both), an
    extension that is not a comma-separated list of parenthesized
    tuples, and an element that is not ``e<i>`` inside
    the universe."""
    parts = [p.strip() for p in text.strip().split(";") if p.strip()]
    if not parts or not parts[0].startswith("universe="):
        raise ValueError("interpretation literal must start with universe=<m>")
    size = parts[0].split("=", 1)[1].strip()
    if not _LITERAL_SIZE.fullmatch(size):
        raise ValueError("universe size must be a decimal integer of at most "
                         f"{MAX_UNIVERSE_DIGITS} digits")
    universe = int(size)
    if universe < 1:
        raise ValueError("universe size must be at least 1")
    consts: dict = {}
    extensions: dict = {}

    def elem(s: str) -> int:
        m = _LITERAL_ELEM.match(s.strip())
        if not m:
            raise ValueError(f"bad element name {s!r}")
        # more digits than the universe size: outside it, without int()
        digits = m.group(1).lstrip("0") or "0"
        if len(digits) > len(str(universe)) or int(digits) >= universe:
            raise ValueError(f"element {s!r} outside universe of size {universe}")
        return int(digits)

    for part in parts[1:]:
        name, _, rhs = part.partition("=")
        name = name.strip()
        rhs = rhs.strip()
        if not name:
            raise ValueError(f"missing name before '=' in {part!r}")
        # A constant and a predicate may share a name (``p(p).``), so a
        # repeat is an error only within the same kind.
        if name in (extensions if rhs.startswith("{") else consts):
            raise ValueError(f"{name} is given twice")
        if rhs.startswith("{"):
            inner = rhs[1:-1].strip()
            if not rhs.endswith("}") or not _LITERAL_TUPLES.fullmatch(inner):
                raise ValueError(f"bad extension for {name}")
            extensions[name] = [
                tuple(elem(f) for f in fields.split(",")) if fields.strip() else ()
                for fields in _LITERAL_TUPLE.findall(inner)]
        else:
            consts[name] = elem(rhs)
    return Interpretation(universe, consts, extensions)


# ---------------------------------------------------------------------------
# Enumeration and sampling

def interpretation_count(sig: Signature, m: int) -> int:
    count = m ** len(sig.constants)
    for _, arity in sig.predicates:
        count *= 2 ** (m ** arity)
    return count


def _restricted_growth(values) -> bool:
    """Whether the first value is 0 and each later one at most one more
    than the largest before it."""
    top = -1
    for v in values:
        if v > top + 1:
            return False
        top = max(top, v)
    return True


def enumerate_interpretations(sig: Signature, m: int, canonical: bool = False,
                              cuts=None) -> Iterator[Interpretation]:
    """All interpretations with universe 0..m-1, in deterministic
    lexicographic order: constant maps, then the extensions of the
    predicates in signature order, the last one varying fastest.
    Refuses when the state count exceeds the guard ceiling (see
    LT_TIGHT_GUARD_CEILING); use sampling instead.

    With ``canonical``, constant maps that are not restricted-growth
    strings are skipped.  Programs cannot name elements, so a
    permutation of the universe preserves every verdict, and each map
    visited stands for the ``orbit_size`` maps a permutation carries it
    to (see ``orbit``).  The ceiling still counts every interpretation.

    The walk assigns one predicate at a time on its own stack, as
    finite model finders do (SEM; Mace4): a node at depth d has the
    first d predicates assigned, and a node at depth n, for the n
    predicates, is an interpretation.  ``cuts``, one entry per depth
    0..n, prunes it.  A cut that is not None is called at each node of
    its depth with the partial interpretation, one object per constant
    map written in place, and the number of interpretations below it
    (orbits counted with ``canonical``).  It must read only assigned
    predicates; a true return drops the subtree, and what is left comes
    in the unpruned order.  ``depth_cuts`` builds them for a model
    search."""
    if m < 1:
        raise ValueError("universe size must be at least 1")
    limit = guard_ceiling()
    total = interpretation_count(sig, m)
    if total > limit:
        raise ResourceGuardError(
            f"{total} interpretations at universe size {m} exceeds the "
            f"ceiling of {limit}; use sampling mode")
    # One frozenset per subset, shared by every candidate that has it,
    # and one dict per constant map, shared by its candidates.
    names, ext_choices = [], []
    for p, arity in sig.predicates:
        tuples = list(product(range(m), repeat=arity))
        names.append(p)
        ext_choices.append([
            frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)
            for mask in range(2 ** len(tuples))])
    # the tuples of the predicates not yet assigned at each depth
    bits = [m ** arity for _, arity in reversed(sig.predicates)]
    free = list(accumulate(bits, initial=0))[::-1]
    cuts = cuts or [None] * len(free)
    for cvals in product(range(m), repeat=len(sig.constants)):
        if canonical and not _restricted_growth(cvals):
            continue
        consts = dict(zip(sig.constants, cvals))
        partial = Interpretation(m, consts, {})
        assigned = partial.extensions
        weight = orbit_size(partial) if canonical else 1
        stack = [iter((None,))]     # the root, at depth 0
        while stack:
            depth = len(stack) - 1
            for choice in stack[-1]:
                if depth:
                    assigned[names[depth - 1]] = choice
                cut = cuts[depth]
                if cut is not None and cut(partial, weight << free[depth]):
                    continue
                if depth < len(names):
                    stack.append(iter(ext_choices[depth]))
                    break
                yield Interpretation(m, consts, assigned)
            else:
                stack.pop()


GAMMA = "gamma"     # keys of a search's count of dropped interpretations
REJECT = "reject"


def depth_cuts(sig: Signature, sentences, dropped, rules=()) -> tuple:
    """The ``cuts`` of ``enumerate_interpretations``' walk over ``sig``
    that keep the models of ``sentences`` and of ``rules`` read
    classically, and a generator function that pairs each
    interpretation the cuts pass, drawn from the source it is given,
    with the bindings of ``rules`` there, as ``compile_rules(rules)``
    returns them.  Each is read at the depth of the last predicate it
    reads, a rule no shallower than any sentence, and compiled
    with the rest of its kind and depth; a cut that passes records its
    rules' bindings for the current path, which the walk overwrites as
    it advances, so the pairing is made as each interpretation is drawn.
    A dropped subtree's weight is counted in ``dropped`` under GAMMA
    when it fails a sentence, under REJECT when it fails a rule.  Tried
    in depth order, the cuts screen a whole interpretation alike.
    ``check_equivalence`` passes Gamma's conjuncts as the sentences, and
    ``check_gamma_tight`` Gamma and the completion, with no rules."""
    depth = {p: d for d, (p, _) in enumerate(sig.predicates, 1)}
    levels = [{} for _ in range(len(depth) + 1)]
    heads = [0] * len(levels)
    where = []      # per rule with a head: its depth, its place there
    reached = 0
    for key, fs in ((GAMMA, sentences), (REJECT, rules)):
        floor = reached
        for f in fs:
            read = predicates_read(f if key == GAMMA else f.sentence())
            d = max([floor] + [depth.get(p, 0) for p in read])
            levels[d].setdefault(key, []).append(f)
            reached = max(reached, d)
            if key == REJECT and f.head is not None:
                where.append((d, heads[d]))
                heads[d] += 1
    found = [None] * len(levels)

    def cut(d, level):
        tests = [(compile_rules(fs) if key == REJECT
                  else compile_sentence(conjoin(fs)), key)
                 for key, fs in level.items()]

        def drops(interp, weight) -> bool:
            for test, key in tests:
                value = test(interp)
                if key == REJECT and value is not None:
                    found[d] = value
                elif not value:
                    dropped[key] += weight
                    return True
            return False
        return drops

    def with_bindings(interps):
        for interp in interps:
            yield interp, [found[d][i] for d, i in where]
    return [cut(d, level) if level else None
            for d, level in enumerate(levels)], with_bindings


def orbit_size(interp: Interpretation) -> int:
    """How many constant maps a permutation of the universe carries the
    interpretation's map to: m!/(m-b)! for b distinct elements."""
    return perm(interp.universe, len(set(interp.consts.values())))


def orbit(interp: Interpretation) -> list:
    """One image of the interpretation per constant map of its orbit, in
    enumeration order of the maps.  Its own map must be a
    restricted-growth string, with b distinct elements.  The image for a
    target map is taken under the permutation that sends each element
    i < b to the element the target map gives the constants denoting i,
    and the other elements to the rest in increasing order."""
    m = interp.universe
    images = []
    for head in permutations(range(m), len(set(interp.consts.values()))):
        pi = head + tuple(e for e in range(m) if e not in head)
        images.append(Interpretation(
            m, {name: pi[e] for name, e in interp.consts.items()},
            {p: [tuple(pi[e] for e in t) for t in tuples]
             for p, tuples in interp.extensions.items()}))
    return images


def enumeration_key(interp: Interpretation) -> tuple:
    """A key that orders interpretations of one signature as
    ``enumerate_interpretations`` reaches them: universe size, constant
    map, then each extension as the mask of its tuples' positions in
    ``product(range(m), repeat=arity)``."""
    m = interp.universe

    def position(t):
        i = 0
        for e in t:
            i = i * m + e
        return i

    return (m, tuple(e for _, e in sorted(interp.consts.items())),
            tuple(sum(1 << position(t) for t in tuples)
                  for _, tuples in sorted(interp.extensions.items())))


def sample_interpretation(sig: Signature, m: int, rng: Random) -> Interpretation:
    """One random interpretation: uniform constant map, each extension
    tuple included independently with probability 1/2.  Draws are made
    constants first, then predicates, each in signature order."""
    consts = {name: rng.randrange(m) for name in sig.constants}
    extensions = {p: [t for t in product(range(m), repeat=arity)
                      if rng.random() < 0.5]
                  for p, arity in sig.predicates}
    return Interpretation(m, consts, extensions)


# ---------------------------------------------------------------------------
# Grounding

def _element(t, interp: Interpretation, env: dict) -> int:
    """The element the term ``t`` denotes: a variable's value in ``env``
    (variable name -> element), a constant's under ``interp``; else
    GroundingError, as the compiled evaluator raises it."""
    if type(t) is Variable:
        if t.name in env:
            return env[t.name]
        _unbound(t.name)
    if t.name in interp.consts:
        return interp.consts[t.name]
    raise _unmapped(t.name)


def ground(f, interp: Interpretation, env: Optional[dict] = None):
    """Translate a sentence into a ground formula; ``env`` maps the
    names of free variables to elements.

    Equalities become ``TOP`` or ``BOT`` via the constant map;
    quantifiers become finite conjunctions/disjunctions over the
    universe.  The walk takes one stack frame per quantifier and
    implication and two per conjunction and disjunction."""
    if env is None:
        env = {}
    cls = type(f)
    if cls is Atom:
        return f.predicate, tuple([_element(t, interp, env) for t in f.args])
    if cls is Implies:
        return Imp(ground(f.left, interp, env), ground(f.right, interp, env))
    if cls is And or cls is Or:
        return (Conj if cls is And else Disj)(
            tuple([ground(g, interp, env) for g in f.items]))
    if cls is Forall or cls is Exists:
        env = dict(env)
        items = []
        for e in range(interp.universe):
            env[f.var.name] = e
            items.append(ground(f.body, interp, env))
        return (Conj if cls is Forall else Disj)(tuple(items))
    if cls is Equality:
        same = _element(f.left, interp, env) == _element(f.right, interp, env)
        return TOP if same else BOT
    if cls is Bot:
        return BOT
    raise TypeError(f"not a formula: {f!r}")


def ground_program(prog: Program, interp: Interpretation):
    """Ground a desugared program, producing both the rule view, a tuple
    of ``(head, body)`` pairs (for supportedness and parent relations),
    and the single formula view (for reducts and minimality)."""
    rules = []
    conjuncts = []
    for r in prog.rules:
        if r.kind not in (BASIC, CONSTRAINT):
            raise ValueError("ground_program requires a desugared program")
        names = [v.name for v in r.free_vars()]
        for values in product(range(interp.universe), repeat=len(names)):
            env = dict(zip(names, values))
            body = ground(r.body, interp, env)
            if r.kind == BASIC:
                head = ground(r.head, interp, env)
                rules.append((head, body))
                conjuncts.append(Imp(body, head))
            else:
                conjuncts.append(Imp(body, BOT))
    return tuple(rules), Conj(tuple(conjuncts))


# ---------------------------------------------------------------------------
# Satisfaction and stability

def satisfies(j, g) -> bool:
    """Classical propositional satisfaction; j is a set of ground atoms."""
    cls = type(g)
    if cls is tuple:
        return g in j
    if cls is Conj:
        return all(satisfies(j, x) for x in g.items)
    if cls is Disj:
        return any(satisfies(j, x) for x in g.items)
    if cls is Imp:
        return not satisfies(j, g.left) or satisfies(j, g.right)
    raise TypeError(f"not a ground formula: {g!r}")


def is_stable(r, numbers: dict) -> bool:
    """Whether no proper subset of the atoms ``numbers`` numbers
    ``0 .. n-1`` satisfies ``r``, their reduct folded over those numbers
    (``stability``) and not ``BOT``: the minimality half of the check,
    which ``stability.has_smaller_model`` decides."""
    return not has_smaller_model(r, len(numbers))


# ---------------------------------------------------------------------------
# First-order satisfaction and the stable-model check

def satisfies_fo(interp: Interpretation, sentence) -> bool:
    """First-order satisfaction of ``sentence``, compiled and evaluated
    directly on the interpretation; see ``compile_sentence``.  A check
    over many interpretations compiles its sentences once instead."""
    return compile_sentence(sentence)(interp)


def sm_tables(prog: Program) -> tuple:
    """The stable-model check's tables, built once per check and passed
    to each ``is_sm_model`` call: the desugared program's constraints,
    then its basic rules, which the caller compiles once to read each
    interpretation's bindings (``compile_rules``, or ``depth_cuts``'
    cuts), and each basic rule's ``(heads, fold)`` pair
    (``compile_fold``)."""
    d = desugar(prog)
    basic = [r for r in d.rules if r.kind == BASIC]
    return ([r for r in d.rules if r.kind == CONSTRAINT] + basic,
            [compile_fold(r) for r in basic])


def relevant_reduct(tables: tuple, interp: Interpretation, bindings):
    """None when ``bindings`` is None: the rules of ``tables``
    (``sm_tables``), compiled, give None for an interpretation that
    violates an instance of one.  Else the folded reduct of the instances
    ``body -> head`` of the basic rules whose body it satisfies, in the
    order of ``ground_program``, which is relevance-driven grounding as
    in gringo, and the numbers of the true atoms in the order the fold
    first met them, every one when each heads a relevant instance.  Each
    instance left out has the valid reduct ``false -> ...``, so the
    reduct is ``ground_program``'s folded."""
    if bindings is None:
        return None
    numbers = {}
    leaf = (numbers, interp.consts, range(interp.universe), interp.extensions)
    instances = [g for (_, fold), tuples in zip(tables[1], bindings)
                 for g in fold(tuples, leaf)]
    return junction(Conj, instances), numbers


def is_sm_model(tables: tuple, interp: Interpretation, bindings,
                cap: int = DEFAULT_STABILITY_CAP) -> bool:
    """Whether the interpretation is a stable model of the program whose
    ``sm_tables`` are given, ``bindings`` being its rules' bindings
    there.  In order: not if ``bindings`` is None; more than ``cap``
    true atoms raise ResourceGuardError; not if a true atom heads no
    relevant instance (``stability``); else ``is_stable`` decides on
    ``relevant_reduct``, the only step that folds a rule body."""
    if bindings is None:
        return False
    n = sum(map(len, interp.extensions.values()))
    if n > cap:
        raise ResourceGuardError(
            f"minimality check over {n} atoms exceeds the cap of {cap}")
    leaf = ({}, interp.consts, range(interp.universe), interp.extensions)
    supported = set()
    for (heads, _), tuples in zip(tables[1], bindings):
        supported.update(heads(tuples, leaf))
    return (len(supported) == n
            and is_stable(*relevant_reduct(tables, interp, bindings)))


# ---------------------------------------------------------------------------
# Supportedness, Pnn/Nnn, tightness on an interpretation

def is_supported(rules, j) -> bool:
    """Every atom of j heads some rule whose body j satisfies; ``rules``
    is ``ground_program``'s rule view."""
    j = frozenset(j)
    for a in j:
        if not any(head == a and satisfies(j, body) for head, body in rules):
            return False
    return True


def pnn_nnn(g):
    """Positive-nonnegated and negative-nonnegated atom sets of a ground
    formula; implications with a false consequent contribute nothing."""
    cls = type(g)
    if cls is tuple:
        return frozenset([g]), frozenset()
    if cls is Conj or cls is Disj:
        pos: frozenset = frozenset()
        negs: frozenset = frozenset()
        for x in g.items:
            p, n = pnn_nnn(x)
            pos |= p
            negs |= n
        return pos, negs
    if cls is Imp:
        if g.right == BOT:
            return frozenset(), frozenset()
        lp, ln = pnn_nnn(g.left)
        rp, rn = pnn_nnn(g.right)
        return ln | rp, lp | rn
    raise TypeError(f"not a ground formula: {g!r}")


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


def is_tight_on(rules, j) -> bool:
    """Acyclicity of the parent relation over ``ground_program``'s rule
    view: A' is a parent of A when some rule with head A has a body
    satisfied by j in which A' occurs as a positive nonnegated atom.
    For finite j an infinite descending sequence is exactly a reachable
    cycle."""
    j = frozenset(j)
    parents: dict = {a: set() for a in j}
    for head, body in rules:
        if head in j and satisfies(j, body):
            parents[head] |= pnn_nnn(body)[0] & j
    return is_acyclic(parents)
