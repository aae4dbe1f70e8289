"""First-order syntax: terms, formulas, rules, programs.

Terms are function-free: a term is either a variable or an object
constant.  Negation and truth are not primitive connectives; ``not F``
is stored as ``F -> false`` and ``true`` as ``false -> false``, so the
connective core is falsity, conjunction, disjunction, implication and
the two quantifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ObjectConstant:
    name: str

    def __str__(self) -> str:
        return self.name


Term = Union[Variable, ObjectConstant]


# ---------------------------------------------------------------------------
# Formulas

class Formula:
    """Base class for formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    predicate: str
    args: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Equality(Formula):
    left: Term
    right: Term


class _Junction(Formula):
    """Two or more operands.  A leading operand of the same connective is
    spliced in, so ``And(And(p, q), r) == And(p, q, r)``; a later one
    stays nested, as in ``p & (q & r)``."""

    def __init__(self, *items):
        if len(items) < 2:
            raise ValueError(f"{type(self).__name__} needs two or more operands")
        if type(items[0]) is type(self):
            items = items[0].items + items[1:]
        object.__setattr__(self, "items", items)


@dataclass(frozen=True, init=False)
class And(_Junction):
    items: tuple


@dataclass(frozen=True, init=False)
class Or(_Junction):
    items: tuple


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Variable
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: Variable
    body: Formula


BOT = Bot()
TOP = Implies(BOT, BOT)


def neg(f: Formula) -> Formula:
    return Implies(f, BOT)


def iff(f: Formula, g: Formula) -> Formula:
    """Biconditional, expanded to its two implications."""
    return And(Implies(f, g), Implies(g, f))


def conjoin(fs: Iterable[Formula]) -> Formula:
    """Conjunction of ``fs``; one operand is itself, none is ``true``."""
    fs = tuple(fs)
    if len(fs) > 1:
        return And(*fs)
    return fs[0] if fs else TOP


def disjoin(fs: Iterable[Formula]) -> Formula:
    """Disjunction of ``fs``; one operand is itself, none is ``false``."""
    fs = tuple(fs)
    if len(fs) > 1:
        return Or(*fs)
    return fs[0] if fs else BOT


def _flatten(f: Formula, cls: type) -> list:
    """Operands of ``f`` read as a ``cls`` chain, left to right, with
    nested ``cls`` operands flattened too."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, cls):
            stack.extend(reversed(g.items))
        else:
            out.append(g)
    return out


def flatten_and(f: Formula) -> list:
    """Top-level conjuncts of ``f``, left to right."""
    return _flatten(f, And)


def flatten_or(f: Formula) -> list:
    return _flatten(f, Or)


# ---------------------------------------------------------------------------
# Variable bookkeeping

def _term_vars(t: Term) -> set:
    return {t} if isinstance(t, Variable) else set()


_NO_VARIABLES = frozenset()


def _variables(formulas, free: bool) -> dict:
    """Variables of ``formulas`` as the keys of a dict, in order of first
    occurrence, left to right.  With ``free``, only free occurrences
    count (quantifiers bind); otherwise bound variables count too.  The
    walk keeps an explicit stack, so deep formulas cost no recursion
    depth."""
    seen: dict = {}
    stack = [(f, _NO_VARIABLES) for f in reversed(formulas)]
    push = stack.append
    while stack:
        f, bound = stack.pop()
        cls = type(f)
        if cls is Atom:
            terms = f.args
        elif cls is And or cls is Or or cls is Implies:
            children = f.items if cls is not Implies else (f.left, f.right)
            stack.extend([(g, bound) for g in reversed(children)])
            continue
        elif cls is Forall or cls is Exists:
            if free:
                bound = bound | {f.var}
            else:
                seen[f.var] = None
            push((f.body, bound))
            continue
        elif cls is Equality:
            terms = (f.left, f.right)
        elif cls is Bot:
            continue
        else:
            raise TypeError(f"not a formula: {f!r}")
        for t in terms:
            if type(t) is Variable and t not in bound:
                seen[t] = None
    return seen


def free_variables(f: Formula) -> set:
    """Set of free variables of ``f``; quantifiers bind."""
    return set(_variables((f,), free=True))


def ordered_free_variables(f: Formula) -> list:
    """Free variables in order of first occurrence."""
    return list(_variables((f,), free=True))


def all_variables(f: Formula) -> set:
    """All variables of ``f``, free and bound."""
    return set(_variables((f,), free=False))


def fresh_variable(base: str, avoid: set) -> Variable:
    """A variable named after ``base`` not occurring in ``avoid``."""
    avoid_names = {v.name for v in avoid}
    if base not in avoid_names:
        return Variable(base)
    i = 1
    while f"{base}{i}" in avoid_names:
        i += 1
    return Variable(f"{base}{i}")


# ---------------------------------------------------------------------------
# Substitution

def _subst_term(t: Term, binding: Mapping[Variable, Term]) -> Term:
    if isinstance(t, Variable):
        return binding.get(t, t)
    return t


def substitute(f: Formula, binding: Mapping[Variable, Term]) -> Formula:
    """Capture-avoiding substitution of free occurrences.

    Bound variables are renamed when a binding value would otherwise be
    captured.
    """
    binding = {v: t for v, t in binding.items() if t != v}
    if not binding:
        return f
    if isinstance(f, Bot):
        return f
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(_subst_term(t, binding) for t in f.args))
    if isinstance(f, Equality):
        return Equality(_subst_term(f.left, binding), _subst_term(f.right, binding))
    if isinstance(f, (And, Or)):
        return type(f)(*[substitute(g, binding) for g in f.items])
    if isinstance(f, Implies):
        return Implies(substitute(f.left, binding), substitute(f.right, binding))
    if isinstance(f, (Forall, Exists)):
        cls = type(f)
        free = free_variables(f.body)
        relevant = {v: t for v, t in binding.items() if v != f.var and v in free}
        if not relevant:
            return f
        captured = set()
        for t in relevant.values():
            captured |= _term_vars(t)
        var, body = f.var, f.body
        if var in captured:
            avoid = all_variables(body) | captured | set(relevant)
            var = fresh_variable(f.var.name, avoid)
            body = substitute(body, {f.var: var})
        return cls(var, substitute(body, relevant))
    raise TypeError(f"not a formula: {f!r}")


def rename_all(f: Formula, mapping: Mapping[Variable, Variable]) -> Formula:
    """Rename every variable occurrence, free and bound, per ``mapping``."""
    if isinstance(f, Bot):
        return f
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(_subst_term(t, mapping) for t in f.args))
    if isinstance(f, Equality):
        return Equality(_subst_term(f.left, mapping), _subst_term(f.right, mapping))
    if isinstance(f, (And, Or)):
        return type(f)(*[rename_all(g, mapping) for g in f.items])
    if isinstance(f, Implies):
        return Implies(rename_all(f.left, mapping), rename_all(f.right, mapping))
    if isinstance(f, (Forall, Exists)):
        cls = type(f)
        return cls(mapping.get(f.var, f.var), rename_all(f.body, mapping))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Rules and programs

BASIC = "basic"
CHOICE = "choice"
CONSTRAINT = "constraint"


@dataclass(frozen=True)
class Rule:
    kind: str
    head: Optional[Atom]
    body: Formula

    def __post_init__(self):
        if self.kind == CONSTRAINT:
            assert self.head is None
        else:
            assert self.head is not None

    def _formulas(self) -> tuple:
        return (self.body,) if self.head is None else (self.head, self.body)

    def variables(self) -> set:
        """All variables of the rule, free and bound."""
        return set(_variables(self._formulas(), free=False))

    def free_vars(self) -> list:
        """Free variables in order of first occurrence (head, then body)."""
        return list(_variables(self._formulas(), free=True))

    def sentence(self) -> Formula:
        """The rule read as a sentence: the universal closure of body -> head."""
        inner = Implies(self.body, self.head if self.head is not None else BOT)
        return universal_closure_ordered(inner, self.free_vars())


def universal_closure_ordered(f: Formula, variables: list) -> Formula:
    out = f
    for v in reversed(variables):
        out = Forall(v, out)
    return out


def universal_closure(f: Formula) -> Formula:
    return universal_closure_ordered(f, ordered_free_variables(f))


def existential_closure(f: Formula) -> Formula:
    out = f
    for v in reversed(ordered_free_variables(f)):
        out = Exists(v, out)
    return out


@dataclass(frozen=True)
class Signature:
    predicates: tuple  # tuple[(name, arity), ...] sorted by name
    constants: tuple   # tuple[str, ...] sorted


@dataclass(frozen=True)
class Program:
    predicates: tuple          # tuple[(name, arity), ...]
    constants: tuple           # tuple[str, ...]
    rules: tuple               # tuple[Rule, ...]
    intensional: frozenset     # predicate names

    @property
    def signature(self) -> Signature:
        return Signature(tuple(sorted(self.predicates)), tuple(sorted(self.constants)))

    def arity(self, name: str) -> int:
        return dict(self.predicates)[name]

    def basic_rules(self) -> list:
        return [r for r in self.rules if r.kind == BASIC]

    def constraints(self) -> list:
        return [r for r in self.rules if r.kind == CONSTRAINT]


def rename_apart(rule: Rule, tag: int) -> Rule:
    """Rename every variable of the rule (free and bound) to ``name_tag``.

    Rules renamed with distinct tags share no variables.
    """
    mapping = {v: Variable(f"{v.name}_{tag}") for v in rule.variables()}
    head = None if rule.head is None else rename_all(rule.head, mapping)
    return Rule(rule.kind, head, rename_all(rule.body, mapping))


# ---------------------------------------------------------------------------
# Printing

_LEVEL_IMPL = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_NOT = 4
_LEVEL_ATOM = 5


def _fmt(f: Formula, min_level: int) -> str:
    text, level = _fmt_level(f)
    if level < min_level:
        return f"({text})"
    return text


def _fmt_level(f: Formula):
    if isinstance(f, Bot):
        return "false", _LEVEL_ATOM
    if f == TOP:
        return "true", _LEVEL_ATOM
    if isinstance(f, Atom):
        if f.args:
            return f"{f.predicate}({', '.join(str(t) for t in f.args)})", _LEVEL_ATOM
        return f.predicate, _LEVEL_ATOM
    if isinstance(f, Equality):
        return f"{f.left} = {f.right}", _LEVEL_ATOM
    if isinstance(f, Implies):
        if f.right == BOT:
            if isinstance(f.left, Equality):
                return f"{f.left.left} != {f.left.right}", _LEVEL_ATOM
            return f"not {_fmt(f.left, _LEVEL_NOT)}", _LEVEL_NOT
        return (f"{_fmt(f.left, _LEVEL_IMPL + 1)} -> {_fmt(f.right, _LEVEL_IMPL)}",
                _LEVEL_IMPL)
    if isinstance(f, (And, Or)):
        # a later operand of the same connective is nested: parenthesize it
        level, op = (_LEVEL_AND, " & ") if isinstance(f, And) else (_LEVEL_OR, " | ")
        first, *rest = f.items
        return (op.join([_fmt(first, level)] + [_fmt(g, level + 1) for g in rest]),
                level)
    if isinstance(f, Forall):
        return f"forall {f.var} ({_fmt(f.body, 0)})", _LEVEL_ATOM
    if isinstance(f, Exists):
        return f"exists {f.var} ({_fmt(f.body, 0)})", _LEVEL_ATOM
    raise TypeError(f"not a formula: {f!r}")


def formula_to_str(f: Formula) -> str:
    return _fmt(f, 0)


def rule_to_str(r: Rule) -> str:
    if r.kind == CONSTRAINT:
        return f":- {formula_to_str(r.body)}."
    head = formula_to_str(r.head)
    if r.kind == CHOICE:
        if r.body == TOP:
            return f"{{{head}}}."
        return f"{{{head}}} :- {formula_to_str(r.body)}."
    if r.body == TOP:
        return f"{head}."
    return f"{head} :- {formula_to_str(r.body)}."


def program_to_str(p: Program) -> str:
    lines = []
    for name, arity in sorted(p.predicates):
        if name not in p.intensional:
            lines.append(f"#extensional {name}/{arity}.")
    lines.extend(rule_to_str(r) for r in p.rules)
    return "\n".join(lines)


def pretty_print(x) -> str:
    """Render a formula or program in the input grammar.

    Round-trips: parsing the output yields a structurally equal value.
    ``not`` and ``true`` are restored as sugar on output.
    """
    if isinstance(x, Program):
        return program_to_str(x)
    if isinstance(x, Rule):
        return rule_to_str(x)
    return formula_to_str(x)
