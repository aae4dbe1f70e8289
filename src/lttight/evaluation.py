"""First-order evaluation on finite interpretations, compiled to Python.

A formula is translated once into the source of a Python function of an
interpretation (see ``semantics.Interpretation``), which is compiled and
then called on every interpretation a check examines.  A biconditional
compiles to one comparison, each side once.  The checks of
``equiv`` and ``tightness`` compile their sentences once each, the
completion as ``completion.simplify_completion`` gives it, and each
command its rules once (``compile_rules``), whole for ``check-prop3``
and ``stable`` and by depth in ``semantics.depth_cuts``, into functions
that both read them classically and yield each rule body's bindings;
``tests/conftest.py::fo_eval`` is the independent oracle the tests hold
the compiled functions to.

``compile_fold`` reads a rule once into closures, not source, that give
its instances' heads and fold each instance to the folded reduct over
atom numbers (``stability``) for the stable-model leaf; its oracle is
``tests/conftest.py``'s ``relevant_grounding``, which grounds first.
"""

from __future__ import annotations

from itertools import product

from .stability import BOT, TOP, Conj, Disj, implication, junction
from .syntax import And, Atom, Bot, Equality, Exists, Forall, Implies, Or, Variable


class GroundingError(Exception):
    """A formula reached a constant the interpretation does not map, or
    a variable nothing binds."""


def _unbound(name: str):
    raise GroundingError(f"unbound variable {name}")


def _unmapped(name: str) -> GroundingError:
    return GroundingError(f"constant {name} is not mapped by the interpretation")


# Python's tokenizer refuses more than 200 nested brackets in one
# statement, and a formula the parser accepts can need more (an
# implication or an atom opens several per level).  A subexpression
# nested deeper than this becomes a call of a helper function of its
# own, so no generated statement nests much past it.
MAX_CODE_DEPTH = 40


class _Codegen:
    """Python source for a formula evaluated on an interpretation.

    Connectives become ``and``/``or``/``not``, and a biconditional
    (``syntax.iff``: ``F -> G`` then ``G -> F`` in a conjunction) the
    bool comparison ``F == G``, which evaluates F, then G, as the
    implications do.  A run of like quantifiers becomes one
    ``all``/``any`` over ``range(m)`` (or its product); an atom a tuple
    membership test in the predicate's extension, read once per call,
    and a constant a lookup in ``consts`` made where it is evaluated.
    Python evaluates left to right and short-circuits, so evaluation
    stops where ``fo_eval`` could first tell the value, and an unmapped
    constant fails only when it is reached.  Variables become locals
    ``v0, v1, ...``, one per binding; user names appear only as
    ``repr`` string literals.

    ``expr`` returns the source with its bracket depth; past
    MAX_CODE_DEPTH the source moves into a helper ``h0, h1, ...`` that
    takes the locals it may read as arguments."""

    def __init__(self):
        self.extensions: dict = {}    # predicate -> local name
        self.locals = 0
        self.helpers: list = []

    def fresh(self) -> str:
        self.locals += 1
        return f"v{self.locals - 1}"

    def term(self, t, scope: dict) -> tuple:
        if type(t) is Variable:
            if t.name in scope:
                return scope[t.name], 0
            return f"_unbound({t.name!r})", 1
        return f"C[{t.name!r}]", 1

    def expr(self, f, scope: dict) -> tuple:
        source, depth = self.node(f, scope)
        if depth <= MAX_CODE_DEPTH:
            return source, depth
        params = ", ".join(["C", "R", *self.extensions.values(),
                            *scope.values()])
        name = f"h{len(self.helpers)}"
        self.helpers.append(f"def {name}({params}):\n    return {source}\n")
        return f"{name}({params})", 1

    def node(self, f, scope: dict) -> tuple:
        cls = type(f)
        if cls is Atom:
            ext = self.extensions.setdefault(f.predicate,
                                             f"e{len(self.extensions)}")
            args = [self.term(t, scope) for t in f.args]
            source = "".join(a + ", " for a, _ in args)
            return f"(({source}) in {ext})", 2 + max((d for _, d in args), default=0)
        if cls is And or cls is Or:
            items, i = [], 0
            while i < len(f.items):
                g = f.items[i]
                if (cls is And and type(g) is Implies
                        and f.items[i + 1:i + 2] == (Implies(g.right, g.left),)):
                    left, dl = self.expr(g.left, scope)
                    right, dr = self.expr(g.right, scope)
                    items.append((f"({left} == {right})", 1 + max(dl, dr)))
                    i += 1
                else:
                    items.append(self.expr(g, scope))
                i += 1
            if len(items) == 1:
                return items[0]
            op = " and " if cls is And else " or "
            return ("(" + op.join(s for s, _ in items) + ")",
                    1 + max(d for _, d in items))
        if cls is Implies:
            left, dl = self.expr(f.left, scope)
            if type(f.right) is Bot:
                return f"(not {left})", 1 + dl
            right, dr = self.expr(f.right, scope)
            return f"(not {left} or {right})", 1 + max(dl, dr)
        if cls is Equality:
            left, dl = self.term(f.left, scope)
            right, dr = self.term(f.right, scope)
            return f"({left} == {right})", 1 + max(dl, dr)
        if cls is Forall or cls is Exists:
            names = []
            while type(f) is cls:
                scope = {**scope, f.var.name: self.fresh()}
                names.append(scope[f.var.name])
                f = f.body
            body, depth = self.expr(f, scope)
            return (f"{'all' if cls is Forall else 'any'}({body} "
                    f"for {self.loop(names)})", 1 + max(depth, 1))
        if cls is Bot:
            return "False", 0
        raise TypeError(f"not a formula: {f!r}")

    @staticmethod
    def loop(names: list) -> str:
        if len(names) == 1:
            return f"{names[0]} in R"
        targets = "".join(n + ", " for n in names)
        return f"({targets}) in _product(R, repeat={len(names)})"

    def function(self, statements: list) -> str:
        lines = ["def compiled(I):",
                 "    C = I.consts",
                 "    R = range(I.universe)",
                 "    X = I.extensions"]
        lines += [f"    {ext} = X.get({p!r}, ())"
                  for p, ext in self.extensions.items()]
        lines += ["    try:", *["        " + s for s in statements],
                  "    except KeyError as exc:",
                  "        raise _unmapped(exc.args[0]) from None"]
        return "".join(self.helpers) + "\n".join(lines) + "\n"


def _build(source: str):
    namespace = {"_product": product, "_unbound": _unbound, "_unmapped": _unmapped}
    exec(compile(source, "<lttight formula>", "exec"), namespace)
    return namespace["compiled"]


def compile_sentence(sentence):
    """A function of an interpretation that tells whether it satisfies
    ``sentence``: the evaluator, compiled once to Python so that a check
    can call it on every interpretation it examines.

    Connectives and quantifiers short-circuit: evaluation stops at the
    first false conjunct or instance of a universal, and at the first
    true disjunct or instance of an existential.  Nothing is grounded.
    Reaching an unmapped constant or a free variable raises
    GroundingError."""
    gen = _Codegen()
    body, _ = gen.expr(sentence, {})
    return _build(gen.function([f"return {body}"]))


def predicates_read(sentence) -> list:
    """The predicates whose extensions ``compile_sentence(sentence)``
    reads, in the order it first reads them."""
    gen = _Codegen()
    gen.expr(sentence, {})
    return list(gen.extensions)


def compile_rules(rules):
    """A function of an interpretation that reads ``rules`` in order,
    each as its ``Rule.sentence`` with instances in ``product`` order:
    None at the first violated instance, else for each rule with a head
    the value tuples of its free variables under which its body holds.
    Each body is evaluated once per instance and stops where the
    sentence would, so GroundingError is raised where it would be."""
    gen = _Codegen()
    lines, bound = [], []
    for r in rules:
        scope = {v.name: gen.fresh() for v in r.free_vars()}
        names = list(scope.values())
        test = f"if {gen.expr(r.body, scope)[0]}:"
        if r.head is None:
            inner = [test + " return None"]
        else:
            bound.append(f"b{len(bound)}")
            lines.append(f"{bound[-1]} = []")
            inner = [test, f"    if not {gen.expr(r.head, scope)[0]}: return None",
                     f"    {bound[-1]}.append(({''.join(n + ', ' for n in names)}))"]
        if names:
            lines.append(f"for {gen.loop(names)}:")
            inner = ["    " + line for line in inner]
        lines += inner
    return _build(gen.function(lines + [f"return [{', '.join(bound)}]"]))


# ---------------------------------------------------------------------------
# The stable-model leaf: rule instances folded as they are grounded

class _Folder:
    """Reads one rule into closures of ``(env, leaf)``.  ``env`` holds
    an instance's binding, the values of the rule's free variables at
    the positions ``free`` gives them, then one slot per quantifier,
    counted from the end.  ``leaf`` is ``(numbers, consts,
    range(universe), extensions)``: an atom true in ``extensions`` folds
    to its number in ``numbers``, which numbers it ``len(numbers)`` when
    the fold first meets it, and any other atom to ``BOT``."""

    def __init__(self, free: dict):
        self.free = free        # free variable name -> position in env
        self.slots = 0          # quantifier slots taken

    def element(self, t, bound: dict):
        """The element the term denotes: a variable's value, a
        constant's under the constant map ``leaf[1]``, which raises
        KeyError when it has none."""
        if type(t) is Variable:
            i = bound[t.name] if t.name in bound else self.free[t.name]
            return lambda env, leaf: env[i]
        return lambda env, leaf: leaf[1][t.name]

    def fold(self, f, bound: dict):
        """``f``'s grounding's folded reduct; ``bound`` maps the names
        of the variables that quantifiers bind to their slots."""
        cls = type(f)
        if cls is Atom:
            p = f.predicate
            terms = [self.element(t, bound) for t in f.args]

            def atom(env, leaf):
                args = tuple([t(env, leaf) for t in terms])
                if args not in leaf[3].get(p, ()):
                    return BOT
                numbers = leaf[0]
                return numbers.setdefault((p, args), len(numbers))
            return atom
        if cls is Implies:
            left, right = self.fold(f.left, bound), self.fold(f.right, bound)
            return lambda env, leaf: implication(left(env, leaf), right(env, leaf))
        if cls is And or cls is Or:
            kind = Conj if cls is And else Disj
            items = [self.fold(g, bound) for g in f.items]
            return lambda env, leaf: junction(kind, [g(env, leaf) for g in items])
        if cls is Forall or cls is Exists:
            kind = Conj if cls is Forall else Disj
            self.slots += 1
            i = -self.slots
            body = self.fold(f.body, {**bound, f.var.name: i})

            def quantified(env, leaf):
                items = []
                for e in leaf[2]:
                    env[i] = e
                    items.append(body(env, leaf))
                return junction(kind, items)
            return quantified
        if cls is Equality:
            left, right = self.element(f.left, bound), self.element(f.right, bound)
            return lambda env, leaf: TOP if left(env, leaf) == right(env, leaf) else BOT
        if cls is Bot:
            return lambda env, leaf: BOT
        raise TypeError(f"not a formula: {f!r}")


def compile_fold(rule):
    """Two functions of a basic rule's bindings, the value tuples of its
    free variables as ``compile_rules`` returns them, and ``leaf``, that
    is ``(numbers, consts, range(universe), extensions)`` for an
    interpretation (``_Folder``).  ``heads`` gives the list of the
    instances' head atoms ``(predicate, args)``; ``fold`` the list of
    the instances ``body -> head`` folded, each equal to the folded
    reduct of its grounding (``semantics.ground``;
    ``tests/conftest.py::folded_reduct``) under any numbering of the
    true atoms that extends ``numbers`` as the fold leaves it.  A
    binding's values are those of ``Rule.free_vars``, in its order.  The
    rule is read once, into closures; no source is generated.  Each
    reads the terms it reaches as ``ground`` does (``heads`` the head's),
    so GroundingError is raised where ``ground`` raises it."""
    folder = _Folder({v.name: i for i, v in enumerate(rule.free_vars())})
    head = folder.fold(rule.head, {})
    body = folder.fold(rule.body, {})
    extra = [None] * folder.slots
    p = rule.head.predicate
    terms = [folder.element(t, {}) for t in rule.head.args]

    def heads(bindings, leaf):
        try:
            return [(p, tuple([t(v, leaf) for t in terms])) for v in bindings]
        except KeyError as exc:
            raise _unmapped(exc.args[0]) from None

    def fold(bindings, leaf):
        out = []
        try:
            for values in bindings:
                env = [*values, *extra]
                out.append(implication(body(env, leaf), head(env, leaf)))
        except KeyError as exc:
            raise _unmapped(exc.args[0]) from None
        return out
    return heads, fold
