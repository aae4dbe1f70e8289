"""Ground formulas, their reducts folded over integer atoms, and the
search for a smaller model.

A ground formula is built from ground atoms with ``Conj``, ``Disj`` and
``Imp``.  A ground atom is the tuple ``(predicate, args)``, ``args`` a
tuple of universe elements; ``TOP`` is ``Conj(())`` and ``BOT`` is
``Disj(())``.  ``semantics`` grounds first-order sentences and programs
into this form; its reduct, satisfaction and printing read it.

The atoms of an atom set J are numbered ``0 .. n-1``, and the reduct of
a ground formula relative to J is kept *folded*: constant-folded over
those numbers, the integer-literal form ground ASP solvers search
(Gebser, Kaufmann, Neumann and Schaub, "Conflict-driven answer set
solving", 2007).  A folded formula is ``TOP``, ``BOT``, or a ground
formula over atom numbers with neither ``TOP`` nor ``BOT`` inside it.
The semantics is that of Ferraris, Lee and Lifschitz ("Stable models and
circumscription", 2011): J is stable for a formula when J satisfies its
reduct relative to J and no proper subset of J does.

``semantics.is_stable`` numbers the atoms (``atom_numbers``), folds a
ground formula's reduct with ``junction`` (``folded_reduct``, which
folds implications itself, and folds ``F -> false`` to ``false`` unless
F folds to ``false``: sound for a reduct, not for a classical fold), and
``has_smaller_model`` decides minimality on the result.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# Ground and folded formulas

# Plain classes, not dataclasses: generating three dataclasses' methods
# at import raised the peak RSS of bench/run.py, which imports lttight
# afresh for each set-up, by 0.9 MB.

class _Junction:
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items

    def __eq__(self, other):
        return type(other) is type(self) and other.items == self.items

    def __repr__(self):
        return f"{type(self).__name__}({self.items!r})"


class Conj(_Junction):
    __slots__ = ()


class Disj(_Junction):
    __slots__ = ()


class Imp:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __eq__(self, other):
        return (type(other) is Imp and other.left == self.left
                and other.right == self.right)

    def __repr__(self):
        return f"Imp({self.left!r}, {self.right!r})"


TOP = Conj(())
BOT = Disj(())


def junction(cls, items):
    """The folded conjunction (``cls`` is ``Conj``) or disjunction
    (``Disj``) of folded ``items``: its zero (``BOT`` for a conjunction,
    ``TOP`` for a disjunction) at the first zero item, nested junctions
    of the same kind flattened, and unit items, the empty junction of
    that kind, dropped."""
    zero, unit = (BOT, TOP) if cls is Conj else (TOP, BOT)
    out = []
    for x in items:
        if x is zero:
            return zero
        if type(x) is cls:
            out.extend(x.items)
        else:
            out.append(x)
    if len(out) > 1:
        return cls(tuple(out))
    return out[0] if out else unit


def atom_numbers(atoms) -> dict:
    """The distinct ground atoms of ``atoms`` numbered ``0 .. n-1`` in
    the order they first occur."""
    numbers = dict.fromkeys(atoms)
    for i, a in enumerate(numbers):
        numbers[a] = i
    return numbers


def folded_reduct(g, numbers: dict):
    """The reduct of the ground formula ``g`` relative to j, folded over
    atom numbers (see above), where ``numbers`` maps each atom
    of j to its number.  A subformula that j does not satisfy folds to
    ``BOT``, so the result is ``BOT`` exactly when j does not satisfy
    ``g``.  The walk takes one stack frame per level of ``g``."""
    cls = type(g)
    if cls is tuple:
        return numbers.get(g, BOT)
    if cls is Imp:
        left = folded_reduct(g.left, numbers)
        if left is BOT:
            return TOP
        right = folded_reduct(g.right, numbers)
        return (right if left is TOP or right is TOP or right is BOT
                else Imp(left, right))
    if cls is Conj or cls is Disj:
        items = []
        for x in g.items:
            items.append(folded_reduct(x, numbers))
        return junction(cls, items)
    raise TypeError(f"not a ground formula: {g!r}")


# ---------------------------------------------------------------------------
# Minimality by search over an assignment list

def _kleene(f, val: list):
    """Three-valued (Kleene) value of a folded formula under the partial
    assignment ``val`` (atom number -> True, False or None): True,
    False, or None while it depends on an unassigned atom."""
    cls = type(f)
    if cls is int:
        return val[f]
    if cls is Imp:
        left = _kleene(f.left, val)
        if left is False:
            return True
        right = _kleene(f.right, val)
        if right is True or (left is True and right is False):
            return right
        return None
    stop = cls is Disj      # the item value that decides the whole
    out = not stop
    for x in f.items:
        v = _kleene(x, val)
        if v is stop:
            return stop
        if v is None:
            out = None
    return out


def _force(f, val: list):
    """Assign in ``val`` the atoms that ``f`` being true forces true (an
    atom, the items of a conjunction, the consequent of an implication
    whose antecedent is already true), and return the value of ``f``:
    True, False on a conflict, or None while open.  Assignments only
    ever decide more, so a decided value is final, but None may be
    stale once a later item of a conjunction has forced an atom."""
    cls = type(f)
    if cls is int:
        if val[f] is None:
            val[f] = True
            return True
        return val[f]
    if cls is Conj:
        out = True
        for x in f.items:
            v = _force(x, val)
            if v is False:
                return False
            if v is None:
                out = None
        return out
    if cls is Imp:
        left = _kleene(f.left, val)
        if left is True:
            return _force(f.right, val)
        if left is False or _kleene(f.right, val) is True:
            return True
        return None
    return _kleene(f, val)


def _propagate(conjuncts, val: list):
    """Extend ``val`` with what every conjunct being true forces, up to a
    fixpoint, and return the conjuncts still open, or None on a
    conflict.  On definite rules this computes the least model of what
    ``val`` already makes true.  In the last round nothing is assigned,
    so the values ``_force`` returns in it are exact."""
    while True:
        unassigned = val.count(None)
        still_open = []
        for c in conjuncts:
            v = _force(c, val)
            if v is False:
                return None
            if v is None:
                still_open.append(c)
        if val.count(None) == unassigned:
            return still_open
        conjuncts = still_open


def has_smaller_model(r, n: int) -> bool:
    """Whether some proper subset of the atoms ``0 .. n-1`` satisfies the
    folded formula ``r``, whose atoms are all among them.  Depth-first
    search over the atoms in order, false first, propagating what
    ``r``'s conjuncts force; a branch ends as soon as ``r`` is
    decided."""

    def search(conjuncts, val: list, i: int) -> bool:
        conjuncts = _propagate(conjuncts, val)
        if conjuncts is None:
            return False
        if not conjuncts:
            # r is true: so is every completion of val, and one is a
            # proper subset iff some atom is false or still unassigned
            return None in val or False in val
        while val[i] is not None:
            i += 1
        lower = val[:]
        lower[i] = False
        if search(conjuncts, lower, i + 1):
            return True
        val[i] = True
        return search(conjuncts, val, i + 1)

    return search(r.items if type(r) is Conj else (r,), [None] * n, 0)

