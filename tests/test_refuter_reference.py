"""The refuter against an uncached reference.

``_UnionFind``, ``_split_literals``, ``_expand_atom`` and ``_refute``
below are the refuter as it was before expansions were memoized per
check and case splits carried their parent's congruence classes:
every node re-splits its conjunct list, rebuilds its union-find and
re-instantiates every definition it expands.  The library's refuter must
give the same verdict on every chain."""

from pathlib import Path
from random import Random

import pytest

import lttight.tightness as tightness
from lttight.cli import run
from lttight.completion import completion, simplify
from lttight.fixtures import builtin_fixture, fixture_names
from lttight.parser import parse_program
from lttight.syntax import (
    BOT, And, Atom, Equality, Forall, Implies, ObjectConstant, flatten_and,
    flatten_or, formula_to_str, neg, substitute,
)
from lttight.tightness import (
    COUNTERMODEL, ENTAILED, chain_formula, chains, check_gamma_tight,
    refute_chain_formula, refuter_tables,
)

from test_properties import SIG, random_formula, random_sentence

UNKNOWN_LP = Path(__file__).resolve().parent.parent / "bench" / "unknown.lp"


# ---------------------------------------------------------------------------
# The uncached reference refuter

class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _split_literals(conjuncts):
    pos_atoms, neg_atoms, eqs, diseqs = [], [], [], []
    for c in conjuncts:
        if isinstance(c, Atom):
            pos_atoms.append(c)
        elif isinstance(c, Equality):
            eqs.append(c)
        elif isinstance(c, Implies) and c.right == BOT:
            if isinstance(c.left, Atom):
                neg_atoms.append(c.left)
            elif isinstance(c.left, Equality):
                diseqs.append(c.left)
        # other shapes are opaque to the refuter (sound: ignoring
        # conjuncts only weakens the refutation)
    return pos_atoms, neg_atoms, eqs, diseqs


_SUPPORTED_LITERAL = (Atom, Equality)


def _expand_atom(atom: Atom, defs: dict):
    """Instantiated completed-definition body of the atom as a list of
    disjuncts (each a list of literal conjuncts), or None when the
    definition's shape is not usable by the refuter."""
    if atom.predicate not in defs:
        return None
    head_vars, body = defs[atom.predicate]
    inst = substitute(body, dict(zip(head_vars, atom.args)))
    disjuncts = []
    for d in flatten_or(inst):
        if d == BOT:
            continue
        conjuncts = flatten_and(d)
        for c in conjuncts:
            if isinstance(c, _SUPPORTED_LITERAL):
                continue
            if (isinstance(c, Implies) and c.right == BOT
                    and isinstance(c.left, _SUPPORTED_LITERAL)):
                continue
            return None
        disjuncts.append(conjuncts)
    return disjuncts


def _refute(conjuncts, gamma_diseqs, defs, split_done: frozenset, depth: int) -> bool:
    conjuncts = list(conjuncts)
    unit_done: set = set()
    for _ in range(200):
        pos_atoms, neg_atoms, eqs, diseqs = _split_literals(conjuncts)
        uf = _UnionFind()
        for e in eqs:
            uf.union(e.left, e.right)
        for e in diseqs + gamma_diseqs:
            if uf.find(e.left) == uf.find(e.right):
                return True
        for a in pos_atoms:
            for b in neg_atoms:
                if a.predicate == b.predicate and all(
                        uf.find(s) == uf.find(t) for s, t in zip(a.args, b.args)):
                    return True
        # saturate with single-disjunct (unit) expansions
        progressed = False
        for atom in pos_atoms:
            if atom in unit_done:
                continue
            disjuncts = _expand_atom(atom, defs)
            unit_done.add(atom)
            if disjuncts is None:
                continue
            if not disjuncts:
                return True   # empty definition body: the atom is impossible
            if len(disjuncts) == 1:
                new = [c for c in disjuncts[0] if c not in conjuncts]
                if new:
                    conjuncts.extend(new)
                    progressed = True
                    break
        if not progressed:
            break
    if depth <= 0:
        return False
    # case split over multi-disjunct definitions
    pos_atoms, _, _, _ = _split_literals(conjuncts)
    for atom in dict.fromkeys(pos_atoms):
        if atom in split_done:
            continue
        disjuncts = _expand_atom(atom, defs)
        if disjuncts and len(disjuncts) > 1:
            if all(_refute(conjuncts + d, gamma_diseqs, defs,
                           split_done | {atom}, depth - 1)
                   for d in disjuncts):
                return True
    return False


def _reference_defs(comp) -> dict:
    """Predicate -> head variables and simplified forward body of its
    completed definition."""
    defs = {}
    for p, sentence in comp.completed_definitions:
        f = sentence
        head_vars = []
        while isinstance(f, Forall):
            head_vars.append(f.var)
            f = f.body
        if isinstance(f, And) and isinstance(f.items[0], Implies):
            defs[p] = (head_vars, simplify(f.items[0].right))
    return defs


def assert_reference_verdicts(prog, gammas, lengths) -> list:
    """Refute every chain of ``prog`` of each length in ``lengths`` under
    each Gamma in turn, with one refuter table per Gamma built from one
    completion before the chain loop, as ``check_gamma_tight`` builds
    one, and assert the reference's verdict for each.  Returns the
    verdicts."""
    comp = completion(prog)
    defs = _reference_defs(comp)
    tables = [(gamma, refuter_tables(gamma, comp)) for gamma in gammas]
    verdicts = []
    for n in lengths:
        for c in chains(prog, n):
            fc = chain_formula(c)
            for gamma, table in tables:
                expected = _refute(
                    flatten_and(fc), tightness._ground_disequalities(gamma),
                    defs, frozenset(), 4)
                assert refute_chain_formula(fc, table) == expected, (
                    formula_to_str(fc), [formula_to_str(g) for g in gamma])
                verdicts.append(expected)
    return verdicts


# ---------------------------------------------------------------------------
# Same verdicts

@pytest.mark.parametrize("name", fixture_names())
def test_fixture_chains_match_reference(name):
    fx = builtin_fixture(name)
    assert_reference_verdicts(fx.program, (fx.gamma, ()), range(1, 4))


@pytest.mark.parametrize("k", [1, 2])
def test_moving_chains_match_reference(k):
    fx = builtin_fixture(f"moving({k})")
    verdicts = assert_reference_verdicts(fx.program, (fx.gamma, ()),
                                         range(1, k + 3))
    assert True in verdicts and False in verdicts


def test_unknown_program_matches_reference():
    prog = parse_program(UNKNOWN_LP.read_text(encoding="utf-8"))
    verdicts = assert_reference_verdicts(prog, ((),), range(1, 4))
    assert False in verdicts


A, B = ObjectConstant("a"), ObjectConstant("b")
HEADS = {"p": "p(X)", "q": "q(X, Y)", "r": "r"}


def _random_atom(rng: Random, terms: list) -> str:
    name, arity = rng.choice(SIG.predicates)
    if not arity:
        return name
    return f"{name}({', '.join(rng.choice(terms) for _ in range(arity))})"


def _random_literal(rng: Random, terms: list) -> str:
    roll = rng.randrange(5)
    if roll == 0:
        return _random_atom(rng, terms)
    if roll == 1:
        return f"not {_random_atom(rng, terms)}"
    op = "=" if roll == 2 else "!="
    return f"{rng.choice(terms)} {op} {rng.choice(terms)}"


def random_program(rng: Random):
    """Two to six rules over the property suite's signature.  Most
    bodies are conjunctions of literals over the head's variables, the
    shapes the refuter expands, and heads repeat, so definitions have
    several disjuncts to split over.  The other bodies are random
    formulas, whose extra variables make definitions the refuter must
    leave opaque."""
    rules = []
    for _ in range(rng.randint(2, 6)):
        name, _ = rng.choice(SIG.predicates)
        head = HEADS[name]
        terms = [t for t in ("X", "Y") if t in head] + ["a", "b"]
        if rng.random() < 0.8:
            body = ", ".join(_random_literal(rng, terms)
                             for _ in range(rng.randint(1, 3)))
        else:
            body = formula_to_str(random_formula(rng, 2))
        rules.append(f"{head} :- {body}.")
    return parse_program("\n".join(rules))


def test_random_programs_match_reference():
    """Seeded random programs, each refuted with no Gamma, with a != b,
    and with a != b beside a random sentence, against one completion."""
    rng = Random(4242)
    verdicts = []
    split_needed = 0
    for _ in range(250):
        prog = random_program(rng)
        gammas = ((), (neg(Equality(A, B)),),
                  (random_sentence(rng, 2), neg(Equality(A, B))))
        verdicts += assert_reference_verdicts(prog, gammas, (1, 2))
        defs = _reference_defs(completion(prog))
        for c in chains(prog, 1):
            conjuncts = flatten_and(chain_formula(c))
            split_needed += (_refute(conjuncts, [], defs, frozenset(), 4)
                             and not _refute(conjuncts, [], defs, frozenset(), 0))
    refuted = sum(verdicts)
    assert refuted >= 100 and len(verdicts) - refuted >= 100
    assert split_needed >= 5
    print(f"refuter vs reference: {len(verdicts)} verdicts, {refuted} refuted, "
          f"{split_needed} chains refuted only by a case split")


# ---------------------------------------------------------------------------
# What the memo and the carried nodes must not share

def test_sibling_disjuncts_do_not_share_a_node():
    """s(X) is X = a or X != a; each disjunct alone is consistent, the
    two together are not.  A split whose children shared one node would
    refute this genuine loop."""
    prog = parse_program("p(X) :- p(X), s(X). s(X) :- X = a. s(X) :- X != a.")
    assert set(assert_reference_verdicts(prog, ((),), (1,))) == {False}
    assert check_gamma_tight(prog, (), 1).status == COUNTERMODEL


def test_expansions_are_kept_per_completion():
    """The same chain atom t(X_1), defined as impossible in one program
    and as trivially true in the other, checked in both orders."""
    impossible = parse_program("p(X) :- p(X), t(X). t(X) :- X != X.")
    possible = parse_program("p(X) :- p(X), t(X). t(X) :- X = X.")
    for order in ((impossible, possible), (possible, impossible)):
        got = [check_gamma_tight(prog, (), 1).status for prog in order]
        assert got == [ENTAILED if prog is impossible else COUNTERMODEL
                       for prog in order]


def test_expansions_are_kept_per_atom():
    """s(X_1) and s(X_2) instantiate one definition with different
    arguments; only s(X_2) clashes, with the link X_2 = Y_1 = a."""
    prog = parse_program("p(X) :- p(Y), s(X), Y = a. s(X) :- X != a.")
    assert set(assert_reference_verdicts(prog, ((),), (1,))) == {True}
    assert check_gamma_tight(prog, (), 1).status == ENTAILED


# ---------------------------------------------------------------------------
# Expand once, pinned by a count

@pytest.mark.parametrize("k, expanded", [(1, 4), (2, 10), (3, 12), (4, 14)])
def test_each_atom_is_expanded_once_per_check(monkeypatch, k, expanded):
    calls = []

    def counting_substitute(f, mapping):
        calls.append((f, tuple(mapping.items())))
        return substitute(f, mapping)

    monkeypatch.setattr(tightness, "substitute", counting_substitute)
    fx = builtin_fixture(f"moving({k})")
    assert check_gamma_tight(fx.program, fx.gamma, k + 2).status == ENTAILED
    assert len(set(calls)) == len(calls) == expanded


def test_moving4_at_n6_report(capsys):
    """Recorded before expansions were memoized."""
    code = run(["check-gamma-tight", "fixture:moving(4)", "--n", "6"])
    assert (code, capsys.readouterr().out) == (0, "entailed (syntactic)\n")


# ---------------------------------------------------------------------------
# The same search tree, pinned by a count

@pytest.mark.parametrize("argv, calls, children", [
    (["fixture:moving(1)", "--n", "3"], 8, 0),
    (["fixture:moving(2)", "--n", "4"], 90, 80),
    (["fixture:moving(3)", "--n", "5"], 264, 252),
    (["fixture:moving(4)", "--n", "6"], 822, 808),
    (["fixture:prog2", "--n", "1", "--bound", "3"], 2, 0),
    ([str(UNKNOWN_LP), "--n", "1", "--bound", "3"], 3, 0),
])
def test_refuter_search_tree_is_unchanged(monkeypatch, capsys, argv, calls,
                                          children):
    """The number of refuter nodes, and of case-split children among
    them, per ``check-gamma-tight`` job of the benchmark, recorded before
    the refuter numbered its terms: a faster node must not prune."""
    depths = []
    refute = tightness._refute

    def counting_refute(*args):
        depths.append(args[-1])
        return refute(*args)

    monkeypatch.setattr(tightness, "_refute", counting_refute)
    run(["check-gamma-tight", *argv])
    capsys.readouterr()
    assert len(depths) == calls
    assert sum(d < tightness.MAX_SPLIT_DEPTH for d in depths) == children
