"""Seeded randomized invariants beyond the core acceptance properties:
printer/parser round trip, substitution, grounding and the compiled
evaluator against a direct first-order evaluator, simplification
soundness, the tight-on consequence of chain refutation, the relevant
grounding against the whole grounding, and the stable-model leaf's fold
against the relevant grounding."""

import json
import sys
from collections import Counter
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest

from lttight.completion import (
    completion, desugar, simplify, simplify_completion,
)
from lttight.equiv import successor_state_interpretations
from lttight.fixtures import builtin_fixture
from lttight.parser import (
    MAX_IFF_COPIES, MAX_NESTING, ParseError, parse_formula, parse_program,
)
from lttight import evaluation, stability
from lttight.evaluation import compile_rules, compile_sentence
from lttight.semantics import (
    GroundingError, ResourceGuardError,
    enumerate_interpretations, ground, ground_program,
    ground_to_str, is_sm_model, make_interpretation, relevant_reduct,
    sample_interpretation, satisfies_fo, sm_tables,
)
from lttight.syntax import (
    BASIC, BOT, CHOICE, CONSTRAINT, TOP, And, Atom, Equality, Exists, Forall,
    Implies, ObjectConstant, Or, Rule, Signature, Variable, formula_to_str,
    existential_closure, free_variables, iff, neg, rename_apart, substitute,
)
from lttight.tightness import (
    COUNTERMODEL, ENTAILED, UNKNOWN, chain_formula, chains, check_gamma_tight,
    refute_chain_formula, refuter_tables,
)

from conftest import (
    atom_numbers, fo_eval, folded_reduct, is_stable_ground, is_supported,
    is_tight_on, random_ground_formula, random_ground_program,
    random_non_horn_formula, reduct, relevant_grounding, rule_check,
    rules_eval, satisfies, true_atoms,
)
from test_acceptance import _oracle_stable
from test_parser import (
    IFF_COPIES, IFF_DEPTH, IFF_SHAPES, NESTING_SHAPES, nested,
)

SEED = 97
SMALL_FIXTURES = ("prog1", "prog2", "prog4", "ex1", "ex2", "example1",
                  "example2", "example3")
SIG = Signature(predicates=(("p", 1), ("q", 2), ("r", 0)),
                constants=("a", "b"))
VARS = [Variable("X"), Variable("Y"), Variable("Z")]
CONSTS = [ObjectConstant("a"), ObjectConstant("b")]


def random_formula(rng: Random, depth: int):
    """A random formula over SIG; may have free variables."""

    def term():
        return rng.choice(VARS + CONSTS)

    if depth == 0 or rng.random() < 0.3:
        roll = rng.randrange(5)
        if roll == 0:
            return BOT
        if roll == 1:
            return TOP
        if roll == 2:
            return Equality(term(), term())
        name, arity = rng.choice(SIG.predicates)
        return Atom(name, tuple(term() for _ in range(arity)))
    kind = rng.randrange(6)
    if kind == 0:
        return And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 1:
        return Or(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 2:
        return Implies(random_formula(rng, depth - 1),
                       random_formula(rng, depth - 1))
    if kind == 3:
        return neg(random_formula(rng, depth - 1))
    cls = Forall if kind == 4 else Exists
    return cls(rng.choice(VARS), random_formula(rng, depth - 1))


def random_sentence(rng: Random, depth: int):
    """A random formula closed by a random quantifier per free variable."""
    f = random_formula(rng, depth)
    for v in sorted(free_variables(f), key=lambda v: v.name):
        f = rng.choice((Forall, Exists))(v, f)
    return f


def random_env(rng: Random, f, m: int) -> dict:
    return {v: rng.randrange(m) for v in free_variables(f)}


def test_print_parse_round_trip():
    rng = Random(SEED)
    for i in range(1000):
        f = random_formula(rng, 3)
        assert parse_formula(formula_to_str(f)) == f, formula_to_str(f)
    print("round trip: 1000 cases")


IFF_LEAVES = ["q(X)", "r", "X = a", "X != Y", "true", "false"]


def random_iff_tree(rng: Random, depth: int):
    """A random formula of ``<->``, ``not``, ``&``, quantifiers and
    leaves, as a tree: a leaf's text, or an operator and its operands."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(IFF_LEAVES)
    op = rng.choice(["<->", "<->", "<->", "&", "not", "forall", "exists"])
    if op in ("<->", "&"):
        return (op, random_iff_tree(rng, depth - 1),
                random_iff_tree(rng, depth - 1))
    return (op, random_iff_tree(rng, depth - 1))


def iff_tree_text(tree) -> str:
    if type(tree) is str:
        return tree
    op, *args = tree
    parts = [f"({iff_tree_text(a)})" for a in args]
    if op == "not":
        return f"not {parts[0]}"
    if op in ("forall", "exists"):
        return f"{op} X {parts[0]}"
    return f"{parts[0]} {op} {parts[1]}"


def iff_tree_copies(tree, counted=IFF_LEAVES) -> tuple:
    """The ``counted`` leaf occurrences of the tree: as written, and as
    often as expanding each ``F <-> G`` into ``(F -> G) & (G -> F)``
    copies them."""
    if type(tree) is str:
        return (1, 1) if tree in counted else (0, 0)
    op, *args = tree
    written = expanded = 0
    for a in args:
        w, e = iff_tree_copies(a, counted)
        written, expanded = written + w, expanded + e
    return written, 2 * expanded if op == "<->" else expanded


def test_iff_expansion_stays_within_the_copies_bound():
    """A formula parses if and only if expanding its ``<->`` copies at
    most MAX_IFF_COPIES leaves beyond those of its text, and the copies
    bound refuses the rest.  Some are refused only because ``true`` and
    ``false`` count."""
    rng = Random(SEED + 13)
    accepted = refused = by_constants = 0
    for _ in range(2000):
        tree = random_iff_tree(rng, rng.randint(4, 10))
        written, expanded = iff_tree_copies(tree)
        try:
            parse_formula(iff_tree_text(tree))
        except ParseError as exc:
            assert IFF_COPIES in str(exc), (tree, exc)
            assert expanded - written > MAX_IFF_COPIES, tree
            refused += 1
            written, expanded = iff_tree_copies(tree, IFF_LEAVES[:4])
            by_constants += expanded - written <= MAX_IFF_COPIES
        else:
            assert expanded - written <= MAX_IFF_COPIES, tree
            accepted += 1
    assert accepted > 1000 and refused > 50 and by_constants > 10, \
        (accepted, refused, by_constants)
    print(f"<-> expansion vs the copies bound: {accepted} accepted, "
          f"{refused} refused, {by_constants} of them only for their "
          f"true and false")


def test_grounding_matches_direct_evaluation():
    rng = Random(SEED + 1)
    for i in range(1000):
        f = random_formula(rng, 3)
        m = rng.randint(1, 3)
        interp = sample_interpretation(SIG, m, rng)
        env = random_env(rng, f, m)
        direct = fo_eval(f, interp, env)
        names = {v.name: e for v, e in env.items()}
        via_ground = satisfies(frozenset(true_atoms(interp)), ground(f, interp, names))
        assert direct == via_ground, formula_to_str(f)
    print("grounding faithfulness: 1000 cases")


def test_evaluation_matches_oracles():
    """The short-circuiting evaluator against the direct evaluator and
    the grounding path, on sampled interpretations (constants merge
    freely) and on every interpretation at m <= 2."""
    rng = Random(SEED + 6)
    merged = 0

    def check(f, interp):
        expected = fo_eval(f, interp)
        assert satisfies_fo(interp, f) == expected, formula_to_str(f)
        assert satisfies(frozenset(true_atoms(interp)), ground(f, interp)) == expected

    for i in range(1000):
        interp = sample_interpretation(SIG, rng.randint(1, 3), rng)
        merged += interp.consts["a"] == interp.consts["b"]
        check(random_sentence(rng, 4), interp)
    assert merged > 100
    for m in (1, 2):
        for interp in enumerate_interpretations(SIG, m):
            for _ in range(3):
                check(random_sentence(rng, 3), interp)
    print("evaluator vs oracles: 1000 sampled cases plus 3 per enumerated "
          "interpretation")


def test_is_sm_model_matches_grounding_reference():
    """The staged stable-model check against grounding the whole
    desugared program and testing stability directly, for every
    interpretation at m <= 2 of the small fixtures.  The two share the
    fold and the search, so the subset-sweep oracle, which shares
    neither, decides too."""
    total = stable = 0
    for name in SMALL_FIXTURES:
        prog = builtin_fixture(name).program
        d = desugar(prog)
        tables, desugared_tables = sm_tables(prog), sm_tables(d)
        bindings = rule_check(tables)
        desugared_bindings = rule_check(desugared_tables)
        for m in (1, 2):
            for interp in enumerate_interpretations(prog.signature, m):
                _, gf = ground_program(d, interp)
                j = frozenset(true_atoms(interp))
                expected = is_stable_ground(gf, j)
                assert _oracle_stable(gf, j) == expected, (name, interp.literal())
                assert is_sm_model(tables, interp, bindings(interp)) \
                    == expected, (name, interp.literal())
                assert is_sm_model(desugared_tables, interp,
                                   desugared_bindings(interp)) == expected
                total += 1
                stable += expected
    assert stable > 20
    print(f"is_sm_model vs grounding reference: {total} interpretations, "
          f"{stable} stable")


GROUND_GOLDEN = Path(__file__).with_name("ground_golden.json")


def ground_golden_cases():
    """The first and last interpretation at m = 1 and at m = 2 of each
    small fixture, keyed by fixture name and interpretation literal."""
    for name in SMALL_FIXTURES:
        prog = builtin_fixture(name).program
        for m in (1, 2):
            interps = list(enumerate_interpretations(prog.signature, m))
            for interp in (interps[0], interps[-1]):
                yield f"{name} {interp.literal()}", prog, interp


def test_ground_program_matches_golden():
    """The printed formula view of ground_program on the desugared small
    fixtures, exactly as recorded in ``ground_golden.json``."""
    golden = json.loads(GROUND_GOLDEN.read_text(encoding="utf-8"))
    cases = list(ground_golden_cases())
    assert [key for key, _, _ in cases] == list(golden)
    for key, prog, interp in cases:
        _, gf = ground_program(desugar(prog), interp)
        assert ground_to_str(gf) == golden[key], key


def test_substitution_commutes_with_evaluation():
    rng = Random(SEED + 2)
    cases = 0
    while cases < 1000:
        f = random_formula(rng, 3)
        free = sorted(free_variables(f), key=lambda v: v.name)
        if not free:
            continue
        v = rng.choice(free)
        c = rng.choice(CONSTS)
        m = rng.randint(1, 3)
        interp = sample_interpretation(SIG, m, rng)
        env = random_env(rng, f, m)
        env_sub = {w: e for w, e in env.items() if w != v}
        env_direct = dict(env)
        env_direct[v] = interp.consts[c.name]
        assert fo_eval(substitute(f, {v: c}), interp, env_sub) == \
            fo_eval(f, interp, env_direct), formula_to_str(f)
        cases += 1
    print("substitution/evaluation: 1000 cases")


def test_simplify_preserves_evaluation():
    """Random formulas, then runs of existentials with equalities, whose
    simplified forms are what the checks compile: every constant is
    mapped, as in every interpretation a check examines."""
    rng = Random(SEED + 3)
    for i in range(1000):
        f = random_formula(rng, 3)
        g = simplify(f)
        m = rng.randint(1, 3)
        interp = sample_interpretation(SIG, m, rng)
        env = random_env(rng, f, m)
        assert fo_eval(f, interp, env) == fo_eval(g, interp, env), \
            formula_to_str(f)
    rng = Random(SEED + 14)
    for i in range(600):
        f = one_point_sentence(rng)
        g = simplify(f)
        interp = sample_interpretation(SIG, rng.randint(1, 3), rng)
        assert fo_eval(f, interp) == fo_eval(g, interp) == \
            compile_sentence(g)(interp), formula_to_str(f)
    print("simplify soundness: 1000 formulas, 600 one-point runs")


def test_reduct_is_idempotent():
    rng = Random(SEED + 4)
    atoms = [(f"a{i}", ()) for i in range(6)]
    for i in range(1000):
        f = random_ground_formula(rng, atoms, 4)
        j = frozenset(a for a in atoms if rng.random() < 0.5)
        r = reduct(f, j)
        assert reduct(r, j) == r
    print("reduct idempotence: 1000 cases")


def test_rename_apart_produces_disjoint_copies():
    rng = Random(SEED + 5)
    rules = []
    for name in ("prog1", "prog2", "ex1", "example1", "moving(1)"):
        rules.extend(desugar(builtin_fixture(name).program).rules)
    rules = [r for r in rules if r.kind == "basic"]
    for i in range(1000):
        r = rng.choice(rules)
        t1, t2 = rng.sample(range(1, 50), 2)
        a, b = rename_apart(r, t1), rename_apart(r, t2)
        assert not (a.variables() & b.variables())
        assert len(a.variables()) == len(r.variables())
    print("rename_apart disjointness: 1000 cases")


def test_chain_refutation_implies_tight_on():
    """When the chain check reports entailed, every interpretation
    satisfying the assumptions and the completion must ground to a
    program that is tight on its atom set."""
    cases = [("prog1", 2), ("ex1", 2), ("ex2", 4), ("example1", 1),
             ("example2", 1), ("example3", 1)]
    total = 0
    for name, n in cases:
        fx = builtin_fixture(name)
        assert check_gamma_tight(fx.program, fx.gamma, n).status == ENTAILED
        comp = completion(fx.program).sentences()
        d = desugar(fx.program)
        for m in (1, 2):
            for interp in enumerate_interpretations(fx.program.signature, m):
                if not all(satisfies_fo(interp, s)
                           for s in list(fx.gamma) + comp):
                    continue
                gp, _ = ground_program(d, interp)
                assert is_tight_on(gp, frozenset(true_atoms(interp))), \
                    (name, interp.literal())
                total += 1
    assert total > 20
    print(f"refuted chains imply tight groundings: {total} models checked")


def test_is_stable_matches_subset_sweep_oracle():
    """The minimality search against the acceptance suite's independent
    stability oracle (own evaluator, own reduct, full subset sweep) on
    random ground formulas and programs over 6-12 atoms.  Half the cases
    draw J at random; the other half steer J towards stable pairs
    without consulting is_stable: a formula's random model is shrunk
    greedily, and a program's J is iterated through the program's
    immediate-consequence operator."""
    rng = Random(SEED + 6)
    stable = large_stable = 0
    cases = 1200
    for k in range(cases):
        atoms = [(f"a{i}", ()) for i in range(rng.randint(6, 12))]
        j = frozenset(a for a in atoms if rng.random() < 0.5)
        steer = k % 4 < 2
        if k % 2:
            f = random_ground_formula(rng, atoms, 4)
            if steer and satisfies(j, f):
                for a in sorted(j):
                    if satisfies(j - {a}, f):
                        j -= {a}
        else:
            gp, f = random_ground_program(rng, atoms, 12)
            if steer:
                for _ in atoms:
                    j = frozenset(head for head, body in gp
                                  if satisfies(j, body))
        expected = _oracle_stable(f, j)
        assert is_stable_ground(f, j) == expected, (f, j)
        stable += expected
        large_stable += expected and len(j) >= 4
    assert stable >= 300 and large_stable >= 30
    assert cases - stable >= 300
    non_horn = _non_horn_against_oracle(rng)
    print(f"is_stable vs subset-sweep oracle: {cases} cases, {stable} "
          f"stable, {large_stable} of them with |J| >= 4; non-Horn: "
          f"{dict(non_horn)}")


def _non_horn_against_oracle(rng: Random) -> Counter:
    """is_stable_ground against the subset-sweep oracle on non-Horn
    formulas, J random or shrunk greedily to a classical minimal model.
    Where the reduct has two or more minimal models within J, or none,
    it has no least one, so no completion of what propagation forces is
    a model and the search must branch."""
    outcomes = Counter()
    for k in range(400):
        atoms = [(f"a{i}", ()) for i in range(rng.randint(4, 9))]
        f = random_non_horn_formula(rng, atoms)
        j = frozenset(a for a in atoms if rng.random() < 0.75)
        if k % 2 and satisfies(j, f):
            for a in sorted(j):
                if satisfies(j - {a}, f):
                    j -= {a}
        expected = _oracle_stable(f, j)
        assert is_stable_ground(f, j) == expected, (f, j)
        if satisfies(j, f):
            r = reduct(f, j)
            models = [s for s in _subsets(j) if satisfies(s, r)]
            least = [s for s in models if all(s <= t for t in models)]
            outcomes[expected, "least" if least else "no least"] += 1
    assert outcomes[True, "no least"] == 0
    assert outcomes[False, "no least"] >= 30
    assert outcomes[True, "least"] >= 50 and outcomes[False, "least"] >= 50
    return outcomes


def _subsets(j: frozenset):
    members = sorted(j)
    return [frozenset(c) for size in range(len(members) + 1)
            for c in combinations(members, size)]


def _drift(interp):
    """The interpretation with its last ``at`` atom relocated to the next
    place, or with ``at(e0, e0, e0)`` added when it has none."""
    exts = {p: sorted(ts) for p, ts in interp.extensions.items()}
    if exts["at"]:
        o, y, s = exts["at"].pop()
        exts["at"].append((o, (y + 1) % interp.universe, s))
    else:
        exts["at"].append((0, 0, 0))
    return make_interpretation(interp.universe, dict(interp.consts), exts)


def test_is_sm_model_on_directed_interpretations_matches_oracle():
    """Every directed moving(1) interpretation and one drift of each,
    through is_sm_model, against the subset-sweep oracle on its ground
    program."""
    d = desugar(builtin_fixture("moving(1)").program)
    tables = sm_tables(d)
    bindings = rule_check(tables)
    outcomes = []
    for base in successor_state_interpretations(1):
        drift = _drift(base)
        assert drift != base
        for interp in (base, drift):
            _, gf = ground_program(d, interp)
            expected = _oracle_stable(gf, frozenset(true_atoms(interp)))
            assert is_sm_model(tables, interp, bindings(interp)) == expected, \
                interp.literal()
            outcomes.append(expected)
    assert True in outcomes and False in outcomes
    print(f"is_sm_model vs oracle on directed moving(1): {len(outcomes)} "
          f"interpretations, {sum(outcomes)} stable")


# ---------------------------------------------------------------------------
# The compiled evaluator and the relevant grounding against their oracles

def closed(rng: Random, f):
    """``f`` closed by a random quantifier per free variable."""
    for v in sorted(free_variables(f), key=lambda v: v.name):
        f = rng.choice((Forall, Exists))(v, f)
    return f


def iff_sentence(rng: Random):
    """A biconditional of random formulas, alone, between two more
    conjuncts or nested in another."""
    f, g, h = (random_formula(rng, 2) for _ in range(3))
    shape = rng.randrange(4)
    if shape == 0:
        return closed(rng, iff(f, g))
    if shape == 1:
        return closed(rng, And(h, *iff(f, g).items, random_formula(rng, 1)))
    return closed(rng, iff(iff(f, g), h) if shape == 2 else iff(f, iff(g, h)))


def one_point_sentence(rng: Random):
    """A run of existentials whose body begins with equalities between
    a variable of the run and a variable or a constant, either way
    round, and now and then a non-equality conjunct first: ``simplify``
    reads the equalities off as one point, through the rest of the run,
    and keeps ``V = V``."""
    run = rng.sample(VARS, rng.randint(1, 3))
    items = []
    for _ in range(rng.randint(1, 3)):
        pair = [rng.choice(run), rng.choice(VARS + CONSTS)]
        rng.shuffle(pair)
        items.append(Equality(*pair))
    items.append(random_formula(rng, 2))
    if rng.random() < 0.2:
        items.insert(0, random_formula(rng, 1))
    body = And(*items)
    for v in reversed(run):
        body = Exists(v, body)
    return closed(rng, body)


# Sentences that reach the constant ``c``, unmapped, at every
# interpretation: through a run of existentials with equalities, and a
# biconditional.
UNMAPPED = ["exists Y (Y = c)", "forall X (exists Y (X = Y & Y = c))",
            "forall X (exists Y (exists Z (Z = X & Y = Z & q(Y, c))))",
            "exists Y (Y = a & p(c))", "r <-> p(c)"]


def test_compiled_evaluator_matches_fo_eval_on_random_sentences():
    """Each compiled sentence is evaluated on several sampled
    interpretations (constants merge freely) and on an m <= 2 one: first
    random sentences, then biconditionals, which the evaluator compiles
    in a shape of its own, runs of existentials with leading equalities,
    and sentences that reach an unmapped constant."""
    rng = Random(SEED + 7)
    merged = 0
    enumerated = [i for m in (1, 2) for i in enumerate_interpretations(SIG, m)]
    for _ in range(1200):
        f = random_sentence(rng, 4)
        holds = compile_sentence(f)
        for _ in range(3):
            interp = sample_interpretation(SIG, rng.randint(1, 3), rng)
            merged += interp.consts["a"] == interp.consts["b"]
            assert holds(interp) == fo_eval(f, interp), formula_to_str(f)
        interp = rng.choice(enumerated)
        assert holds(interp) == fo_eval(f, interp), formula_to_str(f)
    assert merged > 300
    rng = Random(SEED + 13)
    for make in (iff_sentence, one_point_sentence):
        for _ in range(600):
            f = make(rng)
            holds = compile_sentence(f)
            for interp in (sample_interpretation(SIG, rng.randint(1, 3), rng),
                           rng.choice(enumerated)):
                assert holds(interp) == fo_eval(f, interp), formula_to_str(f)
    interp = make_interpretation(2, {"a": 0, "b": 1}, {"p": [(0,)], "r": [()]})
    for text in UNMAPPED:
        f = parse_formula(text)
        with pytest.raises(KeyError):
            fo_eval(f, interp)
        with pytest.raises(GroundingError, match="constant c is not mapped"):
            compile_sentence(f)(interp)
    print(f"compiled evaluator vs fo_eval: 1200 sentences, 4800 cases, "
          f"{merged} with merged constants; 1200 biconditionals and "
          f"one-point runs, 2400 cases")


def test_compiled_biconditional_chain_grows_linearly(monkeypatch):
    """A biconditional compiles each side once: the source of a
    ``<->`` chain grows by the same length per level, up to the
    parser's bound, where expanding it into two implications doubles
    it."""
    sizes = []

    def recording(source, original=evaluation._build):
        sizes.append(len(source))
        return original(source)

    monkeypatch.setattr(evaluation, "_build", recording)
    for shape in IFF_SHAPES:
        sizes.clear()
        for depth in range(1, IFF_DEPTH + 1):
            compile_sentence(parse_formula(nested(shape, depth)))
        steps = {b - a for a, b in zip(sizes, sizes[1:])}
        assert len(steps) == 1, (shape, sizes)


def body_rules(rules) -> list:
    """Each rule's body under the head ``true``: rules that hold
    everywhere, so their compiled bindings are checked on every
    interpretation, not only on models."""
    return [Rule(BASIC, TOP, r.body) for r in rules]


def test_compiled_evaluator_matches_fo_eval_on_fixtures():
    """Completion, rule and Gamma sentences and the compiled rules of
    the small fixtures, on every interpretation at m <= 2, and the
    compiled rules of seeded random programs on sampled
    interpretations."""
    total = 0
    for name in SMALL_FIXTURES:
        fx = builtin_fixture(name)
        d = desugar(fx.program)
        sentences = (completion(fx.program).sentences()
                     + [r.sentence() for r in d.rules] + list(fx.gamma))
        compiled = [(s, compile_sentence(s)) for s in sentences]
        rule_lists = [sorted(d.rules, key=lambda r: r.kind != CONSTRAINT),
                      body_rules(d.rules)]
        rule_lists = [(rules, compile_rules(rules)) for rules in rule_lists]
        for m in (1, 2):
            for interp in enumerate_interpretations(fx.program.signature, m):
                for s, holds in compiled:
                    assert holds(interp) == fo_eval(s, interp), \
                        (name, formula_to_str(s), interp.literal())
                for rules, bindings in rule_lists:
                    assert bindings(interp) == rules_eval(rules, interp), \
                        (name, interp.literal())
                total += 1
    rng = Random(SEED + 9)
    shapes, models = Counter(), 0
    for _ in range(300):
        prog = parse_program(random_program_text(rng))
        shapes.update(r.kind for r in prog.rules)
        shapes.update("extensional head" for r in prog.rules
                      if r.head and r.head.predicate not in prog.intensional)
        d = desugar(prog)
        for r in d.rules:
            shapes[f"{min(len(r.free_vars()), 2)} variables"] += 1
            shapes.update("head constant" for t in getattr(r.head, "args", ())
                          if type(t) is ObjectConstant)
        real = list(d.rules)
        for rules in (real, body_rules(real)):
            bindings = compile_rules(rules)
            for _ in range(4):
                interp = sample_interpretation(prog.signature,
                                               rng.randint(1, 3), rng)
                expected = rules_eval(rules, interp)
                assert bindings(interp) == expected, \
                    (formula_to_str(rules[0].body), interp.literal())
                models += rules is real and expected is not None
    assert 100 < models < 1100
    assert min(shapes[k] for k in (
        BASIC, CHOICE, CONSTRAINT, "extensional head", "head constant",
        "0 variables", "1 variables", "2 variables")) > 20, shapes
    print(f"compiled evaluator vs fo_eval on fixtures: {total} "
          f"interpretations; on random programs: {models} of 1200 models, "
          f"{dict(shapes)}")


# Each shape opens several Python brackets per parser level once compiled.
DEEP_CODE_SHAPES = ["exists Y (p | q & {} -> r)", "({} -> r) -> r",
                    "not (s(a, b, c) & a = b | {} -> r)",
                    "forall X (s(X, a, b) & (p -> ({} -> not r)))"]


def deepest(shape: str, text: str) -> str:
    """``shape`` around ``text`` as often as the parser allows."""
    while True:
        deeper = shape.format(text)
        try:
            parse_formula(deeper)
        except ParseError:
            return text
        text = deeper


def deepest_texts() -> list:
    """A formula of each test shape, nested as deep as the parser
    allows."""
    return ([nested(shape, MAX_NESTING) for shape in NESTING_SHAPES]
            + [nested(shape, IFF_DEPTH) for shape in IFF_SHAPES]
            + [deepest(shape, "exists Y (p | q & r)")
               for shape in DEEP_CODE_SHAPES])


def test_compiled_evaluator_at_the_nesting_bounds():
    """Formulas nested as deep as the parser allows, their rule
    sentences, compiled rules and completions compile and agree with
    fo_eval on every interpretation of their signature at m = 1.  (At
    m = 2, fifty nested quantifiers have 2**50 instances.)"""
    for text in deepest_texts():
        prog = parse_program(f"goal :- {text}.")
        rule = desugar(prog).rules[0]
        sentences = ([parse_formula(text), rule.sentence()]
                     + completion(prog).sentences())
        compiled = [(s, compile_sentence(s)) for s in sentences]
        rule_lists = [(rules, compile_rules(rules))
                      for rules in ([rule], body_rules([rule]))]
        for interp in enumerate_interpretations(prog.signature, 1):
            for s, holds in compiled:
                assert holds(interp) == fo_eval(s, interp), text[:60]
            for rules, bindings in rule_lists:
                assert bindings(interp) == rules_eval(rules, interp), text[:60]


# Frames each check may use on top of the caller's; the deepest shapes
# need about 310.
STACK_HEADROOM = 400


def test_is_sm_model_at_the_nesting_bounds():
    """Rules (and choice rules) whose bodies nest as deep as the parser
    allows, through is_sm_model on every interpretation at m = 1, within
    STACK_HEADROOM frames of stack: grounding, folding and the search
    stay recursive, one frame or two per level."""
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    stable = 0
    for text in deepest_texts():
        for head in ("goal", "{goal}"):
            prog = parse_program(f"{head} :- {text}.")
            tables = sm_tables(prog)
            bindings = rule_check(tables)      # compiles outside the limit
            interps = list(enumerate_interpretations(prog.signature, 1))
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(depth + STACK_HEADROOM)
            try:
                stable += sum(is_sm_model(tables, interp, bindings(interp))
                              for interp in interps)
            finally:
                sys.setrecursionlimit(limit)
    assert stable > 0


def _stability(decide):
    try:
        return decide()
    except ResourceGuardError:
        return "over the cap"


def _preorder_atoms(g):
    """The atoms of the ground formula ``g``, left to right, in the
    order a depth-first walk first meets them."""
    if type(g) is tuple:
        yield g
    elif type(g) is stability.Imp:
        yield from _preorder_atoms(g.left)
        yield from _preorder_atoms(g.right)
    else:
        for x in g.items:
            yield from _preorder_atoms(x)


def _same_reduct(d, tables, bindings, interp, cap):
    """For an interpretation that satisfies every rule of the desugared
    program ``d``, whose ``sm_tables`` are ``tables`` and ``rule_check``
    is ``bindings``: relevant_reduct numbers the atoms of J that the
    relevant grounding mentions, 0 .. k-1 in the order it first mentions
    them, and the leaf's numbering, extended with J's other atoms
    numbered after those, folds the relevant grounding's reduct and the
    whole grounding's to relevant_reduct's.  is_sm_model gives the
    verdict of is_stable_ground on the whole grounding, which is
    returned.  None for any other interpretation, for which
    relevant_reduct and relevant_grounding are None."""
    _, full = ground_program(d, interp)
    j = frozenset(true_atoms(interp))
    read = bindings(interp)
    folded = relevant_reduct(tables, interp, read)
    g = relevant_grounding(tables, interp, read)
    assert (folded is None) == (g is None) == (not satisfies(j, full)), \
        interp.literal()
    if g is None:
        return None
    r, met = folded
    assert met == atom_numbers(a for a in _preorder_atoms(g) if a in j), \
        interp.literal()
    assert true_atoms(interp) == sorted(j), interp.literal()
    numbers = atom_numbers([*met, *sorted(j)])
    assert folded_reduct(g, numbers) == folded_reduct(full, numbers) == r, \
        interp.literal()
    verdict = _stability(lambda: is_sm_model(tables, interp, read, cap))
    assert verdict == _stability(lambda: is_stable_ground(full, j, cap)), \
        interp.literal()
    return verdict


def random_program_text(rng: Random) -> str:
    """A random first-order program in the style of
    ``random_ground_program``: rules over SIG whose bodies are
    conjunctions of literals and equalities, with some choice rules,
    constraints and extensional predicates, which may head rules too."""

    def term():
        return rng.choice(("X", "Y", "a", "b"))

    def atom():
        name, arity = rng.choice(SIG.predicates)
        args = [term() for _ in range(arity)]
        return f"{name}({', '.join(args)})" if args else name

    def literal():
        roll = rng.random()
        if roll < 0.15:
            return f"{term()} {rng.choice(('=', '!='))} {term()}"
        return atom() if roll < 0.65 else f"not {atom()}"

    rules = [f"#extensional {name}/{arity}." for name, arity in SIG.predicates
             if rng.random() < 0.15]
    for _ in range(rng.randint(1, 6)):
        body = [literal() for _ in range(rng.randint(0, 3))]
        roll = rng.random()
        head = ":- " if roll < 0.1 else (f"{{{atom()}}}" if roll < 0.3 else atom())
        if head == ":- " and not body:
            body = [atom()]
        rules.append(head + (" :- " if body and head != ":- " else "")
                     + ", ".join(body) + ".")
    return " ".join(rules)


def random_formula_program_text(rng: Random) -> str:
    """A random program over SIG whose rule bodies are random formulas:
    quantifiers, disjunctions, implications, equalities and constants."""
    rules = []
    for _ in range(rng.randint(1, 4)):
        name, arity = rng.choice(SIG.predicates)
        head = formula_to_str(Atom(name, tuple(rng.choice(VARS + CONSTS)
                                               for _ in range(arity))))
        head = rng.choice((head, head, f"{{{head}}}", ""))
        rules.append(f"{head} :- {formula_to_str(random_formula(rng, 3))}.")
    return " ".join(rules)


def _steered(prog, d, m: int, rng: Random):
    """A sampled interpretation of ``prog`` at universe size m with its
    atoms replaced by four steps of the immediate-consequence operator of
    the desugared ``d``'s grounding, so that many are classical models."""
    interp = sample_interpretation(prog.signature, m, rng)
    gp, _ = ground_program(d, interp)
    j = frozenset(true_atoms(interp))
    for _ in range(4):
        j = frozenset(head for head, body in gp if satisfies(j, body))
    exts = {p: [t for q, t in j if q == p] for p, _ in prog.predicates}
    return make_interpretation(m, dict(interp.consts), exts)


def test_relevant_grounding_has_the_same_reduct():
    """relevant_grounding, and the leaf's fold relevant_reduct, against
    ground_program's formula: random literal programs and random formula
    programs (quantifiers, disjunctions, implications, equalities and
    constants in the bodies) with J steered through the
    immediate-consequence operator, every m <= 2 interpretation of the
    small fixtures, and the directed moving(1) interpretations with one
    drift of each.  Small caps make some atom sets trip
    ResourceGuardError on both."""
    rng = Random(SEED + 8)
    verdicts = []

    def check(d, tables, bindings, interp, cap):
        verdict = _same_reduct(d, tables, bindings, interp, cap)
        if verdict is not None:
            verdicts.append(verdict)

    for text, count in ((random_program_text, 400),
                        (random_formula_program_text, 200)):
        for _ in range(count):
            prog = parse_program(text(rng))
            d = desugar(prog)
            interp = _steered(prog, d, rng.randint(1, 3), rng)
            tables = sm_tables(d)
            check(d, tables, rule_check(tables), interp,
                  rng.choice((1, 3, 24)))
    random_verdicts = set(verdicts)
    random_count = len(verdicts)
    for name in SMALL_FIXTURES:
        prog = builtin_fixture(name).program
        d = desugar(prog)
        tables = sm_tables(d)
        bindings = rule_check(tables)
        for m in (1, 2):
            for interp in enumerate_interpretations(prog.signature, m):
                check(d, tables, bindings, interp, 24)
                check(d, tables, bindings, interp, 2)
    d = desugar(builtin_fixture("moving(1)").program)
    tables = sm_tables(d)
    bindings = rule_check(tables)
    for base in successor_state_interpretations(1):
        for interp in (base, _drift(base)):
            check(d, tables, bindings, interp, 24)
            check(d, tables, bindings, interp, 8)
    assert random_count > 100
    assert random_verdicts == set(verdicts) == {True, False, "over the cap"}
    print(f"relevant grounding vs ground_program: {len(verdicts)} classical "
          f"models ({random_count} random), {verdicts.count(True)} stable, "
          f"{verdicts.count('over the cap')} over the cap")


def test_atoms_no_relevant_instance_reads_decide_after_the_cap():
    """An atom of J that no relevant rule instance reads makes J not
    stable, and the cap is checked first.  Random literal programs with
    a constraint on ``s``, which heads no rule, so no instance the leaf
    folds reads an ``s`` atom; J is steered through the
    immediate-consequence operator, then given random ``s`` atoms and
    random unsupported atoms.  is_sm_model against is_stable_ground on
    the whole grounding, both raising ResourceGuardError over the cap."""
    rng = Random(SEED + 10)
    outcomes = Counter()
    for _ in range(500):
        prog = parse_program(random_program_text(rng) + " :- s(X), q(X, X).")
        d = desugar(prog)
        m = rng.randint(1, 3)
        steered = _steered(prog, d, m, rng)
        exts = {p: set(ts) for p, ts in steered.extensions.items()}
        exts["s"] = {(e,) for e in range(m) if rng.random() < 0.5}
        for p, arity in prog.predicates:
            exts[p] |= {t for t in product(range(m), repeat=arity)
                        if rng.random() < 0.1}
        interp = make_interpretation(m, dict(steered.consts), exts)
        tables = sm_tables(d)
        read = rule_check(tables)(interp)
        if read is None:
            continue
        _, met = relevant_reduct(tables, interp, read)
        j = frozenset(true_atoms(interp))
        cap = rng.choice((2, 4, 24))
        verdict = _stability(lambda: is_sm_model(tables, interp, read, cap))
        _, full = ground_program(d, interp)
        assert verdict == _stability(lambda: is_stable_ground(full, j, cap)), \
            interp.literal()
        outcomes[verdict, len(met) < len(j)] += 1
    assert outcomes[False, True] > 30 and outcomes["over the cap", True] > 30
    assert outcomes[True, False] > 10 and outcomes[False, False] > 0
    print(f"unread atoms and the cap: {dict(outcomes)}")


def test_unsupported_atoms_end_the_leaf_before_the_fold():
    """The leaf's support test against the whole grounding.  Random
    literal and formula programs, J steered through the
    immediate-consequence operator and, half the time, given random
    atoms that may head no rule instance.  On each classical model: the
    folded reduct is not ``BOT``; the relevant heads cover J exactly when
    ``is_supported`` holds on ``ground_program``'s rule view; an
    unsupported J is not stable by ``is_stable_ground``; and is_sm_model
    gives is_stable_ground's verdict at caps 2, 4 and 24."""
    rng = Random(SEED + 16)
    outcomes = Counter()
    for text, count in ((random_program_text, 400),
                        (random_formula_program_text, 200)):
        for _ in range(count):
            prog = parse_program(text(rng))
            d = desugar(prog)
            m = rng.randint(1, 3)
            interp = _steered(prog, d, m, rng)
            if rng.random() < 0.5:
                arity = dict(prog.predicates)
                exts = {p: set(ts) | {t for t in product(range(m),
                                                         repeat=arity[p])
                                      if rng.random() < 0.1}
                        for p, ts in interp.extensions.items()}
                interp = make_interpretation(m, dict(interp.consts), exts)
            tables = sm_tables(d)
            read = rule_check(tables)(interp)
            if read is None:
                continue
            r, _ = relevant_reduct(tables, interp, read)
            assert r is not stability.BOT, interp.literal()
            leaf = ({}, interp.consts, range(m), interp.extensions)
            heads = {a for (h, _), ts in zip(tables[1], read)
                     for a in h(ts, leaf)}
            j = frozenset(true_atoms(interp))
            rules, full = ground_program(d, interp)
            supported = is_supported(rules, j)
            assert (heads == j) == supported, interp.literal()
            if not supported:
                assert is_stable_ground(full, j) is False, interp.literal()
            for cap in (2, 4, 24):
                verdict = _stability(lambda: is_sm_model(tables, interp,
                                                         read, cap))
                assert verdict == _stability(
                    lambda: is_stable_ground(full, j, cap)), interp.literal()
                outcomes[supported, cap, verdict] += 1
    assert outcomes[False, 24, False] > 50 and outcomes[True, 24, True] > 50
    assert outcomes[True, 24, False] > 10
    assert outcomes[False, 2, "over the cap"] > 10
    print(f"support, cap and the leaf's verdict: {dict(outcomes)}")


def test_the_fold_reads_every_term_as_ground_does():
    """The classical check stops at q, and the fold, like ground, still
    reaches the unmapped constant c.  is_sm_model folds no body while
    some true atom heads no relevant instance: with q unsupported it is
    False without reading r(c), and with q a fact it reaches c.  The
    command line never gets here: ``stable`` refuses an interpretation
    that leaves a program constant unmapped, and the searches map every
    constant."""
    q_true = make_interpretation(1, {}, {"p": [()], "q": [()], "r": []})
    tables = sm_tables(parse_program("p :- q | r(c)."))
    bindings = rule_check(tables)(q_true)
    for leaf in (relevant_grounding, relevant_reduct):
        with pytest.raises(GroundingError, match="constant c is not mapped"):
            leaf(tables, q_true, bindings)
    assert is_sm_model(tables, q_true, bindings) is False
    tables = sm_tables(parse_program("p :- q | r(c). q."))
    bindings = rule_check(tables)(q_true)
    for leaf in (relevant_grounding, relevant_reduct, is_sm_model):
        with pytest.raises(GroundingError, match="constant c is not mapped"):
            leaf(tables, q_true, bindings)


def test_classical_non_models_falsify_the_completion():
    """check-equiv counts an interpretation that violates the program
    read classically as both-reject without the completion check.  It
    rests on this lemma: such an interpretation falsifies the
    completion, which holds the constraints and the if-half of each
    completed definition, and every rule of the desugared program is the
    if-half of its head's.  Both sides by fo_eval, on every
    interpretation of the small fixtures at m <= 2 and of seeded random
    programs at m = 1, plus samples at m = 2, some of whose extensional
    predicates head rules."""
    rng = Random(SEED + 9)
    non_models = extensional_heads = 0

    def check(prog, interps):
        nonlocal non_models, extensional_heads
        implied = [r.sentence() for r in desugar(prog).rules]
        comp = completion(prog).sentences()
        for interp in interps:
            if not all(fo_eval(s, interp) for s in implied):
                if all(fo_eval(s, interp) for s in comp):
                    extensional_heads += 1
                non_models += 1

    for name in SMALL_FIXTURES:
        prog = builtin_fixture(name).program
        check(prog, [i for m in (1, 2)
                     for i in enumerate_interpretations(prog.signature, m)])
    for _ in range(250):
        prog = parse_program(random_program_text(rng))
        check(prog, list(enumerate_interpretations(prog.signature, 1))
              + [sample_interpretation(prog.signature, 2, rng)
                 for _ in range(16)])
    assert non_models > 3000 and extensional_heads == 0
    print(f"classical non-models falsify the completion: {non_models} "
          "checked")


def names_used(f) -> set:
    """The predicates and constants that ``f`` names."""
    if isinstance(f, Atom):
        return {f.predicate} | {t.name for t in f.args
                                if isinstance(t, ObjectConstant)}
    if isinstance(f, Equality):
        return {t.name for t in (f.left, f.right)
                if isinstance(t, ObjectConstant)}
    if isinstance(f, (And, Or)):
        return set().union(*map(names_used, f.items))
    if isinstance(f, Implies):
        return names_used(f.left) | names_used(f.right)
    if isinstance(f, (Forall, Exists)):
        return names_used(f.body)
    return set()


def random_program_gamma(rng: Random, prog) -> list:
    """One or two ``random_sentence``s naming only the program's
    predicates and constants, as the command line requires; fewer when
    the draws keep naming others."""
    known = {p for p, _ in prog.predicates} | set(prog.constants)
    drawn = (random_sentence(rng, 2) for _ in range(30))
    return [g for g in drawn if names_used(g) <= known][:rng.randint(1, 2)]


def plain_countermodel_search(prog, gamma, n: int, bound: int) -> tuple:
    """What ``check_gamma_tight`` must answer, by plain enumeration and
    fo_eval: every constant map, no cuts, and the first interpretation
    where Gamma, the completion and an open chain's closure hold."""
    comp = completion(prog)
    tables = refuter_tables(gamma, simplify_completion(comp))
    open_chains = [(c, existential_closure(chain_formula(c)))
                   for c in chains(prog, n)
                   if not refute_chain_formula(chain_formula(c), tables)]
    if not open_chains:
        return ENTAILED, None, None
    theory = list(gamma) + comp.sentences()
    for m in range(1, bound + 1):
        for interp in enumerate_interpretations(prog.signature, m):
            if all(fo_eval(s, interp) for s in theory):
                for c, closed in open_chains:
                    if fo_eval(closed, interp):
                        return COUNTERMODEL, c, interp
    return UNKNOWN, None, None


def test_countermodel_search_matches_plain_oracle():
    """check_gamma_tight walks restricted-growth constant maps only and
    drops a subtree where Gamma or the completion fails; its status,
    chain and countermodel are those of the plain search, on seeded
    random programs with an empty Gamma and with random ones."""
    rng = Random(SEED + 12)
    statuses = Counter()
    for i in range(150):
        prog = parse_program(random_program_text(rng))
        gamma = [] if i % 2 else random_program_gamma(rng, prog)
        for n in (1, 2):
            v = check_gamma_tight(prog, gamma, n, 2)
            assert (v.status, v.chain, v.interpretation) == \
                plain_countermodel_search(prog, gamma, n, 2)
            statuses[v.status, bool(gamma)] += 1
    assert all(statuses[s, g] > 0 for s in (ENTAILED, COUNTERMODEL, UNKNOWN)
               for g in (False, True))
    print(f"countermodel search vs plain oracle: {dict(statuses)}")
