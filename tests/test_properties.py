"""Seeded randomized invariants beyond the core acceptance properties:
printer/parser round trip, substitution, grounding and the compiled
evaluator against a direct first-order evaluator, simplification
soundness, the tight-on consequence of chain refutation, and the
relevant grounding against the whole grounding."""

import json
import sys
from collections import Counter
from pathlib import Path
from random import Random

from lttight.completion import completion, desugar, simplify
from lttight.equiv import successor_state_interpretations
from lttight.fixtures import builtin_fixture
from lttight.parser import (
    MAX_IFF_NESTING, MAX_NESTING, ParseError, parse_formula, parse_program,
)
from lttight.evaluation import compile_rules, compile_sentence
from lttight.semantics import (
    ResourceGuardError, atom_numbers, enumerate_interpretations,
    folded_reduct, ground, ground_program, ground_to_str, is_sm_model,
    is_stable, is_tight_on, make_interpretation, reduct, relevant_grounding,
    sample_interpretation, satisfies, satisfies_fo, sm_tables,
)
from lttight.syntax import (
    BASIC, BOT, CHOICE, CONSTRAINT, TOP, And, Atom, Equality, Exists, Forall,
    Implies, ObjectConstant, Or, Rule, Signature, Variable, formula_to_str,
    existential_closure, free_variables, neg, rename_apart, substitute,
)
from lttight.tightness import (
    COUNTERMODEL, ENTAILED, UNKNOWN, chain_formula, chains, check_gamma_tight,
    refute_chain_formula, refuter_tables,
)

from conftest import (
    fo_eval, random_ground_formula, random_ground_program, rules_eval,
)
from test_acceptance import _oracle_stable
from test_parser import IFF_SHAPES, NESTING_SHAPES, nested

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


def test_grounding_matches_direct_evaluation():
    rng = Random(SEED + 1)
    for i in range(1000):
        f = random_formula(rng, 3)
        m = rng.randint(1, 3)
        interp = sample_interpretation(SIG, m, rng)
        env = random_env(rng, f, m)
        direct = fo_eval(f, interp, env)
        names = {v.name: e for v, e in env.items()}
        via_ground = satisfies(frozenset(interp.atoms()), ground(f, interp, names))
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
        assert satisfies(frozenset(interp.atoms()), ground(f, interp)) == expected

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
        for m in (1, 2):
            for interp in enumerate_interpretations(prog.signature, m):
                _, gf = ground_program(d, interp)
                j = frozenset(interp.atoms())
                expected = is_stable(gf, j)
                assert _oracle_stable(gf, j) == expected, (name, interp.literal())
                assert is_sm_model(tables, interp) == expected, \
                    (name, interp.literal())
                assert is_sm_model(desugared_tables, interp) == expected
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
    rng = Random(SEED + 3)
    for i in range(1000):
        f = random_formula(rng, 3)
        g = simplify(f)
        m = rng.randint(1, 3)
        interp = sample_interpretation(SIG, m, rng)
        env = random_env(rng, f, m)
        assert fo_eval(f, interp, env) == fo_eval(g, interp, env), \
            formula_to_str(f)
    print("simplify soundness: 1000 cases")


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
                assert is_tight_on(gp, frozenset(interp.atoms())), \
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
        assert is_stable(f, j) == expected, (f, j)
        stable += expected
        large_stable += expected and len(j) >= 4
    assert stable >= 300 and large_stable >= 30
    assert cases - stable >= 300
    print(f"is_stable vs subset-sweep oracle: {cases} cases, {stable} "
          f"stable, {large_stable} of them with |J| >= 4")


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
    outcomes = []
    for base in successor_state_interpretations(1):
        drift = _drift(base)
        assert drift != base
        for interp in (base, drift):
            _, gf = ground_program(d, interp)
            expected = _oracle_stable(gf, frozenset(interp.atoms()))
            assert is_sm_model(tables, interp) == expected, interp.literal()
            outcomes.append(expected)
    assert True in outcomes and False in outcomes
    print(f"is_sm_model vs oracle on directed moving(1): {len(outcomes)} "
          f"interpretations, {sum(outcomes)} stable")


# ---------------------------------------------------------------------------
# The compiled evaluator and the relevant grounding against their oracles

def test_compiled_evaluator_matches_fo_eval_on_random_sentences():
    """Each compiled sentence is evaluated on several sampled
    interpretations (constants merge freely) and on an m <= 2 one."""
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
    print(f"compiled evaluator vs fo_eval: 1200 sentences, 4800 cases, "
          f"{merged} with merged constants")


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
            + [nested(shape, MAX_IFF_NESTING) for shape in IFF_SHAPES]
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
            tables = sm_tables(prog)       # compiles outside the limit
            interps = list(enumerate_interpretations(prog.signature, 1))
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(depth + STACK_HEADROOM)
            try:
                stable += sum(is_sm_model(tables, interp) for interp in interps)
            finally:
                sys.setrecursionlimit(limit)
    assert stable > 0


def _stability(decide):
    try:
        return decide()
    except ResourceGuardError:
        return "over the cap"


def _same_reduct(d, tables, interp, cap):
    """For an interpretation that satisfies every rule of the desugared
    program ``d``, whose ``sm_tables`` are ``tables``: its atoms are
    listed in sorted order, the relevant grounding's reduct folds, under
    that numbering, to the fold of the whole grounding's, and is_sm_model
    gives is_stable's verdict on the whole grounding, which is returned.
    None for any other interpretation."""
    _, full = ground_program(d, interp)
    j = frozenset(interp.atoms())
    if not satisfies(j, full):
        return None
    expected = {a: i for i, a in enumerate(sorted(j))}
    assert atom_numbers(sorted(j)) == expected
    assert list(interp.atoms()) == sorted(j), interp.literal()
    assert folded_reduct(relevant_grounding(tables, interp), expected) == \
        folded_reduct(full, expected), interp.literal()
    verdict = _stability(lambda: is_sm_model(tables, interp, cap))
    assert verdict == _stability(lambda: is_stable(full, j, cap)), interp.literal()
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


def test_relevant_grounding_has_the_same_reduct():
    """relevant_grounding against ground_program's formula: random programs
    with J steered through the immediate-consequence operator, every
    m <= 2 interpretation of the small fixtures, and the directed
    moving(1) interpretations with one drift of each.  Small caps make
    some atom sets trip ResourceGuardError on both."""
    rng = Random(SEED + 8)
    verdicts = []

    def check(d, tables, interp, cap):
        verdict = _same_reduct(d, tables, interp, cap)
        if verdict is not None:
            verdicts.append(verdict)

    for _ in range(400):
        prog = parse_program(random_program_text(rng))
        d = desugar(prog)
        m = rng.randint(1, 3)
        interp = sample_interpretation(prog.signature, m, rng)
        gp, _ = ground_program(d, interp)
        j = frozenset(interp.atoms())
        for _ in range(4):
            j = frozenset(head for head, body in gp if satisfies(j, body))
        exts = {p: [t for q, t in j if q == p]
                for p, _ in prog.predicates}
        interp = make_interpretation(m, dict(interp.consts), exts)
        check(d, sm_tables(d), interp, rng.choice((1, 3, 24)))
    random_verdicts = set(verdicts)
    random_count = len(verdicts)
    for name in SMALL_FIXTURES:
        prog = builtin_fixture(name).program
        d = desugar(prog)
        tables = sm_tables(d)
        for m in (1, 2):
            for interp in enumerate_interpretations(prog.signature, m):
                check(d, tables, interp, 24)
                check(d, tables, interp, 2)
    d = desugar(builtin_fixture("moving(1)").program)
    tables = sm_tables(d)
    for base in successor_state_interpretations(1):
        for interp in (base, _drift(base)):
            check(d, tables, interp, 24)
            check(d, tables, interp, 8)
    assert random_count > 100
    assert random_verdicts == set(verdicts) == {True, False, "over the cap"}
    print(f"relevant grounding vs ground_program: {len(verdicts)} classical "
          f"models ({random_count} random), {verdicts.count(True)} stable, "
          f"{verdicts.count('over the cap')} over the cap")


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
    tables = refuter_tables(gamma, comp)
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
