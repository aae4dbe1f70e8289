"""Interpretations, compiled evaluation, grounding, reducts, stability,
supportedness and the tight-on check."""

from itertools import product
from random import Random

import pytest

from lttight.completion import desugar
from lttight.evaluation import compile_bindings, compile_sentence
from lttight.fixtures import builtin_fixture
from lttight.parser import parse_formula, parse_program
from lttight.semantics import (
    DEFAULT_STABILITY_CAP, G_BOT, G_TOP, GAnd, GAtom, GImplies, GOr,
    GroundProgram, GroundRule, GroundingError, Interpretation,
    ResourceGuardError, enumerate_interpretations, ground, ground_program,
    ground_relevant, ground_to_str, interpretation_count, is_acyclic, is_sm_model, is_stable,
    is_supported, is_tight_on, make_interpretation, parse_interpretation, pnn,
    pnn_nnn, reduct, sample_interpretation, satisfies, satisfies_fo,
)
from lttight.syntax import (
    And, Atom, Equality, Exists, Forall, Implies, ObjectConstant, Or, Variable,
    neg,
)

from conftest import fo_eval

SIG2 = builtin_fixture("prog2").program.signature   # a, b; p/1, q/1


def herbrand2(p=(), q=()):
    return make_interpretation(2, {"a": 0, "b": 1}, {"p": p, "q": q})


# ---------------------------------------------------------------------------
# interpretations

def test_interpretation_count():
    assert interpretation_count(SIG2, 1) == 4
    assert interpretation_count(SIG2, 2) == 64
    empty = parse_program("p. :- false.").signature
    assert interpretation_count(empty, 1) == 2


def test_enumeration_is_exhaustive_and_deterministic():
    first = list(enumerate_interpretations(SIG2, 2))
    assert len(first) == 64
    assert len(set(first)) == 64
    assert first == list(enumerate_interpretations(SIG2, 2))


def test_enumeration_guard():
    sig = builtin_fixture("moving(1)").program.signature
    with pytest.raises(ResourceGuardError):
        next(enumerate_interpretations(sig, 2))
    with pytest.raises(ResourceGuardError):
        next(enumerate_interpretations(SIG2, 2, ceiling=10))
    with pytest.raises(ValueError):
        next(enumerate_interpretations(SIG2, 0))


def _enumerate_by_make_interpretation(sig, m):
    """Every interpretation at universe size m, each candidate built and
    sorted by make_interpretation: the reference order."""
    pred_tuples = [(p, list(product(range(m), repeat=arity)))
                   for p, arity in sig.predicates]
    ext_choices = [[[t for i, t in enumerate(tuples) if mask >> i & 1]
                    for mask in range(2 ** len(tuples))]
                   for _, tuples in pred_tuples]
    for cvals in product(range(m), repeat=len(sig.constants)):
        consts = dict(zip(sig.constants, cvals))
        for chosen in product(*ext_choices):
            yield make_interpretation(
                m, consts, {p: subset for (p, _), subset in zip(pred_tuples, chosen)})


@pytest.mark.parametrize("name", ["prog2", "ex2"])
def test_enumeration_matches_make_interpretation(name):
    sig = builtin_fixture(name).program.signature
    for m in (1, 2, 3):
        fast = list(enumerate_interpretations(sig, m))
        slow = list(_enumerate_by_make_interpretation(sig, m))
        assert fast == slow
        assert [i.literal() for i in fast] == [i.literal() for i in slow]


def test_literal_round_trip():
    rng = Random(7)
    for _ in range(50):
        interp = sample_interpretation(SIG2, rng.randint(1, 3), rng)
        assert parse_interpretation(interp.literal()) == interp


def test_parse_interpretation_golden():
    interp = parse_interpretation("universe=2; a=e0; b=e1; p={(e0),(e1)}; q={}")
    assert interp.const("a") == 0
    assert interp.extension("p") == frozenset({(0,), (1,)})
    assert interp.extension("q") == frozenset()
    assert interp.true_atoms() == frozenset({GAtom("p", (0,)), GAtom("p", (1,))})


def test_parse_interpretation_errors():
    with pytest.raises(ValueError):
        parse_interpretation("a=e0")
    with pytest.raises(ValueError):
        parse_interpretation("universe=1; a=e1")
    with pytest.raises(ValueError):
        parse_interpretation("universe=1; p={(x0)}")


def test_sampling_is_seed_deterministic():
    a = [sample_interpretation(SIG2, 2, Random(3)) for _ in range(5)]
    b = [sample_interpretation(SIG2, 2, Random(3)) for _ in range(5)]
    assert a == b


# ---------------------------------------------------------------------------
# grounding

def test_ground_quantifiers_expand_over_universe():
    interp = herbrand2()
    assert ground(parse_formula("forall X (p(X))"), interp) == \
        GAnd((GAtom("p", (0,)), GAtom("p", (1,))))
    assert ground(parse_formula("exists X (p(X))"), interp) == \
        GOr((GAtom("p", (0,)), GAtom("p", (1,))))


def test_ground_equalities_become_truth_values():
    interp = herbrand2()
    assert ground(parse_formula("a = a"), interp) == G_TOP
    assert ground(parse_formula("a = b"), interp) == G_BOT
    merged = make_interpretation(1, {"a": 0, "b": 0}, {"p": [], "q": []})
    assert ground(parse_formula("a = b"), merged) == G_TOP


def test_ground_errors():
    interp = herbrand2()
    with pytest.raises(GroundingError):
        ground(parse_formula("p(c)"), interp)
    with pytest.raises(GroundingError):
        ground(parse_formula("p(X)"), interp)


def test_ground_program_views_agree():
    prog = desugar(builtin_fixture("prog1").program)
    interp = herbrand2(p=[(0,)], q=[(1,)])
    gp, gf = ground_program(prog, interp)
    # 2 facts plus the rule at both elements
    assert len(gp.rules) == 4
    assert gf == GAnd(tuple(GImplies(r.body, r.head) for r in gp.rules))


def test_ground_program_keeps_constraints_in_formula_view():
    prog = parse_program("p(a). :- p(X).")
    interp = make_interpretation(1, {"a": 0}, {"p": [(0,)]})
    gp, gf = ground_program(prog, interp)
    assert len(gp.rules) == 1
    assert len(gf.items) == 2
    assert gf.items[1] == GImplies(GAtom("p", (0,)), G_BOT)


def test_ground_to_str():
    g = GImplies(GAnd((GAtom("p", (0,)),)), GOr(()))
    assert ground_to_str(g) == "((p(e0)) -> false)"
    assert ground_to_str(G_TOP) == "true"


# ---------------------------------------------------------------------------
# satisfaction, reduct, stability

P = GAtom("p")
NOT_NOT_P = GImplies(GImplies(GImplies(P, G_BOT), G_BOT), P)


def test_satisfies_basics():
    assert satisfies({P}, P)
    assert not satisfies(set(), P)
    assert satisfies(set(), GImplies(P, G_BOT))
    assert not satisfies(set(), G_BOT)


def test_reduct_golden():
    assert reduct(NOT_NOT_P, frozenset({P})) == \
        GImplies(GImplies(G_BOT, G_BOT), P)
    assert reduct(NOT_NOT_P, frozenset()) == GImplies(G_BOT, G_BOT)


def test_choice_formula_has_two_stable_sets():
    assert is_stable(NOT_NOT_P, frozenset())
    assert is_stable(NOT_NOT_P, frozenset({P}))


def test_self_supporting_atom_is_not_stable():
    assert not is_stable(GImplies(P, P), frozenset({P}))
    assert is_stable(GImplies(P, P), frozenset())


def test_stability_cap():
    small = frozenset(GAtom(f"a{i}") for i in range(4))
    g = GAnd(tuple(small))
    with pytest.raises(ResourceGuardError):
        is_stable(g, small, cap=3)
    assert is_stable(g, small, cap=4)
    big = frozenset(GAtom(f"a{i}") for i in range(DEFAULT_STABILITY_CAP + 1))
    with pytest.raises(ResourceGuardError):
        is_stable(GAnd(tuple(big)), big)


def test_is_sm_model_on_fixture():
    prog = builtin_fixture("prog1").program
    assert is_sm_model(prog, herbrand2(p=[(0,), (1,)], q=[(1,)]))
    assert not is_sm_model(prog, herbrand2(p=[(0,)], q=[(1,)]))


def test_satisfies_fo():
    interp = herbrand2(p=[(0,)])
    assert satisfies_fo(interp, parse_formula("exists X (p(X))"))
    assert not satisfies_fo(interp, parse_formula("forall X (p(X))"))


def test_interpretation_lookups():
    interp = herbrand2(p=[(1,)])
    assert interp.const("b") == 1
    assert interp.extension("p") == frozenset({(1,)})
    with pytest.raises(KeyError):
        interp.const("c")
    with pytest.raises(KeyError):
        interp.extension("r")
    # the indexes take no part in equality or hashing
    assert interp == herbrand2(p=[(1,)])
    assert len({interp, herbrand2(p=[(1,)])}) == 1


def test_satisfies_fo_short_circuits_before_unmapped_constant():
    interp = herbrand2(p=[(0,)])
    # the left conjunct is false, so p(c) is never evaluated
    assert not satisfies_fo(interp, parse_formula("p(b) & p(c)"))
    with pytest.raises(GroundingError):
        satisfies_fo(interp, parse_formula("p(a) & p(c)"))
    with pytest.raises(GroundingError):
        satisfies_fo(interp, parse_formula("a = c"))


def test_satisfies_fo_deep_conjunction():
    body = ", ".join(["p(X)"] * 1500)
    sentence = parse_formula(f"forall X (q(X) -> {body})")
    assert satisfies_fo(herbrand2(p=[(0,), (1,)], q=[(0,)]), sentence)
    assert not satisfies_fo(herbrand2(p=[(1,)], q=[(0,)]), sentence)
    disjunction = parse_formula(" | ".join(["p(b)"] * 1500 + ["p(a)"]))
    assert satisfies_fo(herbrand2(p=[(0,)]), disjunction)


def test_compiled_names_are_data_not_code():
    """Predicate, constant and variable names that are not Python
    identifiers, some of them code, are evaluated as names."""
    pred = "p') or (1"
    other = "__import__('sys').exit(3)"
    c, d = "a'] or C['b", "b\\\n\"; raise SystemExit(4) #"
    X, Y = Variable("X') or (1"), Variable("e0")
    sentences = [
        Forall(X, Implies(Atom(pred, (X, ObjectConstant(c))),
                          Exists(Y, And(Atom(other, (Y,)),
                                        neg(Equality(Y, ObjectConstant(d))))))),
        Or(Atom(other, (ObjectConstant(c),)),
           Exists(X, Atom(pred, (X, X)))),
        Equality(ObjectConstant(c), ObjectConstant(d)),
    ]
    compiled = [compile_sentence(f) for f in sentences]
    bindings = compile_bindings(Atom(pred, (X, Y)), [Y, X])
    rng = Random(11)
    for _ in range(200):
        m = rng.randint(1, 3)
        interp = make_interpretation(
            m, {c: rng.randrange(m), d: rng.randrange(m)},
            {pred: [t for t in product(range(m), repeat=2) if rng.random() < 0.5],
             other: [(e,) for e in range(m) if rng.random() < 0.5]})
        for f, holds in zip(sentences, compiled):
            assert holds(interp) == fo_eval(f, interp)
        assert bindings(interp) == [(y, x) for y, x in product(range(m), repeat=2)
                                    if (x, y) in interp.extension(pred)]
    unmapped = make_interpretation(1, {}, {pred: [], other: []})
    with pytest.raises(GroundingError, match=r"constant a'\] or C\['b is not"):
        compiled[2](unmapped)


def test_compiled_unbound_variable():
    interp = herbrand2(p=[(0,)])
    with pytest.raises(GroundingError, match="unbound variable Z"):
        satisfies_fo(interp, parse_formula("p(a) & p(Z)"))
    # short-circuits before the free variable is reached
    assert not satisfies_fo(interp, parse_formula("p(b) & p(Z)"))


def test_ground_relevant_keeps_instances_whose_body_holds():
    d = desugar(parse_program("p(X) :- q(X). q(a). :- p(b), not q(b)."))
    interp = make_interpretation(2, {"a": 0, "b": 1},
                                 {"p": [(0,)], "q": [(0,)]})
    relevant = ground_relevant(d, interp)
    assert ground_to_str(relevant) == ("((q(e0) -> p(e0)) & "
                                       "((false -> false) -> q(e0)))")
    _, full = ground_program(d, interp)
    assert len(full.items) == 4
    assert is_stable(relevant, interp.true_atoms())
    # a choice rule is grounded as its desugared double-negation rule
    assert ground_to_str(ground_relevant(parse_program("{p}."),
                                         make_interpretation(1, {}, {"p": [()]}))) \
        == "((((p -> false) -> false) -> p))"


def test_is_sm_model_deep_rule_body_rejects_classically():
    body = ", ".join(["q(X)"] * 600)
    prog = parse_program(f"p(X) :- {body}. {{q(X)}} :- X = X.")
    # q(e0) holds, so the body holds at e0, but p(e0) does not
    breaks_rule = make_interpretation(1, {}, {"p": [], "q": [(0,)]})
    assert not is_sm_model(prog, breaks_rule)


# ---------------------------------------------------------------------------
# supportedness, Pnn/Nnn, tight-on

def test_is_supported():
    q = GAtom("q")
    gp = GroundProgram((GroundRule(P, GAnd(())), GroundRule(q, P)))
    assert is_supported(gp, {P, q})
    assert is_supported(gp, {P})
    assert not is_supported(gp, {q})


def test_pnn_nnn_clauses():
    q, r = GAtom("q"), GAtom("r")
    assert pnn_nnn(P) == (frozenset({P}), frozenset())
    assert pnn_nnn(GImplies(P, q)) == (frozenset({q}), frozenset({P}))
    # an implication with a false consequent contributes nothing
    assert pnn_nnn(GImplies(P, G_BOT)) == (frozenset(), frozenset())
    assert pnn(GAnd((P, GImplies(GImplies(q, G_BOT), r)))) == frozenset({P, r})


def test_is_tight_on():
    q = GAtom("q")
    loop = GroundProgram((GroundRule(P, P),))
    assert not is_tight_on(loop, {P})
    assert is_tight_on(loop, set())
    two_cycle = GroundProgram((GroundRule(P, q), GroundRule(q, P)))
    assert not is_tight_on(two_cycle, {P, q})
    chain = GroundProgram((GroundRule(P, q), GroundRule(q, GAnd(()))))
    assert is_tight_on(chain, {P, q})
    # a rule whose body j does not satisfy contributes no parent edge
    guarded = GroundProgram((GroundRule(P, GAnd((P, q))),))
    assert is_tight_on(guarded, {P})
    # negated occurrences are not parents
    negloop = GroundProgram((GroundRule(P, GImplies(GImplies(P, G_BOT), G_BOT)),))
    assert is_tight_on(negloop, {P})


def test_is_acyclic_long_paths():
    path = {i: [i + 1] for i in range(1200)}
    path[1200] = []
    assert is_acyclic(path)
    path[1200] = [0]
    assert not is_acyclic(path)
    assert not is_acyclic({0: [0]})
    chain = GroundProgram(tuple(GroundRule(GAtom("p", (i,)), GAtom("p", (i + 1,)))
                                for i in range(1200)))
    atoms = {GAtom("p", (i,)) for i in range(1201)}
    assert is_tight_on(chain, atoms)


def test_ground_prints_a_conjunction_flat():
    # The body is one n-ary And, so its ground form is one GAnd, printed
    # like the program conjunction around it.
    prog = parse_program("p :- q, r, s.")
    interp = parse_interpretation("universe=1; p={()}; q={()}; r={()}; s={()}")
    _, gf = ground_program(prog, interp)
    assert ground_to_str(gf) == "(((q & r & s) -> p))"
