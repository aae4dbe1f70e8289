"""Interpretations, compiled evaluation, grounding, reducts, stability,
supportedness and the tight-on check."""

from itertools import product
from random import Random

import pytest

from lttight.completion import desugar
from lttight.evaluation import compile_rules, compile_sentence
from lttight.fixtures import builtin_fixture
from lttight.parser import parse_formula, parse_program
from lttight.semantics import (
    DEFAULT_STABILITY_CAP, GroundingError, Interpretation,
    ResourceGuardError, enumerate_interpretations,
    enumeration_key,
    ground, ground_program, ground_to_str, interpretation_count, is_acyclic,
    is_sm_model, is_supported, is_tight_on, make_interpretation,
    orbit, parse_interpretation, pnn_nnn,
    sample_interpretation, satisfies, satisfies_fo, sm_tables,
)
from lttight.stability import BOT, TOP, Conj, Disj, Imp
from lttight.syntax import (
    BASIC, And, Atom, Equality, Exists, Forall, Implies, ObjectConstant, Or,
    Rule, Signature, Variable, neg,
)

from conftest import (
    atom_numbers, fo_eval, folded_reduct, is_stable_ground, reduct, relevant_grounding,
    rule_check, rules_eval, true_atoms,
)

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


def test_enumeration_guard(monkeypatch):
    sig = builtin_fixture("moving(1)").program.signature
    with pytest.raises(ResourceGuardError):
        next(enumerate_interpretations(sig, 2))
    monkeypatch.setenv("LT_TIGHT_GUARD_CEILING", "10")
    with pytest.raises(ResourceGuardError):
        next(enumerate_interpretations(SIG2, 2))
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


def _assert_dict_fields(interp):
    """The fields every builder leaves: dicts, and frozenset extensions."""
    assert type(interp.consts) is dict
    assert type(interp.extensions) is dict
    assert all(type(ts) is frozenset for ts in interp.extensions.values())


@pytest.mark.parametrize("name", ["prog2", "ex2"])
def test_enumeration_matches_make_interpretation(name):
    sig = builtin_fixture(name).program.signature
    for m in (1, 2, 3):
        fast = list(enumerate_interpretations(sig, m))
        slow = list(_enumerate_by_make_interpretation(sig, m))
        assert fast == slow
        assert [i.literal() for i in fast] == [i.literal() for i in slow]
        for interp in fast:
            _assert_dict_fields(interp)
            _assert_dict_fields(parse_interpretation(interp.literal()))
        for interp in enumerate_interpretations(sig, m, canonical=True):
            for image in orbit(interp):
                _assert_dict_fields(image)


def _sample_by_make_interpretation(sig, m, rng):
    """sample_interpretation's draws, in its order, built and sorted by
    make_interpretation: the reference."""
    consts = {name: rng.randrange(m) for name in sig.constants}
    extensions = {p: [t for t in product(range(m), repeat=arity)
                      if rng.random() < 0.5]
                  for p, arity in sig.predicates}
    return make_interpretation(m, consts, extensions)


@pytest.mark.parametrize("sig", [
    Signature(predicates=(("p", 1), ("q", 2), ("r", 0)), constants=("a", "b")),
    builtin_fixture("moving(1)").program.signature,
    builtin_fixture("moving(2)").program.signature,
], ids=["SIG", "moving(1)", "moving(2)"])
def test_sampling_matches_make_interpretation(sig):
    for seed in range(20):
        for m in (1, 2, 3):
            fast_rng, slow_rng = Random(seed), Random(seed)
            fast = [sample_interpretation(sig, m, fast_rng) for _ in range(3)]
            slow = [_sample_by_make_interpretation(sig, m, slow_rng)
                    for _ in range(3)]
            assert fast == slow
            assert [i.literal() for i in fast] == [i.literal() for i in slow]
            assert fast_rng.random() == slow_rng.random()
            for interp in fast:
                _assert_dict_fields(interp)


def test_interpretation_built_directly_equals_made():
    direct = Interpretation(1, {}, {"p": ((),)})
    made = make_interpretation(1, {}, {"p": [()]})
    assert direct == made
    assert hash(direct) == hash(made)
    assert direct.literal() == made.literal()


def test_interpretation_ignores_name_order():
    one = make_interpretation(2, {"a": 0, "b": 1},
                              {"p": [(1,), (0,)], "q": [(1,)], "r": []})
    other = make_interpretation(2, {"b": 1, "a": 0},
                                {"r": [], "q": [(1,)], "p": [(0,), (1,)]})
    assert one == other
    assert hash(one) == hash(other)
    assert one.literal() == other.literal()
    assert true_atoms(one) == true_atoms(other)
    assert enumeration_key(one) == enumeration_key(other)


def test_literal_round_trip():
    rng = Random(7)
    for _ in range(50):
        interp = sample_interpretation(SIG2, rng.randint(1, 3), rng)
        assert parse_interpretation(interp.literal()) == interp
    # nullary and binary predicates, empty and full extensions, and a
    # constant that shares its name with a predicate
    sig = Signature(predicates=(("p", 0), ("q", 2)), constants=("a", "q"))
    for m in (1, 2):
        for interp in enumerate_interpretations(sig, m):
            assert parse_interpretation(interp.literal()) == interp


def test_atoms_are_listed_sorted():
    interp = make_interpretation(3, {}, {"q": list(product(range(3), repeat=2)),
                                         "p": [(2,), (0,), (1,)]})
    atoms = true_atoms(interp)
    assert len(atoms) == 12
    assert atoms == sorted(atoms)


def test_parse_interpretation_golden():
    interp = parse_interpretation("universe=2; a=e0; b=e1; p={(e0),(e1)}; q={}")
    assert interp.consts["a"] == 0
    assert interp.extensions["p"] == frozenset({(0,), (1,)})
    assert interp.extensions["q"] == frozenset()
    assert frozenset(true_atoms(interp)) == frozenset({("p", (0,)), ("p", (1,))})


def test_duplicate_tuples_are_dropped():
    interp = parse_interpretation("universe=1; a=e0; q={(e0),(e0)}; p={(),()}")
    assert interp.extensions == {"p": frozenset({()}), "q": frozenset({(0,)})}
    assert interp == make_interpretation(1, {"a": 0}, {"q": [(0,)], "p": [()]})


def test_parse_interpretation_errors():
    with pytest.raises(ValueError):
        parse_interpretation("a=e0")
    with pytest.raises(ValueError):
        parse_interpretation("universe=1; a=e1")
    with pytest.raises(ValueError):
        parse_interpretation("universe=1; p={(x0)}")
    for text in ("universe=0", "universe=-1", "universe=two",
                 "universe=1; s={e0}", "universe=1; s={(e0),}",
                 "universe=1; s={(e0)(e0)}", "universe=1; s={(e0,)}",
                 "universe=1; s={(e0)}; s={}", "universe=1; a=e0; a=e0",
                 "universe=1; ={()}", "universe=1; =e0"):
        with pytest.raises(ValueError):
            parse_interpretation(text)


def test_constant_and_predicate_may_share_a_name():
    # p(p). has the constant p and the predicate p/1
    interp = parse_interpretation("universe=1; p=e0; p={(e0)}")
    assert interp == make_interpretation(1, {"p": 0}, {"p": [(0,)]})
    assert interp.literal() == "universe=1; p=e0; p={(e0)}"


def test_sampling_is_seed_deterministic():
    a = [sample_interpretation(SIG2, 2, Random(3)) for _ in range(5)]
    b = [sample_interpretation(SIG2, 2, Random(3)) for _ in range(5)]
    assert a == b


# ---------------------------------------------------------------------------
# grounding

def test_ground_quantifiers_expand_over_universe():
    interp = herbrand2()
    assert ground(parse_formula("forall X (p(X))"), interp) == \
        Conj((("p", (0,)), ("p", (1,))))
    assert ground(parse_formula("exists X (p(X))"), interp) == \
        Disj((("p", (0,)), ("p", (1,))))


def test_ground_equalities_become_truth_values():
    interp = herbrand2()
    assert ground(parse_formula("a = a"), interp) == TOP
    assert ground(parse_formula("a = b"), interp) == BOT
    merged = make_interpretation(1, {"a": 0, "b": 0}, {"p": [], "q": []})
    assert ground(parse_formula("a = b"), merged) == TOP


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
    assert len(gp) == 4
    assert gf == Conj(tuple(Imp(body, head) for head, body in gp))


def test_ground_program_keeps_constraints_in_formula_view():
    prog = parse_program("p(a). :- p(X).")
    interp = make_interpretation(1, {"a": 0}, {"p": [(0,)]})
    gp, gf = ground_program(prog, interp)
    assert len(gp) == 1
    assert len(gf.items) == 2
    assert gf.items[1] == Imp(("p", (0,)), BOT)


def test_ground_to_str():
    g = Imp(Conj((("p", (0,)),)), BOT)
    assert ground_to_str(g) == "((p(e0)) -> false)"
    assert ground_to_str(TOP) == "true"


# ---------------------------------------------------------------------------
# satisfaction, reduct, stability

P = ("p", ())
NOT_NOT_P = Imp(Imp(Imp(P, BOT), BOT), P)


def test_satisfies_basics():
    assert satisfies({P}, P)
    assert not satisfies(set(), P)
    assert satisfies(set(), Imp(P, BOT))
    assert not satisfies(set(), BOT)


def test_reduct_golden():
    assert reduct(NOT_NOT_P, frozenset({P})) == \
        Imp(Imp(BOT, BOT), P)
    assert reduct(NOT_NOT_P, frozenset()) == Imp(BOT, BOT)


def test_choice_formula_has_two_stable_sets():
    assert is_stable_ground(NOT_NOT_P, frozenset())
    assert is_stable_ground(NOT_NOT_P, frozenset({P}))


def test_self_supporting_atom_is_not_stable():
    assert not is_stable_ground(Imp(P, P), frozenset({P}))
    assert is_stable_ground(Imp(P, P), frozenset())


def test_stability_cap():
    small = frozenset((f"a{i}", ()) for i in range(4))
    g = Conj(tuple(small))
    with pytest.raises(ResourceGuardError):
        is_stable_ground(g, small, cap=3)
    assert is_stable_ground(g, small, cap=4)
    big = frozenset((f"a{i}", ()) for i in range(DEFAULT_STABILITY_CAP + 1))
    with pytest.raises(ResourceGuardError):
        is_stable_ground(Conj(tuple(big)), big)


def test_is_sm_model_on_fixture():
    tables = sm_tables(builtin_fixture("prog1").program)
    bindings = rule_check(tables)
    stable = herbrand2(p=[(0,), (1,)], q=[(1,)])
    unstable = herbrand2(p=[(0,)], q=[(1,)])
    assert is_sm_model(tables, stable, bindings(stable))
    assert not is_sm_model(tables, unstable, bindings(unstable))


def test_satisfies_fo():
    interp = herbrand2(p=[(0,)])
    assert satisfies_fo(interp, parse_formula("exists X (p(X))"))
    assert not satisfies_fo(interp, parse_formula("forall X (p(X))"))


def test_interpretation_lookups():
    interp = herbrand2(p=[(1,)])
    assert interp.consts["b"] == 1
    assert interp.extensions["p"] == frozenset({(1,)})
    with pytest.raises(KeyError):
        interp.consts["c"]
    with pytest.raises(KeyError):
        interp.extensions["r"]
    # equal values hash alike
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
    head = "b0.append(()); return ('"
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
    # the head lists Y first, so the bindings are (Y, X) tuples
    rule = Rule(BASIC, Atom(head, (Y, X)), Atom(pred, (X, Y)))
    assert rule.free_vars() == [Y, X]
    bindings = compile_rules([rule])
    rng = Random(11)
    models = 0
    for _ in range(200):
        m = rng.randint(1, 3)
        body = [t for t in product(range(m), repeat=2) if rng.random() < 0.5]
        interp = make_interpretation(
            m, {c: rng.randrange(m), d: rng.randrange(m)},
            {pred: body, other: [(e,) for e in range(m) if rng.random() < 0.5],
             head: [(y, x) for x, y in body if rng.random() < 0.9]})
        for f, holds in zip(sentences, compiled):
            assert holds(interp) == fo_eval(f, interp)
        expected = rules_eval([rule], interp)
        assert bindings(interp) == expected
        if expected is not None:
            models += 1
            assert expected == [[(y, x) for y, x in product(range(m), repeat=2)
                                 if (x, y) in interp.extensions[pred]]]
    assert 20 < models < 180
    unmapped = make_interpretation(1, {}, {pred: [], other: []})
    with pytest.raises(GroundingError, match=r"constant a'\] or C\['b is not"):
        compiled[2](unmapped)


def test_compiled_unbound_variable():
    interp = herbrand2(p=[(0,)])
    with pytest.raises(GroundingError, match="unbound variable Z"):
        satisfies_fo(interp, parse_formula("p(a) & p(Z)"))
    # short-circuits before the free variable is reached
    assert not satisfies_fo(interp, parse_formula("p(b) & p(Z)"))


def test_relevant_reduct_keeps_instances_whose_body_holds():
    d = desugar(parse_program("p(X) :- q(X). q(a). :- p(b), not q(b)."))
    tables = sm_tables(d)
    interp = make_interpretation(2, {"a": 0, "b": 1},
                                 {"p": [(0,)], "q": [(0,)]})
    bindings = rule_check(tables)(interp)
    numbers = atom_numbers(sorted(frozenset(true_atoms(interp))))
    assert numbers == {("p", (0,)): 0, ("q", (0,)): 1}
    # q(e0) -> p(e0), and the fact q(a), whose body folds to true
    relevant = relevant_grounding(tables, interp, bindings)
    assert ground_to_str(relevant) == \
        "((q(e0) -> p(e0)) & ((false -> false) -> q(e0)))"
    assert folded_reduct(relevant, numbers) == Conj((Imp(1, 0), 1))
    _, full = ground_program(d, interp)
    assert len(full.items) == 4
    assert folded_reduct(full, numbers) == folded_reduct(relevant, numbers)
    assert is_sm_model(tables, interp, bindings)
    # a choice rule is grounded as its desugared double-negation rule,
    # ((p -> false) -> false) -> p, which folds to p
    choice = make_interpretation(1, {}, {"p": [()]})
    tables = sm_tables(parse_program("{p}."))
    relevant = relevant_grounding(tables, choice, rule_check(tables)(choice))
    assert folded_reduct(relevant, atom_numbers([("p", ())])) == 0


def test_atoms_are_numbered_once_each():
    """A tuple listed twice is one atom: q(a) alone is stable, and so is
    a fact p."""
    duplicated = make_interpretation(1, {"a": 0}, {"q": [(0,), (0,)]})
    assert true_atoms(duplicated) == [("q", (0,))]
    assert atom_numbers([("q", (0,)), ("q", (0,))]) == {("q", (0,)): 0}
    tables = sm_tables(parse_program("q(a)."))
    assert is_sm_model(tables, duplicated, rule_check(tables)(duplicated))
    tables = sm_tables(parse_program("p."))
    fact = make_interpretation(1, {}, {"p": [(), ()]})
    assert is_sm_model(tables, fact, rule_check(tables)(fact))
    assert is_stable_ground(Conj((P,)), [P, P])
    assert not is_stable_ground(Imp(P, P), [P, P])


def test_rules_are_read_constraints_first():
    """The compiled rules stop at the first violated instance, and the
    constraints come first: with q true, ``:- q.`` is violated before
    ``p(c) :- q.`` reaches the unmapped constant c, wherever the
    constraint is written; with r false, the rule's head reaches it."""
    q_true = make_interpretation(1, {}, {"p": [], "q": [()], "r": []})
    for text in (":- q. p(c) :- q.", "p(c) :- q. :- q."):
        tables = sm_tables(parse_program(text))
        assert not is_sm_model(tables, q_true, rule_check(tables)(q_true))
    tables = sm_tables(parse_program(":- r. p(c) :- q."))
    with pytest.raises(GroundingError, match="constant c is not mapped"):
        is_sm_model(tables, q_true, rule_check(tables)(q_true))


def test_relevant_grounding_is_none_on_a_non_model():
    tables = sm_tables(parse_program(":- r. p :- q."))
    bindings = rule_check(tables)
    for interp in (
            make_interpretation(1, {}, {"p": [()], "q": [()], "r": [()]}),
            make_interpretation(1, {}, {"p": [], "q": [()], "r": []})):
        assert relevant_grounding(tables, interp, bindings(interp)) is None
    model = make_interpretation(1, {}, {"p": [()], "q": [()], "r": []})
    assert ground_to_str(relevant_grounding(
        tables, model, bindings(model))) == "((q -> p))"


def test_is_sm_model_deep_rule_body_rejects_classically():
    body = ", ".join(["q(X)"] * 600)
    prog = parse_program(f"p(X) :- {body}. {{q(X)}} :- X = X.")
    # q(e0) holds, so the body holds at e0, but p(e0) does not
    breaks_rule = make_interpretation(1, {}, {"p": [], "q": [(0,)]})
    tables = sm_tables(prog)
    bindings = rule_check(tables)(breaks_rule)
    assert not is_sm_model(tables, breaks_rule, bindings)


# ---------------------------------------------------------------------------
# supportedness, Pnn/Nnn, tight-on

def test_is_supported():
    q = ("q", ())
    gp = ((P, TOP), (q, P))
    assert is_supported(gp, {P, q})
    assert is_supported(gp, {P})
    assert not is_supported(gp, {q})


def test_pnn_nnn_clauses():
    q, r = ("q", ()), ("r", ())
    assert pnn_nnn(P) == (frozenset({P}), frozenset())
    assert pnn_nnn(Imp(P, q)) == (frozenset({q}), frozenset({P}))
    # an implication with a false consequent contributes nothing
    assert pnn_nnn(Imp(P, BOT)) == (frozenset(), frozenset())
    assert pnn_nnn(Conj((P, Imp(Imp(q, BOT), r))))[0] == frozenset({P, r})


def test_is_tight_on():
    q = ("q", ())
    loop = ((P, P),)
    assert not is_tight_on(loop, {P})
    assert is_tight_on(loop, set())
    two_cycle = ((P, q), (q, P))
    assert not is_tight_on(two_cycle, {P, q})
    chain = ((P, q), (q, TOP))
    assert is_tight_on(chain, {P, q})
    # a rule whose body j does not satisfy contributes no parent edge
    guarded = ((P, Conj((P, q))),)
    assert is_tight_on(guarded, {P})
    # negated occurrences are not parents
    negloop = ((P, Imp(Imp(P, BOT), BOT)),)
    assert is_tight_on(negloop, {P})


def test_is_acyclic_long_paths():
    path = {i: [i + 1] for i in range(1200)}
    path[1200] = []
    assert is_acyclic(path)
    path[1200] = [0]
    assert not is_acyclic(path)
    assert not is_acyclic({0: [0]})
    chain = tuple((("p", (i,)), ("p", (i + 1,))) for i in range(1200))
    atoms = {("p", (i,)) for i in range(1201)}
    assert is_tight_on(chain, atoms)


def test_ground_prints_a_conjunction_flat():
    # The body is one n-ary And, so its ground form is one Conj, printed
    # like the program conjunction around it.
    prog = parse_program("p :- q, r, s.")
    interp = parse_interpretation("universe=1; p={()}; q={()}; r={()}; s={()}")
    _, gf = ground_program(prog, interp)
    assert ground_to_str(gf) == "(((q & r & s) -> p))"
