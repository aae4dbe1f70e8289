"""Syntax layer: variable bookkeeping, substitution, renaming,
printing."""

import pytest

from lttight.completion import CompletionResult, completion, simplify_completion
from lttight.parser import parse_formula, parse_program
from lttight.syntax import (
    BOT, TOP, And, Atom, Equality, Exists, Forall, Implies, ObjectConstant,
    Or, Variable, all_variables, conjoin, disjoin, flatten_and, flatten_or,
    formula_to_str, free_variables, fresh_variable, iff, neg,
    ordered_free_variables, pretty_print, rename_apart, rule_to_str,
    substitute, universal_closure,
)
from lttight.tightness import export_tptp

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = ObjectConstant("a"), ObjectConstant("b")


def test_sugar_encodings():
    assert neg(Atom("p")) == Implies(Atom("p"), BOT)
    assert TOP == Implies(BOT, BOT)
    assert iff(Atom("p"), Atom("q")) == And(
        Implies(Atom("p"), Atom("q")), Implies(Atom("q"), Atom("p")))


def test_conjoin_disjoin():
    assert conjoin([]) == TOP
    assert disjoin([]) == BOT
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert conjoin([p, q, r]) == And(And(p, q), r)
    assert disjoin([p, q, r]) == Or(Or(p, q), r)
    assert flatten_and(And(And(p, q), r)) == [p, q, r]
    assert flatten_or(Or(p, Or(q, r))) == [p, q, r]


def test_free_variables_and_order():
    f = parse_formula("q(Y, X) & exists X (p(X) & r(Z))")
    assert free_variables(f) == {X, Y, Z}
    assert ordered_free_variables(f) == [Y, X, Z]
    assert all_variables(f) == {X, Y, Z}


def test_variable_walk_on_deep_formulas():
    xs = [Variable(f"X{i}") for i in range(1200)]
    f = conjoin(Atom("p", (x,)) for x in xs)
    assert flatten_and(f) == [Atom("p", (x,)) for x in xs]
    assert ordered_free_variables(f) == xs
    closed = f
    for x in reversed(xs):
        closed = Exists(x, closed)
    assert free_variables(closed) == set()
    assert all_variables(closed) == set(xs)


def test_universal_closure_order():
    f = parse_formula("q(Y, X)")
    assert universal_closure(f) == Forall(Y, Forall(X, f))


def test_fresh_variable():
    assert fresh_variable("X", set()) == Variable("X")
    assert fresh_variable("X", {X}) == Variable("X1")
    assert fresh_variable("X", {X, Variable("X1")}) == Variable("X2")


def test_substitute_simple():
    f = parse_formula("p(X) & q(X, Y)")
    assert substitute(f, {X: a}) == parse_formula("p(a) & q(a, Y)")
    # identity bindings are dropped
    assert substitute(f, {X: X}) is f


def test_substitute_does_not_touch_bound():
    f = Exists(X, Atom("p", (X,)))
    assert substitute(f, {X: a}) == f


def test_substitute_capture_avoiding():
    f = Forall(X, Atom("p", (Y,)))
    g = substitute(f, {Y: X})
    assert g == Forall(Variable("X1"), Atom("p", (X,)))
    # and the free variable really changed
    assert free_variables(g) == {X}


def test_rename_apart_disjoint_and_named():
    prog = parse_program("q(X, Y) :- p(Y, X), not p(X, Y).")
    r1 = rename_apart(prog.rules[0], 1)
    r2 = rename_apart(prog.rules[0], 2)
    assert r1.head == Atom("q", (Variable("X_1"), Variable("Y_1")))
    assert not (r1.variables() & r2.variables())


def test_rule_sentence():
    prog = parse_program("p(X) :- q(X, Y).")
    assert prog.rules[0].sentence() == parse_formula(
        "forall X (forall Y (q(X, Y) -> p(X)))")


def test_formula_printer_precedence():
    cases = [
        "p | q & r -> s",
        "(p -> q) -> r",
        "p -> q -> r",
        "not (p & q)",
        "not not p(X)",
        "a != b",
        "p & (q | r)",
        "forall X (exists Y (p(X) -> q(X, Y)))",
        "true",
        "false",
    ]
    for text in cases:
        f = parse_formula(text)
        assert parse_formula(formula_to_str(f)) == f, text


def test_program_pretty_print_round_trip():
    text = """
    #extensional s/1.
    p(a).
    {q(X)} :- p(X).
    :- q(b), not s(b).
    """
    prog = parse_program(text)
    assert parse_program(pretty_print(prog)) == prog


def test_rule_to_str_forms():
    prog = parse_program("p(a). {q(X)} :- p(X). {r}. :- q(b).")
    assert rule_to_str(prog.rules[0]) == "p(a)."
    assert rule_to_str(prog.rules[1]) == "{q(X)} :- p(X)."
    assert rule_to_str(prog.rules[2]) == "{r}."
    assert rule_to_str(prog.rules[3]) == ":- q(b)."


def test_junctions_splice_only_a_leading_operand():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert And(And(p, q), r) == And(p, q, r)
    assert And(And(p, q), r).items == (p, q, r)
    assert And(p, And(q, r)).items == (p, And(q, r))
    assert Or(Or(p, q), r).items == (p, q, r)
    assert conjoin([p]) == p and disjoin([p]) == p
    with pytest.raises(ValueError):
        And(p)


# Printed by the binary And/Or this AST had before it became n-ary; the
# printers must keep every character.
PINNED_PRINTS = [
    ("p & q & r", "p & q & r", "((p & q) & r)"),
    ("p & (q & r)", "p & (q & r)", "(p & (q & r))"),
    ("(p | q) & r", "(p | q) & r", "((p | q) & r)"),
]


@pytest.mark.parametrize("text, printed, tptp", PINNED_PRINTS)
def test_printed_shapes_are_pinned(text, printed, tptp):
    f = parse_formula(text)
    assert formula_to_str(f) == printed
    problem = export_tptp((f,), CompletionResult((), ()), TOP)
    assert problem.splitlines()[0] == f"fof(gamma_1, axiom, {tptp})."


PINNED_COMPLETION_TPTP = (
    "(![X1]: ((p(X1) => (((q(X1) & r(X1)) & s(X1)) | ((X1 = a) & ((r(a) | s(a)) | q(a)))))"
    " & ((((q(X1) & r(X1)) & s(X1)) | ((X1 = a) & ((r(a) | s(a)) | q(a)))) => p(X1))))")


def test_simplified_completion_prints_are_pinned():
    prog = parse_program("p(X) :- q(X), r(X), s(X). p(a) :- r(a) | s(a) | q(a).")
    comp = simplify_completion(completion(prog))
    assert formula_to_str(comp.definition_for("p")) == (
        "forall X1 ((p(X1) -> q(X1) & r(X1) & s(X1) | X1 = a & (r(a) | s(a) | q(a)))"
        " & (q(X1) & r(X1) & s(X1) | X1 = a & (r(a) | s(a) | q(a)) -> p(X1)))")
    assert f"fof(comp_p, axiom, {PINNED_COMPLETION_TPTP})." in export_tptp((), comp, TOP)
