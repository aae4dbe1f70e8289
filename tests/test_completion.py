"""Completion: desugaring, definitions, completed definitions, and the
equality-driven simplifier."""

from lttight.completion import (
    completed_definition, completion, definition_of, desugar, simplify,
    simplify_completion,
)
from lttight.fixtures import builtin_fixture
from lttight.parser import parse_formula, parse_program
from lttight.syntax import (
    TOP, Atom, Rule, Variable, formula_to_str, rule_to_str,
)


def test_desugar_choice_rule():
    prog = parse_program("{p(X)} :- q(X).")
    d = desugar(prog)
    assert [r.kind for r in d.rules] == ["basic"]
    assert d.rules[0].body == parse_formula("q(X) & not not p(X)")


def test_desugar_bodyless_choice():
    prog = parse_program("{p(a)}.")
    d = desugar(prog)
    assert d.rules[0].body == parse_formula("not not p(a)")


def test_desugar_extensional_predicates():
    prog = parse_program("#extensional q/2. p(X) :- q(X, X).")
    d = desugar(prog)
    assert d.intensional == frozenset({"p", "q"})
    added = d.rules[-1]
    assert added.head == Atom("q", (Variable("X1"), Variable("X2")))
    assert added.body == parse_formula("not not q(X1, X2)")


def test_desugar_fixpoint():
    for name in ("prog1", "ex1", "moving(1)"):
        d = desugar(builtin_fixture(name).program)
        assert desugar(d) == d


def test_definition_of():
    prog = desugar(builtin_fixture("prog1").program)
    d = definition_of(prog, "p")
    assert d.head == Atom("p", (Variable("X1"),))
    assert d.body == parse_formula("X1 = a | exists X (X1 = X & q(X))")
    assert rule_to_str(definition_of(prog, "q")) == "q(X1) :- X1 = b."


def test_definition_of_undefined_predicate_is_false():
    prog = desugar(parse_program("p(X) :- not q(X)."))
    assert definition_of(prog, "p").body == parse_formula(
        "exists X (X1 = X & not q(X))")
    # a predicate with no rules gets the empty (false) definition body
    assert definition_of(prog, "q").body == parse_formula("false")


def test_completed_definition_raw_form():
    prog = desugar(builtin_fixture("prog1").program)
    assert completed_definition(prog, "p") == parse_formula(
        "forall X1 ((p(X1) -> X1 = a | exists X (X1 = X & q(X)))"
        " & (X1 = a | exists X (X1 = X & q(X)) -> p(X1)))")


def test_completion_skips_extensional_predicates():
    prog = parse_program("#extensional q/1. p(X) :- q(X).")
    result = completion(prog)
    assert [p for p, _ in result.completed_definitions] == ["p"]


def test_completion_defines_extensional_heads():
    """An extensional predicate that heads a basic rule is completed
    from the desugared program, whose ``e :- not not e`` joins its
    definition."""
    result = completion(parse_program("#extensional e/0. e :- f. f."))
    assert [(p, formula_to_str(s)) for p, s in result.completed_definitions] == [
        ("e", "(e -> f | not not e) & (f | not not e -> e)"),
        ("f", "(f -> true) & (true -> f)")]


def test_completion_constraint_sentences():
    prog = parse_program("p(a). :- p(X), q(X).")
    result = completion(prog)
    assert result.constraint_sentences == (
        parse_formula("forall X (not (p(X) & q(X)))"),)


def test_head_variables_avoid_collisions():
    prog = desugar(parse_program("p(X1) :- q(X1, X2)."))
    d = definition_of(prog, "p")
    # the rule already uses X1 and X2, so the head variable must be fresh
    assert d.head.args[0] not in prog.rules[0].variables()


def test_simplify_exists_both_orientations():
    assert simplify(parse_formula("exists X (X = a & p(X))")) == \
        parse_formula("p(a)")
    assert simplify(parse_formula("exists X (a = X & p(X))")) == \
        parse_formula("p(a)")


def test_completion_reads_each_rule_once(monkeypatch):
    """The head variables avoid every rule's variables; those are
    collected once per completion, not once per completed predicate, so
    the calls grow linearly with the rules."""
    calls = []
    variables = Rule.variables

    def counting(rule):
        calls.append(rule)
        return variables(rule)

    monkeypatch.setattr(Rule, "variables", counting)
    counts = {}
    for n in (50, 100, 200):
        prog = parse_program(" ".join(f"p{i} :- not p{i}." for i in range(n)))
        calls.clear()
        comp = completion(prog)
        counts[n] = len(calls)
        assert len(comp.completed_definitions) == n
    assert counts == {50: 50, 100: 100, 200: 200}
    # and the head variables are still the first names no rule uses
    prog = parse_program("p(X1, X3) :- q(X2). q(X) :- p(X, X).")
    assert formula_to_str(completion(prog).definition_for("q")).startswith(
        "forall X4 ((q(X4) -> ")


def test_simplify_keeps_self_equality():
    f = parse_formula("exists X (X = X & p(X))")
    assert simplify(f) == parse_formula("exists X (X = X & p(X))")


def test_simplify_unit_elimination():
    assert simplify(parse_formula("p & true")) == parse_formula("p")
    assert simplify(parse_formula("true & p")) == parse_formula("p")
    assert simplify(parse_formula("p | false")) == parse_formula("p")
    assert simplify(parse_formula("false | p")) == parse_formula("p")
    # but true itself survives
    assert simplify(TOP) == TOP


def test_simplify_runs_to_fixpoint():
    f = parse_formula("exists X (X = a & exists Y (Y = X & p(Y) & true))")
    assert simplify(f) == parse_formula("p(a)")


def test_simplify_under_binders_only_when_safe():
    # the equality binds a different variable; nothing to rewrite
    f = parse_formula("exists X (Y = a & p(X))")
    assert simplify(f) == f


def test_simplify_completion_matches_paper_style_forms():
    result = simplify_completion(completion(builtin_fixture("prog1").program))
    assert result.definition_for("q") == parse_formula(
        "forall X1 ((q(X1) -> X1 = b) & (X1 = b -> q(X1)))")
