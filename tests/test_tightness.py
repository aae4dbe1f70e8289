"""Occurrence polarity, dependency graphs, chains, the syntactic
refuter, and the exports."""

import pytest

from lttight import tightness
from lttight.completion import completion
from lttight.fixtures import builtin_fixture
from lttight.parser import parse_formula, parse_program
from lttight.tightness import (
    COUNTERMODEL, ENTAILED, UNKNOWN, Chain, chain_formula, chain_to_str,
    chains, check_chain, check_gamma_tight, classify_occurrences, export_dot,
    export_tptp, is_tight, predicate_dependency_graph, refute_chain_formula,
)


def test_occurrence_polarity_under_negation():
    f = parse_formula("p(Y, X), not p(X, Y)")
    occs = classify_occurrences(f)
    assert [(o.predicate, o.positive, o.negated) for o in occs] == [
        ("p", True, False), ("p", False, True)]


def test_occurrence_parity_of_nested_implications():
    f = parse_formula("(p -> q) -> r")
    occs = {o.predicate: (o.positive, o.negated) for o in classify_occurrences(f)}
    assert occs == {"p": (True, False), "q": (False, False), "r": (True, False)}


def test_occurrence_double_negation_is_positive_but_negated():
    occs = classify_occurrences(parse_formula("not not p"))
    assert [(o.positive, o.negated) for o in occs] == [(True, True)]


def test_occurrences_under_quantifiers_and_equality():
    f = parse_formula("forall X (X = a | q(X))")
    occs = classify_occurrences(f)
    assert [o.predicate for o in occs] == ["q"]
    assert occs[0].position == (0, 1)


def test_dependency_graph_edges():
    assert predicate_dependency_graph(
        builtin_fixture("prog1").program).edge_pairs() == {("p", "q")}
    assert predicate_dependency_graph(
        builtin_fixture("prog2").program).edge_pairs() == {("p", "q"), ("q", "p")}
    assert predicate_dependency_graph(
        builtin_fixture("ex2").program).edge_pairs() == {
            ("p", "q"), ("q", "r"), ("r", "s")}
    # the negated occurrence contributes no edge
    assert predicate_dependency_graph(
        builtin_fixture("ex1").program).edge_pairs() == {("q", "p")}


def test_dependency_graph_ignores_double_negation():
    prog = parse_program("p(X) :- not not q(X).")
    assert predicate_dependency_graph(prog).edge_pairs() == set()


def test_self_loop_is_not_tight():
    assert not is_tight(parse_program("p(X) :- p(X)."))
    assert not is_tight(builtin_fixture("example1").program)
    assert not is_tight(builtin_fixture("example2").program)


def test_chain_counts():
    assert list(chains(builtin_fixture("prog1").program, 2)) == []
    assert len(list(chains(builtin_fixture("ex1").program, 1))) == 1
    assert len(list(chains(builtin_fixture("example2").program, 1))) == 2
    assert len(list(chains(builtin_fixture("example2").program, 2))) == 2


def test_chain_length_zero():
    prog = builtin_fixture("prog1").program
    cs = list(chains(prog, 0))
    # one chain per basic rule, nothing linked
    assert len(cs) == 3
    assert all(c.labels == () for c in cs)


def test_chain_invariants_hold():
    for name in ("prog1", "prog2", "ex1", "ex2", "example1", "example2"):
        prog = builtin_fixture(name).program
        for n in range(0, 3):
            for c in chains(prog, n):
                check_chain(c)


def test_chain_tags_start_at_one():
    c = next(iter(chains(builtin_fixture("example1").program, 1)))
    assert {v.name for v in c.rules[0].variables()} == {"X_1"}
    assert {v.name for v in c.rules[1].variables()} == {"X_2"}


def test_path_length_bounds_chains_when_tight():
    """A tight program has no chains once the length reaches the number
    of predicates; a non-tight one keeps producing them."""
    for name in ("prog1", "ex1", "ex2"):
        prog = builtin_fixture(name).program
        assert list(chains(prog, len(prog.predicates))) == []
    for name in ("prog2", "example1", "example2"):
        prog = builtin_fixture(name).program
        for n in range(1, 5):
            assert list(chains(prog, n)), (name, n)


def test_chain_formula_example1():
    prog = builtin_fixture("example1").program
    (c,) = chains(prog, 1)
    assert chain_formula(c) == parse_formula(
        "X_1 = a & p(X_1) & X_1 != a & p(X_2) & X_2 != a")


def test_chain_to_str_shows_links():
    prog = builtin_fixture("ex1").program
    (c,) = chains(prog, 1)
    text = chain_to_str(c)
    assert "--[p(Y_1, X_1)]-->" in text
    assert text.splitlines()[0].startswith("q(X_1, Y_1) :- ")


def test_refuter_on_the_worked_examples():
    for name in ("example1", "example2", "example3"):
        fx = builtin_fixture(name)
        comp = completion(fx.program)
        for c in chains(fx.program, 1):
            assert refute_chain_formula(chain_formula(c), fx.gamma, comp), name


def test_refuter_is_sound_on_prog2():
    fx = builtin_fixture("prog2")
    comp = completion(fx.program)
    for c in chains(fx.program, 1):
        assert not refute_chain_formula(chain_formula(c), (), comp)



def test_refuter_tables_follow_gamma_on_a_shared_completion():
    """The refuter keeps its tables on the completion; reusing one
    completion with and without Gamma, alternately, must give the same
    verdicts as a fresh completion for each call."""
    fx = builtin_fixture("example3")
    shared = completion(fx.program)
    verdicts = []
    for c in chains(fx.program, 1):
        fc = chain_formula(c)
        for gamma in (fx.gamma, (), list(fx.gamma), ()):
            got = refute_chain_formula(fc, gamma, shared)
            assert got == refute_chain_formula(fc, gamma,
                                               completion(fx.program))
            verdicts.append(got)
    assert True in verdicts and False in verdicts

def test_gamma_disequalities_matter():
    """example3 is prog2's rules; without a != b the same chain that the
    refuter closes has a genuine countermodel."""
    fx = builtin_fixture("example3")
    assert check_gamma_tight(fx.program, fx.gamma, 1).status == ENTAILED
    assert check_gamma_tight(fx.program, (), 1).status == COUNTERMODEL


def test_unknown_when_gamma_is_out_of_scope():
    """A Gamma the refuter cannot use, strong enough to kill all small
    countermodels, leaves the verdict open."""
    prog = builtin_fixture("prog2").program
    gamma = [parse_formula("forall X (not p(X))")]
    verdict = check_gamma_tight(prog, gamma, 1, universe_bound=2)
    assert verdict.status == UNKNOWN
    assert verdict.bound == 2


def test_check_gamma_tight_argument_validation():
    prog = builtin_fixture("prog1").program
    with pytest.raises(ValueError):
        check_gamma_tight(prog, (), 0)
    with pytest.raises(ValueError):
        check_gamma_tight(prog, (), 1, universe_bound=0)
    with pytest.raises(ValueError):
        list(chains(prog, -1))


def test_countermodel_search_compiles_only_when_it_runs(monkeypatch):
    compiled = []

    def counting(sentence):
        compiled.append(sentence)
        return compile_sentence(sentence)

    compile_sentence = tightness.compile_sentence
    monkeypatch.setattr(tightness, "compile_sentence", counting)
    fx = builtin_fixture("moving(1)")
    assert check_gamma_tight(fx.program, fx.gamma, 3).status == ENTAILED
    assert compiled == []
    # one conjunction of Gamma and the completion, one per open chain
    verdict = check_gamma_tight(builtin_fixture("prog2").program, [], 1, 3)
    assert verdict.status == COUNTERMODEL
    assert len(compiled) == 1 + len(list(chains(builtin_fixture("prog2").program, 1)))


def test_export_dot_predicate_graph():
    dot = export_dot(predicate_dependency_graph(builtin_fixture("prog1").program))
    assert dot == 'digraph {\n  "p";\n  "q";\n  "p" -> "q";\n}\n'


def test_export_dot_chain():
    prog = builtin_fixture("ex1").program
    (c,) = chains(prog, 1)
    dot = export_dot(c)
    assert 'r0 -> r1 [label="p(Y_1, X_1)"]' in dot
    assert dot.count("label=") == 3   # two rule nodes plus one edge


def test_export_dot_rejects_other_types():
    with pytest.raises(TypeError):
        export_dot(42)


def test_export_tptp_example2():
    fx = builtin_fixture("example2")
    comp = completion(fx.program)
    cs = list(chains(fx.program, 1))
    text = export_tptp(fx.gamma, comp, chain_formula(cs[0]))
    lines = text.strip().splitlines()
    assert lines[0] == "fof(gamma_1, axiom, (a != b))."
    assert lines[1] == "fof(gamma_2, axiom, (c != d))."
    assert lines[2].startswith("fof(comp_p, axiom, (![X1]: ")
    assert lines[3].startswith("fof(comp_q, axiom, ")
    assert lines[4] == ("fof(chain_refutation, conjecture, "
                        "~(((b = a) & p(b)) & p(b))).")


def test_export_tptp_connective_spelling():
    prog = parse_program("p(X) :- q(X) | not r(X, X).")
    comp = completion(prog)
    text = export_tptp((), comp, parse_formula("false"))
    assert "=>" in text and "?[X]:" in text and "![X1]:" in text
    assert "$false" in text
