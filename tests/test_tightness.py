"""Link atoms, dependency graphs, chains, the syntactic refuter, and
the exports."""

from random import Random

import pytest

from lttight import semantics, tightness
from lttight.completion import completion, desugar, simplify_completion
from lttight.fixtures import builtin_fixture, fixture_names
from lttight.parser import parse_formula, parse_program
from lttight.syntax import (
    BASIC, BOT, And, Atom, Exists, Forall, Implies, Or, conjoin,
)
from lttight.tightness import (
    COUNTERMODEL, ENTAILED, UNKNOWN, chain_count, chain_formula,
    chain_to_str, chains, check_gamma_tight, export_dot,
    export_tptp, is_tight, link_atoms, predicate_dependency_graph,
    refute_chain_formula, refuter_tables,
)

from conftest import check_chain
from test_properties import SEED, random_formula, random_program_text


def classify_occurrences(f) -> list:
    """Every atom occurrence of ``f`` as (atom, positive, negated), in
    traversal order, by the definition of polarity: an occurrence is
    positive under an even number of implication antecedents, and
    negated inside the antecedent of an implication ``F -> false``,
    which also counts toward the parity."""
    out = []

    def walk(g, antecedents, negated):
        if isinstance(g, Atom):
            out.append((g, antecedents % 2 == 0, negated))
        elif isinstance(g, (And, Or)):
            for x in g.items:
                walk(x, antecedents, negated)
        elif isinstance(g, Implies):
            walk(g.left, antecedents + 1, negated or g.right == BOT)
            walk(g.right, antecedents, negated)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body, antecedents, negated)

    walk(f, 0, False)
    return out


def test_link_atoms_match_the_polarity_definition():
    rng = Random(SEED + 14)
    linked = unlinked = 0
    for _ in range(1000):
        f = random_formula(rng, 5)
        occurrences = classify_occurrences(f)
        expected = [a for a, positive, negated in occurrences
                    if positive and not negated]
        assert link_atoms(f) == expected, f
        linked += len(expected)
        unlinked += len(occurrences) - len(expected)
    assert linked > 500 and unlinked > 500


def test_occurrence_polarity_under_negation():
    f = parse_formula("p(Y, X), not p(X, Y)")
    assert link_atoms(f) == [parse_formula("p(Y, X)")]


def test_occurrence_parity_of_nested_implications():
    f = parse_formula("(p -> q) -> r")
    assert [a.predicate for a in link_atoms(f)] == ["p", "r"]


def test_occurrence_double_negation_is_positive_but_negated():
    assert link_atoms(parse_formula("not not p")) == []


def test_occurrences_under_quantifiers_and_equality():
    f = parse_formula("forall X (X = a | q(X))")
    assert [a.predicate for a in link_atoms(f)] == ["q"]


def test_dependency_graph_edges():
    assert predicate_dependency_graph(
        builtin_fixture("prog1").program).edges == (("p", "q"),)
    assert predicate_dependency_graph(
        builtin_fixture("prog2").program).edges == (("p", "q"), ("q", "p"))
    assert predicate_dependency_graph(
        builtin_fixture("ex2").program).edges == (
            ("p", "q"), ("q", "r"), ("r", "s"))
    # the negated occurrence contributes no edge
    assert predicate_dependency_graph(
        builtin_fixture("ex1").program).edges == (("q", "p"),)


def test_dependency_graph_ignores_double_negation():
    prog = parse_program("p(X) :- not not q(X).")
    assert predicate_dependency_graph(prog).edges == ()


def test_self_loop_is_not_tight():
    assert not is_tight(parse_program("p(X) :- p(X)."))
    assert not is_tight(builtin_fixture("example1").program)
    assert not is_tight(builtin_fixture("example2").program)


def test_chain_counts():
    assert list(chains(builtin_fixture("prog1").program, 2)) == []
    assert len(list(chains(builtin_fixture("ex1").program, 1))) == 1
    assert len(list(chains(builtin_fixture("example2").program, 1))) == 2
    assert len(list(chains(builtin_fixture("example2").program, 2))) == 2


def test_chain_count_matches_enumeration():
    def check(prog, n):
        rules = [r for r in desugar(prog).rules if r.kind == BASIC]
        assert chain_count(rules, n) == len(list(chains(prog, n)))

    programs = [builtin_fixture(name).program for name in fixture_names()]
    programs += [builtin_fixture(f"moving({k})").program for k in (1, 2)]
    for prog in programs:
        for n in range(4):
            check(prog, n)
    rng = Random(SEED + 15)
    for _ in range(200):
        prog = parse_program(random_program_text(rng))
        for n in range(3):
            check(prog, n)


def test_long_chains_do_not_exhaust_the_recursion_limit():
    """prog2 has two chains of every length; at length 2000 a chain is
    deeper than the default recursion limit."""
    cs = list(chains(builtin_fixture("prog2").program, 2000))
    assert len(cs) == 2 and all(len(c.rules) == 2001 for c in cs)


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
        tables = refuter_tables(fx.gamma,
                                simplify_completion(completion(fx.program)))
        for c in chains(fx.program, 1):
            assert refute_chain_formula(chain_formula(c), tables), name


def test_refuter_is_sound_on_prog2():
    fx = builtin_fixture("prog2")
    tables = refuter_tables((), simplify_completion(completion(fx.program)))
    for c in chains(fx.program, 1):
        assert not refute_chain_formula(chain_formula(c), tables)


def test_refuter_tables_follow_gamma_on_a_shared_completion():
    """Tables built from one completion for Gamma and no Gamma,
    alternately, give the same verdicts as tables built from a fresh
    completion for each Gamma."""
    fx = builtin_fixture("example3")
    shared = simplify_completion(completion(fx.program))
    verdicts = []
    for gamma in (fx.gamma, (), list(fx.gamma), ()):
        tables = refuter_tables(gamma, shared)
        fresh = refuter_tables(gamma,
                               simplify_completion(completion(fx.program)))
        for c in chains(fx.program, 1):
            fc = chain_formula(c)
            got = refute_chain_formula(fc, tables)
            assert got == refute_chain_formula(fc, fresh)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_check_gamma_tight_builds_one_refuter_table(monkeypatch):
    built = []

    def counting(gamma, comp):
        built.append(gamma)
        return refuter_tables(gamma, comp)

    monkeypatch.setattr(tightness, "refuter_tables", counting)
    fx = builtin_fixture("moving(1)")
    assert len(list(chains(fx.program, 3))) == 8
    assert check_gamma_tight(fx.program, fx.gamma, 3).status == ENTAILED
    assert len(built) == 1


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


def count_compiles(monkeypatch) -> list:
    """Record each sentence compiled by the countermodel search, as
    (module, sentence): the cuts compile in ``semantics``, the chains'
    closures in ``tightness``."""
    compiled = []
    for module in (semantics, tightness):
        def counting(sentence, module=module,
                     original=module.compile_sentence):
            compiled.append((module.__name__.rsplit(".", 1)[1], sentence))
            return original(sentence)
        monkeypatch.setattr(module, "compile_sentence", counting)
    return compiled


def test_countermodel_search_compiles_only_when_it_runs(monkeypatch):
    compiled = count_compiles(monkeypatch)
    fx = builtin_fixture("moving(1)")
    assert check_gamma_tight(fx.program, fx.gamma, 3).status == ENTAILED
    assert compiled == []
    # both completed definitions read p and q: one cut, at depth 2; then
    # both chains' closures, tried on the first completion model
    prog = builtin_fixture("prog2").program
    verdict = check_gamma_tight(prog, [], 1, 3)
    assert verdict.status == COUNTERMODEL
    assert len(list(chains(prog, 1))) == 2
    assert [module for module, _ in compiled] == [
        "semantics", "tightness", "tightness"]
    assert compiled[0][1] == conjoin(
        simplify_completion(completion(prog)).sentences())


def test_open_chain_compiles_when_an_interpretation_reaches_it(monkeypatch):
    """The refuter leaves this chain open, and no interpretation
    satisfies Gamma, so only the cuts are compiled: Gamma at depth 0
    and the completion at depth 1."""
    compiled = count_compiles(monkeypatch)
    prog = parse_program("p(a) :- p(X), not (X = a | X = b).")
    gamma = parse_formula("exists X (X != X)")
    verdict = check_gamma_tight(prog, [gamma], 1)
    assert verdict.status == UNKNOWN
    assert compiled == [("semantics", gamma),
                        ("semantics", conjoin(completion(prog).sentences()))]


def test_export_dot_predicate_graph():
    dot = export_dot(predicate_dependency_graph(builtin_fixture("prog1").program))
    assert dot == 'digraph {\n  "p";\n  "q";\n  "p" -> "q";\n}\n'


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
