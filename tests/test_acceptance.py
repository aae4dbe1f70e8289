"""Acceptance suite.  Each test prints one PASS/FAIL line; expected
values are either computed by an independent oracle in the test body or
asserted against pinned golden forms.  AST comparisons are exact (zero
tolerance); runtime bounds are wall-clock."""

from __future__ import annotations

import time
from itertools import combinations
from random import Random

from lttight import (
    builtin_fixture, chain_formula, chains, check_equivalence,
    check_gamma_tight, check_proposition3, completion, enumerate_interpretations,
    ground_program, is_sm_model, is_supported, is_tight, is_tight_on,
    make_interpretation, parse_formula, satisfies, satisfies_fo,
    simplify_completion, sm_tables,
)
from lttight.completion import desugar
from lttight.stability import BOT, Conj, Disj, Imp
from lttight.tightness import ENTAILED, COUNTERMODEL

from conftest import (
    is_stable_ground, random_ground_formula, random_ground_program, reduct,
    rule_check, true_atoms,
)

SEED = 20260824


class _report:
    """Prints the criterion verdict even when an assertion fails."""

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {verdict}")
        return False


def test_criterion_1_completion_goldens():
    with _report("1 completion goldens"):
        start = time.monotonic()
        prog1 = builtin_fixture("prog1").program
        c1 = simplify_completion(completion(prog1))
        expected_p = parse_formula(
            "forall X1 ((p(X1) -> X1 = a | q(X1))"
            " & (X1 = a | q(X1) -> p(X1)))")
        expected_q = parse_formula(
            "forall X1 ((q(X1) -> X1 = b) & (X1 = b -> q(X1)))")
        assert c1.definition_for("p") == expected_p
        assert c1.definition_for("q") == expected_q
        assert c1.constraint_sentences == ()

        prog4 = builtin_fixture("prog4").program
        c4 = simplify_completion(completion(prog4))
        assert c4.definition_for("p") == parse_formula(
            "forall X1 ((p(X1) -> X1 = a & p(b))"
            " & (X1 = a & p(b) -> p(X1)))")
        assert c4.definition_for("q") == parse_formula(
            "forall X1 ((q(X1) -> X1 = c & q(d))"
            " & (X1 = c & q(d) -> q(X1)))")
        assert c4.constraint_sentences == (
            parse_formula("a != b"), parse_formula("c != d"))
        assert time.monotonic() - start < 1.0


def test_criterion_2_tightness_classification():
    with _report("2 tightness classification"):
        assert is_tight(builtin_fixture("prog1").program) is True
        assert is_tight(builtin_fixture("ex1").program) is True
        assert is_tight(builtin_fixture("ex2").program) is True
        assert is_tight(builtin_fixture("prog2").program) is False


def test_criterion_3_chain_machinery():
    with _report("3 chain machinery"):
        ex1 = builtin_fixture("ex1").program
        cs = list(chains(ex1, 1))
        assert len(cs) == 1
        assert chain_formula(cs[0]) == parse_formula(
            "Y_1 = a & X_1 = b & p(Y_1, X_1) & not p(X_1, Y_1)")
        assert cs[0].labels == (parse_formula("p(Y_1, X_1)"),)

        ex2 = builtin_fixture("example2").program
        fs = [chain_formula(c) for c in chains(ex2, 1)]
        assert fs == [
            parse_formula("b = a & p(b) & p(b)"),
            parse_formula("d = c & q(d) & q(d)"),
        ]


def test_criterion_4_gamma_tightness_verdicts():
    with _report("4 gamma-tightness verdicts"):
        for name in ("example1", "example2", "example3"):
            fx = builtin_fixture(name)
            verdict = check_gamma_tight(fx.program, fx.gamma, 1)
            assert verdict.status == ENTAILED, name

        prog2 = builtin_fixture("prog2").program
        verdict = check_gamma_tight(prog2, (), 1)
        assert verdict.status == COUNTERMODEL
        assert verdict.interpretation.universe == 1
        assert verdict.interpretation.literal() == \
            "universe=1; a=e0; b=e0; p={(e0)}; q={(e0)}"


def test_criterion_5_equivalence_desk_scale():
    with _report("5 stable/completion agreement"):
        start = time.monotonic()
        cases = [
            ("prog1", (), 3),
            ("prog4", (), 2),
            ("example1", (), 2),
            ("example3", None, 2),   # prog2's rules under a != b
        ]
        for name, gamma, m_max in cases:
            fx = builtin_fixture(name)
            g = fx.gamma if gamma is None else gamma
            report = check_equivalence(fx.program, g, m_max, program_id=name)
            assert report.verdict == "agree", name
            assert report.checked > 0

        prog2 = builtin_fixture("prog2").program
        report = check_equivalence(prog2, (), 1, program_id="prog2")
        assert len(report.disagreements) == 1
        kind, interp = report.disagreements[0]
        assert kind == "comp_only"
        assert interp.universe == 1
        assert time.monotonic() - start < 120.0


def _least_model(rules, atoms):
    """Fixpoint least model of a definite ground program; the rules are
    (head, frozenset-of-body-atoms) pairs."""
    model = set()
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in model and body <= model:
                model.add(head)
                changed = True
    return frozenset(model)


def test_criterion_6_stable_model_oracle():
    with _report("6 stable-model oracle"):
        p0, p1 = ("p", (0,)), ("p", (1,))
        q0, q1 = ("q", (0,)), ("q", (1,))
        atoms = [p0, p1, q0, q1]

        tables1 = sm_tables(builtin_fixture("prog1").program)
        bindings1 = rule_check(tables1)
        # independent oracle: the Herbrand grounding of prog1 is definite,
        # so its unique stable model is the least model
        definite = [(p0, frozenset()), (q1, frozenset()),
                    (p0, frozenset({q0})), (p1, frozenset({q1}))]
        expected = _least_model(definite, atoms)
        assert expected == frozenset({p0, p1, q1})
        stable_sets = []
        for size in range(len(atoms) + 1):
            for chosen in combinations(atoms, size):
                interp = make_interpretation(
                    2, {"a": 0, "b": 1},
                    {"p": [t for name, t in chosen if name == "p"],
                     "q": [t for name, t in chosen if name == "q"]})
                if is_sm_model(tables1, interp, bindings1(interp)):
                    stable_sets.append(frozenset(chosen))
        assert stable_sets == [expected]

        tables2 = sm_tables(builtin_fixture("prog2").program)
        bindings2 = rule_check(tables2)
        stable_sets = []
        for size in range(len(atoms) + 1):
            for chosen in combinations(atoms, size):
                interp = make_interpretation(
                    2, {"a": 0, "b": 1},
                    {"p": [t for name, t in chosen if name == "p"],
                     "q": [t for name, t in chosen if name == "q"]})
                if is_sm_model(tables2, interp, bindings2(interp)):
                    stable_sets.append(frozenset(chosen))
        assert stable_sets == [frozenset()]


def test_criterion_7a_reduct_identity():
    with _report("7a reduct identity (1000 cases)"):
        rng = Random(SEED)
        atoms = [(f"a{i}", ()) for i in range(6)]
        cases = 0
        for _ in range(1000):
            f = random_ground_formula(rng, atoms, 4)
            j = frozenset(a for a in atoms if rng.random() < 0.5)
            assert satisfies(j, reduct(f, j)) == satisfies(j, f)
            cases += 1
        assert cases >= 1000


def _oracle_stable(g, j):
    """Independent stability check: own evaluator, own reduct, full
    subset sweep."""

    def ev(x, k):
        if isinstance(x, tuple):
            return x in k
        if isinstance(x, Conj):
            return all(ev(y, k) for y in x.items)
        if isinstance(x, Disj):
            return any(ev(y, k) for y in x.items)
        return (not ev(x.left, k)) or ev(x.right, k)

    def red(x, k):
        if not ev(x, k):
            return BOT
        if isinstance(x, tuple):
            return x
        if isinstance(x, Conj):
            return Conj(tuple(red(y, k) for y in x.items))
        if isinstance(x, Disj):
            return Disj(tuple(red(y, k) for y in x.items))
        return Imp(red(x.left, k), red(x.right, k))

    if not ev(g, j):
        return False
    r = red(g, j)
    members = sorted(j)
    for size in range(len(members)):
        for subset in combinations(members, size):
            if ev(r, frozenset(subset)):
                return False
    return True


def test_criterion_7b_stable_implies_model():
    with _report("7b stable implies model (1000 cases)"):
        rng = Random(SEED + 1)
        atoms = [(f"a{i}", ()) for i in range(5)]
        cases = 0
        stable_seen = 0
        for _ in range(1000):
            f = random_ground_formula(rng, atoms, 3)
            j = frozenset(a for a in atoms if rng.random() < 0.5)
            stable = is_stable_ground(f, j)
            assert stable == _oracle_stable(f, j)
            if stable:
                stable_seen += 1
                assert satisfies(j, f)
                assert satisfies(j, reduct(f, j))
            cases += 1
        assert cases >= 1000
        assert stable_seen > 10, "generator produced too few stable pairs"


def test_criterion_7c_tight_on_supported_equivalence():
    with _report("7c stable iff supported when tight (1000+ cases)"):
        rng = Random(SEED + 2)
        atoms = [(f"a{i}", ()) for i in range(5)]
        qualifying = 0
        for _ in range(500):
            gp, gf = random_ground_program(rng, atoms, 8)
            for size in range(len(atoms) + 1):
                for chosen in combinations(atoms, size):
                    j = frozenset(chosen)
                    if not satisfies(j, gf):
                        continue
                    if not is_tight_on(gp, j):
                        continue
                    assert is_stable_ground(gf, j) == is_supported(gp, j)
                    qualifying += 1
            if qualifying >= 1000:
                break
        assert qualifying >= 1000


def test_criterion_7d_completion_supported_characterization():
    with _report("7d completion iff satisfied-and-supported (1000+ cases)"):
        names = ["prog1", "prog2", "prog4", "ex1", "example1", "example2"]
        cases = 0
        for name in names:
            prog = builtin_fixture(name).program
            comp = completion(prog).sentences()
            d = desugar(prog)
            for m in (1, 2):
                for interp in enumerate_interpretations(prog.signature, m):
                    gp, gf = ground_program(d, interp)
                    j = frozenset(true_atoms(interp))
                    lhs = all(satisfies_fo(interp, s) for s in comp)
                    rhs = satisfies(j, gf) and is_supported(gp, j)
                    assert lhs == rhs, (name, interp.literal())
                    cases += 1
        assert cases >= 1000


def test_criterion_8_moving_domain_sampled():
    with _report("8 moving-objects sampled agreement"):
        start = time.monotonic()
        report = check_proposition3(1, sample_count=1000, seed=SEED)
        assert report.verdict == "agree"
        assert report.checked >= 1009   # 1000 sampled + 9 directed
        assert time.monotonic() - start < 300.0


def test_criterion_9_moving_domain_chains_refuted():
    with _report("9 moving-objects chain refutation"):
        fx = builtin_fixture("moving(1)")
        verdict = check_gamma_tight(fx.program, fx.gamma, 3)
        assert verdict.status == ENTAILED
        assert verdict.n_used == 3
