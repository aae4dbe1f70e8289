"""Stable-models-vs-completion comparison and the moving-objects
characterization check."""

from collections import Counter
from random import Random

import pytest

from lttight import equiv
from lttight.completion import completion, desugar
from lttight.equiv import (
    COMP_ONLY, SM_ONLY, EquivReport, check_equivalence, check_proposition3,
    successor_state_interpretations,
)
from lttight.fixtures import builtin_fixture
from lttight.parser import parse_formula, parse_program
from lttight.semantics import (
    ResourceGuardError, compile_sentence, enumerate_interpretations,
    interpretation_count, is_sm_model, parse_interpretation,
)
from lttight.syntax import conjoin, existential_closure, formula_to_str
from lttight.tightness import (
    COUNTERMODEL, ENTAILED, UNKNOWN, chain_formula, chains,
    check_gamma_tight, refute_chain_formula, refuter_tables,
)

from test_properties import SEED, SMALL_FIXTURES, random_program_text


def test_report_render_format():
    report = check_equivalence(builtin_fixture("prog2").program, (), 1,
                               program_id="prog2")
    lines = report.render().splitlines()
    assert lines[0] == "program=prog2"
    assert lines[1] == "gamma=(empty)"
    assert lines[2] == "mode=exhaustive m<=1"
    assert lines[3] == ("DISAGREE comp_only "
                        "universe=1; a=e0; b=e0; p={(e0)}; q={(e0)}")
    assert lines[4] == "VERDICT disagree count=1"


def test_exhaustive_checked_counts():
    report = check_equivalence(builtin_fixture("prog1").program, (), 2)
    assert report.checked == 68   # 4 at m=1 plus 64 at m=2
    assert report.verdict == "agree"


def test_report_counts_every_examined_interpretation():
    prog = builtin_fixture("prog2").program
    report = check_equivalence(prog, (), 4)
    assert report.examined == sum(interpretation_count(prog.signature, m)
                                  for m in range(1, 5))
    assert report.gamma_skipped == report.guard_skipped == 0
    assert (report.both_accept + report.both_reject
            + len(report.disagreements)) == report.checked == report.examined
    assert report.both_accept > 0 and len(report.disagreements) == 10
    gamma = [parse_formula("a != b")]
    report = check_equivalence(prog, gamma, 2)
    assert (report.examined, report.gamma_skipped, report.checked) == (68, 36, 32)


def test_gamma_filters_interpretations():
    prog = builtin_fixture("prog2").program
    gamma = [parse_formula("a != b")]
    report = check_equivalence(prog, gamma, 2)
    # a != b rules out every m=1 interpretation and half of m=2
    assert report.checked == 32
    assert report.verdict == "agree"
    assert "a != b" in report.gamma_desc


def test_sampled_mode_is_reproducible():
    prog = builtin_fixture("prog1").program
    one = check_equivalence(prog, (), 2, sample_count=200, seed=5)
    two = check_equivalence(prog, (), 2, sample_count=200, seed=5)
    assert one == two
    assert one.verdict == "agree"
    assert "seed=5" in one.mode_desc


def test_argument_validation():
    prog = builtin_fixture("prog1").program
    with pytest.raises(ValueError):
        check_equivalence(prog, (), 0)
    with pytest.raises(ValueError):
        check_proposition3(-1)
    with pytest.raises(ValueError):
        successor_state_interpretations(2)


def test_directed_interpretations_cover_both_outcomes():
    from lttight.semantics import is_sm_model
    prog = builtin_fixture("moving(1)").program
    outcomes = {is_sm_model(prog, i) for i in successor_state_interpretations(1)}
    assert outcomes == {True, False}


def test_proposition3_directed_only():
    report = check_proposition3(1, sample_count=0)
    assert report.verdict == "agree"
    assert report.checked == 9
    assert report.mode_desc == "sampled(seed=0, count=0) m in [2, 3] + 9 directed"


def test_extensional_head_is_completed():
    """A rule whose head is extensional is the if-half of that head's
    completed definition, so a classical non-model of it is no
    comp_only witness."""
    prog = parse_program("#extensional e/0. e :- f. f.")
    report = check_equivalence(prog, (), 2)
    assert report.render().splitlines()[-1] == "VERDICT agree count=0"
    assert report.stats_line() == (
        "stats: examined=8 gamma_skipped=0 guard_skipped=0 checked=8 "
        "both_accept=2 both_reject=6 disagree=0")


def test_proposition3_small_sample():
    report = check_proposition3(1, sample_count=50, seed=11)
    assert report.verdict == "agree"
    assert report.checked == 59


def test_proposition3_k0():
    """At step bound 0 there are no transitions; the characterization
    still has to agree (next is empty, at is unconstrained by successor
    formulas but still typed)."""
    report = check_proposition3(0, sample_count=100, seed=3)
    assert report.verdict == "agree"


# ---------------------------------------------------------------------------
# Plain enumeration as the oracle of the orbit-weighted exhaustive check
# and of the countermodel search

def reference_report(prog, gamma, m_max, decide=is_sm_model):
    """The exhaustive report by plain enumeration: Gamma, the stable-model
    check ``decide`` and the completion on every interpretation that
    ``enumerate_interpretations`` yields."""
    d = desugar(prog)
    gamma_holds = compile_sentence(conjoin(list(gamma)))
    comp_holds = compile_sentence(conjoin(completion(prog).sentences()))
    counts = Counter()
    disagreements = []
    for m in range(1, m_max + 1):
        for interp in enumerate_interpretations(prog.signature, m):
            if not gamma_holds(interp):
                counts["gamma"] += 1
                continue
            try:
                sm = decide(d, interp)
            except ResourceGuardError:
                counts["guard"] += 1
                continue
            if sm != comp_holds(interp):
                disagreements.append((SM_ONLY if sm else COMP_ONLY, interp))
            else:
                counts[sm] += 1
    gamma_desc = "; ".join(formula_to_str(g) for g in gamma) or "(empty)"
    return EquivReport("p", gamma_desc, f"exhaustive m<={m_max}",
                       counts[True] + counts[False] + len(disagreements),
                       tuple(disagreements), counts["guard"], counts["gamma"],
                       counts[True], counts[False])


def _outcome(run):
    try:
        return run()
    except ResourceGuardError as exc:
        return f"ResourceGuardError: {exc}"


def assert_matches_reference(prog, gamma, m_max, decide=is_sm_model) -> int:
    """check_equivalence against ``reference_report``: the same report
    text, --stats line and witness values; the number of witnesses."""
    new = _outcome(lambda: check_equivalence(prog, gamma, m_max,
                                             program_id="p"))
    ref = _outcome(lambda: reference_report(prog, gamma, m_max, decide))
    if isinstance(ref, str):
        assert new == ref
        return 0
    assert new.render() == ref.render()
    assert new.stats_line() == ref.stats_line()
    assert new.disagreements == ref.disagreements
    for _, witness in new.disagreements:
        assert witness == parse_interpretation(witness.literal())
    return len(new.disagreements)


AB = (parse_formula("a != b"),)
# (fixture, Gamma, m_max, witnesses); ex1 exceeds the ceiling at m = 3
ORACLE_CASES = (
    [(name, builtin_fixture(name).gamma, 3, 6 if name == "prog2" else 0)
     for name in SMALL_FIXTURES]
    + [("ex1", (), 2, 0), ("prog4", AB, 3, 0), ("example3", (), 3, 6)])


@pytest.mark.parametrize("name, gamma, m_max, witnesses", ORACLE_CASES)
def test_exhaustive_check_matches_plain_enumeration_on_fixtures(
        name, gamma, m_max, witnesses):
    assert assert_matches_reference(builtin_fixture(name).program, gamma,
                                    m_max) == witnesses


def random_gamma(rng: Random, prog) -> tuple:
    """No assumption, or one over the program's own signature."""
    choices = [()]
    if {"a", "b"} <= set(prog.constants):
        choices.append(AB)
    if ("p", 1) in prog.predicates:
        choices.append((parse_formula("exists X (p(X))"),))
    return rng.choice(choices)


def test_exhaustive_check_matches_plain_enumeration_on_random_programs(
        monkeypatch):
    """Seeded random programs at m <= 2, some under Gamma, and a third
    with a stability cap of 2, so that guard-skipped counts are weighted
    too."""
    rng = Random(SEED + 10)
    witnesses = 0
    for i in range(100):
        prog = parse_program(random_program_text(rng))
        gamma = random_gamma(rng, prog)
        decide = is_sm_model
        if i % 3 == 0:
            def decide(d, interp):
                return is_sm_model(d, interp, cap=2)
        monkeypatch.setattr(equiv, "is_sm_model", decide)
        witnesses += assert_matches_reference(prog, gamma, 2, decide)
    assert witnesses > 50
    print(f"orbit-weighted check vs plain enumeration: {witnesses} witnesses")


def test_exhaustive_check_weights_guard_skips(monkeypatch):
    def decide(d, interp):
        return is_sm_model(d, interp, cap=2)
    monkeypatch.setattr(equiv, "is_sm_model", decide)
    report = check_equivalence(builtin_fixture("prog2").program, (), 3)
    assert report.guard_skipped > 0
    assert_matches_reference(builtin_fixture("prog2").program, (), 3, decide)


def reference_gamma_tight(prog, gamma, n, bound):
    """The countermodel search by plain enumeration: the status, the
    first countermodel and its chain."""
    comp = completion(prog)
    tables = refuter_tables(gamma, comp)
    open_chains = []
    for c in chains(prog, n):
        fc = chain_formula(c)
        if not refute_chain_formula(fc, tables):
            open_chains.append((c, compile_sentence(existential_closure(fc))))
    if not open_chains:
        return ENTAILED, None, None
    targets = compile_sentence(conjoin(list(gamma) + comp.sentences()))
    for m in range(1, bound + 1):
        for interp in enumerate_interpretations(prog.signature, m):
            if targets(interp):
                for c, holds in open_chains:
                    if holds(interp):
                        return COUNTERMODEL, interp, c
    return UNKNOWN, None, None


def assert_search_matches_reference(prog, gamma, n, bound) -> str:
    def new():
        v = check_gamma_tight(prog, gamma, n, bound)
        return v.status, v.interpretation, v.chain
    outcome = _outcome(new)
    assert outcome == _outcome(
        lambda: reference_gamma_tight(prog, gamma, n, bound))
    return outcome[0]


def test_countermodel_search_matches_plain_enumeration():
    statuses = Counter()
    for name in SMALL_FIXTURES:
        fixture = builtin_fixture(name)
        for n in (1, 2):
            for bound in (1, 2, 3):
                statuses[assert_search_matches_reference(
                    fixture.program, fixture.gamma, n, bound)] += 1
    rng = Random(SEED + 11)
    for _ in range(100):
        prog = parse_program(random_program_text(rng))
        gamma = random_gamma(rng, prog)
        statuses[assert_search_matches_reference(prog, gamma, 1, 2)] += 1
    assert statuses[COUNTERMODEL] > 20 and statuses[UNKNOWN] > 0
    print(f"countermodel search vs plain enumeration: {dict(statuses)}")
