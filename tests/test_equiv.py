"""Stable-models-vs-completion comparison and the moving-objects
characterization check."""

import pytest

from lttight.equiv import (
    EquivReport, check_equivalence, check_proposition3,
    successor_state_interpretations,
)
from lttight.fixtures import builtin_fixture
from lttight.parser import parse_formula
from lttight.semantics import interpretation_count


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
    one = check_equivalence(prog, (), 2, mode="sampled", sample_count=200, seed=5)
    two = check_equivalence(prog, (), 2, mode="sampled", sample_count=200, seed=5)
    assert one == two
    assert one.verdict == "agree"
    assert "seed=5" in one.mode_desc


def test_argument_validation():
    prog = builtin_fixture("prog1").program
    with pytest.raises(ValueError):
        check_equivalence(prog, (), 0)
    with pytest.raises(ValueError):
        check_equivalence(prog, (), 1, mode="nope")
    with pytest.raises(ValueError):
        check_proposition3(-1)
    with pytest.raises(ValueError):
        check_proposition3(1, mode="nope")
    with pytest.raises(ValueError):
        successor_state_interpretations(2)


def test_directed_interpretations_cover_both_outcomes():
    from lttight.semantics import is_sm_model
    prog = builtin_fixture("moving(1)").program
    outcomes = {is_sm_model(prog, i) for i in successor_state_interpretations(1)}
    assert outcomes == {True, False}


def test_proposition3_directed_only():
    report = check_proposition3(1, mode="directed")
    assert report.verdict == "agree"
    assert report.checked == 9
    assert report.mode_desc == "9 directed"


def test_proposition3_small_sample():
    report = check_proposition3(1, sample_count=50, seed=11)
    assert report.verdict == "agree"
    assert report.checked == 59


def test_proposition3_k0():
    """At step bound 0 there are no transitions; the characterization
    still has to agree (next is empty, at is unconstrained by successor
    formulas but still typed)."""
    report = check_proposition3(0, sample_count=100, seed=3, directed=[])
    assert report.verdict == "agree"
