"""Built-in programs: lookup, the moving-objects generator, and the
associated formula sets."""

import pytest

import lttight.fixtures as fixtures
from lttight.cli import run
from lttight.equiv import check_proposition3
from lttight.fixtures import (
    MAX_STEP_BOUND, builtin_fixture, fixture_names,
    moving_constraint_formulas, moving_program_text,
    moving_successor_state_formulas,
)


def test_fixture_names():
    names = fixture_names()
    assert "prog1" in names and "example3" in names


def test_moving_aliases():
    a = builtin_fixture("moving(1)")
    b = builtin_fixture("M(1)")
    assert a.program == b.program
    assert a.name == "moving(1)"


def test_unknown_fixture():
    with pytest.raises(KeyError):
        builtin_fixture("nonesuch")
    # a negative bound does not match the moving(k) pattern
    with pytest.raises(KeyError):
        builtin_fixture("moving(-1)")


def test_moving_signature():
    prog = builtin_fixture("moving(2)").program
    assert set(prog.constants) == {"s0", "s1", "s2"}
    assert prog.intensional == frozenset({"step", "next", "at"})
    assert dict(prog.predicates) == {
        "object": 1, "place": 1, "move": 3, "step": 1, "next": 2, "at": 3}


def test_moving_rule_counts():
    # k+1 step facts, k next facts, C(k+1,2) unique-name constraints,
    # 4 other constraints, 1 effect rule, 2 choice rules
    for k in (0, 1, 3):
        prog = builtin_fixture(f"moving({k})").program
        expected = (k + 1) + k + (k + 1) * k // 2 + 4 + 1 + 2
        assert len(prog.rules) == expected


def test_moving_formula_counts():
    assert len(moving_constraint_formulas(1)) == 5   # 1 unique-name + 4
    assert len(moving_successor_state_formulas(1)) == 3
    assert len(moving_successor_state_formulas(0)) == 2
    assert len(moving_successor_state_formulas(3)) == 5


def test_moving_text_is_reparseable():
    text = moving_program_text(2)
    assert "#extensional move/3." in text
    assert "{at(X, Y, s0)} :- object(X), place(Y)." in text


@pytest.fixture
def formula_parses(monkeypatch):
    """Count the formulas the fixtures module parses."""
    parsed = []
    parse = fixtures.parse_formula

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(fixtures, "parse_formula", counting_parse)
    return parsed


def test_gamma_is_parsed_when_read(formula_parses):
    fixture = builtin_fixture("moving(1)")
    assert formula_parses == []
    gamma = fixture.gamma
    assert fixture.gamma is gamma
    assert len(formula_parses) == len(gamma) == 5
    assert gamma == tuple(moving_constraint_formulas(1))


def test_commands_that_ignore_gamma_never_parse_it(tmp_path, capsys,
                                                   formula_parses):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("a != b.\n")
    interp = tmp_path / "i.txt"
    interp.write_text("universe=1; s0=e0; s1=e0\n")
    for argv in (["tight", "fixture:moving(1)"],
                 ["complete", "fixture:moving(1)"],
                 ["chains", "fixture:moving(1)", "--n", "1"],
                 ["stable", "fixture:moving(1)", "--interp", str(interp)],
                 ["check-gamma-tight", "fixture:example3", "--n", "1",
                  "--gamma", str(gamma)]):
        run(argv)
    assert formula_parses == []
    run(["check-gamma-tight", "fixture:example3", "--n", "1"])
    assert formula_parses == ["a != b"]
    capsys.readouterr()


def test_check_prop3_parses_each_formula_once(formula_parses):
    check_proposition3(1, sample_count=0)
    assert len(formula_parses) == len(set(formula_parses)) == 8


def test_step_bound_is_limited():
    for build in (lambda k: builtin_fixture(f"moving({k})"),
                  lambda k: check_proposition3(k, sample_count=0)):
        with pytest.raises(ValueError, match="exceeds the limit"):
            build(MAX_STEP_BOUND + 1)
