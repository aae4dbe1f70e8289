"""Parser: grammar coverage, signature bookkeeping, error positions."""

import pytest

from lttight.parser import (
    MAX_NESTING, ParseError, parse_formula, parse_program, parse_sentences,
)
from lttight.syntax import (
    BOT, TOP, And, Atom, Equality, Exists, Forall, Implies, ObjectConstant,
    Or, Variable, flatten_and, formula_to_str, neg,
)


def test_program_shapes():
    prog = parse_program("p(a). q(X) :- p(X). :- q(b). {r(X)} :- q(X).")
    kinds = [r.kind for r in prog.rules]
    assert kinds == ["basic", "basic", "constraint", "choice"]
    assert prog.rules[0].body == TOP
    assert prog.predicates == (("p", 1), ("q", 1), ("r", 1))
    assert prog.constants == ("a", "b")
    assert prog.intensional == frozenset({"p", "q", "r"})


def test_extensional_directive():
    prog = parse_program("#extensional q/1. p(X) :- q(X).")
    assert prog.intensional == frozenset({"p"})
    assert ("q", 1) in prog.predicates


def test_connective_precedence():
    p, q, r, s = Atom("p"), Atom("q"), Atom("r"), Atom("s")
    assert parse_formula("p | q & r -> s") == Implies(Or(p, And(q, r)), s)
    assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse_formula("not p & q") == And(neg(p), q)
    assert parse_formula("p, q | r") == Or(And(p, q), r)


def test_iff_expansion():
    p, q = Atom("p"), Atom("q")
    assert parse_formula("p <-> q") == And(Implies(p, q), Implies(q, p))


def test_equality_forms():
    X = Variable("X")
    a = ObjectConstant("a")
    assert parse_formula("X = a") == Equality(X, a)
    assert parse_formula("a != X") == neg(Equality(a, X))
    assert parse_formula("true") == TOP
    assert parse_formula("false") == BOT


def test_quantifiers():
    X, Y = Variable("X"), Variable("Y")
    f = parse_formula("forall X (exists Y (p(X, Y)))")
    assert f == Forall(X, Exists(Y, Atom("p", (X, Y))))


def test_comments_and_whitespace():
    prog = parse_program("% a comment\np(a).  % trailing\n\nq(b).")
    assert len(prog.rules) == 2


def test_arity_mismatch_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program("p(a).\np(a, b).")
    assert "arity mismatch" in str(err.value)
    assert err.value.line == 2


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_program("p(a) $ q(b).")
    assert "unexpected character" in str(err.value)


def test_bare_variable_is_not_a_formula():
    with pytest.raises(ParseError):
        parse_formula("X")


def test_atoms_cannot_be_equated():
    with pytest.raises(ParseError):
        parse_formula("p(a) = q(b)")


def test_missing_period():
    with pytest.raises(ParseError):
        parse_program("p(a)")


def test_parse_sentences_rejects_free_variables():
    assert parse_sentences("a != b. forall X (p(X)).") == [
        parse_formula("a != b"), parse_formula("forall X (p(X))")]
    with pytest.raises(ParseError) as err:
        parse_sentences("p(X).")
    assert "free variables" in str(err.value)


def test_parse_formula_accepts_trailing_period():
    assert parse_formula("p(a).") == Atom("p", (ObjectConstant("a"),))
    with pytest.raises(ParseError):
        parse_formula("p(a). q(b)")


def test_zero_arity_predicates():
    prog = parse_program("win :- not lose. lose :- not win.")
    assert prog.predicates == (("lose", 0), ("win", 0))


# Each shape nests its argument one level deeper.
NESTING_SHAPES = ["({})", "not {}", "q -> {}", "forall X ({})", "exists Y (p | q & {})"]


def nested(shape: str, depth: int) -> str:
    text = "r"
    for _ in range(depth):
        text = shape.format(text)
    return text


@pytest.mark.parametrize("shape", NESTING_SHAPES)
def test_nesting_up_to_the_bound_parses_and_prints(shape):
    f = parse_formula(nested(shape, MAX_NESTING))
    assert parse_formula(formula_to_str(f)) == f


@pytest.mark.parametrize("shape", NESTING_SHAPES)
def test_nesting_past_the_bound_is_a_parse_error(shape):
    with pytest.raises(ParseError, match=f"nested more than {MAX_NESTING} levels"):
        parse_formula(nested(shape, MAX_NESTING + 1))


# Each shape puts its argument under one more <->.
IFF_SHAPES = ["{} <-> q", "q <-> ({})", "not ({} <-> q)",
              "forall X (p(X) <-> {})"]
# The deepest <-> nesting over single leaves that the copies bound
# admits: 757 copies at 8 levels, 1,524 at 9.
IFF_DEPTH = 8
IFF_COPIES = "'<->' expands to more than 1024 leaf copies"


@pytest.mark.parametrize("shape", IFF_SHAPES)
def test_iff_nesting_up_to_the_bound_parses_and_prints(shape):
    f = parse_formula(nested(shape, IFF_DEPTH))
    assert parse_formula(formula_to_str(f)) == f


# Where each shape is refused at depths 9 and 10: the line:col at which
# a bound on <-> nesting along one path refused it before.
IFF_REFUSED_AT = {"{} <-> q": ("1:51", "1:51"), "q <-> ({})": ("1:3", "1:10"),
                  "not ({} <-> q)": ("1:104", "1:109"),
                  "forall X (p(X) <-> {})": ("1:16", "1:35")}


@pytest.mark.parametrize("shape", IFF_SHAPES)
def test_iff_nesting_past_the_bound_is_a_parse_error(shape):
    for depth, where in zip((IFF_DEPTH + 1, IFF_DEPTH + 2),
                            IFF_REFUSED_AT[shape]):
        with pytest.raises(ParseError) as info:
            parse_formula(nested(shape, depth))
        assert str(info.value) == f"{where}: {IFF_COPIES}"


def test_iff_bound_counts_copies_not_iffs():
    """Many <-> side by side add few copies, and <-> nested inside both
    operands of one <-> parse while their copies stay within the bound."""
    side_by_side = " & ".join(["(p <-> q)"] * (2 * IFF_DEPTH))
    assert len(flatten_and(parse_formula(side_by_side))) == 4 * IFF_DEPTH
    both = "r"
    for _ in range(5):      # 31 <-> on paths 5 deep, 992 copies
        both = f"({both}) <-> ({both.replace('r', 'q')})"
    parse_formula(both)
    with pytest.raises(ParseError, match=IFF_COPIES):
        parse_formula(f"({both}) <-> (q <-> {both})")


# (parser, text, line, col, message start), recorded before the tokenizer
# became one pass over line-start offsets; each position must stay put.
ERROR_POSITIONS = [
    pytest.param(parse_program, ". p(a).", 1, 1, "expected predicate name",
                 id="first-token"),
    pytest.param(parse_program, "% one\n% two, with p(a).\np(a).\nq(X) :- .\n",
                 4, 9, "expected formula", id="after-comments"),
    pytest.param(parse_program, "p(a).   \n   \n\t \n  q(b) :- r(\n",
                 5, 1, "expected term", id="after-blank-lines"),
    pytest.param(parse_program, "p(a).\n\tq(X) :- r(X) & s(X.\n", 2, 20,
                 "expected )", id="tab-indented"),
    pytest.param(parse_program, "p(a).\n  q(b) :- r $ s.\n", 2, 13,
                 "unexpected character '$'", id="unexpected-character"),
    pytest.param(parse_program, "p(a) :- q(a),\n\n", 3, 1,
                 "expected formula, found ''", id="end-of-input"),
    pytest.param(parse_formula, "p(a) &\n   q(b) r", 2, 9,
                 "expected end of input", id="formula-trailing-token"),
    pytest.param(parse_sentences, "a != b.\n% c\n  forall X (p(X, Y)).\n",
                 3, 3, "sentence has free variables: Y", id="free-variable"),
]


@pytest.mark.parametrize("parse, text, line, col, message", ERROR_POSITIONS)
def test_parse_error_positions(parse, text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert err.value.message.startswith(message)
