"""Stable-models-vs-completion comparison and the moving-objects
characterization check."""

from collections import Counter
from random import Random

import pytest

from lttight import cli, equiv, semantics
from lttight.cli import run
from lttight.completion import completion, desugar, simplify_completion
from lttight.equiv import (
    COMP_ONLY, SM_ONLY, EquivReport, check_equivalence, check_proposition3,
    successor_state_interpretations,
)
from lttight.evaluation import compile_rules
from lttight.fixtures import builtin_fixture
from lttight.parser import parse_formula, parse_program
from lttight.semantics import (
    ResourceGuardError, compile_sentence, enumerate_interpretations,
    interpretation_count, is_sm_model, make_interpretation, orbit_size,
    parse_interpretation, sm_tables,
)
from lttight.syntax import (
    BASIC, CONSTRAINT, Signature, conjoin, existential_closure, formula_to_str,
)
from lttight.tightness import (
    COUNTERMODEL, ENTAILED, UNKNOWN, chain_formula, chains,
    check_gamma_tight, refute_chain_formula, refuter_tables,
)

from conftest import rule_check
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
    tables = sm_tables(builtin_fixture("moving(1)").program)
    bindings = rule_check(tables)
    outcomes = {is_sm_model(tables, i, bindings(i))
                for i in successor_state_interpretations(1)}
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


def test_stable_model_tables_are_built_once_per_check(
        tmp_path, monkeypatch, capsys):
    """``sm_tables`` compiles nothing.  Exhaustive and sampled
    check-equiv, check-prop3 and the stable command each compile every
    desugared rule exactly once, not once per interpretation:
    check-equiv by depth into its cuts, the others into one check of the
    whole program, constraints first, which stable compiles only once
    its grounding guard has passed.  Exhaustive check-equiv runs no rule
    check on a whole interpretation: its leaves fold the bindings the
    cuts recorded, and with no Gamma it compiles no sentence in
    ``semantics``, where the cuts are built."""
    compiled, checked, sentences = [], [], []

    def counting(caller):
        def compile_counted(rules):
            compiled.append((caller, list(rules)))
            check = compile_rules(rules)

            def recording(interp):
                checked.append(interp)
                return check(interp)
            return recording
        return compile_counted

    def whole(caller, prog) -> list:
        d = desugar(prog).rules
        return [(caller, [r for r in d if r.kind == CONSTRAINT]
                 + [r for r in d if r.kind == BASIC])]

    def each_once_in_cuts(prog) -> bool:
        return (all(caller == "cuts" for caller, _ in compiled)
                and Counter(r for _, rules in compiled for r in rules)
                == Counter(desugar(prog).rules))

    leaves = []
    walk = equiv.enumerate_interpretations

    def recording_walk(*args, **kwargs):
        for interp in walk(*args, **kwargs):
            leaves.append(interp)
            yield interp

    monkeypatch.setattr(semantics, "compile_rules", counting("cuts"))
    for name in ("prog2", "ex1", "moving(1)"):
        sm_tables(builtin_fixture(name).program)
    assert compiled == []
    monkeypatch.setattr(equiv, "compile_rules", counting("check-prop3"))
    monkeypatch.setattr(cli, "compile_rules", counting("stable"))
    monkeypatch.setattr(semantics, "compile_sentence",
                        lambda f, original=compile_sentence:
                        sentences.append(f) or original(f))
    monkeypatch.setattr(equiv, "enumerate_interpretations", recording_walk)
    for name, sample in (("prog2", None), ("ex1", None), ("prog2", 50)):
        prog = builtin_fixture(name).program
        compiled.clear()
        checked.clear()
        leaves.clear()
        report = check_equivalence(prog, (), 2 if name == "ex1" else 3,
                                   sample_count=sample)
        assert report.both_accept > 1 and each_once_in_cuts(prog)
        assert not sentences
        if sample is None:
            assert len(leaves) > 1 and checked
            whole_ids = {id(leaf) for leaf in leaves}
            assert not any(id(i) in whole_ids for i in checked)
    compiled.clear()
    assert check_proposition3(1, sample_count=20).both_accept > 1
    assert compiled == whole("check-prop3",
                             builtin_fixture("moving(1)").program)
    assert any(r.kind == CONSTRAINT for r in compiled[0][1])
    compiled.clear()
    interp = tmp_path / "i.txt"
    interp.write_text("universe=2; a=e0; b=e1; p={(e0),(e1)}; q={(e1)}\n")
    assert run(["stable", "fixture:prog1", "--interp", str(interp)]) == 0
    assert capsys.readouterr().out == "stable\n"
    assert compiled == whole("stable", builtin_fixture("prog1").program)
    compiled.clear()
    monkeypatch.setenv("LT_TIGHT_GUARD_CEILING", "1")
    assert run(["stable", "fixture:prog1", "--interp", str(interp)]) == 3
    assert compiled == []


# ---------------------------------------------------------------------------
# Plain enumeration as the oracle of the orbit-weighted exhaustive check
# and of the countermodel search

def reference_report(prog, gamma, m_max, decide=is_sm_model):
    """The exhaustive report by plain enumeration: Gamma, the stable-model
    check ``decide`` and the completion on every interpretation that
    ``enumerate_interpretations`` yields."""
    tables = sm_tables(prog)
    bindings = rule_check(tables)
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
                sm = decide(tables, interp, bindings(interp))
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
# (fixture, Gamma, m_max, witnesses); ex1 exceeds the ceiling at m = 3.
# The last two Gammas read the last predicate of the signature, so the
# exhaustive walk reads every rule only at its leaves.
ORACLE_CASES = (
    [(name, builtin_fixture(name).gamma, 3, 6 if name == "prog2" else 0)
     for name in SMALL_FIXTURES]
    + [("ex1", (), 2, 0), ("prog4", AB, 3, 0), ("example3", (), 3, 6),
       ("ex2", (parse_formula("exists X (s(X))"),), 3, 0),
       ("prog2", (parse_formula("exists X (q(X))"),), 3, 6)])


@pytest.mark.parametrize("name, gamma, m_max, witnesses", ORACLE_CASES)
def test_exhaustive_check_matches_plain_enumeration_on_fixtures(
        name, gamma, m_max, witnesses):
    assert assert_matches_reference(builtin_fixture(name).program, gamma,
                                    m_max) == witnesses


def random_gamma(rng: Random, prog) -> tuple:
    """No assumption, or one over the program's own signature: one of
    them over its last predicate, at the foot of the exhaustive walk."""
    choices = [()]
    if {"a", "b"} <= set(prog.constants):
        choices.append(AB)
    if ("p", 1) in prog.predicates:
        choices.append((parse_formula("exists X (p(X))"),))
    name, arity = prog.signature.predicates[-1]
    variables = ["X", "Y"][:arity]
    last = f"{name}({', '.join(variables)})" if variables else name
    for v in variables:
        last = f"exists {v} ({last})"
    choices.append((parse_formula(last),))
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
            def decide(tables, interp, bindings):
                return is_sm_model(tables, interp, bindings, cap=2)
        monkeypatch.setattr(equiv, "is_sm_model", decide)
        witnesses += assert_matches_reference(prog, gamma, 2, decide)
    assert witnesses > 50
    print(f"orbit-weighted check vs plain enumeration: {witnesses} witnesses")


def test_exhaustive_walk_yields_only_interpretations_no_cut_drops(
        monkeypatch):
    """The exhaustive walk builds whole only the interpretations that
    satisfy Gamma and the program read classically, in enumeration
    order: plain enumeration of the restricted-growth maps yields 4,368
    on ex2 at m <= 3 and 1,028 on prog4."""
    yielded = []
    walk = equiv.enumerate_interpretations

    def recording(*args, **kwargs):
        for interp in walk(*args, **kwargs):
            yielded.append(interp)
            yield interp

    monkeypatch.setattr(equiv, "enumerate_interpretations", recording)
    for name, count in (("ex2", 155), ("prog4", 234)):
        prog = builtin_fixture(name).program
        yielded.clear()
        check_equivalence(prog, (), 3)
        bindings = rule_check(sm_tables(prog))
        assert yielded == [
            i for m in (1, 2, 3)
            for i in enumerate_interpretations(prog.signature, m, canonical=True)
            if bindings(i) is not None]
        assert len(yielded) == count


def test_cut_bindings_stay_with_their_interpretation():
    """``depth_cuts`` pairs each interpretation the walk yields with the
    bindings the whole-program rule check gives it, also when every pair
    is drawn before the first is used."""
    for name in ("ex1", "prog4"):
        prog = builtin_fixture(name).program
        tables = sm_tables(prog)
        bindings = rule_check(tables)
        cuts, with_bindings = semantics.depth_cuts(
            prog.signature, (), Counter(), rules=tables[0])
        pairs = list(with_bindings(
            i for m in (1, 2)
            for i in enumerate_interpretations(prog.signature, m,
                                               canonical=True, cuts=cuts)))
        assert len({repr(b) for _, b in pairs}) > 1
        assert all(b == bindings(i) for i, b in pairs)


def test_exhaustive_walk_is_not_bounded_by_the_stack(monkeypatch):
    """The walk keeps its own stack: 1,500 zero-arity predicates, more
    than the default recursion limit, each dropped at its own depth when
    true, leave one leaf.  And a check over 300 of them, each ruled out
    by a constraint and the first by Gamma too, counts the rest
    exactly."""
    n = 1500
    monkeypatch.setenv("LT_TIGHT_GUARD_CEILING", str(2 ** n))
    sig = Signature(tuple((f"p{i:04}", 0) for i in range(n)), ())
    dropped = []

    def cut(name):
        def drop(interp, weight):
            if interp.extensions[name]:
                dropped.append(weight)
                return True
            return False
        return drop

    leaves = list(enumerate_interpretations(
        sig, 1, cuts=[None] + [cut(p) for p, _ in sig.predicates]))
    assert leaves == [make_interpretation(1, {}, dict.fromkeys(
        (p for p, _ in sig.predicates), ()))]
    # false first: the deepest subtree, of one interpretation, goes first
    assert dropped == [2 ** k for k in range(n)]
    n = 300
    prog = parse_program(" ".join(f":- p{i:04}." for i in range(n)))
    report = check_equivalence(prog, [parse_formula("not p0000")], 1)
    assert report.stats_line() == (
        f"stats: examined={2 ** n} gamma_skipped={2 ** (n - 1)} "
        f"guard_skipped=0 checked={2 ** (n - 1)} both_accept=1 "
        f"both_reject={2 ** (n - 1) - 1} disagree=0")
    assert report.verdict == "agree"


def test_walk_with_no_cut_at_its_last_depth(tmp_path, capsys):
    """Cuts at shallow depths only: the walk yields the plain canonical
    enumeration less what those cuts drop, in order, and calls each cut
    once per node of its depth with the weight of the interpretations
    below it, orbits counted.  On the command line: a countermodel
    search whose completion reads no z, so its last depth has no cut,
    and a program with no predicate, whose only depth is the root."""
    sig = Signature((("p", 1), ("q", 0), ("r", 1)), ("a", "b"))

    def drops(depth, consts, prefix) -> bool:
        return consts == (0, 1) if depth == 0 else (consts[0],) in prefix[0]

    def key(depth, interp) -> tuple:
        return (depth, (interp.consts["a"], interp.consts["b"]),
                tuple(interp.extensions[p] for p, _ in sig.predicates[:depth]))

    for m in (1, 2, 3):
        calls = []

        def cut(depth):
            def call(interp, weight):
                calls.append((key(depth, interp), weight))
                return drops(*key(depth, interp))
            return call

        walked = list(enumerate_interpretations(
            sig, m, canonical=True, cuts=[cut(0), cut(1), None, None]))
        expected, expected_calls, seen = [], [], set()
        for interp in enumerate_interpretations(sig, m, canonical=True):
            for depth in (0, 1):
                node = key(depth, interp)
                if node not in seen:
                    seen.add(node)
                    below = Signature(sig.predicates[depth:], ())
                    expected_calls.append((node, orbit_size(interp)
                                           * interpretation_count(below, m)))
                if drops(*node):
                    break
            else:
                expected.append(interp)
        assert walked == expected and calls == expected_calls
        assert 0 < len(walked) < sum(1 for _ in enumerate_interpretations(
            sig, m, canonical=True))
    nocut = tmp_path / "nocut.lp"
    nocut.write_text("#extensional z/1. p(X) :- q(X). q(a) :- p(b).\n")
    assert run(["check-gamma-tight", str(nocut), "--n", "1", "--bound", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        "universe=1; a=e0; b=e0; p={(e0)}; q={(e0)}; z={}")
    nopred = tmp_path / "nopred.lp"
    nopred.write_text(":- a = b.\n")
    assert run(["check-equiv", str(nopred), "--m-max", "3", "--stats"]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == (
        "stats: examined=14 gamma_skipped=0 guard_skipped=0 checked=14 "
        "both_accept=8 both_reject=6 disagree=0")


def test_exhaustive_check_weights_guard_skips(monkeypatch):
    def decide(tables, interp, bindings):
        return is_sm_model(tables, interp, bindings, cap=2)
    monkeypatch.setattr(equiv, "is_sm_model", decide)
    report = check_equivalence(builtin_fixture("prog2").program, (), 3)
    assert report.guard_skipped > 0
    assert_matches_reference(builtin_fixture("prog2").program, (), 3, decide)


def reference_gamma_tight(prog, gamma, n, bound):
    """The countermodel search by plain enumeration: the status, the
    first countermodel and its chain."""
    comp = completion(prog)
    tables = refuter_tables(gamma, simplify_completion(comp))
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
