"""Command-line interface: outputs and exit codes.

Exit code contract: 0 success/agree, 1 disagreement or countermodel,
2 usage or input error, 3 resource guard."""

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lttight
import lttight.cli as cli
import lttight.tightness as tightness
from lttight.cli import GROUND_BINDING_LIMIT, run
from lttight.completion import desugar
from lttight.fixtures import MAX_STEP_BOUND
from lttight.parser import parse_program
from lttight.syntax import pretty_print

from test_parser import IFF_COPIES


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_echo_round_trips(capsys):
    code, out, _ = invoke(capsys, "parse", "fixture:prog1")
    assert code == 0
    prog = parse_program(out)
    assert pretty_print(prog) == out.strip()


def test_parse_from_file(tmp_path, capsys):
    path = tmp_path / "prog.lp"
    path.write_text("p(a). q(X) :- p(X).\n")
    code, out, _ = invoke(capsys, "parse", str(path))
    assert code == 0
    assert "q(X) :- p(X)." in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, "parse", "/no/such/file.lp")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("argv", [
    ("parse", "{path}"),
    ("check-gamma-tight", "fixture:prog2", "--n", "1", "--gamma", "{path}"),
    ("stable", "fixture:prog1", "--interp", "{path}"),
], ids=["program", "gamma", "interp"])
def test_file_that_is_not_utf8_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"p(a).\xff\n")
    code, out, err = invoke(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec ")
    assert err.count("\n") == 1


def test_moving_step_bound_is_usage_error(capsys):
    code, out, _ = invoke(capsys, "tight", f"fixture:moving({MAX_STEP_BOUND})")
    assert (code, out) == (1, "not tight\n")
    too_large = MAX_STEP_BOUND + 1
    code, out, err = invoke(capsys, "tight", f"fixture:moving({too_large})")
    assert (code, out, err) == (
        2, "", f"error: step bound {too_large} exceeds the limit of "
               f"{MAX_STEP_BOUND}\n")
    code, out, err = invoke(capsys, "check-prop3", "--k", str(too_large))
    assert (code, out, err) == (
        2, "", f"error: --k must be at most {MAX_STEP_BOUND}\n")
    # more digits than int() converts, after leading zeros
    long_k = "9" * 5000
    code, out, err = invoke(capsys, "tight", f"fixture:moving(00{long_k})")
    assert (code, out, err) == (
        2, "", f"error: step bound {long_k} exceeds the limit of "
               f"{MAX_STEP_BOUND}\n")


def test_unknown_fixture_is_usage_error(capsys):
    code, _, err = invoke(capsys, "tight", "fixture:nonesuch")
    assert code == 2
    assert "unknown fixture" in err


def test_parse_error_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.lp"
    path.write_text("p(a. q(b).\n")
    code, _, err = invoke(capsys, "parse", str(path))
    assert code == 2
    assert "parse error" in err


def test_tight_exit_codes(capsys):
    code, out, _ = invoke(capsys, "tight", "fixture:prog1")
    assert (code, out.strip()) == (0, "tight")
    code, out, _ = invoke(capsys, "tight", "fixture:prog2")
    assert (code, out.strip()) == (1, "not tight")


def test_complete_simplified_output(capsys):
    code, out, _ = invoke(capsys, "complete", "fixture:prog4", "--simplify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("p: forall X1 ((p(X1) -> X1 = a & p(b))"
                        " & (X1 = a & p(b) -> p(X1)))")
    assert lines[2] == "constraint: a != b"
    assert lines[3] == "constraint: c != d"


def test_graph_dot_output(capsys):
    code, out, _ = invoke(capsys, "graph", "fixture:ex2")
    assert code == 0
    assert out.startswith("digraph {")
    assert '"p" -> "q";' in out and '"r" -> "s";' in out


def test_chains_and_chain_formulas(capsys):
    code, out, _ = invoke(capsys, "chains", "fixture:ex1", "--n", "1")
    assert code == 0
    assert out.startswith("chain 0:")
    assert "--[p(Y_1, X_1)]-->" in out
    code, out, _ = invoke(capsys, "chain-formulas", "fixture:example2", "--n", "1")
    assert code == 0
    assert out.splitlines() == ["b = a & p(b) & p(b)", "d = c & q(d) & q(d)"]


def test_check_gamma_tight_entailed(capsys):
    code, out, _ = invoke(capsys, "check-gamma-tight", "fixture:example1",
                          "--n", "1")
    assert (code, out.strip()) == (0, "entailed (syntactic)")


def test_check_gamma_tight_countermodel(capsys):
    code, out, _ = invoke(capsys, "check-gamma-tight", "fixture:prog2",
                          "--n", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "countermodel"
    assert lines[1] == "universe=1; a=e0; b=e0; p={(e0)}; q={(e0)}"


def test_check_gamma_tight_gamma_file(tmp_path, capsys):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("a != b.\n")
    code, out, _ = invoke(capsys, "check-gamma-tight", "fixture:prog2",
                          "--n", "1", "--gamma", str(gamma))
    assert (code, out.strip()) == (0, "entailed (syntactic)")


@pytest.mark.parametrize("sentences, message", [
    ("a != z.", "gamma names constant z, which the program does not have"),
    ("b != z & a != y.", "gamma names constant y, which the program does not have"),
    ("exists X (zz(X)).", "gamma names predicate zz, which the program does not have"),
    ("exists X (p(X, X)).", "gamma uses p/2, but the program has p/1"),
], ids=["constant", "first-constant", "predicate", "arity"])
def test_gamma_outside_the_program_is_usage_error(tmp_path, capsys, sentences,
                                                  message):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text(sentences + "\n")
    for argv in (("check-equiv", "fixture:prog2", "--m-max", "1"),
                 ("check-gamma-tight", "fixture:prog2", "--n", "1"),
                 ("export-tptp", "fixture:prog2", "--n", "1")):
        code, out, err = invoke(capsys, *argv, "--gamma", str(gamma))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_export_tptp_refuses_gamma_outside_the_program(tmp_path, capsys):
    # q(a, b) beside the completion's q(X1) would use q at two arities in
    # one FOF problem
    path = tmp_path / "loop.lp"
    path.write_text("p(X) :- q(X). q(X) :- p(X).\n")
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("q(a, b).\n")
    code, out, err = invoke(capsys, "export-tptp", str(path), "--n", "1",
                            "--gamma", str(gamma))
    assert (code, out) == (2, "")
    assert err == "error: gamma names constant a, which the program does not have\n"


def test_tight_long_acyclic_chain(tmp_path, capsys):
    path = tmp_path / "chain.lp"
    path.write_text("".join(f"p{i}(X) :- p{i + 1}(X).\n" for i in range(1200)))
    code, out, _ = invoke(capsys, "tight", str(path))
    assert (code, out) == (0, "tight\n")


def test_check_gamma_tight_long_gamma_sentence(tmp_path, capsys):
    path = tmp_path / "gamma.txt"
    path.write_text(" & ".join(["a != b"] * 1199 + ["c != d"]) + ".\n")
    code, out, _ = invoke(capsys, "check-gamma-tight", "fixture:example2",
                          "--n", "1", "--gamma", str(path))
    assert (code, out) == (0, "entailed (syntactic)\n")


def test_check_gamma_tight_rejects_bad_n(capsys):
    code, _, err = invoke(capsys, "check-gamma-tight", "fixture:prog1", "--n", "0")
    assert code == 2
    assert "--n" in err


@pytest.mark.parametrize("argv, message", [
    (("check-gamma-tight", "fixture:prog2", "--n", "1", "--bound", "0"),
     "error: --bound must be at least 1"),
    (("check-gamma-tight", "fixture:prog2", "--n", "1", "--bound", "-2"),
     "error: --bound must be at least 1"),
    (("check-equiv", "fixture:prog1", "--m-max", "1", "--sample", "-3"),
     "error: --sample must be nonnegative"),
    (("check-prop3", "--k", "1", "--sample", "-1"),
     "error: --sample must be nonnegative"),
], ids=["bound-0", "bound-negative", "equiv-sample", "prop3-sample"])
def test_out_of_range_option_is_usage_error(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", message + "\n")


def test_malformed_interp_is_usage_error(tmp_path, capsys):
    # a bare element where a tuple belongs was read as an empty extension
    path = tmp_path / "prog.lp"
    path.write_text("s(X) :- r(X). {r(X)} :- X = X.\n")
    interp = tmp_path / "i.txt"
    interp.write_text("universe=1; s={e0}\n")
    code, out, err = invoke(capsys, "stable", str(path), "--interp", str(interp))
    assert (code, out, err) == (2, "", "error: bad extension for s\n")
    # universe sizes int() would refuse with its own text
    for size in ("x", "9" * 5000):
        interp.write_text(f"universe={size}; r={{}}; s={{}}\n")
        code, out, err = invoke(capsys, "stable", str(path),
                                "--interp", str(interp))
        assert (code, out, err) == (
            2, "", "error: universe size must be a decimal integer of at "
                   "most 100 digits\n")
    # an element index too long for the universe is outside it
    interp.write_text(f"universe=2; r={{(e{'1' * 5000})}}; s={{}}\n")
    code, out, err = invoke(capsys, "stable", str(path), "--interp", str(interp))
    assert (code, out, err) == (
        2, "", f"error: element 'e{'1' * 5000}' outside universe of size 2\n")


def test_ground_and_stable(tmp_path, capsys):
    interp = tmp_path / "i.txt"
    interp.write_text("universe=2; a=e0; b=e1; p={(e0),(e1)}; q={(e1)}\n")
    code, out, _ = invoke(capsys, "ground", "fixture:prog1",
                          "--interp", str(interp))
    assert code == 0
    assert "p(e0)" in out and "->" in out
    code, out, _ = invoke(capsys, "stable", "fixture:prog1",
                          "--interp", str(interp))
    assert (code, out.strip()) == (0, "stable")
    interp.write_text("universe=2; a=e0; b=e1; p={}; q={(e1)}\n")
    code, out, _ = invoke(capsys, "stable", "fixture:prog1",
                          "--interp", str(interp))
    assert (code, out.strip()) == (1, "not stable")


@pytest.mark.parametrize("program, literal", [
    ("q(a).", "universe=1; a=e0; q={(e0),(e0)}"),
    ("p.", "universe=1; p={(),()}"),
], ids=["q(a)", "p"])
def test_stable_with_a_duplicated_tuple(tmp_path, capsys, program, literal):
    # a tuple listed twice is one atom
    path = tmp_path / "prog.lp"
    path.write_text(program + "\n")
    interp = tmp_path / "i.txt"
    interp.write_text(literal + "\n")
    code, out, err = invoke(capsys, "stable", str(path), "--interp", str(interp))
    assert (code, out, err) == (0, "stable\n", "")


def test_stable_with_a_constant_named_like_a_predicate(tmp_path, capsys):
    path = tmp_path / "prog.lp"
    path.write_text("p(p).\n")
    interp = tmp_path / "i.txt"
    interp.write_text("universe=1; p=e0; p={(e0)}\n")
    code, out, err = invoke(capsys, "stable", str(path), "--interp", str(interp))
    assert (code, out, err) == (0, "stable\n", "")


def test_interp_with_unmapped_constant_is_usage_error(tmp_path, capsys):
    interp = tmp_path / "i.txt"
    interp.write_text("universe=2; a=e0; p={(e0)}; q={}\n")
    for command in ("stable", "ground"):
        code, out, err = invoke(capsys, command, "fixture:prog1",
                                "--interp", str(interp))
        assert (code, out) == (2, "")
        assert err == "error: interpretation leaves constant b unmapped\n"


def test_interp_with_wrong_arity_is_usage_error(tmp_path, capsys):
    interp = tmp_path / "i.txt"
    interp.write_text("universe=2; a=e0; b=e1; p={(e0,e1)}; q={}\n")
    for command in ("stable", "ground"):
        code, out, err = invoke(capsys, command, "fixture:prog1",
                                "--interp", str(interp))
        assert (code, out) == (2, "")
        assert err == "error: interpretation gives p/1 a tuple of length 2\n"


def test_interp_with_unknown_predicate_is_usage_error(tmp_path, capsys):
    # zz's atoms would join J and turn a stable model into "not stable"
    path = tmp_path / "prog.lp"
    path.write_text("s(X) :- r(X). {r(X)} :- X = X.\n")
    interp = tmp_path / "i.txt"
    interp.write_text("universe=1; r={}; s={}\n")
    code, out, err = invoke(capsys, "stable", str(path), "--interp", str(interp))
    assert (code, out, err) == (0, "stable\n", "")
    interp.write_text("universe=1; r={}; s={}; zz={(e0)}\n")
    for command in ("stable", "ground"):
        code, out, err = invoke(capsys, command, str(path),
                                "--interp", str(interp))
        assert (code, out) == (2, "")
        assert err == ("error: interpretation gives an extension to zz, "
                       "which the program does not have\n")


def test_non_integer_guard_ceiling_is_usage_error(monkeypatch, capsys):
    for value in ("lots", "-1"):
        monkeypatch.setenv("LT_TIGHT_GUARD_CEILING", value)
        for argv in (("check-equiv", "fixture:prog1", "--m-max", "1"),
                     ("check-gamma-tight", "fixture:prog2", "--n", "1"),
                     ("chains", "fixture:prog2", "--n", "1"),
                     ("chain-formulas", "fixture:prog2", "--n", "1"),
                     ("export-tptp", "fixture:prog2", "--n", "1")):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == ("error: LT_TIGHT_GUARD_CEILING must be a "
                           f"nonnegative integer, not {value!r}\n")


def test_chain_commands_guard_the_chain_count(tmp_path, monkeypatch, capsys):
    """p :- p, p, p. has 3^n chains of length n, each of n + 1 rules;
    above the ceiling every chain command exits 3 before printing."""
    monkeypatch.setenv("LT_TIGHT_GUARD_CEILING", "100")
    path = tmp_path / "prog.lp"
    path.write_text("p :- p, p, p.\n")
    for command in ("chains", "chain-formulas", "check-gamma-tight",
                    "export-tptp"):
        code, out, err = invoke(capsys, command, str(path), "--n", "3")
        assert (code, out) == (3, "")
        assert err == ("resource guard: 108 chain rules in 27 chains of "
                       "length 3 exceed the ceiling of 100\n")
        code, out, err = invoke(capsys, command, str(path), "--n", "2")
        assert code in (0, 1) and out and err == "", command


def test_chains_of_a_tight_program_rename_nothing(monkeypatch, capsys):
    """prog1 is tight, so it has no chain of length 1,000,000; chains
    says so without building the n + 1 renamed copies of its rules."""
    renamed = []
    monkeypatch.setattr(tightness, "rename_apart",
                        lambda *args: renamed.append(args))
    code, out, err = invoke(capsys, "chains", "fixture:prog1", "--n", "1000000")
    assert (code, out, err, renamed) == (0, "", "", [])


def test_export_tptp_closes_long_chains(capsys):
    """At length 2000 the conjecture's universal closure nests more
    quantifiers than the default recursion limit."""
    code, out, err = invoke(capsys, "export-tptp", "fixture:prog2", "--n", "2000")
    assert (code, err) == (0, "")
    assert out.count("fof(chain_refutation, conjecture, (![") == 2


def test_stable_and_ground_guard_the_universe(tmp_path, monkeypatch, capsys):
    """A three-variable rule has m^3 bindings; above the ceiling stable
    and ground exit 3 before grounding or checking anything."""
    monkeypatch.setenv("LT_TIGHT_GUARD_CEILING", "1000")
    path = tmp_path / "prog.lp"
    path.write_text("p(X) :- q(X, Y), q(Y, Z), q(Z, X).\n")
    interp = tmp_path / "i.txt"
    interp.write_text("universe=11; p={}; q={}\n")
    for command in ("stable", "ground"):
        code, out, err = invoke(capsys, command, str(path),
                                "--interp", str(interp))
        assert (code, out) == (3, "")
        assert err == ("resource guard: 1331 rule bindings at universe "
                       "size 11 exceed the ceiling of 1000\n")
    interp.write_text("universe=10; p={}; q={}\n")
    code, out, err = invoke(capsys, "stable", str(path), "--interp", str(interp))
    assert (code, out, err) == (0, "stable\n", "")


def test_ground_limits_what_it_prints(tmp_path, capsys):
    """ground prints every rule instance, so it refuses more bindings
    than GROUND_BINDING_LIMIT, far below the ceiling, which stable
    keeps: at universe size 120 the three-variable rule would print for
    about 45 s."""
    path = tmp_path / "prog.lp"
    path.write_text("p(X) :- q(X, Y), q(Y, Z), q(Z, X).\n")
    interp = tmp_path / "i.txt"
    for m in (120, 47):
        interp.write_text(f"universe={m}; p={{}}; q={{}}\n")
        code, out, err = invoke(capsys, "ground", str(path),
                                "--interp", str(interp))
        assert (code, out) == (3, "")
        assert err == (f"resource guard: {m ** 3} rule bindings at universe "
                       f"size {m} exceed the 100000 that ground prints\n")
    assert GROUND_BINDING_LIMIT == 100_000 < 47 ** 3
    code, out, err = invoke(capsys, "stable", str(path), "--interp", str(interp))
    assert (code, out, err) == (0, "stable\n", "")


def test_stable_and_ground_desugar_once(tmp_path, monkeypatch, capsys):
    """stable guards the grounding with the rules its stable-model
    tables hold, so the program is desugared once per command."""
    import lttight.semantics as semantics
    calls = []

    def counting(prog):
        calls.append(prog)
        return desugar(prog)

    monkeypatch.setattr(cli, "desugar", counting)
    monkeypatch.setattr(semantics, "desugar", counting)
    interp = tmp_path / "i.txt"
    interp.write_text("universe=2; a=e0; b=e1; p={(e0),(e1)}; q={(e1)}\n")
    for command in ("stable", "ground"):
        calls.clear()
        code, _, err = invoke(capsys, command, "fixture:prog1",
                              "--interp", str(interp))
        assert (code, err, len(calls)) == (0, "", 1)


def test_check_equiv_agree_and_disagree(capsys):
    code, out, _ = invoke(capsys, "check-equiv", "fixture:prog1",
                          "--m-max", "2")
    assert code == 0
    assert "VERDICT agree count=0" in out
    code, out, _ = invoke(capsys, "check-equiv", "fixture:prog2",
                          "--m-max", "1")
    assert code == 1
    assert ("DISAGREE comp_only "
            "universe=1; a=e0; b=e0; p={(e0)}; q={(e0)}") in out


def test_check_equiv_uses_fixture_gamma(capsys):
    code, out, _ = invoke(capsys, "check-equiv", "fixture:example3",
                          "--m-max", "2")
    assert code == 0
    assert "gamma=a != b" in out


def test_check_equiv_resource_guard(capsys):
    code, _, err = invoke(capsys, "check-equiv", "fixture:moving(1)",
                          "--m-max", "2")
    assert code == 3
    assert "resource guard" in err


def test_stability_cap_counts_guard_skipped(tmp_path, capsys):
    path = tmp_path / "choice.lp"
    path.write_text("{p(X,Y,Z)}.\n")
    # at m=4 the two samples hold 28 and 37 atoms, over the stability cap
    # of 24: they are counted and reported, and the rest of the report
    # stands
    code, out, _ = invoke(capsys, "check-equiv", str(path), "--m-max", "4",
                          "--sample", "8", "--seed", "3")
    assert (code, out) == (0, f"program={path}\n"
                              "gamma=(empty)\n"
                              "mode=sampled(seed=3, count=8) m<=4\n"
                              "GUARD_SKIPPED count=2\n"
                              "VERDICT agree count=0\n")
    # below the cap the report has no GUARD_SKIPPED line
    code, out, _ = invoke(capsys, "check-equiv", str(path), "--m-max", "3",
                          "--sample", "8", "--seed", "3")
    assert (code, out) == (0, f"program={path}\n"
                              "gamma=(empty)\n"
                              "mode=sampled(seed=3, count=8) m<=3\n"
                              "VERDICT agree count=0\n")



def test_stable_interpretation_under_the_cap_is_fast(tmp_path, capsys):
    path = tmp_path / "choice.lp"
    path.write_text("{p(X,Y,Z)}.\n")
    # at seed 1 one m=4 sample is over the cap and another is a stable
    # set of 22 atoms, just under it; the expected report was recorded
    # when minimality was a 2^|J| subset sweep, which took about 77 s
    start = time.monotonic()
    code, out, _ = invoke(capsys, "check-equiv", str(path), "--m-max", "4",
                          "--sample", "8", "--seed", "1")
    elapsed = time.monotonic() - start
    assert (code, out) == (0, f"program={path}\n"
                              "gamma=(empty)\n"
                              "mode=sampled(seed=1, count=8) m<=4\n"
                              "GUARD_SKIPPED count=1\n"
                              "VERDICT agree count=0\n")
    assert elapsed < 10, f"took {elapsed:.1f} s"


def test_stats_shows_a_vacuous_sampled_check(capsys):
    """README's sampled moving(1) check: Gamma rejects every sample, so
    nothing is checked, which --stats shows on stderr; stdout is the
    same with and without it."""
    argv = ("check-equiv", "fixture:moving(1)", "--m-max", "2",
            "--sample", "1000", "--seed", "7")
    plain = invoke(capsys, *argv)
    code, out, err = invoke(capsys, *argv, "--stats")
    assert plain == (code, out, "")
    assert out.endswith("VERDICT agree count=0\n")
    assert err == ("stats: examined=1000 gamma_skipped=1000 guard_skipped=0 "
                   "checked=0 both_accept=0 both_reject=0 disagree=0\n")


def test_stats_on_check_prop3(capsys):
    argv = ("check-prop3", "--k", "1", "--sample", "20", "--seed", "2")
    plain = invoke(capsys, *argv)
    code, out, err = invoke(capsys, *argv, "--stats")
    assert plain == (code, out, "") and code == 0
    # the 20 samples plus the 9 directed interpretations, 3 of them stable
    assert err == ("stats: examined=29 gamma_skipped=0 guard_skipped=0 "
                   "checked=29 both_accept=3 both_reject=26 disagree=0\n")


def test_check_equiv_sampled(capsys):
    code, out, _ = invoke(capsys, "check-equiv", "fixture:moving(1)",
                          "--m-max", "2", "--sample", "25", "--seed", "9")
    assert code == 0
    assert "sampled(seed=9, count=25)" in out


def test_check_prop3(capsys):
    code, out, _ = invoke(capsys, "check-prop3", "--k", "1", "--sample", "25")
    assert code == 0
    assert "VERDICT agree" in out


def test_export_tptp(capsys):
    code, out, _ = invoke(capsys, "export-tptp", "fixture:example2", "--n", "1")
    assert code == 0
    assert "% obligation 0" in out and "% obligation 1" in out
    assert "fof(gamma_1, axiom, (a != b))." in out
    assert out.count("fof(chain_refutation, conjecture,") == 2


def test_fixture_command(capsys):
    code, out, _ = invoke(capsys, "fixture", "example2")
    assert code == 0
    assert "p(a) :- p(b)." in out
    assert "% gamma:" in out and "% a != b" in out
    code, _, err = invoke(capsys, "fixture", "nonesuch")
    assert code == 2


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.fixture
def fresh_argparser():
    """Empty ``cli``'s one-per-process parser cache before and after."""
    cli._argparser.cache_clear()
    yield
    cli._argparser.cache_clear()


def test_argument_parser_is_built_once(monkeypatch, capsys, fresh_argparser):
    built = []
    build = cli._build_argparser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_argparser", counting_build)
    for argv in (["tight", "fixture:prog1"], ["tight", "fixture:prog2"],
                 ["--version"], ["frobnicate"], ["parse", "fixture:ex1"]):
        run(argv)
    capsys.readouterr()
    assert len(built) == 1


def test_help_matches_a_freshly_built_parser(monkeypatch, capsys,
                                             fresh_argparser):
    # argparse's layout differs between Python versions, so the text is
    # compared with what this interpreter's argparse makes of a new
    # parser, not with a recorded copy.
    monkeypatch.setenv("COLUMNS", "93")
    fresh = cli._build_argparser()
    (commands,) = [a.choices for a in fresh._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert "check-gamma-tight" in commands
    runs = [((), fresh)] + [((name,), sub) for name, sub in commands.items()]
    for prefix, parser in runs + runs[:1]:
        assert invoke(capsys, *prefix, "--help") == (
            0, parser.format_help(), "")


def test_usage_error_repeats_on_a_reused_parser(capsys, fresh_argparser):
    first = invoke(capsys, "check-gamma-tight", "fixture:prog1")
    assert first[:2] == (2, "")
    assert "the following arguments are required: --n" in first[2]
    assert invoke(capsys, "check-gamma-tight", "fixture:prog1") == first


def test_version(capsys):
    from lttight import __version__
    code, out, _ = invoke(capsys, "--version")
    assert code == 0
    assert __version__ in out


LONG_BODY_RUNS = [
    pytest.param(sep, 1200, argv, id=f"{name}-{argv[0]}")
    for name, sep in (("and", ", "), ("or", " | "))
    for argv in (["parse"], ["complete", "--simplify"], ["tight"],
                 ["chains", "--n", "1"], ["check-gamma-tight", "--n", "1"])
] + [pytest.param(", ", 600, [command, "--interp"], id=f"and-{command}")
     for command in ("stable", "ground")]


@pytest.mark.parametrize("sep, n, argv", LONG_BODY_RUNS)
def test_long_rule_body(tmp_path, capsys, sep, n, argv):
    # r has no rule, so only q links: one chain, whose formula holds the
    # whole body
    body = sep.join(["q(X)"] + ["r(X)"] * (n - 1))
    path = tmp_path / "long.lp"
    path.write_text(f"p(X) :- {body}.\n{{q(X)}} :- X = X.\n")
    if argv[-1] == "--interp":
        # passes the classical check, so the program is grounded
        interp = tmp_path / "i.txt"
        interp.write_text("universe=1; p={}; q={(e0)}; r={}\n")
        argv = argv + [str(interp)]
    code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
    assert code in (0, 1) and err == ""
    if argv[0] == "stable":
        assert out == "stable\n"


@pytest.mark.parametrize("body", [
    "(" * 1200 + "q" + ")" * 1200,
    "not " * 1200 + "q",
    " -> ".join(["q"] * 1201),
], ids=["parens", "not", "arrow"])
def test_deep_nesting_is_a_parse_error(tmp_path, capsys, body):
    path = tmp_path / "deep.lp"
    path.write_text(f"p :- {body}.\n")
    code, out, err = invoke(capsys, "parse", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("links", [10, 1200])
@pytest.mark.parametrize("command", [["parse"], ["chains", "--n", "1"]],
                         ids=["parse", "chains"])
def test_long_iff_chain_is_a_parse_error(tmp_path, capsys, links, command):
    path = tmp_path / "iff.lp"
    path.write_text("p(X) :- " + " <-> ".join(["q(X)"] * (links + 1))
                    + ".  {q(X)}.\n")
    code, out, err = invoke(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1
    # the 9th <->, where a bound on <-> nesting along one path refused it
    assert err == f"parse error: 1:86: {IFF_COPIES}\n"


@pytest.mark.parametrize("command", [["parse"], ["chains", "--n", "1"]],
                         ids=["parse", "chains"])
def test_balanced_iff_nesting_is_a_parse_error(tmp_path, capsys, command):
    # six levels deep on every path, but 4,032 atom copies once
    # expanded, past MAX_IFF_COPIES
    body = "q(X)"
    for _ in range(6):
        body = f"({body}) <-> ({body})"
    path = tmp_path / "iff.lp"
    path.write_text(f"p(X) :- {body}.  {{q(X)}}.\n")
    code, out, err = invoke(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert IFF_COPIES in err


@pytest.mark.parametrize("command", [["parse"], ["chains", "--n", "1"],
                                     ["export-tptp", "--n", "1"]],
                         ids=["parse", "chains", "export-tptp"])
def test_constant_leaves_under_iff_are_a_parse_error(tmp_path, capsys, command):
    # a thousand true under eight levels of <-> false: no atom is copied,
    # but every true and false is
    body = " & ".join(["true"] * 1000)
    for _ in range(8):
        body = f"({body}) <-> false"
    path = tmp_path / "iff.lp"
    path.write_text(f"p(X) :- q(X) & ({body}).  {{q(X)}}.\n")
    code, out, err = invoke(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert IFF_COPIES in err


def test_deepest_body_gets_a_verdict(tmp_path, capsys):
    # as deep as the parser allows, and several Python brackets per
    # level once compiled: the checks still reach a verdict
    body = "exists Y (p | q & r)"
    for _ in range(49):
        body = f"exists Y (p | q & {body} -> r)"
    path = tmp_path / "deep.lp"
    path.write_text(f"r.\np :- {body}.\n")
    interp = tmp_path / "i.txt"
    interp.write_text("universe=1; p={()}; q={}; r={()}\n")
    code, out, err = invoke(capsys, "stable", str(path), "--interp", str(interp))
    assert (code, out, err) == (0, "stable\n", "")
    code, out, err = invoke(capsys, "check-equiv", str(path), "--m-max", "1",
                            "--stats")
    assert (code, out.splitlines()[-1]) == (0, "VERDICT agree count=0")
    assert err == ("stats: examined=8 gamma_skipped=0 guard_skipped=0 "
                   "checked=8 both_accept=1 both_reject=7 disagree=0\n")
    code, out, err = invoke(capsys, "check-gamma-tight", str(path), "--n", "1",
                            "--bound", "1")
    assert (code, out.splitlines()[:2], err) == (
        1, ["countermodel", "universe=1; p={()}; q={}; r={()}"], "")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_a_closed_pipe_ends_the_command_silently():
    """A reader that closes stdout early, as ``head`` does, ends the
    command by SIGPIPE with nothing on stderr, as it ends ``cat``.  The
    read end is closed before the process starts, so its first write
    meets a closed pipe whatever the timing."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(lttight.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "lttight.cli", "complete",
             "fixture:moving(40)"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (-signal.SIGPIPE, b"")
