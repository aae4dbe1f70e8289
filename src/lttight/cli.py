"""Command-line front end.

Exit codes: 0 success/agree, 1 disagreement or countermodel found,
2 usage or input error, 3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import functools
import signal
import sys

from . import __version__
from .completion import completion, desugar, simplify_completion
from .equiv import check_equivalence, check_proposition3
from .fixtures import MAX_STEP_BOUND, builtin_fixture
from .parser import ParseError, parse_program, parse_sentences
from .semantics import (
    ResourceGuardError, compile_rules, ground_program, ground_to_str,
    guard_ceiling, is_sm_model, parse_interpretation, sm_tables,
)
from .tightness import (
    COUNTERMODEL, ENTAILED, chain_formula, chain_to_str, chains,
    check_gamma_tight, export_dot, export_tptp, is_tight,
    predicate_dependency_graph,
)
from .syntax import (
    And, Atom, Equality, Exists, Forall, Implies, ObjectConstant, Or,
    formula_to_str, pretty_print,
)

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


STATS_HELP = ("also print, as one line on stderr, how many interpretations "
              "were examined, skipped and checked")


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    """The text of a UTF-8 file the command names."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _fixture(name: str):
    try:
        return builtin_fixture(name)
    except (KeyError, ValueError) as exc:
        raise UsageError(str(exc))


def _load_program(spec: str):
    """Load a program from ``fixture:NAME`` or a file path.  Returns the
    program and its fixture (None for files)."""
    if spec.startswith("fixture:"):
        fixture = _fixture(spec[len("fixture:"):])
        return fixture.program, fixture
    return parse_program(_read(spec)), None


def _load_gamma(path, fixture, prog):
    """Gamma from the file at ``path``; without one, the fixture's
    (parsed only now), and none for a program read from a file.  Checked
    against the program, as ``_load_interp`` checks an interpretation:
    every constant it names is the program's, and every predicate too, at
    the program's arity.  The parser already keeps each predicate at one
    arity within Gamma."""
    if path is not None:
        gamma = parse_sentences(_read(path))
    else:
        gamma = list(fixture.gamma) if fixture is not None else []
    constants, arities = set(), {}
    stack = list(gamma)
    while stack:
        f = stack.pop()
        cls = type(f)
        if cls is Atom:
            arities[f.predicate] = len(f.args)
            constants.update(t.name for t in f.args if type(t) is ObjectConstant)
        elif cls is Equality:
            constants.update(t.name for t in (f.left, f.right)
                             if type(t) is ObjectConstant)
        elif cls is And or cls is Or:
            stack.extend(f.items)
        elif cls is Implies:
            stack += [f.left, f.right]
        elif cls is Forall or cls is Exists:
            stack.append(f.body)
    unmapped = sorted(constants - set(prog.constants))
    if unmapped:
        raise UsageError(f"gamma names constant {unmapped[0]}, "
                         f"which the program does not have")
    program_arities = dict(prog.predicates)
    for p, arity in sorted(arities.items()):
        if p not in program_arities:
            raise UsageError(f"gamma names predicate {p}, "
                             f"which the program does not have")
        if arity != program_arities[p]:
            raise UsageError(f"gamma uses {p}/{arity}, "
                             f"but the program has {p}/{program_arities[p]}")
    return gamma


def _load_interp(path, prog):
    """Read an interpretation literal and check it against the program:
    every constant mapped, every extension of one of its predicates, and
    every tuple of that predicate's arity."""
    text = _read(path)
    try:
        interp = parse_interpretation(text)
    except ValueError as exc:
        raise UsageError(str(exc))
    for name in sorted(prog.constants):
        if name not in interp.consts:
            raise UsageError(f"interpretation leaves constant {name} unmapped")
    arities = dict(prog.predicates)
    for p, tuples in sorted(interp.extensions.items()):
        if p not in arities:
            raise UsageError(
                f"interpretation gives an extension to {p}, "
                f"which the program does not have")
        for t in sorted(tuples):
            if len(t) != arities[p]:
                raise UsageError(f"interpretation gives {p}/{arities[p]} "
                                 f"a tuple of length {len(t)}")
    return interp


def _check_guard_ceiling():
    try:
        guard_ceiling()
    except ValueError as exc:
        raise UsageError(str(exc))


# ``ground`` prints every rule instance, about 20 us per binding on a
# 2-core Xeon VM with Python 3.11: this many print in about two seconds.
GROUND_BINDING_LIMIT = 100_000


def _guard_grounding(rules, interp, printed=False):
    """Refuse, as enumeration does, more rule bindings than the ceiling:
    grounding or checking one of the desugared ``rules`` walks up to m^v
    bindings of its v variables, free and bound.  With ``printed``, as
    for ``ground``, refuse more than GROUND_BINDING_LIMIT too."""
    limit = guard_ceiling()
    m = interp.universe
    total = sum(m ** len(r.variables()) for r in rules)
    if total > limit:
        raise ResourceGuardError(
            f"{total} rule bindings at universe size {m} exceed the "
            f"ceiling of {limit}")
    if printed and total > GROUND_BINDING_LIMIT:
        raise ResourceGuardError(
            f"{total} rule bindings at universe size {m} exceed the "
            f"{GROUND_BINDING_LIMIT} that ground prints")


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lt-tight",
        description="Completion, tightness and stable-model analysis of "
                    "logic programs with first-order rule bodies.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("input", help="program file path or fixture:NAME")
        return p

    with_input(sub.add_parser("parse", help="parse and echo the program"))
    p = with_input(sub.add_parser("complete", help="print the completion"))
    p.add_argument("--simplify", action="store_true")
    with_input(sub.add_parser("tight", help="decide tightness"))
    with_input(sub.add_parser("graph", help="predicate dependency graph"))
    p = with_input(sub.add_parser("chains", help="enumerate chains"))
    p.add_argument("--n", type=int, required=True)
    p = with_input(sub.add_parser("chain-formulas", help="chain formulas"))
    p.add_argument("--n", type=int, required=True)
    p = with_input(sub.add_parser("check-gamma-tight",
                                  help="check the chain-formula entailment"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", help="file of closed formulas, one per '.'")
    p.add_argument("--bound", type=int, default=2,
                   help="universe size bound for countermodel search")
    p = with_input(sub.add_parser("ground", help="ground the program"))
    p.add_argument("--interp", required=True, help="interpretation literal file")
    p = with_input(sub.add_parser("stable", help="stable-model check"))
    p.add_argument("--interp", required=True, help="interpretation literal file")
    p = with_input(sub.add_parser("check-equiv",
                                  help="compare stable models with completion"))
    p.add_argument("--gamma", help="file of closed formulas, one per '.'")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--sample", type=int, default=None,
                   help="sample count (default: exhaustive)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stats", action="store_true", help=STATS_HELP)
    p = sub.add_parser("check-prop3",
                       help="moving-objects program vs successor-state formulas")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sample", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stats", action="store_true", help=STATS_HELP)
    p = with_input(sub.add_parser("export-tptp",
                                  help="FOF obligations for the chain formulas"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", help="file of closed formulas, one per '.'")
    p = sub.add_parser("fixture", help="print a built-in program")
    p.add_argument("name")
    return ap


@functools.cache
def _argparser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``run`` of the process.
    It holds only the command-line grammar, no input of any command."""
    return _build_argparser()


def run(argv) -> int:
    try:
        args = _argparser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


def _print_equiv_report(report, stats: bool) -> int:
    print(report.render())
    if stats:
        print(report.stats_line(), file=sys.stderr)
    return EXIT_OK if report.verdict == "agree" else EXIT_FOUND


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "fixture":
        fixture = _fixture(args.name)
        print(pretty_print(fixture.program))
        if fixture.gamma:
            print("% gamma:")
            for g in fixture.gamma:
                print(f"% {formula_to_str(g)}")
        return EXIT_OK
    if cmd == "check-prop3":
        if args.k < 0:
            raise UsageError("--k must be nonnegative")
        if args.k > MAX_STEP_BOUND:
            raise UsageError(f"--k must be at most {MAX_STEP_BOUND}")
        if args.sample < 0:
            raise UsageError("--sample must be nonnegative")
        report = check_proposition3(args.k, sample_count=args.sample,
                                    seed=args.seed)
        return _print_equiv_report(report, args.stats)

    prog, fixture = _load_program(args.input)

    if cmd == "parse":
        print(pretty_print(prog))
        return EXIT_OK
    if cmd == "complete":
        result = completion(prog)
        if args.simplify:
            result = simplify_completion(result)
        for p, s in result.completed_definitions:
            print(f"{p}: {formula_to_str(s)}")
        for s in result.constraint_sentences:
            print(f"constraint: {formula_to_str(s)}")
        return EXIT_OK
    if cmd == "tight":
        if is_tight(prog):
            print("tight")
            return EXIT_OK
        print("not tight")
        return EXIT_FOUND
    if cmd == "graph":
        print(export_dot(predicate_dependency_graph(prog)), end="")
        return EXIT_OK
    if cmd == "chains":
        if args.n < 0:
            raise UsageError("--n must be nonnegative")
        _check_guard_ceiling()
        for i, c in enumerate(chains(prog, args.n)):
            print(f"chain {i}:")
            print(chain_to_str(c))
        return EXIT_OK
    if cmd == "chain-formulas":
        if args.n < 0:
            raise UsageError("--n must be nonnegative")
        _check_guard_ceiling()
        for c in chains(prog, args.n):
            print(formula_to_str(chain_formula(c)))
        return EXIT_OK
    if cmd == "check-gamma-tight":
        if args.n < 1:
            raise UsageError("--n must be at least 1")
        if args.bound < 1:
            raise UsageError("--bound must be at least 1")
        _check_guard_ceiling()
        gamma = _load_gamma(args.gamma, fixture, prog)
        verdict = check_gamma_tight(prog, gamma, args.n, args.bound)
        if verdict.status == ENTAILED:
            print("entailed (syntactic)")
            return EXIT_OK
        if verdict.status == COUNTERMODEL:
            print("countermodel")
            print(verdict.interpretation.literal())
            print(chain_to_str(verdict.chain))
            return EXIT_FOUND
        print(f"unknown (universe bound {verdict.bound} exhausted)")
        return EXIT_OK
    if cmd in ("ground", "stable"):
        _check_guard_ceiling()
        interp = _load_interp(args.interp, prog)
        if cmd == "ground":
            d = desugar(prog)
            _guard_grounding(d.rules, interp, printed=True)
            print(ground_to_str(ground_program(d, interp)[1]))
            return EXIT_OK
        tables = sm_tables(prog)
        _guard_grounding(tables[0], interp)
        if is_sm_model(tables, interp, compile_rules(tables[0])(interp)):
            print("stable")
            return EXIT_OK
        print("not stable")
        return EXIT_FOUND
    if cmd == "check-equiv":
        if args.m_max < 1:
            raise UsageError("--m-max must be at least 1")
        if args.sample is not None and args.sample < 0:
            raise UsageError("--sample must be nonnegative")
        _check_guard_ceiling()
        gamma = _load_gamma(args.gamma, fixture, prog)
        report = check_equivalence(
            prog, gamma, args.m_max, sample_count=args.sample,
            seed=args.seed, program_id=args.input)
        return _print_equiv_report(report, args.stats)
    if cmd == "export-tptp":
        if args.n < 0:
            raise UsageError("--n must be nonnegative")
        _check_guard_ceiling()
        gamma = _load_gamma(args.gamma, fixture, prog)
        comp = completion(prog)
        problems = [export_tptp(gamma, comp, chain_formula(c))
                    for c in chains(prog, args.n)]
        for i, text in enumerate(problems):
            if len(problems) > 1:
                print(f"% obligation {i}")
            print(text, end="")
        return EXIT_OK
    raise UsageError(f"unknown command {cmd!r}")


def main() -> None:
    if hasattr(signal, "SIGPIPE"):      # a closed pipe ends us as it ends cat
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
