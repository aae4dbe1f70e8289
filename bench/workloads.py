"""The four benchmark workloads, their seeded inputs and the correctness gate.

Every job is an ``lt-tight`` argv run through ``lttight.cli.run``.  Its
known answer is fixed before the benchmark starts: a set of accepted
(exit code, sha256 of stdout) pairs.  For the fixed jobs these come from
``goldens.json`` (written by ``record_goldens.py``); for the seeded jobs
they follow from how the input was built.

This module does not import lttight: the library is imported inside the
timed set-up, and its modules are passed in as ``lib``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens.json"
UNKNOWN_PROGRAM = BENCH_DIR / "unknown.lp"

WORKLOADS = ("prop3-sampled", "equiv-exhaustive", "stable-minimality",
             "gamma-tight")

# Distinct seeded passes generated in set-up; a run cycles through them.
POOL_SIZE = 8

# prop3-sampled: (k, sample count) per check-prop3 job in one pass.
PROP3_JOBS = ((1, 250), (2, 100))

# stable-minimality: one stable and one drift interpretation per |J|.
STABLE_SIZES = (12, 13, 14, 15, 16)
STABLE_UNIVERSE = 3


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Job:
    label: str          # the argv as a user would type it, for reports
    argv: tuple         # what is passed to lttight.cli.run
    accept: frozenset   # accepted (exit code, sha256 of stdout) pairs
    interps: int        # interpretations the job examines
    chains: int = 0     # length-n chains the job decides
    atoms: int = 0      # |J| of a stable-minimality interpretation


@dataclass(frozen=True)
class Outcome:
    exit_code: object   # int, or None when the job raised
    stdout: str
    stderr: str


def failure_cause(job: Job, outcome: Outcome):
    """One line saying why the job failed, or None when it passed."""
    if outcome.exit_code is None:
        return f"raised {outcome.stderr}"
    message = (outcome.stderr.strip().splitlines() or ["(no message)"])[0]
    if outcome.exit_code == 3:
        return f"resource guard tripped: {message}"
    if (outcome.exit_code, digest(outcome.stdout)) in job.accept:
        return None
    codes = sorted({code for code, _ in job.accept})
    if outcome.exit_code not in codes:
        return (f"exit code {outcome.exit_code}, expected one of {codes}: "
                f"{message}")
    first = (outcome.stdout.strip().splitlines() or ["(empty)"])[0]
    return f"report text differs from the recorded one (first line {first!r})"


# ---------------------------------------------------------------------------
# Fixed jobs (answers recorded in goldens.json)

EQUIV_ARGVS = (
    # prog2 is not tight: it disagrees, with 10 witnesses at m <= 4.
    ("check-equiv", "fixture:prog2", "--m-max", "4"),
    ("check-equiv", "fixture:ex1", "--m-max", "2"),
    ("check-equiv", "fixture:prog4", "--m-max", "3"),
    ("check-equiv", "fixture:example3", "--m-max", "4"),
    ("check-equiv", "fixture:ex2", "--m-max", "3"),
)

UNKNOWN_ARG = "bench/unknown.lp"
GAMMA_ARGVS = tuple(
    [("check-gamma-tight", f"fixture:moving({k})", "--n", str(k + 2))
     for k in range(1, 5)]
    + [("check-gamma-tight", "fixture:prog2", "--n", "1", "--bound", "3"),
       ("check-gamma-tight", UNKNOWN_ARG, "--n", "1", "--bound", "3")])

# The refuter cannot close the unknown job's chain today; if it ever
# does, ``entailed`` is right too.  A countermodel would be wrong: the
# program has none within the bound.
ALSO_ACCEPT = {" ".join(GAMMA_ARGVS[-1]): (0, "entailed (syntactic)\n")}


def resolve(arg: str) -> str:
    """The benchmark's own program file as an absolute path."""
    return str(UNKNOWN_PROGRAM) if arg == UNKNOWN_ARG else arg


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def load_program(lib, spec: str):
    """Build a fixture or parse a program file, as the CLI would."""
    if spec.startswith("fixture:"):
        return lib.fixtures.builtin_fixture(spec[len("fixture:"):]).program
    return lib.parser.parse_program(Path(resolve(spec)).read_text("utf-8"))


def fixed_job(argv: tuple, goldens: dict, interps: int = 0) -> Job:
    label = " ".join(argv)
    g = goldens["jobs"][label]
    accept = {(g["exit"], g["sha256"])}
    if label in ALSO_ACCEPT:
        code, text = ALSO_ACCEPT[label]
        accept.add((code, digest(text)))
    return Job(label, tuple(resolve(a) for a in argv), frozenset(accept),
               interps, g["chains"])


def equiv_job(lib, argv: tuple, goldens: dict) -> Job:
    """Exhaustive check-equiv examines every interpretation up to m-max."""
    sig = load_program(lib, argv[1]).signature
    m_max = int(argv[argv.index("--m-max") + 1])
    interps = sum(lib.semantics.interpretation_count(sig, m)
                  for m in range(1, m_max + 1))
    return fixed_job(argv, goldens, interps)


def gamma_job(lib, argv: tuple, goldens: dict) -> Job:
    load_program(lib, argv[1])   # set-up builds or parses every program
    return fixed_job(argv, goldens)


# ---------------------------------------------------------------------------
# Seeded jobs

def prop3_job(k: int, count: int, seed: int, goldens: dict) -> Job:
    """check-prop3 with seeded sampling; the answer is always agree, so
    the expected report text follows from k, the count and the seed."""
    g = goldens["prop3"][str(k)]
    text = g["template"].format(seed=seed, count=count)
    argv = ("check-prop3", "--k", str(k), "--sample", str(count),
            "--seed", str(seed))
    return Job(" ".join(argv), argv, frozenset({(0, digest(text))}),
               count + g["directed"])


def moving1_interpretation(rng: random.Random, size: int, drift: bool):
    """Extensions (element tuples) and constant map of a moving(1)
    interpretation at universe 3 with exactly ``size`` true atoms.

    Without drift it is a stable model built from the successor-state
    formulas: every object is somewhere at s0, and at s1 it is where its
    move (if any) took it, else where it was.  With drift, one object
    that did not move is relocated anyway; that at-atom is unsupported,
    so the interpretation is a classical model of the program but not a
    stable one."""
    elems = range(STABLE_UNIVERSE)
    while True:
        s0, s1 = rng.sample(elems, 2)
        objects = [e for e in elems if rng.random() < 0.6]
        places = [e for e in elems if rng.random() < 0.6]
        if not objects or len(places) < (2 if drift else 1):
            continue
        start = {o: rng.choice(places) for o in objects}
        movers = [o for o in objects if rng.random() < 0.3]
        still = [o for o in objects if o not in movers]
        if drift and not still:
            continue
        moves = [(o, rng.choice(places), s0) for o in movers]
        moves += [(o, y, s1) for o in objects for y in places
                  if rng.random() < 0.15]
        end = dict(start)
        end.update({o: y for o, y, _ in moves[:len(movers)]})
        if drift:
            o = rng.choice(still)
            end[o] = rng.choice([y for y in places if y != start[o]])
        extensions = {
            "object": [(o,) for o in objects],
            "place": [(y,) for y in places],
            "step": [(s0,), (s1,)],
            "next": [(s0, s1)],
            "at": [(o, start[o], s0) for o in objects]
                  + [(o, end[o], s1) for o in objects],
            "move": moves,
        }
        if sum(len(v) for v in extensions.values()) == size:
            return {"s0": s0, "s1": s1}, extensions


STABLE_TEXT = {False: (0, "stable\n"), True: (1, "not stable\n")}


def stable_pass(lib, sig, rng: random.Random, directory: Path,
                index: int) -> list:
    """One stable and one drift job per |J| in STABLE_SIZES; each job's
    interpretation literal is written to a file under ``directory``."""
    arity = dict(sig.predicates)
    jobs = []
    for size in STABLE_SIZES:
        for drift in (False, True):
            consts, exts = moving1_interpretation(rng, size, drift)
            if (set(consts) != set(sig.constants) or set(exts) != set(arity)
                    or any(len(t) != arity[p] for p, ts in exts.items()
                           for t in ts)):
                raise ValueError("generated interpretation does not match "
                                 "the moving(1) signature")
            interp = lib.semantics.make_interpretation(
                STABLE_UNIVERSE, consts, exts)
            kind = "drift" if drift else "stable"
            path = directory / f"pass{index}-j{size}-{kind}.txt"
            path.write_text(interp.literal() + "\n", encoding="utf-8")
            code, text = STABLE_TEXT[drift]
            jobs.append(Job(
                f"stable fixture:moving(1) --interp <|J|={size} {kind}>",
                ("stable", "fixture:moving(1)", "--interp", str(path)),
                frozenset({(code, digest(text))}), 1, atoms=size))
    return jobs


def make_pool(workload: str, seed: int, lib, goldens: dict,
              directory: Path) -> list:
    """The passes a run cycles through, each a list of jobs.  Seeded
    workloads get POOL_SIZE distinct passes derived from ``seed``; the
    others have one fixed pass."""
    if workload == "equiv-exhaustive":
        return [[equiv_job(lib, a, goldens) for a in EQUIV_ARGVS]]
    if workload == "gamma-tight":
        return [[gamma_job(lib, a, goldens) for a in GAMMA_ARGVS]]
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    specs = ([f"fixture:moving({k})" for k, _ in PROP3_JOBS]
             if workload == "prop3-sampled" else ["fixture:moving(1)"])
    programs = {spec: load_program(lib, spec) for spec in specs}
    pool = []
    for index in range(POOL_SIZE):
        rng = random.Random(f"{workload}:{seed}:{index}")
        if workload == "prop3-sampled":
            pool.append([prop3_job(k, count, rng.randrange(2 ** 31), goldens)
                         for k, count in PROP3_JOBS])
        else:
            pool.append(stable_pass(
                lib, programs["fixture:moving(1)"].signature, rng,
                directory, index))
    return pool
