"""Seeded adversarial inputs through the whole command line, in process.

A generator builds programs, Gamma files and interpretation literals of
extreme shapes: long, deep and wide bodies, ``<->`` chains, many
variables, high arity, constants and predicates the program lacks, and
malformed literals.  Every command runs on them through ``cli.run`` at
small bounds, under a lowered recursion limit and a low enumeration
ceiling.  Each case must end in an exit code of 0-3, with exactly one
stderr line on 2 or 3, no exception may escape ``cli.run``, and no case
may take longer than CASE_SECONDS.
"""

from __future__ import annotations

import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from random import Random

import pytest

from lttight.cli import run

SEEDS = range(40)
CASE_SECONDS = 5.0
# Frames the commands may use beyond the test's own stack depth, fewer
# than Python's default limit of 1,000 leaves them.  The parser's nesting
# bounds keep every walk well inside it: the deepest inputs here need
# between 250 and 350 frames (Python 3.11).
FRAMES = 700
CEILING = "4000"

PREDICATES = ("p", "q", "r", "s")
CONSTANTS = ("a", "b", "c")
SHAPES = ("plain", "long", "wide", "deep", "iff", "vars", "arity")


class _Generator:
    """Random program, Gamma and literal text of one shape."""

    def __init__(self, rng: Random, shape: str):
        self.rng = rng
        self.shape = shape
        high = shape == "arity"
        self.arity = {p: rng.randint(3, 6) if high else rng.randint(0, 2)
                      for p in PREDICATES}
        nvars = rng.randint(6, 9) if shape == "vars" else rng.randint(1, 3)
        self.variables = [f"V{i}" for i in range(nvars)]

    def term(self) -> str:
        if self.rng.random() < 0.7:
            return self.rng.choice(self.variables)
        return self.rng.choice(CONSTANTS)

    def atom(self) -> str:
        p = self.rng.choice(PREDICATES)
        n = self.arity[p]
        return p if n == 0 else f"{p}({', '.join(self.term() for _ in range(n))})"

    def literal(self) -> str:
        roll = self.rng.random()
        if roll < 0.15:
            return f"{self.term()} {self.rng.choice(['=', '!='])} {self.term()}"
        if roll < 0.2:
            return self.rng.choice(["true", "false"])
        return ("not " if roll < 0.45 else "") + self.atom()

    def formula(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            return self.literal()
        kind = rng.choice(["&", "|", "->", "<->", "not", "forall", "exists"])
        if kind in ("forall", "exists"):
            return f"{kind} {rng.choice(self.variables)} ({self.formula(depth - 1)})"
        if kind == "not":
            return f"not ({self.formula(depth - 1)})"
        return f"({self.formula(depth - 1)} {kind} {self.formula(depth - 1)})"

    def body(self) -> str:
        rng = self.rng
        if self.shape == "long":
            return ", ".join(self.literal() for _ in range(rng.randint(30, 250)))
        if self.shape == "wide":
            return " | ".join(self.literal() for _ in range(rng.randint(30, 250)))
        if self.shape == "deep":
            # around the parser's nesting bound of 50, on both sides of it
            body = self.literal()
            for _ in range(rng.randint(35, 55)):
                op = rng.choice(["not (", "exists V0 (", "forall V0 ("])
                body = f"{op}{body}) {rng.choice(['&', '|', '->'])} {self.literal()}"
                body = f"({body})"
            return body
        if self.shape == "iff":
            # around the parser's bound of 8 nested <-> along a path
            return " <-> ".join(self.literal() for _ in range(rng.randint(3, 11)))
        if self.shape == "vars":
            return ", ".join(self.atom() for _ in range(len(self.variables)))
        return self.formula(3)

    def program(self) -> str:
        rng = self.rng
        lines = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.15:
                lines.append(f":- {self.body()}.")
            elif kind < 0.3:
                lines.append(f"{{{self.atom()}}} :- {self.body()}.")
            elif kind < 0.4:
                lines.append(f"{self.atom()}.")
            else:
                lines.append(f"{self.atom()} :- {self.body()}.")
        if rng.random() < 0.2:
            p = rng.choice(PREDICATES)
            lines.append(f"#extensional {p}/{self.arity[p]}.")
        return "\n".join(lines) + "\n"

    def gamma(self) -> str:
        """Closed sentences, some naming what the program may lack."""
        rng = self.rng
        sentences = []
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            if roll < 0.2:
                sentences.append(f"{rng.choice(CONSTANTS)} != z")
            elif roll < 0.3:
                sentences.append("exists X (zz(X))")
            elif roll < 0.4:
                p = rng.choice(PREDICATES)
                args = ", ".join(["X"] * (self.arity[p] + 1))
                sentences.append(f"exists X ({p}({args}))")
            elif roll < 0.45:
                sentences.append("p(X)")          # free variable
            else:
                closed = self.formula(2)
                for v in self.variables:
                    closed = f"forall {v} ({closed})"
                sentences.append(closed)
        return "".join(s + ".\n" for s in sentences)

    def interpretation(self, prog_text: str) -> str:
        """A literal over the generator's signature at universe 1 or 2,
        often broken: unmapped constants, unknown predicates, wrong
        arities, elements outside the universe, or malformed parts."""
        rng = self.rng
        m = rng.randint(1, 2)
        parts = [f"universe={m}"]
        for c in CONSTANTS:
            if c in prog_text and rng.random() < 0.9:
                parts.append(f"{c}=e{rng.randrange(m)}")
        for p in PREDICATES:
            if rng.random() < 0.9:
                tuples = [tuple(rng.randrange(m) for _ in range(self.arity[p]))
                          for _ in range(rng.randint(0, 4))]
                body = ",".join("(" + ",".join(f"e{e}" for e in t) + ")"
                                for t in tuples)
                parts.append(f"{p}={{{body}}}")
        roll = rng.random()
        if roll < 0.1:
            parts.append("zz={(e0)}")
        elif roll < 0.2:
            parts.append("p={(e0,e0,e0,e0,e0,e0,e0)}")
        elif roll < 0.3:
            parts.append(rng.choice(["a=e9", "q={(e0", "={()}", "universe=0",
                                     "r={(x)}", "a=e0; a=e1", "p={()()}"]))
        elif roll < 0.35:
            parts = [rng.choice(["", "universe=", "universe=x", "p={}"])]
        return "; ".join(parts) + "\n"


def _commands(rng: Random, prog, gamma, interp) -> list:
    equiv = ["check-equiv", prog, "--m-max", str(rng.randint(1, 2)),
             "--gamma", gamma]
    if rng.random() < 0.5:
        equiv += ["--sample", str(rng.randint(0, 30)), "--seed", "1"]
    if rng.random() < 0.5:
        equiv.append("--stats")
    return [
        ["parse", prog],
        ["complete", prog, "--simplify"],
        ["tight", prog],
        ["graph", prog],
        ["chains", prog, "--n", "1"],
        ["chain-formulas", prog, "--n", "1"],
        ["check-gamma-tight", prog, "--n", "1", "--bound", "1",
         "--gamma", gamma],
        ["ground", prog, "--interp", interp],
        ["stable", prog, "--interp", interp],
        equiv,
        ["export-tptp", prog, "--n", "1", "--gamma", gamma],
    ]


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("seed", SEEDS)
def test_adversarial_inputs(tmp_path, monkeypatch, seed):
    rng = Random(seed)
    gen = _Generator(rng, SHAPES[seed % len(SHAPES)])
    prog_text = gen.program()
    files = {"prog.lp": prog_text, "gamma.txt": gen.gamma(),
             "i.txt": gen.interpretation(prog_text)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    prog, gamma, interp = (str(tmp_path / name) for name in files)
    monkeypatch.setenv("LT_TIGHT_GUARD_CEILING", CEILING)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + FRAMES)
    try:
        for argv in _commands(rng, prog, gamma, interp):
            start = time.monotonic()
            code, _, err = _run(argv)
            elapsed = time.monotonic() - start
            case = f"{argv[0]} on {files}"
            assert code in (0, 1, 2, 3), case
            if code in (2, 3):
                assert err.count("\n") == 1, (case, err)
            assert elapsed < CASE_SECONDS, (case, elapsed)
    finally:
        sys.setrecursionlimit(limit)
