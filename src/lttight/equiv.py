"""Executable comparison of stable-model semantics against completion:
for each interpretation satisfying the assumptions, the stable-model
check and the completion check must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from random import Random

from .completion import completion, desugar
from .fixtures import (
    builtin_fixture, moving_constraint_formulas,
    moving_successor_state_formulas,
)
from .semantics import (
    Interpretation, ResourceGuardError, compile_sentence,
    enumerate_interpretations, enumeration_key, is_sm_model, orbit,
    orbit_size, sample_interpretation,
    satisfies_fo,  # noqa: F401 -- kept importable: bench/tracer.py wraps it
)
from .syntax import BASIC, CONSTRAINT, Program, conjoin

SM_ONLY = "sm_only"
COMP_ONLY = "comp_only"


@dataclass(frozen=True)
class EquivReport:
    program_id: str
    gamma_desc: str
    mode_desc: str
    checked: int
    disagreements: tuple   # tuple[(kind, Interpretation), ...]
    guard_skipped: int = 0
    gamma_skipped: int = 0
    both_accept: int = 0   # checked, and stable and a completion model
    both_reject: int = 0   # checked, and neither

    @property
    def verdict(self) -> str:
        return "agree" if not self.disagreements else "disagree"

    @property
    def examined(self) -> int:
        return self.gamma_skipped + self.guard_skipped + self.checked

    def render(self) -> str:
        lines = [
            f"program={self.program_id}",
            f"gamma={self.gamma_desc}",
            f"mode={self.mode_desc}",
        ]
        for kind, interp in self.disagreements:
            lines.append(f"DISAGREE {kind} {interp.literal()}")
        if self.guard_skipped:
            lines.append(f"GUARD_SKIPPED count={self.guard_skipped}")
        lines.append(f"VERDICT {self.verdict} count={len(self.disagreements)}")
        return "\n".join(lines)

    def stats_line(self) -> str:
        """How the examined interpretations were spent, on one line."""
        return (f"stats: examined={self.examined} "
                f"gamma_skipped={self.gamma_skipped} "
                f"guard_skipped={self.guard_skipped} checked={self.checked} "
                f"both_accept={self.both_accept} "
                f"both_reject={self.both_reject} "
                f"disagree={len(self.disagreements)}")


def _gamma_desc(gamma) -> str:
    from .syntax import formula_to_str
    if not gamma:
        return "(empty)"
    return "; ".join(formula_to_str(g) for g in gamma)


def _check(prog: Program, comp_sentences, gamma, interps, program_id: str,
           mode_desc: str, classical=None, orbits: bool = False) -> EquivReport:
    """Compare every interpretation of the source ``interps`` that
    satisfies Gamma; one whose stability check trips the cap is counted
    as guard-skipped instead of checked.  ``prog`` is desugared by the
    caller, so it keeps its compiled rules for the whole check, and
    Gamma and the completion are compiled once here.

    ``classical``, when given, is a check that every stable model and
    every model of the completion pass: an interpretation that fails it
    is counted as both-reject without deciding either side.  With ``orbits``, each interpretation stands
    for its orbit under permutations of the universe: it is counted
    ``orbit_size`` times, and a disagreement is reported for each member
    of its ``orbit``, in enumeration order."""
    gamma_holds = compile_sentence(conjoin(gamma))
    comp_holds = compile_sentence(conjoin(comp_sentences))
    disagreements = []
    checked = gamma_skipped = guard_skipped = both_accept = both_reject = 0
    for interp in interps:
        weight = orbit_size(interp) if orbits else 1
        if not gamma_holds(interp):
            gamma_skipped += weight
            continue
        if classical is not None and not classical(interp):
            checked += weight
            both_reject += weight
            continue
        try:
            sm = is_sm_model(prog, interp)
        except ResourceGuardError:
            guard_skipped += weight
            continue
        checked += weight
        comp_ok = comp_holds(interp)
        if sm != comp_ok:
            disagreements.append((SM_ONLY if sm else COMP_ONLY, interp))
        elif sm:
            both_accept += weight
        else:
            both_reject += weight
    if orbits:
        disagreements = sorted(
            ((kind, image) for kind, interp in disagreements
             for image in orbit(interp)),
            key=lambda d: enumeration_key(d[1]))
    return EquivReport(program_id, _gamma_desc(gamma), mode_desc, checked,
                       tuple(disagreements), guard_skipped, gamma_skipped,
                       both_accept, both_reject)


def _sampled(sig, sizes: list, count: int, seed: int):
    """``count`` seeded samples, cycling through the universe ``sizes``."""
    rng = Random(seed)
    for i in range(count):
        yield sample_interpretation(sig, sizes[i % len(sizes)], rng)


def check_equivalence(prog: Program, gamma, m_max: int,
                      mode: str = "exhaustive",
                      sample_count: int = 1000,
                      seed: int = 0,
                      program_id: str = "program") -> EquivReport:
    """Compare stable models with completion models over all (or
    sampled) interpretations with universe size up to ``m_max`` that
    satisfy Gamma.  Both sides see the constraint sentences and Gamma
    identically.

    Exhaustive mode visits one constant map per orbit under permutations
    of the universe and counts each interpretation for its orbit; the
    report is the one enumerating every interpretation would give.  In
    both modes an interpretation that violates, read classically, a
    constraint or a rule with an intensional head is counted as
    both-reject without either check: the completion holds the
    constraints, and such a rule is the if-half of its head's completed
    definition.  A rule with an extensional head has no definition."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if mode == "exhaustive":
        mode_desc = f"exhaustive m<={m_max}"
        interps = chain.from_iterable(
            enumerate_interpretations(prog.signature, m, canonical=True)
            for m in range(1, m_max + 1))
    elif mode == "sampled":
        mode_desc = f"sampled(seed={seed}, count={sample_count}) m<={m_max}"
        interps = _sampled(prog.signature, list(range(1, m_max + 1)),
                           sample_count, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    d = desugar(prog)
    implied = [r for r in d.rules if r.kind == CONSTRAINT]
    implied += [r for r in d.rules
                if r.kind == BASIC and r.head.predicate in prog.intensional]
    classical = compile_sentence(conjoin(r.sentence() for r in implied))
    return _check(d, completion(prog).sentences(), list(gamma), interps,
                  program_id, mode_desc, classical,
                  orbits=mode == "exhaustive")


# ---------------------------------------------------------------------------
# The moving-objects characterization at fixed k

def successor_state_interpretations(k: int = 1) -> list:
    """Hand-built interpretations directed at the interesting branches:
    inertia keeping an object in place, a move overriding inertia, and
    violations of each constraint-content conjunct."""
    if k != 1:
        raise ValueError("directed interpretations are built for k=1 only")
    s = {"s0": 0, "s1": 1}
    empty = {"object": [], "place": [], "step": [], "next": [],
             "at": [], "move": []}

    def interp(m, consts, **exts):
        full = dict(empty)
        full.update(exts)
        return Interpretation(m, consts, full)

    return [
        # inertia: object 0 stays at place 1 across the step
        interp(2, s, object=[(0,)], place=[(1,)], step=[(0,), (1,)],
               next=[(0, 1)], at=[(0, 1, 0), (0, 1, 1)]),
        # a move overrides inertia
        interp(2, s, object=[(0,)], place=[(0,), (1,)], step=[(0,), (1,)],
               next=[(0, 1)], at=[(0, 0, 0), (0, 1, 1)], move=[(0, 1, 0)]),
        # drift without a move: unsupported relocation
        interp(2, s, object=[(0,)], place=[(0,), (1,)], step=[(0,), (1,)],
               next=[(0, 1)], at=[(0, 1, 0), (0, 0, 1)]),
        # uniqueness of location violated at step 0
        interp(2, s, object=[(0,)], place=[(0,), (1,)], step=[(0,), (1,)],
               next=[(0, 1)], at=[(0, 0, 0), (0, 1, 0), (0, 0, 1)]),
        # unique names violated: both step constants denote element 0
        interp(1, {"s0": 0, "s1": 0}, step=[(0,)], next=[(0, 0)]),
        # argument typing violated: at holds of a non-object
        interp(2, s, step=[(0,), (1,)], next=[(0, 1)], at=[(1, 1, 1)]),
        # existence of location violated
        interp(2, s, object=[(0,)], place=[(1,)], step=[(0,), (1,)],
               next=[(0, 1)]),
        # step extension missing a step constant's denotation
        interp(2, s, step=[(0,)], next=[(0, 1)]),
        # three-element universe with both a move and inertia
        interp(3, s, object=[(2,)], place=[(0,), (2,)], step=[(0,), (1,)],
               next=[(0, 1)], at=[(2, 2, 0), (2, 0, 1)], move=[(2, 0, 0)]),
    ]


def check_proposition3(k: int, mode: str = "sampled",
                       sample_count: int = 1000, seed: int = 0) -> EquivReport:
    """Compare the stable models of the moving-objects program against
    the first-order characterization: constraint content plus explicit
    definitions of step and next plus successor-state formulas for at.

    Exhaustive enumeration is infeasible for this signature (ternary
    predicates); seeded sampling plus directed interpretations is the
    evidence standard, stated as such in the report.  Samples alternate
    between universe sizes 2 and 3; at k = 1 the directed
    interpretations of ``successor_state_interpretations`` come first."""
    if k < 0:
        raise ValueError("step bound must be nonnegative")
    fixture = builtin_fixture(f"moving({k})")
    prog = desugar(fixture.program)
    rhs = moving_constraint_formulas(k) + moving_successor_state_formulas(k)
    directed = successor_state_interpretations(k) if k == 1 else []
    if mode == "sampled":
        sizes = [2, 3]
        mode_desc = (f"sampled(seed={seed}, count={sample_count}) "
                     f"m in {sizes} + {len(directed)} directed")
        interps = chain(directed,
                        _sampled(prog.signature, sizes, sample_count, seed))
    elif mode == "directed":
        mode_desc = f"{len(directed)} directed"
        interps = directed
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _check(prog, rhs, (), interps,
                  f"moving({k}) vs successor-state formulas", mode_desc)
