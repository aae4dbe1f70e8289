"""Executable comparison of stable-model semantics against completion:
for each interpretation satisfying the assumptions, the stable-model
check and the completion check must agree.  Each check reads the rules
once into a function that gives an interpretation's rule bindings
(``depth_cuts``' cuts for ``check_equivalence``, ``compile_rules`` for
``check_proposition3``) and hands them to ``is_sm_model``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from random import Random

from .completion import completion, simplify_completion
from .fixtures import (
    builtin_fixture, moving_constraint_formulas,
    moving_successor_state_formulas,
)
from .semantics import (
    GAMMA, REJECT, Interpretation, ResourceGuardError, compile_rules,
    compile_sentence, depth_cuts, enumerate_interpretations, enumeration_key,
    is_sm_model, orbit, orbit_size, sample_interpretation,
    satisfies_fo,  # noqa: F401 -- kept importable: bench/tracer.py wraps it
    sm_tables,
)
from .syntax import Program, conjoin, formula_to_str

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
    if not gamma:
        return "(empty)"
    return "; ".join(formula_to_str(g) for g in gamma)


def _check(tables: tuple, comp_sentences, gamma, interps, program_id: str,
           mode_desc: str, dropped: Counter, orbits=False) -> EquivReport:
    """Compare every interpretation of the source ``interps``, each
    with its rules' bindings, None on a classical non-model; one whose
    stability check trips the cap is counted as guard-skipped instead of
    checked.  ``tables`` are the program's ``sm_tables``, passed to
    every ``is_sm_model`` call; the completion is compiled once here.

    The source is screened, by ``depth_cuts`` or none: what it dropped is
    counted in ``dropped``, under GAMMA as skipped by Gamma and under
    REJECT as checked and both-reject.  Every model of ``comp_sentences``
    satisfies the program read classically, as every stable model does,
    so such an interpretation needs neither check.  With ``orbits``, each
    interpretation stands for its orbit under permutations of the
    universe: it is counted ``orbit_size`` times, and a disagreement is
    reported for each member of its ``orbit``, in enumeration order."""
    comp_holds = compile_sentence(conjoin(comp_sentences))
    disagreements = []
    checked = guard_skipped = both_accept = both_reject = 0
    for interp, bindings in interps:
        weight = orbit_size(interp) if orbits else 1
        try:
            sm = is_sm_model(tables, interp, bindings)
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
    return EquivReport(program_id, _gamma_desc(gamma), mode_desc,
                       checked + dropped[REJECT], tuple(disagreements),
                       guard_skipped, dropped[GAMMA], both_accept,
                       both_reject + dropped[REJECT])


def _sampled(sig, sizes: list, count: int, seed: int):
    """``count`` seeded samples, cycling through the universe ``sizes``."""
    rng = Random(seed)
    for i in range(count):
        yield sample_interpretation(sig, sizes[i % len(sizes)], rng)


def check_equivalence(prog: Program, gamma, m_max: int,
                      sample_count: int | None = None, seed: int = 0,
                      program_id: str = "program") -> EquivReport:
    """Compare stable models with completion models over the
    interpretations with universe size up to ``m_max`` that satisfy
    Gamma: all of them when ``sample_count`` is None, else that many
    seeded samples.  Both sides see the constraint sentences and Gamma
    identically.

    An interpretation that violates the program read classically (the
    rules of its ``sm_tables``) is counted as both-reject without either
    check: the completion holds the constraints, and every rule is the
    if-half of its head's completed definition.  Gamma and the rules are
    compiled once per check, only into ``depth_cuts``, as
    ``check_gamma_tight`` compiles Gamma and the completion, and a
    sample is screened by all of them; the stable-model check folds the
    rule bindings the cuts record.  The completion is simplified
    (``simplify_completion``) and compiled once, in ``_check``.  An
    exhaustive check walks the interpretations one predicate at a time
    and drops a subtree at the first cut that fails, so only those that
    pass every cut are built whole.  It visits one constant map per
    orbit under permutations of the universe and counts each
    interpretation for its orbit; the report is the one enumerating and
    screening every interpretation would give."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    gamma = list(gamma)
    tables = sm_tables(prog)
    dropped = Counter()
    cuts, with_bindings = depth_cuts(prog.signature, gamma, dropped,
                                     rules=tables[0])
    if sample_count is None:
        mode_desc = f"exhaustive m<={m_max}"
        interps = chain.from_iterable(
            enumerate_interpretations(prog.signature, m, canonical=True,
                                      cuts=cuts)
            for m in range(1, m_max + 1))
    else:
        mode_desc = f"sampled(seed={seed}, count={sample_count}) m<={m_max}"
        # each whole sample tried by the cuts in depth order
        interps = (i for i in _sampled(prog.signature,
                                       list(range(1, m_max + 1)),
                                       sample_count, seed)
                   if not any(cut(i, 1) for cut in cuts if cut is not None))
    return _check(tables, simplify_completion(completion(prog)).sentences(),
                  gamma,
                  with_bindings(interps), program_id, mode_desc, dropped,
                  orbits=sample_count is None)


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


def check_proposition3(k: int, sample_count: int = 1000,
                       seed: int = 0) -> EquivReport:
    """Compare the stable models of the moving-objects program against
    the first-order characterization: constraint content plus explicit
    definitions of step and next plus successor-state formulas for at.

    Exhaustive enumeration is infeasible for this signature (ternary
    predicates); ``sample_count`` seeded samples plus directed
    interpretations is the evidence standard, stated as such in the
    report.  Samples alternate between universe sizes 2 and 3; at k = 1
    the directed interpretations of ``successor_state_interpretations``
    come first, so ``sample_count=0`` checks only those."""
    if k < 0:
        raise ValueError("step bound must be nonnegative")
    fixture = builtin_fixture(f"moving({k})")
    prog = fixture.program
    rhs = moving_constraint_formulas(k) + moving_successor_state_formulas(k)
    directed = successor_state_interpretations(k) if k == 1 else []
    sizes = [2, 3]
    mode_desc = (f"sampled(seed={seed}, count={sample_count}) "
                 f"m in {sizes} + {len(directed)} directed")
    interps = chain(directed,
                    _sampled(prog.signature, sizes, sample_count, seed))
    tables = sm_tables(prog)
    bindings = compile_rules(tables[0])
    return _check(tables, rhs, (), ((i, bindings(i)) for i in interps),
                  f"moving({k}) vs successor-state formulas", mode_desc,
                  Counter())
