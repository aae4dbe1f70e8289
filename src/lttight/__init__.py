"""Completion, tightness and stable-model analysis for logic programs
whose rule bodies are arbitrary first-order formulas."""

__version__ = "0.1.0"

from .completion import (
    CompletionResult, completed_definition, completion, definition_of,
    desugar, simplify, simplify_completion,
)
from .equiv import (
    EquivReport, check_equivalence, check_proposition3,
    successor_state_interpretations,
)
from .fixtures import Fixture, builtin_fixture, fixture_names
from .parser import ParseError, parse_formula, parse_program, parse_sentences
from .semantics import (
    Interpretation, ResourceGuardError, enumerate_interpretations, ground,
    ground_program, interpretation_count, is_sm_model, is_stable,
    is_supported, is_tight_on, make_interpretation, parse_interpretation,
    pnn_nnn, sample_interpretation, satisfies, satisfies_fo, sm_tables,
)
from .syntax import (
    Atom, Equality, Formula, Program, Rule, Variable, free_variables,
    pretty_print, rename_apart, substitute,
)
from .tightness import (
    Chain, PredicateDependencyGraph, TightnessVerdict, chain_formula,
    chains, check_gamma_tight, export_dot, export_tptp, is_tight,
    link_atoms, predicate_dependency_graph,
)
