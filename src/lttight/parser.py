"""Parser for the program and formula grammar.

One statement per ``.``:
  - ``HeadAtom :- Body.``  rule
  - ``HeadAtom.``          fact
  - ``:- Body.``           constraint
  - ``{HeadAtom} :- Body.`` / ``{HeadAtom}.``  choice rule
  - ``#extensional p/2.``  directive

Identifiers starting lowercase are constants/predicates; starting
uppercase are variables.  Body connectives: ``,``/``&``, ``|``, ``->``,
``not``, ``true``, ``false``, ``=``, ``!=``, ``forall X (F)``,
``exists X (F)``; ``<->`` is sugar for the two implications.
Precedence: ``not`` > ``&`` > ``|`` > ``->`` (right-associative).
``%`` starts a comment running to end of line.
"""

from __future__ import annotations

import re
from typing import Optional

from .syntax import (
    BASIC, BOT, CHOICE, CONSTRAINT, TOP, Atom, Equality, Exists, Forall,
    Implies, ObjectConstant, Program, Rule, Variable, conjoin, disjoin,
    free_variables, iff, neg,
)


# Deepest nesting a formula may have, counting parentheses, ``not``,
# quantifiers and right-nested ``->``.  The parser, the printers and the
# evaluators recurse per level; this keeps them inside Python's default
# limit of 1,000 frames.
MAX_NESTING = 50

# Most leaf copies that expanding every ``<->`` of a rule body or
# sentence may add to it.  ``F <-> G`` becomes ``(F -> G) & (G -> F)``,
# two copies of each side, and every atom, equality, ``true`` and
# ``false`` counts as a leaf.  Each side holds a leaf, so one more level
# of ``<->`` at least doubles the expansion: eight levels over single
# leaves add 757 copies and parse, nine add 1,524 and do not.  ``chains
# --n 1`` on ``p(X) :- B. {q(X)}.``, with B the balanced nesting of
# ``q(X)`` of height h, takes 0.13 s at h = 4 (240 copies), 1.8 s at
# h = 5 (992) and 32 s at h = 6 (4,032); on a chain of eight ``<->`` (757
# copies) it takes 1.2 s (2-core Xeon VM, Python 3.11).
MAX_IFF_COPIES = 1024


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_KEYWORDS = {"not", "true", "false", "forall", "exists"}

_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+|%[^\n]*)
      | (?P<EXT>\#extensional\b)
      | (?P<IFF><->)
      | (?P<ARROW>->)
      | (?P<NEQ>!=)
      | (?P<RULEOP>:-)
      | (?P<INT>\d+)
      | (?P<IDENT>[a-z][A-Za-z0-9_]*)
      | (?P<VAR>[A-Z][A-Za-z0-9_]*)
      | (?P<PUNCT>[().,{}&|=/])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str) -> list:
    """The tokens of ``text`` in one pass, each at its line and column
    (1-based; a column counts characters from the start of its line)."""
    tokens = []
    append = tokens.append
    line, line_start = 1, 0     # line_start: offset of the line's first character
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:        # the search skipped a character no token matches
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "WS":
            last = text.rfind("\n", start, pos)
            if last >= 0:
                line += text.count("\n", start, pos)
                line_start = last + 1
            continue
        value = m.group()
        if kind == "PUNCT":
            kind = value
        elif kind == "IDENT" and value in _KEYWORDS:
            kind = "KEYWORD"
        append(_Token(kind, value, line, start - line_start + 1))
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}",
                         line, pos - line_start + 1)
    append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # leaf occurrences of the current top-level formula,
        # in its text and once every <-> is expanded (see MAX_IFF_COPIES)
        self.leaves = 0
        self.size = 0
        self.arities: dict = {}
        self.constants: set = set()
        self.extensional: dict = {}

    # -- token plumbing

    def peek(self) -> _Token:
        # ``next`` never moves past the final EOF token, so this index
        # stays inside the list.
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Optional[_Token]:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str = "") -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            expected = what or kind
            raise ParseError(f"expected {expected}, found {tok.value!r}",
                             tok.line, tok.col)
        return self.next()

    def error(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def nested(self, parse):
        """``parse()`` one nesting level down; see MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.error(f"formula nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    # -- signature bookkeeping

    def record_predicate(self, name: str, arity: int, tok: _Token):
        if name in self.arities and self.arities[name] != arity:
            self.error(
                f"arity mismatch for {name}: used with {arity}, "
                f"previously {self.arities[name]}", tok)
        self.arities.setdefault(name, arity)

    # -- statements

    def parse_program(self) -> Program:
        rules = []
        while self.peek().kind != "EOF":
            if self.accept("EXT"):
                tok = self.expect("IDENT", "predicate name")
                self.expect("/")
                arity_tok = self.expect("INT", "arity")
                self.expect(".")
                self.record_predicate(tok.value, int(arity_tok.value), tok)
                self.extensional[tok.value] = int(arity_tok.value)
                continue
            rules.append(self.parse_rule())
        intensional = frozenset(self.arities) - frozenset(self.extensional)
        return Program(
            predicates=tuple(sorted(self.arities.items())),
            constants=tuple(sorted(self.constants)),
            rules=tuple(rules),
            intensional=intensional,
        )

    def parse_rule(self) -> Rule:
        if self.accept("RULEOP"):
            body = self.formula()
            self.expect(".")
            return Rule(CONSTRAINT, None, body)
        if self.accept("{"):
            head = self.head_atom()
            self.expect("}")
            body = TOP
            if self.accept("RULEOP"):
                body = self.formula()
            self.expect(".")
            return Rule(CHOICE, head, body)
        head = self.head_atom()
        body = TOP
        if self.accept("RULEOP"):
            body = self.formula()
        self.expect(".")
        return Rule(BASIC, head, body)

    def head_atom(self) -> Atom:
        tok = self.expect("IDENT", "predicate name")
        args = ()
        if self.accept("("):
            args = self.term_list()
            self.expect(")")
        self.record_predicate(tok.value, len(args), tok)
        return Atom(tok.value, args)

    def term_list(self) -> tuple:
        terms = [self.term()]
        while self.accept(","):
            terms.append(self.term())
        return tuple(terms)

    def term(self):
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return Variable(tok.value)
        if tok.kind == "IDENT":
            self.next()
            self.constants.add(tok.value)
            return ObjectConstant(tok.value)
        self.error(f"expected term, found {tok.value!r}")

    # -- formulas

    def leaf(self, f):
        """An atom, equality, ``true`` or ``false`` just read: one
        occurrence more."""
        self.leaves += 1
        self.size += 1
        return f

    def formula(self):
        if self.depth == 0:     # a rule body or sentence starts
            self.leaves = self.size = 0
        start = self.size
        f = self.impl()
        while self.peek().kind == "IFF":
            tok = self.next()
            g = self.impl()
            self.size += self.size - start      # a second copy of f and g
            if self.size - self.leaves > MAX_IFF_COPIES:
                self.error(f"'<->' expands to more than {MAX_IFF_COPIES} "
                           "leaf copies", tok)
            f = iff(f, g)
        return f

    def impl(self):
        f = self.disj()
        if self.accept("ARROW"):
            return Implies(f, self.nested(self.impl))
        return f

    def disj(self):
        items = [self.conj()]
        while self.accept("|"):
            items.append(self.conj())
        return disjoin(items)

    def conj(self):
        items = [self.unary()]
        while self.peek().kind in (",", "&"):
            self.next()
            items.append(self.unary())
        return conjoin(items)

    def unary(self):
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.value == "not":
            self.next()
            return neg(self.nested(self.unary))
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok.kind == "KEYWORD":
            if tok.value == "true":
                self.next()
                return self.leaf(TOP)
            if tok.value == "false":
                self.next()
                return self.leaf(BOT)
            if tok.value in ("forall", "exists"):
                self.next()
                var_tok = self.expect("VAR", "variable")
                self.expect("(")
                body = self.nested(self.formula)
                self.expect(")")
                cls = Forall if tok.value == "forall" else Exists
                return cls(Variable(var_tok.value), body)
            self.error(f"unexpected keyword {tok.value!r}")
        if tok.kind == "(":
            self.next()
            f = self.nested(self.formula)
            self.expect(")")
            return f
        if tok.kind == "VAR":
            left = self.term()
            return self.equality_tail(left, tok)
        if tok.kind == "IDENT":
            self.next()
            if self.peek().kind == "(":
                self.next()
                args = self.term_list()
                self.expect(")")
                if self.peek().kind in ("=", "NEQ"):
                    self.error("atoms cannot be equated", self.peek())
                self.record_predicate(tok.value, len(args), tok)
                return self.leaf(Atom(tok.value, args))
            if self.peek().kind in ("=", "NEQ"):
                self.constants.add(tok.value)
                return self.equality_tail(ObjectConstant(tok.value), tok)
            self.record_predicate(tok.value, 0, tok)
            return self.leaf(Atom(tok.value, ()))
        self.error(f"expected formula, found {tok.value!r}")

    def equality_tail(self, left, tok):
        op = self.peek()
        if op.kind == "=":
            self.next()
            return self.leaf(Equality(left, self.term()))
        if op.kind == "NEQ":
            self.next()
            return neg(self.leaf(Equality(left, self.term())))
        self.error("a variable is not a formula by itself", tok)


def parse_program(text: str) -> Program:
    """Parse a program.  With no #extensional directive, every predicate
    is intensional."""
    return _Parser(text).parse_program()


def parse_formula(text: str):
    """Parse a single formula (no trailing ``.`` required)."""
    parser = _Parser(text)
    f = parser.formula()
    parser.accept(".")
    parser.expect("EOF", "end of input")
    return f


def parse_sentences(text: str) -> list:
    """Parse a ``.``-separated list of closed formulas (e.g. a Gamma file)."""
    parser = _Parser(text)
    out = []
    while parser.peek().kind != "EOF":
        tok = parser.peek()
        f = parser.formula()
        parser.expect(".")
        free = free_variables(f)
        if free:
            names = ", ".join(sorted(v.name for v in free))
            parser.error(f"sentence has free variables: {names}", tok)
        out.append(f)
    return out
