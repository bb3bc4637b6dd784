"""Data model and concrete syntax for linear constrained Horn clause programs.

A program is a finite set of clauses

    H :- C1, ..., Cm, B1, ..., Bk.

where H is an atom p(X1,...,Xn) with pairwise distinct variable
arguments or the reserved head ``false``, each Ci is a linear
arithmetic constraint over the rationals, and each Bj is an atom.
Clauses with head ``false`` are integrity constraints: the program is
safe when ``false`` is not derivable.

Concrete syntax is Prolog-flavoured.  Variables are uppercase-initial
identifiers, predicates lowercase-initial.  Comparison operators are
``=``, ``=<``, ``<``, ``>=``, ``>``; terms are built from integer and
``n/m`` rational literals, variables, ``+``, ``-``, and multiplication
by a constant.  ``%`` starts a comment running to end of line.

Parsing normalises every clause:

  * constraint rows are moved to a single conjunction, each row stored
    with relation ``=<``, ``<`` or ``=`` (``>=`` and ``>`` are flipped),
  * atom arguments that are non-variable or repeated are replaced by
    fresh variables with defining equalities added to the constraint,
    so ``p(A,A)`` becomes ``p(A,B)`` with ``A - B = 0``,
  * clauses are assigned identifiers c1, c2, ... in source order.

The pretty-printer emits this normal form; printing then reparsing then
printing again is a fixpoint.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping


class CHCError(Exception):
    """Base class for clause-program errors."""


class ParseError(CHCError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ProgramError(CHCError):
    """Structural error: arity clash, false in a body, and similar."""


# Relations kept after normalisation.
REL_LE = "=<"
REL_LT = "<"
REL_EQ = "="

_FLIPPED = {">=": REL_LE, ">": REL_LT}


class Variable(str):
    """A rational-valued logic variable: its name, so it hashes, compares
    and orders as that string does."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return str(self)


# Constraint rows ------------------------------------------------------------


def _format_coeff_var(coeff: Fraction, var: Variable) -> str:
    if coeff == 1:
        return str(var)
    if coeff == -1:
        return f"-{var}"
    return f"{coeff}*{var}"


@dataclass(frozen=True)
class Row:
    """One linear constraint ``sum(coeff * var) rel rhs``.

    terms are sorted by variable name and hold no zero coefficients;
    rel is one of ``=<``, ``<``, ``=``.
    """

    terms: tuple[tuple[Variable, Fraction], ...]
    rel: str
    rhs: Fraction

    @staticmethod
    def make(coeffs: Mapping[Variable, Fraction | int], rel: str, rhs: Fraction | int) -> "Row":
        # a Fraction is kept, not copied: callers mostly build their own
        rhs = rhs if type(rhs) is Fraction else Fraction(rhs)
        items = {v: c if type(c) is Fraction else Fraction(c) for v, c in coeffs.items() if c}
        if rel in _FLIPPED:
            items = {v: -c for v, c in items.items()}
            rhs = -rhs
            rel = _FLIPPED[rel]
        if rel not in (REL_LE, REL_LT, REL_EQ):
            raise ValueError(f"unknown relation {rel!r}")
        terms = tuple(sorted(items.items()))
        # Equalities have no direction; fix the sign of the leading
        # coefficient so either spelling stores the same row.
        if rel == REL_EQ and terms and terms[0][1] < 0:
            terms = tuple((v, -c) for v, c in terms)
            rhs = -rhs
        return Row(terms, rel, rhs)

    def coeffs(self) -> dict[Variable, Fraction]:
        return dict(self.terms)

    def vars(self) -> set[Variable]:
        return {v for v, _ in self.terms}

    def rename(self, mapping: Mapping[Variable, Variable]) -> "Row":
        merged: dict[Variable, Fraction] = {}
        for v, c in self.terms:
            w = mapping.get(v, v)
            merged[w] = merged.get(w, Fraction(0)) + c
        return Row.make(merged, self.rel, self.rhs)

    def pretty(self) -> str:
        if not self.terms:
            lhs = "0"
            rel = self.rel
        else:
            # Flip for display when the leading coefficient is negative,
            # so rows parsed from "A >= 0" print as "A >= 0" again.
            terms, rel, rhs = self.terms, self.rel, self.rhs
            if terms[0][1] < 0:
                terms = tuple((v, -c) for v, c in terms)
                rhs = -rhs
                rel = {REL_LE: ">=", REL_LT: ">", REL_EQ: REL_EQ}[rel]
            parts = [_format_coeff_var(terms[0][1], terms[0][0])]
            for v, c in terms[1:]:
                if c < 0:
                    parts.append(f" - {_format_coeff_var(-c, v)}")
                else:
                    parts.append(f" + {_format_coeff_var(c, v)}")
            lhs = "".join(parts)
            return f"{lhs} {rel} {rhs}"
        return f"{lhs} {rel} {self.rhs}"

    def __str__(self) -> str:
        return self.pretty()


def gcd_fractions(values: Iterable[Fraction]) -> Fraction:
    """Positive rational g with every value an integer multiple of g,
    the multiples collectively coprime."""
    vals = list(values)
    denom = math.lcm(*[v.denominator for v in vals])
    numer = math.gcd(*[abs(v.numerator) * (denom // v.denominator) for v in vals])
    return Fraction(numer, denom)


@dataclass(frozen=True)
class LinConstraint:
    """A finite conjunction of rows; the empty conjunction is true.

    Memo keys hash the same constraint many times, so its hash is
    computed on first use and kept.  The cache is no field: ==, repr and
    pickling ignore it.
    """

    rows: tuple[Row, ...] = ()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.rows,))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # a variable hashes as its name, which differs between processes
        return LinConstraint, (self.rows,)

    def vars(self) -> set[Variable]:
        out: set[Variable] = set()
        for row in self.rows:
            out |= row.vars()
        return out

    def conjoin(self, *others: "LinConstraint") -> "LinConstraint":
        rows = list(self.rows)
        for o in others:
            rows.extend(o.rows)
        return LinConstraint(tuple(rows))

    def __and__(self, other: "LinConstraint") -> "LinConstraint":
        return self.conjoin(other)

    def rename(self, mapping: Mapping[Variable, Variable]) -> "LinConstraint":
        return LinConstraint(tuple(row.rename(mapping) for row in self.rows))

    def pretty(self) -> str:
        if not self.rows:
            return "true"
        return ", ".join(row.pretty() for row in self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return self.pretty()


TRUE = LinConstraint(())
FALSE = LinConstraint((Row((), REL_LE, Fraction(-1)),))


# Atoms, clauses, programs ---------------------------------------------------

FALSE_PRED = "false"


@dataclass(frozen=True)
class Atom:
    """A predicate applied to distinct variables; ``false`` is 0-ary."""

    pred: str
    args: tuple[Variable, ...] = ()

    @property
    def is_false(self) -> bool:
        return self.pred == FALSE_PRED

    def rename(self, mapping: Mapping[Variable, Variable]) -> "Atom":
        return Atom(self.pred, tuple(mapping.get(v, v) for v in self.args))

    def pretty(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(str(v) for v in self.args)})"

    def __str__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class Clause:
    """One Horn clause in normal form.

    origin carries the identifier of the clause this one was generated
    from during refinement; None for clauses parsed from source.
    """

    cid: str
    head: Atom
    constraint: LinConstraint
    body: tuple[Atom, ...]
    origin: str | None = None

    def vars(self) -> set[Variable]:
        out = set(self.head.args)
        out |= self.constraint.vars()
        for atom in self.body:
            out |= set(atom.args)
        return out

    def pretty(self) -> str:
        items = []
        if self.constraint.rows:
            items.extend(row.pretty() for row in self.constraint.rows)
        items.extend(atom.pretty() for atom in self.body)
        if not items:
            return f"{self.head.pretty()}."
        return f"{self.head.pretty()} :- {', '.join(items)}."

    def __str__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class Program:
    """An ordered clause set with a consistent predicate arity map."""

    clauses: tuple[Clause, ...]
    arities: Mapping[str, int] = field(default_factory=dict)
    _by_id: dict[str, Clause] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.arities:
            object.__setattr__(self, "arities", _collect_arities(self.clauses))
        by_id: dict[str, Clause] = {}
        for clause in self.clauses:
            if by_id.setdefault(clause.cid, clause) is not clause:
                raise ProgramError(f"clause id {clause.cid!r} used twice")
        object.__setattr__(self, "_by_id", by_id)

    @property
    def predicates(self) -> set[str]:
        return set(self.arities)

    def clause_by_id(self, cid: str) -> Clause:
        try:
            return self._by_id[cid]
        except KeyError:
            raise KeyError(f"no clause with id {cid!r}") from None

    def clause_ids(self) -> list[str]:
        return [c.cid for c in self.clauses]

    def pretty(self) -> str:
        return "\n".join(c.pretty() for c in self.clauses) + "\n"

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)


def _collect_arities(clauses: Iterable[Clause]) -> dict[str, int]:
    arities: dict[str, int] = {}
    for clause in clauses:
        for atom in (clause.head, *clause.body):
            if atom.is_false:
                continue
            prev = arities.setdefault(atom.pred, len(atom.args))
            if prev != len(atom.args):
                raise ProgramError(
                    f"predicate {atom.pred} used with arities {prev} and {len(atom.args)}"
                )
    return arities


# Tokenizer ------------------------------------------------------------------

_PUNCT2 = (":-", "=<", ">=")
_PUNCT1 = "().,=<>+-*"
_NUMBER = re.compile(r"([0-9]+)(?:/([0-9]+))?")

# Most digits in a numerator or denominator the parser builds, as a
# literal or by folding constants.
MAX_DIGITS = 1000
# Most digits in a numerator or denominator a projection returns: the
# report prints every number, and Python refuses to print an int of more
# than 4,300 digits.
MAX_PRINTED_DIGITS = 4300


class NumberTooLongError(ArithmeticError):
    """Analysis built a number of more than MAX_PRINTED_DIGITS digits."""


def too_long(numbers: Iterable[Fraction], digits: int) -> bool:
    """Has any of numbers a numerator or denominator of more than
    digits digits?"""
    bound = _power_of_ten(digits)
    return any(abs(c.numerator) >= bound or c.denominator >= bound for c in numbers)


@functools.cache
def _power_of_ten(digits: int) -> int:
    return 10**digits


@dataclass(frozen=True)
class _Token:
    kind: str  # lident | var | number | punct | eof
    value: str | Fraction
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if word[0].isupper() else "lident"
            tokens.append(_Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        match = _NUMBER.match(text, i)
        if match:
            # an integer or an n/m rational literal
            numer, denom = match.group(1), match.group(2) or "1"
            if max(len(numer), len(denom)) > MAX_DIGITS:
                raise ParseError(f"number longer than {MAX_DIGITS} digits", start_line, start_col)
            if int(denom) == 0:
                raise ParseError("rational literal with zero denominator", start_line, start_col)
            value = Fraction(int(numer), int(denom))
            j = match.end()
            tokens.append(_Token("number", value, start_line, start_col))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append(_Token("punct", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if ch == ":":
            raise ParseError("expected ':-'", start_line, start_col)
        if ch in _PUNCT1:
            tokens.append(_Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# Parser ---------------------------------------------------------------------

# Deepest parenthesis nesting accepted; each level takes three frames
# of the recursive descent, so this keeps far below the stack limit.
MAX_NESTING = 100


class _LinExpr:
    """Parse-time linear expression: coefficient map plus constant."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: dict[Variable, Fraction] | None = None, const: Fraction = Fraction(0)):
        self.coeffs = coeffs or {}
        self.const = const

    def add(self, other: "_LinExpr", sign: int) -> "_LinExpr":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) + sign * c
        return _LinExpr(coeffs, self.const + sign * other.const)

    def scale(self, k: Fraction) -> "_LinExpr":
        return _LinExpr({v: k * c for v, c in self.coeffs.items()}, k * self.const)

    def as_plain_var(self) -> Variable | None:
        if self.const == 0 and len(self.coeffs) == 1:
            (v, c), = self.coeffs.items()
            if c == 1:
                return v
        return None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    # token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, value: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.value != value:
            raise ParseError(f"expected {value!r}", tok.line, tok.col)
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    @staticmethod
    def bounded(expr: _LinExpr, tok: _Token) -> _LinExpr:
        """expr, unless folding constants at tok made a number too long."""
        if too_long((expr.const, *expr.coeffs.values()), MAX_DIGITS):
            raise ParseError(f"number longer than {MAX_DIGITS} digits", tok.line, tok.col)
        return expr

    # grammar

    def parse_program_items(self) -> list[tuple[Atom | _RawAtom, list]]:
        clauses = []
        while self.peek().kind != "eof":
            clauses.append(self.parse_clause())
        return clauses

    def parse_clause(self):
        head_tok = self.peek()
        head = self.parse_atom()
        body: list = []
        if self.at_punct(":-"):
            self.next()
            body.append(self.parse_body_item())
            while self.at_punct(","):
                self.next()
                body.append(self.parse_body_item())
        self.expect_punct(".")
        return (head, body, head_tok)

    def parse_body_item(self):
        tok = self.peek()
        if tok.kind == "lident":
            return self.parse_atom()
        return self.parse_row()

    def parse_atom(self) -> "_RawAtom":
        tok = self.next()
        if tok.kind != "lident":
            raise ParseError("expected a predicate name", tok.line, tok.col)
        args: list[_LinExpr] = []
        if self.at_punct("("):
            self.next()
            args.append(self.parse_expr())
            while self.at_punct(","):
                self.next()
                args.append(self.parse_expr())
            self.expect_punct(")")
        return _RawAtom(str(tok.value), args, tok.line, tok.col)

    def parse_row(self) -> Row:
        lhs = self.parse_expr()
        tok = self.next()
        if tok.kind != "punct" or tok.value not in ("=", "=<", "<", ">=", ">"):
            raise ParseError("expected a comparison operator", tok.line, tok.col)
        rhs = self.parse_expr()
        diff = self.bounded(lhs.add(rhs, -1), tok)
        return Row.make(diff.coeffs, str(tok.value), -diff.const)

    def parse_expr(self) -> _LinExpr:
        expr = self.parse_addend()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.next()
            expr = self.bounded(expr.add(self.parse_addend(), 1 if op.value == "+" else -1), op)
        return expr

    def parse_addend(self) -> _LinExpr:
        expr = self.parse_primary()
        while self.at_punct("*"):
            star = self.next()
            other = self.parse_primary()
            if expr.coeffs and other.coeffs:
                raise ParseError("non-linear term", star.line, star.col)
            if other.coeffs:
                expr, other = other, expr
            expr = self.bounded(expr.scale(other.const), star)
        return expr

    def parse_primary(self) -> _LinExpr:
        # unary minus in a loop, so a long run of signs needs no stack
        tok = self.next()
        negate = False
        while tok.kind == "punct" and tok.value == "-":
            negate = not negate
            tok = self.next()
        if tok.kind == "var":
            expr = _LinExpr({Variable(str(tok.value)): Fraction(1)})
        elif tok.kind == "number":
            assert isinstance(tok.value, Fraction)
            expr = _LinExpr(const=tok.value)
        elif tok.kind == "punct" and tok.value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.col)
            self.depth += 1
            expr = self.parse_expr()
            self.depth -= 1
            self.expect_punct(")")
        else:
            raise ParseError("expected a variable, number or '('", tok.line, tok.col)
        return expr.scale(Fraction(-1)) if negate else expr


@dataclass
class _RawAtom:
    pred: str
    args: list[_LinExpr]
    line: int
    col: int


_FRESH_NAMES = [chr(c) for c in range(ord("A"), ord("Z") + 1)]


def _fresh_var(used: set[Variable]) -> Variable:
    for name in _FRESH_NAMES:
        v = Variable(name)
        if v not in used:
            return v
    i = 1
    while True:
        v = Variable(f"V{i}")
        if v not in used:
            return v
        i += 1


def _normalise_atom(raw: _RawAtom, used: set[Variable], seen_args: set[Variable], extra_rows: list[Row]) -> Atom:
    """Force atom arguments to pairwise distinct variables.

    Non-variable or repeated arguments are replaced by a fresh variable
    with a defining equality appended to extra_rows.
    """
    out: list[Variable] = []
    for expr in raw.args:
        var = expr.as_plain_var()
        if var is not None and var not in seen_args:
            seen_args.add(var)
            used.add(var)
            out.append(var)
            continue
        fresh = _fresh_var(used)
        used.add(fresh)
        seen_args.add(fresh)
        coeffs = dict(expr.coeffs)
        coeffs[fresh] = coeffs.get(fresh, Fraction(0)) - 1
        extra_rows.append(Row.make(coeffs, REL_EQ, -expr.const))
        out.append(fresh)
    return Atom(raw.pred, tuple(out))


def parse_program(text: str) -> Program:
    """Parse a clause program; clauses get ids c1, c2, ... in source order."""
    parser = _Parser(text)
    raw_clauses = parser.parse_program_items()
    clauses: list[Clause] = []
    for index, (raw_head, raw_body, head_tok) in enumerate(raw_clauses, start=1):
        rows: list[Row] = []
        atoms: list[_RawAtom] = []
        for item in raw_body:
            if isinstance(item, Row):
                rows.append(item)
            else:
                atoms.append(item)
        used: set[Variable] = set()
        for item in (raw_head, *atoms):
            for expr in item.args:
                used |= set(expr.coeffs)
        for row in rows:
            used |= row.vars()

        if raw_head.pred == FALSE_PRED and raw_head.args:
            raise ParseError("false takes no arguments", raw_head.line, raw_head.col)
        extra: list[Row] = []
        head = _normalise_atom(raw_head, used, set(), extra)
        body: list[Atom] = []
        for raw_atom in atoms:
            if raw_atom.pred == FALSE_PRED:
                raise ParseError("false cannot occur in a clause body", raw_atom.line, raw_atom.col)
            body.append(_normalise_atom(raw_atom, used, set(), extra))
        clauses.append(
            Clause(
                cid=f"c{index}",
                head=head,
                constraint=LinConstraint(tuple(rows + extra)),
                body=tuple(body),
            )
        )
    return Program(tuple(clauses))


def parse_constraint(text: str) -> LinConstraint:
    """Parse a comma-separated row conjunction, e.g. ``A >= 0, A - B = 1``."""
    parser = _Parser(text)
    rows = [parser.parse_row()]
    while parser.at_punct(","):
        parser.next()
        rows.append(parser.parse_row())
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input after constraint", tok.line, tok.col)
    return LinConstraint(tuple(rows))


def strict_to_nonstrict(program: Program) -> Program:
    """Tighten every strict row t < b into t =< ceil(b) - 1, after
    scaling t to coprime integer coefficients.

    Sound only for integer-valued programs: there the scaled t takes
    integer values, so both forms have the same solutions.  Over the
    rationals this shrinks the clause semantics.  Offered because
    polyhedral analyses tend to behave better on closed constraints.
    """
    def tighten_row(row: Row) -> Row:
        if row.rel != REL_LT:
            return row
        scale = 1 / gcd_fractions(c for _, c in row.terms) if row.terms else Fraction(1)
        terms = tuple((v, c * scale) for v, c in row.terms)
        return Row(terms, REL_LE, Fraction(math.ceil(row.rhs * scale) - 1))

    def tighten(constraint: LinConstraint) -> LinConstraint:
        return LinConstraint(tuple(tighten_row(row) for row in constraint.rows))

    return Program(
        tuple(
            Clause(c.cid, c.head, tighten(c.constraint), c.body, origin=c.origin)
            for c in program
        )
    )
