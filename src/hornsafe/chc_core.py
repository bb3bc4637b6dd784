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


def _ratio(num: int, den: int) -> str:
    """num/den as str(Fraction(num, den)) prints it, for den > 0."""
    if den != 1:
        g = math.gcd(num, den)
        num //= g
        den //= g
        if den != 1:
            return f"{num}/{den}"
    return str(num)


def _format_coeff_var(coeff: int, den: int, var: Variable) -> str:
    if coeff == den:
        return str(var)
    if coeff == -den:
        return f"-{var}"
    return f"{_ratio(coeff, den)}*{var}"


_DISPLAY_FLIP = {REL_LE: ">=", REL_LT: ">", REL_EQ: REL_EQ}


class Row:
    """One linear constraint ``sum(coeff * var) rel rhs``, rel one of
    ``=<``, ``<``, ``=``, stored fraction-free.

    names holds the variables sorted by name, ints their nonzero int
    coefficients and num the int right-hand side, all over the
    positive int den, with gcd(ints, num, den) = 1.  That is the row
    times the lcm of its rational numbers' denominators, so each
    rational row has exactly one form, and the row is not rescaled
    otherwise: ``2*X =< 4`` stays ``2*X =< 4``.  An equality's leading
    coefficient is positive, so either spelling stores the same row.
    ==, hash, vars, rename and pretty build no Fraction; terms and rhs
    are Fraction views built on request.  A row is never
    changed once built: memo keys hash it.  The constructor takes the
    stored form as it is; make and of_ints build it.
    """

    __slots__ = ("names", "ints", "rel", "num", "den")

    def __init__(self, names: tuple[Variable, ...], ints: tuple[int, ...], rel: str, num: int, den: int):
        self.names = names
        self.ints = ints
        self.rel = rel
        self.num = num
        self.den = den

    @staticmethod
    def make(coeffs: Mapping[Variable, Fraction | int], rel: str, rhs: Fraction | int) -> "Row":
        """The row ``sum(coeffs[v] * v) rel rhs``, rel also ``>=`` or ``>``."""
        items = sorted([(v, c) for v, c in coeffs.items() if c])
        if rel in _FLIPPED:
            items = [(v, -c) for v, c in items]
            rhs = -rhs
            rel = _FLIPPED[rel]
        if rel not in (REL_LE, REL_LT, REL_EQ):
            raise ValueError(f"unknown relation {rel!r}")
        den = math.lcm(rhs.denominator, *[c.denominator for _, c in items])
        ints = [c.numerator * (den // c.denominator) for _, c in items]
        num = rhs.numerator * (den // rhs.denominator)
        # no common factor is left: the highest power of a prime in den
        # divides some number's denominator, and not its numerator
        return Row._signed(tuple([v for v, _ in items]), ints, rel, num, den)

    @staticmethod
    def of_ints(coeffs: Mapping[Variable, int], rel: str, num: int, den: int) -> "Row":
        """The row ``sum(coeffs[v] * v) rel num`` over the positive den,
        rel one of ``=<``, ``<``, ``=``."""
        items = sorted([(v, c) for v, c in coeffs.items() if c])
        ints = [c for _, c in items]
        g = math.gcd(den, num, *ints)
        if g > 1:
            ints = [c // g for c in ints]
            num //= g
            den //= g
        return Row._signed(tuple([v for v, _ in items]), ints, rel, num, den)

    @staticmethod
    def _signed(names: tuple[Variable, ...], ints: list[int], rel: str, num: int, den: int) -> "Row":
        # Equalities have no direction; fix the sign of the leading
        # coefficient so either spelling stores the same row.
        if rel == REL_EQ and ints and ints[0] < 0:
            ints = [-c for c in ints]
            num = -num
        return Row(names, tuple(ints), rel, num, den)

    @property
    def terms(self) -> tuple[tuple[Variable, Fraction], ...]:
        den = self.den
        return tuple([(v, Fraction(c, den)) for v, c in zip(self.names, self.ints)])

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.num, self.den)

    def vars(self) -> set[Variable]:
        return set(self.names)

    def rename(self, mapping: Mapping[Variable, Variable]) -> "Row":
        names = self.names
        if not names:
            return self
        pairs = sorted(zip(map(mapping.get, names, names), self.ints))
        renamed = tuple([v for v, _ in pairs])
        if len(set(renamed)) < len(renamed):
            merged: dict[Variable, int] = {}
            for v, c in pairs:
                merged[v] = merged.get(v, 0) + c
            return Row.of_ints(merged, self.rel, self.num, self.den)
        return Row._signed(renamed, [c for _, c in pairs], self.rel, self.num, self.den)

    def pretty(self) -> str:
        names, ints, rel, num, den = self.names, self.ints, self.rel, self.num, self.den
        if not names:
            return f"0 {rel} {_ratio(num, den)}"
        # Flip for display when the leading coefficient is negative,
        # so rows parsed from "A >= 0" print as "A >= 0" again.
        if ints[0] < 0:
            ints = [-c for c in ints]
            num = -num
            rel = _DISPLAY_FLIP[rel]
        parts = [_format_coeff_var(ints[0], den, names[0])]
        for v, c in zip(names[1:], ints[1:]):
            if c < 0:
                parts.append(f" - {_format_coeff_var(-c, den, v)}")
            else:
                parts.append(f" + {_format_coeff_var(c, den, v)}")
        return f"{''.join(parts)} {rel} {_ratio(num, den)}"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Row:
            return NotImplemented
        return (
            self.num == other.num
            and self.den == other.den
            and self.rel == other.rel
            and self.names == other.names
            and self.ints == other.ints
        )

    def __hash__(self) -> int:
        return hash((self.names, self.ints, self.rel, self.num, self.den))

    def __reduce__(self):
        return Row, (self.names, self.ints, self.rel, self.num, self.den)

    def __repr__(self) -> str:
        return f"Row(terms={self.terms!r}, rel={self.rel!r}, rhs={self.rhs!r})"

    def __str__(self) -> str:
        return self.pretty()


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
        return set().union(*[row.names for row in self.rows])

    def conjoin(self, *others: "LinConstraint") -> "LinConstraint":
        rows = list(self.rows)
        for o in others:
            rows.extend(o.rows)
        return LinConstraint(tuple(rows))

    def rename(self, mapping: Mapping[Variable, Variable]) -> "LinConstraint":
        return LinConstraint(tuple(row.rename(mapping) for row in self.rows))

    def pretty(self) -> str:
        if not self.rows:
            return "true"
        return ", ".join(row.pretty() for row in self.rows)

    def __str__(self) -> str:
        return self.pretty()


TRUE = LinConstraint(())
FALSE = LinConstraint((Row((), (), REL_LE, -1, 1),))


# Atoms, clauses, programs ---------------------------------------------------

FALSE_PRED = "false"


@dataclass(frozen=True)
class Atom:
    """A predicate applied to distinct variables; ``false`` is 0-ary."""

    pred: str
    args: tuple[Variable, ...] = ()

    def __post_init__(self):
        # a polyhedron is renamed onto the arguments as a mapping, which
        # a repeated argument would make non-injective
        if len(set(self.args)) < len(self.args):
            raise ProgramError(f"repeated argument in {self.pretty()}")

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
    arities: Mapping[str, int] = field(init=False)
    _by_id: dict[str, Clause] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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


# Scanner --------------------------------------------------------------------

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


def rows_too_long(rows: Iterable[Row], digits: int) -> bool:
    """Does any of rows print a number with a numerator or denominator
    of more than digits digits?  A stored int can be larger than the
    reduced fraction it prints as, so only a row with an int past the
    bound is reduced."""
    bound = _power_of_ten(digits)
    for row in rows:
        numbers = (row.num, row.den, *row.ints)
        if max(numbers) >= bound or -min(numbers) >= bound:
            if too_long((Fraction(c, row.den) for c in (row.num, *row.ints)), digits):
                return True
    return False


@functools.cache
def _power_of_ten(digits: int) -> int:
    return 10**digits


# One alternative per kind of lexeme, tried in this order at the current
# offset.  A word must also start with a character that passes
# str.isalpha(), which \w does not check.
_LEXEME = re.compile(
    r"(?P<blank>[ \t\r]+)"
    r"|(?P<comment>%[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<number>(?P<num>[0-9]+)(?:/(?P<den>[0-9]+))?)"
    r"|(?P<word>\w+)"
    r"|(?P<punct>:-|=<|>=|[().,=<>+*-])"
)


def _tokenize(text: str) -> list[tuple]:
    """The tokens of text, each a tuple (kind, value, line, col): kind is
    lident, var, number, punct or eof, a number's value is a Fraction,
    and col counts characters from 1 at the start of the line."""
    tokens: list[tuple] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        match = _LEXEME.match(text, pos)
        col = pos - line_start + 1
        if match is None:
            if text[pos] == ":":
                raise ParseError("expected ':-'", line, col)
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind, value, pos = match.lastgroup, match.group(), match.end()
        if kind == "newline":
            line, line_start = line + 1, pos
        elif kind == "number":
            numer, denom = match.group("num"), match.group("den") or "1"
            if max(len(numer), len(denom)) > MAX_DIGITS:
                raise ParseError(f"number longer than {MAX_DIGITS} digits", line, col)
            if int(denom) == 0:
                raise ParseError("rational literal with zero denominator", line, col)
            tokens.append(("number", Fraction(int(numer), int(denom)), line, col))
        elif kind == "word":
            if not value[0].isalpha():
                raise ParseError(f"unexpected character {value[0]!r}", line, col)
            tokens.append(("var" if value[0].isupper() else "lident", value, line, col))
        elif kind == "punct":
            tokens.append(("punct", value, line, col))
    # a comment on the last line ends the input where it starts
    end = text.find("%", line_start)
    tokens.append(("eof", "", line, (len(text) if end < 0 else end) - line_start + 1))
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
    """Recursive descent over the tokens of a whole text, so a lexical
    error anywhere wins over any other.  A punct token's value is no
    word, number or empty string, so testing the value alone tests for
    punctuation."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    # token plumbing

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, value: str) -> None:
        _, got, line, col = self.next()
        if got != value:
            raise ParseError(f"expected {value!r}", line, col)

    def at_punct(self, value: str) -> bool:
        return self.tokens[self.pos][1] == value

    @staticmethod
    def bounded(expr: _LinExpr, tok: tuple) -> _LinExpr:
        """expr, unless folding constants at tok made a number too long."""
        if too_long((expr.const, *expr.coeffs.values()), MAX_DIGITS):
            raise ParseError(f"number longer than {MAX_DIGITS} digits", tok[2], tok[3])
        return expr

    # grammar

    def parse_clause(self) -> tuple[_RawAtom, list[Row], list[_RawAtom]]:
        """The head, the constraint rows and the body atoms of one clause."""
        head = self.parse_atom()
        rows: list[Row] = []
        atoms: list[_RawAtom] = []
        # ':-' before the first body item, ',' before each further one
        sep = ":-"
        while self.at_punct(sep):
            self.next()
            sep = ","
            if self.peek()[0] == "lident":
                atoms.append(self.parse_atom())
            else:
                rows.append(self.parse_row())
        self.expect_punct(".")
        return head, rows, atoms

    def parse_atom(self) -> _RawAtom:
        kind, pred, line, col = self.next()
        if kind != "lident":
            raise ParseError("expected a predicate name", line, col)
        args: list[_LinExpr] = []
        if self.at_punct("("):
            self.next()
            args.append(self.parse_expr())
            while self.at_punct(","):
                self.next()
                args.append(self.parse_expr())
            self.expect_punct(")")
        return _RawAtom(pred, args, line, col)

    def parse_row(self) -> Row:
        lhs = self.parse_expr()
        tok = self.next()
        if tok[1] not in ("=", "=<", "<", ">=", ">"):
            raise ParseError("expected a comparison operator", tok[2], tok[3])
        rhs = self.parse_expr()
        diff = self.bounded(lhs.add(rhs, -1), tok)
        return Row.make(diff.coeffs, tok[1], -diff.const)

    def parse_expr(self) -> _LinExpr:
        expr = self.parse_addend()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.next()
            expr = self.bounded(expr.add(self.parse_addend(), 1 if op[1] == "+" else -1), op)
        return expr

    def parse_addend(self) -> _LinExpr:
        expr = self.parse_primary()
        while self.at_punct("*"):
            star = self.next()
            other = self.parse_primary()
            if expr.coeffs and other.coeffs:
                raise ParseError("non-linear term", star[2], star[3])
            if other.coeffs:
                expr, other = other, expr
            expr = self.bounded(expr.scale(other.const), star)
        return expr

    def parse_primary(self) -> _LinExpr:
        # unary minus in a loop, so a long run of signs needs no stack
        kind, value, line, col = self.next()
        negate = False
        while value == "-":
            negate = not negate
            kind, value, line, col = self.next()
        if kind == "var":
            expr = _LinExpr({Variable(value): Fraction(1)})
        elif kind == "number":
            expr = _LinExpr(const=value)
        elif value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", line, col)
            self.depth += 1
            expr = self.parse_expr()
            self.depth -= 1
            self.expect_punct(")")
        else:
            raise ParseError("expected a variable, number or '('", line, col)
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
    raw_clauses = []
    while parser.peek()[0] != "eof":
        raw_clauses.append(parser.parse_clause())
    clauses: list[Clause] = []
    for index, (raw_head, rows, atoms) in enumerate(raw_clauses, start=1):
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
    kind, _, line, col = parser.peek()
    if kind != "eof":
        raise ParseError("trailing input after constraint", line, col)
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
        # over the coprime ints / g the bound is num / g
        g = math.gcd(*row.ints) if row.ints else row.den
        return Row(row.names, tuple([c // g for c in row.ints]), REL_LE, -(-row.num // g) - 1, 1)

    def tighten(constraint: LinConstraint) -> LinConstraint:
        return LinConstraint(tuple(tighten_row(row) for row in constraint.rows))

    return Program(
        tuple(
            Clause(c.cid, c.head, tighten(c.constraint), c.body, origin=c.origin)
            for c in program
        )
    )
