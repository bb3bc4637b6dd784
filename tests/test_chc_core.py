import hashlib
import pickle
import random
from dataclasses import fields, replace

import pytest
from fractions import Fraction

from hornsafe.chc_core import (
    FALSE_PRED,
    MAX_DIGITS,
    MAX_NESTING,
    REL_EQ,
    REL_LE,
    REL_LT,
    Atom,
    LinConstraint,
    ParseError,
    Program,
    ProgramError,
    Row,
    Variable,
    parse_constraint,
    parse_program,
    strict_to_nonstrict,
)
from gen import random_program_text
from oracles import integrity_clauses, row_coeffs

FIB = """\
% Fibonacci with an unreachable error state.
fib(A,B) :- A>=0, A=<1, B=1.
fib(A,B) :- A>1, A1=A-1, A2=A-2, B=B1+B2, fib(A1,B1), fib(A2,B2).
false :- A>5, B<A, fib(A,B).
"""


class TestRow:
    def test_zero_coefficients_dropped(self):
        x, y = Variable("X"), Variable("Y")
        r = Row.make({x: 1, y: 0}, REL_LE, 3)
        assert r.vars() == {x}

    def test_ge_flips_to_le(self):
        x = Variable("X")
        assert Row.make({x: 1}, ">=", 2) == Row.make({x: -1}, REL_LE, -2)
        assert Row.make({x: 1}, ">", 2) == Row.make({x: -1}, REL_LT, -2)

    def test_equality_rows_are_direction_canonical(self):
        # A = B - 1 and B = A + 1 must compare equal.
        a, b = Variable("A"), Variable("B")
        r1 = Row.make({a: 1, b: -1}, REL_EQ, -1)
        r2 = Row.make({b: 1, a: -1}, REL_EQ, 1)
        assert r1 == r2

    def test_pretty_flips_negative_leading_coefficient(self):
        x = Variable("X")
        assert Row.make({x: -1}, REL_LE, -2).pretty() == "X >= 2"
        assert Row.make({x: -2}, REL_LT, 0).pretty() == "2*X > 0"

    def test_rename_merges_collapsed_variables(self):
        x, y = Variable("X"), Variable("Y")
        r = Row.make({x: 2, y: 3}, REL_LE, 1).rename({y: x})
        assert r == Row.make({x: 5}, REL_LE, 1)


class TestParser:
    def test_program_shape(self):
        prog = parse_program(FIB)
        assert prog.clause_ids() == ["c1", "c2", "c3"]
        assert prog.arities == {"fib": 2}
        assert FALSE_PRED not in prog.predicates
        c2 = prog.clause_by_id("c2")
        assert c2.head.pred == "fib"
        assert [a.pred for a in c2.body] == ["fib", "fib"]
        assert len(c2.constraint.rows) == 4

    def test_integrity_clause(self):
        prog = parse_program(FIB)
        (ic,) = integrity_clauses(prog)
        assert ic.cid == "c3"
        assert ic.head.is_false

    def test_constants_in_heads_become_equations(self):
        prog = parse_program("p(0,X) :- X=<1.\nfalse :- p(A,B).\n")
        c1 = prog.clause_by_id("c1")
        v = c1.head.args[0]
        assert v not in {Variable("X")}
        assert Row.make({v: 1}, REL_EQ, 0) in c1.constraint.rows

    def test_repeated_head_argument_gets_fresh_alias(self):
        prog = parse_program("p(A,A).\nfalse :- p(X,Y).\n")
        c1 = prog.clause_by_id("c1")
        a1, a2 = c1.head.args
        assert a1 != a2
        assert Row.make({a1: 1, a2: -1}, REL_EQ, 0) in c1.constraint.rows

    def test_repeated_argument_in_atom_rejected(self):
        # a polyhedron is renamed onto an atom's arguments as a mapping,
        # which one repeated argument would silently make lose a term
        x = Variable("X")
        with pytest.raises(ProgramError, match=r"repeated argument in p\(X, X\)"):
            Atom("p", (x, x))
        (clause,) = parse_program("p(X,X) :- X>=0.").clauses
        a1, a2 = clause.head.args
        assert a1 == x and a2 != x
        assert Row.make({a1: 1, a2: -1}, REL_EQ, 0) in clause.constraint.rows

    def test_rational_literals(self):
        c = parse_constraint("X =< 7/2, Y = 1/3")
        assert Row.make({Variable("X"): 1}, REL_LE, Fraction(7, 2)) in c.rows

    def test_comments_and_whitespace(self):
        prog = parse_program("% leading\np(X):-X=<0.  % trailing\nfalse:-p(X).\n")
        assert len(prog) == 2

    def test_multiplication_by_constants(self):
        c = parse_constraint("2*X + X*3 =< 10")
        assert c.rows == (Row.make({Variable("X"): 5}, REL_LE, 10),)

    def test_nonlinear_product_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("X*Y =< 1")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("X =< 1/0")

    def test_arity_clash_rejected(self):
        with pytest.raises(ProgramError):
            parse_program("p(X) :- X=<0.\np(X,Y) :- X=<Y.\nfalse :- p(A).\n")

    def test_false_with_arguments_rejected(self):
        with pytest.raises(ParseError):
            parse_program("false(X) :- X=<0.\n")

    def test_false_in_body_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(X) :- false.\nfalse :- p(X).\n")

    def test_error_location(self):
        with pytest.raises(ParseError) as exc:
            parse_program("p(X) :- X ! 0.\n")
        assert exc.value.line == 1

    def test_lone_colon_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(X) : X=<0.\n")

    def test_deep_nesting_is_a_parse_error(self):
        depth = 400
        with pytest.raises(ParseError) as exc:
            parse_program("p(X) :- X = " + "(" * depth + "1" + ")" * depth + ".\n")
        # the first parenthesis past the bound
        assert (exc.value.line, exc.value.col) == (1, 13 + MAX_NESTING)

    def test_nesting_up_to_the_bound_parses(self):
        depth = MAX_NESTING
        prog = parse_program("p(X) :- X = " + "(" * depth + "1" + ")" * depth + ".\n")
        assert prog.clauses[0].constraint.pretty() == "X = 1"

    def test_long_sign_run_parses(self):
        signs = "- " * 2000
        prog = parse_program(f"p(X) :- X = {signs}1, X >= {signs}- 3 * 2.\n")
        assert prog.clauses[0].constraint.pretty() == "X = 1, X >= -6"

    def test_overlong_literal_is_a_parse_error(self):
        # past 4,300 digits int() itself refuses the literal
        with pytest.raises(ParseError) as exc:
            parse_program("p(X) :- X = " + "9" * 5000 + ".\n")
        assert (exc.value.line, exc.value.col) == (1, 13)
        with pytest.raises(ParseError):
            parse_program("p(X) :- X = 1/" + "9" * (MAX_DIGITS + 1) + ".\n")

    def test_non_ascii_digit_is_a_parse_error(self):
        # str.isdigit accepts a superscript two, int() does not
        with pytest.raises(ParseError) as exc:
            parse_program("p(X) :- X = \u00b2.\n")
        assert (exc.value.line, exc.value.col) == (1, 13)

    def test_overlong_folded_product_is_a_parse_error(self):
        factor = "9" * (MAX_DIGITS - 1)
        with pytest.raises(ParseError) as exc:
            parse_program(f"p(X) :- X = {factor} * {factor}.\n")
        # at the star that folds the product
        assert (exc.value.line, exc.value.col) == (1, 14 + len(factor))

    def test_overlong_folded_sum_is_a_parse_error(self):
        # each denominator is in bounds, their lcm is not
        terms = [f"1/{'9' * (MAX_DIGITS - 2)}{d}" for d in "17"]
        with pytest.raises(ParseError) as exc:
            parse_program(f"p(X) :- X = {terms[0]} + {terms[1]}.\n")
        assert (exc.value.line, exc.value.col) == (1, 14 + len(terms[0]))

    def test_numbers_up_to_the_bound_parse(self):
        big = "9" * MAX_DIGITS
        prog = parse_program(f"p(X) :- X = {big}, X >= 1/{big}, X =< 3 * {big[1:]}.\n")
        assert prog.clauses[0].constraint.pretty() == (
            f"X = {big}, X >= 1/{big}, X =< {3 * int(big[1:])}"
        )


# characters a single edit inserts or puts in place of another: the
# scanner's separators and punctuation, non-ASCII letters and digits,
# and characters that may continue a word but not start one
_EDIT_CHARS = [":", "%", "\t", "\r", "\n", "\u00b2", "\u00e9", "\u03a9", "_", "/", "0", "(", ")", "-", "."]
# clause-level faults: an arity clash, false in a body, false with arguments
_SWAPS = [("q(B)", "q(B, A)"), ("q(B)", "false"), ("false :-", "false(A) :-")]


def _edited(rng: random.Random, text: str) -> str:
    """text, perhaps with a clause-level fault, ending in a newline, a
    comment or neither, after up to three single-character edits
    (insert, delete, replace), now and then inserting a literal past
    MAX_DIGITS."""
    if rng.random() < 0.2:
        text = text.replace(*rng.choice(_SWAPS), 1)
    text = text[:-1] + rng.choice(("\n", "\n", "", " % end"))
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "delete", "replace"))
        if op == "insert" and rng.random() < 0.05:
            text = text[:i] + "1" + "0" * MAX_DIGITS + text[i:]
        elif op == "insert":
            text = text[:i] + rng.choice(_EDIT_CHARS) + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + rng.choice(_EDIT_CHARS) + text[i + 1 :]
    return text


def _front_end_outcome(text: str) -> tuple:
    """What the front end makes of text: the normal form and arity map,
    or the error with its position."""
    try:
        prog = parse_program(text)
    except (ParseError, ProgramError) as e:
        return (type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "col", None))
    return ("Program", prog.pretty(), tuple(prog.arities.items()))


class TestFrontEndDigest:
    """Normal forms, arities, error messages and error positions of
    2,000 seeded texts, random programs and edits of them, pinned by
    their SHA-256.  The digest also changes with gen.random_program_text
    or the edits; take it again only from a front end known to agree
    with this one."""

    DIGEST = "da3a0f86bae92685c6779794fdb0aba5e0189bd5c07385db29f3df7fd510180b"

    def test_outcomes_are_pinned(self):
        rng = random.Random(16)
        outcomes = [_front_end_outcome(_edited(rng, random_program_text(rng))) for _ in range(2000)]
        kinds = {}
        for outcome in outcomes:
            kinds[outcome[0]] = kinds.get(outcome[0], 0) + 1
        assert min(kinds.get(k, 0) for k in ("Program", "ParseError", "ProgramError")) >= 20, kinds
        digest = hashlib.sha256("\n".join(map(repr, outcomes)).encode()).hexdigest()
        assert digest == self.DIGEST


class TestVariable:
    def test_is_its_name(self):
        x = Variable("X1")
        assert x == "X1" and hash(x) == hash("X1")
        assert (x.name, str(x)) == ("X1", "X1")

    def test_sorted_by_name(self):
        names = ["X10", "B", "X2", "A_n1", "X1", "B__h1"]
        assert sorted(Variable(n) for n in names) == sorted(names)


class TestLinConstraintHash:
    TEXT = "X - 1/2*Y =< 3/2, X = 1"

    def test_equal_constraints_find_each_other(self):
        a, b = parse_constraint(self.TEXT), parse_constraint(self.TEXT)
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(a)
        assert {a: "a"}[b] == "a" and {b: "b"}[a] == "b"

    def test_cache_is_no_field(self):
        c = parse_constraint(self.TEXT)
        before = repr(c)
        assert hash(c) == hash((c.rows,))
        assert repr(c) == before
        assert before.startswith("LinConstraint(rows=(Row(terms=")
        assert [f.name for f in fields(LinConstraint)] == ["rows"]
        # equal to one that has not hashed yet, and to one that has
        fresh = LinConstraint(c.rows)
        assert c == fresh and fresh == c
        hash(fresh)
        assert c == fresh and c != parse_constraint("X = 1")

    def test_cache_is_not_pickled(self):
        c = parse_constraint(self.TEXT)
        hash(c)
        copy = pickle.loads(pickle.dumps(c))
        assert copy == c and "_hash" not in vars(copy)


class TestRoundTrip:
    PROGRAMS = [
        FIB,
        "p(X) :- X=0.\np(Y) :- Y=X+1, p(X).\nfalse :- X>=5, p(X).\n",
        "q(A,B) :- A=<B, B<3/2.\nfalse :- q(X,Y), X>1.\n",
        "r(X) :- -X =< -1, 2*X-3 < 7.\nfalse :- r(Z).\n",
    ]

    @pytest.mark.parametrize("text", PROGRAMS)
    def test_pretty_reparses_to_same_structure(self, text):
        prog = parse_program(text)
        again = parse_program(prog.pretty())
        assert [c.head for c in again] == [c.head for c in prog]
        assert [c.body for c in again] == [c.body for c in prog]
        assert [set(c.constraint.rows) for c in again] == [
            set(c.constraint.rows) for c in prog
        ]

    def test_constraint_order_is_preserved(self):
        c = parse_constraint("X =< 1, Y >= 2, X < Y")
        assert parse_constraint(c.pretty()).rows == c.rows


class TestProgram:
    def test_clause_by_id_unknown_id(self):
        prog = parse_program(FIB)
        with pytest.raises(KeyError, match="no clause with id 'c9'"):
            prog.clause_by_id("c9")

    def test_repeated_clause_id_rejected(self):
        # keeping only the first of two c1 clauses would hide the
        # derivation through X=10 and make this unsafe program look safe
        prog = parse_program(
            "p(X) :- X=0.\nfalse :- X>5, p(X).\np(X) :- X=10.\n"
        )
        first, second, third = prog.clauses
        renamed = replace(third, cid="c1")
        with pytest.raises(ProgramError, match="clause id 'c1' used twice"):
            Program((first, second, renamed))

    def test_arities_are_always_collected(self):
        # a caller-supplied map could name predicates no clause uses and
        # skip the arity clash check
        prog = parse_program(FIB)
        with pytest.raises(TypeError):
            Program(prog.clauses, arities={"fib": 2, "zzz": 1})
        assert Program(prog.clauses).arities == {"fib": 2}
        (wide,) = parse_program("fib(X, Y, Z) :- X = Y, Y = Z.").clauses
        with pytest.raises(ProgramError, match="fib used with arities 2 and 3"):
            Program((*prog.clauses, replace(wide, cid="c9")))


class TestStrictToNonstrict:
    @staticmethod
    def rewritten(text):
        (clause,) = strict_to_nonstrict(parse_program(text)).clauses
        return clause.constraint.rows

    def test_scales_to_coprime_integers_and_takes_ceiling(self):
        # 1/2*X < 1 holds for the integers X =< 1, not X =< 0
        (row,) = self.rewritten("p(X) :- 1/2*X < 1.")
        assert row == Row.make({Variable("X"): 1}, REL_LE, 1)

    def test_fractional_rhs(self):
        # 2X + 4Y < 3  <=>  X + 2Y < 3/2  <=>  X + 2Y =< 1 over the integers
        (row,) = self.rewritten("p(X,Y) :- 2*X + 4*Y < 3.")
        assert row == Row.make({Variable("X"): 1, Variable("Y"): 2}, REL_LE, 1)

    def test_integral_rows_lose_one(self):
        (row,) = self.rewritten("p(X) :- X > 0.")
        assert row == Row.make({Variable("X"): -1}, REL_LE, -1)

    def test_non_strict_rows_unchanged(self):
        (le, eq) = self.rewritten("p(X,Y) :- 1/2*X =< 1, 2*X = 3*Y.")
        assert (le.rel, eq.rel) == (REL_LE, REL_EQ)
        assert row_coeffs(le)[Variable("X")] == Fraction(1, 2)
