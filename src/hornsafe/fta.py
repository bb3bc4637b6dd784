"""Finite tree automata over clause-identifier alphabets.

Traces of a program are ranked trees: each node is a clause id whose
arity is the clause's body length, and a trace rooted at an integrity
clause describes one candidate derivation of false.  The automata here
recognise trace sets and support the operations the refinement loop
needs: construction from a single trace or from an interpretation
(filtered by absint.clause_post, so this module makes no
satisfiability call of its own); language difference, which
determinises the remover only as far as the product reaches; and
emptiness with a witness.  Each operation is one loop over what it
reads, with no recursion, so a trace thousands of clauses deep costs
no stack.  Outside TraceTerm, a trace is walked only through its
preorder listing (TraceTerm.preorder) and rebuilt with
TraceTerm.from_shape.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from hornsafe.absint import clause_post
from hornsafe.chc_core import FALSE_PRED, Program
from hornsafe.model import InterpretationModel


class AutomatonError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class TraceTerm:
    """Ranked tree of clause identifiers.

    Every walk over a term reads preorder(), or rebuilds one with
    from_shape(); only the two printers keep loops of their own.  None
    recurses, so a term thousands of clauses deep costs no stack.
    Equality, hashing and pickling read shape(), so two terms are equal
    exactly when their nodes agree in preorder, whatever subterm
    objects they share."""

    sym: str
    children: tuple["TraceTerm", ...] = ()

    def preorder(self) -> list[tuple["TraceTerm", int, int]]:
        """Every occurrence of a subterm, the root first and each
        subterm right before its first child, as (subterm, its parent's
        position in this list or -1 at the root, its slot among the
        parent's children).  A subterm object that occurs twice is
        listed at each occurrence."""
        listing: list[tuple[TraceTerm, int, int]] = []
        stack = [(self, -1, 0)]
        while stack:
            entry = stack.pop()
            index = len(listing)
            listing.append(entry)
            children = entry[0].children
            # the first child on top
            stack.extend([(children[k], index, k) for k in range(len(children) - 1, -1, -1)])
        return listing

    def shape(self) -> tuple[tuple[str, int], ...]:
        """Each occurrence's (sym, arity), in preorder."""
        return tuple([(t.sym, len(t.children)) for t, _, _ in self.preorder()])

    @classmethod
    def from_shape(cls, shape: Sequence[tuple[str, int]]) -> "TraceTerm":
        """The term whose shape() is shape.  In reverse preorder a
        node's subterms are on top of the stack, the first uppermost."""
        stack: list[TraceTerm] = []
        for sym, arity in reversed(shape):
            children = tuple([stack.pop() for _ in range(arity)])
            stack.append(cls(sym, children))
        (term,) = stack
        return term

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceTerm):
            return NotImplemented
        return self is other or self.shape() == other.shape()

    def __hash__(self) -> int:
        return hash(self.shape())

    def __reduce__(self):
        # the shape is flat, so pickle recurses no deeper than one pair
        return TraceTerm.from_shape, (self.shape(),)

    def __repr__(self) -> str:
        # the dataclass text, built with a stack
        out = []
        stack: list[TraceTerm | str] = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
                continue
            out.append(f"{type(t).__qualname__}(sym={t.sym!r}, children=(")
            stack.append(",))" if len(t.children) == 1 else "))")
            for child in reversed(t.children[1:]):
                stack += [child, ", "]
            stack.extend(t.children[:1])
        return "".join(out)

    def pretty(self) -> str:
        out = []
        # terms still to print, and the punctuation between them
        stack: list[TraceTerm | str] = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
            elif not t.children:
                out.append(t.sym)
            else:
                out.append(t.sym + "(")
                stack.append(")")
                for child in reversed(t.children[1:]):
                    stack += [child, ","]
                stack.append(t.children[0])
        return "".join(out)

    def __str__(self) -> str:
        return self.pretty()


Transition = tuple[str, tuple[str, ...], str]


@dataclass(frozen=True)
class TreeAutomaton:
    states: frozenset[str]
    finals: frozenset[str]
    alphabet: Mapping[str, int]
    transitions: frozenset[Transition]

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "alphabet", dict(self.alphabet))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        if not self.finals <= self.states:
            raise AutomatonError("final states must be states")
        for sym, args, target in self.transitions:
            if sym not in self.alphabet:
                raise AutomatonError(f"unknown symbol {sym!r}")
            if len(args) != self.alphabet[sym]:
                raise AutomatonError(f"arity mismatch for {sym!r}")
            if not (set(args) <= self.states and target in self.states):
                raise AutomatonError("transition uses unknown state")

    def is_deterministic(self) -> bool:
        seen = set()
        for sym, args, _ in self.transitions:
            if (sym, args) in seen:
                return False
            seen.add((sym, args))
        return True

    def dump(self) -> str:
        lines = [f"finals: {' '.join(sorted(self.finals))}"]
        for sym, args, target in sorted(self.transitions):
            lhs = f"{sym}({','.join(args)})" if args else sym
            lines.append(f"{lhs} -> {target}")
        return "\n".join(lines) + "\n"


def singleton_fta(term: TraceTerm) -> TreeAutomaton:
    """Recognises exactly the given term.  The node at preorder position
    i, the root being 1, is state e{i} and reads its children's
    positions, so e{i} accepts exactly the subterm at position i,
    whatever subterm objects the term shares."""
    listing = term.preorder()
    # per node, the states its children are read in, in slot order
    reads: list[list[str]] = [[] for _ in listing]
    for i, (_, parent, _) in enumerate(listing[1:], 2):
        reads[parent].append(f"e{i}")
    alphabet: dict[str, int] = {}
    transitions = set()
    for i, ((t, _, _), args) in enumerate(zip(listing, reads), 1):
        if alphabet.setdefault(t.sym, len(args)) != len(args):
            raise AutomatonError(f"symbol {t.sym!r} used at two arities")
        transitions.add((t.sym, tuple(args), f"e{i}"))
    return TreeAutomaton(
        frozenset(f"e{i}" for i in range(1, len(listing) + 1)),
        frozenset({"e1"}),
        alphabet,
        transitions,
    )


def model_fta(program: Program, model: InterpretationModel) -> TreeAutomaton:
    """The trace automaton filtered by an interpretation: a clause's
    transition survives only if its constraint is satisfiable together
    with the interpreted facts for its body atoms, that is, if its
    abstract post is not empty.  Inside verify that post goes through
    the memo the analysis fills.  The alphabet lists the clause ids in
    program order."""
    return TreeAutomaton(
        frozenset(program.predicates | {FALSE_PRED}),
        frozenset({FALSE_PRED}),
        {c.cid: len(c.body) for c in program},
        frozenset(
            (c.cid, tuple(a.pred for a in c.body), c.head.pred)
            for c in program
            if not clause_post(c, model.entries).empty
        ),
    )


def _set_state(members: frozenset[str]) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def difference(a: TreeAutomaton, b: TreeAutomaton) -> TreeAutomaton:
    """Recognises L(a) minus L(b): the product of a with the completed
    subset construction of b, accepting where a accepts and b does not.

    Each b-side subset is computed from b's transitions when the
    product first reaches it, so only the subsets the product uses are
    built; the empty subset is the sink that completes b.  A product
    state is named (qa,{q1,...,qn}) after the a-state and the sorted
    b-subset.  Every state is reachable, and the result is
    deterministic when a is.

    The product is built semi-naively: each product state is taken
    from a worklist once, and fires only the argument combinations
    that read it in one position and states taken earlier in the
    others, so no combination is tried in more than one visit."""
    for sym, arity in b.alphabet.items():
        if sym in a.alphabet and a.alphabet[sym] != arity:
            raise AutomatonError(f"alphabets disagree on {sym!r}")
    b_moves: dict[str, list[tuple[tuple[str, ...], str]]] = {}
    for sym, args, target in b.transitions:
        b_moves.setdefault(sym, []).append((args, target))
    # a's transitions by the state each argument position reads
    readers: dict[str, list[tuple[int, Transition]]] = {}
    for tr in a.transitions:
        for k, q in enumerate(tr[1]):
            readers.setdefault(q, []).append((k, tr))

    # the b-subsets paired with each a-state once taken from the
    # worklist, and product names
    sides: dict[str, list[frozenset[str]]] = {}
    names: dict[tuple[str, frozenset[str]], str] = {}
    transitions: set[Transition] = set()
    work: deque[tuple[str, frozenset[str]]] = deque()

    def fire(sym: str, args: tuple[str, ...], target: str, combos) -> None:
        moves = b_moves.get(sym, ())
        for combo in combos:
            # the b-states sym reaches from one subset per argument
            members = frozenset(
                t for b_args, t in moves if all(q in s for q, s in zip(b_args, combo))
            )
            pair = (target, members)
            if pair not in names:
                names[pair] = f"({target},{_set_state(members)})"
                work.append(pair)
            transitions.add(
                (sym, tuple([names[q, s] for q, s in zip(args, combo)]), names[pair])
            )

    for sym, args, target in a.transitions:
        if not args:
            fire(sym, args, target, [()])
    while work:
        state, members = work.popleft()
        sides.setdefault(state, []).append(members)
        for k, (sym, args, target) in readers.get(state, ()):
            fire(
                sym,
                args,
                target,
                itertools.product(
                    *[[members] if j == k else sides.get(q, ()) for j, q in enumerate(args)]
                ),
            )
    finals = frozenset(
        name
        for (qa, members), name in names.items()
        if qa in a.finals and not members & b.finals
    )
    return TreeAutomaton(
        frozenset(names.values()), finals, dict(a.alphabet), transitions
    )


def find_accepted(a: TreeAutomaton) -> TraceTerm | None:
    """A minimal-depth accepted term, or None when the language is
    empty.  Each state's least term is built from the least terms of
    the states its transition reads; ties fall to the symbol listed
    first in a.alphabet, then to the leftmost smaller subterm, so the
    choice is reproducible.  The automata verify searches are model_fta
    automata, whose alphabet lists the clause ids c1, c2, ... in
    program order, so there the first listed symbol is the one with the
    smallest clause-id number.

    States are settled one depth at a time, the nullary transitions
    first, and the search ends at the first depth that settles a final
    state: Knuth's generalisation of Dijkstra's algorithm to superior
    functions (IPL 6(1), 1977), with unit weights.  Equal keys mean
    equal terms, so which transition builds a term does not matter."""
    # each transition under every distinct state it reads
    users: dict[str, list[Transition]] = {}
    for tr in a.transitions:
        for q in set(tr[1]):
            users.setdefault(q, []).append(tr)

    rank = {sym: i for i, sym in enumerate(a.alphabet)}
    # settled state -> (its least term, the term's tie-break key)
    best: dict[str, tuple[TraceTerm, tuple]] = {}
    layer = [tr for tr in a.transitions if not tr[1]]
    while layer:
        # the transitions that read a state settled at the depth before;
        # those that read only settled states reach this depth
        found: dict[str, tuple[TraceTerm, tuple]] = {}
        for sym, args, target in layer:
            if target not in best and all(q in best for q in args):
                key = (rank[sym], tuple([best[q][1] for q in args]))
                if target not in found or _precedes(key, found[target][1]):
                    found[target] = (TraceTerm(sym, tuple([best[q][0] for q in args])), key)
        best.update(found)
        least = None
        for q in found.keys() & a.finals:
            if least is None or _precedes(found[q][1], found[least][1]):
                least = q
        if least is not None:
            return found[least][0]
        layer = [tr for q in found for tr in users.get(q, ())]
    return None


def _precedes(key: tuple, other: tuple) -> bool:
    """Whether one tie-break key (rank, children's keys) orders before
    another, as nested tuples would, but in a loop: a key is as deep as
    its term.  Equal ranks name one symbol, and so one arity, so the
    comparison is that of the keys' preorder rank sequences."""
    stack = [(key, other)]
    while stack:
        k, o = stack.pop()
        if k is o:
            continue
        if k[0] != o[0]:
            return k[0] < o[0]
        stack.extend(zip(k[1][::-1], o[1][::-1]))
    return False
