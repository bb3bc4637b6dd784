"""Finite tree automata over clause-identifier alphabets.

Traces of a program are ranked trees: each node is a clause id whose
arity is the clause's body length, and a trace rooted at an integrity
clause describes one candidate derivation of false.  The automata here
recognise trace sets and support the operations the refinement loop
needs: construction from a program, a single trace, or an
interpretation (filtered by absint.clause_post, so this module makes
no satisfiability call of its own); language difference, which
determinises the remover only as far as the product reaches; and
emptiness with a witness.  Each operation is one loop over what it
reads, with no recursion, so a trace thousands of clauses deep costs
no stack.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from hornsafe.absint import clause_post
from hornsafe.chc_core import FALSE_PRED, Program
from hornsafe.model import InterpretationModel


class AutomatonError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class TraceTerm:
    """Ranked tree of clause identifiers.

    Equality, hashing, printing and pickling run as loops, so a term
    thousands of clauses deep costs no stack.  A term's hash is that of
    (sym, children), computed bottom-up on first use and kept; the
    cache is no field, and pickling ignores it."""

    sym: str
    children: tuple["TraceTerm", ...] = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceTerm):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            s, o = stack.pop()
            if s is o:
                continue
            if s.sym != o.sym or len(s.children) != len(o.children):
                return False
            stack.extend(zip(s.children, o.children))
        return True

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        # the subterms without a kept hash, each after its parent; hashed
        # from the last, so a tuple of children hashes from their caches
        order = [self]
        for t in order:
            order.extend(c for c in t.children if "_hash" not in c.__dict__)
        for t in reversed(order):
            object.__setattr__(t, "_hash", hash((t.sym, t.children)))
        return self._hash

    def __reduce__(self):
        # the nodes in preorder as (sym, arity), so pickle recurses no
        # deeper than one list; a string hashes differently in another
        # process, so the kept hash stays behind
        nodes = []
        stack = [self]
        while stack:
            t = stack.pop()
            nodes.append((t.sym, len(t.children)))
            stack.extend(reversed(t.children))
        return _rebuild, (nodes,)

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


def _rebuild(nodes: list[tuple[str, int]]) -> TraceTerm:
    """The term whose nodes in preorder are nodes, as (sym, arity).  In
    reverse preorder a node's subterms are on top of the stack, the
    first one uppermost."""
    stack: list[TraceTerm] = []
    for sym, arity in reversed(nodes):
        children = tuple([stack.pop() for _ in range(arity)])
        stack.append(TraceTerm(sym, children))
    (term,) = stack
    return term


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


def _clause_fta(program: Program, clauses) -> TreeAutomaton:
    """The program's trace automaton with the transitions of the given
    clauses only."""
    return TreeAutomaton(
        frozenset(program.predicates | {FALSE_PRED}),
        frozenset({FALSE_PRED}),
        {c.cid: len(c.body) for c in program},
        frozenset(
            (c.cid, tuple(a.pred for a in c.body), c.head.pred) for c in clauses
        ),
    )


def trace_fta(program: Program) -> TreeAutomaton:
    """Recognises every trace of the program rooted at false.  Its
    alphabet lists the clause ids in program order."""
    return _clause_fta(program, program)


def singleton_fta(term: TraceTerm) -> TreeAutomaton:
    """Recognises exactly the given term.  One state per node, numbered
    e1, e2, ... in preorder with the root first.  A subterm object that
    occurs twice is read through the state of its last occurrence."""
    names: dict[int, str] = {}
    nodes: list[tuple[TraceTerm, str]] = []
    stack = [term]
    while stack:
        t = stack.pop()
        name = f"e{len(nodes) + 1}"
        names[id(t)] = name
        nodes.append((t, name))
        stack.extend(reversed(t.children))

    alphabet: dict[str, int] = {}
    transitions = set()
    for t, name in nodes:
        arity = len(t.children)
        if alphabet.setdefault(t.sym, arity) != arity:
            raise AutomatonError(f"symbol {t.sym!r} used at two arities")
        transitions.add((t.sym, tuple(names[id(c)] for c in t.children), name))
    return TreeAutomaton(
        frozenset(n for _, n in nodes), frozenset({"e1"}), alphabet, transitions
    )


def model_fta(program: Program, model: InterpretationModel) -> TreeAutomaton:
    """The trace automaton filtered by an interpretation: a clause's
    transition survives only if its constraint is satisfiable together
    with the interpreted facts for its body atoms, that is, if its
    abstract post is not empty.  Inside verify that post goes through
    the memo the analysis fills."""
    return _clause_fta(
        program, [c for c in program if not clause_post(c, model.entries).empty]
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
    first in a.alphabet, then to the leftmost smaller subterm, then to
    the first such transition in a.transitions, so the choice is
    reproducible.  The automata verify searches are model_fta
    automata, whose alphabet lists the clause ids c1, c2, ... in
    program order, so there the first listed symbol is the one with the
    smallest clause-id number."""
    users: dict[str, list[tuple[tuple[str, ...], str]]] = {}
    for sym, args, target in a.transitions:
        for q in set(args):
            users.setdefault(q, []).append((args, target))

    # least depth per state; a state whose depth falls re-examines the
    # transitions that read it
    depth: dict[str, int] = {}
    work = deque((args, target) for _, args, target in a.transitions if not args)
    while work:
        args, target = work.popleft()
        if all(q in depth for q in args):
            d = 1 + max((depth[q] for q in args), default=0)
            if d < depth.get(target, d + 1):
                depth[target] = d
                work.extend(users.get(target, ()))

    rank = {sym: i for i, sym in enumerate(a.alphabet)}
    # state -> (its least term, the term's tie-break key).  A transition
    # that reaches its target's least depth reads only states of smaller
    # depth, so visiting transitions by their target's depth finds every
    # state it reads already final.
    best: dict[str, tuple[TraceTerm, tuple]] = {}
    for sym, args, target in sorted(
        (tr for tr in a.transitions if all(q in depth for q in tr[1])),
        key=lambda tr: depth[tr[2]],
    ):
        if 1 + max((depth[q] for q in args), default=0) == depth[target]:
            key = (rank[sym], tuple([best[q][1] for q in args]))
            if target not in best or key < best[target][1]:
                best[target] = (TraceTerm(sym, tuple([best[q][0] for q in args])), key)

    finals = [q for q in a.finals if q in depth]
    if not finals:
        return None
    return best[min(finals, key=lambda q: (depth[q], best[q][1]))][0]
