"""Finite tree automata over clause-identifier alphabets.

Traces of a program are ranked trees: each node is a clause id whose
arity is the clause's body length, and a trace rooted at an integrity
clause describes one candidate derivation of false.  The automata here
recognise trace sets and support the operations the refinement loop
needs: construction from a program, a single trace, or an
interpretation (filtered by absint.clause_post, so this module makes
no satisfiability call of its own); language difference, which
determinises the remover only as far as the product reaches; and
emptiness with a witness.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from hornsafe.absint import clause_post
from hornsafe.chc_core import FALSE_PRED, Program
from hornsafe.model import InterpretationModel


class AutomatonError(Exception):
    pass


@dataclass(frozen=True)
class TraceTerm:
    """Ranked tree of clause identifiers."""

    sym: str
    children: tuple["TraceTerm", ...] = ()

    def pretty(self) -> str:
        if not self.children:
            return self.sym
        return f"{self.sym}({','.join(c.pretty() for c in self.children)})"

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


def trace_fta(program: Program) -> TreeAutomaton:
    """Recognises every trace of the program rooted at false."""
    states = set(program.predicates) | {FALSE_PRED}
    alphabet = {c.cid: len(c.body) for c in program}
    transitions = {
        (c.cid, tuple(a.pred for a in c.body), c.head.pred) for c in program
    }
    return TreeAutomaton(frozenset(states), frozenset({FALSE_PRED}), alphabet, transitions)


def singleton_fta(term: TraceTerm) -> TreeAutomaton:
    """Recognises exactly the given term.  One state per node, numbered
    e1, e2, ... in preorder with the root first."""
    names: dict[int, str] = {}
    nodes: list[tuple[TraceTerm, str]] = []

    def number(t: TraceTerm) -> str:
        name = f"e{len(names) + 1}"
        names[id(t)] = name
        nodes.append((t, name))
        for child in t.children:
            number(child)
        return name

    root = number(term)
    alphabet: dict[str, int] = {}
    transitions = set()
    for t, name in nodes:
        arity = len(t.children)
        if alphabet.setdefault(t.sym, arity) != arity:
            raise AutomatonError(f"symbol {t.sym!r} used at two arities")
        transitions.add((t.sym, tuple(names[id(c)] for c in t.children), name))
    return TreeAutomaton(
        frozenset(n for _, n in nodes), frozenset({root}), alphabet, transitions
    )


def model_fta(program: Program, model: InterpretationModel) -> TreeAutomaton:
    """The trace automaton filtered by an interpretation: a clause's
    transition survives only if its constraint is satisfiable together
    with the interpreted facts for its body atoms, that is, if its
    abstract post is not empty.  Inside verify that post goes through
    the memo the analysis fills."""
    base = trace_fta(program)
    kept = set()
    for cid, args, target in base.transitions:
        if not clause_post(program.clause_by_id(cid), model.entries).empty:
            kept.add((cid, args, target))
    return TreeAutomaton(base.states, base.finals, base.alphabet, frozenset(kept))


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
    deterministic when a is."""
    for sym, arity in b.alphabet.items():
        if sym in a.alphabet and a.alphabet[sym] != arity:
            raise AutomatonError(f"alphabets disagree on {sym!r}")
    a_moves: dict[str, list[tuple[tuple[str, ...], str]]] = {}
    for sym, args, target in a.transitions:
        a_moves.setdefault(sym, []).append((args, target))
    b_moves: dict[str, list[tuple[tuple[str, ...], str]]] = {}
    for sym, args, target in b.transitions:
        b_moves.setdefault(sym, []).append((args, target))

    @functools.cache
    def subset(sym: str, combo: tuple[frozenset[str], ...]) -> frozenset[str]:
        # the b-states sym reaches from one subset per argument; the
        # fixpoint below asks again for every combination every round
        return frozenset(
            t
            for b_args, t in b_moves.get(sym, ())
            if all(q in s for q, s in zip(b_args, combo))
        )

    # the b-subsets paired with each a-state so far, and product names
    sides: dict[str, set[frozenset[str]]] = {}
    names: dict[tuple[str, frozenset[str]], str] = {}
    transitions: set[Transition] = set()
    changed = True
    while changed:
        # a round that pairs no new subset has made every transition
        changed = False
        for sym, moves in a_moves.items():
            for args, target in moves:
                for combo in itertools.product(*[sides.get(q, ()) for q in args]):
                    members = subset(sym, combo)
                    pair = (target, members)
                    if pair not in names:
                        names[pair] = f"({target},{_set_state(members)})"
                        sides.setdefault(target, set()).add(members)
                        changed = True
                    transitions.add(
                        (
                            sym,
                            tuple(names[q, s] for q, s in zip(args, combo)),
                            names[pair],
                        )
                    )
    finals = frozenset(
        name
        for (qa, members), name in names.items()
        if qa in a.finals and not members & b.finals
    )
    return TreeAutomaton(
        frozenset(names.values()), finals, dict(a.alphabet), transitions
    )


def _id_index(sym: str) -> tuple[int, str]:
    m = re.search(r"(\d+)$", sym)
    return (int(m.group(1)) if m else -1, sym)


def find_accepted(a: TreeAutomaton) -> TraceTerm | None:
    """A minimal-depth accepted term, or None when the language is
    empty.  Ties fall to the smallest clause-id index, then to the
    leftmost smaller subterm, so the choice is reproducible."""
    into: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    users: dict[str, list[tuple[tuple[str, ...], str]]] = {}
    for sym, args, target in a.transitions:
        into.setdefault(target, []).append((sym, args))
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

    index = {sym: _id_index(sym) for sym in a.alphabet}
    # state -> (its term, the term's tie-break key)
    best: dict[str, tuple[TraceTerm, tuple]] = {}

    def build(state: str) -> tuple[TraceTerm, tuple]:
        if state in best:
            return best[state]
        chosen = None
        for sym, args in into[state]:
            if not all(q in depth for q in args):
                continue
            if 1 + max((depth[q] for q in args), default=0) != depth[state]:
                continue
            # children sit strictly below, so recursion terminates
            children = [build(q) for q in args]
            key = (index[sym], tuple([k for _, k in children]))
            if chosen is None or key < chosen[1]:
                chosen = (TraceTerm(sym, tuple([t for t, _ in children])), key)
        best[state] = chosen
        return chosen

    reachable_finals = [q for q in a.finals if q in depth]
    if not reachable_finals:
        return None
    target_depth = min(depth[q] for q in reachable_finals)
    roots = [build(q) for q in reachable_finals if depth[q] == target_depth]
    return min(roots, key=lambda root: root[1])[0]
