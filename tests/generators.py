"""Random program and term generators for differential tests, and the
textbook encodings that tests and benchmarks share.

Generated ground programs are built directly as syntax trees so the
semantics are exercised independently of the parser. Sizes stay small
enough for the exhaustive oracles in oracles.py.
"""

from __future__ import annotations

import random
from typing import Optional

from aspcore2.ground import GroundProgram
from aspcore2.syntax import (
    AggregateAtom,
    AggregateElement,
    AggregateFunction,
    AggregateLiteral,
    BuiltinAtom,
    ClassicalAtom,
    FunctionalTerm,
    Guard,
    IntegerConstant,
    NafLiteral,
    Relation,
    Rule,
    StringConstant,
    SymbolicConstant,
    Term,
    WeakConstraint,
)

_RELATIONS = list(Relation)
_FUNCTIONS = list(AggregateFunction)


def random_ground_term(rng: random.Random, depth: int = 2) -> Term:
    choices = ["int", "sym", "str"]
    if depth > 0:
        choices += ["fun", "fun"]
    kind = rng.choice(choices)
    if kind == "int":
        return IntegerConstant(rng.randint(-3, 3))
    if kind == "sym":
        return SymbolicConstant(rng.choice(["a", "b", "c", "abc", "abd"]))
    if kind == "str":
        return StringConstant(rng.choice(["a", "b", "x y", "abc"]))
    args = tuple(
        random_ground_term(rng, depth - 1) for _ in range(rng.randint(1, 2))
    )
    return FunctionalTerm(rng.choice(["f", "g"]), args)


def _random_aggregate(
    rng: random.Random, atoms: list[ClassicalAtom]
) -> AggregateLiteral:
    elements = []
    for _ in range(rng.randint(1, 3)):
        width = rng.randint(0, 2)
        terms = tuple(
            rng.choice(
                [
                    IntegerConstant(rng.randint(-2, 3)),
                    SymbolicConstant(rng.choice(["a", "b"])),
                ]
            )
            for _ in range(width)
        )
        condition = tuple(
            NafLiteral(rng.choice(atoms), naf=rng.random() < 0.25)
            for _ in range(rng.randint(0, 2))
        )
        elements.append(
            AggregateElement(terms, condition, explicit_colon=not condition)
        )
    function = rng.choice(_FUNCTIONS)
    left = None
    right = None
    if rng.random() < 0.8:
        right = Guard(IntegerConstant(rng.randint(-2, 4)), rng.choice(_RELATIONS))
    if right is None or rng.random() < 0.3:
        left = Guard(IntegerConstant(rng.randint(-2, 4)), rng.choice(_RELATIONS))
    return AggregateLiteral(
        AggregateAtom(function, tuple(elements), left, right),
        naf=rng.random() < 0.25,
    )


def random_ground_program(
    rng: random.Random,
    *,
    with_aggregates: bool = True,
    with_weaks: bool = False,
    atom_count: Optional[int] = None,
) -> GroundProgram:
    n = atom_count if atom_count is not None else rng.randint(3, 8)
    names = ["a", "b", "c", "d", "e", "f", "g", "h"][:n]
    atoms = [ClassicalAtom(name) for name in names]
    if n >= 4 and rng.random() < 0.3:
        # a complementary pair exercises the consistency filter
        atoms[-1] = ClassicalAtom(names[0], (), True)

    def random_literal() -> NafLiteral:
        roll = rng.random()
        if roll < 0.15:
            left = IntegerConstant(rng.randint(0, 2))
            right = IntegerConstant(rng.randint(0, 2))
            return NafLiteral(
                BuiltinAtom(left, rng.choice(_RELATIONS), right),
                naf=rng.random() < 0.2,
            )
        return NafLiteral(rng.choice(atoms), naf=rng.random() < 0.35)

    rules = []
    for _ in range(rng.randint(2, 8)):
        head = tuple(
            rng.choice(atoms) for _ in range(rng.choices([0, 1, 2], [1, 6, 2])[0])
        )
        body = [random_literal() for _ in range(rng.randint(0, 3))]
        if with_aggregates and rng.random() < 0.4:
            body.append(_random_aggregate(rng, atoms))
        if not head and not body:
            continue  # `:- .` is not a statement
        rules.append(Rule(head, tuple(body)))
    weaks = []
    if with_weaks:
        for _ in range(rng.randint(1, 4)):
            body = tuple(random_literal() for _ in range(rng.randint(1, 2)))
            weight: Term = IntegerConstant(rng.randint(-3, 4))
            if rng.random() < 0.08:
                weight = SymbolicConstant("w")
            level: Term = IntegerConstant(rng.randint(0, 2))
            terms = tuple(
                IntegerConstant(rng.randint(0, 3)) for _ in range(rng.randint(0, 2))
            )
            weaks.append(WeakConstraint(body, weight, level, terms))
    return GroundProgram(tuple(rules), tuple(weaks))


# --------------------------------------------------------------------------
# Non-ground programs for the smart-versus-naive grounding comparison.
# Aggregates range only over base predicates, so no recursion through
# aggregates can arise; arithmetic stays within small bounds.


def random_nonground_program_text(rng: random.Random) -> str:
    lines = []
    base_values = sorted(rng.sample([0, 1, 2], rng.randint(1, 3)))
    for value in base_values:
        lines.append(f"b({value}).")
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            lines.append(f"c({rng.randint(0, 2)},{rng.randint(0, 2)}).")

    templates = [
        "d(X) :- b(X).",
        "d(X) :- b(X), X > 0.",
        "d(X+1) :- b(X).",
        "e(X) :- b(X), not d(X).",
        "e(X) :- b(X), d(X).",
        "d(X) | e(X) :- b(X).",
        "f(X,Y) :- b(X), b(Y), X < Y.",
        "f(X,Y) :- c(X,Y).",
        "g(N) :- #count{X : b(X)} = N.",
        "g(N) :- #sum{X : b(X)} = N, N >= 0.",
        "h :- #count{X : b(X)} >= 2.",
        "h :- #max{X : b(X)} >= 1, b(0).",
        "h :- #min{X,Y : c(X,Y)} <= 1.",
        "e(X) :- b(X), h.",
        ":- d(X), e(X), X > 1.",
        ":- h, not d(1).",
    ]
    for _ in range(rng.randint(2, 4)):
        lines.append(rng.choice(templates))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Programs with unary predicates for query differential tests.


def random_query_program(rng: random.Random) -> tuple[GroundProgram, ClassicalAtom]:
    values = [IntegerConstant(v) for v in range(0, 3)]
    atoms = [ClassicalAtom("p", (v,)) for v in values]
    atoms += [ClassicalAtom("q", (v,)) for v in values[:2]]
    atoms.append(ClassicalAtom("r"))
    rules = []
    for _ in range(rng.randint(2, 6)):
        head = tuple(
            rng.choice(atoms) for _ in range(rng.choices([0, 1, 2], [1, 6, 3])[0])
        )
        body = tuple(
            NafLiteral(rng.choice(atoms), naf=rng.random() < 0.3)
            for _ in range(rng.randint(0, 2))
        )
        if not head and not body:
            continue
        rules.append(Rule(head, body))
    if rng.random() < 0.12:
        # force inconsistency: x. :- x.
        x = ClassicalAtom("x")
        rules.append(Rule((x,), ()))
        rules.append(Rule((), (NafLiteral(x),)))
    from aspcore2.syntax import Variable

    if rng.random() < 0.5:
        pattern = ClassicalAtom(rng.choice(["p", "q"]), (Variable("X"),))
    else:
        pattern = rng.choice(atoms)
    return GroundProgram(tuple(rules)), pattern


# --------------------------------------------------------------------------
# Textbook encodings, as program text


def reach(n: int) -> str:
    """The transitive closure of a chain of n edges."""
    return " ".join(f"edge({i},{i + 1})." for i in range(n)) + """
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z)."""


def colouring(k: int, n: int) -> str:
    """k-colouring of an n-cycle, with colours r, g, b, y."""
    facts = [f"node({i}). edge({i},{i % n + 1})." for i in range(1, n + 1)]
    facts += [f"col({c})." for c in "rgby"[:k]]
    return " ".join(facts) + """
{colour(X,C) : col(C)} = 1 :- node(X).
:- edge(X,Y), colour(X,C), colour(Y,C)."""


def queens(n: int) -> str:
    return " ".join(f"num({i})." for i in range(1, n + 1)) + """
{q(X,Y) : num(Y)} = 1 :- num(X).
:- q(X1,Y), q(X2,Y), X1 < X2.
:- q(X1,Y1), q(X2,Y2), X1 < X2, X2 - X1 = Y2 - Y1.
:- q(X1,Y1), q(X2,Y2), X1 < X2, X2 - X1 = Y1 - Y2."""


def hamiltonian(n: int, rng: random.Random) -> str:
    """Hamiltonian paths on n >= 4 nodes: the ring i -> i+1 mod n plus 3
    out-edges per node, drawn by `rng.sample` over the other nodes.

    The answer sets are the Hamiltonian paths from node 0, plus one more
    set for each path whose last node has an edge back to 0, which closes
    it into a cycle. The program is not tight: `r` depends positively on
    itself."""
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        edges.update((i, j) for j in rng.sample([j for j in range(n) if j != i], 3))
    facts = [f"node({i})." for i in range(n)]
    facts += [f"edge({i},{j})." for i, j in sorted(edges)]
    return " ".join(facts) + """
{in(X,Y)} :- edge(X,Y).
:- in(X,Y), in(X,Z), Y != Z.
:- in(X,Y), in(Z,Y), X != Z.
r(0). r(Y) :- r(X), in(X,Y).
:- node(X), not r(X)."""


def saturation(n: int, valid: bool) -> str:
    """Saturation over n variables: `p(i) | q(i)` for each i < n, both made
    true by `w`, and `w` derived from all of q or from any p(i), with `w`
    required. A valid program has one answer set, all 2n+1 atoms. The
    invalid one leaves out `w :- p(0).` and has none: `p(0)` with the other
    q's is then a smaller model of the saturated set's reduct."""
    rules = [f"p({i}) | q({i}). p({i}) :- w. q({i}) :- w." for i in range(n)]
    rules += [f"w :- p({i})." for i in range(0 if valid else 1, n)]
    rules.append("w :- " + ", ".join(f"q({i})" for i in range(n)) + ".")
    rules.append(":- not w.")
    return "\n".join(rules)
