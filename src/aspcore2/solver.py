"""Answer sets, optimality, and cautious query answering over ground
programs.

The reference operations (literal satisfaction, models, reducts) work
directly on atom sets. Enumeration packs the ground program, fixes the
atoms the facts decide (`_fold`), and searches the open atoms (`kernel`).
Every emitted answer set is re-checked against the reference operations
on the unsimplified ground program: consistency and modelhood always,
minimality by the shifted reduct at any size, and by a submask sweep of up
to 12 atoms where the reduct has a head cycle or an aggregate in a rule
with a head.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from . import kernel as _kernel
from ._fold import fold_fixed
from ._packed import pack_program
from .analysis import DependencyGraph, atom_signature, signature_to_text
from .errors import CapacityExceeded
from .ground import (
    GREATER,
    GroundProgram,
    LESS,
    builtin_truth,
    eval_arithmetic,
    match_atom,
    relation_holds,
    term_compare,
    term_sort_key,
)
from .syntax import (
    AUX_MARKER,
    AggregateElement,
    AggregateFunction,
    AggregateLiteral,
    BodyLiteral,
    BuiltinAtom,
    ClassicalAtom,
    FunctionalTerm,
    IntegerConstant,
    Query,
    SymbolicConstant,
    Term,
    atom_variables,
)

Interpretation = frozenset[ClassicalAtom]


class _Infinity:
    """Aggregate value below or above every ground term."""

    __slots__ = ("sign",)

    def __init__(self, sign: int) -> None:
        self.sign = sign

    def __repr__(self) -> str:
        return "+infinity" if self.sign > 0 else "-infinity"


MINUS_INFINITY = _Infinity(-1)
PLUS_INFINITY = _Infinity(1)

AggregateValue = Union[Term, _Infinity]


def _value_compare(value: AggregateValue, term: Term) -> int:
    if value is MINUS_INFINITY:
        return LESS
    if value is PLUS_INFINITY:
        return GREATER
    return term_compare(value, term)


def eval_aggregate(
    function: AggregateFunction,
    elements: Iterable[AggregateElement],
    interpretation: Interpretation,
) -> AggregateValue:
    """Aggregate value over the set of tuples whose conditions hold."""
    satisfied: set[tuple[Term, ...]] = set()
    for element in elements:
        if all(satisfies_literal(l, interpretation) for l in element.condition):
            satisfied.add(element.terms)
    if function is AggregateFunction.COUNT:
        return IntegerConstant(len(satisfied))
    if function is AggregateFunction.SUM:
        return IntegerConstant(
            sum(
                t[0].value
                for t in satisfied
                if t and isinstance(t[0], IntegerConstant)
            )
        )
    firsts = [t[0] for t in satisfied if t]
    if not firsts:
        return MINUS_INFINITY if function is AggregateFunction.MAX else PLUS_INFINITY
    ordered = sorted(firsts, key=term_sort_key)
    return ordered[-1] if function is AggregateFunction.MAX else ordered[0]


def satisfies_literal(
    literal: BodyLiteral, interpretation: Interpretation
) -> bool:
    if isinstance(literal, AggregateLiteral):
        atom = literal.atom
        value = eval_aggregate(atom.function, atom.elements, interpretation)
        truth = True
        if atom.left_guard is not None:
            cmp = -_value_compare(value, atom.left_guard.term)
            truth = relation_holds(cmp, atom.left_guard.relation)
        if truth and atom.right_guard is not None:
            cmp = _value_compare(value, atom.right_guard.term)
            truth = relation_holds(cmp, atom.right_guard.relation)
        return truth != literal.naf
    atom = literal.atom
    if isinstance(atom, BuiltinAtom):
        truth = builtin_truth(atom.left, atom.relation, atom.right)
    else:
        truth = atom in interpretation
    return truth != literal.naf


def _body_true(rule, interpretation: Interpretation) -> bool:
    return all(satisfies_literal(l, interpretation) for l in rule.body)


def is_model(ground_program: GroundProgram, interpretation: Interpretation) -> bool:
    """Every rule with a true body has a true head atom."""
    for rule in ground_program.rules:
        if _body_true(rule, interpretation) and not any(
            atom in interpretation for atom in rule.head
        ):
            return False
    return True


def reduct(
    ground_program: GroundProgram, interpretation: Interpretation
) -> GroundProgram:
    """Rules whose entire body is true under the interpretation, verbatim."""
    return GroundProgram(
        tuple(r for r in ground_program.rules if _body_true(r, interpretation))
    )


# --------------------------------------------------------------------------
# Answer sets


def _atom_as_term(atom: ClassicalAtom) -> Term:
    if atom.args:
        return FunctionalTerm(atom.predicate, atom.args)
    return SymbolicConstant(atom.predicate)


def atom_order_key(atom: ClassicalAtom):
    """Atoms ordered by the term order on their representation; a negated
    atom follows its positive twin."""
    return (term_sort_key(_atom_as_term(atom)), atom.strong_negation)


def interpretation_sort_key(interpretation: Interpretation):
    return tuple(atom_order_key(a) for a in sorted(interpretation, key=atom_order_key))


def project_interpretation(interpretation: Interpretation) -> Interpretation:
    """Strip desugaring auxiliaries, keeping the user signature."""
    return frozenset(
        a for a in interpretation if not a.predicate.startswith(AUX_MARKER)
    )


def _is_consistent(interpretation: Interpretation) -> bool:
    return not any(
        atom.strong_negation
        and ClassicalAtom(atom.predicate, atom.args, False) in interpretation
        for atom in interpretation
    )


def _least_model(rules: list[tuple[ClassicalAtom, frozenset[ClassicalAtom]]]) -> set:
    """Least model of definite rules given as (head, positive body)."""
    waiting: dict[ClassicalAtom, list[int]] = {}
    missing = []
    queue = []
    for index, (head, body) in enumerate(rules):
        missing.append(len(body))
        for atom in body:
            waiting.setdefault(atom, []).append(index)
        if not body:
            queue.append(head)
    derived: set[ClassicalAtom] = set()
    while queue:
        atom = queue.pop()
        if atom in derived:
            continue
        derived.add(atom)
        for index in waiting.get(atom, ()):
            missing[index] -= 1
            if missing[index] == 0:
                queue.append(rules[index][0])
    return derived


def _head_cycle_free(
    rules: list[tuple[frozenset[ClassicalAtom], frozenset[ClassicalAtom]]]
) -> bool:
    """No two atoms of one head share a strongly connected component of the
    positive dependency graph (body atom -> head atom)."""
    ids: dict[ClassicalAtom, int] = {}
    for head, body in rules:
        for atom in head | body:
            ids.setdefault(atom, len(ids))
    edges = frozenset(
        (ids[b], ids[h]) for head, body in rules for b in body for h in head
    )
    component = {}
    for number, members in enumerate(
        DependencyGraph(frozenset(ids.values()), edges).components()
    ):
        for vertex in members:
            component[vertex] = number
    for head, _body in rules:
        numbers = [component[ids[atom]] for atom in head]
        if len(set(numbers)) < len(numbers):
            return False
    return True


def _minimal_by_shifting(
    red: GroundProgram, interpretation: Interpretation
) -> Optional[bool]:
    """Whether a model is minimal for its reduct, decided without a submask
    sweep; None when this check cannot decide.

    Inside the model, a kept rule without aggregates acts as `H & I :- B+`:
    its naf literals stay true. If the model is the least model of the
    shifted reduct, `h :- B+` for each kept rule whose head meets the model
    in `h` alone, every model of the reduct inside it contains that least
    model, so it is minimal. If not, it is not minimal when the reduct is
    head-cycle-free (Ben-Eliyahu & Dechter 1994), and the check cannot tell
    otherwise.
    """
    positive = []
    for rule in red.rules:
        if any(isinstance(l, AggregateLiteral) for l in rule.body):
            return None
        body = frozenset(
            l.atom
            for l in rule.body
            if not l.naf and isinstance(l.atom, ClassicalAtom)
        )
        positive.append((frozenset(rule.head) & interpretation, body))
    shifted = [(next(iter(head)), body) for head, body in positive if len(head) == 1]
    if _least_model(shifted) == interpretation:
        return True
    return False if _head_cycle_free(positive) else None


def _verify_answer_set(
    ground_program: GroundProgram, interpretation: Interpretation
) -> None:
    """Post-hoc reference check of one emitted answer set. Minimality stays
    unchecked above 12 atoms when the shifted reduct cannot decide it."""
    if not _is_consistent(interpretation):
        raise RuntimeError("internal error: inconsistent answer set emitted")
    if not is_model(ground_program, interpretation):
        raise RuntimeError("internal error: emitted answer set is not a model")
    red = reduct(ground_program, interpretation)
    minimal = _minimal_by_shifting(red, interpretation)
    if minimal is None:
        if len(interpretation) > 12:
            return
        atoms = sorted(interpretation, key=atom_order_key)
        minimal = not any(
            is_model(red, frozenset(a for i, a in enumerate(atoms) if mask >> i & 1))
            for mask in range((1 << len(atoms)) - 1)
        )
    if not minimal:
        raise RuntimeError(
            "internal error: emitted answer set is not minimal for its reduct"
        )


def _largest_predicates(atoms: Iterable[ClassicalAtom]) -> str:
    """The three predicates with the most atoms, largest first, as
    `most atoms: q/2 (16), ...`."""
    counts = Counter(atom_signature(atom) for atom in atoms)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], signature_to_text(item[0])))
    text = ", ".join(f"{signature_to_text(sig)} ({count})" for sig, count in ranked[:3])
    if len(ranked) > 3:
        text += f" and {len(ranked) - 3} more predicates"
    return "most atoms: " + text


def answer_sets(
    ground_program: GroundProgram,
    *,
    brute_force_limit: int = 24,
    project: bool = True,
    verify: bool = True,
) -> tuple[Interpretation, ...]:
    """All answer sets, projected onto the user signature and sorted.

    Packs the ground program over its derivable head atoms, fixes the atoms
    the facts decide and folds them out (`_fold`), and searches the open
    atoms for the minimal models of their own reducts (`kernel`).
    CapacityExceeded ends a search that spends `kernel.NODE_BUDGET` nodes,
    or that reaches a model whose minimality needs a submask sweep over
    more than `brute_force_limit` atoms or `kernel.SWEEP_BUDGET` submasks.
    Each result is re-checked against the reference operations on
    `ground_program` (see `_verify_answer_set`).
    """
    packed = pack_program(ground_program)
    folded = fold_fixed(packed.flat())
    try:
        masks = _kernel.solve_masks(folded.flat, brute_force_limit=brute_force_limit)
    except _kernel.SearchExhausted as error:
        named = [
            packed.atoms[bit]
            for j, bit in enumerate(folded.open_bits)
            if error.atoms >> j & 1
        ]
        raise CapacityExceeded(
            f"{error.message}; {_largest_predicates(named)}"
        ) from None
    raw: list[Interpretation] = []
    for mask in masks:
        full = folded.unfold(mask)
        raw.append(
            frozenset(atom for i, atom in enumerate(packed.atoms) if full >> i & 1)
        )
    if verify:
        for interpretation in raw:
            _verify_answer_set(ground_program, interpretation)
    results = raw
    if project:
        seen: dict[Interpretation, None] = {}
        for interpretation in raw:
            seen.setdefault(project_interpretation(interpretation))
        results = list(seen)
    return tuple(sorted(results, key=interpretation_sort_key))


# --------------------------------------------------------------------------
# Weak constraints and optimality


def weak_cost(
    ground_program: GroundProgram, interpretation: Interpretation
) -> dict[Union[int, Term], int]:
    """Per-level cost: the sum of integer weights over the distinct
    (weight, level, tuple) triples whose constraint bodies are true.

    Integer levels key by their value and participate in domination;
    non-integer levels key by their term and are cost-neutral there. A
    warning is emitted for non-integer weights or levels.
    """
    triples: set[tuple[Term, Term, tuple[Term, ...]]] = set()
    for weak in ground_program.weak_constraints:
        if all(satisfies_literal(l, interpretation) for l in weak.body):
            triples.add((weak.weight, weak.level, weak.terms))
    costs: dict[Union[int, Term], int] = {}
    for weight, level, _terms in triples:
        if not isinstance(level, IntegerConstant):
            warnings.warn(
                "weak constraint with non-integer level does not participate "
                "in domination"
            )
        if not isinstance(weight, IntegerConstant):
            warnings.warn("non-integer weak constraint weight contributes no cost")
            continue
        key: Union[int, Term] = (
            level.value if isinstance(level, IntegerConstant) else level
        )
        costs[key] = costs.get(key, 0) + weight.value
    return costs


def dominates(
    costs_a: dict[Union[int, Term], int], costs_b: dict[Union[int, Term], int]
) -> bool:
    """Whether cost vector a is strictly better: smaller at some integer
    level and equal at every higher integer level."""
    levels = sorted(
        {l for l in costs_a if isinstance(l, int)}
        | {l for l in costs_b if isinstance(l, int)},
        reverse=True,
    )
    for level in levels:
        a, b = costs_a.get(level, 0), costs_b.get(level, 0)
        if a < b:
            return True
        if a > b:
            return False
    return False


def optimal_answer_sets(
    ground_program: GroundProgram,
    *,
    brute_force_limit: int = 24,
) -> tuple[Interpretation, ...]:
    """The answer sets not dominated by any other answer set, in the order
    of `answer_sets`.

    Domination compares costs lexicographically over the integer levels,
    a missing level counting as 0, so the non-dominated sets are those whose
    costs over the union of all integer levels form the least key.
    """
    sets = answer_sets(ground_program, brute_force_limit=brute_force_limit)
    costs = [weak_cost(ground_program, i) for i in sets]
    levels = sorted({l for c in costs for l in c if isinstance(l, int)}, reverse=True)
    keys = [tuple(c.get(level, 0) for level in levels) for c in costs]
    best = min(keys, default=None)
    return tuple(s for s, key in zip(sets, keys) if key == best)


# --------------------------------------------------------------------------
# Queries


@dataclass(frozen=True)
class QueryAnswer:
    """Outcome of a cautious query.

    status: "true" / "false" for ground queries, "answers" for non-ground
    ones (substitutions holds the common answers), or "inconsistent" when
    the program has no answer sets, in which case every substitution
    answers the query.
    """

    status: str
    substitutions: tuple[tuple[tuple[str, Term], ...], ...] = ()


def answer_query(
    ground_program: GroundProgram,
    query: Query,
    *,
    brute_force_limit: int = 24,
) -> QueryAnswer:
    """Cautious answering: true in every answer set."""
    sets = answer_sets(ground_program, brute_force_limit=brute_force_limit)
    if not sets:
        return QueryAnswer("inconsistent")
    atom = query.atom
    if not atom_variables(atom):
        args = [eval_arithmetic(a, {}) for a in atom.args]
        if any(a is None for a in args):
            return QueryAnswer("false")
        ground_atom = ClassicalAtom(atom.predicate, tuple(args), atom.strong_negation)
        held = all(ground_atom in interpretation for interpretation in sets)
        return QueryAnswer("true" if held else "false")
    common: Optional[set[tuple[tuple[str, Term], ...]]] = None
    for interpretation in sets:
        matches: set[tuple[tuple[str, Term], ...]] = set()
        for candidate in interpretation:
            sigma = match_atom(atom, candidate)
            if sigma is not None:
                matches.add(tuple(sorted(sigma.items())))
        common = matches if common is None else common & matches
        if not common:
            break
    answers = sorted(
        common or (),
        key=lambda s: tuple(term_sort_key(term) for _, term in s),
    )
    return QueryAnswer("answers", tuple(answers))
