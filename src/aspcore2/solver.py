"""Answer sets, optimality, and cautious query answering over ground
programs.

Literal satisfaction and aggregate values work directly on atom sets.
Models and reducts are computed on numbered atoms (`_Checker`): each atom
of the ground program is hashed once, and one pass over the rule bodies
gives both whether an interpretation is a model and its reduct.
Enumeration packs the ground program into bitmask rules and searches them
(`kernel`), whose root propagation decides what the facts decide. The
search decides minimality exactly for every model. Every emitted answer
set is re-checked against the definitions on the unsimplified ground
program, by a `_Checker` built once per call: consistency, modelhood and
minimality, the last component by component as the search decides it, but
on the checker's own numbered rules. Only a cyclic component that holds
more than COMPONENT_LIMIT atoms of a set leaves its part of the check
undone.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterable, NamedTuple, Optional, Union

from . import kernel as _kernel
from ._packed import pack_program
from .analysis import DependencyGraph, atom_signature, signature_to_text
from .errors import CapacityExceeded
from .ground import (
    GREATER,
    GroundProgram,
    LESS,
    builtin_truth,
    instantiate_atom,
    match_atom,
    relation_holds,
    term_compare,
    term_sort_key,
)
from .syntax import (
    AUX_MARKER,
    AggregateAtom,
    AggregateElement,
    AggregateFunction,
    AggregateLiteral,
    BodyLiteral,
    BuiltinAtom,
    ClassicalAtom,
    FunctionalTerm,
    IntegerConstant,
    Query,
    Rule,
    SymbolicConstant,
    Term,
    atom_variables,
)

Interpretation = frozenset[ClassicalAtom]

# The most atoms of an answer set in one cyclic component whose subsets the
# verifier tries; a larger part of a set is left unchecked (2^12 subsets).
COMPONENT_LIMIT = 12


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


def _aggregate_value(
    function: AggregateFunction, satisfied: Collection[tuple[Term, ...]]
) -> AggregateValue:
    """Aggregate value over the distinct element tuples whose conditions
    hold."""
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


def eval_aggregate(
    function: AggregateFunction,
    elements: Iterable[AggregateElement],
    interpretation: Interpretation,
) -> AggregateValue:
    """Aggregate value over the set of tuples whose conditions hold."""
    return _aggregate_value(
        function,
        {
            element.terms
            for element in elements
            if all(satisfies_literal(l, interpretation) for l in element.condition)
        },
    )


def _guards_hold(atom: AggregateAtom, value: AggregateValue) -> bool:
    """Whether an aggregate value satisfies the aggregate's guards."""
    if atom.left_guard is not None and not relation_holds(
        -_value_compare(value, atom.left_guard.term), atom.left_guard.relation
    ):
        return False
    return atom.right_guard is None or relation_holds(
        _value_compare(value, atom.right_guard.term), atom.right_guard.relation
    )


def satisfies_literal(
    literal: BodyLiteral, interpretation: Interpretation
) -> bool:
    if isinstance(literal, AggregateLiteral):
        atom = literal.atom
        value = eval_aggregate(atom.function, atom.elements, interpretation)
        return _guards_hold(atom, value) != literal.naf
    atom = literal.atom
    if isinstance(atom, BuiltinAtom):
        truth = builtin_truth(atom.left, atom.relation, atom.right)
    else:
        truth = atom in interpretation
    return truth != literal.naf


class _NumberedRule(NamedTuple):
    """A ground rule on the numbers of its atoms (see `_Checker`)."""

    source: Rule
    head: frozenset[int]
    pos: frozenset[int]
    neg: frozenset[int]
    # (naf, aggregate atom, its distinct element tuples, (tuple index, pos,
    # neg) per element that can hold)
    aggregates: tuple[tuple[bool, AggregateAtom, tuple, tuple], ...]
    # every atom of an aggregate condition, for the cyclic components
    conditions: frozenset[int]


class _Checker:
    """The rules of a ground program on numbered atoms, for checking
    interpretations against the definitions.

    Each distinct atom of the program is hashed once, here, to a number.
    Ground builtins are decided here too: a rule or an aggregate element
    with a false one can never hold and is left out, and a true one is
    left out of its body or condition. An interpretation is then numbered
    with one hash per atom, and one pass over the rules gives both its
    modelhood and its reduct.
    """

    def __init__(self, ground_program: GroundProgram) -> None:
        self.numbers: dict[ClassicalAtom, int] = {}
        self.rules: list[_NumberedRule] = []
        for rule in ground_program.rules:
            holds, pos, neg, literals = self._split(rule.body)
            if not holds:
                continue
            aggregates = []
            conditions: set[int] = set()
            for literal in literals:
                tuples: dict[tuple[Term, ...], int] = {}
                elements = []
                for element in literal.atom.elements:
                    element_holds, element_pos, element_neg, _ = self._split(
                        element.condition
                    )
                    conditions |= element_pos | element_neg
                    if element_holds:
                        index = tuples.setdefault(element.terms, len(tuples))
                        elements.append((index, element_pos, element_neg))
                aggregates.append(
                    (literal.naf, literal.atom, tuple(tuples), tuple(elements))
                )
            head = frozenset(map(self._number, rule.head))
            self.rules.append(
                _NumberedRule(
                    rule, head, pos, neg, tuple(aggregates), frozenset(conditions)
                )
            )
        self._cyclic: Optional[list[frozenset[int]]] = None

    def _number(self, atom: ClassicalAtom) -> int:
        return self.numbers.setdefault(atom, len(self.numbers))

    def _split(self, literals: Iterable[BodyLiteral]):
        """(whether every builtin holds, positive atoms, naf atoms, aggregate
        literals) of `literals`, atoms as numbers."""
        holds = True
        pos: set[int] = set()
        neg: set[int] = set()
        aggregates = []
        for literal in literals:
            atom = literal.atom
            if isinstance(literal, AggregateLiteral):
                aggregates.append(literal)
            elif isinstance(atom, BuiltinAtom):
                holds = holds and (
                    builtin_truth(atom.left, atom.relation, atom.right) != literal.naf
                )
            else:
                (neg if literal.naf else pos).add(self._number(atom))
        return holds, frozenset(pos), frozenset(neg), aggregates

    def _cyclic_components(self) -> list[frozenset[int]]:
        """The program's cyclic components: strongly connected over the
        edges body atom -> head atom and condition atom -> head atom, and
        holding two atoms of one head, or a condition atom of a rule with a
        head atom of that rule. Decided on first use, once per checker."""
        if self._cyclic is None:
            self._cyclic = []
            rules = self.rules
            # only a rule with a condition or two head atoms can make one
            if any(len(rule.head) > 1 or rule.conditions for rule in rules):
                edges = frozenset(
                    (b, h)
                    for rule in rules
                    for b in rule.pos | rule.conditions
                    for h in rule.head
                )
                atoms = frozenset().union(*(r.head | r.pos | r.conditions for r in rules))
                parts = DependencyGraph(atoms, edges).components()
                component = {atom: part for part in parts for atom in part}
                cyclic: dict[frozenset[int], None] = {}
                for rule in rules:
                    heads = [component[h] for h in rule.head]
                    for part in heads:
                        if heads.count(part) > 1 or not part.isdisjoint(rule.conditions):
                            cyclic[part] = None
                self._cyclic = list(cyclic)
        return self._cyclic

    def numbered(self, interpretation: Interpretation) -> frozenset[int]:
        """The numbers of an interpretation's atoms. An atom outside the
        program gets a fresh number: a negative one, distinct per atom."""
        get = self.numbers.get
        return frozenset(
            [get(atom, -1 - i) for i, atom in enumerate(interpretation)]
        )

    def verify_answer_set(self, interpretation: Interpretation) -> None:
        """Post-hoc reference check of one emitted answer set M: consistent,
        a model, and minimal for its reduct. M is minimal exactly when it is
        the least model of its shifted reduct with its atoms in cyclic
        components as facts, and for each cyclic component C no N with
        M - C <= N < M is a model of the reduct (Koch, Leone & Pfeifer, AIJ
        2003). The second test tries every subset of M's atoms in C, but
        skips a C that holds more than COMPONENT_LIMIT of them."""
        if not _is_consistent(interpretation):
            raise RuntimeError("internal error: inconsistent answer set emitted")
        model = self.numbered(interpretation)
        kept = _holding(self.rules, model)
        if not _heads_met(kept, model):
            raise RuntimeError("internal error: emitted answer set is not a model")
        parts = [model & part for part in self._cyclic_components()]
        facts = [(atom, frozenset()) for part in parts for atom in part]
        shifted = [
            (next(iter(head)), rule.pos)
            for rule in kept
            if len(head := rule.head & model) == 1
        ]
        if _least_model(shifted + facts) != model or any(
            _smaller_model(kept, model, part)
            for part in parts
            if 0 < len(part) <= COMPONENT_LIMIT
        ):
            raise RuntimeError(
                "internal error: emitted answer set is not minimal for its reduct"
            )


def _smaller_model(
    kept: list[_NumberedRule], model: frozenset[int], part: frozenset[int]
) -> bool:
    """Whether some N with model - part <= N < model is a model of the
    reduct `kept`, trying every subset of `part`. Only the rules whose head
    meets `model` inside `part` alone can fail in such an N."""
    rules = [rule for rule in kept if rule.head & model <= part]
    atoms = tuple(part)
    rest = model - part
    return any(
        _heads_met(_holding(rules, subset), subset)
        for subset in (
            rest | {a for i, a in enumerate(atoms) if mask >> i & 1}
            for mask in range((1 << len(atoms)) - 1)
        )
    )


def _aggregates_hold(aggregates, model: frozenset[int]) -> bool:
    """Whether every aggregate literal of a numbered rule body holds in
    `model`."""
    for naf, atom, tuples, elements in aggregates:
        satisfied = {
            index
            for index, pos, neg in elements
            if pos <= model and model.isdisjoint(neg)
        }
        value = _aggregate_value(atom.function, [tuples[i] for i in satisfied])
        if _guards_hold(atom, value) == naf:
            return False
    return True


def _holding(rules: list[_NumberedRule], model: frozenset[int]) -> list[_NumberedRule]:
    """The rules whose bodies hold in `model`, in order."""
    return [
        rule
        for rule in rules
        if rule.pos <= model
        and model.isdisjoint(rule.neg)
        and (not rule.aggregates or _aggregates_hold(rule.aggregates, model))
    ]


def _heads_met(rules: list[_NumberedRule], model: frozenset[int]) -> bool:
    """Whether every rule of `rules` has a head atom in `model`."""
    return all(not rule.head.isdisjoint(model) for rule in rules)


def is_model(ground_program: GroundProgram, interpretation: Interpretation) -> bool:
    """Every rule with a true body has a true head atom."""
    checker = _Checker(ground_program)
    model = checker.numbered(interpretation)
    return _heads_met(_holding(checker.rules, model), model)


def reduct(
    ground_program: GroundProgram, interpretation: Interpretation
) -> GroundProgram:
    """Rules whose entire body is true under the interpretation, verbatim."""
    checker = _Checker(ground_program)
    kept = _holding(checker.rules, checker.numbered(interpretation))
    return GroundProgram(tuple(rule.source for rule in kept))


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


def _least_model(rules: list[tuple[int, frozenset[int]]]) -> set[int]:
    """Least model of definite rules given as (head, positive body)."""
    waiting: dict[int, list[int]] = {}
    missing = []
    queue = []
    for index, (head, body) in enumerate(rules):
        missing.append(len(body))
        for atom in body:
            waiting.setdefault(atom, []).append(index)
        if not body:
            queue.append(head)
    derived: set[int] = set()
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
    brute_force_limit: object = None,
    project: bool = True,
    verify: bool = True,
) -> tuple[Interpretation, ...]:
    """All answer sets, projected onto the user signature and sorted.

    Packs the ground program over its derivable head atoms and searches the
    packed rules for the minimal models of their own reducts (`kernel`),
    deciding minimality exactly for every model. CapacityExceeded ends a
    search that spends `kernel.NODE_BUDGET` nodes. Each result is
    re-checked against the definitions on `ground_program` (see
    `_Checker.verify_answer_set`).

    Nothing reads `brute_force_limit`; it is accepted only because
    `perfbench/worker.py` still passes it, and goes when perfbench stops passing it.
    """
    packed = pack_program(ground_program)
    try:
        masks = _kernel.solve_masks(packed.flat())
    except _kernel.SearchExhausted as error:
        named = [atom for i, atom in enumerate(packed.atoms) if error.atoms >> i & 1]
        raise CapacityExceeded(
            f"{error.message}; {_largest_predicates(named)}"
        ) from None
    raw = [
        frozenset(atom for i, atom in enumerate(packed.atoms) if mask >> i & 1)
        for mask in masks
    ]
    if verify:
        checker = _Checker(ground_program)
        for interpretation in raw:
            checker.verify_answer_set(interpretation)
    results = raw
    if project:
        seen: dict[Interpretation, None] = {}
        for interpretation in raw:
            seen.setdefault(project_interpretation(interpretation))
        results = list(seen)
    keys = {atom: atom_order_key(atom) for atom in packed.atoms}
    return tuple(sorted(results, key=lambda s: tuple(sorted(keys[a] for a in s))))


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
    # distinct in program order, so the warnings come in a fixed order
    triples = dict.fromkeys(
        (weak.weight, weak.level, weak.terms)
        for weak in ground_program.weak_constraints
        if all(satisfies_literal(l, interpretation) for l in weak.body)
    )
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


def optimal_answer_sets(
    ground_program: GroundProgram,
    *,
    brute_force_limit: object = None,
) -> tuple[Interpretation, ...]:
    """The answer sets not dominated by any other answer set, in the order
    of `answer_sets`.

    Domination compares costs lexicographically over the integer levels,
    a missing level counting as 0, so the non-dominated sets are those whose
    costs over the union of all integer levels form the least key.
    Nothing reads `brute_force_limit` (see `answer_sets`).
    """
    return _optimal_with_costs(ground_program)[0]


def _optimal_with_costs(
    ground_program: GroundProgram,
) -> tuple[tuple[Interpretation, ...], list[dict[Union[int, Term], int]]]:
    """`optimal_answer_sets` and the `weak_cost` of each, every answer set
    costed once."""
    sets = answer_sets(ground_program)
    costs = [weak_cost(ground_program, i) for i in sets]
    levels = sorted({l for c in costs for l in c if isinstance(l, int)}, reverse=True)
    keys = [tuple(c.get(level, 0) for level in levels) for c in costs]
    best = min(keys, default=None)
    optimal = [(s, c) for s, c, key in zip(sets, costs, keys) if key == best]
    return tuple(s for s, _ in optimal), [c for _, c in optimal]


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
    brute_force_limit: object = None,
) -> QueryAnswer:
    """Cautious answering: true in every answer set. Nothing reads
    `brute_force_limit` (see `answer_sets`)."""
    sets = answer_sets(ground_program)
    if not sets:
        return QueryAnswer("inconsistent")
    atom = query.atom
    if not atom_variables(atom):
        ground_atom = instantiate_atom(atom, {})
        if ground_atom is None:
            return QueryAnswer("false")
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
