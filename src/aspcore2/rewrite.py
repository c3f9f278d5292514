"""Shortcut elimination: rewrites programs into the disjunctive core.

After `desugar` a program contains only disjunctive rules and weak
constraints whose aggregates carry exactly one guard, on the right; choice
rules are compiled away with auxiliary predicates, and every anonymous
variable has been replaced by a fresh named variable. The pipeline is
idempotent: desugaring a desugared program returns it unchanged.

A statement with nothing to rewrite (no `_`, no choice head and no aggregate
with a left guard) is not rebuilt: the output shares that statement object
with the input, which is safe because every node is frozen.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Union

from .syntax import (
    AggregateAtom,
    AggregateElement,
    AggregateFunction,
    AggregateLiteral,
    AnonymousVariable,
    BodyLiteral,
    ChoiceAtom,
    ClassicalAtom,
    FunctionalTerm,
    Guard,
    INVERTED_RELATION,
    IntegerConstant,
    NafLiteral,
    Program,
    Query,
    Relation,
    Rule,
    Statement,
    Term,
    Variable,
    WeakConstraint,
    iter_statement_terms,
    iter_subterms,
    make_aux_name,
    statement_variables,
    transform_statement,
)


# --------------------------------------------------------------------------
# Anonymous variables


def name_anonymous_variables(statement: Statement) -> Statement:
    """Replace each `_` with a fresh variable unused in the statement."""
    if not any(
        isinstance(sub, AnonymousVariable)
        for top in iter_statement_terms(statement)
        for sub in iter_subterms(top)
    ):
        return statement
    used = statement_variables(statement)
    counter = 0

    def fresh() -> Variable:
        nonlocal counter
        while True:
            counter += 1
            name = f"V{counter}"
            if name not in used:
                used.add(name)
                return Variable(name)

    def rename(term: Term) -> Term:
        if isinstance(term, AnonymousVariable):
            return fresh()
        return term

    return transform_statement(statement, rename)


# --------------------------------------------------------------------------
# Guard normalization


def _flip_left_guard(atom: Union[AggregateAtom, ChoiceAtom]) -> Union[AggregateAtom, ChoiceAtom]:
    """Move a lone left guard of an aggregate or choice atom to the right by
    inverting its relation."""
    if atom.left_guard is None or atom.right_guard is not None:
        return atom
    guard = atom.left_guard
    flipped = Guard(guard.term, INVERTED_RELATION[guard.relation])
    return replace(atom, left_guard=None, right_guard=flipped)


def _split_two_bound_body(
    body: tuple[BodyLiteral, ...]
) -> Union[None, tuple[list[BodyLiteral]], tuple[list[BodyLiteral], list[BodyLiteral]]]:
    """Expand the first two-bound aggregate literal in `body`, if any.

    Returns None when there is nothing to expand, a 1-tuple for the positive
    case (both conjuncts stay in one body), and a 2-tuple for the negated
    case (the bodies of the two replacement statements).
    """
    for index, literal in enumerate(body):
        if not isinstance(literal, AggregateLiteral):
            continue
        atom = literal.atom
        if atom.left_guard is None or atom.right_guard is None:
            continue
        left_only = AggregateAtom(atom.function, atom.elements, atom.left_guard, None)
        right_only = AggregateAtom(atom.function, atom.elements, None, atom.right_guard)
        before, after = list(body[:index]), list(body[index + 1 :])
        if literal.naf:
            first = before + [AggregateLiteral(left_only, naf=True)] + after
            second = before + [AggregateLiteral(right_only, naf=True)] + after
            return (first, second)
        both = (
            before
            + [AggregateLiteral(left_only), AggregateLiteral(right_only)]
            + after
        )
        return (both,)
    return None


def normalize_guards(statement: Statement) -> list[Statement]:
    """Expand two-bound aggregates and choices, then flip left-only guards."""
    stack: list[Statement] = [statement]
    done: list[Statement] = []
    while stack:
        current = stack.pop()
        if isinstance(current, Query):
            done.append(current)
            continue
        head = current.head if isinstance(current, Rule) else None
        if (
            isinstance(head, ChoiceAtom)
            and head.left_guard is not None
            and head.right_guard is not None
        ):
            for guards in ((None, head.right_guard), (head.left_guard, None)):
                stack.append(replace(current, head=ChoiceAtom(head.elements, *guards)))
            continue
        split = _split_two_bound_body(current.body)
        if split is not None:
            stack.extend(replace(current, body=tuple(body)) for body in reversed(split))
            continue
        # What is left to rewrite is a lone left guard.
        if isinstance(head, ChoiceAtom) and head.left_guard is not None:
            current = replace(current, head=_flip_left_guard(head))
        body = current.body
        if any(isinstance(l, AggregateLiteral) and l.atom.left_guard is not None for l in body):
            current = replace(current, body=tuple(map(_flip_body_literal, body)))
        done.append(current)
    return done


def _flip_body_literal(literal: BodyLiteral) -> BodyLiteral:
    if isinstance(literal, AggregateLiteral):
        return AggregateLiteral(_flip_left_guard(literal.atom), literal.naf)
    return literal


# --------------------------------------------------------------------------
# Choice rules


def desugar_choice_rules(program: Program) -> Program:
    """Compile choice rules into disjunctive rules plus a count constraint.

    Each element `a : l1, ..., lk` of a choice rule `C <rel> u :- body`
    produces `a | a' :- body, l1, ..., lk` where `a'` is a fresh atom pairing
    a polarity flag with the arguments of `a`; a final constraint enforces the
    guard by counting the chosen `a'` terms.
    """
    # one auxiliary predicate per source predicate, numbered in order of use
    aux_names: dict[str, str] = {}
    rules: list[Rule] = []
    for rule in program.rules:
        if not isinstance(rule.head, ChoiceAtom):
            rules.append(rule)
            continue
        choice = rule.head
        if choice.left_guard is not None:
            raise ValueError("choice guards must be normalized before desugaring")
        guard = choice.right_guard
        if guard is None:
            guard = Guard(IntegerConstant(0), Relation.GE)
        count_elements: list[AggregateElement] = []
        for element in choice.elements:
            atom = element.atom
            aux_predicate = aux_names.setdefault(
                atom.predicate, make_aux_name(atom.predicate, len(aux_names))
            )
            polarity = IntegerConstant(0 if atom.strong_negation else 1)
            aux_args = (polarity,) + atom.args
            aux_atom = ClassicalAtom(aux_predicate, aux_args)
            aux_term = FunctionalTerm(aux_predicate, aux_args)
            rules.append(
                Rule(
                    (atom, aux_atom),
                    rule.body + element.condition,
                    span=rule.span,
                )
            )
            count_elements.append(
                AggregateElement(
                    (aux_term,),
                    (NafLiteral(atom),) + element.condition,
                )
            )
        count = AggregateAtom(
            AggregateFunction.COUNT, tuple(count_elements), None, guard
        )
        rules.append(
            Rule(
                (),
                rule.body + (AggregateLiteral(count, naf=True),),
                span=rule.span,
            )
        )
    return Program(tuple(rules), program.weak_constraints, program.query)


# --------------------------------------------------------------------------
# Full pipeline


def desugar(program: Program) -> Program:
    """Anonymous-variable naming, guard normalization, choice elimination."""
    rules: list[Rule] = []
    weaks: list[WeakConstraint] = []
    for statement in program.rules + program.weak_constraints:
        for normalized in normalize_guards(name_anonymous_variables(statement)):
            if isinstance(normalized, Rule):
                rules.append(normalized)
            else:
                weaks.append(normalized)
    query = program.query
    if query is not None:
        query = name_anonymous_variables(query)
    return desugar_choice_rules(Program(tuple(rules), tuple(weaks), query))
