"""Bitmask packing of ground programs for the search.

Candidate atoms become bit positions. A packed rule is `(head, pos, neg,
aggregates)`: the masks of its head atoms and of its positive and naf body
atoms, and its body's aggregates as `Aggregate`s, whose tuples carry their
weight and their comparison with each guard. The search (`kernel`) reads
the rules as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .ground import GroundProgram, builtin_truth, term_compare, term_sort_key
from .syntax import (
    INVERTED_RELATION,
    AggregateFunction,
    AggregateLiteral,
    BuiltinAtom,
    ClassicalAtom,
    Guard,
    IntegerConstant,
    Relation,
    Rule,
    Term,
)


def atom_sort_key(atom: ClassicalAtom):
    return (
        atom.predicate,
        len(atom.args),
        tuple(term_sort_key(a) for a in atom.args),
        atom.strong_negation,
    )


def derivable_atoms(program: GroundProgram) -> set[ClassicalAtom]:
    """Head atoms derivable when naf-literals and aggregates are taken as
    satisfiable; builtin atoms have fixed truth and do filter."""
    derived: set[ClassicalAtom] = set()
    pending = list(program.rules)
    changed = True
    while changed:
        changed = False
        remaining: list[Rule] = []
        for rule in pending:
            viable = True
            fires = True
            for literal in rule.body:
                if isinstance(literal, AggregateLiteral):
                    continue
                if isinstance(literal.atom, BuiltinAtom):
                    atom = literal.atom
                    if builtin_truth(atom.left, atom.relation, atom.right) == literal.naf:
                        viable = False
                        break
                elif not literal.naf and literal.atom not in derived:
                    fires = False
            if not viable:
                continue
            if fires:
                for atom in rule.head:
                    if atom not in derived:
                        derived.add(atom)
                        changed = True
            else:
                remaining.append(rule)
        pending = remaining
    return derived


class Aggregate(NamedTuple):
    """A packed aggregate literal.

    - left, right: each guard as `(relation, bound)`, read as `value
      relation bound`, so the left guard's relation is inverted; the bound
      is the guard's integer, or None for a symbolic term. None when the
      guard is absent.
    - atoms: the mask of every atom the conditions mention.
    - tuples: `(weight, cmp_left, cmp_right, rows)` per distinct element
      tuple, in term order: the weight it adds (1 for `#count`, its
      integer or else 0 for `#sum`), the term_compare of its first term
      with each guard's term, and the (pos, neg) masks of its conditions,
      one of which must hold for the tuple to count. `#min` and `#max`
      keep only the tuples with a term.
    """

    naf: bool
    function: AggregateFunction
    left: Optional[tuple[Relation, Optional[int]]]
    right: Optional[tuple[Relation, Optional[int]]]
    atoms: int
    tuples: tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]


@dataclass(frozen=True)
class PackedProgram:
    """A ground program packed over its candidate atoms.

    `rules` holds each rule whose head atoms are all candidates and whose
    body can hold, in program order, then a constraint `(0, mask, 0, ())`
    per atom and its strong negation.
    """

    size: int
    atoms: tuple[ClassicalAtom, ...]
    rules: tuple[tuple[int, int, int, tuple[Aggregate, ...]], ...]

    def flat(self) -> tuple:
        """What the search reads: (size, rules)."""
        return (self.size, self.rules)


def _literal_masks(bit: dict, literals) -> Optional[tuple[int, int]]:
    """Fold literals into (pos, neg) masks; None when one can never hold:
    a false builtin, or a positive atom outside the candidate base. True
    builtins are left out."""
    pos = neg = 0
    for literal in literals:
        atom = literal.atom
        if isinstance(atom, BuiltinAtom):
            if builtin_truth(atom.left, atom.relation, atom.right) == literal.naf:
                return None
            continue
        mask = bit.get(atom)
        if literal.naf:
            if mask is not None:
                neg |= mask
        else:
            if mask is None:
                return None
            pos |= mask
    return pos, neg


def _pack_guard(guard: Optional[Guard], inverted: bool = False):
    if guard is None:
        return None
    relation = INVERTED_RELATION[guard.relation] if inverted else guard.relation
    term = guard.term
    return relation, term.value if isinstance(term, IntegerConstant) else None


def _pack_aggregate(bit: dict, literal: AggregateLiteral) -> Aggregate:
    atom = literal.atom
    function = atom.function
    left, right = atom.left_guard, atom.right_guard
    by_tuple: dict[tuple[Term, ...], list[tuple[int, int]]] = {}
    for element in atom.elements:
        masks = _literal_masks(bit, element.condition)
        if masks is not None:
            by_tuple.setdefault(element.terms, []).append(masks)
    atoms = 0
    tuples = []
    for terms in sorted(by_tuple, key=lambda terms: tuple(term_sort_key(t) for t in terms)):
        rows = tuple(by_tuple[terms])
        for pos, neg in rows:
            atoms |= pos | neg
        first = terms[0] if terms else None
        if first is None and function in (AggregateFunction.MAX, AggregateFunction.MIN):
            continue
        if function is AggregateFunction.COUNT:
            weight = 1
        else:
            weight = first.value if isinstance(first, IntegerConstant) else 0
        cmp_left = cmp_right = 0
        if first is not None and left is not None:
            cmp_left = term_compare(first, left.term)
        if first is not None and right is not None:
            cmp_right = term_compare(first, right.term)
        tuples.append((weight, cmp_left, cmp_right, rows))
    return Aggregate(
        literal.naf, function, _pack_guard(left, True), _pack_guard(right), atoms, tuple(tuples)
    )


def _pack_rule(bit: dict, rule: Rule):
    """The packed rule; None when its head leaves the candidate base or its
    body can never hold."""
    head = 0
    for atom in rule.head:
        mask = bit.get(atom)
        if mask is None:
            return None
        head |= mask
    plain = [l for l in rule.body if not isinstance(l, AggregateLiteral)]
    masks = _literal_masks(bit, plain)
    if masks is None:
        return None
    aggregates = tuple(
        _pack_aggregate(bit, l) for l in rule.body if isinstance(l, AggregateLiteral)
    )
    return (head, *masks, aggregates)


def pack_program(program: GroundProgram) -> PackedProgram:
    """Pack a ground program over its derivable head atoms."""
    atoms = sorted(derivable_atoms(program), key=atom_sort_key)
    bit = {atom: 1 << i for i, atom in enumerate(atoms)}
    rules = [_pack_rule(bit, rule) for rule in program.rules]
    rules = [rule for rule in rules if rule is not None]
    for atom in atoms:
        if atom.strong_negation:
            mask = bit.get(ClassicalAtom(atom.predicate, atom.args, False))
            if mask is not None:
                rules.append((0, mask | bit[atom], 0, ()))
    return PackedProgram(len(atoms), tuple(atoms), tuple(rules))
