"""Bitmask packing of ground programs for the enumeration kernels.

Candidate atoms become bit positions; rule bodies become positive/negative
masks plus packed aggregates whose tuples carry precomputed weights and
guard comparisons. Both the compiled and the pure-Python kernel consume the
same flat integer arrays, so they differ only in arithmetic width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ground import GroundProgram, builtin_truth, term_compare, term_sort_key
from .syntax import (
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

KIND_COUNT = 0
KIND_SUM = 1
KIND_MAX = 2
KIND_MIN = 3

_KIND = {
    AggregateFunction.COUNT: KIND_COUNT,
    AggregateFunction.SUM: KIND_SUM,
    AggregateFunction.MAX: KIND_MAX,
    AggregateFunction.MIN: KIND_MIN,
}

# Relation codes as both kernels read them (see _kernel_py._relation_truth).
_REL = {
    Relation.LT: 0,
    Relation.GT: 1,
    Relation.LE: 2,
    Relation.GE: 3,
    Relation.EQ: 4,
    Relation.NE: 5,
}


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


@dataclass(frozen=True)
class PackedProgram:
    """A ground program packed over its candidate atoms.

    `arrays` are the integer arrays the kernels read, in `flat()` order
    after the size:

    - conflicts: the mask of each atom together with its strong negation.
    - rule_meta: (head, pos, neg, start, count) per rule, where start and
      count select the rule's entries of agg_index.
    - agg_index: ids into agg_meta.
    - agg_meta: (naf, kind, then present, relation code, term is an
      integer and its value for the left and then the right guard, start,
      count) per aggregate, where start and count select tuple_meta rows.
    - tuple_meta: (weight for #sum, 1 if the tuple has a first term for
      #max/#min, term_compare of that term with the left and with the right
      guard term, start, count) per distinct element tuple, where start and
      count select cond_flat rows.
    - cond_flat: (pos, neg) masks; a tuple counts when one of its rows
      holds.
    """

    size: int
    atoms: tuple[ClassicalAtom, ...]
    arrays: tuple

    def flat(self) -> tuple:
        """Primitive-integer view shared by the enumeration kernels:
        (size, conflicts, rule_meta, agg_index, agg_meta, tuple_meta,
        cond_flat)."""
        return (self.size, *self.arrays)


def _guard_meta(guard: Optional[Guard]) -> tuple[int, int, int, int]:
    """(present, relation code, term is an integer, its value) of a guard."""
    if guard is None:
        return (0, 0, 0, 0)
    if isinstance(guard.term, IntegerConstant):
        return (1, _REL[guard.relation], 1, guard.term.value)
    return (1, _REL[guard.relation], 0, 0)


class _Packer:
    def __init__(self, atoms: list[ClassicalAtom]) -> None:
        self.bit = {atom: 1 << i for i, atom in enumerate(atoms)}
        self.rule_meta: list[tuple[int, int, int, int, int]] = []
        self.agg_index: list[int] = []
        self.agg_meta: list[tuple[int, ...]] = []
        self.tuple_meta: list[tuple[int, int, int, int, int, int]] = []
        self.cond_flat: list[tuple[int, int]] = []

    def literal_masks(self, literals) -> Optional[tuple[int, int]]:
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
            mask = self.bit.get(atom)
            if literal.naf:
                if mask is not None:
                    neg |= mask
            else:
                if mask is None:
                    return None
                pos |= mask
        return pos, neg

    def pack_rule(self, rule: Rule) -> None:
        """Append the rule unless its head leaves the candidate base or its
        body can never hold."""
        head = 0
        for atom in rule.head:
            mask = self.bit.get(atom)
            if mask is None:
                return
            head |= mask
        plain = [l for l in rule.body if not isinstance(l, AggregateLiteral)]
        aggregates = [l for l in rule.body if isinstance(l, AggregateLiteral)]
        masks = self.literal_masks(plain)
        if masks is None:
            return
        pos, neg = masks
        self.rule_meta.append((head, pos, neg, len(self.agg_index), len(aggregates)))
        for literal in aggregates:
            self.agg_index.append(len(self.agg_meta))
            self.pack_aggregate(literal)

    def pack_aggregate(self, literal: AggregateLiteral) -> None:
        atom = literal.atom
        by_tuple: dict[tuple[Term, ...], list[tuple[int, int]]] = {}
        for element in atom.elements:
            masks = self.literal_masks(element.condition)
            if masks is not None:
                by_tuple.setdefault(element.terms, []).append(masks)
        tuple_start = len(self.tuple_meta)
        order = sorted(by_tuple, key=lambda terms: tuple(term_sort_key(t) for t in terms))
        for terms in order:
            first = terms[0] if terms else None
            weight = first.value if isinstance(first, IntegerConstant) else 0
            cmp_left = cmp_right = 0
            if first is not None and atom.left_guard is not None:
                cmp_left = term_compare(first, atom.left_guard.term)
            if first is not None and atom.right_guard is not None:
                cmp_right = term_compare(first, atom.right_guard.term)
            conditions = by_tuple[terms]
            self.tuple_meta.append(
                (
                    weight,
                    1 if terms else 0,
                    cmp_left,
                    cmp_right,
                    len(self.cond_flat),
                    len(conditions),
                )
            )
            self.cond_flat.extend(conditions)
        self.agg_meta.append(
            (
                1 if literal.naf else 0,
                _KIND[atom.function],
                *_guard_meta(atom.left_guard),
                *_guard_meta(atom.right_guard),
                tuple_start,
                len(self.tuple_meta) - tuple_start,
            )
        )


def pack_program(program: GroundProgram) -> PackedProgram:
    """Pack a ground program over its derivable head atoms."""
    atoms = sorted(derivable_atoms(program), key=atom_sort_key)
    packer = _Packer(atoms)
    bit = packer.bit
    conflicts: list[int] = []
    for atom in atoms:
        if atom.strong_negation:
            partner = ClassicalAtom(atom.predicate, atom.args, False)
            mask = bit.get(partner)
            if mask is not None:
                conflicts.append(mask | bit[atom])
    for rule in program.rules:
        packer.pack_rule(rule)
    arrays = (
        conflicts,
        packer.rule_meta,
        packer.agg_index,
        packer.agg_meta,
        packer.tuple_meta,
        packer.cond_flat,
    )
    return PackedProgram(len(atoms), tuple(atoms), tuple(tuple(a) for a in arrays))
