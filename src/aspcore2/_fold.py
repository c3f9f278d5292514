"""Fixing the atoms the facts decide, and folding them out of the packed
arrays before the search runs; the propagation the search repeats at every
node; and the truth of bodies and aggregates over the flat arrays.

One fixpoint over the flat arrays fixes atoms in two ways:

- true: a rule whose body is certainly true has one head atom that is not
  fixed false;
- false: no rule could support the atom, or a rule whose head atoms are all
  fixed false, or a constraint, has a certainly true rest and the atom as
  its only open positive literal.

A body is certainly true when its positive atoms are fixed true, its naf
atoms fixed false, and every aggregate has all of its condition atoms fixed
and holds on them. Conflicts count as constraints. A constraint never fixes
an atom true: a true-fixed atom must belong to every model of the reduct
below the answer set, or a minimality check over the folded arrays would
accept sets that are not minimal.

Folding drops each rule whose body is false or whose head holds a
fixed-true atom, deletes the fixed atoms from the remaining masks and
renumbers the open atoms. M' is an answer set of the folded arrays exactly
when M' with the fixed-true atoms added is one of the packed program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._packed import KIND_COUNT, KIND_MAX, KIND_MIN, KIND_SUM
from .ground import relation_holds
from .syntax import INVERTED_RELATION, Relation


@dataclass(frozen=True)
class Folded:
    """The flat arrays over the open atoms of a packed program.

    `fixed_true` is a mask over the packed program's bits; bit j of a
    folded mask stands for packed bit `open_bits[j]`.
    """

    flat: tuple
    fixed_true: int
    open_bits: tuple[int, ...]

    def unfold(self, mask: int) -> int:
        """The packed mask of a folded answer set, fixed-true atoms included."""
        full = self.fixed_true
        for j, bit in enumerate(self.open_bits):
            if mask >> j & 1:
                full |= 1 << bit
        return full


def _single_bit(mask: int) -> bool:
    return mask != 0 and mask & (mask - 1) == 0


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _tuple_satisfied(mask: int, conds, start: int, count: int) -> bool:
    for c in range(start, start + count):
        pos, neg = conds[c]
        if (mask & pos) == pos and (mask & neg) == 0:
            return True
    return False


def _aggregate_true(mask: int, meta, tuples, conds) -> bool:
    (
        naf,
        kind,
        has_left,
        left_rel,
        left_is_int,
        left_val,
        has_right,
        right_rel,
        right_is_int,
        right_val,
        start,
        count,
    ) = meta
    if kind in (KIND_COUNT, KIND_SUM):
        value = 0
        for t in range(start, start + count):
            weight, _, _, _, cstart, ccount = tuples[t]
            if _tuple_satisfied(mask, conds, cstart, ccount):
                value += 1 if kind == KIND_COUNT else weight
        truth = True
        if has_left:
            cmp = (value > left_val) - (value < left_val) if left_is_int else -1
            truth = relation_holds(-cmp, left_rel)
        if truth and has_right:
            cmp = (value > right_val) - (value < right_val) if right_is_int else -1
            truth = relation_holds(cmp, right_rel)
    else:
        # empty set: #max is -infinity (compares below all), #min +infinity
        best_left = best_right = -1 if kind == KIND_MAX else 1
        for t in range(start, start + count):
            _, participates, cmp_left, cmp_right, cstart, ccount = tuples[t]
            if participates and _tuple_satisfied(mask, conds, cstart, ccount):
                if kind == KIND_MAX:
                    if cmp_left > best_left:
                        best_left = cmp_left
                    if cmp_right > best_right:
                        best_right = cmp_right
                else:
                    if cmp_left < best_left:
                        best_left = cmp_left
                    if cmp_right < best_right:
                        best_right = cmp_right
        truth = True
        if has_left:
            truth = relation_holds(-best_left, left_rel)
        if truth and has_right:
            truth = relation_holds(best_right, right_rel)
    return truth != bool(naf)


def _body_true(mask: int, rule, agg_index, aggs, tuples, conds) -> bool:
    head, pos, neg, astart, acount = rule
    if (mask & pos) != pos or (mask & neg) != 0:
        return False
    for a in range(astart, astart + acount):
        if not _aggregate_true(mask, aggs[agg_index[a]], tuples, conds):
            return False
    return True


def _range_truth(low: int, high: int, rel: Relation, guard: int) -> Optional[bool]:
    """The truth of `v rel guard` for every v in [low, high]; None when it
    varies."""
    at_low = relation_holds((low > guard) - (low < guard), rel)
    if low == high:
        return at_low
    at_high = relation_holds((high > guard) - (high < guard), rel)
    # = and != also change inside the range
    if at_low != at_high or (
        rel in (Relation.EQ, Relation.NE) and low <= guard <= high
    ):
        return None
    return at_low


class _Fixpoint:
    """Propagation over the flat arrays, driven by occurrence lists:
    fixing an atom revisits only the rules that mention it, and the support
    of the head atoms of each rule that can no longer fire.

    With `search` off (folding), a rule acts as described at the top of
    this module. With it on, a partial assignment of the search also
    - refutes an open naf atom: it becomes true when it is the one open
      literal of a rule whose head atoms are all false;
    - bounds `#count` and `#sum`: the lowest and highest values the open
      condition atoms still allow decide the guards once the whole range
      falls on one side (`#min` and `#max` wait for all their atoms);
    - stops at a conflict: a certain body without a live head atom, or a
      true atom that no rule can still support.
    Folding leaves these out because its fixed-true atoms must lie in every
    model of the reduct below an answer set, and a constraint that makes an
    atom true gives no such guarantee.
    """

    def __init__(self, flat, search: bool = False) -> None:
        size, conflicts, rules, agg_index, aggs, tuples, conds = flat
        self.flat = flat
        self.search = search
        # conflicts act as constraints over both atoms
        self.rules = [
            (head, pos, neg, agg_index[astart : astart + acount])
            for head, pos, neg, astart, acount in rules
        ] + [(0, c, 0, ()) for c in conflicts]
        # per aggregate: every atom its conditions mention, and its tuples
        # as (weight, condition rows)
        self.agg_atoms = []
        self.agg_tuples = []
        for meta in aggs:
            atoms = 0
            rows_of = []
            for weight, _, _, _, cstart, ccount in tuples[meta[10] : meta[10] + meta[11]]:
                rows = conds[cstart : cstart + ccount]
                for pos, neg in rows:
                    atoms |= pos | neg
                rows_of.append((1 if meta[1] == KIND_COUNT else weight, rows))
            self.agg_atoms.append(atoms)
            self.agg_tuples.append(rows_of)
        # occurrence lists: the rules mentioning each atom, as a mask of
        # rule ids, and the rules with the atom in their head
        self.watch = [0] * size
        self.heads: list[list[int]] = [[] for _ in range(size)]
        for number, (head, pos, neg, indices) in enumerate(self.rules):
            atoms = head | pos | neg
            for index in indices:
                atoms |= self.agg_atoms[index]
            for j in _bits(atoms):
                self.watch[j] |= 1 << number
            for j in _bits(head):
                self.heads[j].append(number)

    def aggregate(self, index: int, true: int, false: int) -> Optional[bool]:
        """True or False once the assignment decides the aggregate, else
        None."""
        _, _, _, _, aggs, tuples, conds = self.flat
        meta = aggs[index]
        if not self.agg_atoms[index] & ~(true | false):
            return _aggregate_true(true, meta, tuples, conds)
        if not self.search or meta[1] in (KIND_MAX, KIND_MIN):
            return None
        low = high = 0
        for weight, rows in self.agg_tuples[index]:
            possible = certain = False
            for pos, neg in rows:
                if pos & false or neg & true:
                    continue
                possible = True
                if not (pos & ~true or neg & ~false):
                    certain = True
                    break
            if certain:
                low += weight
                high += weight
            elif possible:
                if weight > 0:
                    high += weight
                else:
                    low += weight
        naf, _, has_left, left_rel, left_is_int, left_val = meta[:6]
        has_right, right_rel, right_is_int, right_val = meta[6:10]
        truth: Optional[bool] = True
        if has_left:
            # a symbolic guard follows every integer
            truth = (
                _range_truth(low, high, INVERTED_RELATION[left_rel], left_val)
                if left_is_int
                else relation_holds(1, left_rel)
            )
        if truth is not False and has_right:
            right = (
                _range_truth(low, high, right_rel, right_val)
                if right_is_int
                else relation_holds(-1, right_rel)
            )
            if truth or right is False:
                truth = right
        return None if truth is None else truth != bool(naf)

    def _undecided(self, indices, true: int, false: int) -> Optional[int]:
        """How many of the aggregates `indices` are undecided; None when one
        is false."""
        undecided = 0
        for index in indices:
            truth = self.aggregate(index, true, false)
            if truth is False:
                return None
            if truth is None:
                undecided += 1
        return undecided

    def body(self, number: int, true: int, false: int) -> Optional[bool]:
        """False when rule `number`'s body can never hold, True when it
        certainly holds, None otherwise."""
        _, pos, neg, indices = self.rules[number]
        if pos & false or neg & true:
            return False
        undecided = self._undecided(indices, true, false)
        if undecided is None:
            return False
        return None if undecided or pos & ~true or neg & ~false else True

    def _supported(self, j: int, true: int, false: int) -> bool:
        """Whether a rule can still fire with atom j as its only true head
        atom."""
        others = true & ~(1 << j)
        return any(
            not self.rules[number][0] & others
            and self.body(number, true, false) is not False
            for number in self.heads[j]
        )

    def propagate(
        self, true: int, false: int, rules: int, atoms: int
    ) -> Optional[tuple[int, int]]:
        """The fixpoint from (true, false) as (true, false), revisiting first
        the rules in the mask `rules` and the support of the atoms in the
        mask `atoms`; None at a conflict when searching."""
        table = self.rules
        search = self.search
        while rules or atoms:
            fixed = 0
            while rules:
                low = rules & -rules
                rules ^= low
                head, pos, neg, indices = table[low.bit_length() - 1]
                if head & true or pos & false or neg & true:
                    atoms |= head
                    continue
                undecided = self._undecided(indices, true, false) if indices else 0
                if undecided is None:
                    atoms |= head
                    continue
                live = head & ~false
                open_pos, open_neg = pos & ~true, neg & ~false
                if not (open_pos or open_neg or undecided):
                    if _single_bit(live):
                        true |= live
                        fixed |= live
                    elif not live and search:
                        return None
                elif live or undecided:
                    continue
                elif _single_bit(open_pos) and not open_neg:
                    # refute the one open literal of a certain rest
                    false |= open_pos
                    fixed |= open_pos
                elif search and _single_bit(open_neg) and not open_pos:
                    true |= open_neg
                    fixed |= open_neg
            for j in _bits(atoms & ~false & (~0 if search else ~true)):
                if not self._supported(j, true, false):
                    if true >> j & 1:
                        return None
                    false |= 1 << j
                    fixed |= 1 << j
            atoms = 0
            for j in _bits(fixed):
                rules |= self.watch[j]
        return true, false


def fold_fixed(flat) -> Folded:
    """Fix what the fixpoint decides and fold it out of `flat`."""
    size, conflicts, rules, agg_index, aggs, tuples, conds = flat
    state = _Fixpoint(flat)
    everything = (1 << size) - 1
    true, false = state.propagate(0, 0, (1 << len(state.rules)) - 1, everything)
    unfixed = everything & ~(true | false)
    open_bits = tuple(_bits(unfixed))
    renumbered: dict[int, int] = {}

    def squeeze(mask: int) -> int:
        mask &= unfixed
        if mask not in renumbered:
            renumbered[mask] = sum(
                1 << j for j, bit in enumerate(open_bits) if mask >> bit & 1
            )
        return renumbered[mask]

    out_conflicts: list[int] = []
    out_rules: list[tuple[int, int, int, int, int]] = []
    out_index: list[int] = []
    out_aggs: list[tuple[int, ...]] = []
    out_tuples: list[tuple[int, ...]] = []
    out_conds: list[tuple[int, int]] = []
    for number, (head, pos, neg, astart, acount) in enumerate(rules):
        if head & true or state.body(number, true, false) is False:
            continue
        start = len(out_index)
        for a in range(astart, astart + acount):
            index = agg_index[a]
            if state.aggregate(index, true, false) is True:
                continue
            meta = aggs[index]
            tuple_start = len(out_tuples)
            for t in range(meta[10], meta[10] + meta[11]):
                cstart, ccount = tuples[t][4], tuples[t][5]
                rows = [
                    (squeeze(p), squeeze(n))
                    for p, n in conds[cstart : cstart + ccount]
                    if not (p & false or n & true)
                ]
                if rows:
                    out_tuples.append((*tuples[t][:4], len(out_conds), len(rows)))
                    out_conds.extend(rows)
            out_index.append(len(out_aggs))
            out_aggs.append((*meta[:10], tuple_start, len(out_tuples) - tuple_start))
        out_rules.append(
            (squeeze(head), squeeze(pos), squeeze(neg), start, len(out_index) - start)
        )
    for conflict in conflicts:
        if conflict & false:
            continue
        if conflict & true:
            out_rules.append((0, squeeze(conflict), 0, len(out_index), 0))
        else:
            out_conflicts.append(squeeze(conflict))
    folded = (
        len(open_bits),
        tuple(out_conflicts),
        tuple(out_rules),
        tuple(out_index),
        tuple(out_aggs),
        tuple(out_tuples),
        tuple(out_conds),
    )
    return Folded(folded, true, open_bits)
