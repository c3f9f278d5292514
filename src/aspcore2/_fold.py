"""Fixing the atoms the facts decide, and folding them out of the packed
arrays before enumeration.

One fixpoint over the kernels' flat arrays fixes atoms in two ways:

- true: a rule whose body is certainly true has one head atom that is not
  fixed false;
- false: no rule could support the atom, or a rule whose head atoms are all
  fixed false, or a constraint, has a certainly true rest and the atom as
  its only open positive literal.

A body is certainly true when its positive atoms are fixed true, its naf
atoms fixed false, and every aggregate has all of its condition atoms fixed
and holds on them. Conflicts count as constraints. A constraint never fixes
an atom true: a true-fixed atom must belong to every model of the reduct
below the answer set, or the folded minimality sweep would accept sets that
are not minimal.

Folding drops each rule whose body is false or whose head holds a
fixed-true atom, deletes the fixed atoms from the remaining masks and
renumbers the open atoms. M' is an answer set of the folded arrays exactly
when M' with the fixed-true atoms added is one of the packed program.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernel_py import _aggregate_true


@dataclass(frozen=True)
class Folded:
    """The kernels' flat arrays over the open atoms of a packed program.

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


class _Fixpoint:
    def __init__(self, flat) -> None:
        size, conflicts, rules, agg_index, aggs, tuples, conds = flat
        self.flat = flat
        self.true = 0
        self.false = 0
        self.open = (1 << size) - 1
        # conflicts act as constraints over both atoms
        self.rules = list(rules) + [(0, c, 0, 0, 0) for c in conflicts]
        # every atom an aggregate's conditions mention
        self.agg_atoms = []
        for meta in aggs:
            atoms = 0
            for t in range(meta[10], meta[10] + meta[11]):
                cstart, ccount = tuples[t][4], tuples[t][5]
                for pos, neg in conds[cstart : cstart + ccount]:
                    atoms |= pos | neg
            self.agg_atoms.append(atoms)
        self.agg_truth: dict[int, bool] = {}

    def aggregate(self, index: int):
        """True or False once every condition atom is fixed, else None."""
        if index in self.agg_truth:
            return self.agg_truth[index]
        if self.agg_atoms[index] & self.open:
            return None
        _, _, _, _, aggs, tuples, conds = self.flat
        truth = _aggregate_true(self.true, aggs[index], tuples, conds)
        self.agg_truth[index] = truth
        return truth

    def body(self, rule):
        """False when the body can never hold, True when it certainly holds,
        None otherwise."""
        _, pos, neg, astart, acount = rule
        if pos & self.false or neg & self.true:
            return False
        certain = not (pos & ~self.true or neg & ~self.false)
        agg_index = self.flat[3]
        for a in range(astart, astart + acount):
            truth = self.aggregate(agg_index[a])
            if truth is False:
                return False
            if truth is None:
                certain = False
        return True if certain else None

    def fix(self, mask: int, truth: bool) -> None:
        if truth:
            self.true |= mask
        else:
            self.false |= mask
        self.open &= ~mask

    def run(self) -> None:
        while True:
            before = self.open
            supported = 0
            for rule in self.rules:
                head, pos, neg, astart, acount = rule
                if head & self.true:
                    continue
                truth = self.body(rule)
                if truth is False:
                    continue
                supported |= head & self.open
                live_head = head & ~self.false
                if truth is True:
                    if head and _single_bit(live_head):
                        self.fix(live_head, True)
                elif not live_head:
                    unsure = pos & ~self.true
                    rest = (0, pos & ~unsure, neg, astart, acount)
                    if _single_bit(unsure) and self.body(rest) is True:
                        self.fix(unsure, False)
            self.fix(self.open & ~supported, False)
            if self.open == before:
                return


def fold_fixed(flat) -> Folded:
    """Fix what the fixpoint decides and fold it out of `flat`."""
    state = _Fixpoint(flat)
    state.run()
    size, conflicts, rules, agg_index, aggs, tuples, conds = flat
    true, false = state.true, state.false
    open_bits = tuple(i for i in range(size) if state.open >> i & 1)
    renumbered: dict[int, int] = {}

    def squeeze(mask: int) -> int:
        mask &= state.open
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
    for rule in rules:
        head, pos, neg, astart, acount = rule
        if head & true or state.body(rule) is False:
            continue
        start = len(out_index)
        for a in range(astart, astart + acount):
            index = agg_index[a]
            if state.aggregate(index) is True:
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
