"""Depth-first search for the answer sets of packed flat arrays, the
propagation it repeats at every node, and the truth of bodies and
aggregates over the flat arrays.

A partial assignment is two masks, the atoms true and the atoms false.
Each node propagates to a fixpoint with `_Fixpoint`, then branches on the
lowest open atom; the root propagation decides what the facts decide. A
total assignment that propagation leaves without a conflict is a model M;
it is an answer set when no proper subset of M is a model of its reduct,
the rules whose bodies M satisfies. Minimality is decided exactly for every
model:

- when the arrays are `stratified`, M must be the least model of its
  shifted reduct, `h :- B+` for each rule of the reduct whose head meets M
  in `h` alone. Each aggregate reads only atoms of lower components, so it
  keeps its truth in every model of the reduct inside M (splitting,
  Lifschitz & Turner 1994; shifting, Ben-Eliyahu & Dechter 1994);
- otherwise a second search, with the same propagation over the atoms of
  M, looks for a model of the reduct that leaves one of them out (the
  model check of Koch, Leone & Pfeifer, AIJ 2003).

References: Gebser, Kaufmann & Schaub, AIJ 2012; Simons, Niemela &
Soininen, AIJ 2002.
"""

from __future__ import annotations

from typing import Optional

from ._packed import KIND_COUNT, KIND_MAX, KIND_MIN, KIND_SUM
from .analysis import DependencyGraph
from .errors import CapacityExceeded
from .ground import relation_holds
from .syntax import INVERTED_RELATION, Relation

# Read by perfbench/worker.py and perfbench/tracer.py, which name the kernel.
ACTIVE_KERNEL = "search"


# Read by perfbench/worker.py; the search is pure Python, so always False.
def compiled_available() -> bool:
    return False


# The search nodes (assignments propagated after a branch) one call may
# spend, minimality searches included, before it ends in CapacityExceeded.
# A node costs 20-60 us on a 2-vCPU Intel Xeon, so the budget runs out
# after 6-18 s; 10-queens takes 79k nodes.
NODE_BUDGET = 300_000


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

    Over a partial assignment, conflicts counting as constraints:
    - a rule whose body certainly holds makes its one head atom that is not
      false true;
    - an atom that no rule can still support is false;
    - a rule whose head atoms are all false and whose rest certainly holds
      refutes its one open literal: a positive atom becomes false, a naf
      atom true;
    - `#count` and `#sum` are decided once the lowest and highest values
      that the open condition atoms still allow fall on one side of the
      guards (`#min` and `#max` wait for all their atoms).
    A body certainly holds when its positive atoms are true, its naf atoms
    false and every aggregate holds. Propagation stops at a conflict: a
    certain body without a live head atom, or a true atom that no rule can
    still support.
    """

    def __init__(self, flat) -> None:
        size, conflicts, rules, agg_index, aggs, tuples, conds = flat
        self.flat = flat
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
        if meta[1] in (KIND_MAX, KIND_MIN):
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
        mask `atoms`; None at a conflict."""
        table = self.rules
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
                    elif not live:
                        return None
                elif live or undecided:
                    continue
                elif _single_bit(open_pos) and not open_neg:
                    # refute the one open literal of a certain rest
                    false |= open_pos
                    fixed |= open_pos
                elif _single_bit(open_neg) and not open_pos:
                    true |= open_neg
                    fixed |= open_neg
            for j in _bits(atoms & ~false):
                if not self._supported(j, true, false):
                    if true >> j & 1:
                        return None
                    false |= 1 << j
                    fixed |= 1 << j
            atoms = 0
            for j in _bits(fixed):
                rules |= self.watch[j]
        return true, false


class SearchExhausted(CapacityExceeded):
    """The search ran out of a bound; `atoms` masks the atoms that the
    root propagation leaves open, which the message counts."""

    def __init__(self, message: str, atoms: int) -> None:
        super().__init__(message)
        self.atoms = atoms


def stratified(engine: _Fixpoint) -> bool:
    """Whether the least model of the shifted reduct decides minimality.

    Over the edges body atom -> head atom and aggregate condition atom ->
    head atom, no two atoms of one head may share a strongly connected
    component, and no condition atom may share one with a head atom of its
    rule. A checked program has no recursion through aggregates, so only a
    head cycle fails it.
    """
    edges = set()
    headed = []
    for head, pos, _neg, indices in engine.rules:
        if head:
            condition = 0
            for index in indices:
                condition |= engine.agg_atoms[index]
            headed.append((head, condition))
            edges.update((b, h) for b in _bits(pos | condition) for h in _bits(head))
    vertices = frozenset(v for edge in edges for v in edge)
    component = {}
    for number, members in enumerate(DependencyGraph(vertices, frozenset(edges)).components()):
        for vertex in members:
            component[vertex] = number
    for head, condition in headed:
        heads = [component[h] for h in _bits(head) if h in component]
        if len(set(heads)) < len(heads) or any(
            component[c] in heads for c in _bits(condition)
        ):
            return False
    return True


def _leaves(engine: _Fixpoint, root, everything: int, spent: list[int], undecided: int):
    """The true atoms of each total assignment below `root` that
    propagation leaves without a conflict, depth first. `spent` counts the
    nodes of every search of one solve_masks call, and `undecided` masks
    the atoms that its root propagation leaves open."""
    stack = [] if root is None else [root]
    while stack:
        true, false = stack.pop()
        unassigned = everything & ~(true | false)
        if not unassigned:
            yield true
            continue
        spent[0] += 2
        if spent[0] > NODE_BUDGET:
            raise SearchExhausted(
                f"search spent its budget of {NODE_BUDGET} nodes on "
                f"{undecided.bit_count()} undecided atoms",
                undecided,
            )
        atom = unassigned & -unassigned
        watch = engine.watch[atom.bit_length() - 1]
        for branch in (
            engine.propagate(true, false | atom, watch, 0),
            engine.propagate(true | atom, false, watch, 0),
        ):
            if branch is not None:
                stack.append(branch)


def _least_model_is(model: int, flat) -> bool:
    """Whether `model` is the least model of its shifted reduct."""
    _, _, rules, *arrays = flat
    # `_body_true` only for rules with aggregates: a call for every rule
    # slowed small searches by a fifth
    shifted = [
        (head & model, pos)
        for head, pos, neg, start, count in rules
        if _single_bit(head & model)
        and not (pos & ~model or neg & model)
        and (not count or _body_true(model, (head, pos, neg, start, count), *arrays))
    ]
    derived = 0
    changed = True
    while changed:
        changed = False
        for head, pos in shifted:
            if head & ~derived and not pos & ~derived:
                derived |= head
                changed = True
    return derived == model


def _smaller_model(model: int, flat, spent: list[int], undecided: int) -> bool:
    """Whether a proper subset of `model` is a model of its reduct.

    The search runs over the reduct's rules with the atoms outside `model`
    false, a rule `j :- j` for each atom j of `model` so that support never
    prunes, and the constraint `:- model`.
    """
    size, _, rules, *arrays = flat
    kept = tuple(rule for rule in rules if _body_true(model, rule, *arrays))
    loops = tuple((1 << j, 1 << j, 0, 0, 0) for j in _bits(model))
    engine = _Fixpoint((size, (model,), kept + loops, *arrays))
    everything = (1 << size) - 1
    root = engine.propagate(0, everything & ~model, (1 << len(engine.rules)) - 1, model)
    return next(_leaves(engine, root, everything, spent, undecided), None) is not None


def solve_masks(flat) -> list[int]:
    """All answer-set bitmasks of the packed flat arrays, ascending.

    Raises SearchExhausted once the search and its minimality searches
    have spent NODE_BUDGET nodes together.
    """
    engine = _Fixpoint(flat)
    everything = (1 << flat[0]) - 1
    exact = stratified(engine)
    spent = [0]
    root = engine.propagate(0, 0, (1 << len(engine.rules)) - 1, everything)
    undecided = 0 if root is None else everything & ~(root[0] | root[1])
    return sorted(
        model
        for model in _leaves(engine, root, everything, spent, undecided)
        if (
            _least_model_is(model, flat)
            if exact
            else not _smaller_model(model, flat, spent, undecided)
        )
    )
