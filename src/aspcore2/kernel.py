"""Depth-first search for the answer sets of packed rules (`_packed`),
the propagation it repeats at every node, and the truth of bodies and
aggregates over those rules.

A partial assignment is two masks, the atoms true and the atoms false.
Each node propagates to a fixpoint with `_Fixpoint`, then branches on the
lowest open atom; the root propagation decides what the facts decide. A
total assignment that propagation leaves without a conflict is a model M;
it is an answer set when no proper subset of M is a model of its reduct,
the rules whose bodies M satisfies. Minimality is decided exactly for every
model, component by component (`cyclic_components`, once per call):

- M must be the least model of its shifted reduct, `h :- B+` for each rule
  of the reduct whose head meets M in `h` alone, with M's atoms in cyclic
  components added as facts (splitting, Lifschitz & Turner 1994; shifting,
  Ben-Eliyahu & Dechter 1994);
- for each cyclic component C, a second search with the same propagation
  looks for a model of the reduct between M - C and M, M excluded (the
  modular model check of Koch, Leone & Pfeifer, AIJ 2003).

References: Gebser, Kaufmann & Schaub, AIJ 2012; Simons, Niemela &
Soininen, AIJ 2002.
"""

from __future__ import annotations

from typing import Optional

from ._packed import Aggregate
from .analysis import DependencyGraph
from .errors import CapacityExceeded
from .ground import LESS, relation_holds
from .syntax import AggregateFunction, Relation

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


def _guard(guard, low: int, high: int) -> Optional[bool]:
    """The truth of `value relation bound` for every value in [low, high]:
    True without a guard, None when it varies. A symbolic bound follows
    every integer."""
    if guard is None:
        return True
    relation, bound = guard
    if bound is None:
        return relation_holds(LESS, relation)
    at_low = relation_holds((low > bound) - (low < bound), relation)
    if low == high:
        return at_low
    at_high = relation_holds((high > bound) - (high < bound), relation)
    # = and != also change inside the range
    if at_low != at_high or (
        relation in (Relation.EQ, Relation.NE) and low <= bound <= high
    ):
        return None
    return at_low


def _aggregate(aggregate: Aggregate, true: int, false: int) -> Optional[bool]:
    """True or False once the partial assignment (true, false) decides the
    aggregate, else None; a total assignment M is (M, ~M). `#count` and
    `#sum` are decided once the lowest and highest values that the open
    condition atoms still allow fall on one side of the guards; `#min`
    and `#max` wait for all their atoms."""
    naf, function, left, right, atoms, tuples = aggregate
    if function is AggregateFunction.MAX or function is AggregateFunction.MIN:
        if atoms & ~(true | false):
            return None
        pick = max if function is AggregateFunction.MAX else min
        # over the empty set #max compares below every term, #min above
        best_left = best_right = -1 if function is AggregateFunction.MAX else 1
        for _, cmp_left, cmp_right, rows in tuples:
            if any(not (pos & ~true or neg & true) for pos, neg in rows):
                best_left = pick(best_left, cmp_left)
                best_right = pick(best_right, cmp_right)
        truth = (left is None or relation_holds(best_left, left[0])) and (
            right is None or relation_holds(best_right, right[0])
        )
        return truth != naf
    low = high = 0
    for weight, _, _, rows in tuples:
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
    truth = _guard(left, low, high)
    if truth is not False:
        right_truth = _guard(right, low, high)
        if truth or right_truth is False:
            truth = right_truth
    return None if truth is None else truth != naf


def _body_true(model: int, rule) -> bool:
    """Whether the body of `rule` holds in the total assignment `model`."""
    _, pos, neg, aggregates = rule
    return not (pos & ~model or neg & model) and all(
        _aggregate(aggregate, model, ~model) for aggregate in aggregates
    )


class _Fixpoint:
    """Propagation over packed rules, driven by occurrence lists: fixing an
    atom revisits only the rules that mention it, and the support of the
    head atoms of each rule that can no longer fire.

    Over a partial assignment:
    - a rule whose body certainly holds makes its one head atom that is not
      false true;
    - an atom that no rule can still support is false;
    - a rule whose head atoms are all false and whose rest certainly holds
      refutes its one open literal: a positive atom becomes false, a naf
      atom true.
    A body certainly holds when its positive atoms are true, its naf atoms
    false and every aggregate holds (`_aggregate`). Propagation stops at a
    conflict: a certain body without a live head atom, or a true atom that
    no rule can still support.
    """

    def __init__(self, flat) -> None:
        self.size, self.rules = flat
        # occurrence lists: the rules mentioning each atom, as a mask of
        # rule ids, and the rules with the atom in their head
        self.watch = [0] * self.size
        self.heads: list[list[int]] = [[] for _ in range(self.size)]
        for number, (head, pos, neg, aggregates) in enumerate(self.rules):
            atoms = head | pos | neg
            for aggregate in aggregates:
                atoms |= aggregate.atoms
            for j in _bits(atoms):
                self.watch[j] |= 1 << number
            for j in _bits(head):
                self.heads[j].append(number)

    def _undecided(self, aggregates, true: int, false: int) -> Optional[int]:
        """How many of `aggregates` are undecided; None when one is false."""
        undecided = 0
        for aggregate in aggregates:
            truth = _aggregate(aggregate, true, false)
            if truth is False:
                return None
            if truth is None:
                undecided += 1
        return undecided

    def body(self, number: int, true: int, false: int) -> Optional[bool]:
        """False when rule `number`'s body can never hold, True when it
        certainly holds, None otherwise."""
        _, pos, neg, aggregates = self.rules[number]
        if pos & false or neg & true:
            return False
        undecided = self._undecided(aggregates, true, false)
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
                head, pos, neg, aggregates = table[low.bit_length() - 1]
                if head & true or pos & false or neg & true:
                    atoms |= head
                    continue
                undecided = self._undecided(aggregates, true, false) if aggregates else 0
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


def cyclic_components(engine: _Fixpoint) -> list[int]:
    """The cyclic components as atom masks: strongly connected over the
    edges body atom -> head atom and aggregate condition atom -> head atom,
    and holding two atoms of one head, or a condition atom of a rule with a
    head atom of that rule. A checked program has no recursion through
    aggregates, so only a head cycle makes one; with none it is stratified.
    """
    headed = []
    bodies = 0
    for head, pos, _neg, aggregates in engine.rules:
        if head:
            condition = 0
            for aggregate in aggregates:
                condition |= aggregate.atoms
            headed.append((head, pos | condition, condition))
            bodies |= pos | condition
    # only a rule with a condition or two head atoms, one of which some
    # rule's body reads, can make one; most programs have none
    if not any(
        head & bodies and (condition or not _single_bit(head))
        for head, _, condition in headed
    ):
        return []
    edges = frozenset(
        (b, h) for head, body, _ in headed for b in _bits(body) for h in _bits(head)
    )
    vertices = frozenset(v for head, body, _ in headed for v in _bits(head | body))
    parts = DependencyGraph(vertices, edges).components()
    component = {v: number for number, members in enumerate(parts) for v in members}
    cyclic = set()
    for head, _, condition in headed:
        heads = [component[h] for h in _bits(head)]
        cyclic.update(number for number in heads if heads.count(number) > 1)
        cyclic.update(component[c] for c in _bits(condition) if component[c] in heads)
    return [sum(1 << v for v in parts[number]) for number in sorted(cyclic)]


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


def _least_model_is(model: int, engine: _Fixpoint, facts: int) -> bool:
    """Whether `model` is the least model of its shifted reduct with the
    atoms `facts` added as facts."""
    # `_body_true` only for rules with aggregates: a call for every rule
    # slowed small searches by a fifth
    shifted = [
        (head & model, pos)
        for head, pos, neg, aggregates in engine.rules
        if _single_bit(head & model)
        and not (pos & ~model or neg & model)
        and (not aggregates or _body_true(model, (head, pos, neg, aggregates)))
    ]
    derived = facts
    changed = True
    while changed:
        changed = False
        for head, pos in shifted:
            if head & ~derived and not pos & ~derived:
                derived |= head
                changed = True
    return derived == model


def _smaller_model(
    model: int, part: int, engine: _Fixpoint, spent: list[int], undecided: int
) -> bool:
    """Whether a model of the reduct lies between `model` minus the
    component `part` and `model`, `model` excluded. Only the reduct's rules
    with a head that meets `model` inside `part` alone can fail there. The
    search runs over those, a rule `j :- j` per atom j of `model` in `part`
    so that support never prunes, and the constraint that leaves one such
    atom out."""
    inside = model & part
    kept = tuple(
        rule
        for rule in engine.rules
        if rule[0] & inside
        and not rule[0] & model & ~part
        and _body_true(model, rule)
    )
    loops = tuple((1 << j, 1 << j, 0, ()) for j in _bits(inside))
    smaller = _Fixpoint((engine.size, kept + loops + ((0, inside, 0, ()),)))
    everything = (1 << engine.size) - 1
    root = smaller.propagate(
        model & ~part, everything & ~model, (1 << len(smaller.rules)) - 1, inside
    )
    return next(_leaves(smaller, root, everything, spent, undecided), None) is not None


def solve_masks(flat) -> list[int]:
    """All answer-set bitmasks of the packed rules, ascending.

    Raises SearchExhausted once the search and its minimality searches
    have spent NODE_BUDGET nodes together.
    """
    engine = _Fixpoint(flat)
    everything = (1 << engine.size) - 1
    cyclic = cyclic_components(engine)
    # the components are disjoint, so their sum is their union
    cycles = sum(cyclic)
    spent = [0]
    root = engine.propagate(0, 0, (1 << len(engine.rules)) - 1, everything)
    undecided = 0 if root is None else everything & ~(root[0] | root[1])
    return sorted(
        model
        for model in _leaves(engine, root, everything, spent, undecided)
        if _least_model_is(model, engine, model & cycles)
        and not any(
            _smaller_model(model, part, engine, spent, undecided)
            for part in cyclic
            if model & part
        )
    )
