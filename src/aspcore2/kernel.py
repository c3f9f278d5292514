"""Depth-first search for the answer sets of folded flat arrays.

A partial assignment is two masks, the atoms true and the atoms false.
Each node propagates to a fixpoint with `_fold._Fixpoint` in its search
mode, then branches on the lowest open atom. A total assignment that
propagation leaves without a conflict is a model; it is an answer set when
it is minimal for its reduct:

- exactly, when the arrays are head-cycle-free and no rule with a head has
  an aggregate: the model must be the least model of its shifted reduct,
  `h :- B+` for each rule whose body it satisfies and whose head it meets in
  `h` alone (Ben-Eliyahu & Dechter 1994);
- otherwise by a sweep over its submasks, over at most `brute_force_limit`
  atoms and `SWEEP_BUDGET` submasks.

References: Gebser, Kaufmann & Schaub, AIJ 2012; Simons, Niemela &
Soininen, AIJ 2002.
"""

from __future__ import annotations

from ._fold import _bits, _body_true, _Fixpoint, _minimal, _single_bit
from .analysis import DependencyGraph
from .errors import CapacityExceeded

# Read by perfbench/worker.py and perfbench/tracer.py, which name the kernel.
ACTIVE_KERNEL = "search"


# Read by perfbench/worker.py; the search is pure Python, so always False.
def compiled_available() -> bool:
    return False


# The search nodes (assignments propagated after a branch) one call may
# spend before it ends in CapacityExceeded. A node costs 20-60 us on a
# 2-vCPU Intel Xeon, so the budget runs out after 6-18 s; 10-queens takes
# 79k nodes.
NODE_BUDGET = 300_000

# The submasks one minimality sweep may try before the search ends in
# CapacityExceeded. 2^20 take about 3 s end to end on a 2-vCPU Intel Xeon,
# and every model of up to 20 atoms is swept to the end within them.
SWEEP_BUDGET = 1 << 20


class SearchExhausted(CapacityExceeded):
    """The search ran out of a bound; `atoms` masks the folded atoms the
    message is about."""

    def __init__(self, message: str, atoms: int) -> None:
        super().__init__(message)
        self.atoms = atoms


def head_cycle_free(rules) -> bool:
    """No two atoms of one head share a strongly connected component of the
    positive dependency graph (body atom -> head atom)."""
    edges = frozenset(
        (b, h) for head, pos, *_ in rules for b in _bits(pos) for h in _bits(head)
    )
    vertices = frozenset(v for edge in edges for v in edge)
    component = {}
    for number, members in enumerate(DependencyGraph(vertices, edges).components()):
        for vertex in members:
            component[vertex] = number
    for head, *_ in rules:
        numbers = [component[h] for h in _bits(head) if h in component]
        if len(set(numbers)) < len(numbers):
            return False
    return True


def _least_model_is(model: int, rules) -> bool:
    """Whether `model` is the least model of its shifted reduct."""
    shifted = [
        (head & model, pos)
        for head, pos, neg, _, _ in rules
        if _single_bit(head & model) and not (pos & ~model or neg & model)
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


def solve_masks(flat, *, brute_force_limit: int = 24) -> list[int]:
    """All answer-set bitmasks of the folded arrays, ascending.

    Raises SearchExhausted after NODE_BUDGET nodes, or at a model whose
    minimality needs a sweep over more than `brute_force_limit` atoms or
    more than SWEEP_BUDGET submasks.
    """
    size, _conflicts, rules, agg_index, aggs, tuples, conds = flat
    engine = _Fixpoint(flat, search=True)
    everything = (1 << size) - 1
    exact = head_cycle_free(rules) and not any(
        head and count for head, _, _, _, count in rules
    )
    root = engine.propagate(0, 0, (1 << len(engine.rules)) - 1, everything)
    stack = [] if root is None else [root]
    results: list[int] = []
    nodes = 0
    while stack:
        true, false = stack.pop()
        unassigned = everything & ~(true | false)
        if unassigned:
            nodes += 2
            if nodes > NODE_BUDGET:
                raise SearchExhausted(
                    f"search spent its budget of {NODE_BUDGET} nodes on "
                    f"{size} undecided atoms",
                    everything,
                )
            atom = unassigned & -unassigned
            watch = engine.watch[atom.bit_length() - 1]
            for branch in (
                engine.propagate(true, false | atom, watch, 0),
                engine.propagate(true | atom, false, watch, 0),
            ):
                if branch is not None:
                    stack.append(branch)
        elif exact:
            if _least_model_is(true, rules):
                results.append(true)
        else:
            width = bin(true).count("1")
            if width > brute_force_limit:
                raise SearchExhausted(
                    f"a model has {width} atoms to sweep for minimality, above "
                    f"the brute-force limit {brute_force_limit}",
                    true,
                )
            kept = [r for r in rules if _body_true(true, r, agg_index, aggs, tuples, conds)]
            minimal = _minimal(true, kept, agg_index, aggs, tuples, conds, SWEEP_BUDGET)
            if minimal is None:
                raise SearchExhausted(
                    f"a model has {width} atoms to sweep for minimality, and the "
                    f"sweep spent its budget of {SWEEP_BUDGET} submasks",
                    true,
                )
            if minimal:
                results.append(true)
    return sorted(results)
