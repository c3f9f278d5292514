"""Depth-first search for the answer sets of folded flat arrays.

A partial assignment is two masks, the atoms true and the atoms false.
Each node propagates to a fixpoint with `_fold._Fixpoint` in its search
mode, then branches on the lowest open atom. A total assignment that
propagation leaves without a conflict is a model M; it is an answer set
when no proper subset of M is a model of its reduct, the rules whose
bodies M satisfies. Minimality is decided exactly for every model:

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

from ._fold import _bits, _body_true, _Fixpoint, _single_bit
from .analysis import DependencyGraph
from .errors import CapacityExceeded

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


class SearchExhausted(CapacityExceeded):
    """The search ran out of a bound; `atoms` masks the folded atoms the
    message is about."""

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


def _leaves(engine: _Fixpoint, root, everything: int, spent: list[int]):
    """The true atoms of each total assignment below `root` that
    propagation leaves without a conflict, depth first. `spent` counts the
    nodes of every search of one solve_masks call."""
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
                f"{everything.bit_length()} undecided atoms",
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


def _smaller_model(model: int, flat, spent: list[int]) -> bool:
    """Whether a proper subset of `model` is a model of its reduct.

    The search runs over the reduct's rules with the atoms outside `model`
    false, a rule `j :- j` for each atom j of `model` so that support never
    prunes, and the constraint `:- model`.
    """
    size, _, rules, *arrays = flat
    kept = tuple(rule for rule in rules if _body_true(model, rule, *arrays))
    loops = tuple((1 << j, 1 << j, 0, 0, 0) for j in _bits(model))
    engine = _Fixpoint((size, (model,), kept + loops, *arrays), search=True)
    everything = (1 << size) - 1
    root = engine.propagate(0, everything & ~model, (1 << len(engine.rules)) - 1, model)
    return next(_leaves(engine, root, everything, spent), None) is not None


def solve_masks(flat) -> list[int]:
    """All answer-set bitmasks of the folded arrays, ascending.

    Raises SearchExhausted once the search and its minimality searches
    have spent NODE_BUDGET nodes together.
    """
    engine = _Fixpoint(flat, search=True)
    everything = (1 << flat[0]) - 1
    exact = stratified(engine)
    spent = [0]
    root = engine.propagate(0, 0, (1 << len(engine.rules)) - 1, everything)
    return sorted(
        model
        for model in _leaves(engine, root, everything, spent)
        if (_least_model_is(model, flat) if exact else not _smaller_model(model, flat, spent))
    )
