"""Static restriction checks on desugared programs.

Covers the language's three hard restrictions (safety, aggregate
non-recursiveness via the predicate dependency graph, finite groundability is
the grounder's job) and the two advisory lints (mixed arities, possibly
undefined division).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Union

from .syntax import (
    AggregateLiteral,
    ArithmeticTerm,
    ArithOp,
    BodyLiteral,
    BuiltinAtom,
    ChoiceAtom,
    ClassicalAtom,
    FunctionalTerm,
    IntegerConstant,
    NafLiteral,
    Program,
    Query,
    Relation,
    Rule,
    Statement,
    Term,
    WeakConstraint,
    atom_terms,
    atom_variables,
    element_variables,
    global_terms,
    is_aux_name,
    render_aux_name,
    statement_to_text,
    term_to_text,
    term_variables,
    term_variables_outside_arithmetic,
)

# Signed predicate signature: (strong_negation, name, arity).
Signature = tuple[bool, str, int]


def atom_signature(atom: ClassicalAtom) -> Signature:
    return (atom.strong_negation, atom.predicate, len(atom.args))


def signature_to_text(sig: Signature) -> str:
    """`name/arity`, with a leading `-` when strongly negated; desugaring
    auxiliaries are shown by their rendered names."""
    negation, name, arity = sig
    if is_aux_name(name):
        name = render_aux_name(name)
    prefix = "-" if negation else ""
    return f"{prefix}{name}/{arity}"


def _require_desugared(statement: Statement) -> None:
    if isinstance(statement, Rule) and isinstance(statement.head, ChoiceAtom):
        raise ValueError("statement must be desugared before analysis")


# --------------------------------------------------------------------------
# Safety


def bound_variables(
    literals: tuple[Union[BodyLiteral, NafLiteral], ...], scope: frozenset[str]
) -> frozenset[str]:
    """The subset of `scope` bound by `literals` under the safety induction.

    A variable is bound if it occurs outside arithmetic subterms in a
    positive classical atom; in one side of a `=` builtin whose other side
    has all its scope variables bound; or in a positive `aggr{...} = u`
    literal whose elements have all their scope variables bound.
    """
    bound: set[str] = set()
    for _ in range(len(scope) + 1):
        changed = False
        for literal in literals:
            for name in _literal_bindings(literal, bound, scope):
                if name not in bound:
                    bound.add(name)
                    changed = True
        if not changed:
            break
    return frozenset(bound)


def _literal_bindings(
    literal: Union[BodyLiteral, NafLiteral], bound: set[str], scope: frozenset[str]
) -> set[str]:
    if isinstance(literal, NafLiteral):
        if literal.naf:
            return set()
        atom = literal.atom
        out: set[str] = set()
        if isinstance(atom, ClassicalAtom):
            for arg in atom.args:
                out |= term_variables_outside_arithmetic(arg)
            return out & scope
        if atom.relation is not Relation.EQ:
            return set()
        for side, other in ((atom.left, atom.right), (atom.right, atom.left)):
            if term_variables(other) & scope <= bound:
                out |= term_variables_outside_arithmetic(side) & scope
        return out
    if literal.naf:
        return set()
    atom = literal.atom
    guard = atom.right_guard
    if guard is None or guard.relation is not Relation.EQ or atom.left_guard is not None:
        return set()
    element_vars = set().union(*map(element_variables, atom.elements))
    if element_vars & scope <= bound:
        return term_variables_outside_arithmetic(guard.term) & scope
    return set()


def global_variables(statement: Statement) -> frozenset[str]:
    """Variables appearing outside aggregate elements."""
    names: set[str] = set()
    for term in global_terms(statement):
        names |= term_variables(term)
    return frozenset(names)


@dataclass(frozen=True)
class UnboundVariable:
    name: str
    scope: str  # "global" or "element-local"
    condition: str  # failed binding clause: "(i)", "(ii)" or "(iii)"


def _diagnose_unbound(
    name: str, literals: tuple[Union[BodyLiteral, NafLiteral], ...]
) -> str:
    """Which binding clause was the nearest miss for an unbound variable.

    (i) positive classical atom, (ii) equality builtin, (iii) aggregate with
    an `=` guard.  An equality or aggregate that merely mentions the variable
    failed its side condition; otherwise only clause (i) could have applied.
    """
    aggregate_hit = False
    for literal in literals:
        if isinstance(literal, NafLiteral):
            atom = literal.atom
            if (
                isinstance(atom, BuiltinAtom)
                and atom.relation is Relation.EQ
                and name in atom_variables(atom)
            ):
                return "(ii)"
        else:
            for guard in (literal.atom.left_guard, literal.atom.right_guard):
                if guard is not None and name in term_variables(guard.term):
                    aggregate_hit = True
            if any(name in element_variables(e) for e in literal.atom.elements):
                aggregate_hit = True
    return "(iii)" if aggregate_hit else "(i)"


@dataclass(frozen=True)
class SafetyReport:
    statement: Statement
    unbound: tuple[UnboundVariable, ...] = ()

    @property
    def safe(self) -> bool:
        return not self.unbound

    def describe(self) -> str:
        if self.safe:
            return "safe"
        names = ", ".join(
            f"variable {u.name} ({u.scope}, condition {u.condition} unsatisfied)"
            for u in self.unbound
        )
        return f"unsafe: {names} in `{statement_to_text(self.statement)}`"


def check_safety(statement: Statement) -> SafetyReport:
    """Safety per the inductive binding definition, on a desugared statement."""
    _require_desugared(statement)
    scope = global_variables(statement)
    unbound: list[UnboundVariable] = []
    if isinstance(statement, Query):
        body: tuple[Union[BodyLiteral, NafLiteral], ...] = (NafLiteral(statement.atom),)
    else:
        body = statement.body
    # Nothing to bind: no global variable, and no aggregate with local ones.
    if not scope and not any(isinstance(l, AggregateLiteral) for l in body):
        return SafetyReport(statement)
    bound = bound_variables(body, scope)
    for name in sorted(scope - bound):
        unbound.append(UnboundVariable(name, "global", _diagnose_unbound(name, body)))
    for literal in body:
        if not isinstance(literal, AggregateLiteral):
            continue
        for element in literal.atom.elements:
            local = frozenset(element_variables(element) - scope)
            bound_local = bound_variables(element.condition, local)
            for name in sorted(local - bound_local):
                unbound.append(
                    UnboundVariable(
                        name,
                        "element-local",
                        _diagnose_unbound(name, element.condition),
                    )
                )
    return SafetyReport(statement, tuple(unbound))


# --------------------------------------------------------------------------
# Predicate dependency graph


@dataclass(frozen=True)
class DependencyGraph:
    vertices: frozenset[Signature]
    edges: frozenset[tuple[Signature, Signature]]
    _successors: dict = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        for source, target in sorted(self.edges):
            self._successors.setdefault(source, []).append(target)

    def successors(self, vertex: Signature) -> list[Signature]:
        return self._successors.get(vertex, [])

    def find_path(self, source: Signature, target: Signature) -> Optional[list[Signature]]:
        """Shortest path with at least one edge, as a vertex list."""
        from collections import deque

        queue = deque([source])
        parents: dict[Signature, Signature] = {}
        seen: set[Signature] = set()
        while queue:
            vertex = queue.popleft()
            for succ in self.successors(vertex):
                if succ == target:
                    path = [target, vertex]
                    while vertex != source:
                        vertex = parents[vertex]
                        path.append(vertex)
                    return path[::-1]
                if succ not in seen:
                    seen.add(succ)
                    parents[succ] = vertex
                    queue.append(succ)
        return None

    def components(self) -> list[frozenset[Signature]]:
        """Strongly connected components, each listed after every component
        it reaches, so a rule's body predicates come before its head's.

        Tarjan's algorithm with an explicit stack; vertices and successors
        are visited in sorted order, so the result is deterministic. It runs
        once per graph; every call returns the same list.
        """
        return self._components

    @cached_property
    def _components(self) -> list[frozenset[Signature]]:
        order: dict[Signature, int] = {}
        low: dict[Signature, int] = {}
        stack: list[Signature] = []
        on_stack: set[Signature] = set()
        out: list[frozenset[Signature]] = []
        for root in sorted(self.vertices):
            if root in order:
                continue
            order[root] = low[root] = len(order)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(self.successors(root)))]
            while work:
                vertex, successors = work[-1]
                for succ in successors:
                    if succ not in order:
                        order[succ] = low[succ] = len(order)
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(self.successors(succ))))
                        break
                    if succ in on_stack:
                        low[vertex] = min(low[vertex], order[succ])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[vertex])
                    if low[vertex] == order[vertex]:
                        component: set[Signature] = set()
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.add(member)
                            if member == vertex:
                                break
                        out.append(frozenset(component))
        return out


def _walk(
    statements: Iterable[Statement],
) -> tuple[DependencyGraph, list[tuple], list[ArithmeticWarning]]:
    """One walk over the atoms of desugared statements.

    Returns the dependency graph; each rule that has both head atoms and
    aggregate conditions with the signatures of the two, in source order;
    and the arithmetic warnings, in the order of `iter_statement_terms`.
    """
    vertices: set[Signature] = set()
    edges: set[tuple[Signature, Signature]] = set()
    aggregates: list[tuple[Rule, list[Signature], list[Signature]]] = []
    divisions: list[ArithmeticWarning] = []
    for statement in statements:
        _require_desugared(statement)
        if isinstance(statement, Query):
            vertices.add(atom_signature(statement.atom))
            _divisions(statement, statement.atom.args, divisions)
            continue
        head_atoms = statement.head if isinstance(statement, Rule) else ()
        for atom in head_atoms:
            _divisions(statement, atom.args, divisions)
        body: list[Signature] = []
        conditions: list[Signature] = []
        for literal in statement.body:
            atom = literal.atom
            if isinstance(literal, AggregateLiteral):
                for guard in (atom.left_guard, atom.right_guard):
                    if guard is not None:
                        _divisions(statement, (guard.term,), divisions)
                for element in atom.elements:
                    _divisions(statement, element.terms, divisions)
                    for cond in element.condition:
                        if isinstance(cond.atom, ClassicalAtom):
                            conditions.append(atom_signature(cond.atom))
                        _divisions(statement, atom_terms(cond.atom), divisions)
            else:
                if isinstance(atom, ClassicalAtom):
                    body.append(atom_signature(atom))
                _divisions(statement, atom_terms(atom), divisions)
        if isinstance(statement, WeakConstraint):
            _divisions(statement, (statement.weight, statement.level, *statement.terms), divisions)
        vertices.update(body, conditions)
        if head_atoms:
            heads = [atom_signature(a) for a in head_atoms]
            vertices.update(heads)
            for head in heads:
                edges.update((head, sig) for sig in chain(heads, body, conditions))
            if conditions:
                aggregates.append((statement, heads, conditions))
    return DependencyGraph(frozenset(vertices), frozenset(edges)), aggregates, divisions


def build_dependency_graph(program: Program) -> DependencyGraph:
    """Vertices for every signed predicate occurrence, edges head-to-head
    (including self) and head-to-body-atom per rule.

    Built once per program: the graph is kept in the program's `_graph`
    slot, where `check_program` also leaves the one it builds."""
    graph = getattr(program, "_graph", None)
    if graph is None:
        graph = program._graph = _walk(program.statements())[0]
    return graph


# --------------------------------------------------------------------------
# Aggregate recursion


@dataclass(frozen=True)
class RecursiveAggregate:
    rule: Rule
    aggregate_atom: Signature
    head_atom: Signature
    path: tuple[Signature, ...]

    def describe(self) -> str:
        route = " -> ".join(signature_to_text(v) for v in self.path)
        return (
            f"aggregate over {signature_to_text(self.aggregate_atom)} is recursive with "
            f"head {signature_to_text(self.head_atom)} via {route} in "
            f"`{statement_to_text(self.rule)}`"
        )


def check_aggregates_nonrecursive(program: Program) -> list[RecursiveAggregate]:
    """Every atom inside an aggregate must not reach any head atom of its rule."""
    graph, aggregates, _ = _walk(program.rules)
    return _recursive_aggregates(aggregates, graph)


def _recursive_aggregates(
    aggregates: list[tuple], graph: DependencyGraph
) -> list[RecursiveAggregate]:
    # A head has an edge to each of its aggregates' condition atoms, so a
    # condition atom reaches the head exactly when the two share a component.
    if not aggregates:
        return []
    component = {v: i for i, members in enumerate(graph.components()) for v in members}
    violations: list[RecursiveAggregate] = []
    for rule, heads, conditions in aggregates:
        seen: set[tuple[Signature, Signature]] = set()
        for source in conditions:
            for head in heads:
                if component[source] == component[head] and (source, head) not in seen:
                    seen.add((source, head))
                    path = tuple(graph.find_path(source, head))
                    violations.append(RecursiveAggregate(rule, source, head, path))
    return violations


# --------------------------------------------------------------------------
# Lints


@dataclass(frozen=True)
class ArityWarning:
    name: str
    arities: tuple[int, ...]

    def describe(self) -> str:
        arities = ", ".join(str(a) for a in self.arities)
        return f"predicate name '{self.name}' is used with arities {arities}"


def check_arities(program: Program) -> list[ArityWarning]:
    """Warn once per predicate name used with multiple arities (strong
    negation does not separate names)."""
    return _arities(build_dependency_graph(program).vertices)


def _arities(vertices: Iterable[Signature]) -> list[ArityWarning]:
    # The graph has a vertex for every signed predicate the program uses.
    arities: dict[str, set[int]] = {}
    for _negation, name, arity in vertices:
        arities.setdefault(name, set()).add(arity)
    return [
        ArityWarning(name, tuple(sorted(seen)))
        for name, seen in sorted(arities.items())
        if len(seen) > 1
    ]


@dataclass(frozen=True)
class ArithmeticWarning:
    statement: Statement
    term: Term

    def describe(self) -> str:
        return (
            f"division `{term_to_text(self.term)}` may be undefined in "
            f"`{statement_to_text(self.statement)}`; a guard excluding zero "
            f"divisors may discharge this"
        )


def _is_nonzero_integer_constant(term: Term) -> bool:
    if isinstance(term, IntegerConstant):
        return term.value != 0
    if isinstance(term, ArithmeticTerm) and term.op is ArithOp.NEG:
        inner = term.args[0]
        return isinstance(inner, IntegerConstant) and inner.value != 0
    return False


def _divisions(statement: Statement, terms: Iterable[Term], out: list[ArithmeticWarning]) -> None:
    """Append a warning for each division in `terms` whose divisor is not a
    nonzero integer constant, each term before its subterms."""
    for term in terms:
        if isinstance(term, ArithmeticTerm):
            if term.op is ArithOp.DIV and not _is_nonzero_integer_constant(term.args[1]):
                out.append(ArithmeticWarning(statement, term))
            _divisions(statement, term.args, out)
        elif isinstance(term, FunctionalTerm):
            _divisions(statement, term.args, out)


def lint_undefined_arithmetic(program: Program) -> list[ArithmeticWarning]:
    """Warn on any division whose divisor is not a nonzero integer constant."""
    return _walk(program.statements())[2]


# --------------------------------------------------------------------------
# Combined report


@dataclass(frozen=True)
class AnalysisResult:
    safety: tuple[SafetyReport, ...]
    recursive_aggregates: tuple[RecursiveAggregate, ...]
    arity_warnings: tuple[ArityWarning, ...]
    arithmetic_warnings: tuple[ArithmeticWarning, ...]
    graph: DependencyGraph

    @property
    def ok(self) -> bool:
        return all(r.safe for r in self.safety) and not self.recursive_aggregates

    def violations(self) -> list[str]:
        out = [r.describe() for r in self.safety if not r.safe]
        out.extend(v.describe() for v in self.recursive_aggregates)
        return out

    def warnings(self) -> list[str]:
        out = [w.describe() for w in self.arity_warnings]
        out.extend(w.describe() for w in self.arithmetic_warnings)
        return out


def check_program(program: Program) -> AnalysisResult:
    """Run every restriction check and lint on a desugared program."""
    statements = program.statements()
    graph, aggregates, divisions = _walk(statements)
    program._graph = graph
    return AnalysisResult(
        tuple(check_safety(s) for s in statements),
        tuple(_recursive_aggregates(aggregates, graph)),
        tuple(_arities(graph.vertices)),
        tuple(divisions),
        graph,
    )
