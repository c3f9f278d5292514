"""Grounding over a bounded Herbrand universe.

Provides the total order on ground terms, arithmetic evaluation with an
explicit `undefined` outcome, well-formedness of substitutions, aggregate
element instantiation, and two grounders: a bottom-up one restricted to
potentially derivable atoms (component by component, semi-naive, with
argument-indexed joins), and a naive one enumerating every substitution over
the bounded universe (the literal definition, kept for differential testing).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .analysis import (
    Signature,
    atom_signature,
    build_dependency_graph,
    global_variables,
)
from .errors import BoundExceeded
from .syntax import (
    AggregateAtom,
    AggregateElement,
    AggregateFunction,
    AggregateLiteral,
    ArithmeticTerm,
    ArithOp,
    BodyLiteral,
    BuiltinAtom,
    ChoiceAtom,
    ClassicalAtom,
    FunctionalTerm,
    Guard,
    IntegerConstant,
    NafLiteral,
    Program,
    Query,
    Relation,
    Rule,
    Statement,
    StringConstant,
    SymbolicConstant,
    Term,
    Variable,
    WeakConstraint,
    aggregate_element_to_text,
    atom_terms,
    atom_variables,
    body_literal_to_text,
    classical_atom_to_text,
    iter_element_terms,
    iter_statement_terms,
    iter_subterms,
    rule_to_text,
    statement_to_text,
    term_variables,
    term_variables_outside_arithmetic,
    weak_constraint_to_text,
)

Substitution = dict[str, Term]

LESS = -1
EQUAL = 0
GREATER = 1


@dataclass(frozen=True)
class UniverseBounds:
    """Finiteness witness: integers in [-max_int, max_int], functional terms
    nested at most max_nesting deep."""

    max_int: int = 1000
    max_nesting: int = 4

    def __post_init__(self) -> None:
        if self.max_int < 0 or self.max_nesting < 0:
            raise ValueError("bounds must be nonnegative")


# --------------------------------------------------------------------------
# Ground terms and the total order


def is_ground(term: Term) -> bool:
    return not any(
        isinstance(sub, (Variable, ArithmeticTerm)) for sub in iter_subterms(term)
    )


def term_depth(term: Term) -> int:
    if isinstance(term, FunctionalTerm):
        return 1 + max(term_depth(arg) for arg in term.args)
    return 0


def _class_rank(term: Term) -> int:
    if isinstance(term, IntegerConstant):
        return 0
    if isinstance(term, SymbolicConstant):
        return 1
    if isinstance(term, StringConstant):
        return 2
    if isinstance(term, FunctionalTerm):
        return 3
    raise TypeError(f"not a ground term: {term!r}")


def term_compare(t: Term, u: Term) -> int:
    """Three-way comparison under the total order on ground terms.

    Integers numerically, then symbolic constants, then string constants
    (both lexicographically within their class), then functional terms by
    arity, functor, and arguments left to right.
    """
    rank_t, rank_u = _class_rank(t), _class_rank(u)
    if rank_t != rank_u:
        return LESS if rank_t < rank_u else GREATER

    def cmp(a, b) -> int:
        return LESS if a < b else GREATER if a > b else EQUAL

    if isinstance(t, IntegerConstant):
        return cmp(t.value, u.value)
    if isinstance(t, SymbolicConstant):
        return cmp(t.name, u.name)
    if isinstance(t, StringConstant):
        return cmp(t.content(), u.content())
    result = cmp(len(t.args), len(u.args))
    if result != EQUAL:
        return result
    result = cmp(t.functor, u.functor)
    if result != EQUAL:
        return result
    for arg_t, arg_u in zip(t.args, u.args):
        result = term_compare(arg_t, arg_u)
        if result != EQUAL:
            return result
    return EQUAL


def term_sort_key(term: Term):
    """A sort key consistent with term_compare (strings order by content)."""
    if isinstance(term, IntegerConstant):
        return (0, term.value)
    if isinstance(term, SymbolicConstant):
        return (1, term.name)
    if isinstance(term, StringConstant):
        return (2, term.content())
    return (3, len(term.args), term.functor, tuple(term_sort_key(a) for a in term.args))


# --------------------------------------------------------------------------
# Arithmetic evaluation


def eval_arithmetic(term: Term, sigma: Optional[Substitution] = None) -> Optional[Term]:
    """Apply the substitution and evaluate arithmetic subterms bottom-up.

    Returns None (undefined) on non-integer operands or division by zero;
    division truncates toward zero, so -7/2 evaluates to -3.
    """
    if isinstance(term, Variable):
        if sigma is None or term.name not in sigma:
            raise ValueError(f"unbound variable {term.name} during evaluation")
        return sigma[term.name]
    if isinstance(term, (IntegerConstant, SymbolicConstant, StringConstant)):
        return term
    if isinstance(term, FunctionalTerm):
        args = []
        for arg in term.args:
            value = eval_arithmetic(arg, sigma)
            if value is None:
                return None
            args.append(value)
        return FunctionalTerm(term.functor, tuple(args))
    if isinstance(term, ArithmeticTerm):
        operands = []
        for arg in term.args:
            value = eval_arithmetic(arg, sigma)
            if not isinstance(value, IntegerConstant):
                return None
            operands.append(value.value)
        if term.op is ArithOp.NEG:
            return IntegerConstant(-operands[0])
        a, b = operands
        if term.op is ArithOp.ADD:
            return IntegerConstant(a + b)
        if term.op is ArithOp.SUB:
            return IntegerConstant(a - b)
        if term.op is ArithOp.MUL:
            return IntegerConstant(a * b)
        if b == 0:
            return None
        quotient = abs(a) // abs(b)
        return IntegerConstant(-quotient if (a < 0) != (b < 0) else quotient)
    raise TypeError(f"not a term: {term!r}")


def instantiate_atom(
    atom: Union[ClassicalAtom, BuiltinAtom], sigma: Substitution
) -> Optional[Union[ClassicalAtom, BuiltinAtom]]:
    """`atom` with the substitution applied and its arguments evaluated;
    None when an argument is undefined."""
    if isinstance(atom, BuiltinAtom):
        left = eval_arithmetic(atom.left, sigma)
        right = eval_arithmetic(atom.right, sigma)
        if left is None or right is None:
            return None
        return BuiltinAtom(left, atom.relation, right)
    args = [eval_arithmetic(a, sigma) for a in atom.args]
    if any(a is None for a in args):
        return None
    return ClassicalAtom(atom.predicate, tuple(args), atom.strong_negation)


# --------------------------------------------------------------------------
# Well-formed substitutions


def _global_terms(statement: Statement) -> Iterator[Term]:
    """Term positions outside aggregate elements."""
    if isinstance(statement, Query):
        yield from statement.atom.args
        return
    if isinstance(statement, Rule):
        if isinstance(statement.head, ChoiceAtom):
            raise ValueError("statement must be desugared before grounding")
        for atom in statement.head:
            yield from atom.args
    else:
        yield statement.weight
        yield statement.level
        yield from statement.terms
    for literal in statement.body:
        if isinstance(literal, AggregateLiteral):
            for guard in (literal.atom.left_guard, literal.atom.right_guard):
                if guard is not None:
                    yield guard.term
        else:
            yield from atom_terms(literal.atom)


def is_well_formed(
    target: Union[Statement, AggregateElement],
    sigma: Substitution,
    scope: str = "global",
) -> bool:
    """True iff every arithmetic subterm in the scope evaluates (no division
    by zero, no symbolic operands) under the substitution."""
    if scope == "element":
        terms: Iterable[Term] = iter_element_terms(target)
    else:
        terms = _global_terms(target)
    return all(eval_arithmetic(term, sigma) is not None for term in terms)


# --------------------------------------------------------------------------
# Bounded Herbrand universe


def program_constants(program: Program) -> tuple[set, set, set, set]:
    """Integers, symbolic constants, string constants, and functor/arity
    pairs appearing anywhere in the program."""
    integers: set[int] = set()
    symbolics: set[str] = set()
    strings: set[str] = set()
    functors: set[tuple[str, int]] = set()
    for statement in program.statements():
        for top in iter_statement_terms(statement):
            for sub in iter_subterms(top):
                if isinstance(sub, IntegerConstant):
                    integers.add(sub.value)
                elif isinstance(sub, SymbolicConstant):
                    symbolics.add(sub.name)
                elif isinstance(sub, StringConstant):
                    strings.add(sub.value)
                elif isinstance(sub, FunctionalTerm):
                    functors.add((sub.functor, len(sub.args)))
    return integers, symbolics, strings, functors


def build_universe(program: Program, bounds: UniverseBounds) -> list[Term]:
    """The bounded Herbrand universe: integers in [-max_int, max_int] plus
    any appearing in the program, its constants, and functional terms over
    its functors nested up to max_nesting."""
    integers, symbolics, strings, functors = program_constants(program)
    integers.update(range(-bounds.max_int, bounds.max_int + 1))
    layer: list[Term] = [IntegerConstant(v) for v in sorted(integers)]
    layer.extend(SymbolicConstant(name) for name in sorted(symbolics))
    layer.extend(StringConstant(value) for value in sorted(strings))
    universe: list[Term] = list(layer)
    for _ in range(bounds.max_nesting):
        previous = list(universe)
        new_layer: list[Term] = []
        for functor, arity in sorted(functors):
            for args in itertools.product(previous, repeat=arity):
                candidate = FunctionalTerm(functor, args)
                if candidate not in previous:
                    new_layer.append(candidate)
        fresh = [t for t in new_layer if t not in universe]
        if not fresh:
            break
        universe.extend(fresh)
    return sorted(set(universe), key=term_sort_key)


def check_atom_bounds(atom: ClassicalAtom, bounds: UniverseBounds) -> None:
    """Raise BoundExceeded if a derived atom leaves the declared universe."""
    for arg in atom.args:
        for sub in iter_subterms(arg):
            if isinstance(sub, IntegerConstant) and abs(sub.value) > bounds.max_int:
                raise BoundExceeded(
                    f"derived atom {classical_atom_to_text(atom)} contains integer "
                    f"{sub.value} beyond the maximum {bounds.max_int}"
                )
        if term_depth(arg) > bounds.max_nesting:
            raise BoundExceeded(
                f"derived atom {classical_atom_to_text(atom)} nests functions "
                f"deeper than the maximum {bounds.max_nesting}"
            )


# --------------------------------------------------------------------------
# Ground program


@dataclass(frozen=True)
class GroundProgram:
    rules: tuple[Rule, ...]
    weak_constraints: tuple[WeakConstraint, ...] = ()

    def to_text(self) -> str:
        lines = [rule_to_text(rule) for rule in self.rules]
        lines.extend(weak_constraint_to_text(weak) for weak in self.weak_constraints)
        return "\n".join(lines)


def _literal_sort_key(literal: BodyLiteral) -> str:
    return body_literal_to_text(literal)


def _canonical_rule(head: tuple[ClassicalAtom, ...], body: list[BodyLiteral]) -> Rule:
    return Rule(tuple(head), tuple(sorted(body, key=_literal_sort_key)))


# --------------------------------------------------------------------------
# Join engine over partially ground bodies
#
# A state is a substitution plus the ground literals kept so far and delayed
# arithmetic match constraints (pattern, expected) awaiting their variables.


@dataclass
class _State:
    sigma: Substitution
    kept: list[BodyLiteral]
    delayed: list[tuple[Term, Term]]

    def clone(self) -> "_State":
        return _State(dict(self.sigma), list(self.kept), list(self.delayed))


def _aggregate_vars(literal: AggregateLiteral) -> tuple[set[str], set[str]]:
    """(guard variables, element variables) of an aggregate literal."""
    guard_vars: set[str] = set()
    for guard in (literal.atom.left_guard, literal.atom.right_guard):
        if guard is not None:
            guard_vars |= term_variables(guard.term)
    element_vars: set[str] = set()
    for element in literal.atom.elements:
        for term in iter_element_terms(element):
            element_vars |= term_variables(term)
    return guard_vars, element_vars


def _unify(pattern: Term, value: Term, state: _State) -> bool:
    """Match a possibly nonground pattern against a ground term, binding
    variables; arithmetic subpatterns become delayed equality checks."""
    if isinstance(pattern, Variable):
        bound = state.sigma.get(pattern.name)
        if bound is None:
            state.sigma[pattern.name] = value
            return True
        return bound == value
    if isinstance(pattern, ArithmeticTerm):
        state.delayed.append((pattern, value))
        return True
    if isinstance(pattern, FunctionalTerm):
        return (
            isinstance(value, FunctionalTerm)
            and value.functor == pattern.functor
            and len(value.args) == len(pattern.args)
            and all(_unify(p, v, state) for p, v in zip(pattern.args, value.args))
        )
    return pattern == value


def _resolve_delayed(state: _State) -> bool:
    remaining: list[tuple[Term, Term]] = []
    for pattern, expected in state.delayed:
        if term_variables(pattern) <= state.sigma.keys():
            value = eval_arithmetic(pattern, state.sigma)
            if value is None or value != expected:
                return False
        else:
            remaining.append((pattern, expected))
    state.delayed = remaining
    return True


def match_atom(pattern: ClassicalAtom, atom: ClassicalAtom) -> Optional[Substitution]:
    """The substitution under which the possibly nonground `pattern` equals
    the ground `atom`, or None when there is none."""
    if (
        pattern.predicate != atom.predicate
        or pattern.strong_negation != atom.strong_negation
        or len(pattern.args) != len(atom.args)
    ):
        return None
    state = _State({}, [], [])
    if not all(_unify(p, v, state) for p, v in zip(pattern.args, atom.args)):
        return None
    if _resolve_delayed(state) and not state.delayed:
        return state.sigma
    return None


def relation_holds(comparison: int, relation: Relation) -> bool:
    """Truth of `relation` between two values whose three-way comparison
    (LESS, EQUAL or GREATER) is given."""
    if relation is Relation.LT:
        return comparison == LESS
    if relation is Relation.GT:
        return comparison == GREATER
    if relation is Relation.LE:
        return comparison != GREATER
    if relation is Relation.GE:
        return comparison != LESS
    if relation is Relation.EQ:
        return comparison == EQUAL
    return comparison != EQUAL


def builtin_truth(left: Term, relation: Relation, right: Term) -> bool:
    return relation_holds(term_compare(left, right), relation)


class _AtomIndex:
    """Derivable ground atoms, indexed by signed predicate signature and by
    (signature, argument position, ground argument)."""

    def __init__(self, atoms: Iterable[ClassicalAtom] = ()) -> None:
        self.atoms: set[ClassicalAtom] = set()
        self.by_signature: dict[Signature, list[ClassicalAtom]] = {}
        self.by_argument: dict[tuple[Signature, int, Term], list[ClassicalAtom]] = {}
        for atom in atoms:
            self.add(atom)

    def add(self, atom: ClassicalAtom) -> bool:
        if atom in self.atoms:
            return False
        self.atoms.add(atom)
        key = atom_signature(atom)
        self.by_signature.setdefault(key, []).append(atom)
        for position, value in enumerate(atom.args):
            self.by_argument.setdefault((key, position, value), []).append(atom)
        return True

    def candidates(
        self, pattern: ClassicalAtom, position: Optional[int], value: Optional[Term]
    ) -> list[ClassicalAtom]:
        """The atoms with the signature of `pattern`; when `position` is
        given, only those whose argument there is `value`."""
        key = atom_signature(pattern)
        if position is None:
            return self.by_signature.get(key, [])
        return self.by_argument.get((key, position, value), [])


def _bound_position(atom: ClassicalAtom, bound: set[str]) -> Optional[int]:
    """The first argument of `atom` whose variables are all bound."""
    for position, arg in enumerate(atom.args):
        if term_variables(arg) <= bound:
            return position
    return None


class _Grounder:
    def __init__(self, bounds: UniverseBounds) -> None:
        self.bounds = bounds
        self.index = _AtomIndex()
        self.globals: set[str] = set()

    # -- scheduling ---------------------------------------------------

    def _ready_mode(
        self, literal: BodyLiteral, bound: set[str]
    ) -> Optional[tuple[str, object]]:
        if isinstance(literal, AggregateLiteral):
            guard_vars, element_vars = _aggregate_vars(literal)
            atom = literal.atom
            if not literal.naf and atom.right_guard is not None:
                unbound_guard = guard_vars - bound
                if (
                    unbound_guard
                    and atom.right_guard.relation is Relation.EQ
                    and atom.left_guard is None
                ):
                    if element_vars & self.globals <= bound:
                        return ("aggregate-bind", None)
                    return None
            if guard_vars <= bound and element_vars & self.globals <= bound:
                return ("aggregate", None)
            return None
        atom = literal.atom
        if isinstance(atom, ClassicalAtom):
            if literal.naf:
                return ("naf", None) if atom_variables(atom) <= bound else None
            return ("join", (self.index, _bound_position(atom, bound)))
        left_vars, right_vars = term_variables(atom.left), term_variables(atom.right)
        if left_vars | right_vars <= bound:
            return ("filter", None)
        if literal.naf or atom.relation is not Relation.EQ:
            return None
        if left_vars <= bound and right_vars - bound:
            return ("bind", (atom.left, atom.right))
        if right_vars <= bound and left_vars - bound:
            return ("bind", (atom.right, atom.left))
        return None

    def _bound_after(
        self, literal: BodyLiteral, mode: tuple[str, object], bound: set[str]
    ) -> set[str]:
        kind, payload = mode
        if kind == "join":
            out = set(bound)
            for arg in literal.atom.args:
                out |= term_variables_outside_arithmetic(arg)
            return out
        if kind == "bind":
            _, pattern = payload
            return bound | term_variables_outside_arithmetic(pattern)
        if kind == "aggregate-bind":
            guard = literal.atom.right_guard
            return bound | term_variables_outside_arithmetic(guard.term)
        return bound

    # -- literal application ------------------------------------------

    def _apply(
        self, literal: BodyLiteral, mode: tuple[str, object], states: list[_State]
    ) -> list[_State]:
        kind, payload = mode
        out: list[_State] = []
        for state in states:
            if kind == "join":
                index, position = payload
                value = None
                if position is not None:
                    value = eval_arithmetic(literal.atom.args[position], state.sigma)
                    if value is None:
                        continue
                for atom in index.candidates(literal.atom, position, value):
                    branch = state.clone()
                    if all(
                        _unify(p, v, branch)
                        for p, v in zip(literal.atom.args, atom.args)
                    ) and _resolve_delayed(branch):
                        branch.kept.append(NafLiteral(atom))
                        out.append(branch)
            elif kind == "bind":
                source, pattern = payload
                value = eval_arithmetic(source, state.sigma)
                if value is None:
                    continue
                branch = state.clone()
                if _unify(pattern, value, branch) and _resolve_delayed(branch):
                    out.append(branch)
            elif kind == "filter":
                atom = literal.atom
                left = eval_arithmetic(atom.left, state.sigma)
                right = eval_arithmetic(atom.right, state.sigma)
                if left is None or right is None:
                    continue
                if builtin_truth(left, atom.relation, right) != literal.naf:
                    out.append(state)
            elif kind == "naf":
                ground = instantiate_atom(literal.atom, state.sigma)
                if ground is None:
                    continue
                state.kept.append(NafLiteral(ground, naf=True))
                out.append(state)
            elif kind == "aggregate":
                ground_literal = self._instantiate_aggregate(literal, state.sigma)
                if ground_literal is None:
                    continue
                state.kept.append(ground_literal)
                out.append(state)
            else:  # aggregate-bind
                elements = self._instantiate_elements(literal.atom.elements, state.sigma)
                pattern = literal.atom.right_guard.term
                for value in self._possible_values(literal.atom.function, elements):
                    branch = state.clone()
                    if _unify(pattern, value, branch) and _resolve_delayed(branch):
                        guard_term = eval_arithmetic(pattern, branch.sigma)
                        if guard_term is None:
                            continue
                        branch.kept.append(
                            AggregateLiteral(
                                AggregateAtom(
                                    literal.atom.function,
                                    elements,
                                    None,
                                    Guard(guard_term, Relation.EQ),
                                )
                            )
                        )
                        out.append(branch)
        return out

    def _possible_values(
        self, function: AggregateFunction, elements: tuple[AggregateElement, ...]
    ) -> list[Term]:
        tuples = {element.terms for element in elements}
        if function is AggregateFunction.COUNT:
            return [IntegerConstant(n) for n in range(len(tuples) + 1)]
        if function is AggregateFunction.SUM:
            weights = [
                t[0].value
                for t in tuples
                if t and isinstance(t[0], IntegerConstant)
            ]
            sums = {0}
            for weight in weights:
                sums |= {s + weight for s in sums}
            return [IntegerConstant(s) for s in sorted(sums)]
        firsts = {t[0] for t in tuples if t}
        return sorted(firsts, key=term_sort_key)

    def _instantiate_elements(
        self, elements: tuple[AggregateElement, ...], sigma: Substitution
    ) -> tuple[AggregateElement, ...]:
        out: dict[str, AggregateElement] = {}
        for element in elements:
            for instance in self._instantiate_element(element, sigma):
                out.setdefault(aggregate_element_to_text(instance), instance)
        return tuple(out[key] for key in sorted(out))

    def _instantiate_element(
        self, element: AggregateElement, sigma: Substitution
    ) -> Iterator[AggregateElement]:
        for state in self._join(element.condition, dict(sigma)):
            terms = [eval_arithmetic(t, state.sigma) for t in element.terms]
            if any(t is None for t in terms):
                continue
            yield AggregateElement(
                tuple(terms), tuple(state.kept), element.explicit_colon
            )

    def _instantiate_aggregate(
        self, literal: AggregateLiteral, sigma: Substitution
    ) -> Optional[AggregateLiteral]:
        atom = literal.atom
        guards: list[Optional[Guard]] = []
        for guard in (atom.left_guard, atom.right_guard):
            if guard is None:
                guards.append(None)
                continue
            term = eval_arithmetic(guard.term, sigma)
            if term is None:
                return None
            guards.append(Guard(term, guard.relation))
        elements = self._instantiate_elements(atom.elements, sigma)
        return AggregateLiteral(
            AggregateAtom(atom.function, elements, guards[0], guards[1]),
            literal.naf,
        )

    # -- body join ----------------------------------------------------

    def _join(
        self,
        body: Sequence[BodyLiteral],
        sigma0: Substitution,
        delta: Optional[_AtomIndex] = None,
    ) -> list[_State]:
        """States for every way the body holds over the index. With `delta`,
        the first literal, a positive classical atom, is matched only
        against the atoms in `delta`."""
        remaining = list(body)
        bound = set(sigma0)
        states = [_State(dict(sigma0), [], [])]
        if delta is not None:
            literal = remaining.pop(0)
            mode = ("join", (delta, _bound_position(literal.atom, bound)))
            states = self._apply(literal, mode, states)
            bound = self._bound_after(literal, mode, bound)
        while remaining and states:
            picked = None
            for position, literal in enumerate(remaining):
                mode = self._ready_mode(literal, bound)
                if mode is not None:
                    picked = (position, literal, mode)
                    break
            if picked is None:
                raise ValueError(
                    "cannot schedule body literals; the statement is not safe"
                )
            position, literal, mode = picked
            del remaining[position]
            states = self._apply(literal, mode, states)
            bound = self._bound_after(literal, mode, bound)
        final: list[_State] = []
        for state in states:
            if state.delayed:
                if not all(
                    term_variables(p) <= state.sigma.keys() for p, _ in state.delayed
                ):
                    raise ValueError(
                        "unresolved match constraints; the statement is not safe"
                    )
                if not _resolve_delayed(state):
                    continue
            final.append(state)
        return final

    def ground_body(
        self,
        statement: Statement,
        delta: Optional[_AtomIndex] = None,
        position: int = 0,
    ) -> list[_State]:
        """Body states of the statement; with `delta`, the positive
        classical literal at `position` is matched only against `delta`."""
        self.globals = set(global_variables(statement))
        body = statement.body
        if delta is not None:
            body = (body[position],) + body[:position] + body[position + 1 :]
        return self._join(body, {}, delta)

    def fire(
        self, rule: Rule, states: list[_State], instances: dict[Rule, None]
    ) -> list[ClassicalAtom]:
        """Record the instances of the rule for the body states and add
        their heads to the index; returns the atoms the index did not have."""
        added: list[ClassicalAtom] = []
        for state in states:
            heads = _ground_heads(rule, state.sigma, self.bounds)
            if heads is None:
                continue
            instances.setdefault(_canonical_rule(tuple(heads), state.kept))
            for atom in heads:
                if self.index.add(atom):
                    added.append(atom)
        return added

    def ground_component(
        self,
        rules: list[Rule],
        component: frozenset[Signature],
        instances: dict[Rule, None],
    ) -> None:
        """Instantiate the rules whose heads form one strongly connected
        component; every predicate the component depends on is complete."""
        if any(_aggregates_over(rule, component) for rule in rules):
            # A recursive aggregate (the checker rejects these) must see the
            # component's final atoms: rounds restart from no instances
            # until one adds no atom, and that round is the result.
            grew = True
            while grew:
                grew = False
                last: dict[Rule, None] = {}
                for rule in rules:
                    if self.fire(rule, self.ground_body(rule), last):
                        grew = True
            instances.update(last)
            return
        added: list[ClassicalAtom] = []
        for rule in rules:
            added += self.fire(rule, self.ground_body(rule), instances)
        # Semi-naive rounds: a new instance uses an atom of the last round.
        recursive = [
            (rule, position)
            for rule in rules
            for position, literal in enumerate(rule.body)
            if isinstance(literal, NafLiteral)
            and not literal.naf
            and isinstance(literal.atom, ClassicalAtom)
            and atom_signature(literal.atom) in component
        ]
        while added and recursive:
            delta = _AtomIndex(added)
            added = []
            for rule, position in recursive:
                added += self.fire(rule, self.ground_body(rule, delta, position), instances)


def _aggregates_over(rule: Rule, component: frozenset[Signature]) -> bool:
    """Whether an aggregate element condition of the rule mentions a
    predicate of the component."""
    return any(
        isinstance(cond.atom, ClassicalAtom) and atom_signature(cond.atom) in component
        for literal in rule.body
        if isinstance(literal, AggregateLiteral)
        for element in literal.atom.elements
        for cond in element.condition
    )


def _ground_heads(
    rule: Rule, sigma: Substitution, bounds: UniverseBounds
) -> Optional[list[ClassicalAtom]]:
    heads: list[ClassicalAtom] = []
    for atom in rule.head:
        ground = instantiate_atom(atom, sigma)
        if ground is None:
            return None
        check_atom_bounds(ground, bounds)
        heads.append(ground)
    return heads


def _smart_ground(program: Program, bounds: UniverseBounds) -> GroundProgram:
    for rule in program.rules:
        if isinstance(rule.head, ChoiceAtom):
            raise ValueError("statement must be desugared before grounding")
    grounder = _Grounder(bounds)
    components = build_dependency_graph(program).components()
    rank = {sig: i for i, component in enumerate(components) for sig in component}
    by_component: list[list[Rule]] = [[] for _ in components]
    constraints: list[Rule] = []
    for rule in program.rules:
        if rule.head:
            by_component[rank[atom_signature(rule.head[0])]].append(rule)
        else:
            constraints.append(rule)
    instances: dict[Rule, None] = {}
    for component, rules in zip(components, by_component):
        if rules:
            grounder.ground_component(rules, component, instances)
    for rule in constraints:
        grounder.fire(rule, grounder.ground_body(rule), instances)
    weaks: dict[WeakConstraint, None] = {}
    for weak in program.weak_constraints:
        for state in grounder.ground_body(weak):
            weight = eval_arithmetic(weak.weight, state.sigma)
            level = eval_arithmetic(weak.level, state.sigma)
            terms = [eval_arithmetic(t, state.sigma) for t in weak.terms]
            if weight is None or level is None or any(t is None for t in terms):
                continue
            instance = WeakConstraint(
                tuple(sorted(state.kept, key=_literal_sort_key)),
                weight,
                level,
                tuple(terms),
            )
            weaks.setdefault(instance, None)
    return GroundProgram(
        tuple(sorted(instances, key=rule_to_text)),
        tuple(sorted(weaks, key=weak_constraint_to_text)),
    )


# --------------------------------------------------------------------------
# Naive grounding: every substitution over the bounded universe

# The most substitutions the naive grounder tries for one statement, those
# of its aggregate elements included, or for one element on its own. One
# costs about 50 us on a 2-vCPU Intel Xeon, so the budget is about 5 s.
NAIVE_INSTANCE_BUDGET = 100_000


def _over_naive_budget(count: int, what: str, names: Iterable[str]) -> BoundExceeded:
    return BoundExceeded(
        f"naive grounding of {what} would try {count} substitutions of "
        f"{', '.join(dict.fromkeys(names))}, above the instance budget "
        f"{NAIVE_INSTANCE_BUDGET}"
    )


def _local_names(element: AggregateElement, bound: Iterable[str]) -> list[str]:
    local_vars: set[str] = set()
    for term in iter_element_terms(element):
        local_vars |= term_variables(term)
    return sorted(local_vars - set(bound))


def instantiate_element(
    element: AggregateElement,
    universe: Sequence[Term],
    context: Optional[Substitution] = None,
    globals_: Optional[frozenset[str]] = None,
) -> list[AggregateElement]:
    """inst(E) for one element: all well-formed local substitutions into the
    universe, arithmetically evaluated, as a deduplicated sorted list."""
    sigma0 = dict(context or {})
    names = _local_names(element, sigma0.keys() | (globals_ or frozenset()))
    count = len(universe) ** len(names)
    if count > NAIVE_INSTANCE_BUDGET:
        what = f"aggregate element `{aggregate_element_to_text(element)}`"
        raise _over_naive_budget(count, what, names)
    out: dict[str, AggregateElement] = {}
    for combo in itertools.product(universe, repeat=len(names)):
        sigma = dict(sigma0)
        sigma.update(zip(names, combo))
        if not is_well_formed(element, sigma, scope="element"):
            continue
        terms = tuple(eval_arithmetic(t, sigma) for t in element.terms)
        condition = tuple(
            NafLiteral(instantiate_atom(cond.atom, sigma), cond.naf)
            for cond in element.condition
        )
        instance = AggregateElement(terms, condition, element.explicit_colon)
        out.setdefault(aggregate_element_to_text(instance), instance)
    return [out[key] for key in sorted(out)]


def _naive_statement_instances(
    statement: Statement, universe: Sequence[Term], globals_: frozenset[str]
) -> Iterator[tuple[Substitution, list[BodyLiteral]]]:
    names = sorted(globals_)
    per_instance = 1
    every_name = list(names)
    for literal in statement.body:
        if isinstance(literal, AggregateLiteral):
            for element in literal.atom.elements:
                local = _local_names(element, globals_)
                per_instance += len(universe) ** len(local)
                every_name += local
    count = len(universe) ** len(names) * per_instance
    if count > NAIVE_INSTANCE_BUDGET:
        what = f"`{statement_to_text(statement)}`"
        raise _over_naive_budget(count, what, every_name)
    for combo in itertools.product(universe, repeat=len(names)):
        sigma = dict(zip(names, combo))
        if not is_well_formed(statement, sigma, scope="global"):
            continue
        body: list[BodyLiteral] = []
        for literal in statement.body:
            if isinstance(literal, AggregateLiteral):
                atom = literal.atom
                guards = []
                for guard in (atom.left_guard, atom.right_guard):
                    guards.append(
                        None
                        if guard is None
                        else Guard(eval_arithmetic(guard.term, sigma), guard.relation)
                    )
                elements: dict[str, AggregateElement] = {}
                for element in atom.elements:
                    for instance in instantiate_element(
                        element, universe, sigma, globals_
                    ):
                        elements.setdefault(
                            aggregate_element_to_text(instance), instance
                        )
                body.append(
                    AggregateLiteral(
                        AggregateAtom(
                            atom.function,
                            tuple(elements[k] for k in sorted(elements)),
                            guards[0],
                            guards[1],
                        ),
                        literal.naf,
                    )
                )
            else:
                body.append(NafLiteral(instantiate_atom(literal.atom, sigma), literal.naf))
        yield sigma, body


def _naive_ground(program: Program, bounds: UniverseBounds) -> GroundProgram:
    universe = build_universe(program, bounds)
    rules: dict[Rule, None] = {}
    for rule in program.rules:
        if isinstance(rule.head, ChoiceAtom):
            raise ValueError("statement must be desugared before grounding")
        for sigma, body in _naive_statement_instances(
            rule, universe, global_variables(rule)
        ):
            heads = tuple(instantiate_atom(a, sigma) for a in rule.head)
            rules.setdefault(_canonical_rule(heads, body), None)
    weaks: dict[WeakConstraint, None] = {}
    for weak in program.weak_constraints:
        for sigma, body in _naive_statement_instances(
            weak, universe, global_variables(weak)
        ):
            instance = WeakConstraint(
                tuple(sorted(body, key=_literal_sort_key)),
                eval_arithmetic(weak.weight, sigma),
                eval_arithmetic(weak.level, sigma),
                tuple(eval_arithmetic(t, sigma) for t in weak.terms),
            )
            weaks.setdefault(instance, None)
    return GroundProgram(
        tuple(sorted(rules, key=rule_to_text)),
        tuple(sorted(weaks, key=weak_constraint_to_text)),
    )


def ground_program(
    program: Program,
    bounds: Optional[UniverseBounds] = None,
    naive: bool = False,
) -> GroundProgram:
    """Ground a desugared program over the bounded universe.

    The default grounder instantiates bottom-up, keeping only substitutions
    whose positive classical body atoms are potentially derivable, and raises
    BoundExceeded when a derivable atom leaves the universe. It grounds the
    strongly connected components of the predicate dependency graph in
    topological order, so every predicate a component depends on is complete
    when its rules are joined. A component is joined once; if it is
    recursive, semi-naive rounds follow, in which each rule is re-joined once
    per positive body literal over the component's own predicates, with that
    literal matched only against the atoms the previous round added. A
    component with an aggregate over its own predicates (a recursive
    aggregate) is instead re-ground from no instances until a round adds no
    atom. Constraints and weak constraints are grounded last. Joins look up
    the first argument already bound in an index keyed by (predicate,
    argument position, ground value) instead of scanning the predicate.

    With naive=True every substitution over the bounded universe is
    enumerated instead and nothing is derived, so the bounds are never
    exceeded.
    """
    if bounds is None:
        bounds = UniverseBounds()
    if naive:
        return _naive_ground(program, bounds)
    return _smart_ground(program, bounds)
