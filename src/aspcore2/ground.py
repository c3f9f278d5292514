"""Grounding over a bounded Herbrand universe.

Provides the total order on ground terms, arithmetic evaluation with an
explicit `undefined` outcome, well-formedness of substitutions, aggregate
element instantiation, and two grounders: a bottom-up one restricted to
potentially derivable atoms (component by component, semi-naive, each body
joined by a plan made once per call over argument-indexed atoms, with its
builtins and arithmetic compiled into closures and each arithmetic
subpattern scheduled as a builtin when the plan is made; a variable-free
statement is decided once per call, without a plan), and a
naive one enumerating every substitution over the bounded universe (the
literal definition, kept for differential testing). `eval_arithmetic`,
`builtin_truth` and `relation_holds` are the reference definitions the
compiled closures agree with.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence, Union

from .analysis import (
    Signature,
    atom_signature,
    build_dependency_graph,
    global_variables,
)
from .errors import BoundExceeded
from .syntax import (
    AUX_MARKER,
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
    Relation,
    Rule,
    Statement,
    StringConstant,
    SymbolicConstant,
    Term,
    Variable,
    WeakConstraint,
    aggregate_element_to_text,
    atom_variables,
    body_literal_to_text,
    classical_atom_to_text,
    element_variables,
    global_terms,
    is_aux_name,
    iter_element_terms,
    iter_statement_terms,
    iter_subterms,
    rule_to_text,
    statement_to_text,
    term_to_text,
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


def term_depth(term: Term) -> int:
    if isinstance(term, FunctionalTerm):
        return 1 + max(term_depth(arg) for arg in term.args)
    return 0


def term_sort_key(term: Term):
    """The key of a ground term in the total order: integers numerically,
    then symbolic constants, then string constants (both lexicographically
    within their class, strings by content), then functional terms by arity,
    functor, and arguments left to right."""
    if isinstance(term, IntegerConstant):
        return (0, term.value)
    if isinstance(term, SymbolicConstant):
        return (1, term.name)
    if isinstance(term, StringConstant):
        return (2, term.content())
    if isinstance(term, FunctionalTerm):
        return (3, len(term.args), term.functor, tuple(term_sort_key(a) for a in term.args))
    raise TypeError(f"not a ground term: {term!r}")


def term_compare(t: Term, u: Term) -> int:
    """Three-way comparison under the total order on ground terms."""
    key_t, key_u = term_sort_key(t), term_sort_key(u)
    return LESS if key_t < key_u else GREATER if key_t > key_u else EQUAL


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
        value = _OPERATIONS[term.op](*operands)
        return None if value is None else IntegerConstant(value)
    raise TypeError(f"not a term: {term!r}")


def _divide(a: int, b: int) -> Optional[int]:
    """a / b truncated toward zero, so -7/2 is -3; None when b is 0."""
    if b == 0:
        return None
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


_OPERATIONS = {
    ArithOp.NEG: operator.neg,
    ArithOp.ADD: operator.add,
    ArithOp.SUB: operator.sub,
    ArithOp.MUL: operator.mul,
    ArithOp.DIV: _divide,
}


def _reader(term: Term) -> Callable[[Substitution], Optional[Term]]:
    """`eval_arithmetic` of `term`, compiled once into a function of a
    substitution that binds the term's variables."""
    if isinstance(term, Variable):
        return operator.itemgetter(term.name)
    if isinstance(term, (IntegerConstant, SymbolicConstant, StringConstant)):
        return lambda sigma: term
    if not term_variables(term):
        value = eval_arithmetic(term)
        return lambda sigma: value
    if isinstance(term, FunctionalTerm):
        args, functor = _tuple_reader(term.args), term.functor
        return lambda sigma: (
            None if (values := args(sigma)) is None else FunctionalTerm(functor, values)
        )
    number = _int_reader(term)
    return lambda sigma: None if (n := number(sigma)) is None else IntegerConstant(n)


def _int_reader(term: Term) -> Callable[[Substitution], Optional[int]]:
    """The integer value of `term` as a plain int, or None when it is
    undefined or not an integer; like `_reader`, compiled once."""
    if not term_variables(term):
        value = eval_arithmetic(term)
        number = value.value if isinstance(value, IntegerConstant) else None
        return lambda sigma: number
    if isinstance(term, Variable):
        name = term.name
        return lambda sigma: v.value if type(v := sigma[name]) is IntegerConstant else None
    if isinstance(term, FunctionalTerm):
        return lambda sigma: None
    if term.op is ArithOp.NEG:
        operand = _int_reader(term.args[0])
        return lambda sigma: None if (a := operand(sigma)) is None else -a
    left, right = map(_int_reader, term.args)
    operation = _OPERATIONS[term.op]
    return lambda sigma: (
        None if (a := left(sigma)) is None or (b := right(sigma)) is None else operation(a, b)
    )


def _tuple_reader(terms: Sequence[Term]) -> Callable[[Substitution], Optional[tuple]]:
    """The values of `terms` as their `_reader`s give them, or None when one
    is undefined."""
    readers = [_reader(term) for term in terms]

    def read(sigma):
        values = []
        for read_one in readers:
            if (value := read_one(sigma)) is None:
                return None
            values.append(value)
        return tuple(values)

    return read


def _atom_reader(atom: ClassicalAtom) -> Callable[[Substitution], Optional[ClassicalAtom]]:
    """`instantiate_atom` of a classical atom, compiled once; an atom whose
    arguments are constants is its own instance."""
    if all(isinstance(arg, (IntegerConstant, SymbolicConstant, StringConstant)) for arg in atom.args):
        return lambda sigma: atom
    args, predicate, negated = _tuple_reader(atom.args), atom.predicate, atom.strong_negation
    return lambda sigma: (
        None if (values := args(sigma)) is None else ClassicalAtom(predicate, values, negated)
    )


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


def is_well_formed(terms: Iterable[Term], sigma: Substitution) -> bool:
    """True iff every arithmetic subterm of the terms evaluates (no division
    by zero, no symbolic operands) under the substitution."""
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
    return _LazyUniverse(program, bounds).terms


class _LazyUniverse:
    """The terms of build_universe, built when the first is drawn. `size`
    counts them in closed form, so that a budget can refuse the universe
    unbuilt: each nesting layer holds the constants and, for each functor
    f/n, f applied to every n terms of the layer below."""

    def __init__(self, program: Program, bounds: UniverseBounds) -> None:
        self.bounds = bounds
        self.constants = program_constants(program)
        integers, symbolics, strings, functors = self.constants
        integers.update(range(-bounds.max_int, bounds.max_int + 1))
        base = self.size = len(integers) + len(symbolics) + len(strings)
        for _ in range(bounds.max_nesting if functors else 0):
            self.size = base + sum(self.size**arity for _, arity in functors)

    @functools.cached_property
    def terms(self) -> list[Term]:
        integers, symbolics, strings, functors = self.constants
        layer: list[Term] = [IntegerConstant(v) for v in sorted(integers)]
        layer.extend(SymbolicConstant(name) for name in sorted(symbolics))
        layer.extend(StringConstant(value) for value in sorted(strings))
        universe = dict.fromkeys(layer)
        for _ in range(self.bounds.max_nesting):
            previous = list(universe)
            for functor, arity in sorted(functors):
                for args in itertools.product(previous, repeat=arity):
                    universe.setdefault(FunctionalTerm(functor, args))
            if len(universe) == len(previous):
                break
        return sorted(universe, key=term_sort_key)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)


def _outside_universe(
    term: Term, bounds: UniverseBounds, integers: Container = ()
) -> Optional[str]:
    """How the ground term `term` leaves the declared universe, widened by
    `integers`, or None."""
    if isinstance(term, (SymbolicConstant, StringConstant)) or (
        isinstance(term, IntegerConstant) and abs(term.value) <= bounds.max_int
    ):
        return None
    for sub in iter_subterms(term):
        if isinstance(sub, IntegerConstant) and abs(sub.value) > bounds.max_int:
            if sub.value not in integers:
                return f"contains integer {sub.value} beyond the maximum {bounds.max_int}"
    if term_depth(term) > bounds.max_nesting:
        return f"nests functions deeper than the maximum {bounds.max_nesting}"
    return None


def check_atom_bounds(atom: ClassicalAtom, bounds: UniverseBounds) -> None:
    """Raise BoundExceeded if a derived atom leaves the declared universe."""
    for arg in atom.args:
        if (outside := _outside_universe(arg, bounds)) is not None:
            raise BoundExceeded(f"derived atom {classical_atom_to_text(atom)} {outside}")


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


def _canonical_rule(head: tuple[ClassicalAtom, ...], body: Iterable[BodyLiteral]) -> Rule:
    return Rule(tuple(head), tuple(sorted(body, key=body_literal_to_text)))


# --------------------------------------------------------------------------
# Join plans over partially ground bodies
#
# A state is a substitution and the ground literals kept so far. A plan
# joins a body for one set of initially bound variables: one step per
# literal, in the order the literals become ready, each a function from the
# states before its literal to the states after it. Whatever depends only on
# which variables are bound is worked out once, when the plan is made; so is
# where each arithmetic subpattern is checked. A match binds only variables
# outside arithmetic (the safety definition's rule), so an arithmetic
# subterm of a pattern becomes a fresh variable V, which the match binds,
# and the builtin `V = subterm`, scheduled like any other.

_Step = Callable[[list, Optional["_AtomIndex"]], list]
_Instances = list[tuple[Substitution, tuple[BodyLiteral, ...]]]


def _lift_arithmetic(term: Term, checks: list) -> Term:
    """`term` with each arithmetic subterm replaced by a variable V named
    after it, with AUX_MARKER so that no program variable is V; the builtin
    literal `V = subterm` is appended to `checks`."""
    if isinstance(term, ArithmeticTerm):
        aux = Variable(AUX_MARKER + repr(term))
        checks.append(NafLiteral(BuiltinAtom(aux, Relation.EQ, term)))
        return aux
    if isinstance(term, FunctionalTerm):
        return FunctionalTerm(term.functor, tuple(_lift_arithmetic(a, checks) for a in term.args))
    return term


def _unify(pattern: Term, value: Term, sigma: Substitution) -> bool:
    """Match a pattern without arithmetic against a ground term, binding
    variables in `sigma`."""
    if isinstance(pattern, Variable):
        bound = sigma.get(pattern.name)
        if bound is None:
            sigma[pattern.name] = value
            return True
        return bound == value
    if isinstance(pattern, FunctionalTerm):
        return (
            isinstance(value, FunctionalTerm)
            and value.functor == pattern.functor
            and len(value.args) == len(pattern.args)
            and all(_unify(p, v, sigma) for p, v in zip(pattern.args, value.args))
        )
    return pattern == value


def _extend(sigma: Substitution, pairs: Iterable) -> Optional[Substitution]:
    """A copy of `sigma` under which each (pattern, value) pair matches, or
    None when one does not."""
    sigma = dict(sigma)
    return sigma if all(_unify(pattern, value, sigma) for pattern, value in pairs) else None


def match_atom(pattern: ClassicalAtom, atom: ClassicalAtom) -> Optional[Substitution]:
    """The substitution under which the possibly nonground `pattern` equals
    the ground `atom`, or None when there is none. An arithmetic subpattern
    matches when its variables are bound elsewhere in `pattern`."""
    if atom_signature(pattern) != atom_signature(atom):
        return None
    checks: list[NafLiteral] = []
    sigma = _extend({}, [(_lift_arithmetic(p, checks), v) for p, v in zip(pattern.args, atom.args)])
    if sigma is None or not checks:
        return sigma
    if all(atom_variables(check.atom) <= sigma.keys() and _test(check)(sigma) for check in checks):
        return {name: value for name, value in sigma.items() if not is_aux_name(name)}
    return None


# The truth of each relation between two integers, or between a three-way
# comparison (LESS, EQUAL or GREATER) and EQUAL
_RELATIONS = {
    Relation.LT: operator.lt,
    Relation.LE: operator.le,
    Relation.EQ: operator.eq,
    Relation.NE: operator.ne,
    Relation.GT: operator.gt,
    Relation.GE: operator.ge,
}


def relation_holds(comparison: int, relation: Relation) -> bool:
    """Truth of `relation` between two values whose three-way comparison
    (LESS, EQUAL or GREATER) is given."""
    return _RELATIONS[relation](comparison, EQUAL)


def builtin_truth(left: Term, relation: Relation, right: Term) -> bool:
    holds = _RELATIONS[relation]
    if type(left) is IntegerConstant and type(right) is IntegerConstant:
        return holds(left.value, right.value)
    return holds(term_compare(left, right), EQUAL)


def _test(literal: NafLiteral) -> Callable[[Substitution], bool]:
    """Whether a builtin literal holds under a substitution that binds its
    variables, compiled once; false when a side is undefined, with or
    without `not`."""
    atom, naf = literal.atom, literal.naf
    holds = _RELATIONS[atom.relation]
    if all(isinstance(side, (ArithmeticTerm, IntegerConstant)) for side in (atom.left, atom.right)):
        left, right = _int_reader(atom.left), _int_reader(atom.right)
        return lambda sigma: (
            (a := left(sigma)) is not None
            and (b := right(sigma)) is not None
            and holds(a, b) != naf
        )
    left, right = _reader(atom.left), _reader(atom.right)

    def test(sigma):
        a, b = left(sigma), right(sigma)
        if a is None or b is None:
            return False
        if type(a) is IntegerConstant and type(b) is IntegerConstant:
            return holds(a.value, b.value) != naf
        return holds(term_compare(a, b), EQUAL) != naf

    return test


class _AtomIndex:
    """Derivable ground atoms, each held as its positive body literal, indexed
    by signed predicate signature and, with `by_argument`, by (signature,
    argument position, ground argument)."""

    def __init__(self, literals: Iterable[NafLiteral] = (), by_argument: bool = True) -> None:
        self.literals: dict[ClassicalAtom, NafLiteral] = {}
        self.by_signature: dict[Signature, list[NafLiteral]] = {}
        self.by_argument: Optional[dict[tuple, list[NafLiteral]]] = {} if by_argument else None
        for literal in literals:
            self.add(literal)

    def add(self, literal: NafLiteral) -> bool:
        known = len(self.literals)
        self.literals.setdefault(literal.atom, literal)
        if len(self.literals) == known:
            return False
        key = atom_signature(literal.atom)
        self.by_signature.setdefault(key, []).append(literal)
        if self.by_argument is not None:
            for position, value in enumerate(literal.atom.args):
                self.by_argument.setdefault((key, position, value), []).append(literal)
        return True

    def candidates(self, signature: Signature, position: Optional[int], value) -> list[NafLiteral]:
        """The literals of the atoms with the signature; when `position` is
        given, only those whose argument there is `value`."""
        if position is None:
            return self.by_signature.get(signature, [])
        return self.by_argument.get((signature, position, value), [])


def _bound_position(atom: ClassicalAtom, bound: set[str]) -> Optional[int]:
    """The first argument of `atom` whose variables are all bound."""
    for position, arg in enumerate(atom.args):
        if term_variables(arg) <= bound:
            return position
    return None


def _unschedulable(states, delta):
    """The last step of a plan whose remaining literals never become ready."""
    raise ValueError("cannot schedule body literals; the statement is not safe")


def _possible_values(function: AggregateFunction, elements: tuple) -> list[Term]:
    tuples = {element.terms for element in elements}
    if function is AggregateFunction.COUNT:
        return [IntegerConstant(n) for n in range(len(tuples) + 1)]
    if function is AggregateFunction.SUM:
        weights = [t[0].value for t in tuples if t and isinstance(t[0], IntegerConstant)]
        sums = {0}
        for weight in weights:
            sums |= {s + weight for s in sums}
        return [IntegerConstant(s) for s in sorted(sums)]
    firsts = {t[0] for t in tuples if t}
    return sorted(firsts, key=term_sort_key)


class _Grounder:
    def __init__(self, bounds: UniverseBounds, program: Program = Program()) -> None:
        self.bounds, self.program = bounds, program
        self.index = _AtomIndex()
        # By statement id, for the whole call (the program keeps its
        # statements, so their ids): the join plans by (id, delta position),
        # each rule's head readers, and each variable-free body as `_decide`
        # leaves it.
        self.plans: dict[tuple[int, Optional[int]], list[_Step]] = {}
        self.heads: dict[int, list[Callable]] = {}
        self.decided: dict[int, Optional[tuple]] = {}

    @functools.cached_property
    def integers(self) -> set[int]:
        """The program's integers, in the universe beyond max_int; read on first need."""
        return program_constants(self.program)[0]

    def _stray_binding(self, names: Iterable[str], sigma: Substitution) -> Optional[str]:
        """How `sigma` binds one of `names` to a term outside the universe
        that the naive grounder ranges every variable over, or None."""
        for name in names:
            if (outside := _outside_universe(sigma[name], self.bounds, self.integers)) is not None:
                return f"{name} to {term_to_text(sigma[name])}, which {outside}"
        return None

    # -- plans --------------------------------------------------------

    def _plan(
        self, body: Sequence[BodyLiteral], bound: Iterable, statement: Statement, from_delta=False
    ) -> list[_Step]:
        """The steps that join `body` when the variables in `bound` are bound.
        With `from_delta`, the first literal, a positive classical atom, is
        matched against the delta first; then each step is for the first
        remaining literal that is ready. A body that cannot be scheduled ends
        in a step that raises."""
        remaining, bound, steps = list(body), set(bound), []
        if from_delta:
            remaining = remaining[1:]
            step, binds = self._join_step(body[0].atom, bound, None, remaining)
            steps.append(step)
            bound |= binds
        while remaining:
            for position, literal in enumerate(remaining):
                rest = remaining[:position] + remaining[position + 1 :]
                ready = self._step(literal, bound, statement, rest)
                if ready is not None:
                    break
            else:
                return steps + [_unschedulable]
            remaining = rest
            steps.append(ready[0])
            bound |= ready[1]
        return steps

    def _step(
        self, literal: BodyLiteral, bound: set[str], statement: Statement, rest: list
    ) -> Optional[tuple[_Step, set[str]]]:
        """The step for `literal` of `statement` and the variables it binds, or
        None when the literal is not ready with the variables in `bound`. A
        step that matches a pattern adds to `rest` the builtins its arithmetic
        subpatterns become, and a join step takes over those it makes ready."""
        atom = literal.atom
        if isinstance(literal, AggregateLiteral):
            return self._aggregate_step(literal, bound, statement, rest)
        if isinstance(atom, ClassicalAtom):
            if not literal.naf:
                return self._join_step(atom, bound, self.index, rest)
            if not atom_variables(atom) <= bound:
                return None
            read = _atom_reader(atom)

            def naf_step(states, delta):
                return [
                    (sigma, (*kept, NafLiteral(ground, True)))
                    for sigma, kept in states
                    if (ground := read(sigma)) is not None
                ]

            return naf_step, set()
        if atom_variables(atom) <= bound:
            test = _test(literal)

            def filter_step(states, delta):
                return [state for state in states if test(state[0])]

            return filter_step, set()
        if literal.naf or atom.relation is not Relation.EQ:
            return None
        # a bind step binds a variable outside arithmetic on its pattern side
        for source, pattern in ((atom.left, atom.right), (atom.right, atom.left)):
            binds = term_variables_outside_arithmetic(pattern) - bound
            if binds and term_variables(source) <= bound:
                break
        else:
            return None
        read, pattern = _reader(source), _lift_arithmetic(pattern, rest)

        def bind_step(states, delta):
            out = [
                (extended, kept)
                for sigma, kept in states
                if (value := read(sigma)) is not None
                and (extended := _extend(sigma, [(pattern, value)])) is not None
            ]
            for extended, _ in out:
                if (stray := self._stray_binding(binds, extended)) is not None:
                    raise BoundExceeded(f"`{body_literal_to_text(literal)}` binds {stray}")
            return out

        return bind_step, term_variables(pattern)

    def _aggregate_step(
        self, literal: AggregateLiteral, bound: set[str], statement: Statement, rest: list
    ) -> Optional[tuple[_Step, set[str]]]:
        """With its guards bound, the step keeps the aggregate's ground
        instance; for `#f{...} = T` with a variable of T unbound outside
        arithmetic, it binds T to each value the aggregate can take over its
        ground elements."""
        atom, guard = literal.atom, literal.atom.right_guard
        guards = [side.term for side in (atom.left_guard, guard) if side is not None]
        guard_vars = set().union(*map(term_variables, guards))
        element_vars = set().union(*map(element_variables, atom.elements))
        equality = guard is not None and guard.relation is Relation.EQ and atom.left_guard is None
        outside = term_variables_outside_arithmetic(guard.term) if equality else set()
        binds_guard = not literal.naf and bool(outside - bound)
        if not (binds_guard or guard_vars <= bound):
            return None
        if not element_vars & global_variables(statement) <= bound:
            return None
        readers, elements = self._compile_aggregate(literal, bound, statement)
        if not binds_guard:

            def aggregate_step(states, delta):
                return [
                    (sigma, (*kept, ground))
                    for sigma, kept in states
                    if (ground := self._instantiate_aggregate(literal, readers, elements, sigma))
                    is not None
                ]

            return aggregate_step, set()
        pattern, binds = _lift_arithmetic(guard.term, rest), outside - bound

        def guard_step(states, delta):
            out = []
            for sigma, kept in states:
                ground_elements = self._instantiate_elements(elements, sigma)
                for value in _possible_values(atom.function, ground_elements):
                    extended = _extend(sigma, [(pattern, value)])
                    # the naive grounder has no instance for a value outside
                    # the universe, and the aggregate may never take it
                    if extended is not None and self._stray_binding(binds, extended) is None:
                        bound_guard = Guard(value, guard.relation)
                        ground = AggregateAtom(atom.function, ground_elements, None, bound_guard)
                        out.append((extended, (*kept, AggregateLiteral(ground))))
            return out

        return guard_step, term_variables(pattern)

    def _join_step(
        self, atom: ClassicalAtom, bound: set[str], index: Optional[_AtomIndex], rest: list
    ) -> tuple[_Step, set[str]]:
        """The step matching a positive classical atom against `index` (the
        delta when None), and the variables it binds. The candidates are
        looked up by the first argument whose variables are bound, and every
        other such argument is a compiled check. In an argument with an
        unbound variable each arithmetic subterm is lifted into a variable
        and a builtin added to `rest`; then the argument is checked, compares
        with an earlier argument (the second X of p(X,X)), binds a fresh
        variable, or is a functional pattern matched by unification. The
        builtins of `rest` whose last variable the step binds are taken out
        of `rest` and tested on each match before it is kept."""
        signature, position, key = atom_signature(atom), None, None
        # (position, reader), (position, earlier position), name: position,
        # (pattern, position)
        checks, repeats, fresh, compound = [], [], {}, []
        for i, arg in enumerate(atom.args):
            if not term_variables(arg) <= bound:
                arg = _lift_arithmetic(arg, rest)
            if term_variables(arg) <= bound:
                if position is None:
                    position, key = i, _reader(arg)
                else:
                    checks.append((i, _reader(arg)))
            elif isinstance(arg, Variable) and arg.name in fresh:
                repeats.append((i, fresh[arg.name]))
            elif isinstance(arg, Variable):
                fresh[arg.name] = i
            else:
                compound.append((arg, i))
        fresh_items = tuple(fresh.items())
        binds = set(fresh)
        for pattern, _ in compound:
            binds |= term_variables(pattern)
        tests = []
        for literal in list(rest):
            if isinstance(literal.atom, BuiltinAtom):
                names = atom_variables(literal.atom)
                if not names <= bound and names <= bound | binds:
                    rest.remove(literal)
                    tests.append(_test(literal))
        test = functools.reduce(lambda f, g: lambda s: f(s) and g(s), tests) if tests else None

        def join_step(states, delta):
            source = delta if index is None else index
            out = []
            for sigma, kept in states:
                value = None
                if key is not None and (value := key(sigma)) is None:
                    continue
                fixed = [(i, read(sigma)) for i, read in checks]
                # the fresh variables of each candidate are bound in one
                # scratch copy, copied again only for a match that is kept
                scratch = dict(sigma) if fresh_items else sigma
                for candidate in source.candidates(signature, position, value):
                    args = candidate.atom.args
                    if fixed and any(args[i] != v for i, v in fixed):
                        continue
                    if repeats and any(args[i] != args[j] for i, j in repeats):
                        continue
                    for name, i in fresh_items:
                        scratch[name] = args[i]
                    new = scratch
                    if compound:
                        new = _extend(scratch, [(p, args[i]) for p, i in compound])
                        if new is None:
                            continue
                    if test is not None and not test(new):
                        continue
                    if new is scratch and fresh_items:
                        new = dict(scratch)
                    out.append((new, (*kept, candidate)))
            return out

        return join_step, binds - bound

    # -- aggregates ---------------------------------------------------

    def _compile_aggregate(
        self, literal: AggregateLiteral, bound: set[str], statement: Statement
    ) -> tuple[list, list]:
        """The guard readers of an aggregate, each None or (reader, relation),
        and its elements, each with its condition's plan and its terms'
        reader, for the variables in `bound`."""
        atom = literal.atom
        readers = [
            None if guard is None else (_reader(guard.term), guard.relation)
            for guard in (atom.left_guard, atom.right_guard)
        ]
        elements = [
            (element, self._plan(element.condition, bound, statement), _tuple_reader(element.terms))
            for element in atom.elements
        ]
        return readers, elements

    def _instantiate_elements(self, elements: list, sigma: Substitution) -> tuple:
        out: dict[str, AggregateElement] = {}
        for element, plan, read in elements:
            for local, kept in self._join(plan, sigma):
                if (terms := read(local)) is not None:
                    instance = AggregateElement(terms, kept, element.explicit_colon)
                    out.setdefault(aggregate_element_to_text(instance), instance)
        return tuple(out[key] for key in sorted(out))

    def _instantiate_aggregate(
        self, literal: AggregateLiteral, readers: list, elements: list, sigma: Substitution
    ) -> Optional[AggregateLiteral]:
        guards = []
        for reader in readers:
            if reader is not None:
                if (term := reader[0](sigma)) is None:
                    return None
                reader = Guard(term, reader[1])
            guards.append(reader)
        ground = AggregateAtom(
            literal.atom.function, self._instantiate_elements(elements, sigma), *guards
        )
        return AggregateLiteral(ground, literal.naf)

    # -- body join ----------------------------------------------------

    def _join(self, plan: list[_Step], sigma0: Substitution, delta=None) -> _Instances:
        """(substitution, ground literals kept) for every way the plan's body
        holds over the index, its delta step reading `delta`."""
        states = [(sigma0, ())]
        for step in plan:
            if not states:
                break
            states = step(states, delta)
        return states

    def ground_body(self, statement: Statement, position=None, delta=None) -> _Instances:
        """Body instances of the statement; with `position`, the positive
        classical literal there is matched only against `delta`."""
        if not statement.body:
            return [({}, ())]
        key = id(statement)
        plan = self.plans.get((key, position))
        if plan is None and key not in self.decided:
            if any(map(term_variables, global_terms(statement))):
                body = statement.body
                if position is not None:
                    body = (body[position],) + body[:position] + body[position + 1 :]
                plan = self._plan(body, (), statement, position is not None)
                self.plans[key, position] = plan
            else:
                self.decided[key] = self._decide(statement)
        if plan is None:
            return self._decided_body(self.decided[key], position, delta)
        return self._join(plan, {}, delta)

    def _decide(self, statement: Statement) -> Optional[tuple]:
        """A variable-free body with its atoms instantiated and its builtins
        decided: its positive atoms by body position, its naf literals and
        its compiled aggregates; None when the body can never hold."""
        atoms, nafs, aggregates = {}, [], []
        for position, literal in enumerate(statement.body):
            if isinstance(literal, AggregateLiteral):
                aggregates.append((literal, *self._compile_aggregate(literal, set(), statement)))
            elif isinstance(literal.atom, BuiltinAtom):
                if not _test(literal)({}):
                    return None
            elif (ground := _atom_reader(literal.atom)({})) is None:
                return None
            elif literal.naf:
                nafs.append(NafLiteral(ground, True))
            else:
                atoms[position] = ground
        return atoms, nafs, aggregates

    def _decided_body(self, decided: Optional[tuple], position, delta) -> _Instances:
        """The one body instance of a variable-free statement as `_decide`
        left it, its only substitution being the empty one: each call looks
        its positive atoms up, keeping the index's literals as a join does,
        and instantiates its aggregates."""
        if decided is None:
            return []
        atoms, nafs, aggregates = decided
        kept = []
        if position is not None:
            if (literal := delta.literals.get(atoms[position])) is None:
                return []
            kept.append(literal)
        for at, atom in atoms.items():
            if at != position:
                if (literal := self.index.literals.get(atom)) is None:
                    return []
                kept.append(literal)
        kept += nafs
        for literal, readers, elements in aggregates:
            if (ground := self._instantiate_aggregate(literal, readers, elements, {})) is None:
                return []
            kept.append(ground)
        return [({}, tuple(kept))]

    def fire(self, rule: Rule, states: _Instances, instances: dict) -> list[NafLiteral]:
        """Record the instances of the rule for the body instances and add
        their heads to the index; returns the literals of the atoms the index
        did not have."""
        if not states:
            return []
        readers = self.heads.get(id(rule))
        if readers is None:
            readers = self.heads[id(rule)] = [_atom_reader(atom) for atom in rule.head]
        added: list[NafLiteral] = []
        for sigma, kept in states:
            heads = []
            for read in readers:
                ground = read(sigma)
                if ground is None:
                    break
                check_atom_bounds(ground, self.bounds)
                heads.append(ground)
            else:
                instances.setdefault(_canonical_rule(tuple(heads), kept))
                for atom in heads:
                    if self.index.add(literal := NafLiteral(atom)):
                        added.append(literal)
        return added

    def ground_component(
        self, rules: list[Rule], component: frozenset[Signature], instances: dict[Rule, None]
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
        added: list[NafLiteral] = []
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
        # a delta step starts with nothing bound: it looks its atom up by an
        # argument only when the atom has a ground one
        by_argument = any(_bound_position(r.body[p].atom, set()) is not None for r, p in recursive)
        while added and recursive:
            delta = _AtomIndex(added, by_argument)
            added = []
            for rule, position in recursive:
                added += self.fire(rule, self.ground_body(rule, position, delta), instances)


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


def _smart_ground(program: Program, bounds: UniverseBounds) -> tuple[dict, dict]:
    grounder = _Grounder(bounds, program)
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
        read = _tuple_reader((weak.weight, weak.level, *weak.terms))
        for sigma, kept in grounder.ground_body(weak):
            values = read(sigma)
            if values is None:
                continue
            weight, level, *terms = values
            body = tuple(sorted(kept, key=body_literal_to_text))
            weaks.setdefault(WeakConstraint(body, weight, level, tuple(terms)), None)
    # an aggregate step calls back into the grounder, so dropping the plans
    # frees the grounder now, not at the next collection of reference cycles
    grounder.plans.clear()
    grounder.heads.clear()
    grounder.decided.clear()
    return instances, weaks


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
    return sorted(element_variables(element).difference(bound))


def instantiate_element(
    element: AggregateElement,
    universe: Union[Sequence[Term], _LazyUniverse],
    context: Optional[Substitution] = None,
    globals_: Optional[frozenset[str]] = None,
) -> list[AggregateElement]:
    """inst(E) for one element: all well-formed local substitutions into the
    universe, arithmetically evaluated, as a deduplicated sorted list."""
    sigma0 = dict(context or {})
    names = _local_names(element, sigma0.keys() | (globals_ or frozenset()))
    size = universe.size if isinstance(universe, _LazyUniverse) else len(universe)
    if size ** len(names) > NAIVE_INSTANCE_BUDGET:
        what = f"aggregate element `{aggregate_element_to_text(element)}`"
        raise _over_naive_budget(size ** len(names), what, names)
    out: dict[str, AggregateElement] = {}
    # a product of no pools yields one empty tuple without drawing a term
    for combo in itertools.product(*[universe] * len(names)):
        sigma = dict(sigma0)
        sigma.update(zip(names, combo))
        if not is_well_formed(iter_element_terms(element), sigma):
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
    statement: Statement, universe: _LazyUniverse, globals_: frozenset[str]
) -> Iterator[tuple[Substitution, list[BodyLiteral]]]:
    names = sorted(globals_)
    per_instance = 1
    every_name = list(names)
    for literal in statement.body:
        if isinstance(literal, AggregateLiteral):
            for element in literal.atom.elements:
                local = _local_names(element, globals_)
                per_instance += universe.size ** len(local)
                every_name += local
    count = universe.size ** len(names) * per_instance
    if count > NAIVE_INSTANCE_BUDGET:
        what = f"`{statement_to_text(statement)}`"
        raise _over_naive_budget(count, what, every_name)
    for combo in itertools.product(*[universe] * len(names)):
        sigma = dict(zip(names, combo))
        if not is_well_formed(global_terms(statement), sigma):
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


def _naive_ground(program: Program, bounds: UniverseBounds) -> tuple[dict, dict]:
    # a statement without variables draws no term, and one over the budget
    # is refused before any is built; the functors of a desugared choice can
    # make the universe large
    universe = _LazyUniverse(program, bounds)
    rules: dict[Rule, None] = {}
    for rule in program.rules:
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
                tuple(sorted(body, key=body_literal_to_text)),
                eval_arithmetic(weak.weight, sigma),
                eval_arithmetic(weak.level, sigma),
                tuple(eval_arithmetic(t, sigma) for t in weak.terms),
            )
            weaks.setdefault(instance, None)
    return rules, weaks


def ground_program(
    program: Program,
    bounds: Optional[UniverseBounds] = None,
    naive: bool = False,
) -> GroundProgram:
    """Ground a desugared program over the bounded universe.

    The default grounder instantiates bottom-up, keeping only substitutions
    whose positive classical body atoms are potentially derivable, and raises
    BoundExceeded when a derivable atom, or a term that a builtin binds to a
    variable, leaves the universe; an `=` aggregate guard skips such a value,
    for which the naive grounder has no instance either. It grounds the
    strongly connected components of the predicate dependency graph in
    topological order, so every predicate a component depends on is complete
    when its rules are joined. A component is joined once; if it is
    recursive, semi-naive rounds follow, in which each rule is re-joined once
    per positive body literal over the component's own predicates, with that
    literal matched only against the atoms the previous round added. A
    component with an aggregate over its own predicates (a recursive
    aggregate) is instead re-ground from no instances until a round adds no
    atom. Constraints and weak constraints are grounded last. Each body (and
    delta literal) gets one join plan per call: its literals as they become
    ready, each positive atom looked up by its first bound argument in an
    index keyed by (predicate, position, value) and its other arguments
    compared or bound on a plain substitution. A match binds only variables
    outside arithmetic: an arithmetic subterm of a pattern becomes a fresh
    variable and an equality builtin, scheduled as any other. The plan
    compiles each builtin and each arithmetic term once, and a builtin whose
    last variable a join binds is tested inside that join, before the
    match's substitution is copied. A statement without variables gets no
    plan: its atoms are instantiated and its builtins decided once per call,
    and each later visit looks its atoms up in the index.

    With naive=True every substitution over the bounded universe is
    enumerated instead and nothing is derived, so the bounds are never
    exceeded; a statement over NAIVE_INSTANCE_BUDGET substitutions raises
    BoundExceeded before the universe is built.
    """
    if bounds is None:
        bounds = UniverseBounds()
    for rule in program.rules:
        if isinstance(rule.head, ChoiceAtom):
            raise ValueError("statement must be desugared before grounding")
    rules, weaks = (_naive_ground if naive else _smart_ground)(program, bounds)
    return GroundProgram(
        tuple(sorted(rules, key=rule_to_text)),
        tuple(sorted(weaks, key=weak_constraint_to_text)),
    )
