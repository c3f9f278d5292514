"""AST for ASP-Core-2 programs, with the canonical pretty printer.

Every node is a slotted dataclass, equal and hashed by value, so terms,
atoms and aggregate elements can be used as set members and dict keys.
Statement nodes carry an optional source span that is excluded from
structural equality. Nodes are immutable by convention: nothing assigns
to a node's fields once it is built, so a node can be shared between
programs and its hash never changes. Atoms, aggregate elements, body
literals and statements also keep their canonical text once it has been
rendered (`_Rendered`), so each is rendered at most once; a program keeps
its dependency graph (`_Analysed`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Union, get_args


class Span(NamedTuple):
    """Source location: byte offset, length, and 1-based line/column.

    An immutable tuple, equal and hashed by value; a statement's span takes
    no part in the statement's equality.
    """

    offset: int
    length: int
    line: int
    column: int

    def describe(self) -> str:
        return f"{self.line}:{self.column}"


class _Rendered:
    """Base of the nodes whose canonical text is memoised (`_memoised`).

    `_text` is a slot, not a dataclass field, so it takes no part in
    equality, hashing or repr; it stays unset until the node is rendered.
    """

    __slots__ = ("_text",)


class _Analysed:
    """Base of `Program`: its `_graph` slot keeps the predicate dependency
    graph once `analysis` has built it, so that checking and grounding one
    program build it once. Like `_text`, it is not a dataclass field."""

    __slots__ = ("_graph",)


# --------------------------------------------------------------------------
# Terms


@dataclass(slots=True, unsafe_hash=True)
class IntegerConstant:
    value: int


@dataclass(slots=True, unsafe_hash=True)
class SymbolicConstant:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class StringConstant:
    # Content between the quotes, escape sequences retained verbatim.
    value: str

    def content(self) -> str:
        """Unescaped text (the only escape is a backslash before a quote)."""
        return self.value.replace('\\"', '"')


@dataclass(slots=True, unsafe_hash=True)
class Variable:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class AnonymousVariable:
    # Each occurrence stands for a fresh variable; rewriting replaces them
    # positionally with fresh named variables, so none survive desugaring.
    pass


class ArithOp(enum.Enum):
    # Values are the printed operator symbols; unary minus gets a distinct
    # value so the enum does not alias it to SUB.
    NEG = "neg"
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


@dataclass(slots=True, unsafe_hash=True)
class ArithmeticTerm:
    op: ArithOp
    args: tuple["Term", ...]

    def __post_init__(self) -> None:
        expected = 1 if self.op is ArithOp.NEG else 2
        if len(self.args) != expected:
            raise ValueError(f"{self.op.name} takes {expected} operand(s)")


@dataclass(slots=True, unsafe_hash=True)
class FunctionalTerm:
    functor: str
    args: tuple["Term", ...]

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("functional terms have at least one argument")


Term = Union[
    IntegerConstant,
    SymbolicConstant,
    StringConstant,
    Variable,
    AnonymousVariable,
    ArithmeticTerm,
    FunctionalTerm,
]


# --------------------------------------------------------------------------
# Atoms and literals


class Relation(enum.Enum):
    LT = "<"
    LE = "<="
    EQ = "="
    NE = "!="
    GT = ">"
    GE = ">="


INVERTED_RELATION = {
    Relation.LT: Relation.GT,
    Relation.LE: Relation.GE,
    Relation.EQ: Relation.EQ,
    Relation.NE: Relation.NE,
    Relation.GT: Relation.LT,
    Relation.GE: Relation.LE,
}


@dataclass(slots=True, unsafe_hash=True)
class ClassicalAtom(_Rendered):
    predicate: str
    args: tuple[Term, ...] = ()
    strong_negation: bool = False

    def signature(self) -> tuple[str, int]:
        return (self.predicate, len(self.args))


@dataclass(slots=True, unsafe_hash=True)
class BuiltinAtom:
    left: Term
    relation: Relation
    right: Term


@dataclass(slots=True, unsafe_hash=True)
class NafLiteral(_Rendered):
    atom: Union[ClassicalAtom, BuiltinAtom]
    naf: bool = False


class AggregateFunction(enum.Enum):
    COUNT = "#count"
    MAX = "#max"
    MIN = "#min"
    SUM = "#sum"


@dataclass(slots=True, unsafe_hash=True)
class AggregateElement(_Rendered):
    terms: tuple[Term, ...] = ()
    condition: tuple[NafLiteral, ...] = ()
    # Distinguishes `{:}` (one empty element, colon present) from terms-only
    # elements when printing; irrelevant once a condition exists.
    explicit_colon: bool = False


@dataclass(slots=True, unsafe_hash=True)
class Guard:
    term: Term
    relation: Relation


@dataclass(slots=True, unsafe_hash=True)
class AggregateAtom:
    function: AggregateFunction
    elements: tuple[AggregateElement, ...] = ()
    left_guard: Optional[Guard] = None
    right_guard: Optional[Guard] = None


@dataclass(slots=True, unsafe_hash=True)
class AggregateLiteral(_Rendered):
    atom: AggregateAtom
    naf: bool = False


BodyLiteral = Union[NafLiteral, AggregateLiteral]


# --------------------------------------------------------------------------
# Statements


@dataclass(slots=True, unsafe_hash=True)
class ChoiceElement:
    atom: ClassicalAtom
    condition: tuple[NafLiteral, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class ChoiceAtom:
    elements: tuple[ChoiceElement, ...] = ()
    left_guard: Optional[Guard] = None
    right_guard: Optional[Guard] = None


@dataclass(slots=True, unsafe_hash=True)
class Rule(_Rendered):
    # Disjunctive head as a tuple of classical atoms (empty for constraints),
    # or a single choice atom.
    head: Union[tuple[ClassicalAtom, ...], ChoiceAtom]
    body: tuple[BodyLiteral, ...] = ()
    span: Optional[Span] = field(default=None, compare=False)

    def is_constraint(self) -> bool:
        return isinstance(self.head, tuple) and not self.head

    def head_atoms(self) -> tuple[ClassicalAtom, ...]:
        return self.head if isinstance(self.head, tuple) else ()


@dataclass(slots=True, unsafe_hash=True)
class WeakConstraint(_Rendered):
    body: tuple[BodyLiteral, ...]
    weight: Term
    level: Term
    terms: tuple[Term, ...] = ()
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Query:
    atom: ClassicalAtom
    span: Optional[Span] = field(default=None, compare=False)


Statement = Union[Rule, WeakConstraint, Query]


@dataclass(slots=True, unsafe_hash=True)
class Program(_Analysed):
    rules: tuple[Rule, ...] = ()
    weak_constraints: tuple[WeakConstraint, ...] = ()
    query: Optional[Query] = None

    def statements(self) -> tuple[Statement, ...]:
        out: tuple[Statement, ...] = self.rules + self.weak_constraints
        if self.query is not None:
            out = out + (self.query,)
        return out


# --------------------------------------------------------------------------
# Auxiliary predicate names (introduced by choice-rule rewriting)

# Marker that cannot appear in any lexed identifier, so generated names can
# never collide with source predicates or functors.
AUX_MARKER = "\x01"


def make_aux_name(base: str, index: int) -> str:
    return f"{AUX_MARKER}{index}{AUX_MARKER}{base}"


def is_aux_name(name: str) -> bool:
    return name.startswith(AUX_MARKER)


def render_aux_name(name: str) -> str:
    _, index, base = name.split(AUX_MARKER)
    return f"__aux_{base}_{index}"


def _render_name(name: str) -> str:
    return render_aux_name(name) if is_aux_name(name) else name


# --------------------------------------------------------------------------
# Generic walkers, each defined once: bottom-up rewriting of every term of a
# statement (the rewriter names anonymous variables with it), iteration over
# top-level term positions, the global positions (outside aggregate
# elements) and the variables of an aggregate element. The safety analysis
# and both grounders read the last two.

_TERM_CLASSES = get_args(Term)


def transform_term(term: Term, fn: Callable[[Term], Term]) -> Term:
    """Rebuild `term` bottom-up, applying `fn` to every node."""
    if isinstance(term, ArithmeticTerm):
        term = ArithmeticTerm(term.op, tuple(transform_term(a, fn) for a in term.args))
    elif isinstance(term, FunctionalTerm):
        term = FunctionalTerm(term.functor, tuple(transform_term(a, fn) for a in term.args))
    return fn(term)


@functools.cache
def _field_names(cls: type) -> Optional[tuple[str, ...]]:
    """The field names of a node class, None for any other class."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _transform_node(node, fn: Callable[[Term], Term]):
    # `fn` sees the terms in field order (an aggregate's elements before its
    # guards). A `Span` is a tuple subclass and stays as it is; rebuilt nodes
    # start unrendered, since `_text` is a slot and not a field.
    if isinstance(node, _TERM_CLASSES):
        return transform_term(node, fn)
    if type(node) is tuple:
        return tuple([_transform_node(item, fn) for item in node])
    names = _field_names(type(node))
    if names is None:
        return node
    return type(node)(*[_transform_node(getattr(node, name), fn) for name in names])


def transform_statement(statement: Statement, fn: Callable[[Term], Term]) -> Statement:
    """Rebuild a statement with `fn` applied to every term node."""
    if not isinstance(statement, (Rule, WeakConstraint, Query)):
        raise TypeError(f"not a statement: {statement!r}")
    return _transform_node(statement, fn)


def iter_subterms(term: Term) -> Iterator[Term]:
    yield term
    if isinstance(term, (ArithmeticTerm, FunctionalTerm)):
        for arg in term.args:
            yield from iter_subterms(arg)


def term_variables(term: Term) -> set[str]:
    """Names of the named variables occurring anywhere in `term`."""
    if isinstance(term, Variable):
        return {term.name}
    if isinstance(term, (ArithmeticTerm, FunctionalTerm)):
        out: set[str] = set()
        for arg in term.args:
            out |= term_variables(arg)
        return out
    return set()


def term_variables_outside_arithmetic(term: Term) -> set[str]:
    """Names of the variables of `term` not nested inside an arithmetic
    subterm: the ones a match against a ground term binds."""
    if isinstance(term, Variable):
        return {term.name}
    if isinstance(term, FunctionalTerm):
        out: set[str] = set()
        for arg in term.args:
            out |= term_variables_outside_arithmetic(arg)
        return out
    return set()


def atom_terms(atom: Union[ClassicalAtom, BuiltinAtom]) -> tuple[Term, ...]:
    """The top-level terms of a classical or builtin atom."""
    if isinstance(atom, ClassicalAtom):
        return atom.args
    return (atom.left, atom.right)


def atom_variables(atom: Union[ClassicalAtom, BuiltinAtom]) -> set[str]:
    """Names of the named variables occurring anywhere in `atom`."""
    out: set[str] = set()
    for term in atom_terms(atom):
        out |= term_variables(term)
    return out


def iter_element_terms(element: AggregateElement) -> Iterator[Term]:
    """The top-level terms of an aggregate element, its condition included."""
    yield from element.terms
    for cond in element.condition:
        yield from atom_terms(cond.atom)


def element_variables(element: AggregateElement) -> set[str]:
    """Names of the variables of an aggregate element, its condition
    included."""
    names: set[str] = set()
    for term in iter_element_terms(element):
        names |= term_variables(term)
    return names


def _iter_body_literal_terms(literal: BodyLiteral) -> Iterator[Term]:
    if isinstance(literal, AggregateLiteral):
        atom = literal.atom
        for guard in (atom.left_guard, atom.right_guard):
            if guard is not None:
                yield guard.term
        for element in atom.elements:
            yield from iter_element_terms(element)
    else:
        yield from atom_terms(literal.atom)


def iter_statement_terms(statement: Statement) -> Iterator[Term]:
    """Every top-level term position in the statement (not subterms)."""
    if isinstance(statement, Rule):
        if isinstance(statement.head, ChoiceAtom):
            choice = statement.head
            for guard in (choice.left_guard, choice.right_guard):
                if guard is not None:
                    yield guard.term
            for element in choice.elements:
                yield from element.atom.args
                for cond in element.condition:
                    yield from atom_terms(cond.atom)
        else:
            for atom in statement.head:
                yield from atom.args
        for literal in statement.body:
            yield from _iter_body_literal_terms(literal)
    elif isinstance(statement, WeakConstraint):
        for literal in statement.body:
            yield from _iter_body_literal_terms(literal)
        yield statement.weight
        yield statement.level
        yield from statement.terms
    elif isinstance(statement, Query):
        yield from statement.atom.args
    else:
        raise TypeError(f"not a statement: {statement!r}")


def global_terms(statement: Statement) -> Iterator[Term]:
    """The top-level term positions outside aggregate elements: the global
    variables of the safety definition are the variables of these terms.
    A choice head has none; desugaring compiles choice heads away first."""
    if isinstance(statement, Query):
        yield from statement.atom.args
        return
    if isinstance(statement, Rule):
        for atom in statement.head_atoms():
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


def statement_variables(statement: Statement) -> set[str]:
    """Names of all named variables occurring anywhere in the statement."""
    names: set[str] = set()
    for top in iter_statement_terms(statement):
        names |= term_variables(top)
    return names


# --------------------------------------------------------------------------
# Pretty printer
#
# Canonical text: minimal parentheses under the usual precedence (unary minus
# binds tightest, then * /, then + -, all left-associative), single spaces
# around :- and relations, ", " between body literals.

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_ATOM = 4

_BINOP_PREC = {
    ArithOp.ADD: _PREC_ADD,
    ArithOp.SUB: _PREC_ADD,
    ArithOp.MUL: _PREC_MUL,
    ArithOp.DIV: _PREC_MUL,
}


def _memoised(render):
    """`render` with its result kept in the node's `_text` slot, so that a
    node's text is computed once however often it is asked for."""

    @functools.wraps(render)
    def memo(node):
        text = getattr(node, "_text", None)
        if text is None:
            text = node._text = render(node)
        return text

    return memo


def term_to_text(term: Term, parent_prec: int = 0) -> str:
    if isinstance(term, IntegerConstant):
        text = str(term.value)
        prec = _PREC_NEG if term.value < 0 else _PREC_ATOM
    elif isinstance(term, SymbolicConstant):
        return _render_name(term.name)
    elif isinstance(term, StringConstant):
        return f'"{term.value}"'
    elif isinstance(term, Variable):
        return term.name
    elif isinstance(term, AnonymousVariable):
        return "_"
    elif isinstance(term, FunctionalTerm):
        args = ",".join(term_to_text(a) for a in term.args)
        return f"{_render_name(term.functor)}({args})"
    elif isinstance(term, ArithmeticTerm):
        if term.op is ArithOp.NEG:
            text = "-" + term_to_text(term.args[0], _PREC_NEG)
            prec = _PREC_NEG
        else:
            prec = _BINOP_PREC[term.op]
            left = term_to_text(term.args[0], prec)
            right = term_to_text(term.args[1], prec + 1)
            text = f"{left}{term.op.value}{right}"
    else:
        raise TypeError(f"not a term: {term!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


@_memoised
def classical_atom_to_text(atom: ClassicalAtom) -> str:
    sign = "-" if atom.strong_negation else ""
    name = _render_name(atom.predicate)
    if not atom.args:
        return f"{sign}{name}"
    args = ",".join(term_to_text(a) for a in atom.args)
    return f"{sign}{name}({args})"


def naf_literal_to_text(literal: NafLiteral) -> str:
    if isinstance(literal.atom, BuiltinAtom):
        a = literal.atom
        text = f"{term_to_text(a.left)} {a.relation.value} {term_to_text(a.right)}"
    else:
        text = classical_atom_to_text(literal.atom)
    return f"not {text}" if literal.naf else text


@_memoised
def aggregate_element_to_text(element: AggregateElement) -> str:
    terms = ",".join(term_to_text(t) for t in element.terms)
    if element.condition:
        conds = ", ".join(naf_literal_to_text(l) for l in element.condition)
        return f"{terms} : {conds}" if terms else f": {conds}"
    if element.explicit_colon:
        return f"{terms} :" if terms else ":"
    return terms


def _guarded_to_text(atom: Union[AggregateAtom, ChoiceAtom], text: str) -> str:
    """`text`, the braces of an aggregate or choice atom, between its guards."""
    if atom.left_guard is not None:
        g = atom.left_guard
        text = f"{term_to_text(g.term)} {g.relation.value} {text}"
    if atom.right_guard is not None:
        g = atom.right_guard
        text = f"{text} {g.relation.value} {term_to_text(g.term)}"
    return text


def aggregate_atom_to_text(atom: AggregateAtom) -> str:
    inner = "; ".join(aggregate_element_to_text(e) for e in atom.elements)
    return _guarded_to_text(atom, f"{atom.function.value}{{{inner}}}")


@_memoised
def body_literal_to_text(literal: BodyLiteral) -> str:
    if isinstance(literal, AggregateLiteral):
        text = aggregate_atom_to_text(literal.atom)
        return f"not {text}" if literal.naf else text
    return naf_literal_to_text(literal)


def choice_element_to_text(element: ChoiceElement) -> str:
    text = classical_atom_to_text(element.atom)
    if element.condition:
        conds = ", ".join(naf_literal_to_text(l) for l in element.condition)
        text = f"{text} : {conds}"
    return text


def choice_atom_to_text(atom: ChoiceAtom) -> str:
    inner = "; ".join(choice_element_to_text(e) for e in atom.elements)
    return _guarded_to_text(atom, f"{{{inner}}}")


@_memoised
def rule_to_text(rule: Rule) -> str:
    body = ", ".join(body_literal_to_text(l) for l in rule.body)
    if isinstance(rule.head, ChoiceAtom):
        head = choice_atom_to_text(rule.head)
    else:
        head = " | ".join(classical_atom_to_text(a) for a in rule.head)
    if not head:
        return f":- {body}." if body else ":-."
    return f"{head} :- {body}." if body else f"{head}."


@_memoised
def weak_constraint_to_text(w: WeakConstraint) -> str:
    body = ", ".join(body_literal_to_text(l) for l in w.body)
    tail = f"{term_to_text(w.weight)}@{term_to_text(w.level)}"
    if w.terms:
        tail += "," + ",".join(term_to_text(t) for t in w.terms)
    prefix = f":~ {body}." if body else ":~."
    return f"{prefix} [{tail}]"


def query_to_text(q: Query) -> str:
    return f"{classical_atom_to_text(q.atom)}?"


def statement_to_text(statement: Statement) -> str:
    if isinstance(statement, Rule):
        return rule_to_text(statement)
    if isinstance(statement, WeakConstraint):
        return weak_constraint_to_text(statement)
    return query_to_text(statement)


def program_to_text(program: Program) -> str:
    lines = [statement_to_text(s) for s in program.statements()]
    return "".join(line + "\n" for line in lines)
