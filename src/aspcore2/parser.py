"""Recursive-descent parser for ASP-Core-2.

The grammar is LL(1) except where a classical literal can open a rule head,
a query, a builtin atom, or the guard term of an aggregate or choice atom.
Each production dispatches on the current token kind and parses each
literal once: an ID, or a '-' directly before an ID, is read as a classical
atom, and is read again as a term only when the token after it is a
relation or one of + - * /. Any other token picks the production by its
kind alone: an aggregate function starts an aggregate; a token that can
start a term starts a builtin or a left-guarded aggregate in a body, and
it or a '{' starts a choice in a head; any other token is reported where a
classical atom's predicate name was expected. No production is retried, so
a syntax error names the first token at which the production being read
cannot go on.
"""

from __future__ import annotations

from typing import Optional, Union

from .errors import ParseError
from .lexer import TokenKind, Tokens, tokenize
from .syntax import (
    AggregateAtom,
    AggregateElement,
    AggregateFunction,
    AggregateLiteral,
    AnonymousVariable,
    ArithmeticTerm,
    ArithOp,
    BodyLiteral,
    BuiltinAtom,
    ChoiceAtom,
    ChoiceElement,
    ClassicalAtom,
    FunctionalTerm,
    Guard,
    IntegerConstant,
    NafLiteral,
    Program,
    Query,
    Relation,
    Rule,
    Span,
    StringConstant,
    SymbolicConstant,
    Term,
    Variable,
    WeakConstraint,
)

_RELATION_TOKENS = {
    TokenKind.EQUAL: Relation.EQ,
    TokenKind.UNEQUAL: Relation.NE,
    TokenKind.LESS: Relation.LT,
    TokenKind.GREATER: Relation.GT,
    TokenKind.LESS_OR_EQ: Relation.LE,
    TokenKind.GREATER_OR_EQ: Relation.GE,
}

_AGGREGATE_TOKENS = {
    TokenKind.AGGREGATE_COUNT: AggregateFunction.COUNT,
    TokenKind.AGGREGATE_MAX: AggregateFunction.MAX,
    TokenKind.AGGREGATE_MIN: AggregateFunction.MIN,
    TokenKind.AGGREGATE_SUM: AggregateFunction.SUM,
}

_ADDITIVE = {TokenKind.PLUS: ArithOp.ADD, TokenKind.MINUS: ArithOp.SUB}
_MULTIPLICATIVE = {TokenKind.TIMES: ArithOp.MUL, TokenKind.DIV: ArithOp.DIV}

# After a classical atom, these tokens make it the start of a term.
_TERM_FOLLOW = frozenset(_RELATION_TOKENS) | frozenset(_ADDITIVE) | frozenset(_MULTIPLICATIVE)

_BASIC_TERM_TOKENS = frozenset(
    {
        TokenKind.ID,
        TokenKind.STRING,
        TokenKind.NUMBER,
        TokenKind.MINUS,
        TokenKind.VARIABLE,
        TokenKind.ANONYMOUS_VARIABLE,
    }
)


class _Parser:
    """Reads the kind and text columns of a token stream by index; builds a
    `Span` only for a statement or an error."""

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def accept(self, kind: TokenKind) -> bool:
        if self.kinds[self.pos] is kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: TokenKind, what: str) -> str:
        """The text of the current token, which must be of `kind`."""
        if self.kinds[self.pos] is not kind:
            self.fail(f"expected {what}")
        self.pos += 1
        return self.texts[self.pos - 1]

    def fail(self, message: str) -> None:
        pos = self.pos
        found = "end of input" if self.kinds[pos] is TokenKind.EOF else repr(self.texts[pos])
        raise ParseError(f"{message}, found {found}", self.tokens.span(pos))

    def at_classical_atom(self) -> bool:
        kind = self.kinds[self.pos]
        if kind is TokenKind.MINUS:
            kind = self.kinds[self.pos + 1]
        return kind is TokenKind.ID

    def at_term(self) -> bool:
        kind = self.kinds[self.pos]
        return kind in _BASIC_TERM_TOKENS or kind is TokenKind.PAREN_OPEN

    def span_from(self, start: int) -> Span:
        """From the start of token `start` to the end of the last token read."""
        tokens = self.tokens
        offset = tokens.offsets[start]
        last = self.pos - 1
        end = tokens.offsets[last] + len(self.texts[last])
        return Span(offset, end - offset, tokens.lines[start], tokens.columns[start])

    # -- program -----------------------------------------------------------

    def parse_program(self) -> Program:
        rules: list[Rule] = []
        weaks: list[WeakConstraint] = []
        query: Optional[Query] = None
        while self.kinds[self.pos] is not TokenKind.EOF:
            if query is not None:
                self.fail("expected end of input after query")
            start = self.pos
            if self.accept(TokenKind.CONS):
                body = self.parse_optional_body()
                self.expect(TokenKind.DOT, "'.'")
                rules.append(Rule((), tuple(body), span=self.span_from(start)))
            elif self.accept(TokenKind.WCONS):
                weaks.append(self.parse_weak_constraint(start))
            else:
                statement = self.parse_rule_or_query(start)
                if isinstance(statement, Query):
                    query = statement
                else:
                    rules.append(statement)
        return Program(tuple(rules), tuple(weaks), query)

    def parse_rule_or_query(self, start: int) -> Union[Rule, Query]:
        begin = self.pos
        head: Union[list[ClassicalAtom], ChoiceAtom, None] = None
        if self.at_classical_atom():
            atom = self.parse_classical_atom()
            if self.accept(TokenKind.QUERY_MARK):
                return Query(atom, span=self.span_from(start))
            if self.kinds[self.pos] in _TERM_FOLLOW:
                self.pos = begin
            else:
                head = self.parse_disjunction(atom)
        if head is None:
            if self.kinds[self.pos] is not TokenKind.CURLY_OPEN and not self.at_term():
                # no head starts here: report what a classical atom reports
                self.fail("expected predicate name")
            head = self.parse_choice_atom()
        body: list[BodyLiteral] = []
        if self.accept(TokenKind.CONS):
            body = self.parse_optional_body()
        self.expect(TokenKind.DOT, "'.'")
        return Rule(head if isinstance(head, ChoiceAtom) else tuple(head), tuple(body), span=self.span_from(start))

    def parse_weak_constraint(self, start: int) -> WeakConstraint:
        body = self.parse_optional_body()
        self.expect(TokenKind.DOT, "'.'")
        self.expect(TokenKind.SQUARE_OPEN, "'['")
        weight = self.parse_term()
        level: Term = IntegerConstant(0)
        if self.accept(TokenKind.AT):
            level = self.parse_term()
        terms: list[Term] = []
        if self.accept(TokenKind.COMMA):
            terms.append(self.parse_term())
            while self.accept(TokenKind.COMMA):
                terms.append(self.parse_term())
        self.expect(TokenKind.SQUARE_CLOSE, "']'")
        return WeakConstraint(tuple(body), weight, level, tuple(terms), span=self.span_from(start))

    # -- heads ---------------------------------------------------------------

    def parse_disjunction(self, first: ClassicalAtom) -> list[ClassicalAtom]:
        atoms = [first]
        while self.accept(TokenKind.OR):
            atoms.append(self.parse_classical_atom())
        return atoms

    def parse_choice_atom(self) -> ChoiceAtom:
        left_guard = None
        if self.kinds[self.pos] is not TokenKind.CURLY_OPEN:
            left_guard = Guard(self.parse_term(), self.parse_relation())
        self.expect(TokenKind.CURLY_OPEN, "'{'")
        elements: list[ChoiceElement] = []
        if self.kinds[self.pos] is not TokenKind.CURLY_CLOSE:
            elements.append(self.parse_choice_element())
            while self.accept(TokenKind.SEMICOLON):
                elements.append(self.parse_choice_element())
        self.expect(TokenKind.CURLY_CLOSE, "'}'")
        return ChoiceAtom(tuple(elements), left_guard, self.parse_right_guard())

    def parse_choice_element(self) -> ChoiceElement:
        atom = self.parse_classical_atom()
        condition: list[NafLiteral] = []
        if self.accept(TokenKind.COLON):
            condition = self.parse_optional_naf_literals()
        return ChoiceElement(atom, tuple(condition))

    def parse_right_guard(self) -> Optional[Guard]:
        relation = _RELATION_TOKENS.get(self.kinds[self.pos])
        if relation is None:
            return None
        self.pos += 1
        return Guard(self.parse_term(), relation)

    # -- bodies --------------------------------------------------------------

    def parse_optional_body(self) -> list[BodyLiteral]:
        if self.kinds[self.pos] is TokenKind.DOT:
            return []
        literals = [self.parse_literal(aggregates=True)]
        while self.accept(TokenKind.COMMA):
            literals.append(self.parse_literal(aggregates=True))
        return literals

    def parse_optional_naf_literals(self) -> list[NafLiteral]:
        # Used where the grammar allows the literal list to be empty (after a
        # ':' in aggregate and choice elements); the follow set decides.
        kind = self.kinds[self.pos]
        if kind is TokenKind.COMMA:
            self.fail("expected literal")
        if kind is TokenKind.CURLY_CLOSE or kind is TokenKind.SEMICOLON:
            return []
        literals = [self.parse_literal(aggregates=False)]
        while self.accept(TokenKind.COMMA):
            literals.append(self.parse_literal(aggregates=False))
        return literals

    def parse_literal(self, aggregates: bool) -> BodyLiteral:
        """A classical literal, a builtin atom or, where `aggregates`, an
        aggregate literal, after its `not` if any."""
        naf = self.accept(TokenKind.NAF)
        begin = self.pos
        # whether a builtin or an aggregate's left guard may start here
        term_first = aggregates or not naf
        if self.at_classical_atom():
            atom = self.parse_classical_atom()
            if not term_first or self.kinds[self.pos] not in _TERM_FOLLOW:
                return NafLiteral(atom, naf)
            self.pos = begin
        if aggregates and self.kinds[begin] in _AGGREGATE_TOKENS:
            aggregate = self.parse_aggregate_atom(None)
        elif term_first and self.at_term():
            left = Guard(self.parse_term(), self.parse_relation())
            if aggregates and self.kinds[self.pos] in _AGGREGATE_TOKENS:
                aggregate = self.parse_aggregate_atom(left)
            elif naf:
                self.fail("expected aggregate function")
            else:
                return NafLiteral(BuiltinAtom(left.term, left.relation, self.parse_term()))
        else:
            # no literal starts here: report what a classical atom reports
            return NafLiteral(self.parse_classical_atom(), naf)
        if aggregate.left_guard is None and aggregate.right_guard is None:
            raise ParseError("aggregate atom requires at least one guard", self.tokens.span(begin))
        return AggregateLiteral(aggregate, naf)

    def parse_relation(self) -> Relation:
        relation = _RELATION_TOKENS.get(self.kinds[self.pos])
        if relation is None:
            self.fail("expected comparison operator")
        self.pos += 1
        return relation

    def parse_classical_atom(self) -> ClassicalAtom:
        strong_negation = self.accept(TokenKind.MINUS)
        name = self.expect(TokenKind.ID, "predicate name")
        return ClassicalAtom(name, self.parse_arguments(), strong_negation)

    def parse_arguments(self) -> tuple[Term, ...]:
        """`(t1, ..., tn)` after a name, or nothing; `()` has no terms."""
        if not self.accept(TokenKind.PAREN_OPEN):
            return ()
        args: list[Term] = []
        if self.kinds[self.pos] is not TokenKind.PAREN_CLOSE:
            args.append(self.parse_term())
            while self.accept(TokenKind.COMMA):
                args.append(self.parse_term())
        self.expect(TokenKind.PAREN_CLOSE, "')'")
        return tuple(args)

    # -- aggregates ------------------------------------------------------------

    def parse_aggregate_atom(self, left_guard: Optional[Guard]) -> AggregateAtom:
        """The rest of an aggregate atom, from its function token on."""
        function = _AGGREGATE_TOKENS[self.kinds[self.pos]]
        self.pos += 1
        self.expect(TokenKind.CURLY_OPEN, "'{'")
        elements: list[AggregateElement] = []
        if self.kinds[self.pos] is not TokenKind.CURLY_CLOSE:
            elements.append(self.parse_aggregate_element())
            while self.accept(TokenKind.SEMICOLON):
                elements.append(self.parse_aggregate_element())
        self.expect(TokenKind.CURLY_CLOSE, "'}'")
        return AggregateAtom(function, tuple(elements), left_guard, self.parse_right_guard())

    def parse_aggregate_element(self) -> AggregateElement:
        terms: list[Term] = []
        if self.kinds[self.pos] in _BASIC_TERM_TOKENS:
            terms.append(self.parse_basic_term())
            while self.accept(TokenKind.COMMA):
                terms.append(self.parse_basic_term())
        explicit_colon = self.accept(TokenKind.COLON)
        condition: list[NafLiteral] = []
        if explicit_colon:
            condition = self.parse_optional_naf_literals()
        return AggregateElement(tuple(terms), tuple(condition), explicit_colon and not condition)

    def parse_basic_term(self) -> Term:
        # Element terms are restricted to constants and variables; functional
        # and arithmetic terms are not in the element-term grammar.
        kind = self.kinds[self.pos]
        if kind is TokenKind.ID:
            self.pos += 1
            return SymbolicConstant(self.texts[self.pos - 1])
        if kind is TokenKind.MINUS:
            self.pos += 1
            return IntegerConstant(-int(self.expect(TokenKind.NUMBER, "number")))
        if kind not in _BASIC_TERM_TOKENS:
            self.fail("expected term")
        return self.parse_primary()

    # -- terms -------------------------------------------------------------------

    def parse_term(self) -> Term:
        term = self.parse_product()
        while (op := _ADDITIVE.get(self.kinds[self.pos])) is not None:
            self.pos += 1
            term = ArithmeticTerm(op, (term, self.parse_product()))
        return term

    def parse_product(self) -> Term:
        term = self.parse_primary()
        while (op := _MULTIPLICATIVE.get(self.kinds[self.pos])) is not None:
            self.pos += 1
            term = ArithmeticTerm(op, (term, self.parse_primary()))
        return term

    def parse_primary(self) -> Term:
        """A unary minus, a constant, a variable, a functional term, or a
        parenthesized term."""
        pos = self.pos
        kind = self.kinds[pos]
        self.pos = pos + 1
        if kind is TokenKind.ID:
            args = self.parse_arguments()
            # f() collapses to the plain constant f.
            text = self.texts[pos]
            return FunctionalTerm(text, args) if args else SymbolicConstant(text)
        if kind is TokenKind.VARIABLE:
            return Variable(self.texts[pos])
        if kind is TokenKind.NUMBER:
            return IntegerConstant(int(self.texts[pos]))
        if kind is TokenKind.MINUS:
            return ArithmeticTerm(ArithOp.NEG, (self.parse_primary(),))
        if kind is TokenKind.STRING:
            return StringConstant(self.texts[pos][1:-1])
        if kind is TokenKind.ANONYMOUS_VARIABLE:
            return AnonymousVariable()
        if kind is TokenKind.PAREN_OPEN:
            term = self.parse_term()
            self.expect(TokenKind.PAREN_CLOSE, "')'")
            return term
        self.pos -= 1
        self.fail("expected term")


def parse_program(text: str) -> Program:
    """Tokenize and parse a complete program."""
    return _Parser(tokenize(text)).parse_program()


def parse_rule(text: str) -> Rule:
    """Parse a single rule (convenience for tests and tools)."""
    program = parse_program(text)
    if len(program.rules) != 1 or program.weak_constraints or program.query:
        raise ParseError("expected exactly one rule", None)
    return program.rules[0]
