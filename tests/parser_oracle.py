"""The parser as first written, kept as the reference for `aspcore2.parser`.

Every LL conflict of the grammar is resolved by trying each alternative in
turn and rolling back on a ParseError, so the error reported is the one of
the alternative tried last. It shares the token type, ParseError and the
syntax tree dataclasses with the package under test.

It lives apart from `oracles.py` because perfbench imports that module in
every worker, which compiles it on each run with bytecode caching off.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from aspcore2.errors import ParseError
from aspcore2.lexer import Token, TokenKind
from aspcore2.syntax import (
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

_T = TypeVar("_T")

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


class _BacktrackingParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos].kind is kind

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def accept(self, kind: TokenKind) -> Optional[Token]:
        if self.at(kind):
            return self.advance()
        return None

    def expect(self, kind: TokenKind, what: str) -> Token:
        if self.at(kind):
            return self.advance()
        self.fail(f"expected {what}")

    def fail(self, message: str) -> None:
        token = self.peek()
        found = "end of input" if token.kind is TokenKind.EOF else repr(token.text)
        raise ParseError(f"{message}, found {found}", token.span)

    def attempt(self, production: Callable[[], _T]) -> Optional[_T]:
        """Parse with rollback: returns None if the production fails."""
        saved = self.pos
        try:
            return production()
        except ParseError:
            self.pos = saved
            return None

    def span_from(self, start: Token) -> Span:
        last = self.tokens[self.pos - 1]
        return Span(
            start.span.offset,
            last.span.offset + last.span.length - start.span.offset,
            start.span.line,
            start.span.column,
        )

    # -- program -----------------------------------------------------------

    def parse_program(self) -> Program:
        rules: list[Rule] = []
        weaks: list[WeakConstraint] = []
        query: Optional[Query] = None
        while not self.at(TokenKind.EOF):
            if query is not None:
                self.fail("expected end of input after query")
            start = self.peek()
            if self.accept(TokenKind.CONS):
                body = self.parse_optional_body()
                self.expect(TokenKind.DOT, "'.'")
                rules.append(Rule((), tuple(body), span=self.span_from(start)))
            elif self.accept(TokenKind.WCONS):
                weaks.append(self.parse_weak_constraint(start))
            else:
                q = self.attempt(self.parse_query)
                if q is not None:
                    query = q
                    continue
                rules.append(self.parse_rule(start))
        return Program(tuple(rules), tuple(weaks), query)

    def parse_query(self) -> Query:
        start = self.peek()
        atom = self.parse_classical_atom()
        self.expect(TokenKind.QUERY_MARK, "'?'")
        return Query(atom, span=self.span_from(start))

    def parse_rule(self, start: Token) -> Rule:
        head = self.attempt(self.parse_choice_atom)
        if head is None:
            head = self.parse_disjunction()
        body: list[BodyLiteral] = []
        if self.accept(TokenKind.CONS):
            body = self.parse_optional_body()
        self.expect(TokenKind.DOT, "'.'")
        return Rule(head if isinstance(head, ChoiceAtom) else tuple(head), tuple(body), span=self.span_from(start))

    def parse_weak_constraint(self, start: Token) -> WeakConstraint:
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

    def parse_disjunction(self) -> list[ClassicalAtom]:
        atoms = [self.parse_classical_atom()]
        while self.accept(TokenKind.OR):
            atoms.append(self.parse_classical_atom())
        return atoms

    def parse_choice_atom(self) -> ChoiceAtom:
        left_guard = None
        if not self.at(TokenKind.CURLY_OPEN):
            term = self.parse_term()
            relation = self.parse_relation()
            left_guard = Guard(term, relation)
        self.expect(TokenKind.CURLY_OPEN, "'{'")
        elements: list[ChoiceElement] = []
        if not self.at(TokenKind.CURLY_CLOSE):
            elements.append(self.parse_choice_element())
            while self.accept(TokenKind.SEMICOLON):
                elements.append(self.parse_choice_element())
        self.expect(TokenKind.CURLY_CLOSE, "'}'")
        right_guard = None
        if self.peek().kind in _RELATION_TOKENS:
            relation = self.parse_relation()
            right_guard = Guard(self.parse_term(), relation)
        return ChoiceAtom(tuple(elements), left_guard, right_guard)

    def parse_choice_element(self) -> ChoiceElement:
        atom = self.parse_classical_atom()
        condition: list[NafLiteral] = []
        if self.accept(TokenKind.COLON):
            condition = self.parse_optional_naf_literals()
        return ChoiceElement(atom, tuple(condition))

    # -- bodies --------------------------------------------------------------

    def parse_optional_body(self) -> list[BodyLiteral]:
        if self.at(TokenKind.DOT):
            return []
        literals = [self.parse_body_literal()]
        while self.accept(TokenKind.COMMA):
            literals.append(self.parse_body_literal())
        return literals

    def parse_body_literal(self) -> BodyLiteral:
        naf = self.accept(TokenKind.NAF) is not None
        start = self.peek()
        aggregate = self.attempt(self.parse_aggregate_atom)
        if aggregate is not None:
            if aggregate.left_guard is None and aggregate.right_guard is None:
                raise ParseError("aggregate atom requires at least one guard", start.span)
            return AggregateLiteral(aggregate, naf)
        if naf:
            return NafLiteral(self.parse_classical_atom(), naf=True)
        builtin = self.attempt(self.parse_builtin_atom)
        if builtin is not None:
            return NafLiteral(builtin)
        return NafLiteral(self.parse_classical_atom())

    def parse_optional_naf_literals(self) -> list[NafLiteral]:
        # Used where the grammar allows the literal list to be empty (after a
        # ':' in aggregate and choice elements); the follow set decides.
        if self.peek().kind in (
            TokenKind.CURLY_CLOSE,
            TokenKind.SEMICOLON,
            TokenKind.COMMA,
        ):
            if self.at(TokenKind.COMMA):
                self.fail("expected literal")
            return []
        literals = [self.parse_naf_literal()]
        while self.accept(TokenKind.COMMA):
            literals.append(self.parse_naf_literal())
        return literals

    def parse_naf_literal(self) -> NafLiteral:
        if self.accept(TokenKind.NAF):
            return NafLiteral(self.parse_classical_atom(), naf=True)
        builtin = self.attempt(self.parse_builtin_atom)
        if builtin is not None:
            return NafLiteral(builtin)
        return NafLiteral(self.parse_classical_atom())

    def parse_builtin_atom(self) -> BuiltinAtom:
        left = self.parse_term()
        relation = self.parse_relation()
        right = self.parse_term()
        return BuiltinAtom(left, relation, right)

    def parse_relation(self) -> Relation:
        kind = self.peek().kind
        if kind in _RELATION_TOKENS:
            self.advance()
            return _RELATION_TOKENS[kind]
        self.fail("expected comparison operator")

    def parse_classical_atom(self) -> ClassicalAtom:
        strong_negation = self.accept(TokenKind.MINUS) is not None
        name = self.expect(TokenKind.ID, "predicate name")
        args: list[Term] = []
        if self.accept(TokenKind.PAREN_OPEN):
            if not self.at(TokenKind.PAREN_CLOSE):
                args.append(self.parse_term())
                while self.accept(TokenKind.COMMA):
                    args.append(self.parse_term())
            self.expect(TokenKind.PAREN_CLOSE, "')'")
        return ClassicalAtom(name.text, tuple(args), strong_negation)

    # -- aggregates ------------------------------------------------------------

    def parse_aggregate_atom(self) -> AggregateAtom:
        left_guard = None
        if self.peek().kind not in _AGGREGATE_TOKENS:
            term = self.parse_term()
            relation = self.parse_relation()
            left_guard = Guard(term, relation)
        kind = self.peek().kind
        if kind not in _AGGREGATE_TOKENS:
            self.fail("expected aggregate function")
        function = _AGGREGATE_TOKENS[kind]
        self.advance()
        self.expect(TokenKind.CURLY_OPEN, "'{'")
        elements: list[AggregateElement] = []
        if not self.at(TokenKind.CURLY_CLOSE):
            elements.append(self.parse_aggregate_element())
            while self.accept(TokenKind.SEMICOLON):
                elements.append(self.parse_aggregate_element())
        self.expect(TokenKind.CURLY_CLOSE, "'}'")
        right_guard = None
        if self.peek().kind in _RELATION_TOKENS:
            relation = self.parse_relation()
            right_guard = Guard(self.parse_term(), relation)
        return AggregateAtom(function, tuple(elements), left_guard, right_guard)

    def parse_aggregate_element(self) -> AggregateElement:
        terms: list[Term] = []
        if self._at_basic_term():
            terms.append(self.parse_basic_term())
            while self.accept(TokenKind.COMMA):
                terms.append(self.parse_basic_term())
        explicit_colon = False
        condition: list[NafLiteral] = []
        if self.accept(TokenKind.COLON):
            explicit_colon = True
            condition = self.parse_optional_naf_literals()
        return AggregateElement(tuple(terms), tuple(condition), explicit_colon and not condition)

    def _at_basic_term(self) -> bool:
        kind = self.peek().kind
        return kind in (
            TokenKind.ID,
            TokenKind.STRING,
            TokenKind.NUMBER,
            TokenKind.MINUS,
            TokenKind.VARIABLE,
            TokenKind.ANONYMOUS_VARIABLE,
        )

    def parse_basic_term(self) -> Term:
        # Element terms are restricted to constants and variables; functional
        # and arithmetic terms are not in the element-term grammar.
        token = self.advance()
        if token.kind is TokenKind.ID:
            return SymbolicConstant(token.text)
        if token.kind is TokenKind.STRING:
            return StringConstant(token.text[1:-1])
        if token.kind is TokenKind.NUMBER:
            return IntegerConstant(int(token.text))
        if token.kind is TokenKind.MINUS:
            number = self.expect(TokenKind.NUMBER, "number")
            return IntegerConstant(-int(number.text))
        if token.kind is TokenKind.VARIABLE:
            return Variable(token.text)
        if token.kind is TokenKind.ANONYMOUS_VARIABLE:
            return AnonymousVariable()
        self.pos -= 1
        self.fail("expected term")

    # -- terms -------------------------------------------------------------------

    def parse_term(self) -> Term:
        term = self.parse_multiplicative()
        while True:
            if self.accept(TokenKind.PLUS):
                term = ArithmeticTerm(ArithOp.ADD, (term, self.parse_multiplicative()))
            elif self.accept(TokenKind.MINUS):
                term = ArithmeticTerm(ArithOp.SUB, (term, self.parse_multiplicative()))
            else:
                return term

    def parse_multiplicative(self) -> Term:
        term = self.parse_unary()
        while True:
            if self.accept(TokenKind.TIMES):
                term = ArithmeticTerm(ArithOp.MUL, (term, self.parse_unary()))
            elif self.accept(TokenKind.DIV):
                term = ArithmeticTerm(ArithOp.DIV, (term, self.parse_unary()))
            else:
                return term

    def parse_unary(self) -> Term:
        if self.accept(TokenKind.MINUS):
            return ArithmeticTerm(ArithOp.NEG, (self.parse_unary(),))
        return self.parse_primary()

    def parse_primary(self) -> Term:
        token = self.peek()
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return IntegerConstant(int(token.text))
        if token.kind is TokenKind.STRING:
            self.advance()
            return StringConstant(token.text[1:-1])
        if token.kind is TokenKind.VARIABLE:
            self.advance()
            return Variable(token.text)
        if token.kind is TokenKind.ANONYMOUS_VARIABLE:
            self.advance()
            return AnonymousVariable()
        if token.kind is TokenKind.ID:
            self.advance()
            if self.accept(TokenKind.PAREN_OPEN):
                args: list[Term] = []
                if not self.at(TokenKind.PAREN_CLOSE):
                    args.append(self.parse_term())
                    while self.accept(TokenKind.COMMA):
                        args.append(self.parse_term())
                self.expect(TokenKind.PAREN_CLOSE, "')'")
                if args:
                    return FunctionalTerm(token.text, tuple(args))
                # f() collapses to the plain constant f.
                return SymbolicConstant(token.text)
            return SymbolicConstant(token.text)
        if token.kind is TokenKind.PAREN_OPEN:
            self.advance()
            term = self.parse_term()
            self.expect(TokenKind.PAREN_CLOSE, "')'")
            return term
        self.fail("expected term")


def oracle_parse(tokens: list[Token]) -> Program:
    """The program the backtracking parser reads from `tokens` (ending in
    EOF), or its ParseError."""
    return _BacktrackingParser(tokens).parse_program()
