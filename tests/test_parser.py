"""Parser: corpus acceptance/rejection, round-trip stability, AST shape
spot checks, and agreement with the backtracking parser."""

import dataclasses
import random

import pytest

from generators import random_ground_program, random_nonground_program_text
from grammar_corpus import ACCEPT, REJECT
from parser_oracle import oracle_parse

from aspcore2.errors import AspCoreError, LexError, ParseError
from aspcore2.lexer import Token, Tokens, tokenize
from aspcore2.parser import _Parser, parse_program, parse_rule
from aspcore2.syntax import (
    AggregateAtom,
    AggregateElement,
    AggregateFunction,
    AggregateLiteral,
    ArithOp,
    ArithmeticTerm,
    BuiltinAtom,
    ChoiceAtom,
    ChoiceElement,
    ClassicalAtom,
    FunctionalTerm,
    Guard,
    IntegerConstant,
    NafLiteral,
    Query,
    Relation,
    Rule,
    Span,
    StringConstant,
    SymbolicConstant,
    Variable,
    WeakConstraint,
    body_literal_to_text,
    classical_atom_to_text,
    rule_to_text,
    statement_to_text,
    weak_constraint_to_text,
)


def program_text(program):
    return "\n".join(statement_to_text(s) for s in program.statements())


@pytest.mark.parametrize(
    "source,note", ACCEPT, ids=[note.replace(" ", "-") for _, note in ACCEPT]
)
def test_accepts(source, note):
    parse_program(source)


@pytest.mark.parametrize(
    "source,note", REJECT, ids=[note.replace(" ", "-") for _, note in REJECT]
)
def test_rejects(source, note):
    with pytest.raises((LexError, ParseError)):
        parse_program(source)


@pytest.mark.parametrize(
    "source,note", ACCEPT, ids=[note.replace(" ", "-") for _, note in ACCEPT]
)
def test_round_trip_fixed_point(source, note):
    canonical = program_text(parse_program(source))
    again = program_text(parse_program(canonical))
    assert again == canonical


def test_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_program("p(1)) .")
    assert err.value.span is not None
    assert err.value.format("in.asp").startswith("in.asp:1:")


# Each rejected source's error: the first token at which the production
# being read cannot go on. Every `REJECT` entry is pinned here.
ERRORS = [
    ("a", "1:2: expected '.', found end of input"),
    ("a :-", "1:5: expected predicate name, found end of input"),
    ("a | .", "1:5: expected predicate name, found '.'"),
    ("p(.", "1:3: expected term, found '.'"),
    ("p(1)) .", "1:5: expected '.', found ')'"),
    ("a :- b | c.", "1:8: expected '.', found '|'"),
    ("{a} | b.", "1:5: expected '.', found '|'"),
    (":~ a.", "1:6: expected '[', found end of input"),
    ("a? b.", "1:4: expected end of input after query, found 'b'"),
    ("a? b?", "1:4: expected end of input after query, found 'b'"),
    ("a :- #count{f(1) : b} > 0.", "1:14: expected '}', found '('"),
    ("a :- #count{X+1 : b} > 0.", "1:14: expected '}', found '+'"),
    ("not.", "1:1: expected predicate name, found 'not'"),
    ("p(1贝).", "1:4: unexpected character '贝'"),
    ('p("unclosed).', "1:3: unterminated or malformed string literal"),
    ("p. %* open", "1:4: unterminated multi-line comment"),
    ("007.", "1:2: expected comparison operator, found '0'"),
    ("a :- 1 =.", "1:9: expected term, found '.'"),
    ("[1@1]", "1:1: expected predicate name, found '['"),
    ("a :- {b}.", "1:6: expected predicate name, found '{'"),
    ("a :- not 1 = 2.", "1:14: expected aggregate function, found '2'"),
    ("a :- not not b.", "1:10: expected predicate name, found 'not'"),
    # a fault inside a builtin or an aggregate is reported where it is, not
    # as a classical atom at the literal's start
    ("a :- X < 1 + .", "1:14: expected term, found '.'"),
    ("a :- #count{X : p(X) } > .", "1:26: expected term, found '.'"),
    ("a :- #count{X : p(X)} >= .", "1:26: expected term, found '.'"),
    ("1 < {a} <.", "1:10: expected term, found '.'"),
    ("a :- b, 1 < #count{X : p(X)", "1:28: expected '}', found end of input"),
]


@pytest.mark.parametrize("source,error", ERRORS, ids=[source for source, _ in ERRORS])
def test_errors_name_the_token_that_breaks_the_production(source, error):
    with pytest.raises((LexError, ParseError)) as err:
        parse_program(source)
    assert err.value.format("in.asp") == f"in.asp:{error}"


def test_every_rejected_corpus_entry_has_its_error_pinned():
    assert {source for source, _ in REJECT} <= {source for source, _ in ERRORS}


def first_rule(text) -> Rule:
    return parse_program(text).rules[0]


def test_precedence_multiplication_binds_tighter():
    rule = first_rule("p(1+2*3).")
    term = rule.head[0].args[0]
    assert term.op is ArithOp.ADD
    assert term.args[1].op is ArithOp.MUL


def test_parentheses_override_precedence():
    rule = first_rule("p((1+2)*3).")
    term = rule.head[0].args[0]
    assert term.op is ArithOp.MUL
    assert term.args[0].op is ArithOp.ADD


def test_arithmetic_is_left_associative():
    rule = first_rule("p(1-2-3).")
    term = rule.head[0].args[0]
    assert term.op is ArithOp.SUB
    assert term.args[0].op is ArithOp.SUB
    assert term.args[1] == IntegerConstant(3)


def test_unary_minus_nests():
    rule = first_rule("p(-f(1)).")
    term = rule.head[0].args[0]
    assert term.op is ArithOp.NEG
    assert isinstance(term.args[0], FunctionalTerm)


def test_strong_negation_flag():
    rule = first_rule("-p(1).")
    assert rule.head[0] == ClassicalAtom("p", (IntegerConstant(1),), True)


def test_naf_and_builtin_literals():
    rule = first_rule("a :- not b, X < f(Y).")
    naf, builtin = rule.body
    assert naf == NafLiteral(ClassicalAtom("b"), naf=True)
    assert isinstance(builtin.atom, BuiltinAtom)
    assert builtin.atom.relation is Relation.LT
    assert builtin.atom.left == Variable("X")


def test_aggregate_guards_and_elements():
    rule = first_rule('a :- 0 < #sum{1, a : b; 2 :} <= 5.')
    (literal,) = rule.body
    assert isinstance(literal, AggregateLiteral)
    atom = literal.atom
    assert atom.left_guard.relation is Relation.LT
    assert atom.left_guard.term == IntegerConstant(0)
    assert atom.right_guard.relation is Relation.LE
    assert atom.right_guard.term == IntegerConstant(5)
    first, second = atom.elements
    assert first.terms == (IntegerConstant(1), SymbolicConstant("a"))
    assert first.condition == (NafLiteral(ClassicalAtom("b")),)
    assert second.terms == (IntegerConstant(2),)
    assert second.condition == ()


def test_choice_rule_shape():
    rule = first_rule("1 <= {p(X) : q(X); r} <= 2.")
    head = rule.head
    assert isinstance(head, ChoiceAtom)
    assert head.left_guard.relation is Relation.LE
    assert len(head.elements) == 2
    assert head.elements[0].atom == ClassicalAtom("p", (Variable("X"),))
    assert head.elements[0].condition == (NafLiteral(ClassicalAtom("q", (Variable("X"),))),)


def test_weak_constraint_fields():
    program = parse_program(':~ b, not c. [3@1,x,"s"]')
    (weak,) = program.weak_constraints
    assert weak.weight == IntegerConstant(3)
    assert weak.level == IntegerConstant(1)
    assert weak.terms == (SymbolicConstant("x"), StringConstant("s"))
    assert len(weak.body) == 2


def test_weak_constraint_level_defaults_to_zero():
    program = parse_program(":~ b. [3]")
    assert program.weak_constraints[0].level == IntegerConstant(0)


def test_query_is_stored_separately():
    program = parse_program("p(1). p(X)?")
    assert program.query is not None
    assert program.query.atom.predicate == "p"
    assert len(program.rules) == 1


def test_constraint_has_empty_head():
    rule = first_rule(":- a.")
    assert rule.head == ()
    assert rule.is_constraint()


def test_parse_rule_single_statement():
    rule = parse_rule("a :- b.")
    assert isinstance(rule, Rule)
    with pytest.raises(AspCoreError):
        parse_rule("a. b.")


def test_corpus_is_large_enough():
    assert len(ACCEPT) + len(REJECT) >= 60


# Shapes the grammar corpus lacks: a literal that starts like a classical
# atom but is a term, and a '-' before a number, which is always a term.
# They stay out of grammar_corpus.ACCEPT because perfbench joins that corpus
# into its frontend text.
def _minus(value):
    return ArithmeticTerm(ArithOp.NEG, (IntegerConstant(value),))


SHAPES = [
    (
        "c :- -2 = #max{1,b : -a}.",
        Rule(
            (ClassicalAtom("c"),),
            (
                AggregateLiteral(
                    AggregateAtom(
                        AggregateFunction.MAX,
                        (
                            AggregateElement(
                                (IntegerConstant(1), SymbolicConstant("b")),
                                (NafLiteral(ClassicalAtom("a", (), True)),),
                            ),
                        ),
                        Guard(_minus(2), Relation.EQ),
                    )
                ),
            ),
        ),
    ),
    (
        "b | g :- -2 < #min{: a, c} >= 1.",
        Rule(
            (ClassicalAtom("b"), ClassicalAtom("g")),
            (
                AggregateLiteral(
                    AggregateAtom(
                        AggregateFunction.MIN,
                        (
                            AggregateElement(
                                (),
                                (NafLiteral(ClassicalAtom("a")), NafLiteral(ClassicalAtom("c"))),
                            ),
                        ),
                        Guard(_minus(2), Relation.LT),
                        Guard(IntegerConstant(1), Relation.GE),
                    )
                ),
            ),
        ),
    ),
    (
        "a :- -p(1) + 2 < 3.",
        Rule(
            (ClassicalAtom("a"),),
            (
                NafLiteral(
                    BuiltinAtom(
                        ArithmeticTerm(
                            ArithOp.ADD,
                            (
                                ArithmeticTerm(
                                    ArithOp.NEG, (FunctionalTerm("p", (IntegerConstant(1),)),)
                                ),
                                IntegerConstant(2),
                            ),
                        ),
                        Relation.LT,
                        IntegerConstant(3),
                    )
                ),
            ),
        ),
    ),
    (
        "a :- q(X), p(X) * 2 = 4.",
        Rule(
            (ClassicalAtom("a"),),
            (
                NafLiteral(ClassicalAtom("q", (Variable("X"),))),
                NafLiteral(
                    BuiltinAtom(
                        ArithmeticTerm(
                            ArithOp.MUL,
                            (FunctionalTerm("p", (Variable("X"),)), IntegerConstant(2)),
                        ),
                        Relation.EQ,
                        IntegerConstant(4),
                    )
                ),
            ),
        ),
    ),
    (
        "1 < {a; b} :- c.",
        Rule(
            ChoiceAtom(
                (ChoiceElement(ClassicalAtom("a")), ChoiceElement(ClassicalAtom("b"))),
                Guard(IntegerConstant(1), Relation.LT),
            ),
            (NafLiteral(ClassicalAtom("c")),),
        ),
    ),
    (
        "-n + 2 < {a}.",
        Rule(
            ChoiceAtom(
                (ChoiceElement(ClassicalAtom("a")),),
                Guard(
                    ArithmeticTerm(
                        ArithOp.ADD,
                        (ArithmeticTerm(ArithOp.NEG, (SymbolicConstant("n"),)), IntegerConstant(2)),
                    ),
                    Relation.LT,
                ),
            )
        ),
    ),
    ("-p(1)?", Query(ClassicalAtom("p", (IntegerConstant(1),), True))),
]


@pytest.mark.parametrize("source,shape", SHAPES, ids=[source for source, _ in SHAPES])
def test_literal_shapes_outside_the_corpus(source, shape):
    (statement,) = parse_program(source).statements()
    assert statement == shape


def _outcome(parse, tokens):
    """The program and its statement spans, or the error's message and span."""
    try:
        program = parse(tokens)
    except ParseError as error:
        return error.message, error.span
    return program, [statement.span for statement in program.statements()]


def _indexed(tokens):
    """The stream `_Parser` reads and the token list, with each token's
    offset set to its index, so that an error's offset says which token it
    names (a mutation duplicates spans)."""
    tokens = [Token(t.kind, t.text, t.span._replace(offset=i)) for i, t in enumerate(tokens)]
    stream = Tokens(
        [t.kind for t in tokens],
        [t.text for t in tokens],
        [t.span.offset for t in tokens],
        [t.span.line for t in tokens],
        [t.span.column for t in tokens],
    )
    return stream, tokens


def _mutations(tokens, rng, count):
    """`count` copies of `tokens`, each with one token before EOF deleted,
    duplicated or swapped with another."""
    out = []
    for _ in range(count if len(tokens) > 1 else 0):
        mutated = tokens[:-1]
        i, j = rng.randrange(len(mutated)), rng.randrange(len(mutated))
        edit = rng.randrange(3)
        if edit == 0:
            del mutated[i]
        elif edit == 1:
            mutated.insert(i, mutated[i])
        else:
            mutated[i], mutated[j] = mutated[j], mutated[i]
        out.append(mutated + tokens[-1:])
    return out


def _parser_sources():
    rng = random.Random(17)
    check_10 = [random_nonground_program_text(rng) for _ in range(100)]
    rng = random.Random(29)
    nonground = [random_nonground_program_text(rng) for _ in range(500)]
    ground = []
    for _ in range(500):
        program = random_ground_program(rng, with_weaks=True)
        statements = program.rules + program.weak_constraints
        ground.append("\n".join(statement_to_text(s) for s in statements))
    return (
        [s for s, _ in ACCEPT]
        + [s for s, _ in REJECT]
        + [s for s, _ in SHAPES]
        + check_10
        + nonground
        + ground
    )


def test_parse_agrees_with_backtracking_oracle():
    """The parser accepts what the backtracking oracle accepts, with the same
    program and spans. It rejects the rest, naming a token no earlier than
    the oracle's: it reads one production where the oracle backtracks."""
    rng = random.Random(23)
    accepted = rejected = 0
    for source in _parser_sources():
        try:
            tokens = tokenize(source)
        except LexError:
            continue
        listed = list(tokens)
        variants = [(tokens, listed)] + [_indexed(m) for m in _mutations(listed, rng, 20)]
        for stream, variant in variants:
            ours = _outcome(lambda ts: _Parser(ts).parse_program(), stream)
            oracle = _outcome(oracle_parse, variant)
            text = " ".join(t.text for t in variant)
            assert isinstance(ours[0], str) == isinstance(oracle[0], str), text
            if isinstance(ours[0], str):
                assert ours[1].offset >= oracle[1].offset, (text, ours, oracle)
                rejected += 1
            else:
                assert ours == oracle, text
                accepted += 1
    # the mutations reach both outcomes often
    assert accepted > 3000 and rejected > 15000, (accepted, rejected)


# --------------------------------------------------------------------------
# Syntax nodes: equal and hashed by value, slotted, each rendered once


def test_equality_ignores_span_and_class():
    first = Rule((ClassicalAtom("p"),), span=Span(0, 2, 1, 1))
    second = Rule((ClassicalAtom("p"),), span=Span(7, 2, 2, 3))
    assert first == second and hash(first) == hash(second)
    assert Variable("X") != SymbolicConstant("X")
    assert IntegerConstant(1) != StringConstant("1")


def _nodes(value):
    """Every syntax node under `value`, parents before children."""
    if isinstance(value, tuple):
        for item in value:
            yield from _nodes(item)
    elif dataclasses.is_dataclass(value):
        yield value
        for field in dataclasses.fields(value):
            yield from _nodes(getattr(value, field.name))


def _twin_statements():
    """Pairs of equal statement tuples built apart: each grammar corpus
    source parsed twice, and each random program generated twice from one
    seed."""
    for source, _ in ACCEPT:
        yield parse_program(source).statements(), parse_program(source).statements()
    for seed in range(60):
        first, second = (
            parse_program(random_nonground_program_text(random.Random(seed))).statements()
            for _ in range(2)
        )
        yield first, second
        first, second = (
            random_ground_program(random.Random(seed), with_weaks=True) for _ in range(2)
        )
        yield first.rules + first.weak_constraints, second.rules + second.weak_constraints


def test_equal_nodes_hash_equal_and_have_no_dict():
    for first, second in _twin_statements():
        assert first == second
        for one, other in zip(_nodes(first), _nodes(second), strict=True):
            assert one == other and hash(one) == hash(other)
            assert not hasattr(one, "__dict__")


MEMOISED = {
    ClassicalAtom: classical_atom_to_text,
    NafLiteral: body_literal_to_text,
    AggregateLiteral: body_literal_to_text,
    Rule: rule_to_text,
    WeakConstraint: weak_constraint_to_text,
}


def test_memoised_text_equals_a_fresh_render():
    for first, second in _twin_statements():
        rendered = [statement_to_text(s) for s in first]
        assert [statement_to_text(s) for s in first] == rendered
        # children before parents, so each node of `second` is rendered from
        # itself rather than while rendering its parent
        pairs = list(zip(_nodes(first), _nodes(second), strict=True))
        for one, other in reversed(pairs):
            render = MEMOISED.get(type(one))
            if render is not None:
                assert render(one) == render(other)
