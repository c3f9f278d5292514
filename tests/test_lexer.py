"""Lexer: one golden check per lexical table row, longest-match rules,
trivia handling, error positions, the value semantics of tokens and spans,
and a differential test against the lexical table run literally."""

import random

import pytest

from aspcore2.errors import LexError
from aspcore2.lexer import TRIVIA, Token, TokenKind, scan, tokenize
from aspcore2.syntax import Span
from generators import random_nonground_program_text
from grammar_corpus import ACCEPT, REJECT
from oracles import oracle_scan


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


def single(text, kind):
    tokens = tokenize(text)
    assert len(tokens) == 2, tokens
    assert tokens[0].kind is kind
    assert tokens[0].text == text


# one row of the lexical table per case
TABLE = [
    ("p", TokenKind.ID),
    ("aB_9", TokenKind.ID),
    ("X", TokenKind.VARIABLE),
    ("Var_1", TokenKind.VARIABLE),
    ('"hello"', TokenKind.STRING),
    ('"a \\"quoted\\" part"', TokenKind.STRING),
    ('"a\\b"', TokenKind.STRING),
    ('"a\\\\"', TokenKind.STRING),
    ('"a\\"b"', TokenKind.STRING),
    ("0", TokenKind.NUMBER),
    ("42", TokenKind.NUMBER),
    ("_", TokenKind.ANONYMOUS_VARIABLE),
    (".", TokenKind.DOT),
    (",", TokenKind.COMMA),
    ("?", TokenKind.QUERY_MARK),
    (":", TokenKind.COLON),
    (";", TokenKind.SEMICOLON),
    ("|", TokenKind.OR),
    ("not", TokenKind.NAF),
    (":-", TokenKind.CONS),
    (":~", TokenKind.WCONS),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.TIMES),
    ("/", TokenKind.DIV),
    ("@", TokenKind.AT),
    ("(", TokenKind.PAREN_OPEN),
    (")", TokenKind.PAREN_CLOSE),
    ("[", TokenKind.SQUARE_OPEN),
    ("]", TokenKind.SQUARE_CLOSE),
    ("{", TokenKind.CURLY_OPEN),
    ("}", TokenKind.CURLY_CLOSE),
    ("=", TokenKind.EQUAL),
    ("<>", TokenKind.UNEQUAL),
    ("!=", TokenKind.UNEQUAL),
    ("<", TokenKind.LESS),
    (">", TokenKind.GREATER),
    ("<=", TokenKind.LESS_OR_EQ),
    (">=", TokenKind.GREATER_OR_EQ),
    ("#count", TokenKind.AGGREGATE_COUNT),
    ("#max", TokenKind.AGGREGATE_MAX),
    ("#min", TokenKind.AGGREGATE_MIN),
    ("#sum", TokenKind.AGGREGATE_SUM),
]


@pytest.mark.parametrize("text,kind", TABLE, ids=[k.name + "_" + t for t, k in TABLE])
def test_table_row(text, kind):
    single(text, kind)


def test_keyword_beats_identifier_on_equal_length():
    assert kinds("not") == [TokenKind.NAF]


def test_longer_identifier_beats_keyword():
    assert kinds("nota") == [TokenKind.ID]
    assert kinds("not a") == [TokenKind.NAF, TokenKind.ID]


def test_two_char_operators_win_over_prefixes():
    assert kinds(":-") == [TokenKind.CONS]
    assert kinds(": -") == [TokenKind.COLON, TokenKind.MINUS]
    assert kinds("<=") == [TokenKind.LESS_OR_EQ]
    assert kinds("< =") == [TokenKind.LESS, TokenKind.EQUAL]


def test_number_has_no_leading_zeros():
    # 007 lexes as three numbers, not one
    assert [t.text for t in tokenize("007")][:-1] == ["0", "0", "7"]


def test_negative_number_is_two_tokens():
    assert kinds("-3") == [TokenKind.MINUS, TokenKind.NUMBER]


def test_comment_runs_to_end_of_line():
    tokens = tokenize("p. % trailing words :- ?\nq.")
    assert [t.text for t in tokens][:-1] == ["p", ".", "q", "."]


def test_multiline_comment():
    tokens = tokenize("p. %* spans\nlines *% q.")
    assert [t.text for t in tokens][:-1] == ["p", ".", "q", "."]


def test_comment_at_end_of_input_without_newline():
    assert kinds("p. % tail") == [TokenKind.ID, TokenKind.DOT]


def test_scan_preserves_input_exactly():
    text = 'p(X, "s") :- q. % c\n%* m *% r.'
    assert "".join(t.text for t in scan(text)) == text


def test_tokenize_drops_trivia_and_ends_with_eof():
    tokens = tokenize("  p  .  ")
    assert tokens[-1].kind is TokenKind.EOF
    assert [t.kind for t in tokens[:-1]] == [TokenKind.ID, TokenKind.DOT]


def test_positions_are_line_and_column():
    tokens = tokenize("p.\n  q.")
    q = tokens[2]
    assert q.text == "q"
    assert (q.span.line, q.span.column) == (2, 3)


def test_unexpected_character_raises_with_position():
    with pytest.raises(LexError) as err:
        tokenize("p :- $.")
    assert err.value.span.line == 1
    assert err.value.span.column == 6


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('p("abc).')


def test_unterminated_multiline_comment_raises():
    with pytest.raises(LexError):
        tokenize("p. %* never closed")


def test_string_keeps_escaped_quote():
    tokens = tokenize('"a\\"b"')
    assert tokens[0].text == '"a\\"b"'


# --------------------------------------------------------------------------
# Tokens and spans are values


def test_token_and_span_are_equal_and_hash_by_value():
    a = Token(TokenKind.ID, "p", Span(3, 1, 2, 1))
    b = Token(TokenKind.ID, "p", Span(3, 1, 2, 1))
    assert a == b and hash(a) == hash(b)
    assert a.span == b.span and hash(a.span) == hash(b.span)
    assert a != Token(TokenKind.ID, "p", Span(3, 1, 2, 2))
    assert Span(3, 1, 2, 1).describe() == "2:1"


@pytest.mark.parametrize("value,field", [
    (Span(0, 1, 1, 1), "line"),
    (Token(TokenKind.DOT, ".", Span(0, 1, 1, 1)), "text"),
])
def test_token_and_span_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)


# --------------------------------------------------------------------------
# Differential test against tests/oracles.py: same lexemes, same errors

# Pieces of the random strings: every fixed lexeme, the prefixes and
# near-misses of the longest-match rules, the comment and string delimiters,
# whole strings and comments (some across lines), blanks, and one illegal
# character.
_PIECES = [
    "%", "%*", "*%", "%* c *%", "%*\n*%", '"', '"s"', '"a\\"b"', '"\n"', "\\",
    "not", "nota", "not_", "<>", "<=", "<", ">=", ">", "!=", "!", "0", "007",
    "12", "\t", "\n", " ", "  ", "$", "p", "aB_9", "X", "Var", "_", "_x", ".",
    ",", "?", ":", ":-", ":~", ";", "|", "+", "-", "*", "/", "@", "(", ")", "[",
    "]", "{", "}", "=", "#count", "#max", "#min", "#sum", "#", "#co",
]


def _random_strings(count, seed=5):
    rng = random.Random(seed)
    return ["".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 12))) for _ in range(count)]


def _outcome(lex, text):
    try:
        return "ok", lex(text)
    except LexError as error:
        return "error", (error.message, error.span)


# Backslashes that do not escape a quote, which the table's STRING row
# admits. They stay out of grammar_corpus.ACCEPT because perfbench joins that
# corpus into one text, where `"a\\"` would run on to the next quote.
BACKSLASH_STRINGS = ['p("a\\b").', 'p("a\\\\").', 'p("a\\"b").']


def _differential_sources():
    rng = random.Random(17)
    check_10 = [random_nonground_program_text(rng) for _ in range(100)]
    return (
        [s for s, _ in ACCEPT]
        + BACKSLASH_STRINGS
        + [s for s, _ in REJECT]
        + check_10
        + _random_strings(5000)
    )


def test_scan_agrees_with_the_lexical_table():
    accepted = rejected = 0
    for text in _differential_sources():
        outcome, result = _outcome(scan, text)
        assert (outcome, result) == _outcome(oracle_scan, text), repr(text)
        if outcome == "error":
            rejected += 1
            assert _outcome(tokenize, text) == (outcome, result)
            continue
        accepted += 1
        assert "".join(t.text for t in result) == text
        assert tokenize(text) == [t for t in result if t.kind not in TRIVIA]
    # the random strings reach both outcomes often
    assert accepted > 1500 and rejected > 1500, (accepted, rejected)
