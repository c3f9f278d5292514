"""Tokenizer for ASP-Core-2 source text.

The language's lexical table is a list of regular expressions resolved by
longest match, where on equal length a fixed lexeme (keyword or punctuation)
beats an identifier class. Here the whole table is one compiled master regex
with a named group per token kind, matched once per lexeme at the current
position; the name of the group that matched (`m.lastgroup`) is the kind.

The master regex realises the table's resolution rules as follows. The
alternation takes the first alternative that matches, not the longest, so
it resolves longest match only because no two alternatives can match at one
position, with three kinds of exception:
- `not` is both a fixed lexeme and an identifier. It is lexed by the ID
  pattern and re-kinded to NAF when the whole lexeme is `not`, so `nota`
  stays an ID: keyword over identifier on equal length, identifier on a
  longer match.
- Fixed lexemes that share a prefix (`:` `:-` `:~`, `<` `<=` `<>`, `>`
  `>=`) are listed longest first, so the longer one is tried first.
- The two comment forms share `%`, but a line comment cannot begin with
  `%*`, so at most one of them matches.

Comments and blanks are trivia. `scan` keeps them, so that the concatenation
of all lexemes reproduces the input byte for byte; `tokenize` drops them
without building a token for them.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from .errors import LexError
from .syntax import Span


class TokenKind(enum.Enum):
    ID = enum.auto()
    VARIABLE = enum.auto()
    STRING = enum.auto()
    NUMBER = enum.auto()
    ANONYMOUS_VARIABLE = enum.auto()
    DOT = enum.auto()
    COMMA = enum.auto()
    QUERY_MARK = enum.auto()
    COLON = enum.auto()
    SEMICOLON = enum.auto()
    OR = enum.auto()
    NAF = enum.auto()
    CONS = enum.auto()
    WCONS = enum.auto()
    PLUS = enum.auto()
    MINUS = enum.auto()
    TIMES = enum.auto()
    DIV = enum.auto()
    AT = enum.auto()
    PAREN_OPEN = enum.auto()
    PAREN_CLOSE = enum.auto()
    SQUARE_OPEN = enum.auto()
    SQUARE_CLOSE = enum.auto()
    CURLY_OPEN = enum.auto()
    CURLY_CLOSE = enum.auto()
    EQUAL = enum.auto()
    UNEQUAL = enum.auto()
    LESS = enum.auto()
    GREATER = enum.auto()
    LESS_OR_EQ = enum.auto()
    GREATER_OR_EQ = enum.auto()
    AGGREGATE_COUNT = enum.auto()
    AGGREGATE_MAX = enum.auto()
    AGGREGATE_MIN = enum.auto()
    AGGREGATE_SUM = enum.auto()
    COMMENT = enum.auto()
    MULTI_LINE_COMMENT = enum.auto()
    BLANK = enum.auto()
    EOF = enum.auto()


TRIVIA = frozenset({TokenKind.COMMENT, TokenKind.MULTI_LINE_COMMENT, TokenKind.BLANK})


class Token(NamedTuple):
    """One lexeme: its kind, its exact source text and where it starts.

    An immutable tuple, equal and hashed by value.
    """

    kind: TokenKind
    text: str
    span: Span


# Character classes of the lexical table, and the fixed lexemes, grouped by
# kind. Blanks and identifiers come first because they are the most common
# lexemes; the order matters only among the fixed lexemes.
_CLASS_PATTERNS = (
    (TokenKind.BLANK, r"[ \t\n]+"),
    (TokenKind.ID, r"[a-z][A-Za-z0-9_]*"),
    (TokenKind.VARIABLE, r"[A-Z][A-Za-z0-9_]*"),
    (TokenKind.NUMBER, r"0|[1-9][0-9]*"),
    # The table's `"([^"]|\")*"`, with the escaped quote tried first so that
    # the match is the longest one.
    (TokenKind.STRING, r'"(?:\\"|[^"])*"'),
    # A line comment runs to the newline; one at end of input is accepted too.
    (TokenKind.COMMENT, r"%(?:[^*\n][^\n]*)?(?:\n|\Z)"),
    (TokenKind.MULTI_LINE_COMMENT, r"%\*(?:[^*]|\*[^%])*\*%"),
)

# `not` is missing on purpose: it is lexed as an ID and re-kinded.
_FIXED_LEXEMES = (
    (TokenKind.AGGREGATE_COUNT, ("#count",)),
    (TokenKind.AGGREGATE_MAX, ("#max",)),
    (TokenKind.AGGREGATE_MIN, ("#min",)),
    (TokenKind.AGGREGATE_SUM, ("#sum",)),
    (TokenKind.CONS, (":-",)),
    (TokenKind.WCONS, (":~",)),
    (TokenKind.UNEQUAL, ("<>", "!=")),
    (TokenKind.LESS_OR_EQ, ("<=",)),
    (TokenKind.GREATER_OR_EQ, (">=",)),
    (TokenKind.PAREN_OPEN, ("(",)),
    (TokenKind.PAREN_CLOSE, (")",)),
    (TokenKind.COMMA, (",",)),
    (TokenKind.DOT, (".",)),
    (TokenKind.ANONYMOUS_VARIABLE, ("_",)),
    (TokenKind.QUERY_MARK, ("?",)),
    (TokenKind.COLON, (":",)),
    (TokenKind.SEMICOLON, (";",)),
    (TokenKind.OR, ("|",)),
    (TokenKind.PLUS, ("+",)),
    (TokenKind.MINUS, ("-",)),
    (TokenKind.TIMES, ("*",)),
    (TokenKind.DIV, ("/",)),
    (TokenKind.AT, ("@",)),
    (TokenKind.SQUARE_OPEN, ("[",)),
    (TokenKind.SQUARE_CLOSE, ("]",)),
    (TokenKind.CURLY_OPEN, ("{",)),
    (TokenKind.CURLY_CLOSE, ("}",)),
    (TokenKind.EQUAL, ("=",)),
    (TokenKind.LESS, ("<",)),
    (TokenKind.GREATER, (">",)),
)

_MASTER = re.compile(
    "|".join(
        [f"(?P<{kind.name}>{pattern})" for kind, pattern in _CLASS_PATTERNS]
        + [
            f"(?P<{kind.name}>{'|'.join(map(re.escape, lexemes))})"
            for kind, lexemes in _FIXED_LEXEMES
        ]
    )
)

_KIND_OF_GROUP = {kind.name: kind for kind in TokenKind}

# Kinds whose lexeme may span lines.
_MULTI_LINE = TRIVIA | {TokenKind.STRING}


def _diagnose(text: str, pos: int) -> str:
    ch = text[pos]
    if ch == '"':
        return "unterminated or malformed string literal"
    if text.startswith("%*", pos):
        return "unterminated multi-line comment"
    return f"unexpected character {ch!r}"


def _lex(text: str, keep_trivia: bool) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    # `_make` builds the tuple directly, at about half the cost of a call
    # to the class, whose `__new__` is written in Python.
    make_token = Token._make
    make_span = Span._make
    kind_of_group = _KIND_OF_GROUP
    trivia = TRIVIA
    multi_line = _MULTI_LINE
    ident = TokenKind.ID
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of the current line
    n = len(text)
    while pos < n:
        m = match(text, pos)
        if m is None:
            raise LexError(_diagnose(text, pos), Span(pos, 1, line, pos - line_start + 1))
        kind = kind_of_group[m.lastgroup]
        end = m.end()
        if keep_trivia or kind not in trivia:
            lexeme = m.group()
            if kind is ident and lexeme == "not":
                kind = TokenKind.NAF
            span = make_span((pos, end - pos, line, pos - line_start + 1))
            append(make_token((kind, lexeme, span)))
        if kind in multi_line:
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, end) + 1
        pos = end
    append(Token(TokenKind.EOF, "", Span(pos, 0, line, pos - line_start + 1)))
    return tokens


def scan(text: str) -> list[Token]:
    """All lexemes including comment/blank trivia, in source order."""
    return _lex(text, True)


def tokenize(text: str) -> list[Token]:
    """Significant tokens only (trivia removed), ending with an EOF marker."""
    return _lex(text, False)
