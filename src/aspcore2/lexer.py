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

The token stream is columnar: `Tokens` holds five parallel lists, the kind,
text, offset, line and column of each lexeme. The lexer appends only enum
members, strings and integers to them, which the cyclic garbage collector
does not track, so lexing a large text allocates no tracked object per token
and sets off no collection. A `Token` with its `Span` is built only when the
stream is indexed or iterated; the parser reads the columns directly.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterator, Sequence
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

    # Members are singletons, equal only to themselves, so the identity hash
    # agrees with equality; `Enum.__hash__` hashes the name in Python, and
    # the parser looks kinds up in dicts and sets on every term.
    __hash__ = object.__hash__


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

# Per group name: its kind, whether it is trivia, and whether its lexeme may
# span lines, so that the loop reads all three from one lookup.
_GROUPS = {
    kind.name: (kind, kind in TRIVIA, kind in TRIVIA or kind is TokenKind.STRING)
    for kind in TokenKind
}


def _diagnose(text: str, pos: int) -> str:
    ch = text[pos]
    if ch == '"':
        return "unterminated or malformed string literal"
    if text.startswith("%*", pos):
        return "unterminated multi-line comment"
    return f"unexpected character {ch!r}"


class Tokens:
    """A columnar token stream: five parallel lists, one entry per token.

    Indexing and iteration build each `Token` on demand; a slice is a
    `list[Token]`. A stream compares equal to any sequence of equal tokens.
    """

    __slots__ = ("kinds", "texts", "offsets", "lines", "columns")

    def __init__(
        self,
        kinds: list[TokenKind],
        texts: list[str],
        offsets: list[int],
        lines: list[int],
        columns: list[int],
    ):
        self.kinds = kinds
        self.texts = texts
        self.offsets = offsets
        self.lines = lines
        self.columns = columns

    def span(self, index: int) -> Span:
        """Where token `index` starts; a token is as long as its text."""
        return Span(self.offsets[index], len(self.texts[index]), self.lines[index], self.columns[index])

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self.kinds)))]
        return Token(self.kinds[index], self.texts[index], self.span(index))

    def __iter__(self) -> Iterator[Token]:
        for kind, text, offset, line, column in zip(
            self.kinds, self.texts, self.offsets, self.lines, self.columns
        ):
            yield Token(kind, text, Span(offset, len(text), line, column))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Tokens):
            return (
                self.kinds == other.kinds
                and self.texts == other.texts
                and self.offsets == other.offsets
                and self.lines == other.lines
                and self.columns == other.columns
            )
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Tokens({list(self)!r})"


def _lex(text: str, keep_trivia: bool) -> Tokens:
    kinds: list[TokenKind] = []
    texts: list[str] = []
    offsets: list[int] = []
    lines: list[int] = []
    columns: list[int] = []
    add_kind, add_text, add_offset, add_line, add_column = (
        kinds.append, texts.append, offsets.append, lines.append, columns.append
    )
    match = _MASTER.match
    groups = _GROUPS
    naf = TokenKind.NAF
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of the current line
    n = len(text)
    while pos < n:
        m = match(text, pos)
        if m is None:
            raise LexError(_diagnose(text, pos), Span(pos, 1, line, pos - line_start + 1))
        kind, trivia, multi_line = groups[m.lastgroup]
        end = m.end()
        if keep_trivia or not trivia:
            lexeme = m.group()
            add_kind(naf if lexeme == "not" else kind)  # only the ID pattern matches `not`
            add_text(lexeme)
            add_offset(pos)
            add_line(line)
            add_column(pos - line_start + 1)
        if multi_line:
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, end) + 1
        pos = end
    add_kind(TokenKind.EOF)
    add_text("")
    add_offset(pos)
    add_line(line)
    add_column(pos - line_start + 1)
    return Tokens(kinds, texts, offsets, lines, columns)


def scan(text: str) -> Tokens:
    """All lexemes including comment/blank trivia, in source order."""
    return _lex(text, True)


def tokenize(text: str) -> Tokens:
    """Significant tokens only (trivia removed), ending with an EOF marker."""
    return _lex(text, False)
