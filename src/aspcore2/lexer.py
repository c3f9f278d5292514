"""Tokenizer for ASP-Core-2 source text.

The language's lexical table is a list of regular expressions resolved by
longest match, where on equal length a fixed lexeme (keyword or punctuation)
beats an identifier class. Here the table is one compiled regex, and one
`findall` call cuts the whole text into its lexemes. No Python code runs per
lexeme after that; each column of the stream is built by whole-list passes:
a kind is looked up by the lexeme's text among the fixed lexemes, else by
its start (`%*`, or one character); offsets are prefix sums of the lexeme
lengths; the tokens of each line are counted by bisecting the offsets at
the line starts, and share one line-number object.

The alternation takes the first row that matches, not the longest, so it
resolves longest match only because no two rows can match at one position,
with three kinds of exception:
- `not` is both a fixed lexeme and an identifier. It is lexed by the ID
  pattern and kinded NAF when the whole lexeme is `not`, so `nota` stays an
  ID: keyword over identifier on equal length, identifier on a longer match.
- Fixed lexemes that share a prefix (`:` `:-` `:~`, `<` `<=` `<>`, `>`
  `>=`) are listed longest first, so the longer one is tried first.
- The two comment forms share `%`, but a line comment cannot begin with
  `%*`, so at most one of them matches.

`findall` skips a character at which no row matches and tries again at the
next, which would rescan the text after each such character. So the table's
rows form the regex's one group, and a catch-all after it takes the rest of
the text at the first position where no lexeme starts; `findall` reports
that match as an empty lexeme. Lexing stays linear, and only the last
lexeme can be an error.

Comments and blanks are trivia. `scan` keeps them, so that the concatenation
of all lexemes reproduces the input byte for byte; `tokenize` drops them by
their first character. `Tokens` holds five parallel lists, the kind, text,
offset, line and column of each lexeme: enum members, strings and integers,
which the cyclic garbage collector does not track, so lexing allocates no
tracked object per token and sets off no collection. A `Token` with its
`Span` is built only when the stream is indexed or iterated; the parser
reads the columns directly.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, compress, count, repeat
from operator import itemgetter, sub
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


# Character classes of the lexical table, with the characters their lexemes
# start with, and the fixed lexemes, grouped by kind. Blanks and identifiers
# come first because they are the most common lexemes; the order matters
# only among the fixed lexemes.
_CLASS_PATTERNS = (
    (TokenKind.BLANK, " \t\n", r"[ \t\n]+"),
    (TokenKind.ID, "abcdefghijklmnopqrstuvwxyz", r"[a-z][A-Za-z0-9_]*"),
    (TokenKind.VARIABLE, "ABCDEFGHIJKLMNOPQRSTUVWXYZ", r"[A-Z][A-Za-z0-9_]*"),
    (TokenKind.NUMBER, "0123456789", r"0|[1-9][0-9]*"),
    # The table's `"([^"]|\")*"`, with the escaped quote tried first so that
    # the match is the longest one.
    (TokenKind.STRING, '"', r'"(?:\\"|[^"])*"'),
    # A line comment runs to the newline; one at end of input is accepted too.
    (TokenKind.COMMENT, "%", r"%(?:[^*\n][^\n]*)?(?:\n|\Z)"),
    # One start of two characters, which a line comment cannot have.
    (TokenKind.MULTI_LINE_COMMENT, ("%*",), r"%\*(?:[^*]|\*[^%])*\*%"),
)

# `not` is missing on purpose: it is lexed as an ID and kinded by `_FIXED`.
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

# The table's rows in one group, then the catch-all (see the module docstring).
_MASTER = re.compile(
    "(" + "|".join([f"(?:{pattern})" for _kind, _starts, pattern in _CLASS_PATTERNS]
                   + [re.escape(lexeme) for _kind, lexemes in _FIXED_LEXEMES for lexeme in lexemes])
    + ")|(?s:.+)"
)

# The kind of a fixed lexeme, by its text, and of any other lexeme, by its
# start; and a byte table that maps the first character of trivia to 0.
_FIXED = {lexeme: kind for kind, lexemes in _FIXED_LEXEMES for lexeme in lexemes}
_FIXED["not"] = TokenKind.NAF
_STARTS = {start: kind for kind, starts, _pattern in _CLASS_PATTERNS for start in starts}
_TRIVIA_STARTS = {start[0] for start, kind in _STARTS.items() if kind in TRIVIA}
_SIGNIFICANT = bytes.maketrans("".join(_TRIVIA_STARTS).encode(), bytes(len(_TRIVIA_STARTS)))


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
    texts = _MASTER.findall(text)
    if texts and not texts[-1]:  # the catch-all matched: no lexeme starts here
        offset = sum(map(len, texts))
        span = Span(offset, 1, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))
        raise LexError(_diagnose(text, offset), span)
    firsts = "".join(map(itemgetter(0), texts))
    # One more offset than there are lexemes: the last is the EOF marker's.
    offsets = accumulate(map(len, texts), initial=0)
    if not keep_trivia:  # every lexeme starts with an ASCII character: one byte each
        keep = firsts.encode().translate(_SIGNIFICANT)
        texts = list(compress(texts, keep))
        firsts = compress(firsts, keep)
        offsets = compress(offsets, keep + b"\1")
    offsets = list(offsets)
    # Line n starts at offset bases[n - 1] + 1 (bases[-1] is the text's
    # length), runs[n - 1] tokens start on it, and `repeat` gives them one int.
    bases = list(accumulate(map((1).__add__, map(len, text.split("\n"))), initial=-1))
    heads = list(map(bisect_right, repeat(offsets), bases))
    runs = list(map(sub, heads[1:], heads))
    lines = list(chain.from_iterable(map(repeat, count(1), runs)))
    columns = list(map(sub, offsets, chain.from_iterable(map(repeat, bases, runs))))
    kinds = list(map(_FIXED.get, texts, map(_STARTS.get, firsts)))
    if keep_trivia and "%*" in text:
        for index in compress(count(), map(str.startswith, texts, repeat("%*"))):
            kinds[index] = _STARTS["%*"]
    kinds.append(TokenKind.EOF)
    texts.append("")
    return Tokens(kinds, texts, offsets, lines, columns)


def scan(text: str) -> Tokens:
    """All lexemes including comment/blank trivia, in source order."""
    return _lex(text, True)


def tokenize(text: str) -> Tokens:
    """Significant tokens only (trivia removed), ending with an EOF marker."""
    return _lex(text, False)
