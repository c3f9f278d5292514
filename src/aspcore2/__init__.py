"""ASP-Core-2 toolkit: lexer, parser, rewriter, static checks, grounder,
and a reference answer-set solver.

Typical flow: `parse_program` -> `desugar` -> `check_program` ->
`ground_program` -> `answer_sets` / `optimal_answer_sets` / `answer_query`.
"""

from .analysis import AnalysisResult, check_program
from .errors import (
    AspCoreError,
    BoundExceeded,
    CapacityExceeded,
    LexError,
    ParseError,
)
from .ground import GroundProgram, UniverseBounds, ground_program
from .lexer import Token, TokenKind, Tokens, tokenize
from .parser import parse_program
from .rewrite import desugar
from .solver import (
    Interpretation,
    QueryAnswer,
    answer_query,
    answer_sets,
    optimal_answer_sets,
    weak_cost,
)
from .syntax import Program

__version__ = "0.1.0"

LANGUAGE = "ASP-Core-2"

__all__ = [
    "AnalysisResult",
    "AspCoreError",
    "BoundExceeded",
    "CapacityExceeded",
    "GroundProgram",
    "Interpretation",
    "LANGUAGE",
    "LexError",
    "ParseError",
    "Program",
    "QueryAnswer",
    "Token",
    "TokenKind",
    "Tokens",
    "UniverseBounds",
    "answer_query",
    "answer_sets",
    "check_program",
    "desugar",
    "ground_program",
    "optimal_answer_sets",
    "parse_program",
    "tokenize",
    "weak_cost",
    "__version__",
]
