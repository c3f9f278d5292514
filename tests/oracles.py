"""Independent reference implementations used to cross-check the package.

Everything here is coded directly from the semantic definitions and shares
only the syntax tree dataclasses with the package under test: term
comparison, literal satisfaction, reducts, exhaustive-subset answer sets,
the classical Gelfond-Lifschitz construction, weak-constraint domination,
and cautious query intersection are all reimplemented from scratch. The
lexer's oracle runs the lexical table literally and shares only the token
and span types.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Optional, Union

from aspcore2.errors import LexError
from aspcore2.lexer import Token, TokenKind
from aspcore2.syntax import (
    AggregateAtom,
    AggregateElement,
    AggregateFunction,
    AggregateLiteral,
    ArithOp,
    ArithmeticTerm,
    BuiltinAtom,
    ClassicalAtom,
    FunctionalTerm,
    Guard,
    IntegerConstant,
    NafLiteral,
    Relation,
    Rule,
    Span,
    StringConstant,
    SymbolicConstant,
    Term,
    Variable,
    WeakConstraint,
)

# --------------------------------------------------------------------------
# Term order, written as a direct recursive comparison.


def _rank(term: Term) -> int:
    if isinstance(term, IntegerConstant):
        return 0
    if isinstance(term, SymbolicConstant):
        return 1
    if isinstance(term, StringConstant):
        return 2
    if isinstance(term, FunctionalTerm):
        return 3
    raise TypeError(f"not a ground term: {term!r}")


def _sign(delta: int) -> int:
    return (delta > 0) - (delta < 0)


def oracle_compare(t: Term, u: Term) -> int:
    """-1, 0, or 1 as t precedes, equals, or follows u."""
    rt, ru = _rank(t), _rank(u)
    if rt != ru:
        return _sign(rt - ru)
    if isinstance(t, IntegerConstant):
        return _sign(t.value - u.value)
    if isinstance(t, SymbolicConstant):
        return _sign((t.name > u.name) - (t.name < u.name))
    if isinstance(t, StringConstant):
        a, b = t.content(), u.content()
        return _sign((a > b) - (a < b))
    if len(t.args) != len(u.args):
        return _sign(len(t.args) - len(u.args))
    if t.functor != u.functor:
        return _sign((t.functor > u.functor) - (t.functor < u.functor))
    for a, b in zip(t.args, u.args):
        c = oracle_compare(a, b)
        if c != 0:
            return c
    return 0


def oracle_builtin(left: Term, relation: Relation, right: Term) -> bool:
    c = oracle_compare(left, right)
    return {
        Relation.LT: c < 0,
        Relation.GT: c > 0,
        Relation.LE: c <= 0,
        Relation.GE: c >= 0,
        Relation.EQ: c == 0,
        Relation.NE: c != 0,
    }[relation]


# --------------------------------------------------------------------------
# Ground literal satisfaction. Aggregate values use Python infinities as
# stand-ins for the below-everything / above-everything extremes.

_NEG_INF = ("-inf",)
_POS_INF = ("+inf",)


def oracle_aggregate_value(atom: AggregateAtom, interpretation: frozenset):
    tuples = set()
    for element in atom.elements:
        if all(oracle_literal(l, interpretation) for l in element.condition):
            tuples.add(element.terms)
    if atom.function is AggregateFunction.COUNT:
        return IntegerConstant(len(tuples))
    if atom.function is AggregateFunction.SUM:
        total = 0
        for t in tuples:
            if t and isinstance(t[0], IntegerConstant):
                total += t[0].value
        return IntegerConstant(total)
    firsts = [t[0] for t in tuples if t]
    if not firsts:
        return _NEG_INF if atom.function is AggregateFunction.MAX else _POS_INF
    best = firsts[0]
    for candidate in firsts[1:]:
        c = oracle_compare(candidate, best)
        if (atom.function is AggregateFunction.MAX and c > 0) or (
            atom.function is AggregateFunction.MIN and c < 0
        ):
            best = candidate
    return best


def _guard_compare(value, term: Term) -> int:
    if value is _NEG_INF:
        return -1
    if value is _POS_INF:
        return 1
    return oracle_compare(value, term)


_RELATION_HOLDS = {
    Relation.LT: lambda c: c < 0,
    Relation.GT: lambda c: c > 0,
    Relation.LE: lambda c: c <= 0,
    Relation.GE: lambda c: c >= 0,
    Relation.EQ: lambda c: c == 0,
    Relation.NE: lambda c: c != 0,
}


def oracle_literal(literal, interpretation: frozenset) -> bool:
    if isinstance(literal, AggregateLiteral):
        atom = literal.atom
        value = oracle_aggregate_value(atom, interpretation)
        holds = True
        if atom.left_guard is not None:
            # guard rel value: compare from the guard's side
            holds = _RELATION_HOLDS[atom.left_guard.relation](
                -_guard_compare(value, atom.left_guard.term)
            )
        if holds and atom.right_guard is not None:
            holds = _RELATION_HOLDS[atom.right_guard.relation](
                _guard_compare(value, atom.right_guard.term)
            )
        return holds != literal.naf
    atom = literal.atom
    if isinstance(atom, BuiltinAtom):
        holds = oracle_builtin(atom.left, atom.relation, atom.right)
    else:
        holds = atom in interpretation
    return holds != literal.naf


def oracle_body_true(rule, interpretation: frozenset) -> bool:
    return all(oracle_literal(l, interpretation) for l in rule.body)


def oracle_is_model(rules: Iterable[Rule], interpretation: frozenset) -> bool:
    for rule in rules:
        if oracle_body_true(rule, interpretation):
            if not any(atom in interpretation for atom in rule.head):
                return False
    return True


# --------------------------------------------------------------------------
# Exhaustive-subset answer sets over every atom occurring in the program.


def program_atoms(rules: Iterable[Rule]) -> list[ClassicalAtom]:
    atoms: dict[ClassicalAtom, None] = {}

    def visit_literal(literal) -> None:
        if isinstance(literal, AggregateLiteral):
            for element in literal.atom.elements:
                for inner in element.condition:
                    visit_literal(inner)
            return
        if isinstance(literal.atom, ClassicalAtom):
            atoms.setdefault(literal.atom)

    for rule in rules:
        for atom in rule.head:
            atoms.setdefault(atom)
        for literal in rule.body:
            visit_literal(literal)
    return list(atoms)


def _consistent(interpretation: frozenset) -> bool:
    return not any(
        atom.strong_negation
        and ClassicalAtom(atom.predicate, atom.args, False) in interpretation
        for atom in interpretation
    )


def oracle_answer_sets(
    rules: Iterable[Rule], base: Optional[list[ClassicalAtom]] = None
) -> set[frozenset]:
    """Every consistent subset of the atom base that is a minimal model of
    its own reduct, by exhaustive enumeration."""
    rules = list(rules)
    if base is None:
        base = program_atoms(rules)
    answers: set[frozenset] = set()
    for size in range(len(base) + 1):
        for combo in itertools.combinations(base, size):
            candidate = frozenset(combo)
            if not _consistent(candidate):
                continue
            if not oracle_is_model(rules, candidate):
                continue
            reduct = [r for r in rules if oracle_body_true(r, candidate)]
            members = list(candidate)
            minimal = True
            for sub_size in range(len(members)):
                for sub_combo in itertools.combinations(members, sub_size):
                    if oracle_is_model(reduct, frozenset(sub_combo)):
                        minimal = False
                        break
                if not minimal:
                    break
            if minimal:
                answers.add(candidate)
    return answers


# --------------------------------------------------------------------------
# Classical Gelfond-Lifschitz construction for aggregate-free programs:
# delete rules with a false naf-literal or false builtin, drop naf-literals,
# then take the minimal models of the remaining positive program.


def gl_answer_sets(
    rules: Iterable[Rule], base: Optional[list[ClassicalAtom]] = None
) -> set[frozenset]:
    rules = list(rules)
    if base is None:
        base = program_atoms(rules)
    answers: set[frozenset] = set()
    for size in range(len(base) + 1):
        for combo in itertools.combinations(base, size):
            candidate = frozenset(combo)
            if not _consistent(candidate):
                continue
            positive: list[tuple[tuple, tuple]] = []
            for rule in rules:
                keep = True
                kept_body = []
                for literal in rule.body:
                    assert not isinstance(literal, AggregateLiteral)
                    if isinstance(literal.atom, BuiltinAtom):
                        if not oracle_literal(literal, candidate):
                            keep = False
                            break
                    elif literal.naf:
                        if literal.atom in candidate:
                            keep = False
                            break
                    else:
                        kept_body.append(literal.atom)
                if keep:
                    positive.append((rule.head, tuple(kept_body)))

            def positive_model(interp: frozenset) -> bool:
                for head, body in positive:
                    if all(a in interp for a in body) and not any(
                        a in interp for a in head
                    ):
                        return False
                return True

            if not positive_model(candidate):
                continue
            members = list(candidate)
            minimal = True
            for sub_size in range(len(members)):
                for sub_combo in itertools.combinations(members, sub_size):
                    if positive_model(frozenset(sub_combo)):
                        minimal = False
                        break
                if not minimal:
                    break
            if minimal:
                answers.add(candidate)
    return answers


# --------------------------------------------------------------------------
# Weak-constraint costs and brute-force domination.


def oracle_costs(
    weaks: Iterable[WeakConstraint], interpretation: frozenset
) -> dict[int, int]:
    triples = set()
    for weak in weaks:
        if all(oracle_literal(l, interpretation) for l in weak.body):
            triples.add((weak.weight, weak.level, weak.terms))
    costs: dict[int, int] = {}
    for weight, level, _terms in triples:
        if isinstance(weight, IntegerConstant) and isinstance(level, IntegerConstant):
            costs[level.value] = costs.get(level.value, 0) + weight.value
    return costs


def oracle_dominated(
    costs: dict[int, int], others: Iterable[dict[int, int]]
) -> bool:
    for other in others:
        levels = sorted(set(costs) | set(other), reverse=True)
        for level in levels:
            a, b = other.get(level, 0), costs.get(level, 0)
            if a < b:
                return True
            if a > b:
                break
    return False


def oracle_optimal(
    weaks: Iterable[WeakConstraint], answer_sets: set[frozenset]
) -> set[frozenset]:
    weaks = list(weaks)
    sets = list(answer_sets)
    costs = [oracle_costs(weaks, i) for i in sets]
    out = set()
    for index, interpretation in enumerate(sets):
        rest = [costs[k] for k in range(len(sets)) if k != index]
        if not oracle_dominated(costs[index], rest):
            out.add(interpretation)
    return out


# --------------------------------------------------------------------------
# Cautious queries.


def oracle_ground_query(
    answer_sets: set[frozenset], atom: ClassicalAtom
) -> bool:
    return all(atom in i for i in answer_sets)


def oracle_query_substitutions(
    answer_sets: set[frozenset], pattern: ClassicalAtom
) -> set[tuple]:
    """Intersection over answer sets of the variable bindings matching the
    pattern; pattern arguments are variables or ground terms."""
    common: Optional[set[tuple]] = None
    for interpretation in answer_sets:
        found = set()
        for atom in interpretation:
            if atom.predicate != pattern.predicate:
                continue
            if atom.strong_negation != pattern.strong_negation:
                continue
            if len(atom.args) != len(pattern.args):
                continue
            binding: dict[str, Term] = {}
            ok = True
            for p, v in zip(pattern.args, atom.args):
                if isinstance(p, Variable):
                    if p.name in binding and binding[p.name] != v:
                        ok = False
                        break
                    binding[p.name] = v
                elif p != v:
                    ok = False
                    break
            if ok:
                found.add(tuple(sorted(binding.items())))
        common = found if common is None else common & found
    return common or set()


# --------------------------------------------------------------------------
# The lexical table run literally: at each position try every character
# class and every fixed lexeme, keep the longest match, and on equal length
# let a fixed lexeme (keyword or punctuation) beat a class.

_CLASS_RULES: tuple[tuple[TokenKind, re.Pattern[str]], ...] = (
    (TokenKind.ID, re.compile(r"[a-z][A-Za-z0-9_]*")),
    (TokenKind.VARIABLE, re.compile(r"[A-Z][A-Za-z0-9_]*")),
    (TokenKind.NUMBER, re.compile(r"0|[1-9][0-9]*")),
    (TokenKind.COMMENT, re.compile(r"%(?:[^*\n][^\n]*)?(?:\n|\Z)")),
    (TokenKind.MULTI_LINE_COMMENT, re.compile(r"%\*(?:[^*]|\*[^%])*\*%")),
    (TokenKind.BLANK, re.compile(r"[ \t\n]+")),
)

# The table's STRING row as written. A regex alternation keeps the first
# alternative that matches, not the longest, so `_string_length` tries the
# row against every closing quote and keeps the longest full match.
_STRING = re.compile(r'"([^"]|\\")*"')


def _string_length(text: str, pos: int) -> int:
    best = 0
    end = text.find('"', pos + 1) if text.startswith('"', pos) else -1
    while end != -1:
        if _STRING.fullmatch(text, pos, end + 1):
            best = end + 1 - pos
        end = text.find('"', end + 1)
    return best


# Longest first so a prefix never shadows a longer match.
_FIXED_RULES: tuple[tuple[TokenKind, str], ...] = tuple(
    sorted(
        [
            (TokenKind.ANONYMOUS_VARIABLE, "_"),
            (TokenKind.DOT, "."),
            (TokenKind.COMMA, ","),
            (TokenKind.QUERY_MARK, "?"),
            (TokenKind.COLON, ":"),
            (TokenKind.SEMICOLON, ";"),
            (TokenKind.OR, "|"),
            (TokenKind.NAF, "not"),
            (TokenKind.CONS, ":-"),
            (TokenKind.WCONS, ":~"),
            (TokenKind.PLUS, "+"),
            (TokenKind.MINUS, "-"),
            (TokenKind.TIMES, "*"),
            (TokenKind.DIV, "/"),
            (TokenKind.AT, "@"),
            (TokenKind.PAREN_OPEN, "("),
            (TokenKind.PAREN_CLOSE, ")"),
            (TokenKind.SQUARE_OPEN, "["),
            (TokenKind.SQUARE_CLOSE, "]"),
            (TokenKind.CURLY_OPEN, "{"),
            (TokenKind.CURLY_CLOSE, "}"),
            (TokenKind.EQUAL, "="),
            (TokenKind.UNEQUAL, "<>"),
            (TokenKind.UNEQUAL, "!="),
            (TokenKind.LESS, "<"),
            (TokenKind.GREATER, ">"),
            (TokenKind.LESS_OR_EQ, "<="),
            (TokenKind.GREATER_OR_EQ, ">="),
            (TokenKind.AGGREGATE_COUNT, "#count"),
            (TokenKind.AGGREGATE_MAX, "#max"),
            (TokenKind.AGGREGATE_MIN, "#min"),
            (TokenKind.AGGREGATE_SUM, "#sum"),
        ],
        key=lambda rule: -len(rule[1]),
    )
)


def _oracle_diagnosis(text: str, pos: int) -> str:
    if text[pos] == '"':
        return "unterminated or malformed string literal"
    if text[pos : pos + 2] == "%*":
        return "unterminated multi-line comment"
    return f"unexpected character {text[pos]!r}"


def oracle_scan(text: str) -> list[Token]:
    """Every lexeme, trivia included, then an EOF marker; LexError at the
    first position where neither a class nor a fixed lexeme matches."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    column = 1
    while pos < len(text):
        best_kind: Optional[TokenKind] = None
        best_len = 0
        for kind, pattern in _CLASS_RULES:
            m = pattern.match(text, pos)
            if m is not None and m.end() - pos > best_len:
                best_kind = kind
                best_len = m.end() - pos
        string_len = _string_length(text, pos)
        if string_len > best_len:
            best_kind = TokenKind.STRING
            best_len = string_len
        for kind, lexeme in _FIXED_RULES:
            if len(lexeme) >= best_len and text.startswith(lexeme, pos):
                best_kind = kind
                best_len = len(lexeme)
                break
        if best_kind is None:
            raise LexError(_oracle_diagnosis(text, pos), Span(pos, 1, line, column))
        lexeme = text[pos : pos + best_len]
        tokens.append(Token(best_kind, lexeme, Span(pos, best_len, line, column)))
        for ch in lexeme:
            if ch == "\n":
                line += 1
                column = 1
            else:
                column += 1
        pos += best_len
    tokens.append(Token(TokenKind.EOF, "", Span(pos, 0, line, column)))
    return tokens
