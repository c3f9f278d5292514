"""Workload corpora and their references.

Every program is ASP-Core-2 text, exactly what a user would pipe into the
command line. Each workload is a list of `Job`s run in order; a pass runs
every job once. References are computed here, before any timed pass, and
never by aspcore2: closed forms and plain-Python computations for the
textbook families, and the exhaustive oracles of `tests/oracles.py` for the
seeded random programs.

The textbook families are fixed; only the random parts (the frontend text
and the random programs of `solve`) depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import cycle, product

from aspcore2.ground import GroundProgram
from aspcore2.syntax import (
    AggregateLiteral,
    BuiltinAtom,
    FunctionalTerm,
    IntegerConstant,
    NafLiteral,
    Query,
    Relation,
    Rule,
    StringConstant,
    SymbolicConstant,
    Variable,
    WeakConstraint,
    statement_to_text,
)
from generators import (
    random_ground_program,
    random_nonground_program_text,
    random_query_program,
)
from grammar_corpus import ACCEPT
from oracles import (
    oracle_answer_sets,
    oracle_builtin,
    oracle_costs,
    oracle_optimal,
    oracle_query_substitutions,
)

# Per-program limit in seconds. A program that exceeds it, or ends in
# CapacityExceeded / BoundExceeded, is undecided and charged this limit.
LIMITS = {"frontend": 60.0, "ground": 30.0, "solve": 30.0, "capacity": 10.0}

BRUTE_FORCE_LIMIT = 24  # the command line's default --brute-force-limit

WORKLOADS = tuple(LIMITS)


@dataclass
class Job:
    name: str  # corpus row; random programs share a group name
    op: str  # "check", "ground", "solve", "solve-opt" or "query"
    text: str
    expect: dict = field(default_factory=dict)  # reference fields
    full: bool = False  # report every answer set, for validity checks
    set_aside: int = 0  # programs drawn and set aside before this one


# --------------------------------------------------------------------------
# Rendering used for references and for canonical outputs alike. It is
# independent of aspcore2's printers.


def term_text(term) -> str:
    if isinstance(term, IntegerConstant):
        return str(term.value)
    if isinstance(term, SymbolicConstant):
        return term.name
    if isinstance(term, StringConstant):
        return f'"{term.value}"'
    if isinstance(term, FunctionalTerm):
        return f"{term.functor}({','.join(term_text(a) for a in term.args)})"
    raise ValueError(f"not a ground term: {term!r}")


def atom_text(atom) -> str:
    name = atom.predicate
    if name.startswith("\x01"):
        name = "aux:" + name.split("\x01")[2]
    text = name + (f"({','.join(term_text(a) for a in atom.args)})" if atom.args else "")
    return "-" + text if atom.strong_negation else text


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def sets_digest(pairs) -> str:
    """Order-free digest of answer sets given as atom strings, each paired
    with a label (its COSTS line under --opt, "" otherwise)."""
    return digest(sorted([sorted(atoms), label] for atoms, label in pairs))


# --------------------------------------------------------------------------
# Textbook families. Facts are spelled out: the grammar has no intervals.


def chain_text(n: int) -> str:
    return "\n".join(f"a{i} :- not b{i}. b{i} :- not a{i}." for i in range(n))


def reach_text(n: int) -> str:
    facts = " ".join(f"edge({i},{i + 1})." for i in range(n))
    return facts + "\nreach(X,Y) :- edge(X,Y).\nreach(X,Z) :- reach(X,Y), edge(Y,Z)."


COLOURS = ("r", "g", "b", "y")


def colouring_text(k: int, n: int) -> str:
    lines = [f"node({i})." for i in range(1, n + 1)]
    lines += [f"edge({i},{i % n + 1})." for i in range(1, n + 1)]
    lines += [f"col({c})." for c in COLOURS[:k]]
    lines += [
        "{colour(X,C) : col(C)} = 1 :- node(X).",
        ":- edge(X,Y), colour(X,C), colour(Y,C).",
    ]
    return "\n".join(lines)


def queens_text(n: int) -> str:
    lines = [f"num({i})." for i in range(1, n + 1)]
    lines += [
        "{q(X,Y) : num(Y)} = 1 :- num(X).",
        ":- q(X1,Y), q(X2,Y), X1 < X2.",
        ":- q(X1,Y1), q(X2,Y2), X1 < X2, X2 - X1 = Y2 - Y1.",
        ":- q(X1,Y1), q(X2,Y2), X1 < X2, X2 - X1 = Y1 - Y2.",
    ]
    return "\n".join(lines)


def reach_closure(n: int) -> list[str]:
    edges = {(i, i + 1) for i in range(n)}
    closure = set(edges)
    while True:
        step = {(x, z) for (x, y) in closure for (y2, z) in edges if y == y2}
        if step <= closure:
            break
        closure |= step
    return [f"edge({x},{y})" for x, y in sorted(edges)] + [
        f"reach({x},{y})" for x, y in sorted(closure)
    ]


def chromatic(k: int, n: int) -> int:
    """Proper k-colourings of an n-cycle."""
    return (k - 1) ** n + (-1) ** n * (k - 1)


QUEENS_4_SOLUTIONS = 2


def _diagonal_pairs(n: int) -> int:
    return sum((n - d) ** 2 for d in range(1, n))


# Ground rules and head atoms per predicate ("aux" gathers the choice
# auxiliaries), as closed forms of the family parameters.


def reach_ground(n: int) -> dict:
    return {"rules": 2 * n + n * (n - 1) // 2, "heads": {"edge": n, "reach": n * (n + 1) // 2}}


def colouring_ground(k: int, n: int) -> dict:
    return {
        "rules": 2 * n + k + n * k + n + n * k,
        "heads": {"node": n, "edge": n, "col": k, "colour": n * k, "aux": n * k},
    }


def queens_ground(n: int) -> dict:
    return {
        "rules": n + n * n + n + n * (n * (n - 1) // 2) + 2 * _diagonal_pairs(n),
        "heads": {"num": n, "q": n * n, "aux": n * n},
    }


# sha256 of `ground_program(...).to_text()`, which `aspcore2 ground` prints
# followed by a newline. Grounding output must stay byte-identical.
GROUND_TEXT_SHA256 = {
    "reach-40": "5f34bc10aec82cb1ad129877fff2847d5270d16731fef5c7086a7aa91966288a",
    "colour3-cycle60": "a9d0e13dca07397d48eee8260960a1864a2d76d1a5191d38bdf6b2f56781415e",
    "queens-8": "117d77558befdbd0e83ccb300f06866fb1dc9cfe1a29584d7123f95660dbb5dc",
    "reach-6": "df89901d52e70965a43aefd2c58d24a5a9eb6f357635e2031d72b7d813aaf5e1",
    "colour3-cycle6": "b19bfaa406606e9c4385c04f565203de64f7aa11765b019b0990a3c472e26dfc",
    "queens-4": "1cf36039d05d85f51f59c8badbaed4d16305811e5b0ded4e968b8b6279d3d16d",
}


def _ground_job(name: str, text: str, expect: dict) -> Job:
    expect = dict(expect, text_sha256=GROUND_TEXT_SHA256[name])
    return Job(name, "ground", text, expect)


def _decided_sets(pairs) -> dict:
    return {"sets": sets_digest(pairs), "count": len(pairs)}


# --------------------------------------------------------------------------
# Frontend: one large generated text.


def count_statements(text: str) -> int:
    """Statements in ASP-Core-2 text: terminating '.' or '?' outside
    strings and comments (numbers have no decimal point)."""
    count = 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            i += 1
            while text[i] != '"':
                i += 2 if text[i] == "\\" else 1
        elif text.startswith("%*", i):
            i = text.index("*%", i + 2) + 1
        elif ch == "%":
            end = text.find("\n", i)
            i = n if end < 0 else end
        elif ch in ".?":
            count += 1
        i += 1
    return count


def frontend_jobs(rng: random.Random, target_bytes: int) -> list[Job]:
    # Entries with a query are left out: a program holds at most one query,
    # and it must come last.
    accepted = cycle(source for source, _note in ACCEPT if "?" not in source)
    parts: list[str] = []
    statements = 0
    size = 0
    while size < target_bytes:
        block = random_nonground_program_text(rng)
        extra = next(accepted)
        statements += block.count("\n") + 1 + count_statements(extra)  # one per block line
        piece = block + "\n" + extra + "\n"
        parts.append(piece)
        size += len(piece)
    text = "".join(parts)
    return [Job("frontend-text", "check", text, {"statements": statements})]


# --------------------------------------------------------------------------
# Random ground programs, fed in as text.

_NEGATED = {
    Relation.LT: Relation.GE,
    Relation.GE: Relation.LT,
    Relation.GT: Relation.LE,
    Relation.LE: Relation.GT,
    Relation.EQ: Relation.NE,
    Relation.NE: Relation.EQ,
}


def _positive_builtins(body):
    """`not L rel R` over ground integers is `L rel' R` with the complement
    relation; the grammar only allows the latter."""
    out = []
    for literal in body:
        if isinstance(literal, NafLiteral) and literal.naf and isinstance(literal.atom, BuiltinAtom):
            atom = literal.atom
            literal = NafLiteral(BuiltinAtom(atom.left, _NEGATED[atom.relation], atom.right))
        out.append(literal)
    return tuple(out)


def _expressible(program: GroundProgram) -> GroundProgram:
    rules = tuple(Rule(r.head, _positive_builtins(r.body)) for r in program.rules)
    weaks = tuple(
        WeakConstraint(_positive_builtins(w.body), w.weight, w.level, w.terms)
        for w in program.weak_constraints
    )
    return GroundProgram(rules, weaks)


def _aggregate_recursive(rules) -> bool:
    """Whether some aggregate depends on the head of its own rule, which
    ASP-Core-2 forbids (the checker rejects such programs)."""
    edges: dict[str, set[str]] = {}

    def body_predicates(literal):
        if isinstance(literal, AggregateLiteral):
            for element in literal.atom.elements:
                for cond in element.condition:
                    yield from body_predicates(cond)
        elif not isinstance(literal.atom, BuiltinAtom):
            yield literal.atom.predicate

    for rule in rules:
        heads = {a.predicate for a in rule.head}
        for p in heads:  # a disjunction ties its head atoms together
            edges.setdefault(p, set()).update(heads)
        for literal in rule.body:
            for p in body_predicates(literal):
                edges.setdefault(p, set()).update(heads)

    def reaches(start: str, goal: str) -> bool:
        seen, todo = set(), [start]
        while todo:
            p = todo.pop()
            if p == goal:
                return True
            if p not in seen:
                seen.add(p)
                todo.extend(edges.get(p, ()))
        return False

    for rule in rules:
        for literal in rule.body:
            if isinstance(literal, AggregateLiteral):
                for p in set(body_predicates(literal)):
                    if any(reaches(h.predicate, p) for h in rule.head):
                        return True
    return False


def _stale_aggregate(rules) -> bool:
    """Whether aspcore2's grounder keeps a stale instance of a rule with an
    aggregate: it grounds the rules in text order, pass after pass, and an
    aggregate instantiated before every atom of its element conditions is
    derivable keeps only the elements that were ready then, next to the
    complete instance of a later pass (`:- #count{: a} != 1. a.` has no
    answer set). This replays those passes on the ground program, in plain
    Python, and reports whether some rule's elements at its first firing
    differ from those at the fixpoint."""

    def fires(rule, index) -> bool:
        for literal in rule.body:
            if isinstance(literal, AggregateLiteral):
                continue
            atom = literal.atom
            if isinstance(atom, BuiltinAtom):
                if not oracle_builtin(atom.left, atom.relation, atom.right):
                    return False
            elif not literal.naf and atom not in index:
                return False
        return True

    def ready(rule, index) -> list[list[bool]]:
        return [
            [all(c.naf or c.atom in index for c in element.condition) for element in literal.atom.elements]
            for literal in rule.body
            if isinstance(literal, AggregateLiteral)
        ]

    index: set = set()
    first: dict[int, list] = {}
    grew = True
    while grew:
        grew = False
        for i, rule in enumerate(rules):
            if fires(rule, index):
                first.setdefault(i, ready(rule, index))
                for atom in rule.head:
                    if atom not in index:
                        index.add(atom)
                        grew = True
    return any(elements != ready(rules[i], index) for i, elements in first.items())


def _costs_line(weaks, atoms) -> str:
    costs = oracle_costs(weaks, atoms)
    return " ".join(["COSTS"] + [f"{l}={costs[l]}" for l in sorted(costs, reverse=True)])


def random_opt_job(rng: random.Random) -> Job:
    set_aside = 0
    while True:
        program = _expressible(random_ground_program(rng, with_weaks=True))
        if _aggregate_recursive(program.rules):
            continue
        if not _stale_aggregate(program.rules):
            break
        set_aside += 1
    text = "\n".join(statement_to_text(s) for s in program.rules + program.weak_constraints)
    optimal = oracle_optimal(program.weak_constraints, oracle_answer_sets(program.rules))
    pairs = [
        ([atom_text(a) for a in atoms], _costs_line(program.weak_constraints, atoms))
        for atoms in optimal
    ]
    return Job("random-opt", "solve-opt", text, _decided_sets(pairs), set_aside=set_aside)


def random_query_job(rng: random.Random) -> Job:
    program, pattern = random_query_program(rng)
    text = "\n".join(statement_to_text(s) for s in program.rules)
    text += "\n" + statement_to_text(Query(pattern))
    sets = oracle_answer_sets(program.rules)
    if not sets:
        lines = ["INCONSISTENT"]
    elif not any(isinstance(a, Variable) for a in pattern.args):
        lines = ["TRUE" if all(pattern in s for s in sets) else "FALSE"]
    else:
        found = oracle_query_substitutions(sets, pattern)
        values = sorted(dict(binding)["X"].value for binding in found)
        lines = [f"X={v}" for v in values]
    return Job("random-query", "query", text, {"lines": lines})


# --------------------------------------------------------------------------
# Workloads


def _chain_job(n: int) -> Job:
    pairs = [
        ([f"{'a' if bit else 'b'}{i}" for i, bit in enumerate(bits)], "")
        for bits in product((0, 1), repeat=n)
    ]
    return Job(f"chain-{n}", "solve", chain_text(n), _decided_sets(pairs))


def _reach_solve_job(n: int) -> Job:
    return Job(f"reach-{n}", "solve", reach_text(n), _decided_sets([(reach_closure(n), "")]))


def build(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The workload's corpus for this seed, references included."""
    rng = random.Random(seed)
    if workload == "frontend":
        return frontend_jobs(rng, 3_000 if tiny else 180_000)
    if workload == "ground":
        reach_n, col_n, queens_n = (6, 6, 4) if tiny else (40, 60, 8)
        return [
            _ground_job(f"reach-{reach_n}", reach_text(reach_n),
                        dict(reach_ground(reach_n), closure=digest(sorted(reach_closure(reach_n))))),
            _ground_job(f"colour3-cycle{col_n}", colouring_text(3, col_n), colouring_ground(3, col_n)),
            _ground_job(f"queens-{queens_n}", queens_text(queens_n), queens_ground(queens_n)),
        ]
    if workload == "solve":
        chains, reach_n, randoms = ((3, 4), 3, 10) if tiny else ((8, 9), 5, 500)
        jobs = [_chain_job(n) for n in chains] + [_reach_solve_job(reach_n)]
        for _ in range(randoms):
            jobs.append(random_opt_job(rng))
            jobs.append(random_query_job(rng))
        return jobs
    if workload == "capacity":
        return [
            Job("colour2-cycle5", "solve", colouring_text(2, 5),
                {"count": chromatic(2, 5), "colouring": [2, 5]}, full=True),
            _reach_solve_job(7),
            Job("queens-4", "solve", queens_text(4),
                {"count": QUEENS_4_SOLUTIONS, "queens": 4}, full=True),
            Job("colour3-cycle6", "solve", colouring_text(3, 6),
                {"count": chromatic(3, 6), "colouring": [3, 6]}, full=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")
