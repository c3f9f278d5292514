"""Acceptance gate: the twelve conformance checks.

Each test prints one ACCEPTANCE line (run pytest with -s to see them all);
a failure prints FAIL and re-raises the underlying assertion.
"""

import random
import time
from contextlib import contextmanager

import pytest

from aspcore2.analysis import check_safety
from aspcore2.cli import main
from aspcore2.errors import LexError, ParseError
from aspcore2.ground import (
    EQUAL,
    GREATER,
    LESS,
    UniverseBounds,
    ground_program,
    term_compare,
)
from aspcore2.parser import parse_program
from aspcore2.rewrite import desugar
from aspcore2.solver import (
    MINUS_INFINITY,
    PLUS_INFINITY,
    answer_query,
    answer_sets,
    eval_aggregate,
    optimal_answer_sets,
)
from aspcore2.syntax import (
    AggregateFunction,
    ClassicalAtom,
    FunctionalTerm,
    IntegerConstant,
    Query,
    StringConstant,
    SymbolicConstant,
    program_to_text,
    statement_to_text,
)
from generators import (
    random_ground_program,
    random_ground_term,
    random_nonground_program_text,
    random_query_program,
)
from grammar_corpus import ACCEPT, REJECT
from oracles import (
    gl_answer_sets,
    oracle_answer_sets,
    oracle_ground_query,
    oracle_optimal,
    oracle_query_substitutions,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def solve_text(text, max_int=10, max_nesting=2):
    grounded = ground_program(
        desugar(parse_program(text)), UniverseBounds(max_int, max_nesting)
    )
    return {frozenset(i) for i in answer_sets(grounded)}


def atoms(*names):
    out = set()
    for name in names:
        neg = name.startswith("-")
        if neg:
            name = name[1:]
        if "(" in name:
            predicate, rest = name.split("(", 1)
            args = tuple(
                IntegerConstant(int(a)) if a.lstrip("-").isdigit() else SymbolicConstant(a)
                for a in rest.rstrip(")").split(",")
            )
        else:
            predicate, args = name, ()
        out.add(ClassicalAtom(predicate, args, neg))
    return frozenset(out)


def test_01_grammar_conformance():
    with criterion(1, "grammar conformance"):
        start = time.perf_counter()
        assert len(ACCEPT) >= 60
        for text, note in ACCEPT:
            program = parse_program(text)
            printed = program_to_text(program)
            again = parse_program(printed)
            assert program_to_text(again) == printed, (text, note)
        for text, note in REJECT:
            with pytest.raises((LexError, ParseError)):
                parse_program(text)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"corpus took {elapsed:.2f}s"


def test_02_choice_rule_mapping():
    with criterion(2, "choice rule mapping"):
        program = desugar(
            parse_program("{p(a) : q(2); -p(a) : q(3)} <= 1 :- q(1).")
        )
        lines = [statement_to_text(s) for s in program.rules]
        assert lines == [
            "p(a) | __aux_p_0(1,a) :- q(1), q(2).",
            "-p(a) | __aux_p_0(0,a) :- q(1), q(3).",
            ":- q(1), not #count{__aux_p_0(1,a) : p(a), q(2); "
            "__aux_p_0(0,a) : -p(a), q(3)} <= 1.",
        ]
        got = solve_text(
            "{p(a) : q(2); -p(a) : q(3)} <= 1 :- q(1). q(1). q(2). q(3)."
        )
        base = ("q(1)", "q(2)", "q(3)")
        assert got == {
            atoms(*base),
            atoms("p(a)", *base),
            atoms("-p(a)", *base),
        }


def test_03_safety_classification():
    with criterion(3, "safety classification"):
        safe = parse_program(
            "p(X,Y) :- q(X), #sum{S,X : r(T,X), S = (2*T)-X} = Y."
        ).rules[0]
        report = check_safety(desugar_rule(safe))
        assert report.safe, report
        unsafe = parse_program(
            "p(X,Y) :- q(X), #sum{S,X : r(T,X), S+X = 2*T} = Y."
        ).rules[0]
        report = check_safety(desugar_rule(unsafe))
        assert not report.safe
        message = report.describe()
        assert "variable S" in message
        assert "condition (ii)" in message


def desugar_rule(rule):
    from aspcore2.syntax import Program

    return desugar(Program((rule,), (), None)).rules[0]


def test_04_undefined_arithmetic():
    with criterion(4, "undefined arithmetic"):
        got = solve_text("a(0). p :- a(X), not q(X/X).")
        assert got == {atoms("a(0)")}


def test_05_oracle_equivalence():
    with criterion(5, "oracle equivalence"):
        start = time.perf_counter()
        rng = random.Random(7)
        for index in range(500):
            program = random_ground_program(rng)
            expected = oracle_answer_sets(program.rules)
            got = {frozenset(i) for i in answer_sets(program)}
            assert got == expected, f"program {index}:\n{program.to_text()}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_06_aggregate_free_cross_check():
    with criterion(6, "aggregate-free cross-check"):
        rng = random.Random(11)
        for index in range(200):
            program = random_ground_program(rng, with_aggregates=False)
            expected = gl_answer_sets(program.rules)
            got = {frozenset(i) for i in answer_sets(program)}
            assert got == expected, f"program {index}:\n{program.to_text()}"


def test_07_term_order():
    with criterion(7, "term order"):
        rng = random.Random(23)
        terms = [random_ground_term(rng, 2) for _ in range(45)]
        triples = 0
        for t in terms:
            for u in terms:
                c = term_compare(t, u)
                assert c in (LESS, EQUAL, GREATER)
                assert term_compare(u, t) == -c
                assert (c == EQUAL) == (t == u)
        for _ in range(10_000):
            t, u, v = (random_ground_term(rng, 2) for _ in range(3))
            triples += 1
            if term_compare(t, u) != GREATER and term_compare(u, v) != GREATER:
                assert term_compare(t, v) != GREATER, (t, u, v)
        assert triples == 10_000
        one, two = IntegerConstant(1), IntegerConstant(2)
        abc, abd = SymbolicConstant("abc"), SymbolicConstant("abd")
        sabc, sabd = StringConstant("abc"), StringConstant("abd")
        f1 = FunctionalTerm("f", (one,))
        pinned = [
            (one, two),
            (two, abc),
            (abc, abd),
            (abd, sabc),
            (sabc, sabd),
            (sabd, f1),
            (f1, FunctionalTerm("f", (one, two))),
            (f1, FunctionalTerm("g", (one,))),
            (FunctionalTerm("g", (one,)), FunctionalTerm("g", (two,))),
        ]
        for small, large in pinned:
            assert term_compare(small, large) == LESS, (small, large)


def test_08_aggregate_edge_cases():
    with criterion(8, "aggregate edge cases"):
        elements = parse_program("x :- #count{1 : q(1)} > 0.").rules[0].body[0].atom.elements
        empty = frozenset()
        assert eval_aggregate(AggregateFunction.MAX, elements, empty) is MINUS_INFINITY
        assert eval_aggregate(AggregateFunction.MIN, elements, empty) is PLUS_INFINITY
        assert eval_aggregate(AggregateFunction.COUNT, elements, empty) == IntegerConstant(0)
        mixed = parse_program("x :- #sum{2, a; 3, b; c, c} > 0.").rules[0].body[0].atom.elements
        assert eval_aggregate(AggregateFunction.SUM, mixed, empty) == IntegerConstant(5)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_09_optimality():
    with criterion(9, "optimality"):
        rng = random.Random(13)
        for index in range(100):
            program = random_ground_program(rng, with_weaks=True)
            all_sets = oracle_answer_sets(program.rules)
            expected = oracle_optimal(program.weak_constraints, all_sets)
            got = {frozenset(i) for i in optimal_answer_sets(program)}
            assert got == expected, f"program {index}:\n{program.to_text()}"
            if all_sets:
                assert got, f"program {index} lost all optima"


def test_10_grounding_equivalence():
    with criterion(10, "grounding equivalence"):
        start = time.perf_counter()
        rng = random.Random(17)
        bounds = UniverseBounds(max_int=5, max_nesting=1)
        for index in range(100):
            text = random_nonground_program_text(rng)
            core = desugar(parse_program(text))
            smart = answer_sets(ground_program(core, bounds))
            naive = answer_sets(ground_program(core, bounds, naive=True))
            assert smart == naive, f"program {index}:\n{text}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_10_grounding_equivalence_statements_reversed():
    # Rules before the facts they depend on: the smart grounder meets
    # aggregates before their element atoms are derived.
    with criterion(10, "grounding equivalence, statements reversed"):
        start = time.perf_counter()
        rng = random.Random(17)
        bounds = UniverseBounds(max_int=5, max_nesting=1)
        for index in range(100):
            text = "\n".join(reversed(random_nonground_program_text(rng).split("\n")))
            core = desugar(parse_program(text))
            smart = answer_sets(ground_program(core, bounds))
            naive = answer_sets(ground_program(core, bounds, naive=True))
            assert smart == naive, f"program {index}:\n{text}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_11_query_answering():
    with criterion(11, "query answering"):
        rng = random.Random(19)
        statuses = set()
        for index in range(100):
            program, pattern = random_query_program(rng)
            expected_sets = oracle_answer_sets(program.rules)
            answer = answer_query(program, Query(pattern))
            statuses.add(answer.status)
            if not expected_sets:
                assert answer.status == "inconsistent", index
                continue
            if answer.status in ("true", "false"):
                held = oracle_ground_query(expected_sets, pattern)
                assert (answer.status == "true") == held, index
            else:
                expected = oracle_query_substitutions(expected_sets, pattern)
                assert set(answer.substitutions) == expected, index
        assert "inconsistent" in statuses
        assert {"answers"} & statuses or {"true", "false"} & statuses


def test_12_restriction_enforcement(tmp_path, capsys):
    with criterion(12, "restriction enforcement"):
        recursive = tmp_path / "recursive.lp"
        recursive.write_text("p(X) :- #count{Y : p(Y)} = X, d(X). d(1).")
        assert main(["check", str(recursive)]) == 3
        unbounded = tmp_path / "unbounded.lp"
        unbounded.write_text("p(X+1) :- p(X). p(0).")
        assert main(["solve", str(unbounded)]) == 4
        capsys.readouterr()
