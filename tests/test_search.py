"""The search kernel against the oracle."""

import random
import time

import pytest

from aspcore2 import kernel
from aspcore2._fold import fold_fixed
from aspcore2._packed import pack_program
from aspcore2.errors import CapacityExceeded
from aspcore2.ground import UniverseBounds, ground_program
from aspcore2.parser import parse_program
from aspcore2.rewrite import desugar
from aspcore2.solver import answer_sets
from aspcore2.syntax import ClassicalAtom
from generators import random_ground_program, random_query_program
from oracles import oracle_answer_sets


def ground(text):
    return ground_program(desugar(parse_program(text)), UniverseBounds(1000, 4))


def random_program(rng, i):
    if i % 3 == 2:
        return random_query_program(rng)[0]
    return random_ground_program(rng, with_aggregates=i % 2 == 0)


def colouring(k, n):
    facts = [f"node({i}). edge({i},{i % n + 1})." for i in range(1, n + 1)]
    facts += [f"col({c})." for c in "rgby"[:k]]
    return " ".join(facts) + """
{colour(X,C) : col(C)} = 1 :- node(X).
:- edge(X,Y), colour(X,C), colour(Y,C)."""


def queens(n):
    return " ".join(f"num({i})." for i in range(1, n + 1)) + """
{q(X,Y) : num(Y)} = 1 :- num(X).
:- q(X1,Y), q(X2,Y), X1 < X2.
:- q(X1,Y1), q(X2,Y2), X1 < X2, X2 - X1 = Y2 - Y1.
:- q(X1,Y1), q(X2,Y2), X1 < X2, X2 - X1 = Y1 - Y2."""


def pigeonhole(pigeons, holes):
    facts = [f"p({i})." for i in range(1, pigeons + 1)]
    facts += [f"h({i})." for i in range(1, holes + 1)]
    return " ".join(facts) + """
{in(P,H) : h(H)} = 1 :- p(P).
:- in(P1,H), in(P2,H), P1 < P2."""


def test_search_matches_brute_force_on_folded_random_programs():
    # fold, search and unfold together, against the oracle's enumeration
    rng = random.Random(41)
    for i in range(600):
        program = random_program(rng, i)
        got = {frozenset(s) for s in answer_sets(program, project=False)}
        assert got == oracle_answer_sets(program.rules)


def test_search_matches_oracle_on_unfolded_random_programs():
    rng = random.Random(43)
    for i in range(150):
        program = random_program(rng, i)
        packed = pack_program(program)
        got = {
            frozenset(a for j, a in enumerate(packed.atoms) if mask >> j & 1)
            for mask in kernel.solve_masks(packed.flat())
        }
        assert got == oracle_answer_sets(program.rules)


@pytest.mark.parametrize(
    "text, count",
    [
        (colouring(3, 6), 66),
        (colouring(2, 5), 0),
        (queens(4), 2),
        (queens(5), 10),
        (queens(6), 4),
    ],
)
def test_textbook_counts(text, count):
    assert len(answer_sets(ground(text))) == count


def test_unsupported_positive_loop_stays_out():
    a, p, q = (ClassicalAtom(name) for name in "apq")
    got = answer_sets(ground("{a}. p :- q. q :- p. p :- a."))
    assert set(got) == {frozenset(), frozenset({a, p, q})}


def test_head_cycle_goes_through_the_sweep():
    flat = fold_fixed(pack_program(ground("a | b. a :- b. b :- a.")).flat()).flat
    assert not kernel.head_cycle_free(flat[2])
    (model,) = answer_sets(ground("a | b. a :- b. b :- a."))
    assert model == {ClassicalAtom("a"), ClassicalAtom("b")}


@pytest.mark.parametrize(
    "text",
    [
        # negative #sum weights lower the lowest reachable value
        "{a; b; c}. ok :- #sum{-2 : a; 3 : b; -1,c : c} < 1. :- not ok.",
        "{a; b; c}. :- #sum{-2 : a; 3 : b; -1,c : c} != 0.",
        "{a; b; c; d}. :- not 1 <= #sum{-3 : a; 2 : b; 2,c : c; -1 : d} <= 2.",
        # symbolic guards: integers come before constants, constants
        # before functional terms
        "{p(1); p(c); p(f(1))}. hi :- #max{X : p(X)} >= c. lo :- #min{X : p(X)} < c. :- hi, lo.",
        "{p(1); p(d); p(f(1))}. :- #max{X : p(X)} > c. :- not #min{X : p(X)} < c.",
        "{p(1); p(2); p(f(1))}. :- #max{X : p(X)} = f(1), #min{X : p(X)} != 1.",
    ],
)
def test_aggregate_bounds_match_the_oracle(text):
    program = ground(text)
    got = {frozenset(s) for s in answer_sets(program, project=False)}
    assert got == oracle_answer_sets(program.rules)


def test_sum_beyond_machine_words():
    # the packed arrays hold Python integers of any size
    (model,) = answer_sets(ground("a. big :- #sum{4611686018427387905 : a} > 0."))
    assert model == {ClassicalAtom("a"), ClassicalAtom("big")}


def head_cycle_pairs(n):
    # one answer set, all 2n atoms, reached only through the sweep
    return " ".join(f"a{i} | b{i}. a{i} :- b{i}. b{i} :- a{i}." for i in range(n))


def test_limit_bounds_the_sweep_of_a_model():
    text = head_cycle_pairs(3)
    (model,) = answer_sets(ground(text), brute_force_limit=6)
    assert len(model) == 6
    with pytest.raises(CapacityExceeded, match="6 atoms to sweep .* brute-force limit 5"):
        answer_sets(ground(text), brute_force_limit=5)


def test_sweep_budget_covers_a_model_of_20_atoms():
    # 2^20 - 1 proper submasks, within kernel.SWEEP_BUDGET: about 3 s
    (model,) = answer_sets(ground(head_cycle_pairs(10)))
    assert len(model) == 20


def test_sweep_budget_ends_in_capacity_exceeded(monkeypatch):
    monkeypatch.setattr(kernel, "SWEEP_BUDGET", 100)
    (model,) = answer_sets(ground(head_cycle_pairs(3)))  # 63 submasks
    assert len(model) == 6
    with pytest.raises(CapacityExceeded) as caught:
        answer_sets(ground(head_cycle_pairs(4)))  # 255 submasks
    assert str(caught.value) == (
        "a model has 8 atoms to sweep for minimality, and the sweep spent its "
        "budget of 100 submasks; most atoms: a0/0 (1), a1/0 (1), a2/0 (1) "
        "and 5 more predicates"
    )


def test_head_cycle_free_program_needs_no_sweep():
    # every model of a head-cycle-free program is checked exactly
    assert len(answer_sets(ground(colouring(3, 6)), brute_force_limit=0)) == 66


def test_node_budget_ends_in_capacity_exceeded(monkeypatch):
    monkeypatch.setattr(kernel, "NODE_BUDGET", 2_000)
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded) as caught:
        answer_sets(ground(pigeonhole(8, 7)))
    assert time.perf_counter() - start < 5
    assert str(caught.value) == (
        "search spent its budget of 2000 nodes on 112 undecided atoms; "
        "most atoms: __aux_in_0/3 (56), in/2 (56)"
    )
