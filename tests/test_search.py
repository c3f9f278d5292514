"""The search kernel against the oracle."""

import itertools
import random
import re
import time

import pytest

from aspcore2 import kernel
from aspcore2._packed import pack_program
from aspcore2.errors import CapacityExceeded
from aspcore2.ground import GroundProgram, UniverseBounds, ground_program
from aspcore2.kernel import _Fixpoint
from aspcore2.parser import parse_program
from aspcore2.rewrite import desugar
from aspcore2.solver import answer_sets
from aspcore2.syntax import ClassicalAtom, IntegerConstant, NafLiteral, Rule, SymbolicConstant
from generators import (
    _random_aggregate,
    colouring,
    hamiltonian,
    queens,
    random_ground_program,
    random_query_program,
    saturation,
)
from oracles import oracle_answer_sets, program_atoms


def ground(text):
    return ground_program(desugar(parse_program(text)), UniverseBounds(1000, 4))


def random_program(rng, i):
    if i % 3 == 2:
        return random_query_program(rng)[0]
    return random_ground_program(rng, with_aggregates=i % 2 == 0)


def pigeonhole(pigeons, holes):
    facts = [f"p({i})." for i in range(1, pigeons + 1)]
    facts += [f"h({i})." for i in range(1, holes + 1)]
    return " ".join(facts) + """
{in(P,H) : h(H)} = 1 :- p(P).
:- in(P1,H), in(P2,H), P1 < P2."""


def test_search_matches_brute_force_on_folded_random_programs():
    # pack and search together, against the oracle's enumeration
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


def edges_of(text):
    return {(int(i), int(j)) for i, j in re.findall(r"edge\((\d+),(\d+)\)", text)}


def hamiltonian_reference(n, edges):
    """The `in/2` edges of each answer set of `hamiltonian`, by permutation:
    every path from 0 through all nodes, and each one closed into a cycle
    where its last node has an edge back to 0."""
    out = set()
    for order in itertools.permutations(range(1, n)):
        path = list(zip((0,) + order, order))
        if all(edge in edges for edge in path):
            out.add(frozenset(path))
            if (order[-1], 0) in edges:
                out.add(frozenset(path + [(order[-1], 0)]))
    return out


@pytest.mark.parametrize("n", [6, 8])
def test_hamiltonian_answer_sets_are_the_paths_from_node_0(n):
    text = hamiltonian(n, random.Random(3))
    got = {
        frozenset((a.args[0].value, a.args[1].value) for a in s if a.predicate == "in")
        for s in answer_sets(ground(text))
    }
    assert got == hamiltonian_reference(n, edges_of(text))


def test_hamiltonian_instances_drawn_in_turn_from_one_generator():
    rng = random.Random(3)
    texts = [hamiltonian(n, rng) for n in (8, 10, 12)]

    # extends paths from 0 edge by edge: the permutations that are paths,
    # without trying all 11! of them at n = 12
    def count(n, edges, path):
        if len(path) == n:
            return 1 + ((path[-1], 0) in edges)
        return sum(
            count(n, edges, path + [j])
            for j in range(n)
            if j not in path and (path[-1], j) in edges
        )

    counts = [count(n, edges_of(text), [0]) for n, text in zip((8, 10, 12), texts)]
    assert counts == [128, 281, 568]
    assert counts[0] == len(hamiltonian_reference(8, edges_of(texts[0])))


@pytest.mark.parametrize("n", range(1, 9))
def test_saturation_has_one_full_answer_set_exactly_when_valid(n):
    (full,) = answer_sets(ground(saturation(n, True)))
    assert len(full) == 2 * n + 1
    assert answer_sets(ground(saturation(n, False))) == ()


@pytest.mark.parametrize(
    "text, budget, message",
    [
        (
            queens(6),
            378,
            "search spent its budget of 377 nodes on 72 undecided atoms; "
            "most atoms: __aux_q_0/3 (36), q/2 (36)",
        ),
        (
            colouring(3, 6),
            450,
            "search spent its budget of 449 nodes on 36 undecided atoms; "
            "most atoms: __aux_colour_0/3 (18), colour/2 (18)",
        ),
        (
            "{a; b; c; d}. :- not 1 <= #sum{-3 : a; 2 : b; 2,c : c; -1 : d} <= 2.",
            18,
            "search spent its budget of 17 nodes on 8 undecided atoms; "
            "most atoms: __aux_a_0/1 (1), __aux_b_1/1 (1), __aux_c_2/1 (1) "
            "and 5 more predicates",
        ),
        (
            "{p(1); p(c); p(f(1))}. hi :- #max{X : p(X)} >= c. "
            "lo :- #min{X : p(X)} < c. :- hi, lo.",
            14,
            "search spent its budget of 13 nodes on 8 undecided atoms; "
            "most atoms: __aux_p_0/2 (3), p/1 (3), hi/0 (1) and 1 more predicates",
        ),
        (
            # a #max tuple without a term
            "{a; b; c}. ok :- #max{: a; 1 : b; 2 : c} >= 1. :- not ok.",
            14,
            "search spent its budget of 13 nodes on 6 undecided atoms; "
            "most atoms: __aux_a_0/1 (1), __aux_b_1/1 (1), __aux_c_2/1 (1) "
            "and 3 more predicates",
        ),
        (
            # nodes spent in the search for a smaller model as well
            colouring(3, 6) + " x | y. x :- y. y :- x.",
            714,
            "search spent its budget of 713 nodes on 38 undecided atoms; "
            "most atoms: __aux_colour_0/3 (18), colour/2 (18), x/0 (1) "
            "and 1 more predicates",
        ),
    ],
)
def test_search_size_is_pinned(monkeypatch, text, budget, message):
    # the smallest budget that decides each program: a search that grows
    # its tree on programs with facts spends more
    program = ground(text)
    monkeypatch.setattr(kernel, "NODE_BUDGET", budget)
    assert answer_sets(program)
    monkeypatch.setattr(kernel, "NODE_BUDGET", budget - 1)
    with pytest.raises(CapacityExceeded) as caught:
        answer_sets(program)
    assert str(caught.value) == message


def test_unsupported_positive_loop_stays_out():
    a, p, q = (ClassicalAtom(name) for name in "apq")
    got = answer_sets(ground("{a}. p :- q. q :- p. p :- a."))
    assert set(got) == {frozenset(), frozenset({a, p, q})}


def packed_engine(program):
    return _Fixpoint(pack_program(program).flat())


def test_head_cycle_goes_through_the_smaller_model_search():
    engine = packed_engine(ground("a | b. a :- b. b :- a."))
    assert kernel.cyclic_components(engine) == [0b11]
    (model,) = answer_sets(ground("a | b. a :- b. b :- a."))
    assert model == {ClassicalAtom("a"), ClassicalAtom("b")}


def test_aggregate_over_its_own_head_has_no_answer_set():
    # {a, b} is a model, and {a} is a smaller model of its reduct that no
    # rule supports: a search that lets support prune, or a stratification
    # that lets a condition atom share its head's component, emits {a, b}
    program = ground("b :- #count{1:a; 2:b} != 1. a :- b.")
    assert kernel.cyclic_components(packed_engine(program))
    assert kernel.solve_masks(pack_program(program).flat()) == []
    assert answer_sets(program) == ()
    assert oracle_answer_sets(program.rules) == set()


def test_aggregate_that_its_head_supports_does_not_support_the_head():
    # the condition atom a lies in b's component only through the edge
    # a -> b: without it, {a, b} passes as the least model of its shifted
    # reduct, though {} is a smaller model of the reduct
    program = ground("b :- #count{1:a} >= 1. a :- b.")
    assert kernel.cyclic_components(packed_engine(program))
    assert kernel.solve_masks(pack_program(program).flat()) == [0]
    assert answer_sets(program) == (frozenset(),)
    assert oracle_answer_sets(program.rules) == {frozenset()}


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
    # the packed rules hold Python integers of any size
    (model,) = answer_sets(ground("a. big :- #sum{4611686018427387905 : a} > 0."))
    assert model == {ClassicalAtom("a"), ClassicalAtom("big")}


def head_cycle_pairs(n):
    # one answer set, all 2n atoms, minimal only by the smaller-model search
    return " ".join(f"a{i} | b{i}. a{i} :- b{i}. b{i} :- a{i}." for i in range(n))


def test_limit_bounds_the_sweep_of_a_model(monkeypatch):
    # the bound on a model's minimality check is NODE_BUDGET: on three
    # pairs the search spends 6 nodes to reach the one model, and the
    # search for a smaller model of its reduct 6 more
    text = head_cycle_pairs(3)
    monkeypatch.setattr(kernel, "NODE_BUDGET", 12)
    (model,) = answer_sets(ground(text))
    assert len(model) == 6
    monkeypatch.setattr(kernel, "NODE_BUDGET", 11)
    with pytest.raises(CapacityExceeded) as caught:
        answer_sets(ground(text))
    assert str(caught.value) == (
        "search spent its budget of 11 nodes on 6 undecided atoms; "
        "most atoms: a0/0 (1), a1/0 (1), a2/0 (1) and 3 more predicates"
    )


def test_sweep_budget_ends_in_capacity_exceeded(monkeypatch):
    # a budget that covers the minimality check of three pairs ends the
    # check of four in CapacityExceeded
    monkeypatch.setattr(kernel, "NODE_BUDGET", 12)
    (model,) = answer_sets(ground(head_cycle_pairs(3)))
    assert len(model) == 6
    with pytest.raises(CapacityExceeded) as caught:
        answer_sets(ground(head_cycle_pairs(4)))
    assert str(caught.value) == (
        "search spent its budget of 12 nodes on 8 undecided atoms; "
        "most atoms: a0/0 (1), a1/0 (1), a2/0 (1) and 5 more predicates"
    )


def test_head_cycle_pairs_are_decided_in_under_a_second():
    start = time.perf_counter()
    (model,) = answer_sets(ground(head_cycle_pairs(12)))
    assert time.perf_counter() - start < 1
    assert len(model) == 24


def test_head_cycle_free_program_needs_no_sweep(monkeypatch):
    # every model of a head-cycle-free program is decided by its shifted
    # reduct, without a search for a smaller model
    monkeypatch.setattr(kernel, "_smaller_model", None)
    assert not kernel.cyclic_components(packed_engine(ground(colouring(3, 6))))
    assert len(answer_sets(ground(colouring(3, 6)))) == 66


def test_aggregate_rule_adds_many_to_the_colourings():
    red = [ClassicalAtom("colour", (IntegerConstant(i), SymbolicConstant("r"))) for i in range(1, 9)]
    many = ClassicalAtom("many")
    plain = answer_sets(ground(colouring(3, 8)))
    got = answer_sets(ground(colouring(3, 8) + " many :- #count{X : colour(X,r)} >= 2."))
    assert len(got) == 258
    assert set(got) == {s | {many} if sum(a in s for a in red) >= 2 else s for s in plain}


def test_aggregate_rule_adds_full_to_the_queens():
    full = ClassicalAtom("full")
    got = answer_sets(ground(queens(8) + " full :- #count{X,Y : q(X,Y)} >= 1."))
    assert len(got) == 92
    assert all(full in s for s in got)


def layered_program(rng):
    """A ground program whose rules with a head aggregate only over a lower
    layer of atoms, which no such rule defines in terms of the upper layer.
    A head cycle in the upper layer sends a program to the smaller-model
    search."""
    lower = [ClassicalAtom(name) for name in "abcd"[: rng.randint(2, 4)]]
    upper = [ClassicalAtom(name) for name in "pqr"[: rng.randint(1, 3)]]
    cycle = []
    if len(upper) > 1 and rng.random() < 0.3:
        x, y = rng.sample(upper, 2)
        cycle = [Rule((x, y), ()), Rule((x,), (NafLiteral(y),)), Rule((y,), (NafLiteral(x),))]

    def rules(heads, atoms, aggregates_over, count):
        out = []
        for _ in range(count):
            head = tuple(rng.choice(heads) for _ in range(rng.choices([0, 1, 2], [1, 5, 2])[0]))
            body = [
                NafLiteral(rng.choice(atoms), naf=rng.random() < 0.35)
                for _ in range(rng.randint(0, 2))
            ]
            if aggregates_over and rng.random() < 0.6:
                body.append(_random_aggregate(rng, aggregates_over if head else atoms))
            if head or body:
                out.append(Rule(head, tuple(body)))
        return out

    return cycle + rules(lower, lower, None, rng.randint(2, 4)) + rules(
        upper, lower + upper, lower, rng.randint(2, 5)
    )


def test_layered_aggregates_match_the_oracle():
    rng = random.Random(53)
    stratified = searched = 0
    for _ in range(2000):
        rules = layered_program(rng)
        program = GroundProgram(tuple(rules))
        if not kernel.cyclic_components(packed_engine(program)):
            stratified += 1
        else:
            searched += 1
        got = {frozenset(s) for s in answer_sets(program, project=False)}
        assert got == oracle_answer_sets(rules)
    assert stratified > 1000 and searched > 100


def with_head_cycle_pairs(rng, program):
    """`program` with one or two pairs `x | y :- L. x :- y. y :- x.` merged
    in: y is sometimes one of the program's atoms, L an optional literal
    over them, and a program atom sometimes depends on x."""
    atoms = program_atoms(program.rules) or [ClassicalAtom("a")]
    rules = list(program.rules)
    for i in range(rng.randint(1, 2)):
        x = ClassicalAtom(f"x{i}")
        y = rng.choice(atoms) if rng.random() < 0.3 else ClassicalAtom(f"y{i}")
        guard = tuple(
            NafLiteral(rng.choice(atoms), naf=rng.random() < 0.5)
            for _ in range(rng.randint(0, 1))
        )
        rules += [Rule((x, y), guard), Rule((x,), (NafLiteral(y),))]
        rules.append(Rule((y,), (NafLiteral(x),)))
        if rng.random() < 0.5:
            rules.append(Rule((rng.choice(atoms),), (NafLiteral(x),)))
    rng.shuffle(rules)
    return GroundProgram(tuple(rules))


def test_programs_with_head_cycle_pairs_match_the_oracle():
    # the search and the verifier decide minimality per cyclic component
    rng = random.Random(59)
    cyclic = 0
    for _ in range(400):
        program = with_head_cycle_pairs(
            rng, random_ground_program(rng, atom_count=rng.randint(3, 6))
        )
        cyclic += bool(kernel.cyclic_components(packed_engine(program)))
        got = {frozenset(s) for s in answer_sets(program, project=False)}
        assert got == oracle_answer_sets(program.rules)
    assert cyclic > 300


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
