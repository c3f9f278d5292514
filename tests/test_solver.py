"""Model checking, reducts, answer sets, optimization, and queries."""

import builtins
import dis
import itertools
import random
import types

import pytest

from aspcore2 import _packed, kernel, solver
from aspcore2._packed import pack_program
from aspcore2.errors import CapacityExceeded
from aspcore2.ground import GroundProgram, UniverseBounds, builtin_truth, ground_program
from aspcore2.parser import parse_program
from aspcore2.rewrite import desugar
from aspcore2.solver import (
    MINUS_INFINITY,
    PLUS_INFINITY,
    QueryAnswer,
    _Checker,
    answer_query,
    answer_sets,
    eval_aggregate,
    is_model,
    optimal_answer_sets,
    project_interpretation,
    reduct,
    satisfies_literal,
    weak_cost,
)
from aspcore2.syntax import (
    AggregateFunction,
    ClassicalAtom,
    IntegerConstant,
    Relation,
    StringConstant,
    SymbolicConstant,
    is_aux_name,
    make_aux_name,
)
from generators import colouring, random_ground_program
from oracles import (
    gl_answer_sets,
    oracle_answer_sets,
    oracle_body_true,
    oracle_is_model,
    oracle_optimal,
    program_atoms,
)


def ground(text, max_int=10, max_nesting=2):
    return ground_program(desugar(parse_program(text)), UniverseBounds(max_int, max_nesting))


def solve(text):
    return answer_sets(ground(text))


def atom(name, *args, neg=False):
    return ClassicalAtom(name, tuple(args), neg)


def sets_of(*collections):
    return {frozenset(c) for c in collections}


def body_literal(text):
    (rule,) = desugar(parse_program(text)).rules
    return rule.body[0]


# --------------------------------------------------------------------------
# Builtin satisfaction


def test_builtin_pinned_values():
    one, two = IntegerConstant(1), IntegerConstant(2)
    abc = SymbolicConstant("abc")
    assert builtin_truth(one, Relation.LT, two)
    assert builtin_truth(abc, Relation.EQ, abc)
    assert not builtin_truth(abc, Relation.EQ, StringConstant("abc"))
    assert not builtin_truth(IntegerConstant(3), Relation.GE, SymbolicConstant("a"))
    assert builtin_truth(one, Relation.NE, two)
    assert builtin_truth(one, Relation.LE, one)
    assert not builtin_truth(one, Relation.GT, one)


# --------------------------------------------------------------------------
# Aggregate evaluation


def elements_of(text):
    return body_literal(text).atom.elements


def test_count_respects_interpretation():
    elements = elements_of("x :- #count{1 : q(1); 2 : q(2)} > 0.")
    value = eval_aggregate(AggregateFunction.COUNT, elements, frozenset({atom("q", IntegerConstant(1))}))
    assert value == IntegerConstant(1)


def test_count_empty_is_zero():
    elements = elements_of("x :- #count{1 : q(1)} > 0.")
    assert eval_aggregate(AggregateFunction.COUNT, elements, frozenset()) == IntegerConstant(0)


def test_sum_ignores_non_integer_first_components():
    elements = elements_of("x :- #sum{2, a; 3, b; c, c} > 0.")
    assert eval_aggregate(AggregateFunction.SUM, elements, frozenset()) == IntegerConstant(5)


def test_sum_skips_empty_tuple():
    elements = elements_of("x :- #sum{: q; 4, a} > 0.")
    value = eval_aggregate(AggregateFunction.SUM, elements, frozenset({atom("q")}))
    assert value == IntegerConstant(4)


def test_duplicate_tuples_counted_once():
    elements = elements_of("x :- #sum{2 : q(1); 2 : q(2)} > 0.")
    interpretation = frozenset({atom("q", IntegerConstant(1)), atom("q", IntegerConstant(2))})
    assert eval_aggregate(AggregateFunction.SUM, elements, interpretation) == IntegerConstant(2)
    assert eval_aggregate(AggregateFunction.COUNT, elements, interpretation) == IntegerConstant(1)


def test_max_min_of_empty_set_are_infinities():
    elements = elements_of("x :- #count{1 : q(1)} > 0.")
    assert eval_aggregate(AggregateFunction.MAX, elements, frozenset()) is MINUS_INFINITY
    assert eval_aggregate(AggregateFunction.MIN, elements, frozenset()) is PLUS_INFINITY


def test_max_min_follow_term_order():
    elements = elements_of('x :- #count{1, p; a, p; "s", p} > 0.')
    interpretation = frozenset({atom("p")})
    assert eval_aggregate(AggregateFunction.MAX, elements, interpretation) == StringConstant("s")
    assert eval_aggregate(AggregateFunction.MIN, elements, interpretation) == IntegerConstant(1)


# --------------------------------------------------------------------------
# Literal satisfaction


def test_naf_atom_satisfaction():
    literal = body_literal("x :- not q(1).")
    assert satisfies_literal(literal, frozenset())
    assert not satisfies_literal(literal, frozenset({atom("q", IntegerConstant(1))}))


def test_empty_count_at_least_zero_holds():
    literal = body_literal("x :- #count{} >= 0.")
    assert satisfies_literal(literal, frozenset())


def test_negated_max_over_empty_set():
    # eval is -inf, -inf > 5 is false, naf flips to true
    literal = body_literal("x :- not #max{1 : p(1); 2 : p(2)} > 5.")
    assert satisfies_literal(literal, frozenset())
    assert not satisfies_literal(
        body_literal("x :- #max{1 : p(1)} > 5."), frozenset()
    )


def test_left_guard_flows_through_satisfaction():
    literal = body_literal("x :- 2 < #count{1, a; 2, a; 3, a : q}.")
    assert satisfies_literal(literal, frozenset({atom("q")}))
    assert not satisfies_literal(literal, frozenset())


def test_infinities_compare_below_and_above_terms():
    high = body_literal("x :- #max{1 : p} < 0.")
    assert satisfies_literal(high, frozenset())
    low = body_literal("x :- #min{1 : p} > 1000000.")
    assert satisfies_literal(low, frozenset())


# --------------------------------------------------------------------------
# Models and reducts


def test_is_model_pinned_cases():
    assert is_model(ground("a :- b."), frozenset())
    assert is_model(ground("a | b."), frozenset({atom("a")}))
    assert not is_model(ground("a | b."), frozenset())
    assert not is_model(ground("a. :- a."), frozenset({atom("a")}))


def test_reduct_keeps_rules_with_true_bodies():
    program = ground("p :- not q.")
    assert len(reduct(program, frozenset({atom("p")})).rules) == 1
    assert len(reduct(program, frozenset({atom("q")})).rules) == 0


def test_reduct_keeps_aggregate_bodies_verbatim():
    program = ground("r(1). p :- #count{X : r(X)} >= 1.")
    interpretation = frozenset({atom("r", IntegerConstant(1)), atom("p")})
    kept = reduct(program, interpretation)
    assert len(kept.rules) == 2
    assert kept.to_text() == program.to_text()


def test_facts_survive_every_reduct():
    program = ground("a. b :- not a.")
    kept = reduct(program, frozenset({atom("a")}))
    assert [r.head_atoms() for r in kept.rules] == [(atom("a"),)]
    both = reduct(program, frozenset())
    assert len(both.rules) == 2


# --------------------------------------------------------------------------
# Answer sets


def test_single_fact():
    assert set(solve("a(0).")) == sets_of({atom("a", IntegerConstant(0))})


def test_disjunctive_fact_splits():
    assert set(solve("a | b.")) == sets_of({atom("a")}, {atom("b")})


def test_self_support_gives_empty_set():
    assert set(solve("p :- p.")) == sets_of(set())


def test_odd_loop_has_no_answer_set():
    assert solve("p :- not p.") == ()


def test_disjunction_with_implication_minimizes():
    assert set(solve("a | b. a :- b.")) == sets_of({atom("a")})


def test_even_loop_gives_two_sets():
    assert set(solve("a :- not b. b :- not a.")) == sets_of({atom("a")}, {atom("b")})


def test_inconsistent_complementary_heads():
    assert solve("x. -x.") == ()
    assert set(solve("x | -x.")) == sets_of({atom("x")}, {atom("x", neg=True)})


def test_constraint_prunes():
    assert set(solve("a | b. :- a.")) == sets_of({atom("b")})


def test_aggregate_in_rule_body():
    models = solve("r(1). r(2). big :- #sum{X : r(X)} >= 3.")
    assert len(models) == 1
    assert atom("big") in models[0]


def test_results_are_sorted_and_deduplicated():
    models = solve("a | b. a | c.")
    assert list(models) == sorted(models, key=lambda i: sorted(str(a) for a in i))
    assert len(set(models)) == len(models)


def test_capacity_limit_raises(monkeypatch):
    # one model of 26 atoms with head cycles, reached in 26 nodes: the
    # search for a smaller model of its reduct spends the rest
    text = " ".join(f"a{i} | b{i}. a{i} :- b{i}. b{i} :- a{i}." for i in range(13))
    monkeypatch.setattr(kernel, "NODE_BUDGET", 40)
    with pytest.raises(CapacityExceeded):
        answer_sets(ground(text))
    assert len(answer_sets(ground(text[: text.index(".") + 1]))) == 2


QUEENS_4 = """num(1). num(2). num(3). num(4).
{q(X,Y) : num(Y)} = 1 :- num(X).
:- q(X1,Y), q(X2,Y), X1 < X2."""


def test_capacity_error_names_the_largest_predicates(monkeypatch):
    monkeypatch.setattr(kernel, "NODE_BUDGET", 10)
    with pytest.raises(CapacityExceeded) as caught:
        answer_sets(ground(QUEENS_4))
    assert str(caught.value) == (
        "search spent its budget of 10 nodes on 32 undecided atoms; "
        "most atoms: __aux_q_0/3 (16), q/2 (16)"
    )


def test_capacity_error_counts_the_predicates_not_shown(monkeypatch):
    text = "a | b. a :- b. b :- a. c | d. c :- d. d :- c. -e | f. -e :- f. f :- -e."
    monkeypatch.setattr(kernel, "NODE_BUDGET", 0)
    with pytest.raises(CapacityExceeded) as caught:
        answer_sets(ground(text))
    assert str(caught.value).endswith("most atoms: -e/0 (1), a/0 (1), b/0 (1) and 3 more predicates")


# --------------------------------------------------------------------------
# Atoms the root propagation fixes


@pytest.mark.parametrize(
    "text",
    [
        # the constraint makes `a` true at the root, yet {a, c} is not
        # minimal for its reduct and no answer set
        "a | c. c :- a. :- not a.",
        # a fact inside a head cycle
        "a | b. a :- b. b :- a. a.",
        # `#min` propagation waits on condition atoms of refuted rows
        "a | a :- not c, not #min{b,-2 : d, c; :; -2,1 :} = -2. "
        "c | b :- c, d, #min{b,3 : not c, not d; :} <= 2. "
        ":- c, b, d, #count{0,3 : a} <= 4. "
        "a | c :- not #max{: not b, c} = -2. d.",
        "a. b :- not a.",
        "x. -x :- y. y.",
        "r(1). r(2). big :- #sum{X : r(X)} >= 3.",
        "a | b :- c. c.",
    ],
)
def test_fixing_keeps_the_answer_sets(text):
    program = ground(text)
    got = {frozenset(i) for i in answer_sets(program, project=False)}
    assert got == oracle_answer_sets(program.rules)


def test_program_decided_by_its_facts_needs_no_enumeration(monkeypatch):
    edges = " ".join(f"edge({i},{i + 1})." for i in range(7))
    text = edges + " reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z)."
    monkeypatch.setattr(kernel, "NODE_BUDGET", 0)
    (model,) = answer_sets(ground(text))
    assert len(model) == 7 + 28


# --------------------------------------------------------------------------
# Verification of emitted answer sets


def test_verification_rejects_a_large_non_minimal_set(monkeypatch):
    facts = " ".join(f"f{i}." for i in range(13))
    program = ground(facts + " p | q.")
    monkeypatch.setattr(kernel, "solve_masks", lambda flat: [(1 << flat[0]) - 1])
    with pytest.raises(RuntimeError, match="not minimal"):
        answer_sets(program)


def test_verification_rejects_a_large_non_minimal_set_with_an_aggregate(monkeypatch):
    # 16 atoms and an aggregate in a rule with a head: the reduct is
    # stratified, so shifting refuses the set at any size
    facts = " ".join(f"f({i})." for i in range(13))
    program = ground(facts + " p | q. h :- #count{X : f(X)} >= 1.", max_int=20)
    monkeypatch.setattr(kernel, "solve_masks", lambda flat: [(1 << flat[0]) - 1])
    with pytest.raises(RuntimeError, match="not minimal"):
        answer_sets(program)
    assert len(answer_sets(program, verify=False)[0]) == 16


@pytest.mark.parametrize(
    "text, facts, size",
    [
        # a head cycle: {q} and the facts are a smaller model of the reduct
        ("p | q. q :- p. p :- q, r. r :- p.", 11, 14),
        # a recursive aggregate: {a} and the facts are a smaller model
        ("b :- #count{1:a; 2:b} != 1. a :- b.", 18, 20),
    ],
)
def test_verification_rejects_a_large_non_minimal_set_in_a_cyclic_component(
    monkeypatch, text, facts, size
):
    # the atoms of one cyclic component are few, however large the set
    program = ground(" ".join(f"f{i}." for i in range(facts)) + " " + text)
    monkeypatch.setattr(kernel, "solve_masks", lambda flat: [(1 << flat[0]) - 1])
    assert len(answer_sets(program, verify=False)[0]) == size
    with pytest.raises(RuntimeError, match="not minimal"):
        answer_sets(program)


@pytest.mark.parametrize(
    "text, chosen",
    [
        # the lower component {a, b} is not minimal: {a, e, p, q} is a
        # smaller model of the reduct, and {p, q} above it is minimal
        ("a | b. a :- b. b :- a, d. d | e. p | q :- a. p :- q. q :- p.", "abepq"),
        # the upper component {p, q, r} is not minimal: {a, b, q} is a
        # smaller model of the reduct, and {a, b} below it is minimal
        ("a | b. a :- b. b :- a. p | q :- a. q :- p. p :- q, r. r :- p.", "abpqr"),
    ],
)
def test_verification_checks_every_cyclic_component(text, chosen):
    program = ground(text)
    interpretation = frozenset(atom(name) for name in chosen)
    assert interpretation not in oracle_answer_sets(program.rules)
    assert len(_Checker(program)._cyclic_components()) == 2
    with pytest.raises(RuntimeError, match="not minimal"):
        _Checker(program).verify_answer_set(interpretation)


def test_every_colouring_with_a_pair_gets_its_minimality_checked(monkeypatch):
    # every set has 45 atoms, auxiliary atoms included, but only two in the
    # pair's component
    checked = []

    def smaller_model(kept, model, part):
        checked.append(len(part))
        return original(kept, model, part)

    original = solver._smaller_model
    monkeypatch.setattr(solver, "_smaller_model", smaller_model)
    sets = solve(colouring(3, 8) + " x | y. x :- y. y :- x.")
    assert len(sets) == 258 and min(map(len, sets)) > 12
    assert checked == [2] * 258


@pytest.mark.parametrize(
    "text", ["b :- #count{1:a; 2:b} != 1. a :- b.", "b :- #count{1:a} >= 1. a :- b."]
)
def test_verification_rejects_a_non_minimal_set_of_a_recursive_aggregate(monkeypatch, text):
    # {a, b} is the least model of its shifted reduct, but the reduct is
    # not stratified, and {a} or {} is a smaller model of it
    program = ground(text)
    monkeypatch.setattr(kernel, "solve_masks", lambda flat: [(1 << flat[0]) - 1])
    assert answer_sets(program, verify=False) == (frozenset({atom("a"), atom("b")}),)
    with pytest.raises(RuntimeError, match="not minimal"):
        answer_sets(program)


def test_verification_rejects_a_set_that_is_not_a_model(monkeypatch):
    # naive grounding keeps the ground builtins, so the body of the rule for
    # q holds through `1 < 2`, an aggregate whose condition holds through
    # `2 > 1`, and p; the set {p} leaves its head false
    text = "p. q :- p, 1 < 2, #count{1 : p, 2 > 1} >= 1."
    program = ground_program(desugar(parse_program(text)), UniverseBounds(2, 0), naive=True)
    assert "1 < 2" in program.to_text()
    atoms = pack_program(program).atoms
    without_q = sum(1 << i for i, a in enumerate(atoms) if a != atom("q"))
    monkeypatch.setattr(kernel, "solve_masks", lambda flat: [without_q])
    with pytest.raises(RuntimeError, match="^internal error: emitted answer set is not a model$"):
        answer_sets(program)


def test_verification_rejects_an_inconsistent_set(monkeypatch):
    program = ground("a | -a.")
    monkeypatch.setattr(kernel, "solve_masks", lambda flat: [(1 << flat[0]) - 1])
    assert answer_sets(program, verify=False) == (frozenset({atom("a"), atom("a", neg=True)}),)
    with pytest.raises(RuntimeError, match="^internal error: inconsistent answer set emitted$"):
        answer_sets(program)


def test_verification_sweeps_a_reduct_with_a_head_cycle():
    assert solve("a | b. a :- b. b :- a.") == (frozenset({atom("a"), atom("b")}),)


def _global_names(code):
    """The global names that `code` and the code nested in it load."""
    for instruction in dis.get_instructions(code):
        if instruction.opname == "LOAD_GLOBAL":
            yield instruction.argval
    for constant in code.co_consts:
        if isinstance(constant, types.CodeType):
            yield from _global_names(constant)


def test_verifier_shares_no_code_with_the_search():
    # the re-check is a cross-check only while it shares no code with the
    # search: no name it reads may resolve to `kernel` or `_packed`, or to
    # an object defined there. `kernel` and `solver` both define a
    # `_smaller_model`, so names are resolved to objects.
    functions = [f for f in vars(_Checker).values() if isinstance(f, types.FunctionType)]
    functions += [
        solver._holding,
        solver._heads_met,
        solver._smaller_model,
        solver._aggregates_hold,
        solver._least_model,
        solver._aggregate_value,
        solver._guards_hold,
        solver._is_consistent,
    ]
    search = (kernel, _packed)
    for function in functions:
        for name in _global_names(function.__code__):
            value = function.__globals__.get(name, getattr(builtins, name, None))
            assert not any(value is module for module in search), (function, name)
            defined_in = getattr(value, "__module__", None)
            assert defined_in not in {m.__name__ for m in search}, (function, name)


def test_projection_strips_auxiliary_atoms():
    models = solve("{a}.")
    assert set(models) == sets_of(set(), {atom("a")})
    unprojected = answer_sets(ground("{a}."), project=False)
    assert any(
        any(is_aux_name(a.predicate) for a in m) for m in unprojected
    )


def test_projection_can_collapse_duplicates():
    models = solve("{a}. {a}.")
    assert set(models) == sets_of(set(), {atom("a")})


# --------------------------------------------------------------------------
# Differential checks against the independent oracle


def test_matches_oracle_on_random_ground_programs():
    rng = random.Random(11)
    for _ in range(120):
        program = random_ground_program(rng)
        expected = oracle_answer_sets(program.rules)
        got = {frozenset(i) for i in answer_sets(program)}
        assert got == expected


def test_checker_accepts_exactly_the_oracle_answer_sets():
    # every subset of the program's atoms, with aggregates and builtins;
    # at most 8 atoms, so no cyclic component holds more than
    # COMPONENT_LIMIT atoms of a set
    rng = random.Random(29)
    outside = atom("z")
    for _ in range(400):
        program = random_ground_program(rng)
        rules = program.rules
        base = program_atoms(rules)
        checker = _Checker(program)
        accepted = set()
        for size in range(len(base) + 1):
            for combo in itertools.combinations(base, size):
                try:
                    checker.verify_answer_set(frozenset(combo))
                except RuntimeError:
                    continue
                accepted.add(frozenset(combo))
        assert accepted == oracle_answer_sets(rules, base)
        for _ in range(10):
            interpretation = frozenset(a for a in base if rng.random() < 0.5) | {outside}
            assert is_model(program, interpretation) == oracle_is_model(rules, interpretation)
            assert list(reduct(program, interpretation).rules) == [
                r for r in rules if oracle_body_true(r, interpretation)
            ]


def test_matches_gelfond_lifschitz_without_aggregates():
    rng = random.Random(13)
    for _ in range(80):
        program = random_ground_program(rng, with_aggregates=False)
        expected = gl_answer_sets(program.rules)
        got = {frozenset(i) for i in answer_sets(program)}
        assert got == expected


def test_naf_free_horn_program_reaches_least_fixpoint():
    rng = random.Random(17)
    for _ in range(60):
        program = random_ground_program(rng, with_aggregates=False)
        rules = tuple(
            r
            for r in program.rules
            if len(r.head_atoms()) == 1
            and all(not lit.naf for lit in r.body)
            and all(isinstance(lit.atom, ClassicalAtom) for lit in r.body)
        )
        horn = GroundProgram(rules)
        fixpoint = set()
        changed = True
        while changed:
            changed = False
            for rule in horn.rules:
                if all(lit.atom in fixpoint for lit in rule.body):
                    head = rule.head_atoms()[0]
                    if head not in fixpoint:
                        fixpoint.add(head)
                        changed = True
        models = answer_sets(horn)
        complements = {
            ClassicalAtom(a.predicate, a.args, not a.strong_negation)
            for a in fixpoint
        }
        if complements & fixpoint:
            assert models == ()
        else:
            assert set(models) == {frozenset(fixpoint)}


# --------------------------------------------------------------------------
# Weak constraints and optimality


def test_weak_cost_pinned_example():
    program = ground("a. :~ a. [1@2, x]")
    (interpretation,) = answer_sets(program)
    assert weak_cost(program, interpretation) == {2: 1}


def test_weak_tuples_deduplicate():
    program = ground("a. b. :~ a. [1@0, x] :~ b. [1@0, x]")
    (interpretation,) = answer_sets(program)
    assert weak_cost(program, interpretation) == {0: 1}


def test_distinct_tuples_accumulate():
    program = ground("a. b. :~ a. [1@0, x] :~ b. [1@0, y]")
    (interpretation,) = answer_sets(program)
    assert weak_cost(program, interpretation) == {0: 2}


def test_false_bodies_cost_nothing():
    program = ground("a. :~ not a. [5@1]")
    (interpretation,) = answer_sets(program)
    assert weak_cost(program, interpretation) == {}


def test_cost_free_weights_are_ignored_with_warning():
    program = ground("a. :~ a. [x@0]")
    (interpretation,) = answer_sets(program)
    with pytest.warns(UserWarning):
        costs = weak_cost(program, interpretation)
    assert 0 not in costs or costs[0] == 0


def test_dominates_is_lexicographic_from_highest_level():
    # the cost key of optimal_answer_sets: integer levels from the highest
    # down, a missing level counting as 0; equal keys are all optimal
    a, b = atom("a"), atom("b")
    for weak_a, weak_b, optimal in [
        ("[1@0]", "[2@0]", [{a}]),
        ("[2@0]", "[1@0]", [{b}]),
        ("[1@1]", "[1@1]", [{a}, {b}]),
        ("[0@2] :~ a. [9@0]", "[1@2]", [{a}]),
        ("[1@1]", "[2@1] :~ b. [-5@0]", [{a}]),
        ("[1@1] :~ a. [0@0]", "[1@1]", [{a}, {b}]),
    ]:
        program = ground(f"a | b. :~ a. {weak_a} :~ b. {weak_b}")
        assert [set(s) for s in optimal_answer_sets(program)] == optimal


def test_optimal_prefers_cheaper_level_zero():
    program = ground("a | b. :~ a. [1@0] :~ b. [2@0]")
    assert {frozenset(i) for i in optimal_answer_sets(program)} == sets_of({atom("a")})


def test_optimal_prefers_higher_level():
    program = ground("a | b. :~ a. [9@1] :~ b. [1@2]")
    assert {frozenset(i) for i in optimal_answer_sets(program)} == sets_of({atom("a")})


def test_without_weak_constraints_all_sets_are_optimal():
    program = ground("a | b.")
    assert optimal_answer_sets(program) == answer_sets(program)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_optimal_matches_oracle_on_random_programs():
    rng = random.Random(19)
    for _ in range(60):
        program = random_ground_program(rng, with_weaks=True)
        all_sets = oracle_answer_sets(program.rules)
        expected = oracle_optimal(program.weak_constraints, all_sets)
        got = {frozenset(i) for i in optimal_answer_sets(program)}
        assert got == expected
        if all_sets:
            assert got


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_optimal_is_the_least_cost_key_in_answer_set_order():
    rng = random.Random(53)
    for _ in range(150):
        program = random_ground_program(rng, with_weaks=True)
        expected = oracle_optimal(program.weak_constraints, oracle_answer_sets(program.rules))
        got = optimal_answer_sets(program)
        assert {frozenset(i) for i in got} == expected
        every = answer_sets(program)
        assert list(got) == [i for i in every if i in got]


def test_non_integer_level_takes_no_part_in_domination():
    program = ground("a | b. :~ a. [1@x] :~ b. [2@0]")
    with pytest.warns(UserWarning, match="non-integer level"):
        got = optimal_answer_sets(program)
    assert set(got) == sets_of({atom("a")})
    program = ground("a | b. :~ a. [5@x]")
    with pytest.warns(UserWarning, match="non-integer level"):
        assert optimal_answer_sets(program) == answer_sets(program)


# --------------------------------------------------------------------------
# Queries


def query_of(text):
    program = desugar(parse_program(text))
    grounded = ground_program(program, UniverseBounds(10, 2))
    return answer_query(grounded, program.query)


def test_ground_query_true_and_false():
    assert query_of("a. b | c. a?").status == "true"
    assert query_of("a. b | c. b?").status == "false"


def test_nonground_query_intersects_answer_sets():
    answer = query_of("p(1). p(2) | p(3). p(X)?")
    assert answer.status == "answers"
    assert answer.substitutions == ((("X", IntegerConstant(1)),),)


def test_query_on_inconsistent_program():
    answer = query_of("a. :- a. a?")
    assert answer.status == "inconsistent"
    assert answer.substitutions == ()


def test_query_with_undefined_arithmetic_is_false():
    assert query_of("p(0). p(1/0)?").status == "false"


def test_query_checks_arithmetic_against_variables_bound_in_the_match():
    facts = "p(1,2). p(2,2). p(f(2,3)). p(f(3,3)). p(a,b). "
    one, two = IntegerConstant(1), IntegerConstant(2)
    assert query_of(facts + "p(X,X+1)?").substitutions == ((("X", one),),)
    assert query_of(facts + "p(f(X,X+1))?").substitutions == ((("X", two),),)
    assert query_of(facts + "p(X+1,Y)?").substitutions == ()


def test_query_matches_strong_negation_exactly():
    assert query_of("-p(1). -p(1)?").status == "true"
    assert query_of("-p(1). p(1)?").status == "false"


def test_query_substitution_ordering():
    answer = query_of("q(2). q(1). q(X)?")
    values = [dict(s)["X"] for s in answer.substitutions]
    assert values == [IntegerConstant(1), IntegerConstant(2)]


def test_query_answer_shape():
    answer = QueryAnswer("true")
    assert answer.substitutions == ()


# --------------------------------------------------------------------------
# Projection helper


def test_project_interpretation_keeps_user_atoms():
    full = frozenset({atom("a"), atom(make_aux_name("a", 0), IntegerConstant(1))})
    assert project_interpretation(full) == frozenset({atom("a")})


def test_true_builtin_in_aggregate_condition_is_not_an_atom():
    # naive grounding keeps `S = 2*X` in the element condition; packing once
    # took it for an atom outside the candidate base and dropped the element
    text = "b(1). b(2). h :- #sum{S : b(X), S = 2*X} > 3."
    program = desugar(parse_program(text))
    bounds = UniverseBounds(max_int=4, max_nesting=0)
    naive = answer_sets(ground_program(program, bounds, naive=True))
    assert naive == answer_sets(ground_program(program, bounds))
    one, two = IntegerConstant(1), IntegerConstant(2)
    assert naive == (frozenset({atom("h"), atom("b", one), atom("b", two)}),)
