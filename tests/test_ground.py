"""Term order, arithmetic, universe construction, and grounding."""

import hashlib
import random

import pytest

from aspcore2 import ground as ground_module
from aspcore2.analysis import check_program
from aspcore2.errors import BoundExceeded
from aspcore2.ground import (
    EQUAL,
    GREATER,
    LESS,
    UniverseBounds,
    build_universe,
    builtin_truth,
    check_atom_bounds,
    eval_arithmetic,
    ground_program,
    instantiate_element,
    relation_holds,
    term_compare,
    term_depth,
    term_sort_key,
)
from aspcore2.parser import parse_program
from aspcore2.rewrite import desugar
from aspcore2.solver import answer_sets
from aspcore2.syntax import (
    ArithmeticTerm,
    ArithOp,
    BuiltinAtom,
    ClassicalAtom,
    FunctionalTerm,
    IntegerConstant,
    NafLiteral,
    Relation,
    StringConstant,
    SymbolicConstant,
    Variable,
    aggregate_element_to_text,
    iter_subterms,
    term_to_text,
)
from generators import colouring, queens, random_ground_term, reach


def ground(text, max_int=10, max_nesting=2, naive=False):
    program = desugar(parse_program(text))
    return ground_program(program, UniverseBounds(max_int, max_nesting), naive=naive)


# --------------------------------------------------------------------------
# Total order on ground terms


def f(*args):
    return FunctionalTerm("f", tuple(args))


ONE = IntegerConstant(1)
TWO = IntegerConstant(2)

# (smaller, larger) pairs, one per clause of the order definition
ORDER_PAIRS = [
    (ONE, TWO),
    (IntegerConstant(-3), IntegerConstant(0)),
    (TWO, SymbolicConstant("abc")),
    (IntegerConstant(1000), SymbolicConstant("a")),
    (SymbolicConstant("abc"), SymbolicConstant("abd")),
    (SymbolicConstant("ab"), SymbolicConstant("abc")),
    (SymbolicConstant("abc"), StringConstant('"abc"')),
    (SymbolicConstant("zzz"), StringConstant('"a"')),
    (StringConstant('"abc"'), StringConstant('"abd"')),
    (StringConstant('"z"'), f(ONE)),
    (f(ONE), FunctionalTerm("f", (ONE, TWO))),
    (FunctionalTerm("z", (ONE,)), FunctionalTerm("a", (ONE, TWO))),
    (f(ONE), FunctionalTerm("g", (ONE,))),
    (FunctionalTerm("g", (ONE,)), FunctionalTerm("g", (TWO,))),
    (FunctionalTerm("g", (ONE, TWO)), FunctionalTerm("g", (TWO, ONE))),
]


@pytest.mark.parametrize("small,large", ORDER_PAIRS)
def test_order_pinned_pairs(small, large):
    assert term_compare(small, large) == LESS
    assert term_compare(large, small) == GREATER


def test_order_reflexive():
    for term, _ in ORDER_PAIRS:
        assert term_compare(term, term) == EQUAL


def random_terms(count):
    rng = random.Random(7)
    return [random_ground_term(rng, 2) for _ in range(count)]


def test_order_total_and_antisymmetric():
    terms = random_terms(60)
    for t in terms:
        for u in terms:
            c = term_compare(t, u)
            assert c in (LESS, EQUAL, GREATER)
            assert term_compare(u, t) == -c
            assert (c == EQUAL) == (t == u)


def test_order_transitive_sample():
    terms = random_terms(25)
    for t in terms:
        for u in terms:
            for v in terms:
                if term_compare(t, u) != GREATER and term_compare(u, v) != GREATER:
                    assert term_compare(t, v) != GREATER


def test_sort_key_agrees_with_compare():
    terms = random_terms(80)
    by_key = sorted(terms, key=term_sort_key)
    for left, right in zip(by_key, by_key[1:]):
        assert term_compare(left, right) != GREATER


def test_builtin_truth_on_terms():
    assert builtin_truth(ONE, Relation.LT, TWO)
    assert builtin_truth(SymbolicConstant("abc"), Relation.EQ, SymbolicConstant("abc"))
    assert not builtin_truth(
        SymbolicConstant("abc"), Relation.EQ, StringConstant('"abc"')
    )
    assert builtin_truth(SymbolicConstant("abc"), Relation.NE, StringConstant('"abc"'))
    assert not builtin_truth(IntegerConstant(3), Relation.GE, SymbolicConstant("a"))
    assert builtin_truth(f(ONE), Relation.GT, StringConstant('"z"'))


# --------------------------------------------------------------------------
# Arithmetic evaluation


def arith(op, *args):
    return ArithmeticTerm(op, tuple(args))


def test_division_truncates_toward_zero():
    combos = [(-7, 2, -3), (7, 2, 3), (7, -2, -3), (-7, -2, 3), (6, 3, 2)]
    for a, b, expect in combos:
        term = arith(ArithOp.DIV, IntegerConstant(a), IntegerConstant(b))
        assert eval_arithmetic(term) == IntegerConstant(expect)


def test_division_by_zero_is_undefined():
    term = arith(ArithOp.DIV, ONE, IntegerConstant(0))
    assert eval_arithmetic(term) is None


def test_symbolic_operand_is_undefined():
    term = arith(ArithOp.ADD, ONE, SymbolicConstant("a"))
    assert eval_arithmetic(term) is None


def test_unary_minus_and_nesting():
    term = arith(ArithOp.NEG, arith(ArithOp.MUL, TWO, arith(ArithOp.SUB, ONE, TWO)))
    assert eval_arithmetic(term) == TWO


def test_substitution_applied_before_evaluation():
    term = arith(ArithOp.ADD, Variable("X"), ONE)
    assert eval_arithmetic(term, {"X": TWO}) == IntegerConstant(3)


def test_unbound_variable_raises():
    with pytest.raises(ValueError):
        eval_arithmetic(Variable("X"), {})


def test_arithmetic_inside_functional_term():
    term = FunctionalTerm("f", (arith(ArithOp.ADD, ONE, ONE),))
    assert eval_arithmetic(term) == f(TWO)
    undefined = FunctionalTerm("f", (arith(ArithOp.DIV, ONE, IntegerConstant(0)),))
    assert eval_arithmetic(undefined) is None


# The grounder compiles each term it evaluates per instance (`_reader`) and
# each builtin it tests (`_test`); both must agree with the definitions.

OPERANDS = [
    IntegerConstant(0), ONE, IntegerConstant(-7), IntegerConstant(3),
    SymbolicConstant("a"), StringConstant('"s"'), f(ONE),
    Variable("X"), Variable("Y"), Variable("Z"),
]
VALUES = [IntegerConstant(0), TWO, IntegerConstant(-5), SymbolicConstant("b"), f(TWO)]


def random_arithmetic_term(rng, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice(OPERANDS)
    if roll < 0.4:
        return arith(ArithOp.NEG, random_arithmetic_term(rng, depth - 1))
    if roll < 0.5:
        return FunctionalTerm("g", (random_arithmetic_term(rng, depth - 1),))
    op = rng.choice([ArithOp.ADD, ArithOp.SUB, ArithOp.MUL, ArithOp.DIV, ArithOp.DIV])
    return arith(op, random_arithmetic_term(rng, depth - 1), random_arithmetic_term(rng, depth - 1))


def test_compiled_evaluation_agrees_with_eval_arithmetic():
    rng = random.Random(23)
    undefined = 0
    for _ in range(3000):
        term = random_arithmetic_term(rng)
        sigma = {name: rng.choice(VALUES) for name in "XYZ"}
        expected = eval_arithmetic(term, sigma)
        assert ground_module._reader(term)(sigma) == expected, term_to_text(term)
        undefined += expected is None
    assert 300 < undefined < 2700


def test_compiled_builtin_agrees_with_builtin_truth():
    rng = random.Random(31)
    for _ in range(3000):
        left, right = random_arithmetic_term(rng, 2), random_arithmetic_term(rng, 2)
        relation, naf = rng.choice(list(Relation)), rng.random() < 0.5
        sigma = {name: rng.choice(VALUES) for name in "XYZ"}
        a, b = eval_arithmetic(left, sigma), eval_arithmetic(right, sigma)
        expected = a is not None and b is not None and builtin_truth(a, relation, b) != naf
        literal = NafLiteral(BuiltinAtom(left, relation, right), naf)
        assert ground_module._test(literal)(sigma) is expected


@pytest.mark.parametrize(
    "relation, truths",
    [
        (Relation.LT, (True, False, False)),
        (Relation.LE, (True, True, False)),
        (Relation.EQ, (False, True, False)),
        (Relation.NE, (True, False, True)),
        (Relation.GT, (False, False, True)),
        (Relation.GE, (False, True, True)),
    ],
)
def test_relation_holds_on_each_comparison(relation, truths):
    assert tuple(relation_holds(c, relation) for c in (LESS, EQUAL, GREATER)) == truths


def test_is_ground_and_depth():
    # a term is ground when none of its subterms is a variable or arithmetic
    assert list(iter_subterms(f(ONE))) == [f(ONE), ONE]
    assert Variable("X") in iter_subterms(f(Variable("X")))
    assert isinstance(next(iter_subterms(arith(ArithOp.ADD, ONE, ONE))), ArithmeticTerm)
    assert term_depth(ONE) == 0
    assert term_depth(f(f(ONE))) == 2


# --------------------------------------------------------------------------
# Bounded universe


def test_universe_contents_and_order():
    program = desugar(parse_program('p(f(a)). q("s").'))
    universe = build_universe(program, UniverseBounds(1, 1))
    assert [term_to_text(t) for t in universe] == [
        "-1",
        "0",
        "1",
        "a",
        '"s"',
        "f(-1)",
        "f(0)",
        "f(1)",
        "f(a)",
        'f("s")',
    ]


def test_universe_nesting_layers():
    program = desugar(parse_program("p(f(0))."))
    shallow = build_universe(program, UniverseBounds(0, 1))
    deep = build_universe(program, UniverseBounds(0, 2))
    texts = {term_to_text(t) for t in deep}
    assert "f(f(0))" in texts
    assert "f(f(0))" not in {term_to_text(t) for t in shallow}
    assert len(deep) > len(shallow)


def test_universe_without_functors_is_constants_only():
    program = desugar(parse_program("p(3). q(b)."))
    universe = build_universe(program, UniverseBounds(2, 4))
    assert [term_to_text(t) for t in universe] == ["-2", "-1", "0", "1", "2", "3", "b"]


@pytest.mark.parametrize(
    "text,bounds",
    [
        ("p(3). q(b).", UniverseBounds(2, 4)),
        ('p(f(a)). q("s").', UniverseBounds(1, 1)),
        ("p(f(0), g(1,2)).", UniverseBounds(1, 2)),
        ("{a; b}.", UniverseBounds(2, 3)),
    ],
)
def test_universe_size_is_counted_without_building(text, bounds):
    program = desugar(parse_program(text))
    universe = ground_module._LazyUniverse(program, bounds)
    assert "terms" not in vars(universe)
    assert universe.size == len(build_universe(program, bounds))
    assert list(universe) == build_universe(program, bounds)


def test_check_atom_bounds():
    inside = ClassicalAtom("p", (IntegerConstant(5),), False)
    check_atom_bounds(inside, UniverseBounds(5, 0))
    outside = ClassicalAtom("p", (IntegerConstant(6),), False)
    with pytest.raises(BoundExceeded):
        check_atom_bounds(outside, UniverseBounds(5, 0))
    nested = ClassicalAtom("p", (f(f(ONE)),), False)
    with pytest.raises(BoundExceeded):
        check_atom_bounds(nested, UniverseBounds(5, 1))


# --------------------------------------------------------------------------
# Grounding


def test_fact_grounds_to_itself():
    assert ground("a(0).").to_text() == "a(0)."


def test_ground_text_is_sorted_and_deterministic():
    text = "b(2). b(1). a(X) :- b(X). c :- a(1), a(2)."
    first = ground(text).to_text()
    second = ground(text).to_text()
    assert first == second
    lines = first.split("\n")
    assert lines == sorted(lines)


def test_smart_grounding_drops_true_builtins():
    assert ground("a :- 1 < 2.").to_text() == "a."
    assert ground("a :- 1 > 2.").to_text() == ""


def test_naive_grounding_keeps_builtins():
    assert ground("a :- 1 < 2.", naive=True).to_text() == "a :- 1 < 2."


def test_undefined_arithmetic_discards_substitution():
    grounded = ground("a(0). p :- a(X), not q(X/X).")
    assert "p" not in grounded.to_text()
    models = answer_sets(grounded)
    assert len(models) == 1
    assert {str(a.predicate) for a in models[0]} == {"a"}


def test_delayed_arithmetic_in_body_atom():
    grounded = ground("s(3). t(2). r(X) :- s(X+1), t(X).", max_int=5)
    lines = grounded.to_text().split("\n")
    assert "r(2) :- s(3), t(2)." in lines
    assert len([line for line in lines if line.startswith("r(")]) == 1


def test_equality_aggregate_binds_guard_variable():
    text = "q(1). q(2). d(0). d(2). p(C) :- #count{X : q(X)} = C, d(C)."
    grounded = ground(text, max_int=5)
    assert "p(2) :- #count{1 : q(1); 2 : q(2)} = 2, d(2)." in grounded.to_text()
    (model,) = answer_sets(grounded)
    derived = {a for a in model if a.predicate == "p"}
    assert derived == {ClassicalAtom("p", (TWO,), False)}


def test_smart_grounding_raises_on_unbounded_recursion():
    with pytest.raises(BoundExceeded):
        ground("p(0). p(X+1) :- p(X).", max_int=5, max_nesting=0)


def test_smart_grounding_raises_on_a_binding_outside_the_universe():
    # the naive grounder ranges every variable over the universe, so it has
    # no instance with that binding; the smart one refuses instead of
    # answering differently
    text = "b(2). p :- b(Y), X = Y + 5."
    with pytest.raises(BoundExceeded) as caught:
        ground(text, max_int=2)
    assert str(caught.value) == (
        "`X = Y+5` binds X to 7, which contains integer 7 beyond the maximum 2"
    )
    wide = answer_sets(ground(text, max_int=7))
    assert wide == answer_sets(ground(text, max_int=7, naive=True))
    assert wide != answer_sets(ground(text, max_int=2, naive=True))


@pytest.mark.parametrize(
    "text,derived",
    [
        # the universe holds every integer written in the program
        ("p :- X = 100.", {"p"}),
        ("t :- T = 1500, T > 1000.", {"t"}),
        # a guard value outside the universe is skipped, not refused: the
        # sum 3 of {2, 1} is outside, the true sum 2 is not
        ("d(2). d(1). d(-1). ok :- #sum{X : d(X)} = N, N > 1.", {"ok", "d"}),
        # the true count 3 is outside, so no instance can hold, as in naive
        ("b(0). b(1). b(2). z :- #count{X : b(X)} = N, N > 1.", {"b"}),
    ],
)
def test_smart_grounding_binds_over_the_naive_universe(text, derived):
    smart = answer_sets(ground(text, max_int=2))
    assert smart == answer_sets(ground(text, max_int=2, naive=True))
    (model,) = smart
    assert {atom.predicate for atom in model} == derived


def test_naive_grounding_never_exceeds_bounds():
    grounded = ground("p(0). p(X+1) :- p(X).", max_int=5, max_nesting=0, naive=True)
    lines = grounded.to_text().split("\n")
    assert "p(6) :- p(5)." in lines
    assert "p(7) :- p(6)." not in lines


def test_smart_and_naive_agree_on_answer_sets():
    text = "b(0). b(1). c(X,Y) :- b(X), b(Y), X < Y. d(X) :- b(X), not c(X,1)."
    smart = answer_sets(ground(text, max_int=3))
    naive = answer_sets(ground(text, max_int=3, naive=True))
    assert smart == naive


# Facts and rules for random programs that exercise each argument action of
# a join plan; each rule names the action it needs
PLAN_FACTS = [
    "b(0).", "b(1).", "b(2).", "b(a).",
    "c(0,1).", "c(1,1).", "c(1,2).", "c(2,2).", "c(2,0).", "c(a,a).",
    "p(f(1)).", "p(f(a)).", "p(g(2)).", "d(1).", "d(3).",
]
PLAN_RULES = [
    "e(X) :- c(X,X).",  # a repeated fresh variable
    "e(X) :- b(X), c(X,X).",  # a repeated bound variable
    "k(X) :- b(X), c(X,1).",  # a constant after the lookup argument
    "k(Y) :- c(1,Y).",  # a constant as the lookup argument
    "k(X) :- p(f(X)).",  # a functional pattern
    "k(X) :- d(X+1), b(X).",  # an arithmetic pattern before its variable is bound
    "k(X) :- b(X), d(X+1).",  # an arithmetic lookup argument
    "m(X) :- b(X), X + 1 > 1.",  # a symbolic operand is undefined
    "m(X) :- b(X), X < 2.",  # symbolic constants follow the integers
    "n(X) :- b(X), not e(X).",  # naf
    "g(X) :- b(X), #count{Y : c(X,Y)} >= 2.",  # conditions read an outer variable
    "g(X) :- b(X), #sum{Y : c(X,Y), Y > X} >= 1.",
    "e(X) | n(X) :- c(X,Y), Y > X.",
]


def test_join_plans_agree_with_naive_on_random_programs():
    rng = random.Random(29)
    for index in range(40):
        facts = rng.sample(PLAN_FACTS, rng.randint(5, len(PLAN_FACTS)))
        text = "\n".join(facts + rng.sample(PLAN_RULES, rng.randint(2, 5)))
        smart = answer_sets(ground(text, max_int=3, max_nesting=1))
        naive = answer_sets(ground(text, max_int=3, max_nesting=1, naive=True))
        assert smart == naive, f"program {index}:\n{text}"


@pytest.mark.parametrize(
    "text", [":- #count{: a} != 1. a.", "a. :- #count{: a} != 1."]
)
def test_smart_grounding_drops_aggregates_grounded_before_their_atoms(text):
    # in the first order the constraint is grounded once before `a` is
    # derived; that instance, with no elements, must not survive
    smart = answer_sets(ground(text))
    naive = answer_sets(ground(text, naive=True))
    assert smart == naive == (frozenset({ClassicalAtom("a")}),)


def test_grounding_strips_variables():
    grounded = ground("b(1). b(2). {a(X) : b(X)} >= 1.", max_int=3)
    assert "X" not in grounded.to_text()
    assert not any(
        isinstance(sub, (Variable, ArithmeticTerm))
        for r in grounded.rules
        for a in r.head_atoms()
        for arg in a.args
        for sub in iter_subterms(arg)
    )


def test_ground_output_reparses_to_fixed_point():
    text = "b(1). b(2). a(X) :- b(X), X > 1."
    grounded = ground(text)
    again = ground(grounded.to_text())
    assert again.to_text() == grounded.to_text()


def test_weak_constraints_are_grounded():
    grounded = ground("b(1). b(2). :~ b(X). [X@0, X]")
    texts = grounded.to_text().split("\n")
    assert ":~ b(1). [1@0,1]" in texts
    assert ":~ b(2). [2@0,2]" in texts


def test_query_atom_feeds_the_universe():
    program = desugar(parse_program("p(X) :- q(X). q(c)?"))
    universe = build_universe(program, UniverseBounds(0, 0))
    assert [term_to_text(t) for t in universe] == ["0", "c"]
    grounded = ground_program(program, UniverseBounds(0, 0), naive=True)
    assert "p(c) :- q(c)." in grounded.to_text().split("\n")


def test_smart_grounding_drops_underivable_bodies():
    program = desugar(parse_program("p(X) :- q(X). q(c)?"))
    grounded = ground_program(program, UniverseBounds(0, 0))
    assert grounded.to_text() == ""


# --------------------------------------------------------------------------
# Component order, semi-naive rounds and the argument index. Each pinned
# text is the output of the pass-until-fixpoint grounder these replaced.

COMPONENT_PROGRAMS = {
    "mutual recursion": (
        "next(0,1). next(1,2). next(2,3). next(3,4). even(0)."
        " odd(Y) :- even(X), next(X,Y). even(Y) :- odd(X), next(X,Y).",
        "even(0).\n"
        "even(2) :- next(1,2), odd(1).\n"
        "even(4) :- next(3,4), odd(3).\n"
        "next(0,1).\nnext(1,2).\nnext(2,3).\nnext(3,4).\n"
        "odd(1) :- even(0), next(0,1).\n"
        "odd(3) :- even(2), next(2,3).",
    ),
    "recursion through a disjunctive head": (
        "c(0). next(0,1). next(1,2). a(X) | b(X) :- c(X). c(Y) :- a(X), next(X,Y).",
        "a(0) | b(0) :- c(0).\n"
        "a(1) | b(1) :- c(1).\n"
        "a(2) | b(2) :- c(2).\n"
        "c(0).\n"
        "c(1) :- a(0), next(0,1).\n"
        "c(2) :- a(1), next(1,2).\n"
        "next(0,1).\nnext(1,2).",
    ),
    "two-predicate cycle": ("p :- q. q :- p.", ""),
    "two-predicate cycle entered from outside": (
        "r. p :- q. q :- p. q :- r.",
        "p :- q.\nq :- p.\nq :- r.\nr.",
    ),
    "constants in bound argument positions": (
        "e(1,a). e(2,b). e(3,a). e(4,f(1)). p(X) :- e(X,a)."
        " q(X,Y) :- p(X), e(Y,a), X < Y. r(X) :- e(X,f(1)).",
        "e(1,a).\ne(2,b).\ne(3,a).\ne(4,f(1)).\n"
        "p(1) :- e(1,a).\n"
        "p(3) :- e(3,a).\n"
        "q(1,3) :- e(3,a), p(1).\n"
        "r(4) :- e(4,f(1)).",
    ),
    "recursive aggregate (rejected by the checker)": (
        "p(1). p(2) :- #count{X : p(X)} >= 1. p(3) :- #count{X : p(X)} >= 2."
        " p(4) :- #count{X : p(X)} >= 5.",
        "p(1).\n"
        "p(2) :- #count{1 : p(1); 2 : p(2); 3 : p(3); 4 : p(4)} >= 1.\n"
        "p(3) :- #count{1 : p(1); 2 : p(2); 3 : p(3); 4 : p(4)} >= 2.\n"
        "p(4) :- #count{1 : p(1); 2 : p(2); 3 : p(3); 4 : p(4)} >= 5.",
    ),
}


@pytest.mark.parametrize("name", sorted(COMPONENT_PROGRAMS))
def test_component_grounding_pinned_and_agrees_with_naive(name):
    text, expected = COMPONENT_PROGRAMS[name]
    smart = ground(text, max_int=4, max_nesting=1)
    assert smart.to_text() == expected
    naive = ground(text, max_int=4, max_nesting=1, naive=True)
    assert answer_sets(smart) == answer_sets(naive)


@pytest.mark.parametrize("max_int", [5, 6])
def test_semi_naive_rounds_stop_at_the_same_bound(max_int):
    with pytest.raises(BoundExceeded) as caught:
        ground("p(0). p(X+1) :- p(X).", max_int=max_int, max_nesting=0)
    assert str(caught.value) == (
        f"derived atom p({max_int + 1}) contains integer {max_int + 1} "
        f"beyond the maximum {max_int}"
    )


def candidate_atoms(monkeypatch, text):
    """Ground `text`, counting the candidate atoms the joins read from the
    index."""
    count = 0
    candidates = ground_module._AtomIndex.candidates

    def counting(index, signature, position, value):
        nonlocal count
        found = candidates(index, signature, position, value)
        count += len(found)
        return found

    with monkeypatch.context() as patch:
        patch.setattr(ground_module._AtomIndex, "candidates", counting)
        grounded = ground(text, max_int=100, max_nesting=0)
    return count, len(grounded.rules)


def test_grounding_work_grows_with_the_ground_program(monkeypatch):
    small_work, small_rules = candidate_atoms(monkeypatch, reach(20))
    large_work, large_rules = candidate_atoms(monkeypatch, reach(40))
    assert (small_rules, large_rules) == (230, 860)
    assert large_work / small_work <= 1.5 * large_rules / small_rules


# Pinned ground texts of the paths a plan does not take: variable-free
# statements, decided once per call, and builtins tested by a step other
# than a join. Each is the text the grounder printed before these paths.

PATH_PROGRAMS = {
    "variable-free statements": (
        "c. a :- b. b :- a. b :- c. d :- e. f :- c, 2 < 1. p(1/0). g :- p(1/0)."
        " h :- c, not e. k :- #count{X : m(X)} >= 1, c. m(1). m(2). n :- c, 1 != 2."
        " q :- c, 1/0 < 1. :~ h. [2@1] :~ a, b. [1/0@1]",
        "a :- b.\nb :- a.\nb :- c.\nc.\nh :- c, not e.\n"
        "k :- #count{1 : m(1); 2 : m(2)} >= 1, c.\nm(1).\nm(2).\nn :- c.\n:~ h. [2@1]",
    ),
    "builtins after a naf literal and at the start": (
        "b(1). b(2). b(3). c(2). r(X,Y) :- b(X), not c(X), b(Y), X < Y."
        " s :- 1 < 2, not c(1).",
        "b(1).\nb(2).\nb(3).\nc(2).\n"
        "r(1,2) :- b(1), b(2), not c(1).\n"
        "r(1,3) :- b(1), b(3), not c(1).\n"
        "r(2,3) :- b(2), b(3), not c(2).\n"
        "s :- not c(1).",
    ),
    "builtins after an aggregate": (
        "b(1). b(2). b(3). g(N) :- #count{X : b(X)} = N, N > 2."
        " g(N) :- #sum{X : b(X)} = N, N < 6.",
        "b(1).\nb(2).\nb(3).\n"
        + "".join(
            f"g({n}) :- #sum{{1 : b(1); 2 : b(2); 3 : b(3)}} = {n}.\n" for n in range(3)
        )
        + "g(3) :- #count{1 : b(1); 2 : b(2); 3 : b(3)} = 3.\n"
        + "\n".join(
            f"g({n}) :- #sum{{1 : b(1); 2 : b(2); 3 : b(3)}} = {n}." for n in range(3, 6)
        ),
    ),
    "builtins after a bind step": (
        "b(1). b(2). b(3). n(X,Y) :- b(X), Y = X + 1, Y < 4."
        " o(Y) :- b(X), Y = X * 2, Y != 4, not n(X,Y).",
        "b(1).\nb(2).\nb(3).\nn(1,2) :- b(1).\nn(2,3) :- b(2).\n"
        "o(2) :- b(1), not n(1,2).\no(6) :- b(3), not n(3,6).",
    ),
}


@pytest.mark.parametrize("name", sorted(PATH_PROGRAMS))
def test_plan_free_and_filter_paths_pinned_and_agree_with_naive(name):
    text, expected = PATH_PROGRAMS[name]
    smart = ground(text)
    assert smart.to_text() == expected
    assert answer_sets(smart) == answer_sets(ground(text, naive=True))


@pytest.mark.parametrize(
    "text, steps",
    [
        # both builtins become ready when the second atom binds X2 and Y2
        (":- q(X1,Y1), q(X2,Y2), X1 < X2, X2 - X1 = Y2 - Y1.", 2),
        # ready at the start, after a bind step and after an aggregate
        ("r :- 1 < 2, b(X), Y = X + 1, Y < 4.", 4),
        ("g(N) :- #count{X : b(X)} = N, N > 2.", 2),
    ],
)
def test_builtins_made_ready_by_a_join_run_inside_it(text, steps):
    (rule,) = desugar(parse_program(text)).rules
    plan = ground_module._Grounder(UniverseBounds())._plan(rule.body, (), rule)
    assert len(plan) == steps


# --------------------------------------------------------------------------
# Arithmetic subpatterns: a match binds only variables outside arithmetic

# `=` aggregate guards whose variable occurs only inside arithmetic; another
# literal binds it, and the guard is then a test
ARITHMETIC_GUARDS = {
    "count = X+1": (
        "q(1). q(2). r(1). r(3). p(X) :- #count{Y : q(Y)} = X+1, r(X).",
        "p(1) :- #count{1 : q(1); 2 : q(2)} = 2, r(1).\n"
        "p(3) :- #count{1 : q(1); 2 : q(2)} = 4, r(3).\n"
        "q(1).\nq(2).\nr(1).\nr(3).",
    ),
    "X+1 = count": (
        "q(1). q(2). r(1). r(3). p(X) :- X+1 = #count{Y : q(Y)}, r(X).",
        "p(1) :- #count{1 : q(1); 2 : q(2)} = 2, r(1).\n"
        "p(3) :- #count{1 : q(1); 2 : q(2)} = 4, r(3).\n"
        "q(1).\nq(2).\nr(1).\nr(3).",
    ),
    "sum = X+0": (
        "v(0). v(1). p(X) :- #sum{Y : v(Y)} = X+0, v(X).",
        "p(0) :- #sum{0 : v(0); 1 : v(1)} = 0, v(0).\n"
        "p(1) :- #sum{0 : v(0); 1 : v(1)} = 1, v(1).\nv(0).\nv(1).",
    ),
}


@pytest.mark.parametrize("name", sorted(ARITHMETIC_GUARDS))
def test_arithmetic_aggregate_guards_are_tests_not_bindings(name):
    text, expected = ARITHMETIC_GUARDS[name]
    smart = ground(text)
    assert smart.to_text() == expected
    assert answer_sets(smart) == answer_sets(ground(text, naive=True))


def test_an_arithmetic_pattern_without_a_binding_is_not_scheduled():
    program = desugar(parse_program("q(1). p(X) :- q(X+1)."))
    with pytest.raises(ValueError, match="cannot schedule body literals"):
        ground_program(program, UniverseBounds(5, 1))


# Facts and rules for random programs with arithmetic in body patterns;
# each rule names the pattern it exercises
ARITHMETIC_FACTS = [
    "b(0).", "b(1).", "b(2).", "v(0).", "v(1).", "v(2).",
    "c(0,1).", "c(1,1).", "c(1,2).", "c(2,0).",
    "k(f(0,1)).", "k(f(1,2)).", "k(f(2,2)).", "k(f(a,1)).",
]
ARITHMETIC_RULES = [
    "o(X) :- v(X+1), v(X).",  # an arithmetic argument before its variable is bound
    "o(X) :- k(f(X,Y+1)), b(Y).",  # arithmetic inside a functional pattern
    "o(X) :- k(F), f(X,X+1) = F.",  # ... on the pattern side of a bind step
    "o(Y) :- k(F), f(0,Y+1) = F, b(Y).",  # a pattern side with no variable outside arithmetic
    "o(X) :- X+1 = 2, b(X).",  # a builtin that waits for its arithmetic's variable
    "o(X) :- #count{Y : b(Y)} = X+1, v(X).",  # arithmetic guards
    "o(X) :- X+1 = #count{Y : b(Y)}, v(X).",
    "o(X) :- #sum{Y : v(Y)} = X*2, v(X).",
    "o(X) :- #max{Y : c(X,Y)} = X+1, b(X).",
    "o(X) :- b(X), not c(X,X+1).",  # arithmetic under negation
    "o(X) :- b(X), #count{Y : c(Y+1,X), b(Y)} >= 1.",  # element conditions with arithmetic
    "o(X) :- v(X), #sum{Y : v(Y+1), b(Y)} >= X.",
    "o(X) :- b(X), v(X/0).",  # division by zero
    "o(X) :- b(X), Y = X/0, v(Y).",
]


def test_arithmetic_patterns_agree_with_naive_on_random_programs():
    assert check_program(desugar(parse_program("\n".join(ARITHMETIC_RULES)))).ok
    rng = random.Random(41)
    compared = 0
    for index in range(60):
        facts = rng.sample(ARITHMETIC_FACTS, rng.randint(6, len(ARITHMETIC_FACTS)))
        text = "\n".join(facts + rng.sample(ARITHMETIC_RULES, rng.randint(2, 4)))
        try:
            naive = answer_sets(ground(text, max_int=2, max_nesting=1, naive=True))
        except BoundExceeded:
            continue
        smart = answer_sets(ground(text, max_int=2, max_nesting=1))
        assert smart == naive, f"program {index}:\n{text}"
        compared += 1
    assert compared >= 50


# --------------------------------------------------------------------------
# The ground text, byte for byte, and the program it came from

# sha256 of `to_text()` at the command line's default bounds; the same
# values as the small `ground` corpus of perfbench/corpus.py
GROUND_TEXT_SHA256 = {
    "reach-6": (reach(6), "df89901d52e70965a43aefd2c58d24a5a9eb6f357635e2031d72b7d813aaf5e1"),
    "colour3-cycle6": (
        colouring(3, 6),
        "b19bfaa406606e9c4385c04f565203de64f7aa11765b019b0990a3c472e26dfc",
    ),
    "queens-4": (queens(4), "1cf36039d05d85f51f59c8badbaed4d16305811e5b0ded4e968b8b6279d3d16d"),
}


@pytest.mark.parametrize("name", sorted(GROUND_TEXT_SHA256))
def test_ground_text_is_pinned(name):
    text, digest = GROUND_TEXT_SHA256[name]
    grounded = ground_program(desugar(parse_program(text)), UniverseBounds())
    assert hashlib.sha256(grounded.to_text().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "text",
    [
        reach(3),
        colouring(3, 4),
        queens(4),
        "a | b. a :- b. b :- a.",
        "p(1). p(2). {q(X)} :- p(X). r :- #count{X : q(X)} >= 1. :~ q(X). [X@1, X] q(X)?",
    ],
)
def test_the_pipeline_leaves_the_parsed_program_unchanged(text):
    # desugar shares unchanged statements with its input, and the grounder
    # and solver share atoms with the program: nothing may assign to a node
    program = parse_program(text)
    core = desugar(program)
    check_program(core)
    answer_sets(ground_program(core, UniverseBounds(10, 2)))
    assert program == parse_program(text)
    assert core == desugar(parse_program(text))


# --------------------------------------------------------------------------
# Aggregate element instantiation


def first_aggregate_element(text):
    rule = parse_program(text).rules[0]
    return rule.body[0].atom.elements[0]


def test_instantiate_element_over_universe():
    element = first_aggregate_element("x :- #count{X : q(X)} > 0.")
    instances = instantiate_element(element, [ONE, SymbolicConstant("a")])
    assert [aggregate_element_to_text(e) for e in instances] == [
        "1 : q(1)",
        "a : q(a)",
    ]


def test_instantiate_element_respects_context():
    element = first_aggregate_element("x :- #count{X, Y : q(X)} > 0.")
    instances = instantiate_element(element, [ONE, TWO], context={"Y": ONE})
    assert [aggregate_element_to_text(e) for e in instances] == [
        "1,1 : q(1)",
        "2,1 : q(2)",
    ]


def test_instantiate_element_keeps_false_condition_builtins():
    # instantiation enumerates substitutions; condition truth is a model-time
    # question, so instances with false builtins stay (and never contribute)
    element = first_aggregate_element("x :- #sum{S : q(X), S = 2 * X} > 0.")
    instances = instantiate_element(element, [ONE, TWO])
    assert [aggregate_element_to_text(e) for e in instances] == [
        "1 : q(1), 1 = 2",
        "1 : q(2), 1 = 4",
        "2 : q(1), 2 = 2",
        "2 : q(2), 2 = 4",
    ]


def test_instantiate_element_deduplicates():
    element = first_aggregate_element("x :- #count{1 : q(Y/Y)} > 0.")
    instances = instantiate_element(element, [ONE, TWO])
    assert [aggregate_element_to_text(e) for e in instances] == ["1 : q(1)"]
