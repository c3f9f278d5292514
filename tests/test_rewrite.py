"""Rewriter: anonymous-variable naming, guard normalization, and the
choice-rule mapping into disjunctive rules plus a count constraint."""

import random

import pytest

from generators import random_nonground_program_text
from grammar_corpus import ACCEPT

from aspcore2.parser import parse_program
from aspcore2.rewrite import desugar
from aspcore2.syntax import (
    AggregateLiteral,
    ChoiceAtom,
    ClassicalAtom,
    FunctionalTerm,
    IntegerConstant,
    NafLiteral,
    Relation,
    Span,
    SymbolicConstant,
    Variable,
    statement_to_text,
    transform_statement,
)


def core_lines(text):
    program = desugar(parse_program(text))
    return [statement_to_text(s) for s in program.statements()]


def test_choice_mapping_matches_reference_shape():
    lines = core_lines("{p(a) : q(2); -p(a) : q(3)} <= 1 :- q(1).")
    assert lines == [
        "p(a) | __aux_p_0(1,a) :- q(1), q(2).",
        "-p(a) | __aux_p_0(0,a) :- q(1), q(3).",
        ":- q(1), not #count{__aux_p_0(1,a) : p(a), q(2); "
        "__aux_p_0(0,a) : -p(a), q(3)} <= 1.",
    ]


def test_choice_mapping_structure():
    program = desugar(parse_program("{p(a) : q(2); -p(a) : q(3)} <= 1 :- q(1)."))
    generator_pos, generator_neg, constraint = program.rules

    # generator for p(a): head is the atom or its polarity-tagged auxiliary
    atom, aux = generator_pos.head
    assert atom == ClassicalAtom("p", (SymbolicConstant("a"),))
    assert aux.args[0] == IntegerConstant(1)
    assert aux.args[1] == SymbolicConstant("a")
    assert aux.predicate != "p"
    assert generator_pos.body[0] == NafLiteral(
        ClassicalAtom("q", (IntegerConstant(1),))
    )

    # generator for -p(a): polarity tag is 0
    neg_atom, neg_aux = generator_neg.head
    assert neg_atom.strong_negation
    assert neg_aux.args[0] == IntegerConstant(0)
    assert neg_aux.predicate == aux.predicate

    # the constraint carries a naf'd count over the auxiliary terms
    assert constraint.head == ()
    naf_count = constraint.body[-1]
    assert isinstance(naf_count, AggregateLiteral)
    assert naf_count.naf
    assert naf_count.atom.right_guard.relation is Relation.LE
    assert naf_count.atom.right_guard.term == IntegerConstant(1)
    elements = naf_count.atom.elements
    assert len(elements) == 2
    first = elements[0]
    assert isinstance(first.terms[0], FunctionalTerm)
    assert first.terms[0].functor == aux.predicate
    assert first.condition[0].atom == ClassicalAtom("p", (SymbolicConstant("a"),))


def test_choice_condition_literals_join_the_generator_body():
    lines = core_lines("{p(X) : q(X), not r(X)}.")
    assert lines[0].endswith(":- q(X), not r(X).")


def test_two_bound_choice_splits_into_two_constraints():
    program = desugar(parse_program("1 <= {p(X) : q(X)} <= 2 :- r(X)."))
    constraints = [r for r in program.rules if r.is_constraint()]
    assert len(constraints) == 2
    texts = sorted(statement_to_text(c) for c in constraints)
    assert any(">= 1." in t for t in texts)
    assert any("<= 2." in t for t in texts)


def test_no_choice_atoms_survive_desugaring():
    program = desugar(
        parse_program("{a; b} :- c. 1 = {p(X) : q(X)}. {d : e} < 2 :- f.")
    )
    assert not any(isinstance(r.head, ChoiceAtom) for r in program.rules)


def test_aux_names_are_per_predicate():
    program = desugar(parse_program("{p(1); p(2); q(1)}."))
    aux_preds = set()
    for rule in program.rules:
        if rule.head and len(rule.head) == 2:
            aux_preds.add(rule.head[1].predicate)
    assert len(aux_preds) == 2  # one for p, one for q


def test_body_aggregate_two_guards_become_conjunction():
    lines = core_lines("a :- 0 < #count{X : b(X)} <= 3.")
    assert lines == ["a :- #count{X : b(X)} > 0, #count{X : b(X)} <= 3."]


def test_left_guard_flips_to_right():
    assert core_lines("a :- 3 > #sum{X : b(X)}.") == ["a :- #sum{X : b(X)} < 3."]
    assert core_lines("a :- 2 <= #count{X : b(X)}.") == [
        "a :- #count{X : b(X)} >= 2."
    ]


def test_anonymous_variables_get_fresh_names():
    lines = core_lines("p(_, _) :- q(_).")
    assert lines == ["p(V1,V2) :- q(V3)."]


def test_anonymous_renaming_avoids_existing_names():
    program = desugar(parse_program("p(_, V1)."))
    (rule,) = program.rules
    first, second = rule.head[0].args
    assert second == Variable("V1")
    assert isinstance(first, Variable)
    assert first.name != "V1"


def test_anonymous_in_weak_constraints_and_queries():
    assert core_lines(":~ q(_). [1@_]") == [":~ q(V1). [1@V2]"]
    assert core_lines("p(_)?") == ["p(V1)?"]


def test_anonymous_variables_are_named_in_every_term_position():
    # `_` in a choice element's atom and condition, the choice guard, both
    # aggregate guards, element terms and condition, both builtin sides,
    # inside functional and arithmetic terms, under strong negation, in the
    # weak weight, level and terms, and in a query; V1 and V2 already occur
    text = (
        "_ <= {p(_,V1) : q(_,f(_)); -r(_+1)} :- s(V2,_).\n"
        "-p(_,V1) :- q(f(_),-_), _ < _*2, _ < #count{_,V2 : r(_,V2), not -r(_)} <= _.\n"
        ":~ p(_,V1), #sum{_ : q(_)} = _. [_@_,V1,f(_)]\n"
        "-p(_,g(V1,_+_))?"
    )
    program = parse_program(text)
    core = desugar(program)
    assert [statement_to_text(s) for s in core.statements()] == [
        "p(V3,V1) | __aux_p_0(1,V3,V1) :- s(V2,V8), q(V4,f(V5)).",
        "-r(V6+1) | __aux_r_1(0,V6+1) :- s(V2,V8).",
        ":- s(V2,V8), not #count{__aux_p_0(1,V3,V1) : p(V3,V1), q(V4,f(V5)); "
        "__aux_r_1(0,V6+1) : -r(V6+1)} >= V7.",
        "-p(V3,V1) :- q(f(V4),-V5), V6 < V7*2, #count{V8,V2 : r(V9,V2), not -r(V10)} > V11, "
        "#count{V8,V2 : r(V9,V2), not -r(V10)} <= V12.",
        ":~ p(V2,V1), #sum{V3 : q(V4)} = V5. [V6@V7,V1,f(V8)]",
        "-p(V2,g(V1,V3+V4))?",
    ]
    choice, rule, weak, query = program.statements()
    spans = [s.span for s in core.statements()]
    assert spans == [choice.span] * 3 + [rule.span, weak.span, query.span]
    assert all(type(span) is Span for span in spans)


def test_transform_statement_refuses_a_node_that_is_not_a_statement():
    with pytest.raises(TypeError, match="not a statement"):
        transform_statement(ClassicalAtom("p"), lambda term: term)


def test_desugaring_is_idempotent_on_core_programs():
    program = desugar(
        parse_program("{p(a) : q(2)} <= 1 :- q(1). a :- 1 < #count{X : q(X)}.")
    )
    assert desugar(program) == program


def test_plain_rules_pass_through():
    text = "p(X) :- q(X), not r(X), X > 1."
    assert core_lines(text) == [text]


def corpus_texts():
    rng = random.Random(23)
    texts = [source for source, _note in ACCEPT]
    texts.extend(random_nonground_program_text(rng) for _ in range(500))
    return texts


def test_desugar_is_idempotent_and_keeps_core_statements_as_they_are():
    for text in corpus_texts():
        core = desugar(parse_program(text))
        again = desugar(core)
        assert again == core, text
        for before, after in zip(core.statements(), again.statements()):
            assert after is before, statement_to_text(before)


def test_statements_with_nothing_to_rewrite_are_shared_with_the_input():
    program = parse_program(
        "p(X) :- q(X), not r(X), X > 1. :- #count{X : q(X)} > 2."
        " :~ p(X). [X@1] p(X)?"
    )
    core = desugar(program)
    assert core == program
    for before, after in zip(program.statements(), core.statements()):
        assert after is before


@pytest.mark.parametrize(
    "text, expected",
    [
        ("p(X) :- q(X,_).", ["p(X) :- q(X,V1)."]),
        (":~ q(X). [1@0,_]", [":~ q(X). [1@0,V1]"]),
        ("p(_)?", ["p(V1)?"]),
        ("a :- b, 1 < #count{X : q(X)} < 3.", ["a :- b, #count{X : q(X)} > 1, #count{X : q(X)} < 3."]),
        (
            "a :- not 1 < #count{X : q(X)} < 3.",
            ["a :- not #count{X : q(X)} > 1.", "a :- not #count{X : q(X)} < 3."],
        ),
        ("a :- b, 2 <= #sum{X : q(X)}.", ["a :- b, #sum{X : q(X)} >= 2."]),
        (":~ 2 > #max{X : q(X)}. [1@0]", [":~ #max{X : q(X)} < 2. [1@0]"]),
    ],
)
def test_statements_with_something_to_rewrite_are_rebuilt(text, expected):
    program = parse_program(text)
    (statement,) = program.statements()
    core = desugar(program)
    assert [statement_to_text(s) for s in core.statements()] == expected
    assert all(s is not statement for s in core.statements())
