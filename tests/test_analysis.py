"""Static checks: safety, dependency graph, recursive-aggregate rejection,
arity warnings, and the undefined-arithmetic lint."""

import pytest

from aspcore2.analysis import (
    UnboundVariable,
    _is_nonzero_integer_constant,
    build_dependency_graph,
    check_aggregates_nonrecursive,
    check_arities,
    check_program,
    check_safety,
    global_variables,
    lint_undefined_arithmetic,
    signature_to_text,
)
from aspcore2.parser import parse_program
from aspcore2.rewrite import desugar
from aspcore2.syntax import (
    AggregateLiteral,
    ArithmeticTerm,
    ArithOp,
    element_variables,
    iter_statement_terms,
    iter_subterms,
)


def analyze(text):
    return check_program(desugar(parse_program(text)))


def safety_reports(text):
    program = desugar(parse_program(text))
    return [check_safety(s) for s in program.statements()]


def is_safe(text):
    return all(r.safe for r in safety_reports(text))


# --------------------------------------------------------------------------
# Safety


def test_positive_atom_binds():
    assert is_safe("p(X) :- q(X).")


def test_unrelated_variable_is_unsafe():
    assert not is_safe("p(X) :- q(Y).")


def test_naf_literal_does_not_bind():
    assert not is_safe("p(X) :- not q(X).")


def test_fact_with_variable_is_unsafe():
    assert not is_safe("p(X).")


def test_equality_binds_either_side():
    assert is_safe("p(X) :- X = 3.")
    assert is_safe("p(X) :- 3 = X.")
    assert is_safe("p(X) :- q(Y), X = Y+1.")


def test_equality_chain_binds_transitively():
    assert is_safe("p(X) :- X = Y, Y = 2.")


def test_equality_with_unbound_other_side_does_not_bind():
    assert not is_safe("p(X) :- X = Y.")


def test_non_equality_builtins_never_bind():
    assert not is_safe("p(X) :- X < 3.")
    assert not is_safe("p(X) :- q(Y), X != Y.")


def test_variable_only_inside_arithmetic_is_not_bound():
    assert not is_safe("p(X) :- q(X+1).")


def test_aggregate_equality_binds_guard():
    assert is_safe("p(N) :- #count{X : q(X)} = N.")
    # normalization flips a left = guard into a right one
    assert is_safe("p(N) :- N = #count{X : q(X)}.")


def test_aggregate_non_equality_does_not_bind():
    assert not is_safe("p(N) :- #count{X : q(X)} != N.")
    assert not is_safe("p(N) :- #count{X : q(X)} >= N.")


def test_aggregate_equality_requires_bound_elements():
    # the element variable feeds the aggregate, so r(X) must bind it elsewhere
    assert is_safe("p(N) :- d(X), #count{X : X > 0} = N.")
    assert not is_safe("p(N) :- #count{X : X > 0} = N.")


def test_local_variables_bound_within_element():
    assert is_safe("a :- #count{X : q(X)} > 0.")
    assert not is_safe("a :- #count{X : q(Y)} > 0.")


def test_global_variable_used_inside_element():
    assert is_safe("p(X) :- q(X), #count{X : r(X)} > 1.")


def test_weak_constraint_safety():
    assert is_safe(":~ q(X). [X@1,X]")
    assert not is_safe(":~ q(X). [Y@1]")


def test_query_safety():
    assert is_safe("p(X)?")
    assert not is_safe("p(X+1)?")


def test_constraint_safety():
    assert is_safe(":- q(X), X > 1.")
    assert not is_safe(":- q(X), X > Y.")


def test_choice_rules_desugar_to_safe_core():
    assert is_safe("{p(X) : q(X)} <= 2.")


def test_paper_sum_examples_classify_exactly():
    safe = "p(X,Y) :- q(X), #sum{S,X : r(T,X), S = (2*T)-X} = Y."
    unsafe = "p(X,Y) :- q(X), #sum{S,X : r(T,X), S+X = 2*T} = Y."
    assert is_safe(safe)
    reports = [r for r in safety_reports(unsafe) if not r.safe]
    assert len(reports) == 1
    message = reports[0].describe()
    assert "variable S" in message
    assert "condition (ii)" in message


def test_unsafe_diagnosis_names_condition_i():
    (report,) = [r for r in safety_reports("p(X) :- q(Y).") if not r.safe]
    assert "condition (i)" in report.describe()
    assert "variable X" in report.describe()


def test_unsafe_diagnosis_names_condition_iii():
    (report,) = [
        r
        for r in safety_reports("c(N) :- #count{X : q(X)} != N.")
        if not r.safe
    ]
    assert "condition (iii)" in report.describe()


@pytest.mark.parametrize(
    "text, unbound",
    [
        ("a :- #count{X : not p(X)} > 0.", (UnboundVariable("X", "element-local", "(i)"),)),
        (":~ a. [1@0, X]", (UnboundVariable("X", "global", "(i)"),)),
        ("a :- #sum{1 : p(X)} > 0.", ()),
        (":- #count{X: q(X)} = Y.", ()),
    ],
)
def test_safety_of_statements_with_few_or_no_global_variables(text, unbound):
    # Each has a global variable or an aggregate, so none is safe merely for
    # having nothing to bind.
    (report,) = safety_reports(text)
    assert report.unbound == unbound


def test_variable_free_statements_are_safe():
    for report in safety_reports("a. b :- a, not c. :- a, b. :~ a. [1@0] a?"):
        assert report.safe
        assert report.describe() == "safe"


@pytest.mark.parametrize(
    "text, global_names, element_names",
    [
        (
            "p(X) :- q(X), #count{Y,X : r(Y,Z)} = N, M < #sum{W : s(W,f(V))}.",
            {"X", "N", "M"},
            [{"Y", "X", "Z"}, {"W", "V"}],
        ),
        (":~ q(X), #max{Y : r(Y,Z)} > G. [W@L,T]", {"X", "G", "W", "L", "T"}, [{"Y", "Z"}]),
        ("p(X,f(Y))?", {"X", "Y"}, []),
    ],
)
def test_global_and_element_variables(text, global_names, element_names):
    # guard variables are global; element variables are not, unless they
    # also occur outside the aggregate (X in the rule)
    (statement,) = desugar(parse_program(text)).statements()
    assert global_variables(statement) == global_names
    elements = [
        element
        for literal in getattr(statement, "body", ())
        if isinstance(literal, AggregateLiteral)
        for element in literal.atom.elements
    ]
    assert [element_variables(element) for element in elements] == element_names


# --------------------------------------------------------------------------
# Dependency graph and recursive aggregates


def graph_edges(text):
    graph = build_dependency_graph(desugar(parse_program(text)))
    return {
        (signature_to_text(a), signature_to_text(b)) for a, b in graph.edges
    }


def test_graph_head_to_body_edges():
    edges = graph_edges("p(X) :- q(X), not r(X).")
    assert ("p/1", "q/1") in edges
    assert ("p/1", "r/1") in edges


def test_graph_head_head_edges_include_self():
    edges = graph_edges("a | b.")
    assert ("a/0", "b/0") in edges
    assert ("b/0", "a/0") in edges
    assert ("a/0", "a/0") in edges


def graph_components(text):
    graph = build_dependency_graph(desugar(parse_program(text)))
    return [sorted(signature_to_text(v) for v in c) for c in graph.components()]


def test_components_come_after_the_components_they_reach():
    components = graph_components(
        "e(1,2). r(X,Y) :- e(X,Y). r(X,Z) :- r(X,Y), e(Y,Z)."
        " odd(Y) :- even(X), e(X,Y). even(Y) :- odd(X), e(X,Y). even(1)."
        " top :- r(1,2), not odd(2)."
    )
    assert components == [["e/2"], ["even/1", "odd/1"], ["r/2"], ["top/0"]]


def test_components_of_a_long_chain_need_no_recursion():
    # one vertex per link: a recursive search would exceed Python's stack
    text = " ".join(f"p{i + 1} :- p{i}." for i in range(3000))
    components = graph_components(text)
    assert components == [[f"p{i}/0"] for i in range(3001)]


def test_graph_renders_auxiliary_names():
    edges = graph_edges("{a} :- b.")
    assert ("__aux_a_0/1", "b/0") in edges


def test_graph_distinguishes_strong_negation():
    edges = graph_edges("-p(X) :- q(X).")
    assert ("-p/1", "q/1") in edges
    assert ("p/1", "q/1") not in edges


def test_graph_includes_aggregate_condition_atoms():
    edges = graph_edges("a :- #count{X : b(X), not c(X)} > 0.")
    assert ("a/0", "b/1") in edges
    assert ("a/0", "c/1") in edges


def test_direct_recursive_aggregate_rejected():
    program = desugar(parse_program("p(X) :- #count{Y : p(Y)} = X, d(X)."))
    violations = check_aggregates_nonrecursive(program)
    assert len(violations) == 1
    description = violations[0].describe()
    assert "p/1" in description
    assert "recursive" in description


def test_indirect_recursive_aggregate_rejected():
    text = "a :- #count{X : b(X)} > 0. b(1) :- a."
    program = desugar(parse_program(text))
    violations = check_aggregates_nonrecursive(program)
    assert violations


def test_recursion_through_a_three_predicate_cycle_names_its_path():
    text = "a :- #count{X : b(X)} > 0. b(X) :- c(X). c(1) :- a."
    (violation,) = check_aggregates_nonrecursive(desugar(parse_program(text)))
    assert violation.describe() == (
        "aggregate over b/1 is recursive with head a/0 via b/1 -> c/1 -> a/0 "
        "in `a :- #count{X : b(X)} > 0.`"
    )


def test_recursive_aggregates_are_reported_in_source_order():
    text = (
        "p(1) | q :- #sum{X : r(X)} > 1, #count{Y : q} > 0. r(1) :- s. s :- p(1)."
        " u :- #count{X : t(X)} > 0. t(1)."
    )
    violations = analyze(text).recursive_aggregates
    assert [v.describe().split(" in ")[0] for v in violations] == [
        "aggregate over r/1 is recursive with head p/1 via r/1 -> s/0 -> p/1",
        "aggregate over r/1 is recursive with head q/0 via r/1 -> s/0 -> p/1 -> q/0",
        "aggregate over q/0 is recursive with head p/1 via q/0 -> p/1",
        "aggregate over q/0 is recursive with head q/0 via q/0 -> q/0",
    ]


def test_nonrecursive_aggregate_accepted():
    text = "a :- #count{X : b(X)} > 0. b(1) :- c."
    program = desugar(parse_program(text))
    assert check_aggregates_nonrecursive(program) == []


def test_choice_desugaring_is_not_flagged_as_recursive():
    # the count constraint mentions the generated atoms, but the generator
    # heads do not depend on the aggregate
    program = desugar(parse_program("{p(X) : q(X)} <= 1 :- r(X)."))
    assert check_aggregates_nonrecursive(program) == []


# --------------------------------------------------------------------------
# Warnings


def test_arity_warning_on_mixed_use():
    program = desugar(parse_program("p(1). p(1,2)."))
    warnings = check_arities(program)
    assert len(warnings) == 1
    assert "p" in warnings[0].describe()


def test_no_arity_warning_for_strong_negation_pair():
    program = desugar(parse_program("p(1). -p(1)."))
    assert check_arities(program) == []


def test_arithmetic_lint_flags_variable_divisor():
    program = desugar(parse_program("p(X/Y) :- q(X), r(Y)."))
    warnings = lint_undefined_arithmetic(program)
    assert len(warnings) == 1
    assert "guard" in warnings[0].describe()


def test_arithmetic_lint_flags_zero_divisor():
    program = desugar(parse_program("p(X/0) :- q(X)."))
    assert lint_undefined_arithmetic(program)


def test_arithmetic_lint_accepts_constant_divisor():
    program = desugar(parse_program("p(X/2) :- q(X). r(X/-2) :- q(X)."))
    assert lint_undefined_arithmetic(program) == []


def _divisions_by_term_walk(program):
    """The lint's reference: every subterm of every top-level term position."""
    return [
        (statement, sub)
        for statement in program.statements()
        for top in iter_statement_terms(statement)
        for sub in iter_subterms(top)
        if isinstance(sub, ArithmeticTerm)
        and sub.op is ArithOp.DIV
        and not _is_nonzero_integer_constant(sub.args[1])
    ]


def test_arithmetic_lint_finds_each_division_in_term_order():
    # A division in every term position, nested in functional and arithmetic
    # terms, with constant divisors that discharge the lint in between.
    program = desugar(parse_program(
        "p(X/Y, f(X/2, g(Y/X))) | q(X/0) :- r(X, Y/Y), X/-2 < Y/X, "
        "not s(f(1/X)), #count{X, Z : t(Z/X), Z/Y > 1} > (X+Y)/Z, Z = 1.\n"
        ":~ r(X, Y), Z = 1. [X/Y@Y/X, f(Z/X)]\n"
        "a :- #sum{X : r(X, Y)} = X/Y, r(X, Y).\n"
        "r(1/W, 2)?"
    ))
    expected = _divisions_by_term_walk(program)
    got = [(w.statement, w.term) for w in lint_undefined_arithmetic(program)]
    assert got == expected and len(got) == 14
    assert list(check_program(program).arithmetic_warnings) == lint_undefined_arithmetic(program)


# --------------------------------------------------------------------------
# Aggregate result


def test_check_program_collects_everything():
    result = analyze("p(X) :- q(Y). a :- #count{X : a} > 0. p(1,2). r(X/Y) :- q(X), s(Y).")
    assert not result.ok
    assert result.violations()
    assert result.warnings()


def test_ok_program():
    result = analyze("p(1). q(X) :- p(X).")
    assert result.ok
    assert result.violations() == []
    assert result.warnings() == []


def test_checking_then_grounding_a_program_builds_one_graph(monkeypatch):
    from aspcore2 import analysis
    from aspcore2.ground import ground_program

    core = desugar(parse_program("p(1). q(X) :- p(X). r :- #count{X : q(X)} >= 1."))
    walk = analysis._walk
    walks = []
    monkeypatch.setattr(analysis, "_walk", lambda statements: walks.append(1) or walk(statements))
    graph = check_program(core).graph
    ground_program(core)
    assert build_dependency_graph(core) is graph
    assert graph.components() is graph.components()
    assert len(walks) == 1
