"""Command-line interface: subcommands, formats, and exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import aspcore2
from aspcore2 import kernel
from aspcore2.cli import main

# the command-line subprocesses import the package these tests import,
# whether it is installed or only on pytest's `pythonpath`
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(aspcore2.__file__).parents[1])}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def source(tmp_path, text, name="program.lp"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --------------------------------------------------------------------------
# Global behavior


def test_version_names_the_language(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == "ASP-Core-2"


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 64


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 64


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _out, err = run(capsys, "solve", str(tmp_path / "missing.lp"))
    assert code == 64
    assert "error" in err


def test_reads_stdin_by_default(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a."))
    code, out, _err = run(capsys, "solve", "-")
    assert code == 0
    assert out == "{a}\n"


# --------------------------------------------------------------------------
# parse


def test_parse_prints_canonical_text(capsys, tmp_path):
    path = source(tmp_path, "{a;b}<=1.  p :- 2<=#count{X:q(X)}.")
    code, out, _err = run(capsys, "parse", path)
    assert code == 0
    assert out == "{a; b} <= 1.\np :- 2 <= #count{X : q(X)}.\n"


def test_parse_reports_errors_with_position(capsys, tmp_path):
    path = source(tmp_path, "a :-")
    code, _out, err = run(capsys, "parse", path)
    assert code == 2
    assert err.startswith(f"{path}:")
    assert "expected" in err


def test_parse_rejects_lexical_garbage(capsys, tmp_path):
    path = source(tmp_path, "a & b.")
    code, _out, err = run(capsys, "parse", path)
    assert code == 2


def test_dump_tokens_format(capsys, tmp_path):
    path = source(tmp_path, "a | b.")
    code, out, _err = run(capsys, "parse", "--dump-tokens", path)
    assert code == 0
    assert out.splitlines() == [
        'ID "a" 1:1',
        'OR "|" 1:3',
        'ID "b" 1:5',
        'DOT "." 1:6',
    ]


def test_dump_tokens_positions_after_comments_and_lines(capsys, tmp_path):
    path = source(tmp_path, "a. % one\n%* two\nthree *% b :-\n\tnot c.")
    code, out, _err = run(capsys, "parse", "--dump-tokens", path)
    assert code == 0
    assert out.splitlines() == [
        'ID "a" 1:1',
        'DOT "." 1:2',
        'ID "b" 3:10',
        'CONS ":-" 3:12',
        'NAF "not" 4:2',
        'ID "c" 4:6',
        'DOT "." 4:7',
    ]


def test_dump_tokens_only_lexes(capsys, tmp_path):
    # token dump must work on token streams that do not parse
    path = source(tmp_path, "a :- :-")
    code, out, _err = run(capsys, "parse", "--dump-tokens", path)
    assert code == 0
    assert out.count("CONS") == 2


def test_ast_dump_is_json(capsys, tmp_path):
    path = source(tmp_path, "p(1) :- not q.")
    code, out, _err = run(capsys, "parse", "--ast", path)
    assert code == 0
    tree = json.loads(out)
    assert tree["type"] == "Program"
    assert tree["rules"][0]["body"][0]["naf"] is True


def test_ast_dump_golden(capsys, tmp_path):
    path = source(tmp_path, "p(1).\n  q :- not p(1). % done\n")
    code, out, _err = run(capsys, "parse", "--ast", path)
    assert code == 0

    def atom(predicate, *values):
        args = [{"type": "IntegerConstant", "value": v} for v in values]
        return {"type": "ClassicalAtom", "predicate": predicate, "args": args, "strong_negation": False}

    def span(offset, length, line, column):
        return {"type": "Span", "offset": offset, "length": length, "line": line, "column": column}

    expected = {
        "type": "Program",
        "rules": [
            {"type": "Rule", "head": [atom("p", 1)], "body": [], "span": span(0, 5, 1, 1)},
            {
                "type": "Rule",
                "head": [atom("q")],
                "body": [{"type": "NafLiteral", "atom": atom("p", 1), "naf": True}],
                "span": span(8, 14, 2, 3),
            },
        ],
        "weak_constraints": [],
        "query": None,
    }
    # Compared as text, so key order and layout are pinned too.
    assert out == json.dumps(expected, indent=2) + "\n"


# --------------------------------------------------------------------------
# check


def test_check_accepts_safe_program(capsys, tmp_path):
    path = source(tmp_path, "p(X) :- q(X). q(1).")
    code, out, err = run(capsys, "check", path)
    assert (code, out, err) == (0, "", "")


def test_check_rejects_unsafe_rule(capsys, tmp_path):
    path = source(tmp_path, "p(X) :- q(Y).")
    code, _out, err = run(capsys, "check", path)
    assert code == 3
    assert "unsafe: variable X" in err
    assert "condition (i)" in err


def test_check_rejects_recursive_aggregate(capsys, tmp_path):
    path = source(tmp_path, "p(X) :- #count{Y : p(Y)} = X, d(X). d(1).")
    code, _out, err = run(capsys, "check", path)
    assert code == 3
    assert "recursi" in err


def test_check_warns_on_arity_clash_but_passes(capsys, tmp_path):
    path = source(tmp_path, "p(1). p(1,2).")
    code, _out, err = run(capsys, "check", path)
    assert code == 0
    assert "arit" in err


def test_dump_core_shows_desugared_program(capsys, tmp_path):
    path = source(tmp_path, "{a}.")
    code, out, _err = run(capsys, "check", "--dump-core", path)
    assert code == 0
    assert "a | __aux_a_0(1)." in out
    assert "#count" in out


def test_dump_graph_lists_sorted_edges(capsys, tmp_path):
    path = source(tmp_path, "a :- b. b :- a.")
    code, out, _err = run(capsys, "check", "--dump-graph", path)
    assert code == 0
    assert out.splitlines() == [
        "edge a/0 a/0",
        "edge a/0 b/0",
        "edge b/0 a/0",
        "edge b/0 b/0",
    ]


# --------------------------------------------------------------------------
# ground


def test_ground_prints_instantiation(capsys, tmp_path):
    path = source(tmp_path, "b(1). b(2). a(X) :- b(X), X > 1.")
    code, out, _err = run(capsys, "ground", path)
    assert code == 0
    assert out == "a(2) :- b(2).\nb(1).\nb(2).\n"


def test_ground_bound_overflow_exits_4(capsys, tmp_path):
    path = source(tmp_path, "p(0). p(X+1) :- p(X).")
    code, _out, err = run(capsys, "ground", path)
    assert code == 4
    assert "p(1001)" in err
    assert "1000" in err


def test_ground_respects_max_int_flag(capsys, tmp_path):
    path = source(tmp_path, "p(0). p(X+1) :- p(X).")
    code, _out, err = run(capsys, "ground", "--max-int", "3", path)
    assert code == 4
    assert "p(4)" in err


def test_ground_naive_mode(capsys, tmp_path):
    path = source(tmp_path, "a :- 1 < 2.")
    code, out, _err = run(capsys, "ground", "--naive", "--max-int", "2", path)
    assert code == 0
    assert out == "a :- 1 < 2.\n"


def test_ground_then_solve_matches_direct_solve(capsys, tmp_path):
    text = "b(1). b(2). a(X) :- b(X), not c(X). c(1) :- b(1)."
    path = source(tmp_path, text)
    code, grounded, _err = run(capsys, "ground", path)
    assert code == 0
    reground = source(tmp_path, grounded, name="grounded.lp")
    code_a, direct, _err = run(capsys, "solve", path)
    code_b, staged, _err = run(capsys, "solve", reground)
    assert (code_a, code_b) == (0, 0)
    assert direct == staged


# --------------------------------------------------------------------------
# solve


def test_solve_prints_each_answer_set(capsys, tmp_path):
    path = source(tmp_path, "a | b.")
    code, out, _err = run(capsys, "solve", path)
    assert code == 0
    assert out == "{a}\n{b}\n"


def test_solve_empty_answer_set_prints_braces(capsys, tmp_path):
    path = source(tmp_path, "p :- p.")
    code, out, _err = run(capsys, "solve", path)
    assert code == 0
    assert out == "{}\n"


def test_solve_unsatisfiable_exits_1(capsys, tmp_path):
    path = source(tmp_path, "p :- not p.")
    code, out, _err = run(capsys, "solve", path)
    assert code == 1
    assert out == ""


def test_solve_models_limit(capsys, tmp_path):
    path = source(tmp_path, "a | b. c | d.")
    code, out, _err = run(capsys, "solve", "--models", "1", path)
    assert code == 0
    assert len(out.splitlines()) == 1
    code, out, _err = run(capsys, "solve", "--models", "0", path)
    assert len(out.splitlines()) == 4


def test_solve_capacity_exits_4(capsys, tmp_path, monkeypatch):
    # one model of 6 atoms with head cycles: the search for a smaller model
    # of its reduct runs out of nodes
    path = source(tmp_path, "a | b. a :- b. b :- a. c | d. c :- d. d :- c. e | f. e :- f. f :- e.")
    monkeypatch.setattr(kernel, "NODE_BUDGET", 8)
    code, out, err = run(capsys, "solve", path)
    assert code == 4
    assert out == ""
    assert "budget of 8 nodes on 6 undecided atoms" in err


def test_brute_force_limit_is_a_usage_error(capsys, tmp_path):
    path = source(tmp_path, "a | b. a :- b. b :- a.")
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--brute-force-limit", "4", path])
    assert excinfo.value.code == 64


def test_head_cycle_pairs_solve_from_the_command_line(tmp_path):
    # one 24-atom model with head cycles, whose minimality the search for a
    # smaller model of its reduct decides in a few milliseconds
    path = source(tmp_path, " ".join(
        f"a{i} | b{i}. a{i} :- b{i}. b{i} :- a{i}." for i in range(12)
    ))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "aspcore2", "solve", path],
        capture_output=True, text=True, timeout=30, env=CHILD_ENV,
    )
    assert time.perf_counter() - start < 15
    assert done.returncode == 0
    assert done.stdout.count(",") == 23 and done.stderr == ""


def test_closed_stdout_exits_141_quietly(tmp_path):
    # 20,000 facts print far more than a pipe holds, so writing fails once
    # the reader has gone
    path = source(tmp_path, "".join(f"f({i},{j}).\n" for i in range(200) for j in range(100)))
    with subprocess.Popen(
        [sys.executable, "-m", "aspcore2", "ground", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
    ) as process:
        first = process.stdout.readline()
        process.stdout.close()
        _out, err = process.communicate(timeout=30)
    assert first == b"f(0,0).\n"
    assert process.returncode == 141
    assert err == b""


def test_naive_grounding_over_its_budget_exits_4():
    # two element variables over the default universe: 2001^2 substitutions
    text = "b(1). b(2). h :- #sum{S : b(X), S = 2*X} > 3."
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "aspcore2", "solve", "--naive"],
        input=text, capture_output=True, text=True, timeout=30, env=CHILD_ENV,
    )
    assert time.perf_counter() - start < 5
    assert done.returncode == 4
    assert done.stdout == ""
    assert "instance budget" in done.stderr and "S, X" in done.stderr


def test_solve_opt_prints_costs(capsys, tmp_path):
    path = source(tmp_path, "a | b. :~ a. [1@0] :~ b. [2@0]")
    code, out, _err = run(capsys, "solve", "--opt", path)
    assert code == 0
    assert out == "{a}\nCOSTS 0=1\n"


def test_solve_opt_orders_levels_downward(capsys, tmp_path):
    path = source(tmp_path, "a. :~ a. [1@2] :~ a. [3@0]")
    code, out, _err = run(capsys, "solve", "--opt", path)
    assert code == 0
    assert out == "{a}\nCOSTS 2=1 0=3\n"


def test_solve_opt_without_weak_constraints(capsys, tmp_path):
    path = source(tmp_path, "a.")
    code, out, _err = run(capsys, "solve", "--opt", path)
    assert code == 0
    assert out == "{a}\nCOSTS\n"


def test_solve_projects_choice_auxiliaries(capsys, tmp_path):
    path = source(tmp_path, "{a}.")
    code, out, _err = run(capsys, "solve", path)
    assert code == 0
    assert out == "{}\n{a}\n"


def test_solve_renders_strong_negation(capsys, tmp_path):
    path = source(tmp_path, "-p(1).")
    code, out, _err = run(capsys, "solve", path)
    assert code == 0
    assert out == "{-p(1)}\n"


def test_solve_is_deterministic(capsys, tmp_path):
    text = "{a; b; c}. :- a, b."
    path = source(tmp_path, text)
    first = run(capsys, "solve", path)
    second = run(capsys, "solve", path)
    assert first == second


def test_solve_checks_safety_first(capsys, tmp_path):
    path = source(tmp_path, "p(X) :- q(Y).")
    code, _out, err = run(capsys, "solve", path)
    assert code == 3
    assert "unsafe" in err


# --------------------------------------------------------------------------
# query


def test_query_true(capsys, tmp_path):
    path = source(tmp_path, "a. b | c. a?")
    assert run(capsys, "query", path) == (0, "TRUE\n", "")


def test_query_false(capsys, tmp_path):
    path = source(tmp_path, "a. b | c. b?")
    assert run(capsys, "query", path) == (0, "FALSE\n", "")


def test_query_inconsistent(capsys, tmp_path):
    path = source(tmp_path, "a. :- a. a?")
    assert run(capsys, "query", path) == (0, "INCONSISTENT\n", "")


def test_query_substitutions(capsys, tmp_path):
    path = source(tmp_path, "p(1). p(2) | p(3). p(X)?")
    assert run(capsys, "query", path) == (0, "X=1\n", "")


def test_query_multiple_variables(capsys, tmp_path):
    path = source(tmp_path, "p(1,a). p(2,b). p(X,Y)?")
    code, out, _err = run(capsys, "query", path)
    assert code == 0
    assert out == "X=1 Y=a\nX=2 Y=b\n"


def test_query_without_query_is_usage_error(capsys, tmp_path):
    path = source(tmp_path, "a.")
    code, _out, err = run(capsys, "query", path)
    assert code == 64
    assert "no query" in err


def test_query_with_no_common_answers_prints_nothing(capsys, tmp_path):
    path = source(tmp_path, "p(1) | p(2). p(X)?")
    assert run(capsys, "query", path) == (0, "", "")
