"""Time the front-end layers one at a time on one generated program text.

Usage: python3 benchmarks/bench_frontend.py [--kbytes K] [--seed N] [--repeats R]

Builds about K kilobytes of ASP-Core-2 text from `tests/generators.py`
blocks interleaved with the query-free programs of the grammar corpus, then
times `tokenize`, the parser on the ready `Tokens` stream, `desugar` and
`check_program`, each on the previous layer's output (best of R). Next to
each time it prints how many cyclic garbage collections of generations 0, 1
and 2 that run triggered (`gc.get_stats()`), which shows the allocation
pressure of the layer; `tokenize` allocates no tracked object per token, so
its row reads 0/0/0. Before timing, it checks that `scan` gives the lexemes
of `oracle_scan`, the lexical table run literally, and `tokenize` the same
with trivia removed; that the parser gives the program and statement spans of
`oracle_parse`, the backtracking parser; and that `desugar` returns its own
output unchanged. It exits 1 if any of these does not hold.
"""

import argparse
import gc
import random
import sys
import time
from itertools import cycle
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from aspcore2.analysis import check_program
from aspcore2.lexer import TRIVIA, scan, tokenize
from aspcore2.parser import _Parser
from aspcore2.rewrite import desugar
from generators import random_nonground_program_text
from grammar_corpus import ACCEPT
from oracles import oracle_scan
from parser_oracle import oracle_parse


def program_text(rng, target_bytes):
    # A program holds at most one query, and it must come last.
    accepted = cycle(source for source, _note in ACCEPT if "?" not in source)
    parts = []
    size = 0
    while size < target_bytes:
        piece = random_nonground_program_text(rng) + "\n" + next(accepted) + "\n"
        parts.append(piece)
        size += len(piece)
    return "".join(parts)


def collections():
    return [generation["collections"] for generation in gc.get_stats()]


def best_of(repeats, fn, arg):
    """The least time of `repeats` calls, with the collections of that call."""
    samples = []
    for _ in range(repeats):
        before = collections()
        start = time.perf_counter()
        result = fn(arg)
        seconds = time.perf_counter() - start
        samples.append((seconds, [n - b for n, b in zip(collections(), before)]))
    return min(samples), result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kbytes", type=int, default=180, help="size of the text")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3, help="timings per layer")
    args = parser.parse_args(argv)

    text = program_text(random.Random(args.seed), args.kbytes * 1000)
    lexemes = oracle_scan(text)
    significant = [t for t in lexemes if t.kind not in TRIVIA]
    tokens = tokenize(text)
    agree = scan(text) == lexemes and tokens == significant
    print(f"text: {len(text)} bytes, {len(lexemes) - 1} lexemes, "
          f"{len(significant) - 1} significant; scan and tokenize agree with oracle_scan: {agree}")
    if not agree:
        return 1
    program, expected = _Parser(tokens).parse_program(), oracle_parse(significant)
    agree = program == expected and all(
        ours.span == theirs.span
        for ours, theirs in zip(program.statements(), expected.statements())
    )
    print(f"{len(program.statements())} statements; parse agrees with oracle_parse: {agree}")
    if not agree:
        return 1
    core = desugar(program)
    agree = desugar(core) == core
    print(f"{len(core.statements())} core statements; desugar is idempotent on them: {agree}")
    if not agree:
        return 1

    layers = (
        ("tokenize", tokenize),
        ("parse", lambda tokens: _Parser(tokens).parse_program()),
        ("desugar", desugar),
        ("check", check_program),
    )
    value = text
    print(f"{'layer':<10}{'best':>10}  gc collections (gen 0/1/2)")
    for name, fn in layers:
        (seconds, counts), value = best_of(args.repeats, fn, value)
        print(f"{name:<10}{seconds:>10.4f}s  {'/'.join(map(str, counts))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
