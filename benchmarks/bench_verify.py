"""Time the re-check of emitted answer sets against the definitions.

Usage: python3 benchmarks/bench_verify.py [--queens N ...] [--cycles N ...] [--repeats R]

For n-queens (default 8) and 3-colouring n-cycles (default 10 and 12), as
`tests/generators.py` writes them, each plain, with one aggregate rule
with a head (+agg: `full :- #count{X,Y : q(X,Y)} >= 1.` for queens,
`many :- #count{X : colour(X,r)} >= 2.` for colouring) and with one
head-cycle pair that shares no atom with the rest (+pair:
`x | y. x :- y. y :- x.`), grounds the program once and then times
`answer_sets` with `verify=True` and with `verify=False` (best of R each;
the two alternate, and each repeat swaps which runs first). It prints both
times and the verify share, (verified - unverified) / verified, or `noise`
where the unverified time is the larger: the host's noise then exceeds the
cost of verification. It exits 1 when a set count differs from its closed
form: the known number of n-queens solutions, or `chromatic(3, n)` proper
colourings of the cycle; the aggregate rule adds an atom to some sets and
the pair adds two to every set, and neither removes one, so the counts
hold for all three variants.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from aspcore2.ground import UniverseBounds, ground_program
from aspcore2.parser import parse_program
from aspcore2.rewrite import desugar
from aspcore2.solver import answer_sets
from generators import colouring, queens

PAIR = " x | y. x :- y. y :- x."
QUEENS_SOLUTIONS = {1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724}


def chromatic(k, n):
    """Proper k-colourings of an n-cycle."""
    return (k - 1) ** n + (-1) ** n * (k - 1)


def cases(queen_sizes, cycle_sizes):
    """(name, program text, expected number of answer sets)."""
    for n in queen_sizes:
        yield f"{n}-queens", queens(n), QUEENS_SOLUTIONS[n]
        yield f"{n}-queens +agg", queens(n) + " full :- #count{X,Y : q(X,Y)} >= 1.", QUEENS_SOLUTIONS[n]
        yield f"{n}-queens +pair", queens(n) + PAIR, QUEENS_SOLUTIONS[n]
    for n in cycle_sizes:
        yield f"3-colour {n}-cycle", colouring(3, n), chromatic(3, n)
        yield (f"3-colour {n}-cycle +agg",
               colouring(3, n) + " many :- #count{X : colour(X,r)} >= 2.", chromatic(3, n))
        yield f"3-colour {n}-cycle +pair", colouring(3, n) + PAIR, chromatic(3, n)


def best_of_pair(repeats, first, second):
    """The least time of `repeats` calls of each function, with the result
    of the last call of `first`. The calls alternate, and each repeat swaps
    which runs first, so that drift of the host's speed hits both."""
    seconds = ([], [])
    for repeat in range(repeats):
        order = (0, 1) if repeat % 2 == 0 else (1, 0)
        for which in order:
            start = time.perf_counter()
            result = (first, second)[which]()
            seconds[which].append(time.perf_counter() - start)
            if which == 0:
                kept = result
    return min(seconds[0]), min(seconds[1]), kept


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queens", type=int, nargs="*", default=[8],
                        choices=sorted(QUEENS_SOLUTIONS), help="board sizes")
    parser.add_argument("--cycles", type=int, nargs="*", default=[10, 12], help="cycle lengths")
    parser.add_argument("--repeats", type=int, default=3, help="timings per case and mode")
    args = parser.parse_args(argv)

    status = 0
    print(f"{'program':<26}{'sets':>7}{'verify':>10}{'no verify':>11}{'share':>8}")
    for name, text, expected in cases(args.queens, args.cycles):
        program = ground_program(desugar(parse_program(text)), UniverseBounds())
        verified, unverified, sets = best_of_pair(
            args.repeats,
            lambda: answer_sets(program),
            lambda: answer_sets(program, verify=False),
        )
        share = f"{(verified - unverified) / verified:.0%}" if verified >= unverified else "noise"
        print(f"{name:<26}{len(sets):>7}{verified:>9.3f}s{unverified:>10.3f}s{share:>8}")
        if len(sets) != expected:
            print(f"  {name}: {len(sets)} answer sets, expected {expected}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
