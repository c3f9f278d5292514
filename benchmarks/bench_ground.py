"""Time grounding and the printing of the ground program, separately.

Usage: python3 benchmarks/bench_ground.py [--repeats R]

For reach-40 (the transitive closure of a 40-edge chain), 3-colouring a
60-cycle and 8-queens, as `tests/generators.py` writes them, and for
patterns-60, whose body atoms hold a functional pattern (matched by
unification rather than by the join plan's argument actions) and an
arithmetic one (bound to a fresh variable and checked by a builtin once
its variable is bound), and for reach-40 reground, reach-40's own ground
text (860 variable-free statements in one recursive component, grounded
without join plans), it
desugars the program once and then times `ground_program` and
`GroundProgram.to_text` (best of R each, each `to_text` on a freshly
grounded program, so that no text computed by an earlier call is reused).
It prints both times, the ground rules and the text's size. It exits 1 when the sha256 of a text
differs from its pin: the ground text is the same byte for byte at every
commit.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from aspcore2.ground import UniverseBounds, ground_program
from aspcore2.parser import parse_program
from aspcore2.rewrite import desugar
from generators import colouring, queens, reach

# sha256 of `ground_program(...).to_text()` at the command line's default
# bounds
TEXT_SHA256 = {
    "reach-40": "5f34bc10aec82cb1ad129877fff2847d5270d16731fef5c7086a7aa91966288a",
    "3-colour 60-cycle": "a9d0e13dca07397d48eee8260960a1864a2d76d1a5191d38bdf6b2f56781415e",
    "8-queens": "117d77558befdbd0e83ccb300f06866fb1dc9cfe1a29584d7123f95660dbb5dc",
    "patterns-60": "3f93dfa46d339b4c58f7030bbe6f0721514c09eda504268103462599a042234d",
}
# a ground text grounds to itself
TEXT_SHA256["reach-40 reground"] = TEXT_SHA256["reach-40"]


def patterns(n):
    """n items f(i,g(i mod 7)) and n values, joined through a functional
    pattern and through an arithmetic one whose variable is bound later."""
    facts = " ".join(f"item(f({i},g({i % 7}))). val({i})." for i in range(n))
    return facts + """
pair(X,Y) :- item(f(X,g(Y))), val(Y).
next(X) :- val(X+1), val(X)."""


def ground_text(text):
    return ground_program(desugar(parse_program(text)), UniverseBounds()).to_text()


CASES = (
    ("reach-40", reach(40)),
    ("3-colour 60-cycle", colouring(3, 60)),
    ("8-queens", queens(8)),
    ("patterns-60", patterns(60)),
    ("reach-40 reground", ground_text(reach(40))),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5, help="timings per case and stage")
    args = parser.parse_args(argv)

    status = 0
    print(f"{'program':<20}{'rules':>7}{'ground':>10}{'to_text':>10}{'bytes':>9}")
    for name, text in CASES:
        core = desugar(parse_program(text))
        ground_s = text_s = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            program = ground_program(core, UniverseBounds())
            middle = time.perf_counter()
            printed = program.to_text()
            end = time.perf_counter()
            ground_s = min(ground_s, middle - start)
            text_s = min(text_s, end - middle)
        print(f"{name:<20}{len(program.rules):>7}{ground_s:>9.4f}s{text_s:>9.4f}s{len(printed):>9}")
        if hashlib.sha256(printed.encode()).hexdigest() != TEXT_SHA256[name]:
            print(f"  {name}: the ground text differs from its pinned sha256")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
