"""Time the search kernel next to the brute-force kernels on identical inputs.

Usage: python3 benchmarks/bench_kernel.py [--copies N] [--programs K] [--chain N]

Generates random ground programs (merging disjoint renamed copies to widen
the candidate atom base) and the chain program `a_i :- not b_i. b_i :- not
a_i.`, packs and folds each once, then times `_search.solve_masks`, the pure
brute-force kernel and, when it is built, the compiled one over the same
folded inputs, and checks that their masks agree.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from aspcore2 import _search, kernel
from aspcore2._fold import fold_fixed
from aspcore2._packed import pack_program
from aspcore2.ground import GroundProgram
from aspcore2.syntax import ClassicalAtom, NafLiteral, Rule
from generators import random_ground_program


def renamed(rule, copy):
    def rn(atom):
        if not isinstance(atom, ClassicalAtom):
            return atom
        return ClassicalAtom(f"{atom.predicate}{copy}", atom.args, atom.strong_negation)

    head = tuple(rn(a) for a in rule.head)
    body = tuple(NafLiteral(rn(l.atom), l.naf) for l in rule.body)
    return Rule(head, body)


def folded(rules):
    return fold_fixed(pack_program(GroundProgram(tuple(rules))).flat()).flat


def generate(rng, copies, low, high):
    while True:
        rules = []
        for copy in range(copies):
            part = random_ground_program(rng, with_aggregates=False, atom_count=8)
            rules.extend(renamed(rule, copy) for rule in part.rules)
        flat = folded(rules)
        if low <= flat[0] <= high:
            return flat


def chain(n):
    rules = []
    for i in range(n):
        a, b = ClassicalAtom(f"a{i}"), ClassicalAtom(f"b{i}")
        rules += [Rule((a,), (NafLiteral(b, True),)), Rule((b,), (NafLiteral(a, True),))]
    return folded(rules)


def time_kernel(solve, flats, repeats):
    total = 0.0
    for flat in flats:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            solve(flat)
            samples.append(time.perf_counter() - start)
        total += min(samples)
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--copies", type=int, default=3, help="8-atom blocks per program")
    parser.add_argument("--min-atoms", type=int, default=14)
    parser.add_argument("--max-atoms", type=int, default=17)
    parser.add_argument("--programs", type=int, default=10, help="programs to time")
    parser.add_argument("--chain", type=int, default=9, help="pairs in the chain program")
    parser.add_argument("--repeats", type=int, default=3, help="timings per program")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    inputs = {
        "random": [
            generate(rng, args.copies, args.min_atoms, args.max_atoms)
            for _ in range(args.programs)
        ],
        f"chain-{args.chain}": [chain(args.chain)],
    }
    sizes = [flat[0] for flat in inputs["random"]]
    print(f"random programs: {len(sizes)}, open atoms {min(sizes)}-{max(sizes)}; "
          f"chain-{args.chain}: {inputs[f'chain-{args.chain}'][0][0]} open atoms")

    kernels = {
        # a limit of every atom lets no sweep refuse
        "search": lambda flat: _search.solve_masks(flat, brute_force_limit=flat[0]),
        "python": lambda flat: kernel.solve_masks(flat, "python"),
    }
    if kernel.compiled_available():
        kernels["compiled"] = lambda flat: kernel.solve_masks(flat, "compiled")
    else:
        print("compiled kernel not built; timing the pure kernels only")

    print(f"{'kernel':<10}" + "".join(f"{name:>14}" for name in inputs))
    for name, solve in kernels.items():
        times = [time_kernel(solve, flats, args.repeats) for flats in inputs.values()]
        print(f"{name:<10}" + "".join(f"{t:>13.4f}s" for t in times))
    agree = all(
        len({tuple(sorted(solve(flat))) for solve in kernels.values()}) == 1
        for flats in inputs.values()
        for flat in flats
    )
    print(f"results agree: {agree}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
