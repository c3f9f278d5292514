"""Compiled and pure enumeration kernels must be interchangeable."""

import os
import random
import re
import subprocess
import sys

import pytest

from aspcore2 import kernel
from aspcore2._fold import fold_fixed
from aspcore2._packed import pack_program
from aspcore2.ground import UniverseBounds, ground_program
from aspcore2.parser import parse_program
from aspcore2.rewrite import desugar
from aspcore2.solver import answer_sets
from generators import random_ground_program
from kernel_build import PACKAGE, missing_build_tool
from oracles import oracle_answer_sets

# conftest.py builds the extension wherever it can be compiled; only where it
# cannot may the tests that need it be skipped.
BUILD_TOOL_MISSING = missing_build_tool()
needs_compiled_kernel = pytest.mark.skipif(
    BUILD_TOOL_MISSING is not None, reason=str(BUILD_TOOL_MISSING)
)


def flat_of(text):
    program = ground_program(desugar(parse_program(text)), UniverseBounds(10, 2))
    return pack_program(program).flat()


@needs_compiled_kernel
def test_compiled_kernel_is_built():
    assert kernel.compiled_available()
    assert kernel.ACTIVE_KERNEL == "compiled"


@needs_compiled_kernel
def test_kernels_agree_on_fixed_programs():
    assert kernel.compiled_available()
    for text in [
        "a | b.",
        "p :- not p.",
        "p :- p.",
        "a :- not b. b :- not a.",
        "x. -x.",
        "r(1). r(2). big :- #sum{X : r(X)} >= 3.",
        "{a; b}. :- a, not b.",
    ]:
        flat = flat_of(text)
        compiled = kernel.solve_masks(flat, "compiled")
        pure = kernel.solve_masks(flat, "python")
        assert sorted(compiled) == sorted(pure)


@needs_compiled_kernel
def test_kernels_agree_on_random_programs():
    assert kernel.compiled_available()
    rng = random.Random(7)
    for _ in range(200):
        program = random_ground_program(rng, with_weaks=False)
        flat = pack_program(program).flat()
        compiled = kernel.solve_masks(flat, "compiled")
        pure = kernel.solve_masks(flat, "python")
        assert sorted(compiled) == sorted(pure)


@needs_compiled_kernel
def test_kernels_agree_on_folded_programs():
    assert kernel.compiled_available()
    rng = random.Random(31)
    for _ in range(200):
        program = random_ground_program(rng, with_weaks=False)
        flat = fold_fixed(pack_program(program).flat()).flat
        compiled = kernel.solve_masks(flat, "compiled")
        pure = kernel.solve_masks(flat, "python")
        assert sorted(compiled) == sorted(pure)


@needs_compiled_kernel
def test_masks_match_oracle_atom_sets():
    assert kernel.compiled_available()
    rng = random.Random(23)
    for _ in range(80):
        program = random_ground_program(rng)
        packed = pack_program(program)
        index = {atom: i for i, atom in enumerate(packed.atoms)}
        expected = set()
        for answer in oracle_answer_sets(program.rules):
            assert all(atom in index for atom in answer)
            expected.add(sum(1 << index[atom] for atom in answer))
        got = set(kernel.solve_masks(packed.flat(), "compiled"))
        assert got == expected


@needs_compiled_kernel
def test_answer_sets_with_forced_kernels_agree():
    assert kernel.compiled_available()
    rng = random.Random(29)
    for _ in range(40):
        program = random_ground_program(rng)
        compiled = answer_sets(program, kernel="compiled")
        pure = answer_sets(program, kernel="python")
        assert compiled == pure


def test_fits_compiled_size_boundary():
    empty = ((), (), (), (), (), ())
    assert kernel.fits_compiled((62, *empty))
    assert not kernel.fits_compiled((63, *empty))


def test_fits_compiled_rejects_giant_guards():
    huge = 1 << 63
    meta = (0, 0, 0, 0, 0, huge, 0, 0, 0, 0, 0, 0)
    flat = (4, (), (), (), (meta,), (), ())
    assert not kernel.fits_compiled(flat)
    small = (0, 0, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0)
    assert kernel.fits_compiled((4, (), (), (), (small,), (), ()))


def test_fits_compiled_rejects_giant_weights():
    huge = 1 << 63
    meta = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)
    flat = (4, (), (), (), (meta,), ((huge, 1, 0, 0, 0, 0),), ())
    assert not kernel.fits_compiled(flat)


def test_unfit_program_falls_back_to_pure_kernel():
    # the weight overflows the compiled kernel's accumulator, so the
    # compiled request must quietly take the pure path and still agree
    huge = (1 << 62) + 1
    flat = flat_of(f"a. big :- #sum{{{huge} : a}} > 0.")
    assert not kernel.fits_compiled(flat)
    compiled = kernel.solve_masks(flat, "compiled")
    pure = kernel.solve_masks(flat, "python")
    assert sorted(compiled) == sorted(pure)
    assert len(compiled) == 1


def test_env_override_forces_pure_kernel():
    code = "import aspcore2.kernel as k; print(k.ACTIVE_KERNEL)"
    env = dict(os.environ, ASPCORE2_KERNEL="py")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "python"


@needs_compiled_kernel
def test_env_override_requires_compiled_kernel():
    code = "import aspcore2.kernel as k; print(k.ACTIVE_KERNEL)"
    env = dict(os.environ, ASPCORE2_KERNEL="c")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "compiled"


def test_shipped_c_source_matches_pyx():
    # Cython quotes the .pyx line behind each block of generated C, marked
    # with "# <<<<<<<<<<<<<<"; setup.py compiles the shipped .c when Cython
    # is missing, so it must have been generated from the current .pyx.
    pyx = (PACKAGE / "_kernel.pyx").read_text().splitlines()
    c_lines = (PACKAGE / "_kernel.c").read_text().splitlines()
    block = re.compile(r'\s*/\* "aspcore2/_kernel\.pyx":(\d+)')
    marker = "# <<<<<<<<<<<<<<"
    quoted = set()
    for i, line in enumerate(c_lines):
        match = block.fullmatch(line)
        if match is None:
            continue
        j = i + 1
        while not c_lines[j].endswith(marker):
            assert not c_lines[j].lstrip().startswith("*/"), f"C line {i + 1}"
            j += 1
        text = c_lines[j].split(" * ", 1)[1][: -len(marker)].rstrip()
        quoted.add((int(match.group(1)), text))
    assert quoted
    stale = {(n, text) for n, text in quoted if pyx[n - 1].rstrip() != text}
    assert not stale, f"regenerate _kernel.c from _kernel.pyx: {sorted(stale)[:3]}"
