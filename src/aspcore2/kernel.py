"""Kernel selection: the search (`_search`) by default, or one of the
brute-force kernels, which test every mask of the atoms.

Asking for kernel "python" or "compiled", or setting the environment
variable ASPCORE2_KERNEL, selects a brute-force kernel: "c" requires the
compiled kernel (ImportError if missing), "py" forces the pure one. The
compiled kernel only handles programs whose packed integers fit machine
words; unsuitable programs silently use the pure kernel.
"""

from __future__ import annotations

import os

from . import _kernel_py, _search

_INT64_MAX = (1 << 62) - 1

_compiled = None
_forced = os.environ.get("ASPCORE2_KERNEL", "").strip().lower()
# ACTIVE_KERNEL: the brute-force kernel the environment selects
if _forced == "py":
    ACTIVE_KERNEL = "python"
else:
    try:
        from . import _kernel as _compiled_module

        _compiled = _compiled_module
        ACTIVE_KERNEL = "compiled"
    except ImportError:
        if _forced == "c":
            raise ImportError(
                "ASPCORE2_KERNEL=c but the compiled kernel is not built"
            ) from None
        ACTIVE_KERNEL = "python"
# what runs when no kernel is asked for: None is the search
_DEFAULT = ACTIVE_KERNEL if _forced in ("py", "c") else None


def compiled_available() -> bool:
    return _compiled is not None


def fits_compiled(flat) -> bool:
    """Whether every packed integer fits the compiled kernel's word sizes."""
    size, _conflicts, _rules, _agg_index, aggs, tuples, _conds = flat
    if size > 62:
        return False
    for meta in aggs:
        if abs(meta[5]) > _INT64_MAX or abs(meta[9]) > _INT64_MAX:
            return False
        total = 0
        for t in range(meta[10], meta[10] + meta[11]):
            weight = tuples[t][0]
            if abs(weight) > _INT64_MAX:
                return False
            total += abs(weight)
        if total > _INT64_MAX:
            return False
    return True


def served_by(flat, kernel: str | None = None) -> str:
    """The kernel `solve_masks(flat, kernel)` runs: "search", "compiled" or
    "python"."""
    choice = kernel or _DEFAULT
    if choice is None:
        return "search"
    if choice == "compiled" and _compiled is not None and fits_compiled(flat):
        return "compiled"
    return "python"


def solve_masks(
    flat, kernel: str | None = None, *, brute_force_limit: int = 24
) -> list[int]:
    """Answer-set bitmasks, ascending, from the kernel `served_by` names.

    `brute_force_limit` bounds the search's minimality sweeps; the
    brute-force kernels ignore it.
    """
    served = served_by(flat, kernel)
    if served == "search":
        return _search.solve_masks(flat, brute_force_limit=brute_force_limit)
    if served == "compiled":
        return _compiled.solve_masks(flat)
    return _kernel_py.solve_masks(flat)
