"""Speed probe: a fixed chunk of pure-Python work that uses no aspcore2
code, timed to read how fast the host runs this process right now.

On a shared host, other tenants slow a run by up to half for stretches of
seconds to minutes. The worker samples the probe while the programs run,
and the benchmark reports times scaled to the speed at which one chunk
takes REFERENCE_S. The chunk is the kind of work the pipeline does most:
hashing tuples, dict lookups and integer arithmetic.

This module imports nothing beyond builtins, so a fresh interpreter can
read the probe before importing aspcore2 without changing what that import
has to load.
"""

import gc
from time import perf_counter

REFERENCE_S = 0.0008  # about one chunk on an idle 2-vCPU x86-64 VM at 2.0 GHz

KEYS = tuple((i % 101, i % 13) for i in range(5000))


def chunk() -> float:
    """Seconds one chunk took. It allocates almost nothing and holds off the
    garbage collector, so it never pays for collecting the program's objects."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    table = {}
    for key in KEYS:
        table[key] = table.get(key, 0) + len(table)
    took = perf_counter() - start
    if enabled:
        gc.enable()
    return took


def speed_now(samples: int = 5) -> float:
    """Mean chunk time over a few chunks in a row."""
    return sum(chunk() for _ in range(samples)) / samples
