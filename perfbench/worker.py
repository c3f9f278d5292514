"""Worker process: runs the workload's programs through the command line's
call sequence, one at a time, and times each.

Protocol (one JSON object per line). The first line on stdin holds the
jobs; after it, each command line is answered on stdout:

  {"cmd": "pass", "from": i, "trace": bool}
      -> {"start": i} before program i, {"done": i, "t": ..., "probe":
         [samples, their sum], ...} after it, then {"pass_end": true,
         "layers": {...} or null, "probe": [every sample of the pass]}
  {"cmd": "finish", "spans": path}
      -> {"finish": {...}} and exit

The parent kills this process when a program overruns its limit, which also
stops a compiled loop that never returns to the interpreter.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import signal
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

from aspcore2 import analysis, cli, ground, kernel, parser, rewrite, solver  # noqa: E402
from aspcore2.errors import BoundExceeded, CapacityExceeded  # noqa: E402

from corpus import BRUTE_FORCE_LIMIT, atom_text, digest, sets_digest  # noqa: E402
from probe import chunk  # noqa: E402
from tracer import Tracer, predicate_name  # noqa: E402

# The command line's default --max-int and --max-nesting.
BOUNDS = ground.UniverseBounds(max_int=1000, max_nesting=4)


# --------------------------------------------------------------------------
# The call sequences of `aspcore2 check | ground | solve [--opt] | query`
# (see aspcore2.cli), minus argument parsing and printing. Every call goes
# through a module attribute, so the tracer's wrappers see it.


def _gate(core):
    result = analysis.check_program(core)
    result.warnings()
    return result.violations()


def _front(text):
    core = rewrite.desugar(parser.parse_program(text))
    return core, _gate(core)


def op_check(text):
    program = parser.parse_program(text)
    core = rewrite.desugar(program)
    _gate(core)
    return {"statements": len(program.statements())}


def op_ground(text):
    core, violations = _front(text)
    if violations:
        return {"violations": violations}
    program = ground.ground_program(core, bounds=BOUNDS)
    return {"program": program, "text": program.to_text()}


def _solve(text, opt):
    core, violations = _front(text)
    if violations:
        return {"violations": violations}
    program = ground.ground_program(core, bounds=BOUNDS)
    if opt:
        sets = solver.optimal_answer_sets(program, brute_force_limit=BRUTE_FORCE_LIMIT)
    else:
        sets = solver.answer_sets(program, brute_force_limit=BRUTE_FORCE_LIMIT)
    lines = []
    for interpretation in sets:
        lines.append(cli.format_interpretation(interpretation))
        if opt:
            costs = cli.weak_cost(program, interpretation)
            levels = sorted((l for l in costs if isinstance(l, int)), reverse=True)
            lines.append(" ".join(["COSTS"] + [f"{l}={costs[l]}" for l in levels]))
    return {"sets": sets, "lines": lines}


def op_query(text):
    core, violations = _front(text)
    if violations:
        return {"violations": violations}
    grounded = ground.ground_program(core, bounds=BOUNDS)
    answer = solver.answer_query(grounded, core.query, brute_force_limit=BRUTE_FORCE_LIMIT)
    if answer.status == "inconsistent":
        lines = ["INCONSISTENT"]
    elif answer.status in ("true", "false"):
        lines = [answer.status.upper()]
    else:
        lines = [
            " ".join(f"{name}={cli.term_to_text(term)}" for name, term in substitution)
            for substitution in answer.substitutions
        ]
    return {"lines": lines}


OPS = {
    "check": op_check,
    "ground": op_ground,
    "solve": lambda text: _solve(text, False),
    "solve-opt": lambda text: _solve(text, True),
    "query": op_query,
}


def observe(op: str, raw: dict, full: bool) -> dict:
    """The comparable part of an output, computed after the timer stopped."""
    if "violations" in raw:
        return {"violations": raw["violations"]}
    if op == "check":
        return {"statements": raw["statements"]}
    if op == "query":
        return {"lines": raw["lines"]}
    if op == "ground":
        program = raw["program"]
        heads = {atom for rule in program.rules for atom in rule.head}
        return {
            "rules": len(program.rules),
            "heads": dict(Counter(predicate_name(a).split(":")[0] for a in heads)),
            "text_sha256": hashlib.sha256(raw["text"].encode()).hexdigest(),
            "closure": digest(sorted(atom_text(a) for a in heads)),
        }
    sets, lines = raw["sets"], raw["lines"]
    labels = lines[1::2] if op == "solve-opt" else [""] * len(sets)
    atoms = [[atom_text(a) for a in s] for s in sets]
    out = {"count": len(sets), "sets": sets_digest(zip(atoms, labels)), "printed": len(lines)}
    if full:
        out["answers"] = atoms
    return out


# --------------------------------------------------------------------------


class SpeedProbe:
    """Runs a probe chunk on a SIGALRM every PERIOD_S while programs run.
    `spent` is the time the chunks took, which the program times exclude;
    under tracing, the innermost open span counts it as a child, so no
    layer's self time includes it. A compiled loop defers the signal; the
    samples then come from the Python code around it."""

    PERIOD_S = 0.05

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, _signum, _frame) -> None:
        took = chunk()
        self.samples.append(took)
        self.spent += took
        if self.tracer is not None and self.tracer.stack:
            self.tracer.stack[-1][1] += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _send(channel, message: dict) -> None:
    channel.write(json.dumps(message) + "\n")
    channel.flush()


def _environment() -> dict:
    return {
        "active_kernel": kernel.ACTIVE_KERNEL,
        "compiled_available": kernel.compiled_available(),
        "ASPCORE2_KERNEL": os.environ.get("ASPCORE2_KERNEL"),
        "python": platform.python_version(),
    }


def _compare_kernels(flats: list) -> dict:
    """Time kernel.solve_masks with both kernels on the same packed inputs."""
    if not kernel.compiled_available():
        return {"status": "unavailable: the compiled kernel is not built"}
    fitting = [f for f in dict.fromkeys(flats) if kernel.fits_compiled(f)]
    times = {}
    results = {}
    for name in ("compiled", "python"):
        start = perf_counter()
        results[name] = [sorted(kernel.solve_masks(f, name)) for f in fitting]
        times[name] = perf_counter() - start
    return {
        "status": "ok",
        "inputs": len(fitting),
        "agree": results["compiled"] == results["python"],
        "compiled_s": times["compiled"],
        "python_s": times["python"],
        "compiled_speedup": times["python"] / times["compiled"] if times["compiled"] else None,
    }


def main() -> int:
    channel = sys.stdout
    sys.stdout = sys.stderr  # nothing but the protocol goes to the parent
    warnings.simplefilter("ignore")
    jobs = json.loads(sys.stdin.readline())["jobs"]
    tracer = None
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "finish":
            info = {"env": _environment()}
            if tracer is not None:
                tracer.uninstall()
                tracer.write_spans(command["spans"])
                info["kernel_compare"] = _compare_kernels(tracer.flats)
            _send(channel, {"finish": info})
            return 0
        if command["trace"] and tracer is None:
            tracer = Tracer()
            tracer.keep_flats = kernel.compiled_available()
            tracer.install()
        if tracer is not None:
            tracer.pass_index += 1
        gc.collect()
        probe = SpeedProbe(tracer)
        probe.start()
        for index in range(command["from"], len(jobs)):
            job = jobs[index]
            _send(channel, {"start": index})
            if tracer is not None:
                tracer.begin_program(index)
            status, observed, error = "decided", None, None
            spent, taken = probe.spent, len(probe.samples)
            start = perf_counter()
            try:
                raw = OPS[job["op"]](job["text"])
            except (CapacityExceeded, BoundExceeded) as exc:
                status, error = "undecided", f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # reported as an error, the run goes on
                status, error = "error", f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start - (probe.spent - spent)
            row = tracer.end_program() if tracer is not None else None
            if status == "decided":
                observed = observe(job["op"], raw, job["full"])
            during = probe.samples[taken:]
            _send(channel, {"done": index, "t": elapsed, "status": status, "probe": [len(during), sum(during)],
                            "observed": observed, "error": error, "row": row})
        probe.stop()
        layers = tracer.take_layers() if tracer else None
        _send(channel, {"pass_end": True, "layers": layers, "probe": probe.samples})
    return 0


if __name__ == "__main__":
    sys.exit(main())
