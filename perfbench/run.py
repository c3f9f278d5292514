"""End-to-end and per-layer benchmark of the aspcore2 pipeline.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It drives the call sequence of `aspcore2 check | ground | solve [--opt] |
query` as a closed loop with one client: one program at a time, in one
worker process, no threads. A pass runs every program of the workload's
corpus once; passes repeat for S seconds. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The lines before
it print every metric by name, unit and direction, the run environment, and
the path of the full report under .perfbench-out/.

Workloads (why each is here):
  frontend  one ~180 KB generated text through tokenize, parse, desugar and
            check: the only workload where the front-end layers do the work.
  ground    reach-40 (recursive closure), 3-colouring a 60-cycle (choice
            desugaring, wide joins) and 8-queens (arithmetic builtins)
            through `ground` and to_text; it never solves.
  solve     chain-8/9 (bound by verification), reach-5 (bound by the
            kernel) and 1000 seeded random programs through solve,
            solve --opt and query (per-call overhead).
  capacity  textbook programs just above the 24-atom limit; today every one
            ends in CapacityExceeded.

--trace 0 reports the end-to-end metrics. --trace 1 spends half the time
untraced and half with spans around aspcore2's public calls (tracer.py) and
reports the per-layer metrics, the tracing overhead, and one row per program.

Times are scaled to a reference host speed (probe.py): on a shared host,
other tenants slow a run by up to half for minutes at a time, and a probe
sampled every 50 ms while the programs run measures by how much. A program
is scaled by the samples taken during it, or by its pass's when it is too
short for three; pass_s is the median over passes of the scaled pass time.
setup_s scales each import by probe readings taken just before and after
it. The report keeps the wall times.

A program is undecided when it ends in CapacityExceeded or BoundExceeded or
runs over its workload's limit (corpus.LIMITS); the parent then kills the
worker, which also stops a compiled loop deaf to signals. An undecided
program is charged its limit on top of the time it took to end, so pass_s
is never a constant and deciding a program always lowers it. Outputs are
checked against references computed before the timed passes (corpus.py);
a wrong output or an unexpected exception is an error.

The random --opt programs of `solve` leave out, and count, those that
aspcore2's grounder would ground with a stale aggregate instance, a known
defect that gives wrong answer sets (corpus._stale_aggregate); the report
and the printed lines give the count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import probe

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 7
HARD_STOP_S = 150.0  # the run must end within 180 s whatever the program does
START_TIMEOUT_S = 60.0  # a worker that does not even start a program is broken
GRACE_S = 0.5
SET_ASIDE_WHY = "grounded with a stale aggregate instance (known grounder defect, see corpus._stale_aggregate)"

# name: (unit, better, what it measures)
END_TO_END = {
    "setup_s": ("s", "lower", "import aspcore2 and aspcore2.cli in a fresh interpreter at reference speed, median"),
    "pass_s": ("s", "lower", "one pass over the corpus at reference speed, undecided programs charged their limit, median"),
    "decided_share": ("fraction", "higher", "program runs that reached a verdict within the limit"),
    "error_share": ("fraction", "lower", "program runs with a wrong output or an unexpected exception; must be 0"),
    "peak_rss_mb": ("MiB", "lower", "peak resident memory of the worker process"),
}
# decided_share and error_share can be 0, so they are printed but left out
# of the JSON metrics; `failed` carries the errors.
REPORTED = ("setup_s", "pass_s", "peak_rss_mb")

PER_LAYER = {
    "lexer.self_s": ("s", "lower"),
    "lexer.tokens_per_s": ("1/s", "higher"),
    "parser.self_s": ("s", "lower"),
    "parser.statements": ("count", "higher"),
    "rewrite.self_s": ("s", "lower"),
    "rewrite.statements_out": ("count", "lower"),
    "analysis.self_s": ("s", "lower"),
    "ground.self_s": ("s", "lower"),
    "ground.rules_out": ("count", "lower"),
    "ground.atoms_out": ("count", "lower"),
    "ground.rules_per_s": ("1/s", "higher"),
    "ground.print_s": ("s", "lower"),
    "packed.self_s": ("s", "lower"),
    "packed.candidate_atoms_max": ("count", "lower"),
    "packed.candidate_atoms_sum": ("count", "lower"),
    "packed.refused": ("count", "lower"),
    "kernel.self_s": ("s", "lower"),
    "kernel.calls": ("count", "lower"),
    "kernel.masks_out": ("count", "lower"),
    "kernel.compiled_share": ("fraction", "higher"),
    "solver.verify_s": ("s", "lower"),
    "solver.is_model_calls": ("count", "lower"),
    "solver.verified_share": ("fraction", "higher"),
    "solver.self_s": ("s", "lower"),
    "solver.optimal_s": ("s", "lower"),
    "solver.query_s": ("s", "lower"),
    "cli.print_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(layers: dict, scale: float) -> dict:
    """Per-layer metrics of one traced pass from the tracer's totals, with
    times scaled like the pass."""
    layers = {k: v * scale if k.endswith("_s") else v for k, v in layers.items()}
    get = lambda key: layers.get(key, 0)  # noqa: E731
    out = {name: get(name) for name in PER_LAYER}
    out["lexer.tokens_per_s"] = _ratio(get("lexer.tokens"), get("lexer.self_s"))
    out["ground.rules_per_s"] = _ratio(get("ground.rules_out"), get("ground.self_s"))
    out["kernel.compiled_share"] = _ratio(get("kernel.compiled_calls"), get("kernel.calls"))
    out["solver.verified_share"] = _ratio(get("solver.verified_masks"), get("solver.emitted_masks"))
    return out


# --------------------------------------------------------------------------
# Worker process


class WorkerDied(Exception):
    pass


class Worker:
    def __init__(self, jobs: list[dict]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        self.fd = self.proc.stdout.fileno()
        self.buffer = b""
        self.send({"jobs": jobs})

    def send(self, message: dict) -> None:
        try:
            self.proc.stdin.write((json.dumps(message) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerDied("worker closed its input") from None

    def receive(self, timeout: float):
        """The next message, or None when none arrives within `timeout`."""
        deadline = monotonic() + timeout
        while b"\n" not in self.buffer:
            remaining = deadline - monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([self.fd], [], [], remaining)
            if not ready:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise WorkerDied(f"worker exited with code {self.proc.wait()}")
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Runner:
    """Runs passes in a worker and restarts it after a kill."""

    def __init__(self, jobs, limit: float, run_start: float) -> None:
        self.jobs = jobs
        self.payload = [{"name": j.name, "op": j.op, "text": j.text, "full": j.full} for j in jobs]
        self.limit = limit
        self.run_start = run_start
        self.restarts = 0
        self.worker = Worker(self.payload)

    def _restart(self) -> None:
        self.worker.stop()
        self.restarts += 1
        self.worker = Worker(self.payload)

    def run_pass(self, traced: bool) -> dict:
        records: list = [None] * len(self.jobs)
        layers = None
        samples: list[float] = []
        following = 0  # the program to resume from after a restart
        self.worker.send({"cmd": "pass", "from": 0, "trace": traced})
        while True:
            try:
                message = self.worker.receive(START_TIMEOUT_S)
                if message is None:
                    raise WorkerDied("worker stalled between programs")
                if "pass_end" in message:
                    layers = message["layers"]
                    samples += message["probe"]
                    break
                index = message["start"]
                if monotonic() - self.run_start > HARD_STOP_S:
                    for rest in range(index, len(self.jobs)):
                        records[rest] = {"status": "undecided", "t": 0.0, "error": "run time used up"}
                    self._restart()
                    break
                done = self.worker.receive(self.limit + GRACE_S)
                following = index + 1
                if done is not None:
                    records[index] = done
                    continue
                records[index] = {"status": "undecided", "t": self.limit, "error": "over the time limit"}
            except WorkerDied as exc:
                if following < len(self.jobs):
                    records[following] = {"status": "error", "t": 0.0, "error": str(exc)}
                    following += 1
            self._restart()
            self.worker.send({"cmd": "pass", "from": following, "trace": traced})
        return {"records": records, "layers": layers, "probe": samples}

    def finish(self, spans_path: Path) -> dict:
        self.worker.send({"cmd": "finish", "spans": str(spans_path)})
        message = self.worker.receive(START_TIMEOUT_S + 60.0)
        self.worker.stop()
        return message["finish"] if message else {}


def charged(record: dict, limit: float, scale: float = 1.0) -> float:
    if record["status"] == "undecided":
        return limit + record["t"] * scale
    return record["t"] * scale


def speed_scales(passes: list[dict]) -> list[float]:
    """Per pass, REFERENCE_S over the mean probe chunk time during it; a pass
    too short for three samples uses all the samples of the phase."""
    pooled = [x for p in passes for x in p["probe"]]
    fallback = statistics.mean(pooled) if pooled else probe.REFERENCE_S
    return [
        probe.REFERENCE_S / (statistics.mean(p["probe"]) if len(p["probe"]) >= 3 else fallback)
        for p in passes
    ]


def record_scale(record: dict, pass_scale: float) -> float:
    """A program long enough for three probe samples is scaled by its own."""
    count, total = record.get("probe", (0, 0.0))
    return probe.REFERENCE_S * count / total if count >= 3 else pass_scale


def pass_times(passes: list[dict], limit: float, scales=None) -> list[float]:
    """Pass times; scaled to reference speed when `scales` are given."""
    if scales is None:
        return [sum(charged(r, limit) for r in p["records"]) for p in passes]
    return [
        sum(charged(r, limit, record_scale(r, k)) for r in p["records"])
        for p, k in zip(passes, scales)
    ]


def run_phase(runner: Runner, budget: float, traced: bool) -> list[dict]:
    start = monotonic()
    passes = []
    while True:
        passes.append(runner.run_pass(traced))
        elapsed = monotonic() - start
        if elapsed + elapsed / len(passes) > budget or monotonic() - runner.run_start > HARD_STOP_S:
            return passes


# --------------------------------------------------------------------------
# Checks against the references


def _parse_atoms(atoms: list[str], predicate: str) -> list[tuple[str, ...]]:
    prefix = predicate + "("
    return [tuple(a[len(prefix):-1].split(",")) for a in atoms if a.startswith(prefix)]


def _colouring_error(answers, k: int, n: int):
    from corpus import COLOURS

    seen = set()
    for atoms in answers:
        colour = {}
        for node, c in _parse_atoms(atoms, "colour"):
            if node in colour:
                return f"node {node} has two colours"
            colour[node] = c
        if len(colour) != n or not set(colour.values()) <= set(COLOURS[:k]):
            return f"not a colouring of all {n} nodes: {sorted(colour.items())}"
        if any(colour[str(i)] == colour[str(i % n + 1)] for i in range(1, n + 1)):
            return "adjacent nodes share a colour"
        seen.add(frozenset(colour.items()))
    return None if len(seen) == len(answers) else "repeated answer set"


def _queens_error(answers, n: int):
    seen = set()
    for atoms in answers:
        queens = [(int(x), int(y)) for x, y in _parse_atoms(atoms, "q")]
        if len(queens) != n or len({x for x, _ in queens}) != n or len({y for _, y in queens}) != n:
            return f"not one queen per row and column: {queens}"
        if len({x - y for x, y in queens}) != n or len({x + y for x, y in queens}) != n:
            return f"queens share a diagonal: {queens}"
        seen.add(frozenset(queens))
    return None if len(seen) == len(answers) else "repeated answer set"


def output_error(job, record: dict):
    """Why the record is wrong, or None."""
    if record["status"] == "error":
        return record["error"]
    if record["status"] != "decided":
        return None
    observed = record["observed"]
    for key, want in job.expect.items():
        if key == "colouring":
            problem = _colouring_error(observed.get("answers", []), *want)
        elif key == "queens":
            problem = _queens_error(observed.get("answers", []), want)
        elif observed.get(key) != want:
            problem = f"{key}: expected {want!r}, got {observed.get(key, observed)!r}"
        else:
            problem = None
        if problem:
            return problem
    return None


# --------------------------------------------------------------------------
# Measurements around the worker


def measure_setup() -> list[float]:
    """Seconds to import aspcore2 and its command line in fresh interpreters,
    scaled by the probe's reading just before and after each import."""
    code = (
        "import probe, time; before = probe.speed_now(); start = time.perf_counter(); "
        "import aspcore2, aspcore2.cli; took = time.perf_counter() - start; "
        "print(took, (before + probe.speed_now()) / 2)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        took, speed = map(float, done.stdout.split())
        if attempt:  # the first one may compile bytecode
            samples.append(took * probe.REFERENCE_S / speed)
    return samples


def tail(samples: list[float]):
    """The highest percentile with at least ten samples beyond it."""
    k = len(samples) - 10
    if k < 1:
        return None
    return {"percentile": round(100 * k / len(samples), 1), "value": sorted(samples)[k - 1]}


def environment(worker_env: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "aspcore2").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return dict(
        worker_env,
        nproc=len(os.sched_getaffinity(0)),
        platform=platform.platform(),
        commit=commit,
        source_sha256=digest.hexdigest(),
    )


def summarize_rows(jobs, passes: list[dict]) -> list[dict]:
    """One row per textbook program and per random group, from traced passes."""
    groups: dict[str, list] = {}
    for p in passes:
        for job, record in zip(jobs, p["records"]):
            groups.setdefault(job.name, []).append(record)
    rows = []
    for name, records in groups.items():
        rows_of = [r.get("row") or {} for r in records]
        row = {
            "program": name,
            "runs": len(records),
            "median_wall_s": statistics.median(r["t"] for r in records),
            "status": sorted({r["status"] for r in records}),
        }
        for key in ("candidate_atoms", "ground_rules", "answer_sets", "verified_share"):
            values = [r[key] for r in rows_of if r.get(key) is not None]
            if values:  # random groups get the mean over their programs
                row[key] = sum(values) / len(values)
        kernels = sorted({k for r in rows_of for k in r.get("kernels", ())})
        if kernels:
            row["kernel"] = kernels
        tops = [r["top_predicates"] for r in rows_of if "top_predicates" in r]
        if tops:
            row["top_predicates"] = tops[0]
        hot = {}
        for r in rows_of:
            for call, (count, seconds) in r.get("hot", {}).items():
                entry = hot.setdefault(call, [0, 0.0])
                entry[0] += count
                entry[1] += seconds
        if hot:
            row["hot_calls_per_run"] = {c: [n / len(records), s / len(records)] for c, (n, s) in hot.items()}
        rows.append(row)
    return rows


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny corpora, for the self-test")
    args = ap.parse_args(argv)
    run_start = monotonic()

    if not (ROOT / "src" / "aspcore2" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print("perfbench: run from the repository root (src/aspcore2 and tests/ are missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import corpus  # noqa: E402  (needs the paths above)

    if args.workload not in corpus.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {corpus.WORKLOADS}", file=sys.stderr)
        return 64
    jobs = corpus.build(args.workload, args.seed, tiny=args.tiny)
    set_aside = sum(job.set_aside for job in jobs)
    limit = corpus.LIMITS[args.workload]
    setup = measure_setup() if not args.trace else []

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(jobs, limit, run_start)
    try:
        if args.trace:
            plain = run_phase(runner, args.seconds / 2, traced=False)
            traced = run_phase(runner, args.seconds / 2, traced=True)
        else:
            plain, traced = run_phase(runner, args.seconds, traced=False), []
        finish = runner.finish(OUT / f"{stem}-spans.jsonl")
    finally:
        runner.worker.stop()

    attempted = failed = decided = 0
    errors = []
    for p in plain + traced:
        for job, record in zip(jobs, p["records"]):
            attempted += 1
            decided += record["status"] == "decided"
            problem = output_error(job, record)
            if problem:
                failed += 1
                if len(errors) < 20:
                    errors.append({"program": job.name, "error": problem})
    scales = speed_scales(plain)
    scaled_times = pass_times(plain, limit, scales)
    wall_times = pass_times(plain, limit)
    traced_scales = speed_scales(traced)
    traced_times = pass_times(traced, limit, traced_scales)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    values = {
        "setup_s": statistics.median(setup) if setup else None,
        "pass_s": statistics.median(scaled_times),
        "decided_share": decided / attempted,
        "error_share": failed / attempted,
        "peak_rss_mb": peak_kb / 1024,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "programs": len(jobs),
        "limit_s": limit,
        "environment": environment(finish.get("env", {})),
        "end_to_end": {
            name: {"value": values[name], "unit": unit, "better": better, "what": what}
            for name, (unit, better, what) in END_TO_END.items()
        },
        "pass_samples": len(scaled_times),
        "pass_tail": tail(scaled_times),
        "pass_times": scaled_times,
        "pass_wall_times": wall_times,
        "speed_scales": scales,
        "setup_samples": setup,
        "worker_restarts": runner.restarts,
        "set_aside": {"programs": set_aside, "why": SET_ASIDE_WHY},
        "errors": errors,
    }
    if args.trace:
        per_pass = [layer_metrics(p["layers"] or {}, k) for p, k in zip(traced, traced_scales)]
        layers = {name: statistics.median(p[name] for p in per_pass) for name in PER_LAYER}
        traced_median = statistics.median(traced_times)
        layers["trace.overhead_s"] = traced_median - values["pass_s"]
        report["per_layer"] = {n: {"value": layers[n], "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()}
        report["traced_pass_s"] = traced_median
        # layers are medians over traced passes, so compare with the median pass
        report["self_time_share_of_traced_pass"] = {
            n: _ratio(layers[n], traced_median)
            for n, (unit, _) in PER_LAYER.items() if unit == "s" and n != "trace.overhead_s"
        }
        report["environment"]["fits_compiled_fallbacks"] = sum(
            (p["layers"] or {}).get("kernel.fits_compiled_fallbacks", 0) for p in traced
        )
        report["rows"] = summarize_rows(jobs, traced)
        report["kernel_compare"] = finish.get("kernel_compare")
        metrics = {n: {"value": layers[n], "unit": PER_LAYER[n][0]} for n in PER_LAYER}
    else:
        metrics = {n: {"value": values[n], "unit": END_TO_END[n][0]} for n in REPORTED}

    report_path = OUT / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    env = report["environment"]
    print(f"perfbench {args.workload} seed={args.seed} kernel={env.get('active_kernel')} "
          f"compiled_available={env.get('compiled_available')} ASPCORE2_KERNEL={env.get('ASPCORE2_KERNEL')} "
          f"python={env.get('python')} nproc={env['nproc']} commit={env['commit']}")
    for name, entry in report["end_to_end"].items():
        if entry["value"] is not None:
            print(f"  {name} = {entry['value']:.6g} {entry['unit']} ({entry['better']} is better)")
    print(f"  passes: {len(scaled_times)}, tail {report['pass_tail']}, "
          f"median wall time {statistics.median(wall_times):.6g} s")
    if args.trace:
        for name, entry in report["per_layer"].items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']} ({entry['better']} is better)")
        compare = report["kernel_compare"] or {}
        speedup = compare.get("compiled_speedup")
        print(f"  kernel.compiled_speedup = {speedup:.6g} (agree={compare['agree']})" if speedup
              else f"  kernel.compiled_speedup: {compare.get('status')}")
    if set_aside:
        print(f"  set aside: {set_aside} random programs, {SET_ASIDE_WHY}")
    for problem in errors:
        print(f"  error: {problem['program']}: {problem['error']}")
    print(f"  report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
