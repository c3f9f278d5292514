"""Spans and counters around aspcore2's public calls, installed from
outside the package by replacing module attributes at run time.

A span records name, start, end, parent span and program; a layer's self
time is the span's duration minus the time of the spans inside it. Hot
calls (`is_model` runs ~262k times on chain-9) get a count and a summed
time per program instead of one span per call. Counters are read from the
arguments and results at the same boundaries, after the span has ended.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

from aspcore2 import _packed, analysis, cli, errors, ground, kernel, parser, rewrite, solver

# (owner, attribute, layer metric its self time adds to, hot)
WRAPPED = (
    (parser, "tokenize", "lexer.self_s", False),
    (parser, "parse_program", "parser.self_s", False),
    (rewrite, "desugar", "rewrite.self_s", False),
    (analysis, "check_program", "analysis.self_s", False),
    (ground, "ground_program", "ground.self_s", False),
    (ground.GroundProgram, "to_text", "ground.print_s", False),
    (solver, "pack_program", "packed.self_s", False),
    (_packed.PackedProgram, "flat", "packed.self_s", False),
    (kernel, "solve_masks", "kernel.self_s", False),
    (solver, "answer_sets", "solver.self_s", False),
    (solver, "optimal_answer_sets", "solver.optimal_s", False),
    (solver, "answer_query", "solver.query_s", False),
    (solver, "is_model", "solver.verify_s", True),
    (solver, "reduct", "solver.verify_s", True),
    (cli, "format_interpretation", "cli.print_s", True),
    (cli, "term_to_text", "cli.print_s", True),
)

VERIFIED_ATOMS = 12  # solver._verify_answer_set checks minimality up to this size


def predicate_name(atom) -> str:
    name = atom.predicate
    return "aux:" + name.split("\x01")[2] if name.startswith("\x01") else name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, child time]
        self.program = -1
        self.pass_index = -1
        self.layers: Counter = Counter()
        self.row: dict = {}
        self.flats: list[tuple] = []  # packed inputs kernel.solve_masks saw
        self.keep_flats = False
        self._originals: list[tuple] = []
        self._emit_pending = False
        self._last_packed = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attribute, metric, hot in WRAPPED:
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            hook = getattr(self, "_after_" + attribute, None)
            setattr(owner, attribute, self._wrap(original, attribute, metric, hot, hook))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _wrap(self, fn, name, metric, hot, hook):
        stack = self.stack

        def traced(*args, **kwargs):
            if name == "answer_sets":
                self._emit_pending = True
            span_id = len(self.spans)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            if not hot:
                self.spans.append(None)  # reserve the id; filled in below
            stack.append(frame)
            failure = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors.AspCoreError as exc:
                failure = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.layers[metric] += duration - frame[1]
                if hot:
                    calls = self.row.setdefault("hot", {}).setdefault(name, [0, 0.0])
                    calls[0] += 1
                    calls[1] += duration
                    if name == "is_model":
                        self.layers["solver.is_model_calls"] += 1
                else:
                    self.spans[span_id] = (
                        span_id, name, start, end,
                        parent[0] if parent is not None else None,
                        self.program, self.pass_index,
                    )
                if failure is not None and name == "answer_sets":
                    self._refused(failure)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- program boundaries --------------------------------------------------

    def begin_program(self, index: int) -> None:
        self.program = index
        self.row = {}
        span_id = len(self.spans)
        self.spans.append(None)
        self.stack.append([span_id, 0.0])
        self._root_start = perf_counter()

    def end_program(self) -> dict:
        end = perf_counter()
        span_id, _child = self.stack.pop()
        self.spans[span_id] = (span_id, "program", self._root_start, end, None, self.program, self.pass_index)
        row, self.row = self.row, {}
        return row

    # -- counters, read after each span ends --------------------------------

    def _after_tokenize(self, args, kwargs, tokens) -> None:
        self.layers["lexer.tokens"] += len(tokens)

    def _after_parse_program(self, args, kwargs, program) -> None:
        self.layers["parser.statements"] += len(program.statements())

    def _after_desugar(self, args, kwargs, program) -> None:
        self.layers["rewrite.statements_out"] += len(program.statements())

    def _after_ground_program(self, args, kwargs, program) -> None:
        heads = {atom for rule in program.rules for atom in rule.head}
        self.layers["ground.rules_out"] += len(program.rules)
        self.layers["ground.atoms_out"] += len(heads)
        self.row["ground_rules"] = len(program.rules)

    def _after_pack_program(self, args, kwargs, packed) -> None:
        self._last_packed = packed
        self.layers["packed.candidate_atoms_sum"] += packed.size
        top = max(self.layers.get("packed.candidate_atoms_max", 0), packed.size)
        self.layers["packed.candidate_atoms_max"] = top
        self.row["candidate_atoms"] = packed.size

    def _after_solve_masks(self, args, kwargs, masks) -> None:
        flat = args[0]
        choice = (args[1] if len(args) > 1 else kwargs.get("kernel")) or kernel.ACTIVE_KERNEL
        served = "python"
        if choice == "compiled" and kernel.compiled_available():
            if kernel.fits_compiled(flat):
                served = "compiled"
            else:
                self.layers["kernel.fits_compiled_fallbacks"] += 1
        self.layers["kernel.calls"] += 1
        self.layers["kernel.compiled_calls"] += served == "compiled"
        self.layers["kernel.masks_out"] += len(masks)
        self.row.setdefault("kernels", []).append(served)
        if self.keep_flats:
            self.flats.append(flat)
        if self._emit_pending:  # the answer sets emitted, not the cross-check
            self._emit_pending = False
            verified = sum(1 for m in masks if bin(m).count("1") <= VERIFIED_ATOMS)
            self.layers["solver.emitted_masks"] += len(masks)
            self.layers["solver.verified_masks"] += verified
            self.row["answer_sets"] = len(masks)
            self.row["verified_share"] = verified / len(masks) if masks else None

    def _refused(self, failure) -> None:
        if isinstance(failure, errors.CapacityExceeded) and self._last_packed is not None:
            self.layers["packed.refused"] += 1
            counts = Counter(predicate_name(a) for a in self._last_packed.atoms)
            self.row["top_predicates"] = counts.most_common(3)

    # -- output ------------------------------------------------------------

    def take_layers(self) -> dict:
        layers, self.layers = dict(self.layers), Counter()
        return layers

    def write_spans(self, path) -> None:
        names = ("id", "name", "start", "end", "parent", "program", "pass")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(dict(zip(names, span))) + "\n")
