"""Span tracer for the traced benchmark run.

Wrappers are installed from here on module attributes of `conseq` and on the
evaluator slots of the designated-atom registry; nothing under `src/` is
edited.  A wrapper replaces every module attribute that is the original
function object, so calls made inside the library (which look names up in
their module at call time) are traced too.  `uninstall` puts the originals
back.

Each span is (id, name, start, end, parent id, op id) and stays in memory
until `dump`.  A layer's self time is its span's duration minus the time
covered by its child spans.  A direct recursive call of the same function
(`eval_formula` calling itself) is counted as a call but folded into the
enclosing span, so the span list stays proportional to layer crossings, not
to evaluator steps; per-result counters (decided verdicts) are taken at
span-level calls only.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

# Spans beyond this many are counted but not kept, so a long traced run
# cannot grow the process (or the spans file) without bound.
MAX_SPANS = 100_000

ATOM_FAMILIES = ("Diag", "InSigma", "TrueClAt", "TrueSeqAt", "PrfEx", "MachIdx", "ConSliceAt", "PadConAt", "RfnInst")

SEQUENCE_FUNCTIONS = (
    "visser_sequence",
    "sigma_slice_sequence",
    "pi_slice_sequence",
    "index_sequence",
    "shift",
    "slice_contains",
    "index_of",
    "spec_from_json",
)


@dataclass
class LayerStat:
    calls: int = 0
    spans: int = 0  # calls that opened a span (not folded into a recursive parent)
    self_s: float = 0.0
    nodes: int = 0
    decided: int = 0
    bits: int = 0
    distinct: set = field(default_factory=set)


def _size_of_first_arg(stat, args, result):
    stat.nodes += args[0].size


def _size_of_result(stat, args, result):
    stat.nodes += result.size


def _bits_of_result(stat, args, result):
    stat.bits += result.bit_length()


def _distinct_first_arg(stat, args, result):
    # Python's int hash is exact modulo 2**61 - 1; collisions are negligible.
    stat.distinct.add(hash(args[0]))


def _decided_result(stat, args, result):
    stat.decided += int(result.is_decided())


class Tracer:
    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.stats: dict[str, LayerStat] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = -1  # -1 = set-up
        self.paused = False  # reference checks run untraced
        self._stack: list[list] = []  # [name, child time, span id]
        self._next_id = 0
        self._restore: list = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None, fold_recursion: bool = False):
        stat = self.stats.setdefault(name, LayerStat())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stat.calls += 1
            if fold_recursion and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            stat.spans += 1
            span_id = self._next_id
            self._next_id += 1
            frame = [name, 0.0, span_id]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, name, t0, t1, parent, self.op_id))
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(stat, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr: str, name: str, on_result=None, fold_recursion=False, only_in=None):
        """Replace `module.attr` everywhere it is bound in the conseq
        modules (or only in the modules listed in `only_in`)."""
        orig = getattr(module, attr)
        wrapper = self.wrap(name, orig, on_result, fold_recursion)
        targets = only_in if only_in is not None else _conseq_modules()
        for mod in targets:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, orig))

    def patch_atoms(self, registry):
        """Wrap each family's evaluator and, for functional-graph atoms
        (Diag, MachIdx, ConSliceAt), the solver that quantifier contraction
        calls in its place; both count under the family's name."""
        for fam_name in ATOM_FAMILIES:
            fam = registry.get_family(fam_name)
            for slot in ("evaluator", "solver"):
                orig = getattr(fam, slot)
                if orig is not None:
                    setattr(fam, slot, self.wrap(f"semantics.atom.{fam_name}", orig))
                    self._restore.append((fam, slot, orig))

    def install(self):
        """Install every layer wrapper the per-layer metrics need."""
        from conseq import coding, craig, diagonal, gen, hierarchy, registry, semantics, sequences, syntax, theories

        p = self.patch_function
        p(semantics, "term_value_env", "semantics.term_value_env", _size_of_first_arg)
        p(syntax, "term_vars", "syntax.term_vars", _size_of_first_arg, only_in=[semantics])
        p(coding, "decode", "coding.decode", _distinct_first_arg)
        p(semantics, "eval_formula", "semantics.eval_formula", _decided_result, fold_recursion=True)
        p(semantics, "check_proof", "semantics.check_proof")
        p(craig, "equivalence_certificates", "craig.equivalence_certificates")
        p(syntax, "parse_formula", "syntax.parse_formula", _size_of_result)
        p(syntax, "print_formula", "syntax.print_formula")
        p(syntax, "substitute", "syntax.substitute", fold_recursion=True)
        p(coding, "encode", "coding.encode", _bits_of_result)
        p(coding, "machine_index", "coding.machine_index")
        p(hierarchy, "classify", "hierarchy.classify")
        p(hierarchy, "prenex", "hierarchy.prenex")
        p(diagonal, "fixed_point", "diagonal.fixed_point")
        p(diagonal, "verify_fixed_point", "diagonal.verify_fixed_point")
        for fn_name in SEQUENCE_FUNCTIONS:
            p(sequences, fn_name, f"sequences.{fn_name}")
        p(theories, "standard_theory", "theories.standard_theory")
        # the seeded corpus generators share one span name
        for fn_name in ("hole_formula", "random_formula", "random_decidable_sentence"):
            p(gen, fn_name, "gen.corpus", fold_recursion=True)
        self.patch_atoms(registry)

    def uninstall(self):
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer totals, JSON-ready (sets become counts)."""
        return {
            name: {
                "calls": s.calls,
                "spans": s.spans,
                "self_s": s.self_s,
                "nodes": s.nodes,
                "decided": s.decided,
                "bits": s.bits,
                "distinct": len(s.distinct),
            }
            for name, s in self.stats.items()
        }

    def dump(self, path, extra_spans=()) -> None:
        """Write every kept span as one JSON line.  `extra_spans` are
        (process, span) pairs from child processes; ids are per process."""
        spans = [("main", s) for s in self.spans] + list(extra_spans)
        with open(path, "w", encoding="utf-8") as fh:
            for proc, (sid, name, t0, t1, parent, op) in spans:
                rec = {"proc": proc, "id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "op": op}
                fh.write(json.dumps(rec) + "\n")


def _conseq_modules():
    return [m for k, m in list(sys.modules.items()) if m is not None and (k == "conseq" or k.startswith("conseq."))]


def merge_summaries(into: dict, other: dict) -> None:
    """Add the per-layer totals of `other` to `into`."""
    for name, s in other.items():
        d = into.setdefault(name, dict.fromkeys(s, 0))
        for key, value in s.items():
            d[key] += value
