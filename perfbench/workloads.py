"""The four benchmark workloads.

Each workload is built from a seed (set-up: seeded inputs, theories and
constructions), then hands out an endless seeded stream of ops.  The stream
is a sequence of cycles; every cycle holds the same mix of op kinds in a
seeded order, so runs of different seeds measure the same mix on different
inputs.  Per op there are three steps:

  next_op(i)  -> (kind, args)       input generation, not timed
  run(kind, args) -> output         the timed call into conseq
  check(kind, args, output) -> (verdicts requested, verdicts decided, error)

`check` compares the output with a reference that does not re-run the timed
path; an error string (or an exception in `run` or `check`) counts the op as
failed.  Library calls go through module attributes (`sequences.index_of`,
not a name imported once), so the traced run sees them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_CLI = HERE / "expected_cli.json"


def _seeded_order(rng: random.Random, items: list) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


class Workload:
    name = ""
    # a run measures whole cycles, so every run measures the same mix of op
    # kinds; cycle_s is the median seconds per cycle measured when the
    # benchmark was defined (2-core 2.1 GHz Xeon VM), which sizes a run
    cycle_len = 1
    cycle_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self._cycle: list = []
        self._start = 0
        self._decks: dict = {}

    def cycle_kinds(self) -> list:
        """The op kinds of the next cycle, in seeded order."""
        raise NotImplementedError

    def kind_at(self, i: int) -> tuple[int, str]:
        """(position in its cycle, kind) of op i; ops are handed out in
        increasing i."""
        if not self._cycle or i - self._start >= len(self._cycle):
            self._start = i
            self._cycle = self.cycle_kinds()
        pos = i - self._start
        return pos, self._cycle[pos]

    def deal(self, key, options):
        """Next item of a seeded shuffle of `options`, reshuffled when used
        up, so every option comes up equally often across a run."""
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = _seeded_order(self.rng, options)
        return deck.pop()


# ---------------------------------------------------------------------------
# diagonal-unfold


class DiagonalUnfold(Workload):
    """fixed_point, classify(tau) and verify_fixed_point(r, 50, 128) on seeded
    hole formulas, Sigma and Pi, levels 1..3, all three hole variants."""

    name = "diagonal-unfold"
    SAMPLES, BUDGET = 50, 128
    # one cycle = the three hole variants of one (kind, level); the InSigma
    # variant (i % 3 == 2) costs about ten times the other two
    CLASSES = [(k, lv) for k in ("Sigma", "Pi") for lv in (1, 2, 3)]
    cycle_len = 3
    cycle_s = 1.3

    def cycle_kinds(self):
        kind, level = self.deal("class", self.CLASSES)
        return _seeded_order(self.rng, [(kind, level, var) for var in range(3)])

    def next_op(self, i):
        from conseq import gen

        _, stratum = self.kind_at(i)
        kind, level, variant = stratum
        # 34 distinct formulas per stratum before any repeats
        j = self.deal(stratum, list(range(34)))
        return "unfold", (kind, level, gen.hole_formula(kind, level, 3 * j + variant))

    def run(self, kind, args):
        from conseq import diagonal, gen, hierarchy

        _, _, psi = args
        r = diagonal.fixed_point(psi, gen.HOLE_VAR)
        cls = hierarchy.classify(r.tau)
        rep = diagonal.verify_fixed_point(r, self.SAMPLES, self.BUDGET)
        return r, cls, rep

    def check(self, kind, args, out):
        from conseq import coding, hierarchy, syntax
        from conseq.diagonal import diag_value

        k, level, psi = args
        r, cls, rep = out
        want = hierarchy.Sigma(level) if k == "Sigma" else hierarchy.Pi(level)
        if cls != want or hierarchy.classify(psi) != want:
            return self.SAMPLES, rep.decided_pairs, f"class {cls.text()} != {want.text()}"
        if diag_value(r.certificate_value, syntax.max_var(psi) + 1) != coding.encode(r.tau):
            return self.SAMPLES, rep.decided_pairs, "diag(certificate) is not the code of tau"
        if rep.decided_pairs != self.SAMPLES or rep.disagreements:
            return self.SAMPLES, rep.decided_pairs, f"{rep.decided_pairs} decided, {len(rep.disagreements)} disagreements"
        return self.SAMPLES, rep.decided_pairs, None


# ---------------------------------------------------------------------------
# stage-queries


class StageQueries(Workload):
    """Shift-law pairs, slice membership and index extraction on the four
    constructions (visser/BSigma1, sigma-slice m=2/EA, pi-slice m=2/BSigma2,
    index m=2/BSigma2)."""

    name = "stage-queries"
    SHIFT_BUDGET, SLICE_BUDGET, INDEX_BUDGET = 48, 1000, 10_000
    # index_of cost grows with n (about 2 s at n <= 3, 6 s at n = 7)
    INDEX_STAGES = 4
    # index_of takes about 100 times a slice query, so it is 1 op in 81
    CYCLE = (
        ["shift:visser", "shift:sigma", "shift:pi", "shift:index"] * 8
        + ["axiom:visser", "axiom:sigma", "axiom:pi"] * 8
        + ["small:visser", "small:sigma", "small:pi"] * 4
        + ["rfn:visser"] * 4
        + ["mcon:sigma", "mcon:pi"] * 4
        + ["index_of:index"]
    )
    cycle_len = len(CYCLE)
    cycle_s = 3.8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from conseq import coding, sequences, theories
        from conseq.syntax import parse_formula

        T = theories.standard_theory
        self.specs = {
            "visser": sequences.visser_sequence(T("BSigma1")),
            "sigma": sequences.sigma_slice_sequence(2, T("EA")),
            "pi": sequences.pi_slice_sequence(2, T("BSigma2")),
            "index": sequences.index_sequence(2, T("BSigma2")),
        }
        self.shifted = {k: sequences.shift(s) for k, s in self.specs.items()}
        self.tau_codes = {k: coding.encode(s.tau) for k, s in self.specs.items()}
        self.rfn_bodies = [parse_formula(t) for t in ("0=0", "0<=S(0)", "A x0. x0<=x0", "E x1. x1=S(0)")]

    def cycle_kinds(self):
        return _seeded_order(self.rng, self.CYCLE)

    def next_op(self, i):
        from conseq import coding, refs, theories

        _, kind = self.kind_at(i)
        what, con = kind.split(":")
        spec = self.specs[con]
        if what == "shift":
            # evaluation cost grows with x and y, so both are dealt
            return kind, (self.deal((kind, "x"), range(10)), self.deal((kind, "y"), range(10)))
        n = self.deal((kind, "n"), range(8))
        if what == "axiom":
            return kind, (n, coding.encode(spec.base.enumerator(self.deal((kind, "j"), range(8)))))
        if what == "small":
            return kind, (n, self.rng.randrange(201))
        if what == "rfn":
            ref = refs.SlipExt(spec.base.ref, self.tau_codes[con], n + 1)
            return kind, (n, coding.encode(theories.rfn_instance_for_ref(ref, self.deal(kind, self.rfn_bodies))))
        if what == "mcon":
            return kind, (n, coding.encode(theories.ncon_of_slice(spec.level, spec.tau, n + 1)))
        return kind, (self.deal("index_of", list(range(self.INDEX_STAGES))),)

    def run(self, kind, args):
        from conseq import semantics, sequences

        what, con = kind.split(":")
        spec = self.specs[con]
        if what == "shift":
            x, y = args
            a, b = spec.tau_vars()
            left = semantics.eval_formula(self.shifted[con].tau, self.SHIFT_BUDGET, {a: x, b: y})
            right = semantics.eval_formula(spec.tau, self.SHIFT_BUDGET, {a: x + 1, b: y})
            return left, right
        if what == "index_of":
            return sequences.index_of(spec, args[0], self.INDEX_BUDGET)
        n, code = args
        return sequences.slice_contains(spec, n, code, self.SLICE_BUDGET)

    def check(self, kind, args, out):
        from conseq import coding, semantics, theories

        what, con = kind.split(":")
        spec = self.specs[con]
        if what == "shift":
            left, right = out
            decided = int(left.is_decided()) + int(right.is_decided())
            if left.is_decided() and right.is_decided() and left != right:
                return 2, decided, f"shift law fails at {args}: {left} vs {right}"
            return 2, decided, None
        if what == "index_of":
            if out is None:
                return 1, 0, None
            stream = theories.machine_stream(out)
            if any(stream(i) != spec.base.enumerator(i) for i in range(3)):
                return 1, 1, "machine stream of the index does not reproduce the base enumerator"
            return 1, 1, None
        n, code = args
        decided = int(out.is_decided())
        # axiom, reflection-instance and reflection-sentence codes are slice
        # members by construction; codes <= 200 code no formula
        want_true = what != "small"
        if out.is_true() != want_true:
            return 1, decided, f"slice {n} verdict {out} at a {what} code"
        if out.is_true() and what == "axiom":
            f = coding.decode_formula(code)
            if not semantics.axiom_membership(spec.base.ref, f, 64).is_true():
                return 1, decided, "true slice row is not a base axiom"
        return 1, decided, None


# ---------------------------------------------------------------------------
# codec-corpus


class CodecCorpus(Workload):
    """Round trips (print/parse, encode/decode, classify, prenex) of seeded
    depth-8 formulas and of the four construction taus, budgeted evaluation
    of decidable sentences, the proof corpus through eval_prf, and the craig
    certificates through check_proof."""

    name = "codec-corpus"
    BUDGETS = (10, 100, 1000)
    CYCLE = ["formula"] * 96 + ["sentence"] * 48 + ["proof"] * 4 + ["craig"] * 2 + ["taus"]
    cycle_len = len(CYCLE)
    cycle_s = 0.8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from conseq import sequences, theories

        sys.path.append(str(ROOT / "tests"))
        import second_verifier  # the independent proof checker, read-only
        import test_eval

        self.second_verifier = second_verifier
        T = theories.standard_theory
        # shifted once more every cycle, so no tau code repeats in a run
        self.specs = [
            sequences.visser_sequence(T("BSigma1")),
            sequences.sigma_slice_sequence(2, T("EA")),
            sequences.pi_slice_sequence(2, T("BSigma2")),
            sequences.index_sequence(2, T("BSigma2")),
        ]
        self.b1 = T("BSigma1")
        self.proofs = test_eval._corpus()

    def cycle_kinds(self):
        return _seeded_order(self.rng, self.CYCLE)

    def next_op(self, i):
        from conseq import coding, craig, gen, semantics, sequences

        _, kind = self.kind_at(i)
        rng = self.rng
        if kind == "formula":
            return kind, gen.random_formula(rng, 8, [0, 1, 2])
        if kind == "sentence":
            return kind, gen.random_decidable_sentence(rng)
        if kind == "proof":
            t, p, g = self.proofs[self.deal("proof", list(range(len(self.proofs))))]
            return kind, (t, p, g, semantics.encode_proof(p), coding.encode(g))
        if kind == "craig":
            k = rng.randrange(32)
            phi = self.b1.enumerator(k)
            return kind, (k, phi, craig.pad_conjunction(phi, k + 1))
        self.specs = [sequences.shift(s) for s in self.specs]
        return kind, [s.tau for s in self.specs]

    def _round_trip(self, f):
        from conseq import coding, hierarchy, syntax

        g = syntax.parse_formula(syntax.print_formula(f))
        h = coding.decode(coding.encode(f))
        return g, h, hierarchy.classify(f), hierarchy.prenex(f)

    def run(self, kind, args):
        from conseq import craig, semantics
        from conseq.syntax import Imp

        if kind == "formula":
            return self._round_trip(args)
        if kind == "taus":
            return [self._round_trip(f) for f in args]
        if kind == "sentence":
            return [semantics.eval_sentence(args, b) for b in self.BUDGETS]
        if kind == "proof":
            t, _, _, pcode, gcode = args
            return semantics.eval_prf(t, pcode, gcode)
        k, phi, pad = args
        fwd, bwd = craig.equivalence_certificates(self.b1, k)
        return (
            (fwd, Imp(pad, phi), semantics.check_proof(self.b1, fwd, Imp(pad, phi))),
            (bwd, Imp(phi, pad), semantics.check_proof(self.b1, bwd, Imp(phi, pad))),
        )

    def _oracle(self, theory, proof, goal) -> bool:
        from conseq.semantics import axiom_membership

        return self.second_verifier.verify(lambda f: axiom_membership(theory.ref, f, 64).is_true(), proof, goal)

    @staticmethod
    def _round_trip_error(f, out):
        from conseq.syntax import free_vars

        g, h, _, p = out
        if g != f:
            return "print/parse round trip changed the formula"
        if h != f:
            return "encode/decode round trip changed the formula"
        if free_vars(p) != free_vars(f):
            return "prenex changed the free variables"
        return None

    def check(self, kind, args, out):
        if kind == "formula":
            return 0, 0, self._round_trip_error(args, out)
        if kind == "taus":
            errors = [e for f, o in zip(args, out) if (e := self._round_trip_error(f, o))]
            return 0, 0, errors[0] if errors else None
        if kind == "sentence":
            decided = sum(v.is_decided() for v in out)
            for lo, hi in zip(out, out[1:]):
                if lo.is_decided() and hi != lo:
                    return 3, decided, f"verdict not monotone in the budget: {[str(v) for v in out]}"
            return 3, decided, None
        if kind == "proof":
            t, p, g, _, _ = args
            want = self._oracle(t, p, g)
            if not out.is_decided() or out.is_true() != want:
                return 1, int(out.is_decided()), f"eval_prf says {out}, second verifier says {want}"
            return 1, 1, None
        for proof, goal, ok in out:
            if not ok or not self._oracle(self.b1, proof, goal):
                return 2, 2, f"craig certificate {args[0]} rejected"
        return 2, 2, None


# ---------------------------------------------------------------------------
# cli-pipeline


CLI_COMMANDS = ("parse", "classify", "encode", "decode", "eval", "seq_build", "seq_slice", "seq_index_of", "seq_ds", "craig", "fixpoint")


def cli_pool() -> dict[str, list[list[str]]]:
    """Every argv the cli-pipeline workload can run, by command.  The seed
    picks from these lists; expected_cli.json holds the exit code and stdout
    digest of each, recorded by record_cli.py."""
    from conseq import coding, gen
    from conseq.syntax import print_formula

    formulas = [gen.random_formula(random.Random(1000 + k), 6, [0, 1, 2]) for k in range(32)]
    sentences = [gen.random_decidable_sentence(random.Random(2000 + k)) for k in range(32)]
    # entry j has hole variant j % 3
    holes = [gen.hole_formula(kind, lv, i) for kind in ("Sigma", "Pi") for lv in (1, 2, 3) for i in range(6)]
    return {
        "parse": [["parse", print_formula(f)] for f in formulas],
        "classify": [["classify", print_formula(f)] for f in formulas],
        "encode": [["encode", print_formula(f)] for f in formulas],
        "decode": [["decode", str(coding.encode(f))] for f in formulas],
        "eval": [["eval", "--budget", "100", print_formula(f)] for f in sentences],
        "seq_build": [
            ["seq", "build", "visser", "--base", "BSigma1", "--out", "visser.json"],
            ["seq", "build", "sigma-slice", "--m", "2", "--base", "EA", "--out", "sigma.json"],
            ["seq", "build", "pi-slice", "--m", "2", "--base", "BSigma2", "--out", "pi.json"],
            ["seq", "build", "index", "--m", "2", "--base", "BSigma2", "--out", "index.json"],
        ],
        "seq_slice": [
            ["seq", "slice", f"{con}.json", "--n", str(n), "--bound", "48", "--budget", "1000", "--all"]
            for con in ("visser", "sigma", "pi")
            for n in range(4)
        ],
        "seq_index_of": [["seq", "index-of", "index.json", "--n", str(n), "--budget", "10000"] for n in range(4)],
        "seq_ds": [["seq", "ds", v, "--m", str(m)] for v in ("slice-uniform", "index-uniform", "index-nonuniform") for m in (2, 3)],
        "craig": [["craig", "--base", b, "--count", str(c)] for b in ("BSigma1", "BSigma2", "EA") for c in (3, 5)],
        "fixpoint": [["fixpoint", print_formula(f), "--hole", "7", "--verify", "10", "--budget", "128"] for f in holes],
    }


def cli_key(argv: list[str]) -> str:
    return json.dumps(argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], cwd: Path, env: dict) -> tuple[int, bytes, int]:
    """Run one process to completion: (exit code, stdout, peak RSS KiB).
    os.wait4 reaps the child, so its own rusage is read, not a sum."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class CliPipeline(Workload):
    """`python -m conseq.cli` processes, one after another: the small
    commands, seq build for each construction, then slice, index-of, ds,
    craig and fixpoint --verify."""

    name = "cli-pipeline"
    SMALL = ["parse", "classify", "encode", "decode", "eval"]
    REST = SMALL * 2 + ["seq_index_of", "seq_ds", "craig", "fixpoint"]
    # a cycle opens with seq build for the four constructions and one slice
    # of each slice construction, so the tail sits among the slices: index-of
    # (2-3 s) is the only slower command and comes once per cycle
    HEAD = ["seq_build"] * 4 + ["seq_slice"] * 3
    cycle_len = len(HEAD) + len(REST)
    cycle_s = 7.0

    def __init__(self, seed, workdir, expected: dict | None = None):
        super().__init__(seed, workdir)
        self.pool = cli_pool()
        if expected is None:
            with open(EXPECTED_CLI, encoding="utf-8") as fh:
                expected = json.load(fh)
        self.expected = expected
        self.env = child_env()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.peak_rss_kib = 0
        self.trace_summaries: list[dict] = []
        self.trace_spans: list = []
        self.import_s: list[float] = []
        self.traced = False

    def cycle_kinds(self):
        return self.HEAD + _seeded_order(self.rng, self.REST)

    def next_op(self, i):
        pos, kind = self.kind_at(i)
        options = self.pool[kind]
        if kind == "seq_build":
            return kind, options[pos]
        if kind == "seq_slice":
            con = ("visser", "sigma", "pi")[pos - 4]
            return kind, self.deal(con, [a for a in options if a[2] == f"{con}.json"])
        if kind == "fixpoint":
            # hole variants in turn (the InSigma one costs several times the
            # others), so runs of one length hold the same mix
            variant = (i // self.cycle_len) % 3
            return kind, self.deal(kind + str(variant), options[variant::3])
        return kind, self.deal(kind, options)

    def run(self, kind, argv):
        if self.traced:
            cmd = [sys.executable, str(HERE / "clichild.py"), str(self.workdir / "child-trace.json"), *argv]
        else:
            cmd = [sys.executable, "-m", "conseq.cli", *argv]
        code, out, rss = run_child(cmd, self.workdir, self.env)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return code, out

    def _collect_child_trace(self):
        path = self.workdir / "child-trace.json"
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        path.unlink()
        child = len(self.import_s)  # one child per op, so this is the op id
        self.import_s.append(rec["import_s"])
        self.trace_summaries.append(rec["summary"])
        room = max(0, tracer.MAX_SPANS - len(self.trace_spans))
        self.trace_spans.extend(
            (child, (sid, name, t0, t1, parent, child)) for sid, name, t0, t1, parent, _ in rec["spans"][:room]
        )

    def check(self, kind, argv, out):
        if self.traced:  # read outside the timed call
            self._collect_child_trace()
        code, stdout = out
        lines = stdout.decode("utf-8", "replace").splitlines()
        if kind == "eval":
            requested, decided = 1, int(lines[:1] in (["true"], ["false"]))
        elif kind == "seq_index_of":
            requested, decided = 1, int(lines[:1] != ["unknown"])
        elif kind == "seq_slice":
            rows = [ln for ln in lines if ln.startswith("k ")]
            requested, decided = len(rows), sum(" verdict unknown " not in ln for ln in rows)
        else:
            requested = decided = 0
        want = self.expected.get(cli_key(argv))
        if want is None:
            return requested, decided, "no expected output recorded for this command"
        if [code, digest(stdout)] != want:
            return requested, decided, f"exit {code} / stdout digest differ from the recorded output"
        return requested, decided, None


WORKLOADS = {w.name: w for w in (DiagonalUnfold, StageQueries, CodecCorpus, CliPipeline)}
