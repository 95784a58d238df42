"""conseq benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (why each one is there is in
BENCHMARK.json): diagonal-unfold, stage-queries, codec-corpus, cli-pipeline.

--seconds S sizes the run: it measures round(S / c) whole cycles of the
workload's op mix, where c is the workload's cycle time measured at the
commit that defined the benchmark on a 2-core 2.1 GHz Xeon VM.  A run there
measures about S seconds, and every commit measures the same work, so
caches that warm over a run do not make a fast host look faster still.

Every run starts fresh interpreters (perfbench/worker.py), one at a time, so
the module-level caches of conseq start cold as they do in a conseq process:
SETUP_PROBES set-up-only workers, then the measuring worker.  Load is one
client in a closed loop.  Each op's output is checked against a reference
that is not the timed path; a failed check counts in `failed`.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same ops with
the span tracer installed and prints the per-layer metrics; it then runs
them untraced to report the tracing overhead.  Spans go to .perfbench_out/.

The last stdout line is the JSON result; the lines before it are a readable
summary and the run metadata (host-speed probe, Python, CPU count, commit,
src/ line count), none of which is gated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from workloads import CLI_COMMANDS, WORKLOADS as WORKLOAD_CLASSES  # noqa: E402  (imports no conseq)

WORKLOADS = tuple(WORKLOAD_CLASSES)
SETUP_PROBES = 3  # set-up-only workers per run; setup_s is the median of these and the measuring one

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "decided_ratio": "ratio",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    from tracer import ATOM_FAMILIES, SEQUENCE_FUNCTIONS

    m: dict[str, str] = {}
    for layer in ("semantics.term_value_env", "syntax.term_vars"):
        m.update({f"{layer}.calls": "count", f"{layer}.nodes": "count", f"{layer}.self_s": "s"})
    m.update({"coding.decode.calls": "count", "coding.decode.distinct_ratio": "ratio", "coding.decode.self_s": "s"})
    for atom in ATOM_FAMILIES:
        m.update({f"semantics.atom.{atom}.calls": "count", f"semantics.atom.{atom}.self_s": "s"})
    m.update(
        {
            "semantics.eval_formula.calls": "count",
            "semantics.eval_formula.self_s": "s",
            "semantics.eval_formula.decided_ratio": "ratio",
            "semantics.check_proof.self_s": "s",
            "craig.equivalence_certificates.self_s": "s",
            "syntax.parse_formula.self_s": "s",
            "syntax.parse_formula.nodes_per_s": "1/s",
            "syntax.print_formula.self_s": "s",
            "syntax.substitute.self_s": "s",
            "coding.encode.self_s": "s",
            "coding.encode.bits_per_s": "1/s",
            "coding.machine_index.self_s": "s",
            "hierarchy.classify.self_s": "s",
            "hierarchy.prenex.self_s": "s",
            "diagonal.fixed_point.self_s": "s",
            "diagonal.verify_fixed_point.self_s": "s",
        }
    )
    m.update({f"sequences.{fn}.self_s": "s" for fn in SEQUENCE_FUNCTIONS})
    m.update({"theories.standard_theory.self_s": "s", "gen.corpus.self_s": "s", "cli.import_s": "s"})
    m.update({f"cli.{cmd}.wall_s": "s" for cmd in CLI_COMMANDS})
    m.update({"trace.ops": "count", "trace.overhead_ratio": "ratio"})
    return m


# ---------------------------------------------------------------------------
# metadata and host probe (recorded, never gated, never used to rescale)


def host_probe_s() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i
    return time.perf_counter() - t0


def metadata() -> dict:
    src_files = sorted((ROOT / "src").rglob("*.py"))
    lines = 0
    digest = hashlib.sha256()
    for p in src_files:
        data = p.read_bytes()
        lines += data.count(b"\n")
        digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + data)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# workers


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, workdir: Path, tag: str, extra: list[str]) -> tuple[dict, float, int]:
    """Start one fresh worker and wait for it: (result, spawn time, peak RSS KiB)."""
    result_file = workdir / f"result-{tag}.json"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--result", str(result_file),
        "--workdir", str(workdir / "cli"),
        *extra,
    ]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise WorkerFailed(f"worker {tag} exited with code {code}")
    with open(result_file, encoding="utf-8") as fh:
        return json.load(fh), t_spawn, usage.ru_maxrss


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least 10 ops
    beyond it; with 10 ops or fewer, the slowest op at 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(res: dict, setups: list[float], rss_kib: int) -> dict:
    lat = res["latencies"]
    n = len(lat)
    t, _ = tail(lat)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * t,
        "throughput_ops_s": n / sum(lat),
        "decided_ratio": res["decided"] / res["requested"] if res["requested"] else 1.0,
        "correct_ratio": (n - res["failed"]) / n,
        "peak_rss_mb": res.get("peak_rss_kib", rss_kib) / 1024,
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    s = traced["trace"]
    zero = {"calls": 0, "spans": 0, "self_s": 0.0, "nodes": 0, "decided": 0, "bits": 0, "distinct": 0}
    out: dict[str, float] = {}
    for name in per_layer_units():
        layer, _, qty = name.rpartition(".")
        st = s.get(layer, zero)
        if qty in ("calls", "nodes", "self_s"):
            out[name] = st[qty]
        elif qty == "distinct_ratio":
            out[name] = st["distinct"] / st["calls"] if st["calls"] else 0.0
        elif qty == "decided_ratio":
            out[name] = st["decided"] / st["spans"] if st["spans"] else 0.0
        elif qty == "nodes_per_s":
            out[name] = st["nodes"] / st["self_s"] if st["self_s"] else 0.0
        elif qty == "bits_per_s":
            out[name] = st["bits"] / st["self_s"] if st["self_s"] else 0.0
    imports = traced.get("child_import_s") or [traced["import_s"]]
    out["cli.import_s"] = statistics.median(imports)
    for cmd in CLI_COMMANDS:
        walls = [x for x, k in zip(traced["latencies"], traced["kinds"]) if k == cmd]
        out[f"cli.{cmd}.wall_s"] = statistics.median(walls) if walls else 0.0
    out["trace.ops"] = len(traced["latencies"])
    out["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(untraced["latencies"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "conseq" / "__init__.py").is_file() or not (ROOT / "tests").is_dir():
        print(f"error: no conseq sources under {ROOT}; run from the root of a conseq checkout", file=sys.stderr)
        return 2

    probe_start = host_probe_s()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = WORKLOAD_CLASSES[args.workload]
    ops = wl.cycle_len * max(1, round(args.seconds / wl.cycle_s))
    try:
        setups = []
        if args.trace:
            traced, _, _ = run_worker(args, workdir, "traced", ["--ops", str(ops), "--trace", str(OUT / f"spans-{stem}.jsonl")])
            untraced, _, _ = run_worker(args, workdir, "untraced", ["--ops", str(ops)])
            metrics = per_layer(traced, untraced)
            units = per_layer_units()
            main_res = traced
        else:
            for k in range(SETUP_PROBES):
                res, t_spawn, _ = run_worker(args, workdir, f"setup{k}", ["--setup-only"])
                setups.append(res["t_ready"] - t_spawn)
            main_res, t_spawn, rss = run_worker(args, workdir, "main", ["--ops", str(ops)])
            setups.append(main_res["t_ready"] - t_spawn)
            metrics = end_to_end(main_res, setups, rss)
            units = END_TO_END
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_end = host_probe_s()

    lat = main_res["latencies"]
    n = len(lat)
    tail_ms, tail_pct = tail(lat)
    meta = metadata()
    meta.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host_probe_start_s": probe_start,
            "host_probe_end_s": probe_end,
            "setup_samples_s": setups,
            "ops": n,
            "op_tail_percentile": tail_pct,
            "error_rate": main_res["failed"] / n,
            "errors": main_res["errors"],
        }
    )
    if args.trace:
        meta["spans_dropped"] = traced["spans_dropped"]
    result = {
        "correct": main_res["failed"] == 0,
        "attempted": n,
        "failed": main_res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n} ops, "
          f"{main_res['failed']} failed (error_rate {meta['error_rate']:.4f}), "
          f"tail = p{tail_pct:.1f} over {n} ops ({1000 * tail_ms:.1f} ms)")
    for e in main_res["errors"][:5]:
        print(f"  failed: {e}")
    for name in units:
        print(f"  {name} {metrics[name]:.6g} {units[name]}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
