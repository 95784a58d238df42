"""One workload run in a fresh interpreter.

Started by run.py, never directly:

    python3 perfbench/worker.py --workload W --seed S --result FILE --workdir DIR
        (--ops N | --setup-only) [--trace SPANS_FILE]

It imports conseq from the checkout's src/, builds the workload (set-up),
then runs N ops in a closed loop, checking each output after its timed call.
The result goes to FILE as JSON; run.py turns it into metrics.  With
--setup-only it stops where the first op would start.  With --trace it
installs the span tracer before set-up and writes the spans to SPANS_FILE at
the end.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer, merge_summaries  # noqa: E402


def run_ops(wl, ops: int, tracer=None) -> dict:
    latencies: list[float] = []
    kinds: list[str] = []
    errors: list[str] = []
    requested = decided = 0
    for i in range(ops):
        if tracer is not None:
            tracer.op_id = i
        kind, args = wl.next_op(i)
        err = None
        t0 = time.perf_counter()
        try:
            out = wl.run(kind, args)
        except Exception as e:  # an op that raises is a failed op, not a crashed run
            err = f"{kind}: {type(e).__name__}: {e}"
        lat = time.perf_counter() - t0
        if tracer is not None:
            tracer.paused = True
        if err is None:
            try:
                req, dec, msg = wl.check(kind, args, out)
                requested += req
                decided += dec
                err = f"{kind}: {msg}" if msg else None
            except Exception as e:
                err = f"{kind}: check raised {type(e).__name__}: {e}"
        if tracer is not None:
            tracer.paused = False
        if err is not None:
            errors.append(err)
        latencies.append(lat)
        kinds.append(kind)
    return {
        "latencies": latencies,
        "kinds": kinds,
        "failed": len(errors),
        "errors": errors[:20],
        "requested": requested,
        "decided": decided,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workdir", required=True)
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--ops", type=int)
    group.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, metavar="SPANS_FILE")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import conseq.cli  # noqa: F401  (the import a conseq process pays)

    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    if tracer is not None and isinstance(wl, workloads.CliPipeline):
        wl.traced = True
    result = {"t_ready": time.perf_counter(), "import_s": import_s}
    if not args.setup_only:
        result.update(run_ops(wl, args.ops, tracer))
        if isinstance(wl, workloads.CliPipeline):
            result["peak_rss_kib"] = wl.peak_rss_kib
            result["child_import_s"] = wl.import_s
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        child_spans = []
        if isinstance(wl, workloads.CliPipeline):
            for s in wl.trace_summaries:
                merge_summaries(summary, s)
            child_spans = [(f"child{k}", s) for k, s in wl.trace_spans]
        result["trace"] = summary
        result["spans_dropped"] = tracer.dropped
        tracer.dump(args.trace, child_spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
