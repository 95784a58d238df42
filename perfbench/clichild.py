"""Run one conseq CLI command with the span tracer installed.

The traced cli-pipeline run starts this in place of `python -m conseq.cli`:

    python3 perfbench/clichild.py TRACE_FILE ARGV...

stdout and the exit code are those of `conseq ARGV...`; the import time of
conseq.cli, the per-layer totals and the spans go to TRACE_FILE as JSON.
PYTHONPATH must name the checkout's src/.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

t0 = time.perf_counter()
import conseq.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer(max_spans=10_000)
    tracer.install()
    try:
        code = conseq.cli.run(sys.argv[2:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "summary": tracer.summary(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
