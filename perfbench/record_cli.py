"""Record the expected exit code and stdout digest of every command the
cli-pipeline workload can run (perfbench/expected_cli.json).

    python3 perfbench/record_cli.py

Run it from the root of a checkout only when the CLI's output is meant to
change; the benchmark compares every cli-pipeline op against this file.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    pool = workloads.cli_pool()
    workdir = HERE.parent / ".perfbench_out" / "record-cli"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = workloads.child_env()
    expected = {}
    try:
        # seq build first: slice and index-of read the specs it writes
        for kind in ["seq_build"] + [k for k in pool if k != "seq_build"]:
            for argv in pool[kind]:
                code, out, _ = workloads.run_child([sys.executable, "-m", "conseq.cli", *argv], workdir, env)
                expected[workloads.cli_key(argv)] = [code, workloads.digest(out)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.EXPECTED_CLI, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
