"""Record the facts each workload must reproduce into ``reference.json``.

    python3 perfbench/record_reference.py

Runs every workload's canonical and held-out command once and stores the
facts ``workloads.extract_facts`` takes from its output.  Run it only on a
commit whose outputs are known to be right: the benchmark then treats any
other output as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    work_dir = run.BENCH_DIR / ".work" / "record-reference"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(work_dir)
    reference = {}
    try:
        for name, spec in workloads.WORKLOADS.items():
            for variant in ("argv", "held_out"):
                inv, text = runner.spawn("cli", [sys.executable, "-m", "vilenkin.cli"] + spec[variant])
                if inv.error is not None:
                    print(f"{name} ({variant}): {inv.error}", file=sys.stderr)
                    return 1
                facts = workloads.extract_facts(spec["output"], text)
                if not facts["verdict"]:
                    print(f"{name} ({variant}): verdict is false", file=sys.stderr)
                    return 1
                reference.setdefault(name, {})[variant] = facts
                print(f"{name} ({variant}): {inv.wall_s:.2f} s, {inv.output_bytes} bytes")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
