"""End-to-end benchmark of the ``vilenkin`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--held-out]

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  Every invocation is a fresh
``python3 -m vilenkin.cli ...`` process, started only after the previous
one has exited: a closed loop with one client.  Invocations repeat until
``--seconds`` have passed (at least one always runs).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the
fastest wall time and the median peak RSS of an invocation, the median
start-up time of a child that only imports ``vilenkin.cli``, and the share
of invocations that passed.  ``--trace 1`` alternates untraced invocations with traced
ones (``spans.py``) and reports the per-layer metrics.

Each invocation's output is checked against ``reference.json`` outside
the timed region; a nonzero exit, a timeout or a mismatch is a failure.
The last line of standard output is one JSON object; a fuller record,
with every sample and the environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 7
# a hang must not stall the run: the whole run has to end within 180 s
INVOCATION_TIMEOUT_S = 60.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Invocation:
    kind: str  # "setup", "cli" or "traced"
    wall_s: float
    cpu_s: float  # user + system time of this child, from wait4
    peak_rss_mb: float  # this child's own peak, from wait4
    exit_code: int
    output_bytes: int
    error: str | None  # why it failed, or None


class Runner:
    """Spawns one child at a time and accounts for each one separately."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old
        # Every measured code path is single-threaded.  A BLAS thread pool
        # only adds its start-up to each import: about 80 ms on 2 shared
        # vCPUs, and swinging with the load on the second one.
        self.env.update((var, "1") for var in BLAS_VARS)

    def spawn(self, kind: str, argv: list[str]) -> tuple[Invocation, str]:
        """Run ``argv`` to completion; returns the accounting and its stdout."""
        out_path = self.work_dir / "stdout"
        err_path = self.work_dir / "stderr"
        expired = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.work_dir, env=self.env)

            def expire():
                expired.set()
                proc.kill()

            timer = threading.Timer(INVOCATION_TIMEOUT_S, expire)
            timer.start()
            status = None
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
                # carry the largest RSS of any earlier child
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                wall = time.perf_counter() - start
                timer.cancel()
                if status is None:
                    proc.kill()
                    os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        text = out_path.read_text(encoding="utf-8", errors="replace")
        error = None
        if expired.is_set() and proc.returncode == -signal.SIGKILL:
            error = f"timed out after {INVOCATION_TIMEOUT_S:g} s"
        elif proc.returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-500:]
            error = f"exit code {proc.returncode}: {tail}"
        inv = Invocation(
            kind=kind,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            exit_code=proc.returncode,
            output_bytes=out_path.stat().st_size,
            error=error,
        )
        return inv, text

    def setup_probe(self) -> Invocation:
        return self.spawn("setup", [sys.executable, "-c", "import vilenkin.cli"])[0]


def run_cli(runner, cli_args, check, traced: bool, run_id: str):
    """One invocation, checked after it has exited.  Returns the accounting
    and, for a traced invocation, the trace document."""
    if traced:
        trace_path = runner.work_dir / "trace.json"
        argv = [sys.executable, str(BENCH_DIR / "spans.py"), str(trace_path), run_id, "--"]
        inv, text = runner.spawn("traced", argv + cli_args)
    else:
        inv, text = runner.spawn("cli", [sys.executable, "-m", "vilenkin.cli"] + cli_args)
    if inv.error is None:
        inv.error = check(text)
    trace = None
    if traced and inv.error is None:
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
    if inv.error is not None:
        print(f"perfbench: {run_id} failed: {inv.error}", file=sys.stderr)
    return inv, trace


def layer_values(trace: dict, inv: Invocation) -> dict[str, float]:
    """Per-layer values of one traced invocation, keyed by metric name."""
    values: dict[str, float] = dict(trace["counts"])
    for name, agg in spans.summarize(trace["spans"]).items():
        values[f"{name}.calls"] = agg["calls"]
        values[f"{name}.self_s"] = agg["self_s"]
    step_points = values.get("kernels.summed_partial_sums.step_points", 0)
    if step_points:
        sweep_s = values["kernels.summed_partial_sums.self_s"]
        values["kernels.summed_partial_sums.ns_per_step_point"] = sweep_s * 1e9 / step_points
    values["serialize.output_bytes"] = inv.output_bytes
    values["process.import_s"] = trace["import_s"]
    values["process.cpu_s"] = inv.cpu_s
    return values


def quartiles(values: list[float]) -> dict | None:
    if not values:
        return None
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3}


def environment(child_env: dict) -> dict:
    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.machine()

    def git_commit():
        # the checkout may not be a repository; never look above it
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {var: child_env.get(var) for var in BLAS_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--held-out", action="store_true",
        help="run the workload's held-out input instead of its canonical one",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "vilenkin" / "cli.py").is_file():
        print(f"perfbench: no vilenkin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    reference = workloads.load_reference()
    variant = "held_out" if args.held_out else "argv"
    cli_args = workloads.WORKLOADS[args.workload][variant]

    def check(text):
        return workloads.check_output(args.workload, variant, text, reference)

    # The inputs are fixed per workload: every seed runs the same command, so
    # runs with different seeds measure the same work.  The seed is recorded.
    label = f"{args.workload}{'-held-out' if args.held_out else ''}-seed{args.seed}-trace{args.trace}"
    work_dir = BENCH_DIR / ".work" / f"{label}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        runner = Runner(work_dir)
        # compile bytecode and fill the page cache once; users do not pay
        # for that on every run
        warm = runner.setup_probe()
        if warm.error is not None:
            print(f"perfbench: cannot import vilenkin.cli: {warm.error}", file=sys.stderr)
            return 2
        setup, cli, traced, traces = [], [], [], []
        start = time.perf_counter()
        while not cli or (args.trace and not traced) or time.perf_counter() - start < args.seconds:
            trace_next = bool(args.trace) and len(traced) < len(cli)
            if not args.trace:
                # interleaved, so start-up is timed under the same conditions
                setup.append(runner.setup_probe())
            run_id = f"{label}-{len(cli) + len(traced)}"
            inv, trace = run_cli(runner, cli_args, check, trace_next, run_id)
            (traced if trace_next else cli).append(inv)
            if trace is not None:
                traces.append((trace, inv))
        while not args.trace and len(setup) < SETUP_PROBES:
            setup.append(runner.setup_probe())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = cli + traced
    failed = sum(inv.error is not None for inv in attempted)
    ok_cli = [inv for inv in cli if inv.error is None] or cli
    wall = [inv.wall_s for inv in ok_cli]
    if args.trace:
        specs = bench["per_layer"]
        per_inv = [layer_values(trace, inv) for trace, inv in traces]
        values = {
            m["name"]: statistics.median_low(v.get(m["name"], 0) for v in per_inv) if per_inv else 0
            for m in specs
        }
        traced_ok = [inv.wall_s for _, inv in traces]
        values["trace.overhead_ratio"] = min(traced_ok) / min(wall) if traced_ok else 0.0
    else:
        specs = bench["end_to_end"]
        values = {
            # the fastest invocation, not the median: see README.md, "Noise"
            "wall_s": min(wall),
            "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in ok_cli),
            "setup_s": statistics.median(inv.wall_s for inv in setup),
            "pass_ratio": (len(attempted) - failed) / len(attempted),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "variant": variant,
        "command": ["python3", "-m", "vilenkin.cli"] + cli_args,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(runner.env),
        "samples": len(wall),
        "wall_s_quartiles": quartiles(wall),
        "setup_s_quartiles": quartiles([inv.wall_s for inv in setup]),
        "metrics": metrics,
        "invocations": [asdict(inv) for inv in [warm] + setup + attempted],
        "traces": [trace for trace, _ in traces],
    }
    with open(RESULTS_DIR / f"{label}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(attempted), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
