"""Benchmark runner for adaptgap.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gap-dense --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload with tracing off for ``--seconds`` seconds,
checks every output, and reports the end-to-end metrics:

* ``trials_per_s`` (1/s): trials per wall second of one operation (one
  program invocation), taken at the 5th percentile of operation wall time
  over at least 21 operations, so never at the single fastest one.
  Other tenants of a shared host can only slow an operation down, and on a
  busy 2-core host they swing single operations by up to 2x for seconds at a
  time, so the fast end of many short operations is the steadiest estimate
  of the program's own speed; the median and other percentiles are printed
  beside it;
* ``setup_s`` (s): time from a fresh process's start to the point where it
  could run its first trial (thread pinning, the numpy and adaptgap imports,
  building the first operation's inputs), the median of 15 fresh processes
  started between the timed operations;
* ``peak_rss_mb`` (MB): peak resident memory, the larger of this process and
  any child it waited for (the pool workers of ``ds-pool``).

``--trace 1`` reports the per-layer metrics instead, for about a quarter of
``--seconds`` (at most 5 s). Each operation runs untraced and, in alternating
order, again with every public adaptgap function wrapped in a span (see
``spans.py``); the traced run must print byte-identical output. ``ds-pool`` is traced in-process at one worker,
after an untraced run at one worker that gives ``harness.pool_speedup`` and
the byte-identity reference. The spans are written at the end to
``.perfbench/spans-<workload>-seed<seed>.jsonl`` under the checkout.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report with
the provenance of the run. The package is imported from ``src/`` of the
checkout; without it the runner exits 2 before printing a result.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy loads, so no run (nor any process it
# starts) uses more threads than the machine's cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("gap-dense", "tiny-trials", "ds-pool")

#: Fresh processes started per run to measure ``setup_s``.
SETUP_PROBES = 15
#: Percentile of operation wall time that ``trials_per_s`` is taken at.
WALL_PERCENTILE = 5.0
#: Fewest operations a timed section runs: with 21 or more, the 5th
#: percentile is never the single fastest operation.
MIN_OPS = 21
#: Fewest operations a traced run records.
MIN_TRACED_OPS = 3
#: Longest a traced run records spans for.
TRACE_SECONDS = 5.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="print the monotonic clock once set up, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def import_workloads():
    """Import the workloads, and with them adaptgap from the checkout."""
    if not (SRC / "adaptgap" / "__init__.py").is_file():
        print(f"error: no adaptgap sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def op_seed(seed: int, index: int) -> int:
    """Master seed of operation ``index`` of a run with workload ``seed``."""
    return seed * 10_000 + index


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh runner to its being ready to run."""
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return (int(proc.stdout.split()[-1]) - start) / 1e9


class Section:
    """Runs operations of one workload, timing each and checking its output."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.walls: list[float] = []
        self.outputs: list[str] = []
        self.failed = 0

    def run(self, index: int, workers: int) -> None:
        inputs = self.workload.inputs(op_seed(self.seed, index), workers)
        start = time.perf_counter()
        try:
            code, text = self.workload.execute(inputs)
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
            code, text = None, ""
        wall = time.perf_counter() - start
        problems = self.workload.check(text) if code == 0 else [f"exit status {code}"]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed, op {index}: {p}", file=sys.stderr)
        self.walls.append(wall)
        self.outputs.append(text)


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def _without_workers(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("# workers=")]


def report(line: str) -> None:
    print(f"# {line}")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_untraced(workload, args):
    # The set-up probes are spread evenly over the timed section, between its
    # operations, so that their median samples the host's slow and fast
    # spells alike. Only the operations' own time counts towards --seconds.
    section = Section(workload, args.seed)
    setup = []
    while len(section.walls) < MIN_OPS or sum(section.walls) < args.seconds:
        if len(setup) < SETUP_PROBES and sum(section.walls) >= (
            len(setup) * args.seconds / SETUP_PROBES
        ):
            setup.append(measure_setup(workload.name, args.seed))
        section.run(len(section.walls), workload.workers)
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(workload.name, args.seed))

    walls = sorted(section.walls)
    per_op = workload.trials_per_op
    metrics = {
        "trials_per_s": (per_op / spans.percentile(walls, WALL_PERCENTILE), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report(f"ops {len(section.walls)} x {workload.trials_per_op} trials in "
           f"{sum(section.walls):.2f} s")
    report("trials_per_s at wall percentiles "
           + ", ".join(f"p{p}: {per_op / spans.percentile(walls, p):.4f}"
                       for p in (5, 10, 25, 50, 75, 90))
           + " 1/s")
    report("setup_s probes " + " ".join(f"{s:.4f}" for s in setup))
    report(f"digest seed={args.seed} op 0: {checks.digest(section.outputs[0])}")
    return [section], metrics, True


def run_traced(workload, args):
    import adaptgap

    # Each operation runs untraced (for a pool workload, also untraced at one
    # worker) and traced at one worker, traced first on every other index, so
    # drift in machine speed and warm-up favour neither. Tracing runs for a
    # quarter of --seconds, at most TRACE_SECONDS: the spans stay in memory
    # until the end.
    section = Section(workload, args.seed)
    pooled = workload.workers > 1
    reference = Section(workload, args.seed) if pooled else section
    traced = Section(workload, args.seed)
    tracer = spans.Tracer()
    deadline = time.perf_counter() + min(TRACE_SECONDS, max(1.0, args.seconds / 4))
    while len(traced.walls) < MIN_TRACED_OPS or time.perf_counter() < deadline:
        index = len(traced.walls)
        if index % 2:
            with tracer.install(adaptgap):
                traced.run(index, 1)
        section.run(index, workload.workers)
        if pooled:
            reference.run(index, 1)
        if not index % 2:
            with tracer.install(adaptgap):
                traced.run(index, 1)
    count = len(traced.walls)
    sections = [section, traced] + ([reference] if pooled else [])

    identical = traced.outputs == reference.outputs and all(
        _without_workers(a) == _without_workers(b)
        for a, b in zip(reference.outputs, section.outputs)
    )
    if not identical:
        print("check failed: traced output differs from the untraced run", file=sys.stderr)

    metrics, table, extras = spans.layer_report(
        tracer.spans, count * workload.trials_per_op, count, int(sum(traced.walls) * 1e9)
    )
    untraced = sum(reference.walls)
    metrics["trace.overhead_share"] = ((sum(traced.walls) - untraced) / untraced, "share")
    # 0 where the workload runs no process pool.
    speedup = untraced / sum(section.walls) if pooled else 0.0
    metrics["harness.pool_speedup"] = (speedup, "x")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(path, {"workload": workload.name, "seed": args.seed, "ops": count})

    report(f"traced {count} ops ({len(tracer.spans)} spans) -> "
           f"{path.relative_to(ROOT)}; byte-identical to untraced: {identical}")
    report(f"{'span':44} {'p50 ms':>12} {'tail ms':>12} {'tail pct':>8} {'calls':>8}")
    for name, t in table.items():
        report(f"{name:44} {t['p50']:12.6f} {t['tail']:12.6f} "
               f"{t['tail_pct']:8} {t['calls']:8}")
    for name, (value, unit) in extras.items():
        report(f"{name} = {value:.6f} {unit}")
    return sections, metrics, identical


def run_workload(workload, args) -> int:
    import adaptgap
    import numpy

    provenance = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "adaptgap": adaptgap.__version__,
        "workload": workload.name,
        "seed": args.seed,
        "op_seeds": f"{op_seed(args.seed, 0)}, {op_seed(args.seed, 1)}, ...",
        "workers": workload.workers,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "trace": args.trace,
    }
    report("provenance " + json.dumps(provenance, sort_keys=True))
    report(f"workload {workload.name}: {workload.why}")
    run_mode = run_traced if args.trace else run_untraced
    sections, metrics, ok = run_mode(workload, args)
    defaults = getattr(workload, "defaults_status", None)
    ds_code = defaults(args.seed) if defaults else None
    if ds_code not in (None, 0):
        report(f"known defect: `adaptgap ds` at its defaults exited {ds_code} (its "
               "error is on stderr); reported, not counted as a workload failure")
    if args.trace:
        metrics["check.ds_defaults_failed"] = (int(ds_code not in (None, 0)), "count")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    failed = sum(s.failed for s in sections)
    result = {
        "correct": ok and failed == 0,
        "attempted": sum(len(s.walls) for s in sections),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=900,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.inputs(op_seed(args.seed, 0), workload.workers)
        print(time.monotonic_ns(), flush=True)
        return 0
    return run_workload(workload, args)


if __name__ == "__main__":
    sys.exit(main())
