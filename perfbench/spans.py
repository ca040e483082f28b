"""In-memory spans around adaptgap's public functions, and the per-layer
metrics derived from them.

``Tracer.install`` replaces every public function of the eight adaptgap
layers (and every public method of their public classes) with a wrapper that
records one span per call: name, start, end, the enclosing span, the trial it
belongs to, and a work size for the calls whose cost scales with one
(queries answered, index pairs drawn, instance entries built). Every module
that imported a function by name sees the wrapper too, so the spans sit on
the boundaries where one layer calls another. Nothing inside the package is
edited, and ``install`` restores the originals when its block ends.

A trial starts when an experiment entry point (``gap_experiment``,
``rms_error``, ``ds_experiment``) samples a fresh input; every span until
the next such start carries that trial's id.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = (
    "spaces",
    "oracle",
    "rng",
    "estimators",
    "hard_instances",
    "direct_sum",
    "harness",
    "cli",
)

_EXPERIMENTS = {"harness.gap_experiment", "harness.rms_error", "harness.ds_experiment"}
_TRIAL_STARTS = {"hard_instances.HardFamily.sample", "harness.sample_ds_input"}

QUERY = "oracle.QueryTape.query_many"
DRAW = "estimators.draw_indices"
SAMPLE = "hard_instances.HardFamily.sample"
A3 = "estimators.adaptive_mean_a3"
ALLOC = "estimators.allocate_samples"
DS_ESTIMATE = "direct_sum.ds_estimate"
STAGE1 = f"{A3}[stage 1]"
STAGE_ALLOC = f"{A3}[allocation]"
STAGE2 = f"{A3}[stage 2]"

#: Bytes behind one unit of work, for the computed traffic figures: a
#: gathered query moves one float64 value and one (row, col) int64 pair, a
#: drawn index is one int64 pair, an instance entry one float64.
GATHER_BYTES_PER_QUERY = 8 + 16
INDEX_BYTES_PER_PAIR = 16
INSTANCE_BYTES_PER_ENTRY = 8


def _length(result) -> int:
    return len(result)


def _entries(result) -> int:
    return result.entries.size


#: Work size of a call, from its result: values gathered, index pairs drawn,
#: instance entries built.
_SIZES = {QUERY: _length, DRAW: _length, SAMPLE: _entries}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: int
    end: int
    trial: int | None
    size: int = 0

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans in memory; single-threaded, one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trial: int | None = None
        self._trials = 0

    def wrap(self, name: str, fn):
        size = _SIZES.get(name)
        starts_trial = name in _TRIAL_STARTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if starts_trial and parent is not None and parent.name in _EXPERIMENTS:
                self._trials += 1
                self._trial = self._trials
            span = Span(
                len(self.spans),
                None if parent is None else parent.id,
                name,
                0,
                0,
                self._trial,
            )
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if size is not None:
                span.size = size(result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self, package):
        """Wrap the public callables of every layer of ``package``."""
        modules = [getattr(package, layer) for layer in LAYERS]
        originals = {}
        patches = []
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            wrapped = self.wrap(f"{short}.{name}.{attr}", member)
                            patches.append((obj, attr, member, wrapped))
        for module in [package, *modules]:
            for name, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((module, name, obj, hit[1]))
        try:
            for owner, attr, _, wrapped in patches:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)
            self._stack.clear()
            self._trial = None

    def write(self, path, header: dict) -> None:
        """Write ``header`` (plus the span names) as the first JSON line, then
        one line per span: [id, parent, name index, start ns, end ns, trial,
        size]."""
        names = sorted({s.name for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "names": names}, sort_keys=True) + "\n")
            for s in self.spans:
                row = [s.id, s.parent, index[s.name], s.start, s.end, s.trial, s.size]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0
        cursor = s.start
        for a, b in sorted(children.get(s.id, ())):
            a = max(a, cursor)
            b = min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.end - s.start - covered)
    return out


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(round(len(sorted_values) * pct / 100.0, 9))
    return sorted_values[max(0, k - 1)]


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with at least 10 samples beyond it
    (the median when there are fewer than 20 samples)."""
    for pct in TAIL_PERCENTILES:
        if round(count * (100.0 - pct) / 100.0, 9) >= 10.0:
            return pct
    return 50.0


def timing(values) -> dict:
    """p50, tail and sample count of a list of durations."""
    if not values:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "calls": 0}
    vals = sorted(values)
    pct = tail_percentile(len(vals))
    return {
        "p50": percentile(vals, 50.0),
        "tail": percentile(vals, pct),
        "tail_pct": pct,
        "calls": len(vals),
    }


def a3_stages(spans: list[Span]) -> tuple[list[int], list[int], list[int]]:
    """Split each a3 call at its ``allocate_samples`` child: stage 1 runs up
    to the allocation, stage 2 from its end to the end of the a3 call."""
    alloc = {s.parent: s for s in spans if s.name == ALLOC and s.parent is not None}
    stage1, stage_alloc, stage2 = [], [], []
    for s in spans:
        if s.name != A3 or s.id not in alloc:
            continue
        a = alloc[s.id]
        stage1.append(a.start - s.start)
        stage_alloc.append(a.end - a.start)
        stage2.append(s.end - a.end)
    return stage1, stage_alloc, stage2


#: Per-call timings reported in the per-layer metrics, as
#: (metric, span name or a3 stage, unit scale in ns).
TIMINGS = (
    ("oracle.query_many_ms", QUERY, 1e6),
    ("oracle.open_nonadaptive_ms", "oracle.open_nonadaptive", 1e6),
    ("estimators.draw_indices_ms", DRAW, 1e6),
    ("estimators.a2_ms", "estimators.mc_mean_a2", 1e6),
    ("estimators.a3_ms", A3, 1e6),
    ("estimators.a3_stage1_ms", STAGE1, 1e6),
    ("estimators.a3_alloc_ms", STAGE_ALLOC, 1e6),
    ("estimators.a3_stage2_ms", STAGE2, 1e6),
    ("rng.generator_us", "rng.RngStream.generator", 1e3),
    ("hard_instances.sample_ms", SAMPLE, 1e6),
)

#: Timings of calls that only some workloads make. The JSON result carries
#: their share of traced wall time, which is 0 where the call never happens;
#: the per-call figures appear in the readable report.
PARTIAL_TIMINGS = (
    "spaces.scalar_mean",
    DS_ESTIMATE,
    "direct_sum.ds_integral",
    "harness.sample_ds_input",
)


def layer_report(spans: list[Span], trials: int, ops: int, wall_ns: int):
    """Per-layer metrics, the per-call timing table (ms) of every span name,
    and readable-only extras, for one traced run.

    ``trials`` and ``ops`` count the trials and program invocations that ran
    under the tracer, ``wall_ns`` their total wall time.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    durations = {name: [s.end - s.start for s in group] for name, group in by_name.items()}
    stage1, stage_alloc, stage2 = a3_stages(spans)
    durations.update({STAGE1: stage1, STAGE_ALLOC: stage_alloc, STAGE2: stage2})

    metrics = {}
    for metric, name, scale in TIMINGS:
        t = timing([d / scale for d in durations.get(name, ())])
        unit = metric.rsplit("_", 1)[-1]
        metrics[f"{metric}.p50"] = (t["p50"], unit)
        metrics[f"{metric}.tail"] = (t["tail"], unit)
        metrics[f"{metric}.calls"] = (t["calls"], "count")
    for name in PARTIAL_TIMINGS:
        metrics[f"{name}_share"] = (sum(durations.get(name, ())) / wall_ns, "share")

    def size_of(name):
        return sum(s.size for s in by_name.get(name, ()))

    queries = size_of(QUERY)
    readout = sum(
        s.size
        for s in by_name.get(QUERY, ())
        if s.parent is not None and spans[s.parent].name == DS_ESTIMATE
    )
    metrics["oracle.queries_per_trial"] = (queries / trials, "count")
    metrics["oracle.gather_mb"] = (queries * GATHER_BYTES_PER_QUERY / 1e6 / trials, "MB")
    metrics["estimators.draw_indices_calls_per_trial"] = (
        len(by_name.get(DRAW, ())) / trials,
        "count",
    )
    metrics["estimators.indices_mb"] = (
        size_of(DRAW) * INDEX_BYTES_PER_PAIR / 1e6 / trials,
        "MB",
    )
    metrics["rng.generator_calls_per_trial"] = (
        len(by_name.get("rng.RngStream.generator", ())) / trials,
        "count",
    )
    metrics["hard_instances.instance_mb"] = (
        size_of(SAMPLE) * INSTANCE_BYTES_PER_ENTRY / 1e6 / trials,
        "MB",
    )
    metrics["direct_sum.readout_share"] = (readout / queries if queries else 0.0, "share")

    own = self_times(spans)
    per_module = defaultdict(int)
    for s, t in zip(spans, own):
        per_module[s.module] += t
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (per_module[layer] / wall_ns, "share")
    metrics["harness.self_ms_per_trial"] = (per_module["harness"] / 1e6 / trials, "ms")

    table = {name: timing([d / 1e6 for d in values]) for name, values in sorted(durations.items())}
    extras = {"cli.self_ms": (per_module["cli"] / 1e6 / ops, "ms per invocation")}
    return metrics, table, extras
