"""Tests of the benchmark's own code: span reductions, computed traffic
figures, and the output checks.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import adaptgap  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402
from workloads import WORKLOADS, run_cli  # noqa: E402


def tree():
    """root [0, 100) with children x [10, 40) and y [30, 60), overlapping on
    [30, 40); x has child z [15, 25); one orphan span w [200, 210)."""
    return [
        Span(0, None, "cli.run", 0, 100, None),
        Span(1, 0, "harness.gap_experiment", 10, 40, None),
        Span(2, 0, "estimators.mc_mean_a2", 30, 60, 1),
        Span(3, 1, "oracle.QueryTape.query_many", 15, 25, 1),
        Span(4, None, "spaces.scalar_mean", 200, 210, None),
    ]


def test_self_time_is_span_minus_child_coverage():
    # root: 100 - |[10, 60)| = 50; x: 30 - 10 = 20; leaves keep their length.
    assert spans.self_times(tree()) == [50, 20, 30, 10, 10]


def test_module_self_share_sums_self_time_over_wall():
    metrics, _, extras = spans.layer_report(tree(), trials=1, ops=1, wall_ns=200)
    assert metrics["cli.self_share"] == (50 / 200, "share")
    assert metrics["harness.self_share"] == (20 / 200, "share")
    assert metrics["estimators.self_share"] == (30 / 200, "share")
    assert metrics["oracle.self_share"] == (10 / 200, "share")
    assert metrics["spaces.self_share"] == (10 / 200, "share")
    assert metrics["direct_sum.self_share"] == (0.0, "share")
    assert extras["cli.self_ms"] == (50 / 1e6, "ms per invocation")


def test_a3_stages_split_at_the_allocation():
    s = [
        Span(0, None, spans.A3, 100, 200, 1),
        Span(1, 0, spans.ALLOC, 130, 150, 1),
    ]
    assert spans.a3_stages(s) == ([30], [20], [50])


@pytest.mark.parametrize(
    "count, pct", [(5, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (1000, 99.0), (10000, 99.9)]
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, pct):
    assert spans.tail_percentile(count) == pct


def test_timing_uses_nearest_rank():
    t = spans.timing([float(v) for v in range(100, 0, -1)])
    assert (t["p50"], t["tail"], t["tail_pct"], t["calls"]) == (50.0, 90.0, 90.0, 100)


def test_computed_traffic_matches_a_hand_case():
    # Two a2 trials on a 2 x 3 instance with n = 4. Per trial: one instance of
    # 6 float64 entries (48 B); the index pairs drawn twice, once to declare
    # the tape and once by the estimator (2 * 4 * 16 B); 4 queries gathered
    # at 8 B per value plus 16 B per index pair (96 B).
    spec = adaptgap.ProblemSpec(2, 3, 1.0, adaptgap.INF)
    family = adaptgap.HardFamily(adaptgap.Variant.ACTIVE_ROW_BERNOULLI, spec)
    tracer = spans.Tracer()
    with tracer.install(adaptgap):
        adaptgap.rms_error(family, adaptgap.EstimatorKind.A2, 4, 2, 7)
    metrics, _, _ = spans.layer_report(tracer.spans, trials=2, ops=1, wall_ns=1)
    assert metrics["hard_instances.instance_mb"] == (48 / 1e6, "MB")
    assert metrics["estimators.indices_mb"] == (128 / 1e6, "MB")
    assert metrics["oracle.gather_mb"] == (96 / 1e6, "MB")
    assert metrics["oracle.queries_per_trial"] == (4.0, "count")
    assert metrics["estimators.draw_indices_calls_per_trial"] == (2.0, "count")
    assert {s.trial for s in tracer.spans if s.name == spans.SAMPLE} == {1, 2}


def test_install_restores_the_package_and_keeps_output_identical():
    argv = ["gap", "--budgets", "256,512", "--c3", "5", "--trials", "2", "--seed", "3"]
    original = adaptgap.estimators.draw_indices
    plain = run_cli(argv)
    tracer = spans.Tracer()
    with tracer.install(adaptgap):
        assert adaptgap.harness.draw_indices is not original
        traced = run_cli(argv)
    assert adaptgap.estimators.draw_indices is original
    assert adaptgap.harness.draw_indices is original
    assert traced == plain
    assert {s.name for s in tracer.spans} >= {"cli.run", spans.A3, spans.QUERY}


GAP = """\
# adaptgap gap
n,n1,n2,trials,rms_a2,stderr_a2,rms_a3,stderr_a3,ratio,mean_card_a2,mean_card_a3,seed
1024,160,160,5,0.02,0.004,0.01,0.002,2.0,5000.0,5000.0,3
4096,320,320,5,0.03,0.004,0.01,0.002,3.0,25000.0,25000.0,3
"""


def test_gap_check_accepts_a_valid_output():
    assert checks.check_gap(GAP, 2) == []


@pytest.mark.parametrize(
    "old, new, problem",
    [
        ("3.0,25000.0,25000.0", "3.0,25000.0,24999.0", "mean_card_a2"),
        ("0.03,0.004", "nan,0.004", "not finite"),
        ("3.0,25000.0,25000.0", "0.9,25000.0,25000.0", "ratio"),
        ("2.0,5000.0,5000.0", "2.0,1e9,1e9", "exceeds 6mn"),
    ],
)
def test_gap_check_rejects_a_doctored_row(old, new, problem):
    problems = checks.check_gap(GAP.replace(old, new), 2)
    assert problems and problem in " ".join(problems)


def test_rms_and_ds_checks_reject_doctored_rows():
    rows = "estimator,n1,n2,n,trials,rms,stderr,mean_card,mae\n"
    good = rows + "a2,3,5,12,25,0.1,0.01,12.0,0.08\na3,3,5,12,25,0.05,0.01,80.0,0.04\n"
    assert checks.check_rms(good, 2) == []
    assert "a2 mean_card" in " ".join(checks.check_rms(good.replace(",12.0,", ",13.0,"), 2))

    # k0 = 1, alpha = 1.5, delta = 0.2, c0 = 0.5: levels 0 (readout, 1) and
    # 1 (ceil(0.5 * 2^2) - 1 = 1), so plain MC costs exactly 2.
    assert checks.ds_schedule(1, 1.5, 0.2, 0.5) == [(0, 1), (1, 1)]
    ds = ("k0,mode,trials,rms,stderr,mean_card,seed\n"
          "1,adaptive,2,0.1,0.01,3.0,0\n1,nonadaptive,2,0.2,0.01,2.0,0\n"
          "# ratio k0=1: nonadaptive/adaptive=2.0\n")
    assert checks.check_ds(ds, (1,), 1.5, 0.2, 0.5) == []
    assert "schedule total" in " ".join(
        checks.check_ds(ds.replace(",2.0,0\n# ratio", ",3.0,0\n# ratio"), (1,), 1.5, 0.2, 0.5)
    )


def test_digest_ignores_comment_lines():
    assert checks.digest(GAP) == checks.digest("# other header\n" + GAP)
    assert checks.digest(GAP) != checks.digest(GAP.replace("0.02", "0.021"))


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_runner_prints_exactly_the_declared_metrics(trace, section):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tiny-trials",
         "--seed", "5", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_workload_reasons_match_the_declaration():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_runner_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gap-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
