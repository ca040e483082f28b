"""The benchmark's workloads: what one operation runs, how many trials it
holds, and how its output is checked.

An operation's inputs follow from its master seed alone, so the workload
seed fixes the whole input sequence. The program only ever receives the argv
(or the ``rms_error`` arguments) built here.
"""

from __future__ import annotations

import contextlib
import io

import checks
from adaptgap import cli, harness
from adaptgap.hard_instances import HardFamily, Variant
from adaptgap.spaces import INF, ProblemSpec


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``adaptgap`` in-process; returns (exit status, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


class GapDense:
    """``adaptgap gap`` at its CLI defaults, one worker."""

    name = "gap-dense"
    why = (
        "headline experiment at n up to 2^16 (13 MB instances): time goes to "
        "a2's 864k-entry gather and its index draws"
    )
    workers = 1
    # Enough trials that a top-budget ratio of at most 1 is out of reach: it
    # shows by chance in about one invocation in 75 at 2 trials, and in about
    # one in 2000 at 4.
    trials = 8
    budgets = 4  # the CLI's default ladder 2^10, 2^12, 2^14, 2^16
    # One trial is one matched a3 + a2 pair at one budget.
    trials_per_op = trials * budgets

    def inputs(self, seed: int, workers: int) -> list[str]:
        return ["gap", "--workers", str(workers), "--trials", str(self.trials),
                "--seed", str(seed)]

    def execute(self, argv: list[str]) -> tuple[int, str]:
        return run_cli(argv)

    def check(self, text: str) -> list[str]:
        return checks.check_gap(text, self.budgets)


#: rms_error cells (N1, N2, n) of the tiny workload: N1, N2 <= 23 and
#: N1 <= n <= 8*N1, the shape of the cost-bound acceptance criterion.
TINY_CELLS = tuple(
    (n1, n2, 4 * n1) for n1 in (3, 7, 11, 15, 19, 23) for n2 in (5, 23)
)

TINY_COLUMNS = "estimator,n1,n2,n,trials,rms,stderr,mean_card,mae"


class TinyTrials:
    """``harness.rms_error`` for a3 and a2 on tiny mu4 instances."""

    name = "tiny-trials"
    why = (
        "mu4 instances with N1, N2 <= 23: arrays of a few hundred entries, so "
        "Python per-call overhead (generators, allocation, dispatch) dominates"
    )
    workers = 1
    trials = 8
    # One trial is one estimator run (a3 or a2) on a fresh instance.
    trials_per_op = 2 * trials * len(TINY_CELLS)

    def inputs(self, seed: int, workers: int) -> list[tuple]:
        """The ``rms_error`` calls of one operation, as (family, kind, n,
        seed, workers)."""
        return [
            (HardFamily(Variant.ACTIVE_ROW_BERNOULLI, ProblemSpec(n1, n2, 1.0, INF)),
             kind, n, seed, workers)
            for n1, n2, n in TINY_CELLS
            for kind in (harness.EstimatorKind.A3, harness.EstimatorKind.A2)
        ]

    def execute(self, calls: list[tuple]) -> tuple[int, str]:
        lines = [TINY_COLUMNS]
        for family, kind, n, seed, workers in calls:
            st = harness.rms_error(family, kind, n, self.trials, seed, workers=workers)
            spec = family.spec
            lines.append(
                f"{kind.value},{spec.n1},{spec.n2},{n},{st.trials},{st.rms!r},"
                f"{st.stderr!r},{st.mean_card!r},{st.mae!r}"
            )
        return 0, "\n".join(lines) + "\n"

    def check(self, text: str) -> list[str]:
        return checks.check_rms(text, 2 * len(TINY_CELLS))


class DsPool:
    """``adaptgap ds`` with both modes through a two-worker process pool."""

    name = "ds-pool"
    why = (
        "direct sums at delta=0.2 through the 2-worker pool: full readouts, 11 "
        "levels to 1024^2; also runs ds at defaults untimed, whose known exit 3 "
        "is reported, not hidden"
    )
    workers = 2
    # Enough trials that starting the pool is a small part of an operation,
    # few enough that a 25 s run holds some 40 operations.
    trials = 40
    k0 = (4, 5, 6)
    delta = 0.2
    alpha = 1.5  # CLI default
    c0 = 0.5  # CLI default
    # One trial is one sampled direct-sum input with all its composites.
    trials_per_op = trials

    def inputs(self, seed: int, workers: int) -> list[str]:
        return ["ds", "--k0", ",".join(map(str, self.k0)), "--delta", str(self.delta),
                "--mode", "both", "--workers", str(workers),
                "--trials", str(self.trials), "--seed", str(seed)]

    def execute(self, argv: list[str]) -> tuple[int, str]:
        return run_cli(argv)

    def check(self, text: str) -> list[str]:
        return checks.check_ds(text, self.k0, self.alpha, self.delta, self.c0)

    def defaults_status(self, seed: int) -> int:
        """Exit status of ``adaptgap ds`` at every default but the trial
        count. Untimed; it surfaces the known defect that the default
        delta = (alpha - 1) / 2 schedules 1023 samples at level 10, below
        N = 1024, so the command exits 3."""
        code, _ = run_cli(["ds", "--trials", "2", "--seed", str(seed)])
        return code


WORKLOADS = {w.name: w for w in (GapDense(), TinyTrials(), DsPool())}
