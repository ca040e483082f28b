"""Opt-in seed sweeps of the acceptance criteria.

The acceptance suite checks each statistical criterion at one pinned seed.
A sweep reruns a criterion over K seeds and prints every seed's value and
the pass rate, so a verdict that only holds at the pinned seed shows up.
Sweeps carry the ``sweep`` marker, which the default run deselects (see
``addopts`` in pyproject.toml). Run them with::

    pytest -m sweep -s tests/test_seed_sweep.py

``ADAPTGAP_SWEEP_SEEDS`` sets K (default 8). Seed k of a sweep is the
criterion's pinned seed plus k, so k = 0 repeats the pinned verdict.
"""

import os

import pytest

from adaptgap.harness import gap_experiment

CRITERION_04_SEED = 20_000_601 + 4
SQRT_GRID = (2**10, 2**12, 2**14, 2**16)
SLOPE_BOUNDS = (0.15, 0.35)


def sweep_seeds(base: int) -> list[int]:
    return [base + k for k in range(int(os.environ.get("ADAPTGAP_SWEEP_SEEDS", "8")))]


@pytest.mark.sweep
def test_criterion_04_ratio_slope_over_seeds():
    low, high = SLOPE_BOUNDS
    verdicts = []
    for seed in sweep_seeds(CRITERION_04_SEED):
        # The same call as criterion 04, at another seed.
        result = gap_experiment(list(SQRT_GRID), 1.0, trials=300, seed=seed, c0=2.0)
        slope = result.ratio_fit.slope
        last = result.rows[-1].ratio
        ok = low <= slope <= high and last > 1.0
        verdicts.append(ok)
        print(
            f"[sweep 04] seed={seed} ratio slope={slope:.4f} "
            f"ratio(2^16)={last:.2f} {'PASS' if ok else 'FAIL'}"
        )
    print(
        f"[sweep 04] pass rate {sum(verdicts)}/{len(verdicts)} "
        f"against slope in [{low}, {high}] and ratio(2^16) > 1"
    )
    assert all(verdicts)
