"""Opt-in seed sweeps of the acceptance criteria.

The acceptance suite checks each statistical criterion at one pinned seed.
A sweep reruns a criterion over K seeds and prints every seed's value, its
margin to the nearest bound and the pass rate, so a verdict that only holds
at the pinned seed shows up. Each sweep calls its criterion's own
measurement in ``tests/test_acceptance.py``, so the call and the bounds are
the pinned test's. Sweeps carry the ``sweep`` marker, which the default run
deselects (see ``addopts`` in pyproject.toml). Run them with::

    pytest -m sweep -s tests/test_seed_sweep.py

``ADAPTGAP_SWEEP_SEEDS`` sets K (default 8). Seed k of a sweep is the
criterion's pinned seed plus k, so k = 0 repeats the pinned verdict.
"""

import math
import os

import pytest

from test_acceptance import (
    SEED,
    direction_checks,
    ds_direct_sum,
    measure_01,
    measure_02,
    measure_03,
    measure_04,
    measure_07,
    measure_08,
    measure_13,
)


def sweep_seeds(base: int) -> list[int]:
    return [base + k for k in range(int(os.environ.get("ADAPTGAP_SWEEP_SEEDS", "8")))]


def sweep(criterion: int, base: int, measure) -> None:
    """Run ``measure(seed)`` at every sweep seed; print and assert its checks."""
    tag = f"[sweep {criterion:02d}]"
    verdicts = []
    margins: dict[str, float] = {}
    for seed in sweep_seeds(base):
        checks = measure(seed)
        ok = all(check.ok for check in checks)
        verdicts.append(ok)
        for check in checks:
            margins[check.label] = min(margins.get(check.label, math.inf), check.margin)
        parts = "; ".join(f"{check} (margin {check.margin:+.4f})" for check in checks)
        print(f"{tag} seed={seed} {parts} {'PASS' if ok else 'FAIL'}")
    nearest = ", ".join(f"{label} {m:+.4f}" for label, m in margins.items())
    rate = f"{sum(verdicts)}/{len(verdicts)}"
    print(f"{tag} pass rate {rate}; smallest margins: {nearest}")
    assert all(verdicts)


@pytest.mark.sweep
def test_criterion_01_mc_rate_over_seeds():
    sweep(1, SEED, measure_01)


@pytest.mark.sweep
def test_criterion_02_nonadaptive_gap_rate_over_seeds():
    sweep(2, SEED + 2, measure_02)


@pytest.mark.sweep
def test_criterion_03_adaptive_rate_over_seeds():
    sweep(3, SEED + 3, measure_03)


@pytest.mark.sweep
def test_criterion_04_ratio_slope_over_seeds():
    sweep(4, SEED + 4, measure_04)


@pytest.mark.sweep
def test_criterion_07_unbiasedness_over_seeds():
    # The matrices are drawn at the sweep seed and the estimates at the
    # next one, as criterion 07 draws them at SEED + 10 and SEED + 11.
    sweep(7, SEED + 10, measure_07)


@pytest.mark.sweep
def test_criterion_08_norm_rate_over_seeds():
    sweep(8, SEED + 12, measure_08)


@pytest.mark.sweep
def test_criterion_10_adaptive_beats_nonadaptive_over_seeds():
    sweep(10, SEED + 15, lambda seed: direction_checks(ds_direct_sum(seed)))


@pytest.mark.sweep
def test_criterion_13_one_row_a2_closed_forms_over_seeds():
    sweep(13, SEED + 17, measure_13)
