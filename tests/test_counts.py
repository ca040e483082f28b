"""Every count a caller passes in is taken through ``spaces.as_count``.

One table lists each entry point that takes a count: a side, a budget, a
sample count, a probe count, a row id or level, a trial count, a seed, a
stream id or a worker count. A non-integer (2.5, NaN, inf or the string "8") is refused
with a ``ValueError`` that names the parameter, where ``int()`` would have
truncated it, and an integral float or numpy scalar gives the same result
as the int.
"""

import math
import re

import numpy as np
import pytest

from adaptgap.direct_sum import DirectSumElement, DirectSumSpec, level_allocation
from adaptgap.errors import InvalidParameters
from adaptgap.estimators import (
    adaptive_mean_a3,
    allocate_samples,
    draw_plan,
    norm_est_a1,
    run_a3,
)
from adaptgap.hard_instances import HardFamily, Variant
from adaptgap.harness import (
    EstimatorKind,
    ds_experiment,
    gap_experiment,
    norm_deviation_experiment,
    rate_experiment,
    rms_error,
)
from adaptgap.oracle import open_adaptive
from adaptgap.rng import RngStream
from adaptgap.spaces import INF, MixedMatrix, ProblemSpec, as_count

MU4 = HardFamily(Variant.ACTIVE_ROW_BERNOULLI, ProblemSpec(2, 4, 1.0, INF))


def mu4():
    return MU4.sample(RngStream(0))


def level_ids(k):
    spec = DirectSumSpec(1.5, 1.0, INF, 8)
    f_8 = MixedMatrix.from_rows(spec.level_spec(8), [0], np.ones((1, 256)))
    return [level for level, _ in DirectSumElement(spec, [(k, f_8)]).items()]


def ds(**counts):
    return ds_experiment(k0=(4,), delta=0.2, mode="nonadaptive",
                         **{"trials": 2, "seed": 0, **counts})


# (id, the parameter's name, the call with the count v in that parameter).
# Each call with v = 8 runs.
COUNTS = [
    ("ProblemSpec-n1", "n1", lambda v: ProblemSpec(v, 4, 1.0, INF)),
    ("ProblemSpec-n2", "n2", lambda v: ProblemSpec(4, v, 1.0, INF)),
    ("from_rows", "row id", lambda v: MixedMatrix.from_rows(
        ProblemSpec(9, 2, 1.0, INF), [v], [[1.0, 2.0]]).row_ids),
    ("open_adaptive", "budget", lambda v: open_adaptive(mu4(), v).budget),
    ("draw_plan", "n", lambda v: next(draw_plan(MU4.spec, v, RngStream(1)).blocks())),
    ("sample_chunk", "trials", lambda v: MU4.sample_chunk(RngStream(1), v)),
    ("norm_est_a1", "n", lambda v: norm_est_a1([1.0, 2.0, 3.0], 2.0, v, RngStream(1))),
    ("allocate_samples", "n", lambda v: allocate_samples([1.0, 3.0], 1.0, v)),
    ("adaptive_mean_a3-n", "n",
     lambda v: adaptive_mean_a3(open_adaptive(mu4(), 999), v, 2, RngStream(1))),
    ("adaptive_mean_a3-m", "m",
     lambda v: adaptive_mean_a3(open_adaptive(mu4(), 999), 8, v, RngStream(1))),
    ("run_a3-n", "n", lambda v: run_a3(mu4(), v, 2, RngStream(1))),
    ("run_a3-m", "m", lambda v: run_a3(mu4(), 8, v, RngStream(1))),
    ("DirectSumElement", "level", level_ids),
    ("rms_error-n", "n", lambda v: rms_error(MU4, EstimatorKind.A2, v, 2, 0)),
    ("rms_error-trials", "trials", lambda v: rms_error(MU4, EstimatorKind.A2, 8, v, 0)),
    ("rms_error-seed", "seed", lambda v: rms_error(MU4, EstimatorKind.A2, 8, 2, v)),
    ("rms_error-workers", "workers",
     lambda v: rms_error(MU4, EstimatorKind.A2, 8, 2, 0, workers=v)),
    ("gap-budgets", "budget", lambda v: gap_experiment([v], 1.0, 2, 0, c0=1.0)),
    ("gap-trials", "trials", lambda v: gap_experiment([8], 1.0, v, 0, c0=1.0)),
    ("gap-seed", "seed", lambda v: gap_experiment([8], 1.0, 2, v, c0=1.0)),
    ("rates-budgets", "budget", lambda v: rate_experiment("p-ge-u", [v], 2, 0)),
    ("rates-trials", "trials", lambda v: rate_experiment("p-ge-u", [8], v, 0)),
    ("rates-seed", "seed", lambda v: rate_experiment("p-ge-u", [8], 2, v)),
    ("norm-est-budgets", "budget",
     lambda v: norm_deviation_experiment([1.0, 2.0], 2.0, [v], 2, 0)),
    ("norm-est-trials", "trials",
     lambda v: norm_deviation_experiment([1.0, 2.0], 2.0, [8], v, 0)),
    ("norm-est-seed", "seed",
     lambda v: norm_deviation_experiment([1.0, 2.0], 2.0, [8], 2, v)),
    ("ds-trials", "trials", lambda v: ds(trials=v)),
    ("ds-seed", "seed", lambda v: ds(seed=v)),
    ("RngStream-seed", "seed",
     lambda v: RngStream(v).child(1).generator().integers(0, 2**40, 4).tolist()),
    ("RngStream-stream", "stream id",
     lambda v: RngStream(1, (2, v)).generator().integers(0, 2**40, 4).tolist()),
]

# Two checks refuse a non-integer together with a range, in their own words.
RANGED = [
    ("ds-k_max", "k_max must be an integer in [0, 12], got {}", lambda v: ds(k_max=v)),
    ("level_allocation-k0", "k0 must be a positive integer at most 12, got {}",
     lambda v: level_allocation(v, 1.5, 0.2, 0.5)),
]

NOT_INTEGERS = [2.5, math.nan, math.inf, "8"]
INTEGRAL = [8.0, np.int64(8), np.float64(8.0)]


def ids(table):
    return [case[0] for case in table]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("case", COUNTS, ids=ids(COUNTS))
def test_a_non_integer_is_refused_by_name(case, value):
    _, name, call = case
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value}")):
        call(value)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("case", RANGED, ids=ids(RANGED))
def test_ranged_checks_refuse_a_non_integer_in_their_own_words(case, value):
    _, message, call = case
    with pytest.raises(InvalidParameters, match=re.escape(message.format(value))):
        call(value)


@pytest.mark.parametrize("case", COUNTS + RANGED, ids=ids(COUNTS + RANGED))
def test_an_integral_value_runs_as_its_int(case):
    # repr tells 8 from 8.0 and np.int64(8), in a result or inside one.
    call = case[-1]
    want = repr(call(8))
    for value in INTEGRAL:
        assert repr(call(value)) == want


def test_as_count():
    assert as_count(10**400, "n") == 10**400
    assert type(as_count(np.float32(3.0), "n")) is int
    for value in (2.5, math.nan, -math.inf, "8", None, np.array([8]), 8 + 0j):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {value}")):
            as_count(value, "n")


def test_a_side_at_inf_is_refused_by_name():
    # int(inf) != inf raised a bare OverflowError.
    with pytest.raises(ValueError, match="n1 must be an integer, got inf"):
        ProblemSpec(math.inf, 4, 1.0, 1.0)
