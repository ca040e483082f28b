"""RngStream against numpy's own SeedSequence construction.

numpy builds the seed's pool, ``SeedSequence(seed).pool``; ``adaptgap.rng``
hashes the path's words into it and outputs the Philox key itself, rather
than through a ``SeedSequence(seed, spawn_key=path)`` per stream, and caches
pools and keys. These tests pin that derivation to numpy, from cold and warm
caches: if a numpy release changed the hash, they fail before any golden
does.
"""

import dataclasses
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adaptgap
from adaptgap.rng import RngStream, _key, _philox_key, _pool

# 0, one word, two words, three or four words (the pool's size, where a
# seed stops being padded), and more words than SeedSequence's 4-word pool.
seeds = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**200),
)
# Stream ids of one word, zero included, and of several words.
ids = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**96))
paths = st.lists(ids, max_size=6).map(tuple)


def same_state(a, b) -> bool:
    """Equal bit-generator states; Philox's holds arrays, so == is ambiguous."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def numpy_generator(seed, path):
    seq = np.random.SeedSequence(seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(seq))


@settings(max_examples=300, deadline=None)
@given(seeds, paths)
# The first seeds of 4 and 5 words, and the last of 4.
@example(2**96, ())
@example(2**96, (0, 2**40))
@example(2**128 - 1, (7,))
@example(2**128, ())
@example(2**128, (1, 2))
def test_key_equals_seed_sequence_state(seed, path):
    want = np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
    assert _philox_key(seed, path) == tuple(int(w) for w in want)


@settings(max_examples=100, deadline=None)
@given(seeds, paths)
def test_key_is_the_same_from_a_cold_cache(seed, path):
    want = np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
    want = tuple(int(w) for w in want)
    _pool.cache_clear()
    _key.cache_clear()
    cold = _key(seed, path)
    assert cold.key == want
    # Warm: the generator is handed the cached holder, with the same key.
    g = RngStream(seed, path).generator()
    assert g.bit_generator.seed_seq is cold and cold.key == want


@settings(max_examples=100, deadline=None)
@given(seeds, paths)
def test_draws_equal_numpy_construction(seed, path):
    ours = RngStream(seed, path).generator()
    ref = numpy_generator(seed, path)
    assert np.array_equal(ours.integers(0, 2**40, 17), ref.integers(0, 2**40, 17))
    assert np.array_equal(ours.random(9), ref.random(9))
    assert np.array_equal(ours.normal(size=9), ref.normal(size=9))
    assert same_state(ours.bit_generator.state, ref.bit_generator.state)


@settings(max_examples=100, deadline=None)
@given(seeds, paths)
def test_fresh_state_equals_numpy_construction(seed, path):
    # Philox is handed its zero counter as a shared array; the fresh state,
    # counter, key, buffer and buffered words, is numpy's default one.
    state = RngStream(seed, path).generator().bit_generator.state
    want = numpy_generator(seed, path).bit_generator.state
    assert set(state) == {"bit_generator", "state", "buffer", "buffer_pos",
                          "has_uint32", "uinteger"}
    assert same_state(state, want)
    assert state["state"]["counter"].tolist() == [0, 0, 0, 0]


@settings(max_examples=200, deadline=None)
@given(
    seeds,
    paths,
    st.one_of(
        st.sampled_from([1, 2, 7, 64, 1280, 2**31 + 5, 2**32, 2**32 + 1]),
        st.integers(1, 2**62),
    ),
    st.lists(st.sampled_from([None, 1, 2, 5, 300]), min_size=1, max_size=5),
)
@example(0, (), 1280, [None, 300, None])
def test_zero_based_draws_are_the_one_based_draws_less_one(seed, path, n, sizes):
    # Generator.integers(low, high) draws from the width high - low alone, so
    # integers(0, N) gives integers(1, N + 1) - 1 value by value and leaves
    # the same state, for scalar (size None) and array draws alike. Entry
    # indices are drawn 0-based on this property, with the values that
    # 1-based draws gave less one.
    zero = RngStream(seed, path).generator()
    one = RngStream(seed, path).generator()
    for size in sizes:
        got = zero.integers(0, n, size=size)
        want = one.integers(1, n + 1, size=size)
        assert np.shape(got) == np.shape(want) == (() if size is None else (size,))
        assert np.array_equal(got, want - 1)
    assert same_state(zero.bit_generator.state, one.bit_generator.state)


def test_shared_counter_is_never_written():
    g = RngStream(3, (1, 2)).generator()
    g.integers(0, 2**63, size=1000)
    counter = adaptgap.rng._COUNTER
    assert counter.tolist() == [0, 0, 0, 0] and not counter.flags.writeable
    assert RngStream(3, (1, 2)).generator().bit_generator.state["state"][
        "counter"
    ].tolist() == [0, 0, 0, 0]


@settings(max_examples=100, deadline=None)
@given(seeds, ids, ids)
def test_child_of_child_is_the_joint_path(seed, a, b):
    nested = RngStream(seed).child(a).child(b)
    assert nested == RngStream(seed, (a, b)) == RngStream(seed).child(a, b)
    assert nested.generator().integers(0, 2**63, size=4).tolist() == (
        RngStream(seed, (a, b)).generator().integers(0, 2**63, size=4).tolist()
    )


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_a_child_is_the_handle_built_from_its_path(seed):
    # child() sets its fields without __init__; the handle it gives is the
    # one built from the joint path in every way a caller can see.
    child = RngStream(seed).child(1).child(2, 3)
    built = RngStream(seed, (1, 2, 3))
    assert child == built and hash(child) == hash(built)
    assert repr(child) == repr(built)
    assert pickle.dumps(child) == pickle.dumps(built)
    assert pickle.loads(pickle.dumps(child)) == built
    assert child.generator().integers(0, 2**63, size=4).tolist() == (
        built.generator().integers(0, 2**63, size=4).tolist()
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        child.seed = 0


def test_two_live_generators_of_one_stream_are_independent():
    stream = RngStream(11, (3, 1))
    first = stream.generator()
    second = stream.generator()
    assert first is not second
    assert first.bit_generator is not second.bit_generator
    start = second.bit_generator.state
    first.integers(0, 10, size=1000)
    assert not same_state(first.bit_generator.state, start)
    assert same_state(second.bit_generator.state, start)
    assert np.array_equal(second.random(5), numpy_generator(11, (3, 1)).random(5))


def test_streams_and_generators_pickle():
    stream = RngStream(2**70 + 5, (1, 2**33))
    again = pickle.loads(pickle.dumps(stream))
    assert again == stream
    assert again.generator().random() == stream.generator().random()
    # A generator pickles mid-stream too, its key holder included.
    g = stream.generator()
    g.random(3)
    assert pickle.loads(pickle.dumps(g)).random(4).tolist() == g.random(4).tolist()


def test_negative_ids_are_rejected_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.SeedSequence(1, spawn_key=(-1,))
    with pytest.raises(ValueError):
        RngStream(1, (-1,)).generator()
    with pytest.raises(ValueError):
        RngStream(-1)


@pytest.mark.parametrize("path", [(1.5,), ("1",), (2, math.nan), (math.inf,)])
def test_a_stream_id_that_is_not_an_integer_is_refused_by_name(path):
    with pytest.raises(ValueError, match="stream id must be an integer, got"):
        RngStream(3, path)


def test_a_path_is_checked_and_stored_as_a_tuple_of_ints():
    built = RngStream(3, [1, np.int64(2), 3.0])
    want = RngStream(3, (1, 2, 3))
    assert built == want and hash(built) == hash(want) and repr(built) == repr(want)
    assert type(built.stream) is tuple and {type(i) for i in built.stream} == {int}
    assert built.generator().integers(0, 2**63, size=4).tolist() == (
        numpy_generator(3, (1, 2, 3)).integers(0, 2**63, size=4).tolist()
    )
    with pytest.raises(ValueError, match=r"stream ids must be nonnegative, got \(1, -2\)"):
        RngStream(3, (1, -2))


def test_child_takes_integer_ids_only():
    # operator.index, not int: 1.5 would have named stream 1.
    for bad in (1.5, "1", np.float64(2.0)):
        with pytest.raises(TypeError):
            RngStream(3).child(bad)
    assert RngStream(3).child(np.int64(4), np.uint8(5)) == RngStream(3, (4, 5))


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs several MB of RSS in a process that never draws,
    # such as a pool's parent; the package imports it on first use only.
    src = os.path.dirname(os.path.dirname(adaptgap.__file__))
    code = "import sys, adaptgap; assert 'numpy.random' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_key_is_a_real_seed_sequence_subclass():
    # A registered virtual subclass would send Philox's isinstance check
    # through ABCMeta.__subclasscheck__ on every generator() call.
    from numpy.random.bit_generator import ISeedSequence

    from adaptgap import rng

    key = rng._Key((1, 2))
    assert type(key) in ISeedSequence.__subclasses__()
    assert type(RngStream(3).generator().bit_generator.seed_seq) is rng._Key


def test_generator_unpickles_in_a_fresh_process():
    # The pickle names the key class, which is built on first use; loading
    # it must build the class before anything has drawn.
    g = RngStream(5, (1,)).generator()
    g.random(2)
    src = os.path.dirname(os.path.dirname(adaptgap.__file__))
    code = (
        "import pickle, sys; g = pickle.loads(sys.stdin.buffer.read()); "
        "print(g.random(3).tolist())"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         input=pickle.dumps(g), capture_output=True).stdout
    assert out.decode().strip() == str(g.random(3).tolist())
