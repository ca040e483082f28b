"""RngStream against numpy's own SeedSequence construction.

numpy builds the seed's pool, ``SeedSequence(seed).pool``; ``adaptgap.rng``
hashes the path's words into it and outputs the Philox key itself, rather
than through a ``SeedSequence(seed, spawn_key=path)`` per stream. These tests
pin that derivation to numpy: if a numpy release changed the hash, they
fail before any golden does.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adaptgap
from adaptgap.rng import RngStream, _philox_key, _pool

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
    warm = _philox_key(seed, path)
    _pool.cache_clear()
    assert _philox_key(seed, path) == warm


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
