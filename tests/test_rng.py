"""rng.words gives the words of a fresh rng.stream per index, bit for
bit, from Philox blocks computed in numpy arithmetic, and those of
numpy's Philox at any counter lane; rng.doubles maps them as numpy's
Generator.random does; rng._mulhi is the high word of a 128-bit
product."""

import numpy as np
import pytest

from courtlift.rng import (
    PURPOSE_BALL,
    PURPOSE_CAMERA,
    PURPOSE_DIAMETER_NOISE,
    PURPOSE_HEIGHT_NOISE,
    _mulhi,
    doubles,
    stream,
    words,
)

UINT64_MAX = 2**64 - 1


def _raw(seed, index, purpose, start, count):
    """Words start to start + count - 1 of a fresh stream."""
    return stream(seed, index, purpose).bit_generator.random_raw(start + count)[start:]


@pytest.mark.parametrize("start", [0, 3, 5])
@pytest.mark.parametrize("seed", [0, 2**63, UINT64_MAX])
def test_words_equal_random_raw(seed, start):
    # 9 words from start 3 or 5 span three Philox blocks and start and
    # end inside one.
    indices = [0, 2**63, UINT64_MAX, 7]
    got = words(seed, indices, PURPOSE_BALL, start, 9)
    assert got.dtype == np.uint64 and got.shape == (9, len(indices))
    for j, index in enumerate(indices):
        assert got[:, j].tolist() == _raw(seed, index, PURPOSE_BALL, start, 9).tolist()


@pytest.mark.parametrize("start", range(10))
def test_words_from_any_start_of_an_index_array(start):
    indices = np.array([5, 0, 8, 5], dtype=np.int64)
    got = words(3, indices, PURPOSE_BALL, start, 3)
    for j, index in enumerate(indices.tolist()):
        assert got[:, j].tolist() == _raw(3, index, PURPOSE_BALL, start, 3).tolist()


@pytest.mark.parametrize(
    "purpose", [PURPOSE_CAMERA, PURPOSE_BALL, PURPOSE_HEIGHT_NOISE, PURPOSE_DIAMETER_NOISE]
)
def test_words_of_every_purpose_equal_random_raw(purpose):
    # The purpose is the counter's last lane: each gives its own stream.
    indices = [0, 9, UINT64_MAX]
    got = words(6, indices, purpose, 2, 7)
    for j, index in enumerate(indices):
        assert got[:, j].tolist() == _raw(6, index, purpose, 2, 7).tolist()
    others = {PURPOSE_CAMERA, PURPOSE_BALL, PURPOSE_HEIGHT_NOISE, PURPOSE_DIAMETER_NOISE} - {purpose}
    for other in others:
        assert not np.any(got == words(6, indices, other, 2, 7))


def _lane_raw(seed, index, purpose, lane, count):
    """The first count words of numpy's Philox at counter lane `lane`."""
    counter = np.array((0, lane, 0, purpose), dtype=np.uint64)
    bitgen = np.random.Philox(key=np.array((seed, index), dtype=np.uint64), counter=counter)
    return bitgen.random_raw(count)


@pytest.mark.parametrize("lane", [1, 2, 7, 2**63, UINT64_MAX])
def test_words_of_a_counter_lane_equal_numpys_philox(lane):
    # The lane is the counter's second word: numpy's Philox steps the
    # first, so each lane is a stream of its own, and lane 0 is `stream`.
    indices = [0, 9, UINT64_MAX]
    got = words(4, indices, PURPOSE_DIAMETER_NOISE, 3, 9, lane)
    for j, index in enumerate(indices):
        want = _lane_raw(4, index, PURPOSE_DIAMETER_NOISE, lane, 12)[3:]
        assert got[:, j].tolist() == want.tolist()
        assert not np.any(got[:, j] == _raw(4, index, PURPOSE_DIAMETER_NOISE, 3, 9))
    assert words(4, indices, PURPOSE_DIAMETER_NOISE, 3, 9, 0).tolist() == words(
        4, indices, PURPOSE_DIAMETER_NOISE, 3, 9
    ).tolist()


def test_one_lane_per_index():
    indices = np.array([5, 5, 0, 8])
    lanes = np.array([0, 3, 3, 1])
    got = words(2, indices, PURPOSE_HEIGHT_NOISE, 0, 6, lanes)
    for j, (index, lane) in enumerate(zip(indices.tolist(), lanes.tolist())):
        assert got[:, j].tolist() == _lane_raw(2, index, PURPOSE_HEIGHT_NOISE, lane, 6).tolist()


@pytest.mark.parametrize("m", [1, 3, 741, 2**32, 2**63 + 1, UINT64_MAX])
def test_mulhi_is_the_high_word_of_the_128_bit_product(m):
    # Edge words whose 32-bit halves carry, then a run of Philox words.
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, UINT64_MAX - 1, UINT64_MAX]
    x = np.concatenate([np.array(edges, dtype=np.uint64), _raw(8, 0, PURPOSE_BALL, 0, 64)])
    got = _mulhi(np.uint64(m), x)
    assert got.dtype == np.uint64
    assert got.tolist() == [(m * w) >> 64 for w in x.tolist()]


def test_consecutive_runs_continue_the_stream():
    # Placement attempts of 3 words each: every run after the first
    # starts inside a Philox block, where the previous one stopped.
    indices = [0, 7, UINT64_MAX]
    runs = np.concatenate([words(11, indices, PURPOSE_BALL, 3 * k, 3) for k in range(4)])
    for j, index in enumerate(indices):
        assert runs[:, j].tolist() == _raw(11, index, PURPOSE_BALL, 0, 12).tolist()


def test_doubles_and_uniforms_are_those_of_a_generator():
    u = doubles(words(2, [4, 1], PURPOSE_CAMERA, 0, 50))
    for j, index in enumerate([4, 1]):
        np.testing.assert_array_equal(u[:25, j], stream(2, index, PURPOSE_CAMERA).random(25))
        gen = stream(2, index, PURPOSE_CAMERA)
        np.testing.assert_array_equal(-0.02 + (0.02 - -0.02) * u[:, j], gen.uniform(-0.02, 0.02, 50))


@pytest.mark.parametrize("indices", [[], np.empty(0, dtype=np.int64)])
def test_no_indices_give_no_columns(indices):
    got = words(5, indices, PURPOSE_BALL, 3, 6)
    assert got.dtype == np.uint64 and got.shape == (6, 0)


@pytest.mark.parametrize(
    "seed, indices, match",
    [
        (-1, [0, 1], r"seed must be an int in \[0, 2\*\*64\), got -1"),
        (1, [0, -1, 2], r"index must be an int in \[0, 2\*\*64\), got -1"),
        (1, np.array([0, -1, 2]), r"index must be an int in \[0, 2\*\*64\), got -1"),
        (1, [0, 2**64, 2], r"index must be an int in \[0, 2\*\*64\), got 18446744073709551616"),
        # A float or bool key is refused, not cast: seed 1.7 or True would
        # run seed 1's streams, and id 0.5 id 0's.
        (1.7, [0, 1], r"seed must be an int in \[0, 2\*\*64\), got 1\.7"),
        (True, [0, 1], r"seed must be an int in \[0, 2\*\*64\), got True"),
        (1, [0, 0.5], r"index must be an int in \[0, 2\*\*64\), got 0\.5"),
        (1, np.array([0.5, 1.0]), r"index must be an int in \[0, 2\*\*64\), got 0\.5"),
        (1, [1, True], r"index must be an int in \[0, 2\*\*64\), got True"),
        (1, np.array([True]), r"index must be an int in \[0, 2\*\*64\), got True"),
    ],
)
def test_words_range_check_seed_and_indices(seed, indices, match):
    with pytest.raises(ValueError, match=match):
        words(seed, indices, PURPOSE_BALL, 0, 4)


def test_numpy_integer_keys_are_the_int_keys():
    got = words(np.uint64(UINT64_MAX), np.array([3, 4], dtype=np.uint8), PURPOSE_BALL, 0, 4)
    np.testing.assert_array_equal(got, words(UINT64_MAX, [3, 4], PURPOSE_BALL, 0, 4))


@pytest.mark.parametrize("lane", [-1, 2**64, np.array([0, -1]), 1.5, True, np.array([0.0, 1.0])])
def test_words_range_check_lanes(lane):
    with pytest.raises(ValueError, match=r"lane must be an int in \[0, 2\*\*64\), got"):
        words(1, [0, 1], PURPOSE_BALL, 0, 4, lane)
