"""rng.words and rng.draws give the values of a fresh rng.stream per
index, bit for bit: words computes Philox blocks in numpy arithmetic,
draws reuses one bit generator."""

import numpy as np
import pytest

from courtlift.rng import (
    PURPOSE_BALL,
    PURPOSE_CAMERA,
    PURPOSE_DIAMETER_NOISE,
    PURPOSE_HEIGHT_NOISE,
    doubles,
    draws,
    stream,
    words,
)

UINT64_MAX = 2**64 - 1

DRAWS = {
    "standard_normal": lambda gen: gen.standard_normal(),
    "standard_t": lambda gen: gen.standard_t(3.5),
}


@pytest.mark.parametrize("purpose", [PURPOSE_HEIGHT_NOISE, PURPOSE_DIAMETER_NOISE])
@pytest.mark.parametrize("draw_name", sorted(DRAWS))
@pytest.mark.parametrize("seed", [0, 11, UINT64_MAX])
def test_bit_equal_to_a_stream_per_index(purpose, draw_name, seed):
    draw = DRAWS[draw_name]
    indices = [17, 3, 3, 0, UINT64_MAX, 2**63, 900, 17, 5]
    expected = [draw(stream(seed, i, purpose)) for i in indices]
    got = draws(seed, indices, purpose, draw)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, expected)


def test_draws_that_take_several_words_still_match():
    # A draw that consumes more than one Philox block must not leak its
    # leftover buffer into the next index.
    def draw(gen):
        return gen.standard_normal(9).sum() + gen.random()

    indices = [4, 1, 4, 8]
    expected = [draw(stream(2, i, PURPOSE_HEIGHT_NOISE)) for i in indices]
    np.testing.assert_array_equal(draws(2, indices, PURPOSE_HEIGHT_NOISE, draw), expected)


def test_empty_indices_give_an_empty_float_array():
    got = draws(5, [], PURPOSE_HEIGHT_NOISE, DRAWS["standard_normal"])
    assert got.dtype == np.float64
    assert got.shape == (0,)


@pytest.mark.parametrize(
    "seed, indices, match",
    [
        (1, [0, -1, 2], "index must fit in uint64, got -1"),
        (1, [0, 2**64, 2], "index must fit in uint64, got 18446744073709551616"),
        (-1, [0, 1], "seed must fit in uint64, got -1"),
    ],
)
def test_out_of_range_raises_before_any_draw(seed, indices, match):
    calls = []

    def draw(gen):
        calls.append(1)
        return gen.standard_normal()

    with pytest.raises(ValueError, match=match):
        draws(seed, indices, PURPOSE_HEIGHT_NOISE, draw)
    assert calls == []


def test_back_to_back_calls_with_different_purposes_are_independent():
    indices = [6, 2, 9]
    draw = DRAWS["standard_normal"]
    height = draws(7, indices, PURPOSE_HEIGHT_NOISE, draw)
    diameter = draws(7, indices, PURPOSE_DIAMETER_NOISE, draw)
    height_again = draws(7, indices, PURPOSE_HEIGHT_NOISE, draw)
    np.testing.assert_array_equal(height, height_again)
    np.testing.assert_array_equal(
        diameter, [draw(stream(7, i, PURPOSE_DIAMETER_NOISE)) for i in indices]
    )
    assert not np.any(height == diameter)


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
        (-1, [0, 1], "seed must fit in uint64, got -1"),
        (1, [0, -1, 2], "index must fit in uint64, got -1"),
        (1, np.array([0, -1, 2]), "index must fit in uint64, got -1"),
        (1, [0, 2**64, 2], "index must fit in uint64, got 18446744073709551616"),
    ],
)
def test_words_range_check_seed_and_indices(seed, indices, match):
    with pytest.raises(ValueError, match=match):
        words(seed, indices, PURPOSE_BALL, 0, 4)
