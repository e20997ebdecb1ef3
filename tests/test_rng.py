"""rng.Cursor and rng.draws: one reused Philox bit generator, the values
of a fresh rng.stream per index, bit for bit."""

import numpy as np
import pytest

from courtlift.rng import (
    PURPOSE_BALL,
    PURPOSE_DIAMETER_NOISE,
    PURPOSE_HEIGHT_NOISE,
    Cursor,
    draws,
    stream,
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


@pytest.mark.parametrize("words", range(10))
def test_seek_stands_where_a_stream_stands_after_that_many_words(words):
    cursor = Cursor(3, PURPOSE_BALL)
    cursor.seek(8, 13)  # leave another stream's block behind
    gen = cursor.seek(5, words)
    fresh = stream(3, 5, PURPOSE_BALL)
    fresh.bit_generator.random_raw(words)
    assert gen.bit_generator.random_raw(9).tolist() == fresh.bit_generator.random_raw(9).tolist()


def test_streams_resume_where_they_stopped_when_interleaved():
    # Three streams take turns on one cursor, drawing 3 doubles a turn,
    # so every resume after the first starts inside a Philox block.
    cursor = Cursor(11, PURPOSE_BALL)
    fresh = {i: stream(11, i, PURPOSE_BALL) for i in (0, 7, UINT64_MAX)}
    words = dict.fromkeys(fresh, 0)
    for _ in range(4):
        for i, gen in fresh.items():
            got = cursor.seek(i, words[i]).random(3)
            words[i] += 3
            np.testing.assert_array_equal(got, gen.random(3))
    assert set(words.values()) == {12}


def test_cursor_checks_its_seed():
    with pytest.raises(ValueError, match="seed must fit in uint64, got -1"):
        Cursor(-1, PURPOSE_BALL)
