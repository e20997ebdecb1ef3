"""Deterministic random streams built on the Philox counter-based generator.

Every consumer of randomness derives an independent stream keyed by
(seed, index) with a purpose tag in the counter block, so results are
reproducible bit-for-bit across platforms and independent of evaluation
order or thread count.

``stream`` builds the generator of one stream. ``Cursor`` moves one
reused bit generator between the streams of a (seed, purpose): Philox is
counter-based, so a stream's state is fully defined by its key, its
counter and the position in the current block, and setting them gives
the same values as a fresh generator without building one per index.
A position is a count of 64-bit words drawn; a double takes one word,
so a caller that knows how many doubles it drew knows where a stream
stands. ``draws`` takes one draw from the start of each of many streams
through one bit generator, setting only the key between them.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

PURPOSE_CAMERA = 1
PURPOSE_BALL = 2
PURPOSE_HEIGHT_NOISE = 3
PURPOSE_DIAMETER_NOISE = 4
PURPOSE_REBALANCE = 5

_UINT64_MAX = 2**64 - 1


def _check_uint64(name: str, value: int) -> None:
    if value < 0 or value > _UINT64_MAX:
        raise ValueError(f"{name} must fit in uint64, got {value}")


# Philox computes four uint64 words per counter step into a buffer.
_BLOCK_WORDS = 4


def _key_counter(seed: int, index: int, purpose: int, blocks: int) -> tuple[tuple, tuple]:
    """The Philox key and counter of stream (seed, index, purpose) once
    ``blocks`` counter steps have been drawn; 0 is where the stream starts."""
    return (seed, index), (blocks, 0, 0, purpose)


def _spent_state(inner: dict) -> dict:
    """A Philox state dict around ``inner``, which holds the key and the
    counter. buffer_pos 4 marks the buffer spent, as in a fresh generator,
    so no word of the previous stream's block leaks into the next draw."""
    return {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": (0, 0, 0, 0),
        "buffer_pos": _BLOCK_WORDS,
        "has_uint32": 0,
        "uinteger": 0,
    }


def stream(seed: int, index: int = 0, purpose: int = 0) -> np.random.Generator:
    """Independent Philox stream for (seed, index, purpose).

    seed and index must be representable as unsigned 64-bit integers.
    """
    _check_uint64("seed", seed)
    _check_uint64("index", index)
    key, counter = _key_counter(seed, index, purpose, 0)
    return np.random.Generator(
        np.random.Philox(
            key=np.array(key, dtype=np.uint64), counter=np.array(counter, dtype=np.uint64)
        )
    )


class Cursor:
    """One Philox bit generator that stands anywhere in the streams of (seed, purpose).

    ``seek(index, words)`` puts the generator where ``stream(seed, index,
    purpose)`` stands after ``words`` 64-bit words have been drawn from
    it, so many streams can take turns on one generator and each resumes
    exactly where it stopped. A double takes one word, so the caller
    counts the words from its draws. Indices are not range-checked here.
    """

    def __init__(self, seed: int, purpose: int):
        _check_uint64("seed", seed)
        self._seed = seed
        self._purpose = purpose
        self._bitgen = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bitgen)
        self._inner: dict = {}
        self._state = _spent_state(self._inner)

    def seek(self, index: int, words: int) -> np.random.Generator:
        """The generator, ``words`` 64-bit words into stream ``index``."""
        blocks, spare = divmod(words, _BLOCK_WORDS)
        inner = self._inner
        inner["key"], inner["counter"] = _key_counter(self._seed, index, self._purpose, blocks)
        self._bitgen.state = self._state
        if spare:
            self._bitgen.random_raw(spare)
        return self._generator


def draws(
    seed: int,
    indices: Iterable[int],
    purpose: int,
    draw: Callable[[np.random.Generator], float],
) -> np.ndarray:
    """``draw(stream(seed, i, purpose))`` for each index ``i``, as float64.

    One reused bit generator is put at the start of stream ``i`` before
    each draw, so the values are identical. Every stream starts at
    counter block 0 of ``purpose``, so from one index to the next only
    the key changes. The seed and every index are range-checked before
    the first draw.
    """
    _check_uint64("seed", seed)
    ids = list(indices)
    if ids:
        _check_uint64("index", min(ids))
        _check_uint64("index", max(ids))
    key, counter = _key_counter(seed, 0, purpose, 0)
    inner = {"key": key, "counter": counter}
    state = _spent_state(inner)
    bitgen = np.random.Philox(key=0)
    generator = np.random.Generator(bitgen)
    out = np.empty(len(ids), dtype=np.float64)
    for j, index in enumerate(ids):
        inner["key"] = (seed, index)  # the key _key_counter gives stream index
        bitgen.state = state
        out[j] = draw(generator)
    return out
