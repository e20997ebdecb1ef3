"""Deterministic random streams built on the Philox counter-based generator.

Every consumer of randomness derives an independent stream keyed by
(seed, index) with a purpose tag in the counter block, so results are
reproducible bit-for-bit across platforms and independent of evaluation
order or thread count.

``stream`` builds the generator of one stream. ``draws`` takes one draw
from each of many streams through a single reused bit generator: Philox
is counter-based, so a stream is fully defined by its key and counter,
and resetting them gives the same values as a fresh generator without
building one per index.
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


def _key_counter(seed: int, index: int, purpose: int) -> tuple[tuple, tuple]:
    """The Philox key and counter that stream (seed, index, purpose) starts from."""
    return (seed, index), (0, 0, 0, purpose)


def stream(seed: int, index: int = 0, purpose: int = 0) -> np.random.Generator:
    """Independent Philox stream for (seed, index, purpose).

    seed and index must be representable as unsigned 64-bit integers.
    """
    _check_uint64("seed", seed)
    _check_uint64("index", index)
    key, counter = _key_counter(seed, index, purpose)
    return np.random.Generator(
        np.random.Philox(
            key=np.array(key, dtype=np.uint64), counter=np.array(counter, dtype=np.uint64)
        )
    )


def draws(
    seed: int,
    indices: Iterable[int],
    purpose: int,
    draw: Callable[[np.random.Generator], float],
) -> np.ndarray:
    """``draw(stream(seed, i, purpose))`` for each index ``i``, as float64.

    One Philox bit generator serves every index: its state is reset to the
    one a fresh ``stream(seed, i, purpose)`` starts in before each draw, so
    the values are identical. The seed and every index are range-checked
    before the first draw.
    """
    ids = list(indices)
    _check_uint64("seed", seed)
    if ids:
        _check_uint64("index", min(ids))
        _check_uint64("index", max(ids))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    inner: dict = {}
    # Philox computes four uint64 words per counter step into a buffer;
    # position 4 marks it spent, as in a fresh generator, so no word of
    # the previous index's block leaks into the next draw.
    state = {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty(len(ids), dtype=np.float64)
    for j, index in enumerate(ids):
        inner["key"], inner["counter"] = _key_counter(seed, index, purpose)
        bitgen.state = state
        out[j] = draw(gen)
    return out
