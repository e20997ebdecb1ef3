"""Deterministic random streams built on the Philox counter-based generator.

Every consumer of randomness derives an independent stream keyed by
(seed, index) with a purpose tag in the counter block, so its words are
the same on every platform and results are independent of evaluation
order or thread count.

Philox4x64-10 is a keyed bijection on a counter (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11): word w of a
stream is one of the four words of one counter block's output, so
``words`` computes any run of words of many streams at once, in numpy
arithmetic, equal to what numpy's ``Philox`` gives each stream. A
stream steps only the counter's first word, so a nonzero second word,
a counter lane, starts another stream under the same key (the
predictors' Student-t repeat r reads lane r). ``doubles``
maps words to floats in [0, 1) as numpy's ``Generator.random`` does,
and ``a + (b - a) * d`` of such a double ``d`` is
``Generator.uniform(a, b)`` bit for bit. Synth draws its cameras and
balls this way, and the predictors turn words into gaussian and
Student-t noise; neither imports ``numpy.random``.

``stream`` builds numpy's generator of one stream. No pipeline path
calls it; it is the reference that ``words`` is checked against.
"""

from __future__ import annotations

import numpy as np

PURPOSE_CAMERA = 1
PURPOSE_BALL = 2
PURPOSE_HEIGHT_NOISE = 3
PURPOSE_DIAMETER_NOISE = 4


def check_seed(seed, name: str = "seed") -> int:
    """courtlift's one seed rule: ``seed`` as a Python int if it is an int, not
    a bool or a float (never truncated), in [0, 2**64); else ValueError."""
    whole = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (whole and 0 <= int(seed) < 2**64):
        raise ValueError(f"{name} must be an int in [0, 2**64), got {seed!r}")
    return int(seed)


# Philox computes four uint64 words per counter step into a buffer.
_BLOCK_WORDS = 4


def stream(seed: int, index: int = 0, purpose: int = 0) -> np.random.Generator:
    """Independent Philox stream for (seed, index, purpose); `check_seed`
    checks both key words."""
    key = (check_seed(seed), check_seed(index, "index"))
    return np.random.Generator(
        np.random.Philox(
            key=np.array(key, dtype=np.uint64),
            counter=np.array((0, 0, 0, purpose), dtype=np.uint64),
        )
    )


_ROUNDS = 10
# Philox4x64-10's round multipliers and key increments (Random123), then
# the masks and shifts of the arithmetic. Each is a numpy uint64: on
# numpy 1.x a uint64 combined with a Python int promotes to float64.
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_11 = np.uint64(11)


def _mulhi(m: np.uint64, x: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit product m * x, from 32-bit halves.
    Neither partial sum can wrap: each is below (2**32 - 1)**2 + 2**32."""
    m_lo, m_hi = m & _LOW32, m >> _32
    x_lo, x_hi = x & _LOW32, x >> _32
    mid = m_lo * x_hi + ((m_lo * x_lo) >> _32)
    mid2 = m_hi * x_lo + (mid & _LOW32)
    return m_hi * x_hi + (mid >> _32) + (mid2 >> _32)


def _uint64(name: str, values) -> np.ndarray:
    """``values`` (an integer array, or an int or sequence of ints) as
    uint64, each checked first by `check_seed`."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        for value in (values.min(), values.max()) if values.size else ():
            check_seed(value.item(), name)
        return values.astype(np.uint64)
    values = np.array(values, dtype=object)  # each value as given, ints of any size exact
    return np.array([check_seed(v, name) for v in values.flat], np.uint64).reshape(values.shape)


def words(seed: int, ids, purpose: int, start: int, count: int, lane=0) -> np.ndarray:
    """Words ``start`` to ``start + count - 1`` of the streams of ``ids``.

    Column j of the ``(count, len(ids))`` uint64 result equals
    ``stream(seed, ids[j], purpose).bit_generator.random_raw(start +
    count)[start:]``. numpy's Philox steps its counter before each block,
    so word w is word ``w % 4`` of the block of counter ``(w // 4 + 1,
    0, 0, purpose)``. ``lane``, one int or one per id, is the counter's
    second word in place of 0: the words of numpy's ``Philox(key=(seed,
    id), counter=(0, lane, 0, purpose))``, a stream of its own. The
    seed, every id and every lane keep `check_seed`'s rule, checked
    before any arithmetic.
    """
    key0 = np.array([check_seed(seed)], dtype=np.uint64)  # scalars warn when they wrap
    key1 = _uint64("index", ids if isinstance(ids, np.ndarray) else list(ids))
    c1 = _uint64("lane", lane).reshape(1, -1)
    first, last = start // _BLOCK_WORDS, (start + count - 1) // _BLOCK_WORDS
    blocks = last + 1 - first
    c0 = np.arange(first + 1, last + 2, dtype=np.uint64)[:, None]
    c2 = np.zeros((1, 1), dtype=np.uint64)
    c3 = np.full((1, 1), purpose, dtype=np.uint64)
    for r in range(_ROUNDS):
        if r:
            key0 = key0 + _W0
            key1 = key1 + _W1
        c0, c1, c2, c3 = (
            _mulhi(_M1, c2) ^ c1 ^ key0,
            _M1 * c2,
            _mulhi(_M0, c0) ^ c3 ^ key1,
            _M0 * c0,
        )
    out = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=1)
    skip = start - first * _BLOCK_WORDS
    return out.reshape(blocks * _BLOCK_WORDS, len(key1))[skip : skip + count]


def doubles(w: np.ndarray) -> np.ndarray:
    """Words as doubles in [0, 1), as numpy's ``Generator.random`` maps them."""
    return (w >> _11) * 2.0**-53

