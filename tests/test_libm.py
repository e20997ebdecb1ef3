"""The noise kernels of ``courtlift._libm`` against reference values.

``log`` and ``expm1`` are checked against Python's ``math`` (the host
libm) within 1 ulp, over the domains the predictors use: ``log`` on
(0, 1] down to 2**-104 (Box-Muller's 1 - d and Bailey's W = U^2 + V^2,
with U and V multiples of 2**-52), ``expm1`` on [0, 150] (-2 / nu ln W
for nu > 1). ``cos_sin_2pi`` is checked against a long-double cos and
sin of the same exactly reduced angle, which, unlike
``math.cos(2 * math.pi * d)``, are not thrown off by a rounded argument
near their zeros.
"""

import math

import numpy as np
import pytest

from courtlift._libm import _TWO_PI, _TWO_PI_LO, cos_sin_2pi, expm1, log

N = 1_000_000


def _ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Distance in ulps between doubles of the same sign."""
    assert (np.signbit(got) == np.signbit(want)).all()
    return np.abs(got.view(np.int64) - want.view(np.int64))


def _math(f, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, x.tolist()), np.float64, len(x))


def test_log_is_within_one_ulp_of_math_log():
    rng = np.random.default_rng(2024)
    edges = [1.0, 2.0**-53, 2.0**-104, 1.0 - 2.0**-53, 0.5, math.sqrt(0.5)]
    edges += [np.nextafter(math.sqrt(0.5), 0.0), np.nextafter(math.sqrt(0.5), 1.0)]
    x = np.concatenate(
        [
            1.0 - rng.random(N // 2),  # Box-Muller's u1 = 1 - d
            np.exp2(-104.0 * rng.random(N // 2)),  # down to Bailey's smallest W
            edges,
        ]
    )
    assert _ulps(log(x), _math(math.log, x)).max() <= 1
    assert log(np.array([1.0]))[0] == 0.0


def test_expm1_is_within_one_ulp_of_math_expm1():
    rng = np.random.default_rng(2025)
    ln2 = math.log(2.0)
    edges = [0.0, 2.0**-60, 2.0**-30, 0.25, 150.0]
    edges += [k * ln2 * f for k in (0.5, 1.5, 20, 56, 57) for f in (1 - 1e-15, 1, 1 + 1e-15)]
    x = np.concatenate(
        [
            150.0 * rng.random(N // 2),
            # -2 / nu ln W for W uniform on (0, 1], as Bailey's method draws it.
            -2.0 / rng.uniform(1.0, 50.0, N // 2) * np.log(1.0 - rng.random(N // 2)),
            edges,
        ]
    )
    assert _ulps(expm1(x), _math(math.expm1, x)).max() <= 1
    assert math.copysign(1.0, expm1(np.array([-0.0]))[0]) == -1.0


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
    reason="np.longdouble is no wider than float64 here: no reference",
)
def test_cos_sin_2pi_is_within_one_ulp_of_a_long_double_reference():
    quarter_turns = np.arange(8) / 8.0
    # Box-Muller's d and the smallest angles, where sin is tiny but
    # must keep its relative accuracy.
    tiny = np.ldexp(1.0, -np.arange(1, 60))
    d = np.concatenate([np.random.default_rng(2026).random(N), tiny, 0.5 - tiny, quarter_turns])
    q = np.rint(4.0 * d)
    theta = (np.longdouble(_TWO_PI) + np.longdouble(_TWO_PI_LO)) * (d - 0.25 * q)
    quarter = q.astype(np.int64) & 3
    odd = (quarter & 1) == 1
    cos, sin = np.cos(theta), np.sin(theta)
    want_cos = np.where(odd, sin, cos)
    want_cos = np.where((quarter + 1) & 2, -want_cos, want_cos)
    want_sin = np.where(odd, cos, sin)
    want_sin = np.where(quarter & 2, -want_sin, want_sin)
    got_cos, got_sin = cos_sin_2pi(d)
    for got, want in ((got_cos, want_cos), (got_sin, want_sin)):
        ulp = np.spacing(np.abs(want.astype(np.float64))).astype(np.longdouble)
        assert (np.abs(got.astype(np.longdouble) - want) / ulp).max() <= 1.0
    # A quarter turn is exact; odd eighths are cos(pi / 4) up to sign.
    assert got_cos[-8::2].tolist() == [1.0, 0.0, -1.0, 0.0]
    assert got_sin[-8::2].tolist() == [0.0, 1.0, 0.0, -1.0]
    assert np.abs(got_cos[-7::2]).tolist() == [math.sqrt(0.5)] * 4
    assert np.abs(got_sin[-7::2]).tolist() == [math.sqrt(0.5)] * 4
