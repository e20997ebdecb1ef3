"""Elementary functions on float64 arrays, with the same bits on every host.

numpy's ``log``, ``expm1``, ``cos`` and ``sin`` may run CPU-specific
SIMD code whose last bit differs from host to host, and ``math`` goes
through the host's libm one element at a time. These functions use only
``np.frexp``, ``np.ldexp``, ``np.rint``, ``np.floor`` and basic
arithmetic, which IEEE 754 rounds correctly everywhere. Their range
reductions and polynomials are Sun's fdlibm (``e_log.c``, ``s_expm1.c``,
``k_cos.c``, ``k_sin.c``), and each stays within 1 ulp of the exact
value on the domain the predictors use.
"""

from __future__ import annotations

import numpy as np

_LN2_HI = 6.93147180369123816490e-01  # 0x3FE62E42FEE00000
_LN2_LO = 1.90821492927058770002e-10  # 0x3DEA39EF35793C76
_INVLN2 = 1.44269504088896338700e00
_SQRT_HALF = 0.7071067811865476
_LG = (
    6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
    2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
    1.479819860511658591e-01,
)  # fmt: skip
_Q = (
    -3.33333333333331316428e-02, 1.58730158725481460165e-03, -7.93650757867487942473e-05,
    4.00821782732936239552e-06, -2.01099218183624371326e-07,
)  # fmt: skip
_C = (
    4.16666666666666019037e-02, -1.38888888888741095749e-03, 2.48015872894767294178e-05,
    -2.75573143513906633035e-07, 2.08757232129817482790e-09, -1.13596475577881948265e-11,
)  # fmt: skip
_S = (
    -1.66666666666666324348e-01, 8.33333333332248946124e-03, -1.98412698298579493134e-04,
    2.75573137070700676789e-06, -2.50507602534068634195e-08, 1.58969099521155010221e-10,
)  # fmt: skip
# 2 pi = _TWO_PI + _TWO_PI_LO, and _TWO_PI = _TWO_PI_A + _TWO_PI_B in
# 26-bit halves, so that Dekker's product by it is exact.
_TWO_PI = 6.283185307179586
_TWO_PI_LO = 2.4492935982947064e-16
_TWO_PI_A = 6.283185362815857
_TWO_PI_B = _TWO_PI - _TWO_PI_A
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def log(x: np.ndarray) -> np.ndarray:
    """ln x for positive finite x: x = 2^k (1 + f) with 1 + f in
    [sqrt(2)/2, sqrt(2)), then e_log.c's polynomial in s = f / (2 + f)."""
    m, e = np.frexp(x)
    low = m < _SQRT_HALF
    f = np.where(low, m + m, m) - 1.0
    k = e - low
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = z * (_LG[0] + w * (_LG[2] + w * (_LG[4] + w * _LG[6])))
    r += w * (_LG[1] + w * (_LG[3] + w * _LG[5]))
    hfsq = 0.5 * f * f
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + k * _LN2_LO)) - f)


def expm1(x: np.ndarray) -> np.ndarray:
    """e^x - 1 for finite x >= 0 up to float range: x = k ln 2 + r with
    |r| <= ln(2) / 2 (r carried with its correction c), then
    s_expm1.c's rational approximation and its reconstruction per k."""
    k = np.floor(x * _INVLN2 + 0.5)
    hi = x - k * _LN2_HI
    lo = k * _LN2_LO
    r = hi - lo
    c = (hi - r) - lo
    hfx = 0.5 * r
    hxs = r * hfx
    r1 = 1.0 + hxs * (_Q[0] + hxs * (_Q[1] + hxs * (_Q[2] + hxs * (_Q[3] + hxs * _Q[4]))))
    t = 3.0 - r1 * hfx
    e = hxs * ((r1 - t) / (6.0 - r * t))
    unreduced = r - (r * e - hxs)  # k = 0
    # e^r 2^k - 1, subtracting 1 (as 2^-k) where it loses the fewest bits.
    e = (r * (e - c) - c) - hxs
    k1 = np.where(r < -0.25, -2.0 * (e - (r + 0.5)), 1.0 + 2.0 * (r - e))
    n = k.astype(np.int64)
    inv_2k = np.ldexp(1.0, -n)
    y = np.where(k < 20, (1.0 - inv_2k) - (e - r), (r - (e + inv_2k)) + 1.0)
    y = np.ldexp(np.where(k > 56, 1.0 - (e - r), y), n)
    y = np.where(k > 56, y - 1.0, y)
    return np.where(k == 0, unreduced, np.where(k == 1, k1, y))


def _k_cos(x, y):
    """cos(x + y) for |x| <= pi/4, |y| <= ulp(x) / 2 (k_cos.c)."""
    z = x * x
    w = z * z
    r = z * (_C[0] + z * (_C[1] + z * _C[2])) + w * w * (_C[3] + z * (_C[4] + z * _C[5]))
    hz = 0.5 * z
    w = 1.0 - hz
    return w + (((1.0 - w) - hz) + (z * r - x * y))


def _k_sin(x, y):
    """sin(x + y) for |x| <= pi/4, |y| <= ulp(x) / 2 (k_sin.c)."""
    z = x * x
    w = z * z
    r = _S[1] + z * (_S[2] + z * _S[3]) + z * w * (_S[4] + z * _S[5])
    v = z * x
    return x - ((z * (0.5 * y - v * r) - y) - v * _S[0])


def cos_sin_2pi(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(2 pi d) and sin(2 pi d) for finite d, without rounding 2 pi d
    first, from one range reduction.

    d = q / 4 + r exactly, with q = rint(4 d) quarter turns and
    |r| <= 1/8. The angle 2 pi r goes to the kernels as a double-double
    x + y: Dekker's exact product of r by the head of 2 pi, plus r times
    its tail. The quarter turns then pick each value's kernel and sign.
    """
    q = np.rint(4.0 * d)
    r = d - 0.25 * q
    x = _TWO_PI * r
    s = _SPLIT * r
    r_a = s - (s - r)
    r_b = r - r_a
    err = ((_TWO_PI_A * r_a - x) + _TWO_PI_A * r_b + _TWO_PI_B * r_a) + _TWO_PI_B * r_b
    tail = err + _TWO_PI_LO * r
    head = x + tail
    tail -= head - x
    quarter = q.astype(np.int64) & 3
    odd = quarter & 1
    k_sin, k_cos = _k_sin(head, tail), _k_cos(head, tail)
    cos = np.where(odd, k_sin, k_cos)
    sin = np.where(odd, k_cos, k_sin)
    return np.where((quarter + 1) & 2, -cos, cos), np.where(quarter & 2, -sin, sin)
