"""The text of ``repr`` for every element of a float64 array, in numpy.

:func:`join_reprs` writes each element as the digits Python's ``repr``
prints: the shortest decimal that reads back as the same double, the
nearest one if several are that short, the even one on a tie.  Schubfach
finds them (R. Giulietti, "The Schubfach way to render doubles", 2020) on
uint64, with g(k) ~ 10**-k computed from Python ints for the decimal
exponents k present.  Its 64 x 64 -> 128-bit products are taken from 32-bit
halves for the value, and follow for the two ends of its rounding interval
by exact shifted 128-bit adds.  The text is laid out in a byte buffer of fixed slots,
one column of slots per element:

    sign | "0." and up to three zeros | 17 x (digit, ".") | "e", sign,
    three digits | "," or "\\r\\n"

where an unused slot holds a zero byte, and one pass drops those.  Zeros,
subnormals, ``inf`` and ``nan`` are laid out in the same slots.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["join_reprs"]

# a finite double in Schubfach's terms: c * 2**q, c < 2**53, q >= _Q_MIN,
# and c >= _C_MIN unless q = _Q_MIN (a subnormal)
_Q_MIN, _C_MIN = -1074, 1 << 52
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of g(k)
_EXP_BITS = 0x7FF << 52
_ONE_BITS = 0x3FF << 52  # stands in for zeros, infs and nans
_M32 = (1 << 32) - 1
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_DIGITS = 17  # repr never needs more

# the rows of the slot buffer: sign, "0." and zeros, digits and points,
# exponent, separator
_SIGN, _LEAD, _DIGIT, _EXP, _SEP = 0, 1, 6, 40, 45
_SLOTS = 47
_DIGIT_SLOT = np.arange(_DIGITS, dtype=np.int16)[:, None]
_DIGIT_RANK = np.arange(1, _DIGITS + 1, dtype=np.uint8)[:, None]


# Schubfach's fixed-point logarithms, of an int or int64 array, exact for
# every |e| <= 1200 (the tests check them)
def _flog10pow2(e):
    """floor(log10(2**e))."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2**e))."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10**e))."""
    return (e * 913_124_641_741) >> 38


@cache
def _g(k: int) -> tuple[int, int]:
    """Schubfach's g(k) = floor(10**-k / 2**r) + 1, with r chosen so that
    2**125 <= g < 2**126, as g1 = g >> 63 and g0 = g mod 2**63."""
    r = _flog2pow10(-k) - 125
    if k > 0:
        g = (1 << -r) // 10 ** k + 1
    else:
        g = (10 ** -k << -r if r < 0 else 10 ** -k >> r) + 1
    return g >> 63, g & ((1 << 63) - 1)


def _mul128(a, b, b_lo, b_hi):
    """The high and low 64 bits of a * b, for a < 2**63 and b < 2**60
    given with its 32-bit halves."""
    a_lo, a_hi = a & _M32, a >> 32
    m1 = a_hi * b_lo + (a_lo * b_lo >> 32)
    m2 = a_lo * b_hi + (m1 & _M32)
    return a_hi * b_hi + (m1 >> 32) + (m2 >> 32), a * b


def _shift_add(hi, lo, a, e, sign):
    """(hi, lo) + sign * a * 2**e in 128 bits, for a < 2**63, 0 < e < 64."""
    if sign > 0:
        low = lo + (a << e)
        return hi + (a >> (64 - e)) + (low < lo), low
    low = lo - (a << e)
    return hi - (a >> (64 - e)) - (low > lo), low


def _rop(x, y):
    """Schubfach's rop: g * cp / 2**127 rounded to odd, from the 128-bit
    products x = g0 * cp and y = g1 * cp of g = g1 * 2**63 + g0 (as in
    Giulietti's code, the low half of x does not enter)."""
    z = (y[1] >> 1) + x[0]
    return (y[0] + (z >> 63)) | ((z & ((1 << 63) - 1)) != 0)


def _shortest(bits):
    """Schubfach on the bits of finite nonzero doubles: (f, k) such that
    f * 10**k is the decimal ``repr`` prints, f < 10**17.

    It departs from Giulietti's Java in two places, both for Java's rule
    of at least two digits: that code tries one digit fewer only for
    s >= 100, and scales the two smallest subnormals by 10."""
    t = bits & (_C_MIN - 1)
    bq = (bits >> 52).astype(np.int64) & 0x7FF
    c = np.where(bq != 0, t | _C_MIN, t)
    q = np.maximum(bq, 1) + (_Q_MIN - 1)
    # at a power of two the spacing below v is half that above it
    irregular = (t == 0) & (bq > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    row = k - _K_MIN
    table = np.zeros((2, _K_MAX - _K_MIN + 1), np.uint64)
    present = np.flatnonzero(np.bincount(row))
    table[:, present] = np.array([_g(int(i) + _K_MIN) for i in present],
                                 np.uint64).T
    g1, g0 = table[0].take(row), table[1].take(row)
    # v, and the ends of its rounding interval, times 4 * 10**-k
    cp = c << (h + 2)
    cp_lo, cp_hi = cp & _M32, cp >> 32
    x = _mul128(g0, cp, cp_lo, cp_hi)
    y = _mul128(g1, cp, cp_lo, cp_hi)
    vb = _rop(x, y)
    e = h + 1
    vbr = _rop(_shift_add(*x, g0, e, 1), _shift_add(*y, g1, e, 1))
    e -= irregular
    vbl = _rop(_shift_add(*x, g0, e, -1), _shift_add(*y, g1, e, -1))
    # the interval's ends read back as v only for an even c (ties to even)
    out = c & 1
    vbl += out
    vbr -= out
    s = vb >> 2
    # one digit fewer: u' = 10 s' and w' = u' + 10 bracket v, at most one
    # of them lies in the rounding interval
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= vbr
    shorter = (upin != wpin) & (s >= 10)
    # else at least one of s and s + 1 does; if both, the nearer to v
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    mid = (s << 2) + 2
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & (s & 1 == 1)))
    f = np.where(shorter, sp10 + wpin * np.uint64(10), s + up)
    return f, k


def join_reprs(values: np.ndarray, width: int) -> bytes:
    """The ASCII bytes of ``repr`` of every element of the 1-D float64
    array ``values``, each followed by ``,``, and every ``width``-th by
    ``\\r\\n`` instead: the lines of a table ``width`` columns wide."""
    n = len(values)
    bits = np.ascontiguousarray(values, np.float64).view(np.uint64)
    finite = bits & _EXP_BITS != _EXP_BITS
    zero = bits << 1 == 0
    f, k = _shortest(np.where(finite & ~zero, bits, _ONE_BITS))
    ndig = np.searchsorted(_POW10, f, side="right")  # 10**(ndig-1) <= f
    # repr's digits are 0.d1 d2 ... d17 * 10**decpt, d1 = 0 only for zero
    decpt = (k + ndig).astype(np.int16)
    decpt[zero] = 1
    f *= _POW10[_DIGITS - ndig]
    f[zero] = 0
    head = f // 10 ** 9
    parts = ((head.astype(np.uint32), 0, 8),
             ((f - head * 10 ** 9).astype(np.uint32), 8, _DIGITS))
    digits = np.empty((_DIGITS, n), np.uint8)
    for x, first, stop in parts:
        for j in range(stop - 1, first, -1):
            tens = x // 10
            digits[j] = x - tens * 10
            x = tens
        digits[first] = x
    # the number of digits once trailing zeros are gone, 1 for a zero
    nsig = np.maximum(((digits != 0) * _DIGIT_RANK).max(axis=0), 1)
    use_exp = ((decpt <= -4) | (decpt > 16)) & finite
    lead = (decpt <= 0) & ~use_exp
    # fixed notation pads an integer with zeros to the point and ".0"
    filled = np.where(use_exp | (decpt < nsig), nsig, decpt + 1)
    point = np.where(use_exp, nsig > 1, decpt) * finite

    buf = np.zeros((_SLOTS, n), np.uint8)
    nan = ~finite & (bits << 12 != 0)
    buf[_SIGN] = (bits >> 63).astype(bool) & ~nan
    buf[_SIGN] *= ord("-")
    digits += ord("0")
    digits *= _DIGIT_SLOT < filled
    buf[_DIGIT:_EXP:2] = digits
    dotted = np.flatnonzero(point > 0)
    buf[_DIGIT - 1 + 2 * point[dotted], dotted] = ord(".")
    # the slots only some values use, written for those alone
    at = np.flatnonzero(lead)
    buf[_LEAD, at] = ord("0")
    buf[_LEAD + 1, at] = ord(".")
    for i in range(3):
        buf[_LEAD + 2 + i, at] = (decpt[at] < -i) * np.uint8(ord("0"))
    at = np.flatnonzero(use_exp)
    exp = decpt[at] - 1
    buf[_EXP, at] = ord("e")
    buf[_EXP + 1, at] = np.where(exp < 0, ord("-"), ord("+"))
    exp = np.abs(exp)
    buf[_EXP + 2, at] = (exp >= 100) * (exp // 100 + ord("0"))
    buf[_EXP + 3, at] = exp // 10 % 10 + ord("0")
    buf[_EXP + 4, at] = exp % 10 + ord("0")
    at = np.flatnonzero(~finite)
    for i, letters in enumerate(zip(b"inf", b"nan")):
        buf[_DIGIT + 2 * i, at] = np.where(nan[at], letters[1], letters[0])
    line_end = np.arange(1, n + 1) % width == 0
    buf[_SEP] = ord(",") - line_end * np.uint8(ord(",") - ord("\r"))
    buf[_SEP + 1] = line_end * np.uint8(ord("\n"))
    return buf.T.tobytes().translate(None, b"\0")
