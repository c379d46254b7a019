"""The text of ``repr`` for every element of a float64 array, in numpy.

:func:`join_reprs` writes each element as the digits Python's ``repr``
prints: the shortest decimal that reads back as the same double, the
nearest one if several are that short, the even one on a tie.  Schubfach
finds them (R. Giulietti, "The Schubfach way to render doubles", 2020) on
uint64, with g(k) ~ 10**-k computed from Python ints for each decimal
exponent k the first time one is met, and kept in one table.  Its
64 x 64 -> 128-bit products are taken from 32-bit halves for the value,
and follow for the two ends of its rounding interval by exact shifted
128-bit adds.  The text is laid out in a byte buffer of fixed slots, one
row of 32 per element:

    sign, "0." and up to three zeros | up to 17 digits and a point |
    "e", sign and up to three digits, "," or "\\r\\n"

where an unused slot holds a zero byte, and one pass drops those.  The
first 8 slots and the last 8 are each written as one uint64 from a table;
the 18 between start at slot 6, over the first word's two empty slots,
and hold the digits with the point spliced in.  Zeros, ``inf`` and ``nan``
go through Schubfach as 1.0 and then have their row written whole.  The
uint64 arrays, the digits and the slots live in work buffers that each
thread keeps for all its calls of up to 8,192 values.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["join_reprs"]

# a finite double in Schubfach's terms: c * 2**q, c < 2**53, q >= _Q_MIN,
# and c >= _C_MIN unless q = _Q_MIN (a subnormal)
_Q_MIN, _C_MIN = -1074, 1 << 52
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of g(k)
_M32 = (1 << 32) - 1
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_DIGITS = 17  # repr never needs more

# the slots of a row: sign, "0." and zeros (the first eight, written as
# one uint64, then overwritten from _DIGIT); digits and a point; exponent
# and separator (the last eight, one uint64)
_DIGIT, _SLOTS = 6, 32
_NO_POINT = _DIGITS + 1  # the point's slot past the digits: none
# the slots from _DIGIT on, and the rank of each digit
_DIGIT_SLOT = np.arange(_DIGITS + 1, dtype=np.int16)[:, None]
_DIGIT_RANK = np.arange(1, _DIGITS + 1, dtype=np.uint8)[:, None]


def _words(texts: list[str]) -> np.ndarray:
    """Each text as the uint64 whose eight bytes are its ASCII, padded
    with zeros."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts),
                         np.uint64)


# the first word, by 2 * lead + sign bit: lead = 1 - decpt for a decimal
# point at decpt = 0, -1, -2, -3, else 0
_LEAD_WORDS = _words([sign + lead for lead in ("", "0.", "0.0", "0.00",
                                                "0.000")
                      for sign in ("", "-")])
# the last word: an exponent e = -324..308 or none, and a separator
_EXP_MIN = -324
_EXP_WORDS = _words([f"e{e:+03d}" for e in range(_EXP_MIN, 309)])
_COMMA_WORD, _CRLF_WORD = _words(["\0" * 5 + ",", "\0" * 5 + "\r\n"])
# the rows of zero, inf and nan, by 2 * kind + sign bit, kind 0, 1, 2
_SPECIAL_ROWS = np.zeros((6, _SLOTS // 8), np.uint64)
_SPECIAL_ROWS[:, 1] = _words(["0.0", "-0.0", "inf", "-inf", "nan", "nan"])
_SPECIAL_ROWS = _SPECIAL_ROWS.view(np.uint8)
# whether s rounds up when both s and s + 1 lie in the rounding interval,
# by the last three bits of vb = 4 s + r: r > 2, or r = 2 and s odd
_ROUND_UP = np.array([0, 0, 0, 1, 0, 0, 1, 1], bool)

# g(k) of the exponents met so far, at k mod 617, so that ``take`` in its
# "wrap" mode reads it at k itself.  An entry not yet computed reads 0 in
# _G1, which every g1 >= 2**62 does not; _G0 is written first.
_G1 = np.zeros(_K_MAX - _K_MIN + 1, np.uint64)
_G0 = np.zeros_like(_G1)
_G_LOCK = threading.Lock()


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


def _g(k: int) -> tuple[int, int]:
    """Schubfach's g(k) = floor(10**-k / 2**r) + 1, with r chosen so that
    2**125 <= g < 2**126, as g1 = g >> 63 and g0 = g mod 2**63."""
    r = _flog2pow10(-k) - 125
    if k > 0:
        g = (1 << -r) // 10 ** k + 1
    else:
        g = (10 ** -k << -r if r < 0 else 10 ** -k >> r) + 1
    return g >> 63, g & ((1 << 63) - 1)


def _fill_g(k: np.ndarray):
    """Compute the table entries of the exponents in k still missing."""
    with _G_LOCK:
        for i in set(k[_G1.take(k, mode="wrap") == 0].tolist()):
            g1, _G0[i] = _g(i)
            _G1[i] = g1  # last, as it marks the entry filled


_WORK_VALUES = 8192  # the values a thread's buffers hold: a CSV chunk
_WORK_ROWS = 14
_local = threading.local()


class _Work:
    """The work arrays of :func:`join_reprs` for up to ``size`` values:
    uint64 rows, and the slot rows."""

    def __init__(self, size: int):
        self.u = np.empty((_WORK_ROWS, size), np.uint64)
        self.slots = np.empty((size, _SLOTS), np.uint8)
        # each row's first digit slot in the flat buffer
        self.first_digit = np.arange(_DIGIT, size * _SLOTS, _SLOTS)


def _work(n: int) -> _Work:
    """The calling thread's work arrays, reused by all its calls of up to
    ``_WORK_VALUES`` values; a longer call gets its own."""
    if n > _WORK_VALUES:
        return _Work(n)
    work = getattr(_local, "work", None)
    if work is None:
        work = _local.work = _Work(_WORK_VALUES)
    return work


def _mul128(a, b, b_lo, b_hi, hi, lo, t1, t2):
    """hi, lo = the high and low 64 bits of a * b, for a < 2**63 and
    b < 2**60 given with its 32-bit halves; t1 and t2 are scratch."""
    np.bitwise_and(a, _M32, out=t1)
    np.right_shift(a, 32, out=t2)
    np.multiply(t1, b_lo, out=lo)
    lo >>= 32
    np.multiply(t2, b_lo, out=hi)
    hi += lo  # m1 = a_hi b_lo + (a_lo b_lo >> 32)
    t1 *= b_hi
    np.bitwise_and(hi, _M32, out=lo)
    t1 += lo  # m2 = a_lo b_hi + (m1 mod 2**32)
    hi >>= 32
    t1 >>= 32
    hi += t1
    t2 *= b_hi
    hi += t2
    np.multiply(a, b, out=lo)


def _shift_add(hi, lo, a, e, e_right, sign, out_hi, out_lo):
    """out_hi, out_lo = (hi, lo) + sign * a * 2**e in 128 bits, for
    a < 2**63 and 0 < e < 64, with e_right = 64 - e."""
    np.left_shift(a, e, out=out_lo)
    np.right_shift(a, e_right, out=out_hi)
    if sign > 0:
        out_lo += lo
        out_hi += hi
        out_hi += out_lo < lo  # the carry
    else:
        np.subtract(lo, out_lo, out=out_lo)
        np.subtract(hi, out_hi, out=out_hi)
        out_hi -= out_lo > lo  # the borrow


def _rop(x_hi, y_hi, y_lo, out, z):
    """out = Schubfach's rop: g * cp / 2**127 rounded to odd, from the
    128-bit products x = g0 * cp and y = g1 * cp of g = g1 * 2**63 + g0 (as
    in Giulietti's code, the low half of x does not enter).  z is scratch
    and may be y_lo; out may be x_hi."""
    np.right_shift(y_lo, 1, out=z)
    z += x_hi
    np.right_shift(z, 63, out=out)
    out += y_hi
    z <<= 1
    np.not_equal(z, 0, out=z)
    out |= z


def _shortest(bits, u):
    """Schubfach on the bits of doubles, in the work rows u: (f, k,
    special, odd) such that f * 10**k is the decimal ``repr`` prints,
    f < 10**17, for each finite nonzero value.  ``special`` indexes the
    zeros, infs and nans, whose f and k are those of 1.0, and ``odd`` the
    subnormals and powers of two: at every other value f has 16 or 17
    digits, as 10**k <= 2**q < 10**(k+1) and 2**52 <= c < 2**53 there.

    It departs from Giulietti's Java in two places, both for Java's rule
    of at least two digits: that code tries one digit fewer only for
    s >= 100, and scales the two smallest subnormals by 10."""
    c, q, k, e, g0, g1, x_hi, x_lo, y_hi, y_lo, vb, w1, w2, w3 = u
    q64, k64, e64 = q.view(np.int64), k.view(np.int64), e.view(np.int64)
    np.right_shift(bits, 52, out=q)
    q &= 0x7FF
    np.bitwise_and(bits, _C_MIN - 1, out=w1)
    np.bitwise_or(w1, _C_MIN, out=c)
    # the biased exponent 0 (zeros, subnormals) or 0x7FF (infs, nans)
    np.subtract(q, 1, out=w2)
    edge = np.flatnonzero(w2 >= 0x7FE)
    subnormal = (q[edge] == 0) & (w1[edge] != 0)
    special, subnormal = edge[~subnormal], edge[subnormal]
    q64 += _Q_MIN - 1
    c[subnormal] = w1[subnormal]
    q64[subnormal] = _Q_MIN
    c[special] = _C_MIN
    q64[special] = -52
    # at a power of two the spacing below v is half that above it
    irregular = np.flatnonzero(c == _C_MIN)
    irregular = irregular[q64[irregular] > _Q_MIN]
    np.multiply(q64, 661_971_961_083, out=k64)  # _flog10pow2, in place
    k64 >>= 41
    k64[irregular] = _flog10_three_quarters_pow2(q64[irregular])
    # e = h + 1 in Giulietti's terms: h = q + flog2pow10(-k) + 2
    np.multiply(k64, -913_124_641_741, out=e64)
    e64 >>= 38
    e64 += q64
    e64 += 3
    np.take(_G1, k64, out=g1, mode="wrap")
    if not g1.min():
        _fill_g(k64)
        np.take(_G1, k64, out=g1, mode="wrap")
    np.take(_G0, k64, out=g0, mode="wrap")
    # the interval's ends read back as v only for an even c (ties to even)
    odd_c = np.bitwise_and(c, 1, out=vb).astype(bool)
    # v, and the ends of its rounding interval, times 4 * 10**-k
    cp, cp_lo, cp_hi = q, w1, w2
    np.add(e, 1, out=w3)
    np.left_shift(c, w3, out=cp)
    np.bitwise_and(cp, _M32, out=cp_lo)
    np.right_shift(cp, 32, out=cp_hi)
    _mul128(g0, cp, cp_lo, cp_hi, x_hi, x_lo, c, w3)
    _mul128(g1, cp, cp_lo, cp_hi, y_hi, y_lo, c, w3)
    _rop(x_hi, y_hi, y_lo, vb, w1)
    vbr, vbl = q, w1
    np.subtract(64, e, out=w3)
    _shift_add(x_hi, x_lo, g0, e, w3, 1, vbr, w1)
    _shift_add(y_hi, y_lo, g1, e, w3, 1, w2, c)
    _rop(vbr, w2, c, vbr, c)
    e[irregular] -= 1
    np.subtract(64, e, out=w3)
    _shift_add(x_hi, x_lo, g0, e, w3, -1, vbl, w2)
    _shift_add(y_hi, y_lo, g1, e, w3, -1, c, w2)
    _rop(vbl, c, w2, vbl, w2)
    vbl += odd_c
    vbr -= odd_c

    s, sp10, t, f = c, e, g0, g1
    np.right_shift(vb, 2, out=s)
    # one digit fewer: u' = 10 s' and w' = u' + 10 bracket v, at most one
    # of them lies in the rounding interval
    np.floor_divide(s, 10, out=sp10)
    sp10 *= 10
    np.left_shift(sp10, 2, out=t)
    upin = vbl <= t
    t += 40
    wpin = t <= vbr
    shorter = upin != wpin
    shorter &= s >= 10
    # else at least one of s and s + 1 does; if both, the nearer to v
    np.left_shift(s, 2, out=t)
    uin = vbl <= t
    t += 4
    win = t <= vbr
    np.bitwise_and(vb, 7, out=t)
    up = _ROUND_UP.take(t.view(np.int64))
    up |= ~uin
    up &= win
    np.add(s, up, out=f)
    # where shorter, f = s' + 10 wpin: f += shorter * (s' + 10 wpin - f),
    # modulo 2**64
    np.multiply(wpin, np.uint64(10), out=t)
    t += sp10
    t -= f
    t *= shorter
    f += t
    return f, k64, special, np.concatenate((subnormal, irregular))


def join_reprs(values: np.ndarray, width: int) -> bytes:
    """The ASCII bytes of ``repr`` of every element of the 1-D float64
    array ``values``, each followed by ``,``, and every ``width``-th by
    ``\\r\\n`` instead: the lines of a table ``width`` columns wide."""
    n = len(values)
    if n == 0:
        return b""
    bits = np.ascontiguousarray(values, np.float64).view(np.uint64)
    work = _work(n)
    u = work.u[:, :n]
    f, k, special, odd = _shortest(bits, u)
    # repr's digits are 0.d1 d2 ... d17 * 10**decpt: f scaled to 17 digits
    short = f < _POW10[16]
    ndig = _DIGITS - short.view(np.int8).astype(np.int16)
    ndig[odd] = np.searchsorted(_POW10, f[odd], side="right")
    scale = u[0]
    np.multiply(short, np.uint64(9), out=scale)
    scale += 1
    scale[odd] = _POW10[_DIGITS - ndig[odd]]
    f *= scale
    decpt = k.astype(np.int16)
    decpt += ndig
    # the digit rows d1 ... d17 between two rows of zeros; 18 slots a row
    padded, block, spread = (work.u[i:i + 3].reshape(-1).view(np.uint8)
                             [:(_DIGITS + 2) * n].reshape(_DIGITS + 2, n)
                             for i in (6, 9, 0))
    padded[0] = padded[-1] = 0
    digits = padded[1:-1]
    # the digits of f's first 8 and last 9 places, two a step
    head, x, rest, tens = u[3], *(u[i].view(np.uint32).reshape(2, n)
                                  for i in (4, 12, 13))
    np.floor_divide(f, 10 ** 9, out=head)
    x[0] = head
    head *= 10 ** 9
    np.subtract(f, head, out=x[1], casting="unsafe")
    for j in range(7, -1, -1):
        np.floor_divide(x, 10, out=tens)
        np.multiply(tens, 10, out=rest)
        np.subtract(x, rest, out=digits[j::9], casting="unsafe")
        x, tens = tens, x
    digits[8] = x[1]
    # the number of digits once trailing zeros are gone
    nonzero = block[:_DIGITS]
    np.not_equal(digits, 0, out=nonzero)
    nonzero *= _DIGIT_RANK
    nsig = nonzero.max(axis=0)
    use_exp = (decpt <= -4) | (decpt > 16)
    lead = (decpt <= 0) & ~use_exp
    # fixed notation pads an integer with zeros to the point and ".0"
    filled = np.where(use_exp | (decpt < nsig), nsig, decpt + 1)
    # the point follows digit decpt, or the first of several in exponent
    # notation; it is part of the lead
    point = np.where(use_exp | lead, _NO_POINT, decpt)
    point -= (_NO_POINT - 1) * (use_exp & (nsig > 1))
    digits += ord("0")
    np.less(_DIGIT_SLOT[:-1], filled, out=nonzero)
    digits *= nonzero
    # the digits, shifted one slot on from the point's: d[i] before it,
    # d[i - 1] after
    after = block[:-1]
    np.less(_DIGIT_SLOT, point, out=spread[:-1])
    np.subtract(padded[1:], padded[:-1], out=after)
    after *= spread[:-1]
    after += padded[:-1]

    slots = work.slots[:n]
    slots.fill(0)
    words = slots.view(np.uint64)
    index = u[12].view(np.int64)
    np.right_shift(bits, 63, out=u[12])
    index += 2 * (1 - decpt) * lead
    np.take(_LEAD_WORDS, index, out=u[13], mode="wrap")
    words[:, 0] = u[13]
    slots[:, _DIGIT:_DIGIT + _NO_POINT] = after.T
    # a point past the digits lands in the last word, written below
    index = np.add(work.first_digit[:n], point, out=u[12].view(np.int64))
    slots.reshape(-1)[index] = ord(".")
    if special.size:
        b = bits[special]
        kind = ((b >> 52 & 0x7FF) != 0).view(np.int8) \
            + ((b & (_C_MIN - 1)) != 0).view(np.int8)
        slots[special] = _SPECIAL_ROWS[2 * kind + (b >> 63).astype(np.int8)]
    words[:, -1] = _COMMA_WORD
    words[width - 1::width, -1] = _CRLF_WORD
    at = np.flatnonzero(use_exp)
    words[at, -1] |= _EXP_WORDS[decpt[at] - (1 + _EXP_MIN)]
    return slots.tobytes().translate(None, b"\0")
