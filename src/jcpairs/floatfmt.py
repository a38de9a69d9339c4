"""Exact ``'%.17g' % v`` for float64 arrays, a whole block at a time.

CSV tables print every float with 17 significant digits.  Formatting them
one value at a time costs about 0.6 us each on a 2-core Xeon; this module
builds the same bytes with integer array arithmetic, about 0.19 us per
value there in chunks of 4096:

1. A finite v = m 2^e (m the 53-bit significand) in the window
   2^-128 <= |v| < 2^53 gets a decimal exponent guess X = floor(log10 |v|)
   and k = 16 - X.
2. The 17 digits D = round(v 10^k) are computed exactly from the product
   8m 5^k, shifted right by 3 - e - k bits with round-half-even, the
   rounding of correctly rounded conversion (Gay 1990) behind ``%.17g``.
   From 2^-36 up, 5^k is below 2^63 and the product (below 2^119) is
   formed from 32-bit limbs as two 64-bit words, for the whole chunk at
   once.  Below 2^-36 (X down to -39, k up to 55) 5^k takes four 32-bit
   limbs (5^55 < 2^128) and the product (below 2^184) three words; only
   the cells that need it take this longer product, as a compressed
   subset, so a chunk without them does the two-word work alone.
3. The guess is right when v 10^k >= 10^16 before rounding and D < 10^17
   after.  A log10 guess one too high next to a power of ten fails the
   first test, one too low the second, and the value takes the fallback.
   (Rounding to 17 digits never carries a double to the next power of
   ten: neighbouring doubles are at least 1.1e-16 apart relative to their
   size, half a unit of the 17th digit is at most 5e-17.)
4. The 17 digits go into three little-endian 64-bit words as ASCII, digit
   j in byte j of the text: D = top 10^16 + high 10^8 + low, and each
   eight-digit part becomes one word by splitting it 4|4 in 32-bit lanes,
   2|2 in 16-bit lanes and 1|1 in bytes, every lane at once (SIMD within
   a register; the quotients x // 100 = x * 10486 >> 20 below 10^4 and
   x // 10 = x * 103 >> 10 below 10^2 are exact).
5. The ``%g`` layout depends only on the sign, X and the number of digits
   left once trailing zeros are dropped.  One table indexed by those three
   holds each layout as words: the fixed bytes (sign, "0.000", the point,
   the exponent, e-05 down to e-39), which digits come before the point,
   where they start and how long the text is.  The text is then a few
   word operations per value: the head digits shifted to their start, the
   rest one byte further for the point, cut to the length and merged with
   the fixed bytes, written into the rows of a NUL-padded byte matrix.

Zero takes the same path as D = 0 at X = 0.  Only non-finite values,
|v| < 2^-128 (zero excepted), |v| >= 2^53 and the rare wrong exponent
guess go through ``'%.17g' % v``, one at a time; a chunk with none of
them skips that branch.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

# exponents e of m 2^e, m in [2^52, 2^53), inside the window; from _E_NARROW
# up, 5^k is below 2^63 and the product takes two words
_E_MIN, _E_NARROW, _E_MAX = -180, -88, 0
_X_MIN, _X_MAX = -39, 15  # decimal exponents inside the window
_DIGITS = 17
# longest text: "-1.7976931348623157e+308" and "-2.2250738585072014e-308" (fallbacks);
# inside the window "-1.2345678901234567e-39" or "-0.00012345678901234567", 23
WIDTH = 24
_CHUNK = 4096  # values per pass through the arithmetic, which bounds its arrays
_WORDS = np.dtype("<u8")  # byte j of a text is byte j % 8 of word j // 8 on every host


def _text_bytes(text):
    """Up to 24 bytes, NUL-padded to 24: three little-endian words."""
    return bytes(text).ljust(WIDTH, b"\0")


@functools.cache
def _tables():
    """5^k as four 32-bit limbs (rows, lowest first), and the layout of every (sign, X, digits kept).

    A layout is ten words (a column of the (10, layouts) table): the
    text's fixed bytes (3), the mask of the digits before the point (3),
    the mask of the text's length (3) and the bit offset of the first
    digit.  The table is filled in place, column by column, so building it
    holds no more than the table itself.
    """
    pow5 = [5**k for k in range(16 - _X_MAX, 17 - _X_MIN)]
    codes = itertools.product((0, 1), range(_X_MIN, _X_MAX + 1), range(1, _DIGITS + 1))
    layouts = np.empty((10, 2 * (_X_MAX - _X_MIN + 1) * _DIGITS), dtype=_WORDS)
    for i, (neg, x, kept) in enumerate(codes):
        if x >= 0:  # %f style with 16 - X decimals, trailing zeros dropped
            prefix, head = b"", x + 1
        elif x >= -4:
            prefix, head = b"0." + b"0" * (-x - 1), _DIGITS
        else:  # %e style
            prefix, head = b"", 1
        prefix = b"-" * neg + prefix
        start = len(prefix)
        fixed = bytearray(_text_bytes(prefix))
        length = start + (head if x >= 0 else min(kept, head))
        if kept > head:  # the point, then the kept digits after the head
            fixed[length] = ord(".")
            length += 1 + kept - head
        if x < -4:
            fixed[length:length + 4] = b"e%+03d" % x
        layouts[:, i] = np.frombuffer(fixed + _text_bytes(b"\xff" * head) + _text_bytes(b"\xff" * length)
                                      + (8 * start).to_bytes(8, "little"), dtype=_WORDS)
    limbs = np.array([[p >> 32 * i & 0xFFFFFFFF for p in pow5] for i in range(4)], dtype=np.uint64)
    return limbs, layouts


def _decimal(values):
    """(D, X, ok): 17 correctly rounded digits and the exponent, where ``ok``."""
    pow5 = _tables()[0]
    bits = values.view(np.uint64)
    e = (bits >> 52 & 0x7FF).astype(np.intp) - 1075
    ok = (e >= _E_MIN) & (e <= _E_MAX)
    # X in [-39, 15] inside the window, 0 outside
    x = np.floor(np.log10(np.where(ok, np.abs(values), 1.0))).astype(np.intp)
    narrow = ok & (e >= _E_NARROW)

    # 8m 5^k = hi 2^64 + lo from the limbs of 8m (below 2^56) and 5^k (below
    # 2^63 in the narrow window; the wide cells are redone below)
    m_lo = ((bits & ((1 << 52) - 1)) | (1 << 52)) << 3
    m_hi = m_lo >> 32
    m_lo &= 0xFFFFFFFF
    p_lo, p_hi = pow5[0][_X_MAX - x], pow5[1][_X_MAX - x]
    lo = m_lo * p_lo
    mid = m_lo * p_hi
    mid += m_hi * p_lo
    mid += lo >> 32
    hi = m_hi * p_hi
    hi += mid >> 32
    lo &= 0xFFFFFFFF
    lo |= mid << 32
    del p_lo, p_hi, mid
    # t = floor(2 v 10^k): the shift 3 - e - k less one, in [1, 63] inside the narrow window
    r = np.where(narrow, x - e - 14, 1).astype(np.uint64)
    t = (lo >> r) | (hi << (64 - r))
    sticky = (lo & ((1 << r) - 1)) != 0
    wide = np.flatnonzero(ok ^ narrow)
    if wide.size:
        t[wide] = _wide_product(m_lo[wide], m_hi[wide], x[wide], e[wide])
        sticky[wide] = True
    d = t >> 1
    d += t & (sticky | d) & 1  # round half to even
    ok &= (t >= 2 * 10**16) & (d < 10**17)
    zero = values == 0.0  # written as the one digit "0" (X is 0 already)
    d[zero] = 0
    return d, x, ok | zero


def _wide_product(m_lo, m_hi, x, e):
    """floor(2 v 10^k) below the narrow window, where 2^-128 <= |v| < 2^-36.

    8m 5^k is summed from the 32-bit halves of the limb products into six
    32-bit columns (each below 2^34 before the carries), which make three
    words, and shifted right by r = 3 - e - k - 1, in [63, 127] here.  The
    shift always drops nonzero bits: 2 v 10^k = m 5^k 2^(e + k + 1) with
    e + k + 1 <= -60 here, and m has at most 52 trailing zero bits.
    """
    p = _tables()[0][:, _X_MAX - x]
    a, b = m_lo * p, m_hi * p  # (4, n) limb products, 8m = m_hi 2^32 + m_lo
    cols = np.zeros((6, x.size), dtype=np.uint64)
    cols[:4] += a & 0xFFFFFFFF
    cols[1:5] += a >> 32
    cols[1:5] += b & 0xFFFFFFFF
    cols[2:] += b >> 32
    for i in range(5):
        cols[i + 1] += cols[i] >> 32
    words = (cols[0::2] & 0xFFFFFFFF) | (cols[1::2] << 32)
    r = (x - e - 14).astype(np.uint64)
    above = r >= 64  # the lowest word is all below the shift
    s = r & 63
    low, high = np.where(above, words[1], words[0]), np.where(above, words[2], words[1])
    return (low >> s) | (high << 1 << (63 - s))  # high << (64 - s) for s in [0, 63]


def _digit_words(d):
    """The 17 ASCII digits of each D, first digit in the lowest byte, as (3, n) words.

    Also returns the number of digits kept once trailing zeros are dropped
    (one for D = 0, which is written as "0").
    """
    n = d.size
    top = d // 10**16
    d = d - top * 10**16
    parts = np.empty((2, n), dtype=_WORDS)
    parts[0] = d // 10**8
    parts[1] = d - parts[0] * 10**8
    high = parts // 10**4  # 4|4 in 32-bit lanes
    parts -= high * 10**4
    parts <<= 32
    parts |= high
    high = (parts * 10486 >> 20) & 0x0000007F0000007F  # 2|2 in 16-bit lanes
    parts -= high * 100
    parts <<= 16
    parts |= high
    high = (parts * 103 >> 10) & 0x000F000F000F000F  # 1|1 in bytes
    parts -= high * 10
    parts <<= 8
    parts |= high
    digits = np.empty((3, n), dtype=_WORDS)
    np.left_shift(parts, 8, out=digits[:2])
    digits[0] |= top
    digits[1] |= parts[0] >> 56
    np.right_shift(parts[1], 56, out=digits[2])

    kept = np.full(n, _DIGITS)
    ends_in_zero = np.flatnonzero(digits[2] == 0)
    if ends_in_zero.size:
        nonzero = np.ascontiguousarray(digits[:, ends_in_zero].T).view(np.uint8)[:, _DIGITS - 1::-1] != 0
        kept[ends_in_zero] = np.where(nonzero.any(axis=1), _DIGITS - np.argmax(nonzero, axis=1), 1)
    digits[:2] += 0x3030303030303030
    digits[2] += 0x30
    return digits, kept


def g17_bytes(values, out=None):
    """``'%.17g' % v`` of each value of a 1-D float64 array, as an (n, 24) uint8 matrix.

    Row i holds the ASCII text of ``values[i]`` padded with NUL bytes.  The
    rows are written into ``out``, an (n, 24) uint8 array with contiguous
    rows, when it is given.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if out is None:
        out = np.empty((values.size, WIDTH), dtype=np.uint8)
    for start in range(0, values.size, _CHUNK):
        _write_chunk(values[start:start + _CHUNK], out[start:start + _CHUNK])
    return out


def _write_chunk(values, out):
    """The rows of one chunk of ``g17_bytes``, written into ``out``."""
    d, x, ok = _decimal(values)
    digits, kept = _digit_words(d)
    code = (np.signbit(values) * (_X_MAX - _X_MIN + 1) + x - _X_MIN) * _DIGITS + kept - 1
    # the indices are in range by construction
    fixed, head_mask, length_mask, shift = np.split(np.take(_tables()[1], code, axis=1, mode="clip"),
                                                    [3, 6, 9])
    head = digits & head_mask
    digits ^= head  # the digits after the point
    words = head << shift
    words |= digits << (shift + 8)
    # bytes carried into the next word: head >> (64 - shift) without a 64-bit shift
    head[:2] >>= 8
    head[:2] |= digits[:2]
    words[1:] |= head[:2] >> (56 - shift)
    words &= length_mask
    words |= fixed
    out.view(_WORDS)[...] = words.T
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        texts = ["%.17g" % v for v in values[fallback].tolist()]
        out[fallback] = np.array(texts, dtype=(bytes, WIDTH)).view(np.uint8).reshape(-1, WIDTH)
