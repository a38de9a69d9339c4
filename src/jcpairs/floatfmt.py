"""Exact ``'%.17g' % v`` for float64 arrays, a whole block at a time.

CSV tables print every float with 17 significant digits.  Formatting them
one value at a time costs about 0.6 us each on a 2-core Xeon; this module
builds the same bytes with integer array arithmetic, about 0.16 us per
value there in chunks of 4096 (the C and Q values of a closed sweep):

1. A finite v = m 2^e (m the 53-bit significand) in the window
   2^-128 <= |v| < 2^53, with |v| in [2^E, 2^(E+1)), has X = floor(log10 |v|)
   = g = floor(log10 2^E), or g + 1 once |v| reaches the double nearest
   10^(g+1): two tables over E.  Then k = 16 - X.
2. The 17 digits D = round(v 10^k) are computed exactly from the product
   8m 5^k, shifted right by 3 - e - k bits with round-half-even, the
   rounding of correctly rounded conversion (Gay 1990) behind ``%.17g``.
   From 2^-36 up, 5^k is below 2^63 and the product (below 2^119) is
   formed from 32-bit limbs as two 64-bit words, for the whole chunk at
   once.  Below 2^-36 (X down to -39, k up to 55) 5^k takes four 32-bit
   limbs (5^55 < 2^128) and the product (below 2^184) three words; only
   the cells that need it take this longer product, as a compressed
   subset, so a chunk without them does the two-word work alone.
3. X is right when v 10^k >= 10^16 before rounding and D < 10^17 after.
   Where the double nearest a power of ten lies below it, that one double
   gets an X one too high, fails the first test and takes the
   fallback.  (Rounding to 17 digits never carries a double to the next
   power of ten: neighbouring doubles are at least 1.1e-16 apart relative
   to their size, half a unit of the 17th digit is at most 5e-17.)
4. The 17 digits go into the last 17 bytes of three little-endian 64-bit
   words as ASCII, digit j in byte 7 + j: the first digit alone in the
   top byte of the first word, then two eight-digit parts, each made one
   word by splitting it 4|4 in 32-bit lanes, 2|2 in 16-bit lanes and 1|1
   in bytes, every lane at once (SIMD within a register; the quotients
   x // 100 = x * 10486 >> 20 below 10^4 and x // 10 = x * 103 >> 10
   below 10^2 are exact).
5. The ``%g`` layout depends only on the sign, X and the number of digits
   left once trailing zeros are dropped.  One table indexed by those three
   holds each layout as words: the fixed bytes (sign, "0.000", the point,
   the exponent, e-05 down to e-39), which digits come before the point,
   where they start and how long the text is.  The text is then a few
   word operations per value: the head digits shifted down to their
   start, the rest one byte less for the point, cut to the length and
   merged with the fixed bytes into the rows of a NUL-padded byte matrix.

Zero takes the same path as D = 0 at X = 0.  Only non-finite values,
|v| < 2^-128 (zero excepted), |v| >= 2^53 and at most one double next to
each power of ten go through ``'%.17g' % v``, one at a time; a chunk with
none of them skips that branch.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# biased exponents of m 2^e, m in [2^52, 2^53), inside the window; from
# _B_NARROW up, 5^k is below 2^63 and the product takes two words
_B_MIN, _B_NARROW, _B_MAX = 895, 987, 1075
_X_MIN, _X_MAX = -39, 15  # decimal exponents inside the window
_DIGITS = 17
# longest text: "-1.7976931348623157e+308" and "-2.2250738585072014e-308" (fallbacks);
# inside the window "-1.2345678901234567e-39" or "-0.00012345678901234567", 23
WIDTH = 24
_CHUNK = 4096  # values per pass through the arithmetic, which bounds its arrays
_WORDS = np.dtype("<u8")  # byte j of a text is byte j % 8 of word j // 8 on every host


@functools.cache
def _tables():
    """The arithmetic's tables, built on the first call.

    5^k as four 32-bit limbs (4, 55), column X - X_MIN for k = 16 - X;
    over the biased exponent b, X - X_MIN at 2^(b - 1023) and the bits of
    the double nearest the next power of ten (39 and all ones outside the
    window: X is 0 there); and each (sign, X, digits kept) layout as a
    column of ten words: the fixed bytes, the masks of the digits before
    the point and of the text (3 words each), and the bit shift of the
    first digit down to the text's start.
    """
    limbs = np.array([[5**(16 - x) >> 32 * i & 0xFFFFFFFF for x in range(_X_MIN, _X_MAX + 1)]
                      for i in range(4)], dtype=np.uint64)
    guess, tens = np.full(2048, -_X_MIN, dtype=np.uint64), np.full(2048, 2**64 - 1, dtype=np.uint64)
    for b in range(_B_MIN, _B_MAX + 1):
        g = math.floor((b - 1023) * math.log10(2))  # exact: never near an integer here
        guess[b], tens[b] = g - _X_MIN, np.float64(f"1e{g + 1}").view(np.uint64)

    neg, x, kept = np.ogrid[:2, _X_MIN:_X_MAX + 1, 1:_DIGITS + 1]  # every layout, by broadcasting
    small, tiny = (x < 0) & (x >= -4), x < -4  # "0.000ddd" and %e style; from 0 up "ddd.ddd"
    head = np.where(x >= 0, x + 1, np.where(small, _DIGITS, 1))
    start = neg + small * (1 - x)
    end = start + np.where(x >= 0, head, np.minimum(kept, head))  # where the point goes
    length = end + (kept > head) * (1 + kept - head)
    layouts = np.empty((10,) + length.shape, dtype=_WORDS)
    ones = np.array([2**(8 * c) - 1 for c in range(9)], dtype=_WORDS)  # the first c bytes of a word
    for w in range(3):  # digits 7 .. 7 + head of the digit words, and the text's length
        layouts[3 + w] = ones[np.clip(7 + head - 8 * w, 0, 8)] ^ ones[np.clip(7 - 8 * w, 0, 8)]
        layouts[6 + w] = ones[np.clip(length - 8 * w, 0, 8)]
    layouts[9] = 8 * (7 - start)
    j = np.arange(WIDTH)
    fixed = np.zeros(length.shape + (WIDTH,), dtype=np.uint8)
    np.copyto(fixed, ord("0"), where=j < start[..., None])  # the prefix, then its sign and point
    for char, where, at in [(ord("-"), neg == 1, 0), (ord("."), small, neg + 1), (ord("."), kept > head, end),
                            (ord("e"), tiny, length), (ord("-"), tiny, length + 1),
                            (48 + -x // 10, tiny, length + 2), (48 + -x % 10, tiny, length + 3)]:
        np.copyto(fixed, np.asarray(char, dtype=np.uint8)[..., None],
                  where=where[..., None] & (j == np.asarray(at)[..., None]))
    layouts[:3] = np.moveaxis(fixed.view(_WORDS), -1, 0)
    return limbs, guess, tens, layouts.reshape(10, -1)


def _decimal(values):
    """(D, X - X_MIN, ok): 17 correctly rounded digits and the exponent, where ``ok``."""
    limbs, guess, tens = _tables()[:3]
    mag = values.view(np.uint64) & 0x7FFFFFFFFFFFFFFF
    b = mag >> 52
    x = np.take(guess, b.view(np.intp))  # indices below 2^11 read as signed
    x += mag >= np.take(tens, b.view(np.intp))
    low = b - _B_MIN  # wraps below the window
    ok = low <= _B_MAX - _B_MIN

    # 8m 5^k = hi 2^64 + lo from the limbs of 8m (below 2^56) and 5^k (below
    # 2^63 in the narrow window; the wide cells are redone below)
    m_lo = ((mag & ((1 << 52) - 1)) | (1 << 52)) << 3
    m_hi = m_lo >> 32
    m_lo &= 0xFFFFFFFF
    p_lo, p_hi = np.take(limbs[0], x.view(np.intp)), np.take(limbs[1], x.view(np.intp))
    lo = m_lo * p_lo
    mid = m_lo * p_hi
    mid += m_hi * p_lo
    mid += lo >> 32
    hi = m_hi * p_hi
    hi += mid >> 32
    lo &= 0xFFFFFFFF
    lo |= mid << 32
    del p_lo, p_hi, mid
    # t = floor(2 v 10^k): the shift 3 - e - k less one, in [1, 63] inside the
    # narrow window; other cells take any shift below 64
    r = (x + (1075 + _X_MIN - 14) - b) & 63
    t = lo >> r
    sticky = t << r != lo
    t |= hi << 1 << (63 - r)
    wide = np.flatnonzero(low < _B_NARROW - _B_MIN)
    if wide.size:
        t[wide] = _wide_product(m_lo[wide], m_hi[wide], x[wide], b[wide])
        sticky[wide] = True
    d = t >> 1
    d += t & (sticky | d) & 1  # round half to even
    ok &= (t >= 2 * 10**16) & (d < 10**17)
    zero = mag == 0  # written as the one digit "0" (X is 0 already)
    d[zero] = 0
    return d, x, ok | zero


def _wide_product(m_lo, m_hi, x, b):
    """floor(2 v 10^k) below the narrow window, where 2^-128 <= |v| < 2^-36.

    8m 5^k is summed from the 32-bit halves of the limb products into six
    32-bit columns (each below 2^34 before the carries), which make three
    words, and shifted right by r = 3 - e - k - 1, in [63, 127] here.  The
    shift always drops nonzero bits: 2 v 10^k = m 5^k 2^(e + k + 1) with
    e + k + 1 <= -60 here, and m has at most 52 trailing zero bits.
    """
    p = _tables()[0][:, x]
    a, c = m_lo * p, m_hi * p  # (4, n) limb products, 8m = m_hi 2^32 + m_lo
    cols = np.zeros((6, x.size), dtype=np.uint64)
    cols[:4] += a & 0xFFFFFFFF
    cols[1:5] += a >> 32
    cols[1:5] += c & 0xFFFFFFFF
    cols[2:] += c >> 32
    for i in range(5):
        cols[i + 1] += cols[i] >> 32
    words = (cols[0::2] & 0xFFFFFFFF) | (cols[1::2] << 32)
    r = x + (1075 + _X_MIN - 14) - b
    above = r >= 64  # the lowest word is all below the shift
    s = r & 63
    low, high = np.where(above, words[1], words[0]), np.where(above, words[2], words[1])
    return (low >> s) | (high << 1 << (63 - s))  # high << (64 - s) for s in [0, 63]


def _digit_words(d):
    """The 17 digits of each D as (3, n) words, digit j in byte 7 + j (not yet ASCII).

    Also returns the number of digits kept once trailing zeros are dropped,
    less one (none for D = 0, which is written as "0").  ``d`` is overwritten.
    """
    digits = np.empty((3, d.size), dtype=_WORDS)
    top = d // 10**16
    d -= top * 10**16
    np.left_shift(top, 56, out=digits[0])
    parts = digits[1:]  # the eight-digit parts, each split into its bytes in place
    np.floor_divide(d, 10**8, out=parts[0])
    np.multiply(parts[0], 10**8, out=parts[1])
    np.subtract(d, parts[1], out=parts[1])
    # (p - q c) << s | q, the quotient q in the lower lane, as (p << s) - q (c << s - 1)
    high = parts // 10**4  # 4|4 in 32-bit lanes
    parts <<= 32
    high *= (10**4 << 32) - 1
    parts -= high
    np.multiply(parts, 10486, out=high)  # 2|2 in 16-bit lanes
    high >>= 20
    high &= 0x0000007F0000007F
    parts <<= 16
    high *= (100 << 16) - 1
    parts -= high
    np.multiply(parts, 103, out=high)  # 1|1 in bytes
    high >>= 10
    high &= 0x000F000F000F000F
    parts <<= 8
    high *= (10 << 8) - 1
    parts -= high

    # digits kept less one: the parts' bytes up to the last nonzero digit, from the bit length of
    # the 128-bit number they make plus a half (exact in a double: no byte exceeds 9)
    kept = ((parts[1] * 2.0**64 + parts[0] + 0.5).view(np.uint64) >> 52) - (1022 - 7) >> 3
    parts += 0x3030303030303030
    digits[0] += 0x30 << 56
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
    code = ((values.view(np.uint64) >> 63) * (_X_MAX - _X_MIN + 1) + x) * _DIGITS + kept
    del d, x, kept  # a chunk's arrays are large: hold only those still read
    # the indices are in range by construction
    layout = np.take(_tables()[3], code.view(np.intp), axis=1, mode="clip")
    shift = layout[9]
    head = digits & layout[3:6]
    digits ^= head  # the digits after the point
    words = head >> shift
    words |= digits >> (shift - 8)
    # what each word takes from the next: the next head and rest, the rest one byte up
    digits[1:] <<= 8
    digits[1:] |= head[1:]
    words[:2] |= digits[1:] << (64 - shift)
    words &= layout[6:9]
    np.bitwise_or(words, layout[:3], out=out.view(_WORDS).T)
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        texts = ["%.17g" % v for v in values[fallback].tolist()]
        out[fallback] = np.array(texts, dtype=(bytes, WIDTH)).view(np.uint8).reshape(-1, WIDTH)
