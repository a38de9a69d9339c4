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

Every step writes its temporaries with ``out=`` into 14 word rows and 3
flag rows as long as the chunk (``_chunk_rows``, 470 KB at 4096 values),
and the three-word product into 18 word rows as long as its cells, kept
in the calling thread's ``linalg.Workspace``: each chunk reuses the rows
of the last one, and only the cells of the fallback take arrays of their
own.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import thread_workspace

# biased exponents of m 2^e, m in [2^52, 2^53), inside the window; from
# _B_NARROW up, 5^k is below 2^63 and the product takes two words
_B_MIN, _B_NARROW, _B_MAX = 895, 987, 1075
_X_MIN, _X_MAX = -39, 15  # decimal exponents inside the window
_DIGITS = 17
# longest text: "-1.7976931348623157e+308" and "-2.2250738585072014e-308" (fallbacks);
# inside the window "-1.2345678901234567e-39" or "-0.00012345678901234567", 23
WIDTH = 24
_CHUNK = 4096  # values per pass through the arithmetic, which bounds its working rows
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


def _chunk_rows(n):
    """This thread's working rows for n values: (14, n) words and (3, n) flags.

    The three steps of a chunk share them.  ``_decimal`` leaves D in word
    row 0, X - X_MIN in row 1 and ``ok`` in flag row 0, and works in rows
    2-10; ``_digit_words`` turns row 0 into the number of digits kept and
    writes the digit words to rows 2-4, working in rows 5-6; ``_write_chunk``
    turns row 1 into the layout's column and works in rows 0 and 5-13.
    """
    work = thread_workspace()
    return work.get("format.words", (14, n), _WORDS), work.get("format.flags", (3, n), bool)


def _decimal(values):
    """(D, X - X_MIN, ok): 17 correctly rounded digits and the exponent, where ``ok``.

    The three are views of this thread's working rows (``_chunk_rows``).
    """
    limbs, guess, tens = _tables()[:3]
    words, (ok, flag, zero) = _chunk_rows(values.size)
    d, x, b, m_lo, m_hi, lo, hi, r, t, mid, tmp = words[:11]
    np.bitwise_and(values.view(np.uint64), 0x7FFFFFFFFFFFFFFF, out=m_lo)  # the magnitude's bits
    np.right_shift(m_lo, 52, out=b)
    np.take(guess, b.view(np.intp), out=x, mode="clip")  # indices below 2^11 read as signed
    np.take(tens, b.view(np.intp), out=tmp, mode="clip")
    x += np.greater_equal(m_lo, tmp, out=flag)
    np.subtract(b, _B_MIN, out=tmp)  # wraps below the window
    np.less_equal(tmp, _B_MAX - _B_MIN, out=ok)
    wide = np.flatnonzero(np.less(tmp, _B_NARROW - _B_MIN, out=flag))
    np.equal(m_lo, 0, out=zero)  # written as the one digit "0" (X is 0 already)

    # 8m 5^k = hi 2^64 + lo from the limbs of 8m (below 2^56) and 5^k (below
    # 2^63 in the narrow window; the wide cells are redone below)
    m_lo &= (1 << 52) - 1
    m_lo |= 1 << 52
    m_lo <<= 3
    np.right_shift(m_lo, 32, out=m_hi)
    m_lo &= 0xFFFFFFFF
    p_lo, p_hi = tmp, hi
    np.take(limbs[0], x.view(np.intp), out=p_lo, mode="clip")
    np.take(limbs[1], x.view(np.intp), out=p_hi, mode="clip")
    np.multiply(m_lo, p_lo, out=lo)
    np.multiply(m_lo, p_hi, out=mid)
    mid += np.multiply(m_hi, p_lo, out=tmp)
    mid += np.right_shift(lo, 32, out=tmp)
    hi *= m_hi  # p_hi's row
    hi += np.right_shift(mid, 32, out=tmp)
    lo &= 0xFFFFFFFF
    lo |= np.left_shift(mid, 32, out=mid)
    # t = floor(2 v 10^k): the shift 3 - e - k less one, in [1, 63] inside the
    # narrow window; other cells take any shift below 64
    np.add(x, 1075 + _X_MIN - 14, out=r)
    r -= b
    r &= 63
    np.right_shift(lo, r, out=t)
    sticky = np.not_equal(np.left_shift(t, r, out=tmp), lo, out=flag)
    hi <<= 1
    t |= np.left_shift(hi, np.subtract(63, r, out=tmp), out=hi)
    if wide.size:
        _wide_product(words[1:5], wide, t)  # the rows x, b, m_lo and m_hi
        sticky[wide] = True
    np.right_shift(t, 1, out=d)
    np.bitwise_or(sticky, d, out=tmp)
    tmp &= t
    tmp &= 1
    d += tmp  # round half to even
    ok &= np.greater_equal(t, 2 * 10**16, out=flag)
    ok &= np.less(d, 10**17, out=flag)
    d[zero] = 0
    ok |= zero
    return d, x, ok


def _wide_product(operands, wide, t):
    """floor(2 v 10^k) below the narrow window, where 2^-128 <= |v| < 2^-36, into ``t[wide]``.

    ``operands`` holds the chunk's rows x, b, m_lo and m_hi (``_decimal``)
    and ``wide`` the indices of its cells below the narrow window.  8m 5^k
    is summed from the 32-bit halves of the limb products into six 32-bit
    columns (each below 2^34 before the carries), which make three words,
    and shifted right by r = 3 - e - k - 1, in [63, 127] here.  The shift
    always drops nonzero bits: 2 v 10^k = m 5^k 2^(e + k + 1) with
    e + k + 1 <= -60 here, and m has at most 52 trailing zero bits.  The
    cells' operands, limb products and columns are 18 word rows of the
    thread's workspace, as long as ``wide`` (and 4 rows of its indices),
    and every operation reads and writes whole rows or same-shaped
    contiguous blocks of them: numpy buffers a broadcast or strided
    operand, which would allocate.
    """
    work = thread_workspace()
    rows = work.get("format.wide", (18, wide.size), _WORDS)
    index = work.get("format.wide_index", (4, wide.size), np.intp)
    x, b = rows[:2]
    m, p, a = rows[2:10], rows[10:14], rows[14:]  # m: m_lo, then m_hi, once per limb
    np.take(operands[:2], wide, axis=1, out=rows[:2], mode="clip")
    index[...] = wide
    np.take(operands[2], index, out=m[:4], mode="clip")
    np.take(operands[3], index, out=m[4:], mode="clip")
    np.take(_tables()[0], x.view(np.intp), axis=1, out=p, mode="clip")  # 5^k as (4, n) limbs
    np.multiply(p, m[:4], out=a)  # the limb products, 8m = m_hi 2^32 + m_lo
    p *= m[4:]
    cols, carry = m[:6], m[6]
    np.bitwise_and(a, 0xFFFFFFFF, out=cols[:4])
    cols[4:] = 0
    a >>= 32
    cols[1:5] += a
    cols[1:5] += np.bitwise_and(p, 0xFFFFFFFF, out=a)
    p >>= 32
    cols[2:] += p
    for i in range(1, 5):  # column 0 is a0's low half: it carries nothing
        cols[i + 1] += np.right_shift(cols[i], 32, out=carry)
    cols &= 0xFFFFFFFF  # the high column of each word is shifted up: its top bits drop anyway
    w0, w1, w2 = cols[0::2]
    for low_column, high_column in zip((w0, w1, w2), cols[1::2]):
        high_column <<= 32
        low_column |= high_column
    # floor(w 2^-r) for w = w0 + w1 2^64 + w2 2^128 is the OR of w0 >> r, w1 >> (r - 64),
    # w1 << (64 - r) and w2 << (128 - r): numpy shifts a uint64 by 64 or more (a
    # negative count wraps there) to 0, so for r in [63, 127] only the right ones remain
    shift = 1075 + _X_MIN - 14  # r = x - b + shift
    x -= b
    np.add(x, shift, out=carry)
    w0 >>= carry
    np.add(x, shift - 64, out=carry)
    np.right_shift(w1, carry, out=a[0])
    np.subtract(2**64 + 64 - shift, x, out=carry)
    w1 <<= carry
    w1 |= a[0]
    np.subtract(2**64 + 128 - shift, x, out=carry)
    w2 <<= carry
    w0 |= w1
    w0 |= w2
    t[wide] = w0


def _digit_words(d):
    """The 17 digits of each D as (3, n) words, digit j in byte 7 + j (not yet ASCII).

    Also returns the number of digits kept once trailing zeros are dropped,
    less one (none for D = 0, which is written as "0"), in the row of ``d``,
    which is overwritten.  ``d`` is a row of ``_chunk_rows``.
    """
    words = _chunk_rows(d.size)[0]
    digits, high = words[2:5], words[5:7]
    np.floor_divide(d, 10**16, out=digits[0])
    d -= np.multiply(digits[0], 10**16, out=high[0])
    digits[0] <<= 56
    parts = digits[1:]  # the eight-digit parts, each split into its bytes in place
    np.floor_divide(d, 10**8, out=parts[0])
    np.multiply(parts[0], 10**8, out=parts[1])
    np.subtract(d, parts[1], out=parts[1])
    # (p - q c) << s | q, the quotient q in the lower lane, as (p << s) - q (c << s - 1)
    np.floor_divide(parts, 10**4, out=high)  # 4|4 in 32-bit lanes
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
    kept, bits = d, d.view(np.float64)
    np.multiply(parts[1], 2.0**64, out=bits)
    bits += parts[0]
    bits += 0.5
    kept >>= 52
    kept -= 1022 - 7
    kept >>= 3
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
    d, code, ok = _decimal(values)
    digits, kept = _digit_words(d)
    words = _chunk_rows(values.size)[0]
    shift, head, text, rest = words[0], words[5:8], words[8:11], words[11:14]
    # the layout's column: code = (sign (X_MAX - X_MIN + 1) + X - X_MIN) DIGITS + kept, in X's row
    sign = np.right_shift(values.view(np.uint64), 63, out=head[0])
    sign *= _X_MAX - _X_MIN + 1
    code += sign
    code *= _DIGITS
    code += kept
    # the indices are in range by construction
    layouts = _tables()[3]
    np.take(layouts[9], code.view(np.intp), out=shift, mode="clip")
    np.take(layouts[3:6], code.view(np.intp), axis=1, out=head, mode="clip")
    head &= digits
    digits ^= head  # the digits after the point
    np.right_shift(head, shift, out=text)
    shift -= 8
    text |= np.right_shift(digits, shift, out=rest)
    # what each word takes from the next: the next head and rest, the rest one byte up
    digits[1:] <<= 8
    digits[1:] |= head[1:]
    np.subtract(56, shift, out=shift)  # 64 less the first shift
    text[:2] |= np.left_shift(digits[1:], shift, out=rest[:2])
    text &= np.take(layouts[6:9], code.view(np.intp), axis=1, out=rest, mode="clip")
    np.take(layouts[:3], code.view(np.intp), axis=1, out=rest, mode="clip")
    np.bitwise_or(text, rest, out=out.view(_WORDS).T)
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        texts = ["%.17g" % v for v in values[fallback].tolist()]
        out[fallback] = np.array(texts, dtype=(bytes, WIDTH)).view(np.uint8).reshape(-1, WIDTH)
