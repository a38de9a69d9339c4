"""Exact ``'%.17g' % v`` for float64 arrays, a whole block at a time.

CSV tables print every float with 17 significant digits.  Formatting them
one value at a time costs about 0.55 us each on a 2-core Xeon; this
module builds the same bytes with array arithmetic, about 0.09 us per
value there in chunks of 4096 (the C and Q values of a closed sweep):

1. A finite v = m 2^e (m the 53-bit significand) in the window
   2^-128 <= |v| < 2^53, with |v| in [2^E, 2^(E+1)), has X = floor(log10 |v|)
   = g = floor(log10 2^E), or g + 1 once |v| reaches the double nearest
   10^(g+1): two tables over E.  Then k = 16 - X.
2. The 17 digits D = round(v 10^k), rounded half to even as in the
   correctly rounded conversion (Gay 1990) behind ``%.17g``, come from one
   double-double product (Dekker 1971).  10^k = H + L with H = fl(10^k)
   split into halves hh + hl of 26 bits and L = fl(10^k - H), which is 0
   up to k = 22; |v| = vh + vl, its top 26 significand bits and the other
   27.  Then p = fl(v H) and e = ((vh hh - p) + vh hl + vl hh) + vl hl
   give p + e = v H exactly (each product fits 53 bits, each partial sum
   is a multiple of 2^-77 times the powers of two below v and H, with
   fewer than 2^53 of them), and e takes v L.  From 10^16 up p is an even
   integer, so D = p + rint(e), added as 64-bit integers: rint's half to
   even is D's.  Up to k = 22 this is exact.  Past it (|v| < 1e-6) e is
   off by less than 5e-15, and a cell within 2^-40 of a half takes the
   fallback.  NaN, infinities and cells from 2^53 up compute on 2^53.
3. X is right when v 10^k >= 10^16 before rounding, tested as
   (p - 10^16) + e >= 0, and D < 10^17 after.  Where the double nearest a
   power of ten lies below it, that one double gets an X one too high,
   fails the first test and takes the fallback; no double puts v 10^k
   within 0.01 of 10^16 otherwise, so e's error past k = 22 never turns
   the test.  (Rounding to 17 digits never carries a double to the next
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
|v| < 2^-128 (zero excepted), |v| >= 2^53, at most one double next to
each power of ten and, below 1e-6, the cells within 2^-40 of a half (the
exact ties of v 10^k there, such as 3 2^-24 and 2^-25) go through
``'%.17g' % v``, one at a time; a chunk with none of them skips that
branch.

Every step writes its temporaries with ``out=`` into 14 word rows and 3
flag rows as long as the chunk (``_chunk_rows``, 470 KB at 4096 values),
kept in the calling thread's ``linalg.Workspace``: each chunk reuses the
rows of the last one, and only the cells of the fallback take arrays of
their own.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import thread_workspace

_B_MIN, _B_MAX = 895, 1075  # biased exponents of m 2^e, m in [2^52, 2^53), inside the window
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

    H = fl(10^k), its halves hh and hl and L = fl(10^k - H) as (4, 55)
    doubles, column X - X_MIN for k = 16 - X; over the biased exponent b,
    X - X_MIN at 2^(b - 1023) and the bits of the double nearest the next
    power of ten (39 and all ones outside the window: X is 0 there); and
    each (sign, X, digits kept) layout as a column of ten words: the fixed
    bytes, the masks of the digits before the point and of the text (3
    words each), and the bit shift of the first digit down to the text's
    start.
    """
    tens_k = [10**(16 - x) for x in range(_X_MIN, _X_MAX + 1)]
    h = np.array([float(p) for p in tens_k])  # correctly rounded
    split = h * (2.0**27 + 1)  # Veltkamp's split: H = hh + hl, each of at most 26 bits
    hh = split - (split - h)
    powers = np.array([h, hh, h - hh, [float(p - int(f)) for p, f in zip(tens_k, h.tolist())]])
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
    return powers, guess, tens, layouts.reshape(10, -1)


def _chunk_rows(n):
    """This thread's working rows for n values: (14, n) words and (3, n) flags.

    The three steps of a chunk share them.  ``_decimal`` leaves D in word
    row 0, X - X_MIN in row 1 and ``ok`` in flag row 0, and works in rows
    2-13, as doubles from row 4; ``_digit_words`` turns row 0 into the
    number of digits kept and writes the digit words to rows 2-4, working
    in rows 5-6; ``_write_chunk`` turns row 1 into the layout's column and
    works in rows 0 and 5-13.
    """
    work = thread_workspace()
    return work.get("format.words", (14, n), _WORDS), work.get("format.flags", (3, n), bool)


def _decimal(values):
    """(D, X - X_MIN, ok): 17 correctly rounded digits and the exponent, where ``ok``.

    The three are views of this thread's working rows (``_chunk_rows``).
    """
    powers, guess, tens = _tables()[:3]
    words, (ok, flag, exact) = _chunk_rows(values.size)
    d, x, b, tmp = words[:4]
    floats = words[4:14].view(np.float64)
    v, vh, vl, p, e, t, h, hh, hl, l = floats
    bits = v.view(np.uint64)
    np.bitwise_and(values.view(np.uint64), 0x7FFFFFFFFFFFFFFF, out=bits)  # |v|
    np.right_shift(bits, 52, out=b)
    np.take(guess, b.view(np.intp), out=x, mode="clip")  # indices below 2^11 read as signed
    np.take(tens, b.view(np.intp), out=tmp, mode="clip")
    x += np.greater_equal(bits, tmp, out=flag)
    b -= _B_MIN  # wraps below the window
    np.less_equal(b, _B_MAX - _B_MIN, out=ok)

    # p + e = |v| H exactly (Dekker), then e += |v| L; NaN, infinities and
    # cells from 2^53 up compute on 2^53
    np.fmin(v, 2.0**53, out=v)
    np.bitwise_and(bits, 0xFFFFFFFFF8000000, out=vh.view(np.uint64))
    np.subtract(v, vh, out=vl)
    np.take(powers, x.view(np.intp), axis=1, out=floats[6:], mode="clip")
    np.multiply(v, h, out=p)
    np.multiply(vh, hh, out=e)
    e -= p
    e += np.multiply(vh, hl, out=t)
    e += np.multiply(vl, hh, out=t)
    e += np.multiply(vl, hl, out=t)
    e += np.multiply(v, l, out=t)
    # v 10^k >= 10^16 as (p - 10^16) + e: p + (e - 10^16) would lose e
    np.subtract(p, 1e16, out=t)
    t += e
    ok &= np.greater_equal(t, 0.0, out=flag)
    # D = p + rint(e) as integers, unless L != 0 and e is within 2^-40 of a half
    np.rint(e, out=t)
    e -= t
    np.abs(e, out=e)
    np.less_equal(e, 0.5 - 2.0**-40, out=flag)
    flag |= np.equal(l, 0.0, out=exact)
    ok &= flag
    np.fmin(p, 2.0**62, out=p)  # no int64 overflow out of the window; still D >= 10^17 there
    np.copyto(d.view(np.int64), p, casting="unsafe")
    np.copyto(tmp.view(np.int64), t, casting="unsafe")
    d += tmp
    ok &= np.less(d, 10**17, out=flag)
    ok |= np.equal(values, 0.0, out=flag)  # D and X are 0 already: the one digit "0"
    return d, x, ok


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
