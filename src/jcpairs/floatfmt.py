"""Exact ``'%.17g' % v`` for float64 arrays, a whole block at a time.

CSV tables print every float with 17 significant digits.  Formatting them
one value at a time costs about 0.7 us each; this module builds the same
bytes with integer array arithmetic:

1. A finite v = m 2^e (m the 53-bit significand) in the window
   2^-36 <= |v| < 2^53 gets a decimal exponent guess X = floor(log10 |v|)
   and k = 16 - X.
2. The 17 digits D = round(v 10^k) are computed exactly: the product
   8m 5^k (below 2^119) is formed from 32-bit limbs as two 64-bit words,
   then shifted right by 3 - e - k bits with round-half-even, the rounding
   of correctly rounded conversion (Gay 1990) behind ``%.17g``.
3. The guess is right when v 10^k >= 10^16 before rounding and D < 10^17
   after.  A log10 guess one too high next to a power of ten fails the
   first test, one too low the second, and the value takes the fallback.
   (Rounding to 17 digits never carries a double to the next power of
   ten: neighbouring doubles are at least 1.1e-16 apart relative to their
   size, half a unit of the 17th digit is at most 5e-17.)
4. The ``%g`` layout depends only on the sign, X and the number of digits
   left once trailing zeros are dropped.  One table indexed by those three
   holds each layout as byte positions, applied to all values by one gather
   into the rows of a NUL-padded byte matrix.

Zero takes the same path as D = 0 at X = 0.  Non-finite values, other
values outside the window and range check failures go through
``'%.17g' % v`` one at a time.
"""

from __future__ import annotations

import functools

import numpy as np

_E_MIN, _E_MAX = -88, 0  # exponents e of m 2^e, m in [2^52, 2^53), inside the window
_X_MIN, _X_MAX = -11, 15  # decimal exponents inside the window
_DIGITS = 17
# longest text: "-1.7976931348623157e+308" and "-2.2250738585072014e-308" (fallbacks);
# inside the window "-1.2345678901234567e-11" or "-0.00012345678901234567", 23
_WIDTH = 24
_LITERALS = "\0-.e+0123456789"  # NUL pads short texts to the row width
_ROWS = 1 + _DIGITS + len(_LITERALS)  # source rows: a leading "0", the digits, the literals
_CHUNK = 4096  # values per pass through the arithmetic, which bounds its arrays
_GATHER = 1024  # values per gather, which bounds its (values, _WIDTH) index array


@functools.cache
def _tables():
    """5^k in 32-bit limbs, 10^-6 ... 10^0 in float32, and the source rows of every layout.

    Layouts are indexed by (sign, X, number of digits kept).
    """
    pow5 = np.array([5**k for k in range(16 - _X_MAX, 17 - _X_MIN)], dtype=np.uint64)
    tenths = (10.0 ** -np.arange(6.0, -1.0, -1.0)).astype(np.float32)[:, None]
    literal = {c: 1 + _DIGITS + i for i, c in enumerate(_LITERALS)}
    layouts = np.full((2, _X_MAX - _X_MIN + 1, _DIGITS, _WIDTH), literal["\0"], dtype=np.intp)
    for neg in (0, 1):
        for x in range(_X_MIN, _X_MAX + 1):
            for kept in range(1, _DIGITS + 1):
                digits = list(range(1, kept + 1))  # source rows of the kept digits
                if x >= 0:  # %f style with 16 - X decimals, trailing zeros dropped
                    whole = list(range(1, x + 2))
                    text = whole + (["."] + digits[x + 1:] if kept > x + 1 else [])
                elif x >= -4:
                    text = ["0", "."] + ["0"] * (-x - 1) + digits
                else:  # %e style
                    text = digits[:1] + (["."] + digits[1:] if kept > 1 else []) + list("e%+03d" % x)
                text = ["-"] * neg + text
                layouts[neg, x - _X_MIN, kept - 1, :len(text)] = [literal.get(c, c) for c in text]
    return pow5 & 0xFFFFFFFF, pow5 >> 32, tenths, layouts.reshape(-1, _WIDTH)


def _decimal(values):
    """(D, X, ok): 17 correctly rounded digits and the exponent, where ``ok``."""
    pow5_lo, pow5_hi, _, _ = _tables()
    bits = values.view(np.uint64)
    e = (bits >> 52 & 0x7FF).astype(np.intp) - 1075
    ok = (e >= _E_MIN) & (e <= _E_MAX)
    # X in [-11, 15] inside the window, 0 outside
    x = np.floor(np.log10(np.where(ok, np.abs(values), 1.0))).astype(np.intp)

    # 8m 5^k = hi 2^64 + lo from the limbs of 8m (below 2^56) and 5^k (below 2^63)
    m_lo = ((bits & ((1 << 52) - 1)) | (1 << 52)) << 3
    m_hi = m_lo >> 32
    m_lo &= 0xFFFFFFFF
    p_lo, p_hi = pow5_lo[_X_MAX - x], pow5_hi[_X_MAX - x]
    lo = m_lo * p_lo
    mid = m_lo * p_hi
    mid += m_hi * p_lo
    mid += lo >> 32
    hi = m_hi * p_hi
    hi += mid >> 32
    lo &= 0xFFFFFFFF
    lo |= mid << 32
    del m_lo, m_hi, p_lo, p_hi, mid
    # t = floor(2 v 10^k): the shift 3 - e - k less one, in [1, 63] inside the window
    r = np.where(ok, x - e - 14, 1).astype(np.uint64)
    t = (lo >> r) | (hi << (64 - r))
    sticky = (lo & ((1 << r) - 1)) != 0
    d = t >> 1
    d += t & (sticky | d) & 1  # round half to even
    ok &= (t >= 2 * 10**16) & (d < 10**17)
    zero = values == 0.0  # written as the one digit "0" (X is 0 already)
    d[zero] = 0
    return d, x, ok | zero


def _digit_rows(d):
    """The source rows of each value, one column per value, and the digits kept.

    D is cut into three parts below 10^6, and each part h into its six
    digits floor(h / 10^j) - 10 floor(h / 10^(j+1)) at once; the quotients
    come from floor((h + 0.5) 10^-j) in float32, exact for every h < 10^6.
    The highest part is below 10^5, so row 0 holds a leading "0".
    """
    _, _, tenths, _ = _tables()
    n = d.size
    high = d // 10**12
    low = d - high * 10**12
    parts = np.empty((3, 1, n), dtype=np.float32)
    parts[0, 0] = high
    parts[1, 0] = middle = low // 10**6
    parts[2, 0] = low - middle * 10**6
    parts += 0.5
    quotients = parts * tenths
    np.floor(quotients, out=quotients)
    quotients[:, 1:] -= 10.0 * quotients[:, :-1]
    src = np.empty((_ROWS, n), dtype=np.uint8)
    src[:1 + _DIGITS].reshape(3, 6, n)[...] = quotients[:, 1:]
    src[:1 + _DIGITS] += ord("0")
    src[1 + _DIGITS:] = np.frombuffer(_LITERALS.encode(), dtype=np.uint8)[:, None]
    kept = np.full(n, _DIGITS)
    ends_in_zero = np.flatnonzero(src[_DIGITS] == ord("0"))
    zeros = np.argmax(src[_DIGITS:0:-1, ends_in_zero] != ord("0"), axis=0)
    kept[ends_in_zero] -= np.where(zeros == 0, _DIGITS - 1, zeros)  # D = 0 keeps one "0"
    return src, kept


def g17_bytes(values):
    """``'%.17g' % v`` of each value of a 1-D float64 array, as an (n, 24) uint8 matrix.

    Row i holds the ASCII text of ``values[i]`` padded with NUL bytes.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.empty((values.size, _WIDTH), dtype=np.uint8)
    for start in range(0, values.size, _CHUNK):
        _write_chunk(values[start:start + _CHUNK], out[start:start + _CHUNK])
    return out


def _write_chunk(values, out):
    """The rows of one chunk of ``g17_bytes``, written into ``out``."""
    n = values.size
    d, x, ok = _decimal(values)
    src, kept = _digit_rows(d)
    code = (np.signbit(values) * (_X_MAX - _X_MIN + 1) + x - _X_MIN) * _DIGITS + kept - 1
    layouts = _tables()[3] * n
    for start in range(0, n, _GATHER):
        index = layouts[code[start:start + _GATHER]]
        index += np.arange(start, min(n, start + _GATHER))[:, None]
        out[start:start + _GATHER] = src.ravel()[index]
    texts = ["%.17g" % v for v in values[~ok].tolist()]  # the fallback cells
    out[~ok] = np.array(texts, dtype=(bytes, _WIDTH)).view(np.uint8).reshape(-1, _WIDTH)
