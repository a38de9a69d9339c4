import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jcpairs import floatfmt
from jcpairs.floatfmt import g17_bytes


def g17_texts(values):
    """The rows of ``g17_bytes(values)`` as strings; every row is its text padded with NULs."""
    matrix = g17_bytes(np.asarray(values, dtype=np.float64))
    assert matrix.dtype == np.uint8 and matrix.shape == (len(values), 24)
    texts = [bytes(row).rstrip(b"\0") for row in matrix]
    assert all(text and b"\0" not in text for text in texts)
    return [text.decode("ascii") for text in texts]


def percent_g(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_matches_percent_g(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert g17_texts(values) == percent_g(values)


def test_random_bit_patterns_and_magnitudes_match_percent_g():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**63, 50_000, dtype=np.int64).view(np.float64)
    window = 10.0 ** rng.uniform(-12.0, 17.0, 50_000) * rng.choice([-1.0, 1.0], 50_000)
    values = np.concatenate([bits, -bits, window])
    assert g17_texts(values) == percent_g(values)


def neighbours(values, steps=3):
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    below = above = values
    for _ in range(steps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return np.concatenate(out)


POWERS_OF_TEN = [10.0**k for k in range(-39, 18)] + [float(f"1e{k}") for k in range(-39, 18)]
# 2^-128 and 2^53: the window's edges (from 2^53 up |v| is clamped to 2^53);
# 2^-36 and 1e-11: 10^k takes two doubles (k = 27); 1e16: past the window
WINDOW_EDGES = [2.0**-128, 2.0**-36, 1e-11, 2.0**53, 1e16]
# engine round-off: max_engine_disagreement of `evolve --engine both` (the seed-7
# requests of the series_fock benchmark workload), and Q of `sweep --engine numeric
# --n-max 2`, down to below 2^-128
ROUND_OFF = [1.27675647831893e-15, 9.992007221626409e-16, 7.771561172376096e-16,
             3.885780586188048e-16, 3.3306690738754696e-16, 1.1102230246251565e-16,
             5.551115123125783e-17, 4.85722573273506e-17, 2.7755575615628914e-17,
             6.938893903907228e-18, 2.6020852139652106e-18, 1.8499726619353174e-07,
             1.9614571317161378e-07,
             1.2670831586176785e-16, 3.251767952832688e-17, -1.2695642234004198e-17,
             2.522339265897118e-18, 6.223285321735371e-19, 9.893413495002278e-20,
             2.305341291830463e-21, 1.0088518305439551e-32, -1.4332519332200014e-32,
             9.124189360775755e-33, -4.9910463441098364e-33, 1.5896710394689615e-34,
             -5.730873466755556e-34, 5.34768819701012e-35, -2.0236679770553156e-35,
             2.676377246973698e-48, 2.5203767589618603e-49, 2.004461047512906e-50,
             6.754971240366041e-51]
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("batch", [
    neighbours(POWERS_OF_TEN),  # log10 guesses one off next to every power of ten
    neighbours(WINDOW_EDGES),
    SPECIALS,
    ROUND_OFF,
    # exact values with 18 significant digits ending in 5: ties at the 17th
    [1000000000000000.25, 1000000000000000.75, 1234567890123456.5, 1234567890123457.5,
     2.0**-25, 3.0 * 2.0**-25, 2.0**-25 * 1001.0, 0.5 + 2.0**-53],
])
def test_pinned_values_match_percent_g(batch):
    values = np.concatenate([np.asarray(batch, dtype=np.float64)] * 2)
    values[len(values) // 2:] *= -1.0
    with np.errstate(all="raise"):  # no input underflows or overflows the arithmetic
        texts = g17_texts(values)
    assert texts == percent_g(values)


@pytest.mark.parametrize("bias", [-1e-12, 1e-12])
def test_wrong_exponent_guesses_fall_back(monkeypatch, bias):
    # thresholds moved off the powers of ten make X one too high (or too
    # low) for values within about 1e-12 of a power of ten; the range checks
    # must catch them
    powers, guess, tens, layouts = floatfmt._tables()
    inside = tens != np.uint64(2**64 - 1)
    moved = tens.copy()
    moved[inside] = (tens[inside].view(np.float64) * (1.0 + bias)).view(np.uint64)
    monkeypatch.setattr(floatfmt, "_tables", lambda: (powers, guess, moved, layouts))
    values = neighbours(POWERS_OF_TEN, steps=50)
    assert not floatfmt._decimal(values)[2].all()  # some guesses are wrong
    assert g17_texts(values) == percent_g(values)


def reference_layouts():
    """The layout table built one layout at a time from its text, as (10, layouts) words."""
    columns = []
    for neg, x, kept in itertools.product((0, 1), range(-39, 16), range(1, 18)):
        if x >= 0:  # %f style with 16 - X decimals, trailing zeros dropped
            prefix, head = b"", x + 1
        elif x >= -4:
            prefix, head = b"0." + b"0" * (-x - 1), 17
        else:  # %e style
            prefix, head = b"", 1
        prefix = b"-" * neg + prefix
        fixed = bytearray(prefix.ljust(24, b"\0"))
        length = len(prefix) + (head if x >= 0 else min(kept, head))
        if kept > head:  # the point, then the kept digits after the head
            fixed[length] = ord(".")
            length += 1 + kept - head
        if x < -4:
            fixed[length:length + 4] = b"e%+03d" % x
        # digit j of the digit words is in byte 7 + j; the head moves down to the prefix's end
        head_mask = (b"\0" * 7 + b"\xff" * head).ljust(24, b"\0")
        length_mask = (b"\xff" * length).ljust(24, b"\0")
        shift = (8 * (7 - len(prefix))).to_bytes(8, "little")
        columns.append(np.frombuffer(bytes(fixed) + head_mask + length_mask + shift, dtype="<u8"))
    return np.array(columns).T


def test_layout_table_matches_a_loop_reference():
    assert np.array_equal(floatfmt._tables()[3], reference_layouts())


def test_exponent_tables_give_floor_log10_exactly():
    # inside the window X is g = floor(log10 2^E) on [2^E, 2^(E+1)), or g + 1
    # from the double nearest 10^(g+1); outside it, X is 0
    _, guess, tens, _ = floatfmt._tables()
    for b in range(2048):
        e = b - 1023
        if not 895 <= b <= 1075:
            assert (guess[b], tens[b]) == (39, 2**64 - 1)
            continue
        g = int(guess[b]) - 39
        assert Fraction(10) ** g <= Fraction(2) ** e < Fraction(10) ** (g + 1)
        assert tens[b] == np.float64(float(f"1e{g + 1}")).view(np.uint64)


def test_importing_the_cli_builds_no_table():
    src = str(Path(floatfmt.__file__).resolve().parents[1])
    code = "import jcpairs.cli, jcpairs.floatfmt as f; print(f._tables.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "0\n"


def test_window_values_take_no_fallback():
    # 2^-128 <= |v| < 2^53 is formatted by the arithmetic, past k = 22 too: a
    # random value is never within 2^-40 of a half there
    rng = np.random.default_rng(7)
    values = 2.0 ** rng.uniform(-128.0, 53.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)
    in_window = [v for v in ROUND_OFF if abs(v) >= 2.0**-128]
    values = np.concatenate([values, in_window, [2.0**-128, np.nextafter(2.0**53, 0.0), 0.0]])
    assert floatfmt._decimal(values)[2].all()
    assert g17_texts(values) == percent_g(values)


def test_power_table_is_ten_to_the_k_as_two_doubles():
    # H = fl(10^k), L = fl(10^k - H), 0 up to k = 22; H = hh + hl, halves of 26 bits
    powers = floatfmt._tables()[0]
    assert powers.shape == (4, 55)
    for column, (h, hh, hl, low) in enumerate(powers.T.tolist()):
        k = 16 - (column - 39)
        assert h == float(10**k) and low == float(10**k - Fraction(h))
        assert (low == 0.0) == (k <= 22)
        assert Fraction(hh) + Fraction(hl) == Fraction(h)
        for half in (hh, hl):
            n = abs(Fraction(half).numerator)
            assert n == 0 or (n // (n & -n)).bit_length() <= 26


def test_exact_ties_past_k_22_take_the_fallback():
    # v 10^k is exactly an integer and a half: past k = 22 the product is not
    # exact, so these cells must not be rounded by it
    ties = np.array([c * 2.0**-24 for c in range(3, 16, 2)] + [2.0**-25, 3.0 * 2.0**-25])
    values = np.concatenate([ties, -ties])
    assert not floatfmt._decimal(values)[2].any()
    assert g17_texts(values) == percent_g(values)


def test_ties_round_half_to_even():
    texts = g17_texts(np.array([1000000000000000.25, 1000000000000000.75, 2.0**-25]))
    assert texts == ["1000000000000000.2", "1000000000000000.8", "2.9802322387695312e-08"]


def test_layouts_of_every_exponent_and_digit_count():
    # %f style from 1e-4 to below 1e16, %e style below 1e-4; trailing zeros dropped
    values = np.array([d * 10.0**x for x in range(-39, 16) for d in (1.0, 1.5, 1.25, 1.2345678901234567)])
    assert g17_texts(values) == percent_g(values)
    assert g17_texts(np.array([1e-5, 1.5e-4, 1000.0, -0.25])) == ["1.0000000000000001e-05",
                                                                 "0.00014999999999999999",
                                                                 "1000", "-0.25"]


def test_longest_fallback_texts_fill_the_row():
    # the two 24-character '%.17g' texts, both outside the arithmetic's window
    values = [-1.7976931348623157e308, -2.2250738585072014e-308]
    assert g17_texts(values) == ["-1.7976931348623157e+308", "-2.2250738585072014e-308"]
    assert np.all(g17_bytes(np.array(values)) != 0)
