"""The number-formatting kernels of ``ifscert._numtext`` against Python's ``%``.

Each kernel must give Python's bytes wherever it claims a value (``ok``),
must claim every value of its documented fast range, and ``text_chunks``
must give Python's bytes for any input, falling back to ``%`` outside the
range. The cases: random 64-bit patterns (every exponent), patterns inside
the fast range, ±0, subnormals, NaN and ±inf, powers of ten and their
neighbours up to 4 ulps, powers of two (exact 17-digit ties) and ``%.2f``
ties.
"""

from decimal import Decimal
from unittest import mock

import numpy as np
import pytest

from ifscert import _numtext

KERNELS = {"%.17g": _numtext.g17, "%.2f": _numtext.f2}


def _rows(conv, values):
    """The kernel's text of each value, and its ``ok`` flags."""
    chars, ok = KERNELS[conv](np.asarray(values, dtype=float))
    return [bytes(row[row != 0]).decode("ascii") for row in chars], ok


def _python(conv, values, sep="\n"):
    values = np.asarray(values, dtype=float)
    return sep.join([conv] * len(values)) % tuple(values.tolist())


def _text(conv, values, sep="\n", block=4096):
    """``text_chunks`` of the values as one column, ``block`` values a block."""
    values = np.asarray(values, dtype=float)
    with mock.patch.object(_numtext, "_BLOCK_VALUES", block):
        return sep.join(_numtext.text_chunks(conv, values[:, None], sep))


def _same(got: str, want: str):
    """``got == want``, reporting the first line that differs (a diff of
    megabytes of text would take minutes)."""
    if got != want:
        pairs = zip(got.split("\n"), want.split("\n"))
        raise AssertionError(next(((g, w) for g, w in pairs if g != w), (len(got), len(want))))


def _in_fast_range(conv, values):
    """The fast range, decided exactly: ``Decimal(v)`` is the double's value."""
    def inside(v):
        if conv == "%.2f":
            return abs(v) < 10 ** 15
        return v == 0 or (np.isfinite(v) and -11 <= Decimal(v).adjusted() <= 16)
    return np.array([inside(v) for v in np.asarray(values, dtype=float).tolist()])


def _neighbours(centres, ulps=4):
    """Each centre and the doubles up to ``ulps`` steps either side, both signs."""
    out = []
    for c in centres:
        up = down = float(c)
        out.append(up)
        for _ in range(ulps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    out = np.array(out)
    return np.concatenate([out, -out])


@pytest.mark.parametrize("conv", KERNELS)
def test_random_bit_patterns_match_python(conv):
    rng = np.random.default_rng(20261018)
    values = rng.integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64).view(np.float64)
    _, ok = KERNELS[conv](values)
    # every exponent is drawn, so most chunks fall back; the claimed values
    # go through the kernel alone (a slice suffices for the fallback, whose
    # %.2f texts run to 300 digits)
    _same(_text(conv, values[ok]), _python(conv, values[ok]))
    _same(_text(conv, values[:20_000], block=64), _python(conv, values[:20_000]))
    if conv == "%.2f":
        assert np.array_equal(ok, np.abs(values) < 1e15)
    else:
        a = np.abs(values)
        assert ok[(a >= 1.001e-11) & (a < 9.99e16)].all()
        assert not ok[~(a == 0) & ~((a >= 0.999e-11) & (a < 1e17))].any()


@pytest.mark.parametrize("conv", KERNELS)
def test_random_values_in_the_fast_range_match_python(conv):
    rng = np.random.default_rng(7)
    n = 300_000
    lo, hi = (-37, 57) if conv == "%.17g" else (-1074, 49)
    mantissa = rng.integers(2 ** 52, 2 ** 53, size=n, dtype=np.int64).astype(float)
    values = np.ldexp(mantissa, rng.integers(lo - 52, hi - 52, size=n)) * rng.choice([-1.0, 1.0], n)
    values = values[_in_fast_range(conv, values)] if conv == "%.17g" else values[np.abs(values) < 1e15]
    _, ok = KERNELS[conv](values)
    assert ok.all()
    _same(_text(conv, values), _python(conv, values))


@pytest.mark.parametrize("conv", KERNELS)
def test_specials_match_python(conv):
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                np.nan, -np.nan, np.inf, -np.inf, 1e308, -1.7976931348623157e308]
    texts, ok = _rows(conv, specials)
    for v, text, claimed in zip(specials, texts, ok):
        if claimed:
            assert text == conv % v
    assert not ok[6:10].any()  # NaN and the infinities are never claimed
    assert ok[:2].all()  # nor is either zero refused
    for v in specials:  # one value a chunk: each one alone falls back or not
        _same(_text(conv, [v]), conv % v)
    _same(_text(conv, specials, block=3), _python(conv, specials))


def test_powers_of_ten_and_their_neighbours_g17():
    # both edges of the fast range and one decade past each
    values = _neighbours([10.0 ** k for k in range(-13, 19)])
    texts, ok = _rows("%.17g", values)
    assert [t for t, o in zip(texts, ok) if o] == ["%.17g" % v for v, o in zip(values.tolist(), ok) if o]
    assert np.array_equal(ok, _in_fast_range("%.17g", values))
    _same(_text("%.17g", values), _python("%.17g", values))


def test_powers_of_ten_and_their_neighbours_f2():
    values = _neighbours([10.0 ** k for k in range(-4, 17)] + [0.005, 0.015, 0.025])
    texts, ok = _rows("%.2f", values)
    assert [t for t, o in zip(texts, ok) if o] == ["%.2f" % v for v, o in zip(values.tolist(), ok) if o]
    assert np.array_equal(ok, np.abs(values) < 1e15)
    _same(_text("%.2f", values), _python("%.2f", values))


@pytest.mark.parametrize("conv", KERNELS)
def test_powers_of_two_match_python(conv):
    # 2^k has at most 17 significant digits followed by a 5 for many k: exact ties
    values = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([values, -values, values[:-2] * 3, values * 0.75])
    _same(_text(conv, values, block=97), _python(conv, values))
    texts, ok = _rows(conv, values)
    assert [t for t, o in zip(texts, ok) if o] == [conv % v for v, o in zip(values.tolist(), ok) if o]


def test_named_cases():
    g17 = dict(zip([2.0 ** -25, 0.5, -0.0, 0.0, 1e16, 1e-5, 1e-4, 123.456],
                   _rows("%.17g", [2.0 ** -25, 0.5, -0.0, 0.0, 1e16, 1e-5, 1e-4, 123.456])[0]))
    assert g17[2.0 ** -25] == "2.9802322387695312e-08"
    assert g17[0.5] == "0.5"
    assert g17[1e16] == "10000000000000000"
    assert g17[1e-5] == "1.0000000000000001e-05"
    assert g17[1e-4] == "0.0001"
    assert _rows("%.17g", [-0.0])[0] == ["-0"]
    texts, ok = _rows("%.2f", [0.125, 0.375, -0.001, -0.0, 2.675, 1e14 + 0.125])
    assert ok.all()
    assert texts == ["0.12", "0.38", "-0.00", "-0.00", "2.67", "100000000000000.12"]


def test_text_chunks_layouts_and_fallback():
    rows = np.array([[0.5, -2.0 ** -30], [1e-5, 123.0], [np.nan, 1.0], [0.0, -0.0]])
    pattern = "%.17g %.17g\n"
    # blocks of 1 to 4 rows; a block smaller than a row still takes one row
    for block in (1, 4, 6, 8):
        with mock.patch.object(_numtext, "_BLOCK_VALUES", block):
            got = "".join(_numtext.text_chunks(pattern, rows, ""))
        assert got == (pattern * len(rows)) % tuple(rows.ravel().tolist())
    pts = np.array([[10.004, 0.005], [-3.0, 999.995], [1e20, 2.0], [0.0, -0.0]])
    for block in (2, 6, 8):
        with mock.patch.object(_numtext, "_BLOCK_VALUES", block):
            got = " ".join(_numtext.text_chunks("M%.2f,%.2f h0", pts, " "))
        assert got == " ".join(["M%.2f,%.2f h0"] * len(pts)) % tuple(pts.ravel().tolist())
    assert list(_numtext.text_chunks(pattern, np.empty((0, 2)), "")) == []
