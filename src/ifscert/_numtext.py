"""Exact numpy kernels for the two number formats the writers emit.

``text_chunks(pattern, rows, sep)`` yields the text of
``sep.join(pattern % tuple(row) for row in rows)`` a chunk of rows at a
time, where ``pattern`` holds one ``%.17g`` (model files) or one ``%.2f``
(SVG coordinates) conversion per column and nothing else that ``%`` reads.
Every byte equals Python's ``%``: a kernel decides each digit from the
exact value of the double, never from a rounded product, and a chunk that
holds a value outside a kernel's fast range is formatted by the ``%``
expression itself. The fast ranges:

- ``%.17g``: ±0 and finite values whose decimal exponent lies in -11..16
  (1e-11 <= |v| < 1e17);
- ``%.2f``: finite values with |v| < 1e15, subnormals included.

Both kernels split a double through ``np.frexp`` into ``|v| = M·2^(E-53)``
with an integer ``M < 2^53``. A kernel turns the scaled value into an
integer ``q`` (its floor) and a remainder, both exact, and rounds half to
even from the remainder, as C's correctly rounded conversion does. The
digits of the rounded integer come from a table of 4-digit groups, and a
per-value layout row picks which digit or literal character fills each
column of the value's text. The rows of a chunk are then packed into one
ASCII buffer by a boolean mask over fixed-width columns.
"""

from __future__ import annotations

import numpy as np

# values a kernel formats at once; bounds the temporaries to a few MB
_BLOCK_VALUES = 1 << 14
# _QUADS[i] is the four ASCII digits of i, zero-padded
_QUADS = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)
_E16, _E17 = np.uint64(10 ** 16), np.uint64(10 ** 17)
_QUADS32 = _QUADS.view(np.uint32).ravel()
# the same words with leading zeros as NUL bytes; _ONES keeps a lone 0
_QUADS32_BARE = np.where(np.arange(10_000)[:, None] >= np.array([1000, 100, 10, 1]), _QUADS, 0).astype(np.uint8).view(np.uint32).ravel()
_QUADS32_ONES = _QUADS32_BARE.copy()
_QUADS32_ONES[0] = np.frombuffer(b"\0\0\0" + b"0", dtype=np.uint32)[0]
_SIGN32 = np.frombuffer(b"\0\0\0\0\0\0\0-", dtype=np.uint32)
# ".ff" and a NUL byte, by the two digits ff
_CENTS32 = np.frombuffer(b"".join(b".%02d\0" % i for i in range(100)), dtype=np.uint32)
_LO32 = np.uint64(0xFFFFFFFF)
# by shift r: the r low bits, and the half-way point 2^(r-1) (1 for r = 0)
_LOW_BITS = np.array([(1 << r) - 1 for r in range(64)], dtype=np.uint64)
_HALF = np.array([max(1, 1 << r >> 1) for r in range(64)], dtype=np.uint64)
# trailing zeros of a 4-digit group, 4 for 0000
_TZ4 = sum((np.arange(10_000) % 10 ** k == 0).astype(np.intp) for k in range(1, 5))
_ONE = np.uint64(1)

_G_XMIN, _G_XMAX = -11, 16  # decimal exponents of the %.17g fast range
_F_MAX = 1e15  # exactly 10**15; |v| below it is the %.2f fast range


def _split(a: np.ndarray):
    """``M`` (uint64, below 2^53) and ``E`` with ``a == M·2^(E-53)`` exactly."""
    m, e = np.frexp(a)
    return (m * 2.0 ** 53).astype(np.uint64), e.astype(np.int64)


def _shift_round(hi, lo, s):
    """The floor of ``(hi·2^64 + lo) / 2^s``, whether to round it up (half
    to even), and whether that floor is exact.

    The floor is exact where ``s <= 63`` and it fits in 64 bits; the callers'
    shifts are at least -63. For ``s <= 0`` the value is an integer, the
    remainder is 0 and the half-way point reads 1, so it never rounds up.
    """
    right = np.clip(s, 0, 63).astype(np.uint64)
    left = np.clip(-s, 0, 63).astype(np.uint64)
    # a shift by 64 - r is split in two, so that no shift reaches 64
    q = ((lo >> right) | ((hi << (np.uint64(63) - right)) << _ONE)) << left
    fits = ((hi >> right) == 0) & (((lo >> (np.uint64(63) - left)) >> _ONE) == 0) & (s <= 63)
    rem = lo & np.take(_LOW_BITS, right)
    return q, (rem + (q & _ONE)) > np.take(_HALF, right), fits


def _scaled17(M, E, x):
    """``|v|·10^(16-x)`` for ``|v| = M·2^(E-53)``: floor, round-up flag, exact flag.

    ``10^k = 5^k·2^k``, so the value is ``M·5^k`` shifted right by
    ``53 - E - k``. ``M·5^k`` is below 2^53·5^27 < 2^116 and is formed
    exactly in two 64-bit limbs from 32-bit halves: ``M`` has 21 + 32 bits,
    ``5^k`` at most 31 + 32, so no partial product or sum overflows.
    """
    k = 16 - x
    p = np.take(_POW5, k)
    mh, ml = M >> np.uint64(32), M & _LO32
    ph, pl = p >> np.uint64(32), p & _LO32
    t0 = ml * pl
    t1 = ml * ph + mh * pl
    lo = t0 + (t1 << np.uint64(32))
    hi = mh * ph + (t1 >> np.uint64(32)) + (lo < t0).astype(np.uint64)
    return _shift_round(hi, lo, 53 - E - k)


def _groups(n: np.ndarray, groups: int) -> np.ndarray:
    """Each ``n < 10^(4·groups)`` as ``groups`` base-10^4 digits, most significant first."""
    out = np.empty((len(n), groups), dtype=np.intp)
    for g in range(groups - 1, 0, -1):
        head = n // np.uint64(10_000)
        out[:, g] = n - head * np.uint64(10_000)
        n = head
    out[:, 0] = n
    return out


# %.17g text columns; every value is written into all of them and a mask
# turns the ones its layout does not use into NUL bytes, which are dropped
# when the rows are packed:
#   0 sign | 1-5 "0.000" of 0.000ddd | 7-23 digits A | 24 point
#   | 27-43 digits B | 44-47 "e-XX"
# Fixed notation keeps A for the integer digits (x >= 0) or all digits
# (x < 0), and B for the fraction; exponent notation keeps A's first digit
# and B's others. A and B start their last 16 digits on 4-byte boundaries.
_G_WIDTH, _G_A, _G_B = 48, 7, 27
_G_TEMPLATE = np.frombuffer(b"-0.000 " + b"0" * 17 + b".  " + b"0" * 17 + b"e-00", dtype=np.uint8)


def _g17_keep() -> np.ndarray:
    """The byte mask (0xFF keeps a column) of every ``%.17g`` layout, as
    uint64 words, by key ``(neg·28 + x + 11)·17 + nd - 1``.

    ``x`` is the decimal exponent, ``nd`` the digit count left after
    trailing zeros are stripped. Fixed notation for -4 <= x <= 16, else
    ``d.ddde-XX`` (in the fast range those exponents are negative, of two
    digits).
    """
    neg = np.arange(2)[:, None, None, None]
    x = np.arange(_G_XMIN, _G_XMAX + 1)[None, :, None, None]
    nd = np.arange(1, 18)[None, None, :, None]
    col = np.arange(_G_WIDTH)[None, None, None, :]
    small = (x < 0) & (x >= -4)
    expo = x < -4
    i_a, i_b = col - _G_A, col - _G_B
    keep = np.broadcast_to((col == 0) & (neg == 1), (2, 28, 17, _G_WIDTH)).copy()
    keep |= small & ((col == 1) | (col == 2) | ((col >= 3) & (col < 3 + (-x - 1))))
    keep |= (i_a >= 0) & (i_a < 17) & np.where(x >= 0, i_a <= x, np.where(small, i_a < nd, i_a == 0))
    keep |= (col == 24) & np.where(x >= 0, nd > x + 1, expo & (nd > 1))
    keep |= (i_b >= 0) & (i_b < 17) & (i_b < nd) & np.where(x >= 0, i_b > x, expo & (i_b >= 1))
    keep |= (col >= 44) & expo
    return (keep.reshape(-1, _G_WIDTH) * np.uint8(0xFF)).view(np.uint64)


_G17_KEEP = _g17_keep()


def g17(v: np.ndarray):
    """``'%.17g' % x`` for each ``x`` of ``v``, as ``(chars, ok)``.

    Row i of ``chars``, with its NUL bytes dropped, is the text of ``v[i]``
    wherever ``ok[i]``; the other values lie outside the fast range and
    must be formatted another way.

    Exactness. ``x0 = floor(log10|v|)`` is only an estimate (clipped to the
    fast range). With ``k = 16 - x0``, ``_scaled17`` gives the exact floor
    ``q`` of ``|v|·10^k``; since ``10^16`` and ``10^17`` are integers,
    ``10^16 <= q < 10^17`` holds iff ``10^x0 <= |v| < 10^(x0+1)``, that is
    iff ``x0`` is the true exponent. Where ``q`` falls below or above, the
    exponent moves by one and the digits are computed again from ``M``;
    a value whose ``q`` still misses, or whose exponent leaves the fast
    range, is not ``ok``. ``q`` plus the half-to-even flag is the correctly
    rounded 17-digit significand; if it carries to ``10^17`` the digits
    become ``10^16`` and the exponent grows by one, as in ``%e``. ``%g``
    then prints fixed notation for exponents -4..16 and strips trailing
    zeros and a bare point; the sign comes from the sign bit, so ``-0.0``
    gives ``-0``.
    """
    a = np.abs(v)
    zero = a == 0
    # NaN and the infinities fail this; it keeps every shift above -32
    ok = a < 2.0 ** 57
    M, E = _split(np.where(ok, a, 1.0))
    x = np.clip(np.floor(np.log10(np.where(ok & ~zero, a, 1.0))), _G_XMIN, _G_XMAX).astype(np.int64)
    q, up, exact = _scaled17(M, E, x)
    miss = ~zero & ((q < _E16) | (q >= _E17))
    if miss.any():
        idx = np.flatnonzero(miss)
        x2 = x[idx] + np.where(q[idx] < _E16, -1, 1)
        inside = (x2 >= _G_XMIN) & (x2 <= _G_XMAX)
        x2 = np.clip(x2, _G_XMIN, _G_XMAX)
        q[idx], up[idx], exact[idx] = _scaled17(M[idx], E[idx], x2)
        exact[idx] &= inside
        x[idx] = x2
    ok &= zero | (exact & (q >= _E16) & (q < _E17))
    d = q + up
    carry = d == _E17
    d[carry] = _E16
    x += carry
    ok &= x <= _G_XMAX
    d[zero] = 0
    x[zero] = 0
    chars = np.empty((len(v), _G_WIDTH), dtype=np.uint8)
    chars.view(np.uint64)[:] = _G_TEMPLATE.view(np.uint64)
    lead = d // _E16
    g = _groups(d - lead * _E16, 4)
    chars[:, _G_A] = lead.astype(np.uint8) + ord("0")
    words = chars.view(np.uint32)
    words[:, (_G_A + 1) // 4:(_G_A + 17) // 4] = np.take(_QUADS32, g)
    expo = x < -4
    if (expo | (x >= 0)).any():  # B is only read by these layouts
        chars[:, _G_B:_G_B + 17] = chars[:, _G_A:_G_A + 17]
    if expo.any():
        chars[:, 46] = (-x) // 10 + ord("0")
        chars[:, 47] = (-x) % 10 + ord("0")
    tz = np.take(_TZ4, g[:, 3])
    low = np.flatnonzero(g[:, 3] == 0)  # trailing zeros past the last group
    if len(low):
        t = np.take(_TZ4, g[low])
        tz[low] += t[:, 2] + (g[low, 2] == 0) * (t[:, 1] + (g[low, 1] == 0) * t[:, 0])
    nd = np.where(zero, 1, 17 - tz)
    key = np.where(ok, (np.signbit(v) * 28 + np.clip(x, _G_XMIN, _G_XMAX) - _G_XMIN) * 17 + nd - 1, 0)
    chars.view(np.uint64)[:] &= np.take(_G17_KEEP, key, axis=0)
    return chars, ok


def f2(v: np.ndarray):
    """``'%.2f' % x`` for each ``x`` of ``v``, as ``(chars, ok)`` like ``g17``.

    Exactness. ``100·|v| = 100·M·2^(E-53)`` and ``100·M < 2^60`` is exact
    in uint64. Below 10^15 < 2^50, ``E <= 50``, so the shift ``53 - E`` is
    at least 3; a shift past 63 leaves a value below 1/16, which rounds to
    0 as the shift clipped to 63 does. The floor and the half-to-even flag
    come from the shifted-out bits as in ``g17``. The text is the integer
    part without leading zeros (at least one digit), ``.``, and the last
    two digits; the sign bit adds ``-``, so ``-0.001`` gives ``-0.00``.

    Each value is a row of 4-byte words: the sign, the integer part's
    4-digit groups (leading zeros as NUL bytes) and ``.ff``.
    """
    a = np.abs(v)
    ok = a < _F_MAX
    M, E = _split(np.where(ok, a, 0.0))
    q, up, _ = _shift_round(np.zeros_like(M), M * np.uint64(100), np.minimum(53 - E, 63))
    r = q + up
    whole = r // np.uint64(100)
    groups = _groups(whole, max(1, -(-len(str(int(whole.max(initial=0)))) // 4)))
    words = np.empty((len(v), groups.shape[1] + 2), dtype=np.uint32)
    words[:, 0] = np.take(_SIGN32, np.signbit(v).view(np.uint8))
    leading = np.ones(len(v), dtype=bool)  # every group so far is 0
    last = groups.shape[1] - 1
    for j in range(groups.shape[1]):
        g = groups[:, j]
        bare = _QUADS32_ONES if j == last else _QUADS32_BARE
        words[:, 1 + j] = np.where(leading, np.take(bare, g), np.take(_QUADS32, g))
        leading &= g == 0
    words[:, -1] = np.take(_CENTS32, (r - whole * np.uint64(100)).astype(np.intp))
    return words.view(np.uint8), ok


def _pack(fields, literals: list[bytes], sep: bytes) -> str | None:
    """One row per value tuple, ``literals[0] field0 literals[1] ... literals[d]``,
    the rows joined by ``sep``; None if a value is not ``ok``."""
    if not all(ok.all() for _, ok in fields):
        return None
    n = len(fields[0][0])
    literals = literals[:-1] + [literals[-1] + sep]
    blocks = []
    for j, lit in enumerate(literals):
        if lit:
            blocks.append(np.broadcast_to(np.frombuffer(lit, dtype=np.uint8), (n, len(lit))))
        if j < len(fields):
            blocks.append(fields[j][0])
    rows = np.concatenate(blocks, axis=1)
    rows[-1, rows.shape[1] - len(sep):] = 0
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def text_chunks(pattern: str, rows: np.ndarray, sep: str):
    """Yield ``sep.join(pattern % tuple(row) for row in rows)`` in pieces of
    at most ``_BLOCK_VALUES`` values (and at least one row).

    The pieces, joined with ``sep``, give the whole text. ``pattern`` holds
    one conversion per column of ``rows``, all ``%.17g`` or all ``%.2f``.
    A piece with a value outside the kernel's fast range is formatted by
    the ``%`` expression, so every byte is Python's.
    """
    conv, kernel = ("%.17g", g17) if "%.17g" in pattern else ("%.2f", f2)
    literals = [part.encode("ascii") for part in pattern.split(conv)]
    step = max(1, _BLOCK_VALUES // max(1, rows.shape[1]))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        text = _pack([kernel(block[:, j]) for j in range(block.shape[1])], literals, sep.encode("ascii"))
        yield sep.join([pattern] * len(block)) % tuple(block.ravel().tolist()) if text is None else text
