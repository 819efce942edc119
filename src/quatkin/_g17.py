"""Render float64 rows as ``%.17g`` CSV text with vectorised integer arithmetic.

``render_rows(block)`` returns exactly the bytes of
``(row_fmt * n) % tuple(block.ravel().tolist())`` with
``row_fmt = ",".join(["%.17g"] * ncols) + "\\n"``, i.e. CPython's correctly
rounded (round-half-even) 17-significant-digit text, without a per-value
dtoa call.

How a value ``x = M·2^E`` (53-bit ``M``) with decimal exponent ``X`` becomes
its 17 digits: ``D = round(x·10^s)``, ``s = 16 − X``, is
``round(M·F_s / 2^k)``, ``k = c_s - s - E``, where ``F_s = 5^s·2^c_s`` is
``5^s`` shifted left to exactly 75 bits.  For ``0 <= s <= 32`` the product
``M·F_s`` is exact in 128 bits and lies in ``[2^126, 2^128)``, so ``D`` and its
rounding bits always sit in the top 64-bit word; the low word only matters
through "is it zero".  The product is formed from 32-bit limbs held in uint64
so that no partial sum overflows.  ``X`` is estimated by ``floor(log10|x|)``
and corrected where the truncated ``D`` falls outside ``[10^16, 10^17)``; when
rounding carries ``D`` to ``10^17`` (the double ``1e-14`` does), it becomes
``10^16`` and ``X`` grows by one.

How the text is laid out: every value owns a 48-byte template of six
little-endian uint64 words,

    word 0   '-' '0' '.' '0' '0' '0' d0 '.'
    word 1-4 four digits, each followed by a '.' slot
    word 5   'e' sign tens ones  separator  (3 pad bytes)

which holds every byte any ``%g`` form of the value can use, in order.  A mask
that depends only on the value's class (decimal exponent, sign) and on its
count of significant digits zeroes the bytes that form does not use, and one
``bytes.translate`` deletes the zeros.  Zeros of either sign are a class of
their own; nan, ±inf, subnormals and ``|x|`` outside about ``[1e-16, 1e17)``
are rendered one at a time with ``"%.17g" % x`` and spliced in.
"""

from __future__ import annotations

import numpy as np

# Below this many rows one C-level %-format beats the vectorised path, whose
# fixed cost is ~0.15 ms a block.  Measured on coning trajectory blocks: the
# two break even near 25 rows of 10 columns and 55 rows of 6; at 64 rows the
# vectorised path is 1.3x (6 columns) and 1.9x (10 columns) faster.
_VECTOR_MIN_ROWS = 64

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)

# Decimal exponents rendered by integer arithmetic: s = 16 - X in [0, 32].
_X_MIN, _X_MAX = -16, 17  # 17 leaves room for a carry out of X = 16
_NX = _X_MAX - _X_MIN + 1
_ZERO = _NX  # class index of ±0
_OTHER = _NX + 1  # class index of values rendered one at a time


def _power_tables():
    pow5 = [5**s for s in range(33)]
    shift = [75 - p.bit_length() for p in pow5]
    aligned = [p << c for p, c in zip(pow5, shift)]
    low = np.array([a & 0xFFFFFFFF for a in aligned], dtype=_U64)
    mid = np.array([(a >> 32) & 0xFFFFFFFF for a in aligned], dtype=_U64)
    high = np.array([a >> 32 for a in aligned], dtype=_U64)  # < 2^43
    # D = floor(M·F_s / 2^64 / 2^sh), sh = c_s - s - 64 - E; the table holds
    # sh - 1 + E + 1075, so that sh - 1 = base[s] - biased exponent.
    base = np.array([c - s - 64 + 1075 - 1 for s, c in enumerate(shift)], dtype=_U64)
    return low, mid, high, base


_F_LOW, _F_MID, _F_HIGH, _SHIFT_BASE = _power_tables()


def _digit_tables():
    # Row n holds the four decimal digits of n, most significant first.
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    pairs = np.full((10_000, 8), ord("."), dtype=np.uint8)
    pairs[:, 0::2] = digits + np.uint8(ord("0"))
    dig8 = pairs.view("<u8")[:, 0].copy()
    # Trailing decimal zeros of a four-digit chunk; a zero chunk counts 4.
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)
    return dig8, trailing.sum(axis=1, dtype=np.uint8)


_DIG8, _TZ4 = _digit_tables()

_WORD0 = np.frombuffer(b"-0.000\x00.", dtype="<u8")[0]


def _exponent_words():
    x = np.arange(_X_MIN, _X_MAX + 1)
    text = np.zeros((_NX + 2, 4), dtype=np.uint8)
    text[:_NX, 0] = ord("e")
    text[:_NX, 1] = np.where(x < 0, ord("-"), ord("+"))
    text[:_NX, 2] = np.abs(x) // 10 + ord("0")
    text[:_NX, 3] = np.abs(x) % 10 + ord("0")
    return text.view("<u4")[:, 0].astype(_U64)


_EXP_WORD = _exponent_words()


def _mask_tables():
    """Keep masks (as uint64 words) and text lengths per (class, nz).

    Row ``(xi * 2 + sign) * 18 + nz``; xi indexes X - _X_MIN, or is _ZERO or
    _OTHER.  nz is the count of significant digits, 1..17.
    """
    xi = np.arange(_NX + 2)[:, None, None]
    sign = np.arange(2)[None, :, None]
    nz = np.arange(18)[None, None, :]
    x = xi + _X_MIN
    regular = xi < _NX
    fixed = regular & (x >= -4) & (x < 17)
    expo = regular & ~fixed
    small = fixed & (x < 0)
    large = fixed & (x >= 0)
    zero = xi == _ZERO
    # digits kept and the digit a '.' follows (-1: none)
    ndig = np.where(large, np.maximum(nz, x + 1), np.where(zero, 1, nz))
    ndig = np.where(regular | zero, ndig, 0)
    dot_after = np.where(large & (nz > x + 1), x, np.where(expo & (nz > 1), 0, -1))

    keep = np.zeros((_NX + 2, 2, 18, 48), dtype=bool)
    keep[..., 0] = (sign == 1) & (regular | zero)
    keep[..., 1] = small  # '0'
    keep[..., 2] = small  # '.'
    for z in range(3):  # zeros between '0.' and the digits: -X - 1 of them
        keep[..., 3 + z] = small & (-x - 1 > z)
    for i in range(17):
        pos = 6 + 2 * i
        keep[..., pos] = ndig > i
        keep[..., pos + 1] = dot_after == i
    for b in range(40, 44):
        keep[..., b] = expo
    keep[..., 44] = True  # separator
    words = (keep.astype(np.uint8) * 0xFF).view("<u8").reshape(-1, 6)
    return words, keep.sum(axis=-1).reshape(-1)


_MASK_WORDS, _TEXT_LEN = _mask_tables()


def _round17(m, biased, x10):
    """Truncated and round-half-even value of M·2^E·10^(16 - x10), x10 in [-16, 16].

    m is the 53-bit significand M and biased the biased exponent E + 1075.
    """
    s = 16 - x10
    f0 = _F_LOW[s]
    m0 = m & _MASK32
    m1 = m >> _U64(32)
    a = m0 * f0
    b = m0 * _F_MID[s]
    c = m1 * f0
    t1 = (a >> _U64(32)) + (b & _MASK32) + (c & _MASK32)
    low_nonzero = ((a | t1) & _MASK32) != 0
    f2 = _F_HIGH[s]
    hi = (
        (t1 >> _U64(32)) + (b >> _U64(32)) + (c >> _U64(32))
        + m0 * (f2 >> _U64(32)) + m1 * f2
    )
    below = _SHIFT_BASE[s] - biased
    q2 = hi >> below  # 2·floor + the half bit
    sticky = (hi != (q2 << below)) | low_nonzero
    q = q2 >> _U64(1)
    return q, (q2 + (sticky | (q & _U64(1)))) >> _U64(1)


def _fast_digits(m, biased, x10, ok):
    """17-digit integer D and decimal exponent of the values where ok holds.

    x10 estimates the decimal exponent to within one.  Returns (D, x10, ok);
    ok is cleared where the exponent lies outside the exact range.
    """
    ok = ok & (x10 >= _X_MIN) & (x10 <= 16)
    x10 = np.where(ok, x10, 0)
    q, d = _round17(m, biased, x10)
    low, high = q < _U64(10**16), q >= _U64(10**17)
    redo = np.flatnonzero((low | high) & ok)
    if redo.size:
        x_new = x10[redo] + high[redo] - low[redo]
        fits = (x_new >= _X_MIN) & (x_new <= 16)
        ok[redo[~fits]] = False
        redo, x_new = redo[fits], x_new[fits]
        x10[redo] = x_new
        q, d[redo] = _round17(m[redo], biased[redo], x_new)
        ok[redo[(q < _U64(10**16)) | (q >= _U64(10**17))]] = False
    carry = d == _U64(10**17)
    d[carry] = _U64(10**16)
    x10 = x10 + carry
    return d, x10, ok


def _classify(values):
    """17-digit integer D (0 where not computed), class index and sign bit.

    The class index is X - _X_MIN for values rendered from D, _ZERO for ±0
    and _OTHER for values left to the per-value path.
    """
    bits = values.view(_U64)
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    frac = bits & _U64((1 << 52) - 1)
    normal = (biased != 0) & (biased != 0x7FF)
    zero = (biased == 0) & (frac == 0)
    x10 = np.floor(np.log10(np.where(normal, np.abs(values), 1.0))).astype(np.intp)
    d, x10, ok = _fast_digits(frac | _U64(1 << 52), biased, x10, normal)
    d[~ok] = 0
    xi = np.where(ok, x10 - _X_MIN, np.where(zero, _ZERO, _OTHER))
    return d, xi, (bits >> _U64(63)).astype(np.intp)


def _text_words(d, xi, sign, ncols):
    """The masked 48-byte templates (n, 6) and mask-table rows of the values."""
    # D = d0·10^16 + c1·10^12 + c2·10^8 + c3·10^4 + c4, chunks as (n, 4).
    d0 = d // _U64(10**16)
    rest = d - d0 * _U64(10**16)
    hi8 = rest // _U64(10**8)
    halves = np.empty((d.size, 2), dtype=np.uint32)
    halves[:, 0] = hi8
    halves[:, 1] = rest - hi8 * _U64(10**8)
    upper = halves // np.uint32(10_000)
    chunks = np.stack([upper, halves - upper * np.uint32(10_000)], axis=2).reshape(-1, 4)
    t1, t2, t3, t4 = np.take(_TZ4, chunks).T
    tz = t4 + (t4 == 4) * (t3 + (t3 == 4) * (t2 + (t2 == 4) * t1))
    key = (xi * 2 + sign) * 18 + 17 - tz

    words = np.take(_MASK_WORDS, key, axis=0)
    words[:, 0] &= _WORD0 | ((d0 + _U64(ord("0"))) << _U64(48))
    words[:, 1:5] &= np.take(_DIG8, chunks)
    sep = np.full(ncols, ord(","), dtype=_U64)
    sep[-1] = ord("\n")
    words.reshape(-1, ncols, 6)[..., 5] &= np.take(_EXP_WORD, xi).reshape(-1, ncols) | (
        sep << _U64(32)
    )
    return words, key


def render_rows(block: np.ndarray) -> bytes:
    """The rows of a 2-D float64 block as '%.17g' CSV lines, LF-terminated."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, ncols = block.shape
    if rows < _VECTOR_MIN_ROWS:
        row_fmt = ",".join(["%.17g"] * ncols) + "\n"
        return ((row_fmt * rows) % tuple(block.ravel().tolist())).encode("ascii")

    values = block.ravel()
    d, xi, sign = _classify(values)
    words, key = _text_words(d, xi, sign, ncols)
    # Hold one copy of the block's text at a time.
    raw = words.tobytes()
    del d, sign, words
    text = raw.translate(None, b"\0")
    del raw

    others = np.flatnonzero(xi == _OTHER)
    if not others.size:
        return text
    # Each such value left only its separator; put its text before it.
    ends = np.cumsum(_TEXT_LEN[key])[others] - 1
    pieces, start = [], 0
    for i, end in zip(others.tolist(), ends.tolist()):
        pieces += [text[start:end], ("%.17g" % values[i]).encode("ascii")]
        start = end
    pieces.append(text[start:])
    return b"".join(pieces)
