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
so that no partial sum overflows.  ``X`` is estimated from the biased binary
exponent (a table of ``floor(log10 2^E)`` and one compare against the next
power of ten) and corrected where the truncated ``D`` falls outside
``[10^16, 10^17)``; when rounding carries ``D`` to ``10^17`` (the double
``1e-14`` does), it becomes ``10^16`` and ``X`` grows by one.

How the text is laid out: every value owns a 32-byte template of four
little-endian uint64 words,

    word 0    '-' '0' '.' '0' '0' '0' s0 s1
    word 1-2  s2 ... s17
    word 3    'e' sign tens ones separator (3 pad bytes)

where ``s0..s17`` are the 18 digits of ``D' = D + 9p·floor(D/p)``: ``D`` with
a zero digit slot opened where the value's form puts its '.', ``p`` being 10
to the number of digits after it.  In exponent form the slot follows ``d0``;
in fixed form with ``X >= 0`` it follows ``d_X``; ``0.000ddd`` forms and
17-digit integers put it last, where it is never shown.  A word per class
(decimal exponent and sign) holds the constant bytes and turns the slot's '0'
into '.'; a mask per (class, count of trailing zeros of ``D'``) zeroes the
bytes that form does not use, and one ``bytes.translate`` deletes the zeros.
Zeros of either sign are a class of their own; nan, ±inf, subnormals and
``|x|`` outside about ``[1e-16, 1e17)`` are rendered one at a time with
``"%.17g" % x`` and spliced in.

The width, measured: a layout with a '.' slot after each of 16 digits needs
48 bytes; opening the slot in ``D'`` needs 32, so ``tobytes`` and
``translate`` (~1 ns a byte) move two thirds of the bytes and the digit
gather half.  A 24-byte layout (the exponent and ``X >= 0`` forms shifted 5
bytes to the front) cuts ``translate`` by a further quarter but measured
slower overall: numpy gathers 24-byte rows at half the speed of 32-byte ones,
and the shift adds five passes.
Blocks are rendered in sub-blocks of ``_SUB_BLOCK_VALUES`` values, which
bounds the temporaries of the digit and text stages.
"""

from __future__ import annotations

import numpy as np

# Below this many rows one C-level %-format beats the vectorised path, whose
# fixed cost is ~0.15-0.2 ms a block (about 100 numpy calls).  Measured on
# coning trajectory blocks (2-vCPU VM, min of 15): the two break even near 28
# rows of 10 columns and 50 rows of 6; at 64 rows the vectorised path is
# 1.9x (10 columns) faster.
_VECTOR_MIN_ROWS = 48

# Values per sub-block of the digit and text stages, which bounds their
# temporaries.  A 4096x10 coning block peaks at 1.7, 2.2 and 4.6 MB
# (tracemalloc) for 8192, 16384 and 40960 values; 8192 took ~1.1x the time
# of 16384 (numpy's per-call cost), 20480 and 40960 timed within noise of it.
_SUB_BLOCK_VALUES = 16384

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)

# Decimal exponents rendered by integer arithmetic: s = 16 - X in [0, 32].
_X_MIN, _X_MAX = -16, 17  # 17 leaves room for a carry out of X = 16
_NX = _X_MAX - _X_MIN + 1
_ZERO = _NX  # class index of ±0
_OTHER = _NX + 1  # class index of values rendered one at a time


def _power_tables():
    """Limbs of F_s and shift bases, indexed by xi = X - _X_MIN (s = 32 - xi)."""
    pow5 = [5 ** (32 - xi) for xi in range(33)]
    shift = [75 - p.bit_length() for p in pow5]
    aligned = [p << c for p, c in zip(pow5, shift)]
    low = np.array([a & 0xFFFFFFFF for a in aligned], dtype=_U64)
    high = np.array([a >> 32 for a in aligned], dtype=_U64)  # < 2^43
    # D = floor(M·F_s / 2^64 / 2^sh), sh = c_s - s - 64 - E; the table holds
    # sh - 1 + E + 1075, so that sh - 1 = base[xi] - biased exponent.
    base = [c - (32 - xi) - 64 + 1075 - 1 for xi, c in enumerate(shift)]
    return low, high, np.array(base, dtype=_U64)


_F_LOW, _F_HIGH, _SHIFT_BASE = _power_tables()


def _exponent_tables():
    """floor(log10 2^E) - _X_MIN per biased exponent, and the power of ten
    above floor(log10 2^E).

    A normal x in [2^E, 2^(E+1)) has decimal exponent est or est + 1, and it
    is est + 1 where |x| >= 10^(est + 1).  The power is a rounded double, so
    a value between it and the true power gets an estimate one off, which
    the digit stage corrects.  Zeros, subnormals, inf and nan get an estimate
    far outside the exact range.
    """
    e = np.arange(2048) - 1023
    est = np.floor(e * np.log10(2.0)).astype(np.intp)
    est[[0, -1]] = 1 << 20
    return est - _X_MIN, 10.0 ** np.minimum(est + 1, 308)


_XI_EST, _X_NEXT = _exponent_tables()


def _digit_tables():
    # The four digits of n as ASCII, first digit in the lowest byte.
    digits = np.indices((10,) * 4, dtype=_U64).reshape(4, -1)
    dig4 = sum((digits[i] + _U64(ord("0"))) << _U64(8 * i) for i in range(4))
    # The two digits of n as bytes 6 and 7 of template word 0.
    tens, ones = np.divmod(np.arange(100, dtype=_U64), _U64(10))
    dig2 = ((tens + _U64(ord("0"))) << _U64(48)) | ((ones + _U64(ord("0"))) << _U64(56))
    # Trailing decimal zeros of a four-digit chunk; a zero chunk counts 4.
    # Of the two leading digits only the second can be a trailing zero of a
    # value rendered from D (the first is d0), so they count at most 1.
    trailing = np.logical_and.accumulate(digits[::-1].T == 0, axis=1)
    tz4 = trailing.sum(axis=1).astype(np.intp)
    return dig4, dig4 << _U64(32), dig2, tz4, np.minimum(tz4[:100], 1)


_DIG4_LOW, _DIG4_HIGH, _DIG2, _TZ4, _TZ2 = _digit_tables()


def _layout_tables():
    """Per-class constant words and slot units, and per-key keep masks.

    Rows of the class tables are signed class indices 2·xi + sign, xi being
    X - _X_MIN, _ZERO or _OTHER.  Key row ``(2·xi + sign) * 18 + tz``, tz
    the count of trailing zero digits among s0..s17 (17 - tz is the last
    nonzero slot).
    Returns (class words (n_class, 4), slot units (n_class,), masks
    (n_key, 4), text lengths (n_key,)).
    """
    xi = np.arange(_NX + 2)[:, None, None]
    sign = np.arange(2)[None, :, None]
    tz = np.arange(18)[None, None, :]
    x = xi + _X_MIN
    regular = xi < _NX
    fixed = regular & (x >= -4) & (x < 17)
    expo = regular & ~fixed
    small = fixed & (x < 0)
    large = fixed & (x >= 0)
    zero = xi == _ZERO
    # The slot s0..s17 that holds the '.', 17 where none is ever shown.
    dot_slot = np.where(expo, 1, np.where(large, np.minimum(x + 1, 17), 17))
    # Slots shown: up to the last nonzero one, the integer digits of a fixed
    # form, and the '.' only where a nonzero slot follows it.
    last = 17 - tz
    end = np.where(large, np.maximum(last, x), np.where(zero, 0, last))
    end = np.where(regular | zero, end, -1)
    keep = np.zeros((_NX + 2, 2, 18, 32), dtype=bool)
    keep[..., 0] = (sign == 1) & (regular | zero)
    keep[..., 1] = small  # '0'
    keep[..., 2] = small  # '.'
    for z in range(3):  # zeros between '0.' and the digits: -X - 1 of them
        keep[..., 3 + z] = small & (-x - 1 > z)
    for slot in range(18):
        keep[..., 6 + slot] = np.where(slot == dot_slot, last > slot, slot <= end)
    keep[..., 24:28] = expo[..., None]
    keep[..., 28] = True  # separator
    masks = (keep.astype(np.uint8) * 0xFF).view("<u8").reshape(-1, 4)

    classes = np.arange(_NX + 2)
    slot = dot_slot[:, 0, 0]
    exp = np.abs(classes + _X_MIN)
    text = np.zeros((_NX + 2, 32), dtype=np.uint8)
    text[:, :6] = np.frombuffer(b"-0.000", dtype=np.uint8)
    text[classes, 6 + slot] = ord("0") ^ ord(".")  # XORed into the slot's '0'
    text[:_NX, 24] = ord("e")
    text[:_NX, 25] = np.where(classes[:_NX] + _X_MIN < 0, ord("-"), ord("+"))
    text[:_NX, 26] = exp[:_NX] // 10 + ord("0")
    text[:_NX, 27] = exp[:_NX] % 10 + ord("0")
    text[:, 28] = ord(",")
    units = _U64(10) ** (17 - slot).astype(_U64)
    return (
        np.repeat(text.view("<u8"), 2, axis=0),
        np.repeat(units, 2),
        masks,
        keep.sum(axis=-1).reshape(-1),
    )


_CLASS_WORDS, _SLOT_UNIT, _MASK_WORDS, _TEXT_LEN = _layout_tables()
_NEWLINE = _U64((ord(",") ^ ord("\n")) << 32)


# Every np.take below uses mode="clip": the indices are in range by
# construction (or clipped on purpose), and it skips numpy's bounds check and
# output buffering, ~1.5x faster than the default.


def _round17(m, biased, xi):
    """Truncated and round-half-even value of M·2^E·10^(16 - X), xi = X - _X_MIN.

    m is the 53-bit significand M and biased the biased exponent E + 1075.
    xi outside [0, 32] is clipped; the result is then meaningless.
    """
    m0 = m & _MASK32
    m1 = m >> _U64(32)
    a = np.take(_F_LOW, xi, mode="clip")
    c = m1 * a
    a *= m0
    f2 = np.take(_F_HIGH, xi, mode="clip")
    b = f2 & _MASK32
    b *= m0
    t1 = a >> _U64(32)
    t1 += b & _MASK32
    t1 += c & _MASK32
    a |= t1
    a &= _MASK32
    low_nonzero = a != 0
    del a
    hi = t1 >> _U64(32)
    hi += b >> _U64(32)
    hi += c >> _U64(32)
    del b, c, t1
    m1 *= f2
    hi += m1
    f2 >>= _U64(32)
    f2 *= m0
    hi += f2
    del m0, m1, f2
    below = np.take(_SHIFT_BASE, xi, mode="clip")
    below -= biased
    q2 = hi >> below  # 2·floor + the half bit
    low_nonzero |= hi != (q2 << below)  # sticky
    q = q2 >> _U64(1)
    up = q & _U64(1)
    up |= low_nonzero
    q2 += up
    q2 >>= _U64(1)
    return q, q2


def _fast_digits(m, biased, xi):
    """17-digit integer D and class index from an estimate xi.

    xi estimates X - _X_MIN to within one.  Returns (D, xi, ok); ok holds
    where X lies in the exact range [-16, 16].
    """
    ok = xi.view(_U64) <= _U64(16 - _X_MIN)
    q, d = _round17(m, biased, xi)
    q -= _U64(10**16)  # wraps below 10^16
    redo = np.flatnonzero((q >= _U64(9 * 10**16)) & ok)
    if redo.size:
        q = q[redo] + _U64(10**16)
        xi_new = xi[redo] + (q >= _U64(10**17)) - (q < _U64(10**16))
        fits = xi_new.view(_U64) <= _U64(16 - _X_MIN)
        ok[redo[~fits]] = False
        redo, xi_new = redo[fits], xi_new[fits]
        xi[redo] = xi_new
        q, d[redo] = _round17(m[redo], biased[redo], xi_new)
        ok[redo[(q < _U64(10**16)) | (q >= _U64(10**17))]] = False
    carry = np.flatnonzero(d == _U64(10**17))
    d[carry] = _U64(10**16)
    xi[carry] += 1
    return d, xi, ok


def _classify(values):
    """17-digit integer D, signed class index and the per-value indices.

    The signed class index is 2·xi + sign, where xi is X - _X_MIN for values
    rendered from D, _ZERO for ±0 and _OTHER for values left to the
    per-value path; D is 0 for the last two.
    """
    bits = values.view(_U64)
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    xi = np.take(_XI_EST, biased.view(np.intp), mode="clip")
    xi += np.abs(values) >= np.take(_X_NEXT, biased.view(np.intp), mode="clip")
    m = bits & _U64((1 << 52) - 1)
    m |= _U64(1 << 52)
    d, cls, ok = _fast_digits(m, biased, xi)
    cls *= 2
    cls += (bits >> _U64(63)).view(np.intp)
    rest = np.flatnonzero(~ok)
    d[rest] = 0
    zero = values[rest] == 0
    cls[rest] = (cls[rest] & 1) + np.where(zero, 2 * _ZERO, 2 * _OTHER)
    return d, cls, rest[~zero]


def _text_words(d, cls, ncols):
    """The masked 32-byte templates (n, 4) and mask-table rows of the values.

    d is overwritten.
    """
    # D' = D + 9p·floor(D/p): the '.' slot opened.
    unit = np.take(_SLOT_UNIT, cls, mode="clip")
    slot = d // unit
    unit *= _U64(9)
    slot *= unit
    d += slot
    del unit, slot
    lead = d // _U64(10**16)
    d -= lead * _U64(10**16)
    # Digits s2..s9 and s10..s17 in the rows of one (2, n) array, so that
    # every operation runs along n (numpy runs (n, 2) shapes row by row).
    eight = np.empty((2, d.size), dtype=_U64)
    np.floor_divide(d, _U64(10**8), out=eight[0])
    np.subtract(d, eight[0] * _U64(10**8), out=eight[1])
    upper = eight // _U64(10_000)
    eight -= upper * _U64(10_000)

    # Trailing zeros of D': the last four digits, then the next four where
    # those are all zero.
    tz = np.take(_TZ4, eight[1].view(np.intp), mode="clip")
    zeros = np.flatnonzero(tz == 4)
    for chunk, table in ((upper[1], _TZ4), (eight[0], _TZ4), (upper[0], _TZ4), (lead, _TZ2)):
        if not zeros.size:
            break
        more = np.take(table, chunk[zeros].view(np.intp), mode="clip")
        tz[zeros] += more
        zeros = zeros[more == 4]
    key = cls * 18
    key += tz
    del tz

    text = np.take(_DIG4_HIGH, eight.view(np.intp), mode="clip")
    text |= np.take(_DIG4_LOW, upper.view(np.intp), mode="clip")
    del upper, eight

    words = np.take(_CLASS_WORDS, cls, axis=0, mode="clip")
    words[:, 0] ^= np.take(_DIG2, lead.view(np.intp), mode="clip")
    words.T[1:3] ^= text
    words.reshape(-1, ncols, 4)[:, -1, 3] ^= _NEWLINE
    words &= np.take(_MASK_WORDS, key, axis=0, mode="clip")
    return words, key


def _render(block):
    values = block.ravel()
    d, cls, others = _classify(values)
    words, key = _text_words(d, cls, block.shape[1])
    del d, cls
    text = words.tobytes().translate(None, b"\0")
    del words

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


def render_rows(block: np.ndarray) -> bytes:
    """The rows of a 2-D float64 block as '%.17g' CSV lines, LF-terminated."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, ncols = block.shape
    if rows < _VECTOR_MIN_ROWS:
        row_fmt = ",".join(["%.17g"] * ncols) + "\n"
        return ((row_fmt * rows) % tuple(block.ravel().tolist())).encode("ascii")
    step = max(_SUB_BLOCK_VALUES // ncols, 1)
    return b"".join([_render(block[r:r + step]) for r in range(0, rows, step)])
