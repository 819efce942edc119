"""The vectorised %.17g renderer against CPython's per-value formatting."""
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatkin._g17 import _VECTOR_MIN_ROWS, render_rows


def reference_rows(block) -> bytes:
    """The text render_rows must produce, formatted one value at a time."""
    return "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in block
    ).encode("ascii")


def tiled(values, ncols=10, rows=_VECTOR_MIN_ROWS):
    """values repeated to fill a (rows, ncols) block, big enough to vectorise."""
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = max(rows, -(-values.size // ncols))
    return np.resize(values, (rows, ncols))


def assert_renders(values, ncols=10):
    block = tiled(values, ncols)
    assert block.shape[0] >= _VECTOR_MIN_ROWS
    assert render_rows(block) == reference_rows(block)


def ulps_around(x, n=2):
    """x and its n nearest doubles on either side, with both signs."""
    out = [x]
    for direction in (np.inf, -np.inf):
        v = x
        for _ in range(n):
            with np.errstate(over="ignore"):  # one past the largest double is inf
                v = float(np.nextafter(v, direction))
            out.append(v)
    return out + [-v for v in out]


def decimal_ties(count=200):
    """Doubles k/2^j whose exact decimal has 18 significant digits ending in 5:
    half-way cases for 17-digit rounding."""
    ties = []
    for j in range(1, 80):
        for k in range(1, 4000, 2):
            x = k / 2.0**j
            digits = Decimal(x).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append(x)
                if len(ties) == count:
                    return ties
    return ties


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=60),
    ncols=st.integers(1, 10),
)
def test_render_rows_matches_format_on_any_float(values, ncols):
    assert_renders(values, ncols)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
def test_render_rows_matches_format_on_raw_bit_patterns(bits):
    assert_renders(np.array(bits, dtype=np.uint64).view(np.float64))


@pytest.mark.parametrize(
    "center",
    [
        1e-5,  # %g switches from exponent to fixed form at X = -4
        1e-4,
        1e16,  # largest fixed-form decade
        1e17,  # first exponent-form decade above
        1e-16,  # lower edge of the exact integer path
        1e-17,  # just below it: rendered one value at a time
        1e-14,  # the double lies below 10^-14 and rounds up to it
        0.1,
        1.0,
        1000.0,
        2.0**-1022,  # smallest normal
        1.7976931348623157e308,
    ],
)
def test_render_rows_around_decade_edges(center):
    assert_renders(ulps_around(center, 3))


def test_render_rows_round_up_to_next_power_of_ten():
    # 1e-14 is stored below 10^-14, so its 17-digit rounding carries into the
    # next decade: the digits become 1 and the exponent goes up by one.
    assert format(1e-14, ".17g") == "1e-14"
    assert_renders([9.99999999999999999e-6, 1e-14, -1e-14, 0.001 - 1e-19])


def test_render_rows_half_way_ties_round_to_even():
    ties = decimal_ties()
    assert len(ties) == 200
    extra = [1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 2.0**-25, 3 * 2.0**-25]
    assert format(1e15 + 0.25, ".17g") == "1000000000000000.2"
    assert format(1e15 + 0.75, ".17g") == "1000000000000000.8"
    assert_renders(ties + [-t for t in ties] + extra)


def test_render_rows_special_values():
    specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308]
    block = tiled(specials + [0.5, -1.25], ncols=11)
    text = render_rows(block)
    assert text == reference_rows(block)
    assert text.split(b"\n")[0].split(b",")[:4] == [b"0", b"-0", b"nan", b"nan"]


def test_render_rows_random_scales_and_time_grid():
    rng = np.random.default_rng(5)
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-20, 19, 20_000)
    assert_renders(scaled)
    assert_renders(0.01 * np.arange(20_000), ncols=1)


@pytest.mark.parametrize("rows", [1, _VECTOR_MIN_ROWS - 1, _VECTOR_MIN_ROWS, 4096])
def test_render_rows_both_paths_match(rows):
    rng = np.random.default_rng(rows)
    block = rng.standard_normal((rows, 6)) * np.array([1e3, 1, 1, 1e-3, 1e-9, 1e-14])
    block[0, 0] = -0.0
    assert render_rows(block) == reference_rows(block)
