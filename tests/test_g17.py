"""The vectorised %.17g renderer against CPython's per-value formatting."""
import dataclasses
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatkin._g17 import _M_NEXT, _X_MIN, _XI_EST, render_rows
from quatkin.scenario import parse_config, run_scenario
from quatkin.trajectory import _BLOCK_STEPS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def reference_rows(block) -> bytes:
    """The text render_rows must produce, formatted one value at a time."""
    return "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in block
    ).encode("ascii")


def tiled(values, ncols=10):
    """values in a (rows, ncols) block, the last row filled from the start."""
    values = np.asarray(values, dtype=np.float64).ravel()
    return np.resize(values, (-(-values.size // ncols), ncols))


def assert_renders(values, ncols=10):
    block = tiled(values, ncols)
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
        # Doubles from the double 10.0 ** k up to the power 10^k above it,
        # whose exponent a compare with that double puts one too high.
        1e-12,
        1e-11,
        1e-07,
        1e-06,
        9.999999999999999e-06,
        0.1,
        1.0,
        1000.0,
        2.0**-1022,  # smallest normal
        1.7976931348623157e308,
    ],
)
def test_render_rows_around_decade_edges(center):
    assert_renders(ulps_around(center, 3))


def test_decimal_exponent_is_exact_around_powers_of_ten():
    # The exponent tables give the exact decimal exponent, not an estimate
    # within one, for the doubles nearest every power of ten from 1e-17 to
    # 1e18: so the rounded D always has 17 digits but for the carry to 10^17.
    for k in range(-17, 19):
        for x in ulps_around(float(Decimal(10) ** k), 3):
            bits = np.float64(x).view(np.uint64)
            b = int(bits >> np.uint64(52)) & 0x7FF
            m = (int(bits) & ((1 << 52) - 1)) | (1 << 52)
            assert _XI_EST[b] + (m >= _M_NEXT[b]) + _X_MIN == Decimal(x).adjusted(), x


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


@pytest.mark.parametrize("rows", [1, 42, 43, _BLOCK_STEPS])
def test_render_rows_matches_format_at_any_block_size(rows):
    # 6-column blocks from one row to a full emit_series block.
    rng = np.random.default_rng(rows)
    block = rng.standard_normal((rows, 6)) * np.array([1e3, 1, 1, 1e-3, 1e-9, 1e-14])
    block[0, 0] = -0.0
    assert render_rows(block) == reference_rows(block)


@pytest.mark.parametrize("ncols", [1, 6, 10])
def test_render_rows_of_no_rows_is_empty(ncols):
    block = np.empty((0, ncols))
    assert render_rows(block) == reference_rows(block) == b""


@pytest.mark.parametrize(
    "value", [0.5, -0.0, 0.0, np.nan, -np.inf, 5e-324, 1e-17, 1e-14, 1e16, 1.7976931348623157e308]
)
def test_render_rows_of_one_value(value):
    block = np.array([[value]])
    assert render_rows(block) == reference_rows(block)


def g17_layout(x):
    """(decimal exponent, significant digits, digits before a fixed-form '.')
    of CPython's '%.17g' text of x != 0; the last is 0 for other forms."""
    text = "%.17g" % abs(x)
    if "e" in text:
        mantissa, exp = text.split("e")
        return int(exp), len(mantissa.replace(".", "")), 0
    if text.startswith("0."):
        digits = text[2:].lstrip("0")
        return len(digits) - len(text[2:]) - 1, len(digits), 0
    whole = text.split(".")[0]
    dot = len(whole) if "." in text else 0
    return len(whole) - 1, len(text.replace(".", "").rstrip("0")), dot


def layout_cases():
    """Doubles that between them reach every text layout of the exact path."""
    cases = []
    for k in range(-16, 18):  # decade edges: both forms, and carries into 10^k
        cases += ulps_around(float(f"1e{k}"), 3)
    for nz in range(1, 18):  # integers with nz significant digits ...
        head = int("12345678912345678"[:nz])
        cases += [float(head * 10 ** (16 - nz)), float(head * 10 ** max(0, 15 - nz))]
        cases.append(float(head) * 2.0**-20)  # ... and dyadic fractions
    for int_digits in range(1, 17):  # a '.' after 1..16 integer digits
        cases.append(int("9876543219876543"[:int_digits]) + 0.5)
    rng = np.random.default_rng(17)
    cases += list(rng.standard_normal(400) * 10.0 ** rng.integers(-16, 17, 400))
    return cases + [-x for x in cases]


def test_render_rows_covers_every_layout():
    # A deterministic table against "%.17g" % x that reaches every decimal
    # exponent of the exact path with both signs, every count of significant
    # digits, every fixed-form '.' position, the carry of the 17-digit
    # integer to 10^17 (the double 1e-14 lies below 10^-14 and rounds up to
    # it), and both separators.
    cases = layout_cases()
    layouts = [g17_layout(x) for x in cases]
    exponents = {(e, x < 0) for (e, _, _), x in zip(layouts, cases)}
    assert {(e, s) for e in range(-16, 17) for s in (False, True)} <= exponents
    assert {n for _, n, _ in layouts} == set(range(1, 18))
    assert {d for _, _, d in layouts} == set(range(0, 17))
    carries = [x for x in cases if x and abs(Decimal(x)) < Decimal(10) ** g17_layout(x)[0]]
    assert set(carries) == {1e-14, -1e-14}
    for ncols in (7, 10):
        block = tiled(cases, ncols)
        text = render_rows(block)
        assert text == reference_rows(block)
        assert text.count(b"\n") == block.shape[0] and text.count(b",") == block.size - block.shape[0]


def coning_long_block():
    """The first block emit_series renders of the coning-long CSV: rows
    0..2047 of 10 columns, built as emit_series builds them."""
    cfg = parse_config((CONFIGS / "coning-long.json").read_text(encoding="utf-8"))
    traj = run_scenario(dataclasses.replace(cfg, tf=20.47)).trajectory
    t, q = traj.times, traj.states
    return np.hstack([t[:, None], q, traj.norms()[:, None], np.abs(q - cfg.oracle(t))])


def test_render_rows_peak_memory_on_a_coning_block():
    # The traced peak of one 2048x10 block is ~2.30 MB for 0.44 MB of text;
    # a 4096x10 block rendered at once peaks at 4.6 MB (8.4 MB with a 48-byte
    # template).
    block = coning_long_block()
    assert block.shape == (_BLOCK_STEPS, 10)
    render_rows(block)
    tracemalloc.start()
    try:
        text = render_rows(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == reference_rows(block)
    assert peak <= 3_000_000, peak
