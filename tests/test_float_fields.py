"""The records writer's float fields: repr's bytes for every float64.

``fileio._float_fields`` finds repr's shortest digits in exact integer
arithmetic for 1e-4 <= |x| < 1e16 and lets ``repr`` write every other value.
Every test here compares field text with ``repr(x).encode()``.  The per-row
f-string records writer that the block writer replaced is kept below as the
reference for whole files, also for the columns that the writer writes from
one repr because every value of them in a write has the same bits.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import fileio
from bellsim.fileio import (
    BLOCK_ROWS,
    FIELD_HIGH,
    FIELD_LOW,
    RECORDS_HEADER,
    WRITE_ROWS,
    _float_fields,
    _row_text,
    write_records_csv,
)
from bellsim.weak import PointerConfig, PointerRun, per_pair_b_values_calibrated

PREAMBLE = {"command": "weak-bvalues", "seed": 7}


def assert_fields_are_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    fields = _float_fields(values)
    text = np.concatenate([fields, np.full((values.size, 1), ord("\n"), dtype=np.uint8)], axis=1)
    got = text[text != 0].tobytes()
    if got != "".join(f"{v!r}\n" for v in values.tolist()).encode():
        wrong = [(v, g) for v, g in zip(values.tolist(), got.split(b"\n")) if g != repr(v).encode()]
        pytest.fail(f"{len(wrong)} of {values.size} fields are not repr, e.g. {wrong[:5]}")


def with_neighbours(values) -> np.ndarray:
    """values and the doubles next to each, below and above, of both signs."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


FLOATS = st.floats() | st.floats(FIELD_LOW, FIELD_HIGH, exclude_max=True) | st.floats(-FIELD_HIGH, -FIELD_LOW)


@settings(max_examples=1000, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=20))
def test_any_float64_field_is_its_repr(values):
    # st.floats() draws NaN, infinities, zeros and subnormals; the others draw the computed range
    assert_fields_are_repr(values)


def test_every_power_of_two_and_its_neighbours():
    # The kernel scales the interval of reals that round to x symmetrically, y +- ulp(x) * 10**k / 2.
    # Only a power of two has a nearer lower neighbour (half the gap), so this set is every value on
    # which that shortcut could differ from repr.  Whether an end of the interval belongs to it
    # (repr reads ties to an even mantissa) never matters: an end is a multiple of 10 only for x in
    # [2**53, 10**16), where every double is even, the ends 10(x +- 1) are odd multiples of 10, and
    # y = 10x itself is the nearest multiple of 10.
    assert_fields_are_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_ties_round_to_an_even_last_digit():
    # x = m + 1/4 or m + 3/4 in [2**50, 2**51) scales to y = 10x = 10m + 2.5 or 10m + 7.5, exactly
    # half way between two 17-digit candidates, and no shorter one reads back as x
    m = np.random.default_rng(5).integers(2**50, 2**51, 5000).astype(np.float64)
    ties = np.concatenate([m + 0.25, m + 0.75])
    assert repr(2.0**50 + 0.25) == "1125899906842624.2" and repr(2.0**50 + 0.75) == "1125899906842624.8"
    assert_fields_are_repr(np.concatenate([ties, -ties]))


def steps(value: float, count: int) -> np.ndarray:
    """The doubles up to ``count`` steps away from value, either side."""
    return (np.array([value]).view(np.int64) + np.arange(-count, count + 1)).view(np.float64)


EDGE_SETS = {
    "powers-of-ten": with_neighbours([float(f"1e{k}") for k in range(-10, 25)]),
    "range-ends": with_neighbours(np.concatenate([steps(FIELD_LOW, 1000), steps(FIELD_HIGH, 1000)])),
    "rounded": with_neighbours([
        round(v, d) for v, d in zip(
            (np.random.default_rng(6).standard_normal(3000) * 10.0 ** np.arange(-3, 12).repeat(200)).tolist(),
            np.tile(np.arange(7), 3000 // 7 + 1).tolist(),
        )
    ]),
    "integers": with_neighbours(np.concatenate([
        np.random.default_rng(7).integers(0, 2**53, 3000), 2**np.arange(54) - 1, 10**np.arange(16) - 1,
    ]).astype(np.float64)),
}


@pytest.mark.parametrize("name", EDGE_SETS)
def test_edge_values_are_repr(name):
    assert_fields_are_repr(EDGE_SETS[name])


def test_a_million_seeded_values():
    rng = np.random.default_rng(8)
    for _ in range(10):
        bits = rng.integers(0, 2**64, 25_000, dtype=np.uint64).view(np.float64)
        in_range = rng.uniform(np.log2(FIELD_LOW), np.log2(FIELD_HIGH), 25_000)
        assert_fields_are_repr(np.concatenate([
            rng.normal(1.19, 1.0, 25_000),  # readings of the calibrated source
            bits,  # every exponent, NaN and infinities
            np.ldexp(rng.uniform(1.0, 2.0, 25_000), np.floor(in_range).astype(np.int32)),
            -np.ldexp(rng.uniform(1.0, 2.0, 25_000), np.floor(in_range[::-1]).astype(np.int32)),
        ]))


# Short reprs planted in one kernel call of block size: the search for j runs over the whole
# call until no value has a multiple of the next power of ten, so one short value keeps every
# other value in the search.  1e15 needs all 16 powers.
SHORT = [0.5, 1.25, 0.0001, 123.456, 1e15]


def test_a_block_with_a_few_short_values_is_repr():
    readings = np.random.default_rng(9).normal(1.19, 1.0, WRITE_ROWS)
    rows = [0, 1, WRITE_ROWS // 2, WRITE_ROWS - 2, WRITE_ROWS - 1]
    readings[rows] = SHORT
    readings[[7, 8]] = [-1e15, -0.5]
    assert_fields_are_repr(readings)


def test_a_block_of_short_values_is_repr():
    # at most three decimals each, at magnitudes 0.1 to 1000: the search runs far for every value
    scales = 10.0 ** np.arange(-1, 4).repeat(WRITE_ROWS // 5)
    assert_fields_are_repr(np.round(np.random.default_rng(10).normal(1.19, 1.0, WRITE_ROWS) * scales, 3))


def per_row_write_records_csv(path, run, preamble=None):
    """The per-row f-string records writer that the block writer replaced, kept as the reference."""
    lines = [f"# {key}: {value}" for key, value in (preamble or {}).items()] + [RECORDS_HEADER]
    rows = zip(range(len(run)), run.readings.tolist(), run.b_values.tolist())
    body = "".join([f"{k},{r[0]!r},{r[1]!r},{r[2]!r},{r[3]!r},{b!r}\n" for k, r, b in rows])
    Path(path).write_bytes(("\n".join(lines) + "\n" + body).encode())


# Readings outside the computed range, each planted in rows at the ends and middle of a run.
PLANTED = [0.0, -0.0, 5e-324, 9.99e-5, 1e16, -1.7e308]


def planted_run(n: int) -> PointerRun:
    readings = np.random.default_rng(n).normal(1.19, 1.0, (n, 4))
    edges = {WRITE_ROWS - 1, WRITE_ROWS, BLOCK_ROWS - 1, BLOCK_ROWS}
    rows = sorted({0, 1, n // 2, n - 1, *edges} & set(range(n)))
    for number, row in enumerate(rows):
        for column in range(4):
            readings[row, column] = PLANTED[(number + column) % len(PLANTED)]
    huge = (readings == -1.7e308).any(axis=1)  # -1.7e308 times a reading leaves float64: it meets zeros
    readings[huge] = np.where(readings[huge] == -1.7e308, -1.7e308, 0.0)
    return PointerRun(readings, PointerConfig(), "planted readings")


@pytest.mark.parametrize(
    "n", [3, WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]
)
@pytest.mark.parametrize("preamble", [None, PREAMBLE], ids=["bare", "preamble"])
def test_records_writer_is_the_per_row_writer(tmp_path, n, preamble):
    run = planted_run(n)
    assert set(PLANTED) <= set(run.readings.ravel().tolist())
    write_records_csv(tmp_path / "block.csv", run, preamble)
    per_row_write_records_csv(tmp_path / "row.csv", run, preamble)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


# Whole blocks: block 0 (no prefix, no padding), blocks on each side of the edges where the block
# prefix gains a digit, and the last block whose first trial index fits int64.
@pytest.mark.parametrize("block", [0, 1, 9, 10, 99_999, 10**8 - 1, 10**8, (2**63 - 1) // BLOCK_ROWS])
def test_row_text_is_the_per_row_text(block):
    start = block * BLOCK_ROWS
    rows = range(start, start + BLOCK_ROWS)
    names = np.array([f"r{k % 7}".encode() for k in rows])
    text = _row_text(start, start + BLOCK_ROWS, [b",", names, b"\n"])
    assert text == "".join(f"{k},r{k % 7}\n" for k in rows).encode()


# A records column whose values in one write all have the same bits is written from one repr
# (fileio._column_fields); these runs put such columns next to varying ones, block by block.
def assert_writes_like_the_per_row_writer(tmp_path, run) -> None:
    write_records_csv(tmp_path / "block.csv", run, PREAMBLE)
    per_row_write_records_csv(tmp_path / "row.csv", run, PREAMBLE)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


@pytest.mark.parametrize("n", [WRITE_ROWS + 1, BLOCK_ROWS + 1], ids=["write-rows+1", "block-rows+1"])
def test_a_column_single_in_one_write_and_not_the_next(tmp_path, n):
    # the last write of each n is one row, so every column of it is single-valued
    readings = np.random.default_rng(n).normal(1.19, 1.0, (n, 4))
    readings[:WRITE_ROWS, 0] = 1.25  # single in the first write only
    readings[WRITE_ROWS:, 1] = -3.5  # single from the second write on
    readings[:, 2] = np.where(np.arange(n) < WRITE_ROWS, 0.7, 0.9)  # a single value per write, another in the next
    readings[WRITE_ROWS - 1, 3] = readings[0, 3]  # equal ends alone do not make a column single
    assert_writes_like_the_per_row_writer(tmp_path, PointerRun(readings, PointerConfig(), "blockwise"))


def test_zero_columns_are_told_apart_by_sign(tmp_path):
    # 0.0 == -0.0, so only the bits tell a column of one zero from one of both; the mixed column's
    # first and last values are equal, so only a check of every value finds its -0.0s
    n = WRITE_ROWS + 3
    readings = np.random.default_rng(1).normal(1.19, 1.0, (n, 4))
    readings[:, 0] = -0.0
    readings[:, 1] = 0.0
    readings[[5, WRITE_ROWS // 2, WRITE_ROWS + 1], 1] = -0.0
    run = PointerRun(readings, PointerConfig(), "zeros")
    assert np.signbit(run.readings[:, 0]).all() and np.signbit(run.readings[:, 1]).sum() == 3
    assert_writes_like_the_per_row_writer(tmp_path, run)


@pytest.mark.parametrize("value", [1e-5, 1e17, 5e-324, -2.5e-300, -1e300], ids=repr)
def test_single_values_outside_the_kernel_range(tmp_path, value):
    assert not FIELD_LOW <= abs(value) < FIELD_HIGH
    readings = np.random.default_rng(2).normal(1.19, 1.0, (WRITE_ROWS + 1, 4))
    readings[:, 2] = value
    assert_writes_like_the_per_row_writer(tmp_path, PointerRun(readings, PointerConfig(), "outside"))


@pytest.mark.parametrize("n", [1, WRITE_ROWS, BLOCK_ROWS + 1])
def test_a_noiseless_calibrated_run(tmp_path, n):
    # at sigma = 0 every column but r_B2 holds one value, and r_B2 is 0.0 times standard normals: +-0.0
    run = per_pair_b_values_calibrated(2.8284271247461903, PointerConfig(noise_sd=0.0), n, 1)
    bits = np.column_stack([run.readings, run.b_values]).view(np.uint64)
    assert [len(np.unique(column)) for column in bits.T] == [1, 1, 1, 1 if n == 1 else 2, 1]
    assert_writes_like_the_per_row_writer(tmp_path, run)


def test_single_valued_columns_skip_the_kernel(tmp_path, monkeypatch):
    # the calibrated source's r_B1 is noiseless: four columns of each write reach _float_fields, none
    # of them single-valued, and a last write of one row reaches it not at all
    calls = []

    def spy(values):
        calls.append(values.copy())
        return _float_fields(values)

    monkeypatch.setattr(fileio, "_float_fields", spy)
    run = per_pair_b_values_calibrated(2.8284271247461903, PointerConfig(), 2 * WRITE_ROWS + 1, 1)
    write_records_csv(tmp_path / "records.csv", run)
    assert [len(values) for values in calls] == [WRITE_ROWS] * 8
    assert not any((values.view(np.uint64) == values.view(np.uint64)[0]).all() for values in calls)
