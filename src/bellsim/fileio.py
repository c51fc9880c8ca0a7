"""Text formats for bundles, pointer records, curves, behaviors, models, studies and states.

Written files may start with ``# key: value`` comment lines (the run's
provenance); all readers skip them.  Floats are written as repr writes them,
which round-trips float64 exactly, so save/load cycles are lossless and
byte-stable.  Every writer writes bytes through ``_write_lines``, so lines end
in ``\n`` on every OS; text readers break lines at ``\n``, ``\r\n`` and ``\r``
only.  ``read_keyvalue`` reads each ``key = value`` format with its key table.

The CSV writers stream a block of rows at a time, so a file of millions of rows
never exists whole in memory.  Writing, not sampling, is what a large file
costs, so the bundle and records writers build their rows with numpy alone,
through one row builder.  It writes ``WRITE_ROWS`` = ``BLOCK_ROWS`` / 2 rows at
a time, so a write never leaves one of the ``BLOCK_ROWS`` = 10^4-row blocks in
which trial indices share their leading digits: within block q > 0 every trial
index is ``str(q)`` followed by the index inside the block, zero-padded to four
digits from a cached digit table (block 0 has no prefix and no padding).  Each
row is a record of NUL-padded byte strings in one numpy record array: the
block's prefix, the index in the block, then the row's fields.  A bundle row's
field is the context's suffix such as ``",1,2,-1,1\n"``, picked by the pair's
``core.outcome_codes`` code; a pointer record's are five float fields with
commas and a newline.  The field arrays are dropped, then every NUL byte with
one mask, and the rest is the rows' text.

``_float_fields`` writes repr's bytes into NUL-padded 24-byte fields.  Within
repr's positional range, 1e-4 <= |x| < 1e16, it finds repr's shortest
round-trip digits in exact integer arithmetic; repr itself writes every other
value (zeros, subnormals, NaN, infinities and the magnitudes outside that
range).  Each call takes one column of one WRITE_ROWS block: a call of five
columns wrote 50 000 records 7% faster, small runs 13% slower at 9% more RSS.

The bundle reader likewise reads ``READ_BYTES`` at a time, in binary, and cuts
each block after its last line end.  A block of canonical rows
(``digits,d,d,-?d,-?d\n``, as the writer writes them) is parsed by numpy
alone, each row read back from its newline, into int8 columns i, j, a, b.  Any
other block (comments, blank lines, ``\r``, spaces, a trial index of 19 or
more digits) goes through ``np.loadtxt`` as int64, which decides what is
accepted.  The trial column is checked and dropped, so a canonical bundle
costs the reader 4 bytes per row, not an N x 5 int64 array.

  bundle                 trial,context_i,context_j,a,b   (canonical context order)
  pointer records        trial,rA1,rA2,rB1,rB2,bvalue    (repr floats)
  significance curve     n,trials,frequency,ci_lo,ci_hi,mean_s,sd_s,z   (repr floats)
  behavior               "context i j = p p p p" lines, optional "counts i j = ..." (keys: BEHAVIOR_KEYS)
  model specification    "key = value" lines with a "variant" key (keys: MODEL_KEYS)
  study specification    "key = value" lines (keys: STUDY_KEYS)
  density matrix         16 "re im" lines, row-major, comma or space separated (read only)
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import astuple
from pathlib import Path
from typing import Any, BinaryIO

import numpy as np

from .behaviors import Behavior
from .core import CANONICAL_CONTEXTS, OUTCOME_PAIRS, Context, ContextDataset, ExperimentBundle, outcome_codes
from .errors import ConfigError
from .lhv import MixtureModel, model_from_mapping
from .quantum import DensityMatrix
from .stats import StudyResult
from .weak import PointerRun

__all__ = [
    "BEHAVIOR_KEYS",
    "MODEL_KEYS",
    "STUDY_KEYS",
    "read_behavior",
    "read_bundle_csv",
    "read_density",
    "read_keyvalue",
    "read_model",
    "write_behavior",
    "write_bundle_csv",
    "write_curve_csv",
    "write_records_csv",
]

BUNDLE_HEADER = "trial,context_i,context_j,a,b"
RECORDS_HEADER = "trial,rA1,rA2,rB1,rB2,bvalue"
CURVE_HEADER = "n,trials,frequency,ci_lo,ci_hi,mean_s,sd_s,z"  # StudyRow's fields, in order

def _data_lines(path: Path) -> list[str]:
    """The stripped lines that are neither blank nor comments, broken at ``\\n``, ``\\r\\n`` and ``\\r`` only."""
    try:
        lines = [ln.decode("utf-8").strip() for ln in Path(path).read_bytes().splitlines()]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return [ln for ln in lines if ln and not ln.startswith("#")]


def _write_lines(path: Path, preamble: Mapping[str, Any] | None, lines: Iterable[bytes]) -> None:
    """Write the preamble as ``# key: value`` comment lines, then the lines' bytes, in binary."""
    with Path(path).open("wb") as handle:
        handle.writelines(f"# {key}: {value}\n".encode() for key, value in (preamble or {}).items())
        handle.writelines(lines)


# Rows per block: a power of ten, so that a block's trial indices share their leading digits.
BLOCK_DIGITS = 4
BLOCK_ROWS = 10**BLOCK_DIGITS
# Rows per write: half a block bounds the text held at once, and no write crosses a block.
WRITE_ROWS = BLOCK_ROWS // 2


@functools.cache
def _bundle_tables() -> tuple[np.ndarray, np.ndarray, dict[Context, np.ndarray]]:
    """Byte-string tables of CSV rows, built on first use.

    The indices 0 .. BLOCK_ROWS - 1 as text zero-padded to BLOCK_DIGITS (the
    part of a trial index after its block's prefix) and unpadded (block 0),
    and per context the bundle row text after the trial index, indexed by the
    pair's ``outcome_codes`` code.  numpy pads the shorter strings with NUL bytes.
    """
    index = np.arange(BLOCK_ROWS)
    digits = index[:, None] // 10 ** np.arange(BLOCK_DIGITS - 1, -1, -1) % 10 + ord("0")
    padded = digits.astype(np.uint8).view(f"S{BLOCK_DIGITS}")[:, 0]
    unpadded = index.astype(f"S{BLOCK_DIGITS}")
    suffixes = {
        c: np.array([f",{c.alice},{c.bob},{a},{b}\n".encode() for a, b in OUTCOME_PAIRS.tolist()])
        for c in CANONICAL_CONTEXTS
    }
    return padded, unpadded, suffixes


def _row_text(start: int, stop: int, fields: Iterable[bytes | np.ndarray]) -> bytes:
    """Text of rows start .. stop - 1, which lie in one BLOCK_ROWS block: each trial index, then its fields.

    A field is one byte string for every row or an array of one NUL-padded
    byte string per row.  Each row is a record of NUL-padded byte strings:
    the block's prefix (block 0's is empty, one NUL), the index in the block
    and the fields.  Dropping every NUL byte of the records leaves their text.
    """
    block, offset = divmod(start, BLOCK_ROWS)
    padded, unpadded, _ = _bundle_tables()
    prefix = str(block).encode() if block else b""
    fields = [prefix, (padded if block else unpadded)[offset:offset + stop - start], *fields]
    rows = np.empty(stop - start, [(f"f{k}", np.asarray(field).dtype) for k, field in enumerate(fields)])
    for name, field in zip(rows.dtype.names, fields):
        rows[name] = field
    del fields  # not held while the mask and the text are made
    text = rows.view(np.uint8)
    return text[text != 0].tobytes()


def _bundle_blocks(dataset: ContextDataset) -> Iterator[bytes]:
    """Bytes of the dataset's rows ``k,i,j,a,b``, WRITE_ROWS rows per block."""
    suffix = _bundle_tables()[2][dataset.context]
    codes = outcome_codes(dataset.pairs)
    for start in range(0, codes.shape[0], WRITE_ROWS):
        stop = min(start + WRITE_ROWS, codes.shape[0])
        yield _row_text(start, stop, [suffix[codes[start:stop]]])


def write_bundle_csv(
    path: Path, bundle: ExperimentBundle, preamble: Mapping[str, Any] | None = None
) -> None:
    blocks = (_bundle_blocks(d) for d in bundle.datasets)
    _write_lines(path, preamble, itertools.chain([f"{BUNDLE_HEADER}\n".encode()], *blocks))


# Bytes of a float field: repr of any float64 fits ("-2.2250738585072014e-308" has 24).
FIELD_BYTES = 24
# repr writes |x| in [FIELD_LOW, FIELD_HIGH) positionally; _float_fields computes those fields.
FIELD_LOW, FIELD_HIGH = 1e-4, 1e16
# Such an x scales by 10**k, 1 <= k <= MAX_SCALE, into [10**16, 10**17): MAX_DIGITS digits.
MAX_DIGITS, MAX_SCALE = 17, 20
Y_LOW, Y_HIGH = 1e16, 1e17
# Veltkamp's splitter for float64: 2**27 + 1.
SPLITTER = 134217729.0


@functools.cache
def _float_tables() -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The powers of ten as float64 (exact up to 10**22) and int64, and the field layouts.

    A field's bytes come from 24 digit bytes, seven ``0`` and then the 17
    digits of y = |x| * 10**k: byte p takes the digit byte p + 1 before the
    decimal point, the digit byte p after it, or a constant (``.`` and ``-``).
    Each (k, j, sign) has one row per source, 1 where byte p takes it (the
    constant's own byte), else 0, which leaves a NUL.  With x = 0.d1d2... *
    10**decpt, decpt = 17 - k, the integer part starts at byte 6 (the units
    ``0`` of ``0.000d`` at byte 5 + decpt), the point is byte 6 + decpt, and
    the fraction ends with the last of the 17 - j significant digits, or with
    a ``0`` after the point.
    """
    p = np.arange(FIELD_BYTES)
    k = np.arange(MAX_SCALE + 1)[:, None, None, None]
    j = np.arange(MAX_DIGITS + 1)[None, :, None, None]
    negative = np.arange(2)[None, None, :, None]
    decpt = MAX_DIGITS - k
    point = 6 + decpt
    first = np.where(decpt > 0, 6, point - 1)
    kept = (p >= first) & (p <= np.maximum(6 + MAX_DIGITS - j, point + 1))
    constant = np.where(p == point, ord("."), 0) + np.where((p == first - 1) & (negative == 1), ord("-"), 0)
    shape = (MAX_SCALE + 1, MAX_DIGITS + 1, 2, FIELD_BYTES)
    layouts = tuple(
        np.broadcast_to(table, shape).reshape(-1, FIELD_BYTES).astype(np.uint8)
        for table in (kept & (p < point), kept & (p > point), constant)
    )
    return 10.0 ** np.arange(23), 10 ** np.arange(19, dtype=np.int64), layouts


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a as hi + lo, each of at most 26 significant bits (Veltkamp)."""
    t = a * SPLITTER
    hi = t - (t - a)
    return hi, a - hi


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rounded product a*b and its exact rounding error (Dekker, Numer. Math. 18, 224 (1971))."""
    product = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return product, ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _float_fields(values: np.ndarray) -> np.ndarray:
    """(n, FIELD_BYTES) uint8: ``repr(float(x)).encode()`` of each float64, NUL-padded.

    repr writes the shortest digits that read back as x, the nearest to x if
    several are as short.  For FIELD_LOW <= |x| < FIELD_HIGH, repr's
    positional range, they are found in exact integer arithmetic; repr writes
    every other value (zeros, subnormals, NaN, infinities) itself:

    - y = |x| * 10**k in [10**16, 10**17) is P + e exactly (Dekker's product,
      P int64, |e| <= 8), and the reals that round to x scale to
      [y - h, y + h], h = ulp(x) * 10**k / 2, whose ends are exact too.
    - The digits are the multiple of 10**j nearest y, ties to an even
      quotient, for the largest j with a multiple of 10**j in that interval,
      counted a power at a time over the whole call until no interval has one.
    - The interval is taken closed and symmetric.  An end y +- h is a
      multiple of 10 only for x in [2**53, 10**16), where the ends 10(x +- 1)
      are odd multiples of 10 and y = 10x itself is the answer, so whether an
      end belongs to the interval (x's parity) never matters.  Only a power
      of two has a nearer lower neighbour; the test over every power of two
      covers them.
    - The 16 digits after the first are two uint32 halves of 8, cut into 4-digit
      groups by ``//`` and a multiply-subtract, not int64 ``%`` (4 ns a value).
    """
    pow10, pow10_int, (before, after, constant) = _float_tables()
    n = values.shape[0]
    magnitude = np.abs(values)
    computed = (magnitude >= FIELD_LOW) & (magnitude < FIELD_HIGH)
    x = np.where(computed, magnitude, 1.0000000000000002)  # its 17 digits give j = 0: no longer search
    # np.log10's k is off by at most one next to a power of ten; the exact comparison mends it
    k = np.int64(MAX_DIGITS - 1) - np.floor(np.log10(x)).astype(np.int64)
    y, e = _two_product(x, pow10[k])
    shift = ((y < Y_LOW) | ((y == Y_LOW) & (e < 0))).astype(np.int64) - ((y > Y_HIGH) | ((y == Y_HIGH) & (e >= 0)))
    moved = np.flatnonzero(shift)
    if moved.size:
        k[moved] += shift[moved]
        y[moved], e[moved] = _two_product(x[moved], pow10[k[moved]])
    whole = y.astype(np.int64)
    # y = M * 5**k * 2**(q+k) for x = M * 2**q, M < 2**53, so y >= 10**16 and k <= 20 give q + k >= -46:
    # e and h are multiples of 2**(q+k-1) and |e +- h| < 32, so e +- h needs at most 52 bits, exact
    half_width = np.spacing(x) * pow10[k] * 0.5
    upper = whole + np.floor(e + half_width).astype(np.int64)
    lower = whole + np.ceil(e - half_width).astype(np.int64)
    # j <= 16: 10**17 in the interval would read back as x < 10**17 / 10**k, a power of ten above x;
    # 10**m is a double for m >= 0, and 0.1 to 0.0001 read back as doubles above them
    j = np.zeros(n, dtype=np.int64)
    for power in pow10_int[1:MAX_DIGITS]:
        found = upper // power * power >= lower
        if not found.any():
            break
        j += found
    # 2y = twice + g, twice an integer and 0 <= g < 1: a tie needs g = 0, and only g > 0 is tested
    two_e = 2.0 * e
    floor_two_e = np.floor(two_e)
    twice = np.int64(2) * whole + floor_two_e.astype(np.int64)
    unit = pow10_int[j]
    quotient, rest = np.divmod(twice, np.int64(2) * unit)
    odd = (quotient & np.int64(1)).astype(bool)
    digits = (quotient + ((rest > unit) | ((rest == unit) & ((floor_two_e != two_e) | odd)))) * unit
    # seven '0' bytes and the 17 digits, in 4-digit groups; a spare row for the view one byte on
    groups = np.zeros((n + 1, FIELD_BYTES // 4), dtype=np.uint32)
    table = _bundle_tables()[0].view(np.uint32)
    groups[:, 0] = table[0]
    lead = digits // pow10_int[MAX_DIGITS - 1]
    low = digits - lead * pow10_int[MAX_DIGITS - 1]
    high = low // pow10_int[8]
    groups[:n, 1] = table[lead]
    for column, half in zip((2, 4), np.stack([high, low - high * pow10_int[8]]).astype(np.uint32)):
        group = half // np.uint32(BLOCK_ROWS)  # the table's size, 10**4
        groups[:n, column], groups[:n, column + 1] = table[group], table[half - group * np.uint32(BLOCK_ROWS)]
    text = groups.view(np.uint8).reshape(-1)
    layout = (k * np.int64(MAX_DIGITS + 1) + j) * np.int64(2) + (values < 0)
    fields = np.take(before, layout, axis=0).reshape(-1)
    fields *= text[1:n * FIELD_BYTES + 1]
    fields += np.take(after, layout, axis=0).reshape(-1) * text[:n * FIELD_BYTES]
    fields += np.take(constant, layout, axis=0).reshape(-1)
    fields = fields.reshape(n, FIELD_BYTES)
    others = np.flatnonzero(~computed)
    if others.size:
        fields[others] = np.array(
            [repr(v).encode() for v in values[others].tolist()], dtype=f"S{FIELD_BYTES}"
        ).view(np.uint8).reshape(-1, FIELD_BYTES)
    return fields


# Bytes read from a bundle file at a time (of 64 KiB to 4 MiB, the fastest).
READ_BYTES = 256 * 1024
# Bytes split into lines at a time in search of the header, which sits near the top.
HEAD_BYTES = 4096

# Byte codes of the canonical bundle rows' alphabet, as uint8 so that no comparison depends on
# numpy's promotion rules.
NEWLINE, COMMA, MINUS, ZERO, NINE = (np.uint8(ord(c)) for c in "\n,-09")
# The shortest canonical row, "0,1,1,1,1\n".
MIN_ROW_BYTES = 10
# Trial indices of up to 18 digits fit int64, whose largest value has 19.
MAX_TRIAL_DIGITS = 18
# Bytes of a wrong header line quoted in its error: a long line gives no long message.
QUOTE_BYTES = 80


def _line_blocks(handle: BinaryIO) -> Iterator[bytes]:
    """The handle's bytes in blocks of whole lines, each cut after its last ``\\n`` or ``\\r``.

    A line longer than a read is carried as a list of parts, joined once its
    end arrives, so a file with no line break is copied once, not per read.
    The last block lacks a line end if the file does.
    """
    carry: list[bytes] = []
    while read := handle.read(READ_BYTES):
        cut = max(read.rfind(b"\n"), read.rfind(b"\r")) + 1
        if cut:
            block, carry = b"".join([*carry, read[:cut]]), [read[cut:]]
            del read  # while the block is parsed, hold no second copy of its last read
            yield block
        else:
            carry.append(read)
    tail = b"".join(carry)
    carry.clear()  # while the tail is parsed, hold no second copy of it
    if tail:
        yield tail


def _canonical_rows(block: bytes) -> np.ndarray | None:
    """The 4 x n int8 columns i, j, a, b of a block of canonical rows, or None.

    A canonical row is ``digits,d,d,-?d,-?d\\n``, as ``write_bundle_csv``
    writes it.  Each row is read back from its newline: a digit, an optional
    ``-`` and a ``,`` per field.  The block qualifies only if it holds no byte
    but ``0-9 , - \\n``, has exactly four commas per row and no ``-`` but the
    signs found, and every trial field has 1 to MAX_TRIAL_DIGITS digits, so
    that ``np.loadtxt`` would read the same numbers from it.

    Each read is a 1-D gather, each comma checked on its own, and the signs
    multiply by 1 - 2 * sign: a (4, n) gather and boolean-index writes cost more.
    """
    text = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(text == NEWLINE)
    if not ends.size or ends[-1] != text.size - 1 or np.diff(ends, prepend=-1).min() < MIN_ROW_BYTES:
        return None
    digits = np.count_nonzero(text - ZERO <= NINE - ZERO)
    commas = np.count_nonzero(text == COMMA)
    minuses = np.count_nonzero(text == MINUS)
    if digits + commas + minuses + ends.size != text.size or commas != 4 * ends.size:
        return None
    b_sign = text[ends - 2] == MINUS
    b_comma = ends - 2 - b_sign
    a_sign = text[b_comma - 2] == MINUS
    trial_comma = b_comma - 6 - a_sign
    # every row spans MIN_ROW_BYTES or more, so trial_comma lies at or after the row's preceding
    # newline, or at -1 in the first row (the block's last byte, a newline: no comma); then
    # text[k:][trial_comma] is the byte k on, read with no index sum
    trial_digits = trial_comma - np.concatenate(([0], ends[:-1] + 1))
    columns = np.stack([text[1:][trial_comma], text[3:][trial_comma], text[b_comma - 1], text[ends - 1]]) - ZERO
    if not (
        (columns <= NINE - ZERO).all()
        and all((text[k:][trial_comma] == COMMA).all() for k in (0, 2, 4))
        and (text[b_comma] == COMMA).all()
        and minuses == np.count_nonzero(a_sign) + np.count_nonzero(b_sign)
        and ((trial_digits >= 1) & (trial_digits <= MAX_TRIAL_DIGITS)).all()
    ):
        return None
    columns = columns.view(np.int8)
    columns[2] *= 1 - 2 * a_sign.view(np.int8)
    columns[3] *= 1 - 2 * b_sign.view(np.int8)
    return columns


def _header_rest(path: Path, blocks: Iterator[bytes]) -> bytes:
    """What follows the header line in its block; ConfigError unless the first data line is the header."""
    for block in blocks:
        start = 0
        while start < len(block):
            # HEAD_BYTES or so, cut after a newline so that no line is split
            window = block[start:block.find(b"\n", start + HEAD_BYTES) + 1 or len(block)]
            for line in window.splitlines(keepends=True):
                start += len(line)
                line = line.strip()
                if line and not line.startswith(b"#"):
                    if line != BUNDLE_HEADER.encode():
                        cut = "..." if len(line) > QUOTE_BYTES else ""
                        found = repr(line[:QUOTE_BYTES].decode(errors="replace")) + cut
                        raise ConfigError(f"{path}: expected header {BUNDLE_HEADER!r}, found {found}")
                    return block[start:]
    raise ConfigError(f"{path}: expected header {BUNDLE_HEADER!r}, found '<empty>'")


def _bundle_rows(path: Path, block: bytes) -> np.ndarray:
    """The 4 x n columns i, j, a, b of a block's rows: int8 if canonical, else int64 from ``np.loadtxt``."""
    rows = _canonical_rows(block)
    if rows is not None:
        return rows
    lines = [ln for ln in map(bytes.strip, block.splitlines()) if ln and not ln.startswith(b"#")]
    if not lines:
        return np.empty((4, 0), dtype=np.int8)
    try:
        data = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed CSV body: {exc}") from exc
    columns = BUNDLE_HEADER.count(",") + 1
    if data.shape[1] != columns:
        raise ConfigError(f"{path}: expected {columns} columns, got {data.shape[1]}")
    return data[:, 1:].T


def read_bundle_csv(path: Path) -> ExperimentBundle:
    with Path(path).open("rb") as handle:
        blocks = _line_blocks(handle)
        rest = _header_rest(path, blocks)
        i, j, a, b = np.concatenate(
            [_bundle_rows(path, block) for block in itertools.chain((rest,), blocks)], axis=1
        )
    # each row's (a, b) as one item, so that a context's rows are one 1-D gather
    rows = np.stack([a, b], axis=1).view(np.dtype((np.void, 2 * a.itemsize)))[:, 0]
    datasets = []
    for context in CANONICAL_CONTEXTS:
        pairs = rows[(i == context.alice) & (j == context.bob)].view(a.dtype).reshape(-1, 2)
        if pairs.shape[0] == 0:
            raise ConfigError(f"{path}: no rows for context {context}")
        datasets.append(ContextDataset(context, pairs))
    if i.size != sum(d.n_pairs for d in datasets):
        raise ConfigError(f"{path}: rows outside the four canonical contexts")
    return ExperimentBundle(tuple(datasets))


def _records_blocks(run: PointerRun) -> Iterator[bytes]:
    """Bytes of the rows ``k,rA1,rA2,rB1,rB2,bvalue``, WRITE_ROWS rows per block."""
    columns = [*run.readings.T, run.b_values]
    for start in range(0, len(run), WRITE_ROWS):
        stop = min(start + WRITE_ROWS, len(run))
        # a column at a time (module docstring): the kernel's intermediates stay a fifth of the block's
        fields = itertools.chain.from_iterable(
            (b",", _float_fields(column[start:stop]).view(f"S{FIELD_BYTES}")[:, 0]) for column in columns
        )
        yield _row_text(start, stop, itertools.chain(fields, [b"\n"]))


def write_records_csv(
    path: Path, run: PointerRun, preamble: Mapping[str, Any] | None = None
) -> None:
    """Per-pair pointer records: the four readings and the B-value of each pair."""
    _write_lines(path, preamble, itertools.chain([f"{RECORDS_HEADER}\n".encode()], _records_blocks(run)))


def write_curve_csv(
    path: Path, result: StudyResult, preamble: Mapping[str, Any] | None = None
) -> None:
    """One row per sample size of a significance curve: n and trials, then repr floats."""
    rows = ((f"{r.n},{r.trials}," + ",".join(map(repr, astuple(r)[2:])) + "\n").encode() for r in result.rows)
    _write_lines(path, preamble, itertools.chain([f"{CURVE_HEADER}\n".encode()], rows))


def _values(convert: Callable[[str], Any], count: int | None = None) -> Callable[[str], list]:
    """Parser of a list of values separated by commas or spaces (exactly ``count``, if given)."""

    def parse(text: str) -> list:
        values = [convert(v) for v in text.replace(",", " ").split()]
        if count is not None and len(values) != count:
            raise ValueError(f"expected {count} values, got {len(values)}")
        return values

    return parse


# Value parser of each key a model file may hold; model_from_mapping checks
# which keys its variant takes.
MODEL_KEYS: dict[str, Callable[[str], Any]] = {
    "variant": str,
    "outcomes": _values(int),
    **dict.fromkeys(("a1", "a2", "b1", "b2", "bob_sign"), float),
    "strategies": lambda text: [_values(int)(row) for row in text.split(";")],
    "weights": _values(float),
}

# Value parser of each key a violation-curve study spec may hold; each key
# sets the command-line argument of the same name.
STUDY_KEYS: dict[str, Callable[[str], Any]] = {
    **dict.fromkeys(("generator", "model", "behavior", "mode"), str),
    "angles": _values(float, 4),
    "outcomes": _values(int, 4),
    "bob_sign": float,
    "n": _values(int),
    **dict.fromkeys(("trials", "seed"), int),
    "threshold": float,
}

# Value parser of each key a behavior file may hold: the four probabilities
# p(++) p(+-) p(-+) p(--) of each context, then (optional) its four counts,
# each kind in canonical context order.
BEHAVIOR_KEYS: dict[str, Callable[[str], Any]] = {
    f"{kind} {c.alice} {c.bob}": parse
    for kind, parse in (("context", _values(float, 4)), ("counts", _values(int, 4)))
    for c in CANONICAL_CONTEXTS
}


def read_keyvalue(path: Path, keys: Mapping[str, Callable[[str], Any]]) -> dict[str, Any]:
    """Parse a 'key = value' file, reading each value with its key's parser.

    Unknown and duplicate keys, and values their parser rejects, are ConfigErrors.
    """
    mapping: dict[str, Any] = {}
    unknown = []
    for line in _data_lines(Path(path)):
        if "=" not in line:
            raise ConfigError(f"{path}: expected 'key = value' lines, got {line!r}")
        key, _, value = line.partition("=")
        key = " ".join(key.split())
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}: malformed line {line!r}")
        if key in mapping or key in unknown:
            raise ConfigError(f"{path}: duplicate key {key!r}")
        if key not in keys:
            unknown.append(key)
            continue
        try:
            mapping[key] = keys[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {value!r} ({exc})") from exc
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}; expected some of {sorted(keys)}")
    return mapping


def write_behavior(
    path: Path, behavior: Behavior, preamble: Mapping[str, Any] | None = None
) -> None:
    """Four ``context i j`` lines of repr floats, then four ``counts i j`` lines if the behavior has counts."""
    rows = behavior.probs.tolist() + ([] if behavior.counts is None else behavior.counts.tolist())
    lines = (f"{key} = {' '.join(map(repr, row))}\n".encode() for key, row in zip(BEHAVIOR_KEYS, rows))
    _write_lines(path, preamble, lines)


def read_behavior(path: Path) -> Behavior:
    """Parse a behavior file (keys: BEHAVIOR_KEYS); counts are given for all four contexts or none."""
    mapping = read_keyvalue(Path(path), BEHAVIOR_KEYS)
    rows = [mapping.get(key) for key in BEHAVIOR_KEYS]
    probs, counts = rows[:4], rows[4:]
    if None in probs:
        raise ConfigError(f"{path}: missing context lines (need all four)")
    if counts.count(None) not in (0, 4):
        raise ConfigError(f"{path}: counts given for only some contexts")
    return Behavior(probs, None if None in counts else counts)


def read_model(path: Path) -> MixtureModel:
    """Parse a 'key = value' model file into a built-in LHV model."""
    return model_from_mapping(read_keyvalue(Path(path), MODEL_KEYS))


def read_density(path: Path) -> DensityMatrix:
    """Parse 16 ``re im`` lines, row-major; the two numbers are separated by a comma or spaces."""
    entries = []
    for line in _data_lines(Path(path)):
        try:
            entries.append(complex(*_values(float, 2)(line)))
        except ValueError as exc:
            raise ConfigError(f"{path}: each line must hold 're im': {line!r} ({exc})") from exc
    if len(entries) != 16:
        raise ConfigError(f"{path}: need 16 entries, got {len(entries)}")
    return DensityMatrix(np.array(entries, dtype=np.complex128).reshape(4, 4))
