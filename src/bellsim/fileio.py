"""Text formats for bundles, pointer records, curves, behaviors, models, studies and states.

CSV files may start with ``# key: value`` comment lines (the run's provenance); all
readers skip them.  Floats are written with repr, which round-trips float64
exactly, so save/load cycles are lossless and byte-stable.

The CSV writers stream bytes to a binary handle, a block of rows at a time, so
a file of millions of rows never exists whole in memory, and every line ends
in ``\n`` on every OS.  The bundle reader likewise reads its file line by
line, so it holds the parsed N x 5 integer array but never the whole text.
Writing, not sampling, is what a large bundle costs, so the bundle writer
builds no Python object per row.  It writes
``BLOCK_ROWS`` = 10^4 rows at a time, each block one numpy record array:
within block q > 0 every trial index is ``str(q)`` followed by the index inside
the block, zero-padded to four digits (block 0 has no prefix and no padding),
so a row is the block's prefix, a line of a cached digit table, and the
context's suffix such as ``",1,2,-1,1\n"``, picked by the pair's
``core.outcome_codes`` code.  NUL bytes pad the shorter strings to one width
and are dropped with one mask before the block is written.

  bundle                 trial,context_i,context_j,a,b   (canonical context order)
  pointer records        trial,rA1,rA2,rB1,rB2,bvalue    (repr floats)
  significance curve     n,trials,frequency,ci_lo,ci_hi,mean_s,sd_s,z   (repr floats)
  behavior               "context i j = p p p p" lines, optional "counts i j = ..."
  model specification    "key = value" lines with a "variant" key (keys: MODEL_KEYS)
  study specification    "key = value" lines (keys: STUDY_KEYS)
  density matrix         16 "re im" lines, row-major (read only)
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import astuple
from pathlib import Path
from typing import Any

import numpy as np

from .behaviors import Behavior
from .core import CANONICAL_CONTEXTS, OUTCOME_PAIRS, Context, ContextDataset, ExperimentBundle, outcome_codes
from .errors import ConfigError
from .lhv import LhvModel, model_from_mapping
from .quantum import DensityMatrix
from .stats import StudyResult
from .weak import PointerRun

__all__ = [
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

# Rows formatted per write: bounds the text held in memory at once.
CHUNK_ROWS = 8192

# What bytes.strip() strips; str.strip() would also strip "\xa0", "\x85" and "\x1c" to "\x1f".
ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


def _preamble_lines(preamble: Mapping[str, Any] | None) -> list[str]:
    if not preamble:
        return []
    return [f"# {key}: {value}" for key, value in preamble.items()]


def _data_lines(path: Path) -> list[str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def _next_data_line(lines: Iterator[str]) -> str | None:
    """Advance past blank and comment lines; the lines must be stripped."""
    return next((ln for ln in lines if ln and not ln.startswith("#")), None)


def _write_csv(
    path: Path, header: str, preamble: Mapping[str, Any] | None, blocks: Iterable[bytes]
) -> None:
    """Write preamble comments, the header, then the row blocks in order."""
    with Path(path).open("wb") as handle:
        handle.write(("\n".join(_preamble_lines(preamble) + [header]) + "\n").encode())
        handle.writelines(blocks)


# Bundle rows per block: a power of ten, so that a block's trial indices share their leading digits.
BLOCK_DIGITS = 4
BLOCK_ROWS = 10**BLOCK_DIGITS


@functools.cache
def _bundle_tables() -> tuple[np.ndarray, np.ndarray, dict[Context, np.ndarray]]:
    """Byte-string tables of bundle rows, built on first use.

    The indices 0 .. BLOCK_ROWS - 1 as text zero-padded to BLOCK_DIGITS (the
    part of a trial index after its block's prefix) and unpadded (block 0),
    and per context the row text after the trial index, indexed by the pair's
    ``outcome_codes`` code.  numpy pads the shorter strings with NUL bytes.
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


def _bundle_blocks(dataset: ContextDataset) -> Iterator[bytes]:
    """Bytes of the dataset's rows ``k,i,j,a,b``, BLOCK_ROWS rows per block.

    Each row is a record of three NUL-padded byte strings: the block number
    (block 0's is empty, one NUL), the index in the block and the suffix.
    Dropping every NUL byte of the block's records leaves its text.
    """
    padded, unpadded, suffixes = _bundle_tables()
    suffix = suffixes[dataset.context]
    codes = outcome_codes(dataset.pairs)
    for block, start in enumerate(range(0, codes.shape[0], BLOCK_ROWS)):
        chunk = codes[start:start + BLOCK_ROWS]
        prefix = str(block).encode() if block else b""
        rows = np.empty(chunk.shape[0], [
            ("prefix", f"S{len(prefix) or 1}"), ("index", padded.dtype), ("suffix", suffix.dtype)
        ])
        rows["prefix"] = prefix
        rows["index"] = (padded if block else unpadded)[:chunk.shape[0]]
        rows["suffix"] = suffix[chunk]
        text = rows.view(np.uint8)
        yield text[text != 0].tobytes()


def write_bundle_csv(
    path: Path, bundle: ExperimentBundle, preamble: Mapping[str, Any] | None = None
) -> None:
    blocks = itertools.chain.from_iterable(_bundle_blocks(d) for d in bundle.datasets)
    _write_csv(path, BUNDLE_HEADER, preamble, blocks)


def read_bundle_csv(path: Path) -> ExperimentBundle:
    columns = BUNDLE_HEADER.count(",") + 1
    # latin-1 gives one character per byte, and text mode splits lines at
    # \n, \r and \r\n, as bytes.splitlines does
    with Path(path).open(encoding="latin-1") as handle:
        lines = map(str.strip, handle, itertools.repeat(ASCII_WHITESPACE))
        first = _next_data_line(lines)
        if first != BUNDLE_HEADER:
            found = "<empty>" if first is None else first.encode("latin-1").decode(errors="replace")
            raise ConfigError(f"{path}: expected header {BUNDLE_HEADER!r}, found {found!r}")
        row = _next_data_line(lines)
        if row is None:
            data = np.empty((0, columns), dtype=np.int64)
        else:
            try:
                # loadtxt itself skips the blank and comment lines still to come
                data = np.loadtxt(
                    itertools.chain((row,), lines), delimiter=",", dtype=np.int64, ndmin=2
                )
            except ValueError as exc:
                raise ConfigError(f"{path}: malformed CSV body: {exc}") from exc
    if data.shape[1] != columns:
        raise ConfigError(f"{path}: expected {columns} columns, got {data.shape[1]}")
    datasets = []
    for context in CANONICAL_CONTEXTS:
        mask = (data[:, 1] == context.alice) & (data[:, 2] == context.bob)
        pairs = data[mask, 3:5]
        if pairs.shape[0] == 0:
            raise ConfigError(f"{path}: no rows for context {context}")
        datasets.append(ContextDataset(context, pairs))
    if int(data.shape[0]) != sum(d.n_pairs for d in datasets):
        raise ConfigError(f"{path}: rows outside the four canonical contexts")
    return ExperimentBundle(tuple(datasets))


def write_records_csv(
    path: Path, run: PointerRun, preamble: Mapping[str, Any] | None = None
) -> None:
    """Per-pair pointer records: the four readings and the B-value of each pair."""

    def blocks() -> Iterator[str]:
        for start in range(0, len(run), CHUNK_ROWS):
            stop = start + CHUNK_ROWS
            readings, b_values = run.readings[start:stop].tolist(), run.b_values[start:stop].tolist()
            rows = zip(range(start, stop), readings, b_values)
            yield "".join([f"{k},{r[0]!r},{r[1]!r},{r[2]!r},{r[3]!r},{b!r}\n" for k, r, b in rows]).encode()

    _write_csv(path, RECORDS_HEADER, preamble, blocks())


def write_curve_csv(
    path: Path, result: StudyResult, preamble: Mapping[str, Any] | None = None
) -> None:
    """One row per sample size of a significance curve: n and trials, then repr floats."""
    rows = ((f"{r.n},{r.trials}," + ",".join(map(repr, astuple(r)[2:])) + "\n").encode() for r in result.rows)
    _write_csv(path, CURVE_HEADER, preamble, rows)


def write_behavior(
    path: Path, behavior: Behavior, preamble: Mapping[str, Any] | None = None
) -> None:
    lines = _preamble_lines(preamble)
    for context in CANONICAL_CONTEXTS:
        probs = " ".join(repr(float(p)) for p in behavior.probs[context.index])
        lines.append(f"context {context.alice} {context.bob} = {probs}")
    if behavior.counts is not None:
        for context in CANONICAL_CONTEXTS:
            counts = " ".join(str(int(c)) for c in behavior.counts[context.index])
            lines.append(f"counts {context.alice} {context.bob} = {counts}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_behavior(path: Path) -> Behavior:
    tables = {"context": np.zeros((4, 4)), "counts": np.zeros((4, 4), dtype=np.int64)}
    given = {kind: np.zeros(4, dtype=bool) for kind in tables}
    for line in _data_lines(Path(path)):
        if "=" not in line:
            raise ConfigError(f"{path}: expected 'context i j = ...' lines, got {line!r}")
        head, _, tail = line.partition("=")
        fields = head.split()
        if len(fields) != 3 or fields[0] not in tables:
            raise ConfigError(f"{path}: unknown directive {head.strip()!r}")
        kind = fields[0]
        convert = float if kind == "context" else int
        try:
            context = Context(int(fields[1]), int(fields[2]))
            values = np.array([convert(v) for v in tail.split()], dtype=tables[kind].dtype)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{path}: malformed line {line!r}: {exc}") from exc
        if len(values) != 4:
            raise ConfigError(f"{path}: need 4 values per context, got {len(values)}")
        if given[kind][context.index]:
            raise ConfigError(f"{path}: repeated line {head.strip()!r}")
        given[kind][context.index] = True
        tables[kind][context.index] = values
    if not given["context"].all():
        raise ConfigError(f"{path}: missing context lines (need all four)")
    if given["counts"].any() and not given["counts"].all():
        raise ConfigError(f"{path}: counts given for only some contexts")
    return Behavior(tables["context"], tables["counts"] if given["counts"].all() else None)


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
        key = key.strip()
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


def read_model(path: Path) -> LhvModel:
    """Parse a 'key = value' model file into a built-in LHV model."""
    return model_from_mapping(read_keyvalue(Path(path), MODEL_KEYS))


def read_density(path: Path) -> DensityMatrix:
    entries = []
    for line in _data_lines(Path(path)):
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"{path}: each line must hold 're im', got {line!r}")
        try:
            entries.append(complex(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed entry {line!r}: {exc}") from exc
    if len(entries) != 16:
        raise ConfigError(f"{path}: need 16 entries, got {len(entries)}")
    return DensityMatrix(np.array(entries, dtype=np.complex128).reshape(4, 4))
