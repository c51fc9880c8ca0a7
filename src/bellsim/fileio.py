"""Text formats for tables, bundles, behaviors, models, states, and angles.

CSV files may start with ``# key: value`` comment lines (run metadata); all
readers skip them.  Floats are written with repr, which round-trips float64
exactly, so save/load cycles are lossless and byte-stable.

The CSV writers stream: rows are formatted and written ``CHUNK_ROWS`` at a
time, so a file of millions of rows never exists as one string in memory.
Writing, not sampling, is what a large bundle costs, so the integer writers
do as little per row as they can: outcomes are validated +/-1, so each row's
columns map to a small code (one bit per column) that indexes a precomputed
suffix such as ``",1,2,-1,1\n"``, and a row is just ``str(k)`` plus that
suffix.

  counterfactual table   trial,a1,a2,b1,b2
  context dataset        trial,a,b
  bundle                 trial,context_i,context_j,a,b   (canonical context order)
  pointer records        trial,rA1,rA2,rB1,rB2,bvalue    (repr floats)
  behavior               "context i j = p p p p" lines, optional "counts i j = ..."
  model specification    "key = value" lines with a "variant" key (keys: MODEL_KEYS)
  study specification    "key = value" lines (keys: STUDY_KEYS)
  density matrix         16 "re im" lines, row-major
  angle quadruple        one line: a1 a2 b1 b2 (radians)
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from pathlib import Path
from typing import Any

import numpy as np

from .behaviors import Behavior
from .core import (
    CANONICAL_CONTEXTS,
    Context,
    ContextDataset,
    CounterfactualTable,
    ExperimentBundle,
)
from .errors import ConfigError
from .lhv import LhvModel, model_from_mapping
from .quantum import AngleQuadruple, DensityMatrix
from .weak import PointerRun

__all__ = [
    "MODEL_KEYS",
    "STUDY_KEYS",
    "read_angles",
    "read_behavior",
    "read_bundle_csv",
    "read_dataset_csv",
    "read_density",
    "read_keyvalue",
    "read_model",
    "read_table_csv",
    "write_angles",
    "write_behavior",
    "write_bundle_csv",
    "write_dataset_csv",
    "write_density",
    "write_records_csv",
    "write_table_csv",
]

TABLE_HEADER = "trial,a1,a2,b1,b2"
DATASET_HEADER = "trial,a,b"
BUNDLE_HEADER = "trial,context_i,context_j,a,b"
RECORDS_HEADER = "trial,rA1,rA2,rB1,rB2,bvalue"

# Rows formatted per write: bounds the text held in memory at once.
CHUNK_ROWS = 8192


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


def _next_data_line(lines: Iterator[bytes]) -> bytes | None:
    """Advance past blank and comment lines; the lines must be stripped."""
    return next((ln for ln in lines if ln and not ln.startswith(b"#")), None)


def _read_int_csv(path: Path, header: str) -> np.ndarray:
    columns = header.count(",") + 1
    lines = map(bytes.strip, Path(path).read_bytes().splitlines())
    first = _next_data_line(lines)
    if first != header.encode():
        found = "<empty>" if first is None else first.decode(errors="replace")
        raise ConfigError(f"{path}: expected header {header!r}, found {found!r}")
    row = _next_data_line(lines)
    if row is None:
        return np.empty((0, columns), dtype=np.int64)
    try:
        # loadtxt itself skips the blank and comment lines still to come
        data = np.loadtxt(
            itertools.chain((row,), lines), delimiter=",", dtype=np.int64, ndmin=2
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed CSV body: {exc}") from exc
    if data.shape[1] != columns:
        raise ConfigError(f"{path}: expected {columns} columns, got {data.shape[1]}")
    return data


def _write_csv(
    path: Path, header: str, preamble: Mapping[str, Any] | None, blocks: Iterable[str]
) -> None:
    """Write preamble comments, the header, then the row text blocks in order."""
    with Path(path).open("w") as handle:
        handle.write("\n".join(_preamble_lines(preamble) + [header]) + "\n")
        handle.writelines(blocks)


def _suffixes(prefix: str, columns: int) -> list[str]:
    """Row text after the trial index, indexed by the row's code (see _outcome_blocks)."""
    return [
        prefix + "".join(f",{v}" for v in values) + "\n"
        for values in itertools.product((1, -1), repeat=columns)
    ]


_TABLE_SUFFIXES = _suffixes("", 4)
_DATASET_SUFFIXES = _suffixes("", 2)
_BUNDLE_SUFFIXES = {c: _suffixes(f",{c.alice},{c.bob}", 2) for c in CANONICAL_CONTEXTS}


def _outcome_blocks(outcomes: np.ndarray, suffixes: list[str]) -> Iterator[str]:
    """Text of rows ``k,<outcomes[k]>``, CHUNK_ROWS rows per block.

    A row's code has one bit per column, set where the outcome is -1, first
    column highest: the order in which ``_suffixes`` enumerates them.
    """
    weights = 1 << np.arange(outcomes.shape[1] - 1, -1, -1)
    codes = (outcomes < 0) @ weights
    for start in range(0, codes.shape[0], CHUNK_ROWS):
        chunk = codes[start:start + CHUNK_ROWS].tolist()
        yield "".join([f"{k}{suffixes[c]}" for k, c in zip(range(start, start + len(chunk)), chunk)])


def write_table_csv(
    path: Path, table: CounterfactualTable, preamble: Mapping[str, Any] | None = None
) -> None:
    _write_csv(path, TABLE_HEADER, preamble, _outcome_blocks(table.outcomes, _TABLE_SUFFIXES))


def read_table_csv(path: Path) -> CounterfactualTable:
    data = _read_int_csv(Path(path), TABLE_HEADER)
    return CounterfactualTable(data[:, 1:5], {"source": str(path)})


def write_dataset_csv(
    path: Path, dataset: ContextDataset, preamble: Mapping[str, Any] | None = None
) -> None:
    _write_csv(path, DATASET_HEADER, preamble, _outcome_blocks(dataset.pairs, _DATASET_SUFFIXES))


def read_dataset_csv(path: Path, context: Context) -> ContextDataset:
    data = _read_int_csv(Path(path), DATASET_HEADER)
    return ContextDataset(context, data[:, 1:3], {"source": str(path)})


def write_bundle_csv(
    path: Path, bundle: ExperimentBundle, preamble: Mapping[str, Any] | None = None
) -> None:
    blocks = itertools.chain.from_iterable(
        _outcome_blocks(d.pairs, _BUNDLE_SUFFIXES[d.context]) for d in bundle.datasets
    )
    _write_csv(path, BUNDLE_HEADER, preamble, blocks)


def read_bundle_csv(path: Path) -> ExperimentBundle:
    data = _read_int_csv(Path(path), BUNDLE_HEADER)
    datasets = []
    for context in CANONICAL_CONTEXTS:
        mask = (data[:, 1] == context.alice) & (data[:, 2] == context.bob)
        pairs = data[mask][:, 3:5]
        if pairs.shape[0] == 0:
            raise ConfigError(f"{path}: no rows for context {context}")
        datasets.append(ContextDataset(context, pairs, {"source": str(path)}))
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
            yield "".join([f"{k},{r[0]!r},{r[1]!r},{r[2]!r},{r[3]!r},{b!r}\n" for k, r, b in rows])

    _write_csv(path, RECORDS_HEADER, preamble, blocks())


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
    probs = np.full((4, 4), np.nan)
    counts = np.full((4, 4), -1, dtype=np.int64)
    for line in _data_lines(Path(path)):
        if "=" not in line:
            raise ConfigError(f"{path}: expected 'context i j = ...' lines, got {line!r}")
        head, _, tail = line.partition("=")
        fields = head.split()
        if len(fields) != 3 or fields[0] not in ("context", "counts"):
            raise ConfigError(f"{path}: unknown directive {head.strip()!r}")
        try:
            context = Context(int(fields[1]), int(fields[2]))
            values = [float(v) for v in tail.split()]
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed line {line!r}: {exc}") from exc
        if len(values) != 4:
            raise ConfigError(f"{path}: need 4 values per context, got {len(values)}")
        if fields[0] == "context":
            probs[context.index] = values
        else:
            counts[context.index] = np.asarray(values, dtype=np.int64)
    if np.isnan(probs).any():
        raise ConfigError(f"{path}: missing context lines (need all four)")
    has_counts = counts >= 0
    if has_counts.any() and not has_counts.all():
        raise ConfigError(f"{path}: counts given for only some contexts")
    return Behavior(probs, counts if has_counts.all() else None)


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


def write_density(
    path: Path, rho: DensityMatrix, preamble: Mapping[str, Any] | None = None
) -> None:
    lines = _preamble_lines(preamble)
    for value in rho.matrix.reshape(-1):
        lines.append(f"{float(value.real)!r} {float(value.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


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


def write_angles(
    path: Path, angles: AngleQuadruple, preamble: Mapping[str, Any] | None = None
) -> None:
    lines = _preamble_lines(preamble)
    lines.append(" ".join(repr(a) for a in angles.as_tuple()))
    Path(path).write_text("\n".join(lines) + "\n")


def read_angles(path: Path) -> AngleQuadruple:
    lines = _data_lines(Path(path))
    if len(lines) != 1:
        raise ConfigError(f"{path}: expected a single line of four angles")
    try:
        values = [float(v) for v in lines[0].split()]
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed angles: {exc}") from exc
    if len(values) != 4:
        raise ConfigError(f"{path}: need exactly 4 angles, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{path}: angles must be finite")
    return AngleQuadruple(*values)
