"""The two incompatible data shapes of a Bell-type experiment, and their statistics.

A ``CounterfactualTable`` holds N rows of four jointly existing outcomes
(a1, a2, b1, b2), each in {+1, -1}.  The per-row combination

    C = a1*b1 + a1*b2 + a2*b1 - a2*b2 = a1*(b1+b2) + a2*(b1-b2)

is algebraically pinned to {-2, +2}, so the mean B = <C> cannot leave [-2, 2]
for any finite sample.  An ``ExperimentBundle`` holds four independent
per-context datasets of (a, b) pairs; the signed sum of their four empirical
correlations, S = E11 + E12 + E21 - E22, is only bounded by 4 a priori and can
exceed 2 in finite samples even when each context is generated by the same
predetermined-outcome model.  Every LHV, behavior and Born source holds its
four per-context laws and the label of their streams in one ``ContextStreams``,
which draws its bundles (``sample``) and counts its trials (``plus_counts``).

All types are immutable after construction and all operations are pure,
so everything here is safe to evaluate concurrently.

Context ordering is canonical everywhere: (1,1), (1,2), (2,1), (2,2).
The minus sign in S sits on the fixed (2,2) slot.  This module owns the
layout for all others: ``Context.columns``, ``context_products`` and ``chsh_sum``
(C per row, and S), and ``outcome_rows`` / ``outcome_codes`` (the +/-1 order).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from .errors import DomainError
from .rng import CategoryRuns, category_runs, default_rngs, derive_seeds, sample_size, spawn_rng

__all__ = [
    "CANONICAL_CONTEXTS",
    "CHSH_SIGNS",
    "Context",
    "ContextDataset",
    "ContextStreams",
    "CounterfactualTable",
    "ExperimentBundle",
    "OUTCOME_PAIRS",
    "PAIR_PRODUCTS",
    "b_statistic",
    "chsh_sum",
    "context_products",
    "correlation",
    "plus_count",
    "project_bundle",
    "project_context",
    "row_c_values",
    "s_from_counts",
    "s_statistic",
]

SETTINGS = (1, 2)

# Signs of (E11, E12, E21, E22) in S, canonical context order; chsh_sum applies them.
CHSH_SIGNS = (1.0, 1.0, 1.0, -1.0)


@dataclass(frozen=True, order=True)
class Context:
    """One of the four measurement contexts (i, j), i = Alice setting, j = Bob setting."""

    alice: int
    bob: int

    def __post_init__(self) -> None:
        if self.alice not in SETTINGS or self.bob not in SETTINGS:
            raise DomainError(f"settings must be in {SETTINGS}, got ({self.alice}, {self.bob})")

    @property
    def index(self) -> int:
        """Position in the canonical ordering (1,1), (1,2), (2,1), (2,2)."""
        return (self.alice - 1) * 2 + (self.bob - 1)

    @property
    def columns(self) -> tuple[int, int]:
        """The columns (a_i, b_j) this context reads of a row (a1, a2, b1, b2)."""
        return (self.alice - 1, 2 + self.bob - 1)

    def __str__(self) -> str:
        return f"({self.alice},{self.bob})"


CANONICAL_CONTEXTS = (Context(1, 1), Context(1, 2), Context(2, 1), Context(2, 2))


_END = object()  # what ``next`` gives past an iterator's end


def chsh_sum(values: Iterable[Any]) -> Any:
    """v11 + v12 + v21 - v22 of four numbers or arrays in canonical context order, added left to right.

    Taking each value as it is added frees the arrays of ``context_products`` one by one.  The
    scalar S functions add 0.0 to the result, as a sum started from 0 does: exact-zero S is +0.0.
    """
    values = iter(values)
    try:
        total = next(values) + next(values)  # a new object, so the in-place steps below touch no input
        total += next(values)
        total -= next(values)
    except StopIteration:
        raise DomainError("chsh_sum takes four values, one per context, got fewer") from None
    if next(values, _END) is not _END:
        raise DomainError("chsh_sum takes four values, one per context, got more")
    return total


def context_products(rows: np.ndarray) -> Iterator[np.ndarray]:
    """Lazily, the products a_i * b_j of (n, 4) rows (a1, a2, b1, b2), one per context in canonical order."""
    return (rows[:, a] * rows[:, b] for a, b in (c.columns for c in CANONICAL_CONTEXTS))


def outcome_rows(columns: int) -> np.ndarray:
    """All 2**columns rows of +/-1 outcomes as int8, +1 before -1 and the first column slowest."""
    return np.array(list(itertools.product((1, -1), repeat=columns)), dtype=np.int8)


def outcome_codes(outcomes: np.ndarray) -> np.ndarray:
    """Each +/-1 row's index in ``outcome_rows``, as uint8 (up to 8 columns).

    The code has one bit per column, set where the outcome is -1, first column highest.
    """
    minus = (outcomes < 0).view(np.uint8)
    codes = minus[:, 0]
    for k in range(1, outcomes.shape[1]):
        codes = codes << 1 | minus[:, k]
    return codes


def rows_of_codes(codes: np.ndarray, columns: int) -> np.ndarray:
    """``outcome_rows(columns)[codes]`` for 2 or 4 columns, each row gathered as one 2- or 4-byte word."""
    words = outcome_rows(columns).view(f"u{columns}").ravel()
    return words.take(codes).view(np.int8).reshape(-1, columns)


def fixed_sum(weights: Iterable[Any], values: Iterable[Any]) -> float:
    """Sum of weights[k] * values[k] in float64, added left to right from 0.0: one order on every CPU.

    Every exact correlation is such a sum; a BLAS dot adds in the order its per-CPU kernel picks.
    """
    total = 0.0
    for product in np.multiply(weights, values, dtype=np.float64).tolist():
        total += product
    return total


def finite_real(value: object) -> bool:
    """Whether value is a real number, not a bool, whose float64 value is finite (an int beyond float64 is not)."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def frozen_array(values: object, dtype: type, shape: tuple[int | None, ...], name: str) -> np.ndarray:
    """``values`` as a read-only copy of the given dtype and shape (a leading None: any length).

    Every value type builds its arrays here.  Ragged or non-numeric input, NaN
    or inf, the wrong shape and values the dtype cannot hold exactly (2.5 or
    1e20 as int64, 300 as int8) are DomainErrors.
    """
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError) as exc:  # ragged nesting
        raise DomainError(f"{name} must be a rectangular array of numbers") from exc
    target = np.dtype(dtype)
    if arr.dtype.kind not in ("iufc" if target.kind == "c" else "iuf"):
        raise DomainError(f"{name} must hold numbers, got dtype {arr.dtype}")
    if arr.ndim != len(shape) or arr.shape[1:] != shape[1:] or shape[0] not in (None, arr.shape[0]):
        expected = "x".join("n" if n is None else str(n) for n in shape)
        raise DomainError(f"{name} must have shape {expected}, got {arr.shape}")
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    if target.kind in "iu" and arr.dtype != target and arr.size and not np.can_cast(arr.dtype, target):
        info = np.iinfo(target)  # .item() compares as Python numbers, exactly
        integral = arr.dtype.kind != "f" or np.array_equal(np.rint(arr), arr)
        if not (integral and info.min <= arr.min().item() and arr.max().item() <= info.max):
            raise DomainError(f"{name} must be integers in the {target} range")
    # copy whatever may be the caller's memory; a fresh array is converted at most once
    out = arr.astype(target, order="C", copy=arr is values or arr.base is not None)
    out.setflags(write=False)
    return out


class ArrayValue:
    """Value ``==`` and hash for frozen dataclasses that hold arrays (declared ``eq=False``).

    Array fields compare with ``np.array_equal``, the others with ``==``, so two
    values compare by their data alone, wherever they came from.  The hash reads
    the array fields only.
    """

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if np.ndarray in (type(a), type(b)) else a == b for a, b in pairs)

    def __hash__(self) -> int:
        arrays = (getattr(self, f.name) for f in fields(self))
        # + 0 turns -0.0 into 0.0, which == does not tell apart
        return hash((type(self), *((a + 0).tobytes() for a in arrays if isinstance(a, np.ndarray))))


# Outcome pairs (a, b) in canonical order (+,+), (+,-), (-,+), (-,-), and their products a*b.
OUTCOME_PAIRS = frozen_array(outcome_rows(2), np.int8, (4, 2), "outcome pairs")
PAIR_PRODUCTS = frozen_array(OUTCOME_PAIRS.prod(axis=1), np.float64, (4,), "pair products")


def _outcome_array(values: object, *, columns: int) -> np.ndarray:
    """A read-only (n, columns) int8 array of strict +/-1 entries."""
    arr = frozen_array(values, np.int8, (None, columns), "outcomes")
    if not (np.abs(arr) == 1).all():
        bad = arr[np.abs(arr) != 1][:4]
        raise DomainError(f"outcomes must be +1 or -1, found {bad.tolist()}")
    return arr


@dataclass(frozen=True, eq=False)
class CounterfactualTable(ArrayValue):
    """N rows of four jointly existing +/-1 outcomes, columns (a1, a2, b1, b2)."""

    outcomes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", _outcome_array(self.outcomes, columns=4))

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, int, int, int]]) -> CounterfactualTable:
        data = list(rows)
        return cls(data or np.empty((0, 4), dtype=np.int8))

    @property
    def n_rows(self) -> int:
        return self.outcomes.shape[0]


@dataclass(frozen=True, eq=False)
class ContextDataset(ArrayValue):
    """Pairs (a, b) measured in one context; columns (a, b)."""

    context: Context
    pairs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _outcome_array(self.pairs, columns=2))

    @property
    def n_pairs(self) -> int:
        return self.pairs.shape[0]


@dataclass(frozen=True)
class ExperimentBundle:
    """Four context datasets, normalized to canonical context order on construction."""

    datasets: tuple[ContextDataset, ContextDataset, ContextDataset, ContextDataset]

    def __post_init__(self) -> None:
        datasets = tuple(self.datasets)
        if len(datasets) != 4:
            raise DomainError(f"a bundle needs exactly 4 datasets, got {len(datasets)}")
        contexts = {d.context for d in datasets if isinstance(d, ContextDataset)}
        if contexts != set(CANONICAL_CONTEXTS):
            raise DomainError(f"datasets must cover all four contexts, got {sorted(contexts)}")
        ordered = tuple(sorted(datasets, key=lambda d: d.context.index))
        object.__setattr__(self, "datasets", ordered)


def row_c_values(table: CounterfactualTable) -> np.ndarray:
    """Per-row C values as an int16 array (each entry is -2 or +2)."""
    return chsh_sum(context_products(table.outcomes.astype(np.int16)))


def b_statistic(table: CounterfactualTable) -> float:
    """Mean of C over the table's rows; lies in [-2, 2] for every finite sample.

    Products of +/-1 outcomes are accumulated in int64, which is exact, so no
    floating-point compensation is needed at any N.
    """
    if table.n_rows == 0:
        raise DomainError("b_statistic undefined for N=0")
    return int(row_c_values(table).sum(dtype=np.int64)) / table.n_rows


def project_context(table: CounterfactualTable, context: Context) -> ContextDataset:
    """Select columns (a_i, b_j) of the table as if context (i, j) had been measured."""
    if table.n_rows == 0:
        raise DomainError("cannot project an empty table")
    return ContextDataset(context, table.outcomes[:, context.columns])


def project_bundle(table: CounterfactualTable) -> ExperimentBundle:
    """Project one table into all four contexts (the same rows seen four ways)."""
    return ExperimentBundle(tuple(project_context(table, c) for c in CANONICAL_CONTEXTS))


def plus_count(dataset: ContextDataset) -> int:
    """Number of the dataset's pairs with a*b = +1."""
    return int(np.count_nonzero(dataset.pairs[:, 0] == dataset.pairs[:, 1]))


def _count_correlation(plus: Any, n: int) -> Any:
    # sum of a*b is K - (n - K); an exact integer, so one rounding in the division
    return (2 * plus - n) / n


def correlation(dataset: ContextDataset) -> float:
    """Empirical mean of a*b over the dataset's pairs; in [-1, 1]."""
    if dataset.n_pairs == 0:
        raise DomainError(f"correlation undefined for empty dataset in context {dataset.context}")
    return _count_correlation(plus_count(dataset), dataset.n_pairs)


def s_from_counts(counts: Iterable[tuple[Any, int]]) -> Any:
    """S-hat from per-context (plus count K, pairs n) in canonical order: ``chsh_sum`` of the (2K - n) / n.

    Only the four counts matter, so sources that know them need not build the
    pairs.  K may be an integer array, one count per trial; each element of the
    result is then bitwise the S-hat of its trial's counts.  Each n must be an
    integer >= 1 and each K an integer in [0, n] (bools are not integers here).
    """
    correlations = []
    for context, plus, n in _per_context(counts, "(plus, n) count"):
        if isinstance(n, numbers.Integral) and n == 0:  # an array n fails the integer check below
            raise DomainError(f"correlation undefined for empty dataset in context {context}")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise DomainError(f"context {context}: n must be an integer >= 1, got {n!r}")
        if isinstance(plus, np.ndarray):  # one reduction each way, however many trials
            valid = plus.dtype.kind in "iu" and plus.min(initial=0) >= 0 and plus.max(initial=0) <= n
        else:
            valid = isinstance(plus, numbers.Integral) and not isinstance(plus, bool) and 0 <= plus <= n
        if not valid:
            raise DomainError(f"context {context}: plus counts must be integers in [0, {n}], got {plus!r}")
        correlations.append(_count_correlation(plus, n))
    return chsh_sum(correlations) + 0.0


def s_statistic(bundle: ExperimentBundle) -> float:
    """S = E11 + E12 + E21 - E22 from the four per-context correlations; in [-4, 4]."""
    return s_from_counts((plus_count(d), d.n_pairs) for d in bundle.datasets)


def _per_context(items: Iterable[Any], what: str) -> Iterator[tuple[Context, Any, Any]]:
    """Each canonical context with its item's two parts; a DomainError unless there is one ``what`` per context."""
    items = tuple(items)
    if len(items) != len(CANONICAL_CONTEXTS):
        raise DomainError(f"expected one {what} per context (4), got {len(items)}")
    for context, item in zip(CANONICAL_CONTEXTS, items):
        try:
            first, second = item
        except (TypeError, ValueError) as exc:  # not iterable, or not of two parts
            raise DomainError(f"context {context}: a {what} has two parts, got {item!r}") from exc
        yield context, first, second


# One context's law: index k is drawn with probability probs[k] and records the pair pairs[k] = (a, b).
ContextLaw = tuple[np.ndarray, np.ndarray]


# uniforms per block of streams that ``ContextStreams.plus_counts`` draws and counts at once: 1 MiB of float64
BLOCK_VALUES = 2**17


@dataclass(frozen=True, eq=False)
class ContextStreams:
    """A source's four independent experiments: context c draws from its law on the stream (seed, label, c.index).

    ``laws`` follow the canonical context order, each float64 probabilities
    and an int8 (m, 2) array of +/-1 pairs, kept as read-only copies (else
    DomainError).  Each stream depends only on its own path, so any evaluation
    order produces identical bytes, and each source keeps its own streams by
    its own label.  ``sample`` draws a bundle; ``plus_counts`` counts the plus
    pairs of many, with the run edges it finds once per value.
    """

    laws: tuple[ContextLaw, ContextLaw, ContextLaw, ContextLaw]
    label: str

    def __post_init__(self) -> None:
        laws = []  # copies: the run edges ``plus_counts`` caches stay the laws'
        for context, probs, pairs in _per_context(self.laws, "law"):
            try:
                pairs = _outcome_array(pairs, columns=2)
            except DomainError as exc:
                raise DomainError(f"context {context}: a law's outcome pairs must be an (m, 2) array of +/-1") from exc
            try:  # unlike ``frozen_array``, NaN and the rest are left to the law check
                probs = np.array(probs, dtype=np.float64)
            except (TypeError, ValueError) as exc:  # ragged, or not numbers
                raise DomainError(f"context {context}: a law's probabilities must be numbers") from exc
            probs.setflags(write=False)
            laws.append((probs, pairs))
        object.__setattr__(self, "laws", tuple(laws))

    def sample(self, n: int, seed: int) -> ExperimentBundle:
        """n pairs per context: ``categorical``'s draws on its stream, read as pair codes (``category_runs``)."""
        n = sample_size(n)
        datasets = []
        for c, (probs, pairs) in zip(CANONICAL_CONTEXTS, self.laws):
            codes = category_runs(probs, outcome_codes(pairs)).codes(spawn_rng(seed, self.label, c.index).random(n))
            datasets.append(ContextDataset(c, rows_of_codes(codes, 2)))
        return ExperimentBundle(tuple(datasets))

    @functools.cached_property
    def _plus_runs(self) -> tuple[CategoryRuns, ...]:
        return tuple(category_runs(probs, pairs[:, 0] == pairs[:, 1]) for probs, pairs in self.laws)

    def plus_counts(self, n: int, seeds: Sequence[int]) -> list[tuple[int, int, int, int]]:
        """Per seed, the four plus counts (pairs with a == b) of ``sample(n, seed)``, many seeds at once.

        The same streams, uniforms and edges, but no datasets.  A call derives
        all its context seeds and generator states in bulk (``derive_seeds``,
        ``default_rngs``), so its memory grows with ``len(seeds)``.  It reuses
        one block buffer of at most ``BLOCK_VALUES`` uniforms (1 MiB), or of one
        stream if n is larger: each row holds one seed's stream of one context.
        ``CategoryRuns.count`` counts a block with one comparison per run edge:
        plus codes are 0 or 1, so a multi-row block's comparisons are XORed into
        each draw's code and summed once per row; a one-row block is counted by
        ``count_nonzero``, one sum per run edge.
        """
        runs, n = self._plus_runs, sample_size(n)
        # a law whose plus pairs have no edge inside (0, 1) has the count full * n
        # whatever its uniforms are, so its stream is neither seeded nor drawn
        drawn = [index for index, r in enumerate(runs) if r.edges]  # context indices
        counts = np.empty((len(runs), len(seeds)), dtype=np.int64)
        counts[:] = [[r.full * n] for r in runs]  # the undrawn contexts' counts
        # derive_seeds gives each seed's contexts in turn; the blocks take each context's seeds in turn
        by_seed = np.array(derive_seeds(seeds, (self.label,), drawn), dtype=np.uint64)
        rngs = default_rngs(by_seed.reshape(len(seeds), len(drawn)).T.ravel())
        rows = max(1, min(len(seeds), BLOCK_VALUES // n))
        block = np.empty((rows, n))
        for index in drawn:
            for start in range(0, len(seeds), rows):
                part = block[: len(seeds) - start]  # the last block may be partial
                for row in part:
                    next(rngs).random(out=row)
                # a lone row is counted as 1-D: count_nonzero beats an axis sum on one stream
                counts[index, start : start + rows] = runs[index].count(part[0] if len(part) == 1 else part)
        return list(zip(*counts.tolist()))
