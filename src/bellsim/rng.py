"""Deterministic stream derivation for reproducible, schedule-independent sampling.

Every stochastic routine takes a master seed and derives child seeds by hashing
(master, label, index) paths. Parallel or reordered evaluation of trials and
contexts therefore cannot change any output: each stream's bits depend only on
its path, never on draw order elsewhere.

``spawn_rng`` is the reference stream of a path: ``np.random.default_rng`` of
its ``derive_seed``.  Violation trials need thousands of streams per study row,
so they take the same streams in bulk: ``derive_seeds`` hashes a shared path
prefix once, and ``default_rngs`` computes the seeds' ``SeedSequence`` states
at once (``mix_entropy`` and ``generate_state`` transcribed line for line onto
uint32 arrays with one entry per seed, which wrap mod 2**32 as numpy's C code
does) and hands each state to numpy's own ``PCG64``.  Its streams are bitwise
those of ``default_rng``; the tests compare the two, so a change in
how numpy seeds cannot move a stream unnoticed.  ``categorical`` is the
reference draw; the samplers read its uniforms against only the edges where a
per-category code changes (``category_runs``), with no ``searchsorted`` and no gather.
"""

from __future__ import annotations

import functools
import hashlib
import numbers
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate
from typing import Any, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "CategoryRuns",
    "MAX_SAMPLE_SIZE",
    "categorical",
    "category_runs",
    "default_rngs",
    "derive_seed",
    "derive_seeds",
    "sample_size",
    "spawn_rng",
]


def _token(part: object) -> bytes:
    """One path element, length-prefixed; integers of any type as Python ints, ``bool`` as itself."""
    if type(part) not in (int, str, bool) and isinstance(part, numbers.Integral):
        part = int(part)
    token = f"{type(part).__name__}:{part}".encode()
    return len(token).to_bytes(4, "little") + token


def _seed_of(h: Any) -> int:
    """The seed a sha256 object's digest gives."""
    return int.from_bytes(h.digest()[:8], "little")


def _master(master: object) -> object:
    """``master`` if it is an integer of any integer type (not a ``bool``); else ConfigError."""
    if isinstance(master, bool) or not isinstance(master, numbers.Integral):
        raise ConfigError(f"seed must be an integer, got {master!r}")
    return master


def derive_seed(master: int, *path: object) -> int:
    """Derive a 64-bit child seed from a master seed and a label path.

    Path elements (strings, ints) are encoded unambiguously, so
    ("ab", 1) and ("a", "b1") yield unrelated seeds.  Integers of any type
    (``7``, ``np.int64(7)``) are hashed as Python ints, so equal values give
    equal streams; ``bool`` keeps its own encoding.  The master must be an
    integer: ``1.0``, ``"1"`` and ``True`` would each hash to a stream
    unrelated to ``1``'s, so they are ConfigErrors.
    """
    return _seed_of(hashlib.sha256(b"".join([b"bellsim-seed", *map(_token, (_master(master), *path))])))


def derive_seeds(masters: Iterable[int], path: tuple[object, ...], last: Iterable[object]) -> list[int]:
    """``derive_seed(master, *path, x)`` for each master and, within it, each x in ``last``, in one list.

    Each path element is encoded once and each master's prefix hashed once.
    ``path`` must be a tuple and ``last`` no string (else ConfigError): either would be hashed char by char.
    """
    if not isinstance(path, tuple) or isinstance(last, (str, bytes)):
        raise ConfigError(f"derive_seeds takes a tuple path and an iterable last, got {path!r} and {last!r}")
    head = b"".join(map(_token, path))
    tails = [_token(part) for part in last]
    seeds = []
    for master in masters:
        prefix = hashlib.sha256(b"".join([b"bellsim-seed", _token(_master(master)), head]))
        for tail in tails:
            h = prefix.copy()
            h.update(tail)
            seeds.append(_seed_of(h))
    return seeds


def spawn_rng(master: int, *path: object) -> np.random.Generator:
    """Generator seeded by the derived (master, *path) seed."""
    return np.random.default_rng(derive_seed(master, *path))


# numpy's SeedSequence (NEP 19, numpy/random/bit_generator.pyx) transcribed onto
# uint32 arrays, which wrap mod 2**32 as numpy's C code does: one array entry per
# seed, hashed as the C code hashes one word
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """numpy's ``hashmix`` with its running constant: started at ``init``, stepped by ``mult`` at each call."""
    hash_const = np.array([init], dtype=np.uint32)

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * np.uint32(mult)
        value = value * hash_const
        return value ^ value >> np.uint32(16)

    return hashmix


@functools.cache
def _state_words() -> type:
    """An ``ISeedSequence`` that gives ``PCG64`` the state words it was made with.

    ``PCG64`` asks for ``generate_state(4, np.uint64)`` and reads the answer
    raw, so the words must be four native-order, contiguous uint64.  numpy 2
    loads ``numpy.random`` lazily, so the import waits for the first call and
    ``import bellsim.cli`` does not load it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
            if (n_words, dtype) != (4, np.uint64):  # the answer is read raw: serve no other request
                raise DomainError(f"the state words are 4 uint64, not {n_words} {np.dtype(dtype)}")
            return self.words

    return StateWords


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """``seeds`` as little-endian uint64; ConfigError unless each is an integer in [0, 2**64), not a ``bool``.

    A 1-D integer ndarray is checked by its least entry; any other sequence
    seed by seed, as ``derive_seed`` checks a master, since numpy reads a list
    of ints as float64 when some are at or above 2**63 and some are not.
    """
    if isinstance(seeds, np.ndarray) and seeds.ndim == 1 and seeds.dtype.kind in "iu":
        bad = [least] if (least := seeds.min(initial=0)) < 0 else []
    else:
        # int(s) first: numpy 1.x compares a uint64 with 2**64 in float64
        bad = [s for s in seeds
               if isinstance(s, bool) or not isinstance(s, numbers.Integral) or not 0 <= int(s) < 2**64]
    if bad:
        raise ConfigError(f"seeds must be integers in [0, 2**64), got {bad[0]!r}")
    return np.array(seeds, dtype="<u8")


def default_rngs(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(s)`` for each seed s, an integer in [0, 2**64): one fresh generator per seed.

    Every stream's bits equal ``default_rng(s)``'s.  The seeds' ``SeedSequence``
    states are computed at once, on arrays, and each is handed to numpy's own
    ``PCG64``; the seeds are checked when this is called, not when a stream is drawn.
    """
    # SeedSequence(s).mix_entropy: s is its little-endian uint32 words, one for a
    # seed below 2**32, and pool words past them hash 0, so every s mixes as (low, high, 0, 0)
    low, high = _seed_words(seeds).view("<u4").reshape(-1, 2).T
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (low, high, np.zeros_like(low), np.zeros_like(low))]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                mixed = _MIX_MULT_L * pool[i_dst] - _MIX_MULT_R * hashmix(pool[i_src])
                pool[i_dst] = mixed ^ mixed >> np.uint32(16)
    # generate_state(4, np.uint64): 8 words cycled from the pool, read as 4 little-endian uint64
    hashmix = _hashmix(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[k % 4]) for k in range(8)], axis=1).astype("<u4").view("<u8")
    # PCG64 reads each row raw, so the rows are handed over as native-order uint64
    state_words, pcg64, generator = _state_words(), np.random.PCG64, np.random.Generator
    return (generator(pcg64(state_words(row))) for row in state.astype(np.uint64, copy=False))


# the largest n whose (n, 4) float64 array numpy can represent: 2**58 - 1 where intp has 64 bits
MAX_SAMPLE_SIZE = int(np.iinfo(np.intp).max) // 32


def sample_size(n: object, name: str = "n_per_context") -> int:
    """``n`` as a draw count: an integer of any integer type, from 1 to ``MAX_SAMPLE_SIZE``.

    Above that bound numpy cannot represent an (n, 4) float64 array at all, so
    such an n is a ConfigError, not numpy's bare ``ValueError``.  An n below it
    may still ask for more memory than there is; that ends in a MemoryError.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {n!r}")
    if n > MAX_SAMPLE_SIZE:
        raise ConfigError(f"{name} must be at most {MAX_SAMPLE_SIZE} (an n x 4 float64 array's limit), got {n!r}")
    return int(n)


# How far a law's (or a model's) probabilities may sum from 1.
MASS_TOL = 1e-9


def _edges(probs: np.ndarray) -> np.ndarray:
    edges = np.cumsum(probs)
    edges[-1] = 1.0  # guard the top edge against cumulative rounding
    return edges


def categorical(rng: np.random.Generator, probs: np.ndarray, size: int) -> np.ndarray:
    """Draw ``size`` category indices from a probability vector.

    Inverse-CDF via searchsorted; noticeably faster than Generator.choice for
    the small vectors sampled millions of times here.
    """
    return np.searchsorted(_edges(probs), rng.random(size), side="right")


class CategoryRuns(NamedTuple):
    """The codes of the draws of ``categorical(rng, probs, size)``, read off its uniforms u.

    A draw's code is ``full`` plus the signs of the edges above its uniform:
    ``codes(u)`` gives them one per draw, ``count(u)`` their sum along u's last
    axis, so one call counts a single stream or a block of streams, one per row.
    """

    full: int
    edges: tuple[tuple[float, int], ...]  # (edge, sign)

    def count(self, u: np.ndarray) -> Any:
        """The sum of the codes along u's last axis: an int for 1-D u, else an int64 array of u's other axes.

        1-D u is counted by ``count_nonzero``, one comparison per run edge, the
        fastest count of one stream.  More axes are counted by parity, for
        codes 0 and 1 only (else DomainError): each run edge flips the code, so
        a draw's code is ``full`` XOR the parity of the edges above its uniform.
        The comparisons are XORed into one bool array, and its bytes summed
        once per row in uint32, exact for rows shorter than 2**32.
        """
        if u.ndim == 1:
            return self.full * u.size + sum(sign * int(np.count_nonzero(u < edge)) for edge, sign in self.edges)
        if not set(accumulate((sign for _, sign in reversed(self.edges)), initial=self.full)) <= {0, 1}:
            raise DomainError("a block of streams is counted by parity, so its codes must be 0 and 1")
        (first, _), *above = self.edges or [(0.0, 0)]  # no u in [0, 1) lies below 0.0
        odd = u < first
        for edge, _ in above:
            odd ^= u < edge
        plus = odd.view(np.uint8).sum(axis=-1, dtype=np.uint32).astype(np.int64)
        return u.shape[-1] - plus if self.full else plus

    def codes(self, u: np.ndarray) -> np.ndarray:
        """Each uniform's code as uint8: one comparison and one add per run edge, wrapping mod 256."""
        codes = np.full(u.size, self.full, dtype=np.uint8)  # the code above every edge, in 0..255
        for edge, sign in self.edges:
            codes += np.uint8(sign % 256) * (u < edge).view(np.uint8)
        return codes


def category_runs(probs: np.ndarray, codes: Sequence[int]) -> CategoryRuns:
    """The ``CategoryRuns`` of ``probs`` with category k coded ``codes[k]``, an integer in 0..255 or a bool.

    ``categorical`` puts u in category k when edge[k-1] <= u < edge[k], so a
    draw's code is sum_k (codes[k] - codes[k+1]) * [u < edge[k]], with codes[m]
    = 0: only the edges where the code changes count.  Every u lies in [0, 1),
    so an edge at or above 1 (the top edge is 1.0) holds for all draws and one
    at or below 0 for none; equal edges are merged.  With r such run edges a
    draw costs r comparisons, however many categories the law has: less than
    ``searchsorted`` and a gather up to a few hundred; built-in laws have <= 8.

    ``probs`` must hold one probability per code, each in [0, 1], summing to 1
    within ``MASS_TOL``; any other vector (NaN included) is a DomainError.
    """
    codes = [int(c) for c in codes]
    if not all(0 <= c <= 255 for c in codes):
        raise DomainError(f"category codes must be integers in 0..255, got {min(codes)} to {max(codes)}")
    probs = np.asarray(probs, dtype=np.float64)
    in_range = probs.shape == (len(codes),) and ((probs >= 0) & (probs <= 1)).all()
    if not (in_range and abs(probs.sum() - 1.0) <= MASS_TOL):  # NaN fails too
        raise DomainError(
            f"a law needs {len(codes)} probabilities in [0, 1] summing to 1 within {MASS_TOL}, got {probs.tolist()}"
        )
    signs: Counter[float] = Counter()
    for edge, here, after in zip(_edges(probs).tolist(), codes, [*codes[1:], 0], strict=True):
        signs[edge] += here - after
    full = sum(sign for edge, sign in signs.items() if edge >= 1.0)
    return CategoryRuns(full, tuple((e, s) for e, s in signs.items() if s and 0.0 < e < 1.0))
