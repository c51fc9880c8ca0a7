"""Deterministic stream derivation for reproducible, schedule-independent sampling.

Every stochastic routine takes a master seed and derives child seeds by hashing
(master, label, index) paths. Parallel or reordered evaluation of trials and
contexts therefore cannot change any output: each stream's bits depend only on
its path, never on draw order elsewhere.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

from .errors import ConfigError

__all__ = ["categorical", "derive_seed", "sample_size", "spawn_rng"]


def derive_seed(master: int, *path: object) -> int:
    """Derive a 64-bit child seed from a master seed and a label path.

    Path elements (strings, ints) are encoded unambiguously, so
    ("ab", 1) and ("a", "b1") yield unrelated seeds.  Integers of any type
    (``7``, ``np.int64(7)``) are hashed as Python ints, so equal values give
    equal streams; ``bool`` keeps its own encoding.
    """
    h = hashlib.sha256()
    h.update(b"bellsim-seed")
    for part in (master, *path):
        if type(part) not in (int, str, bool) and isinstance(part, numbers.Integral):
            part = int(part)
        token = f"{type(part).__name__}:{part}".encode()
        h.update(len(token).to_bytes(4, "little"))
        h.update(token)
    return int.from_bytes(h.digest()[:8], "little")


def spawn_rng(master: int, *path: object) -> np.random.Generator:
    """Generator seeded by the derived (master, *path) seed."""
    return np.random.default_rng(derive_seed(master, *path))


def sample_size(n: object, name: str = "n_per_context") -> int:
    """``n`` as a draw count: an integer of any integer type, at least 1."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {n!r}")
    return int(n)


def categorical(rng: np.random.Generator, probs: np.ndarray, size: int) -> np.ndarray:
    """Draw ``size`` category indices from a probability vector.

    Inverse-CDF via searchsorted; noticeably faster than Generator.choice for
    the small vectors sampled millions of times here.
    """
    edges = np.cumsum(probs)
    edges[-1] = 1.0  # guard the top edge against cumulative rounding
    return np.searchsorted(edges, rng.random(size), side="right")
