"""Canonical representation of unordered node pairs.

Link prediction on undirected graphs constantly manipulates sets of node
pairs (candidates, predictions, ground truth).  A single canonical form —
``(min(u, v), max(u, v))`` — makes set membership and intersection reliable
across the whole library.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

Pair = tuple[int, int]

#: Packing base for position-pair keys: ``key = row * SHIFT + col``.  The
#: delta engine (:mod:`repro.graph.delta`) keys its adjacency this way
#: because, with both positions below the shift, integer
#: keys sort exactly like ``(row, col)`` tuples — the row-major order
#: candidate enumeration guarantees — while staying safely inside int64.
PAIR_POSITION_BITS = 31
PAIR_POSITION_SHIFT = 1 << PAIR_POSITION_BITS


def encode_position_pairs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pack dense-position pairs into int64 keys sorting in row-major order.

    Callers guarantee ``0 <= rows, cols < PAIR_POSITION_SHIFT`` (the delta
    engine enforces this on its node table once, not per call).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    return rows * PAIR_POSITION_SHIFT + cols


def decode_position_pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_position_pairs`: ``(rows, cols)`` arrays.

    The shift is a power of two, so the arithmetic shift and the mask equal
    ``//`` and ``%`` for every int64 key, negative ones included.
    """
    keys = np.asarray(keys, dtype=np.int64)
    return keys >> PAIR_POSITION_BITS, keys & (PAIR_POSITION_SHIFT - 1)


def canonical_pair(u: int, v: int) -> Pair:
    """Return the unordered pair ``(u, v)`` in canonical (sorted) order."""
    if u == v:
        raise ValueError(f"self-pair ({u}, {u}) is not a valid link candidate")
    return (u, v) if u < v else (v, u)


def pair_set(pairs: Iterable[tuple[int, int]]) -> set[Pair]:
    """Canonicalise an iterable of pairs into a set."""
    return {canonical_pair(u, v) for u, v in pairs}


def pair_array(pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """Return an ``(n, 2)`` int64 array of canonicalised pairs.

    The array form is what the vectorised scorers in :mod:`repro.metrics`
    consume; it preserves the iteration order of ``pairs``.
    """
    arr = np.asarray([canonical_pair(u, v) for u, v in pairs], dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    return arr
