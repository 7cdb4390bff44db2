"""Training-set construction: labelling and undersampling (Section 5.2).

Link formation is extremely imbalanced (the paper measures ~1:100,000
positive:negative in its snapshots).  Training uses the standard
undersampling remedy [15]: keep every positive pair, subsample negatives to
a target ratio theta.  Section 5.2's finding — accuracy improves as theta
approaches the true imbalance, up to ~5x over balanced 1:1 sampling — is one
of the headline reproduction targets (Fig. 10).
"""

from __future__ import annotations

import numpy as np

from repro.graph.snapshots import Snapshot
from repro.metrics.kernels import adjacency_keys, probe_sorted_keys
from repro.utils.pairs import encode_position_pairs
from repro.utils.rng import ensure_rng


def labeled_pairs(
    observed: Snapshot, future: Snapshot, pairs: np.ndarray
) -> np.ndarray:
    """Label candidate ``pairs`` of ``observed``: 1 if connected in ``future``.

    ``pairs`` must be unconnected in ``observed`` (candidate pairs); the
    label says whether the pair closed by the ``future`` snapshot.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    positions, present = future.lookup_positions(pairs)
    # A pair with an endpoint ``future`` does not hold cannot be an edge.
    known = present.all(axis=1)
    hit, _ = probe_sorted_keys(
        adjacency_keys(future),
        encode_position_pairs(positions[known, 0], positions[known, 1]),
    )
    labels = np.zeros(len(pairs), dtype=np.int64)
    labels[known] = hit
    return labels


def undersample_indices(
    labels: np.ndarray,
    theta: float,
    rng: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Row indices of an undersampled training set.

    Keeps every positive row and subsamples negatives to
    ``neg = pos / theta``; returns a shuffled index array usable against
    any row-aligned structure (pairs, feature matrices, labels).
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    labels = np.asarray(labels)
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == 0)
    if len(pos_idx) == 0:
        raise ValueError("undersampling requires at least one positive pair")
    target_neg = int(round(len(pos_idx) / theta))
    generator = ensure_rng(rng)
    if target_neg < len(neg_idx):
        neg_idx = generator.choice(neg_idx, size=target_neg, replace=False)
    keep = np.concatenate([pos_idx, neg_idx])
    generator.shuffle(keep)
    return keep


def undersample(
    pairs: np.ndarray,
    labels: np.ndarray,
    theta: float,
    rng: "int | np.random.Generator | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Keep all positives, subsample negatives to ``neg = pos / theta``.

    ``theta`` is the paper's undersampling ratio written as a fraction:
    ``theta = 1/50`` means a 1:50 positive:negative training set.  If the
    requested number of negatives exceeds the available pool, all negatives
    are kept (matching how the paper's largest ratios saturate).
    """
    labels = np.asarray(labels)
    if len(pairs) != len(labels):
        raise ValueError("pairs and labels must align")
    keep = undersample_indices(labels, theta, rng)
    return pairs[keep], labels[keep]


def sampled_candidate_pairs(view: Snapshot) -> np.ndarray:
    """All unconnected pairs among a (possibly sampled) snapshot's nodes."""
    from repro.metrics.candidates import all_nonedge_pairs

    return all_nonedge_pairs(view)


def true_imbalance(observed: Snapshot, future: Snapshot) -> float:
    """The dataset's actual positive:negative ratio (as a fraction).

    Used to report how far an undersampling theta is from reality, e.g.
    the paper's ~1:100,000.
    """
    pairs = sampled_candidate_pairs(observed)
    labels = labeled_pairs(observed, future, pairs)
    positives = int(labels.sum())
    negatives = len(labels) - positives
    if negatives == 0:
        raise ValueError("no negative pairs: graph is complete")
    return positives / negatives
