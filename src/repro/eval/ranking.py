"""Top-k selection with uniform-random tie breaking.

Several metrics produce heavily tied scores (SP most extremely: every 2-hop
pair scores the same).  Deterministic tie order would silently bias results,
so ties are broken by random permutation — exactly the behaviour the paper
relies on when it observes that "SP's prediction is actually random choice
over all 2-hop pairs".
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


def top_k_pairs(
    pairs: np.ndarray,
    scores: np.ndarray,
    k: int,
    rng: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Return the k pairs with the highest scores (random tie order).

    ``pairs`` is ``(n, 2)``, ``scores`` is ``(n,)``.  If fewer than ``k``
    pairs are supplied, all of them are returned, as a new array (callers
    fill the rest with random non-edges; see
    :func:`repro.eval.experiment.evaluate_step`).
    """
    if len(pairs) != len(scores):
        raise ValueError(f"{len(pairs)} pairs but {len(scores)} scores")
    if k <= 0:
        return pairs[:0]
    if len(pairs) <= k:
        # A copy: ``pairs`` may be a snapshot's cached candidate array.
        return pairs.copy()
    generator = ensure_rng(rng)
    # Shuffle first: a stable sort of the shuffled arrays yields uniformly
    # random order within every tie group.
    perm = generator.permutation(len(pairs))
    shuffled_scores = scores[perm]
    # argpartition narrows to a candidate window, then a stable full sort of
    # that window gives the exact top-k.
    cut = np.argpartition(-shuffled_scores, k - 1)[:k]
    order = cut[np.argsort(-shuffled_scores[cut], kind="stable")]
    return pairs[perm[order]]
