"""Extensions beyond the paper's evaluation, from its Section 7 roadmap.

- :mod:`repro.extensions.weighted` — weighted-network link prediction and
  the weak-tie exponent of Lü & Zhou [27] ("Additional information, such
  as edge weights [27] ... can improve prediction performance.  We plan to
  consider these factors in future work.").
- :mod:`repro.extensions.directed` — directed link prediction ("link
  direction [43]", the other named future-work item), driven by the growth
  engine's record of who initiated each edge.
"""

from repro.extensions.directed import (
    DirectedPreferentialAttachment,
    DirectedView,
    SharedFollowees,
    SharedFollowers,
    TransitivePaths,
    generate_directed_trace,
)
from repro.extensions.weighted import (
    WeightedAdamicAdar,
    WeightedCommonNeighbors,
    WeightedResourceAllocation,
    synthesize_weights,
)

__all__ = [
    "DirectedPreferentialAttachment",
    "DirectedView",
    "SharedFollowees",
    "SharedFollowers",
    "TransitivePaths",
    "generate_directed_trace",
    "WeightedCommonNeighbors",
    "WeightedAdamicAdar",
    "WeightedResourceAllocation",
    "synthesize_weights",
]
