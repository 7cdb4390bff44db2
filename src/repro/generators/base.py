"""Growth engine for synthetic temporal social-network traces.

The engine produces a :class:`~repro.graph.dyngraph.TemporalGraph` by
simulating edge creation events one at a time along an exponential growth
schedule:

- node ``i`` arrives at ``t_i`` such that the node count grows exponentially
  from ``n_seed`` to ``total_nodes`` over ``duration_days``;
- edge ``m`` is created at ``t_m`` such that the edge count grows
  exponentially from the seed edges to ``total_edges`` — because edges grow
  faster than nodes the network *densifies*, reproducing Figs. 1-2;
- the initiating endpoint of an edge is drawn with recency reinforcement
  (endpoints of recent edges are likely to act again), producing the bursty
  node activity behind the paper's temporal filters (Figs. 13-14);
- the target endpoint is drawn by a per-config mixture of triadic closure,
  degree-preferential attachment, creator (supernode) attachment and uniform
  choice, which is what differentiates friendship-style from
  subscription-style networks (Section 4.2).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.graph.dyngraph import TemporalGraph
from repro.utils.rng import ensure_rng


@dataclass
class GrowthConfig:
    """All knobs of the growth engine.

    The defaults describe a generic friendship network; the presets in
    :mod:`repro.generators.presets` override them per target dataset.
    """

    name: str = "synthetic"
    # Size trajectory.
    n_seed: int = 60
    seed_edges: int = 150
    total_nodes: int = 800
    total_edges: int = 6000
    duration_days: float = 120.0
    # Initiator selection.
    newcomer_prob: float = 0.25       # edge initiated by a just-arrived node
    recent_initiator_prob: float = 0.5  # initiator re-drawn from recent actors
    recent_window_days: float = 7.0   # size of the "recent actors" pool
    # Target selection mixture (remainder of the mass goes to uniform).
    triadic_prob: float = 0.65        # close a triangle via a 2-hop walk
    # When set, the triadic share interpolates linearly from triadic_prob to
    # this value over the trace duration.  A rising share reproduces the
    # densification-driven growth of lambda_2 on Renren/YouTube; a falling
    # one reproduces Facebook's regional-sampling decline (Section 4.2).
    triadic_prob_final: "float | None" = None
    preferential_prob: float = 0.2    # degree-proportional target
    creator_prob: float = 0.0         # target drawn from the creator pool
    # Creator (supernode) population, only used when creator_prob > 0.
    creator_fraction: float = 0.0
    creator_fitness_alpha: float = 1.1  # Pareto tail of creator fitness
    # Recency bias inside triadic closure: probability that the intermediate
    # common neighbour is one of the initiator's most recent links.  High
    # values produce the short "CN time gap" of positive pairs (Fig. 15).
    triadic_recent_bias: float = 0.7
    # Probability that a non-triadic target draw is degree-matched to the
    # initiator (pick the closest of 3 candidates).  Friendship networks use
    # this to obtain the positive assortativity of Renren/Facebook.
    assortative_matching: float = 0.0
    # When True only the initiating endpoint joins the recent-actor pool.
    # Subscription networks set this so that passively-subscribed creators
    # do not start initiating edges themselves (which would densify the
    # creator core and inflate clustering).
    recent_actor_initiator_only: bool = False
    # Fallback initiator distribution when neither the newcomer nor the
    # recent-actor branch fires: degree-proportional (True, friendship
    # networks) or uniform (False).  Subscription networks need the uniform
    # fallback — otherwise supernodes initiate edges at each other and build
    # a dense creator core that friendship-style metrics can exploit.
    initiator_degree_fallback: bool = True
    # Expected number of edges a newcomer creates while at the front of the
    # newcomer queue (geometric); controls the share of degree-1..3 nodes.
    newcomer_mean_edges: float = 2.0
    # Degree saturation: when > 0, a proposed target v is accepted with
    # probability saturation / (saturation + deg(v)).  Friendship links need
    # "joint effort from both users" [44], so very-high-degree users accept
    # progressively fewer of the links the heuristics expect them to form —
    # the overprediction bias of Table 5.  0 disables saturation
    # (subscription targets have no such limit).
    degree_saturation: float = 0.0
    # Interest communities: every node gets a community label at arrival and
    # community-biased target draws stay inside it.  This produces the
    # latent block structure that RESCAL-style factorisations exploit on
    # subscription networks (Section 4.2: "condensing the interaction among
    # nodes into a latent space").  0 disables communities.
    num_communities: int = 0
    community_bias: float = 0.0
    # Probability that an edge is initiated by a creator (collaborations /
    # cross-promotion).  Gives subscription networks a thin stream of
    # supernode-supernode edges, which is why PA is "marginally better" on
    # YouTube than on the friendship networks (Section 4.2).
    creator_initiator_prob: float = 0.0
    # Target-side recency: a proposed (non-creator) target v is accepted
    # with probability exp(-idle(v) / tau).  Friendship links need the
    # target to accept the request, i.e. to be around — this is what makes
    # the idle time of the *inactive* endpoint a usable filter criterion
    # (Section 6.1).  0 disables the bias; creator targets are exempt
    # (subscribing needs no consent).
    target_recency_tau: float = 0.0
    max_retries: int = 30

    def validate(self) -> None:
        if self.n_seed < 2:
            raise ValueError("n_seed must be >= 2")
        if self.total_nodes < self.n_seed:
            raise ValueError("total_nodes must be >= n_seed")
        if self.total_edges <= self.seed_edges:
            raise ValueError("total_edges must exceed seed_edges")
        max_seed_edges = self.n_seed * (self.n_seed - 1) // 2
        if self.seed_edges > max_seed_edges:
            raise ValueError(
                f"seed_edges={self.seed_edges} exceeds the {max_seed_edges} "
                f"possible pairs among {self.n_seed} seed nodes"
            )
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        peak_triadic = max(self.triadic_prob, self.triadic_prob_final or 0.0)
        mixture = peak_triadic + self.preferential_prob + self.creator_prob
        if mixture > 1.0 + 1e-9:
            raise ValueError(f"target-selection mixture sums to {mixture} > 1")
        if self.creator_prob > 0 and self.creator_fraction <= 0:
            raise ValueError("creator_prob > 0 requires a positive creator_fraction")


@dataclass
class _NodeState:
    """Mutable per-node bookkeeping inside the engine."""

    arrival: float
    is_creator: bool = False
    fitness: float = 1.0
    community: int = 0


class GrowthEngine:
    """Simulates one trace from a :class:`GrowthConfig`."""

    def __init__(self, config: GrowthConfig, seed: "int | np.random.Generator | None" = None):
        config.validate()
        self.config = config
        self.rng = ensure_rng(seed)
        self.graph = TemporalGraph()
        self._states: dict[int, _NodeState] = {}
        # Neighbour sets, filled in edge order: the triadic walk draws from
        # a set's iteration order, so the order they are built in is part
        # of the generated trace.
        self._neighbors: dict[int, set[int]] = {}
        self._neighbor_order: dict[int, list[int]] = {}
        # Time of each node's last edge (its arrival until it has one).
        self._last_active: dict[int, float] = {}
        self._degree_urn: list[int] = []      # node appears once per incident edge
        self._creator_urn: list[int] = []     # creator endpoints only
        self._creators: list[int] = []
        self._creator_fitness_cum: np.ndarray | None = None
        self._community_creators: dict[int, list[int]] = {}
        self._community_members: dict[int, list[int]] = {}
        self._recent_actors: deque[tuple[float, int]] = deque()
        self._newcomer_queue: deque[int] = deque()
        self._next_node_id = 0
        #: edge direction as created: canonical pair -> (initiator, target).
        #: The undirected evaluation ignores this; the directed extension
        #: (repro.extensions.directed) consumes it.
        self.directions: dict[tuple[int, int], tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Growth schedules
    # ------------------------------------------------------------------
    def _node_arrival_time(self, i: int) -> float:
        """Arrival time of the ``i``-th node (0-based), exponential schedule."""
        cfg = self.config
        if i < cfg.n_seed:
            return 0.0
        ratio = cfg.total_nodes / cfg.n_seed
        return 1.0 + (cfg.duration_days - 1.0) * math.log((i + 1) / cfg.n_seed) / math.log(ratio)

    def _edge_time(self, m: int) -> float:
        """Creation time of the ``m``-th edge (0-based), exponential schedule."""
        cfg = self.config
        if m < cfg.seed_edges:
            # Seed edges are spread over the first day.
            return m / max(1, cfg.seed_edges)
        # Exponential schedule over the remaining duration, continuous with
        # the seed phase (starts at day 1).
        ratio = cfg.total_edges / cfg.seed_edges
        return 1.0 + (cfg.duration_days - 1.0) * math.log((m + 1) / cfg.seed_edges) / math.log(ratio)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def _spawn_node(self, t: float) -> int:
        cfg = self.config
        node = self._next_node_id
        self._next_node_id += 1
        is_creator = (
            cfg.creator_fraction > 0 and self.rng.random() < cfg.creator_fraction
        )
        fitness = 1.0
        if is_creator:
            # Pareto-tailed fitness produces the heavy supernode skew.
            fitness = float((1.0 + self.rng.pareto(cfg.creator_fitness_alpha)))
        community = (
            int(self.rng.integers(cfg.num_communities)) if cfg.num_communities > 0 else 0
        )
        self._states[node] = _NodeState(
            arrival=t, is_creator=is_creator, fitness=fitness, community=community
        )
        self.graph.add_node(node, t)
        self._neighbors[node] = set()
        self._last_active[node] = t
        self._community_members.setdefault(community, []).append(node)
        if is_creator:
            self._creators.append(node)
            self._community_creators.setdefault(community, []).append(node)
            self._creator_fitness_cum = None  # invalidate cache
        return node

    def _record_edge(self, u: int, v: int, t: float) -> bool:
        if not self.graph.add_edge(u, v, t):
            return False
        self.directions[(u, v) if u < v else (v, u)] = (u, v)
        self._neighbors[u].add(v)
        self._neighbors[v].add(u)
        self._last_active[u] = self._last_active[v] = t
        self._degree_urn.extend((u, v))
        self._neighbor_order.setdefault(u, []).append(v)
        self._neighbor_order.setdefault(v, []).append(u)
        for node in (u, v):
            if self._states[node].is_creator:
                self._creator_urn.append(node)
        self._recent_actors.append((t, u))
        if not self.config.recent_actor_initiator_only:
            self._recent_actors.append((t, v))
        window = self.config.recent_window_days
        while self._recent_actors and self._recent_actors[0][0] < t - window:
            self._recent_actors.popleft()
        return True

    # ------------------------------------------------------------------
    # Endpoint selection
    # ------------------------------------------------------------------
    def _pick_initiator(self, t: float) -> int:
        cfg = self.config
        if (
            cfg.creator_initiator_prob > 0
            and self._creator_urn
            and self.rng.random() < cfg.creator_initiator_prob
        ):
            return self._creator_urn[int(self.rng.integers(len(self._creator_urn)))]
        r = self.rng.random()
        if self._newcomer_queue and r < cfg.newcomer_prob:
            node = self._newcomer_queue[0]
            # Geometric dwell at the queue front: a newcomer creates
            # ~newcomer_mean_edges edges before yielding to the next arrival.
            if self.rng.random() < 1.0 / max(1.0, cfg.newcomer_mean_edges):
                self._newcomer_queue.popleft()
            return node
        if self._recent_actors and r < cfg.newcomer_prob + cfg.recent_initiator_prob:
            return self._recent_actors[int(self.rng.integers(len(self._recent_actors)))][1]
        if cfg.initiator_degree_fallback:
            return self._degree_urn[int(self.rng.integers(len(self._degree_urn)))]
        return int(self.rng.integers(self._next_node_id))

    def _pick_triadic_target(self, u: int) -> int | None:
        """Two-hop walk from ``u``; weights targets by common-neighbour count."""
        neigh_list = self._neighbor_order.get(u)
        if not neigh_list:
            return None
        if self.rng.random() < self.config.triadic_recent_bias:
            # Walk through one of u's most recently linked neighbours: the
            # recent common-neighbour arrival then precedes the triangle
            # closure, producing the short CN time gaps of positive pairs
            # (Fig. 15).
            candidates = neigh_list[-3:]
        else:
            candidates = neigh_list
        w = candidates[int(self.rng.integers(len(candidates)))]
        two_hop = list(self._neighbors[w])
        v = two_hop[int(self.rng.integers(len(two_hop)))]
        if v == u or self.graph.has_edge(u, v):
            return None
        return v

    def _pick_creator_target(self, u: int) -> int | None:
        cfg = self.config
        if not self._creators:
            return None
        if self._states[u].is_creator:
            # Creator-to-creator collaborations spread uniformly over the
            # creator pool: concentrating them on the top creators would
            # give two-subscription users closed triangles far too often,
            # inflating clustering beyond anything subscription-like.
            return self._creators[int(self.rng.integers(len(self._creators)))]
        if cfg.community_bias > 0 and self.rng.random() < cfg.community_bias:
            # Interest-driven discovery: a fitness-weighted creator from the
            # subscriber's own community.
            pool = self._community_creators.get(self._states[u].community)
            if pool:
                fit = np.asarray([self._states[c].fitness for c in pool])
                cum = np.cumsum(fit)
                idx = int(np.searchsorted(cum, self.rng.random() * cum[-1]))
                return pool[min(idx, len(pool) - 1)]
        # Mixture of fitness-weighted (discovery of intrinsically popular
        # creators) and degree-weighted (rich-get-richer among creators).
        if self._creator_urn and self.rng.random() < 0.5:
            return self._creator_urn[int(self.rng.integers(len(self._creator_urn)))]
        if self._creator_fitness_cum is None:
            fit = np.asarray([self._states[c].fitness for c in self._creators])
            self._creator_fitness_cum = np.cumsum(fit)
        total = self._creator_fitness_cum[-1]
        idx = int(np.searchsorted(self._creator_fitness_cum, self.rng.random() * total))
        return self._creators[min(idx, len(self._creators) - 1)]

    def _triadic_prob_at(self, t: float) -> float:
        cfg = self.config
        if cfg.triadic_prob_final is None:
            return cfg.triadic_prob
        frac = min(1.0, max(0.0, t / cfg.duration_days))
        return cfg.triadic_prob + frac * (cfg.triadic_prob_final - cfg.triadic_prob)

    def _pick_target(self, u: int, node_count: int, t: float) -> int | None:
        cfg = self.config
        triadic = self._triadic_prob_at(t)
        r = self.rng.random()
        if r < triadic:
            return self._pick_triadic_target(u)
        r -= triadic
        if r < cfg.creator_prob:
            return self._pick_creator_target(u)
        r -= cfg.creator_prob
        if r < cfg.preferential_prob and self._degree_urn:
            urn = self._degree_urn
        elif (
            cfg.num_communities > 0
            and cfg.community_bias > 0
            and self.rng.random() < cfg.community_bias
        ):
            urn = self._community_members[self._states[u].community]
        else:
            urn = None  # uniform over all nodes

        def draw() -> int:
            if urn is None:
                return int(self.rng.integers(node_count))
            return urn[int(self.rng.integers(len(urn)))]
        if cfg.assortative_matching > 0 and self.rng.random() < cfg.assortative_matching:
            # Degree-matched choice: closest of three candidates to deg(u).
            du = len(self._neighbors[u])
            candidates = [draw() for _ in range(3)]
            return min(candidates, key=lambda v: abs(len(self._neighbors[v]) - du))
        return draw()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> TemporalGraph:
        """Generate and return the full trace."""
        cfg = self.config
        # Seed population and a connected-ish seed graph over the first day.
        for _ in range(cfg.n_seed):
            self._spawn_node(0.0)
        seed_nodes = list(range(cfg.n_seed))
        placed = 0
        # A ring guarantees the seed is connected, remaining seed edges random.
        for i in range(cfg.n_seed):
            if placed >= cfg.seed_edges:
                break
            if self._record_edge(i, (i + 1) % cfg.n_seed, self._edge_time(placed)):
                placed += 1
        while placed < cfg.seed_edges:
            u, v = self.rng.choice(cfg.n_seed, size=2, replace=False)
            if self._record_edge(int(u), int(v), self._edge_time(placed)):
                placed += 1

        next_arrival_index = cfg.n_seed
        m = placed
        while m < cfg.total_edges:
            t = self._edge_time(m)
            # Admit all nodes whose scheduled arrival has passed; they wait
            # in the newcomer queue until they have created their first edges.
            while (
                next_arrival_index < cfg.total_nodes
                and self._node_arrival_time(next_arrival_index) <= t
            ):
                self._newcomer_queue.append(self._spawn_node(t))
                next_arrival_index += 1
            placed_edge = False
            for _ in range(cfg.max_retries):
                u = self._pick_initiator(t)
                v = self._pick_target(u, self._next_node_id, t)
                if v is None or v == u or self.graph.has_edge(u, v):
                    continue
                if cfg.degree_saturation > 0:
                    accept = cfg.degree_saturation / (
                        cfg.degree_saturation + len(self._neighbors[v])
                    )
                    if self.rng.random() > accept:
                        continue
                if cfg.target_recency_tau > 0 and not self._states[v].is_creator:
                    idle = t - self._last_active[v]
                    if self.rng.random() > math.exp(-idle / cfg.target_recency_tau):
                        continue
                if self._record_edge(u, v, t):
                    placed_edge = True
                    break
            if not placed_edge:
                # Uniform fallback keeps the edge schedule exact even when the
                # mixture keeps proposing existing edges (dense late phase).
                for _ in range(1000):
                    u, v = self.rng.integers(self._next_node_id, size=2)
                    if u != v and not self.graph.has_edge(int(u), int(v)):
                        self._record_edge(int(u), int(v), t)
                        placed_edge = True
                        break
            if not placed_edge:
                raise RuntimeError(
                    "growth engine could not place an edge; the graph may be "
                    "nearly complete — lower total_edges or raise total_nodes"
                )
            m += 1
        return self.graph


def generate_trace(
    config: GrowthConfig, seed: "int | np.random.Generator | None" = None
) -> TemporalGraph:
    """Convenience wrapper: build the engine and run it."""
    return GrowthEngine(config, seed=seed).run()
