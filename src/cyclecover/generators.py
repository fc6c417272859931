"""Seeded instance generators with the degree floor verified on the way out.

All kinds are deterministic functions of their GeneratorSpec, including the
repair pass; edges are sampled in ascending pair order so the stream layout
never depends on interpreter details. GNP_REPAIRED draws its edges from the
seed: the stream is CPython's MT19937 random() on spawn(seed, "gnp", n),
taken a block of floats at a time (seeding.random_doubles), so the graphs
are the ones a random() call per pair gives. DIRAC_EXTREMAL and
CLIQUE_UNION_PLUS build one fixed host and then rename its vertices by a
permutation drawn from the seed, so a seed sweep over them visits
isomorphic copies under different labellings; seed 0 keeps the
construction's own labels.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .bitset import lowest_bit, rows_from_matrix
from .core import Graph, min_degree
from .seeding import draw_subset, random_doubles, spawn

GNP_REPAIRED = "GNP_REPAIRED"
DIRAC_EXTREMAL = "DIRAC_EXTREMAL"
CLIQUE_UNION_PLUS = "CLIQUE_UNION_PLUS"

# floats per random_doubles call in GNP_REPAIRED: 1024 made an n = 600 host
# cost 12.6 ms against 9.4 ms (2-vCPU x86-64), and 32768 was no faster
_DRAW_BLOCK = 8192


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int = 0
    p: float = 0.5
    delta_target: int | None = None
    seed: int = 0                # edge draws (GNP_REPAIRED) or relabelling
    overlap: int | None = None   # DIRAC_EXTREMAL half-overlap, derived if None
    pieces: int = 3              # CLIQUE_UNION_PLUS clique count


def _repair_to_min_degree(adj: list[int], n: int, target: int) -> None:
    """Add edges from the lowest-degree vertex, ties to the lowest id, to its
    non-neighbours in ascending id until the minimum degree reaches the
    target. In place. A heap of (degree, id) entries gives that vertex;
    degrees only grow, so an entry older than its vertex's degree is
    dropped when it surfaces."""
    if target > n - 1:
        raise ValueError(f"min degree {target} infeasible on {n} vertices")
    full = (1 << n) - 1
    deg = [row.bit_count() for row in adj]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    while heap:
        d, v = heap[0]
        if d != deg[v]:
            heapq.heappop(heap)
            continue
        if d >= target:
            return
        u = lowest_bit(full & ~adj[v] & ~(1 << v))
        adj[v] |= 1 << u
        adj[u] |= 1 << v
        deg[v] += 1
        deg[u] += 1
        heapq.heapreplace(heap, (deg[v], v))
        heapq.heappush(heap, (deg[u], u))


def _gnp_repaired(spec: GeneratorSpec) -> Graph:
    import numpy as np

    n = spec.n
    rng = spawn(spec.seed, "gnp", n)
    A = np.zeros((n, n), dtype=bool)
    # coins of the upper triangle in row order, drawn _DRAW_BLOCK at a time,
    # each row mirrored into its column as it lands: the whole triangle's
    # floats at once, or a transposed copy of A, would raise the peak memory
    # of a solve run
    coins = np.empty(0, dtype=bool)
    undrawn = n * (n - 1) // 2
    for u in range(n - 1):
        k = n - 1 - u
        if len(coins) < k:
            m = min(undrawn, max(_DRAW_BLOCK, k - len(coins)))
            coins = np.concatenate((coins, random_doubles(rng, m) < spec.p))
            undrawn -= m
        A[u, u + 1:] = coins[:k]
        A[u + 1:, u] = coins[:k]
        coins = coins[k:]
    adj = rows_from_matrix(A)
    if spec.delta_target is not None:
        _repair_to_min_degree(adj, n, spec.delta_target)
    return Graph(n, adj)


def _dirac_extremal(spec: GeneratorSpec) -> Graph:
    """Two overlapping cliques of sizes ceil(n/2)+d and floor(n/2)+d sharing
    2d vertices; the classic tight family for half-degree thresholds."""
    n = spec.n
    if spec.overlap is not None:
        d = spec.overlap
    elif spec.delta_target is not None:
        # the smaller clique bounds the minimum degree: floor(n/2) + d - 1
        d = max(0, spec.delta_target - (n // 2 - 1))
    else:
        d = 1
    a = math.ceil(n / 2) + d
    if a > n:
        raise ValueError("overlap too large for vertex count")
    first = (1 << a) - 1                      # vertices 0..a-1
    second = ((1 << (n - a + 2 * d)) - 1) << (a - 2 * d)
    adj = [0] * n
    for block in (first, second):
        for v in range(n):
            if (block >> v) & 1:
                adj[v] |= block & ~(1 << v)
    return Graph(n, adj)


def _clique_union_plus(spec: GeneratorSpec) -> Graph:
    n, k = spec.n, spec.pieces
    if k < 1 or k > n:
        raise ValueError("bad clique count")
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    adj = [0] * n
    start = 0
    for s in sizes:
        block = ((1 << s) - 1) << start
        for v in range(start, start + s):
            adj[v] |= block & ~(1 << v)
        start += s
    if spec.delta_target is not None:
        _repair_to_min_degree(adj, n, spec.delta_target)
    return Graph(n, adj)


def _seeded_labels(G: Graph, seed: int) -> Graph:
    """G itself at seed 0, else G with its vertices renamed by a
    permutation drawn from the seed."""
    if seed == 0:
        return G
    return G.relabel(draw_subset(spawn(seed, "generator-relabel", G.n), range(G.n), G.n))


def generate(spec: GeneratorSpec) -> Graph:
    """Build the graph for a spec; the degree floor, when given, is verified
    before the graph is returned. A negative vertex count, or an edge
    probability outside [0, 1] for GNP_REPAIRED, raises ValueError."""
    if spec.n < 0:
        raise ValueError(f"vertex count n must be nonnegative, got {spec.n}")
    if spec.kind == GNP_REPAIRED:
        if not 0.0 <= spec.p <= 1.0:  # NaN fails both comparisons
            raise ValueError(f"edge probability p must lie in [0, 1], got {spec.p}")
        G = _gnp_repaired(spec)
    elif spec.kind == DIRAC_EXTREMAL:
        G = _seeded_labels(_dirac_extremal(spec), spec.seed)
    elif spec.kind == CLIQUE_UNION_PLUS:
        G = _seeded_labels(_clique_union_plus(spec), spec.seed)
    else:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    if spec.delta_target is not None:
        got = min_degree(G)
        if got < spec.delta_target:
            raise ValueError(f"generator missed degree floor: {got} < {spec.delta_target}")
    return G
