"""Seeded instance generators with the degree floor verified on the way out.

All kinds are deterministic functions of their GeneratorSpec, including the
repair pass; edges are sampled in ascending pair order so the stream layout
never depends on interpreter details. GNP_REPAIRED draws its edges from the
seed. DIRAC_EXTREMAL and CLIQUE_UNION_PLUS build one fixed host and then
rename its vertices by a permutation drawn from the seed, so a seed sweep
over them visits isomorphic copies under different labellings; seed 0 keeps
the construction's own labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .bitset import rows_from_matrix
from .core import Graph, graph_from_text, min_degree
from .seeding import draw_subset, spawn

GNP_REPAIRED = "GNP_REPAIRED"
DIRAC_EXTREMAL = "DIRAC_EXTREMAL"
CLIQUE_UNION_PLUS = "CLIQUE_UNION_PLUS"
FROM_FILE = "FROM_FILE"

KINDS = (GNP_REPAIRED, DIRAC_EXTREMAL, CLIQUE_UNION_PLUS, FROM_FILE)


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int = 0
    p: float = 0.5
    delta_target: int | None = None
    seed: int = 0                # edge draws (GNP_REPAIRED) or relabelling
    overlap: int | None = None   # DIRAC_EXTREMAL half-overlap, derived if None
    pieces: int = 3              # CLIQUE_UNION_PLUS clique count
    path: str | None = None      # FROM_FILE source


def _repair_to_min_degree(adj: list[int], n: int, target: int) -> None:
    """Add edges from the lowest-degree vertex to its non-neighbours in
    ascending id until the minimum degree reaches the target. In place."""
    if target > n - 1:
        raise ValueError(f"min degree {target} infeasible on {n} vertices")
    full = (1 << n) - 1
    while True:
        v = min(range(n), key=lambda x: (adj[x].bit_count(), x))
        if adj[v].bit_count() >= target:
            return
        candidates = full & ~adj[v] & ~(1 << v)
        u = (candidates & -candidates).bit_length() - 1
        adj[v] |= 1 << u
        adj[u] |= 1 << v


def _gnp_repaired(spec: GeneratorSpec) -> Graph:
    import numpy as np

    n = spec.n
    draw = spawn(spec.seed, "gnp", n).random
    A = np.zeros((n, n), dtype=bool)
    buf = np.empty(n)
    # one row of draws at a time, mirrored into its column as it lands: a
    # list of the whole triangle's floats, or a transposed copy of A, would
    # raise the peak memory of a solve run
    for u in range(n - 1):
        k = n - 1 - u
        buf[:k] = [draw() for _ in range(k)]
        np.less(buf[:k], spec.p, out=A[u, u + 1:])
        A[u + 1:, u] = A[u, u + 1:]
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
    before the graph is returned."""
    if spec.kind == GNP_REPAIRED:
        G = _gnp_repaired(spec)
    elif spec.kind == DIRAC_EXTREMAL:
        G = _seeded_labels(_dirac_extremal(spec), spec.seed)
    elif spec.kind == CLIQUE_UNION_PLUS:
        G = _seeded_labels(_clique_union_plus(spec), spec.seed)
    elif spec.kind == FROM_FILE:
        if spec.path is None:
            raise ValueError("FROM_FILE needs a path")
        G = graph_from_text(Path(spec.path).read_text())
    else:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    if spec.delta_target is not None and spec.kind != FROM_FILE:
        got = min_degree(G)
        if got < spec.delta_target:
            raise ValueError(f"generator missed degree floor: {got} < {spec.delta_target}")
    return G
