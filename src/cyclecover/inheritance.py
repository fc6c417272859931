"""Degree inheritance on sampled s-sets, and the deviation bound that
controls how often sampling misses.

A vertex set S inherits the host's degree condition when the induced
subgraph has minimum degree at least (1/2 + eps/2)|S|. The inheriting
s-sets form a property hypergraph; callers probe it through
inherits_degree or estimate its degrees by seeded sampling. Like tiling,
this is lemma library: the acceptance criteria and the CLI use it, and the
cover pipeline imports nothing from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import Graph
from .bitset import mask_from
from .seeding import draw_subset, spawner

_EPS = 1e-12


@dataclass(frozen=True)
class PropertySpec:
    """Host graph plus the inheritance parameters (s, eps)."""

    host: Graph
    s: int
    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if not (2 <= self.s <= self.host.n):
            raise ValueError("s must satisfy 2 <= s <= n")


@dataclass(frozen=True)
class DegreeEstimate:
    """Sampled fraction of inheriting (s-1)-extensions at one vertex."""

    vertex: int
    estimate: float
    successes: int
    trials: int
    seed: int


def inherits_degree(spec: PropertySpec, S: Iterable[int]) -> bool:
    """Does the s-set S inherit the degree condition of the host, i.e. is
    the minimum degree of G[S] at least (1/2 + eps/2) s?"""
    G = spec.host
    sm = mask_from(S)
    if sm.bit_count() != spec.s:
        raise ValueError(f"expected an s-set of size {spec.s}")
    thresh = (0.5 + spec.eps / 2.0) * spec.s - _EPS
    m = sm
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if (G.adj[v] & sm).bit_count() < thresh:
            return False
        m ^= low
    return True


def property_degree_estimate(spec: PropertySpec, v: int, trials: int, seed: int = 0) -> DegreeEstimate:
    """Estimate the degree of v in the property hypergraph by sampling
    uniform (s-1)-subsets of V minus v.

    Subsets are drawn by a partial Fisher-Yates pass over the ascending
    vertex list; trial i derives its own generator from (seed, v, i), so
    estimates reproduce exactly and trials are independent of ordering.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (0 <= v < spec.host.n):
        raise ValueError("vertex outside host")
    pool = [u for u in range(spec.host.n) if u != v]
    successes = 0
    trial_rng = spawner(seed, f"degree-estimate:{v}")
    for i in range(trials):
        rng = trial_rng(i)
        rest = draw_subset(rng, pool, spec.s - 1)
        if inherits_degree(spec, rest + [v]):
            successes += 1
    return DegreeEstimate(v, successes / trials, successes, trials, seed)


def hypergeometric_tail_bound(n_draws: int, ell: float) -> float:
    """Two-sided deviation bound 2 exp(-2 ell^2 / n_draws) for the number of
    marked items seen in n_draws dependent draws without replacement.

    Checked values: (10, 5) -> 2 e^-5, (100, 10) -> 2 e^-2.
    """
    if not isinstance(n_draws, int) or n_draws < 1:
        raise ValueError("n_draws must be a positive integer")
    if ell <= 0:
        raise ValueError("ell must be positive")
    return 2.0 * math.exp(-2.0 * ell * ell / n_draws)
