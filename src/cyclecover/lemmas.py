"""The lemma library: explicit uniform hypergraphs, degree inheritance on
sampled s-sets, partite densities and lower-regular tuples, hypergraph
perfect matchings, and bicliques. The biclique search is the subset DFS
of blowup_search, which connect_clusters runs too; this module keeps no
copy of it.

These are the lemmas the blow-up cover is built from. Acceptance criteria
4-8 and the CLI's biclique, match and inherit-scan commands run them; a
solve runs none of them. This module may import the pipeline modules, and
none of them imports it.

Degree inheritance: a vertex set S inherits the host's degree condition
when the induced subgraph has minimum degree at least (1/2 + eps/2)|S|.
The inheriting s-sets form a property hypergraph; callers probe it through
inherits_degree or estimate its degrees by seeded sampling.

Lower regularity: an s-tuple of disjoint parts is (rho, d)-lower-regular
when every choice of sub-parts of relative size at least rho spans partite
density at least d - rho. Certification runs through an averaging
reduction: a violating choice of large sub-parts exists exactly when one of
minimal size ceil(rho |V_i|) does, so only exact-size subsets are
enumerated and the budget is charged on that reduced state count. One
numpy kernel certifies every arity. The partition retries of the matcher
derive their randomness from per-call seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Sequence

from .bitset import mask_from
from .blowup_search import DEFAULT_NODE_BUDGET, _order_key, _subset_dfs
from .core import FAIL, Graph, PASS, Verdict
from .seeding import draw_subset, spawn, spawner

EXHAUSTIVE = "EXHAUSTIVE"

# slack of the inheritance threshold (1/2 + eps/2) s
_DEGREE_EPS = 1e-12
# slack of the density comparisons and the sub-part sizes ceil(rho m)
_DENSITY_EPS = 1e-9
# elements of the largest float32 array one lower-regularity check may build;
# acceptance criterion 6 builds 12 * 924 * 924, about 1.02e7
_ARRAY_BUDGET = 2 * 10 ** 7
# shrink rounds of find_lower_regular_tuple
_SHRINK_ROUNDS = 60
# exchange candidates the matcher examines per partition
_EXCHANGE_BUDGET = 200_000


# -- hypergraphs --------------------------------------------------------


class Hypergraph:
    """s-uniform hypergraph with an explicit frozen edge set; edges are
    stored as sorted tuples."""

    __slots__ = ("s", "universe", "edge_set")

    def __init__(self, s, universe, edge_set):
        self.s = s
        self.universe = universe
        self.edge_set = edge_set

    @classmethod
    def from_edges(cls, s: int, universe: Iterable[int], edges: Iterable[Iterable[int]]) -> "Hypergraph":
        uni = frozenset(universe)
        if s < 1:
            raise ValueError("uniformity must be positive")
        edge_set = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != s or len(set(t)) != s:
                raise ValueError(f"edge {t} is not an s-set")
            if not all(v in uni for v in t):
                raise ValueError(f"edge {t} leaves the universe")
            edge_set.add(t)
        return cls(s, uni, frozenset(edge_set))


# -- degree inheritance -------------------------------------------------


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
    thresh = (0.5 + spec.eps / 2.0) * spec.s - _DEGREE_EPS
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


# -- densities ----------------------------------------------------------


@dataclass(frozen=True)
class RegularTuple:
    """Ordered disjoint parts, certified (rho, d)-lower-regular."""

    parts: tuple[frozenset, ...]
    rho: float
    d: float


@dataclass(frozen=True)
class Matching:
    """Disjoint s-edges of the host hypergraph."""

    edges: tuple[tuple[int, ...], ...]


def _part_maps(parts: Sequence[Iterable[int]]):
    lists = [sorted(p) for p in parts]
    index = {}
    for pi, vs in enumerate(lists):
        for vi, v in enumerate(vs):
            if v in index:
                raise ValueError("parts overlap")
            index[v] = (pi, vi)
    return lists, index


def _partite_edges(P: Hypergraph, parts: Sequence[Iterable[int]]):
    """Explicit edges meeting every part exactly once, as index tuples."""
    lists, index = _part_maps(parts)
    k = len(lists)
    out = []
    for e in P.edge_set:
        slots = [None] * k
        ok = True
        for v in e:
            hit = index.get(v)
            if hit is None:
                ok = False
                break
            pi, vi = hit
            if slots[pi] is not None:
                ok = False
                break
            slots[pi] = vi
        if ok and all(s is not None for s in slots):
            out.append(tuple(slots))
    return lists, out


def tuple_density(P: Hypergraph, parts: Sequence[Iterable[int]]) -> float:
    """Partite edge density of an ordered tuple of disjoint parts: the
    fraction of the part product that is an edge of P, counted exactly."""
    if len(parts) != P.s:
        raise ValueError("tuple arity must equal the uniformity")
    lists = [sorted(p) for p in parts]
    if any(len(p) == 0 for p in lists):
        raise ValueError("empty part")
    space = 1
    for p in lists:
        space *= len(p)
    _, edges = _partite_edges(P, lists)
    return len(edges) / space


# -- the lower-regularity check -----------------------------------------


def _kernel_elements(sizes: Sequence[int], ks: Sequence[int]) -> int:
    """Elements of the largest array _exhaustive_check builds: the partite
    array, each later part's subset indicators, and the array after each
    contraction, |V_1| times the subset counts so far times the sizes of
    the parts still to come."""
    shape = list(sizes)
    largest = math.prod(shape)
    for i in range(1, len(shape)):
        count = math.comb(shape[i], ks[i])
        largest = max(largest, count * shape[i])
        shape[i] = count
        largest = max(largest, math.prod(shape))
    return largest


def _exhaustive_check(P: Hypergraph, lists, ks, rho, d) -> Verdict:
    """Complete certification through the exact-size averaging reduction.

    T[v, j_2, ..., j_s] counts the partite edges at vertex v of part 1 into
    the j_i-th ks[i]-subset (in combinations order) of every later part i:
    the 0/1 partite array contracted with each later part's exact-size
    subset indicators in turn. The ks[0] smallest entries of a column sum
    to the fewest edges a choice of sub-parts with those later subsets
    spans; the first column below the limit, in C order, gives the
    witness. Counts stay far below 2^24, so float32 is exact, and a count
    lies below the limit exactly when it lies below the limit's ceiling,
    which float32 holds without rounding.
    """
    import numpy as np

    _, edges = _partite_edges(P, lists)
    T = np.zeros([len(p) for p in lists], dtype=np.float32)
    T[tuple(np.array(edges, dtype=np.intp).reshape(-1, len(lists)).T)] = 1.0
    subsets = []
    for p, k in zip(lists[1:], ks[1:]):
        subs = list(combinations(range(len(p)), k))
        ind = np.zeros((len(subs), len(p)), dtype=np.float32)
        ind[np.arange(len(subs))[:, None], subs] = 1.0
        T = np.tensordot(T, ind, axes=([1], [1]))
        subsets.append(subs)
    bottom = np.sort(T, axis=0)[:ks[0]].sum(axis=0)
    viol = np.argwhere(bottom < math.ceil((d - rho) * math.prod(ks) - _DENSITY_EPS))
    if len(viol) == 0:
        return Verdict(PASS)
    at = tuple(int(j) for j in viol[0])
    low = np.sort(np.argsort(T[(slice(None), *at)], kind="stable")[:ks[0]])
    witness = [tuple(lists[0][int(v)] for v in low)]
    witness += [tuple(p[x] for x in subs[j]) for p, subs, j in zip(lists[1:], subsets, at)]
    return Verdict(FAIL, "violating sub-tuple", tuple(witness))


def check_lower_regular(P: Hypergraph, parts: Sequence[Iterable[int]],
                        rho: float, d: float, mode: str = EXHAUSTIVE) -> Verdict:
    """Is the tuple (rho, d)-lower-regular?

    Returns PASS, or FAIL with a violating exact-size sub-tuple as witness.
    The kernel's largest array must fit _ARRAY_BUDGET elements, or
    ValueError is raised before anything is allocated. EXHAUSTIVE is the
    only mode; the argument stays because acceptance criterion 6 passes it.
    """
    if mode != EXHAUSTIVE:
        raise ValueError(f"unknown mode {mode!r}")
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    lists = [sorted(p) for p in parts]
    if len(lists) != P.s:
        raise ValueError("tuple arity must equal the uniformity")
    if any(len(p) == 0 for p in lists):
        raise ValueError("empty part")
    ks = [max(1, math.ceil(rho * len(p) - _DENSITY_EPS)) for p in lists]
    if _kernel_elements([len(p) for p in lists], ks) > _ARRAY_BUDGET:
        raise ValueError("exhaustive budget exceeded")
    return _exhaustive_check(P, lists, ks, rho, d)


def find_lower_regular_tuple(P: Hypergraph, parts: Sequence[Iterable[int]],
                             rho: float, d: float, *, seed: int = 0,
                             telemetry: list | None = None) -> RegularTuple | None:
    """Shrink toward a certified (rho, d)-lower-regular tuple.

    The input tuple must already have density at least d. Each round either
    certifies the current tuple or takes a violating witness, keeps the
    exact-size witness blocks, partitions the rest of every part into
    blocks of the same size, and recurses into the densest block tuple; by
    averaging that density never drops. None when parts would shrink below
    s vertices, or after _SHRINK_ROUNDS rounds. Every round is certified by
    check_lower_regular, so a tuple over its array budget raises
    ValueError. The search draws no randomness; seed is accepted and
    ignored because acceptance criterion 6 passes it.
    """
    lists = [sorted(p) for p in parts]
    dens = tuple_density(P, lists)
    if dens < d - _DENSITY_EPS:
        raise ValueError("density precondition")

    for it in range(_SHRINK_ROUNDS):
        sizes = [len(p) for p in lists]
        ks = [max(1, math.ceil(rho * m - _DENSITY_EPS)) for m in sizes]
        verdict = check_lower_regular(P, lists, rho, d)
        if verdict.status == PASS:
            return RegularTuple(tuple(frozenset(p) for p in lists), rho, d)

        witness = verdict.witness
        if any(k < P.s for k in ks):
            return None
        block_lists = []
        for pi, p in enumerate(lists):
            wset = set(witness[pi])
            rest = [v for v in p if v not in wset]
            blocks = [sorted(witness[pi])]
            k = ks[pi]
            for off in range(0, len(rest) - k + 1, k):
                blocks.append(rest[off: off + k])
            block_lists.append(blocks)
        best = None
        best_dens = -1.0
        for combo in product(*block_lists):
            cd = tuple_density(P, combo)
            if cd > best_dens + _DENSITY_EPS:
                best, best_dens = combo, cd
        if telemetry is not None:
            telemetry.append({"iteration": it, "current_density": dens,
                              "selected_density": best_dens,
                              "part_size": sizes[0]})
        lists = [sorted(b) for b in best]
        dens = best_dens
    return None


# -- hypergraph perfect matching ----------------------------------------


def hypergraph_perfect_matching(P: Hypergraph, *, eps: float = 0.1, seed: int = 0,
                                partition_retries: int = 50) -> Matching | None:
    """Perfect matching in a uniform hypergraph.

    Strategy: random equipartitions are retried until the partite minimum
    degree clears (1 - 1/s + eps/2) m^(s-1), falling back to the best seen;
    a greedy partite matching is padded with flagged placeholder edges, and
    placeholders are then eliminated by an exchange step that redistributes
    s-1 matched edges plus the uncovered vertices into s real edges. Every
    partition that fails to finish within _EXCHANGE_BUDGET exchange
    candidates triggers a retry; None after the budget.
    """
    uni = sorted(P.universe)
    n = len(uni)
    s = P.s
    if n % s != 0:
        raise ValueError("divisibility: s must divide the vertex count")
    m = n // s
    if m == 0:
        return Matching(())

    need = (1.0 - 1.0 / s + eps / 2.0) * (m ** (s - 1))
    attempts = []
    for r in range(partition_retries):
        rng = spawn(seed, "matching-partition", r)
        order = draw_subset(rng, uni, n)
        parts = [sorted(order[i * m:(i + 1) * m]) for i in range(s)]
        lists, slots = _partite_edges(P, parts)
        partite = [tuple(p[vi] for p, vi in zip(lists, e)) for e in slots]
        deg = {v: 0 for v in uni}
        for e in partite:
            for v in e:
                deg[v] += 1
        dmin = min(deg.values())
        attempts.append((dmin, r, parts, partite))
        if dmin >= need:
            break
    attempts.sort(key=lambda a: (-a[0], a[1]))

    for dmin, _r, parts, partite in attempts:
        got = _match_one_partition(P, parts, partite)
        if got is not None:
            edges = tuple(sorted(tuple(sorted(e)) for e in got))
            flat = [v for e in edges for v in e]
            # an explicit raise, so that the check also runs under python -O
            if len(set(flat)) != n or not all(e in P.edge_set for e in edges):
                raise AssertionError("matching failed its self check")
            return Matching(edges)
    return None


def _match_one_partition(P: Hypergraph, parts, partite):
    s = len(parts)
    partite_sorted = sorted(partite)
    used: set[int] = set()
    matched: list[tuple] = []
    for e in partite_sorted:
        if used.isdisjoint(e):
            matched.append(e)
            used.update(e)
    uncovered = [[v for v in p if v not in used] for p in parts]
    dummies = []
    for i in range(len(uncovered[0])):
        dummies.append(tuple(uncovered[pi][i] for pi in range(s)))
    pool = [(e, False) for e in matched] + [(e, True) for e in dummies]

    examined = 0
    while any(flag for _e, flag in pool):
        target = next(e for e, flag in pool if flag)
        rest = [(e, flag) for e, flag in pool if e != target]
        fixed = None
        for X in permutations(rest, s - 1):
            examined += 1
            if examined > _EXCHANGE_BUDGET:
                return None
            new_edges = []
            good = True
            for i in range(s):
                f = [target[i]]
                for j in range(1, s):
                    f.append(X[j - 1][0][(i + j) % s])
                if tuple(sorted(f)) not in P.edge_set:
                    good = False
                    break
                new_edges.append(tuple(f))
            if good:
                fixed = (set(x[0] for x in X), new_edges)
                break
        if fixed is None:
            return None
        removed, new_edges = fixed
        pool = [(e, flag) for e, flag in rest if e not in removed]
        pool.extend((e, False) for e in new_edges)
    return [e for e, _flag in pool]


# -- bicliques ----------------------------------------------------------


@dataclass(frozen=True)
class BicliqueRequest:
    host: Graph
    side_a: frozenset
    side_b: frozenset
    p: int

    @classmethod
    def of(cls, host: Graph, side_a: Iterable[int], side_b: Iterable[int], p: int) -> "BicliqueRequest":
        a = frozenset(side_a)
        b = frozenset(side_b)
        if a & b:
            raise ValueError("sides overlap")
        if any(not 0 <= v < host.n for v in a | b):
            raise ValueError("vertex outside the host")
        if p < 1:
            raise ValueError("p must be at least 1")
        if p > min(len(a), len(b)):
            raise ValueError("p exceeds a side")
        return cls(host, a, b, p)


def find_biclique(req: BicliqueRequest, node_budget: int | None = DEFAULT_NODE_BUDGET):
    """A complete bipartite K_{p,p} with sides inside side_a / side_b, as
    (A', B'), or None.

    The search is connect_clusters' subset DFS (blowup_search._subset_dfs)
    over B sorted by neighbours in A, then degree, then id, with A as its
    one side: the first p-subset of B in lexicographic order with p common
    neighbours in A wins. None is a proof of absence unless B is past the
    enumeration limit.
    """
    G = req.host
    amask = mask_from(req.side_a)
    key = _order_key(G)
    b_list = sorted(req.side_b, key=lambda b: (-(G.adj[b] & amask).bit_count(), key(b)))
    return _subset_dfs(G, b_list, (amask,), req.p, node_budget)
