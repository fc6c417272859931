"""Partite densities, lower-regular tuples, and hypergraph matchings.

A lemma library over explicit uniform hypergraphs: the acceptance criteria
exercise the regular-tuple finder and the matcher, and the cover pipeline
imports nothing from here.

The quantified regularity notion: an s-tuple of disjoint parts is
(rho, d)-lower-regular when every choice of sub-parts of relative size at
least rho spans partite density at least d - rho. Certification runs
through an averaging reduction: a violating choice of large sub-parts
exists exactly when one of minimal size ceil(rho |V_i|) does, so only
exact-size subsets are enumerated and the budget is charged on that reduced
state count. The partition retries of the matcher derive their randomness
from per-call seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Sequence

from .core import FAIL, Hypergraph, PASS, Verdict
from .seeding import draw_subset, spawn

EXHAUSTIVE = "EXHAUSTIVE"

_STATE_BUDGET = 10 ** 7
_EPS = 1e-9


@dataclass(frozen=True)
class RegularTuple:
    """Ordered disjoint parts, certified (rho, d)-lower-regular."""

    parts: tuple[frozenset, ...]
    rho: float
    d: float

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    def total(self) -> int:
        return sum(len(p) for p in self.parts)


@dataclass(frozen=True)
class Matching:
    """Disjoint s-edges of the host hypergraph."""

    edges: tuple[tuple[int, ...], ...]


# -- densities ----------------------------------------------------------


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


def _reduced_states(sizes: Sequence[int], ks: Sequence[int]) -> int:
    states = 1
    for m, k in zip(sizes[1:], ks[1:]):
        states *= math.comb(m, k)
    return states


def _exhaustive_check(P: Hypergraph, lists, ks, rho, d) -> Verdict:
    """Complete certification through the exact-size averaging reduction."""
    import numpy as np

    s = len(lists)
    thresh_density = d - rho
    total_sub = 1
    for k in ks:
        total_sub *= k

    if s == 3:
        m1, m2, m3 = (len(p) for p in lists)
        _, edges = _partite_edges(P, lists)
        E = np.zeros((m1, m2, m3), dtype=np.int8)
        for a, b, c in edges:
            E[a, b, c] = 1
        subs2 = list(combinations(range(m2), ks[1]))
        subs3 = list(combinations(range(m3), ks[2]))
        I2 = np.zeros((len(subs2), m2), dtype=np.float32)
        for i, sub in enumerate(subs2):
            I2[i, list(sub)] = 1.0
        I3 = np.zeros((len(subs3), m3), dtype=np.float32)
        for i, sub in enumerate(subs3):
            I3[i, list(sub)] = 1.0
        # T[v, j, k] = partite edges at part-1 vertex v into (subs2[j], subs3[k]);
        # counts stay far below 2^24 so float32 is exact
        T = np.empty((m1, len(subs2), len(subs3)), dtype=np.float32)
        for v in range(m1):
            T[v] = I2 @ E[v].astype(np.float32) @ I3.T
        bottom = np.sort(T, axis=0)[: ks[0]].sum(axis=0)
        limit = thresh_density * total_sub - _EPS
        viol = np.argwhere(bottom < limit)
        if viol.size == 0:
            return Verdict(PASS)
        j, k = (int(x) for x in viol[0])
        col = T[:, j, k]
        order = np.argsort(col, kind="stable")[: ks[0]]
        w1 = tuple(lists[0][int(i)] for i in sorted(order.tolist()))
        w2 = tuple(lists[1][i] for i in subs2[j])
        w3 = tuple(lists[2][i] for i in subs3[k])
        return Verdict(FAIL, "violating sub-tuple", (w1, w2, w3))

    # generic arity: nested enumeration with incremental edge filtering
    _, edges = _partite_edges(P, lists)
    m1 = len(lists[0])
    limit = thresh_density * total_sub - _EPS

    def rec(depth: int, chosen: list[tuple[int, ...]], pool):
        if depth == s:
            counts = [0] * m1
            for e in pool:
                counts[e[0]] += 1
            low = sorted(range(m1), key=lambda v: (counts[v], v))[: ks[0]]
            if sum(counts[v] for v in low) < limit:
                w1 = tuple(lists[0][v] for v in sorted(low))
                rest = tuple(tuple(lists[i][x] for x in chosen[i - 1])
                             for i in range(1, s))
                return (w1,) + rest
            return None
        for sub in combinations(range(len(lists[depth])), ks[depth]):
            keep = set(sub)
            sub_pool = [e for e in pool if e[depth] in keep]
            res = rec(depth + 1, chosen + [sub], sub_pool)
            if res is not None:
                return res
        return None

    wit = rec(1, [], edges)
    if wit is None:
        return Verdict(PASS)
    return Verdict(FAIL, "violating sub-tuple", wit)


def check_lower_regular(P: Hypergraph, parts: Sequence[Iterable[int]],
                        rho: float, d: float, mode: str = EXHAUSTIVE, *,
                        budget: int = _STATE_BUDGET) -> Verdict:
    """Is the tuple (rho, d)-lower-regular?

    Returns PASS, or FAIL with a violating exact-size sub-tuple as witness.
    The reduced enumeration must fit the state budget, or ValueError is
    raised. EXHAUSTIVE is the only mode; the argument stays because
    acceptance criterion 6 passes it.
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
    ks = [max(1, math.ceil(rho * len(p) - _EPS)) for p in lists]
    if _reduced_states([len(p) for p in lists], ks) > budget:
        raise ValueError("exhaustive budget exceeded")
    return _exhaustive_check(P, lists, ks, rho, d)


def find_lower_regular_tuple(P: Hypergraph, parts: Sequence[Iterable[int]],
                             rho: float, d: float, *, seed: int = 0,
                             telemetry: list | None = None,
                             max_iters: int = 60) -> RegularTuple | None:
    """Shrink toward a certified (rho, d)-lower-regular tuple.

    The input tuple must already have density at least d. Each round either
    certifies the current tuple or takes a violating witness, keeps the
    exact-size witness blocks, partitions the rest of every part into
    blocks of the same size, and recurses into the densest block tuple; by
    averaging that density never drops. NONE only when parts would shrink
    below s vertices. Every round is certified by check_lower_regular, so a
    tuple over its state budget raises ValueError. The search draws no
    randomness; seed is accepted and ignored because acceptance criterion 6
    passes it.
    """
    lists = [sorted(p) for p in parts]
    dens = tuple_density(P, lists)
    if dens < d - _EPS:
        raise ValueError("density precondition")

    for it in range(max_iters):
        sizes = [len(p) for p in lists]
        ks = [max(1, math.ceil(rho * m - _EPS)) for m in sizes]
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
            if cd > best_dens + _EPS:
                best, best_dens = combo, cd
        if telemetry is not None:
            telemetry.append({"iteration": it, "current_density": dens,
                              "selected_density": best_dens,
                              "part_size": sizes[0]})
        lists = [sorted(b) for b in best]
        dens = best_dens
    return None


# -- hypergraph perfect matching ----------------------------------------


def _partite_info(P: Hypergraph, parts: Sequence[Sequence[int]]):
    part_of = {}
    for pi, p in enumerate(parts):
        for v in p:
            part_of[v] = pi
    s = len(parts)
    partite = []
    for e in P.edge_set:
        idx = [part_of.get(v) for v in e]
        if None in idx or sorted(idx) != list(range(s)):
            continue
        by_part = [None] * s
        for v in e:
            by_part[part_of[v]] = v
        partite.append(tuple(by_part))
    return partite


def hypergraph_perfect_matching(P: Hypergraph, *, eps: float = 0.1, seed: int = 0,
                                partition_retries: int = 50,
                                exchange_budget: int = 200_000) -> Matching | None:
    """Perfect matching in a uniform hypergraph.

    Strategy: random equipartitions are retried until the partite minimum
    degree clears (1 - 1/s + eps/2) m^(s-1), falling back to the best seen;
    a greedy partite matching is padded with flagged placeholder edges, and
    placeholders are then eliminated by an exchange step that redistributes
    s-1 matched edges plus the uncovered vertices into s real edges. Every
    partition that fails to finish triggers a retry; None after the budget.
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
        partite = _partite_info(P, parts)
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
        got = _match_one_partition(P, parts, partite, exchange_budget)
        if got is not None:
            edges = tuple(sorted(tuple(sorted(e)) for e in got))
            flat = [v for e in edges for v in e]
            # an explicit raise, so that the check also runs under python -O
            if len(set(flat)) != n or not all(e in P.edge_set for e in edges):
                raise AssertionError("matching failed its self check")
            return Matching(edges)
    return None


def _match_one_partition(P: Hypergraph, parts, partite, exchange_budget):
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
            if examined > exchange_budget:
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
