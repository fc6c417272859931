"""Searches for bicliques, pattern blow-ups and connector triples.

All searches share one tie-break everywhere a vertex is chosen: higher host
degree first, then lower id. Every non-NONE return is re-checked against the
defining property before it leaves the module, so a bug can produce a NONE
or an exception but never an invalid certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .bitset import bits_list, mask_from, mask_indices, mask_words
from .core import (
    BALANCE_EXACT,
    Blowup,
    Graph,
    PASS,
    SetFamily,
    is_complete_bipartite,
    verify_blowup_hosted,
)
from .seeding import random_doubles, spawner

DEFAULT_NODE_BUDGET = 10 ** 6
_TINY_ENUM = 200_000


def _order_key(G: Graph):
    """Global choice order: descending degree, then ascending id."""
    return lambda v: (-G.degree(v), v)


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


def _check_biclique(G: Graph, A: Sequence[int], B: Sequence[int]) -> None:
    bmask = mask_from(B)
    for a in A:
        if bmask & ~G.adj[a]:
            raise AssertionError("search returned a non-biclique")


def find_biclique(req: BicliqueRequest, node_budget: int | None = DEFAULT_NODE_BUDGET):
    """A complete bipartite K_{p,p} with sides inside side_a / side_b, or
    None.

    Small B-sides are enumerated outright, so None is then a proof of
    absence. Larger instances run a pruned DFS over B in degree order and
    None may also mean the node budget ran out.
    """
    G = req.host
    p = req.p
    amask = mask_from(req.side_a)
    key = _order_key(G)
    b_list = sorted(req.side_b, key=lambda b: (-(G.adj[b] & amask).bit_count(), key(b)))

    def finish(inter_mask: int, chosen: list[int]):
        a_side = sorted(bits_list(inter_mask), key=key)[:p]
        b_side = sorted(chosen)
        _check_biclique(G, a_side, b_side)
        return tuple(sorted(a_side)), tuple(b_side)

    if comb(len(b_list), p) <= _TINY_ENUM:
        for chosen in combinations(b_list, p):
            inter = amask
            for b in chosen:
                inter &= G.adj[b]
                if inter.bit_count() < p:
                    break
            else:
                return finish(inter, list(chosen))
        return None  # proven: every p-subset of B was inspected

    nodes = 0

    def dfs(start: int, chosen: list[int], inter: int):
        nonlocal nodes
        if len(chosen) == p:
            return finish(inter, chosen)
        for idx in range(start, len(b_list)):
            if node_budget is not None and nodes >= node_budget:
                return None
            b = b_list[idx]
            nodes += 1
            nxt = inter & G.adj[b]
            if nxt.bit_count() < p:
                continue
            if len(b_list) - idx < p - len(chosen):
                return None
            res = dfs(idx + 1, chosen + [b], nxt)
            if res is not None:
                return res
        return None

    return dfs(0, [], amask)


# Every jittered restart runs in _batched_restarts, in lockstep batches of at
# most _BATCH. In the dead-end calls of sparse-600 solves a batch of one
# restart cost 1.6 plain jittered passes and a batch of 24 about 5, but a
# separate plain path for the first jittered restarts did not pay: over the
# 240 find_blowup calls of sparse-600 solves on graph seeds 0-19 (2-vCPU
# x86-64, numpy 2.4, best of three, two alternating runs each) they took
# 1.03-1.06 s batched from restart 1 and 1.06-1.09 s with restarts 1-2 run
# one at a time first, against 1.54-1.87 s with every restart one at a time.
# In one run each, batches of 16, 32 or 48 took 0.92, 0.90 or 1.03 s and
# batches of 24 took 0.86 s.
_BATCH = 24


def find_blowup(host: Graph, F: Graph, t: int, frame: SetFamily | None = None, *,
                avoid: int = 0, restart_budget: int = 50, seed: int = 0) -> Blowup | None:
    """Search for a blow-up of F with every cluster of size exactly t.

    Clusters are grown simultaneously, one vertex per pattern position per
    round, always taking the candidate that keeps the scarcest neighbouring
    pool largest; ties go to the higher degree, then the lower id. Candidate
    pools only shrink; a dead pool aborts the pass and a jittered restart
    breaks value ties by jitter first. Each pick scores its whole pool at
    once on the host's packed view. The jittered restarts run side by side
    in batches, every pick of a batch scored in one array pass, and the
    lowest-numbered survivor wins, so the result is the one a restart-by-
    restart loop returns. On sparse GNP hosts (n = 600, p = 0.8), where the
    last extraction of every solve exhausts its restarts, that took the
    median solve from 0.195 to 0.147 s.
    """
    import numpy as np

    if t < 1:
        raise ValueError("t must be at least 1")
    if frame is not None and len(frame.clusters) != F.n:
        raise ValueError("frame must have one part per pattern vertex")
    s = F.n
    n = host.n
    full = host.vertices_mask() & ~avoid
    base = [m & full for m in frame.masks] if frame is not None else [full] * s
    nbrs = [bits_list(F.adj[i]) for i in range(s)]
    order = sorted(range(s), key=lambda i: (-F.degree(i), i))
    adj = host.adj
    rows, deg = host.packed()

    def greedy_pass() -> list[list[int]] | None:
        cand = list(base)
        clusters: list[list[int]] = [[] for _ in range(s)]
        used = 0
        for _round in range(t):
            for i in order:
                pool = cand[i] & ~used
                if not pool:
                    return None
                X = mask_indices(pool, n)
                if nbrs[i]:
                    free = mask_words([cand[j] & ~used for j in nbrs[i]], rows.shape[1])
                    value = np.bitwise_count(rows[X][:, None, :] & free).sum(
                        axis=2, dtype=np.int64).min(axis=1)
                else:
                    value = None  # every candidate scores n
                # rank (-value, -deg, id): the first maximum is the lowest id
                key = deg[X] if value is None else value * (n + 1) + deg[X]
                best = int(X[np.argmax(key)])
                clusters[i].append(best)
                used |= 1 << best
                for j in nbrs[i]:
                    cand[j] &= adj[best]
                if (cand[i] & ~used).bit_count() < t - len(clusters[i]):
                    return None
        return clusters

    clusters = greedy_pass()
    if clusters is None and restart_budget > 0:
        clusters = _batched_restarts(host, t, base, nbrs, order, full,
                                     spawner(seed, "blowup-restart"),
                                     range(1, restart_budget + 1))
    if clusters is None:
        return None
    fam = SetFamily.of(clusters, BALANCE_EXACT, m=t)
    blow = Blowup(F, fam)
    verdict = verify_blowup_hosted(host, blow)
    if verdict.status != PASS:  # pragma: no cover - construction guarantees it
        raise AssertionError(f"blow-up failed self check: {verdict}")
    return blow


def _batched_restarts(host: Graph, t: int, base: list[int], nbrs: list[list[int]],
                      order: list[int], full: int, restart_rng, restarts: range):
    """The clusters of the lowest-numbered jittered restart in `restarts` that
    survives find_blowup's greedy pass, or None.

    The restarts run in lockstep batches. Each live restart keeps the free
    pool of every part i (its candidates not yet used) as uint64 words of
    the part's own id window, the word range that covers base[i]. Part i
    keeps the host rows of its base over each neighbour's window as one
    (d, w, B_i) array, contiguous in B_i, so one pass per neighbour scores
    the pick of every live restart. Dead restarts are dropped at once.
    """
    import numpy as np

    if not all(base):
        return None  # a part with an empty pool kills every pass
    rows, deg = host.packed()
    n = host.n
    s = len(base)
    # each part's base in choice order after value and jitter: descending
    # degree, then ascending id, so that among the candidates of top value
    # and least jitter the first is the one a pick takes
    idx = []
    for m in base:
        x = mask_indices(m, n)
        idx.append(x[np.argsort(-deg[x], kind="stable")])
    lo = [int(x.min()) >> 6 for x in idx]
    width = [(int(x.max()) >> 6) + 1 - a for x, a in zip(idx, lo)]
    # the word of each base vertex in its part's window, and its bit there
    word = [(x >> 6) - a for x, a in zip(idx, lo)]
    bit = [np.left_shift(np.uint64(1), (x & 63).astype(np.uint64)) for x in idx]
    start = [mask_words([m >> (64 * a)], w)[:, :, None] for m, a, w in zip(base, lo, width)]
    scoring = []
    for i in range(s):
        stacked = np.zeros((len(nbrs[i]), max((width[j] for j in nbrs[i]), default=0),
                            len(idx[i])), dtype=np.uint64)
        for k, j in enumerate(nbrs[i]):
            stacked[k, :width[j]] = rows[idx[i], lo[j]:lo[j] + width[j]].T
        scoring.append([stacked[k, None, :width[j]] for k, j in enumerate(nbrs[i])])
    # the other parts a pick must leave: those whose base meets its own
    meets = [[j for j in range(s) if j != i and base[j] & base[i]] for i in range(s)]
    full_idx = mask_indices(full, n)
    at_draw = [np.searchsorted(full_idx, x) for x in idx]

    for first in range(restarts.start, restarts.stop, _BATCH):
        batch = range(first, min(first + _BATCH, restarts.stop))
        R = len(batch)
        jit = [np.empty((R, len(x))) for x in idx]
        for r, restart in enumerate(batch):
            draw = random_doubles(restart_rng(restart), len(full_idx))
            for i in range(s):
                jit[i][r] = draw[at_draw[i]]
        free = [np.repeat(w, R, axis=0) for w in start]
        picks = np.empty((R, t, s), dtype=np.int64)
        live = np.arange(R)
        for rnd in range(t):
            need = t - rnd - 1
            for i in order:
                pool = (free[i][:, word[i], 0] & bit[i]) != 0
                top = pool
                if nbrs[i]:
                    value = None
                    for j, part_rows in zip(nbrs[i], scoring[i]):
                        c = np.bitwise_count(part_rows & free[j]).sum(axis=1, dtype=np.int64)
                        value = c if value is None else np.minimum(value, c, out=value)
                    value = np.where(pool, value, -1)
                    top = value == value.max(axis=1, keepdims=True)
                # jitter as drawn, never folded into a float key with the
                # value, where rounding could merge two candidates
                k = np.where(top, jit[i], 2.0).argmin(axis=1)
                best = idx[i][k]
                picks[:, rnd, i] = best
                free[i][live, word[i][k], 0] &= ~bit[i][k]
                for j in meets[i]:
                    at = (best >> 6) - lo[j]
                    inside = (at >= 0) & (at < width[j])
                    off = np.left_shift(np.uint64(1), (best[inside] & 63).astype(np.uint64))
                    free[j][live[inside], at[inside], 0] &= ~off
                for j in nbrs[i]:
                    free[j] &= rows[best, lo[j]:lo[j] + width[j], None]
                alive = np.count_nonzero(pool, axis=1) > need  # the pick left >= need
                if not alive.all():
                    picks = picks[alive]
                    free = [f[alive] for f in free]
                    jit = [a[alive] for a in jit]
                    live = np.arange(len(picks))
                    if not len(picks):
                        break
            if not len(picks):
                break
        if len(picks):
            return [picks[0, :, i].tolist() for i in range(s)]
    return None


def connect_clusters(G: Graph, U: Iterable[int], V: Iterable[int], W: Iterable[int],
                     m_prime: int, *, eps: float = 0.25,
                     node_budget: int | None = DEFAULT_NODE_BUDGET,
                     telemetry: dict | None = None):
    """Find (U', V', W') of size m_prime each with W' inside W completely
    joined to U' inside U and to V' inside V. Returns the triple or None.

    Only vertices with at least eps m / 8 neighbours on a side can serve in
    W', so the search runs over that filtered pool; since membership in a
    valid W' forces m_prime >= eps m / 8 such neighbours anyway, the filter
    loses nothing whenever m_prime clears the threshold. Pool sizes land in
    the telemetry dict when one is supplied.
    """
    import numpy as np

    u_list = sorted(U)
    v_list = sorted(V)
    w_list = sorted(W)
    if len(u_list) != len(v_list):
        raise ValueError("unbalanced connection request")
    m = len(u_list)
    if m_prime < 1 or m_prime > m:
        raise ValueError("m_prime must lie in 1..|U|")
    umask = mask_from(u_list)
    vmask = mask_from(v_list)
    if umask & vmask:
        raise ValueError("U and V overlap")
    wmask = mask_from(w_list)
    if wmask & (umask | vmask):
        raise ValueError("W overlaps an endpoint side")
    if (umask | vmask | wmask) >> G.n:
        raise ValueError("vertex outside the host")
    thresh = eps * m / 8.0
    # neighbours of every W vertex on each side, counted on the packed view
    rows, deg = G.packed()
    W_idx = np.array(w_list, dtype=np.int64)
    sides = mask_words([umask, vmask], rows.shape[1])
    cu, cv = np.bitwise_count(rows[W_idx][:, None, :] & sides).sum(axis=2, dtype=np.int64).T
    on_u = cu >= thresh
    on_v = cv >= thresh
    both = on_u & on_v
    # the vertices that clear both sides, once each (W may repeat one), in
    # (-min(cu, cv), -deg, id) order: with score = min(cu, cv) (n + 1) + deg
    # and 0 <= id < n, the int key id - score n sorts in that order
    n = G.n
    score = np.minimum(cu, cv)[both] * (n + 1) + deg[W_idx[both]]
    order = [k % n for k in sorted(set((W_idx[both] - score * n).tolist()))]
    if telemetry is not None:
        telemetry["n_prime"] = len(u_list) + len(v_list) + len(w_list)
        telemetry["w_u"] = int(on_u.sum())
        telemetry["w_v"] = int(on_v.sum())
        telemetry["w_star"] = len(order)
    key = _order_key(G)

    def finish(wset: Sequence[int], inter_u: int, inter_v: int):
        u_side = sorted(sorted(bits_list(inter_u), key=key)[:m_prime])
        v_side = sorted(sorted(bits_list(inter_v), key=key)[:m_prime])
        w_side = tuple(sorted(wset))
        assert is_complete_bipartite(G, u_side, w_side).status == PASS
        assert is_complete_bipartite(G, v_side, w_side).status == PASS
        return tuple(u_side), tuple(v_side), w_side

    if comb(len(order), m_prime) <= _TINY_ENUM:
        for chosen in combinations(order, m_prime):
            iu, iv = umask, vmask
            for w in chosen:
                iu &= G.adj[w]
                iv &= G.adj[w]
                if iu.bit_count() < m_prime or iv.bit_count() < m_prime:
                    break
            else:
                return finish(chosen, iu, iv)
        return None  # the filtered pool is exhaustive for valid W' members

    nodes = 0

    def dfs(start: int, chosen: list[int], iu: int, iv: int):
        nonlocal nodes
        if len(chosen) == m_prime:
            return finish(chosen, iu, iv)
        for idx in range(start, len(order)):
            if node_budget is not None and nodes >= node_budget:
                return None
            nodes += 1
            w = order[idx]
            nu = iu & G.adj[w]
            nv = iv & G.adj[w]
            if nu.bit_count() < m_prime or nv.bit_count() < m_prime:
                continue
            res = dfs(idx + 1, chosen + [w], nu, nv)
            if res is not None:
                return res
        return None

    found = dfs(0, [], umask, vmask)
    if found is not None:
        return found

    # biclique fallback: pick W' against U first, then check the V side
    req_pool = list(order)
    for _ in range(20):
        if len(req_pool) < m_prime:
            return None
        got = find_biclique(BicliqueRequest.of(G, set(u_list), set(req_pool), m_prime),
                            node_budget)
        if got is None:
            return None
        u_side, w_side = got
        iv = vmask
        for w in w_side:
            iv &= G.adj[w]
        if iv.bit_count() >= m_prime:
            v_side = sorted(sorted(bits_list(iv), key=key)[:m_prime])
            assert is_complete_bipartite(G, v_side, w_side).status == PASS
            return tuple(u_side), tuple(v_side), tuple(w_side)
        req_pool.remove(w_side[0])
    return None
