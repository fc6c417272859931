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
from .seeding import spawner

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


def find_blowup(host: Graph, F: Graph, t: int, frame: SetFamily | None = None, *,
                avoid: int = 0, restart_budget: int = 50, seed: int = 0) -> Blowup | None:
    """Search for a blow-up of F with every cluster of size exactly t.

    Clusters are grown simultaneously, one vertex per pattern position per
    round, always taking the candidate that keeps the scarcest neighbouring
    pool largest; ties go to the higher degree, then the lower id. Candidate
    pools only shrink; a dead pool aborts the pass and a jittered restart
    breaks value ties by jitter first. Each pick scores its whole pool at
    once on the host's packed view.
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
    restart_rng = spawner(seed, "blowup-restart")

    for restart in range(restart_budget + 1):
        jitter = None
        if restart > 0:
            rng = restart_rng(restart)
            jitter = np.zeros(n)
            jitter[mask_indices(full, n)] = [rng.random() for _ in range(full.bit_count())]
        cand = list(base)
        clusters: list[list[int]] = [[] for _ in range(s)]
        used = 0
        dead = False
        for _round in range(t):
            for i in order:
                pool = cand[i] & ~used
                if not pool:
                    dead = True
                    break
                X = mask_indices(pool, n)
                if nbrs[i]:
                    free = mask_words([cand[j] & ~used for j in nbrs[i]], rows.shape[1])
                    value = np.bitwise_count(rows[X][:, None, :] & free).sum(
                        axis=2, dtype=np.int64).min(axis=1)
                else:
                    value = None  # every candidate scores n
                if jitter is None:
                    # rank (-value, -deg, id): the first maximum is the lowest id
                    key = deg[X] if value is None else value * (n + 1) + deg[X]
                    best = int(X[np.argmax(key)])
                else:
                    top = X if value is None else X[value == value.max()]
                    jt = jitter[top]
                    top = top[jt == jt.min()]
                    best = int(top[np.argmax(deg[top])])
                clusters[i].append(best)
                used |= 1 << best
                for j in nbrs[i]:
                    cand[j] &= adj[best]
                need = t - len(clusters[i])
                if (cand[i] & ~used).bit_count() < need:
                    dead = True
                    break
            if dead:
                break
        if dead:
            continue
        fam = SetFamily.of(clusters, BALANCE_EXACT, m=t)
        blow = Blowup(F, fam)
        verdict = verify_blowup_hosted(host, blow)
        if verdict.status != PASS:  # pragma: no cover - construction guarantees it
            raise AssertionError(f"blow-up failed self check: {verdict}")
        return blow
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
