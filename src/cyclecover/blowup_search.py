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


# Every jittered restart runs in BlowupSearch._jittered, in lockstep batches
# of at most _BATCH. In the dead-end calls of sparse-600 solves a batch of one
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
    breaks value ties by jitter first. The search runs on arrays of the
    frame built once (BlowupSearch): each pick scores its whole pool in one
    array pass over the words of its neighbours' frame parts, and one AND
    applies its effect on every pool. The jittered restarts run side by side
    in batches on the same arrays, and the lowest-numbered survivor wins, so
    the result is the one a restart-by-restart loop returns. A caller that
    takes several blow-ups from one frame prepares a BlowupSearch once
    instead. almost_blowup_cover does, which took the median benchmark
    solve of GNP hosts (p = 0.97, delta = 0.75n) at n = 1000 from 0.088 to
    0.066 s, and one at n = 3000 from 0.72 to 0.37 s.
    """
    return BlowupSearch(host, F, t, frame).find(avoid=avoid, restart_budget=restart_budget,
                                                seed=seed)


class BlowupSearch:
    """find_blowup prepared once for a host, pattern, cluster size and frame,
    for any number of searches that differ only in their avoid mask, restart
    budget and seed. Package-internal: almost_blowup_cover holds one for the
    extractions of one cover.

    Part i of the frame (all of the host when there is no frame) keeps its
    vertices in choice order after value and jitter, descending degree then
    ascending id, so that the first of a tie is the one a pick takes. A pool
    is held as uint64 words of its part's own id window, the word range that
    covers the part; the pools of all s parts form one (s, W) block, W the
    widest window. For every candidate k of part i the prepared arrays hold
    its host rows over each neighbour's window, as scoring[i][:, :, k]
    (a (d_i, W, B_i) array, contiguous in B_i), and as update[i][k], an
    (s, W) block that also holds all ones over the other parts and has the
    candidate's own bit cleared in every window that covers it; so
    `free &= update[i][k]` applies the whole effect of a pick. The arrays
    take about n^2 (d + s) / (8 s) bytes for s parts of d neighbours each,
    plus the rounding of the windows to whole words: on the GNP covers of
    PRESETS["desk"] (four parts, three neighbours) 0.30 MB at n = 1000 and
    2.2 MB at n = 3000.
    """

    def __init__(self, host: Graph, F: Graph, t: int, frame: SetFamily | None = None):
        import numpy as np

        if t < 1:
            raise ValueError("t must be at least 1")
        if frame is not None and len(frame.clusters) != F.n:
            raise ValueError("frame must have one part per pattern vertex")
        s = F.n
        n = host.n
        rows, deg = host.packed()
        everything = host.vertices_mask()
        self.host, self.F, self.t = host, F, t
        self.parts = ([m & everything for m in frame.masks] if frame is not None
                      else [everything] * s)
        self.nbrs = [bits_list(F.adj[i]) for i in range(s)]
        self.nbr_rows = [np.array(js, dtype=np.int64) for js in self.nbrs]
        self.order = sorted(range(s), key=lambda i: (-F.degree(i), i))
        self.idx = []
        for m in self.parts:
            x = mask_indices(m, n)
            self.idx.append(x[np.argsort(-deg[x], kind="stable")])
        self.lo = [int(x.min()) >> 6 if len(x) else 0 for x in self.idx]
        self.width = [(int(x.max()) >> 6) + 1 - a if len(x) else 0
                      for x, a in zip(self.idx, self.lo)]
        W = self.words = max(self.width, default=0)
        # the bit of each candidate in its part's window
        self.pos = [x - 64 * a for x, a in zip(self.idx, self.lo)]
        self.scoring = []
        self.update = []
        for i, x in enumerate(self.idx):
            own = np.left_shift(np.uint64(1), (x & 63).astype(np.uint64))
            score = np.zeros((len(self.nbrs[i]), W, len(x)), dtype=np.uint64)
            upd = np.full((len(x), s, W), ~np.uint64(0))
            for k, j in enumerate(self.nbrs[i]):
                part_rows = rows[x, self.lo[j]:self.lo[j] + self.width[j]]
                score[k, :self.width[j]] = part_rows.T
                upd[:, j, :self.width[j]] = part_rows
            for j in range(s):
                at = (x >> 6) - self.lo[j]
                inside = np.flatnonzero((at >= 0) & (at < self.width[j]))
                upd[inside, j, at[inside]] &= ~own[inside]
            self.scoring.append(score)
            self.update.append(upd)

    def find(self, *, avoid: int = 0, restart_budget: int = 50, seed: int = 0) -> Blowup | None:
        """The blow-up find_blowup(host, F, t, frame, avoid=avoid,
        restart_budget=restart_budget, seed=seed) returns."""
        start = mask_words([(m & ~avoid) >> (64 * a) for m, a in zip(self.parts, self.lo)],
                           self.words)
        clusters = self._plain(start.copy())
        if clusters is None and restart_budget > 0:
            clusters = self._jittered(start, avoid, spawner(seed, "blowup-restart"),
                                      range(1, restart_budget + 1))
        if clusters is None:
            return None
        fam = SetFamily.of(clusters, BALANCE_EXACT, m=self.t)
        blow = Blowup(self.F, fam)
        verdict = verify_blowup_hosted(self.host, blow)
        if verdict.status != PASS:  # pragma: no cover - construction guarantees it
            raise AssertionError(f"blow-up failed self check: {verdict}")
        return blow

    def _plain(self, free) -> list[list[int]] | None:
        """Restart 0, the greedy pass without jitter, on the (s, W) pools.

        It scores every candidate of the frame part, in its pool or not:
        cutting the arrays to the search's base columns first cost about as
        much as it saved on one pass (n = 1000 and n = 300 GNP solves).
        """
        import numpy as np

        t = self.t
        idx, pos, scoring, update = self.idx, self.pos, self.scoring, self.update
        clusters: list[list[int]] = [[] for _ in idx]
        for rnd in range(t):
            need = t - rnd - 1
            for i in self.order:
                pool = np.unpackbits(free[i].view(np.uint8), bitorder="little")[pos[i]]
                if np.count_nonzero(pool) <= need:  # the pick would leave fewer than need
                    return None
                if self.nbrs[i]:
                    value = np.bitwise_count(scoring[i] & free[self.nbr_rows[i], :, None]).sum(
                        axis=1, dtype=np.int64).min(axis=0)
                    # the first maximum is the lowest (degree descending, id ascending)
                    k = int(np.argmax(np.where(pool, value, -1)))
                else:
                    k = int(np.argmax(pool))  # every candidate scores n
                clusters[i].append(int(idx[i][k]))
                free &= update[i][k]
        return clusters

    def _jittered(self, start, avoid: int, restart_rng, restarts: range):
        """The clusters of the lowest-numbered jittered restart in `restarts`
        that survives the greedy pass, or None.

        The restarts run in lockstep batches on (R, s, W) pools, one pass
        per neighbour scoring the pick of every live restart. Dead restarts
        are dropped at once. The batches score only the columns of the
        search's base (frame minus avoid), cut from the prepared arrays once
        for all restarts: on sparse GNP solves (n = 600, p = 0.8), whose last
        extraction runs all 50 restarts late in the cover, that took the
        restarts from about 28 to 21 ms per solve.
        """
        import numpy as np

        if not start.any(axis=1).all():
            return None  # a part with an empty pool kills every pass
        t = self.t
        s = len(self.idx)
        cols = [np.flatnonzero(np.unpackbits(w.view(np.uint8), bitorder="little")[p])
                for w, p in zip(start, self.pos)]
        idx = [x[c] for x, c in zip(self.idx, cols)]
        pos = [x[c] for x, c in zip(self.pos, cols)]
        scoring = [x.take(c, axis=2) for x, c in zip(self.scoring, cols)]  # contiguous in B_i
        update = [x[c] for x, c in zip(self.update, cols)]
        # each restart draws one double per vertex outside avoid, in id order
        full_idx = mask_indices(self.host.vertices_mask() & ~avoid, self.host.n)
        at_draw = [np.searchsorted(full_idx, x) for x in idx]
        for first in range(restarts.start, restarts.stop, _BATCH):
            batch = range(first, min(first + _BATCH, restarts.stop))
            R = len(batch)
            jit = [np.empty((R, len(x))) for x in idx]
            for r, restart in enumerate(batch):
                draw = random_doubles(restart_rng(restart), len(full_idx))
                for i in range(s):
                    jit[i][r] = draw[at_draw[i]]
            free = np.repeat(start[None], R, axis=0)
            picks = np.empty((R, t, s), dtype=np.int64)
            for rnd in range(t):
                need = t - rnd - 1
                for i in self.order:
                    pool = np.unpackbits(free[:, i].view(np.uint8), axis=1,
                                         bitorder="little")[:, pos[i]]
                    top = pool
                    if self.nbrs[i]:
                        value = None
                        for score, j in zip(scoring[i], self.nbrs[i]):
                            w = self.width[j]
                            c = np.bitwise_count(score[:w] & free[:, j, :w, None]).sum(
                                axis=1, dtype=np.int64)
                            value = c if value is None else np.minimum(value, c, out=value)
                        value = np.where(pool, value, -1)
                        top = value == value.max(axis=1, keepdims=True)
                    # jitter as drawn, never folded into a float key with the
                    # value, where rounding could merge two candidates
                    k = np.where(top, jit[i], 2.0).argmin(axis=1)
                    picks[:, rnd, i] = idx[i][k]
                    free &= update[i][k]
                    alive = np.count_nonzero(pool, axis=1) > need  # the pick left >= need
                    if not alive.all():
                        picks = picks[alive]
                        free = free[alive]
                        jit = [a[alive] for a in jit]
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
