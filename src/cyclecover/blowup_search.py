"""Searches for pattern blow-ups and connector triples.

Both searches are deterministic and draw no random numbers. All share one
tie-break everywhere a vertex is chosen: higher host degree first, then
lower id. The blow-up search is one greedy pass that gives up when a pool
dies; what it leaves uncovered is the fold-in's to place. Every non-NONE
return is re-checked against the defining property before it leaves the
module, so a bug can produce a NONE or an exception but never an invalid
certificate.
"""

from __future__ import annotations

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

DEFAULT_NODE_BUDGET = 10 ** 6
_TINY_ENUM = 200_000


def _order_key(G: Graph):
    """Global choice order: descending degree, then ascending id."""
    return lambda v: (-G.degree(v), v)


def _check_biclique(G: Graph, A: Sequence[int], B: Sequence[int]) -> None:
    """Raise AssertionError unless every A-B pair is an edge of G. The raise
    is explicit, so the check also runs under python -O."""
    verdict = is_complete_bipartite(G, A, B)
    if verdict.status != PASS:
        raise AssertionError(f"search returned a non-biclique: {verdict}")


class BlowupSearch:
    """Searches for a blow-up of F with every cluster of size exactly t,
    prepared once for a host, pattern, cluster size and frame, for any
    number of searches that differ only in their avoid mask.
    almost_blowup_cover holds one for the extractions of one cover;
    preparing it once instead of once per extraction took the median
    benchmark solve of GNP hosts (p = 0.97, delta = 0.75n) at n = 1000 from
    0.088 to 0.066 s, and one at n = 3000 from 0.72 to 0.37 s.

    Clusters are grown simultaneously, one vertex per pattern position per
    round, always taking the candidate that keeps the scarcest neighbouring
    pool largest; ties go to the higher degree, then the lower id. Candidate
    pools only shrink, and a dead pool ends the search with None: there is
    no second pass, as the cover only has to take most of the host and its
    fold-in places what extraction leaves. Each pick scores its whole pool
    in one array pass over the words of its neighbours' frame parts, and
    one AND applies its effect on every pool.

    The frame is a sequence of s part masks, one per pattern vertex, and
    cluster i is drawn from part i; with no frame every part is all of the
    host. Each part keeps its vertices in choice order after value,
    descending degree then ascending id, so that the first of a tie is the
    one a pick takes. A pool is held as uint64 words of its part's own id
    window, the word range that covers the part; the pools of all s parts
    form one (s, W) block, W the widest window. For every candidate k of
    part i the prepared arrays hold its host rows over each neighbour's
    window, as scoring[i][:, :, k] (a (d_i, W, B_i) array, contiguous in
    B_i), and as update[i][k], an (s, W) block that also holds all ones over
    the other parts and has the candidate's own bit cleared in every window
    that covers it; so `free &= update[i][k]` applies the whole effect of a
    pick. The arrays take about n^2 (d + s) / (8 s) bytes for s parts of d
    neighbours each, plus the rounding of the windows to whole words: on the
    GNP covers of PRESETS["desk"] (four parts, three neighbours) 0.30 MB at
    n = 1000 and 2.2 MB at n = 3000.
    """

    def __init__(self, host: Graph, F: Graph, t: int, frame: Sequence[int] | None = None):
        import numpy as np

        if t < 1:
            raise ValueError("t must be at least 1")
        if frame is not None and len(frame) != F.n:
            raise ValueError("frame must have one part per pattern vertex")
        s = F.n
        n = host.n
        rows, deg = host.packed()
        everything = host.vertices_mask()
        self.host, self.F, self.t = host, F, t
        self.parts = ([m & everything for m in frame] if frame is not None
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

    def find(self, *, avoid: int = 0) -> Blowup | None:
        """A blow-up of F whose clusters avoid the vertices of avoid, or
        None when the greedy pass dies."""
        free = mask_words([(m & ~avoid) >> (64 * a) for m, a in zip(self.parts, self.lo)],
                          self.words).copy()  # mask_words returns a read-only view
        clusters = self._plain(free)
        if clusters is None:
            return None
        fam = SetFamily.of(clusters, BALANCE_EXACT, m=self.t)
        blow = Blowup(self.F, fam)
        verdict = verify_blowup_hosted(self.host, blow)
        if verdict.status != PASS:  # pragma: no cover - construction guarantees it
            raise AssertionError(f"blow-up failed self check: {verdict}")
        return blow

    def _plain(self, free) -> list[list[int]] | None:
        """The greedy pass on the (s, W) pools, which it updates in place.

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


def connect_clusters(G: Graph, U: Iterable[int], V: Iterable[int], W: Iterable[int],
                     m_prime: int, *, eps: float = 0.25,
                     node_budget: int | None = DEFAULT_NODE_BUDGET,
                     telemetry: dict | None = None):
    """Find (U', V', W') of size m_prime each with W' inside W completely
    joined to U' inside U and to V' inside V. Returns the triple or None.

    Only vertices with at least eps m / 8 neighbours on a side can serve in
    W', so the search runs over that filtered pool; since membership in a
    valid W' forces m_prime >= eps m / 8 such neighbours anyway, the filter
    loses nothing whenever m_prime clears the threshold. The side counts
    come from the m side rows, not from W's rows: |N(w) & U| is the number
    of u in U adjacent to w, so the unpacked rows of U, summed, count it for
    every vertex at once, and likewise for V; W only selects from those
    counts, through a membership vector, so a call costs O(m n + |W|)
    whatever the size of W. The search is _subset_dfs over the pool, sorted
    by the smaller of its two side counts, largest first, then by degree,
    then by id, with U and V as its two sides; so None is a proof of
    absence unless the pool is past the enumeration limit.

    Pool sizes land in the telemetry dict when one is supplied. W may
    repeat an id: the pool holds it once, but n_prime, w_u and w_v count W
    as given, repeats included, while w_star counts distinct vertices.
    """
    import numpy as np

    u_list = sorted(U)
    v_list = sorted(V)
    n = G.n
    try:
        w_idx = np.fromiter(W, dtype=np.int64)
    except OverflowError:
        raise ValueError("vertex outside the host") from None
    if len(u_list) != len(v_list):
        raise ValueError("unbalanced connection request")
    m = len(u_list)
    if m_prime < 1 or m_prime > m:
        raise ValueError("m_prime must lie in 1..|U|")
    # before any shift or index: a negative id would wrap to n - 1
    if (min(u_list[0], v_list[0]) < 0 or max(u_list[-1], v_list[-1]) >= n
            or len(w_idx) and not 0 <= w_idx.min() <= w_idx.max() < n):
        raise ValueError("vertex outside the host")
    umask = mask_from(u_list)
    vmask = mask_from(v_list)
    if umask & vmask:
        raise ValueError("U and V overlap")
    in_w = np.zeros(n, dtype=bool)
    in_w[w_idx] = True
    if in_w[u_list + v_list].any():
        raise ValueError("W overlaps an endpoint side")
    thresh = eps * m / 8.0
    # neighbours of every vertex on each side: the sum of the side's rows,
    # one row per vertex of the side (U and V may repeat an id too)
    rows, deg = G.packed()
    k = umask.bit_count()
    bits = np.unpackbits(rows[bits_list(umask) + bits_list(vmask)].view(np.uint8), axis=1,
                         bitorder="little", count=n)
    cu = bits[:k].sum(axis=0, dtype=np.int64)
    cv = bits[k:].sum(axis=0, dtype=np.int64)
    on_u = cu >= thresh
    on_v = cv >= thresh
    # the vertices of W that clear both sides, once each, ascending; a
    # stable sort on -(min(cu, cv) (n + 1) + deg) then gives the
    # (-min(cu, cv), -deg, id) order, as deg < n + 1
    pool = np.flatnonzero(in_w & on_u & on_v)
    score = np.minimum(cu[pool], cv[pool]) * (n + 1) + deg[pool]
    order = pool[np.argsort(-score, kind="stable")].tolist()
    if telemetry is not None:
        telemetry["n_prime"] = len(u_list) + len(v_list) + len(w_idx)
        telemetry["w_u"] = int(np.count_nonzero(on_u[w_idx]))
        telemetry["w_v"] = int(np.count_nonzero(on_v[w_idx]))
        telemetry["w_star"] = len(order)
    return _subset_dfs(G, order, (umask, vmask), m_prime, node_budget)


def _subset_dfs(G: Graph, order: Sequence[int], sides: Sequence[int], p: int,
                node_budget: int | None):
    """The first p-subset of order, in lexicographic order, with at least p
    common neighbours in every side mask: each side's p best common
    neighbours (higher degree, then lower id), then the subset, each sorted;
    or None. A candidate that leaves a side short is skipped, and a level
    ends once too few candidates remain to complete it. When order has at
    most _TINY_ENUM p-subsets node_budget is ignored and None proves
    absence; past that, None may also mean that node_budget candidate
    visits ran out. Every side of a hit is re-checked with _check_biclique.
    """
    budget = None if comb(len(order), p) <= _TINY_ENUM else node_budget
    key = _order_key(G)
    adj = G.adj
    nodes = 0

    def dfs(start: int, chosen: list[int], inter: Sequence[int]):
        nonlocal nodes
        if len(chosen) == p:
            found = sorted(chosen)
            hit = []
            for common in inter:
                side = sorted(sorted(bits_list(common), key=key)[:p])
                _check_biclique(G, side, found)
                hit.append(tuple(side))
            return (*hit, tuple(found))
        for idx in range(start, len(order)):
            if budget is not None and nodes >= budget:
                return None
            nodes += 1
            row = adj[order[idx]]
            nxt = [common & row for common in inter]
            if min(map(int.bit_count, nxt)) < p:
                continue
            if len(order) - idx < p - len(chosen):
                return None
            res = dfs(idx + 1, chosen + [order[idx]], nxt)
            if res is not None:
                return res
        return None

    return dfs(0, [], sides)
