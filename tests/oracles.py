"""Independent brute-force oracles used to pin expected values.

Everything here is written against the definitions alone, with the dumbest
correct algorithm available, and is kept free of imports from the package
search modules so the two routes cannot collapse into one. Oracles are for
tests only; none of this ships in the library API.

The exception is the last four sections: verbatim copies of the scalar
find_blowup and connect_clusters that scored one candidate at a time with
Python int bitmasks, of the fold-in of simple_blowup_cover that rebuilt
every family's join masks on each insert sweep, of the GNP sampler that
called random() once per pair with the degree repair that rescanned every
degree per added edge, and of the partition guard of almost_blowup_cover
that drew and classified its samples one at a time. The package now scores
on a packed numpy view, folds in incrementally, draws its coins in blocks,
repairs from a heap and classifies the guard's samples in one pass over
samples drawn once, and the copies pin that every choice, tie-break,
telemetry value and edge is unchanged. They share the helpers the rewrites
did not touch: the almost cover, the split arithmetic, the seeding streams
and the core verifiers.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import comb

from cyclecover.core import Graph


def brute_min_degree(G: Graph) -> int:
    return min(sum(1 for u in range(G.n) if u != v and G.has_edge(u, v))
               for v in range(G.n))


def brute_is_complete_bipartite(G: Graph, A, B) -> bool:
    return all(G.has_edge(a, b) for a in A for b in B)


def brute_hyper_min_degree(edges, universe) -> int:
    return min(sum(1 for e in edges if v in e) for v in universe)


def brute_biclique(G: Graph, A, B, p):
    """Smallest (by sorted pair) complete bipartite K_{p,p} with sides inside
    A and B, or None after exhausting every candidate pair of subsets."""
    best = None
    for a_sub in combinations(sorted(A), p):
        for b_sub in combinations(sorted(B), p):
            if all(G.has_edge(a, b) for a in a_sub for b in b_sub):
                cand = (a_sub, b_sub)
                if best is None or cand < best:
                    best = cand
    return best


def brute_biclique_exists(G: Graph, A, B, p) -> bool:
    return brute_biclique(G, A, B, p) is not None


def brute_connect(G: Graph, U, V, W, m_prime):
    """Exhaustive search for (U', V', W') with both joins complete."""
    for w_sub in combinations(sorted(W), m_prime):
        cu = [u for u in sorted(U) if all(G.has_edge(u, w) for w in w_sub)]
        cv = [v for v in sorted(V) if all(G.has_edge(v, w) for w in w_sub)]
        if len(cu) >= m_prime and len(cv) >= m_prime:
            return tuple(cu[:m_prime]), tuple(cv[:m_prime]), w_sub
    return None


def brute_connect_exists(G: Graph, U, V, W, m_prime) -> bool:
    return brute_connect(G, U, V, W, m_prime) is not None


def brute_hamilton_cycle(G: Graph):
    """Backtracking Hamilton cycle, or None. Fine up to a dozen vertices."""
    n = G.n
    if n < 3:
        return None
    path = [0]
    used = {0}

    def extend():
        if len(path) == n:
            return G.has_edge(path[-1], path[0])
        for v in range(n):
            if v not in used and G.has_edge(path[-1], v):
                path.append(v)
                used.add(v)
                if extend():
                    return True
                used.remove(v)
                path.pop()
        return False

    return tuple(path) if extend() else None


def brute_perfect_matching(edges, universe):
    """Backtracking perfect matching in an explicit uniform hypergraph."""
    uni = sorted(universe)
    edge_list = sorted(tuple(sorted(e)) for e in edges)

    def rec(remaining, chosen):
        if not remaining:
            return list(chosen)
        v = min(remaining)
        for e in edge_list:
            if v in e and all(x in remaining for x in e):
                res = rec(remaining - set(e), chosen + [e])
                if res is not None:
                    return res
        return None

    return rec(set(uni), [])


def brute_partite_count(edges, parts) -> int:
    """Edges meeting every part exactly once."""
    count = 0
    part_of = {}
    for i, p in enumerate(parts):
        for v in p:
            part_of[v] = i
    k = len(parts)
    for e in edges:
        idx = [part_of.get(v) for v in e]
        if None not in idx and sorted(idx) == list(range(k)):
            count += 1
    return count


def brute_lower_regular(edges, parts, rho, d):
    """Directly quantify over all subsets of relative size >= rho.

    Returns (True, None) or (False, witness). Exponential; only for tiny
    parts. Density threshold is d - rho.
    """
    import math
    from itertools import chain

    def subsets_at_least(part, k):
        items = sorted(part)
        return chain.from_iterable(combinations(items, r)
                                   for r in range(k, len(items) + 1))

    ks = [max(1, math.ceil(rho * len(p) - 1e-12)) for p in parts]
    thresh = d - rho

    def rec(i, chosen):
        if i == len(parts):
            total = 1
            for c in chosen:
                total *= len(c)
            cnt = brute_partite_count(edges, chosen)
            if cnt / total < thresh - 1e-12:
                return chosen
            return None
        for sub in subsets_at_least(parts[i], ks[i]):
            res = rec(i + 1, chosen + [sub])
            if res is not None:
                return res
        return None

    wit = rec(0, [])
    return (wit is None), wit


def enumerate_inheriting_fraction(G: Graph, v: int, s: int, eps: float) -> float:
    """Fraction of (s-1)-subsets of V minus v whose union with v has induced
    minimum degree at least (1/2 + eps/2) s. Definition route, no package
    helpers beyond Graph adjacency."""
    others = [u for u in range(G.n) if u != v]
    thresh = (0.5 + eps / 2.0) * s
    hits = 0
    total = 0
    for rest in combinations(others, s - 1):
        S = (v,) + rest
        total += 1
        ok = True
        for a in S:
            deg = sum(1 for b in S if b != a and G.has_edge(a, b))
            if deg < thresh - 1e-12:
                ok = False
                break
        if ok:
            hits += 1
    return hits / total


def reference_graph_to_text(G: Graph) -> str:
    """The line-by-line writer the numpy one in core must match byte for byte."""
    lines = [f"{G.n} {G.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


def reference_graph_from_text(text: str) -> Graph:
    """The line-by-line parser the numpy one in core must agree with, on the
    graphs it returns and on the messages it raises. It follows the grammar
    alone: lines end only at '\\n', the blanks are space, tab and carriage
    return, and an id is a run of ASCII digits."""
    rows = []
    for raw in text.split("\n"):
        line = raw.strip(" \t\r")
        if line and not line.startswith("#"):
            rows.append(line)
    if not rows:
        raise ValueError("no header line")

    def pair(line: str, what: str) -> tuple[int, int]:
        tokens = re.split(r"[ \t\r]+", line)
        if len(tokens) != 2 or not all(t.isascii() and t.isdigit() for t in tokens):
            raise ValueError(f"{what} {line!r}")
        return int(tokens[0]), int(tokens[1])

    n, m = pair(rows[0], "bad header")
    edges = [pair(line, "bad edge line") for line in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"header claims {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# reference copies of the scalar searches

_TINY_ENUM = 200_000


def _order_key(G: Graph):
    return lambda v: (-G.degree(v), v)


def scalar_find_blowup(host: Graph, F: Graph, t: int, frame=None, *, avoid: int = 0):
    """find_blowup as it scored one pool vertex per loop step; frame is a
    sequence of part masks, one per pattern vertex, as BlowupSearch takes."""
    from cyclecover.bitset import bits_list, iter_bits
    from cyclecover.core import BALANCE_EXACT, PASS, Blowup, SetFamily, verify_blowup_hosted

    if t < 1:
        raise ValueError("t must be at least 1")
    if frame is not None and len(frame) != F.n:
        raise ValueError("frame must have one part per pattern vertex")
    s = F.n
    full = host.vertices_mask() & ~avoid
    cand = [frame[i] & full if frame is not None else full for i in range(s)]
    nbrs = [bits_list(F.adj[i]) for i in range(s)]
    order = sorted(range(s), key=lambda i: (-F.degree(i), i))
    adj = host.adj
    negdeg = [-row.bit_count() for row in adj]

    clusters: list[list[int]] = [[] for _ in range(s)]
    used = 0
    for _round in range(t):
        for i in order:
            pool = cand[i] & ~used
            free = [cand[j] & ~used for j in nbrs[i]]
            best = None
            best_rank = None
            for x in iter_bits(pool):
                if free:
                    row = adj[x]
                    value = min((f & row).bit_count() for f in free)
                else:
                    value = host.n
                rank = (-value, negdeg[x], x)
                if best_rank is None or rank < best_rank:
                    best, best_rank = x, rank
            if best is None:
                return None
            clusters[i].append(best)
            used |= 1 << best
            for j in nbrs[i]:
                cand[j] &= host.adj[best]
            need = t - len(clusters[i])
            if (cand[i] & ~used).bit_count() < need:
                return None
    fam = SetFamily.of(clusters, BALANCE_EXACT, m=t)
    blow = Blowup(F, fam)
    verdict = verify_blowup_hosted(host, blow)
    if verdict.status != PASS:
        raise AssertionError(f"blow-up failed self check: {verdict}")
    return blow


def scalar_connect_clusters(G: Graph, U, V, W, m_prime: int, *, eps: float = 0.25,
                            node_budget=10 ** 6, telemetry=None):
    """connect_clusters as it counted side neighbours one W vertex at a time."""
    from cyclecover.bitset import bits_list, mask_from
    from cyclecover.core import PASS, is_complete_bipartite

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
    if mask_from(w_list) & (umask | vmask):
        raise ValueError("W overlaps an endpoint side")
    thresh = eps * m / 8.0
    w_u = [w for w in w_list if (G.adj[w] & umask).bit_count() >= thresh]
    w_v = [w for w in w_list if (G.adj[w] & vmask).bit_count() >= thresh]
    star = sorted(set(w_u) & set(w_v))
    if telemetry is not None:
        telemetry["n_prime"] = len(u_list) + len(v_list) + len(w_list)
        telemetry["w_u"] = len(w_u)
        telemetry["w_v"] = len(w_v)
        telemetry["w_star"] = len(star)
    key = _order_key(G)

    def finish(wset, inter_u: int, inter_v: int):
        u_side = sorted(sorted(bits_list(inter_u), key=key)[:m_prime])
        v_side = sorted(sorted(bits_list(inter_v), key=key)[:m_prime])
        w_side = tuple(sorted(wset))
        assert is_complete_bipartite(G, u_side, w_side).status == PASS
        assert is_complete_bipartite(G, v_side, w_side).status == PASS
        return tuple(u_side), tuple(v_side), w_side

    order = sorted(star, key=lambda w: (-min((G.adj[w] & umask).bit_count(),
                                             (G.adj[w] & vmask).bit_count()),
                                        key(w)))

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
        return None

    nodes = 0

    def dfs(start: int, chosen: list, iu: int, iv: int):
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

    return dfs(0, [], umask, vmask)


# ---------------------------------------------------------------------------
# reference copy of the fold-in


def reference_simple_blowup_cover(G: Graph, params):
    """simple_blowup_cover as it rebuilt every family's join masks on each
    sweep and tested leftover vertices against them one at a time."""
    from cyclecover.bitset import mask_from
    from cyclecover.core import BALANCE_QUASI, Blowup, SetFamily
    from cyclecover.cover import (SIMPLE, CoverResult, _piece_band, _quasi_declaration,
                                  _split_family, _split_plan, almost_blowup_cover)

    n = G.n
    _, _, m3 = params.scales(n)
    lo_p, hi_p = _piece_band(params, n)

    base = almost_blowup_cover(G, params)
    diags = list(base.diagnostics)
    fams = [[sorted(c) for c in B.family.clusters] for B in base.blowups]
    reds = [B.reduced for B in base.blowups]
    quasi = []
    leftover = sorted(base.uncovered)

    def sizes_of(fi):
        return [len(c) for c in fams[fi]]

    def splittable(sizes):
        return _split_plan(sizes, lo_p, hi_p) is not None

    def join_masks(fi):
        R = reds[fi]
        cms = [mask_from(c) for c in fams[fi]]
        grown = sizes_of(fi)
        out = []
        for ci in range(len(cms)):
            grown[ci] += 1
            ok = splittable(grown)
            grown[ci] -= 1
            if not ok:
                continue
            need = 0
            for cj, cm in enumerate(cms):
                if cj != ci and R.has_edge(ci, cj):
                    need |= cm
            out.append((ci, need))
        return out

    def insert_sweep():
        joins = [join_masks(fi) for fi in range(len(fams))]
        progress = True
        while leftover and progress:
            progress = False
            for u in list(leftover):
                miss = ~G.adj[u]
                best = None
                for fi, entries in enumerate(joins):
                    for ci, need in entries:
                        if need & miss:
                            continue
                        key = (len(fams[fi][ci]), fi, ci)
                        if best is None or key < best:
                            best = key
                if best is not None:
                    _, fi, ci = best
                    fams[fi][ci] = sorted(fams[fi][ci] + [u])
                    leftover.remove(u)
                    joins[fi] = join_masks(fi)
                    progress = True

    t_pick = max(2, m3)
    insert_sweep()
    while leftover:
        placed = False
        for u in list(leftover):
            got = _reference_pickup_direct(G, params, u, t_pick, fams, leftover,
                                           quasi, lo_p, hi_p)
            if got:
                for v in got:
                    leftover.remove(v)
                placed = True
                break
        if not placed:
            break
        insert_sweep()

    if leftover:
        diags.append(("endgame-stuck", len(leftover)))
    m_q, eta_q = _quasi_declaration(lo_p, hi_p)
    out = []
    for fi in range(len(fams)):
        f, sigma = _split_plan(sizes_of(fi), lo_p, hi_p)
        for child in _split_family(fams[fi], f, sigma):
            fam = SetFamily.of(child, BALANCE_QUASI, m=m_q, eta=eta_q)
            out.append(Blowup(reds[fi], fam))
    out.extend(quasi)
    return CoverResult(n, tuple(out), frozenset(leftover), SIMPLE, tuple(diags))


def _reference_pickup_direct(G: Graph, params, root, t, fams, leftover, quasi, lo_p, hi_p):
    from cyclecover.bitset import mask_from
    from cyclecover.core import BALANCE_QUASI, Blowup, SetFamily
    from cyclecover.cover import _EPS, _split_plan

    s = params.s
    nb = G.adj[root]
    owner = {}
    for fi in range(len(fams)):
        for ci in range(len(fams[fi])):
            for v in fams[fi][ci]:
                if (nb >> v) & 1:
                    owner[v] = (fi, ci)
    free = [v for v in leftover if v != root and (nb >> v) & 1]
    cand = sorted(set(owner) | set(free))
    k = s - 1
    if len(cand) < k * t:
        return []
    clusters = [[] for _ in range(k)]
    masks = [0] * k
    removals = {}

    def family_ok(fi):
        sizes = [len(c) for c in fams[fi]]
        for (f2, c2), cnt in removals.items():
            if f2 == fi:
                sizes[c2] -= cnt
        return min(sizes) >= 0 and _split_plan(sizes, lo_p, hi_p) is not None

    budget = [20_000]

    def dfs(idx, filled):
        if filled == k * t:
            return True
        if idx == len(cand) or len(cand) - idx < k * t - filled:
            return False
        budget[0] -= 1
        if budget[0] <= 0:
            return False
        v = cand[idx]
        adj = G.adj[v]
        for j in range(k):
            if len(clusters[j]) == t:
                continue
            if any(l != j and (adj & masks[l]) != masks[l] for l in range(k)):
                continue
            own = owner.get(v)
            if own is not None:
                removals[own] = removals.get(own, 0) + 1
                ok = family_ok(own[0])
            else:
                ok = True
            if ok:
                clusters[j].append(v)
                masks[j] |= 1 << v
                if dfs(idx + 1, filled + 1):
                    return True
                clusters[j].pop()
                masks[j] &= ~(1 << v)
            if own is not None:
                removals[own] -= 1
                if removals[own] == 0:
                    del removals[own]
            if not clusters[j]:
                break
        return dfs(idx + 1, filled)

    if not dfs(0, 0):
        return []
    taken = 0
    for cl in clusters:
        taken |= mask_from(cl)
    for fi in range(len(fams)):
        for ci in range(len(fams[fi])):
            if mask_from(fams[fi][ci]) & taken:
                fams[fi][ci] = [v for v in fams[fi][ci] if not (taken >> v) & 1]
    out = [[root]] + [sorted(cl) for cl in clusters]
    fam = SetFamily.of(out, BALANCE_QUASI, m=t, eta=1.0 / t + _EPS)
    quasi.append(Blowup(Graph.complete(s), fam))
    return [root] + [v for v in free if (taken >> v) & 1]


# ---------------------------------------------------------------------------
# reference copies of the per-pair GNP sampler and the scanning repair


def reference_repair_to_min_degree(adj: list[int], n: int, target: int) -> None:
    """_repair_to_min_degree as it rescanned every degree for each edge it
    added."""
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


def reference_gnp_repaired(spec) -> Graph:
    """_gnp_repaired as it called random() on the stream once per pair."""
    import numpy as np

    from cyclecover.bitset import rows_from_matrix
    from cyclecover.seeding import spawn

    n = spec.n
    draw = spawn(spec.seed, "gnp", n).random
    A = np.zeros((n, n), dtype=bool)
    buf = np.empty(n)
    for u in range(n - 1):
        k = n - 1 - u
        buf[:k] = [draw() for _ in range(k)]
        np.less(buf[:k], spec.p, out=A[u, u + 1:])
        A[u + 1:, u] = A[u, u + 1:]
    adj = rows_from_matrix(A)
    if spec.delta_target is not None:
        reference_repair_to_min_degree(adj, n, spec.delta_target)
    return Graph(n, adj)


# ---------------------------------------------------------------------------
# reference copy of the per-sample partition guard


def reference_guard_counts(G: Graph, params) -> dict:
    """The inheriting-shape counts of almost_blowup_cover's density guard
    as it drew each trial's sample from a fresh generator and tested it
    with Python int bitmasks: shape (edge list by position) -> count."""
    from cyclecover.bitset import mask_from
    from cyclecover.cover import _DENSITY_TRIALS, _EPS
    from cyclecover.seeding import mix, spawner

    s = params.s
    block = G.n // s
    parts = [list(range(i * block, (i + 1) * block)) for i in range(s)]
    floor_deg = (0.5 + params.eps / 2.0) * s - _EPS
    guard_rng = spawner(mix(mix(params.seed, "cover", "tiling"), "reduced-edge", *range(s)),
                        "tuple-density")
    counts = {}
    for t in range(_DENSITY_TRIALS):
        rng = guard_rng(t)
        pick = [p[rng.randrange(len(p))] for p in parts]
        within = mask_from(pick)
        if any((G.adj[v] & within).bit_count() < floor_deg for v in pick):
            continue
        shape = tuple((a, b) for a in range(s) for b in range(a + 1, s)
                      if G.has_edge(pick[a], pick[b]))
        counts[shape] = counts.get(shape, 0) + 1
    return counts
