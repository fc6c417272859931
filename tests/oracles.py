"""Independent brute-force oracles used to pin expected values.

Everything here is written against the definitions alone, with the dumbest
correct algorithm available, and is kept free of imports from the package
search modules so the two routes cannot collapse into one. Oracles are for
tests only; none of this ships in the library API.
"""

from __future__ import annotations

from itertools import combinations

from cyclecover.core import Graph


def brute_min_degree(G: Graph) -> int:
    return min(sum(1 for u in range(G.n) if u != v and G.has_edge(u, v))
               for v in range(G.n))


def brute_is_complete_bipartite(G: Graph, A, B) -> bool:
    return all(G.has_edge(a, b) for a in A for b in B)


def brute_hyper_min_degree(edges, universe) -> int:
    return min(sum(1 for e in edges if v in e) for v in universe)


def fano_plane_edges():
    # The 7-point projective plane, lines as 3-sets.
    return [
        (0, 1, 2), (0, 3, 4), (0, 5, 6),
        (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
    ]


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
    graphs it returns and on the messages it raises."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise ValueError("no header line")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if len(edges) != m:
        raise ValueError(f"header claims {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)
