"""The incremental fold-in of simple_blowup_cover.

The cover folds its leftover vertices into the families through Python int
bitsets over the host vertex ids: each cluster's common neighbourhood, the
leftover, and each family's join keys and join masks, which only the
mutated families rebuild, with one split-plan memo per call. It must
return what the copy in tests/oracles.py returns, which rebuilt
everything on every sweep: the same blow-ups, leftover, kind and
diagnostics, on hosts that end stuck, hosts with no families, and hosts
whose fold-in runs many pickups. The bitsets
themselves are checked against the adjacency and the split plans they
stand for, the split-plan memo against every order of the sizes it keys
on, and the pickup search against a tight recursion limit.
"""

import sys
from itertools import combinations_with_replacement, permutations
from math import comb

import pytest

from cyclecover import cover
from cyclecover.core import Graph
from cyclecover.cover import (PRESETS, SIMPLE, _NO_JOIN, _split_plan, almost_blowup_cover,
                              simple_blowup_cover)
from cyclecover.generators import (CLIQUE_UNION_PLUS, DIRAC_EXTREMAL, GNP_REPAIRED,
                                   GeneratorSpec, generate)

from oracles import reference_simple_blowup_cover

DESK = PRESETS["desk"]


def same_cover(G):
    got = simple_blowup_cover(G, DESK)
    want = reference_simple_blowup_cover(G, DESK)
    assert got == want
    assert got.diagnostics == want.diagnostics
    return got


def gnp(n, p, delta, seed):
    return generate(GeneratorSpec(kind=GNP_REPAIRED, n=n, p=p, delta_target=delta, seed=seed))


@pytest.mark.parametrize("seed", range(20))
def test_sparse_60_hosts_end_stuck_as_before(seed):
    res = same_cover(gnp(60, 0.8, 42, seed))
    assert res.diagnostics[-1][0] == "endgame-stuck"


def two_cliques(n):
    half = n // 2
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if (u < half) == (v < half)])


@pytest.mark.parametrize("make", [
    lambda: generate(GeneratorSpec(kind=DIRAC_EXTREMAL, n=300, delta_target=225, seed=0)),
    lambda: two_cliques(60),
], ids=["dirac-extremal-300", "two-cliques-60"])
def test_hosts_without_families(make):
    # the almost cover returns no blow-ups; every vertex starts out leftover
    G = make()
    assert almost_blowup_cover(G, DESK).blowups == ()
    same_cover(G)


def test_complete_host():
    assert same_cover(Graph.complete(60)).kind == SIMPLE


@pytest.mark.parametrize("n,p,delta,seed", [
    (300, 0.8, 210, 0), (300, 0.8, 210, 1), (300, 0.8, 210, 2),
    (300, 0.8, 210, 9),  # strands vertices as labelled
    (300, 0.97, 225, 0),
    (600, 0.8, 420, 0), (600, 0.8, 420, 1), (600, 0.8, 420, 90002),
    (600, 0.8, 420, 10000), (600, 0.8, 420, 10001),  # the bench's seed-1 hosts
])
def test_gnp_hosts(n, p, delta, seed):
    same_cover(gnp(n, p, delta, seed))


@pytest.mark.parametrize("spec", [
    GeneratorSpec(kind=DIRAC_EXTREMAL, n=300, delta_target=225, seed=1),
    # 4 families and 204 leftover vertices
    GeneratorSpec(kind=CLIQUE_UNION_PLUS, n=300, pieces=3, delta_target=225, seed=0),
], ids=["dirac-extremal-300-seed-1", "clique-union-plus-300"])
def test_structured_hosts(spec):
    same_cover(generate(spec))


def check_fold(fold, G, reds, quasi):
    """Every bitset of fold recomputed from G.adj, and every join key from a
    fresh split plan; quasi holds the pickup families made so far."""
    F, k = len(fold.fams), fold.k
    comp = [[sum(1 << v for v in range(G.n) if all((G.adj[v] >> u) & 1 for u in cl))
             for cl in fam] for fam in fold.fams]
    covered = 0
    for fi, fam in enumerate(fold.fams):
        union = 0
        for ci, cl in enumerate(fam):
            assert fold.comp[fi][ci] == comp[fi][ci]
            assert all(fold.owner[v] == (fi, ci) for v in cl)
            covered |= sum(1 << v for v in cl)
            grown = [len(c) for c in fam]
            grown[ci] += 1
            if _split_plan(grown, fold.lo, fold.hi) is None:
                assert fold.keys[fi][ci] == _NO_JOIN
                assert fold.okm[fi][ci] == 0
                continue
            assert fold.keys[fi][ci] == (len(cl) * F + fi) * k + ci
            okm = (1 << G.n) - 1
            for cj in range(k):
                if reds[fi].has_edge(ci, cj):
                    okm &= comp[fi][cj]
            assert fold.okm[fi][ci] == okm
            union |= okm
        assert fold.union[fi] == union
    assert fold.covered == covered
    assert sum(fold.owner[v] is not None for v in range(G.n)) == covered.bit_count()
    picked = {v for B in quasi for cl in B.family.clusters for v in cl}
    assert fold.left == sum(1 << v for v in range(G.n)
                            if not (covered >> v) & 1 and v not in picked)


@pytest.mark.parametrize("n,p,delta,pickups", [
    (600, 0.8, 420, True),
    (300, 0.97, 225, False),
], ids=["sparse-600", "dense-300"])
def test_bitsets_match_brute_force(monkeypatch, n, p, delta, pickups):
    # checked after the first sweep and after the sweep that follows the
    # first pickup, when the pickup's vertices have left the leftover
    G = gnp(n, p, delta, 0)
    reds = [B.reduced for B in almost_blowup_cover(G, DESK).blowups]
    seen = {"sweeps": 0, "quasi": []}
    sweep, pickup = cover._Fold.insert_sweep, cover._pickup_direct

    def checked_sweep(self):
        sweep(self)
        seen["sweeps"] += 1
        if seen["sweeps"] <= 2:
            check_fold(self, G, reds, seen["quasi"])

    def recorded_pickup(*args):
        seen["quasi"] = args[-1]  # the cover's list of pickup families
        return pickup(*args)

    monkeypatch.setattr(cover._Fold, "insert_sweep", checked_sweep)
    monkeypatch.setattr(cover, "_pickup_direct", recorded_pickup)
    same_cover(G)
    # a sweep runs first and again after each pickup
    assert seen["sweeps"] >= 1
    assert (seen["sweeps"] >= 2) == pickups


def test_pickup_search_depth_is_bounded():
    # the search holds one frame per vertex it places, not per candidate it
    # skips, so a limit a few dozen frames above the caller is enough
    G = gnp(600, 0.8, 420, 0)
    depth, f = 0, sys._getframe()
    while f is not None:
        depth, f = depth + 1, f.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        got = simple_blowup_cover(G, DESK)
    finally:
        sys.setrecursionlimit(old)
    assert got == reference_simple_blowup_cover(G, DESK)


@pytest.mark.parametrize("lo,hi", [(2, 3), (2, 4), (3, 6)])  # the desk bands, n = 50 to 10^4
def test_split_feasibility_memo_ignores_the_order_of_sizes(lo, hi):
    # the memo is keyed on the sorted sizes: for every size multiset, each
    # of its orders must get the answer _split_plan gives that order
    fold = cover._Fold(Graph.empty(1), [], [], [], lo, hi)
    for k, top in ((3, 12), (4, 12), (5, 8)):
        for sizes in combinations_with_replacement(range(1, top + 1), k):
            for order in set(permutations(sizes)):
                assert fold.feasible(order) == (_split_plan(order, lo, hi) is not None)
    assert len(fold.memo) == comb(14, 3) + comb(15, 4) + comb(12, 5)
