"""Search module tests: bicliques, blow-ups, connections. Exhaustive oracles pin completeness on small instances."""

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import cyclecover.blowup_search as bs

from cyclecover.bitset import mask_from
from cyclecover.core import (
    Graph,
    PASS,
    is_complete_bipartite,
    verify_blowup_hosted,
)
from cyclecover.blowup_search import BlowupSearch, connect_clusters
from cyclecover.generators import GNP_REPAIRED, GeneratorSpec, generate
from cyclecover.lemmas import BicliqueRequest, find_biclique
from cyclecover.seeding import spawn

from oracles import brute_biclique_exists, brute_connect_exists


def random_graph(n, p, seed):
    rng = spawn(seed, "search-test-gnp")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestFindBiclique:
    def test_c6_has_no_k22(self):
        req = BicliqueRequest.of(Graph.cycle(6), {0, 2, 4}, {1, 3, 5}, 2)
        assert find_biclique(req) is None

    def test_k33_minus_edge_still_has_k22(self):
        G = Graph.complete_multipartite([3, 3])
        adj = list(G.adj)
        adj[0] &= ~(1 << 3)
        adj[3] &= ~(1 << 0)
        H = Graph(6, adj)
        got = find_biclique(BicliqueRequest.of(H, {0, 1, 2}, {3, 4, 5}, 2))
        assert got is not None
        A, B = got
        assert (0 in A and 3 in B) is False
        assert is_complete_bipartite(H, A, B).status == PASS

    def test_matches_exhaustive_on_small_graphs(self):
        for seed in range(40):
            G = random_graph(8, 0.45, seed)
            A, B = {0, 1, 2, 3}, {4, 5, 6, 7}
            got = find_biclique(BicliqueRequest.of(G, A, B, 2), node_budget=None)
            assert (got is not None) == brute_biclique_exists(G, A, B, 2)
            if got is not None:
                assert is_complete_bipartite(G, got[0], got[1]).status == PASS

    def test_validation(self):
        G = Graph.complete(6)
        with pytest.raises(ValueError, match="overlap"):
            BicliqueRequest.of(G, {0, 1}, {1, 2}, 1)
        with pytest.raises(ValueError):
            BicliqueRequest.of(G, {0, 1}, {2, 3}, 0)
        with pytest.raises(ValueError):
            BicliqueRequest.of(G, {0, 1}, {2, 3}, 3)
        for side_b in ({2, 6}, {2, -1}):
            with pytest.raises(ValueError, match="outside the host"):
                BicliqueRequest.of(G, {0, 1}, side_b, 1)

    def test_p_equals_sides(self):
        G = Graph.complete_multipartite([3, 3])
        got = find_biclique(BicliqueRequest.of(G, {0, 1, 2}, {3, 4, 5}, 3))
        assert got == ((0, 1, 2), (3, 4, 5))


class TestFindBlowup:
    def test_triangle_blowup_in_complete_tripartite(self):
        host = Graph.complete_multipartite([4, 4, 4])
        frame = [mask_from(range(0, 4)), mask_from(range(4, 8)), mask_from(range(8, 12))]
        blow = BlowupSearch(host, Graph.complete(3), 4, frame).find()
        assert blow is not None
        assert all(len(c) == 4 for c in blow.family.clusters)
        assert verify_blowup_hosted(host, blow).status == PASS

    def test_framed_clusters_stay_in_parts(self):
        host = generate(GeneratorSpec(GNP_REPAIRED, n=60, p=0.9, seed=21))
        parts = [set(range(0, 20)), set(range(20, 40)), set(range(40, 60))]
        frame = [mask_from(p) for p in parts]
        blow = BlowupSearch(host, Graph.complete(3), 5, frame).find()
        assert blow is not None
        for cluster, part in zip(blow.family.clusters, parts):
            assert cluster <= part

    def test_impossible_returns_none(self):
        host = Graph.empty(9)
        assert BlowupSearch(host, Graph.complete(3), 2).find() is None

    def test_avoid_mask_respected(self):
        host = Graph.complete(12)
        avoid = (1 << 6) - 1  # forbid vertices 0..5
        blow = BlowupSearch(host, Graph.complete(3), 2).find(avoid=avoid)
        assert blow is not None
        used = set()
        for c in blow.family.clusters:
            used |= set(c)
        assert used.isdisjoint(range(6))

    def test_deterministic(self):
        host = generate(GeneratorSpec(GNP_REPAIRED, n=40, p=0.8, seed=5))
        search = BlowupSearch(host, Graph.complete(4), 3)
        a = search.find()
        for b in (search.find(), BlowupSearch(host, Graph.complete(4), 3).find()):
            assert a is not None and a.family.clusters == b.family.clusters

    def test_dense_random_k4_blowup(self):
        host = generate(GeneratorSpec(GNP_REPAIRED, n=80, p=0.95, seed=13))
        blow = BlowupSearch(host, Graph.complete(4), 6).find()
        assert blow is not None
        assert verify_blowup_hosted(host, blow).status == PASS


class TestConnectClusters:
    def test_unbalanced_raises(self):
        G = Graph.complete(10)
        with pytest.raises(ValueError, match="unbalanced connection request"):
            connect_clusters(G, {0, 1}, {2}, {3, 4, 5}, 1)

    def test_complete_host_connects(self):
        G = Graph.complete(12)
        got = connect_clusters(G, {0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9, 10, 11}, 2)
        assert got is not None
        U2, V2, W2 = got
        assert is_complete_bipartite(G, U2, W2).status == PASS
        assert is_complete_bipartite(G, V2, W2).status == PASS
        assert set(W2) <= {6, 7, 8, 9, 10, 11}

    def test_matches_exhaustive_oracle(self):
        hits = 0
        for seed in range(30):
            G = random_graph(14, 0.5, seed + 900)
            U = set(range(0, 4))
            V = set(range(4, 8))
            W = set(range(8, 14))
            got = connect_clusters(G, U, V, W, 2, node_budget=None)
            expect = brute_connect_exists(G, U, V, W, 2)
            assert (got is not None) == expect
            hits += 1 if expect else 0
        assert hits > 0  # the family of instances is not vacuous

    def test_telemetry_pools(self):
        G = generate(GeneratorSpec(GNP_REPAIRED, n=80, p=0.85, delta_target=60, seed=3))
        tel = {}
        got = connect_clusters(G, set(range(12)), set(range(12, 24)),
                               set(range(24, 80)), 2, eps=0.25, telemetry=tel)
        assert got is not None
        n_prime = tel["n_prime"]
        assert tel["w_u"] >= (0.5 + 0.25 / 2) * (n_prime - 24)
        assert tel["w_star"] <= min(tel["w_u"], tel["w_v"])

    def test_w_overlap_rejected(self):
        G = Graph.complete(8)
        with pytest.raises(ValueError, match="endpoint side"):
            connect_clusters(G, {0, 1}, {2, 3}, {3, 4, 5}, 1)

    # a negative id is refused by name, not by a failed shift, and never
    # wraps round to vertex n - 1 as an array index would; a huge one is
    # refused before it becomes a mask or an int64
    @pytest.mark.parametrize("U,V,W", [({0, 8}, {2, 3}, {4, 5}), ({0, 1}, {2, 300}, {4, 5}),
                                       ({0, 1}, {2, 3}, {4, 8}), ({-1, 1}, {2, 3}, {4, 5}),
                                       ({0, 1}, {-8, 3}, {4, 5}), ({0, 1}, {2, 3}, {-1, 5}),
                                       ({0, 2 ** 64}, {2, 3}, {4, 5}),
                                       ({0, 1}, {2, 3}, {4, 2 ** 64})])
    def test_vertex_outside_host_rejected(self, U, V, W):
        with pytest.raises(ValueError, match="outside the host"):
            connect_clusters(Graph.complete(8), U, V, W, 1)


# ---------------------------------------------------------------------------
# the enumeration limit and the self-checks


@pytest.mark.parametrize("past", [False, True], ids=["at-limit", "past-limit"])
def test_enumeration_limit_decides_whether_the_budget_applies(monkeypatch, past):
    # every K_{2,2} and every triple with m_prime = 2 takes at least two DFS
    # nodes, so a budget of one node that applied would always give up
    found = 0
    for seed in range(6):
        G = random_graph(14, 0.6, seed + 40)
        A, B = set(range(7)), set(range(7, 14))
        monkeypatch.setattr(bs, "_TINY_ENUM", comb(len(B), 2) - past)
        got = find_biclique(BicliqueRequest.of(G, A, B, 2), node_budget=1)
        assert got is None if past else (got is not None) == brute_biclique_exists(G, A, B, 2)

        U, V, W = set(range(4)), set(range(4, 8)), set(range(8, 14))
        tel = {}
        connect_clusters(G, U, V, W, 2, telemetry=tel)
        monkeypatch.setattr(bs, "_TINY_ENUM", comb(tel["w_star"], 2) - past)
        got_c = connect_clusters(G, U, V, W, 2, node_budget=1)
        assert got_c is None if past else (got_c is not None) == brute_connect_exists(G, U, V, W, 2)
        found += (got is not None) + (got_c is not None)
    assert found == 0 if past else found >= 4  # the instances are not vacuous


OPTIMIZED_CHECKS = """
import sys
import cyclecover.blowup_search as bs
import cyclecover.lemmas as lemmas
from cyclecover.core import FAIL, Graph, Verdict

assert sys.flags.optimize  # a bare assert is stripped from here on
bs.is_complete_bipartite = lambda G, A, B: Verdict(FAIL, "forced", None)
G = Graph.complete(12)
calls = {
    "connect": lambda: bs.connect_clusters(G, {0, 1}, {2, 3}, {4, 5, 6}, 1),
    "biclique": lambda: lemmas.find_biclique(lemmas.BicliqueRequest.of(G, {0, 1}, {2, 3}, 1)),
    "matching": lambda: lemmas.hypergraph_perfect_matching(
        lemmas.Hypergraph(2, frozenset(range(4)), frozenset({(0, 1), (2, 3)}))),
}
lemmas._match_one_partition = lambda *a: [(0, 1), (0, 1)]
for name, call in calls.items():
    try:
        call()
    except AssertionError:
        print(name, "raised")
    else:
        print(name, "returned")
"""


def test_self_checks_survive_python_O():
    # the searches promise that every returned result is re-checked; under
    # python -O that must still hold, so a failed check raises explicitly
    env = dict(os.environ, PYTHONPATH=str(Path(bs.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.split("\n")[:3] == ["connect raised", "biclique raised", "matching raised"]
