"""Graph, hypergraph, family, and verifier contract tests."""

import json
import math

import pytest

from cyclecover.core import (
    BALANCE_EXACT,
    BALANCE_QUASI,
    BALANCE_WITHIN,
    Blowup,
    CycleBlowupCertificate,
    FAIL,
    Graph,
    PASS,
    SetFamily,
    canonical_cycle,
    graph_from_text,
    graph_to_text,
    is_complete_bipartite,
    min_degree,
    verify_blowup_hosted,
    verify_cycle_blowup,
)
from cyclecover.lemmas import Hypergraph
from cyclecover.seeding import spawn

from oracles import brute_is_complete_bipartite, brute_min_degree


def random_graph(n, p, seed):
    rng = spawn(seed, "test-gnp")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestMinDegree:
    def test_complete_four(self):
        assert min_degree(Graph.complete(4)) == 3

    def test_edgeless_five(self):
        assert min_degree(Graph.empty(5)) == 0

    def test_cycle_five(self):
        assert min_degree(Graph.cycle(5)) == 2

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError, match="empty graph"):
            min_degree(Graph.empty(0))

    def test_matches_brute_force(self):
        for seed in range(6):
            G = random_graph(11, 0.4, seed)
            assert min_degree(G) == brute_min_degree(G)

    def test_bounded_by_average(self):
        for seed in range(6):
            G = random_graph(13, 0.5, seed + 50)
            assert min_degree(G) <= 2 * G.edge_count() / G.n


class TestCompleteBipartite:
    def test_complete_graph_sides(self):
        v = is_complete_bipartite(Graph.complete(6), {0, 1}, {2, 3})
        assert v.status == PASS

    def test_c4_star_single(self):
        C4 = Graph.cycle(4)
        assert is_complete_bipartite(C4, {0}, {1, 3}).status == PASS

    def test_c4_both_sides(self):
        C4 = Graph.cycle(4)
        assert is_complete_bipartite(C4, {0, 2}, {1, 3}).status == PASS

    def test_c4_failing_split(self):
        C4 = Graph.cycle(4)
        v = is_complete_bipartite(C4, {0, 1}, {2, 3})
        assert v.status == FAIL
        assert v.witness == (0, 2)
        a, b = v.witness
        assert not C4.has_edge(a, b)

    def test_overlap_raises(self):
        with pytest.raises(ValueError, match="sets not disjoint"):
            is_complete_bipartite(Graph.complete(5), {0, 1}, {1, 2})

    def test_empty_side_raises(self):
        with pytest.raises(ValueError):
            is_complete_bipartite(Graph.complete(5), set(), {1, 2})

    def test_counting_equivalence(self):
        # PASS exactly when the bipartite edge count is |A| |B|.
        for seed in range(8):
            G = random_graph(10, 0.6, seed + 100)
            A, B = {0, 1, 2}, {5, 6, 7}
            got = is_complete_bipartite(G, A, B).status == PASS
            assert got == brute_is_complete_bipartite(G, A, B)


class TestHypergraphDegree:
    def test_bad_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph.from_edges(3, range(4), [(0, 1)])


class TestSetFamily:
    def test_exact_balance(self):
        fam = SetFamily.of([{0, 1}, {2, 3}, {4, 5}], BALANCE_EXACT, m=2)
        assert fam.validate().status == PASS

    def test_within_balance(self):
        fam = SetFamily.of([{0, 1}, {2, 3, 4}, {5}], BALANCE_WITHIN, m=2, eta=0.5)
        assert fam.validate().status == PASS

    def test_quasi_needs_one_singleton(self):
        good = SetFamily.of([{9}, {0, 1}, {2, 3}, {4, 5}], BALANCE_QUASI, m=2, eta=0.25)
        assert good.validate().status == PASS
        two_singles = SetFamily.of([{9}, {8}, {2, 3}, {4, 5}], BALANCE_QUASI, m=2, eta=0.25)
        assert two_singles.validate().status == FAIL

    def test_overlap_detected(self):
        fam = SetFamily.of([{0, 1}, {1, 2}], BALANCE_EXACT, m=2)
        v = fam.validate()
        assert v.status == FAIL and v.reason == "clusters overlap"


class TestVerifyBlowupHosted:
    def host(self):
        # K9 partitioned into three triples hosts a triangle blow-up.
        return Graph.complete(9)

    def triangle_blowup(self):
        fam = SetFamily.of([{0, 1, 2}, {3, 4, 5}, {6, 7, 8}], BALANCE_EXACT, m=3)
        return Blowup(Graph.cycle(3), fam)

    def test_complete_host_passes(self):
        assert verify_blowup_hosted(self.host(), self.triangle_blowup()).status == PASS

    def test_missing_cross_edge_fails(self):
        G = self.host()
        adj = list(G.adj)
        adj[0] &= ~(1 << 3)
        adj[3] &= ~(1 << 0)
        broken = Graph(9, adj)
        v = verify_blowup_hosted(broken, self.triangle_blowup())
        assert v.status == FAIL
        assert v.reason == "missing pair"

    def test_edgeless_reduced_always_passes(self):
        fam = SetFamily.of([{0}, {5}], BALANCE_EXACT, m=1)
        B = Blowup(Graph.empty(2), fam)
        assert verify_blowup_hosted(Graph.empty(6), B).status == PASS

    def test_cluster_count_mismatch(self):
        fam = SetFamily.of([{0}, {1}], BALANCE_EXACT, m=1)
        with pytest.raises(ValueError):
            Blowup(Graph.cycle(3), fam)

    def test_overlap_fails(self):
        fam = SetFamily.of([{0, 1, 2}, {2, 3, 4}, {5, 6, 7}], BALANCE_EXACT, m=3)
        B = Blowup(Graph.cycle(3), fam)
        assert verify_blowup_hosted(self.host(), B).status == FAIL


class TestVerifyCycleBlowup:
    def cert_for_k12(self):
        # ln 12 = 2.4849, c = 1.2, eta = 0.25 pins every size to exactly 3.
        clusters = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))
        return CycleBlowupCertificate(12, 1.2, 0.25, clusters)

    def test_bounds_pin_to_three(self):
        lo, hi = self.cert_for_k12().size_bounds()
        assert (lo, hi) == (3, 3)

    def test_complete_host_passes(self):
        assert verify_cycle_blowup(Graph.complete(12), self.cert_for_k12()).status == PASS

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_window_that_overflows_fails(self, eta):
        # c ln 60 overflows to inf: (1 - eta) inf is NaN at eta = 1 and inf below
        clusters = tuple(tuple(range(i, i + 3)) for i in range(0, 60, 3))
        cert = CycleBlowupCertificate(60, 1e308, eta, clusters)
        verdict = verify_cycle_blowup(Graph.complete(60), cert)
        assert (verdict.status, verdict.reason) == (FAIL, "declared window overflows")

    def test_degenerate_cycle(self):
        cert = CycleBlowupCertificate(12, 1.2, 0.25, ((0, 1), (2, 3)))
        v = verify_cycle_blowup(Graph.complete(12), cert)
        assert v.status == FAIL and v.reason == "degenerate cycle"

    def test_not_spanning(self):
        clusters = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        cert = CycleBlowupCertificate(12, 1.2, 0.25, clusters)
        v = verify_cycle_blowup(Graph.complete(12), cert)
        assert v.status == FAIL and v.reason == "not spanning"
        assert v.witness == 9

    def test_size_out_of_range(self):
        clusters = ((0, 1, 2, 3), (4, 5), (6, 7, 8), (9, 10, 11))
        cert = CycleBlowupCertificate(12, 1.2, 0.25, clusters)
        v = verify_cycle_blowup(Graph.complete(12), cert)
        assert v.status == FAIL and v.reason == "size out of range"

    def test_negative_vertex_is_outside_host(self):
        clusters = ((-1, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))
        cert = CycleBlowupCertificate(12, 1.2, 0.25, clusters)
        v = verify_cycle_blowup(Graph.complete(12), cert)
        assert v.status == FAIL and v.reason == "vertex outside host"
        assert v.witness == 0

    # refused before the id becomes a shift: a mask of 10**30 or 2**63 bits
    # raised OverflowError or MemoryError
    @pytest.mark.parametrize("big", [10 ** 30, 2 ** 63], ids=["10e30", "2e63"])
    def test_huge_vertex_is_outside_host(self, big):
        clusters = ((0, 1, 2), (3, big, 5), (6, 7, 8), (9, 10, 11))
        cert = CycleBlowupCertificate(12, 1.2, 0.25, clusters)
        v = verify_cycle_blowup(Graph.complete(12), cert)
        assert v.status == FAIL and v.reason == "vertex outside host"
        assert v.witness == 1

    def test_disjointness_violation(self):
        clusters = ((0, 1, 2), (2, 4, 5), (6, 7, 8), (9, 10, 11))
        cert = CycleBlowupCertificate(12, 1.2, 0.25, clusters)
        v = verify_cycle_blowup(Graph.complete(12), cert)
        assert v.status == FAIL and v.reason == "clusters overlap"

    def test_join_violation(self):
        G = Graph.complete_multipartite([3, 3, 3, 3])
        # consecutive parts joined, but a cycle order pairing part 0 with
        # part 0 of another cluster cannot happen here, so break one edge.
        adj = list(Graph.complete(12).adj)
        adj[0] &= ~(1 << 3)
        adj[3] &= ~(1 << 0)
        broken = Graph(12, adj)
        v = verify_cycle_blowup(broken, self.cert_for_k12())
        assert v.status == FAIL and v.reason == "consecutive clusters not joined"
        del G

    def test_wraparound_join_checked(self):
        adj = list(Graph.complete(12).adj)
        adj[9] &= ~(1 << 0)
        adj[0] &= ~(1 << 9)
        broken = Graph(12, adj)
        v = verify_cycle_blowup(broken, self.cert_for_k12())
        assert v.status == FAIL and v.reason == "consecutive clusters not joined"

    def test_cycle_cert_matches_hosted_verifier(self):
        # A passing certificate induces a passing hosted cycle blow-up.
        cert = self.cert_for_k12()
        G = Graph.complete(12)
        assert verify_cycle_blowup(G, cert).status == PASS
        fam = SetFamily.of(cert.clusters, BALANCE_EXACT, m=3)
        B = Blowup(Graph.cycle(len(cert.clusters)), fam)
        assert verify_blowup_hosted(G, B).status == PASS


class TestSerialization:
    def test_graph_round_trip(self):
        for seed in range(4):
            G = random_graph(9, 0.5, seed + 200)
            assert graph_from_text(graph_to_text(G)) == G

    def test_graph_comments_and_blanks(self):
        text = "# a comment\n\n3 2\n0 1\n# middle\n1 2\n"
        G = graph_from_text(text)
        assert G.n == 3 and G.edge_count() == 2

    def test_graph_header_mismatch(self):
        with pytest.raises(ValueError):
            graph_from_text("3 2\n0 1\n")

    def test_certificate_round_trip(self):
        cert = CycleBlowupCertificate(12, 1.2, 0.25,
                                      ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)))
        again = CycleBlowupCertificate.from_json(cert.to_json())
        assert again == cert
        assert again.to_json() == cert.to_json()

    @pytest.mark.parametrize("field,value", [
        ("n", 12.9), ("n", 12.0), ("n", True), ("id", 0.7), ("id", 1.0), ("id", False),
        ("c", math.nan), ("c", math.inf), ("c", True), ("c", "1.2"),
        pytest.param("c", 10 ** 400, id="c-int-past-float"),
        ("eta", -math.inf), ("eta", False), ("eta", "0.25")])
    def test_certificate_refuses_non_integer_numbers(self, field, value):
        blob = {"n": 12, "c": 1.2, "eta": 0.25,
                "clusters": [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]}
        if field == "id":
            blob["clusters"][0][0] = value
        else:
            blob[field] = value
        want = "JSON integers" if field in ("n", "id") else "finite JSON numbers"
        with pytest.raises(ValueError, match=want):
            CycleBlowupCertificate.from_json(json.dumps(blob))

    def test_certificate_refuses_deep_nesting(self):
        # past the JSON parser's recursion limit: a ValueError, not the
        # parser's RecursionError
        text = '{"n": 12, "c": 1.2, "eta": 0.25, "clusters": ' + "[" * 2000 + "]" * 2000 + "}"
        with pytest.raises(ValueError, match="nests too deeply"):
            CycleBlowupCertificate.from_json(text)

    def test_canonical_cycle_rotation(self):
        clusters = [(6, 7), (0, 1), (2, 3), (4, 5)]
        canon = canonical_cycle(clusters)
        assert canon[0] == (0, 1)
        # the reversed traversal yields the same canonical form
        assert canonical_cycle(list(reversed(clusters))) == canon


class TestGraphBasics:
    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_complete_multipartite_degrees(self):
        G = Graph.complete_multipartite([2, 3, 4])
        assert G.n == 9
        assert G.degree(0) == 7 and G.degree(2) == 6 and G.degree(5) == 5

    def test_natural_log_in_bounds(self):
        # size window uses the natural logarithm, not log2 or log10
        cert = CycleBlowupCertificate(100, 1.0, 0.0, ((0,),) * 3)
        lo, hi = cert.size_bounds()
        assert lo == math.ceil(math.log(100) - 1e-9)
        assert hi == math.floor(math.log(100) + 1e-9)
