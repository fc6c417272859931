"""Inheritance predicate, sampling estimates, and the tail bound."""

import math
from itertools import combinations

import pytest

from cyclecover.core import Graph
from cyclecover.generators import GNP_REPAIRED, GeneratorSpec, generate
from cyclecover.lemmas import (
    PropertySpec,
    hypergeometric_tail_bound,
    inherits_degree,
    property_degree_estimate,
)

from oracles import enumerate_inheriting_fraction


def k10_minus_perfect_matching():
    G = Graph.complete(10)
    adj = list(G.adj)
    for u in range(0, 10, 2):
        v = u + 1
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return Graph(10, adj)


class TestInheritsDegree:
    def test_complete_always_inherits(self):
        spec = PropertySpec(Graph.complete(12), 4, 0.25)
        assert inherits_degree(spec, [0, 3, 7, 11])

    def test_matching_deleted_counterexample(self):
        # two matched pairs: induced min degree 2 < (1/2 + 0.1) * 4 = 2.4
        G = k10_minus_perfect_matching()
        spec = PropertySpec(G, 4, 0.2)
        assert not inherits_degree(spec, [0, 1, 2, 3])

    def test_matching_avoided_inherits(self):
        G = k10_minus_perfect_matching()
        spec = PropertySpec(G, 4, 0.2)
        assert inherits_degree(spec, [0, 2, 4, 6])

    def test_absolute_threshold_is_k4_at_desk_dials(self):
        # at s = 4, eps = 0.25 the threshold is 2.5, so inheriting sets are
        # exactly the K4 subsets
        G = generate(GeneratorSpec(GNP_REPAIRED, n=16, p=0.6, seed=9))
        spec = PropertySpec(G, 4, 0.25)
        for S in combinations(range(10), 4):
            expect = all(G.has_edge(a, b) for a, b in combinations(S, 2))
            assert inherits_degree(spec, S) == expect

    def test_wrong_size_raises(self):
        spec = PropertySpec(Graph.complete(8), 4, 0.25)
        with pytest.raises(ValueError):
            inherits_degree(spec, [0, 1, 2])

    def test_absolute_monotone_in_eps(self):
        # growing eps only shrinks the property
        G = generate(GeneratorSpec(GNP_REPAIRED, n=14, p=0.7, seed=4))
        for S in combinations(range(9), 4):
            last = True
            for eps in (0.05, 0.25, 0.45, 0.65, 0.85):
                spec = PropertySpec(G, 4, eps)
                cur = inherits_degree(spec, S)
                if not last:
                    assert not cur
                last = cur

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PropertySpec(Graph.complete(5), 1, 0.2)
        with pytest.raises(ValueError):
            PropertySpec(Graph.complete(5), 6, 0.2)
        with pytest.raises(ValueError):
            PropertySpec(Graph.complete(5), 3, 0.0)


class TestDegreeEstimate:
    def test_deterministic_given_seed(self):
        G = generate(GeneratorSpec(GNP_REPAIRED, n=30, p=0.6, seed=2))
        spec = PropertySpec(G, 4, 0.25)
        a = property_degree_estimate(spec, 5, trials=200, seed=17)
        b = property_degree_estimate(spec, 5, trials=200, seed=17)
        assert a == b
        c = property_degree_estimate(spec, 5, trials=200, seed=18)
        assert a != c

    def test_complete_graph_fraction_one(self):
        spec = PropertySpec(Graph.complete(20), 5, 0.4)
        est = property_degree_estimate(spec, 0, trials=100, seed=0)
        assert est.estimate == 1.0

    def test_estimate_tracks_enumeration(self):
        # small host: exhaustive fraction vs 3 standard errors
        G = generate(GeneratorSpec(GNP_REPAIRED, n=12, p=0.75, seed=6))
        spec = PropertySpec(G, 4, 0.25)
        for v in (0, 5, 11):
            exact = enumerate_inheriting_fraction(G, v, 4, 0.25)
            est = property_degree_estimate(spec, v, trials=2000, seed=5)
            se = math.sqrt(max(exact * (1 - exact), 1e-9) / 2000)
            assert abs(est.estimate - exact) <= 3 * se + 1e-9

    def test_trials_validation(self):
        spec = PropertySpec(Graph.complete(6), 3, 0.2)
        with pytest.raises(ValueError):
            property_degree_estimate(spec, 0, trials=0)


class TestTailBound:
    def test_frozen_value_ten_five(self):
        # 2 exp(-2 * 25 / 10) = 2 e^-5, pinned to 12 significant digits
        got = hypergeometric_tail_bound(10, 5)
        assert f"{got:.12g}" == f"{2 * math.exp(-5):.12g}"

    def test_frozen_value_hundred_ten(self):
        got = hypergeometric_tail_bound(100, 10)
        assert f"{got:.12g}" == f"{2 * math.exp(-2):.12g}"
        assert abs(got - 0.270670566473) < 5e-13

    def test_monotone_in_ell(self):
        vals = [hypergeometric_tail_bound(50, ell) for ell in (1, 2, 3, 4, 5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_draws(self):
        vals = [hypergeometric_tail_bound(n, 4) for n in (20, 40, 80, 160)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            hypergeometric_tail_bound(0, 2)
        with pytest.raises(ValueError):
            hypergeometric_tail_bound(10, 0)
