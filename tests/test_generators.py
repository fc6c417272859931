"""Generator determinism and degree-floor contracts."""

import math
from dataclasses import replace

import pytest
from oracles import reference_gnp_repaired, reference_repair_to_min_degree

from cyclecover.core import graph_to_text, min_degree
from cyclecover.generators import (
    CLIQUE_UNION_PLUS,
    DIRAC_EXTREMAL,
    GNP_REPAIRED,
    GeneratorSpec,
    _repair_to_min_degree,
    generate,
)


class TestGnpRepaired:
    def test_degree_floor_met_exactly(self):
        spec = GeneratorSpec(GNP_REPAIRED, n=60, p=0.3, delta_target=40, seed=7)
        G = generate(spec)
        assert min_degree(G) >= 40

    def test_deterministic(self):
        spec = GeneratorSpec(GNP_REPAIRED, n=40, p=0.5, delta_target=25, seed=3)
        assert generate(spec).adj == generate(spec).adj

    def test_seed_changes_graph(self):
        a = generate(GeneratorSpec(GNP_REPAIRED, n=40, p=0.5, seed=1))
        b = generate(GeneratorSpec(GNP_REPAIRED, n=40, p=0.5, seed=2))
        assert a.adj != b.adj

    def test_infeasible_target(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate(GeneratorSpec(GNP_REPAIRED, n=10, p=0.1, delta_target=10))

    def test_repair_touches_low_degree_first(self):
        # sparse sample, aggressive target: repair must close the gap
        spec = GeneratorSpec(GNP_REPAIRED, n=30, p=0.05, delta_target=20, seed=11)
        G = generate(spec)
        assert min_degree(G) >= 20


class TestDiracExtremal:
    def test_shape(self):
        G = generate(GeneratorSpec(DIRAC_EXTREMAL, n=20, overlap=2))
        # vertices 0..11 form a clique, 8..19 form a clique, overlap 8..11
        assert G.has_edge(0, 11)
        assert G.has_edge(8, 19)
        assert not G.has_edge(0, 19)
        assert min_degree(G) == 11  # floor(20/2) + 2 - 1

    def test_degree_target_derivation(self):
        G = generate(GeneratorSpec(DIRAC_EXTREMAL, n=41, delta_target=23))
        assert min_degree(G) >= 23

    def test_below_half_collapses_to_disjoint_cliques(self):
        G = generate(GeneratorSpec(DIRAC_EXTREMAL, n=20, delta_target=9))
        assert min_degree(G) == 9
        assert not G.has_edge(0, 19)

    def test_overlap_too_large(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec(DIRAC_EXTREMAL, n=10, overlap=8))


class TestCliqueUnionPlus:
    def test_repairs_to_target(self):
        spec = GeneratorSpec(CLIQUE_UNION_PLUS, n=30, pieces=3, delta_target=20, seed=0)
        G = generate(spec)
        assert min_degree(G) >= 20

    def test_pure_union_without_target(self):
        G = generate(GeneratorSpec(CLIQUE_UNION_PLUS, n=12, pieces=3))
        assert G.has_edge(0, 3)       # inside first clique of size 4
        assert not G.has_edge(0, 4)   # across cliques
        assert min_degree(G) == 3


@pytest.mark.parametrize("spec", [
    GeneratorSpec(DIRAC_EXTREMAL, n=300, delta_target=225),
    GeneratorSpec(CLIQUE_UNION_PLUS, n=60, pieces=3, delta_target=30),
])
def test_seed_relabels_fixed_constructions(spec):
    graphs = [generate(replace(spec, seed=seed)) for seed in range(3)]
    assert len({graph_to_text(G) for G in graphs}) == 3
    degrees = [sorted(G.degree(v) for v in range(G.n)) for G in graphs]
    assert degrees[1] == degrees[0] and degrees[2] == degrees[0]


def test_unknown_kind():
    with pytest.raises(ValueError, match="unknown generator kind"):
        generate(GeneratorSpec("NO_SUCH", n=5))


def test_acceptance_scale_instance():
    # the probe scale: n = 300, degree floor ceil(0.75 n) = 225
    spec = GeneratorSpec(GNP_REPAIRED, n=300, p=0.97, delta_target=225, seed=0)
    G = generate(spec)
    assert min_degree(G) >= 225
    assert min_degree(G) >= math.ceil(0.5 * 300)


# ---------------------------------------------------------------------------
# bit-identity with the per-pair sampler and the scanning repair (oracles)


def _outcome(build, spec):
    try:
        return build(spec).adj
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 0.97, 1.0])
@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 129])
def test_gnp_matches_per_pair_reference(n, p):
    for seed in range(3):
        for delta in (None, (3 * n) // 4):
            spec = GeneratorSpec(GNP_REPAIRED, n=n, p=p, delta_target=delta, seed=seed)
            assert _outcome(generate, spec) == _outcome(reference_gnp_repaired, spec)


@pytest.mark.parametrize("n, p, delta_frac", [
    (300, 0.97, 0.75), (600, 0.8, 0.7), (1000, 0.97, 0.75),
])
def test_benchmark_hosts_match_per_pair_reference(n, p, delta_frac):
    # graph seeds s * 10000 + i of the benchmark; i = 0 of each s here
    for s in range(5):
        spec = GeneratorSpec(GNP_REPAIRED, n=n, p=p, seed=s * 10000,
                             delta_target=math.ceil(delta_frac * n))
        assert graph_to_text(generate(spec)) == graph_to_text(reference_gnp_repaired(spec))


@pytest.mark.parametrize("spec, target", [
    (GeneratorSpec(CLIQUE_UNION_PLUS, n=120, pieces=3), 90),
    (GeneratorSpec(CLIQUE_UNION_PLUS, n=97, pieces=5), 60),
    (GeneratorSpec(DIRAC_EXTREMAL, n=120, overlap=0), 80),
    (GeneratorSpec(DIRAC_EXTREMAL, n=101, overlap=3), 70),
])
def test_heap_repair_matches_scanning_reference(spec, target):
    base = generate(spec)  # seed 0: the construction's own labels
    got, want = list(base.adj), list(base.adj)
    _repair_to_min_degree(got, base.n, target)
    reference_repair_to_min_degree(want, base.n, target)
    assert got == want
    assert min(row.bit_count() for row in got) >= target
