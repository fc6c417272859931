"""Cover assembly tests: Hamilton cycles of reduced graphs, singleton
absorption, the almost/simple covers, splitting, and the full spanning
pipeline. Small cases are pinned against the backtracking cycle
oracle; structural claims are re-checked through the certificate verifier.
"""

import math
import random
from dataclasses import asdict, fields
from itertools import combinations

import pytest

from cyclecover import cover as cover_module
from cyclecover.core import (
    BALANCE_QUASI,
    BALANCE_WITHIN,
    Blowup,
    CycleBlowupCertificate,
    Graph,
    SetFamily,
    min_degree,
    verify_cycle_blowup,
)
from cyclecover.cover import (
    ALMOST,
    SIMPLE,
    AbsorptionError,
    CoverParams,
    CoverResult,
    PipelineFailure,
    PRESETS,
    _EPS,
    _guard_picks,
    _guard_shapes,
    _piece_band,
    _place_late,
    _quasi_declaration,
    _split_family,
    _split_plan,
    absorb_singleton,
    almost_blowup_cover,
    dirac_hamilton_cycle,
    simple_blowup_cover,
    spanning_cycle_blowup,
    verify_cover,
)
from cyclecover.generators import (CLIQUE_UNION_PLUS, DIRAC_EXTREMAL, GNP_REPAIRED,
                                   GeneratorSpec, generate)
from cyclecover.seeding import mix, spawner

from oracles import brute_hamilton_cycle, reference_guard_counts


DESK = PRESETS["desk"]


def cycle_is_hamiltonian(G: Graph, cyc) -> bool:
    if sorted(cyc) != list(range(G.n)):
        return False
    return all(G.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])
               for i in range(len(cyc)))


def blowup_union(parts, target_frac=0.75):
    """Disjoint complete multipartite pieces plus ascending completion
    edges up to min degree ceil(target_frac * n)."""
    sizes = [p for piece in parts for p in piece]
    piece_of, part_of = [], []
    pi = 0
    for piece_index, piece in enumerate(parts):
        for p in piece:
            part_of += [pi] * p
            piece_of += [piece_index] * p
            pi += 1
    n = len(part_of)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if piece_of[u] == piece_of[v] and part_of[u] != part_of[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    target = math.ceil(target_frac * n)
    while True:
        v = min(range(n), key=lambda x: (adj[x].bit_count(), x))
        if adj[v].bit_count() >= target:
            break
        w = next(w for w in range(n)
                 if w != v and not (adj[v] >> w) & 1)
        adj[v] |= 1 << w
        adj[w] |= 1 << v
    return Graph(n, adj)


# ---------------------------------------------------------------------------
# Hamilton cycles of reduced graphs


def test_dirac_cycle_complete_graph():
    assert dirac_hamilton_cycle(Graph.complete(5)) == (0, 1, 2, 3, 4)


def test_dirac_cycle_on_a_cycle():
    assert dirac_hamilton_cycle(Graph.cycle(6)) == (0, 1, 2, 3, 4, 5)


def test_dirac_cycle_balanced_bipartite():
    G = Graph.complete_multipartite([3, 3])
    assert dirac_hamilton_cycle(G) == (0, 3, 1, 4, 2, 5)


def test_dirac_cycle_rejects_tiny_graphs():
    with pytest.raises(ValueError):
        dirac_hamilton_cycle(Graph.complete(2))


def test_dirac_cycle_agrees_with_oracle_on_dirac_graphs():
    # min degree >= n/2 guarantees a cycle; the finder must never miss
    rng = random.Random(1319)
    for n in range(3, 11):
        for _ in range(30):
            while True:
                edges = [e for e in combinations(range(n), 2)
                         if rng.random() < 0.7]
                G = Graph.from_edges(n, edges)
                if 2 * min_degree(G) >= n:
                    break
            want = brute_hamilton_cycle(G)
            assert want is not None
            cyc = dirac_hamilton_cycle(G)
            assert cycle_is_hamiltonian(G, cyc)
            assert cyc == want


def test_dirac_cycle_output_is_canonical():
    # min vertex first and the lex smaller direction
    for n in (4, 6, 9):
        cyc = dirac_hamilton_cycle(Graph.complete(n))
        assert cyc[0] == 0
        assert cyc[1] < cyc[-1]


def test_dirac_cycle_valid_whenever_found_below_threshold():
    rng = random.Random(40427)
    found = 0
    for _ in range(120):
        n = rng.randrange(4, 9)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
        G = Graph.from_edges(n, edges)
        try:
            cyc = dirac_hamilton_cycle(G)
        except ValueError:
            continue
        # the search is exhaustive, so it misses no cycle below the bound
        assert (cyc is None) == (brute_hamilton_cycle(G) is None)
        if cyc is not None:
            assert cycle_is_hamiltonian(G, cyc)
            found += 1
    assert found > 0


# ---------------------------------------------------------------------------
# singleton absorption


def quasi_family(cluster_sizes, m, eta):
    clusters, at = [], 0
    for sz in cluster_sizes:
        clusters.append(list(range(at, at + sz)))
        at += sz
    return SetFamily.of(clusters, BALANCE_QUASI, m=m, eta=eta)


def test_absorb_complete_reduced_graph():
    fam = quasi_family([1, 3, 3, 3, 3], m=3, eta=1 / 3)
    res = absorb_singleton(Blowup(Graph.complete(5), fam))
    sizes = sorted(len(c) for c in res.blowup.family.clusters)
    assert sizes == [3, 3, 3, 4]
    assert res.j == 0
    assert res.blowup.family.kind == BALANCE_WITHIN
    assert res.blowup.family.m == 3
    assert res.blowup.family.eta == pytest.approx(2 / 3)
    assert res.blowup.family.validate().status == "PASS"
    assert res.blowup.reduced.n == 4


def test_absorb_pentagon_with_two_contacts():
    # singleton's reduced vertex sees exactly positions 0 and 2 of the
    # pentagon, so the scan settles on j = 0 and the singleton joins the
    # cluster sitting between them
    R = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                             (5, 0), (5, 2)])
    fam = quasi_family([3, 3, 3, 3, 3, 1], m=3, eta=1 / 3)
    res = absorb_singleton(Blowup(R, fam))
    assert res.cycle == (0, 1, 2, 3, 4)
    assert res.j == 0
    sizes = [len(c) for c in res.blowup.family.clusters]
    assert sizes == [3, 4, 3, 3, 3]
    assert 15 in res.blowup.family.clusters[1]


def test_absorb_wraps_the_modular_scan():
    # square with contacts at cycle distance two; position j = 1 is the
    # first whose own cluster and next-but-one cluster both touch the
    # singleton, checked here through both adjacencies
    R = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 1), (4, 3)])
    fam = quasi_family([3, 3, 3, 3, 1], m=3, eta=1 / 3)
    res = absorb_singleton(Blowup(R, fam))
    k = len(res.cycle)
    assert res.j == 1
    assert R.has_edge(4, res.cycle[res.j])
    assert R.has_edge(4, res.cycle[(res.j + 2) % k])
    assert 12 in res.blowup.family.clusters[res.cycle[(res.j + 1) % k]]


def test_absorb_fails_when_singleton_sees_nothing():
    R = Graph.from_edges(5, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    fam = quasi_family([3, 3, 3, 3, 1], m=3, eta=1 / 3)
    with pytest.raises(AbsorptionError):
        absorb_singleton(Blowup(R, fam))


def test_absorb_needs_three_clusters_besides_the_singleton():
    fam = quasi_family([2, 2, 1], m=2, eta=0.5)
    with pytest.raises(AbsorptionError):
        absorb_singleton(Blowup(Graph.complete(3), fam))


# ---------------------------------------------------------------------------
# splitting covered families into quasi families


def test_piece_band_values():
    assert _piece_band(DESK, 50) == (2, 3)
    assert _piece_band(DESK, 61) == (2, 3)
    assert _piece_band(DESK, 200) == (2, 4)
    assert _piece_band(DESK, 300) == (2, 4)


def test_split_plan_infeasible_shape():
    # three fives can only cut 2+3, leaving nowhere for two singletons
    assert _split_plan((5, 5, 5, 4), 2, 3) is None


def test_split_plan_and_family_agree():
    rng = random.Random(977)
    lo, hi = 2, 3
    m_q, eta_q = _quasi_declaration(lo, hi)
    for _ in range(200):
        k = rng.randrange(3, 6)
        sizes = [rng.randrange(2, 11) for _ in range(k)]
        plan = _split_plan(sizes, lo, hi)
        if plan is None:
            continue
        f, sigma = plan
        clusters, at = [], 0
        for sz in sizes:
            clusters.append(list(range(at, at + sz)))
            at += sz
        children = _split_family(clusters, f, sigma)
        assert len(children) == f
        seen = set()
        for child in children:
            assert len(child) == k
            fam = SetFamily.of(child, BALANCE_QUASI, m=m_q, eta=eta_q)
            assert fam.validate().status == "PASS"
            for cl in child:
                assert not (set(cl) & seen)
                seen |= set(cl)
        assert len(seen) == sum(sizes)


# ---------------------------------------------------------------------------
# almost cover


def test_almost_cover_complete_graph_partitions_exactly():
    # m1 = floor(c1 ln 64) = 4 at desk, and 4 blow-ups of four 4-vertex
    # clusters fill the four 16-vertex blocks
    G = Graph.complete(64)
    assert DESK.scales(64)[0] == 4
    res = almost_blowup_cover(G, DESK)
    assert res.validate().status == "PASS"
    assert res.uncovered == frozenset()
    assert len(res.blowups) == 4
    for b in res.blowups:
        assert b.reduced.n == 4
        assert all(len(c) == 4 for c in b.family.clusters)
    assert verify_cover(G, res, DESK).status == "PASS"


def test_almost_cover_reports_an_isolated_vertex():
    adj = [0] * 61
    for u in range(60):
        for v in range(u + 1, 60):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    G = Graph(61, adj)
    res = almost_blowup_cover(G, DESK)
    assert 60 in res.uncovered
    for b in res.blowups:
        for c in b.family.clusters:
            assert 60 not in c
    assert res.diagnostics
    assert res.validate().status == "PASS"


def test_almost_cover_bipartite_host_stays_best_effort():
    # no 4-clique blow-up fits a bipartite host; the cover returns empty
    # handed rather than inventing one, and the result still verifies
    G = Graph.complete_multipartite([30, 30])
    res = almost_blowup_cover(G, DESK)
    assert res.blowups == ()
    assert res.uncovered == frozenset(range(60))
    assert res.kind == ALMOST
    assert verify_cover(G, res, DESK).status == "PASS"


@pytest.mark.parametrize("spec,density", [
    # the blocks of consecutive ids split the two cliques: the guard rejects
    (GeneratorSpec(DIRAC_EXTREMAL, n=300, delta_target=225, seed=0), 0.046875),
    (GeneratorSpec(GNP_REPAIRED, n=600, p=0.8, delta_target=420, seed=90002), 0.203125),
])
def test_partition_guard_density_is_pinned(spec, density):
    # the guard's seed and draw order feed every later random stream
    res = almost_blowup_cover(generate(spec), DESK)
    assert res.diagnostics[0] == ("partition", {"block": spec.n // DESK.s,
                                                "density": density, "floor": 0.125})
    assert (res.blowups == ()) == (density < 0.125)


def test_pattern_is_the_guards_most_frequent_shape():
    # at s = 6 a vertex needs 4 of its 5 partners, so K6 and K6 less a
    # matching all inherit; the pattern is the most frequent of the shapes
    # the guard itself drew, ties to the smallest edge list
    params = CoverParams(eps=0.25, s=6, c1=1.2, c2=1.2, c3=0.6, eta=0.1)
    G = generate(GeneratorSpec(GNP_REPAIRED, n=300, p=0.97, delta_target=225, seed=0))
    block = G.n // params.s
    rng_of = spawner(mix(mix(params.seed, "cover", "tiling"), "reduced-edge", *range(params.s)),
                     "tuple-density")
    counts = {}
    for trial in range(192):
        rng = rng_of(trial)
        pick = [i * block + rng.randrange(block) for i in range(params.s)]
        pairs = [(a, b) for a, b in combinations(range(params.s), 2)
                 if G.has_edge(pick[a], pick[b])]
        if all(sum(v in pair for pair in pairs) >= 4 for v in range(params.s)):
            counts[tuple(pairs)] = counts.get(tuple(pairs), 0) + 1
    assert len(counts) > 1
    top = max(counts.values())
    want = Graph.from_edges(params.s, min(k for k, c in counts.items() if c == top))
    res = almost_blowup_cover(G, params)
    assert res.diagnostics[0][1]["density"] == sum(counts.values()) / 192
    assert res.blowups
    assert all(b.reduced == want for b in res.blowups)


# s = 6: several shapes inherit (see the test above)
WIDE = CoverParams(eps=0.25, s=6, c1=1.2, c2=1.2, c3=0.6, eta=0.1)


def _dense300(seed):
    return generate(GeneratorSpec(GNP_REPAIRED, n=300, p=0.97, delta_target=225, seed=seed))


@pytest.mark.parametrize("spec,params", [
    *[pytest.param(GeneratorSpec(GNP_REPAIRED, n=300, p=0.97, delta_target=225, seed=seed), DESK,
                   id=f"dense300-{seed}") for seed in range(5)],
    pytest.param(GeneratorSpec(GNP_REPAIRED, n=600, p=0.8, delta_target=420, seed=90002), DESK,
                 id="sparse600-90002"),
    *[pytest.param(GeneratorSpec(DIRAC_EXTREMAL, n=300, delta_target=225, seed=seed), DESK,
                   id=f"extremal300-{seed}") for seed in range(3)],
    pytest.param(GeneratorSpec(CLIQUE_UNION_PLUS, n=300, pieces=3, delta_target=225, seed=0),
                 DESK, id="clique-union300"),
    pytest.param(None, DESK, id="K30,30"),
    pytest.param(GeneratorSpec(GNP_REPAIRED, n=300, p=0.97, delta_target=225, seed=0),
                 CoverParams(s=3), id="dense300-0-s3"),
    pytest.param(GeneratorSpec(GNP_REPAIRED, n=300, p=0.97, delta_target=225, seed=0), WIDE,
                 id="dense300-0-s6"),
])
def test_guard_shapes_match_the_per_sample_guard(spec, params):
    # None is K30,30, where no sample inherits
    G = Graph.complete_multipartite([30, 30]) if spec is None else generate(spec)
    want = reference_guard_counts(G, params)
    floor_deg = (0.5 + params.eps / 2.0) * params.s - _EPS
    got = _guard_shapes(G, _guard_picks(params.seed, params.s, G.n // params.s), floor_deg)
    assert got == want
    res = almost_blowup_cover(G, params)
    assert res.diagnostics[0][1]["density"] == sum(want.values()) / 192
    if res.blowups:
        pattern = Graph.from_edges(params.s, max(sorted(want), key=want.get))
        assert all(b.reduced == pattern for b in res.blowups)


def test_guard_picks_are_read_only():
    picks = _guard_picks(0, 4, 75)
    assert picks.shape == (192, 4)
    with pytest.raises(ValueError):
        picks[0, 0] = 0


def test_guard_draws_once_per_order(monkeypatch):
    # a second host of the same order reuses the first host's samples
    calls = 0
    real = cover_module.spawner

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(cover_module, "spawner", counting)
    _guard_picks.cache_clear()
    almost_blowup_cover(_dense300(0), DESK)
    hits = _guard_picks.cache_info().hits
    almost_blowup_cover(_dense300(1), DESK)
    assert calls == 1
    assert _guard_picks.cache_info().hits == hits + 1


def test_guard_memo_leaves_certificates_unchanged():
    # criterion 2's hosts, solved with the samples drawn afresh and reused
    hosts = [_dense300(seed) for seed in range(20)]
    fresh = []
    for G in hosts:
        _guard_picks.cache_clear()
        fresh.append(spanning_cycle_blowup(G, DESK).to_json())
    assert [spanning_cycle_blowup(G, DESK).to_json() for G in hosts] == fresh


def test_cover_params_accept_a_non_integer_scale_ratio():
    # c1/c2 may be any positive ratio
    params = CoverParams(c1=1.0, c2=0.4)
    assert params.scales(300) == (5, 2, 2)


def test_cover_params_refuse_eps_outside_unit_interval():
    for eps in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="eps"):
            CoverParams(eps=eps)


def test_every_cover_params_field_is_read_by_a_desk_solve():
    # the CLI's parsed-flag test cannot see a CoverParams field that the
    # solve never consults; this one records the reads of one desk solve,
    # so a field that a preset sets and the search ignores fails here
    read = set()

    class Recording(CoverParams):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    params = Recording(**asdict(DESK))
    read.clear()  # __post_init__ reads its fields while checking them
    G = generate(GeneratorSpec(GNP_REPAIRED, n=300, p=0.97, delta_target=225, seed=0))
    cert = spanning_cycle_blowup(G, params)
    assert not isinstance(cert, PipelineFailure), cert
    assert {f.name for f in fields(CoverParams)} - read == set()


# ---------------------------------------------------------------------------
# simple cover


def test_simple_cover_complete_graph():
    G = Graph.complete(61)
    res = simple_blowup_cover(G, DESK)
    assert res.kind == SIMPLE
    assert res.uncovered == frozenset()
    assert res.validate().status == "PASS"
    assert verify_cover(G, res, DESK).status == "PASS"
    covered = [v for b in res.blowups for c in b.family.clusters for v in c]
    assert sorted(covered) == list(range(61))


def test_simple_cover_recovers_a_planted_blowup_partition():
    # host already carries a spanning 4-partite blow-up; a few completion
    # edges lift the smallest degrees, and the cover must go all the way
    for parts in ((14, 14, 14, 18), (15, 15, 15, 16)):
        G = blowup_union([parts])
        assert 2 * min_degree(G) >= G.n
        res = simple_blowup_cover(G, DESK)
        assert res.kind == SIMPLE
        assert res.uncovered == frozenset()
        assert verify_cover(G, res, DESK).status == "PASS"


def test_simple_cover_planted_partition_larger_host():
    G = blowup_union([(48, 48, 48, 56)])
    res = simple_blowup_cover(G, DESK)
    assert res.kind == SIMPLE
    assert res.uncovered == frozenset()
    assert verify_cover(G, res, DESK).status == "PASS"


def test_simple_cover_partial_result_still_verifies():
    # three small pieces drown in completion edges; the endgame strands a
    # few vertices, which the simple cover returns as its late set, and the
    # families partition the rest
    G = blowup_union([(5, 5, 5, 5)] * 3)
    res = simple_blowup_cover(G, DESK)
    assert res.kind == SIMPLE
    assert res.uncovered
    assert res.diagnostics[-1] == ("endgame-stuck", len(res.uncovered))
    assert res.validate().status == "PASS"
    assert verify_cover(G, res, DESK).status == "PASS"


def test_simple_cover_is_deterministic():
    G = blowup_union([(15, 15, 15, 16)])
    sig = []
    for _ in range(2):
        res = simple_blowup_cover(G, DESK)
        sig.append(tuple(sorted(
            tuple(sorted(c)) for b in res.blowups for c in b.family.clusters)))
    assert sig[0] == sig[1]


def test_verify_cover_catches_a_missing_host_edge():
    G = Graph.complete(61)
    res = simple_blowup_cover(G, DESK)
    # delete one edge used across some blow-up pair and re-verify
    b = res.blowups[0]
    c0, c1 = b.family.clusters[0], b.family.clusters[1]
    u, v = min(c0), min(c1)
    broken = Graph.from_edges(61, [(a, b2) for a, b2 in G.edges()
                                   if {a, b2} != {u, v}])
    assert verify_cover(broken, res, DESK).status == "FAIL"


def test_cover_result_validate_rejects_overlap():
    G = Graph.complete(61)
    res = simple_blowup_cover(G, DESK)
    first = res.blowups[0]
    stolen = next(iter(res.blowups[1].family.clusters[0]))
    clusters = [list(c) for c in first.family.clusters]
    clusters[0] = clusters[0] + [stolen]
    fam = SetFamily.of(clusters, first.family.kind,
                       m=first.family.m, eta=max(first.family.eta, 1.0))
    tampered = CoverResult(
        res.n, (Blowup(first.reduced, fam),) + res.blowups[1:],
        res.uncovered, res.kind)
    assert tampered.validate().status == "FAIL"


# ---------------------------------------------------------------------------
# the full pipeline


def test_pipeline_complete_host_small():
    G = Graph.complete(50)
    cert = spanning_cycle_blowup(G, DESK)
    assert not isinstance(cert, PipelineFailure)
    assert verify_cycle_blowup(G, cert).status == "PASS"
    lo, hi = cert.size_bounds()
    for c in cert.clusters:
        assert lo <= len(c) <= hi
        assert len(c) <= 3


def test_pipeline_rejects_disconnected_host():
    adj = [0] * 50
    for base in (0, 25):
        for a in range(25):
            for b in range(a + 1, 25):
                adj[base + a] |= 1 << (base + b)
                adj[base + b] |= 1 << (base + a)
    G = Graph(50, adj)
    res = spanning_cycle_blowup(G, DESK)
    assert res == PipelineFailure("degree", None, {"min_degree": 24})


def test_pipeline_does_not_refuse_a_host_at_dirac_bound():
    # 2 delta = n passes the degree check; no 4-clique blow-up fits the
    # bipartite host, so a cover with no blow-up fails at stage cover
    G = Graph.complete_multipartite([30, 30])
    res = spanning_cycle_blowup(G, DESK)
    assert isinstance(res, PipelineFailure)
    assert res.stage == "cover"


def test_pipeline_enforces_order_floor():
    with pytest.raises(ValueError, match="below N_FLOOR = 50"):
        spanning_cycle_blowup(Graph.complete(49), DESK)


def test_pipeline_dense_random_host_reproducible():
    spec = GeneratorSpec(kind=GNP_REPAIRED, n=300, p=0.97,
                         delta_target=240, seed=0)
    G = generate(spec)
    assert min_degree(G) >= 240
    first = spanning_cycle_blowup(G, DESK)
    assert not isinstance(first, PipelineFailure)
    assert verify_cycle_blowup(G, first).status == "PASS"
    again = spanning_cycle_blowup(G, DESK)
    assert again == first
    covered = sorted(v for c in first.clusters for v in c)
    assert covered == list(range(300))


def test_pipeline_places_late_vertices_after_endgame_stuck():
    # the cover endgame strands one vertex on this host; it joins a cycle
    # cluster after winding, and the certificate verifies on G
    G = generate(GeneratorSpec(kind=GNP_REPAIRED, n=300, p=0.8,
                               delta_target=210, seed=9))
    assert simple_blowup_cover(G, DESK).uncovered
    cert = spanning_cycle_blowup(G, DESK)
    assert not isinstance(cert, PipelineFailure), cert
    assert verify_cycle_blowup(G, cert).status == "PASS"
    assert cert.to_json() == spanning_cycle_blowup(G, DESK).to_json()


def test_pipeline_certifies_extremal_host_in_one_pass(monkeypatch):
    # the consecutive-id partition blocks fall into different cliques here;
    # the fold-in covers all but a few late vertices, and one cover does
    G = generate(GeneratorSpec(kind=DIRAC_EXTREMAL, n=300, delta_target=225,
                               seed=0))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return simple_blowup_cover(*args, **kwargs)

    monkeypatch.setattr(cover_module, "simple_blowup_cover", counted)
    cert = spanning_cycle_blowup(G, DESK)
    assert not isinstance(cert, PipelineFailure), cert
    assert verify_cycle_blowup(G, cert).status == "PASS"
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(20))
def test_pipeline_certifies_sparse_60_hosts(seed):
    # every one of these hosts ends the fold-in with 3-4 late vertices
    G = generate(GeneratorSpec(kind=GNP_REPAIRED, n=60, p=0.8,
                               delta_target=42, seed=seed))
    assert simple_blowup_cover(G, DESK).uncovered
    cert = spanning_cycle_blowup(G, DESK)
    assert not isinstance(cert, PipelineFailure), cert
    assert verify_cycle_blowup(G, cert).status == "PASS"


@pytest.mark.parametrize("kind,n,delta,seed,index,pool,trim", [
    (DIRAC_EXTREMAL, 600, 360, 0, 84, 85, 2),
    (DIRAC_EXTREMAL, 600, 360, 1, 34, 155, 2),
    (DIRAC_EXTREMAL, 600, 360, 2, 40, 173, 3),
    (DIRAC_EXTREMAL, 600, 360, 3, 34, 169, 3),
    (DIRAC_EXTREMAL, 600, 360, 4, 44, 169, 3),
    (CLIQUE_UNION_PLUS, 60, 30, 0, 4, 7, 2),
])
def test_pipeline_connect_failures_are_pinned(kind, n, delta, seed, index, pool, trim):
    # the connect stage runs out of connector vertices on these hosts; the
    # connector that fails, its pool and its trim pin the donor rule. Once
    # desk certifies them, this should assert the certificate instead
    G = generate(GeneratorSpec(kind, n=n, delta_target=delta, seed=seed))
    got = spanning_cycle_blowup(G, DESK)
    assert got == PipelineFailure("connect", index, {"pool": pool, "trim": trim})


# ---------------------------------------------------------------------------
# late vertices


def three_pairs(n, c):
    # clusters {0, 1}, {2, 3}, {4, 5} declared at (c, 1.0) over order n
    return CycleBlowupCertificate(n, c, 1.0, ((0, 1), (2, 3), (4, 5)))


def test_place_late_needs_both_cycle_neighbours():
    # vertex 6 sees only the first cluster, and every position of a
    # three-cluster cycle has two other clusters as neighbours
    G = Graph.from_edges(7, [(u, v) for u, v in combinations(range(6), 2)]
                         + [(0, 6), (1, 6)])
    res = _place_late(G, three_pairs(7, 0.8), frozenset({6}))
    assert res == PipelineFailure("late", None, {"vertex": 6, "late": 1})


def test_place_late_skips_clusters_at_the_upper_bound():
    G = Graph.complete(7)
    # 2 ln 7 c floors to hi = 2 at c = 0.55: every cluster is full
    assert three_pairs(7, 0.55).size_bounds()[1] == 2
    res = _place_late(G, three_pairs(7, 0.55), frozenset({6}))
    assert res == PipelineFailure("late", None, {"vertex": 6, "late": 1})
    # hi = 3 at c = 0.8: the three clusters tie and the first one takes it
    cert = _place_late(G, three_pairs(7, 0.8), frozenset({6}))
    assert cert.clusters == ((0, 1, 6), (2, 3), (4, 5))
    assert verify_cycle_blowup(G, cert).status == "PASS"


def test_place_late_reads_earlier_placements_and_is_deterministic():
    # the cycle (0 1)(2 3)(4 5)(8); 6 and 7 miss only each other. 6 goes
    # first, into the smallest cluster (8); 7 may then not sit next to it,
    # and of the two positions left, (2 3) ties with (6 8) and comes first
    G = Graph.from_edges(9, [(u, v) for u, v in combinations(range(9), 2)
                             if (u, v) != (6, 7)])
    cert = CycleBlowupCertificate(9, 1.0, 1.0, ((0, 1), (2, 3), (4, 5), (8,)))
    placed = [_place_late(G, cert, late) for late in ([7, 6], [6, 7])]
    assert placed[0] == placed[1]
    assert placed[0].clusters == ((0, 1), (2, 3, 7), (4, 5), (6, 8))
    assert verify_cycle_blowup(G, placed[0]).status == "PASS"
