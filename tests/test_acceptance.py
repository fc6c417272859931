"""Acceptance suite: one test per shipped criterion, in order, each ending
with a CRITERION n: PASS line on success.

Reference values come from the independent oracles in oracles.py or from
hand constructions; the package search code is never its own reference.
Criteria 2, 3, and 9 run through cached probe functions so the determinism
criterion can rerun them fresh and compare artifacts byte for byte (the
wall-clock column is the one excluded field).
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations, product

import numpy as np

from cyclecover.blowup_search import connect_clusters
from cyclecover.cli import experiment_row
from cyclecover.core import (
    PASS,
    CycleBlowupCertificate,
    Graph,
    is_complete_bipartite,
    min_degree,
    verify_cycle_blowup,
)
from cyclecover.cover import (
    PRESETS,
    SIMPLE,
    simple_blowup_cover,
    spanning_cycle_blowup,
    verify_cover,
)
from cyclecover.generators import GNP_REPAIRED, GeneratorSpec, generate
from cyclecover.lemmas import (
    EXHAUSTIVE,
    BicliqueRequest,
    Hypergraph,
    PropertySpec,
    check_lower_regular,
    find_biclique,
    find_lower_regular_tuple,
    hypergeometric_tail_bound,
    hypergraph_perfect_matching,
    property_degree_estimate,
)

from oracles import (
    brute_biclique_exists,
    brute_connect_exists,
    brute_hyper_min_degree,
    brute_perfect_matching,
    enumerate_inheriting_fraction,
)

DESK = PRESETS["desk"]

_CACHE: dict[str, object] = {}


def _cached(key: str, fn):
    if key not in _CACHE:
        _CACHE[key] = fn()
    return _CACHE[key]


def _strip_wall(row: str) -> str:
    return row.rsplit(",", 1)[0]


def _minus_edge(G: Graph, u: int, v: int) -> Graph:
    adj = list(G.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(G.n, adj)


# ---------------------------------------------------------------------------
# criterion 1: verifier soundness on a hand-built corpus


def _uniform_clusters(n: int, t: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(i * t, (i + 1) * t)) for i in range(n // t))


def _cert(n: int, t: int, clusters=None, eta: float = 0.5, base: float | None = None):
    scale = (base if base is not None else t) / math.log(n)
    cl = clusters if clusters is not None else _uniform_clusters(n, t)
    return CycleBlowupCertificate(n, scale, eta, tuple(tuple(c) for c in cl))


def test_criterion_01_verifier_soundness():
    valid = [
        (Graph.complete(12), _cert(12, 3)),
        (Graph.complete(12), _cert(12, 2)),
        (Graph.complete(15), _cert(15, 3)),
        (Graph.complete(16), _cert(16, 4)),
        (Graph.complete(18), _cert(18, 3)),
        (Graph.complete(20), _cert(20, 4)),
        (Graph.complete(20), _cert(20, 2)),
        (Graph.complete(21), _cert(21, 3)),
        (Graph.complete(24), _cert(24, 4)),
        (Graph.complete_multipartite([4, 4, 4]), _cert(12, 4)),
    ]

    def drop(n, t, victim):
        cl = [list(c) for c in _uniform_clusters(n, t)]
        for c in cl:
            if victim in c:
                c.remove(victim)
        return _cert(n, t, cl)

    def dup(n, t, extra, into):
        cl = [list(c) for c in _uniform_clusters(n, t)]
        cl[into].append(extra)
        return _cert(n, t, cl)

    moved = [list(c) for c in _uniform_clusters(18, 3)]
    moved[0].remove(2)
    moved[1].insert(0, 2)

    invalid = [
        # spanning broken, everything else inside its declaration
        (Graph.complete(20), drop(20, 4, 19), "not spanning"),
        (Graph.complete(18), drop(18, 3, 0), "not spanning"),
        (Graph.complete(15), drop(15, 3, 7), "not spanning"),
        # one missing host edge between cyclically consecutive clusters
        (_minus_edge(Graph.complete(20), 0, 4), _cert(20, 4),
         "consecutive clusters not joined"),
        (_minus_edge(Graph.complete(12), 11, 0), _cert(12, 3),
         "consecutive clusters not joined"),
        (_minus_edge(Graph.complete(18), 3, 6), _cert(18, 3),
         "consecutive clusters not joined"),
        # declared size window misses some clusters, partition still exact
        (Graph.complete(18), _cert(18, 3, moved, eta=0.0), "size out of range"),
        (Graph.complete(16), _cert(16, 4, eta=0.1, base=8.0), "size out of range"),
        # a vertex claimed by two clusters, union still spans the host
        (Graph.complete(20), dup(20, 4, 0, 2), "clusters overlap"),
        (Graph.complete(12), dup(12, 3, 5, 3), "clusters overlap"),
    ]

    t0 = time.perf_counter()
    for G, cert in valid:
        v = verify_cycle_blowup(G, cert)
        assert v.status == PASS, v
    for G, cert, reason in invalid:
        v = verify_cycle_blowup(G, cert)
        assert v.status == "FAIL" and v.reason == reason, (v, reason)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    print("CRITERION 1: PASS")


# ---------------------------------------------------------------------------
# criterion 2: end-to-end probe at n = 300 (also reused by criterion 10)


def _probe_instance(seed: int) -> Graph:
    return generate(GeneratorSpec(kind=GNP_REPAIRED, n=300, p=0.97,
                                  delta_target=225, seed=seed))


def run_theorem_probe() -> dict:
    rows, certs, walls = [], [], []
    for seed in range(20):
        G = _probe_instance(seed)
        t0 = time.perf_counter()
        result = spanning_cycle_blowup(G, DESK)
        wall = time.perf_counter() - t0
        rows.append(experiment_row(300, seed, "desk", result, wall))
        certs.append(result.to_json()
                     if isinstance(result, CycleBlowupCertificate)
                     else f"FAILURE:{result.stage}\n")
        walls.append(wall)
    return {"rows": rows, "certs": certs, "walls": walls}


def test_criterion_02_end_to_end_probe():
    probe = _cached("theorem", run_theorem_probe)
    outcomes = [row.split(",")[3] for row in probe["rows"]]
    passes = [i for i, o in enumerate(outcomes) if o == "PASS"]
    assert len(passes) >= 18, outcomes
    for wall in probe["walls"]:
        assert wall < 120.0, wall
    # independent re-verification: JSON round trip against a regenerated host
    for seed in passes:
        cert = CycleBlowupCertificate.from_json(probe["certs"][seed])
        assert verify_cycle_blowup(_probe_instance(seed), cert).status == PASS
    print("CRITERION 2: PASS")


# ---------------------------------------------------------------------------
# criterion 3: cluster connection, bulk success plus exhaustive agreement


def run_connect_probe() -> dict:
    lines = []
    successes = []
    for seed in range(100):
        G = generate(GeneratorSpec(kind=GNP_REPAIRED, n=80, p=0.85,
                                   delta_target=60, seed=seed))
        rng = random.Random(80_000 + seed)
        picks = rng.sample(range(80), 24)
        U, V = sorted(picks[:12]), sorted(picks[12:])
        W = sorted(set(range(80)) - set(picks))
        got = connect_clusters(G, U, V, W, 2, eps=DESK.eps,
                               node_budget=DESK.node_budget)
        if got is None:
            lines.append(f"{seed}:none")
        else:
            triple = tuple(tuple(sorted(side)) for side in got)
            lines.append(f"{seed}:" + "|".join(
                ",".join(map(str, side)) for side in triple))
            successes.append((seed, G, triple))
    # small instances across densities, checked against the oracle
    for seed in range(50):
        p = 0.25 + 0.01 * seed
        rng = random.Random(20_000 + seed)
        edges = [(u, v) for u in range(20) for v in range(u + 1, 20)
                 if rng.random() < p]
        G = Graph.from_edges(20, edges)
        U, V, W = range(4), range(4, 8), range(8, 20)
        got = connect_clusters(G, U, V, W, 2, node_budget=None)
        expect = brute_connect_exists(G, U, V, W, 2)
        assert (got is not None) == expect, seed
        lines.append(f"o{seed}:{int(expect)}")
    return {"lines": lines, "successes": successes}


def test_criterion_03_connecting_lemma():
    probe = _cached("connect", run_connect_probe)
    assert len(probe["successes"]) >= 95, len(probe["successes"])
    for seed, G, (U2, V2, W2) in probe["successes"]:
        assert is_complete_bipartite(G, U2, W2).status == PASS, seed
        assert is_complete_bipartite(G, V2, W2).status == PASS, seed
    print("CRITERION 3: PASS")


# ---------------------------------------------------------------------------
# criterion 4: biclique finder equals the exhaustive oracle


def test_criterion_04_biclique_oracle_equivalence():
    A, B = range(4), range(4, 8)
    t0 = time.perf_counter()
    for decile in range(10):
        p = (decile + 0.5) / 10.0
        for rep in range(1200):
            rng = random.Random(4_000_000 + decile * 10_000 + rep)
            edges = [(u, v) for u in range(8) for v in range(u + 1, 8)
                     if rng.random() < p]
            G = Graph.from_edges(8, edges)
            got = find_biclique(BicliqueRequest.of(G, A, B, 2),
                                node_budget=None)
            expect = brute_biclique_exists(G, A, B, 2)
            assert (got is None) == (not expect), (decile, rep)
            if got is not None:
                a, b = got
                assert all(G.has_edge(x, y) for x in a for y in b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    print("CRITERION 4: PASS")


# ---------------------------------------------------------------------------
# criterion 5: perfect matchings in dense 3-graphs


def _dense_3graph(seed: int) -> list[tuple[int, int, int]]:
    """Thin the complete 3-graph on 12 vertices while keeping every vertex
    degree at or above the criterion floor."""
    floor = math.ceil((2.0 / 3.0 + 0.1) * math.comb(11, 2))
    rng = random.Random(120_000 + seed)
    edges = set(combinations(range(12), 3))
    deg = {v: math.comb(11, 2) for v in range(12)}
    order = sorted(edges)
    rng.shuffle(order)
    for e in order:
        if rng.random() < 0.7 and all(deg[v] - 1 >= floor for v in e):
            edges.remove(e)
            for v in e:
                deg[v] -= 1
    return sorted(edges)


def test_criterion_05_hypergraph_matching():
    floor = math.ceil((2.0 / 3.0 + 0.1) * math.comb(11, 2))
    found = 0
    for seed in range(50):
        edges = _dense_3graph(seed)
        assert brute_hyper_min_degree(edges, range(12)) >= floor
        P = Hypergraph.from_edges(3, range(12), edges)
        got = hypergraph_perfect_matching(P, seed=seed)
        expect = brute_perfect_matching(edges, range(12))
        assert (got is not None) == (expect is not None), seed
        if got is not None:
            edge_set = set(edges)
            seen: set[int] = set()
            for e in got.edges:
                assert tuple(sorted(e)) in edge_set
                assert not seen & set(e)
                seen |= set(e)
            assert seen == set(range(12))
            found += 1
    assert found == 50, found
    print("CRITERION 5: PASS")


# ---------------------------------------------------------------------------
# criterion 6: regular-tuple finder with exhaustive certification


def test_criterion_06_regular_tuple_finder():
    parts = [list(range(12)), list(range(12, 24)), list(range(24, 36))]
    successes = 0
    for seed in range(30):
        rng = random.Random(600_000 + seed)
        edges = [t for t in product(*parts) if rng.random() < 0.6]
        assert len(edges) / (12 ** 3) >= 0.5
        P = Hypergraph.from_edges(3, range(36), edges)
        tel: list[dict] = []
        tup = find_lower_regular_tuple(P, parts, 0.45, 0.5, seed=seed,
                                       telemetry=tel)
        for row in tel:
            assert row["selected_density"] >= row["current_density"] - 1e-9, row
        if tup is None:
            continue
        successes += 1
        check = check_lower_regular(P, [sorted(p) for p in tup.parts],
                                    0.45, 0.5, EXHAUSTIVE)
        assert check.status == PASS, (seed, check)
    assert successes > 0
    print(f"CRITERION 6: PASS ({successes}/30 runs produced a tuple)")


# ---------------------------------------------------------------------------
# criterion 7: degree inheritance against exhaustive enumeration


def test_criterion_07_degree_inheritance():
    for g in range(10):
        G = generate(GeneratorSpec(kind=GNP_REPAIRED, n=14, p=0.8,
                                   delta_target=11, seed=g))
        spec = PropertySpec(G, 5, 0.4)
        for v in range(14):
            truth = enumerate_inheriting_fraction(G, v, 5, 0.4)
            est = property_degree_estimate(spec, v, 5000,
                                           seed=31337 + 97 * g + v)
            se = math.sqrt(truth * (1.0 - truth) / 5000)
            assert abs(est.estimate - truth) <= 3.0 * se + 1e-12, (g, v)
    K = Graph.complete(20)
    for v in range(20):
        assert enumerate_inheriting_fraction(K, v, 5, 0.4) == 1.0
    print("CRITERION 7: PASS")


# ---------------------------------------------------------------------------
# criterion 8: deviation bound formula and empirical tail domination


def test_criterion_08_tail_bound():
    assert math.isclose(hypergeometric_tail_bound(10, 5),
                        2.0 * math.exp(-5.0), rel_tol=1e-12)
    rng = np.random.Generator(np.random.PCG64(8))
    draws = rng.hypergeometric(50, 50, 10, size=10 ** 6)
    for ell in (3, 4, 5):
        freq = float(np.mean(np.abs(draws - 5) >= ell))
        assert freq <= hypergeometric_tail_bound(10, ell), (ell, freq)
    print("CRITERION 8: PASS")


# ---------------------------------------------------------------------------
# criterion 9: cover invariants (also reused by criterion 10)


def _cover_text(res) -> str:
    fams = []
    for B in res.blowups:
        red = ";".join(f"{u}-{v}" for u, v in B.reduced.edges())
        cl = ";".join(",".join(map(str, sorted(c))) for c in B.family.clusters)
        fams.append(f"{B.family.kind},{B.family.m},{B.family.eta}|{red}|{cl}")
    unc = ",".join(map(str, sorted(res.uncovered)))
    return res.kind + "\n" + "\n".join(fams) + "\nuncovered:" + unc + "\n"


def run_cover_probe() -> list:
    out = []
    for seed in range(10):
        G = generate(GeneratorSpec(kind=GNP_REPAIRED, n=200, p=0.97,
                                   delta_target=150, seed=seed))
        res = simple_blowup_cover(G, DESK)
        out.append((G, res, _cover_text(res)))
    return out


def test_criterion_09_cover_invariants():
    degree_floor = (0.5 + DESK.eps / 2.0) * DESK.s
    for seed, (G, res, _) in enumerate(_cached("cover", run_cover_probe)):
        assert res.kind == SIMPLE, (seed, res.kind)
        assert not res.uncovered
        everything = [v for B in res.blowups for c in B.family.clusters
                      for v in c]
        assert sorted(everything) == list(range(200)), seed
        for B in res.blowups:
            assert B.family.validate().status == PASS
            assert min_degree(B.reduced) >= degree_floor - 1e-12
        assert verify_cover(G, res, DESK).status == PASS, seed
    print("CRITERION 9: PASS")


# ---------------------------------------------------------------------------
# criterion 10: determinism of criteria 2, 3, 9 reruns


def test_criterion_10_determinism():
    base2 = _cached("theorem", run_theorem_probe)
    again2 = run_theorem_probe()
    assert [_strip_wall(r) for r in again2["rows"]] == \
        [_strip_wall(r) for r in base2["rows"]]
    assert again2["certs"] == base2["certs"]

    base3 = _cached("connect", run_connect_probe)
    again3 = run_connect_probe()
    assert again3["lines"] == base3["lines"]

    base9 = _cached("cover", run_cover_probe)
    again9 = run_cover_probe()
    assert [t for _, _, t in again9] == [t for _, _, t in base9]
    print("CRITERION 10: PASS")
