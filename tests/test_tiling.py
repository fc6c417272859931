"""Tests for lower-regularity checks, the matcher, and tiling rounds."""

import math
from itertools import combinations

import pytest

from cyclecover.core import FAIL, Hypergraph, PASS, UNKNOWN
from cyclecover.seeding import spawn
from cyclecover.tiling import (
    EXHAUSTIVE,
    IncrementStalled,
    Matching,
    RegularTuple,
    SAMPLED,
    Tiling,
    TilingParams,
    UNCERTIFIED,
    almost_perfect_tiling,
    check_lower_regular,
    find_lower_regular_tuple,
    hypergraph_perfect_matching,
    tiling_increment,
    tuple_density,
)

from oracles import brute_lower_regular, brute_partite_count, brute_perfect_matching


def complete_3graph(n):
    return Hypergraph.from_edges(3, range(n), combinations(range(n), 3))


def complete_partite_3graph(parts):
    edges = []
    for a in parts[0]:
        for b in parts[1]:
            for c in parts[2]:
                edges.append(tuple(sorted((a, b, c))))
    uni = sorted(set().union(*map(set, parts)))
    return Hypergraph.from_edges(3, uni, edges)


def random_3graph(n, p, seed):
    rng = spawn(seed, "test-3graph", n)
    edges = [e for e in combinations(range(n), 3) if rng.random() < p]
    return Hypergraph.from_edges(3, range(n), edges)


# -- densities ----------------------------------------------------------


def test_density_two_partite_edges_of_eight_cells():
    P = Hypergraph.from_edges(3, range(6), [(0, 2, 4), (1, 3, 5)])
    assert tuple_density(P, [{0, 1}, {2, 3}, {4, 5}]) == pytest.approx(2 / 8)


def test_density_counts_only_partite_edges():
    # (0, 1, 4) has two vertices in the first part, so it never counts
    P = Hypergraph.from_edges(3, range(6), [(0, 1, 4), (0, 2, 4)])
    assert tuple_density(P, [{0, 1}, {2, 3}, {4, 5}]) == pytest.approx(1 / 8)

def test_density_complete_host_is_one():
    P = complete_3graph(9)
    assert tuple_density(P, [{0, 1, 2}, {3, 4}, {5, 6, 7, 8}]) == pytest.approx(1.0)


def test_density_arity_mismatch():
    P = complete_3graph(6)
    with pytest.raises(ValueError):
        tuple_density(P, [{0, 1}, {2, 3}])


def test_density_empty_part():
    P = complete_3graph(6)
    with pytest.raises(ValueError):
        tuple_density(P, [{0, 1}, set(), {4, 5}])


def test_density_oracle_needs_trials():
    P = Hypergraph.from_oracle(3, range(9), lambda e: True)
    with pytest.raises(ValueError):
        tuple_density(P, [{0, 1}, {2, 3}, {4, 5}])


def test_density_oracle_sampled_exact_on_complete():
    P = Hypergraph.from_oracle(3, range(9), lambda e: True)
    got = tuple_density(P, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}], trials=200, seed=5)
    assert got == pytest.approx(1.0)


# -- lower-regularity check ---------------------------------------------


def planted_corner_instance(m=6, k=3):
    """Complete 3-partite host minus every edge inside one k-sized corner."""
    parts = [list(range(m)), list(range(m, 2 * m)), list(range(2 * m, 3 * m))]
    corner = [set(p[:k]) for p in parts]
    edges = []
    for a in parts[0]:
        for b in parts[1]:
            for c in parts[2]:
                if not (a in corner[0] and b in corner[1] and c in corner[2]):
                    edges.append((a, b, c))
    P = Hypergraph.from_edges(3, range(3 * m), edges)
    return P, parts, corner


def test_exhaustive_passes_complete_partite():
    parts = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    P = complete_partite_3graph(parts)
    v = check_lower_regular(P, parts, rho=0.5, d=0.5)
    assert v.status == PASS


def test_exhaustive_finds_planted_corner():
    P, parts, corner = planted_corner_instance()
    v = check_lower_regular(P, parts, rho=0.5, d=0.6)
    assert v.status == FAIL
    w = [set(x) for x in v.witness]
    # the reported witness really is a violating exact-size sub-tuple
    assert all(len(x) == 3 for x in w)
    dens = tuple_density(P, w)
    assert dens < 0.6 - 0.5


def test_exhaustive_witness_is_the_planted_corner():
    P, parts, corner = planted_corner_instance()
    v = check_lower_regular(P, parts, rho=0.5, d=0.6)
    assert [set(x) for x in v.witness] == corner


@pytest.mark.parametrize("seed", range(12))
def test_exhaustive_agrees_with_direct_quantifier(seed):
    # the averaging reduction must match quantification over all large subsets
    rng = spawn(seed, "regular-agree", 0)
    parts = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    edges = []
    for a in parts[0]:
        for b in parts[1]:
            for c in parts[2]:
                if rng.random() < 0.55:
                    edges.append((a, b, c))
    if not edges:
        edges.append((0, 4, 8))
    P = Hypergraph.from_edges(3, range(12), edges)
    mine = check_lower_regular(P, parts, rho=0.5, d=0.5)
    regular, wit = brute_lower_regular(P.edge_set, parts, rho=0.5, d=0.5)
    assert (mine.status == PASS) == regular
    if not regular:
        dens = tuple_density(P, [set(x) for x in mine.witness])
        assert dens < 0.5 - 0.5 + 1e-9 or dens < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_generic_arity_two_agrees_with_direct_quantifier(seed):
    rng = spawn(seed, "regular-agree-2", 0)
    parts = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    edges = [(a, b) for a in parts[0] for b in parts[1] if rng.random() < 0.5]
    if not edges:
        edges.append((0, 5))
    P = Hypergraph.from_edges(2, range(10), edges)
    mine = check_lower_regular(P, parts, rho=0.4, d=0.45)
    regular, _ = brute_lower_regular(P.edge_set, parts, rho=0.4, d=0.45)
    assert (mine.status == PASS) == regular


def test_check_rho_out_of_range():
    P = complete_3graph(6)
    for rho in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            check_lower_regular(P, [{0, 1}, {2, 3}, {4, 5}], rho, 0.5)


def test_check_budget_refusal():
    parts = [list(range(40)), list(range(40, 80)), list(range(80, 120))]
    P = Hypergraph.from_edges(3, range(120), [(0, 40, 80)])
    with pytest.raises(ValueError, match="budget"):
        check_lower_regular(P, parts, rho=0.5, d=0.5)


def test_sampled_finds_planted_corner():
    P, parts, corner = planted_corner_instance()
    v = check_lower_regular(P, parts, rho=0.5, d=0.6, mode=SAMPLED, trials=50)
    assert v.status == FAIL
    assert tuple_density(P, [set(x) for x in v.witness]) < 0.1


def test_sampled_never_passes():
    parts = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    P = complete_partite_3graph(parts)
    v = check_lower_regular(P, parts, rho=0.5, d=0.5, mode=SAMPLED, trials=30)
    assert v.status == UNKNOWN


def test_sampled_vacuous_threshold_skips_the_hunt():
    # d - rho = 0: no sub-tuple can fall below it, so no oracle call is spent
    calls = []

    def member(e):
        calls.append(e)
        return True

    P = Hypergraph.from_oracle(3, range(18), member)
    parts = [list(range(6)), list(range(6, 12)), list(range(12, 18))]
    v = check_lower_regular(P, parts, rho=0.5, d=0.5, mode=SAMPLED, trials=400)
    assert v.status == UNKNOWN
    assert calls == []


def test_sampled_on_oracle_host_confirms_witness():
    corner = ({0, 1}, {6, 7}, {12, 13})

    def member(e):
        return not all(any(v in c for v in e) for c in corner)

    P = Hypergraph.from_oracle(3, range(18), member)
    parts = [list(range(6)), list(range(6, 12)), list(range(12, 18))]
    v = check_lower_regular(P, parts, rho=1 / 3, d=0.5, mode=SAMPLED,
                            trials=400, seed=3)
    assert v.status == FAIL


# -- shrinking search ----------------------------------------------------


def test_find_tuple_certifies_complete_host_immediately():
    parts = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    P = complete_partite_3graph(parts)
    tup = find_lower_regular_tuple(P, parts, rho=0.5, d=0.5)
    assert tup is not None
    assert tup.mode == EXHAUSTIVE
    assert tup.sizes() == (4, 4, 4)
    assert [sorted(p) for p in tup.parts] == parts


def test_find_tuple_density_precondition():
    P = Hypergraph.from_edges(3, range(12), [(0, 4, 8)])
    with pytest.raises(ValueError, match="density precondition"):
        find_lower_regular_tuple(P, [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]],
                                 rho=0.5, d=0.5)


def test_find_tuple_shrinks_past_planted_corner():
    P, parts, corner = planted_corner_instance(m=6, k=3)
    telem = []
    tup = find_lower_regular_tuple(P, parts, rho=0.5, d=0.6, telemetry=telem)
    assert tup is not None
    # the returned tuple really is certified at the stated dials
    again = check_lower_regular(P, [set(p) for p in tup.parts], 0.5, 0.6)
    assert again.status == PASS
    assert telem, "a shrink round must be recorded"
    for row in telem:
        assert row["selected_density"] >= row["current_density"] - 1e-9


def test_find_tuple_telemetry_density_never_decreases():
    P, parts, _ = planted_corner_instance(m=8, k=4)
    telem = []
    tup = find_lower_regular_tuple(P, parts, rho=0.5, d=0.55, telemetry=telem)
    assert tup is not None
    dens = [row["current_density"] for row in telem] + [row["selected_density"] for row in telem[-1:]]
    assert all(b >= a - 1e-9 for a, b in zip(dens, dens[1:]))


def test_find_tuple_none_when_parts_would_shrink_below_arity():
    # rho so small the witness parts drop to single vertices
    parts = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    edges = [(a, b, c) for a in parts[0] for b in parts[1] for c in parts[2]
             if (a, b, c) != (0, 4, 8)]
    P = Hypergraph.from_edges(3, range(12), edges)
    tup = find_lower_regular_tuple(P, parts, rho=0.2, d=0.9)
    assert tup is None


# -- perfect matching ----------------------------------------------------


def test_matching_complete_host():
    P = complete_3graph(9)
    M = hypergraph_perfect_matching(P, eps=0.2, seed=1)
    assert M is not None
    flat = [v for e in M.edges for v in e]
    assert sorted(flat) == list(range(9))
    assert all(e in P.edge_set for e in M.edges)


def test_matching_divisibility():
    P = complete_3graph(7)
    with pytest.raises(ValueError, match="divisibility"):
        hypergraph_perfect_matching(P)


def test_matching_empty_universe():
    P = Hypergraph.from_edges(3, [], [])
    M = hypergraph_perfect_matching(P)
    assert M == Matching(())


def test_matching_is_sound_against_backtracking():
    # whenever the heuristic finds a matching, one certainly exists
    for seed in range(20):
        P = random_3graph(6, 0.35, seed)
        M = hypergraph_perfect_matching(P, eps=0.1, seed=seed, partition_retries=10)
        exists = brute_perfect_matching(P.edge_set, P.universe) is not None
        if M is not None:
            assert exists
            flat = [v for e in M.edges for v in e]
            assert sorted(flat) == list(range(6))


@pytest.mark.parametrize("seed", range(8))
def test_matching_complete_on_dense_degree_floor_instances(seed):
    # complete minus a few triples: vertex degrees stay near the ceiling,
    # well above the two-thirds floor the acceptance instances use
    rng = spawn(seed, "dense-match", 0)
    triples = list(combinations(range(12), 3))
    removed = set()
    while len(removed) < 10:
        removed.add(triples[rng.randrange(len(triples))])
    P = Hypergraph.from_edges(3, range(12), [t for t in triples if t not in removed])
    deg = {v: 0 for v in range(12)}
    for e in P.edge_set:
        for v in e:
            deg[v] += 1
    assert min(deg.values()) >= 43
    M = hypergraph_perfect_matching(P, eps=0.2, seed=seed)
    assert M is not None
    assert brute_perfect_matching(P.edge_set, P.universe) is not None
    flat = sorted(v for e in M.edges for v in e)
    assert flat == list(range(12))


def test_matching_exchange_rescues_greedy_stall():
    # a host whose partite matchings are easy to start and hard to finish:
    # soundness plus completeness across seeds exercises the exchange path
    found = 0
    for seed in range(12):
        P = random_3graph(9, 0.55, seed)
        deg = {v: 0 for v in range(9)}
        for e in P.edge_set:
            for v in e:
                deg[v] += 1
        M = hypergraph_perfect_matching(P, eps=0.05, seed=seed)
        exists = brute_perfect_matching(P.edge_set, P.universe) is not None
        if M is not None:
            assert exists
            found += 1
    assert found >= 8


def test_matching_determinism():
    P = random_3graph(9, 0.6, 4)
    a = hypergraph_perfect_matching(P, eps=0.1, seed=11)
    b = hypergraph_perfect_matching(P, eps=0.1, seed=11)
    assert a == b


# -- increments and the driver ------------------------------------------


def test_increment_complete_host_covers_almost_everything():
    P = complete_3graph(30)
    params = TilingParams(s=3, eta=0.25, block_size=3, fresh_size=3,
                          density_trials=64, check_trials=100, seed=2)
    Q = tiling_increment(P, Tiling((), 0), params)
    assert Q.validate().ok
    # 10 blocks trimmed to 9 for divisibility, all consumed by fresh tuples
    assert Q.covered >= 30 - 3 * 3
    for tup in Q.tuples:
        assert tup.mode in (EXHAUSTIVE, SAMPLED)


def test_increment_stalls_on_edgeless_host():
    P = Hypergraph.from_edges(3, range(12), [])
    params = TilingParams(s=3, eta=0.25, block_size=2, seed=0)
    with pytest.raises(IncrementStalled) as exc:
        tiling_increment(P, Tiling((), 0), params)
    assert exc.value.stage == "reduced matching"
    assert exc.value.details["reduced_edges"] == 0


def test_increment_requires_enough_blocks():
    P = complete_3graph(6)
    params = TilingParams(s=3, eta=0.25, block_size=5, seed=0)
    with pytest.raises(IncrementStalled) as exc:
        tiling_increment(P, Tiling((), 0), params)
    assert exc.value.stage == "no blocks"


def test_increment_recycles_previous_tuples():
    P = complete_3graph(24)
    p0 = TilingParams(s=3, eta=0.25, block_size=4, fresh_size=4,
                      density_trials=64, check_trials=60, seed=7)
    Q1 = tiling_increment(P, Tiling((), 0), p0)
    assert Q1.covered == 24
    p1 = TilingParams(s=3, eta=0.25, block_size=2, fresh_size=2,
                      density_trials=64, check_trials=60, seed=7)
    Q2 = tiling_increment(P, Q1, p1, round_index=1)
    assert Q2.validate().ok
    assert Q2.covered >= Q1.covered - 6


def test_increment_never_regresses_coverage():
    P = complete_3graph(24)
    p0 = TilingParams(s=3, eta=0.25, block_size=4, fresh_size=4,
                      density_trials=64, check_trials=60, seed=3)
    Q1 = tiling_increment(P, Tiling((), 0), p0)
    p_bad = TilingParams(s=3, eta=0.25, block_size=4, fresh_size=4,
                         d0=2.5, density_trials=64, check_trials=60, seed=3)
    Q2 = tiling_increment(P, Q1, p_bad, round_index=1)
    assert Q2.covered >= Q1.covered


def test_increment_oracle_host_sampled_route():
    P = Hypergraph.from_oracle(3, range(18), lambda e: True)
    params = TilingParams(s=3, eta=0.25, block_size=3, fresh_size=3,
                          density_trials=64, check_trials=60, seed=5)
    Q = tiling_increment(P, Tiling((), 0), params)
    assert Q.validate().ok
    assert Q.covered == 18
    assert all(tup.mode in (EXHAUSTIVE, SAMPLED) for tup in Q.tuples)


def test_driver_reaches_eta_target_on_complete_host():
    P = complete_3graph(30)
    params = TilingParams(s=3, eta=0.3, block_size=3, fresh_size=3,
                          density_trials=64, check_trials=60, seed=9)
    Q = almost_perfect_tiling(P, params)
    assert Q.validate().ok
    assert 30 - Q.covered <= 0.3 * 30
    assert Q.telemetry


def test_driver_returns_empty_tiling_with_stall_diagnostics():
    P = Hypergraph.from_edges(3, range(12), [])
    params = TilingParams(s=3, eta=0.25, block_size=2, seed=0)
    Q = almost_perfect_tiling(P, params)
    assert Q.tuples == ()
    assert Q.covered == 0
    stalls = [row for row in Q.telemetry if "stalled" in row]
    assert stalls and stalls[0]["stalled"] == "reduced matching"
    assert stalls[0]["round"] == 0


def test_driver_determinism():
    P = complete_3graph(24)
    params = TilingParams(s=3, eta=0.25, block_size=4, fresh_size=4,
                          density_trials=64, check_trials=60, seed=13)
    a = almost_perfect_tiling(P, params)
    b = almost_perfect_tiling(P, params)
    assert a == b  # telemetry is excluded from equality, tuples are not
    assert a.tuples == b.tuples


# -- parameter schedules -------------------------------------------------


def test_schedule_defaults():
    p = TilingParams(s=4, eta=0.25)
    assert p.mu_value() == pytest.approx(0.5)
    assert p.rho_value() == pytest.approx(0.125)
    assert p.rounds() == 16
    assert p.d_at(0) == pytest.approx(0.5 / 16)
    assert p.d_at(3) == pytest.approx(0.5 / 16 / 8)
    assert p.eps_at(0) == pytest.approx(p.d_at(0) / 2)
    assert p.gamma_at(0) == pytest.approx(0.05)


def test_schedule_mu_cap():
    p = TilingParams(s=3, eta=0.01)
    assert p.mu_value() == pytest.approx(0.16)
    assert p.rounds() == 10_000


def test_regular_tuple_shapes():
    t = RegularTuple((frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})),
                     0.5, 0.25, UNCERTIFIED)
    assert t.sizes() == (2, 2, 2)
    assert t.total() == 6


def test_tiling_validate_catches_overlap():
    t1 = RegularTuple((frozenset({1}), frozenset({2}), frozenset({3})), 0.5, 0.2)
    t2 = RegularTuple((frozenset({3}), frozenset({4}), frozenset({5})), 0.5, 0.2)
    bad = Tiling((t1, t2), 6)
    v = bad.validate()
    assert v.status == FAIL and v.reason == "tuples overlap"


def test_tiling_validate_catches_count_mismatch():
    t1 = RegularTuple((frozenset({1}), frozenset({2}), frozenset({3})), 0.5, 0.2)
    bad = Tiling((t1,), 5)
    assert bad.validate().status == FAIL
