"""Tests for partite densities, lower-regularity checks and the matcher."""

import math
import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

from cyclecover import lemmas
from cyclecover.core import FAIL, PASS
from cyclecover.lemmas import (
    Hypergraph,
    Matching,
    check_lower_regular,
    find_lower_regular_tuple,
    hypergraph_perfect_matching,
    tuple_density,
)
from cyclecover.seeding import spawn

from oracles import brute_lower_regular, brute_perfect_matching


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


@pytest.mark.parametrize("rho,d", [(0.3, 0.9), (0.5, 0.9), (0.6, 0.95)])
def test_arity_four_agrees_with_direct_quantifier(rho, d):
    # parts of 3: sub-parts of one vertex at rho 0.3, of two at 0.5 and 0.6
    parts = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    ks = [math.ceil(rho * 3 - 1e-9)] * 4
    verdicts = set()
    for seed in range(8):
        rng = spawn(seed, "regular-agree-4", 0)
        p = (0.5, 0.8, 0.95, 1.0)[seed % 4]
        edges = [e for e in product(*parts) if rng.random() < p]
        P = Hypergraph.from_edges(4, range(12), edges or [(0, 3, 6, 9)])
        mine = check_lower_regular(P, parts, rho=rho, d=d)
        regular, _ = brute_lower_regular(P.edge_set, parts, rho=rho, d=d)
        assert (mine.status == PASS) == regular
        if not regular:  # an exact-size sub-tuple below the threshold
            assert [len(w) for w in mine.witness] == ks
            assert tuple_density(P, [set(w) for w in mine.witness]) < d - rho
        verdicts.add(regular)
    assert verdicts == {True, False}


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


# parts of 40000 and 24 vertices at rho 1/2: 2.7e6 subsets of the second
# part, few enough states, but a kernel array of 1.08e11 float32 entries;
# the check runs under a 2 GiB address-space limit
HUGE_KERNEL_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cyclecover.lemmas import Hypergraph, check_lower_regular
parts = [range(40000), range(40000, 40024)]
P = Hypergraph.from_edges(2, range(40024), [(0, 40000)])
try:
    check_lower_regular(P, parts, rho=0.5, d=0.5)
except ValueError as exc:
    print(exc)
"""


def test_check_refuses_a_kernel_array_past_its_budget():
    env = dict(os.environ, PYTHONPATH=str(Path(lemmas.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", HUGE_KERNEL_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "exhaustive budget exceeded\n"), done.stderr


# -- shrinking search ----------------------------------------------------


def test_find_tuple_certifies_complete_host_immediately():
    parts = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    P = complete_partite_3graph(parts)
    tup = find_lower_regular_tuple(P, parts, rho=0.5, d=0.5)
    assert tup is not None
    assert tuple(len(p) for p in tup.parts) == (4, 4, 4)
    assert [sorted(p) for p in tup.parts] == parts


def test_find_tuple_refuses_parts_over_the_state_budget():
    # C(40, 20)^2 reduced states: the finder raises rather than returning
    # a tuple it could not certify
    parts = [list(range(40)), list(range(40, 80)), list(range(80, 120))]
    P = complete_partite_3graph(parts)
    with pytest.raises(ValueError, match="budget"):
        find_lower_regular_tuple(P, parts, rho=0.5, d=0.5)


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
