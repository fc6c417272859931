"""The incremental fold-in of simple_blowup_cover.

The cover folds its leftover vertices into the families through join ranks
on the packed view, per-family state that only the mutated families
rebuild, and one split-plan memo per call. It must return what the copy in
tests/oracles.py returns, which rebuilt everything on every sweep: the same
blow-ups, leftover, kind and diagnostics, on hosts that end stuck, hosts
with no families, and hosts whose fold-in runs many pickups.
"""

import pytest

from cyclecover.core import Graph
from cyclecover.cover import PRESETS, SIMPLE, almost_blowup_cover, simple_blowup_cover
from cyclecover.generators import DIRAC_EXTREMAL, GNP_REPAIRED, GeneratorSpec, generate

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
])
def test_gnp_hosts(n, p, delta, seed):
    same_cover(gnp(n, p, delta, seed))
