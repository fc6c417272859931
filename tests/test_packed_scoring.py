"""The packed numpy view of a graph, and the searches that score on it.

find_blowup and connect_clusters score whole candidate pools at once on
Graph.packed. Each must return what the scalar versions kept in
tests/oracles.py return, with the same telemetry, on every path: frames,
avoid masks, jittered restarts in batches, jitter ties, isolated pattern
vertices, one prepared search reused over a sequence of extractions,
t = 1, an empty or repeating W, the exhaustive enumeration, the
DFS and the biclique fallback, and hosts whose order sits on either side of
a 64-bit word boundary.
"""

import math
import random

import numpy as np
import pytest

from cyclecover.bitset import mask_from
from cyclecover.blowup_search import BlowupSearch, connect_clusters, find_blowup
from cyclecover.core import BALANCE_WITHIN, Graph, SetFamily
from cyclecover.seeding import spawn

from oracles import scalar_connect_clusters, scalar_find_blowup

ORDERS = (63, 64, 65, 130)


def random_graph(n, p, seed, label="packed-host"):
    rng = spawn(seed, label)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


def same_blowup(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.reduced == b.reduced
        assert a.family == b.family


# ---------------------------------------------------------------------------
# the view


@pytest.mark.parametrize("n", (0, 1, 2) + ORDERS)
def test_packed_view_matches_adjacency(n):
    G = random_graph(n, 0.5, n)
    assert G._packed is None  # Graph(...) does not build the view
    rows, deg = G.packed()
    assert G.packed()[0] is rows  # built once, then kept
    assert rows.dtype == "uint64" and rows.shape == (n, (n + 63) // 64)
    assert deg.dtype == "int64" and deg.tolist() == [G.degree(v) for v in range(n)]
    assert not rows.flags.writeable
    for v in range(n):
        assert int.from_bytes(rows[v].tobytes(), "little") == G.adj[v]


def test_graph_operations_do_not_build_the_view():
    G = random_graph(65, 0.5, 1)
    G.packed()
    for H in (G.relabel(list(reversed(range(65)))),
              Graph.complete(70), Graph.from_edges(3, [(0, 1)])):
        assert H._packed is None


# ---------------------------------------------------------------------------
# find_blowup


@pytest.mark.parametrize("n", ORDERS)
def test_find_blowup_matches_scalar(n):
    found = 0
    for seed in range(10):
        rng = spawn(seed, "packed-case", n)
        G = random_graph(n, (0.5, 0.7, 0.9)[seed % 3], 1000 * seed + n)
        s = 3 + seed % 3
        F = random_graph(s, 0.7, seed, "packed-pattern")
        t = (1, 2, 3, 6)[seed % 4]
        block = n // s
        frame = SetFamily.of([range(i * block, (i + 1) * block) for i in range(s)],
                             BALANCE_WITHIN, m=block, eta=1.0)
        avoid = mask_from(v for v in range(n) if rng.random() < 0.3)
        for fr, av in ((None, 0), (frame, 0), (None, avoid), (frame, avoid),
                       (None, avoid | ~G.adj[seed])):  # a negative mask
            want = scalar_find_blowup(G, F, t, fr, avoid=av, restart_budget=8, seed=seed)
            same_blowup(find_blowup(G, F, t, fr, avoid=av, restart_budget=8, seed=seed), want)
            found += want is not None
    assert found >= 10


def thirds(n):
    block = n // 3
    return SetFamily.of([range(i * block, (i + 1) * block) for i in range(3)],
                        BALANCE_WITHIN, m=block, eta=1.0)


# win is the first restart whose pass survives, None when all 51 die. The
# jittered restarts run in batches (restarts 1-24, 25-48 and 49-50 at the
# default budget), so the probe at win - 1 and win pins the batch's choice
# of its lowest-numbered survivor. The avoid masks are
# random, or the whole of the first frame part.
@pytest.mark.parametrize("n,seed,framed,avoid,win", [
    pytest.param(64, 12, False, None, 3, id="64-12"),
    pytest.param(64, 16, False, None, 2, id="64-16"),
    pytest.param(130, 2, False, None, 1, id="130-2"),
    pytest.param(130, 9, False, None, 1, id="130-9"),
    pytest.param(64, 14, False, None, 24, id="64-14-batch-one"),
    pytest.param(64, 10, False, None, 32, id="64-10-batch-two"),
    pytest.param(130, 0, True, None, 14, id="framed-130-0-batch-one"),
    pytest.param(130, 3, True, None, 32, id="framed-130-3-batch-two"),
    pytest.param(64, 7, False, "random", 22, id="avoid-64-7-batch-one"),
    pytest.param(130, 33, False, "random", 46, id="avoid-130-33-batch-two"),
    pytest.param(64, 66, False, None, 49, id="64-66-batch-three"),
    pytest.param(64, 18, False, None, None, id="64-18-every-restart-dies"),
    pytest.param(64, 0, True, "random", None, id="framed-avoid-64-0-every-restart-dies"),
    pytest.param(64, 0, True, "part", None, id="framed-64-0-empty-part"),
])
def test_find_blowup_matches_scalar_after_restarts(n, seed, framed, avoid, win):
    G = random_graph(n, 0.5, seed)
    F = Graph.complete(3)
    frame = thirds(n) if framed else None
    if avoid == "random":
        rng = spawn(seed, "avoid-case", n)
        avoid = mask_from(v for v in range(n) if rng.random() < 0.2)
    elif avoid == "part":
        avoid = mask_from(range(n // 3))
    kw = {"seed": seed, "avoid": avoid or 0}
    if win is None:
        assert find_blowup(G, F, 4, frame, restart_budget=50, **kw) is None
        assert scalar_find_blowup(G, F, 4, frame, restart_budget=50, **kw) is None
        return
    assert find_blowup(G, F, 4, frame, restart_budget=win - 1, **kw) is None
    got = find_blowup(G, F, 4, frame, restart_budget=win, **kw)
    assert got is not None
    same_blowup(got, scalar_find_blowup(G, F, 4, frame, restart_budget=win, **kw))
    same_blowup(find_blowup(G, F, 4, frame, restart_budget=50, **kw), got)


def test_find_blowup_breaks_jitter_ties_by_degree_then_id(monkeypatch):
    # jitter drawn in quarters leaves most value ties tied, so the degree
    # and then the id decide, on the plain pass and on the batched restarts
    import cyclecover.blowup_search as bs
    import cyclecover.seeding as seeding

    class Coarse(random.Random):
        def random(self):
            return math.floor(super().random() * 4) / 4

    monkeypatch.setattr(seeding, "spawn", lambda seed, *parts: Coarse(seeding.mix(seed, *parts)))
    monkeypatch.setattr(bs, "random_doubles",
                        lambda rng, k: np.floor(seeding.random_doubles(rng, k) * 4) / 4)
    F = Graph.complete(3)
    batched = 0
    for n, seed in ((64, 10), (64, 14), (64, 18), (130, 0), (130, 3)):
        G = random_graph(n, 0.5, seed)
        for fr in (None, thirds(n)):
            got = find_blowup(G, F, 4, fr, seed=seed)
            same_blowup(got, scalar_find_blowup(G, F, 4, fr, seed=seed))
            batched += got is not None and find_blowup(G, F, 4, fr, restart_budget=0,
                                                        seed=seed) is None
    assert batched >= 2


# One prepared search serves a sequence of extractions, each avoiding the
# blow-ups before it, as almost_blowup_cover runs them. passes[e] is the
# pass that answers extraction e: 0 the plain pass, 1 or 2 the first or
# second batch of jittered restarts, None when all 51 passes die.
@pytest.mark.parametrize("n,p,t,seed,passes", [
    pytest.param(130, 0.6, 4, 0, [0, 0, 1, 1, 2, 1, None], id="130-second-batch"),
    pytest.param(63, 0.6, 4, 1, [2, None], id="63-second-batch"),
    pytest.param(63, 0.6, 3, 0, [0, 1, 1, 1, None], id="63-first-batch"),
    pytest.param(65, 0.7, 3, 4, [0, 0, 1, 1, None], id="65-first-batch"),
])
def test_prepared_search_serves_a_sequence_of_extractions(n, p, t, seed, passes):
    G = random_graph(n, p, seed, "reuse-host")
    F = Graph.complete(3)
    frame = thirds(n)
    search = BlowupSearch(G, F, t, frame)
    used, calls, got = 0, [], []
    for e, answered in enumerate(passes):
        kw = {"avoid": used, "restart_budget": 50, "seed": e}
        blow = search.find(**kw)
        same_blowup(blow, scalar_find_blowup(G, F, t, frame, **kw))
        reached = [search.find(avoid=used, restart_budget=b, seed=e) is not None
                   for b in (0, 24, 48)]
        assert (reached.index(True) if blow is not None else None) == answered
        calls.append(kw)
        got.append(blow)
        if blow is not None:
            used |= blow.family.union_mask()
    # the same calls again, latest first: nothing a call leaves behind
    # changes another one's result
    for kw, blow in reversed(list(zip(calls, got))):
        same_blowup(search.find(**kw), blow)


@pytest.mark.parametrize("n", ORDERS)
def test_find_blowup_matches_scalar_with_isolated_pattern_vertex(n):
    F = Graph.from_edges(4, [(0, 1), (1, 2)])  # vertex 3 scores n for every candidate
    for seed in range(3):
        G = random_graph(n, 0.6, seed + 50)
        for t in (1, 3):
            for budget in (0, 5):
                same_blowup(find_blowup(G, F, t, restart_budget=budget, seed=seed),
                            scalar_find_blowup(G, F, t, restart_budget=budget, seed=seed))


# ---------------------------------------------------------------------------
# connect_clusters


def connect_both(G, U, V, W, m_prime, **kw):
    got_tel, want_tel = {}, {}
    got = connect_clusters(G, U, V, W, m_prime, telemetry=got_tel, **kw)
    want = scalar_connect_clusters(G, U, V, W, m_prime, telemetry=want_tel, **kw)
    assert got == want
    assert got_tel == want_tel
    return got


@pytest.mark.parametrize("n", ORDERS)
def test_connect_clusters_matches_scalar(n):
    found = 0
    for seed in range(12):
        rng = spawn(seed, "packed-connect", n)
        G = random_graph(n, (0.2, 0.5, 0.8)[seed // 3 % 3], 7000 + 100 * seed + n)
        m = (8, 3, 5)[seed % 3]  # eps = 1 puts the side threshold on 1 when m = 8
        picks = list(range(n))
        rng.shuffle(picks)
        U, V = picks[:m], picks[m:2 * m]
        rest = picks[2 * m:]
        for W in (rest, rest[:len(rest) // 3], [], rest[:9] * 2):  # W may repeat ids
            for m_prime in sorted({1, 2, min(3, m)}):
                for eps in (0.25, 1.0):
                    found += connect_both(G, U, V, W, m_prime, eps=eps) is not None
    assert found >= 20


@pytest.mark.parametrize("p,seed,m_prime,budget,fallback,answered", [
    (0.75, 0, 4, 10 ** 6, False, True),  # the DFS answers
    (0.75, 1, 4, 3, True, False),        # the DFS gives up, the fallback finds nothing
    (0.4, 4, 3, 5, True, True),          # the DFS gives up, the fallback answers
])
def test_connect_clusters_matches_scalar_on_dfs_and_fallback(monkeypatch, p, seed, m_prime,
                                                             budget, fallback, answered):
    # C(110, m_prime) is past the enumeration limit, so the DFS runs first
    import cyclecover.blowup_search as bs

    calls = []
    real = bs.find_biclique
    monkeypatch.setattr(bs, "find_biclique", lambda *a: calls.append(a) or real(*a))
    G = random_graph(130, p, 300 + seed)
    got = connect_both(G, range(10), range(10, 20), range(20, 130), m_prime, node_budget=budget)
    assert (got is not None) == answered
    assert bool(calls) == fallback
