"""The packed numpy view of a graph, and the searches that score on it.

BlowupSearch and connect_clusters score whole candidate pools at once on
Graph.packed. Each must return what the scalar versions kept in
tests/oracles.py return, with the same telemetry, on every path: frames,
avoid masks, passes that die, value ties, isolated pattern vertices, one
prepared search reused over a sequence of extractions,
t = 1, an empty or repeating W given as any iterable, the DFS with and
without its node budget, and hosts whose order sits on either side of a
64-bit word boundary.
"""

import numpy as np
import pytest

import cyclecover.blowup_search as bs
import oracles
from cyclecover.bitset import mask_from, mask_indices
from cyclecover.blowup_search import BlowupSearch, connect_clusters
from cyclecover.core import Graph
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
# BlowupSearch


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
        frame = [mask_from(range(i * block, (i + 1) * block)) for i in range(s)]
        avoid = mask_from(v for v in range(n) if rng.random() < 0.3)
        for fr, av in ((None, 0), (frame, 0), (None, avoid), (frame, avoid),
                       (None, avoid | ~G.adj[seed])):  # a negative mask
            want = scalar_find_blowup(G, F, t, fr, avoid=av)
            got = BlowupSearch(G, F, t, fr).find(avoid=av)
            same_blowup(got, want)
            found += want is not None
    assert found >= 10


def thirds(n):
    block = n // 3
    return [mask_from(range(i * block, (i + 1) * block)) for i in range(3)]


# hosts where the greedy pass for three clusters of four dies, while the
# pass for clusters of two survives unless the avoid mask empties a part;
# each is compared with the scalar oracle at t = 2, 3 and 4. The avoid
# masks are random, or the whole of the first frame part. The name and the
# case ids date from when find fell back on batches of jittered restarts
# after a dead pass: a suffix names the batch whose restart used to answer,
# or says that every restart died.
@pytest.mark.parametrize("n,seed,framed,avoid", [
    pytest.param(64, 12, False, None, id="64-12"),
    pytest.param(64, 16, False, None, id="64-16"),
    pytest.param(130, 2, False, None, id="130-2"),
    pytest.param(130, 9, False, None, id="130-9"),
    pytest.param(64, 14, False, None, id="64-14-batch-one"),
    pytest.param(64, 10, False, None, id="64-10-batch-two"),
    pytest.param(130, 0, True, None, id="framed-130-0-batch-one"),
    pytest.param(130, 3, True, None, id="framed-130-3-batch-two"),
    pytest.param(64, 7, False, "random", id="avoid-64-7-batch-one"),
    pytest.param(130, 33, False, "random", id="avoid-130-33-batch-two"),
    pytest.param(64, 66, False, None, id="64-66-batch-three"),
    pytest.param(64, 18, False, None, id="64-18-every-restart-dies"),
    pytest.param(64, 0, True, "random", id="framed-avoid-64-0-every-restart-dies"),
    pytest.param(64, 0, True, "part", id="framed-64-0-empty-part"),
])
def test_find_blowup_matches_scalar_after_restarts(n, seed, framed, avoid):
    G = random_graph(n, 0.5, seed)
    F = Graph.complete(3)
    frame = thirds(n) if framed else None
    empty_part = avoid == "part"
    if avoid == "random":
        rng = spawn(seed, "avoid-case", n)
        avoid = mask_from(v for v in range(n) if rng.random() < 0.2)
    elif empty_part:
        avoid = mask_from(range(n // 3))
    found = []
    for t in (2, 3, 4):
        got = BlowupSearch(G, F, t, frame).find(avoid=avoid or 0)
        same_blowup(got, scalar_find_blowup(G, F, t, frame, avoid=avoid or 0))
        found.append(got is not None)
    assert found[0] != empty_part and not found[2]


def test_find_blowup_breaks_value_ties_by_degree_then_id():
    # K12 less the edges 0-1 and 5-6, framed in thirds: every candidate of
    # a part scores the same, so part 0 passes over 0 and 1 and part 1 over
    # 5 and 6 for their lower degree, and part 2 takes the lowest ids
    F = Graph.complete(3)
    G = Graph.from_edges(12, [(u, v) for u in range(12) for v in range(u + 1, 12)
                              if (u, v) not in ((0, 1), (5, 6))])
    got = BlowupSearch(G, F, 2, thirds(12)).find()
    assert [sorted(c) for c in got.family.clusters] == [[2, 3], [4, 7], [8, 9]]
    same_blowup(got, scalar_find_blowup(G, F, 2, thirds(12)))
    for n, seed in ((64, 10), (64, 14), (64, 18), (130, 0), (130, 3)):
        G = random_graph(n, 0.5, seed)
        for fr in (None, thirds(n)):
            same_blowup(BlowupSearch(G, F, 3, fr).find(), scalar_find_blowup(G, F, 3, fr))


# One prepared search serves a sequence of extractions, each avoiding the
# blow-ups before it, as almost_blowup_cover runs them, until the pass dies
# after `count` of them.
@pytest.mark.parametrize("n,p,t,seed,count", [
    pytest.param(130, 0.6, 3, 0, 8, id="130-t3"),
    pytest.param(63, 0.6, 2, 1, 7, id="63-t2"),
    pytest.param(63, 0.6, 2, 0, 6, id="63-t2-seed0"),
    pytest.param(65, 0.7, 3, 4, 2, id="65-t3"),
])
def test_prepared_search_serves_a_sequence_of_extractions(n, p, t, seed, count):
    G = random_graph(n, p, seed, "reuse-host")
    F = Graph.complete(3)
    frame = thirds(n)
    search = BlowupSearch(G, F, t, frame)
    used, avoids, got = 0, [], []
    while True:
        blow = search.find(avoid=used)
        same_blowup(blow, scalar_find_blowup(G, F, t, frame, avoid=used))
        avoids.append(used)
        got.append(blow)
        if blow is None:
            break
        used |= blow.family.union_mask()
    assert len(got) == count + 1
    # the same calls again, latest first: nothing a call leaves behind
    # changes another one's result
    for avoid, blow in reversed(list(zip(avoids, got))):
        same_blowup(search.find(avoid=avoid), blow)


@pytest.mark.parametrize("n", ORDERS)
def test_find_blowup_matches_scalar_with_isolated_pattern_vertex(n):
    F = Graph.from_edges(4, [(0, 1), (1, 2)])  # vertex 3 scores n for every candidate
    for seed in range(3):
        G = random_graph(n, 0.6, seed + 50)
        for t in (1, 3):
            same_blowup(BlowupSearch(G, F, t).find(), scalar_find_blowup(G, F, t))


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
        # so may the sides: the search counts each side vertex once
        found += connect_both(G, U[:1] * m, V[:1] + V[:-1], rest, 1) is not None
    assert found >= 20


@pytest.mark.parametrize("n", ORDERS)
def test_connect_clusters_reads_every_input_form(n):
    # W as a list, a set, a generator or the int64 array of mask_indices,
    # with and without repeated ids: every form gives the oracle's answer
    # for the same ids as a list, telemetry included, so w_u and w_v count
    # W's repeats (a set has none to count)
    G = random_graph(n, 0.6, 8100 + n)
    U, V = [0, 1, 2], [3, 4, 5]
    ids = mask_indices(mask_from(range(6, n, 2)), n)
    found = 0
    for W in (ids, np.concatenate((ids, ids[::3]))):
        as_list = W.tolist()
        for m_prime in (1, 2, 3):
            forms = (as_list, set(as_list), (v for v in as_list), W)
            want_tel = {}
            want = scalar_connect_clusters(G, U, V, as_list, m_prime, telemetry=want_tel)
            set_tel = {}
            scalar_connect_clusters(G, U, V, set(as_list), m_prime, telemetry=set_tel)
            for form, tel in zip(forms, (want_tel, set_tel, want_tel, want_tel)):
                got_tel = {}
                assert connect_clusters(G, U, V, form, m_prime, telemetry=got_tel) == want
                assert got_tel == tel
            found += want is not None
    assert found >= 2
    assert want_tel["w_u"] > set_tel["w_u"]  # the repeats were counted


@pytest.mark.parametrize("p,seed,m_prime,budget,answered", [
    pytest.param(0.75, 0, 4, 10 ** 6, True, id="dfs-answers"),
    pytest.param(0.75, 1, 4, 3, False, id="dfs-gives-up-at-3"),
    pytest.param(0.4, 4, 3, 5, False, id="dfs-gives-up-at-5"),
])
def test_connect_clusters_matches_scalar_on_dfs_budget(p, seed, m_prime, budget, answered):
    # C(110, m_prime) is past the enumeration limit, so the node budget
    # applies; a DFS that gives up returns None
    G = random_graph(130, p, 300 + seed)
    args = (G, range(10), range(10, 20), range(20, 130), m_prime)
    assert (connect_both(*args, node_budget=budget) is not None) == answered
    # every instance has a triple, which an unbounded DFS finds
    assert connect_both(*args, node_budget=None) is not None


@pytest.mark.parametrize("n", ORDERS)
def test_connect_clusters_matches_scalar_under_a_binding_budget(monkeypatch, n):
    # with both enumeration limits at 0 every budget applies. The search
    # ends a level once too few candidates remain to complete it, which the
    # oracle does not, so where the oracle runs out of nodes the search may
    # still reach the first triple; it returns nothing else
    monkeypatch.setattr(bs, "_TINY_ENUM", 0)
    monkeypatch.setattr(oracles, "_TINY_ENUM", 0)
    answered = gave_up = 0
    for seed in range(12):
        rng = spawn(seed, "packed-budget", n)
        G = random_graph(n, (0.3, 0.5, 0.7)[seed % 3], 9100 + 100 * seed + n)
        picks = list(range(n))
        rng.shuffle(picks)
        m = 4 + seed % 3
        U, V, W = picks[:m], picks[m:2 * m], picks[2 * m:2 * m + 6 + seed % 4]
        m_prime = 2 + seed % 2
        full = scalar_connect_clusters(G, U, V, W, m_prime, node_budget=None)
        for budget in (1, 3, 10, 50):
            want = scalar_connect_clusters(G, U, V, W, m_prime, node_budget=budget)
            got = connect_clusters(G, U, V, W, m_prime, node_budget=budget)
            if want is not None:
                assert got == want
                answered += 1
            else:
                assert got in (None, full)
                gave_up += full is not None
    assert answered >= 6 and gave_up >= 6  # the instances are not vacuous
