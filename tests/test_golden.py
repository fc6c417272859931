"""Golden certificate digests.

Pins the SHA-256 of to_json() for a few pipeline runs, so any change that
moves a random stream, a tie-break or a search decision shows up as a
failing digest rather than as a silently different certificate. A change
that alters these bytes on purpose updates the table and says so. One
digest over 132 solves pins a wider set of hosts in one number. The
graph text of a few generated hosts is pinned the same way, which holds
both the generator's random stream and the writer's bytes.
"""

import hashlib

import pytest

from cyclecover.core import CycleBlowupCertificate, graph_to_text
from cyclecover.cover import PRESETS, spanning_cycle_blowup
from cyclecover.generators import (CLIQUE_UNION_PLUS, DIRAC_EXTREMAL, GNP_REPAIRED,
                                   GeneratorSpec, generate)

GOLDEN = [
    # (n, p, delta_target, graph seed, sha256 of the certificate JSON, kind)
    (200, 0.97, 150, 0,
     "dbcd58d4e5accdb51a58b97c70f8711709928953a017f364f11d7230ac2b26dc", GNP_REPAIRED),
    (200, 0.97, 150, 1,
     "00f3b2d3fccd1c8dd0bd81ce07d0965a60fc5ddc3cb3eaefe5e0292d0eaab5d8", GNP_REPAIRED),
    (200, 0.97, 150, 2,
     "e0cf5cb9e14861714a9b6c67592b893e05ee0dfe483d9c1f3ecdf26077a8a519", GNP_REPAIRED),
    # the cover endgame strands one vertex on each of the three (300, 0.8)
    # hosts, which joins a cycle cluster after winding
    (300, 0.8, 210, 0,
     "f525d0cfa1787d17aaa9a378777a904fc69231d8f81840c47fe8ddd80f1a90d1", GNP_REPAIRED),
    (300, 0.8, 210, 1,
     "4b65e35d5a0b04cc1475515474878387b148e7a772f6280357752622f8b5d4ef", GNP_REPAIRED),
    (300, 0.8, 210, 9,
     "b83e2160404ec9e42961821ed24b3ea5d4a8f44ff92722cbe3bea680efce9e0e", GNP_REPAIRED),
    # the partition density guard rejects this host as labelled (its blocks
    # fall into different cliques); the fold-in covers all but 6 vertices,
    # which join cycle clusters after winding
    (300, None, 225, 0,
     "d57c7e71e9457c2e3d80f3973a26a3e30f3bd2391ddd57eaafeac8b5bffa42fc", DIRAC_EXTREMAL),
    # the sparse shape at n = 60: the almost cover takes no blow-up, and the
    # fold-in strands 4 vertices, which join cycle clusters after winding
    (60, 0.8, 42, 0,
     "0c1fa95487657409733c3bafce197eb7405cd5802c079a2b53d5e269597687bf", GNP_REPAIRED),
    # first-pass solves of the sparse-600 benchmark shape, where the almost
    # cover takes 6 or 7 blow-ups and folding the leftover in is the largest
    # stage
    (600, 0.8, 420, 0,
     "dcef04acd01639b296a717c5bba38735facf98e1dac102f0c41110536ae3e90e", GNP_REPAIRED),
    (600, 0.8, 420, 1,
     "687fa0a2cc1d7e4a225d03c8501a1574edb0c5215522ed153109245a6465a545", GNP_REPAIRED),
    # certified on the first pass, with every pickup the fold-in finds kept
    (600, 0.8, 420, 90002,
     "c9654ed0ad06bc5058fe701a61298a98b9fac8b32b6fba14dd2d5958f1b3b060", GNP_REPAIRED),
    # the audit-1000 host, whose almost cover takes 28 blow-ups out of one
    # frame; captured with the scalar searches before they moved onto the
    # packed view
    (1000, 0.97, 750, 0,
     "4224caaf8f7a3b0a1a4cc9f8892e0aca2380cb50e4cbd2b55cac51796ed18d1a", GNP_REPAIRED),
    # the one desk size with connector sides of two (m_conn = 2), where the
    # connect DFS runs past the enumeration limit under its node budget;
    # pinned before connect_clusters counted its sides from the side rows
    (3000, 0.97, 2250, 0,
     "d3a8d24265ceb925aa3a73277d0e7a7b3a5483c58893834c3046969c7a00afa2", GNP_REPAIRED),
]


@pytest.mark.parametrize("n,p,delta,seed,digest,kind", GOLDEN)
def test_certificate_digest(n, p, delta, seed, digest, kind):
    G = generate(GeneratorSpec(kind=kind, n=n, p=p,
                               delta_target=delta, seed=seed))
    cert = spanning_cycle_blowup(G, PRESETS["desk"])
    assert isinstance(cert, CycleBlowupCertificate), cert
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest


# (kind, n, p, delta_target, seeds) in the order the digest reads them;
# CLIQUE_UNION_PLUS takes its default of 3 pieces
HOST_SET = [
    (GNP_REPAIRED, 300, 0.97, 225, range(20)),
    (GNP_REPAIRED, 600, 0.8, 420, range(20)),
    (GNP_REPAIRED, 1000, 0.97, 750, range(10)),
    (GNP_REPAIRED, 300, 0.8, 210, range(40)),
    (GNP_REPAIRED, 60, 0.8, 42, range(20)),
    (DIRAC_EXTREMAL, 300, None, 225, range(10)),
    (CLIQUE_UNION_PLUS, 300, None, 225, range(10)),
    (GNP_REPAIRED, 3000, 0.97, 2250, range(2)),
]


def test_host_set_digest():
    # one SHA-256 over to_json() of every solve, each of which certifies
    h = hashlib.sha256()
    solves = 0
    for kind, n, p, delta, seeds in HOST_SET:
        for seed in seeds:
            G = generate(GeneratorSpec(kind=kind, n=n, p=p, delta_target=delta, seed=seed))
            cert = spanning_cycle_blowup(G, PRESETS["desk"])
            assert isinstance(cert, CycleBlowupCertificate), (kind, n, seed, cert)
            h.update(cert.to_json().encode())
            solves += 1
    assert solves == 132
    assert h.hexdigest() == "c3aecd47c8d9d558e956448bc72c62eebb6721551f8d307af60666a9c0b9c9c4"


GRAPH_TEXT = [
    # (n, p, delta_target, graph seed, sha256 of graph_to_text)
    (300, 0.97, 225, 0,
     "9c4dcdc8947e870997e485edd02ac9978878ed56da05b32aa64852147ce346e6"),
    (300, 0.5, None, 3,
     "75d57183e3a225a99bfb476b80f6fa5ac7bf00f0dc2bca5fcbe4c16de789c4eb"),
    (600, 0.8, 420, 0,
     "bf45e48a4a84b078e1a87faf473babe8784e61b4663f92c9daf0e84c895c85f2"),
    (1000, 0.97, 750, 0,
     "506de74e83fc7ba73456a8eaa6d0542b0dbf2e6378b80dd0704c8efc856c1b8a"),
]


@pytest.mark.parametrize("n,p,delta,seed,digest", GRAPH_TEXT)
def test_graph_text_digest(n, p, delta, seed, digest):
    G = generate(GeneratorSpec(kind=GNP_REPAIRED, n=n, p=p,
                               delta_target=delta, seed=seed))
    assert hashlib.sha256(graph_to_text(G).encode()).hexdigest() == digest
