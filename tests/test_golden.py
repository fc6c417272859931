"""Golden certificate digests.

Pins the SHA-256 of to_json() for a few pipeline runs, so any change that
moves a random stream, a tie-break or a search decision shows up as a
failing digest rather than as a silently different certificate. A change
that alters these bytes on purpose updates the table and says so. The
graph text of a few generated hosts is pinned the same way, which holds
both the generator's random stream and the writer's bytes.
"""

import hashlib

import pytest

from cyclecover.core import CycleBlowupCertificate, graph_to_text
from cyclecover.cover import PRESETS, spanning_cycle_blowup
from cyclecover.generators import DIRAC_EXTREMAL, GNP_REPAIRED, GeneratorSpec, generate

GOLDEN = [
    # (n, p, delta_target, graph seed, sha256 of the certificate JSON, kind)
    (200, 0.97, 150, 0,
     "dbcd58d4e5accdb51a58b97c70f8711709928953a017f364f11d7230ac2b26dc", GNP_REPAIRED),
    (200, 0.97, 150, 1,
     "00f3b2d3fccd1c8dd0bd81ce07d0965a60fc5ddc3cb3eaefe5e0292d0eaab5d8", GNP_REPAIRED),
    (200, 0.97, 150, 2,
     "e0cf5cb9e14861714a9b6c67592b893e05ee0dfe483d9c1f3ecdf26077a8a519", GNP_REPAIRED),
    (300, 0.8, 210, 0,
     "f49bf117ec48b9238f5f34ac0bb6e891de69b094b7a9ae2ca39bbf496e37ee81", GNP_REPAIRED),
    (300, 0.8, 210, 1,
     "e09eb06f62dcbf77c06b59833bf7fc74f702ebc28e550f6eb4f342201c4cb17c", GNP_REPAIRED),
    # the cover endgame strands vertices as labelled; a relabelled rerun
    # certifies it
    (300, 0.8, 210, 9,
     "21ae827bda0dd64614dbb09cc607ba25993c90cfc8264df80bdb7e78015e212f", GNP_REPAIRED),
    # the partition density guard rejects this host as labelled (its blocks
    # fall into different cliques); a relabelled rerun certifies it
    (300, None, 225, 0,
     "640b385dbc2ea2039aa003a990bd3bba6065c6ba14f2d0ae32e5ed76d22b78ce", DIRAC_EXTREMAL),
    # first-pass solves of the sparse-600 benchmark shape, where folding the
    # leftover into the cover is the largest stage
    (600, 0.8, 420, 0,
     "b8e5ff36a5fcd52ec8656c768cf843f01b5fcbf17d375de23894035974b624c4", GNP_REPAIRED),
    (600, 0.8, 420, 1,
     "47244b5e8f8dd9af535df1afc6735ba9a0c293a0ea9455134d1c4eaab799ed8b", GNP_REPAIRED),
    # certified on the first pass, with every pickup the fold-in finds kept
    (600, 0.8, 420, 90002,
     "c2e95cbefe48283521dbcb1aa55e18990e6b944a9c16df2f36d13cd1359ffb3f", GNP_REPAIRED),
    # the audit-1000 host, whose almost cover takes 28 blow-ups out of one
    # frame; captured with the scalar searches before they moved onto the
    # packed view
    (1000, 0.97, 750, 0,
     "4224caaf8f7a3b0a1a4cc9f8892e0aca2380cb50e4cbd2b55cac51796ed18d1a", GNP_REPAIRED),
]


@pytest.mark.parametrize("n,p,delta,seed,digest,kind", GOLDEN)
def test_certificate_digest(n, p, delta, seed, digest, kind):
    G = generate(GeneratorSpec(kind=kind, n=n, p=p,
                               delta_target=delta, seed=seed))
    cert = spanning_cycle_blowup(G, PRESETS["desk"])
    assert isinstance(cert, CycleBlowupCertificate), cert
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest


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
