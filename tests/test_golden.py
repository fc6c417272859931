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
     "28e6c6c7b40f7585640b14f04e188f40838df7f6c168eaafc6f32c3a5c30c6ae", GNP_REPAIRED),
    (300, 0.8, 210, 1,
     "7dcc7933ca75a5b1a053668382e7a024384b1a9be7b913b707ba8269235b4dc5", GNP_REPAIRED),
    # the partition density guard rejects this host as labelled (its blocks
    # fall into different cliques); a relabelled rerun certifies it
    (300, None, 225, 0,
     "640b385dbc2ea2039aa003a990bd3bba6065c6ba14f2d0ae32e5ed76d22b78ce", DIRAC_EXTREMAL),
    # first-pass solves of the sparse-600 benchmark shape, where folding the
    # leftover into the cover is the largest stage
    (600, 0.8, 420, 0,
     "9ce4111a00180cdad674f5c84721bb82fcdaa1dfd93f31df64460831838483b3", GNP_REPAIRED),
    (600, 0.8, 420, 1,
     "07ccc05d2a450eced1229685175a73fcfb639d8f712474c6a8a241a873e3ac9f", GNP_REPAIRED),
    # the cover endgame strands vertices as labelled; a relabelled rerun
    # certifies it
    (600, 0.8, 420, 90002,
     "85ac6ae859f8102cea17f265bfaff6b8751d57d78108ca698bccc1cffede568d", GNP_REPAIRED),
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
