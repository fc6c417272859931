"""Deterministic seed derivation and subset sampling.

Every randomized routine in this package derives its generator from a user
seed plus a fixed label, so independent call sites never share a stream and
repeated runs with the same seed reproduce byte-identical output. Strings
are folded with FNV-1a (never the builtin hash, which is salted per process)
and the result is finalized with a splitmix64 step.

Every stream is CPython's MT19937 (Matsumoto & Nishimura, ACM TOMACS 1998).
A routine that needs millions of floats from one stream, such as the GNP
sampler, takes them in blocks from random_doubles: the doubles random()
would return, rebuilt in numpy from the stream's raw 32-bit outputs.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def _splitmix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def mix(seed: int, *parts: int | str) -> int:
    """Fold seed and labels into one 64-bit value."""
    h = _splitmix(seed & _MASK64)
    for p in parts:
        if isinstance(p, str):
            h ^= _fnv1a(p.encode("utf-8"))
        else:
            h ^= p & _MASK64
        h = _splitmix(h)
    return h


def spawn(seed: int, *parts: int | str) -> random.Random:
    """A fresh Mersenne generator keyed by seed and labels."""
    return random.Random(mix(seed, *parts))


def spawner(seed: int, *parts: int | str) -> Callable[[int], random.Random]:
    """The map i -> spawn(seed, *parts, i) for per-trial generators, with
    seed and labels folded once instead of on every trial."""
    prefix = mix(seed, *parts)
    return lambda i: random.Random(_splitmix(prefix ^ (i & _MASK64)))


def random_doubles(rng: random.Random, k: int):
    """The next k floats of rng as a float64 array, equal bit for bit to
    [rng.random() for _ in range(k)], with rng left where those calls
    leave it.

    random() builds each double from two 32-bit MT19937 outputs a, b as
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53, every step exact in float64.
    getrandbits(64 * k) returns the same 2k outputs, the first in the
    lowest 32 bits, so the doubles are rebuilt here with no Python call
    per float.
    """
    import numpy as np

    words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4")
    out = (words[0::2] >> 5).astype(np.float64)
    out *= 67108864.0
    out += words[1::2] >> 6
    out *= 1.0 / 9007199254740992.0
    return out


def draw_subset(rng: random.Random, pool: Sequence[int], k: int) -> list[int]:
    """Draw k distinct items by a partial Fisher-Yates pass over a copy.

    The pool must arrive in a canonical order (ascending vertex ids) or
    determinism across call sites is lost. Only randrange is consumed, one
    call per drawn item, so the stream layout is stable.
    """
    if k > len(pool):
        raise ValueError("subset larger than pool")
    a = list(pool)
    for i in range(k):
        j = rng.randrange(i, len(a))
        a[i], a[j] = a[j], a[i]
    return a[:k]

