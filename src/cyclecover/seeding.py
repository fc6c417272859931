"""Deterministic seed derivation and subset sampling.

Every randomized routine in this package derives its generator from a user
seed plus a fixed label, so independent call sites never share a stream and
repeated runs with the same seed reproduce byte-identical output. Strings
are folded with FNV-1a (never the builtin hash, which is salted per process)
and the result is finalized with a splitmix64 step.
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

