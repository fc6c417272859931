"""Small helpers for vertex sets stored as Python int bitmasks.

Vertices are nonnegative ints; bit i set means vertex i is in the set.
Python ints give us branch-free intersection/union and a fast popcount,
which is what every search loop in this package leans on.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_from(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def lowest_bit(mask: int) -> int:
    """Index of the lowest set bit; mask must be nonzero."""
    return (mask & -mask).bit_length() - 1
