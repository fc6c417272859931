"""Small helpers for vertex sets stored as Python int bitmasks.

Vertices are nonnegative ints; bit i set means vertex i is in the set.
Python ints give us branch-free intersection/union and a fast popcount,
which is what every search loop in this package leans on. Scoring many
candidates at once (the picks of find_blowup, the side counts of
connect_clusters) runs on the packed uint64 view of Graph.packed instead,
with masks converted to its word layout and to index arrays here: once per
call for connect_clusters, and for find_blowup once when a BlowupSearch is
prepared and once per search for its avoid mask, never per pick. Writing
a graph file unpacks blocks of rows from that word layout; reading one, and
generating a random host, fill a numpy bool matrix that rows_from_matrix
turns into bitmask rows.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


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


# numpy is imported inside the converters below, not with this module: every
# module of the package imports this one, and loading numpy first, before the
# rest of the package, raised the peak memory of `import cyclecover` from
# 28.2 to 31.0 MB (Python 3.11, numpy 2.4).

def mask_words(masks: Sequence[int], words: int):
    """The masks as the rows of a uint64 array of `words` little-endian words
    each, the row layout of Graph.packed; every mask must fit in 64 * words
    bits."""
    import numpy as np

    buf = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(buf, dtype="<u8").reshape(len(masks), words)


def mask_indices(mask: int, n: int):
    """Ascending int64 array of the set bits of mask, all below n."""
    import numpy as np

    packed = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(packed, bitorder="little"))


def rows_from_matrix(A) -> list[int]:
    """Bitmask rows of a square bool matrix: bit j of row i is A[i, j]."""
    import numpy as np

    packed = np.packbits(A, axis=1, bitorder="little")
    w = packed.shape[1]
    flat = memoryview(packed.reshape(-1))
    return [int.from_bytes(flat[i * w:(i + 1) * w], "little") for i in range(len(packed))]
