"""Graphs, cluster families, and the verifiers.

Everything downstream reduces to the objects here: a Graph with bitmask
adjacency rows, a SetFamily of disjoint vertex clusters with a declared
balance shape, a Blowup pairing a reduced graph with a family, and a
CycleBlowupCertificate that can be re-checked from scratch against a host
graph. Verifiers return Verdict values with witnesses instead of raising,
except where a precondition is plainly violated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .bitset import iter_bits, lowest_bit, mask_from, mask_words, rows_from_matrix

PASS = "PASS"
FAIL = "FAIL"

# Balance shapes a SetFamily may declare.
BALANCE_EXACT = "exact"      # every cluster has exactly m vertices
BALANCE_WITHIN = "within"    # every cluster within (1 +- eta) m
BALANCE_QUASI = "quasi"      # exactly one singleton, the rest within (1 +- eta) m

_EPS = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification: PASS, or FAIL with a witness."""

    status: str
    reason: str = ""
    witness: object = None

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("Verdict is not a boolean; check .status")


def _pass() -> Verdict:
    return Verdict(PASS)


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Adjacency is a tuple of int bitmasks, one row per vertex. Rows are
    symmetric and loop-free; construct through the classmethods unless the
    rows are already known to be valid. The searches that score many
    vertices at once read the same rows as a packed numpy array, built on
    the first call of packed().
    """

    __slots__ = ("n", "adj", "_packed")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 0:
            raise ValueError("negative vertex count")
        if len(adj) != n:
            raise ValueError("adjacency length mismatch")
        self.n = n
        self.adj = tuple(adj)
        self._packed = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete_multipartite(cls, sizes: Sequence[int]) -> "Graph":
        n = sum(sizes)
        full = (1 << n) - 1
        adj = []
        start = 0
        for s in sizes:
            part = ((1 << s) - 1) << start
            adj.extend([full & ~part] * s)
            start += s
        return cls(n, adj)

    # -- queries --------------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def vertices_mask(self) -> int:
        return (1 << self.n) - 1

    def packed(self):
        """(rows, deg): rows is the read-only n x ceil(n/64) uint64 array
        whose row v holds adj[v] in little-endian 64-bit words
        (bitset.mask_words), deg the int64 degrees. Built on the first call
        and kept, so graphs that are only read and verified never pay for
        it."""
        if self._packed is None:
            import numpy as np

            rows = mask_words(self.adj, (self.n + 63) // 64)
            self._packed = (rows, np.bitwise_count(rows).sum(axis=1, dtype=np.int64))
        return self._packed

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for off in iter_bits(rest):
                yield (u, u + 1 + off)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Copy in which vertex v is called perm[v]; perm must be a
        permutation of 0..n-1."""
        adj = [0] * self.n
        for v, row in enumerate(self.adj):
            adj[perm[v]] = mask_from(perm[u] for u in iter_bits(row))
        return Graph(self.n, adj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def min_degree(G: Graph) -> int:
    if G.n == 0:
        raise ValueError("empty graph")
    return min(row.bit_count() for row in G.adj)


def is_complete_bipartite(G: Graph, A: Iterable[int], B: Iterable[int]) -> Verdict:
    """PASS iff every A-B pair is an edge; FAIL carries one missing pair.

    A and B must be disjoint and nonempty. Equivalent to counting:
    PASS exactly when e(A, B) == |A| * |B|.
    """
    amask = mask_from(A)
    bmask = mask_from(B)
    if amask & bmask:
        raise ValueError("sets not disjoint")
    if amask == 0 or bmask == 0:
        raise ValueError("empty side")
    for a in iter_bits(amask):
        missing = bmask & ~G.adj[a]
        if missing:
            return Verdict(FAIL, "missing pair", (a, lowest_bit(missing)))
    return _pass()


@dataclass(frozen=True)
class SetFamily:
    """Disjoint vertex clusters plus a declared balance shape.

    kind is one of BALANCE_EXACT, BALANCE_WITHIN, BALANCE_QUASI with scale m
    and slack eta. validate() checks the declaration; nothing is enforced at
    construction so partially built families can exist inside pipelines.
    """

    clusters: tuple[frozenset, ...]
    kind: str = BALANCE_EXACT
    m: int = 1
    eta: float = 0.0

    @classmethod
    def of(cls, clusters: Iterable[Iterable[int]], kind: str = BALANCE_EXACT,
           m: int = 1, eta: float = 0.0) -> "SetFamily":
        return cls(tuple(frozenset(c) for c in clusters), kind, m, eta)

    def validate(self) -> Verdict:
        seen = 0
        for i, c in enumerate(self.clusters):
            cm = mask_from(c)
            if cm & seen:
                return Verdict(FAIL, "clusters overlap", i)
            seen |= cm
        lo = (1.0 - self.eta) * self.m - _EPS
        hi = (1.0 + self.eta) * self.m + _EPS
        if self.kind == BALANCE_EXACT:
            for i, c in enumerate(self.clusters):
                if len(c) != self.m:
                    return Verdict(FAIL, "size out of range", (i, len(c)))
        elif self.kind == BALANCE_WITHIN:
            for i, c in enumerate(self.clusters):
                if not (lo <= len(c) <= hi):
                    return Verdict(FAIL, "size out of range", (i, len(c)))
        elif self.kind == BALANCE_QUASI:
            singles = [i for i, c in enumerate(self.clusters) if len(c) == 1]
            if len(singles) != 1:
                return Verdict(FAIL, "quasi needs exactly one singleton", tuple(singles))
            for i, c in enumerate(self.clusters):
                if i == singles[0]:
                    continue
                if not (lo <= len(c) <= hi):
                    return Verdict(FAIL, "size out of range", (i, len(c)))
        else:
            return Verdict(FAIL, "unknown balance kind", self.kind)
        return _pass()

    def singleton_index(self) -> int:
        singles = [i for i, c in enumerate(self.clusters) if len(c) == 1]
        if len(singles) != 1:
            raise ValueError("family has no unique singleton")
        return singles[0]

    def union_mask(self) -> int:
        u = 0
        for c in self.clusters:
            u |= mask_from(c)
        return u


@dataclass(frozen=True)
class Blowup:
    """A reduced graph together with one cluster per reduced vertex."""

    reduced: Graph
    family: SetFamily

    def __post_init__(self):
        if self.reduced.n != len(self.family.clusters):
            raise ValueError("cluster count does not match reduced graph order")


def verify_blowup_hosted(G: Graph, B: Blowup) -> Verdict:
    """PASS iff clusters are disjoint, inside V(G), and every reduced edge
    is realized as a complete bipartite join between its two clusters."""
    vmask = G.vertices_mask()
    seen = 0
    masks = []
    for i, c in enumerate(B.family.clusters):
        cm = mask_from(c)
        if cm & ~vmask:
            raise ValueError(f"cluster {i} leaves the host vertex set")
        if cm & seen:
            return Verdict(FAIL, "clusters overlap", i)
        seen |= cm
        masks.append(cm)
    for u, v in B.reduced.edges():
        if masks[u] == 0 or masks[v] == 0:
            continue  # empty side realizes the join vacuously
        for a in iter_bits(masks[u]):
            missing = masks[v] & ~G.adj[a]
            if missing:
                return Verdict(FAIL, "missing pair", (u, v, a, lowest_bit(missing)))
    return _pass()


@dataclass(frozen=True)
class CycleBlowupCertificate:
    """Spanning cycle blow-up: an ordered cyclic list of clusters plus the
    declared scale (c, eta) the cluster sizes are measured against."""

    n: int
    c: float
    eta: float
    clusters: tuple[tuple[int, ...], ...]

    def size_bounds(self) -> tuple[int, int]:
        base = self.c * math.log(self.n)
        lo = math.ceil((1.0 - self.eta) * base - _EPS)
        hi = math.floor((1.0 + self.eta) * base + _EPS)
        return lo, hi

    def to_json(self) -> str:
        obj = {
            "n": self.n,
            "c": self.c,
            "eta": self.eta,
            "clusters": [list(cl) for cl in self.clusters],
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CycleBlowupCertificate":
        """Parse to_json output. The order and every vertex id must be JSON
        integers: a fractional or boolean one raises ValueError instead of
        being truncated to a different vertex. c and eta must be finite JSON
        numbers: a boolean, a string, NaN or an infinity raises ValueError.
        So does JSON nested too deeply for the parser's recursion."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON nests too deeply") from None
        n = obj["n"]
        clusters = tuple(tuple(cl) for cl in obj["clusters"])
        # type() and not isinstance(): True and False are ints to isinstance
        if type(n) is not int or any(type(v) is not int for cl in clusters for v in cl):
            raise ValueError("certificate order and vertex ids must be JSON integers")
        c, eta = obj["c"], obj["eta"]
        if not (_finite_number(c) and _finite_number(eta)):
            raise ValueError("certificate c and eta must be finite JSON numbers")
        return cls(n, float(c), float(eta), clusters)


def _finite_number(x) -> bool:
    """Is x an int or a float, and not a boolean, NaN, an infinity or an int
    past the float range?"""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:
        return False


def canonical_cycle(clusters: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical cyclic presentation: each cluster ascending, the cluster
    holding the global minimum vertex first, direction chosen to make the
    whole sequence lexicographically least."""
    cls_sorted = [tuple(sorted(c)) for c in clusters]
    k = len(cls_sorted)
    if k == 0:
        return ()
    start = min(range(k), key=lambda i: cls_sorted[i][0])
    fwd = tuple(cls_sorted[(start + i) % k] for i in range(k))
    bwd = tuple(cls_sorted[(start - i) % k] for i in range(k))
    return min(fwd, bwd)


def verify_cycle_blowup(G: Graph, cert: CycleBlowupCertificate) -> Verdict:
    """Re-check a cycle blow-up certificate from scratch against G.

    PASS requires: at least 3 clusters, all nonempty and disjoint, union
    equal to V(G), cyclically consecutive clusters completely joined, and
    every cluster size inside the declared [ (1-eta)c ln n, (1+eta)c ln n ]
    window (floor/ceil applied outward on the declared bounds), which must
    be finite.
    """
    k = len(cert.clusters)
    if k < 3:
        return Verdict(FAIL, "degenerate cycle", k)
    if cert.n != G.n:
        return Verdict(FAIL, "vertex count mismatch", (cert.n, G.n))
    vmask = G.vertices_mask()
    # ids are checked against 0..n-1 before any shift, as a huge one would ask
    # for a mask of its own size; one pass over all ids clears a certificate
    # (a min and a max per cluster made the dense-300 audit 14% slower)
    ids = list(chain.from_iterable(cert.clusters))
    inside = not ids or 0 <= min(ids) and max(ids) < G.n
    seen = 0
    masks = []
    for i, cl in enumerate(cert.clusters):
        if len(cl) == 0:
            return Verdict(FAIL, "empty cluster", i)
        if not inside and (min(cl) < 0 or max(cl) >= G.n):
            return Verdict(FAIL, "vertex outside host", i)
        cm = mask_from(cl)
        if cm.bit_count() != len(cl):
            return Verdict(FAIL, "repeated vertex inside cluster", i)
        if cm & seen:
            return Verdict(FAIL, "clusters overlap", i)
        seen |= cm
        masks.append(cm)
    if seen != vmask:
        return Verdict(FAIL, "not spanning", lowest_bit(vmask & ~seen))
    try:
        lo, hi = cert.size_bounds()
    except (ValueError, OverflowError):  # c ln n past the float range: NaN or inf
        return Verdict(FAIL, "declared window overflows", (cert.c, cert.eta))
    for i, cl in enumerate(cert.clusters):
        if not (lo <= len(cl) <= hi):
            return Verdict(FAIL, "size out of range", (i, len(cl)))
    for i in range(k):
        j = (i + 1) % k
        for a in iter_bits(masks[i]):
            missing = masks[j] & ~G.adj[a]
            if missing:
                return Verdict(FAIL, "consecutive clusters not joined",
                               (i, j, a, lowest_bit(missing)))
    return _pass()


# -- plain text graph files ---------------------------------------------

# Adjacency rows rendered at a time by graph_to_text, and characters of text
# parsed at a time by graph_from_text: they bound the numpy temporaries of
# both, whatever the size of the text. On the 3.8 MB text of an n = 1000
# host, chunks of 2**16 to 2**18 characters parsed equally fast (medians
# 14.9-15.7 ms, 2-vCPU x86-64; 2**15 took 16.9 and 2**20 17.9 ms), and
# blocks of 16 to 256 rows wrote it equally fast; the peak memory of a
# parse grows with its chunk.
_ROW_BLOCK = 64
_TEXT_CHUNK = 1 << 18
# Shape changes past which a chunk in the writer's layout gathers its ids
# digit by digit rather than reading each run of lines of one shape as a
# matrix: a sorted text changes shape a few dozen times per chunk at most,
# a shuffled one on most lines, where a matrix per run would cost more.
_SHAPE_CHANGES = 64


def graph_to_text(G: Graph) -> str:
    """The 'n m' header, then one 'u v' line per edge in G.edges() order.

    Rows are rendered _ROW_BLOCK at a time. Each edge of a block becomes a
    record of two fixed-width fields, 'u ' and 'v\\n' right-aligned and
    padded with NUL bytes; dropping the NULs leaves the block's lines. The
    field width is a power of two, which numpy gathers fastest.
    """
    import numpy as np

    n = G.n
    width = 1 << len(str(max(n - 1, 0))).bit_length()

    def fields(end: str):
        cells = "".join((str(i) + end).rjust(width, "\0") for i in range(n))
        return np.frombuffer(cells.encode(), dtype=(np.void, width))

    heads, tails = fields(" "), fields("\n")
    words = (n + 63) // 64
    parts = [f"{n} {G.edge_count()}\n"]
    for lo in range(0, n, _ROW_BLOCK):
        bits = np.unpackbits(mask_words(G.adj[lo:lo + _ROW_BLOCK], words).view(np.uint8),
                             axis=1, count=n, bitorder="little")
        us, vs = np.nonzero(np.triu(bits, lo + 1))   # keeps v > u, where u = lo + row
        rec = np.empty((len(us), 2), dtype=heads.dtype)
        rec[:, 0] = heads[lo + us]
        rec[:, 1] = tails[vs]
        chars = rec.view(np.uint8)
        parts.append(chars[chars != 0].tobytes().decode("ascii"))
    return "".join(parts)


def _scan_lines(raw: bytes):
    """Passes over a chunk of graph text that ends in a newline.

    Returns (starts, ends, comment, data, wrong): line k is the byte span
    [starts[k], ends[k]) before its newline; comment marks the lines whose
    first token starts with '#'; data lists the other lines that hold a
    token, ascending; wrong lists the data lines that do not hold exactly
    two tokens of ASCII digits, ascending.
    """
    import numpy as np

    b = np.frombuffer(raw, dtype=np.uint8)
    newline = b == 10
    ends = np.flatnonzero(newline)
    starts = np.concatenate(([0], ends[:-1] + 1))
    space = newline | (b == 32) | (b == 9) | (b == 13)
    head = ~space
    head[1:] &= space[:-1]                       # first byte of each token
    counts = np.add.reduceat(head.view(np.uint8), starts, dtype=np.int32)
    filled = counts > 0
    first_token = np.flatnonzero(head)[(np.cumsum(counts) - counts)[filled]]
    comment = np.zeros(len(starts), dtype=bool)
    comment[filled] = b[first_token] == ord("#")
    data = filled & ~comment
    digit = np.subtract(b, ord("0"), dtype=np.uint8) < 10
    # every line holds its newline, so the starts ascend strictly
    foreign = np.logical_or.reduceat(~(space | digit), starts)
    wrong = data & (foreign | (counts != 2))
    return starts, ends, comment, np.flatnonzero(data), np.flatnonzero(wrong)


def _read_ids(raw: bytes, d, ends, lengths):
    """The digit runs raw[ends[i] - lengths[i]:ends[i]] as int64 values, read
    by place value from d, the bytes of raw minus ord('0'). A run of more
    than 18 digits, which int64 arithmetic could overflow, is read with
    int(); one past the int64 range saturates, and reads as an id outside
    0..n-1."""
    import numpy as np

    ids = d.take(ends - 1).astype(np.int64)
    for k in range(2, min(int(lengths.max(initial=0)), 18) + 1):
        digit = d.take(ends - k) * (lengths >= k)
        ids += digit.astype(np.int64) * 10 ** (k - 1)
    for i in np.flatnonzero(lengths > 18):
        ids[i] = min(int(raw[ends[i] - lengths[i]:ends[i]]), np.iinfo(np.int64).max)
    return ids


def _one_shape(raw: bytes, b, nondigit, start: int):
    """(rows, width, space) when raw[start:], which ends in a newline, is
    rows lines of one shape in the layout graph_to_text writes, 'digits SP
    digits NL', each width bytes long with the space at column space and no
    token past 18 digits; None otherwise. b is raw as uint8 and nondigit
    marks its bytes that are not ASCII digits."""
    import numpy as np

    width = raw.find(b"\n", start) + 1 - start
    space = raw.find(b" ", start, start + width) - start
    rows, rest = divmod(len(raw) - start, width)
    if rest or not (0 < space <= 18 and 0 < width - 2 - space <= 18):
        return None
    lines = b[start:].reshape(rows, width)
    # a space and a newline per line, in their columns, and digits elsewhere
    if (np.count_nonzero(nondigit[start:]) == 2 * rows and (lines[:, space] == ord(" ")).all()
            and (lines[:, -1] == ord("\n")).all()):
        return rows, width, space
    return None


def _shape_blocks(stops, runs):
    """The (start, rows, width, space) blocks of consecutive lines of one
    shape in a chunk in the writer's layout, whose edge lines end their
    digit runs runs[i] at the bytes stops[i]; None when a token has more
    than 18 digits or the shape changes more than _SHAPE_CHANGES times."""
    import numpy as np

    us, vs = runs[0::2], runs[1::2]
    if len(us) == 0:
        return []
    if max(us.max(), vs.max()) > 18:
        return None
    firsts = np.flatnonzero((us[1:] != us[:-1]) | (vs[1:] != vs[:-1])) + 1
    if len(firsts) > _SHAPE_CHANGES:
        return None
    firsts = np.concatenate(([0], firsts))
    rows = np.diff(firsts, append=len(us))
    return [(int(stops[2 * k] - us[k]), int(r), int(us[k] + vs[k] + 2), int(us[k]))
            for k, r in zip(firsts, rows)]


def _read_block(d, start: int, rows: int, width: int, space: int):
    """(u, v) int64 arrays of the rows edge lines of one shape, width bytes
    each with the space at column space, that begin at d[start], where d
    holds the bytes of the chunk minus ord('0'). The lines are read as a
    (rows, width) matrix, each id column by column by place value."""
    import numpy as np

    lines = d[start:start + rows * width].reshape(rows, width)

    def column_value(lo: int, hi: int):
        ids = lines[:, lo].astype(np.int64)
        for k in range(lo + 1, hi):
            ids *= 10
            ids += lines[:, k]
        return ids

    return column_value(0, space), column_value(space + 1, width - 1)


def graph_from_text(text: str) -> Graph:
    """Parse the 'n m' header plus one 'u v' line per edge, 0-based ids.

    Ids are ASCII decimal digits separated by spaces or tabs, and lines end
    in '\\n'; a carriage return counts as a space, so '\\r\\n' ends work too.
    Blank lines, and lines whose first non-blank character is '#', are
    skipped anywhere. A line holding anything else, such as a sign, an
    underscore or a non-ASCII digit, is a bad header or bad edge line, even
    where Python's int() would take the token. Duplicate edge lines are
    allowed, and the header counts them.

    The text is read in chunks of about _TEXT_CHUNK characters, cut after a
    newline, and each chunk's edges are set before the next is read. A
    chunk in the layout graph_to_text writes, 'digits SP digits NL' on
    every line, skips the per-line scan that every other chunk takes. Its
    lines are read as fixed-width byte matrices, one per run of lines of
    one shape (the digit counts of u and of v), column by column: a chunk
    whose lines all share one shape is recognised before its non-digit
    bytes are listed, and a chunk of a few shapes (at most _SHAPE_CHANGES
    changes) is cut into its runs. A chunk of more shape changes, such as
    a shuffled file, or with a token past 18 digits, gathers each id digit
    by digit. The first error in this order is raised: no header line; the
    first line of the wrong shape; an edge count other than the header's;
    the first edge that is a loop or has an id outside 0..n-1.
    """
    import numpy as np

    n = m = None
    found = 0          # edge lines so far
    bad_edge = None    # (u, v) of the first edge line holding a loop or an id outside 0..n-1
    A = None           # the adjacency matrix, allocated at the first edge
    fits = True        # False once A failed to allocate; that error is raised last
    pos = 0
    while pos < len(text):
        cut = text.find("\n", pos + _TEXT_CHUNK - 1)
        stop = len(text) if cut < 0 else cut + 1
        raw = text[pos:stop].encode("utf-8", "surrogatepass")
        pos = stop
        if not raw.endswith(b"\n"):
            raw += b"\n"
        b = np.frombuffer(raw, dtype=np.uint8)
        d = np.subtract(b, ord("0"), dtype=np.uint8)
        nondigit = d >= 10
        blocks = None      # (start, rows, width, space) of each run of lines of one shape
        start = 0          # where the edge lines begin, past a header in the writer's layout
        if n is None:
            u0, _, v0 = raw[:raw.find(b"\n")].partition(b" ")
            start = len(u0) + len(v0) + 2 if u0.isdigit() and v0.isdigit() else len(raw)
        shape = _one_shape(raw, b, nondigit, start) if start < len(raw) else None
        if shape is not None:
            if n is None:
                n, m = int(u0), int(v0)
            found += shape[0]
            blocks = [(start, *shape)]
        else:
            stops = np.flatnonzero(nondigit)
            runs = stops - 1                    # the digits just before each stop
            runs[1:] -= stops[:-1]
            runs[0] = stops[0]
            seps = b[stops]
            skip = 0
            # the layout graph_to_text writes: the last stop is the final
            # newline, so alternation also makes every line 'digits SP digits NL'
            if (runs.min() > 0 and (seps[0::2] == ord(" ")).all()
                    and (seps[1::2] == ord("\n")).all()):
                if n is None:
                    n, m = int(raw[:stops[0]]), int(raw[stops[0] + 1:stops[1]])
                    skip = 2
                found += (len(stops) - skip) // 2
                blocks = _shape_blocks(stops[skip:], runs[skip:])
            else:
                starts, line_ends, comment, data, wrong = _scan_lines(raw)

                def line(k: int) -> bytes:
                    return raw[starts[k]:line_ends[k]]

                if len(wrong):
                    what = "bad header" if n is None and wrong[0] == data[0] else "bad edge line"
                    quoted = line(wrong[0]).decode("utf-8", "surrogatepass").strip(" \t\r")
                    raise ValueError(f"{what} {quoted!r}")
                if n is None and len(data):
                    n, m = map(int, line(data[0]).split())
                    data, skip = data[1:], 2
                found += len(data)
                # the data lines hold only digits and blanks, so their tokens
                # are the digit runs outside comment lines
                keep = runs > 0
                if comment.any():
                    keep &= ~np.repeat(comment, line_ends - starts + 1)[stops]
                at = np.flatnonzero(keep)
                stops, runs = stops.take(at), runs.take(at)
        if bad_edge is not None:
            continue
        if blocks is not None:         # read one block at a time
            pieces = (_read_block(d, *block) for block in blocks)
        elif len(stops) == skip:
            continue
        else:
            ids = _read_ids(raw, d, stops[skip:], runs[skip:])
            pieces = [(ids[0::2], ids[1::2])]
        for u, v in pieces:
            bad = np.flatnonzero((u == v) | (u >= n) | (v >= n))
            if len(bad):
                if blocks is not None:     # ids of at most 18 digits, read exactly
                    bad_edge = int(u[bad[0]]), int(v[bad[0]])
                else:                      # a longer one saturated: read the line
                    i = skip + 2 * bad[0]
                    bad_edge = tuple(map(int, raw[stops[i] - runs[i]:stops[i + 1]].split()))
                break
            if A is None and fits:
                try:
                    A = np.zeros((n, n), dtype=bool)
                except (MemoryError, ValueError):  # raised again below, after the checks
                    fits = False                   # that come before it
            if A is not None:
                A[u, v] = True
                A[v, u] = True
    if n is None:
        raise ValueError("no header line")
    if found != m:
        raise ValueError(f"header claims {m} edges, found {found}")
    if bad_edge is not None:
        a, c = bad_edge
        if a == c:
            raise ValueError(f"loop at vertex {a}")
        raise ValueError(f"edge ({a}, {c}) outside 0..{n - 1}")
    if A is None:
        A = np.zeros((n, n), dtype=bool)
    return Graph(n, rows_from_matrix(A))


def graph_from_file(path) -> Graph:
    """graph_from_text of a graph file. Its bytes are decoded as they are:
    read_text() translates newlines, and a lone '\\r', a space in the
    grammar, would become a line break."""
    return graph_from_text(Path(path).read_bytes().decode())
