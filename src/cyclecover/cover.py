"""Blow-up covers of dense graphs and the spanning cycle pipeline.

A graph with minimum degree above n/2 admits a spanning structure built
from small blow-ups: almost all of the graph is covered by vertex-disjoint
blow-ups of a well-connected pattern, the leftover is folded in until the
blow-ups partition all but a few late vertices into quasi-balanced
families, each family's singleton cluster is absorbed along the least
Hamilton cycle of its reduced graph (an exhaustive depth-first search),
the families are linked into one ring by connector triples, the pipeline
lays the clusters out along that ring as a single cycle blow-up, and each
late vertex joins a cycle cluster whose two neighbours it is complete to.
The end result is re-verified from scratch against the host graph.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterable, Sequence

from .bitset import bits_list, iter_bits, mask_from, mask_indices
from .core import (
    BALANCE_QUASI,
    BALANCE_WITHIN,
    Blowup,
    CycleBlowupCertificate,
    FAIL,
    Graph,
    PASS,
    SetFamily,
    Verdict,
    canonical_cycle,
    min_degree,
    verify_blowup_hosted,
    verify_cycle_blowup,
)
from .blowup_search import BlowupSearch, connect_clusters
from .seeding import mix, spawner

ALMOST = "ALMOST"
SIMPLE = "SIMPLE"

_EPS = 1e-9
# sampled s-sets of the partition density guard in almost_blowup_cover
_DENSITY_TRIALS = 192
# spanning_cycle_blowup refuses hosts below this order: exhaustive cycle
# search is the tool there
N_FLOOR = 50


class AbsorptionError(RuntimeError):
    """No cycle position admits the singleton cluster."""


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class CoverParams:
    """Dials for the cover and cycle pipeline.

    The three scale coefficients set cluster sizes m_i = floor(c_i ln n):
    c1 the cover pieces, c2 the connectors and the certificate declaration,
    c3 the pickups. The certificate produced downstream declares bounds
    (c2, 4 eta). node_budget caps the connector search of the connect
    stage.
    """

    eps: float = 0.25
    s: int = 4
    c1: float = 1.2
    c2: float = 0.4
    c3: float = 0.4
    eta: float = 0.25
    node_budget: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if self.s < 3:
            raise ValueError("s must be at least 3")
        if not (0.0 < self.eta < 1.0):
            raise ValueError("eta must lie in (0, 1)")
        for name in ("c1", "c2", "c3"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def rho(self) -> float:
        return self.eta / 2.0

    def scales(self, n: int) -> tuple[int, int, int]:
        """(m1, m2, m3) at order n; every scale must stay >= 1."""
        if n < 2:
            raise ValueError("need at least two vertices")
        ln = math.log(n)
        out = tuple(int(c * ln + 1e-12) for c in (self.c1, self.c2, self.c3))
        if min(out) < 1:
            raise ValueError("a cluster scale collapsed below 1; n is too small")
        return out


PRESETS: dict[str, CoverParams] = {"desk": CoverParams()}


def _declaration(params: CoverParams, n: int, clusters=()) -> CycleBlowupCertificate:
    """A certificate with the scale (c2, 4 eta) the pipeline declares at
    order n; its size_bounds() is the window every cycle cluster must fit."""
    return CycleBlowupCertificate(n, params.c2, 4.0 * params.eta, clusters)


# ---------------------------------------------------------------------------
# cover results


@dataclass(frozen=True)
class CoverResult:
    """Disjoint blow-ups plus the vertices they miss.

    For both kinds, uncovered is the exact complement of the blow-ups.
    kind SIMPLE also promises that every family is quasi-balanced; its
    uncovered set is the late set L that the fold-in could not place, and
    the pipeline places it after winding. Diagnostics carry stall and skip
    records and never affect equality.
    """

    n: int
    blowups: tuple[Blowup, ...]
    uncovered: frozenset
    kind: str
    diagnostics: tuple = field(default=(), compare=False)

    def validate(self) -> Verdict:
        if self.kind not in (ALMOST, SIMPLE):
            return Verdict(FAIL, "unknown cover kind", self.kind)
        full = (1 << self.n) - 1
        seen = 0
        for bi, B in enumerate(self.blowups):
            v = B.family.validate()
            if v.status != PASS:
                return Verdict(FAIL, "family declaration broken", (bi, v.reason))
            um = B.family.union_mask()
            if um & ~full:
                return Verdict(FAIL, "vertex outside host range", bi)
            if um & seen:
                return Verdict(FAIL, "blow-ups overlap", bi)
            seen |= um
        umask = mask_from(self.uncovered)
        if umask & seen:
            return Verdict(FAIL, "uncovered vertex inside a blow-up")
        if (seen | umask) != full:
            return Verdict(FAIL, "uncovered set is not the exact complement")
        if self.kind == SIMPLE:
            for bi, B in enumerate(self.blowups):
                if B.family.kind != BALANCE_QUASI:
                    return Verdict(FAIL, "simple cover family not quasi", bi)
        return Verdict(PASS)


def verify_cover(G: Graph, result: CoverResult, params: CoverParams) -> Verdict:
    """Full invariant suite for a cover against its host.

    Checks the structural validate(), so the blow-ups partition V(G) less
    the uncovered set, plus, per blow-up: hosting (reduced edges realized
    as complete joins inside G), s reduced vertices, and reduced minimum
    degree at least (1/2 + eps/2) s.
    """
    if G.n != result.n:
        return Verdict(FAIL, "host order mismatch", (G.n, result.n))
    v = result.validate()
    if v.status != PASS:
        return v
    floor_deg = (0.5 + params.eps / 2.0) * params.s - _EPS
    for bi, B in enumerate(result.blowups):
        if B.reduced.n != params.s:
            return Verdict(FAIL, "reduced graph order is not s", bi)
        if min_degree(B.reduced) < floor_deg:
            return Verdict(FAIL, "reduced graph degree too low", bi)
        hv = verify_blowup_hosted(G, B)
        if hv.status != PASS:
            return Verdict(FAIL, "blow-up not hosted", (bi, hv.reason))
    return Verdict(PASS)


# ---------------------------------------------------------------------------
# Hamilton cycles of small reduced graphs


def dirac_hamilton_cycle(R: Graph) -> tuple[int, ...] | None:
    """The lexicographically least Hamilton cycle of R, or None.

    A depth-first search from vertex 0 extends the path by its lowest
    unused neighbour first and returns the first path that closes, so the
    cycle starts at 0 and its second vertex is below its last. The search
    is exhaustive, so None means R has no Hamilton cycle; it is meant for
    reduced graphs of a few vertices. Raises on fewer than three vertices.
    """
    n = R.n
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    adj = R.adj
    full = (1 << n) - 1
    path = [0]

    def extend(on_path: int) -> bool:
        t = path[-1]
        if on_path == full:
            return bool(adj[t] & 1)
        free = adj[t] & ~on_path
        while free:
            low = free & -free
            path.append(low.bit_length() - 1)
            if extend(on_path | low):
                return True
            path.pop()
            free ^= low
        return False

    return tuple(path) if extend(1) else None


# ---------------------------------------------------------------------------
# singleton absorption


@dataclass(frozen=True)
class AbsorbResult:
    """Rebalanced blow-up, a Hamilton cycle of its reduced graph, and the
    cycle position j whose neighbourhood certified the absorption."""

    blowup: Blowup
    cycle: tuple[int, ...]
    j: int


def absorb_singleton(B: Blowup) -> AbsorbResult:
    """Fold the singleton cluster into the rest of its family.

    The reduced graph loses the singleton's vertex, the least Hamilton
    cycle C' of the remainder is found, and the scan looks for the first
    position j whose cluster and next-but-one cluster are both reduced
    neighbours of the removed vertex. The singleton then joins the cluster
    sitting between those two, which keeps both of its cycle joins
    complete. The merged family is declared within (1 +- 2 eta) of its
    scale (floored so the +1 always fits). Raises AbsorptionError when no
    cycle or no valid position exists.
    """
    fam = B.family
    v = fam.validate()
    if v.status != PASS:
        raise ValueError(f"family declaration broken: {v.reason}")
    if fam.kind != BALANCE_QUASI:
        raise ValueError("absorption needs a quasi-balanced family")
    v_star = fam.singleton_index()
    k = len(fam.clusters) - 1
    if k < 3:
        raise AbsorptionError("absorption failed")
    keep = [i for i in range(len(fam.clusters)) if i != v_star]
    edges = [(a, b) for a in range(k) for b in range(a + 1, k)
             if B.reduced.has_edge(keep[a], keep[b])]
    R_prime = Graph.from_edges(k, edges)
    C = dirac_hamilton_cycle(R_prime)
    if C is None:
        raise AbsorptionError("absorption failed")
    nbrs = B.reduced.adj[v_star]
    j = None
    for cand in range(k):
        a = keep[C[cand]]
        b = keep[C[(cand + 2) % k]]
        if (nbrs >> a) & 1 and (nbrs >> b) & 1:
            j = cand
            break
    if j is None:
        raise AbsorptionError("absorption failed")
    target = C[(j + 1) % k]
    single = fam.clusters[v_star]
    clusters = list(fam.clusters[i] for i in keep)
    clusters[target] = clusters[target] | single
    eta_out = max(2.0 * fam.eta, 2.0 / max(fam.m, 1))
    merged = SetFamily(tuple(clusters), BALANCE_WITHIN, m=fam.m, eta=eta_out)
    out = Blowup(R_prime, merged)
    check = merged.validate()
    if check.status != PASS:  # pragma: no cover - arithmetic guarantees it
        raise AssertionError(f"merged family failed its declaration: {check}")
    return AbsorbResult(out, C, j)


# ---------------------------------------------------------------------------
# almost cover


@lru_cache(maxsize=8)
def _guard_picks(seed: int, s: int, block: int):
    """The density guard's samples as a read-only (_DENSITY_TRIALS, s)
    int64 array: row t holds one vertex of each block of block consecutive
    ids, drawn by randrange from trial t's own stream. They depend on the
    seed, s and block only, so the hosts of one order that a process solves
    share one draw."""
    import numpy as np

    # the seed labels here and the one-vertex-per-block draw order are
    # pinned by the golden certificate digests
    rng_of = spawner(mix(mix(seed, "cover", "tiling"), "reduced-edge", *range(s)),
                     "tuple-density")
    picks = np.empty((_DENSITY_TRIALS, s), dtype=np.int64)
    for t in range(_DENSITY_TRIALS):
        draw = rng_of(t).randrange
        picks[t] = [i * block + draw(block) for i in range(s)]
    picks.flags.writeable = False
    return picks


def _guard_shapes(G: Graph, picks, floor_deg: float) -> dict[tuple[tuple[int, int], ...], int]:
    """How often each shape inherits among the samples, the rows of picks.

    A sample inherits when each of its vertices has at least floor_deg
    neighbours in it; its shape is the edge list (a, b), a < b, of the
    sample labelled by position. The vertices of a sample must be distinct.
    All samples are classified at once: their adjacency bits are read from
    the packed rows, and each inheriting shape is counted by its bitmask
    over the pairs in (a, b) order.
    """
    import numpy as np

    u, v = picks[:, :, None], picks[:, None, :]
    adj = ((G.packed()[0][u, v >> 6] >> (v & 63).astype(np.uint64)) & 1).astype(np.uint8)
    ia, ib = np.triu_indices(picks.shape[1], 1)
    kept = adj[(adj.sum(axis=2) >= floor_deg).all(axis=1)][:, ia, ib]
    masks = np.ascontiguousarray(np.packbits(kept, axis=1, bitorder="little"))
    codes, counts = np.unique(masks.view(np.dtype((np.void, masks.shape[1]))).ravel(),
                              return_counts=True)
    pairs = list(zip(ia.tolist(), ib.tolist()))
    shapes = {}
    for code, count in zip(codes, counts.tolist()):
        mask = int.from_bytes(code.tobytes(), "little")
        shapes[tuple(p for k, p in enumerate(pairs) if mask >> k & 1)] = count
    return shapes


def almost_blowup_cover(G: Graph, params: CoverParams) -> CoverResult:
    """Cover most of G by disjoint blow-ups with exactly balanced clusters.

    The vertex set is cut into s blocks of floor(n/s) consecutive ids; the
    n mod s highest ids are left uncovered. One density guard decides
    whether the blocks are used: of _DENSITY_TRIALS sampled s-sets with one
    vertex per block, the fraction that inherits the degree condition must
    reach min(16 eta, 1/2) / 4. When it does, the most frequent inheriting
    shape among those same samples becomes the pattern (ties go to the
    lexicographically smallest edge list), and framed extraction
    pulls blow-ups with clusters of the cover scale m1 = floor(c1 ln n)
    until the unused fraction of every block drops below rho, or until the
    first extraction whose greedy pass dies (a stall). A rejected guard or
    a stall leaves a partial cover plus diagnostics, never an invalid
    structure; simple_blowup_cover folds the rest in.
    """
    n = G.n
    s = params.s
    m1, _, _ = params.scales(n)

    block = n // s
    parts = [((1 << block) - 1) << (i * block) for i in range(s)]
    floor = min(16.0 * params.eta, 0.5) / 4.0
    floor_deg = (0.5 + params.eps / 2.0) * s - _EPS
    counts = _guard_shapes(G, _guard_picks(params.seed, s, block), floor_deg)
    density = sum(counts.values()) / _DENSITY_TRIALS
    diags: list = [("partition", {"block": block, "density": density,
                                  "floor": floor})]

    pattern = None
    # a floor below _EPS passes a guard that no sample inherited
    if counts and density >= floor - _EPS:
        pattern = Graph.from_edges(s, list(max(sorted(counts), key=counts.get)))
    blowups: list[Blowup] = []
    used = 0
    # every extraction searches the same frame, so its arrays are built once
    search = BlowupSearch(G, pattern, m1, parts) if pattern is not None else None
    while search is not None and not all(
            (pm & ~used).bit_count() < params.rho * block for pm in parts):
        b = search.find(avoid=used)
        if b is None:
            unused = [(pm & ~used).bit_count() for pm in parts]
            diags.append(("extraction-stalled", tuple(unused)))
            break
        blowups.append(b)
        used |= b.family.union_mask()
    uncovered = frozenset(v for v in range(n) if not (used >> v) & 1)
    if len(uncovered) > 2.0 * params.eta * n:
        diags.append(("uncovered-above-target", len(uncovered)))
    return CoverResult(n, tuple(blowups), uncovered, ALMOST, tuple(diags))


# ---------------------------------------------------------------------------
# splitting covered families into quasi-balanced ones


def _piece_band(params: CoverParams, n: int) -> tuple[int, int]:
    """Allowed non-singleton piece sizes for quasi families.

    The band rides the pickup scale m3 but is clamped into the declared
    certificate window (_declaration), whose upper bound every surviving
    cluster must respect.
    """
    _, _, m3 = params.scales(n)
    _, hi_cert = _declaration(params, n).size_bounds()
    lo = max(2, m3)
    hi = min(hi_cert, max(2 * m3, lo + 1))
    if hi < lo:
        raise ValueError("certificate band admits no piece size")
    return lo, hi


def _split_plan(sizes: Sequence[int], lo: int, hi: int):
    """Feasible (family count f, singleton quotas sigma) for cutting the
    clusters into f quasi families, each drawing one singleton from one
    cluster and a piece of size lo..hi from every other. None if no f works.

    Scans f downward so pieces land near the small end of the band, which
    keeps later donations viable.
    """
    total = sum(sizes)
    k = len(sizes)
    if k < 2 or lo < 2 or hi < lo:
        return None
    f_hi = total // (1 + (k - 1) * lo)
    f_lo = -(-total // (1 + (k - 1) * hi))
    for f in range(f_hi, max(1, f_lo) - 1, -1):
        if f < 1:
            break
        lows = []
        highs = []
        ok = True
        for sz in sizes:
            lb = max(0, -(-(lo * f - sz) // (lo - 1)))
            ub = (hi * f - sz) // (hi - 1)
            ub = min(ub, f)
            if ub < lb:
                ok = False
                break
            lows.append(lb)
            highs.append(ub)
        if not ok or sum(lows) > f or sum(highs) < f:
            continue
        sigma = list(lows)
        need = f - sum(sigma)
        for i in range(k):
            give = min(need, highs[i] - sigma[i])
            sigma[i] += give
            need -= give
        if need == 0:
            return f, sigma
    return None


def _split_family(clusters: Sequence[Sequence[int]], f: int,
                  sigma: Sequence[int]) -> list[list[list[int]]]:
    """Cut one covered family into f quasi families per the sigma plan.

    Cluster i gives its first sigma_i vertices as singletons and splits the
    rest into f - sigma_i near-equal pieces. Singleton ranges are laid out
    consecutively, so child k takes cluster i's singleton exactly when k
    falls in cluster i's range and a piece otherwise; each child ends up
    with exactly one singleton.
    """
    k = len(clusters)
    singles: list[list[int]] = []
    pieces: list[list[list[int]]] = []
    for i, cl in enumerate(clusters):
        vs = sorted(cl)
        singles.append(vs[: sigma[i]])
        rest = vs[sigma[i]:]
        cnt = f - sigma[i]
        out: list[list[int]] = []
        if cnt > 0:
            base, rem = divmod(len(rest), cnt)
            at = 0
            for p in range(cnt):
                size = base + (1 if p < rem else 0)
                out.append(rest[at: at + size])
                at += size
        pieces.append(out)
    starts = [0] * k
    acc = 0
    for i in range(k):
        starts[i] = acc
        acc += sigma[i]
    fams: list[list[list[int]]] = []
    next_piece = [0] * k
    for child in range(f):
        fam: list[list[int]] = []
        for i in range(k):
            if starts[i] <= child < starts[i] + sigma[i]:
                fam.append([singles[i][child - starts[i]]])
            else:
                fam.append(pieces[i][next_piece[i]])
                next_piece[i] += 1
        fams.append(fam)
    return fams


def _quasi_declaration(lo: int, hi: int) -> tuple[int, float]:
    m_q = (lo + hi + 1) // 2
    eta_q = max((m_q - lo) / m_q, (hi - m_q) / m_q) + _EPS
    return m_q, eta_q


# ---------------------------------------------------------------------------
# simple cover

# key of a cluster that cannot grow by one and keep a split plan
_NO_JOIN = (1 << 63) - 1


class _Fold:
    """The covered families and the leftover of one simple_blowup_cover call.

    The insert sweep's join keys and the pickup's live sizes only ask
    whether a family's cluster sizes keep a split plan. That answer does
    not depend on the order of the sizes (every per-cluster bound is a
    function of its own size, and the sigma fill closes whenever the
    bounds' sums bracket f), so it is memoised on the sorted sizes. The
    memo lives as long as the fold-in, not the process: a module-level
    plan cache raised peak memory.
    Over the host vertex ids, as Python int bitsets:
    - comp[fi][ci] is the AND of G.adj over cluster ci of family fi, the
      cluster's common neighbourhood CN: bit v says v is adjacent to all
      of the cluster;
    - okm[fi][ci] is the AND of comp over ci's reduced neighbours when
      ci can take one more vertex and keep a split plan, and 0 otherwise;
      union[fi] is the OR of okm[fi];
    - left is the leftover, the one set of vertices still to fold in.
    Only the bits of okm and union that are in left are ever read.
    keys[fi][ci] packs (cluster size, fi, ci) into one int, or is _NO_JOIN
    when ci cannot grow. An insert ANDs one row of G.adj into its cluster,
    a pickup recomputes the clusters it took from, and each rebuilds only
    its family's keys and masks. The pickup also reads owner (the cluster
    of each covered vertex) and covered (the union of the clusters), both
    kept current.
    """

    def __init__(self, G: Graph, fams: list[list[list[int]]], reds: Sequence[Graph],
                 leftover: Iterable[int], lo: int, hi: int):
        self.adj = G.adj
        self.fams = fams
        self.lo, self.hi = lo, hi
        self.memo: dict[tuple[int, ...], bool] = {}
        self.k = len(fams[0]) if fams else 0
        # near[fi][ci]: the clusters of family fi that are reduced neighbours
        # of ci, which a vertex joining ci must be complete to
        self.near = [[[cj for cj in range(self.k) if R.has_edge(ci, cj)]
                      for ci in range(self.k)] for R in reds]
        self.full = (1 << G.n) - 1
        self.left = mask_from(leftover)
        self.owner: list[tuple[int, int] | None] = [None] * G.n
        for fi, fam in enumerate(fams):
            for ci, cl in enumerate(fam):
                for v in cl:
                    self.owner[v] = (fi, ci)
        self.covered = mask_from(v for v, own in enumerate(self.owner) if own is not None)
        self.comp = [[self._complete(c) for c in fam] for fam in fams]
        self.keys: list[list[int]] = [[]] * len(fams)
        self.okm: list[list[int]] = [[]] * len(fams)
        self.union = [0] * len(fams)
        for fi in range(len(fams)):
            self._rebuild(fi)

    def feasible(self, sizes: Sequence[int]) -> bool:
        """Whether clusters of these sizes have a split plan."""
        key = tuple(sorted(sizes))
        ok = self.memo.get(key)
        if ok is None:
            ok = self.memo[key] = _split_plan(key, self.lo, self.hi) is not None
        return ok

    def sizes(self, fi: int) -> list[int]:
        return [len(c) for c in self.fams[fi]]

    def _complete(self, members: Sequence[int]) -> int:
        """The vertices adjacent to every vertex of members."""
        m = self.full
        for v in members:
            m &= self.adj[v]
        return m

    def _rebuild(self, fi: int) -> None:
        """Recompute family fi's join keys, join masks and their union."""
        sizes = self.sizes(fi)
        comp = self.comp[fi]
        keys: list[int] = []
        okm: list[int] = []
        union = 0
        for ci, near in enumerate(self.near[fi]):
            sizes[ci] += 1
            ok = self.feasible(sizes)
            sizes[ci] -= 1
            if ok:
                keys.append((sizes[ci] * len(self.fams) + fi) * self.k + ci)
                m = self.full
                for cj in near:
                    m &= comp[cj]
                union |= m
            else:
                keys.append(_NO_JOIN)
                m = 0
            okm.append(m)
        self.keys[fi], self.okm[fi], self.union[fi] = keys, okm, union

    def insert(self, fi: int, ci: int, u: int) -> None:
        """Put the leftover vertex u into cluster ci of family fi."""
        insort(self.fams[fi][ci], u)
        self.comp[fi][ci] &= self.adj[u]
        self.owner[u] = (fi, ci)
        self.covered |= 1 << u
        self._rebuild(fi)
        self.drop([u])

    def take_away(self, taken: int) -> None:
        """Remove the vertices of taken from every cluster."""
        hit: dict[int, set[int]] = {}
        for v in iter_bits(taken & self.covered):
            fi, ci = self.owner[v]
            self.owner[v] = None
            hit.setdefault(fi, set()).add(ci)
        self.covered &= ~taken
        for fi, cis in hit.items():
            for ci in cis:
                members = [v for v in self.fams[fi][ci] if not (taken >> v) & 1]
                self.fams[fi][ci] = members
                self.comp[fi][ci] = self._complete(members)
            self._rebuild(fi)

    def drop(self, vertices: Sequence[int]) -> None:
        """Mark vertices of the leftover as covered."""
        self.left &= ~mask_from(vertices)

    def insert_sweep(self) -> None:
        """Insert leftover vertices into clusters for free.

        A vertex complete to every cluster its target must join costs
        nothing, while a pickup steals (s-1) covered vertices. Each pass
        runs once over the leftover in order and puts every vertex it can
        into its least (size, fi, ci) cluster, reading the join masks as
        they stand after the pass's earlier insertions; a vertex blocked in
        a pass is retried in the next. Passes repeat until one inserts
        nothing.
        """
        if not self.fams:
            return
        F, k = len(self.fams), self.k
        while self.left:
            at = 0
            progress = False
            while True:
                free = 0
                for u in self.union:
                    free |= u
                free &= self.left >> at << at
                if not free:
                    break
                v = (free & -free).bit_length() - 1
                bit = 1 << v
                best = min(key for fi, u in enumerate(self.union) if u & bit
                           for key, m in zip(self.keys[fi], self.okm[fi]) if m & bit)
                self.insert(best // k % F, best % k, v)
                at = v + 1
                progress = True
            if not progress:
                break


def simple_blowup_cover(G: Graph, params: CoverParams) -> CoverResult:
    """Partition V(G) into quasi-balanced blow-up families.

    Runs the almost cover at scale m1, folds the leftover in (insertion
    into compatible clusters first, a pickup family around one root when
    insertion cannot place a vertex), then splits every covered family into
    quasi families by the singleton-creation scheme: one cluster of size
    one, the others as equal as possible inside the piece band. When
    folding stalls, the vertices still leftover are the late set L: the
    families are split all the same (every fold-in step keeps their split
    plans), and the SIMPLE cover returns L as its uncovered set with an
    endgame-stuck diagnostic.
    """
    n = G.n
    _, _, m3 = params.scales(n)
    lo_p, hi_p = _piece_band(params, n)

    base = almost_blowup_cover(G, params)
    diags = list(base.diagnostics)
    fams: list[list[list[int]]] = [
        [sorted(c) for c in B.family.clusters] for B in base.blowups]
    reds: list[Graph] = [B.reduced for B in base.blowups]
    quasi: list[Blowup] = []  # born-quasi pickup families, never split
    fold = _Fold(G, fams, reds, base.uncovered, lo_p, hi_p)

    # insertion and pickups interleave: each pickup reshapes the donor
    # families, which can unblock insertions that failed on split
    # arithmetic alone, so sweep again after every success. Pickup scale is
    # floored at 2 or the family would be all singletons.
    t_pick = max(2, m3)
    fold.insert_sweep()
    while fold.left:
        for u in iter_bits(fold.left):
            got = _pickup_direct(G, params, u, t_pick, fold, quasi)
            if got:
                fold.drop(got)
                break
        else:
            break
        fold.insert_sweep()

    if fold.left:
        diags.append(("endgame-stuck", fold.left.bit_count()))
    m_q, eta_q = _quasi_declaration(lo_p, hi_p)
    out: list[Blowup] = []
    for fi in range(len(fams)):
        plan = _split_plan(fold.sizes(fi), lo_p, hi_p)
        if plan is None:  # pragma: no cover - guarded at every mutation
            raise AssertionError("committed family lost its split plan")
        f, sigma = plan
        for child in _split_family(fams[fi], f, sigma):
            fam = SetFamily.of(child, BALANCE_QUASI, m=m_q, eta=eta_q)
            out.append(Blowup(reds[fi], fam))
    out.extend(quasi)
    return CoverResult(n, tuple(out), frozenset(iter_bits(fold.left)), SIMPLE, tuple(diags))


def _pickup_direct(G: Graph, params: CoverParams, root: int, t: int, fold: _Fold,
                   quasi: list[Blowup]) -> list[int]:
    """Build a pickup family for one root straight out of donor clusters.

    The root becomes the singleton of a new quasi family on K_s, and its
    s-1 other clusters of t vertices each come from the root's neighbours:
    covered vertices taken from their clusters, and uncovered ones, which
    join for free. A depth-first search fills the clusters in id order,
    keeping each pair of them completely joined. Every covered vertex it
    places is charged to a removal ledger, and the family it leaves is
    re-planned on the spot, so a find is committable as it stands. Pickup
    clusters need no internal edges, so a cluster may mix vertices of
    several donor clusters. Returns the uncovered vertices the new family
    takes in (root included), empty when the search fails or runs out of
    budget.
    """
    s = params.s
    cand = mask_indices((fold.covered | fold.left) & G.adj[root], G.n).tolist()
    k = s - 1
    need = k * t
    if len(cand) < need:
        return []
    clusters: list[list[int]] = [[] for _ in range(k)]
    masks = [0] * k
    owner = fold.owner
    # the removal ledger: each donor family's cluster sizes less what the
    # search has placed out of them
    live: dict[int, list[int]] = {}
    budget = 20_000

    def dfs(idx: int, filled: int) -> bool:
        # skipping a candidate moves idx on in this frame, so the depth is
        # at most one frame per placed vertex
        nonlocal budget
        if filled == need:
            return True
        while idx < len(cand) and len(cand) - idx >= need - filled:
            budget -= 1
            if budget <= 0:
                return False
            v = cand[idx]
            adj = G.adj[v]
            # no cluster changes between the tries of v, so the clusters v
            # is not complete to are found once
            miss = [l for l in range(k) if (adj & masks[l]) != masks[l]]
            for j in range(k):
                if len(clusters[j]) == t:
                    continue
                if miss and miss != [j]:
                    continue
                own = owner[v]
                if own is not None:
                    fi, ci = own
                    sizes = live.get(fi)
                    if sizes is None:
                        sizes = live[fi] = fold.sizes(fi)
                    sizes[ci] -= 1
                    ok = fold.feasible(sizes)
                else:
                    ok = True
                if ok:
                    clusters[j].append(v)
                    masks[j] |= 1 << v
                    if dfs(idx + 1, filled + 1):
                        return True
                    clusters[j].pop()
                    masks[j] &= ~(1 << v)
                if own is not None:
                    sizes[ci] += 1
                if not clusters[j]:
                    break  # empty clusters are interchangeable
            idx += 1
        return False

    if not dfs(0, 0):
        return []
    taken = 0
    for cl in clusters:
        taken |= mask_from(cl)
    fold.take_away(taken)
    out = [[root]] + [sorted(cl) for cl in clusters]
    fam = SetFamily.of(out, BALANCE_QUASI, m=t, eta=1.0 / t + _EPS)
    quasi.append(Blowup(Graph.complete(s), fam))
    return [root] + list(iter_bits(taken & fold.left))


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class PipelineFailure:
    """Stage name, iteration index when one applies, and a state summary."""

    stage: str
    index: int | None
    details: Any = None


def spanning_cycle_blowup(G: Graph, params: CoverParams):
    """Spanning cycle blow-up certificate of G, or a PipelineFailure.

    One pass: cover, absorb, connect, wind, then place the cover's late
    vertices (see _place_late). The resulting certificate is re-verified
    against G before it is returned, so a PASS is always independently
    checkable and a failure at any stage comes back as a PipelineFailure
    naming the stage. Hosts below N_FLOOR vertices raise ValueError
    (exhaustive search is the right tool there), and hosts below Dirac's
    bound, 2 delta(G) < n, fail at stage degree before any search.
    """
    n = G.n
    if n < N_FLOOR:
        raise ValueError(f"host order {n} below N_FLOOR = {N_FLOOR}")
    delta = min_degree(G)
    if 2 * delta < n:
        return PipelineFailure("degree", None, {"min_degree": delta})
    m1, m2, _ = params.scales(n)

    cover = simple_blowup_cover(G, params)
    if not cover.blowups:
        return PipelineFailure("cover", None,
                               {"uncovered": len(cover.uncovered),
                                "diagnostics": cover.diagnostics})
    cv = verify_cover(G, cover, params)
    if cv.status != PASS:
        return PipelineFailure("cover", None, {"verdict": cv})

    absorbed: list[AbsorbResult] = []
    for bi, B in enumerate(cover.blowups):
        try:
            absorbed.append(absorb_singleton(B))
        except AbsorptionError:
            return PipelineFailure("absorb", bi,
                                   {"sizes": [len(c) for c in B.family.clusters]})
    t = len(absorbed)

    clusters: list[list[list[int]]] = []
    cycles: list[tuple[int, ...]] = []
    for ar in absorbed:
        cls = [sorted(c) for c in ar.blowup.family.clusters]
        k = len(cls)
        C = ar.cycle
        # the exit is the largest cluster, the entry its larger cycle neighbour
        tail = max(range(k), key=lambda ci: (len(cls[ci]), -ci))
        pos = C.index(tail)
        after, before = C[(pos + 1) % k], C[pos - 1]
        if (len(cls[after]), -after) < (len(cls[before]), -before):
            C = C[::-1]
            pos = C.index(tail)
        cyc = C[pos + 1:] + C[:pos + 1]
        clusters.append(cls)
        cycles.append(cyc)
    entry = [cyc[0] for cyc in cycles]
    exit_ = [cyc[-1] for cyc in cycles]

    min_end = min(min(len(clusters[i][entry[i]]), len(clusters[i][exit_[i]]))
                  for i in range(t))
    m_conn = max(1, min(m2, min_end - 1))

    # connectors only remove vertices, so what a cluster has given is its
    # start size less its size now; the lists stay sorted throughout
    start = {(fj, cj): len(cl) for fj in range(t) for cj, cl in enumerate(clusters[fj])}
    pending = {(i, entry[i]) for i in range(t)} | {(i, exit_[i]) for i in range(t)}
    connectors: list[tuple[Sequence[int], Sequence[int], Sequence[int]]] = []
    cap = params.eta * m1
    owner = {v: (fj, cj) for fj in range(t) for cj, cl in enumerate(clusters[fj]) for v in cl}

    def donation(fj: int, cj: int) -> int:
        """Mask of the vertices cluster (fj, cj) may give to a middle side:
        its lowest ids less a reserve (one vertex, plus m_conn while it is
        an end that no connector has used), until it has given cap
        vertices."""
        cl = clusters[fj][cj]
        if start[fj, cj] - len(cl) >= cap:
            return 0
        room = len(cl) - 1 - (m_conn if (fj, cj) in pending else 0)
        return mask_from(cl[:room]) if room > 0 else 0

    # clusters are disjoint, so their donations are too; only the clusters a
    # connector touches change theirs
    donor = {(fj, cj): donation(fj, cj) for fj in range(t) for cj in range(len(clusters[fj]))}
    donated = 0
    for m in donor.values():
        donated |= m
    for i in range(t):
        nxt = (i + 1) % t
        tail_cl = clusters[i][exit_[i]]
        head_cl = clusters[nxt][entry[nxt]]
        k_trim = min(len(tail_cl), len(head_cl))
        if k_trim < m_conn:
            return PipelineFailure("connect", i, {"trim": k_trim})
        U = tail_cl[:k_trim]
        V = head_cl[:k_trim]
        pool = donated & ~donor[i, exit_[i]] & ~donor[nxt, entry[nxt]]
        # as a list: connect_clusters's np.fromiter takes 800 ids in about
        # 16 us from tolist and a list, against 38 us from the int64 array
        res = connect_clusters(G, U, V, mask_indices(pool, n).tolist(), m_conn,
                               eps=params.eps, node_budget=params.node_budget)
        if res is None:
            return PipelineFailure("connect", i,
                                   {"pool": pool.bit_count(), "trim": k_trim})
        W1, W3, W2 = res  # each sorted
        gone = mask_from(W1 + W2 + W3)
        ends = {(i, exit_[i]), (nxt, entry[nxt])}
        pending -= ends
        for key in ends | {owner[v] for v in W2}:
            fj, cj = key
            clusters[fj][cj] = [v for v in clusters[fj][cj] if not (gone >> v) & 1]
            m = donation(fj, cj)
            donated ^= donor[key] ^ m
            donor[key] = m
        connectors.append((W1, W2, W3))

    if any(not c for cls in clusters for c in cls):
        return PipelineFailure("connect", None, {"emptied_cluster": True})
    # wind: family i runs from connector i-1's landing side round its cycle,
    # entry cluster last, each cluster whole, to connector i's exit side and middle
    order: list[Sequence[int]] = []
    for i, cyc in enumerate(cycles):
        order.append(connectors[i - 1][2])
        order += [clusters[i][ci] for ci in cyc[1:] + cyc[:1]]
        order += connectors[i][:2]
    cert = _declaration(params, n, canonical_cycle(order))
    if cover.uncovered:
        cert = _place_late(G, cert, cover.uncovered)
        if isinstance(cert, PipelineFailure):
            return cert
    verdict = verify_cycle_blowup(G, cert)
    if verdict.status != PASS:
        return PipelineFailure("verify", None, {"verdict": verdict})
    return cert


def _place_late(G: Graph, cert: CycleBlowupCertificate, late):
    """cert with every late vertex put into a cycle cluster, or a
    PipelineFailure at stage late.

    The vertices go in increasing id, each into the smallest cluster (ties
    to the earlier position in cert's order) that holds fewer than the
    declared upper bound hi and whose two cyclic neighbours, as earlier
    placements left them, lie inside its neighbourhood; the cycle joins
    then stay complete. Each cluster is held as one mask, and the result
    is canonicalised from the masks once.
    """
    _, hi = cert.size_bounds()
    masks = [mask_from(c) for c in cert.clusters]
    k = len(masks)
    for v in sorted(late):
        adj = G.adj[v]
        fits = [i for i in range(k) if masks[i].bit_count() < hi
                and not masks[i - 1] & ~adj and not masks[(i + 1) % k] & ~adj]
        if not fits:
            return PipelineFailure("late", None, {"vertex": v, "late": len(late)})
        masks[min(fits, key=lambda i: masks[i].bit_count())] |= 1 << v
    return CycleBlowupCertificate(cert.n, cert.c, cert.eta,
                                  canonical_cycle([bits_list(m) for m in masks]))
