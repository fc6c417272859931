"""Blow-up covers of dense graphs and the spanning cycle pipeline.

A graph with minimum degree above n/2 admits a spanning structure built
from small blow-ups: almost all of the graph is covered by vertex-disjoint
blow-ups of a well-connected pattern, the leftover is folded in until the
blow-ups partition the vertex set into quasi-balanced families, each
family's singleton cluster is absorbed into a cycle through its reduced
graph, the families are linked into one ring by connector triples, and a
final winding pass lays the clusters out as a single certified cycle
blow-up. Every stage keeps enough bookkeeping that the end result
re-verifies from scratch against the host graph.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Sequence

from .bitset import iter_bits, mask_from, mask_indices, mask_words
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
from .seeding import draw_subset, mix, spawn, spawner

ALMOST = "ALMOST"
SIMPLE = "SIMPLE"

_EPS = 1e-9
# relabelled reruns of a failed pipeline run before its failure is returned
_RELABEL_RETRIES = 2


class AbsorptionError(RuntimeError):
    """No cycle position admits the singleton cluster."""


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class CoverParams:
    """Dials for the cover and cycle pipeline.

    The three scale coefficients set cluster sizes m_i = floor(c_i ln n):
    c1 the cover pieces, c2 the connectors and the certificate declaration,
    c3 the pickups. c1/c2 must be a positive integer; it caps the winding
    pass count. The certificate produced downstream declares bounds
    (c2, 4 eta). density_trials is the sample count of the partition
    density guard in almost_blowup_cover.
    """

    eps: float = 0.25
    s: int = 4
    c1: float = 1.2
    c2: float = 0.4
    c3: float = 0.4
    eta: float = 0.25
    n_floor: int = 50
    node_budget: int = 1_000_000
    restart_budget: int = 50
    density_trials: int = 192
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
        r = self.c1 / self.c2
        if abs(r - round(r)) > 1e-9 or round(r) < 1:
            raise ValueError("c1/c2 must be a positive integer")

    @property
    def ell(self) -> int:
        return round(self.c1 / self.c2)

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


# ---------------------------------------------------------------------------
# cover results


@dataclass(frozen=True)
class CoverResult:
    """Disjoint blow-ups plus the vertices they miss.

    kind SIMPLE promises an exact partition into quasi-balanced families;
    kind ALMOST only promises disjointness, with uncovered holding the
    exact complement. Diagnostics carry stall and skip records and never
    affect equality.
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
        if self.kind == SIMPLE:
            if self.uncovered:
                return Verdict(FAIL, "simple cover left vertices uncovered",
                               len(self.uncovered))
            if seen != full:
                return Verdict(FAIL, "simple cover is not spanning")
            for bi, B in enumerate(self.blowups):
                if B.family.kind != BALANCE_QUASI:
                    return Verdict(FAIL, "simple cover family not quasi", bi)
        else:
            if (seen | umask) != full:
                return Verdict(FAIL, "uncovered set is not the exact complement")
        return Verdict(PASS)


def verify_cover(G: Graph, result: CoverResult, params: CoverParams) -> Verdict:
    """Full invariant suite for a cover against its host.

    Checks the structural validate() plus, per blow-up: hosting (reduced
    edges realized as complete joins inside G), s reduced vertices, and
    reduced minimum degree at least (1/2 + eps/2) s.
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


def _canon_cycle_order(cycle: list[int]) -> tuple[int, ...]:
    # rotate to the smallest vertex, then take the lex-smaller direction
    k = len(cycle)
    i = cycle.index(min(cycle))
    fwd = tuple(cycle[(i + j) % k] for j in range(k))
    bwd = tuple(cycle[(i - j) % k] for j in range(k))
    return min(fwd, bwd)


def dirac_hamilton_cycle(R: Graph) -> tuple[int, ...] | None:
    """Hamilton cycle by rotation and extension, or None.

    Grows a path greedily, closes it through a crossing pair when both ends
    are saturated, and absorbs off-cycle vertices through any attachment
    point. On hosts with minimum degree >= n/2 the crossing pair always
    exists on a maximal path, so None is only possible below that degree.
    Raises on fewer than three vertices.
    """
    n = R.n
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    full = (1 << n) - 1
    path = [0]
    on_path = 1
    tried: set[int] = set()
    budget = 8 * n * n + 64
    while budget > 0:
        budget -= 1
        t = path[-1]
        free = R.adj[t] & ~on_path
        if free:
            v = (free & -free).bit_length() - 1
            path.append(v)
            on_path |= 1 << v
            tried.clear()
            continue
        # both ends saturated on the path; try to close it into a cycle
        head = path[0]
        cycle = None
        if R.has_edge(t, head):
            cycle = list(path)
        else:
            for i in range(1, len(path) - 1):
                if R.has_edge(head, path[i + 1]) and R.has_edge(path[i], t):
                    cycle = path[: i + 1] + path[i + 1 :][::-1]
                    break
        if cycle is not None:
            cmask = mask_from(cycle)
            if cmask == full:
                return _canon_cycle_order(cycle)
            # spin the cycle open at an attachment point and keep growing
            grown = False
            for idx, cv in enumerate(cycle):
                out = R.adj[cv] & ~cmask
                if out:
                    u = (out & -out).bit_length() - 1
                    path = cycle[idx + 1 :] + cycle[: idx + 1] + [u]
                    on_path = cmask | (1 << u)
                    tried.clear()
                    grown = True
                    break
            if grown:
                continue
            return None
        # rotate: pivot on a path neighbour of the tail, reversing the suffix
        rotated = False
        for i in range(len(path) - 2):
            if not R.has_edge(path[i], t):
                continue
            cand = path[i + 1]
            if cand in tried:
                continue
            tried.add(cand)
            path = path[: i + 1] + path[i + 1 :][::-1]
            rotated = True
            break
        if not rotated:
            return None
    return None


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

    The reduced graph loses the singleton's vertex, a Hamilton cycle C' of
    the remainder is found, and the scan looks for the first position j
    whose cluster and next-but-one cluster are both reduced neighbours of
    the removed vertex. The singleton then joins the cluster sitting
    between those two, which keeps both of its cycle joins complete. The
    merged family is declared within (1 +- 2 eta) of its scale (floored so
    the +1 always fits). Raises AbsorptionError when no cycle or no valid
    position exists.
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


def _inheriting_shape(G: Graph, pick: Sequence[int],
                      floor_deg: float) -> tuple[tuple[int, int], ...] | None:
    """Edges (a, b), a < b, of G[pick] labelled by position in pick, or
    None when some vertex of pick has fewer than floor_deg neighbours in
    pick. The vertices of pick must be distinct."""
    within = mask_from(pick)
    if any((G.adj[v] & within).bit_count() < floor_deg for v in pick):
        return None
    s = len(pick)
    return tuple((a, b) for a in range(s) for b in range(a + 1, s)
                 if G.has_edge(pick[a], pick[b]))


def _template_shape(G: Graph, parts: Sequence[Sequence[int]], eps: float,
                    rng, trials: int) -> Graph | None:
    """Most frequent labelled inheriting shape across sampled partite
    s-sets, or None when no sample inherits the degree property."""
    s = len(parts)
    counts: dict[tuple[tuple[int, int], ...], int] = {}
    floor_deg = (0.5 + eps / 2.0) * s - _EPS
    for _ in range(trials):
        key = _inheriting_shape(G, [part[rng.randrange(len(part))] for part in parts],
                                floor_deg)
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    if not counts:
        return None
    best = max(sorted(counts), key=lambda k: counts[k])
    return Graph.from_edges(s, list(best))


def almost_blowup_cover(G: Graph, params: CoverParams, *,
                        scale: int | None = None) -> CoverResult:
    """Cover most of G by disjoint blow-ups with exactly balanced clusters.

    The vertex set is cut into s blocks of floor(n/s) consecutive ids; the
    n mod s highest ids are left uncovered. One density guard decides
    whether the blocks are used: of density_trials sampled s-sets with one
    vertex per block, the fraction that inherits the degree condition must
    reach min(16 eta, 1/2) / 4. When it does, the most frequent inheriting
    shape across the blocks becomes the pattern, and framed extraction
    pulls blow-ups at the cover scale until the unused fraction of every
    block drops below rho. A rejected guard or a stall leaves a partial
    cover plus diagnostics, never an invalid structure. scale overrides the default cluster size
    m1 = floor(c1 ln n).
    """
    n = G.n
    s = params.s
    m1, _, _ = params.scales(n)
    t_scale = m1 if scale is None else scale
    if t_scale < 1:
        raise ValueError("cluster scale must be at least 1")

    block = n // s
    parts = [list(range(i * block, (i + 1) * block)) for i in range(s)]
    floor = min(16.0 * params.eta, 0.5) / 4.0
    floor_deg = (0.5 + params.eps / 2.0) * s - _EPS
    # the seed labels here, the one-vertex-per-block draw order, and the 0
    # in the shape and extract labels below are pinned by the golden
    # certificate digests
    guard_rng = spawner(mix(mix(params.seed, "cover", "tiling"), "reduced-edge", *range(s)),
                        "tuple-density")
    hits = 0
    for t in range(params.density_trials):
        rng = guard_rng(t)
        pick = [p[rng.randrange(len(p))] for p in parts]
        if _inheriting_shape(G, pick, floor_deg) is not None:
            hits += 1
    density = hits / params.density_trials
    diags: list = [("partition", {"block": block, "density": density,
                                  "floor": floor})]

    pattern = None
    if density >= floor - _EPS:
        pattern = _template_shape(G, parts, params.eps,
                                  spawn(params.seed, "cover", "shape", 0), 400)
        if pattern is None:
            diags.append(("no-inheriting-shape",))
    frame = SetFamily.of(parts, BALANCE_WITHIN, m=block, eta=1.0)
    blowups: list[Blowup] = []
    used = 0
    # every extraction searches the same frame, so its arrays are built once
    search = BlowupSearch(G, pattern, t_scale, frame) if pattern is not None else None
    while search is not None and not all(
            (pm & ~used).bit_count() < params.rho * len(p) for p, pm in zip(parts, frame.masks)):
        b = search.find(avoid=used, restart_budget=params.restart_budget,
                        seed=mix(params.seed, "cover", "extract", 0, len(blowups)))
        if b is None:
            unused = [(pm & ~used).bit_count() for pm in frame.masks]
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
    certificate window, whose upper bound floor((1 + 4 eta) c2 ln n) every
    surviving cluster must respect.
    """
    _, _, m3 = params.scales(n)
    hi_cert = int((1.0 + 4.0 * params.eta) * params.c2 * math.log(n) + _EPS)
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

# rank of a (family, leftover vertex) pair when no cluster of the family can
# take the vertex
_NO_JOIN = (1 << 63) - 1
# elements in the largest temporary array one rank rebuild allocates; the
# rebuild works through the stale entries in chunks that stay under it
_CHUNK = 1 << 14


def _runs(ids: Sequence[int], step: int):
    """(position, slice) pairs covering the sorted ids in order, each slice a
    run of consecutive ids at most max(1, step) long."""
    at = 0
    while at < len(ids):
        end = at + 1
        while end < len(ids) and end - at < step and ids[end] == ids[end - 1] + 1:
            end += 1
        yield at, slice(ids[at], ids[end - 1] + 1)
        at = end


class _Fold:
    """The covered families and the leftover of one simple_blowup_cover call.

    Every cluster keeps a bitmask that each change updates, and split plans
    are memoised by size tuple; the insert sweep's join ranks and the
    pickup's removal ledger both read them. Both live as long as the
    fold-in, not the process: a module-level plan cache raised peak memory.
    The rest is indexed by column j, the position of a vertex in the
    starting leftover, which only ever shrinks:
    - complete[fi, ci, j] says the vertex is adjacent to all of cluster ci
      of family fi;
    - rank[fi, j] is the least key (cluster size, fi, ci), packed into one
      int, over the clusters ci of family fi that can take one more vertex
      and keep a split plan, and whose reduced neighbours the vertex is
      complete to; _NO_JOIN when no cluster qualifies or the vertex is no
      longer leftover.
    A change to a cluster marks it and its family stale, and only stale
    entries are rebuilt.
    """

    def __init__(self, G: Graph, fams: list[list[list[int]]], reds: Sequence[Graph],
                 leftover: list[int], lo: int, hi: int):
        import numpy as np

        self.fams = fams
        self.masks = [[mask_from(c) for c in fam] for fam in fams]
        self.leftover = leftover
        self.lo, self.hi = lo, hi
        self.memo: dict[tuple[int, ...], Any] = {}
        self.k = len(fams[0]) if fams else 0
        # apart[fi, ci, cj]: clusters ci and cj of family fi are not reduced
        # neighbours, so a vertex joining ci need not be complete to cj
        self.apart = ~np.array([[[R.has_edge(a, b) for b in range(self.k)]
                                 for a in range(self.k)] for R in reds], dtype=bool)
        self.cols = list(leftover)
        self.col_of = {v: j for j, v in enumerate(leftover)}
        self.alive = np.ones(len(leftover), dtype=bool)
        self.rows = G.packed()[0][leftover]  # adjacency rows of the columns
        self.complete = np.empty((len(fams), self.k, len(leftover)), dtype=bool)
        self.rank = np.empty((len(fams), len(leftover)), dtype=np.int64)
        self.stale_clusters = {(fi, ci) for fi in range(len(fams)) for ci in range(self.k)}
        self.stale = set(range(len(fams)))

    def plan(self, sizes: Sequence[int]):
        key = tuple(sizes)
        if key not in self.memo:
            self.memo[key] = _split_plan(key, self.lo, self.hi)
        return self.memo[key]

    def sizes(self, fi: int) -> list[int]:
        return [len(c) for c in self.fams[fi]]

    def insert(self, fi: int, ci: int, u: int) -> None:
        """Put the leftover vertex u into cluster ci of family fi."""
        import numpy as np

        insort(self.fams[fi][ci], u)
        self.masks[fi][ci] |= 1 << u
        # the adjacency is symmetric, so bit u of each column's row says
        # whether that column stays complete to the grown cluster
        self.complete[fi, ci] &= (self.rows[:, u >> 6] & np.uint64(1 << (u & 63))) != 0
        self.stale.add(fi)
        self.drop([u])

    def take_away(self, taken: int) -> None:
        """Remove the vertices of taken from every cluster."""
        for fi, cms in enumerate(self.masks):
            for ci, cm in enumerate(cms):
                if cm & taken:
                    self.fams[fi][ci] = [v for v in self.fams[fi][ci] if not (taken >> v) & 1]
                    cms[ci] = cm & ~taken
                    self.stale_clusters.add((fi, ci))
                    self.stale.add(fi)

    def drop(self, vertices: Sequence[int]) -> None:
        """Mark vertices of the leftover as covered."""
        for v in vertices:
            self.leftover.remove(v)
            j = self.col_of[v]
            self.alive[j] = False
            self.rank[:, j] = _NO_JOIN

    def _join_keys(self, fi: int) -> list[int]:
        """The packed key of each cluster of family fi, or _NO_JOIN for a
        cluster that cannot grow by one and keep a split plan."""
        sizes = self.sizes(fi)
        keys = []
        for ci in range(self.k):
            sizes[ci] += 1
            ok = self.plan(sizes) is not None
            sizes[ci] -= 1
            keys.append((sizes[ci] * len(self.fams) + fi) * self.k + ci if ok else _NO_JOIN)
        return keys

    def _refresh(self) -> None:
        """Rebuild the stale clusters' completeness and the stale families'
        ranks over every column, many clusters or families per array pass."""
        import numpy as np

        if self.stale_clusters:
            k = self.k
            stale = sorted(fi * k + ci for fi, ci in self.stale_clusters)
            self.stale_clusters.clear()
            M = mask_words([self.masks[c // k][c % k] for c in stale], self.rows.shape[1])
            M = M[:, None, :]
            complete = self.complete.reshape(len(self.fams) * k, len(self.cols))
            for a, ids in _runs(stale, _CHUNK // max(1, self.rows.size)):
                m = M[a:a + ids.stop - ids.start]
                complete[ids] = ((self.rows & m) == m).all(axis=2)
        if self.stale:
            stale = sorted(self.stale)
            self.stale.clear()
            keys = np.array([self._join_keys(fi) for fi in stale], dtype=np.int64)
            for a, fs in _runs(stale, _CHUNK // max(1, self.complete[0].size * self.k)):
                ok = (self.complete[fs][:, None, :, :] | self.apart[fs][:, :, :, None]).all(axis=2)
                ok &= self.alive
                self.rank[fs] = np.where(ok, keys[a:a + fs.stop - fs.start, :, None],
                                         _NO_JOIN).min(axis=1)

    def insert_sweep(self) -> None:
        """Insert leftover vertices into clusters for free.

        A vertex complete to every cluster its target must join costs
        nothing, while a pickup steals (s-1) covered vertices. Each pass
        runs once over the leftover in order and puts every vertex it can
        into its least (size, fi, ci) cluster, reading the ranks as they
        stand after the pass's earlier insertions; a vertex blocked in a
        pass is retried in the next. Passes repeat until one inserts
        nothing.
        """
        import numpy as np

        if not self.fams:
            return
        F, k = len(self.fams), self.k
        while self.leftover:
            self._refresh()
            best = self.rank.min(axis=0)
            at = 0
            progress = False
            while True:
                hits = np.flatnonzero(best[at:] != _NO_JOIN)
                if not len(hits):
                    break
                j = at + int(hits[0])
                key = int(best[j])
                self.insert(key // k % F, key % k, self.cols[j])
                self._refresh()
                at = j + 1
                best[at:] = self.rank[:, at:].min(axis=0)
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
    folding stalls the partial cover comes back as kind ALMOST with
    diagnostics.
    """
    n = G.n
    m1, _, m3 = params.scales(n)
    lo_p, hi_p = _piece_band(params, n)

    base = almost_blowup_cover(G, params, scale=m1)
    diags = list(base.diagnostics)
    fams: list[list[list[int]]] = [
        [sorted(c) for c in B.family.clusters] for B in base.blowups]
    reds: list[Graph] = [B.reduced for B in base.blowups]
    quasi: list[Blowup] = []  # born-quasi pickup families, never split
    fold = _Fold(G, fams, reds, sorted(base.uncovered), lo_p, hi_p)
    leftover = fold.leftover

    # insertion and pickups interleave: each pickup reshapes the donor
    # families, which can unblock insertions that failed on split
    # arithmetic alone, so sweep again after every success. Pickup scale is
    # floored at 2 or the family would be all singletons.
    t_pick = max(2, m3)
    fold.insert_sweep()
    while leftover:
        for u in list(leftover):
            got = _pickup_direct(G, params, u, t_pick, fold, quasi)
            if got:
                fold.drop(got)
                break
        else:
            break
        fold.insert_sweep()

    if leftover:
        diags.append(("endgame-stuck", len(leftover)))
        blows = []
        for fi in range(len(fams)):
            # insertions may have grown clusters well past the extraction
            # scale; declare whatever spread is actually there
            spread = max(abs(len(c) - m1) / m1 for c in fams[fi])
            fam = SetFamily.of(fams[fi], BALANCE_WITHIN, m=m1,
                               eta=max(1.0, spread + _EPS))
            blows.append(Blowup(reds[fi], fam))
        return CoverResult(n, tuple(blows) + tuple(quasi),
                           frozenset(leftover), ALMOST, tuple(diags))

    m_q, eta_q = _quasi_declaration(lo_p, hi_p)
    out: list[Blowup] = []
    for fi in range(len(fams)):
        plan = fold.plan(fold.sizes(fi))
        if plan is None:  # pragma: no cover - guarded at every mutation
            raise AssertionError("committed family lost its split plan")
        f, sigma = plan
        for child in _split_family(fams[fi], f, sigma):
            fam = SetFamily.of(child, BALANCE_QUASI, m=m_q, eta=eta_q)
            out.append(Blowup(reds[fi], fam))
    out.extend(quasi)
    return CoverResult(n, tuple(out), frozenset(), SIMPLE, tuple(diags))


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
    nb = G.adj[root]
    owner: dict[int, tuple[int, int]] = {}
    for fi, cms in enumerate(fold.masks):
        for ci, cm in enumerate(cms):
            for v in iter_bits(cm & nb):
                owner[v] = (fi, ci)
    free = [v for v in fold.leftover if v != root and (nb >> v) & 1]
    cand = sorted(set(owner) | set(free))
    k = s - 1
    if len(cand) < k * t:
        return []
    clusters: list[list[int]] = [[] for _ in range(k)]
    masks = [0] * k
    removals: dict[tuple[int, int], int] = {}

    def family_ok(fi: int) -> bool:
        sizes = fold.sizes(fi)
        for (f2, c2), cnt in removals.items():
            if f2 == fi:
                sizes[c2] -= cnt
        return min(sizes) >= 0 and fold.plan(sizes) is not None

    budget = [20_000]

    def dfs(idx: int, filled: int) -> bool:
        if filled == k * t:
            return True
        if idx == len(cand) or len(cand) - idx < k * t - filled:
            return False
        budget[0] -= 1
        if budget[0] <= 0:
            return False
        v = cand[idx]
        adj = G.adj[v]
        for j in range(k):
            if len(clusters[j]) == t:
                continue
            if any(l != j and (adj & masks[l]) != masks[l] for l in range(k)):
                continue
            own = owner.get(v)
            if own is not None:
                removals[own] = removals.get(own, 0) + 1
                ok = family_ok(own[0])
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
                removals[own] -= 1
                if removals[own] == 0:
                    del removals[own]
            if not clusters[j]:
                break  # empty clusters are interchangeable
        return dfs(idx + 1, filled)

    if not dfs(0, 0):
        return []
    taken = 0
    for cl in clusters:
        taken |= mask_from(cl)
    fold.take_away(taken)
    out = [[root]] + [sorted(cl) for cl in clusters]
    fam = SetFamily.of(out, BALANCE_QUASI, m=t, eta=1.0 / t + _EPS)
    quasi.append(Blowup(Graph.complete(s), fam))
    return [root] + [v for v in free if (taken >> v) & 1]


# ---------------------------------------------------------------------------
# winding


@dataclass(frozen=True)
class WoundPiece:
    """One family ready for winding.

    clusters are the post-carving vertex groups; cycle lists cluster
    indices in traversal order, entry cluster first and exit cluster last,
    with every consecutive pair (cyclically) a reduced edge.
    """

    reduced: Graph
    clusters: tuple[tuple[int, ...], ...]
    cycle: tuple[int, ...]


def subdivide_and_wind(pieces: Sequence[WoundPiece],
                       connectors: Sequence[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]],
                       ell: int, *, n: int, c: float, eta: float) -> CycleBlowupCertificate:
    """Wind the pieces into one certified cycle blow-up.

    Each cluster is cut into ell near-equal sub-clusters; pass p of the
    traversal visits the p-th sub-cluster of every cycle position, entering
    after the previous connector's landing side and leaving through this
    piece's exit into its connector (exit side, middle, landing side).
    Connector i joins piece i to piece i+1, cyclically; with one piece its
    own connector closes the ring. The certificate declares bounds (c, eta)
    over the host order n. Malformed connectors raise with the offending
    index.
    """
    t = len(pieces)
    if t == 0:
        raise ValueError("nothing to wind")
    if len(connectors) != t:
        raise ValueError("connector endpoint mismatch: need one connector per piece")
    if ell < 1:
        raise ValueError("pass count must be at least 1")
    used = 0
    for i, con in enumerate(connectors):
        if len(con) != 3 or any(len(side) == 0 for side in con):
            raise ValueError(f"connector endpoint mismatch at {i}")
        for side in con:
            sm = mask_from(side)
            if sm & used:
                raise ValueError(f"connector endpoint mismatch at {i}")
            used |= sm
    order: list[tuple[int, ...]] = []
    for i, piece in enumerate(pieces):
        k = len(piece.clusters)
        cyc = piece.cycle
        if sorted(cyc) != list(range(k)):
            raise ValueError(f"piece {i} cycle is not a permutation of its clusters")
        for a in range(k):
            u, v = cyc[a], cyc[(a + 1) % k]
            if not piece.reduced.has_edge(u, v):
                raise ValueError(f"piece {i} cycle skips a reduced edge")
        parts: list[list[tuple[int, ...]]] = []
        for ci, cl in enumerate(piece.clusters):
            vs = sorted(cl)
            if len(vs) < ell:
                raise ValueError(f"cluster too small to subdivide (piece {i}, cluster {ci})")
            if mask_from(vs) & used:
                raise ValueError(f"piece {i} overlaps a connector or earlier piece")
            used |= mask_from(vs)
            base, rem = divmod(len(vs), ell)
            cuts = []
            at = 0
            for p in range(ell):
                size = base + (1 if p < rem else 0)
                cuts.append(tuple(vs[at: at + size]))
                at += size
            parts.append(cuts)
        prev = connectors[(i - 1) % t]
        order.append(tuple(sorted(prev[2])))
        walk = list(cyc[1:]) + [cyc[0]]
        for p in range(ell):
            for ci in walk:
                order.append(parts[ci][p])
        con = connectors[i]
        order.append(tuple(sorted(con[0])))
        order.append(tuple(sorted(con[1])))
    return CycleBlowupCertificate(n, c, eta, canonical_cycle(order))


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

    Cover, absorb, connect, wind; the resulting certificate is re-verified
    against G before it is returned, so a PASS is always independently
    checkable and a failure at any stage comes back as a PipelineFailure
    naming the stage. A failed run is retried on up to _RELABEL_RETRIES
    copies of G relabelled by permutations drawn from params.seed; a
    certificate found there is mapped back and re-verified against G. When
    every retry fails too, the first failure is returned. Hosts below the
    configured order floor are refused outright (exhaustive search is the
    right tool there).
    """
    if G.n < params.n_floor:
        raise ValueError("host order below n_floor")
    first = _solve(G, params)
    if not isinstance(first, PipelineFailure):
        return first
    for k in range(_RELABEL_RETRIES):
        perm = draw_subset(spawn(params.seed, "relabel", k), range(G.n), G.n)
        res = _solve(G.relabel(perm), params)
        if isinstance(res, PipelineFailure):
            continue
        name_of = [0] * G.n
        for v, pv in enumerate(perm):
            name_of[pv] = v
        back = [[name_of[v] for v in c] for c in res.clusters]
        cert = CycleBlowupCertificate(res.n, res.c, res.eta, canonical_cycle(back))
        if verify_cycle_blowup(G, cert).status == PASS:
            return cert
    return first


def _solve(G: Graph, params: CoverParams):
    """One pass of the pipeline over G as labelled; see spanning_cycle_blowup."""
    n = G.n
    m1, m2, _ = params.scales(n)

    cover = simple_blowup_cover(G, params)
    if cover.kind != SIMPLE:
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
    if t == 0:
        return PipelineFailure("cover", None, {"empty": True})

    clusters: list[list[list[int]]] = []
    cycles: list[tuple[int, ...]] = []
    entry: list[int] = []
    exit_: list[int] = []
    for ar in absorbed:
        cls = [sorted(c) for c in ar.blowup.family.clusters]
        k = len(cls)
        C = ar.cycle
        tail = max(range(k), key=lambda ci: (len(cls[ci]), -ci))
        pos = C.index(tail)
        after = C[(pos + 1) % k]
        before = C[(pos - 1) % k]
        if (len(cls[after]), -after) >= (len(cls[before]), -before):
            cyc = tuple(C[(pos + 1 + j) % k] for j in range(k))
        else:
            rev = tuple(reversed(C))
            pos = rev.index(tail)
            cyc = tuple(rev[(pos + 1 + j) % k] for j in range(k))
        clusters.append(cls)
        cycles.append(cyc)
        entry.append(cyc[0])
        exit_.append(cyc[-1])

    min_end = min(min(len(clusters[i][entry[i]]), len(clusters[i][exit_[i]]))
                  for i in range(t))
    m_conn = max(1, min(m2, min_end - 1))

    carve: dict[tuple[int, int], int] = {}
    pending = {(i, entry[i]) for i in range(t)} | {(i, exit_[i]) for i in range(t)}
    K_mask = 0
    connectors: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = []
    cap = params.eta * m1
    owner = {v: (fj, cj) for fj in range(t) for cj, cl in enumerate(clusters[fj]) for v in cl}

    def donation(fj: int, cj: int) -> int:
        """Mask of the vertices cluster (fj, cj) may give to a middle side:
        its lowest ids, less a reserve, until its carve count reaches cap."""
        if carve.get((fj, cj), 0) >= cap:
            return 0
        reserve = 1 + (m_conn if (fj, cj) in pending else 0)
        room = len(clusters[fj][cj]) - reserve
        return mask_from(sorted(clusters[fj][cj])[:room]) if room > 0 else 0

    # clusters are disjoint, so their donations are too; only the clusters a
    # connector carves change theirs
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
        U = sorted(tail_cl)[:k_trim]
        V = sorted(head_cl)[:k_trim]
        pool = donated & ~donor[i, exit_[i]] & ~donor[nxt, entry[nxt]]
        res = connect_clusters(G, U, V, mask_indices(pool, n).tolist(), m_conn,
                               eps=params.eps, node_budget=params.node_budget)
        if res is None:
            return PipelineFailure("connect", i,
                                   {"pool": pool.bit_count(), "trim": k_trim})
        W1, W3, W2 = sorted(res[0]), sorted(res[1]), sorted(res[2])
        w1m, w2m, w3m = mask_from(W1), mask_from(W2), mask_from(W3)
        clusters[i][exit_[i]] = [v for v in tail_cl if not (w1m >> v) & 1]
        carve[(i, exit_[i])] = carve.get((i, exit_[i]), 0) + len(W1)
        pending.discard((i, exit_[i]))
        clusters[nxt][entry[nxt]] = [v for v in head_cl if not (w3m >> v) & 1]
        carve[(nxt, entry[nxt])] = carve.get((nxt, entry[nxt]), 0) + len(W3)
        pending.discard((nxt, entry[nxt]))
        for v in W2:
            fj, cj = owner[v]
            clusters[fj][cj] = [x for x in clusters[fj][cj] if x != v]
            carve[(fj, cj)] = carve.get((fj, cj), 0) + 1
        for key in {(i, exit_[i]), (nxt, entry[nxt])} | {owner[v] for v in W2}:
            m = donation(*key)
            donated ^= donor[key] ^ m
            donor[key] = m
        K_mask |= w1m | w2m | w3m
        connectors.append((tuple(W1), tuple(W2), tuple(W3)))

    k_size = K_mask.bit_count()
    over = sum(1 for cnt in carve.values() if cnt >= cap)
    telemetry = {"connector_vertices": k_size,
                 "connector_budget": 3 * t * m2,
                 "overused_clusters": over,
                 "overused_budget": 2.0 * k_size / params.eta}
    if k_size > 3 * t * m2 or over > telemetry["overused_budget"]:
        return PipelineFailure("connect", None, telemetry)

    min_cluster = min(len(c) for cls in clusters for c in cls)
    if min_cluster < 1:
        return PipelineFailure("connect", None, {"emptied_cluster": True})
    ell = max(1, min(params.ell, min_cluster))
    pieces = [WoundPiece(absorbed[i].blowup.reduced,
                         tuple(tuple(c) for c in clusters[i]), cycles[i])
              for i in range(t)]
    cert = subdivide_and_wind(pieces, connectors, ell,
                              n=n, c=params.c2, eta=4.0 * params.eta)
    verdict = verify_cycle_blowup(G, cert)
    if verdict.status != PASS:
        return PipelineFailure("verify", None, {"verdict": verdict})
    return cert
