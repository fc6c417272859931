"""Command line front end: instance generation, the spanning pipeline,
certificate verification, the individual search routines, and experiment
sweeps with CSV emission for cluster-size-versus-log-n studies.

Exit codes: 0 when the requested structure was produced or verified, 2 on
failure or refusal, with diagnostics on standard error. All output except
wall-clock columns is byte-deterministic given the same arguments.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import combinations
from pathlib import Path

from .blowup_search import connect_clusters
from .core import (
    CycleBlowupCertificate,
    Graph,
    graph_from_file,
    graph_to_text,
    verify_cycle_blowup,
)
from .cover import (
    N_FLOOR,
    PRESETS,
    PipelineFailure,
    almost_blowup_cover,
    simple_blowup_cover,
    spanning_cycle_blowup,
    verify_cover,
)
from .generators import (
    CLIQUE_UNION_PLUS,
    DIRAC_EXTREMAL,
    GNP_REPAIRED,
    GeneratorSpec,
    generate,
)
from .lemmas import (
    BicliqueRequest,
    Hypergraph,
    PropertySpec,
    find_biclique,
    hypergraph_perfect_matching,
    inherits_degree,
    property_degree_estimate,
)

SCHEMA_LINE = "# schema=1"
ROW_HEADER = "n,seed,preset,outcome,clusters,size_mode,c_effective,wall_ms"

_KINDS = {
    "gnp": GNP_REPAIRED,
    "dirac": DIRAC_EXTREMAL,
    "cliques": CLIQUE_UNION_PLUS,
}

# flags that several subcommands share; each subcommand takes those it reads
_SHARED = {
    "--seed": dict(type=int, default=0,
                   help="base seed for every random choice (default 0)"),
    "--preset": dict(default="desk", help="parameter preset name (default desk)"),
    "--budget": dict(type=int, default=None, help="search node budget override"),
    "--out": dict(default=None, help="output file (default standard output)"),
}


def _preset(args):
    """The preset named by --preset; an unknown name ends the command with
    exit code 2."""
    if args.preset not in PRESETS:
        print(f"refused: unknown preset {args.preset!r}", file=sys.stderr)
        raise SystemExit(2)
    return PRESETS[args.preset]


def _budget(args, default):
    """--budget, or default when it is not given; a negative one ends the
    command with exit code 2."""
    if args.budget is None:
        return default
    if args.budget < 0:
        print(f"refused: --budget must be nonnegative, got {args.budget}", file=sys.stderr)
        raise SystemExit(2)
    return args.budget


def _write(path: str, text: str) -> None:
    """Write text to path; an unwritable path ends the command with exit
    code 2."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write(args.out, text)


def _read_graph(path: str) -> Graph:
    """Parse a graph file; an unreadable or malformed one, or one whose
    adjacency matrix does not fit in memory, ends the command with exit
    code 2."""
    try:
        return graph_from_file(path)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"bad graph file {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _id_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"bad id list {raw!r}") from None


def _int_range(raw: str) -> list[int]:
    """Comma list, or a:b (exclusive), or a:b:step."""
    if ":" not in raw:
        return _id_list(raw)
    parts = raw.split(":")
    try:
        if len(parts) in (2, 3):
            return list(range(*map(int, parts)))  # a zero step raises too
    except ValueError:
        pass
    raise ValueError(f"bad range {raw!r}")


# ---------------------------------------------------------------------------
# experiment rows


def _modal_size(clusters) -> int:
    counts = Counter(len(c) for c in clusters)
    best = max(counts.values())
    return min(sz for sz, cnt in counts.items() if cnt == best)


def experiment_row(n: int, seed: int, preset: str, result, wall_s: float) -> str:
    """One CSV row; FAILURE rows carry the stage label and leave the size
    columns empty so the schema stays fixed."""
    wall = f"{wall_s * 1000.0:.1f}"
    if isinstance(result, PipelineFailure):
        return f"{n},{seed},{preset},FAILURE:{result.stage},,,,{wall}"
    if isinstance(result, Exception):
        return f"{n},{seed},{preset},ERROR:{type(result).__name__},,,,{wall}"
    size = _modal_size(result.clusters)
    c_eff = size / math.log(n)
    return (f"{n},{seed},{preset},PASS,{len(result.clusters)},"
            f"{size},{c_eff:.6f},{wall}")


def _run_cell(cell) -> tuple[tuple[int, int], str]:
    """One sweep row. Its wall clock times the solve alone, as solve --csv
    does; a host that fails to generate gets 0.0."""
    n, seed, preset_name, kind, p, delta_frac, pieces = cell
    t0 = None
    try:
        spec = GeneratorSpec(kind=kind, n=n, p=p,
                             delta_target=math.ceil(delta_frac * n),
                             seed=seed, pieces=pieces)
        G = generate(spec)
        t0 = time.perf_counter()
        result = spanning_cycle_blowup(G, PRESETS[preset_name])
    except Exception as exc:  # surfaced in the row, the sweep continues
        wall = 0.0 if t0 is None else time.perf_counter() - t0
        return (n, seed), experiment_row(n, seed, preset_name, exc, wall)
    return (n, seed), experiment_row(n, seed, preset_name, result,
                                     time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    kind = _KINDS[args.kind]
    spec = GeneratorSpec(kind=kind, n=args.n, p=args.p,
                         delta_target=args.delta_target, seed=args.seed,
                         overlap=args.overlap, pieces=args.pieces)
    try:
        text = graph_to_text(generate(spec))
    except ValueError as exc:  # bad parameters
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"refused: a host of order {args.n} does not fit in memory", file=sys.stderr)
        return 2
    _emit(args, text)
    return 0


def cmd_solve(args) -> int:
    preset = _preset(args)
    params = replace(preset, seed=args.seed,
                     node_budget=_budget(args, preset.node_budget))
    G = _read_graph(args.graph)
    if G.n < N_FLOOR:
        print(f"refused: host order {G.n} below {N_FLOOR}; at this order run an "
              "exhaustive cycle search directly", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    result = spanning_cycle_blowup(G, params)
    wall = time.perf_counter() - t0
    if args.csv is not None:
        row = experiment_row(G.n, args.seed, args.preset, result, wall)
        _write(args.csv, f"{SCHEMA_LINE}\n{ROW_HEADER}\n{row}\n")
    if isinstance(result, PipelineFailure):
        print(f"FAILURE stage={result.stage} index={result.index} "
              f"details={result.details}", file=sys.stderr)
        return 2
    verdict = verify_cycle_blowup(G, result)
    if verdict.status != "PASS":  # pragma: no cover - pipeline re-verifies
        print(f"FAILURE certificate did not verify: {verdict.reason}",
              file=sys.stderr)
        return 2
    _emit(args, result.to_json())
    return 0


def cmd_verify(args) -> int:
    G = _read_graph(args.graph)
    try:
        cert = CycleBlowupCertificate.from_json(Path(args.certificate).read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # ValueError covers bad JSON and bad numbers, KeyError a missing
        # field, TypeError a field of the wrong JSON type
        print(f"bad certificate file {args.certificate}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    verdict = verify_cycle_blowup(G, cert)
    if verdict.status == "PASS":
        print("PASS")
        return 0
    print(f"FAIL {verdict.reason} {verdict.witness}", file=sys.stderr)
    return 2


def cmd_cover(args) -> int:
    params = replace(_preset(args), seed=args.seed)
    G = _read_graph(args.graph)
    try:
        params.scales(G.n)
    except ValueError as exc:  # a host too small for the cluster scales
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    run = simple_blowup_cover if args.mode == "simple" else almost_blowup_cover
    result = run(G, params)
    verdict = verify_cover(G, result, params)
    lines = [
        f"kind {result.kind}",
        f"families {len(result.blowups)}",
        f"uncovered {len(result.uncovered)}",
        f"verify {verdict.status}",
    ]
    _emit(args, "\n".join(lines))
    return 0 if verdict.status == "PASS" else 2


def cmd_connect(args) -> int:
    params = _preset(args)
    node_budget = _budget(args, params.node_budget)
    G = _read_graph(args.graph)
    try:
        U = _id_list(args.side_a)
        V = _id_list(args.side_b)
        if args.pool is not None:
            W = _id_list(args.pool)
        else:
            used = set(U) | set(V)
            W = [v for v in range(G.n) if v not in used]
        res = connect_clusters(G, U, V, W, args.m_prime, eps=params.eps,
                               node_budget=node_budget)
    except ValueError as exc:  # unreadable, overlapping, unbalanced or out-of-host sides
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if res is None:
        print("FAILURE no connecting triple", file=sys.stderr)
        return 2
    up, vp, wp = res
    _emit(args, "\n".join(",".join(map(str, sorted(side)))
                          for side in (up, vp, wp)))
    return 0


def cmd_biclique(args) -> int:
    node_budget = _budget(args, None)
    G = _read_graph(args.graph)
    try:
        if (args.side_a is None) != (args.side_b is None):
            raise ValueError("give both --side-a and --side-b, or neither")
        if args.side_a is not None:
            A = _id_list(args.side_a)
            B = _id_list(args.side_b)
        else:
            A = list(range(G.n // 2))
            B = list(range(G.n // 2, G.n))
        req = BicliqueRequest.of(G, A, B, args.p)
    except ValueError as exc:  # unreadable, overlapping or out-of-host sides, or a bad p
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    found = find_biclique(req, node_budget=node_budget)
    if found is None:
        print("NONE")
        return 2
    a, b = found
    _emit(args, ",".join(map(str, sorted(a))) + "\n"
          + ",".join(map(str, sorted(b))))
    return 0


def cmd_match(args) -> int:
    params = _preset(args)
    G = _read_graph(args.graph)
    s = args.s if args.s is not None else params.s
    try:
        spec = PropertySpec(G, s, params.eps)  # refuses s outside 2..n
        edges = [S for S in combinations(range(G.n), s) if inherits_degree(spec, S)]
        P = Hypergraph.from_edges(s, range(G.n), edges)
        matching = hypergraph_perfect_matching(P, seed=args.seed)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if matching is None:
        print("NONE", file=sys.stderr)
        return 2
    _emit(args, "\n".join(",".join(map(str, e)) for e in matching.edges))
    return 0


def cmd_inherit_scan(args) -> int:
    params = _preset(args)
    G = _read_graph(args.graph)
    lines = [SCHEMA_LINE, "vertex,successes,trials,estimate"]
    try:
        spec = PropertySpec(G, params.s, params.eps)
        for v in range(G.n):
            est = property_degree_estimate(spec, v, args.trials, seed=args.seed)
            lines.append(f"{v},{est.successes},{est.trials},{est.estimate:.6f}")
    except ValueError as exc:  # a host below s vertices, or fewer than one trial
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    _emit(args, "\n".join(lines))
    return 0


def cmd_sweep(args) -> int:
    _preset(args)
    try:
        ns = _int_range(args.ns)
        seeds = _int_range(args.seeds)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if not ns or not seeds:
        print("error: nonempty ranges of n and seeds required",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"refused: --workers {args.workers} below 1", file=sys.stderr)
        return 2
    kind = _KINDS[args.kind]
    cells = [(n, seed, args.preset, kind, args.p, args.delta_frac,
              args.pieces) for n in ns for seed in seeds]
    rows: dict[tuple[int, int], str] = {}
    # the pool starts every worker at once, so no more than there are cells
    # and cores to run them
    workers = min(args.workers, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for key, row in pool.map(_run_cell, cells):
                rows[key] = row
    else:
        for cell in cells:
            key, row = _run_cell(cell)
            rows[key] = row
    lines = [SCHEMA_LINE, ROW_HEADER]
    lines.extend(rows[key] for key in sorted(rows))
    _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix of a long flag is not a second
    # spelling of it
    parser = argparse.ArgumentParser(
        prog="cyclecover",
        description="cycle blow-up pipeline tools", allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *shared):
        p = subs.add_parser(name, help=help, allow_abbrev=False)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, "emit a test instance", "--seed", "--out")
    p.add_argument("--kind", choices=sorted(_KINDS), default="gnp")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--delta-target", type=int, default=None)
    p.add_argument("--overlap", type=int, default=None)
    p.add_argument("--pieces", type=int, default=3)

    p = command("solve", cmd_solve, "full spanning pipeline on a graph file",
                "--seed", "--preset", "--budget", "--out")
    p.add_argument("graph")
    p.add_argument("--csv", default=None, help="also write a telemetry row")

    p = command("verify", cmd_verify, "check a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate")

    p = command("cover", cmd_cover, "blow-up cover of a graph file",
                "--seed", "--preset", "--out")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("almost", "simple"), default="simple")

    p = command("connect", cmd_connect, "3-cluster connection between two sets",
                "--preset", "--budget", "--out")
    p.add_argument("graph")
    p.add_argument("--side-a", required=True, help="comma separated ids")
    p.add_argument("--side-b", required=True)
    p.add_argument("--pool", default=None,
                   help="middle pool (default: everything else)")
    p.add_argument("--m-prime", type=int, default=2)

    p = command("biclique", cmd_biclique, "balanced complete bipartite search",
                "--budget", "--out")
    p.add_argument("graph")
    p.add_argument("--side-a", default=None)
    p.add_argument("--side-b", default=None)
    p.add_argument("-p", type=int, default=2)

    p = command("match", cmd_match, "perfect matching of the property hypergraph",
                "--seed", "--preset", "--out")
    p.add_argument("graph")
    p.add_argument("--s", type=int, default=None)

    p = command("inherit-scan", cmd_inherit_scan, "per-vertex inheritance estimates",
                "--seed", "--preset", "--out")
    p.add_argument("graph")
    p.add_argument("--trials", type=int, default=2000)

    p = command("sweep", cmd_sweep, "pipeline runs over (n, seed) grid",
                "--preset", "--out")
    p.add_argument("--ns", required=True,
                   help="orders: comma list or a:b[:step]")
    p.add_argument("--seeds", required=True,
                   help="seeds: comma list or a:b[:step]")
    p.add_argument("--kind", choices=sorted(_KINDS), default="gnp")
    p.add_argument("--p", type=float, default=0.97)
    p.add_argument("--delta-frac", type=float, default=0.75)
    p.add_argument("--pieces", type=int, default=3)
    p.add_argument("--workers", type=int, default=1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
