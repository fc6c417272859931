"""Benchmark of the cyclecover solve pipeline and of certificate audits.

Usage, from the root of a source checkout (the package is imported from
./src, never from an installed copy):

    python3 bench/run.py --workload dense-300 --seed 0 --seconds 40 --trace 0

``--workload all`` runs every workload in turn in this one process. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones, measured with no tracing installed; with ``--trace 1``
they are the per-layer ones, from spans recorded around calls into the
package (see tracer.py), plus the tracing overhead. The process exits with 1
when a returned certificate fails re-verification, its JSON round trip, or
a determinism check; a solve that fails honestly (a PipelineFailure or an
exception) is a failed operation, not an incorrect output.

Workloads, metric definitions and the first baseline are in NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _cap_threads() -> int:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, ""))
        except ValueError:
            cur = NPROC
        os.environ[var] = str(max(1, min(cur, NPROC)))
    return int(os.environ["OMP_NUM_THREADS"])


THREAD_CAP = _cap_threads()

# on the solve workloads a certificate is audited at least this many times in
# a row, and for at least this share of its solve time, each time against a
# Graph object that was never used before; a few milliseconds of audits would
# catch one speed level of the machine, a fifth of the solve spans several
AUDIT_REPEATS = 5
AUDIT_SHARE = 0.2
GRAPH_SEED_STRIDE = 10_000  # graph seed of instance i under run seed s: s*stride + i
# share of an audit-workload run spent preparing hosts (at least three), so
# solve_s and setup_s there rest on more than three samples
AUDIT_SETUP_SHARE = 0.4
# audits cycle over the first this many distinct prepared hosts; later ones
# are dropped, so that memory does not depend on how many hosts a run has
# time to prepare
AUDIT_POOL = 3


class Clock:
    """Run deadline. An instance of some kind starts only if one as long as
    the last finished instance of that kind still ends before the deadline,
    so a run lasts about --seconds even when an instance takes several."""

    def __init__(self, seconds: float):
        self.start = self.mark = time.perf_counter()
        self.seconds = seconds
        self.last: dict[str, float] = {}

    def lap(self, kind: str = "instance") -> float:
        """Call when an instance has finished; returns its duration."""
        now = time.perf_counter()
        self.last[kind], self.mark = now - self.mark, now
        return self.last[kind]

    def room(self, kind: str = "instance") -> bool:
        return time.perf_counter() + self.last.get(kind, 0.0) <= self.start + self.seconds


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: float
    delta_frac: float
    audit: bool = False

    def graph_seed(self, seed: int, index: int) -> int:
        return seed * GRAPH_SEED_STRIDE + index


# GNP_REPAIRED hosts with delta = ceil(delta_frac * n); why each one is here,
# and which layer it loads, is in BENCHMARK.json and NOTES.md
WORKLOADS = {w.name: w for w in (
    Workload("dense-300", 300, 0.97, 0.75),
    Workload("sparse-600", 600, 0.8, 0.7),
    Workload("audit-1000", 1000, 0.97, 0.75, audit=True),
)}

# end-to-end metric -> unit, in the order they are printed
END_TO_END = {
    "solve_s": "s",
    "pass_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "audit_s": "s",
    "cert.c_eff": "ratio",
    "cert.min_size": "vertices",
}

# per-layer metric -> unit. "<module>.<function>.<field>" reads that field of
# the function's spans; "<module>.self_s" sums the self time of every span of
# the module. All are medians over traced instances, except hit_ratio, which
# pools calls over the run.
PER_LAYER = {
    "tiling.almost_perfect_tiling.s": "s",
    "tiling.almost_perfect_tiling.self_s": "s",
    "tiling.tuple_density.calls": "count",
    "tiling.tuple_density.s": "s",
    "tiling.tuple_density.self_s": "s",
    "seeding.random_constructions": "count",
    "blowup_search.find_blowup.calls": "count",
    "blowup_search.find_blowup.s": "s",
    "blowup_search.find_blowup.self_s": "s",
    "blowup_search.find_blowup.hit_ratio": "ratio",
    "blowup_search.rooted_blowup.calls": "count",
    "blowup_search.rooted_blowup.s": "s",
    "blowup_search.rooted_blowup.self_s": "s",
    "blowup_search.rooted_blowup.hit_ratio": "ratio",
    "blowup_search.connect_clusters.calls": "count",
    "blowup_search.connect_clusters.s": "s",
    "blowup_search.connect_clusters.self_s": "s",
    "blowup_search.connect_clusters.hit_ratio": "ratio",
    "cover.spanning_cycle_blowup.s": "s",
    "cover.spanning_cycle_blowup.self_s": "s",
    "cover.simple_blowup_cover.self_s": "s",
    "cover.almost_blowup_cover.self_s": "s",
    "cover.absorb_singleton.calls": "count",
    "cover.absorb_singleton.s": "s",
    "cover.verify_cover.s": "s",
    "cover.subdivide_and_wind.s": "s",
    "core.verify_cycle_blowup.s": "s",
    "core.graph_from_text.s": "s",
    "core.graph_text.bytes": "bytes",
    "core.CycleBlowupCertificate.from_json.s": "s",
    "generators.generate.s": "s",
    "cover.self_s": "s",
    "tiling.self_s": "s",
    "blowup_search.self_s": "s",
    "core.self_s": "s",
    "generators.self_s": "s",
    "trace.overhead_s": "s",
}
LAYER_MODULES = ("cover", "tiling", "blowup_search", "core", "generators")
RANDOM_BUILDERS = ("seeding.spawn", "seeding.trial_rng")


def load_package():
    """Import cyclecover from ./src of this checkout, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "cyclecover" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {src / 'cyclecover'}")
    sys.path.insert(0, str(src))
    import cyclecover
    if Path(cyclecover.__file__).resolve().parent != (src / "cyclecover").resolve():
        sys.exit(f"bench: imported cyclecover from {cyclecover.__file__}, not from {src}")
    return cyclecover


# ---------------------------------------------------------------------------
# measurement state


@dataclass
class Tally:
    """What one workload run measured."""

    solve: list = field(default_factory=list)   # (seconds, succeeded)
    setup: list = field(default_factory=list)
    audit: list = field(default_factory=list)
    c_eff: list = field(default_factory=list)
    min_size: list = field(default_factory=list)
    overhead: list = field(default_factory=list)
    layers: list = field(default_factory=list)  # per traced instance: summary dict
    hits: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    incorrect: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, reason: str, wrong: bool) -> None:
        self.failed += 1
        (self.incorrect if wrong else self.notes).append(reason)


class Bench:
    """Runs one workload; every call into the package goes through self.cc,
    whose names a Tracer replaces while tracing."""

    def __init__(self, cc, workload: Workload, seed: int, seconds: float):
        self.cc = cc
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.params = cc.PRESETS["desk"]
        self.tally = Tally()
        self.stored: list = []  # audit workload: (graph text, certificate JSON)

    def spec(self, index: int):
        w, cc = self.w, self.cc
        return cc.GeneratorSpec(cc.GNP_REPAIRED, n=w.n, p=w.p,
                                delta_target=math.ceil(w.delta_frac * w.n),
                                seed=w.graph_seed(self.seed, index))

    def generate(self, index: int):
        gc.collect()  # no timed operation pays for collecting earlier garbage
        t0 = time.perf_counter()
        G = self.cc.generate(self.spec(index))
        return G, time.perf_counter() - t0

    def solve(self, G, label: str):
        """(certificate or None, seconds). Counts the attempt and an honest
        failure; the certificate still has to pass check()."""
        cc, tally = self.cc, self.tally
        tally.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            res = cc.spanning_cycle_blowup(G, self.params)
        except Exception as exc:  # an exception is a failed solve, not a crash
            res = exc
        dt = time.perf_counter() - t0
        if isinstance(res, cc.CycleBlowupCertificate):
            return res, dt
        what = res.stage if isinstance(res, cc.PipelineFailure) else type(res).__name__
        tally.fail(f"{label}: solve failed ({what})", wrong=False)
        return None, dt

    def check(self, G, cert, label: str, solve_s: float | None = None) -> bool:
        """Re-verify cert from its JSON against fresh copies of G, check the
        round trip, and record certificate sizes. Given the solve time, the
        audit is repeated and its mean time recorded."""
        cc, tally = self.cc, self.tally
        text = cert.to_json()
        times = []
        gc.collect()
        start = time.perf_counter()
        while not times or solve_s is not None and (
                len(times) < AUDIT_REPEATS
                or time.perf_counter() - start < AUDIT_SHARE * solve_s):
            H = cc.Graph(G.n, G.adj)  # a Graph object never used before
            t0 = time.perf_counter()
            back = cc.CycleBlowupCertificate.from_json(text)
            verdict = cc.verify_cycle_blowup(H, back)
            dt = time.perf_counter() - t0
            if verdict.status != cc.PASS:
                tally.fail(f"{label}: certificate does not re-verify ({verdict.reason})",
                           wrong=True)
                return False
            if back != cert:
                tally.fail(f"{label}: JSON round trip changed the certificate", wrong=True)
                return False
            times.append(dt)
        if solve_s is not None:
            tally.audit.append(statistics.fmean(times))
        sizes = Counter(len(c) for c in cert.clusters)
        best = max(sizes.values())
        tally.c_eff.append(min(s for s, k in sizes.items() if k == best) / math.log(cert.n))
        tally.min_size.append(min(sizes))
        return True

    # -- untraced runs: the end-to-end metrics ---------------------------

    def run_solves(self) -> None:
        """Instance 0 is solved twice, on two separately generated Graph
        objects, for the determinism check; both solves are samples."""
        tally, clock = self.tally, Clock(self.seconds)
        first = None
        k = 0
        while k < 2 or clock.room():
            index = 0 if k < 2 else k - 1
            G, gen_s = self.generate(index)
            tally.setup.append(gen_s)
            cert, dt = self.solve(G, f"graph {index}")
            tally.solve.append((dt, cert is not None))
            if cert is not None and self.check(G, cert, f"graph {index}", dt):
                if k == 0:
                    first = cert.to_json()
                elif k == 1 and first is not None and cert.to_json() != first:
                    tally.fail("determinism, graph 0 solved twice: certificate bytes differ",
                               wrong=True)
            k += 1
            clock.lap()

    def prepare_audit(self, index: int):
        """Set-up of one audit instance: generate, write the graph text,
        solve, write the certificate JSON. Returns (graph text, JSON) or None."""
        cc, tally = self.cc, self.tally
        gc.collect()
        t0 = time.perf_counter()
        G = cc.generate(self.spec(index))
        text = cc.graph_to_text(G)
        cert, dt = self.solve(G, f"host {index}")
        cert_json = cert.to_json() if cert is not None else None
        tally.setup.append(time.perf_counter() - t0)
        tally.solve.append((dt, cert is not None))
        if cert is None or not self.check(G, cert, f"host {index}"):
            return None
        return text, cert_json

    def audit_once(self, text: str, cert_json: str, label: str):
        """(seconds, passed) of one audit as `cyclecover verify` does it."""
        cc, tally = self.cc, self.tally
        tally.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        H = cc.graph_from_text(text)
        cert = cc.CycleBlowupCertificate.from_json(cert_json)
        verdict = cc.verify_cycle_blowup(H, cert)
        dt = time.perf_counter() - t0
        if verdict.status != cc.PASS:
            tally.fail(f"{label}: audit FAIL ({verdict.reason})", wrong=True)
        return dt, verdict.status == cc.PASS

    def run_audits(self) -> None:
        """Host 0 is prepared twice, for the determinism check. Then the run
        alternates between preparing hosts 1, 2, ... and auditing the stored
        pairs in turn, keeping set-up at AUDIT_SETUP_SHARE of the time so
        far, so that set-up and audit samples both spread over the whole run
        (the machine's speed level changes within a run)."""
        tally, clock = self.tally, Clock(self.seconds)
        first = self.prepare_audit(0)
        setup_busy = clock.lap("prepare")
        second = self.prepare_audit(0)
        setup_busy += clock.lap("prepare")
        if first and second and first[1] != second[1]:
            tally.fail("determinism, host 0 solved twice: certificate bytes differ", wrong=True)
        stored = [first] if first else []
        index = k = 0
        while True:
            must = len(tally.setup) < 3
            prepare = must or not stored or (
                setup_busy < AUDIT_SETUP_SHARE * (time.perf_counter() - clock.start)
                and clock.room("prepare"))
            kind = "prepare" if prepare else "audit"
            if not (must or clock.room(kind) or (stored and k < 2)):
                break
            if prepare:
                index += 1
                prepared = self.prepare_audit(index)
                if prepared and len(stored) < AUDIT_POOL:
                    stored.append(prepared)
                setup_busy += clock.lap(kind)
            else:
                text, cert_json = stored[k % len(stored)]
                tally.audit.append(self.audit_once(text, cert_json, f"audit {k}")[0])
                k += 1
                clock.lap(kind)

    # -- traced runs: the per-layer metrics -------------------------------

    def solve_op(self, index: int):
        """One traced-run instance of a solve workload: generate, solve and
        check. Returns (outcome bytes or None, solve seconds, text bytes)."""
        G, _ = self.generate(index)
        cert, dt = self.solve(G, f"graph {index}")
        ok = cert is not None and self.check(G, cert, f"graph {index}")
        return (cert.to_json() if ok else None), dt, 0

    def audit_op(self, index: int):
        """One traced-run instance of the audit workload: one audit of a
        stored host, whose set-up ran untraced."""
        text, cert_json = self.stored[index % len(self.stored)]
        dt, passed = self.audit_once(text, cert_json, f"audit {index}")
        return ("PASS" if passed else None), dt, len(text.encode())

    def run_traced(self) -> None:
        """Each instance runs untraced and under the tracer, in alternating
        order, and both outcomes must match. trace.overhead_s is the traced
        minus the untraced time of the workload's timed operation."""
        tally, clock = self.tally, Clock(self.seconds)
        op = self.solve_op
        if self.w.audit:
            self.stored = [p for p in map(self.prepare_audit, (0, 1)) if p is not None]
            if not self.stored:
                return
            op = self.audit_op
        index = 0
        while index < 1 or clock.room():
            runs = {}
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if not traced:
                    runs[traced] = op(index)
                    continue
                with Tracer() as tracer:
                    runs[traced] = op(index)
                summary = summarize(tracer.spans, tracer.hits, tracer.counts)
            (plain, plain_s, _), (got, traced_s, text_bytes) = runs[False], runs[True]
            if plain is not None and got is not None:
                if plain != got:
                    tally.fail(f"instance {index}: traced and untraced outcomes differ", wrong=True)
                tally.overhead.append(traced_s - plain_s)
            summary["core.graph_text"] = {"bytes": text_bytes}
            tally.layers.append(summary)
            for name, rec in summary.items():
                tally.hits[name, "calls"] += rec.get("calls", 0)
                tally.hits[name, "hits"] += rec.get("hits", 0)
            index += 1
            clock.lap()


# ---------------------------------------------------------------------------
# reporting


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def _mean(values, default=0.0) -> float:
    """Timed operations are averaged over the run, not their median taken:
    on a machine whose speed switches between levels every few seconds, the
    median of a run snaps to one level, while the mean weighs each level by
    the share of the run it lasted, which varies far less from run to run
    (see "Steadiness" in NOTES.md)."""
    return statistics.fmean(values) if values else default


def _solve_seconds(t: Tally) -> float:
    """Mean solve time, a failed solve charged as the run's slowest attempt,
    so that a failure never makes solving look faster."""
    if not t.solve:
        return 0.0
    slowest = max(dt for dt, _ in t.solve)
    return _mean([dt if ok else slowest for dt, ok in t.solve])


def end_to_end(t: Tally) -> dict:
    ok = t.attempted - t.failed
    return {
        "solve_s": _solve_seconds(t),
        "pass_rate": ok / t.attempted if t.attempted else 0.0,
        "setup_s": _median(t.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "audit_s": _mean(t.audit),
        "cert.c_eff": _median(t.c_eff),
        "cert.min_size": float(min(t.min_size)) if t.min_size else 0.0,
    }


def per_layer(t: Tally) -> dict:
    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_s":
            out[metric] = _median(t.overhead)
            continue
        if metric == "seeding.random_constructions":
            out[metric] = _median([sum(s.get(b, {}).get("calls", 0) for b in RANDOM_BUILDERS)
                                   for s in t.layers])
            continue
        label, _, fld = metric.rpartition(".")
        if label in LAYER_MODULES:  # module total of self time
            out[metric] = _median([sum(r["self_s"] for k, r in s.items()
                                       if k.startswith(label + ".") and "self_s" in r)
                                   for s in t.layers])
        elif fld == "hit_ratio":
            calls = t.hits[label, "calls"]
            out[metric] = t.hits[label, "hits"] / calls if calls else 0.0
        else:
            out[metric] = _median([s.get(label, {}).get(fld, 0) for s in t.layers])
    return out


def machine(cc, args) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cyclecover": getattr(cc, "__version__", "unknown"),
        "nproc": NPROC,
        "thread_cap": THREAD_CAP,
        "cpu": cpu,
        "commit": _commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _commit() -> str:
    """HEAD of the checkout's own .git, read directly; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(cc, workload: Workload, seed: int, seconds: float, trace: bool):
    """(tally, metrics) of one workload run."""
    bench = Bench(cc, workload, seed, seconds)
    if trace:
        bench.run_traced()
        return bench.tally, per_layer(bench.tally)
    if workload.audit:
        bench.run_audits()
    else:
        bench.run_solves()
    return bench.tally, end_to_end(bench.tally)


def describe(name: str, t: Tally, metrics: dict, units: dict) -> list[str]:
    lines = [f"[{name}] attempted {t.attempted}, failed {t.failed}; samples: "
             f"solve {len(t.solve)}, setup {len(t.setup)}, audit {len(t.audit)}, "
             f"traced instances {len(t.layers)}"]
    if not t.layers and (t.solve or t.audit):  # medians beside the run means, for reading
        lines.append(f"[{name}] medians: solve {_median([dt for dt, _ in t.solve]):.6g} s, "
                     f"audit {_median(t.audit):.6g} s")
    lines += [f"[{name}] {k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    lines += [f"[{name}] note: {r}" for r in t.notes]
    lines += [f"[{name}] INCORRECT: {r}" for r in t.incorrect]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cc = load_package()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    print("machine " + json.dumps(machine(cc, args), sort_keys=True), flush=True)

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        tally, got = run_workload(cc, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for line in describe(name, tally, got, units):
            print(line, flush=True)
        correct &= not tally.incorrect
        attempted += tally.attempted
        failed += tally.failed
        prefix = "" if len(names) == 1 else name + "/"
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
