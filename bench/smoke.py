"""Smoke check of the benchmark itself: every workload at a tiny order.

    python3 bench/smoke.py

Runs ``run.py``'s own code on every workload, with n = 60 (above the desk
preset's 50-vertex n_floor), for a fraction of a second, untraced and
traced, in this one process. It checks that BENCHMARK.json names exactly
the workloads and metrics run.py knows, that every metric is printed by
name with its unit as a finite number, and that no output was incorrect.
Exits non-zero on any mismatch; takes about 15 s.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys

import run

TINY_N = 60


def check_manifest(manifest: dict) -> list[str]:
    errors = []
    names = [w["name"] for w in manifest["workloads"]]
    if names != list(run.WORKLOADS):
        errors.append(f"workloads {names} != {list(run.WORKLOADS)}")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in manifest[key]}
        if declared != table:
            errors.append(f"{key} in BENCHMARK.json differs from run.py: "
                          f"{sorted(set(declared.items()) ^ set(table.items()))}")
    return errors


def check_run(manifest: dict, trace: int) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "all", "--seed", "0", "--seconds", "0.2",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if code != 0 or not result["correct"]:
        errors += [line for line in lines if "INCORRECT" in line] or [f"exit code {code}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        errors.append(f"bad result keys or counts: {sorted(result)}")
    print(f"smoke: trace {trace}: attempted {result['attempted']}, failed {result['failed']}")
    wanted = manifest["per_layer" if trace else "end_to_end"]
    for w in run.WORKLOADS:
        for m in wanted:
            got = result["metrics"].get(f"{w}/{m['name']}")
            if got is None or got["unit"] != m["unit"]:
                errors.append(f"trace {trace}: {w}/{m['name']} missing or wrong unit: {got}")
            elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
                errors.append(f"trace {trace}: {w}/{m['name']} not a finite number: {got}")
            elif not any(line.startswith(f"[{w}] {m['name']} = ") and line.endswith(m["unit"])
                         for line in lines):
                errors.append(f"trace {trace}: {w}/{m['name']} not printed with its unit")
    return errors


def main() -> int:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORKLOADS = {k: dataclasses.replace(w, n=TINY_N) for k, w in run.WORKLOADS.items()}
    errors = check_manifest(manifest)
    for trace in (0, 1):
        errors += check_run(manifest, trace)
    for e in errors:
        print("smoke:", e, file=sys.stderr)
    print("smoke: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
