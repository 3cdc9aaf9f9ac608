#!/usr/bin/env python3
"""Flow-cell benchmark: registered flows timed end to end, split by layer.

Run from the root of the repository::

    python3 perfbench/run.py --workload vrank-cold --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10
    python3 perfbench/run.py --record-reference

``--trace 0`` runs the workload's blocks of cells, untraced, until
``--seconds`` have passed and reports the end-to-end metrics.
``--trace 1`` runs the first blocks twice with every layer wrapped and
reports the per-layer split; the counts of the two passes must repeat
exactly.
``--workload all`` runs every workload both ways, each in its own
process, and prints one table.  The last line of standard output is
always one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
SETUP_REPS = 3
TRACE_BLOCKS = 4   # blocks per traced pass (security has one)
TAIL_BEYOND = 10   # the tail percentile keeps this many cells beyond it

sys.path.insert(0, os.path.join(ROOT, "src"))

from flowcells import (WORKLOADS, blocks_for, load_program,  # noqa: E402
                       reference_cells)
from layertrace import LayerTrace  # noqa: E402

E2E_UNITS = {"cells_per_s": "1/s", "cell_p50_ms": "ms", "cell_tail_ms": "ms",
             "ok_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def scrub_env() -> dict[str, str]:
    """Unset every ``REPRO_*`` knob so ambient settings cannot change what
    is measured; returns the ones that were set."""
    found = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in found:
        del os.environ[key]
    return found


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(unset: dict[str, str]) -> dict:
    """CPUs, Python, commit, ``src/`` size and knob count: metadata only."""
    lines = 0
    knobs: set[str] = set()
    for folder, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    text = fh.read()
                lines += text.count("\n")
                knobs.update(re.findall(r"[\"'](REPRO_[A-Z0-9_]+)[\"']", text))
    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": _commit(),
            "src_lines": lines, "repro_knobs": len(knobs),
            "unset_env": unset}


def load_reference() -> dict[str, str]:
    with open(REFERENCE) as fh:
        return json.load(fh)["cells"]


class Checker:
    """Every digest of a cell must equal the reference and the first digest
    this run saw for the cell (the cold prefill for the warm-store
    workload, the first traced pass for the second)."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.first: dict[str, str] = {}
        self.mismatches: list[str] = []

    def check(self, cell, digest: str) -> bool:
        first = self.first.setdefault(cell.key, digest)
        ok = digest == first and digest == self.reference.get(cell.key)
        if not ok:
            self.mismatches.append(cell.key)
        return ok


def run_cell(program, checker: Checker, cell,
             runner=None) -> tuple[bool, float]:
    """Launch one cell on an empty compile cache; ``(ok, seconds)``."""
    program.fresh_cache()
    start = perf_counter()
    try:
        result = runner(lambda: program.launch(cell))[0] if runner \
            else program.launch(cell)
    except Exception:  # a cell that raises is a failed cell, not a crash
        traceback.print_exc()
        checker.mismatches.append(cell.key)
        return False, perf_counter() - start
    elapsed = perf_counter() - start
    return checker.check(cell, program.digest(result)), elapsed


def set_up(workload, seed: int, checker: Checker):
    """Import, problem loading and the warm-up cell, ``SETUP_REPS`` times
    from a purged ``repro`` (the last import is kept), then for the
    warm-store workload one cold pass over its blocks that fills a fresh
    disk store.  ``setup_s`` is the median repetition plus that pass; the
    pass is already a sum over many cells, so it is run once."""
    times, failures = [], 0
    for _ in range(SETUP_REPS):
        start = perf_counter()
        program = load_program(fresh=True)
        blocks = blocks_for(workload, seed, program.problem_ids,
                            program.task_ids)
        # The smallest key of the first block warms up (c1_and4 or
        # adder_verify: never one of the long security cells).
        failures += not run_cell(program, checker, min(blocks[0]))[0]
        times.append(perf_counter() - start)
    setup_s = statistics.median(times)
    store = None
    if workload.warm_store:
        start = perf_counter()
        os.makedirs(WORK_DIR, exist_ok=True)
        store = program.DiskStore(tempfile.mkdtemp(dir=WORK_DIR))
        program.set_default_store(store)
        for block in blocks:
            for cell in block:
                failures += not run_cell(program, checker, cell)[0]
        setup_s += perf_counter() - start
    return program, blocks, store, setup_s, failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND cells beyond it,
    and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def measure(program, blocks, checker: Checker, seconds: float) -> dict:
    """Whole blocks in order, untraced, until ``seconds`` have passed
    (cycling when a fast program runs out of blocks).

    A cell's latency is the median of its launches, so the percentiles
    are over distinct cells, whether or not a block came round again."""
    per_cell: dict = {}
    attempted = failed = 0
    start = perf_counter()
    for index in itertools.count():
        for cell in blocks[index % len(blocks)]:
            ok, elapsed = run_cell(program, checker, cell)
            attempted += 1
            failed += not ok
            per_cell.setdefault(cell, []).append(elapsed)
        if perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    by_key = {cell.key: statistics.median(times)
              for cell, times in per_cell.items()}
    latencies = list(by_key.values())
    value, pct = tail(latencies)
    return {"attempted": attempted, "failed": failed, "wall_s": wall,
            "cells": len(latencies), "latency_s": by_key,
            "cells_per_s": (attempted - failed) / wall,
            "cell_p50_ms": statistics.median(latencies) * 1000.0,
            "cell_tail_ms": value * 1000.0, "tail_pct": pct}


def _disk_totals(store) -> tuple[int, int]:
    if store is None:
        return 0, 0
    stats = store.stats().values()
    return sum(s.hits for s in stats), sum(s.misses for s in stats)


def traced_pass(program, cells, checker: Checker, store) -> tuple:
    """One pass over ``cells`` with every layer wrapped; the wrappers are
    removed afterwards.  Returns the trace, the failed cell count, the
    pass wall time and each cell's latency."""
    trace = LayerTrace()
    hits0, misses0 = _disk_totals(store)
    failed = 0
    latency = {}
    trace.install()
    try:
        start = perf_counter()
        for cell in cells:
            ok, latency[cell.key] = run_cell(program, checker, cell,
                                             runner=trace.cell)
            failed += not ok
            trace.add_cache_stats(program.get_default_cache().stats())
        wall = perf_counter() - start
    finally:
        trace.uninstall()
    hits1, misses1 = _disk_totals(store)
    trace.add("store.disk.hits", hits1 - hits0)
    trace.add("store.disk.misses", misses1 - misses0)
    return trace, failed, wall, latency


def traced_metrics(program, blocks, checker: Checker, store,
                   detail: dict) -> tuple[dict, int, int, bool]:
    """Per-layer metrics from two traced passes over the first blocks;
    the passes' counts must repeat exactly."""
    cells = [cell for block in blocks[:TRACE_BLOCKS] for cell in block]
    (first, failed1, wall1, lat1), (second, failed2, wall2, lat2) = [
        traced_pass(program, cells, checker, store) for _ in range(2)]
    detail["latency_s"] = {k: (lat1[k] + lat2[k]) / 2 for k in lat1}
    counts = [first.counts(), second.counts()]
    detail["count_diff"] = {k: (counts[0].get(k), counts[1].get(k))
                            for k in counts[0].keys() | counts[1].keys()
                            if counts[0].get(k) != counts[1].get(k)}
    detail["counts_repeat"] = not detail["count_diff"]
    again = second.metrics()
    metrics = {}
    for key, (value, unit) in first.metrics().items():
        if unit in ("ms", "1/s"):   # timings: mean of both passes
            value = (value + again[key][0]) / 2
        metrics[key] = {"value": value, "unit": unit}
    metrics["flows.traced_cells_per_s"] = {
        "value": 2 * len(cells) / (wall1 + wall2), "unit": "1/s"}
    return (metrics, 2 * len(cells), failed1 + failed2,
            detail["counts_repeat"])


def untraced_metrics(program, blocks, checker: Checker, seconds: float,
                     setup_s: float,
                     detail: dict) -> tuple[dict, int, int, bool]:
    """The end-to-end metrics of ``BENCHMARK.json``."""
    result = measure(program, blocks, checker, seconds)
    attempted, failed = result["attempted"], result["failed"]
    values = {"cells_per_s": result["cells_per_s"],
              "cell_p50_ms": result["cell_p50_ms"],
              "cell_tail_ms": result["cell_tail_ms"],
              "ok_share": (attempted - failed) / attempted,
              "setup_s": setup_s,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    detail.update(tail_pct=result["tail_pct"], cells=result["cells"],
                  latency_s=result["latency_s"],
                  launches=attempted, failed_share=failed / attempted,
                  wall_s=result["wall_s"])
    print(f"{detail['workload']} seed={detail['seed']}: {attempted} launches "
          f"of {result['cells']} cells in {result['wall_s']:.2f} s, "
          f"failed_share {failed / attempted:.4f}, cell_tail_ms is "
          f"p{result['tail_pct']:.1f} of {result['cells']} cells")
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
               for k, v in values.items()}
    return metrics, attempted, failed, True


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 unset: dict[str, str]) -> int:
    checker = Checker(load_reference())
    program, blocks, store, setup_s, setup_failures = \
        set_up(WORKLOADS[name], seed, checker)
    detail = {"workload": name, "seed": seed, "trace": int(traced),
              "environment": environment(unset)}
    try:
        if traced:
            metrics, attempted, failed, ok = traced_metrics(
                program, blocks, checker, store, detail)
        else:
            metrics, attempted, failed, ok = untraced_metrics(
                program, blocks, checker, seconds, setup_s, detail)
    finally:
        program.set_default_store(None)
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    correct = ok and failed == 0 and setup_failures == 0 \
        and not checker.mismatches
    detail["mismatches"] = sorted(set(checker.mismatches))
    detail["digests"] = checker.first
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record_reference() -> int:
    """Digest every cell a workload seed can draw, on a cold cache."""
    program = load_program()
    cells: dict[str, str] = {}
    for cell in reference_cells(program):
        program.fresh_cache()
        cells[cell.key] = program.digest(program.launch(cell))
    with open(REFERENCE, "w") as fh:
        json.dump({"model": "chatgpt-3.5", "cells": cells}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(cells)} cell digests in {REFERENCE}")
    return 0


def _child(name: str, args, traced: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(int(traced))],
        capture_output=True, text=True, timeout=900, check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} (trace {int(traced)}) exited "
                           f"{proc.returncode}")
    detail = next(json.loads(line[len("DETAIL "):]) for line in lines
                  if line.startswith("DETAIL "))
    return json.loads(lines[-1]), detail


def _agree(a: dict, b: dict) -> bool:
    """Digest maps agree on every cell both runs launched."""
    shared = a.keys() & b.keys()
    return bool(shared) and all(a[k] == b[k] for k in shared)


def _overhead(plain: dict, traced: dict) -> str:
    """Tracing overhead as traced/untraced cells_per_s on the same cells
    (the traced run covers fewer blocks than the untraced one)."""
    shared = plain["latency_s"].keys() & traced["latency_s"].keys()
    untraced_s = sum(plain["latency_s"][k] for k in shared)
    traced_s = sum(traced["latency_s"][k] for k in shared)
    return (f"traced/untraced cells_per_s {untraced_s / traced_s:.3f} "
            f"on {len(shared)} shared cells")


def run_all(args) -> int:
    """Every workload untraced then traced, one process each; one table."""
    rows, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        plain, plain_detail = _child(name, args, False)
        traced, traced_detail = _child(name, args, True)
        rows[name] = (plain, plain_detail, traced, traced_detail)
        for result in (plain, traced):
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
        if not _agree(plain_detail["digests"], traced_detail["digests"]):
            print(f"{name}: traced digests differ from untraced")
            correct = False
    env = rows[next(iter(rows))][1]["environment"]
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"\n{'workload':18s}" + "".join(f"{k:>16s}" for k in E2E_UNITS))
    for name, (plain, detail, _, traced_detail) in rows.items():
        m = plain["metrics"]
        print(f"{name:18s}" + "".join(
            f"{m[k]['value']:>11.4g} {m[k]['unit']:<4s}" for k in E2E_UNITS))
        print(f"{'':18s}cell_tail_ms = p{detail['tail_pct']:.1f} of "
              f"{detail['cells']} cells; failed_share "
              f"{detail['failed_share']:.4f}; "
              + _overhead(detail, traced_detail))
    cold = rows["vrank-cold"][1]["digests"]
    warm = rows["vrank-warm-store"][1]["digests"]
    agree = _agree(cold, warm)
    print(f"\nvrank-cold and vrank-warm-store digests agree cell for cell: "
          f"{agree} ({len(cold.keys() & warm.keys())} shared cells)")
    correct = correct and agree
    print("\nlayer self time, share of traced cell wall time:")
    for name, (_, _, traced, detail) in rows.items():
        m = traced["metrics"]
        wall = m["flows.wall_ms"]["value"]
        shares = sorted(((m[k]["value"] / wall, k[:-len(".self_ms")])
                         for k in m if k.endswith(".self_ms")), reverse=True)
        print(f"  {name:18s} " + ", ".join(
            f"{layer} {share:.1%}" for share, layer in shares
            if share >= 0.005)
            + f"  (counts repeat: {detail['counts_repeat']})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="re-digest every reference cell and exit")
    args = parser.parse_args(argv)
    unset = scrub_env()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # Measure this checkout's program, never an installed copy.
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            return record_reference()
        if args.workload == "all":
            return run_all(args)
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace), unset)
    except (ImportError, OSError) as exc:
        # No program to measure (e.g. only the benchmark's own files are
        # present) or no reference: fail without printing a result.
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
