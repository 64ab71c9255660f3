"""The repository benchmark: three reference workloads, end-to-end
metrics, and a per-layer ledger from a traced run.

    python3 perfbench/run.py --workload oltp_point --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root.  The engine is imported from ``src/``.
Each run sets its workload up several times (``setup_s`` is the median),
measures for ``--seconds`` (every time is scaled to a reference CPU
speed, see ``common.SpeedProbe``), checks the program's outputs against
independent references, prints a report, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the run alternates untraced and traced slices (the
difference is the tracing overhead) and reports the per-layer metrics.
The exit code is 0 only when every correctness gate passed.

``perfbench/spec.json`` records each workload's scale, clients, flush
policy and seed handling, and for every per-layer metric its layer and
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("oltp_point", "co_extract", "crud_durable")
SETUP_REPEATS = 3
#: Order of untraced (A) and traced (B) slices in a traced run.
TRACE_SLICES = "ABBAABBA"


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def make_workload(name: str, seed: int):
    if name == "oltp_point":
        from oltp_point import OltpPoint
        return OltpPoint(seed)
    if name == "co_extract":
        from co_extract import COExtract
        return COExtract(seed)
    from crud_durable import CrudDurable
    return CrudDurable(seed, OUT)


# ----------------------------------------------------------------------
# Per-layer metrics from the ledger
# ----------------------------------------------------------------------
def add_deltas(total: dict, after: dict, before: dict) -> None:
    """Add the change of every engine counter from ``before`` to
    ``after`` into ``total`` (same nesting)."""
    for key, value in after.items():
        if isinstance(value, dict):
            add_deltas(total.setdefault(key, {}), value,
                       before.get(key, {}))
        else:
            total[key] = total.get(key, 0) + value - before.get(key, 0)


def _delta(deltas: dict, *path) -> float:
    for key in path:
        deltas = deltas.get(key, {})
    return deltas or 0


def layer_metrics(workload, ledger, exec_counters, deltas, traced) -> dict:
    """Every per-layer metric, normalized per primary operation unless
    its unit says otherwise."""
    from common import in_group
    from tracer import UNATTRIBUTED
    total = ledger.total()
    ops = sum(entry["ops"] for label, entry in ledger.by_label.items()
              if any(in_group(label, group) for group in workload.groups))
    ops = max(ops, 1)
    own, calls = total["self"], total["calls"]

    def per_op(layer):
        return own[layer] / ops / 1e3

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    scanned = {}
    for owners in exec_counters.values():
        for owner, counters in owners.items():
            entry = scanned.setdefault(owner, [0, 0, 0])
            entry[0] += counters["rows_scanned"]
            entry[1] += counters["rows_out"]
            entry[2] += counters["index_lookups"]
    all_scanned = sum(v[0] for v in scanned.values())
    all_out = sum(v[1] for v in scanned.values())
    all_lookups = sum(v[2] for v in scanned.values())
    qualify = scanned.get("dml.qualify", [0, 0, 0])
    hits = _delta(deltas, "plan_cache", "hits")
    misses = _delta(deltas, "plan_cache", "misses")
    compile_ns = sum(own[layer] for layer in
                     ("compiler", "qgm", "rewrite", "optimizer"))
    return {
        "api.latch_us": per_op("api"),
        "api.engine_calls_per_op": calls["api"] / ops,
        "sql.parse_us": per_op("sql"),
        "sql.parses_per_op": calls["sql"] / ops,
        "plan_cache.lift_us": per_op("plan_cache.lift"),
        "plan_cache.probe_us": per_op("plan_cache"),
        "plan_cache.hit_ratio": ratio(hits, hits + misses),
        "plan_cache.evictions_per_kop":
            _delta(deltas, "plan_cache", "evictions") * 1e3 / ops,
        "plan_cache.invalidations_per_kop":
            _delta(deltas, "plan_cache", "invalidations") * 1e3 / ops,
        "compiler.compile_us": ratio(compile_ns / 1e3, misses),
        "qgm.build_us": ratio(own["qgm"] / 1e3, misses),
        "rewrite.us": ratio(own["rewrite"] / 1e3, misses),
        "optimizer.plan_us": ratio(own["optimizer"] / 1e3, misses),
        "compiler.compiles_per_kop": calls["optimizer"] * 1e3 / ops,
        "executor.run_us": per_op("executor"),
        "executor.rows_scanned_per_row": ratio(all_scanned, all_out),
        "executor.index_lookups_per_op": all_lookups / ops,
        "xnf.compile_us": per_op("xnf.compile"),
        "xnf.run_us": per_op("xnf.run"),
        "cache.build_us": per_op("cache.build"),
        "cache.nav_us_per_object":
            ratio(own["cache.nav"] / 1e3,
                  sum(count for key, count in traced.counts.items()
                      if key.startswith("objects:"))),
        "matview.apply_us": ratio(own["matview"] / 1e3, calls["matview"]),
        "matview.full_refreshes":
            _delta(deltas, "matview", "full_refreshes"),
        "viewupdate.put_us": per_op("viewupdate"),
        "dml.us": per_op("dml"),
        "dml.qualify_rows_scanned_per_row": ratio(qualify[0], qualify[1]),
        "catalog.fk_check_us": per_op("catalog.fk"),
        "txn.commit_us": per_op("txn.commit"),
        "wal.append_us": per_op("wal.append"),
        "wal.sync_wait_us": per_op("wal.sync"),
        "wal.commits_per_fsync": ratio(
            _delta(deltas, "wal", "append_count"),
            _delta(deltas, "wal", "sync_count")),
        "wal.bytes_per_user_byte": ratio(
            _delta(deltas, "wal", "bytes"),
            _delta(deltas, "user_bytes")),
        "unattributed_us": per_op(UNATTRIBUTED),
        "op_traced_us": total["op_ns"] / ops / 1e3,
    }


def print_ledger(workload, ledger, exec_counters) -> None:
    from tracer import UNATTRIBUTED
    print(f"\n== per-layer ledger: {workload.name} "
          f"({ledger.spans} spans, {ledger.open_spans} left open) ==")
    for label in sorted(ledger.by_label):
        entry = ledger.by_label[label]
        ops = entry["ops"]
        if not ops:
            continue
        op_us = entry["op_ns"] / ops / 1e3
        print(f"\n[{label}] {ops} ops, traced op time {op_us:.1f} us")
        print(f"  {'layer':<16} {'self us/op':>11} {'share':>7} "
              f"{'calls/op':>9}")
        names = [n for n in ledger.layers if entry["self"].get(n)]
        summed = 0
        for name in names + [UNATTRIBUTED]:
            own = entry["self"].get(name, 0)
            summed += own
            print(f"  {name:<16} {own / ops / 1e3:>11.2f} "
                  f"{100.0 * own / entry['op_ns']:>6.1f}% "
                  f"{entry['calls'].get(name, 0) / ops:>9.2f}")
        check = "exact" if summed == entry["op_ns"] else \
            f"OFF BY {entry['op_ns'] - summed} ns"
        print(f"  {'sum':<16} {summed / ops / 1e3:>11.2f} "
              f"{100.0 * summed / entry['op_ns']:>6.1f}%   "
              f"(= traced op time: {check})")
        for owner, counters in sorted(exec_counters.get(label,
                                                        {}).items()):
            out = counters["rows_out"]
            per_row = counters["rows_scanned"] / out if out else 0.0
            print(f"  execution contexts made in {owner}: "
                  f"{counters['contexts'] / ops:.2f}/op, rows scanned "
                  f"{counters['rows_scanned'] / ops:.1f}/op, rows out "
                  f"{out / ops:.2f}/op ({per_row:.1f} scanned per row), "
                  f"index lookups {counters['index_lookups'] / ops:.2f}/op")


def print_counters(deltas: dict) -> None:
    print("\n== engine counters over the traced slices (read from "
          "outside) ==")
    for group in sorted(deltas):
        print(f"  {group}: {deltas[group]}")


def run_traced(workload, seconds: float) -> tuple:
    """Alternate untraced and traced slices in TRACE_SLICES order, so a
    drift of the host's speed during the run falls on both sides alike.
    Returns the pooled untraced and traced phases, the tracer, and the
    engine counters' change over the traced slices."""
    from common import Phase
    from tracer import Tracer
    tracer = Tracer()
    listeners = [workload.engine.catalog.delta_listeners]
    untraced, traced, deltas = Phase(), Phase(tracer), {}
    slice_s = seconds / len(TRACE_SLICES)
    for side in TRACE_SLICES:
        if side == "A":
            untraced.merge(workload.run(slice_s, overrun=1.0))
            continue
        before = workload.counters()
        tracer.install(listeners)
        try:
            traced.merge(workload.run(slice_s, tracer, overrun=1.0))
        finally:
            tracer.uninstall(listeners)
        add_deltas(deltas, workload.counters(), before)
    return untraced, traced, tracer, deltas


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 bench: dict, spec: dict) -> dict:
    from common import SpeedProbe, peak_rss_mb
    workload = make_workload(name, seed)
    print(f"== {name}: seed {seed}, {seconds:g} s, trace {int(trace)} ==")
    print(f"   {spec['workloads'][name]['scale']}")
    setups, wall_setups, probe = [], [], SpeedProbe()
    try:
        for _ in range(SETUP_REPEATS):
            workload.close()
            gc.collect()
            before = probe.measure()
            start = perf_counter()
            workload.setup()
            wall_setups.append(perf_counter() - start)
            # At the reference speed, from probes on either side.
            setups.append(wall_setups[-1] * (before + probe.measure()) / 2)
        print(f"   set-up {SETUP_REPEATS}x: "
              + ", ".join(f"{s:.3f}" for s in setups) + " s (wall clock "
              + ", ".join(f"{s:.3f}" for s in wall_setups) + " s)")
        # The loaded database is long-lived: keep it out of the cyclic
        # collector's generations, so a full collection during the
        # measurement walks only what the measured operations allocate.
        gc.collect()
        gc.freeze()
        if not trace:
            phase = workload.run(seconds)
            generic, named = workload.summarize(phase)
            values = {"setup_s": statistics.median(setups),
                      "peak_rss_mb": peak_rss_mb(), **generic}
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        else:
            untraced, phase, tracer, deltas = run_traced(workload, seconds)
            generic, named = workload.summarize(phase)
            base_generic, _ = workload.summarize(untraced)
            ledger = tracer.ledger()
            values = layer_metrics(workload, ledger, tracer.exec_counters,
                                   deltas, phase)
            overhead = 100.0 * (generic["op_p50_us"]
                                / base_generic["op_p50_us"] - 1.0)
            values["trace.overhead_pct"] = overhead
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            print_ledger(workload, ledger, tracer.exec_counters)
            print_counters(deltas)
            print(f"\n== tracing overhead (slices {TRACE_SLICES}: A "
                  f"untraced, B traced, pooled per side) ==")
            for metric in sorted(base_generic):
                base, traced_value = base_generic[metric], generic[metric]
                print(f"  {metric:<12} untraced {base:>14.3f}  traced "
                      f"{traced_value:>14.3f}  "
                      f"({100.0 * (traced_value / base - 1.0):+.1f}%)")
            written = tracer.write_spans(
                os.path.join(OUT, f"spans-{name}-seed{seed}"))
            print(f"  spans written: {', '.join(written)}")
            phase.merge(untraced)
        print("\n== end-to-end" + (" (traced slices)" if trace else "")
              + " ==")
        for metric, value, unit, note in named:
            print(f"  {metric:<28} {value:>14.3f} {unit:<4} {note}")
        print(f"  {'op_fail_ratio':<28} "
              f"{phase.failed / max(phase.attempted, 1):>14.6f} ratio "
              f"{phase.failed}/{phase.attempted} failed"
              + (f" by type {dict(phase.failures)}" if phase.failures
                 else ""))
        print(f"  {'setup_s':<28} {statistics.median(setups):>14.3f} s    "
              f"median of {SETUP_REPEATS}")
        print(f"  {'peak_rss_mb':<28} {peak_rss_mb():>14.1f} MB")
        problems = workload.verify()
    finally:
        gc.unfreeze()
        workload.cleanup()
    print("\n== correctness ==")
    for problem in problems:
        print(f"  MISMATCH {problem}")
    print(f"  {'all gates passed' if not problems else 'FAILED'}")
    metrics = {}
    for metric, unit in units.items():
        value = values[metric]
        if not math.isfinite(value):
            value = sys.float_info.max
        metrics[metric] = {"value": value, "unit": unit}
    return {"correct": not problems, "attempted": phase.attempted,
            "failed": phase.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process (peak RSS is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            print(lines[-1] if lines else "")
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        merged["correct"] &= result["correct"] and completed.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no engine sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, SRC)
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), bench, spec)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
