"""Pipeline benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload e2e_latency --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the benchmark imports ``adrcm`` from its
``src`` directory and refuses to run without it. Inputs are generated from
``--seed``, the program's outputs are checked after every timed iteration,
and its work files live under ``.perfbench_work/`` in the checkout.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, each the median over the timed iterations. Times are
given at a fixed reference speed of the host (see ``speed.py``): the CPU
part of set-up and of each timed phase is rescaled by the host's speed,
probed just before and just after it, except in ``e2e_latency``'s timed phase, which is
nearly all injected latency. The times as measured and the median speed
factor are printed above the JSON line. With
``--trace 1`` the run alternates untraced and traced iterations (at least one
of each) and reports the per-layer metrics derived from the spans, along
with ``trace.overhead_frac``, the traced median wall time over the untraced
one, minus one. Spans are written to ``.perfbench_work/traces/``.

The benchmark's own tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("e2e_latency", "infer_unscoped_warm", "ingest_index")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    if not (SRC / "adrcm" / "__init__.py").is_file():
        raise SystemExit(f"error: no adrcm package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import adrcm
    if SRC.resolve() not in Path(adrcm.__file__).resolve().parents:
        raise SystemExit(f"error: adrcm imported from {adrcm.__file__}, not {SRC}")


def measure(workload, seconds: float, trace: bool) -> dict:
    from speed import timed
    from tracing import Tracer, layer_metrics, patched, self_times

    tracer = Tracer(trace)
    workload.prepare()
    setups = []
    gc.collect()
    for i in range(workload.setup_repeats):
        tracer.round = f"setup{i}"
        setups.append(timed(lambda: workload.setup(tracer))[1])

    untraced, traced, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    number = 0
    while (number == 0 or time.perf_counter() - start < seconds
           or (trace and not (untraced and traced))):
        tracer.enabled = trace and number % 2 == 1
        tracer.round = f"iteration{number}"
        gc.collect()
        with patched(tracer):
            it = workload.iterate(tracer, number)
        problems = workload.check(it)
        failures.extend(f"iteration {number}: {p}" for p in problems)
        attempted += it.units
        failed += it.failed_units + len(problems)
        if "dir" in it.outputs:
            shutil.rmtree(it.outputs["dir"], ignore_errors=True)
        it.outputs = {}
        (traced if tracer.enabled else untraced).append(it)
        number += 1

    counts = {k: median([it.counts[k] for it in untraced]) for k in untraced[0].counts}
    end_to_end = {
        "wall_s": (median([it.wall_s for it in untraced]), "s"),
        "items_per_s": (median([it.units / it.wall_s for it in untraced]), "1/s"),
        "cpu_s": (median([it.cpu_s for it in untraced]), "s"),
        "setup_s": (median([t.ref_wall_s for t in setups]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    reported = {
        "chat_calls_live": (counts.get("chat_calls_live", 0), "count"),
        "calls_per_accepted_summary": (counts.get("calls_per_accepted_summary", 0.0), "ratio"),
        "failed_frac": (failed / attempted, "ratio"),
        "wall_s_as_measured": (median([it.timing.wall_s for it in untraced]), "s"),
        "setup_s_as_measured": (median([t.wall_s for t in setups]), "s"),
        "host_speed_factor": (median([t.factor for t in setups + [it.timing for it in untraced]
                                      if t.probed]), "ratio"),
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "failures": failures,
              "iterations": (len(untraced), len(traced)),
              "end_to_end": end_to_end, "reported": reported}
    if trace:
        rounds = [f"iteration{n}" for n in range(number) if n % 2 == 1]
        per_layer = layer_metrics(tracer.spans, rounds)
        tcounts = {k: median([it.counts[k] for it in traced]) for k in traced[0].counts}
        per_layer.update({
            "llm.max_concurrent": (max(it.counts.get("max_concurrent", 0) for it in traced),
                                   "count"),
            "llm.retries": (tcounts.get("retries", 0), "count"),
            "kb.index_bytes": (tcounts.get("index_bytes", 0), "bytes"),
            "kb.chunks": (tcounts.get("chunks", 0), "count"),
            "iors.calls_per_accepted_summary": (
                tcounts.get("calls_per_accepted_summary", 0.0), "ratio"),
            "trace.overhead_frac": (
                median([it.wall_s for it in traced]) / end_to_end["wall_s"][0] - 1, "ratio"),
        })
        result["per_layer"] = dict(sorted(per_layer.items()))
        result["self_times"] = self_times(tracer.spans)
        result["tracer"] = tracer
    return result


def _declared(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _report(name: str, seed: int, result: dict, trace: bool) -> dict:
    untraced_n, traced_n = result["iterations"]
    print(f"workload {name}, seed {seed}: {untraced_n} untraced and {traced_n} traced "
          f"iterations, {result['attempted']} units attempted, {result['failed']} failed")
    print("end-to-end (untraced medians):")
    for metric, (value, unit) in {**result["end_to_end"], **result["reported"]}.items():
        print(f"  {metric:<28} {value:>14.6g} {unit}")
    for failure in result["failures"]:
        print(f"check failed: {failure}")
    metrics = result["end_to_end"]
    if trace:
        print("self time by span (count, total s, self s):")
        for span, (n, total, own) in result["self_times"].items():
            print(f"  {span:<28} {n:>8d} {total:>12.4f} {own:>12.4f}")
        print("per-layer (traced iterations):")
        for metric, (value, unit) in result["per_layer"].items():
            print(f"  {metric:<32} {value:>14.6g} {unit}")
        metrics = result["per_layer"]
    declared = _declared("per_layer" if trace else "end_to_end")
    if {k: unit for k, (_, unit) in metrics.items()} != declared:
        raise SystemExit("error: measured metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared)) or 'units differ'}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    # A directory left by a killed run with the same pid would warm the cache.
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.jsonl"
        result["tracer"].dump(str(path))
        print(f"spans: {path}")
    line = _report(args.workload, args.seed, result, bool(args.trace))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
