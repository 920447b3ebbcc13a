#!/usr/bin/env python3
"""Benchmark of curvint: one workload per process, one thread.

    python3 perfbench/run.py --workload ensemble_drift --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ./src.  The
run sets up (imports, generates the inputs from --seed), then runs whole
passes over those inputs until --seconds of pass time have elapsed.  With
--trace 0 nothing is wrapped and the last line of output is the end-to-end
result; with --trace 1 one untraced pass is followed by traced passes, and
the last line holds the per-layer metrics.  Lines before it describe the run for a human reader.  Scratch
files and a full record of the run go to ./.perfbench_out/.  README.md next
to this file defines the workloads and metrics.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ensemble_drift", "verify_suite", "orbit_export")
IMPORT_REPEATS = 5          # the first is this process's own import
GENERATE_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import curvint, curvint.cli; "
                "print(time.perf_counter() - t)")


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' if absent."""
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


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds_in_child() -> float:
    """Import time of curvint (with numpy and scipy) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.strip())


class Pass(NamedTuple):
    wall_s: float
    results: list       # one ItemResult per item
    speed: list         # reference-kernel seconds before each item and after


def run_passes(workload, items, seconds, workdir, tracer=None):
    """Whole passes over `items` until `seconds` of pass time have elapsed
    (at least one pass).  A tracer is installed for their length."""
    passes = []
    if tracer is not None:
        tracer.install()
    try:
        while sum(p.wall_s for p in passes) < seconds or not passes:
            t0 = perf_counter()
            results = []
            speed = []
            for i, item in enumerate(items):
                if tracer is not None:
                    tracer.item = f"{len(passes)}.{i}"
                speed.append(reference.seconds())
                results.append(workload.run(item, workdir))
            speed.append(reference.seconds())
            passes.append(Pass(perf_counter() - t0, results, speed))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return passes


def scaled_latencies(passes) -> list:
    """Item latencies at the reference speed.

    Each latency is scaled by NOMINAL_S over the mean of the reference-kernel
    times taken just before and just after the item, so that a slow period
    of the shared machine does not read as a slow program.
    """
    return [r.latency_s * reference.NOMINAL_S * 2.0
            / (p.speed[i] + p.speed[i + 1])
            for p in passes for i, r in enumerate(p.results)]


def _quantiles(values):
    p50 = statistics.median(values)
    p90 = (statistics.quantiles(values, n=10, method="inclusive")[8]
           if len(values) > 1 else values[0])
    return p50, p90


def summarize(passes) -> dict:
    """End-to-end figures of a run, with latencies pooled over its passes."""
    runs = [r for p in passes for r in p.results]
    raw = [r.latency_s for r in runs]
    latencies = scaled_latencies(passes)
    p50, p90 = _quantiles(latencies)
    raw50, raw90 = _quantiles(raw)
    ratios = [r.ratio for r in runs if not math.isnan(r.ratio)]
    failures = {}
    for p in passes:
        for i, r in enumerate(p.results):
            for reason, defect in r.failures:
                failures.setdefault((i, reason, defect), 0)
                failures[(i, reason, defect)] += 1
    # Every pass repeats the same inputs, so the operations attempted are the
    # items of one pass; an item fails if it fails in any pass.
    return {
        "items": len(passes[0].results),
        "passes": len(passes),
        "item_runs": len(runs),
        "attempted": len(passes[0].results),
        "failed": len({i for i, _, _ in failures}),
        "unexpected_failures": sum(1 for _, _, defect in failures
                                   if defect is None),
        "failures": [{"item": i, "reason": reason, "known_defect": defect,
                      "passes": count}
                     for (i, reason, defect), count in failures.items()],
        "pass_s": [p.wall_s for p in passes],
        "items_per_s": len(runs) / sum(latencies),
        "raw_items_per_s": len(runs) / sum(raw),
        "raw_item_p50_ms": raw50 * 1e3,
        "raw_item_p90_ms": raw90 * 1e3,
        "reference_ms": [t * 1e3 for p in passes for t in p.speed],
        "item_p50_ms": p50 * 1e3,
        "item_p90_ms": p90 * 1e3,
        "samples_beyond_p90": sum(1 for v in latencies if v > p90),
        "accuracy_ratio": max(ratios) if ratios else math.nan,
        "latencies_ms": [[r.latency_s * 1e3 for r in p.results]
                         for p in passes],
    }


def run_workload(args) -> int:
    if not (SRC / "curvint" / "__init__.py").is_file():
        print(f"no curvint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import numpy
    import scipy
    import workloads
    import_s = [perf_counter() - t0]
    import_s += [import_seconds_in_child()
                 for _ in range(IMPORT_REPEATS - 1)]
    workload = workloads.WORKLOADS[args.workload]
    generate_s = []
    for _ in range(GENERATE_REPEATS):
        t0 = perf_counter()
        items = workload.generate(args.seed)
        generate_s.append(perf_counter() - t0)
    setup_s = statistics.median(import_s) + statistics.median(generate_s)

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        workload.prepare(items, str(workdir))
        if args.trace:
            import tracing
            untraced = run_passes(workload, items, 0, str(workdir))
            tracer = tracing.Tracer()
            passes = run_passes(workload, items,
                                args.seconds - untraced[0].wall_s,
                                str(workdir),
                                tracer)
        else:
            passes = run_passes(workload, items, args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = summarize(passes)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "setup_import_s": import_s, "setup_generate_s": generate_s}
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()
                          if not k.startswith("setup_")))
    print(f"# {args.workload}: setup_s={setup_s:.4f} "
          f"items_per_s={summary['items_per_s']:.4f} "
          f"item_p50_ms={summary['item_p50_ms']:.2f} "
          f"item_p90_ms={summary['item_p90_ms']:.2f} "
          f"(n={summary['item_runs']}: {summary['items']} items x "
          f"{summary['passes']} passes, {summary['samples_beyond_p90']} "
          f"beyond p90) "
          f"peak_rss_mb={peak_rss_mb:.1f} "
          f"accuracy_ratio={summary['accuracy_ratio']:.4g} "
          f"failed_frac={summary['failed']}/{summary['attempted']}"
          f"={summary['failed'] / summary['attempted']:.4f}")
    print(f"# item latencies as timed, before scaling to the reference "
          f"speed: items_per_s={summary['raw_items_per_s']:.4f} "
          f"item_p50_ms={summary['raw_item_p50_ms']:.2f} "
          f"item_p90_ms={summary['raw_item_p90_ms']:.2f}")
    for f in summary["failures"]:
        tag = (f"known defect ({f['known_defect']})" if f["known_defect"]
               else "UNEXPECTED")
        item = items[f["item"]]
        label = getattr(item, "key", None) or getattr(item, "seed_words", "")
        print(f"#   fail item {f['item']} ({label}) in {f['passes']} "
              f"pass(es): {f['reason']} [{tag}]")

    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"),
                   "items_per_s": (summary["items_per_s"], "1/s"),
                   "item_p50_ms": (summary["item_p50_ms"], "ms"),
                   "item_p90_ms": (summary["item_p90_ms"], "ms"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        counts = {}
        for p in passes:
            for r in p.results:
                for key, value in r.counts.items():
                    counts[key] = counts.get(key, 0) + value
        metrics = tracer.layer_metrics(len(passes), counts)
        traced_pass_s = statistics.median(p.wall_s for p in passes)
        metrics["bench.pass_s"] = (traced_pass_s, "s")
        metrics["bench.trace_overhead_s"] = (
            passes[0].wall_s - untraced[0].wall_s, "s")
        metrics["bench.accuracy_ratio"] = (summary["accuracy_ratio"],
                                           "ratio")
        print(f"# traced passes={len(passes)} pass_s={traced_pass_s:.3f} "
              f"untraced pass={untraced[0].wall_s:.3f}s "
              f"spans={len(tracer.spans)}")

    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
              "summary": summary,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()))

    print(json.dumps({
        "correct": summary["unexpected_failures"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
