"""credal benchmark: one seeded workload, timed end to end or traced per module.

    python3 bench/run.py --workload cli_samples --seed 1 --seconds 38 --trace 0

Run from the root of a credal checkout. Human-readable lines go first; the
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with --trace 0, the per-module ones
with --trace 1). See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

from spans import Instrumentation, Recorder
from workloads import WORKLOADS, make, run_child

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_PROBES = 5
REF_ITERATIONS = 100_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "ops_per_kref": "1/kref",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    def dist(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "missing"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": dist("numpy"), "click": dist("click"),
            "nproc": os.cpu_count(), "cpu": cpu}


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop: the CPU's speed at this moment.

    The speed of a shared host drifts by tens of percent within a minute.
    Dividing each op's wall time by the mean of the loops run just before and
    just after it cancels most of that drift; the loop is not credal code, so
    a change to credal moves the ratio by the same share as the wall time.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - t0


def timed_setup(wl) -> float:
    """Median wall time of SETUP_REPEATS set-ups, each making inputs and warming up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def loop(wl, seconds: float, step) -> None:
    """Call step() until `seconds` of measured op time pass, ending on a block boundary."""
    busy, done = 0.0, 0
    while busy < seconds or done % wl.block:
        busy += step()
        done += 1


def end_to_end(wl, seconds: float, setup_s: float) -> tuple[dict, int, int]:
    latencies: list[float] = []
    refs = [reference_loop()]  # refs[i] and refs[i + 1] bracket op i
    failed = 0

    def step() -> float:
        nonlocal failed
        op = wl.next_op()
        outcome = wl.run(op)
        refs.append(reference_loop())
        latencies.append(outcome.wall_s)
        if not (outcome.exit_ok and wl.check(op, outcome.out)):
            failed += 1
        return outcome.wall_s

    loop(wl, seconds, step)
    attempted = len(latencies)
    ratios = [wall * 2 / (before + after) for wall, before, after in zip(latencies, refs, refs[1:])]
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ref": statistics.median(ratios),
        "latency_p90_ref": statistics.quantiles(ratios, n=10)[8],
        "ops_per_kref": 1e3 * (attempted - failed) / sum(ratios),
        "peak_rss_mb": resource.getrusage(wl.rss_who).ru_maxrss / 1024,
    }
    print(f"# {attempted} ops, {attempted - failed} correct, {sum(latencies):.1f} s measured")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
    # the same timings in wall-clock units, which drift with the host's speed
    print(f"ref_loop_ms {statistics.median(refs) * 1e3:.6g} ms")
    print(f"latency_p50_ms {statistics.median(latencies) * 1e3:.6g} ms")
    print(f"latency_p90_ms {statistics.quantiles(latencies, n=10)[8] * 1e3:.6g} ms")
    print(f"ops_per_s {(attempted - failed) / sum(latencies):.6g} 1/s")
    print(f"failed_ratio {failed / attempted:.6g} ratio")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, attempted, failed


def numpy_import_ms(wl) -> float:
    _, _, _, err, _ = run_child([sys.executable, "-X", "importtime", "-c", "import credal.cli"],
                                wl.root, wl.env)
    for line in err.decode().splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) / 1e3
    return 0.0


def import_breakdown(wl) -> dict:
    """Fresh-interpreter start-up: bare interpreter, credal.cli on top, numpy within it."""
    interp, full, numpy = [], [], []
    for _ in range(IMPORT_PROBES):
        interp.append(run_child([sys.executable, "-c", "pass"], wl.root, wl.env)[0] * 1e3)
        full.append(run_child([sys.executable, "-c", "import credal.cli"], wl.root, wl.env)[0] * 1e3)
        numpy.append(numpy_import_ms(wl))
    return {
        "import.interp_ms": statistics.median(interp),
        "import.self_ms": statistics.median(full) - statistics.median(interp),
        "import.numpy_ms": statistics.median(numpy),
    }


# per-layer metric -> (source, key, scale): mean per traced op
LAYER_METRICS = {
    "cli.calls": ("calls", "cli", 1),
    "cli.self_ms": ("self", "cli", 1e-6),
    "cli.out_bytes": ("counts", "cli.out_bytes", 1),
    "document.calls": ("calls", "document", 1),
    "document.self_ms": ("self", "document", 1e-6),
    "document.lines": ("counts", "document.lines", 1),
    "frames.subset_calls": ("calls", "frames", 1),
    "frames.self_ms": ("self", "frames", 1e-6),
    "evidence.construct_calls": ("calls", "evidence.construct", 1),
    "evidence.construct_ms": ("self", "evidence.construct", 1e-6),
    "evidence.focal_in": ("counts", "evidence.focal_in", 1),
    "evidence.scan_calls": ("calls", "evidence.scan", 1),
    "evidence.scan_ms": ("self", "evidence.scan", 1e-6),
    "evidence.focal_scanned": ("counts", "evidence.focal_scanned", 1),
    "evidence.table_calls": ("calls", "evidence.table", 1),
    "evidence.table_ms": ("self", "evidence.table", 1e-6),
    "evidence.table_cells": ("counts", "evidence.table_cells", 1),
    "evidence.summary_ms": ("self", "evidence.summary", 1e-6),
    "possibility.contour_calls": ("calls", "possibility.contour", 1),
    "possibility.contour_ms": ("self", "possibility.contour", 1e-6),
    "possibility.levelcut_ms": ("self", "possibility.levelcut", 1e-6),
    "fuzzy.calls": ("calls", "fuzzy", 1),
    "fuzzy.self_ms": ("self", "fuzzy", 1e-6),
    "elicit.bracket_calls": ("calls", "elicit.bracket", 1),
    "elicit.bracket_ms": ("self", "elicit.bracket", 1e-6),
    "elicit.bracket_cells": ("counts", "elicit.bracket_cells", 1),
    "elicit.closed_form_ms": ("self", "elicit.closed_form", 1e-6),
}


def traced(wl, seconds: float) -> tuple[dict, int, int]:
    """Per-module numbers: import probes, child CPU, and in-process replays with spans."""
    rec = Recorder()
    instrumentation = Instrumentation(rec)
    metrics = import_breakdown(wl)
    metrics["ref.loop_ms"] = statistics.median(reference_loop() for _ in range(IMPORT_PROBES)) * 1e3
    attempted = failed = 0

    # the process that does the work: a fresh interpreter per op, or this one
    walls, cpus = [], []

    def proc_step() -> float:
        nonlocal attempted, failed
        op = wl.next_op()
        outcome = wl.run(op)
        walls.append(outcome.wall_s)
        cpus.append(outcome.cpu_s)
        attempted += 1
        failed += not (outcome.exit_ok and wl.check(op, outcome.out))
        return outcome.wall_s

    loop(wl, seconds / 5, proc_step)
    metrics["proc.cpu_ms"] = statistics.fmean(cpus) * 1e3
    metrics["proc.offcpu_ms"] = statistics.fmean(w - c for w, c in zip(walls, cpus)) * 1e3

    # each op twice, untraced then traced; their difference is the tracing overhead
    plain, spanned = [], []

    def pair_step() -> float:
        nonlocal attempted, failed
        op = wl.next_op()
        untraced = wl.replay(op)
        with instrumentation:
            root = rec.enter("op")
            outcome = wl.replay(op)
            rec.exit(root)
        rec.counts["cli.out_bytes"] += len(outcome.out) if isinstance(outcome.out, bytes) else 0
        spanned.append(rec.fold() / 1e9)
        plain.append(untraced.wall_s)
        for result in (untraced, outcome):
            attempted += 1
            failed += not (result.exit_ok and wl.check(op, result.out))
        return untraced.wall_s + spanned[-1]

    loop(wl, seconds / 2, pair_step)
    ops = len(spanned)
    sources = {"self": rec.self_ns, "calls": rec.calls, "counts": rec.counts}
    for name, (source, key, scale) in LAYER_METRICS.items():
        metrics[name] = sources[source][key] * scale / ops
    metrics["errors.raised"] = sum(rec.errors.values()) / ops
    metrics["trace.op_ms"] = statistics.fmean(spanned) * 1e3
    metrics["trace.harness_ms"] = rec.self_ns["op"] * 1e-6 / ops
    metrics["trace.overhead_ms"] = (statistics.fmean(spanned) - statistics.fmean(plain)) * 1e3

    layer_ms = sum(v for k, v in metrics.items()
                   if k in LAYER_METRICS and LAYER_METRICS[k][0] == "self")
    print(f"# {ops} traced ops; {len(walls)} ops for proc.*; errors by class {dict(rec.errors)}")
    print(f"# per op: traced wall {metrics['trace.op_ms']:.4g} ms = layer self times "
          f"{layer_ms:.4g} ms + harness {metrics['trace.harness_ms']:.4g} ms")
    for name, value in metrics.items():
        print(f"{name} {value:.6g}")
    return {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}, attempted, failed


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sessions = sorted((ROOT / "samples").glob("*.session"))
    if not (ROOT / "src" / "credal" / "cli.py").is_file() or not sessions:
        print(f"bench: no credal sources (src/credal) or samples/*.session under {ROOT}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.dont_write_bytecode = False  # keep credal's bytecode cached, as for users
    # numpy's OpenBLAS starts a worker thread per further CPU at import, which
    # credal never gives work. On two CPUs, whenever the scheduler puts it on
    # the main thread's CPU, a CLI op takes about a third longer, so a run's
    # median would depend on the scheduler; see README.md.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    print("# env " + json.dumps(environment()))
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        wl = make(args.workload, ROOT, args.seed, Path(tmp))
        setup_s = timed_setup(wl)
        print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            metrics, attempted, failed = traced(wl, args.seconds)
        else:
            metrics, attempted, failed = end_to_end(wl, args.seconds, setup_s)
        print("# input " + json.dumps(wl.shape()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
