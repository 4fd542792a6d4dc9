"""azw benchmark: one closed-loop caller, one request at a time.

    python3 bench/run.py --workload exact-ladder --seed 1 --seconds 32 --trace 0

Run from the repository root; azw is imported from ./src. After set-up
and an uncounted warm-up, whole passes over the workload's request list
repeat while the next one is expected to end within --seconds (at least
two passes). Every output is checked after its pass, outside the timed
region.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced passes and prints the per-layer metrics: the tracer wraps
azw's functions from outside the package (see tracing.py), and the
layer self times plus bench.glue_s add up to trace.pass_s.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. attempted counts the distinct requests of a pass and
failed those wrong in any pass, so both follow from the seed alone. Full
results, including every failing request and a SHA-256 digest of each
output, go to .bench_results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

from probe import WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
MIN_PASSES = 2
RESULTS_DIR = ".bench_results"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_info() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform()}


def timed_children(argv: list[str], repeats: int, env: dict) -> list[tuple[float, str]]:
    """Run a child `repeats` times, one at a time: (wall seconds, stderr)."""
    out = []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-400:]}")
        out.append((wall, proc.stderr))
    return out


def setup_seconds(workload: str, seed: int, env: dict) -> list[float]:
    argv = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload, str(seed)]
    return [wall for wall, _ in timed_children(argv, SETUP_REPEATS, env)]


def import_times(env: dict) -> tuple[float, float]:
    """Median cumulative import time of azw and of scipy.integrate, from
    `python -X importtime -c "import azw"` in fresh interpreters."""
    argv = [sys.executable, "-X", "importtime", "-c", "import azw"]
    azw_s, scipy_s = [], []
    for _, stderr in timed_children(argv, IMPORTTIME_REPEATS, env):
        cumulative = {}
        for m in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)", stderr):
            cumulative.setdefault(m.group(2), int(m.group(1)) / 1e6)
        azw_s.append(cumulative.get("azw", 0.0))
        scipy_s.append(cumulative.get("scipy.integrate", 0.0))
    return statistics.median(azw_s), statistics.median(scipy_s)


def quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "azw", "__init__.py")):
        print("bench: src/azw not found; run from the repository root", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(root, "src"))

    from climix import child_env
    from core import Ledger, run_pass
    from tracing import CLI_COMPUTE, CLI_OVERHEAD, GLUE, TIME_LAYERS, Tracer

    env = child_env(root)

    module = importlib.import_module(WORKLOADS[args.workload])
    setups = setup_seconds(args.workload, args.seed, env) if args.trace == 0 else []
    wl = module.Workload(args.seed)
    wl.prepare()
    ledger = Ledger(wl.requests)
    run_pass(wl.warmup_requests())

    plain_passes, traced_passes, latencies, child_rss = [], [], [], []
    per_request: dict[str, list[float]] = {}
    tracer = Tracer() if args.trace else None
    caches = getattr(wl, "caches", None)
    started = time.perf_counter()
    while True:
        # whole passes only; stop once the next one would end after --seconds
        if (len(plain_passes) >= MIN_PASSES if args.trace == 0 else traced_passes):
            left = args.seconds - (time.perf_counter() - started)
            if left < statistics.median(plain_passes + traced_passes):
                break
        traced = args.trace == 1 and len(traced_passes) < len(plain_passes)
        if traced:
            tracer.install()
            if hasattr(wl, "tracer"):
                wl.tracer = tracer
            if caches is not None:
                caches.record = True
        try:
            elapsed, lat, outcomes = run_pass(wl.requests, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
                if hasattr(wl, "tracer"):
                    wl.tracer = None
                if caches is not None:
                    caches.clear_graph_caches()  # books the last graph's hits and misses
                    caches.record = False
        (traced_passes if traced else plain_passes).append(elapsed)
        if not traced:
            latencies += lat
            for req, ms in zip(wl.requests, lat):
                per_request.setdefault(req.name, []).append(ms)
        ledger.add_pass(outcomes)
        child_rss += [o.value.rss_kb for o in outcomes if hasattr(o.value, "rss_kb")]

    if child_rss:
        peak_rss_mb = max(child_rss) / 1024.0
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p90 = quantile90(latencies)
    results = {
        "workload": args.workload, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine_info(),
        "passes_s": plain_passes, "traced_passes_s": traced_passes,
        "latency_samples": len(latencies),
        "latency_samples_beyond_p90": sum(1 for x in latencies if x > p90),
        "calls_judged": ledger.calls,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "error_rate": ledger.failed / ledger.attempted,
        "unexpected_failures": ledger.unexpected,
        "failures": ledger.failures, "digests": ledger.digests,
        "setup_runs_s": setups, "inputs": wl.info(),
        "request_latency_ms": {name: statistics.median(v) for name, v in per_request.items()},
    }

    if args.trace == 0:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            # the mean, not the median: a shared 2-vCPU VM switches between
            # two speeds about 1.7x apart every few seconds, and a median of
            # pass times jumps between them while the mean moves smoothly
            "pass_s": metric(statistics.fmean(plain_passes), "s"),
            "latency_p50_ms": metric(statistics.median(latencies), "ms"),
            "latency_p90_ms": metric(p90, "ms"),
            "success_rate": metric(1.0 - ledger.failed / ledger.attempted, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        k = len(traced_passes)
        per_pass = {layer: tracer.self_ns.get(layer, 0) / 1e9 / k for layer in TIME_LAYERS}
        pass_spans = [end - start for _, _, name, _, start, end in tracer.spans
                      if name == "bench.pass"]
        traced_pass_s = sum(pass_spans) / 1e9 / k
        import_s, import_scipy_s = import_times(env)
        metrics = {layer: metric(v, "s") for layer, v in per_pass.items()
                   if layer not in (CLI_COMPUTE, GLUE)}
        metrics["cli.compute_ms"] = metric(per_pass[CLI_COMPUTE] * 1e3, "ms")
        metrics["cli.overhead_s"] = metric(per_pass[CLI_OVERHEAD], "s")
        metrics["cli.import_s"] = metric(import_s, "s")
        metrics["cli.import_scipy_s"] = metric(import_scipy_s, "s")
        metrics["bench.glue_s"] = metric(per_pass[GLUE], "s")
        metrics["trace.pass_s"] = metric(traced_pass_s, "s")
        metrics["trace.overhead_frac"] = metric(
            statistics.fmean(traced_passes) / statistics.fmean(plain_passes) - 1.0, "ratio")
        for counter in ("graphs.calls", "polynomials.charpoly_calls", "multizeta.hurwitz_calls"):
            metrics[counter] = metric(tracer.counters.get(counter, 0) / k, "count")
        ratios = caches.ratios() if caches is not None else {}
        for name in ("matrices.cache_hit_ratio", "polynomials.charpoly_cache_hit_ratio"):
            metrics[name] = metric(ratios.get(name, 0.0), "ratio")
        results["trace_closure_s"] = sum(per_pass.values()) - traced_pass_s

    results["metrics"] = metrics
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}.seed{args.seed}.trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, default=repr)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.jsonl")

    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain_passes)}+{len(traced_passes)} traced "
          f"requests/pass={len(wl.requests)} latency samples={len(latencies)} "
          f"(beyond p90: {results['latency_samples_beyond_p90']})")
    print(f"bench: error_rate={results['error_rate']:.4f} "
          f"({ledger.failed} of {ledger.attempted} requests wrong in some pass, "
          f"{ledger.calls} calls judged; {ledger.unexpected} outside "
          f"the known seed defects)")
    for name, reason in sorted(ledger.failures.items()):
        print(f"bench: FAILED {name}: {reason}")
    print(f"bench: results in {stem}.json")
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
