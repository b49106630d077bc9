"""kgray benchmark: one workload per process, one JSON result line.

    python3 kgbench/run.py --workload construct-fresh --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a kgray checkout.  Starts its own Ray session
(``RAY_CPUS`` CPUs), generates the workload's inputs from ``--seed``
under ``.kgb/`` in the checkout, sets up ``SETUP_REPS`` times, runs the
timed operation for ``--seconds``, checks the outputs, shuts Ray down
and prints ``{"correct", "attempted", "failed", "metrics"}`` as the only
line on stdout.  ``--trace 0`` reports the end-to-end metrics with
tracing off; ``--trace 1`` alternates traced and untraced operations and
reports the per-layer metrics.  Details (host shape, checks, samples)
go to stderr and to ``.kgb/results/``.  See kgbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RAY_CPUS = 2
SETUP_REPS = 3
MIN_OPS = 3     # timed operations per run, however long they take
OBJECT_STORE_BYTES = 512 << 20
# Unix socket paths are capped at 107 bytes; Ray puts them under
# <temp dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store.
SOCKET_SUFFIX_LEN = 72

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "triples_per_s": "1/s",
    "spo_f1": "ratio",
    "driver_peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

TABLES = ("triples", "mentions", "edges", "entities", "triples_canonical")
KERNELS = ("spans.reassemble_text", "classify.CueClassifier",
           "classify.threshold_and_fallback", "classify.fanout",
           "label.TemplateLabeler")
PER_LAYER = {
    "bench.op.self_s": "s",
    "pipeline.kg_construct.self_s": "s",
    "pipeline.extract_triples.s": "s",
    "io.read_parquet_clean.s": "s",
    **{f"io.write_partitioned.{t}.{m}": u
       for t in TABLES for m, u in (("s", "s"), ("rows", "count"),
                                    ("bytes", "bytes"))},
    "io.read_table.s": "s",
    "io.read_table.calls": "count",
    "io.commit_txn.s": "s",
    "linking.mentions_from_triples.s": "s",
    "linking.link_from_mentions.s": "s",
    "util.pairs_within_groups.s": "s",
    "util.pairs_within_groups.pairs_out": "count",
    "linking.mentions_in": "count",
    "linking.new_keys": "count",
    "linking.edges_out": "count",
    "linking.verify_yield": "ratio",
    "canonical.connected_components.s": "s",
    "canonical.entities_out": "count",
    "canonical.canonicalize_triples.s": "s",
    "joins.semi_join.s": "s",
    **{f"{k}.s": "s" for k in KERNELS},
    "classify.fanout.rows_out": "count",
    "label.triples_out": "count",
    "label.yield": "ratio",
    "extract.kernel_cpu_s": "s",
    "extract.executor_overhead_frac": "ratio",
    "append.stale_rows": "count",
    "trace.span_coverage_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def host_shape() -> dict:
    import numpy
    import pandas
    import pyarrow
    import ray

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    nproc = shutil.which("nproc")
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "nproc": int(subprocess.run([nproc], capture_output=True, text=True,
                                    check=True).stdout) if nproc else None,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "mem_total_mb": mem_kb // 1024,
        "ray_num_cpus": RAY_CPUS,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
    }


def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS mark (VmHWM) at the current RSS;
    False where the kernel does not allow it (the peak then spans the
    whole process)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        kb = next(int(line.split()[1]) for line in f
                  if line.startswith("VmHWM:"))
    return kb / 1024


class RaySession:
    """Starts and stops the local Ray instance, and waits until every
    process it started has ended."""

    def __init__(self, temp_root: str):
        self.temp_dir = temp_root if (
            len(temp_root) + SOCKET_SUFFIX_LEN <= 107) else None
        if self.temp_dir is None:
            log(f"checkout path too long for Ray's socket paths; Ray uses "
                f"its default temp dir instead of {temp_root}")
        self.session_dir = None

    def start(self) -> None:
        import ray
        import psutil  # Ray ships it; importable once ray is imported
        from ray.data import DataContext

        kw = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ctx = ray.init(address="local", num_cpus=RAY_CPUS,
                       object_store_memory=OBJECT_STORE_BYTES,
                       include_dashboard=False, log_to_driver=False,
                       logging_level="ERROR", **kw)
        self.session_dir = ctx.address_info.get("session_dir")
        DataContext.get_current().enable_progress_bars = False
        self.children = psutil.Process().children(recursive=True)

    def stop(self) -> None:
        import ray
        import psutil

        if not ray.is_initialized():
            return
        kids = self.children + psutil.Process().children(recursive=True)
        ray.shutdown()
        _, alive = psutil.wait_procs(kids, timeout=20)
        for p in alive:
            with contextlib.suppress(psutil.NoSuchProcess):
                p.kill()
        psutil.wait_procs(alive, timeout=10)
        if self.temp_dir and self.session_dir:
            shutil.rmtree(self.session_dir, ignore_errors=True)


def log(msg: str) -> None:
    print(f"kgbench: {msg}", file=sys.stderr, flush=True)


def run(args, out_dir: str) -> dict:
    from kgbench import tracing
    from kgbench.workloads import WORKLOADS, time_kernels

    work = os.path.join(out_dir, f"w{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, work, args.scale)
    ray_session = RaySession(os.path.join(out_dir, "r"))
    tracer = tracing.Tracer() if args.trace else None
    try:
        wl.write_warm_input()
        setup = []
        for rep in range(SETUP_REPS):
            if rep:
                ray_session.stop()
            t0 = time.perf_counter()
            ray_session.start()
            wl.warm(rep)
            setup.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.prepare()
        log(f"inputs ready in {time.perf_counter() - t0:.1f}s; "
            f"set-ups {[round(s, 3) for s in setup]}")

        # timed loop; with --trace 1, even operations run traced
        ops = []   # (index, traced, wall_s, triples) of operations that ran
        failed = 0
        peak_reset = reset_peak_rss()
        t_start = time.perf_counter()
        i = 0
        while (i < MIN_OPS or time.perf_counter() - t_start < args.seconds) \
                and (wl.max_ops is None or i < wl.max_ops):
            traced = bool(tracer) and i % 2 == 0
            if traced:
                tracer.run_id = i
                tracing.install_kgray_spans(tracer)
            try:
                t0 = time.perf_counter()
                if traced:
                    with tracer.span("bench.op"):
                        res = wl.op(i)
                else:
                    res = wl.op(i)
                wall = time.perf_counter() - t0
                ops.append((i, traced, wall, res.triples))
                if traced:
                    for k, v in res.counts.items():
                        tracer.count(k, v)
            except Exception:
                failed += 1
                log(f"operation {i} failed:\n{traceback.format_exc()}")
            finally:
                if traced:
                    tracer.uninstall()
            i += 1
        peak = peak_rss_mb()
        attempted = i + 1  # the untimed verification runs kgray as well
        try:
            found = wl.verify()
        except Exception:
            failed += 1
            found = {}
            log(f"verification failed:\n{traceback.format_exc()}")
        sample = wl.sample_docs() if tracer else None
        kernels = time_kernels(sample) if tracer else {}
    finally:
        ray_session.stop()
        shutil.rmtree(work, ignore_errors=True)

    untraced = [o for o in ops if not o[1]]
    spo = found.get("spo", {})
    e2e = {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median([o[2] for o in untraced]) if untraced else 0.0,
        "triples_per_s": statistics.median([o[3] / o[2] for o in untraced])
        if untraced else 0.0,
        "spo_f1": spo.get("f1", 0.0),
        "driver_peak_rss_mb": peak,
        "ok_frac": (attempted - failed) / attempted,
    }
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_shape(), "setup_s": setup,
              "ops": [{"i": o[0], "traced": o[1], "wall_s": o[2],
                       "triples": o[3]} for o in ops],
              "spo": spo, "violations": wl.violations,
              "peak_rss_reset": peak_reset,
              "append.stale_rows": found.get("append.stale_rows"),
              "end_to_end": e2e}
    result = {"correct": not wl.violations and failed == 0,
              "attempted": attempted, "failed": failed}
    if tracer:
        per_layer = layer_metrics(
            tracer, ops, kernels, wl.docs_per_op() / sample.num_rows,
            found, wl.extraction_only)
        detail["per_layer"] = per_layer
        tracer.dump(os.path.join(out_dir, "results", result_name(args)
                                 + ".spans.jsonl"))
        result["metrics"] = {k: {"value": per_layer[k], "unit": u}
                             for k, u in PER_LAYER.items()}
    else:
        result["metrics"] = {k: {"value": e2e[k], "unit": u}
                             for k, u in END_TO_END.items()}
    detail["result"] = result
    with open(os.path.join(out_dir, "results", result_name(args) + ".json"),
              "w") as f:
        json.dump(detail, f, indent=1)
    log(json.dumps({k: detail[k] for k in
                    ("workload", "seed", "host", "setup_s", "spo",
                     "violations", "append.stale_rows", "end_to_end")}))
    return result


def layer_metrics(tracer, ops, kernels: dict, samples_per_op: float,
                  found: dict, extraction_only: bool) -> dict:
    """Per-layer metrics: medians over the traced operations, plus the
    in-process kernel timings and the tracing overhead."""
    from kgbench import tracing

    per_run = tracing.per_run_metrics(
        [s for s in tracer.spans if s is not None], tracer.counts)
    wall = {o[0]: o[2] for o in ops if o[1]}
    for run_id, r in per_run.items():
        pairs = r.get("util.pairs_within_groups.pairs_out", 0)
        r["linking.verify_yield"] = (
            r.get("linking.edges_out", 0) / pairs if pairs else 0.0)
        if run_id in wall:
            r["trace.span_coverage_frac"] = (
                1 - r.get("bench.op.self_s", 0.0) / wall[run_id])
    m = tracing.median_over_runs(
        {k: r for k, r in per_run.items() if k in wall}, PER_LAYER)

    traced = [o[2] for o in ops if o[1]]
    plain = [o[2] for o in ops if not o[1]]
    if traced and plain:
        m["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        m["trace.overhead_frac"] = m["trace.overhead_s"] / statistics.median(plain)
    m.update(kernels)
    m["extract.kernel_cpu_s"] = samples_per_op * sum(
        kernels[f"{k}.s"] for k in KERNELS)
    if extraction_only and plain:
        m["extract.executor_overhead_frac"] = 1 - m["extract.kernel_cpu_s"] / (
            statistics.median(plain) * RAY_CPUS)
    m["append.stale_rows"] = found.get("append.stale_rows", 0)
    return {k: float(m.get(k, 0.0)) for k in PER_LAYER}


def result_name(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor (tests run tiny sizes)")
    args = p.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import kgray  # noqa: F401  the program under test, from this checkout
    except ImportError as e:
        log(f"cannot import kgray from {ROOT}: {e}")
        return 2
    from kgbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2

    # Ray's processes and every worker import kgray from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"  # never report usage over the network
    out_dir = os.path.join(ROOT, ".kgb")
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)

    # Only the result goes to stdout: everything else written to fd 1,
    # by this process or the Ray processes it starts, lands on stderr.
    stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        result = run(args, out_dir)
    finally:
        sys.stdout.flush()
        os.dup2(stdout, 1)
        os.close(stdout)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
