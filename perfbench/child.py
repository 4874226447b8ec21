"""One fresh, single-threaded process of the benchmark.

    python3 perfbench/child.py setup   WORKLOAD SEED
    python3 perfbench/child.py measure WORKLOAD SEED SECONDS TRACE OUT_DIR

``setup`` times importing the library and building and validating the
workload's config.  ``measure`` repeats the workload's ``cli.run_experiment``
call until SECONDS have passed, checks every call's artifacts, and with
TRACE=1 alternates untraced and traced calls and then probes the threaded
executor.  Either prints one JSON object as its last line of output.

On the shared 2-vCPU machine the bounds were set on, the raw median call
time of one workload varied by 25% (quartile spread) from run to run, and a
fixed pure-Python loop slowed and sped up with it.  So each end-to-end time
is divided by a reference loop timed in the same process just before it,
and reported in seconds of a machine on which that loop takes REF_NOMINAL_S;
this cut the run-to-run spread to about 7%.  The raw times go into the run
record beside them.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
sys.path.insert(0, str(ROOT / "src"))

REF_ITERATIONS = 400_000
REF_NOMINAL_S = 0.043  # median of reference_loop() on the 2-vCPU machine the bounds were set on
PROBE_WRITES = 20_000
PROBE_THREADS = 2
TRACED_MODULES = ("schedules", "measure_sim", "measures", "kernels", "shmem", "pserver", "diagnostics")


def library():
    import asyncmc
    from asyncmc import cli

    if not Path(asyncmc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"asyncmc imported from {asyncmc.__file__}, not from this checkout")
    return cli


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def scaled_median(walls: list, refs: list) -> float:
    """Median call time in seconds of a machine whose reference loop takes REF_NOMINAL_S."""
    return statistics.median(t * REF_NOMINAL_S / r for t, r in zip(walls, refs, strict=True))


def setup(name: str, seed: int) -> dict:
    w = workloads.WORKLOADS[name]
    start = time.perf_counter()
    cli = library()
    cfg = cli.ExperimentConfig.from_dict(w.config(seed, w.size))
    target = cli.build_target(cfg.target)
    cli.build_kernel(cfg.kernel, target)
    if cfg.delay is not None:
        cli.build_delay(cfg.delay)
    elapsed = time.perf_counter() - start
    return {"setup_s": elapsed * REF_NOMINAL_S / reference_loop(), "raw_setup_s": elapsed}


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def check_call(w, size: int, code, summary, out: Path, golden: dict | None,
               first: dict | None) -> tuple[list, dict]:
    """Named (check, ok) pairs for one run_experiment call, and its digests."""
    from asyncmc.errors import AsyncMCError

    if code != 0:
        return [("exit_code", False)], {}
    checks = [("exit_code", True)]
    try:
        checks.append(("events", w.events(summary, out) == size))
        checks += w.guarantees(summary, out)
    except (AsyncMCError, KeyError, TypeError, ValueError, OSError) as exc:
        checks.append((f"guarantees ({type(exc).__name__}: {exc})", False))
    found = digests(out)
    if golden is not None:
        for fname in sorted(set(golden) | set(found)):
            checks.append((f"golden.{fname}", golden.get(fname) == found.get(fname)))
    if first is not None:
        checks.append(("same_artifacts_as_first_call", found == first))
    return checks, found


def run_call(cli, doc: dict, out: Path) -> tuple[float, int, dict]:
    cfg = cli.ExperimentConfig.from_dict({**doc, "out_dir": str(out)})
    start = time.perf_counter()
    try:
        code, summary = cli.run_experiment(cfg)
    except Exception:  # a raising call is a failed check, not a crashed benchmark
        traceback.print_exc()
        code, summary = -1, {}
    return time.perf_counter() - start, code, summary


def probe_run_async(cli, seed: int) -> dict:
    """Threaded executor on the 3-state target; observed only, gates nothing."""
    from asyncmc import shmem

    doc = workloads.WORKLOADS["shmem_replay"].config(seed, PROBE_WRITES)
    target = cli.build_target(doc["target"])
    kernel = cli.build_kernel(doc["kernel"], target)
    threads = min(PROBE_THREADS, os.cpu_count() or 1)
    start = time.perf_counter()
    record = shmem.run_async(kernel, threads, PROBE_WRITES, seed, PROBE_WRITES)
    wall = time.perf_counter() - start
    staleness = Counter(ev.seq - ev.read_from for ev in record.trace.events)
    buckets = Counter()
    for s, n in staleness.items():
        buckets[1 if s == 1 else 1 << (s - 1).bit_length()] += n
    return {
        "threads": threads,
        "writes": PROBE_WRITES,
        "wall_s": wall,
        "us_per_write": 1e6 * wall / PROBE_WRITES,
        "stale1_share": staleness[1] / PROBE_WRITES,
        "max_staleness": max(staleness),
        "staleness_histogram_upto": {str(k): buckets[k] for k in sorted(buckets)},
    }


def layer_metrics(tracer: Tracer, calls: int, events: int, traced_wall: float,
                  traced_to_plain: float, artifact_bytes: float, probe: dict) -> dict:
    """Per-layer metrics, each averaged over the traced calls.

    ``traced_to_plain`` is the ratio of scaled median traced and untraced
    call times, from which the tracing overhead is reported.
    """
    agg = tracer.agg

    def count(name):
        return agg[name][0] / calls

    def total(name):
        return agg[name][1] / calls

    def own(name):
        return agg[name][2] / calls

    def per_call(name):
        return agg[name][1] / agg[name][0] if agg[name][0] else 0.0

    record = tracer.results.get("pserver.run_pserver")
    cfg = record.config if record is not None else {}
    by_module = tracer.self_seconds_by_module()
    attributed = sum(by_module.values())
    us = 1e6 / events
    out = {
        "schedules.random_schedule.us_per_event": us * total("schedules.random_schedule"),
        "schedules.validate.us_per_event": us * total("schedules.validate"),
        "schedules.schedule_to_jsonl.us_per_event": us * total("schedules.schedule_to_jsonl"),
        "measure_sim.propagate.self_us_per_event": us * own("measure_sim.propagate"),
        "measure_sim.verify_theorem4.us_per_event": us * total("measure_sim.verify_theorem4"),
        "measures.apply_operator.calls": count("measures.apply_operator"),
        "measures.apply_operator.us_per_call": 1e6 * per_call("measures.apply_operator"),
        "measures.tv_distance.calls": count("measures.tv_distance"),
        "measures.tv_distance.us_per_call": 1e6 * per_call("measures.tv_distance"),
        "measures.stationary_distribution.ms_per_call": 1e3 * per_call("measures.stationary_distribution"),
        "kernels.kernel_step.us_per_call": 1e6 * per_call("kernels.kernel_step"),
        "kernels.proposal.calls": count("kernels.proposal"),
        "kernels.proposal.us_per_call": 1e6 * per_call("kernels.proposal"),
        "kernels.render_matrix.ms": 1e3 * total("kernels.render_matrix"),
        "shmem.replay.self_us_per_write": us * own("shmem.replay"),
        "shmem.run_async.us_per_write": probe["us_per_write"],
        "shmem.run_async.stale1_share": probe["stale1_share"],
        "shmem.run_async.max_staleness": probe["max_staleness"],
        "pserver.run_pserver.self_us_per_msg": us * own("pserver.run_pserver"),
        "pserver.server_receive.us_per_call": 1e6 * per_call("pserver.server_receive"),
        "pserver.accept_rate": record.accept_rate if record is not None else 0.0,
        "pserver.resend_ratio": cfg["resends"] / cfg["messages_sent"] if cfg else 0.0,
        "pserver.pending_at_exit": cfg.get("pending_at_exit", 0),
        "diagnostics.moments.ms": 1e3 * total("diagnostics.moments"),
        "cli.run_experiment.self_s": own("cli.run_experiment"),
        "cli.artifact_bytes": artifact_bytes,
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - attributed / calls,
        "trace.overhead_frac": traced_to_plain - 1.0,
    }
    for module in TRACED_MODULES:
        out[f"layer.{module}.self_s"] = by_module.get(module, 0.0) / calls
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    import numpy

    cli = library()
    w = workloads.WORKLOADS[name]
    doc = w.config(seed, w.size)
    golden = json.loads(GOLDEN.read_text()).get(name, {}).get(str(seed))
    work = out_root / f"{name}-{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    plain_walls, refs, traced_walls, traced_refs, artifact_bytes = [], [], [], [], []
    checks, first = [], None
    deadline = time.perf_counter() + seconds
    try:
        for i in itertools.count():
            traced = trace and i % 2 == 1
            out = work / f"call{i}"
            ref = reference_loop()
            if traced:
                with tracer:
                    wall, code, summary = run_call(cli, doc, out)
                traced_walls.append(wall)
                traced_refs.append(ref)
                artifact_bytes.append(sum(p.stat().st_size for p in out.iterdir()))
            else:
                wall, code, summary = run_call(cli, doc, out)
                plain_walls.append(wall)
                refs.append(ref)
            call_checks, found = check_call(w, w.size, code, summary, out, golden, first)
            checks += call_checks
            first = first or found
            shutil.rmtree(out, ignore_errors=True)
            if time.perf_counter() >= deadline and (traced_walls or not trace):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "numpy": numpy.__version__,
        "config": doc,
        "events": w.size,
        "calls": len(plain_walls) + len(traced_walls),
        "plain_walls": plain_walls,
        "reference_s": refs,
        "raw_wall_s": statistics.median(plain_walls),
        "checks": checks,
        "golden_checked": golden is not None,
    }
    wall = scaled_median(plain_walls, refs)
    if not trace:
        result["metrics"] = {
            "wall_s": wall,
            "events_per_s": w.size / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return result
    probe = probe_run_async(cli, seed)
    n = len(traced_walls)
    result["traced_walls"] = traced_walls
    result["run_async_probe"] = probe
    result["metrics"] = layer_metrics(
        tracer, n, w.size, statistics.fmean(traced_walls), scaled_median(traced_walls, traced_refs) / wall,
        statistics.fmean(artifact_bytes), probe,
    )
    spans_file = out_root / f"spans-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps({
        "fields": ["id", "name", "start", "end", "parent"],
        "spans": tracer.spans,
        "aggregates": {k: dict(zip(("calls", "total_s", "self_s"), v)) for k, v in tracer.agg.items()},
    }))
    result["spans_file"] = str(spans_file.relative_to(ROOT))
    return result


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = setup(name, seed)
    else:
        seconds, trace, out_root = float(argv[3]), argv[4] == "1", Path(argv[5])
        result = measure(name, seed, seconds, trace, out_root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
