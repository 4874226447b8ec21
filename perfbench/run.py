"""Benchmark of asyncmc: three workloads through ``cli.run_experiment``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 3

Run from the root of a checkout; the library is imported from its ``src``.
With ``--trace 0`` a run reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` is the median over several fresh processes that import the
library and build the workload's config, and ``wall_s``, ``events_per_s``
and ``peak_rss_mb`` come from one fresh single-threaded process that repeats
the workload's call for S seconds and reports the median call.  Times are
scaled by a reference loop timed beside them (see child.py); the unscaled
medians are printed and recorded too.  With
``--trace 1`` the same process alternates untraced and traced calls and
reports the per-layer metrics instead.  Every call's artifacts are checked:
exit code, event count, the workload's guarantees, byte identity with the
first call, and, for seeds listed in ``golden.json``, the recorded sha256.

Each run writes a record (machine, commit, seed, config, every check) to
``.perfbench_out/``.  The last line of output is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchmarkError(RuntimeError):
    pass


def run_child(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), *map(str, args)],
        cwd=ROOT, env={**os.environ, **SINGLE_THREAD_ENV},
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchmarkError(f"child {args[0]} {args[1]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, specs: dict,
                 why: str) -> tuple[dict, dict]:
    """Measure one workload; returns (metrics with units, run record)."""
    w = WORKLOADS[name]
    setups = [] if trace else [run_child("setup", name, seed) for _ in range(SETUP_PROBES)]
    res = run_child("measure", name, seed, seconds, int(trace), OUT)
    values = dict(res["metrics"])
    if setups:
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    missing = set(specs) - set(values)
    if missing:
        raise BenchmarkError(f"{name}: no value for {sorted(missing)}")
    failed = [c for c, ok in res["checks"] if not ok]
    record = {
        "workload": name,
        "why": why,
        "input_size": w.input_size,
        "events_per_call": res["events"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": res["numpy"]},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "config": res["config"],
        "calls": res["calls"],
        "untraced_walls_s": res["plain_walls"],
        "reference_loop_s": res["reference_s"],
        "raw_wall_s": res["raw_wall_s"],
        "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups) if setups else None,
        "setup_probes": setups,
        "golden_checked": res["golden_checked"],
        "checks_attempted": len(res["checks"]),
        "checks_failed": failed,
        "error_rate": len(failed) / len(res["checks"]),
        "metrics": values,
    }
    for key in ("traced_walls", "run_async_probe", "spans_file"):
        if key in res:
            record[key] = res[key]
    metrics = {m: {"value": values[m], "unit": specs[m]} for m in specs}
    return metrics, record


def report(record: dict, metrics: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} calls={record['calls']} "
          f"events/call={record['events_per_call']} ({record['input_size']})")
    print(f"#   why: {record['why']}")
    for m, v in metrics.items():
        print(f"  {m:48s} {v['value']:.6g} {v['unit']}")
    print(f"  {'error_rate':48s} {record['error_rate']:.6g} ratio "
          f"({len(record['checks_failed'])} of {record['checks_attempted']} checks failed)")
    for c in record["checks_failed"]:
        print(f"  FAILED CHECK: {c}")
    if record["raw_setup_s"] is not None:
        print(f"#   unscaled by the reference loop: wall_s {record['raw_wall_s']:.6g} s, "
              f"setup_s {record['raw_setup_s']:.6g} s")
    if "run_async_probe" in record:
        values = record["metrics"]
        parts = [k for k in values if k.startswith("layer.")] + ["cli.run_experiment.self_s", "trace.unattributed_s"]
        print(f"#   layer self times + cli self + unattributed = {sum(values[k] for k in parts):.6f} s, "
              f"traced wall_s = {values['trace.wall_s']:.6f} s")
        probe = record["run_async_probe"]
        print(f"#   run_async probe, {probe['threads']} threads: staleness histogram "
              f"(bucket upper bound: writes) {probe['staleness_histogram_upto']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "asyncmc" / "__init__.py").is_file():
        print(f"no asyncmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if set(whys) != set(WORKLOADS):
        print(f"BENCHMARK.json lists {sorted(whys)}, the benchmark runs {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)

    results, attempted, failed = {}, 0, 0
    try:
        for name in names:
            metrics, record = run_workload(name, args.seed, args.seconds, bool(args.trace), specs, whys[name])
            path = OUT / f"run-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=2) + "\n")
            report(record, metrics)
            attempted += record["checks_attempted"]
            failed += len(record["checks_failed"])
            prefix = "" if len(names) == 1 else f"{name}."
            results.update({prefix + m: v for m, v in metrics.items()})
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
