"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json prints with its unit, that a
corrupted artifact, a failed guarantee or a failed exit code each raise the
error rate above 0, that two seeds give different configs whose guarantees
both pass, and that a traced call's layer self times plus its unattributed
remainder add up to its traced wall time.  Exits 1 on the first failure.
"""
from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import child
import workloads
from tracer import Tracer

TOY_SIZE = {"measure_campaign": 10 * workloads.CAMPAIGN_LENGTH, "pserver_stale": 5_000, "shmem_replay": 20_000}
BROKEN_GUARANTEE = {
    "measure_campaign": {"violations": 1},
    "pserver_stale": {"mean_error": [1.0, 1.0]},
    "shmem_replay": {"late_tv": 0.5},
}
SEEDS = (1, 2)


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def error_rate(checks: list) -> float:
    return sum(not ok for _, ok in checks) / len(checks)


def check_printed_metrics() -> None:
    bench = json.loads((child.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(child.ROOT / "perfbench" / "run.py"), "--workload", "all",
             "--seed", "0", "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=600,
        )
        expect(proc.returncode == 0, f"run.py --workload all --trace {trace} exits 0")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        expect(result["correct"] and result["failed"] == 0, f"trace {trace}: every check passes")
        for name in workloads.WORKLOADS:
            for spec in bench[key]:
                metric = result["metrics"][f"{name}.{spec['name']}"]
                printed = any(ln.split()[:1] == [spec["name"]] and ln.split()[-1] == spec["unit"] for ln in lines)
                expect(metric["unit"] == spec["unit"] and math.isfinite(metric["value"]) and printed,
                       f"{name}: {spec['name']} prints with unit {spec['unit']}")
        expect(sum(ln.split()[:1] == ["error_rate"] for ln in lines) == len(workloads.WORKLOADS),
               f"trace {trace}: error_rate printed for every workload")


def bindings() -> dict:
    """Identity of every name bound in the library's modules and proposal classes."""
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "asyncmc"]
    owners += [v for m in owners for v in vars(m).values() if isinstance(v, type)]
    return {(id(o), k): id(v) for o in owners for k, v in list(vars(o).items())}


def check_workload(cli, name: str) -> None:
    w, size = workloads.WORKLOADS[name], TOY_SIZE[name]
    work = child.ROOT / ".perfbench_out" / "selftest"
    docs = [w.config(seed, size) for seed in SEEDS]
    expect(docs[0] != docs[1], f"{name}: seeds {SEEDS} give different configs")
    for seed, doc in zip(SEEDS, docs):
        out = work / f"{name}-{seed}"
        _, code, summary = child.run_call(cli, doc, out)
        clean, found = child.check_call(w, size, code, summary, out, None, None)
        expect(error_rate(clean) == 0, f"{name} seed {seed}: guarantees pass at toy size")

        again, _ = child.check_call(w, size, code, summary, out, found, found)
        expect(error_rate(again) == 0, f"{name} seed {seed}: unchanged artifacts match their digests")
        broken = copy.deepcopy(summary)
        broken.update(BROKEN_GUARANTEE[name])
        checks, _ = child.check_call(w, size, code, broken, out, found, found)
        expect(error_rate(checks) > 0, f"{name} seed {seed}: a failed guarantee raises error_rate")
        checks, _ = child.check_call(w, size, 3, summary, out, found, found)
        expect(error_rate(checks) > 0, f"{name} seed {seed}: a non-zero exit code raises error_rate")
        artifact = out / "metrics.csv"
        data = bytearray(artifact.read_bytes())
        data[len(data) // 2] ^= 1
        artifact.write_bytes(bytes(data))
        checks, _ = child.check_call(w, size, code, summary, out, found, found)
        expect(error_rate(checks) > 0, f"{name} seed {seed}: a corrupted artifact raises error_rate")

    out = work / f"{name}-traced"
    tracer = Tracer()
    before = bindings()
    with tracer:
        wall, code, _ = child.run_call(cli, docs[0], out)
    shutil.rmtree(work)
    layers = child.layer_metrics(tracer, 1, size, wall, 1.0, 0.0,
                                 {"us_per_write": 0.0, "stale1_share": 0.0, "max_staleness": 0})
    parts = layers["cli.run_experiment.self_s"] + layers["trace.unattributed_s"] + sum(
        layers[f"layer.{m}.self_s"] for m in child.TRACED_MODULES)
    expect(code == 0 and math.isclose(parts, wall, rel_tol=1e-9),
           f"{name}: layer self times plus remainder equal traced wall ({parts:.6f} vs {wall:.6f} s)")
    expect(bindings() == before, f"{name}: the tracer puts every binding back")


def main() -> None:
    cli = child.library()
    for name in workloads.WORKLOADS:
        check_workload(cli, name)
    check_printed_metrics()
    print("selftest passed")


if __name__ == "__main__":
    main()
