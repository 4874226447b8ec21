"""Record the sha256 of every artifact of each workload at the golden seeds.

    python3 perfbench/record_golden.py

Rewrites ``perfbench/golden.json``.  Run it only on a commit whose outputs
are the reference: the benchmark then fails any later commit whose
artifacts at these seeds differ by a byte.
"""
from __future__ import annotations

import json
import shutil

import child
import workloads

GOLDEN_SEEDS = range(10)


def main() -> None:
    cli = child.library()
    work = child.ROOT / ".perfbench_out" / "golden"
    golden = {}
    for name, w in workloads.WORKLOADS.items():
        golden[name] = {}
        for seed in GOLDEN_SEEDS:
            out = work / f"{name}-{seed}"
            _, code, _ = child.run_call(cli, w.config(seed, w.size), out)
            if code != 0:
                raise SystemExit(f"{name} seed {seed} exited {code}")
            golden[name][str(seed)] = child.digests(out)
            shutil.rmtree(out)
    shutil.rmtree(work)
    child.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
