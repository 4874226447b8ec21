"""Pinned artifacts of ``shmem_replay`` runs that no canned config covers.

The sha256 of ``trace.jsonl``, ``metrics.csv`` and ``summary.json`` were
recorded with the ``kernel_step`` replay loop, before finite-target
Metropolis-Hastings replays stepped on state indices.  A replay that changes
any value, any stream order or any label object shows up here as a changed
byte.  Regenerate the table with ``python tests/test_replay_hashes.py`` only
on a commit whose replay outputs are the reference.
"""
import hashlib
import sys
from pathlib import Path

import pytest

from asyncmc.cli import ExperimentConfig, run_experiment

_MH = "metropolis_hastings"

CONFIGS = {
    # a zero-weight state is proposed and never entered; an odd horizon
    "table_proposal": {
        "target": {"type": "finite", "weights": [1.0, 2.0, 3.0, 0.5, 0.0]},
        "kernel": {"kind": _MH, "proposal": {"type": "table_independence",
                                             "weights": [1.0, 3.0, 2.0, 1.0, 0.5]}},
        "m": 3, "b": 5, "horizon": 3001, "seed": 11,
    },
    "finite_gibbs": {
        "target": {"type": "finite", "weights": [1.0, 2.0, 3.0]},
        "kernel": {"kind": "gibbs_single_site"},
        "m": 4, "b": 8, "horizon": 2000, "seed": 12,
    },
    "string_labels": {
        "target": {"type": "finite", "weights": [2.0, 1.0, 1.0, 3.0], "labels": ["a", 1, 2.5, "d"]},
        "kernel": {"kind": _MH, "proposal": {"type": "uniform_independence"}},
        "m": 2, "b": 3, "horizon": 2500, "seed": 13,
    },
    "adversarial_max_stale": {
        "target": {"type": "finite", "weights": [1.0, 2.0, 3.0]},
        "kernel": {"kind": _MH, "proposal": {"type": "uniform_independence"}},
        "m": 3, "b": 6, "horizon": 1501, "seed": 14,
        "params": {"schedule": {"type": "adversarial", "name": "always_max_stale"}},
    },
    # worker 0 takes almost every step: one long stream, many fetches
    "adversarial_dominant_table": {
        "target": {"type": "finite", "weights": [5.0, 1.0, 1.0, 2.0, 0.25, 4.0, 1.0]},
        "kernel": {"kind": _MH, "proposal": {"type": "table_independence",
                                             "weights": [1.0, 1.0, 2.0, 1.0, 1.0, 3.0, 0.0]}},
        "m": 2, "b": 50, "horizon": 20000, "seed": 15,
        "params": {"schedule": {"type": "adversarial", "name": "single_worker_dominant"}},
    },
}

PINNED = {
    "adversarial_dominant_table": {
        "metrics.csv": "23db66630733eff2d96329474147159d2d4c2582512f15c916ca33a72e1e9f28",
        "summary.json": "dbaf5d36d4794f0db0ddcc9b3fd8a6ad2a9161dd2aa04400836e4ce23bb89e67",
        "trace.jsonl": "1ea86f75a5f692d1697b95ef61c4b8c1391a8ac8e0a5b08ea34f014e7d6a7d81",
    },
    "adversarial_max_stale": {
        "metrics.csv": "614aa26ec41065f76ce0e0e27288a1caa60f3cc064691a73ec661fb6a8ba1078",
        "summary.json": "ad6b1692422dba14bebd8b1aaff2cb3625d025e27bfe8524746c887b90273df6",
        "trace.jsonl": "00df1fb0721794a45359bf555b760961e3f44666baf66c42af4840c6e46c88be",
    },
    "finite_gibbs": {
        "metrics.csv": "c750174934724f0428bf500d86f2e6ea80ea740f27a1a04873c280d811860014",
        "summary.json": "496cb28a6967ef94a4b17796e5c96d649ac9627049ac2b3876a4ac2f3fda2a2a",
        "trace.jsonl": "8d33deab0237c94067d11de22632aa455290308834da195e41b66cd08ba58084",
    },
    "string_labels": {
        "metrics.csv": "7a024536809ca22d0be91ac1f94c5df0226cd72e1ebdd1dc204eab2d9b3b2318",
        "summary.json": "0ac5dca77c5f8e9f6ea1c016e4d092dccb91003bd70315d068954de127560a10",
        "trace.jsonl": "06c59cd9686ea090715fcb6002ea5633b54d0271e34d680ca428420f58216450",
    },
    "table_proposal": {
        "metrics.csv": "6cecbfbbe8ef4d07bb5361965009521faf0732ea8cd4477df3228341f1b3a67e",
        "summary.json": "bfc645f1406d16c24988494dae096d2b31eead3c86eafd6929fe6444776e4913",
        "trace.jsonl": "8a7479336cf520c0e49d44631226449eed24395b532c30b055307c4dc3d8b365",
    },
}

ARTIFACTS = ("trace.jsonl", "metrics.csv", "summary.json")


def digests(name: str, out: Path) -> dict:
    doc = {"name": name, "mode": "shmem_replay", "out_dir": str(out), **CONFIGS[name]}
    code, _ = run_experiment(ExperimentConfig.from_dict(doc))
    assert code == 0
    return {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_replay_artifacts_match_pinned_hashes(name, tmp_path):
    assert digests(name, tmp_path) == PINNED[name]


if __name__ == "__main__":
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {n: digests(n, Path(tmp) / n) for n in sorted(CONFIGS)}
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    print()
