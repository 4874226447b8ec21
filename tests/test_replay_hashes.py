"""Pinned artifacts of ``shmem_replay`` and ``pserver`` runs that no canned config covers.

The sha256 of ``trace.jsonl``, ``metrics.csv`` and ``summary.json`` of the
replays were recorded with the ``kernel_step`` replay loop, before
finite-target Metropolis-Hastings replays stepped on state indices; those of
the server runs with the per-message loop in which each worker shipped the
density of its proposal and a coupled finite run enumerated the product of
its replica spaces.  A run that changes any value, any stream order or any
label object shows up here as a changed byte.  Regenerate the table with
``python tests/test_replay_hashes.py`` only on a commit whose outputs are the
reference.
"""
import hashlib
import sys
from pathlib import Path

import pytest

from asyncmc.cli import ExperimentConfig, run_experiment

_MH = "metropolis_hastings"
_REPLAY = "shmem_replay"
_SERVER = "pserver"
_GAUSSIAN_GIBBS_FROZEN = {
    "target": {"type": "gaussian_correlated", "rho": 0.9},
    "kernel": {"kind": "gibbs_single_site"},
    "m": 3, "horizon": 20000, "seed": 23,
    "delay": {"kind": "fifo_fixed", "params": {"latency": 0.0, "periods": [1.0, 2.0, 2.0], "jitter": 0.5},
              "staleness_cap": 10**9},
    "params": {"init": [3.0, -3.0], "frozen_workers": [0]},
}
_COUPLED_TABLE = {
    "experiment": "coupled",
    "target": {"type": "finite", "weights": [1.0, 2.0, 3.0, 0.5]},
    "kernel": {"kind": _MH, "proposal": {"type": "table_independence", "weights": [1.0, 3.0, 2.0, 1.0]}},
    "horizon": 12000, "correction": "mh_corrected",
    "delay": {"kind": "reorder_random", "params": {"span": 5, "jitter": 0.2}, "staleness_cap": 64},
}

CONFIGS = {
    # a zero-weight state is proposed and never entered; an odd horizon
    "table_proposal": {
        "mode": _REPLAY,
        "target": {"type": "finite", "weights": [1.0, 2.0, 3.0, 0.5, 0.0]},
        "kernel": {"kind": _MH, "proposal": {"type": "table_independence",
                                             "weights": [1.0, 3.0, 2.0, 1.0, 0.5]}},
        "m": 3, "b": 5, "horizon": 3001, "seed": 11,
    },
    "finite_gibbs": {
        "mode": _REPLAY,
        "target": {"type": "finite", "weights": [1.0, 2.0, 3.0]},
        "kernel": {"kind": "gibbs_single_site"},
        "m": 4, "b": 8, "horizon": 2000, "seed": 12,
    },
    "string_labels": {
        "mode": _REPLAY,
        "target": {"type": "finite", "weights": [2.0, 1.0, 1.0, 3.0], "labels": ["a", 1, 2.5, "d"]},
        "kernel": {"kind": _MH, "proposal": {"type": "uniform_independence"}},
        "m": 2, "b": 3, "horizon": 2500, "seed": 13,
    },
    "adversarial_max_stale": {
        "mode": _REPLAY,
        "target": {"type": "finite", "weights": [1.0, 2.0, 3.0]},
        "kernel": {"kind": _MH, "proposal": {"type": "uniform_independence"}},
        "m": 3, "b": 6, "horizon": 1501, "seed": 14,
        "params": {"schedule": {"type": "adversarial", "name": "always_max_stale"}},
    },
    # worker 0 takes almost every step: one long stream, many fetches
    "adversarial_dominant_table": {
        "mode": _REPLAY,
        "target": {"type": "finite", "weights": [5.0, 1.0, 1.0, 2.0, 0.25, 4.0, 1.0]},
        "kernel": {"kind": _MH, "proposal": {"type": "table_independence",
                                             "weights": [1.0, 1.0, 2.0, 1.0, 1.0, 3.0, 0.0]}},
        "m": 2, "b": 50, "horizon": 20000, "seed": 15,
        "params": {"schedule": {"type": "adversarial", "name": "single_worker_dominant"}},
    },
    # the server pins: each message decided on the per-message path
    "server_finite_mh_zero_delay": {
        "mode": _SERVER,
        "target": {"type": "finite", "weights": [1.0, 2.0, 3.0, 0.5]},
        "kernel": {"kind": _MH, "proposal": {"type": "table_independence", "weights": [1.0, 3.0, 2.0, 1.0]}},
        "m": 1, "horizon": 10001, "seed": 21, "correction": "mh_corrected",
        "delay": {"kind": "fifo_fixed", "params": {"latency": 0.0, "jitter": 0.0}, "staleness_cap": 0},
    },
    "server_finite_gibbs": {
        "mode": _SERVER,
        "target": {"type": "finite", "weights": [1.0, 2.0, 3.0]},
        "kernel": {"kind": "gibbs_single_site"},
        "m": 3, "horizon": 8000, "seed": 22, "correction": "mh_corrected",
        "delay": {"kind": "reorder_random", "params": {"span": 4}, "staleness_cap": 64},
    },
    "server_gaussian_gibbs_frozen_naive": {
        "mode": _SERVER, "correction": "naive_accept", **_GAUSSIAN_GIBBS_FROZEN,
    },
    "server_gaussian_gibbs_frozen_corrected": {
        "mode": _SERVER, "correction": "mh_corrected", **_GAUSSIAN_GIBBS_FROZEN,
    },
    "server_coupled_m2_frozen": {
        "mode": _SERVER, **_COUPLED_TABLE, "m": 2, "seed": 24, "params": {"frozen_workers": [1]},
    },
    "server_coupled_m3_frozen": {
        "mode": _SERVER, **_COUPLED_TABLE, "m": 3, "seed": 25, "params": {"frozen_workers": [0]},
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
    "server_coupled_m2_frozen": {
        "metrics.csv": "fe42382cf77fc9c3adb6f1a67a8b72b1da24dd95d1c816b8d0a6d684f053c711",
        "summary.json": "f676fd5af7e82043ead01a2796f6b65bbb668379c5e222e6b1b713d62a9ecfef",
        "trace.jsonl": "34c3f89c26565120e456c02b419b9ddb01e20b682e83431010047398d3ff7580",
    },
    "server_coupled_m3_frozen": {
        "metrics.csv": "8c95f0498245ba76aec5048b0a95b2f62b1784d4dcaa1a7aaf36870cfab712ee",
        "summary.json": "abf2711abef7ebff983e8ed2f428c7bd850a52ef93170354287ad45dbc3562dd",
        "trace.jsonl": "93e2d24ed58ea0ef1fbc5befa5e6512aeeb3b631d01aa3b8e6d7a798647f9b19",
    },
    "server_finite_gibbs": {
        "metrics.csv": "69e95b7707b1bdcee316f95b3a56308f9805b515bc45b9e4b51712485da3d2ca",
        "summary.json": "c33452301784f0550d56a2c68780b0719cf5fa0e5eb5e53fa6324532328b20c8",
        "trace.jsonl": "e081abf072e21f6c6560a2734f652be72198dae74091ba261c02b7b142afd3da",
    },
    "server_finite_mh_zero_delay": {
        "metrics.csv": "31caa2bb5779fcb3e326c9c728bb482e470135628e6e29948b52e938c5ad30d6",
        "summary.json": "5234b6d5df1978f93311274eae8562a443f2e671a1b02fb7b39c0446eb0f1363",
        "trace.jsonl": "0a11b36022a41c271410f3180bdc54ca23c649b296f0c8aee026104784784a5c",
    },
    "server_gaussian_gibbs_frozen_corrected": {
        "metrics.csv": "acf063a8df0b3eef821fccabbad0275e12b86ead82ced062c5760f7512dd3494",
        "summary.json": "7f0540b7191d809451f596330d3411e3c4bec69ad661af20be69fb961116ea91",
        "trace.jsonl": "a37baf7b4b070495aa0274b64f29a33d6c0a9bd9484415b9927c046fec310c17",
    },
    "server_gaussian_gibbs_frozen_naive": {
        "metrics.csv": "633156cfffbbda133cd5b8a0d6f015916a07a749db04254ed7789fb7052f053a",
        "summary.json": "75dad858d36f508e832d1c8a10edda14f8e61edb2499ec864312f627a984f224",
        "trace.jsonl": "3b8f2f4ab7a0c169bb18ba1d31fbab3d5c0dfc3637426a7a52f82ceee3e88310",
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
    doc = {"name": name, "out_dir": str(out), **CONFIGS[name]}
    code, _ = run_experiment(ExperimentConfig.from_dict(doc))
    assert code == 0
    return {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS}


def _named(mode: str) -> list:
    return sorted(name for name, doc in CONFIGS.items() if doc["mode"] == mode)


@pytest.mark.parametrize("name", _named(_REPLAY))
def test_replay_artifacts_match_pinned_hashes(name, tmp_path):
    assert digests(name, tmp_path) == PINNED[name]


@pytest.mark.parametrize("name", _named(_SERVER))
def test_server_artifacts_match_pinned_hashes(name, tmp_path):
    assert digests(name, tmp_path) == PINNED[name]


if __name__ == "__main__":
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {n: digests(n, Path(tmp) / n) for n in sorted(CONFIGS)}
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    print()
