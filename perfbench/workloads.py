"""The benchmark's workloads: configs generated from a seed, and their checks.

Each workload is one ``cli.run_experiment`` call on a config built here from
the ``--seed`` argument, so the library only ever sees generated configs.
The three workloads each put one kind of caller at the centre and leave the
others nearly idle, so that a change to one layer has a workload that shows
it and a workload whose prediction is "no change".

This module is plain Python: the orchestrator imports it without importing
the library.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CAMPAIGN_LENGTH = 300  # events per campaign instance, as in theorem4_campaign
MAX_FINAL_D = 1e-8
MAX_SE_MULTIPLE = 3.0
MAX_LATE_TV = 0.02

_THREE_STATE = {"type": "finite", "weights": [1.0, 2.0, 3.0]}
_MH_UNIFORM = {"kind": "metropolis_hastings", "proposal": {"type": "uniform_independence"}}


@dataclass(frozen=True)
class Workload:
    """One workload; why it was chosen is stated in BENCHMARK.json."""

    name: str
    size: int  # committed events per run_experiment call
    input_size: str
    config: Callable[[int, int], dict]  # (seed, size) -> config document
    events: Callable[[dict, Path], int]  # (summary, out_dir) -> committed events
    guarantees: Callable[[dict, Path], list]  # (summary, out_dir) -> [(check, ok)]


def _campaign_config(seed: int, size: int) -> dict:
    return {
        "name": f"measure_campaign-{seed}", "mode": "measure_sim", "seed": seed,
        "experiment": "theorem4_campaign", "target": _THREE_STATE, "kernel": _MH_UNIFORM,
        "m": 5, "b": 10, "horizon": CAMPAIGN_LENGTH,
        "params": {"instances": size // CAMPAIGN_LENGTH, "n_states_max": 6, "m_max": 5, "b_max": 10},
    }


def _campaign_events(summary: dict, out: Path) -> int:
    return summary["instances"] * CAMPAIGN_LENGTH


def _campaign_guarantees(summary: dict, out: Path) -> list:
    return [
        ("campaign.violations_zero", summary["violations"] == 0),
        ("campaign.worst_final_d", summary["worst_final_d"] <= MAX_FINAL_D),
    ]


def _pserver_config(seed: int, size: int) -> dict:
    return {
        "name": f"pserver_stale-{seed}", "mode": "pserver", "seed": seed,
        "target": {"type": "gaussian_correlated", "rho": 0.5},
        "kernel": {"kind": "metropolis_hastings",
                   "proposal": {"type": "gaussian_independence", "center": [0.0, 0.0], "scale": 1.5}},
        "m": 4, "horizon": size, "correction": "mh_corrected",
        "delay": {"kind": "reorder_random", "params": {"span": 8, "jitter": 0.3}, "staleness_cap": 64},
        "params": {"burn_fraction": 0.2, "n_batches": 50},
    }


def _pserver_events(summary: dict, out: Path) -> int:
    with (out / "trace.jsonl").open() as fh:
        return sum(1 for _ in fh) - 1  # minus the meta line


def _flat(values) -> list:
    return [v for row in values for v in _flat(row)] if isinstance(values, list) else [values]


def _within_se(errors, ses) -> bool:
    return all(abs(e) <= MAX_SE_MULTIPLE * s for e, s in zip(_flat(errors), _flat(ses), strict=True))


def _pserver_guarantees(summary: dict, out: Path) -> list:
    mom = summary["moments"]
    return [
        ("pserver.mean_within_3se", _within_se(summary["mean_error"], mom["mean_se"])),
        ("pserver.cov_within_3se", _within_se(summary["cov_error"], mom["cov_se"])),
    ]


def _replay_config(seed: int, size: int) -> dict:
    return {
        "name": f"shmem_replay-{seed}", "mode": "shmem_replay", "seed": seed,
        "target": _THREE_STATE, "kernel": _MH_UNIFORM,
        "m": 4, "b": 8, "horizon": size, "params": {"burn_fraction": 0.5},
    }


def _replay_events(summary: dict, out: Path) -> int:
    return summary["writes"]


def _replay_guarantees(summary: dict, out: Path) -> list:
    # Imported here so that the orchestrator, which imports this module,
    # never imports the library.
    from asyncmc import schedules

    emitted = schedules.schedule_from_jsonl((out / "trace.jsonl").read_text())
    return [
        ("replay.late_tv", summary["late_tv"] <= MAX_LATE_TV),
        ("replay.trace_revalidates",
         schedules.validate(emitted) is None and len(emitted) == summary["writes"]),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "measure_campaign",
            100 * CAMPAIGN_LENGTH,
            f"100 random (kernel, mu0, schedule) instances of {CAMPAIGN_LENGTH} events, "
            "2-6 states, m<=5, b<=10",
            _campaign_config, _campaign_events, _campaign_guarantees,
        ),
        Workload(
            "pserver_stale",
            40_000,
            "40000 server commits, 4 simulated workers, rho=0.5 Gaussian, reorder_random "
            "delays, staleness cap 64",
            _pserver_config, _pserver_events, _pserver_guarantees,
        ),
        Workload(
            "shmem_replay",
            40_000,
            "40000 replayed writes, 3-state MH target, m=4, b=8",
            _replay_config, _replay_events, _replay_guarantees,
        ),
    )
}

