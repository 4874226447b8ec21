"""Experiment runner: configs in, traces and reports out.

A config is one self-contained JSON document naming a mode, a target, a
kernel, and the run geometry; seeds are mandatory so every artifact can be
regenerated byte for byte.  Canned configs reproduce each acceptance
experiment and are runnable by name.

Exit codes: 0 success, 1 usage or malformed config, 2 runtime liveness
failure, 3 violated guarantee (theorem check, determinism check, or
counterexample failing to behave as constructed).
"""
from __future__ import annotations

import argparse
import dataclasses
import filecmp
import itertools
import json
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics, kernels, measure_sim, measures, pserver, schedules, shmem
from .errors import (
    AsyncMCError,
    DimensionError,
    LivenessError,
    ParameterError,
    UnsupportedTargetError,
    ValidationError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LIVENESS = 2
EXIT_VIOLATION = 3

MODES = ("measure_sim", "shmem_real", "shmem_replay", "pserver")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    mode: str
    seed: int
    experiment: str = "run"
    target: dict | None = None
    kernel: dict | None = None
    m: int = 1
    b: int = 1
    horizon: int = 1
    delay: dict | None = None
    correction: str | None = None
    params: dict = field(default_factory=dict)
    out_dir: str | None = None

    def __post_init__(self):
        name = self.name
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ValidationError(f"name: must be a plain directory name, got {name!r}")
        if self.mode not in MODES:
            raise ValidationError(f"mode: unknown mode {self.mode!r}")
        if not _is_int(self.seed):
            raise ValidationError("seed: a fixed integer seed is mandatory")
        for field_name in ("m", "b", "horizon"):
            value = getattr(self, field_name)
            if not _is_int(value):
                raise ValidationError(f"{field_name}: must be an integer, got {value!r}")
        _object(self.params, "params")
        if self.m < 1:
            raise ValidationError("m: need at least one worker")
        if self.horizon < 1:
            raise ValidationError("horizon: must be positive")
        if self.mode in ("measure_sim", "shmem_replay") and self.experiment == "run" and self.b < self.m:
            raise ValidationError(f"b: staleness bound {self.b} < m={self.m} is infeasible")
        if self.mode == "pserver" and self.experiment in ("run", "naive_divergence_control"):
            if self.delay is None:
                raise ValidationError("delay: pserver mode requires a delay model")
            if self.experiment == "run" and self.correction not in pserver.MODES:
                raise ValidationError(f"correction: must be one of {pserver.MODES}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - fields
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        missing = {"name", "mode", "seed"} - set(doc)
        if missing:
            raise ValidationError(f"missing config fields: {sorted(missing)}")
        return cls(**doc)


# ---------------------------------------------------------------------------
# Builders from config dicts
# ---------------------------------------------------------------------------


def _object(doc, where: str) -> dict:
    """``doc`` when it is a JSON object, else a ValidationError naming ``where``."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: must be an object, got {doc!r}")
    return doc


def _required(doc: dict, where: str, *names):
    """The named fields of a config object, or a ValidationError naming the first missing one."""
    for name in names:
        if name not in doc:
            raise ValidationError(f"{where}.{name}: required field is missing")
    return [doc[name] for name in names]


def build_target(doc: dict) -> kernels.TargetDensity:
    kind = _object(doc, "target").get("type")
    if kind == "finite":
        (weights,) = _required(doc, "target", "weights")
        return kernels.finite_target(weights, doc.get("labels"))
    if kind == "gaussian":
        return kernels.gaussian_target(*_required(doc, "target", "mean", "precision"))
    if kind == "gaussian_correlated":
        gt = kernels.GaussianTarget.bivariate_correlated(*_required(doc, "target", "rho"))
        return kernels.gaussian_target(gt.mean, gt.precision)
    raise ValidationError(f"target.type: unknown target type {kind!r}")


def _check_proposal_target(cls, target: kernels.TargetDensity):
    """Refuse a proposal class on a target of a sort it does not serve."""
    if target.sort not in cls.targets:
        raise ValidationError(
            f"kernel.proposal.type: {cls.proposal_id!r} needs a {' or '.join(cls.targets)} target"
        )


def build_proposal(doc: dict, target: kernels.TargetDensity):
    """The proposal of a config, checked against the target it moves on.

    Finite-space proposals are refused on a Gaussian target and Gaussian
    ones on a finite target, so no kernel on a finite target draws normals;
    the check reads each class's ``targets``, as ``KernelSpec`` does.
    """
    where = "kernel.proposal"
    kind = _object(doc, where).get("type")
    if kind == "uniform_independence":
        _check_proposal_target(kernels.UniformIndependenceProposal, target)
        return kernels.UniformIndependenceProposal(target.support)
    if kind == "table_independence":
        _check_proposal_target(kernels.TableIndependenceProposal, target)
        return kernels.TableIndependenceProposal(target.support, *_required(doc, where, "weights"))
    if kind == "identity":
        return kernels.IdentityProposal()
    if kind == "gaussian_random_walk":
        proposal = kernels.GaussianRandomWalkProposal(*_required(doc, where, "scale"))
        _check_proposal_target(type(proposal), target)
        return proposal
    if kind == "gaussian_independence":
        proposal = kernels.GaussianIndependenceProposal(*_required(doc, where, "center", "scale"))
        _check_proposal_target(type(proposal), target)
        if len(proposal.center) != target.dim:
            raise ValidationError(
                f"{where}.center: has {len(proposal.center)} entries for a target "
                f"of dimension {target.dim}"
            )
        return proposal
    if kind == "gibbs_site":
        return kernels.GibbsSiteProposal(target)
    raise ValidationError(f"kernel.proposal.type: unknown proposal type {kind!r}")


def build_kernel(doc: dict, target: kernels.TargetDensity) -> kernels.KernelSpec:
    kind = _object(doc, "kernel").get("kind")
    proposal = None
    if doc.get("proposal") is not None:
        proposal = build_proposal(doc["proposal"], target)
    site_order = tuple(doc["site_order"]) if doc.get("site_order") else None
    return kernels.KernelSpec(kind, target, proposal, site_order)


def build_delay(doc: dict) -> pserver.DelayModel:
    doc = _object(doc, "delay")
    # default delay law: geometric latency with mean 2 commits
    return pserver.DelayModel(
        doc.get("kind", "fifo_random"), doc.get("params", {}), doc.get("staleness_cap", 64)
    )


def build_mu0(doc: dict | None, space: measures.StateSpace) -> measures.FiniteDistribution:
    if doc is None or _object(doc, "params.mu0").get("type") == "point_mass":
        label = doc.get("label", space.labels[0]) if doc else space.labels[0]
        return measures.FiniteDistribution.point_mass(space, label)
    if doc["type"] == "uniform":
        return measures.FiniteDistribution.uniform(space)
    if doc["type"] == "probs":
        (probs,) = _required(doc, "params.mu0", "probs")
        try:
            return measures.FiniteDistribution(space, np.asarray(probs, dtype=float))
        except (TypeError, ValueError, DimensionError, ValidationError) as exc:
            raise ValidationError(f"params.mu0.probs: {exc}") from exc
    raise ValidationError(f"params.mu0.type: unknown initial distribution {doc.get('type')!r}")


def build_schedule(cfg: ExperimentConfig, rng: np.random.Generator) -> schedules.Schedule:
    doc = _object(cfg.params.get("schedule", {"type": "random"}), "params.schedule")
    kind = doc.get("type", "random")
    if kind == "random":
        return schedules.random_schedule(cfg.m, cfg.b, cfg.horizon, rng)
    if kind == "synchronous":
        return schedules.synchronous_schedule(cfg.m, cfg.horizon, cfg.b)
    if kind == "adversarial":
        named = schedules.adversarial_schedules(cfg.m, cfg.b, cfg.horizon)
        name = doc.get("name")
        if name not in named:
            raise ValidationError(f"params.schedule.name: unknown pattern {name!r}")
        return named[name]
    raise ValidationError(f"params.schedule.type: unknown schedule type {kind!r}")


# ---------------------------------------------------------------------------
# Mode runners
# ---------------------------------------------------------------------------


def _finite_late_tv(indices, target, burn_fraction) -> float:
    """TV distance to the target of the empirical law of the late state indices."""
    pi = kernels.target_distribution(target)
    late = np.asarray(diagnostics.discard_burn_in(indices, burn_fraction), dtype=np.intp)
    counts = np.bincount(late, minlength=target.support.size).astype(float)
    emp = counts / counts.sum()
    return float(0.5 * np.abs(emp - pi.to_float().probs).sum())


def _burn_fraction(cfg: ExperimentConfig, default: float) -> float:
    """``params.burn_fraction``, checked to leave at least one late sample."""
    burn = cfg.params.get("burn_fraction", default)
    if not isinstance(burn, (int, float)) or isinstance(burn, bool) or not 0 <= burn < 1:
        raise ValidationError(f"params.burn_fraction: must lie in [0, 1), got {burn!r}")
    return burn


def _run_measure_sim(cfg: ExperimentConfig) -> tuple[int, dict, dict]:
    target = build_target(cfg.target)
    kernel = build_kernel(cfg.kernel, target)
    matrix = kernels.render_matrix(kernel)
    mu0 = build_mu0(cfg.params.get("mu0"), matrix.space)

    if cfg.experiment == "frozen_worker_counterexample":
        trace = measure_sim.propagate_unbounded_counterexample(matrix, mu0, cfg.horizon)
        d1 = float(trace.d[1])
        odd = [float(trace.d[v]) for v in range(1, trace.n_versions, 2)]
        stuck = min(odd) >= d1 / 2
        summary = {
            "experiment": cfg.experiment,
            "d_1": d1,
            "min_odd_d": min(odd),
            "non_convergence_demonstrated": stuck,
            "schedule_valid": schedules.validate(trace.schedule) is None,
        }
        artifacts = {
            "metrics.csv": measure_sim.measure_trace_csv(trace),
            "trace.jsonl": schedules.schedule_to_jsonl(trace.schedule),
        }
        return (EXIT_OK if stuck else EXIT_VIOLATION), summary, artifacts

    if cfg.experiment == "theorem4_campaign":
        report = measure_sim.run_theorem4_campaign(
            cfg.params.get("instances", 1000),
            cfg.seed,
            length=cfg.horizon,
            n_states_max=cfg.params.get("n_states_max", 6),
            m_max=cfg.params.get("m_max", 5),
            b_max=cfg.params.get("b_max", 10),
        )
        summary = {"experiment": cfg.experiment, **dataclasses.asdict(report)}
        return (EXIT_OK if report.violations == 0 else EXIT_VIOLATION), summary, _kv_csv(summary)

    if cfg.experiment == "contraction_campaign":
        report = measures.run_contraction_campaign(cfg.params.get("instances", 1000), cfg.seed)
        summary = {"experiment": cfg.experiment, **dataclasses.asdict(report)}
        return (EXIT_OK if report.violations == 0 else EXIT_VIOLATION), summary, _kv_csv(summary)

    if cfg.experiment != "run":
        raise ValidationError(f"experiment: unknown measure_sim experiment {cfg.experiment!r}")

    rng = np.random.default_rng(cfg.seed)
    schedule = build_schedule(cfg, rng)
    trace = measure_sim.propagate(matrix, mu0, schedule)
    report = measure_sim.verify_theorem4(
        trace, threshold=cfg.params.get("threshold", measure_sim.CONVERGENCE_THRESHOLD)
    )
    summary = {
        "experiment": "run",
        "passed": report.passed,
        "d_final": report.d_final,
        "p_star_final": report.p_star_final,
        "depth_floor": report.depth_floor,
        "failures": list(report.failures),
    }
    artifacts = {
        "metrics.csv": measure_sim.measure_trace_csv(trace),
        "trace.jsonl": schedules.schedule_to_jsonl(trace.schedule),
    }
    return (EXIT_OK if report.passed else EXIT_VIOLATION), summary, artifacts


def _run_shmem(cfg: ExperimentConfig) -> tuple[int, dict, dict]:
    target = build_target(cfg.target)
    kernel = build_kernel(cfg.kernel, target)

    if cfg.experiment == "torn_state":
        result = shmem.torn_state_stress(cfg.m, cfg.params.get("ops", 10**6), cfg.seed)
        summary = {"experiment": cfg.experiment, **result}
        return (EXIT_OK if result["failures"] == 0 else EXIT_VIOLATION), summary, _kv_csv(summary)

    if cfg.experiment != "run":
        raise ValidationError(f"experiment: unknown shmem experiment {cfg.experiment!r}")

    burn = _burn_fraction(cfg, 0.5)
    if cfg.mode == "shmem_real":
        watchdog_b = cfg.params.get("watchdog_b", 50 * cfg.m * 10)
        if not _is_int(watchdog_b) or watchdog_b < 1:
            raise ValidationError(f"params.watchdog_b: must be an integer >= 1, got {watchdog_b!r}")
        record = shmem.run_async(kernel, cfg.m, cfg.horizon, cfg.seed, watchdog_b)
    else:
        rng = np.random.default_rng(cfg.seed)
        schedule = build_schedule(cfg, rng)
        record = shmem.replay(kernel, schedule, cfg.seed)
    artifacts = {
        "trace.jsonl": schedules.schedule_to_jsonl(record.trace),
        "metrics.csv": shmem.samples_csv(record),
    }
    summary = {"experiment": "run", "writes": len(record.states), "config": record.config}
    if target.is_finite:
        index = target.support.index
        summary["late_tv"] = _finite_late_tv([index(s) for s in record.states], target, burn)
    return EXIT_OK, summary, artifacts


def _gaussian_summary(record: pserver.PServerRecord, target, burn_fraction, n_batches) -> dict:
    late = diagnostics.discard_burn_in(record.states, burn_fraction)
    report = diagnostics.moments(late, n_batches)
    truth_mean = np.asarray(target.gaussian.mean)
    truth_cov = target.gaussian.covariance
    return {
        "moments": report.to_json_dict(),
        "accept_rate": record.accept_rate,
        "mean_error": (report.mean - truth_mean).tolist(),
        "cov_error": (report.covariance - truth_cov).tolist(),
    }


def _run_pserver(cfg: ExperimentConfig) -> tuple[int, dict, dict]:
    target = build_target(cfg.target)
    kernel = build_kernel(cfg.kernel, target)
    if kernel.kind not in pserver.SERVER_KERNELS:
        raise ValidationError(
            f"kernel.kind: {kernel.kind!r} has no parameter-server form; "
            f"use one of {pserver.SERVER_KERNELS}"
        )
    if kernel.kind == "metropolis_hastings" and not isinstance(kernel.proposal, pserver.SERVER_PROPOSALS):
        raise ValidationError(
            f"kernel.proposal.type: {cfg.kernel['proposal']['type']!r} moves from the current "
            "state, which the server's correction does not support; use an independence proposal"
        )
    delay = build_delay(cfg.delay)
    burn = _burn_fraction(cfg, 0.2)
    init = tuple(cfg.params["init"]) if "init" in cfg.params else None
    frozen = tuple(cfg.params.get("frozen_workers", ()))

    if cfg.experiment == "naive_divergence_control":
        results = {}
        for arm in ("naive_accept", "mh_corrected"):
            record = pserver.run_pserver(
                kernel, cfg.m, cfg.horizon, delay, arm, cfg.seed,
                init=init, frozen_workers=frozen,
            )
            late = diagnostics.discard_burn_in(record.states, burn)
            results[arm] = {
                "variance": late.var(axis=0).tolist(),
                "mean": late.mean(axis=0).tolist(),
                "accept_rate": record.accept_rate,
            }
        truth_var = np.diag(target.gaussian.covariance)
        naive_var = np.asarray(results["naive_accept"]["variance"])
        corrected_var = np.asarray(results["mh_corrected"]["variance"])
        summary = {
            "experiment": cfg.experiment,
            "arms": results,
            "truth_variance": truth_var.tolist(),
            "naive_inflation_factor": (naive_var / truth_var).tolist(),
            "corrected_relative_error": ((corrected_var - truth_var) / truth_var).tolist(),
        }
        return EXIT_OK, summary, _kv_csv({
            "naive_var_0": naive_var[0], "naive_var_1": naive_var[1],
            "corrected_var_0": corrected_var[0], "corrected_var_1": corrected_var[1],
        })

    if cfg.experiment not in ("run", "coupled"):
        raise ValidationError(f"experiment: unknown pserver experiment {cfg.experiment!r}")
    if cfg.experiment == "coupled" and not target.is_finite:
        raise ValidationError("target.type: the coupled experiment needs a finite target")

    record = pserver.run_pserver(
        kernel, cfg.m, cfg.horizon, delay, cfg.correction, cfg.seed,
        init=init, frozen_workers=frozen, coupled=cfg.experiment == "coupled",
    )
    artifacts = {
        "trace.jsonl": pserver.trace_jsonl_lines(record),
        "metrics.csv": pserver.messages_csv_lines(record),
    }
    summary: dict = {"experiment": cfg.experiment, "accept_rate": record.accept_rate}
    if cfg.experiment == "coupled":
        tvs = []
        for slot in range(cfg.m):
            idx = pserver.replica_marginal_indices(record, slot, target)
            tvs.append(_finite_late_tv(idx, target, burn))
        summary["replica_marginal_tv"] = tvs
    elif target.is_finite:
        summary["late_tv"] = _finite_late_tv(record.states, target, burn)
        try:
            srv = kernels.render_matrix(kernel)
        except UnsupportedTargetError:
            # e.g. a zero-weight state: the zero-delay kernel has no finite
            # rendering, but the run itself is still valid
            summary["detailed_balance_error"] = None
        else:
            pi = kernels.target_distribution(target).to_float().probs
            db = max(
                abs(pi[i] * srv.rows[i][j] - pi[j] * srv.rows[j][i])
                for i in range(srv.space.size)
                for j in range(srv.space.size)
            )
            summary["detailed_balance_error"] = float(db)
    else:
        summary.update(_gaussian_summary(record, target, burn, cfg.params.get("n_batches", 50)))
    return EXIT_OK, summary, artifacts


def _run_determinism(cfg: ExperimentConfig) -> tuple[int, dict, dict]:
    names = cfg.params.get("configs")
    if not names:
        raise ValidationError("params.configs: list of canned config names required")
    mismatches = []
    for name in names:
        sub = canned_config(name)
        with tempfile.TemporaryDirectory() as tmp:
            dirs = [Path(tmp) / "a", Path(tmp) / "b"]
            for d in dirs:
                code, _ = run_experiment(dataclasses.replace(sub, out_dir=str(d)))
                if code != EXIT_OK:
                    mismatches.append(f"{name}: run exited {code}")
                    break
            else:
                files_a = sorted(p.name for p in dirs[0].iterdir())
                files_b = sorted(p.name for p in dirs[1].iterdir())
                if files_a != files_b:
                    mismatches.append(f"{name}: different artifact sets")
                else:
                    for fname in files_a:
                        if not filecmp.cmp(dirs[0] / fname, dirs[1] / fname, shallow=False):
                            mismatches.append(f"{name}: {fname} differs between runs")
    summary = {
        "experiment": "determinism_repro",
        "configs": list(names),
        "mismatches": mismatches,
        "deterministic": not mismatches,
    }
    artifacts = _kv_csv({"configs": len(names), "mismatches": len(mismatches)})
    return (EXIT_OK if not mismatches else EXIT_VIOLATION), summary, artifacts


def run_experiment(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Run one config; returns (exit_code, summary). Writes artifacts.

    The runners return their artifacts and the output directory is made only
    after the run, so a config rejected with exit 1 leaves nothing behind.
    """
    if cfg.experiment == "determinism_repro":
        code, summary, artifacts = _run_determinism(cfg)
    elif cfg.mode == "measure_sim":
        code, summary, artifacts = _run_measure_sim(cfg)
    elif cfg.mode in ("shmem_real", "shmem_replay"):
        code, summary, artifacts = _run_shmem(cfg)
    else:
        code, summary, artifacts = _run_pserver(cfg)
    out = Path(cfg.out_dir) if cfg.out_dir else Path("asyncmc_out") / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        _write_text(out / name, text)
    summary = {"name": cfg.name, "seed": cfg.seed, **summary}
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return code, summary


def _kv_csv(doc: dict) -> dict:
    """A ``metrics.csv`` artifact of ``key,value`` rows, keys sorted."""
    lines = ["key,value"] + [f"{k},{doc[k]!r}" for k in sorted(doc)]
    return {"metrics.csv": "\n".join(lines) + "\n"}


_LINES_PER_WRITE = 4096


def _write_text(path: Path, text) -> None:
    """Write a string as is, or any other iterable of lines, each ended by a
    newline, joined into one ``write`` per ``_LINES_PER_WRITE`` lines."""
    if isinstance(text, str):
        path.write_text(text)
        return
    lines = iter(text)
    with path.open("w") as fh:
        while chunk := list(itertools.islice(lines, _LINES_PER_WRITE)):
            fh.write("\n".join(chunk))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Canned experiment catalog
# ---------------------------------------------------------------------------

_THREE_STATE = {"type": "finite", "weights": [1.0, 2.0, 3.0]}
_MH_UNIFORM = {"kind": "metropolis_hastings", "proposal": {"type": "uniform_independence"}}

CATALOG: dict[str, dict] = {
    "theorem4_campaign": {
        "criterion": "1",
        "description": "1000 random (kernel, mu0, schedule) triples replicate the convergence argument",
        "demo": False,
        "config": {
            "name": "theorem4_campaign", "mode": "measure_sim", "seed": 20240601,
            "experiment": "theorem4_campaign", "target": _THREE_STATE, "kernel": _MH_UNIFORM,
            "m": 5, "b": 10, "horizon": 300, "params": {"instances": 1000},
        },
    },
    "theorem4_smoke": {
        "criterion": "1",
        "description": "single-trace smoke run: 3-state kernel, m=3, b=4, N=500",
        "demo": True,
        "config": {
            "name": "theorem4_smoke", "mode": "measure_sim", "seed": 11,
            "target": _THREE_STATE, "kernel": _MH_UNIFORM,
            "m": 3, "b": 4, "horizon": 500,
        },
    },
    "contraction_campaign": {
        "criterion": "2",
        "description": "1000 random (kernel, distribution) pairs never increase TV to stationarity",
        "demo": False,
        "config": {
            "name": "contraction_campaign", "mode": "measure_sim", "seed": 20240602,
            "experiment": "contraction_campaign", "target": _THREE_STATE, "kernel": _MH_UNIFORM,
            "horizon": 1, "params": {"instances": 1000},
        },
    },
    "frozen_worker_counterexample": {
        "criterion": "3",
        "description": "violating the liveness hypothesis keeps odd versions from converging",
        "demo": False,
        "config": {
            "name": "frozen_worker_counterexample", "mode": "measure_sim", "seed": 1,
            "experiment": "frozen_worker_counterexample",
            "target": {"type": "finite", "weights": [3.0, 1.0]}, "kernel": _MH_UNIFORM,
            "horizon": 1000,
        },
    },
    "shmem_async_3state": {
        "criterion": "4",
        "description": "4 racing threads on a 3-state target land within TV 0.02 of stationarity",
        "demo": False,
        "config": {
            "name": "shmem_async_3state", "mode": "shmem_real", "seed": 3,
            "target": _THREE_STATE, "kernel": _MH_UNIFORM,
            "m": 4, "horizon": 100_000, "params": {"watchdog_b": 100_000, "burn_fraction": 0.5},
        },
    },
    "pserver_zero_delay_3state": {
        "criterion": "5",
        "description": "zero-delay server chain is textbook MH: detailed balance and empirical TV",
        "demo": False,
        "config": {
            "name": "pserver_zero_delay_3state", "mode": "pserver", "seed": 21,
            "target": _THREE_STATE, "kernel": _MH_UNIFORM,
            "m": 1, "horizon": 1_000_000, "correction": "mh_corrected",
            "delay": {"kind": "fifo_fixed", "params": {"latency": 0.0, "jitter": 0.0}, "staleness_cap": 0},
        },
    },
    "pserver_gaussian": {
        "criterion": "6",
        "description": "corrected server on a correlated Gaussian under reordered delays recovers moments",
        "demo": False,
        "config": {
            "name": "pserver_gaussian", "mode": "pserver", "seed": 777,
            "target": {"type": "gaussian_correlated", "rho": 0.5},
            "kernel": {"kind": "metropolis_hastings",
                       "proposal": {"type": "gaussian_independence", "center": [0.0, 0.0], "scale": 1.5}},
            "m": 4, "horizon": 1_000_000, "correction": "mh_corrected",
            "delay": {"kind": "reorder_random", "params": {"span": 8, "jitter": 0.3}, "staleness_cap": 64},
            "params": {"burn_fraction": 0.2, "n_batches": 50},
        },
    },
    "naive_divergence_control": {
        "criterion": "7",
        "description": "paired naive vs corrected runs on a rho=0.999 Gaussian with a frozen worker",
        "demo": False,
        "config": {
            "name": "naive_divergence_control", "mode": "pserver", "seed": 202,
            "experiment": "naive_divergence_control",
            "target": {"type": "gaussian_correlated", "rho": 0.999},
            "kernel": {"kind": "gibbs_single_site"},
            "m": 4, "horizon": 1_000_000,
            "delay": {"kind": "fifo_fixed",
                      "params": {"latency": 0.0, "periods": [1.0, 2.0, 2.0, 2.0], "jitter": 0.5},
                      "staleness_cap": 10**9},
            "params": {"init": [3.0, -3.0], "frozen_workers": [0], "burn_fraction": 0.2},
        },
    },
    "coupled_replicas": {
        "criterion": "8",
        "description": "two coupled replica slots of a 3-state target, each marginal near stationarity",
        "demo": False,
        "config": {
            "name": "coupled_replicas", "mode": "pserver", "seed": 6,
            "experiment": "coupled", "target": _THREE_STATE, "kernel": _MH_UNIFORM,
            "m": 2, "horizon": 1_000_000, "correction": "mh_corrected",
            "delay": {"kind": "fifo_random", "params": {"mean": 2.0}, "staleness_cap": 64},
        },
    },
    "determinism_repro": {
        "criterion": "9",
        "description": "every deterministic canned config, run twice, emits byte-identical artifacts",
        "demo": False,
        "config": {
            "name": "determinism_repro", "mode": "measure_sim", "seed": 0,
            "experiment": "determinism_repro",
            "params": {"configs": [
                "theorem4_smoke", "theorem4_campaign", "contraction_campaign",
                "frozen_worker_counterexample", "pserver_zero_delay_3state",
                "pserver_gaussian", "naive_divergence_control", "coupled_replicas",
            ]},
        },
    },
    "torn_state_stress": {
        "criterion": "10",
        "description": "1e6 concurrent checksummed cell operations with zero torn reads",
        "demo": False,
        "config": {
            "name": "torn_state_stress", "mode": "shmem_real", "seed": 5,
            "experiment": "torn_state", "target": _THREE_STATE, "kernel": _MH_UNIFORM,
            "m": 4, "horizon": 1, "params": {"ops": 1_000_000},
        },
    },
}


def canned_config(name: str) -> ExperimentConfig:
    if name not in CATALOG:
        raise ParameterError(f"no canned config named {name!r}")
    return ExperimentConfig.from_dict(CATALOG[name]["config"])


def list_experiments() -> str:
    lines = []
    for name, entry in CATALOG.items():
        tag = " (demo)" if entry["demo"] else ""
        lines.append(f"{name:32s} criterion {entry['criterion']:>2s}{tag}  {entry['description']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Command-line entry points
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    source = args.config
    if Path(source).exists():
        try:
            cfg = ExperimentConfig.from_dict(json.loads(Path(source).read_text()))
        except json.JSONDecodeError as exc:
            print(f"usage error: config is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_USAGE
    elif source in CATALOG:
        cfg = canned_config(source)
    else:
        print(f"usage error: {source!r} is neither a file nor a canned config", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    code, summary = run_experiment(cfg)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return code


def _cmd_list(_args) -> int:
    print(list_experiments())
    return EXIT_OK


def _cmd_validate(args) -> int:
    path = Path(args.trace)
    if not path.exists():
        print(f"usage error: no such trace file {path}", file=sys.stderr)
        return EXIT_USAGE
    schedule = schedules.schedule_from_jsonl(path.read_text())
    violation = schedules.validate(schedule)
    if violation is None:
        print(f"ok: {len(schedule.events)} events, m={schedule.workers}, b={schedule.staleness_bound}")
        return EXIT_OK
    print(str(violation))
    return EXIT_VIOLATION


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="asyncmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a config file or canned experiment")
    p_run.add_argument("config", help="path to a config JSON, or a canned experiment name")
    p_run.add_argument("--out", help="output directory override")
    p_run.set_defaults(func=_cmd_run)
    p_list = sub.add_parser("list", help="list canned experiments")
    p_list.set_defaults(func=_cmd_list)
    p_val = sub.add_parser("validate", help="validate a JSONL schedule trace")
    p_val.add_argument("trace")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LivenessError as exc:
        print(f"liveness error: {exc}", file=sys.stderr)
        return EXIT_LIVENESS
    except (ValidationError, ParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AsyncMCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
