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
from .errors import AsyncMCError, LivenessError, NonErgodicKernelError, UnsupportedTargetError, ValidationError
from .errors import _only, _read
from .schedules import MAX_WORKERS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LIVENESS = 2
EXIT_VIOLATION = 3
# The largest size a config may ask for in ``b``, ``horizon``,
# ``params.instances`` or ``params.ops``: ten times the largest canned size.
MAX_SIZE = 10**7

# The experiments of each mode: the optional config objects each one reads,
# out of ``target``, ``kernel``, ``delay`` and ``correction``, and the keys
# its ``params`` may hold.  ``ExperimentConfig`` checks a config against its
# entry before any builder runs.
_CHAIN = ("target", "kernel")  # the configured chain
_SERVER = ("burn_fraction", "init", "frozen_workers")
_DETERMINISM = ((), ("configs",))  # runs the canned configs it names, under any mode
EXPERIMENTS = {
    "measure_sim": {
        "run": (_CHAIN, ("mu0", "schedule", "threshold")),
        "theorem4_campaign": (_CHAIN, ("instances", "n_states_max", "m_max", "b_max")),
        "contraction_campaign": ((), ("instances",)),
        "frozen_worker_counterexample": (_CHAIN, ("mu0",)),
        "determinism_repro": _DETERMINISM,
    },
    "shmem_real": {"run": (_CHAIN, ("burn_fraction", "watchdog_b")), "torn_state": ((), ("ops",)),
                   "determinism_repro": _DETERMINISM},
    "shmem_replay": {"run": (_CHAIN, ("burn_fraction", "schedule")), "determinism_repro": _DETERMINISM},
    "pserver": {
        "run": ((*_CHAIN, "delay", "correction"), (*_SERVER, "n_batches")),
        "naive_divergence_control": ((*_CHAIN, "delay"), _SERVER),  # runs both corrections
        "coupled": ((*_CHAIN, "delay", "correction"), _SERVER),
        "determinism_repro": _DETERMINISM,
    },
}


def _kind(doc: dict, path: str, keys_of: dict, default=...) -> str:
    """The ``type`` field of the object ``doc`` at ``path``, once no key of
    ``doc`` is found that no type reads, and then none that its type (the
    default where the field is absent) does not read, as ``keys_of`` lists
    them.  A type that is missing without a default, or unknown, is left to
    the caller to refuse."""
    kind = doc.get("type", default)
    _only(doc, path, {"type", *(key for keys in keys_of.values() for key in keys)})
    if isinstance(kind, str) and kind in keys_of:
        _only(doc, path, ("type", *keys_of[kind]))
    return _read(doc, f"{path}.type", str, default)


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
        doc = vars(self)
        name = _read(doc, "name", str)
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ValidationError(f"name: must be a plain directory name, got {name!r}")
        experiments = EXPERIMENTS.get(_read(doc, "mode", str))
        if experiments is None:
            raise ValidationError(f"mode: unknown mode {self.mode!r}")
        _read(doc, "seed", int, least=0)
        experiment = _read(doc, "experiment", str, "run")
        if experiment not in experiments:
            raise ValidationError(f"experiment: unknown {self.mode} experiment {experiment!r}")
        objects, keys = experiments[experiment]
        _read(doc, "m", int, least=1, below=MAX_WORKERS + 1)
        _read(doc, "b", int, least=1, below=MAX_SIZE + 1)
        _read(doc, "horizon", int, least=1, below=MAX_SIZE + 1)
        _read(doc, "out_dir", str, None)
        for field_name in ("target", "kernel", "delay", "correction"):
            if field_name not in objects and doc[field_name] is not None:
                raise ValidationError(f"{field_name}: the {self.mode} {experiment} experiment reads "
                                      f"no {field_name}; leave it out or null, got {doc[field_name]!r}")
        for field_name in objects:
            _read(doc, field_name, str if field_name == "correction" else dict)
        if "correction" in objects and self.correction not in pserver.MODES:
            raise ValidationError(f"correction: must be one of {pserver.MODES}, got {self.correction!r}")
        _only(_read(doc, "params", dict), "params", keys)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValidationError(f"config: must be an object, got {doc!r}")
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        missing = {"name", "mode", "seed"} - set(doc)
        if missing:
            raise ValidationError(f"missing config fields: {sorted(missing)}")
        return cls(**doc)


# ---------------------------------------------------------------------------
# Builders from config dicts
# ---------------------------------------------------------------------------


_TARGET_KEYS = {
    "finite": ("weights", "labels"), "gaussian": ("mean", "precision"), "gaussian_correlated": ("rho",),
}


def build_target(doc: dict) -> kernels.TargetDensity:
    kind = _kind(doc, "target", _TARGET_KEYS)
    if kind == "finite":
        return kernels.finite_target(
            _read(doc, "target.weights", (list, float)), _read(doc, "target.labels", list, None)
        )
    if kind == "gaussian":
        return kernels.gaussian_target(
            _read(doc, "target.mean", (list, float)), _read(doc, "target.precision", (list, list))
        )
    if kind == "gaussian_correlated":
        gt = kernels.GaussianTarget.bivariate_correlated(_read(doc, "target.rho", float))
        return kernels.gaussian_target(gt.mean, gt.precision)
    raise ValidationError(f"target.type: unknown target type {kind!r}")


_PROPOSAL_KEYS = {
    "uniform_independence": (), "table_independence": ("weights",), "identity": (),
    "gaussian_random_walk": ("scale",), "gaussian_independence": ("center", "scale"), "gibbs_site": (),
}


def build_proposal(doc: dict, target: kernels.TargetDensity):
    """The proposal of a config; ``KernelSpec`` checks it against its target."""
    kind = _kind(doc, "kernel.proposal", _PROPOSAL_KEYS)
    # these two are built from the target's finite support
    if kind in ("uniform_independence", "table_independence") and not target.is_finite:
        raise ValidationError(f"kernel.proposal.type: {kind!r} needs a finite target")
    if kind == "uniform_independence":
        return kernels.UniformIndependenceProposal(target.support)
    if kind == "table_independence":
        weights = _read(doc, "kernel.proposal.weights", (list, float))
        return kernels.TableIndependenceProposal(target.support, weights)
    if kind == "identity":
        return kernels.IdentityProposal()
    if kind == "gaussian_random_walk":
        return kernels.GaussianRandomWalkProposal(_read(doc, "kernel.proposal.scale", float))
    if kind == "gaussian_independence":
        center = _read(doc, "kernel.proposal.center", (list, float))
        if len(center) != target.dim:
            raise ValidationError(f"kernel.proposal.center: has {len(center)} entries, need {target.dim}")
        return kernels.GaussianIndependenceProposal(center, _read(doc, "kernel.proposal.scale", float))
    if kind == "gibbs_site":
        return kernels.GibbsSiteProposal(target)
    raise ValidationError(f"kernel.proposal.type: unknown proposal type {kind!r}")


def build_kernel(doc: dict, target: kernels.TargetDensity) -> kernels.KernelSpec:
    _only(doc, "kernel", ("kind", "proposal", "site_order"))
    kind = _read(doc, "kernel.kind", str)
    proposal = _read(doc, "kernel.proposal", dict, None)
    proposal = None if proposal is None else build_proposal(proposal, target)
    site_order = _read(doc, "kernel.site_order", (list, int), None)
    return kernels.KernelSpec(kind, target, proposal, tuple(site_order) if site_order else None)


def build_delay(doc: dict) -> pserver.DelayModel:
    """The delay model of a config; ``DelayModel`` checks its fields."""
    _only(doc, "delay", ("kind", "params", "staleness_cap"))
    return pserver.DelayModel(**doc)


_MU0_KEYS = {"point_mass": ("label",), "uniform": (), "probs": ("probs",)}


def build_mu0(doc: dict, space: measures.StateSpace) -> measures.FiniteDistribution:
    kind = _kind(doc, "params.mu0", _MU0_KEYS, "point_mass")
    if kind == "point_mass":
        label = _read(doc, "params.mu0.label", object, space.labels[0])
        if not space.holds(label):
            raise ValidationError(f"params.mu0.label: {label!r} is not a label of the target")
        return measures.FiniteDistribution.point_mass(space, label)
    if kind == "uniform":
        return measures.FiniteDistribution.uniform(space)
    if kind == "probs":
        probs = _read(doc, "params.mu0.probs", (list, float))
        try:
            return measures.FiniteDistribution(space, np.asarray(probs, dtype=float))
        except ValidationError as exc:
            raise ValidationError(f"params.mu0.probs: {exc}") from exc
    raise ValidationError(f"params.mu0.type: unknown initial distribution {kind!r}")


_SCHEDULE_KEYS = {"random": (), "synchronous": (), "adversarial": ("name",)}


def build_schedule(cfg: ExperimentConfig, rng: np.random.Generator) -> schedules.Schedule:
    doc = _read(cfg.params, "params.schedule", dict, {})
    kind = _kind(doc, "params.schedule", _SCHEDULE_KEYS, "random")
    if kind == "random":
        return schedules.random_schedule(cfg.m, cfg.b, cfg.horizon, rng)
    if kind == "synchronous":
        return schedules.synchronous_schedule(cfg.m, cfg.horizon, cfg.b)
    if kind == "adversarial":
        named = schedules.adversarial_schedules(cfg.m, cfg.b, cfg.horizon)
        name = _read(doc, "params.schedule.name", str)
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
    return float(0.5 * np.abs(emp - pi.probs).sum())


def _run_measure_sim(cfg: ExperimentConfig) -> tuple[int, dict, dict]:
    params = cfg.params
    if cfg.experiment == "contraction_campaign":
        report = measures.run_contraction_campaign(
            _read(params, "params.instances", int, 1000, least=1, below=MAX_SIZE + 1), cfg.seed
        )
        summary = {"experiment": cfg.experiment, **dataclasses.asdict(report)}
        return (EXIT_OK if report.violations == 0 else EXIT_VIOLATION), summary, _kv_csv(summary)

    target = build_target(cfg.target)
    kernel = build_kernel(cfg.kernel, target)
    matrix = kernels.render_matrix(kernel)
    if cfg.experiment == "theorem4_campaign":
        report = measure_sim.run_theorem4_campaign(
            _read(params, "params.instances", int, 1000, least=1, below=MAX_SIZE + 1),
            cfg.seed,
            length=cfg.horizon,
            n_states_max=_read(params, "params.n_states_max", int, 6, least=2, below=kernels.RENDER_CAP + 1),
            m_max=_read(params, "params.m_max", int, 5, least=1, below=MAX_WORKERS + 1),
            b_max=_read(params, "params.b_max", int, 10, least=1, below=MAX_SIZE + 1),
        )
        summary = {"experiment": cfg.experiment, **dataclasses.asdict(report)}
        return (EXIT_OK if report.violations == 0 else EXIT_VIOLATION), summary, _kv_csv(summary)

    mu0 = build_mu0(_read(params, "params.mu0", dict, None) or {}, matrix.space)
    frozen = cfg.experiment == "frozen_worker_counterexample"
    if frozen:
        horizon = _read(vars(cfg), "horizon", int, least=10)
    else:
        schedule = build_schedule(cfg, np.random.default_rng(cfg.seed))
        threshold = _read(params, "params.threshold", float, measure_sim.CONVERGENCE_THRESHOLD)
        if threshold <= 0:  # no distance is below it: a malformed field, not a violation
            raise ValidationError(f"params.threshold: must be > 0, got {threshold!r}")
    try:
        trace = (measure_sim.propagate_unbounded_counterexample(matrix, mu0, horizon) if frozen
                 else measure_sim.propagate(matrix, mu0, schedule))
    except NonErgodicKernelError as exc:  # the configured kernel has no one law to converge to
        raise ValidationError(f"kernel: {kernel.describe()} is not ergodic on this target ({exc})") from exc
    artifacts = {
        "metrics.csv": measure_sim.measure_trace_csv(trace),
        "trace.jsonl": schedules.schedule_to_jsonl(trace.schedule),
    }

    if frozen:
        d1 = float(trace.d[1])
        min_odd = float(trace.d[1::2].min())
        stuck = min_odd >= d1 / 2
        summary = {
            "experiment": cfg.experiment,
            "d_1": d1,
            "min_odd_d": min_odd,
            "non_convergence_demonstrated": stuck,
            "schedule_valid": schedules.validate(trace.schedule) is None,
        }
        return (EXIT_OK if stuck else EXIT_VIOLATION), summary, artifacts

    report = measure_sim.verify_theorem4(trace, threshold=threshold)
    summary = {
        "experiment": "run",
        "passed": report.passed,
        "d_final": report.d_final,
        "p_star_final": report.p_star_final,
        "depth_floor": report.depth_floor,
        "failures": list(report.failures),
    }
    return (EXIT_OK if report.passed else EXIT_VIOLATION), summary, artifacts


def _run_shmem(cfg: ExperimentConfig) -> tuple[int, dict, dict]:
    if cfg.experiment == "torn_state":
        ops = _read(cfg.params, "params.ops", int, 10**6, least=1, below=MAX_SIZE + 1)
        result = shmem.torn_state_stress(cfg.m, ops, cfg.seed)
        summary = {"experiment": cfg.experiment, **result}
        return (EXIT_OK if result["failures"] == 0 else EXIT_VIOLATION), summary, _kv_csv(summary)

    target = build_target(cfg.target)
    kernel = build_kernel(cfg.kernel, target)
    burn = _read(cfg.params, "params.burn_fraction", float, 0.5, least=0, below=1)
    if cfg.mode == "shmem_real":
        watchdog_b = _read(cfg.params, "params.watchdog_b", int, 50 * cfg.m * 10, least=1)
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
        summary["late_tv"] = _finite_late_tv(target.support.indices(record.states), target, burn)
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
    delay = build_delay(cfg.delay)
    params = cfg.params
    burn = _read(params, "params.burn_fraction", float, 0.2, least=0, below=1)
    # a label of a finite target, one label per slot when coupled, or a point of a Gaussian one
    if target.is_finite and cfg.experiment != "coupled":
        init = _read(params, "params.init", object, None)
    else:
        init = _read(params, "params.init", list if target.is_finite else (list, float), None)
        init = None if init is None else tuple(init)
    frozen = tuple(_read(params, "params.frozen_workers", (list, int), []))
    n_batches = _read(params, "params.n_batches", int, 50, least=diagnostics.MIN_BATCHES)

    sort = {"naive_divergence_control": "continuous", "coupled": "finite"}.get(cfg.experiment, target.sort)
    if target.sort != sort:
        raise ValidationError(f"target.type: the {cfg.experiment} experiment needs a {sort} target")
    if "n_batches" in params and target.is_finite:
        raise ValidationError("params.n_batches: only a run on a Gaussian target reports batch means")

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
            **{f"naive_var_{i}": v for i, v in enumerate(naive_var)},
            **{f"corrected_var_{i}": v for i, v in enumerate(corrected_var)},
        })

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
        summary["replica_marginal_tv"] = [_finite_late_tv(idx, target, burn) for idx in record.states.T]
    elif target.is_finite:
        summary["late_tv"] = _finite_late_tv(record.states, target, burn)
        try:
            srv = kernels.render_matrix(kernel)
        except UnsupportedTargetError:
            # e.g. a zero-weight state: the zero-delay kernel has no finite
            # rendering, but the run itself is still valid
            summary["detailed_balance_error"] = None
        else:
            flow = kernels.target_distribution(target).probs[:, None] * srv.rows
            summary["detailed_balance_error"] = float(np.abs(flow - flow.T).max())
    else:
        summary.update(_gaussian_summary(record, target, burn, n_batches))
    return EXIT_OK, summary, artifacts


def _run_determinism(cfg: ExperimentConfig) -> tuple[int, dict, dict]:
    names = _read(cfg.params, "params.configs", (list, str))
    if not names or not set(names) <= set(CATALOG):
        raise ValidationError(f"params.configs: must name canned configs, got {names!r}")
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

    The runners check every input, then run and return each artifact as lines.
    Only after the run is the output directory made and every file, summary
    included, streamed into it by ``_write_text``: a refused config makes none.
    """
    if cfg.experiment == "determinism_repro":
        code, summary, artifacts = _run_determinism(cfg)
    elif cfg.mode == "measure_sim":
        code, summary, artifacts = _run_measure_sim(cfg)
    elif cfg.mode in ("shmem_real", "shmem_replay"):
        code, summary, artifacts = _run_shmem(cfg)
    else:
        code, summary, artifacts = _run_pserver(cfg)
    summary = {"name": cfg.name, "seed": cfg.seed, **summary}
    artifacts["summary.json"] = json.dumps(summary, sort_keys=True, indent=2).split("\n")
    out = Path(cfg.out_dir) if cfg.out_dir else Path("asyncmc_out") / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    for name, lines in artifacts.items():
        _write_text(out / name, lines)
    return code, summary


def _kv_csv(doc: dict) -> dict:
    """A ``metrics.csv`` artifact: the lines of ``key,value`` rows, keys sorted."""
    return {"metrics.csv": ["key,value"] + [f"{k},{doc[k]!r}" for k in sorted(doc)]}


_LINES_PER_WRITE = 4096


def _write_text(path: Path, lines) -> None:
    """Write lines, each without its newline, each followed by one, in one
    ``write`` per ``_LINES_PER_WRITE`` lines: every file of a run comes here."""
    lines = iter(lines)
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
            "experiment": "contraction_campaign", "params": {"instances": 1000},
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
            "experiment": "torn_state", "m": 4, "params": {"ops": 1_000_000},
        },
    },
}


def canned_config(name: str) -> ExperimentConfig:
    if name not in CATALOG:
        raise ValidationError(f"no canned config named {name!r}")
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
            doc = json.loads(Path(source).read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            print(f"usage error: cannot read config {source}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        cfg = ExperimentConfig.from_dict(doc)
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
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:  # a directory, unreadable, or not UTF-8
        print(f"usage error: cannot read trace {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    schedule = schedules.schedule_from_jsonl(text)
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
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AsyncMCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
