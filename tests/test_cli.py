import dataclasses
import json

import pytest

from asyncmc import cli, errors, schedules
from asyncmc.cli import (
    _LINES_PER_WRITE,
    CATALOG,
    EXIT_LIVENESS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    MAX_WORKERS,
    ExperimentConfig,
    _write_text,
    build_delay,
    build_kernel,
    build_target,
    canned_config,
    list_experiments,
    main,
    run_experiment,
)
from asyncmc.errors import ValidationError
from asyncmc.pserver import PServerRecord, messages_csv_lines, run_pserver, trace_jsonl_lines
from asyncmc.schedules import schedule_to_jsonl, synchronous_schedule


class TestConfig:
    def test_round_trip_identity(self):
        cfg = canned_config("theorem4_smoke")
        assert ExperimentConfig.from_dict(dataclasses.asdict(cfg)) == cfg

    def test_round_trip_through_json(self):
        cfg = canned_config("pserver_gaussian")
        text = json.dumps(dataclasses.asdict(cfg))
        assert ExperimentConfig.from_dict(json.loads(text)) == cfg

    def test_missing_fields_named(self):
        with pytest.raises(ValidationError, match="missing config fields"):
            ExperimentConfig.from_dict({"name": "x"})

    def test_unknown_fields_named(self):
        doc = dataclasses.asdict(canned_config("theorem4_smoke"))
        doc["horizonn"] = 5
        with pytest.raises(ValidationError, match="horizonn"):
            ExperimentConfig.from_dict(doc)

    def test_infeasible_replay_bound_rejected(self, tmp_path, capsys):
        for mode in ("shmem_replay", "measure_sim"):
            doc = {**_replay_config(tmp_path, 0.5), "mode": mode, "m": 3, "b": 2, "params": {}}
            assert _run_file(tmp_path, doc) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "b: b=2 < m=3" in err and "Traceback" not in err
            assert not (tmp_path / "out").exists()

    def test_pserver_requires_delay_and_mode(self):
        base = dict(
            name="x", mode="pserver", seed=1, m=1, horizon=10,
            target={"type": "finite", "weights": [1, 1]},
            kernel={"kind": "metropolis_hastings", "proposal": {"type": "uniform_independence"}},
        )
        with pytest.raises(ValidationError, match="delay"):
            ExperimentConfig(**base)
        with pytest.raises(ValidationError, match="correction"):
            ExperimentConfig(**base, delay={"kind": "fifo_fixed"})

    def test_seed_mandatory(self):
        with pytest.raises(ValidationError, match="seed"):
            ExperimentConfig(name="x", mode="measure_sim", seed=None)  # type: ignore[arg-type]


class TestCatalog:
    def test_minimum_size_and_required_names(self):
        assert len(CATALOG) >= 6
        assert {"theorem4_smoke", "pserver_gaussian", "naive_divergence_control"} <= set(CATALOG)

    def test_every_entry_names_a_criterion(self):
        for entry in CATALOG.values():
            assert entry["criterion"]
            assert entry["description"]

    def test_each_criterion_has_exactly_one_primary_config(self):
        primary = [e["criterion"] for e in CATALOG.values() if not e["demo"]]
        assert sorted(primary, key=int) == [str(i) for i in range(1, 11)]

    def test_listing_mentions_names_and_criteria(self):
        text = list_experiments()
        assert "theorem4_smoke" in text
        assert "criterion" in text


class TestRun:
    def test_smoke_run_and_artifacts(self, tmp_path):
        cfg = canned_config("theorem4_smoke")
        code, summary = run_experiment(
            ExperimentConfig.from_dict({**dataclasses.asdict(cfg), "out_dir": str(tmp_path)})
        )
        assert code == EXIT_OK
        assert summary["passed"] is True
        assert summary["d_final"] <= 1e-8
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "trace.jsonl").exists()

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        cfg = dataclasses.asdict(canned_config("theorem4_smoke"))
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_experiment(ExperimentConfig.from_dict({**cfg, "out_dir": str(out)}))
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1]

    def test_cli_run_by_name(self, tmp_path, capsys):
        code = main(["run", "theorem4_smoke", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert '"passed": true' in out

    def test_cli_run_config_file(self, tmp_path, capsys):
        cfg = dataclasses.asdict(canned_config("frozen_worker_counterexample"))
        cfg["out_dir"] = str(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["non_convergence_demonstrated"] is True

    def test_unknown_source_is_usage_error(self, capsys):
        assert main(["run", "no_such_config"]) == EXIT_USAGE

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}", None])
    def test_malformed_json_is_usage_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["run", str(path)]) == EXIT_USAGE
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_field_is_usage_error(self, tmp_path):
        cfg = dataclasses.asdict(canned_config("theorem4_smoke"))
        cfg["mode"] = "quantum"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == EXIT_USAGE


class TestValidateCommand:
    def test_valid_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(schedule_to_jsonl(synchronous_schedule(2, 30, b=4))))
        assert main(["validate", str(path)]) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_invalid_trace(self, tmp_path, capsys):
        sched = synchronous_schedule(2, 30, b=4)
        lines = list(schedule_to_jsonl(sched))
        doc = json.loads(lines[10])
        doc["read_from"] = doc["seq"] - 9
        lines[10] = json.dumps(doc)
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines))
        assert main(["validate", str(path)]) == EXIT_VIOLATION
        assert "staleness" in capsys.readouterr().out

    def test_missing_file_usage(self):
        assert main(["validate", "/nonexistent/trace.jsonl"]) == EXIT_USAGE

    def test_non_utf8_file_usage(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b'{"seq": 0, "worker": 0, "read_from": -1, "kind": "write"}\xff\n')
        assert main(["validate", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(path) in err

    def test_directory_usage(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(tmp_path) in err

    @pytest.mark.parametrize("value,message", [("x", "must be an integer"), (-3, "is negative")])
    def test_bad_worker_value_is_usage_error(self, tmp_path, capsys, value, message):
        lines = list(schedule_to_jsonl(synchronous_schedule(2, 10, b=4)))
        doc = json.loads(lines[4])
        doc["worker"] = value
        lines[4] = json.dumps(doc)
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines[1:]))  # no meta line: workers are inferred
        assert main(["validate", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "line 4" in err and "'worker'" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("meta", [True, False])
    def test_workers_past_max_workers_exit_1(self, tmp_path, capsys, meta):
        # 10**30 fits no index; a smaller value past the cap would make
        # validate allocate its per-worker list before failing
        lines = [json.dumps({"kind": "meta", "workers": 2, "staleness_bound": 4})]
        lines += [json.dumps({"seq": k, "worker": k % 2, "read_from": k - 1}) for k in range(10)]
        if meta:
            lines[0] = json.dumps({"kind": "meta", "workers": 10**30, "staleness_bound": 4})
            line, field = 1, "'workers' must be <= 256"
        else:
            doc = json.loads(lines[6])
            doc["worker"] = 10**30
            lines[6] = json.dumps(doc)
            lines = lines[1:]  # no meta line: workers are inferred
            line, field = 6, "'worker' must be < 256"
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines))
        assert main(["validate", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"line {line}: field {field}, got {10**30}" in err and "Traceback" not in err
        assert cli.MAX_WORKERS == schedules.MAX_WORKERS == 256


def _subclasses(cls) -> set:
    return {sub for direct in cls.__subclasses__() for sub in {direct, *_subclasses(direct)}}


# Each exit code has one class: refused input is a ValidationError, a stall a
# LivenessError, and every other package error a violated guarantee.
_EXIT_OF = {
    errors.ValidationError: (EXIT_USAGE, "usage error: "),
    errors.DimensionError: (EXIT_USAGE, "usage error: "),
    errors.UnsupportedTargetError: (EXIT_USAGE, "usage error: "),
    errors.LivenessError: (EXIT_LIVENESS, "liveness error: "),
    errors.NonErgodicKernelError: (EXIT_VIOLATION, "error: "),
    errors.StationarityError: (EXIT_VIOLATION, "error: "),
    errors.ScheduleError: (EXIT_VIOLATION, "error: "),
    errors.ProposalInconsistencyError: (EXIT_VIOLATION, "error: "),
    errors.NumericError: (EXIT_VIOLATION, "error: "),
    errors.InconclusiveCounterexampleError: (EXIT_VIOLATION, "error: "),
}


class TestExitCodes:
    def test_table_covers_every_error_class(self):
        assert set(_EXIT_OF) == _subclasses(errors.AsyncMCError)

    @pytest.mark.parametrize("cls", list(_EXIT_OF), ids=lambda cls: cls.__name__)
    def test_exit_code_follows_the_class(self, tmp_path, capsys, monkeypatch, cls):
        code, prefix = _EXIT_OF[cls]
        assert code == (EXIT_USAGE if issubclass(cls, errors.ValidationError)
                        else EXIT_LIVENESS if cls is errors.LivenessError else EXIT_VIOLATION)

        def runner(cfg):
            raise cls("raised by the runner")

        monkeypatch.setattr(cli, "_run_measure_sim", runner)
        assert main(["run", "theorem4_smoke", "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == f"{prefix}raised by the runner\n"
        assert not (tmp_path / "out").exists()


def _small_pserver_config(tmp_path, **overrides) -> dict:
    doc = dataclasses.asdict(canned_config("pserver_gaussian"))
    doc.update(horizon=200, out_dir=str(tmp_path / "out"))
    for key, value in overrides.items():
        doc[key] = {**doc[key], **value}
    return doc


def _replay_config(tmp_path, burn) -> dict:
    return {
        "name": "x", "mode": "shmem_replay", "seed": 1, "m": 2, "b": 4, "horizon": 50,
        "target": {"type": "finite", "weights": [1.0, 2.0, 3.0]},
        "kernel": {"kind": "metropolis_hastings", "proposal": {"type": "uniform_independence"}},
        "params": {"burn_fraction": burn}, "out_dir": str(tmp_path / "out"),
    }


NAN, INF = float("nan"), float("inf")
_GAUSS = {"type": "gaussian_correlated", "rho": 0.5}


def _mh(proposal: dict) -> dict:
    return {"kind": "metropolis_hastings", "proposal": proposal}


def _run_file(tmp_path, doc) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return main(["run", str(path)])


# a delay field, and its path, with "X" where a value is put
_DELAY_FIELDS = [
    ({"kind": "fifo_fixed", "params": {"jitter": "X"}}, "delay.params.jitter"),
    ({"kind": "fifo_fixed", "params": {"latency": "X"}}, "delay.params.latency"),
    ({"kind": "fifo_random", "params": {"mean": "X"}}, "delay.params.mean"),
    ({"kind": "fifo_fixed", "params": {"periods": "X"}}, "delay.params.periods"),
    ({"kind": "fifo_fixed", "params": {"periods": [1.0, 1.0, "X", 1.0]}}, "delay.params.periods[2]"),
    ({"kind": "reorder_random", "params": {"span": "X"}}, "delay.params.span"),
    ({"kind": "X"}, "delay.kind"),
    ({"params": "X"}, "delay.params"),
]


class TestMalformedRunParameters:
    @pytest.mark.parametrize(
        "params,field",
        [
            ({"jitter": -0.3}, "delay.params.jitter"),
            ({"jitter": 1e309}, "delay.params.jitter"),
            ({"span": 2.5}, "delay.params.span"),
            ({"span": -1}, "delay.params.span"),
            ({"span": 2**63}, "delay.params.span"),
            ({"mean": -1.0}, "delay.params.mean"),
            ({"latency": "soon"}, "delay.params.latency"),
            ({"periods": [1.0, 2.0]}, "delay.params.periods"),
        ],
    )
    def test_bad_delay_params_exit_1(self, tmp_path, capsys, params, field):
        # each field under the delay kind that reads it, so its value is what is refused
        kinds = {"delay.params.mean": "fifo_random", "delay.params.latency": "fifo_fixed"}
        kind = kinds.get(field, "reorder_random")
        doc = _small_pserver_config(tmp_path)
        doc["delay"] = {"kind": kind, "params": params}
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: {field}: " in err and "unknown field" not in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "delay,field,value",
        [
            *((delay, field, value) for delay, field in _DELAY_FIELDS for value in (10**400, None)),
            ({"kind": "fifo_fixed", "staleness_cap": "X"}, "delay.staleness_cap", None),  # any size of cap is valid
        ],
        ids=lambda v: "1e400" if v == 10**400 else None,
    )
    def test_delay_field_past_float_range_or_null_exits_1(self, tmp_path, capsys, delay, field, value):
        # a 400-digit integer in a delay number ended in an OverflowError traceback
        doc = _small_pserver_config(tmp_path)
        doc["delay"] = json.loads(json.dumps(delay).replace('"X"', json.dumps(value)))
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: {field}: " in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("burn", [1.0, -0.1, 1.5, "half", True])
    @pytest.mark.parametrize("mode", ["pserver", "shmem_replay"])
    def test_bad_burn_fraction_exit_1(self, tmp_path, capsys, burn, mode):
        if mode == "pserver":
            doc = _small_pserver_config(tmp_path, params={"burn_fraction": burn})
        else:
            doc = _replay_config(tmp_path, burn)
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        assert "params.burn_fraction" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_burn_fraction_below_one_writes_valid_json(self, tmp_path):
        assert _run_file(tmp_path, _replay_config(tmp_path, 0.99)) == EXIT_OK
        text = (tmp_path / "out" / "summary.json").read_text()
        json.loads(text, parse_constant=lambda name: pytest.fail(f"summary holds {name}"))


def test_coupled_single_replica_runs(tmp_path):
    doc = dataclasses.asdict(canned_config("coupled_replicas"))
    doc.update(m=1, horizon=5000, out_dir=str(tmp_path / "out"))
    assert _run_file(tmp_path, doc) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    (tv,) = summary["replica_marginal_tv"]
    assert tv < 0.1


def test_coupled_run_has_no_product_space_cap(tmp_path):
    # 3**13 replica tuples: the run stores each slot's label index, never the product
    doc = dataclasses.asdict(canned_config("coupled_replicas"))
    doc.update(m=13, horizon=2000, out_dir=str(tmp_path / "out"))
    assert _run_file(tmp_path, doc) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(summary["replica_marginal_tv"]) == 13


def _finite_pserver_config(tmp_path, weights, params) -> dict:
    return {
        "name": "x", "mode": "pserver", "seed": 1, "m": 2, "horizon": 200,
        "target": {"type": "finite", "weights": weights},
        "kernel": {"kind": "metropolis_hastings", "proposal": {"type": "uniform_independence"}},
        "correction": "mh_corrected", "out_dir": str(tmp_path / "out"),
        "delay": {"kind": "fifo_random", "params": {"mean": 2.0}, "staleness_cap": 64},
        "params": params,
    }


def _run_pserver_of(doc, **kwargs) -> PServerRecord:
    target = build_target(doc["target"])
    return run_pserver(
        build_kernel(doc["kernel"], target), doc["m"], doc["horizon"], build_delay(doc["delay"]),
        doc["correction"], doc["seed"], **kwargs,
    )


def test_pserver_zero_weight_target_runs(tmp_path):
    doc = _finite_pserver_config(tmp_path, [1.0, 2.0, 0.0], {})
    assert _run_file(tmp_path, doc) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["detailed_balance_error"] is None and summary["late_tv"] < 0.2


def test_pserver_table_that_never_proposes_a_state_runs(tmp_path, capsys):
    # state 1 is never proposed, so neither move from it to itself is: its
    # rendered row must hold no NaN
    doc = _finite_pserver_config(tmp_path, [1.0, 2.0, 3.0], {})
    doc.update(horizon=2000, kernel=_mh({"type": "table_independence", "weights": [1.0, 0.0, 1.0]}),
               delay={"kind": "fifo_fixed", "params": {"latency": 1.0}})
    assert _run_file(tmp_path, doc) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["detailed_balance_error"] < 1e-15


def _measure_run_config(tmp_path, target_weights, proposal_weights, **params) -> dict:
    return {
        "name": "x", "mode": "measure_sim", "seed": 1, "m": 2, "b": 4, "horizon": 100,
        "target": {"type": "finite", "weights": target_weights},
        "kernel": _mh({"type": "table_independence", "weights": proposal_weights}),
        "params": params, "out_dir": str(tmp_path / "out"),
    }


def test_measure_run_on_a_table_that_never_proposes_a_state_exit_1(tmp_path, capsys):
    assert _run_file(tmp_path, _measure_run_config(tmp_path, [1.0, 3.0], [1.0, 0.0])) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error: kernel: metropolis_hastings[table_independence] is not ergodic on this target" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_measure_run_on_a_near_identity_kernel_measures_against_pi(tmp_path):
    # power iteration stalls at uniform on this kernel; pi is [0.25, 0.75], and
    # 100 events from the point mass at state 0 barely move it
    assert _run_file(tmp_path, _measure_run_config(tmp_path, [1.0, 3.0], [1.0, 1e-13])) == EXIT_VIOLATION
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["d_final"] == pytest.approx(0.75, abs=1e-9)


def test_mu0_bad_sum_named_as_a_plain_float(tmp_path, capsys):
    doc = _measure_run_config(tmp_path, [1.0, 3.0], [1.0, 1.0], mu0={"type": "probs", "probs": [0.5, 0.4]})
    assert _run_file(tmp_path, doc) == EXIT_USAGE
    assert "usage error: params.mu0.probs: probabilities sum to 0.9, not 1\n" in capsys.readouterr().err


def test_pserver_init_is_a_label_of_a_finite_target(tmp_path, capsys):
    doc = _finite_pserver_config(tmp_path, [1.0, 2.0, 3.0], {"init": 2})
    assert _run_file(tmp_path, doc) == EXIT_OK
    record = _run_pserver_of(doc, init=2)
    out = tmp_path / "out"
    assert (out / "trace.jsonl").read_text() == "".join(f"{ln}\n" for ln in trace_jsonl_lines(record))
    assert (out / "metrics.csv").read_text() == "".join(f"{ln}\n" for ln in messages_csv_lines(record))
    doc = _finite_pserver_config(tmp_path / "list", [1.0, 2.0, 3.0], {"init": [2]})
    assert _run_file(tmp_path, doc) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "params.init: [2] is not a state" in err and "Traceback" not in err
    assert not (tmp_path / "list").exists()


def test_pserver_gibbs_on_a_finite_target_runs(tmp_path):
    # a site draw on a one-site state is a bare label, and replaces the whole state
    doc = _finite_pserver_config(tmp_path, [1, 2, 3], {})
    doc.update(kernel={"kind": "gibbs_single_site"}, delay={"kind": "fifo_fixed"})
    assert _run_file(tmp_path, doc) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["late_tv"] < 0.15 and summary["detailed_balance_error"] < 1e-15


def test_boolean_labels_match_only_booleans(tmp_path, capsys):
    # JSON tells true from 1, though in Python True == 1
    labels = {"type": "finite", "weights": [1.0, 2.0], "labels": [False, True]}
    doc = {**_finite_pserver_config(tmp_path, [1.0, 2.0], {"init": True}), "target": labels}
    assert _run_file(tmp_path, doc) == EXIT_OK
    record = _run_pserver_of(doc, init=True)
    assert (tmp_path / "out" / "trace.jsonl").read_text() == "".join(
        f"{ln}\n" for ln in trace_jsonl_lines(record)
    )
    measure = {**_replay_config(tmp_path / "m", 0.5), "mode": "measure_sim", "target": labels}
    texts = []
    for mu0 in ({"type": "point_mass", "label": True}, {"type": "probs", "probs": [0.0, 1.0]}):
        assert _run_file(tmp_path, {**measure, "params": {"mu0": mu0}}) == EXIT_OK
        texts.append((tmp_path / "m" / "out" / "metrics.csv").read_text())
    assert texts[0] == texts[1]
    capsys.readouterr()
    for target, params, field in (
        (labels, {"init": 1}, "params.init"),
        (labels, {"init": 0.0}, "params.init"),
        ({"type": "finite", "weights": [1.0, 2.0, 3.0]}, {"init": True}, "params.init"),
        (labels, {"mu0": {"label": 1}}, "params.mu0.label"),
        ({"type": "finite", "weights": [1.0, 2.0, 3.0]}, {"mu0": {"label": True}}, "params.mu0.label"),
    ):
        server = "init" in params
        base = _finite_pserver_config(tmp_path / "x", [], params) if server else {**measure, "params": params}
        assert _run_file(tmp_path, {**base, "target": target}) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{field}: " in err and "Traceback" not in err
    doc = _finite_pserver_config(tmp_path / "x", [1.0, 2.0, 3.0], {"init": [True, 0]})
    doc["experiment"] = "coupled"
    assert _run_file(tmp_path, doc) == EXIT_USAGE
    assert "params.init: (True, 0) is not a state" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_written_server_trace_validates(tmp_path, capsys):
    doc = _finite_pserver_config(tmp_path, [1.0, 2.0, 3.0], {})
    assert _run_file(tmp_path, doc) == EXIT_OK
    capsys.readouterr()
    assert main(["validate", str(tmp_path / "out" / "trace.jsonl")]) == EXIT_OK
    bound = _run_pserver_of(doc).staleness_bound
    assert capsys.readouterr().out == f"ok: 200 events, m=2, b={bound}\n"


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"seed": True}, "seed"),
            ({"horizon": "5"}, "horizon"),
            ({"m": 2.0}, "m"),
            ({"b": False}, "b"),
            ({"target": None}, "target"),
            ({"target": {"type": "finite"}}, "target.weights"),
            ({"target": {"type": "gaussian", "mean": [0.0]}}, "target.precision"),
            ({"name": ""}, "name"),
            ({"name": ".."}, "name"),
            ({"name": "a\\b"}, "name"),
            ({"kernel": _mh({"type": "table_independence"})}, "kernel.proposal.weights"),
            ({"kernel": _mh({"type": "gaussian_random_walk"})}, "kernel.proposal.scale"),
            ({"kernel": _mh({"type": "gaussian_independence", "scale": 1.0})}, "kernel.proposal.center"),
            ({"kernel": _mh({"type": "gaussian_independence", "center": [0.0]})}, "kernel.proposal.scale"),
            ({"kernel": _mh({"type": "table_independence", "weights": [NAN, 1, 1]})}, "kernel.proposal.weights"),
            ({"kernel": _mh({"type": "table_independence", "weights": [INF, 1, 1]})}, "kernel.proposal.weights"),
            ({"kernel": _mh({"type": "gaussian_independence", "center": [0.0], "scale": NAN})},
             "kernel.proposal.scale"),
            ({"kernel": _mh({"type": "gaussian_independence", "center": [NAN], "scale": 1.0})},
             "kernel.proposal.center"),
            ({"kernel": _mh({"type": "gaussian_random_walk", "scale": "x"})}, "kernel.proposal.scale"),
            ({"target": {"type": "finite", "weights": [1.0, NAN, 3.0]}}, "target.weights"),
            ({"target": {"type": "gaussian", "mean": [NAN], "precision": [[1.0]]}}, "target.mean"),
            ({"target": {"type": "gaussian", "mean": [0.0], "precision": [[INF]]}}, "target.precision"),
            ({"mode": "measure_sim", "params": {"mu0": {"type": "probs", "probs": [NAN, 0.5, 0.5]}}},
             "params.mu0.probs"),
            ({"mode": "measure_sim", "params": {"mu0": {"type": "probs", "probs": [0.5, 0.5]}}},
             "params.mu0.probs"),
            ({"mode": "measure_sim", "params": {"mu0": {"type": "probs", "probs": ["x", 0.5, 0.5]}}},
             "params.mu0.probs"),
            ({"target": _GAUSS, "kernel": _mh({"type": "uniform_independence"})}, "kernel.proposal.type"),
            ({"target": _GAUSS, "kernel": _mh({"type": "table_independence", "weights": [1.0, 1.0]})},
             "kernel.proposal.type"),
            ({"kernel": _mh({"type": "gaussian_random_walk", "scale": 0.5})}, "kernel.proposal.type"),
            ({"kernel": _mh({"type": "gaussian_independence", "center": [0.0], "scale": 1.0})},
             "kernel.proposal.type"),
            ({"kernel": _mh({"type": "table_independence", "weights": [1.0, 2.0]})}, "kernel.proposal.weights"),
            ({"kernel": _mh({"type": "table_independence", "weights": [1.0, 2.0, 3.0, 4.0]})},
             "kernel.proposal.weights"),
            ({"target": _GAUSS, "kernel": _mh({"type": "gaussian_independence", "center": [0.0], "scale": 1.0})},
             "kernel.proposal.center"),
            ({"target": _GAUSS, "kernel": _mh({"type": "gaussian_independence", "center": 0.0, "scale": 1.0})},
             "kernel.proposal.center"),
        ],
    )
    def test_bad_field_exit_1(self, tmp_path, capsys, overrides, field):
        doc = {**_replay_config(tmp_path, 0.5), **overrides}
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{field}:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"params": [1]}, "params"),
            ({"kernel": ["x"]}, "kernel"),
            ({"kernel": _mh("uniform_independence")}, "kernel.proposal"),
            ({"params": {"schedule": "random"}}, "params.schedule"),
            ({"mode": "measure_sim", "params": {"mu0": "uniform"}}, "params.mu0"),
        ],
    )
    def test_not_an_object_exit_1(self, tmp_path, capsys, overrides, field):
        doc = {**_replay_config(tmp_path, 0.5), **overrides}
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{field}: must be an object" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["run", "coupled"])
    def test_delay_not_an_object_exit_1(self, tmp_path, capsys, experiment):
        doc = _small_pserver_config(tmp_path)
        doc.update(experiment=experiment, delay="fifo" if experiment == "run" else None)
        if experiment == "coupled":
            doc["target"] = {"type": "finite", "weights": [1.0, 2.0]}
            doc["kernel"] = _mh({"type": "uniform_independence"})
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "delay: must be an object" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"instances": 0}, "params.instances"),
            ({"instances": "x"}, "params.instances"),
            ({"n_states_max": 1}, "params.n_states_max"),
            ({"m_max": 0}, "params.m_max"),
            ({"b_max": 0}, "params.b_max"),
            ({"m_max": 10**30}, "params.m_max"),
            ({"b_max": 10**30}, "params.b_max"),
            ({"horizon": 5, "b_max": 10}, "horizon"),
            ({"horizon": 26 * 4 - 1}, "horizon"),
            ({"horizon": 26 * 4}, None),
        ],
    )
    def test_campaign_sizes_exit_1(self, tmp_path, capsys, overrides, field):
        params = {"instances": 2, "n_states_max": 3, "m_max": 2, "b_max": 4, **overrides}
        doc = {
            **_replay_config(tmp_path, 0.5), "mode": "measure_sim", "experiment": "theorem4_campaign",
            "horizon": params.pop("horizon", 26 * 4), "params": params,
        }
        if field is None:  # the shortest horizon the campaign's check can pass
            assert _run_file(tmp_path, doc) == EXIT_OK
            return
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{field}: must be an integer" in err and "Traceback" not in err
        if field == "horizon":
            assert "params.b_max)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("frozen", [[7, -1], [2], [0, -1]])
    @pytest.mark.parametrize("experiment", ["run", "naive_divergence_control"])
    def test_frozen_worker_out_of_range_exit_1(self, tmp_path, capsys, frozen, experiment):
        # only the field under test: naive_divergence_control refuses the base's n_batches
        # and correction, since it runs both corrections
        doc = _small_pserver_config(tmp_path)
        doc.update(m=2, experiment=experiment, params={"frozen_workers": frozen})
        if experiment == "naive_divergence_control":
            doc["correction"] = None
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "params.frozen_workers: worker ids must lie in [0, 2)" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threshold", [0, 0.0, -0.5, -1])
    def test_threshold_not_positive_exit_1(self, tmp_path, capsys, threshold):
        doc = {**_replay_config(tmp_path, 0.5), "mode": "measure_sim", "params": {"threshold": threshold}}
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "params.threshold: must be > 0" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_server_rejects_random_walk_exit_1(self, tmp_path, capsys):
        doc = _small_pserver_config(tmp_path)
        doc["kernel"] = _mh({"type": "gaussian_random_walk", "scale": 0.5})
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "kernel.proposal.type:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_server_rejects_unsupported_kernel_kind_exit_1(self, tmp_path, capsys):
        doc = _small_pserver_config(tmp_path)
        doc["horizon"] = 50
        doc["kernel"] = {"kind": "systematic_gibbs"}
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "kernel.kind:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_coupled_needs_a_finite_target_exit_1(self, tmp_path, capsys):
        # without the base's n_batches, which a coupled run never reads
        doc = {**_small_pserver_config(tmp_path), "experiment": "coupled", "horizon": 50, "params": {}}
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "target.type:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_name_cannot_leave_the_output_root(self, tmp_path, capsys, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        doc = _replay_config(tmp_path, 0.5)
        del doc["out_dir"]
        doc["name"] = "../escaped"
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        assert "name:" in capsys.readouterr().err
        assert not (work / "escaped").exists() and not (work / "asyncmc_out").exists()

    @pytest.mark.parametrize("watchdog_b", [0, -5, 2.5, True])
    def test_bad_watchdog_exit_1(self, tmp_path, capsys, watchdog_b):
        doc = {**_replay_config(tmp_path, 0.5), "mode": "shmem_real"}
        doc["params"] = {"watchdog_b": watchdog_b}
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "params.watchdog_b" in err and "Traceback" not in err


# two experiments that read no target or kernel, on the replay base that carries both
_TORN = {"mode": "shmem_real", "experiment": "torn_state", "target": None, "kernel": None}
_CONTRACTION = {"mode": "measure_sim", "experiment": "contraction_campaign", "target": None, "kernel": None}
_MEASURE = {"mode": "measure_sim", "params": {}}  # a replay's burn_fraction is no measure_sim key
_MH_UNIFORM = _mh({"type": "uniform_independence"})
_THEOREM4 = {"mode": "measure_sim", "experiment": "theorem4_campaign", "horizon": 104}
_THREE_STATE = {"type": "finite", "weights": [1.0, 2.0, 3.0]}


class TestEveryFieldNamed:
    """Configs that once ended in a traceback, a vacuous exit 0, exit 3, or
    exit 1 without naming the field."""

    @pytest.mark.parametrize(
        "base,overrides,field",
        [
            ("replay", {**_TORN, "params": {"ops": "x"}}, "params.ops"),
            ("replay", {**_CONTRACTION, "params": {"instances": "x"}}, "params.instances"),
            ("replay", {"kernel": {**_MH_UNIFORM, "site_order": 5}}, "kernel.site_order"),
            ("replay", {"params": {"schedule": {"type": "adversarial", "name": ["x"]}}},
             "params.schedule.name"),
            ("replay", {"target": {"type": "gaussian_correlated", "rho": "x"}}, "target.rho"),
            ("replay", {"target": {"type": "finite", "weights": [1.0, 2.0], "labels": 5}}, "target.labels"),
            ("replay", {**_MEASURE, "params": {"threshold": "x"}}, "params.threshold"),
            ("pserver", {"params": {"n_batches": "x"}}, "params.n_batches"),
            ("pserver", {"params": {"init": 5}}, "params.init"),
            ("pserver", {"params": {"frozen_workers": 5}}, "params.frozen_workers"),
            ("pserver", {"kernel": {"kind": "gibbs_single_site"}, "params": {"init": [1.0]}}, "params.init"),
            ("replay", {**_CONTRACTION, "params": {"instances": 0}}, "params.instances"),
            ("replay", {**_TORN, "params": {"ops": 0}}, "params.ops"),
            ("replay", {**_MEASURE, "target": _GAUSS, "kernel": {"kind": "gibbs_single_site"}}, "target.type"),
            ("replay", {**_MEASURE, "target": {"type": "finite", "weights": [1.0, 0.0, 2.0]}},
             "target.weights"),
            ("pserver", {"delay": {"kind": "nope"}}, "delay.kind"),
            ("replay", {"kernel": {"kind": ["x"]}}, "kernel.kind"),
            ("replay", {**_MEASURE, "params": {"mu0": {"label": 99}}}, "params.mu0.label"),
            ("replay", {"experiment": "determinism_repro", "target": None, "kernel": None,
                        "params": {"configs": "ab"}}, "params.configs"),
            # a determinism_repro config runs canned configs and reads none of these
            ("replay", {"experiment": "determinism_repro", "params": {"configs": ["theorem4_smoke"]}},
             "target"),
            *(
                ("replay", {"experiment": "determinism_repro", "target": None, "kernel": None,
                            "params": {"configs": ["theorem4_smoke"]}, name: value}, name)
                for name, value in (("target", {"tpye": "finite"}), ("kernel", {"knid": 1}),
                                    ("delay", {"kind": "fifo_fixed"}), ("correction", "mh_corrected"))
            ),
            ("replay", {"seed": -1}, "seed"),
            ("replay", {"out_dir": 5}, "out_dir"),
            ("replay", {**_MEASURE, "experiment": "frozen_worker_counterexample", "horizon": 5}, "horizon"),
            ("pserver", {"experiment": "naive_divergence_control", "target": {"type": "finite", "weights": [1, 2]},
                         "kernel": {"kind": "gibbs_single_site"}, "correction": None, "params": {}}, "target.type"),
            ("pserver", {"experiment": "coupled", "correction": None, "kernel": _MH_UNIFORM,
                         "target": {"type": "finite", "weights": [1, 2]}}, "correction"),
            # a kernel with no unique stationary law
            *(
                ("replay", {**_MEASURE, "experiment": experiment, "target": target, "kernel": kernel},
                 "kernel")
                for experiment in ("run", "frozen_worker_counterexample")
                for target, kernel in (
                    ({"type": "finite", "weights": [0, 1, 2]}, {"kind": "gibbs_single_site"}),
                    ({"type": "finite", "weights": [1, 2]}, _mh({"type": "identity"})),
                )
            ),
            # a threaded stress test has no replay form
            ("replay", {"experiment": "torn_state", "params": {"ops": 100}}, "experiment"),
            # sizes that would exhaust memory
            ("replay", {**_THEOREM4, "params": {"n_states_max": 10**6}}, "params.n_states_max"),
            # fields that the run reads but never uses
            ("pserver", {"kernel": _MH_UNIFORM, "target": _THREE_STATE, "params": {"n_batches": 20}},
             "params.n_batches"),
            ("pserver", {"experiment": "naive_divergence_control", "kernel": {"kind": "gibbs_single_site"},
                         "correction": None, "params": {"n_batches": 20}}, "params.n_batches"),
            ("replay", {**_THEOREM4, "params": {"mu0": {"type": "uniform"}}}, "params.mu0"),
            ("replay", {**_CONTRACTION, "params": {"mu0": {"type": "uniform"}}}, "params.mu0"),
            # objects that the experiment never reads
            ("replay", {"delay": {"kind": "fifo_fixed"}, "correction": "naive_accept"}, "delay"),
            ("replay", {"correction": "naive_accept"}, "correction"),
            ("replay", {**_MEASURE, "delay": {"kind": "fifo_fixed"}}, "delay"),
            ("pserver", {"experiment": "naive_divergence_control", "kernel": {"kind": "gibbs_single_site"},
                         "params": {}}, "correction"),
            # sizes that no run can hold
            ("replay", {"horizon": 10**400}, "horizon"),
            ("pserver", {"horizon": 10**400}, "horizon"),
            ("replay", {**_THEOREM4, "params": {"instances": 10**400}}, "params.instances"),
            ("replay", {**_CONTRACTION, "params": {"instances": 10**400}}, "params.instances"),
            ("replay", {**_TORN, "params": {"ops": 10**400}}, "params.ops"),
            ("replay", {"b": 10**400}, "b"),
            ("replay", {**_MEASURE, "b": 10**400}, "b"),
            # the campaign of random kernels and the cell stress read no configured chain
            ("replay", {**_CONTRACTION, "target": _THREE_STATE, "params": {}}, "target"),
            ("replay", {**_CONTRACTION, "kernel": _MH_UNIFORM, "params": {}}, "kernel"),
            ("replay", {**_TORN, "target": _GAUSS, "kernel": {"kind": "gibbs_single_site"}, "params": {"ops": 100}},
             "target"),
            ("replay", {**_TORN, "kernel": _MH_UNIFORM, "params": {"ops": 100}}, "kernel"),
        ],
    )
    def test_bad_field_exit_1(self, tmp_path, capsys, base, overrides, field):
        doc = _small_pserver_config(tmp_path) if base == "pserver" else _replay_config(tmp_path, 0.5)
        doc.update(overrides)
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{field}:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("m", [MAX_WORKERS + 1, 10**9])
    @pytest.mark.parametrize(
        "base,overrides",
        [
            ("replay", _MEASURE),
            ("replay", {"mode": "shmem_real", "params": {}}),
            ("replay", {}),
            ("pserver", {}),
            ("pserver", {"experiment": "coupled", "kernel": _MH_UNIFORM, "target": _THREE_STATE, "params": {}}),
        ],
    )
    def test_m_past_max_workers_exit_1(self, tmp_path, capsys, base, overrides, m):
        doc = _small_pserver_config(tmp_path) if base == "pserver" else _replay_config(tmp_path, 0.5)
        doc.update(overrides, m=m)
        # refused by the config itself, before any stream or thread exists
        with pytest.raises(ValidationError, match=rf"^m: must be an integer in \[1, {MAX_WORKERS + 1}\), got {m}$"):
            ExperimentConfig.from_dict(doc)
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "m:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_config_not_an_object_exit_1(self, tmp_path, capsys):
        assert _run_file(tmp_path, 5) == EXIT_USAGE
        assert "config: must be an object" in capsys.readouterr().err

    def test_threaded_run_from_a_zero_weight_state_exit_1(self, tmp_path, capsys):
        doc = {**_replay_config(tmp_path, 0.5), "mode": "shmem_real"}
        doc["target"] = {"type": "finite", "weights": [0.0, 1.0, 2.0]}
        assert _run_file(tmp_path, doc) == EXIT_USAGE
        assert "outside the target support" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestWriteText:
    @staticmethod
    def line_by_line(path, lines):
        with path.open("w") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")

    @pytest.mark.parametrize(
        "n", [0, 1, _LINES_PER_WRITE - 1, _LINES_PER_WRITE, _LINES_PER_WRITE + 1, 3 * _LINES_PER_WRITE]
    )
    def test_lines_match_a_line_by_line_writer(self, tmp_path, n):
        lines = [f"{i},é{'x' * (i % 5)}" for i in range(n)]
        _write_text(tmp_path / "chunked", (line for line in lines))
        self.line_by_line(tmp_path / "reference", lines)
        assert (tmp_path / "chunked").read_bytes() == (tmp_path / "reference").read_bytes()

    @pytest.mark.parametrize(
        "base,overrides",
        [
            ("replay", _MEASURE),
            ("replay", {**_THEOREM4, "params": {"instances": 2, "n_states_max": 3, "m_max": 2, "b_max": 4}}),
            ("replay", {**_CONTRACTION, "params": {"instances": 5}}),
            ("replay", {**_MEASURE, "experiment": "frozen_worker_counterexample", "horizon": 20}),
            ("replay", {}),
            ("replay", {**_TORN, "params": {"ops": 100}}),
            ("pserver", {"horizon": 1000}),  # enough samples for the default batch means
            ("pserver", {"experiment": "naive_divergence_control", "correction": None, "params": {}}),
            ("pserver", {"experiment": "coupled", "kernel": _MH_UNIFORM, "target": _THREE_STATE, "params": {}}),
        ],
    )
    def test_every_artifact_is_streamed_as_lines(self, tmp_path, monkeypatch, base, overrides):
        # one config per runner branch: each file it writes, summary.json
        # included, reaches the one writer as lines, never as a whole string
        written = {}

        def record(path, lines):
            written[path.name] = type(lines)
            _write_text(path, lines)

        monkeypatch.setattr(cli, "_write_text", record)
        doc = _small_pserver_config(tmp_path) if base == "pserver" else _replay_config(tmp_path, 0.5)
        doc.update(overrides)
        run_experiment(ExperimentConfig.from_dict(doc))
        assert sorted(written) == sorted(p.name for p in (tmp_path / "out").iterdir())
        assert "summary.json" in written and "metrics.csv" in written
        assert not [name for name, kind in written.items() if issubclass(kind, str)]
