"""Mutants of the package, each kept with the check that must catch it.

A mutant is one ``monkeypatch`` of a ``src`` function, bound where its
caller looks it up: ``cli`` and ``pserver`` bind the config reader's
``_read`` and ``_only`` by name, and ``_read`` finds ``_is`` in ``errors``;
or of one entry of ``cli.EXPERIMENTS``, the table of what each experiment
reads.
Each case runs the input of its check through that check's own code
(``cli.main``, ``DelayModel`` or ``schedules.schedule_from_jsonl``), asserts
the check's expected outcome on the real code, and asserts that the outcome
fails under the mutant.

The law-level mutants break what a scientific check measures, not an input
check.  Their checks are test methods, run as they are, and each mutant is
bound in the test module that calls the function: ``test_shmem`` calls
``replay``, ``test_reference_equivalence`` calls ``verify_theorem4`` and
``test_server_exactness`` calls ``_candidate``; ``measure_sim`` looks up its
own ``_ladder`` and ``_window_stats``, so those two are bound there.
"""
import contextlib
import inspect
import io
import json
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

import test_reference_equivalence
import test_server_exactness
import test_shmem
from asyncmc import cli, errors, measure_sim, pserver, schedules
from asyncmc.errors import ValidationError, _is, _read
from asyncmc.pserver import DelayModel

_SERVER = {
    "name": "mutant", "mode": "pserver", "seed": 1, "m": 2, "horizon": 200, "correction": "mh_corrected",
    "target": {"type": "finite", "weights": [1.0, 2.0, 3.0]},
    "kernel": {"kind": "metropolis_hastings", "proposal": {"type": "uniform_independence"}},
    "delay": {"kind": "fifo_fixed", "params": {"latency": 1.0}},
    "params": {"burn_fraction": 0.2},
}
_REPLAY = {
    "name": "mutant", "mode": "shmem_replay", "seed": 1, "m": 2, "b": 4, "horizon": 50,
    "target": _SERVER["target"], "kernel": _SERVER["kernel"],
}


def _exits_1_naming(field: str, base: dict = _SERVER, **overrides) -> bool:
    """Whether ``asyncmc run`` of the ``base`` config (the server one by
    default) with ``overrides`` exits 1 naming ``field``, with no exception
    escaping ``main``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({**base, **overrides}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["run", str(path), "--out", str(Path(tmp) / "out")])
            except Exception:  # a traceback
                return False
    return code == 1 and f"usage error: {field}: " in err.getvalue()


def _delay_refuses(field: str, **fields) -> bool:
    """Whether ``DelayModel(**fields)`` raises a ValidationError naming ``field``."""
    try:
        DelayModel(**fields)
    except ValidationError as exc:
        return str(exc).startswith(f"{field}: ")
    return False


def _server_trace_kinds() -> set:
    """The event kinds that ``schedules.schedule_from_jsonl`` parses from the
    ``trace.jsonl`` of ``asyncmc run`` of the server config."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(_SERVER))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", str(path), "--out", str(Path(tmp) / "out")]) == 0
        text = (Path(tmp) / "out" / "trace.jsonl").read_text()
    return {event.kind for event in schedules.schedule_from_jsonl(text).events}


def _bool_is_a_number(value, kind) -> bool:
    return (kind in (int, float) and isinstance(value, bool)) or _is(value, kind)


def _read_ignoring_least(doc, path, kind, default=..., least=None, below=None):
    return _read(doc, path, kind, default, None, below)


def _read_ignoring_below(doc, path, kind, default=..., least=None, below=None):
    return _read(doc, path, kind, default, least, None)


def _only_letting_all_through(doc, path, keys) -> None:
    return None


def _delay_number_with_none_default(doc, path, kind, default=..., least=None, below=None):
    if path.startswith("delay.params.") and default is not ...:
        default = None  # a null then reads as absent
    return _read(doc, path, kind, default, least, below)


_parse_jsonl = schedules.schedule_from_jsonl  # the real parser, which the next mutant wraps


def _parse_dropping_kind(text):
    parsed = _parse_jsonl(text)
    return schedules.Schedule(
        tuple(event._replace(kind="write") for event in parsed.events), parsed.workers, parsed.staleness_bound
    )


def _passes(test, *args) -> bool:
    """Whether the test function or method ``test`` passes on ``args``."""
    try:
        test(*args)
    except AssertionError:
        return False
    return True


def _source_mutant(function, old: str, new: str):
    """``function`` compiled again from its own source with the one ``old`` in
    it replaced by ``new``, over its module's globals."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} is not once in {function.__name__}"
    scope: dict = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), function.__globals__, scope)
    return scope[function.__name__]


_replay = test_shmem.replay  # the real replay, which the next mutant wraps


def _replay_reading_newest(kernel, schedule, seed):
    newest = tuple(event._replace(read_from=event.seq - 1) for event in schedule.events)
    return _replay(kernel, schedules.Schedule(newest, schedule.workers, schedule.staleness_bound), seed)


# the d_star rise check one index early: it also counts the rise into the first warm window
_verify_rise_one_early = _source_mutant(
    measure_sim.verify_theorem4,
    "d_star[b + 2 :] > d_star[b + 1 : -1] + MONOTONE_TOL, b + 2",
    "d_star[b + 1 :] > d_star[b : -1] + MONOTONE_TOL, b + 1",
)


# the ladder settles once consecutive rows agree to 1e-12, not bit for bit
_ladder_settling_near = _source_mutant(
    measure_sim._ladder,
    "rows[k].tobytes() == rows[k - 1].tobytes()",
    "np.allclose(rows[k], rows[k - 1], rtol=0, atol=1e-12)",
)

# the second of the two overlapping spans starts one value early: windows of b + 1
_window_one_too_wide = _source_mutant(measure_sim._window_stats, "shift = b - span", "shift = b - span + 1")


def _whole_proposal(current, x_star, params, sites):
    return x_star


_REPLAY_OBJECTS, _REPLAY_KEYS = cli.EXPERIMENTS["shmem_replay"]["run"]
_TORN = {"name": "mutant", "mode": "shmem_real", "seed": 1, "experiment": "torn_state", "m": 2, "params": {"ops": 100}}

# name: (owner, attribute, mutant, check); an owner that is a dict has the
# mutant set as its item
CASES = {
    "_is takes a bool as a number": (
        errors, "_is", _bool_is_a_number, lambda: _exits_1_naming("seed", seed=True),
    ),
    "cli._read ignores least": (
        cli, "_read", _read_ignoring_least, lambda: _exits_1_naming("seed", seed=-1),
    ),
    "cli._read ignores below": (
        cli, "_read", _read_ignoring_below, lambda: _exits_1_naming("horizon", horizon=10**400),
    ),
    "the table lets delay into a shmem_replay run": (
        cli.EXPERIMENTS["shmem_replay"], "run", ((*_REPLAY_OBJECTS, "delay"), _REPLAY_KEYS),
        lambda: _exits_1_naming("delay", _REPLAY, delay={"kind": "fifo_fixed"}),
    ),
    "pserver._read ignores least": (
        pserver, "_read", _read_ignoring_least, lambda: _delay_refuses("delay.staleness_cap", staleness_cap=-1),
    ),
    "_only lets an unknown key through": (
        cli, "_only", _only_letting_all_through,
        lambda: _exits_1_naming("params.burn_fracton", params={"burn_fracton": 0.2}),
    ),
    "a null jitter reads as absent": (
        pserver, "_read", _delay_number_with_none_default,
        lambda: _exits_1_naming("delay.params.jitter", delay={"kind": "fifo_fixed", "params": {"jitter": None}}),
    ),
    "the table lets target and kernel into a torn_state run": (
        cli.EXPERIMENTS["shmem_real"], "torn_state", (("target", "kernel"), ("ops",)),
        lambda: _exits_1_naming("target", _TORN, target=_SERVER["target"], kernel=_SERVER["kernel"]),
    ),
    "the trace parser drops kind": (
        schedules, "schedule_from_jsonl", _parse_dropping_kind, lambda: _server_trace_kinds() == {"server_commit"},
    ),
    "replay reads the newest version": (
        test_shmem, "replay", _replay_reading_newest,
        lambda: _passes(
            test_shmem.TestSampleMeasureIdentity().test_counts_match_mu_v_at_every_version, "uniform_mh", "random"
        ),
    ),
    "verify_theorem4 checks d_star rises from one index early": (
        test_reference_equivalence, "verify_theorem4", _verify_rise_one_early,
        lambda: _passes(test_reference_equivalence.TestReferenceVerify().test_planted_failures),
    ),
    "the ladder settles within 1e-12": (
        measure_sim, "_ladder", _ladder_settling_near,
        lambda: _passes(test_reference_equivalence.TestFloatPropagation().test_random_schedules),
    ),
    "the window statistics reduce b + 1 values": (
        measure_sim, "_window_stats", _window_one_too_wide,
        lambda: _passes(test_reference_equivalence.TestWindowStats().test_matches_a_max_and_min_per_window, np.int64),
    ),
    "the server candidate is the whole proposal": (
        test_server_exactness, "_candidate", _whole_proposal,
        lambda: _passes(test_server_exactness.test_coupled_slots_keep_pi, "uniform", 1),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_mutant_caught(monkeypatch, name):
    owner, attribute, mutant, check = CASES[name]
    assert check(), "the check fails on the real code"
    if isinstance(owner, dict):
        monkeypatch.setitem(owner, attribute, mutant)
    else:
        monkeypatch.setattr(owner, attribute, mutant)
    assert not check(), f"the mutant {name!r} survives its check"
