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
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from asyncmc import cli, errors, pserver, schedules
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
