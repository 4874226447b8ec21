"""Fuzzed configs: every one exits with a documented code, none with a traceback.

Each example takes a small working config of one mode and experiment and
sets one of its fields, at any depth of nested objects, to a value of the
wrong JSON type, ``null``, a boolean, NaN, a negative number or 0; each
field whose base value is a JSON float is also set to an integer past float
range.  No value raises a size above the base config's, so no run starts
more than two threads or runs long.  Run with the ``test`` extra installed
(``hypothesis``); the test is derandomized, so each run tries the same
examples.
"""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncmc.cli import main

_FINITE = {"type": "finite", "weights": [1.0, 2.0, 3.0]}
_GAUSS = {"type": "gaussian_correlated", "rho": 0.5}
_UNIFORM = {"kind": "metropolis_hastings", "proposal": {"type": "uniform_independence"}}
_GIBBS = {"kind": "gibbs_single_site"}
_SERVER = {"mode": "pserver", "m": 2, "horizon": 200}
_CORRECTED = {**_SERVER, "correction": "mh_corrected"}

BASES = {
    "measure_run": {
        "mode": "measure_sim", "target": _FINITE, "kernel": _UNIFORM, "m": 2, "b": 3, "horizon": 60,
        "params": {"mu0": {"type": "probs", "probs": [0.2, 0.3, 0.5]}, "threshold": 0.5,
                   "schedule": {"type": "random"}},
    },
    "theorem4_campaign": {
        "mode": "measure_sim", "experiment": "theorem4_campaign", "target": _FINITE, "kernel": _UNIFORM,
        "horizon": 104, "params": {"instances": 2, "n_states_max": 3, "m_max": 2, "b_max": 4},
    },
    "contraction_campaign": {
        "mode": "measure_sim", "experiment": "contraction_campaign", "params": {"instances": 3},
    },
    "frozen_worker_counterexample": {
        "mode": "measure_sim", "experiment": "frozen_worker_counterexample",
        "target": {"type": "finite", "weights": [3.0, 1.0]}, "kernel": _UNIFORM, "horizon": 50,
        "params": {"mu0": {"type": "point_mass", "label": 0}},
    },
    "shmem_real": {
        "mode": "shmem_real", "target": _FINITE, "kernel": _UNIFORM, "m": 2, "horizon": 200,
        "params": {"watchdog_b": 200, "burn_fraction": 0.5},
    },
    "torn_state": {
        "mode": "shmem_real", "experiment": "torn_state", "m": 2, "params": {"ops": 1000},
    },
    "shmem_replay": {
        "mode": "shmem_replay", "target": {**_FINITE, "labels": ["a", "b", "c"]},
        "kernel": {"kind": "systematic_gibbs", "site_order": [0]}, "m": 2, "b": 4, "horizon": 100,
        "params": {"schedule": {"type": "adversarial", "name": "always_max_stale"}, "burn_fraction": 0.5},
    },
    "shmem_replay_gaussian": {
        "mode": "shmem_replay", "target": {"type": "gaussian", "mean": [0.0], "precision": [[1.0]]},
        "kernel": {"kind": "metropolis_hastings", "proposal": {"type": "gaussian_random_walk", "scale": 1.0}},
        "m": 2, "b": 2, "horizon": 100, "params": {"schedule": {"type": "synchronous"}},
    },
    "pserver_finite": {
        **_CORRECTED, "target": _FINITE,
        "kernel": {"kind": "metropolis_hastings",
                   "proposal": {"type": "table_independence", "weights": [1.0, 2.0, 1.0]}},
        "delay": {"kind": "fifo_random", "params": {"mean": 2.0}, "staleness_cap": 64},
        "params": {"burn_fraction": 0.2},
    },
    "pserver_gibbs_finite": {
        **_CORRECTED, "target": {"type": "finite", "weights": [1, 2, 3]}, "kernel": _GIBBS,
        "delay": {"kind": "fifo_fixed"},
    },
    "pserver_gaussian": {
        **_CORRECTED, "target": _GAUSS,
        "kernel": {"kind": "metropolis_hastings",
                   "proposal": {"type": "gaussian_independence", "center": [0.0, 0.0], "scale": 1.5}},
        "delay": {"kind": "reorder_random", "params": {"span": 4, "jitter": 0.3}, "staleness_cap": 64},
        "params": {"burn_fraction": 0.0, "n_batches": 20},
    },
    "coupled": {
        **_CORRECTED, "experiment": "coupled", "target": _FINITE, "kernel": _UNIFORM,
        "delay": {"kind": "fifo_fixed", "params": {"latency": 1.0, "periods": 1.0}},
        "params": {"init": [0, 1]},
    },
    "naive_divergence_control": {
        **_SERVER, "experiment": "naive_divergence_control", "target": {**_GAUSS, "rho": 0.9},
        "kernel": _GIBBS,
        "delay": {"kind": "fifo_fixed", "params": {"latency": 0.0, "periods": [1.0, 2.0], "jitter": 0.5},
                  "staleness_cap": 1000},
        "params": {"init": [1.0, -1.0], "frozen_workers": [0], "burn_fraction": 0.2},
    },
    "determinism_repro": {
        "mode": "measure_sim", "experiment": "determinism_repro",
        "params": {"configs": ["frozen_worker_counterexample"]},
    },
}
BAD_VALUES = ("x", ["x"], {"x": 1}, None, True, float("nan"), -1, -0.5, 0)


def _paths(doc: dict, prefix: str = ""):
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, f"{prefix}{key}.")


FIELDS = [(base, path) for base in BASES for path in ["name", "seed", *_paths(BASES[base])]]


def _run(doc: dict) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


def _base(base: str) -> dict:
    """A fresh copy of the named base config."""
    return json.loads(json.dumps({"name": "fuzz", "seed": 1, **BASES[base]}))


@pytest.mark.parametrize("base", sorted(BASES))
def test_base_configs_run(base):
    code, err = _run(_base(base))
    assert code == 0, err


def _with(base: str, path: str, value) -> dict:
    """The base config with the field at ``path`` set to ``value``."""
    doc = _base(base)
    *parents, name = path.split(".")
    owner = doc
    for key in parents:
        owner = owner[key]
    owner[name] = value
    return doc


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(st.sampled_from(FIELDS), st.sampled_from(BAD_VALUES))
def test_no_fuzzed_config_ends_in_a_traceback(field, value):
    base, path = field
    code, err = _run(_with(base, path, value))  # an exception escaping main fails the test with its traceback
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:  # the field, or one inside it
        assert re.search(rf"{re.escape(path)}[:.\[]", err), err


def _get(doc: dict, path: str):
    for key in path.split("."):
        doc = doc[key]
    return doc


# Every field whose base value is a JSON float.  A 400-digit integer in a
# size field is refused by its bound, which test_cli checks field by field.
FLOAT_FIELDS = [(base, path) for base, path in FIELDS if isinstance(_get(_base(base), path), float)]


@pytest.mark.parametrize("base,path", FLOAT_FIELDS)
def test_number_past_float_range_exits_1_naming_it(base, path):
    code, err = _run(_with(base, path, 10**400))
    assert code == 1
    assert "Traceback" not in err
    assert f"usage error: {path}: " in err, err


def _objects(doc: dict, prefix: str = ""):
    """The paths of the nested objects of ``doc``, and their keys."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield prefix + key, list(value)
            yield from _objects(value, f"{prefix}{key}.")


def _misspelt(key: str) -> str:
    return key[0] + key[2] + key[1] + key[3:] if len(key) > 2 else key + key[-1]


# every key of every nested object of a base config, misspelt, and one
# unknown key added to each nested object
MISSPELT = [
    (base, path, key, new)
    for base in sorted(BASES)
    for path, keys in _objects(BASES[base])
    for key, new in [*((k, _misspelt(k)) for k in keys), (None, "bogus_key")]
]


@pytest.mark.parametrize("base,path,key,new", MISSPELT)
def test_misspelt_nested_key_exits_1_naming_it(base, path, key, new):
    doc = _base(base)
    owner = doc
    for part in path.split("."):
        owner = owner[part]
    owner[new] = owner.pop(key) if key is not None else 1
    code, err = _run(doc)
    assert code == 1
    assert f"usage error: {path}.{new}: unknown field" in err, err


@pytest.mark.parametrize("base,path,obj,key", [
    # the field that picks the keys is absent: its default picks them
    ("shmem_replay", "params.schedule", {"name": "always_max_stale"}, "name"),  # a random schedule
    ("measure_run", "params.mu0", {"probs": [0.2, 0.3, 0.5]}, "probs"),  # a point mass
    ("coupled", "delay", {"params": {"latency": 3.0}}, "params.latency"),  # fifo_random
])
def test_key_of_a_type_left_to_its_default_exits_1(base, path, obj, key):
    code, err = _run(_with(base, path, obj))
    assert code == 1
    assert f"usage error: {path}.{key}: unknown field" in err, err
