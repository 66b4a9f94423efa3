"""``RunOptions.from_env``: every ``REPRO_*`` variable, one vocabulary.

Table-driven: each boolean variable accepts the same true/false
spellings, every malformed value warns and keeps the default, and each
precedence rule has its own row.  The end-to-end effect of each
variable (a runtime's fast paths, replay, the run cache, the worker
count, the problem scale) is pinned next to the code it drives:
``test_fastpath.py``, ``test_replay.py``, ``test_cache.py``,
``test_parallel.py`` and ``test_scale.py``.
"""

import os
import warnings
from pathlib import Path

import pytest

from repro.apps import jacobi
from repro.bench import run_sweep
from repro.params import MachineConfig
from repro.runtime import RunOptions, Runtime

TRUE = ["1", "true", "yes", "on", "TRUE", " Yes ", "On"]
FALSE = ["0", "false", "no", "off", "FALSE", " No ", "Off"]

DEFAULT_DIR = Path(".repro_cache")

#: boolean variable -> (field, value when true, value when false)
BOOLEANS = {
    "REPRO_NO_FASTPATH": ("fastpath", False, True),
    "REPRO_NO_REPLAY": ("replay", False, True),
    "REPRO_CACHE": ("run_cache", DEFAULT_DIR, None),
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Start every row from an environment with no ``REPRO_*`` setting."""
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        monkeypatch.delenv(var)


def _resolve(env: dict, monkeypatch) -> RunOptions:
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a well-formed value never warns
        return RunOptions.from_env()


def test_no_variables_means_the_defaults():
    assert RunOptions.from_env() == RunOptions()


@pytest.mark.parametrize("var", sorted(BOOLEANS))
@pytest.mark.parametrize("raw", TRUE)
def test_true_spellings(var, raw, monkeypatch):
    field, when_true, _ = BOOLEANS[var]
    assert getattr(_resolve({var: raw}, monkeypatch), field) == when_true


@pytest.mark.parametrize("var", sorted(BOOLEANS))
@pytest.mark.parametrize("raw", FALSE)
def test_false_spellings(var, raw, monkeypatch):
    field, _, when_false = BOOLEANS[var]
    assert getattr(_resolve({var: raw}, monkeypatch), field) == when_false


@pytest.mark.parametrize(
    "var, raw",
    [(var, "banana") for var in sorted(BOOLEANS)]
    + [("REPRO_NO_FASTPATH", "2"), ("REPRO_JOBS", "many"), ("REPRO_SCALE", "1.5")],
)
def test_malformed_value_warns_and_keeps_the_default(var, raw, monkeypatch):
    monkeypatch.setenv(var, raw)
    with pytest.warns(RuntimeWarning, match=f"malformed {var}="):
        assert RunOptions.from_env() == RunOptions()


#: (environment, expected fields) — one row per resolution rule
RULES = [
    # REPRO_CACHE=0 beats REPRO_CACHE_DIR
    ({"REPRO_CACHE": "0", "REPRO_CACHE_DIR": "cc"}, {"run_cache": None}),
    # a directory alone turns the run cache on
    ({"REPRO_CACHE_DIR": "cc"}, {"run_cache": Path("cc")}),
    # REPRO_CACHE=1 uses REPRO_CACHE_DIR when it is set
    ({"REPRO_CACHE": "1", "REPRO_CACHE_DIR": "cc"}, {"run_cache": Path("cc")}),
    # the switches are independent of each other
    ({"REPRO_NO_REPLAY": "1", "REPRO_CACHE_DIR": "cc"},
     {"replay": False, "fastpath": True, "run_cache": Path("cc")}),
    ({"REPRO_NO_FASTPATH": "1", "REPRO_CACHE": "0"},
     {"fastpath": False, "replay": True, "run_cache": None}),
    # counts: REPRO_JOBS=0 is "all cores", REPRO_SCALE clamps at 1
    ({"REPRO_JOBS": "3"}, {"jobs": 3}),
    ({"REPRO_JOBS": "0"}, {"jobs": 0}),
    ({"REPRO_SCALE": "2"}, {"scale": 2}),
    ({"REPRO_SCALE": "-3"}, {"scale": 1}),
    # empty means unset
    ({"REPRO_NO_REPLAY": "", "REPRO_CACHE_DIR": ""},
     {"replay": True, "run_cache": None}),
    ({"REPRO_CACHE": "1", "REPRO_CACHE_DIR": ""}, {"run_cache": DEFAULT_DIR}),
    ({"REPRO_NO_FASTPATH": "", "REPRO_JOBS": "", "REPRO_SCALE": ""},
     {"fastpath": True, "jobs": 1, "scale": 1}),
]


@pytest.mark.parametrize("env, want", RULES)
def test_resolution_rules(env, want, monkeypatch):
    got = _resolve(env, monkeypatch)
    assert {field: getattr(got, field) for field in want} == want


def test_overrides_beat_the_environment_through_the_same_rules(monkeypatch):
    monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", "cc")
    off = RunOptions.from_env()
    assert not off.replay and off.run_cache == Path("cc")
    # REPRO_CACHE=0 from the overrides beats REPRO_CACHE_DIR from the
    # environment, exactly as if both came from the environment
    on = RunOptions.from_env({"REPRO_NO_REPLAY": "0", "REPRO_CACHE": "0"})
    assert on.replay and on.run_cache is None
    assert os.environ["REPRO_NO_REPLAY"] == "1"  # the environment is untouched


def test_repro_protocol_no_longer_selects_the_engine(monkeypatch):
    """The engine is configuration, so it is never read from the
    environment: a sweep's label is the engine every point ran."""
    monkeypatch.setenv("REPRO_PROTOCOL", "swdsm")
    assert MachineConfig().protocol == "mgs"
    ran = []
    hook = lambda rt: ran.append(rt.config.protocol)  # noqa: E731
    Runtime.construction_hooks.append(hook)
    try:
        sweep = run_sweep(
            jacobi,
            params=jacobi.JacobiParams(n=16, iterations=2),
            total_processors=4,
            jobs=1,
            cache=False,
        )
    finally:
        Runtime.construction_hooks.remove(hook)
    assert len(ran) == len(sweep.points)
    assert set(ran) == {sweep.protocol} == {"mgs"}
