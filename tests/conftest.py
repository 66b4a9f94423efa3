"""Test configuration: make ``repro`` importable straight from src/.

The package is normally installed with ``pip install -e .`` (or
``python setup.py develop`` in offline environments without the ``wheel``
package); this fallback lets the suite run from a clean checkout too.
"""

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hypothesis import settings  # noqa: E402 - needs src/ on the path

# CI runs every hypothesis suite derandomized: the same inputs every
# run, so a red build is a real regression, never a lucky draw — and
# print_blob repeats the @reproduce_failure recipe on any failure so
# the exact case replays locally.  Opt in locally with
# ``--hypothesis-profile=ci`` or by exporting CI=1.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="module")
def protocol_sanitizer():
    """Attach the invariant sanitizer to every Runtime built in a module.

    Opt in with ``pytestmark = pytest.mark.usefixtures("protocol_sanitizer")``
    (the fuzz/property/race suites do).  Module-scoped so hypothesis does
    not see a function-scoped fixture; the hook is removed afterwards so
    other modules run unobserved.
    """
    from repro.analysis import InvariantSanitizer
    from repro.runtime import Runtime

    sanitizers = []

    def hook(rt):
        sanitizers.append(InvariantSanitizer(rt))

    Runtime.construction_hooks.append(hook)
    try:
        yield sanitizers
    finally:
        Runtime.construction_hooks.remove(hook)


@pytest.fixture
def worker_replay_settings(tmp_path, monkeypatch):
    """Observe ``options.replay`` inside pool workers.

    Installs a construction hook that appends each new Runtime's
    ``options.replay`` to a per-process log.  Fork the pool *after*
    requesting this fixture so its workers inherit the hook.  Returns a
    function that drains the logs into ``{pid: {settings}}`` for every
    process other than this one, which must run nothing.
    """
    from repro.runtime import Runtime

    logs = tmp_path / "replay-settings"
    logs.mkdir()
    parent = os.getpid()

    def hook(rt):
        with open(logs / f"{os.getpid()}.log", "a") as f:
            f.write(f"{rt.options.replay}\n")

    monkeypatch.setattr(Runtime, "construction_hooks", [hook])

    def drain() -> dict[int, set[str]]:
        seen = {}
        for path in logs.glob("*.log"):
            seen[int(path.stem)] = set(path.read_text().split())
            path.unlink()
        assert parent not in seen, "a job ran in the parent, not a worker"
        return seen

    return drain
