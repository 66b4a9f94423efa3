"""Repo-wide pytest configuration.

Adds two shared options:

* ``--jobs N`` — sweeps, and anything else that resolves its
  worker count through :class:`repro.runtime.RunOptions`, fan out to
  that many worker processes (it sets ``REPRO_JOBS`` for the session).
  Results are byte-identical at any job count; only the wall-clock
  changes.
* ``--protocol NAME`` — the coherence engine the engine-agnostic
  end-to-end tests build their machines with, through the ``engine``
  fixture (default ``mgs``; the CI protocol-matrix job re-runs them
  under the rival engines).
"""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for repro sweeps (sets REPRO_JOBS; 0 = all cores)",
    )
    parser.addoption(
        "--protocol",
        default="mgs",
        metavar="NAME",
        help="coherence engine for the engine-agnostic tests (default: mgs)",
    )


def pytest_configure(config):
    jobs = config.getoption("--jobs")
    if jobs is not None:
        os.environ["REPRO_JOBS"] = str(jobs)


@pytest.fixture(scope="session")
def engine(request):
    """The ``--protocol`` engine name, for ``MachineConfig(protocol=...)``."""
    return request.config.getoption("--protocol")
