"""The paper's application suite (Table 4).

Six workloads, each a faithful scaled-down port that preserves the
sharing pattern the paper analyzes:

* :mod:`repro.apps.jacobi` — 2-D grid relaxation (coarse-grain phases).
* :mod:`repro.apps.matmul` — dense matrix multiply (embarrassingly
  parallel, read-shared operand).
* :mod:`repro.apps.tsp` — branch-and-bound with a centralized work queue
  (lock bottleneck + false sharing in the path-element pool).
* :mod:`repro.apps.water` — n-squared molecular dynamics (linear access
  to a distributed molecule array, per-molecule locks, global statistics).
* :mod:`repro.apps.barnes_hut` — hierarchical n-body (parallel tree
  build with per-node locks, read-only force traversal).
* :mod:`repro.apps.water_kernel` — the Water force kernel, plain and
  with the paper's multigrain-locality loop transformation (Figure 12).

Plus one synthetic workload outside Table 4:

* :mod:`repro.apps.scanphase` — repeated read-only sweep phases, the
  phase-replay engine's showcase (see ``docs/PERFORMANCE.md``).

Every app validates its numerical output against a sequential golden
computation, turning each run into an end-to-end protocol correctness
check.
"""

from repro.apps import (
    barnes_hut,
    jacobi,
    matmul,
    scanphase,
    tsp,
    water,
    water_kernel,
)
from repro.apps.common import AppRun

ALL_APPS = {
    "jacobi": jacobi,
    "matmul": matmul,
    "tsp": tsp,
    "water": water,
    "barnes-hut": barnes_hut,
    "water-kernel": water_kernel,
    "scanphase": scanphase,
}

#: workloads of ours, not the paper's — excluded from Table 4 coverage
SYNTHETIC_APPS = frozenset({"scanphase"})


def default_params(module):
    """The app module's own default parameters, its ``*Params()``
    (e.g. ``JacobiParams()``): what its ``run`` simulates for None."""
    for name in module.__all__:
        if name.endswith("Params"):
            return getattr(module, name)()
    raise LookupError(f"{module.__name__} exports no Params dataclass")


__all__ = [
    "AppRun",
    "ALL_APPS",
    "SYNTHETIC_APPS",
    "default_params",
    "jacobi",
    "matmul",
    "tsp",
    "water",
    "barnes_hut",
    "water_kernel",
    "scanphase",
]
