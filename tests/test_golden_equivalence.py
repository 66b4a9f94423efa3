"""Golden cycle-count equivalence for the Figure 6 Jacobi curve.

The typed message bus must be a pure refactor of the hand-wired callback
sends: one simulator event per message, identical labels, identical wire
sizes.  These totals were captured from the pre-bus protocol engines on
the default cost model (8 processors, 32x32 Jacobi, 3 iterations,
1000-cycle inter-SSMP delay) for all three external interconnect models.
Any drift — an extra event, a changed size, a reordered send — shifts
them and fails this test.

The same goldens also pin the fast-path access engine: the default run
uses the fast paths, so the totals above must hold with them on, and
``test_fastpath_and_slow_path_full_state_identical`` compares every
observable — clocks, stats, message flows, final memory — between the
fast and slow engines; ``test_paper_apps_fast_and_slow_full_state_identical``
does the same for every paper app on every registered coherence engine,
and pins the fast run of each against a ``GOLDEN_STATE`` digest.
"""

import numpy as np
import pytest

from repro.apps import barnes_hut, jacobi, matmul, scanphase, tsp, water
from repro.apps.jacobi import JacobiParams
from repro.core.engine import engine_names
from repro.params import MachineConfig, NetworkConfig
from repro.runtime import RunOptions, Runtime
from repro.sim.snapshot import digest
from tests.machine_state import run_state

#: network -> cluster size -> (total_time, inter_ssmp, intra_ssmp msgs)
#: (re-captured when the Jacobi kernel moved to the batched row APIs:
#: whole-row read_block/write_block and one aggregated compute per row —
#: message counts were unchanged, simulated totals shifted slightly).
#: ``fixed``, ``bus`` and ``fabric`` name the external model; ``mesh``
#: is the internal 2-D mesh, at 50 cycles a hop so that its hop counts
#: move every total with intra-SSMP traffic between distinct processors
#: (C=2 and C=4), under the fixed external model, captured before
#: ``Machine`` tabulated its routes.
GOLDEN = {
    "fixed": {
        1: (621723, 182, 286),
        2: (593898, 78, 286),
        4: (591843, 26, 286),
        8: (512474, 0, 0),
    },
    "bus": {
        1: (627161, 182, 286),
        2: (603497, 78, 286),
        4: (596738, 26, 286),
        8: (512474, 0, 0),
    },
    "fabric": {
        1: (623643, 182, 286),
        2: (594938, 78, 286),
        4: (592867, 26, 286),
        8: (512474, 0, 0),
    },
    "mesh": {
        1: (621723, 182, 286),
        2: (593969, 78, 286),
        4: (592014, 26, 286),
        8: (512474, 0, 0),
    },
}

#: the ``NetworkConfig`` behind each ``GOLDEN`` row
NETWORKS = {
    "fixed": NetworkConfig(),
    "bus": NetworkConfig(external="bus"),
    "fabric": NetworkConfig(external="fabric"),
    "mesh": NetworkConfig(internal="mesh", mesh_hop_latency=50),
}


@pytest.mark.parametrize("network", sorted(GOLDEN))
def test_jacobi_figure6_curve_is_bit_for_bit(network):
    for cluster_size, expected in GOLDEN[network].items():
        config = MachineConfig(
            total_processors=8,
            cluster_size=cluster_size,
            network=NETWORKS[network],
        )
        run = jacobi.run(config, JacobiParams(n=32, iterations=3))
        run.require_valid()
        measured = (
            run.result.total_time,
            run.result.messages_inter_ssmp,
            run.result.messages_intra_ssmp,
        )
        assert measured == expected, (
            f"{network} C={cluster_size}: {measured} != golden {expected}"
        )


def _full_state(fastpath: bool):
    config = MachineConfig(total_processors=8, cluster_size=2)
    rt = Runtime(config, options=RunOptions(fastpath=fastpath))
    final = jacobi.build(rt, JacobiParams(n=32, iterations=3))
    result = rt.run()
    return {**run_state(rt, result), "grid": final.snapshot().tolist()}


def test_fastpath_and_slow_path_full_state_identical():
    fast = _full_state(True)
    slow = _full_state(False)
    for key in fast:
        assert fast[key] == slow[key], f"fastpath changed {key}"


#: tiny instances of every paper app: matmul and scanphase are the
#: read_many callers, water the small-block write_block caller
PAPER_APPS = {
    "jacobi": (jacobi, JacobiParams(n=32, iterations=3)),
    "matmul": (matmul, matmul.MatmulParams(n=12)),
    "tsp": (tsp, tsp.TSPParams(ncities=6)),
    "water": (water, water.WaterParams(n_molecules=19, iterations=2)),
    "barnes_hut": (
        barnes_hut,
        barnes_hut.BarnesHutParams(n_bodies=24, iterations=2),
    ),
    "scanphase": (
        scanphase,
        scanphase.ScanPhaseParams(words=256, phases=3, window=16, chunk=8),
    ),
}


def _app_state(module, params, engine: str, fastpath: bool) -> dict:
    # Replay off, so every phase runs through the Env access paths.
    config = MachineConfig(total_processors=4, cluster_size=2, protocol=engine)
    options = RunOptions(fastpath=fastpath, replay=False)
    rt = Runtime(config, options=options)
    final = module.build(rt, params)
    state = run_state(rt, rt.run())
    snapshot = getattr(final, "snapshot", None)
    if snapshot is not None:
        state["output"] = np.asarray(snapshot()).tolist()
    return state


def _plain(value):
    """``value`` with every numpy scalar or array turned into plain
    Python, so that a digest of its ``repr`` cannot move with numpy's
    scalar formatting."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    return value


#: engine -> app -> ``digest`` of the fast run's full state (the
#: ``_app_state`` dict, made plain): every cycle count, stat, message
#: flow and the end-of-run machine snapshot of each engine on each
#: paper app.  Any change in simulated behaviour moves one of these.
GOLDEN_STATE = {
    "gcs": {
        "barnes_hut": "2bb230d5d3ab48620a4196bc2aae95c5",
        "jacobi": "a4d3fe248c6d36ae4b611023e3fad51b",
        "matmul": "ce3d51f0993ad90ed48e091e27dc72e7",
        "scanphase": "e0d1c13d1e2048cb61709bbf32bdeffc",
        "tsp": "3672f363acb39afcd5ef47ce4778937f",
        "water": "8182b0995e8e9de1ae16181d75233747",
    },
    "mgs": {
        "barnes_hut": "5214f0d5c938d4c874f5e8dde2d3025e",
        "jacobi": "e7e928a45b77dd5af2079037dde662b8",
        "matmul": "e5f4b284ac9d9592e0cb74e2b27dcf30",
        "scanphase": "c6b72b416b7951c898451400a5ac0b6b",
        "tsp": "0a4bfc3b7cdf0041d7e506e9f1babb3d",
        "water": "ebcc86c7172b5667612a0a437284f2b0",
    },
    "sc_pages": {
        "barnes_hut": "8a8433433a1f1c8ffc03d69b8fd78012",
        "jacobi": "3ac90cc79c3ce13db172628bc496f19b",
        "matmul": "13d6fc7afc69860be2c03bbfd0bf9a40",
        "scanphase": "7990ec87f6703a414a1cb598d1366f74",
        "tsp": "c676cc2c6370bbf8a355c88feafa5571",
        "water": "e7f45e0b927408b2681167201b32ad93",
    },
    "swdsm": {
        "barnes_hut": "320405f53ce6faa3cca18c7c6d0e1875",
        "jacobi": "8e023a146d9517578c57399113a4c1ef",
        "matmul": "eda4ba5c7ad7d92d2e235a7a81169c6e",
        "scanphase": "9b983a6f496a42a486f792ac55d8623c",
        "tsp": "954aa0357a552cdbc50df5705ca7970b",
        "water": "199e4497d374e8412bf06e25a5c19d2c",
    },
}


@pytest.mark.parametrize("app", sorted(PAPER_APPS))
@pytest.mark.parametrize("engine", engine_names())
def test_paper_apps_fast_and_slow_full_state_identical(app, engine):
    module, params = PAPER_APPS[app]
    fast = _app_state(module, params, engine, fastpath=True)
    slow = _app_state(module, params, engine, fastpath=False)
    for key in fast:
        assert fast[key] == slow[key], f"{engine}/{app}: fastpath changed {key}"
    assert digest(_plain(fast)) == GOLDEN_STATE[engine][app], (
        f"{engine}/{app}: full run state moved from its golden digest"
    )


def test_barnes_hut_float_golden_matches_simulated_run():
    """The plain-float sequential reference lands on the simulated
    positions to rounding, far inside the app's 1e-6 validity bound."""
    _, params = PAPER_APPS["barnes_hut"]
    config = MachineConfig(total_processors=4, cluster_size=2)
    run = barnes_hut.run(config, params, options=RunOptions(replay=False))
    assert run.valid
    assert run.max_error < 1e-12
