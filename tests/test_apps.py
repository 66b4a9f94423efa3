"""Application-level integration tests.

Every app is run at several cluster sizes on a smaller machine and must
reproduce its sequential golden output exactly (or to float tolerance) —
this makes each test an end-to-end check of the whole protocol stack.
"""

import pytest

from repro.apps import barnes_hut, jacobi, matmul, tsp, water, water_kernel
from repro.params import MachineConfig

P = 8
CLUSTER_SIZES = [1, 2, 4, 8]


@pytest.fixture
def config_for(engine):
    """``c -> MachineConfig`` on the P-processor machine under ``engine``."""

    def make(c):
        return MachineConfig(total_processors=P, cluster_size=c, protocol=engine)

    return make


@pytest.mark.parametrize("c", CLUSTER_SIZES)
def test_jacobi_valid(c, config_for):
    run = jacobi.run(config_for(c), jacobi.JacobiParams(n=24, iterations=3))
    assert run.valid, f"max_error={run.max_error}"
    assert run.total_time > 0


@pytest.mark.parametrize("c", CLUSTER_SIZES)
def test_matmul_valid(c, config_for):
    run = matmul.run(config_for(c), matmul.MatmulParams(n=12))
    assert run.valid, f"max_error={run.max_error}"


@pytest.mark.parametrize("c", CLUSTER_SIZES)
def test_tsp_finds_optimum(c, config_for):
    run = tsp.run(config_for(c), tsp.TSPParams(ncities=7))
    assert run.valid, (
        f"found {run.aux['optimal_cost'] + run.max_error}, "
        f"optimal {run.aux['optimal_cost']}"
    )


@pytest.mark.parametrize("c", CLUSTER_SIZES)
def test_water_valid(c, config_for):
    run = water.run(config_for(c), water.WaterParams(n_molecules=19, iterations=2))
    assert run.valid, f"max_error={run.max_error}"


@pytest.mark.parametrize("c", CLUSTER_SIZES)
def test_barnes_hut_valid(c, config_for):
    run = barnes_hut.run(
        config_for(c), barnes_hut.BarnesHutParams(n_bodies=24, iterations=2)
    )
    assert run.valid, f"max_error={run.max_error}"
    assert run.aux["root_mass"] == 24.0


@pytest.mark.parametrize("c", CLUSTER_SIZES)
@pytest.mark.parametrize("optimized", [False, True])
def test_water_kernel_valid(c, optimized, config_for):
    run = water_kernel.run(
        config_for(c),
        water_kernel.WaterKernelParams(n_molecules=32, optimized=optimized),
    )
    assert run.valid, f"max_error={run.max_error}"


def test_water_load_imbalance_is_visible(config_for):
    """19 molecules over 8 workers: the first three get 3 molecules, the
    rest 2 — barrier time absorbs the imbalance (section 5.2.1)."""
    run = water.run(config_for(8), water.WaterParams(n_molecules=19, iterations=1))
    bd = run.result.breakdown()
    assert bd["barrier"] > 0


def test_tournament_schedule_covers_all_pairs():
    rounds = water_kernel.tournament_rounds(8)
    assert len(rounds) == 7
    seen = set()
    for rnd in rounds:
        used = set()
        assert len(rnd) == 4
        for a, b in rnd:
            assert a not in used and b not in used
            used.update((a, b))
            seen.add((min(a, b), max(a, b)))
    assert len(seen) == 8 * 7 // 2


def test_kernel_variants_compute_identical_pair_set(config_for):
    import numpy as np

    params_u = water_kernel.WaterKernelParams(n_molecules=32, optimized=False)
    ref = water_kernel.golden(params_u)
    run_u = water_kernel.run(config_for(2), params_u)
    run_o = water_kernel.run(
        config_for(2), water_kernel.WaterKernelParams(n_molecules=32, optimized=True)
    )
    assert run_u.valid and run_o.valid
    assert np.all(np.isfinite(ref))


def test_half_shell_covers_all_pairs_even_n():
    n = 16
    seen = set()
    for i in range(n):
        for j in water_kernel._half_shell(i, n):
            key = (min(i, j), max(i, j))
            assert key not in seen, f"pair {key} duplicated"
            seen.add(key)
    assert len(seen) == n * (n - 1) // 2


def test_tsp_golden_matches_bruteforce():
    import itertools

    params = tsp.TSPParams(ncities=7)
    dist = params.distances()
    best = min(
        sum(dist[a][b] for a, b in zip((0,) + p, p + (0,)))
        for p in itertools.permutations(range(1, 7))
    )
    assert tsp.golden(params) == best


@pytest.mark.parametrize(
    "golden, params",
    [
        (jacobi.golden, jacobi.JacobiParams(n=24, iterations=3)),
        (matmul.golden, matmul.MatmulParams(n=12)),
        (water.golden, water.WaterParams(n_molecules=9, iterations=1)),
        (water_kernel.golden, water_kernel.WaterKernelParams(n_molecules=16)),
        (barnes_hut.golden, barnes_hut.BarnesHutParams(n_bodies=12, iterations=1)),
    ],
)
def test_golden_is_memoized_and_read_only(golden, params):
    """Each sweep point shares one sequential reference per ``params``,
    so the shared arrays must refuse writes."""
    ref = golden(params)
    assert golden(params) is ref
    arrays = ref if isinstance(ref, tuple) else (ref,)
    for arr in arrays:
        if hasattr(arr, "flags"):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.ravel()[0] = 1.0
