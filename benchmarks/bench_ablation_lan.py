"""Ablation: LAN contention (extension of the paper's network model).

Section 4.2.2 models inter-SSMP communication as a fixed latency and
explicitly notes that contention in the LAN and its interface is not
accounted for.  The shared-bus network model
(``NetworkConfig(external="bus", bus_bandwidth=...)``) adds a shared
link: inter-SSMP messages serialize at a configurable byte rate.  The sweep
shows how sensitive DSSMP performance is to that simplification —
especially at small cluster sizes, where every page moves over the LAN.
"""

from conftest import save_report

from repro.apps import water
from repro.bench import render_table
from repro.params import MachineConfig, NetworkConfig

#: bytes/cycle; 0 is the paper's model (the default fixed-latency
#: network).  At 20 MHz, 1 byte/cycle is roughly a 160 Mbit/s link -
#: generous for a mid-90s LAN.
BANDWIDTHS = (0.0, 4.0, 1.0, 0.25)


def _network(bandwidth: float) -> NetworkConfig:
    """The shared bus at ``bandwidth``, or the paper's network for 0."""
    if bandwidth == 0.0:
        return NetworkConfig()
    return NetworkConfig(external="bus", bus_bandwidth=bandwidth)


def _run():
    out = {}
    for bw in BANDWIDTHS:
        results = {}
        for c in (1, 4):
            config = MachineConfig(
                total_processors=16,
                cluster_size=c,
                inter_ssmp_delay=1000,
                network=_network(bw),
            )
            run = water.run(
                config, water.WaterParams(n_molecules=33, iterations=1)
            ).require_valid()
            results[c] = (
                run.total_time,
                run.result.messages_inter_ssmp,
            )
        out[bw] = results
    return out


def test_ablation_lan_contention(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    base = results[0.0]
    rows = []
    for bw, per_c in results.items():
        label = "none (paper)" if bw == 0.0 else f"{bw} B/cycle"
        rows.append(
            [
                label,
                f"{per_c[1][0]:,}",
                f"{per_c[1][0] / base[1][0]:.2f}x",
                f"{per_c[4][0]:,}",
                f"{per_c[4][0] / base[4][0]:.2f}x",
            ]
        )
    save_report(
        "ablation_lan",
        "Ablation: LAN contention model (Water, 16 processors)\n\n"
        + render_table(
            ["link", "time C=1", "vs paper", "time C=4", "vs paper"], rows
        ),
    )
    # A starved link is ruinous at C=1 where every coherence action
    # crosses the LAN.  Moderate contention tracks the paper's model
    # within schedule tolerance: link queueing staggers messages, which
    # can shift Water's release coalescing and lock migration enough to
    # run a few percent *faster* than the uncontended schedule (the
    # time-ordered reservations of repro.net made this visible; the
    # seed's call-order reservations over-queued and masked it).
    for c in (1, 4):
        assert results[0.25][c][0] > results[1.0][c][0]
        assert results[1.0][c][0] >= results[0.0][c][0] * 0.9
    assert results[0.25][1][0] > results[0.0][1][0] * 1.2