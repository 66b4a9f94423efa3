"""The paper's conclusions, checked against the committed ``results/``.

``repro reproduce --all`` writes every file read here, and CI's drift
gate keeps them equal to what the code produces, so each experiment's
claims are asserted on its file; what a file does not hold, its
registry entry's ``check`` asserts.  What no single figure can assert
is the ordering *across* them: the paper's measurements rank the
applications by how much breaking one shared-memory machine into
software-coherent SSMPs costs them (TSP 2270%, Water 322%, Barnes-Hut
161%, Jacobi 16%, Matmul 0%), and that ranking is the multigrain
argument.
"""

import csv
import re
from pathlib import Path

import pytest

from repro.metrics import breakup_penalty, multigrain_potential

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: the paper's breakup-penalty ranking, most to least sensitive; each
#: app's figure files are ``results/<stem>.txt`` and ``.csv``
FIGURES = {
    "tsp": "fig08_tsp",
    "water": "fig09_water",
    "barnes-hut": "fig10_barnes_hut",
    "jacobi": "fig06_jacobi",
    "matmul": "fig07_matmul",
}

#: "a >> b" means at least this many times larger
MUCH_LARGER = 5.0

_ROW = re.compile(r"^\s*breakup penalty\s+(-?\d+)%\s+(-?\d+)%\s*$", re.M)


def _measured_penalty(stem: str) -> float:
    """The measured breakup penalty printed in ``results/<stem>.txt``."""
    text = (RESULTS / f"{stem}.txt").read_text()
    rows = _ROW.findall(text)
    assert len(rows) == 1, f"{stem}.txt: expected one breakup penalty row"
    return int(rows[0][0]) / 100


def _csv_rows(stem: str) -> dict[int, dict[str, str]]:
    """``results/<stem>.csv`` rows keyed by cluster size."""
    with open(RESULTS / f"{stem}.csv", newline="") as f:
        return {int(row["cluster_size"]): row for row in csv.DictReader(f)}


def _csv_times(stem: str) -> dict[int, int]:
    return {c: int(row["total_time"]) for c, row in _csv_rows(stem).items()}


@pytest.mark.parametrize("app", FIGURES)
def test_printed_penalty_matches_the_csv(app):
    """The printed row is ``T(P/2)/T(P) - 1`` of the figure's own sweep."""
    stem = FIGURES[app]
    times = _csv_times(stem)
    total = max(times)
    expected = round(breakup_penalty(times, total) * 100)
    assert round(_measured_penalty(stem) * 100) == expected


def test_breakup_penalty_ordering_across_figures():
    """TSP >> Water > Barnes-Hut >> Jacobi > Matmul, as in the paper."""
    penalties = {app: _measured_penalty(stem) for app, stem in FIGURES.items()}
    tsp, water, bh = penalties["tsp"], penalties["water"], penalties["barnes-hut"]
    jacobi, matmul = penalties["jacobi"], penalties["matmul"]
    assert tsp >= MUCH_LARGER * water, penalties
    assert water > bh, penalties
    assert bh >= MUCH_LARGER * jacobi, penalties
    assert jacobi > matmul, penalties


def test_fig6_jacobi_claims():
    """Jacobi is nearly flat across C, with a small breakup penalty
    (committed 12%, paper 16%)."""
    times = _csv_times("fig06_jacobi")
    assert times[2] / times[16] < 1.6, times
    assert breakup_penalty(times, max(times)) < 0.25, times


def test_fig7_matmul_claims():
    """Matmul is flat across C, with almost no breakup penalty
    (committed 5%, paper 0%)."""
    times = _csv_times("fig07_matmul")
    assert breakup_penalty(times, max(times)) < 0.1, times
    assert times[1] / times[16] < 1.5, times


def test_fig9_water_claims():
    """Water has a clear multigrain potential and improves with C to
    within 5%."""
    times = _csv_times("fig09_water")
    assert multigrain_potential(times, max(times)) > 0.1, times
    sizes = sorted(times)
    assert all(times[a] >= times[b] * 0.95 for a, b in zip(sizes, sizes[1:])), times


def test_fig10_barnes_hut_claims():
    """Barnes-Hut's multigrain potential is the suite's highest (paper
    85%); at C=1 lock and protocol time exceed user time."""
    times = _csv_times("fig10_barnes_hut")
    assert multigrain_potential(times, max(times)) > 0.5, times
    c1 = _csv_rows("fig10_barnes_hut")[1]
    assert int(c1["lock"]) + int(c1["protocol_time"]) > int(c1["user"]), c1


def test_fig8_tsp_claims():
    """TSP is pathological on a DSSMP, lock time dominates, and little
    is gained by the first doubling of C."""
    rows = _csv_rows("fig08_tsp")
    times = _csv_times("fig08_tsp")
    total = max(times)
    assert times[1] / times[total] > 10, times
    assert breakup_penalty(times, total) > 3.0, times
    half = rows[total // 2]
    assert int(half["lock"]) > int(half["user"]), half
    assert times[2] > 0.5 * times[1], times


#: Figure 11's monotonicity slack per app: the saturated TSP queue lock
#: wobbles in the middle range (EXPERIMENTS.md)
LOCK_SLACK = {"tsp": 0.15, "water": 0.05, "barnes-hut": 0.05}

#: Figure 11 prints ratios to two decimals, each within 0.005 of the
#: measured one: a bound between two printed ratios, tightened by this
#: margin, holds for the measured ratios too
PRINTED = 0.01

_LOCK_ROW = re.compile(r"^\s*([a-z-]+)((?:\s+\d\.\d\d)+)\s*$", re.M)


def _lock_hit_rows() -> tuple[list[int], dict[str, list[float]]]:
    """Figure 11's cluster sizes and per-app printed hit ratios."""
    text = (RESULTS / "fig11_lock_hit.txt").read_text()
    sizes = [int(c) for c in re.findall(r"C=(\d+)", text)]
    rows = {
        m.group(1): [float(x) for x in m.group(2).split()]
        for m in _LOCK_ROW.finditer(text)
    }
    assert set(rows) == set(LOCK_SLACK), rows
    assert all(len(ratios) == len(sizes) for ratios in rows.values()), rows
    return sizes, rows


def test_fig11_rows_are_the_figure_sweeps():
    """Figure 11 renders the Figure 8-10 sweeps' lock hit ratios; at
    C = P the lock token never leaves the one SSMP, so every hit ratio
    is exactly 1."""
    sizes, rows = _lock_hit_rows()
    for app, ratios in rows.items():
        csv_rows = _csv_rows(FIGURES[app])
        assert sorted(csv_rows) == sizes
        measured = [float(csv_rows[c]["lock_hit_ratio"]) for c in sizes]
        assert all(
            abs(p - m) <= 0.005 + 1e-9 for p, m in zip(ratios, measured)
        ), (app, ratios, measured)
        assert measured[-1] == 1.0, (app, measured)


def test_fig11_lock_hit_ratio_claims():
    """Each hit ratio rises with cluster size, and Water and Barnes-Hut
    beat TSP at small cluster sizes."""
    sizes, rows = _lock_hit_rows()
    for app, ratios in rows.items():
        slack = LOCK_SLACK[app] - PRINTED
        assert all(b >= a - slack for a, b in zip(ratios, ratios[1:])), (
            f"{app}: hit ratio must increase with cluster size: {ratios}"
        )
        assert ratios[-1] == 1.0, (app, ratios)
    for c in (2, 4):
        i = sizes.index(c)
        tsp = rows["tsp"][i]
        for app in ("water", "barnes-hut"):
            assert rows[app][i] > tsp - 0.05 + PRINTED, (c, app, rows)


_BAR = re.compile(r"^C=\s*(\d+) \|[A-Z ]*\|\s+([\d,]+) cycles$", re.M)


def _fig12_sections() -> list[tuple[dict[int, int], str]]:
    """Figure 12's (untransformed, transformed) sections: each one's
    per-C cycle counts and its text."""
    text = (RESULTS / "fig12_water_kernel.txt").read_text()
    sections = text.split("Figure 12 (loop-transformed)")
    assert len(sections) == 2, "expected an untransformed and a transformed part"
    return [
        ({int(c): int(t.replace(",", "")) for c, t in _BAR.findall(part)}, part)
        for part in sections
    ]


def test_fig12_water_kernel_claims():
    """The loop transformation cuts the breakup penalty more than
    tenfold while a large multigrain potential remains.  Computed from
    the printed cycle counts, which must agree with the printed metric
    rows."""
    penalties, potentials = [], []
    for times, text in _fig12_sections():
        total = max(times)
        assert sorted(times) == [1, 2, 4, 8, 16, 32], times
        penalty = breakup_penalty(times, total)
        rows = _ROW.findall(text)
        assert len(rows) == 1 and int(rows[0][0]) == round(penalty * 100), rows
        penalties.append(penalty)
        potentials.append(multigrain_potential(times, total))
    unopt, opt = penalties
    assert opt < unopt / 10, (opt, unopt)
    assert potentials[1] > 0.4, potentials


_ENGINE_ROW = re.compile(r"^\s*([a-z_]+)((?:\s+[\d,]+ \(\d+\.\d\dx\))+)\s*$", re.M)


def _comparison_tables() -> dict[str, dict[str, dict[int, int]]]:
    """``results/compare_jacobi_water.txt``'s "total cycles by engine"
    tables: app -> engine -> C -> cycles.  Each row must agree with
    that engine's runtime-breakdown bars."""
    text = (RESULTS / "compare_jacobi_water.txt").read_text()
    tables = {}
    for part in text.split("\n\n"):
        head, _, body = part.partition(": total cycles by engine")
        if not body:
            continue
        sizes = [int(c) for c in re.findall(r"C=(\d+)", body.splitlines()[1])]
        tables[head.strip()] = {
            engine: dict(zip(sizes, (
                int(t.replace(",", "")) for t in re.findall(r"([\d,]+) \(", row)
            )))
            for engine, row in _ENGINE_ROW.findall(body)
        }
    assert set(tables) == {"jacobi", "water"}, sorted(tables)
    for app, engines in tables.items():
        assert set(engines) == {"mgs", "swdsm", "sc_pages"}, (app, engines)
        for engine, times in engines.items():
            bars = text.split(f"{app} under {engine} (runtime breakdown)")[1]
            bars = bars.split("legend:")[0]
            assert times == {
                int(c): int(t.replace(",", "")) for c, t in _BAR.findall(bars)
            }, (app, engine)
    return tables


def test_comparison_claims():
    """EXPERIMENTS' reading of the cross-engine comparison.  Jacobi: MGS
    beats page-grain ``swdsm`` at C=32, where the whole machine is one
    SSMP, and ``swdsm`` barely moves with C.  Water: sequential
    consistency (``sc_pages``) loses to ``swdsm`` at C=1 but beats MGS
    from C=4 to 16, and ``swdsm`` falls far behind MGS at C=32.  At
    C=32 both apps run hardware-only under MGS and ``sc_pages``."""
    tables = _comparison_tables()
    jacobi, water = tables["jacobi"], tables["water"]
    assert jacobi["mgs"][32] < jacobi["swdsm"][32], jacobi
    swdsm = jacobi["swdsm"].values()
    assert max(swdsm) / min(swdsm) <= 1.07, jacobi["swdsm"]
    assert water["sc_pages"][1] >= 1.4 * water["swdsm"][1], water
    for c in (4, 8, 16):
        assert water["mgs"][c] >= 1.15 * water["sc_pages"][c], (c, water)
    assert water["swdsm"][32] >= 3.5 * water["mgs"][32], water
    for engines in tables.values():
        assert engines["mgs"][32] == engines["sc_pages"][32], engines


#: the four columns of a runtime breakdown, in bar order
BREAKDOWN = ("user", "lock", "barrier", "protocol_time")


def _shares(stem: str) -> dict[int, dict[str, float]]:
    """Each cluster size's breakdown columns as shares of their sum."""
    out = {}
    for c, row in _csv_rows(stem).items():
        cols = {k: int(row[k]) for k in BREAKDOWN}
        total = sum(cols.values())
        out[c] = {k: v / total for k, v in cols.items()}
    return out


def test_tsp_dssmp_runtime_is_lock_overhead():
    """EXPERIMENTS: 95.7-96.2% of TSP's runtime is lock overhead at
    every C < P (printed to one decimal)."""
    shares = _shares("fig08_tsp")
    total = max(shares)
    for c, share in shares.items():
        if c < total:
            assert 95.7 <= round(share["lock"] * 100, 1) <= 96.2, (c, share)


@pytest.mark.parametrize("app", ["jacobi", "matmul"])
def test_coarse_grain_apps_run_mostly_user_time(app):
    """EXPERIMENTS: Jacobi and Matmul spend at least 78% of their
    breakdown in user time at every C (78.0% and 79.6% at C=1)."""
    shares = _shares(FIGURES[app])
    for c, share in shares.items():
        assert share["user"] >= 0.78, (app, c, share)


@pytest.mark.parametrize("app", ["water", "barnes-hut"])
def test_multigrain_apps_improve_with_every_doubling(app):
    """EXPERIMENTS: Water's and Barnes-Hut's total times fall strictly
    from C=1 to C=P."""
    times = _csv_times(FIGURES[app])
    sizes = sorted(times)
    assert all(times[a] > times[b] for a, b in zip(sizes, sizes[1:])), times


def test_water_wobble_is_barrier_time():
    """EXPERIMENTS: Water's C=16 wobble is in its barrier share, the
    largest at any C, not in its total time."""
    shares = _shares("fig09_water")
    barrier = {c: share["barrier"] for c, share in shares.items()}
    assert max(barrier, key=barrier.get) == 16, barrier


def _table(stem: str) -> list[dict[str, str]]:
    """The rows of the one aligned table in ``results/<stem>.txt``,
    each keyed by its column header."""
    lines = (RESULTS / f"{stem}.txt").read_text().splitlines()
    rule = next(i for i, line in enumerate(lines) if re.fullmatch(r"[- ]*-", line))
    headers = re.split(r"\s{2,}", lines[rule - 1].strip())
    return [
        dict(zip(headers, re.split(r"\s{2,}", line.strip())))
        for line in lines[rule + 1:]
        if line.strip()
    ]


def _int(cell: str) -> int:
    return int(cell.replace(",", ""))


def test_table3_software_costs_are_the_papers():
    """The five simulated operations cost within 2% of the paper's."""
    rows = {row["operation"]: row for row in _table("table3")}
    for op in ("TLB Fill", "Inter-SSMP Read Miss", "Inter-SSMP Write Miss",
               "Release (1 writer)", "Release (2 writers)"):
        measured = _int(rows[op]["measured (cycles)"])
        paper = _int(rows[op]["paper (cycles)"])
        assert abs(measured - paper) / paper < 0.02, (op, measured, paper)


def test_table4_speedups():
    """Every app speeds up on 32 processors, the coarse-grain ones more
    than fivefold, and the hierarchical n-body code least, as in the
    paper (13.8 against 23-30 for the rest).  On the printed speedups,
    which round monotonically, so each bound holds for the measured
    ones too."""
    s32 = {row["app"]: float(row["S32"]) for row in _table("table4")}
    assert all(s > 1.0 for s in s32.values()), s32
    coarse = ("jacobi", "matmul", "water", "water-kernel")
    assert all(s32[app] > 5 for app in coarse), s32
    assert all(s32["barnes-hut"] < s32[app] for app in coarse), s32


def test_ablation_fast_read_clean():
    """Jacobi's remote read-only boundary pages gain from fast cleaning;
    Water's gain is smaller and interleaving shifts perturb it, so it
    only stays within 5%."""
    rows = {row["app"]: row for row in _table("ablation_clean")}
    j, w = rows["jacobi"], rows["water"]
    assert _int(j["fast clean"]) < _int(j["baseline"]), j
    assert _int(w["fast clean"]) <= _int(w["baseline"]) * 1.05, w


def test_ablation_lan_contention():
    """A starved link is ruinous at C=1, where every coherence action
    crosses the LAN; moderate contention tracks the paper's model within
    schedule tolerance."""
    rows = {row["link"]: row for row in _table("ablation_lan")}
    paper, one = rows["none (paper)"], rows["1.0 B/cycle"]
    starved = rows["0.25 B/cycle"]
    for col in ("time C=1", "time C=4"):
        assert _int(starved[col]) > _int(one[col]), col
        assert _int(one[col]) >= _int(paper[col]) * 0.9, col
    assert _int(starved["time C=1"]) > _int(paper["time C=1"]) * 1.2


def test_ablation_latency():
    """Latency hurts monotonically, and hurts the lock-bound app more."""
    rows = _table("ablation_latency")
    jacobi = [_int(row["jacobi"]) for row in rows]
    water = [_int(row["water"]) for row in rows]
    assert jacobi == sorted(jacobi), jacobi
    assert water == sorted(water), water
    assert water[-1] / water[0] > (jacobi[-1] / jacobi[0]) * 0.9, (jacobi, water)


def test_ablation_network():
    """Losses only slow the machine down and are recovered by
    retransmission; contended models report queueing where the paper's
    model reports none."""
    rows = {(row["topology"], row["loss"]): row for row in _table("ablation_network")}
    for topo in ("fixed", "bus", "fabric"):
        clean, lossy = rows[(topo, "0%")], rows[(topo, "10%")]
        assert _int(lossy["time C=1"]) >= _int(clean["time C=1"]), topo
        assert _int(lossy["retransmits"]) > 0, topo
        assert _int(lossy["drops"]) > 0, topo
    assert _int(rows[("fixed", "0%")]["queue cycles"]) == 0
    assert _int(rows[("bus", "0%")]["queue cycles"]) > 0


def test_ablation_page_size_runs_every_page_size():
    rows = _table("ablation_page_size")
    assert [row["page size"] for row in rows] == ["512 B", "1024 B", "4096 B"]
    assert all(_int(row["jacobi"]) > 0 and _int(row["tsp"]) > 0 for row in rows)


def test_ablation_single_writer():
    """The optimization triggers, its retained copy saves refetching the
    page every round, and it pays off end to end."""
    for row in _table("ablation_single_writer"):
        wreq_on, wreq_off = map(int, row["WREQs on/off"].split("/"))
        assert _int(row["1W releases"]) > 0, row
        assert wreq_on < wreq_off, row
        assert _int(row["time (opt on)"]) < _int(row["time (opt off)"]), row
