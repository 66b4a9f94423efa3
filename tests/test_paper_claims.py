"""The paper's conclusions, checked against the committed ``results/``.

Each figure benchmark asserts its own app's claim when it regenerates
its figure.  What no single figure can assert is the ordering *across*
them: the paper's measurements rank the applications by how much
breaking one shared-memory machine into software-coherent SSMPs costs
them (TSP 2270%, Water 322%, Barnes-Hut 161%, Jacobi 16%, Matmul 0%),
and that ranking is the multigrain argument.  This module reads the
``breakup penalty`` row of each committed figure (the drift gate keeps
those files equal to what the code produces) and asserts the ranking.
"""

import csv
import re
from pathlib import Path

import pytest

from repro.metrics import breakup_penalty

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


@pytest.mark.parametrize("app", FIGURES)
def test_printed_penalty_matches_the_csv(app):
    """The printed row is ``T(P/2)/T(P) - 1`` of the figure's own sweep."""
    stem = FIGURES[app]
    with open(RESULTS / f"{stem}.csv", newline="") as f:
        times = {
            int(row["cluster_size"]): int(row["total_time"])
            for row in csv.DictReader(f)
        }
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
