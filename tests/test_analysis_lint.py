"""The determinism lint: each rule, its scoping, and the live tree.

Rule tests write little files under a fabricated ``repro/`` package
root (the linter scopes rules by path: ``core``/``runtime``/... are
protocol-order-sensitive, ``bench`` may read the wall clock) and assert
on the findings.  The final test pins that ``src/repro`` itself is
clean — the same check CI's ``analysis`` job enforces.
"""

from pathlib import Path

from repro.analysis.lint import lint_paths, lint_source, main

REPO = Path(__file__).resolve().parent.parent


def findings_for(tmp_path, rel, source):
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_source(path, source)


def rules(findings):
    return [f.rule for f in findings]


class TestUnseededRandom:
    def test_import_random_flagged_everywhere(self, tmp_path):
        for rel in ("apps/x.py", "core/x.py", "bench/x.py"):
            assert rules(findings_for(tmp_path, rel, "import random\n")) == [
                "unseeded-random"
            ], rel

    def test_from_random_flagged(self, tmp_path):
        found = findings_for(tmp_path, "apps/x.py", "from random import shuffle\n")
        assert rules(found) == ["unseeded-random"]

    def test_numpy_rng_is_fine(self, tmp_path):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert findings_for(tmp_path, "apps/x.py", source) == []


class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        source = "import time\nt = time.time()\n"
        assert rules(findings_for(tmp_path, "core/x.py", source)) == [
            "wall-clock"
        ]

    def test_perf_counter_from_import_flagged(self, tmp_path):
        source = "from time import perf_counter\nt = perf_counter()\n"
        assert rules(findings_for(tmp_path, "runtime/x.py", source)) == [
            "wall-clock"
        ]

    def test_datetime_now_flagged(self, tmp_path):
        source = "import datetime\nd = datetime.now()\n"
        assert rules(findings_for(tmp_path, "apps/x.py", source)) == [
            "wall-clock"
        ]

    def test_bench_may_measure_wall_clock(self, tmp_path):
        source = "import time\nt = time.perf_counter()\n"
        assert findings_for(tmp_path, "bench/x.py", source) == []

    def test_sim_time_attribute_is_fine(self, tmp_path):
        source = "now = sim.now\nt = thread.time\n"
        assert findings_for(tmp_path, "core/x.py", source) == []


class TestIdOrder:
    def test_id_flagged_in_order_sensitive_code(self, tmp_path):
        source = "keys = {id(frame): 1}\n"
        assert rules(findings_for(tmp_path, "core/x.py", source)) == ["id-order"]

    def test_id_allowed_elsewhere(self, tmp_path):
        source = "keys = {id(frame): 1}\n"
        assert findings_for(tmp_path, "apps/x.py", source) == []

    def test_event_heap_and_message_substrate_are_in_scope(self, tmp_path):
        # sim/ and machine/ are packages: the event heap and the message
        # substrate feed the event stream like the engines do.
        source = "keys = {id(frame): 1}\nfor c in home.write_dir:\n    go(c)\n"
        for rel in ("sim/engine.py", "machine/machine.py"):
            assert rules(findings_for(tmp_path, rel, source)) == [
                "id-order", "set-iteration"
            ], rel


class TestSetIteration:
    def test_for_over_set_attr_flagged(self, tmp_path):
        source = "for c in home.write_dir:\n    go(c)\n"
        assert rules(findings_for(tmp_path, "core/x.py", source)) == [
            "set-iteration"
        ]

    def test_iter_call_flagged(self, tmp_path):
        source = "s = {1, 2}\nx = next(iter(s))\n"
        assert rules(findings_for(tmp_path, "sync/x.py", source)) == [
            "set-iteration"
        ]

    def test_inferred_set_chain_flagged(self, tmp_path):
        source = "others = sharers - {pid}\nfor o in others:\n    go(o)\n"
        assert rules(findings_for(tmp_path, "hw/x.py", source)) == [
            "set-iteration"
        ]

    def test_comprehension_over_set_flagged(self, tmp_path):
        source = "s = set()\nout = [x for x in s]\n"
        assert rules(findings_for(tmp_path, "svm/x.py", source)) == [
            "set-iteration"
        ]

    def test_sorted_and_min_are_fine(self, tmp_path):
        source = (
            "s = {1, 2}\n"
            "for x in sorted(s):\n    go(x)\n"
            "lo = min(s)\n"
            "n = len(s)\n"
            "ok = 3 in s\n"
        )
        assert findings_for(tmp_path, "core/x.py", source) == []

    def test_sets_allowed_outside_protocol_code(self, tmp_path):
        source = "s = {1, 2}\nfor x in s:\n    go(x)\n"
        assert findings_for(tmp_path, "apps/x.py", source) == []

    def test_list_iteration_is_fine(self, tmp_path):
        source = "xs = [1, 2]\nfor x in xs:\n    go(x)\n"
        assert findings_for(tmp_path, "core/x.py", source) == []


class TestDriver:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        found = findings_for(tmp_path, "core/x.py", "def broken(:\n")
        assert rules(found) == ["syntax"]

    def test_finding_render_format(self, tmp_path):
        (finding,) = findings_for(tmp_path, "core/x.py", "import random\n")
        rendered = finding.render()
        assert rendered.endswith(
            "x.py:1: unseeded-random: stdlib random is banned "
            "(process-global, unseeded state); use "
            "numpy.random.default_rng(seed)"
        )

    def test_main_missing_path(self, capsys):
        assert main(["does/not/exist"]) == 2

    def test_main_reports_findings(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core" / "x.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\n")
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "unseeded-random" in out
        assert "1 finding(s)" in out


def test_src_repro_is_clean():
    """The live tree passes its own lint (CI's ``analysis`` job)."""
    findings = lint_paths([REPO / "src" / "repro"])
    assert findings == [], "\n".join(f.render() for f in findings)
