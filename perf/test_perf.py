"""Checks on the benchmark itself: ``python -m pytest perf``."""

import json
import re
import subprocess
import sys

from perf.bench import ROOT, load_spec
from perf.child import WORKLOADS
from perf.compare import verdict
from perf.layers import LAYER_RULES, LAYERS, LayerMap, fold, layer_of

SRC = ROOT / "src" / "repro"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_layer_map_covers_every_source_file_once():
    files = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py"))
    assert files
    for rel in files:
        assert layer_of(rel) in LAYERS, rel
        assert layer_of(rel) not in ("startup", "other"), rel
    for rule in LAYER_RULES:
        assert any(
            rel.startswith(rule) if rule.endswith("/") else rel == rule for rel in files
        ), f"rule {rule!r} matches no file"


def test_layerless_self_time_goes_to_the_calling_layer():
    sim = (str(SRC / "sim" / "engine.py"), 1, "run")
    hw = (str(SRC / "hw" / "coherence.py"), 1, "access")
    stdlib = ("/usr/lib/python3/json/encoder.py", 1, "encode")
    builtin = ("~", 0, "<built-in method builtins.len>")
    c_method = ("~", 0, "<method 'append' of 'list' objects>")
    root = ("/usr/lib/python3/runpy.py", 1, "_run_code")
    stats = {
        sim: (1, 1, 1.0, 5.0, {}),
        hw: (1, 1, 2.0, 4.0, {sim: (1, 1, 2.0, 4.0)}),
        # len: 1 s from sim, 2 s from hw
        builtin: (3, 3, 3.0, 3.0, {sim: (1, 1, 1.0, 1.0), hw: (2, 2, 2.0, 2.0)}),
        # a stdlib function called only from hw, and the C method it calls
        stdlib: (1, 1, 0.5, 0.7, {hw: (1, 1, 0.5, 0.7)}),
        c_method: (1, 1, 0.2, 0.2, {stdlib: (1, 1, 0.2, 0.2)}),
        root: (1, 1, 0.1, 9.0, {}),
    }
    layers = fold(stats, LayerMap(SRC))
    assert abs(layers["sim"] - 2.0) < 1e-9
    assert abs(layers["hw"] - 4.7) < 1e-9
    assert abs(layers["other"] - 0.1) < 1e-9
    assert abs(sum(layers.values()) - 6.8) < 1e-9


def test_benchmark_json_follows_the_contract():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["perf"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _quick(tmp_path, trace):
    out = tmp_path / f"report{trace}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "perf", "run", "--quick", "--workload", "compare_warm",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_quick_run_emits_every_named_metric(tmp_path):
    spec = load_spec()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        line = _quick(tmp_path, trace)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in spec[group]}
        for m in spec[group]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert verdict(parent, [x * 1.2 for x in parent], "lower", 0.1) == "worse"
    assert verdict(parent, [x * 0.8 for x in parent], "lower", 0.1) == "better"
    assert verdict(parent, [x * 0.8 for x in parent], "higher", 0.1) == "worse"
    assert verdict(parent, list(parent), "lower", 0.1) == "same"
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert verdict(parent, noisy, "lower", 0.1) == "unresolved"
