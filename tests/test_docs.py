"""The docs cite only files that exist, and list the settings the code reads.

Every backticked file name (``*.py``, ``.md``, ``.json``, ``.txt``,
``.csv``, ``.yml``, ``.toml``) in README.md, DESIGN.md, EXPERIMENTS.md
and ``docs/*.md`` must resolve:

* a path (a token with ``/``) from the repo root, ``src/`` or
  ``src/repro/``; a glob must match at least one file;
* a bare name when some tracked file has that name;
* or be one of the files the program writes at run time
  (:data:`RUNTIME_FILES`).

CHANGES.md and ROADMAP.md hold history and plans, so they may name
files that are gone or not yet written.

The ``REPRO_*`` variables of the Settings table in
``docs/PERFORMANCE.md`` are exactly those ``runtime/options.py``
resolves, ANALYSIS's lint-scope table is ``analysis/lint.py``'s scope
constants, and PROTOCOL's message table is ``core/messages.py``'s Table
2 classes.
"""

import ast
import fnmatch
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md")
)

#: paths resolve against these directories, in order
BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")

#: files the program writes at run time, which no checkout holds: the
#: serve daemon's persisted queue, a content-store entry's layout and
#: the perf smoke's report
RUNTIME_FILES = {
    "serve_queue.json",
    "root/key[:2]/key.json",
    "BENCH_perfsmoke.new.json",
}

_CITED = re.compile(r"`([^`\s]+\.(?:py|md|json|txt|csv|yml|toml))`")


def _tracked_names() -> set[str]:
    out = subprocess.run(
        ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True
    ).stdout
    if not out:
        pytest.skip("not a git checkout")
    return {Path(line).name for line in out.splitlines()}


def _resolves(token: str, names: set[str]) -> bool:
    if token in RUNTIME_FILES:
        return True
    if "/" not in token:
        return bool(fnmatch.filter(names, token))
    return any(
        any(base.glob(token)) if "*" in token else (base / token).exists()
        for base in BASES
    )


def test_docs_cite_only_existing_paths():
    names = _tracked_names()
    stale = [
        f"{doc}: {token}"
        for doc in DOCS
        for token in sorted(set(_CITED.findall((ROOT / doc).read_text())))
        if not _resolves(token, names)
    ]
    assert not stale, "docs cite paths that do not exist:\n" + "\n".join(stale)


def test_a_stale_path_is_caught():
    names = _tracked_names()
    assert _resolves("repro/protocols/__init__.py", names)
    assert _resolves("results/*.txt", names)
    assert _resolves("*.py", names)
    assert not _resolves("repro.protocols/__init__.py", names)
    assert not _resolves("tests/test_no_such_file.py", names)
    assert not _resolves("no_such_file.md", names)


# ---------------------------------------------------------------------------
# the Settings table
# ---------------------------------------------------------------------------

_SETTING = re.compile(r"^REPRO_[A-Z_]+$")


def _table_settings(doc: str) -> set[str]:
    """The variables of the table under ``## Settings``, one per row."""
    section = doc.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.MULTILINE))


def _resolved_settings() -> set[str]:
    """The ``REPRO_*`` names ``runtime/options.py`` passes to a call."""
    tree = ast.parse((ROOT / "src/repro/runtime/options.py").read_text())
    return {
        arg.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for arg in node.args
        if isinstance(arg, ast.Constant)
        and isinstance(arg.value, str)
        and _SETTING.match(arg.value)
    }


def test_settings_table_lists_what_the_code_resolves():
    doc = (ROOT / "docs/PERFORMANCE.md").read_text()
    resolved = _resolved_settings()
    assert len(resolved) >= 6
    assert _table_settings(doc) == resolved


def test_a_planted_setting_is_caught():
    doc = (ROOT / "docs/PERFORMANCE.md").read_text()
    row = "| `REPRO_JOBS` |"
    assert row in doc
    planted = doc.replace(row, "| `REPRO_NO_SUCH` | — | — | — | — |\n" + row, 1)
    assert _table_settings(planted) - _resolved_settings() == {"REPRO_NO_SUCH"}
    dropped = "\n".join(
        line for line in doc.splitlines() if not line.startswith(row)
    )
    assert _resolved_settings() - _table_settings(dropped) == {"REPRO_JOBS"}


# ---------------------------------------------------------------------------
# ANALYSIS's determinism-lint table
# ---------------------------------------------------------------------------

#: the Scope cell's wording for the modules the order rules police
ORDER_SCOPE = "protocol-order-sensitive modules"


def _lint_scope_mismatches(doc: str) -> list[str]:
    """The rules of ANALYSIS's section 3 table whose Scope cell
    disagrees with ``analysis/lint.py``."""
    from repro.analysis.lint import (
        ORDER_SENSITIVE_FILES,
        ORDER_SENSITIVE_PARTS,
        WALL_CLOCK_EXEMPT_PARTS,
    )

    section = doc.split("\n## 3. ", 1)[1].split("\n## ", 1)[0]
    cells = dict(re.findall(r"^\| `([a-z-]+)` \| ([^|]*) \|", section, re.MULTILINE))
    names = {
        rule: {name.rstrip("/") for name in re.findall(r"`([^`]+)`", cell)}
        for rule, cell in cells.items()
    }
    order = set(ORDER_SENSITIVE_PARTS) | set(ORDER_SENSITIVE_FILES)
    checks = {
        "id-order": names["id-order"] == order,
        "set-iteration": names["set-iteration"] <= order,  # "the same modules"
        "wall-clock": names["wall-clock"] == set(WALL_CLOCK_EXEMPT_PARTS),
    }
    return [
        rule for rule, ok in checks.items()
        if not ok or (rule != "wall-clock" and not cells[rule].startswith(ORDER_SCOPE))
    ]


def test_lint_table_scopes_are_the_lints():
    """The ``id-order`` and ``set-iteration`` rows police
    ``ORDER_SENSITIVE_PARTS`` plus ``ORDER_SENSITIVE_FILES``, and the
    ``wall-clock`` row exempts exactly ``WALL_CLOCK_EXEMPT_PARTS``."""
    assert _lint_scope_mismatches((ROOT / "docs/ANALYSIS.md").read_text()) == []


def test_a_planted_lint_scope_is_caught():
    doc = (ROOT / "docs/ANALYSIS.md").read_text()
    listed = "`machine`, `trace.py`)"
    exempt = "everywhere except `bench/` and `serve/`"
    assert listed in doc and exempt in doc
    for planted, rule in [
        (doc.replace(listed, "`machine`, `bench`, `trace.py`)", 1), "id-order"),
        (doc.replace(listed, "`trace.py`)", 1), "id-order"),
        (doc.replace(exempt, "everywhere except `bench/`", 1), "wall-clock"),
        (doc.replace(exempt, exempt + ", `apps/`", 1), "wall-clock"),
    ]:
        assert _lint_scope_mismatches(planted) == [rule]


# ---------------------------------------------------------------------------
# PROTOCOL's Table 2 message table
# ---------------------------------------------------------------------------


def _message_rows(doc: str) -> list[tuple[str, str, tuple[str, ...]]]:
    """``(class, label, extra fields)`` of each row of PROTOCOL's
    ``Class | Wire label | Extra payload | Purpose`` table."""
    section = doc.split("\n## The message vocabulary", 1)[1].split("\n## ", 1)[0]
    return [
        (name, label, tuple(re.findall(r"`(\w+)`", payload)))
        for name, label, payload in re.findall(
            r"^\| `(\w+)` \| `([^`]+)` \| ([^|]*) \|", section, re.MULTILINE
        )
    ]


def _message_mismatches(doc: str) -> list[str]:
    """``"Class: why"`` for each row that disagrees with
    ``core/messages.py`` and each Table 2 class without a row."""
    import dataclasses

    from repro.core import messages

    base = {f.name for f in dataclasses.fields(messages.ProtocolMessage)}
    rows = _message_rows(doc)
    out = []
    for name, label, payload in rows:
        cls = getattr(messages, name, None)
        if not (isinstance(cls, type) and issubclass(cls, messages.ProtocolMessage)):
            out.append(f"{name}: no such message class")
            continue
        extra = tuple(f.name for f in dataclasses.fields(cls) if f.name not in base)
        if label != cls.label:
            out.append(f"{name}: label {label!r}, the class says {cls.label!r}")
        if payload != extra:
            out.append(f"{name}: payload {payload}, the class carries {extra}")
    listed = [name for name, _, _ in rows]
    out += [f"{name}: {listed.count(name)} rows" for name in sorted(set(listed))
            if listed.count(name) > 1]
    out += [f"{cls.__name__}: no row" for cls in messages.TABLE2_CLASSES.values()
            if cls.__name__ not in listed]
    return out


def test_message_table_is_the_message_classes():
    """Every row's label and extra payload are its class's, and every
    Table 2 class has exactly one row."""
    doc = (ROOT / "docs/PROTOCOL.md").read_text()
    assert len(_message_rows(doc)) >= 16
    assert _message_mismatches(doc) == []


def test_a_planted_message_row_is_caught():
    doc = (ROOT / "docs/PROTOCOL.md").read_text()
    label = "| `Rreq` | `RREQ` |"
    payload = "| `Ack` | `ACK` | `dirty` |"
    row = next(line for line in doc.splitlines() if line.startswith("| `Wnotify` |"))
    assert label in doc and payload in doc
    for planted, culprit in [
        (doc.replace(label, "| `Rreq` | `WREQ` |", 1), "Rreq: label"),
        (doc.replace(payload, "| `Ack` | `ACK` | — |", 1), "Ack: payload"),
        (doc.replace(payload, "| `Ack` | `ACK` | `dirty`, `recall` |", 1),
         "Ack: payload"),
        (doc.replace(row + "\n", "", 1), "Wnotify: no row"),
        (doc.replace(row, row + "\n" + row, 1), "Wnotify: 2 rows"),
        (doc.replace(row, row + "\n| `Wnote` | `WNOTE` | — | x |", 1),
         "Wnote: no such message class"),
    ]:
        (mismatch,) = _message_mismatches(planted)
        assert mismatch.startswith(culprit), mismatch
