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
resolves.
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
