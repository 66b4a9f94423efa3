"""Determinism lint: a custom AST pass over ``src/repro``.

The run cache (PR 4) and the golden-equivalence suite both depend on
simulations being bit-for-bit deterministic.  This pass statically
enforces the source-level rules that determinism silently rests on:

* ``unseeded-random`` — the stdlib ``random`` module is banned
  everywhere (its global state is process-wide and unseeded by default);
  simulation code uses ``numpy.random.default_rng(seed)``.
* ``wall-clock`` — ``time.time()`` / ``perf_counter()`` / ``datetime.now()``
  and friends are banned outside ``bench/`` (whose job *is* wall-clock
  measurement): simulated time comes from the event queue only.
* ``id-order`` — ``id()`` is banned in protocol-order-sensitive modules:
  CPython object addresses vary run to run, so ``id()``-keyed maps or
  sort keys reorder protocol events nondeterministically.
* ``set-iteration`` — iterating a ``set`` (or passing one to ``iter`` /
  ``list`` / ``tuple`` / ``enumerate``) in protocol-order-sensitive
  modules is banned unless wrapped in ``sorted`` / ``min`` / ``max``:
  set iteration order depends on insertion history and hash seeding.
  Size/membership tests (``len``, ``in``, ``any`` over ``sorted``) are
  fine.

Run it as::

    python -m repro.analysis.lint [paths...]   # default: src/repro

Findings print as ``path:line: rule: message``; the exit status is 0
when clean.  CI runs this in the ``analysis`` job.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

__all__ = ["Finding", "lint_paths", "lint_source", "main"]


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


#: modules whose iteration order feeds the simulation event stream
ORDER_SENSITIVE_PARTS = ("core", "protocols", "runtime", "sync", "svm", "hw",
                         "net", "sim", "machine")
ORDER_SENSITIVE_FILES = ("trace.py",)

#: modules allowed to read the wall clock: ``bench`` measures it, and
#: ``serve`` needs real time for rate limiting, ETAs, and job timestamps
#: (neither feeds the simulation event stream)
WALL_CLOCK_EXEMPT_PARTS = ("bench", "serve")

WALL_CLOCK_ATTRS = {
    "time": {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "process_time", "clock"},
    "datetime": {"now", "utcnow", "today"},
}

#: attributes statically known to hold sets (see core/page.py, svm)
SET_ATTRS = {"read_dir", "write_dir", "tlb_dir", "copies"}

#: iterating through these is order-insensitive or deterministic
ORDER_SAFE_WRAPPERS = {"sorted", "min", "max", "len", "sum", "any", "all",
                       "frozenset", "set"}


def _rel_parts(path: Path) -> tuple[str, ...]:
    """Path components below the ``repro`` package root (best effort)."""
    parts = path.parts
    for anchor in ("repro",):
        if anchor in parts:
            return parts[parts.index(anchor) + 1:]
    return parts[-2:]


def _is_order_sensitive(path: Path) -> bool:
    parts = _rel_parts(path)
    if not parts:
        return False
    return parts[0] in ORDER_SENSITIVE_PARTS or (
        len(parts) == 1 and parts[0] in ORDER_SENSITIVE_FILES
    )


def _is_wall_clock_exempt(path: Path) -> bool:
    parts = _rel_parts(path)
    return bool(parts) and parts[0] in WALL_CLOCK_EXEMPT_PARTS


class _SetTypes:
    """One-file inference of which local names are set-valued.

    Deliberately simple: a name assigned from a set display, a set
    comprehension, a ``set()``/``frozenset()`` call, a known set
    attribute, or a binary operation over a set-typed operand is marked.
    Iterated to a fixpoint so chains like ``others = sharers - {pid}``
    resolve.  Scope-insensitive, which is fine for a lint.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.names: set[str] = set()
        assigns: list[tuple[str, ast.expr]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigns.append((target.id, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assigns.append((node.target.id, node.value))
        changed = True
        while changed:
            changed = False
            for name, value in assigns:
                if name not in self.names and self.is_set(value):
                    self.names.add(name)
                    changed = True

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Attribute) and node.attr in SET_ATTRS:
            return True
        if isinstance(node, ast.Name) and node.id in self.names:
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        return False


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: Path, tree: ast.AST) -> None:
        self.path = path
        self.findings: list[Finding] = []
        self.order_sensitive = _is_order_sensitive(path)
        self.wall_clock_ok = _is_wall_clock_exempt(path)
        self.sets = _SetTypes(tree) if self.order_sensitive else None
        #: names imported from the ``time`` module
        self.time_names: set[str] = set()

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(str(self.path), getattr(node, "lineno", 0), rule, message)
        )

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] == "random":
                self.report(
                    node, "unseeded-random",
                    "stdlib random is banned (process-global, unseeded "
                    "state); use numpy.random.default_rng(seed)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".")[0]
        if module == "random":
            self.report(
                node, "unseeded-random",
                "stdlib random is banned (process-global, unseeded "
                "state); use numpy.random.default_rng(seed)",
            )
        if module == "time" and not self.wall_clock_ok:
            for alias in node.names:
                if alias.name in WALL_CLOCK_ATTRS["time"]:
                    self.time_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if not self.wall_clock_ok:
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                banned = WALL_CLOCK_ATTRS.get(func.value.id)
                if banned and func.attr in banned:
                    self.report(
                        node, "wall-clock",
                        f"{func.value.id}.{func.attr}() reads the wall "
                        "clock; simulated time comes from the event queue",
                    )
            elif isinstance(func, ast.Name) and func.id in self.time_names:
                self.report(
                    node, "wall-clock",
                    f"{func.id}() reads the wall clock; simulated time "
                    "comes from the event queue",
                )
        if self.order_sensitive:
            if isinstance(func, ast.Name) and func.id == "id" and node.args:
                self.report(
                    node, "id-order",
                    "id() varies run to run; key on a stable identifier "
                    "(pid, vpn, lock_id) instead",
                )
            if (
                isinstance(func, ast.Name)
                and func.id in ("iter", "list", "tuple", "enumerate")
                and node.args
                and self.sets.is_set(node.args[0])
            ):
                self.report(
                    node, "set-iteration",
                    f"{func.id}() over a set depends on hash order; wrap "
                    "the set in sorted() (or use min()/max())",
                )
        self.generic_visit(node)

    # -- iteration ------------------------------------------------------

    def _check_iter(self, node: ast.AST, iterable: ast.expr) -> None:
        if self.sets is not None and self.sets.is_set(iterable):
            self.report(
                node, "set-iteration",
                "iterating a set depends on hash order; wrap it in "
                "sorted()",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iter(node, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


def lint_source(path: Path, source: str) -> list[Finding]:
    """Lint one file's source text."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(str(path), exc.lineno or 0, "syntax", str(exc))]
    linter = _FileLinter(path, tree)
    linter.visit(tree)
    return linter.findings


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def _python_files(paths: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def lint_paths(paths: Iterable[Path]) -> list[Finding]:
    """Lint files and directories."""
    findings = [
        finding
        for path in _python_files(paths)
        for finding in lint_source(path, path.read_text())
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    roots = [Path(a) for a in args] or [Path("src/repro")]
    missing = [str(r) for r in roots if not r.exists()]
    if missing:
        print(f"lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = lint_paths(roots)
    for finding in findings:
        print(finding.render())
    nfiles = len(_python_files(roots))
    if findings:
        print(f"lint: {len(findings)} finding(s) in {nfiles} file(s)")
        return 1
    print(f"lint: {nfiles} file(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
