"""List the src/ecoc statements that a pytest run never executes.

    PYTHONPATH=src python tools/line_cover.py [PYTEST_ARG ...]

Runs pytest in this process (by default on tests/, quiet) with a trace
function installed by sys.settrace and threading.settrace, so threads that
the tests start are traced too.  A statement's lines are those of its own
code: a simple statement's whole span, a compound statement's header (its
decorators, its test or its target, up to its first body statement).  The
lines that can run are the line numbers of each code object's co_lines, its
nested code objects included; a statement counts as run when any of its
lines that can run was reached.  Statements in an ``if TYPE_CHECKING:``
block or an ``if __name__ == "__main__":`` guard are skipped, since no
test run can reach them in process.  Commands that the tests start in a
subprocess are not traced.

For each module it prints the number of statements and the unrun ones,
one line each as path:line and the statement's first line of source, and
exits with pytest's status.  Tracing roughly doubles the run's time.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecoc"


def code_lines(code) -> set[int]:
    """The line numbers of code's instructions and of its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def _skipped(node: ast.stmt) -> bool:
    """An if whose body no in-process run reaches: TYPE_CHECKING or a
    __main__ guard."""
    if not isinstance(node, ast.If):
        return False
    return ast.unparse(node.test) in (
        "TYPE_CHECKING", "typing.TYPE_CHECKING", "__name__ == '__main__'")


def _own_lines(node: ast.stmt) -> range:
    """The lines of node that are not lines of its body statements."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def statements(tree: ast.Module) -> list[range]:
    """The own lines of each statement outside skipped blocks."""
    out = []

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            out.append(_own_lines(node))
            if _skipped(node):
                visit(node.orelse)
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                visit(handler.body)
            for case in getattr(node, "cases", []):
                visit(case.body)

    visit(tree.body)
    return out


def unrun(path: Path, ran: set[int]) -> tuple[int, list[int]]:
    """The number of statements in path that have a line that can run, and
    the first lines of those none of whose lines ran."""
    source = path.read_text(encoding="utf-8")
    can_run = code_lines(compile(source, str(path), "exec"))
    counted, missed = 0, []
    for lines in statements(ast.parse(source)):
        runnable = can_run.intersection(lines)
        if runnable:
            counted += 1
            if not runnable & ran:
                missed.append(lines.start)
    return counted, missed


class Recorder:
    """Records the lines run in files under PACKAGE, in every thread."""

    def __init__(self):
        self.lines: dict[Path, set[int]] = {}
        self._files: dict[str, set[int] | None] = {}

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._files:
            path = Path(name).resolve()
            inside = PACKAGE in path.parents
            self._files[name] = self.lines.setdefault(path, set()) if inside else None
        lines = self._files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)
        return False


def report(lines: dict[Path, set[int]]) -> list[str]:
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        counted, missed = unrun(path, lines.get(path, set()))
        name = path.relative_to(ROOT).as_posix()
        out.append(f"{name}: {counted} statements, {len(missed)} unrun")
        source = path.read_text(encoding="utf-8").splitlines()
        out += [f"  {name}:{line}  {source[line - 1].strip()}" for line in missed]
    return out


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    import pytest

    with Recorder() as recorder:
        status = pytest.main(args or [str(ROOT / "tests"), "-q"])
    print("\n".join(report(recorder.lines)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
