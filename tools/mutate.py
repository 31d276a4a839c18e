"""Mutation analysis of one module against named tests.

    PYTHONPATH=src python tools/mutate.py MODULE [PYTEST_ARG ...]

Copies the checkout (the tree this file sits in, without .git and caches)
into a temporary directory and makes each mutant of MODULE there, one at a
time, by one of these operators:

- a comparison swap: < and <=, > and >=, == and !=, is and is not, in and
  not in, each to the other;
- an arithmetic swap: + and -, * and /, << and >>, & and |, each to the
  other, // to *, % to //, ** to *, ^ to &, in a binary operation or an
  augmented assignment;
- a constant 0 to 1 and 1 to 0 (int or float, not bool);
- and to or, or to and;
- a raise statement dropped (made pass);
- a slice bound one more (x[a:b] to x[a + 1:b] and to x[a:b + 1]).

Statements in an ``if TYPE_CHECKING:`` block or an ``if __name__ ==
"__main__":`` guard are not mutated.  Each mutant rewrites only the source
of the node it changes, re-parenthesised and padded so that every other
line keeps its number.

For each mutant the PYTEST_ARGs (the named tests) run in a fresh
``python -m pytest -q -x -p no:cacheprovider --hypothesis-seed=0``
subprocess in the copy, whose PYTHONPATH is the copy's src.  A failing run
kills the mutant; a run past TIMEOUT_FACTOR times the unmutated run's own
time is stopped and counts as a kill (timed out).  The mutants that pass
run again, the same way, against the whole suite (``python -m pytest
--continue-on-collection-errors``), with a timeout from its own unmutated
run; those that pass it too survive.  With no PYTEST_ARG the named tests
are the whole suite, and a mutant that passes them survives.  A mutant listed in EQUIVALENT, by
module, scope, old and new source, is not run: no test can kill it, and
its row gives the reason.

Each mutant's line and outcome go to stderr as it finishes.  The report, on
stdout, is the module's counts (mutants, killed, timed out, survived,
known equivalent), the kill rate (killed and timed out over the mutants
not known equivalent), each survivor as ``path:line old → new`` and the
table of known-equivalent mutants with their reasons.  Exit status 0 when
none survives, 1 when one does, 2 when the unmutated tests fail.  Nothing
is written inside the checkout.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PYTEST = ["-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
SUITE = ["--continue-on-collection-errors"]

# A mutated run may take this many times its unmutated run before it is
# stopped: room for a host that slows down during a long run, while a
# mutant that loops forever costs no more than this.
TIMEOUT_FACTOR = 3

COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
ARITHMETIC_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitAnd,
}
BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}

# (module, scope, old, new) -> why no test can tell the mutant from the
# module.  Keyed by scope, not line, so that an edit elsewhere in the module
# leaves the entry matched; an entry that matches no mutant is reported.
_PE = "src/ecoc/prob_engine.py"
_UNIFORM_TIE = "a uniform double equals the cut with probability at most 2**-53 a draw"
EQUIVALENT: dict[tuple[str, str, str, str], str] = {
    (_PE, "PairModel._positions", "u < (both + p10 * q1) / total",
     "u <= (both + p10 * q1) / total"): _UNIFORM_TIE,
    (_PE, "PairModel._positions", "u < both / total", "u <= both / total"): _UNIFORM_TIE,
    (_PE, "PairModel._positions", "u < either / total", "u <= either / total"): _UNIFORM_TIE,
    (_PE, "_step_table", "0.0", "1.0"):
        "R_w(0) = e scales every R_i by e, which cancels in each ratio up to rounding",
    (_PE, "_step_table", "np.where(den > -np.inf, den, 0.0)", "np.where(den > -np.inf, den, 1.0)"):
        "where R_i(j) = 0 the numerator e_i R_{i+1}(j - 1) is 0 too: exp(-inf) over any stand-in",
    (_PE, "poisson_binomial_dist", "length <= pairs", "length < pairs"):
        "pairs is a power of two and L runs 2, 3, 5, 9, ...: equal at L = 2 alone, "
        "where both forms add the same two products",
    (_PE, "poisson_binomial_dist", "out[:, j:j + length] += a[:, j, None] * b",
     "out[:, j:j + length] -= a[:, j, None] * b"):
        "a slice level negates its rows and the next convolve level (the top one, with one "
        "pair, at the latest) multiplies two negated rows: (-a)(-b) = ab exactly",
}


@dataclass(frozen=True)
class Mutant:
    line: int
    scope: str  # the qualified name of the function or class it is in
    old: str
    new: str
    source: str

    def name(self, path: str) -> str:
        return f"{path}:{self.line}  {self.old} → {self.new}"


def _skipped(node: ast.AST) -> bool:
    """An if whose body no in-process run reaches: TYPE_CHECKING or a
    __main__ guard."""
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "TYPE_CHECKING", "typing.TYPE_CHECKING", "__name__ == '__main__'")


def _nodes(tree: ast.Module):
    """Each node outside skipped blocks and annotations (which
    ``from __future__ import annotations`` leaves unevaluated), with its
    scope, the node that holds it and the outermost f-string that holds it
    (None outside one): node positions inside an f-string are not reliable
    before Python 3.12, so such a node is rewritten with it."""
    def visit(node, scope, parent, fstring):
        yield node, scope, parent, fstring
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST) and not _skipped(child):
                    inner = fstring or (child if isinstance(child, ast.JoinedStr) else None)
                    yield from visit(child, scope, node, inner)

    yield from visit(tree, "<module>", None, None)


def _edits(node: ast.AST):
    """The (holder, key, value) edits that mutate node, one per mutant; a
    holder is a list (key an index) or a node (key a field)."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE_SWAPS:
                yield node.ops, i, COMPARE_SWAPS[type(op)]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITHMETIC_SWAPS:
        yield node, "op", ARITHMETIC_SWAPS[type(node.op)]()
    elif isinstance(node, ast.BoolOp):
        yield node, "op", BOOL_SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value in (0, 1):
        yield node, "value", type(node.value)(1 - node.value)
    elif isinstance(node, ast.Slice):
        for key in ("lower", "upper"):
            bound = getattr(node, key)
            if bound is not None:
                yield node, key, ast.BinOp(bound, ast.Add(), ast.Constant(1))


def _swap(holder, key, value):
    """Put value at holder[key] (or holder.key) and return what was there."""
    if isinstance(holder, list):
        holder[key], value = value, holder[key]
    else:
        value, _ = getattr(holder, key), setattr(holder, key, value)
    return value


def _splice(lines: list[bytes], node: ast.AST, text: str) -> str:
    """The source with node's span replaced by text, parenthesised unless
    node is a statement or a slice, and padded with newlines to node's line
    count.  Column offsets count UTF-8 bytes."""
    first, last = node.lineno - 1, node.end_lineno - 1
    pad = "\n" * (last - first)
    body = text + pad if isinstance(node, (ast.stmt, ast.Slice)) else f"({text}{pad})"
    head, tail = lines[first][: node.col_offset], lines[last][node.end_col_offset :]
    return b"".join([*lines[:first], head + body.encode(), tail, *lines[last + 1 :]]).decode()


def mutants(source: str) -> list[Mutant]:
    """Every mutant of source, in source order.  A mutated constant or
    slice is shown with the expression that holds it."""
    tree = ast.parse(source)
    lines = source.encode().splitlines(keepends=True)
    out = []
    for node, scope, parent, fstring in _nodes(tree):
        if isinstance(node, ast.Raise):
            text = _splice(lines, node, "pass")
            out.append(Mutant(node.lineno, scope, ast.unparse(node), "pass", text))
            continue
        held = isinstance(node, (ast.Constant, ast.Slice)) and isinstance(parent, ast.expr)
        shown, anchor = parent if held else node, fstring or node
        for holder, key, value in _edits(node):
            old = ast.unparse(shown)
            value = _swap(holder, key, value)
            new, text = ast.unparse(shown), ast.unparse(anchor)
            _swap(holder, key, value)
            out.append(Mutant(node.lineno, scope, old, new, _splice(lines, anchor, text)))
    for mutant in out:
        compile(mutant.source, "<mutant>", "exec")
    return sorted(out, key=lambda m: m.line)


def _pytest(copy: Path, args: list[str], timeout: float | None) -> int | None:
    """pytest's exit status over args in copy, or None when it ran past
    timeout seconds.  A run that does not finish, past its timeout or
    because this process is stopped, is killed with every process it
    started."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with subprocess.Popen([sys.executable, "-m", "pytest", *PYTEST, *args], cwd=copy, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          start_new_session=True) as proc:
        try:
            return proc.wait(timeout)
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


class Runner:
    """Runs a list of pytest args in the copy, timed out at TIMEOUT_FACTOR
    times its own unmutated run, which is made on first use."""

    def __init__(self, copy: Path, args: list[str]):
        self.copy, self.args, self.timeout = copy, args, None

    def baseline(self) -> bool:
        start = time.perf_counter()
        passed = _pytest(self.copy, self.args, None) == 0
        self.timeout = TIMEOUT_FACTOR * (time.perf_counter() - start)
        return passed

    def __call__(self) -> str:
        status = _pytest(self.copy, self.args, self.timeout)
        return "timed out" if status is None else "survived" if status == 0 else "killed"


def _mutated(target: Path, mutant: Mutant, original: str, run: Runner) -> str:
    """run's outcome with mutant written in place of the module."""
    target.write_text(mutant.source, encoding="utf-8")
    try:
        return run()
    finally:
        target.write_text(original, encoding="utf-8")


def analyse(path: str, tests: list[str], copy: Path) -> tuple[list[str], int]:
    """The report lines for the module at path (relative to the checkout)
    and the exit status."""
    target = copy / path
    original = target.read_text(encoding="utf-8")
    named, suite = Runner(copy, tests), Runner(copy, SUITE)
    if not named.baseline():
        return [f"{path}: the unmutated tests fail: {' '.join(tests)}"], 2
    found = mutants(original)
    print(f"{path}: {len(found)} mutants", file=sys.stderr, flush=True)
    outcomes, equivalent = {}, {}
    for mutant in found:
        key = (path, mutant.scope, mutant.old, mutant.new)
        if key in EQUIVALENT:
            equivalent[mutant] = EQUIVALENT[key]
            continue
        outcome = note = _mutated(target, mutant, original, named)
        if outcome == "survived" and tests:
            if suite.timeout is None and not suite.baseline():
                return [f"{path}: the unmutated suite fails"], 2
            outcome = _mutated(target, mutant, original, suite)
            note = outcome if outcome == "survived" else f"{outcome} by the suite"
        outcomes[mutant] = outcome
        print(f"{mutant.name(path)}: {note}", file=sys.stderr, flush=True)
    status = int("survived" in outcomes.values())
    return report(path, outcomes, equivalent), status


def report(path: str, outcomes: dict, equivalent: dict) -> list[str]:
    """The counts, the kill rate, the survivors and the known-equivalent
    table, with any EQUIVALENT entry of path that matched no mutant."""
    counts = {k: list(outcomes.values()).count(k) for k in ("killed", "timed out", "survived")}
    dead, scored = counts["killed"] + counts["timed out"], len(outcomes)
    rate = f"{100 * dead / scored:.1f} %" if scored else "n/a"
    lines = [
        f"{path}: {len(outcomes) + len(equivalent)} mutants, {counts['killed']} killed, "
        f"{counts['timed out']} timed out, {counts['survived']} survived, "
        f"{len(equivalent)} known equivalent",
        f"kill rate: {dead} of {scored} = {rate}",
        "survived:",
        *(f"  {m.name(path)}" for m, o in outcomes.items() if o == "survived"),
        "known equivalent:",
    ]
    lines += [f"  {m.name(path)}: {why}" for m, why in equivalent.items()]
    matched = {(path, m.scope, m.old, m.new) for m in equivalent}
    lines += [f"  unmatched entry: {scope}  {old} → {new}" for module, scope, old, new in EQUIVALENT
              if module == path and (module, scope, old, new) not in matched]
    return lines


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    path = Path(args[0]).resolve().relative_to(ROOT).as_posix()
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    "*.egg-info", ".perfbench_work")
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / ROOT.name
        shutil.copytree(ROOT, copy, ignore=ignore)
        lines, status = analyse(path, args[1:], copy)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
