"""Digest the CLI's output over a fixed command corpus, one sha256 per family.

Runs every command in process through ``ecoc.cli.main`` and hashes, per
command, its argument list, its exit status and its stdout; the figures
family also hashes every file a command writes.  Two checkouts whose digests
agree print the same bytes on this corpus, so a refactor can be checked for
byte identity by running the script against each:

    PYTHONPATH=src python tools/cli_corpus.py
    PYTHONPATH=/path/to/other/checkout/src python tools/cli_corpus.py

The families are code, pmf, tail, bounds, bahadur, simulate (small trial
counts, apart from a threshold command and full-decode commands of many
trials, one of them with more far rows than a far-row block holds, each on
one worker and on two, which print the same), analyze and figures.  Error cases are included; stderr is not hashed, so a reworded
message does not change a digest but a changed exit status does.  Inputs are fixed (bundled fixtures and seeded synthetic
folds), so the digests depend only on the code under test.

A digest says only that a family changed.  To see which commands changed
and by how much, dump one checkout's output and compare the other's with it:

    PYTHONPATH=/path/to/other/checkout/src python tools/cli_corpus.py --dump old.jsonl
    PYTHONPATH=src python tools/cli_corpus.py --against old.jsonl --rel 3e-13

--dump writes one JSON line per command (family, argv, exit status,
stdout and the text of each file it writes) and still prints the digests.
--against lists every command whose exit status, written file names or
non-numeric text differs, or one of whose numbers, in stdout or in a
written file, differs from the dumped one by more than --rel relative, then
a per-family summary; it exits 1 when it listed any command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from ecoc.cli import main as cli_main
from ecoc.code_matrix import build_code_matrix

FORMATS = ("table", "csv", "json")
FIXTURES = (
    "cifar10_cnn", "letters_dt", "letters_svm", "pendigits_dt", "pendigits_svm",
    "svhn_cnn", "usps_dt", "usps_svm", "vowel_dt", "vowel_svm",
)
SMALL_E = "1e-19"


def _models(n: int, e: str) -> list[list[str]]:
    """Model flag sets at n classifiers and rate e, valid and invalid."""
    rates = ",".join(f"{float(e) * (1 + 0.1 * (i % 5)):.6g}" for i in range(n))
    return [
        ["--model", "iid", "--n", str(n), "--ebar", e],
        ["--model", "independent", "--rates", rates],
        ["--model", "pair", "--n", str(n), "--ebar", e, "--f", "0.01"],
        ["--model", "pair", "--rates", rates, "--f", "0"],
        ["--model", "exchangeable", "--n", str(n), "--ebar", e, "--c", "0.005"],
        ["--model", "exchangeable", "--n", str(n), "--ebar", e, "--c", "-0.002"],
    ]


def _rate_lists() -> list[tuple[int, list[str]]]:
    """(n, model flags) of --rates lists at nonzero rates: the independent
    and pair models given n equal entries, each of which prints the same
    bytes as its --model iid or --model pair --n --ebar twin, and a pair
    model whose first n - 2 entries are equal and whose pair differs, whose
    n - 2 row is the product tree's."""
    out = []
    for n in (26, 127, 1000):
        for e in ("0.0686", "0.18"):
            rates = ["--rates", ",".join([e] * n)]
            out += [(n, ["--model", "independent", *rates]),
                    (n, ["--model", "pair", *rates, "--f", "0.01"])]
        rates = ["--rates", ",".join(["0.18"] * (n - 2) + ["0.3", "0.25"])]
        out.append((n, ["--model", "pair", *rates, "--f", "0.1"]))
    return out


def _unread_flags() -> list[list[str]]:
    """Each model with one model flag it does not read, which it rejects."""
    reads = {
        "iid": ["--n", "5", "--ebar", "0.1"],
        "independent": ["--rates", "0.1,0.2,0.3"],
        "pair": ["--rates", "0.1,0.2,0.3", "--f", "0.01"],
        "exchangeable": ["--n", "5", "--ebar", "0.1", "--c", "0.01"],
    }
    values = {"--rates": "0.1,0.2,0.3", "--n": "5", "--ebar": "0.1", "--f": "0.01",
              "--c": "0.01"}
    return [
        ["--model", model, *flags, flag, value]
        for model, flags in reads.items()
        for flag, value in values.items()
        if flag not in flags
    ]


def _code(_: Path) -> list[list[str]]:
    sizes = list(range(2, 35)) + [63, 64, 65, 100, 127, 128, 129, 255, 256, 1000]
    out = []
    for classes in sizes:
        for orientation in ("keep-bottom-right", "keep-top-left"):
            base = ["code", "--classes", str(classes), "--orientation", orientation]
            out.append(base + ["--emit"])
            out += [base + ["--format", fmt] for fmt in FORMATS]
    # The top of the class range, without --emit (a matrix of up to 1 GiB):
    # there d comes from the closed form alone.
    for classes in (2047, 2048, 2049, 4095, 4097, 16385, 32767, 32768):
        for orientation in ("keep-bottom-right", "keep-top-left"):
            out.append(["code", "--classes", str(classes), "--orientation", orientation,
                        "--format", "csv"])
    # --emit prints the matrix text alone: --format csv and json are errors.
    out += [["code", "--classes", "4", "--emit", "--format", fmt] for fmt in FORMATS]
    return out + [["code", "--classes", "1"], ["code", "--classes", "0"]]


def _pmf(_: Path) -> list[list[str]]:
    out = []
    for n in (1, 2, 3, 5, 10, 26, 127):
        for e in ("0", "0.05", "0.18", "0.5", "1"):
            for model in _models(n, e):
                for fmt in FORMATS:
                    out.append(["pmf", *model, "--format", fmt])
                for k in (0, n // 2, n, n + 1, -1):
                    out.append(["pmf", *model, "--k", str(k), "--format", "csv"])
    for n, model in _rate_lists():
        out += [["pmf", *model, "--format", fmt] for fmt in FORMATS]
        out.append(["pmf", *model, "--k", str(n // 2), "--format", "csv"])
    return out


def _tail(_: Path) -> list[list[str]]:
    out = []
    for n in (2, 3, 5, 10, 26, 127, 1000):
        for e in ("0", "0.0686", "0.18", "0.5", "1"):
            for model in _models(n, e):
                for m in sorted({0, 1, n // 4, n // 2, n - 1, n, n + 1, -1}):
                    out.append(["tail", *model, "--m", str(m), "--format", "csv"])
                out += [["tail", *model, "--m", "1", "--format", fmt] for fmt in FORMATS]
    out += [["tail", *model, "--m", "1"] for model in _unread_flags()]
    for n, model in _rate_lists():
        for m in sorted({1, n // 4, n // 2, n}):
            out.append(["tail", *model, "--m", str(m), "--format", "csv"])
    return out


def _bounds(_: Path) -> list[list[str]]:
    out = []
    for n in (1, 2, 3, 10, 26, 127, 1000):
        for m in sorted({1, max(1, n // 4), max(1, n - 1), n}):
            for e in ("0", SMALL_E, "1e-6", "0.0686", "0.1", "0.25", "0.5", "1"):
                for c in (None, "-0.01", "0", "0.0058", "0.001", "0.5"):
                    for policy in ("gated", "always"):
                        argv = ["bounds", "--n", str(n), "--m", str(m), "--ebar", e]
                        argv += [] if c is None else ["--c", c]
                        out.append(argv + ["--kz-policy", policy, "--format", "csv"])
    base = ["bounds", "--n", "26", "--m", "6", "--ebar", "0.0686", "--c", "0.0058"]
    out += [base + ["--format", fmt] for fmt in FORMATS]
    out += [base + ["--mu", mu] for mu in ("0", "1.5", "6", "10", "-1", "inf", "nan")]
    out += [base + ["--c", c] for c in ("nan", "inf")]
    out += [["bounds", "--n", "10", "--m", m, "--ebar", "0.1"] for m in ("0", "11")]
    return out


def _bahadur(_: Path) -> list[list[str]]:
    out = []
    for n in (1, 2, 3, 10, 26, 127, 1000):
        for e in ("0", SMALL_E, "1e-17", "1e-6", "0.01", "0.0686", "0.1", "0.18",
                  "0.3333333333333333", "0.5", "0.9", "0.99", "1"):
            for fmt in ("csv", "json"):
                out.append(["bahadur", "--n", str(n), "--ebar", e, "--format", fmt])
    return out


def _simulate(_: Path) -> list[list[str]]:
    out = []
    for n, m in ((10, 2), (26, 6)):
        for model in _models(n, "0.1"):
            for seed in ("1", "7"):
                base = ["simulate", *model, "--trials", "3000", "--seed", seed,
                        "--format", "csv"]
                out.append(base + ["--m", str(m)])
                out.append(base + ["--mode", "full-decode"])
                out.append(base + ["--mode", "full-decode", "--true-class", "3",
                                   "--workers", "2"])
    out.append(["simulate", "--model", "iid", "--n", "10", "--ebar", "0.1",
                "--trials", "3000", "--mode", "full-decode", "--m", "2"])
    # Exchangeable full decodes that rank few far rows: one trial, a count
    # that is not a multiple of 4, and one just past four sampler blocks.
    model = ["--model", "exchangeable", "--n", "26", "--ebar", "0.1", "--c", "0.005"]
    for trials in ("1", "3", "2051"):
        base = ["simulate", *model, "--trials", trials, "--seed", "11",
                "--mode", "full-decode", "--format", "csv"]
        out += [base, base + ["--true-class", "0"], base + ["--workers", "3"]]
    # Runs at --workers 2, each beside its one-worker twin, which must print
    # the same result: the worker count changes nothing.  The last holds
    # about 54,000 far rows, three far-row blocks at 26 classes, the last
    # cut short.
    for model, mode, trials in (
        (["--model", "iid", "--n", "26", "--ebar", "0.1"], ["--m", "6"], "40000"),
        (model, ["--mode", "full-decode"], "40000"),
        (["--model", "iid", "--n", "26", "--ebar", "0.3"], ["--mode", "full-decode"], "60000"),
    ):
        base = ["simulate", *model, *mode, "--trials", trials, "--seed", "5", "--format", "csv"]
        out += [base + ["--workers", "1"], base + ["--workers", "2"]]
    return out


def _write_folds(tmp: Path) -> dict[str, list[Path]]:
    """Seeded synthetic prediction folds for 10 and 26 classes with \\n line
    ends, and for 127 classes (labels of 1-3 digits) with \\r\\n."""
    rng = np.random.default_rng(2024)
    folds = {}
    for classes, e, eol in ((10, 0.08, "\n"), (26, 0.05, "\n"), (127, 0.18, "\r\n")):
        code = build_code_matrix(classes)
        paths = []
        for fold in range(3):
            truth = rng.integers(0, classes, 400)
            bits = code.matrix[truth] ^ (rng.random((400, code.n)) < e)
            lines = ["true_class," + ",".join(f"bit_{i + 1}" for i in range(code.n))]
            lines += [f"{t}," + ",".join(map(str, row)) for t, row in zip(truth, bits)]
            path = tmp / f"c{classes}_fold{fold}.csv"
            path.write_bytes((eol.join(lines) + eol).encode())
            paths.append(path)
        folds[str(classes)] = paths
    return folds


def _summary_files(tmp: Path) -> list[tuple[Path, str]]:
    """Summary CSVs with their class counts, one of them at a tiny rate."""
    header = "fold,mean_bit_error,mean_correlation,ecoc_error\n"
    files = {
        "plain": (header + "1,0.07,0.01,0.05\n2,0.09,0.02,0.06\n3,0.05,-0.01,0.04\n", "26"),
        "small_e": (header + f"1,{SMALL_E},0.001,0.0\n2,0.01,0.002,0.0\n", "10"),
        "one_fold": (header + "a,0.1,0.0,0.1\n", "10"),
    }
    out = []
    for name, (text, classes) in files.items():
        path = tmp / f"{name}.csv"
        path.write_text(text)
        out.append((path, classes))
    return out


def _analyze(tmp: Path) -> list[list[str]]:
    out = []
    for name in FIXTURES:
        for fmt in FORMATS:
            for policy in ("gated", "always"):
                out.append(["analyze", "--fixture", name, "--kz-policy", policy,
                            "--format", fmt])
        out.append(["analyze", "--fixture", name, "--n", "11", "--format", "csv"])
    for path, classes in _summary_files(tmp):
        for policy in ("gated", "always"):
            out.append(["analyze", "--summary", str(path), "--classes", classes,
                        "--kz-policy", policy, "--format", "csv"])
    for classes, paths in _write_folds(tmp).items():
        for fmt in FORMATS:
            out.append(["analyze", "--predictions", *map(str, paths),
                        "--classes", classes, "--format", fmt])
    out.append(["analyze", "--fixture", "letters_dt", "--n", "6"])
    # At n = 100 (m/n = 0.02) only the first fold has chernoff and kz: two
    # columns of one value, whose std is absent.
    path = tmp / "one_value.csv"
    path.write_text("fold,mean_bit_error,mean_correlation,ecoc_error\n"
                    "1,0.01,0.002,0.0\n2,0.1,0.01,0.05\n")
    out.append(["analyze", "--summary", str(path), "--classes", "10", "--n", "100",
                "--format", "csv"])
    return out


def _figures(tmp: Path) -> list[list[str]]:
    out = [
        ["figures", "--figure", "fig1"],
        ["figures", "--figure", "fig1", "--ns", "5,127", "--r", "0.3", "--step", "0.01"],
        ["figures", "--figure", "fig1", "--step", "0"],
    ]
    for name in FIXTURES:
        out.append(["figures", "--figure", "scatter", "--fixture", name])
        out.append(["figures", "--figure", "scatter", "--fixture", name, "--n", "11"])
    out.append(["figures", "--figure", "scatter", "--fixture", "letters_dt", "--n", "6"])
    for path, classes in _summary_files(tmp):
        out.append(["figures", "--figure", "scatter", "--summary", str(path),
                    "--classes", classes])
    return out


FAMILIES = {
    "code": _code,
    "pmf": _pmf,
    "tail": _tail,
    "bounds": _bounds,
    "bahadur": _bahadur,
    "simulate": _simulate,
    "analyze": _analyze,
    "figures": _figures,
}


def run(argv: list[str]) -> tuple[int | str, bytes]:
    """Exit status and stdout of one in-process CLI command.  An exception
    that escapes main, which a shell would show as a traceback, is recorded
    by its type in place of the status."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = cli_main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # noqa: BLE001 - recorded, the corpus goes on
            status = f"raised {type(exc).__name__}"
    return status, stdout.getvalue().encode()


def family_runs(family: str, tmp: Path):
    """Yield (argv, status, stdout, files) per command of one family: argv
    with the temporary directory written as <tmp>, and the (name, bytes) of
    every file the command writes (figures only)."""
    for i, argv in enumerate(FAMILIES[family](tmp)):
        out_dir = tmp / f"out{i}"
        if family == "figures":
            argv = argv + ["--out", str(out_dir)]
        status, stdout = run(argv)
        files = []
        if out_dir.is_dir():
            files = [(path.name, path.read_bytes()) for path in sorted(out_dir.iterdir())]
        yield [a.replace(str(tmp), "<tmp>") for a in argv], status, stdout, files


def family_digest(runs) -> tuple[str, int]:
    """sha256 over the runs of one family, and the command count."""
    sha = hashlib.sha256()
    count = 0
    for argv, status, stdout, files in runs:
        sha.update(repr(argv).encode())
        sha.update(f"{status}\n".encode() + stdout)
        for name, data in files:
            sha.update(name.encode() + data)
        count += 1
    return sha.hexdigest(), count


# A decimal number as the CLI prints one.  nan and inf are text: they
# compare equal only to themselves.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def compare(old: str, new: str) -> float | None:
    """Largest relative difference between the numbers of two outputs, or
    None when the text around the numbers differs (a changed number count
    included)."""
    if NUMBER.split(old) != NUMBER.split(new):
        return None
    worst = 0.0
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        x, y = float(a), float(b)
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def written(files) -> dict[str, str]:
    """The text of each file a command writes, by name."""
    return {name: data.decode() for name, data in files}


def against(path: str, rel: float, tmp: Path) -> int:
    """Re-run the corpus, list the commands that differ from a --dump file
    by more than rel, and summarise each family."""
    dumped = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            dumped[(rec["family"], tuple(rec["argv"]))] = rec
    listed = 0
    summary = []
    for family in FAMILIES:
        count = moved = 0
        worst = 0.0
        for argv, status, stdout, files in family_runs(family, tmp):
            count += 1
            rec = dumped.get((family, tuple(argv)))
            # stdout and each written file, by name; a dump made before
            # files were dumped has none.
            new = {"stdout": stdout.decode(), **written(files)}
            old = rec and {"stdout": rec["stdout"], **rec.get("files", {})}
            if rec is None:
                why = "not in the dump"
            elif rec["status"] != status:
                why = f"exit status {rec['status']} -> {status}"
            elif list(old) != list(new):
                why = f"outputs {', '.join(old)} -> {', '.join(new)}"
            else:
                diffs = {name: compare(old[name], text) for name, text in new.items()}
                changed = [name for name, diff in diffs.items() if diff is None]
                if changed:
                    why = f"text differs in {changed[0]}"
                else:
                    name = max(diffs, key=diffs.get)
                    diff = diffs[name]
                    moved += diff > 0
                    worst = max(worst, diff)
                    if diff <= rel:
                        continue
                    why = f"relative difference {diff:.3g} in {name}"
            listed += 1
            print(f"{family:<9} {why}: {' '.join(argv)}")
        summary.append(f"{family:<9} {count:>5} commands, {moved:>5} with moved numbers, "
                       f"worst relative difference {worst:.3g}")
    print("\n".join(summary))
    return 1 if listed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="PATH",
                        help="also write one JSON line per command to PATH")
    parser.add_argument("--against", metavar="PATH",
                        help="compare with a --dump file instead of printing digests")
    parser.add_argument("--rel", type=float, default=0.0, metavar="TOL",
                        help="relative difference --against lets a number move (default 0)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if args.against:
            return against(args.against, args.rel, Path(tmp))
        lines = []
        for family in FAMILIES:
            runs = list(family_runs(family, Path(tmp)))
            lines += [json.dumps({"family": family, "argv": argv, "status": status,
                                  "stdout": stdout.decode(),
                                  "files": written(files)}) + "\n"
                      for argv, status, stdout, files in runs]
            digest, count = family_digest(runs)
            print(f"{family:<9} {count:>5}  {digest}")
    if args.dump:
        Path(args.dump).write_text("".join(lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
