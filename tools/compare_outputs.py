"""Compare two trees of mhdstab CLI outputs, file by file.

    python tools/compare_outputs.py A B

A and B are output directories.  Every file under either one is paired
by its relative path.  A pair is reported as "byte-identical", or, for
JSON and CSV files, by the largest relative change |a - b| / max(|a|, |b|)
of each numeric field, with the number of values that changed.  JSON
leaves are named by their path with list indices written as [], so that
the rows of a list share one field; CSV fields are the columns.  Any
other difference (a string, a key, a row count, a file only on one side)
is listed as it is.  Standard library only.  Exit status: 0 when every
pair is byte-identical, 1 otherwise, 2 when A or B is not a directory.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path


def _number(value):
    """The float of a JSON number or numeric CSV cell, else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values or two NaNs, inf when
    only one side is NaN or infinite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(a) and math.isfinite(b) else math.inf


class _Report:
    """Per-field largest relative change and count, plus other differences."""

    def __init__(self):
        self.fields: dict[str, list] = {}  # name -> [max relative, changed, values]
        self.other: list[str] = []

    def value(self, name: str, a, b) -> None:
        x, y = _number(a), _number(b)
        if x is None or y is None:
            if a != b:
                self.other.append(f"{name}: {a!r} -> {b!r}")
            return
        entry = self.fields.setdefault(name, [0.0, 0, 0])
        r = _relative(x, y)
        entry[0] = max(entry[0], r)
        entry[1] += r != 0.0
        entry[2] += 1

    def lines(self) -> list[str]:
        out = [f"  {name}: max rel {m:.3g} ({changed} of {n} changed)"
               for name, (m, changed, n) in self.fields.items() if changed]
        return out + [f"  {line}" for line in self.other]


def _walk(report: _Report, path: str, a, b) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            name = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                report.other.append(f"{name}: only in {'B' if key in b else 'A'}")
            else:
                _walk(report, name, a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            report.other.append(f"{path}: length {len(a)} -> {len(b)}")
        for x, y in zip(a, b):
            _walk(report, f"{path}[]", x, y)
    else:
        report.value(path or "(root)", a, b)


def _compare_csv(report: _Report, a: str, b: str) -> None:
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        report.other.append("header differs")
        return
    header = rows_a[0]
    if len(rows_a) != len(rows_b):
        report.other.append(f"rows: {len(rows_a) - 1} -> {len(rows_b) - 1}")
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(ra) != len(header) or len(rb) != len(header):
            if ra != rb:
                report.other.append(f"row {i}: {ra!r} -> {rb!r}")
            continue
        for name, x, y in zip(header, ra, rb):
            report.value(name, x, y)


def compare_files(a: Path, b: Path) -> list[str]:
    """Report lines for one pair of files; the first says identical or not."""
    data_a, data_b = a.read_bytes(), b.read_bytes()
    if data_a == data_b:
        return ["byte-identical"]
    report = _Report()
    try:
        text_a, text_b = data_a.decode("utf-8"), data_b.decode("utf-8")
        if a.suffix == ".json":
            _walk(report, "", json.loads(text_a), json.loads(text_b))
        elif a.suffix == ".csv":
            _compare_csv(report, text_a, text_b)
        else:
            report.other.append("contents differ")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        report.other.append(f"not comparable field by field: {exc}")
    lines = report.lines()
    return ["differs"] + (lines or ["  only in formatting"])


def compare(a: Path, b: Path) -> tuple[list[str], bool]:
    """Report lines for two directories, and whether every pair of files
    is byte-identical."""
    names = sorted({p.relative_to(root).as_posix() for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    out, same = [], True
    for name in names:
        x, y = a / name, b / name
        if not (x.is_file() and y.is_file()):
            out.append(f"{name}: only in {'A' if x.is_file() else 'B'}")
            same = False
            continue
        first, *rest = compare_files(x, y)
        out += [f"{name}: {first}", *rest]
        same &= first == "byte-identical"
    return out, same


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2 or not all(Path(arg).is_dir() for arg in args):
        print("usage: python tools/compare_outputs.py A B", file=sys.stderr)
        return 2
    lines, same = compare(Path(args[0]), Path(args[1]))
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
