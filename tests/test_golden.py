"""Byte-identical CLI outputs on the bundled scenarios.

For every scenario in ``scenarios/`` the files under ``tests/golden/<name>/``
hold what ``booksis run`` writes (CSV, report, stdout, stderr and exit
code); for the scenarios of a deformed model also what ``compare`` writes
(CSV when it passes, stdout, stderr and exit code) and what
``window --horizon 4`` prints.  The test compares bytes,
so any change to the numbers or their formatting fails it.

An intended output change regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each file whose bytes change, what changed in it: per
changed CSV column the largest absolute and relative change, per changed
top-level report key its old and new value, and otherwise the changed
lines.  The change is recorded in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from booksis.cli import EXIT_PASS, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

RUN_SCENARIOS = sorted(p.stem for p in SCENARIOS.glob("*.json"))
DEFORMED_SCENARIOS = [
    name for name in RUN_SCENARIOS
    if json.loads((SCENARIOS / f"{name}.json").read_text())["model"].startswith("deformed-")
]


def _main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_outputs(name: str, out_dir: Path) -> dict[str, bytes]:
    code, out, err = _main(["run", str(SCENARIOS / f"{name}.json"),
                            "--output", str(out_dir)])
    return {
        "run.csv": (out_dir / f"{name}.csv").read_bytes(),
        "run.report.json": (out_dir / f"{name}.report.json").read_bytes(),
        "run.stdout": out.encode(),
        "run.stderr": err.encode(),
        "run.exit": f"{code}\n".encode(),
    }


def compare_outputs(name: str, out_dir: Path) -> dict[str, bytes]:
    code, out, err = _main(["compare", str(SCENARIOS / f"{name}.json"),
                            "--output", str(out_dir)])
    produced = {
        "compare.stdout": out.encode(),
        "compare.stderr": err.encode(),
        "compare.exit": f"{code}\n".encode(),
    }
    if code == EXIT_PASS:
        produced["compare.csv"] = (out_dir / f"{name}.compare.csv").read_bytes()
    return produced


def window_outputs(name: str) -> dict[str, bytes]:
    code, out, _ = _main(["window", str(SCENARIOS / f"{name}.json"),
                          "--horizon", "4"])
    assert code == EXIT_PASS
    return {"window.stdout": out.encode()}


def _assert_golden(name: str, produced: dict[str, bytes]) -> None:
    for key, data in produced.items():
        expected = (GOLDEN / name / key).read_bytes()
        assert data == expected, f"{name}/{key} differs from its golden file"


@pytest.mark.parametrize("name", RUN_SCENARIOS)
def test_run_matches_golden(name, tmp_path):
    _assert_golden(name, run_outputs(name, tmp_path))


@pytest.mark.parametrize("name", DEFORMED_SCENARIOS)
def test_compare_matches_golden(name, tmp_path):
    _assert_golden(name, compare_outputs(name, tmp_path))


@pytest.mark.parametrize("name", DEFORMED_SCENARIOS)
def test_window_matches_golden(name):
    _assert_golden(name, window_outputs(name))


def _csv_changes(old: str, new: str) -> list[str]:
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0] \
            or len(old_rows) != len(new_rows):
        return [f"header or row count changed: {len(old_rows)} -> {len(new_rows)} rows"]
    lines = []
    for i, column in enumerate(old_rows[0]):
        pairs = [(a[i], b[i]) for a, b in zip(old_rows[1:], new_rows[1:]) if a[i] != b[i]]
        if not pairs:
            continue
        try:
            deltas = [(abs(float(b) - float(a)), max(abs(float(a)), abs(float(b))))
                      for a, b in pairs]
        except ValueError:
            lines.append(f"{column}: {len(pairs)} rows changed (not numeric)")
            continue
        largest_abs = max(d for d, _ in deltas)
        largest_rel = max(d / m if m > 0.0 else 0.0 for d, m in deltas)
        lines.append(f"{column}: {len(pairs)} rows changed, largest change "
                     f"{largest_abs:.3g} absolute, {largest_rel:.3g} relative")
    return lines


def summarize_change(key: str, old: bytes, new: bytes) -> list[str]:
    """What changed between two versions of the golden file ``key``: per
    CSV column the number of changed rows and the largest absolute and
    relative change; per top-level report key its old and new value;
    otherwise the removed and added lines."""
    if key.endswith(".csv"):
        return _csv_changes(old.decode(), new.decode())
    if key.endswith(".json"):
        before, after = json.loads(old), json.loads(new)
        return [f"{k}: {json.dumps(before.get(k))} -> {json.dumps(after.get(k))}"
                for k in sorted(before.keys() | after.keys())
                if before.get(k) != after.get(k)]
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    return ([f"- {line}" for line in old_lines if line not in new_lines]
            + [f"+ {line}" for line in new_lines if line not in old_lines])


def test_summarize_csv_change():
    old = "t,x,y\n0.0,1.0,2.0\n0.5,1.5,-4.0\n"
    new = "t,x,y\n0.0,1.0,2.0\n0.5,1.5,-4.5\n"
    assert summarize_change("run.csv", old.encode(), new.encode()) == [
        "y: 1 rows changed, largest change 0.5 absolute, 0.111 relative"
    ]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUN_SCENARIOS:
            produced = run_outputs(name, Path(tmp))
            if name in DEFORMED_SCENARIOS:
                produced.update(compare_outputs(name, Path(tmp)))
                produced.update(window_outputs(name))
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for key, data in produced.items():
                path = GOLDEN / name / key
                if not path.exists():
                    print(f"{name}/{key}: new file")
                elif path.read_bytes() != data:
                    print(f"{name}/{key} changed:")
                    for line in summarize_change(key, path.read_bytes(), data):
                        print(f"    {line}")
                path.write_bytes(data)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
