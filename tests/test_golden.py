"""Byte-identical CLI outputs on the bundled scenarios.

For every scenario in ``scenarios/`` the files under ``tests/golden/<name>/``
hold what ``booksis run`` writes (CSV, report, stdout, stderr and exit
code); for the deformed scenarios also what ``compare`` writes (CSV and
stdout) and what ``window --horizon 4`` prints.  The test compares bytes,
so any change to the numbers or their formatting fails it.

An intended output change regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and is recorded in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from booksis.cli import EXIT_PASS, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

RUN_SCENARIOS = sorted(p.stem for p in SCENARIOS.glob("*.json"))
DEFORMED_SCENARIOS = ["deformed_book", "deformed_sis"]


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
    code, out, _ = _main(["compare", str(SCENARIOS / f"{name}.json"),
                          "--output", str(out_dir)])
    assert code == EXIT_PASS
    return {
        "compare.csv": (out_dir / f"{name}.compare.csv").read_bytes(),
        "compare.stdout": out.encode(),
    }


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


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUN_SCENARIOS:
            produced = run_outputs(name, Path(tmp))
            if name in DEFORMED_SCENARIOS:
                produced.update(compare_outputs(name, Path(tmp)))
                produced.update(window_outputs(name))
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for key, data in produced.items():
                (GOLDEN / name / key).write_bytes(data)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
