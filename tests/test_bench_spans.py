"""The benchmark tracer in ``bench/spans.py`` finds every boundary it names.

The tracer skips a boundary it cannot find and lists it in ``missing``, so
a renamed or deleted public function would otherwise show only as an
absent metric in a traced benchmark run.  The module is loaded from its
file without writing bytecode next to it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_boundary_and_factory_resolves():
    spans = load_spans()
    for module, _, _ in spans.BOUNDARIES + spans.EVALUATOR_FACTORIES:
        importlib.import_module(f"booksis.{module}")
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
