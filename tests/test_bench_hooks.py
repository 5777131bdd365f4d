"""The benchmark's hooks into leaklab still exist.

``bench/tracer.py`` wraps leaklab functions by module and name, and the
workloads and checks under ``bench/`` call ``lk.<module>.<name>``.  A
renamed or deleted function would crash the traced benchmark run; here it
fails the tests instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked_names() -> list[tuple[str, str]]:
    tracer = load_tracer()
    names = {(module, name) for table in (tracer.SPANS, tracer.COUNTERS)
             for module, listed in table.items() for name in listed}
    for path in BENCH.glob("*.py"):
        names.update(re.findall(r"\blk\.(\w+)\.(\w+)", path.read_text(encoding="utf-8")))
    return sorted(names)


def test_every_hook_is_found():
    assert len(hooked_names()) >= 26


@pytest.mark.parametrize("module, name", hooked_names())
def test_hooked_name_exists(module, name):
    assert hasattr(importlib.import_module(f"leaklab.{module}"), name)
