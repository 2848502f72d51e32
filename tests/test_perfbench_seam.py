"""The names the benchmark reaches into the package by.

`perfbench/spans.py` resolves its call sites and the sampler factory by
module and attribute name, so a refactor that moves one of them breaks
the benchmark, not the package's own tests.  These checks make such a
move fail here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
NAMES = [site[:2] for site in SPANS.CALL_SITES.values()] + [SPANS.SAMPLER_FACTORY]


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_benchmark_call_site_exists(module, attr):
    assert module.startswith("rearguard.")
    assert callable(getattr(importlib.import_module(module), attr, None))

