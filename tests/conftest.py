"""Hypothesis profiles, and the collector fixture.

`pytest --hypothesis-profile=ci` runs each property test that sets no
max_examples of its own on 2000 examples, derandomized so that a failure
repeats.  Without the option, Hypothesis's defaults apply.
"""

import gc

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=2000, derandomize=True)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-paused-by-caller"])
def collector(request):
    """Python's cyclic collector as the caller left it, on or paused; put
    back as it was after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()
