"""Hypothesis profiles.

`pytest --hypothesis-profile=ci` runs each property test that sets no
max_examples of its own on 2000 examples, derandomized so that a failure
repeats.  Without the option, Hypothesis's defaults apply.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, derandomize=True)
