"""Shared fixtures.

``generated_code()`` latches ``REPRO_HOTPATH`` on first use (the
switch is read once per process by contract), so every test gets the
latch dropped around it: a test that monkeypatches the variable sees
its own value, and its choice cannot leak into the next test.  Tests
that flip the variable *mid-test* must call
``repro.hotpath.reset_for_tests()`` themselves after each change.
"""

import pytest

from repro import hotpath


@pytest.fixture(autouse=True)
def _reset_hotpath_latch():
    hotpath.reset_for_tests()
    yield
    hotpath.reset_for_tests()
