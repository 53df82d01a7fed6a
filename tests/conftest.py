"""Fixtures shared by the test modules."""

import pytest

from invariance import expr as ex


def _drop_compiled():
    for ref in list(ex._intern.values()):
        node = ref()
        # a node that has stored no derived value has no dict
        if node is not None and node.derived is not None:
            node.derived.pop("tape", None)
            node.derived.pop("kernel", None)


@pytest.fixture
def drop_compiled():
    """Drop the tape and the float kernel of every live node before the
    test and after it, so that none compiled under the test's patches
    outlives it; the test calls the fixture's value to drop them midway."""
    _drop_compiled()
    yield _drop_compiled
    _drop_compiled()
