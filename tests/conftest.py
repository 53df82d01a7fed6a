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


@pytest.fixture
def evaluations(monkeypatch):
    """The root of each ``evaluate_many`` call made under the test, through
    the expression module or the name the frames module imports."""
    from invariance import frames as fr
    calls, evaluate = [], ex.evaluate_many

    def counted(*args, **kw):
        calls.append(args[0])
        return evaluate(*args, **kw)

    monkeypatch.setattr(ex, "evaluate_many", counted)
    monkeypatch.setattr(fr, "evaluate_many", counted)
    return calls
