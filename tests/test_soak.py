"""Seed soak: the 36 shipped scenarios in one process at seeds 1-8.

Every report must meet its expectations with every residual at least a
decade clear of the band between its tolerance and ``FAIL_FLOOR``: a
PASS at or below tol / 10, a FAIL at or above 10 ``FAIL_FLOOR``.  The
range is fixed in advance; a seed that breaks a margin is a finding
about the checks, not a seed to drop.

The process must also hold no more after the first seed: the frames a
seed draws are freed with everything derived from them, so the interned
expressions and every unbounded ``lru_cache`` of the package stay at
their size after seed 1.  (The sample points' cache is bounded.)
"""

import gc
import sys
from importlib import resources
from pathlib import Path

from invariance import expr as ex
from invariance.checks.verdict import FAIL_FLOOR
from invariance.report import run_suite

SCENARIOS = sorted(
    Path(str(resources.files("invariance") / "scenarios")).glob("*.json"))
SEEDS = range(1, 9)
DECADE = 10.0


def margin_breaks(reports):
    """``scenario.part: residual`` of each part not a decade clear of
    the band: a PASS above tol / 10, a FAIL below 10 ``FAIL_FLOOR``, or
    NaN."""
    found = []
    for r in reports:
        for part, passed in r["parts"].items():
            residual = r["residuals"][part]
            clear = (residual <= r["tolerance"] / DECADE if passed
                     else residual >= DECADE * FAIL_FLOOR)
            if not clear:
                found.append("%s.%s: %r" % (r["scenario"], part, residual))
    return found


def unbounded_caches():
    """{function: size} of every unbounded ``lru_cache`` of the package."""
    return {"%s.%s" % (f.__module__, f.__qualname__): f.cache_info().currsize
            for name, module in list(sys.modules.items())
            if name.startswith("invariance")
            for f in vars(module).values()
            if hasattr(f, "cache_info") and f.cache_info().maxsize is None}


def test_the_check_sees_a_narrow_margin():
    reports = [{"scenario": "s", "tolerance": 1e-9,
                "parts": {"a": True, "b": True, "c": False, "d": False,
                          "e": False, "f": False},
                "residuals": {"a": 1e-10, "b": 2e-10, "c": 1e-2,
                              "d": 9e-3, "e": float("inf"),
                              "f": float("nan")}}]
    assert margin_breaks(reports) == ["s.b: 2e-10", "s.d: 0.009",
                                      "s.f: nan"]


def test_seeds_keep_their_margins_and_free_their_frames():
    held = []
    for seed in SEEDS:
        reports, code = run_suite(SCENARIOS, None, seed,
                                     no_timestamp=True)
        assert code == 0 and len(reports) == len(SCENARIOS) == 36
        assert [r["scenario"] for r in reports
                if not r["expectation_met"]] == [], seed
        assert margin_breaks(reports) == [], seed
        gc.collect()
        held.append((len(ex._intern), unbounded_caches()))
    assert held[0][1], "no cache found"
    assert held[1:] == held[:1] * (len(held) - 1)
