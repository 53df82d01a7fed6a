"""Mutation gate: a deliberately broken engine must flip a shipped verdict.

Each mutation monkeypatches one engine entry point in-process and reruns
the shipped scenarios it must flip.  A scenario flips when its
expectation is met on the intact engine and missed under the mutation.
A mutation that no shipped scenario can see is a finding about the
checks, not a test to skip.

Frame side: ``FrameChange.at`` is the one numeric view of every frame
change (Q, c and their time derivatives), read by the mechanics checks,
the geometric suite and the classifiers.  Verdict side: ``verdict.worst``
is the one reduction of residual arrays, and ``verdict.meets`` the one
rule that judges an expected outcome.
"""

import importlib
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from invariance import frames as fr
from invariance import report
from invariance.checks import verdict
from invariance.checks.verdict import CheckPart, meets
from invariance.cli import main
from invariance.expr import VEC, matrix_const, zero
from invariance.report import run_scenario

SCENARIO_DIR = Path(str(resources.files("invariance") / "scenarios"))
classify_module = importlib.import_module("invariance.checks.classify")


def _zero_qdot(q, c, order):
    return (np.zeros_like(q) if order == 1 else q), c


def _transpose_q(q, c, order):
    return (q.swapaxes(0, 1) if order == 0 else q), c


# name -> (change of (Q^(k), c^(k), k), shipped scenarios it must flip)
FRAME_MUTATIONS = {
    "zero_qdot": (_zero_qdot, ("mech_noninertial_closure",
                               "geometric_suite")),
    "transpose_q": (_transpose_q, ("mech_noninertial_closure",
                                   "classify_vorticity_relative")),
}


# name -> (patched attribute of NSSymmetry, its mutated value, shipped
# scenarios it must flip)
NS_MUTATIONS = {
    "zero_velocity_offset": ("velocity_offset", lambda self: zero(VEC),
                             ("ns_galilei_beltrami",
                              "ns_s2_acceleration_beltrami",
                              "ns_s6_rotation_taylor_green")),
    "identity_m": ("matrix", lambda self: matrix_const(np.eye(3)),
                   ("ns_galilei_beltrami", "ns_s3_reflection_beltrami",
                    "ns_s6_rotation_taylor_green")),
    "unit_nu_action": ("nu_action", property(lambda self: 1.0),
                       ("ns_s4_time_reversal_beltrami",)),
}


# module reading ``verdict.worst`` -> shipped scenarios that a reducer
# returning the first minimum must flip.  The mechanics and Navier-Stokes
# reports carry no witness, and each of their expected FAILs stays above
# FAIL_FLOOR at every sample, so no shipped scenario sees it there.
REDUCER_READERS = {
    "invariance.checks.classify": ("classify_composite_norm_full",
                                   "classify_gradient_generic",
                                   "classify_z_tensor"),
    "invariance.ns.closure": ("closure_constant_phi2",),
    "invariance.mechanics": (),
    "invariance.ns.residual": (),
}


def _first_minimum(residuals):
    flat = np.ravel(residuals)
    i = int(np.argmin(flat))
    return float(flat[i]), i


@pytest.fixture
def fresh_classify_builds():
    """The classifiers cache their built expressions, the base spin
    included: clear them so no mutated value outlives its test."""
    for built in (classify_module._built, classify_module._built_full):
        built.cache_clear()
    yield
    for built in (classify_module._built, classify_module._built_full):
        built.cache_clear()


def expectation_met(name):
    report, code = run_scenario(SCENARIO_DIR / (name + ".json"),
                                no_timestamp=True)
    assert code == 0, report
    return report["expectation_met"]


@pytest.mark.parametrize("mutation", sorted(FRAME_MUTATIONS))
def test_frame_mutation_flips_shipped_verdicts(mutation, monkeypatch,
                                               fresh_classify_builds):
    mutate, scenarios = FRAME_MUTATIONS[mutation]
    assert all(expectation_met(name) for name in scenarios)
    at = fr.FrameChange.at

    def mutated(self, t, order=0, bindings=None):
        return mutate(*at(self, t, order, bindings), order)

    monkeypatch.setattr(fr.FrameChange, "at", mutated)
    classify_module._built.cache_clear()
    assert not any(expectation_met(name) for name in scenarios)


@pytest.mark.parametrize("mutation", sorted(NS_MUTATIONS))
def test_ns_mutation_flips_shipped_verdicts(mutation, monkeypatch):
    attr, value, scenarios = NS_MUTATIONS[mutation]
    assert all(expectation_met(name) for name in scenarios)
    monkeypatch.setattr(fr.NSSymmetry, attr, value)
    assert not any(expectation_met(name) for name in scenarios)


def test_reducer_mutation_flips_shipped_verdicts(monkeypatch):
    readers = {name for name, module in list(sys.modules.items())
               if name.startswith("invariance.") and module is not verdict
               and getattr(module, "worst", None) is verdict.worst}
    assert readers == set(REDUCER_READERS)
    scenarios = [s for names in REDUCER_READERS.values() for s in names]
    assert all(expectation_met(name) for name in scenarios)
    for name in readers:
        monkeypatch.setattr(sys.modules[name], "worst", _first_minimum)
    assert not any(expectation_met(name) for name in scenarios)


@pytest.mark.parametrize("residual, met", [
    (1e-6, False),            # the dead zone between tol and FAIL_FLOOR
    (float("nan"), False),
    (0.5, True),
    (float("inf"), True),
])
def test_expected_fail_needs_a_residual_above_the_floor(residual, met,
                                                        tmp_path,
                                                        monkeypatch):
    part = CheckPart.of(residual, 1e-9)
    assert not part.passed and meets(part, False) is met
    assert not meets(part, True)
    # a part passes only at a finite residual, whatever the tolerance
    assert CheckPart.of(residual, np.inf).passed is bool(np.isfinite(residual))

    def runner(payload, tol, seed):
        return {"tensor": CheckPart.of(residual, tol)}, {}
    monkeypatch.setitem(report.KINDS, "tensor", runner)
    path = tmp_path / "expected_fail.json"
    path.write_text(json.dumps({"schema": 1, "name": "expected_fail",
                                "kind": "tensor",
                                "expect": {"tensor": False}}))
    got, code = run_scenario(path, no_timestamp=True)
    assert code == 0 and got["parts"] == {"tensor": False}
    assert got["mismatches"] == ([] if met else ["tensor"])
    assert main(["check", str(path), "--strict"]) == (0 if met else 1)
    assert main(["check", str(path)]) == 0
