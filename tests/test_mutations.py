"""Mutation gate: a deliberately broken engine must flip a shipped verdict.

Each mutation monkeypatches one engine entry point in-process and reruns
the shipped scenarios it must flip.  A scenario flips when its
expectation is met on the intact engine and missed under the mutation.
A mutation that no shipped scenario can see is a finding about the
checks, not a test to skip.

Frame side: ``FrameChange.exprs`` gives every frame change's Q, c and
their time derivatives as expressions.  ``FrameChange.at`` evaluates
them for ``FrameChange.moved`` (the velocity rule of the mechanics checks,
the geometric suite and the closure screen's point map), for the
geometric suite's difference cases and for the classifiers' base spin.
The classifiers compose their point map, their rotated frame's spin and
their velocity offset with them, and each Navier-Stokes symmetry's frame
derives its inverse map, M and velocity offset from them.  Chart side:
``Chart.at`` gives a chart's Jacobian to the connection, the covariant
derivative and the geometric suite.  ``FrameChange.carry`` transports
the reference values of the mechanics checks, through
``ForceModel.carried``, and of every closure screen row.  Evaluator
side: ``dot`` is the one contraction rule of ``evaluate_many``.  Verdict
side: ``verdict.worst`` is the one reduction of residual arrays, which
``CheckPart.of`` applies to every check's residuals and which picks each
part's witness, and ``verdict.meets`` the one rule that judges an
expected outcome.
"""

import functools
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from invariance import expr as ex
from invariance import frames as fr
from invariance import mechanics as mech
from invariance import report
from invariance.checks import classify as classify_module
from invariance.checks import geometry as geo
from invariance.checks import verdict
from invariance.checks.verdict import CheckPart, meets
from invariance.ns import residual as ns_residual
from invariance.cli import main
from invariance.expr import (
    MAT, VEC, const, matrix_const, mul, transpose, zero,
)
from invariance.report import run_scenario
from invariance.sampling import DEFAULT_SEED

import loop_oracles as loops

SCENARIO_DIR = Path(str(resources.files("invariance") / "scenarios"))


def _zero_qdot(q, c, order):
    return (zero(MAT) if order == 1 else q), c


def _transpose_q(q, c, order):
    return (transpose(q) if order == 0 else q), c


def _triple_qdot(q, c, order):
    return (mul(const(3.0), q) if order == 1 else q), c


# name -> (change of the expressions (Q^(k), c^(k), k), shipped scenarios
# it must flip).  The classifiers build their rotation's Q and spin
# Q Qdot^T once, on import, so a mutation reaches their point map and
# velocity offset only: a tripled Qdot then disagrees with the spin,
# which the relative quantities see.
FRAME_MUTATIONS = {
    "zero_qdot": (_zero_qdot, ("classify_velocity",
                               "classify_velocity_relative",
                               "classify_vorticity",
                               "classify_vorticity_relative",
                               "geometric_suite", "mech_noninertial_closure",
                               "ns_s6_rotation_taylor_green")),
    "transpose_q": (_transpose_q, ("classify_composite_norm_explicit",
                                   "classify_gradient_generic",
                                   "classify_gradient_isotropic",
                                   "classify_hessian", "classify_strain_rate",
                                   "classify_velocity_relative",
                                   "classify_vorticity_relative",
                                   "classify_z_tensor", "geometric_suite",
                                   "mech_noninertial_closure",
                                   "ns_s6_rotation_taylor_green")),
    "triple_qdot": (_triple_qdot, ("classify_velocity_relative",
                                   "classify_vorticity_relative",
                                   "geometric_suite",
                                   "mech_noninertial_closure",
                                   "ns_s6_rotation_taylor_green")),
}

# shipped scenarios that a chart Jacobian scaled by 1.7 in ``Chart.at``
# must flip: the connection, the covariant derivative and the geometric
# suite's curvilinear differential read it
SCALED_JACOBIAN = ("christoffel_cylindrical", "christoffel_spherical",
                   "covariant_derivative_spherical", "geometric_suite")


# name -> (patched class, attribute, its mutated value, shipped scenarios
# it must flip).  The velocity offset and M belong to the map, the
# ``FrameChange``; the scales s and nu action to the symmetry.  Without
# the velocity offset the bare mean velocity transforms as <u> - u0 does,
# so the G row passes it; the classifiers' velocity rule reads the same
# offset.  A unit velocity scale moves the transformed mean flow but not
# the carried u0, which the scaling rows see.
NS_MUTATIONS = {
    "zero_velocity_offset": (fr.FrameChange, "velocity_offset",
                             lambda self: zero(VEC),
                             ("classify_velocity",
                              "classify_velocity_relative",
                              "classify_vorticity",
                              "classify_vorticity_relative",
                              "closure_bare_mean_velocity",
                              "closure_compliant", "ns_galilei_beltrami",
                              "ns_s2_acceleration_beltrami",
                              "ns_s6_rotation_taylor_green")),
    "identity_m": (fr.FrameChange, "matrix",
                   lambda self: matrix_const(np.eye(3)),
                   ("closure_compliant", "ns_galilei_beltrami",
                    "ns_s3_reflection_beltrami",
                    "ns_s6_rotation_taylor_green")),
    "unit_nu_action": (fr.NSSymmetry, "nu_action",
                       property(lambda self: 1.0),
                       ("closure_compliant", "ns_s4_time_reversal_beltrami")),
    "unit_s": (fr.NSSymmetry, "s", property(lambda self: 1.0),
               ("closure_compliant",)),
}

# shipped scenarios that a carried reference velocity without c' must
# flip: only the G row sees it, since no shipped mechanics check runs a
# law that reads xdot - v0r under a frame with a moving origin (the
# decaying spring below does)
DROPPED_C_DOT = ("closure_compliant",)


# shipped scenarios that a dot without its last product must flip: the
# classifiers' tensor rules and the rotating frame's K^2 sum through it
DROPPED_DOT_PRODUCT = ("classify_scalar_isotropic", "classify_strain_rate",
                       "mech_noninertial_closure")


def _dot_without_last_product(v, env, ab, ijk):
    x, y = v[ab[0]], v[ab[1]]
    i, j, _ = ijk
    return x[i] * y[0] + x[j] * y[1]


# module reading ``verdict.worst`` -> shipped scenarios that a reducer
# returning the first minimum must flip; the three are patched together.
# ``CheckPart.of`` reduces every check's residuals through the verdict
# module's ``worst``.  Each mechanics, Navier-Stokes and closure expected
# FAIL stays above FAIL_FLOOR at every sample, so those reports are gated
# on their witnesses instead (``WITNESS_GATED``); the decomposed scenarios
# expect only PASS, which a smaller residual keeps.  The closure screen
# reads ``worst`` only to name the mean flow of its witness.
REDUCER_READERS = {
    "invariance.checks.verdict": ("covariant_derivative_spherical",),
    "invariance.checks.classify": ("classify_composite_norm_full",
                                   "classify_gradient_generic",
                                   "classify_z_tensor"),
    "invariance.ns.closure": (),
}

# shipped scenarios whose reported witnesses must be the worst samples of
# a per-point loop wherever that worst stands clear of the other samples,
# and those where one does.  The absolute-velocity law under a boost has
# the same residual at every sample, so its worst is decided by the last
# bit (see ``TestBatchedChecksAgainstLoops``), and a PASS sits at
# rounding level.
WITNESS_GATED = tuple(sorted(
    p.stem for p in SCENARIO_DIR.glob("*.json")
    if p.stem.startswith(("closure_bare_", "closure_constant_",
                          "mech_frame_indifference_", "mech_noninertial_",
                          "ns_"))))
CLEAR_WITNESSES = ("closure_bare_mean_velocity", "closure_constant_phi2",
                   "mech_noninertial_drag_dropped",
                   "ns_r3d_negative_control")


def loop_samples(name):
    """{part: (residuals, witnesses)} of a gated scenario, one sample at a
    time, set up as ``report`` sets up its check."""
    doc = json.loads((SCENARIO_DIR / (name + ".json")).read_text())
    payload, seed = doc["payload"], doc.get("seed", DEFAULT_SEED)
    if doc["kind"] == "closure-screen":
        model = report.CLOSURE_MODELS[payload["model"]]()
        return {tag: loops.closure_row(model, tag, 200, seed)
                for tag in payload["tags"]}
    if doc["kind"] == "ns-symmetry":
        return {"symmetry": loops.ns_symmetry(
            ns_residual.SOLUTIONS[payload["solution"]](),
            report._parse_ns_spec(payload["symmetry"]), seed=seed)}
    model = report.MECHANICS_MODELS[payload["model"]](
        **payload.get("params", {}))
    if payload["check"] == "frame_indifference":
        return {"frame_indifference": loops.frame_indifference(
            model, loops.boost_parts(seed), seed=seed,
            transport_refs=payload.get("transport_refs", True))}
    rot = payload.get("rotation", {"axis": [0, 0, 1], "rate": 0.5})
    rotation = fr.RotationSpec(axis=rot["axis"], rate=float(rot["rate"]))
    ic = (np.array(payload.get("x0", [0.5, 0.2, 0.0])),
          np.array(payload.get("v0", [0.1, 0.0, 0.0])), 0.0)
    traj = mech.integrate(model, ic, payload["dt"], payload["steps"])
    drag = model.drag if payload["include_drag_term"] else 0.0
    return {"closure": loops.noninertial_closure(
        model, fr.FrameChange.euclidean(rotation=rotation), traj, drag,
        rotation, lambda t: (np.zeros(3),) * 3)}


@functools.lru_cache(maxsize=None)
def loop_witness(name):
    """{part: clear worst sample} of a gated scenario, over the parts
    where one sample stands clear."""
    clear = {part: loops.clear_witness(*found)
             for part, found in loop_samples(name).items()}
    return {part: w for part, w in clear.items() if w is not None}


def witnesses_agree(name):
    """For each clear loop witness of ``name``, whether the report names
    the same sample."""
    got, code = run_scenario(SCENARIO_DIR / (name + ".json"), None, None,
                             no_timestamp=True)
    assert code == 0, got
    reported = got["details"]["witness"]
    return [(reported[part]["t"], tuple(reported[part]["x"])) == w
            for part, w in loop_witness(name).items()]


def _first_minimum(residuals):
    flat = np.ravel(residuals)
    i = int(np.argmin(flat))
    return float(flat[i]), i


def clear_classify_builds():
    """The classifiers cache their built expressions, the base spin and
    the compared differences included: clear every cache of the module."""
    for value in vars(classify_module).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture
def fresh_classify_builds():
    """No classifier build outlives its test, so no mutated one does."""
    clear_classify_builds()
    yield
    clear_classify_builds()


def expectation_met(name):
    report, code = run_scenario(SCENARIO_DIR / (name + ".json"), None, None,
                                no_timestamp=True)
    assert code == 0, report
    return report["expectation_met"]


@pytest.mark.parametrize("mutation", sorted(FRAME_MUTATIONS))
def test_frame_mutation_flips_shipped_verdicts(mutation, monkeypatch,
                                               fresh_classify_builds):
    mutate, scenarios = FRAME_MUTATIONS[mutation]
    assert all(expectation_met(name) for name in scenarios)
    exprs = fr.FrameChange.exprs

    def mutated(self, order=0):
        return mutate(*exprs(self, order), order)

    monkeypatch.setattr(fr.FrameChange, "exprs", mutated)
    clear_classify_builds()
    assert not any(expectation_met(name) for name in scenarios)


def test_chart_jacobian_mutation_flips_shipped_verdicts(monkeypatch):
    assert all(expectation_met(name) for name in SCALED_JACOBIAN)
    at = geo.Chart.at

    def scaled(self, pts):
        x, b, d2 = at(self, pts)
        return x, 1.7 * b, d2

    monkeypatch.setattr(geo.Chart, "at", scaled)
    assert not any(expectation_met(name) for name in SCALED_JACOBIAN)


@pytest.mark.parametrize("mutation", sorted(NS_MUTATIONS))
def test_ns_mutation_flips_shipped_verdicts(mutation, monkeypatch,
                                            fresh_classify_builds):
    cls, attr, value, scenarios = NS_MUTATIONS[mutation]
    assert all(expectation_met(name) for name in scenarios)
    monkeypatch.setattr(cls, attr, value)
    clear_classify_builds()
    assert not any(expectation_met(name) for name in scenarios)


_CARRY = fr.FrameChange.carry
_CARRIED = mech.ForceModel.carried


def _carry_without_c_dot(self, x0, v0):
    # the same frame with its origin held still carries v0 as lam Q v0 / mu
    still = replace(self, c=zero(VEC))
    return _CARRY(self, x0, v0)[0], _CARRY(still, x0, v0)[1]


def _carried_without_tau(self, spec):
    return replace(_CARRIED(self, spec), t0r=self.t0r)


def test_reference_transport_mutation_flips_shipped_verdicts(monkeypatch):
    assert all(expectation_met(name) for name in DROPPED_C_DOT)
    monkeypatch.setattr(fr.FrameChange, "carry", _carry_without_c_dot)
    assert not any(expectation_met(name) for name in DROPPED_C_DOT)


def decaying_spring():
    """-2 exp(-w/2) dx - 0.7 dv about references off the origin: a law
    that reads every reference a frame carries.  No shipped model reads w
    or dv under a moving origin, so the shipped suite sees neither
    mutation below; this law's checks see both."""
    stiffness = ex.mul(ex.const(-2.0), ex.func(
        "exp", ex.mul(ex.const(-0.5), ex.sym("w"))))
    return mech.ForceModel.from_invariants(
        stiffness, ex.const(-0.7), x0r=(0.4, -0.3, 0.2),
        v0r=(0.1, 0.2, -0.1), t0r=0.5, drag=0.7)


# name -> (patched class, attribute, mutated value)
CARRIED_REFERENCE_MUTATIONS = {
    "carried_without_tau": (mech.ForceModel, "carried",
                            _carried_without_tau),
    "carry_without_c_dot": (fr.FrameChange, "carry", _carry_without_c_dot),
}


@pytest.mark.parametrize("seed", [1, 7, 101])
@pytest.mark.parametrize("mutation",
                         [None] + sorted(CARRIED_REFERENCE_MUTATIONS))
def test_reference_transport_mutation_fails_a_decaying_spring(
        mutation, seed, monkeypatch):
    # both checks agree to rounding on the intact engine, and each
    # mutation lifts both above the FAIL floor
    if mutation is not None:
        monkeypatch.setattr(*CARRIED_REFERENCE_MUTATIONS[mutation])
    model = decaying_spring()
    spec = fr.FrameChange.random_galilei(np.random.default_rng(seed))
    ic = (np.array([0.3, -0.2, 0.1]), np.array([0.2, 0.1, 0.0]), 0.0)
    parts = (mech.check_force_frame_indifference(model, spec, 1.2e-15, seed,
                                                 True),
             mech.check_galilei_covariance(model, spec, ic, 1e-2, 100,
                                           1.2e-15))
    for part in parts:
        assert meets(part, mutation is None), (mutation, part)


def test_contraction_mutation_flips_shipped_verdicts(monkeypatch,
                                                     drop_compiled):
    assert all(expectation_met(name) for name in DROPPED_DOT_PRODUCT)
    drop_compiled()
    monkeypatch.setitem(ex._STEPS, "dot", _dot_without_last_product)
    assert not any(expectation_met(name) for name in DROPPED_DOT_PRODUCT)


def test_reported_witnesses_are_the_loops_worst_samples():
    clear = tuple(name for name in WITNESS_GATED if loop_witness(name))
    assert clear == CLEAR_WITNESSES
    for name in clear:
        assert all(witnesses_agree(name)), name


def test_reducer_mutation_flips_shipped_verdicts(monkeypatch):
    readers = {name for name, module in list(sys.modules.items())
               if name.startswith("invariance.")
               and getattr(module, "worst", None) is verdict.worst}
    assert readers == set(REDUCER_READERS)
    scenarios = [s for names in REDUCER_READERS.values() for s in names]
    assert all(expectation_met(name) for name in scenarios)
    assert all(all(witnesses_agree(name)) for name in CLEAR_WITNESSES)
    for name in readers:
        monkeypatch.setattr(sys.modules[name], "worst", _first_minimum)
    assert not any(expectation_met(name) for name in scenarios)
    assert not any(any(witnesses_agree(name)) for name in CLEAR_WITNESSES)


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
    got, code = run_scenario(path, None, None, no_timestamp=True)
    assert code == 0 and got["parts"] == {"tensor": False}
    assert got["mismatches"] == ([] if met else ["tensor"])
    assert main(["check", str(path), "--strict"]) == (0 if met else 1)
    assert main(["check", str(path)]) == 0
