"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from invariance import checks as ck
from invariance import expr as ex
from invariance import frames as fr
from invariance import mechanics as mech
from invariance import ns
from invariance.checks.verdict import meets
from invariance.report import run_suite
from invariance.sampling import DEFAULT_SEED, sample_points

import frame_oracle as oracle
from defect_oracle import form_invariance_defect

SPECS_100 = ck.random_rotations(100, seed=0x507A)
SCENARIO_DIR = Path(str(resources.files("invariance") / "scenarios"))
# ``invariance suite src/invariance/scenarios --json --no-timestamp``
GOLDEN_SUITE = Path(__file__).parent / "golden" / "suite.json"


def report(n, ok, detail):
    print("ACCEPTANCE %d: %s — %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok


def test_criterion_1_classification_matrix():
    # expected (tensor, objective) legs; None = not applicable,
    # "relative" marks the relatively-objective quantities
    table = [
        ("phi(|x|)", ck.scalar_quantity(), True, True, None),
        ("grad phi generic", ck.gradient_quantity(), True, False, None),
        ("grad phi isotropic",
         ck.gradient_quantity(ck.ISOTROPIC_SCALAR), True, True, None),
        ("u", ck.velocity_quantity(), False, False, None),
        ("u_Omega", ck.velocity_relative_quantity(), True, False, True),
        ("S", ck.strain_rate_quantity(), True, True, None),
        ("W", ck.vorticity_quantity(), False, False, None),
        ("W(L_Omega)", ck.vorticity_relative_quantity(), True, False, True),
        ("Z", ck.z_tensor_quantity(), True, False, None),
    ]
    worst_pass, worst_fail_floor = 0.0, np.inf
    for name, q, want_tensor, want_obj, want_rel in table:
        v = ck.classify(q, SPECS_100, 1e-9, DEFAULT_SEED)
        legs = [(v["tensor"], want_tensor), (v["objective"], want_obj)]
        if want_rel is not None:
            legs.append((v["relative_objective"], want_rel))
        for part, want in legs:
            assert part.passed == want, (name, part)
            if want:
                worst_pass = max(worst_pass, part.residual)
            else:
                worst_fail_floor = min(worst_fail_floor, part.residual)
    ok = worst_pass < 1e-9 and worst_fail_floor > 1e-3
    report(1, ok, "100 rotations x 200 points; PASS legs < %.1e, "
           "FAIL legs > %.1e" % (worst_pass, worst_fail_floor))


def test_criterion_2_vorticity_offset_identity():
    q = ck.vorticity_quantity()
    worst = 0.0
    for spec in SPECS_100[:20]:
        diff = form_invariance_defect(q, spec, DEFAULT_SEED)
        omega = oracle.spin(spec)
        worst = max(worst, float(np.max(np.abs(diff + omega[:, :, None]))))
    report(2, worst < 1e-10,
           "W~ - QWQ^T = -Omega componentwise to %.1e" % worst)


def test_criterion_3_christoffel_and_covariant_derivative():
    worst = 0.0
    for name in ("spherical", "cylindrical"):
        chart = ck.CHARTS[name]
        pts = chart.sample(50, DEFAULT_SEED)
        got = ck.christoffel_transform(*chart.at(pts)[1:])
        ref = ck.closed_form_christoffel(name, pts)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    phi = ex.parse_field_expr("dot(x, x) + sin(comp(x, 1))")
    out = ck.check_covariant_derivative(phi, ck.CHARTS["spherical"], 50,
                                        1e-9, DEFAULT_SEED)
    gap = out["partial"].residual - out["covariant"].residual
    ok = worst < 1e-9 and out["covariant"].passed and gap >= 1e-3
    report(3, ok, "Christoffel match %.1e; covariant/partial gap %.1e"
           % (worst, gap))


def test_criterion_4_geometric_suite():
    expect = json.loads((SCENARIO_DIR / "geometric_suite.json").read_text()
                        )["expect"]
    parts = ck.geometric_invariance_suite(100, 1e-10, DEFAULT_SEED)
    met = [case for case, want in expect.items() if meets(parts[case], want)]
    residual_4d = parts["four_d_velocity_tensor"].residual
    dependent = sorted(case for case, part in parts.items()
                       if not part.passed)
    ok = (set(parts) == set(expect) == set(met) and len(parts) == 5
          and dependent == ["curvilinear_point",
                            "time_dependent_3d_differential"]
          and residual_4d < 1e-10)
    report(4, ok, "%d/%d frame cases as stated, %d frame-dependent; "
           "4D velocity residual %.1e"
           % (len(met), len(parts), len(dependent), residual_4d))


def test_criterion_5_mechanics():
    dt = 1e-3
    traj = mech.integrate(mech.oscillator_model(),
                          (np.array([1.0, 0, 0]), np.zeros(3), 0.0),
                          dt, 10_000)
    osc_err = float(np.max(np.abs(traj.x[0] - np.cos(traj.t))))

    drop = mech.integrate(mech.drag_gravity_model(),
                          (np.zeros(3), np.zeros(3), 0.0), 5e-3, 4_000)
    term_err = abs(drop.v[2, -1] - (-1.0))

    rng = np.random.default_rng(0xCAFE)
    ic = (np.array([0.3, -0.2, 0.1]), np.array([0.2, 0.1, 0.0]), 0.0)
    cov_worst = 0.0
    for _ in range(20):
        spec = fr.FrameChange.random_galilei(rng)
        v = mech.check_galilei_covariance(mech.oscillator_model(), spec,
                                          ic, dt, 1_000, 10 * dt ** 4)
        cov_worst = max(cov_worst, v.residual)

    model = mech.drag_gravity_model()
    euclid = fr.FrameChange.euclidean(
        rotation=fr.RotationSpec(axis=(0.0, 0.0, 1.0), rate=0.5))
    base = mech.integrate(model, (np.array([0.5, 0.2, 0.0]),
                                  np.array([0.1, 0.0, 0.0]), 0.0),
                          2e-3, 1_500)
    closure = mech.check_noninertial_closure(model, euclid, base, 1e-5,
                                             include_drag_term=True)
    dropped = mech.check_noninertial_closure(model, euclid, base, 1e-5,
                                             include_drag_term=False)
    ok = (osc_err < 1e-8 and term_err < 1e-6
          and cov_worst < 10 * dt ** 4
          and closure.passed and not dropped.passed)
    report(5, ok, "oscillator %.1e; terminal %.1e; 20 Galilei specs "
           "< %.1e; closure %s / drag-dropped %s"
           % (osc_err, term_err, cov_worst,
              "PASS" if closure.passed else "FAIL",
              "FAIL" if not dropped.passed else "PASS"))


def test_criterion_6_ns_symmetry_verdicts():
    beltrami = ns.beltrami()
    a = oracle.matrix(fr.RotationSpec(axis=(1.0, 1.0, 0.0)), 0.7)
    passing = [
        fr.Galilei(c0=0.3, a_mat=a, c1=(0.2, -0.1, 0.4)),
        fr.Scaling(0.4),
        fr.AcceleratedShift([ex.parse_field_expr(s)
                  for s in ("0.5*t*t", "sin(t)", "0.0")]),
        fr.Reflection(2),
        fr.TimeReversal(),
    ]
    worst = 0.0
    for spec in passing:
        v = ns.check_ns_symmetry(beltrami, spec, 1e-8, DEFAULT_SEED)
        assert v.passed, spec.tag
        worst = max(worst, v.residual)
    s5 = ns.check_ns_symmetry(ns.beltrami(nu=0.0), fr.EulerScaling(0.25),
                              1e-8, DEFAULT_SEED)
    s6 = ns.check_ns_symmetry(ns.taylor_green(), fr.PlanarRotation(0.8),
                              1e-8, DEFAULT_SEED)
    neg = ns.check_ns_symmetry(beltrami,
                               fr.Rotation3D(axis=(0.0, 1.0, 1.0), rate=0.9),
                               1e-8, DEFAULT_SEED)
    ok = worst < 1e-8 and s5.passed and s6.passed and neg.residual > 1e-2
    report(6, ok, "G,S1-S4 < %.1e; S5(Euler) %.1e; S6(TG+regauge) %.1e; "
           "3D control %.1e" % (worst, s5.residual, s6.residual,
                                neg.residual))


def test_criterion_7_reynolds_decomposition():
    ensemble = ns.Ensemble.random(4096, DEFAULT_SEED)
    a = oracle.matrix(fr.RotationSpec(axis=(0.0, 1.0, 1.0)), 0.6)
    galilei = fr.Galilei(c0=0.2, a_mat=a, c1=(0.1, 0.0, -0.3))
    vg = ns.check_decomposed_symmetry(ensemble, galilei, 1e-13, DEFAULT_SEED)
    vs1 = ns.check_decomposed_symmetry(ensemble, fr.Scaling(0.35), 1e-12,
                                       DEFAULT_SEED)

    t, x = sample_points(100)
    mean_worst = 0.0
    listed = [galilei, fr.Scaling(0.35),
              fr.AcceleratedShift([ex.parse_field_expr(s)
                                   for s in ("t*t", "0.5*sin(t)", "0.0")]),
              fr.Reflection(0), fr.TimeReversal(), fr.EulerScaling(0.4),
              fr.PlanarRotation(0.7),
              fr.Rotation3D(axis=(1.0, 0.0, 1.0), rate=0.5)]
    from invariance.ns.ensemble import _fluctuation_action
    fluct = ensemble.fluctuations(x)
    for spec in listed:
        mat, scale = _fluctuation_action(spec, t)
        moved = scale * (mat @ fluct)
        mean_worst = max(mean_worst,
                         float(np.max(np.abs(moved.mean(axis=2)))))
    ok = vg.passed and vs1.passed and mean_worst < 1e-10
    report(7, ok, "G rule %.1e (machine); S1 rule %.1e (<1e-12); "
           "transformed fluctuation means < %.1e over %d symmetries"
           % (vg.residual, vs1.residual, mean_worst,
              len(listed)))


def test_criterion_8_closure_restriction_rows():
    def screen(model, tags):
        return ns.screen_closure(model, tags, 1e-10, DEFAULT_SEED)

    nu_row = screen(ns.nu_phi2_model(), ("S4",))
    const_row = screen(ns.constant_phi2_model(), ("S4",))
    bare_row = screen(ns.bare_mean_velocity_model(), ("G",))
    compliant = screen(ns.compliant_model(),
                       ("G", "S1", "S3", "S4", "S6approx"))
    ok = (nu_row["S4"].passed and not const_row["S4"].passed
          and not bare_row["G"].passed
          and all(v.passed for v in compliant.values()))
    report(8, ok, "phi2=c*nu passes S4; phi2=c fails S4; bare <u> fails "
           "G; compliant model passes {G,S1,S3,S4} + S6 2D limit")


def residual_class(value, tol):
    """rounding, converged (above rounding, within tol) or O(1); None for
    the dead zone between tol and the FAIL floor, and for NaN."""
    if value <= 1e-12:
        return "rounding"
    if value <= tol:
        return "converged"
    if value >= 1e-3:
        return "O(1)"
    return None


def golden_drift(reports, golden):
    """Differences from the golden suite: parts and expectations exactly,
    residuals by class."""
    got = {r["scenario"]: r for r in reports}
    drift = []
    want = {g["scenario"] for g in golden}
    if set(got) != want:
        drift.append("scenarios missing %s, added %s"
                     % (sorted(want - set(got)), sorted(set(got) - want)))
    for ref in golden:
        name = ref["scenario"]
        run = got.get(name)
        if run is None:
            continue
        for key in ("parts", "expectation_met"):
            if run.get(key) != ref[key]:
                drift.append("%s %s: %r != %r" % (name, key, run.get(key),
                                                  ref[key]))
        for part, value in ref["residuals"].items():
            now = run.get("residuals", {}).get(part, float("nan"))
            was_class = residual_class(value, ref["tolerance"])
            now_class = residual_class(now, run.get("tolerance", 0.0))
            if now_class is None or now_class != was_class:
                drift.append("%s %s residual %.3e (%s) was %.3e (%s)"
                             % (name, part, now, now_class, value,
                                was_class))
    return drift


def test_criterion_9_determinism():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    first, code1 = run_suite(paths, None, None, no_timestamp=True)
    second, code2 = run_suite(paths, None, None, no_timestamp=True, jobs=2)
    blob1 = json.dumps(first, sort_keys=True)
    blob2 = json.dumps(second, sort_keys=True)
    met = all(r.get("expectation_met") for r in first)
    drift = golden_drift(first, json.loads(GOLDEN_SUITE.read_text()))
    assert not drift, drift
    ok = blob1 == blob2 and code1 == code2 == 0 and met
    report(9, ok, "%d scenarios byte-identical between a serial and a "
           "2-process --no-timestamp run; all expectations met; verdicts and residual classes "
           "match tests/golden/suite.json" % len(paths))
