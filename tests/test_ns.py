import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invariance import frames as fr
from invariance import ns
from invariance.sampling import sample_points

import frame_oracle as oracle


class TestSolutionLibrary:
    @pytest.mark.parametrize("name", sorted(ns.SOLUTIONS))
    def test_certified_exact(self, name):
        assert ns.certify(ns.SOLUTIONS[name]()) < 1e-10

    def test_taylor_green_stream_function_relations(self):
        # d1 psi = -u^2, d2 psi = u^1 must hold identically
        from invariance import expr as ex
        state = ns.taylor_green()
        t, x = sample_points(50)
        psi = ex.expand_derivatives(state.psi)
        g = ex.evaluate_many(ex.expand_derivatives(ex.grad(
            state.psi)), t, x)
        u = ex.evaluate_many(state.u, t, x)
        assert np.max(np.abs(g[0] + u[1])) < 1e-12
        assert np.max(np.abs(g[1] - u[0])) < 1e-12

    def test_certify_rejects_broken_state(self):
        from dataclasses import replace
        state = ns.taylor_green()
        broken = replace(state, nu=state.nu * 2.0)
        with pytest.raises(ValueError):
            ns.certify(broken)


def galilei_spec():
    a = oracle.matrix(fr.RotationSpec(axis=(1.0, 1.0, 0.0)), 0.7)
    return fr.Galilei(c0=0.3, a_mat=a, c1=(0.2, -0.1, 0.4),
                         c2=(0.05, 0.0, -0.02))


class TestSymmetryVerdicts:
    def test_galilei_passes(self):
        v = ns.check_ns_symmetry(ns.beltrami(), galilei_spec(), tol=1e-8)
        assert v.symmetry.passed and v.symmetry.residual < 1e-8

    def test_s1_scaling_passes(self):
        v = ns.check_ns_symmetry(ns.beltrami(), fr.Scaling(0.4), tol=1e-8)
        assert v.symmetry.passed

    def test_s2_accelerating_shift_passes(self):
        from invariance import expr as ex
        f = [ex.parse_field_expr(s) for s in
             ("0.5*t*t", "sin(t)", "0.0")]
        v = ns.check_ns_symmetry(ns.beltrami(), fr.AcceleratedShift(f),
                                 tol=1e-8)
        assert v.symmetry.passed

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_s3_reflection_passes(self, axis):
        v = ns.check_ns_symmetry(ns.beltrami(), fr.Reflection(axis), tol=1e-8)
        assert v.symmetry.passed

    def test_s4_time_reversal_passes(self):
        v = ns.check_ns_symmetry(ns.beltrami(), fr.TimeReversal(), tol=1e-8)
        assert v.symmetry.passed

    def test_s5_passes_on_euler_only(self):
        v = ns.check_ns_symmetry(ns.beltrami(nu=0.0), fr.EulerScaling(0.25),
                                 tol=1e-8)
        assert v.symmetry.passed
        with pytest.raises(ValueError):
            ns.check_ns_symmetry(ns.beltrami(), fr.EulerScaling(0.25))

    def test_s6_rotation_with_regauge_passes_on_taylor_green(self):
        v = ns.check_ns_symmetry(ns.taylor_green(), fr.PlanarRotation(0.8),
                                 tol=1e-8)
        assert v.symmetry.passed and v.symmetry.residual < 1e-8

    def test_s6_requires_2d(self):
        with pytest.raises(ValueError):
            ns.check_ns_symmetry(ns.beltrami(), fr.PlanarRotation(0.8))

    def test_r3d_negative_control_fails(self):
        spec = fr.Rotation3D(axis=(0.0, 1.0, 1.0), rate=0.9)
        v = ns.check_ns_symmetry(ns.beltrami(), spec, tol=1e-8)
        assert not v.symmetry.passed and v.symmetry.residual > 1e-2
        assert any("negative control" in n for n in v.notes)

    def test_viscosity_flips_sign_under_time_reversal(self):
        transformed = ns.transform_flow(ns.beltrami(), fr.TimeReversal())
        assert transformed.nu == -ns.beltrami().nu


class TestDeadZoneProperty:
    @settings(max_examples=10, deadline=None)
    @given(eps=st.floats(min_value=-0.8, max_value=0.8),
           omega=st.floats(min_value=-1.5, max_value=1.5))
    def test_verdicts_sit_outside_the_tolerance_band(self, eps, omega):
        # residuals are either machine-level or macroscopic, never in
        # the ambiguous band between the PASS and FAIL thresholds
        tg = ns.taylor_green()
        for spec in (fr.Scaling(eps), fr.PlanarRotation(omega)):
            v = ns.check_ns_symmetry(tg, spec, n_points=50, tol=1e-8)
            assert v.symmetry.residual < 1e-8
        bad = fr.Rotation3D(axis=(1.0, 0.0, 0.5), rate=1.0 + abs(omega))
        v = ns.check_ns_symmetry(ns.beltrami(), bad, n_points=50, tol=1e-8)
        assert v.symmetry.residual > 1e-3

    def test_one_parameter_group_composition(self):
        # S1(e1) then S1(e2) equals S1(e1+e2) on the check level
        t, x = sample_points(30)
        once = ns.transform_flow(ns.transform_flow(ns.beltrami(),
                                                   fr.Scaling(0.2)),
                                 fr.Scaling(0.3))
        direct = ns.transform_flow(ns.beltrami(), fr.Scaling(0.5))
        from invariance import expr as ex
        d_u = (ex.evaluate_many(once.u, t, x)
               - ex.evaluate_many(direct.u, t, x))
        assert np.max(np.abs(d_u)) < 1e-12
        assert abs(once.nu - direct.nu) < 1e-14
