import numpy as np
import pytest

from invariance import frames as fr
from invariance import ns
from invariance.expr import SCALAR, parse_field_expr
from invariance.ns.closure import structural_check
from invariance.sampling import sample_points

ENSEMBLE = ns.Ensemble.random(1024)
ALL_DECOMPOSED = [
    ("G", lambda: fr.Galilei(
        c0=0.2, a_mat=fr.RotationSpec(axis=(0, 1, 1)).matrix(0.6),
        c1=(0.1, 0.0, -0.3))),
    ("S1", lambda: fr.Scaling(0.35)),
    ("S2", lambda: fr.AcceleratedShift([parse_field_expr(s) for s in
                                        ("t*t", "0.5*sin(t)", "0.0")])),
    ("S3", lambda: fr.Reflection(1)),
    ("S4", lambda: fr.TimeReversal()),
    ("S5", lambda: fr.EulerScaling(0.4)),
    ("S6", lambda: fr.PlanarRotation(0.7)),
    ("R3D", lambda: fr.Rotation3D(axis=(1.0, 0.0, 1.0), rate=0.5)),
]


class TestEnsemble:
    def test_members_are_solenoidal(self):
        _, x = sample_points(50)
        assert np.max(np.abs(ENSEMBLE.divergence(x))) < 1e-12

    def test_fluctuation_mean_vanishes(self):
        _, x = sample_points(100)
        fluct = ENSEMBLE.fluctuations(x)
        assert np.max(np.abs(fluct.mean(axis=0))) < 1e-10

    def test_tau_is_symmetric_positive_semidefinite(self):
        _, x = sample_points(50)
        tau = ns.reynolds_tau(ENSEMBLE.fluctuations(x))
        assert np.max(np.abs(tau - np.transpose(tau, (1, 0, 2)))) < 1e-14
        eigs = np.linalg.eigvalsh(np.moveaxis(tau, 2, 0))
        assert np.min(eigs) > -1e-12

    def test_two_member_analytic_oracle(self):
        # two opposite constant members +/-(1,0,0): mean is zero and
        # tau must be exactly diag(1, 0, 0)
        fluct = np.zeros((2, 3, 5))
        fluct[0, 0] = 1.0
        fluct[1, 0] = -1.0
        tau = ns.reynolds_tau(fluct)
        expected = np.zeros((3, 3, 5))
        expected[0, 0] = 1.0
        assert np.array_equal(tau, expected)


class TestDecomposedSymmetries:
    @pytest.mark.parametrize("tag,make", ALL_DECOMPOSED)
    def test_tau_follows_tensor_rule(self, tag, make):
        v = ns.check_decomposed_symmetry(ENSEMBLE, make(), tol=1e-12)
        assert v.symmetry.passed, tag
        assert v.symmetry.residual < 1e-12

    def test_reflection_flips_off_diagonal_sign(self):
        # componentwise oracle: reflecting axis 1 negates tau^{12}, tau^{13}
        _, x = sample_points(40)
        fluct = ENSEMBLE.fluctuations(x)
        tau = ns.reynolds_tau(fluct)
        refl = np.diag([-1.0, 1.0, 1.0])
        reflected = ns.reynolds_tau(np.einsum("ij,njp->nip", refl, fluct))
        assert np.max(np.abs(reflected[0, 1] + tau[0, 1])) < 1e-14
        assert np.max(np.abs(reflected[0, 2] + tau[0, 2])) < 1e-14
        assert np.max(np.abs(reflected[1, 2] - tau[1, 2])) < 1e-14

    def test_s1_scaling_factor_on_tau(self):
        # tau scales by exp(-2 eps) when fluctuations scale by exp(-eps)
        _, x = sample_points(40)
        fluct = ENSEMBLE.fluctuations(x)
        tau = ns.reynolds_tau(fluct)
        eps = 0.35
        scaled = ns.reynolds_tau(np.exp(-eps) * fluct)
        assert np.max(np.abs(scaled - np.exp(-2 * eps) * tau)) < 1e-12

    def test_decomposition_preserved_after_transform(self):
        # transformed fluctuations still average to zero pointwise
        t, x = sample_points(60)
        fluct = ENSEMBLE.fluctuations(x)
        for tag, make in ALL_DECOMPOSED:
            spec = make()
            from invariance.ns.ensemble import (_fluctuation_action,
                                                _apply)
            mat, scale = _fluctuation_action(spec, t)
            moved = scale * _apply(np.asarray(mat, float), fluct)
            assert np.max(np.abs(moved.mean(axis=0))) < 1e-10, tag


class TestClosureScreening:
    def test_compliant_model_passes_required_rows(self):
        reports = ns.screen_closure(
            ns.compliant_model(),
            tags=("G", "S1", "S3", "S4", "S6approx"))
        for tag, v in reports.items():
            assert v.symmetry.passed, tag

    def test_constant_phi2_fails_time_reversal(self):
        reports = ns.screen_closure(ns.constant_phi2_model(),
                                    tags=("S4",))
        assert not reports["S4"].symmetry.passed
        assert reports["S4"].symmetry.residual > 1e-3

    def test_nu_phi2_passes_time_reversal(self):
        reports = ns.screen_closure(ns.nu_phi2_model(), tags=("S4",))
        assert reports["S4"].symmetry.passed

    def test_bare_mean_velocity_fails_galilei(self):
        reports = ns.screen_closure(ns.bare_mean_velocity_model(),
                                    tags=("G",))
        assert not reports["G"].symmetry.passed

    def test_structural_check_names_offender(self):
        ok, offenders = structural_check(ns.bare_mean_velocity_model())
        assert not ok and offenders
        ok, offenders = structural_check(ns.compliant_model())
        assert ok and not offenders

    def test_compliant_two_d_limit(self):
        model = ns.compliant_model()
        reports = ns.screen_closure(model, tags=("S6approx",))
        assert reports["S6approx"].symmetry.passed

    def test_nonfinite_residual_fails_with_witness(self):
        # phi4 = exp(800 q) overflows to inf on both sides of the S1
        # comparison; inf - inf is NaN, which must fail, not vanish
        base = ns.compliant_model()
        phi = list(base.phi)
        phi[3] = parse_field_expr("exp(800.0*q)", {"q": SCALAR})
        model = ns.ClosureModel(name="overflow", phi=tuple(phi),
                                two_d_limit=base.two_d_limit)
        with pytest.warns(RuntimeWarning):
            v = ns.screen_closure(model, tags=("S1",))["S1"]
        assert not v.symmetry.passed
        assert not np.isfinite(v.symmetry.residual)
        q = float(v.notes[-1].split("q=")[1])
        assert 800.0 * q > np.log(np.finfo(float).max)
