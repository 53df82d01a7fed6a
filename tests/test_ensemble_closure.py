import tracemalloc

import numpy as np
import pytest

from invariance import expr as ex
from invariance import frames as fr
from invariance import ns
from invariance.ns import closure
from invariance.ns import ensemble as en
from invariance.checks.verdict import FAIL_FLOOR
from invariance.expr import SCALAR, parse_field_expr
from invariance.sampling import DEFAULT_SEED, sample_points

import frame_oracle as oracle
import loop_oracles as loops

ENSEMBLE = ns.Ensemble.random(1024, DEFAULT_SEED)
ALL_DECOMPOSED = [
    ("G", lambda: fr.Galilei(
        c0=0.2, a_mat=oracle.matrix(fr.RotationSpec(axis=(0, 1, 1)), 0.6),
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


def member_divergence(ensemble, x):
    """Member-wise div u' of the modes amp cos(k . x + phase), (N, P)."""
    arg = ensemble.k.T @ x + ensemble.phase[:, None]
    coef = np.einsum("in,in->n", ensemble.k, ensemble.amp)
    return -coef[:, None] * np.sin(arg)


class TestEnsemble:
    def test_members_are_solenoidal(self):
        _, x = sample_points(50)
        assert np.max(np.abs(member_divergence(ENSEMBLE, x))) < 1e-12

    def test_fluctuation_mean_vanishes(self):
        _, x = sample_points(100)
        fluct = ENSEMBLE.fluctuations(x)
        assert np.max(np.abs(fluct.mean(axis=2))) < 1e-10

    def test_tau_is_symmetric_positive_semidefinite(self):
        _, x = sample_points(50)
        tau = ns.reynolds_tau(ENSEMBLE.fluctuations(x))
        assert np.max(np.abs(tau - np.transpose(tau, (0, 2, 1)))) < 1e-14
        eigs = np.linalg.eigvalsh(tau)
        assert np.min(eigs) > -1e-12

    def test_two_member_analytic_oracle(self):
        # two opposite constant members +/-(1,0,0): mean is zero and
        # tau must be exactly diag(1, 0, 0)
        fluct = np.zeros((5, 3, 2))
        fluct[:, 0, 0] = 1.0
        fluct[:, 0, 1] = -1.0
        tau = ns.reynolds_tau(fluct)
        expected = np.zeros((5, 3, 3))
        expected[:, 0, 0] = 1.0
        assert np.array_equal(tau, expected)


class TestDecomposedSymmetries:
    @pytest.mark.parametrize("tag,make", ALL_DECOMPOSED)
    def test_tau_follows_tensor_rule(self, tag, make):
        v = ns.check_decomposed_symmetry(ENSEMBLE, make(), 1e-12,
                                         DEFAULT_SEED)
        assert v.passed, tag
        assert v.residual < 1e-12

    def test_reflection_flips_off_diagonal_sign(self):
        # componentwise oracle: reflecting axis 1 negates tau^{12}, tau^{13}
        _, x = sample_points(40)
        fluct = ENSEMBLE.fluctuations(x)
        tau = ns.reynolds_tau(fluct)
        refl = np.diag([-1.0, 1.0, 1.0])
        reflected = ns.reynolds_tau(refl @ fluct)
        assert np.max(np.abs(reflected[:, 0, 1] + tau[:, 0, 1])) < 1e-14
        assert np.max(np.abs(reflected[:, 0, 2] + tau[:, 0, 2])) < 1e-14
        assert np.max(np.abs(reflected[:, 1, 2] - tau[:, 1, 2])) < 1e-14

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
            mat, scale = en._fluctuation_action(spec, t)
            moved = scale * (mat @ fluct)
            assert np.max(np.abs(moved.mean(axis=2))) < 1e-10, tag


def one_pass_decomposed(ensemble, spec, n_points):
    """The decomposed check's residual and note from one pass over all
    points at once, every (points, 3, members) array whole."""
    t, x = sample_points(n_points)
    fluct = ensemble.fluctuations(x)
    tau = ns.reynolds_tau(fluct)
    mat, scale = en._fluctuation_action(spec, t)
    tau_direct = ns.reynolds_tau(scale * (mat @ fluct))
    tau_rule = scale * scale * (mat @ tau @ mat.transpose(0, 2, 1))
    mean_norm = float(np.max(np.abs(fluct.mean(axis=2))))
    return (float(np.max(np.abs(tau_direct - tau_rule))),
            ("fluctuation mean max-norm %.3e" % mean_norm,))


class TestBlockedDecomposedCheck:
    """The check walks the points in blocks; one pass over all points at
    once is the oracle, bit for bit."""

    SPECS = [("S1", lambda: fr.Scaling(0.3)),
             ("S6", lambda: fr.PlanarRotation(0.8))] + ALL_DECOMPOSED[-1:]

    @staticmethod
    def block_widths(monkeypatch):
        """The number of points of each block the check evaluates."""
        widths = []
        fluctuations = ns.Ensemble.fluctuations

        def counting(self, x_arr):
            widths.append(x_arr.shape[1])
            return fluctuations(self, x_arr)

        monkeypatch.setattr(ns.Ensemble, "fluctuations", counting)
        return widths

    @pytest.mark.parametrize("members", (1, 2048, 4096))
    @pytest.mark.parametrize("tag,make", SPECS)
    def test_blocks_equal_one_pass(self, members, tag, make, monkeypatch):
        ensemble = ns.Ensemble.random(members, DEFAULT_SEED)
        spec = make()
        want = one_pass_decomposed(ensemble, spec, 203)
        widths = self.block_widths(monkeypatch)
        v = ns.check_decomposed_symmetry(ensemble, spec, 1e-12, DEFAULT_SEED,
                                         n_points=203)
        assert sum(widths) == 203
        # 203 points end in a partial block once there are blocks at all;
        # at 4096 members a block is 2 points, and the one-point tail
        # joins the block before it
        step = max(2, en._BLOCK_DOUBLES // (3 * members))
        full, tail = divmod(203, step)
        assert widths == ([step] * full + [tail] if tail != 1
                          else [step] * (full - 1) + [step + 1])
        assert np.float64(v.residual).tobytes() \
            == np.float64(want[0]).tobytes(), tag
        assert v.notes == want[1]

    def test_a_one_point_tail_joins_the_block_before(self, monkeypatch):
        # numpy rounds a one-point block on other paths than a wider one
        ensemble = ns.Ensemble.random(2048, DEFAULT_SEED)
        step = en._BLOCK_DOUBLES // (3 * 2048)
        want = one_pass_decomposed(ensemble, fr.Scaling(0.3), 2 * step + 1)
        widths = self.block_widths(monkeypatch)
        v = ns.check_decomposed_symmetry(ensemble, fr.Scaling(0.3), 1e-12,
                                         DEFAULT_SEED, n_points=2 * step + 1)
        assert widths == [step, step + 1]
        assert (v.residual, v.notes) == want

    def test_peak_memory_is_a_few_blocks(self):
        # the one-pass check held three (2048, 3, 200) arrays, 9.8 MB
        # each, and peaked near 22 MB; (members, 3, points) blocks of
        # 2**17 doubles peaked near 3.5 MB, and (points, 3, members)
        # blocks of 2**15 doubles peak under 1 MB
        spec = fr.PlanarRotation(0.8)
        # the shipped scenarios' members, and the kind's default
        for members in (2048, 4096):
            ensemble = ns.Ensemble.random(members, DEFAULT_SEED)
            # warm the caches
            ns.check_decomposed_symmetry(ensemble, spec, 1e-12, DEFAULT_SEED)
            tracemalloc.start()
            try:
                ns.check_decomposed_symmetry(ensemble, spec, 1e-12,
                                             DEFAULT_SEED)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.5e6, members

    def test_member_arrays_are_contiguous(self):
        # np.cross returns a strided view; a product of it inherits the
        # layout and made the member sums about 15 times slower
        ensemble = ns.Ensemble.random(2048, DEFAULT_SEED)
        for arr in (ensemble.k, ensemble.amp, ensemble.phase):
            assert arr.flags.c_contiguous
        _, x = sample_points(5)
        fluct = ensemble.fluctuations(x)
        assert fluct.shape == (5, 3, 2048)
        assert fluct.flags.c_contiguous


def screen(model, tags, seed=DEFAULT_SEED, **kw):
    """The closure screen at the shipped scenarios' tolerance."""
    return ns.screen_closure(model, tags, 1e-10, seed, **kw)


class TestClosureScreening:
    def test_compliant_model_passes_required_rows(self):
        reports = screen(ns.compliant_model(),
                         ("G", "S1", "S3", "S4", "S6approx"))
        for tag, v in reports.items():
            assert v.passed, tag

    def test_constant_phi2_fails_time_reversal(self):
        reports = screen(ns.constant_phi2_model(), ("S4",))
        assert not reports["S4"].passed
        assert reports["S4"].residual > 1e-3

    def test_nu_phi2_passes_time_reversal(self):
        reports = screen(ns.nu_phi2_model(), ("S4",))
        assert reports["S4"].passed

    def test_bare_mean_velocity_fails_galilei(self):
        reports = screen(ns.bare_mean_velocity_model(), ("G",))
        assert not reports["G"].passed

    @pytest.mark.parametrize("seed", (0xC0FFEE, 1, 7))
    @pytest.mark.parametrize("factory", (ns.compliant_model,
                                         ns.constant_phi2_model,
                                         ns.nu_phi2_model))
    def test_galilei_row_passes_at_rounding(self, factory, seed):
        v = screen(factory(), ("G",), seed=seed)["G"]
        assert v.passed and v.residual <= 1e-12

    @pytest.mark.parametrize("tag", ("G", "S1", "S3", "S4"))
    def test_oracle_passes_the_compliant_model(self, tag):
        residuals = loops.closure_row(ns.compliant_model(), tag, 40, 1)[0]
        assert np.max(residuals) <= 1e-12

    @pytest.mark.parametrize("seed", (0xC0FFEE, 1, 7))
    @pytest.mark.parametrize("factory,tag", (
        (ns.bare_mean_velocity_model, "G"), (ns.constant_phi2_model, "S1"),
        (ns.constant_phi2_model, "S4"), (ns.nu_phi2_model, "S1"),
        (ns.compliant_model, "S5approx")))
    def test_failing_row_is_the_oracles_and_names_its_sample(
            self, factory, tag, seed):
        n = 40
        v = screen(factory(), (tag,), seed=seed, n_samples=n)[tag]
        assert not v.passed
        assert FAIL_FLOOR < v.residual < np.inf
        residuals, witnesses = loops.closure_row(factory(), tag, n, seed)
        k = int(np.argmax(residuals))
        assert v.residual == pytest.approx(residuals[k], rel=1e-10)
        assert v.notes[-1] == ("worst residual on %s"
                               % loops.CLOSURE_FLOWS[k // n])
        assert v.witness == witnesses[k]

    @pytest.mark.parametrize("factory", (
        ns.compliant_model, ns.constant_phi2_model, ns.nu_phi2_model,
        ns.bare_mean_velocity_model))
    def test_reflection_row_reads_zero_and_says_why(self, factory):
        # every argument is an invariant and a sign flip is exact, so no
        # model of this ansatz can fail a reflection
        v = screen(factory(), ("S3",))["S3"]
        assert v.residual == 0.0 and v.witness is not None
        assert "cannot express a reflection defect" in v.notes[0]

    def test_compliant_two_d_limit(self):
        v = screen(ns.compliant_model(), ("S6approx",))["S6approx"]
        assert v.passed and v.witness is not None
        assert v.notes == ("reads the declared planar limits (two_d_limit): "
                           "phi2 == phi4 == 0, not judged under S6",)

    def test_undeclared_two_d_limit_reads_the_coefficients(self):
        # without declared limits, phi2 = 0.5 and phi4 = 0.3 stand
        base = ns.constant_phi2_model()
        model = ns.ClosureModel(name="no_limit", phi=base.phi)
        v = screen(model, ("S6approx",))["S6approx"]
        assert not v.passed and v.residual == pytest.approx(0.8)
        assert v.witness is not None

    def test_each_untransformed_ansatz_compiles_once(self, monkeypatch,
                                                     drop_compiled):
        # every evaluated row compares with the ansatz over the same
        # untransformed mean flows, which one screen builds and holds
        model, build, compiled = ns.compliant_model(), ex._build_tape, []

        def counting(root):
            # matched against a rebuilt ansatz, not held: holding the root
            # would keep its tape alive between the rows
            for name in loops.CLOSURE_FLOWS:
                state = ns.SOLUTIONS[name]()
                v = closure._ansatz(model, state.u, state.nu, closure.T0,
                                    closure.X0, closure.U0)[0]
                if ex.expand_derivatives(v) is root:
                    compiled.append(name)
            return build(root)

        monkeypatch.setattr(ex, "_build_tape", counting)
        screen(model, closure.TAGS, n_samples=10)
        assert sorted(compiled) == sorted(loops.CLOSURE_FLOWS)

    def test_nonfinite_residual_fails_with_witness(self):
        # phi4 = exp(800 q) overflows to inf on both sides of the S1
        # comparison; inf - inf is NaN, which must fail, not vanish
        base = ns.compliant_model()
        phi = list(base.phi)
        phi[3] = parse_field_expr("exp(800.0*q)", {"q": SCALAR})
        model = ns.ClosureModel(name="overflow", phi=tuple(phi),
                                two_d_limit=base.two_d_limit)
        n = 40
        with pytest.warns(RuntimeWarning):
            v = screen(model, ("S1",), n_samples=n)["S1"]
        assert not v.passed
        assert not np.isfinite(v.residual)
        with pytest.warns(RuntimeWarning):
            residuals, witnesses = loops.closure_row(model, "S1", n,
                                                     DEFAULT_SEED)
        flow = loops.CLOSURE_FLOWS.index(v.notes[-1].split(" on ")[1])
        k = flow * n + witnesses[flow * n:].index(v.witness)
        assert np.isnan(residuals[k])
