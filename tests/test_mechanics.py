import re
from dataclasses import replace

import numpy as np
import pytest

from invariance import expr as ex
from invariance import frames as fr
from invariance import mechanics as mech
from invariance import report

import frame_oracle as oracle

RNG = np.random.default_rng(0xD1CE)


class TestIntegration:
    def test_oscillator_matches_cosine(self):
        traj = mech.integrate(mech.oscillator_model(),
                              (np.array([1.0, 0, 0]), np.zeros(3), 0.0),
                              1e-3, 10_000)
        assert np.max(np.abs(traj.x[0] - np.cos(traj.t))) < 1e-8

    def test_oscillator_energy_conserved(self):
        traj = mech.integrate(mech.oscillator_model(),
                              (np.array([1.0, 0, 0]), np.zeros(3), 0.0),
                              1e-3, 5_000)
        energy = 0.5 * np.sum(traj.v ** 2, axis=0) \
            + 0.5 * np.sum(traj.x ** 2, axis=0)
        assert np.max(np.abs(energy - energy[0])) < 1e-10

    def test_drag_gravity_terminal_speed(self):
        traj = mech.integrate(mech.drag_gravity_model(),
                              (np.zeros(3), np.zeros(3), 0.0),
                              5e-3, 4_000)
        assert abs(traj.v[2, -1] - (-1.0)) < 1e-6

    def test_free_particle_is_a_straight_line(self):
        v0 = np.array([0.3, -0.1, 0.2])
        traj = mech.integrate(mech.free_model(), (np.zeros(3), v0, 0.0),
                              1e-2, 500)
        assert np.max(np.abs(traj.x - v0[:, None] * traj.t)) < 1e-12


class TestStructuralCheck:
    def test_accepts_relative_argument_models(self):
        for model in (mech.oscillator_model(), mech.drag_gravity_model(),
                      mech.free_model()):
            ok, offenders = mech.structural_force_check(model)
            assert ok and not offenders

    def test_rejects_absolute_argument_models(self):
        for model in (mech.absolute_velocity_model(),
                      mech.absolute_position_model(),
                      mech.time_scaled_position_model()):
            ok, offenders = mech.structural_force_check(model)
            assert not ok and offenders


class TestFrameIndifference:
    def random_spec(self):
        return fr.FrameChange.random_galilei(RNG)

    def test_oscillator_force_frame_indifferent(self):
        v = mech.check_force_frame_indifference(mech.oscillator_model(),
                                                self.random_spec())
        assert v.objective.passed and v.objective.residual < 1e-10

    def test_drag_gravity_force_frame_indifferent(self):
        v = mech.check_force_frame_indifference(mech.drag_gravity_model(),
                                                self.random_spec())
        assert v.objective.passed

    def test_absolute_velocity_force_fails_under_boost(self):
        spec = fr.FrameChange.galilei(v=np.array([1.0, 0, 0]))
        v = mech.check_force_frame_indifference(
            mech.absolute_velocity_model(), spec)
        assert not v.objective.passed
        # the defect is exactly the boost magnitude
        assert abs(v.objective.residual - 1.0) < 1e-12

    def test_frozen_references_break_frame_indifference(self):
        spec = fr.FrameChange.galilei(v=np.array([1.0, 0, 0]))
        v = mech.check_force_frame_indifference(
            mech.drag_gravity_model(), spec, transport_refs=False)
        assert not v.objective.passed and v.objective.residual > 1e-3


class TestGalileiCovariance:
    def test_twenty_random_specs(self):
        dt, steps = 1e-3, 1_000
        ic = (np.array([0.3, -0.2, 0.1]), np.array([0.2, 0.1, 0.0]), 0.0)
        for _ in range(20):
            spec = fr.FrameChange.random_galilei(RNG)
            v = mech.check_galilei_covariance(mech.oscillator_model(),
                                              spec, ic, dt, steps)
            assert v.objective.passed
            assert v.objective.residual < 10 * dt ** 4


class TestNoninertialClosure:
    def setup_method(self):
        self.model = mech.drag_gravity_model()
        self.spec = fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(0.0, 0.0, 1.0), rate=0.5))
        ic = (np.array([0.5, 0.2, 0.0]), np.array([0.1, 0.0, 0.0]), 0.0)
        self.traj = mech.integrate(self.model, ic, 2e-3, 1_500)

    def test_four_term_inertial_force_closes_the_balance(self):
        v = mech.check_noninertial_closure(self.model, self.spec,
                                           self.traj, drag_coeff=1.0)
        assert v.objective.passed and v.objective.residual < 1e-10

    def test_dropping_the_drag_term_breaks_it(self):
        v = mech.check_noninertial_closure(self.model, self.spec,
                                           self.traj, drag_coeff=1.0,
                                           include_drag_term=False)
        assert not v.objective.passed and v.objective.residual > 1e-3

    def test_drag_coeff_is_required(self):
        with pytest.raises(ValueError):
            mech.check_noninertial_closure(self.model, self.spec,
                                           self.traj)


class TestInertialForceOracles:
    def test_pure_translation_gives_m_cddot(self):
        # path c(t) = (t^2, 0, 0), no rotation: force is m*(2, 0, 0)
        path = (ex.parse_field_expr("t*t"), ex.const(0.0), ex.const(0.0))
        spec = fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(0, 0, 1), rate=0.0), path=path)
        got = mech.inertial_force(spec, 1.3, np.zeros(3), np.zeros(3),
                                  m=2.0)
        assert np.max(np.abs(got - np.array([4.0, 0.0, 0.0]))) < 1e-12

    def test_uniform_rotation_centrifugal_magnitude(self):
        # at rest in the rotating frame the residual inertial force is
        # centrifugal with magnitude m omega^2 r
        omega = 0.9
        spec = fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(0, 0, 1), rate=omega))
        x_star = np.array([1.5, 0.0, 0.0])
        got = mech.inertial_force(spec, 0.6, x_star, np.zeros(3), m=2.0)
        assert abs(np.linalg.norm(got) - 2.0 * omega ** 2 * 1.5) < 1e-12

    def test_inertial_frame_gives_zero(self):
        spec = fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(0, 0, 1), rate=0.0))
        got = mech.inertial_force(spec, 0.6, RNG.normal(size=3),
                                  RNG.normal(size=3), m=1.0, a=0.7)
        assert np.max(np.abs(got)) < 1e-14


class TestTrajectoryTransport:
    def test_galilei_transform_preserves_relative_separation_norm(self):
        ic = (np.array([0.4, 0.0, 0.1]), np.array([0.0, 0.2, 0.0]), 0.0)
        traj = mech.integrate(mech.oscillator_model(), ic, 1e-2, 200)
        spec = fr.FrameChange.random_galilei(RNG)
        moved = mech.transform_trajectory(traj, spec)
        x0r_at, _, _ = mech.transport_references(mech.oscillator_model(),
                                                 spec)
        sep_old = traj.x - np.zeros(3)[:, None]
        sep_new = moved.x - np.stack([x0r_at(tk) for tk in moved.t],
                                     axis=1)
        assert np.max(np.abs(np.linalg.norm(sep_new, axis=0)
                             - np.linalg.norm(sep_old, axis=0))) < 1e-10


ALL_MODELS = sorted(report.MECHANICS_MODELS.items()) + [
    ("free", mech.free_model),
    ("absolute_position", mech.absolute_position_model),
    ("time_scaled_position", mech.time_scaled_position_model),
]


def boost_parts(seed):
    """(R, v, c, tau) of ``FrameChange.random_galilei`` at ``seed``, drawn
    in its order with R from the closed form: x' = R x + v t + c."""
    rng = np.random.default_rng(seed)
    axis, angle = rng.normal(size=3), rng.uniform(0, 2 * np.pi)
    r = oracle.rotation(axis, 1.0, angle, 0.0)[0]
    return r, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), rng.uniform(-1, 1)


def loop_frame_indifference(model, spec, n_points=100, seed=0xC0FFEE,
                            transport_refs=True):
    """One state at a time, the Galilei frame applied from its R, v and c,
    and references moved by replacing model fields.  Products are summed
    per component as the check sums them: where every point has the same
    residual (a pure boost of an absolute velocity), the witness is
    decided by the last bit."""
    (r, c), (_, vb) = spec.at(0.0), spec.at(0.0, 1)
    rng = np.random.default_rng(seed)
    x0r_at, v0r_at, t0r_new = mech.transport_references(model, spec)
    residuals, witnesses = [], []
    for _ in range(n_points):
        t = rng.uniform(0.0, 2.0)
        x = rng.uniform(-1.0, 1.0, size=3)
        v = rng.uniform(-1.0, 1.0, size=3)
        t_new = t + spec.tau
        moved = model
        if transport_refs:
            moved = replace(model, x0r=tuple(x0r_at(t_new)),
                            v0r=tuple(v0r_at(t_new)), t0r=t0r_new)
        f_new = moved.force_at(t_new, fr.rotate(r, x) + (vb * t + c),
                               fr.rotate(r, v) + vb)
        residuals.append(np.max(np.abs(
            f_new - fr.rotate(r, model.force_at(t, x, v)))))
        witnesses.append((t, tuple(x)))
    k = int(np.argmax(residuals))
    return residuals[k], witnesses[k]


def loop_noninertial_closure(model, spec, traj, a, rotation, cddot):
    """The starred balance one trajectory point at a time, with R and its
    derivatives in closed form for ``rotation`` (a ``RotationSpec``) and
    the path's c'' from ``cddot(t)``."""
    starred = mech.transform_trajectory(traj, spec)
    x0r_at, v0r_at, t0r_new = mech.transport_references(model, spec)
    residuals, witnesses = [], []
    for k in range(traj.t.shape[0]):
        x, v = traj.x[:, k], traj.v[:, k]
        ts, xs, vs = starred.t[k], starred.x[:, k], starred.v[:, k]
        rmat, rdot, rddot = oracle.rotation(rotation.axis, rotation.rate,
                                            rotation.phase, traj.t[k])
        xdd = model.force_at(traj.t[k], x, v) / model.m
        xdd_star = (rddot @ x + 2.0 * rdot @ v + rmat @ xdd
                    + cddot(traj.t[k]))
        moved = replace(model, x0r=tuple(x0r_at(ts)), v0r=tuple(v0r_at(ts)),
                        t0r=t0r_new)
        fict = mech.inertial_force(spec, ts, xs, vs, model.m, a=a)
        residuals.append(np.max(np.abs(model.m * xdd_star
                                       - moved.force_at(ts, xs, vs) - fict)))
        witnesses.append((float(ts), tuple(xs)))
    k = int(np.argmax(residuals))
    return residuals[k], witnesses[k]


class TestBatchedForce:
    B = 12

    def states(self):
        rng = np.random.default_rng(0xBA7C)
        t = rng.uniform(0.0, 2.0, size=self.B)
        x = rng.uniform(-1.0, 1.0, size=(3, self.B))
        v = rng.uniform(-1.0, 1.0, size=(3, self.B))
        refs = (rng.uniform(-3.0, -2.0, size=(3, self.B)),
                rng.uniform(-1.0, 1.0, size=(3, self.B)),
                rng.uniform(-1.0, 1.0, size=self.B))
        return t, x, v, refs

    @pytest.mark.parametrize("name, factory", ALL_MODELS)
    def test_batch_equals_per_state_loop(self, name, factory):
        model = factory()
        t, x, v, refs = self.states()
        loop = np.stack([model.force_at(t[k], x[:, k], v[:, k])
                         for k in range(self.B)], axis=1)
        np.testing.assert_array_equal(model.force_at(t, x, v), loop)
        loop = np.stack([model.force_at(0.7, x[:, k], v[:, k])
                         for k in range(self.B)], axis=1)
        np.testing.assert_array_equal(model.force_at(0.7, x, v), loop)

    @pytest.mark.parametrize("name, factory", ALL_MODELS)
    def test_per_state_refs_equal_replaced_models(self, name, factory):
        model = factory()
        t, x, v, (x0r, v0r, t0r) = self.states()
        loop = np.stack([replace(model, x0r=tuple(x0r[:, k]),
                                 v0r=tuple(v0r[:, k]), t0r=t0r[k])
                         .force_at(t[k], x[:, k], v[:, k])
                         for k in range(self.B)], axis=1)
        np.testing.assert_array_equal(
            model.force_at(t, x, v, refs=(x0r, v0r, t0r)), loop)

    @pytest.mark.parametrize("t, x, v", [
        (np.array([0.1, 0.2]), np.zeros(3), np.zeros(3)),
        (np.zeros(3), np.zeros((3, 2)), np.zeros((3, 2))),
        (0.5, np.zeros((3, 2)), np.zeros((3, 3))),
        (0.5, np.zeros((2, 2)), np.zeros((2, 2))),
    ])
    def test_mismatched_shapes_are_refused(self, t, x, v):
        model = mech.drag_gravity_model()
        shapes = r"t of shape %s, x of shape %s" % (
            re.escape(str(np.shape(t))), re.escape(str(np.shape(x))))
        with pytest.raises(ValueError, match=shapes):
            model.force_at(t, x, v)

    def test_transport_and_inertial_force_take_time_arrays(self):
        model = mech.drag_gravity_model()
        t, x, v, _ = self.states()
        galilei = fr.FrameChange.random_galilei(np.random.default_rng(3))
        x0r_at, _, _ = mech.transport_references(model, galilei)
        np.testing.assert_allclose(
            x0r_at(t), np.stack([x0r_at(tk) for tk in t], axis=1),
            rtol=0, atol=1e-12)
        spec = fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(1.0, 2.0, 2.0), rate=0.8),
            path=("sin(t)", "t*t", "0.5"), tau=0.3)
        x0r_at, v0r_at, _ = mech.transport_references(model, spec)
        for fn in (x0r_at, v0r_at):
            np.testing.assert_allclose(
                fn(t), np.stack([fn(tk) for tk in t], axis=1),
                rtol=0, atol=1e-12)
        got = mech.inertial_force(spec, t, x, v, m=1.5, a=0.4)
        loop = np.stack([mech.inertial_force(spec, t[k], x[:, k], v[:, k],
                                             m=1.5, a=0.4)
                         for k in range(self.B)], axis=1)
        np.testing.assert_allclose(got, loop, rtol=0, atol=1e-12)


class TestBatchedChecksAgainstLoops:
    """The vectorised checks find the worst point a per-point loop finds.

    Witnesses are compared where the worst residual stands clear of the
    others; at rounding level the argmax is decided by last-bit noise.
    """

    BOOST = fr.FrameChange.random_galilei(np.random.default_rng(0x5EED))

    def test_random_galilei_keeps_its_draw_order(self):
        for seed in (0x5EED, 1, 2):
            r, vb, c, tau = boost_parts(seed)
            spec = fr.FrameChange.random_galilei(
                np.random.default_rng(seed))
            (q, c0), (_, v0) = spec.at(0.0), spec.at(0.0, 1)
            assert np.max(np.abs(q - r)) < 1e-15
            np.testing.assert_array_equal(v0, vb)
            np.testing.assert_array_equal(c0, c)
            assert spec.tau == tau

    @pytest.mark.parametrize("factory, transport_refs", [
        (mech.absolute_velocity_model, True),
        (mech.absolute_position_model, True),
        (mech.time_scaled_position_model, True),
        (mech.drag_gravity_model, False),
        (mech.oscillator_model, False),
    ])
    def test_frame_indifference_witness(self, factory, transport_refs):
        model = factory()
        v = mech.check_force_frame_indifference(
            model, self.BOOST, transport_refs=transport_refs)
        worst, witness = loop_frame_indifference(
            model, self.BOOST, transport_refs=transport_refs)
        # under a pure boost every absolute-velocity residual is |v| of the
        # boost, so which point is worst is decided by the last bit
        if factory is not mech.absolute_velocity_model:
            assert v.witness == witness
        assert v.objective.residual == pytest.approx(worst, rel=1e-12)

    def test_frame_indifference_rounding_level(self):
        for factory in (mech.oscillator_model, mech.drag_gravity_model,
                        mech.free_model):
            v = mech.check_force_frame_indifference(factory(), self.BOOST)
            worst, _ = loop_frame_indifference(factory(), self.BOOST)
            assert v.objective.residual < 1e-12 and worst < 1e-12

    def test_noninertial_closure_witness(self):
        model = mech.drag_gravity_model()
        rotation = fr.RotationSpec(axis=(0.0, 1.0, 1.0), rate=0.7)
        spec = fr.FrameChange.euclidean(
            rotation=rotation, path=("0.3*t*t", "sin(t)", "0.0"), tau=0.2)

        def cddot(t):
            return np.array([0.6, -np.sin(t), 0.0])
        ic = (np.array([0.5, 0.2, 0.0]), np.array([0.1, 0.0, 0.0]), 0.0)
        traj = mech.integrate(model, ic, 1e-2, 200)
        dropped = mech.check_noninertial_closure(
            model, spec, traj, drag_coeff=1.0, include_drag_term=False)
        worst, witness = loop_noninertial_closure(model, spec, traj, 0.0,
                                                  rotation, cddot)
        assert dropped.witness == witness
        assert dropped.objective.residual == pytest.approx(worst, rel=1e-12)
        closed = mech.check_noninertial_closure(model, spec, traj,
                                                drag_coeff=1.0)
        worst, _ = loop_noninertial_closure(model, spec, traj, 1.0,
                                            rotation, cddot)
        assert closed.objective.residual < 1e-10 and worst < 1e-10


class TestRK4ForceCalls:
    """``integrate`` evaluates the force exactly four times per step."""

    @pytest.mark.parametrize("n_steps", [1, 7, 50])
    def test_four_force_calls_per_step(self, monkeypatch, n_steps):
        calls = []
        force_at = mech.ForceModel.force_at

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return force_at(self, *args, **kwargs)

        monkeypatch.setattr(mech.ForceModel, "force_at", counting)
        ic = (np.array([0.3, -0.2, 0.1]), np.array([0.2, 0.1, 0.0]), 0.0)
        for _, factory in ALL_MODELS:
            calls.clear()
            mech.integrate(factory(), ic, 1e-2, n_steps)
            assert len(calls) == 4 * n_steps


class TestFloatKernel:
    """Single states run on the float kernel, which must agree with the
    numpy evaluator bit for bit."""

    N = 200

    @pytest.mark.parametrize("name, factory", ALL_MODELS)
    def test_kernel_equals_evaluator(self, name, factory, monkeypatch):
        model = factory()
        rng = np.random.default_rng(0xF10A7)
        t = rng.uniform(-3.0, 3.0, size=self.N)
        x = rng.uniform(-2.0, 2.0, size=(3, self.N))
        v = rng.uniform(-2.0, 2.0, size=(3, self.N))
        refs = (rng.uniform(-1.0, 1.0, size=(3, self.N)),
                rng.uniform(-1.0, 1.0, size=(3, self.N)),
                rng.uniform(-1.0, 1.0, size=self.N))
        want = [model.force_at(t[k:k + 1], x[:, k:k + 1], v[:, k:k + 1])
                for k in range(self.N)]
        want_refs = [model.force_at(t[k:k + 1], x[:, k:k + 1],
                                    v[:, k:k + 1],
                                    tuple(r[..., k:k + 1] for r in refs))
                     for k in range(self.N)]

        def no_evaluator(*args, **kwargs):
            raise AssertionError("a single state reached evaluate_many")

        monkeypatch.setattr(mech.ex, "evaluate_many", no_evaluator)
        for k in range(self.N):
            np.testing.assert_array_equal(
                model.force_at(float(t[k]), tuple(x[:, k]), tuple(v[:, k])),
                want[k][:, 0])
            np.testing.assert_array_equal(
                model.force_at(t[k], x[:, k], v[:, k],
                               tuple(r[..., k] for r in refs)),
                want_refs[k][:, 0])

    def test_both_paths_raise_at_the_reference_point(self):
        model = mech.drag_gravity_model()
        x0r, v = np.array(model.x0r), np.array([0.1, 0.2, 0.3])
        with pytest.raises(ex.EvalError, match="singularity guard"):
            model.force_at(0.5, x0r, v)
        with pytest.raises(ex.EvalError, match="singularity guard"):
            model.force_at(np.array([0.5]), x0r[:, None], v[:, None])

    @pytest.mark.parametrize("name, factory", ALL_MODELS)
    def test_nan_state_gives_nan(self, name, factory):
        import warnings
        model = factory()
        nan = np.full(3, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.force_at(0.5, nan, nan)
            want = model.force_at(np.array([0.5]), nan[:, None],
                                  nan[:, None])[:, 0]
        # NaN wherever the law depends on the state (the free particle's
        # force is a constant zero)
        np.testing.assert_array_equal(got, want)
        assert np.isnan(got).all() or name == "free"


def oracle_rk4(accel, ic, dt, n_steps):
    """RK4 over (3,) numpy arrays, independent of ``mechanics._rk4``."""
    x0, v0, t0 = ic
    x = np.asarray(x0, float).copy()
    v = np.asarray(v0, float).copy()
    t = float(t0)
    ts = np.empty(n_steps + 1)
    xs = np.empty((3, n_steps + 1))
    vs = np.empty((3, n_steps + 1))
    ts[0], xs[:, 0], vs[:, 0] = t, x, v
    for k in range(n_steps):
        k1x, k1v = v, accel(t, x, v)
        k2x = v + 0.5 * dt * k1v
        k2v = accel(t + 0.5 * dt, x + 0.5 * dt * k1x, k2x)
        k3x = v + 0.5 * dt * k2v
        k3v = accel(t + 0.5 * dt, x + 0.5 * dt * k2x, k3x)
        k4x = v + dt * k3v
        k4v = accel(t + dt, x + dt * k3x, k4x)
        x = x + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        t = float(t0) + (k + 1) * dt
        ts[k + 1], xs[:, k + 1], vs[:, k + 1] = t, x, v
    return ts, xs, vs


def evaluator_accel(model, refs_at=None):
    """m^-1 F at one state through the numpy evaluator, as a (3, 1) batch;
    ``refs_at(t)`` gives per-time references."""
    def accel(t, x, v):
        refs = None if refs_at is None else tuple(
            np.asarray(r, float)[..., None] for r in refs_at(t))
        f = model.force_at(np.array([t]), x[:, None], v[:, None], refs)
        return (1.0 / model.m) * f[:, 0]
    return accel


class TestRK4Oracle:
    IC = (np.array([0.3, -0.2, 0.1]), np.array([0.2, 0.1, 0.0]), 0.25)

    @pytest.mark.parametrize("name, factory", ALL_MODELS)
    def test_integrate_equals_numpy_rk4(self, name, factory):
        model = factory()
        traj = mech.integrate(model, self.IC, 0.05, 300)
        ts, xs, vs = oracle_rk4(evaluator_accel(model), self.IC, 0.05, 300)
        np.testing.assert_array_equal(traj.t, ts)
        np.testing.assert_array_equal(traj.x, xs)
        np.testing.assert_array_equal(traj.v, vs)

    def test_float_reference_transport_equals_numpy(self):
        model = mech.drag_gravity_model()
        specs = [fr.FrameChange.random_galilei(np.random.default_rng(seed))
                 for seed in range(5)]
        specs.append(fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(1.0, 2.0, 2.0), rate=0.8),
            path=("sin(t)", "t*t", "0.5"), tau=0.3))
        for seed, spec in enumerate(specs):
            numpy_refs = mech.transport_references(model, spec)[:2]
            kernels = [ex.float_kernel(e)
                       for e in mech._reference_exprs(model, spec)]
            for t in np.random.default_rng(seed).uniform(-2.0, 2.0, 200):
                for kernel, at in zip(kernels, numpy_refs):
                    np.testing.assert_array_equal(
                        kernel(float(t), (0.0, 0.0, 0.0), {}), at(t))

    @pytest.mark.parametrize("factory", [mech.oscillator_model,
                                         mech.drag_gravity_model])
    def test_galilei_covariance_equals_numpy_rk4(self, factory):
        model = factory()
        spec = fr.FrameChange.random_galilei(np.random.default_rng(0x6A1))
        dt, steps = 1e-2, 60
        got = mech.check_galilei_covariance(model, spec, self.IC, dt, steps)
        base = mech.transform_trajectory(mech.integrate(model, self.IC, dt,
                                                        steps), spec)
        x0r_at, v0r_at, t0r = mech.transport_references(model, spec)
        _, xs, vs = oracle_rk4(
            evaluator_accel(model, lambda t: (x0r_at(t), v0r_at(t), t0r)),
            (base.x[:, 0], base.v[:, 0], base.t[0]), dt, steps)
        worst = max(np.max(np.abs(xs - base.x)), np.max(np.abs(vs - base.v)))
        assert got.objective.residual == worst

    def test_galilei_covariance_witness_is_the_worst_step(self):
        # a clock-driven force: the boost shifts its phase by tau, so the
        # velocity error peaks mid-run while the position error still grows
        model = mech.ForceModel(force=ex.vec(
            ex.func("sin", ex.mul(ex.const(5.0), mech.T_ABS)),
            ex.const(0.0), ex.const(0.0)))
        spec = fr.FrameChange.random_galilei(np.random.default_rng(0x6A1))
        dt, steps = 1e-2, 100
        got = mech.check_galilei_covariance(model, spec, self.IC, dt, steps)
        base = mech.transform_trajectory(mech.integrate(model, self.IC, dt,
                                                        steps), spec)
        x0r_at, v0r_at, t0r = mech.transport_references(model, spec)
        ts, xs, vs = oracle_rk4(
            evaluator_accel(model, lambda t: (x0r_at(t), v0r_at(t), t0r)),
            (base.x[:, 0], base.v[:, 0], base.t[0]), dt, steps)
        per_step = [max(np.max(np.abs(xs[:, k] - base.x[:, k])),
                        np.max(np.abs(vs[:, k] - base.v[:, k])))
                    for k in range(steps + 1)]
        k = per_step.index(max(per_step))
        assert k != int(np.argmax(np.max(np.abs(xs - base.x), axis=0)))
        assert got.witness == (ts[k], tuple(xs[:, k]))
        assert got.objective.residual == per_step[k]
