import re
from dataclasses import replace

import numpy as np
import pytest

from invariance import expr as ex
from invariance import frames as fr
from invariance import mechanics as mech
from invariance import report
from invariance.checks.verdict import FAIL_FLOOR
from invariance.sampling import DEFAULT_SEED

import loop_oracles as loops

RNG = np.random.default_rng(0xD1CE)


def frame_indifference(model, spec, transport_refs=True):
    """The force frame-indifference check at the shipped scenarios'
    tolerance and seed."""
    return mech.check_force_frame_indifference(model, spec, 1e-10,
                                               DEFAULT_SEED, transport_refs)


# force laws that no shipped scenario runs: the free particle, and two
# laws in absolute arguments that the numeric frame check must fail

def free_model(m=1.0):
    return mech.ForceModel.from_invariants(ex.const(0.0), ex.const(0.0),
                                           m=float(m))


def absolute_position_model(m=1.0):
    return mech.ForceModel(force=mech.X_ABS, m=float(m))


def time_scaled_position_model(m=1.0):
    return mech.ForceModel(force=ex.mul(mech.T_ABS, mech.X_ABS), m=float(m))


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
        traj = mech.integrate(free_model(), (np.zeros(3), v0, 0.0),
                              1e-2, 500)
        assert np.max(np.abs(traj.x - v0[:, None] * traj.t)) < 1e-12


class TestAbsoluteArguments:
    """The numeric frame check, not the symbols a law is written in,
    tells relative-argument laws from absolute ones."""

    SPECS = [fr.FrameChange.random_galilei(np.random.default_rng(seed))
             for seed in (11, 12, 13)]

    def test_accepts_relative_argument_models(self):
        for model in (mech.oscillator_model(), mech.drag_gravity_model(),
                      free_model()):
            for spec in self.SPECS:
                v = frame_indifference(model, spec)
                assert v.residual < 1e-12

    def test_rejects_absolute_argument_models(self):
        for model in (mech.absolute_velocity_model(),
                      absolute_position_model(),
                      time_scaled_position_model()):
            for spec in self.SPECS:
                v = frame_indifference(model, spec)
                assert not v.passed
                assert FAIL_FLOOR < v.residual < np.inf


class TestFrameIndifference:
    def random_spec(self):
        return fr.FrameChange.random_galilei(RNG)

    def test_oscillator_force_frame_indifferent(self):
        v = frame_indifference(mech.oscillator_model(), self.random_spec())
        assert v.passed and v.residual < 1e-10

    def test_drag_gravity_force_frame_indifferent(self):
        v = frame_indifference(mech.drag_gravity_model(),
                               self.random_spec())
        assert v.passed

    def test_absolute_velocity_force_fails_under_boost(self):
        spec = fr.FrameChange.galilei(v=np.array([1.0, 0, 0]))
        v = frame_indifference(mech.absolute_velocity_model(), spec)
        assert not v.passed
        # the defect is exactly the boost magnitude
        assert abs(v.residual - 1.0) < 1e-12

    def test_frozen_references_break_frame_indifference(self):
        spec = fr.FrameChange.galilei(v=np.array([1.0, 0, 0]))
        v = frame_indifference(
            mech.drag_gravity_model(), spec, transport_refs=False)
        assert not v.passed and v.residual > 1e-3


class TestGalileiCovariance:
    def test_twenty_random_specs(self):
        dt, steps = 1e-3, 1_000
        ic = (np.array([0.3, -0.2, 0.1]), np.array([0.2, 0.1, 0.0]), 0.0)
        for _ in range(20):
            spec = fr.FrameChange.random_galilei(RNG)
            v = mech.check_galilei_covariance(mech.oscillator_model(),
                                              spec, ic, dt, steps,
                                              10 * dt ** 4)
            assert v.passed
            assert v.residual < 10 * dt ** 4


class TestNoninertialClosure:
    def setup_method(self):
        self.model = mech.drag_gravity_model()
        self.spec = fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(0.0, 0.0, 1.0), rate=0.5))
        ic = (np.array([0.5, 0.2, 0.0]), np.array([0.1, 0.0, 0.0]), 0.0)
        self.traj = mech.integrate(self.model, ic, 2e-3, 1_500)

    def closure(self, model, include_drag_term=True):
        traj = self.traj if model is self.model else mech.integrate(
            model, (self.traj.x[:, 0], self.traj.v[:, 0], 0.0), 2e-3, 1_500)
        return mech.check_noninertial_closure(model, self.spec, traj, 1e-5,
                                              include_drag_term)

    def blocked(self, monkeypatch, size, include_drag_term):
        """The closure check in blocks of ``size`` points: its part, the
        residual array and points it judged, and the blocks it walked."""
        got, of, blocks = {}, mech.CheckPart.of, mech.blocks

        def judging(residuals, tol, points=None, notes=()):
            got["residuals"], got["points"] = residuals, points
            return of(residuals, tol, points, notes)

        def walking(n, size):
            got["blocks"] = list(blocks(n, size))
            return got["blocks"]

        with monkeypatch.context() as patch:
            patch.setattr(mech, "_CLOSURE_BLOCK", size)
            patch.setattr(mech, "blocks", walking)
            patch.setattr(mech.CheckPart, "of", judging)
            got["part"] = mech.check_noninertial_closure(
                self.model, self.spec, self.traj, 1e-5, include_drag_term)
        return got

    @pytest.mark.parametrize("include_drag_term", [True, False])
    def test_blocks_give_the_bits_of_the_whole_trajectory(
            self, monkeypatch, include_drag_term):
        n = self.traj.t.shape[0]
        whole = self.blocked(monkeypatch, n, include_drag_term)
        assert whole["blocks"] == [(0, n)]
        # 2 and 3 leave a one-point tail, which joins the block before it
        for size in (2, 3, 7, 512, n + 5):
            got = self.blocked(monkeypatch, size, include_drag_term)
            starts, stops = zip(*got["blocks"])
            assert starts[0] == 0 and stops[-1] == n
            assert starts[1:] == stops[:-1]
            assert all(hi - lo == size for lo, hi in got["blocks"][:-1])
            assert 1 < stops[-1] - starts[-1] <= size + 1
            assert got["residuals"].tobytes() == whole["residuals"].tobytes()
            for value, want in zip(got["points"], whole["points"]):
                assert value.tobytes() == want.tobytes()
            assert got["part"] == whole["part"]

    def test_three_evaluations_per_block(self, monkeypatch, evaluations):
        # each block reads the frame's jet once, through ``moved``, which
        # ``inertial_force`` takes, and evaluates the force in each frame
        n = self.traj.t.shape[0]
        for size in (n, 512, 100):
            monkeypatch.setattr(mech, "_CLOSURE_BLOCK", size)
            del evaluations[:]
            self.closure(self.model)
            assert len(evaluations) == 3 * len(list(mech.blocks(n, size)))

    def test_four_term_inertial_force_closes_the_balance(self):
        v = self.closure(self.model)
        assert v.passed and v.residual < 1e-10

    def test_dropping_the_drag_term_breaks_it(self):
        v = self.closure(self.model, include_drag_term=False)
        assert not v.passed and v.residual > 1e-3

    def test_drag_comes_from_the_model(self):
        # the drag coupling is the model's own: a drag-free law and a
        # drag of 2 both close at rounding level
        assert self.model.drag == 1.0
        for model in (mech.oscillator_model(), free_model(),
                      mech.drag_gravity_model(a=2.0)):
            v = self.closure(model)
            assert v.passed and v.residual < 1e-10, (model.drag, v)
        assert mech.oscillator_model().drag == 0.0
        dropped = self.closure(mech.drag_gravity_model(a=2.0),
                               include_drag_term=False)
        assert dropped.residual > FAIL_FLOOR


class TestInertialForceOracles:
    def test_pure_translation_gives_m_cddot(self):
        # path c(t) = (t^2, 0, 0), no rotation: force is m*(2, 0, 0)
        path = (ex.parse_field_expr("t*t"), ex.const(0.0), ex.const(0.0))
        spec = fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(0, 0, 1), rate=0.0), path=path)
        got = mech.inertial_force(spec.at(1.3), np.zeros(3), np.zeros(3),
                                  m=2.0)
        assert np.max(np.abs(got - np.array([4.0, 0.0, 0.0]))) < 1e-12

    def test_uniform_rotation_centrifugal_magnitude(self):
        # at rest in the rotating frame the residual inertial force is
        # centrifugal with magnitude m omega^2 r
        omega = 0.9
        spec = fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(0, 0, 1), rate=omega))
        x_star = np.array([1.5, 0.0, 0.0])
        got = mech.inertial_force(spec.at(0.6), x_star, np.zeros(3), m=2.0)
        assert abs(np.linalg.norm(got) - 2.0 * omega ** 2 * 1.5) < 1e-12

    def test_inertial_frame_gives_zero(self):
        spec = fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(0, 0, 1), rate=0.0))
        got = mech.inertial_force(spec.at(0.6), RNG.normal(size=3),
                                  RNG.normal(size=3), m=1.0, a=0.7)
        assert np.max(np.abs(got)) < 1e-14


class TestTrajectoryTransport:
    def test_galilei_transform_preserves_relative_separation_norm(self):
        # x0r rides the boost in closed form: R x0r + v (t' - tau) + c
        ic = (np.array([0.4, 0.0, 0.1]), np.array([0.0, 0.2, 0.0]), 0.0)
        model = replace(mech.oscillator_model(), x0r=(0.2, -0.1, 0.3))
        traj = mech.integrate(model, ic, 1e-2, 200)
        r, vb, c, tau = loops.boost_parts(0x7A)
        moved = mech.transform_trajectory(
            traj, fr.FrameChange.random_galilei(np.random.default_rng(0x7A)))
        sep_old = traj.x - np.array(model.x0r)[:, None]
        sep_new = moved.x - ((r @ model.x0r + c)[:, None]
                             + vb[:, None] * (moved.t - tau))
        assert np.max(np.abs(np.linalg.norm(sep_new, axis=0)
                             - np.linalg.norm(sep_old, axis=0))) < 1e-10


ALL_MODELS = sorted(report.MECHANICS_MODELS.items()) + [
    ("free", free_model),
    ("absolute_position", absolute_position_model),
    ("time_scaled_position", time_scaled_position_model),
]


# a frame with a rotating axis, a moving origin and a time shift, and a
# model whose references it carries away from the origin
MOVING = fr.FrameChange.euclidean(
    rotation=fr.RotationSpec(axis=(1.0, 2.0, 2.0), rate=0.8),
    path=("sin(t)", "t*t", "0.5"), tau=0.3)


def off_origin(model):
    return replace(model, x0r=(-2.5, -2.2, -2.8), v0r=(0.3, -0.1, 0.2),
                   t0r=0.4)


class TestBatchedForce:
    B = 12

    def states(self):
        rng = np.random.default_rng(0xBA7C)
        t = rng.uniform(0.0, 2.0, size=self.B)
        x = rng.uniform(-1.0, 1.0, size=(3, self.B))
        v = rng.uniform(-1.0, 1.0, size=(3, self.B))
        return t, x, v

    @pytest.mark.parametrize("name, factory", ALL_MODELS)
    def test_batch_equals_per_state_loop(self, name, factory):
        t, x, v = self.states()
        for model in (factory(), off_origin(factory()).carried(MOVING)):
            loop = np.stack([model.force_at(t[k], x[:, k], v[:, k])
                             for k in range(self.B)], axis=1)
            np.testing.assert_array_equal(model.force_at(t, x, v), loop)
            loop = np.stack([model.force_at(0.7, x[:, k], v[:, k])
                             for k in range(self.B)], axis=1)
            np.testing.assert_array_equal(model.force_at(0.7, x, v), loop)

    @pytest.mark.parametrize("name, factory", ALL_MODELS)
    def test_per_state_refs_equal_replaced_models(self, name, factory):
        # carried references are expressions of time: at each state the
        # model gives what a model holding their values there gives
        model = off_origin(factory()).carried(MOVING)
        t, x, v = self.states()
        loop = np.stack([replace(model, x0r=tuple(fr.at_times(model.x0r,
                                                              t[k])),
                                 v0r=tuple(fr.at_times(model.v0r, t[k])))
                         .force_at(t[k], x[:, k], v[:, k])
                         for k in range(self.B)], axis=1)
        np.testing.assert_array_equal(model.force_at(t, x, v), loop)

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
        t, x, v = self.states()
        galilei = fr.FrameChange.random_galilei(np.random.default_rng(3))
        for spec in (galilei, MOVING):
            carried = model.carried(spec)
            for ref in (carried.x0r, carried.v0r):
                np.testing.assert_allclose(
                    fr.at_times(ref, t),
                    np.stack([fr.at_times(ref, tk) for tk in t], axis=1),
                    rtol=0, atol=1e-12)
        got = mech.inertial_force(MOVING.at(t), x, v, m=1.5, a=0.4)
        loop = np.stack([mech.inertial_force(MOVING.at(t[k]), x[:, k],
                                             v[:, k], m=1.5, a=0.4)
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
            r, vb, c, tau = loops.boost_parts(seed)
            spec = fr.FrameChange.random_galilei(
                np.random.default_rng(seed))
            (q, c0), (_, v0) = spec.at(0.0)[0], spec.at(0.0)[1]
            assert np.max(np.abs(q - r)) < 1e-15
            np.testing.assert_array_equal(v0, vb)
            np.testing.assert_array_equal(c0, c)
            assert spec.tau == tau

    @pytest.mark.parametrize("factory, transport_refs", [
        (mech.absolute_velocity_model, True),
        (absolute_position_model, True),
        (time_scaled_position_model, True),
        (mech.drag_gravity_model, False),
        (mech.oscillator_model, False),
    ])
    def test_frame_indifference_witness(self, factory, transport_refs):
        model = factory()
        v = frame_indifference(model, self.BOOST, transport_refs)
        worst, witness = loops.worst_of(*loops.frame_indifference(
            model, loops.boost_parts(0x5EED),
            transport_refs=transport_refs))
        # under a pure boost every absolute-velocity residual is |v| of the
        # boost, so which point is worst is decided by the last bit
        if factory is not mech.absolute_velocity_model:
            assert v.witness == witness
        assert v.residual == pytest.approx(worst, rel=1e-12)

    def test_frame_indifference_rounding_level(self):
        for factory in (mech.oscillator_model, mech.drag_gravity_model,
                        free_model):
            v = frame_indifference(factory(), self.BOOST)
            worst, _ = loops.worst_of(*loops.frame_indifference(
                factory(), loops.boost_parts(0x5EED)))
            assert v.residual < 1e-12 and worst < 1e-12

    def test_noninertial_closure_witness(self):
        model = mech.drag_gravity_model()
        rotation = fr.RotationSpec(axis=(0.0, 1.0, 1.0), rate=0.7)
        spec = fr.FrameChange.euclidean(
            rotation=rotation, path=("0.3*t*t", "sin(t)", "0.0"), tau=0.2)

        def path(t):
            return (np.array([0.3 * t * t, np.sin(t), 0.0]),
                    np.array([0.6 * t, np.cos(t), 0.0]),
                    np.array([0.6, -np.sin(t), 0.0]))
        ic = (np.array([0.5, 0.2, 0.0]), np.array([0.1, 0.0, 0.0]), 0.0)
        traj = mech.integrate(model, ic, 1e-2, 200)
        dropped = mech.check_noninertial_closure(
            model, spec, traj, 1e-5, include_drag_term=False)
        worst, witness = loops.worst_of(*loops.noninertial_closure(
            model, spec, traj, 0.0, rotation, path))
        assert dropped.witness == witness
        assert dropped.residual == pytest.approx(worst, rel=1e-12)
        closed = mech.check_noninertial_closure(model, spec, traj, 1e-5,
                                                include_drag_term=True)
        worst, _ = loops.worst_of(*loops.noninertial_closure(
            model, spec, traj, 1.0, rotation, path))
        assert closed.residual < 1e-10 and worst < 1e-10


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
        models = (factory(), off_origin(factory()).carried(MOVING))
        rng = np.random.default_rng(0xF10A7)
        t = rng.uniform(-3.0, 3.0, size=self.N)
        x = rng.uniform(-2.0, 2.0, size=(3, self.N))
        v = rng.uniform(-2.0, 2.0, size=(3, self.N))
        want = [[model.force_at(t[k:k + 1], x[:, k:k + 1], v[:, k:k + 1])
                 for k in range(self.N)] for model in models]

        def no_evaluator(*args, **kwargs):
            raise AssertionError("a single state reached evaluate_many")

        monkeypatch.setattr(mech.ex, "evaluate_many", no_evaluator)
        for model, model_want in zip(models, want):
            for k in range(self.N):
                np.testing.assert_array_equal(
                    model.force_at(float(t[k]), tuple(x[:, k]),
                                   tuple(v[:, k])), model_want[k][:, 0])
                np.testing.assert_array_equal(
                    model.force_at(t[k], x[:, k], v[:, k]),
                    model_want[k][:, 0])

    @pytest.mark.parametrize("name, factory", ALL_MODELS)
    def test_one_state_gives_three_python_floats(self, name, factory):
        # what RK4 unpacks and scales, with no numpy array between
        for model in (factory(), off_origin(factory()).carried(MOVING)):
            got = model.force_at(0.5, (0.3, -0.2, 0.1), (0.2, 0.1, 0.0))
            assert type(got) is tuple and len(got) == 3
            assert all(type(f) is float for f in got)

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


def evaluator_accel(model):
    """m^-1 F at one state through the numpy evaluator, as a (3, 1)
    batch."""
    def accel(t, x, v):
        f = model.force_at(np.array([t]), x[:, None], v[:, None])
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
        # the carried references are part of the force's expression, so
        # its float kernel transports them with the evaluator's bits
        model = mech.drag_gravity_model()
        specs = [fr.FrameChange.random_galilei(np.random.default_rng(seed))
                 for seed in range(5)] + [MOVING]
        for seed, spec in enumerate(specs):
            carried = model.carried(spec)
            rng = np.random.default_rng(seed)
            for t in rng.uniform(-2.0, 2.0, 200):
                x, v = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
                np.testing.assert_array_equal(
                    carried.force_at(float(t), tuple(x), tuple(v)),
                    carried.force_at(np.array([t]), x[:, None],
                                     v[:, None])[:, 0])

    @pytest.mark.parametrize("factory", [mech.oscillator_model,
                                         mech.drag_gravity_model])
    def test_galilei_covariance_equals_numpy_rk4(self, factory):
        model = factory()
        spec = fr.FrameChange.random_galilei(np.random.default_rng(0x6A1))
        dt, steps = 1e-2, 60
        got = mech.check_galilei_covariance(model, spec, self.IC, dt, steps,
                                            10 * dt ** 4)
        base = mech.transform_trajectory(mech.integrate(model, self.IC, dt,
                                                        steps), spec)
        _, xs, vs = oracle_rk4(
            evaluator_accel(model.carried(spec)),
            (base.x[:, 0], base.v[:, 0], base.t[0]), dt, steps)
        worst = max(np.max(np.abs(xs - base.x)), np.max(np.abs(vs - base.v)))
        assert got.residual == worst

    def test_galilei_covariance_witness_is_the_worst_step(self):
        # a clock-driven force: the boost shifts its phase by tau, so the
        # velocity error peaks mid-run while the position error still grows
        model = mech.ForceModel(force=ex.vec(
            ex.func("sin", ex.mul(ex.const(5.0), mech.T_ABS)),
            ex.const(0.0), ex.const(0.0)))
        spec = fr.FrameChange.random_galilei(np.random.default_rng(0x6A1))
        dt, steps = 1e-2, 100
        got = mech.check_galilei_covariance(model, spec, self.IC, dt, steps,
                                            10 * dt ** 4)
        base = mech.transform_trajectory(mech.integrate(model, self.IC, dt,
                                                        steps), spec)
        ts, xs, vs = oracle_rk4(
            evaluator_accel(model.carried(spec)),
            (base.x[:, 0], base.v[:, 0], base.t[0]), dt, steps)
        per_step = [max(np.max(np.abs(xs[:, k] - base.x[:, k])),
                        np.max(np.abs(vs[:, k] - base.v[:, k])))
                    for k in range(steps + 1)]
        k = per_step.index(max(per_step))
        assert k != int(np.argmax(np.max(np.abs(xs - base.x), axis=0)))
        assert got.witness == (ts[k], tuple(xs[:, k]))
        assert got.residual == per_step[k]
