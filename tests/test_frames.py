import re

import numpy as np
import pytest

from invariance import expr as ex
from invariance import frames as fr
from invariance import mechanics as mech
from invariance.expr import const, parse_field_expr
from invariance.sampling import sample_points

import frame_oracle as oracle


RNG = np.random.default_rng(0xF00D)


def random_rotation_spec(rng):
    return fr.RotationSpec(axis=rng.normal(size=3),
                           rate=rng.uniform(-2, 2),
                           phase=rng.uniform(0, 2 * np.pi))


class TestRotationSpec:
    """The derived Q, Qdot and Qddot of ``RotationSpec.frame`` against the
    numpy closed forms of ``frame_oracle``."""

    def test_orthogonality_and_det(self):
        for _ in range(20):
            spec = random_rotation_spec(RNG)
            for t in np.linspace(-3, 3, 11):
                q = spec.frame().at(t)[0][0]
                assert np.max(np.abs(q @ q.T - np.eye(3))) < 1e-12
                assert abs(np.linalg.det(q) - 1.0) < 1e-12

    def test_spin_constant_antisymmetric(self):
        for _ in range(10):
            spec = random_rotation_spec(RNG)
            omega = oracle.spin(spec)
            assert np.max(np.abs(omega + omega.T)) < 1e-12
            frame = spec.frame()
            for t in np.linspace(-2, 2, 7):
                q, qd = frame.at(t)[0][0], frame.at(t)[1][0]
                assert np.max(np.abs(q @ qd.T - omega)) < 1e-12

    def test_spin_matches_finite_difference_qdot(self):
        spec = fr.RotationSpec(axis=(1, 2, -1), rate=0.7, phase=0.3)
        frame = spec.frame()
        h = 1e-7
        for t in (0.0, 0.5, 1.7):
            qd_fd = (frame.at(t + h)[0][0] - frame.at(t - h)[0][0]) / (2 * h)
            assert np.max(np.abs(qd_fd - frame.at(t)[1][0])) < 1e-6
            omega_fd = frame.at(t)[0][0] @ qd_fd.T
            assert np.max(np.abs(omega_fd - oracle.spin(spec))) < 1e-6

    def test_quarter_turn(self):
        spec = fr.RotationSpec(axis=(0, 0, 1), rate=np.pi / 2)
        x = spec.frame().at(1.0)[0][0] @ np.array([1.0, 0, 0])
        assert np.allclose(x, [0, 1, 0], atol=1e-12)

    def test_q_expr_matches_numeric(self):
        spec = random_rotation_spec(RNG)
        q_expr = spec.frame().q
        for t in (0.0, 0.4, 1.3):
            got = ex.evaluate_many(q_expr, [t], np.zeros((3, 1)))[..., 0]
            assert np.allclose(got, oracle.matrix(spec, t), atol=1e-14)

    def test_spin_composition_law(self):
        # Omega~ = Q Omega Q^T + Q Qdot^T for stacked rotations
        f1 = random_rotation_spec(RNG).frame()
        f2 = random_rotation_spec(RNG).frame()
        for t in (0.0, 0.8):
            q1, q1d = f1.at(t)[0][0], f1.at(t)[1][0]
            q2, q2d = f2.at(t)[0][0], f2.at(t)[1][0]
            q, qd = q2 @ q1, q2d @ q1 + q2 @ q1d
            omega_total = q @ qd.T
            omega_law = q2 @ (q1 @ q1d.T) @ q2.T + q2 @ q2d.T
            assert np.max(np.abs(omega_total - omega_law)) < 1e-10


class TestFrameChangeDerivatives:
    """``FrameChange.at`` derives Q, Qdot, Qddot and c, cdot, cddot from the
    one declaration; each is checked against closed forms and against
    central differences of the order below."""

    T = np.linspace(-2.0, 2.0, 9)

    def test_rotation_derivatives_match_closed_forms(self):
        rng = np.random.default_rng(0xD1FF)
        for _ in range(20):
            spec = random_rotation_spec(rng)
            frame = spec.frame()
            want = oracle.rotation(spec.axis, spec.rate, spec.phase, self.T)
            for order in range(3):
                got, c = frame.at(self.T)[order]
                assert np.max(np.abs(got - want[order])) < 1e-12
                assert not np.any(c)
                one, _ = frame.at(self.T[3])[order]
                assert np.max(np.abs(one - want[order][..., 3])) < 1e-12

    def test_path_derivatives_match_closed_forms(self):
        spec = fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(1.0, -2.0, 0.5), rate=1.3,
                                     phase=0.2),
            path=("0.5*t*t*t", "sin(2*t)", "exp(0.3*t)"), tau=0.7)
        t = self.T
        want = [np.stack([0.5 * t ** 3, np.sin(2 * t), np.exp(0.3 * t)]),
                np.stack([1.5 * t ** 2, 2 * np.cos(2 * t),
                          0.3 * np.exp(0.3 * t)]),
                np.stack([3.0 * t, -4 * np.sin(2 * t),
                          0.09 * np.exp(0.3 * t)])]
        for order in range(3):
            assert np.max(np.abs(spec.at(t)[order][1] - want[order])) < 1e-12

    def test_derivatives_match_central_differences(self):
        spec = fr.FrameChange.euclidean(
            rotation=random_rotation_spec(np.random.default_rng(5)),
            path=("t*t - t", "cos(t)", "0.25"))
        h = 1e-6
        for order in (1, 2):
            q_lo, c_lo = spec.at(self.T - h)[order - 1]
            q_hi, c_hi = spec.at(self.T + h)[order - 1]
            q, c = spec.at(self.T)[order]
            assert np.max(np.abs((q_hi - q_lo) / (2 * h) - q)) < 1e-7
            assert np.max(np.abs((c_hi - c_lo) / (2 * h) - c)) < 1e-7

    def test_galilei_declaration(self):
        r = oracle.matrix(fr.RotationSpec(axis=(2.0, 1.0, -1.0)), 0.9)
        v, c = np.array([0.3, -1.0, 2.0]), np.array([1.0, 0.5, -0.2])
        spec = fr.FrameChange.galilei(r=r, v=v, c=c, tau=0.4)
        t = self.T
        assert spec.tau == 0.4
        np.testing.assert_array_equal(spec.at(t)[0][0],
                                      np.broadcast_to(r[:, :, None],
                                                      (3, 3, t.size)))
        assert np.max(np.abs(spec.at(t)[0][1] - (np.outer(v, t)
                                              + c[:, None]))) < 1e-15
        np.testing.assert_array_equal(spec.at(t)[1][1],
                                      np.repeat(v[:, None], t.size, axis=1))
        for order in (1, 2):
            assert not np.any(spec.at(t)[order][0])
        assert not np.any(spec.at(t)[2][1])


class TestJet:
    """``FrameChange.at(t)`` is the jet ((Q, c), (Q', c'), (Q'', c'')) from
    one evaluation, each entry with the bits of its root read alone."""

    FRAMES = {
        "galilei": lambda: fr.FrameChange.galilei(
            r=oracle.matrix(fr.RotationSpec(axis=(2.0, 1.0, -1.0)), 0.9),
            v=(0.3, -1.0, 2.0), c=(1.0, 0.5, -0.2), tau=0.4),
        "euclidean": lambda: fr.FrameChange.euclidean(
            rotation=fr.RotationSpec(axis=(1.0, -2.0, 0.5), rate=1.3,
                                     phase=0.2),
            path=("0.5*t*t*t", "sin(2*t)", "exp(0.3*t)"), tau=0.7),
        "s2": lambda: fr.AcceleratedShift(
            f=("0.5*t*t", "sin(t)", "0.0")).frame,
    }

    @pytest.mark.parametrize("t", (0.7, np.linspace(-2.0, 2.0, 9)),
                             ids=("scalar", "times"))
    @pytest.mark.parametrize("name", FRAMES)
    def test_each_order_has_the_bits_of_its_root(self, name, t):
        frame = self.FRAMES[name]()
        jet = frame.at(t)
        assert len(jet) == 3
        for k, pair in enumerate(jet):
            for got, e in zip(pair, frame.exprs(k), strict=True):
                dims = (3, 3) if e.shape == ex.MAT else (3,)
                assert got.shape == dims + np.shape(t)
                assert got.tobytes() == fr.at_times(e, t).tobytes(), (name, k)

    @pytest.mark.parametrize("name", FRAMES)
    def test_one_evaluation_per_call(self, name, evaluations):
        frame = self.FRAMES[name]()
        for t in (0.3, np.linspace(0.0, 1.0, 5)):
            del evaluations[:]
            frame.at(t)
            assert len(evaluations) == 1


def moved(spec, t, x):
    """(t', x') by the mechanics trajectory transport of ``spec``."""
    t = np.atleast_1d(np.asarray(t, float))
    traj = mech.Trajectory(t=t, x=x.reshape(3, -1),
                           v=np.zeros((3, t.size)), dt=0.0)
    out = mech.transform_trajectory(traj, spec)
    return out.t, out.x


def galilei_parts(g):
    """(R, v, c) of a Galilei frame x' = R x + v t + c, read at t = 0."""
    (r, c), (_, v) = g.at(0.0)[0], g.at(0.0)[1]
    return r, v, c


def galilei_inverse(g):
    """x = R^T (x' - v t - c), t = t' - tau as a Galilei frame."""
    r, v, c = galilei_parts(g)
    rt = r.T
    return fr.FrameChange.galilei(r=rt, v=-rt @ v, c=rt @ (v * g.tau - c),
                                  tau=-g.tau)


class TestGalilei:
    def test_boost_example(self):
        spec = fr.FrameChange.galilei(v=np.array([1.0, 0, 0]))
        _, x = moved(spec, 2.0, np.zeros(3))
        assert np.allclose(x[:, 0], [2, 0, 0])

    def test_rejects_improper_rotation(self):
        with pytest.raises(ValueError):
            fr.FrameChange.galilei(r=np.diag([1.0, 1.0, -1.0]))

    def test_group_composition(self):
        rng = np.random.default_rng(7)
        t, x = sample_points(200)
        for _ in range(5):
            g1 = fr.FrameChange.random_galilei(rng)
            g2 = fr.FrameChange.random_galilei(rng)
            t1, x1 = moved(g1, t, x)
            t2, x2 = moved(g2, t1, x1)
            (r1, v1, c1), (r2, v2, c2) = galilei_parts(g1), galilei_parts(g2)
            g21 = fr.FrameChange.galilei(r=r2 @ r1, v=r2 @ v1 + v2,
                                         c=r2 @ c1 + v2 * g1.tau + c2,
                                         tau=g1.tau + g2.tau)
            tc, xc = moved(g21, t, x)
            assert np.max(np.abs(t2 - tc)) < 1e-12
            assert np.max(np.abs(x2 - xc)) < 1e-12

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        t, x = sample_points(200)
        g = fr.FrameChange.random_galilei(rng)
        tb, xb = moved(galilei_inverse(g), *moved(g, t, x))
        assert np.max(np.abs(tb - t)) < 1e-12
        assert np.max(np.abs(xb - x)) < 1e-12

    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (1.7, -0.6)])
    def test_carry_with_a_symmetrys_scales(self, lam, mu):
        # x0~ = lam R x0 + v t + c and v0~ = (lam R v0 + v) / mu at the old
        # time t = (t~ - tau) / mu
        g = fr.FrameChange.random_galilei(np.random.default_rng(9))
        r, v, c = galilei_parts(g)
        x0, v0 = np.array([0.3, -0.2, 0.1]), np.array([0.2, 0.1, 0.0])
        t_new = np.linspace(-1.0, 2.0, 7)
        t = (t_new - g.tau) / mu
        scaled = fr.FrameChange(g.q, g.c, g.tau, lam=lam, mu=mu)
        got = [fr.at_times(e, t_new) for e in scaled.carry(x0, v0)]
        assert np.allclose(got[0], lam * (r @ x0)[:, None] + np.outer(v, t)
                           + c[:, None], rtol=0, atol=1e-14)
        assert np.allclose(got[1], ((lam * r @ v0 + v) / mu)[:, None],
                           rtol=0, atol=1e-14)


class TestEuclidean:
    @pytest.mark.parametrize("build, name", [
        (lambda: fr.FrameChange.euclidean(path=("t*t", "comp(x, 1)", "0")),
         "c(t)"),
        (lambda: fr.FrameChange.rotation((0.0, 0.0, 1.0), 1.0,
                                         parse_field_expr("comp(x, 2)")),
         "Q(t)"),
    ], ids=["path", "rotation"])
    def test_refuses_a_map_that_reads_x(self, build, name):
        with pytest.raises(ValueError, match=r"%s must be a function of t "
                           "alone" % re.escape(name)):
            build()

    def test_parabolic_path_example(self):
        spec = fr.FrameChange.euclidean(path=(parse_field_expr("t*t"),
                                              const(0.0), const(0.0)))
        _, x = moved(spec, 1.0, np.zeros(3))
        assert np.allclose(x[:, 0], [1, 0, 0])

    def test_path_derivatives(self):
        spec = fr.FrameChange.euclidean(path=(parse_field_expr("0.5*t*t"),
                                              parse_field_expr("sin(t)"),
                                              const(0.0)))
        assert np.allclose(spec.at(2.0)[1][1], [2.0, np.cos(2.0), 0.0])
        assert np.allclose(spec.at(2.0)[2][1], [1.0, -np.sin(2.0), 0.0])

    def test_round_trip(self):
        rotation = fr.RotationSpec(axis=(0, 1, 1), rate=0.6)
        spec = fr.FrameChange.euclidean(
            rotation=rotation,
            path=(parse_field_expr("t*t"), parse_field_expr("cos(t)"),
                  const(0.2)),
            tau=0.4)
        t, x = sample_points(100)
        ts, xs = moved(spec, t, x)
        # x = R(t)^T (x* - c(t)), t = t* - tau
        tb = ts - spec.tau
        path = np.stack([tb * tb, np.cos(tb), np.full_like(tb, 0.2)])
        xb = np.einsum("jin,jn->in", oracle.matrix(rotation, tb), xs - path)
        assert np.max(np.abs(tb - t)) < 1e-12
        assert np.max(np.abs(xb - x)) < 1e-12


def all_ns_specs():
    return [
        fr.Galilei(c0=0.3,
                   a_mat=oracle.matrix(fr.RotationSpec(axis=(1, 1, 0)), 0.7),
                   c1=[0.5, -0.2, 0.1], c2=[1.0, 0.0, -0.3]),
        fr.Scaling(0.4),
        fr.AcceleratedShift([parse_field_expr("t*t"),
                             parse_field_expr("sin(t)"), const(0.0)]),
        fr.Reflection(1),
        fr.TimeReversal(),
        fr.EulerScaling(0.25),
        fr.PlanarRotation(0.8),
        fr.Rotation3D(axis=(0, 0, 1), rate=0.9),
    ]


def _reflect(spec, t, x):
    out = x.copy()
    out[spec.axis] *= -1.0
    return t, out


def _rotate(spec, t, x):
    axis, rate = ((0, 0, 1), spec.omega) if spec.tag == "S6approx" \
        else (spec.axis, spec.rate)
    q = oracle.rotation(axis, rate, 0.0, t)[0]
    return t, np.einsum("ijn,jn->in", q, x)


# (t, x) -> (t~, x~) for each symmetry, written out from its parameters
FORWARD_MAPS = {
    "G": lambda s, t, x: (t + s.c0, s.a_mat @ x + np.outer(s.c1, t)
                          + s.c2[:, None]),
    "S1": lambda s, t, x: (np.exp(2 * s.eps) * t, np.exp(s.eps) * x),
    "S2": lambda s, t, x: (t, x + np.stack([ex.evaluate_many(c, t, x)
                                            for c in s.f])),
    "S3": _reflect,
    "S4": lambda s, t, x: (-t, x),
    "S5approx": lambda s, t, x: (t, np.exp(s.a) * x),
    "S6approx": _rotate,
    "R3D": _rotate,
}


class TestNSSpecs:
    @pytest.mark.parametrize("spec", all_ns_specs(),
                             ids=lambda s: s.tag)
    def test_point_map_round_trip(self, spec):
        # the declared inverse map undoes the forward map written above
        t, x = sample_points(200)
        tt, xt = FORWARD_MAPS[spec.tag](spec, t, x)
        x_exprs, t_expr = spec.frame.inverse_map_exprs()
        tb = ex.evaluate_many(t_expr, tt, xt)
        xb = np.stack([ex.evaluate_many(e, tt, xt) for e in x_exprs])
        assert np.max(np.abs(tb - t)) <= 1e-10
        assert np.max(np.abs(xb - x)) <= 1e-10

    @pytest.mark.parametrize("spec", all_ns_specs(), ids=lambda s: s.tag)
    def test_moved_is_the_declared_map(self, spec):
        # the frame moves points as the forward map written above does,
        # and its v~ is the slope dx~/dt~ of that map along x + v t
        forward = FORWARD_MAPS[spec.tag]
        t, x = sample_points(200)
        v = np.random.default_rng(3).uniform(-1.0, 1.0, size=x.shape)
        t_new, x_new, v_new, _ = spec.frame.moved(t, x, v)
        tt, xt = forward(spec, t, x)
        assert np.max(np.abs(t_new - tt)) <= 1e-12
        assert np.max(np.abs(x_new - xt)) <= 1e-12
        h = 1e-5
        (ta, xa), (tb, xb) = [forward(spec, t + d, x + d * v)
                              for d in (h, -h)]
        assert np.max(np.abs(v_new - (xa - xb) / (ta - tb))) < 1e-7

    def test_registry_covers_every_symmetry(self):
        assert sorted(fr.NS_SYMMETRIES) == sorted(
            ["G", "S1", "S2", "S3", "S4", "S5", "S6", "R3D"])
        assert sorted(cls.tag for cls in fr.NS_SYMMETRIES.values()) == \
            sorted(FORWARD_MAPS)

    def test_s2_requires_accelerated_f(self):
        with pytest.raises(ValueError):
            fr.AcceleratedShift([parse_field_expr("2.0*t"), const(0.0),
                                 const(0.0)])

    def test_field_round_trip_scalings(self):
        # applying the transform and then its inverse restores the fields
        u = parse_field_expr(
            "vec(sin(comp(x,1))*cos(comp(x,2)), -cos(comp(x,1))*sin(comp(x,2)), 0)")
        p = parse_field_expr("0.25*(cos(2.0*comp(x,1)) + cos(2.0*comp(x,2)))")
        pairs = [
            (fr.Scaling(0.4), fr.Scaling(-0.4)),
            (fr.Reflection(1), fr.Reflection(1)),
            (fr.TimeReversal(), fr.TimeReversal()),
            (fr.EulerScaling(0.25), fr.EulerScaling(-0.25)),
        ]
        t, x = sample_points(100)
        for spec, inv_spec in pairs:
            u1, p1, _ = fr.transform_ns_fields(u, p, spec)
            u2, p2, _ = fr.transform_ns_fields(u1, p1, inv_spec)
            for e_ref, e_got in ((u, u2), (p, p2)):
                ref = ex.evaluate_many(e_ref, t, x)
                got = ex.evaluate_many(e_got, t, x)
                assert np.max(np.abs(ref - got)) < 1e-10

    def test_s1_one_parameter_group(self):
        u = parse_field_expr("vec(comp(x,2), -comp(x,1), 0)")
        p = parse_field_expr("dot(x, x)")
        t, x = sample_points(100)
        ua, pa, _ = fr.transform_ns_fields(u, p, fr.Scaling(0.3))
        uab, pab, _ = fr.transform_ns_fields(ua, pa, fr.Scaling(0.5))
        uc, pc, _ = fr.transform_ns_fields(u, p, fr.Scaling(0.8))
        assert np.max(np.abs(ex.evaluate_many(uab, t, x)
                             - ex.evaluate_many(uc, t, x))) < 1e-12
        assert np.max(np.abs(ex.evaluate_many(pab, t, x)
                             - ex.evaluate_many(pc, t, x))) < 1e-12


class TestVelocityRules:
    P0 = const(0.0)

    def test_galilei_boost_rule(self):
        spec = fr.Galilei(c1=[1.0, 0.5, 0.0])
        u = parse_field_expr("vec(comp(x,2), 0, 0)")
        ut, _, _ = fr.transform_ns_fields(u, self.P0, spec)
        # at t=0 the map is the identity, so u~ = u + v pointwise
        got = ex.evaluate_many(ut, [0.0],
                               np.reshape((0.3, 0.7, 0.1), (3, 1)))[:, 0]
        assert np.allclose(got, [0.7 + 1.0, 0.5, 0.0])

    def test_rotation_rule_reproduces_transport(self):
        # u~(x~) must equal the transported velocity of a comoving particle
        spec = fr.Rotation3D(axis=(0, 0, 1), rate=0.9)
        u = parse_field_expr("vec(comp(x,2)*comp(x,2), comp(x,1), 1.0)")
        ut, _, _ = fr.transform_ns_fields(u, self.P0, spec)
        t = 0.6
        x0 = np.array([0.4, -0.8, 0.3])
        # transport: d/dt [Q(t) x(t)] with xdot = u(x)
        q, qd, _ = oracle.rotation((0, 0, 1), 0.9, 0.0, t)
        u_val = ex.evaluate_many(u, [t], x0.reshape(3, 1))[:, 0]
        expect = q @ u_val + qd @ x0
        got = ex.evaluate_many(ut, [t], (q @ x0).reshape(3, 1))[:, 0]
        assert np.allclose(got, expect, atol=1e-12)

    @pytest.mark.parametrize("spec", all_ns_specs(), ids=lambda s: s.tag)
    def test_velocity_rule_matches_mapped_particle_paths(self, spec):
        # particles move with a smooth u (not a Navier-Stokes solution);
        # mapped by FORWARD_MAPS, their paths must have velocity
        # dx~/dt~ = u~(x~, t~) with u~ the derived velocity action, which
        # is the one check that sees the scale s = lam / mu
        u = parse_field_expr("vec(comp(x,2)*comp(x,2) + t, sin(comp(x,1)),"
                             " 1.0 - t*comp(x,3))")
        ut, _, _ = fr.transform_ns_fields(u, self.P0, spec,
                                          psi_expr=self.P0)
        t, x = sample_points(20)
        h = 1e-4

        def rk4_step(dt):
            def f(dt_part, xs):
                return ex.evaluate_many(u, t + dt_part, xs)
            k1 = f(0.0, x)
            k2 = f(dt / 2, x + dt / 2 * k1)
            k3 = f(dt / 2, x + dt / 2 * k2)
            k4 = f(dt, x + dt * k3)
            return x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        forward = FORWARD_MAPS[spec.tag]
        (ta, xa), (tb, xb) = [forward(spec, t + d, rk4_step(d))
                              for d in (h, -h)]
        got = ex.evaluate_many(ut, *forward(spec, t, x))
        want = (xa - xb) / (ta - tb)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_scalar_transform_example(self):
        # |x| under a rotation: phi~(x~) = |Q^T x~| = |x~| numerically;
        # the pressure slot carries the scalar rule (s = 1, no offset)
        spec = fr.Rotation3D(axis=(1, 0, 2), rate=1.3)
        u = parse_field_expr("vec(0, 0, 0)")
        _, phit, _ = fr.transform_ns_fields(u, parse_field_expr("norm(x)"),
                                            spec)
        t, x = sample_points(50)
        got = ex.evaluate_many(phit, t, x)
        assert np.max(np.abs(got - np.linalg.norm(x, axis=0))) < 1e-12
