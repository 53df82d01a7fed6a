import numpy as np
import pytest

from invariance import expr as ex
from invariance import frames as fr
from invariance import mechanics as mech
from invariance.expr import const, parse_field_expr
from invariance.sampling import sample_points


RNG = np.random.default_rng(0xF00D)


def random_rotation_spec(rng):
    return fr.RotationSpec(axis=rng.normal(size=3),
                           rate=rng.uniform(-2, 2),
                           phase=rng.uniform(0, 2 * np.pi))


class TestRotationSpec:
    def test_orthogonality_and_det(self):
        for _ in range(20):
            spec = random_rotation_spec(RNG)
            for t in np.linspace(-3, 3, 11):
                q = spec.matrix(t)
                assert np.max(np.abs(q @ q.T - np.eye(3))) < 1e-12
                assert abs(np.linalg.det(q) - 1.0) < 1e-12

    def test_spin_constant_antisymmetric(self):
        for _ in range(10):
            spec = random_rotation_spec(RNG)
            omega = spec.spin()
            assert np.max(np.abs(omega + omega.T)) < 1e-12
            for t in np.linspace(-2, 2, 7):
                q, qd = spec.matrix(t), spec.matrix_dot(t)
                assert np.max(np.abs(q @ qd.T - omega)) < 1e-12

    def test_spin_matches_finite_difference_qdot(self):
        spec = fr.RotationSpec(axis=(1, 2, -1), rate=0.7, phase=0.3)
        h = 1e-7
        for t in (0.0, 0.5, 1.7):
            qd_fd = (spec.matrix(t + h) - spec.matrix(t - h)) / (2 * h)
            assert np.max(np.abs(qd_fd - spec.matrix_dot(t))) < 1e-6
            omega_fd = spec.matrix(t) @ qd_fd.T
            assert np.max(np.abs(omega_fd - spec.spin())) < 1e-6

    def test_quarter_turn(self):
        spec = fr.RotationSpec(axis=(0, 0, 1), rate=np.pi / 2)
        x = spec.matrix(1.0) @ np.array([1.0, 0, 0])
        assert np.allclose(x, [0, 1, 0], atol=1e-12)

    def test_q_expr_matches_numeric(self):
        spec = random_rotation_spec(RNG)
        q_expr = spec.q_expr()
        for t in (0.0, 0.4, 1.3):
            got = ex.evaluate(q_expr, (t, (0, 0, 0))).payload
            assert np.allclose(got, spec.matrix(t), atol=1e-14)

    def test_spin_composition_law(self):
        # Omega~ = Q Omega Q^T + Q Qdot^T for stacked rotations
        s1 = random_rotation_spec(RNG)
        s2 = random_rotation_spec(RNG)
        for t in (0.0, 0.8):
            q1, q1d = s1.matrix(t), s1.matrix_dot(t)
            q2, q2d = s2.matrix(t), s2.matrix_dot(t)
            q, qd = q2 @ q1, q2d @ q1 + q2 @ q1d
            omega_total = q @ qd.T
            omega_law = q2 @ (q1 @ q1d.T) @ q2.T + q2 @ q2d.T
            assert np.max(np.abs(omega_total - omega_law)) < 1e-10


def moved(spec, t, x):
    """(t', x') by the mechanics trajectory transport of ``spec``."""
    t = np.atleast_1d(np.asarray(t, float))
    traj = mech.Trajectory(frame="test", t=t, x=x.reshape(3, -1),
                           v=np.zeros((3, t.size)), dt=0.0)
    out = mech.transform_trajectory(traj, spec)
    return out.t, out.x


def galilei_inverse(g):
    """x = R^T (x' - v t - c), t = t' - tau as a GalileiSpec."""
    rt = g.r.T
    return fr.GalileiSpec(r=rt, v=-rt @ g.v,
                          c=rt @ (g.v * g.tau - g.c), tau=-g.tau)


class TestGalilei:
    def test_boost_example(self):
        spec = fr.GalileiSpec(v=np.array([1.0, 0, 0]))
        _, x = moved(spec, 2.0, np.zeros(3))
        assert np.allclose(x[:, 0], [2, 0, 0])

    def test_rejects_improper_rotation(self):
        with pytest.raises(ValueError):
            fr.GalileiSpec(r=np.diag([1.0, 1.0, -1.0]))

    def test_group_composition(self):
        rng = np.random.default_rng(7)
        t, x = sample_points(200)
        for _ in range(5):
            g1 = fr.GalileiSpec.random(rng)
            g2 = fr.GalileiSpec.random(rng)
            t1, x1 = moved(g1, t, x)
            t2, x2 = moved(g2, t1, x1)
            g21 = fr.GalileiSpec(r=g2.r @ g1.r, v=g2.r @ g1.v + g2.v,
                                 c=g2.r @ g1.c + g2.v * g1.tau + g2.c,
                                 tau=g1.tau + g2.tau)
            tc, xc = moved(g21, t, x)
            assert np.max(np.abs(t2 - tc)) < 1e-12
            assert np.max(np.abs(x2 - xc)) < 1e-12

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        t, x = sample_points(200)
        g = fr.GalileiSpec.random(rng)
        tb, xb = moved(galilei_inverse(g), *moved(g, t, x))
        assert np.max(np.abs(tb - t)) < 1e-12
        assert np.max(np.abs(xb - x)) < 1e-12


class TestEuclidean:
    def test_parabolic_path_example(self):
        spec = fr.EuclideanSpec(path=(parse_field_expr("t*t"),
                                      const(0.0), const(0.0)))
        _, x = moved(spec, 1.0, np.zeros(3))
        assert np.allclose(x[:, 0], [1, 0, 0])

    def test_path_derivatives(self):
        spec = fr.EuclideanSpec(path=(parse_field_expr("0.5*t*t"),
                                      parse_field_expr("sin(t)"),
                                      const(0.0)))
        assert np.allclose(spec.cdot(2.0), [2.0, np.cos(2.0), 0.0])
        assert np.allclose(spec.cddot(2.0), [1.0, -np.sin(2.0), 0.0])

    def test_round_trip(self):
        spec = fr.EuclideanSpec(
            rotation=fr.RotationSpec(axis=(0, 1, 1), rate=0.6),
            path=(parse_field_expr("t*t"), parse_field_expr("cos(t)"),
                  const(0.2)),
            tau=0.4)
        t, x = sample_points(100)
        ts, xs = moved(spec, t, x)
        # x = R(t)^T (x* - c(t)), t = t* - tau
        tb = ts - spec.tau
        xb = np.einsum("jin,jn->in", spec.rotation.matrix(tb),
                       xs - spec.c(tb))
        assert np.max(np.abs(tb - t)) < 1e-12
        assert np.max(np.abs(xb - x)) < 1e-12


def all_ns_specs():
    return [
        fr.Galilei(c0=0.3, a_mat=fr.RotationSpec(axis=(1, 1, 0)).matrix(0.7),
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
    return t, np.einsum("ijn,jn->in", spec.rotation.matrix(t), x)


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
        x_exprs, t_expr = spec.inverse_map_exprs()
        tb = ex.evaluate_many(t_expr, tt, xt)
        xb = np.stack([ex.evaluate_many(e, tt, xt) for e in x_exprs])
        assert np.max(np.abs(tb - t)) <= 1e-10
        assert np.max(np.abs(xb - x)) <= 1e-10

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
        got = ex.evaluate(ut, (0.0, (0.3, 0.7, 0.1))).payload
        assert np.allclose(got, [0.7 + 1.0, 0.5, 0.0])

    def test_rotation_rule_reproduces_transport(self):
        # u~(x~) must equal the transported velocity of a comoving particle
        spec = fr.Rotation3D(axis=(0, 0, 1), rate=0.9)
        u = parse_field_expr("vec(comp(x,2)*comp(x,2), comp(x,1), 1.0)")
        ut, _, _ = fr.transform_ns_fields(u, self.P0, spec)
        t = 0.6
        x0 = np.array([0.4, -0.8, 0.3])
        # transport: d/dt [Q(t) x(t)] with xdot = u(x)
        q, qd = spec.rotation.matrix(t), spec.rotation.matrix_dot(t)
        u_val = ex.evaluate(u, (t, x0)).payload
        expect = q @ u_val + qd @ x0
        got = ex.evaluate(ut, (t, q @ x0)).payload
        assert np.allclose(got, expect, atol=1e-12)

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
