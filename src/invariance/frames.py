"""Catalogue of frame changes and of the Navier-Stokes symmetry group.

Every map is one ``FrameChange``, x~ = lam Q(t) x + c(t), t~ = mu t + tau,
declared once with Q a mat3 and c a vec3 expression of the old frame's
time, neither reading x, and two scales, both 1 for a frame change
proper.  ``FrameChange.galilei`` (Q a constant rotation, c linear in t),
``FrameChange.euclidean`` (a uniform rotation and a path) and
``FrameChange.rotation`` (the Rodrigues form of a uniform rotation, with
numbers or symbols as its parameters) build frame changes.
``FrameChange.exprs`` gives Q, Q', Q'' and c, c', c'' as expressions,
derived by ``differentiate``, and ``FrameChange.at(t)`` evaluates all six
in one pass, the jet ((Q, c), (Q', c'), (Q'', c'')); a caller that needs
only Q reads ``at_times(frame.q, t)``.  ``FrameChange.moved`` is the one
velocity rule, v~ = (lam (Q v + Q' x) + c') / mu, over states at given
times, and returns the jet it read; the mechanics checks, the geometric
suite and the closure screen read it.  As expressions of the new frame's
time, ``carry`` moves reference values with the map, the inverse map
and ``pull`` compose a field with it, and ``matrix`` and
``velocity_offset`` are the parts of a velocity field's action; the
classifiers' velocity rule reads the same offset.
Q times a vector is ``dot`` in expressions and ``rotate`` over arrays;
both sum one component at a time, so neither depends on the batch size.
A ``RotationSpec`` only names the axis, rate and phase of a uniform
rotation.

Navier-Stokes symmetries: each of G, S1-S6 and the 3D rotation negative
control R3D is one small frozen class in ``NS_SYMMETRIES`` that declares
its map as a ``FrameChange``, plus S2's and S6's pressure offsets.
``NSSymmetry`` reads the velocity scale s = lam / mu and the viscosity
action lam^2 / mu from it.  ``transform_ns_fields``, the fluctuation
action (M, s) of the Reynolds-ensemble check, the closure screen's rows,
the scenario parser and the residual guards all read the same classes,
so adding a symmetry means adding one class.

Conventions:
    x_tilde = Q x + c, spin Omega := Q Qdot^T (antisymmetric, constant
    for a uniform rotation), velocity u_tilde = Q u - Omega x_tilde for
    c = 0.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .expr import (
    Node, SCALAR, VEC, MAT,
    bundle, const, time, add, sub, mul, neg, dot, transpose, vec, mat, comp,
    func, x_vector, vector_const, matrix_const, zero, parse_field_expr,
    expand_derivatives, compose, differentiate, evaluate_many,
)

__all__ = [
    "RotationSpec", "FrameChange",
    "rotate", "at_times",
    "NS_SYMMETRIES", "transform_ns_fields",
]


# ---------------------------------------------------------------------------
# maps x~ = lam Q(t) x + c(t), t~ = mu t + tau
# ---------------------------------------------------------------------------

def _as_scalar(v):
    """A scalar node from a node, a number or field-DSL text."""
    if isinstance(v, Node):
        return v
    return parse_field_expr(v) if isinstance(v, str) else const(v)


def _d_dt(e, order):
    e = expand_derivatives(e)
    for _ in range(order):
        e = differentiate(e, "t")
    return e


def _vec3(v, name):
    v = np.zeros(3) if v is None else np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("%s must have 3 components" % name)
    return v


def _uniform_path(v, c):
    """c(t) = v t + c as a vec3 expression."""
    return add(mul(time(), vector_const(v)), vector_const(c))


def rotate(m, a):
    """m a for m (3, 3) or (3, 3, N) and a (3,) or (3, N), summed left to
    right one component at a time as the evaluators' ``dot`` is, so a
    value does not depend on how many points share the call."""
    return m[:, 0] * a[0] + m[:, 1] * a[1] + m[:, 2] * a[2]


def at_times(e, t):
    """An expression of time, or the tuple of a ``bundle``'s roots, at the
    scalar ``t``, or at (N,) times with a trailing point axis."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = evaluate_many(e, ts, np.zeros((3, ts.shape[0])))
    if np.ndim(t):
        return out
    return (tuple(v[..., 0] for v in out) if isinstance(out, tuple)
            else out[..., 0])


def _normalize(axis):
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0:
        raise ValueError("rotation axis must be nonzero")
    return axis / n


def _times(m, v):
    """m v, with the identity skipped."""
    return v if m is matrix_const(np.eye(3)) else dot(m, v)


def _of_time(e, name):
    """``e`` expanded, refused if it reads x: composed with another point,
    an expression of time alone is itself."""
    e = expand_derivatives(e)
    if compose(e, (zero(SCALAR),) * 3, time()) is not e:
        raise ValueError("%s must be a function of t alone" % name)
    return e


@dataclass(frozen=True)
class FrameChange:
    """The map x~ = lam Q(t) x + c(t), t~ = mu t + tau.

    ``q`` is a mat3 and ``c`` a vec3 expression of the old frame's time
    (they may hold bound symbols, as the classifiers' rotation does).
    Every matrix and vector of the frame comes from ``exprs``.
    """

    q: Node
    c: Node
    tau: float = 0.0
    lam: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        if self.q.shape != MAT or self.c.shape != VEC:
            raise ValueError("a frame change needs a mat3 Q and a vec3 c")
        object.__setattr__(self, "q", _of_time(self.q, "Q(t)"))
        object.__setattr__(self, "c", _of_time(self.c, "c(t)"))
        for name in ("tau", "lam", "mu"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def galilei(cls, r=None, v=None, c=None, tau=0.0):
        """x~ = R x + v t + c, t~ = t + tau with R a proper rotation."""
        r = np.eye(3) if r is None else np.asarray(r, dtype=float)
        if (r.shape != (3, 3) or np.max(np.abs(r @ r.T - np.eye(3))) > 1e-12
                or abs(np.linalg.det(r) - 1.0) > 1e-12):
            raise ValueError("R must be a proper rotation matrix")
        path = _uniform_path(_vec3(v, "v"), _vec3(c, "c"))
        return cls(matrix_const(r), path, tau)

    @classmethod
    def random_galilei(cls, rng):
        """A Galilei frame with R a random rotation; draws the axis, the
        angle, v, c and tau from ``rng`` in that order."""
        rotation = RotationSpec(axis=rng.normal(size=3),
                                phase=rng.uniform(0, 2 * np.pi))
        return cls.galilei(r=at_times(rotation.frame().q, 0.0),
                           v=rng.uniform(-1, 1, 3), c=rng.uniform(-1, 1, 3),
                           tau=rng.uniform(-1, 1))

    @classmethod
    def euclidean(cls, rotation=None, path=(0.0, 0.0, 0.0), tau=0.0):
        """Q(t) the uniform ``rotation`` (a ``RotationSpec``; none by
        default) and c(t) the three scalar expressions of ``path`` (nodes,
        numbers or field-DSL text)."""
        path = tuple(map(_as_scalar, path))
        if len(path) != 3 or any(p.shape != SCALAR for p in path):
            raise ValueError("path components must be scalar expressions")
        q = (rotation or RotationSpec(rate=0.0)).frame().q
        return cls(q, vec(*path), tau)

    @classmethod
    def rotation(cls, axis, rate, phase):
        """x~ = Q(t) x with Q = I + sin(th) K + (1 - cos(th)) K^2 the
        Rodrigues rotation about the unit ``axis``, K = [axis]x, by the
        angle th = rate t + phase; each parameter may be a number or a
        scalar node."""
        theta = add(mul(_as_scalar(rate), time()), _as_scalar(phase))
        a1, a2, a3 = [_as_scalar(a) for a in axis]
        z = const(0.0)
        k = mat([[z, neg(a3), a2], [a3, z, neg(a1)], [neg(a2), a1, z]])
        q = add(matrix_const(np.eye(3)),
                add(mul(func("sin", theta), k),
                    mul(sub(const(1.0), func("cos", theta)), dot(k, k))))
        return cls(q, zero(VEC))

    def exprs(self, order=0):
        """(Q^(k), c^(k)) as expressions for k = ``order``; each
        derivative is kept on the expression it derives from."""
        return _d_dt(self.q, order), _d_dt(self.c, order)

    @cached_property
    def _jet(self):
        return bundle(*(e for k in range(3) for e in self.exprs(k)))

    def at(self, t):
        """The jet ((Q, c), (Q', c'), (Q'', c'')) at the old frame's time
        ``t`` from one evaluation of the tape the frame holds: a scalar
        gives (3, 3) and (3,) arrays, (N,) times (3, 3, N) and (3, N).  A
        caller that needs only Q reads ``at_times(frame.q, t)``."""
        q, c, dq, dc, ddq, ddc = at_times(self._jet, t)
        return (q, c), (dq, dc), (ddq, ddc)

    def moved(self, t, x, v):
        """New-frame (t, x, v) of states (3, N) at times (N,), and the jet
        ``at(t)``: x~ = lam Q x + c and v~ = (lam (Q v + Q' x) + c') / mu;
        a scale of 1 leaves every bit as it is."""
        jet = self.at(t)
        (q, c), (dq, dc), _ = jet
        return (self.mu * t + self.tau, self.lam * rotate(q, x) + c,
                (self.lam * (rotate(q, v) + rotate(dq, x)) + dc) / self.mu,
                jet)

    def _old_time(self):
        """t = (t~ - tau) / mu, an expression of the new frame's time."""
        return mul(const(1.0 / self.mu), sub(time(), const(self.tau)))

    def _at_old_time(self, order):
        """(Q^(k), c^(k)) at the old time, as expressions of t~."""
        return [compose(e, (), self._old_time()) for e in self.exprs(order)]

    def carry(self, x0, v0):
        """x0~ = lam Q x0 + c and v0~ = (lam Q v0 + c') / mu at the old
        time, as vec3 expressions of t~; ``x0`` and ``v0`` are vec3
        expressions of time or three numbers each."""
        q, c = self.exprs(0)
        dc = self.exprs(1)[1]
        x0, v0 = (mul(const(self.lam), dot(q, ref if isinstance(ref, Node)
                                           else vector_const(ref)))
                  for ref in (x0, v0))
        back = self._old_time()
        return (compose(add(x0, c), (), back),
                compose(mul(const(1.0 / self.mu), add(v0, dc)), (), back))

    def inverse_map_exprs(self):
        """(x-exprs, t-expr): x = Q^T (x~ - c) / lam at the old time t."""
        q, c = self._at_old_time(0)
        x = mul(const(1.0 / self.lam), _times(transpose(q),
                                              sub(x_vector(), c)))
        return [comp(x, i) for i in range(3)], self._old_time()

    def pull(self, e):
        """``e`` composed with the inverse map (a new-frame expression)."""
        return compose(expand_derivatives(e), *self.inverse_map_exprs())

    def matrix(self):
        """M = Q at the old time: a velocity action's matrix."""
        return self._at_old_time(0)[0]

    def velocity_offset(self):
        """(Q' Q^T (x~ - c) + c') / mu at the old time: the part of v~ that
        ``moved`` adds to lam Q v / mu, at x = Q^T (x~ - c) / lam."""
        (q, c), (dq, dc) = self._at_old_time(0), self._at_old_time(1)
        spin = dot(dot(dq, transpose(q)), sub(x_vector(), c))
        return mul(const(1.0 / self.mu), add(spin, dc))


@dataclass(frozen=True)
class RotationSpec:
    """A uniform rotation about ``axis`` (normalised) by the angle
    rate t + phase."""

    axis: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    rate: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "axis", tuple(_normalize(self.axis)))

    def frame(self):
        """The rotation as a ``FrameChange`` (no translation, tau 0)."""
        return FrameChange.rotation(self.axis, self.rate, self.phase)


# ---------------------------------------------------------------------------
# Navier-Stokes symmetries
# ---------------------------------------------------------------------------

class NSSymmetry:
    """x~ = lam Q(t) x + c(t), t~ = mu t + tau with ``frame`` the
    ``FrameChange`` of the map; a subclass sets only what is not the
    identity.  ``tag`` names it in reports, ``json_tag`` in scenarios;
    ``euler_only`` / ``planar_only`` restrict the flows it maps to
    solutions, and ``note`` is attached to its verdicts."""

    tag = json_tag = None
    frame = FrameChange(matrix_const(np.eye(3)), zero(VEC))
    euler_only = planar_only = False
    note = None

    def _set(self, **attrs):
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    @property
    def s(self):
        """The velocity scale lam / mu."""
        return self.frame.lam / self.frame.mu

    @property
    def nu_action(self):
        """nu~ / nu = lam^2 / mu: the viscosity scales as length^2 / time."""
        return self.frame.lam * self.frame.lam / self.frame.mu

    def pressure_offset(self, psi):
        """``psi`` is the analytic 2D stream function, or None."""
        return zero(SCALAR)


@dataclass(frozen=True)
class Galilei(NSSymmetry):
    """G: x~ = A x + c1 t + c2, t~ = t + c0 (A orthogonal); u~ = A u + c1."""

    c0: float = 0.0
    a_mat: Optional[np.ndarray] = None
    c1: Optional[np.ndarray] = None
    c2: Optional[np.ndarray] = None
    tag = json_tag = "G"

    def __post_init__(self):
        a = np.eye(3) if self.a_mat is None else np.asarray(self.a_mat, float)
        if a.shape != (3, 3) or np.max(np.abs(a @ a.T - np.eye(3))) > 1e-12:
            raise ValueError("A must be orthogonal")
        c1, c2 = _vec3(self.c1, "c1"), _vec3(self.c2, "c2")
        self._set(c0=float(self.c0), a_mat=a, c1=c1, c2=c2,
                  frame=FrameChange(matrix_const(a), _uniform_path(c1, c2),
                                    self.c0))


@dataclass(frozen=True)
class Scaling(NSSymmetry):
    """S1: x~ = e^eps x, t~ = e^(2 eps) t; u~ = e^-eps u, p~ = e^(-2 eps) p."""

    eps: float
    tag = json_tag = "S1"

    def __post_init__(self):
        eps = float(self.eps)
        self._set(eps=eps, frame=replace(self.frame, lam=np.exp(eps),
                                         mu=np.exp(2 * eps)))


@dataclass(frozen=True)
class AcceleratedShift(NSSymmetry):
    """S2: x~ = x + f(t); u~ = u + f', p~ = p - x . f'' + g(t).

    Requires f'' not identically zero (otherwise it is a Galilei boost).
    """

    f: Tuple[Node, Node, Node]
    g: Optional[Node] = None
    tag = json_tag = "S2"

    def __post_init__(self):
        f = tuple(_as_scalar(c) for c in self.f)
        if len(f) != 3:
            raise ValueError("S2 needs 3 components of f(t)")
        _of_time(vec(*f), "S2's f(t)")
        frame = FrameChange.euclidean(path=f)
        if not np.any(frame.at(np.linspace(0, 1, 17))[2][1]):
            raise ValueError("S2 requires f''(t) != 0 (otherwise it is a "
                             "Galilei boost)")
        g = _of_time(_as_scalar(0.0 if self.g is None else self.g),
                     "S2's g(t)")
        self._set(f=f, g=g, frame=frame)

    def pressure_offset(self, psi):
        x_old = vec(*self.frame.inverse_map_exprs()[0])
        fdd = self.frame._at_old_time(2)[1]
        return add(neg(dot(x_old, fdd)), self.frame.pull(self.g))


@dataclass(frozen=True)
class Reflection(NSSymmetry):
    """S3: reflection of the coordinate ``axis`` (0, 1 or 2); u~ = J u."""

    axis: int
    tag = json_tag = "S3"

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValueError("reflection axis must be 0, 1 or 2")
        d = np.ones(3)
        d[self.axis] = -1.0
        self._set(frame=FrameChange(matrix_const(np.diag(d)), zero(VEC)))


@dataclass(frozen=True)
class TimeReversal(NSSymmetry):
    """S4: t~ = -t; u~ = -u and nu -> -nu."""

    tag = json_tag = "S4"
    frame = replace(NSSymmetry.frame, mu=-1.0)


@dataclass(frozen=True)
class EulerScaling(NSSymmetry):
    """S5: x~ = e^a x, t~ = t; u~ = e^a u, p~ = e^(2a) p.

    Exact only for the Euler equations (nu = 0), so nu is left fixed.
    """

    a: float
    tag, json_tag = "S5approx", "S5"
    euler_only = True
    nu_action = 1.0

    def __post_init__(self):
        self._set(a=float(self.a), frame=replace(self.frame,
                                                 lam=np.exp(self.a)))


@dataclass(frozen=True)
class PlanarRotation(NSSymmetry):
    """S6: rotation about x3 at rate ``omega``, for 2D flows only, with the
    pressure regauge p~ = p + w^2 |x~_planar|^2 / 2 - 2 w psi."""

    omega: float
    tag, json_tag = "S6approx", "S6"
    planar_only = True

    def __post_init__(self):
        self._set(omega=float(self.omega),
                  frame=RotationSpec(rate=float(self.omega)).frame())

    def pressure_offset(self, psi):
        if psi is None:
            raise ValueError("S6 needs the analytic stream function psi")
        xt = x_vector()
        w = self.omega
        planar = add(mul(comp(xt, 0), comp(xt, 0)),
                     mul(comp(xt, 1), comp(xt, 1)))
        # With the counter-clockwise convention Q = exp(w t [z]x) and the
        # stream function fixed by d(psi) = -u^2 dx^1 + u^1 dx^2, the
        # consistent regauge carries -2w psi (verified by the exactness
        # oracle on the vortex solution and by the group property
        # S6(w) o S6(w') = S6(w+w')).
        return add(mul(const(0.5 * w * w), planar),
                   mul(const(-2.0 * w), self.frame.pull(psi)))


@dataclass(frozen=True)
class Rotation3D(NSSymmetry):
    """R3D: time-dependent 3D rotation *without* pressure regauge; the
    negative control showing that 3D MFI fails for Navier-Stokes."""

    rate: float
    axis: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    tag = json_tag = "R3D"
    note = "negative control: 3D rotation without regauge (expected FAIL)"

    def __post_init__(self):
        self._set(frame=RotationSpec(axis=_vec3(self.axis, "axis"),
                                     rate=float(self.rate)).frame())


NS_SYMMETRIES = {cls.json_tag: cls for cls in (
    Galilei, Scaling, AcceleratedShift, Reflection, TimeReversal,
    EulerScaling, PlanarRotation, Rotation3D)}


def transform_ns_fields(u_expr, p_expr, spec, psi_expr=None):
    """(u~, p~, nu action) under an NS symmetry.

    u~ = s M (u o phi^-1) + velocity offset and p~ = s^2 (p o phi^-1) +
    pressure offset; ``psi_expr`` is the analytic 2D stream function,
    required by S6's pressure regauge.
    """
    frame, s = spec.frame, spec.s
    u_t = mul(const(s), _times(frame.matrix(), frame.pull(u_expr)))
    p_t = mul(const(s * s), frame.pull(p_expr))
    return (add(u_t, frame.velocity_offset()),
            add(p_t, spec.pressure_offset(psi_expr)), spec.nu_action)
