"""Catalogue of frame changes and of the Navier-Stokes symmetry group.

Frame changes: uniform rotations (``RotationSpec``, Rodrigues closed forms
in numpy and as expressions), Galilei transformations (``GalileiSpec``)
and time-dependent Euclidean frames (``EuclideanSpec``), whose numeric
maps the mechanics checks evaluate.

Navier-Stokes symmetries: each of G, S1-S6 and the 3D rotation negative
control R3D is one small frozen class in ``NS_SYMMETRIES``.  A class
declares only its inverse map (the old coordinates as expressions of the
new ones), its velocity action u~ = s M(t) (u o phi^-1) + offset, an
optional pressure offset and its action on the viscosity.  Everything
else is derived: ``transform_ns_fields`` builds u~ and
p~ = s^2 (p o phi^-1) + offset (the pressure scales as s^2 under every
symmetry), the Reynolds-ensemble check takes the fluctuation action
(M at the sample times, s), and the scenario parser and the residual
guards read the same classes.  Adding a symmetry means adding one class.

Conventions:
    x_tilde = Q x, spin Omega := Q Qdot^T (constant, antisymmetric),
    velocity u_tilde = Q u - Omega x_tilde.
"""

from dataclasses import dataclass, field as dc_field, fields
from typing import Optional, Tuple

import numpy as np

from . import expr as ex
from .expr import (
    Node, SCALAR, VEC,
    const, time, add, sub, mul, neg, dot, transpose, vec, mat, comp,
    func, x_vector, vector_const, matrix_const, zero, parse_field_expr,
    expand_derivatives, compose, differentiate,
)

__all__ = [
    "RotationSpec", "GalileiSpec", "EuclideanSpec",
    "rodrigues_q", "axis_cross_mat",
    "NS_SYMMETRIES", "transform_ns_fields",
]


# ---------------------------------------------------------------------------
# Rodrigues rotation helpers (numeric and symbolic)
# ---------------------------------------------------------------------------

def axis_cross(axis):
    """[axis]x as a numpy matrix."""
    a1, a2, a3 = np.asarray(axis, dtype=float)
    return np.array([[0.0, -a3, a2], [a3, 0.0, -a1], [-a2, a1, 0.0]])


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


def axis_cross_mat(axis):
    """[axis]x as a matrix expression; entries may be numbers or nodes."""
    a1, a2, a3 = [_as_scalar(a) for a in axis]
    z = const(0.0)
    return mat([[z, neg(a3), a2], [a3, z, neg(a1)], [neg(a2), a1, z]])


def rodrigues_q(axis, theta):
    """Q = I + sin(theta) K + (1 - cos(theta)) K^2 as a matrix expression.

    ``axis`` must be a unit vector (numbers or scalar nodes); ``theta`` a
    scalar node or number.
    """
    theta = _as_scalar(theta)
    k = axis_cross_mat(axis)
    k2 = dot(k, k)
    eye = matrix_const(np.eye(3))
    return add(eye, add(mul(func("sin", theta), k),
                        mul(sub(const(1.0), func("cos", theta)), k2)))


def _normalize(axis):
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0:
        raise ValueError("rotation axis must be nonzero")
    return axis / n


@dataclass(frozen=True)
class RotationSpec:
    """Uniform rotation x_tilde = Q(t) x with Q(t) = exp((rate*t+phase) K)."""

    axis: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    rate: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "axis", tuple(_normalize(self.axis)))

    # numeric closed forms -------------------------------------------------
    def matrix(self, t):
        t = np.asarray(t, dtype=float)
        k = axis_cross(self.axis)
        th = self.rate * t + self.phase
        eye = np.eye(3)
        # broadcast over trailing point axis when t is an array
        s = np.sin(th)
        c = 1.0 - np.cos(th)
        if t.ndim == 0:
            return eye + s * k + c * (k @ k)
        return (eye[:, :, None] + s * k[:, :, None]
                + c * (k @ k)[:, :, None])

    def matrix_dot(self, t):
        t = np.asarray(t, dtype=float)
        k = axis_cross(self.axis)
        th = self.rate * t + self.phase
        w = self.rate
        if t.ndim == 0:
            return w * np.cos(th) * k + w * np.sin(th) * (k @ k)
        return (w * np.cos(th) * k[:, :, None]
                + w * np.sin(th) * (k @ k)[:, :, None])

    def matrix_ddot(self, t):
        t = np.asarray(t, dtype=float)
        k = axis_cross(self.axis)
        th = self.rate * t + self.phase
        w2 = self.rate ** 2
        if t.ndim == 0:
            return -w2 * np.sin(th) * k + w2 * np.cos(th) * (k @ k)
        return (-w2 * np.sin(th) * k[:, :, None]
                + w2 * np.cos(th) * (k @ k)[:, :, None])

    def spin(self):
        """Omega = Q Qdot^T = -rate*[axis]x (constant)."""
        return -self.rate * axis_cross(self.axis)

    # symbolic closed forms over the Time symbol ----------------------------
    def theta_expr(self):
        return add(mul(const(self.rate), time()), const(self.phase))

    def q_expr(self):
        return rodrigues_q(self.axis, self.theta_expr())

    def qdot_expr(self):
        th = self.theta_expr()
        k = axis_cross_mat(self.axis)
        k2 = dot(k, k)
        w = const(self.rate)
        return add(mul(mul(w, func("cos", th)), k),
                   mul(mul(w, func("sin", th)), k2))


@dataclass(frozen=True)
class GalileiSpec:
    """x' = R x + v t + c,  t' = t + tau."""

    r: np.ndarray = dc_field(default_factory=lambda: np.eye(3))
    v: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    c: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    tau: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if (np.max(np.abs(r @ r.T - np.eye(3))) > 1e-12
                or abs(np.linalg.det(r) - 1.0) > 1e-12):
            raise ValueError("R must be a proper rotation matrix")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))

    @staticmethod
    def random(rng):
        spec = RotationSpec(axis=rng.normal(size=3), rate=1.0,
                            phase=rng.uniform(0, 2 * np.pi))
        return GalileiSpec(r=spec.matrix(0.0), v=rng.uniform(-1, 1, 3),
                           c=rng.uniform(-1, 1, 3), tau=rng.uniform(-1, 1))


@dataclass(frozen=True)
class EuclideanSpec:
    """x* = R(t) x + c(t),  t* = t + tau (time-dependent Galilei)."""

    rotation: RotationSpec = RotationSpec(rate=0.0)
    path: Tuple[Node, Node, Node] = (const(0.0),) * 3
    tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(map(_as_scalar, self.path)))
        for p in self.path:
            if p.shape != SCALAR:
                raise ValueError("path components must be scalar expressions")

    def _path_eval(self, order, t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        zeros = np.zeros((3, ts.shape[0]))
        out = np.stack([ex.evaluate_many(_d_dt(p, order), ts, zeros)
                        for p in self.path])
        return out[:, 0] if np.ndim(t) == 0 else out

    def c(self, t):
        return self._path_eval(0, t)

    def cdot(self, t):
        return self._path_eval(1, t)

    def cddot(self, t):
        return self._path_eval(2, t)


# ---------------------------------------------------------------------------
# Navier-Stokes symmetries
# ---------------------------------------------------------------------------

def _split_vec(v):
    return [comp(v, i) for i in range(3)]


def _vec3(v, name):
    v = np.zeros(3) if v is None else np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("%s must have 3 components" % name)
    return v


class NSSymmetry:
    """One Navier-Stokes symmetry; subclasses override what is not the
    identity.  ``tag`` names it in reports, ``json_tag`` in scenarios;
    ``euler_only`` / ``planar_only`` restrict the flows it maps to
    solutions, and ``note`` is attached to its verdicts."""

    tag = json_tag = None
    s = 1.0
    nu_action = 1.0
    euler_only = planar_only = False
    note = None

    def inverse_map_exprs(self):
        """(x-exprs, t-expr): the old coordinates in terms of the new."""
        raise NotImplementedError

    def pull(self, e):
        """``e`` composed with the inverse map (a new-frame expression)."""
        return compose(expand_derivatives(e), *self.inverse_map_exprs())

    def matrix(self):
        """M(t) of the velocity action, over the new frame's time."""
        return matrix_const(np.eye(3))

    def velocity_offset(self):
        return zero(VEC)

    def pressure_offset(self, psi):
        """``psi`` is the analytic 2D stream function, or None."""
        return zero(SCALAR)

    @classmethod
    def from_json(cls, d, **extra):
        """The symmetry a scenario's ``symmetry`` object describes."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d},
                   **extra)


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
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "a_mat", a)
        object.__setattr__(self, "c1", _vec3(self.c1, "c1"))
        object.__setattr__(self, "c2", _vec3(self.c2, "c2"))

    @classmethod
    def from_json(cls, d):
        ar = d.get("a_rotation")
        a = (None if ar is None
             else RotationSpec(axis=ar["axis"]).matrix(float(ar["angle"])))
        return super().from_json(d, a_mat=a)

    def inverse_map_exprs(self):
        t0 = sub(time(), const(self.c0))
        shift = add(mul(t0, vector_const(self.c1)), vector_const(self.c2))
        return (_split_vec(dot(matrix_const(self.a_mat.T),
                               sub(x_vector(), shift))), t0)

    def matrix(self):
        return matrix_const(self.a_mat)

    def velocity_offset(self):
        return vector_const(self.c1)


@dataclass(frozen=True)
class Scaling(NSSymmetry):
    """S1: x~ = e^eps x, t~ = e^(2 eps) t; u~ = e^-eps u, p~ = e^(-2 eps) p."""

    eps: float
    tag = json_tag = "S1"

    def __post_init__(self):
        object.__setattr__(self, "eps", float(self.eps))

    @property
    def s(self):
        return float(np.exp(-self.eps))

    def inverse_map_exprs(self):
        s = self.s
        return (_split_vec(mul(const(s), x_vector())),
                mul(const(s * s), time()))


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
        if not np.any(EuclideanSpec(path=f).cddot(np.linspace(0, 1, 17))):
            raise ValueError("S2 requires f''(t) != 0 (otherwise it is a "
                             "Galilei boost)")
        object.__setattr__(self, "f", f)
        g = 0.0 if self.g is None else self.g
        object.__setattr__(self, "g", _as_scalar(g))

    def inverse_map_exprs(self):
        f_t = vec(*[expand_derivatives(c) for c in self.f])
        return _split_vec(sub(x_vector(), f_t)), time()

    def velocity_offset(self):
        return vec(*[self.pull(_d_dt(c, 1)) for c in self.f])

    def pressure_offset(self, psi):
        x_old = vec(*self.inverse_map_exprs()[0])
        fdd = vec(*[self.pull(_d_dt(c, 2)) for c in self.f])
        return add(neg(dot(x_old, fdd)), self.pull(self.g))


@dataclass(frozen=True)
class Reflection(NSSymmetry):
    """S3: reflection of the coordinate ``axis`` (0, 1 or 2); u~ = J u."""

    axis: int
    tag = json_tag = "S3"

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValueError("reflection axis must be 0, 1 or 2")

    @classmethod
    def from_json(cls, d):
        return cls(int(d["axis"]) - 1)

    def inverse_map_exprs(self):
        comps = _split_vec(x_vector())
        comps[self.axis] = neg(comps[self.axis])
        return comps, time()

    def matrix(self):
        d = np.ones(3)
        d[self.axis] = -1.0
        return matrix_const(np.diag(d))


@dataclass(frozen=True)
class TimeReversal(NSSymmetry):
    """S4: t~ = -t; u~ = -u and nu -> -nu."""

    tag = json_tag = "S4"
    s = -1.0
    nu_action = -1.0

    def inverse_map_exprs(self):
        return _split_vec(x_vector()), neg(time())


@dataclass(frozen=True)
class EulerScaling(NSSymmetry):
    """S5: x~ = e^a x, t~ = t; u~ = e^a u, p~ = e^(2a) p.

    Exact only for the Euler equations (nu = 0).
    """

    a: float
    tag, json_tag = "S5approx", "S5"
    euler_only = True

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))

    @property
    def s(self):
        return float(np.exp(self.a))

    def inverse_map_exprs(self):
        s = float(np.exp(-self.a))
        return _split_vec(mul(const(s), x_vector())), time()


class _Rotating(NSSymmetry):
    """x~ = Q(t) x with u~ = Q u + Qdot Q^T x~; ``__post_init__`` sets the
    ``rotation`` (a RotationSpec)."""

    def inverse_map_exprs(self):
        q = self.rotation.q_expr()
        return _split_vec(dot(transpose(q), x_vector())), time()

    def matrix(self):
        return self.rotation.q_expr()

    def velocity_offset(self):
        q = self.rotation.q_expr()
        return dot(dot(self.rotation.qdot_expr(), transpose(q)), x_vector())


@dataclass(frozen=True)
class PlanarRotation(_Rotating):
    """S6: rotation about x3 at rate ``omega``, for 2D flows only, with the
    pressure regauge p~ = p + w^2 |x~_planar|^2 / 2 - 2 w psi."""

    omega: float
    tag, json_tag = "S6approx", "S6"
    planar_only = True

    def __post_init__(self):
        object.__setattr__(self, "rotation", RotationSpec(
            axis=(0.0, 0.0, 1.0), rate=float(self.omega)))

    def pressure_offset(self, psi):
        if psi is None:
            raise ValueError("S6 needs the analytic stream function psi")
        xt = x_vector()
        w = self.rotation.rate
        planar = add(mul(comp(xt, 0), comp(xt, 0)),
                     mul(comp(xt, 1), comp(xt, 1)))
        # With the counter-clockwise convention Q = exp(w t [z]x) and the
        # stream function fixed by d(psi) = -u^2 dx^1 + u^1 dx^2, the
        # consistent regauge carries -2w psi (verified by the exactness
        # oracle on the vortex solution and by the group property
        # S6(w) o S6(w') = S6(w+w')).
        return add(mul(const(0.5 * w * w), planar),
                   mul(const(-2.0 * w), self.pull(psi)))


@dataclass(frozen=True)
class Rotation3D(_Rotating):
    """R3D: time-dependent 3D rotation *without* pressure regauge; the
    negative control showing that 3D MFI fails for Navier-Stokes."""

    rate: float
    axis: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    tag = json_tag = "R3D"
    note = "negative control: 3D rotation without regauge (expected FAIL)"

    def __post_init__(self):
        object.__setattr__(self, "rotation", RotationSpec(
            axis=_vec3(self.axis, "axis"), rate=float(self.rate)))


NS_SYMMETRIES = {cls.json_tag: cls for cls in (
    Galilei, Scaling, AcceleratedShift, Reflection, TimeReversal,
    EulerScaling, PlanarRotation, Rotation3D)}


def transform_ns_fields(u_expr, p_expr, spec, psi_expr=None):
    """(u~, p~, nu action) under an NS symmetry.

    u~ = s M (u o phi^-1) + velocity offset and p~ = s^2 (p o phi^-1) +
    pressure offset; ``psi_expr`` is the analytic 2D stream function,
    required by S6's pressure regauge.
    """
    s = spec.s
    u_t = mul(const(s), dot(spec.matrix(), spec.pull(u_expr)))
    p_t = mul(const(s * s), spec.pull(p_expr))
    return (add(u_t, spec.velocity_offset()),
            add(p_t, spec.pressure_offset(psi_expr)), spec.nu_action)
