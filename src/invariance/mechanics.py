"""Newtonian point mechanics: frame-indifferent force laws, a fixed-step
4th-order integrator, trajectory and reference transport under a
``frames.FrameChange``, and the fictitious-force closure check in
accelerating frames.  Every frame change takes one path: states move by
``FrameChange.moved`` and Q, c and their time derivatives come from
``FrameChange.at``, so a Galilei boost is the Euclidean case with a
constant Q and a linear c.

Force laws are expressions over the invariant argument vocabulary
(differences against transported reference values and their norms).
Whether a law is frame-indifferent is judged by evaluating it in both
frames, never from the symbols it is written in.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Tuple, Union

import numpy as np

from . import expr as ex
from . import frames as fr
from .expr import Node, add, mul, sub, sym
from .checks.verdict import CheckPart

__all__ = [
    "ForceModel", "Trajectory", "X_ABS", "V_ABS", "T_ABS",
    "oscillator_model", "drag_gravity_model", "absolute_velocity_model",
    "integrate", "transform_trajectory",
    "check_force_frame_indifference", "check_galilei_covariance",
    "inertial_force", "check_noninertial_closure",
]

# invariant argument vocabulary for force expressions: the vectors dx and
# dv and the scalars r = |x - x0r|, s = |xdot - v0r|,
# q = (x - x0r) . (xdot - v0r) and w = t - t0r, which the model writes out
# against its references
DX = sym("dx", ex.VEC)       # x - x0r
DV = sym("dv", ex.VEC)       # xdot - v0r
R_ARG = sym("r")             # |x - x0r|
# absolute (frame-dependent) leaves x, xdot and t, for deliberately
# non-compliant models: the point and the time themselves, and the
# velocity, the one symbol a force law binds
X_ABS = ex.x_vector()
V_ABS = sym("v_abs", ex.VEC)
T_ABS = ex.time()

Reference = Union[Tuple[float, float, float], Node]


@dataclass(frozen=True)
class ForceModel:
    """F(x, xdot, t) with reference values, mass and linear drag.

    ``force`` is a vec3 expression over the argument symbols above.  The
    references ``x0r`` and ``v0r`` are three numbers each, or vec3
    expressions of time once they ride a frame (``carried``), so models
    stay hashable.  ``drag`` is the coefficient a of the force's
    -a (xdot - v0r) term, which couples into the fictitious force of a
    rotating frame.
    """

    force: Node
    m: float = 1.0
    x0r: Reference = (0.0, 0.0, 0.0)
    v0r: Reference = (0.0, 0.0, 0.0)
    t0r: float = 0.0
    drag: float = 0.0

    @classmethod
    def from_invariants(cls, f1, f2, **kw):
        """The two-coefficient solution family f1*(x-x0r) + f2*(xdot-v0r)."""
        return cls(force=add(mul(f1, DX), mul(f2, DV)), **kw)

    def carried(self, spec):
        """The model seen from the new frame of ``spec``: x0r and v0r ride
        the frame by ``FrameChange.carry``, and t0r moves by tau."""
        x0r, v0r = spec.carry(self.x0r, self.v0r)
        return replace(self, x0r=x0r, v0r=v0r, t0r=self.t0r + spec.tau)

    def force_at(self, t, x, v):
        """F at one state, or at B states in one evaluator call.

        ``x`` and ``v`` are (3,) with a scalar ``t``, or (3, B) with ``t``
        a scalar or (B,).  One state runs on the force's float kernel, may
        also be given as sequences of three floats, and gives F as the
        kernel's 3-tuple of floats.  B states run on the numpy evaluator
        and give a (3, B) array.
        """
        if getattr(x, "ndim", 1) == 1 and (isinstance(t, float)
                                           or np.ndim(t) == 0):
            return self._kernel(t, x, {"v_abs": v})
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        t = np.asarray(t, float)
        if x.ndim != 2 or x.shape[0] != 3 or v.shape != x.shape \
                or t.shape not in ((), x.shape[1:]):
            raise ValueError("force_at takes one state or (3, B) states "
                             "with a scalar or (B,) time; got t of shape "
                             "%s, x of shape %s and v of shape %s"
                             % (t.shape, x.shape, v.shape))
        if t.ndim == 0:
            t = np.full(x.shape[1], t)
        return ex.evaluate_many(self._evaluated, t, x, {"v_abs": v})

    @cached_property
    def _evaluated(self):
        """``force`` over the point, the time and ``V_ABS``: dx, dv, r, s,
        q and w written out against the references.  ``norm`` and
        ``dot`` give a state the same bits on either evaluator and in any
        batch."""
        dx = sub(X_ABS, _reference(self.x0r))
        dv = sub(V_ABS, _reference(self.v0r))
        return ex.substitute(self.force, {
            "dx": dx, "dv": dv, "r": ex.norm(dx), "s": ex.norm(dv),
            "q": ex.dot(dx, dv), "w": sub(T_ABS, ex.const(self.t0r))})

    @cached_property
    def _kernel(self):
        """The float kernel of ``_evaluated``, looked up once per model."""
        return ex.float_kernel(self._evaluated)


def _reference(ref):
    """A reference as a vec3 expression: itself, or its three numbers."""
    return ref if isinstance(ref, Node) else ex.vector_const(ref)


# ---------------------------------------------------------------------------
# model library
# ---------------------------------------------------------------------------

def oscillator_model(kappa=1.0, m=1.0):
    return ForceModel.from_invariants(ex.const(-float(kappa)), ex.const(0.0),
                                      m=float(m))


def drag_gravity_model(a=1.0, m=1.0, g=1.0,
                       x0r=(0.0, 0.0, -1.0e6), v0r=(0.0, 0.0, 0.0)):
    """Gravity toward the far-field reference point plus linear drag."""
    f1 = mul(ex.const(-float(m) * float(g)),
             ex.func("power", R_ARG, ex.const(-1.0)))
    return ForceModel.from_invariants(f1, ex.const(-float(a)),
                                      m=float(m), x0r=tuple(x0r),
                                      v0r=tuple(v0r), drag=float(a))


def absolute_velocity_model(m=1.0):
    return ForceModel(force=V_ABS, m=float(m))


# ---------------------------------------------------------------------------
# integration and transport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    x: np.ndarray        # (3, N)
    v: np.ndarray        # (3, N)
    dt: float


def _rk4(accel, ic, dt, n_steps):
    """Classical RK4 over Python floats.

    ``accel(t, x, v)`` takes and returns 3-tuples of floats.  Each step
    makes four ``accel`` calls and rounds every component exactly as the
    same update written over (3,) numpy arrays would.
    """
    # imported here so that a process that never integrates does not load
    # the extension module
    from array import array

    x_init, v_init, t0 = ic
    x = tuple(np.asarray(x_init, float).tolist())
    v = tuple(np.asarray(v_init, float).tolist())
    t0 = t = float(t0)
    half, sixth = 0.5 * dt, dt / 6.0
    # flat C doubles: a list of float tuples would hold ~6x the memory
    ts, xs, vs = array("d", (t,)), array("d", x), array("d", v)
    for k in range(n_steps):
        (x0, x1, x2), (v0, v1, v2) = x, v
        # k1x is v
        a0, a1, a2 = accel(t, x, v)                                  # k1v
        b0, b1, b2 = v0 + half * a0, v1 + half * a1, v2 + half * a2  # k2x
        c0, c1, c2 = accel(t + half, (x0 + half * v0, x1 + half * v1,
                                      x2 + half * v2), (b0, b1, b2))  # k2v
        d0, d1, d2 = v0 + half * c0, v1 + half * c1, v2 + half * c2  # k3x
        e0, e1, e2 = accel(t + half, (x0 + half * b0, x1 + half * b1,
                                      x2 + half * b2), (d0, d1, d2))  # k3v
        f0, f1, f2 = v0 + dt * e0, v1 + dt * e1, v2 + dt * e2        # k4x
        g0, g1, g2 = accel(t + dt, (x0 + dt * d0, x1 + dt * d1,
                                    x2 + dt * d2), (f0, f1, f2))     # k4v
        x = (x0 + sixth * (v0 + 2 * b0 + 2 * d0 + f0),
             x1 + sixth * (v1 + 2 * b1 + 2 * d1 + f1),
             x2 + sixth * (v2 + 2 * b2 + 2 * d2 + f2))
        v = (v0 + sixth * (a0 + 2 * c0 + 2 * e0 + g0),
             v1 + sixth * (a1 + 2 * c1 + 2 * e1 + g1),
             v2 + sixth * (a2 + 2 * c2 + 2 * e2 + g2))
        t = t0 + (k + 1) * dt
        ts.append(t)
        xs.extend(x)
        vs.extend(v)
    return (np.array(ts), np.reshape(xs, (-1, 3)).T.copy(),
            np.reshape(vs, (-1, 3)).T.copy())


def integrate(model, ic, dt, n_steps):
    """Classical fixed-step 4th-order integration of m xddot = F."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    inv_m = 1.0 / model.m

    def accel(tt, xx, vv):
        f0, f1, f2 = model.force_at(tt, xx, vv)
        return inv_m * f0, inv_m * f1, inv_m * f2

    ts, xs, vs = _rk4(accel, ic, dt, n_steps)
    return Trajectory(t=ts, x=xs, v=vs, dt=dt)


def transform_trajectory(traj, spec):
    """Pointwise mapped states with the full velocity transport rule."""
    t, x, v, _ = spec.moved(traj.t, traj.x, traj.v)
    return replace(traj, t=t, x=x, v=v)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_force_frame_indifference(model, spec, tol, seed, transport_refs,
                                   n_points=100):
    """F(x~, xdot~, t~; refs~) == Q F(x, xdot, t; refs) at sampled states."""
    rng = np.random.default_rng(seed)
    # one row per point, drawn in the order t, x, v
    s = rng.uniform((0.0,) + (-1.0,) * 6, (2.0,) + (1.0,) * 6,
                    size=(n_points, 7))
    t, x, v = s[:, 0], s[:, 1:4].T, s[:, 4:7].T
    t_new, x_new, v_new, q = spec.moved(t, x, v)
    moved = model.carried(spec) if transport_refs else model
    return CheckPart.of(
        np.max(np.abs(moved.force_at(t_new, x_new, v_new)
                      - fr.rotate(q, model.force_at(t, x, v))), axis=0),
        tol, points=(t, x))


def check_galilei_covariance(model, spec, ic, dt, n_steps, tol):
    """Transformed solutions solve the transformed equation of motion.

    Integrates in the original frame, transports the trajectory, then
    independently re-integrates the ``carried`` model from the boosted
    initial condition and compares the paths.  The two paths differ by
    rounding, so a ``tol`` of ten times the dt^4 error scale is ample.
    """
    moved = transform_trajectory(integrate(model, ic, dt, n_steps), spec)
    again = integrate(model.carried(spec),
                      (moved.x[:, 0], moved.v[:, 0], moved.t[0]), dt, n_steps)
    return CheckPart.of(np.maximum(np.max(np.abs(again.x - moved.x), axis=0),
                                   np.max(np.abs(again.v - moved.v), axis=0)),
                        tol, points=(again.t, again.x))


def inertial_force(spec, t, x_star, v_star, m, a=0.0):
    """The four-term fictitious force in an accelerating frame.

    ``t`` is a scalar with (3,) states, or (B,) with (3, B) states.
    """
    t_old = t - spec.tau
    rmat, c = spec.at(t_old)
    rdot, dc = spec.at(t_old, 1)
    rddot, ddc = spec.at(t_old, 2)
    dx = np.asarray(x_star, float) - c
    dv = np.asarray(v_star, float) - dc
    spin = np.einsum("ik...,jk...->ij...", rmat, rdot)       # R Rdot^T
    accel = np.einsum("ik...,jk...->ij...", rmat, rddot)     # R Rddot^T
    return (m * ddc
            - m * fr.rotate(accel, dx)
            - 2.0 * m * fr.rotate(spin, dv)
            - a * fr.rotate(spin, dx))


def check_noninertial_closure(model, spec, traj, tol, include_drag_term):
    """Starred equation residual along a transported trajectory.

    The inertial trajectory's own equation supplies xddot analytically,
    so the residual isolates the frame bookkeeping.  The drag
    contribution -a R Rdot^T (x*-c) carries the model's own ``drag``;
    omitting it must break the balance of a model with drag.
    """
    ts, xs, vs, rmat = spec.moved(traj.t, traj.x, traj.v)
    rdot = spec.at(traj.t, 1)[0]
    rddot, ddc = spec.at(traj.t, 2)
    xdd = model.force_at(traj.t, traj.x, traj.v) / model.m
    xdd_star = (fr.rotate(rddot, traj.x) + fr.rotate(2.0 * rdot, traj.v)
                + fr.rotate(rmat, xdd) + ddc)
    forces = model.carried(spec).force_at(ts, xs, vs)
    fict = inertial_force(spec, ts, xs, vs, model.m,
                          a=model.drag if include_drag_term else 0.0)
    notes = () if include_drag_term else (
        "drag contribution of the inertial force omitted (expected FAIL)",)
    return CheckPart.of(np.max(np.abs(model.m * xdd_star - forces - fict),
                               axis=0), tol, points=(ts, xs), notes=notes)
