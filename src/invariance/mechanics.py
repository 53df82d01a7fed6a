"""Newtonian point mechanics: frame-indifferent force laws, a fixed-step
4th-order integrator, Galilei/Euclidean trajectory transport, and the
fictitious-force closure check in accelerating frames.

Force laws are expressions over the invariant argument vocabulary
(differences against transported reference values and their norms), so
frame-indifference is a structural property first and a numerical one
second.
"""

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from . import expr as ex
from . import frames as fr
from .expr import Node, add, mul, sym
from .checks.verdict import CheckPart, Verdict

__all__ = [
    "ForceModel", "Trajectory", "structural_force_check",
    "oscillator_model", "drag_gravity_model", "free_model",
    "absolute_velocity_model", "absolute_position_model",
    "time_scaled_position_model",
    "integrate", "transform_trajectory", "transport_references",
    "check_force_frame_indifference", "check_galilei_covariance",
    "inertial_force", "check_noninertial_closure",
]

# invariant argument vocabulary for force expressions
DX = sym("dx", ex.VEC)       # x - x0r
DV = sym("dv", ex.VEC)       # xdot - v0r
R_ARG = sym("r")             # |x - x0r|
S_ARG = sym("s")             # |xdot - v0r|
Q_ARG = sym("q")             # (x - x0r) . (xdot - v0r)
W_ARG = sym("w")             # t - t0r
# absolute (frame-dependent) leaves, present only in deliberately
# non-compliant models
X_ABS = sym("x_abs", ex.VEC)
V_ABS = sym("v_abs", ex.VEC)
T_ABS = sym("t_abs")

_ABSOLUTE_NAMES = ("x_abs", "v_abs", "t_abs")
_SCALAR_ARGS = ("r", "s", "q", "w")


@dataclass(frozen=True)
class ForceModel:
    """F(x, xdot, t) with reference values and mass.

    ``force`` is a vec3 expression over the argument symbols above;
    reference values are stored as tuples so models stay hashable.
    """

    force: Node
    m: float = 1.0
    x0r: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    v0r: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    t0r: float = 0.0

    @classmethod
    def from_invariants(cls, f1, f2, **kw):
        """The two-coefficient solution family f1*(x-x0r) + f2*(xdot-v0r)."""
        return cls(force=add(mul(f1, DX), mul(f2, DV)), **kw)

    def force_at(self, t, x, v):
        dx = np.asarray(x, float) - np.asarray(self.x0r, float)
        dv = np.asarray(v, float) - np.asarray(self.v0r, float)
        bind = {
            "dx": dx, "dv": dv,
            "r": float(np.linalg.norm(dx)), "s": float(np.linalg.norm(dv)),
            "q": float(dx @ dv), "w": float(t - self.t0r),
            "x_abs": np.asarray(x, float), "v_abs": np.asarray(v, float),
            "t_abs": float(t),
        }
        return ex.evaluate(self.force, (t, (0.0, 0.0, 0.0)), bind).payload


def structural_force_check(model):
    """Accepts difference-built laws, rejects absolute x/xdot/t forms."""
    names = ex.free_symbols(model.force)
    offenders = sorted(n for n in names if n in _ABSOLUTE_NAMES)
    allowed = set(_SCALAR_ARGS) | {"dx", "dv"}
    unknown = sorted(n for n in names
                     if n not in allowed and n not in _ABSOLUTE_NAMES)
    if unknown:
        raise ValueError("force uses unknown symbols %r" % unknown)
    return (not offenders), tuple(offenders)


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
                                      v0r=tuple(v0r))


def free_model(m=1.0):
    return ForceModel.from_invariants(ex.const(0.0), ex.const(0.0),
                                      m=float(m))


def absolute_velocity_model(m=1.0):
    return ForceModel(force=V_ABS, m=float(m))


def absolute_position_model(m=1.0):
    return ForceModel(force=X_ABS, m=float(m))


def time_scaled_position_model(m=1.0):
    return ForceModel(force=mul(T_ABS, X_ABS), m=float(m))


# ---------------------------------------------------------------------------
# integration and transport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    frame: str
    t: np.ndarray
    x: np.ndarray        # (3, N)
    v: np.ndarray        # (3, N)
    dt: float


def _rk4(accel, ic, dt, n_steps):
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


def integrate(model, ic, dt, n_steps, frame="inertial"):
    """Classical fixed-step 4th-order integration of m xddot = F."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    inv_m = 1.0 / model.m

    def accel(tt, xx, vv):
        return inv_m * model.force_at(tt, xx, vv)

    ts, xs, vs = _rk4(accel, ic, dt, n_steps)
    return Trajectory(frame=frame, t=ts, x=xs, v=vs, dt=dt)


def transport_references(model, spec):
    """Reference values seen from the new frame.

    Galilei: x0r is carried on the boosted world line (time-dependent in
    general, so only v0r/t0r are stored; the position reference enters
    through the difference), v0r' = R v0r + v, t0r' = t0r + tau.
    Returned as a function of the new-frame time for the position part.
    """
    if isinstance(spec, fr.GalileiSpec):
        r, vb, c, tau = spec.r, spec.v, spec.c, spec.tau

        def x0r_at(t_new):
            return r @ np.asarray(model.x0r) + vb * (t_new - tau) + c

        v0r = r @ np.asarray(model.v0r) + vb
        return x0r_at, tuple(v0r), model.t0r + spec.tau
    if isinstance(spec, fr.EuclideanSpec):
        def x0r_at(t_new):
            t_old = t_new - spec.tau
            return (spec.rotation.matrix(t_old) @ np.asarray(model.x0r)
                    + spec.c(t_old))

        # the listed transport rule: v0r* = R v0r + cdot
        def v0r_at(t_new):
            t_old = t_new - spec.tau
            return (spec.rotation.matrix(t_old) @ np.asarray(model.v0r)
                    + spec.cdot(t_old))

        return x0r_at, v0r_at, model.t0r + spec.tau
    raise TypeError("unsupported frame spec %r" % (spec,))


def transform_trajectory(traj, spec):
    """Pointwise mapped states with the full velocity transport rule."""
    t, x, v = traj.t, traj.x, traj.v
    if isinstance(spec, fr.GalileiSpec):
        x_new = spec.r @ x + np.outer(spec.v, t) + spec.c[:, None]
        v_new = spec.r @ v + spec.v[:, None]
        return replace(traj, frame=traj.frame + "'", t=t + spec.tau,
                       x=x_new, v=v_new)
    if isinstance(spec, fr.EuclideanSpec):
        rmat = spec.rotation.matrix(t)           # (3,3,N)
        rdot = spec.rotation.matrix_dot(t)
        c = np.stack([spec.c(tk) for tk in t], axis=1)
        cdot = np.stack([spec.cdot(tk) for tk in t], axis=1)
        x_new = np.einsum("ijn,jn->in", rmat, x) + c
        v_new = (np.einsum("ijn,jn->in", rmat, v)
                 + np.einsum("ijn,jn->in", rdot, x) + cdot)
        return replace(traj, frame=traj.frame + "*", t=t + spec.tau,
                       x=x_new, v=v_new)
    raise TypeError("unsupported frame spec %r" % (spec,))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_force_frame_indifference(model, spec, n_points=100, tol=1e-10,
                                   seed=0xC0FFEE, transport_refs=True):
    """F(x', xdot', t'; refs') == R F(x, xdot, t; refs) at sampled states."""
    rng = np.random.default_rng(seed)
    rmat, vb, c, tau = spec.r, spec.v, spec.c, spec.tau
    if transport_refs:
        x0r_at, v0r_new, t0r_new = transport_references(model, spec)
    residuals, witnesses = [], []
    for _ in range(n_points):
        t = rng.uniform(0.0, 2.0)
        x = rng.uniform(-1.0, 1.0, size=3)
        v = rng.uniform(-1.0, 1.0, size=3)
        t_new = t + tau
        x_new = rmat @ x + vb * t + c
        v_new = rmat @ v + vb
        if transport_refs:
            moved = replace(model, x0r=tuple(x0r_at(t_new)),
                            v0r=tuple(v0r_new), t0r=t0r_new)
        else:
            moved = model
        residuals.append(np.max(np.abs(moved.force_at(t_new, x_new, v_new)
                                       - rmat @ model.force_at(t, x, v))))
        witnesses.append((t, tuple(x)))
    # argmax lands on the first NaN, so a non-finite residual is kept
    k = int(np.argmax(residuals))
    worst = float(residuals[k])
    return Verdict(tolerance=tol, witness=witnesses[k],
                   objective=CheckPart(passed=worst <= tol, residual=worst))


def check_galilei_covariance(model, spec, ic, dt, n_steps, tol=None):
    """Transformed solutions solve the transformed equation of motion.

    Integrates in the original frame, transports the trajectory, then
    independently re-integrates the boosted problem (with transported
    reference values) from the boosted initial condition and compares
    the paths.  Default tolerance is ten times the dt^4 error scale.
    """
    if tol is None:
        tol = 10.0 * dt ** 4
    base = integrate(model, ic, dt, n_steps)
    moved = transform_trajectory(base, spec)
    x0r_at, v0r_new, t0r_new = transport_references(model, spec)
    inv_m = 1.0 / model.m

    def accel(tt, xx, vv):
        mm = replace(model, x0r=tuple(x0r_at(tt)), v0r=tuple(v0r_new),
                     t0r=t0r_new)
        return inv_m * mm.force_at(tt, xx, vv)

    ts, xs, vs = _rk4(accel, (moved.x[:, 0], moved.v[:, 0], moved.t[0]),
                      dt, n_steps)
    res_x = np.max(np.abs(xs - moved.x))
    res_v = np.max(np.abs(vs - moved.v))
    worst = float(np.max([res_x, res_v]))
    i = int(np.argmax(np.max(np.abs(xs - moved.x), axis=0)))
    return Verdict(tolerance=tol, witness=(float(ts[i]), tuple(xs[:, i])),
                   objective=CheckPart(passed=worst <= tol, residual=worst))


def inertial_force(spec, t, x_star, v_star, m, a=0.0):
    """The four-term fictitious force in an accelerating frame."""
    t_old = t - spec.tau
    rmat = spec.rotation.matrix(t_old)
    rdot = spec.rotation.matrix_dot(t_old)
    rddot = spec.rotation.matrix_ddot(t_old)
    c = spec.c(t_old)
    cdot = spec.cdot(t_old)
    cddot = spec.cddot(t_old)
    dx = np.asarray(x_star, float) - c
    dv = np.asarray(v_star, float) - cdot
    return (m * cddot
            - m * (rmat @ rddot.T) @ dx
            - 2.0 * m * (rmat @ rdot.T) @ dv
            - a * (rmat @ rdot.T) @ dx)


def check_noninertial_closure(model, spec, traj, tol=1e-5,
                              include_drag_term=True, drag_coeff=None):
    """Starred equation residual along a transported trajectory.

    The inertial trajectory's own equation supplies xddot analytically,
    so the residual isolates the frame bookkeeping.  Omitting the drag
    contribution -a R Rdot^T (x*-c) must break the balance.
    """
    if drag_coeff is None:
        raise ValueError("drag_coeff (the model's linear drag) is required")
    a = float(drag_coeff)
    starred = transform_trajectory(traj, spec)
    x0r_at, v0r_at, t0r_new = transport_references(model, spec)

    residuals, witnesses = [], []
    for k in range(traj.t.shape[0]):
        t, x, v = traj.t[k], traj.x[:, k], traj.v[:, k]
        ts, xs_, vs_ = starred.t[k], starred.x[:, k], starred.v[:, k]
        t_old = ts - spec.tau
        rmat = spec.rotation.matrix(t_old)
        rdot = spec.rotation.matrix_dot(t_old)
        rddot = spec.rotation.matrix_ddot(t_old)
        xdd = model.force_at(t, x, v) / model.m
        xdd_star = rddot @ x + 2.0 * rdot @ v + rmat @ xdd + spec.cddot(t_old)

        moved = replace(model, x0r=tuple(x0r_at(ts)),
                        v0r=tuple(v0r_at(ts)), t0r=t0r_new)
        fict = inertial_force(spec, ts, xs_, vs_, model.m,
                              a=a if include_drag_term else 0.0)
        residuals.append(np.max(np.abs(model.m * xdd_star
                                       - moved.force_at(ts, xs_, vs_)
                                       - fict)))
        witnesses.append((float(ts), tuple(xs_)))
    # argmax lands on the first NaN, so a non-finite residual is kept
    k = int(np.argmax(residuals))
    worst = float(residuals[k])
    part = CheckPart(passed=worst <= tol, residual=worst)
    notes = () if include_drag_term else (
        "drag contribution of the inertial force omitted (expected FAIL)",)
    return Verdict(tolerance=tol, witness=witnesses[k], objective=part,
                   notes=notes)
