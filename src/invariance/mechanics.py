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


def _inner(a, b):
    """a . b summed component by component.  Unlike ``dot``, whose einsum
    rounds one state differently from a batch, its value at a state does
    not depend on how many states are evaluated with it."""
    out = mul(ex.comp(a, 0), ex.comp(b, 0))
    for i in (1, 2):
        out = add(out, mul(ex.comp(a, i), ex.comp(b, i)))
    return out


# force_at substitutes these for r, s and q, so the evaluator computes
# only the invariants a force law uses
_INVARIANTS = {"r": ex.func("sqrt", _inner(DX, DX)),
               "s": ex.func("sqrt", _inner(DV, DV)), "q": _inner(DX, DV)}


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

    def force_at(self, t, x, v, refs=None):
        """F at one state or at B states in one evaluator call.

        ``x`` and ``v`` are (3,) with a scalar ``t``, or (3, B) with ``t``
        a scalar or (B,); the result is (3,) or (3, B) to match.  ``refs``
        = (x0r, v0r, t0r) replaces the model's reference values; each may
        be per state, (3, B) or (B,).
        """
        x0r, v0r, t0r = (self.x0r, self.v0r, self.t0r) if refs is None \
            else refs
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        one = x.ndim == 1
        if one:
            x, v = x[:, None], v[:, None]
        n = x.shape[1]
        t = np.asarray(t, float)
        if t.ndim == 0:
            t = np.full(n, t)
        bind = {"dx": x - _columns(x0r), "dv": v - _columns(v0r),
                "w": t - t0r, "x_abs": x, "v_abs": v, "t_abs": t}
        out = ex.evaluate_many(_with_invariants(self.force), t,
                               np.zeros((3, n)), bind)
        return out[:, 0].copy() if one else out


_with_invariants_memo = {}


def _with_invariants(force):
    """``force`` with r, s and q replaced by ``_INVARIANTS``, cached."""
    got = _with_invariants_memo.get(id(force))
    if got is None:
        got = _with_invariants_memo[id(force)] = ex.substitute(force,
                                                               _INVARIANTS)
    return got


def _columns(a):
    """A (3,) vector as a (3, 1) column; a (3, B) array unchanged."""
    a = np.asarray(a, float)
    return a[:, None] if a.ndim == 1 else a


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


def _per_time(a, t):
    """A (3,) vector as-is for a scalar time, as a (3, 1) column for a
    (B,) array of times, so it broadcasts against (3, B) terms."""
    return a[:, None] if np.ndim(t) else a


def transport_references(model, spec):
    """Reference values seen from the new frame.

    Galilei: x0r is carried on the boosted world line (time-dependent in
    general, so only v0r/t0r are stored; the position reference enters
    through the difference), v0r' = R v0r + v, t0r' = t0r + tau.
    Returned as a function of the new-frame time for the position part;
    the functions take a scalar time, giving (3,), or a (B,) array of
    times, giving (3, B).
    """
    if isinstance(spec, fr.GalileiSpec):
        r, vb, c, tau = spec.r, spec.v, spec.c, spec.tau

        def x0r_at(t_new):
            return (_per_time(r @ np.asarray(model.x0r), t_new)
                    + np.multiply.outer(vb, t_new - tau)
                    + _per_time(c, t_new))

        v0r = r @ np.asarray(model.v0r) + vb
        return x0r_at, tuple(v0r), model.t0r + spec.tau
    if isinstance(spec, fr.EuclideanSpec):
        def x0r_at(t_new):
            t_old = t_new - spec.tau
            return (_rotate(spec.rotation.matrix(t_old),
                            np.asarray(model.x0r, float))
                    + spec.c(t_old))

        # the listed transport rule: v0r* = R v0r + cdot
        def v0r_at(t_new):
            t_old = t_new - spec.tau
            return (_rotate(spec.rotation.matrix(t_old),
                            np.asarray(model.v0r, float))
                    + spec.cdot(t_old))

        return x0r_at, v0r_at, model.t0r + spec.tau
    raise TypeError("unsupported frame spec %r" % (spec,))


def _rotate(rmat, a):
    """R a for R (3, 3) or (3, 3, B) and a (3,) or (3, B)."""
    return np.einsum("ij...,j...->i...", rmat, a)


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
        x_new = np.einsum("ijn,jn->in", rmat, x) + spec.c(t)
        v_new = (np.einsum("ijn,jn->in", rmat, v)
                 + np.einsum("ijn,jn->in", rdot, x) + spec.cdot(t))
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
    t = np.empty(n_points)
    x = np.empty((3, n_points))
    v = np.empty((3, n_points))
    for k in range(n_points):   # draw order t, x, v per point fixes samples
        t[k] = rng.uniform(0.0, 2.0)
        x[:, k] = rng.uniform(-1.0, 1.0, size=3)
        v[:, k] = rng.uniform(-1.0, 1.0, size=3)
    t_new = t + tau
    x_new = rmat @ x + np.outer(vb, t) + c[:, None]
    v_new = rmat @ v + vb[:, None]
    refs = None
    if transport_refs:
        x0r_at, v0r_new, t0r_new = transport_references(model, spec)
        refs = (x0r_at(t_new), v0r_new, t0r_new)
    residuals = np.max(np.abs(model.force_at(t_new, x_new, v_new, refs)
                              - rmat @ model.force_at(t, x, v)), axis=0)
    # argmax lands on the first NaN, so a non-finite residual is kept
    k = int(np.argmax(residuals))
    worst = float(residuals[k])
    return Verdict(tolerance=tol, witness=(float(t[k]), tuple(x[:, k])),
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
        return inv_m * model.force_at(tt, xx, vv,
                                      (x0r_at(tt), v0r_new, t0r_new))

    ts, xs, vs = _rk4(accel, (moved.x[:, 0], moved.v[:, 0], moved.t[0]),
                      dt, n_steps)
    res_x = np.max(np.abs(xs - moved.x))
    res_v = np.max(np.abs(vs - moved.v))
    worst = float(np.max([res_x, res_v]))
    i = int(np.argmax(np.max(np.abs(xs - moved.x), axis=0)))
    return Verdict(tolerance=tol, witness=(float(ts[i]), tuple(xs[:, i])),
                   objective=CheckPart(passed=worst <= tol, residual=worst))


def inertial_force(spec, t, x_star, v_star, m, a=0.0):
    """The four-term fictitious force in an accelerating frame.

    ``t`` is a scalar with (3,) states, or (B,) with (3, B) states.
    """
    t_old = t - spec.tau
    rmat = spec.rotation.matrix(t_old)
    rdot = spec.rotation.matrix_dot(t_old)
    rddot = spec.rotation.matrix_ddot(t_old)
    dx = np.asarray(x_star, float) - spec.c(t_old)
    dv = np.asarray(v_star, float) - spec.cdot(t_old)
    spin = np.einsum("ik...,jk...->ij...", rmat, rdot)       # R Rdot^T
    accel = np.einsum("ik...,jk...->ij...", rmat, rddot)     # R Rddot^T
    return (m * spec.cddot(t_old)
            - m * _rotate(accel, dx)
            - 2.0 * m * _rotate(spin, dv)
            - a * _rotate(spin, dx))


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

    ts, xs, vs = starred.t, starred.x, starred.v
    t_old = ts - spec.tau
    rmat = spec.rotation.matrix(t_old)
    rdot = spec.rotation.matrix_dot(t_old)
    rddot = spec.rotation.matrix_ddot(t_old)
    xdd = model.force_at(traj.t, traj.x, traj.v) / model.m
    xdd_star = (_rotate(rddot, traj.x) + _rotate(2.0 * rdot, traj.v)
                + _rotate(rmat, xdd) + spec.cddot(t_old))
    forces = model.force_at(ts, xs, vs, (x0r_at(ts), v0r_at(ts), t0r_new))
    fict = inertial_force(spec, ts, xs, vs, model.m,
                          a=a if include_drag_term else 0.0)
    residuals = np.max(np.abs(model.m * xdd_star - forces - fict), axis=0)
    # argmax lands on the first NaN, so a non-finite residual is kept
    k = int(np.argmax(residuals))
    worst = float(residuals[k])
    part = CheckPart(passed=worst <= tol, residual=worst)
    notes = () if include_drag_term else (
        "drag contribution of the inertial force omitted (expected FAIL)",)
    return Verdict(tolerance=tol, witness=(float(ts[k]), tuple(xs[:, k])),
                   objective=part, notes=notes)
