"""Newtonian point mechanics: frame-indifferent force laws, a fixed-step
4th-order integrator, trajectory and reference transport under a
``frames.FrameChange``, and the fictitious-force closure check in
accelerating frames.  Every frame change takes one path: Q, c and their
time derivatives come from ``FrameChange.at``, so a Galilei boost is the
Euclidean case with a constant Q and a linear c.

Force laws are expressions over the invariant argument vocabulary
(differences against transported reference values and their norms), so
frame-indifference is a structural property first and a numerical one
second.
"""

from dataclasses import dataclass, replace
from functools import partial
from typing import Tuple

import numpy as np

from . import expr as ex
from . import frames as fr
from .expr import Node, add, mul, sym
from .checks.verdict import CheckPart, Verdict, worst

__all__ = [
    "ForceModel", "Trajectory", "structural_force_check",
    "oscillator_model", "drag_gravity_model", "free_model",
    "absolute_velocity_model", "absolute_position_model",
    "time_scaled_position_model",
    "integrate", "transform_trajectory", "transport_references",
    "check_force_frame_indifference", "check_galilei_covariance",
    "inertial_force", "check_noninertial_closure",
]

# invariant argument vocabulary for force expressions: the vectors dx and
# dv and the scalars (``_SCALAR_ARGS``) r = |x - x0r|, s = |xdot - v0r|,
# q = (x - x0r) . (xdot - v0r) and w = t - t0r, bound by name
DX = sym("dx", ex.VEC)       # x - x0r
DV = sym("dv", ex.VEC)       # xdot - v0r
R_ARG = sym("r")             # |x - x0r|
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
        """F at one state, or at B states in one evaluator call.

        ``x`` and ``v`` are (3,) with a scalar ``t``, or (3, B) with ``t``
        a scalar or (B,); the result is (3,) or (3, B) to match.  ``refs``
        = (x0r, v0r, t0r) replaces the model's reference values; each may
        be per state, (3, B) or (B,).  One state runs on the force's float
        kernel and may also be given as sequences of three floats; B
        states run on the numpy evaluator.
        """
        if getattr(x, "ndim", 1) == 1 and (isinstance(t, float)
                                           or np.ndim(t) == 0):
            return np.array(self._force_floats(t, x, v, refs), float)
        x0r, v0r, t0r = (self.x0r, self.v0r, self.t0r) if refs is None \
            else refs
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        t = np.asarray(t, float)
        if x.ndim != 2 or x.shape[0] != 3 or v.shape != x.shape \
                or t.shape not in ((), x.shape[1:]):
            raise ValueError("force_at takes one state or (3, B) states "
                             "with a scalar or (B,) time; got t of shape "
                             "%s, x of shape %s and v of shape %s"
                             % (t.shape, x.shape, v.shape))
        n = x.shape[1]
        if t.ndim == 0:
            t = np.full(n, t)
        bind = {"dx": x - _columns(x0r), "dv": v - _columns(v0r),
                "w": t - t0r, "x_abs": x, "v_abs": v, "t_abs": t}
        return ex.evaluate_many(_with_invariants(self.force), t,
                                np.zeros((3, n)), bind)

    def _force_floats(self, t, x, v, refs):
        """F at one state as three floats, from the float kernel."""
        x0r, v0r, t0r = (self.x0r, self.v0r, self.t0r) if refs is None \
            else refs
        x0, x1, x2 = x
        v0, v1, v2 = v
        a0, a1, a2 = x0r
        b0, b1, b2 = v0r
        bind = {"dx": (x0 - a0, x1 - a1, x2 - a2),
                "dv": (v0 - b0, v1 - b1, v2 - b2),
                "w": t - t0r, "x_abs": x, "v_abs": v, "t_abs": t}
        return _force_kernel(self.force)(t, _ORIGIN, bind)


_ORIGIN = (0.0, 0.0, 0.0)
_with_invariants_memo = {}
_kernel_memo = {}


def _with_invariants(force):
    """``force`` with r, s and q replaced by ``_INVARIANTS``, cached."""
    got = _with_invariants_memo.get(id(force))
    if got is None:
        got = _with_invariants_memo[id(force)] = ex.substitute(force,
                                                               _INVARIANTS)
    return got


def _force_kernel(force):
    """The float kernel of ``_with_invariants(force)``, cached."""
    got = _kernel_memo.get(id(force))
    if got is None:
        got = _kernel_memo[id(force)] = ex.float_kernel(
            _with_invariants(force))
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


def _scaled(force, s):
    """``s`` times a (3,) force array, as three floats."""
    f0, f1, f2 = force.tolist()
    return s * f0, s * f1, s * f2


def integrate(model, ic, dt, n_steps):
    """Classical fixed-step 4th-order integration of m xddot = F."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    inv_m = 1.0 / model.m

    def accel(tt, xx, vv):
        return _scaled(model.force_at(tt, xx, vv), inv_m)

    ts, xs, vs = _rk4(accel, ic, dt, n_steps)
    return Trajectory(t=ts, x=xs, v=vs, dt=dt)


def _reference_exprs(model, spec):
    """x0r* = Q x0r + c and v0r* = Q v0r + c', both at t - tau, as vec3
    expressions of the new frame's time t."""
    q, c = spec.exprs(0)
    dc = spec.exprs(1)[1]
    back = ex.sub(ex.time(), ex.const(spec.tau))
    return tuple(ex.compose(add(fr.mat_vec(q, ex.vector_const(ref)), shift),
                            (), back)
                 for ref, shift in ((model.x0r, c), (model.v0r, dc)))


def transport_references(model, spec):
    """Reference values seen from the new frame, (x0r_at, v0r_at, t0r*).

    The position reference rides the frame, x0r* = Q x0r + c, and the
    listed velocity rule is v0r* = Q v0r + c', with Q and c at the old
    time t* - tau; both are functions of the new-frame time t*, taking a
    scalar, giving (3,), or (B,) times, giving (3, B).  t0r* = t0r + tau.
    """
    x0r, v0r = _reference_exprs(model, spec)
    return (partial(fr.at_times, x0r), partial(fr.at_times, v0r),
            model.t0r + spec.tau)


def _moved(spec, t, x, v):
    """New-frame (t, x, v) of states (3, N) at times (N,), and Q(t):
    x~ = Q x + c and v~ = Q v + Q' x + c'."""
    q, c = spec.at(t)
    dq, dc = spec.at(t, 1)
    return (t + spec.tau, fr.rotate(q, x) + c,
            fr.rotate(q, v) + fr.rotate(dq, x) + dc, q)


def transform_trajectory(traj, spec):
    """Pointwise mapped states with the full velocity transport rule."""
    t, x, v, _ = _moved(spec, traj.t, traj.x, traj.v)
    return replace(traj, t=t, x=x, v=v)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_force_frame_indifference(model, spec, n_points=100, tol=1e-10,
                                   seed=0xC0FFEE, transport_refs=True):
    """F(x~, xdot~, t~; refs~) == Q F(x, xdot, t; refs) at sampled states."""
    rng = np.random.default_rng(seed)
    t = np.empty(n_points)
    x = np.empty((3, n_points))
    v = np.empty((3, n_points))
    for k in range(n_points):   # draw order t, x, v per point fixes samples
        t[k] = rng.uniform(0.0, 2.0)
        x[:, k] = rng.uniform(-1.0, 1.0, size=3)
        v[:, k] = rng.uniform(-1.0, 1.0, size=3)
    t_new, x_new, v_new, q = _moved(spec, t, x, v)
    refs = None
    if transport_refs:
        x0r_at, v0r_at, t0r_new = transport_references(model, spec)
        refs = (x0r_at(t_new), v0r_at(t_new), t0r_new)
    top, k = worst(np.max(np.abs(model.force_at(t_new, x_new, v_new, refs)
                                 - fr.rotate(q, model.force_at(t, x, v))),
                          axis=0))
    return Verdict(tolerance=tol, witness=(float(t[k]), tuple(x[:, k])),
                   objective=CheckPart.of(top, tol))


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
    # the references ride the frame: float kernels of the same expressions
    # that transport_references evaluates, so their values are its bits
    x0r_at, v0r_at = map(ex.float_kernel, _reference_exprs(model, spec))
    t0r_new = model.t0r + spec.tau
    inv_m = 1.0 / model.m

    def accel(tt, xx, vv):
        refs = (x0r_at(tt, _ORIGIN, {}), v0r_at(tt, _ORIGIN, {}), t0r_new)
        return _scaled(model.force_at(tt, xx, vv, refs), inv_m)

    ts, xs, vs = _rk4(accel, (moved.x[:, 0], moved.v[:, 0], moved.t[0]),
                      dt, n_steps)
    top, i = worst(np.maximum(np.max(np.abs(xs - moved.x), axis=0),
                              np.max(np.abs(vs - moved.v), axis=0)))
    return Verdict(tolerance=tol, witness=(float(ts[i]), tuple(xs[:, i])),
                   objective=CheckPart.of(top, tol))


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
    ts, xs, vs, rmat = _moved(spec, traj.t, traj.x, traj.v)
    x0r_at, v0r_at, t0r_new = transport_references(model, spec)
    rdot = spec.at(traj.t, 1)[0]
    rddot, ddc = spec.at(traj.t, 2)
    xdd = model.force_at(traj.t, traj.x, traj.v) / model.m
    xdd_star = (fr.rotate(rddot, traj.x) + fr.rotate(2.0 * rdot, traj.v)
                + fr.rotate(rmat, xdd) + ddc)
    forces = model.force_at(ts, xs, vs, (x0r_at(ts), v0r_at(ts), t0r_new))
    fict = inertial_force(spec, ts, xs, vs, model.m,
                          a=a if include_drag_term else 0.0)
    top, k = worst(np.max(np.abs(model.m * xdd_star - forces - fict),
                          axis=0))
    notes = () if include_drag_term else (
        "drag contribution of the inertial force omitted (expected FAIL)",)
    return Verdict(tolerance=tol, witness=(float(ts[k]), tuple(xs[:, k])),
                   objective=CheckPart.of(top, tol), notes=notes)
