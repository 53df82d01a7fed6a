"""Per-point loop oracles of the vectorised checks: each evaluates one
sample at a time and returns (residuals, witnesses), one entry per
sample, so a test can find the worst sample without ``verdict.worst``.
"""

from dataclasses import replace

import numpy as np

from invariance import frames as fr
from invariance import mechanics as mech
from invariance import ns
from invariance.checks.verdict import FAIL_FLOOR
from invariance.sampling import sample_points

import frame_oracle as oracle


def worst_of(residuals, witnesses):
    """(residual, witness) of the first maximum."""
    k = int(np.argmax(residuals))
    return residuals[k], witnesses[k]


def clear_witness(residuals, witnesses, margin=1e-9):
    """The witness of the worst residual where it stands clear: above
    ``FAIL_FLOOR`` and above every other residual by more than
    ``margin`` relative.  None where last-bit noise could decide."""
    second, top = np.sort(residuals)[-2:]
    if not (top > FAIL_FLOOR and second < top * (1.0 - margin)):
        return None
    return worst_of(residuals, witnesses)[1]


def boost_parts(seed):
    """(R, v, c, tau) of ``FrameChange.random_galilei`` at ``seed``, drawn
    in its order with R from the closed form: x' = R x + v t + c."""
    rng = np.random.default_rng(seed)
    axis, angle = rng.normal(size=3), rng.uniform(0, 2 * np.pi)
    r = oracle.rotation(axis, 1.0, angle, 0.0)[0]
    return r, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), rng.uniform(-1, 1)


def carried(model, q, c, dc, tau):
    """``model`` with the references a frame change carries to the new
    time, given Q, c and c' at the old time: x0r' = Q x0r + c,
    v0r' = Q v0r + c' and t0r' = t0r + tau."""
    return replace(model, x0r=tuple(q @ np.array(model.x0r) + c),
                   v0r=tuple(q @ np.array(model.v0r) + dc),
                   t0r=model.t0r + tau)


def frame_indifference(model, parts, n_points=100, seed=0xC0FFEE,
                       transport_refs=True):
    """One state at a time under the Galilei frame of ``parts`` =
    (R, v, c, tau), with references carried in closed form.  Products are
    summed per component as the check sums them: where every point has
    the same residual (a pure boost of an absolute velocity), the witness
    is decided by the last bit."""
    r, vb, c, tau = parts
    rng = np.random.default_rng(seed)
    residuals, witnesses = [], []
    for _ in range(n_points):
        t = rng.uniform(0.0, 2.0)
        x = rng.uniform(-1.0, 1.0, size=3)
        v = rng.uniform(-1.0, 1.0, size=3)
        moved = carried(model, r, vb * t + c, vb, tau) if transport_refs \
            else model
        f_new = moved.force_at(t + tau, fr.rotate(r, x) + (vb * t + c),
                               fr.rotate(r, v) + vb)
        residuals.append(np.max(np.abs(
            f_new - fr.rotate(r, model.force_at(t, x, v)))))
        witnesses.append((t, tuple(x)))
    return residuals, witnesses


def noninertial_closure(model, spec, traj, a, rotation, path):
    """The starred balance one trajectory point at a time, with R and its
    derivatives in closed form for ``rotation`` (a ``RotationSpec``),
    ``path(t)`` giving c, c' and c'' and the references carried in closed
    form."""
    starred = mech.transform_trajectory(traj, spec)
    residuals, witnesses = [], []
    for k in range(traj.t.shape[0]):
        x, v = traj.x[:, k], traj.v[:, k]
        ts, xs, vs = starred.t[k], starred.x[:, k], starred.v[:, k]
        rmat, rdot, rddot = oracle.rotation(rotation.axis, rotation.rate,
                                            rotation.phase, traj.t[k])
        c, dc, ddc = path(traj.t[k])
        xdd = np.asarray(model.force_at(traj.t[k], x, v)) / model.m
        xdd_star = rddot @ x + 2.0 * rdot @ v + rmat @ xdd + ddc
        moved = carried(model, rmat, c, dc, spec.tau)
        fict = mech.inertial_force(spec, ts, xs, vs, model.m, a=a)
        residuals.append(np.max(np.abs(model.m * xdd_star
                                       - moved.force_at(ts, xs, vs) - fict)))
        witnesses.append((float(ts), tuple(xs)))
    return residuals, witnesses


def ns_symmetry(state, spec, n_points=200, seed=None):
    """The transformed flow's Navier-Stokes residual one sample point at
    a time: the larger of |continuity| and the largest |momentum|
    component."""
    moved = ns.transform_flow(state, spec)
    kw = {} if seed is None else {"seed": seed}
    t, x = sample_points(n_points, **kw)
    residuals, witnesses = [], []
    for k in range(n_points):
        cont, mom = ns.ns_residual(moved, t[k:k + 1], x[:, k:k + 1])
        residuals.append(max(abs(cont[0]), np.max(np.abs(mom[:, 0]))))
        witnesses.append((t[k], tuple(x[:, k])))
    return residuals, witnesses
