"""Per-point loop oracles of the vectorised checks: each evaluates one
sample at a time and returns (residuals, witnesses), one entry per
sample, so a test can find the worst sample without ``verdict.worst``.
"""

from dataclasses import replace

import numpy as np

from invariance import expr as ex
from invariance import frames as fr
from invariance import mechanics as mech
from invariance.checks.verdict import FAIL_FLOOR
from invariance.ns import closure as ns_closure
from invariance.ns import residual as ns_residual
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
        fict = mech.inertial_force(spec.at(traj.t[k]), xs, vs, model.m, a=a)
        residuals.append(np.max(np.abs(model.m * xdd_star
                                       - moved.force_at(ts, xs, vs) - fict)))
        witnesses.append((float(ts), tuple(xs)))
    return residuals, witnesses


def ns_symmetry(state, spec, n_points=200, seed=None):
    """The transformed flow's Navier-Stokes residual one sample point at
    a time: the larger of |continuity| and the largest |momentum|
    component."""
    moved = ns_residual.transform_flow(state, spec)
    kw = {} if seed is None else {"seed": seed}
    t, x = sample_points(n_points, **kw)
    residuals, witnesses = [], []
    for k in range(n_points):
        cont, mom = ns_residual.ns_residual(moved, t[k:k + 1], x[:, k:k + 1])
        residuals.append(max(abs(cont[0]), np.max(np.abs(mom[:, 0]))))
        witnesses.append((t[k], tuple(x[:, k])))
    return residuals, witnesses


# the mean flows of the closure screen's rows, in its order
CLOSURE_FLOWS = ("beltrami", "taylor_green")


def closure_row(model, tag, n, seed):
    """(residuals, witnesses) of the closure screen's ``tag`` row (G or a
    scaling, so Q is constant), one point at a time: |v~ - A v| /
    (1 + |A v|) with A = (lam / mu^2) Q over ``CLOSURE_FLOWS`` in turn,
    each at the row's n points, drawn as the row draws them.  The new
    frame's blocks are built from the old frame's by hand rules, never
    through the transformed flow: x~ - x0~ = lam Q (x - x0), <u>~ =
    s Q <u> + c' / mu, u0~ = s Q u0 + c' / mu with s = lam / mu, grad~ =
    Q grad Q^T / mu, lap~ = Q lap / (lam mu), nu~ = (lam^2 / mu) nu (nu
    held fixed by the Euler-only S5approx) and t - t0 scaled by mu."""
    rng = np.random.default_rng(seed)
    frame = (fr.FrameChange.random_galilei(rng) if tag == "G"
             else ns_closure._SCALINGS[tag].frame)
    lam, mu = frame.lam, frame.mu
    q, dc = frame.at(0.0)[0][0], frame.at(0.0)[1][1]
    s, nu_scale = lam / mu, 1.0 if tag == "S5approx" else lam * lam / mu
    t = rng.uniform(0.0, 2.0, size=n)
    x = rng.uniform(-1.0, 1.0, size=(3, n))
    t0 = rng.uniform(-1.0, 1.0, size=n)
    x0 = rng.uniform(-1.0, 1.0, size=(3, n))
    u0 = rng.uniform(-1.0, 1.0, size=(3, n))
    relative = model.w is not ns_closure.MEAN_U

    def ansatz(nu, dt0, dx, u, u_ref, grad, lap_u):
        w = u - u_ref if relative else u
        args = {"nu": nu, "dt0": dt0, "r": np.linalg.norm(dx),
                "s": np.linalg.norm(w), "q": float(w @ dx)}
        phi = [float(ex.evaluate_many(
            p, np.zeros(1), np.zeros((3, 1)),
            {key: np.array([val]) for key, val in args.items()})[0])
            for p in model.phi]
        terms = (dx, w, (grad + grad.T) @ dx, grad @ w, lap_u)
        return sum(f * term for f, term in zip(phi, terms))

    residuals, witnesses = [], []
    for name in CLOSURE_FLOWS:
        state = ns_residual.SOLUTIONS[name]()
        ubar, g, lap = (ex.evaluate_many(e, t, x) for e in (
            state.u, ex.grad(state.u), ex.lap(state.u)))
        for k in range(n):
            dx, dt0 = x[:, k] - x0[:, k], t[k] - t0[k]
            old = ansatz(state.nu, dt0, dx, ubar[:, k], u0[:, k],
                         g[:, :, k], lap[:, k])
            new = ansatz(nu_scale * state.nu, mu * dt0, lam * q @ dx,
                         s * q @ ubar[:, k] + dc / mu,
                         s * q @ u0[:, k] + dc / mu,
                         q @ g[:, :, k] @ q.T / mu,
                         q @ lap[:, k] / (lam * mu))
            ref = lam / (mu * mu) * q @ old
            residuals.append(np.linalg.norm(new - ref)
                             / (1.0 + np.linalg.norm(ref)))
            witnesses.append((t[k], tuple(x[:, k])))
    return residuals, witnesses
