"""Symmetry screening for algebraic closure ansatzes.

A model proposes the divergence of the second-moment tensor as

    v = phi1*(x - x0) + phi2*w + phi3*(grad<u> + grad<u>^T)(x - x0)
        + phi4*(w . grad)<u> + phi5*lap<u>,        w = <u> - u0,

with scalar coefficients phi_i(nu, t - t0, r, s, q) of the invariant
arguments r = |x - x0|, s = |w|, q = w . (x - x0).  The reference point
(t0, x0, u0) rides the frame, and the G row evaluates v in both frames
of a Galilei change.  The coefficient scalings each other symmetry
forces on the ansatz are read from its space and time scales (lam, mu)
in ``frames.NS_SYMMETRIES``, the declaration the Navier-Stokes checks use.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import expr as ex
from .. import frames as fr
from ..expr import Node
from ..checks.verdict import CheckPart, worst
from .residual import SOLUTIONS

__all__ = [
    "ClosureModel", "ARG_NAMES", "MEAN_U", "U0", "compliant_model",
    "constant_phi2_model", "nu_phi2_model", "bare_mean_velocity_model",
    "screen_closure", "TAGS",
]

ARG_NAMES = ("nu", "dt0", "r", "s", "q")
ARG_SYMS = {name: ex.SCALAR for name in ARG_NAMES}
PHI_NAMES = ("phi1", "phi2", "phi3", "phi4", "phi5")
# a model's velocity block w is an expression of <u> and u0
MEAN_U, U0 = ex.sym("mean_u", ex.VEC), ex.sym("u0", ex.VEC)
# the mean flows the G row evaluates the ansatz over
_MEAN_FLOWS = ("beltrami", "taylor_green")


def _coeff(text):
    return ex.parse_field_expr(text, ARG_SYMS)


@dataclass(frozen=True)
class ClosureModel:
    """Coefficient functions and the velocity block of the ansatz.

    ``w`` is the vec3 expression of ``MEAN_U`` and ``U0`` that the
    ansatz uses as its velocity block; ``two_d_limit`` holds the declared
    limiting coefficient forms in the planar restriction (defaults to
    the coefficients themselves).
    """

    name: str
    phi: Tuple[Node, Node, Node, Node, Node]
    w: Node = ex.sub(MEAN_U, U0)
    two_d_limit: Optional[Dict[str, Node]] = None

    def limit_coeff(self, which):
        if self.two_d_limit and which in self.two_d_limit:
            return self.two_d_limit[which]
        return self.phi[PHI_NAMES.index(which)]


# ---------------------------------------------------------------------------
# the coefficient scalings each symmetry imposes
# ---------------------------------------------------------------------------
#
# Each screened symmetry is the map x~ = lam Q x + c, t~ = mu t + tau of
# ``frames.NS_SYMMETRIES``.  Under it v, x - x0, w, grad<u>,
# (w . grad)<u> and lap<u> scale as lam/mu^2, lam, lam/mu, 1/mu, lam/mu^2
# and 1/(lam mu), and Q drops out of every scalar.  The arguments map as
# nu -> (nu action) nu, dt0 -> mu dt0, r -> lam r, s -> |lam/mu| s and
# q -> (lam^2/mu) q, and each term keeps v's scaling only if phi1..phi5
# rescale by 1/mu^2, 1/mu, 1/mu, 1 and lam^2/mu.  Galilei invariance
# imposes no coefficient condition at all; the G row evaluates the
# ansatz itself instead.

# the symmetry a screened tag stands for, at the group parameter e
_SCREENED = {
    "S1": fr.Scaling,
    "S3": lambda e: fr.Reflection(0),
    "S4": lambda e: fr.TimeReversal(),
    "S5approx": fr.EulerScaling,
}
# every tag the screen knows: the Galilei row, scalings and planar limit
TAGS = ("G", *_SCREENED, "S6approx")


def _arg_samples(rng, n):
    return {
        "nu": rng.uniform(0.05, 1.0, size=n),
        "dt0": rng.uniform(-1.0, 1.0, size=n),
        "r": rng.uniform(0.2, 2.0, size=n),
        "s": rng.uniform(0.1, 2.0, size=n),
        "q": rng.uniform(-1.0, 1.0, size=n),
    }


def _eval_coeffs(coeffs, args):
    n = args["nu"].shape[0]
    t = np.zeros(n)
    x = np.zeros((3, n))
    bind = {name: args[name] for name in ARG_NAMES}
    return ex.evaluate_many(ex.bundle(*coeffs), t, x, bind)


def _scaling_case(tag, group_param):
    """(argument map, required coefficient factors) for one symmetry."""
    if tag not in _SCREENED:
        raise ValueError("no coefficient scaling for tag %r" % tag)
    spec = _SCREENED[tag](group_param)
    lam, mu = spec.lam, spec.mu
    q = lam * lam / mu
    amap = {"nu": spec.nu_action, "dt0": mu, "r": lam, "s": abs(spec.s),
            "q": q}
    return amap, (1.0 / (mu * mu), 1.0 / mu, 1.0 / mu, 1.0, q)


def _worst(cases):
    """(worst residual, note naming its sample) over (residuals, argument
    samples) pairs of equal length."""
    top, k = worst([r for r, _ in cases])
    n = cases[0][0].size
    args = cases[k // n][1]
    return top, "worst residual at " + ", ".join(
        "%s=%.6g" % (name, args[name][k % n]) for name in ARG_NAMES)


# ---------------------------------------------------------------------------
# the Galilei row, by evaluation
# ---------------------------------------------------------------------------

def _ansatz(model, u, nu, t0, x0, u0):
    """The ansatz vector v over the mean flow ``u`` (a vec3 expression of
    x and t) with viscosity ``nu`` and reference (t0, x0, u0) given as
    expressions."""
    dx = ex.sub(ex.x_vector(), x0)
    w = ex.substitute(model.w, {"mean_u": u, "u0": u0})
    g = ex.grad(u)
    args = {"nu": ex.const(nu), "dt0": ex.sub(ex.time(), t0),
            "r": ex.norm(dx), "s": ex.norm(w), "q": ex.dot(w, dx)}
    terms = (dx, w, ex.dot(ex.add(g, ex.transpose(g)), dx), ex.dot(g, w),
             ex.lap(u))
    v = ex.zero(ex.VEC)
    for phi, term in zip(model.phi, terms):
        v = ex.add(v, ex.mul(ex.substitute(phi, args), term))
    return v


def _galilei_row(model, rng, n_samples, tol):
    """Worst |v~ o phi - A v| / (1 + |A v|) under a random Galilei change
    phi, with <u> transformed by ``frames.transform_ns_fields``, t0~ =
    t0 + tau and (x0~, u0~) from ``FrameChange.carry``."""
    frame = fr.FrameChange.random_galilei(rng)
    (a, c2), c1 = frame.at(0.0), frame.at(0.0, 1)[1]
    spec = fr.Galilei(c0=frame.tau, a_mat=a, c1=c1, c2=c2)
    q, c = frame.exprs(0)
    x_new = ex.add(ex.dot(q, ex.x_vector()), c)
    forward = ([ex.comp(x_new, i) for i in range(3)],
               ex.add(ex.time(), ex.const(frame.tau)))
    t0, x0 = ex.sym("t0"), ex.sym("x0", ex.VEC)
    x0_new, u0_new = frame.carry(x0, U0)
    t0_new = ex.add(t0, ex.const(frame.tau))
    t = rng.uniform(0.0, 2.0, size=n_samples)
    x = rng.uniform(-1.0, 1.0, size=(3, n_samples))
    bind = {"t0": rng.uniform(-1.0, 1.0, size=n_samples),
            "x0": rng.uniform(-1.0, 1.0, size=(3, n_samples)),
            "u0": rng.uniform(-1.0, 1.0, size=(3, n_samples))}
    cases = []
    for name in _MEAN_FLOWS:
        state = SOLUTIONS[name]()
        u_new = fr.transform_ns_fields(state.u, state.p, spec)[0]
        v = _ansatz(model, state.u, state.nu, t0, x0, U0)
        v_new = ex.expand_derivatives(
            _ansatz(model, u_new, state.nu, t0_new, x0_new, u0_new))
        av = ex.dot(q, v)
        diff, size = ex.evaluate_many(ex.bundle(
            ex.norm(ex.sub(ex.compose(v_new, *forward), av)), ex.norm(av)),
            t, x, bind)
        cases.append(diff / (1.0 + size))
    flow = _MEAN_FLOWS[worst(cases)[1] // n_samples]
    return CheckPart.of(cases, tol, points=(t, x),
                        notes=("worst residual on %s" % flow,))


def _screen_one(model, tag, rng, n_samples, tol):
    if tag == "S6approx":
        # planar restriction: the two in-plane vector terms built from w
        # have no divergence-free planar counterpart, so their declared
        # limiting coefficients must vanish identically
        args = _arg_samples(rng, n_samples)
        limits = [model.limit_coeff(which) for which in ("phi2", "phi4")]
        top, at = _worst([(np.abs(v), args)
                          for v in _eval_coeffs(limits, args)])
        return CheckPart.of(top, tol, notes=(
            "planar limit requires phi2 == phi4 == 0", at))

    cases = []
    for e in (0.3, -0.45, 0.8):
        amap, factors = _scaling_case(tag, e)
        args = _arg_samples(rng, n_samples)
        base = _eval_coeffs(model.phi, args)
        mapped = {name: amap[name] * args[name] for name in ARG_NAMES}
        moved = _eval_coeffs(model.phi, mapped)
        for got, ref, fac in zip(moved, base, factors):
            cases.append((np.abs(got - fac * ref) / (1.0 + np.abs(ref)),
                          args))
    top, at = _worst(cases)
    return CheckPart.of(top, tol, notes=(at,))


def screen_closure(model, tags, tol, seed, n_samples=200):
    """{tag: CheckPart} for one closure model, each tag one of ``TAGS``."""
    rng = np.random.default_rng(seed)
    # the G row draws from a stream of its own, so the other rows' samples
    # do not depend on whether G is screened
    return {tag: (_galilei_row(model, np.random.default_rng(seed), n_samples,
                               tol) if tag == "G"
                  else _screen_one(model, tag, rng, n_samples, tol))
            for tag in tags}


# ---------------------------------------------------------------------------
# reference models
# ---------------------------------------------------------------------------

def compliant_model():
    """Passes G, S1, S3, S4 (and the planar limit with vanishing phi2/4)."""
    zero = ex.const(0.0)
    return ClosureModel(
        name="compliant",
        phi=(_coeff("power(r, -4.0)"),
             _coeff("nu / (r*r)"),
             _coeff("0.7 * nu / (r*r)"),
             _coeff("0.3"),
             _coeff("1.2 * nu")),
        two_d_limit={"phi2": zero, "phi4": zero})


def constant_phi2_model():
    """Identical but with phi2 = const: breaks the time-reversal parity."""
    base = compliant_model()
    phi = list(base.phi)
    phi[1] = _coeff("0.5")
    return ClosureModel(name="constant_phi2", phi=tuple(phi),
                        two_d_limit=base.two_d_limit)


def nu_phi2_model():
    """phi2 proportional to nu: the parity-correct variant."""
    base = compliant_model()
    phi = list(base.phi)
    phi[1] = _coeff("0.5 * nu")
    return ClosureModel(name="nu_phi2", phi=tuple(phi),
                        two_d_limit=base.two_d_limit)


def bare_mean_velocity_model():
    """Couples to the mean velocity itself, not <u> - u0: breaks Galilei."""
    base = compliant_model()
    return ClosureModel(name="bare_mean_velocity", phi=base.phi, w=MEAN_U,
                        two_d_limit=base.two_d_limit)
