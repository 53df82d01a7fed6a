"""Symmetry screening for algebraic closure ansatzes.

A model proposes the divergence of the second-moment tensor as

    v = phi1*(x - x0) + phi2*w + phi3*(grad<u> + grad<u>^T)(x - x0)
        + phi4*(w . grad)<u> + phi5*lap<u>,        w = <u> - u0,

with scalar coefficients phi_i(nu, t - t0, r, s, q) of the invariant
arguments r = |x - x0|, s = |w|, q = w . (x - x0).  Every row is
evaluated: the G, S1, S3, S4 and S5approx rows each take a symmetry of
``frames.NS_SYMMETRIES``, whose ``FrameChange`` x~ = lam Q x + c,
t~ = mu t + tau is the declaration the Navier-Stokes checks use, move
the mean flow and the sample points by it, carry the reference point
(t0, x0, u0) with it and compare v over both frames.  The S6approx row
reads the model's declared planar limits at the same points.
"""

from dataclasses import dataclass, replace
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
# a model's velocity block w is an expression of <u> and u0
MEAN_U, U0 = ex.sym("mean_u", ex.VEC), ex.sym("u0", ex.VEC)
T0, X0 = ex.sym("t0"), ex.sym("x0", ex.VEC)
# the mean flows a symmetry row evaluates the ansatz over
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


# ---------------------------------------------------------------------------
# the screen: every row by evaluation
# ---------------------------------------------------------------------------

# the symmetry each scaling row screens, at one group parameter; the G row
# draws a Galilei frame of its own
_SCALINGS = {
    "S1": fr.Scaling(0.3),
    "S3": fr.Reflection(0),
    "S4": fr.TimeReversal(),
    "S5approx": fr.EulerScaling(0.3),
}
# every tag the screen knows: the Galilei row, scalings and planar limit
TAGS = ("G", *_SCALINGS, "S6approx")
_NOTES = {"S3": ("this ansatz cannot express a reflection defect: its "
                  "arguments are invariants and sign flips are exact, so "
                  "S3 reads 0 for every model",)}


def _samples(rng, n):
    """(t, x, bindings of t0, x0 and u0) at n sample points."""
    t = rng.uniform(0.0, 2.0, size=n)
    x = rng.uniform(-1.0, 1.0, size=(3, n))
    return t, x, {"t0": rng.uniform(-1.0, 1.0, size=n),
                  "x0": rng.uniform(-1.0, 1.0, size=(3, n)),
                  "u0": rng.uniform(-1.0, 1.0, size=(3, n))}


def _ansatz(model, u, nu, t0, x0, u0):
    """(v, {argument: expression}) of the ansatz over the mean flow ``u``
    (a vec3 expression of x and t) with viscosity ``nu`` and reference
    (t0, x0, u0) given as expressions."""
    dx = ex.sub(ex.x_vector(), x0)
    w = ex.substitute(model.w, {"mean_u": u, "u0": u0})
    args = {"nu": ex.const(nu), "dt0": ex.sub(ex.time(), t0),
            "r": ex.norm(dx), "s": ex.norm(w), "q": ex.dot(w, dx)}
    g = ex.grad(u)
    terms = (dx, w, ex.dot(ex.add(g, ex.transpose(g)), dx), ex.dot(g, w),
             ex.lap(u))
    v = ex.zero(ex.VEC)
    for phi, term in zip(model.phi, terms):
        v = ex.add(v, ex.mul(ex.substitute(phi, args), term))
    return v, args


def _random_galilei(rng):
    """``FrameChange.random_galilei`` declared as a ``Galilei`` symmetry."""
    frame = fr.FrameChange.random_galilei(rng)
    (a, c2), (_, c1), _ = frame.at(0.0)
    return fr.Galilei(c0=frame.tau, a_mat=a, c1=c1, c2=c2)


def _row(model, flows, spec, rng, n_samples, tol):
    """Worst |v~ o phi - A v| / (1 + |A v|), A = (lam / mu^2) Q, under the
    ``NSSymmetry`` ``spec`` with constant Q over each of ``flows``, {mean
    flow: (state, untransformed ansatz v)}: <u> transformed by
    ``frames.transform_ns_fields``, nu~ = (nu action) nu, t0~ = mu t0 +
    tau and (x0~, u0~) from ``FrameChange.carry``; v~ is evaluated at the
    points phi(t, x) that ``FrameChange.moved`` maps the samples to."""
    frame = spec.frame
    lam, mu = frame.lam, frame.mu
    x0_new, u0_new = frame.carry(X0, U0)
    t0_new = ex.add(ex.mul(ex.const(mu), T0), ex.const(frame.tau))
    t, x, bind = _samples(rng, n_samples)
    t_new, x_new, _, ((q, _), _, _) = frame.moved(t, x, np.zeros_like(x))
    cases = []
    for state, v in flows.values():
        u_new = fr.transform_ns_fields(state.u, state.p, spec)[0]
        v_new = ex.evaluate_many(_ansatz(
            model, u_new, spec.nu_action * state.nu, t0_new, x0_new,
            u0_new)[0], t_new, x_new, bind)
        av = lam / (mu * mu) * fr.rotate(q, ex.evaluate_many(v, t, x, bind))
        cases.append(np.linalg.norm(v_new - av, axis=0)
                     / (1.0 + np.linalg.norm(av, axis=0)))
    flow = list(flows)[worst(cases)[1] // n_samples]
    return CheckPart.of(cases, tol, points=(t, x), notes=(
        *_NOTES.get(spec.tag, ()), "worst residual on %s" % flow))


def _planar_limit_row(model, state, rng, n_samples, tol):
    """Worst |phi2| + |phi4| of the declared planar limits over the planar
    Taylor-Green flow ``state``: the in-plane terms built from w have no
    divergence-free planar counterpart, so their limits must vanish."""
    t, x, bind = _samples(rng, n_samples)
    args = _ansatz(model, state.u, state.nu, T0, X0, U0)[1]
    limits = model.two_d_limit or {}
    phi2, phi4 = ex.evaluate_many(ex.bundle(*(
        ex.substitute(limits.get(name, phi), args)
        for name, phi in (("phi2", model.phi[1]), ("phi4", model.phi[3])))),
        t, x, bind)
    return CheckPart.of(np.abs(phi2) + np.abs(phi4), tol, points=(t, x),
                        notes=("reads the declared planar limits "
                               "(two_d_limit): phi2 == phi4 == 0, not "
                               "judged under S6",))


def screen_closure(model, tags, tol, seed, n_samples=200):
    """{tag: CheckPart} for one closure model, each tag one of ``TAGS``.

    Each row draws from a stream of its own, so no row's samples depend
    on which other rows are screened; the G row draws its frame first.
    The mean flows and the untransformed ansatz over each are built once
    and held for every row, so their tapes are compiled once.
    """
    flows = {}
    for name in _MEAN_FLOWS:
        state = SOLUTIONS[name]()
        flows[name] = state, _ansatz(model, state.u, state.nu, T0, X0, U0)[0]
    parts = {}
    for tag in tags:
        rng = np.random.default_rng(seed)
        if tag == "S6approx":
            parts[tag] = _planar_limit_row(
                model, flows["taylor_green"][0], rng, n_samples, tol)
        else:
            spec = _random_galilei(rng) if tag == "G" else _SCALINGS[tag]
            parts[tag] = _row(model, flows, spec, rng, n_samples, tol)
    return parts


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


def _with_phi2(name, text):
    """The compliant model with phi2 read from ``text``."""
    base = compliant_model()
    return replace(base, name=name,
                   phi=(base.phi[0], _coeff(text), *base.phi[2:]))


def constant_phi2_model():
    """Identical but with phi2 = const: breaks the time-reversal parity."""
    return _with_phi2("constant_phi2", "0.5")


def nu_phi2_model():
    """phi2 proportional to nu: the parity-correct variant."""
    return _with_phi2("nu_phi2", "0.5 * nu")


def bare_mean_velocity_model():
    """Couples to the mean velocity itself, not <u> - u0: breaks Galilei."""
    return replace(compliant_model(), name="bare_mean_velocity", w=MEAN_U)
