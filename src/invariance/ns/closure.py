"""Symmetry screening for algebraic closure ansatzes.

A model proposes the divergence of the second-moment tensor as

    v = phi1*(x - x0) + phi2*w + phi3*(grad<u> + grad<u>^T)(x - x0)
        + phi4*(w . grad)<u> + phi5*lap<u>,        w = <u> - u0,

with scalar coefficients phi_i(nu, t - t0, r, s, q) of the invariant
arguments r = |x - x0|, s = |w|, q = w . (x - x0).  The reference point
(t0, x0, u0) is transported with the frame, so only models built from
these canonical differences can transform consistently: that is the
structural requirement.  The coefficient scalings each symmetry forces
on the ansatz are read from its space and time scales (lam, mu) in
``frames.NS_SYMMETRIES``, the declaration the Navier-Stokes checks use.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import expr as ex
from .. import frames as fr
from ..expr import Node
from ..checks.verdict import CheckPart, Verdict, worst

__all__ = [
    "ClosureModel", "ARG_NAMES", "compliant_model", "constant_phi2_model",
    "nu_phi2_model", "bare_mean_velocity_model", "screen_closure",
    "structural_check",
]

ARG_NAMES = ("nu", "dt0", "r", "s", "q")
# screened when a closure-screen scenario names no tags
SCENARIO_TAGS = ("G", "S1", "S3", "S4", "S6approx")
ARG_SYMS = {name: ex.SCALAR for name in ARG_NAMES}
PHI_NAMES = ("phi1", "phi2", "phi3", "phi4", "phi5")


def _coeff(text):
    return ex.parse_field_expr(text, ARG_SYMS)


@dataclass(frozen=True)
class ClosureModel:
    """Coefficient functions plus the structural facts about the ansatz.

    ``uses_relative_position`` / ``uses_relative_velocity`` record whether
    the vector building blocks are the canonical differences or the bare
    frame-dependent quantities; ``two_d_limit`` holds the declared
    limiting coefficient forms in the planar restriction (defaults to
    the coefficients themselves).
    """

    name: str
    phi: Tuple[Node, Node, Node, Node, Node]
    uses_relative_position: bool = True
    uses_relative_velocity: bool = True
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
# imposes no coefficient condition at all -- it is exactly the
# structural requirement on the vector building blocks.

# the symmetry a screened tag stands for, at the group parameter e
_SCREENED = {
    "S1": fr.Scaling,
    "S3": lambda e: fr.Reflection(0),
    "S4": lambda e: fr.TimeReversal(),
    "S5approx": fr.EulerScaling,
}


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
    return [ex.evaluate_many(p, t, x, bind) for p in coeffs]


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


def structural_check(model):
    """Galilei consistency of the vector building blocks."""
    ok = model.uses_relative_position and model.uses_relative_velocity
    offenders = []
    if not model.uses_relative_position:
        offenders.append("bare position")
    if not model.uses_relative_velocity:
        offenders.append("bare mean velocity")
    return ok, tuple(offenders)


def _screen_one(model, tag, rng, n_samples, tol):
    if tag == "G":
        ok, offenders = structural_check(model)
        notes = tuple("uses %s outside a canonical difference" % o
                      for o in offenders)
        return Verdict(tolerance=tol,
                       symmetry=CheckPart.of(0.0 if ok else float("inf"), tol),
                       notes=notes)

    if tag == "S6approx":
        # planar restriction: the two in-plane vector terms built from w
        # have no divergence-free planar counterpart, so their declared
        # limiting coefficients must vanish identically
        args = _arg_samples(rng, n_samples)
        limits = [model.limit_coeff(which) for which in ("phi2", "phi4")]
        top, at = _worst([(np.abs(v), args)
                          for v in _eval_coeffs(limits, args)])
        return Verdict(tolerance=tol, symmetry=CheckPart.of(top, tol),
                       notes=("planar limit requires phi2 == phi4 == 0",
                              at))

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
    return Verdict(tolerance=tol, symmetry=CheckPart.of(top, tol),
                   notes=(at,))


def screen_closure(model, tags=("G", "S1", "S3", "S4", "S5approx",
                                "S6approx"),
                   n_samples=200, tol=1e-10, seed=0xC0FFEE):
    """Verdict per symmetry tag for one closure model."""
    rng = np.random.default_rng(seed)
    return {tag: _screen_one(model, tag, rng, n_samples, tol)
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
    return ClosureModel(name="bare_mean_velocity", phi=base.phi,
                        uses_relative_velocity=False,
                        two_d_limit=base.two_d_limit)
