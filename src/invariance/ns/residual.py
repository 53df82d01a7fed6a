"""Navier-Stokes residual operator and the manufactured solution library.

All residuals are evaluated from the symbolically differentiated trees,
so an exact solution really does produce zeros down to rounding noise.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .. import expr as ex
from .. import frames as fr
from ..expr import Node, parse_field_expr
from ..sampling import sample_points
from ..checks.verdict import CheckPart, Verdict, worst

__all__ = [
    "FlowState", "ns_residual", "certify", "taylor_green", "beltrami",
    "rigid_shear", "transform_flow", "check_ns_symmetry", "SOLUTIONS",
]

CERTIFY_TOL = 1e-10


@dataclass(frozen=True)
class FlowState:
    """A velocity/pressure pair with its (signed) viscosity.

    ``psi`` is the analytic stream function for 2D states, fixed by
    d(psi) = -u^2 dx^1 + u^1 dx^2; it feeds the S6 pressure regauge.
    """

    u: Node
    p: Node
    nu: float
    dim: str = "3D"  # "2D" | "3D"
    psi: Optional[Node] = None
    name: str = "custom"

    def __post_init__(self):
        if self.dim not in ("2D", "3D"):
            raise ValueError("dim must be '2D' or '3D'")


def ns_residual(state, t_arr, x_arr):
    """(continuity, momentum) residual arrays at the given points."""
    u, p, nu = state.u, state.p, state.nu
    cont = ex.div(u)
    mom = ex.add(ex.add(ex.dt(u), ex.dot(ex.grad(u), u)),
                 ex.sub(ex.grad(p), ex.mul(ex.const(nu), ex.lap(u))))
    return (ex.evaluate_many(cont, t_arr, x_arr),
            ex.evaluate_many(mom, t_arr, x_arr))


def certify(state, n_points=200, tol=CERTIFY_TOL):
    """Verify the state solves the equations; raise if it does not."""
    t, x = sample_points(n_points)
    cont, mom = ns_residual(state, t, x)
    part = CheckPart.of(
        np.max([np.max(np.abs(cont)), np.max(np.abs(mom))]), tol)
    if not part.passed:
        raise ValueError("state %r is not an exact solution "
                         "(residual %.3e)" % (state.name, part.residual))
    return part.residual


# ---------------------------------------------------------------------------
# solution library
# ---------------------------------------------------------------------------

def taylor_green(nu=0.1):
    """The 2D decaying vortex lattice (with pressure and stream function)."""
    sy = {"nu_val": ex.SCALAR}
    u = parse_field_expr(
        "vec(sin(comp(x,1))*cos(comp(x,2))*exp(-2.0*nu_val*t),"
        " -cos(comp(x,1))*sin(comp(x,2))*exp(-2.0*nu_val*t), 0.0)", sy)
    p = parse_field_expr(
        "0.25*(cos(2.0*comp(x,1)) + cos(2.0*comp(x,2)))*exp(-4.0*nu_val*t)",
        sy)
    psi = parse_field_expr(
        "sin(comp(x,1))*sin(comp(x,2))*exp(-2.0*nu_val*t)", sy)
    bind = {"nu_val": ex.const(float(nu))}
    return FlowState(u=ex.substitute(u, bind), p=ex.substitute(p, bind),
                     nu=float(nu), dim="2D",
                     psi=ex.substitute(psi, bind), name="taylor_green")


def beltrami(nu=0.05, a=1.0, b=0.7, c=0.5):
    """A 3D generalized Beltrami (ABC) flow with viscous decay.

    curl u is parallel to u, so the convective term is a pure gradient
    balanced by p = -|u|^2/2; for nu=0 it is a steady Euler solution.
    """
    decay = ex.func("exp", ex.mul(ex.const(-float(nu)), ex.time()))
    x1, x2, x3 = [ex.comp(ex.x_vector(), i) for i in range(3)]

    def s(v):
        return ex.func("sin", v)

    def co(v):
        return ex.func("cos", v)

    ca, cb, cc = ex.const(float(a)), ex.const(float(b)), ex.const(float(c))
    comps = [
        ex.add(ex.mul(ca, s(x3)), ex.mul(cc, co(x2))),
        ex.add(ex.mul(cb, s(x1)), ex.mul(ca, co(x3))),
        ex.add(ex.mul(cc, s(x2)), ex.mul(cb, co(x1))),
    ]
    u = ex.mul(decay, ex.vec(*comps))
    p = ex.mul(ex.const(-0.5), ex.dot(u, u))
    return FlowState(u=u, p=p, nu=float(nu), dim="3D", name="beltrami")


def rigid_shear(gamma=1.0):
    """u = (gamma x^2, 0, 0), constant pressure."""
    u = parse_field_expr("vec(g_rate*comp(x,2), 0.0, 0.0)",
                         {"g_rate": ex.SCALAR})
    u = ex.substitute(u, {"g_rate": ex.const(float(gamma))})
    return FlowState(u=u, p=ex.const(0.0), nu=0.3, dim="3D",
                     name="rigid_shear")


SOLUTIONS = {
    "taylor_green": taylor_green,
    "beltrami": beltrami,
    "beltrami_inviscid": lambda: beltrami(nu=0.0),
    "shear": rigid_shear,
}


# ---------------------------------------------------------------------------
# symmetry verification
# ---------------------------------------------------------------------------

def transform_flow(state, spec):
    """The transformed FlowState under an NS symmetry spec."""
    if spec.planar_only and state.dim != "2D":
        raise ValueError("%s is restricted to 2D fields" % spec.tag)
    u_t, p_t, nu_action = fr.transform_ns_fields(state.u, state.p, spec,
                                                 psi_expr=state.psi)
    return replace(state, u=u_t, p=p_t, nu=state.nu * nu_action,
                   psi=None, name=state.name + "~" + spec.tag)


def check_ns_symmetry(state, spec, n_points=200, tol=1e-9, seed=None):
    """PASS iff the transformed fields still solve the equations.

    For an ``euler_only`` symmetry (S5) the state must be inviscid; the
    spec's ``note`` (R3D, the negative control) goes into the verdict.
    """
    if spec.euler_only and state.nu != 0.0:
        raise ValueError("%s is exact only for the Euler equations; "
                         "use an inviscid state" % spec.tag)
    transformed = transform_flow(state, spec)
    kw = {} if seed is None else {"seed": seed}
    t, x = sample_points(n_points, **kw)
    cont, mom = ns_residual(transformed, t, x)
    top, i = worst(np.maximum(np.abs(cont), np.max(np.abs(mom), axis=0)))
    return Verdict(tolerance=tol, symmetry=CheckPart.of(top, tol),
                   witness=(float(t[i]), tuple(x[:, i])),
                   notes=(spec.note,) if spec.note else ())
