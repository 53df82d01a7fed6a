"""Charts, affine connection transport, covariant derivatives, and the
geometric-invariance case suite.  Each of its cases compares what
``Chart.at``, ``FrameChange.at`` or ``FrameChange.moved`` computes with a
closed form, point by point, and judges it with ``CheckPart.of`` like
every other check: a frame-dependent case fails, and the scenario's
``expect`` says which cases should.

A Chart is one vec3 expression of the chart coordinates and the box it
is sampled in; its Jacobian and second derivatives are that expression's
symbolic derivatives, evaluated with it in one pass, so the connection's
transformation law needs no finite differencing.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .. import expr as ex
from .. import frames as fr
from ..expr import (
    Node, bundle, comp, compose, dot, evaluate_many, expand_derivatives,
    grad, parse_field_expr, transpose,
)
from .verdict import CheckPart

__all__ = [
    "Chart", "CHARTS", "christoffel_transform", "closed_form_christoffel",
    "check_christoffel_transform", "check_covariant_derivative",
    "geometric_invariance_suite",
]


@dataclass(frozen=True)
class Chart:
    """The Cartesian position as one vec3 expression of the chart
    coordinates, sampled uniformly in ``box``, one (lo, hi) per axis."""

    name: str
    position: Node
    box: Tuple[Tuple[float, float], ...]

    def sample(self, n, seed):
        """(3, n) chart points, drawn axis by axis."""
        rng = np.random.default_rng(seed)
        return np.stack([rng.uniform(lo, hi, size=n) for lo, hi in self.box])

    @cached_property
    def _derivatives(self):
        # held by the chart, so that the tape compiled for this root on the
        # first call serves every later one
        p = self.position
        return bundle(p, grad(p), *(grad(grad(comp(p, i))) for i in range(3)))

    def at(self, pts):
        """(x, B, d2) at the chart points ``pts`` from one evaluation: the
        Cartesian positions (3, N), B^i_j = dx^i/dchart^j (3, 3, N) and
        d2[i, j, k] = d^2 x^i / (dchart^j dchart^k) (3, 3, 3, N)."""
        x, b, *d2 = evaluate_many(self._derivatives, np.zeros(pts.shape[1]),
                                  pts)
        return x, b, np.stack(d2)


_SPHERICAL = ("vec(comp(x,1)*sin(comp(x,2))*cos(comp(x,3)),"
              " comp(x,1)*sin(comp(x,2))*sin(comp(x,3)),"
              " comp(x,1)*cos(comp(x,2)))")
_CYLINDRICAL = ("vec(comp(x,1)*cos(comp(x,2)), comp(x,1)*sin(comp(x,2)),"
                " comp(x,3))")
_BOX = ((-1.0, 1.0),) * 3
_Q_FROZEN = fr.at_times(fr.RotationSpec(axis=(1.0, 2.0, 0.5)).frame().q,
                        0.7)

CHARTS = {c.name: c for c in (
    Chart("identity", parse_field_expr("x"), _BOX),
    Chart("spherical", parse_field_expr(_SPHERICAL),
          ((0.5, 2.0), (0.4, np.pi - 0.4), (0.2, 6.0))),
    Chart("cylindrical", parse_field_expr(_CYLINDRICAL),
          ((0.5, 2.0), (0.2, 6.0), (-1.0, 1.0))),
    Chart("rotation_frozen",
          dot(transpose(ex.matrix_const(_Q_FROZEN)), ex.x_vector()), _BOX),
)}


def christoffel_transform(b, d2):
    """Connection components in a chart of the flat Cartesian
    connection: (3,3,3,N) from the chart's Jacobian ``b`` and second
    derivatives ``d2`` (as ``Chart.at`` gives them) via
    Gamma~^mu_{ab} = A d2x, A = (dchart/dcart).
    """
    if np.min(np.abs(np.linalg.det(np.moveaxis(b, 2, 0)))) < 1e-12:
        raise ValueError("singular chart Jacobian at a sample point")
    a = np.moveaxis(np.linalg.inv(np.moveaxis(b, 2, 0)), 0, 2)
    return np.einsum("mvn,vabn->mabn", a, d2)


def closed_form_christoffel(name, pts):
    """Reference connection components for the curvilinear charts."""
    n = pts.shape[1]
    out = np.zeros((3, 3, 3, n))
    if name == "spherical":
        r, th = pts[0], pts[1]
        out[0, 1, 1] = -r
        out[0, 2, 2] = -r * np.sin(th) ** 2
        out[1, 0, 1] = out[1, 1, 0] = 1.0 / r
        out[1, 2, 2] = -np.sin(th) * np.cos(th)
        out[2, 0, 2] = out[2, 2, 0] = 1.0 / r
        out[2, 1, 2] = out[2, 2, 1] = np.cos(th) / np.sin(th)
    elif name == "cylindrical":
        rho = pts[0]
        out[0, 1, 1] = -rho
        out[1, 0, 1] = out[1, 1, 0] = 1.0 / rho
    elif name not in ("identity", "rotation_frozen"):
        raise ValueError("no closed form for chart %r" % name)
    return out


def check_christoffel_transform(chart, n_points, tol, seed):
    """{"match": CheckPart} of the transformed connection against the
    closed form at ``n_points`` chart points, each witnessed at its
    Cartesian position, with t = 0."""
    pts = chart.sample(n_points, seed)
    cart, b, d2 = chart.at(pts)
    got = christoffel_transform(b, d2)
    ref = closed_form_christoffel(chart.name, pts)
    return {"match": CheckPart.of(np.abs(got - ref), tol,
                                  (np.zeros(n_points), cart))}


def check_covariant_derivative(phi, chart, n_points, tol, seed):
    """Rank-2 tensor test of the covariant derivative of the covector
    field A = grad ``phi``: {"covariant", "partial"} parts, each witnessed
    at the Cartesian position of a chart point, with t = 0.

    Verifies d~_b A~_a - Gamma~^m_{ab} A~_m == B^r_a B^s_b d_s A_r at the
    chart points, and that the bare partial derivative alone fails the
    same comparison on curved charts.  ``phi`` itself is evaluated with
    them, so a field that cannot be evaluated is an error, not a pass on
    its gradient alone.
    """
    pts = chart.sample(n_points, seed)
    t = np.zeros(n_points)
    cart, b, d2 = chart.at(pts)
    xs = [comp(chart.position, i) for i in range(3)]
    b_expr = expand_derivatives(grad(chart.position))
    a_cart = expand_derivatives(grad(phi))
    a_tilde = dot(transpose(b_expr), compose(a_cart, xs, ex.time()))
    cart_grad = compose(expand_derivatives(grad(a_cart)), xs, ex.time())
    rhs_expr = dot(transpose(b_expr), dot(cart_grad, b_expr))
    field = compose(expand_derivatives(phi), xs, ex.time())
    grad_val, rhs_val, a_val, _ = evaluate_many(
        bundle(grad(a_tilde), rhs_expr, a_tilde, field), t, pts)
    gamma = christoffel_transform(b, d2)
    cov_val = grad_val - np.einsum("mabn,mn->abn", gamma, a_val)
    at = (t, cart)
    return {"covariant": CheckPart.of(np.abs(cov_val - rhs_val), tol, at),
            "partial": CheckPart.of(np.abs(grad_val - rhs_val), tol, at)}


# ---------------------------------------------------------------------------
# geometric invariance of points and differences across frame classes
# ---------------------------------------------------------------------------

def geometric_invariance_suite(n_points, tol, seed):
    """{case: CheckPart} of point and difference invariance across frame
    classes.  In each case one side reads the engine (``Chart.at``,
    ``FrameChange.at`` or ``FrameChange.moved``) and the other is a
    closed form; each is compared point by point and witnessed at its
    Cartesian sample.

    A point in the spherical chart is not B times its chart coordinates,
    but a differential is B dchart.  Under a rotation about x3 at unit
    rate even a difference is frame-dependent: Q^T (Q dx + Q' x dt) - dx
    is the basis drift dt (-x2, x1, 0).  In the 4D embedding the velocity
    (1, v) is a tensor again: v~ = Q v + Q' x.  The two frame-dependent
    cases fail.
    """
    chart = CHARTS["spherical"]
    pts = chart.sample(n_points, seed)
    cart, b, _ = chart.at(pts)
    r, th, ph = pts
    st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    jacobian = np.array([[st * cp, r * ct * cp, -r * st * sp],
                         [st * sp, r * ct * sp, r * st * cp],
                         [ct, -r * st, np.zeros(n_points)]])
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, n_points)
    x, u = rng.uniform(-1.0, 1.0, (2, 3, n_points))
    dx, dchart = rng.uniform(-0.1, 0.1, (2, 3, n_points))
    dt = 0.1
    frame = fr.RotationSpec(axis=(0.0, 0.0, 1.0)).frame()
    _, _, u_new, ((q, _), (dq, _), _) = frame.moved(t, x, u)
    defect = fr.rotate(np.swapaxes(q, 0, 1),
                       fr.rotate(q, dx) + dt * fr.rotate(dq, x)) - dx
    c, s = np.cos(t), np.sin(t)
    on_chart, on_frame = (np.zeros(n_points), cart), (t, x)
    residuals = {
        "curvilinear_point": (fr.rotate(b, pts) - cart, on_chart),
        "curvilinear_differential": (
            fr.rotate(b, dchart) - fr.rotate(jacobian, dchart), on_chart),
        "time_dependent_3d_differential": (defect, on_frame),
        "time_dependent_3d_defect_identity": (
            defect - dt * np.stack([-x[1], x[0], np.zeros(n_points)]),
            on_frame),
        "four_d_velocity_tensor": (u_new - np.stack([
            c * u[0] - s * u[1] - s * x[0] - c * x[1],
            s * u[0] + c * u[1] + c * x[0] - s * x[1], u[2]]), on_frame),
    }
    return {case: CheckPart.of(np.abs(res), tol, at)
            for case, (res, at) in residuals.items()}
