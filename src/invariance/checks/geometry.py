"""Charts, affine connection transport, covariant derivatives, and the
geometric-invariance case suite, which judges each case with
``CheckPart.of`` like every other check: a frame-dependent case fails,
and the scenario's ``expect`` says which cases should.

A Chart is one vec3 expression of the chart coordinates and the box it
is sampled in; its Jacobian and second derivatives are that expression's
symbolic derivatives, evaluated with it in one pass, so the connection's
transformation law needs no finite differencing.
"""

from dataclasses import dataclass
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

    def at(self, pts):
        """(x, B, d2) at the chart points ``pts`` from one evaluation: the
        Cartesian positions (3, N), B^i_j = dx^i/dchart^j (3, 3, N) and
        d2[i, j, k] = d^2 x^i / (dchart^j dchart^k) (3, 3, 3, N)."""
        p = self.position
        x, b, *d2 = evaluate_many(
            bundle(p, grad(p), *(grad(grad(comp(p, i))) for i in range(3))),
            np.zeros(pts.shape[1]), pts)
        return x, b, np.stack(d2)


_SPHERICAL = ("vec(comp(x,1)*sin(comp(x,2))*cos(comp(x,3)),"
              " comp(x,1)*sin(comp(x,2))*sin(comp(x,3)),"
              " comp(x,1)*cos(comp(x,2)))")
_CYLINDRICAL = ("vec(comp(x,1)*cos(comp(x,2)), comp(x,1)*sin(comp(x,2)),"
                " comp(x,3))")
_BOX = ((-1.0, 1.0),) * 3
_Q_FROZEN = fr.RotationSpec(axis=(1.0, 2.0, 0.5)).frame().at(0.7)[0]

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
    """{case: CheckPart} of point/difference invariance across the
    frame-change cases.

    Components always change; what is tested is whether recombining the
    new components with the correspondingly transformed basis restores
    the original geometric object.  Each case is judged as invariant or
    not; a point under a shift or a curvilinear chart, and a difference
    under a time-dependent 3D map, are frame-dependent and fail.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(3, n_points))
    y = rng.uniform(-1.0, 1.0, size=(3, n_points))
    dx = rng.uniform(-0.1, 0.1, size=(3, n_points))
    residual = {}

    # constant invertible linear map: the point itself is invariant
    a_lin = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    recombined = np.linalg.inv(a_lin) @ (a_lin @ x)
    residual["linear_point"] = np.max(np.abs(recombined - x))

    # constant shift: the point is frame-dependent, the difference is not
    b = np.array([1.0, 0.0, 0.0])
    residual["shift_point"] = np.max(np.abs((x + b[:, None]) - x))
    diff_shift = (x + b[:, None]) - (y + b[:, None])
    residual["shift_difference"] = np.max(np.abs(diff_shift - (x - y)))

    # curvilinear (spherical) chart: position components cannot be
    # recombined with the local basis, the differential can
    chart = CHARTS["spherical"]
    pts = chart.sample(n_points, seed)
    cart, bmat, _ = chart.at(pts)
    point_recombined = np.einsum("ijn,jn->in", bmat, pts)
    residual["curvilinear_point"] = np.max(np.abs(point_recombined - cart))
    dchart = np.einsum("nij,jn->in",
                       np.linalg.inv(np.moveaxis(bmat, 2, 0)), dx)
    dx_back = np.einsum("ijn,jn->in", bmat, dchart)
    residual["curvilinear_differential"] = np.max(np.abs(dx_back - dx))

    # time-dependent linear map: even the difference picks up the
    # basis-drift term (A dA^{-1}/dt) x~ dt in 3D
    rot = fr.RotationSpec(axis=(0.0, 0.0, 1.0)).frame()
    t = rng.uniform(0.0, 1.0, size=n_points)
    dt_step = 0.1
    a_t = rot.at(t)[0]                           # (3,3,N)
    adot = rot.at(t, 1)[0]
    dx_tilde = (np.einsum("ijn,jn->in", a_t, dx)
                + np.einsum("ijn,jn->in", adot, x) * dt_step)
    back = np.einsum("nij,jn->in", np.linalg.inv(np.moveaxis(a_t, 2, 0)),
                     dx_tilde)
    defect = back - dx
    residual["time_dependent_3d_differential"] = np.max(np.abs(defect))
    # the defect is exactly the drift term
    drift = np.einsum("nij,jn->in", np.linalg.inv(np.moveaxis(a_t, 2, 0)),
                      np.einsum("ijn,jn->in", adot, x)) * dt_step
    residual["time_dependent_3d_defect_identity"] = np.max(
        np.abs(defect - drift))

    # 4D embedding of the same frame change restores the differential
    n = n_points
    j4 = np.zeros((4, 4, n))
    j4[0, 0] = 1.0
    j4[1:, 1:] = a_t
    j4[1:, 0] = np.einsum("ijn,jn->in", adot, x)
    d4 = np.concatenate([np.full((1, n), dt_step), dx], axis=0)
    d4_tilde = np.einsum("abn,bn->an", j4, d4)
    back4 = np.einsum("nab,bn->an", np.linalg.inv(np.moveaxis(j4, 2, 0)),
                      d4_tilde)
    residual["four_d_differential"] = np.max(np.abs(back4 - d4))

    # 4D velocity (1, u) transforms as a tensor under x~ = A(t) x
    u = rng.uniform(-1.0, 1.0, size=(3, n_points))
    u4 = np.concatenate([np.ones((1, n)), u], axis=0)
    predicted = np.einsum("abn,bn->an", j4, u4)
    physical = np.concatenate(
        [np.ones((1, n)),
         np.einsum("ijn,jn->in", a_t, u)
         + np.einsum("ijn,jn->in", adot, x)], axis=0)
    residual["four_d_velocity_tensor"] = np.max(np.abs(predicted - physical))

    return {case: CheckPart.of(r, tol) for case, r in residual.items()}
