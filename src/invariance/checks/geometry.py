"""Charts, affine connection transport, covariant derivatives, and the
geometric-invariance case suite.

A Chart stores the Cartesian coordinates as closed-form expressions of
the chart coordinates; Jacobians and second derivatives come from
symbolic differentiation of those expressions, so the transformation law
for the connection is evaluated without any finite differencing.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .. import expr as ex
from .. import frames as fr
from ..expr import (
    Node, compose, differentiate, dot, evaluate_many, expand_derivatives,
    grad, mat, parse_field_expr, transpose,
)
from .verdict import CheckPart, meets

__all__ = [
    "Chart", "CHARTS", "christoffel_transform", "closed_form_christoffel",
    "check_covariant_derivative", "geometric_invariance_suite",
]


def _box_sampler(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(3, n))
    keep = np.linalg.norm(pts, axis=0) >= 0.3
    pts = pts[:, keep]
    while pts.shape[1] < n:
        extra = rng.uniform(-1.0, 1.0, size=(3, n))
        extra = extra[:, np.linalg.norm(extra, axis=0) >= 0.3]
        pts = np.concatenate([pts, extra], axis=1)
    return pts[:, :n]


def _spherical_sampler(n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.uniform(0.5, 2.0, size=n),
                     rng.uniform(0.4, np.pi - 0.4, size=n),
                     rng.uniform(0.2, 6.0, size=n)])


def _cylindrical_sampler(n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.uniform(0.5, 2.0, size=n),
                     rng.uniform(0.2, 6.0, size=n),
                     rng.uniform(-1.0, 1.0, size=n)])


@dataclass(frozen=True)
class Chart:
    """Cartesian position as closed-form expressions of chart coordinates."""

    name: str
    cart_of_chart: Tuple[Node, Node, Node]
    sampler: Callable[[int, int], np.ndarray]

    def sample(self, n=50, seed=0xC0FFEE):
        return self.sampler(n, seed)

    def coord_exprs(self):
        return [expand_derivatives(c) for c in self.cart_of_chart]

    def jacobian_expr(self):
        """B^i_j = d(cartesian x^i)/d(chart coordinate j), as a matrix."""
        cs = self.coord_exprs()
        return mat([[differentiate(cs[i], j) for j in range(3)]
                    for i in range(3)])

    def jacobian(self, pts):
        t = np.zeros(pts.shape[1])
        return evaluate_many(self.jacobian_expr(), t, pts)

    def second_derivatives(self, pts):
        """d2[i, j, k, n] = d^2 x^i / (dchart_j dchart_k) at each point."""
        cs = self.coord_exprs()
        t = np.zeros(pts.shape[1])
        rows = []
        for i in range(3):
            m = mat([[differentiate(differentiate(cs[i], j), k)
                      for k in range(3)] for j in range(3)])
            rows.append(evaluate_many(m, t, pts))
        return np.stack(rows)


def _frozen_rotation_chart():
    q0 = fr.RotationSpec(axis=(1.0, 2.0, 0.5)).frame().at(0.7)[0]
    x = ex.x_vector()
    inv = dot(transpose(ex.matrix_const(q0)), x)
    return Chart(name="rotation_frozen",
                 cart_of_chart=tuple(ex.comp(inv, i) for i in range(3)),
                 sampler=_box_sampler)


CHARTS = {
    "identity": Chart(
        name="identity",
        cart_of_chart=(parse_field_expr("comp(x,1)"),
                       parse_field_expr("comp(x,2)"),
                       parse_field_expr("comp(x,3)")),
        sampler=_box_sampler),
    "spherical": Chart(
        name="spherical",
        cart_of_chart=(
            parse_field_expr("comp(x,1)*sin(comp(x,2))*cos(comp(x,3))"),
            parse_field_expr("comp(x,1)*sin(comp(x,2))*sin(comp(x,3))"),
            parse_field_expr("comp(x,1)*cos(comp(x,2))")),
        sampler=_spherical_sampler),
    "cylindrical": Chart(
        name="cylindrical",
        cart_of_chart=(parse_field_expr("comp(x,1)*cos(comp(x,2))"),
                       parse_field_expr("comp(x,1)*sin(comp(x,2))"),
                       parse_field_expr("comp(x,3)")),
        sampler=_cylindrical_sampler),
    "rotation_frozen": _frozen_rotation_chart(),
}


def christoffel_transform(gamma, chart, pts):
    """Connection components in the chart, from Cartesian ones.

    gamma is the Cartesian (3,3,3) array Gamma^nu_{rho sigma} (zero for
    the standard flat connection); returns (3,3,3,N) over the chart
    points via Gamma~^mu_{ab} = A B B Gamma + A d2x, A = (dchart/dcart).
    """
    gamma = np.asarray(gamma, dtype=float)
    b = chart.jacobian(pts)                      # (3,3,N)
    if np.min(np.abs(np.linalg.det(np.moveaxis(b, 2, 0)))) < 1e-12:
        raise ValueError("singular chart Jacobian at a sample point")
    a = np.moveaxis(np.linalg.inv(np.moveaxis(b, 2, 0)), 0, 2)
    d2 = chart.second_derivatives(pts)           # (3,3,3,N)
    term1 = np.einsum("mvn,ran,sbn,vrs->mabn", a, b, b, gamma)
    term2 = np.einsum("mvn,vabn->mabn", a, d2)
    return term1 + term2


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
    elif name in ("identity", "rotation_frozen"):
        pass
    else:
        raise ValueError("no closed form for chart %r" % name)
    return out


def check_covariant_derivative(a_expr, chart, n_points=50, tol=1e-9,
                               seed=0xC0FFEE):
    """Rank-2 tensor test of the covariant derivative of a covector field.

    Verifies d~_b A~_a - Gamma~^m_{ab} A~_m == B^r_a B^s_b d_s A_r at the
    chart points, and that the bare partial derivative alone fails the
    same comparison on curved charts.
    """
    pts = chart.sample(n_points, seed)
    t = np.zeros(pts.shape[1])
    xs = chart.coord_exprs()
    b_expr = chart.jacobian_expr()

    a_cart = expand_derivatives(a_expr)
    a_moved = compose(a_cart, xs, ex.time())
    a_tilde = dot(transpose(b_expr), a_moved)
    grad_tilde = expand_derivatives(grad(a_tilde))
    cart_grad = compose(expand_derivatives(grad(a_cart)), xs, ex.time())
    rhs_expr = dot(transpose(b_expr), dot(cart_grad, b_expr))

    grad_val = evaluate_many(grad_tilde, t, pts)
    rhs_val = evaluate_many(rhs_expr, t, pts)
    a_val = evaluate_many(expand_derivatives(a_tilde), t, pts)
    gamma = christoffel_transform(np.zeros((3, 3, 3)), chart, pts)
    cov_val = grad_val - np.einsum("mabn,mn->abn", gamma, a_val)

    return {
        "tolerance": tol,
        "covariant": CheckPart.of(np.max(np.abs(cov_val - rhs_val)), tol),
        "partial": CheckPart.of(np.max(np.abs(grad_val - rhs_val)), tol),
    }


# ---------------------------------------------------------------------------
# geometric invariance of points and differences across frame classes
# ---------------------------------------------------------------------------

def _case(name, expected_invariant, residual, tol):
    part = CheckPart.of(residual, tol)
    return {
        "case": name,
        "expected_invariant": expected_invariant,
        "residual": part.residual,
        "invariant": part.passed,
        "passed": meets(part, expected_invariant),
    }


def geometric_invariance_suite(n_points=100, tol=1e-10, seed=0xC0FFEE):
    """Point/difference invariance across the frame-change cases.

    Components always change; what is tested is whether recombining the
    new components with the correspondingly transformed basis restores
    the original geometric object.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(3, n_points))
    y = rng.uniform(-1.0, 1.0, size=(3, n_points))
    dx = rng.uniform(-0.1, 0.1, size=(3, n_points))
    cases = []

    # constant invertible linear map: the point itself is invariant
    a_lin = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    recombined = np.linalg.inv(a_lin) @ (a_lin @ x)
    cases.append(_case("linear_point", True,
                       np.max(np.abs(recombined - x)), tol))

    # constant shift: the point is frame-dependent, the difference is not
    b = np.array([1.0, 0.0, 0.0])
    cases.append(_case("shift_point", False,
                       np.max(np.abs((x + b[:, None]) - x)), tol))
    diff_shift = (x + b[:, None]) - (y + b[:, None])
    cases.append(_case("shift_difference", True,
                       np.max(np.abs(diff_shift - (x - y))), tol))

    # curvilinear (spherical) chart: position components cannot be
    # recombined with the local basis, the differential can
    chart = CHARTS["spherical"]
    pts = chart.sample(n_points, seed)
    bmat = chart.jacobian(pts)
    cart = np.stack([evaluate_many(c, np.zeros(pts.shape[1]), pts)
                     for c in chart.coord_exprs()])
    point_recombined = np.einsum("ijn,jn->in", bmat, pts)
    cases.append(_case("curvilinear_point", False,
                       np.max(np.abs(point_recombined - cart)), tol))
    dchart = np.einsum("nij,jn->in",
                       np.linalg.inv(np.moveaxis(bmat, 2, 0)), dx)
    dx_back = np.einsum("ijn,jn->in", bmat, dchart)
    cases.append(_case("curvilinear_differential", True,
                       np.max(np.abs(dx_back - dx)), tol))

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
    residual_3d = np.max(np.abs(back - dx))
    cases.append(_case("time_dependent_3d_differential", False,
                       residual_3d, tol))
    # the defect is exactly the drift term
    drift = np.einsum("nij,jn->in", np.linalg.inv(np.moveaxis(a_t, 2, 0)),
                      np.einsum("ijn,jn->in", adot, x)) * dt_step
    cases.append(_case("time_dependent_3d_defect_identity", True,
                       np.max(np.abs((back - dx) - drift)), tol))

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
    cases.append(_case("four_d_differential", True,
                       np.max(np.abs(back4 - d4)), tol))

    # 4D velocity (1, u) transforms as a tensor under x~ = A(t) x
    u = rng.uniform(-1.0, 1.0, size=(3, n_points))
    u4 = np.concatenate([np.ones((1, n)), u], axis=0)
    predicted = np.einsum("abn,bn->an", j4, u4)
    physical = np.concatenate(
        [np.ones((1, n)),
         np.einsum("ijn,jn->in", a_t, u)
         + np.einsum("ijn,jn->in", adot, x)], axis=0)
    cases.append(_case("four_d_velocity_tensor", True,
                       np.max(np.abs(predicted - physical)), tol))

    return cases
