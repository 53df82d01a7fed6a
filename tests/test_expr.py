"""Tests for the field-expression language.

The differentiation engine is checked against a central finite-difference
oracle — the oracle is the ground truth here, the symbolic engine the
implementation under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invariance import expr as ex
from invariance.expr import (
    SCALAR, VEC, MAT,
    const, coord, time, sym, add, sub, mul, div_by, dot, outer, transpose,
    norm, vec, mat, comp, func, grad, div, lap, dt,
    differentiate, expand_derivatives, substitute, compose,
    evaluate_many, parse_field_expr, to_dsl,
)

RNG = np.random.default_rng(20240817)


def point(t, x):
    """One sample point as the ``(1,)`` and ``(3, 1)`` arrays of
    ``evaluate_many``; index the result with ``[..., 0]``."""
    return np.array([t], dtype=float), np.reshape(np.asarray(x, float), (3, 1))


# --- finite-difference oracle ----------------------------------------------

def fd_derivative(e, wrt, t, x, bindings=None, h=1e-6):
    """Central finite difference of an expression at one point."""
    def value(tv, xv):
        return evaluate_many(e, *point(tv, xv), bindings)[..., 0]

    if wrt == "t":
        return (value(t + h, x) - value(t - h, x)) / (2 * h)
    dx = np.zeros(3)
    dx[wrt] = h
    return (value(t, x + dx) - value(t, x - dx)) / (2 * h)


def library_expressions():
    u_field = parse_field_expr(
        "vec(sin(comp(x,1))*cos(comp(x,2)), -cos(comp(x,1))*sin(comp(x,2)),"
        " comp(x,3)*comp(x,1))")
    exprs = [
        parse_field_expr("norm(x)"),
        parse_field_expr("dot(x, x) + t*t"),
        parse_field_expr("exp(-2.0*nu*t)*sin(comp(x,1))", {"nu": SCALAR}),
        parse_field_expr("sqrt(1.0 + dot(x, x))"),
        parse_field_expr("log(2.0 + dot(x, x))"),
        parse_field_expr("power(norm(x), 3.0)"),
        parse_field_expr("norm(x)^(-1.0)"),
        substitute(parse_field_expr("comp(grad(u), 1, 2) + div(u)"),
                   {"u": u_field}),
        substitute(parse_field_expr("0.5*(grad(u) + transpose(grad(u)))"),
                   {"u": u_field}),
        substitute(parse_field_expr("dot(grad(u), u) + dt(u) - nu*lap(u)",
                                    {"nu": SCALAR}),
                   {"u": u_field}),
        substitute(parse_field_expr("lap(comp(grad(u), 1, 1))"),
                   {"u": u_field}),
        outer(ex.x_vector(), grad(parse_field_expr("norm(x)"))),
    ]
    return exprs


BINDINGS = {"nu": 0.37}


class TestDerivativeOracle:
    def test_library_against_finite_differences(self):
        # 1000 seeded points per the module contract, spread over the corpus
        exprs = library_expressions()
        n_pts = 1000 // len(exprs) + 1
        for e in exprs:
            pts_x = RNG.uniform(-1, 1, size=(n_pts, 3))
            pts_x = pts_x[np.linalg.norm(pts_x, axis=1) > 0.2]
            pts_t = RNG.uniform(0.1, 1.0, size=pts_x.shape[0])
            for wrt in (0, 1, 2, "t"):
                d = differentiate(expand_derivatives(e), wrt)
                for t, x in zip(pts_t, pts_x):
                    got = evaluate_many(d, *point(t, x), BINDINGS)[..., 0]
                    ref = fd_derivative(e, wrt, t, x, BINDINGS)
                    scale = max(1.0, np.max(np.abs(ref)))
                    assert np.max(np.abs(got - ref)) / scale < 1e-6

    def test_simple_polynomial(self):
        e = mul(comp(ex.x_vector(), 0), comp(ex.x_vector(), 0))
        d = differentiate(e, 0)
        v = evaluate_many(d, *point(0.0, (3.0, 1.0, 1.0)))[0]
        assert v == pytest.approx(6.0)

    def test_dt_exponential(self):
        e = parse_field_expr("exp(-2.0*nu*t)*sin(comp(x,1))", {"nu": SCALAR})
        d = expand_derivatives(dt(e))
        t, x = 0.3, np.array([0.7, 0.0, 0.0])
        got = evaluate_many(d, *point(t, x), BINDINGS)[0]
        ref = -2 * 0.37 * np.exp(-2 * 0.37 * t) * np.sin(0.7)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_laplacian_of_norm_squared(self):
        # div grad |x|^2 = 6
        e = lap(parse_field_expr("dot(x, x)"))
        got = evaluate_many(e, *point(0.0, (0.3, -0.4, 0.9)))[0]
        assert got == pytest.approx(6.0, abs=1e-12)

    def test_gradient_of_norm(self):
        got = evaluate_many(grad(norm(ex.x_vector())),
                            *point(0.0, (3.0, 4.0, 0.0)))[..., 0]
        assert np.allclose(got, [0.6, 0.8, 0.0])


class TestEvaluation:
    def test_norm_pythagoras(self):
        got = evaluate_many(norm(ex.x_vector()), *point(0.0, (3, 4, 0)))[0]
        assert got == 5.0

    def test_strain_rate_of_shear(self):
        u_field = parse_field_expr("vec(comp(x,1)*comp(x,1), 0, 0)")
        s = substitute(parse_field_expr("0.5*(grad(u) + transpose(grad(u)))"),
                       {"u": u_field})
        got = evaluate_many(s, *point(0.0, (1.0, 1.0, 1.0)))[..., 0]
        expect = np.zeros((3, 3))
        expect[0, 0] = 2.0
        assert np.allclose(got, expect)

    def test_unbound_symbol(self):
        with pytest.raises(ex.UnboundSymbolError):
            evaluate_many(sym("kappa"), *point(0.0, (1, 0, 0)))

    def test_singularity_guard(self):
        e = div_by(const(1.0), norm(ex.x_vector()))
        with pytest.raises(ex.EvalError):
            evaluate_many(e, *point(0.0, (0.0, 0.0, 0.0)))

    def test_matrix_bindings_broadcast(self):
        q = sym("Q", MAT)
        e = dot(q, ex.x_vector())
        qv = np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 1.0]])
        got = evaluate_many(e, *point(0.0, (1.0, 0, 0)), {"Q": qv})[..., 0]
        assert np.allclose(got, [0, 1, 0])

    def test_field_symbol_requires_substitution(self):
        e = grad(sym("p", SCALAR, field=True))
        with pytest.raises(ex.UnboundSymbolError):
            evaluate_many(e, *point(0.0, (1, 0, 0)))


class TestTape:
    """The compiled tape against single-point evaluation, and its guards."""

    SYMBOLS = {"nu": SCALAR, "a": VEC, "Q": MAT, "w": SCALAR}
    # together these reach every node kind and every function
    CORPUS = [
        "nu * t + w - 2.5",
        "dot(x, a) * a + dot(a, Q) - dot(Q, x) + comp(dot(Q, Q), 2, 3) * a",
        "outer(x, a) + transpose(outer(a, x)) + Q",
        "norm(x) * sin(comp(x, 1)) - cos(t) * exp(-comp(x, 2))",
        "log(2.0 + dot(x, x)) + sqrt(1.0 + w * w)",
        "abs(comp(x, 3)) * sign(comp(x, 1)) + power(norm(x), nu)",
        "norm(x)^(-1.5) + 1.0 / (1.0 + t)",
        "vec(comp(x, 2), comp(dot(Q, x), 1), t)",
        "mat(comp(x, 1), 0.0, t, 1.0, comp(x, 2), nu, w, 0.0, comp(x, 3))",
        "comp(transpose(Q), 1, 2) * comp(outer(x, a), 3, 1)",
        "grad(dot(x, x) * sin(t)) + div(outer(x, x))",
        "lap(norm(x)^3.0) + comp(dt(t * t * x), 1)",
    ]

    def bindings(self, n):
        rng = np.random.default_rng(7)
        return {"nu": 0.37, "a": rng.normal(size=3),
                "Q": rng.normal(size=(3, 3)),
                "w": rng.uniform(-1.0, 1.0, size=n)}

    @pytest.mark.parametrize("text", CORPUS)
    def test_many_points_equal_single_points(self, text):
        e = parse_field_expr(text, self.SYMBOLS)
        n = 9
        x = RNG.uniform(0.2, 1.0, size=(3, n)) * RNG.choice([-1, 1], (3, n))
        t = RNG.uniform(0.1, 2.0, size=n)
        bind = self.bindings(n)
        got = evaluate_many(e, t, x, bind)
        columns = []
        for k in range(n):
            single = dict(bind, w=bind["w"][k])
            columns.append(
                evaluate_many(e, *point(t[k], x[:, k]), single)[..., 0])
        # numpy's einsum may round a contraction over a broadcast binding
        # differently for one point than for nine, so allow the last bits
        np.testing.assert_allclose(got, np.stack(columns, axis=-1),
                                   rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("text, error, message", [
        ("norm(x)^(-1.0)", ex.EvalError, "singularity guard"),
        ("power(comp(x, 1) - 0.25, 0.5)", ex.EvalError,
         "power: domain error"),
        ("log(comp(x, 1))", ex.EvalError, "log of a non-positive value"),
        ("sqrt(comp(x, 1) - 0.25)", ex.EvalError, "sqrt of a negative value"),
        ("kappa * comp(x, 1)", ex.UnboundSymbolError, "unbound symbol"),
    ])
    def test_guards_raise_through_the_tape(self, text, error, message):
        e = parse_field_expr(text)
        # only the last of the points is out of the domain
        x = np.array([[1.0, 0.5, 0.0], [0.2, 0.3, 0.0], [0.1, 0.4, 0.0]])
        with pytest.raises(error, match=message):
            evaluate_many(e, np.zeros(3), x)

    def test_unexpandable_node_is_refused(self):
        with pytest.raises(ex.ExprError, match="unexpandable node"):
            ex._build_tape(grad(norm(ex.x_vector())))

    def test_tape_is_built_once_per_root(self, monkeypatch):
        builds = []
        build = ex._build_tape

        def counting(root):
            builds.append(root)
            return build(root)

        monkeypatch.setattr(ex, "_tape_memo", {})
        monkeypatch.setattr(ex, "_build_tape", counting)
        e = parse_field_expr("sin(comp(x, 1)) * t")
        g = grad(e)
        x = RNG.uniform(size=(3, 5))
        for n in (1, 5, 5):
            evaluate_many(e, np.ones(n), x[:, :n])
            evaluate_many(g, np.ones(n), x[:, :n])
        evaluate_many(e, *point(0.5, (1.0, 2.0, 3.0)))
        assert builds == [e, expand_derivatives(g)]


class TestParserPrinter:
    CORPUS = [
        "norm(x)",
        "0.5 * (grad(u) + transpose(grad(u)))",
        "dot(x, grad(p))",
        "dt(u) + dot(grad(u), u) - nu * lap(u)",
        "comp(x, 1) * comp(x, 2) - t",
        "vec(sin(comp(x, 1)), -cos(comp(x, 2)), 0.0)",
        "outer(x, x)",
        "div(u) + lap(p)",
        "norm(x)^(-2.0)",
        "mat(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)",
        "power(norm(x), 3.0)",
        "-comp(u, 3) / (1.0 + t)",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_round_trip(self, text):
        e = parse_field_expr(text, {"nu": SCALAR})
        again = parse_field_expr(to_dsl(e), {"nu": SCALAR})
        assert again is e  # hash-consing makes structural equality identity

    def test_shapes(self):
        assert parse_field_expr("norm(x)").shape == SCALAR
        assert parse_field_expr(
            "0.5*(grad(u) + transpose(grad(u)))").shape == MAT
        assert parse_field_expr("dot(x, grad(p))").shape == SCALAR

    def test_syntax_error_position(self):
        with pytest.raises(ex.ParseError) as err:
            parse_field_expr("norm(x) + ")
        assert "line 1" in str(err.value)

    def test_shape_mismatch_reported(self):
        with pytest.raises((ex.ParseError, ex.ShapeError)):
            parse_field_expr("dot(norm(x), x)")

    def test_determinism(self):
        a = parse_field_expr("dot(x, x) + t")
        b = parse_field_expr("dot(x, x) + t")
        assert a is b


# --- randomised well-shaped ASTs (shape soundness fuzz) --------------------

def scalar_exprs(depth):
    if depth == 0:
        return st.one_of(
            st.floats(min_value=-2, max_value=2).map(const),
            st.sampled_from([coord(0), coord(1), coord(2), time()]),
        )
    sub_s = scalar_exprs(depth - 1)
    sub_v = vector_exprs(depth - 1)
    return st.one_of(
        sub_s,
        st.tuples(sub_s, sub_s).map(lambda ab: add(*ab)),
        st.tuples(sub_s, sub_s).map(lambda ab: mul(*ab)),
        st.tuples(sub_v, sub_v).map(lambda ab: dot(*ab)),
        sub_s.map(lambda a: func("sin", a)),
        sub_s.map(lambda a: func("cos", a)),
        sub_v.map(norm),
    )


def vector_exprs(depth):
    base = st.just(ex.x_vector())
    if depth == 0:
        return base
    sub_s = scalar_exprs(depth - 1)
    sub_v = vector_exprs(depth - 1)
    return st.one_of(
        base,
        st.tuples(sub_s, sub_s, sub_s).map(lambda abc: vec(*abc)),
        st.tuples(sub_s, sub_v).map(lambda ab: mul(*ab)),
        st.tuples(sub_v, sub_v).map(lambda ab: add(*ab)),
        sub_s.map(grad),
    )


@settings(max_examples=200, deadline=None)
@given(e=st.one_of(scalar_exprs(3), vector_exprs(2)),
       seed=st.integers(0, 2**31))
def test_shape_soundness(e, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.3, 1.0, size=(3, 4))
    t = rng.uniform(0.0, 1.0, size=4)
    try:
        out = evaluate_many(e, t, x)
    except ex.EvalError:
        return  # singular point is an acceptable outcome, not a shape bug
    expect = {SCALAR: (4,), VEC: (3, 4), MAT: (3, 3, 4)}[e.shape]
    assert out.shape == expect


@settings(max_examples=150, deadline=None)
@given(e=st.one_of(scalar_exprs(2), vector_exprs(2)))
def test_fuzz_round_trip(e):
    assert parse_field_expr(to_dsl(e)) is e


def test_compose_requires_expansion():
    e = grad(norm(ex.x_vector()))
    with pytest.raises(ex.ExprError):
        compose(e, [coord(0), coord(1), coord(2)], time())


def test_compose_shifts_coordinates():
    e = expand_derivatives(grad(parse_field_expr("dot(x, x)")))
    shifted = compose(e, [sub(coord(0), const(1.0)), coord(1), coord(2)],
                      time())
    got = evaluate_many(shifted, *point(0.0, (1.0, 0.5, -0.5)))[..., 0]
    assert np.allclose(got, [0.0, 1.0, -1.0])
