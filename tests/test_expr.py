"""Tests for the field-expression language.

The differentiation engine is checked against a central finite-difference
oracle — the oracle is the ground truth here, the symbolic engine the
implementation under test.
"""

import gc
import json
import sys
import threading
import tracemalloc
import warnings
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invariance import expr as ex
from invariance import frames as fr
from invariance.expr import (
    SCALAR, VEC, MAT,
    const, coord, time, sym, add, sub, mul, div_by, dot, outer, transpose,
    norm, vec, mat, comp, func, grad, div, lap, dt,
    differentiate, expand_derivatives, substitute, compose,
    evaluate_many, parse_field_expr,
)
from invariance.report import run_scenario

from dsl_printer import to_dsl

RNG = np.random.default_rng(20240817)
SCENARIO_DIR = Path(str(resources.files("invariance") / "scenarios"))


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
        # bytes, so that a zero of the wrong sign is a difference
        assert got.tobytes() == np.stack(columns, axis=-1).tobytes()

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

    def test_a_reciprocal_does_not_evaluate_its_exponent(self):
        # a, b, 1 / b and a * (1 / b): no step fills the -1 exponent
        e = div_by(sym("a"), sym("b"))
        assert len(ex._build_tape(e)) == 4
        got = evaluate_many(e, np.zeros(2), np.zeros((3, 2)),
                            {"a": 3.0, "b": [2.0, 4.0]})
        assert got.tolist() == [1.5, 0.75]

    def test_unexpandable_node_is_refused(self):
        # as the root, and as the operand of a node compiled after it
        unexpanded = grad(norm(ex.x_vector()))
        for root in (unexpanded, add(ex.x_vector(), unexpanded)):
            with pytest.raises(ex.ExprError,
                               match="unexpandable node 'grad'"):
                ex._build_tape(root)

    @staticmethod
    def assert_each_value_released_once(tape):
        """Every slot but the root's is dropped exactly once, at a step
        after its own, and no step reads a slot dropped earlier."""
        released = {}
        for k, (fn, _, _, dead) in enumerate(tape):
            assert callable(fn)
            for slot in dead:
                assert slot < k and slot not in released
                released[slot] = k
        assert sorted(released) == list(range(len(tape) - 1))

    def test_tape_is_built_once_per_root(self, monkeypatch, drop_compiled):
        builds = []
        build = ex._build_tape

        def counting(root):
            builds.append(root)
            return build(root)

        monkeypatch.setattr(ex, "_build_tape", counting)
        e = parse_field_expr("sin(comp(x, 1)) * t")
        g = grad(e)
        x = RNG.uniform(size=(3, 5))
        for n in (1, 5, 5):
            evaluate_many(e, np.ones(n), x[:, :n])
            evaluate_many(g, np.ones(n), x[:, :n])
        evaluate_many(e, *point(0.5, (1.0, 2.0, 3.0)))
        assert builds == [e, expand_derivatives(g)]
        for root in builds:
            self.assert_each_value_released_once(root.derived["tape"])

    def test_dead_values_are_released(self):
        # a chain of 120 steps at 1e5 points: each value is dropped after
        # its one use, so the call holds a few arrays, not 120
        n = 10 ** 5
        e = coord(0)
        for _ in range(120):
            e = func("sin", e)
        t, x = np.zeros(n), RNG.uniform(-1.0, 1.0, size=(3, n))
        want = evaluate_many(e, t[:5], x[:, :5])    # compiles the tape
        tracemalloc.start()
        try:
            got = evaluate_many(e, t, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got[:5], want)
        assert peak < 4 * got.nbytes


class TestBundle:
    """One tape for several roots: each root's own values, bit for bit,
    with every shared node computed once."""

    @pytest.mark.parametrize("n", [1, 9, 2000])
    def test_each_root_equals_its_own_evaluation(self, n):
        roots = [parse_field_expr(text, TestTape.SYMBOLS)
                 for text in TestTape.CORPUS]
        rng = np.random.default_rng(n)
        x = rng.uniform(0.2, 1.0, size=(3, n)) * rng.choice([-1, 1], (3, n))
        t = rng.uniform(0.1, 2.0, size=n)
        bind = TestTape().bindings(n)
        got = evaluate_many(ex.bundle(*roots), t, x, bind)
        assert isinstance(got, tuple) and len(got) == len(roots)
        for root, value in zip(roots, got):
            want = evaluate_many(root, t, x, bind)
            assert value.shape == want.shape
            assert value.tobytes() == want.tobytes(), to_dsl(root)

    def test_a_shared_node_is_computed_once(self, monkeypatch,
                                            drop_compiled):
        calls = []
        step = ex._STEPS["sin"]

        def counted(v, env, a, b):
            calls.append(b[0].__name__)
            return step(v, env, a, b)

        for name in ("sin", "cos"):
            monkeypatch.setitem(ex._STEPS, name, counted)
        shared = func("sin", comp(ex.x_vector(), 0))
        roots = (mul(shared, time()), add(shared, const(1.0)),
                 func("cos", shared))
        x = RNG.uniform(size=(3, 4))
        evaluate_many(ex.bundle(*roots), np.ones(4), x)
        assert sorted(calls) == ["cos", "sin"]

    def test_is_refused_by_the_float_kernel(self):
        e = ex.bundle(parse_field_expr("comp(x, 1) * t"), time())
        with pytest.raises(ex.ExprError, match="float kernel"):
            ex.float_kernel(e)

    def test_repr(self):
        e = ex.bundle(parse_field_expr("comp(x, 1) * t"), ex.x_vector())
        assert repr(e) == "<Node bundle bundle>"
        assert repr(ex.x_vector()) == "<Node vec vec3>"
        assert to_dsl(e) == "bundle(comp(x, 1) * t, x)"

    def test_dead_values_are_released(self):
        # two chains of 120 steps at 1e5 points: each value is dropped
        # after its one use, so the call holds a few arrays, not 240
        n = 10 ** 5
        chains = [coord(0), coord(1)]
        for _ in range(120):
            chains = [func("sin", e) for e in chains]
        e = ex.bundle(*chains)
        t, x = np.zeros(n), RNG.uniform(-1.0, 1.0, size=(3, n))
        want = evaluate_many(e, t[:5], x[:, :5])    # compiles the tape
        TestTape.assert_each_value_released_once(e.derived["tape"])
        tracemalloc.start()
        try:
            got = evaluate_many(e, t, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for value, small in zip(got, want):
            np.testing.assert_array_equal(value[:5], small)
        assert peak < 5 * got[0].nbytes


class TestFloatKernel:
    """``float_kernel`` against ``evaluate_many``, bit for bit."""

    SYMBOLS = {"nu": SCALAR, "a": VEC, "Q": MAT, "w": SCALAR}
    # together these reach every node kind the emitter accepts, every
    # shape pair of dot, every function, and constant exponents that are
    # negative, non-integer and integer
    CORPUS = [
        "dot(x, x)", "norm(x)", "comp(dot(Q, x), 1)",
        "dot(x, Q) + norm(a - x) * dot(dot(Q, transpose(Q)), a)",
        "nu * t + w - 2.5",
        "w * a + 2.0 * x - a",
        "outer(x, a) + transpose(outer(a, x)) + nu * Q",
        "comp(transpose(Q), 1, 2) * comp(outer(x, a), 3, 1) + comp(a, 2)",
        "vec(comp(x, 2), comp(Q, 1, 3), t)",
        "mat(comp(x, 1), 0.0, t, 1.0, comp(x, 2), nu, w, 0.0, comp(x, 3))",
        "sin(comp(x, 1)) * cos(t) - exp(-comp(x, 2)) + log(2.0 + w * w)",
        "sqrt(1.0 + w * w) + abs(comp(x, 3)) * sign(comp(x, 1))",
        "power(comp(x, 1) * comp(x, 1) + 0.1, -1.5) + 1.0 / (1.0 + t)",
        "power(comp(x, 2), 3.0) + power(comp(x, 3), -2.0) + power(nu, 0.5)",
        "grad(comp(x, 1) * comp(x, 2) * sin(t))",
        "comp(dt(t * t * x), 1) + lap(power(comp(x, 1), 3.0))",
    ]
    N = 64

    def points(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.2, 1.0, size=(3, self.N)) \
            * rng.choice([-1, 1], (3, self.N))
        t = rng.uniform(0.1, 2.0, size=self.N)
        bind = {"nu": 0.37, "a": rng.normal(size=3),
                "Q": rng.normal(size=(3, 3)),
                "w": rng.uniform(-1.0, 1.0, size=self.N)}
        return t, x, bind

    @staticmethod
    def single(bind, k):
        """The bindings of point ``k`` as Python floats."""
        return {"nu": bind["nu"], "a": tuple(bind["a"].tolist()),
                "Q": tuple(map(tuple, bind["Q"].tolist())),
                "w": float(bind["w"][k])}

    @pytest.mark.parametrize("text", CORPUS)
    def test_kernel_equals_evaluator(self, text):
        e = parse_field_expr(text, self.SYMBOLS)
        kernel = ex.float_kernel(e)
        t, x, bind = self.points(11)
        many = evaluate_many(e, t, x, bind)
        for k in range(self.N):
            got = kernel(float(t[k]), tuple(x[:, k].tolist()),
                         self.single(bind, k))
            one = evaluate_many(e, *point(t[k], x[:, k]),
                                dict(bind, w=bind["w"][k]))[..., 0]
            # bytes, so that a zero of the wrong sign is a difference
            assert np.array(got).tobytes() == one.tobytes()
            assert np.array(got).tobytes() == many[..., k].tobytes()

    def test_every_accepted_kind_is_reached(self):
        kinds, funcs, pairs = set(), set(), set()
        for text in self.CORPUS:
            for node in ex._post_order(expand_derivatives(
                    parse_field_expr(text, self.SYMBOLS))):
                kinds.add(node.kind)
                if node.kind == "func":
                    funcs.add(node.data)
                if node.kind == "dot":
                    pairs.add(tuple(a.shape for a in node.args))
        assert kinds == set(ex._EMIT)
        assert pairs == set(ex._DOT)
        assert funcs == {"sin", "cos", "exp", "log", "sqrt", "abs", "sign",
                         "power"}

    def test_special_values(self):
        """Each function at zeros, infinities, NaN, tiny and huge values:
        the same bits (signed zeros too), error or warning on both paths."""
        values = [-np.inf, -1e300, -2.0, -0.5, -1e-13, -0.0, 0.0, 1e-13,
                  0.5, 3.0, 1e300, np.inf, np.nan]
        expos = [-np.inf, -2.0, -1.0, -0.5, 0.0, 0.5, 2.0, 3.0, np.inf,
                 np.nan]
        b = sym("b")
        exprs = [func(name, b) for name in ("sin", "cos", "exp", "log",
                                            "sqrt", "abs", "sign")]
        exprs += [func("power", b, const(p)) for p in expos]

        def outcome(run):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    value = np.float64(run())
            except (ex.EvalError, RuntimeWarning) as exc:
                return repr(exc)
            # NaN payloads may differ; any NaN matches any NaN
            return "nan" if np.isnan(value) else value.tobytes()

        differ = []
        for e in exprs:
            kernel = ex.float_kernel(e)
            for value in values:
                got = outcome(lambda: kernel(0.0, (0.0,) * 3, {"b": value}))
                want = outcome(lambda: evaluate_many(
                    e, *point(0.0, (0.0,) * 3), {"b": value})[0])
                if got != want:
                    differ.append((to_dsl(e), value, got, want))
        assert not differ

    @pytest.mark.parametrize("text, error, message", [
        ("power(comp(x, 1), -1.0)", ex.EvalError, "singularity guard"),
        ("power(comp(x, 1) - 0.25, 0.5)", ex.EvalError,
         "power: domain error"),
        ("log(comp(x, 1))", ex.EvalError, "log of a non-positive value"),
        ("sqrt(comp(x, 1) - 0.25)", ex.EvalError, "sqrt of a negative value"),
        ("kappa * comp(x, 1)", ex.UnboundSymbolError, "unbound symbol"),
    ])
    def test_guards_raise_in_the_kernel(self, text, error, message):
        kernel = ex.float_kernel(parse_field_expr(text))
        assert kernel(0.0, (1.0, 0.2, 0.1), {"kappa": 1.0}) is not None
        with pytest.raises(error, match=message):
            kernel(0.0, (0.0, 0.0, 0.0), {})

    def test_nan_point_gives_nan(self):
        text = "sqrt(w * w) * power(abs(comp(x, 1)) + 1.0, -0.5) * x"
        kernel = ex.float_kernel(parse_field_expr(text, self.SYMBOLS))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel(0.0, (np.nan, 0.5, 0.5), {"w": np.nan})
        assert all(np.isnan(got))

    @pytest.mark.parametrize("text", [
        "power(2.0, w)", "power(comp(x, 1), comp(x, 2))",
    ])
    def test_unsupported_kinds_are_refused_when_built(self, text):
        e = parse_field_expr(text, self.SYMBOLS)
        with pytest.raises(ex.ExprError, match="float kernel"):
            ex.float_kernel(e)

    def test_kernel_is_built_once_per_root(self, monkeypatch,
                                           drop_compiled):
        builds = []
        emit = ex._emit_kernel

        def counting(root):
            builds.append(root)
            return emit(root)

        monkeypatch.setattr(ex, "_emit_kernel", counting)
        e = parse_field_expr("sin(comp(x, 1)) * t")
        for _ in range(3):
            ex.float_kernel(e)
            ex.float_kernel(grad(e))
        assert builds == [e, expand_derivatives(grad(e))]


class TestReciprocal:
    """``power(b, -1)`` is the correctly rounded ``1.0 / b`` (a Python
    float division) in the float kernel and in ``evaluate_many``, bit for
    bit, at any batch size, with the singularity guard on both paths."""

    E = func("power", sym("b"), const(-1.0))
    EPS = ex._SINGULARITY_EPS
    BELOW = np.nextafter(EPS, 0.0)
    TINY = np.finfo(float).tiny
    # past the guard: the guard's own value, the infinities, NaN and the
    # largest finite magnitude
    SPECIAL = [EPS, -EPS, np.nextafter(EPS, 1.0), np.inf, -np.inf, np.nan,
               np.finfo(float).max, -np.finfo(float).max]
    # inside the guard: its lower edge, the smallest normal, subnormals
    # and both zeros
    GUARDED = [BELOW, -BELOW, TINY, -TINY, TINY / 2.0, -5e-324, 5e-324,
               0.0, -0.0]

    def bases(self):
        rng = np.random.default_rng(0x1B)
        mags = 10.0 ** rng.uniform(np.log10(self.EPS), 308.0, size=10 ** 4)
        return np.concatenate([mags * rng.choice([-1.0, 1.0], mags.size),
                               self.SPECIAL])

    def one(self, b):
        return evaluate_many(self.E, *point(0.0, (0.0,) * 3),
                             {"b": np.array([b])})[0]

    def test_both_paths_are_the_rounded_quotient(self):
        bases = self.bases()
        kernel = ex.float_kernel(self.E)
        n = bases.size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            many = evaluate_many(self.E, np.zeros(n), np.zeros((3, n)),
                                 {"b": bases})
            # 10008 bases: 1112 batches of nine
            nine = np.concatenate([evaluate_many(
                self.E, np.zeros(9), np.zeros((3, 9)), {"b": chunk})
                for chunk in bases.reshape(-1, 9)])
            one = np.array([self.one(b) for b in bases])
            got = np.array([kernel(0.0, (0.0,) * 3, {"b": b})
                            for b in bases.tolist()])
        want = np.array([1.0 / b for b in bases.tolist()])
        # every value, NaN included, is the same bits on every path
        for values in (got, many, nine, one):
            assert values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("base", GUARDED)
    def test_the_guard_raises_on_both_paths(self, base):
        kernel = ex.float_kernel(self.E)
        with pytest.raises(ex.EvalError, match="singularity guard") as one:
            self.one(base)
        with pytest.raises(ex.EvalError, match="singularity guard") as flt:
            kernel(0.0, (0.0,) * 3, {"b": float(base)})
        assert str(one.value) == str(flt.value)
        batch = np.full(9, 2.0)
        batch[4] = base
        with pytest.raises(ex.EvalError, match="singularity guard"):
            evaluate_many(self.E, np.zeros(9), np.zeros((3, 9)),
                          {"b": batch})

    @pytest.mark.parametrize("e", [
        func("power", const(1e-20), const(-1.0)),
        div_by(const(1.0), const(1e-20)),
    ], ids=["power", "div_by"])
    def test_a_constant_base_is_not_folded_past_the_guard(self, e):
        # folded, the reciprocal would be const(1e+20): the guard must
        # see it at evaluation, as it sees a bound base
        assert e.kind == "func"
        with pytest.raises(ex.EvalError, match="singularity guard"):
            evaluate_many(e, *point(0.0, (0.0,) * 3))
        with pytest.raises(ex.EvalError, match="singularity guard"):
            ex.float_kernel(e)(0.0, (0.0,) * 3, {})


class TestConstantDot:
    """A ``dot`` of two constant operands folds to constants summed in
    the evaluator's order, so it keeps the bits of the product that the
    evaluator would take, a sum of -0.0 included: ``const`` keys a
    constant by its bits."""

    @staticmethod
    def unfolded(a, b):
        return ex._mk("dot", (a, b), shape=ex._DOT[(a.shape, b.shape)][0])

    @pytest.mark.parametrize("shapes", sorted(ex._DOT))
    def test_fold_equals_the_evaluated_product(self, shapes):
        rng = np.random.default_rng(0xD07)
        a, b = (ex.vector_const(rng.normal(size=3)) if shape == VEC
                else ex.matrix_const(rng.normal(size=(3, 3)))
                for shape in shapes)
        folded = dot(a, b)
        assert folded.kind in ("const", "vec", "mat")
        assert all(arg.kind == "const" for arg in folded.args)
        want = evaluate_many(self.unfolded(a, b), *point(0.0, (0.0,) * 3))
        got = evaluate_many(folded, *point(0.0, (0.0,) * 3))
        assert got.tobytes() == want.tobytes()

    def test_a_negative_zero_sum_keeps_its_sign(self):
        a = ex.matrix_const([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0],
                             [0.0, 1.0, 0.0]])
        b = ex.vector_const([-1.0, -1.0, -1.0])
        want = evaluate_many(self.unfolded(a, b), *point(0.0, (0.0,) * 3))
        got = evaluate_many(dot(a, b), *point(0.0, (0.0,) * 3))
        assert np.signbit(want[0, 0])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_zeros_keep_their_sign_bits(self, first, monkeypatch):
        # a fresh intern table, so the zero of either sign is built first
        monkeypatch.setattr(ex, "_intern", {})
        const(first)
        neg_zero, pos_zero = const(-0.0), const(0.0)
        assert neg_zero is not pos_zero
        assert np.signbit(neg_zero.data) and not np.signbit(pos_zero.data)
        assert ex.neg(const(0.0)) is neg_zero

    def test_a_galilei_carry_compiles_without_the_product(self):
        spec = fr.FrameChange.random_galilei(np.random.default_rng(3))
        x0 = (0.3, -0.2, 0.1)
        root = spec.carry(x0, (0.2, 0.1, 0.0))[0]
        q, c = spec.exprs(0)
        unfolded = compose(add(self.unfolded(q, ex.vector_const(x0)), c),
                           (), sub(time(), const(spec.tau)))
        assert len(ex._build_tape(expand_derivatives(root))) <= 18
        assert len(ex._build_tape(expand_derivatives(unfolded))) == 29
        t, x = np.linspace(-2.0, 2.0, 9), RNG.normal(size=(3, 9))
        assert (evaluate_many(root, t, x).tobytes()
                == evaluate_many(unfolded, t, x).tobytes())


class TestLifetime:
    """What is derived from a node lives on the node: nothing keeps a node
    that the program dropped."""

    def test_a_dropped_expression_is_freed(self):
        gc.collect()
        before = len(ex._intern)
        c = const(np.random.default_rng(0x11FE).uniform(10.0, 11.0))
        # the derivative of exp(f) refers back to exp(f)
        e = grad(mul(func("exp", mul(c, coord(0))), coord(1)))
        evaluate_many(e, *point(0.5, (0.1, 0.2, 0.3)))
        ex.float_kernel(e)
        root = weakref.ref(expand_derivatives(e))
        assert {"tape", "kernel"} <= set(root().derived)
        assert len(ex._intern) > before
        del c, e
        gc.collect()
        assert root() is None
        assert len(ex._intern) == before

    def test_derived_is_made_with_the_first_stored_value(self):
        c = const(np.random.default_rng(0xD1C7).uniform(10.0, 11.0))
        e = mul(c, coord(0))
        assert e.derived is None and c.derived is None
        evaluate_many(e, *point(0.5, (0.1, 0.2, 0.3)))
        assert set(e.derived) == {"tape"}
        # compiling a root stores nothing on its operands
        assert c.derived is None
        differentiate(e, 0)
        assert set(e.derived) == {"tape", ("d", 0)}
        assert set(c.derived) == {("d", 0)}

    def test_a_node_of_a_swapped_table_leaves_the_restored_one_alone(
            self, monkeypatch):
        kept = const(-0.0), const(0.0)
        gc.collect()
        table, entries = ex._intern, dict(ex._intern)
        monkeypatch.setattr(ex, "_intern", {})
        # the zeros under keys that the restored table holds too
        built = [const(-0.0), const(0.0),
                 const(np.random.default_rng(0x5A9).uniform(10.0, 11.0))]
        gone = [weakref.ref(node) for node in built]
        assert built[0] is not kept[0] and built[1] is not kept[1]
        monkeypatch.undo()
        assert ex._intern is table
        del built
        gc.collect()
        assert all(ref() is None for ref in gone)
        assert table.keys() == entries.keys()
        assert all(table[key] is ref for key, ref in entries.items())
        assert const(-0.0) is kept[0] and const(0.0) is kept[1]

    def test_a_node_that_dies_while_its_table_is_swapped_out_leaves_it(
            self, monkeypatch):
        gc.collect()
        before = len(ex._intern)
        c = const(np.random.default_rng(0x50D).uniform(10.0, 11.0))
        root = weakref.ref(grad(func("exp", mul(c, coord(0)))))
        assert root() is None and len(ex._intern) > before
        # c's entry goes from the table it was added to, not the one in use
        swapped = {}
        monkeypatch.setattr(ex, "_intern", swapped)
        del c
        gc.collect()
        assert not swapped
        monkeypatch.undo()
        assert len(ex._intern) == before
        assert all(ref() is not None for ref in ex._intern.values())


def flag_oracles(roots):
    """{node: (derivative operator in its tree, zero)} for every node of
    the DAGs of ``roots``, by the recursive definitions that the flags
    ``has_deriv`` and ``is_zero`` set at construction replace."""
    memo = {}

    def walk(n):
        if n not in memo:
            below = [walk(a) for a in n.args]
            if n.kind == "const":
                zero = n.data == 0.0
            else:
                zero = n.kind in ("vec", "mat") and all(z for _, z in below)
            memo[n] = (n.kind in ("grad", "div", "lap", "dt")
                       or any(d for d, _ in below), zero)
        return memo[n]

    for root in roots:
        walk(root)
    return memo


def assert_flags_match_their_oracles(roots):
    wrong = [node for node, flags in flag_oracles(roots).items()
             if (node.has_deriv, node.is_zero) != flags]
    assert not wrong, wrong[:5]


class TestSharedTable:
    """Threads that build the same expressions at once share one node for
    each, and no entry outlives its node."""

    TEXTS = ["sin(dot(x, x)) * t", "lap(norm(x)^3)",
             "grad(exp(-t) * comp(x, 1) * comp(x, 2))",
             "div(vec(comp(x, 2), t * comp(x, 3), dot(x, x)))",
             "dt(cos(t) * x)"]

    def test_threads_get_one_node_per_expression(self):
        threads_n = 8
        # a fresh scale, so that every thread builds what no table holds
        scale = "%r" % np.random.default_rng(0x7EAD).uniform(10.0, 11.0)
        texts = [scale + " * " + text for text in self.TEXTS]
        start = threading.Barrier(threads_n)
        got = [None] * threads_n

        def build(k):
            start.wait(timeout=30)
            nodes = []
            for text in texts:
                e = parse_field_expr(text)
                nodes += [e, expand_derivatives(e), grad(e) if
                          e.shape == SCALAR else div(e),
                          differentiate(expand_derivatives(e), "t")]
            got[k] = nodes

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,))
                       for k in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(nodes is not None for nodes in got)
        for nodes in got[1:]:
            assert len(nodes) == len(got[0])
            assert all(a is b for a, b in zip(nodes, got[0]))
        del got, nodes
        gc.collect()
        assert all(ref() is not None for ref in ex._intern.values())


class TestShippedRoots:
    """Every expanded root that the shipped scenarios evaluate gives the
    same bits for a point evaluated alone as for the same point among
    nine."""

    @staticmethod
    def cut(root, take, t_arr, x_arr, bindings):
        """The points ``take`` of an ``evaluate_many`` call, with each
        per-point binding cut to them."""
        n = np.shape(t_arr)[0]
        ndim = {node.data[0]: {SCALAR: 1, VEC: 2, MAT: 3}[node.shape]
                for node in ex._post_order(root) if node.kind == "sym"}
        bind = {}
        for name, value in (bindings or {}).items():
            value = np.asarray(value, dtype=float)
            if value.ndim == ndim.get(name) and value.shape[-1] == n:
                value = value[..., take]
            bind[name] = value
        return (np.asarray(t_arr, dtype=float)[take],
                np.asarray(x_arr, dtype=float)[:, take], bind)

    @pytest.fixture(scope="class")
    def shipped_calls(self):
        """{id(root): (root, nine points, field)} of every expanded root
        that the 36 shipped scenarios evaluate, with the first nine points
        of its first ``evaluate_many`` call and the field passed to it."""
        evaluate, calls = ex.evaluate_many, {}

        def recording(e, t_arr, x_arr, bindings=None):
            out = evaluate(e, t_arr, x_arr, bindings)
            root = expand_derivatives(e)
            if id(root) not in calls:
                # the first nine points, repeated if the call has fewer
                take = np.arange(9) % np.shape(t_arr)[0]
                calls[id(root)] = (root, self.cut(root, take, t_arr, x_arr,
                                                  bindings), e)
            return out

        with pytest.MonkeyPatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if name.startswith("invariance.") \
                        and getattr(module, "evaluate_many", None) is evaluate:
                    patch.setattr(module, "evaluate_many", recording)
            scenarios = sorted(SCENARIO_DIR.glob("*.json"))
            assert len(scenarios) == 36
            for path in scenarios:
                assert run_scenario(path, None, None,
                                    no_timestamp=True)[1] == 0, path.name
        return calls

    def test_one_point_equals_nine(self, shipped_calls):
        evaluate, calls = ex.evaluate_many, shipped_calls
        # a bundle's roots count one by one
        roots = [r for root, _, _ in calls.values()
                 for r in (root.args if root.kind == "bundle" else (root,))]
        assert len(roots) > 50
        differ = set()
        for root, nine_points, _ in calls.values():
            nine = evaluate(root, *nine_points)
            for k in range(9):
                one = evaluate(root, *self.cut(root, [k], *nine_points))
                for r, many, single in zip(
                        *(v if root.kind == "bundle" else (v,)
                          for v in (root.args, nine, one))):
                    if many[..., k].tobytes() != single[..., 0].tobytes():
                        differ.add(r)
        assert not differ, "%d of %d roots differ" % (len(differ), len(roots))

    def test_every_step_is_a_shared_module_function(self, shipped_calls):
        fns = {fn for root, _, _ in shipped_calls.values()
               for fn, _, _, _ in root.derived["tape"]}
        assert len(fns) > 10
        for fn in fns:
            assert fn.__module__ == ex.__name__ and fn.__closure__ is None
            # the module's own function of that name: one object per step
            # kind, whatever tape holds it
            assert getattr(ex, fn.__qualname__) is fn

    def test_flags_match_their_oracles(self, shipped_calls):
        fields = [e for _, _, e in shipped_calls.values()]
        assert any(e.has_deriv for e in fields)
        assert_flags_match_their_oracles(
            [root for root, _, _ in shipped_calls.values()] + fields)


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



A, B, C = sym("a"), sym("b"), sym("c")
MINUS_A2 = ex.neg(func("power", A, const(2.0)))

# each DSL text with the node that the constructors build for it, or, for
# a refused text, the (line, column) of its ParseError (None: unchecked)
DSL_TABLE = [
    ("  t + 1 ", add(time(), const(1.0))),
    ("t\n+ 1", add(time(), const(1.0))),
    ("\tt *\xa0a", mul(time(), A)),
    ("2^-1", const(0.5)),
    ("t^-1", func("power", time(), const(-1.0))),
    ("-a^2", MINUS_A2),
    ("a^b^c", func("power", A, func("power", B, C))),
    ("a - b - c", sub(sub(A, B), C)),
    ("a / b / c", div_by(div_by(A, B), C)),
    ("-a^2 * 1.e1 + .5E-1", add(mul(MINUS_A2, const(10.0)), const(0.05))),
    ("comp(x, 2) + sin (t)", add(coord(1), func("sin", time()))),
    # characters outside the DSL, which Python's grammar would take
    ("t # c", (1, 2)), ("t @ t", (1, 2)), ("t % 2", (1, 2)),
    ("a[1]", (1, 1)), ("'t'", (1, 0)), ("\u00e9", (1, 0)),
    ("\u0663", (1, 0)),
    # Python's power; a trailing comma; literals outside the DSL's numbers
    ("t**2", (1, 1)), ("t ^ 2 ** 2", (1, 6)), ("comp(x, 1, )", (1, 0)),
    ("sin(t,)", (1, 0)), ("0x1F", (1, 0)), ("1_0", (1, 0)),
    ("1j", (1, 0)), ("True", (1, 0)), ("...", (1, 0)),
    # other Python forms
    ("(sin)(t)", (1, 0)), ("sin(^t)", (1, 0)), ("sin(t, ^t)", (1, 0)),
    ("vec(^t)", (1, 0)), ("sin(*t)", (1, 4)),
    ("comp(x, (1))", (1, 9)), ("t) + (q", (1, 1)), ("+t", (1, 0)),
    ("t.real", (1, 0)), ("t, t", (1, 0)), ("t // 2", (1, 0)),
    ("1if t else p", None),
    # constructor failures, which escaped as TypeError and ValueError
    ("dot(x, x, x)", (1, 0)), ("comp(x, 1.)", (1, 8)),
    ("vec(t, t)", (1, 0)), ("x + t", (1, 0)),
    # the position in the caller's text, after a caret and leading spaces
    ("t^2 + foo(t)", (1, 6)), ("   t^2 + foo(t)", (1, 9)),
    ("t^2\n + foo(t)", (2, 3)), ("t^2 # c", (1, 4)),
    # narrowings: Python keywords as names, leading-zero integers, deeper
    # nesting than Python's parser takes and a sum too long for its AST
    ("lambda", None), ("t * in", None), ("not", None), ("None", None),
    ("01", None), ("comp(x, 01)", None),
    ("(" * 201 + "t" + ")" * 201, None), ("-" * 100000 + "t", (1, 0)),
    ("+".join(["t"] * 30000), (1, 0)),
]


@pytest.mark.parametrize("text, want", DSL_TABLE,
                         ids=[repr(text[:20]) for text, _ in DSL_TABLE])
def test_the_dsl_accepts_and_refuses(text, want):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = parse_field_expr(text, {"a": SCALAR})
        except ex.ParseError as err:
            got = (err.line, err.col)
    assert not caught   # a SyntaxWarning of Python's parser is a refusal
    if isinstance(want, ex.Node):
        assert got is want
    else:
        assert isinstance(got, tuple) and want in (None, got)


@pytest.mark.parametrize("field", ["(" * 6000 + "t" + ")" * 6000,
                                   "-" * 100000 + "t"],
                         ids=["nested", "unary"])
def test_a_field_too_deep_to_parse_is_a_schema_error(field, tmp_path):
    got, code = run_field(field, tmp_path)
    assert (code, got["error_kind"]) == (2, "schema")
    assert "'field'" in got["error"]
    # the error quotes a bounded prefix of the value, not all of it
    assert len(got["error"]) < 1000


def run_field(field, tmp_path):
    """The shipped covariant-derivative scenario run with ``field``."""
    doc = json.loads((SCENARIO_DIR / "covariant_derivative_spherical.json")
                     .read_text())
    doc["payload"]["field"] = field
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    return run_scenario(path, None, None, no_timestamp=True)


def test_a_complex_constant_power_stays_symbolic(tmp_path):
    # Python gives (-8.0) ** 0.5 as a complex number: the fold keeps the
    # node, and evaluation reports the domain error
    e = func("power", const(-8.0), const(0.5))
    assert (e.kind, e.data) == ("func", "power")
    assert parse_field_expr("power(-8, 0.5)") is e
    with pytest.raises(ex.EvalError, match="power: domain error"):
        evaluate_many(e, *point(0.0, (0.0,) * 3))
    with pytest.raises(ex.EvalError, match="power: domain error"):
        ex.float_kernel(e)(0.0, (0.0,) * 3, {})
    # a field that evaluates it is an execution error, not a schema error
    got, code = run_field("power(-8, 0.5) * comp(x, 1)", tmp_path)
    assert (code, got["error_kind"]) == (3, "execution")


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


@settings(max_examples=100, deadline=None)
@given(e=st.one_of(scalar_exprs(2), vector_exprs(2)),
       op=st.sampled_from(["", "grad", "div", "lap", "dt"]))
def test_drawn_fields_flags_match_their_oracles(e, op):
    text = to_dsl(e)
    if op == "div" and e.shape == SCALAR:
        text = "grad(%s)" % text
    field = parse_field_expr("%s(%s)" % (op, text))
    assert field.has_deriv or not op
    assert_flags_match_their_oracles([field, expand_derivatives(field)])


@pytest.mark.parametrize("a, b", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
def test_a_sum_of_constant_zeros_is_their_ieee_sum(a, b):
    got = add(const(a), const(b)).data
    assert np.signbit(got) == np.signbit(a + b)


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
