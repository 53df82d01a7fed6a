"""Expression trees for tensor-valued fields over 3D space and time.

A :class:`Node` denotes a scalar, 3-vector or 3x3-matrix field of (x, t).
Trees are immutable and hash-consed: building the same expression twice
yields the *same* object, so structural equality is identity and the
evaluator/differentiator can memoise by ``id``.

Derivative operators (grad/div/lap/dt) are kept as first-class nodes and
expanded symbolically before evaluation; no finite differences are ever
used outside the test oracles.
"""

import math
import re
import sys
import threading

import numpy as np

# symbolic expansion of nested derivatives recurses deeply on large trees
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

__all__ = [
    "SCALAR", "VEC", "MAT",
    "Node",
    "ExprError", "ShapeError", "ParseError", "UnboundSymbolError", "EvalError",
    "const", "coord", "time", "sym", "add", "sub", "neg", "mul", "div_by",
    "dot", "outer", "transpose", "norm", "vec", "mat", "comp", "func",
    "grad", "div", "lap", "dt", "zero",
    "vector_const", "matrix_const", "x_vector",
    "differentiate", "expand_derivatives", "substitute", "compose",
    "evaluate_many", "free_symbols", "contains_derivatives",
    "parse_field_expr", "to_dsl",
]

SCALAR = "scalar"
VEC = "vec3"
MAT = "mat3"

_SINGULARITY_EPS = 1e-12


class ExprError(Exception):
    pass


class ShapeError(ExprError):
    pass


class ParseError(ExprError):
    def __init__(self, msg, line=1, col=0):
        super().__init__("%s (line %d, column %d)" % (msg, line, col))
        self.line = line
        self.col = col


class UnboundSymbolError(ExprError):
    pass


class EvalError(ExprError):
    """Evaluation hit a singular or out-of-domain point."""


# ---------------------------------------------------------------------------
# nodes and hash-consing
# ---------------------------------------------------------------------------

class Node:
    __slots__ = ("kind", "args", "data", "shape")

    def __init__(self, kind, args, data, shape):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", shape)

    def __setattr__(self, *_):
        raise AttributeError("Node is immutable")

    def __repr__(self):
        return "<Node %s %s>" % (self.kind, to_dsl(self))

    # Identity *is* structural equality thanks to interning; keep the
    # default __eq__/__hash__ from object.


_intern = {}
_intern_lock = threading.Lock()


def _mk(kind, args=(), data=None, shape=SCALAR):
    key = (kind, data, tuple(id(a) for a in args), shape)
    node = _intern.get(key)
    if node is None:
        with _intern_lock:
            node = _intern.get(key)
            if node is None:
                node = Node(kind, tuple(args), data, shape)
                _intern[key] = node
    return node


# ---------------------------------------------------------------------------
# constructors (with local simplification)
# ---------------------------------------------------------------------------

def const(v):
    return _mk("const", data=float(v))


def coord(i):
    if i not in (0, 1, 2):
        raise ShapeError("coordinate index must be 0, 1 or 2, got %r" % (i,))
    return _mk("coord", data=i)


def time():
    return _mk("time")


def sym(name, shape=SCALAR, field=False):
    return _mk("sym", data=(name, bool(field)), shape=shape)


def zero(shape=SCALAR):
    if shape == SCALAR:
        return const(0.0)
    if shape == VEC:
        return vec(const(0.0), const(0.0), const(0.0))
    z = const(0.0)
    return mat([[z, z, z], [z, z, z], [z, z, z]])


def _is_const(e, value=None):
    return e.kind == "const" and (value is None or e.data == value)


def _is_zero(e):
    if e.kind == "const":
        return e.data == 0.0
    if e.kind in ("vec", "mat"):
        return all(_is_zero(a) for a in e.args)
    return False


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError("cannot add %s and %s" % (a.shape, b.shape))
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if _is_const(a) and _is_const(b):
        return const(a.data + b.data)
    return _mk("add", (a, b), shape=a.shape)


def neg(a):
    return mul(const(-1.0), a)


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    # at least one factor must be scalar; scalar goes first
    if a.shape != SCALAR and b.shape != SCALAR:
        raise ShapeError("product needs a scalar factor (use dot/outer)")
    if a.shape != SCALAR:
        a, b = b, a
    if _is_zero(a) or _is_zero(b):
        return zero(b.shape)
    if _is_const(a, 1.0):
        return b
    if _is_const(a) and _is_const(b):
        return const(a.data * b.data)
    if _is_const(a) and b.kind == "mul" and _is_const(b.args[0]):
        return mul(const(a.data * b.args[0].data), b.args[1])
    return _mk("mul", (a, b), shape=b.shape)


def div_by(a, b):
    return mul(a, func("power", b, const(-1.0)))


_DOT_SIG = {
    (VEC, VEC): SCALAR,
    (MAT, VEC): VEC,
    (MAT, MAT): MAT,
    (VEC, MAT): VEC,
}


def dot(a, b):
    out = _DOT_SIG.get((a.shape, b.shape))
    if out is None:
        raise ShapeError("dot undefined for (%s, %s)" % (a.shape, b.shape))
    if _is_zero(a) or _is_zero(b):
        return zero(out)
    return _mk("dot", (a, b), shape=out)


def outer(a, b):
    if a.shape != VEC or b.shape != VEC:
        raise ShapeError("outer requires two vectors")
    return _mk("outer", (a, b), shape=MAT)


def transpose(m):
    if m.shape != MAT:
        raise ShapeError("transpose requires a matrix")
    if m.kind == "transpose":
        return m.args[0]
    if m.kind == "mat":
        e = m.args
        return mat([[e[0], e[3], e[6]], [e[1], e[4], e[7]], [e[2], e[5], e[8]]])
    return _mk("transpose", (m,), shape=MAT)


def norm(v):
    if v.shape != VEC:
        raise ShapeError("norm requires a vector")
    return _mk("norm", (v,), shape=SCALAR)


def vec(a, b, c):
    for e in (a, b, c):
        if e.shape != SCALAR:
            raise ShapeError("vec components must be scalars")
    return _mk("vec", (a, b, c), shape=VEC)


def mat(rows):
    flat = tuple(e for row in rows for e in row)
    if len(flat) != 9:
        raise ShapeError("mat requires 3x3 scalar entries")
    for e in flat:
        if e.shape != SCALAR:
            raise ShapeError("mat entries must be scalars")
    return _mk("mat", flat, shape=MAT)


def comp(e, i, j=None):
    if e.shape == SCALAR:
        raise ShapeError("component-select on a scalar")
    if e.shape == VEC:
        if j is not None:
            raise ShapeError("vector component takes one index")
        if e.kind == "vec":
            return e.args[i]
        return _mk("comp", (e,), data=(i, None))
    if j is None:
        raise ShapeError("matrix component takes two indices")
    if e.kind == "mat":
        return e.args[3 * i + j]
    if e.kind == "transpose":
        return comp(e.args[0], j, i)
    return _mk("comp", (e,), data=(i, j))


_FUNCS_1 = ("sin", "cos", "exp", "log", "sqrt", "abs", "sign")
_FUNC_EVAL = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
    "sqrt": math.sqrt, "abs": abs,
    "sign": lambda v: float(np.sign(v)),
}


def func(name, *args):
    if name == "power":
        if len(args) != 2:
            raise ShapeError("power takes two arguments")
    elif name in _FUNCS_1:
        if len(args) != 1:
            raise ShapeError("%s takes one argument" % name)
    else:
        raise ShapeError("unknown function %r" % name)
    for a in args:
        if a.shape != SCALAR:
            raise ShapeError("%s arguments must be scalar" % name)
    if all(_is_const(a) for a in args):
        try:
            if name == "power":
                return const(args[0].data ** args[1].data)
            return const(_FUNC_EVAL[name](args[0].data))
        except (ValueError, ZeroDivisionError, OverflowError):
            pass  # keep symbolic; evaluation will report the domain error
    if name == "power" and _is_const(args[1], 1.0):
        return args[0]
    return _mk("func", args, data=name)


def grad(e):
    if e.shape == SCALAR:
        return _mk("grad", (e,), shape=VEC)
    if e.shape == VEC:
        return _mk("grad", (e,), shape=MAT)
    raise ShapeError("grad of a matrix field is not supported")


def div(e):
    if e.shape == VEC:
        return _mk("div", (e,), shape=SCALAR)
    if e.shape == MAT:
        return _mk("div", (e,), shape=VEC)
    raise ShapeError("div requires a vector or matrix field")


def lap(e):
    return _mk("lap", (e,), shape=e.shape)


def dt(e):
    return _mk("dt", (e,), shape=e.shape)


def vector_const(v):
    v = np.asarray(v, dtype=float)
    return vec(const(v[0]), const(v[1]), const(v[2]))


def matrix_const(m):
    m = np.asarray(m, dtype=float)
    return mat([[const(m[i, j]) for j in range(3)] for i in range(3)])


def x_vector():
    """The position vector x as an expression."""
    return vec(coord(0), coord(1), coord(2))


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

_DERIV_KINDS = ("grad", "div", "lap", "dt")

_cd_memo = {}


def contains_derivatives(e):
    got = _cd_memo.get(id(e))
    if got is None:
        got = e.kind in _DERIV_KINDS or any(
            contains_derivatives(a) for a in e.args)
        _cd_memo[id(e)] = got
    return got


def free_symbols(e):
    acc = {}
    seen = set()

    def walk(n):
        if id(n) in seen:
            return
        seen.add(id(n))
        if n.kind == "sym":
            acc[n.data[0]] = n
        for a in n.args:
            walk(a)

    walk(e)
    return acc


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------

_diff_memo = {}


def differentiate(e, wrt):
    """d(e)/d(x^wrt) for wrt in {0,1,2}, or d(e)/dt for wrt='t'.

    Derivative operator nodes inside ``e`` are expanded on the fly, so the
    result is always a plain tree.
    """
    key = (id(e), wrt)
    out = _diff_memo.get(key)
    if out is not None:
        return out
    out = _diff(e, wrt)
    _diff_memo[key] = out
    return out


def _diff(e, wrt):
    k = e.kind
    if k == "const":
        return zero(SCALAR)
    if k == "coord":
        return const(1.0 if wrt == e.data else 0.0)
    if k == "time":
        return const(1.0 if wrt == "t" else 0.0)
    if k == "sym":
        name, field = e.data
        if field:
            raise UnboundSymbolError(
                "cannot differentiate through unbound field symbol %r; "
                "substitute it first" % name)
        return zero(e.shape)
    if k == "add":
        return add(differentiate(e.args[0], wrt), differentiate(e.args[1], wrt))
    if k == "mul":
        a, b = e.args
        return add(mul(differentiate(a, wrt), b), mul(a, differentiate(b, wrt)))
    if k == "dot":
        a, b = e.args
        return add(dot(differentiate(a, wrt), b), dot(a, differentiate(b, wrt)))
    if k == "outer":
        a, b = e.args
        return add(outer(differentiate(a, wrt), b), outer(a, differentiate(b, wrt)))
    if k == "transpose":
        return transpose(differentiate(e.args[0], wrt))
    if k == "norm":
        v = e.args[0]
        return mul(dot(v, differentiate(v, wrt)), func("power", norm(v), const(-1.0)))
    if k == "vec":
        return vec(*[differentiate(a, wrt) for a in e.args])
    if k == "mat":
        d = [differentiate(a, wrt) for a in e.args]
        return mat([d[0:3], d[3:6], d[6:9]])
    if k == "comp":
        i, j = e.data
        return comp(differentiate(e.args[0], wrt), i, j)
    if k == "func":
        return _diff_func(e, wrt)
    if k in _DERIV_KINDS:
        return differentiate(expand_derivatives(e), wrt)
    raise ExprError("unhandled node kind %r" % k)


def _diff_func(e, wrt):
    name = e.data
    if name == "power":
        f, g = e.args
        df = differentiate(f, wrt)
        dg = differentiate(g, wrt)
        if _is_const(g):
            # c * f^(c-1) * f'
            return mul(mul(g, func("power", f, const(g.data - 1.0))), df)
        # f^g * (g' log f + g f'/f)
        inner = add(mul(dg, func("log", f)),
                    mul(g, mul(df, func("power", f, const(-1.0)))))
        return mul(e, inner)
    f = e.args[0]
    df = differentiate(f, wrt)
    if name == "sin":
        return mul(func("cos", f), df)
    if name == "cos":
        return mul(neg(func("sin", f)), df)
    if name == "exp":
        return mul(e, df)
    if name == "log":
        return mul(func("power", f, const(-1.0)), df)
    if name == "sqrt":
        return mul(mul(const(0.5), func("power", f, const(-0.5))), df)
    if name == "abs":
        return mul(func("sign", f), df)
    if name == "sign":
        return zero(SCALAR)
    raise ExprError("no derivative rule for %r" % name)


_expand_memo = {}
_tape_memo = {}      # expanded root id -> compiled tape (evaluate_many)


def expand_derivatives(e):
    """Rewrite grad/div/lap/dt into plain component derivatives."""
    out = _expand_memo.get(id(e))
    if out is not None:
        return out
    out = _expand(e)
    _expand_memo[id(e)] = out
    return out


def _rebuild(e, args):
    if all(a is b for a, b in zip(args, e.args)):
        return e
    k = e.kind
    if k == "add":
        return add(*args)
    if k == "mul":
        return mul(*args)
    if k == "dot":
        return dot(*args)
    if k == "outer":
        return outer(*args)
    if k == "transpose":
        return transpose(args[0])
    if k == "norm":
        return norm(args[0])
    if k == "vec":
        return vec(*args)
    if k == "mat":
        return mat([args[0:3], args[3:6], args[6:9]])
    if k == "comp":
        return comp(args[0], *e.data)
    if k == "func":
        return func(e.data, *args)
    raise ExprError("unhandled rebuild for %r" % k)


def _expand(e):
    if not contains_derivatives(e):
        return e
    if e.kind not in _DERIV_KINDS:
        return _rebuild(e, [expand_derivatives(a) for a in e.args])
    inner = expand_derivatives(e.args[0])
    k = e.kind
    if k == "grad":
        if inner.shape == SCALAR:
            return vec(*[differentiate(inner, j) for j in range(3)])
        # (grad u)^i_j = d u^i / d x^j
        return mat([[differentiate(comp(inner, i), j) for j in range(3)]
                    for i in range(3)])
    if k == "div":
        if inner.shape == VEC:
            out = zero(SCALAR)
            for i in range(3):
                out = add(out, differentiate(comp(inner, i), i))
            return out
        rows = []
        for i in range(3):
            s = zero(SCALAR)
            for j in range(3):
                s = add(s, differentiate(comp(inner, i, j), j))
            rows.append(s)
        return vec(*rows)
    if k == "lap":
        def lap_s(s):
            out = zero(SCALAR)
            for j in range(3):
                out = add(out, differentiate(differentiate(s, j), j))
            return out
        if inner.shape == SCALAR:
            return lap_s(inner)
        if inner.shape == VEC:
            return vec(*[lap_s(comp(inner, i)) for i in range(3)])
        return mat([[lap_s(comp(inner, i, j)) for j in range(3)]
                    for i in range(3)])
    if k == "dt":
        if inner.shape == SCALAR:
            return differentiate(inner, "t")
        if inner.shape == VEC:
            return vec(*[differentiate(comp(inner, i), "t") for i in range(3)])
        return mat([[differentiate(comp(inner, i, j), "t") for j in range(3)]
                    for i in range(3)])
    raise ExprError("unhandled derivative kind %r" % k)


# ---------------------------------------------------------------------------
# substitution and composition
# ---------------------------------------------------------------------------

def substitute(e, mapping):
    """Replace named symbols by expressions (shape-checked)."""
    memo = {}

    def walk(n):
        got = memo.get(id(n))
        if got is not None:
            return got
        if n.kind == "sym" and n.data[0] in mapping:
            r = mapping[n.data[0]]
            if r.shape != n.shape:
                raise ShapeError("substituting %s expression for %s symbol %r"
                                 % (r.shape, n.shape, n.data[0]))
        else:
            r = _rebuild_any(n, [walk(a) for a in n.args])
        memo[id(n)] = r
        return r

    return walk(e)


def compose(e, x_exprs, t_expr):
    """Substitute the coordinates: x^i -> x_exprs[i], t -> t_expr.

    ``e`` must not contain derivative operator nodes (expand first), since
    those are defined with respect to the coordinates being replaced.
    """
    if contains_derivatives(e):
        raise ExprError("expand_derivatives before composing coordinates")
    memo = {}

    def walk(n):
        got = memo.get(id(n))
        if got is not None:
            return got
        if n.kind == "coord":
            r = x_exprs[n.data]
        elif n.kind == "time":
            r = t_expr
        else:
            r = _rebuild_any(n, [walk(a) for a in n.args])
        memo[id(n)] = r
        return r

    return walk(e)


def _rebuild_any(e, args):
    if not e.args:
        return e
    if e.kind in _DERIV_KINDS:
        if args[0] is e.args[0]:
            return e
        return {"grad": grad, "div": div, "lap": lap, "dt": dt}[e.kind](args[0])
    return _rebuild(e, args)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_many(e, t_arr, x_arr, bindings=None):
    """Vectorised evaluation over N points.

    Returns arrays of shape (N,), (3, N) or (3, 3, N) according to the
    expression's shape.  Derivative nodes are expanded symbolically first;
    the expanded DAG is compiled once into a tape (see ``_build_tape``)
    and each call is one pass over that tape.
    """
    e = expand_derivatives(e)
    tape = _tape_memo.get(id(e))
    if tape is None:
        tape = _tape_memo[id(e)] = _build_tape(e)
    t_arr = np.asarray(t_arr, dtype=float)
    env = (t_arr.shape[0], t_arr, np.asarray(x_arr, dtype=float),
           bindings or {})
    vals = []
    push = vals.append
    for step in tape:
        push(step(vals, env))
    return vals[-1]


def _build_tape(root):
    """Compile an expanded DAG into a tuple of steps in evaluation order.

    The order is the post-order of a left-to-right depth-first walk that
    visits each shared node once: operands before the node, the left one
    first.  Step k is a closure ``step(vals, env)`` returning the value of
    the k-th node from the values of the earlier ones; ``env`` is
    (N, t_arr, x_arr, bindings).  The walk is iterative, so deep DAGs do
    not hit the recursion limit.
    """
    slot = {}
    steps = []
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in slot:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(node.args))
            continue
        op = _OPS.get(node.kind)
        if op is None:
            raise ExprError("unexpandable node %r reached evaluator"
                            % node.kind)
        steps.append(op(node, [slot[id(a)] for a in node.args]))
        slot[id(node)] = len(steps) - 1
    return tuple(steps)


def _as_shape(val, shape, n):
    val = np.asarray(val, dtype=float)
    full = (n,) if shape == SCALAR else (3, n) if shape == VEC else (3, 3, n)
    if val.shape == full:
        return val
    if shape == VEC and val.shape == (3,):
        val = val[:, None]
    elif shape == MAT and val.shape == (3, 3):
        val = val[:, :, None]
    return np.broadcast_to(val, full)


# one op per node kind: op(node, arg_slots) -> step(vals, env)

def _op_const(node, _):
    value = node.data
    return lambda v, env: np.full(env[0], value)


def _op_coord(node, _):
    i = node.data
    return lambda v, env: env[2][i]


def _op_time(node, _):
    return lambda v, env: env[1]


def _op_sym(node, _):
    name, shape = node.data[0], node.shape

    def step(v, env):
        bindings = env[3]
        if name not in bindings:
            raise UnboundSymbolError("unbound symbol %r" % name)
        return _as_shape(bindings[name], shape, env[0])
    return step


def _op_add(node, slots):
    a, b = slots
    return lambda v, env: v[a] + v[b]


def _op_mul(node, slots):
    a, b = slots
    return lambda v, env: v[a] * v[b]


_DOT_EINSUM = {
    (VEC, VEC): "in,in->n",
    (MAT, VEC): "ijn,jn->in",
    (MAT, MAT): "ijn,jkn->ikn",
    (VEC, MAT): "in,ijn->jn",
}


def _op_dot(node, slots):
    a, b = slots
    subs = _DOT_EINSUM[(node.args[0].shape, node.args[1].shape)]
    return lambda v, env: np.einsum(subs, v[a], v[b])


def _op_outer(node, slots):
    a, b = slots
    return lambda v, env: np.einsum("in,jn->ijn", v[a], v[b])


def _op_transpose(node, slots):
    a, = slots
    return lambda v, env: v[a].swapaxes(0, 1)


def _op_norm(node, slots):
    a, = slots
    return lambda v, env: np.sqrt(np.einsum("in,in->n", v[a], v[a]))


def _op_vec(node, slots):
    a, b, c = slots
    return lambda v, env: np.stack([v[a], v[b], v[c]])


def _op_mat(node, slots):
    rows = [slots[3 * i:3 * i + 3] for i in range(3)]
    return lambda v, env: np.stack([np.stack([v[k] for k in row])
                                    for row in rows])


def _op_comp(node, slots):
    a, = slots
    i, j = node.data
    if j is None:
        return lambda v, env: v[a][i]
    return lambda v, env: v[a][i, j]


def _op_func(node, slots):
    name = node.data
    if name == "power":
        a, b = slots

        def power(v, env):
            base, expo = v[a], v[b]
            if np.any((np.abs(base) < _SINGULARITY_EPS) & (expo < 0)):
                raise EvalError("power: reciprocal of a near-zero base "
                                "(singularity guard %.0e)" % _SINGULARITY_EPS)
            with np.errstate(invalid="raise", divide="raise"):
                try:
                    return np.power(base, expo)
                except FloatingPointError:
                    raise EvalError("power: domain error") from None
        return power
    a, = slots
    if name == "log":
        def log(v, env):
            if np.any(v[a] <= 0):
                raise EvalError("log of a non-positive value")
            return np.log(v[a])
        return log
    if name == "sqrt":
        def sqrt(v, env):
            if np.any(v[a] < 0):
                raise EvalError("sqrt of a negative value")
            return np.sqrt(v[a])
        return sqrt
    fn = getattr(np, name)   # sin, cos, exp, abs, sign
    return lambda v, env: fn(v[a])


_OPS = {
    "const": _op_const, "coord": _op_coord, "time": _op_time,
    "sym": _op_sym, "add": _op_add, "mul": _op_mul, "dot": _op_dot,
    "outer": _op_outer, "transpose": _op_transpose, "norm": _op_norm,
    "vec": _op_vec, "mat": _op_mat, "comp": _op_comp, "func": _op_func,
}


# ---------------------------------------------------------------------------
# DSL parser / printer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[()+\-*/^,])
  | (?P<ws>\s+)
""", re.VERBOSE)

_CALLABLES = ("sin", "cos", "exp", "log", "sqrt", "abs", "sign", "power",
              "vec", "mat", "dot", "outer", "transpose", "norm", "grad",
              "div", "lap", "dt", "comp")


def _tokenize(text):
    pos = 0
    out = []
    line, col = 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), line, col))
        chunk = m.group()
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n") - 1
        else:
            col += len(chunk)
        pos = m.end()
    out.append(("eof", "", line, col))
    return out


class _Parser:
    def __init__(self, tokens, symbols):
        self.toks = tokens
        self.i = 0
        self.symbols = symbols

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        tk = self.toks[self.i]
        if kind and tk[0] != kind or value is not None and tk[1] != value:
            raise ParseError("expected %s, got %r" % (value or kind, tk[1]),
                             tk[2], tk[3])
        self.i += 1
        return tk

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            rhs = self.unary()
            try:
                node = mul(node, rhs) if op == "*" else div_by(node, rhs)
            except ShapeError as exc:
                tk = self.peek()
                raise ParseError(str(exc), tk[2], tk[3]) from None
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.take()
            return neg(self.unary())
        return self.power()

    def power(self):
        base = self.primary()
        if self.peek()[1] == "^":
            self.take()
            return func("power", base, self.unary())
        return base

    def primary(self):
        tk = self.peek()
        if tk[0] == "num":
            self.take()
            return const(float(tk[1]))
        if tk[1] == "(":
            self.take()
            node = self.expr()
            self.take(value=")")
            return node
        if tk[0] == "ident":
            return self.ident()
        raise ParseError("unexpected token %r" % tk[1], tk[2], tk[3])

    def ident(self):
        tk = self.take("ident")
        name = tk[1]
        if self.peek()[1] == "(" and name in _CALLABLES:
            return self.call(name, tk)
        if name == "x":
            return x_vector()
        if name == "t":
            return time()
        if name in self.symbols:
            spec = self.symbols[name]
            if isinstance(spec, tuple):
                shape, field = spec
            else:
                shape, field = spec, False
            return sym(name, shape, field)
        if name == "u":
            return sym("u", VEC, field=True)
        if name == "p":
            return sym("p", SCALAR, field=True)
        return sym(name)

    def call(self, name, tk):
        self.take(value="(")
        args = [self.expr()]
        while self.peek()[1] == ",":
            self.take()
            if name == "comp" and self.peek()[0] == "num":
                args.append(self.take()[1])
                continue
            args.append(self.expr())
        self.take(value=")")
        try:
            return self._build(name, args)
        except ShapeError as exc:
            raise ParseError(str(exc), tk[2], tk[3]) from None

    def _build(self, name, args):
        if name in _FUNCS_1 or name == "power":
            return func(name, *args)
        if name == "vec":
            return vec(*args)
        if name == "mat":
            if len(args) != 9:
                raise ShapeError("mat takes 9 entries (row-major)")
            return mat([args[0:3], args[3:6], args[6:9]])
        if name == "comp":
            e = args[0]
            if not all(isinstance(a, str) for a in args[1:]):
                raise ShapeError("comp indices must be integer literals")
            idx = [int(a) - 1 for a in args[1:]]  # DSL indices are 1-based
            if not idx or len(idx) > 2 or any(i not in (0, 1, 2) for i in idx):
                raise ShapeError("comp indices must be 1..3")
            return comp(e, *idx)
        fn = {"dot": dot, "outer": outer, "transpose": transpose,
              "norm": norm, "grad": grad, "div": div, "lap": lap, "dt": dt}[name]
        return fn(*args)


def parse_field_expr(text, symbols=None):
    """Parse the field DSL.

    ``symbols`` optionally declares extra identifiers as name -> shape or
    name -> (shape, is_field).  The identifiers x, t, u, p are reserved.
    """
    parser = _Parser(_tokenize(text), symbols or {})
    node = parser.expr()
    parser.take("eof")
    return node


_PREC = {"add": 1, "mul": 2, "unary": 3}


def to_dsl(e):
    """Pretty-print to DSL text; parse(to_dsl(e)) rebuilds the same tree."""
    return _print(e, 0)


def _print(e, prec):
    k = e.kind
    if k == "const":
        v = e.data
        s = repr(v)
        if v < 0 and prec >= _PREC["mul"]:
            return "(%s)" % s
        return s
    if k == "coord":
        return "comp(x, %d)" % (e.data + 1)
    if k == "time":
        return "t"
    if k == "sym":
        return e.data[0]
    if k == "vec":
        if e is x_vector():
            return "x"
        return "vec(%s, %s, %s)" % tuple(_print(a, 0) for a in e.args)
    if k == "mat":
        return "mat(%s)" % ", ".join(_print(a, 0) for a in e.args)
    if k == "add":
        a, b = e.args
        if b.kind == "mul" and _is_const(b.args[0], -1.0):
            s = "%s - %s" % (_print(a, _PREC["add"]),
                             _print(b.args[1], _PREC["mul"]))
        else:
            # right operand gets higher precedence so that the left-
            # associative parse rebuilds this exact tree
            s = "%s + %s" % (_print(a, _PREC["add"]),
                             _print(b, _PREC["add"] + 1))
        return "(%s)" % s if prec > _PREC["add"] else s
    if k == "mul":
        a, b = e.args
        if _is_const(a, -1.0):
            s = "-%s" % _print(b, _PREC["unary"])
            return "(%s)" % s if prec > _PREC["add"] else s
        s = "%s * %s" % (_print(a, _PREC["mul"]), _print(b, _PREC["mul"] + 1))
        return "(%s)" % s if prec > _PREC["mul"] else s
    if k == "comp":
        i, j = e.data
        idx = "%d" % (i + 1) if j is None else "%d, %d" % (i + 1, j + 1)
        return "comp(%s, %s)" % (_print(e.args[0], 0), idx)
    if k == "func":
        return "%s(%s)" % (e.data, ", ".join(_print(a, 0) for a in e.args))
    if k in ("dot", "outer"):
        return "%s(%s, %s)" % (k, _print(e.args[0], 0), _print(e.args[1], 0))
    if k in ("transpose", "norm", "grad", "div", "lap", "dt"):
        return "%s(%s)" % (k, _print(e.args[0], 0))
    raise ExprError("unprintable node %r" % k)
