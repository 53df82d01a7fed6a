"""Expression trees for tensor-valued fields over 3D space and time.

A :class:`Node` denotes a scalar, 3-vector or 3x3-matrix field of (x, t).
Trees are immutable and hash-consed: building the same expression twice,
while the first is alive, yields the *same* object, so structural
equality is identity.  Two flags are set when a node is built, from its
operands' flags: ``has_deriv`` (a derivative operator somewhere in the
tree) and ``is_zero`` (a constant zero, or a vector or matrix of them).
What is derived from a node later (its derivatives, expansion, tape and
float kernel) is kept in the node's own ``derived`` dict, made with the
first such value (``None`` until then), so it lives exactly as long as
the node.  The intern table maps each node's key to a weak reference to
it: a node that nothing else holds is freed with everything derived from
it, and its entry goes with it.

Derivative operators (grad/div/lap/dt) are kept as first-class nodes and
expanded symbolically before evaluation; no finite differences are ever
used outside the test oracles.

``evaluate_many`` runs a tape: a flat tuple of instructions, one per node
of the expanded DAG.  Each is a module-level step function, shared by
every tape, with its operands: the slots of earlier values, or the node's
own data.  No closure is made per node.

Both evaluators, ``evaluate_many`` and ``float_kernel``, sum the three
products of ``dot`` and ``norm`` left to right, so a value has the same
bits on either path and at any number of points.
"""

import ast
import bisect
import functools
import math
import operator
import sys
import threading
import warnings
import weakref
from _weakref import _remove_dead_weakref

import numpy as np

# symbolic expansion of nested derivatives recurses deeply on large trees
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

__all__ = [
    "SCALAR", "VEC", "MAT",
    "Node",
    "ExprError", "ShapeError", "ParseError", "UnboundSymbolError", "EvalError",
    "const", "coord", "time", "sym", "add", "sub", "neg", "mul", "div_by",
    "dot", "outer", "transpose", "norm", "vec", "mat", "comp", "func",
    "grad", "div", "lap", "dt", "zero", "bundle",
    "vector_const", "matrix_const", "x_vector",
    "differentiate", "expand_derivatives", "substitute", "compose",
    "evaluate_many", "float_kernel", "parse_field_expr",
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
    __slots__ = ("kind", "args", "data", "shape", "derived", "has_deriv",
                 "is_zero", "__weakref__")

    def __setattr__(self, *_):
        raise AttributeError("Node is immutable")

    def __repr__(self):
        return "<Node %s %s>" % (self.kind, self.shape)

    # Identity *is* structural equality thanks to interning; keep the
    # default __eq__/__hash__ from object.


class _Ref(weakref.ref):
    """An intern table's weak reference to a node, carrying the table and
    the node's key in it."""
    __slots__ = ("table", "key")


def _forget(ref):
    # a dead node's entry goes from the table it was added to, and only
    # while its key maps to a dead reference: a node built since under
    # the same key keeps its entry
    _remove_dead_weakref(ref.table, ref.key)


_intern = {}
_intern_lock = threading.Lock()
_DERIV_KINDS = ("grad", "div", "lap", "dt")
_new_node = object.__new__
# the slots' own setters, which write past ``Node.__setattr__``
_set_kind = Node.kind.__set__
_set_args = Node.args.__set__
_set_data = Node.data.__set__
_set_shape = Node.shape.__set__
_set_derived = Node.derived.__set__
_set_has_deriv = Node.has_deriv.__set__
_set_is_zero = Node.is_zero.__set__
_deriv_flag = operator.attrgetter("has_deriv")
_zero_flag = operator.attrgetter("is_zero")


def _mk(kind, args=(), data=None, shape=SCALAR):
    # a constant is keyed by its bits: -0.0 == 0.0, so keyed by value the
    # first zero built would stand for both.  An operand is keyed by its
    # id, valid while the node that holds it lives: a key holding it
    # would keep it alive
    key = (kind, data.hex() if kind == "const" else data, shape,
           *map(id, args))
    ref = _intern.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    with _intern_lock:
        table = _intern
        ref = table.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = _new_node(Node)
            _set_kind(node, kind)
            _set_args(node, args)
            _set_data(node, data)
            _set_shape(node, shape)
            _set_derived(node, None)
            _set_has_deriv(node, kind in _DERIV_KINDS
                           or any(map(_deriv_flag, args)))
            _set_is_zero(node, data == 0.0 if kind == "const" else
                         kind in ("vec", "mat") and all(map(_zero_flag, args)))
            ref = _Ref(node, _forget)
            ref.table = table
            ref.key = key
            table[key] = ref
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


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError("cannot add %s and %s" % (a.shape, b.shape))
    if _is_const(a) and _is_const(b):
        # before the zero skip, so that 0.0 + -0.0 is 0.0
        return const(a.data + b.data)
    if a.is_zero:
        return b
    if b.is_zero:
        return a
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
    if _is_const(a) and _is_const(b):
        # before the zero skip, so that -1 * 0.0 is -0.0
        return const(a.data * b.data)
    if a.is_zero or b.is_zero:
        return zero(b.shape)
    if _is_const(a, 1.0):
        return b
    if _is_const(a) and b.kind == "mul" and _is_const(b.args[0]):
        return mul(const(a.data * b.args[0].data), b.args[1])
    return _mk("mul", (a, b), shape=b.shape)


def div_by(a, b):
    return mul(a, func("power", b, const(-1.0)))


# dot's shape by operand shapes, and the left operand's three slices along
# the contracted index, which ``evaluate_many`` multiplies by the right
# operand's rows in turn
_DOT = {
    (VEC, VEC): (SCALAR, (0, 1, 2)),
    (MAT, VEC): (VEC, tuple((slice(None), j) for j in range(3))),
    (MAT, MAT): (MAT, tuple((slice(None), j, None) for j in range(3))),
    (VEC, MAT): (VEC, (0, 1, 2)),
}


def _dot_terms(shapes, a, b):
    """Per entry of a dot of operands with ``shapes``, row-major, the
    three (left, right) factor pairs it sums left to right; ``a`` and
    ``b`` are the operands' flat entries."""
    rows = [a] if shapes[0] == VEC else [a[0:3], a[3:6], a[6:9]]
    cols = [b] if shapes[1] == VEC else [b[0::3], b[1::3], b[2::3]]
    return [list(zip(row, col)) for row in rows for col in cols]


def dot(a, b):
    if (a.shape, b.shape) not in _DOT:
        raise ShapeError("dot undefined for (%s, %s)" % (a.shape, b.shape))
    out = _DOT[(a.shape, b.shape)][0]
    if a.is_zero or b.is_zero:
        return zero(out)
    if all(e.kind in ("vec", "mat") and all(map(_is_const, e.args))
           for e in (a, b)):
        # folded in plain floats, in the evaluator's order: add and mul
        # skip zeros, which can change the sign of a zero
        sums = [const(x0 * y0 + x1 * y1 + x2 * y2)
                for (x0, y0), (x1, y1), (x2, y2) in _dot_terms(
                    (a.shape, b.shape), [e.data for e in a.args],
                    [e.data for e in b.args])]
        if out == MAT:
            return mat([sums[0:3], sums[3:6], sums[6:9]])
        return vec(*sums) if out == VEC else sums[0]
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
    "sqrt": math.sqrt, "abs": abs, "power": math.pow,
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
    # a near-zero base under a negative exponent is not folded, so that
    # evaluation reports it, as it does for a bound base
    if all(_is_const(a) for a in args) and not (
            name == "power" and abs(args[0].data) < _SINGULARITY_EPS
            and args[1].data < 0):
        try:
            # math.pow refuses a complex result, where ** would give one
            return const(_FUNC_EVAL[name](*(a.data for a in args)))
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


def bundle(*roots):
    """The tuple of the values of ``roots``, as one node.

    ``evaluate_many`` of a bundle runs one tape over the union of the
    roots' DAGs, so a node that several roots share is computed once, and
    returns the tuple of the roots' values in order.
    """
    return _mk("bundle", roots, shape="bundle")


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
# derived values
# ---------------------------------------------------------------------------

def _derived(e, key, build):
    """``build(e)``, built once and kept in ``e.derived`` under ``key``.

    The one writer of ``derived``: a node gets the dict with the first
    value stored in it, and reads as ``None`` until then.
    """
    derived = e.derived
    got = None if derived is None else derived.get(key)
    if got is None:
        got = build(e)
        # re-read: ``build`` may have stored other values of ``e``
        derived = e.derived
        if derived is None:
            derived = {}
            _set_derived(e, derived)
        derived[key] = got
    return got


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------

def differentiate(e, wrt):
    """d(e)/d(x^wrt) for wrt in {0,1,2}, or d(e)/dt for wrt='t'.

    Derivative operator nodes inside ``e`` are expanded on the fly, so the
    result is always a plain tree.
    """
    return _derived(e, ("d", wrt), lambda n: _diff(n, wrt))


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


def expand_derivatives(e):
    """Rewrite grad/div/lap/dt into plain component derivatives."""
    if not e.has_deriv:
        return e        # not kept: a node that held itself would wait for gc
    return _derived(e, "expanded", _expand)


def _rebuild(e, args):
    """A node of ``e``'s kind over ``args``: ``e`` itself when they are
    its own operands (a leaf always), else through the constructor."""
    if all(a is b for a, b in zip(args, e.args)):
        return e
    k = e.kind
    if k == "mat":
        return mat([args[0:3], args[3:6], args[6:9]])
    if k == "comp":
        return comp(args[0], *e.data)
    if k == "func":
        return func(e.data, *args)
    if k not in _REBUILD:
        raise ExprError("unhandled rebuild for %r" % k)
    return _REBUILD[k](*args)


_REBUILD = {"add": add, "mul": mul, "dot": dot, "outer": outer,
            "transpose": transpose, "norm": norm, "vec": vec,
            "bundle": bundle, "grad": grad, "div": div, "lap": lap, "dt": dt}


def _expand(e):
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

def _rewrite(e, leaf):
    """``e`` rebuilt bottom-up, each node that ``leaf`` maps to a node
    replaced by it; a node shared in the DAG is visited once."""
    memo = {}

    def walk(n):
        got = memo.get(id(n))
        if got is None:
            got = leaf(n)
            if got is None:
                got = _rebuild(n, [walk(a) for a in n.args])
            memo[id(n)] = got
        return got

    return walk(e)


def substitute(e, mapping):
    """Replace named symbols by expressions (shape-checked)."""
    def leaf(n):
        if n.kind == "sym" and n.data[0] in mapping:
            r = mapping[n.data[0]]
            if r.shape != n.shape:
                raise ShapeError("substituting %s expression for %s symbol %r"
                                 % (r.shape, n.shape, n.data[0]))
            return r
        return None

    return _rewrite(e, leaf)


def compose(e, x_exprs, t_expr):
    """Substitute the coordinates: x^i -> x_exprs[i], t -> t_expr.

    ``e`` must not contain derivative operator nodes (expand first), since
    those are defined with respect to the coordinates being replaced.
    """
    if e.has_deriv:
        raise ExprError("expand_derivatives before composing coordinates")

    def leaf(n):
        if n.kind == "coord":
            return x_exprs[n.data]
        return t_expr if n.kind == "time" else None

    return _rewrite(e, leaf)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_many(e, t_arr, x_arr, bindings=None):
    """Vectorised evaluation over N points.

    Returns arrays of shape (N,), (3, N) or (3, 3, N) according to the
    expression's shape, or for a ``bundle`` the tuple of its roots'
    arrays.  Derivative nodes are expanded symbolically first; the
    expanded DAG is compiled once into a tape (see ``_build_tape``), kept
    while that DAG lives.  Each call is one pass over that tape, each
    shared node computed once: every instruction calls its shared step
    function on its operands, then drops the values that no later step
    reads.
    """
    tape = _derived(expand_derivatives(e), "tape", _build_tape)
    t_arr = np.asarray(t_arr, dtype=float)
    env = (t_arr.shape[0], t_arr, np.asarray(x_arr, dtype=float),
           bindings or {})
    vals = []
    push = vals.append
    for fn, a, b, dead in tape:
        push(fn(vals, env, a, b))
        for k in dead:
            vals[k] = None
    return vals[-1]


def _reads(node):
    """A node's operands, less the unread exponent of ``power(b, -1)``."""
    if node.data == "power" and _is_const(node.args[1], -1.0):
        return node.args[:1]
    return node.args


def _post_order(root):
    """The nodes of a DAG in evaluation order, each shared node once.

    The order is the post-order of a left-to-right depth-first walk over
    the operands each node ``_reads``: operands before the node, the left
    one first.  The walk is iterative, so deep DAGs do not hit the
    recursion limit.
    """
    seen = set()
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in seen:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(_reads(node)))
            continue
        seen.add(id(node))
        yield node


def _build_tape(root):
    """Compile an expanded DAG into a tuple of (fn, a, b, dead)
    instructions in ``_post_order``.

    Instruction k computes the value of the k-th node as
    ``fn(vals, env, a, b)`` from the values of the earlier ones; ``env``
    is (N, t_arr, x_arr, bindings).  ``fn`` is a module-level step
    function, shared by every tape, and ``a`` and ``b`` are its operands
    (see ``_instruction``).  ``dead`` names the slots whose last use is
    step k: the evaluator drops their values once it has run, so a call
    holds only the values that later steps still read.
    """
    slot, last_use, steps = {}, {}, []
    for k, node in enumerate(_post_order(root)):
        args = [slot[id(a)] for a in _reads(node)]
        steps.append(_instruction(node, args))
        for a in args:
            last_use[a] = k
        slot[id(node)] = k
    dead = [[] for _ in steps]
    for a, k in last_use.items():
        dead[k].append(a)
    return tuple((*step, tuple(d)) for step, d in zip(steps, dead))


def _instruction(node, slots):
    """The (fn, a, b) of the step that computes ``node`` from the values
    in ``slots``.

    ``fn`` is the ``_STEPS`` entry of the node's kind, or of its
    function's name (``reciprocal`` for a power whose exponent is not
    read).  ``a`` and ``b`` are the operand slots, or the static data of
    the node: a constant's value, a coordinate's index, a symbol's name
    and shape, the slot pair and index triple of a dot, a component's
    index, the slots of a vec, mat or bundle, a unary function's ufunc
    and domain guard (``_UNARY``).
    """
    kind = node.kind
    if kind == "func":
        kind = "reciprocal" if len(slots) < len(node.args) else node.data
    fn = _STEPS.get(kind)
    if fn is None:
        raise ExprError("unexpandable node %r reached evaluator"
                        % node.kind)
    if kind in ("const", "coord"):
        return fn, node.data, None
    if kind == "sym":
        return fn, node.data[0], node.shape
    if kind == "dot":
        return (fn, tuple(slots),
                _DOT[(node.args[0].shape, node.args[1].shape)][1])
    if kind == "comp":
        i, j = node.data
        return fn, slots[0], i if j is None else (i, j)
    if kind in ("vec", "mat", "bundle"):
        return fn, tuple(slots), None
    if kind in _UNARY:
        return fn, slots[0], _UNARY[kind]
    # the rest read the slots of their operands: none, one or two
    return (fn, *slots, None, None)[:3]


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


# the step functions: step(vals, env, a, b) -> the node's value

def _step_const(v, env, value, _):
    return np.full(env[0], value)


def _step_coord(v, env, i, _):
    return env[2][i]


def _step_time(v, env, _a, _b):
    return env[1]


def _step_sym(v, env, name, shape):
    bindings = env[3]
    if name not in bindings:
        raise UnboundSymbolError("unbound symbol %r" % name)
    return _as_shape(bindings[name], shape, env[0])


def _step_add(v, env, a, b):
    return v[a] + v[b]


def _step_mul(v, env, a, b):
    return v[a] * v[b]


def _step_dot(v, env, ab, ijk):
    # in place: at large N temporaries cost more than the arithmetic
    x, y = v[ab[0]], v[ab[1]]
    i, j, k = ijk
    out = x[i] * y[0]
    out += x[j] * y[1]
    out += x[k] * y[2]
    return out


def _step_outer(v, env, a, b):
    return v[a][:, None] * v[b][None, :]


def _step_transpose(v, env, a, _):
    return v[a].swapaxes(0, 1)


def _step_norm(v, env, a, _):
    w = v[a]
    return np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])


# np.array of the (N,) entries: the values of np.stack at a third of
# its per-call cost

def _step_vec(v, env, abc, _):
    a, b, c = abc
    return np.array([v[a], v[b], v[c]])


def _step_mat(v, env, slots, _):
    return np.array([v[k] for k in slots]).reshape(3, 3, env[0])


def _step_bundle(v, env, slots, _):
    return tuple(v[k] for k in slots)


def _step_comp(v, env, a, index):
    return v[a][index]


_POWER_SINGULAR = ("power: reciprocal of a near-zero base (singularity "
                   "guard %.0e)" % _SINGULARITY_EPS)
_POWER_DOMAIN = "power: domain error"
_LOG_DOMAIN = "log of a non-positive value"
_SQRT_DOMAIN = "sqrt of a negative value"


def _step_reciprocal(v, env, a, _):
    # numpy's pow loop rounds b**-1 away from the correctly rounded 1 / b
    # on a few percent of bases
    base = v[a]
    if np.any(np.abs(base) < _SINGULARITY_EPS):
        raise EvalError(_POWER_SINGULAR)
    return 1.0 / base


def _step_power(v, env, a, b):
    base, expo = v[a], v[b]
    if np.any((np.abs(base) < _SINGULARITY_EPS) & (expo < 0)):
        raise EvalError(_POWER_SINGULAR)
    with np.errstate(invalid="raise", divide="raise"):
        try:
            return np.power(base, expo)
        except FloatingPointError:
            raise EvalError(_POWER_DOMAIN) from None


# each unary function's ufunc and its domain guard: the comparison with
# zero that flags a value outside the domain, and the error's message
_UNARY = {
    **{name: (getattr(np, name), None, None)
       for name in ("sin", "cos", "exp", "abs", "sign")},
    "log": (np.log, np.less_equal, _LOG_DOMAIN),
    "sqrt": (np.sqrt, np.less, _SQRT_DOMAIN),
}


def _step_unary(v, env, a, b):
    fn, outside, message = b
    x = v[a]
    if outside is not None and np.any(outside(x, 0.0)):
        raise EvalError(message)
    return fn(x)


_STEPS = {
    "const": _step_const, "coord": _step_coord, "time": _step_time,
    "sym": _step_sym, "add": _step_add, "mul": _step_mul,
    "dot": _step_dot, "outer": _step_outer, "transpose": _step_transpose,
    "norm": _step_norm, "vec": _step_vec, "mat": _step_mat,
    "comp": _step_comp, "bundle": _step_bundle,
    "reciprocal": _step_reciprocal, "power": _step_power,
    **dict.fromkeys(_UNARY, _step_unary),
}


# ---------------------------------------------------------------------------
# float kernels: one point, straight-line Python
# ---------------------------------------------------------------------------

def float_kernel(e):
    """``e`` compiled to a Python function of one point, over floats.

    ``kernel(t, x, bindings)`` takes the time as a float, the coordinates
    as three floats, and each bound symbol as a float, three floats or
    three rows of three floats.  It returns a float, a 3-tuple or a
    3-tuple of rows.  Its value equals ``evaluate_many`` at that one point
    bit for bit, and it raises ``EvalError`` and ``UnboundSymbolError``
    where the evaluator does.

    Sums, products, ``sqrt``, ``abs`` and ``sign`` are Python float
    operations, which IEEE 754 rounds exactly as numpy's loops do.
    ``dot`` and ``norm`` sum their three products left to right, one
    component at a time, as ``evaluate_many`` does.  A constant exponent
    of -1 is the correctly rounded ``1.0 / b`` here and in
    ``evaluate_many``.  Other powers, ``exp``, ``log``, ``sin`` and
    ``cos`` call numpy's array loop on one element: ``math`` and numpy's
    scalar path round some of them differently.  A ``power`` whose
    exponent is not a constant is refused when the kernel is built:
    numpy rounds such a power in two ways.  The source is compiled on
    first use and kept while the expanded root lives.
    """
    return _derived(expand_derivatives(e), "kernel", _emit_kernel)


def _emit_kernel(root):
    """Write the straight-line source of ``float_kernel`` and compile it.

    Nodes are emitted in ``_post_order``, the order of the tape, so the
    guards raise at the same node as the evaluator's.  A value is the
    source text of its scalar, or a tuple of 3 (vec3) or 9 (mat3, row by
    row) such texts; ``comp``, ``vec``, ``mat`` and ``transpose`` only
    regroup texts and emit no line.
    """
    names = {}
    lines = []
    env = {"EvalError": EvalError, "UnboundSymbolError": UnboundSymbolError,
           "_array": np.array, "_power": np.power, "_sqrt": math.sqrt,
           "_ninf": -math.inf, "_POWER_SINGULAR": _POWER_SINGULAR,
           "_POWER_DOMAIN": _POWER_DOMAIN, "_LOG_DOMAIN": _LOG_DOMAIN,
           "_SQRT_DOMAIN": _SQRT_DOMAIN}
    for k, node in enumerate(_post_order(root)):
        emit = _EMIT.get(node.kind)
        if emit is None:
            raise ExprError("float kernel: unsupported node %r" % node.kind)
        names[id(node)] = emit(node, [names[id(a)] for a in _reads(node)],
                               "v%d" % k, lines, env)
    out = _tuple_text(root.shape, names[id(root)])
    source = "\n".join(
        ["def kernel(t, x, b):", "    try:"]
        + ["        " + line for line in lines]
        + ["        return %s" % out,
           "    except KeyError as exc:",
           "        raise UnboundSymbolError('unbound symbol %r'"
           " % exc.args[0]) from None"])
    exec(compile(source, "<float kernel>", "exec"), env)
    return env["kernel"]


def _parts(shape, name):
    """Fresh component names for a value of ``shape``."""
    if shape == SCALAR:
        return name
    if shape == VEC:
        return tuple("%s_%d" % (name, i) for i in range(3))
    return tuple("%s_%d%d" % (name, i, j) for i in range(3)
                 for j in range(3))


def _tuple_text(shape, parts):
    """Source of a value as a float, a 3-tuple or three row 3-tuples."""
    if shape == MAT:
        return "(%s), (%s), (%s)" % tuple(", ".join(parts[i:i + 3])
                                           for i in (0, 3, 6))
    return parts if shape == SCALAR else ", ".join(parts)


def _assign(lines, target, exprs):
    """One line per component: ``target`` and ``exprs`` match in shape."""
    if isinstance(target, str):
        lines.append("%s = %s" % (target, exprs))
    else:
        lines.extend("%s = %s" % te for te in zip(target, exprs))
    return target


def _emit_const(node, args, name, lines, env):
    value = node.data
    if math.isfinite(value):
        return repr(value)
    env["_c" + name] = value
    return "_c" + name


def _emit_coord(node, args, name, lines, env):
    return _assign(lines, name, "x[%d]" % node.data)


def _emit_time(node, args, name, lines, env):
    return "t"


def _emit_sym(node, args, name, lines, env):
    target = _parts(node.shape, name)
    lines.append("%s = b[%r]" % (_tuple_text(node.shape, target),
                                 node.data[0]))
    return target


def _emit_add(node, args, name, lines, env):
    a, b = args
    if node.shape == SCALAR:
        return _assign(lines, name, "%s + %s" % (a, b))
    return _assign(lines, _parts(node.shape, name),
                   ["%s + %s" % ab for ab in zip(a, b)])


def _emit_mul(node, args, name, lines, env):
    a, b = args
    if node.shape == SCALAR:
        return _assign(lines, name, "%s * %s" % (a, b))
    return _assign(lines, _parts(node.shape, name),
                   ["%s * %s" % (a, bi) for bi in b])


def _emit_dot(node, args, name, lines, env):
    sums = [" + ".join("%s * %s" % pair for pair in terms)
            for terms in _dot_terms([e.shape for e in node.args], *args)]
    return _assign(lines, _parts(node.shape, name),
                   sums[0] if node.shape == SCALAR else sums)


def _emit_norm(node, args, name, lines, env):
    squares = " + ".join("%s * %s" % (c, c) for c in args[0])
    return _assign(lines, name, "_sqrt(%s)" % squares)


def _emit_outer(node, args, name, lines, env):
    a, b = args
    return _assign(lines, _parts(MAT, name),
                   ["%s * %s" % (ai, bj) for ai in a for bj in b])


def _emit_transpose(node, args, name, lines, env):
    m, = args
    return tuple(m[k] for k in (0, 3, 6, 1, 4, 7, 2, 5, 8))


def _emit_vec(node, args, name, lines, env):
    return tuple(args)


_emit_mat = _emit_vec


def _emit_comp(node, args, name, lines, env):
    i, j = node.data
    return args[0][i if j is None else 3 * i + j]


def _emit_func(node, args, name, lines, env):
    fn = node.data
    a = args[0]
    if fn == "power":
        return _emit_power(node, a, name, lines, env)
    if fn == "sqrt":
        lines.append("if %s < 0.0: raise EvalError(_SQRT_DOMAIN)" % a)
        return _assign(lines, name, "_sqrt(%s)" % a)
    if fn == "abs":
        return _assign(lines, name, "abs(%s)" % a)
    if fn == "sign":
        # np.sign: +-1, +0.0 for either zero (-0.0 + 0.0 is +0.0), NaN kept
        return _assign(lines, name, "1.0 if %s > 0.0 else -1.0 if %s < 0.0 "
                       "else %s + 0.0" % (a, a, a))
    if fn == "log":
        lines.append("if %s <= 0.0: raise EvalError(_LOG_DOMAIN)" % a)
    env["_" + fn] = getattr(np, fn)        # log, exp, sin, cos
    return _assign(lines, name, "_%s(_array((%s,))).item()" % (fn, a))


def _emit_power(node, base, name, lines, env):
    if node.args[1].kind != "const":
        # the evaluator itself rounds such a power two ways: numpy takes a
        # fast path for an exponent bound as one scalar equal to -1, 0.5
        # or 2, and its array loop for any other exponent
        raise ExprError("float kernel: power needs a constant exponent")
    expo = node.args[1].data
    if expo < 0:
        lines.append("if abs(%s) < %r: raise EvalError(_POWER_SINGULAR)"
                     % (base, _SINGULARITY_EPS))
    if expo == -1.0:
        return _assign(lines, name, "1.0 / %s" % base)
    if math.isfinite(expo) and not expo.is_integer():
        # numpy's pow flags "invalid" for a finite negative base under a
        # finite non-integer exponent, and for nothing else that passed
        # the singularity guard
        lines.append("if _ninf < %s < 0.0: raise EvalError(_POWER_DOMAIN)"
                     % base)
    env["_e" + name] = np.array((expo,))
    return _assign(lines, name, "_power(_array((%s,)), _e%s).item()"
                   % (base, name))


_EMIT = {
    "const": _emit_const, "coord": _emit_coord, "time": _emit_time,
    "sym": _emit_sym, "add": _emit_add, "mul": _emit_mul, "dot": _emit_dot,
    "outer": _emit_outer, "transpose": _emit_transpose, "norm": _emit_norm,
    "vec": _emit_vec, "mat": _emit_mat, "comp": _emit_comp,
    "func": _emit_func,
}


# ---------------------------------------------------------------------------
# DSL parser
# ---------------------------------------------------------------------------

_CALLABLES = {
    **{name: functools.partial(func, name) for name in _FUNCS_1 + ("power",)},
    "vec": vec, "mat": lambda *e: mat([e[0:3], e[3:6], e[6:]]),
    "dot": dot, "outer": outer, "transpose": transpose, "norm": norm,
    "grad": grad, "div": div, "lap": lap, "dt": dt, "comp": comp,
}
# the DSL's ``^`` is read as Python's ``**``, which the DSL itself refuses
_BINOPS = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: div_by,
           ast.Pow: _CALLABLES["power"]}
_FIELDS = {"u": (VEC, True), "p": (SCALAR, True)}
_DSL_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                       "0123456789_ ()+-*/^,.")
_NUMBER_CHARS = frozenset("0123456789.eE+-")


def parse_field_expr(text, symbols=None):
    """Parse the field DSL.

    ``symbols`` optionally declares extra identifiers as name -> shape or
    name -> (shape, is_field).  The identifiers x, t, u, p are reserved.
    The text is read by Python's own expression parser, ``^`` as ``**``,
    and whatever that parser accepts beyond the DSL is refused.  Every
    failure is a :class:`ParseError` at its line and column in ``text``.
    """
    symbols = symbols or {}
    flat = "".join(" " if ch.isspace() else ch for ch in text)
    body = flat.strip(" ")
    src = body.replace("^", "**")
    # the offset in ``src`` of the second star of each caret's ``**``
    stars = [k + n + 1 for n, k in enumerate(
        k for k, ch in enumerate(body) if ch == "^")]

    def error(msg, at):
        # ``at`` is an offset in ``src``
        i = len(flat) - len(flat.lstrip(" ")) + at - bisect.bisect_right(
            stars, at)
        return ParseError(msg, text.count("\n", 0, i) + 1,
                          i - text.rfind("\n", 0, i) - 1)

    def index(node):
        # comp's 0-based index, from an unparenthesized literal 1, 2 or 3
        at = node.col_offset
        if type(node) is ast.Constant \
                and src[at:node.end_col_offset] in ("1", "2", "3") \
                and not src[src.rfind(",", 0, at) + 1:at].strip():
            return node.value - 1
        raise error("comp indices must be integer literals 1..3", at)

    def walk(node):
        kind = type(node)
        if kind is ast.BinOp and type(node.op) in _BINOPS:
            build = _BINOPS[type(node.op)]
            args = walk(node.left), walk(node.right)
        elif kind is ast.UnaryOp and type(node.op) is ast.USub:
            build, args = neg, (walk(node.operand),)
        elif kind is ast.Constant and type(node.value) in (int, float) \
                and _NUMBER_CHARS.issuperset(
                    src[node.col_offset:node.end_col_offset]):
            return const(float(src[node.col_offset:node.end_col_offset]))
        elif kind is ast.Name:
            if node.id in ("x", "t"):
                return x_vector() if node.id == "x" else time()
            spec = symbols.get(node.id, _FIELDS.get(node.id, SCALAR))
            return sym(node.id, *(spec if isinstance(spec, tuple)
                                  else (spec,)))
        # a callable by its bare name, not ``(sin)(t)``, with no trailing
        # comma, which also refuses ``sin(t, ^t)`` (``sin(t, **t)``); a
        # lone keyword, ``sin(^t)``, leaves no argument, which every
        # callable refuses
        elif kind is ast.Call and type(node.func) is ast.Name \
                and node.func.id in _CALLABLES \
                and node.func.col_offset == node.col_offset \
                and "," not in src[(node.args or [node.func])[-1]
                                   .end_col_offset:node.end_col_offset]:
            build = _CALLABLES[node.func.id]
            args = [walk(a) if build is not comp or k == 0 else index(a)
                    for k, a in enumerate(node.args)]
        else:
            raise error("unexpected %r" % src[
                node.col_offset:node.end_col_offset].replace("**", "^"),
                node.col_offset)
        try:
            return build(*args)
        except (ShapeError, TypeError) as exc:
            raise error(str(exc), node.col_offset) from None

    bad = next((k for k, ch in enumerate(body) if ch not in _DSL_CHARS
                or body.startswith("**", k)), None)
    if bad is not None:
        what = "**" if body.startswith("**", bad) else body[bad]
        raise error("unexpected %r" % what, bad + body.count("^", 0, bad))
    try:
        with warnings.catch_warnings():
            # "1if" is refused, not warned about
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(src, mode="eval")
        return walk(tree.body)
    except SyntaxError as exc:
        raise error(exc.msg, (exc.offset or 1) - 1) from None
    except (RecursionError, MemoryError):
        raise error("expression nested too deeply", 0) from None
