"""DSL text of an expression, written outside the package: the parser's
round-trip oracle.  ``parse_field_expr(to_dsl(e))`` must rebuild the
very node ``e``, and the tests also print expressions with it."""

from invariance import expr as ex

_PREC = {"add": 1, "mul": 2, "unary": 3}


def _is_const(e, value):
    return e.kind == "const" and e.data == value


def to_dsl(e):
    """The DSL text of ``e``."""
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
        if e is ex.x_vector():
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
    if k == "bundle":
        return "bundle(%s)" % ", ".join(_print(a, 0) for a in e.args)
    raise ex.ExprError("unprintable node %r" % k)
