"""Form-invariance vs. frame-indifference: ``classify``, the one
classifier check, under rotations.

A Quantity is an expression over inner field symbols (``u`` a velocity
field, ``phi`` a scalar field) plus an optional frame-bound spin symbol
``OMEGA``.  ``classify`` compares, at low-discrepancy sample points,

  * tensor (form-invariance): the quantity recomputed from the rotated
    frame's own definitions against the homogeneous rule Q-action on the
    original value;
  * objectivity: additionally, that the rotated observer's functional
    form coincides with the original form on the same arguments
    (explicit mode), or that the closed form is unchanged at the same
    points (full mode);
  * relative objectivity: the same functional form evaluated in two
    spinning frames, each using its own spin value.

Each part is a ``CheckPart.of`` verdict on its worst residual, with the
rotation's sample point of that residual as its witness and, on the
objectivity part, notes on how it was judged.

All transformed-field expressions are built once over one rotation frame,
``frames.FrameChange.rotation`` with symbolic parameters (axis, rate,
phase): the Rodrigues declaration that ``RotationSpec.frame`` fills with
numbers.  An expression of the rotated frame's coordinates is composed
with that frame's own point map x~ = Q x + c, read from
``FrameChange.exprs``, so every comparison is one expression a - b of
the raw sample points.  The rotated frame's spin Q Qdot^T and its
velocity rule's offset, ``FrameChange.velocity_offset``, come from the
same frame.  A scan evaluates the bundle of the differences of all
parts for a batch of rotations per call: one point axis made of
one block of the same sample points per rotation, with the parameters
bound per point.  Checking 50 rotations thus costs five evaluator calls
in all and no expression builds, and the one tape of a call computes Q,
its sines and the nodes the comparisons share once.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .. import frames as fr
from ..expr import (
    Node, SCALAR, VEC, MAT,
    add, bundle, comp, const, dot, grad, lap, mul, matrix_const, norm,
    sub, sym, time, transpose, x_vector,
    expand_derivatives, substitute, compose, evaluate_many, parse_field_expr,
)
from ..sampling import sample_points
from .verdict import CheckPart, worst

__all__ = [
    "Quantity", "scalar_quantity", "gradient_quantity", "rank2_quantity",
    "velocity_quantity", "velocity_relative_quantity", "strain_rate_quantity",
    "vorticity_quantity", "vorticity_relative_quantity", "z_tensor_quantity",
    "composite_norm_quantity", "classify", "random_rotations",
    "GENERIC_VELOCITY", "GENERIC_SCALAR", "ISOTROPIC_SCALAR",
]

U = sym("u", VEC, field=True)
PHI = sym("phi", SCALAR, field=True)
OMEGA = sym("OMEGA", MAT)
QSYM = sym("Q", MAT)

# library inner fields: a generic smooth velocity with all couplings
# active, a generic (anisotropic) scalar, and an isotropic scalar
GENERIC_VELOCITY = parse_field_expr(
    "vec(sin(comp(x,1))*cos(comp(x,2)) + comp(x,3),"
    " comp(x,1)*comp(x,3) + sin(comp(x,2)),"
    " cos(comp(x,1)) + comp(x,2)*comp(x,3))")
GENERIC_SCALAR = parse_field_expr(
    "comp(x,1)*comp(x,1)*comp(x,2) + sin(comp(x,3)) + comp(x,1)")
ISOTROPIC_SCALAR = parse_field_expr("sin(norm(x))")


@dataclass(frozen=True)
class Quantity:
    """A candidate tensor field and how to test it.

    ``rank`` fixes the homogeneous rule (scalar identity, Q for vectors,
    Q . Qt conjugation for matrices).  ``field_rule`` says how the inner
    field transports: "velocity" (with the spin offset), plain "vector",
    or "scalar".  ``relative`` marks quantities redefined with a
    frame-spin offset (they reference OMEGA).  ``tilde_expr``, when
    present, is the rotated observer's own functional form (it may
    reference the frame matrix symbol Q); otherwise the form is shared.
    """

    name: str
    expr: Node
    rank: str
    field_rule: str = "velocity"
    inner_field: Node = GENERIC_VELOCITY
    relative: bool = False
    tilde_expr: Optional[Node] = None

    def __post_init__(self):
        if self.rank not in (SCALAR, VEC, MAT):
            raise ValueError("rank must be scalar/vec3/mat3")
        if self.field_rule not in ("velocity", "vector", "scalar"):
            raise ValueError("unknown field rule %r" % self.field_rule)


# ---------------------------------------------------------------------------
# catalogue factories
# ---------------------------------------------------------------------------

def scalar_quantity(phi_expr=None, name="phi"):
    return Quantity(name=name, expr=PHI, rank=SCALAR, field_rule="scalar",
                    inner_field=phi_expr or ISOTROPIC_SCALAR)


def gradient_quantity(phi_expr=None, name="grad_phi"):
    return Quantity(name=name, expr=grad(PHI), rank=VEC, field_rule="scalar",
                    inner_field=phi_expr or GENERIC_SCALAR)


def rank2_quantity(phi_expr=None, name="hessian_phi"):
    return Quantity(name=name, expr=grad(grad(PHI)), rank=MAT,
                    field_rule="scalar",
                    inner_field=phi_expr or GENERIC_SCALAR)


def velocity_quantity(u_expr=None):
    return Quantity(name="u", expr=U, rank=VEC,
                    inner_field=u_expr or GENERIC_VELOCITY)


def velocity_relative_quantity(u_expr=None):
    return Quantity(name="u_rel", expr=add(U, dot(OMEGA, x_vector())),
                    rank=VEC, relative=True,
                    inner_field=u_expr or GENERIC_VELOCITY)


def _sym_part(m):
    return mul(const(0.5), add(m, transpose(m)))


def _skew_part(m):
    return mul(const(0.5), sub(m, transpose(m)))


def strain_rate_quantity(u_expr=None):
    return Quantity(name="strain_rate", expr=_sym_part(grad(U)), rank=MAT,
                    inner_field=u_expr or GENERIC_VELOCITY)


def vorticity_quantity(u_expr=None):
    return Quantity(name="vorticity", expr=_skew_part(grad(U)), rank=MAT,
                    inner_field=u_expr or GENERIC_VELOCITY)


def vorticity_relative_quantity(u_expr=None):
    return Quantity(name="vorticity_rel",
                    expr=_skew_part(add(grad(U), OMEGA)), rank=MAT,
                    relative=True, inner_field=u_expr or GENERIC_VELOCITY)


def z_tensor_quantity(u_expr=None):
    """Laplacian of the velocity gradient, projected on a fixed dyad.

    Z = (lap L)^1_1 e1 (x) e1 transforms homogeneously because the
    Laplacian annihilates the constant spin offset, yet the rotated
    observer's form carries the frame matrix explicitly.
    """
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    base = mul(comp(lap(grad(U)), 0, 0), matrix_const(e11))
    tilde = mul(comp(dot(transpose(QSYM), dot(lap(grad(U)), QSYM)), 0, 0),
                dot(QSYM, dot(matrix_const(e11), transpose(QSYM))))
    return Quantity(name="z_tensor", expr=base, rank=MAT, tilde_expr=tilde,
                    inner_field=u_expr or GENERIC_VELOCITY)


def composite_norm_quantity(f_expr=None):
    """||f(x)|| for a specified non-equivariant inner vector field."""
    f = f_expr or parse_field_expr("vec(comp(x,1), 0.0, 0.0)")
    return Quantity(name="composite_norm", expr=norm(U), rank=SCALAR,
                    field_rule="vector", inner_field=f)


# ---------------------------------------------------------------------------
# symbolic rotation frame (parameters bound numerically per rotation)
# ---------------------------------------------------------------------------

_A1, _A2, _A3 = sym("rot_a1"), sym("rot_a2"), sym("rot_a3")
_W, _PH = sym("rot_w"), sym("rot_ph")
_FRAME = fr.FrameChange.rotation((_A1, _A2, _A3), _W, _PH)
_QE = _FRAME.q
_SPIN = dot(_QE, transpose(_FRAME.exprs(1)[0]))     # Q Qdot^T
_X_OLD = dot(transpose(_QE), x_vector())
_XS = tuple(comp(_X_OLD, i) for i in range(3))


def _rotation_bindings(spec):
    return {"rot_a1": spec.axis[0], "rot_a2": spec.axis[1],
            "rot_a3": spec.axis[2], "rot_w": spec.rate,
            "rot_ph": spec.phase}


def random_rotations(n, seed):
    """Rotations with rate and phase bounded away from the identity."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        axis = rng.normal(size=3)
        rate = rng.uniform(0.5, 2.0) * (-1.0, 1.0)[rng.integers(0, 2)]
        phase = rng.uniform(0.3, 3.0)
        out.append(fr.RotationSpec(axis=axis, rate=rate, phase=phase))
    return out


def _rule_apply(rank, e):
    if rank == SCALAR:
        return e
    if rank == VEC:
        return dot(_QE, e)
    return dot(_QE, dot(e, transpose(_QE)))


def _transformed_inner(q):
    """The inner field as the rotated observer sees it (tilde coords)."""
    moved = compose(expand_derivatives(q.inner_field), _XS, time())
    if q.field_rule == "scalar":
        return moved
    moved = dot(_QE, moved)
    if q.field_rule == "velocity":
        # u~ = Q u + Qdot Q^T x~, the rotation frame's velocity rule
        return add(moved, _FRAME.velocity_offset())
    return moved


@lru_cache(maxsize=None)
def _spin_const(base_spin):
    if base_spin is None:
        return matrix_const(np.zeros((3, 3)))
    (q, _), (qdot, _), _ = base_spin.frame().at(0.0)
    return matrix_const(q @ qdot.T)           # Omega = Q Qdot^T, constant


@lru_cache(maxsize=None)
def _built(q, base_spin):
    """Pre-expanded check expressions for one quantity.  The rotated
    frame's spin is the base spin moved as a tensor plus Q Qdot^T."""
    inner_sym = PHI if q.field_rule == "scalar" else U
    spin = _spin_const(base_spin)
    base_map = {inner_sym.data[0]: q.inner_field, "OMEGA": spin}
    tilde_map = {inner_sym.data[0]: _transformed_inner(q),
                 "OMEGA": add(_rule_apply(MAT, spin), _SPIN), "Q": _QE}

    base_value = expand_derivatives(substitute(q.expr, base_map))
    tilde_form = q.tilde_expr if q.tilde_expr is not None else q.expr
    tilde_value = expand_derivatives(substitute(tilde_form, tilde_map))
    rule_value = expand_derivatives(_rule_apply(q.rank, base_value))
    # the base functional form fed the rotated observer's arguments,
    # with the base frame's own spin value: the objectivity comparison
    base_form_on_tilde = expand_derivatives(substitute(
        q.expr, dict(tilde_map, OMEGA=spin)))
    return base_value, tilde_value, rule_value, base_form_on_tilde


@lru_cache(maxsize=None)
def _built_full(q):
    """Closed-form field and its transform, for full frame-indifference:
    the base value of ``_built`` without spin, and that value moved."""
    concrete = _built(q, None)[0]
    moved = expand_derivatives(_rule_apply(
        q.rank, compose(concrete, _XS, time())))
    return concrete, moved


def _component_abs(arr):
    a = np.abs(arr)
    while a.ndim > 1:
        a = a.max(axis=0)
    return a


@lru_cache(maxsize=None)
def _differences(comparisons):
    """The expression a - b of each of ``_scan``'s ``comparisons`` (a
    tuple) over the raw points, and the bundle of the distinct ones, which
    keeps its tape while the cache holds it.  A mapped side, an
    expression of the rotated frame's coordinates, is composed with the
    rotation frame's x~ = Q x + c."""
    q, c = _FRAME.exprs(0)
    x_new = add(dot(q, x_vector()), c)
    mapped = [comp(x_new, i) for i in range(3)]

    def side(e, is_mapped):
        return compose(e, mapped, time()) if is_mapped else e
    diffs = tuple(sub(side(ea, ma), side(eb, mb))
                  for ea, ma, eb, mb in comparisons)
    return diffs, bundle(*dict.fromkeys(diffs))


# rotations per evaluator call: enough to amortise the per-call cost at
# the default 200 points, few enough to keep the values of one call small
_BATCH = 10


def _scan(specs, comparisons, n_points, seed, tol):
    """One ``CheckPart`` per comparison over rotations x points.

    ``comparisons`` is a list of (expr_a, use_mapped_a, expr_b,
    use_mapped_b), a mapped side read at x~ = Q x + c; the residual of
    each pair is the componentwise absolute value of the expression
    a - b.  Rotations are evaluated in batches of ``_BATCH``: one point
    axis made of rotation-major blocks of the same samples, with the
    rotation parameters bound per point.  Each batch is one
    ``evaluate_many`` call on the bundle of the distinct differences, so
    the nodes they share, the point map included, are computed once, and
    its worst residual and sample per comparison go to ``CheckPart.of``.
    """
    t, x = sample_points(n_points, seed)
    n = t.shape[0]
    diffs, roots = _differences(tuple(comparisons))
    found = {d: ([], []) for d in roots.args}    # per batch: worst, sample
    for start in range(0, len(specs), _BATCH):
        batch = specs[start:start + _BATCH]
        binds = [_rotation_bindings(spec) for spec in batch]
        bind = {name: np.repeat([b[name] for b in binds], n)
                for name in binds[0]}
        values = evaluate_many(roots, np.tile(t, len(batch)),
                               np.tile(x, len(batch)), bind)
        for d, value in zip(roots.args, values):
            # rotation-major blocks make the first worst point the first
            # rotation's
            top, i = worst(_component_abs(value))
            found[d][0].append(top)
            found[d][1].append(i % n)
    return [CheckPart.of(tops, tol, points=(t[at], x[:, at]))
            for tops, at in (found[d] for d in diffs)]


def _tensor_pair(q, base_spin):
    _, tilde_value, rule_value, _ = _built(q, base_spin)
    return (tilde_value, True, rule_value, False)


def _pairs(q, mode, base_spin):
    """The comparisons of ``classify``, one per part, the tensor pair first.

    A relative quantity adds (a) its value with the spin of
    ``base_spin`` against with zero spin, in the base frame, whose offset
    fails absolute objectivity whenever the base frame spins, and (b) the
    transport between two spinning frames, each using its own spin.  Any
    other quantity adds the objectivity pair of ``mode``: "explicit"
    compares the rotated observer's form with the original form on the
    same (transformed) arguments, "full" the fully substituted closed
    form with the original at the same raw points.
    """
    tensor = _tensor_pair(q, None)
    if q.relative:
        return [tensor,
                (_built(q, base_spin)[0], False, _built(q, None)[0], False),
                _tensor_pair(q, base_spin)]
    if mode == "full":
        concrete, moved = _built_full(q)
        return [tensor, (moved, False, concrete, False)]
    if mode != "explicit":
        raise ValueError("mode must be 'explicit' or 'full'")
    _, tilde_value, _, base_form = _built(q, None)
    return [tensor, (tilde_value, True, base_form, True)]


def classify(q, specs, tol, seed, n_points=200, base_spin=None,
             objectivity_mode=None):
    """{part: CheckPart} of the tensor, objectivity and, for a relative
    quantity, relative-objectivity parts, each with its own witness.

    ``specs`` is a list of rotations; ``objectivity_mode`` defaults to
    "full" for a scalar inner field and to "explicit" otherwise, and
    ``base_spin`` is the spinning base frame of a relative quantity.  All
    comparisons run in one scan.  Objectivity cannot hold where
    form-invariance fails: the explicit part judges the worse of its own
    and the tensor comparison, and so does the full part once the tensor
    part fails.
    """
    mode = objectivity_mode or ("full" if q.field_rule == "scalar"
                                else "explicit")
    spin = base_spin or fr.RotationSpec(axis=(1.0, -1.0, 2.0), rate=0.8)
    parts = _scan(specs, _pairs(q, mode, spin), n_points, seed, tol)
    tensor = parts[0]
    if q.relative:
        names = ("tensor", "objective", "relative_objective")
        notes = ("absolute frame-dependence offset %.3e (expected nonzero "
                 "for a spinning base frame)" % parts[1].residual,)
    else:
        names = ("tensor", "objective")
        notes = ("mode=full",) if mode == "full" else ()
        if not tensor.passed:
            notes += ("not form-invariant, objectivity precluded",)
        if mode == "explicit" or not tensor.passed:
            parts[1] = parts[worst([p.residual for p in parts])[1]]
    parts[1] = replace(parts[1], notes=notes)
    parts = dict(zip(names, parts))
    # audit: objectivity must never outrank form-invariance
    if not q.relative and parts["objective"].passed and not tensor.passed:
        raise RuntimeError("classify: objectivity passed where "
                           "form-invariance failed")
    return parts
