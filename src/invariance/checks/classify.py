"""Form-invariance vs. frame-indifference classifiers under rotations.

A Quantity is an expression over inner field symbols (``u`` a velocity
field, ``phi`` a scalar field) plus an optional frame-bound spin symbol
``OMEGA``.  Checks compare, at low-discrepancy sample points,

  * tensor (form-invariance): the quantity recomputed from the rotated
    frame's own definitions against the homogeneous rule Q-action on the
    original value;
  * objectivity: additionally, that the rotated observer's functional
    form coincides with the original form on the same arguments;
  * relative objectivity: the same functional form evaluated in two
    spinning frames, each using its own spin value.

All transformed-field expressions are built once over one rotation frame,
``frames.FrameChange.rotation`` with symbolic parameters (axis, rate,
phase): the Rodrigues declaration that ``RotationSpec.frame`` fills with
numbers.  A scan evaluates them for a batch of rotations per call: one
point axis made of one block of the same sample points per rotation, with
the parameters bound per point, and the points are mapped by the same
frame's Q through ``FrameChange.at``.  Checking 50
rotations thus costs five evaluator calls per expression and no
expression builds, and the comparisons of one scan share the
evaluations they have in common, so ``classify`` evaluates the tensor
test's expressions once for both of its parts.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .. import frames as fr
from ..expr import (
    Node, SCALAR, VEC, MAT,
    add, comp, const, dot, grad, lap, mul, matrix_const, neg, norm, sub, sym,
    time, transpose, x_vector,
    expand_derivatives, substitute, compose, evaluate_many, parse_field_expr,
)
from ..sampling import sample_points
from .verdict import CheckPart, Verdict, worst

__all__ = [
    "Quantity", "scalar_quantity", "gradient_quantity", "rank2_quantity",
    "velocity_quantity", "velocity_relative_quantity", "strain_rate_quantity",
    "vorticity_quantity", "vorticity_relative_quantity", "z_tensor_quantity",
    "composite_norm_quantity",
    "check_form_invariance", "check_objectivity",
    "check_relative_objectivity", "classify",
    "form_invariance_defect", "random_rotations",
    "GENERIC_VELOCITY", "GENERIC_SCALAR", "ISOTROPIC_SCALAR",
]

DEFAULT_TOL = 1e-9

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
_K = fr.axis_cross_mat((_A1, _A2, _A3))
_SPIN_FREE = mul(neg(_W), _K)       # Q Qdot^T of the relative rotation
_X_OLD = dot(transpose(_QE), x_vector())
_XS = tuple(comp(_X_OLD, i) for i in range(3))


def _rotation_bindings(spec):
    return {"rot_a1": spec.axis[0], "rot_a2": spec.axis[1],
            "rot_a3": spec.axis[2], "rot_w": spec.rate,
            "rot_ph": spec.phase}


def random_rotations(n=100, seed=0x507A):
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
        # u~ = Q u - Omega x~ with Omega = Q Qdot^T = -w K
        return add(moved, mul(_W, dot(_K, x_vector())))
    return moved


def _spin_const(base_spin):
    if base_spin is None:
        return matrix_const(np.zeros((3, 3)))
    frame = base_spin.frame()
    q, qdot = frame.at(0.0)[0], frame.at(0.0, 1)[0]
    return matrix_const(q @ qdot.T)           # Omega = Q Qdot^T, constant


def _spin_tilde(base_spin):
    if base_spin is None:
        return _SPIN_FREE
    om1 = _spin_const(base_spin)
    return add(dot(_QE, dot(om1, transpose(_QE))), _SPIN_FREE)


@lru_cache(maxsize=None)
def _built(q, base_spin):
    """Pre-expanded check expressions for one quantity."""
    inner_sym = PHI if q.field_rule == "scalar" else U
    base_map = {inner_sym.data[0]: q.inner_field,
                "OMEGA": _spin_const(base_spin)}
    tilde_map = {inner_sym.data[0]: _transformed_inner(q),
                 "OMEGA": _spin_tilde(base_spin), "Q": _QE}

    base_value = expand_derivatives(substitute(q.expr, base_map))
    tilde_form = q.tilde_expr if q.tilde_expr is not None else q.expr
    tilde_value = expand_derivatives(substitute(tilde_form, tilde_map))
    rule_value = expand_derivatives(_rule_apply(q.rank, base_value))
    # the base functional form fed the rotated observer's arguments,
    # with the base frame's own spin value: the objectivity comparison
    base_form_on_tilde = expand_derivatives(substitute(
        q.expr, dict(tilde_map, OMEGA=_spin_const(base_spin))))
    return base_value, tilde_value, rule_value, base_form_on_tilde


@lru_cache(maxsize=None)
def _built_full(q):
    """Closed-form field and its transform, for full frame-indifference."""
    concrete = expand_derivatives(substitute(
        q.expr, {(PHI if q.field_rule == "scalar" else U).data[0]:
                 q.inner_field,
                 "OMEGA": _spin_const(None)}))
    moved = expand_derivatives(_rule_apply(
        q.rank, compose(concrete, _XS, time())))
    return concrete, moved


def _component_abs(arr):
    a = np.abs(arr)
    while a.ndim > 1:
        a = a.max(axis=0)
    return a


def _mapped(t, x, bind):
    """x~ = Q x + c of the rotation frame, its parameters bound by
    ``bind`` (per point or one value each)."""
    q, c = _FRAME.at(t, 0, bind)
    return fr.rotate(q, x) + c


def _as_specs(specs):
    try:
        return list(specs)
    except TypeError:       # one RotationSpec, which is not iterable
        return [specs]


# rotations per evaluator call: enough to amortise the per-call cost at
# the default 200 points, few enough to keep the values of one call small
_BATCH = 10


def _scan(specs, comparisons, n_points, seed):
    """Max residual and witness of each comparison over rotations x points.

    ``comparisons`` is a list of (expr_a, use_mapped_a, expr_b,
    use_mapped_b); the residual of each pair is the componentwise absolute
    difference, and one (worst, witness) is returned per pair.  Rotations
    are evaluated in batches of ``_BATCH``: one point axis made of
    rotation-major blocks of the same samples, with the rotation
    parameters bound per point.  Within a batch each distinct
    (expression, point set) is evaluated once and shared by every pair
    that reads it.
    """
    kw = {} if seed is None else {"seed": seed}
    t, x = sample_points(n_points, **kw)
    n = t.shape[0]
    keys = [(id(ea), ma, id(eb), mb) for ea, ma, eb, mb in comparisons]
    unique = dict(zip(keys, comparisons))
    found = {key: [] for key in unique}    # per batch: (worst, point)
    for start in range(0, len(specs), _BATCH):
        batch = specs[start:start + _BATCH]
        tb, xb = np.tile(t, len(batch)), np.tile(x, len(batch))
        binds = [_rotation_bindings(spec) for spec in batch]
        bind = {name: np.repeat([b[name] for b in binds], n)
                for name in binds[0]}
        xt = _mapped(tb, xb, bind)
        values = {}

        def value(e, mapped):
            key = (id(e), mapped)
            if key not in values:
                values[key] = evaluate_many(e, tb, xt if mapped else xb,
                                            bind)
            return values[key]

        for key, (ea, ma, eb, mb) in unique.items():
            # rotation-major blocks make the first worst point the first
            # rotation's
            top, i = worst(_component_abs(value(ea, ma) - value(eb, mb)))
            found[key].append((top, i % n))

    def first_worst(per_batch):
        top, i = per_batch[worst([w for w, _ in per_batch])[1]]
        return top, (float(t[i]), tuple(x[:, i]))
    return [first_worst(found[key]) for key in keys]


def form_invariance_defect(q, spec, n_points=200, seed=None,
                           base_spin=None):
    """Raw difference (rotated-frame value minus rule prediction).

    Shape matches the quantity's rank with a trailing point axis; used to
    witness exact inhomogeneous offsets such as the vorticity spin term.
    """
    _, tilde_value, rule_value, _ = _built(q, base_spin)
    kw = {} if seed is None else {"seed": seed}
    t, x = sample_points(n_points, **kw)
    bind = _rotation_bindings(spec)
    got = evaluate_many(tilde_value, t, _mapped(t, x, bind), bind)
    want = evaluate_many(rule_value, t, x, bind)
    return got - want


def _tensor_pair(q, base_spin):
    _, tilde_value, rule_value, _ = _built(q, base_spin)
    return (tilde_value, True, rule_value, False)


def _form_verdict(found, tol):
    (top, witness), = found
    return Verdict(tolerance=tol, witness=witness,
                   tensor=CheckPart.of(top, tol))


def check_form_invariance(q, specs, n_points=200, tol=DEFAULT_TOL,
                          seed=None, base_spin=None):
    """Tensor test: rotated-frame recomputation vs. the homogeneous rule."""
    return _form_verdict(_scan(_as_specs(specs), [_tensor_pair(q, base_spin)],
                               n_points, seed), tol)


def _objectivity_pairs(q, mode, base_spin):
    if q.relative:
        raise ValueError("use check_relative_objectivity for relative "
                         "quantities")
    if mode == "full":
        concrete, moved = _built_full(q)
        return [(moved, False, concrete, False)]
    if mode != "explicit":
        raise ValueError("mode must be 'explicit' or 'full'")
    _, tilde_value, _, base_form = _built(q, base_spin)
    return [_tensor_pair(q, base_spin), (tilde_value, True, base_form, True)]


def _objectivity_verdict(found, tol, mode):
    if mode == "full":
        (top, witness), = found
        return Verdict(tolerance=tol, witness=witness,
                       objective=CheckPart.of(top, tol),
                       notes=("mode=full",))
    (tensor_worst, witness), (form_worst, form_witness) = found
    tensor = CheckPart.of(tensor_worst, tol)
    notes = ()
    if not tensor.passed:
        notes = ("not form-invariant, objectivity precluded",)
    elif not CheckPart.of(form_worst, tol).passed:
        witness = form_witness
    return Verdict(tolerance=tol, witness=witness, tensor=tensor,
                   objective=CheckPart.of(
                       worst([tensor_worst, form_worst])[0], tol),
                   notes=notes)


def check_objectivity(q, specs, n_points=200, tol=DEFAULT_TOL, seed=None,
                      mode="explicit", base_spin=None):
    """Frame-indifference test.

    Explicit mode compares the rotated observer's form with the original
    form on the same (transformed) arguments, on top of the tensor test;
    objectivity cannot hold where form-invariance already fails, so a
    tensor failure forces the verdict.  Full mode compares the fully
    substituted closed form against the original at the same raw points.
    """
    pairs = _objectivity_pairs(q, mode, base_spin)
    return _objectivity_verdict(_scan(_as_specs(specs), pairs, n_points,
                                      seed), tol, mode)


def _relative_pairs(q, base_spin):
    if not q.relative:
        raise ValueError("quantity carries no frame-spin offset")
    # (a) value with the frame's own spin vs. with zero spin, base frame
    with_spin = _built(q, base_spin)[0]
    without = _built(q, None)[0]
    # (b) transport between the two spinning frames
    return [(with_spin, False, without, False), _tensor_pair(q, base_spin)]


def _relative_verdict(found, tol):
    (abs_worst, _), (rel_worst, rel_witness) = found
    note = ("absolute frame-dependence offset %.3e (expected nonzero for "
            "a spinning base frame)" % abs_worst)
    return Verdict(tolerance=tol, witness=rel_witness,
                   objective=CheckPart.of(abs_worst, tol),
                   relative_objective=CheckPart.of(rel_worst, tol),
                   notes=(note,))


def check_relative_objectivity(q, specs, base_spin, n_points=200,
                               tol=DEFAULT_TOL, seed=None):
    """Appendix-style two-part test for spin-redefined quantities.

    (a) absolute frame-dependence: the quantity with the frame's spin vs.
    with zero spin differs by exactly the offset, so absolute objectivity
    fails whenever the base frame spins; (b) relative objectivity: the
    same functional form, each frame using its own spin, agrees with the
    Q-transport between two spinning frames.
    """
    pairs = _relative_pairs(q, base_spin)
    return _relative_verdict(_scan(_as_specs(specs), pairs, n_points, seed),
                             tol)


def classify(q, specs=None, n_points=200, tol=DEFAULT_TOL, seed=None,
             base_spin=None, objectivity_mode=None):
    """Full verdict: tensor, objectivity, and (if relative) relative part.

    The tensor test and the objectivity (or relative) test run as one
    scan, so a comparison or evaluation that both need is made once.
    """
    specs = random_rotations() if specs is None else _as_specs(specs)
    if q.relative:
        spin = base_spin or fr.RotationSpec(axis=(1.0, -1.0, 2.0), rate=0.8)
        pairs = _relative_pairs(q, spin)
    else:
        mode = objectivity_mode or ("full" if q.field_rule == "scalar"
                                    else "explicit")
        pairs = _objectivity_pairs(q, mode, None)
    found = _scan(specs, [_tensor_pair(q, None)] + pairs, n_points, seed)
    form = _form_verdict(found[:1], tol)
    tensor, witness = form.tensor, form.witness

    if q.relative:
        rel = _relative_verdict(found[1:], tol)
        return Verdict(tolerance=tol, witness=witness, tensor=tensor,
                       objective=rel.objective,
                       relative_objective=rel.relative_objective,
                       notes=rel.notes)

    obj = _objectivity_verdict(found[1:], tol, mode)
    objective = obj.objective
    if mode == "full" and not tensor.passed:
        objective = CheckPart(passed=False, residual=worst(
            [objective.residual, tensor.residual])[0])
    # audit: objectivity must never outrank form-invariance
    assert not (objective.passed and not tensor.passed)
    return Verdict(tolerance=tol, witness=witness, tensor=tensor,
                   objective=objective, notes=obj.notes)
