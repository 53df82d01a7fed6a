"""Scenario loading, check dispatch, and report assembly.

A scenario is a JSON document with a versioned schema: it names one
check kind, a kind-specific payload, optional tolerance/seed overrides,
and an ``expect`` block of anticipated pass/fail outcomes that the
runner re-asserts.  Each kind has one runner, the one place where a
payload value gets its default; it checks every value before its checks
run, each judged at the report's tolerance and seed, and returns their
own ``CheckPart``s (naming a one-part check's part) and kind-specific
details.  A part's flag always means that its residual passed, and only
``expect`` says whether it should.  Every classifier kind runs
``checks.classify``.  ``details`` maps each part to its witness and
notes.  Reports are deterministic: with timestamps disabled, two runs
over the same inputs are byte-identical.
"""

import functools
import hashlib
import json
import math
import os
import time as _time

import numpy as np

from . import __version__
from . import checks as ck
from . import frames as fr
from . import mechanics as mech
from . import ns
from . import expr as ex
from .ns import closure as ns_closure
from .checks import geometry as geo
from .checks.verdict import CheckPart, meets
from .sampling import DEFAULT_SEED

__all__ = ["SchemaError", "run_scenario", "run_suite", "KINDS"]

SCHEMA_VERSION = 1


class SchemaError(Exception):
    """The scenario file does not conform to the schema."""


QUANTITIES = {
    "scalar_isotropic": ck.scalar_quantity,
    "gradient": ck.gradient_quantity,
    "gradient_isotropic": lambda: ck.gradient_quantity(ck.ISOTROPIC_SCALAR),
    "hessian": ck.rank2_quantity,
    "velocity": ck.velocity_quantity,
    "velocity_relative": ck.velocity_relative_quantity,
    "strain_rate": ck.strain_rate_quantity,
    "vorticity": ck.vorticity_quantity,
    "vorticity_relative": ck.vorticity_relative_quantity,
    "z_tensor": ck.z_tensor_quantity,
    "composite_norm": ck.composite_norm_quantity,
}

MECHANICS_MODELS = {
    "oscillator": mech.oscillator_model,
    "drag_gravity": mech.drag_gravity_model,
    "absolute_velocity": mech.absolute_velocity_model,
}

CLOSURE_MODELS = {
    "compliant": ns_closure.compliant_model,
    "constant_phi2": ns_closure.constant_phi2_model,
    "nu_phi2": ns_closure.nu_phi2_model,
    "bare_mean_velocity": ns_closure.bare_mean_velocity_model,
}


# ---------------------------------------------------------------------------
# kind runners: each reads its whole payload, every value once with its
# default and its check, then runs its checks and returns
# ({part name: CheckPart}, details)
# ---------------------------------------------------------------------------

_REQUIRED = object()


class _Payload:
    """A payload read value by value: ``get`` gives ``read`` of a key's
    value, or of its default, and ``done`` refuses every key that no
    ``get`` read; a value ``read`` refuses is a schema error naming it."""

    def __init__(self, values):
        self._values = values
        self._unread = set(values)

    def get(self, key, read, default=_REQUIRED):
        self._unread.discard(key)
        value = self._values.get(key, default)
        if value is _REQUIRED:
            raise SchemaError("missing %r" % key)
        try:
            return read(value)
        except (KeyError, TypeError, ValueError, ex.ExprError) as exc:
            text = repr(value)
            if len(text) > 80:  # quote a bounded prefix, and the length
                text = "%s... (%d characters)" % (text[:80], len(text))
            raise SchemaError("malformed %r: %s (%s)" % (key, text, exc))

    def done(self):
        if self._unread:
            raise SchemaError("unknown key %s"
                              % ", ".join(map(repr, sorted(self._unread))))


def _is_real(value):
    return type(value) in (int, float) and math.isfinite(value)


def _is_vector(value):
    return type(value) is list and len(value) == 3 \
        and all(map(_is_real, value))


def _reader(what, ok, convert=lambda value: value):
    """A reader that refuses a value unless ``ok(value)``, saying that it
    expected ``what``, and gives ``convert(value)``."""
    def read(value):
        if not ok(value):
            raise ValueError("expected " + what)
        return convert(value)
    return read


def _count(least):
    return _reader("an integer of at least %d" % least,
                   lambda v: type(v) is int and v >= least)


def _one_of(choices):
    choices = list(choices)
    return _reader("one of " + ", ".join(map(repr, choices)),
                   lambda v: v in choices)


_real = _reader("a finite number", _is_real, float)
_positive = _reader("a positive number", lambda v: _is_real(v) and v > 0,
                    float)
_nonnegative = _reader("a nonnegative number",
                       lambda v: _is_real(v) and v >= 0, float)
_flag = _reader("true or false", lambda v: type(v) is bool)
_object = _reader("an object", lambda v: type(v) is dict)
_outcomes = _reader("an object of true or false", lambda v: type(v) is dict
                    and all(type(x) is bool for x in v.values()))
_vector = _reader("a list of 3 numbers", _is_vector,
                  lambda v: np.array(v, float))
_tags = _reader("a nonempty list of %s" % ", ".join(ns_closure.TAGS),
                lambda v: type(v) is list and v
                and all(tag in ns_closure.TAGS for tag in v), tuple)
_params = _reader("an object of numbers and lists of 3 numbers",
                  lambda v: type(v) is dict and all(
                      _is_real(x) or _is_vector(x) for x in v.values()))
_rotation = _reader(
    "an object of an 'axis', a list of 3 numbers, and a numeric 'rate'",
    lambda v: type(v) is dict and set(v) == {"axis", "rate"}
    and _is_vector(v["axis"]) and _is_real(v["rate"]),
    lambda v: fr.RotationSpec(axis=v["axis"], rate=float(v["rate"])))


def _scalar_field(value):
    phi = ex.parse_field_expr(value)
    return _reader("a scalar field", lambda e: e.shape == ex.SCALAR)(phi)


def _parse_ns_spec(d):
    return fr.NS_SYMMETRIES[d["tag"]].from_json(d)


def _run_classify(p, tol, seed):
    q = QUANTITIES[p.get("quantity", _one_of(QUANTITIES))]()
    n_rotations = p.get("rotations", _count(1), 10)
    # a relative quantity has no objectivity mode: a given one is refused
    mode = None if q.relative else p.get(
        "mode", _one_of(("explicit", "full", None)), None)
    p.done()
    specs = ck.random_rotations(n_rotations, seed)
    return ck.classify(q, specs, tol, seed, objectivity_mode=mode), {}


def _run_christoffel(p, tol, seed):
    chart = geo.CHARTS[p.get("chart", _one_of(geo.CHARTS))]
    which = p.get("check", _one_of(("transform", "covariant_derivative")),
                  "transform")
    n_points = p.get("points", _count(1), 50)
    if which == "covariant_derivative":
        phi = p.get("field", _scalar_field, "dot(x, x)")
        p.done()
        return geo.check_covariant_derivative(phi, chart, n_points, tol,
                                              seed), {}
    p.done()
    return (geo.check_christoffel_transform(chart, n_points, tol, seed),
            {"points": n_points})


def _run_geometric_suite(p, tol, seed):
    n_points = p.get("points", _count(1), 100)
    p.done()
    return geo.geometric_invariance_suite(n_points, tol, seed), {}


def _run_mechanics(p, tol, seed):
    name = p.get("model", _one_of(MECHANICS_MODELS), "oscillator")
    model = p.get("params", lambda kw: MECHANICS_MODELS[name](
        **_params(kw)), {})
    check = p.get("check", _one_of((
        "oscillator_reference", "terminal_speed", "frame_indifference",
        "galilei_covariance", "noninertial_closure")))
    if check == "frame_indifference":
        transport_refs = p.get("transport_refs", _flag, True)
        p.done()
        spec = fr.FrameChange.random_galilei(np.random.default_rng(seed))
        return {"frame_indifference": mech.check_force_frame_indifference(
            model, spec, tol, seed, transport_refs)}, {}
    dt = p.get("dt", _positive, 1e-3)
    steps = p.get("steps", _count(1), 1000)
    if check == "oscillator_reference":
        p.done()
        traj = mech.integrate(model, (np.array([1.0, 0, 0]),
                                      np.zeros(3), 0.0), dt, steps)
        return {"reference": CheckPart.of(
            np.abs(traj.x[0] - np.cos(traj.t)), tol, (traj.t, traj.x))}, {}
    if check == "terminal_speed":
        expected = p.get("expected_vz", _real, -1.0)
        p.done()
        traj = mech.integrate(model, (np.zeros(3), np.zeros(3), 0.0),
                              dt, steps)
        return ({"terminal": CheckPart.of(
            abs(traj.v[2, -1] - expected), tol,
            (traj.t[-1:], traj.x[:, -1:]))}, {"vz": float(traj.v[2, -1])})
    if check == "galilei_covariance":
        ic = (p.get("x0", _vector, [0.3, -0.2, 0.1]),
              p.get("v0", _vector, [0.2, 0.1, 0.0]), 0.0)
        p.done()
        spec = fr.FrameChange.random_galilei(np.random.default_rng(seed))
        return {"covariance": mech.check_galilei_covariance(
            model, spec, ic, dt, steps, tol)}, {}
    rotation = p.get("rotation", _rotation, {"axis": [0, 0, 1], "rate": 0.5})
    ic = (p.get("x0", _vector, [0.5, 0.2, 0.0]),
          p.get("v0", _vector, [0.1, 0.0, 0.0]), 0.0)
    include_drag_term = p.get("include_drag_term", _flag, True)
    p.done()
    spec = fr.FrameChange.euclidean(rotation=rotation)
    traj = mech.integrate(model, ic, dt, steps)
    return {"closure": mech.check_noninertial_closure(
        model, spec, traj, tol, include_drag_term)}, {}


def _run_ns_symmetry(p, tol, seed):
    sol = p.get("solution", _one_of(ns.SOLUTIONS))
    spec = p.get("symmetry", _parse_ns_spec)
    p.done()
    state = ns.SOLUTIONS[sol]()
    ns.certify(state)   # a non-solution is an error, not an expected FAIL
    return {"symmetry": ns.check_ns_symmetry(state, spec, tol, seed)}, \
        {"solution": sol}


def _run_decomposed(p, tol, seed):
    # one member has no fluctuation: a PASS on it would compare zeros
    n_members = p.get("members", _count(2), 4096)
    spec = p.get("symmetry", _parse_ns_spec)
    p.done()
    return {"symmetry": ns.check_decomposed_symmetry(
        ns.Ensemble.random(n_members, seed), spec, tol, seed)}, {}


def _run_closure_screen(p, tol, seed):
    name = p.get("model", _one_of(CLOSURE_MODELS))
    tags = p.get("tags", _tags, ["G", "S1", "S3", "S4", "S6approx"])
    p.done()
    parts = ns_closure.screen_closure(CLOSURE_MODELS[name](), tags, tol, seed)
    return parts, {"model": name}


KINDS = {
    "tensor": _run_classify,
    "objectivity": _run_classify,
    "relative": _run_classify,
    "christoffel": _run_christoffel,
    "geometric-suite": _run_geometric_suite,
    "mechanics": _run_mechanics,
    "ns-symmetry": _run_ns_symmetry,
    "decomposed": _run_decomposed,
    "closure-screen": _run_closure_screen,
}

# a mechanics check's error scale is its own (rounding for a covariance,
# dt^4 for a reference solution), so its scenario states a tolerance
_DEFAULT_TOLS = {
    "decomposed": 1e-12,
    "closure-screen": 1e-10,
    "geometric-suite": 1e-10,
    "mechanics": _REQUIRED,
}


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError("cannot read scenario %s: %s" % (path, exc))
    return doc


def _validate(doc, overrides):
    """(kind, payload, expect, tolerance, seed) of the scenario ``doc``
    with its values replaced by ``overrides``, read as a payload is read,
    with the kind's default tolerance where it has one."""
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object")
    top = _Payload(dict(doc, **overrides))
    top.get("schema", _one_of([SCHEMA_VERSION]))
    top.get("name", _reader("a nonempty string",
                            lambda v: type(v) is str and v))
    kind = top.get("kind", _one_of(KINDS))
    read = (kind, _Payload(top.get("payload", _object, {})),
            top.get("expect", _outcomes, {}),
            top.get("tolerance", _nonnegative, _DEFAULT_TOLS.get(kind, 1e-9)),
            top.get("seed", _count(0), DEFAULT_SEED))
    top.done()
    return read


def _name_of(path, doc=None):
    """The name ``doc`` gives, or the file stem when it gives none; the
    file is read when ``doc`` is None."""
    if doc is None:
        try:
            doc = _load(path)
        except SchemaError:
            pass
    name = doc.get("name") if isinstance(doc, dict) else None
    if isinstance(name, str) and name:
        return name
    return os.path.splitext(os.path.basename(str(path)))[0]


def run_scenario(path, tol, seed, no_timestamp=False):
    """Run one scenario file and return (report dict, exit code).

    ``tol`` and ``seed``, unless None, override the scenario's own.
    Every report, an error report too, is keyed by the scenario's name,
    or by the file stem when the file does not give a name.
    """
    doc = None
    try:
        doc = _load(path)
        kind, payload, expect, tolerance, seed_used = _validate(doc, {
            k: v for k, v in (("tolerance", tol), ("seed", seed))
            if v is not None})
    except SchemaError as exc:
        return {"scenario": _name_of(path, doc or {}), "error": str(exc),
                "error_kind": "schema"}, 2

    raw = json.dumps(doc, sort_keys=True).encode()
    digest = hashlib.sha256(raw).hexdigest()
    started = _time.time()
    try:
        parts, details = KINDS[kind](payload, tolerance, seed_used)
    except SchemaError as exc:
        return {"scenario": doc["name"], "error": str(exc),
                "error_kind": "schema"}, 2
    except Exception as exc:  # structured execution failure, not a verdict
        return {"scenario": doc["name"], "error": str(exc),
                "error_kind": "execution"}, 3

    mismatches = sorted(k for k, v in expect.items()
                        if k not in parts or not meets(parts[k], v))
    report = {
        "scenario": doc["name"],
        "kind": kind,
        "tolerance": tolerance,
        "seed": seed_used,
        "parts": {k: part.passed for k, part in parts.items()},
        "residuals": {k: part.residual for k, part in parts.items()},
        "details": dict(details, witness={
            k: {"t": part.witness[0], "x": list(part.witness[1])}
            for k, part in parts.items() if part.witness is not None},
            notes={k: list(part.notes) for k, part in parts.items()
                   if part.notes}),
        "expect": expect,
        "expectation_met": not mismatches,
        "mismatches": mismatches,
        "version": __version__,
        "input_digest": "sha256:" + digest,
        "runtime_s": 0.0 if no_timestamp else round(_time.time() - started,
                                                    6),
        "timestamp": 0.0 if no_timestamp else round(started, 6),
    }
    return report, 0


def run_suite(paths, tol, seed, no_timestamp=False, jobs=1):
    """Run many scenarios, each as ``run_scenario`` runs it; reports
    merged deterministically by name.

    With ``jobs`` > 1 the scenarios run in worker processes: at most
    ``jobs``, one per CPU and one per scenario.  When that allows only one
    worker they run in this process, as with ``jobs=1``.
    """
    paths = sorted(str(p) for p in paths)
    run = functools.partial(run_scenario, tol=tol, seed=seed,
                            no_timestamp=no_timestamp)
    workers = min(jobs, len(paths), os.cpu_count() or 1)
    if workers > 1:
        results = _run_in_processes(run, paths, workers)
    else:
        results = [run(p) for p in paths]
    reports = [r for r, _ in results]
    reports.sort(key=lambda r: r.get("scenario", ""))
    exit_code = max((c for _, c in results), default=0)
    return reports, exit_code


def _run_in_processes(run, paths, workers):
    # imported here so that a serial run never loads multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork hands the imported package to the workers instead of importing
    # it again in each; the command line loads OpenBLAS without its worker
    # threads, and a library caller's OpenBLAS stops its own before a fork
    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else None)
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context(method)
                             ) as pool:
        futures = [pool.submit(run, p) for p in paths]
        results = []
        for path, future in zip(paths, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                results.append(({"scenario": _name_of(path),
                                 "error": "worker process died: %s" % exc,
                                 "error_kind": "execution"}, 3))
    return results
