"""Scenario loading, check dispatch, and report assembly.

A scenario is a JSON document with a versioned schema: it names one
check kind, a kind-specific payload, optional tolerance/seed overrides,
and an ``expect`` block of anticipated pass/fail outcomes that the
runner re-asserts.  Each kind has one runner, which returns the checks'
own ``CheckPart``s (naming a one-part check's part) and kind-specific
details; a part's flag always means that its residual passed, and only
``expect`` says whether it should.  Every classifier kind runs
``checks.classify``.  ``details`` maps each part to its witness and
notes.  Reports are deterministic: with timestamps disabled, two runs
over the same inputs are byte-identical.
"""

import functools
import hashlib
import json
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


def _parse_ns_spec(d):
    cls = fr.NS_SYMMETRIES.get(d.get("tag")) if isinstance(d, dict) else None
    if cls is None:
        raise SchemaError("unknown symmetry %r" % (d,))
    try:
        return cls.from_json(d)
    except (KeyError, TypeError, ValueError, ex.ExprError) as exc:
        raise SchemaError("malformed %s symmetry %r: %s"
                          % (cls.json_tag, d, exc))


# ---------------------------------------------------------------------------
# kind runners: each returns ({part name: CheckPart}, details)
# ---------------------------------------------------------------------------

def _run_classify(payload, tol, seed):
    name = payload.get("quantity")
    if name not in QUANTITIES:
        raise SchemaError("unknown quantity %r" % name)
    q = QUANTITIES[name]()
    n_rotations = int(payload.get("rotations", 10))
    if n_rotations < 1:
        raise SchemaError("'rotations' must be at least 1")
    specs = ck.random_rotations(n_rotations, seed=seed)
    return ck.classify(q, specs, tol=tol, seed=seed,
                       objectivity_mode=payload.get("mode")), {}


def _run_christoffel(payload, tol, seed):
    chart_name = payload.get("chart")
    if chart_name not in geo.CHARTS:
        raise SchemaError("unknown chart %r" % chart_name)
    chart = geo.CHARTS[chart_name]
    which = payload.get("check", "transform")
    if which == "transform":
        pts = chart.sample(int(payload.get("points", 50)), seed)
        got = geo.christoffel_transform(np.zeros((3, 3, 3)), chart, pts)
        ref = geo.closed_form_christoffel(chart_name, pts)
        t = np.zeros(pts.shape[1])
        return ({"match": CheckPart.of(np.abs(got - ref), tol,
                                       (t, chart.cartesian(pts)))},
                {"points": int(pts.shape[1])})
    if which == "covariant_derivative":
        phi = ex.parse_field_expr(payload.get("field", "dot(x, x)"))
        return geo.check_covariant_derivative(
            ex.grad(phi), chart, int(payload.get("points", 50)), tol,
            seed), {}
    raise SchemaError("unknown christoffel check %r" % which)


def _run_geometric_suite(payload, tol, seed):
    return geo.geometric_invariance_suite(int(payload.get("points", 100)),
                                          tol, seed), {}


def _run_mechanics(payload, tol, seed):
    name = payload.get("model", "oscillator")
    if name not in MECHANICS_MODELS:
        raise SchemaError("unknown mechanics model %r" % name)
    model = MECHANICS_MODELS[name](**payload.get("params", {}))
    check = payload.get("check")
    dt = float(payload.get("dt", 1e-3))
    steps = int(payload.get("steps", 1000))
    if check == "oscillator_reference":
        traj = mech.integrate(model, (np.array([1.0, 0, 0]),
                                      np.zeros(3), 0.0), dt, steps)
        return {"reference": CheckPart.of(
            np.abs(traj.x[0] - np.cos(traj.t)), tol, (traj.t, traj.x))}, {}
    if check == "terminal_speed":
        traj = mech.integrate(model, (np.zeros(3), np.zeros(3), 0.0),
                              dt, steps)
        expected = payload.get("expected_vz", -1.0)
        return ({"terminal": CheckPart.of(abs(traj.v[2, -1] - expected),
                                          tol)},
                {"vz": float(traj.v[2, -1])})
    if check == "frame_indifference":
        spec = fr.FrameChange.random_galilei(np.random.default_rng(seed))
        return {"frame_indifference": mech.check_force_frame_indifference(
            model, spec, tol=tol, seed=seed,
            transport_refs=payload.get("transport_refs", True))}, {}
    if check == "galilei_covariance":
        spec = fr.FrameChange.random_galilei(np.random.default_rng(seed))
        ic = (np.array(payload.get("x0", [0.3, -0.2, 0.1])),
              np.array(payload.get("v0", [0.2, 0.1, 0.0])), 0.0)
        return {"covariance": mech.check_galilei_covariance(
            model, spec, ic, dt, steps)}, {}
    if check == "noninertial_closure":
        rot = payload.get("rotation", {"axis": [0, 0, 1], "rate": 0.5})
        spec = fr.FrameChange.euclidean(rotation=fr.RotationSpec(
            axis=rot["axis"], rate=float(rot["rate"])))
        ic = (np.array(payload.get("x0", [0.5, 0.2, 0.0])),
              np.array(payload.get("v0", [0.1, 0.0, 0.0])), 0.0)
        traj = mech.integrate(model, ic, dt, steps)
        return {"closure": mech.check_noninertial_closure(
            model, spec, traj, tol=tol,
            include_drag_term=payload.get("include_drag_term", True),
            drag_coeff=float(payload.get("drag_coeff", 1.0)))}, {}
    raise SchemaError("unknown mechanics check %r" % check)


def _run_ns_symmetry(payload, tol, seed):
    sol = payload.get("solution")
    if sol not in ns.SOLUTIONS:
        raise SchemaError("unknown solution %r" % sol)
    state = ns.SOLUTIONS[sol]()
    spec = _parse_ns_spec(payload.get("symmetry", {}))
    ns.certify(state)   # a non-solution is an error, not an expected FAIL
    return {"symmetry": ns.check_ns_symmetry(
        state, spec, tol=tol, seed=seed)}, {"solution": sol}


def _run_decomposed(payload, tol, seed):
    ensemble = ns.Ensemble.random(int(payload.get("members", 4096)))
    spec = _parse_ns_spec(payload.get("symmetry", {}))
    return {"symmetry": ns.check_decomposed_symmetry(
        ensemble, spec, tol=tol, seed=seed)}, {}


def _run_closure_screen(payload, tol, seed):
    name = payload.get("model")
    if name not in CLOSURE_MODELS:
        raise SchemaError("unknown closure model %r" % name)
    model = CLOSURE_MODELS[name]()
    tags = tuple(payload.get("tags", ns_closure.SCENARIO_TAGS))
    return (ns_closure.screen_closure(model, tags=tags, seed=seed),
            {"model": name})


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

_DEFAULT_TOLS = {
    "decomposed": 1e-12,
    "closure-screen": 1e-10,
    "geometric-suite": 1e-10,
    "mechanics": 1e-6,
}


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError("cannot read scenario %s: %s" % (path, exc))
    return doc


def _validate(doc):
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError("unsupported schema version %r"
                          % doc.get("schema"))
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        raise SchemaError("scenario needs a nonempty 'name'")
    if doc.get("kind") not in KINDS:
        raise SchemaError("unknown check kind %r" % doc.get("kind"))
    if not isinstance(doc.get("payload", {}), dict):
        raise SchemaError("'payload' must be an object")
    if not isinstance(doc.get("expect", {}), dict):
        raise SchemaError("'expect' must be an object")
    return doc


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


def run_scenario(path, tol=None, seed=None, no_timestamp=False):
    """Run one scenario file and return (report dict, exit code).

    Every report, an error report too, is keyed by the scenario's name,
    or by the file stem when the file does not give a name.
    """
    doc = None
    try:
        doc = _load(path)
        _validate(doc)
    except SchemaError as exc:
        return {"scenario": _name_of(path, doc or {}), "error": str(exc),
                "error_kind": "schema"}, 2

    raw = json.dumps(doc, sort_keys=True).encode()
    digest = hashlib.sha256(raw).hexdigest()
    kind = doc["kind"]
    tolerance = (tol if tol is not None
                 else doc.get("tolerance", _DEFAULT_TOLS.get(kind, 1e-9)))
    seed_used = seed if seed is not None else doc.get("seed", DEFAULT_SEED)
    started = _time.time()
    try:
        parts, details = KINDS[kind](doc.get("payload", {}), tolerance,
                                     seed_used)
    except SchemaError as exc:
        return {"scenario": doc["name"], "error": str(exc),
                "error_kind": "schema"}, 2
    except Exception as exc:  # structured execution failure, not a verdict
        return {"scenario": doc["name"], "error": str(exc),
                "error_kind": "execution"}, 3

    expect = doc.get("expect", {})
    mismatches = sorted(k for k, v in expect.items()
                        if k not in parts or not meets(parts[k], bool(v)))
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


def run_suite(paths, tol=None, seed=None, no_timestamp=False, jobs=1):
    """Run many scenarios; reports merged deterministically by name.

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
    # it again in each; numpy's OpenBLAS threads, the only other threads
    # here, stop themselves before a fork
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
