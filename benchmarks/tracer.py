"""Outside-in layer trace of the invariance CLI.

Run as ``python3 tracer.py OUT -- <invariance CLI arguments>`` with the
package importable.  It imports ``invariance.cli``, replaces each layer's
public functions with timing wrappers at every name a caller can look them
up by, runs ``invariance.cli.main`` on the arguments, and then writes the
spans it kept in memory to ``OUT.spans`` (flat int64 records) and
``OUT.json`` (span names, DAG sizes, import time).  The program itself is
not modified.  ``load`` and ``summarize`` turn the two files into
per-layer numbers without importing the program.

A span record is ``(id, name, start_ns, end_ns, parent, extra0, extra1)``.
Ids count spans in the order they start; ``parent`` is the id of the
enclosing span, or -1.  The extras carry the work count of the call: the
evaluated DAG and its point count for ``expr.evaluate_many``, the RK4 step
count for ``mechanics.integrate``, -1 otherwise.  The trace is
single-threaded: run the CLI with ``--jobs 1``.
"""

import importlib
import inspect
import itertools
import json
import sys
import time
from array import array
from collections import defaultdict

RECORD = 7

# Layer name -> modules whose ``__all__`` functions are wrapped.
LAYERS = {
    "cli": ("invariance.cli",),
    "report": ("invariance.report",),
    "checks.classify": ("invariance.checks.classify",),
    "checks.geometry": ("invariance.checks.geometry",),
    "mechanics": ("invariance.mechanics",),
    "ns": ("invariance.ns.residual", "invariance.ns.ensemble",
           "invariance.ns.closure"),
    "frames": ("invariance.frames",),
    "expr": ("invariance.expr",),
    "sampling": ("invariance.sampling",),
}

# expr's ``__all__`` is mostly node constructors, called hundreds of
# thousands of times while expressions are built and expanded; only its
# evaluation and rewriting entry points are layer boundaries.
EXPR_ENTRY_POINTS = ("evaluate", "evaluate_many", "expand_derivatives",
                     "substitute", "compose", "parse_field_expr")


class Tracer:
    """Holds the spans of one process and the wrappers that record them."""

    def __init__(self):
        self.names = []
        self.records = array("q")
        self.dags = {}
        self._ids = itertools.count()
        self._stack = [-1]

    def wrap(self, name, fn, extra=None):
        name_idx = len(self.names)
        self.names.append(name)
        ids, stack, clock = self._ids, self._stack, time.perf_counter_ns
        push, pop, record = stack.append, stack.pop, self.records.extend
        no_extra = (-1, -1)

        def traced(*args, **kwargs):
            idx = next(ids)
            parent = stack[-1]
            push(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                record((idx, name_idx, start, end, parent)
                       + (extra(args, kwargs) if extra else no_extra))

        traced.__wrapped__ = fn
        return traced

    def _evaluate_many_extra(self, args, kwargs):
        e = args[0] if args else kwargs["e"]
        t_arr = args[1] if len(args) > 1 else kwargs["t_arr"]
        self.dags[id(e)] = e
        return id(e), len(t_arr)

    def install(self):
        """Wrap every layer function at each name that refers to it.

        A module, function or class that the program no longer has is
        skipped: its spans are simply absent from the trace.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == "invariance" or n.startswith("invariance.")]
        extras = {"expr.evaluate_many": self._evaluate_many_extra,
                  "mechanics.integrate": _integrate_steps}
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                # importlib, not attribute access: ``invariance.checks``
                # re-exports a function named ``classify`` that shadows the
                # submodule of the same name.
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                names = (EXPR_ENTRY_POINTS if layer == "expr"
                         else getattr(module, "__all__", ()))
                for fname in names:
                    fn = getattr(module, fname, None)
                    if not (inspect.isfunction(fn)
                            and fn.__module__ == module_name):
                        continue
                    span = "%s.%s" % (layer, fname)
                    wrapped = self.wrap(span, fn, extras.get(span))
                    # callers that did ``from .expr import evaluate_many``
                    # hold their own reference to the function
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, attr, wrapped)
        model = getattr(sys.modules.get("invariance.mechanics"),
                        "ForceModel", None)
        if model is not None:
            model.force_at = self.wrap("mechanics.force_at", model.force_at)
        kinds = getattr(sys.modules.get("invariance.report"), "KINDS", {})
        for kind, fn in list(kinds.items()):
            kinds[kind] = self.wrap("report.kind.%s" % kind, fn)

    def dump(self, out, import_ns):
        expand = importlib.import_module("invariance.expr").expand_derivatives
        expand = getattr(expand, "__wrapped__", expand)
        # the evaluator walks the expanded DAG, so that is the one counted
        dag_nodes = {str(k): _count_nodes(expand(e))
                     for k, e in self.dags.items()}
        with open(out + ".spans", "wb") as fh:
            self.records.tofile(fh)
        with open(out + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "dag_nodes": dag_nodes,
                       "import_ns": import_ns}, fh)


def _integrate_steps(args, kwargs):
    return (args[3] if len(args) > 3 else kwargs["n_steps"]), -1


def _count_nodes(root):
    seen = {id(root)}
    todo = [root]
    while todo:
        for arg in todo.pop().args:
            if id(arg) not in seen:
                seen.add(id(arg))
                todo.append(arg)
    return len(seen)


def load(out):
    """Read the two files ``dump`` wrote for the trace ``out``."""
    with open(out + ".json", encoding="utf-8") as fh:
        doc = json.load(fh)
    records = array("q")
    with open(out + ".spans", "rb") as fh:
        records.frombytes(fh.read())
    doc["records"] = records
    return doc


def summarize(doc):
    """Per-span-name totals plus the exact work counts of one trace.

    Returns ``calls``, ``total_s`` and ``self_s`` keyed by span name,
    ``layer_self_s`` keyed by layer, the counts ``points``,
    ``node_points`` (DAG nodes times points, summed over evaluator calls),
    ``dag_nodes`` (nodes over all distinct evaluated DAGs) and ``steps``,
    ``rk4_mismatches``: the number of ``mechanics.integrate`` calls whose
    direct ``force_at`` children are not exactly four per step, and
    ``import_s``, the in-process import of ``invariance.cli``.
    """
    names, records = doc["names"], doc["records"]
    spans = [records[i:i + RECORD] for i in range(0, len(records), RECORD)]
    child_ns = defaultdict(int)
    force_children = defaultdict(int)
    force_idx = (names.index("mechanics.force_at")
                 if "mechanics.force_at" in names else -1)
    for _, name_idx, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            if name_idx == force_idx:
                force_children[parent] += 1
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    points = node_points = steps = rk4_mismatches = 0
    dag_nodes = doc["dag_nodes"]
    for idx, name_idx, start, end, _, extra0, extra1 in spans:
        name = names[name_idx]
        calls[name] += 1
        total[name] += (end - start) * 1e-9
        self_s[name] += (end - start - child_ns[idx]) * 1e-9
        if name == "expr.evaluate_many":
            points += extra1
            node_points += dag_nodes[str(extra0)] * extra1
        elif name == "mechanics.integrate":
            steps += extra0
            rk4_mismatches += force_children[idx] != 4 * extra0
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer = next(l for l in LAYERS if name.startswith(l + "."))
        layer_self[layer] += value
    return {"calls": dict(calls), "total_s": dict(total),
            "self_s": dict(self_s), "layer_self_s": layer_self,
            "points": points, "node_points": node_points,
            "dag_nodes": sum(dag_nodes.values()), "steps": steps,
            "rk4_mismatches": rk4_mismatches,
            "import_s": doc["import_ns"] * 1e-9}


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py OUT -- <invariance arguments>",
              file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    start = time.perf_counter_ns()
    cli = importlib.import_module("invariance.cli")
    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out, import_ns)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
