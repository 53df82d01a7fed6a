"""End-to-end benchmark of the invariance CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark drives the CLI
(``python -m invariance.cli`` with ``PYTHONPATH=src``) as child processes
from this one single-threaded process, checks every verdict against the
scenario's hand-written ``expect`` block, and prints each metric by name
with its unit.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (all closed loops, one client, one CLI process at a time, except
for the parallel passes):

* ``shipped_suite``: ``invariance suite`` over the shipped scenarios with
  the workload seed as ``--seed``.  RK4 mechanics and ``expr.evaluate`` at
  n=1 dominate.
* ``classify_sweep``: 24 tensor/objectivity/relative scenarios, each of
  the 12 shipped quantity/mode combinations twice with a seed drawn from
  the workload seed and 50 rotations, run by one ``invariance suite``.
  ``expr.evaluate_many`` over 200 points dominates; mechanics does nothing.
* ``cold_check``: a seeded sequence of single ``invariance check``
  invocations of the cheap NS, geometry, closure and Christoffel
  scenarios.  Package import dominates.

A pass is one unit of a workload's work: the suite, or four checks.  Each
run alternates a serial pass (``--jobs 1``, one process at a time) with a
parallel pass (``--jobs $(nproc)``, or the four checks from ``nproc``
concurrent clients) until ``--seconds`` have passed, and reports medians.

With ``--trace 0`` it reports the end-to-end metrics.  ``setup_s`` is a
fresh-process ``import invariance.cli``, the median of several.  The
latency tail of the serial invocations is printed with its percentile and
sample count but is not a metric: a run holds too few invocations.  With
``--trace 1`` it alternates traced and untraced serial passes, the traced
ones running the CLI under ``tracer.py``, and reports the per-layer
metrics: span self times and exact work counts, ``-X importtime`` import
costs, and the tracing overhead.  Counts must repeat exactly between
traced passes, and every ``integrate`` call must make exactly four
``force_at`` calls per step; otherwise the run is not correct.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIPPED = SRC / "invariance" / "scenarios"
WORK = BENCH / ".work"

IMPORT_ARGV = ("-c", "import invariance.cli")
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
SWEEP_COPIES = 2
SWEEP_ROTATIONS = 50
CHECKS_PER_PASS = 4
COLD_CHECK_PREFIXES = ("ns_", "christoffel_", "covariant_derivative_",
                       "geometric_suite", "closure_")
MIN_TRACED_PASSES = 2
WATCHDOG_S = 170

NPROC = os.cpu_count() or 1

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "parallel_wall_s": "s",
    "latency_p50_s": "s", "peak_rss_mb": "MiB",
}

# Per-layer time metrics: metric name -> (span name, "self" or "total").
SPAN_TIMES = {
    "mechanics.check_noninertial_closure.self_s":
        ("mechanics.check_noninertial_closure", "self"),
    "mechanics.check_galilei_covariance.self_s":
        ("mechanics.check_galilei_covariance", "self"),
    "expr.evaluate.self_s": ("expr.evaluate", "self"),
    "expr.evaluate_many.self_s": ("expr.evaluate_many", "self"),
    "expr.expand_derivatives.self_s": ("expr.expand_derivatives", "self"),
    "sampling.sample_points.self_s": ("sampling.sample_points", "self"),
    "report.run_scenario.self_s": ("report.run_scenario", "self"),
}
SPAN_TIMES.update({
    "checks.classify.%s.self_s" % f: ("checks.classify." + f, "self")
    for f in ("check_form_invariance", "check_objectivity",
              "check_relative_objectivity")})
SPAN_TIMES.update({
    "ns.%s.self_s" % f: ("ns." + f, "self")
    for f in ("check_ns_symmetry", "check_decomposed_symmetry",
              "screen_closure")})
SPAN_TIMES.update({
    "checks.geometry.%s.self_s" % f: ("checks.geometry." + f, "self")
    for f in ("christoffel_transform", "closed_form_christoffel",
              "check_covariant_derivative", "geometric_invariance_suite")})
SPAN_TIMES.update({
    "report.kind.%s_s" % k: ("report.kind." + k, "total")
    for k in ("tensor", "objectivity", "relative", "christoffel",
              "geometric-suite", "mechanics", "ns-symmetry", "decomposed",
              "closure-screen")})

# Per-layer counts: metric name -> span name whose calls are counted.
SPAN_CALLS = {
    "mechanics.force_at.calls": "mechanics.force_at",
    "expr.evaluate.calls": "expr.evaluate",
    "expr.evaluate_many.calls": "expr.evaluate_many",
    "sampling.sample_points.calls": "sampling.sample_points",
}


class Stopped(Exception):
    """The run hit its watchdog limit or was asked to terminate."""


class Invocation:
    """One CLI process: its arguments and the verdicts it must produce."""

    def __init__(self, args, expected):
        self.args = list(args)
        self.expected = expected      # scenario name -> expect block


# ---------------------------------------------------------------------------
# workloads: each maps a pass number to the invocations of that pass
# ---------------------------------------------------------------------------

def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _shipped():
    return {p: _read(p) for p in sorted(SHIPPED.glob("*.json"))}


class Suite:
    """One ``invariance suite`` process per pass; ``--jobs $(nproc)`` in
    the parallel pass."""

    def __init__(self, directory, expected, extra=()):
        args = ["suite", str(directory), *extra, "--json", "--no-timestamp"]
        self.serial_pass = [Invocation(args, expected)]
        self.parallel_pass = [Invocation(args + ["--jobs", str(NPROC)],
                                         expected)]

    def serial(self, i):
        return self.serial_pass

    def parallel(self, i):
        return self.parallel_pass, 1


def shipped_suite(seed, workdir):
    expected = {d["name"]: d.get("expect", {}) for d in _shipped().values()}
    # the CLI's sampling seed must be non-negative
    return Suite(SHIPPED, expected, ("--seed", str(seed % 2 ** 32)))


def classify_sweep(seed, workdir):
    # every quantity/mode combination the same number of times, so the
    # seed changes the rotations and points but not the amount of work
    rng = random.Random(seed)
    bases = [d for d in _shipped().values()
             if d["kind"] in ("tensor", "objectivity", "relative")]
    directory = workdir / "sweep"
    directory.mkdir()
    expected = {}
    for i, base in enumerate(bases * SWEEP_COPIES):
        doc = json.loads(json.dumps(base))
        doc["name"] = "sweep_%02d_%s" % (i, base["name"])
        doc["seed"] = rng.randrange(1, 2 ** 31)
        doc["payload"]["rotations"] = SWEEP_ROTATIONS
        with open(directory / (doc["name"] + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        expected[doc["name"]] = doc.get("expect", {})
    return Suite(directory, expected)


class ColdCheck:
    """Four ``invariance check`` processes per pass, drawn in sequence;
    ``nproc`` concurrent clients in the parallel pass."""

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.pool = [(p, d) for p, d in _shipped().items()
                     if d["name"].startswith(COLD_CHECK_PREFIXES)]
        self.drawn = []

    def serial(self, i):
        while len(self.drawn) <= i:
            unit = []
            for _ in range(CHECKS_PER_PASS):
                path, doc = self.rng.choice(self.pool)
                args = ["check", str(path),
                        "--seed", str(self.rng.randrange(1, 2 ** 31)),
                        "--json", "--no-timestamp"]
                unit.append(Invocation(args, {doc["name"]:
                                              doc.get("expect", {})}))
            self.drawn.append(unit)
        return self.drawn[i]

    def parallel(self, i):
        return self.serial(i), NPROC


WORKLOADS = {
    "shipped_suite": shipped_suite,
    "classify_sweep": classify_sweep,
    "cold_check": ColdCheck,
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts CLI processes with output to files and reaps them."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ)
        # measure the package as installed, with its bytecode cached
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.live = set()
        self.count = 0

    def _spawn(self, argv):
        self.count += 1
        out = self.workdir / ("%d.out" % self.count)
        err = self.workdir / ("%d.err" % self.count)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv],
                             self.env, file_actions=[
                                 (os.POSIX_SPAWN_OPEN, 1, str(out), flags,
                                  0o644),
                                 (os.POSIX_SPAWN_OPEN, 2, str(err), flags,
                                  0o644)])
        self.live.add(pid)
        return pid, out, err

    def _reap(self, pid=-1):
        pid, status, usage = os.wait4(pid, 0)
        self.live.discard(pid)
        return pid, os.waitstatus_to_exitcode(status), usage.ru_maxrss

    def run(self, argv):
        """Run one process; return (wall_s, exit code, peak RSS in KiB,
        stdout, stderr)."""
        start = time.perf_counter()
        pid, out, err = self._spawn(argv)
        _, code, rss_kib = self._reap(pid)
        wall = time.perf_counter() - start
        return wall, code, rss_kib, out.read_text(), err.read_text()

    def run_concurrent(self, argvs, width):
        """Run the processes with at most ``width`` alive at once; return
        (wall_s, [(exit code, stdout, stderr)])."""
        start = time.perf_counter()
        pending = list(enumerate(argvs))
        running = {}
        results = [None] * len(argvs)
        while pending or running:
            while pending and len(running) < width:
                i, argv = pending.pop(0)
                pid, out, err = self._spawn(argv)
                running[pid] = (i, out, err)
            pid, code, _ = self._reap()
            i, out, err = running.pop(pid)
            results[i] = (code, out.read_text(), err.read_text())
        return time.perf_counter() - start, results

    def kill_all(self):
        for pid in list(self.live):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while self.live:
            self._reap(self.live.pop())


# ---------------------------------------------------------------------------
# verdict checking
# ---------------------------------------------------------------------------

def check_verdicts(inv, code, stdout, stderr):
    """Return (attempted, failed, problems) for one CLI process.

    A scenario fails when the process exits non-zero, its report is
    missing or carries an ``error``, any part named in its ``expect``
    block differs from it, or a part passes with a non-finite residual.
    """
    problems = []
    try:
        reports = json.loads(stdout)
    except ValueError:
        reports = []
        problems.append("unparseable output: %s" % stderr.strip()[-300:])
    if isinstance(reports, dict):
        reports = [reports]
    by_name = {r.get("scenario"): r for r in reports}
    if code != 0:
        problems.append("exit code %d: %s" % (code, stderr.strip()[-300:]))
    failed = 0
    for name, expect in inv.expected.items():
        r = by_name.get(name)
        why = []
        if r is None:
            why.append("no report")
        elif "error" in r:
            why.append("error %s" % r["error"])
        else:
            parts, residuals = r.get("parts", {}), r.get("residuals", {})
            why += ["%s=%s, expected %s" % (k, parts.get(k), bool(v))
                    for k, v in expect.items() if parts.get(k) is not bool(v)]
            why += ["%s passes with residual %r" % (k, residuals.get(k))
                    for k, ok in parts.items()
                    if ok and not math.isfinite(residuals.get(k, math.nan))]
        if why or code != 0:
            failed += 1
            problems += ["%s: %s" % (name, w) for w in why]
    extra = sorted(set(by_name) - set(inv.expected))
    if extra:
        problems.append("unexpected reports: %s" % ", ".join(extra))
    return len(inv.expected) + len(extra), failed + len(extra), problems


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, inv, code, stdout, stderr):
        attempted, failed, problems = check_verdicts(inv, code, stdout,
                                                     stderr)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples beyond it (the maximum
    when there are fewer than eleven): (value, percentile, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def measure_setup(runner, tally):
    walls = []
    for _ in range(SETUP_RUNS):
        wall, code, _, _, err = runner.run(IMPORT_ARGV)
        if code != 0:
            tally.failed += 1
            tally.problems.append("import failed: %s" % err.strip()[-300:])
        walls.append(wall)
    return statistics.median(walls)


def run_loop(seconds, steps):
    """Call the step functions in turn until ``seconds`` have passed.

    Once every step has run ``minimum`` times, a step is not started when
    more than half of the time its last run took would fall past the
    deadline.  ``steps`` is a list of (function, minimum).
    """
    deadline = time.perf_counter() + seconds
    last = [0.0] * len(steps)
    done = [0] * len(steps)
    i = 0
    while True:
        for k, (fn, minimum) in enumerate(steps):
            satisfied = all(d >= m for d, (_, m) in zip(done, steps))
            if satisfied and time.perf_counter() + last[k] / 2 > deadline:
                return
            start = time.perf_counter()
            fn(i)
            last[k] = time.perf_counter() - start
            done[k] += 1
        i += 1


def end_to_end(workload, runner, tally, seconds):
    setup = measure_setup(runner, tally)
    serial_walls, parallel_walls, latencies, rss = [], [], [], []

    def serial(i):
        start = time.perf_counter()
        for inv in workload.serial(i):
            wall, code, rss_kib, out, err = runner.run(
                ["-m", "invariance.cli", *inv.args])
            tally.add(inv, code, out, err)
            latencies.append(wall)
            rss.append(rss_kib / 1024.0)
        serial_walls.append(time.perf_counter() - start)

    def parallel(i):
        invs, width = workload.parallel(i)
        wall, results = runner.run_concurrent(
            [["-m", "invariance.cli", *inv.args] for inv in invs], width)
        for inv, (code, out, err) in zip(invs, results):
            tally.add(inv, code, out, err)
        parallel_walls.append(wall)

    run_loop(seconds, [(serial, 1), (parallel, 1)])
    tail_value, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(serial_walls),
        "parallel_wall_s": statistics.median(parallel_walls),
        "latency_p50_s": statistics.median(latencies),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = ["setup_s is the median of %d fresh imports" % SETUP_RUNS,
             "passes: %d serial, %d parallel (width %d)"
             % (len(serial_walls), len(parallel_walls), NPROC),
             "latency_tail_s %.6f s is p%.0f of %d serial invocations"
             % (tail_value, tail_pct, n)]
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            notes)


def import_times(runner, tally):
    """Median ``-X importtime`` costs of numpy, invariance.sampling (which
    pulls in scipy) and the invariance modules' own code, in seconds."""
    samples = {"import.numpy_s": [], "import.sampling_s": [],
               "import.invariance_self_s": []}
    line = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|(\s*)(\S+)")
    for _ in range(IMPORTTIME_RUNS):
        _, code, _, _, err = runner.run(["-X", "importtime",
                                         *IMPORT_ARGV])
        if code != 0:
            tally.failed += 1
            tally.problems.append("import failed: %s" % err.strip()[-300:])
        own = numpy_us = sampling_us = 0
        for m in line.finditer(err):
            self_us, cumulative_us, name = (int(m.group(1)),
                                            int(m.group(2)), m.group(4))
            if name == "numpy":
                numpy_us = cumulative_us
            elif name == "invariance.sampling":
                sampling_us = cumulative_us
            if name == "invariance" or name.startswith("invariance."):
                own += self_us
        samples["import.numpy_s"].append(numpy_us * 1e-6)
        samples["import.sampling_s"].append(sampling_us * 1e-6)
        samples["import.invariance_self_s"].append(own * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}


def _merge(summaries):
    """Sum the per-process trace summaries of one pass."""
    out = {"calls": {}, "total_s": {}, "self_s": {},
           "layer_self_s": {layer: 0.0 for layer in tracer.LAYERS}}
    for s in summaries:
        for key in ("calls", "total_s", "self_s", "layer_self_s"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for key in ("points", "node_points", "dag_nodes", "steps",
                    "rk4_mismatches"):
            out[key] = out.get(key, 0) + s[key]
    return out


def _counts(s):
    """The exact work counts of one traced pass."""
    return {"calls": s["calls"], "points": s["points"],
            "node_points": s["node_points"], "dag_nodes": s["dag_nodes"],
            "steps": s["steps"]}


def layer_metrics(s):
    """Per-layer metrics of one traced pass: (times, counts)."""
    calls, total, self_s = s["calls"], s["total_s"], s["self_s"]

    def per(numerator_s, denominator):
        return numerator_s * 1e6 / denominator if denominator else 0.0

    times = {m: (self_s if how == "self" else total).get(span, 0.0)
             for m, (span, how) in SPAN_TIMES.items()}
    times.update({"layer.%s.self_s" % layer: v
                  for layer, v in s["layer_self_s"].items()})
    times["mechanics.force_at.us_per_call"] = per(
        total.get("mechanics.force_at", 0.0),
        calls.get("mechanics.force_at", 0))
    times["mechanics.integrate.us_per_step"] = per(
        total.get("mechanics.integrate", 0.0), s["steps"])
    times["expr.evaluate_many.us_per_node_point"] = per(
        self_s.get("expr.evaluate_many", 0.0), s["node_points"])
    # argument parsing, globbing and report printing
    times["cli.overhead_s"] = (total.get("cli.main", 0.0)
                               - total.get("report.run_scenario", 0.0))
    counts = {m: calls.get(span, 0) for m, span in SPAN_CALLS.items()}
    counts["mechanics.integrate.steps"] = s["steps"]
    counts["expr.evaluate_many.points"] = s["points"]
    counts["expr.dag_nodes"] = s["dag_nodes"]
    return times, counts


def per_layer(workload, runner, tally, seconds):
    metrics = {k: (v, "s") for k, v in import_times(runner, tally).items()}
    traced_walls, plain_walls, passes = [], [], []

    # every pass runs the same invocations, so counts must repeat exactly
    invocations = workload.serial(0)

    def traced(_):
        summaries, wall = [], 0.0
        for inv in invocations:
            out = str(runner.workdir / ("trace%d" % runner.count))
            elapsed, code, _, stdout, err = runner.run(
                [str(BENCH / "tracer.py"), out, "--", *inv.args])
            wall += elapsed
            tally.add(inv, code, stdout, err)
            try:
                summaries.append(tracer.summarize(tracer.load(out)))
                for suffix in (".json", ".spans"):
                    os.remove(out + suffix)
            except OSError as exc:
                tally.failed += 1
                tally.problems.append("no trace written: %s" % exc)
        traced_walls.append(wall)
        passes.append(_merge(summaries))

    def plain(_):
        wall = 0.0
        for inv in invocations:
            elapsed, code, _, out, err = runner.run(
                ["-m", "invariance.cli", *inv.args])
            wall += elapsed
            tally.add(inv, code, out, err)
        plain_walls.append(wall)

    run_loop(seconds, [(traced, MIN_TRACED_PASSES), (plain, 1)])
    reference = _counts(passes[0])
    timed = []
    for s in passes:
        if s["rk4_mismatches"]:
            tally.failed += 1
            tally.problems.append("%d integrate calls without exactly 4 "
                                  "force_at calls per step"
                                  % s["rk4_mismatches"])
        if _counts(s) != reference:
            tally.failed += 1
            tally.problems.append("trace counts differ between passes")
        timed.append(layer_metrics(s))
    for name in timed[0][0]:
        metrics[name] = (statistics.median(t[name] for t, _ in timed),
                         "us" if ".us_per_" in name else "s")
    for name, value in timed[0][1].items():
        metrics[name] = (value, "count")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls), "s")
    notes = ["passes: %d traced, %d untraced" % (len(traced_walls),
                                                 len(plain_walls)),
             "counts are from the first traced pass"]
    return metrics, notes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _versions():
    out = ["nproc=%d" % NPROC, "python=%s" % platform.python_version()]
    for dist in ("numpy", "scipy"):
        try:
            out.append("%s=%s" % (dist, importlib.metadata.version(dist)))
        except importlib.metadata.PackageNotFoundError:
            out.append("%s=absent" % dist)
    return " ".join(out)


def _stop(signum, frame):
    raise Stopped("stopped by %s" % signal.Signals(signum).name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "invariance" / "cli.py").is_file():
        print("error: no invariance sources under %s" % SRC,
              file=sys.stderr)
        return 2

    # either signal ends the run through ``finally``, which stops every
    # child process still alive
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(WATCHDOG_S)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    runner = Runner(workdir)
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        # writes the bytecode cache and warms the file cache
        runner.run(IMPORT_ARGV)
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(workload, runner, tally, args.seconds)
    except Stopped as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        runner.kill_all()
        shutil.rmtree(workdir, ignore_errors=True)

    print("workload=%s seed=%d trace=%d %s"
          % (args.workload, args.seed, args.trace, _versions()))
    for note in notes:
        print("# " + note)
    for name, (value, unit) in metrics.items():
        print("%-48s %14.6f %s" % (name, value, unit))
    print("failed_fraction %d/%d" % (tally.failed, tally.attempted))
    for problem in tally.problems[:20]:
        print("FAILED: " + problem, file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
