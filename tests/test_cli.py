import concurrent.futures
import importlib.machinery
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

import invariance
from invariance import mechanics as mech
from invariance import ns
from invariance.cli import _BUILTIN_HASHES, main
from invariance.report import run_scenario, run_suite

SCENARIOS = Path(str(resources.files("invariance") / "scenarios"))


def shipped(name):
    return str(SCENARIOS / (name + ".json"))


class RanInTestProcess(BaseException):
    """Raised by a patched runner that should only run in a worker; not an
    ``Exception``, so ``run_scenario`` cannot turn it into a report."""


def in_fresh_interpreter(code, **env):
    """Standard output of ``python -c code`` in a fresh interpreter that
    imports the package under test, so that modules the test session
    loaded do not count.  Each keyword sets that environment variable, or
    with the value None removes it."""
    src = str(Path(invariance.__file__).resolve().parents[1])
    environ = dict(os.environ, PYTHONPATH=src, **env)
    environ = {k: v for k, v in environ.items() if v is not None}
    out = subprocess.run([sys.executable, "-c", code], env=environ,
                         capture_output=True, text=True, check=True)
    return out.stdout


def modules_after(imports):
    """Names in ``sys.modules`` after ``import imports`` in a fresh
    interpreter."""
    return in_fresh_interpreter(
        "import sys, %s; print('\\n'.join(sys.modules))" % imports).split()


def threads_after_import(module, blas_threads=None):
    """(entries in ``/proc/self/task``, ``OPENBLAS_NUM_THREADS``) after
    ``import module`` in a fresh interpreter whose environment sets no
    BLAS thread count, or sets ``OPENBLAS_NUM_THREADS`` to
    ``blas_threads``."""
    count, value = in_fresh_interpreter(
        "import os, %s; print(len(os.listdir('/proc/self/task')),"
        " os.environ.get('OPENBLAS_NUM_THREADS'))" % module,
        OPENBLAS_NUM_THREADS=blas_threads, GOTO_NUM_THREADS=None,
        OMP_NUM_THREADS=None).split()
    return int(count), value


class TestRunScenario:
    def test_basic_pass(self):
        report, code = run_scenario(shipped("classify_strain_rate"), None,
                                    None)
        assert code == 0
        assert report["parts"] == {"tensor": True, "objective": True}
        assert report["expectation_met"]
        assert report["input_digest"].startswith("sha256:")

    def test_expected_fail_is_not_an_error(self):
        report, code = run_scenario(shipped("classify_velocity"), None, None)
        assert code == 0
        assert report["parts"]["tensor"] is False
        assert report["expectation_met"]

    def test_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99, "name": "x",
                                   "kind": "tensor"}))
        report, code = run_scenario(str(bad), None, None)
        assert code == 2 and report["error_kind"] == "schema"

    def test_schema_error_reports_by_name_or_stem(self, tmp_path):
        named = tmp_path / "file_name.json"
        named.write_text(json.dumps({"schema": 99, "name": "given_name",
                                     "kind": "tensor"}))
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{not json")
        reports, code = run_suite([str(named), str(malformed)], None, None,
                                  no_timestamp=True)
        assert code == 2
        assert sorted(r["scenario"] for r in reports) == \
            ["given_name", "malformed"]
        assert all(r["error_kind"] == "schema" for r in reports)

    def test_unknown_kind_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "name": "x",
                                   "kind": "nope", "payload": {}}))
        _, code = run_scenario(str(bad), None, None)
        assert code == 2

    def test_execution_error(self, tmp_path):
        # S5 on a viscous solution raises inside the checker
        doc = {"schema": 1, "name": "boom", "kind": "ns-symmetry",
               "payload": {"solution": "beltrami",
                           "symmetry": {"tag": "S5", "a": 0.2}},
               "expect": {}}
        p = tmp_path / "boom.json"
        p.write_text(json.dumps(doc))
        report, code = run_scenario(str(p), None, None)
        assert code == 3 and report["error_kind"] == "execution"

    def test_broken_base_flow_is_execution_error(self, monkeypatch):
        # a Beltrami flow whose decay disagrees with its viscosity solves
        # nothing: the base flow's certificate must stop it before its 3D
        # rotation meets the negative control's expected FAIL
        monkeypatch.setitem(ns.SOLUTIONS, "beltrami",
                            lambda: replace(ns.beltrami(), nu=0.5))
        report, code = run_scenario(shipped("ns_r3d_negative_control"),
                                    None, None)
        assert code == 3 and report["error_kind"] == "execution"
        assert "not an exact solution" in report["error"]
        assert main(["check", shipped("ns_r3d_negative_control")]) == 3

    @pytest.mark.parametrize("symmetry", [
        {"tag": "S1"}, {"tag": "S3", "axis": 7}, "S1",
        {"tag": "S5", "a": "x"}, {"tag": "G", "c1": [1, 2]},
        {"tag": "S9"},
    ], ids=["missing-eps", "bad-axis", "not-an-object", "non-numeric",
            "short-vector", "unknown-tag"])
    def test_malformed_symmetry_is_schema_error(self, tmp_path, symmetry):
        doc = {"schema": 1, "name": "bad", "kind": "ns-symmetry",
               "payload": {"solution": "beltrami", "symmetry": symmetry},
               "expect": {}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        report, code = run_scenario(str(p), None, None)
        assert code == 2 and report["error_kind"] == "schema"

    def test_zero_rotations_is_schema_error(self, tmp_path):
        # no rotation means nothing was compared: not a vacuous PASS
        doc = {"schema": 1, "name": "none", "kind": "tensor",
               "payload": {"quantity": "strain_rate", "rotations": 0}}
        p = tmp_path / "none.json"
        p.write_text(json.dumps(doc))
        report, code = run_scenario(str(p), None, None)
        assert code == 2 and report["error_kind"] == "schema"

    def test_tolerance_override_flips_verdict(self):
        report, _ = run_scenario(shipped("classify_strain_rate"), 1e-30,
                                 None)
        assert report["parts"]["tensor"] is False
        assert not report["expectation_met"]

    @pytest.mark.parametrize("base, where, key, value", [
        ("classify_strain_rate", "payload", "rotations", "abc"),
        ("classify_strain_rate", "payload", "rotations", 2.7),
        ("classify_composite_norm_explicit", "payload", "mode", "weird"),
        ("classify_velocity_relative", "payload", "mode", "full"),
        ("classify_velocity", "payload", "quantity", ["velocity"]),
        ("mech_noninertial_closure", "payload", "params", {"zeta": 1}),
        ("mech_noninertial_closure", "payload", "dt", "x"),
        ("mech_noninertial_closure", "payload", "dt", -1),
        ("mech_noninertial_closure", "payload", "rotaton",
         {"axis": [0, 0, 1], "rate": 0.5}),
        ("mech_noninertial_closure", "payload", "drag_coeff", 1.0),
        ("closure_compliant", "payload", "tags", ["XX"]),
        ("closure_compliant", "payload", "tags", "G"),
        ("decomposed_s1_scaling", "payload", "members", 0),
        ("christoffel_spherical", "payload", "points", 0),
        ("christoffel_spherical", "payload", "chart", ["spherical"]),
        ("covariant_derivative_spherical", "payload", "field", "dot(x, "),
        ("classify_strain_rate", None, "tolerance", "abc"),
        ("classify_strain_rate", None, "seed", "abc"),
        ("classify_strain_rate", None, "tolerence", 1e-12),
        ("classify_strain_rate", None, "expect", {"tensor": "false"}),
    ], ids=["rotations-text", "rotations-fraction", "mode-unknown",
            "mode-of-a-relative-quantity", "quantity-list",
            "params-unknown", "dt-text", "dt-negative", "rotation-misspelt",
            "drag-coeff-removed", "tags-unknown", "tags-text",
            "members-zero", "points-zero", "chart-list", "field-unparsable",
            "tolerance-text", "seed-text", "tolerance-misspelt",
            "expect-text"])
    def test_malformed_value_is_schema_error(self, tmp_path, base, where,
                                             key, value):
        # every payload value is read and checked before a check runs,
        # and a key that nothing reads is refused, not ignored
        doc = json.loads(Path(shipped(base)).read_text())
        (doc[where] if where else doc)[key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        report, code = run_scenario(str(p), None, None)
        assert code == 2 and report["error_kind"] == "schema", report
        assert repr(key) in report["error"]

    @pytest.mark.parametrize("tol, seed, key", [
        (float("nan"), None, "tolerance"), (-1.0, None, "tolerance"),
        (None, -1, "seed")])
    def test_malformed_override_is_schema_error(self, tol, seed, key):
        # an override is read as the scenario's own value is
        report, code = run_scenario(shipped("classify_strain_rate"), tol,
                                    seed)
        assert code == 2 and report["error_kind"] == "schema"
        assert repr(key) in report["error"]

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in SCENARIOS.glob("mech_*.json")))
    def test_mechanics_tolerance_is_required(self, tmp_path, name):
        # each mechanics check has its own error scale, so no kind default
        # stands in for it: a scenario without one is a schema error
        # unless --tol gives it
        doc = json.loads(Path(shipped(name)).read_text())
        del doc["tolerance"]
        p = tmp_path / "untold.json"
        p.write_text(json.dumps(doc))
        report, code = run_scenario(str(p), None, None)
        assert code == 2 and report["error_kind"] == "schema"
        assert repr("tolerance") in report["error"]
        assert main(["check", str(p)]) == 2
        report, code = run_scenario(str(p), 1e-5, None)
        assert code == 0 and report["tolerance"] == 1e-5

    @pytest.mark.parametrize("model, params", [
        ("oscillator", {}), ("drag_gravity", {"a": 2.0})])
    def test_closure_drag_is_the_models(self, tmp_path, model, params):
        # the inertial force carries the law's own drag coupling, whatever
        # it is: none for the oscillator, 2 for a doubled drag
        doc = json.loads(Path(shipped("mech_noninertial_closure"))
                         .read_text())
        doc["payload"].update(model=model, params=params)
        p = tmp_path / "closure.json"
        p.write_text(json.dumps(doc))
        report, code = run_scenario(str(p), None, None)
        assert code == 0 and report["expectation_met"]
        assert report["residuals"]["closure"] < 1e-12


class TestRunSuite:
    def test_every_part_reports_a_witness(self):
        reports, code = run_suite(sorted(SCENARIOS.glob("*.json")), None, None,
                                  no_timestamp=True)
        assert code == 0 and len(reports) == 36
        for got in reports:
            witness = got["details"]["witness"]
            assert set(witness) == set(got["parts"]), got["scenario"]
            for w in witness.values():
                assert isinstance(w["t"], float) and len(w["x"]) == 3

    def test_terminal_speed_witness_is_the_final_state(self):
        got, code = run_scenario(shipped("mech_drag_terminal_speed"), None,
                                 None, no_timestamp=True)
        traj = mech.integrate(mech.drag_gravity_model(),
                              ((0.0,) * 3, (0.0,) * 3, 0.0), 5e-3, 4_000)
        assert code == 0 and got["details"]["witness"]["terminal"] == {
            "t": traj.t[-1], "x": traj.x[:, -1].tolist()}

    def test_every_part_is_judged_at_the_report_tolerance(self):
        # at a tolerance below every nonzero residual, only an exact zero
        # may pass: no check may judge at a tolerance of its own
        for path in sorted(SCENARIOS.glob("*.json")):
            got, code = run_scenario(str(path), 1e-300, None,
                                     no_timestamp=True)
            assert code == 0 and got["tolerance"] == 1e-300
            for part, passed in got["parts"].items():
                residual = got["residuals"][part]
                assert passed == (residual == 0.0), \
                    (got["scenario"], part, residual)

    def test_merge_is_sorted_and_deterministic(self):
        names = ["classify_strain_rate", "classify_velocity",
                 "mech_frame_indifference_oscillator"]
        paths = [shipped(n) for n in names]
        reports, code = run_suite(paths, None, None, no_timestamp=True, jobs=3)
        assert code == 0
        assert [r["scenario"] for r in reports] == sorted(names)
        again, _ = run_suite(list(reversed(paths)), None, None,
                             no_timestamp=True)
        assert json.dumps(reports, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_aggregate_exit_is_max(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        reports, code = run_suite([shipped("classify_strain_rate"),
                                   str(bad)], None, None)
        assert code == 2 and len(reports) == 2

    def test_worker_count_is_clamped(self, monkeypatch):
        # a fake pool records its size and runs the calls here, so no
        # process is started whatever the clamp computes
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        names = ["classify_strain_rate", "classify_velocity",
                 "ns_s4_time_reversal_beltrami"]
        paths = [shipped(n) for n in names]
        serial, _ = run_suite(paths, None, None, no_timestamp=True)
        for cpus, jobs, n_paths, expected in [
                (64, 10 ** 5, 3, [3]),       # one worker per scenario
                (2, 10 ** 5, 3, [2]),        # one worker per CPU
                (None, 10 ** 5, 3, []),      # CPU count unknown: serial
                (64, 1, 3, []),
                (64, 10 ** 5, 1, [])]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            sizes.clear()
            reports, code = run_suite(paths[:n_paths], None, None,
                                      no_timestamp=True, jobs=jobs)
            assert sizes == expected
            assert code == 0
            assert json.dumps(reports, sort_keys=True) == \
                json.dumps(serial[:n_paths], sort_keys=True)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patched runner reaches workers by fork")
    def test_dead_worker_is_execution_error(self, monkeypatch):
        parent = os.getpid()

        def die(*args):
            if os.getpid() == parent:
                raise RanInTestProcess
            os._exit(1)

        monkeypatch.setitem(invariance.report.KINDS, "mechanics", die)
        # two CPUs, so the two scenarios cannot fall back to this process
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        paths = [shipped("classify_strain_rate"),
                 shipped("mech_frame_indifference_oscillator")]
        reports, code = run_suite(paths, None, None, no_timestamp=True, jobs=2)
        assert code == 3 and len(reports) == 2
        by_name = {r["scenario"]: r for r in reports}
        assert by_name["mech_frame_indifference_oscillator"]["error_kind"] \
            == "execution"
        # the classify scenario finished first or was lost with the pool
        other = by_name["classify_strain_rate"]
        assert other.get("expectation_met") or \
            other.get("error_kind") == "execution"


class TestCommandLine:
    def test_check_exit_zero(self, capsys):
        assert main(["check", shipped("classify_strain_rate"),
                     "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_json_output_round_trips(self, capsys):
        assert main(["check", shipped("ns_s6_rotation_taylor_green"),
                     "--json", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parts"]["symmetry"] is True
        assert report["timestamp"] == 0.0 and report["runtime_s"] == 0.0

    def test_byte_identical_reports(self, capsys):
        # determinism gate: two runs, identical bytes
        main(["check", shipped("geometric_suite"), "--json",
              "--no-timestamp"])
        first = capsys.readouterr().out
        main(["check", shipped("geometric_suite"), "--json",
              "--no-timestamp"])
        assert capsys.readouterr().out == first

    def test_schema_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["check", str(bad)]) == 2

    def test_strict_flags_missed_expectation(self, tmp_path, capsys):
        doc = json.loads(Path(shipped("classify_strain_rate")).read_text())
        doc["expect"] = {"tensor": False}
        p = tmp_path / "wrong.json"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 0
        assert main(["check", str(p), "--strict"]) == 1

    def test_demo_lists_and_runs(self, capsys):
        assert main(["demo"]) == 0
        names = capsys.readouterr().out.split()
        assert len(names) >= 15
        assert main(["demo", names[0], "--no-timestamp"]) == 0
        assert main(["demo", "no_such_scenario"]) == 2

    def test_suite_directory_validation(self, tmp_path, capsys):
        assert main(["suite", str(tmp_path / "missing")]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["suite", str(empty)]) == 2

    def test_suite_runs_subset(self, tmp_path, capsys):
        sub = tmp_path / "sub"
        sub.mkdir()
        for n in ("classify_strain_rate", "ns_s4_time_reversal_beltrami"):
            (sub / (n + ".json")).write_text(
                Path(shipped(n)).read_text())
        assert main(["suite", str(sub), "--jobs", "2",
                     "--no-timestamp", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "2/2 scenarios matched expectations" in out

    @pytest.mark.parametrize("argv", (
        ["demo"],
        ["check", shipped("mech_drag_terminal_speed"), "--json",
         "--no-timestamp"]))
    def test_a_closed_stdout_ends_quietly(self, argv):
        # the reading end is closed before the command starts, so its
        # first write fails, as behind a ``| head`` that has quit
        read, write = os.pipe()
        os.close(read)
        src = str(Path(invariance.__file__).resolve().parents[1])
        try:
            out = subprocess.run(
                [sys.executable, "-m", "invariance.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (141, "")

    def test_import_leaves_scipy_out(self):
        loaded = modules_after("invariance.cli")
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_import_leaves_pool_out(self):
        # the worker pool is imported only when a suite runs in parallel
        loaded = modules_after("invariance.cli")
        assert [m for m in loaded
                if m.split(".")[0] == "multiprocessing"
                or m.startswith("concurrent.futures.process")] == []


@pytest.mark.skipif(not Path("/proc/self/task").is_dir()
                    or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and two CPUs")
class TestBlasThreads:
    """The command line loads OpenBLAS without its worker threads unless
    the user sets their number."""

    def test_cli_import_runs_one_thread(self):
        assert threads_after_import("invariance.cli") == (1, "1")

    def test_numpy_alone_starts_workers(self):
        # the control: without the command line's default the count is
        # more than one, so the check above can fail
        assert threads_after_import("numpy")[0] > 1

    def test_user_setting_is_kept(self):
        assert threads_after_import("invariance.cli", "2")[1] == "2"


# looked up past sys.modules, where importing the CLI here blocks it
HAS_OPENSSL = ("_hashlib" in sys.builtin_module_names
               or importlib.machinery.PathFinder.find_spec("_hashlib")
               is not None)
# the command line blocks OpenSSL only when all of these are present
HAS_BUILTIN_HASHES = all(importlib.util.find_spec(name)
                         for name in _BUILTIN_HASHES)


class TestNoOpenSSL:
    """The command line keeps OpenSSL's libcrypto out of the process when
    CPython's own hash modules serve hashlib; a library import keeps it."""

    @pytest.mark.skipif(not HAS_BUILTIN_HASHES
                        or not Path("/proc/self/maps").is_file(),
                        reason="needs CPython's built-in hash modules and "
                               "/proc/self/maps")
    def test_check_loads_no_libcrypto(self):
        out = in_fresh_interpreter(
            "import sys\n"
            "from invariance.cli import main\n"
            "main(['check', %r, '--json', '--no-timestamp'])\n"
            "maps = open('/proc/self/maps').read()\n"
            "print(sys.modules.get('_hashlib') is None, 'libcrypto' in maps)"
            % shipped("christoffel_spherical"))
        assert out.split()[-2:] == ["True", "False"]

    @pytest.mark.skipif(not HAS_OPENSSL, reason="needs _hashlib")
    def test_numpy_random_alone_loads_openssl(self):
        # the control: numpy.random reaches _hashlib through secrets and
        # hmac, so the check above can fail
        assert "_hashlib" in modules_after("numpy.random")

    @pytest.mark.skipif(not HAS_OPENSSL, reason="needs _hashlib")
    def test_library_import_keeps_openssl(self):
        assert "_hashlib" in modules_after("invariance.report, numpy.random")

    @pytest.mark.skipif(not HAS_OPENSSL, reason="needs _hashlib")
    @pytest.mark.parametrize("missing", _BUILTIN_HASHES)
    def test_a_missing_builtin_hash_keeps_openssl(self, missing):
        # without it, random's sha512 would fail to import or hashlib would
        # log an error; stderr is read with stdout, so either shows
        out = in_fresh_interpreter(
            "import sys\n"
            "sys.stderr = sys.stdout\n"
            "sys.modules[%r] = None\n"
            "import invariance.cli, hashlib, random, numpy.random\n"
            "print(sys.modules.get('_hashlib') is not None)" % missing)
        assert out.split() == ["True"]

    @pytest.mark.skipif(not HAS_OPENSSL or not HAS_BUILTIN_HASHES,
                        reason="needs _hashlib and the built-in hashes")
    def test_check_output_is_the_library_report(self):
        # the reference is made where OpenSSL computes the digest, the
        # command line's where CPython's built-in sha256 does
        path = shipped("christoffel_spherical")
        out = in_fresh_interpreter(
            "from invariance.cli import main\n"
            "main(['check', %r, '--json', '--no-timestamp'])" % path)
        reference = in_fresh_interpreter(
            "import json, sys\n"
            "from invariance.report import run_scenario\n"
            "report, code = run_scenario(%r, None, None, no_timestamp=True)\n"
            "assert code == 0 and sys.modules.get('_hashlib') is not None\n"
            "print(json.dumps(report))" % path)
        report = json.loads(reference)
        assert report["input_digest"].startswith("sha256:")
        assert json.loads(out) == report


def objects_at_exit(module):
    """Objects the collector tracks (outside the frozen generation) when
    an ``atexit`` handler registered before ``import module`` runs."""
    return int(in_fresh_interpreter(
        "import atexit, gc\n"
        "atexit.register(lambda: print(len(gc.get_objects())))\n"
        "import %s" % module))


class TestCollector:
    """The command line imports with the collector off, freezes what the
    imports leave, and freezes the heap again at exit, so no collection
    walks it; a library import leaves the collector alone."""

    def test_cli_import_freezes_the_heap(self):
        out = in_fresh_interpreter(
            "import gc, invariance.cli\n"
            "print(gc.isenabled(), gc.get_freeze_count() > 0)")
        assert out.split() == ["True", "True"]

    def test_a_disabled_collector_stays_off(self):
        out = in_fresh_interpreter(
            "import gc\n"
            "gc.disable()\n"
            "import invariance.cli\n"
            "print(gc.isenabled())")
        assert out.split() == ["False"]

    def test_teardown_finds_nothing_to_collect(self):
        # atexit runs its handlers last registered first, so this one runs
        # after the package's
        assert objects_at_exit("invariance.cli") == 0

    def test_library_import_leaves_teardown_to_collect(self):
        # the control: without the command line's handler the heap is
        # tracked at exit, so the check above can fail
        assert objects_at_exit("invariance.report") > 0

    @pytest.mark.parametrize("enabled", (True, False))
    def test_library_import_leaves_the_collector_alone(self, enabled):
        out = in_fresh_interpreter(
            "import gc\n"
            "%s\n"
            "import invariance.report\n"
            "print(gc.isenabled(), gc.get_freeze_count())"
            % ("gc.enable()" if enabled else "gc.disable()"))
        assert out.split() == [str(enabled), "0"]
