"""Command-line front end: run scenario files and print verdict reports.

Exit codes: 0 on success (including FAIL verdicts, unless --strict and an
expectation is missed), 2 on scenario schema errors, 3 on execution
errors, and 141 (128 + SIGPIPE) when the reader closes standard output
early, as ``| head`` does: the command then ends quietly.
"""

import argparse
import atexit
import gc
import importlib.util
import json
import os
import sys
from importlib import resources
from pathlib import Path

# set before numpy loads OpenBLAS: the checks make only small BLAS calls
# and run in parallel as processes, so an idle worker pool just costs CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# no check uses OpenSSL, yet the report's digest (hashlib) and numpy.random
# (secrets -> hmac, random) load its libcrypto; with CPython's own modules
# for every hash that hashlib takes from OpenSSL present, both fall back to
# them, which give the same digests.  One missing would fail random's sha512
# or log an error from hashlib at import, so then OpenSSL stays.  (blake2 is
# always CPython's own.)
_BUILTIN_HASHES = (("_md5", "_sha1", "_sha2", "_sha3")
                   if sys.version_info >= (3, 12) else
                   ("_md5", "_sha1", "_sha256", "_sha512", "_sha3"))
if all(importlib.util.find_spec(name) for name in _BUILTIN_HASHES):
    sys.modules.setdefault("_hashlib", None)

# what the imports leave lives as long as the process, so the collector
# skips it: no pass during numpy's import, none over it afterwards (nor
# in a forked worker, whose pages it would copy), and none at teardown
# over what the process still holds.  Import-time cycles are never freed.
_collecting = gc.isenabled()
gc.disable()
try:
    from .report import run_scenario, run_suite
    gc.freeze()
finally:
    if _collecting:
        gc.enable()
atexit.register(gc.freeze)

__all__ = ["main"]


def _scenario_dir():
    return resources.files("invariance") / "scenarios"


def _shipped_names():
    return sorted(p.name[:-5] for p in _scenario_dir().iterdir()
                  if p.name.endswith(".json"))


def _print_report(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    if "error" in report:
        print("%-40s ERROR (%s): %s" % (report.get("scenario", "?"),
                                        report.get("error_kind", "?"),
                                        report["error"]))
        return
    for part in sorted(report["parts"]):
        flag = "PASS" if report["parts"][part] else "FAIL"
        print("%-40s %-24s %s  residual=%.3e"
              % (report["scenario"], part, flag,
                 report["residuals"][part]))
    if not report["expectation_met"]:
        print("%-40s EXPECTATION MISSED: %s"
              % (report["scenario"], ", ".join(report["mismatches"])))


def _strict_code(reports, exit_code, strict):
    if strict and exit_code == 0:
        for r in reports:
            if "error" in r or not r.get("expectation_met", False):
                return 1
    return exit_code


def _add_common(p):
    p.add_argument("--tol", type=float, default=None,
                   help="override the scenario tolerance")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario sampling seed")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.add_argument("--strict", action="store_true",
                   help="nonzero exit when an expectation is missed")
    p.add_argument("--no-timestamp", action="store_true",
                   help="zero timestamps/runtimes for reproducible output")


def main(argv=None):
    try:
        code = _main(argv)
        # output still buffered for a pipe fails here, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point standard output at devnull, so that
        # the flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _main(argv):
    parser = argparse.ArgumentParser(
        prog="invariance",
        description="Numerical checks separating form-invariance from "
                    "frame-indifference.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one scenario file")
    p_check.add_argument("scenario", help="path to a scenario JSON file")
    _add_common(p_check)

    p_suite = sub.add_parser("suite", help="run every scenario in a "
                                           "directory")
    p_suite.add_argument("directory", help="directory of scenario files")
    p_suite.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="run scenarios in up to N worker processes "
                              "(at most one per CPU and per scenario)")
    _add_common(p_suite)

    p_demo = sub.add_parser("demo", help="run a shipped scenario by name")
    p_demo.add_argument("name", nargs="?", default=None,
                        help="shipped scenario name (omit to list)")
    _add_common(p_demo)

    args = parser.parse_args(argv)

    if args.command == "check":
        report, code = run_scenario(args.scenario, args.tol, args.seed,
                                    args.no_timestamp)
        _print_report(report, args.json)
        return _strict_code([report], code, args.strict)

    if args.command == "suite":
        root = Path(args.directory)
        if not root.is_dir():
            print("not a directory: %s" % root, file=sys.stderr)
            return 2
        paths = sorted(root.glob("*.json"))
        if not paths:
            print("no scenario files in %s" % root, file=sys.stderr)
            return 2
        reports, code = run_suite(paths, args.tol, args.seed,
                                  args.no_timestamp, max(1, args.jobs))
        if args.json:
            print(json.dumps(reports, indent=2, sort_keys=True))
        else:
            for report in reports:
                _print_report(report, False)
            met = sum(1 for r in reports if r.get("expectation_met"))
            print("%d/%d scenarios matched expectations" % (met,
                                                            len(reports)))
        return _strict_code(reports, code, args.strict)

    if args.command == "demo":
        names = _shipped_names()
        if args.name is None:
            print("\n".join(names))
            return 0
        if args.name not in names:
            print("unknown demo %r; available: %s"
                  % (args.name, ", ".join(names)), file=sys.stderr)
            return 2
        path = _scenario_dir() / (args.name + ".json")
        report, code = run_scenario(str(path), args.tol, args.seed,
                                    args.no_timestamp)
        _print_report(report, args.json)
        return _strict_code([report], code, args.strict)

    return 2


if __name__ == "__main__":
    sys.exit(main())
